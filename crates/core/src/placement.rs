//! Optimal data/parity node selection (paper §IV-B-1).
//!
//! The decision of which nodes become data nodes determines how many
//! checkpoint packets must move during the P2P phase: a data node already
//! holds the packets of its own workers, so the best assignment maximises
//! the overlap between each logical data group (the workers whose packets
//! form one chunk) and one physical node. The paper formulates this as a
//! maximum-overlap interval pairing solved with a sweep line over the
//! interval endpoints; both `origin_group` and `data_group` are sorted,
//! disjoint intervals over the worker axis, so a single coordinated pass
//! computes every non-zero overlap in `O((n + k) log(n + k))` (the log
//! from the final greedy ordering).

use std::ops::Range;

use ecc_cluster::NodeId;

use crate::EcCheckError;

/// The chosen role of every node.
///
/// # Examples
///
/// ```
/// use eccheck::select_data_parity_nodes;
///
/// // Paper Fig. 9: 3 nodes × 2 workers, k = 2 -> node 1 is the parity
/// // node (choosing node 2 would cost one extra packet transfer).
/// let origin = vec![0..2, 2..4, 4..6];
/// let p = select_data_parity_nodes(&origin, 2)?;
/// assert_eq!(p.data_nodes(), &[0, 2]);
/// assert_eq!(p.parity_nodes(), &[1]);
/// # Ok::<(), eccheck::EcCheckError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    data_nodes: Vec<NodeId>,
    parity_nodes: Vec<NodeId>,
    group_size: usize,
}

impl Placement {
    /// Builds a placement from an explicit chunk→node assignment, for
    /// callers that remap roles outside the sweep line — a membership
    /// controller rebinding chunks after churn, or tests constructing
    /// adversarial layouts. [`select_data_parity_nodes`] remains the
    /// paper's optimal assignment; this constructor only checks the
    /// structural invariants that the rest of the engine relies on.
    ///
    /// # Errors
    ///
    /// Returns [`EcCheckError::Config`] when `data_nodes` is empty,
    /// `group_size` is zero, or any node appears twice across the two
    /// role lists (a co-located pair of chunks would halve the fault
    /// budget, violating the m-fault guarantee).
    pub fn new(
        data_nodes: Vec<NodeId>,
        parity_nodes: Vec<NodeId>,
        group_size: usize,
    ) -> Result<Self, EcCheckError> {
        if data_nodes.is_empty() {
            return Err(EcCheckError::Config { detail: "placement needs k >= 1".into() });
        }
        if group_size == 0 {
            return Err(EcCheckError::Config { detail: "placement group_size must be > 0".into() });
        }
        let mut seen = std::collections::BTreeSet::new();
        for &node in data_nodes.iter().chain(&parity_nodes) {
            if !seen.insert(node) {
                return Err(EcCheckError::Config {
                    detail: format!("node {node} would hold two chunks of one parity group"),
                });
            }
        }
        Ok(Self { data_nodes, parity_nodes, group_size })
    }

    /// `data_nodes()[j]` stores data chunk `j`.
    pub fn data_nodes(&self) -> &[NodeId] {
        &self.data_nodes
    }

    /// `parity_nodes()[i]` stores parity chunk `i`.
    pub fn parity_nodes(&self) -> &[NodeId] {
        &self.parity_nodes
    }

    /// Number of data chunks (`k`).
    pub fn k(&self) -> usize {
        self.data_nodes.len()
    }

    /// Number of parity chunks (`m`).
    pub fn m(&self) -> usize {
        self.parity_nodes.len()
    }

    /// Workers per data group (`W / k`).
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// The data group (worker interval) whose packets form chunk `j`.
    pub fn data_group(&self, j: usize) -> Range<usize> {
        j * self.group_size..(j + 1) * self.group_size
    }

    /// The chunk stored by `node`: `Ok(j)` for data chunk `j`,
    /// `Err(i)` for parity chunk `i`... expressed as an enum-free pair:
    /// returns `(is_data, index)`.
    pub fn role_of(&self, node: NodeId) -> Option<(bool, usize)> {
        if let Some(j) = self.data_nodes.iter().position(|&n| n == node) {
            return Some((true, j));
        }
        self.parity_nodes.iter().position(|&n| n == node).map(|i| (false, i))
    }

    /// The id of the chunk `node` stores: data chunks first, then parity.
    pub(crate) fn chunk_of(&self, node: NodeId) -> usize {
        match self.role_of(node).expect("every node has a role") {
            (true, j) => j,
            (false, i) => self.k() + i,
        }
    }
}

/// Runs the sweep-line maximum-overlap pairing.
///
/// `origin_group[i]` is the contiguous worker range hosted by node `i`
/// (physical placement); the `k` logical data groups split the whole
/// worker range evenly. Each data group is paired with the node of
/// maximum overlap; ties and conflicts resolve greedily by descending
/// overlap (then ascending indices, for determinism). Unpaired nodes
/// become parity nodes in ascending order.
///
/// # Errors
///
/// Returns [`EcCheckError::Config`] when `k` is zero or exceeds the node
/// count, when the worker count does not divide by `k`, or when the
/// origin intervals are not contiguous from zero.
pub fn select_data_parity_nodes(
    origin_group: &[Range<usize>],
    k: usize,
) -> Result<Placement, EcCheckError> {
    let n = origin_group.len();
    if k == 0 || k > n {
        return Err(EcCheckError::Config { detail: format!("k = {k} must be within 1..={n}") });
    }
    let mut cursor = 0usize;
    for (i, r) in origin_group.iter().enumerate() {
        if r.start != cursor || r.end <= r.start {
            return Err(EcCheckError::Config {
                detail: format!("origin_group[{i}] = {r:?} is not contiguous from {cursor}"),
            });
        }
        cursor = r.end;
    }
    let world = cursor;
    if !world.is_multiple_of(k) {
        return Err(EcCheckError::Config {
            detail: format!("{world} workers do not divide into {k} data groups"),
        });
    }
    let group_size = world / k;

    // Coordinated sweep over both sorted interval lists: advance whichever
    // interval ends first, recording every non-zero (chunk, node) overlap.
    let mut overlaps: Vec<(usize, usize, usize)> = Vec::new(); // (overlap, chunk, node)
    let mut node = 0usize;
    let mut chunk = 0usize;
    while node < n && chunk < k {
        let o = &origin_group[node];
        let d = chunk * group_size..(chunk + 1) * group_size;
        let lo = o.start.max(d.start);
        let hi = o.end.min(d.end);
        if lo < hi {
            overlaps.push((hi - lo, chunk, node));
        }
        if o.end <= d.end {
            node += 1;
        } else {
            chunk += 1;
        }
        if o.end == d.end {
            chunk += 1;
        }
    }

    // Greedy resolution: largest overlaps first; ties broken by indices
    // so the outcome is deterministic and matches the paper's examples.
    overlaps.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    let mut data_nodes: Vec<Option<NodeId>> = vec![None; k];
    let mut node_taken = vec![false; n];
    for &(_, chunk, node) in &overlaps {
        if data_nodes[chunk].is_none() && !node_taken[node] {
            data_nodes[chunk] = Some(node);
            node_taken[node] = true;
        }
    }
    // Any chunk still unassigned (its overlapping nodes all taken) gets
    // the lowest free node.
    for slot in data_nodes.iter_mut() {
        if slot.is_none() {
            let free = node_taken.iter().position(|&t| !t).expect("k <= n guarantees a free node");
            node_taken[free] = true;
            *slot = Some(free);
        }
    }
    let data_nodes: Vec<NodeId> =
        data_nodes.into_iter().map(|s| s.expect("all chunks assigned")).collect();
    let parity_nodes: Vec<NodeId> = (0..n).filter(|&i| !data_nodes.contains(&i)).collect();
    Ok(Placement { data_nodes, parity_nodes, group_size })
}

/// Number of data packets that must cross the network in the P2P phase:
/// each data node needs every packet of its data group, minus those its
/// own workers already hold (paper Fig. 9's accounting).
pub fn data_p2p_packets(origin_group: &[Range<usize>], placement: &Placement) -> usize {
    (0..placement.k())
        .map(|j| {
            let group = placement.data_group(j);
            let node_range = &origin_group[placement.data_nodes()[j]];
            let lo = group.start.max(node_range.start);
            let hi = group.end.min(node_range.end);
            let overlap = hi.saturating_sub(lo);
            group.len() - overlap
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn uniform_origin(nodes: usize, g: usize) -> Vec<Range<usize>> {
        (0..nodes).map(|i| i * g..(i + 1) * g).collect()
    }

    #[test]
    fn explicit_constructor_enforces_invariants() {
        let p = Placement::new(vec![3, 0], vec![1, 2], 2).unwrap();
        assert_eq!(p.k(), 2);
        assert_eq!(p.m(), 2);
        assert_eq!(p.role_of(3), Some((true, 0)));
        assert_eq!(p.role_of(2), Some((false, 1)));
        assert_eq!(p.role_of(9), None);
        assert!(Placement::new(vec![], vec![1], 2).is_err());
        assert!(Placement::new(vec![0], vec![1], 0).is_err());
        // Co-location of two chunks on one node is refused.
        assert!(Placement::new(vec![0, 1], vec![1], 2).is_err());
        assert!(Placement::new(vec![0, 0], vec![1], 2).is_err());
    }

    #[test]
    fn explicit_constructor_matches_sweep_line() {
        let origin = uniform_origin(4, 2);
        let swept = select_data_parity_nodes(&origin, 2).unwrap();
        let built = Placement::new(
            swept.data_nodes().to_vec(),
            swept.parity_nodes().to_vec(),
            swept.group_size(),
        )
        .unwrap();
        assert_eq!(built, swept);
    }

    #[test]
    fn fig9_example_picks_the_cheap_parity_node() {
        // 3 nodes × 2 workers, k = 2: node 1 as parity costs 6 traffic
        // units, node 2 would cost 7 (paper Fig. 9).
        let origin = uniform_origin(3, 2);
        let p = select_data_parity_nodes(&origin, 2).unwrap();
        assert_eq!(p.data_nodes(), &[0, 2]);
        assert_eq!(p.parity_nodes(), &[1]);
        // Two data packets cross the network (worker 2's to node 0 and
        // worker 3's to node 2) — together with the one parity-packet
        // move this gives the paper's 3 P2P operations for Fig. 9a.
        assert_eq!(data_p2p_packets(&origin, &p), 2);
    }

    #[test]
    fn paper_testbed_alternates_data_and_parity() {
        // 4 nodes × 4 workers, k = 2 (Fig. 6): nodes 0 and 2 are data
        // nodes, 1 and 3 parity.
        let origin = uniform_origin(4, 4);
        let p = select_data_parity_nodes(&origin, 2).unwrap();
        assert_eq!(p.data_nodes(), &[0, 2]);
        assert_eq!(p.parity_nodes(), &[1, 3]);
        assert_eq!(p.group_size(), 8);
        assert_eq!(p.data_group(1), 8..16);
    }

    #[test]
    fn k_equals_n_uses_every_node() {
        let origin = uniform_origin(4, 2);
        let p = select_data_parity_nodes(&origin, 4).unwrap();
        assert_eq!(p.data_nodes(), &[0, 1, 2, 3]);
        assert!(p.parity_nodes().is_empty());
        assert_eq!(data_p2p_packets(&origin, &p), 0);
    }

    #[test]
    fn perfect_alignment_needs_no_data_p2p() {
        // Group size == node size: every data node holds its chunk already.
        let origin = uniform_origin(6, 3);
        let p = select_data_parity_nodes(&origin, 6).unwrap();
        assert_eq!(data_p2p_packets(&origin, &p), 0);
    }

    #[test]
    fn role_lookup() {
        let origin = uniform_origin(4, 4);
        let p = select_data_parity_nodes(&origin, 2).unwrap();
        assert_eq!(p.role_of(0), Some((true, 0)));
        assert_eq!(p.role_of(1), Some((false, 0)));
        assert_eq!(p.role_of(2), Some((true, 1)));
        assert_eq!(p.role_of(3), Some((false, 1)));
        assert_eq!(p.role_of(9), None);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let origin = uniform_origin(3, 2);
        assert!(select_data_parity_nodes(&origin, 0).is_err());
        assert!(select_data_parity_nodes(&origin, 4).is_err());
        // 6 workers, k = 4 does not divide.
        assert!(select_data_parity_nodes(&origin, 4).is_err());
        // Non-contiguous origin.
        assert!(select_data_parity_nodes(&[0..2, 3..5], 1).is_err());
        // Empty node interval.
        assert!(select_data_parity_nodes(&[0..0, 0..2], 1).is_err());
    }

    /// Brute force: try every k-subset of nodes as data nodes (in every
    /// chunk order) and find the minimum P2P packet count.
    fn brute_force_min_p2p(origin: &[Range<usize>], k: usize) -> usize {
        fn perms(items: &[usize]) -> Vec<Vec<usize>> {
            if items.len() <= 1 {
                return vec![items.to_vec()];
            }
            let mut out = Vec::new();
            for (i, &x) in items.iter().enumerate() {
                let mut rest = items.to_vec();
                rest.remove(i);
                for mut p in perms(&rest) {
                    p.insert(0, x);
                    out.push(p);
                }
            }
            out
        }
        let n = origin.len();
        let world: usize = origin.iter().map(|r| r.len()).sum();
        let group = world / k;
        let all: Vec<usize> = (0..n).collect();
        let mut best = usize::MAX;
        for perm in perms(&all) {
            let assignment = &perm[..k];
            let cost: usize = (0..k)
                .map(|j| {
                    let d = j * group..(j + 1) * group;
                    let o = &origin[assignment[j]];
                    let overlap = o.end.min(d.end).saturating_sub(o.start.max(d.start));
                    group - overlap
                })
                .sum();
            best = best.min(cost);
        }
        best
    }

    #[test]
    fn sweep_line_matches_brute_force_on_small_clusters() {
        for (nodes, g, k) in [(3, 2, 2), (4, 4, 2), (4, 2, 2), (5, 2, 2), (6, 2, 3), (4, 3, 3)] {
            let origin = uniform_origin(nodes, g);
            if (nodes * g) % k != 0 {
                continue;
            }
            let p = select_data_parity_nodes(&origin, k).unwrap();
            let got = data_p2p_packets(&origin, &p);
            let best = brute_force_min_p2p(&origin, k);
            assert_eq!(got, best, "nodes={nodes} g={g} k={k}");
        }
    }

    proptest! {
        #[test]
        fn prop_placement_is_a_partition(nodes in 1usize..10, g in 1usize..5, k in 1usize..10) {
            prop_assume!(k <= nodes);
            prop_assume!((nodes * g) % k == 0);
            let origin = uniform_origin(nodes, g);
            let p = select_data_parity_nodes(&origin, k).unwrap();
            let mut all: Vec<usize> =
                p.data_nodes().iter().chain(p.parity_nodes()).copied().collect();
            all.sort_unstable();
            prop_assert_eq!(all, (0..nodes).collect::<Vec<_>>());
        }

        #[test]
        fn prop_data_p2p_never_exceeds_world(nodes in 2usize..8, g in 1usize..5) {
            let origin = uniform_origin(nodes, g);
            let world = nodes * g;
            for k in 1..=nodes {
                if world % k != 0 { continue; }
                let p = select_data_parity_nodes(&origin, k).unwrap();
                prop_assert!(data_p2p_packets(&origin, &p) <= world);
            }
        }
    }
}
