//! Reduction groups and XOR-reduction target selection (paper §IV-B-2).
//!
//! The `W` workers are divided into `k` data groups of `W/k` workers
//! (the packets of data group `j` form data chunk `j`). Reduction group
//! `r` gathers the workers holding relative index `r` in each data
//! group; it performs `m` XOR reductions, one per parity chunk, so
//! `(W/k) · m` reductions happen per checkpoint in total — a count that
//! is invariant to node roles. What the target selection *can* optimise
//! is where each reduction result lands: on a parity worker, the result
//! needs no further P2P transfer.

use std::ops::Range;

use ecc_cluster::ClusterSpec;

use crate::{EcCheckError, Placement};

/// One reduction group: `k` member workers and the `m` chosen reduction
/// targets (one per parity chunk).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReductionGroup {
    members: Vec<usize>,
    targets: Vec<usize>,
}

impl ReductionGroup {
    /// The member workers, one from each data group (by relative index).
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// `targets()[i]` is the worker that accumulates parity packet `i`.
    pub fn targets(&self) -> &[usize] {
        &self.targets
    }
}

/// The complete reduction plan for one checkpoint layout.
///
/// # Examples
///
/// ```
/// use ecc_cluster::ClusterSpec;
/// use eccheck::{select_data_parity_nodes, ReductionPlan};
///
/// let spec = ClusterSpec::paper_testbed(); // 4 nodes × 4 GPUs
/// let placement = select_data_parity_nodes(&spec.origin_group(), 2)?;
/// let plan = ReductionPlan::build(&spec, &placement, 2)?;
/// assert_eq!(plan.groups().len(), 8); // W/k = 16/2
/// // Total checkpoint traffic is m × model size (paper §V-F).
/// let t = plan.traffic(1);
/// assert_eq!(t.total(), 2 * 16);
/// # Ok::<(), eccheck::EcCheckError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReductionPlan {
    groups: Vec<ReductionGroup>,
    k: usize,
    m: usize,
    world: usize,
    gpus_per_node: usize,
    placement: Placement,
    origin: Vec<Range<usize>>,
}

impl ReductionPlan {
    /// Builds the plan for a cluster, node placement, and parity count.
    ///
    /// # Errors
    ///
    /// Returns [`EcCheckError::Config`] when the world size does not
    /// divide by `k` or the placement disagrees with `m`.
    pub fn build(
        spec: &ClusterSpec,
        placement: &Placement,
        m: usize,
    ) -> Result<Self, EcCheckError> {
        let world = spec.world_size();
        let k = placement.k();
        if placement.m() != m {
            return Err(EcCheckError::Config {
                detail: format!("placement provides {} parity nodes but m = {m}", placement.m()),
            });
        }
        if !world.is_multiple_of(k) {
            return Err(EcCheckError::Config {
                detail: format!("world size {world} does not divide into {k} data groups"),
            });
        }
        let group_size = world / k;
        let mut groups = Vec::with_capacity(group_size);
        for r in 0..group_size {
            let members: Vec<usize> = (0..k).map(|j| j * group_size + r).collect();
            let targets = select_targets(&members, placement, spec, m);
            groups.push(ReductionGroup { members, targets });
        }
        Ok(Self {
            groups,
            k,
            m,
            world,
            gpus_per_node: spec.gpus_per_node(),
            placement: placement.clone(),
            origin: spec.origin_group(),
        })
    }

    /// The reduction groups, ordered by relative index.
    pub fn groups(&self) -> &[ReductionGroup] {
        &self.groups
    }

    /// Number of XOR reduction operations per checkpoint:
    /// `(W/k) · m` (paper §IV-B-2).
    pub fn reduction_op_count(&self) -> usize {
        self.groups.len() * self.m
    }

    /// Traffic accounting for one checkpoint with per-worker packet
    /// payload `packet_units` (in arbitrary units, typically bytes).
    pub fn traffic(&self, packet_units: u64) -> TrafficSummary {
        // XOR reduction: each of the (W/k)·m reductions moves k-1 packets
        // (a chain through the k members ending at the target).
        let xor_units = (self.groups.len() * self.m * (self.k - 1)) as u64 * packet_units;
        // Data P2P: packets the data nodes still need.
        let data_units =
            crate::placement::data_p2p_packets(&self.origin, &self.placement) as u64 * packet_units;
        // Parity P2P: reduction results not already on the right parity
        // node.
        let mut parity_moves = 0u64;
        for g in &self.groups {
            for (i, &target) in g.targets.iter().enumerate() {
                let target_node = target / self.gpus_per_node;
                if target_node != self.placement.parity_nodes()[i] {
                    parity_moves += 1;
                }
            }
        }
        TrafficSummary {
            xor_reduction: xor_units,
            data_p2p: data_units,
            parity_p2p: parity_moves * packet_units,
        }
    }

    /// Cluster node hosting the reduction target of group `group` for
    /// parity index `parity`.
    pub fn target_node(&self, group: usize, parity: usize) -> usize {
        self.groups[group].targets[parity] / self.gpus_per_node
    }

    /// How many reductions per checkpoint land on a target worker that
    /// already lives on the owning parity node (rule 1 of target
    /// selection, paper §IV-B-2) — those results need no parity P2P hop.
    /// The complement of the `parity_p2p` moves counted by
    /// [`ReductionPlan::traffic`].
    pub fn local_target_hits(&self) -> usize {
        let mut hits = 0;
        for (g, group) in self.groups.iter().enumerate() {
            for i in 0..group.targets.len() {
                if self.target_node(g, i) == self.placement.parity_nodes()[i] {
                    hits += 1;
                }
            }
        }
        hits
    }
}

/// Selects the `m` reduction targets for one group (paper §IV-B-2).
///
/// Rule 1: a member living on parity node `i` absorbs reduction `i`
/// (its result is already where parity chunk `i` lives). For the
/// remaining reductions: `k == m` pairs them 1:1 with members; `k > m`
/// spreads them at interval `⌊k/m⌋`; `k < m` wraps round-robin.
fn select_targets(
    members: &[usize],
    placement: &Placement,
    spec: &ClusterSpec,
    m: usize,
) -> Vec<usize> {
    let k = members.len();
    let mut targets: Vec<Option<usize>> = vec![None; m];
    // Rule 1: members on parity nodes take "their" parity index.
    for &w in members {
        let node = spec.node_of_worker(w);
        if let Some(i) = placement.parity_nodes().iter().position(|&p| p == node) {
            if targets[i].is_none() {
                targets[i] = Some(w);
            }
        }
    }
    // Remaining reductions fall back to the k/m distribution rules.
    let open: Vec<usize> = (0..m).filter(|&i| targets[i].is_none()).collect();
    if !open.is_empty() {
        if k >= m {
            let stride = (k / m).max(1);
            for (slot, &i) in open.iter().enumerate() {
                targets[i] = Some(members[(slot * stride) % k]);
            }
        } else {
            for (slot, &i) in open.iter().enumerate() {
                targets[i] = Some(members[slot % k]);
            }
        }
    }
    targets.into_iter().map(|t| t.expect("all targets assigned")).collect()
}

/// Byte counts of the three communication phases of one checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficSummary {
    /// Bytes moved during XOR reduction chains.
    pub xor_reduction: u64,
    /// Bytes of data packets moved to data nodes.
    pub data_p2p: u64,
    /// Bytes of parity packets moved to parity nodes.
    pub parity_p2p: u64,
}

impl TrafficSummary {
    /// Total bytes moved.
    pub fn total(&self) -> u64 {
        self.xor_reduction + self.data_p2p + self.parity_p2p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select_data_parity_nodes;

    fn plan_for(nodes: usize, g: usize, k: usize, m: usize) -> ReductionPlan {
        let spec = ClusterSpec::tiny_test(nodes, g);
        let placement = select_data_parity_nodes(&spec.origin_group(), k).unwrap();
        ReductionPlan::build(&spec, &placement, m).unwrap()
    }

    #[test]
    fn paper_testbed_groups_and_ops() {
        let plan = plan_for(4, 4, 2, 2);
        assert_eq!(plan.groups().len(), 8);
        assert_eq!(plan.reduction_op_count(), 16);
        // Every group has one member from each data group.
        for (r, g) in plan.groups().iter().enumerate() {
            assert_eq!(g.members(), &[r, 8 + r]);
        }
    }

    /// The headline invariant of §V-F: total communication volume for one
    /// checkpoint equals m × s × W.
    #[test]
    fn total_traffic_is_m_s_w() {
        // The last three rows are the k > m ladder (4,2), (6,3), (8,4)
        // at 2 GPUs per node; k = 6 and 8 lie outside the property
        // suite's `k in 1..6` range (`tests/invariants.rs`).
        for (nodes, g, k, m) in [
            (4, 4, 2, 2),
            (4, 1, 2, 2),
            (6, 2, 3, 3),
            (8, 4, 4, 4),
            (6, 2, 4, 2),
            (9, 2, 6, 3),
            (12, 2, 8, 4),
        ] {
            let plan = plan_for(nodes, g, k, m);
            let s = 10u64;
            let w = (nodes * g) as u64;
            let t = plan.traffic(s);
            assert_eq!(t.total(), m as u64 * s * w, "nodes={nodes} g={g} k={k} m={m}: {t:?}");
        }
    }

    #[test]
    fn traffic_breakdown_matches_closed_forms() {
        // Paper §V-F: XOR = (W/k)·m·(k-1)·s, data = (W - k·g)·s,
        // parity = ((W/k) - g)·m·s.
        let (nodes, g, k, m) = (4usize, 4usize, 2usize, 2usize);
        let plan = plan_for(nodes, g, k, m);
        let s = 7u64;
        let w = nodes * g;
        let t = plan.traffic(s);
        assert_eq!(t.xor_reduction, ((w / k) * m * (k - 1)) as u64 * s);
        assert_eq!(t.data_p2p, (w - k * g) as u64 * s);
        assert_eq!(t.parity_p2p, ((w / k - g) * m) as u64 * s);
    }

    #[test]
    fn members_on_parity_nodes_become_targets() {
        // Paper testbed: groups with r in 4..8 have members on nodes 1
        // and 3 (the parity nodes); those members must be the targets.
        let plan = plan_for(4, 4, 2, 2);
        for r in 4..8 {
            let g = &plan.groups()[r];
            assert_eq!(g.targets()[0], g.members()[0], "r={r} parity 0 on node 1");
            assert_eq!(g.targets()[1], g.members()[1], "r={r} parity 1 on node 3");
        }
        // Groups with r in 0..4 live on data nodes: k == m pairs 1:1.
        for r in 0..4 {
            let g = &plan.groups()[r];
            assert_eq!(g.targets().len(), 2);
            assert!(g.targets().iter().all(|t| g.members().contains(t)));
            assert_ne!(g.targets()[0], g.targets()[1], "k == m spreads targets");
        }
    }

    #[test]
    fn k_greater_than_m_skips_workers() {
        // k = 4, m = 2 on a single-GPU-per-node cluster of 6: every
        // reduction group is all 6 nodes' single workers... here 6 nodes,
        // k=4, m=2, g=2 -> W=12, group size 3.
        let plan = plan_for(6, 2, 4, 2);
        for g in plan.groups() {
            assert_eq!(g.targets().len(), 2);
            // Targets are distinct members (stride k/m = 2).
            assert!(g.targets().iter().all(|t| g.members().contains(t)));
        }
    }

    #[test]
    fn k_less_than_m_round_robins() {
        // 6 nodes × 1 GPU, k = 2, m = 4: W = 6, group size 3, members 2.
        let plan = plan_for(6, 1, 2, 4);
        for g in plan.groups() {
            assert_eq!(g.targets().len(), 4);
            for t in g.targets() {
                assert!(g.members().contains(t));
            }
        }
    }

    /// `local_target_hits` is exactly the complement of the parity P2P
    /// moves `traffic` charges for: every reduction either lands on its
    /// parity node (a hit) or pays one parity move.
    #[test]
    fn local_hits_complement_parity_moves() {
        for (nodes, g, k, m) in [(4, 4, 2, 2), (4, 1, 2, 2), (6, 2, 3, 3), (8, 4, 4, 4)] {
            let plan = plan_for(nodes, g, k, m);
            let t = plan.traffic(1);
            let reductions = plan.reduction_op_count() as u64;
            assert_eq!(
                plan.local_target_hits() as u64 + t.parity_p2p,
                reductions,
                "nodes={nodes} g={g} k={k} m={m}"
            );
            for (r, group) in plan.groups().iter().enumerate() {
                for i in 0..group.targets().len() {
                    let node = plan.target_node(r, i);
                    assert!(node < nodes, "target node in range");
                }
            }
        }
    }

    #[test]
    fn placement_mismatch_is_rejected() {
        let spec = ClusterSpec::tiny_test(4, 2);
        let placement = select_data_parity_nodes(&spec.origin_group(), 2).unwrap();
        assert!(ReductionPlan::build(&spec, &placement, 3).is_err());
    }
}
