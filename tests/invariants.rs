//! Cross-crate invariants, property-tested: traffic accounting, failure
//! sampling vs closed-form reliability, and code-level recoverability.

use ecc_checkpoint::{DType, StateDict, Tensor, Value};
use ecc_cluster::{Cluster, ClusterSpec, FailureModel};
use ecc_erasure::{CodeParams, ErasureCode};
use ecc_reliability::{ec_recovery, monte_carlo_recovery, replication_pairs_recovery};
use eccheck::{select_data_parity_nodes, EcCheck, EcCheckConfig, EcCheckError, ReductionPlan};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Small, shape-diverse worker states for end-to-end engine proptests.
/// The payload is a tensor (`Value::Bytes` rides in the header), so the
/// failure patterns below decode real bytes, not zeros.
fn engine_dicts(world: usize) -> Vec<StateDict> {
    (0..world)
        .map(|w| {
            let mut sd = StateDict::new();
            sd.insert("rank", Value::Int(w as i64));
            let len = 40 + (w * 13) % 80;
            let bytes = (0..len).map(|i| (i as u8).wrapping_mul(5) ^ w as u8 ^ 0x5A).collect();
            let t = Tensor::from_bytes(DType::U8, &[len], bytes).expect("tensor shape valid");
            sd.insert("payload", Value::Tensor(t));
            sd
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The §V-F invariant: total checkpoint traffic is m·s·W — exactly,
    /// when data groups align with node boundaries ((W/k) % g == 0, the
    /// paper's implicit assumption that every data node starts with g of
    /// its group's packets); within a bounded slack otherwise.
    #[test]
    fn traffic_totals_msw(
        k in 1usize..6,
        m in 1usize..6,
        g in 1usize..6,
        s in 1u64..1000,
    ) {
        let nodes = k + m;
        let spec = ClusterSpec::tiny_test(nodes, g);
        let world = spec.world_size();
        prop_assume!(world.is_multiple_of(k));
        let placement = select_data_parity_nodes(&spec.origin_group(), k).unwrap();
        let plan = ReductionPlan::build(&spec, &placement, m).unwrap();
        let t = plan.traffic(s);
        let msw = (m as u64) * s * (world as u64);
        if (world / k).is_multiple_of(g) {
            prop_assert_eq!(t.total(), msw);
        } else {
            // Misaligned shapes pay extra data P2P (a data node cannot
            // start with g packets of its group), bounded by k·g packets.
            prop_assert!(t.total() >= msw);
            prop_assert!(t.total() <= msw + (k * g) as u64 * s);
        }
    }

    /// Recoverability of the actual erasure code matches the counting
    /// argument behind Eqn. 2: decode succeeds iff at most m chunks are
    /// erased.
    #[test]
    fn code_recoverability_matches_counting(
        k in 1usize..5,
        m in 1usize..5,
        erased_mask in any::<u16>(),
    ) {
        let code = ErasureCode::cauchy_good(CodeParams::new(k, m, 8).unwrap()).unwrap();
        let n = k + m;
        let data: Vec<Vec<u8>> = (0..k).map(|i| vec![i as u8 + 1; 64]).collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = code.encode(&refs).unwrap();
        let mut chunks: Vec<&[u8]> = refs.clone();
        chunks.extend(parity.iter().map(|c| c.as_slice()));
        let erased: Vec<bool> = (0..n).map(|i| (erased_mask >> i) & 1 == 1).collect();
        let shards: Vec<Option<&[u8]>> =
            (0..n).map(|i| (!erased[i]).then(|| chunks[i])).collect();
        let erased_count = erased.iter().filter(|&&e| e).count();
        match code.decode(&shards) {
            Ok(decoded) => {
                prop_assert!(erased_count <= m);
                prop_assert_eq!(decoded, data);
            }
            Err(_) => prop_assert!(erased_count > m),
        }
    }

    /// Placement always yields a data-node set whose P2P cost is within
    /// one group of the trivial lower bound (W - k·g when groups align).
    #[test]
    fn placement_p2p_cost_is_bounded(
        k in 1usize..6,
        m in 0usize..4,
        g in 1usize..6,
    ) {
        let nodes = k + m;
        prop_assume!(nodes >= k && nodes >= 1);
        let spec = ClusterSpec::tiny_test(nodes, g);
        let world = spec.world_size();
        prop_assume!(world.is_multiple_of(k));
        let origin = spec.origin_group();
        let placement = select_data_parity_nodes(&origin, k).unwrap();
        let cost = eccheck::data_p2p_packets(&origin, &placement);
        // Lower bound: each data node can hold at most g of its group's
        // W/k packets locally.
        let group = world / k;
        let lower: usize = k * group.saturating_sub(g);
        prop_assert!(cost >= lower);
        prop_assert!(cost <= world);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The paper's headline guarantee, end to end through the real
    /// engine: on *every* (k, m, g) shape, losing exactly `m` nodes —
    /// any `m`, the worst case the code is sized for — restores the
    /// checkpoint bit-exactly.
    #[test]
    fn exactly_m_node_failures_always_recover(
        k in 1usize..5,
        m in 1usize..4,
        g in 1usize..4,
        sel in any::<u64>(),
    ) {
        let nodes = k + m;
        let spec = ClusterSpec::tiny_test(nodes, g);
        prop_assume!(spec.world_size().is_multiple_of(k));
        let mut cluster = Cluster::new(spec);
        let mut ecc = EcCheck::initialize(
            &spec,
            EcCheckConfig::paper_defaults()
                .with_km(k, m)
                .with_packet_size(256)
                .with_coding_threads(1),
        )
        .unwrap();
        let dicts = engine_dicts(spec.world_size());
        ecc.save(&mut cluster, &dicts).unwrap();

        // Fail exactly m nodes, the subset chosen by `sel`.
        let mut order: Vec<usize> = (0..nodes).collect();
        order.shuffle(&mut StdRng::seed_from_u64(sel));
        for &n in &order[..m] {
            cluster.fail_node(n);
            cluster.replace_node(n);
        }

        let (restored, report) = ecc.load(&mut cluster).unwrap();
        prop_assert_eq!(restored, dicts);
        prop_assert_eq!(report.failed_nodes.len(), m);
    }

    /// And one loss beyond the budget refuses cleanly: a structured
    /// `Unrecoverable` naming lost workers — never garbage.
    #[test]
    fn m_plus_one_failures_refuse_cleanly(
        k in 1usize..5,
        m in 1usize..4,
        g in 1usize..4,
        sel in any::<u64>(),
    ) {
        let nodes = k + m;
        let spec = ClusterSpec::tiny_test(nodes, g);
        prop_assume!(spec.world_size().is_multiple_of(k));
        let mut cluster = Cluster::new(spec);
        let mut ecc = EcCheck::initialize(
            &spec,
            EcCheckConfig::paper_defaults()
                .with_km(k, m)
                .with_packet_size(256)
                .with_coding_threads(1),
        )
        .unwrap();
        let dicts = engine_dicts(spec.world_size());
        ecc.save(&mut cluster, &dicts).unwrap();

        let mut order: Vec<usize> = (0..nodes).collect();
        order.shuffle(&mut StdRng::seed_from_u64(sel));
        for &n in &order[..m + 1] {
            cluster.fail_node(n);
            cluster.replace_node(n);
        }

        match ecc.load(&mut cluster) {
            Err(EcCheckError::Unrecoverable { survivors, needed, lost_workers }) => {
                prop_assert_eq!(survivors, k - 1);
                prop_assert_eq!(needed, k);
                // m+1 failures among k+m nodes always hit >= 1 data node.
                prop_assert!(!lost_workers.is_empty());
            }
            other => prop_assert!(false, "expected Unrecoverable, got {:?}", other.map(|r| r.1)),
        }
    }
}

/// Monte-Carlo failure sampling through the cluster's own failure model
/// agrees with the closed-form group recovery rates — tying the
/// `ecc-cluster` and `ecc-reliability` crates together.
#[test]
fn cluster_failure_model_matches_closed_forms() {
    let p = 0.12;
    let trials = 100_000;
    let model = FailureModel::new(p).unwrap();
    let mut ec_ok = 0usize;
    let mut rep_ok = 0usize;
    for seed in 0..trials {
        let scenario = model.sample(4, seed as u64);
        if scenario.count() <= 2 {
            ec_ok += 1;
        }
        let pair0 = scenario.is_failed(0) && scenario.is_failed(1);
        let pair1 = scenario.is_failed(2) && scenario.is_failed(3);
        if !pair0 && !pair1 {
            rep_ok += 1;
        }
    }
    let mc_ec = ec_ok as f64 / trials as f64;
    let mc_rep = rep_ok as f64 / trials as f64;
    assert!((mc_ec - ec_recovery(4, 2, p)).abs() < 0.01, "EC {mc_ec}");
    assert!((mc_rep - replication_pairs_recovery(4, p)).abs() < 0.01, "rep {mc_rep}");
    // And the reliability crate's own sampler agrees with itself.
    let lib_mc = monte_carlo_recovery(4, p, trials, 9, ecc_reliability::ec_predicate(2));
    assert!((lib_mc - mc_ec).abs() < 0.01);
}
