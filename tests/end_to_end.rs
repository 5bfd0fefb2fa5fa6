//! End-to-end integration: the full ECCheck stack on a paper-testbed-
//! shaped cluster (4 nodes × 4 GPUs) with Megatron-style shards from
//! every Table I model family.

use ecc_cluster::{Cluster, ClusterSpec};
use ecc_dnn::{build_worker_state_dict, ModelConfig, ParallelismSpec, StateDictSpec};
use eccheck::store::drain_version;
use eccheck::{EcCheck, EcCheckConfig, RecoveryWorkflow};

fn tiny_model(family: &str) -> ModelConfig {
    let base = match family {
        "gpt2" => ModelConfig::gpt2(64, 4, 8),
        "bert" => ModelConfig::bert(64, 4, 8),
        "t5" => ModelConfig::t5(64, 4, 8),
        other => panic!("unknown family {other}"),
    };
    base.with_vocab(512).with_seq_len(32)
}

fn paper_shaped_dicts(family: &str, iteration: u64) -> Vec<ecc_checkpoint::StateDict> {
    // TP=4 within nodes, PP=4 across nodes: the paper's hybrid setup.
    let par = ParallelismSpec::new(4, 4, 1).unwrap();
    let spec = StateDictSpec { iteration, ..StateDictSpec::new(tiny_model(family), par) };
    (0..16).map(|w| build_worker_state_dict(&spec, w).unwrap()).collect()
}

fn engine(spec: &ClusterSpec) -> EcCheck {
    EcCheck::initialize(
        spec,
        EcCheckConfig::paper_defaults().with_packet_size(4096).with_coding_threads(4),
    )
    .unwrap()
}

#[test]
fn all_model_families_round_trip_through_failures() {
    for family in ["gpt2", "bert", "t5"] {
        let spec = ClusterSpec::tiny_test(4, 4);
        let mut cluster = Cluster::new(spec);
        let mut ecc = engine(&spec);
        let dicts = paper_shaped_dicts(family, 100);
        ecc.save(&mut cluster, &dicts).unwrap();
        cluster.fail_node(0);
        cluster.fail_node(2); // both data nodes die
        cluster.replace_node(0);
        cluster.replace_node(2);
        let (restored, report) = ecc.load(&mut cluster).unwrap();
        assert_eq!(restored, dicts, "family {family}");
        assert_eq!(report.workflow, RecoveryWorkflow::Decode);
    }
}

#[test]
fn training_loop_with_periodic_checkpoints_and_mid_run_failure() {
    let spec = ClusterSpec::tiny_test(4, 4);
    let mut cluster = Cluster::new(spec);
    let mut ecc = engine(&spec);

    // "Train" for 5 checkpoint cycles, state evolving each time.
    let mut latest = None;
    let mut expected_traffic = 0u64;
    for step in 1..=5u64 {
        let dicts = paper_shaped_dicts("gpt2", step * 50);
        let report = ecc.save(&mut cluster, &dicts).unwrap();
        // The paper's traffic bound: every save moves exactly m·s·W bytes
        // (m parity packets of size s for each of the W data packets).
        let m = 2u64; // paper_defaults: k = m = 2
        let w_packets = (report.packets_per_worker * 16) as u64;
        assert_eq!(report.traffic.total(), m * report.packet_size as u64 * w_packets);
        expected_traffic += report.traffic.total();
        assert_eq!(
            ecc.recorder().snapshot().counter("ecc.save.traffic_bytes"),
            expected_traffic,
            "telemetry must account every byte of checkpoint traffic"
        );
        latest = Some(dicts);
    }

    // Failure strikes; recovery must return the *latest* checkpoint.
    cluster.fail_node(1);
    cluster.fail_node(2);
    cluster.replace_node(1);
    cluster.replace_node(2);
    let (restored, report) = ecc.load(&mut cluster).unwrap();
    assert_eq!(report.version, 5);
    assert_eq!(restored, latest.unwrap());

    // Training continues after recovery: further saves and loads work.
    let next = paper_shaped_dicts("gpt2", 300);
    ecc.save(&mut cluster, &next).unwrap();
    let (after, _) = ecc.load(&mut cluster).unwrap();
    assert_eq!(after, next);

    // Telemetry tallies the whole history: 6 saves, 2 recoveries, and
    // every restored byte accounted for.
    let snap = ecc.recorder().snapshot();
    assert_eq!(snap.counter("ecc.save.calls"), 6);
    assert_eq!(snap.counter("ecc.load.calls"), 2);
    let payload: u64 = next.iter().map(|d| d.tensor_bytes() as u64).sum();
    assert!(snap.counter("ecc.load.restored_bytes") >= payload);
    assert!(snap.counter("erasure.encode.bytes") > 0);
}

#[test]
fn sequential_failures_across_checkpoints() {
    // Failure, recovery, new checkpoint, different failure — the fault
    // tolerance capacity must be fully restored between events.
    let spec = ClusterSpec::tiny_test(4, 4);
    let mut cluster = Cluster::new(spec);
    let mut ecc = engine(&spec);
    let v1 = paper_shaped_dicts("gpt2", 1);
    ecc.save(&mut cluster, &v1).unwrap();

    for (round, (a, b)) in [(0usize, 1usize), (2, 3), (0, 2), (1, 3)].iter().enumerate() {
        cluster.fail_node(*a);
        cluster.fail_node(*b);
        cluster.replace_node(*a);
        cluster.replace_node(*b);
        let (restored, _) = ecc.load(&mut cluster).unwrap();
        let expected = paper_shaped_dicts("gpt2", round as u64 + 1);
        assert_eq!(restored, expected, "round {round}");
        // Save the next "training" state before the next failure.
        let next = paper_shaped_dicts("gpt2", round as u64 + 2);
        ecc.save(&mut cluster, &next).unwrap();
    }
}

#[test]
fn catastrophic_failure_recovers_from_the_drained_copy() {
    let spec = ClusterSpec::tiny_test(4, 4);
    let mut cluster = Cluster::new(spec);
    let mut ecc = engine(&spec);
    let dicts = paper_shaped_dicts("gpt2", 42);
    let report = ecc.save(&mut cluster, &dicts).unwrap();
    drain_version(&mut cluster, report.version, spec.world_size(), ecc.recorder()).unwrap();

    // Lose more than m nodes — in-memory recovery is impossible.
    for n in 0..4 {
        cluster.fail_node(n);
        cluster.replace_node(n);
    }
    let (restored, load) = ecc.load(&mut cluster).unwrap();
    assert_eq!(load.workflow, RecoveryWorkflow::Remote);
    assert_eq!(restored, dicts);
}

#[test]
fn memory_redundancy_is_bounded_by_2x() {
    // k = m means every node stores one chunk of W/k packets: the same
    // 2x overhead as replication (paper Fig. 2), plus small headers.
    let spec = ClusterSpec::tiny_test(4, 4);
    let mut cluster = Cluster::new(spec);
    let mut ecc = engine(&spec);
    let dicts = paper_shaped_dicts("gpt2", 7);
    let payload: usize = dicts.iter().map(|d| d.tensor_bytes()).sum();
    let report = ecc.save(&mut cluster, &dicts).unwrap();
    let stored: u64 = (0..4).map(|n| cluster.mem_used(n)).sum();
    // Total in-memory bytes ≈ 2 × payload (n/k = 2), padded to packets.
    let padded_payload = (report.packets_per_worker * report.packet_size * 16) as f64;
    assert!(stored as f64 >= padded_payload * 1.9);
    assert!(
        (stored as f64) < padded_payload * 2.0 + 1_000_000.0,
        "stored {stored} vs padded payload {padded_payload}"
    );
    assert!(padded_payload < payload as f64 * 1.6, "padding should be modest");
}
