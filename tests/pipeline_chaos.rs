//! Chaos stress for the save executor.
//!
//! The executor encodes on worker threads and stores from the calling
//! thread, so its failure behavior needs its own scrutiny: a dead
//! worker or a data-plane fault mid-save must surface as a clean `save`
//! error that leaves the *previous* checkpoint loadable, and the
//! recovery contract (≤ m faults → bit-exact, > m → clean refusal)
//! must hold over saves written by the executor under fault pressure.

use ecc_chaos::{ChaosConfig, ChaosPlane};
use ecc_checkpoint::{DType, StateDict, Tensor, Value};
use ecc_cluster::{Cluster, ClusterSpec};
use eccheck::{keys, EcCheck, EcCheckConfig, EcCheckError, WorkerDirtySet};

/// Shape-diverse states: worker `w` carries a `64 + (w * 41) % 160`
/// byte tensor (one packet each at the test packet size).
fn dicts(world: usize, salt: u8) -> Vec<StateDict> {
    tensor_dicts(world, |w| 64 + (w * 41) % 160, salt)
}

/// States whose tensor payload is `len(w)` bytes for worker `w`, so the
/// packet count per worker follows `len`. The payload is a tensor, not
/// `Value::Bytes`: bytes ride in the header and would leave the chunks
/// the executor codes all zeros.
fn tensor_dicts(world: usize, len: impl Fn(usize) -> usize, salt: u8) -> Vec<StateDict> {
    (0..world)
        .map(|w| {
            let len = len(w);
            let bytes: Vec<u8> = (0..len).map(|i| (i as u8) ^ (w as u8) ^ salt).collect();
            let mut sd = StateDict::new();
            sd.insert("rank", Value::Int(w as i64));
            sd.insert("salt", Value::Int(salt as i64));
            sd.insert(
                "weights",
                Value::Tensor(Tensor::from_bytes(DType::U8, &[len], bytes).expect("shape valid")),
            );
            sd
        })
        .collect()
}

fn pipelined_config(threads: usize) -> EcCheckConfig {
    EcCheckConfig::paper_defaults()
        .with_packet_size(256)
        .with_coding_threads(threads)
        .with_pipeline_buffer(64)
}

#[test]
fn node_crash_mid_save_fails_cleanly_and_keeps_the_old_checkpoint() {
    // Sweep the crash over a range of op counts so it lands in every
    // phase of the pipelined save: header broadcast, early chunk
    // placement, late chunk placement.
    for threads in [1usize, 4] {
        for after_ops in (1..40u64).step_by(4) {
            let spec = ClusterSpec::tiny_test(4, 2);
            let mut ecc = EcCheck::initialize(&spec, pipelined_config(threads)).unwrap();
            let mut plane = ChaosPlane::new(Cluster::new(spec), ChaosConfig::quiet(9));
            let good = dicts(8, 1);
            ecc.save(&mut plane, &good).expect("fault-free save succeeds");

            plane.schedule_crash_at_op(0, plane.op() + after_ops);
            let crashed = ecc.save(&mut plane, &dicts(8, 2));
            plane.cancel_scheduled_crashes();

            match crashed {
                // The crash hit inside the save: version 1 must still load.
                Err(_) => {
                    plane.heal(0);
                    let (restored, report) =
                        ecc.load(&mut plane).expect("previous checkpoint must survive");
                    assert_eq!(report.version, 1, "threads={threads} after_ops={after_ops}");
                    assert_eq!(restored, good, "threads={threads} after_ops={after_ops}");
                }
                // The crash landed after the save completed (or on a
                // node whose puts were already done): the new version
                // must load once the node is replaced.
                Ok(report) => {
                    assert_eq!(report.version, 2);
                    plane.heal(0);
                    let (restored, load) = ecc.load(&mut plane).expect("new checkpoint loads");
                    assert_eq!(load.version, 2);
                    assert_eq!(restored, dicts(8, 2));
                }
            }
        }
    }
}

/// The stripe count of a healthy save of `dicts(8, _)` under
/// `pipelined_config`: the length of the task stream a fail point can
/// land in.
fn healthy_stripes() -> u64 {
    let spec = ClusterSpec::tiny_test(4, 2);
    let mut plane = Cluster::new(spec);
    let mut ecc = EcCheck::initialize(&spec, pipelined_config(1)).unwrap();
    let report = ecc.save(&mut plane, &dicts(8, 1)).expect("fault-free save succeeds");
    report.pipeline.expect("every save carries stage stats").stripes as u64
}

#[test]
fn worker_killed_mid_steal_fails_cleanly_and_keeps_the_old_checkpoint() {
    // Kill an encode worker at its n-th stripe pick-up and sweep n
    // across the whole stripe stream, so the panic lands while peers
    // are mid-encode, waiting on the queue or already done. Each save
    // must fail with `StageFailed` (never hang, never commit a
    // half-encoded version), and the previous checkpoint must load
    // bit-exactly afterwards.
    let stripes = healthy_stripes();
    let mut fail_points: Vec<u64> = (0..stripes).step_by(3).chain([stripes - 1]).collect();
    fail_points.dedup();
    assert!(stripes >= 8, "the shape must produce a real stripe stream, got {stripes}");
    assert!(
        fail_points.iter().all(|&n| n < stripes),
        "a fail point past the {stripes}-stripe stream never fires"
    );
    for threads in [1usize, 2, 4, 8] {
        for &fail_at in &fail_points {
            let spec = ClusterSpec::tiny_test(4, 2);
            let good = dicts(8, 1);
            let mut plane = ChaosPlane::new(Cluster::new(spec), ChaosConfig::quiet(11));
            let mut ecc = EcCheck::initialize(&spec, pipelined_config(threads)).unwrap();
            ecc.save(&mut plane, &good).expect("fault-free save succeeds");

            ecc.set_fail_encode_task(Some(fail_at));
            match ecc.save(&mut plane, &dicts(8, 2)) {
                Err(EcCheckError::StageFailed { detail }) => {
                    assert!(
                        detail.contains("worker"),
                        "threads={threads} fail_at={fail_at}: {detail}"
                    );
                }
                other => panic!(
                    "threads={threads} fail_at={fail_at}: save must fail with StageFailed, \
                     got {:?}",
                    other.map(|r| r.version)
                ),
            }

            // The previous checkpoint is untouched.
            ecc.set_fail_encode_task(None);
            let (restored, report) =
                ecc.load(&mut plane).expect("previous checkpoint must survive");
            assert_eq!(report.version, 1, "threads={threads} fail_at={fail_at}");
            assert_eq!(restored, good, "threads={threads} fail_at={fail_at}");
        }
    }
}

#[test]
fn a_failed_encode_stores_no_chunk_of_the_new_version() {
    // The encode finishes before the first put, so a worker that dies at
    // any stripe leaves no chunk of version 2 on any node — not even the
    // data chunks, which need no encoding.
    let stripes = healthy_stripes();
    for threads in [1usize, 4] {
        for fail_at in [0, stripes / 2, stripes - 1] {
            let spec = ClusterSpec::tiny_test(4, 2);
            let mut plane = Cluster::new(spec);
            let mut ecc = EcCheck::initialize(&spec, pipelined_config(threads)).unwrap();
            let sealed = ecc.save(&mut plane, &dicts(8, 1)).expect("fault-free save succeeds");
            ecc.set_fail_encode_task(Some(fail_at));
            let failed = ecc.save(&mut plane, &dicts(8, 2));
            assert!(
                matches!(failed, Err(EcCheckError::StageFailed { .. })),
                "threads={threads} fail_at={fail_at}: {:?}",
                failed.map(|r| r.version)
            );
            let next = keys::chunk_key(sealed.version + 1);
            for node in 0..spec.nodes() {
                assert_eq!(
                    plane.get_local(node, &next),
                    None,
                    "threads={threads} fail_at={fail_at}: node {node} holds {next}"
                );
            }
        }
    }
}

#[test]
fn failed_save_with_a_different_packet_count_leaves_the_sealed_layout_alone() {
    // The failed save packs into a different number of packets per
    // worker than the sealed version, growing (1 -> 8) and shrinking
    // (8 -> 1). Until a save seals, the engine must keep describing the
    // version it can still restore.
    for (sealed_len, failed_len) in [(100usize, 2000usize), (2000, 100)] {
        let spec = ClusterSpec::tiny_test(4, 2);
        let mut plane = ChaosPlane::new(Cluster::new(spec), ChaosConfig::quiet(17));
        let mut ecc = EcCheck::initialize(&spec, pipelined_config(2)).unwrap();
        let good = tensor_dicts(8, |_| sealed_len, 1);
        ecc.save(&mut plane, &good).expect("fault-free save succeeds");

        ecc.set_fail_encode_task(Some(0));
        let failed = ecc.save(&mut plane, &tensor_dicts(8, |_| failed_len, 2));
        assert!(
            matches!(failed, Err(EcCheckError::StageFailed { .. })),
            "{sealed_len}->{failed_len}: {:?}",
            failed.map(|r| r.version)
        );
        ecc.set_fail_encode_task(None);

        assert_eq!(ecc.version(), 1, "{sealed_len}->{failed_len}");
        let (restored, report) = ecc.load(&mut plane).expect("sealed version must survive");
        assert_eq!(report.version, 1, "{sealed_len}->{failed_len}");
        assert_eq!(restored, good, "{sealed_len}->{failed_len}");

        let patched = tensor_dicts(8, |_| sealed_len, 3).swap_remove(5);
        let delta = ecc
            .save_delta(&mut plane, &[WorkerDirtySet { worker: 5, state: &patched }])
            .expect("delta on the sealed version still applies");
        assert_eq!(delta.version, 1);
        let (restored, _) = ecc.load(&mut plane).expect("patched version loads");
        assert_eq!(restored[5], patched, "{sealed_len}->{failed_len}");
        assert_eq!(restored[4], good[4], "{sealed_len}->{failed_len}");
    }
}

#[test]
fn disarmed_fail_point_never_fires() {
    // A fail point beyond the task stream is a save that must succeed:
    // the counter reaches every task without hitting the trigger.
    let spec = ClusterSpec::tiny_test(4, 2);
    let mut plane = ChaosPlane::new(Cluster::new(spec), ChaosConfig::quiet(13));
    let mut ecc = EcCheck::initialize(&spec, pipelined_config(4)).unwrap();
    ecc.set_fail_encode_task(Some(u64::MAX));
    let state = dicts(8, 7);
    ecc.save(&mut plane, &state).expect("out-of-range fail point is inert");
    let (restored, _) = ecc.load(&mut plane).unwrap();
    assert_eq!(restored, state);
}

#[test]
fn executor_written_checkpoints_uphold_the_m_fault_budget() {
    let spec = ClusterSpec::tiny_test(4, 2);
    let mut ecc = EcCheck::initialize(&spec, pipelined_config(4)).unwrap();
    let mut plane = ChaosPlane::new(Cluster::new(spec), ChaosConfig::quiet(3));
    let state = dicts(8, 5);
    let report = ecc.save(&mut plane, &state).unwrap();

    // Exactly m = 2 chunk-class faults, one crash + one corruption:
    // recovery must be bit-exact and must report the corruption.
    plane.crash_now(1);
    plane.heal(1);
    assert!(plane.corrupt_blob(3, &keys::chunk_key(report.version)));
    let (restored, load) = ecc.load(&mut plane).expect("m faults are survivable");
    assert_eq!(restored, state);
    assert_eq!(load.failed_nodes, vec![1, 3]);
    assert_eq!(load.corrupt_nodes, vec![3]);

    // A fresh save restores full tolerance; then > m faults must refuse
    // cleanly rather than decode garbage.
    let next = dicts(8, 6);
    ecc.save(&mut plane, &next).unwrap();
    for node in 0..3 {
        plane.crash_now(node);
        plane.heal(node);
    }
    match ecc.load(&mut plane) {
        Err(EcCheckError::Unrecoverable { survivors, needed, .. }) => {
            assert!(survivors < needed, "refusal must name the shortfall");
        }
        other => panic!("3 > m faults must refuse, got {other:?}"),
    }
}

#[test]
fn executor_survives_flaky_puts_or_fails_closed() {
    // In-flight put faults (drops, corruption, duplicates) during
    // pipelined saves: every save must either succeed with a loadable
    // checkpoint or fail; a later fault-free save must always heal.
    for seed in 0..6u64 {
        let spec = ClusterSpec::tiny_test(4, 2);
        let mut ecc = EcCheck::initialize(&spec, pipelined_config(3)).unwrap();
        let chaos = ChaosConfig::quiet(seed)
            .with_drop_put(0.05)
            .with_corrupt_put(0.05)
            .with_duplicate_put(0.05);
        let mut plane = ChaosPlane::new(Cluster::new(spec), chaos);

        let mut last_good: Option<(u64, Vec<StateDict>)> = None;
        for round in 1..=4u8 {
            let state = dicts(8, round);
            if let Ok(report) = ecc.save(&mut plane, &state) {
                // Saves under put-faults may have shed ≤ m chunks; the
                // checkpoint must still load bit-exactly (or cleanly
                // refuse if chaos took more than m).
                match ecc.load(&mut plane) {
                    Ok((restored, load)) => {
                        assert_eq!(restored, state, "seed {seed} round {round}");
                        assert_eq!(load.version, report.version);
                        last_good = Some((report.version, state));
                    }
                    Err(EcCheckError::Unrecoverable { .. }) => {}
                    Err(other) => panic!("seed {seed} round {round}: unclean error {other}"),
                }
            }
        }

        // Disarm chaos; the engine must recover full health.
        plane.inner_mut(); // plane stays, faults continue — use a clean save instead
        let final_state = dicts(8, 99);
        let mut clean = ChaosPlane::new(plane.into_inner(), ChaosConfig::quiet(seed));
        let report = ecc.save(&mut clean, &final_state).expect("fault-free save heals");
        let (restored, load) = ecc.load(&mut clean).expect("healed checkpoint loads");
        assert_eq!(load.version, report.version);
        assert_eq!(restored, final_state);
        let _ = last_good;
    }
}
