//! Determinism of the save executor's observability.
//!
//! The executor runs on real worker threads that take stripes off one
//! shared queue, so nothing about thread scheduling may leak into the
//! measurements: under a manual clock, a run's telemetry snapshot *and*
//! exported Chrome trace must be byte-identical across runs and across
//! worker-thread counts (counters count work, not threads; encode spans
//! are recorded per stripe, re-emitted after the join in stripe order
//! on a single thread-count-independent track). A steal storm — many
//! tiny stripes, far more workers than stripes — must lose and
//! duplicate nothing. The idle-slot gate accounts in virtual time, so a
//! gated save is held to the same standard.

use std::sync::Arc;

use ecc_checkpoint::{DType, StateDict, Tensor, Value};
use ecc_cluster::{Cluster, ClusterSpec};
use ecc_sim::{Bandwidth, BusyWindows, SimDuration, SimTime};
use ecc_telemetry::{ManualClock, Recorder};
use ecc_trace::validate_chrome_trace;
use eccheck::{keys, EcCheck, EcCheckConfig};

/// Tensor payloads (not `Value::Bytes`, which rides in the header), so
/// the stripes the executor schedules carry real bytes.
fn dicts(world: usize) -> Vec<StateDict> {
    (0..world)
        .map(|w| {
            let mut sd = StateDict::new();
            sd.insert("rank", Value::Int(w as i64));
            let len = 96 + (w * 29) % 180;
            let bytes = (0..len).map(|i| (i as u8).wrapping_mul(7) ^ w as u8 ^ 0x3C).collect();
            let t = Tensor::from_bytes(DType::U8, &[len], bytes).expect("tensor shape valid");
            sd.insert("payload", Value::Tensor(t));
            sd
        })
        .collect()
}

/// Two saves, a failure burst and a recovery under a manual clock;
/// returns (telemetry snapshot JSON, Chrome trace JSON).
fn run_once(threads: usize) -> (String, String) {
    let spec = ClusterSpec::tiny_test(4, 2);
    let mut cluster = Cluster::new(spec);
    let cfg = EcCheckConfig::paper_defaults()
        .with_packet_size(1024)
        .with_coding_threads(threads)
        .with_pipeline_buffer(128);
    let mut ecc = EcCheck::initialize(&spec, cfg).unwrap();
    let clock = Arc::new(ManualClock::new());
    ecc.set_recorder(Recorder::with_clock(clock.clone()));
    let tracer = ecc.attach_tracer();

    let current = dicts(8);
    clock.advance_ns(1_000_000);
    ecc.save(&mut cluster, &current).unwrap();
    clock.advance_ns(1_000_000);
    ecc.save(&mut cluster, &current).unwrap();
    cluster.fail_node(0);
    cluster.fail_node(3);
    cluster.replace_node(0);
    cluster.replace_node(3);
    clock.advance_ns(250_000);
    let (restored, _) = ecc.load(&mut cluster).unwrap();
    assert_eq!(restored, current);
    (ecc.recorder().snapshot().to_json(), tracer.chrome_trace_json())
}

#[test]
fn snapshot_and_trace_are_byte_identical_across_runs_at_every_thread_count() {
    for threads in [1usize, 2, 4, 8] {
        let (snap_a, trace_a) = run_once(threads);
        let (snap_b, trace_b) = run_once(threads);
        assert_eq!(snap_a, snap_b, "telemetry must be run-deterministic at threads={threads}");
        assert_eq!(trace_a, trace_b, "trace must be run-deterministic at threads={threads}");
        let stats = validate_chrome_trace(&trace_a).expect("exporter output must validate");
        assert!(stats.spans > 0 && stats.flows > 0, "threads={threads}: {stats:?}");
    }
}

#[test]
fn snapshot_and_trace_are_byte_identical_across_stealing_thread_counts() {
    // Which worker takes which stripe is a scheduling accident, but the
    // observability contract is stronger than run-determinism: the
    // deferred, stripe-ordered span re-emission on a single `encode`
    // track makes the whole trace identical whether 1 or 8 workers ran
    // the queue (busy times live in `SaveReport::pipeline` only).
    let (snap_one, trace_one) = run_once(1);
    for threads in [2usize, 4, 8] {
        let (snap, trace) = run_once(threads);
        assert_eq!(snap, snap_one, "telemetry diverged between 1 and {threads} threads");
        assert_eq!(trace, trace_one, "trace diverged between 1 and {threads} threads");
    }
}

#[test]
fn steal_storm_loses_and_duplicates_nothing() {
    // Many tiny stripes with threads >> stripes: every worker races the
    // others for the queue. A lost stripe would leave its parity rows
    // zero and its row CRCs out of the stitched manifest entries, and a
    // duplicated one would stitch its CRCs twice — so a bit-exact reload
    // (every chunk held to its entry) proves exactly-once execution, and
    // the stats must agree with the 1-thread run.
    let run = |threads: usize| {
        let spec = ClusterSpec::tiny_test(4, 2);
        let mut cluster = Cluster::new(spec);
        let cfg = EcCheckConfig::paper_defaults()
            .with_packet_size(1024)
            .with_coding_threads(threads)
            .with_pipeline_buffer(64);
        let mut ecc = EcCheck::initialize(&spec, cfg).unwrap();
        let clock = Arc::new(ManualClock::new());
        ecc.set_recorder(Recorder::with_clock(clock.clone()));
        let current = dicts(8);
        let report = ecc.save(&mut cluster, &current).unwrap();
        let (restored, _) = ecc.load(&mut cluster).unwrap();
        assert_eq!(restored, current, "steal storm corrupted the checkpoint at {threads} threads");
        let stats = report.pipeline.expect("every save carries stage stats");
        (stats, ecc.recorder().snapshot().to_json())
    };
    let (base, snap_base) = run(1);
    assert!(base.stripes >= 4, "shape must produce a real stripe stream, got {}", base.stripes);
    assert_eq!(base.encode_tasks, base.stripes as u64, "one task per stripe");
    for threads in [4usize, 16, 64] {
        let (stats, snap) = run(threads);
        assert_eq!(stats.stripes, base.stripes, "stripe count drifted at {threads} threads");
        assert_eq!(
            stats.encode_tasks, base.encode_tasks,
            "task count drifted at {threads} threads"
        );
        assert_eq!(stats.stripe_rows, base.stripe_rows);
        assert_eq!(stats.encode_workers, threads.min(stats.stripes), "workers cap at stripes");
        assert_eq!(snap, snap_base, "telemetry drifted at {threads} threads");
    }
}

#[test]
fn telemetry_snapshot_does_not_depend_on_the_thread_count() {
    // Counters count stripes, pieces and bytes — functions of the save's
    // geometry, never of how many workers happened to execute them.
    // Scheduling-dependent values (busy ns) live in
    // `SaveReport::pipeline`, not in the recorder.
    let (snap_one, _) = run_once(1);
    let (snap_eight, _) = run_once(8);
    assert_eq!(snap_one, snap_eight, "thread count leaked into telemetry");
    for key in [
        "ecc.pipeline.stripes",
        "ecc.pipeline.encode_tasks",
        "ecc.pipeline.crc_pieces",
        "erasure.encode.bytes",
        "ecc.save.pipeline_ns",
    ] {
        assert!(snap_one.contains(key), "snapshot JSON must include {key}");
    }
}

#[test]
fn per_save_stage_accounting_is_work_deterministic() {
    // The deterministic halves of `SaveReport::pipeline` must agree
    // between runs and thread counts; only busy/wait values may differ.
    let report = |threads: usize| {
        let spec = ClusterSpec::tiny_test(4, 2);
        let mut cluster = Cluster::new(spec);
        let cfg = EcCheckConfig::paper_defaults()
            .with_packet_size(1024)
            .with_coding_threads(threads)
            .with_pipeline_buffer(128);
        let mut ecc = EcCheck::initialize(&spec, cfg).unwrap();
        ecc.save(&mut cluster, &dicts(8)).unwrap()
    };
    let one = report(1).pipeline.expect("every save carries stage stats");
    let eight = report(8).pipeline.expect("every save carries stage stats");
    assert_eq!(one.stripes, eight.stripes);
    assert_eq!(one.stripe_rows, eight.stripe_rows);
    assert_eq!(one.buffer_bytes, eight.buffer_bytes);
    assert_eq!(one.encode_tasks, eight.encode_tasks);
    assert_eq!(one.local_reduce_targets, eight.local_reduce_targets);
    assert_eq!((one.encode_workers, eight.encode_workers), (1, 8));
    for occ in [one.encode_occupancy(), one.reduce_occupancy(), one.transfer_occupancy()] {
        assert!((0.0..=1.0).contains(&occ), "occupancy out of range: {occ}");
    }
}

#[test]
fn gated_save_schedules_every_transfer_into_the_idle_slots_deterministically() {
    // Attaching a profile arms the gate (paper §IV-B-3): each of the
    // k + m chunk transfers is admitted through it in store order, the
    // virtual-time wait is a function of the profile alone — never of
    // the thread count — and gating changes no stored byte.
    let run = |threads: usize, wire_bytes_per_ms: Option<usize>| {
        let spec = ClusterSpec::tiny_test(4, 2);
        let mut cluster = Cluster::new(spec);
        let cfg = EcCheckConfig::paper_defaults()
            .with_packet_size(1024)
            .with_coding_threads(threads)
            .with_pipeline_buffer(128);
        let mut ecc = EcCheck::initialize(&spec, cfg).unwrap();
        if let Some(rate) = wire_bytes_per_ms {
            // The wire is busy during [1 ms, 3 ms) of the iteration.
            let ms = |n| SimTime::ZERO + SimDuration::from_millis(n);
            let mut busy = BusyWindows::new();
            busy.add_busy(ms(1), ms(3));
            ecc.set_idle_profile(busy, Bandwidth::from_bytes_per_sec(rate as f64 * 1000.0));
        }
        let stats = ecc.save(&mut cluster, &dicts(8)).unwrap().pipeline.expect("stage stats");
        let blobs: Vec<_> = (0..4)
            .flat_map(|node| cluster.local_keys(node).into_iter().map(move |key| (node, key)))
            .map(|(node, key)| (node, cluster.get_local(node, &key).expect("listed"), key))
            .collect();
        (stats, blobs, ecc.recorder().snapshot())
    };

    let (ungated, want, _) = run(2, None);
    assert_eq!((ungated.slot_admissions, ungated.slot_wait_ns), (0, 0));
    let chunk_len = want.iter().find(|(_, _, key)| *key == keys::chunk_key(1)).unwrap().1.len();

    // One chunk takes exactly 1 ms of wire: the first transfer fills
    // [0, 1), the second parks behind the busy window for 2 ms, the
    // last two follow back to back.
    for threads in [1usize, 8] {
        let (gated, got, snap) = run(threads, Some(chunk_len));
        assert_eq!(gated.slot_admissions, 4, "k + m transfers at {threads} threads");
        assert_eq!(gated.slot_wait_ns, 2_000_000, "slot wait at {threads} threads");
        assert_eq!(snap.counter("ecc.pipeline.slot_admissions"), 4);
        assert_eq!(snap.counter("ecc.pipeline.slot_wait_ns"), 2_000_000);
        assert_eq!(got, want, "gating must not change what is stored ({threads} threads)");
    }
}
