//! Differential harness for the pipelined save executor.
//!
//! `SaveMode::Pipelined` reschedules the encode → XOR-reduce → transfer
//! work of a save; it must never change *what* a save stores. These
//! tests hold it to that: for every code shape, stripe-buffer size and
//! thread count, a pipelined save must leave every node of the cluster
//! holding byte-identical blobs — same keys, same chunk bytes, same
//! checksum frames — as a sequential save of the same state, and a
//! checkpoint written by either mode must load back exactly.

use ecc_checkpoint::{StateDict, Value};
use ecc_cluster::{Cluster, ClusterSpec};
use eccheck::store::drain_version;
use eccheck::{keys, EcCheck, EcCheckConfig, SaveMode};
use proptest::prelude::*;

/// Deterministic, shape-diverse worker states. `extra` grows one
/// worker's payload so saves cover uneven shard sizes and the packet
/// padding tail.
fn dicts_for(world: usize, salt: u8, extra: usize) -> Vec<StateDict> {
    (0..world)
        .map(|w| {
            let mut sd = StateDict::new();
            sd.insert("rank", Value::Int(w as i64));
            sd.insert("salt", Value::Int(salt as i64));
            let len = 40 + (w * 37) % 200 + if w == 0 { extra } else { 0 };
            let payload: Vec<u8> =
                (0..len).map(|i| (i as u8).wrapping_mul(31) ^ (w as u8) ^ salt).collect();
            sd.insert("payload", Value::Bytes(payload));
            sd
        })
        .collect()
}

/// Every blob on every live node, in a canonical order: the complete
/// observable result of a save on the local data plane.
fn local_fingerprint(cluster: &Cluster, nodes: usize) -> Vec<(usize, String, Vec<u8>)> {
    let mut out = Vec::new();
    for node in 0..nodes {
        for key in cluster.local_keys(node) {
            let bytes = cluster.get_local(node, &key).expect("listed key readable").to_vec();
            out.push((node, key, bytes));
        }
    }
    out
}

struct Saved {
    cluster: Cluster,
    ecc: EcCheck,
    nodes: usize,
}

/// Runs `saves` checkpoints of evolving state through one engine.
fn run_saves(nodes: usize, gpus: usize, cfg: EcCheckConfig, saves: u64, extra: usize) -> Saved {
    let spec = ClusterSpec::tiny_test(nodes, gpus);
    let mut cluster = Cluster::new(spec);
    let mut ecc = EcCheck::initialize(&spec, cfg).expect("config valid for shape");
    for v in 1..=saves {
        let dicts = dicts_for(spec.world_size(), v as u8, extra);
        ecc.save(&mut cluster, &dicts).expect("save succeeds");
    }
    Saved { cluster, ecc, nodes }
}

fn base_config(k: usize, m: usize) -> EcCheckConfig {
    EcCheckConfig::paper_defaults().with_km(k, m).with_packet_size(256)
}

#[test]
fn pipelined_stores_identical_blobs_across_shapes_buffers_and_threads() {
    // (k, m, gpus): world = (k+m)*gpus must divide by k.
    for (k, m, gpus) in [(2usize, 2usize, 1usize), (2, 2, 2), (4, 2, 2), (3, 3, 1)] {
        let nodes = k + m;
        let oracle =
            run_saves(nodes, gpus, base_config(k, m).with_save_mode(SaveMode::Sequential), 1, 0);
        let want = local_fingerprint(&oracle.cluster, nodes);
        assert!(!want.is_empty(), "oracle must have stored something");
        for buffer in [64usize, 256, 1024, 8192] {
            for threads in [1usize, 2, 4, 8] {
                let got = run_saves(
                    nodes,
                    gpus,
                    base_config(k, m)
                        .with_save_mode(SaveMode::Pipelined)
                        .with_coding_threads(threads)
                        .with_pipeline_buffer(buffer),
                    1,
                    0,
                );
                assert_eq!(
                    local_fingerprint(&got.cluster, nodes),
                    want,
                    "k={k} m={m} gpus={gpus} buffer={buffer} threads={threads}"
                );
            }
        }
    }
}

#[test]
fn modes_agree_across_multiple_save_versions() {
    // Version numbering, header turnover and chunk contents must track
    // each other save after save, not just on the first one.
    let seq = run_saves(4, 2, base_config(2, 2).with_save_mode(SaveMode::Sequential), 3, 0);
    let pipe = run_saves(
        4,
        2,
        base_config(2, 2)
            .with_save_mode(SaveMode::Pipelined)
            .with_coding_threads(3)
            .with_pipeline_buffer(128),
        3,
        0,
    );
    assert_eq!(local_fingerprint(&pipe.cluster, 4), local_fingerprint(&seq.cluster, 4));
}

#[test]
fn checkpoints_load_back_from_either_mode_after_failures() {
    for mode in [SaveMode::Sequential, SaveMode::Pipelined] {
        let Saved { mut cluster, ecc, .. } =
            run_saves(4, 2, base_config(2, 2).with_save_mode(mode), 2, 0);
        let expected = dicts_for(8, 2, 0);

        // Clean load first, then a two-node failure burst (= m).
        let (restored, _) = ecc.load(&mut cluster).expect("clean load");
        assert_eq!(restored, expected, "{mode:?} clean load");
        cluster.fail_node(0);
        cluster.fail_node(2);
        cluster.replace_node(0);
        cluster.replace_node(2);
        let (restored, report) = ecc.load(&mut cluster).expect("recovery load");
        assert_eq!(restored, expected, "{mode:?} recovery load");
        assert_eq!(report.version, 2);
    }
}

#[test]
fn drained_copy_is_mode_independent() {
    let mut seq = run_saves(4, 1, base_config(2, 2).with_save_mode(SaveMode::Sequential), 1, 0);
    let mut pipe = run_saves(
        4,
        1,
        base_config(2, 2).with_save_mode(SaveMode::Pipelined).with_pipeline_buffer(96),
        1,
        0,
    );
    for saved in [&mut seq, &mut pipe] {
        drain_version(&mut saved.cluster, 1, 4, saved.ecc.recorder()).expect("v1 is sealed");
    }
    assert_eq!(pipe.cluster.remote_used(), seq.cluster.remote_used());
    let world = 4;
    let mut remote_keys: Vec<String> = vec![keys::remote_manifest_key(1)];
    for node in 0..4 {
        remote_keys.push(keys::remote_chunk_key(1, node));
        remote_keys.push(keys::remote_chunk_crc_key(1, node));
    }
    for worker in 0..world {
        remote_keys.push(keys::remote_header_key(1, worker));
        remote_keys.push(keys::remote_header_crc_key(1, worker));
    }
    for key in remote_keys {
        assert_eq!(
            pipe.cluster.get_remote(&key),
            seq.cluster.get_remote(&key),
            "remote blob {key} must not depend on the save mode"
        );
        assert!(pipe.cluster.get_remote(&key).is_some(), "remote blob {key} must exist");
    }
}

#[test]
fn pipelined_saves_report_stage_accounting() {
    let pipe = run_saves(
        4,
        1,
        base_config(2, 2).with_save_mode(SaveMode::Pipelined).with_pipeline_buffer(64),
        1,
        0,
    );
    let snap = pipe.ecc.recorder().snapshot();
    assert!(snap.counter("ecc.pipeline.stripes") > 0, "stripes must be counted");
    assert!(
        snap.counter("ecc.pipeline.encode_tasks") >= snap.counter("ecc.pipeline.stripes"),
        "each stripe takes at least one encode task per data chunk"
    );

    let seq = run_saves(4, 1, base_config(2, 2).with_save_mode(SaveMode::Sequential), 1, 0);
    let seq_snap = seq.ecc.recorder().snapshot();
    assert_eq!(seq_snap.counter("ecc.pipeline.stripes"), 0, "sequential saves use no stripes");
    // Both paths keep the aggregate encode totals complete.
    assert_eq!(
        snap.counter("erasure.encode.bytes"),
        seq_snap.counter("erasure.encode.bytes"),
        "aggregate encode byte accounting must not depend on the mode"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The core differential property, over randomly sized shards
    /// (including tails that are not a multiple of the stripe buffer),
    /// random stripe buffers and random thread counts.
    #[test]
    fn pipelined_is_bit_identical_for_arbitrary_shards(
        extra in 0usize..4000,
        buffer in 16usize..6000,
        threads in 1usize..8,
        depth in 2usize..6,
    ) {
        let seq = run_saves(4, 1, base_config(2, 2).with_save_mode(SaveMode::Sequential), 1, extra);
        let pipe = run_saves(
            4,
            1,
            base_config(2, 2)
                .with_save_mode(SaveMode::Pipelined)
                .with_coding_threads(threads)
                .with_pipeline_buffer(buffer)
                .with_pipeline_depth(depth),
            1,
            extra,
        );
        prop_assert_eq!(
            local_fingerprint(&pipe.cluster, pipe.nodes),
            local_fingerprint(&seq.cluster, seq.nodes)
        );
    }
}
