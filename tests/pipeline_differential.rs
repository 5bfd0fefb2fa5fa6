//! Differential harness for the save executor.
//!
//! The executor spreads the encode of a save across threads, one task
//! per stripe, each writing straight into the parity chunks it stores;
//! it must never change *what* a save stores. These tests hold it to a test-side oracle — one
//! straight-line pass over the same state built from public crate APIs
//! alone — for every code shape, stripe-buffer size and thread count:
//! every node must hold exactly the oracle's chunk bytes under the same
//! keys and a manifest whose chunk entries are their CRCs, and the
//! checkpoint must load back exactly.
//! The oracle is the only sequential full-save code in the repository.

use ecc_checkpoint::{crc32, decompose, DType, Packer, StateDict, Tensor, Value};
use ecc_cluster::{Cluster, ClusterSpec};
use ecc_erasure::{CodeParams, ErasureCode, ScheduleKind};
use eccheck::store::{drain_version, Manifest};
use eccheck::{keys, select_data_parity_nodes, EcCheck, EcCheckConfig};
use proptest::prelude::*;

const PACKET: usize = 256;

/// Deterministic, shape-diverse worker states. `extra` grows one
/// worker's payload so saves cover uneven shard sizes and the packet
/// padding tail. The payload is a tensor: `Value::Bytes` rides in the
/// replicated header and would leave every coded chunk all zeros.
fn dicts_for(world: usize, salt: u8, extra: usize) -> Vec<StateDict> {
    (0..world)
        .map(|w| {
            let mut sd = StateDict::new();
            sd.insert("rank", Value::Int(w as i64));
            sd.insert("salt", Value::Int(salt as i64));
            let len = 40 + (w * 37) % 200 + if w == 0 { extra } else { 0 };
            let payload: Vec<u8> =
                (0..len).map(|i| (i as u8).wrapping_mul(31) ^ (w as u8) ^ salt).collect();
            let t = Tensor::from_bytes(DType::U8, &[len], payload).expect("tensor shape valid");
            sd.insert("payload", Value::Tensor(t));
            sd
        })
        .collect()
}

/// The oracle: the sorted `(node, key, bytes)` chunk blobs a save of
/// `dicts` as `version` must leave behind, computed in one pass —
/// decompose, pack, pad to a common packet count, concatenate each data
/// group into its chunk, encode all parity at once, and place by the
/// sweep-line node selection.
fn oracle_chunks(
    spec: &ClusterSpec,
    (k, m): (usize, usize),
    version: u64,
    dicts: &[StateDict],
) -> Vec<(usize, String, Vec<u8>)> {
    let packer = Packer::new(PACKET).expect("packet size valid");
    let packed: Vec<_> = dicts.iter().map(|d| packer.pack(decompose(d).tensor_data()).0).collect();
    let max_packets = packed.iter().map(Vec::len).max().expect("world size > 0");
    let placement = select_data_parity_nodes(&spec.origin_group(), k).expect("shape valid");
    let group = placement.group_size();
    let mut chunks: Vec<Vec<u8>> = packed
        .chunks(group)
        .map(|workers| {
            let mut chunk = Vec::with_capacity(group * max_packets * PACKET);
            for packets in workers {
                packets.iter().for_each(|p| chunk.extend_from_slice(p));
                chunk.resize(chunk.len() + (max_packets - packets.len()) * PACKET, 0);
            }
            chunk
        })
        .collect();
    assert!(
        chunks.iter().flatten().any(|&b| b != 0),
        "the oracle must code real bytes: all-zero chunks encode to zeros under any schedule"
    );
    let code = ErasureCode::cauchy_good(CodeParams::new(k, m, 8).expect("params valid"))
        .expect("code builds");
    let refs: Vec<&[u8]> = chunks.iter().map(Vec::as_slice).collect();
    chunks.extend(code.encode_with(&refs, ScheduleKind::Smart).expect("aligned chunks encode"));
    let mut blobs: Vec<_> = placement
        .data_nodes()
        .iter()
        .chain(placement.parity_nodes())
        .zip(chunks)
        .map(|(&node, chunk)| (node, keys::chunk_key(version), chunk))
        .collect();
    blobs.sort();
    blobs
}

/// Every chunk-class blob on every node, sorted: the part of a save's
/// observable result the executor is responsible for.
fn stored_chunks(cluster: &Cluster, nodes: usize) -> Vec<(usize, String, Vec<u8>)> {
    let mut out = Vec::new();
    for node in 0..nodes {
        for key in cluster.local_keys(node).into_iter().filter(|key| keys::is_chunk_class(key)) {
            let bytes = cluster.get_local(node, &key).expect("listed key readable").to_vec();
            out.push((node, key, bytes));
        }
    }
    out.sort();
    out
}

/// Holds a save to the oracle: the chunk blobs on the nodes are the
/// oracle's, and every node's manifest verifies and lists their CRCs.
fn assert_stores_oracle(saved: &Saved, version: u64, want: &[(usize, String, Vec<u8>)], ctx: &str) {
    let nodes = saved.spec.nodes();
    assert_eq!(stored_chunks(&saved.cluster, nodes), want, "{ctx}");
    let mut crcs = vec![0u32; nodes];
    want.iter().for_each(|(node, _, chunk)| crcs[*node] = crc32(chunk));
    for node in 0..nodes {
        let record = saved.cluster.get_local(node, &keys::manifest_key(version));
        let manifest = Manifest::decode(&record.expect("sealed"), nodes, saved.spec.world_size());
        assert_eq!(manifest.expect("manifest verifies").chunks, crcs, "{ctx} node {node}");
    }
}

struct Saved {
    cluster: Cluster,
    ecc: EcCheck,
    spec: ClusterSpec,
    /// The state of the newest save.
    dicts: Vec<StateDict>,
}

/// Runs `saves` checkpoints of evolving state through one engine.
fn run_saves(nodes: usize, gpus: usize, cfg: EcCheckConfig, saves: u64, extra: usize) -> Saved {
    let spec = ClusterSpec::tiny_test(nodes, gpus);
    let mut cluster = Cluster::new(spec);
    let mut ecc = EcCheck::initialize(&spec, cfg).expect("config valid for shape");
    let mut dicts = Vec::new();
    for v in 1..=saves {
        dicts = dicts_for(spec.world_size(), v as u8, extra);
        ecc.save(&mut cluster, &dicts).expect("save succeeds");
    }
    Saved { cluster, ecc, spec, dicts }
}

fn base_config(k: usize, m: usize) -> EcCheckConfig {
    EcCheckConfig::paper_defaults().with_km(k, m).with_packet_size(PACKET)
}

#[test]
fn pipelined_stores_identical_blobs_across_shapes_buffers_and_threads() {
    // (k, m, gpus): world = (k+m)*gpus must divide by k.
    for (k, m, gpus) in [(2usize, 2usize, 1usize), (2, 2, 2), (4, 2, 2), (3, 3, 1)] {
        let nodes = k + m;
        let spec = ClusterSpec::tiny_test(nodes, gpus);
        let want = oracle_chunks(&spec, (k, m), 1, &dicts_for(spec.world_size(), 1, 0));
        for buffer in [64usize, 256, 1024, 8192] {
            for threads in [1usize, 2, 4, 8] {
                let got = run_saves(
                    nodes,
                    gpus,
                    base_config(k, m).with_coding_threads(threads).with_pipeline_buffer(buffer),
                    1,
                    0,
                );
                let ctx = format!("k={k} m={m} gpus={gpus} buffer={buffer} threads={threads}");
                assert_stores_oracle(&got, 1, &want, &ctx);
            }
        }
    }
}

#[test]
fn pipeline_matches_the_oracle_across_multiple_save_versions() {
    // Version numbering, rotation and chunk contents must track each
    // other save after save, not just on the first one: after three
    // saves the only chunk-class blobs left are the oracle's v3.
    let pipe =
        run_saves(4, 2, base_config(2, 2).with_coding_threads(3).with_pipeline_buffer(128), 3, 0);
    let want = oracle_chunks(&pipe.spec, (2, 2), 3, &pipe.dicts);
    assert_stores_oracle(&pipe, 3, &want, "third save");
}

#[test]
fn checkpoints_load_back_after_failures() {
    let Saved { mut cluster, ecc, dicts: expected, .. } = run_saves(4, 2, base_config(2, 2), 2, 0);

    // Clean load first, then a two-node failure burst (= m).
    let (restored, _) = ecc.load(&mut cluster).expect("clean load");
    assert_eq!(restored, expected, "clean load");
    cluster.fail_node(0);
    cluster.fail_node(2);
    cluster.replace_node(0);
    cluster.replace_node(2);
    let (restored, report) = ecc.load(&mut cluster).expect("recovery load");
    assert_eq!(restored, expected, "recovery load");
    assert_eq!(report.version, 2);
}

#[test]
fn drained_copy_matches_the_oracle() {
    let mut pipe = run_saves(4, 1, base_config(2, 2).with_pipeline_buffer(96), 1, 0);
    drain_version(&mut pipe.cluster, 1, 4, pipe.ecc.recorder()).expect("v1 is sealed");
    let record = pipe.cluster.get_remote(&keys::remote_manifest_key(1)).expect("manifest drained");
    let manifest = Manifest::decode(&record, 4, 4).expect("remote manifest verifies");
    for (node, _, bytes) in oracle_chunks(&pipe.spec, (2, 2), 1, &pipe.dicts) {
        assert_eq!(manifest.chunks[node], crc32(&bytes), "manifest entry of node {node}");
        let remote = keys::remote_chunk_key(1, node);
        assert_eq!(pipe.cluster.get_remote(&remote), Some(bytes), "remote blob {remote}");
    }
    for (worker, dict) in pipe.dicts.iter().enumerate() {
        let header = decompose(dict).header_to_bytes();
        assert_eq!(manifest.headers[worker], crc32(&header), "manifest entry of header {worker}");
        assert_eq!(
            pipe.cluster.get_remote(&keys::remote_header_key(1, worker)),
            Some(header),
            "remote header {worker}"
        );
    }
}

#[test]
fn pipelined_saves_report_stage_accounting() {
    let pipe = run_saves(4, 1, base_config(2, 2).with_pipeline_buffer(64), 1, 0);
    let snap = pipe.ecc.recorder().snapshot();
    assert!(snap.counter("ecc.pipeline.stripes") > 0, "stripes must be counted");
    assert!(
        snap.counter("ecc.pipeline.encode_tasks") >= snap.counter("ecc.pipeline.stripes"),
        "each stripe takes at least one encode task"
    );
    // The stripe-at-a-time encode keeps the aggregate totals complete:
    // k data chunks in, m parity chunks out.
    let chunk_len = pipe.cluster.get_local(0, &keys::chunk_key(1)).expect("chunk stored").len();
    assert_eq!(snap.counter("erasure.encode.bytes"), 2 * chunk_len as u64);
    assert_eq!(snap.counter("erasure.encode.parity_bytes"), 2 * chunk_len as u64);
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
    ) {
        let pipe = run_saves(
            4,
            1,
            base_config(2, 2)
                .with_coding_threads(threads)
                .with_pipeline_buffer(buffer),
            1,
            extra,
        );
        prop_assert_eq!(
            stored_chunks(&pipe.cluster, 4),
            oracle_chunks(&pipe.spec, (2, 2), 1, &pipe.dicts)
        );
    }
}
