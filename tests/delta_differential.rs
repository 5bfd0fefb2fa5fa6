//! Differential battery for GF-linear delta saves.
//!
//! `EcCheck::save_delta` patches the sealed checkpoint in place: each
//! dirty worker's region is XORed against the stored chunk and the
//! parity is patched with the encoded delta, exploiting the code's
//! GF(2)-linearity (`parity' = parity ⊕ encode(old ⊕ new)`). The
//! linearity argument is only as good as its bits, so these tests hold
//! the delta path to the strongest possible oracle: after a delta save,
//! **every node must hold byte-identical blobs to a full save of the
//! mutated state** — same chunks, same headers, same manifest — for
//! arbitrary (k, m) shapes, arbitrary dirty sets, and every available
//! GF kernel. (The full save on the other side of the comparison
//! streams through the pipeline, so thread counts and stripe buffers
//! stay in the sweep.) And because the manifest is written last, a
//! delta cut short at *any* put must restore as the state before it,
//! the state after it, or a structured refusal — never a mix.

mod common;

use common::{local_fingerprint, worker_dict, FailNthPut};
use ecc_chaos::{ChaosConfig, ChaosPlane};
use ecc_checkpoint::StateDict;
use ecc_cluster::{Cluster, ClusterSpec, DataPlane, NodeId};
use ecc_gf::kernel::{available_kernels, force_kernel};
use eccheck::{EcCheck, EcCheckConfig, EcCheckError, LoadReport, WorkerDirtySet};
use proptest::prelude::*;

/// (k, m, gpus_per_node) shapes; world = (k + m) * gpus.
const SHAPES: [(usize, usize, usize); 4] = [(2, 2, 1), (2, 2, 2), (4, 2, 2), (3, 3, 1)];

fn base_config(k: usize, m: usize) -> EcCheckConfig {
    EcCheckConfig::paper_defaults().with_km(k, m).with_packet_size(256)
}

/// The differential core: full save of `salt` state, delta-save the
/// `dirty` workers to `salt ^ 0x5A` state, and demand byte-identical
/// plane state to a fresh full save of the mutated state — then prove
/// the patched checkpoint still survives `m` failures.
fn delta_vs_full(
    (k, m, gpus): (usize, usize, usize),
    threads: usize,
    buffer: usize,
    dirty: &[usize],
    salt: u8,
) {
    let nodes = k + m;
    let spec = ClusterSpec::tiny_test(nodes, gpus);
    let world = spec.world_size();
    let cfg = base_config(k, m).with_coding_threads(threads).with_pipeline_buffer(buffer);

    // Engine A: full save of the base state, then the delta patch.
    let mut cluster_a = Cluster::new(spec);
    let mut ecc_a = EcCheck::initialize(&spec, cfg).expect("config valid for shape");
    let base: Vec<StateDict> = (0..world).map(|w| worker_dict(w, salt)).collect();
    ecc_a.save(&mut cluster_a, &base).expect("base save");
    let news: Vec<StateDict> = dirty.iter().map(|&w| worker_dict(w, salt ^ 0x5A)).collect();
    let sets: Vec<WorkerDirtySet<'_>> =
        dirty.iter().zip(&news).map(|(&worker, state)| WorkerDirtySet { worker, state }).collect();
    let report = ecc_a.save_delta(&mut cluster_a, &sets).expect("delta save");
    assert_eq!(report.version, 1);
    assert!(report.changed_bytes > 0, "distinct salts must change bytes");
    assert_eq!(
        report.traffic_bytes,
        report.region_bytes * (1 + m as u64),
        "delta traffic accounting: region moves once per data node + once per parity node"
    );

    // Engine B (oracle): a fresh full save of the mutated state.
    let mut want = base;
    for (&w, sd) in dirty.iter().zip(&news) {
        want[w] = sd.clone();
    }
    let mut cluster_b = Cluster::new(spec);
    let mut ecc_b = EcCheck::initialize(&spec, cfg).expect("config valid for shape");
    ecc_b.save(&mut cluster_b, &want).expect("oracle save");

    assert_eq!(
        local_fingerprint(&cluster_a),
        local_fingerprint(&cluster_b),
        "delta-patched plane must be byte-identical to a full save \
         (k={k} m={m} gpus={gpus} dirty={dirty:?})"
    );

    // The patched checkpoint must still tolerate m failures.
    for node in 0..m {
        cluster_a.fail_node(node);
        cluster_a.replace_node(node);
    }
    let (restored, _) = ecc_a.load(&mut cluster_a).expect("recovery load");
    assert_eq!(restored, want, "restore after delta + {m} failures");
}

/// The dirty-worker set a property case's bit `mask` selects (never
/// empty: a mask with no worker bit set picks one by remainder).
fn dirty_from_mask((k, m, gpus): (usize, usize, usize), mask: u64) -> Vec<usize> {
    let world = (k + m) * gpus;
    let mut dirty: Vec<usize> = (0..world).filter(|&w| mask >> w & 1 == 1).collect();
    if dirty.is_empty() {
        dirty.push(mask as usize % world);
    }
    dirty
}

#[test]
fn single_and_multi_worker_deltas_equal_full_saves() {
    // Deterministic smoke across shapes before the randomized sweep:
    // one dirty worker, and one dirty worker per data group.
    for &(k, m, gpus) in &SHAPES {
        let world = (k + m) * gpus;
        let group = world / k;
        let spread: Vec<usize> = (0..k).map(|j| j * group + (j % group)).collect();
        delta_vs_full((k, m, gpus), 2, 96, &[world - 1], 7);
        delta_vs_full((k, m, gpus), 2, 96, &spread, 7);
    }
}

/// What a restore after a torn delta came to. Anything else — a state
/// that is neither, or an unstructured error — fails the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seen {
    Pre,
    Post,
    Refused,
}

fn seen(
    result: Result<(Vec<StateDict>, LoadReport), EcCheckError>,
    pre: &[StateDict],
    post: &[StateDict],
    ctx: &str,
) -> Seen {
    match result {
        Ok((dicts, _)) if dicts == pre => Seen::Pre,
        Ok((dicts, _)) if dicts == post => Seen::Post,
        Ok(_) => panic!("{ctx}: restored a MIX of the states before and after the delta"),
        Err(EcCheckError::Unrecoverable { .. } | EcCheckError::CorruptChunk { .. }) => {
            Seen::Refused
        }
        Err(other) => panic!("{ctx}: unstructured refusal: {other}"),
    }
}

/// Fails every put of a `save_delta` in turn — one dirty worker and one
/// per data column, on `k2 m2` and `k4 m2` — and holds the following
/// restore, and the one after a further node is lost and replaced, to
/// one verdict: both the old state, both the new, or both a refusal.
fn delta_fail_point_sweep<P: DataPlane>(wrap: fn(Cluster) -> P, lose: fn(&mut P, NodeId)) {
    for (k, m, gpus) in [(2usize, 2usize, 2usize), (4, 2, 2)] {
        let spec = ClusterSpec::tiny_test(k + m, gpus);
        let world = spec.world_size();
        let group = world / k;
        let pre: Vec<StateDict> = (0..world).map(|w| worker_dict(w, 7)).collect();
        for dirty in [vec![world - 1], (0..k).map(|j| j * group + (j % group)).collect()] {
            let mut post = pre.clone();
            dirty.iter().for_each(|&w| post[w] = worker_dict(w, 7 ^ 0x5A));
            let sets: Vec<WorkerDirtySet<'_>> = dirty
                .iter()
                .map(|&worker| WorkerDirtySet { worker, state: &post[worker] })
                .collect();
            let mut verdicts = Vec::new();
            for fail_at in 0.. {
                let ctx = format!("k={k} m={m} dirty={dirty:?} fail_at={fail_at}");
                let mut ecc = EcCheck::initialize(&spec, base_config(k, m)).expect("config valid");
                let mut plane = FailNthPut::new(wrap(Cluster::new(spec)));
                ecc.save(&mut plane, &pre).expect("base save");
                plane.fail_at = Some(fail_at);
                if ecc.save_delta(&mut plane, &sets).is_ok() {
                    assert_eq!(plane.fail_at, Some(0), "{ctx}: the sweep covers every put");
                    break;
                }
                let first = seen(ecc.load(&mut plane), &pre, &post, &ctx);
                lose(&mut plane.inner, fail_at % (k + m));
                let second = seen(ecc.load(&mut plane), &pre, &post, &ctx);
                assert_eq!(second, first, "{ctx}: a further node loss changed the verdict");
                verdicts.push(first);
            }
            // Up to m patched chunks are erasures under the old manifest;
            // once any node holds the new one (the commit descends, so
            // the last put to fail is node 0's) the delta has happened.
            assert_eq!(verdicts[..=m], vec![Seen::Pre; m + 1], "k={k} dirty={dirty:?}");
            assert_eq!(verdicts.last(), Some(&Seen::Post), "k={k} dirty={dirty:?}");
        }
    }
}

#[test]
fn torn_deltas_restore_old_new_or_refuse_on_the_memory_plane() {
    delta_fail_point_sweep(
        |cluster| cluster,
        |cluster, node| {
            cluster.fail_node(node);
            cluster.replace_node(node);
        },
    );
}

#[test]
fn torn_deltas_restore_old_new_or_refuse_on_the_chaos_plane() {
    delta_fail_point_sweep(
        |cluster| ChaosPlane::new(cluster, ChaosConfig::quiet(19)),
        |plane, node| {
            plane.crash_now(node);
            plane.heal(node);
        },
    );
}

/// The cases recorded in `delta_differential.proptest-regressions`,
/// replayed by value so they keep running whatever the property's
/// parameter list looks like.
#[test]
fn recorded_regressions_still_hold() {
    delta_vs_full(SHAPES[3], 1, 32, &dirty_from_mask(SHAPES[3], 1), 0);
    delta_vs_full(SHAPES[1], 2, 96, &dirty_from_mask(SHAPES[1], 2048), 90);
}

#[test]
fn delta_is_bit_identical_under_every_kernel() {
    // Kernel forcing mutates process-global dispatch state, so the
    // whole sweep lives in one sequential loop (see kernel_equiv_prop).
    let before = ecc_gf::kernel::active_kernel().name();
    for kernel in available_kernels() {
        force_kernel(kernel.name()).unwrap();
        delta_vs_full((2, 2, 2), 2, 128, &[1, 6], 9);
    }
    force_kernel(before).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The differential property over arbitrary shapes, dirty-worker
    /// subsets, thread counts and stripe buffers.
    #[test]
    fn delta_equals_full_save_for_arbitrary_dirty_sets(
        shape in 0usize..SHAPES.len(),
        mask in 1u64..4096,
        salt in 0u8..200,
        threads in 1usize..4,
        buffer in 32usize..2048,
    ) {
        let dirty = dirty_from_mask(SHAPES[shape], mask);
        delta_vs_full(SHAPES[shape], threads, buffer, &dirty, salt);
    }
}
