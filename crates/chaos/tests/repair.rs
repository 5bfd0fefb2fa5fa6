//! The one repair of a sealed version (`eccheck::store::repair_version`),
//! held to its contract from both callers: a restore (`EcCheck::load`)
//! and a rebalance (`PlacementController::rebalance`).
//!
//! * every put of the repair is failed in turn, on the memory plane and
//!   on a quiet `ChaosPlane`, and what follows is a bit-exact restore or
//!   a structured refusal with the engine's own fields untouched;
//! * a repair writes what was lost and nothing else, counted exactly;
//! * the seam delta × rebalance: a rebuilt node holds the post-delta
//!   bytes;
//! * a rebuilt chunk is compared with its manifest entry *before* it is
//!   stored;
//! * a delta whose last record put failed leaves node 0 with the old
//!   record: the drain, the rebalance, the next delta and the restore
//!   all judge the version by the new one, and each chunk is read once;
//! * a copy-only rebalance reads each chunk once, in its m-fault check.

#[path = "../../../tests/common/mod.rs"]
mod common;

use common::{local_fingerprint, worker_dict, FailNthPut};
use ecc_chaos::{ChaosConfig, ChaosPlane};
use ecc_checkpoint::StateDict;
use ecc_cluster::{Cluster, ClusterError, ClusterSpec, DataPlane, NodeId};
use ecc_membership::{MembershipError, PlacementController};
use eccheck::keys::{chunk_key, manifest_key, remote_chunk_key, remote_manifest_key};
use eccheck::store::{drain_version, Manifest};
use eccheck::{EcCheck, EcCheckConfig, EcCheckError, RecoveryWorkflow, WorkerDirtySet};

/// (k, m, gpus per node): world = (k + m) · gpus.
const SHAPES: [(usize, usize, usize); 2] = [(2, 2, 2), (4, 2, 2)];

fn config(k: usize, m: usize) -> EcCheckConfig {
    EcCheckConfig::paper_defaults().with_km(k, m).with_packet_size(256)
}

/// A saved version 1 of `salt`-state on a fresh plane.
fn saved<P: DataPlane>(
    (k, m, gpus): (usize, usize, usize),
    wrap: fn(Cluster) -> P,
) -> (EcCheck, PlacementController, FailNthPut<P>, Vec<StateDict>) {
    let spec = ClusterSpec::tiny_test(k + m, gpus);
    let mut ecc = EcCheck::initialize(&spec, config(k, m)).expect("config valid");
    let ctl = PlacementController::new(&spec, &config(k, m)).expect("config valid");
    let mut plane = FailNthPut::new(wrap(Cluster::new(spec)));
    let dicts: Vec<StateDict> = (0..spec.world_size()).map(|w| worker_dict(w, 7)).collect();
    ecc.save(&mut plane, &dicts).expect("save");
    (ecc, ctl, plane, dicts)
}

fn on_memory(cluster: Cluster) -> Cluster {
    cluster
}

fn lose_on_memory(cluster: &mut Cluster, node: NodeId) {
    cluster.fail_node(node);
    cluster.replace_node(node);
}

fn on_chaos(cluster: Cluster) -> ChaosPlane<Cluster> {
    ChaosPlane::new(cluster, ChaosConfig::quiet(23))
}

fn lose_on_chaos(plane: &mut ChaosPlane<Cluster>, node: NodeId) {
    plane.crash_now(node);
    plane.heal(node);
}

/// Crashes `slot`, brings up its empty replacement and admits it.
fn churn<P: DataPlane>(
    ctl: &mut PlacementController,
    plane: &mut FailNthPut<P>,
    lose: fn(&mut P, NodeId),
    slot: NodeId,
) {
    lose(&mut plane.inner, slot);
    ctl.force_dead(slot);
    ctl.join(slot).expect("dead slot admits a replacement");
}

fn refresh(ecc: &mut EcCheck, ctl: &PlacementController) {
    ecc.apply_placement(ctl.epoch(), ctl.placement().clone()).expect("newer epoch");
}

/// Fails every put of a `load` after 1..=m lost nodes. The failed
/// restore leaves the engine's fields alone; the next one restores
/// bit-exactly and leaves every node holding what the save left there.
fn load_fail_point_sweep<P: DataPlane>(wrap: fn(Cluster) -> P, lose: fn(&mut P, NodeId)) {
    for shape @ (k, m, _) in SHAPES {
        for lost in 1..=m {
            for fail_at in 0.. {
                let ctx = format!("k={k} m={m} lost={lost} fail_at={fail_at}");
                let (ecc, _, mut plane, dicts) = saved(shape, wrap);
                let sealed = local_fingerprint(&plane);
                (0..lost).for_each(|node| lose(&mut plane.inner, node));
                plane.fail_at = Some(fail_at);
                let cut = ecc.load(&mut plane);
                assert_eq!((ecc.version(), ecc.retained_versions()), (1, vec![1]), "{ctx}");
                if let Ok((restored, _)) = cut {
                    assert_eq!(plane.fail_at, Some(0), "{ctx}: the sweep covers every put");
                    assert_eq!(restored, dicts, "{ctx}");
                    break;
                }
                assert!(
                    matches!(cut, Err(EcCheckError::Cluster(ClusterError::Transport { .. }))),
                    "{ctx}: unstructured refusal"
                );
                assert_eq!(ecc.load(&mut plane).expect(&ctx).0, dicts, "{ctx}");
                assert!(local_fingerprint(&plane) == sealed, "{ctx}: not re-seeded as saved");
            }
        }
    }
}

#[test]
fn a_load_cut_short_at_any_put_is_finished_by_the_next_on_the_memory_plane() {
    load_fail_point_sweep(on_memory, lose_on_memory);
}

#[test]
fn a_load_cut_short_at_any_put_is_finished_by_the_next_on_the_chaos_plane() {
    load_fail_point_sweep(on_chaos, lose_on_chaos);
}

/// Fails every put of a `rebalance` that rebuilds one crashed slot —
/// the repair's and the epoch markers'. Nothing commits; a restore in
/// that state is bit-exact or fenced (`StaleEpoch`: a marker of the
/// epoch being committed is out); the retried rebalance commits the
/// same epoch and the refreshed engine restores bit-exactly.
fn rebalance_fail_point_sweep<P: DataPlane>(wrap: fn(Cluster) -> P, lose: fn(&mut P, NodeId)) {
    for shape @ (k, m, _) in SHAPES {
        for victim in [0, k + m - 1] {
            for fail_at in 0.. {
                let ctx = format!("k={k} m={m} victim={victim} fail_at={fail_at}");
                let (mut ecc, mut ctl, mut plane, dicts) = saved(shape, wrap);
                churn(&mut ctl, &mut plane, lose, victim);
                plane.fail_at = Some(fail_at);
                let cut = ctl.rebalance(&mut plane);
                if cut.is_ok() {
                    assert_eq!(plane.fail_at, Some(0), "{ctx}: the sweep covers every put");
                    break;
                }
                assert!(
                    matches!(
                        cut,
                        Err(MembershipError::Plane(ClusterError::Transport { .. })
                            | MembershipError::Engine(EcCheckError::Cluster(
                                ClusterError::Transport { .. }
                            )))
                    ),
                    "{ctx}: unstructured refusal {cut:?}"
                );
                assert_eq!(ctl.epoch(), 0, "{ctx}: nothing commits");
                match ecc.load(&mut plane) {
                    Ok((restored, _)) => assert_eq!(restored, dicts, "{ctx}"),
                    Err(EcCheckError::StaleEpoch { .. }) => {}
                    Err(other) => panic!("{ctx}: unstructured refusal: {other}"),
                }
                assert_eq!((ecc.version(), ecc.retained_versions()), (1, vec![1]), "{ctx}");
                assert_eq!(ctl.rebalance(&mut plane).expect(&ctx).epoch, 1, "{ctx}");
                refresh(&mut ecc, &ctl);
                assert_eq!(ecc.load(&mut plane).expect(&ctx).0, dicts, "{ctx}");
            }
        }
    }
}

#[test]
fn a_rebalance_cut_short_at_any_put_commits_nothing_on_the_memory_plane() {
    rebalance_fail_point_sweep(on_memory, lose_on_memory);
}

#[test]
fn a_rebalance_cut_short_at_any_put_commits_nothing_on_the_chaos_plane() {
    rebalance_fail_point_sweep(on_chaos, lose_on_chaos);
}

/// A restore writes what was lost and nothing else: nothing when all
/// is intact, a manifest and a chunk per replaced node, and every node
/// when tier 1 served.
#[test]
fn a_restore_stores_exactly_what_was_lost() {
    for shape @ (k, m, gpus) in SHAPES {
        let (n, world) = (k + m, (k + m) * gpus);
        let (ecc, _, mut plane, dicts) = saved(shape, on_memory);
        let sealed = local_fingerprint(&plane);
        let puts_of_a_load = |plane: &mut FailNthPut<Cluster>, workflow| {
            let before = plane.puts;
            let (restored, report) = ecc.load(plane).expect("restorable");
            assert_eq!((restored, report.workflow), (dicts.clone(), workflow));
            assert!(local_fingerprint(plane) == sealed, "a node holds other than the save left");
            plane.puts - before
        };
        assert_eq!(puts_of_a_load(&mut plane, RecoveryWorkflow::Resend), 0, "intact");
        for node in [0, n - 1] {
            lose_on_memory(&mut plane.inner, node);
            let workflow = if ecc.placement().data_nodes().contains(&node) {
                RecoveryWorkflow::Decode
            } else {
                RecoveryWorkflow::Resend
            };
            assert_eq!(puts_of_a_load(&mut plane, workflow), 2, "node {node} replaced");
        }
        drain_version(&mut plane, 1, world, ecc.recorder()).expect("sealed");
        (0..=m).for_each(|node| lose_on_memory(&mut plane.inner, node));
        assert_eq!(puts_of_a_load(&mut plane, RecoveryWorkflow::Remote), 2 * n, "tier 1");
        assert_eq!(puts_of_a_load(&mut plane, RecoveryWorkflow::Resend), 0, "intact again");
    }
}

/// Delta × rebalance: the data node holding the dirty worker crashes
/// after a `save_delta` — alone, or with up to `m − 1` other nodes —
/// and the rebalance rebuilds the post-delta bytes, with the full
/// `m`-fault budget behind them again.
#[test]
fn a_rebalance_after_a_delta_rebuilds_the_post_delta_state() {
    for shape @ (k, m, gpus) in SHAPES {
        for further in 0..m {
            let (mut ecc, mut ctl, mut plane, mut dicts) = saved(shape, on_memory);
            let dirty = gpus + 1;
            dicts[dirty] = worker_dict(dirty, 7 ^ 0x5A);
            let set = [WorkerDirtySet { worker: dirty, state: &dicts[dirty] }];
            ecc.save_delta(&mut plane, &set).expect("delta");
            let holder = ecc.placement().data_nodes()[dirty / ecc.placement().group_size()];
            let others = (0..k + m).filter(|&node| node != holder).take(further);
            for slot in others.chain([holder]) {
                churn(&mut ctl, &mut plane, lose_on_memory, slot);
            }
            let report = ctl.rebalance(&mut plane).expect("at most m slots churned");
            assert_eq!(report.moves_rebuilt, further + 1);
            refresh(&mut ecc, &ctl);
            let before = plane.puts;
            assert_eq!(ecc.load(&mut plane).expect("rebuilt").0, dicts, "further={further}");
            assert_eq!(plane.puts, before, "the rebalance left nothing for the restore to repair");
            (k..k + m).for_each(|node| lose_on_memory(&mut plane.inner, node));
            assert_eq!(ecc.load(&mut plane).expect("m faults").0, dicts, "further={further}");
        }
    }
}

/// A manifest whose entry for the lost node is wrong but whose
/// self-check holds — what only a writer of the format could forge — is
/// caught before the rebuilt chunk is stored, not after.
#[test]
fn a_rebuilt_chunk_is_held_to_its_manifest_entry_before_it_is_stored() {
    for shape @ (k, m, gpus) in SHAPES {
        let (n, world) = (k + m, (k + m) * gpus);
        let (_, mut ctl, mut plane, _) = saved(shape, on_memory);
        let victim = n - 1;
        let record = plane.get_local(0, &manifest_key(1)).expect("sealed");
        let manifest = Manifest::decode(record, n, world).expect("verifies");
        let mut chunks = manifest.chunks().to_vec();
        chunks[victim] ^= 1;
        let forged = Manifest::seal(&chunks, &manifest.headers().collect::<Vec<_>>());
        for node in 0..n {
            plane.put_local(node, &manifest_key(1), forged.clone()).expect("alive");
        }
        churn(&mut ctl, &mut plane, lose_on_memory, victim);
        let refused = ctl.rebalance(&mut plane);
        assert!(
            matches!(
                refused,
                Err(MembershipError::Engine(EcCheckError::CorruptChunk { node })) if node == victim
            ),
            "got {refused:?}"
        );
        assert_eq!(plane.local_keys(victim), Vec::<String>::new(), "nothing was stored");
        assert_eq!(ctl.epoch(), 0);
    }
}

/// A `save_delta` of one worker whose last put fails: that put is node
/// 0's record (the commit descends), so every chunk and every other
/// node's record hold the delta and node 0 holds the saved record.
/// Returns the dicts the delta wrote.
fn stale_record_on_node_0<P: DataPlane>(
    shape @ (k, m, gpus): (usize, usize, usize),
    wrap: fn(Cluster) -> P,
) -> (EcCheck, PlacementController, FailNthPut<P>, Vec<StateDict>) {
    let (mut ecc, ctl, mut plane, mut dicts) = saved(shape, wrap);
    let saved_record = plane.get_local(0, &manifest_key(1)).expect("sealed");
    let dirty = gpus + 1;
    dicts[dirty] = worker_dict(dirty, 7 ^ 0x5A);
    // One data chunk, m parity chunks, then k + m records.
    plane.fail_at = Some(1 + m + (k + m) - 1);
    let set = [WorkerDirtySet { worker: dirty, state: &dicts[dirty] }];
    let cut = ecc.save_delta(&mut plane, &set);
    assert!(matches!(cut, Err(EcCheckError::Cluster(ClusterError::Transport { .. }))), "{cut:?}");
    assert_eq!(plane.fail_at, None, "the last put failed");
    let record = |node| plane.get_local(node, &manifest_key(1)).expect("sealed");
    assert_eq!(record(0), saved_record, "node 0 kept the saved record");
    assert!((1..k + m).all(|node| record(node) != saved_record), "the others hold the delta's");
    (ecc, ctl, plane, dicts)
}

/// The chunk gets `plane` served since `before` entries of its fetch
/// log.
fn chunk_gets<P: DataPlane>(plane: &ChaosPlane<P>, before: usize) -> usize {
    plane.fetch_log()[before..].iter().filter(|fetch| fetch.key == chunk_key(1)).count()
}

#[test]
fn a_drain_after_a_delta_that_left_node_0_stale_copies_the_new_record() {
    for shape @ (k, m, gpus) in SHAPES {
        let (n, world) = (k + m, (k + m) * gpus);
        let (ecc, _, mut plane, dicts) = stale_record_on_node_0(shape, on_memory);
        let drained = drain_version(&mut plane, 1, world, ecc.recorder()).expect("sealed");
        assert_eq!((drained.chunks_copied, drained.skipped_corrupt), (n, 0));
        assert_eq!(plane.get_remote(&remote_manifest_key(1)), plane.get_local(1, &manifest_key(1)));
        for node in 0..n {
            let copied = plane.get_remote(&remote_chunk_key(1, node));
            assert_eq!(copied, plane.get_local(node, &chunk_key(1)), "node {node}");
        }
        (0..=m).for_each(|node| lose_on_memory(&mut plane.inner, node));
        let (restored, report) = ecc.load(&mut plane).expect("tier 1 serves");
        assert_eq!((restored, report.workflow), (dicts, RecoveryWorkflow::Remote));
    }
}

#[test]
fn a_rebalance_after_a_delta_that_left_node_0_stale_rebuilds_the_new_state() {
    for shape @ (k, m, _) in SHAPES {
        let n = k + m;
        let (mut ecc, mut ctl, mut plane, dicts) = stale_record_on_node_0(shape, on_memory);
        churn(&mut ctl, &mut plane, lose_on_memory, n - 1);
        let report = ctl.rebalance(&mut plane).expect("the m-fault check passes");
        assert_eq!((report.epoch, report.moves_rebuilt), (1, 1));
        refresh(&mut ecc, &ctl);
        // Every restore below needs the rebuilt chunk of node n − 1.
        (0..m).for_each(|node| lose_on_memory(&mut plane.inner, node));
        assert_eq!(ecc.load(&mut plane).expect("m faults").0, dicts, "k={k} m={m}");
    }
}

#[test]
fn a_delta_after_a_delta_that_left_node_0_stale_patches_the_new_record() {
    for shape @ (k, m, _) in SHAPES {
        let (mut ecc, _, mut plane, mut dicts) = stale_record_on_node_0(shape, on_memory);
        for dirty in [0, dicts.len() - 1] {
            dicts[dirty] = worker_dict(dirty, 7 ^ 0x3C);
            let set = [WorkerDirtySet { worker: dirty, state: &dicts[dirty] }];
            ecc.save_delta(&mut plane, &set).expect("the new record verifies");
            assert_eq!(ecc.load(&mut plane).expect("intact").0, dicts, "k={k} m={m}");
        }
        (0..m).for_each(|node| lose_on_memory(&mut plane.inner, node));
        assert_eq!(ecc.load(&mut plane).expect("m faults").0, dicts, "k={k} m={m}");
    }
}

/// Node 0's stale record refuses the version, node 1's serves: the
/// restore judges both by one read of each chunk.
#[test]
fn a_restore_past_a_stale_record_reads_each_chunk_once() {
    for shape @ (k, m, _) in SHAPES {
        let (ecc, _, mut plane, dicts) = stale_record_on_node_0(shape, on_chaos);
        let before = plane.inner.fetch_log().len();
        assert_eq!(ecc.load(&mut plane).expect("node 1's record serves").0, dicts);
        assert_eq!(chunk_gets(&plane.inner, before), k + m, "k={k} m={m}");
    }
}

/// A graceful leave stages the slot's bytes; the rebalance copies them
/// to the replacement and reads each chunk once, in its m-fault check.
#[test]
fn a_leave_and_join_rebalance_reads_each_chunk_once() {
    for shape @ (k, m, _) in SHAPES {
        let (mut ecc, mut ctl, mut plane, dicts) = saved(shape, on_chaos);
        let slot = k + m - 1;
        ctl.leave(&plane, slot).expect("active and alive");
        lose_on_chaos(&mut plane.inner, slot);
        ctl.join(slot).expect("a leaving slot admits a replacement");
        let before = plane.inner.fetch_log().len();
        let report = ctl.rebalance(&mut plane).expect("copy-only");
        assert_eq!((report.moves_copied, report.versions.as_slice()), (1, &[1][..]));
        assert_eq!(chunk_gets(&plane.inner, before), k + m, "k={k} m={m}");
        assert!(report.chunk_bytes <= report.bound_bytes && report.bound_bytes > 0);
        refresh(&mut ecc, &ctl);
        assert_eq!(ecc.load(&mut plane).expect("copied").0, dicts, "k={k} m={m}");
    }
}
