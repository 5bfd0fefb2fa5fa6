//! End-to-end control-plane tests: a real engine saving real bytes on
//! a real (in-memory) cluster, with the controller driving churn.

use ecc_checkpoint::StateDict;
use ecc_cluster::{Cluster, ClusterSpec, HealthConfig, HealthRegistry};
use ecc_dnn::{build_worker_state_dict, ModelConfig, ParallelismSpec, StateDictSpec};
use ecc_membership::{MemberState, MembershipError, PlacementController};
use eccheck::{EcCheck, EcCheckConfig, EcCheckError, WorkerDirtySet};

fn config() -> EcCheckConfig {
    EcCheckConfig::paper_defaults().with_packet_size(256).with_coding_threads(2)
}

/// 4 nodes × 2 GPUs, k = m = 2, tiny Megatron-style shards.
fn setup() -> (ClusterSpec, Cluster, EcCheck, PlacementController, Vec<StateDict>) {
    let spec = ClusterSpec::tiny_test(4, 2);
    let cluster = Cluster::new(spec);
    let ecc = EcCheck::initialize(&spec, config()).unwrap();
    let ctl = PlacementController::new(&spec, &config()).unwrap();
    let model = ModelConfig::gpt2(64, 4, 4).with_vocab(512).with_seq_len(32);
    let par = ParallelismSpec::new(2, 2, 2).unwrap();
    let sd_spec = StateDictSpec::new(model, par);
    let dicts: Vec<StateDict> =
        (0..8).map(|w| build_worker_state_dict(&sd_spec, w).unwrap()).collect();
    (spec, cluster, ecc, ctl, dicts)
}

/// Re-sync a (stale) engine with the controller's committed epoch.
fn refresh(ecc: &mut EcCheck, ctl: &PlacementController) {
    ecc.apply_placement(ctl.epoch(), ctl.placement().clone()).unwrap();
}

#[test]
fn crash_replace_rebuilds_and_bumps_epoch() {
    let (_, mut cluster, mut ecc, mut ctl, dicts) = setup();
    ecc.save(&mut cluster, &dicts).unwrap();

    // Node 1 crashes; a fresh process takes its slot over.
    cluster.fail_node(1);
    assert!(ctl.force_dead(1));
    cluster.replace_node(1);
    assert_eq!(ctl.join(1).unwrap(), 1);

    let report = ctl.rebalance(&mut cluster).unwrap();
    assert_eq!(report.epoch, 1);
    assert_eq!(report.moves_copied + report.moves_rebuilt, 1, "only the churned chunk moves");
    assert!(report.migrated_bytes > 0);
    assert!(
        report.migrated_bytes < report.bound_bytes,
        "migration {} must undercut the full re-encode bound {}",
        report.migrated_bytes,
        report.bound_bytes
    );
    assert!(ctl.table().fully_active());

    // The engine is now stale and must refuse to save until refreshed.
    assert!(matches!(ecc.save(&mut cluster, &dicts), Err(EcCheckError::StaleEpoch { .. })));
    refresh(&mut ecc, &ctl);
    let (restored, _) = ecc.load(&mut cluster).unwrap();
    assert_eq!(restored, dicts, "checkpoint survives churn bit-exactly");
}

#[test]
fn m_fault_guarantee_holds_after_every_churn_instant() {
    let (spec, mut cluster, mut ecc, mut ctl, dicts) = setup();
    ecc.save(&mut cluster, &dicts).unwrap();
    let m = config().m();

    for victim in 0..spec.nodes() {
        cluster.fail_node(victim);
        ctl.force_dead(victim);
        cluster.replace_node(victim);
        ctl.join(victim).unwrap();
        ctl.rebalance(&mut cluster).unwrap();
        refresh(&mut ecc, &ctl);

        // At this instant, any m further faults must be survivable.
        for a in 0..spec.nodes() {
            for b in (a + 1)..spec.nodes() {
                let mut drill = cluster.clone();
                drill.fail_node(a);
                drill.fail_node(b);
                let (restored, _) = ecc.load(&mut drill).unwrap();
                assert_eq!(restored, dicts, "survive ({a},{b}) after churn of {victim}");
            }
        }
        // ... and m + 1 faults must be refused cleanly, not garbled.
        let mut drill = cluster.clone();
        for node in 0..=m {
            drill.fail_node(node);
        }
        assert!(matches!(ecc.load(&mut drill), Err(EcCheckError::Unrecoverable { .. })));
        // Heal the drill damage for the next round: reload on the real
        // cluster restores every replica.
        ecc.load(&mut cluster).unwrap();
    }
    assert_eq!(ctl.epoch(), spec.nodes() as u64);
}

#[test]
fn graceful_leave_migrates_by_copy() {
    let (_, mut cluster, mut ecc, mut ctl, dicts) = setup();
    ecc.save(&mut cluster, &dicts).unwrap();

    ctl.leave(&cluster, 3).unwrap();
    assert_eq!(ctl.table().state(3), MemberState::Leaving);
    // The drained process goes away; its replacement arrives empty.
    cluster.fail_node(3);
    cluster.replace_node(3);
    ctl.join(3).unwrap();

    let report = ctl.rebalance(&mut cluster).unwrap();
    assert_eq!(report.moves_copied, 1, "staged bytes served the move");
    assert_eq!(report.moves_rebuilt, 0, "no decode needed for a graceful drain");
    assert!(report.migrated_bytes < report.bound_bytes);

    refresh(&mut ecc, &ctl);
    let (restored, _) = ecc.load(&mut cluster).unwrap();
    assert_eq!(restored, dicts);
}

#[test]
fn lost_parity_is_patched_not_re_encoded() {
    let (_, mut cluster, mut ecc, mut ctl, dicts) = setup();
    ecc.save(&mut cluster, &dicts).unwrap();

    let parity_slot = ctl.placement().parity_nodes()[0];
    cluster.fail_node(parity_slot);
    ctl.force_dead(parity_slot);
    cluster.replace_node(parity_slot);
    ctl.join(parity_slot).unwrap();

    let report = ctl.rebalance(&mut cluster).unwrap();
    assert_eq!(report.moves_rebuilt, 1);
    assert_eq!(report.parity_patched, 1, "GF-linearity: re-encode one row, not a decode");

    refresh(&mut ecc, &ctl);
    let (restored, _) = ecc.load(&mut cluster).unwrap();
    assert_eq!(restored, dicts);
}

/// A delta whose manifest put was dropped on node 0 leaves a copy there
/// that verifies but is stale: the rebalance must judge the survivors
/// by the newer copy the other nodes hold.
#[test]
fn rebalance_is_not_misled_by_a_stale_manifest_copy() {
    let (_, mut cluster, mut ecc, mut ctl, mut dicts) = setup();
    ecc.save(&mut cluster, &dicts).unwrap();
    let key = eccheck::keys::manifest_key(1);
    let stale = cluster.get_local(0, &key).unwrap();
    let model = ModelConfig::gpt2(64, 4, 4).with_vocab(512).with_seq_len(32);
    let reseeded = StateDictSpec {
        seed: 9,
        ..StateDictSpec::new(model, ParallelismSpec::new(2, 2, 2).unwrap())
    };
    dicts[2] = build_worker_state_dict(&reseeded, 2).unwrap();
    ecc.save_delta(&mut cluster, &[WorkerDirtySet { worker: 2, state: &dicts[2] }]).unwrap();
    cluster.put_local(0, &key, stale).unwrap();

    cluster.fail_node(2);
    ctl.force_dead(2);
    cluster.replace_node(2);
    ctl.join(2).unwrap();
    assert_eq!(ctl.rebalance(&mut cluster).unwrap().moves_rebuilt, 1);
    refresh(&mut ecc, &ctl);
    assert_eq!(ecc.load(&mut cluster).unwrap().0, dicts);
}

#[test]
fn epoch_commits_only_once_the_guarantee_holds() {
    let (_, mut cluster, mut ecc, mut ctl, dicts) = setup();
    ecc.save(&mut cluster, &dicts).unwrap();

    // Two nodes die but only one replacement arrives: the rebalance
    // must refuse to certify the layout, and the epoch must not move.
    cluster.fail_node(0);
    cluster.fail_node(2);
    ctl.force_dead(0);
    ctl.force_dead(2);
    cluster.replace_node(0);
    ctl.join(0).unwrap();
    assert!(matches!(ctl.rebalance(&mut cluster), Err(MembershipError::GuaranteeViolated { .. })));
    assert_eq!(ctl.epoch(), 0, "no certificate, no epoch");
    assert_eq!(ctl.table().state(0), MemberState::Joining, "join not activated either");

    // The second replacement arrives: now the rebalance goes through.
    cluster.replace_node(2);
    ctl.join(2).unwrap();
    let report = ctl.rebalance(&mut cluster).unwrap();
    assert_eq!(report.epoch, 1);
    assert_eq!(report.moves_rebuilt, 2);
    assert!(ctl.table().fully_active());

    refresh(&mut ecc, &ctl);
    let (restored, _) = ecc.load(&mut cluster).unwrap();
    assert_eq!(restored, dicts);
}

#[test]
fn observe_consumes_health_transitions() {
    let (spec, mut cluster, mut ecc, mut ctl, dicts) = setup();
    ecc.save(&mut cluster, &dicts).unwrap();

    let health = HealthRegistry::new(spec.nodes(), HealthConfig::default());
    for node in 0..spec.nodes() {
        health.record_heartbeat(node, 0);
    }
    assert!(ctl.observe(&health).is_empty(), "everyone heartbeating");

    // Node 2 stops heartbeating past the dead window.
    let dead_after = health.config().dead_after_ns;
    for node in [0, 1, 3] {
        health.record_heartbeat(node, dead_after + 1);
    }
    health.sweep(dead_after + 2);
    let newly_dead = ctl.observe(&health);
    assert_eq!(newly_dead, vec![2]);
    assert_eq!(ctl.table().state(2), MemberState::Dead);
    assert!(ctl.observe(&health).is_empty(), "cursor advanced; no re-delivery");
}

#[test]
fn quiet_cluster_rebalance_is_a_no_op() {
    let (_, mut cluster, mut ecc, mut ctl, dicts) = setup();
    ecc.save(&mut cluster, &dicts).unwrap();
    let report = ctl.rebalance(&mut cluster).unwrap();
    assert_eq!(report.epoch, 0);
    assert_eq!(report.migrated_bytes, 0);
    assert!(report.versions.is_empty());
    // No epoch marker committed: the engine stays fresh and saves fine.
    ecc.save(&mut cluster, &dicts).unwrap();
}
