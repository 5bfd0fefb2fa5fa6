//! Chaos testing: random failure bursts against the real engine.
//!
//! For every randomly sampled failure burst, ECCheck must recover
//! bit-exactly when at most `m` nodes failed, and must *refuse* (rather
//! than return wrong data) when more did — across repeated rounds of
//! training, checkpointing, failure and recovery.

use std::collections::BTreeMap;

use ecc_chaos::{run_campaign, CampaignConfig, ChaosConfig, ChaosPlane};
use ecc_cluster::{Cluster, ClusterSpec, FailureModel};
use ecc_dnn::{build_worker_state_dict, ModelConfig, ParallelismSpec, StateDictSpec};
use eccheck::store::drain_version;
use eccheck::{EcCheck, EcCheckConfig, EcCheckError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Asserts every counter in `now` is at least its value in `before`
/// (counters are monotonic: telemetry never un-counts work).
fn assert_counters_monotonic(before: &BTreeMap<String, u64>, now: &BTreeMap<String, u64>) {
    for (name, old) in before {
        let new = now.get(name).copied().unwrap_or(0);
        assert!(new >= *old, "counter {name} decreased: {old} -> {new}");
    }
}

fn dicts(iteration: u64) -> Vec<ecc_checkpoint::StateDict> {
    let model = ModelConfig::gpt2(64, 4, 4).with_vocab(256).with_seq_len(16);
    let par = ParallelismSpec::new(2, 2, 2).unwrap();
    let spec = StateDictSpec { iteration, ..StateDictSpec::new(model, par) };
    (0..8).map(|w| build_worker_state_dict(&spec, w).unwrap()).collect()
}

#[test]
fn random_failure_bursts_never_corrupt_state() {
    let spec = ClusterSpec::tiny_test(4, 2);
    let failure = FailureModel::new(0.35).unwrap();
    let mut outcomes = (0usize, 0usize); // (recovered, refused)

    for trial in 0..20u64 {
        let mut cluster = Cluster::new(spec);
        let mut ecc =
            EcCheck::initialize(&spec, EcCheckConfig::paper_defaults().with_packet_size(2048))
                .unwrap();
        let mut rng = StdRng::seed_from_u64(trial);
        let mut current = dicts(0);
        ecc.save(&mut cluster, &current).unwrap();
        let mut bursts_injected = 0u64;
        let mut prev_counters = ecc.recorder().snapshot().counters;

        for round in 1..=4u64 {
            // A failure burst strikes.
            let scenario = failure.sample(4, trial * 1000 + round);
            for &n in scenario.failed() {
                cluster.fail_node(n);
                cluster.replace_node(n);
            }
            bursts_injected += 1;
            match ecc.load(&mut cluster) {
                Ok((restored, report)) => {
                    assert!(
                        scenario.count() <= 2,
                        "trial {trial} round {round}: recovered from {} failures (> m)",
                        scenario.count()
                    );
                    assert_eq!(restored, current, "trial {trial} round {round}");
                    assert_eq!(report.failed_nodes.len(), scenario.count());
                    outcomes.0 += 1;
                }
                Err(EcCheckError::Unrecoverable { .. }) => {
                    assert!(
                        scenario.count() > 2,
                        "trial {trial} round {round}: refused with only {} failures",
                        scenario.count()
                    );
                    outcomes.1 += 1;
                    // A refused recovery still counts as an attempt.
                    assert_eq!(
                        ecc.recorder().snapshot().counter("ecc.load.calls"),
                        bursts_injected
                    );
                    break; // this training run is lost without remote
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
            // Telemetry invariants: every injected burst triggered exactly
            // one recovery attempt, and no counter ever ran backwards.
            let snap = ecc.recorder().snapshot();
            assert_eq!(
                snap.counter("ecc.load.calls"),
                bursts_injected,
                "trial {trial} round {round}: recovery attempts != bursts injected"
            );
            assert_counters_monotonic(&prev_counters, &snap.counters);
            prev_counters = snap.counters;
            // Training continues; sometimes save a new version.
            if rng.gen_bool(0.7) {
                current = dicts(round * 100);
                ecc.save(&mut cluster, &current).unwrap();
            }
        }
    }
    // With p = 0.35 both outcomes must actually occur.
    assert!(outcomes.0 > 5, "too few recoveries: {outcomes:?}");
    assert!(outcomes.1 > 1, "too few refusals: {outcomes:?}");
}

#[test]
fn crash_between_gather_and_restore_is_survivable() {
    let spec = ClusterSpec::tiny_test(4, 2);
    let current = dicts(1);
    // A restore stores only what was lost, so the window exists only
    // while a node is being re-seeded: node 0 is lost and replaced
    // before the load.
    let degraded = || {
        let mut plane = ChaosPlane::new(Cluster::new(spec), ChaosConfig::quiet(7));
        let config = EcCheckConfig::paper_defaults().with_packet_size(2048);
        let mut ecc = EcCheck::initialize(&spec, config).unwrap();
        ecc.save(&mut plane, &current).unwrap();
        plane.crash_now(0);
        plane.heal(0);
        (plane, ecc)
    };
    // A dry run counts the load's storage ops; the last two are node
    // 0's manifest and chunk.
    let (mut dry, ecc) = degraded();
    let before = dry.op();
    ecc.load(&mut dry).unwrap();
    let load_ops = dry.op() - before;

    // At the second op from the end the engine has gathered everything
    // and is re-seeding node 0 — the fault-tolerant-restore window.
    let (mut plane, ecc) = degraded();
    plane.schedule_crash_at_op(0, plane.op() + load_ops - 1);
    let (restored, report) = ecc.load(&mut plane).unwrap();
    assert_eq!(restored, current, "mid-load crash corrupted the restored state");
    assert_eq!(report.restore_skipped, vec![0]);

    // The node comes back empty (volatile memory), like a replacement
    // node; the next load treats its missing chunk as an erasure and
    // re-seeds it.
    plane.heal(0);
    let (again, report2) = ecc.load(&mut plane).unwrap();
    assert_eq!(again, current);
    assert!(report2.failed_nodes.contains(&0));
    assert!(report2.restore_skipped.is_empty());
}

#[test]
fn transient_read_outages_are_absorbed_by_bounded_retries() {
    let spec = ClusterSpec::tiny_test(4, 2);
    // Every blob's first read fails once; the engine's bounded retry
    // budget (2) must absorb the outage without declaring any node
    // failed.
    let mut plane =
        ChaosPlane::new(Cluster::new(spec), ChaosConfig::quiet(3).with_transient_get(1.0, 1));
    let mut ecc = EcCheck::initialize(
        &spec,
        EcCheckConfig::paper_defaults().with_packet_size(2048).with_fetch_retries(2),
    )
    .unwrap();
    plane.set_recorder(ecc.recorder().clone());
    let current = dicts(2);
    ecc.save(&mut plane, &current).unwrap();

    let (restored, report) = ecc.load(&mut plane).unwrap();
    assert_eq!(restored, current);
    assert!(report.failed_nodes.is_empty(), "transients misread as failures");
    let snap = ecc.recorder().snapshot();
    assert!(snap.counter("ecc.load.fetch_retries") > 0, "no retry was ever needed?");
    assert!(snap.counter("chaos.fault.transient_get") > 0);
}

#[test]
fn seeded_chaos_campaigns_uphold_recovery_contract() {
    let cfg = CampaignConfig::standard();
    let (mut recovered, mut refused) = (0usize, 0usize);
    for seed in 0..6 {
        let report = run_campaign(&cfg, seed);
        assert!(report.passed(), "seed {seed} violations: {:?}", report.violations);
        recovered += report.recovered();
        refused += report.refused();
    }
    // The matrix must exercise both halves of the contract.
    assert!(recovered > 0, "no campaign round ever recovered");
    assert!(refused > 0, "no campaign round ever refused");
}

#[test]
fn chaos_with_a_drained_copy_always_recovers() {
    let spec = ClusterSpec::tiny_test(4, 2);
    let failure = FailureModel::new(0.5).unwrap();
    for trial in 0..8u64 {
        let mut cluster = Cluster::new(spec);
        let mut ecc =
            EcCheck::initialize(&spec, EcCheckConfig::paper_defaults().with_packet_size(2048))
                .unwrap();
        let current = dicts(trial);
        ecc.save(&mut cluster, &current).unwrap();
        drain_version(&mut cluster, 1, spec.world_size(), ecc.recorder()).unwrap();
        let scenario = failure.sample(4, trial + 99);
        for &n in scenario.failed() {
            cluster.fail_node(n);
            cluster.replace_node(n);
        }
        // With step 4's remote copy, even total cluster loss recovers.
        let (restored, _) = ecc.load(&mut cluster).unwrap();
        assert_eq!(restored, current, "trial {trial}");
    }
}
