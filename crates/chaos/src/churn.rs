//! Seeded elastic-churn campaign: membership changes under fire.
//!
//! The [`campaign`](crate::campaign) module attacks the recovery
//! contract on a *fixed* membership. This module attacks the elastic
//! half of the story: rounds of checkpoint → churn (crashes and
//! graceful drains, up to `m` slots at once) → replacement joins →
//! [`PlacementController::rebalance`], asserting after **every**
//! instant that the paper's m-fault guarantee still holds:
//!
//! * while churned slots are down (before the rebalance), the
//!   checkpoint must still restore bit-exactly from the survivors;
//! * after the rebalance commits, *any* `m` further node failures
//!   must restore bit-exactly (every `C(n, m)` combination is
//!   drilled), and `m + 1` failures must be refused with a clean
//!   [`EcCheckError::Unrecoverable`] — never garbage state;
//! * placement epochs are strictly monotone (one bump per committed
//!   rebalance) and a stale engine is fenced with
//!   [`EcCheckError::StaleEpoch`] until it refreshes;
//! * chunk migration traffic stays under the naive full-re-encode
//!   bound — `chunk_bytes <= bound_bytes` on every
//!   [`ecc_membership::RebalanceReport`].
//!
//! Like the fixed-membership campaign, every round is seeded and
//! deterministic, violations are collected (not panicked) so one
//! failing seed reports everything it found, and the report renders
//! dependency-free JSON for CI artifacts ([`ChurnReport::summary_json`]
//! and [`ChurnReport::rounds_json`] — the latter is embedded in the
//! churn verdict CI uploads).

use ecc_checkpoint::{DType, StateDict, Tensor, Value};
use ecc_cluster::{Cluster, ClusterSpec, NodeId};
use ecc_membership::PlacementController;
use eccheck::{EcCheck, EcCheckConfig, EcCheckError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tunables for a churn campaign.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Cluster size (`n = k + m` — the fixed-slot model).
    pub nodes: usize,
    /// GPUs per node; world size is `nodes * gpus_per_node`.
    pub gpus_per_node: usize,
    /// Data split of the erasure code.
    pub k: usize,
    /// Parity count — the fault budget under attack.
    pub m: usize,
    /// Engine packet size (small, to keep rounds fast).
    pub packet_size: usize,
    /// Churn rounds per campaign.
    pub rounds: usize,
    /// Probability a churned slot drains gracefully (staged copy)
    /// rather than crashing (erasure rebuild).
    pub p_graceful: f64,
    /// Probability a round churns two slots at once (capped at `m`).
    pub p_double_churn: f64,
}

impl ChurnConfig {
    /// The standard campaign: 4 nodes x 2 GPUs, k = m = 2, 6 rounds,
    /// a drain/crash mix, and occasional double churn.
    pub fn standard() -> Self {
        Self {
            nodes: 4,
            gpus_per_node: 2,
            k: 2,
            m: 2,
            packet_size: 256,
            rounds: 6,
            p_graceful: 0.4,
            p_double_churn: 0.3,
        }
    }
}

/// What one churn round did, and what the drills around it proved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnRound {
    /// Round index (1-based; epoch after the round equals the index).
    pub round: usize,
    /// Slots churned this round.
    pub victims: Vec<NodeId>,
    /// How many of the victims drained gracefully (the rest crashed).
    pub graceful: usize,
    /// Placement epoch after the committed rebalance.
    pub epoch: u64,
    /// Moves served from staged drain bytes.
    pub moves_copied: usize,
    /// Moves served by erasure decode / parity patch.
    pub moves_rebuilt: usize,
    /// Rebuilds served by the GF-linearity parity patch.
    pub parity_patched: usize,
    /// Total bytes that crossed node boundaries for the migration.
    pub migrated_bytes: u64,
    /// Scheme-decided chunk payload bytes (vs `bound_bytes`).
    pub chunk_bytes: u64,
    /// Naive full-re-encode cost for the same churn.
    pub bound_bytes: u64,
    /// `C(n, m)` post-rebalance fault drills that restored bit-exactly.
    pub drills_survived: usize,
}

impl ChurnRound {
    /// One-object JSON rendering (no dependencies).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"round\":{},\"victims\":{:?},\"graceful\":{},\"epoch\":{},\
             \"moves_copied\":{},\"moves_rebuilt\":{},\"parity_patched\":{},\
             \"migrated_bytes\":{},\"chunk_bytes\":{},\"bound_bytes\":{},\
             \"drills_survived\":{}}}",
            self.round,
            self.victims,
            self.graceful,
            self.epoch,
            self.moves_copied,
            self.moves_rebuilt,
            self.parity_patched,
            self.migrated_bytes,
            self.chunk_bytes,
            self.bound_bytes,
            self.drills_survived
        )
    }
}

/// The outcome of one seeded churn campaign.
#[derive(Debug, Clone)]
pub struct ChurnReport {
    /// The seed that produced it (reproduce with the same config).
    pub seed: u64,
    /// Per-round records.
    pub rounds: Vec<ChurnRound>,
    /// Contract violations; empty means the campaign passed.
    pub violations: Vec<String>,
    /// The controller's epoch when the campaign ended.
    pub final_epoch: u64,
}

impl ChurnReport {
    /// `true` when no round violated the membership or recovery
    /// contract.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Total scheme-decided chunk migration bytes across all rounds.
    pub fn chunk_bytes_total(&self) -> u64 {
        self.rounds.iter().map(|r| r.chunk_bytes).sum()
    }

    /// Total naive full-re-encode bytes the same churn would have
    /// cost.
    pub fn bound_bytes_total(&self) -> u64 {
        self.rounds.iter().map(|r| r.bound_bytes).sum()
    }

    /// One-line JSON summary (artifact-friendly).
    pub fn summary_json(&self) -> String {
        format!(
            "{{\"seed\":{},\"rounds\":{},\"violations\":{},\"final_epoch\":{},\
             \"chunk_bytes_total\":{},\"bound_bytes_total\":{}}}\n",
            self.seed,
            self.rounds.len(),
            self.violations.len(),
            self.final_epoch,
            self.chunk_bytes_total(),
            self.bound_bytes_total()
        )
    }

    /// JSON array of the per-round records — the placement-epoch /
    /// migration-traffic artifact CI uploads and the churn verdict
    /// embeds.
    pub fn rounds_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, round) in self.rounds.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str("  ");
            out.push_str(&round.to_json());
        }
        out.push_str("\n]\n");
        out
    }
}

/// Runs one seeded churn campaign. See the module docs for the
/// contract each round asserts.
///
/// # Panics
///
/// Panics only on setup errors (invalid `k`/`m` split for the node
/// count); contract violations are collected into the report instead.
pub fn run_churn_campaign(cfg: &ChurnConfig, seed: u64) -> ChurnReport {
    let spec = ClusterSpec::tiny_test(cfg.nodes, cfg.gpus_per_node);
    let engine_cfg =
        EcCheckConfig::paper_defaults().with_km(cfg.k, cfg.m).with_packet_size(cfg.packet_size);
    let mut cluster = Cluster::new(spec);
    let mut ecc = EcCheck::initialize(&spec, engine_cfg).expect("valid churn config");
    let mut ctl = PlacementController::new(&spec, &engine_cfg).expect("valid churn config");
    let world = cfg.nodes * cfg.gpus_per_node;
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(3));

    let mut rounds = Vec::new();
    let mut violations = Vec::new();
    let drill_combos = combinations(cfg.nodes, cfg.m);

    for round in 1..=cfg.rounds {
        let dicts = churn_dicts(world, seed, round);
        ecc.save(&mut cluster, &dicts).expect("save on a fully-active cluster succeeds");

        // Churn 1..=min(2, m) distinct slots: drain or crash, then a
        // fresh (empty) process takes each slot over and asks to join.
        let churned = if cfg.m >= 2 && rng.gen_bool(cfg.p_double_churn) { 2 } else { 1 };
        let mut victims: Vec<NodeId> = Vec::new();
        while victims.len() < churned {
            let v = rng.gen_range(0..cfg.nodes);
            if !victims.contains(&v) {
                victims.push(v);
            }
        }
        let mut graceful = 0usize;
        for &victim in &victims {
            if rng.gen_bool(cfg.p_graceful) {
                graceful += 1;
                ctl.leave(&cluster, victim).expect("alive active slots can drain");
            } else {
                ctl.force_dead(victim);
            }
            cluster.fail_node(victim);
        }

        // Instant 1: victims down, replacements not yet admitted. The
        // checkpoint must still restore bit-exactly from survivors.
        {
            let mut drill = cluster.clone();
            match ecc.load(&mut drill) {
                Ok((restored, _)) if restored == dicts => {}
                Ok(_) => violations.push(format!(
                    "seed {seed} round {round}: degraded-window load returned garbage \
                     (victims {victims:?})"
                )),
                Err(e) => violations.push(format!(
                    "seed {seed} round {round}: degraded-window load failed with {e} \
                     ({} <= m = {} slots down, victims {victims:?})",
                    victims.len(),
                    cfg.m
                )),
            }
        }

        for &victim in &victims {
            cluster.replace_node(victim);
            ctl.join(victim).expect("vacated slots admit replacements");
        }

        // Instant 2: the rebalance must migrate only the churned
        // chunks, stay under the naive full-re-encode bound, and
        // commit exactly one epoch.
        let report = match ctl.rebalance(&mut cluster) {
            Ok(report) => report,
            Err(e) => {
                violations.push(format!(
                    "seed {seed} round {round}: rebalance refused a completable churn: {e}"
                ));
                break;
            }
        };
        if report.epoch != round as u64 {
            violations.push(format!(
                "seed {seed} round {round}: epoch {} is not strictly monotone (expected {round})",
                report.epoch
            ));
        }
        if report.chunk_bytes > report.bound_bytes {
            violations.push(format!(
                "seed {seed} round {round}: chunk migration {} exceeds the full \
                 re-encode bound {}",
                report.chunk_bytes, report.bound_bytes
            ));
        }
        if !ctl.table().fully_active() {
            violations.push(format!(
                "seed {seed} round {round}: rebalance committed with non-active slots"
            ));
        }

        // Instant 3: the engine saved under the old epoch and must be
        // fenced until it adopts the committed placement.
        match ecc.save(&mut cluster, &dicts) {
            Err(EcCheckError::StaleEpoch { .. }) => {}
            other => violations.push(format!(
                "seed {seed} round {round}: stale engine was not fenced (save returned \
                 {})",
                match other {
                    Ok(_) => "Ok".to_string(),
                    Err(e) => format!("{e}"),
                }
            )),
        }
        ecc.apply_placement(ctl.epoch(), ctl.placement().clone())
            .expect("controller epochs only move forward");

        // Instant 4: with the new layout committed, any m further
        // faults must restore bit-exactly...
        let mut drills_survived = 0usize;
        for combo in &drill_combos {
            let mut drill = cluster.clone();
            for &node in combo {
                drill.fail_node(node);
            }
            match ecc.load(&mut drill) {
                Ok((restored, _)) if restored == dicts => drills_survived += 1,
                Ok(_) => violations
                    .push(format!("seed {seed} round {round}: drill {combo:?} restored garbage")),
                Err(e) => violations.push(format!(
                    "seed {seed} round {round}: drill {combo:?} failed with {e} \
                     (m = {} faults must be survivable)",
                    cfg.m
                )),
            }
        }
        // ... and m + 1 faults must be refused cleanly, never garbled.
        {
            let mut drill = cluster.clone();
            for node in 0..=cfg.m {
                drill.fail_node(node);
            }
            if !matches!(ecc.load(&mut drill), Err(EcCheckError::Unrecoverable { .. })) {
                violations.push(format!(
                    "seed {seed} round {round}: {} faults were not refused cleanly",
                    cfg.m + 1
                ));
            }
        }

        // Re-verify on the real cluster (also restores every replica
        // the engine keeps) before the next round saves over it.
        match ecc.load(&mut cluster) {
            Ok((restored, _)) if restored == dicts => {}
            _ => violations.push(format!(
                "seed {seed} round {round}: post-churn load on the healthy cluster \
                 is not bit-exact"
            )),
        }

        rounds.push(ChurnRound {
            round,
            victims,
            graceful,
            epoch: report.epoch,
            moves_copied: report.moves_copied,
            moves_rebuilt: report.moves_rebuilt,
            parity_patched: report.parity_patched,
            migrated_bytes: report.migrated_bytes,
            chunk_bytes: report.chunk_bytes,
            bound_bytes: report.bound_bytes,
            drills_survived,
        });
    }

    ChurnReport { seed, rounds, violations, final_epoch: ctl.epoch() }
}

/// All `C(n, m)` node subsets of size `m`, in lexicographic order.
fn combinations(n: usize, m: usize) -> Vec<Vec<NodeId>> {
    let mut out = Vec::new();
    let mut current = Vec::with_capacity(m);
    fn recurse(
        start: usize,
        n: usize,
        m: usize,
        current: &mut Vec<NodeId>,
        out: &mut Vec<Vec<NodeId>>,
    ) {
        if current.len() == m {
            out.push(current.clone());
            return;
        }
        for node in start..n {
            current.push(node);
            recurse(node + 1, n, m, current, out);
            current.pop();
        }
    }
    recurse(0, n, m, &mut current, &mut out);
    out
}

/// Deterministic per-round worker states — varying payload sizes so
/// padding and heterogeneous shards are exercised across churn. Tensor
/// payloads, so the erasure-coded chunks carry real bytes.
fn churn_dicts(world: usize, seed: u64, round: usize) -> Vec<StateDict> {
    let mut rng = StdRng::seed_from_u64(seed ^ ((round as u64) << 32) ^ 0xC0DE);
    (0..world)
        .map(|w| {
            let mut sd = StateDict::new();
            sd.insert("iteration", Value::Int(round as i64));
            sd.insert("rank", Value::Int(w as i64));
            sd.insert("tag", Value::Str(format!("churn-s{seed}-r{round}-w{w}")));
            let len = 32 + rng.gen_range(0..160usize);
            let payload: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u8)).collect();
            let t = Tensor::from_bytes(DType::U8, &[len], payload).expect("tensor shape valid");
            sd.insert("payload", Value::Tensor(t));
            sd
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_churn_campaign_passes() {
        let cfg = ChurnConfig::standard();
        let report = run_churn_campaign(&cfg, 3);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.rounds.len(), cfg.rounds);
        assert_eq!(report.final_epoch, cfg.rounds as u64, "one epoch per round");
        let drills = combinations(cfg.nodes, cfg.m).len();
        assert!(report.rounds.iter().all(|r| r.drills_survived == drills));
        assert!(report.chunk_bytes_total() <= report.bound_bytes_total());
    }

    #[test]
    fn churn_campaigns_are_deterministic_per_seed() {
        let cfg = ChurnConfig::standard();
        let a = run_churn_campaign(&cfg, 9);
        let b = run_churn_campaign(&cfg, 9);
        assert!(a.passed(), "violations: {:?}", a.violations);
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn seed_matrix_mixes_drains_and_crashes() {
        let cfg = ChurnConfig::standard();
        let mut copied = 0;
        let mut rebuilt = 0;
        for seed in 0..4 {
            let report = run_churn_campaign(&cfg, seed);
            assert!(report.passed(), "seed {seed} violations: {:?}", report.violations);
            copied += report.rounds.iter().map(|r| r.moves_copied).sum::<usize>();
            rebuilt += report.rounds.iter().map(|r| r.moves_rebuilt).sum::<usize>();
        }
        assert!(copied > 0, "no graceful drain ever exercised the copy path");
        assert!(rebuilt > 0, "no crash ever exercised the rebuild path");
    }

    #[test]
    fn reports_render_valid_artifact_json() {
        let report = run_churn_campaign(&ChurnConfig::standard(), 1);
        let summary = report.summary_json();
        assert!(summary.contains("\"chunk_bytes_total\""));
        let rounds = report.rounds_json();
        assert!(rounds.starts_with("[\n"));
        assert!(rounds.trim_end().ends_with(']'));
        assert_eq!(rounds.matches("\"epoch\"").count(), report.rounds.len());
    }

    #[test]
    fn combinations_enumerate_all_subsets() {
        assert_eq!(combinations(4, 2).len(), 6);
        assert_eq!(combinations(5, 3).len(), 10);
        assert_eq!(combinations(3, 1), vec![vec![0], vec![1], vec![2]]);
    }
}
