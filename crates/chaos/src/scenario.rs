//! Round-level fault scheduling on top of
//! [`ecc_cluster::FailureModel`] / [`ecc_cluster::FailureScenario`].
//!
//! A [`ChaosEvent`] is one fault the campaign applies to a recovery
//! round; a [`ScenarioSchedule`] is the per-round event list for a
//! whole campaign. Schedules are built deterministically from a seed,
//! so a failing round is re-run by number.

use ecc_cluster::{FailureModel, FailureScenario, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One fault applied to a recovery round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosEvent {
    /// Crash these nodes after the save completes (their volatile
    /// blobs are lost before the load begins).
    CrashNodes(Vec<NodeId>),
    /// Flip bits in the stored erasure-code chunk of each listed node
    /// (silent at-rest corruption; no crash).
    CorruptChunks(Vec<NodeId>),
    /// Flip bits in the manifest record — every chunk's CRC and every
    /// worker's header — on each listed node. With at least one intact
    /// copy left, recovery must fall back to it; with none, it must
    /// refuse.
    CorruptRecordCopies(Vec<NodeId>),
    /// Crash `node` once the plane's op counter advances `after_ops`
    /// storage operations into the load — failure *during* recovery.
    CrashDuringLoad {
        /// The node that dies mid-load.
        node: NodeId,
        /// Storage ops into the load at which it dies.
        after_ops: u64,
    },
}

impl ChaosEvent {
    /// Nodes whose erasure-code chunk this event destroys or taints —
    /// the faults that consume the code's `m`-failure budget.
    pub fn chunk_casualties(&self) -> &[NodeId] {
        match self {
            ChaosEvent::CrashNodes(nodes) | ChaosEvent::CorruptChunks(nodes) => nodes,
            _ => &[],
        }
    }
}

/// A deterministic per-round fault plan for a chaos campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioSchedule {
    /// `rounds[i]` is applied to campaign round `i`.
    pub rounds: Vec<Vec<ChaosEvent>>,
}

impl ScenarioSchedule {
    /// Samples `rounds` rounds of independent per-node crashes from
    /// `model` (paper §II-B: i.i.d. node failures with probability
    /// `p`).
    ///
    /// # Panics
    ///
    /// Panics when `nodes == 0`.
    pub fn independent(model: &FailureModel, nodes: usize, rounds: usize, seed: u64) -> Self {
        assert!(nodes > 0, "cannot schedule failures over zero nodes");
        let rounds = (0..rounds)
            .map(|r| {
                let scenario = model.sample(nodes, seed.wrapping_add(r as u64));
                Self::crash_events(scenario)
            })
            .collect();
        Self { rounds }
    }

    /// Samples `rounds` rounds of *correlated* group failures from
    /// `model`: nodes sharing a failure domain of `group_size` (a
    /// rack, a PDU) crash together. This is the failure mode that
    /// breaks replication pairs and motivates spreading parity across
    /// domains.
    ///
    /// # Panics
    ///
    /// Panics when `nodes == 0` or `group_size == 0`.
    pub fn correlated(
        model: &FailureModel,
        nodes: usize,
        group_size: usize,
        rounds: usize,
        seed: u64,
    ) -> Self {
        assert!(nodes > 0, "cannot schedule failures over zero nodes");
        let rounds = (0..rounds)
            .map(|r| {
                let scenario =
                    model.sample_correlated(nodes, group_size, seed.wrapping_add(r as u64));
                Self::crash_events(scenario)
            })
            .collect();
        Self { rounds }
    }

    /// A single round in which `node` dies `after_ops` storage
    /// operations into the load — the failure-during-recovery case.
    pub fn failure_during_recovery(node: NodeId, after_ops: u64) -> Self {
        Self { rounds: vec![vec![ChaosEvent::CrashDuringLoad { node, after_ops }]] }
    }

    /// Samples a mixed schedule: each round draws independent or
    /// correlated crashes from `model`, adds at-rest chunk corruption
    /// with probability `p_corrupt` per surviving node, and
    /// occasionally (probability `p_midload`) turns one crash into a
    /// mid-load crash.
    ///
    /// # Panics
    ///
    /// Panics when `nodes == 0` or `group_size == 0`, or when a
    /// probability is outside `[0, 1]`.
    #[allow(clippy::too_many_arguments)]
    pub fn mixed(
        model: &FailureModel,
        nodes: usize,
        group_size: usize,
        p_corrupt: f64,
        p_midload: f64,
        rounds: usize,
        seed: u64,
    ) -> Self {
        assert!(nodes > 0, "cannot schedule failures over zero nodes");
        let mut rng = StdRng::seed_from_u64(seed);
        let rounds = (0..rounds)
            .map(|r| {
                let round_seed = seed.wrapping_add(1 + r as u64);
                let correlated = rng.gen_bool(0.5);
                let scenario = if correlated {
                    model.sample_correlated(nodes, group_size, round_seed)
                } else {
                    model.sample(nodes, round_seed)
                };
                let mut crashed = scenario.failed().to_vec();
                let mut events = Vec::new();
                // Sometimes one of the crashes strikes mid-load
                // instead of before it.
                if !crashed.is_empty() && rng.gen_bool(p_midload) {
                    let node = crashed.pop().expect("non-empty");
                    // The gather phase reads two blobs per node, so
                    // any offset below 2*nodes lands inside it.
                    let after_ops = rng.gen_range(1..(2 * nodes) as u64);
                    events.push(ChaosEvent::CrashDuringLoad { node, after_ops });
                }
                if !crashed.is_empty() {
                    events.push(ChaosEvent::CrashNodes(crashed.clone()));
                }
                let corrupt: Vec<NodeId> = (0..nodes)
                    .filter(|n| !crashed.contains(n))
                    .filter(|_| rng.gen_bool(p_corrupt))
                    .collect();
                if !corrupt.is_empty() {
                    events.push(ChaosEvent::CorruptChunks(corrupt));
                }
                events
            })
            .collect();
        Self { rounds }
    }

    fn crash_events(scenario: FailureScenario) -> Vec<ChaosEvent> {
        if scenario.count() == 0 {
            Vec::new()
        } else {
            vec![ChaosEvent::CrashNodes(scenario.failed().to_vec())]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independent_schedule_is_deterministic() {
        let model = FailureModel::new(0.4).unwrap();
        let a = ScenarioSchedule::independent(&model, 8, 6, 99);
        let b = ScenarioSchedule::independent(&model, 8, 6, 99);
        assert_eq!(a, b);
        assert_eq!(a.rounds.len(), 6);
    }

    #[test]
    fn correlated_schedule_fails_whole_groups() {
        let model = FailureModel::new(0.5).unwrap();
        let sched = ScenarioSchedule::correlated(&model, 8, 4, 20, 7);
        for round in &sched.rounds {
            for event in round {
                if let ChaosEvent::CrashNodes(nodes) = event {
                    // Each failure domain of 4 fails atomically.
                    for domain in [0usize, 4] {
                        let in_domain =
                            nodes.iter().filter(|&&n| n >= domain && n < domain + 4).count();
                        assert!(in_domain == 0 || in_domain == 4, "partial domain: {nodes:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn mixed_schedule_covers_all_fault_kinds() {
        let model = FailureModel::new(0.5).unwrap();
        let sched = ScenarioSchedule::mixed(&model, 4, 2, 0.4, 0.5, 64, 3);
        let all: Vec<&ChaosEvent> = sched.rounds.iter().flatten().collect();
        assert!(all.iter().any(|e| matches!(e, ChaosEvent::CrashNodes(_))));
        assert!(all.iter().any(|e| matches!(e, ChaosEvent::CorruptChunks(_))));
        assert!(all.iter().any(|e| matches!(e, ChaosEvent::CrashDuringLoad { .. })));
        assert_eq!(sched, ScenarioSchedule::mixed(&model, 4, 2, 0.4, 0.5, 64, 3));
    }

    #[test]
    fn chunk_casualties_classify_events() {
        assert_eq!(ChaosEvent::CrashNodes(vec![1, 2]).chunk_casualties(), &[1, 2]);
        assert_eq!(ChaosEvent::CorruptChunks(vec![0]).chunk_casualties(), &[0]);
        assert!(ChaosEvent::CrashDuringLoad { node: 0, after_ops: 3 }
            .chunk_casualties()
            .is_empty());
        assert!(ChaosEvent::CorruptRecordCopies(vec![0]).chunk_casualties().is_empty());
    }

    #[test]
    fn failure_during_recovery_is_single_round() {
        let s = ScenarioSchedule::failure_during_recovery(2, 5);
        assert_eq!(s.rounds, vec![vec![ChaosEvent::CrashDuringLoad { node: 2, after_ops: 5 }]]);
    }
}
