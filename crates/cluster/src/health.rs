//! Heartbeat-driven node-health registry.
//!
//! Production fleets learn about failures from *missed heartbeats*, not
//! from an omniscient `fail_node` call (ECRM and TierCheck both build
//! their fault tolerance on exactly this signal). [`HealthRegistry`] is
//! that seam: every node owns a last-heartbeat timestamp, and
//! [`HealthRegistry::sweep`] classifies each node as
//! [`NodeHealth::Alive`], [`NodeHealth::Suspect`] (one missed window) or
//! [`NodeHealth::Dead`] (gone long enough to write off) from timestamps
//! alone. Timestamps are plain nanosecond readings supplied by the
//! caller, so the registry runs equally on wall-clock time and on a
//! deterministic [`ecc_telemetry::ManualClock`].
//!
//! Transitions are returned from `sweep` and, when a recorder is
//! attached, also emitted as `cluster.health.*` counters and
//! `health.transition` events — the feed the observability plane's
//! `/metrics` and `/events` endpoints surface live.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use ecc_telemetry::Recorder;

use crate::NodeId;

/// Transitions retained for [`HealthRegistry::transitions_since`]
/// consumers that poll slower than transitions occur.
const TRANSITION_LOG_CAPACITY: usize = 4096;

/// Liveness classification of one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeHealth {
    /// Heartbeating within the suspect window.
    Alive,
    /// Missed at least one suspect window but not yet written off.
    Suspect,
    /// Missed the dead window (or was declared dead explicitly); its
    /// in-memory checkpoints must be assumed lost.
    Dead,
}

impl NodeHealth {
    /// Stable lowercase label (used in metrics and events).
    pub fn as_str(self) -> &'static str {
        match self {
            NodeHealth::Alive => "alive",
            NodeHealth::Suspect => "suspect",
            NodeHealth::Dead => "dead",
        }
    }

    /// Numeric gauge encoding: dead = 0, suspect = 1, alive = 2 (so
    /// "bigger is healthier" on a dashboard).
    pub fn gauge(self) -> u64 {
        match self {
            NodeHealth::Dead => 0,
            NodeHealth::Suspect => 1,
            NodeHealth::Alive => 2,
        }
    }
}

/// Heartbeat windows for [`HealthRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthConfig {
    /// Silence longer than this marks a node [`NodeHealth::Suspect`].
    pub suspect_after_ns: u64,
    /// Silence longer than this marks a node [`NodeHealth::Dead`].
    pub dead_after_ns: u64,
}

impl Default for HealthConfig {
    /// 2 s to suspect, 10 s to declare dead — conservative defaults for
    /// wall-clock heartbeats on a healthy local fabric.
    fn default() -> Self {
        Self { suspect_after_ns: 2_000_000_000, dead_after_ns: 10_000_000_000 }
    }
}

/// One state change observed by [`HealthRegistry::sweep`] (or forced by
/// [`HealthRegistry::mark_dead`] / a reviving heartbeat).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthTransition {
    /// The node that changed state.
    pub node: NodeId,
    /// Previous state.
    pub from: NodeHealth,
    /// New state.
    pub to: NodeHealth,
    /// Clock reading when the transition was decided.
    pub at_ns: u64,
}

#[derive(Debug, Clone, Copy)]
struct NodeState {
    health: NodeHealth,
    last_heartbeat_ns: u64,
}

#[derive(Debug)]
struct Inner {
    nodes: Vec<NodeState>,
    recorder: Option<Recorder>,
    /// Bounded transition history; `log_start` is the absolute index of
    /// the front entry (the cursor space never resets).
    log: VecDeque<HealthTransition>,
    log_start: u64,
}

impl Inner {
    fn emit(&mut self, t: HealthTransition) {
        if self.log.len() == TRANSITION_LOG_CAPACITY {
            self.log.pop_front();
            self.log_start += 1;
        }
        self.log.push_back(t);
        if let Some(rec) = &self.recorder {
            rec.counter("cluster.health.transitions").incr();
            rec.counter(&format!("cluster.health.to_{}", t.to.as_str())).incr();
            rec.event(
                "health.transition",
                format!("node {} {} -> {}", t.node, t.from.as_str(), t.to.as_str()),
            );
        }
    }
}

/// Shared per-node liveness registry. Clones share the same state, so
/// one handle can live in the heartbeat path and another behind the
/// metrics exporter.
///
/// # Examples
///
/// ```
/// use ecc_cluster::{HealthConfig, HealthRegistry, NodeHealth};
///
/// let reg = HealthRegistry::new(2, HealthConfig { suspect_after_ns: 10, dead_after_ns: 30 });
/// reg.record_heartbeat(0, 0);
/// reg.record_heartbeat(1, 0);
/// let transitions = reg.sweep(20); // both nodes silent past the suspect window
/// assert_eq!(transitions.len(), 2);
/// assert_eq!(reg.state(0), NodeHealth::Suspect);
/// reg.record_heartbeat(0, 25); // node 0 recovers
/// assert_eq!(reg.state(0), NodeHealth::Alive);
/// assert_eq!(reg.sweep(30), vec![ecc_cluster::HealthTransition {
///     node: 1,
///     from: NodeHealth::Suspect,
///     to: NodeHealth::Dead,
///     at_ns: 30,
/// }]);
/// ```
#[derive(Debug, Clone)]
pub struct HealthRegistry {
    inner: Arc<Mutex<Inner>>,
    config: HealthConfig,
}

impl HealthRegistry {
    /// A registry for `nodes` nodes, all initially [`NodeHealth::Alive`]
    /// with a heartbeat at time 0.
    ///
    /// # Panics
    ///
    /// Panics when `config` is inverted (`dead_after_ns` must be at
    /// least `suspect_after_ns`, both positive).
    pub fn new(nodes: usize, config: HealthConfig) -> Self {
        assert!(
            config.suspect_after_ns > 0 && config.dead_after_ns >= config.suspect_after_ns,
            "health windows must satisfy 0 < suspect_after_ns <= dead_after_ns"
        );
        let states = vec![NodeState { health: NodeHealth::Alive, last_heartbeat_ns: 0 }; nodes];
        Self {
            inner: Arc::new(Mutex::new(Inner {
                nodes: states,
                recorder: None,
                log: VecDeque::new(),
                log_start: 0,
            })),
            config,
        }
    }

    /// Attaches a telemetry recorder: every transition from now on also
    /// increments `cluster.health.transitions` plus a per-destination
    /// counter (`cluster.health.to_dead`, …) and appends a
    /// `health.transition` event.
    pub fn set_recorder(&self, recorder: &Recorder) {
        self.lock().recorder = Some(recorder.clone());
    }

    /// The heartbeat windows in force.
    pub fn config(&self) -> HealthConfig {
        self.config
    }

    /// Number of registered nodes.
    pub fn nodes(&self) -> usize {
        self.lock().nodes.len()
    }

    /// Records a heartbeat from `node` at `now_ns`. A heartbeat always
    /// re-marks the node [`NodeHealth::Alive`]; when it was suspect or
    /// dead, the revival is a transition (emitted, and returned).
    ///
    /// # Panics
    ///
    /// Panics for out-of-range node ids.
    pub fn record_heartbeat(&self, node: NodeId, now_ns: u64) -> Option<HealthTransition> {
        let mut inner = self.lock();
        assert!(node < inner.nodes.len(), "node {node} out of range");
        inner.nodes[node].last_heartbeat_ns = now_ns;
        let from = inner.nodes[node].health;
        if from == NodeHealth::Alive {
            return None;
        }
        inner.nodes[node].health = NodeHealth::Alive;
        let t = HealthTransition { node, from, to: NodeHealth::Alive, at_ns: now_ns };
        inner.emit(t);
        Some(t)
    }

    /// Declares `node` dead right now — the fast path for an explicit
    /// failure signal (connection reset, chaos crash) that should not
    /// wait out the heartbeat windows. No-op (returns `None`) when the
    /// node is already dead.
    ///
    /// # Panics
    ///
    /// Panics for out-of-range node ids.
    pub fn mark_dead(&self, node: NodeId, now_ns: u64) -> Option<HealthTransition> {
        let mut inner = self.lock();
        assert!(node < inner.nodes.len(), "node {node} out of range");
        let from = inner.nodes[node].health;
        if from == NodeHealth::Dead {
            return None;
        }
        inner.nodes[node].health = NodeHealth::Dead;
        let t = HealthTransition { node, from, to: NodeHealth::Dead, at_ns: now_ns };
        inner.emit(t);
        Some(t)
    }

    /// Re-classifies every node from its heartbeat age at `now_ns` and
    /// returns the transitions, in node order. Reviving is *not* done
    /// here — only a fresh heartbeat revives — so sweeps are monotone:
    /// Alive → Suspect → Dead.
    pub fn sweep(&self, now_ns: u64) -> Vec<HealthTransition> {
        let mut inner = self.lock();
        let mut transitions = Vec::new();
        for node in 0..inner.nodes.len() {
            let state = inner.nodes[node];
            let silence = now_ns.saturating_sub(state.last_heartbeat_ns);
            let classified = if silence >= self.config.dead_after_ns {
                NodeHealth::Dead
            } else if silence >= self.config.suspect_after_ns {
                NodeHealth::Suspect
            } else {
                NodeHealth::Alive
            };
            // Monotone: a sweep can only degrade a node's state.
            let degraded = classified.gauge() < state.health.gauge();
            if degraded {
                inner.nodes[node].health = classified;
                let t =
                    HealthTransition { node, from: state.health, to: classified, at_ns: now_ns };
                inner.emit(t);
                transitions.push(t);
            }
        }
        transitions
    }

    /// The current state of one node.
    ///
    /// # Panics
    ///
    /// Panics for out-of-range node ids.
    pub fn state(&self, node: NodeId) -> NodeHealth {
        self.lock().nodes[node].health
    }

    /// The current state of every node, in node order.
    pub fn states(&self) -> Vec<NodeHealth> {
        self.lock().nodes.iter().map(|n| n.health).collect()
    }

    /// Last heartbeat timestamp of one node.
    ///
    /// # Panics
    ///
    /// Panics for out-of-range node ids.
    pub fn last_heartbeat_ns(&self, node: NodeId) -> u64 {
        self.lock().nodes[node].last_heartbeat_ns
    }

    /// Transitions that happened at or after `cursor` (an opaque value
    /// from a previous call; start from 0), in order, together with the
    /// next cursor. The history is bounded, so a consumer polling
    /// slower than transitions occur may miss the oldest — the returned
    /// cursor always reflects everything emitted so far.
    pub fn transitions_since(&self, cursor: u64) -> (Vec<HealthTransition>, u64) {
        let inner = self.lock();
        let end = inner.log_start + inner.log.len() as u64;
        let from = cursor.max(inner.log_start).min(end);
        let transitions =
            inner.log.iter().skip((from - inner.log_start) as usize).copied().collect();
        (transitions, end)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("health registry poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HealthConfig {
        HealthConfig { suspect_after_ns: 100, dead_after_ns: 300 }
    }

    #[test]
    fn transition_log_supports_cursor_reads() {
        let reg = HealthRegistry::new(2, cfg());
        let (none, cursor) = reg.transitions_since(0);
        assert!(none.is_empty());
        assert_eq!(cursor, 0);

        reg.mark_dead(0, 5);
        reg.record_heartbeat(0, 10); // revival
        reg.sweep(500); // both nodes dead (node 0 heartbeat 10, node 1 at 0)
        let (transitions, cursor) = reg.transitions_since(cursor);
        assert_eq!(transitions.len(), 4, "{transitions:?}");
        assert_eq!(transitions[0].to, NodeHealth::Dead);
        assert_eq!(transitions[1].to, NodeHealth::Alive);
        // Cursor is caught up: nothing new until the next transition.
        let (empty, cursor2) = reg.transitions_since(cursor);
        assert!(empty.is_empty());
        assert_eq!(cursor2, cursor);
    }

    #[test]
    fn silence_degrades_alive_to_suspect_to_dead() {
        let reg = HealthRegistry::new(1, cfg());
        reg.record_heartbeat(0, 0);
        assert!(reg.sweep(99).is_empty());
        assert_eq!(reg.state(0), NodeHealth::Alive);

        let t = reg.sweep(100);
        assert_eq!(t.len(), 1);
        assert_eq!((t[0].from, t[0].to), (NodeHealth::Alive, NodeHealth::Suspect));

        assert!(reg.sweep(200).is_empty(), "still suspect, no new transition");

        let t = reg.sweep(300);
        assert_eq!(t.len(), 1);
        assert_eq!((t[0].from, t[0].to), (NodeHealth::Suspect, NodeHealth::Dead));
        assert_eq!(reg.state(0), NodeHealth::Dead);
    }

    #[test]
    fn heartbeat_revives_and_reports_the_transition() {
        let reg = HealthRegistry::new(2, cfg());
        reg.sweep(500);
        assert_eq!(reg.states(), vec![NodeHealth::Dead, NodeHealth::Dead]);
        let t = reg.record_heartbeat(1, 600).expect("revival is a transition");
        assert_eq!((t.from, t.to), (NodeHealth::Dead, NodeHealth::Alive));
        assert_eq!(reg.states(), vec![NodeHealth::Dead, NodeHealth::Alive]);
        assert!(reg.record_heartbeat(1, 601).is_none(), "alive -> alive is not a transition");
    }

    #[test]
    fn mark_dead_short_circuits_the_windows() {
        let reg = HealthRegistry::new(1, cfg());
        reg.record_heartbeat(0, 50);
        let t = reg.mark_dead(0, 60).expect("explicit death is a transition");
        assert_eq!((t.from, t.to), (NodeHealth::Alive, NodeHealth::Dead));
        assert!(reg.mark_dead(0, 61).is_none(), "already dead");
        // A sweep shortly after must not resurrect it.
        assert!(reg.sweep(70).is_empty());
        assert_eq!(reg.state(0), NodeHealth::Dead);
    }

    #[test]
    fn skipping_the_suspect_window_jumps_straight_to_dead() {
        let reg = HealthRegistry::new(1, cfg());
        reg.record_heartbeat(0, 0);
        let t = reg.sweep(1_000);
        assert_eq!(t.len(), 1);
        assert_eq!((t[0].from, t[0].to), (NodeHealth::Alive, NodeHealth::Dead));
    }

    #[test]
    fn clones_share_state() {
        let reg = HealthRegistry::new(1, cfg());
        let other = reg.clone();
        reg.record_heartbeat(0, 0);
        other.sweep(400);
        assert_eq!(reg.state(0), NodeHealth::Dead);
    }

    #[test]
    fn transitions_emit_counters_and_events_when_attached() {
        let (rec, clock) = ecc_telemetry::Recorder::with_manual_clock();
        let reg = HealthRegistry::new(2, cfg());
        reg.set_recorder(&rec);
        reg.record_heartbeat(0, 0);
        clock.set_ns(300);
        reg.sweep(300); // node 0 suspect->? (0 heartbeat at 0 => dead at 300); node 1 dead
        let snap = rec.snapshot();
        assert_eq!(snap.counter("cluster.health.transitions"), 2);
        assert_eq!(snap.counter("cluster.health.to_dead"), 2);
        assert!(snap.events.iter().all(|e| e.name == "health.transition"));
        assert!(snap.events[0].detail.contains("alive -> dead"));
    }

    #[test]
    #[should_panic(expected = "health windows")]
    fn inverted_windows_are_rejected() {
        let _ = HealthRegistry::new(1, HealthConfig { suspect_after_ns: 10, dead_after_ns: 5 });
    }

    #[test]
    fn gauge_orders_by_healthiness() {
        assert!(NodeHealth::Alive.gauge() > NodeHealth::Suspect.gauge());
        assert!(NodeHealth::Suspect.gauge() > NodeHealth::Dead.gauge());
        assert_eq!(NodeHealth::Alive.as_str(), "alive");
    }
}
