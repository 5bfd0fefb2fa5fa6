//! The `/events` ring: recorder events, classified by severity.
//!
//! The telemetry recorder's event log is an append-only bounded buffer
//! with no notion of importance. The observability plane drains newly
//! appended entries on every refresh, classifies each by name
//! ([`classify`]) and keeps the most recent `N` in a ring — so fault
//! injections, CRC reclassifications, retries, health transitions and
//! perf-gate downgrades are visible over HTTP without grepping a
//! snapshot JSON.

use std::collections::VecDeque;

use ecc_telemetry::{push_json_string, Event};

/// How loud an event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Routine progress.
    Info,
    /// Degraded but operating: injected faults, retries, advisory gate
    /// downgrades, suspect nodes.
    Warn,
    /// Data was at risk or a component was lost: corruption detected,
    /// node death.
    Error,
}

impl Severity {
    /// Stable lowercase label.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

/// Classifies a recorder event name into a severity. The rules encode
/// the stack's naming conventions:
///
/// * anything mentioning corruption (`ecc.load.corrupt`,
///   `chaos.fault.corrupt_put`, …) or a crash/death — including the
///   placement controller writing a slot off (`membership.dead`) — is
///   an error;
/// * injected faults, retries, fallbacks and perf-gate warnings are
///   warnings;
/// * everything else is informational.
pub fn classify(name: &str, detail: &str) -> Severity {
    if name.contains("corrupt") || name.contains("crash") || name == "membership.dead" {
        return Severity::Error;
    }
    if name == "health.transition" {
        return if detail.contains("-> dead") {
            Severity::Error
        } else if detail.contains("-> suspect") {
            Severity::Warn
        } else {
            Severity::Info
        };
    }
    if name.starts_with("chaos.fault.")
        || name.contains("retry")
        || name.contains("fallback")
        || name == "gate.warning"
    {
        return Severity::Warn;
    }
    Severity::Info
}

/// One classified entry in the ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsEvent {
    /// Clock reading when the underlying recorder event was stamped.
    pub at_ns: u64,
    /// Severity from [`classify`].
    pub severity: Severity,
    /// Recorder event name.
    pub name: String,
    /// Free-form detail.
    pub detail: String,
}

/// A bounded ring of the most recent classified events.
#[derive(Debug, Clone)]
pub struct EventRing {
    capacity: usize,
    events: VecDeque<ObsEvent>,
    /// Events pushed out of the ring (still counted).
    evicted: u64,
    /// Recorder events consumed so far (the drain cursor).
    drained: u64,
}

impl EventRing {
    /// A ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Self { capacity: capacity.max(1), events: VecDeque::new(), evicted: 0, drained: 0 }
    }

    /// Ingests the recorder's event log, consuming only entries not
    /// seen by a previous drain (the recorder log is append-only and
    /// bounded, so the cursor is simply how many entries were seen).
    pub fn drain_from(&mut self, log: &[Event]) {
        let start = usize::try_from(self.drained).unwrap_or(usize::MAX).min(log.len());
        for event in &log[start..] {
            self.push(ObsEvent {
                at_ns: event.at_ns,
                severity: classify(&event.name, &event.detail),
                name: event.name.clone(),
                detail: event.detail.clone(),
            });
        }
        self.drained = self.drained.max(log.len() as u64);
    }

    /// Appends one event directly (used for obs-plane-local events that
    /// never touch the recorder, e.g. SLO breaches).
    pub fn push(&mut self, event: ObsEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.evicted += 1;
        }
        self.events.push_back(event);
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &ObsEvent> {
        self.events.iter()
    }

    /// Retained events at or above `min`, oldest first.
    pub fn at_least(&self, min: Severity) -> impl Iterator<Item = &ObsEvent> {
        self.events.iter().filter(move |e| e.severity >= min)
    }

    /// How many events fell off the front of the ring.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders the ring as a deterministic JSON document:
    /// `{"events": [...], "evicted": N}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"at_ns\":{},\"severity\":\"{}\",\"name\":",
                e.at_ns,
                e.severity.as_str()
            ));
            push_json_string(&mut out, &e.name);
            out.push_str(",\"detail\":");
            push_json_string(&mut out, &e.detail);
            out.push('}');
        }
        out.push_str(&format!("],\"evicted\":{}}}", self.evicted));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_the_stack_conventions() {
        assert_eq!(classify("ecc.load.corrupt", ""), Severity::Error);
        assert_eq!(classify("chaos.fault.crash", ""), Severity::Error);
        assert_eq!(classify("chaos.fault.corrupt_put", ""), Severity::Error);
        assert_eq!(classify("chaos.fault.drop_put", ""), Severity::Warn);
        assert_eq!(classify("chaos.fault.transient_get", ""), Severity::Warn);
        assert_eq!(classify("gate.warning", ""), Severity::Warn);
        assert_eq!(classify("health.transition", "node 2 alive -> dead"), Severity::Error);
        assert_eq!(classify("health.transition", "node 2 alive -> suspect"), Severity::Warn);
        assert_eq!(classify("health.transition", "node 2 dead -> alive"), Severity::Info);
        assert_eq!(classify("membership.dead", "slot 1 written off"), Severity::Error);
        assert_eq!(classify("membership.join", "slot 1 admitted incarnation 2"), Severity::Info);
        assert_eq!(classify("membership.leave", "slot 3 draining"), Severity::Info);
        assert_eq!(classify("ecc.save", "version=3"), Severity::Info);
        assert_eq!(classify("kernel.selected", "avx2"), Severity::Info);
    }

    #[test]
    fn drain_consumes_only_new_entries() {
        let mut ring = EventRing::new(8);
        let mut log = vec![Event { at_ns: 1, name: "a".into(), detail: String::new() }];
        ring.drain_from(&log);
        assert_eq!(ring.len(), 1);
        log.push(Event { at_ns: 2, name: "b".into(), detail: String::new() });
        ring.drain_from(&log);
        ring.drain_from(&log); // idempotent
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.events().map(|e| e.at_ns).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn ring_is_bounded_and_counts_evictions() {
        let mut ring = EventRing::new(2);
        for i in 0..5u64 {
            ring.push(ObsEvent {
                at_ns: i,
                severity: Severity::Info,
                name: "e".into(),
                detail: String::new(),
            });
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.evicted(), 3);
        assert_eq!(ring.events().map(|e| e.at_ns).collect::<Vec<_>>(), vec![3, 4]);
    }

    #[test]
    fn severity_filter_is_inclusive() {
        let mut ring = EventRing::new(8);
        for (sev, name) in [(Severity::Info, "i"), (Severity::Warn, "w"), (Severity::Error, "e")] {
            ring.push(ObsEvent {
                at_ns: 0,
                severity: sev,
                name: name.into(),
                detail: String::new(),
            });
        }
        assert_eq!(ring.at_least(Severity::Warn).count(), 2);
        assert_eq!(ring.at_least(Severity::Error).count(), 1);
    }

    #[test]
    fn json_escapes_details() {
        let mut ring = EventRing::new(2);
        ring.push(ObsEvent {
            at_ns: 7,
            severity: Severity::Warn,
            name: "gate.warning".into(),
            detail: "quote \" and\nnewline".into(),
        });
        let json = ring.to_json();
        assert!(json.contains("\\\""));
        assert!(json.contains("\\n"));
        assert!(json.ends_with("\"evicted\":0}"));
    }
}
