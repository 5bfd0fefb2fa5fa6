//! The observability hub: one read-only view over a recorder.
//!
//! [`ObsHub`] owns everything the HTTP endpoints serve: sliding windows
//! over the hot-phase histograms, the SLO tracker, the classified event
//! ring, and (optionally) a [`HealthRegistry`]. Every render starts
//! with [`ObsHub::refresh`], which takes **one** snapshot of the
//! recorder and derives all views from it — the hub never writes to the
//! recorder, so attaching it leaves the core's telemetry snapshots and
//! traces byte-identical.
//!
//! Under a `ManualClock` the entire `/metrics` document is a pure
//! function of the recorded telemetry and the clock readings at refresh
//! time, which is what makes the golden-scrape test possible.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use ecc_cluster::{HealthRegistry, HealthTransition, NodeHealth};
use ecc_telemetry::{Recorder, Snapshot};

use crate::events::{classify, EventRing, ObsEvent};
use crate::expo::{sanitize_metric_name, ExpositionBuilder, MetricValue};
use crate::slo::{SloSpec, SloTracker};
use crate::window::{SlidingWindow, DEFAULT_WINDOW_NS};

/// Quantiles rendered for every windowed histogram.
const QUANTILES: [(f64, &str); 3] = [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")];

/// Construction knobs for [`ObsHub`].
#[derive(Debug, Clone)]
pub struct ObsHubConfig {
    /// Width of the sliding windows (quantiles and SLOs), nanoseconds.
    pub window_ns: u64,
    /// Capacity of the `/events` ring.
    pub event_capacity: usize,
    /// Histogram names to expose windowed quantiles for.
    pub windowed: Vec<String>,
    /// Objectives to track.
    pub slos: Vec<SloSpec>,
}

impl Default for ObsHubConfig {
    fn default() -> Self {
        Self {
            window_ns: DEFAULT_WINDOW_NS,
            event_capacity: 1024,
            windowed: default_windowed(),
            slos: Vec::new(),
        }
    }
}

/// The hot-phase histograms every ECCheck deployment cares about:
/// end-to-end save, the encode phase, the pipelined save wall time, the
/// restore path, and the raw erasure kernel.
pub fn default_windowed() -> Vec<String> {
    [
        "ecc.save.ns",
        "ecc.save.encode_ns",
        "ecc.save.pipeline_ns",
        "ecc.load.ns",
        "erasure.encode.ns",
    ]
    .into_iter()
    .map(String::from)
    .collect()
}

struct HubState {
    windows: BTreeMap<String, SlidingWindow>,
    slo: SloTracker,
    ring: EventRing,
    /// Health transitions by destination state, indexed by
    /// `NodeHealth::gauge()` (dead, suspect, alive).
    transitions_to: [u64; 3],
    /// Cursor into the registry's transition log (see
    /// [`HealthRegistry::transitions_since`]).
    health_cursor: u64,
    scrapes: u64,
}

impl HubState {
    fn note_transition(&mut self, t: &HealthTransition) {
        self.transitions_to[t.to.gauge() as usize] += 1;
        let detail = format!("node {} {} -> {}", t.node, t.from.as_str(), t.to.as_str());
        self.ring.push(ObsEvent {
            at_ns: t.at_ns,
            severity: classify("health.transition", &detail),
            name: "health.transition".into(),
            detail,
        });
    }
}

/// Read-only observability surface over one [`Recorder`].
pub struct ObsHub {
    recorder: Recorder,
    health: Option<HealthRegistry>,
    config: ObsHubConfig,
    ready: AtomicBool,
    state: Mutex<HubState>,
}

impl ObsHub {
    /// A hub over `recorder` with `config`.
    pub fn new(recorder: Recorder, config: ObsHubConfig) -> Self {
        let windows = config
            .windowed
            .iter()
            .map(|name| (name.clone(), SlidingWindow::new(config.window_ns)))
            .collect();
        let slo = SloTracker::new(config.slos.clone(), config.window_ns);
        let ring = EventRing::new(config.event_capacity);
        Self {
            recorder,
            health: None,
            config,
            ready: AtomicBool::new(false),
            state: Mutex::new(HubState {
                windows,
                slo,
                ring,
                transitions_to: [0; 3],
                health_cursor: 0,
                scrapes: 0,
            }),
        }
    }

    /// Attaches a health registry. The hub sweeps it on every refresh
    /// using the recorder's clock and surfaces transitions as `/events`
    /// entries and `/metrics` counters — it does **not** call
    /// [`HealthRegistry::set_recorder`], keeping the recorder untouched.
    pub fn with_health(mut self, health: HealthRegistry) -> Self {
        self.health = Some(health);
        self
    }

    /// The underlying recorder (cloning shares the sink).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The attached health registry, if any.
    pub fn health(&self) -> Option<&HealthRegistry> {
        self.health.as_ref()
    }

    /// Marks the hub ready (`/ready` flips to 200). The server does
    /// this once it is listening.
    pub fn set_ready(&self, ready: bool) {
        self.ready.store(ready, Ordering::SeqCst);
    }

    /// Current readiness.
    pub fn is_ready(&self) -> bool {
        self.ready.load(Ordering::SeqCst)
    }

    /// Takes one snapshot and folds it into every derived view: drains
    /// new events into the ring, sweeps health, advances the sliding
    /// windows and the SLO tracker. Returns the snapshot so renderers
    /// see exactly the state they folded in.
    pub fn refresh(&self) -> Snapshot {
        let now = self.recorder.now_ns();
        let snapshot = self.recorder.snapshot();
        let mut st = self.state.lock().expect("obs hub state poisoned");
        st.ring.drain_from(&snapshot.events);
        if let Some(health) = &self.health {
            // The sweep's transitions land in the registry log; drain
            // that instead so `mark_dead` and heartbeat revivals done
            // between refreshes are counted too.
            health.sweep(now);
            let (transitions, cursor) = health.transitions_since(st.health_cursor);
            st.health_cursor = cursor;
            for t in transitions {
                st.note_transition(&t);
            }
        }
        for (name, window) in st.windows.iter_mut() {
            if let Some(hist) = snapshot.histogram(name) {
                window.observe(now, hist.clone());
            }
        }
        st.slo.observe(now, &snapshot);
        snapshot
    }

    /// Renders the full `/metrics` document (text exposition 0.0.4).
    pub fn render_metrics(&self) -> String {
        let snapshot = self.refresh();
        let mut st = self.state.lock().expect("obs hub state poisoned");
        st.scrapes += 1;
        let mut b = ExpositionBuilder::new();

        // 1. Every recorder counter, exact.
        for (name, value) in &snapshot.counters {
            let fam = format!("{}_total", sanitize_metric_name(name));
            b.family(&fam, "counter", &format!("Recorder counter {name}."));
            b.sample(&fam, &[], MetricValue::Int(*value));
        }

        // 2. Every recorder histogram as cumulative le-buckets, exact.
        for (name, hist) in &snapshot.histograms {
            let fam = sanitize_metric_name(name);
            b.family(
                &fam,
                "histogram",
                &format!("Recorder histogram {name} (power-of-two buckets)."),
            );
            let mut buckets = hist.buckets.clone();
            buckets.sort_unstable_by_key(|&(i, _)| i);
            let mut cumulative = 0u64;
            for (index, count) in buckets {
                cumulative += count;
                let le = ecc_telemetry::HistogramSnapshot::bucket_upper_bound(index).to_string();
                b.sample(&format!("{fam}_bucket"), &[("le", &le)], MetricValue::Int(cumulative));
            }
            b.sample(&format!("{fam}_bucket"), &[("le", "+Inf")], MetricValue::Int(hist.count));
            b.sample(&format!("{fam}_sum"), &[], MetricValue::Int(hist.sum));
            b.sample(&format!("{fam}_count"), &[], MetricValue::Int(hist.count));
        }

        // 3. Windowed quantiles for the configured hot-phase histograms.
        for (name, window) in &st.windows {
            let delta = window.delta();
            let fam = format!("{}_window", sanitize_metric_name(name));
            b.family(
                &fam,
                "gauge",
                &format!("Sliding-window view of {name} over the last {} ns.", window.window_ns()),
            );
            for (q, label) in QUANTILES {
                if let Some(v) = delta.quantile(q) {
                    b.sample(&fam, &[("quantile", label)], MetricValue::Float(v));
                }
            }
            if let Some(mean) = delta.mean() {
                b.sample(&fam, &[("stat", "mean")], MetricValue::Float(mean));
            }
            b.sample(&fam, &[("stat", "count")], MetricValue::Int(delta.count));
            b.sample(&fam, &[("stat", "sum")], MetricValue::Int(delta.sum));
        }

        // 4. Per-node health.
        if let Some(health) = &self.health {
            b.family(
                "ecc_node_health",
                "gauge",
                "Node liveness: 2 = alive, 1 = suspect, 0 = dead.",
            );
            for node in 0..health.nodes() {
                let label = node.to_string();
                b.sample(
                    "ecc_node_health",
                    &[("node", &label)],
                    MetricValue::Int(health.state(node).gauge()),
                );
            }
            b.family(
                "ecc_node_last_heartbeat_ns",
                "gauge",
                "Clock reading of each node's most recent heartbeat.",
            );
            for node in 0..health.nodes() {
                let label = node.to_string();
                b.sample(
                    "ecc_node_last_heartbeat_ns",
                    &[("node", &label)],
                    MetricValue::Int(health.last_heartbeat_ns(node)),
                );
            }
            b.family(
                "ecc_health_transitions_total",
                "counter",
                "Health state transitions observed, by destination state.",
            );
            for to in [NodeHealth::Alive, NodeHealth::Suspect, NodeHealth::Dead] {
                b.sample(
                    "ecc_health_transitions_total",
                    &[("to", to.as_str())],
                    MetricValue::Int(st.transitions_to[to.gauge() as usize]),
                );
            }
        }

        // 5. SLO burn rates.
        let statuses = st.slo.statuses();
        if !statuses.is_empty() {
            b.family(
                "ecc_slo_burn_rate",
                "gauge",
                "Error-budget burn rate per objective; > 1 exhausts the budget early.",
            );
            for s in &statuses {
                b.sample(
                    "ecc_slo_burn_rate",
                    &[("slo", &s.name)],
                    MetricValue::Float(s.burn_rate.unwrap_or(f64::NAN)),
                );
            }
            b.family(
                "ecc_slo_compliance",
                "gauge",
                "Compliant fraction per objective in the window.",
            );
            for s in &statuses {
                b.sample(
                    "ecc_slo_compliance",
                    &[("slo", &s.name)],
                    MetricValue::Float(s.compliance.unwrap_or(f64::NAN)),
                );
            }
            b.family("ecc_slo_breached", "gauge", "1 when the objective's burn rate exceeds 1.");
            for s in &statuses {
                b.sample(
                    "ecc_slo_breached",
                    &[("slo", &s.name)],
                    MetricValue::Int(u64::from(s.breached)),
                );
            }
            b.family(
                "ecc_slo_window_units",
                "gauge",
                "Samples (or reference units) per objective in the window.",
            );
            for s in &statuses {
                b.sample(
                    "ecc_slo_window_units",
                    &[("slo", &s.name)],
                    MetricValue::Int(s.window_units),
                );
            }
        }

        // 6. Exporter self-telemetry.
        b.family("ecc_obs_scrapes_total", "counter", "Metrics documents rendered by this hub.");
        b.sample("ecc_obs_scrapes_total", &[], MetricValue::Int(st.scrapes));
        b.family("ecc_obs_events_retained", "gauge", "Events currently held in the /events ring.");
        b.sample("ecc_obs_events_retained", &[], MetricValue::Int(st.ring.len() as u64));
        b.family(
            "ecc_obs_events_evicted_total",
            "counter",
            "Events pushed out of the /events ring.",
        );
        b.sample("ecc_obs_events_evicted_total", &[], MetricValue::Int(st.ring.evicted()));
        b.family(
            "ecc_telemetry_dropped_events_total",
            "counter",
            "Events the recorder discarded because its buffer was full.",
        );
        b.sample(
            "ecc_telemetry_dropped_events_total",
            &[],
            MetricValue::Int(snapshot.dropped_events),
        );
        b.family("ecc_obs_window_ns", "gauge", "Width of the sliding windows in nanoseconds.");
        b.sample("ecc_obs_window_ns", &[], MetricValue::Int(self.config.window_ns));

        b.finish()
    }

    /// Renders the `/health` JSON body. `status` is `"degraded"` when
    /// any node is suspect or dead, else `"ok"`.
    pub fn render_health_json(&self) -> String {
        let mut nodes = String::from("[");
        let mut degraded = false;
        if let Some(health) = &self.health {
            for node in 0..health.nodes() {
                let state = health.state(node);
                degraded |= state != NodeHealth::Alive;
                if node > 0 {
                    nodes.push(',');
                }
                nodes.push_str(&format!(
                    "{{\"node\":{node},\"health\":\"{}\",\"last_heartbeat_ns\":{}}}",
                    state.as_str(),
                    health.last_heartbeat_ns(node)
                ));
            }
        }
        nodes.push(']');
        let scrapes = self.state.lock().expect("obs hub state poisoned").scrapes;
        format!(
            "{{\"status\":{},\"ready\":{},\"nodes\":{nodes},\"scrapes\":{scrapes}}}",
            if degraded { "\"degraded\"" } else { "\"ok\"" },
            self.is_ready()
        )
    }

    /// Renders the `/ready` JSON body.
    pub fn render_ready_json(&self) -> String {
        format!("{{\"ready\":{}}}", self.is_ready())
    }

    /// Renders the `/events` JSON body (refreshing first so the ring
    /// includes everything recorded up to now).
    pub fn render_events_json(&self) -> String {
        self.refresh();
        self.state.lock().expect("obs hub state poisoned").ring.to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expo::parse_exposition;
    use ecc_cluster::HealthConfig;

    fn hub_with_slos() -> (ObsHub, ecc_telemetry::ManualClock) {
        let (rec, clock) = Recorder::with_manual_clock();
        let config = ObsHubConfig {
            slos: vec![SloSpec::latency("save_stall", "saves fast", "ecc.save.ns", 1_000, 0.99)],
            ..ObsHubConfig::default()
        };
        (ObsHub::new(rec, config), clock)
    }

    #[test]
    fn metrics_document_parses_and_carries_every_surface() {
        let (hub, clock) = hub_with_slos();
        let hub = hub.with_health(HealthRegistry::new(
            2,
            HealthConfig { suspect_after_ns: 10, dead_after_ns: 30 },
        ));
        let rec = hub.recorder().clone();
        rec.counter("ecc.save.calls").add(3);
        for _ in 0..10 {
            rec.record("ecc.save.ns", 500);
        }
        rec.event("chaos.fault.crash", "node 1");
        clock.advance_ns(100);

        let text = hub.render_metrics();
        let scrape = parse_exposition(&text).expect("valid exposition");
        assert_eq!(scrape.value("ecc_save_calls_total"), Some(&MetricValue::Int(3)));
        assert_eq!(scrape.value("ecc_save_ns_count"), Some(&MetricValue::Int(10)));
        assert!(scrape.labeled("ecc_save_ns_window", &[("quantile", "0.99")]).is_some());
        assert!(scrape.labeled("ecc_slo_burn_rate", &[("slo", "save_stall")]).is_some());
        assert_eq!(
            scrape.labeled("ecc_slo_breached", &[("slo", "save_stall")]).unwrap().value,
            MetricValue::Int(0)
        );
        // Both nodes are past the dead window at t=100 (heartbeats at 0).
        assert_eq!(
            scrape.labeled("ecc_node_health", &[("node", "1")]).unwrap().value,
            MetricValue::Int(0)
        );
        assert_eq!(
            scrape.labeled("ecc_health_transitions_total", &[("to", "dead")]).unwrap().value,
            MetricValue::Int(2)
        );
        assert_eq!(scrape.value("ecc_obs_scrapes_total"), Some(&MetricValue::Int(1)));
    }

    #[test]
    fn rendering_does_not_perturb_the_recorder() {
        let (hub, clock) = hub_with_slos();
        let rec = hub.recorder().clone();
        rec.record("ecc.save.ns", 123);
        rec.event("ecc.save", "version=1");
        clock.advance_ns(50);
        let before = rec.snapshot().to_json();
        for _ in 0..3 {
            hub.render_metrics();
            hub.render_events_json();
            hub.render_health_json();
        }
        assert_eq!(rec.snapshot().to_json(), before, "obs rendering must be read-only");
    }

    #[test]
    fn manual_clock_scrapes_are_byte_identical_across_hubs() {
        let render = || {
            let (hub, clock) = hub_with_slos();
            let rec = hub.recorder().clone();
            for i in 0..20 {
                rec.record("ecc.save.ns", 100 + i);
                rec.counter("ecc.save.calls").incr();
            }
            rec.event("ecc.load.corrupt", "node 2 chunk 0");
            clock.set_ns(1_000);
            hub.render_metrics()
        };
        assert_eq!(render(), render());
    }

    #[test]
    fn events_endpoint_classifies_and_drains() {
        let (hub, _clock) = hub_with_slos();
        hub.recorder().event("chaos.fault.corrupt_put", "node 0");
        hub.recorder().event("ecc.save", "version=1");
        let json = hub.render_events_json();
        assert!(json.contains("\"severity\":\"error\""));
        assert!(json.contains("\"severity\":\"info\""));
        // Draining twice must not duplicate.
        let again = hub.render_events_json();
        assert_eq!(json, again);
    }

    #[test]
    fn health_json_reports_degraded_on_dead_nodes() {
        let (hub, clock) = hub_with_slos();
        let hub = hub.with_health(HealthRegistry::new(
            1,
            HealthConfig { suspect_after_ns: 10, dead_after_ns: 30 },
        ));
        assert!(hub.render_health_json().contains("\"status\":\"ok\""));
        clock.advance_ns(100);
        hub.refresh();
        let json = hub.render_health_json();
        assert!(json.contains("\"status\":\"degraded\""), "{json}");
        assert!(json.contains("\"health\":\"dead\""), "{json}");
    }
}
