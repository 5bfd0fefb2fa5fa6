//! Lightweight telemetry for the ECCheck coding pipeline.
//!
//! The crate provides a [`Recorder`]: a cheaply cloneable handle to a
//! shared set of monotonic [`Counter`]s, fixed-bucket (power-of-two)
//! latency [`Histogram`]s, and a bounded structured event log. Scoped
//! [`Timer`]s record elapsed time into a histogram when dropped, using
//! a pluggable [`Clock`] so both wall-clock runs and simulated virtual
//! time produce meaningful (and, for [`ManualClock`], byte-identical)
//! reports. [`Recorder::snapshot`] freezes everything into a
//! deterministic [`Snapshot`] that serializes to JSON or renders as a
//! text report.
//!
//! Design constraints, in order: no dependencies, no `unsafe`, and a
//! hot path that is a single relaxed atomic add once handles have been
//! looked up.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod snapshot;

pub use clock::{Clock, ManualClock, WallClock};
pub use snapshot::{fmt_ns, fmt_rate, push_json_string, Event, HistogramSnapshot, Snapshot};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Maximum number of buffered events before new ones are dropped (the
/// drop count is reported in the snapshot).
const EVENT_CAPACITY: usize = 4096;

const BUCKETS: usize = 64;

/// A monotonic counter handle. Clones share the same cell; updates are
/// a single relaxed atomic add.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A detached counter not registered with any recorder (useful as a
    /// default for optionally-instrumented code).
    pub fn detached() -> Self {
        Self { cell: Arc::new(AtomicU64::new(0)) }
    }

    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1 to the counter.
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistCore {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl HistCore {
    fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        let bucket = (64 - value.leading_zeros()).saturating_sub(1) as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let min = self.min.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { min },
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then_some((i as u8, n))
                })
                .collect(),
        }
    }
}

/// A histogram handle with power-of-two buckets: bucket `i` counts
/// values in `[2^i, 2^(i+1))`, bucket 0 counts 0 and 1. Clones share
/// the same cells.
#[derive(Debug, Clone)]
pub struct Histogram {
    core: Arc<HistCore>,
}

impl Histogram {
    /// A detached histogram not registered with any recorder.
    pub fn detached() -> Self {
        Self { core: Arc::new(HistCore::new()) }
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.core.record(value);
    }

    /// Number of samples recorded so far.
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// Sum of samples recorded so far.
    pub fn sum(&self) -> u64 {
        self.core.sum.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct EventLog {
    events: Vec<Event>,
    dropped: u64,
}

#[derive(Debug)]
struct Inner {
    clock: Arc<dyn Clock>,
    counters: Mutex<BTreeMap<String, Counter>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    events: Mutex<EventLog>,
}

/// The telemetry hub: a cheaply cloneable handle to shared metric
/// state. All clones observe the same counters, histograms and events.
#[derive(Debug, Clone)]
pub struct Recorder {
    inner: Arc<Inner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A recorder on wall-clock time.
    pub fn new() -> Self {
        Self::with_clock(Arc::new(WallClock::new()))
    }

    /// A recorder reading time from the given clock.
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Self {
            inner: Arc::new(Inner {
                clock,
                counters: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                events: Mutex::new(EventLog::default()),
            }),
        }
    }

    /// A recorder plus the [`ManualClock`] that drives it; advance the
    /// clock to move recorded timestamps and timer readings.
    pub fn with_manual_clock() -> (Self, ManualClock) {
        let clock = ManualClock::new();
        (Self::with_clock(Arc::new(clock.clone())), clock)
    }

    /// The current clock reading in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.inner.clock.now_ns()
    }

    /// The clock this recorder stamps timestamps with. Layered tooling
    /// (e.g. the `ecc-trace` span tracer) must read time through this
    /// handle so its timestamps and the recorder's event log share one
    /// epoch and can be cross-referenced sample-for-sample.
    pub fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.inner.clock)
    }

    /// Looks up (registering on first use) the named counter. The
    /// returned handle is cheap to clone and update; cache it outside
    /// hot loops.
    pub fn counter(&self, name: &str) -> Counter {
        let mut counters = self.inner.counters.lock().expect("telemetry counters poisoned");
        counters.entry(name.to_string()).or_insert_with(Counter::detached).clone()
    }

    /// Looks up (registering on first use) the named histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut hists = self.inner.histograms.lock().expect("telemetry histograms poisoned");
        hists.entry(name.to_string()).or_insert_with(Histogram::detached).clone()
    }

    /// Records one sample into the named histogram.
    pub fn record(&self, name: &str, value: u64) {
        self.histogram(name).record(value);
    }

    /// Starts a scoped timer that records elapsed nanoseconds into the
    /// named histogram when dropped (or stopped).
    pub fn timer(&self, name: &str) -> Timer {
        Timer {
            hist: Some(self.histogram(name)),
            clock: Arc::clone(&self.inner.clock),
            start: self.inner.clock.now_ns(),
        }
    }

    /// Times a closure, recording its elapsed nanoseconds into the
    /// named histogram, and returns the closure's value.
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let _timer = self.timer(name);
        f()
    }

    /// Appends a structured event stamped with the current clock
    /// reading. Events beyond the buffer capacity are counted and
    /// dropped.
    pub fn event(&self, name: &str, detail: impl Into<String>) {
        let at_ns = self.inner.clock.now_ns();
        let mut log = self.inner.events.lock().expect("telemetry events poisoned");
        if log.events.len() >= EVENT_CAPACITY {
            log.dropped += 1;
        } else {
            log.events.push(Event { at_ns, name: name.to_string(), detail: detail.into() });
        }
    }

    /// Freezes the current state into a deterministic [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .inner
            .counters
            .lock()
            .expect("telemetry counters poisoned")
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect();
        let histograms = self
            .inner
            .histograms
            .lock()
            .expect("telemetry histograms poisoned")
            .iter()
            .filter_map(|(name, h)| {
                let snap = h.core.snapshot();
                (snap.count > 0).then(|| (name.clone(), snap))
            })
            .collect();
        let log = self.inner.events.lock().expect("telemetry events poisoned");
        Snapshot { counters, histograms, events: log.events.clone(), dropped_events: log.dropped }
    }
}

/// A scoped timer; records elapsed time into its histogram on drop.
#[derive(Debug)]
pub struct Timer {
    hist: Option<Histogram>,
    clock: Arc<dyn Clock>,
    start: u64,
}

impl Timer {
    /// Stops the timer now, recording and returning the elapsed
    /// nanoseconds (instead of waiting for drop).
    pub fn stop(mut self) -> u64 {
        let elapsed = self.clock.now_ns().saturating_sub(self.start);
        if let Some(hist) = self.hist.take() {
            hist.record(elapsed);
        }
        elapsed
    }

    /// Abandons the timer without recording anything.
    pub fn discard(mut self) {
        self.hist = None;
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        if let Some(hist) = self.hist.take() {
            hist.record(self.clock.now_ns().saturating_sub(self.start));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_shared_across_clones() {
        let rec = Recorder::new();
        let a = rec.counter("hits");
        let b = rec.clone().counter("hits");
        a.add(2);
        b.incr();
        assert_eq!(rec.snapshot().counter("hits"), 3);
    }

    #[test]
    fn timer_records_manual_clock_elapsed() {
        let (rec, clock) = Recorder::with_manual_clock();
        {
            let _t = rec.timer("op.ns");
            clock.advance_ns(1_500);
        }
        let timer = rec.timer("op.ns");
        clock.advance_ns(500);
        assert_eq!(timer.stop(), 500);
        let snap = rec.snapshot();
        let hist = snap.histogram("op.ns").expect("histogram");
        assert_eq!(hist.count, 2);
        assert_eq!(hist.sum, 2_000);
        assert_eq!(hist.min, 500);
        assert_eq!(hist.max, 1_500);
    }

    #[test]
    fn discarded_timer_records_nothing() {
        let (rec, clock) = Recorder::with_manual_clock();
        let timer = rec.timer("op.ns");
        clock.advance_ns(100);
        timer.discard();
        assert!(rec.snapshot().histogram("op.ns").is_none());
    }

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let hist = Histogram::detached();
        hist.record(0);
        hist.record(1);
        hist.record(2);
        hist.record(3);
        hist.record(1024);
        let snap = hist.core.snapshot();
        assert_eq!(snap.buckets, vec![(0, 2), (1, 2), (10, 1)]);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, 1024);
    }

    #[test]
    fn events_are_bounded() {
        let (rec, clock) = Recorder::with_manual_clock();
        for i in 0..(EVENT_CAPACITY as u64 + 10) {
            clock.set_ns(i);
            rec.event("tick", i.to_string());
        }
        let snap = rec.snapshot();
        assert_eq!(snap.events.len(), EVENT_CAPACITY);
        assert_eq!(snap.dropped_events, 10);
        assert_eq!(snap.events[0].at_ns, 0);
    }

    #[test]
    fn identical_manual_runs_snapshot_identically() {
        let run = || {
            let (rec, clock) = Recorder::with_manual_clock();
            for round in 0..5u64 {
                let t = rec.timer("save.ns");
                clock.advance_ns(100 + round);
                drop(t);
                rec.counter("save.bytes").add(4096);
                rec.event("save", format!("round {round}"));
            }
            rec.snapshot().to_json()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn recorder_clock_is_the_recording_clock() {
        let (rec, clock) = Recorder::with_manual_clock();
        clock.set_ns(1234);
        assert_eq!(rec.clock().now_ns(), 1234);
        assert_eq!(rec.now_ns(), 1234);
        // Events stamped through either handle agree on the epoch.
        rec.event("tick", "");
        assert_eq!(rec.snapshot().events[0].at_ns, 1234);
    }

    #[test]
    fn histogram_bucket_boundaries_are_exact_powers_of_two() {
        // Bucket i must hold exactly [2^i, 2^(i+1)) for i >= 1, with
        // bucket 0 holding 0 and 1; probe both edges of several buckets.
        for i in 1..=62u8 {
            let hist = Histogram::detached();
            let lo = 1u64 << i;
            hist.record(lo); // lowest value of bucket i
            hist.record(lo - 1); // highest value of bucket i-1
            hist.record((lo << 1) - 1); // highest value of bucket i
            let snap = hist.core.snapshot();
            assert_eq!(snap.buckets, vec![(i - 1, 1), (i, 2)], "boundary at 2^{i}");
        }
        // u64::MAX lands in the final bucket rather than out of range.
        let hist = Histogram::detached();
        hist.record(u64::MAX);
        assert_eq!(hist.core.snapshot().buckets, vec![(63, 1)]);
    }

    #[test]
    fn event_overflow_reports_every_drop() {
        let (rec, clock) = Recorder::with_manual_clock();
        let extra = 1_000u64;
        for i in 0..(EVENT_CAPACITY as u64 + extra) {
            clock.set_ns(i);
            rec.event("tick", "");
        }
        let snap = rec.snapshot();
        assert_eq!(snap.events.len(), EVENT_CAPACITY);
        assert_eq!(snap.dropped_events, extra);
        // The retained events are the oldest ones, still in order.
        assert_eq!(snap.events.last().expect("full buffer").at_ns, EVENT_CAPACITY as u64 - 1);
        // The drop count survives serialization.
        assert!(snap.to_json().ends_with(&format!("\"dropped_events\":{extra}}}")));
    }

    #[test]
    fn time_returns_closure_value() {
        let rec = Recorder::new();
        let out = rec.time("f.ns", || 42);
        assert_eq!(out, 42);
        assert_eq!(rec.snapshot().histogram("f.ns").expect("hist").count, 1);
    }
}
