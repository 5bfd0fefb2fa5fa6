//! Point-in-time views of a recorder's state.
//!
//! A [`Snapshot`] is a plain value: counters and histogram summaries in
//! `BTreeMap`s (so iteration order — and therefore serialized output —
//! is deterministic) plus the buffered event log. It serializes to JSON
//! with a hand-rolled writer that emits only integers and strings, so
//! two identical runs produce byte-identical documents.

use std::collections::BTreeMap;

/// Summary statistics for one latency/size histogram.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Sparse `(bucket_index, count)` pairs; bucket `i` holds values
    /// whose highest set bit is `i` (i.e. `[2^i, 2^(i+1))`, with bucket
    /// 0 holding 0 and 1).
    pub buckets: Vec<(u8, u64)>,
}

impl HistogramSnapshot {
    /// Number of buckets a histogram can populate (`u64` has 64 bit
    /// positions, and bucket index = highest set bit of the sample).
    pub const BUCKET_COUNT: usize = 64;

    /// Arithmetic mean of the recorded values, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The explicit inclusive value range `[lo, hi]` covered by bucket
    /// `index`. Bucket 0 holds `{0, 1}`; bucket `i >= 1` holds
    /// `[2^i, 2^(i+1) - 1]`; the final bucket saturates at `u64::MAX`.
    /// Exporters that re-render the power-of-two layout (e.g. the
    /// Prometheus text exposition) must read the bounds from here
    /// rather than re-deriving them.
    ///
    /// # Panics
    ///
    /// Panics when `index >= Self::BUCKET_COUNT`.
    pub fn bucket_bounds(index: u8) -> (u64, u64) {
        assert!(
            (index as usize) < Self::BUCKET_COUNT,
            "bucket index {index} out of range 0..{}",
            Self::BUCKET_COUNT
        );
        match index {
            0 => (0, 1),
            63 => (1 << 63, u64::MAX),
            i => (1 << i, (1 << (i + 1)) - 1),
        }
    }

    /// The inclusive upper bound of bucket `index` — the `le` boundary
    /// a cumulative exposition format needs.
    ///
    /// # Panics
    ///
    /// Panics when `index >= Self::BUCKET_COUNT`.
    pub fn bucket_upper_bound(index: u8) -> u64 {
        Self::bucket_bounds(index).1
    }

    /// Number of recorded samples `<= bound`, derived from the bucket
    /// layout: buckets entirely at or below `bound` count fully; the
    /// bucket straddling `bound` contributes a linear interpolation of
    /// its population. Exact when `bound` is a bucket upper bound.
    pub fn count_le(&self, bound: u64) -> f64 {
        let mut total = 0.0;
        for &(index, n) in &self.buckets {
            let (lo, hi) = Self::bucket_bounds(index);
            if hi <= bound {
                total += n as f64;
            } else if lo <= bound {
                let width = (hi - lo + 1) as f64;
                total += n as f64 * ((bound - lo + 1) as f64 / width);
            }
        }
        total
    }
}

/// One entry from the structured event log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Clock reading when the event was recorded, in nanoseconds.
    pub at_ns: u64,
    /// Event name, dotted-path style (e.g. `ecc.save.phase`).
    pub name: String,
    /// Free-form detail string.
    pub detail: String,
}

/// A deterministic point-in-time view of all recorded telemetry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Buffered events, oldest first.
    pub events: Vec<Event>,
    /// Events discarded because the buffer was full.
    pub dropped_events: u64,
}

impl Snapshot {
    /// The value of a counter, or 0 when it was never touched.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The summary for a histogram, if it recorded anything.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Rate in units/second derived from a counter (units) and a
    /// histogram of elapsed nanoseconds. `None` when either side is
    /// missing or the elapsed time is zero.
    pub fn rate_per_sec(&self, units_counter: &str, elapsed_ns_histogram: &str) -> Option<f64> {
        let units = self.counters.get(units_counter).copied()?;
        let elapsed = self.histograms.get(elapsed_ns_histogram)?.sum;
        if elapsed == 0 {
            return None;
        }
        Some(units as f64 * 1e9 / elapsed as f64)
    }

    /// Serializes the snapshot to a deterministic JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, name);
            out.push(':');
            out.push_str(&value.to_string());
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, hist)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, name);
            out.push_str(&format!(
                ":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
                hist.count, hist.sum, hist.min, hist.max
            ));
            for (j, (bucket, count)) in hist.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{bucket},{count}]"));
            }
            out.push_str("]}");
        }
        out.push_str("},\"events\":[");
        for (i, event) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"at_ns\":{},\"name\":", event.at_ns));
            push_json_string(&mut out, &event.name);
            out.push_str(",\"detail\":");
            push_json_string(&mut out, &event.detail);
            out.push('}');
        }
        out.push_str(&format!("],\"dropped_events\":{}}}", self.dropped_events));
        out
    }

    /// Renders a human-readable report, one metric per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== telemetry report ==\n");
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, value) in &self.counters {
                out.push_str(&format!("  {name:<40} {value}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("timers/histograms:\n");
            for (name, hist) in &self.histograms {
                out.push_str(&format!(
                    "  {name:<40} n={} mean={} min={} max={}\n",
                    hist.count,
                    fmt_ns(hist.mean()),
                    fmt_ns(hist.min as f64),
                    fmt_ns(hist.max as f64),
                ));
            }
        }
        if self.dropped_events > 0 {
            out.push_str(&format!("events dropped: {}\n", self.dropped_events));
        }
        out
    }
}

/// Formats a nanosecond quantity with an adaptive unit.
pub fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// Formats a bytes/second rate with an adaptive binary unit.
pub fn fmt_rate(bytes_per_sec: f64) -> String {
    const UNITS: [&str; 5] = ["B/s", "KiB/s", "MiB/s", "GiB/s", "TiB/s"];
    let mut value = bytes_per_sec;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    format!("{value:.2} {}", UNITS[unit])
}

/// Appends `s` to `out` as a JSON string literal: quoted, with `"`,
/// `\` and every control character escaped. The trace exporter, the
/// observability feeds and the chaos reports write their strings
/// through it too.
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_deterministic_and_ordered() {
        let mut snap = Snapshot::default();
        snap.counters.insert("b.second".into(), 2);
        snap.counters.insert("a.first".into(), 1);
        snap.histograms.insert(
            "lat".into(),
            HistogramSnapshot {
                count: 2,
                sum: 30,
                min: 10,
                max: 20,
                buckets: vec![(3, 1), (4, 1)],
            },
        );
        snap.events.push(Event { at_ns: 5, name: "e".into(), detail: "d\"x\"".into() });
        let a = snap.to_json();
        let b = snap.clone().to_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"counters\":{\"a.first\":1,\"b.second\":2}"));
        assert!(a.contains("\\\"x\\\""));
    }

    #[test]
    fn rate_divides_units_by_elapsed() {
        let mut snap = Snapshot::default();
        snap.counters.insert("bytes".into(), 1_000);
        snap.histograms.insert(
            "ns".into(),
            HistogramSnapshot { count: 1, sum: 500_000_000, min: 0, max: 0, buckets: vec![] },
        );
        let rate = snap.rate_per_sec("bytes", "ns").expect("rate");
        assert!((rate - 2_000.0).abs() < 1e-9);
        assert_eq!(snap.rate_per_sec("bytes", "missing"), None);
    }

    #[test]
    fn formatting_picks_units() {
        assert_eq!(fmt_ns(2.5e9), "2.500s");
        assert_eq!(fmt_ns(2.5e6), "2.500ms");
        assert_eq!(fmt_ns(2.5e3), "2.500us");
        assert_eq!(fmt_ns(250.0), "250ns");
        assert_eq!(fmt_rate(2048.0), "2.00 KiB/s");
    }

    #[test]
    fn fmt_ns_unit_boundaries_are_inclusive_upward() {
        // Exactly 1e3/1e6/1e9 promote to the larger unit.
        assert_eq!(fmt_ns(1e3), "1.000us");
        assert_eq!(fmt_ns(1e6), "1.000ms");
        assert_eq!(fmt_ns(1e9), "1.000s");
        // Just below each boundary stays in the smaller unit.
        assert_eq!(fmt_ns(999.0), "999ns");
        assert_eq!(fmt_ns(999.999e3), "999.999us");
        // Degenerate inputs render without panicking.
        assert_eq!(fmt_ns(0.0), "0ns");
        assert_eq!(fmt_ns(0.4), "0ns");
    }

    #[test]
    fn fmt_rate_clamps_at_largest_unit() {
        assert_eq!(fmt_rate(0.0), "0.00 B/s");
        assert_eq!(fmt_rate(1023.0), "1023.00 B/s");
        assert_eq!(fmt_rate(1024.0), "1.00 KiB/s");
        assert_eq!(fmt_rate(1024.0 * 1024.0 * 1024.0), "1.00 GiB/s");
        // Beyond TiB/s the unit saturates instead of indexing out of range.
        let huge = 1024f64.powi(5) * 3.0;
        assert_eq!(fmt_rate(huge), "3072.00 TiB/s");
    }

    #[test]
    fn bucket_bounds_match_recording_layout() {
        // The accessor must agree with where `Histogram::record` puts
        // samples: both edges of every bucket land inside the bounds.
        for i in 0..HistogramSnapshot::BUCKET_COUNT as u8 {
            let (lo, hi) = HistogramSnapshot::bucket_bounds(i);
            assert!(lo <= hi, "bucket {i} bounds inverted");
            let expect_index = |v: u64| (64 - v.leading_zeros()).saturating_sub(1) as u8;
            assert_eq!(expect_index(lo.max(1)), i, "lower edge of bucket {i}");
            assert_eq!(expect_index(hi), i, "upper edge of bucket {i}");
            if i > 0 {
                let (_, prev_hi) = HistogramSnapshot::bucket_bounds(i - 1);
                assert_eq!(prev_hi + 1, lo, "buckets {i} and {} must tile", i - 1);
            }
        }
        assert_eq!(HistogramSnapshot::bucket_bounds(0), (0, 1));
        assert_eq!(HistogramSnapshot::bucket_bounds(63).1, u64::MAX);
        assert_eq!(HistogramSnapshot::bucket_upper_bound(10), 2047);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bucket_bounds_reject_out_of_range() {
        let _ = HistogramSnapshot::bucket_bounds(64);
    }

    #[test]
    fn count_le_interpolates_within_buckets() {
        let hist = HistogramSnapshot {
            count: 4,
            sum: 0,
            min: 0,
            max: 1024,
            buckets: vec![(0, 2), (10, 2)], // {0,1} x2 and [1024,2047] x2
        };
        assert_eq!(hist.count_le(1), 2.0);
        assert_eq!(hist.count_le(2047), 4.0);
        assert_eq!(hist.count_le(1023), 2.0);
        // Halfway through bucket 10 attributes half its population.
        let mid = hist.count_le(1024 + 511);
        assert!(mid > 2.9 && mid < 3.1, "linear interpolation, got {mid}");
        assert_eq!(hist.count_le(u64::MAX), 4.0);
    }

    #[test]
    fn empty_snapshot_serializes_minimally() {
        let snap = Snapshot::default();
        assert_eq!(
            snap.to_json(),
            "{\"counters\":{},\"histograms\":{},\"events\":[],\"dropped_events\":0}"
        );
        assert_eq!(snap.counter("missing"), 0);
        assert!(snap.histogram("missing").is_none());
    }
}
