//! `compare <a.json> <b.json>`: holds the second results file against
//! the first, metric by metric and workload by workload.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::{self, Better, MetricDef};
use crate::report::RunRecord;
use crate::stats::{median, quartiles};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The runs of one side spread wider than the bound, so the bound
    /// cannot tell a change from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub metric: String,
    pub workload: String,
    pub unit: &'static str,
    pub before: f64,
    pub after: f64,
    /// Share of `before` by which `after` is worse; negative when better.
    pub worse_by: f64,
    /// The wider of the two sides' quartile distance over median.
    pub spread: f64,
    pub verdict: Verdict,
}

/// Quartile distance over median; 0 when fewer than two runs.
fn spread(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some((q1, q3)), mid) if mid != 0.0 => (q3 - q1) / mid.abs(),
        _ => 0.0,
    }
}

pub fn judge(def: &MetricDef, before: &[f64], after: &[f64]) -> (f64, f64, Verdict) {
    let bound = def.bound.expect("only bounded metrics are judged");
    let (a, b) = (median(before), median(after));
    let worse_by = match def.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    };
    let spread = spread(before).max(spread(after));
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (worse_by, spread, verdict)
}

type Grouped = BTreeMap<(String, String), Vec<f64>>;

/// Untraced runs' values per `(workload, metric)`.
fn group(records: &[RunRecord]) -> Grouped {
    let mut out = Grouped::new();
    for record in records.iter().filter(|r| !r.trace) {
        for (name, value, _) in &record.metrics {
            out.entry((record.workload.clone(), name.clone())).or_default().push(*value);
        }
    }
    out
}

/// One row per end-to-end metric and workload present in both files.
pub fn compare(before: &[RunRecord], after: &[RunRecord]) -> Vec<Row> {
    let (before, after) = (group(before), group(after));
    let mut rows = Vec::new();
    for workload in &metrics::WORKLOADS {
        for def in metrics::end_to_end() {
            let key = (workload.name.to_string(), def.name.clone());
            let (Some(a), Some(b)) = (before.get(&key), after.get(&key)) else { continue };
            let (worse_by, spread, verdict) = judge(&def, a, b);
            rows.push(Row {
                metric: def.name.clone(),
                workload: workload.name.to_string(),
                unit: def.unit,
                before: median(a),
                after: median(b),
                worse_by,
                spread,
                verdict,
            });
        }
    }
    rows
}

pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<30} {:<12} {:>14} {:>14} {:>9} {:>8}  verdict\n",
        "metric", "workload", "before", "after", "worse_by", "spread"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:<30} {:<12} {:>14.4} {:>14.4} {:>+8.1}% {:>7.1}%  {} ({})",
            row.metric,
            row.workload,
            row.before,
            row.after,
            row.worse_by * 100.0,
            row.spread * 100.0,
            row.verdict.as_str(),
            row.unit,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> MetricDef {
        metrics::end_to_end().into_iter().find(|d| d.name == "save_ms").expect("save_ms exists")
    }

    fn rate() -> MetricDef {
        metrics::end_to_end()
            .into_iter()
            .find(|d| d.name == "cycle_mb_s")
            .expect("cycle_mb_s exists")
    }

    #[test]
    fn verdicts_follow_bound_and_direction() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let scale = |f: f64| steady.map(|v| v * f);
        let bound = timing().bound.expect("bounded");
        let (beyond, within) = (2.0 * bound, bound / 2.0);
        assert_eq!(judge(&timing(), &steady, &scale(1.0 + beyond)).2, Verdict::Regressed);
        assert_eq!(judge(&timing(), &steady, &scale(1.0 - beyond)).2, Verdict::Improved);
        assert_eq!(judge(&timing(), &steady, &scale(1.0 + within)).2, Verdict::Unchanged);
        // A rate improves upwards.
        assert_eq!(judge(&rate(), &steady, &scale(1.0 + beyond)).2, Verdict::Improved);
        assert_eq!(judge(&rate(), &steady, &scale(1.0 - beyond)).2, Verdict::Regressed);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        let (_, spread, verdict) = judge(&timing(), &noisy, &noisy.map(|v| v * 1.5));
        assert!(spread > timing().bound.expect("bounded"));
        assert_eq!(verdict, Verdict::Unresolved);
    }

    #[test]
    fn single_runs_compare_by_the_bound_alone() {
        assert_eq!(judge(&timing(), &[100.0], &[100.0]).2, Verdict::Unchanged);
        assert_eq!(judge(&timing(), &[100.0], &[150.0]).2, Verdict::Regressed);
    }
}
