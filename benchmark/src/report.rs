//! Printing results and reading them back: the contract's one-line
//! result object, and the results file `compare` takes.

use std::fmt::Write as _;

use ecc_trace::json::{self, Json};

use crate::run::RunResult;

/// JSON number for `value`, with all its digits; non-finite values
/// (a rate over zero time) read as 0.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

fn metrics_object(record: &RunRecord) -> String {
    let body: Vec<String> = record
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", number(*value))
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// One run's outcome: the contract's result object plus which workload,
/// seed and mode produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in `BENCHMARK.json` order.
    pub metrics: Vec<(String, f64, String)>,
}

/// The last line of a run's standard output: exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(record: &RunRecord) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        record.correct,
        record.attempted,
        record.failed,
        metrics_object(record)
    )
}

/// The table a person reads: context notes, then every metric by name,
/// value and unit.
pub fn table(result: &RunResult) -> String {
    let mut out = String::new();
    for note in &result.notes {
        let _ = writeln!(out, "# {note}");
    }
    for (name, value, unit) in &result.record.metrics {
        let _ = writeln!(out, "{name:<42} {value:>16.6} {unit}");
    }
    let _ =
        writeln!(out, "op_fail_frac: {} of {} ops", result.record.failed, result.record.attempted);
    out
}

/// A results file: every run's record, for `compare`.
pub fn results_file(records: &[RunRecord]) -> String {
    let entries: Vec<String> = records
        .iter()
        .map(|r| {
            let line = result_line(r);
            format!(
                "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, {}",
                r.workload,
                r.seed,
                r.trace,
                &line[1..]
            )
        })
        .collect();
    format!("{{\"schema\": \"eccbench-1\", \"runs\": [\n  {}\n]}}\n", entries.join(",\n  "))
}

/// Reads a result object (a run's last line, or a results-file entry);
/// `workload`, `seed` and `trace` come from the entry when it has them.
fn parse_record(run: &Json, workload: &str, seed: u64, trace: bool) -> Result<RunRecord, String> {
    let field = |key: &str| run.get(key).ok_or_else(|| format!("run lacks \"{key}\""));
    let count = |key: &str| {
        Ok::<u64, String>(field(key)?.as_f64().ok_or(format!("\"{key}\" is not a number"))? as u64)
    };
    let Json::Obj(metrics) = field("metrics")? else {
        return Err("\"metrics\" is not an object".into());
    };
    let metrics = metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64);
            let unit = m.get("unit").and_then(Json::as_str);
            match (value, unit) {
                (Some(value), Some(unit)) => Ok((name.clone(), value, unit.to_string())),
                _ => Err(format!("metric \"{name}\" lacks a value or a unit")),
            }
        })
        .collect::<Result<_, String>>()?;
    Ok(RunRecord {
        workload: run.get("workload").and_then(Json::as_str).unwrap_or(workload).to_string(),
        seed: run.get("seed").and_then(Json::as_f64).map_or(seed, |s| s as u64),
        trace: run.get("trace").map_or(trace, |t| t == &Json::Bool(true)),
        correct: field("correct")? == &Json::Bool(true),
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
    })
}

/// Reads the last line a run printed, produced by `workload`, `seed`
/// and `trace`.
pub fn parse_result_line(
    line: &str,
    workload: &str,
    seed: u64,
    trace: bool,
) -> Result<RunRecord, String> {
    parse_record(&json::parse(line)?, workload, seed, trace)
}

/// Reads a results file written by `--out`.
pub fn parse_results(document: &str) -> Result<Vec<RunRecord>, String> {
    let root = json::parse(document)?;
    let runs =
        root.get("runs").and_then(Json::as_arr).ok_or("results file lacks a \"runs\" array")?;
    runs.iter().map(|run| parse_record(run, "", 0, false)).collect()
}
