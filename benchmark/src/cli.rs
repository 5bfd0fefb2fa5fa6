//! Command line: one workload per process (what the driver runs), every
//! workload in child processes (what a person runs), and `compare`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use crate::metrics::{self, WORKLOADS};
use crate::report::{self, RunRecord};
use crate::run::{run, RunArgs};

const USAGE: &str =
    "usage: eccbench [--workload <name>|all] [--seed <n>] [--seconds <n>] [--trace <0|1>]
                [--quick] [--runs <n>] [--out <file>] [--trace-out <file>]
       eccbench compare <before.json> <after.json>
       eccbench manifest    (prints BENCHMARK.json from the metric tables)";

#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// A workload's name, or `all`.
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub quick: bool,
    /// With `all`: same-seed repetitions of every workload.
    pub runs: usize,
    pub out: Option<PathBuf>,
    pub trace_out: Option<PathBuf>,
}

pub fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: "all".into(),
        seed: 1,
        seconds: metrics::RUN_SECONDS,
        trace: false,
        quick: false,
        runs: 1,
        out: None,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            opts.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = number()?,
            "--seconds" => opts.seconds = number()?.clamp(1, 60),
            "--trace" => opts.trace = number()? != 0,
            "--runs" => opts.runs = number()?.max(1) as usize,
            "--out" => opts.out = Some(PathBuf::from(value)),
            "--trace-out" => opts.trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if opts.workload != "all" && metrics::workload(&opts.workload).is_none() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("unknown workload {}; one of {names:?} or all", opts.workload));
    }
    Ok(opts)
}

pub fn main(args: Vec<String>) -> ExitCode {
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare_files(&args[1..]),
        Some("manifest") => {
            print!("{}", metrics::manifest_json());
            Ok(true)
        }
        Some("-h" | "--help") => {
            println!("{USAGE}");
            Ok(true)
        }
        _ => parse(&args).and_then(|opts| {
            if opts.workload == "all" {
                run_all(&opts)
            } else {
                run_one(&opts)
            }
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("eccbench: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// One workload in this process; the result object is the last line.
fn run_one(opts: &Options) -> Result<bool, String> {
    let result = run(&RunArgs {
        workload: metrics::workload(&opts.workload).expect("checked by parse"),
        seed: opts.seed,
        seconds: opts.seconds,
        trace: opts.trace,
        quick: opts.quick,
        trace_out: opts.trace_out.clone(),
    });
    print!("{}", report::table(&result));
    if let Some(path) = &opts.out {
        write_results(path, std::slice::from_ref(&result.record))?;
    }
    println!("{}", report::result_line(&result.record));
    Ok(result.record.correct)
}

fn write_results(path: &Path, records: &[RunRecord]) -> Result<(), String> {
    std::fs::write(path, report::results_file(records))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Every workload, each run in a process of its own so `peak_rss_mib`
/// is that workload's alone. Fails when a run fails or when a count
/// differs between two runs of the same seed.
fn run_all(opts: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut records = Vec::new();
    let mut ok = true;
    for workload in &WORKLOADS {
        for _ in 0..opts.runs {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", workload.name])
                .args(["--seed", &opts.seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string()])
                .args(["--trace", if opts.trace { "1" } else { "0" }]);
            if opts.quick {
                child.arg("--quick");
            }
            if let Some(path) = &opts.trace_out {
                // One trace per workload, named after it.
                let file = path.file_name().unwrap_or_default().to_string_lossy();
                child
                    .arg("--trace-out")
                    .arg(path.with_file_name(format!("{}.{file}", workload.name)));
            }
            let output = child.output().map_err(|e| format!("spawning {}: {e}", workload.name))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            ok &= output.status.success();
            let last = stdout
                .lines()
                .last()
                .ok_or_else(|| format!("{} printed nothing", workload.name))?;
            records.push(report::parse_result_line(last, workload.name, opts.seed, opts.trace)?);
        }
    }
    for (workload, metric, values) in unequal_counts(&records) {
        eprintln!("eccbench: {metric} on {workload} differs between same-seed runs: {values:?}");
        ok = false;
    }
    if let Some(path) = &opts.out {
        write_results(path, &records)?;
    }
    Ok(ok)
}

/// Metrics that must repeat exactly between runs of one seed: counts,
/// byte totals and the two closed-form ratios.
fn is_exact(name: &str, unit: &str) -> bool {
    matches!(unit, "count" | "bytes")
        || matches!(name, "save_traffic_ratio" | "stored_bytes_per_state_byte")
}

/// `(workload, metric, values)` for every exact metric whose values
/// differ between records of the same workload, seed and mode.
pub fn unequal_counts(records: &[RunRecord]) -> Vec<(String, String, Vec<f64>)> {
    let mut seen: std::collections::BTreeMap<(String, u64, bool, String), Vec<f64>> =
        Default::default();
    for record in records {
        for (name, value, unit) in &record.metrics {
            if is_exact(name, unit) {
                let key = (record.workload.clone(), record.seed, record.trace, name.clone());
                seen.entry(key).or_default().push(*value);
            }
        }
    }
    seen.into_iter()
        .filter(|(_, values)| values.iter().any(|v| v != &values[0]))
        .map(|((workload, _, _, metric), values)| (workload, metric, values))
        .collect()
}

fn compare_files(paths: &[String]) -> Result<bool, String> {
    let [before, after] = paths else {
        return Err("compare takes two results files".into());
    };
    let read = |path: &String| {
        let document = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        report::parse_results(&document).map_err(|e| format!("{path}: {e}"))
    };
    let rows = crate::compare::compare(&read(before)?, &read(after)?);
    print!("{}", crate::compare::render(&rows));
    Ok(!rows.iter().any(|row| row.verdict == crate::compare::Verdict::Regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seed: u64, calls: f64, ms: f64) -> RunRecord {
        RunRecord {
            workload: "mem_small".into(),
            seed,
            trace: true,
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![
                ("core.save.put_calls".into(), calls, "count".into()),
                ("core.save.self_ms".into(), ms, "ms".into()),
            ],
        }
    }

    #[test]
    fn counts_must_repeat_between_same_seed_runs_and_timings_need_not() {
        assert!(unequal_counts(&[record(1, 80.0, 9.1), record(1, 80.0, 9.7)]).is_empty());
        let differing = unequal_counts(&[record(1, 80.0, 9.1), record(1, 81.0, 9.1)]);
        assert_eq!(differing.len(), 1);
        assert_eq!(differing[0].1, "core.save.put_calls");
        // Another seed is another input: nothing to compare.
        assert!(unequal_counts(&[record(1, 80.0, 9.1), record(2, 81.0, 9.1)]).is_empty());
    }

    #[test]
    fn flags_parse_as_the_driver_passes_them() {
        let args: Vec<String> = "--workload tcp_large --seed 9 --seconds 25 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let opts = parse(&args).expect("driver flags parse");
        assert_eq!(
            (opts.workload.as_str(), opts.seed, opts.seconds, opts.trace),
            ("tcp_large", 9, 25, true)
        );
        assert!(parse(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse(&["--seed".into()]).is_err());
    }
}
