//! The benchmark's own smoke test: `BENCHMARK.json` agrees with the
//! metric tables and the contract's limits, and a `--quick` run of
//! every workload is correct, complete and repeats its counts.

use ecc_trace::json::{self, Json};
use eccbench::cli::unequal_counts;
use eccbench::metrics::{self, MetricDef, RUN_SECONDS, WORKLOADS};
use eccbench::report::{parse_result_line, result_line, RunRecord};
use eccbench::run::{run, RunArgs};

fn valid_name(name: &str) -> bool {
    let first_ok = name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn names_units_and_counts_meet_the_contract() {
    let (e2e, ledger) = (metrics::end_to_end(), metrics::per_layer());
    assert!((1..=16).contains(&e2e.len()), "{} end-to-end metrics", e2e.len());
    assert!((1..=128).contains(&ledger.len()), "{} ledger metrics", ledger.len());
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=60).contains(&RUN_SECONDS));

    let mut names: Vec<String> = e2e.iter().chain(&ledger).map(|d| d.name.clone()).collect();
    names.extend(WORKLOADS.iter().map(|w| w.name.to_string()));
    for name in &names {
        assert!(valid_name(name), "bad name {name}");
    }
    let count = names.len();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), count, "a name is used twice");

    for def in e2e.iter().chain(&ledger) {
        assert!(valid_unit(def.unit), "bad unit {} of {}", def.unit, def.name);
    }
    for def in &e2e {
        let bound = def.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", def.name);
    }
    let setup = e2e.iter().find(|d| d.name == "setup_s").expect("setup_s is an end-to-end metric");
    assert_eq!((setup.unit, setup.better), ("s", metrics::Better::Lower));
    let widest = e2e.iter().filter_map(|d| d.bound).fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
    assert!(ledger.iter().all(|d| d.bound.is_none()));
    for w in &WORKLOADS {
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "why of {}", w.name);
    }
}

#[test]
fn shards_are_within_a_tenth_of_their_target_size() {
    for spec in &WORKLOADS {
        let states = eccbench::workload::build_states(spec, 1);
        let mean = states.bytes as f64 / spec.world() as f64;
        let off = (mean / spec.target_shard_bytes as f64 - 1.0).abs();
        assert!(
            off <= 0.10,
            "{}: mean shard {mean} vs target {}",
            spec.name,
            spec.target_shard_bytes
        );
        // A different seed changes the bytes, never the shapes.
        let other = eccbench::workload::build_states(spec, 2);
        assert_eq!(other.bytes, states.bytes);
        assert_ne!(other.a, states.a);
        assert_ne!(states.a, states.b);
    }
}

#[test]
fn benchmark_json_is_what_the_tables_say() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert!(on_disk.len() <= 64 << 10);
    let on_disk = json::parse(&on_disk).expect("BENCHMARK.json parses");
    let generated = json::parse(&metrics::manifest_json()).expect("generated manifest parses");
    assert_eq!(on_disk, generated, "regenerate with `eccbench manifest > BENCHMARK.json`");

    let Json::Obj(keys) = &on_disk else { panic!("BENCHMARK.json is not an object") };
    let keys: Vec<&str> = keys.keys().map(String::as_str).collect();
    assert_eq!(keys, ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]);
}

fn quick(workload: &'static metrics::WorkloadSpec, trace: bool, seed: u64) -> RunRecord {
    let trace_out = trace.then(|| {
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("{}.{seed}.trace.json", workload.name))
    });
    let args =
        RunArgs { workload, seed, seconds: 1, trace, quick: true, trace_out: trace_out.clone() };
    let result = run(&args);
    if let Some(path) = trace_out {
        let document = std::fs::read_to_string(&path).expect("traced run wrote its Chrome trace");
        let stats = ecc_trace::validate_chrome_trace(&document).expect("Chrome trace validates");
        assert!(stats.spans > 0 && stats.tracks >= 1);
    }
    result.record
}

fn assert_reports(record: &RunRecord, defs: &[MetricDef]) {
    assert!(
        record.correct,
        "{} incorrect: {} of {} ops failed",
        record.workload, record.failed, record.attempted
    );
    assert!(record.attempted >= 1 && record.failed == 0);
    let reported: Vec<(&str, &str)> =
        record.metrics.iter().map(|(n, _, u)| (n.as_str(), u.as_str())).collect();
    let expected: Vec<(&str, &str)> = defs.iter().map(|d| (d.name.as_str(), d.unit)).collect();
    assert_eq!(reported, expected, "{} reports every metric, by name and unit", record.workload);
    assert!(record.metrics.iter().all(|(_, v, _)| v.is_finite()));
}

/// One test per workload so they run side by side.
fn quick_workload_is_correct_and_repeatable(name: &str) {
    let workload = metrics::workload(name).expect("known workload");
    let untraced = quick(workload, false, 7);
    assert_reports(&untraced, &metrics::end_to_end());
    for (name, value, _) in &untraced.metrics {
        assert!(*value > 0.0, "end-to-end metric {name} is never 0");
    }
    let traffic =
        untraced.metrics.iter().find(|(n, ..)| n == "save_traffic_ratio").expect("reported");
    assert!(traffic.1 <= 1.0, "save traffic stays within m·s·W");

    // The result line survives the trip the driver sends it on.
    let line = result_line(&untraced);
    assert_eq!(parse_result_line(&line, name, 7, false).expect("result line parses"), {
        let mut sorted = untraced.clone();
        sorted.metrics.sort_by(|a, b| a.0.cmp(&b.0));
        sorted
    });

    let first = quick(workload, true, 7);
    let second = quick(workload, true, 7);
    assert_reports(&first, &metrics::per_layer());
    let differing = unequal_counts(&[first, second]);
    assert!(differing.is_empty(), "counts differ between same-seed runs: {differing:?}");
}

#[test]
fn mem_small_quick() {
    quick_workload_is_correct_and_repeatable("mem_small");
}

#[test]
fn mem_large_quick() {
    quick_workload_is_correct_and_repeatable("mem_large");
}

#[test]
fn tcp_large_quick() {
    quick_workload_is_correct_and_repeatable("tcp_large");
}

#[test]
fn tiered_wide_quick() {
    quick_workload_is_correct_and_repeatable("tiered_wide");
}
