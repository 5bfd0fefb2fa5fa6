//! Seeded churn-campaign runner producing the migration-traffic
//! verdict.
//!
//! Runs the elastic-membership churn campaign over a seed matrix,
//! checks the migration-traffic gate (chunk migration bytes must stay
//! under the naive full-re-encode bound on every committed rebalance),
//! and writes a single JSON document — `churn_verdict.json` in CI — that
//! records per-round placement epochs, move taxonomy, and the measured
//! traffic next to the bound. Exits non-zero on any contract
//! violation or gate failure.
//!
//! ```text
//! churn-campaign [--seeds 0,1,2,3] [--rounds 6] [--out churn_verdict.json] \
//!     [--rounds-log churn_rounds.json]
//! ```

use std::process::ExitCode;

use ecc_chaos::{run_churn_campaign, ChurnConfig};

fn main() -> ExitCode {
    let mut seeds: Vec<u64> = (0..4).collect();
    let mut cfg = ChurnConfig::standard();
    let mut out_path: Option<String> = None;
    let mut rounds_log_path: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} requires a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--seeds" => {
                seeds = value("--seeds")
                    .split(',')
                    .map(|s| {
                        s.trim().parse().unwrap_or_else(|_| {
                            eprintln!("--seeds wants comma-separated integers, got {s:?}");
                            std::process::exit(2);
                        })
                    })
                    .collect();
            }
            "--rounds" => {
                cfg.rounds = value("--rounds").parse().unwrap_or_else(|_| {
                    eprintln!("--rounds wants an integer");
                    std::process::exit(2);
                });
            }
            "--out" => out_path = Some(value("--out")),
            "--rounds-log" => rounds_log_path = Some(value("--rounds-log")),
            "--help" | "-h" => {
                println!(
                    "usage: churn-campaign [--seeds 0,1,2] [--rounds N] [--out FILE] \
                     [--rounds-log FILE]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument {other:?} (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let mut all_passed = true;
    let mut under_bound = true;
    let mut epochs_monotone = true;
    let mut chunk_total = 0u64;
    let mut bound_total = 0u64;
    let mut copied = 0usize;
    let mut rebuilt = 0usize;
    let mut patched = 0usize;
    let mut seed_blocks = String::new();
    let mut rounds_log = String::from("[\n");

    for (i, &seed) in seeds.iter().enumerate() {
        let report = run_churn_campaign(&cfg, seed);
        print!("{}", report.summary_json());
        for violation in &report.violations {
            eprintln!("VIOLATION: {violation}");
            all_passed = false;
        }
        for round in &report.rounds {
            if round.chunk_bytes > round.bound_bytes {
                under_bound = false;
            }
            if round.epoch != round.round as u64 {
                epochs_monotone = false;
            }
            copied += round.moves_copied;
            rebuilt += round.moves_rebuilt;
            patched += round.parity_patched;
        }
        chunk_total += report.chunk_bytes_total();
        bound_total += report.bound_bytes_total();

        if i > 0 {
            seed_blocks.push_str(",\n");
            rounds_log.push_str(",\n");
        }
        seed_blocks.push_str(&format!(
            "    {{\"seed\": {seed}, \"final_epoch\": {}, \"violations\": {}, \
             \"chunk_bytes\": {}, \"bound_bytes\": {}, \"rounds\": {}}}",
            report.final_epoch,
            report.violations.len(),
            report.chunk_bytes_total(),
            report.bound_bytes_total(),
            indent(report.rounds_json().trim_end(), 4)
        ));
        rounds_log.push_str(&format!(
            "  {{\"seed\": {seed}, \"rounds\": {}}}",
            indent(report.rounds_json().trim_end(), 2)
        ));
    }
    rounds_log.push_str("\n]\n");

    // The migration-traffic gate of the elastic control plane: chunk
    // bytes moved per rebalance must undercut the naive full-re-encode
    // cost (k + m + d chunk transfers per churned version).
    let ratio = if bound_total > 0 { chunk_total as f64 / bound_total as f64 } else { 0.0 };
    let gates_ok = all_passed && under_bound && epochs_monotone;
    let doc = format!(
        "{{\n  \"bench\": \"churn_campaign\",\n  \"config\": {{\"nodes\": {}, \"gpus\": {}, \
         \"k\": {}, \"m\": {}, \"rounds\": {}, \"seeds\": {:?}}},\n  \"seeds\": [\n{}\n  ],\n  \
         \"totals\": {{\"chunk_bytes\": {}, \"bound_bytes\": {}, \"migration_ratio\": {:.4}, \
         \"moves_copied\": {}, \"moves_rebuilt\": {}, \"parity_patched\": {}}},\n  \
         \"gates\": {{\"campaign_passed\": {}, \"migration_under_bound\": {}, \
         \"epochs_monotone\": {}, \"gate_enforced\": true}}\n}}\n",
        cfg.nodes,
        cfg.gpus_per_node,
        cfg.k,
        cfg.m,
        cfg.rounds,
        seeds,
        seed_blocks,
        chunk_total,
        bound_total,
        ratio,
        copied,
        rebuilt,
        patched,
        all_passed,
        under_bound,
        epochs_monotone,
    );

    println!(
        "churn campaign: {} seeds x {} rounds, {copied} copied / {rebuilt} rebuilt \
         ({patched} parity-patched), migration {chunk_total} B vs bound {bound_total} B \
         (ratio {ratio:.3})",
        seeds.len(),
        cfg.rounds
    );

    if let Some(path) = out_path {
        if let Err(e) = std::fs::write(&path, &doc) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if let Some(path) = rounds_log_path {
        if let Err(e) = std::fs::write(&path, &rounds_log) {
            eprintln!("failed to write rounds log {path}: {e}");
            return ExitCode::from(2);
        }
    }

    if gates_ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("churn gates failed — see VIOLATION lines above");
        ExitCode::FAILURE
    }
}

/// Re-indents a multi-line JSON fragment so it nests readably.
fn indent(json: &str, by: usize) -> String {
    let pad = " ".repeat(by);
    json.lines()
        .enumerate()
        .map(|(i, line)| if i == 0 { line.to_string() } else { format!("{pad}{line}") })
        .collect::<Vec<_>>()
        .join("\n")
}
