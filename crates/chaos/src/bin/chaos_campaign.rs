//! Seeded chaos-campaign runner for CI and local debugging.
//!
//! Runs the standard campaign over a seed matrix and exits non-zero on
//! any recovery-contract violation. Optionally writes the fault log
//! and the final telemetry snapshot as JSON artifacts.
//!
//! ```text
//! chaos-campaign [--seeds 0,1,2,3] [--rounds 8] \
//!     [--tiered] [--fault-log faults.json] [--fetch-log fetches.json] \
//!     [--telemetry telemetry.json] \
//!     [--obs 127.0.0.1:9184] [--obs-hold-ms 2000]
//! ```
//!
//! `--tiered` swaps in the tiered-store campaign (mid-drain crashes,
//! tier-1 loss, tier-0 heavy loss, delta torn-update refusal);
//! `--fetch-log` writes each seed's tier-provenance fetch log, the
//! artifact CI checks for both tiers.
//!
//! With `--obs ADDR` the campaign serves the live observability plane
//! (`/metrics`, `/health`, `/ready`, `/events`) while it runs; the
//! engine reports into the exporter's recorder, crashes drive the
//! node-health registry, and `--obs-hold-ms` keeps the exporter up
//! after the last seed so a scraper can grab a final state.

use std::process::ExitCode;
use std::sync::Arc;

use ecc_chaos::{
    campaign_slos, run_campaign, run_campaign_observed, run_tiered_campaign, CampaignConfig,
};
use ecc_cluster::{HealthConfig, HealthRegistry};
use ecc_obs::{ObsHub, ObsHubConfig, ObsServer};
use ecc_telemetry::Recorder;

fn main() -> ExitCode {
    let mut seeds: Vec<u64> = (0..4).collect();
    let mut cfg = CampaignConfig::standard();
    let mut fault_log_path: Option<String> = None;
    let mut fetch_log_path: Option<String> = None;
    let mut telemetry_path: Option<String> = None;
    let mut tiered = false;
    let mut obs_addr: Option<String> = None;
    let mut obs_hold_ms: u64 = 0;

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
            "--fault-log" => fault_log_path = Some(value("--fault-log")),
            "--fetch-log" => fetch_log_path = Some(value("--fetch-log")),
            "--telemetry" => telemetry_path = Some(value("--telemetry")),
            "--tiered" => tiered = true,
            "--obs" => obs_addr = Some(value("--obs")),
            "--obs-hold-ms" => {
                obs_hold_ms = value("--obs-hold-ms").parse().unwrap_or_else(|_| {
                    eprintln!("--obs-hold-ms wants an integer");
                    std::process::exit(2);
                });
            }
            "--help" | "-h" => {
                println!(
                    "usage: chaos-campaign [--seeds 0,1,2] [--rounds N] [--tiered] \
                     [--fault-log FILE] [--fetch-log FILE] [--telemetry FILE] \
                     [--obs HOST:PORT] [--obs-hold-ms N]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument {other:?} (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let server = match &obs_addr {
        Some(addr) => {
            let hub_cfg = ObsHubConfig { slos: campaign_slos(&cfg), ..ObsHubConfig::default() };
            let hub = Arc::new(
                ObsHub::new(Recorder::new(), hub_cfg)
                    .with_health(HealthRegistry::new(cfg.nodes, HealthConfig::default())),
            );
            match ObsServer::serve(hub, addr) {
                Ok(server) => {
                    eprintln!(
                        "obs: serving /metrics /health /ready /events on {}",
                        server.local_addr()
                    );
                    Some(server)
                }
                Err(e) => {
                    eprintln!("obs: failed to bind {addr}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        None => None,
    };

    let mut all_passed = true;
    let mut recovered = 0;
    let mut refused = 0;
    let mut fault_logs = String::from("[\n");
    let mut fetch_logs = String::from("[\n");
    let mut telemetry = String::new();

    for (i, &seed) in seeds.iter().enumerate() {
        let report = if tiered {
            // The tiered legs inject their faults explicitly, so the
            // run is unobserved (no health registry to drive).
            run_tiered_campaign(&cfg, seed)
        } else {
            match &server {
                Some(server) => run_campaign_observed(&cfg, seed, Some(server.hub())),
                None => run_campaign(&cfg, seed),
            }
        };
        recovered += report.recovered();
        refused += report.refused();
        print!("{}", report.summary_json());
        for violation in &report.violations {
            eprintln!("VIOLATION: {violation}");
            all_passed = false;
        }
        if i > 0 {
            fault_logs.push_str(",\n");
            fetch_logs.push_str(",\n");
        }
        fault_logs.push_str(&format!(
            "{{\"seed\": {seed}, \"faults\": {}}}",
            report.fault_log_json().trim_end()
        ));
        fetch_logs.push_str(&format!(
            "{{\"seed\": {seed}, \"fetches\": {}}}",
            report.fetch_log_json().trim_end()
        ));
        telemetry = report.telemetry_json;
    }
    fault_logs.push_str("\n]\n");
    fetch_logs.push_str("\n]\n");

    println!(
        "campaign: {} seeds x {} rounds, {recovered} recovered, {refused} refused",
        seeds.len(),
        cfg.rounds
    );

    if let Some(path) = fault_log_path {
        if let Err(e) = std::fs::write(&path, &fault_logs) {
            eprintln!("failed to write fault log {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if let Some(path) = fetch_log_path {
        if let Err(e) = std::fs::write(&path, &fetch_logs) {
            eprintln!("failed to write fetch log {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if let Some(path) = telemetry_path {
        if let Err(e) = std::fs::write(&path, &telemetry) {
            eprintln!("failed to write telemetry snapshot {path}: {e}");
            return ExitCode::from(2);
        }
    }

    if let Some(server) = server {
        if obs_hold_ms > 0 {
            eprintln!("obs: holding exporter for {obs_hold_ms}ms");
            std::thread::sleep(std::time::Duration::from_millis(obs_hold_ms));
        }
        server.shutdown();
    }

    if all_passed {
        ExitCode::SUCCESS
    } else {
        eprintln!("recovery contract violated — see VIOLATION lines above");
        ExitCode::FAILURE
    }
}
