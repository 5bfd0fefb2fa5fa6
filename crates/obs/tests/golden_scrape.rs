//! Golden-scrape regression tests: a fixed workload on a [`ManualClock`]
//! recorder must render the exact same `/metrics` document on every
//! run, and the text-exposition parser must validate its UTF-8, label
//! escaping, and HELP/TYPE ordering.

use ecc_cluster::{HealthConfig, HealthRegistry};
use ecc_obs::{parse_exposition, MetricValue, ObsHub, ObsHubConfig, SloSpec};
use ecc_telemetry::Recorder;

/// Builds a hub over a deterministic ManualClock workload: two saves,
/// one load, a couple of events (one with non-ASCII detail), and a
/// health registry with one dead node.
fn golden_hub() -> ObsHub {
    let (recorder, clock) = Recorder::with_manual_clock();
    clock.set_ns(1_000);

    recorder.counter("ecc.save.calls").add(2);
    recorder.counter("ecc.save.bytes_encoded").add(8_192);
    recorder.counter("ecc.save.traffic_bytes").add(16_384);
    // Both samples sit in the 64–134ms power-of-two bucket, whose upper
    // bound is below the 250ms SLO threshold — so the latency objective
    // counts them as fully compliant (no partial-bucket interpolation).
    recorder.record("ecc.save.ns", 100_000_000);
    recorder.record("ecc.save.ns", 130_000_000);
    recorder.record("ecc.load.ns", 700_000_000);
    recorder.event("ecc.save", "version=1 packets_per_worker=4");
    recorder.event("chaos.fault.crash_nodes", "nodes [2] — zählt als Ausfall ✓");

    let health =
        HealthRegistry::new(4, HealthConfig { suspect_after_ns: 5_000, dead_after_ns: 10_000 });
    for node in 0..4 {
        health.record_heartbeat(node, 1_000);
    }
    health.mark_dead(2, 1_500);
    clock.set_ns(2_000);

    let slos = vec![
        SloSpec::latency(
            "save_stall",
            "99% of saves within 250ms",
            "ecc.save.ns",
            250_000_000,
            0.99,
        ),
        SloSpec::ratio(
            "traffic",
            "traffic within the m*s*W bound",
            "ecc.save.traffic_bytes",
            "ecc.save.bytes_encoded",
            2.0,
        ),
    ];
    ObsHub::new(recorder, ObsHubConfig { slos, ..ObsHubConfig::default() }).with_health(health)
}

#[test]
fn golden_manual_clock_scrape_is_byte_identical_across_runs() {
    let first = golden_hub().render_metrics();
    let second = golden_hub().render_metrics();
    assert_eq!(first, second, "independent runs of the same workload must render identical bytes");

    // Pin the exact headline lines so a formatting drift (float
    // rendering, label order, sanitization) fails loudly.
    for line in [
        "ecc_save_calls_total 2",
        "ecc_save_bytes_encoded_total 8192",
        "ecc_save_traffic_bytes_total 16384",
        "ecc_save_ns_count 2",
        "ecc_save_ns_sum 230000000",
        "ecc_node_health{node=\"2\"} 0",
        "ecc_health_transitions_total{to=\"dead\"} 1",
        "ecc_slo_burn_rate{slo=\"traffic\"} 1",
        "ecc_slo_breached{slo=\"save_stall\"} 0",
    ] {
        assert!(first.lines().any(|l| l == line), "expected exact line {line:?} in:\n{first}");
    }
}

#[test]
fn golden_scrape_parses_and_validates_ordering() {
    let text = golden_hub().render_metrics();
    let scrape = parse_exposition(&text).expect("golden scrape must be valid exposition");
    assert!(!scrape.samples.is_empty());

    // HELP must directly precede TYPE for every family, and every
    // sample must belong to the most recently declared family (the
    // parser enforces contiguity; this re-checks the raw layout).
    let lines: Vec<&str> = text.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let fam = rest.split_whitespace().next().expect("family name");
            let prev = lines.get(i.wrapping_sub(1)).copied().unwrap_or("");
            assert!(
                prev.starts_with(&format!("# HELP {fam} ")),
                "TYPE for {fam} must be directly preceded by its HELP, got {prev:?}"
            );
        }
    }

    // The document is valid UTF-8 by construction (String); the event
    // with non-ASCII detail must not have leaked into metric names.
    for s in &scrape.samples {
        assert!(s.name.is_ascii(), "metric names must stay ASCII, got {:?}", s.name);
    }
}

#[test]
fn golden_scrape_windows_and_slos_are_exact() {
    let scrape = parse_exposition(&golden_hub().render_metrics()).expect("valid");

    // Both save samples fall in the window; the p99 interpolates inside
    // the 64–134ms power-of-two bucket, so it must land in that range.
    let p99 = scrape
        .labeled("ecc_save_ns_window", &[("quantile", "0.99")])
        .expect("windowed p99 present");
    match p99.value {
        MetricValue::Float(v) => {
            assert!((67_108_864.0..=134_217_727.0).contains(&v), "p99 {v} outside its bucket")
        }
        ref other => panic!("expected float p99, got {other:?}"),
    }
    assert_eq!(
        scrape.labeled("ecc_save_ns_window", &[("stat", "count")]).map(|s| &s.value),
        Some(&MetricValue::Int(2))
    );

    // Traffic SLO: 16384 <= 2.0 * 8192 exactly -> burn rate exactly 1
    // (integral floats render bare, so the parser reads them as ints).
    let burn = scrape.labeled("ecc_slo_burn_rate", &[("slo", "traffic")]).expect("traffic burn");
    assert_eq!(burn.value, MetricValue::Int(1));

    // save_stall: both saves under 250ms -> fully compliant, burn 0.
    let stall = scrape.labeled("ecc_slo_burn_rate", &[("slo", "save_stall")]).expect("stall burn");
    assert_eq!(stall.value, MetricValue::Int(0));
}

#[test]
fn events_endpoint_carries_the_utf8_detail() {
    let hub = golden_hub();
    hub.refresh();
    let json = hub.render_events_json();
    assert!(json.contains("zählt als Ausfall ✓"), "UTF-8 event detail must survive: {json}");
    assert!(json.contains("\"severity\":\"error\""), "crash fault must classify as error: {json}");
}
