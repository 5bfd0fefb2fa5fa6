//! The live-telemetry appendix every figure binary prints.
//!
//! The figures themselves come from the analytic timing model; this
//! section complements them with measurements from a *real-byte* engine
//! run on the toy cluster — encode throughput, per-phase save latency
//! and XOR-op counts straight from the `ecc-telemetry` recorder — so a
//! reader can line the model up against an actual execution.

use ecc_cluster::{Cluster, ClusterSpec};
use ecc_dnn::{build_worker_state_dict, ModelConfig, ParallelismSpec, StateDictSpec};
use ecc_erasure::{CodeParams, ErasureCode, ScheduleKind};
use ecc_telemetry::{fmt_ns, fmt_rate, Snapshot};
use eccheck::{EcCheck, EcCheckConfig};

use crate::print_table;

/// Runs a small real-byte checkpoint workload (three saves, a failure
/// burst, one recovery) and prints its telemetry report: encode
/// throughput, per-phase save latencies, XOR-op counts and the
/// smart-vs-dumb schedule comparison.
///
/// Prints a diagnostic line instead of panicking if the toy workload
/// cannot be built (it always can on supported configurations).
pub fn print_live_telemetry() {
    match run_workload() {
        Ok(snapshot) => print_report(&snapshot),
        Err(err) => println!("\n(telemetry workload unavailable: {err})"),
    }
}

fn run_workload() -> Result<Snapshot, Box<dyn std::error::Error>> {
    let spec = ClusterSpec::tiny_test(4, 2);
    let mut cluster = Cluster::new(spec);
    let model = ModelConfig::gpt2(64, 4, 4).with_vocab(512).with_seq_len(32);
    let par = ParallelismSpec::new(2, 2, 2)?;
    let sd_spec = StateDictSpec { iteration: 100, ..StateDictSpec::new(model, par) };
    let dicts: Vec<_> = (0..spec.world_size())
        .map(|w| build_worker_state_dict(&sd_spec, w))
        .collect::<Result<_, _>>()?;

    let config = EcCheckConfig::paper_defaults().with_packet_size(4096);
    let mut ecc = EcCheck::initialize(&spec, config)?;
    for _ in 0..3 {
        ecc.save(&mut cluster, &dicts)?;
    }
    cluster.fail_node(1);
    cluster.fail_node(3);
    cluster.replace_node(1);
    cluster.replace_node(3);
    ecc.load(&mut cluster)?;
    Ok(ecc.recorder().snapshot())
}

fn print_report(snap: &Snapshot) {
    println!("\n== live telemetry (real-byte engine run, 4-node toy cluster) ==");

    if let Some(rate) = snap.rate_per_sec("erasure.encode.bytes", "erasure.encode.ns") {
        println!(
            "encode throughput: {} over {} encode calls",
            fmt_rate(rate),
            snap.counter("erasure.encode.calls"),
        );
    }

    let phases = [
        ("decompose", "ecc.save.decompose_ns"),
        ("pack", "ecc.save.pack_ns"),
        ("encode", "ecc.save.encode_ns"),
        ("place (P2P)", "ecc.save.place_ns"),
        ("total save", "ecc.save.ns"),
    ];
    let rows: Vec<Vec<String>> = phases
        .iter()
        .filter_map(|(label, metric)| {
            snap.histogram(metric).map(|h| {
                vec![
                    (*label).to_string(),
                    h.count.to_string(),
                    fmt_ns(h.mean()),
                    fmt_ns(h.min as f64),
                    fmt_ns(h.max as f64),
                ]
            })
        })
        .collect();
    println!("\nper-phase save latency:");
    print_table(&["phase", "n", "mean", "min", "max"], &rows);

    println!(
        "\nXOR ops executed: encode {} / decode {}  (recoveries: resend {}, decode {}, remote {})",
        snap.counter("erasure.encode.xor_ops"),
        snap.counter("erasure.decode.xor_ops"),
        snap.counter("ecc.load.workflow.resend"),
        snap.counter("ecc.load.workflow.decode"),
        snap.counter("ecc.load.workflow.remote"),
    );

    print_schedule_comparison();
}

/// Prints smart-vs-dumb XOR schedule sizes across representative
/// `(k, m, w)` shapes — the paper's smart-scheduling saving (§IV-A).
pub fn print_schedule_comparison() {
    let shapes = [(2usize, 2usize, 8u8), (4, 2, 8), (6, 3, 8), (8, 4, 8)];
    let mut rows = Vec::new();
    for (k, m, w) in shapes {
        let Ok(params) = CodeParams::new(k, m, w) else { continue };
        let Ok(code) = ErasureCode::cauchy_good(params) else { continue };
        let smart = code.schedule(ScheduleKind::Smart).xor_count();
        let dumb = code.schedule(ScheduleKind::Dumb).xor_count();
        rows.push(vec![
            format!("({k},{m},{w})"),
            smart.to_string(),
            dumb.to_string(),
            format!("{:.1}%", 100.0 * (1.0 - smart as f64 / dumb as f64)),
        ]);
    }
    println!("\nXOR schedule size, smart vs dumb:");
    print_table(&["(k,m,w)", "smart", "dumb", "saving"], &rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_produces_expected_counters() {
        let snap = run_workload().expect("toy workload runs");
        assert_eq!(snap.counter("ecc.save.calls"), 3);
        assert_eq!(snap.counter("ecc.load.calls"), 1);
        assert!(snap.counter("erasure.encode.bytes") > 0);
        assert!(snap.histogram("ecc.save.ns").is_some());
        assert!(
            snap.rate_per_sec("erasure.encode.bytes", "erasure.encode.ns").is_some(),
            "encode throughput must be derivable"
        );
    }

    #[test]
    fn smart_schedule_beats_dumb_for_some_shape() {
        let mut beaten = false;
        for (k, m, w) in [(2usize, 2usize, 8u8), (4, 2, 8), (6, 3, 8), (8, 4, 8)] {
            let code = ErasureCode::cauchy_good(CodeParams::new(k, m, w).unwrap()).unwrap();
            let smart = code.schedule(ScheduleKind::Smart).xor_count();
            let dumb = code.schedule(ScheduleKind::Dumb).xor_count();
            assert!(smart <= dumb, "smart must never be worse ({k},{m},{w})");
            beaten |= smart < dumb;
        }
        assert!(beaten, "smart should strictly beat dumb for at least one shape");
    }
}
