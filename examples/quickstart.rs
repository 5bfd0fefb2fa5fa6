//! Quickstart: erasure-coded in-memory checkpointing in five minutes.
//!
//! Builds a 4-node × 2-GPU simulated cluster training a (tiny) GPT-2
//! with hybrid TP/PP/DP parallelism, checkpoints it with ECCheck, kills
//! two machines — including a data node — and restores every worker's
//! `state_dict` bit-exactly from the surviving erasure-coded chunks.
//!
//! Run with: `cargo run --example quickstart`
//!
//! Add `--trace <path>` to also write a Chrome Trace Event JSON span
//! timeline of the run (load it in Perfetto or `chrome://tracing`).
//! Add `--obs <host:port>` to serve the live observability plane
//! (`/metrics`, `/health`, `/ready`, `/events`) during the run — point
//! `ecc-top --addr <host:port>` at it; `--obs-hold-ms <n>` keeps the
//! exporter up after the run finishes so a scraper can catch it.

use ecc_cluster::{Cluster, ClusterSpec};
use ecc_dnn::{build_worker_state_dict, ModelConfig, ParallelismSpec, StateDictSpec};
use eccheck::store::drain_version;
use eccheck::{EcCheck, EcCheckConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 4-machine cluster, 2 simulated GPUs each (the paper's testbed
    // shape, scaled down so this example runs in milliseconds).
    let spec = ClusterSpec::tiny_test(4, 2);
    let mut cluster = Cluster::new(spec);

    // A tiny GPT-2 sharded TP=2 within nodes, PP=2 across them, DP=2.
    let model = ModelConfig::gpt2(64, 4, 4).with_vocab(512).with_seq_len(32);
    let par = ParallelismSpec::new(2, 2, 2)?;
    let sd_spec = StateDictSpec { iteration: 1200, ..StateDictSpec::new(model, par) };
    let dicts: Vec<_> = (0..spec.world_size())
        .map(|w| build_worker_state_dict(&sd_spec, w))
        .collect::<Result<_, _>>()?;
    let total: usize = dicts.iter().map(|d| d.tensor_bytes()).sum();
    println!("checkpoint payload: {} workers, {total} bytes of tensor data", dicts.len());

    // Initialize ECCheck with the paper's k = m = 2 settings (shrunken
    // buffers for the toy scale) and save.
    let config = EcCheckConfig::paper_defaults().with_packet_size(4096);
    let mut ecc = EcCheck::initialize(&spec, config)?;
    // With `--obs <host:port>`, serve live /metrics over the engine's
    // recorder while the run proceeds (scrape it with `ecc-top`).
    let obs = match ecc_bench::arg_value("--obs") {
        Some(addr) => {
            let server = ecc.serve_obs(&addr)?;
            println!("obs: serving /metrics /health /ready /events on {}", server.local_addr());
            Some(server)
        }
        None => None,
    };
    // The tracer records a causal span timeline (save phases, coding-pool
    // workers, P2P transfers) on the same clock as the recorder below.
    let tracer = ecc.attach_tracer();
    println!(
        "placement: data nodes {:?}, parity nodes {:?}",
        ecc.placement().data_nodes(),
        ecc.placement().parity_nodes()
    );
    let report = ecc.save(&mut cluster, &dicts)?;
    println!(
        "saved v{}: {} packets/worker x {} B, traffic {} B (= m*s*W)",
        report.version,
        report.packets_per_worker,
        report.packet_size,
        report.traffic.total()
    );

    // The paper's step 4, the low-frequency copy to remote storage, is
    // the training loop's cadence, not the engine's: nothing reaches
    // tier 1 unless a `Drainer` is attached or the loop drains itself.
    if sd_spec.iteration.is_multiple_of(50) {
        drain_version(&mut cluster, ecc.version(), spec.world_size(), ecc.recorder())?;
    }

    // Catastrophe: a data node AND a parity node die at once. A
    // replication pair scheme (GEMINI) would lose data here.
    println!("\nfailing node 2 (data) and node 3 (parity)...");
    cluster.fail_node(2);
    cluster.fail_node(3);
    cluster.replace_node(2);
    cluster.replace_node(3);

    let (restored, load) = ecc.load(&mut cluster)?;
    println!(
        "recovered via {:?}: rebuilt {} chunks, {} bytes restored",
        load.workflow, load.rebuilt_chunks, load.restored_bytes
    );
    assert_eq!(restored, dicts, "recovery must be bit-exact");
    println!("all {} worker state_dicts restored bit-exactly ✓", restored.len());

    // Everything above was also measured: the engine carries a telemetry
    // recorder (see README "Observability") whose snapshot breaks the run
    // down into per-phase latencies, byte counts and XOR-op totals.
    let snap = ecc.recorder().snapshot();
    if let Some(rate) = snap.rate_per_sec("erasure.encode.bytes", "erasure.encode.ns") {
        println!("\nencode throughput: {}", ecc_telemetry::fmt_rate(rate));
    }
    println!("\n{}", snap.render());

    // With `--trace <path>`, export the span timeline for Perfetto and
    // print where the save's wall-clock time actually went.
    if let Some(path) = ecc_bench::trace_path_from_args() {
        std::fs::write(&path, tracer.chrome_trace_json())?;
        println!("\nspan trace written to {} (load in Perfetto)", path.display());
        print!("\n{}", tracer.critical_path_summary("ecc.save"));
    }

    if let Some(server) = obs {
        let hold_ms: u64 = ecc_bench::arg_value("--obs-hold-ms")
            .map(|v| v.parse().expect("--obs-hold-ms takes an integer"))
            .unwrap_or(0);
        if hold_ms > 0 {
            println!("obs: holding exporter for {hold_ms}ms");
            std::thread::sleep(std::time::Duration::from_millis(hold_ms));
        }
        server.shutdown();
    }
    Ok(())
}
