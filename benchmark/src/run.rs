//! One run of one workload: set up, measure for the time given, and
//! turn the samples into the metrics `BENCHMARK.json` names.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ecc_cluster::DataPlane;

use crate::cycle::{Loop, Samples};
use crate::ledger::{layer_micros, Values};
use crate::metrics::{self, Op, PlaneKind, WorkloadSpec, COMMON_OPS, LEDGER_OPS};
use crate::plane::{Backing, Sink, Tally};
use crate::report::RunRecord;
use crate::stats::{median, percentile, tail};
use crate::workload::{memory_rig, tcp_rig, tiered_rig, Rig, THREADS};

/// Times an untraced run sets up from scratch; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Cycles per phase in `--quick` mode.
const QUICK_CYCLES: usize = 2;

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: &'static WorkloadSpec,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Two cycles per phase whatever `seconds` says: the smoke test's mode.
    pub quick: bool,
    /// Where a traced run writes its Chrome trace, if anywhere.
    pub trace_out: Option<PathBuf>,
}

/// What one run reports: the record the contract asks for, plus the
/// context a reader needs to interpret it.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub record: RunRecord,
    /// Host, threads, kernel, sample counts and tails.
    pub notes: Vec<String>,
}

pub fn run(args: &RunArgs) -> RunResult {
    let spec = args.workload;
    match spec.plane {
        PlaneKind::Memory => run_on(args, &|sink| memory_rig(spec, sink)),
        PlaneKind::Tcp => run_on(args, &|sink| tcp_rig(spec, sink)),
        PlaneKind::Tiered => run_on(args, &|sink| tiered_rig(spec, sink)),
    }
}

/// How long a phase runs: a wall-clock share of the run, or a fixed
/// cycle count in quick mode.
#[derive(Clone, Copy)]
enum Until {
    Elapsed(Duration),
    Cycles(usize),
}

fn measure<P: DataPlane + Backing>(client: &mut Loop<'_, P>, until: Until) -> (Samples, f64) {
    let mut samples = Samples::default();
    let begun = Instant::now();
    loop {
        client.run_cycle(&mut samples);
        let done = match until {
            Until::Elapsed(limit) => begun.elapsed() >= limit,
            Until::Cycles(n) => samples.cycles() >= n,
        };
        if done {
            return (samples, begun.elapsed().as_secs_f64());
        }
    }
}

/// What either kind of run hands back for the result object.
struct Measured {
    /// `(name, value, unit)` in `BENCHMARK.json` order.
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    /// Whether every save stayed within `m·s·W`.
    traffic_ok: bool,
}

fn traffic_ok(samples: &Samples) -> bool {
    samples.save_traffic_ratio.iter().all(|&ratio| ratio <= 1.0)
}

fn run_on<P: DataPlane + Backing>(
    args: &RunArgs,
    make_rig: &dyn Fn(Option<Arc<Sink>>) -> Rig<P>,
) -> RunResult {
    let spec = args.workload;
    let mut notes = vec![format!(
        "workload={} seed={} nproc={} coding_threads={THREADS} server_workers={THREADS} client_pool={THREADS} kernel={}",
        spec.name,
        args.seed,
        std::thread::available_parallelism().map_or(0, usize::from),
        ecc_gf::kernel::active_kernel().name(),
    )];
    let measured = if args.trace {
        traced(args, make_rig, &mut notes)
    } else {
        untraced(args, make_rig, &mut notes)
    };
    let record = RunRecord {
        workload: spec.name.to_string(),
        seed: args.seed,
        trace: args.trace,
        correct: measured.failed == 0 && measured.traffic_ok,
        attempted: measured.attempted,
        failed: measured.failed,
        metrics: measured
            .metrics
            .into_iter()
            .map(|(name, value, unit)| (name, value, unit.to_string()))
            .collect(),
    };
    RunResult { record, notes }
}

/// `part` of the run's seconds, or two cycles in quick mode.
fn share(args: &RunArgs, part: f64) -> Until {
    if args.quick {
        Until::Cycles(QUICK_CYCLES)
    } else {
        Until::Elapsed(Duration::from_secs_f64(args.seconds as f64 * part))
    }
}

/// The end-to-end run: tracing off, every second spent on cycles.
fn untraced<P: DataPlane + Backing>(
    args: &RunArgs,
    make_rig: &dyn Fn(Option<Arc<Sink>>) -> Rig<P>,
    notes: &mut Vec<String>,
) -> Measured {
    let spec = args.workload;
    let make = || make_rig(None);
    let mut setups = Vec::new();
    let mut client = None;
    for _ in 0..if args.quick { 1 } else { SETUP_REPS } {
        // The previous repetition's rig goes before the next is made.
        drop(client.take());
        let begun = Instant::now();
        client = Some(Loop::set_up(spec, args.seed, &make, None));
        setups.push(begun.elapsed().as_secs_f64());
    }
    let mut client = client.expect("at least one set-up");
    let (samples, wall) = measure(&mut client, share(args, 1.0));
    let state_bytes = client.states.bytes as f64;
    notes.push(format!(
        "state_bytes={} cycles={} measured_s={wall:.3} setups_s={setups:.3?}",
        client.states.bytes,
        samples.cycles()
    ));
    let mut metrics = vec![("setup_s".to_string(), median(&setups), "s")];
    for op in spec.ops() {
        let ms = samples.ops(*op);
        let tail = tail(ms).map_or(String::new(), |(p, v)| format!(" p{p:.1}={v:.3}"));
        notes.push(format!(
            "{}_ms median={:.3} p75={:.3} n={}{tail}",
            op.name(),
            median(ms),
            percentile(ms, 75.0),
            ms.len()
        ));
        if *op == Op::Delta {
            metrics.push(("delta_p75_ms".into(), percentile(ms, 75.0), "ms"));
        } else if COMMON_OPS.contains(op) {
            metrics.push((format!("{}_ms", op.name()), median(ms), "ms"));
        }
    }
    let ops = spec.ops().len() as f64;
    let mb_s: Vec<f64> =
        samples.cycle_ms.iter().map(|ms| state_bytes * ops / 1e6 / (ms / 1e3)).collect();
    metrics.push(("cycle_mb_s".into(), median(&mb_s), "MB/s"));
    metrics.push(("save_traffic_ratio".into(), median(&samples.save_traffic_ratio), "ratio"));
    metrics.push((
        "stored_bytes_per_state_byte".into(),
        samples.stored_peak as f64 / state_bytes,
        "ratio",
    ));
    metrics.push(("peak_rss_mib".into(), peak_rss_mib(), "MiB"));
    Measured {
        metrics,
        attempted: client.attempted,
        failed: client.failed,
        traffic_ok: traffic_ok(&samples),
    }
}

/// The ledger run: cycles with recording off, cycles with it on, then
/// each crate's functions on the workload's own chunks.
fn traced<P: DataPlane + Backing>(
    args: &RunArgs,
    make_rig: &dyn Fn(Option<Arc<Sink>>) -> Rig<P>,
    notes: &mut Vec<String>,
) -> Measured {
    let spec = args.workload;
    let sink = Sink::new();
    let make = || make_rig(Some(Arc::clone(&sink)));
    let mut client = Loop::set_up(spec, args.seed, &make, Some(Arc::clone(&sink)));
    let (plain, _) = measure(&mut client, share(args, 0.3));
    sink.set_enabled(true);
    let (recorded, _) = measure(&mut client, share(args, 0.3));
    sink.set_enabled(false);
    let snapshot = client.rig().engine.recorder().snapshot();
    let phase_ms = |phase: &str| {
        snapshot.histogram(&format!("ecc.save.{phase}_ns")).map_or(0.0, |h| h.mean() / 1e6)
    };
    // About forty timings share the remaining 40% of the run.
    let budget = if args.quick {
        Duration::from_millis(1)
    } else {
        Duration::from_secs_f64(args.seconds as f64 * 0.4 / 40.0)
    };
    let micros = layer_micros(spec, &client.states, budget);
    notes.push(format!(
        "state_bytes={} untraced_cycles={} traced_cycles={} spans={}",
        client.states.bytes,
        plain.cycles(),
        recorded.cycles(),
        sink.span_count()
    ));
    if let Some(path) = &args.trace_out {
        // Not validated here: `ecc_trace::json` re-checks the rest of the
        // document at every string character, which takes a minute on a
        // full run's trace. The smoke test validates a quick run's.
        match std::fs::write(path, sink.chrome_trace_json()) {
            Ok(()) => notes.push(format!("chrome trace -> {}", path.display())),
            Err(err) => notes.push(format!("chrome trace not written: {err}")),
        }
    }
    let values = ledger_values(client.states.bytes, &plain, &recorded, micros, &phase_ms);
    let metrics = metrics::per_layer()
        .into_iter()
        .map(|def| {
            let value = values.get(&def.name).copied().unwrap_or(0.0);
            (def.name, value, def.unit)
        })
        .collect();
    Measured {
        metrics,
        attempted: client.attempted,
        failed: client.failed,
        traffic_ok: traffic_ok(&plain) && traffic_ok(&recorded),
    }
}

/// `VmHWM` of this process in MiB: the most memory it ever held.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn median_of(tallies: &[Tally], field: impl Fn(&Tally) -> u64) -> f64 {
    median(&tallies.iter().map(|t| field(t) as f64).collect::<Vec<_>>())
}

/// The `core`, `bench` and cross-layer rows of the ledger, joined with
/// the per-crate timings in `micros`.
fn ledger_values(
    state_bytes: u64,
    plain: &Samples,
    traced: &Samples,
    mut values: Values,
    phase_ms: &dyn Fn(&str) -> f64,
) -> Values {
    for op in LEDGER_OPS {
        let tallies = &traced.tallies[op.index()];
        let plane_ms = median_of(tallies, |t| t.plane_ns) / 1e6;
        let name = op.name();
        values.insert(format!("core.{name}.plane_ms"), plane_ms);
        // An op's self time: its span minus the plane spans it covers.
        let self_ms: Vec<f64> = traced
            .ops(op)
            .iter()
            .zip(tallies)
            .map(|(ms, tally)| ms - tally.plane_ns as f64 / 1e6)
            .collect();
        values.insert(format!("core.{name}.self_ms"), median(&self_ms));
        values.insert(format!("core.{name}.put_calls"), median_of(tallies, |t| t.put_calls));
        values.insert(format!("core.{name}.get_calls"), median_of(tallies, |t| t.get_calls));
        // A delta's bytes depend on the dirty worker's pipeline stage, so
        // a median would depend on which cycles the run reached; the
        // largest delta is the same on every run.
        let bytes_of = |field: fn(&Tally) -> u64| {
            if op == Op::Delta {
                tallies.iter().map(field).max().unwrap_or(0) as f64
            } else {
                median_of(tallies, field)
            }
        };
        values.insert(format!("core.{name}.put_bytes"), bytes_of(|t| t.put_bytes));
        values.insert(format!("core.{name}.get_bytes"), bytes_of(|t| t.get_bytes));
    }
    let save_tallies = &traced.tallies[Op::Save.index()];
    values.insert(
        "core.store.gc_deletes_per_save".into(),
        median_of(save_tallies, |t| t.delete_calls),
    );
    values.insert("net.requests_per_save".into(), median_of(save_tallies, |t| t.requests));

    let save_ms = median(plain.ops(Op::Save));
    let save_gbps = state_bytes as f64 / (save_ms / 1e3) / 1e9;
    values.insert("core.save.gbps".into(), save_gbps);
    let pool = values.get("erasure.pool_encode_gbps").copied().unwrap_or(0.0);
    values.insert("core.save.frac_of_pool".into(), if pool > 0.0 { save_gbps / pool } else { 0.0 });
    for phase in ["decompose", "pack", "build_chunks", "encode", "place"] {
        values.insert(format!("core.save.phase.{phase}_ms"), phase_ms(phase));
    }
    let stage = |f: &dyn Fn(&eccheck::PipelineStats) -> f64| {
        median(&plain.pipeline.iter().map(f).collect::<Vec<_>>())
    };
    values.insert("core.pipeline.encode_occupancy".into(), stage(&|p| p.encode_occupancy()));
    values.insert("core.pipeline.reduce_occupancy".into(), stage(&|p| p.reduce_occupancy()));
    values.insert("core.pipeline.transfer_occupancy".into(), stage(&|p| p.transfer_occupancy()));
    values.insert("core.pipeline.ring_waits".into(), stage(&|p| p.ring_waits as f64));
    values.insert("core.pipeline.window_waits".into(), stage(&|p| p.window_waits as f64));
    values.insert("core.delta.traffic_ratio".into(), median(&plain.delta_traffic_ratio));
    values.insert("core.store.drain_ms".into(), median(plain.ops(Op::Drain)));
    values.insert(
        "core.store.tier1_bytes_per_state_byte".into(),
        median(&plain.tier1_growth) / state_bytes as f64,
    );
    values.insert(
        "bench.trace_overhead_frac".into(),
        median(&traced.cycle_ms) / median(&plain.cycle_ms) - 1.0,
    );
    values
}
