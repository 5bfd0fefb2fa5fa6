//! The delta-save bench harness behind the `delta-bench` binary.
//!
//! Compares [`eccheck::EcCheck::save_delta`] against a full
//! [`eccheck::EcCheck::save`] of the same mutated state over a ladder of
//! dirty-set densities, reporting wall time per path, the delta/full
//! speedup, and — the headline the paper's GF-linearity argument buys —
//! the data-plane traffic of each path. A full save moves `m·s·W`
//! parity bytes (`m` parity chunks, `s` bytes of packed region per
//! worker, `W` workers); a delta save moves the dirty region once per
//! touched data chunk plus once per parity node, so sparse dirty sets
//! shrink traffic by roughly `W / |dirty|`. The result serializes to a
//! stable JSON document (`BENCH_PR10.json` in CI) and
//! [`DeltaBenchReport::traffic_regressions`] gates the CI job: delta
//! traffic reaching the full-save bound on any sparse shape fails the
//! build on every host, because byte accounting is deterministic. The
//! latency comparison stays advisory on single-core hosts, matching the
//! pipeline bench.

use std::time::Instant;

use ecc_checkpoint::{DType, StateDict, Tensor, Value};
use ecc_cluster::{Cluster, ClusterSpec};
use eccheck::{DeltaReport, EcCheck, EcCheckConfig, SaveMode, WorkerDirtySet};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Timing repetitions per (shape, path); the fastest wins.
const MEASURE_ITERS: usize = 5;

/// The latency gate: on a sparse dirty set the delta path must not be
/// slower than this factor of the full save. Patching a fraction of
/// the stripe should win outright; the slack absorbs scheduler jitter.
/// Enforced only on multi-core hosts — see
/// [`DeltaBenchReport::gate_enforced`].
const LATENCY_GATE: f64 = 1.10;

/// One benchmarked dirty-set density.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaShapePerf {
    /// Human label (also the JSON key consumers group by).
    pub name: String,
    /// Engine packet size in bytes.
    pub packet_size: usize,
    /// Tensor payload per worker in bytes.
    pub shard_bytes: usize,
    /// Workers mutated between the base save and the measured update.
    pub dirty_workers: usize,
    /// Total workers in the job.
    pub world: usize,
    /// Best-of-N full save of the mutated state, milliseconds.
    pub full_ms: f64,
    /// Best-of-N delta save of the same mutation, milliseconds.
    pub delta_ms: f64,
    /// `full_ms / delta_ms` (> 1 means the delta path is faster).
    pub speedup: f64,
    /// Full-save parity traffic bound: `m·s·W` bytes.
    pub full_traffic_bytes: u64,
    /// Bytes the delta path actually moved (region reads + patched
    /// chunk and parity writes), from [`DeltaReport::traffic_bytes`].
    pub delta_traffic_bytes: u64,
    /// `delta_traffic_bytes / full_traffic_bytes` — below 1.0 the
    /// delta path beats the bound.
    pub traffic_ratio: f64,
    /// Whether this density is sparse enough that the traffic bound
    /// must hold: `|dirty| · (1 + m) < m · W`. Dense updates touch
    /// every chunk and legitimately exceed the parity-only bound.
    pub sparse: bool,
}

/// The full delta-save bench report (`BENCH_PR10.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaBenchReport {
    /// Target architecture the binary was built for.
    pub arch: String,
    /// Parallelism the host advertises to `std::thread`.
    pub host_threads: usize,
    /// Coding threads the caller asked for (`--threads`).
    pub requested_threads: usize,
    /// Per-density results, sparse to dense.
    pub shapes: Vec<DeltaShapePerf>,
}

/// Deterministic per-worker tensor payloads. Delta saves patch packed
/// tensor regions, so the payload rides in a `Value::Tensor` (bytes in
/// the replicated header would never touch the erasure-coded chunks).
fn bench_dicts(world: usize, shard_bytes: usize, salt: u64) -> Vec<StateDict> {
    (0..world)
        .map(|w| {
            let mut rng = StdRng::seed_from_u64(0xDE17A ^ salt ^ ((w as u64) << 8));
            let mut payload = vec![0u8; shard_bytes];
            rng.fill_bytes(&mut payload);
            let mut sd = StateDict::new();
            sd.insert("rank", Value::Int(w as i64));
            let t = Tensor::from_bytes(DType::U8, &[shard_bytes], payload)
                .expect("bench tensor shape valid");
            sd.insert("weights", Value::Tensor(t));
            sd
        })
        .collect()
}

/// Best-of-N wall time for a full save of `dicts`.
fn best_full_save(spec: &ClusterSpec, cfg: EcCheckConfig, dicts: &[StateDict]) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..MEASURE_ITERS {
        let mut cluster = Cluster::new(*spec);
        let mut ecc = EcCheck::initialize(spec, cfg).expect("bench config valid");
        let t = Instant::now();
        ecc.save(&mut cluster, dicts).expect("bench save succeeds");
        best = best.min(t.elapsed().as_secs_f64());
    }
    best * 1e3
}

/// Best-of-N wall time for the delta path: each repetition full-saves
/// the base state untimed, then times `save_delta` patching `dirty`
/// workers to their mutated dicts. Returns the fastest run's report.
fn best_delta_save(
    spec: &ClusterSpec,
    cfg: EcCheckConfig,
    base: &[StateDict],
    mutated: &[StateDict],
    dirty: &[usize],
) -> (f64, DeltaReport) {
    let mut best = f64::INFINITY;
    let mut report = None;
    for _ in 0..MEASURE_ITERS {
        let mut cluster = Cluster::new(*spec);
        let mut ecc = EcCheck::initialize(spec, cfg).expect("bench config valid");
        ecc.save(&mut cluster, base).expect("bench base save succeeds");
        let sets: Vec<WorkerDirtySet<'_>> =
            dirty.iter().map(|&w| WorkerDirtySet { worker: w, state: &mutated[w] }).collect();
        let t = Instant::now();
        let r = ecc.save_delta(&mut cluster, &sets).expect("bench delta save succeeds");
        let secs = t.elapsed().as_secs_f64();
        if secs < best {
            best = secs;
            report = Some(r);
        }
    }
    (best * 1e3, report.expect("at least one delta repetition"))
}

impl DeltaBenchReport {
    /// Runs the default density ladder — 1, 2, 4 and all 8 of the toy
    /// cluster's workers dirty over 256 KiB shards — with the host's
    /// thread count capped at 4.
    pub fn collect() -> Self {
        Self::collect_with_threads(
            std::thread::available_parallelism().map_or(1, |n| n.get()).min(4),
        )
    }

    /// [`DeltaBenchReport::collect`] with an explicit coding thread
    /// count (the binary's `--threads` flag).
    pub fn collect_with_threads(threads: usize) -> Self {
        Self::collect_custom(
            &[
                ("sparse-1of8", 16 << 10, 256 << 10, 1),
                ("sparse-2of8", 16 << 10, 256 << 10, 2),
                ("half-4of8", 16 << 10, 256 << 10, 4),
                ("dense-8of8", 16 << 10, 256 << 10, 8),
            ],
            threads,
        )
    }

    /// [`DeltaBenchReport::collect`] with an explicit
    /// `(name, packet_size, shard_bytes, dirty_workers)` ladder and
    /// thread count (tests use tiny values to stay fast). All shapes
    /// run on the 4-node × 2-GPU toy cluster with `(k, m) = (2, 2)`.
    ///
    /// # Panics
    ///
    /// Panics when `ladder` is empty, a dirty count exceeds the world
    /// size, or a save fails — harness defects worth failing loudly on.
    pub fn collect_custom(ladder: &[(&str, usize, usize, usize)], threads: usize) -> Self {
        assert!(!ladder.is_empty(), "delta bench needs at least one shape");
        const K: usize = 2;
        const M: usize = 2;
        let spec = ClusterSpec::tiny_test(K + M, 2);
        let world = spec.world_size();
        let mut shapes = Vec::new();
        for &(name, packet_size, shard_bytes, dirty_workers) in ladder {
            assert!(
                dirty_workers >= 1 && dirty_workers <= world,
                "dirty_workers must be in 1..={world}"
            );
            let cfg = EcCheckConfig::paper_defaults()
                .with_km(K, M)
                .with_packet_size(packet_size)
                .with_coding_threads(threads)
                .with_pipeline_buffer((packet_size / 2).max(64))
                .with_save_mode(SaveMode::Pipelined);
            let base = bench_dicts(world, shard_bytes, 1);
            let fresh = bench_dicts(world, shard_bytes, 2);
            // Spread the dirty workers across the world so multi-worker
            // densities touch distinct data chunks.
            let dirty: Vec<usize> = (0..dirty_workers).map(|i| i * world / dirty_workers).collect();
            let mut mutated = base.clone();
            for &w in &dirty {
                mutated[w] = fresh[w].clone();
            }

            let full_ms = best_full_save(&spec, cfg, &mutated);
            let (delta_ms, report) = best_delta_save(&spec, cfg, &base, &mutated, &dirty);

            // The full-save parity bound `m·s·W`: `s` is the packed
            // region per worker, recovered exactly from the delta
            // report (`region_bytes` covers the dirty workers only).
            let region_per_worker = report.region_bytes / dirty_workers as u64;
            let full_traffic_bytes = M as u64 * region_per_worker * world as u64;
            shapes.push(DeltaShapePerf {
                name: name.to_string(),
                packet_size,
                shard_bytes,
                dirty_workers,
                world,
                full_ms,
                delta_ms,
                speedup: full_ms / delta_ms,
                full_traffic_bytes,
                delta_traffic_bytes: report.traffic_bytes,
                traffic_ratio: report.traffic_bytes as f64 / full_traffic_bytes as f64,
                sparse: dirty_workers * (1 + M) < M * world,
            });
        }
        Self {
            arch: std::env::consts::ARCH.to_string(),
            host_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            requested_threads: threads,
            shapes,
        }
    }

    /// Whether the *latency* comparison should fail the build. Wall
    /// times on a single-core host measure time-slicing, not the
    /// paths, so the latency gate downgrades to advisory there. The
    /// traffic gate is byte accounting and is enforced everywhere —
    /// see [`DeltaBenchReport::traffic_regressions`].
    pub fn gate_enforced(&self) -> bool {
        self.host_threads >= 2
    }

    /// A loud, CI-visible warning when multi-threaded numbers were
    /// requested but the latency gate cannot be enforced. `None` on
    /// healthy hosts (or honest single-thread runs).
    pub fn gate_warning(&self) -> Option<String> {
        (self.requested_threads >= 2 && !self.gate_enforced()).then(|| {
            format!(
                "WARNING: --threads {} requested but the host advertises {} thread(s); \
                 the {LATENCY_GATE} delta-latency gate was NOT enforced in this run \
                 (the traffic gate still was — byte accounting is host-independent)",
                self.requested_threads, self.host_threads
            )
        })
    }

    /// Reports the gate's disposition into a telemetry recorder so an
    /// attached exporter surfaces advisory downgrades, mirroring the
    /// pipeline bench.
    pub fn record_gate_telemetry(&self, recorder: &ecc_telemetry::Recorder) {
        match self.gate_warning() {
            Some(warning) => {
                recorder.counter("bench.gate.advisory").incr();
                recorder.event("gate.warning", format!("delta-bench: {warning}"));
            }
            None => {
                recorder.counter("bench.gate.enforced").incr();
            }
        }
    }

    /// Sparse shapes whose delta traffic reached the full-save `m·s·W`
    /// bound. Deterministic byte accounting: enforced on every host —
    /// a non-empty result always fails CI.
    pub fn traffic_regressions(&self) -> Vec<String> {
        self.shapes
            .iter()
            .filter(|s| s.sparse && s.delta_traffic_bytes >= s.full_traffic_bytes)
            .map(|s| {
                format!(
                    "{}: delta moved {} bytes but the full-save bound is {} \
                     (ratio {:.2}, must be < 1.0 on sparse dirty sets)",
                    s.name, s.delta_traffic_bytes, s.full_traffic_bytes, s.traffic_ratio
                )
            })
            .collect()
    }

    /// Sparse shapes where the delta path lost to the full save by
    /// more than the documented tolerance. Fails CI only when
    /// [`DeltaBenchReport::gate_enforced`] holds.
    pub fn latency_regressions(&self) -> Vec<String> {
        self.shapes
            .iter()
            .filter(|s| s.sparse && s.delta_ms > s.full_ms * LATENCY_GATE)
            .map(|s| {
                format!(
                    "{}: delta {:.2} ms vs full {:.2} ms ({:.2}x, gate {LATENCY_GATE})",
                    s.name, s.delta_ms, s.full_ms, s.speedup
                )
            })
            .collect()
    }

    /// The best traffic saving across sparse shapes — the headline.
    /// `None` when the ladder has no sparse shape.
    pub fn best_traffic_saving(&self) -> Option<f64> {
        self.shapes
            .iter()
            .filter(|s| s.sparse)
            .map(|s| 1.0 / s.traffic_ratio)
            .fold(None, |acc, x| Some(acc.map_or(x, |a: f64| a.max(x))))
    }

    /// Serializes the report as a stable, diffable JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"eccheck-delta-bench/1\",\n");
        out.push_str(&format!("  \"arch\": \"{}\",\n", self.arch));
        out.push_str(&format!("  \"host_threads\": {},\n", self.host_threads));
        out.push_str(&format!("  \"requested_threads\": {},\n", self.requested_threads));
        out.push_str(&format!("  \"latency_gate_enforced\": {},\n", self.gate_enforced()));
        out.push_str("  \"shapes\": [\n");
        for (i, s) in self.shapes.iter().enumerate() {
            out.push_str(&format!(
                concat!(
                    "    {{\"name\": \"{}\", \"packet_size\": {}, \"shard_bytes\": {}, ",
                    "\"dirty_workers\": {}, \"world\": {}, \"full_ms\": {:.3}, ",
                    "\"delta_ms\": {:.3}, \"speedup\": {:.3}, \"full_traffic_bytes\": {}, ",
                    "\"delta_traffic_bytes\": {}, \"traffic_ratio\": {:.4}, ",
                    "\"sparse\": {}}}{}\n"
                ),
                s.name,
                s.packet_size,
                s.shard_bytes,
                s.dirty_workers,
                s.world,
                s.full_ms,
                s.delta_ms,
                s.speedup,
                s.full_traffic_bytes,
                s.delta_traffic_bytes,
                s.traffic_ratio,
                s.sparse,
                if i + 1 == self.shapes.len() { "" } else { "," },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// A compact GitHub-flavoured-markdown summary (for
    /// `$GITHUB_STEP_SUMMARY`): per-density wall times, speedups and
    /// traffic ratios.
    pub fn summary_markdown(&self) -> String {
        let mut out = String::from("### delta-bench\n\n");
        out.push_str(&format!(
            "delta vs full save on `{}` ({} host threads, {} requested); latency gate {}",
            self.arch,
            self.host_threads,
            self.requested_threads,
            if self.gate_enforced() { "enforced" } else { "advisory (single-core host)" },
        ));
        if let Some(saving) = self.best_traffic_saving() {
            out.push_str(&format!("; best sparse traffic saving: **{saving:.1}x**"));
        }
        out.push_str("\n\n");
        if let Some(warning) = self.gate_warning() {
            out.push_str(&format!("⚠️ **{warning}**\n\n"));
        }
        out.push_str(
            "| shape | dirty | full ms | delta ms | speedup | delta bytes | bound bytes | ratio |\n",
        );
        out.push_str("|---|---|---|---|---|---|---|---|\n");
        for s in &self.shapes {
            out.push_str(&format!(
                "| {} | {}/{} | {:.2} | {:.2} | {:.2}x | {} | {} | {:.2}{} |\n",
                s.name,
                s.dirty_workers,
                s.world,
                s.full_ms,
                s.delta_ms,
                s.speedup,
                s.delta_traffic_bytes,
                s.full_traffic_bytes,
                s.traffic_ratio,
                if s.sparse { "" } else { " (dense, unbounded)" },
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_report_is_complete_and_parseable() {
        let report = DeltaBenchReport::collect_custom(
            &[("tiny-sparse", 1 << 10, 1 << 12, 1), ("tiny-dense", 1 << 10, 1 << 12, 8)],
            2,
        );
        assert_eq!(report.shapes.len(), 2);
        let sparse = &report.shapes[0];
        assert!(sparse.sparse, "1 of 8 dirty is sparse under (k, m) = (2, 2)");
        assert!(sparse.full_ms > 0.0 && sparse.delta_ms > 0.0);
        assert!(sparse.delta_traffic_bytes > 0);
        assert!(
            sparse.delta_traffic_bytes < sparse.full_traffic_bytes,
            "sparse delta traffic must beat the m·s·W bound"
        );
        let dense = &report.shapes[1];
        assert!(!dense.sparse, "8 of 8 dirty exceeds the parity-only bound by design");

        assert!(report.traffic_regressions().is_empty());
        assert_eq!(report.gate_warning().is_some(), !report.gate_enforced());

        let json = report.to_json();
        let doc = ecc_trace::json::parse(&json).expect("report JSON parses");
        assert_eq!(doc.get("schema").and_then(|v| v.as_str()), Some("eccheck-delta-bench/1"));
        let shapes = doc.get("shapes").and_then(|v| v.as_arr()).expect("shapes array");
        assert_eq!(shapes.len(), 2);
        assert_eq!(shapes[0].get("dirty_workers").and_then(|v| v.as_f64()), Some(1.0));

        let md = report.summary_markdown();
        assert!(md.contains("delta-bench"));
        assert!(md.contains("| shape |"));
    }

    #[test]
    fn sparse_traffic_follows_the_linearity_model() {
        // 1 dirty worker under (k, m) = (2, 2), W = 8: the delta moves
        // region·(1 + m) = 3·s bytes against a bound of m·s·W = 16·s.
        let report = DeltaBenchReport::collect_custom(&[("one-dirty", 1 << 10, 1 << 12, 1)], 1);
        let s = &report.shapes[0];
        let region = s.delta_traffic_bytes / 3;
        assert_eq!(s.delta_traffic_bytes, region * 3);
        assert_eq!(s.full_traffic_bytes, region * 16);
        assert!((s.traffic_ratio - 3.0 / 16.0).abs() < 1e-9);
    }

    #[test]
    fn gate_telemetry_mirrors_the_warning_state() {
        let report = DeltaBenchReport::collect_custom(&[("tiny", 1 << 10, 1 << 12, 1)], 2);
        let recorder = ecc_telemetry::Recorder::new();
        report.record_gate_telemetry(&recorder);
        let snap = recorder.snapshot();
        if report.gate_warning().is_some() {
            assert_eq!(snap.counter("bench.gate.advisory"), 1);
            assert!(snap.events.iter().any(|e| e.name == "gate.warning"));
        } else {
            assert_eq!(snap.counter("bench.gate.enforced"), 1);
            assert!(snap.events.is_empty());
        }
    }
}
