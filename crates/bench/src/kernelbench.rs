//! The kernel bench harness behind the `kernel-bench` binary.
//!
//! Sweeps every available coding kernel over (op × region size) plus the
//! pooled encode over (k, m, w) shapes, reporting decimal GB/s, the
//! speedup of each kernel over the scalar reference, and which kernel the
//! runtime dispatcher actually selected on this host. The result
//! serializes to a stable JSON document (`BENCH_PR4.json` in CI, the
//! repo's first kernel-level perf baseline) and
//! [`KernelBenchReport::dispatch_regressions`] gates the CI job: the
//! dispatched kernel measurably losing to scalar fails the build.
//!
//! The pooled encode runs on an explicit thread count (`--threads` on
//! the binary) and the report records, for the dispatched kernel, the
//! *kernel→pool gap*: pooled encode GB/s over raw `mul_xor` GB/s at the
//! matching region size. The ROADMAP target — pooled encode within 1.5×
//! of raw kernel speed — turns into [`POOL_GATE`], enforced whenever the
//! pool actually has ≥ 2 threads to schedule across.

use std::time::Instant;

use ecc_erasure::{CodeParams, CodingPool, ErasureCode};
use ecc_gf::kernel::{active_kernel, available_kernels, force_kernel, Split8};
use ecc_gf::GaloisField;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Region sizes swept by default: L1-resident, L2-resident, and two
/// memory-streaming sizes.
pub const DEFAULT_REGION_SIZES: [usize; 4] = [4 << 10, 64 << 10, 1 << 20, 8 << 20];

/// Bytes each timing repetition processes (larger regions loop fewer
/// times); three repetitions are taken and the fastest wins.
const TARGET_BYTES_PER_REP: usize = 32 << 20;
const MEASURE_ITERS: usize = 3;

/// Noise tolerance for the dispatch gate on direct region ops: the
/// dispatched kernel must reach at least this fraction of scalar
/// throughput at every sweep point.
const REGION_GATE: f64 = 0.95;
/// Same gate for pooled encode, looser because thread scheduling adds
/// run-to-run jitter.
const ENCODE_GATE: f64 = 0.90;

/// The kernel→pool gap gate (ROADMAP: pooled encode within 1.5× of raw
/// kernel speed): pooled encode GB/s must reach at least `1/1.5` of the
/// dispatched kernel's raw `mul_xor` GB/s at the matching region size.
/// Enforced only when the pool runs ≥ 2 threads — with one worker the
/// comparison measures scheduling overhead, not the fused executor.
pub const POOL_GATE: f64 = 1.0 / 1.5;

/// Throughput of one kernel on one region op at one size.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionOpPerf {
    /// Kernel name (`scalar`, `ssse3`, `avx2`, `neon`).
    pub kernel: String,
    /// Operation: `xor`, `mul` or `mul_xor`.
    pub op: String,
    /// Region length in bytes.
    pub region_bytes: usize,
    /// Measured throughput, decimal GB/s.
    pub gbps: f64,
    /// This kernel's throughput over scalar's at the same (op, size).
    pub speedup_vs_scalar: f64,
}

/// Throughput of the pooled systematic encode under one forced kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodePerf {
    /// Kernel name the encode was forced to.
    pub kernel: String,
    /// Data-chunk count.
    pub k: usize,
    /// Parity-chunk count.
    pub m: usize,
    /// Field width.
    pub w: u8,
    /// Bytes per data chunk.
    pub chunk_bytes: usize,
    /// Measured payload throughput (`k · chunk_bytes` per encode), GB/s.
    pub gbps: f64,
    /// This kernel's throughput over scalar's at the same shape.
    pub speedup_vs_scalar: f64,
}

/// The full kernel bench report (`BENCH_PR4.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct KernelBenchReport {
    /// Target architecture the binary was built for.
    pub arch: String,
    /// Kernel the runtime dispatcher selected on this host.
    pub selected: String,
    /// Coding-pool worker threads used for the encode sweep.
    pub threads: usize,
    /// Hardware threads the host advertised when the sweep ran.
    pub host_threads: usize,
    /// Every kernel available on this host, best first.
    pub kernels: Vec<String>,
    /// Direct region-op sweep, kernel-major.
    pub regions: Vec<RegionOpPerf>,
    /// Pooled-encode sweep, kernel-major.
    pub encodes: Vec<EncodePerf>,
}

/// Default coding-pool thread count: the host's parallelism, capped at
/// 4 workers so laptop and CI numbers stay comparable.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(4)
}

fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

/// Best-of-N decimal GB/s for `bytes` processed per call to `op`.
fn best_rate(bytes: u64, mut op: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..MEASURE_ITERS {
        let t = Instant::now();
        op();
        best = best.min(t.elapsed().as_secs_f64());
    }
    bytes as f64 / best / 1e9
}

impl KernelBenchReport {
    /// Runs the default sweep: every available kernel × `xor`/`mul`/
    /// `mul_xor` × [`DEFAULT_REGION_SIZES`], plus pooled encode on the
    /// `(2,2,8)`, `(4,2,8)` and `(8,4,8)` shapes at 1 MiB chunks, on
    /// the host's parallelism (capped at 4 workers).
    ///
    /// Kernel forcing is process-global, so the previously dispatched
    /// kernel is restored before returning.
    pub fn collect() -> Self {
        Self::collect_with_threads(default_threads())
    }

    /// [`KernelBenchReport::collect`] with an explicit coding-pool
    /// thread count (the binary's `--threads` flag).
    pub fn collect_with_threads(threads: usize) -> Self {
        Self::collect_custom(&DEFAULT_REGION_SIZES, 1 << 20, threads)
    }

    /// [`KernelBenchReport::collect`] with explicit region sizes, encode
    /// chunk length and pool threads (tests use tiny values to stay
    /// fast).
    ///
    /// # Panics
    ///
    /// Panics when `sizes` is empty or a standard shape fails to build —
    /// both are harness defects worth failing loudly on.
    pub fn collect_custom(sizes: &[usize], encode_chunk: usize, threads: usize) -> Self {
        assert!(!sizes.is_empty(), "kernel bench needs at least one region size");
        let selected = active_kernel().name().to_string();
        let kernels: Vec<String> =
            available_kernels().iter().map(|k| k.name().to_string()).collect();
        let gf = GaloisField::new(8).expect("GF(2^8) builds");
        let table = Split8::new(&gf, 0x53).expect("coefficient in range");

        let mut regions = Vec::new();
        for &size in sizes {
            let src = random_bytes(size, 0xA11CE);
            let mut dst = random_bytes(size, 0xB0B);
            let reps = (TARGET_BYTES_PER_REP / size).max(1);
            let bytes = (size * reps) as u64;
            for op in ["xor", "mul", "mul_xor"] {
                let mut scalar_gbps = 0.0;
                // available_kernels() is best-first; iterate reversed so
                // scalar is measured first and speedups can be computed
                // in one pass.
                for kernel in available_kernels().iter().rev() {
                    let gbps = best_rate(bytes, || {
                        for _ in 0..reps {
                            match op {
                                "xor" => kernel.xor_into(&mut dst, &src),
                                "mul" => kernel.mul(&table, &src, &mut dst),
                                _ => kernel.mul_xor(&table, &src, &mut dst),
                            }
                        }
                    });
                    if kernel.name() == "scalar" {
                        scalar_gbps = gbps;
                    }
                    regions.push(RegionOpPerf {
                        kernel: kernel.name().to_string(),
                        op: op.to_string(),
                        region_bytes: size,
                        gbps,
                        speedup_vs_scalar: gbps / scalar_gbps,
                    });
                }
            }
        }

        let mut encodes = Vec::new();
        let threads = threads.max(1);
        let pool = CodingPool::new(threads);
        for (k, m, w) in [(2usize, 2usize, 8u8), (4, 2, 8), (8, 4, 8)] {
            let code = ErasureCode::cauchy_good(CodeParams::new(k, m, w).expect("standard shape"))
                .expect("standard shape");
            let chunk = encode_chunk.max(code.params().alignment());
            let data: Vec<Vec<u8>> =
                (0..k).map(|i| random_bytes(chunk, 0xC0DE + i as u64)).collect();
            let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
            let payload = (k * chunk) as u64;
            let mut scalar_gbps = 0.0;
            for kernel in available_kernels().iter().rev() {
                force_kernel(kernel.name()).expect("available kernel forces");
                let gbps = best_rate(payload, || drop(pool.encode(&code, &refs).unwrap()));
                if kernel.name() == "scalar" {
                    scalar_gbps = gbps;
                }
                encodes.push(EncodePerf {
                    kernel: kernel.name().to_string(),
                    k,
                    m,
                    w,
                    chunk_bytes: chunk,
                    gbps,
                    speedup_vs_scalar: gbps / scalar_gbps,
                });
            }
        }
        force_kernel(&selected).expect("previously selected kernel restores");

        Self {
            arch: std::env::consts::ARCH.to_string(),
            selected,
            threads,
            host_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kernels,
            regions,
            encodes,
        }
    }

    /// The kernel→pool gap per encode shape of the dispatched kernel:
    /// `(shape label, pooled GB/s / raw mul_xor GB/s at the matching
    /// region size)`. Shapes whose chunk length was not also swept as a
    /// region size are skipped — the ratio only means something at
    /// matching working-set sizes.
    pub fn pool_ratios(&self) -> Vec<(String, f64)> {
        self.encodes
            .iter()
            .filter(|e| e.kernel == self.selected)
            .filter_map(|e| {
                let raw = self.regions.iter().find(|r| {
                    r.kernel == self.selected
                        && r.op == "mul_xor"
                        && r.region_bytes == e.chunk_bytes
                })?;
                Some((format!("({},{},{})", e.k, e.m, e.w), e.gbps / raw.gbps))
            })
            .collect()
    }

    /// The worst kernel→pool gap across the dispatched kernel's encode
    /// shapes (`None` when no shape matched a swept region size).
    pub fn min_pool_ratio(&self) -> Option<f64> {
        self.pool_ratios()
            .into_iter()
            .map(|(_, r)| r)
            .fold(None, |acc, r| Some(acc.map_or(r, |a: f64| a.min(r))))
    }

    /// Whether [`POOL_GATE`] should fail the build: the fused executor
    /// can only close the kernel→pool gap when it has ≥ 2 workers to
    /// spread stripes across *and* ≥ 2 hardware threads to run them on
    /// (on one core the workers time-slice against the measurement, so
    /// the ratio measures scheduler overhead, not the pool).
    pub fn pool_gate_enforced(&self) -> bool {
        self.threads >= 2 && self.host_threads >= 2
    }

    /// A loud warning when ≥ 2 pool threads were requested but the gate
    /// could not be armed — so a single-core host can never silently
    /// green-light the kernel→pool gap.
    pub fn pool_gate_warning(&self) -> Option<String> {
        (self.threads >= 2 && !self.pool_gate_enforced()).then(|| {
            format!(
                "WARNING: --threads {} requested but the host advertises {} hardware \
                 thread(s); the kernel→pool gap gate ({POOL_GATE:.2}) was NOT enforced \
                 in this run",
                self.threads, self.host_threads
            )
        })
    }

    /// Reports the pool gate's disposition into a telemetry recorder:
    /// an enforced gate bumps `bench.pool_gate.enforced`, an advisory
    /// downgrade bumps `bench.pool_gate.advisory` and appends a
    /// `gate.warning` event (surfaced as a warning on the
    /// observability plane's `/events`).
    pub fn record_gate_telemetry(&self, recorder: &ecc_telemetry::Recorder) {
        match self.pool_gate_warning() {
            Some(warning) => {
                recorder.counter("bench.pool_gate.advisory").incr();
                recorder.event("gate.warning", format!("kernel-bench: {warning}"));
            }
            None => {
                recorder.counter("bench.pool_gate.enforced").incr();
            }
        }
    }

    /// Sweep points where the *dispatched* kernel measurably loses to
    /// scalar (beyond the documented noise tolerances); empty on a
    /// healthy host. CI fails when this is non-empty.
    pub fn dispatch_regressions(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.selected == "scalar" {
            return out;
        }
        for r in self.regions.iter().filter(|r| r.kernel == self.selected) {
            if r.speedup_vs_scalar < REGION_GATE {
                out.push(format!(
                    "{} {} @ {} B: {:.2} GB/s is {:.2}x scalar (< {REGION_GATE})",
                    r.kernel, r.op, r.region_bytes, r.gbps, r.speedup_vs_scalar
                ));
            }
        }
        for e in self.encodes.iter().filter(|e| e.kernel == self.selected) {
            if e.speedup_vs_scalar < ENCODE_GATE {
                out.push(format!(
                    "{} encode ({},{},{}) @ {} B chunks: {:.2} GB/s is {:.2}x scalar (< {ENCODE_GATE})",
                    e.kernel, e.k, e.m, e.w, e.chunk_bytes, e.gbps, e.speedup_vs_scalar
                ));
            }
        }
        if self.pool_gate_enforced() {
            for (shape, ratio) in self.pool_ratios() {
                if ratio < POOL_GATE {
                    out.push(format!(
                        "kernel→pool gap on {shape}: pooled encode is {ratio:.2}x of raw \
                         {} mul_xor at the same region size (< {POOL_GATE:.2})",
                        self.selected
                    ));
                }
            }
        }
        out
    }

    /// The dispatched kernel's best speedup over scalar across the
    /// region-op sweep — the headline number.
    pub fn best_dispatch_speedup(&self) -> f64 {
        self.regions
            .iter()
            .filter(|r| r.kernel == self.selected)
            .map(|r| r.speedup_vs_scalar)
            .fold(1.0, f64::max)
    }

    /// Serializes the report as a stable, diffable JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"eccheck-kernel-bench/1\",\n");
        out.push_str(&format!("  \"arch\": \"{}\",\n", self.arch));
        out.push_str(&format!("  \"selected\": \"{}\",\n", self.selected));
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!("  \"host_threads\": {},\n", self.host_threads));
        out.push_str(&format!("  \"pool_gate_enforced\": {},\n", self.pool_gate_enforced()));
        match self.min_pool_ratio() {
            Some(r) => out.push_str(&format!("  \"min_pool_ratio\": {r:.3},\n")),
            None => out.push_str("  \"min_pool_ratio\": null,\n"),
        }
        let names: Vec<String> = self.kernels.iter().map(|k| format!("\"{k}\"")).collect();
        out.push_str(&format!("  \"kernels\": [{}],\n", names.join(", ")));
        out.push_str("  \"regions\": [\n");
        for (i, r) in self.regions.iter().enumerate() {
            out.push_str(&format!(
                concat!(
                    "    {{\"kernel\": \"{}\", \"op\": \"{}\", \"region_bytes\": {}, ",
                    "\"gbps\": {:.3}, \"speedup_vs_scalar\": {:.3}}}{}\n"
                ),
                r.kernel,
                r.op,
                r.region_bytes,
                r.gbps,
                r.speedup_vs_scalar,
                if i + 1 == self.regions.len() { "" } else { "," },
            ));
        }
        out.push_str("  ],\n  \"encodes\": [\n");
        for (i, e) in self.encodes.iter().enumerate() {
            out.push_str(&format!(
                concat!(
                    "    {{\"kernel\": \"{}\", \"k\": {}, \"m\": {}, \"w\": {}, ",
                    "\"chunk_bytes\": {}, \"gbps\": {:.3}, \"speedup_vs_scalar\": {:.3}}}{}\n"
                ),
                e.kernel,
                e.k,
                e.m,
                e.w,
                e.chunk_bytes,
                e.gbps,
                e.speedup_vs_scalar,
                if i + 1 == self.encodes.len() { "" } else { "," },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// A compact GitHub-flavoured-markdown summary (for
    /// `$GITHUB_STEP_SUMMARY`): selected kernel, headline speedup, and
    /// the dispatched kernel's per-op best rates.
    pub fn summary_markdown(&self) -> String {
        let mut out = String::from("### kernel-bench\n\n");
        out.push_str(&format!(
            "selected kernel: **{}** on `{}` (available: {}); best speedup vs scalar: **{:.2}x**\n\n",
            self.selected,
            self.arch,
            self.kernels.join(", "),
            self.best_dispatch_speedup()
        ));
        match self.min_pool_ratio() {
            Some(r) => out.push_str(&format!(
                "kernel→pool gap @ {} threads: pooled encode reaches **{:.2}x** of raw \
                 `mul_xor` at matching region size (gate {:.2}, {})\n\n",
                self.threads,
                r,
                POOL_GATE,
                if self.pool_gate_enforced() {
                    "enforced"
                } else if self.threads >= 2 {
                    "advisory: single-core host"
                } else {
                    "advisory: < 2 pool threads"
                },
            )),
            None => out.push_str(
                "kernel→pool gap: not measured (no encode chunk size matched a region size)\n\n",
            ),
        }
        if !self.pool_gate_enforced() {
            out.push_str(if self.threads >= 2 {
                "⚠️ **WARNING**: the kernel→pool gap gate is NOT enforced in this run — the \
                 host advertises a single hardware thread, so pool workers time-slice.\n\n"
            } else {
                "⚠️ **WARNING**: the kernel→pool gap gate is NOT enforced in this run — the \
                 pool has fewer than 2 worker threads.\n\n"
            });
        }
        out.push_str("| op | region | scalar GB/s | selected GB/s | speedup |\n");
        out.push_str("|---|---|---|---|---|\n");
        for r in self.regions.iter().filter(|r| r.kernel == self.selected) {
            let scalar = self
                .regions
                .iter()
                .find(|s| s.kernel == "scalar" && s.op == r.op && s.region_bytes == r.region_bytes)
                .map_or(0.0, |s| s.gbps);
            out.push_str(&format!(
                "| {} | {} | {:.2} | {:.2} | {:.2}x |\n",
                r.op,
                crate::fmt_bytes(r.region_bytes as u64),
                scalar,
                r.gbps,
                r.speedup_vs_scalar
            ));
        }
        out.push_str("\n| encode shape | chunk | scalar GB/s | selected GB/s | speedup |\n");
        out.push_str("|---|---|---|---|---|\n");
        for e in self.encodes.iter().filter(|e| e.kernel == self.selected) {
            let scalar = self
                .encodes
                .iter()
                .find(|s| s.kernel == "scalar" && s.k == e.k && s.m == e.m)
                .map_or(0.0, |s| s.gbps);
            out.push_str(&format!(
                "| ({},{},{}) | {} | {:.2} | {:.2} | {:.2}x |\n",
                e.k,
                e.m,
                e.w,
                crate::fmt_bytes(e.chunk_bytes as u64),
                scalar,
                e.gbps,
                e.speedup_vs_scalar
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One tiny sweep exercising the whole harness end to end. Kept as a
    /// single test because kernel forcing is process-global state.
    #[test]
    fn tiny_report_is_complete_and_parseable() {
        let before = active_kernel().name();
        // Chunk size equals the one swept region size so the
        // kernel→pool gap ratio is measurable.
        let report = KernelBenchReport::collect_custom(&[1 << 14], 1 << 14, 2);
        assert_eq!(active_kernel().name(), before, "collect must restore the kernel");

        let n_kernels = available_kernels().len();
        assert_eq!(report.kernels.len(), n_kernels);
        assert_eq!(report.regions.len(), 3 * n_kernels, "3 ops x kernels x 1 size");
        assert_eq!(report.encodes.len(), 3 * n_kernels, "3 shapes x kernels");
        assert!(report.regions.iter().all(|r| r.gbps > 0.0 && r.speedup_vs_scalar > 0.0));
        assert!(report.encodes.iter().all(|e| e.gbps > 0.0 && e.speedup_vs_scalar > 0.0));
        assert!(report.kernels.contains(&report.selected));
        assert!(report.best_dispatch_speedup() >= 1.0);
        assert_eq!(report.threads, 2);
        // Enforcement needs real parallelism; on a single-core host the
        // gate downgrades to advisory and must say so loudly.
        assert_eq!(report.pool_gate_enforced(), report.host_threads >= 2);
        assert_eq!(report.pool_gate_warning().is_some(), !report.pool_gate_enforced());
        assert_eq!(report.pool_ratios().len(), 3, "every shape matches the swept region size");
        assert!(report.min_pool_ratio().expect("ratio measured") > 0.0);

        let json = report.to_json();
        let doc = ecc_trace::json::parse(&json).expect("report JSON parses");
        assert_eq!(doc.get("selected").and_then(|v| v.as_str()), Some(report.selected.as_str()));
        assert_eq!(doc.get("threads").and_then(|v| v.as_f64()), Some(2.0));
        assert!(doc.get("min_pool_ratio").is_some());
        let regions = doc.get("regions").and_then(|v| v.as_arr()).expect("regions array");
        assert_eq!(regions.len(), report.regions.len());
        let encodes = doc.get("encodes").and_then(|v| v.as_arr()).expect("encodes array");
        assert_eq!(encodes.len(), report.encodes.len());

        let md = report.summary_markdown();
        assert!(md.contains("selected kernel"));
        assert!(md.contains("kernel→pool gap"));
        assert!(md.contains("| op | region |"));

        // No matching region size → gap unmeasured; one worker → gate
        // advisory. Same test body because kernel forcing is global.
        let report = KernelBenchReport::collect_custom(&[1 << 12], 1 << 13, 1);
        assert!(report.pool_ratios().is_empty());
        assert!(report.min_pool_ratio().is_none());
        assert!(!report.pool_gate_enforced(), "single-thread pools stay advisory");
        assert!(report.pool_gate_warning().is_none(), "one requested worker is not a surprise");
        assert!(report.to_json().contains("\"min_pool_ratio\": null"));

        // The telemetry hook mirrors the warning state exactly.
        let recorder = ecc_telemetry::Recorder::new();
        report.record_gate_telemetry(&recorder);
        let snap = recorder.snapshot();
        if report.pool_gate_warning().is_some() {
            assert_eq!(snap.counter("bench.pool_gate.advisory"), 1);
            assert!(snap.events.iter().any(|e| e.name == "gate.warning"));
        } else {
            assert_eq!(snap.counter("bench.pool_gate.enforced"), 1);
            assert!(snap.events.is_empty());
        }
    }
}
