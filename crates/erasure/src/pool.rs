//! The paper's thread-pool technique (§IV-A) as a coder: a whole encode
//! or decode coded stripe by stripe on concurrent CPU cores.
//!
//! XOR schedules act independently on every byte column, so the pool
//! allocates the output chunks once, cuts them into each stripe's row
//! slices ([`Geometry::split`]), and hands the stripes to the one stripe
//! executor ([`stripes::run`]), whose workers run the fused schedule
//! ([`crate::FusedSchedule`]) straight into them — bit-identical to a
//! single-threaded execution, with nothing reassembled afterwards. The
//! stripe cut takes no buffer cap: the pool codes whole chunks that are
//! already in memory, so the rule's `ps / 8` term alone sets it, eight or
//! so stripes whenever a sub-packet has 64 rows.
//!
//! A decode builds one plan — survivors, missing ids, and the schedule
//! from a single matrix inversion — exactly as [`ErasureCode::decode`]
//! does, then stripes that plan into the rebuilt chunks.

use ecc_telemetry::{Counter, Recorder};
use ecc_trace::{Tracer, CODING_PID};

use crate::code::{run_fused_stripe, CodeMetrics};
use crate::schedule::{FusedSchedule, ScheduleKind};
use crate::stripes::{self, Geometry};
use crate::{ErasureCode, ErasureError};

/// Telemetry handles for the pooled paths. A pooled encode bypasses
/// [`ErasureCode::encode`], so it records into the same `erasure.encode.*`
/// names through the code's own handles (keeping those totals complete
/// however an encode executes), plus pool-specific stripe counters.
#[derive(Debug, Clone)]
struct PoolMetrics {
    code: CodeMetrics,
    encode_stripes: Counter,
    decode_stripes: Counter,
}

/// A coding thread pool with a fixed degree of parallelism.
///
/// The pool uses scoped threads per operation rather than long-lived
/// workers: coding tasks are multi-megabyte, so spawn cost is negligible
/// and the API stays free of lifetime bookkeeping.
///
/// # Examples
///
/// ```
/// use ecc_erasure::{CodeParams, CodingPool, ErasureCode};
///
/// let code = ErasureCode::cauchy_good(CodeParams::new(2, 2, 8)?)?;
/// let pool = CodingPool::new(4);
/// let data = [vec![3u8; 1024], vec![5u8; 1024]];
/// let parallel = pool.encode(&code, &[&data[0], &data[1]])?;
/// let serial = code.encode(&[&data[0], &data[1]])?;
/// assert_eq!(parallel, serial);
/// # Ok::<(), ecc_erasure::ErasureError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CodingPool {
    threads: usize,
    metrics: Option<PoolMetrics>,
    tracer: Option<Tracer>,
}

impl CodingPool {
    /// Creates a pool that runs up to `threads` sub-tasks concurrently
    /// (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Self { threads: threads.max(1), metrics: None, tracer: None }
    }

    /// The configured degree of parallelism.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Attaches a telemetry recorder; pooled encodes record into the
    /// shared `erasure.encode.*` metrics plus `pool.*` stripe counters. A
    /// pooled decode records `erasure.decode.*` on the code's recorder,
    /// as a serial decode does.
    pub fn set_recorder(&mut self, recorder: &Recorder) {
        self.metrics = Some(PoolMetrics {
            code: CodeMetrics::attach(recorder),
            encode_stripes: recorder.counter("pool.encode.stripes"),
            decode_stripes: recorder.counter("pool.decode.stripes"),
        });
    }

    /// Attaches a span tracer: pooled encodes/decodes emit a
    /// `pool.{encode,decode}` span on the coding process's `pool` track
    /// plus one `{encode,decode}.stripe` span per stripe, re-emitted after
    /// the join in stripe order on the `workers` track — so the trace
    /// never depends on which worker coded a stripe.
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        self.tracer = Some(tracer.clone());
    }

    /// Parallel systematic encode: the `m` parity chunks, coded stripe by
    /// stripe with the fused smart schedule. Bit-identical to
    /// [`ErasureCode::encode`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`ErasureCode::encode`].
    pub fn encode(&self, code: &ErasureCode, data: &[&[u8]]) -> Result<Vec<Vec<u8>>, ErasureError> {
        let ps = code.validate_chunks(data, code.params().k())?;
        let fused = code.fused_schedule(ScheduleKind::Smart);
        let timer = self.metrics.as_ref().map(|m| m.code.recorder.timer("erasure.encode.ns"));
        let (parity, stripes) = self.run(fused, data, ps, ["pool.encode", "encode.stripe"]);
        drop(timer);
        if let Some(metrics) = &self.metrics {
            metrics.code.record_encode(data, &parity, fused.xor_count());
            metrics.encode_stripes.add(stripes as u64);
        }
        Ok(parity)
    }

    /// Parallel any-k decode: reconstructs all `k` data chunks from the
    /// surviving shards, the missing ones coded stripe by stripe from one
    /// decode plan. Bit-identical to [`ErasureCode::decode`], and recorded
    /// on the code's recorder as one decode.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ErasureCode::decode`].
    pub fn decode(
        &self,
        code: &ErasureCode,
        shards: &[Option<&[u8]>],
    ) -> Result<Vec<Vec<u8>>, ErasureError> {
        let plan = code.decode_plan(shards)?;
        let rebuilt = code.rebuild_with(&plan, |schedule| {
            let (rebuilt, stripes) = self.run(
                &schedule.fuse(),
                &plan.survivors,
                plan.ps,
                ["pool.decode", "decode.stripe"],
            );
            if let Some(metrics) = &self.metrics {
                metrics.decode_stripes.add(stripes as u64);
            }
            rebuilt
        });
        Ok(crate::code::with_rebuilt(shards, code.params().k(), rebuilt))
    }

    /// Codes `fused` over `sources` (each `w · ps` bytes) into freshly
    /// allocated output chunks, one stripe per task, and returns them with
    /// the stripe count. With a tracer attached, emits `run_span` over the
    /// whole run and, deferred, one `stripe_span` per stripe.
    ///
    /// # Panics
    ///
    /// Panics when a coding worker panicked.
    fn run(
        &self,
        fused: &FusedSchedule,
        sources: &[&[u8]],
        ps: usize,
        [run_span, stripe_span]: [&str; 2],
    ) -> (Vec<Vec<u8>>, usize) {
        let (k, m, w) = (fused.k(), fused.m(), fused.w());
        let geo = Geometry::new(k, m, w, w * ps, usize::MAX);
        let mut chunks: Vec<Vec<u8>> = (0..m).map(|_| vec![0u8; w * ps]).collect();
        // Tracks are registered before any worker starts, so their ids
        // are deterministic.
        let tracks = self.tracer.as_ref().map(|tracer| {
            let pool = tracer.track(CODING_PID, "coding", "pool");
            let workers = tracer.track(CODING_PID, "coding", "workers");
            (tracer, pool, workers)
        });
        let span = tracks.map(|(tracer, pool, _)| {
            tracer.span(pool, run_span, format!("{} stripes", geo.stripes))
        });
        let clock = tracks.map(|(tracer, _, _)| tracer);
        let times = stripes::run(self.threads, geo.split(&mut chunks), |stripe, mut out| {
            let begin = clock.map(Tracer::now_ns);
            run_fused_stripe(fused, sources, ps, geo.rows_of(stripe).0, &mut out);
            begin.zip(clock.map(Tracer::now_ns))
        })
        .expect("a coding worker panicked");
        drop(span);
        if let Some((tracer, _, workers)) = tracks {
            for (stripe, times) in times.into_iter().enumerate() {
                let Some((begin, end)) = times else { continue };
                let (lo, hi) = geo.rows_of(stripe);
                tracer.begin_at(workers, stripe_span, format!("rows {lo}..{hi}"), begin);
                tracer.end_at(workers, end);
            }
        }
        (chunks, geo.stripes)
    }
}

impl Default for CodingPool {
    /// A pool sized to the machine's available parallelism (or 4 when
    /// that cannot be determined).
    fn default() -> Self {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        Self::new(threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CodeParams;
    use rand::prelude::*;

    fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen()).collect()
    }

    #[test]
    fn pool_encode_bit_identical_across_thread_counts() {
        let code = ErasureCode::cauchy_good(CodeParams::new(3, 2, 8).unwrap()).unwrap();
        let data: Vec<Vec<u8>> = (0..3).map(|i| random_bytes(64 * 128, i)).collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let serial = code.encode(&refs).unwrap();
        for threads in [1, 2, 3, 4, 8] {
            let parallel = CodingPool::new(threads).encode(&code, &refs).unwrap();
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    /// More workers than stripes: the runner spawns no more workers than
    /// there are stripes, and the pooled result still matches.
    #[test]
    fn pool_encode_with_threads_exceeding_tasks() {
        let code = ErasureCode::cauchy_good(CodeParams::new(2, 2, 8).unwrap()).unwrap();
        let data: Vec<Vec<u8>> = (0..2).map(|i| random_bytes(8 * 256, i + 40)).collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let serial = code.encode(&refs).unwrap();
        assert_eq!(CodingPool::new(64).encode(&code, &refs).unwrap(), serial);
    }

    /// The pooled (fused, striped) encode agrees with the *unfused*
    /// sequential oracle, not just the fused one.
    #[test]
    fn pool_encode_matches_unfused_oracle() {
        let code = ErasureCode::cauchy_good(CodeParams::new(4, 2, 8).unwrap()).unwrap();
        let data: Vec<Vec<u8>> = (0..4).map(|i| random_bytes(64 * 64, i + 7)).collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let oracle = code.encode_unfused(&refs, ScheduleKind::Smart).unwrap();
        assert_eq!(CodingPool::new(4).encode(&code, &refs).unwrap(), oracle);
    }

    #[test]
    fn pool_encode_single_stripe_matches_serial() {
        let code = ErasureCode::cauchy_good(CodeParams::new(2, 2, 8).unwrap()).unwrap();
        let data = [random_bytes(64, 9), random_bytes(64, 10)];
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let serial = code.encode(&refs).unwrap();
        let parallel = CodingPool::new(16).encode(&code, &refs).unwrap();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn pool_encode_validates_input() {
        let code = ErasureCode::cauchy_good(CodeParams::new(2, 2, 8).unwrap()).unwrap();
        let short = vec![0u8; 63];
        assert!(CodingPool::new(2).encode(&code, &[&short, &short]).is_err());
        let a = vec![0u8; 64];
        assert!(CodingPool::new(2).encode(&code, &[&a]).is_err());
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(CodingPool::new(0).threads(), 1);
    }

    #[test]
    fn pool_decode_bit_identical_across_thread_counts() {
        let code = ErasureCode::cauchy_good(CodeParams::new(3, 2, 8).unwrap()).unwrap();
        let data: Vec<Vec<u8>> = (0..3).map(|i| random_bytes(64 * 256, i)).collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = code.encode(&refs).unwrap();
        // Lose data chunks 0 and 2.
        let shards: Vec<Option<&[u8]>> =
            vec![None, Some(&data[1]), None, Some(&parity[0]), Some(&parity[1])];
        let serial = code.decode(&shards).unwrap();
        for threads in [1usize, 2, 4, 8] {
            let parallel = CodingPool::new(threads).decode(&code, &shards).unwrap();
            assert_eq!(parallel, serial, "threads={threads}");
        }
        assert_eq!(serial, data);
    }

    /// A pooled decode is one decode: one plan, one inversion, one set of
    /// `erasure.decode.*` records on the code, however many stripes ran.
    #[test]
    fn pool_decode_records_one_decode() {
        let mut code = ErasureCode::cauchy_good(CodeParams::new(3, 2, 8).unwrap()).unwrap();
        let recorder = Recorder::new();
        code.set_recorder(&recorder);
        let len = 64 * 256;
        let data: Vec<Vec<u8>> = (0..3).map(|i| random_bytes(len, i + 60)).collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = code.encode(&refs).unwrap();
        let shards: Vec<Option<&[u8]>> =
            vec![None, Some(&data[1]), None, Some(&parity[0]), Some(&parity[1])];
        assert_eq!(CodingPool::new(4).decode(&code, &shards).unwrap(), data);
        let snap = recorder.snapshot();
        assert_eq!(snap.counter("erasure.decode.calls"), 1);
        assert_eq!(snap.counter("erasure.decode.rebuilt_chunks"), 2);
        assert_eq!(snap.counter("erasure.decode.bytes"), (3 * len) as u64);
    }

    /// A traced pooled encode and decode emit their `pool.*` span and one
    /// stripe span per stripe, in stripe order: under a manual clock the
    /// trace is the same bytes at every thread count.
    #[test]
    fn pool_trace_is_identical_across_thread_counts() {
        let code = ErasureCode::cauchy_good(CodeParams::new(3, 2, 8).unwrap()).unwrap();
        let data: Vec<Vec<u8>> = (0..3).map(|i| random_bytes(64 * 256, i + 80)).collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = code.encode(&refs).unwrap();
        let shards: Vec<Option<&[u8]>> =
            vec![None, Some(&data[1]), None, Some(&parity[0]), Some(&parity[1])];
        let trace_at = |threads| {
            let (tracer, _clock) = Tracer::with_manual_clock();
            let mut pool = CodingPool::new(threads);
            pool.set_tracer(&tracer);
            pool.encode(&code, &refs).unwrap();
            pool.decode(&code, &shards).unwrap();
            tracer.chrome_trace_json()
        };
        let serial = trace_at(1);
        ecc_trace::validate_chrome_trace(&serial).unwrap();
        for name in ["pool.encode", "pool.decode"] {
            assert_eq!(serial.matches(&format!("\"{name}\"")).count(), 1, "{name}");
        }
        for name in ["encode.stripe", "decode.stripe"] {
            assert_eq!(serial.matches(&format!("\"{name}\"")).count(), 8, "{name}: 8 stripes");
        }
        for threads in [2, 3, 8] {
            assert_eq!(trace_at(threads), serial, "threads={threads}");
        }
    }

    #[test]
    fn pool_decode_single_stripe_matches_serial() {
        let code = ErasureCode::cauchy_good(CodeParams::new(2, 2, 8).unwrap()).unwrap();
        let data: Vec<Vec<u8>> = (0..2).map(|i| random_bytes(64, i)).collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = code.encode(&refs).unwrap();
        let shards: Vec<Option<&[u8]>> = vec![None, None, Some(&parity[0]), Some(&parity[1])];
        assert_eq!(CodingPool::new(8).decode(&code, &shards).unwrap(), data);
    }

    #[test]
    fn pool_decode_propagates_errors() {
        let code = ErasureCode::cauchy_good(CodeParams::new(2, 2, 8).unwrap()).unwrap();
        let shards: Vec<Option<&[u8]>> = vec![None, None, None, None];
        assert!(CodingPool::new(4).decode(&code, &shards).is_err());
    }
}
