//! The paper's thread-pool technique (§IV-A): region-coding tasks are
//! split into sub-ranges executed concurrently on CPU cores.
//!
//! XOR schedules and GF(2^w) table multiplication act independently on
//! every byte column, so an encode over a large contiguous region can be
//! cut into stripes, each stripe coded by a different thread, and the
//! results concatenated — bit-identical to a single-threaded execution.
//!
//! Scheduling is *work-stealing*, not static: a pooled operation is cut
//! into many more tasks than threads (a size-based grain, independent of
//! the thread count), the tasks are seeded round-robin into per-worker
//! FIFO deques, and an idle worker batch-steals the oldest half of a
//! busy worker's backlog. A slow core — or a worker stalled behind an
//! interrupt — therefore delays only the task it is executing, never the
//! rest of its assignment. Results land in slots keyed by task index and
//! are reassembled in task order, so the output (and every telemetry
//! counter and deferred trace span) is a pure function of the operation
//! geometry, regardless of which worker ran what.
//!
//! Stripe coding itself runs the *fused* XOR schedule
//! ([`crate::FusedSchedule`]): each source sub-packet is read once per
//! parity set rather than once per XOR op.

use crossbeam_deque::{Steal, Stealer, Worker};
use ecc_telemetry::{Counter, Recorder};
use ecc_trace::{Tracer, TrackId, CODING_PID};

use crate::code::run_fused_stripe;
use crate::region::MulTable;
use crate::schedule::ScheduleKind;
use crate::{region, ErasureCode, ErasureError};

/// Telemetry handles for the pooled encode path. The pooled path bypasses
/// [`ErasureCode::encode`], so it records into the same `erasure.encode.*`
/// names (keeping those totals complete however an encode executes) plus
/// pool-specific stripe counters.
#[derive(Debug, Clone)]
struct PoolMetrics {
    recorder: Recorder,
    encode_calls: Counter,
    encode_bytes: Counter,
    encode_parity_bytes: Counter,
    encode_xor_ops: Counter,
    encode_stripes: Counter,
    decode_stripes: Counter,
    kernel_bytes: Counter,
}

impl PoolMetrics {
    fn attach(recorder: &Recorder) -> Self {
        Self {
            recorder: recorder.clone(),
            encode_calls: recorder.counter("erasure.encode.calls"),
            encode_bytes: recorder.counter("erasure.encode.bytes"),
            encode_parity_bytes: recorder.counter("erasure.encode.parity_bytes"),
            encode_xor_ops: recorder.counter("erasure.encode.xor_ops"),
            encode_stripes: recorder.counter("pool.encode.stripes"),
            decode_stripes: recorder.counter("pool.decode.stripes"),
            kernel_bytes: crate::code::kernel_bytes_counter(recorder),
        }
    }
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
    /// shared `erasure.encode.*` metrics plus `pool.*` stripe counters.
    pub fn set_recorder(&mut self, recorder: &Recorder) {
        self.metrics = Some(PoolMetrics::attach(recorder));
    }

    /// Attaches a span tracer: pooled encodes/decodes emit a
    /// `pool.{encode,decode}` span on the coding process's `pool` track
    /// plus one `{encode,decode}.stripe` span per task, re-emitted after
    /// the join in task order on the `workers` track — so the trace
    /// never depends on which worker executed (or stole) a task.
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        self.tracer = Some(tracer.clone());
    }

    /// Pre-registers (single-threaded, so track ids are deterministic)
    /// the pool-level and deferred-worker tracks.
    fn pool_tracks(&self) -> Option<(Tracer, TrackId, TrackId)> {
        self.tracer.as_ref().map(|tracer| {
            let pool = tracer.track(CODING_PID, "coding", "pool");
            let workers = tracer.track(CODING_PID, "coding", "workers");
            (tracer.clone(), pool, workers)
        })
    }

    /// Parallel `dst ^= src` over equal-length regions.
    ///
    /// # Panics
    ///
    /// Panics when the slices have different lengths.
    pub fn xor_into(&self, dst: &mut [u8], src: &[u8]) {
        assert_eq!(dst.len(), src.len(), "xor_into requires equal-length slices");
        let stripe = stripe_len(dst.len(), self.threads);
        if stripe == 0 || self.threads == 1 {
            region::xor_into(dst, src);
            return;
        }
        std::thread::scope(|s| {
            for (d, sr) in dst.chunks_mut(stripe).zip(src.chunks(stripe)) {
                s.spawn(move || region::xor_into(d, sr));
            }
        });
    }

    /// Parallel table multiplication: `dst = coef · src`, or
    /// `dst ^= coef · src` when `accumulate` is set.
    ///
    /// # Panics
    ///
    /// Panics when the slices have different lengths.
    pub fn apply_table(&self, table: &MulTable, src: &[u8], dst: &mut [u8], accumulate: bool) {
        assert_eq!(src.len(), dst.len(), "apply_table requires equal-length slices");
        let stripe = stripe_len(dst.len(), self.threads);
        if stripe == 0 || self.threads == 1 {
            if accumulate {
                table.apply_xor(src, dst);
            } else {
                table.apply(src, dst);
            }
            return;
        }
        std::thread::scope(|s| {
            for (d, sr) in dst.chunks_mut(stripe).zip(src.chunks(stripe)) {
                s.spawn(move || {
                    if accumulate {
                        table.apply_xor(sr, d);
                    } else {
                        table.apply(sr, d);
                    }
                });
            }
        });
    }

    /// Parallel systematic encode: cuts the packet dimension into
    /// work-stealing tasks, codes each task with the fused smart
    /// schedule, and reassembles in task order. Bit-identical to
    /// [`ErasureCode::encode`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`ErasureCode::encode`].
    pub fn encode(&self, code: &ErasureCode, data: &[&[u8]]) -> Result<Vec<Vec<u8>>, ErasureError> {
        if self.threads == 1 {
            return code.encode(data);
        }
        // Validate via a zero-length dry run of the serial path's checks.
        let params = code.params();
        let w = params.w() as usize;
        if data.len() != params.k() {
            return Err(ErasureError::BadChunkLength {
                detail: format!("expected {} chunks, got {}", params.k(), data.len()),
            });
        }
        let len = data[0].len();
        if len == 0 || !len.is_multiple_of(params.alignment()) {
            return Err(ErasureError::BadChunkLength {
                detail: format!(
                    "chunk length {len} must be a positive multiple of {}",
                    params.alignment()
                ),
            });
        }
        if data.iter().any(|c| c.len() != len) {
            return Err(ErasureError::BadChunkLength {
                detail: "chunks must all have the same length".to_string(),
            });
        }
        let ps = len / w;
        let bounds = steal_bounds(ps);
        if bounds.len() <= 1 {
            return code.encode(data);
        }
        let fused = code.fused_schedule(ScheduleKind::Smart);
        let timer = self.metrics.as_ref().map(|m| m.recorder.timer("erasure.encode.ns"));
        let trace = self.pool_tracks();
        let pool_span = trace.as_ref().map(|(tracer, pool, _)| {
            tracer.span(*pool, "pool.encode", format!("{} stripes", bounds.len()))
        });
        let clock = trace.as_ref().map(|(tracer, _, _)| tracer.clone());
        let (tasks, _steals) = run_stealing(self.threads, &bounds, |_, lo, hi| {
            let begin = clock.as_ref().map(Tracer::now_ns);
            let mut subs = vec![vec![0u8; hi - lo]; params.m() * w];
            let mut out: Vec<&mut [u8]> = subs.iter_mut().map(Vec::as_mut_slice).collect();
            run_fused_stripe(fused, data, ps, lo, &mut out);
            let times = begin.map(|b| (b, clock.as_ref().expect("begin implies clock").now_ns()));
            (subs, times)
        });
        drop(pool_span);
        // Deferred stripe spans: re-emitted in task order so the trace
        // never depends on which worker executed (or stole) a task.
        if let Some((tracer, _, workers)) = &trace {
            for (&(lo, hi), (_, times)) in bounds.iter().zip(&tasks) {
                if let Some((begin, end)) = times {
                    tracer.begin_at(*workers, "encode.stripe", format!("rows {lo}..{hi}"), *begin);
                    tracer.end_at(*workers, *end);
                }
            }
        }
        let stripes: Vec<Vec<Vec<u8>>> = tasks.into_iter().map(|(subs, _)| subs).collect();
        // Reassemble: parity chunk i, sub-packet r = concat of stripes.
        let (m, _) = (params.m(), params.k());
        let mut parity: Vec<Vec<u8>> = (0..m).map(|_| Vec::with_capacity(w * ps)).collect();
        for (i, chunk) in parity.iter_mut().enumerate() {
            for r in 0..w {
                for stripe_subs in &stripes {
                    chunk.extend_from_slice(&stripe_subs[i * w + r]);
                }
            }
        }
        drop(timer);
        if let Some(metrics) = &self.metrics {
            let payload: u64 = data.iter().map(|c| c.len() as u64).sum();
            metrics.encode_calls.incr();
            metrics.encode_bytes.add(payload);
            metrics.encode_parity_bytes.add(parity.iter().map(|c| c.len() as u64).sum());
            metrics.encode_xor_ops.add(fused.xor_count() as u64);
            metrics.encode_stripes.add(bounds.len() as u64);
            metrics.kernel_bytes.add(payload);
        }
        Ok(parity)
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

/// Minimum bytes a coding task is worth scheduling for; also the floor
/// for the trailing remainder task.
const MIN_STRIPE: usize = 64;

/// Task count a pooled operation aims for. Deliberately larger than any
/// realistic thread count so idle workers always find something to
/// steal, and size-based rather than thread-based so task boundaries —
/// and with them telemetry counters, deferred trace spans, and the
/// reassembly order — never depend on how many workers execute them.
const STEAL_TASKS: usize = 32;

/// Cuts `[0, total)` into up to [`STEAL_TASKS`] contiguous
/// 8-byte-aligned work-stealing tasks of at least [`MIN_STRIPE`] bytes;
/// a degenerate remainder is merged into the final task rather than
/// scheduled alone. Returns a single task when the range is too small
/// to be worth splitting.
fn steal_bounds(total: usize) -> Vec<(usize, usize)> {
    if total < 2 * MIN_STRIPE {
        return vec![(0, total)];
    }
    let raw = total.div_ceil(STEAL_TASKS).max(MIN_STRIPE);
    let len = (raw + 7) & !7;
    let mut bounds = Vec::new();
    let mut lo = 0usize;
    while lo < total {
        let hi = if total - lo < len + MIN_STRIPE { total } else { lo + len };
        bounds.push((lo, hi));
        lo = hi;
    }
    bounds
}

/// Stripe length per thread, 8-byte aligned; 0 when the region is too
/// small to be worth splitting. Used by the flat primitives
/// ([`CodingPool::xor_into`], [`CodingPool::apply_table`]), which split
/// statically — one stripe per thread is already optimal for a single
/// memory-bound pass.
///
/// The effective parallelism is *clamped* so no worker receives an empty
/// or degenerate stripe: splitting `total` into 8-byte-aligned stripes
/// can leave a tiny remainder for the last thread (down to a handful of
/// bytes when `total` is small relative to `threads`), so the thread
/// count is walked down until every stripe — including the remainder —
/// is at least [`MIN_STRIPE`] bytes, falling back to a serial (0) split
/// when no such partition exists.
fn stripe_len(total: usize, threads: usize) -> usize {
    if threads <= 1 || total < 2 * MIN_STRIPE {
        return 0;
    }
    let mut count = threads.min(total / MIN_STRIPE);
    while count > 1 {
        let stripe = (total.div_ceil(count) + 7) & !7;
        let remainder = total % stripe;
        if remainder == 0 || remainder >= MIN_STRIPE {
            return stripe;
        }
        count -= 1;
    }
    0
}

/// Runs one closure invocation per `bounds` entry on a chunked
/// work-stealing deque set: tasks are seeded round-robin into per-worker
/// FIFO deques, each worker drains its own deque front-first and then
/// batch-steals the oldest half of another worker's backlog, so a slow
/// worker never strands its remaining tasks. Results come back
/// slot-ordered by task index — independent of which worker ran what —
/// along with the total number of successful steals.
fn run_stealing<R, F>(threads: usize, bounds: &[(usize, usize)], run: F) -> (Vec<R>, u64)
where
    R: Send,
    F: Fn(usize, usize, usize) -> R + Sync,
{
    let n = bounds.len();
    let nworkers = threads.min(n).max(1);
    let locals: Vec<Worker<(usize, usize, usize)>> =
        (0..nworkers).map(|_| Worker::new_fifo()).collect();
    for (id, &(lo, hi)) in bounds.iter().enumerate() {
        locals[id % nworkers].push((id, lo, hi));
    }
    let stealers: Vec<Stealer<(usize, usize, usize)>> =
        locals.iter().map(Worker::stealer).collect();
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    let mut steals = 0u64;
    std::thread::scope(|s| {
        let handles: Vec<_> = locals
            .into_iter()
            .enumerate()
            .map(|(wi, local)| {
                let (stealers, run) = (&stealers, &run);
                s.spawn(move || {
                    let mut done: Vec<(usize, R)> = Vec::new();
                    let mut stolen = 0u64;
                    while let Some((id, lo, hi)) = next_task(wi, &local, stealers, &mut stolen) {
                        done.push((id, run(id, lo, hi)));
                    }
                    (done, stolen)
                })
            })
            .collect();
        for handle in handles {
            let (done, stolen) = handle.join().expect("pool worker panicked");
            steals += stolen;
            for (id, result) in done {
                debug_assert!(slots[id].is_none(), "task {id} executed twice");
                slots[id] = Some(result);
            }
        }
    });
    let results = slots.into_iter().map(|r| r.expect("every task executes exactly once")).collect();
    (results, steals)
}

/// Next task for worker `wi`: its own deque first, then batch-steals
/// from the other workers. `None` only once every deque is empty — any
/// task still in flight is owned by the worker executing it, so exiting
/// on all-empty never strands work.
fn next_task(
    wi: usize,
    local: &Worker<(usize, usize, usize)>,
    stealers: &[Stealer<(usize, usize, usize)>],
    stolen: &mut u64,
) -> Option<(usize, usize, usize)> {
    if let Some(task) = local.pop() {
        return Some(task);
    }
    loop {
        let mut retry = false;
        for (si, stealer) in stealers.iter().enumerate() {
            if si == wi {
                continue;
            }
            match stealer.steal_batch_and_pop(local) {
                Steal::Success(task) => {
                    *stolen += 1;
                    return Some(task);
                }
                Steal::Retry => retry = true,
                Steal::Empty => {}
            }
        }
        if !retry {
            return None;
        }
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
    fn pool_xor_matches_serial() {
        let src = random_bytes(10_000, 1);
        let mut serial = random_bytes(10_000, 2);
        let mut parallel = serial.clone();
        region::xor_into(&mut serial, &src);
        CodingPool::new(4).xor_into(&mut parallel, &src);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn pool_table_matches_serial() {
        let gf = ecc_gf::GaloisField::new(8).unwrap();
        let table = MulTable::new(&gf, 0x53).unwrap();
        let src = random_bytes(9_999, 3);
        let mut serial = vec![0u8; src.len()];
        let mut parallel = vec![0u8; src.len()];
        table.apply(&src, &mut serial);
        CodingPool::new(3).apply_table(&table, &src, &mut parallel, false);
        assert_eq!(serial, parallel);

        let mut serial_acc = random_bytes(src.len(), 4);
        let mut parallel_acc = serial_acc.clone();
        table.apply_xor(&src, &mut serial_acc);
        CodingPool::new(5).apply_table(&table, &src, &mut parallel_acc, true);
        assert_eq!(serial_acc, parallel_acc);
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

    /// More workers than tasks: the surplus workers spin down on empty
    /// deques and the pooled result still matches — the steal-storm
    /// shape (threads ≫ tasks) loses and duplicates nothing.
    #[test]
    fn pool_encode_with_threads_exceeding_tasks() {
        let code = ErasureCode::cauchy_good(CodeParams::new(2, 2, 8).unwrap()).unwrap();
        let data: Vec<Vec<u8>> = (0..2).map(|i| random_bytes(8 * 256, i + 40)).collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let serial = code.encode(&refs).unwrap();
        assert_eq!(CodingPool::new(64).encode(&code, &refs).unwrap(), serial);
    }

    /// The pooled (fused, stolen) encode agrees with the *unfused*
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
    fn pool_encode_small_region_falls_back() {
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
    fn stripe_len_is_word_aligned() {
        for total in [640usize, 1000, 4096, 65536] {
            for threads in [2usize, 3, 4, 7] {
                let s = stripe_len(total, threads);
                if s != 0 {
                    assert_eq!(s % 8, 0, "total={total} threads={threads}");
                    assert!(s * threads >= total);
                }
            }
        }
    }

    /// Regression: with `total` small relative to `threads`, the 8-byte
    /// rounding used to leave the last thread a degenerate remainder
    /// stripe (as small as 2 bytes, e.g. total=514 over 8 threads →
    /// stripe 72, remainder 10). Effective parallelism must be clamped
    /// so every stripe — the remainder included — is a real unit of
    /// work, and the stripe count never exceeds the thread budget.
    #[test]
    fn stripe_len_never_degenerates_the_remainder() {
        for total in (2..2048usize).chain([4097, 10_000, 65_521]) {
            for threads in [2usize, 3, 4, 7, 8, 16, 64] {
                let s = stripe_len(total, threads);
                if s == 0 {
                    continue;
                }
                assert_eq!(s % 8, 0, "total={total} threads={threads}");
                let stripes = total.div_ceil(s);
                assert!(stripes <= threads, "total={total} threads={threads}: {stripes} stripes");
                let remainder = total % s;
                assert!(
                    remainder == 0 || remainder >= MIN_STRIPE,
                    "total={total} threads={threads}: degenerate {remainder}-byte stripe"
                );
            }
        }
        // The motivating case: 514 bytes over 8 threads.
        let s = stripe_len(514, 8);
        assert!(s == 0 || 514 % s == 0 || 514 % s >= MIN_STRIPE);
    }

    /// The clamp must not change results: pooled ops stay bit-identical
    /// to serial ones on the lengths that used to produce degenerate
    /// remainder stripes.
    #[test]
    fn degenerate_remainder_lengths_stay_bit_identical() {
        for total in [514usize, 520, 1032, 2056] {
            let src = random_bytes(total, 21);
            let mut serial = random_bytes(total, 22);
            let mut parallel = serial.clone();
            region::xor_into(&mut serial, &src);
            CodingPool::new(8).xor_into(&mut parallel, &src);
            assert_eq!(serial, parallel, "total={total}");
        }
    }

    /// The work-stealing task splitter tiles the range exactly, aligns
    /// every interior boundary to 8 bytes, never schedules a degenerate
    /// task, and — crucially — does not depend on any thread count.
    #[test]
    fn steal_bounds_tile_the_range() {
        for total in (1..512usize).chain([513, 1000, 4096, 65_521, 1 << 20]) {
            let bounds = steal_bounds(total);
            assert!(!bounds.is_empty());
            assert!(bounds.len() <= STEAL_TASKS + 1, "total={total}: {} tasks", bounds.len());
            let mut covered = 0usize;
            for (i, &(lo, hi)) in bounds.iter().enumerate() {
                assert_eq!(lo, covered, "total={total}: tasks must tile");
                assert!(hi > lo, "total={total}: empty task");
                if bounds.len() > 1 {
                    assert!(hi - lo >= MIN_STRIPE, "total={total}: degenerate task {i}");
                }
                if i + 1 < bounds.len() {
                    assert_eq!(hi % 8, 0, "total={total}: unaligned boundary");
                }
                covered = hi;
            }
            assert_eq!(covered, total);
        }
    }

    /// Direct contention test for the stealing executor: many tiny tasks
    /// over many workers, every slot filled exactly once.
    #[test]
    fn run_stealing_executes_every_task_exactly_once() {
        let bounds: Vec<(usize, usize)> = (0..257).map(|i| (i, i + 1)).collect();
        let (results, _steals) = run_stealing(16, &bounds, |id, lo, hi| {
            assert_eq!((lo, hi), (id, id + 1));
            id
        });
        assert_eq!(results, (0..257).collect::<Vec<_>>());
    }
}

impl CodingPool {
    /// Parallel any-k decode: reconstructs all `k` data chunks from the
    /// surviving shards, cutting the byte range into work-stealing tasks
    /// exactly like [`CodingPool::encode`]. Bit-identical to
    /// [`ErasureCode::decode`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`ErasureCode::decode`].
    pub fn decode(
        &self,
        code: &ErasureCode,
        shards: &[Option<&[u8]>],
    ) -> Result<Vec<Vec<u8>>, ErasureError> {
        // Decoding recomputes only missing chunks, whose schedules are
        // built per survivor set; rather than duplicating that logic,
        // stripe the *shard regions* and decode each stripe serially.
        // Sub-packet layouts are per-stripe-consistent only if stripes
        // respect sub-packet boundaries, so stripe by whole sub-packet
        // columns: each stripe is a byte range of every sub-packet.
        let k = code.params().k();
        let present: Vec<&[u8]> = shards.iter().flatten().copied().collect();
        if present.len() < k || self.threads == 1 {
            return code.decode(shards);
        }
        let len = present[0].len();
        let w = code.params().w() as usize;
        if len == 0 || !len.is_multiple_of(code.params().alignment()) {
            return code.decode(shards); // let the serial path report errors
        }
        let ps = len / w;
        let bounds = steal_bounds(ps);
        if bounds.len() <= 1 {
            return code.decode(shards);
        }
        if let Some(metrics) = &self.metrics {
            metrics.decode_stripes.add(bounds.len() as u64);
        }
        let trace = self.pool_tracks();
        let pool_span = trace.as_ref().map(|(tracer, pool, _)| {
            tracer.span(*pool, "pool.decode", format!("{} stripes", bounds.len()))
        });
        let clock = trace.as_ref().map(|(tracer, _, _)| tracer.clone());
        // Build per-stripe shard views: for each shard, gather the byte
        // range [lo, hi) of each of its w sub-packets.
        let (tasks, _steals) = run_stealing(self.threads, &bounds, |_, lo, hi| {
            let begin = clock.as_ref().map(Tracer::now_ns);
            let views: Vec<Option<Vec<u8>>> = shards
                .iter()
                .map(|sh| {
                    sh.map(|bytes| {
                        let mut v = Vec::with_capacity(w * (hi - lo));
                        for c in 0..w {
                            v.extend_from_slice(&bytes[c * ps + lo..c * ps + hi]);
                        }
                        v
                    })
                })
                .collect();
            let view_refs: Vec<Option<&[u8]>> = views.iter().map(|v| v.as_deref()).collect();
            let decoded = code.decode(&view_refs);
            let times = begin.map(|b| (b, clock.as_ref().expect("begin implies clock").now_ns()));
            (decoded, times)
        });
        drop(pool_span);
        if let Some((tracer, _, workers)) = &trace {
            for (&(lo, hi), (_, times)) in bounds.iter().zip(&tasks) {
                if let Some((begin, end)) = times {
                    tracer.begin_at(*workers, "decode.stripe", format!("rows {lo}..{hi}"), *begin);
                    tracer.end_at(*workers, *end);
                }
            }
        }
        // Reassemble: data chunk j sub-packet c = concat of stripes.
        let mut out: Vec<Vec<u8>> = (0..k).map(|_| Vec::with_capacity(len)).collect();
        let mut stripe_chunks = Vec::with_capacity(tasks.len());
        for (decoded, _) in tasks {
            stripe_chunks.push(decoded?);
        }
        for (j, chunk) in out.iter_mut().enumerate() {
            for c in 0..w {
                for (b, (lo, hi)) in bounds.iter().enumerate() {
                    let sw = hi - lo;
                    chunk.extend_from_slice(&stripe_chunks[b][j][c * sw..(c + 1) * sw]);
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod decode_tests {
    use super::*;
    use crate::CodeParams;
    use rand::prelude::*;

    fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut v = vec![0u8; len];
        rng.fill_bytes(&mut v);
        v
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

    #[test]
    fn pool_decode_small_region_falls_back() {
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
