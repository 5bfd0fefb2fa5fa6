//! The pipelined save executor (paper §IV-C).
//!
//! ECCheck's checkpoint coding pipeline overlaps the three save stages —
//! encode, XOR-reduce, transfer — by streaming fixed-size *stripes* of
//! each data chunk through them instead of materialising whole parity
//! chunks before any byte moves. This module is the real-thread
//! implementation of that pipeline over the in-memory data plane:
//!
//! * **Stage 1 — encode.** `coding_threads` workers share the task list
//!   through chunked work-stealing deques: tasks are seeded round-robin
//!   into per-worker FIFO queues and an idle worker batch-steals the
//!   oldest half of a busy worker's backlog, so a stalled core delays
//!   only the task it is executing. For every (stripe, data chunk) pair
//!   a worker runs the *fused* single-column XOR schedule over the
//!   stripe's `w` sub-packet rows, read in place straight out of the
//!   data chunk ([`ecc_erasure::ErasureCode::encode_column_stripe_into`]
//!   — no gather copy), and hands the flat contribution buffer to the
//!   reducer. Workers also checksum the data chunks in fixed-size pieces
//!   so the CRC cost rides the pipeline instead of serialising behind
//!   it.
//! * **Stage 2 — XOR-reduce.** One reducer thread folds the `k` column
//!   contributions of each stripe together (GF(2) linearity makes the
//!   XOR of column encodings bit-identical to the full encode), computes
//!   the stripe's parity piece CRCs, and forwards the finished
//!   accumulator to the transfer stage.
//! * **Stage 3 — transfer.** The driver scatters finished stripes into
//!   the parity chunks, stitches piece CRCs with
//!   [`ecc_checkpoint::crc32_combine`] into the chunk CRCs the engine
//!   writes into the manifest, and issues every store in one
//!   canonical order (data chunks by index, then parity), gating each
//!   transfer through the profiled idle-slot [`SlotGate`] when one is
//!   attached.
//!
//! Memory is bounded by construction: contributions recycle through a
//! ring of `threads + 2` buffers and at most `pipeline_depth` stripes may
//! be open between encode and retirement (the *admission window*), so a
//! save never holds more than a few stripes of transient state beyond
//! the chunks themselves. Backpressure falls out of the same bounds — a
//! fast encode stage simply blocks on the window or the ring until the
//! reducer and driver catch up.
//!
//! Determinism: everything observable through the recorder snapshot or a
//! [`ManualClock`](ecc_telemetry::ManualClock)-driven trace is invariant
//! across runs *and* across thread counts — even though *which* worker
//! executes a task is now a scheduling accident. Encode and reduce spans
//! are recorded privately by the stage threads and re-emitted by the
//! driver after the join, sorted by task/stripe order, on single
//! `encode`/`reduce` tracks whose identity never depends on the thread
//! count; every telemetry counter counts work items (stripes, pieces,
//! bytes) — never scheduling accidents. The nondeterministic residue
//! (busy times, queue waits, steal counts) lands in [`PipelineStats`]
//! instead.
//!
//! Deadlock freedom under stealing: deques are FIFO and steals take from
//! the front, so the globally oldest unexecuted task is always the next
//! one some worker picks up. A worker blocked on the admission window
//! holds a task for a stripe beyond the window; every task of the oldest
//! open stripe is older, hence already executing or at a deque front
//! where any free worker — including ones whose own deque is empty —
//! will take it. The oldest stripe therefore always completes, the
//! window advances, and blocked workers wake.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};

use crossbeam_deque::{Steal, Stealer, Worker};
use ecc_checkpoint::{crc32, crc32_combine};
use ecc_cluster::DataPlane;
use ecc_erasure::{region, ErasureCode};
use ecc_sim::SlotGate;
use ecc_telemetry::Recorder;
use ecc_trace::{TrackId, CODING_PID, DRIVER_PID};

use crate::engine::TraceHandles;
use crate::keys::chunk_key;
use crate::{EcCheckError, Placement, ReductionPlan};

/// Stage accounting for one pipelined save, reported on
/// [`crate::SaveReport`].
///
/// All fields are plain integers so reports stay `Eq`; occupancy ratios
/// are derived through the accessor methods. Busy/wait figures are wall
/// measurements and vary run to run — the deterministic work counts
/// (stripes, tasks, admissions) are also mirrored as telemetry counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PipelineStats {
    /// Stripes the chunks were split into (per data chunk).
    pub stripes: usize,
    /// Rows of a full stripe: bytes each encode task reads per
    /// sub-packet (the last stripe may be shorter).
    pub stripe_rows: usize,
    /// Size in bytes of one flat contribution buffer (`m · w · rows`).
    pub buffer_bytes: usize,
    /// Encode-stage worker threads.
    pub encode_workers: usize,
    /// Encode tasks executed: `stripes · k` contributions plus the data
    /// CRC pieces.
    pub encode_tasks: u64,
    /// Summed busy time of the encode workers, ns.
    pub encode_busy_ns: u64,
    /// Busy time of the reduce stage, ns.
    pub reduce_busy_ns: u64,
    /// Busy time of the transfer stage (scatter, CRC stitch, stores), ns.
    pub transfer_busy_ns: u64,
    /// Wall time of the whole executor, ns.
    pub wall_ns: u64,
    /// Times an encode worker blocked waiting for a free contribution
    /// buffer (ring backpressure).
    pub ring_waits: u64,
    /// Times an encode worker blocked on the stripe admission window
    /// (pipeline-depth backpressure).
    pub window_waits: u64,
    /// Encode tasks obtained by stealing from another worker's deque
    /// rather than popped from the worker's own. A scheduling accident
    /// (varies run to run); deliberately not mirrored into telemetry.
    pub encode_steals: u64,
    /// Virtual nanoseconds transfers spent parked behind profiled busy
    /// windows at the idle-slot gate (0 when no gate is attached).
    pub slot_wait_ns: u64,
    /// Transfers admitted through the idle-slot gate.
    pub slot_admissions: u64,
    /// Reductions whose target already sat on the owning parity node
    /// (no parity P2P hop), per the reduction plan.
    pub local_reduce_targets: u64,
}

impl PipelineStats {
    /// Encode-stage occupancy in `[0, 1]`: busy time over wall time
    /// across all worker lanes.
    pub fn encode_occupancy(&self) -> f64 {
        occupancy(self.encode_busy_ns, self.wall_ns, self.encode_workers as u64)
    }

    /// Reduce-stage occupancy in `[0, 1]`.
    pub fn reduce_occupancy(&self) -> f64 {
        occupancy(self.reduce_busy_ns, self.wall_ns, 1)
    }

    /// Transfer-stage occupancy in `[0, 1]`.
    pub fn transfer_occupancy(&self) -> f64 {
        occupancy(self.transfer_busy_ns, self.wall_ns, 1)
    }
}

fn occupancy(busy_ns: u64, wall_ns: u64, lanes: u64) -> f64 {
    if wall_ns == 0 || lanes == 0 {
        return 0.0;
    }
    (busy_ns as f64 / (wall_ns * lanes) as f64).min(1.0)
}

/// One pipelined save, handed over from the engine after the data chunks
/// are built.
pub(crate) struct PipelineJob<'a> {
    pub version: u64,
    pub data_chunks: Vec<Vec<u8>>,
    pub code: &'a ErasureCode,
    pub placement: &'a Placement,
    pub reduction: &'a ReductionPlan,
    pub threads: usize,
    pub buffer: usize,
    pub depth: usize,
    pub recorder: &'a Recorder,
    pub trace: Option<&'a TraceHandles>,
    pub gate: Option<SlotGate>,
    /// Chaos fail point: the worker picking up global task `n` panics.
    pub fail_encode_task: Option<u64>,
}

/// What [`run`] produced, beyond the cluster-side effects.
pub(crate) struct PipelineOutcome {
    pub encoded_bytes: u64,
    pub stats: PipelineStats,
    /// CRC-32 of every stored chunk, stitched from the piece CRCs the
    /// stages computed, indexed by the node the chunk was stored on —
    /// the chunk entries of the version's manifest.
    pub chunk_crcs: Vec<u32>,
    /// First/last instants of encode-stage activity, for the engine's
    /// `save.encode` summary span.
    pub encode_begin_ns: u64,
    pub encode_end_ns: u64,
    /// First/last instants of transfer-stage activity, for `save.place`.
    pub place_begin_ns: u64,
    pub place_end_ns: u64,
}

/// Work items of the encode stage. Seeded in global order round-robin
/// across the per-worker deques; a task's *sequence number* (its global
/// order index) travels with it so deferred trace spans can be re-emitted
/// in an execution-independent order.
enum Task {
    /// Checksum piece `piece` of data chunk `col`.
    DataCrc { col: usize, piece: usize, chunk: Arc<Vec<u8>> },
    /// Encode the column contribution of data chunk `col` to stripe
    /// `stripe`.
    Contrib { stripe: usize, col: usize, chunk: Arc<Vec<u8>> },
}

/// A finished column contribution travelling encode → reduce.
struct Contribution {
    stripe: usize,
    buf: Vec<u8>,
}

/// A deferred encode-stage span, recorded privately by a worker and
/// re-emitted by the driver in `seq` order on the shared `encode` track:
/// `(seq, name, detail, begin_ns, end_ns)`.
type SpanRec = (u64, &'static str, String, u64, u64);

/// Messages arriving at the transfer stage (the driver).
enum DriverMsg {
    /// CRC of one piece of a data chunk.
    DataCrc { col: usize, piece: usize, crc: u32 },
    /// A fully reduced stripe: the flat accumulator plus the CRC of each
    /// `(parity, sub-packet)` row range, and the reduce-stage span.
    Stripe { stripe: usize, acc: Vec<u8>, crcs: Vec<u32>, begin_ns: u64, end_ns: u64 },
}

/// Bounded pool of reusable contribution buffers (encode → reduce).
///
/// `acquire` blocks while the pool is empty — that is the pipeline's
/// backpressure — and returns `None` once cancelled so blocked workers
/// unwind cleanly on a failed save.
struct Ring {
    state: Mutex<(Vec<Vec<u8>>, bool)>,
    available: Condvar,
    waits: AtomicU64,
}

impl Ring {
    fn new(depth: usize, len: usize) -> Self {
        let bufs = (0..depth).map(|_| vec![0u8; len]).collect();
        Self {
            state: Mutex::new((bufs, false)),
            available: Condvar::new(),
            waits: AtomicU64::new(0),
        }
    }

    fn acquire(&self) -> Option<Vec<u8>> {
        let mut state = self.state.lock().expect("ring lock");
        let mut waited = false;
        loop {
            if state.1 {
                return None;
            }
            if let Some(buf) = state.0.pop() {
                if waited {
                    self.waits.fetch_add(1, Ordering::Relaxed);
                }
                return Some(buf);
            }
            waited = true;
            state = self.available.wait(state).expect("ring lock");
        }
    }

    fn release(&self, buf: Vec<u8>) {
        self.state.lock().expect("ring lock").0.push(buf);
        self.available.notify_one();
    }

    fn cancel(&self) {
        self.state.lock().expect("ring lock").1 = true;
        self.available.notify_all();
    }
}

/// The stripe admission window: at most `depth` stripes may be open
/// (admitted but not yet retired by the driver) at once, bounding the
/// accumulators alive between encode and transfer.
struct Window {
    state: Mutex<(u64, bool)>,
    moved: Condvar,
    depth: u64,
    waits: AtomicU64,
}

impl Window {
    fn new(depth: usize) -> Self {
        Self {
            state: Mutex::new((0, false)),
            moved: Condvar::new(),
            depth: depth as u64,
            waits: AtomicU64::new(0),
        }
    }

    /// Blocks until `stripe` fits in the window; `false` means the save
    /// was cancelled.
    fn admit(&self, stripe: usize) -> bool {
        let mut state = self.state.lock().expect("window lock");
        let mut waited = false;
        loop {
            if state.1 {
                return false;
            }
            if (stripe as u64) < state.0 + self.depth {
                if waited {
                    self.waits.fetch_add(1, Ordering::Relaxed);
                }
                return true;
            }
            waited = true;
            state = self.moved.wait(state).expect("window lock");
        }
    }

    fn retire(&self) {
        self.state.lock().expect("window lock").0 += 1;
        self.moved.notify_all();
    }

    fn cancel(&self) {
        self.state.lock().expect("window lock").1 = true;
        self.moved.notify_all();
    }
}

/// Stripe geometry: how a chunk of `w · ps_total` bytes splits into
/// admission-window stripes.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    k: usize,
    m: usize,
    w: usize,
    chunk_len: usize,
    /// Length of the packet dimension: `chunk_len / w` bytes per sub-packet.
    ps_total: usize,
    /// Rows of a full stripe (multiple of 8, so every stripe region
    /// stays coding-aligned).
    rows: usize,
    stripes: usize,
    /// Data-chunk CRC piece length in bytes.
    crc_piece: usize,
    crc_pieces: usize,
}

impl Geometry {
    fn new(k: usize, m: usize, w: usize, chunk_len: usize, buffer: usize) -> Self {
        let ps_total = chunk_len / w;
        // Aim for `buffer` bytes of chunk per encode task, rounded to the
        // 8-row alignment the bit-matrix schedules need. `ps_total` is
        // itself a positive multiple of 8 (packet sizes are multiples of
        // w·8), so the clamp below always lands on a legal stripe.
        let target = (buffer / w).max(8);
        let rows = ((target / 8) * 8).clamp(8, ps_total.max(8)).min(ps_total);
        let stripes = ps_total.div_ceil(rows);
        // CRC pieces mirror the stripe budget so checksum work pipelines
        // at the same grain; derived from sizes only, never from the
        // thread count, to keep piece CRCs deterministic.
        let crc_piece = rows * w;
        let crc_pieces = chunk_len.div_ceil(crc_piece);
        Self { k, m, w, chunk_len, ps_total, rows, stripes, crc_piece, crc_pieces }
    }

    /// `[lo, hi)` row range of stripe `b` within the packet dimension.
    fn rows_of(&self, stripe: usize) -> (usize, usize) {
        let lo = stripe * self.rows;
        (lo, (lo + self.rows).min(self.ps_total))
    }
}

/// Deterministically ordered trace tracks for the executor, created
/// up-front by the driver so track identity never depends on thread
/// scheduling.
struct PipelineTracks {
    transfer: TrackId,
    reduce: TrackId,
    /// One shared track for all deferred encode spans, whatever the
    /// thread count — traces stay byte-identical across 1..n workers.
    encode: TrackId,
}

fn make_tracks(trace: Option<&TraceHandles>) -> Option<PipelineTracks> {
    trace.map(|t| PipelineTracks {
        transfer: t.tracer.track(DRIVER_PID, "driver", "pipeline"),
        reduce: t.tracer.track(CODING_PID, "coding", "reduce"),
        encode: t.tracer.track(CODING_PID, "coding", "encode"),
    })
}

/// Runs one pipelined save: encodes, reduces and stores every chunk of
/// `version`, leaving the cluster byte-identical to a one-pass encode
/// of the same chunks (the oracle in `tests/pipeline_differential.rs`).
///
/// Headers, the manifest (built from the chunk CRCs returned here) and
/// version rotation stay with the engine — this function owns exactly
/// the chunk dataflow.
pub(crate) fn run(
    job: PipelineJob<'_>,
    cluster: &mut impl DataPlane,
) -> Result<PipelineOutcome, EcCheckError> {
    let PipelineJob {
        version,
        data_chunks,
        code,
        placement,
        reduction,
        threads,
        buffer,
        depth,
        recorder,
        trace,
        mut gate,
        fail_encode_task,
    } = job;
    let params = code.params();
    let geo =
        Geometry::new(params.k(), params.m(), params.w() as usize, data_chunks[0].len(), buffer);
    let threads = threads.max(1);
    let depth = depth.max(2);
    let tracks = make_tracks(trace);

    let wall_begin = recorder.now_ns();
    let data: Vec<Arc<Vec<u8>>> = data_chunks.into_iter().map(Arc::new).collect();

    // Seed the work-stealing deques in global order, round-robin: data
    // CRC pieces first (stores can start as soon as a chunk's pieces are
    // stitched), then contributions stripe-major so stripes complete
    // roughly in admission order. Deques are FIFO and steals take the
    // oldest tasks, so execution tracks this order whatever the mix of
    // pops and steals.
    let locals: Vec<Worker<(u64, Task)>> = (0..threads).map(|_| Worker::new_fifo()).collect();
    let mut next = 0u64;
    for (col, chunk) in data.iter().enumerate() {
        for piece in 0..geo.crc_pieces {
            locals[(next as usize) % threads]
                .push((next, Task::DataCrc { col, piece, chunk: Arc::clone(chunk) }));
            next += 1;
        }
    }
    for stripe in 0..geo.stripes {
        for (col, chunk) in data.iter().enumerate() {
            locals[(next as usize) % threads]
                .push((next, Task::Contrib { stripe, col, chunk: Arc::clone(chunk) }));
            next += 1;
        }
    }
    let contrib_len = geo.m * geo.w * geo.rows;
    let mut driver = Driver {
        version,
        geo,
        placement,
        recorder,
        trace,
        tracks: tracks.as_ref(),
        gate: gate.as_mut(),
        data: data.into_iter().map(Some).collect(),
        data_placed: 0,
        data_crcs: vec![vec![None; geo.crc_pieces]; geo.k],
        parity: (0..geo.m).map(|_| vec![0u8; geo.chunk_len]).collect(),
        parity_crcs: vec![vec![vec![0u32; geo.stripes]; geo.w]; geo.m],
        chunk_crcs: vec![0u32; geo.k + geo.m],
        stripes_done: 0,
        reduce_spans: Vec::with_capacity(geo.stripes),
        busy_ns: 0,
        place_begin_ns: u64::MAX,
        place_end_ns: 0,
        slot_wait_ns: 0,
        slot_admissions: 0,
        failed: None,
    };

    let stages = execute_stages(
        &geo,
        code,
        locals,
        threads,
        depth,
        recorder,
        tracks.is_some(),
        fail_encode_task,
        &mut driver,
        cluster,
    );
    if stages.panicked && driver.failed.is_none() {
        driver.failed = Some(EcCheckError::StageFailed {
            detail: "an encode worker panicked mid-save".to_string(),
        });
    }
    driver.finish(cluster);
    let mut encode_spans = stages.encode_spans;

    // Deferred encode and reduce spans: re-emitted in task/stripe order
    // so the trace is identical no matter which worker ran (or stole) a
    // task or how stripes raced through the reducer.
    if let (Some(t), Some(tr)) = (trace, tracks.as_ref()) {
        encode_spans.sort_unstable_by_key(|&(seq, ..)| seq);
        for (_, name, detail, begin_ns, end_ns) in encode_spans {
            t.tracer.begin_at(tr.encode, name, detail, begin_ns);
            t.tracer.end_at(tr.encode, end_ns);
        }
        // Stripe order, not completion order: completions race.
        driver.reduce_spans.sort_unstable_by_key(|&(stripe, _, _)| stripe);
        for (stripe, begin_ns, end_ns) in &driver.reduce_spans {
            t.tracer.begin_at(tr.reduce, "reduce.stripe", format!("stripe={stripe}"), *begin_ns);
            t.tracer.end_at(tr.reduce, *end_ns);
        }
    }

    if let Some(err) = driver.failed.take() {
        return Err(err);
    }

    let wall_end = recorder.now_ns();
    let encode_begin = stages.encode_begin_ns;
    let encode_end = stages.encode_end_ns;
    let stats = PipelineStats {
        stripes: geo.stripes,
        stripe_rows: geo.rows,
        buffer_bytes: contrib_len,
        encode_workers: threads,
        encode_tasks: (geo.stripes * geo.k + geo.k * geo.crc_pieces) as u64,
        encode_busy_ns: stages.encode_busy_ns,
        reduce_busy_ns: stages.reduce_busy_ns,
        transfer_busy_ns: driver.busy_ns,
        wall_ns: wall_end.saturating_sub(wall_begin),
        ring_waits: stages.ring_waits,
        window_waits: stages.window_waits,
        encode_steals: stages.encode_steals,
        slot_wait_ns: driver.slot_wait_ns,
        slot_admissions: driver.slot_admissions,
        local_reduce_targets: reduction.local_target_hits() as u64,
    };

    // Deterministic work counters; scheduling accidents stay in `stats`.
    recorder.counter("ecc.pipeline.stripes").add(geo.stripes as u64);
    recorder.counter("ecc.pipeline.encode_tasks").add(stats.encode_tasks);
    recorder
        .counter("ecc.pipeline.crc_pieces")
        .add((geo.k * geo.crc_pieces + geo.stripes * geo.m * geo.w) as u64);
    recorder.counter("ecc.pipeline.slot_wait_ns").add(driver.slot_wait_ns);
    recorder.counter("ecc.pipeline.slot_admissions").add(driver.slot_admissions);
    recorder.counter("ecc.pipeline.local_reduce_targets").add(stats.local_reduce_targets);
    let encode_begin = if encode_begin == u64::MAX { wall_begin } else { encode_begin };
    let encode_end = encode_end.max(encode_begin);
    let place_begin =
        if driver.place_begin_ns == u64::MAX { wall_end } else { driver.place_begin_ns };
    let place_end = driver.place_end_ns.max(place_begin);
    recorder.record("ecc.save.encode_ns", encode_end - encode_begin);
    recorder.record("ecc.save.place_ns", place_end - place_begin);
    recorder.record("ecc.save.pipeline_ns", stats.wall_ns);
    // The column path records only per-column metrics inside the erasure
    // crate; keep the aggregate `erasure.encode.*` totals complete
    // however an encode executes (same contract as the pooled path).
    recorder.counter("erasure.encode.calls").incr();
    recorder.counter("erasure.encode.bytes").add((geo.k * geo.chunk_len) as u64);
    recorder.counter("erasure.encode.parity_bytes").add((geo.m * geo.chunk_len) as u64);
    recorder.record("erasure.encode.ns", encode_end - encode_begin);

    Ok(PipelineOutcome {
        encoded_bytes: (geo.m * geo.chunk_len) as u64,
        stats,
        chunk_crcs: driver.chunk_crcs,
        encode_begin_ns: encode_begin,
        encode_end_ns: encode_end,
        place_begin_ns: place_begin,
        place_end_ns: place_end,
    })
}

/// Nondeterministic residue of one executor run, handed back from
/// [`execute_stages`] to [`run`].
struct StageOutcome {
    reduce_busy_ns: u64,
    encode_spans: Vec<SpanRec>,
    encode_steals: u64,
    ring_waits: u64,
    window_waits: u64,
    /// `u64::MAX` when no encode task ever ran.
    encode_begin_ns: u64,
    encode_end_ns: u64,
    encode_busy_ns: u64,
    panicked: bool,
}

/// Drives the three stages over an already-seeded task list until every
/// deque drains (or a failure cancels the run).
#[allow(clippy::too_many_arguments)]
fn execute_stages(
    geo: &Geometry,
    code: &ErasureCode,
    locals: Vec<Worker<(u64, Task)>>,
    threads: usize,
    depth: usize,
    recorder: &Recorder,
    record_spans: bool,
    fail_encode_task: Option<u64>,
    driver: &mut Driver<'_>,
    cluster: &mut impl DataPlane,
) -> StageOutcome {
    let stealers: Vec<Stealer<(u64, Task)>> = locals.iter().map(Worker::stealer).collect();
    let contrib_len = geo.m * geo.w * geo.rows;
    let ring = Ring::new(threads + 2, contrib_len);
    let window = Window::new(depth);
    let encode_begin = AtomicU64::new(u64::MAX);
    let encode_end = AtomicU64::new(0);
    let encode_busy = AtomicU64::new(0);
    let fail_counter = AtomicU64::new(0);
    let worker_panicked = AtomicBool::new(false);

    let (contrib_tx, contrib_rx) = channel::<Contribution>();
    let (driver_tx, driver_rx) = channel::<DriverMsg>();
    let (acc_tx, acc_rx) = channel::<Vec<u8>>();

    // Accumulator pool: one per window slot, so the reducer can always
    // take a buffer for a newly admitted stripe without allocating.
    for _ in 0..depth {
        acc_tx.send(vec![0u8; contrib_len]).expect("receiver alive");
    }

    let (reduce_busy_ns, encode_spans, encode_steals) = std::thread::scope(|scope| {
        let reducer = {
            let driver_tx = driver_tx.clone();
            let ring = &ring;
            scope.spawn(move || reduce_stage(geo, contrib_rx, acc_rx, driver_tx, ring, recorder))
        };
        let handles: Vec<_> = locals
            .into_iter()
            .enumerate()
            .map(|(worker, local)| {
                let contrib_tx = contrib_tx.clone();
                let driver_tx = driver_tx.clone();
                let (ring, window) = (&ring, &window);
                let (stealers, fail_counter, worker_panicked) =
                    (&stealers, &fail_counter, &worker_panicked);
                let (encode_begin, encode_end, encode_busy) =
                    (&encode_begin, &encode_end, &encode_busy);
                scope.spawn(move || {
                    // A panicking worker (the chaos fail point, or a real
                    // bug) must not wedge the pipeline: catch the unwind,
                    // cancel the ring and the window so blocked peers
                    // drain out, and let the driver fail the save.
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        encode_stage(
                            geo,
                            code,
                            worker,
                            local,
                            stealers,
                            contrib_tx,
                            driver_tx,
                            ring,
                            window,
                            recorder,
                            record_spans,
                            fail_encode_task,
                            fail_counter,
                            encode_begin,
                            encode_end,
                            encode_busy,
                        )
                    }));
                    result.unwrap_or_else(|_| {
                        worker_panicked.store(true, Ordering::SeqCst);
                        ring.cancel();
                        window.cancel();
                        (Vec::new(), 0)
                    })
                })
            })
            .collect();
        drop(contrib_tx);
        drop(driver_tx);

        // Stage 3 runs here on the scope's own thread: receive until
        // every worker and the reducer have hung up.
        while let Ok(msg) = driver_rx.recv() {
            driver.handle(msg, cluster, &acc_tx, &window);
            if driver.failed.is_some() {
                // Unblock any worker parked on the ring or the window;
                // stores are skipped from here on, but the channels keep
                // draining so every stage exits cleanly.
                ring.cancel();
                window.cancel();
            }
        }
        let mut spans = Vec::new();
        let mut steals = 0u64;
        for handle in handles {
            let (recs, stolen) = handle.join().expect("encode worker joined after catch_unwind");
            spans.extend(recs);
            steals += stolen;
        }
        (reducer.join().expect("reduce stage panicked"), spans, steals)
    });
    StageOutcome {
        reduce_busy_ns,
        encode_spans,
        encode_steals,
        ring_waits: ring.waits.load(Ordering::Relaxed),
        window_waits: window.waits.load(Ordering::Relaxed),
        encode_begin_ns: encode_begin.load(Ordering::Relaxed),
        encode_end_ns: encode_end.load(Ordering::Relaxed),
        encode_busy_ns: encode_busy.load(Ordering::Relaxed),
        panicked: worker_panicked.load(Ordering::SeqCst),
    }
}

/// Stage 1 worker: drains its own deque, then steals, until every task
/// is done (or the save is cancelled). Returns its deferred span records
/// and how many of its tasks were stolen from other workers.
#[allow(clippy::too_many_arguments)]
fn encode_stage(
    geo: &Geometry,
    code: &ErasureCode,
    worker: usize,
    local: Worker<(u64, Task)>,
    stealers: &[Stealer<(u64, Task)>],
    contrib_tx: Sender<Contribution>,
    driver_tx: Sender<DriverMsg>,
    ring: &Ring,
    window: &Window,
    recorder: &Recorder,
    record_spans: bool,
    fail_at: Option<u64>,
    fail_counter: &AtomicU64,
    encode_begin: &AtomicU64,
    encode_end: &AtomicU64,
    encode_busy: &AtomicU64,
) -> (Vec<SpanRec>, u64) {
    let mut spans = Vec::new();
    let mut stolen = 0u64;
    while let Some((seq, task)) = next_task(worker, &local, stealers, &mut stolen) {
        if let Some(n) = fail_at {
            // The fail point counts task *pick-ups*, so the panic lands
            // right after a pop or steal — mid-steal, before any window
            // or ring state is touched for this task.
            if fail_counter.fetch_add(1, Ordering::SeqCst) == n {
                panic!("injected fail point: encode worker dies at task pick-up {n}");
            }
        }
        let begin = recorder.now_ns();
        encode_begin.fetch_min(begin, Ordering::Relaxed);
        match task {
            Task::DataCrc { col, piece, chunk } => {
                let span_begin = recorder.now_ns();
                let lo = piece * geo.crc_piece;
                let hi = (lo + geo.crc_piece).min(geo.chunk_len);
                let crc = crc32(&chunk[lo..hi]);
                if record_spans {
                    spans.push((
                        seq,
                        "encode.crc",
                        format!("chunk={col} piece={piece}"),
                        span_begin,
                        recorder.now_ns(),
                    ));
                }
                if driver_tx.send(DriverMsg::DataCrc { col, piece, crc }).is_err() {
                    break;
                }
            }
            Task::Contrib { stripe, col, chunk } => {
                if !window.admit(stripe) {
                    break;
                }
                let Some(mut buf) = ring.acquire() else { break };
                let span_begin = recorder.now_ns();
                let (lo, hi) = geo.rows_of(stripe);
                let rows = hi - lo;
                code.encode_column_stripe_into(
                    col,
                    &chunk,
                    lo,
                    rows,
                    &mut buf[..geo.m * geo.w * rows],
                )
                .expect("stripe regions are aligned by construction");
                if record_spans {
                    spans.push((
                        seq,
                        "encode.stripe",
                        format!("stripe={stripe} chunk={col}"),
                        span_begin,
                        recorder.now_ns(),
                    ));
                }
                if contrib_tx.send(Contribution { stripe, buf }).is_err() {
                    break;
                }
            }
        }
        let end = recorder.now_ns();
        encode_end.fetch_max(end, Ordering::Relaxed);
        encode_busy.fetch_add(end.saturating_sub(begin), Ordering::Relaxed);
    }
    (spans, stolen)
}

/// Next task for encode worker `worker`: its own deque first (FIFO, so
/// the oldest seeded task), then batch-steals the oldest half of another
/// worker's backlog. `None` only once every deque is empty; a task still
/// in flight is owned by the worker executing it, so exiting on
/// all-empty never strands work.
fn next_task(
    worker: usize,
    local: &Worker<(u64, Task)>,
    stealers: &[Stealer<(u64, Task)>],
    stolen: &mut u64,
) -> Option<(u64, Task)> {
    if let Some(task) = local.pop() {
        return Some(task);
    }
    loop {
        let mut retry = false;
        for (si, stealer) in stealers.iter().enumerate() {
            if si == worker {
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

/// Stage 2: folds the `geo.k` column contributions of each stripe into
/// one accumulator, releases contribution buffers back to the ring, and
/// ships finished stripes to the driver with their per-piece parity
/// CRCs. Returns its busy time in ns.
fn reduce_stage(
    geo: &Geometry,
    contrib_rx: Receiver<Contribution>,
    acc_rx: Receiver<Vec<u8>>,
    driver_tx: Sender<DriverMsg>,
    ring: &Ring,
    recorder: &Recorder,
) -> u64 {
    // Open stripes: (accumulator, contributions still missing, begin ts).
    let mut open: Vec<Option<(Vec<u8>, usize, u64)>> = (0..geo.stripes).map(|_| None).collect();
    let mut busy = 0u64;
    while let Ok(Contribution { stripe, mut buf }) = contrib_rx.recv() {
        let begin = recorder.now_ns();
        let (lo, hi) = geo.rows_of(stripe);
        let used = geo.m * geo.w * (hi - lo);
        let slot = &mut open[stripe];
        match slot {
            None => {
                // First contribution: swap the buffer into an accumulator
                // slot and hand the pool buffer back to the ring — no
                // copying, and the two pools stay balanced.
                let mut acc = acc_rx.recv().expect("driver returns accumulators");
                std::mem::swap(&mut acc, &mut buf);
                ring.release(buf);
                *slot = Some((acc, geo.k - 1, begin));
            }
            Some((acc, remaining, _)) => {
                region::xor_into(&mut acc[..used], &buf[..used]);
                ring.release(buf);
                *remaining -= 1;
            }
        }
        if let Some((_, 0, _)) = slot {
            let (acc, _, begin_ns) = slot.take().expect("slot is open");
            let rows = hi - lo;
            let crcs: Vec<u32> =
                (0..geo.m * geo.w).map(|idx| crc32(&acc[idx * rows..(idx + 1) * rows])).collect();
            let end_ns = recorder.now_ns();
            busy += end_ns.saturating_sub(begin);
            if driver_tx.send(DriverMsg::Stripe { stripe, acc, crcs, begin_ns, end_ns }).is_err() {
                break;
            }
            continue;
        }
        busy += recorder.now_ns().saturating_sub(begin);
    }
    busy
}

/// Stage 3 state: lives on the driver thread, issues every store in
/// canonical order.
struct Driver<'a> {
    version: u64,
    geo: Geometry,
    placement: &'a Placement,
    recorder: &'a Recorder,
    trace: Option<&'a TraceHandles>,
    tracks: Option<&'a PipelineTracks>,
    gate: Option<&'a mut SlotGate>,
    /// Data chunks, surrendered (moved into the store when possible) as
    /// they are placed.
    data: Vec<Option<Arc<Vec<u8>>>>,
    /// Data chunks stored so far; chunk `j` goes out only when chunks
    /// `0..j` are out and all its CRC pieces arrived, so the store
    /// order never depends on scheduling.
    data_placed: usize,
    data_crcs: Vec<Vec<Option<u32>>>,
    parity: Vec<Vec<u8>>,
    parity_crcs: Vec<Vec<Vec<u32>>>,
    /// Stitched CRC of each chunk stored so far, by node.
    chunk_crcs: Vec<u32>,
    stripes_done: usize,
    reduce_spans: Vec<(usize, u64, u64)>,
    busy_ns: u64,
    place_begin_ns: u64,
    place_end_ns: u64,
    slot_wait_ns: u64,
    slot_admissions: u64,
    failed: Option<EcCheckError>,
}

impl Driver<'_> {
    fn handle(
        &mut self,
        msg: DriverMsg,
        cluster: &mut impl DataPlane,
        acc_tx: &Sender<Vec<u8>>,
        window: &Window,
    ) {
        let begin = self.recorder.now_ns();
        match msg {
            DriverMsg::DataCrc { col, piece, crc } => {
                self.data_crcs[col][piece] = Some(crc);
                while self.data_placed < self.geo.k && self.data_ready(self.data_placed) {
                    let next = self.data_placed;
                    self.place_data(next, cluster);
                    self.data_placed += 1;
                }
            }
            DriverMsg::Stripe { stripe, acc, crcs, begin_ns, end_ns } => {
                let (lo, hi) = self.geo.rows_of(stripe);
                let rows = hi - lo;
                if self.failed.is_none() {
                    for i in 0..self.geo.m {
                        for c in 0..self.geo.w {
                            let idx = i * self.geo.w + c;
                            let dst = &mut self.parity[i]
                                [c * self.geo.ps_total + lo..c * self.geo.ps_total + hi];
                            dst.copy_from_slice(&acc[idx * rows..(idx + 1) * rows]);
                            self.parity_crcs[i][c][stripe] = crcs[idx];
                        }
                    }
                }
                self.reduce_spans.push((stripe, begin_ns, end_ns));
                // Return the accumulator *before* retiring the stripe, so
                // a newly admitted stripe always finds a free buffer.
                let _ = acc_tx.send(acc);
                window.retire();
                self.stripes_done += 1;
            }
        }
        self.busy_ns += self.recorder.now_ns().saturating_sub(begin);
    }

    /// After every stage has hung up: store the parity chunks (all
    /// stripes are in by then) in index order.
    fn finish(&mut self, cluster: &mut impl DataPlane) {
        let begin = self.recorder.now_ns();
        if self.failed.is_none() {
            debug_assert_eq!(self.stripes_done, self.geo.stripes, "all stripes reduced");
            debug_assert_eq!(self.data_placed, self.geo.k, "all data chunks placed");
            for i in 0..self.geo.m {
                if self.failed.is_some() {
                    break;
                }
                self.place_parity(i, cluster);
            }
        }
        self.busy_ns += self.recorder.now_ns().saturating_sub(begin);
    }

    fn data_ready(&self, col: usize) -> bool {
        self.data_crcs[col].iter().all(Option::is_some)
    }

    /// Stitches a chunk CRC out of its piece CRCs with `crc32_combine`.
    fn stitch(&self, pieces: impl Iterator<Item = (u32, u64)>) -> u32 {
        let mut acc = crc32(&[]);
        for (crc, len) in pieces {
            acc = crc32_combine(acc, crc, len);
        }
        acc
    }

    fn place_data(&mut self, col: usize, cluster: &mut impl DataPlane) {
        if self.failed.is_some() {
            return;
        }
        let crc = self.stitch(self.data_crcs[col].iter().enumerate().map(|(piece, crc)| {
            let lo = piece * self.geo.crc_piece;
            let hi = (lo + self.geo.crc_piece).min(self.geo.chunk_len);
            (crc.expect("placed only when ready"), (hi - lo) as u64)
        }));
        let arc = self.data[col].take().expect("each data chunk placed once");
        // A move only once the encode stage has dropped its clones of
        // this chunk's `Arc`, else a whole-chunk copy — on the memory
        // plane nearly always (137 of 146 placements measured; 17 of 60
        // over a socket): a column is ready when its CRC pieces are in,
        // while queued stripe-major `Contrib` tasks still hold the `Arc`.
        // Storing later would lose the store/encode overlap: ROADMAP item 3.
        let bytes = Arc::try_unwrap(arc).unwrap_or_else(|a| (*a).clone());
        let node = self.placement.data_nodes()[col];
        self.store(node, bytes, crc, &format!("data chunk {col}"), cluster);
    }

    fn place_parity(&mut self, i: usize, cluster: &mut impl DataPlane) {
        let geo = self.geo;
        let crc = self.stitch((0..geo.w).flat_map(|c| (0..geo.stripes).map(move |b| (c, b))).map(
            |(c, b)| {
                let (lo, hi) = geo.rows_of(b);
                (self.parity_crcs[i][c][b], (hi - lo) as u64)
            },
        ));
        let bytes = std::mem::take(&mut self.parity[i]);
        let node = self.placement.parity_nodes()[i];
        self.store(node, bytes, crc, &format!("parity chunk {i}"), cluster);
    }

    /// One gated store of a chunk blob; its stitched CRC is kept for
    /// the manifest.
    fn store(
        &mut self,
        node: usize,
        bytes: Vec<u8>,
        crc: u32,
        what: &str,
        cluster: &mut impl DataPlane,
    ) {
        debug_assert_eq!(crc32(&bytes), crc, "stitched CRC must match a one-shot pass");
        let len = bytes.len() as u64;
        let mut detail = what.to_string();
        if let Some(gate) = self.gate.as_deref_mut() {
            let admission = gate.admit(len);
            self.slot_wait_ns += admission.waited.as_nanos();
            self.slot_admissions += 1;
            detail = format!(
                "{what} slot=[{}..{}]ns wait={}ns",
                admission.start.as_nanos(),
                admission.end.as_nanos(),
                admission.waited.as_nanos()
            );
        }
        let span = self.tracks.map(|tr| {
            self.trace.expect("tracks imply trace").tracer.span(tr.transfer, "xfer.store", detail)
        });
        let begin = self.recorder.now_ns();
        self.place_begin_ns = self.place_begin_ns.min(begin);
        self.chunk_crcs[node] = crc;
        let result = cluster.put_local(node, &chunk_key(self.version), bytes);
        self.place_end_ns = self.place_end_ns.max(self.recorder.now_ns());
        match result {
            // The `p2p.store` flow leaves from the executor's transfer
            // track (not the engine track, which stays quiet during the
            // run so the deferred `save.encode`/`save.place` summary
            // spans are never timestamp-clamped).
            Ok(()) => {
                if let (Some(tr), Some(t)) = (self.tracks, self.trace) {
                    let flow = t.tracer.flow_start(tr.transfer, "p2p.store");
                    let nt = t.node_track(node);
                    let recv = t.tracer.span(nt, "store.chunk", what);
                    t.tracer.flow_end(nt, flow, "p2p.store");
                    drop(recv);
                }
            }
            Err(err) => self.failed = Some(err.into()),
        }
        drop(span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_covers_every_row_exactly_once() {
        for (chunk_len, w, buffer) in
            [(256usize, 8usize, 64usize), (4096, 8, 4096), (768, 4, 100), (64, 8, 1 << 20)]
        {
            let geo = Geometry::new(2, 2, w, chunk_len, buffer);
            assert!(geo.rows.is_multiple_of(8), "rows {} must stay aligned", geo.rows);
            let mut covered = 0;
            for b in 0..geo.stripes {
                let (lo, hi) = geo.rows_of(b);
                assert_eq!(lo, covered, "stripes must tile the packet dimension");
                assert!(hi > lo);
                covered = hi;
            }
            assert_eq!(covered, geo.ps_total, "chunk_len={chunk_len} w={w} buffer={buffer}");
            // CRC pieces tile the full chunk the same way.
            let total: usize = (0..geo.crc_pieces)
                .map(|p| {
                    let lo = p * geo.crc_piece;
                    (lo + geo.crc_piece).min(geo.chunk_len) - lo
                })
                .sum();
            assert_eq!(total, geo.chunk_len);
        }
    }

    #[test]
    fn occupancy_is_bounded_and_zero_safe() {
        let stats = PipelineStats::default();
        assert_eq!(stats.encode_occupancy(), 0.0);
        let stats = PipelineStats {
            encode_workers: 2,
            encode_busy_ns: 150,
            reduce_busy_ns: 40,
            transfer_busy_ns: 900,
            wall_ns: 100,
            ..Default::default()
        };
        assert!((stats.encode_occupancy() - 0.75).abs() < 1e-9);
        assert!((stats.reduce_occupancy() - 0.4).abs() < 1e-9);
        assert_eq!(stats.transfer_occupancy(), 1.0, "occupancy clamps at 1");
    }
}
