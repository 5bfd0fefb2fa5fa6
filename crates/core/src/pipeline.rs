//! The save executor (paper §IV-C): one task per stripe.
//!
//! ECCheck's coding pipeline runs encode → XOR-reduction → transfer over
//! fixed-size buffers. Here the buffer is a *stripe*: the byte range
//! `[lo, hi)` of every sub-packet of every chunk. [`run`] cuts the packet
//! dimension into stripes, allocates the `m` parity chunks the save will
//! store, and splits them — before any task runs — into each stripe's
//! `m · w` disjoint row slices. Up to `coding_threads` scoped workers then
//! take stripes in order off one shared queue. A task encodes its stripe from
//! all `k` data chunks, read in place, straight into its slices
//! ([`ErasureCode::encode_stripe_into`]). The fused schedule's chains fold
//! the `k` column contributions of a parity row in one sweep, so the
//! XOR-reduction is done in registers and has no stage, thread or buffer
//! of its own. The task then checksums its `(k + m) · w` row slices while
//! they are hot.
//!
//! After the join the calling thread stitches each chunk's CRC out of its
//! row CRCs with [`crc32_combine`] and stores the data chunks, then the
//! parity, in index order, each through the idle-slot [`SlotGate`] when
//! one is attached. Every chunk is moved into its put, never copied. The
//! transfer follows the last stripe instead of overlapping the encode
//! because a put takes a whole blob by value: overlapping would mean
//! copying each finished piece into a blob of its own, the copy this
//! executor exists to avoid. A worker that dies (the chaos fail point, or
//! a bug) fails the save before anything is stored.
//!
//! Stripe size is `rows = min(pipeline_buffer / w, ps / 8)` rows of each
//! `ps`-byte sub-packet, rounded down to the code's 8-row alignment (at
//! least 8). The buffer caps the bytes one task touches; the eighth gives
//! the workers at least eight tasks to share whenever a sub-packet has 64
//! rows. Both are sizes: the stripe cut never depends on the thread count.
//!
//! Determinism: everything observable through the recorder snapshot or a
//! [`ManualClock`](ecc_telemetry::ManualClock)-driven trace is invariant
//! across runs *and* across thread counts, even though which worker
//! encodes a stripe is a scheduling accident. Workers record their spans
//! privately; the calling thread re-emits them after the join in stripe
//! order on one `encode` track whose identity never depends on the
//! thread count, and every telemetry counter counts work (stripes, row
//! checksums, bytes). Busy times land in [`PipelineStats`] instead.

use std::sync::Mutex;

use ecc_checkpoint::{crc32, crc32_combine};
use ecc_cluster::DataPlane;
use ecc_erasure::ErasureCode;
use ecc_sim::SlotGate;
use ecc_telemetry::Recorder;
use ecc_trace::{TrackId, CODING_PID, DRIVER_PID};

use crate::engine::TraceHandles;
use crate::keys::chunk_key;
use crate::{EcCheckError, Placement, ReductionPlan};

/// Stage accounting for one save, reported on [`crate::SaveReport`].
///
/// All fields are plain integers so reports stay `Eq`; occupancy ratios
/// are derived through the accessor methods. Busy figures are wall
/// measurements and vary run to run — the deterministic work counts
/// (stripes, tasks) are also mirrored as telemetry counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PipelineStats {
    /// Stripes the packet dimension was cut into, one encode task each.
    pub stripes: usize,
    /// Rows of a full stripe: bytes each task reads per sub-packet (the
    /// last stripe may be shorter).
    pub stripe_rows: usize,
    /// Parity bytes one full stripe's task writes (`m · w · rows`).
    pub buffer_bytes: usize,
    /// Encode worker threads: `coding_threads`, capped at the stripe
    /// count.
    pub encode_workers: usize,
    /// Encode tasks executed: one per stripe.
    pub encode_tasks: u64,
    /// Summed busy time of the encode workers, ns.
    pub encode_busy_ns: u64,
    /// Busy time of the transfer (CRC stitch and stores), ns.
    pub transfer_busy_ns: u64,
    /// Wall time of the whole executor, ns.
    pub wall_ns: u64,
    /// Always 0: a task writes its stripe into the parity chunk itself,
    /// so there is no ring of contribution buffers to wait on. Kept for
    /// the benchmark's `core.pipeline.ring_waits` row.
    pub ring_waits: u64,
    /// Always 0: every stripe is open from the start, so there is no
    /// admission window to wait on. Kept for the benchmark's
    /// `core.pipeline.window_waits` row.
    pub window_waits: u64,
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

    /// Always 0: the XOR-reduction runs inside each encode task's fused
    /// chains, not on a stage of its own. Kept for the benchmark's
    /// `core.pipeline.reduce_occupancy` row.
    pub fn reduce_occupancy(&self) -> f64 {
        0.0
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

/// One save, handed over from the engine after the data chunks are
/// built.
pub(crate) struct PipelineJob<'a> {
    pub version: u64,
    pub data_chunks: Vec<Vec<u8>>,
    pub code: &'a ErasureCode,
    pub placement: &'a Placement,
    pub reduction: &'a ReductionPlan,
    pub threads: usize,
    pub buffer: usize,
    pub recorder: &'a Recorder,
    pub trace: Option<&'a TraceHandles>,
    pub gate: Option<SlotGate>,
    /// Chaos fail point: the worker picking up stripe `n` panics.
    pub fail_encode_task: Option<u64>,
}

/// What [`run`] produced, beyond the cluster-side effects.
pub(crate) struct PipelineOutcome {
    pub encoded_bytes: u64,
    pub stats: PipelineStats,
    /// CRC-32 of every stored chunk, stitched from the row CRCs the
    /// tasks computed, indexed by the node the chunk was stored on —
    /// the chunk entries of the version's manifest.
    pub chunk_crcs: Vec<u32>,
    /// First/last instants of encode activity, for the engine's
    /// `save.encode` summary span.
    pub encode_begin_ns: u64,
    pub encode_end_ns: u64,
    /// First/last instants of the stores, for `save.place`.
    pub place_begin_ns: u64,
    pub place_end_ns: u64,
}

/// Stripe geometry of a chunk of `w · ps` bytes.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    k: usize,
    m: usize,
    w: usize,
    /// Sub-packet length: `chunk_len / w`, a positive multiple of 8
    /// (packet sizes are multiples of `w · 8`).
    ps: usize,
    /// Rows of a full stripe (a multiple of 8, so every stripe stays
    /// coding-aligned).
    rows: usize,
    stripes: usize,
}

impl Geometry {
    fn new(k: usize, m: usize, w: usize, chunk_len: usize, buffer: usize) -> Self {
        let ps = chunk_len / w;
        let rows = ((buffer / w).min(ps / 8) / 8 * 8).max(8);
        Self { k, m, w, ps, rows, stripes: ps.div_ceil(rows) }
    }

    /// `[lo, hi)` row range of stripe `b` within the packet dimension.
    fn rows_of(&self, stripe: usize) -> (usize, usize) {
        let lo = stripe * self.rows;
        (lo, (lo + self.rows).min(self.ps))
    }
}

/// One encoded stripe: the CRC of each of its `(k + m) · w` row slices
/// (chunk-major, then sub-packet) and the task's span.
struct StripeDone {
    stripe: usize,
    crcs: Vec<u32>,
    begin_ns: u64,
    end_ns: u64,
}

/// Trace tracks of the executor, created up front so their identity
/// never depends on thread scheduling.
struct Tracks {
    transfer: TrackId,
    /// One track for every encode span, whatever the thread count.
    encode: TrackId,
}

/// Runs one save: encodes and stores every chunk of `version`, leaving
/// the cluster byte-identical to a one-pass encode of the same chunks
/// (the oracle in `tests/pipeline_differential.rs`).
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
        recorder,
        trace,
        mut gate,
        fail_encode_task,
    } = job;
    let params = code.params();
    let chunk_len = data_chunks[0].len();
    let geo = Geometry::new(params.k(), params.m(), params.w() as usize, chunk_len, buffer);
    let workers = threads.clamp(1, geo.stripes);
    let tracks = trace.map(|t| Tracks {
        transfer: t.tracer.track(DRIVER_PID, "driver", "pipeline"),
        encode: t.tracer.track(CODING_PID, "coding", "encode"),
    });
    let wall_begin = recorder.now_ns();

    // The parity chunks this save stores, cut into each stripe's row
    // slices (parity-major, then sub-packet) that its task fills.
    let mut parity: Vec<Vec<u8>> = (0..geo.m).map(|_| vec![0u8; chunk_len]).collect();
    let encoded = {
        let mut slices: Vec<Vec<&mut [u8]>> =
            (0..geo.stripes).map(|_| Vec::with_capacity(geo.m * geo.w)).collect();
        for sub in parity.iter_mut().flat_map(|chunk| chunk.chunks_mut(geo.ps)) {
            for (stripe, rows) in sub.chunks_mut(geo.rows).enumerate() {
                slices[stripe].push(rows);
            }
        }
        let data: Vec<&[u8]> = data_chunks.iter().map(Vec::as_slice).collect();
        encode_stripes(&geo, code, &data, slices, workers, recorder, fail_encode_task)
    };
    let Some(mut done) = encoded else {
        return Err(EcCheckError::StageFailed {
            detail: "an encode worker panicked mid-save".to_string(),
        });
    };
    done.sort_unstable_by_key(|d| d.stripe);
    let encode_begin = done.iter().map(|d| d.begin_ns).min().unwrap_or(wall_begin);
    let encode_end = done.iter().map(|d| d.end_ns).max().unwrap_or(encode_begin);
    let encode_busy_ns = done.iter().map(|d| d.end_ns.saturating_sub(d.begin_ns)).sum();
    if let (Some(t), Some(tr)) = (trace, &tracks) {
        for d in &done {
            t.tracer.begin_at(
                tr.encode,
                "encode.stripe",
                format!("stripe={}", d.stripe),
                d.begin_ns,
            );
            t.tracer.end_at(tr.encode, d.end_ns);
        }
    }

    // Stitch each chunk's CRC from its rows, sub-packet by sub-packet.
    let transfer_begin = recorder.now_ns();
    let crcs: Vec<u32> = (0..geo.k + geo.m)
        .map(|id| {
            let rows = (0..geo.w).flat_map(|c| done.iter().map(move |d| (c, d)));
            rows.fold(crc32(&[]), |acc, (c, d)| {
                let (lo, hi) = geo.rows_of(d.stripe);
                crc32_combine(acc, d.crcs[id * geo.w + c], (hi - lo) as u64)
            })
        })
        .collect();

    // The transfer: data chunks by index, then parity, each moved into
    // its put.
    let place_begin = recorder.now_ns();
    let (mut slot_wait_ns, mut slot_admissions) = (0u64, 0u64);
    let mut chunk_crcs = vec![0u32; geo.k + geo.m];
    let nodes = placement.data_nodes().iter().chain(placement.parity_nodes());
    for (id, (&node, bytes)) in nodes.zip(data_chunks.into_iter().chain(parity)).enumerate() {
        debug_assert_eq!(crc32(&bytes), crcs[id], "stitched CRC must match a one-shot pass");
        let what = match id.checked_sub(geo.k) {
            None => format!("data chunk {id}"),
            Some(i) => format!("parity chunk {i}"),
        };
        let mut detail = what.clone();
        if let Some(gate) = gate.as_mut() {
            let admission = gate.admit(bytes.len() as u64);
            slot_wait_ns += admission.waited.as_nanos();
            slot_admissions += 1;
            detail = format!(
                "{what} slot=[{}..{}]ns wait={}ns",
                admission.start.as_nanos(),
                admission.end.as_nanos(),
                admission.waited.as_nanos()
            );
        }
        let traced = trace.zip(tracks.as_ref());
        let span = traced.map(|(t, tr)| t.tracer.span(tr.transfer, "xfer.store", detail));
        cluster.put_local(node, &chunk_key(version), bytes)?;
        // The `p2p.store` flow leaves from the executor's transfer track
        // (not the engine track, which stays quiet during the run so the
        // deferred `save.encode`/`save.place` summary spans are never
        // timestamp-clamped).
        if let Some((t, tr)) = traced {
            let flow = t.tracer.flow_start(tr.transfer, "p2p.store");
            let nt = t.node_track(node);
            let recv = t.tracer.span(nt, "store.chunk", what);
            t.tracer.flow_end(nt, flow, "p2p.store");
            drop(recv);
        }
        drop(span);
        chunk_crcs[node] = crcs[id];
    }
    let place_end = recorder.now_ns();

    let stats = PipelineStats {
        stripes: geo.stripes,
        stripe_rows: geo.rows,
        buffer_bytes: geo.m * geo.w * geo.rows,
        encode_workers: workers,
        encode_tasks: geo.stripes as u64,
        encode_busy_ns,
        transfer_busy_ns: place_end.saturating_sub(transfer_begin),
        wall_ns: place_end.saturating_sub(wall_begin),
        ring_waits: 0,
        window_waits: 0,
        slot_wait_ns,
        slot_admissions,
        local_reduce_targets: reduction.local_target_hits() as u64,
    };
    // Deterministic work counters; busy times stay in `stats`.
    recorder.counter("ecc.pipeline.stripes").add(geo.stripes as u64);
    recorder.counter("ecc.pipeline.encode_tasks").add(stats.encode_tasks);
    recorder.counter("ecc.pipeline.crc_pieces").add((geo.stripes * (geo.k + geo.m) * geo.w) as u64);
    recorder.counter("ecc.pipeline.slot_wait_ns").add(slot_wait_ns);
    recorder.counter("ecc.pipeline.slot_admissions").add(slot_admissions);
    recorder.counter("ecc.pipeline.local_reduce_targets").add(stats.local_reduce_targets);
    recorder.record("ecc.save.encode_ns", encode_end - encode_begin);
    recorder.record("ecc.save.place_ns", place_end.saturating_sub(place_begin));
    recorder.record("ecc.save.pipeline_ns", stats.wall_ns);
    // `encode_stripe_into` records per-stripe work only; the per-encode
    // `erasure.encode.*` totals are kept here, where the encode is whole.
    recorder.counter("erasure.encode.calls").incr();
    recorder.counter("erasure.encode.bytes").add((geo.k * chunk_len) as u64);
    recorder.counter("erasure.encode.parity_bytes").add((geo.m * chunk_len) as u64);
    recorder.record("erasure.encode.ns", encode_end - encode_begin);

    Ok(PipelineOutcome {
        encoded_bytes: (geo.m * chunk_len) as u64,
        stats,
        chunk_crcs,
        encode_begin_ns: encode_begin,
        encode_end_ns: encode_end,
        place_begin_ns: place_begin,
        place_end_ns: place_end,
    })
}

/// Encodes every stripe on `workers` scoped threads that take stripes in
/// order off one shared queue, each into its own `slices`. `None` when a
/// worker panicked: the encode is incomplete and nothing may be stored.
fn encode_stripes(
    geo: &Geometry,
    code: &ErasureCode,
    data: &[&[u8]],
    slices: Vec<Vec<&mut [u8]>>,
    workers: usize,
    recorder: &Recorder,
    fail_at: Option<u64>,
) -> Option<Vec<StripeDone>> {
    let queue = Mutex::new(slices.into_iter().enumerate());
    let task = || {
        let mut done = Vec::new();
        loop {
            let Some((stripe, mut out)) =
                queue.lock().expect("no worker panics holding the stripe queue").next()
            else {
                return done;
            };
            // Stripes leave the queue in order, so the n-th pick-up is
            // stripe n.
            if fail_at == Some(stripe as u64) {
                panic!("injected fail point: encode worker dies at stripe pick-up {stripe}");
            }
            let begin_ns = recorder.now_ns();
            let (lo, hi) = geo.rows_of(stripe);
            code.encode_stripe_into(data, lo, &mut out)
                .expect("stripes tile the packet dimension by construction");
            let data_rows =
                data.iter().flat_map(|chunk| (0..geo.w).map(move |c| &chunk[c * geo.ps..][lo..hi]));
            let crcs = data_rows.chain(out.iter().map(|row| &**row)).map(crc32).collect();
            done.push(StripeDone { stripe, crcs, begin_ns, end_ns: recorder.now_ns() });
        }
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(task)).collect();
        let joined: Result<Vec<Vec<StripeDone>>, _> =
            handles.into_iter().map(|handle| handle.join()).collect();
        joined.ok().map(|done| done.into_iter().flatten().collect())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_covers_every_row_exactly_once() {
        for (chunk_len, w, buffer) in [
            (256usize, 8usize, 64usize),
            (4096, 8, 4096),
            (768, 4, 100),
            (64, 8, 1 << 20),
            (1 << 20, 8, 4 << 20),
        ] {
            let geo = Geometry::new(2, 2, w, chunk_len, buffer);
            assert!(geo.rows.is_multiple_of(8), "rows {} must stay aligned", geo.rows);
            let mut covered = 0;
            for b in 0..geo.stripes {
                let (lo, hi) = geo.rows_of(b);
                assert_eq!(lo, covered, "stripes must tile the packet dimension");
                assert!(hi > lo);
                covered = hi;
            }
            assert_eq!(covered, geo.ps, "chunk_len={chunk_len} w={w} buffer={buffer}");
            // The buffer caps a stripe; a sub-packet of 64 rows or more
            // always yields at least eight.
            assert!(geo.rows <= (buffer / w).max(8), "chunk_len={chunk_len} buffer={buffer}");
            if geo.ps >= 64 {
                assert!(geo.stripes >= 8, "chunk_len={chunk_len}: {} stripes", geo.stripes);
            }
        }
    }

    #[test]
    fn occupancy_is_bounded_and_zero_safe() {
        let stats = PipelineStats::default();
        assert_eq!(stats.encode_occupancy(), 0.0);
        let stats = PipelineStats {
            encode_workers: 2,
            encode_busy_ns: 150,
            transfer_busy_ns: 900,
            wall_ns: 100,
            ..Default::default()
        };
        assert!((stats.encode_occupancy() - 0.75).abs() < 1e-9);
        assert_eq!(stats.reduce_occupancy(), 0.0, "the reduction has no stage of its own");
        assert_eq!(stats.transfer_occupancy(), 1.0, "occupancy clamps at 1");
    }
}
