//! The systematic erasure code and the one executor under it.
//!
//! Every encode, decode, repair and parity delta runs a fused XOR
//! schedule through `run_fused_stripe`, which writes rows
//! `[lo, lo + rows)` of each output sub-packet into slices the caller
//! owns. Whole-chunk calls (`run_fused_on`) hand it the sub-packets of
//! the chunks they return; the save executor hands it, through
//! [`ErasureCode::encode_stripe_into`], one stripe's rows of the parity
//! chunks it stores, and [`crate::CodingPool`] one stripe's rows of the
//! chunks it returns. A decode plans once (`decode_plan`: survivors,
//! missing ids, one matrix inversion), whoever runs it. No path
//! concatenates or copies an output after the fact, and `reconstruct_all` moves the chunks it is given straight
//! through. The unfused op-at-a-time executor (`run_schedule_on`) stays
//! as the differential oracle of `fused_equiv_prop.rs`.

use ecc_gf::{BitMatrix, GaloisField, Matrix};
use ecc_telemetry::{Counter, Recorder};
use ecc_trace::{Tracer, TrackId, CODING_PID};

use crate::schedule::{FusedSchedule, ScheduleKind, XorOp, XorSchedule};
use crate::{cauchy, region, vandermonde, CodeParams, ErasureError};

/// Cached telemetry handles, looked up once at attach time so the coding
/// hot path pays only relaxed atomic adds.
#[derive(Debug, Clone)]
pub(crate) struct CodeMetrics {
    pub(crate) recorder: Recorder,
    encode_calls: Counter,
    encode_bytes: Counter,
    encode_parity_bytes: Counter,
    encode_xor_ops: Counter,
    kernel_bytes: Counter,
    decode_calls: Counter,
    decode_bytes: Counter,
    decode_rebuilt_chunks: Counter,
    decode_xor_ops: Counter,
}

impl CodeMetrics {
    pub(crate) fn attach(recorder: &Recorder) -> Self {
        Self {
            recorder: recorder.clone(),
            encode_calls: recorder.counter("erasure.encode.calls"),
            encode_bytes: recorder.counter("erasure.encode.bytes"),
            encode_parity_bytes: recorder.counter("erasure.encode.parity_bytes"),
            encode_xor_ops: recorder.counter("erasure.encode.xor_ops"),
            kernel_bytes: kernel_bytes_counter(recorder),
            decode_calls: recorder.counter("erasure.decode.calls"),
            decode_bytes: recorder.counter("erasure.decode.bytes"),
            decode_rebuilt_chunks: recorder.counter("erasure.decode.rebuilt_chunks"),
            decode_xor_ops: recorder.counter("erasure.decode.xor_ops"),
        }
    }

    /// Records one whole encode of `data` into `parity` by a schedule of
    /// `xor_ops` XORs, however it was executed.
    pub(crate) fn record_encode(&self, data: &[&[u8]], parity: &[Vec<u8>], xor_ops: usize) {
        let payload: u64 = data.iter().map(|c| c.len() as u64).sum();
        self.encode_calls.incr();
        self.encode_bytes.add(payload);
        self.encode_parity_bytes.add(parity.iter().map(|c| c.len() as u64).sum());
        self.encode_xor_ops.add(xor_ops as u64);
        self.kernel_bytes.add(payload);
    }
}

/// Why a rebuilt chunk is always there for a missing slot: the decode
/// rebuilds exactly the missing ones, in slot order.
const REBUILT: &str = "one rebuilt chunk per missing slot";

/// Per-kernel byte counter (`kernel.<name>.bytes`), plus a one-shot
/// `kernel.selected` event so traces show which SIMD path ran. The name
/// is resolved at attach time from the dispatched kernel.
fn kernel_bytes_counter(recorder: &Recorder) -> Counter {
    let name = ecc_gf::kernel::active_kernel().name();
    recorder.event("kernel.selected", name);
    recorder.counter(&format!("kernel.{name}.bytes"))
}

/// A systematic `(k + m, k)` erasure code operating on byte regions.
///
/// The generator matrix is `[I_k ; E']` (paper Eqn. 3). Encoding and
/// decoding go through the bit-matrix expansion, so they are pure XORs
/// regardless of the field width — the property that makes Cauchy
/// Reed–Solomon attractive for CPU-side checkpoint encoding (paper §IV-A).
///
/// Chunks are equal-length byte slices whose length is a multiple of
/// [`CodeParams::alignment`]; each chunk is internally treated as `w`
/// sub-packets.
///
/// # Examples
///
/// ```
/// use ecc_erasure::{CodeParams, ErasureCode};
///
/// let code = ErasureCode::cauchy_good(CodeParams::new(2, 2, 8)?)?;
/// let data = [vec![1u8; 64], vec![2u8; 64]];
/// let parity = code.encode(&[&data[0], &data[1]])?;
/// assert_eq!(parity.len(), 2);
/// # Ok::<(), ecc_erasure::ErasureError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ErasureCode {
    params: CodeParams,
    gf: GaloisField,
    generator: Matrix,
    smart: XorSchedule,
    dumb: XorSchedule,
    /// Fused forms of the cached schedules ([`XorSchedule::fuse`]): the
    /// hot encode paths execute these so each source stripe is read once
    /// per parity set. The unfused forms are executed only by the
    /// crate's tests, as the differential oracle.
    smart_fused: FusedSchedule,
    dumb_fused: FusedSchedule,
    /// Fused single-column smart schedules, one per data chunk:
    /// `columns[j]` maps data chunk `j` alone onto every parity chunk.
    /// By GF(2) linearity a change of chunk `j` changes the parity by
    /// exactly that image — what [`ErasureCode::parity_delta`] runs.
    columns: Vec<FusedSchedule>,
    metrics: Option<CodeMetrics>,
    tracer: Option<(Tracer, TrackId)>,
}

impl ErasureCode {
    /// Builds a code from an explicit systematic generator matrix.
    ///
    /// # Errors
    ///
    /// Returns [`ErasureError::InvalidParams`] when the matrix shape is not
    /// `(k + m) × k` or the top `k × k` block is not the identity.
    pub fn from_generator(params: CodeParams, generator: Matrix) -> Result<Self, ErasureError> {
        if generator.rows() != params.n() || generator.cols() != params.k() {
            return Err(ErasureError::InvalidParams {
                detail: format!(
                    "generator must be {}x{}, got {}x{}",
                    params.n(),
                    params.k(),
                    generator.rows(),
                    generator.cols()
                ),
            });
        }
        for i in 0..params.k() {
            for j in 0..params.k() {
                if generator.get(i, j) != u16::from(i == j) {
                    return Err(ErasureError::InvalidParams {
                        detail: "generator is not systematic (top block is not identity)"
                            .to_string(),
                    });
                }
            }
        }
        let gf = GaloisField::new(params.w())?;
        let parity_rows: Vec<usize> = (params.k()..params.n()).collect();
        let parity = generator.select_rows(&parity_rows);
        let bits = BitMatrix::from_gf_matrix(&parity, &gf);
        let w = params.w() as usize;
        let smart =
            XorSchedule::from_bitmatrix(&bits, params.k(), params.m(), w, ScheduleKind::Smart);
        let dumb =
            XorSchedule::from_bitmatrix(&bits, params.k(), params.m(), w, ScheduleKind::Dumb);
        let columns = (0..params.k())
            .map(|chunk| {
                let column =
                    Matrix::from_fn(params.m(), 1, |i, _| generator.get(params.k() + i, chunk));
                let col_bits = BitMatrix::from_gf_matrix(&column, &gf);
                XorSchedule::from_bitmatrix(&col_bits, 1, params.m(), w, ScheduleKind::Smart).fuse()
            })
            .collect();
        let smart_fused = smart.fuse();
        let dumb_fused = dumb.fuse();
        Ok(Self {
            params,
            gf,
            generator,
            smart,
            dumb,
            smart_fused,
            dumb_fused,
            columns,
            metrics: None,
            tracer: None,
        })
    }

    /// Attaches a telemetry recorder: encode/decode calls, bytes, XOR-op
    /// counts and latencies are recorded under `erasure.*`, and the
    /// smart/dumb schedule sizes are published once as
    /// `erasure.schedule.{smart,dumb}_xors`.
    pub fn set_recorder(&mut self, recorder: &Recorder) {
        recorder.counter("erasure.schedule.smart_xors").add(self.smart.xor_count() as u64);
        recorder.counter("erasure.schedule.dumb_xors").add(self.dumb.xor_count() as u64);
        self.metrics = Some(CodeMetrics::attach(recorder));
    }

    /// Attaches a span tracer: every serial encode/decode emits an
    /// `erasure.{encode,decode}` span on the coding process's `coder`
    /// track.
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        let track = tracer.track(CODING_PID, "coding", "coder");
        self.tracer = Some((tracer.clone(), track));
    }

    /// Builds the code ECCheck uses by default: the "good" Cauchy
    /// Reed–Solomon generator.
    ///
    /// # Errors
    ///
    /// Propagates generator-construction failures.
    pub fn cauchy_good(params: CodeParams) -> Result<Self, ErasureError> {
        Self::from_generator(params, cauchy::generator_good(params)?)
    }

    /// Builds a code from the raw (un-normalised) Cauchy generator.
    ///
    /// # Errors
    ///
    /// Propagates generator-construction failures.
    pub fn cauchy(params: CodeParams) -> Result<Self, ErasureError> {
        Self::from_generator(params, cauchy::generator(params)?)
    }

    /// Builds a code from a systematic Vandermonde generator (the
    /// comparison scheme in the coding ablation).
    ///
    /// # Errors
    ///
    /// Propagates generator-construction failures.
    pub fn vandermonde(params: CodeParams) -> Result<Self, ErasureError> {
        Self::from_generator(params, vandermonde::generator(params)?)
    }

    /// The code parameters.
    pub fn params(&self) -> CodeParams {
        self.params
    }

    /// The underlying Galois field.
    pub fn gf(&self) -> &GaloisField {
        &self.gf
    }

    /// The full `(k + m) × k` generator matrix.
    pub fn generator(&self) -> &Matrix {
        &self.generator
    }

    /// Generator coefficient `e_{row,col}` — what a worker multiplies its
    /// packet by when producing the encoded packet destined for parity
    /// chunk `row` (paper Fig. 6, the "encoding" step).
    ///
    /// # Panics
    ///
    /// Panics when the indices are out of bounds.
    pub fn coef(&self, row: usize, col: usize) -> u16 {
        self.generator.get(row, col)
    }

    /// The cached XOR schedule of the given kind.
    pub fn schedule(&self, kind: ScheduleKind) -> &XorSchedule {
        match kind {
            ScheduleKind::Smart => &self.smart,
            ScheduleKind::Dumb => &self.dumb,
        }
    }

    /// The cached fused form of the schedule of the given kind — what
    /// the encode paths actually execute.
    pub fn fused_schedule(&self, kind: ScheduleKind) -> &FusedSchedule {
        match kind {
            ScheduleKind::Smart => &self.smart_fused,
            ScheduleKind::Dumb => &self.dumb_fused,
        }
    }

    /// Encodes `k` data chunks into `m` parity chunks using the smart
    /// schedule.
    ///
    /// # Errors
    ///
    /// Returns [`ErasureError::BadChunkLength`] when the chunk count is not
    /// `k`, lengths differ, or the length is not a multiple of
    /// [`CodeParams::alignment`].
    pub fn encode(&self, data: &[&[u8]]) -> Result<Vec<Vec<u8>>, ErasureError> {
        self.encode_with(data, ScheduleKind::Smart)
    }

    /// Encodes with an explicit schedule kind.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ErasureCode::encode`].
    pub fn encode_with(
        &self,
        data: &[&[u8]],
        kind: ScheduleKind,
    ) -> Result<Vec<Vec<u8>>, ErasureError> {
        self.encode_impl(data, kind, true)
    }

    /// Encodes through the *unfused* op-at-a-time executor — the
    /// reference the fused executor is differentially tested against
    /// (`fused_equiv_prop.rs`). Bit-identical to
    /// [`ErasureCode::encode_with`], just slower.
    #[cfg(test)]
    pub(crate) fn encode_unfused(
        &self,
        data: &[&[u8]],
        kind: ScheduleKind,
    ) -> Result<Vec<Vec<u8>>, ErasureError> {
        self.encode_impl(data, kind, false)
    }

    fn encode_impl(
        &self,
        data: &[&[u8]],
        kind: ScheduleKind,
        fused: bool,
    ) -> Result<Vec<Vec<u8>>, ErasureError> {
        let ps = self.validate_chunks(data, self.params.k())?;
        let timer = self.metrics.as_ref().map(|m| m.recorder.timer("erasure.encode.ns"));
        let span = self.tracer.as_ref().map(|(tracer, track)| {
            let bytes: usize = data.iter().map(|c| c.len()).sum();
            tracer.span(*track, "erasure.encode", format!("{kind:?}, {bytes} B"))
        });
        let parity = if fused {
            run_fused_on(self.fused_schedule(kind), data, ps)
        } else {
            run_schedule_on(self.schedule(kind), data, ps)
        };
        drop(span);
        drop(timer);
        if let Some(m) = &self.metrics {
            m.record_encode(data, &parity, self.schedule(kind).xor_count());
        }
        Ok(parity)
    }

    /// Encodes one *stripe* of the `k` data chunks — rows `[lo, lo + rows)`
    /// of each of their `w` sub-packets, read in place — straight into
    /// caller-owned parity slices: `out[i * w + r]` receives those rows of
    /// sub-packet `r` of parity chunk `i`, so `out` is `m · w` slices of
    /// `rows` bytes each. The fused smart schedule runs, so each parity
    /// row is the XOR-reduction of its `k` column contributions, folded in
    /// one sweep. Stripes are independent: encoding stripes that tile the
    /// sub-packet into slices of preallocated parity chunks is
    /// bit-identical to [`ErasureCode::encode`] (property-tested in
    /// `fused_equiv_prop.rs`). The save executor runs one call per task.
    ///
    /// Records `erasure.encode.xor_ops` and `kernel.<name>.bytes` for the
    /// stripe. The per-encode totals (`erasure.encode.{calls,bytes,
    /// parity_bytes,ns}`) are the caller's, which knows when the encode is
    /// whole.
    ///
    /// # Errors
    ///
    /// Returns [`ErasureError::BadChunkLength`] under the conditions of
    /// [`ErasureCode::encode`], and [`ErasureError::InvalidParams`] when
    /// `out` is not `m · w` non-empty slices of one length or the stripe
    /// runs past the sub-packet.
    pub fn encode_stripe_into(
        &self,
        data: &[&[u8]],
        lo: usize,
        out: &mut [&mut [u8]],
    ) -> Result<(), ErasureError> {
        let ps = self.validate_chunks(data, self.params.k())?;
        let (m, w) = (self.params.m(), self.params.w() as usize);
        let rows = out.first().map_or(0, |o| o.len());
        if out.len() != m * w
            || rows == 0
            || out.iter().any(|o| o.len() != rows)
            || rows > ps.saturating_sub(lo)
        {
            return Err(ErasureError::InvalidParams {
                detail: format!(
                    "stripe output must be m * w = {} slices of one non-zero length within \
                     [{lo}, {ps}), got {} slices",
                    m * w,
                    out.len()
                ),
            });
        }
        run_fused_stripe(&self.smart_fused, data, ps, lo, out);
        if let Some(metrics) = &self.metrics {
            metrics.encode_xor_ops.add(self.smart.xor_count() as u64);
            metrics.kernel_bytes.add((data.len() * w * rows) as u64);
        }
        Ok(())
    }

    /// Reconstructs all `k` data chunks from any `k` surviving chunks.
    ///
    /// `shards[i]` is `Some` when chunk `i` (data for `i < k`, parity
    /// otherwise) survives. Present data chunks are returned as-is; missing
    /// ones are decoded via the inverted survivor submatrix (paper Eqn. 5).
    ///
    /// # Errors
    ///
    /// Returns [`ErasureError::TooFewSurvivors`] with fewer than `k`
    /// shards, and [`ErasureError::BadChunkLength`] on inconsistent chunk
    /// lengths.
    pub fn decode(&self, shards: &[Option<&[u8]>]) -> Result<Vec<Vec<u8>>, ErasureError> {
        self.decode_impl(shards, true)
    }

    /// Decodes through the *unfused* op-at-a-time executor — the
    /// reference for the fused differential suite. Bit-identical to
    /// [`ErasureCode::decode`].
    #[cfg(test)]
    pub(crate) fn decode_unfused(
        &self,
        shards: &[Option<&[u8]>],
    ) -> Result<Vec<Vec<u8>>, ErasureError> {
        self.decode_impl(shards, false)
    }

    fn decode_impl(
        &self,
        shards: &[Option<&[u8]>],
        fused: bool,
    ) -> Result<Vec<Vec<u8>>, ErasureError> {
        let rebuilt = self.rebuild_data(shards, fused)?;
        Ok(with_rebuilt(shards, self.params.k(), rebuilt))
    }

    /// Rebuilds the missing data chunks of `shards`, in index order,
    /// from the first `k` present ones (paper Eqn. 5), and records
    /// `erasure.decode.*` whether or not a chunk was missing.
    fn rebuild_data(
        &self,
        shards: &[Option<&[u8]>],
        fused: bool,
    ) -> Result<Vec<Vec<u8>>, ErasureError> {
        let plan = self.decode_plan(shards)?;
        Ok(self.rebuild_with(&plan, |schedule| {
            // Ad-hoc decode schedules are fused on the fly (grouping is
            // linear in the op count, noise next to the inversion).
            if fused {
                run_fused_on(&schedule.fuse(), &plan.survivors, plan.ps)
            } else {
                run_schedule_on(schedule, &plan.survivors, plan.ps)
            }
        }))
    }

    /// Plans the decode of `shards`: checks the slots, picks the first
    /// `k` present shards as survivors, and inverts their generator rows
    /// once into the schedule that rebuilds the missing data chunks.
    /// Shared by [`ErasureCode::decode`] and [`crate::CodingPool::decode`].
    pub(crate) fn decode_plan<'a>(
        &self,
        shards: &[Option<&'a [u8]>],
    ) -> Result<DecodePlan<'a>, ErasureError> {
        let (k, n) = (self.params.k(), self.params.n());
        if shards.len() != n {
            return Err(ErasureError::BadChunkLength {
                detail: format!("expected {n} shard slots, got {}", shards.len()),
            });
        }
        let present: Vec<usize> = (0..n).filter(|&i| shards[i].is_some()).collect();
        if present.len() < k {
            return Err(ErasureError::TooFewSurvivors { needed: k, available: present.len() });
        }
        let ids: Vec<usize> = present.into_iter().take(k).collect();
        let survivors: Vec<&[u8]> =
            ids.iter().map(|&i| shards[i].expect("survivor present")).collect();
        let ps = self.validate_chunks(&survivors, k)?;
        let missing: Vec<usize> = (0..k).filter(|&i| shards[i].is_none()).collect();
        let mut schedule = None;
        if !missing.is_empty() {
            let inv = self.generator.select_rows(&ids).inverted(&self.gf)?;
            let bits = BitMatrix::from_gf_matrix(&inv.select_rows(&missing), &self.gf);
            let w = self.params.w() as usize;
            schedule =
                Some(XorSchedule::from_bitmatrix(&bits, k, missing.len(), w, ScheduleKind::Smart));
        }
        Ok(DecodePlan { survivors, ps, missing, schedule })
    }

    /// Rebuilds the plan's missing chunks with `rebuild`, given the
    /// plan's schedule (not called when nothing is missing), under the
    /// `erasure.decode` span and timer, and records one decode.
    pub(crate) fn rebuild_with(
        &self,
        plan: &DecodePlan<'_>,
        rebuild: impl FnOnce(&XorSchedule) -> Vec<Vec<u8>>,
    ) -> Vec<Vec<u8>> {
        let timer = self.metrics.as_ref().map(|m| m.recorder.timer("erasure.decode.ns"));
        let span = self.tracer.as_ref().map(|(tracer, track)| {
            tracer.span(*track, "erasure.decode", format!("{} missing", plan.missing.len()))
        });
        let rebuilt = plan.schedule.as_ref().map_or_else(Vec::new, rebuild);
        drop(span);
        drop(timer);
        if let Some(m) = &self.metrics {
            let bytes = (plan.survivors.len() * plan.survivors[0].len()) as u64;
            m.decode_xor_ops.add(plan.schedule.as_ref().map_or(0, |s| s.xor_count() as u64));
            m.decode_calls.incr();
            m.decode_bytes.add(bytes);
            m.decode_rebuilt_chunks.add(plan.missing.len() as u64);
            m.kernel_bytes.add(bytes);
        }
        rebuilt
    }

    /// Reconstructs *all* `n` chunks (data and parity) — the step that
    /// restores full fault tolerance after a failure (paper §III-B
    /// recovery task 2). The shards are taken by value and every present
    /// one is moved through as the same buffer; only the missing chunks
    /// are computed: the data as [`ErasureCode::decode`] would, the
    /// parity from the data. Records `erasure.decode.*` like `decode`,
    /// the rebuilt parity included.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ErasureCode::decode`].
    pub fn reconstruct_all(
        &self,
        shards: Vec<Option<Vec<u8>>>,
    ) -> Result<Vec<Vec<u8>>, ErasureError> {
        let (k, n) = (self.params.k(), self.params.n());
        let refs: Vec<Option<&[u8]>> = shards.iter().map(Option::as_deref).collect();
        let data_rebuilt = self.rebuild_data(&refs, true)?;
        let missing_parity: Vec<usize> = (k..n).filter(|&i| refs[i].is_none()).collect();
        let mut parity_rebuilt = Vec::new();
        if !missing_parity.is_empty() {
            let mut rebuilt = data_rebuilt.iter().map(Vec::as_slice);
            let data: Vec<&[u8]> = refs[..k]
                .iter()
                .map(|&s| s.unwrap_or_else(|| rebuilt.next().expect(REBUILT)))
                .collect();
            let rows = self.generator.select_rows(&missing_parity);
            let bits = BitMatrix::from_gf_matrix(&rows, &self.gf);
            let w = self.params.w() as usize;
            let schedule =
                XorSchedule::from_bitmatrix(&bits, k, missing_parity.len(), w, ScheduleKind::Smart);
            parity_rebuilt = run_fused_on(&schedule.fuse(), &data, data[0].len() / w);
            if let Some(m) = &self.metrics {
                m.decode_xor_ops.add(schedule.xor_count() as u64);
                m.decode_rebuilt_chunks.add(missing_parity.len() as u64);
            }
        }
        let mut rebuilt = data_rebuilt.into_iter().chain(parity_rebuilt);
        Ok(shards
            .into_iter()
            .map(|s| s.unwrap_or_else(|| rebuilt.next().expect(REBUILT)))
            .collect())
    }

    /// The `n × k` decode matrix `G · G_S^{-1}` for a survivor set: row `c`
    /// expresses chunk `c` as a combination of the `k` survivor chunks
    /// (unit rows for the survivors themselves). This is the matrix `E'`
    /// that ECCheck distributes to nodes during recovery (paper Fig. 7).
    ///
    /// # Errors
    ///
    /// Returns [`ErasureError::TooFewSurvivors`] unless exactly `k`
    /// distinct, in-range survivor indices are given.
    pub fn decode_matrix(&self, survivors: &[usize]) -> Result<Matrix, ErasureError> {
        let k = self.params.k();
        if survivors.len() != k {
            return Err(ErasureError::TooFewSurvivors { needed: k, available: survivors.len() });
        }
        let mut sorted = survivors.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != k || *sorted.last().expect("non-empty") >= self.params.n() {
            return Err(ErasureError::InvalidParams {
                detail: "survivor indices must be distinct chunk ids".to_string(),
            });
        }
        let sub = self.generator.select_rows(survivors);
        let inv = sub.inverted(&self.gf)?;
        Ok(self.generator.mul(&inv, &self.gf)?)
    }

    pub(crate) fn validate_chunks(
        &self,
        chunks: &[&[u8]],
        expect: usize,
    ) -> Result<usize, ErasureError> {
        if chunks.len() != expect {
            return Err(ErasureError::BadChunkLength {
                detail: format!("expected {expect} chunks, got {}", chunks.len()),
            });
        }
        let len = chunks[0].len();
        if len == 0 || !len.is_multiple_of(self.params.alignment()) {
            return Err(ErasureError::BadChunkLength {
                detail: format!(
                    "chunk length {len} must be a positive multiple of {}",
                    self.params.alignment()
                ),
            });
        }
        if chunks.iter().any(|c| c.len() != len) {
            return Err(ErasureError::BadChunkLength {
                detail: "chunks must all have the same length".to_string(),
            });
        }
        Ok(len / self.params.w() as usize)
    }
}

/// What one decode needs, built once by [`ErasureCode::decode_plan`].
pub(crate) struct DecodePlan<'a> {
    /// The first `k` present shards, in slot order.
    pub(crate) survivors: Vec<&'a [u8]>,
    /// Sub-packet length of every shard.
    pub(crate) ps: usize,
    /// The missing data chunk ids, in slot order.
    pub(crate) missing: Vec<usize>,
    /// The schedule rebuilding `missing` from `survivors`; `None` when
    /// no data chunk is missing.
    pub(crate) schedule: Option<XorSchedule>,
}

/// The `k` data chunks of `shards`: the present ones copied, the missing
/// ones taken from `rebuilt` in slot order.
pub(crate) fn with_rebuilt(
    shards: &[Option<&[u8]>],
    k: usize,
    rebuilt: Vec<Vec<u8>>,
) -> Vec<Vec<u8>> {
    let mut rebuilt = rebuilt.into_iter();
    shards[..k]
        .iter()
        .map(|&s| s.map_or_else(|| rebuilt.next().expect(REBUILT), <[u8]>::to_vec))
        .collect()
}

/// Executes an XOR schedule over real byte regions.
///
/// `sources` are the schedule's `k` input chunks, each `w · ps` bytes; the
/// return value holds the schedule's `m` output chunks. The unfused
/// oracle of the fused executors.
pub(crate) fn run_schedule_on(
    schedule: &XorSchedule,
    sources: &[&[u8]],
    ps: usize,
) -> Vec<Vec<u8>> {
    let (m, w) = (schedule.m(), schedule.w());
    let parity_subs = run_schedule_stripe(schedule, sources, ps, 0, ps);
    // Reassemble sub-packets into contiguous chunks.
    (0..m)
        .map(|i| {
            let mut chunk = Vec::with_capacity(w * ps);
            for r in 0..w {
                chunk.extend_from_slice(&parity_subs[i * w + r]);
            }
            chunk
        })
        .collect()
}

/// Cache-blocking target for one schedule pass: the working set of a
/// block — one block-sized slice of every data *and* parity sub-packet,
/// `(k + m)·w·block` bytes — should fit comfortably in L2 so parity lines
/// and kernel tables stay resident across the whole op list instead of
/// being streamed out between ops.
const L2_BLOCK_TARGET: usize = 128 * 1024;

/// Minimum block size; below this the per-op slicing overhead outweighs
/// any locality win, so small stripes run as a single block.
const MIN_BLOCK: usize = 4096;

/// Block length (bytes of each sub-packet per pass) for a `(k, m, w)`
/// schedule, cache-line aligned.
fn schedule_block_len(k: usize, m: usize, w: usize) -> usize {
    let subpackets = ((k + m) * w).max(1);
    let raw = (L2_BLOCK_TARGET / subpackets).max(MIN_BLOCK);
    (raw + 63) & !63
}

/// Executes a schedule over the byte range `[lo, hi)` of every sub-packet.
///
/// Because XOR schedules act independently on each byte column, executing
/// disjoint stripes and concatenating the results is identical to a
/// single full-width execution. Returns the `m·w` parity sub-packet
/// stripes, each `hi - lo` bytes.
///
/// Internally the stripe is processed in L2-sized blocks (the full op
/// list runs per block before advancing — see [`schedule_block_len`]);
/// since every op is column-wise this is bit-identical to one full-width
/// pass, property-tested in `tests/kernel_equiv_prop.rs`.
pub(crate) fn run_schedule_stripe(
    schedule: &XorSchedule,
    sources: &[&[u8]],
    ps: usize,
    lo: usize,
    hi: usize,
) -> Vec<Vec<u8>> {
    let (k, m, w) = (schedule.k(), schedule.m(), schedule.w());
    debug_assert_eq!(sources.len(), k);
    debug_assert!(lo <= hi && hi <= ps);
    let stripe = hi - lo;
    let parity_base = k * w;
    let mut parity_subs: Vec<Vec<u8>> = vec![vec![0u8; stripe]; m * w];
    let block = schedule_block_len(k, m, w);
    let mut blo = 0usize;
    while blo < stripe {
        let bhi = (blo + block).min(stripe);
        for op in schedule.ops() {
            let dst = op.dst() - parity_base;
            let src = op.src();
            if src < parity_base {
                let base = (src % w) * ps + lo;
                let src_slice = &sources[src / w][base + blo..base + bhi];
                match op {
                    XorOp::Copy { .. } => {
                        region::copy_into(&mut parity_subs[dst][blo..bhi], src_slice)
                    }
                    XorOp::Xor { .. } => {
                        region::xor_into(&mut parity_subs[dst][blo..bhi], src_slice)
                    }
                }
            } else {
                let src_idx = src - parity_base;
                debug_assert_ne!(src_idx, dst, "schedule must not read its own destination");
                let [s, d] = parity_subs
                    .get_disjoint_mut([src_idx, dst])
                    .expect("schedule indices are distinct and in range");
                match op {
                    XorOp::Copy { .. } => region::copy_into(&mut d[blo..bhi], &s[blo..bhi]),
                    XorOp::Xor { .. } => region::xor_into(&mut d[blo..bhi], &s[blo..bhi]),
                }
            }
        }
        blo = bhi;
    }
    parity_subs
}

/// [`run_schedule_on`] for a fused schedule — the executor under every
/// encode, decode, repair and parity delta. Each returned chunk is
/// allocated once and its `w` sub-packets are handed to
/// [`run_fused_stripe`] as the output slices, so nothing is
/// concatenated afterwards.
pub(crate) fn run_fused_on(fused: &FusedSchedule, sources: &[&[u8]], ps: usize) -> Vec<Vec<u8>> {
    let mut chunks: Vec<Vec<u8>> = (0..fused.m()).map(|_| vec![0u8; fused.w() * ps]).collect();
    let mut subs: Vec<&mut [u8]> = chunks.iter_mut().flat_map(|c| c.chunks_mut(ps)).collect();
    run_fused_stripe(fused, sources, ps, 0, &mut subs);
    chunks
}

/// Executes a fused schedule over the rows `[lo, lo + rows)` of every
/// source sub-packet, writing output sub-packet `o` over those rows into
/// the caller-owned `out[o]` (`m · w` slices of `rows` bytes each).
/// Every chain executes as one [`ecc_gf::Kernel::xor_chain`] sweep per
/// L2 block, so each destination block is written once per parity set
/// and stays in registers while its sources stream through. Because XOR
/// schedules act independently on each byte column, executing disjoint
/// stripes (on any threads, in any order) into slices of the same
/// output chunks is identical to one full-width execution — the
/// primitive every task of the stripe executor ([`crate::stripes::run`])
/// runs, for the save and for [`crate::CodingPool`] alike. Bit-identical to the unfused executor (fusion
/// only regroups an XOR-linear computation; property-tested in
/// `fused_equiv_prop.rs`).
pub(crate) fn run_fused_stripe(
    fused: &FusedSchedule,
    sources: &[&[u8]],
    ps: usize,
    lo: usize,
    out: &mut [&mut [u8]],
) {
    let (k, m, w) = (fused.k(), fused.m(), fused.w());
    let rows = out.first().map_or(0, |o| o.len());
    debug_assert_eq!(sources.len(), k);
    debug_assert_eq!(out.len(), m * w);
    debug_assert!(out.iter().all(|o| o.len() == rows) && lo + rows <= ps);
    let parity_base = k * w;
    let kernel = ecc_gf::kernel::active_kernel();
    let block = schedule_block_len(k, m, w);
    let mut blo = 0usize;
    while blo < rows {
        let bhi = (blo + block).min(rows);
        for chain in fused.chains() {
            let dst = chain.dst - parity_base;
            // Move the destination slice out so the chain's sources may
            // borrow sibling output rows — smart derivations read
            // previously completed rows.
            let dst_slice = std::mem::take(&mut out[dst]);
            let srcs: Vec<&[u8]> = chain
                .srcs
                .iter()
                .map(|&src| {
                    if src < parity_base {
                        let base = (src % w) * ps + lo;
                        &sources[src / w][base + blo..base + bhi]
                    } else {
                        debug_assert_ne!(
                            src - parity_base,
                            dst,
                            "chain must not read its own destination"
                        );
                        &out[src - parity_base][blo..bhi]
                    }
                })
                .collect();
            kernel.xor_chain(&mut dst_slice[blo..bhi], &srcs, chain.assign);
            drop(srcs);
            out[dst] = dst_slice;
        }
        blo = bhi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::prelude::*;

    fn random_chunks(k: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..k).map(|_| (0..len).map(|_| rand::Rng::gen(&mut rng)).collect()).collect()
    }

    fn all_erasure_patterns(n: usize, erased: usize) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        let mut combo: Vec<usize> = (0..erased).collect();
        loop {
            out.push(combo.clone());
            let mut i = erased;
            let mut advanced = false;
            while i > 0 {
                i -= 1;
                if combo[i] < n - erased + i {
                    combo[i] += 1;
                    for j in i + 1..erased {
                        combo[j] = combo[j - 1] + 1;
                    }
                    advanced = true;
                    break;
                }
            }
            if !advanced {
                return out;
            }
        }
    }

    fn roundtrip(code: &ErasureCode, len: usize) {
        let p = code.params();
        let data = random_chunks(p.k(), len, 42);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = code.encode(&refs).unwrap();
        let mut chunks: Vec<&[u8]> = refs.clone();
        chunks.extend(parity.iter().map(|c| c.as_slice()));
        for erased_count in 1..=p.m() {
            for pattern in all_erasure_patterns(p.n(), erased_count) {
                let shards: Vec<Option<&[u8]>> =
                    (0..p.n()).map(|i| (!pattern.contains(&i)).then(|| chunks[i])).collect();
                let decoded = code.decode(&shards).unwrap();
                assert_eq!(decoded, data, "pattern {pattern:?}");
            }
        }
    }

    #[test]
    fn paper_setting_roundtrip_all_patterns() {
        // k = m = 2 as in the paper's testbed; every 1- and 2-erasure
        // pattern must decode bit-exactly.
        let code = ErasureCode::cauchy_good(CodeParams::new(2, 2, 8).unwrap()).unwrap();
        roundtrip(&code, 256);
    }

    #[test]
    fn wider_codes_roundtrip() {
        for (k, m) in [(4, 2), (3, 3), (5, 3)] {
            let code = ErasureCode::cauchy_good(CodeParams::new(k, m, 8).unwrap()).unwrap();
            roundtrip(&code, 128);
        }
    }

    #[test]
    fn vandermonde_roundtrip() {
        let code = ErasureCode::vandermonde(CodeParams::new(3, 2, 8).unwrap()).unwrap();
        roundtrip(&code, 128);
    }

    #[test]
    fn raw_cauchy_roundtrip() {
        let code = ErasureCode::cauchy(CodeParams::new(3, 2, 8).unwrap()).unwrap();
        roundtrip(&code, 128);
    }

    #[test]
    fn gf4_and_gf16_roundtrip() {
        for w in [4u8, 16] {
            let code = ErasureCode::cauchy_good(CodeParams::new(2, 2, w).unwrap()).unwrap();
            roundtrip(&code, 2 * code.params().alignment());
        }
    }

    #[test]
    fn dumb_and_smart_encode_agree() {
        let code = ErasureCode::cauchy_good(CodeParams::new(4, 3, 8).unwrap()).unwrap();
        let data = random_chunks(4, 192, 7);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let smart = code.encode_with(&refs, ScheduleKind::Smart).unwrap();
        let dumb = code.encode_with(&refs, ScheduleKind::Dumb).unwrap();
        assert_eq!(smart, dumb);
    }

    #[test]
    fn encode_matches_matrix_arithmetic() {
        // Cross-check the byte-region path against symbol-level math: with
        // chunks of exactly `alignment` bytes, treat each chunk as w·8/w
        // symbols... simpler: single-symbol-per-subpacket comparison via
        // mul_vec on one byte column.
        let params = CodeParams::new(2, 2, 8).unwrap();
        let code = ErasureCode::cauchy_good(params).unwrap();
        let gf = code.gf();
        // One byte per sub-packet is below alignment, so use alignment-wide
        // chunks with a repeated value; then every byte of parity sub-packet
        // r is the same function of the data bytes.
        let d0 = vec![0xA7u8; 64];
        let d1 = vec![0x35u8; 64];
        let parity = code.encode(&[&d0, &d1]).unwrap();
        // Symbol-level: p_i = e_i0*d0 + e_i1*d1 evaluated byte-wise. A byte
        // of chunk j at sub-packet c carries bit c of consecutive symbols,
        // so with constant fill the symbol seen by the decoder is the fill
        // byte itself only when interpreted bit-plane-wise. Instead verify
        // via decode: erase both data chunks and ensure parity alone
        // recovers the exact fills.
        let shards: Vec<Option<&[u8]>> = vec![None, None, Some(&parity[0]), Some(&parity[1])];
        let decoded = code.decode(&shards).unwrap();
        assert!(decoded[0].iter().all(|&b| b == 0xA7));
        assert!(decoded[1].iter().all(|&b| b == 0x35));
        // And the generator coefficients are exposed:
        assert_eq!(code.coef(0, 0), 1);
        assert_eq!(code.coef(1, 1), 1);
        assert_ne!(gf.mul(code.coef(2, 0), 1), 0);
    }

    #[test]
    fn decode_matrix_has_unit_rows_for_survivors() {
        let code = ErasureCode::cauchy_good(CodeParams::new(2, 2, 8).unwrap()).unwrap();
        // Survivors: data chunk 0 and parity chunk 1 (paper Eqn. 5 example).
        let dm = code.decode_matrix(&[0, 3]).unwrap();
        assert_eq!((dm.rows(), dm.cols()), (4, 2));
        assert_eq!(dm.row(0), &[1, 0]); // chunk 0 = survivor 0
        assert_eq!(dm.row(3), &[0, 1]); // chunk 3 = survivor 1
                                        // Applying the decode matrix to survivor symbols must reproduce the
                                        // generator relation: dm * [d0; p1] == all chunks. Verify via symbols.
        let gf = code.gf();
        let d = [17u16, 201u16];
        let chunks: Vec<u16> = (0..4)
            .map(|r| (0..2).fold(0u16, |acc, c| acc ^ gf.mul(code.coef(r, c), d[c])))
            .collect();
        let survivors = [chunks[0], chunks[3]];
        for (r, &expected) in chunks.iter().enumerate() {
            let rebuilt = (0..2).fold(0u16, |acc, c| acc ^ gf.mul(dm.get(r, c), survivors[c]));
            assert_eq!(rebuilt, expected, "chunk {r}");
        }
    }

    #[test]
    fn reconstruct_all_restores_parity() {
        let code = ErasureCode::cauchy_good(CodeParams::new(2, 2, 8).unwrap()).unwrap();
        let data = random_chunks(2, 128, 3);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = code.encode(&refs).unwrap();
        // Lose data chunk 1 and parity chunk 0.
        let shards = vec![Some(data[0].clone()), None, None, Some(parity[1].clone())];
        let all = code.reconstruct_all(shards).unwrap();
        assert_eq!(all[0], data[0]);
        assert_eq!(all[1], data[1]);
        assert_eq!(all[2], parity[0]);
        assert_eq!(all[3], parity[1]);
    }

    /// A present shard comes back as the very buffer that went in: an
    /// intact repair copies no chunk.
    #[test]
    fn reconstruct_all_moves_present_shards_through() {
        let code = ErasureCode::cauchy_good(CodeParams::new(3, 2, 8).unwrap()).unwrap();
        let data = random_chunks(3, 128, 5);
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let mut chunks = data.clone();
        chunks.extend(code.encode(&refs).unwrap());
        for lost in [vec![], vec![1], vec![0, 4], vec![3, 4]] {
            let shards: Vec<Option<Vec<u8>>> =
                (0..5).map(|i| (!lost.contains(&i)).then(|| chunks[i].clone())).collect();
            let ptrs: Vec<Option<*const u8>> =
                shards.iter().map(|s| s.as_ref().map(|c| c.as_ptr())).collect();
            let all = code.reconstruct_all(shards).unwrap();
            assert_eq!(all, chunks, "lost {lost:?}");
            for (i, ptr) in ptrs.iter().enumerate() {
                if let Some(ptr) = ptr {
                    assert_eq!(all[i].as_ptr(), *ptr, "lost {lost:?}: chunk {i} was copied");
                }
            }
        }
    }

    /// `reconstruct_all` records the decode telemetry `decode` does, plus
    /// the parity it rebuilds.
    #[test]
    fn reconstruct_all_records_decode_metrics() {
        let mut code = ErasureCode::cauchy_good(CodeParams::new(2, 2, 8).unwrap()).unwrap();
        let recorder = Recorder::new();
        code.set_recorder(&recorder);
        let data = random_chunks(2, 128, 6);
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let parity = code.encode(&refs).unwrap();
        // Lose data chunk 0 and parity chunk 1.
        let shards = vec![None, Some(data[1].clone()), Some(parity[0].clone()), None];
        code.reconstruct_all(shards).unwrap();
        let snap = recorder.snapshot();
        assert_eq!(snap.counter("erasure.decode.calls"), 1);
        assert_eq!(snap.counter("erasure.decode.bytes"), 2 * 128);
        assert_eq!(snap.counter("erasure.decode.rebuilt_chunks"), 2);
        assert!(snap.counter("erasure.decode.xor_ops") > 0);
    }

    #[test]
    fn too_few_survivors_is_an_error() {
        let code = ErasureCode::cauchy_good(CodeParams::new(2, 2, 8).unwrap()).unwrap();
        let d0 = vec![0u8; 64];
        let shards: Vec<Option<&[u8]>> = vec![Some(&d0), None, None, None];
        assert!(matches!(
            code.decode(&shards),
            Err(ErasureError::TooFewSurvivors { needed: 2, available: 1 })
        ));
    }

    #[test]
    fn misaligned_chunks_are_rejected() {
        let code = ErasureCode::cauchy_good(CodeParams::new(2, 2, 8).unwrap()).unwrap();
        let d = vec![0u8; 63];
        assert!(matches!(code.encode(&[&d, &d]), Err(ErasureError::BadChunkLength { .. })));
        let a = vec![0u8; 64];
        let b = vec![0u8; 128];
        assert!(matches!(code.encode(&[&a, &b]), Err(ErasureError::BadChunkLength { .. })));
    }

    #[test]
    fn non_systematic_generator_is_rejected() {
        let params = CodeParams::new(2, 2, 8).unwrap();
        let bad = Matrix::from_fn(4, 2, |_, _| 3);
        assert!(matches!(
            ErasureCode::from_generator(params, bad),
            Err(ErasureError::InvalidParams { .. })
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Any k-of-n subset decodes back to the original data for random
        /// payloads (the fundamental MDS recovery invariant).
        #[test]
        fn prop_any_k_subset_decodes(
            seed in any::<u64>(),
            pattern_seed in any::<u64>(),
        ) {
            let code = ErasureCode::cauchy_good(CodeParams::new(3, 2, 8).unwrap()).unwrap();
            let data = random_chunks(3, 128, seed);
            let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
            let parity = code.encode(&refs).unwrap();
            let mut chunks: Vec<&[u8]> = refs.clone();
            chunks.extend(parity.iter().map(|c| c.as_slice()));
            let mut rng = StdRng::seed_from_u64(pattern_seed);
            let mut ids: Vec<usize> = (0..5).collect();
            ids.shuffle(&mut rng);
            let keep: Vec<usize> = ids.into_iter().take(3).collect();
            let shards: Vec<Option<&[u8]>> = (0..5)
                .map(|i| keep.contains(&i).then(|| chunks[i]))
                .collect();
            prop_assert_eq!(code.decode(&shards).unwrap(), data);
        }
    }
}

impl ErasureCode {
    /// Computes the parity *deltas* caused by replacing data chunk
    /// `chunk` with contents differing by `delta` (`delta = old ⊕ new`).
    ///
    /// By linearity of the code over GF(2), XORing the returned regions
    /// into the stored parity chunks updates them as if the full encode
    /// had been re-run — the basis for incremental checkpointing, where
    /// only a few tensors change between saves.
    ///
    /// # Errors
    ///
    /// Returns [`ErasureError::InvalidParams`] for an out-of-range chunk
    /// index and [`ErasureError::BadChunkLength`] for misaligned deltas.
    ///
    /// # Examples
    ///
    /// ```
    /// use ecc_erasure::{CodeParams, ErasureCode};
    /// use ecc_erasure::region::xor_into;
    ///
    /// let code = ErasureCode::cauchy_good(CodeParams::new(2, 2, 8)?)?;
    /// let old = [vec![1u8; 64], vec![2u8; 64]];
    /// let mut parity = code.encode(&[&old[0], &old[1]])?;
    ///
    /// // Chunk 1 changes; patch parity without touching chunk 0.
    /// let new1 = vec![9u8; 64];
    /// let mut delta = old[1].clone();
    /// xor_into(&mut delta, &new1);
    /// for (p, d) in parity.iter_mut().zip(code.parity_delta(1, &delta)?) {
    ///     xor_into(p, &d);
    /// }
    /// assert_eq!(parity, code.encode(&[&old[0], &new1])?);
    /// # Ok::<(), ecc_erasure::ErasureError>(())
    /// ```
    pub fn parity_delta(&self, chunk: usize, delta: &[u8]) -> Result<Vec<Vec<u8>>, ErasureError> {
        self.validate_column_region(chunk, delta)?;
        // Single-column generator: parity rows restricted to `chunk`,
        // pre-built at construction time (see `Self::columns`).
        let ps = delta.len() / self.params.w() as usize;
        Ok(run_fused_on(&self.columns[chunk], &[delta], ps))
    }

    fn validate_column_region(&self, chunk: usize, region: &[u8]) -> Result<(), ErasureError> {
        let k = self.params.k();
        if chunk >= k {
            return Err(ErasureError::InvalidParams {
                detail: format!("chunk index {chunk} out of range (k = {k})"),
            });
        }
        if region.is_empty() || !region.len().is_multiple_of(self.params.alignment()) {
            return Err(ErasureError::BadChunkLength {
                detail: format!(
                    "delta length {} must be a positive multiple of {}",
                    region.len(),
                    self.params.alignment()
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod delta_tests {
    use super::*;
    use crate::region::xor_into;

    fn filled(len: usize, seed: u8) -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed)).collect()
    }

    #[test]
    fn delta_update_matches_full_reencode() {
        for (k, m) in [(2usize, 2usize), (4, 2), (3, 3)] {
            let code = ErasureCode::cauchy_good(CodeParams::new(k, m, 8).unwrap()).unwrap();
            let old: Vec<Vec<u8>> = (0..k).map(|i| filled(192, i as u8)).collect();
            let old_refs: Vec<&[u8]> = old.iter().map(Vec::as_slice).collect();
            let mut parity = code.encode(&old_refs).unwrap();
            // Mutate every chunk in turn, patching parity incrementally.
            let mut current = old.clone();
            for j in 0..k {
                let updated = filled(192, (j + 100) as u8);
                let mut delta = current[j].clone();
                xor_into(&mut delta, &updated);
                for (p, d) in parity.iter_mut().zip(code.parity_delta(j, &delta).unwrap()) {
                    xor_into(p, &d);
                }
                current[j] = updated;
                let refs: Vec<&[u8]> = current.iter().map(Vec::as_slice).collect();
                assert_eq!(parity, code.encode(&refs).unwrap(), "k={k} m={m} j={j}");
            }
        }
    }

    #[test]
    fn zero_delta_is_a_noop() {
        let code = ErasureCode::cauchy_good(CodeParams::new(2, 2, 8).unwrap()).unwrap();
        let deltas = code.parity_delta(0, &[0u8; 128]).unwrap();
        assert!(deltas.iter().all(|d| d.iter().all(|&b| b == 0)));
    }

    #[test]
    fn bad_inputs_are_rejected() {
        let code = ErasureCode::cauchy_good(CodeParams::new(2, 2, 8).unwrap()).unwrap();
        assert!(code.parity_delta(2, &[0u8; 64]).is_err());
        assert!(code.parity_delta(0, &[0u8; 63]).is_err());
        assert!(code.parity_delta(0, &[]).is_err());
    }

    /// XORing the per-column contributions together reproduces the full
    /// encode bit-exactly — the GF(2) linearity a delta save rests on.
    #[test]
    fn xor_of_column_contributions_equals_full_encode() {
        for (k, m, w) in [(2usize, 2usize, 8u8), (4, 2, 8), (3, 3, 8), (2, 2, 4), (2, 2, 16)] {
            let params = CodeParams::new(k, m, w).unwrap();
            let code = ErasureCode::cauchy_good(params).unwrap();
            let len = 4 * params.alignment();
            let data: Vec<Vec<u8>> = (0..k).map(|i| filled(len, i as u8)).collect();
            let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
            let expected = code.encode(&refs).unwrap();
            let mut acc = vec![vec![0u8; len]; m];
            for (j, chunk) in data.iter().enumerate() {
                for (a, contrib) in acc.iter_mut().zip(code.parity_delta(j, chunk).unwrap()) {
                    xor_into(a, &contrib);
                }
            }
            assert_eq!(acc, expected, "k={k} m={m} w={w}");
        }
    }

    /// Column contributions are themselves column-wise: encoding a row
    /// stripe of the input equals the same row stripe of the full-width
    /// contribution, so stripes computed independently and scattered back
    /// reassemble bit-exactly.
    #[test]
    fn column_contribution_stripes_concatenate_exactly() {
        let params = CodeParams::new(3, 2, 8).unwrap();
        let code = ErasureCode::cauchy_good(params).unwrap();
        let (m, w) = (params.m(), params.w() as usize);
        let len = 6 * params.alignment();
        let ps = len / w;
        let chunk = filled(len, 9);
        let full = code.parity_delta(1, &chunk).unwrap().concat();
        // Uneven stripe split of the packet dimension (multiples of 8).
        for rows in [8usize, 16, 24] {
            let mut lo = 0usize;
            while lo < ps {
                let hi = (lo + rows).min(ps);
                let stripe_rows = hi - lo;
                // Gather the stripe view: w scattered row ranges.
                let mut view = Vec::with_capacity(w * stripe_rows);
                for c in 0..w {
                    view.extend_from_slice(&chunk[c * ps + lo..c * ps + hi]);
                }
                let out = code.parity_delta(1, &view).unwrap().concat();
                for i in 0..m {
                    for c in 0..w {
                        let got = &out[(i * w + c) * stripe_rows..][..stripe_rows];
                        let want = &full[i * len + c * ps + lo..i * len + c * ps + hi];
                        assert_eq!(got, want, "rows={rows} lo={lo} parity {i} sub {c}");
                    }
                }
                lo = hi;
            }
        }
    }

    #[test]
    fn encode_stripe_into_rejects_bad_geometry() {
        let code = ErasureCode::cauchy_good(CodeParams::new(2, 2, 8).unwrap()).unwrap();
        let chunk = vec![0u8; 128]; // ps = 16
        let mut parity = [0u8; 2 * 8 * 8];
        let mut out: Vec<&mut [u8]> = parity.chunks_mut(8).collect();
        assert!(code.encode_stripe_into(&[&chunk], 0, &mut out).is_err()); // chunk count
        let data: [&[u8]; 2] = [&chunk, &chunk[..127]];
        assert!(code.encode_stripe_into(&data, 0, &mut out).is_err()); // alignment
        let data: [&[u8]; 2] = [&chunk, &chunk];
        assert!(code.encode_stripe_into(&data, 16, &mut out).is_err()); // past the end
        assert!(code.encode_stripe_into(&data, 0, &mut out[..15]).is_err()); // slice count
        let mut ragged: Vec<&mut [u8]> = parity.chunks_mut(8).collect();
        ragged[3] = &mut [];
        assert!(code.encode_stripe_into(&data, 0, &mut ragged).is_err()); // slice lengths
        let mut out: Vec<&mut [u8]> = parity.chunks_mut(8).collect();
        assert!(code.encode_stripe_into(&data, 8, &mut out).is_ok());
    }
}
