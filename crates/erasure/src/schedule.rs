//! XOR operation schedules derived from a bit-matrix.
//!
//! A `(m·w) × (k·w)` parity bit-matrix describes each parity *sub-packet*
//! (bit-row) as an XOR of data sub-packets (bit-columns). A schedule
//! linearises that description into copy/XOR operations over sub-packet
//! buffers. Two strategies are provided, mirroring Jerasure:
//!
//! * **Dumb** — each parity row is computed from scratch from its set
//!   bits. All operations targeting different rows are independent, which
//!   is what the thread pool exploits.
//! * **Smart** — a parity row may instead be *derived* from an
//!   already-computed parity row when the bit-difference between the two
//!   rows is smaller than computing from scratch, saving XORs at the cost
//!   of creating inter-row dependencies.

use ecc_gf::BitMatrix;

/// Index of a sub-packet in the flat coding space.
///
/// Sub-packets `0 .. k·w` belong to the `k` data chunks (chunk `j`,
/// bit-row `c` is index `j·w + c`); sub-packets `k·w .. (k+m)·w` belong to
/// the parity chunks in the same layout.
pub type SubPacket = usize;

/// One XOR-schedule operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XorOp {
    /// `dst = src` — initialises a parity sub-packet.
    Copy {
        /// Source sub-packet (data or previously computed parity).
        src: SubPacket,
        /// Destination parity sub-packet.
        dst: SubPacket,
    },
    /// `dst ^= src` — accumulates into a parity sub-packet.
    Xor {
        /// Source sub-packet (data or previously computed parity).
        src: SubPacket,
        /// Destination parity sub-packet.
        dst: SubPacket,
    },
}

impl XorOp {
    /// Destination sub-packet of this operation.
    pub fn dst(&self) -> SubPacket {
        match *self {
            XorOp::Copy { dst, .. } | XorOp::Xor { dst, .. } => dst,
        }
    }

    /// Source sub-packet of this operation.
    pub fn src(&self) -> SubPacket {
        match *self {
            XorOp::Copy { src, .. } | XorOp::Xor { src, .. } => src,
        }
    }
}

/// Which scheduling strategy to use when turning a bit-matrix into
/// operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScheduleKind {
    /// Every parity row computed from scratch (independent rows).
    Dumb,
    /// Rows may be derived from earlier rows to save XORs.
    #[default]
    Smart,
}

/// A linearised XOR schedule.
///
/// # Examples
///
/// ```
/// use ecc_erasure::{CodeParams, ErasureCode, ScheduleKind};
///
/// let code = ErasureCode::cauchy_good(CodeParams::new(2, 2, 8)?)?;
/// let smart = code.schedule(ScheduleKind::Smart);
/// let dumb = code.schedule(ScheduleKind::Dumb);
/// assert!(smart.xor_count() <= dumb.xor_count());
/// # Ok::<(), ecc_erasure::ErasureError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XorSchedule {
    ops: Vec<XorOp>,
    k: usize,
    m: usize,
    w: usize,
}

impl XorSchedule {
    /// Builds a schedule from the parity part of a bit-matrix.
    ///
    /// `bits` must be the `(m·w) × (k·w)` expansion of the parity rows of
    /// the generator (identity rows excluded).
    ///
    /// # Panics
    ///
    /// Panics when the bit-matrix shape is not `(m·w) × (k·w)`.
    pub fn from_bitmatrix(
        bits: &BitMatrix,
        k: usize,
        m: usize,
        w: usize,
        kind: ScheduleKind,
    ) -> Self {
        assert_eq!(bits.rows(), m * w, "bit-matrix must have m*w rows");
        assert_eq!(bits.cols(), k * w, "bit-matrix must have k*w columns");
        match kind {
            ScheduleKind::Dumb => Self::dumb(bits, k, m, w),
            ScheduleKind::Smart => Self::smart(bits, k, m, w),
        }
    }

    fn dumb(bits: &BitMatrix, k: usize, m: usize, w: usize) -> Self {
        let parity_base = k * w;
        let mut ops = Vec::new();
        for row in 0..m * w {
            let dst = parity_base + row;
            let mut first = true;
            for col in bits.row_set_bits(row) {
                if first {
                    ops.push(XorOp::Copy { src: col, dst });
                    first = false;
                } else {
                    ops.push(XorOp::Xor { src: col, dst });
                }
            }
            // An all-zero row (possible only for a degenerate matrix)
            // still needs the destination zeroed; the executor zero-fills
            // parity buffers up front, so no op is required.
        }
        Self { ops, k, m, w }
    }

    fn smart(bits: &BitMatrix, k: usize, m: usize, w: usize) -> Self {
        let parity_base = k * w;
        let rows = m * w;
        let mut ops = Vec::new();
        let mut done: Vec<usize> = Vec::new();
        for row in 0..rows {
            let scratch_cost = bits.row_ones(row);
            // Best previously computed row to derive from.
            let derived = done.iter().map(|&prev| (bits.row_diff(row, prev) + 1, prev)).min();
            match derived {
                Some((cost, prev)) if cost < scratch_cost => {
                    let dst = parity_base + row;
                    ops.push(XorOp::Copy { src: parity_base + prev, dst });
                    for col in 0..k * w {
                        if bits.get(row, col) != bits.get(prev, col) {
                            ops.push(XorOp::Xor { src: col, dst });
                        }
                    }
                }
                _ => {
                    let dst = parity_base + row;
                    let mut first = true;
                    for col in bits.row_set_bits(row) {
                        if first {
                            ops.push(XorOp::Copy { src: col, dst });
                            first = false;
                        } else {
                            ops.push(XorOp::Xor { src: col, dst });
                        }
                    }
                }
            }
            done.push(row);
        }
        Self { ops, k, m, w }
    }

    /// The operations in execution order.
    pub fn ops(&self) -> &[XorOp] {
        &self.ops
    }

    /// Total number of operations (copies + XORs); proportional to the
    /// per-byte encode cost.
    pub fn xor_count(&self) -> usize {
        self.ops.len()
    }

    /// `true` when no operation reads a parity sub-packet (dumb schedules
    /// and smart schedules that found no profitable derivations); such
    /// schedules can be executed row-parallel without dependencies.
    pub fn is_row_independent(&self) -> bool {
        let parity_base = self.k * self.w;
        self.ops.iter().all(|op| op.src() < parity_base)
    }

    /// Number of data chunks the schedule expects.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of parity chunks the schedule produces.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Field width (sub-packets per chunk).
    pub fn w(&self) -> usize {
        self.w
    }

    /// Fuses this schedule into multi-source chains — one
    /// [`FusedChain`] per destination run. See [`FusedSchedule`].
    pub fn fuse(&self) -> FusedSchedule {
        FusedSchedule::from_schedule(self)
    }
}

/// One fused operation: a run of schedule ops sharing a destination,
/// collapsed into `dst = (⊕ srcs)` (`assign`) or `dst ⊕= (⊕ srcs)`.
///
/// The kernel executes the chain in a single sweep
/// ([`ecc_gf::Kernel::xor_chain`]): the destination block stays in
/// registers while every source is folded in, so each destination byte
/// is written once per chain instead of once per op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusedChain {
    /// Destination parity sub-packet.
    pub dst: SubPacket,
    /// `true` when the chain starts from a [`XorOp::Copy`] (the
    /// destination is overwritten), `false` when it accumulates.
    pub assign: bool,
    /// Source sub-packets, in the original op order. Data sources are
    /// `< k·w`; a smart derivation contributes one parity source.
    pub srcs: Vec<SubPacket>,
}

/// A [`XorSchedule`] regrouped by destination: the fusion pass of the
/// fused encode executor.
///
/// Both schedule builders emit every op for a parity row contiguously
/// (a `Copy` that initialises the row, then its `Xor`s), so run-length
/// grouping over consecutive same-destination ops captures each parity
/// *set* in one [`FusedChain`] without reordering anything — execution
/// order, and with it the smart schedule's row-derivation dependencies,
/// is preserved exactly. Fusion is pure regrouping of an XOR-linear
/// computation, so the result is bit-identical to the unfused schedule
/// (property-tested in `fused_equiv_prop.rs`).
///
/// # Examples
///
/// ```
/// use ecc_erasure::{CodeParams, ErasureCode, ScheduleKind};
///
/// let code = ErasureCode::cauchy_good(CodeParams::new(2, 2, 8)?)?;
/// let fused = code.schedule(ScheduleKind::Smart).fuse();
/// // One chain per parity row: each source stripe is now read once
/// // per parity set rather than once per schedule op.
/// assert_eq!(fused.chains().len(), 2 * 8);
/// # Ok::<(), ecc_erasure::ErasureError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusedSchedule {
    chains: Vec<FusedChain>,
    k: usize,
    m: usize,
    w: usize,
}

impl FusedSchedule {
    fn from_schedule(schedule: &XorSchedule) -> Self {
        let mut chains: Vec<FusedChain> = Vec::new();
        for op in schedule.ops() {
            let start_new = match (op, chains.last()) {
                // A Copy always opens a fresh chain: it overwrites dst.
                (XorOp::Copy { .. }, _) => true,
                (XorOp::Xor { dst, .. }, Some(last)) => *dst != last.dst,
                (XorOp::Xor { .. }, None) => true,
            };
            if start_new {
                chains.push(FusedChain {
                    dst: op.dst(),
                    assign: matches!(op, XorOp::Copy { .. }),
                    srcs: vec![op.src()],
                });
            } else {
                chains.last_mut().expect("chain opened above").srcs.push(op.src());
            }
        }
        Self { chains, k: schedule.k(), m: schedule.m(), w: schedule.w() }
    }

    /// The fused chains in execution order.
    pub fn chains(&self) -> &[FusedChain] {
        &self.chains
    }

    /// Total number of source reads — identical to the unfused
    /// schedule's [`XorSchedule::xor_count`].
    pub fn xor_count(&self) -> usize {
        self.chains.iter().map(|c| c.srcs.len()).sum()
    }

    /// Number of data chunks the schedule expects.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of parity chunks the schedule produces.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Field width (sub-packets per chunk).
    pub fn w(&self) -> usize {
        self.w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cauchy, CodeParams};
    use ecc_gf::{GaloisField, Matrix};

    fn parity_bits(k: usize, m: usize, w: u8) -> BitMatrix {
        let gf = GaloisField::new(w).unwrap();
        let g = cauchy::generator_good(CodeParams::new(k, m, w).unwrap()).unwrap();
        let parity = g.select_rows(&(k..k + m).collect::<Vec<_>>());
        BitMatrix::from_gf_matrix(&parity, &gf)
    }

    #[test]
    fn dumb_schedule_is_row_independent() {
        let bits = parity_bits(2, 2, 8);
        let s = XorSchedule::from_bitmatrix(&bits, 2, 2, 8, ScheduleKind::Dumb);
        assert!(s.is_row_independent());
        assert_eq!(s.xor_count(), bits.ones());
    }

    #[test]
    fn smart_schedule_never_costs_more() {
        for (k, m) in [(2, 2), (4, 2), (4, 4), (6, 3)] {
            let bits = parity_bits(k, m, 8);
            let dumb = XorSchedule::from_bitmatrix(&bits, k, m, 8, ScheduleKind::Dumb);
            let smart = XorSchedule::from_bitmatrix(&bits, k, m, 8, ScheduleKind::Smart);
            assert!(
                smart.xor_count() <= dumb.xor_count(),
                "k={k} m={m}: smart {} > dumb {}",
                smart.xor_count(),
                dumb.xor_count()
            );
        }
    }

    #[test]
    fn every_parity_row_is_initialised_with_copy() {
        let bits = parity_bits(3, 3, 8);
        for kind in [ScheduleKind::Dumb, ScheduleKind::Smart] {
            let s = XorSchedule::from_bitmatrix(&bits, 3, 3, 8, kind);
            let parity_base = 3 * 8;
            let mut initialised = [false; 3 * 8];
            for op in s.ops() {
                match *op {
                    XorOp::Copy { dst, .. } => initialised[dst - parity_base] = true,
                    XorOp::Xor { dst, .. } => {
                        assert!(initialised[dst - parity_base], "xor before copy at {dst}")
                    }
                }
            }
            assert!(initialised.iter().all(|&b| b));
        }
    }

    #[test]
    fn smart_derivation_reads_only_completed_rows() {
        let bits = parity_bits(4, 4, 8);
        let s = XorSchedule::from_bitmatrix(&bits, 4, 4, 8, ScheduleKind::Smart);
        let parity_base = 4 * 8;
        let mut completed = [false; 4 * 8];
        let mut current: Option<usize> = None;
        for op in s.ops() {
            let dst_row = op.dst() - parity_base;
            if current != Some(dst_row) {
                if let Some(prev) = current {
                    completed[prev] = true;
                }
                current = Some(dst_row);
            }
            if op.src() >= parity_base {
                assert!(completed[op.src() - parity_base], "reads incomplete row");
            }
        }
    }

    #[test]
    fn fuse_groups_each_parity_row_into_one_assign_chain() {
        for (k, m) in [(2, 2), (4, 2), (6, 3)] {
            let bits = parity_bits(k, m, 8);
            for kind in [ScheduleKind::Dumb, ScheduleKind::Smart] {
                let s = XorSchedule::from_bitmatrix(&bits, k, m, 8, kind);
                let fused = s.fuse();
                assert_eq!(fused.xor_count(), s.xor_count(), "fusion must not change reads");
                assert_eq!((fused.k(), fused.m(), fused.w()), (k, m, 8));
                // Both builders emit per-row runs opened by a Copy, so
                // fusion yields exactly one assigning chain per parity
                // row, in row order.
                assert_eq!(fused.chains().len(), m * 8);
                for (row, chain) in fused.chains().iter().enumerate() {
                    assert_eq!(chain.dst, k * 8 + row);
                    assert!(chain.assign, "row {row} must assign");
                    assert!(!chain.srcs.is_empty());
                }
            }
        }
    }

    #[test]
    fn fuse_handles_interleaved_destinations_without_reordering() {
        // Hand-built interleaved schedule (no builder emits this shape,
        // but fusion must stay semantics-preserving for any op list):
        // a run returning to an earlier dst becomes an accumulate chain.
        let ops = vec![
            XorOp::Copy { src: 0, dst: 16 },
            XorOp::Xor { src: 1, dst: 16 },
            XorOp::Copy { src: 2, dst: 17 },
            XorOp::Xor { src: 3, dst: 16 },
            XorOp::Xor { src: 4, dst: 16 },
        ];
        let s = XorSchedule { ops, k: 2, m: 2, w: 8 };
        let fused = s.fuse();
        assert_eq!(fused.chains().len(), 3);
        assert_eq!(fused.xor_count(), 5);
        let last = &fused.chains()[2];
        assert_eq!((last.dst, last.assign, last.srcs.as_slice()), (16, false, &[3, 4][..]));
    }

    #[test]
    fn identity_parity_block_schedules_one_copy_per_row() {
        // Parity part == identity (replication-like): one op per row.
        let gf = GaloisField::new(8).unwrap();
        let bits = BitMatrix::from_gf_matrix(&Matrix::identity(2), &gf);
        let s = XorSchedule::from_bitmatrix(&bits, 2, 2, 8, ScheduleKind::Dumb);
        assert_eq!(s.xor_count(), 16);
        assert!(s.ops().iter().all(|op| matches!(op, XorOp::Copy { .. })));
    }
}
