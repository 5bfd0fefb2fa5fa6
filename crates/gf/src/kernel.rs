//! Runtime-dispatched SIMD kernels for the coding hot path.
//!
//! ECCheck's checkpoint pipeline is CPU-bound on two inner loops (paper
//! §IV-A): the wide XOR that executes bit-matrix schedules, and the
//! GF(2^8) region multiplication a worker applies to its packet
//! (`e_ij · d`, paper Fig. 6). This module provides both as a [`Kernel`]
//! trait with one implementation per instruction set:
//!
//! * **scalar** — portable fallback: an unrolled 4×`u64` XOR block loop
//!   and a 256-entry lookup-table multiply. Always available and the
//!   bit-exact reference for every other kernel.
//! * **ssse3** / **avx2** (`x86_64`) — the ISA-L "split-table" layout:
//!   GF(2^8) multiplication via two 16-entry nibble tables looked up with
//!   `pshufb` / `vpshufb`, 16 (SSSE3) or 32 (AVX2) products per
//!   instruction, plus 128/256-bit wide XOR.
//! * **avx512** (`x86_64`) — the same split-table trick at 512-bit width
//!   (64 products per `vpshufb`), plus 512-bit wide XOR.
//! * **gfni** (`x86_64`) — GF(2^8) multiplication as a single
//!   `vgf2p8affineqb` bit-matrix transform per 64 bytes (works for any
//!   field polynomial, because multiply-by-constant is GF(2)-linear),
//!   and a GF(2^16) fast path that multiplies the lo/hi byte planes with
//!   four 8×8 affine blocks. See [`Split8::affine_matrix`] and
//!   [`Split16`].
//! * **neon** (`aarch64`) — the same split-table trick via `vqtbl1q_u8`.
//!
//! Besides the three classic region ops (`xor_into`, `mul`, `mul_xor`),
//! every kernel executes fused multi-source chains
//! ([`Kernel::xor_chain`]): the destination block stays in registers
//! while every source is folded in, so a fused XOR schedule reads each
//! source once per parity *set* instead of once per schedule op.
//!
//! The active kernel is selected **once**, at first use, from CPU feature
//! detection (`std::arch`), and every region operation in `ecc-erasure`
//! routes through it. Selection order is
//! gfni → avx512 → avx2 → ssse3 → neon → scalar.
//!
//! # Forcing a kernel
//!
//! For debugging and benchmarking, the choice can be overridden:
//!
//! * Set the `ECC_KERNEL` environment variable (`scalar`, `ssse3`,
//!   `avx2`, `avx512`, `gfni`, `neon` or `auto`) before the first coding
//!   operation. An unknown or unavailable name falls back to
//!   auto-detection.
//! * Call [`force_kernel`] at any time (used by the kernel-equivalence
//!   suites to sweep every kernel in one process).
//!
//! # Examples
//!
//! ```
//! use ecc_gf::kernel::{active_kernel, available_kernels, Split8};
//! use ecc_gf::GaloisField;
//!
//! let gf = GaloisField::new(8)?;
//! let t = Split8::new(&gf, 0x53)?;
//! let src = [1u8, 2, 3, 250];
//! let mut dst = [0u8; 4];
//! active_kernel().mul(&t, &src, &mut dst);
//! for (s, d) in src.iter().zip(dst) {
//!     assert_eq!(d as u16, gf.mul(0x53, *s as u16));
//! }
//! // The scalar reference kernel is always in the available set.
//! assert!(available_kernels().iter().any(|k| k.name() == "scalar"));
//! # Ok::<(), ecc_gf::GfError>(())
//! ```

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::{GaloisField, GfError};

/// Environment variable consulted on first dispatch to pick a kernel
/// (`scalar`, `ssse3`, `avx2`, `neon` or `auto`).
pub const KERNEL_ENV: &str = "ECC_KERNEL";

/// Split multiplication tables for one GF(2^8) coefficient.
///
/// The ISA-L ("screaming fast Galois field arithmetic") layout: because
/// `x = hi·16 ⊕ lo` and multiplication distributes over XOR-addition,
/// `coef · x = lo_table[x & 0xF] ⊕ hi_table[x >> 4]` where each table has
/// only 16 entries — exactly the shape a 128-bit byte shuffle
/// (`pshufb` / `vqtbl1q_u8`) can look up 16-at-a-time. A flat 256-entry
/// product table is kept alongside for the scalar path and tail bytes.
///
/// # Examples
///
/// ```
/// use ecc_gf::{kernel::Split8, GaloisField};
///
/// let gf = GaloisField::new(8)?;
/// let t = Split8::new(&gf, 7)?;
/// assert_eq!(t.mul_byte(0xA5) as u16, gf.mul(7, 0xA5));
/// # Ok::<(), ecc_gf::GfError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Split8 {
    coef: u8,
    lo: [u8; 16],
    hi: [u8; 16],
    full: [u8; 256],
    affine: u64,
}

/// Builds the 8×8 GF(2) bit-matrix (in `vgf2p8affineqb` layout) that
/// maps one source byte plane onto one destination byte plane of the
/// multiply-by-`coef` map.
///
/// Multiplication by a constant is GF(2)-linear, so
/// `bit_i(c·x) = ⊕_j x_j · bit_i(c·2^j)`; the instruction computes
/// `dst.bit[i] = parity(A.byte[7−i] & x)`, hence
/// `A.byte[7−i].bit[j] = bit_i(c·2^j)`. `src_hi`/`dst_hi` select the
/// high byte plane of a GF(2^16) element (always `false` for GF(2^8)).
fn affine_block(gf: &GaloisField, coef: u16, dst_hi: bool, src_hi: bool) -> u64 {
    let src_shift = if src_hi { 8 } else { 0 };
    let dst_shift = if dst_hi { 8 } else { 0 };
    let mut matrix = 0u64;
    for j in 0..8u32 {
        let col = (gf.mul(coef, 1u16 << (j + src_shift)) >> dst_shift) as u8;
        for i in 0..8u32 {
            if (col >> i) & 1 == 1 {
                matrix |= 1u64 << (8 * (7 - i) + j);
            }
        }
    }
    matrix
}

impl Split8 {
    /// Builds the nibble tables (and flat table) for `coef` in GF(2^8).
    ///
    /// # Errors
    ///
    /// Returns [`GfError::UnsupportedWidth`] when the field is not
    /// GF(2^8) and [`GfError::ElementOutOfRange`] when `coef` is not a
    /// field element.
    pub fn new(gf: &GaloisField, coef: u16) -> Result<Self, GfError> {
        if gf.w() != 8 {
            return Err(GfError::UnsupportedWidth { w: gf.w() });
        }
        if !gf.contains(coef) {
            return Err(GfError::ElementOutOfRange { element: coef, w: gf.w() });
        }
        let mut lo = [0u8; 16];
        let mut hi = [0u8; 16];
        for n in 0..16u16 {
            lo[n as usize] = gf.mul(coef, n) as u8;
            hi[n as usize] = gf.mul(coef, n << 4) as u8;
        }
        let mut full = [0u8; 256];
        for (b, entry) in full.iter_mut().enumerate() {
            *entry = lo[b & 0xF] ^ hi[b >> 4];
        }
        let affine = affine_block(gf, coef, false, false);
        Ok(Self { coef: coef as u8, lo, hi, full, affine })
    }

    /// The coefficient these tables multiply by.
    pub fn coef(&self) -> u8 {
        self.coef
    }

    /// The 16-entry low-nibble product table (`lo[n] = coef · n`).
    pub fn lo(&self) -> &[u8; 16] {
        &self.lo
    }

    /// The 16-entry high-nibble product table (`hi[n] = coef · (n << 4)`).
    pub fn hi(&self) -> &[u8; 16] {
        &self.hi
    }

    /// The flat 256-entry product table (`full[b] = coef · b`).
    pub fn full_table(&self) -> &[u8; 256] {
        &self.full
    }

    /// Multiplies a single byte: `coef · b` in GF(2^8).
    #[inline]
    pub fn mul_byte(&self, b: u8) -> u8 {
        self.full[b as usize]
    }

    /// The 8×8 GF(2) bit-matrix of the multiply-by-`coef` map, in the
    /// `vgf2p8affineqb` operand layout: the instruction computes
    /// `dst.bit[i] = parity(A.byte[7−i] & x)`, so byte `7−i` bit `j`
    /// holds `bit_i(coef·2^j)`. Valid for *any* GF(2^8) polynomial, not
    /// just the instruction's built-in reduction — the reduction is
    /// baked into the matrix.
    pub fn affine_matrix(&self) -> u64 {
        self.affine
    }
}

/// Split multiplication tables for one GF(2^16) coefficient — the w=16
/// fast-path analogue of [`Split8`].
///
/// Elements are 2-byte **little-endian** lanes. The scalar path uses two
/// 256-entry product tables (`coef·x = low[x & 0xFF] ⊕ high[x >> 8]`,
/// multiplication distributing over the XOR-decomposition of `x`); the
/// GFNI path views the 16×16 bit-matrix of the multiply map as four 8×8
/// blocks applied to the lo/hi byte planes:
/// `lo' = A_ll·lo ⊕ A_lh·hi`, `hi' = A_hl·lo ⊕ A_hh·hi`.
///
/// # Examples
///
/// ```
/// use ecc_gf::{kernel::Split16, GaloisField};
///
/// let gf = GaloisField::new(16)?;
/// let t = Split16::new(&gf, 0x1234)?;
/// assert_eq!(t.mul_element(0xA5C3), gf.mul(0x1234, 0xA5C3));
/// # Ok::<(), ecc_gf::GfError>(())
/// ```
#[derive(Clone)]
pub struct Split16 {
    coef: u16,
    low: [u16; 256],
    high: [u16; 256],
    blocks: [u64; 4],
}

impl fmt::Debug for Split16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Split16").field("coef", &self.coef).field("blocks", &self.blocks).finish()
    }
}

impl Split16 {
    /// Builds the byte tables and affine blocks for `coef` in GF(2^16).
    ///
    /// # Errors
    ///
    /// Returns [`GfError::UnsupportedWidth`] when the field is not
    /// GF(2^16) and [`GfError::ElementOutOfRange`] when `coef` is not a
    /// field element.
    pub fn new(gf: &GaloisField, coef: u16) -> Result<Self, GfError> {
        if gf.w() != 16 {
            return Err(GfError::UnsupportedWidth { w: gf.w() });
        }
        if !gf.contains(coef) {
            return Err(GfError::ElementOutOfRange { element: coef, w: gf.w() });
        }
        let mut low = [0u16; 256];
        let mut high = [0u16; 256];
        for b in 0..256u16 {
            low[b as usize] = gf.mul(coef, b);
            high[b as usize] = gf.mul(coef, b << 8);
        }
        let blocks = [
            affine_block(gf, coef, false, false),
            affine_block(gf, coef, false, true),
            affine_block(gf, coef, true, false),
            affine_block(gf, coef, true, true),
        ];
        Ok(Self { coef, low, high, blocks })
    }

    /// The coefficient these tables multiply by.
    pub fn coef(&self) -> u16 {
        self.coef
    }

    /// The 256-entry low-byte product table (`low[b] = coef · b`).
    pub fn low(&self) -> &[u16; 256] {
        &self.low
    }

    /// The 256-entry high-byte product table
    /// (`high[b] = coef · (b << 8)`).
    pub fn high(&self) -> &[u16; 256] {
        &self.high
    }

    /// The four 8×8 affine blocks `[A_ll, A_lh, A_hl, A_hh]` of the
    /// 16×16 multiply bit-matrix, each in `vgf2p8affineqb` layout.
    pub fn blocks(&self) -> &[u64; 4] {
        &self.blocks
    }

    /// Multiplies a single element: `coef · x` in GF(2^16).
    #[inline]
    pub fn mul_element(&self, x: u16) -> u16 {
        self.low[(x & 0xFF) as usize] ^ self.high[(x >> 8) as usize]
    }
}

/// Portable fused XOR chain: fold every source into `dst` with the
/// accumulator held in four `u64` lanes per 32-byte block. Shared by the
/// scalar kernel and the trait's default method.
fn xor_chain_scalar(dst: &mut [u8], srcs: &[&[u8]], assign: bool) {
    let len = dst.len();
    for s in srcs {
        assert_eq!(len, s.len(), "xor_chain requires equal-length slices");
    }
    let mut i = 0;
    while i + 32 <= len {
        let mut acc = [0u64; 4];
        if !assign {
            for (lane, a) in acc.iter_mut().enumerate() {
                let r = i + lane * 8..i + lane * 8 + 8;
                *a = u64::from_ne_bytes(dst[r].try_into().expect("8-byte lane"));
            }
        }
        for s in srcs {
            for (lane, a) in acc.iter_mut().enumerate() {
                let r = i + lane * 8..i + lane * 8 + 8;
                *a ^= u64::from_ne_bytes(s[r].try_into().expect("8-byte lane"));
            }
        }
        for (lane, a) in acc.iter().enumerate() {
            dst[i + lane * 8..i + lane * 8 + 8].copy_from_slice(&a.to_ne_bytes());
        }
        i += 32;
    }
    for j in i..len {
        let mut b = if assign { 0 } else { dst[j] };
        for s in srcs {
            b ^= s[j];
        }
        dst[j] = b;
    }
}

/// Portable GF(2^16) region multiply over 2-byte little-endian lanes.
/// Shared by the scalar kernel and the trait's default methods.
fn mul16_scalar(t: &Split16, src: &[u8], dst: &mut [u8], accumulate: bool) {
    assert_eq!(dst.len(), src.len(), "mul16 requires equal-length slices");
    assert_eq!(dst.len() % 2, 0, "mul16 regions hold 2-byte elements");
    for (d, s) in dst.chunks_exact_mut(2).zip(src.chunks_exact(2)) {
        let x = u16::from_le_bytes([s[0], s[1]]);
        let p = t.mul_element(x).to_le_bytes();
        if accumulate {
            d[0] ^= p[0];
            d[1] ^= p[1];
        } else {
            d[0] = p[0];
            d[1] = p[1];
        }
    }
}

/// One instruction-set-specific implementation of the coding inner loops.
///
/// All implementations are bit-exact: for any inputs, every method
/// produces output identical to the `scalar` kernel (property-tested in
/// `tests/kernel_equiv.rs`). Regions may have any length and alignment;
/// kernels handle unaligned heads/tails internally.
pub trait Kernel: Send + Sync {
    /// Short stable name (`"scalar"`, `"ssse3"`, `"avx2"`, `"neon"`) —
    /// used by the `ECC_KERNEL` override and telemetry counters.
    fn name(&self) -> &'static str;

    /// `dst[i] ^= src[i]` over the whole region.
    ///
    /// # Panics
    ///
    /// Panics when the slices have different lengths.
    fn xor_into(&self, dst: &mut [u8], src: &[u8]);

    /// `dst[i] = coef · src[i]` in GF(2^8), per [`Split8`] tables.
    ///
    /// # Panics
    ///
    /// Panics when the slices have different lengths.
    fn mul(&self, t: &Split8, src: &[u8], dst: &mut [u8]);

    /// `dst[i] ^= coef · src[i]` — the multiply-accumulate inner loop of
    /// table-based Reed–Solomon encoding.
    ///
    /// # Panics
    ///
    /// Panics when the slices have different lengths.
    fn mul_xor(&self, t: &Split8, src: &[u8], dst: &mut [u8]);

    /// Fused multi-source XOR: `dst = srcs[0] ⊕ srcs[1] ⊕ …` when
    /// `assign`, else `dst ⊕= srcs[0] ⊕ srcs[1] ⊕ …` — the inner loop of
    /// a fused XOR schedule. The destination block stays in registers
    /// while every source is folded in, so each `dst` byte is written
    /// once per chain instead of once per source. With `assign` and an
    /// empty chain, `dst` is zeroed.
    ///
    /// # Panics
    ///
    /// Panics when any source's length differs from `dst`'s.
    fn xor_chain(&self, dst: &mut [u8], srcs: &[&[u8]], assign: bool) {
        xor_chain_scalar(dst, srcs, assign);
    }

    /// `dst = coef · src` over 2-byte little-endian GF(2^16) elements,
    /// per [`Split16`] tables — the w=16 fast path.
    ///
    /// # Panics
    ///
    /// Panics when the slices have different lengths or an odd length.
    fn mul16(&self, t: &Split16, src: &[u8], dst: &mut [u8]) {
        mul16_scalar(t, src, dst, false);
    }

    /// `dst ⊕= coef · src` over 2-byte little-endian GF(2^16) elements.
    ///
    /// # Panics
    ///
    /// Panics when the slices have different lengths or an odd length.
    fn mul16_xor(&self, t: &Split16, src: &[u8], dst: &mut [u8]) {
        mul16_scalar(t, src, dst, true);
    }
}

impl fmt::Debug for dyn Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Kernel({})", self.name())
    }
}

/// The portable reference kernel: unrolled 4×`u64` XOR and flat-table
/// multiply. Always available on every architecture.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarKernel;

impl Kernel for ScalarKernel {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn xor_into(&self, dst: &mut [u8], src: &[u8]) {
        assert_eq!(dst.len(), src.len(), "xor_into requires equal-length slices");
        // 32-byte blocks: four independent u64 lanes per iteration keep
        // the ALU ports busy without SIMD.
        let mut dst_blocks = dst.chunks_exact_mut(32);
        let mut src_blocks = src.chunks_exact(32);
        for (d, s) in dst_blocks.by_ref().zip(src_blocks.by_ref()) {
            for lane in 0..4 {
                let r = lane * 8..lane * 8 + 8;
                let v = u64::from_ne_bytes(d[r.clone()].try_into().expect("8-byte lane"))
                    ^ u64::from_ne_bytes(s[r.clone()].try_into().expect("8-byte lane"));
                d[r].copy_from_slice(&v.to_ne_bytes());
            }
        }
        for (d, s) in dst_blocks.into_remainder().iter_mut().zip(src_blocks.remainder()) {
            *d ^= *s;
        }
    }

    fn mul(&self, t: &Split8, src: &[u8], dst: &mut [u8]) {
        assert_eq!(dst.len(), src.len(), "mul requires equal-length slices");
        let table = t.full_table();
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = table[s as usize];
        }
    }

    fn mul_xor(&self, t: &Split8, src: &[u8], dst: &mut [u8]) {
        assert_eq!(dst.len(), src.len(), "mul_xor requires equal-length slices");
        let table = t.full_table();
        for (d, &s) in dst.iter_mut().zip(src) {
            *d ^= table[s as usize];
        }
    }
}

/// SSSE3 (`pshufb`) and AVX2 (`vpshufb`) kernels.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use super::{xor_chain_scalar, Kernel, ScalarKernel, Split16, Split8};
    use std::arch::x86_64::*;

    /// 16 bytes per step via `pshufb` nibble lookups and `pxor`.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Ssse3Kernel;

    /// 32 bytes per step via `vpshufb` nibble lookups and `vpxor`.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Avx2Kernel;

    // SAFETY for everything below: callers (the safe trait methods) have
    // verified the required CPU feature at dispatch time, slice lengths
    // are asserted equal, and every pointer arithmetic stays inside the
    // checked `i + LANES <= len` prefix. All loads/stores use the
    // unaligned variants, so alignment is irrelevant.

    #[target_feature(enable = "ssse3")]
    unsafe fn xor_into_ssse3(dst: &mut [u8], src: &[u8]) {
        let len = dst.len();
        let mut i = 0;
        while i + 32 <= len {
            let d0 = _mm_loadu_si128(dst.as_ptr().add(i).cast());
            let d1 = _mm_loadu_si128(dst.as_ptr().add(i + 16).cast());
            let s0 = _mm_loadu_si128(src.as_ptr().add(i).cast());
            let s1 = _mm_loadu_si128(src.as_ptr().add(i + 16).cast());
            _mm_storeu_si128(dst.as_mut_ptr().add(i).cast(), _mm_xor_si128(d0, s0));
            _mm_storeu_si128(dst.as_mut_ptr().add(i + 16).cast(), _mm_xor_si128(d1, s1));
            i += 32;
        }
        ScalarKernel.xor_into(&mut dst[i..], &src[i..]);
    }

    /// One 16-byte GF(2^8) multiply: split each byte into nibbles, look
    /// both up with `pshufb`, XOR the halves (`coef·x = lo[x&15] ^
    /// hi[x>>4]`).
    #[inline]
    #[target_feature(enable = "ssse3")]
    unsafe fn mul16(lo: __m128i, hi: __m128i, mask: __m128i, x: __m128i) -> __m128i {
        let lo_n = _mm_and_si128(x, mask);
        // srli works on 64-bit lanes; the cross-byte bits it drags in are
        // cleared by the nibble mask.
        let hi_n = _mm_and_si128(_mm_srli_epi64::<4>(x), mask);
        _mm_xor_si128(_mm_shuffle_epi8(lo, lo_n), _mm_shuffle_epi8(hi, hi_n))
    }

    #[target_feature(enable = "ssse3")]
    unsafe fn mul_ssse3(t: &Split8, src: &[u8], dst: &mut [u8], accumulate: bool) {
        let lo = _mm_loadu_si128(t.lo().as_ptr().cast());
        let hi = _mm_loadu_si128(t.hi().as_ptr().cast());
        let mask = _mm_set1_epi8(0x0F);
        let len = src.len();
        let mut i = 0;
        while i + 16 <= len {
            let x = _mm_loadu_si128(src.as_ptr().add(i).cast());
            let mut p = mul16(lo, hi, mask, x);
            if accumulate {
                p = _mm_xor_si128(p, _mm_loadu_si128(dst.as_ptr().add(i).cast()));
            }
            _mm_storeu_si128(dst.as_mut_ptr().add(i).cast(), p);
            i += 16;
        }
        if accumulate {
            ScalarKernel.mul_xor(t, &src[i..], &mut dst[i..]);
        } else {
            ScalarKernel.mul(t, &src[i..], &mut dst[i..]);
        }
    }

    impl Kernel for Ssse3Kernel {
        fn name(&self) -> &'static str {
            "ssse3"
        }

        fn xor_into(&self, dst: &mut [u8], src: &[u8]) {
            assert_eq!(dst.len(), src.len(), "xor_into requires equal-length slices");
            // SAFETY: ssse3 verified at kernel selection; lengths equal.
            unsafe { xor_into_ssse3(dst, src) }
        }

        fn mul(&self, t: &Split8, src: &[u8], dst: &mut [u8]) {
            assert_eq!(dst.len(), src.len(), "mul requires equal-length slices");
            // SAFETY: ssse3 verified at kernel selection; lengths equal.
            unsafe { mul_ssse3(t, src, dst, false) }
        }

        fn mul_xor(&self, t: &Split8, src: &[u8], dst: &mut [u8]) {
            assert_eq!(dst.len(), src.len(), "mul_xor requires equal-length slices");
            // SAFETY: ssse3 verified at kernel selection; lengths equal.
            unsafe { mul_ssse3(t, src, dst, true) }
        }

        fn xor_chain(&self, dst: &mut [u8], srcs: &[&[u8]], assign: bool) {
            for s in srcs {
                assert_eq!(dst.len(), s.len(), "xor_chain requires equal-length slices");
            }
            // SAFETY: ssse3 verified at kernel selection; lengths equal.
            unsafe { xor_chain_ssse3(dst, srcs, assign) }
        }
    }

    #[target_feature(enable = "ssse3")]
    unsafe fn xor_chain_ssse3(dst: &mut [u8], srcs: &[&[u8]], assign: bool) {
        let len = dst.len();
        let mut i = 0;
        while i + 32 <= len {
            let (mut a0, mut a1) = if assign {
                (_mm_setzero_si128(), _mm_setzero_si128())
            } else {
                (
                    _mm_loadu_si128(dst.as_ptr().add(i).cast()),
                    _mm_loadu_si128(dst.as_ptr().add(i + 16).cast()),
                )
            };
            for s in srcs {
                a0 = _mm_xor_si128(a0, _mm_loadu_si128(s.as_ptr().add(i).cast()));
                a1 = _mm_xor_si128(a1, _mm_loadu_si128(s.as_ptr().add(i + 16).cast()));
            }
            _mm_storeu_si128(dst.as_mut_ptr().add(i).cast(), a0);
            _mm_storeu_si128(dst.as_mut_ptr().add(i + 16).cast(), a1);
            i += 32;
        }
        let tails: Vec<&[u8]> = srcs.iter().map(|s| &s[i..]).collect();
        xor_chain_scalar(&mut dst[i..], &tails, assign);
    }

    #[target_feature(enable = "avx2")]
    unsafe fn xor_into_avx2(dst: &mut [u8], src: &[u8]) {
        let len = dst.len();
        let mut i = 0;
        while i + 64 <= len {
            let d0 = _mm256_loadu_si256(dst.as_ptr().add(i).cast());
            let d1 = _mm256_loadu_si256(dst.as_ptr().add(i + 32).cast());
            let s0 = _mm256_loadu_si256(src.as_ptr().add(i).cast());
            let s1 = _mm256_loadu_si256(src.as_ptr().add(i + 32).cast());
            _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), _mm256_xor_si256(d0, s0));
            _mm256_storeu_si256(dst.as_mut_ptr().add(i + 32).cast(), _mm256_xor_si256(d1, s1));
            i += 64;
        }
        while i + 32 <= len {
            let d = _mm256_loadu_si256(dst.as_ptr().add(i).cast());
            let s = _mm256_loadu_si256(src.as_ptr().add(i).cast());
            _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), _mm256_xor_si256(d, s));
            i += 32;
        }
        ScalarKernel.xor_into(&mut dst[i..], &src[i..]);
    }

    #[target_feature(enable = "avx2")]
    unsafe fn mul_avx2(t: &Split8, src: &[u8], dst: &mut [u8], accumulate: bool) {
        // The 16-entry tables are broadcast into both 128-bit lanes:
        // vpshufb shuffles within each lane, so each lane sees the full
        // nibble table.
        let lo = _mm256_broadcastsi128_si256(_mm_loadu_si128(t.lo().as_ptr().cast()));
        let hi = _mm256_broadcastsi128_si256(_mm_loadu_si128(t.hi().as_ptr().cast()));
        let mask = _mm256_set1_epi8(0x0F);
        let len = src.len();
        let mut i = 0;
        while i + 32 <= len {
            let x = _mm256_loadu_si256(src.as_ptr().add(i).cast());
            let lo_n = _mm256_and_si256(x, mask);
            let hi_n = _mm256_and_si256(_mm256_srli_epi64::<4>(x), mask);
            let mut p =
                _mm256_xor_si256(_mm256_shuffle_epi8(lo, lo_n), _mm256_shuffle_epi8(hi, hi_n));
            if accumulate {
                p = _mm256_xor_si256(p, _mm256_loadu_si256(dst.as_ptr().add(i).cast()));
            }
            _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), p);
            i += 32;
        }
        if accumulate {
            ScalarKernel.mul_xor(t, &src[i..], &mut dst[i..]);
        } else {
            ScalarKernel.mul(t, &src[i..], &mut dst[i..]);
        }
    }

    impl Kernel for Avx2Kernel {
        fn name(&self) -> &'static str {
            "avx2"
        }

        fn xor_into(&self, dst: &mut [u8], src: &[u8]) {
            assert_eq!(dst.len(), src.len(), "xor_into requires equal-length slices");
            // SAFETY: avx2 verified at kernel selection; lengths equal.
            unsafe { xor_into_avx2(dst, src) }
        }

        fn mul(&self, t: &Split8, src: &[u8], dst: &mut [u8]) {
            assert_eq!(dst.len(), src.len(), "mul requires equal-length slices");
            // SAFETY: avx2 verified at kernel selection; lengths equal.
            unsafe { mul_avx2(t, src, dst, false) }
        }

        fn mul_xor(&self, t: &Split8, src: &[u8], dst: &mut [u8]) {
            assert_eq!(dst.len(), src.len(), "mul_xor requires equal-length slices");
            // SAFETY: avx2 verified at kernel selection; lengths equal.
            unsafe { mul_avx2(t, src, dst, true) }
        }

        fn xor_chain(&self, dst: &mut [u8], srcs: &[&[u8]], assign: bool) {
            for s in srcs {
                assert_eq!(dst.len(), s.len(), "xor_chain requires equal-length slices");
            }
            // SAFETY: avx2 verified at kernel selection; lengths equal.
            unsafe { xor_chain_avx2(dst, srcs, assign) }
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn xor_chain_avx2(dst: &mut [u8], srcs: &[&[u8]], assign: bool) {
        let len = dst.len();
        let mut i = 0;
        while i + 64 <= len {
            let (mut a0, mut a1) = if assign {
                (_mm256_setzero_si256(), _mm256_setzero_si256())
            } else {
                (
                    _mm256_loadu_si256(dst.as_ptr().add(i).cast()),
                    _mm256_loadu_si256(dst.as_ptr().add(i + 32).cast()),
                )
            };
            for s in srcs {
                a0 = _mm256_xor_si256(a0, _mm256_loadu_si256(s.as_ptr().add(i).cast()));
                a1 = _mm256_xor_si256(a1, _mm256_loadu_si256(s.as_ptr().add(i + 32).cast()));
            }
            _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), a0);
            _mm256_storeu_si256(dst.as_mut_ptr().add(i + 32).cast(), a1);
            i += 64;
        }
        let tails: Vec<&[u8]> = srcs.iter().map(|s| &s[i..]).collect();
        xor_chain_scalar(&mut dst[i..], &tails, assign);
    }

    /// 64 bytes per step via 512-bit `vpshufb` nibble lookups and
    /// `vpxorq`. Requires AVX-512 F + BW.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Avx512Kernel;

    /// GF(2^8) multiply as one `vgf2p8affineqb` per 64 bytes, plus the
    /// GF(2^16) byte-plane fast path. Requires AVX-512 F + BW + GFNI.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct GfniKernel;

    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn xor_into_avx512(dst: &mut [u8], src: &[u8]) {
        let len = dst.len();
        let mut i = 0;
        while i + 128 <= len {
            let d0 = _mm512_loadu_si512(dst.as_ptr().add(i).cast());
            let d1 = _mm512_loadu_si512(dst.as_ptr().add(i + 64).cast());
            let s0 = _mm512_loadu_si512(src.as_ptr().add(i).cast());
            let s1 = _mm512_loadu_si512(src.as_ptr().add(i + 64).cast());
            _mm512_storeu_si512(dst.as_mut_ptr().add(i).cast(), _mm512_xor_si512(d0, s0));
            _mm512_storeu_si512(dst.as_mut_ptr().add(i + 64).cast(), _mm512_xor_si512(d1, s1));
            i += 128;
        }
        while i + 64 <= len {
            let d = _mm512_loadu_si512(dst.as_ptr().add(i).cast());
            let s = _mm512_loadu_si512(src.as_ptr().add(i).cast());
            _mm512_storeu_si512(dst.as_mut_ptr().add(i).cast(), _mm512_xor_si512(d, s));
            i += 64;
        }
        ScalarKernel.xor_into(&mut dst[i..], &src[i..]);
    }

    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn xor_chain_avx512(dst: &mut [u8], srcs: &[&[u8]], assign: bool) {
        let len = dst.len();
        let mut i = 0;
        while i + 64 <= len {
            let mut acc = if assign {
                _mm512_setzero_si512()
            } else {
                _mm512_loadu_si512(dst.as_ptr().add(i).cast())
            };
            for s in srcs {
                acc = _mm512_xor_si512(acc, _mm512_loadu_si512(s.as_ptr().add(i).cast()));
            }
            _mm512_storeu_si512(dst.as_mut_ptr().add(i).cast(), acc);
            i += 64;
        }
        let tails: Vec<&[u8]> = srcs.iter().map(|s| &s[i..]).collect();
        xor_chain_scalar(&mut dst[i..], &tails, assign);
    }

    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn mul_avx512(t: &Split8, src: &[u8], dst: &mut [u8], accumulate: bool) {
        let lo = _mm512_broadcast_i32x4(_mm_loadu_si128(t.lo().as_ptr().cast()));
        let hi = _mm512_broadcast_i32x4(_mm_loadu_si128(t.hi().as_ptr().cast()));
        let mask = _mm512_set1_epi8(0x0F);
        let len = src.len();
        let mut i = 0;
        while i + 64 <= len {
            let x = _mm512_loadu_si512(src.as_ptr().add(i).cast());
            let lo_n = _mm512_and_si512(x, mask);
            let hi_n = _mm512_and_si512(_mm512_srli_epi64::<4>(x), mask);
            let mut p =
                _mm512_xor_si512(_mm512_shuffle_epi8(lo, lo_n), _mm512_shuffle_epi8(hi, hi_n));
            if accumulate {
                p = _mm512_xor_si512(p, _mm512_loadu_si512(dst.as_ptr().add(i).cast()));
            }
            _mm512_storeu_si512(dst.as_mut_ptr().add(i).cast(), p);
            i += 64;
        }
        if accumulate {
            ScalarKernel.mul_xor(t, &src[i..], &mut dst[i..]);
        } else {
            ScalarKernel.mul(t, &src[i..], &mut dst[i..]);
        }
    }

    impl Kernel for Avx512Kernel {
        fn name(&self) -> &'static str {
            "avx512"
        }

        fn xor_into(&self, dst: &mut [u8], src: &[u8]) {
            assert_eq!(dst.len(), src.len(), "xor_into requires equal-length slices");
            // SAFETY: avx512f+bw verified at kernel selection; lengths equal.
            unsafe { xor_into_avx512(dst, src) }
        }

        fn mul(&self, t: &Split8, src: &[u8], dst: &mut [u8]) {
            assert_eq!(dst.len(), src.len(), "mul requires equal-length slices");
            // SAFETY: avx512f+bw verified at kernel selection; lengths equal.
            unsafe { mul_avx512(t, src, dst, false) }
        }

        fn mul_xor(&self, t: &Split8, src: &[u8], dst: &mut [u8]) {
            assert_eq!(dst.len(), src.len(), "mul_xor requires equal-length slices");
            // SAFETY: avx512f+bw verified at kernel selection; lengths equal.
            unsafe { mul_avx512(t, src, dst, true) }
        }

        fn xor_chain(&self, dst: &mut [u8], srcs: &[&[u8]], assign: bool) {
            for s in srcs {
                assert_eq!(dst.len(), s.len(), "xor_chain requires equal-length slices");
            }
            // SAFETY: avx512f+bw verified at kernel selection; lengths equal.
            unsafe { xor_chain_avx512(dst, srcs, assign) }
        }
    }

    #[target_feature(enable = "gfni,avx512f,avx512bw")]
    unsafe fn mul_gfni(t: &Split8, src: &[u8], dst: &mut [u8], accumulate: bool) {
        let matrix = _mm512_set1_epi64(t.affine_matrix() as i64);
        let len = src.len();
        let mut i = 0;
        while i + 64 <= len {
            let x = _mm512_loadu_si512(src.as_ptr().add(i).cast());
            let mut p = _mm512_gf2p8affine_epi64_epi8::<0>(x, matrix);
            if accumulate {
                p = _mm512_xor_si512(p, _mm512_loadu_si512(dst.as_ptr().add(i).cast()));
            }
            _mm512_storeu_si512(dst.as_mut_ptr().add(i).cast(), p);
            i += 64;
        }
        if accumulate {
            ScalarKernel.mul_xor(t, &src[i..], &mut dst[i..]);
        } else {
            ScalarKernel.mul(t, &src[i..], &mut dst[i..]);
        }
    }

    /// GF(2^16) multiply over interleaved little-endian lanes: split the
    /// vector into its lo/hi byte planes with 16-bit shifts (the other
    /// plane's byte position holds zero, and an affine transform of zero
    /// is zero), push each plane through the four 8×8 affine blocks, and
    /// re-interleave with a 16-bit shift-OR.
    #[target_feature(enable = "gfni,avx512f,avx512bw")]
    unsafe fn mul16_gfni(t: &Split16, src: &[u8], dst: &mut [u8], accumulate: bool) {
        let [a_ll, a_lh, a_hl, a_hh] = *t.blocks();
        let m_ll = _mm512_set1_epi64(a_ll as i64);
        let m_lh = _mm512_set1_epi64(a_lh as i64);
        let m_hl = _mm512_set1_epi64(a_hl as i64);
        let m_hh = _mm512_set1_epi64(a_hh as i64);
        let lo_mask = _mm512_set1_epi16(0x00FF);
        let len = src.len();
        let mut i = 0;
        while i + 64 <= len {
            let x = _mm512_loadu_si512(src.as_ptr().add(i).cast());
            let lo = _mm512_and_si512(x, lo_mask);
            let hi = _mm512_srli_epi16::<8>(x);
            let out_lo = _mm512_xor_si512(
                _mm512_gf2p8affine_epi64_epi8::<0>(lo, m_ll),
                _mm512_gf2p8affine_epi64_epi8::<0>(hi, m_lh),
            );
            let out_hi = _mm512_xor_si512(
                _mm512_gf2p8affine_epi64_epi8::<0>(lo, m_hl),
                _mm512_gf2p8affine_epi64_epi8::<0>(hi, m_hh),
            );
            let mut p = _mm512_or_si512(out_lo, _mm512_slli_epi16::<8>(out_hi));
            if accumulate {
                p = _mm512_xor_si512(p, _mm512_loadu_si512(dst.as_ptr().add(i).cast()));
            }
            _mm512_storeu_si512(dst.as_mut_ptr().add(i).cast(), p);
            i += 64;
        }
        super::mul16_scalar(t, &src[i..], &mut dst[i..], accumulate);
    }

    impl Kernel for GfniKernel {
        fn name(&self) -> &'static str {
            "gfni"
        }

        fn xor_into(&self, dst: &mut [u8], src: &[u8]) {
            assert_eq!(dst.len(), src.len(), "xor_into requires equal-length slices");
            // SAFETY: avx512f+bw verified at kernel selection; lengths equal.
            unsafe { xor_into_avx512(dst, src) }
        }

        fn mul(&self, t: &Split8, src: &[u8], dst: &mut [u8]) {
            assert_eq!(dst.len(), src.len(), "mul requires equal-length slices");
            // SAFETY: gfni+avx512f+bw verified at kernel selection; lengths equal.
            unsafe { mul_gfni(t, src, dst, false) }
        }

        fn mul_xor(&self, t: &Split8, src: &[u8], dst: &mut [u8]) {
            assert_eq!(dst.len(), src.len(), "mul_xor requires equal-length slices");
            // SAFETY: gfni+avx512f+bw verified at kernel selection; lengths equal.
            unsafe { mul_gfni(t, src, dst, true) }
        }

        fn xor_chain(&self, dst: &mut [u8], srcs: &[&[u8]], assign: bool) {
            for s in srcs {
                assert_eq!(dst.len(), s.len(), "xor_chain requires equal-length slices");
            }
            // SAFETY: avx512f+bw verified at kernel selection; lengths equal.
            unsafe { xor_chain_avx512(dst, srcs, assign) }
        }

        fn mul16(&self, t: &Split16, src: &[u8], dst: &mut [u8]) {
            assert_eq!(dst.len(), src.len(), "mul16 requires equal-length slices");
            assert_eq!(dst.len() % 2, 0, "mul16 regions hold 2-byte elements");
            // SAFETY: gfni+avx512f+bw verified at kernel selection;
            // lengths equal and even.
            unsafe { mul16_gfni(t, src, dst, false) }
        }

        fn mul16_xor(&self, t: &Split16, src: &[u8], dst: &mut [u8]) {
            assert_eq!(dst.len(), src.len(), "mul16 requires equal-length slices");
            assert_eq!(dst.len() % 2, 0, "mul16 regions hold 2-byte elements");
            // SAFETY: gfni+avx512f+bw verified at kernel selection;
            // lengths equal and even.
            unsafe { mul16_gfni(t, src, dst, true) }
        }
    }
}

/// NEON kernel (`vqtbl1q_u8` nibble lookups, 128-bit XOR).
#[cfg(target_arch = "aarch64")]
#[allow(unsafe_code)]
mod arm {
    use super::{xor_chain_scalar, Kernel, ScalarKernel, Split8};
    use std::arch::aarch64::*;

    /// 16 bytes per step via `vqtbl1q_u8` nibble lookups and `veorq`.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct NeonKernel;

    // SAFETY for everything below: NEON is verified at kernel selection
    // (and is baseline on aarch64), lengths are asserted equal by the
    // trait methods, and pointer arithmetic stays inside the checked
    // `i + 16 <= len` prefix. NEON loads/stores are alignment-free.

    #[target_feature(enable = "neon")]
    unsafe fn xor_into_neon(dst: &mut [u8], src: &[u8]) {
        let len = dst.len();
        let mut i = 0;
        while i + 16 <= len {
            let d = vld1q_u8(dst.as_ptr().add(i));
            let s = vld1q_u8(src.as_ptr().add(i));
            vst1q_u8(dst.as_mut_ptr().add(i), veorq_u8(d, s));
            i += 16;
        }
        ScalarKernel.xor_into(&mut dst[i..], &src[i..]);
    }

    #[target_feature(enable = "neon")]
    unsafe fn mul_neon(t: &Split8, src: &[u8], dst: &mut [u8], accumulate: bool) {
        let lo = vld1q_u8(t.lo().as_ptr());
        let hi = vld1q_u8(t.hi().as_ptr());
        let mask = vdupq_n_u8(0x0F);
        let len = src.len();
        let mut i = 0;
        while i + 16 <= len {
            let x = vld1q_u8(src.as_ptr().add(i));
            let lo_n = vandq_u8(x, mask);
            let hi_n = vshrq_n_u8::<4>(x);
            let mut p = veorq_u8(vqtbl1q_u8(lo, lo_n), vqtbl1q_u8(hi, hi_n));
            if accumulate {
                p = veorq_u8(p, vld1q_u8(dst.as_ptr().add(i)));
            }
            vst1q_u8(dst.as_mut_ptr().add(i), p);
            i += 16;
        }
        if accumulate {
            ScalarKernel.mul_xor(t, &src[i..], &mut dst[i..]);
        } else {
            ScalarKernel.mul(t, &src[i..], &mut dst[i..]);
        }
    }

    impl Kernel for NeonKernel {
        fn name(&self) -> &'static str {
            "neon"
        }

        fn xor_into(&self, dst: &mut [u8], src: &[u8]) {
            assert_eq!(dst.len(), src.len(), "xor_into requires equal-length slices");
            // SAFETY: neon verified at kernel selection; lengths equal.
            unsafe { xor_into_neon(dst, src) }
        }

        fn mul(&self, t: &Split8, src: &[u8], dst: &mut [u8]) {
            assert_eq!(dst.len(), src.len(), "mul requires equal-length slices");
            // SAFETY: neon verified at kernel selection; lengths equal.
            unsafe { mul_neon(t, src, dst, false) }
        }

        fn mul_xor(&self, t: &Split8, src: &[u8], dst: &mut [u8]) {
            assert_eq!(dst.len(), src.len(), "mul_xor requires equal-length slices");
            // SAFETY: neon verified at kernel selection; lengths equal.
            unsafe { mul_neon(t, src, dst, true) }
        }

        fn xor_chain(&self, dst: &mut [u8], srcs: &[&[u8]], assign: bool) {
            for s in srcs {
                assert_eq!(dst.len(), s.len(), "xor_chain requires equal-length slices");
            }
            // SAFETY: neon verified at kernel selection; lengths equal.
            unsafe { xor_chain_neon(dst, srcs, assign) }
        }
    }

    #[target_feature(enable = "neon")]
    unsafe fn xor_chain_neon(dst: &mut [u8], srcs: &[&[u8]], assign: bool) {
        let len = dst.len();
        let mut i = 0;
        while i + 16 <= len {
            let mut acc = if assign { vdupq_n_u8(0) } else { vld1q_u8(dst.as_ptr().add(i)) };
            for s in srcs {
                acc = veorq_u8(acc, vld1q_u8(s.as_ptr().add(i)));
            }
            vst1q_u8(dst.as_mut_ptr().add(i), acc);
            i += 16;
        }
        let tails: Vec<&[u8]> = srcs.iter().map(|s| &s[i..]).collect();
        xor_chain_scalar(&mut dst[i..], &tails, assign);
    }
}

static SCALAR: ScalarKernel = ScalarKernel;
#[cfg(target_arch = "x86_64")]
static SSSE3: x86::Ssse3Kernel = x86::Ssse3Kernel;
#[cfg(target_arch = "x86_64")]
static AVX2: x86::Avx2Kernel = x86::Avx2Kernel;
#[cfg(target_arch = "x86_64")]
static AVX512: x86::Avx512Kernel = x86::Avx512Kernel;
#[cfg(target_arch = "x86_64")]
static GFNI: x86::GfniKernel = x86::GfniKernel;
#[cfg(target_arch = "aarch64")]
static NEON: arm::NeonKernel = arm::NeonKernel;

/// Every kernel compiled into this binary, **best first**, whether or not
/// the CPU supports it; `scalar` is always the last-resort tail.
#[cfg(target_arch = "x86_64")]
static COMPILED: [&dyn Kernel; 5] = [&GFNI, &AVX512, &AVX2, &SSSE3, &SCALAR];
#[cfg(target_arch = "aarch64")]
static COMPILED: [&dyn Kernel; 2] = [&NEON, &SCALAR];
#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
static COMPILED: [&dyn Kernel; 1] = [&SCALAR];

fn compiled_kernels() -> &'static [&'static dyn Kernel] {
    &COMPILED
}

/// `true` when the running CPU can execute the named kernel.
fn cpu_supports(name: &str) -> bool {
    match name {
        "scalar" => true,
        #[cfg(target_arch = "x86_64")]
        "ssse3" => std::arch::is_x86_feature_detected!("ssse3"),
        #[cfg(target_arch = "x86_64")]
        "avx2" => std::arch::is_x86_feature_detected!("avx2"),
        #[cfg(target_arch = "x86_64")]
        "avx512" => {
            std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512bw")
        }
        #[cfg(target_arch = "x86_64")]
        "gfni" => {
            std::arch::is_x86_feature_detected!("gfni")
                && std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512bw")
        }
        #[cfg(target_arch = "aarch64")]
        "neon" => std::arch::is_aarch64_feature_detected!("neon"),
        _ => false,
    }
}

/// The kernels this CPU can actually run, best first. `scalar` is always
/// present and always last.
pub fn available_kernels() -> Vec<&'static dyn Kernel> {
    compiled_kernels().iter().copied().filter(|k| cpu_supports(k.name())).collect()
}

/// Best available kernel by the fixed preference order
/// (gfni → avx512 → avx2 → ssse3 → neon → scalar).
fn auto_select() -> &'static dyn Kernel {
    *available_kernels().first().expect("scalar kernel is always available")
}

/// Index+1 into [`compiled_kernels`]; 0 means "not yet selected".
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

fn store_active(kernel: &'static dyn Kernel) {
    let idx = compiled_kernels()
        .iter()
        .position(|k| k.name() == kernel.name())
        .expect("kernel comes from the compiled set");
    ACTIVE.store(idx + 1, Ordering::Relaxed);
}

/// The dispatched kernel all coding region operations route through.
///
/// Selected on first call: an explicit [`force_kernel`] wins, then a
/// valid [`KERNEL_ENV`] override, then CPU auto-detection. The result is
/// cached in an atomic, so steady-state dispatch is one relaxed load.
pub fn active_kernel() -> &'static dyn Kernel {
    let idx = ACTIVE.load(Ordering::Relaxed);
    if idx != 0 {
        return compiled_kernels()[idx - 1];
    }
    let kernel = match std::env::var(KERNEL_ENV) {
        Ok(name) if name != "auto" => force_kernel(&name).unwrap_or_else(|_| auto_select()),
        _ => auto_select(),
    };
    store_active(kernel);
    kernel
}

/// Overrides the dispatched kernel by name (for benchmarking and
/// debugging; takes effect immediately, also over a previous selection).
///
/// # Errors
///
/// Returns [`GfError::UnknownKernel`] when no kernel has that name or
/// the CPU cannot execute it; the active kernel is left unchanged.
///
/// # Examples
///
/// ```
/// use ecc_gf::kernel::{active_kernel, force_kernel};
///
/// force_kernel("scalar")?;
/// assert_eq!(active_kernel().name(), "scalar");
/// assert!(force_kernel("not-a-kernel").is_err());
/// # Ok::<(), ecc_gf::GfError>(())
/// ```
pub fn force_kernel(name: &str) -> Result<&'static dyn Kernel, GfError> {
    let kernel = compiled_kernels()
        .iter()
        .copied()
        .find(|k| k.name() == name && cpu_supports(name))
        .ok_or_else(|| GfError::UnknownKernel { name: name.to_string() })?;
    store_active(kernel);
    Ok(kernel)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gf8() -> GaloisField {
        GaloisField::new(8).unwrap()
    }

    #[test]
    fn split8_tables_agree_with_field_mul() {
        let gf = gf8();
        for coef in [0u16, 1, 2, 0x53, 0xFF] {
            let t = Split8::new(&gf, coef).unwrap();
            for b in 0..=255u16 {
                assert_eq!(t.mul_byte(b as u8) as u16, gf.mul(coef, b), "coef={coef} b={b}");
                let split = t.lo()[(b & 0xF) as usize] ^ t.hi()[(b >> 4) as usize];
                assert_eq!(split as u16, gf.mul(coef, b), "split coef={coef} b={b}");
            }
        }
    }

    #[test]
    fn split8_rejects_bad_inputs() {
        let gf16 = GaloisField::new(16).unwrap();
        assert!(matches!(Split8::new(&gf16, 2), Err(GfError::UnsupportedWidth { w: 16 })));
        assert!(matches!(Split8::new(&gf8(), 256), Err(GfError::ElementOutOfRange { .. })));
    }

    /// Software model of `vgf2p8affineqb`:
    /// `dst.bit[i] = parity(A.byte[7−i] & x)`.
    fn affine_apply(matrix: u64, x: u8) -> u8 {
        let mut out = 0u8;
        for i in 0..8u32 {
            let row = ((matrix >> (8 * (7 - i))) & 0xFF) as u8;
            if (row & x).count_ones() & 1 == 1 {
                out |= 1 << i;
            }
        }
        out
    }

    #[test]
    fn split8_affine_matrix_models_field_mul() {
        let gf = gf8();
        for coef in [0u16, 1, 2, 0x53, 0xB7, 0xFF] {
            let t = Split8::new(&gf, coef).unwrap();
            for b in 0..=255u16 {
                assert_eq!(
                    affine_apply(t.affine_matrix(), b as u8) as u16,
                    gf.mul(coef, b),
                    "coef={coef} b={b}"
                );
            }
        }
    }

    #[test]
    fn split16_tables_and_blocks_agree_with_field_mul() {
        let gf = GaloisField::new(16).unwrap();
        for coef in [0u16, 1, 2, 0x1234, 0xABCD, 0xFFFF] {
            let t = Split16::new(&gf, coef).unwrap();
            for x in [0u16, 1, 0xFF, 0x100, 0xA5C3, 0xFFFF, 0x8001, 12345] {
                assert_eq!(t.mul_element(x), gf.mul(coef, x), "coef={coef} x={x}");
                // Byte-plane affine blocks: lo' = A_ll·lo ⊕ A_lh·hi,
                // hi' = A_hl·lo ⊕ A_hh·hi.
                let [a_ll, a_lh, a_hl, a_hh] = *t.blocks();
                let (lo, hi) = ((x & 0xFF) as u8, (x >> 8) as u8);
                let lo2 = affine_apply(a_ll, lo) ^ affine_apply(a_lh, hi);
                let hi2 = affine_apply(a_hl, lo) ^ affine_apply(a_hh, hi);
                let got = u16::from(lo2) | (u16::from(hi2) << 8);
                assert_eq!(got, gf.mul(coef, x), "blocks coef={coef} x={x}");
            }
        }
    }

    #[test]
    fn split16_rejects_bad_inputs() {
        assert!(matches!(Split16::new(&gf8(), 2), Err(GfError::UnsupportedWidth { w: 8 })));
        let gf4 = GaloisField::new(4).unwrap();
        assert!(matches!(Split16::new(&gf4, 2), Err(GfError::UnsupportedWidth { w: 4 })));
    }

    #[test]
    fn scalar_is_always_available_and_last() {
        let kernels = available_kernels();
        assert!(!kernels.is_empty());
        assert_eq!(kernels.last().unwrap().name(), "scalar");
    }

    #[test]
    fn every_available_kernel_matches_scalar() {
        let gf = gf8();
        let t = Split8::new(&gf, 0xB7).unwrap();
        // Lengths straddling every block boundary: empty, sub-word, one
        // SIMD lane, odd tails, multi-block.
        for len in [0usize, 1, 7, 8, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 255, 1024, 1031] {
            let src: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(37)).collect();
            let acc: Vec<u8> =
                (0..len).map(|i| (i as u8).wrapping_mul(11).wrapping_add(5)).collect();
            let mut want_xor = acc.clone();
            ScalarKernel.xor_into(&mut want_xor, &src);
            let mut want_mul = vec![0u8; len];
            ScalarKernel.mul(&t, &src, &mut want_mul);
            let mut want_mul_xor = acc.clone();
            ScalarKernel.mul_xor(&t, &src, &mut want_mul_xor);
            for k in available_kernels() {
                let mut got = acc.clone();
                k.xor_into(&mut got, &src);
                assert_eq!(got, want_xor, "{} xor len={len}", k.name());
                let mut got = vec![0u8; len];
                k.mul(&t, &src, &mut got);
                assert_eq!(got, want_mul, "{} mul len={len}", k.name());
                let mut got = acc.clone();
                k.mul_xor(&t, &src, &mut got);
                assert_eq!(got, want_mul_xor, "{} mul_xor len={len}", k.name());
            }
        }
    }

    #[test]
    fn every_available_kernel_chains_like_scalar() {
        for len in [0usize, 1, 17, 31, 32, 33, 63, 64, 65, 100, 255, 1024, 1031] {
            let acc: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(29)).collect();
            for nsrcs in [0usize, 1, 2, 3, 5, 9] {
                let srcs_owned: Vec<Vec<u8>> = (0..nsrcs)
                    .map(|s| {
                        (0..len).map(|i| (i as u8).wrapping_mul(7).wrapping_add(s as u8)).collect()
                    })
                    .collect();
                let srcs: Vec<&[u8]> = srcs_owned.iter().map(|s| s.as_slice()).collect();
                for assign in [false, true] {
                    // Oracle: the op-at-a-time unfused equivalent.
                    let mut want = if assign { vec![0u8; len] } else { acc.clone() };
                    for s in &srcs {
                        ScalarKernel.xor_into(&mut want, s);
                    }
                    for k in available_kernels() {
                        let mut got = acc.clone();
                        k.xor_chain(&mut got, &srcs, assign);
                        assert_eq!(
                            got,
                            want,
                            "{} xor_chain len={len} nsrcs={nsrcs} assign={assign}",
                            k.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn every_available_kernel_mul16s_like_scalar() {
        let gf = GaloisField::new(16).unwrap();
        for coef in [1u16, 2, 0x1234, 0xABCD] {
            let t = Split16::new(&gf, coef).unwrap();
            for len in [0usize, 2, 16, 30, 62, 64, 66, 126, 128, 130, 1024, 1030] {
                let src: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(53)).collect();
                let acc: Vec<u8> =
                    (0..len).map(|i| (i as u8).wrapping_mul(17).wrapping_add(3)).collect();
                let mut want_mul = vec![0u8; len];
                mul16_scalar(&t, &src, &mut want_mul, false);
                let mut want_mul_xor = acc.clone();
                mul16_scalar(&t, &src, &mut want_mul_xor, true);
                for k in available_kernels() {
                    let mut got = vec![0u8; len];
                    k.mul16(&t, &src, &mut got);
                    assert_eq!(got, want_mul, "{} mul16 coef={coef} len={len}", k.name());
                    let mut got = acc.clone();
                    k.mul16_xor(&t, &src, &mut got);
                    assert_eq!(got, want_mul_xor, "{} mul16_xor coef={coef} len={len}", k.name());
                }
            }
        }
    }

    #[test]
    fn force_kernel_round_trips() {
        let before = active_kernel().name();
        for k in available_kernels() {
            let forced = force_kernel(k.name()).unwrap();
            assert_eq!(forced.name(), k.name());
            assert_eq!(active_kernel().name(), k.name());
        }
        assert!(force_kernel("does-not-exist").is_err());
        force_kernel(before).unwrap();
    }
}
