//! Byte-region primitives: wide XOR and GF(2^8) table multiplication.
//!
//! These are the inner loops of both the bit-matrix coding path (pure
//! XOR over sub-packets) and the worker-level packet encoding used by
//! ECCheck's pipeline, where each worker multiplies its checkpoint packet
//! by a single generator coefficient (`e_ij · d`, paper Fig. 6) before the
//! cross-node XOR reduction.

use ecc_gf::kernel::{active_kernel, Split16, Split8};
use ecc_gf::{GaloisField, GfError};

/// XORs `src` into `dst` (`dst[i] ^= src[i]`) through the dispatched
/// SIMD kernel ([`ecc_gf::kernel::active_kernel`]): AVX2/SSSE3/NEON wide
/// XOR where the CPU supports it, an unrolled `u64` block loop otherwise.
///
/// # Panics
///
/// Panics when the slices have different lengths.
pub fn xor_into(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "xor_into requires equal-length slices");
    active_kernel().xor_into(dst, src);
}

/// Copies `src` into `dst`.
///
/// # Panics
///
/// Panics when the slices have different lengths.
pub fn copy_into(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "copy_into requires equal-length slices");
    dst.copy_from_slice(src);
}

/// Multiplication tables for one GF(2^8) coefficient.
///
/// Logically `table[b] == coef · b` in GF(2^8): mapping a byte region
/// through the table multiplies the whole region by the coefficient —
/// the log/exp-free inner loop for w = 8, and the unit of work ECCheck's
/// thread pool splits across cores. Internally the table is stored in
/// the split nibble-table layout ([`ecc_gf::Split8`]) so [`apply`] and
/// [`apply_xor`] run through the dispatched SIMD kernel (`pshufb`-style
/// 16-byte-at-a-time lookups on x86_64/aarch64, a flat 256-entry table
/// on the scalar fallback).
///
/// [`apply`]: MulTable::apply
/// [`apply_xor`]: MulTable::apply_xor
///
/// # Examples
///
/// ```
/// use ecc_gf::GaloisField;
/// use ecc_erasure::MulTable;
///
/// let gf = GaloisField::new(8)?;
/// let t = MulTable::new(&gf, 3)?;
/// let src = [0x10u8, 0x20, 0x30];
/// let mut dst = [0u8; 3];
/// t.apply(&src, &mut dst);
/// assert_eq!(dst[0], gf.mul(3, 0x10) as u8);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct MulTable {
    coef: u16,
    split: Split8,
}

impl MulTable {
    /// Builds the table for `coef` in GF(2^8).
    ///
    /// # Errors
    ///
    /// Returns [`GfError::UnsupportedWidth`] when the field is not GF(2^8)
    /// (table lookup per byte only makes sense for w = 8) and
    /// [`GfError::ElementOutOfRange`] when `coef` is not a field element.
    pub fn new(gf: &GaloisField, coef: u16) -> Result<Self, GfError> {
        Ok(Self { coef, split: Split8::new(gf, coef)? })
    }

    /// The coefficient this table multiplies by.
    pub fn coef(&self) -> u16 {
        self.coef
    }

    /// The underlying split nibble tables, for callers that drive a
    /// [`ecc_gf::Kernel`] directly.
    pub fn split(&self) -> &Split8 {
        &self.split
    }

    /// `dst[i] = coef · src[i]`.
    ///
    /// # Panics
    ///
    /// Panics when the slices have different lengths.
    pub fn apply(&self, src: &[u8], dst: &mut [u8]) {
        assert_eq!(src.len(), dst.len(), "apply requires equal-length slices");
        active_kernel().mul(&self.split, src, dst);
    }

    /// `dst[i] ^= coef · src[i]` — multiply-accumulate, the inner loop of
    /// table-based Reed–Solomon encoding.
    ///
    /// # Panics
    ///
    /// Panics when the slices have different lengths.
    pub fn apply_xor(&self, src: &[u8], dst: &mut [u8]) {
        assert_eq!(src.len(), dst.len(), "apply_xor requires equal-length slices");
        active_kernel().mul_xor(&self.split, src, dst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn xor_into_handles_unaligned_tails() {
        let src: Vec<u8> = (0..21).collect();
        let mut dst = vec![0xFFu8; 21];
        xor_into(&mut dst, &src);
        for (i, &d) in dst.iter().enumerate() {
            assert_eq!(d, 0xFF ^ i as u8);
        }
    }

    #[test]
    fn xor_into_is_self_inverse() {
        let src: Vec<u8> = (0..64).map(|i| (i * 37) as u8).collect();
        let orig: Vec<u8> = (0..64).map(|i| (i * 11 + 3) as u8).collect();
        let mut dst = orig.clone();
        xor_into(&mut dst, &src);
        xor_into(&mut dst, &src);
        assert_eq!(dst, orig);
    }

    #[test]
    fn table_of_one_is_identity() {
        let gf = GaloisField::new(8).unwrap();
        let t = MulTable::new(&gf, 1).unwrap();
        let src: Vec<u8> = (0..=255).collect();
        let mut dst = vec![0u8; 256];
        t.apply(&src, &mut dst);
        assert_eq!(dst, src);
    }

    #[test]
    fn table_of_zero_clears() {
        let gf = GaloisField::new(8).unwrap();
        let t = MulTable::new(&gf, 0).unwrap();
        let src = vec![0xABu8; 16];
        let mut dst = vec![0xCDu8; 16];
        t.apply(&src, &mut dst);
        assert!(dst.iter().all(|&b| b == 0));
    }

    #[test]
    fn table_rejects_non_gf8() {
        let gf = GaloisField::new(16).unwrap();
        assert!(MulTable::new(&gf, 2).is_err());
    }

    proptest! {
        #[test]
        fn prop_apply_matches_field_mul(coef in 0u16..256, bytes in proptest::collection::vec(any::<u8>(), 1..64)) {
            let gf = GaloisField::new(8).unwrap();
            let t = MulTable::new(&gf, coef).unwrap();
            let mut dst = vec![0u8; bytes.len()];
            t.apply(&bytes, &mut dst);
            for (i, &b) in bytes.iter().enumerate() {
                prop_assert_eq!(dst[i] as u16, gf.mul(coef, b as u16));
            }
        }

        #[test]
        fn prop_apply_xor_accumulates(coef in 0u16..256, bytes in proptest::collection::vec(any::<u8>(), 1..64)) {
            let gf = GaloisField::new(8).unwrap();
            let t = MulTable::new(&gf, coef).unwrap();
            let mut acc = vec![0x5Au8; bytes.len()];
            t.apply_xor(&bytes, &mut acc);
            for (i, &b) in bytes.iter().enumerate() {
                prop_assert_eq!(acc[i] as u16, (0x5Au16) ^ gf.mul(coef, b as u16));
            }
        }
    }
}

/// Split multiplication tables for one GF(2^16) coefficient.
///
/// A 2^16-entry table per coefficient would blow the cache; the classic
/// split-table trick stores two 256-entry tables — products of the
/// coefficient with the low byte and with the high byte shifted — and
/// combines them per element: `coef · x = low[x & 0xFF] ^ high[x >> 8]`
/// (used by large-field codes such as G-CRS, which the paper cites).
/// The tables live in [`ecc_gf::Split16`] so [`apply`] and [`apply_xor`]
/// run through the dispatched kernel's w = 16 fast path (GFNI byte-plane
/// affine multiply where the CPU supports it, the split-table scalar loop
/// otherwise).
///
/// Regions are interpreted as little-endian `u16` elements.
///
/// [`apply`]: MulTable16::apply
/// [`apply_xor`]: MulTable16::apply_xor
///
/// # Examples
///
/// ```
/// use ecc_gf::GaloisField;
/// use ecc_erasure::MulTable16;
///
/// let gf = GaloisField::new(16)?;
/// let t = MulTable16::new(&gf, 0x1234)?;
/// let src = 0xBEEFu16.to_le_bytes();
/// let mut dst = [0u8; 2];
/// t.apply(&src, &mut dst);
/// assert_eq!(u16::from_le_bytes(dst), gf.mul(0x1234, 0xBEEF));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct MulTable16 {
    split: Split16,
}

impl MulTable16 {
    /// Builds the split tables for `coef` in GF(2^16).
    ///
    /// # Errors
    ///
    /// Returns [`GfError::UnsupportedWidth`] when the field is not
    /// GF(2^16).
    pub fn new(gf: &GaloisField, coef: u16) -> Result<Self, GfError> {
        Ok(Self { split: Split16::new(gf, coef)? })
    }

    /// The coefficient these tables multiply by.
    pub fn coef(&self) -> u16 {
        self.split.coef()
    }

    /// The underlying split tables, for callers that drive a
    /// [`ecc_gf::Kernel`] directly.
    pub fn split(&self) -> &Split16 {
        &self.split
    }

    /// `dst = coef · src`, element-wise over little-endian `u16`s.
    ///
    /// # Panics
    ///
    /// Panics when the slices differ in length or the length is odd.
    pub fn apply(&self, src: &[u8], dst: &mut [u8]) {
        assert_eq!(src.len(), dst.len(), "apply requires equal-length slices");
        assert_eq!(src.len() % 2, 0, "GF(2^16) regions hold 2-byte elements");
        active_kernel().mul16(&self.split, src, dst);
    }

    /// `dst ^= coef · src`, element-wise over little-endian `u16`s.
    ///
    /// # Panics
    ///
    /// Panics when the slices differ in length or the length is odd.
    pub fn apply_xor(&self, src: &[u8], dst: &mut [u8]) {
        assert_eq!(src.len(), dst.len(), "apply_xor requires equal-length slices");
        assert_eq!(src.len() % 2, 0, "GF(2^16) regions hold 2-byte elements");
        active_kernel().mul16_xor(&self.split, src, dst);
    }
}

#[cfg(test)]
mod gf16_tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn table16_of_one_is_identity() {
        let gf = GaloisField::new(16).unwrap();
        let t = MulTable16::new(&gf, 1).unwrap();
        let src: Vec<u8> = (0..512).map(|i| (i * 7) as u8).collect();
        let mut dst = vec![0u8; 512];
        t.apply(&src, &mut dst);
        assert_eq!(dst, src);
    }

    #[test]
    fn table16_rejects_gf8() {
        let gf = GaloisField::new(8).unwrap();
        assert!(MulTable16::new(&gf, 2).is_err());
    }

    #[test]
    #[should_panic(expected = "2-byte elements")]
    fn odd_region_panics() {
        let gf = GaloisField::new(16).unwrap();
        let t = MulTable16::new(&gf, 2).unwrap();
        let mut dst = [0u8; 3];
        t.apply(&[0u8; 3], &mut dst);
    }

    proptest! {
        #[test]
        fn prop_apply16_matches_field_mul(coef in any::<u16>(), elems in proptest::collection::vec(any::<u16>(), 1..32)) {
            let gf = GaloisField::new(16).unwrap();
            let t = MulTable16::new(&gf, coef).unwrap();
            let src: Vec<u8> = elems.iter().flat_map(|e| e.to_le_bytes()).collect();
            let mut dst = vec![0u8; src.len()];
            t.apply(&src, &mut dst);
            for (i, &e) in elems.iter().enumerate() {
                let got = u16::from_le_bytes([dst[2 * i], dst[2 * i + 1]]);
                prop_assert_eq!(got, gf.mul(coef, e));
            }
        }

        #[test]
        fn prop_apply16_xor_accumulates(coef in any::<u16>(), e in any::<u16>(), acc in any::<u16>()) {
            let gf = GaloisField::new(16).unwrap();
            let t = MulTable16::new(&gf, coef).unwrap();
            let src = e.to_le_bytes();
            let mut dst = acc.to_le_bytes();
            t.apply_xor(&src, &mut dst);
            prop_assert_eq!(u16::from_le_bytes(dst), acc ^ gf.mul(coef, e));
        }
    }
}
