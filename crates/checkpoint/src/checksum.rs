//! CRC-32 (IEEE 802.3 polynomial, reflected): the checksum every manifest
//! entry and wire trailer carries.
//!
//! [`crc32`] dispatches between two loops that compute the same value: a
//! PCLMULQDQ fold-by-4 (x86-64 with `pclmulqdq` and `sse4.1`, detected at
//! run time, inputs of at least 128 bytes) and a portable slice-by-16.
//! Setting `ECC_KERNEL=scalar` — the variable `ecc_gf::kernel` reads,
//! here read once — keeps every input on the portable loop. The
//! byte-at-a-time loop is the oracle the other two are tested against.

use std::sync::OnceLock;

/// The reflected IEEE 802.3 generator polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte table; `TABLES[n][b]` advances the
/// register of byte `b` over `n` further zero bytes — each one more
/// multiplication by `x^8` — so sixteen lookups retire sixteen input
/// bytes at once.
static TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 16 * 256 {
        let (n, b) = (i / 256, i % 256);
        t[n][b] = multmodp(1 << 23, if n == 0 { b as u32 } else { t[n - 1][b] });
        i += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3 polynomial, reflected) over a byte slice — the
/// checksum a manifest holds for every chunk and header, and the trailer
/// of every wire frame.
///
/// # Examples
///
/// ```
/// use ecc_checkpoint::crc32;
///
/// // The classic test vector.
/// assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    static FORCED_PORTABLE: OnceLock<bool> = OnceLock::new();
    let portable = *FORCED_PORTABLE
        .get_or_init(|| std::env::var("ECC_KERNEL").is_ok_and(|name| name == "scalar"));
    let folded = if portable { None } else { clmul::update(!0, data) };
    !folded.unwrap_or_else(|| update_slice16(!0, data))
}

/// Advances the register `crc` over `data` one byte per step.
fn update_bytewise(crc: u32, data: &[u8]) -> u32 {
    data.iter().fold(crc, |crc, &b| (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize])
}

/// Advances the register `crc` over `data` sixteen bytes per step.
fn update_slice16(mut crc: u32, data: &[u8]) -> u32 {
    let mut blocks = data.chunks_exact(16);
    for block in &mut blocks {
        let (lo, hi) = block.split_at(8);
        let lo = u64::from_le_bytes(lo.try_into().expect("8 of 16 bytes")) ^ u64::from(crc);
        let hi = u64::from_le_bytes(hi.try_into().expect("8 of 16 bytes"));
        crc = (0..8).fold(0, |acc, i| {
            acc ^ TABLES[15 - i][(lo >> (8 * i)) as u8 as usize]
                ^ TABLES[7 - i][(hi >> (8 * i)) as u8 as usize]
        });
    }
    update_bytewise(crc, blocks.remainder())
}

/// The loops behind [`crc32`], each callable on its own so the
/// equivalence suite can hold them to one another.
pub mod crc_kernel {
    /// The byte-at-a-time table loop: the oracle.
    pub fn bytewise(data: &[u8]) -> u32 {
        !super::update_bytewise(!0, data)
    }

    /// The portable slice-by-16 loop.
    pub fn slice16(data: &[u8]) -> u32 {
        !super::update_slice16(!0, data)
    }

    /// The PCLMULQDQ fold (with its slice-by-16 tail), or `None` where
    /// the CPU lacks `pclmulqdq` / `sse4.1` or `data` is shorter than the
    /// 128 bytes the fold needs.
    pub fn clmul(data: &[u8]) -> Option<u32> {
        super::clmul::update(!0, data).map(|crc| !crc)
    }
}

/// Where there is no carry-less multiply to fold with.
#[cfg(not(target_arch = "x86_64"))]
mod clmul {
    pub(super) fn update(_crc: u32, _data: &[u8]) -> Option<u32> {
        None
    }
}

/// The carry-less-multiply fold of Gopal et al., "Fast CRC Computation
/// for Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009):
/// four 128-bit lanes each folded 512 bits forward per step.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod clmul {
    use std::arch::x86_64::*;

    /// Shortest input worth folding: one load of all four lanes plus one
    /// folding step.
    const MIN_LEN: usize = 128;

    // x^n mod P(x), bit-reflected, for the fold distances of the paper's
    // reflected CRC-32 table: 4·128+32 / 4·128−32, 128+32 / 128−32, 64.
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    const K5: i64 = 0x1_63CD_6124;
    /// P(x) and the Barrett constant ⌊x^64 / P(x)⌋, bit-reflected.
    const P_X: i64 = 0x1_DB71_0641;
    const U_PRIME: i64 = 0x1_F701_1641;

    /// The register `crc` advanced over `data`, or `None` when the fold
    /// cannot run: the CPU lacks an instruction it uses, or `data` is
    /// shorter than [`MIN_LEN`].
    pub(super) fn update(crc: u32, data: &[u8]) -> Option<u32> {
        if data.len() < MIN_LEN
            || !is_x86_feature_detected!("pclmulqdq")
            || !is_x86_feature_detected!("sse4.1")
        {
            return None;
        }
        // SAFETY: the CPU reports every target feature `fold` enables,
        // which is all a call into it requires; its memory accesses are
        // bounds-checked slice operations.
        Some(unsafe { fold(crc, data) })
    }

    /// Folds `data` (at least 64 bytes) into the register `crc`.
    #[target_feature(enable = "pclmulqdq", enable = "sse2", enable = "sse4.1")]
    fn fold(crc: u32, mut data: &[u8]) -> u32 {
        let mut x3 = _mm_xor_si128(take(&mut data), _mm_cvtsi32_si128(crc as i32));
        let mut x2 = take(&mut data);
        let mut x1 = take(&mut data);
        let mut x0 = take(&mut data);
        let k1k2 = _mm_set_epi64x(K2, K1);
        while data.len() >= 64 {
            x3 = fold128(x3, take(&mut data), k1k2);
            x2 = fold128(x2, take(&mut data), k1k2);
            x1 = fold128(x1, take(&mut data), k1k2);
            x0 = fold128(x0, take(&mut data), k1k2);
        }
        // Four lanes into one, then one lane at a time.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold128(x3, x2, k3k4);
        x = fold128(x, x1, k3k4);
        x = fold128(x, x0, k3k4);
        while data.len() >= 16 {
            x = fold128(x, take(&mut data), k3k4);
        }
        // 128 → 64 bits, then Barrett reduction 64 → 32.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let crc = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        super::update_slice16(crc, data)
    }

    /// `next ⊕ lane·x^d mod P`, `d` being the distance `keys` encodes.
    #[target_feature(enable = "pclmulqdq", enable = "sse2")]
    fn fold128(lane: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(lane, keys, 0x00);
        let hi = _mm_clmulepi64_si128(lane, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// Loads the first 16 bytes of `data` and advances it.
    #[target_feature(enable = "sse2")]
    fn take(data: &mut &[u8]) -> __m128i {
        let (head, rest) = data.split_at(16);
        *data = rest;
        let half = |at: usize| i64::from_le_bytes(head[at..at + 8].try_into().expect("8 bytes"));
        _mm_set_epi64x(half(8), half(0))
    }
}

/// `a(x)·b(x) mod P(x)` over reflected 32-bit polynomials (bit 31 is
/// `x^0`): zlib's `multmodp`.
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut m = 1u32 << 31;
    let mut p = 0;
    loop {
        if a & m != 0 {
            p ^= b;
            if a & (m - 1) == 0 {
                return p;
            }
        }
        m >>= 1;
        b = if b & 1 == 1 { (b >> 1) ^ POLY } else { b >> 1 };
    }
}

/// `X2N[n] = x^(2^n) mod P(x)`. P is primitive of degree 32, so squaring
/// has period 32 and the table serves every bit of a 64-bit exponent.
static X2N: [u32; 32] = {
    let mut t = [1u32 << 30; 32];
    let mut n = 1;
    while n < 32 {
        t[n] = multmodp(t[n - 1], t[n - 1]);
        n += 1;
    }
    t
};

/// Combines the CRCs of two adjacent byte ranges: given `crc_a =
/// crc32(A)` and `crc_b = crc32(B)`, returns `crc32(A ‖ B)` without
/// touching the bytes again.
///
/// CRC-32 is linear over GF(2), so appending `len_b` bytes to `A`
/// multiplies `crc_a` by `x^(8·len_b) mod P(x)` — one table lookup and
/// one 32-step polynomial multiply per set bit of `len_b` (zlib's
/// `x2nmodp`) — after which `crc_b` XORs in. This lets the pipelined
/// save executor checksum chunk pieces in parallel as they stream through
/// the stages and stitch the final frame in O(log len) per piece, instead
/// of one serial pass over every assembled chunk.
///
/// # Examples
///
/// ```
/// use ecc_checkpoint::{crc32, crc32_combine};
///
/// let (a, b) = (b"12345".as_slice(), b"6789".as_slice());
/// assert_eq!(crc32_combine(crc32(a), crc32(b), b.len() as u64), crc32(b"123456789"));
/// ```
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    // x^(8·len_b): bit n of len_b contributes x^(2^(n+3)).
    let shift = (0..u64::BITS - len_b.leading_zeros())
        .filter(|n| len_b >> n & 1 == 1)
        .fold(1 << 31, |shift, n| multmodp(X2N[(n as usize + 3) & 31], shift));
    multmodp(shift, crc_a) ^ crc_b
}

/// Encodes the CRC-32 of `data` as the 4-byte little-endian frame that
/// closes a self-checked record (a version's manifest, the placement
/// epoch marker) and trails every blob on the wire.
///
/// # Examples
///
/// ```
/// use ecc_checkpoint::{checksum_frame, verify_checksum};
///
/// let frame = checksum_frame(b"chunk bytes");
/// assert!(verify_checksum(b"chunk bytes", &frame));
/// assert!(!verify_checksum(b"chunk byteZ", &frame));
/// ```
pub fn checksum_frame(data: &[u8]) -> Vec<u8> {
    crc32(data).to_le_bytes().to_vec()
}

/// Verifies `data` against a stored [`checksum_frame`].
///
/// Returns `false` for a malformed frame (wrong length), so a corrupted
/// or truncated checksum blob itself reads as an integrity failure
/// rather than a panic.
pub fn verify_checksum(data: &[u8], frame: &[u8]) -> bool {
    let Ok(stored): Result<[u8; 4], _> = frame.try_into() else {
        return false;
    };
    crc32(data) == u32::from_le_bytes(stored)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn detects_single_bit_flip() {
        let data = vec![0xA5u8; 1024];
        let base = crc32(&data);
        for pos in [0usize, 511, 1023] {
            let mut corrupt = data.clone();
            corrupt[pos] ^= 0x01;
            assert_ne!(crc32(&corrupt), base, "flip at {pos} undetected");
        }
    }

    #[test]
    fn combine_matches_one_shot_crc() {
        let data: Vec<u8> =
            (0..4099u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
        let whole = crc32(&data);
        // Every split point of a few awkward sizes, including empty halves.
        for len in [0usize, 1, 7, 63, 64, 257, 4099] {
            let slice = &data[..len];
            let reference = crc32(slice);
            for cut in [0, len / 3, len / 2, len.saturating_sub(1), len] {
                let (a, b) = slice.split_at(cut);
                assert_eq!(
                    crc32_combine(crc32(a), crc32(b), b.len() as u64),
                    reference,
                    "len={len} cut={cut}"
                );
            }
        }
        // Many-piece stitching, as the pipeline does per chunk.
        let mut acc = crc32(&[]);
        for piece in data.chunks(97) {
            acc = crc32_combine(acc, crc32(piece), piece.len() as u64);
        }
        assert_eq!(acc, whole);
    }

    #[test]
    fn frame_round_trips_and_rejects_flips() {
        let data = vec![0x3Cu8; 257];
        let frame = checksum_frame(&data);
        assert_eq!(frame.len(), 4);
        assert!(verify_checksum(&data, &frame));
        let mut corrupt = data.clone();
        corrupt[128] ^= 0x80;
        assert!(!verify_checksum(&corrupt, &frame));
        // A damaged frame is an integrity failure, not a panic.
        assert!(!verify_checksum(&data, &frame[..3]));
        assert!(!verify_checksum(&data, &[]));
        let mut bad_frame = frame.clone();
        bad_frame[0] ^= 0x01;
        assert!(!verify_checksum(&data, &bad_frame));
    }
}
