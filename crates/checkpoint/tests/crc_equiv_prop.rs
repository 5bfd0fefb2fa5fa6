//! CRC-kernel equivalence suite.
//!
//! `crc32` dispatches between a PCLMULQDQ fold and a portable
//! slice-by-16 loop; every manifest entry, wire trailer and exact ledger
//! row depends on both being **bit-identical** to the byte-at-a-time
//! oracle on every length and alignment — including inputs shorter than
//! one fold, tails the fold hands to the table loop, and the 128-byte
//! threshold where dispatch switches. `crc32_combine` must equal a
//! one-shot pass over the concatenation for any split, empty pieces
//! included, and for lengths no test could hash (checked against the
//! bit-matrix construction it replaced).

use ecc_checkpoint::crc_kernel::{bytewise, clmul, slice16};
use ecc_checkpoint::{crc32, crc32_combine};
use proptest::prelude::*;
use rand::prelude::*;

fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

/// Holds every loop to the oracle on `data`. The fold declines inputs
/// under 128 bytes and CPUs without the instruction; wherever it runs it
/// must agree.
fn assert_all_agree(data: &[u8], what: &str) {
    let want = bytewise(data);
    assert_eq!(slice16(data), want, "slice16 {what}");
    assert_eq!(crc32(data), want, "crc32 {what}");
    if let Some(got) = clmul(data) {
        assert_eq!(got, want, "clmul {what}");
    }
}

#[test]
fn pinned_vectors() {
    for (input, want) in [
        (b"".as_slice(), 0u32),
        (b"123456789", 0xCBF4_3926),
        (b"The quick brown fox jumps over the lazy dog", 0x414F_A339),
    ] {
        assert_eq!(bytewise(input), want);
        assert_all_agree(input, "pinned");
    }
    // One past the fold threshold: 256 bytes 0x00..=0xFF.
    let ramp: Vec<u8> = (0..=255).collect();
    assert_eq!(bytewise(&ramp), 0x2905_8C73);
    assert_all_agree(&ramp, "ramp");
}

#[test]
fn the_fold_runs_where_the_cpu_has_it() {
    let data = random_bytes(4096, 7);
    assert_eq!(clmul(&data[..127]), None, "under the threshold");
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        assert_eq!(clmul(&data), Some(bytewise(&data)));
    }
}

#[test]
fn every_length_to_1024_at_every_alignment() {
    let buf = random_bytes(1024 + 16, 1);
    for len in 0..=1024 {
        assert_all_agree(&buf[..len], &format!("len={len}"));
    }
    // Every start alignment 0..16, over lengths that straddle the
    // threshold and leave every tail length the fold can hand on.
    for start in 0..16 {
        for len in (112..=288).chain([511, 512, 513, 1000]) {
            assert_all_agree(&buf[start..start + len], &format!("start={start} len={len}"));
        }
    }
}

#[test]
fn combine_matches_the_matrix_construction_beyond_what_can_be_hashed() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut lens = vec![0u64, 1, 255, 256 << 10, u32::MAX as u64, 1 << 32, (1 << 32) + 5, !0];
    lens.extend((0..200).map(|_| rng.next_u64() >> (rng.next_u64() % 64)));
    for len in lens {
        let (a, b) = (rng.next_u32(), rng.next_u32());
        assert_eq!(crc32_combine(a, b, len), matrix_combine(a, b, len), "len={len}");
    }
    // Associativity across the 2^32 line: A ‖ 0^(2^33) ‖ B, the zeros
    // built by doubling a hashed megabyte, stitched left-first and
    // right-first.
    let mut zeros = crc32(&vec![0u8; 1 << 20]);
    for shift in 20..33 {
        zeros = crc32_combine(zeros, zeros, 1 << shift);
    }
    let (a, b) = (crc32(&random_bytes(1000, 5)), crc32(&random_bytes(77, 6)));
    let left = crc32_combine(crc32_combine(a, zeros, 1 << 33), b, 77);
    let right = crc32_combine(a, crc32_combine(zeros, b, 77), (1 << 33) + 77);
    assert_eq!(left, right);
}

/// zlib's original `crc32_combine`: the zero-byte operator as a 32×32
/// GF(2) matrix, raised to `len_b` by repeated squaring — what
/// `crc32_combine` was until the polynomial form replaced it.
fn matrix_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    fn times(mat: &[u32; 32], vec: u32) -> u32 {
        (0..32).filter(|i| vec >> i & 1 == 1).fold(0, |sum, i| sum ^ mat[i])
    }
    fn square(mat: &[u32; 32]) -> [u32; 32] {
        std::array::from_fn(|n| times(mat, mat[n]))
    }
    // One zero bit, squared three times: one zero byte.
    let mut op: [u32; 32] =
        std::array::from_fn(|n| if n == 0 { 0xEDB8_8320 } else { 1 << (n - 1) });
    for _ in 0..3 {
        op = square(&op);
    }
    let (mut crc, mut len) = (crc_a, len_b);
    while len != 0 {
        if len & 1 == 1 {
            crc = times(&op, crc);
        }
        op = square(&op);
        len >>= 1;
    }
    crc ^ crc_b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random lengths to 4 MiB at a random start alignment.
    #[test]
    fn prop_loops_agree_on_arbitrary_slices(
        len in 0usize..(4 << 20),
        start in 0usize..16,
        seed in any::<u64>(),
    ) {
        let buf = random_bytes(start + len, seed);
        let data = &buf[start..];
        let want = bytewise(data);
        prop_assert_eq!(slice16(data), want, "slice16 len={}", len);
        prop_assert_eq!(crc32(data), want, "crc32 len={}", len);
        if let Some(got) = clmul(data) {
            prop_assert_eq!(got, want, "clmul len={}", len);
        }
    }

    /// Stitching the CRCs of an arbitrary multi-way split — empty pieces
    /// included — equals one pass over the whole.
    #[test]
    fn prop_combine_equals_one_pass_over_any_split(
        len in 0usize..(1 << 18),
        cuts in proptest::collection::vec(any::<u32>(), 0..12),
        seed in any::<u64>(),
    ) {
        let data = random_bytes(len, seed);
        let mut at: Vec<usize> = cuts.iter().map(|c| *c as usize % (len + 1)).collect();
        // Repeat one cut so at least one piece is empty.
        let repeat = at.first().copied();
        at.extend(repeat);
        at.extend([0, len]);
        at.sort_unstable();
        let mut acc = crc32(&[]);
        for piece in at.windows(2).map(|w| &data[w[0]..w[1]]) {
            acc = crc32_combine(acc, crc32(piece), piece.len() as u64);
        }
        prop_assert_eq!(acc, crc32(&data), "len={} cuts={:?}", len, at);
    }
}
