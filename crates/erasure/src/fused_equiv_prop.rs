//! Fused-schedule equivalence property suite.
//!
//! The fused executor reads every source sub-packet once per parity
//! *set* instead of once per schedule op. That rewrite must change no
//! bit: for arbitrary `(k, m, w, region length)` the fused encode and
//! decode are **bit-identical** to the unfused op-at-a-time schedule
//! executor *and* to an independent symbol-level matrix-multiply oracle
//! built straight from the generator coefficients and `GaloisField`
//! arithmetic — under **every** kernel the runtime dispatcher can
//! select, scalar included. Encoding stripe by stripe into slices of
//! preallocated parity (`encode_stripe_into`, the save executor's
//! primitive) is held to the same two references.
//!
//! The unfused executor is not part of the crate's API — it exists
//! only as this suite's reference — so the suite is a unit-test module.
//! Kernel forcing mutates process-global dispatch state: each sweep
//! lives inside one test function (proptest runs its cases
//! sequentially within one test) and the two that force hold
//! [`FORCING`] so they do not interleave. The crate's other unit tests
//! may run under whichever kernel is forced; every kernel computes the
//! same bits.

use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::{CodeParams, ErasureCode, ScheduleKind};
use ecc_gf::kernel::{active_kernel, available_kernels, force_kernel};
use proptest::prelude::*;
use rand::prelude::*;

static FORCING: Mutex<()> = Mutex::new(());

fn forcing() -> MutexGuard<'static, ()> {
    FORCING.lock().unwrap_or_else(PoisonError::into_inner)
}

fn random_chunks(k: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..k).map(|_| (0..len).map(|_| rng.gen()).collect()).collect()
}

/// Symbol-level matrix-multiply oracle, independent of every XOR
/// schedule: reassembles each GF(2^w) data element from its bit-planes
/// (sub-packet `j·w + c` holds bit `c` of chunk `j`'s elements — the
/// `BitMatrix::from_gf_matrix` convention), multiplies by the generator
/// coefficients with plain field arithmetic, and scatters the product
/// bits back into parity bit-planes.
fn matrix_oracle(code: &ErasureCode, data: &[&[u8]]) -> Vec<Vec<u8>> {
    let (k, m, w) = (code.params().k(), code.params().m(), code.params().w() as usize);
    let gf = code.gf();
    let len = data[0].len();
    let ps = len / w;
    let mut parity = vec![vec![0u8; len]; m];
    for s in 0..ps * 8 {
        let (byte, bit) = (s / 8, s % 8);
        let elems: Vec<u16> = (0..k)
            .map(|j| {
                (0..w)
                    .fold(0u16, |acc, c| acc | u16::from((data[j][c * ps + byte] >> bit) & 1) << c)
            })
            .collect();
        for (i, out) in parity.iter_mut().enumerate() {
            let p = (0..k).fold(0u16, |acc, j| acc ^ gf.mul(code.coef(k + i, j), elems[j]));
            for r in 0..w {
                out[r * ps + byte] |= (((p >> r) & 1) as u8) << bit;
            }
        }
    }
    parity
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Fused encode == unfused encode == matrix oracle, and fused
    /// decode == unfused decode == original data, for arbitrary shapes,
    /// widths, region lengths (odd alignment multiples exercise
    /// sub-SIMD-block tails) and erasure patterns, under every kernel.
    #[test]
    fn prop_fused_matches_unfused_and_matrix_oracle_under_every_kernel(
        k in 2usize..=5,
        m in 1usize..=3,
        w_pick in 0usize..=1,
        len_mult in 1usize..=9,
        payload_seed in any::<u64>(),
        pattern_seed in any::<u64>(),
    ) {
        let w = [8u8, 16][w_pick];
        let params = CodeParams::new(k, m, w).unwrap();
        let code = ErasureCode::cauchy_good(params).unwrap();
        let len = params.alignment() * len_mult;
        let data = random_chunks(k, len, payload_seed);
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let oracle = matrix_oracle(&code, &refs);

        // The erasure pattern: up to m chunks of the k + m total.
        let mut ids: Vec<usize> = (0..k + m).collect();
        ids.shuffle(&mut StdRng::seed_from_u64(pattern_seed));
        let erased: Vec<usize> = ids.into_iter().take(1 + pattern_seed as usize % m).collect();

        let _forcing = forcing();
        let before = active_kernel().name();
        for kernel in available_kernels() {
            force_kernel(kernel.name()).unwrap();
            let unfused = code.encode_unfused(&refs, ScheduleKind::Smart).unwrap();
            let fused = code.encode_with(&refs, ScheduleKind::Smart).unwrap();
            let fused_dumb = code.encode_with(&refs, ScheduleKind::Dumb).unwrap();
            prop_assert_eq!(
                &fused, &unfused,
                "fused != unfused under {} (k={} m={} w={} len={})",
                kernel.name(), k, m, w, len
            );
            prop_assert_eq!(
                &fused_dumb, &unfused,
                "fused dumb != unfused smart under {}", kernel.name()
            );
            prop_assert_eq!(
                &fused, &oracle,
                "fused != matrix oracle under {} (k={} m={} w={} len={})",
                kernel.name(), k, m, w, len
            );

            let mut chunks: Vec<&[u8]> = refs.clone();
            let parity_refs: Vec<&[u8]> = fused.iter().map(Vec::as_slice).collect();
            chunks.extend(parity_refs);
            let shards: Vec<Option<&[u8]>> =
                (0..k + m).map(|i| (!erased.contains(&i)).then(|| chunks[i])).collect();
            let fused_dec = code.decode(&shards).unwrap();
            let unfused_dec = code.decode_unfused(&shards).unwrap();
            prop_assert_eq!(
                &fused_dec, &unfused_dec,
                "fused decode != unfused decode under {} (erased {:?})",
                kernel.name(), &erased
            );
            prop_assert_eq!(
                &fused_dec, &data,
                "decode lost data under {} (erased {:?})", kernel.name(), &erased
            );
        }
        force_kernel(before).unwrap();
    }

    /// Encoding every stripe of an arbitrary cut of the sub-packet —
    /// stripes of `rows` rows, the last one short — with
    /// `encode_stripe_into` into slices of preallocated parity chunks
    /// equals `encode` and the unfused executor, under every kernel. The
    /// parity starts as garbage, so every byte must be written, not
    /// accumulated.
    #[test]
    fn prop_stripes_encoded_in_place_match_encode_under_every_kernel(
        k in 2usize..=5,
        m in 1usize..=3,
        w_pick in 0usize..=1,
        len_mult in 1usize..=9,
        rows_seed in any::<usize>(),
        payload_seed in any::<u64>(),
    ) {
        let w = [8u8, 16][w_pick];
        let params = CodeParams::new(k, m, w).unwrap();
        let code = ErasureCode::cauchy_good(params).unwrap();
        let len = params.alignment() * len_mult;
        let ps = len / usize::from(w);
        let rows = 1 + rows_seed % ps;
        let data = random_chunks(k, len, payload_seed);
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();

        let _forcing = forcing();
        let before = active_kernel().name();
        for kernel in available_kernels() {
            force_kernel(kernel.name()).unwrap();
            let mut parity = vec![vec![0xA5u8; len]; m];
            for lo in (0..ps).step_by(rows) {
                let hi = (lo + rows).min(ps);
                let mut out: Vec<&mut [u8]> = parity
                    .iter_mut()
                    .flat_map(|chunk| chunk.chunks_mut(ps).map(move |sub| &mut sub[lo..hi]))
                    .collect();
                code.encode_stripe_into(&refs, lo, &mut out).unwrap();
            }
            prop_assert_eq!(
                &parity, &code.encode(&refs).unwrap(),
                "stripes != encode under {} (k={} m={} w={} len={} rows={})",
                kernel.name(), k, m, w, len, rows
            );
            prop_assert_eq!(
                &parity, &code.encode_unfused(&refs, ScheduleKind::Smart).unwrap(),
                "stripes != unfused under {}", kernel.name()
            );
        }
        force_kernel(before).unwrap();
    }
}

/// The fused schedule executes the same op stream: identical xor_count,
/// one chain per (destination, leading-assign) run, and every chain
/// preserves the unfused op order within itself.
#[test]
fn fused_schedule_structure_is_faithful() {
    for (k, m, w) in [(2usize, 2usize, 8u8), (4, 2, 8), (3, 3, 16), (5, 1, 8)] {
        let code = ErasureCode::cauchy_good(CodeParams::new(k, m, w).unwrap()).unwrap();
        for kind in [ScheduleKind::Smart, ScheduleKind::Dumb] {
            let schedule = code.schedule(kind);
            let fused = code.fused_schedule(kind);
            assert_eq!(
                fused.xor_count(),
                schedule.xor_count(),
                "fusion must not change the op count (k={k} m={m} w={w} {kind:?})"
            );
            let total_srcs: usize = fused.chains().iter().map(|c| c.srcs.len()).sum();
            assert_eq!(total_srcs, schedule.ops().len(), "every op lands in exactly one chain");
        }
    }
}

/// Deterministic cross-kernel sweep on the shapes the engine really
/// uses, including large regions with non-power-of-two sub-packet sizes
/// (unaligned SIMD tails) — the non-property twin of the suite above.
#[test]
fn fused_encode_decode_bit_identical_across_kernels() {
    let _forcing = forcing();
    let before = active_kernel().name();
    for (k, m, w) in [(2usize, 2usize, 8u8), (4, 2, 8), (2, 2, 16), (6, 3, 16)] {
        let params = CodeParams::new(k, m, w).unwrap();
        let code = ErasureCode::cauchy_good(params).unwrap();
        for len_mult in [1usize, 13, 129] {
            let len = params.alignment() * len_mult;
            let data = random_chunks(k, len, (k * 31 + m * 7 + len) as u64);
            let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();

            force_kernel("scalar").unwrap();
            let reference = code.encode_unfused(&refs, ScheduleKind::Smart).unwrap();
            assert_eq!(reference, matrix_oracle(&code, &refs), "scalar unfused != oracle");

            for kernel in available_kernels() {
                force_kernel(kernel.name()).unwrap();
                let fused = code.encode(&refs).unwrap();
                assert_eq!(
                    fused,
                    reference,
                    "fused encode diverges under {} (k={k} m={m} w={w} len={len})",
                    kernel.name()
                );
                let parity_refs: Vec<&[u8]> = fused.iter().map(Vec::as_slice).collect();
                let mut shards: Vec<Option<&[u8]>> = Vec::new();
                shards.push(None); // always lose data chunk 0
                shards.extend(refs[1..].iter().map(|r| Some(*r)));
                shards.extend(parity_refs.iter().take(m - 1).map(|r| Some(*r)));
                shards.push(None); // and the last parity chunk
                let decoded = code.decode(&shards).unwrap();
                assert_eq!(
                    decoded,
                    data,
                    "fused decode diverges under {} (k={k} m={m} w={w} len={len})",
                    kernel.name()
                );
            }
        }
    }
    force_kernel(before).unwrap();
}
