//! Pooled-vs-serial differential property.
//!
//! `CodingPool::{encode, decode}` run the stripe executor; `ErasureCode::
//! {encode, decode}` run one whole-chunk pass. For any code shape, any
//! chunk length, every erasure pattern the code tolerates and any thread
//! count the two must agree byte for byte, and on bad input they must
//! fail with the same error.

use ecc_erasure::stripes::Geometry;
use ecc_erasure::{CodeParams, CodingPool, ErasureCode, ErasureError};
use proptest::prelude::*;
use rand::prelude::*;

/// Thread counts: serial, fewer workers than stripes, uneven, and far
/// more workers than stripes.
const THREADS: [usize; 5] = [1, 2, 3, 8, 64];

fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

/// Sub-packet lengths in 8-byte rows, of two kinds: below 64 rows, where
/// the stripe rule's 8-row floor leaves fewer than eight stripes (one at
/// 8 rows), and longer ones that the rule's stripe rows do not divide,
/// so the last stripe is short.
fn sub_packet_rows() -> impl Strategy<Value = usize> {
    prop_oneof![
        (1usize..8).prop_map(|words| 8 * words),
        (16usize..400).prop_map(|words| 8 * words).prop_filter(
            "the stripe rows must not divide the sub-packet",
            |&ps| {
                let geo = Geometry::new(1, 1, 1, ps, usize::MAX);
                ps % geo.rows != 0
            }
        ),
    ]
}

/// Every set of at most `m` of the `n` chunk ids, the empty set included.
fn erasure_patterns(n: usize, m: usize) -> Vec<Vec<usize>> {
    (0u32..1 << n)
        .filter(|mask| mask.count_ones() as usize <= m)
        .map(|mask| (0..n).filter(|&i| mask >> i & 1 == 1).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pooled_coding_equals_serial_coding(
        k in 1usize..=6,
        m in 1usize..=4,
        w in prop_oneof![Just(4u8), Just(8), Just(16)],
        ps in sub_packet_rows(),
        seed in any::<u64>(),
    ) {
        let code = ErasureCode::cauchy_good(CodeParams::new(k, m, w).unwrap()).unwrap();
        let len = w as usize * ps;
        let data: Vec<Vec<u8>> = (0..k).map(|i| random_bytes(len, seed ^ i as u64)).collect();
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let parity = code.encode(&refs).unwrap();
        let chunks: Vec<&[u8]> = refs.iter().copied().chain(parity.iter().map(Vec::as_slice)).collect();
        let pools: Vec<CodingPool> = THREADS.iter().map(|&t| CodingPool::new(t)).collect();

        for pool in &pools {
            prop_assert_eq!(&pool.encode(&code, &refs).unwrap(), &parity, "threads={}", pool.threads());
        }
        for lost in erasure_patterns(k + m, m) {
            let shards: Vec<Option<&[u8]>> =
                (0..k + m).map(|i| (!lost.contains(&i)).then_some(chunks[i])).collect();
            let serial = code.decode(&shards).unwrap();
            prop_assert_eq!(&serial, &data, "lost {:?}", lost);
            for pool in &pools {
                let pooled = pool.decode(&code, &shards).unwrap();
                prop_assert_eq!(&pooled, &serial, "lost {:?} threads={}", lost, pool.threads());
            }
        }

        // Bad input fails as the serial path fails: a misaligned length,
        // a wrong chunk count, a ragged chunk, a misaligned survivor, and
        // one erasure more than the code tolerates.
        let mut bad_data: Vec<Vec<&[u8]>> = vec![
            refs.iter().map(|c| &c[..len - 8]).collect(),
            refs[..k - 1].to_vec(),
        ];
        if k > 1 {
            let mut ragged = refs.clone();
            ragged[k - 1] = &data[k - 1][..len - code.params().alignment()];
            bad_data.push(ragged);
        }
        let mut misaligned_survivor: Vec<Option<&[u8]>> = chunks.iter().copied().map(Some).collect();
        misaligned_survivor[0] = Some(&data[0][..len - 8]);
        let too_few: Vec<Option<&[u8]>> =
            (0..k + m).map(|i| (i > m).then_some(chunks[i])).collect();
        for pool in &pools {
            for bad in &bad_data {
                let want = code.encode(bad).unwrap_err();
                let bad_length = matches!(want, ErasureError::BadChunkLength { .. });
                prop_assert!(bad_length, "serial encode failed with {:?}", want);
                prop_assert_eq!(pool.encode(&code, bad).unwrap_err(), want);
            }
            for bad in [&misaligned_survivor, &too_few] {
                let want = code.decode(bad).unwrap_err();
                prop_assert_eq!(pool.decode(&code, bad).unwrap_err(), want);
            }
        }
        let want = code.decode(&too_few).unwrap_err();
        prop_assert_eq!(want, ErasureError::TooFewSurvivors { needed: k, available: k - 1 });
    }
}
