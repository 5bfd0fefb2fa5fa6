//! The engine's way in and way out of a `state_dict`: `decompose_views`
//! (header + borrowed tensor views) and `reassemble_region` (header +
//! laid region → `state_dict`).
//!
//! * The header bytes are a stored format: for every shard of the
//!   benchmark's model grids they are pinned to what the owned
//!   `decompose` wrote before the borrowing walk existed.
//! * The pair round-trips arbitrary nested dictionaries bit-exactly,
//!   key order included, through a region laid the way a save lays it.

use ecc_checkpoint::{
    crc32, decompose, decompose_views, reassemble_region, serialize, DType, StateDict, Tensor,
    Value,
};
use ecc_dnn::{build_worker_state_dict, ModelConfig, ParallelismSpec, StateDictSpec};
use proptest::prelude::*;

/// `eccbench`'s states A and B for `--seed 1` (`benchmark/src/workload.rs`).
fn benchmark_shards(
    grid: (usize, usize, usize),
    model: (usize, usize, usize, usize, usize),
) -> Vec<StateDict> {
    let (hidden, heads, layers, vocab, seq_len) = model;
    let par = ParallelismSpec::new(grid.0, grid.1, grid.2).unwrap();
    let model = ModelConfig::gpt2(hidden, heads, layers).with_vocab(vocab).with_seq_len(seq_len);
    let mut shards = Vec::new();
    for which in 0..2 {
        let seed = 1u64.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ which;
        let spec = StateDictSpec { model, par, iteration: which, seed };
        shards.extend((0..par.world_size()).map(|w| build_worker_state_dict(&spec, w).unwrap()));
    }
    shards
}

/// The CRC of every shard's header CRC, computed at the commit before
/// `decompose` stopped cloning the dict it walks.
#[test]
fn benchmark_shard_headers_are_byte_identical_to_the_seed() {
    for (name, grid, model, pinned) in [
        ("mem_small", (4, 2, 1), (16, 4, 10, 64, 16), 0xBD26_26BFu32),
        ("mem_large", (4, 2, 1), (48, 4, 10, 128, 16), 0x9A14_26F7),
        ("tcp_large", (4, 2, 1), (48, 4, 10, 128, 16), 0x9A14_26F7),
        ("tiered_wide", (4, 3, 1), (48, 4, 15, 128, 16), 0x399E_067F),
    ] {
        let mut crcs = Vec::new();
        for sd in benchmark_shards(grid, model) {
            let owned = decompose(&sd);
            let (header, views) = decompose_views(&sd);
            assert_eq!(header, owned.header_to_bytes(), "{name}: views and owned disagree");
            assert!(views.iter().map(|v| v.to_vec()).eq(owned.tensor_data().iter().cloned()));
            crcs.extend_from_slice(&crc32(&header).to_le_bytes());
        }
        assert_eq!(crc32(&crcs), pinned, "{name}: header bytes moved");
    }
}

fn arb_value() -> impl Strategy<Value = Value> {
    let tensor = |dtype: DType| {
        proptest::collection::vec(any::<u8>(), 0..6).prop_map(move |seed| {
            let numel = seed.len();
            let bytes = seed.iter().cycle().take(numel * dtype.size()).copied().collect();
            Value::Tensor(Tensor::from_bytes(dtype, &[numel], bytes).unwrap())
        })
    };
    let leaf = prop_oneof![
        any::<i64>().prop_map(Value::Int),
        any::<bool>().prop_map(Value::Bool),
        "[a-z.]{0,12}".prop_map(Value::Str),
        proptest::collection::vec(any::<u8>(), 0..32).prop_map(Value::Bytes),
        tensor(DType::U8),
        tensor(DType::F16),
        tensor(DType::F32),
        tensor(DType::I64),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::List),
            proptest::collection::vec(("[a-z]{1,8}", inner), 0..4)
                .prop_map(|kvs| Value::Dict(kvs.into_iter().collect())),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary nested dict → header + views → region laid head to
    /// tail and zero-padded → header + region → the same dict.
    #[test]
    fn prop_views_and_region_round_trip(
        entries in proptest::collection::vec(("[a-z]{1,8}", arb_value()), 0..5),
        padding in 0usize..40,
    ) {
        let sd: StateDict = entries.into_iter().collect();
        let (header, views) = decompose_views(&sd);
        prop_assert_eq!(&header, &decompose(&sd).header_to_bytes());
        let mut region = views.concat();
        prop_assert_eq!(region.len(), sd.tensor_bytes());
        region.resize(region.len() + padding, 0);
        let back = reassemble_region(&header, &region).unwrap();
        // Equality of the trees, and of their serialized bytes — which
        // also pins key order.
        prop_assert_eq!(serialize::dict_to_bytes(&back), serialize::dict_to_bytes(&sd));
        prop_assert_eq!(back, sd);
    }
}
