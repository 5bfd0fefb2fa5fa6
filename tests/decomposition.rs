//! The engine's way in and way out of a `state_dict`: `decompose_views`
//! (header + borrowed tensor views) and `reassemble_region` (header +
//! laid region → `state_dict`).
//!
//! * The header bytes are a stored format: for every shard of the
//!   benchmark's model grids their CRCs are pinned, and the path-free
//!   key table, the skeleton's dict keys and list positions, and the
//!   leaf tags are pinned byte for byte on a small dict.
//! * The one-pass writer and reader are held to the tree codec the
//!   format was first written with ([`oracle`]): the same header bytes
//!   for arbitrary nested dicts, and the same verdict and value for
//!   hostile headers.
//! * The pair round-trips arbitrary nested dictionaries bit-exactly,
//!   key order included, through a region laid the way a save lays it.

use ecc_checkpoint::{
    crc32, decompose, decompose_views, reassemble_region, serialize, CheckpointError, DType,
    StateDict, Tensor, Value,
};
use ecc_dnn::{build_worker_state_dict, ModelConfig, ParallelismSpec, StateDictSpec};
use proptest::prelude::*;

/// The tree codec: the walk builds a skeleton tree, which is then
/// serialized; the reader parses the whole header into a skeleton tree
/// and rebuilds the dict from it by sequential `insert`. Written against
/// the public API only (leaves go through `serialize::to_bytes`).
mod oracle {
    use ecc_checkpoint::{serialize, CheckpointError, DType, StateDict, Tensor, Value};

    pub const SKEL_LEAF: u8 = 0x10;
    pub const SKEL_TENSOR: u8 = 0x11;
    pub const SKEL_LIST: u8 = 0x12;
    pub const SKEL_DICT: u8 = 0x13;

    /// The serializer's dtype tags, by position.
    const DTYPES: [DType; 7] =
        [DType::F16, DType::BF16, DType::F32, DType::F64, DType::I32, DType::I64, DType::U8];

    fn tag(dtype: DType) -> u8 {
        DTYPES.iter().position(|&d| d == dtype).unwrap() as u8
    }

    #[derive(Debug, Clone)]
    pub struct Key {
        pub dtype: DType,
        pub shape: Vec<usize>,
    }

    impl Key {
        fn byte_len(&self) -> usize {
            self.shape.iter().product::<usize>() * self.dtype.size()
        }
    }

    #[derive(Debug, Clone)]
    pub enum Skeleton {
        Leaf(Value),
        TensorRef(usize),
        List(Vec<Skeleton>),
        Dict(Vec<(String, Skeleton)>),
    }

    /// The tensor keys, the skeleton and a view of each tensor, DFS order.
    pub fn split(sd: &StateDict) -> (Vec<Key>, Skeleton, Vec<&[u8]>) {
        fn value<'a>(v: &'a Value, keys: &mut Vec<Key>, views: &mut Vec<&'a [u8]>) -> Skeleton {
            match v {
                Value::Tensor(t) => {
                    keys.push(Key { dtype: t.dtype(), shape: t.shape().to_vec() });
                    views.push(t.bytes());
                    Skeleton::TensorRef(keys.len() - 1)
                }
                Value::List(items) => {
                    Skeleton::List(items.iter().map(|v| value(v, keys, views)).collect())
                }
                Value::Dict(d) => dict(d, keys, views),
                other => Skeleton::Leaf(other.clone()),
            }
        }
        fn dict<'a>(d: &'a StateDict, keys: &mut Vec<Key>, views: &mut Vec<&'a [u8]>) -> Skeleton {
            Skeleton::Dict(d.iter().map(|(k, v)| (k.to_string(), value(v, keys, views))).collect())
        }
        let (mut keys, mut views) = (Vec::new(), Vec::new());
        let skeleton = dict(sd, &mut keys, &mut views);
        (keys, skeleton, views)
    }

    pub fn varint(mut v: u64, out: &mut Vec<u8>) {
        while v >= 0x80 {
            out.push(v as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }

    fn write_skeleton(skel: &Skeleton, out: &mut Vec<u8>) {
        match skel {
            Skeleton::Leaf(v) => {
                out.push(SKEL_LEAF);
                out.extend_from_slice(&serialize::to_bytes(v));
            }
            Skeleton::TensorRef(i) => {
                out.push(SKEL_TENSOR);
                varint(*i as u64, out);
            }
            Skeleton::List(items) => {
                out.push(SKEL_LIST);
                varint(items.len() as u64, out);
                items.iter().for_each(|item| write_skeleton(item, out));
            }
            Skeleton::Dict(entries) => {
                out.push(SKEL_DICT);
                varint(entries.len() as u64, out);
                for (k, s) in entries {
                    varint(k.len() as u64, out);
                    out.extend_from_slice(k.as_bytes());
                    write_skeleton(s, out);
                }
            }
        }
    }

    pub fn write_header(keys: &[Key], skeleton: &Skeleton) -> Vec<u8> {
        let mut out = Vec::new();
        varint(keys.len() as u64, &mut out);
        for key in keys {
            out.push(tag(key.dtype));
            varint(key.shape.len() as u64, &mut out);
            key.shape.iter().for_each(|&d| varint(d as u64, &mut out));
        }
        write_skeleton(skeleton, &mut out);
        out
    }

    pub fn header(sd: &StateDict) -> Vec<u8> {
        let (keys, skeleton, _) = split(sd);
        write_header(&keys, &skeleton)
    }

    fn fail(detail: &str) -> CheckpointError {
        CheckpointError::Reassembly { detail: detail.to_string() }
    }

    struct Cursor<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Cursor<'a> {
        fn u8(&mut self) -> Result<u8, CheckpointError> {
            let b = *self.bytes.get(self.pos).ok_or(CheckpointError::UnexpectedEof)?;
            self.pos += 1;
            Ok(b)
        }

        fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
            let end = self.pos.checked_add(n).ok_or(CheckpointError::UnexpectedEof)?;
            let s = self.bytes.get(self.pos..end).ok_or(CheckpointError::UnexpectedEof)?;
            self.pos = end;
            Ok(s)
        }

        fn varint(&mut self) -> Result<u64, CheckpointError> {
            let (mut value, mut shift) = (0u64, 0u32);
            loop {
                let b = self.u8()?;
                value |= ((b & 0x7F) as u64) << shift;
                if b & 0x80 == 0 {
                    return Ok(value);
                }
                shift += 7;
                if shift >= 64 {
                    return Err(fail("varint overflows"));
                }
            }
        }

        fn string(&mut self) -> Result<String, CheckpointError> {
            let len = self.varint()? as usize;
            Ok(std::str::from_utf8(self.take(len)?).map_err(|_| CheckpointError::BadUtf8)?.into())
        }

        fn dtype(&mut self) -> Result<DType, CheckpointError> {
            let tag = self.u8()?;
            DTYPES.get(tag as usize).copied().ok_or(CheckpointError::BadTag { tag })
        }

        fn shape(&mut self) -> Result<Vec<usize>, CheckpointError> {
            let rank = self.varint()? as usize;
            (0..rank).map(|_| self.varint().map(|d| d as usize)).collect()
        }

        /// `serialize`'s value record, dicts built by sequential insert.
        fn value(&mut self) -> Result<Value, CheckpointError> {
            Ok(match self.u8()? {
                0x01 => {
                    let u = self.varint()?;
                    Value::Int(((u >> 1) as i64) ^ -((u & 1) as i64))
                }
                0x02 => Value::Float(f64::from_le_bytes(self.take(8)?.try_into().unwrap())),
                0x03 => Value::Bool(self.u8()? != 0),
                0x04 => Value::Str(self.string()?),
                0x05 => {
                    let len = self.varint()? as usize;
                    Value::Bytes(self.take(len)?.to_vec())
                }
                0x06 => {
                    let (dtype, shape) = (self.dtype()?, self.shape()?);
                    let len = self.varint()? as usize;
                    Value::Tensor(Tensor::from_bytes(dtype, &shape, self.take(len)?.to_vec())?)
                }
                0x07 => {
                    let count = self.varint()?;
                    Value::List((0..count).map(|_| self.value()).collect::<Result<_, _>>()?)
                }
                0x08 => {
                    let mut d = StateDict::new();
                    for _ in 0..self.varint()? {
                        let key = self.string()?;
                        d.insert(key, self.value()?);
                    }
                    Value::Dict(d)
                }
                tag => return Err(CheckpointError::BadTag { tag }),
            })
        }

        fn skeleton(&mut self, n_tensors: usize) -> Result<Skeleton, CheckpointError> {
            Ok(match self.u8()? {
                SKEL_LEAF => Skeleton::Leaf(self.value()?),
                SKEL_TENSOR => {
                    let i = self.varint()? as usize;
                    if i >= n_tensors {
                        return Err(fail("tensor ref out of range"));
                    }
                    Skeleton::TensorRef(i)
                }
                SKEL_LIST => {
                    let count = self.varint()?;
                    let items = (0..count).map(|_| self.skeleton(n_tensors));
                    Skeleton::List(items.collect::<Result<_, _>>()?)
                }
                SKEL_DICT => {
                    let mut entries = Vec::new();
                    for _ in 0..self.varint()? {
                        let key = self.string()?;
                        entries.push((key, self.skeleton(n_tensors)?));
                    }
                    Skeleton::Dict(entries)
                }
                tag => return Err(CheckpointError::BadTag { tag }),
            })
        }
    }

    fn rebuild(
        skel: Skeleton,
        keys: &[Key],
        data: &mut [Vec<u8>],
    ) -> Result<Value, CheckpointError> {
        Ok(match skel {
            Skeleton::Leaf(v) => v,
            Skeleton::TensorRef(i) => {
                let buf = std::mem::take(&mut data[i]);
                Value::Tensor(Tensor::from_bytes(keys[i].dtype, &keys[i].shape, buf)?)
            }
            Skeleton::List(items) => Value::List(
                items.into_iter().map(|s| rebuild(s, keys, data)).collect::<Result<_, _>>()?,
            ),
            Skeleton::Dict(entries) => {
                let mut d = StateDict::new();
                for (k, s) in entries {
                    d.insert(k, rebuild(s, keys, data)?);
                }
                Value::Dict(d)
            }
        })
    }

    /// Parse the whole header, hold its tensors to the region, slice
    /// each out, rebuild.
    pub fn reassemble_region(header: &[u8], region: &[u8]) -> Result<StateDict, CheckpointError> {
        let mut c = Cursor { bytes: header, pos: 0 };
        let mut keys = Vec::new();
        for _ in 0..c.varint()? {
            let (dtype, shape) = (c.dtype()?, c.shape()?);
            let numel = shape.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
            if numel.and_then(|n| n.checked_mul(dtype.size())).is_none() {
                return Err(fail("shape overflows a byte count"));
            }
            keys.push(Key { dtype, shape });
        }
        let skeleton = c.skeleton(keys.len())?;
        if c.pos != header.len() {
            return Err(fail("trailing bytes after skeleton"));
        }
        let total = keys.iter().try_fold(0usize, |sum, key| sum.checked_add(key.byte_len()));
        if total.is_none_or(|total| total > region.len()) {
            return Err(fail("tensors do not fit the region"));
        }
        let mut rest = region;
        let mut data = Vec::new();
        for key in &keys {
            let (tensor, tail) = rest.split_at(key.byte_len());
            data.push(tensor.to_vec());
            rest = tail;
        }
        match rebuild(skeleton, &keys, &mut data)? {
            Value::Dict(d) => Ok(d),
            _ => Err(fail("top-level skeleton is not a dict")),
        }
    }
}

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

/// The CRC of every shard's header CRC, computed when the key table
/// stopped storing paths.
#[test]
fn benchmark_shard_headers_are_byte_identical_to_the_seed() {
    for (name, grid, model, pinned) in [
        ("mem_small", (4, 2, 1), (16, 4, 10, 64, 16), 0xA07C_253Du32),
        ("mem_large", (4, 2, 1), (48, 4, 10, 128, 16), 0x38FF_08E1),
        ("tcp_large", (4, 2, 1), (48, 4, 10, 128, 16), 0x38FF_08E1),
        ("tiered_wide", (4, 3, 1), (48, 4, 15, 128, 16), 0xB769_157B),
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

fn tensor(dtype: DType, shape: &[usize], bytes: &[u8]) -> Value {
    Value::Tensor(Tensor::from_bytes(dtype, shape, bytes.to_vec()).unwrap())
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The key table and the skeleton that says where each tensor sits,
/// byte for byte: `opt[0].m` through a list of dicts, a `Str` and a
/// `Bool` leaf, an empty dict, an empty list and a zero-length tensor.
/// A key is `dtype ‖ rank ‖ dims`, with no path: the skeleton's dict
/// keys and list positions carry it.
#[test]
fn header_bytes_of_the_path_grammar_are_pinned() {
    let moment = |byte: u8| -> StateDict {
        [("m".to_string(), tensor(DType::F32, &[2], &[byte; 8]))].into_iter().collect()
    };
    let sd: StateDict = [
        ("opt", Value::List(vec![Value::Dict(moment(1)), Value::Dict(moment(2))])),
        ("name", Value::Str("gpt".into())),
        ("flag", Value::Bool(true)),
        ("empty", Value::Dict(StateDict::new())),
        ("none", Value::List(Vec::new())),
        ("z", tensor(DType::U8, &[0], &[])),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    let (header, views) = decompose_views(&sd);
    assert_eq!(
        hex(&header),
        concat!(
            // 3 keys: f32 [2] (opt[0].m), f32 [2] (opt[1].m), u8 [0] (z).
            "03",
            "020102",
            "020102",
            "060100",
            // {opt: [{m: #0}, {m: #1}], name: "gpt", flag: true,
            //  empty: {}, none: [], z: #2}
            "1306",
            "036f7074",
            "1202",
            "1301016d1100",
            "1301016d1101",
            "046e616d65",
            "100403677074",
            "04666c6167",
            "100301",
            "05656d707479",
            "1300",
            "046e6f6e65",
            "1200",
            "017a",
            "1102",
        )
    );
    assert_eq!(header, oracle::header(&sd));
    assert_eq!(views, [&[1u8; 8][..], &[2u8; 8], &[]]);
    assert_eq!(reassemble_region(&header, &views.concat()).unwrap(), sd);
}

/// A bad dtype tag is reported as the byte that was read, in the
/// header's key table and in the serializer's tensor record alike.
#[test]
fn a_bad_dtype_tag_names_the_byte_it_read() {
    let mut keys = vec![1, 0x42, 1, 4];
    keys.extend_from_slice(&[oracle::SKEL_DICT, 1, 1, b'w', oracle::SKEL_TENSOR, 0]);
    assert_eq!(reassemble_region(&keys, &[0; 4]), Err(CheckpointError::BadTag { tag: 0x42 }));
    let record = [0x06, 0x42, 1, 4, 4, 0, 0, 0, 0];
    assert_eq!(serialize::from_bytes(&record), Err(CheckpointError::BadTag { tag: 0x42 }));
}

/// A key repeated inside one dict resolves as sequential `insert` does —
/// the key keeps its first position and takes its last value — whether
/// the dict comes out of a header, out of the serializer or out of an
/// iterator, in a small dict and a larger one.
#[test]
fn a_repeated_key_resolves_as_sequential_insert() {
    for filler in [0, 10] {
        let mut keys = vec!["a".to_string(), "b".to_string()];
        keys.extend((0..filler).map(|i| format!("k{i}")));
        keys.push("a".to_string());
        let entries: Vec<(String, Value)> =
            keys.iter().enumerate().map(|(i, k)| (k.clone(), Value::Int(i as i64))).collect();
        let mut expected = StateDict::new();
        for (k, v) in &entries {
            expected.insert(k.clone(), v.clone());
        }
        let skeleton = oracle::Skeleton::Dict(
            entries.iter().map(|(k, v)| (k.clone(), oracle::Skeleton::Leaf(v.clone()))).collect(),
        );
        let header = oracle::write_header(&[], &skeleton);
        let from_header = reassemble_region(&header, &[]).unwrap();
        let mut record = vec![0x08, entries.len() as u8];
        for (k, v) in &entries {
            oracle::varint(k.len() as u64, &mut record);
            record.extend_from_slice(k.as_bytes());
            record.extend_from_slice(&serialize::to_bytes(v));
        }
        let from_record = serialize::dict_from_bytes(&record).unwrap();
        let from_iter: StateDict = entries.into_iter().collect();
        for got in [from_header, from_record, from_iter] {
            assert_eq!(got.len(), keys.len() - 1);
            assert_eq!(got.iter().next().map(|(k, _)| k), Some("a"), "first position");
            assert_eq!(got, expected, "last value");
        }
    }
}

fn arb_value(key: &'static str) -> impl Strategy<Value = Value> {
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
    leaf.prop_recursive(3, 24, 4, move |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::List),
            proptest::collection::vec((key, inner), 0..4)
                .prop_map(|kvs| Value::Dict(kvs.into_iter().collect())),
        ]
    })
}

/// Arbitrary top-level dicts; short keys so that empty and shared keys
/// come up often.
fn arb_dict() -> impl Strategy<Value = StateDict> {
    proptest::collection::vec(("[a-c]{0,2}", arb_value("[a-c]{0,2}")), 0..5)
        .prop_map(|entries| entries.into_iter().collect())
}

/// The bytes of a header the writer never produces, built from the
/// oracle's split of `sd`, and the region to read it against. `kind`:
/// 0 truncated, 1 one byte flipped, 2 a tensor referenced twice, 3 a
/// dict key repeated, 4 a key table longer than its skeleton uses, 5 a
/// byte after the skeleton, 6 a skeleton whose root is not a dict.
fn hostile(sd: &StateDict, kind: u8, at: usize, byte: u8) -> (Vec<u8>, Vec<u8>) {
    use oracle::Skeleton;

    fn count_dicts(skel: &Skeleton) -> usize {
        match skel {
            Skeleton::Dict(entries) => {
                1 + entries.iter().map(|(_, s)| count_dicts(s)).sum::<usize>()
            }
            Skeleton::List(items) => items.iter().map(count_dicts).sum(),
            _ => 0,
        }
    }

    /// The `n`-th dict of `skel`, DFS order.
    fn nth_dict<'s>(
        skel: &'s mut Skeleton,
        n: &mut usize,
    ) -> Option<&'s mut Vec<(String, Skeleton)>> {
        match skel {
            Skeleton::Dict(entries) => {
                if *n == 0 {
                    return Some(entries);
                }
                *n -= 1;
                entries.iter_mut().find_map(|(_, s)| nth_dict(s, n))
            }
            Skeleton::List(items) => items.iter_mut().find_map(|s| nth_dict(s, n)),
            _ => None,
        }
    }

    let (mut keys, mut skeleton, views) = oracle::split(sd);
    let mut region = views.concat();
    let mut target = at % count_dicts(&skeleton);
    match kind {
        2 => {
            let i = if keys.is_empty() { 0 } else { at % keys.len() };
            let dict = nth_dict(&mut skeleton, &mut target).unwrap();
            dict.push(("dup".to_string(), Skeleton::TensorRef(i)));
        }
        3 => {
            let dict = nth_dict(&mut skeleton, &mut target).unwrap();
            let key = dict.get(at % dict.len().max(1)).map_or(String::new(), |(k, _)| k.clone());
            dict.insert(at % (dict.len() + 1), (key, Skeleton::Leaf(Value::Int(byte.into()))));
        }
        4 => {
            let extra = usize::from(byte % 5);
            keys.push(oracle::Key { dtype: DType::U8, shape: vec![extra] });
            region.extend(std::iter::repeat_n(byte, if at.is_multiple_of(2) { extra } else { 0 }));
        }
        6 => skeleton = Skeleton::List(vec![skeleton]),
        _ => {}
    }
    let mut header = oracle::write_header(&keys, &skeleton);
    match kind {
        0 => header.truncate(at % header.len()),
        1 => {
            let i = at % header.len();
            header[i] ^= byte.max(1);
        }
        5 => header.push(byte),
        _ => {}
    }
    (header, region)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary nested dict → header + views → region laid head to
    /// tail and zero-padded → header + region → the same dict.
    #[test]
    fn prop_views_and_region_round_trip(
        entries in proptest::collection::vec(("[a-z]{1,8}", arb_value("[a-z]{1,8}")), 0..5),
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

    /// The one-pass writer writes the tree codec's bytes, and the
    /// one-pass reader reads back what the tree reader does, through a
    /// region laid as a save lays it.
    #[test]
    fn prop_writer_and_reader_match_the_tree_codec(sd in arb_dict(), padding in 0usize..8) {
        let (header, views) = decompose_views(&sd);
        prop_assert_eq!(&header, &oracle::header(&sd));
        let mut region = views.concat();
        region.resize(region.len() + padding, 0);
        let ours = reassemble_region(&header, &region).unwrap();
        prop_assert_eq!(&ours, &oracle::reassemble_region(&header, &region).unwrap());
        prop_assert_eq!(decompose(&sd).reassemble().unwrap(), ours);
    }

    /// On headers the writer never produces both readers reach the same
    /// verdict, and the same dict when they accept; neither panics.
    #[test]
    fn prop_hostile_headers_get_the_tree_readers_verdict(
        sd in arb_dict(),
        kind in 0u8..7,
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let (header, region) = hostile(&sd, kind, at, byte);
        let ours = reassemble_region(&header, &region);
        let theirs = oracle::reassemble_region(&header, &region);
        prop_assert_eq!(ours.is_ok(), theirs.is_ok(), "ours {:?}, theirs {:?}", ours, theirs);
        if let (Ok(ours), Ok(theirs)) = (ours, theirs) {
            prop_assert_eq!(serialize::dict_to_bytes(&ours), serialize::dict_to_bytes(&theirs));
        }
    }
}
