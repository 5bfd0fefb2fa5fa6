//! A compact, self-contained binary serializer for checkpoint values.
//!
//! This plays the role `torch.save` / pickle plays in the paper: the
//! remote-storage baselines serialize the whole `state_dict` with it
//! (incurring the overhead Fig. 4 measures), while ECCheck uses it only
//! for the tiny non-tensor key-values and tensor keys that are broadcast
//! in step 2 of the serialization-free protocol (§III-C).
//!
//! The format is tag-prefixed with LEB128 lengths; round-trips are exact,
//! including float bit patterns.

use crate::{CheckpointError, DType, StateDict, Tensor, Value};

const TAG_INT: u8 = 0x01;
const TAG_FLOAT: u8 = 0x02;
const TAG_BOOL: u8 = 0x03;
const TAG_STR: u8 = 0x04;
const TAG_BYTES: u8 = 0x05;
const TAG_TENSOR: u8 = 0x06;
const TAG_LIST: u8 = 0x07;
const TAG_DICT: u8 = 0x08;

/// Serializes a value to bytes.
///
/// # Examples
///
/// ```
/// use ecc_checkpoint::{serialize, Value};
///
/// let v = Value::Int(-42);
/// let bytes = serialize::to_bytes(&v);
/// assert_eq!(serialize::from_bytes(&bytes)?, v);
/// # Ok::<(), ecc_checkpoint::CheckpointError>(())
/// ```
pub fn to_bytes(value: &Value) -> Vec<u8> {
    let mut out = Vec::with_capacity(serialized_size(value));
    write_value(value, &mut out);
    out
}

/// Deserializes a value previously produced by [`to_bytes`].
///
/// # Errors
///
/// Returns a [`CheckpointError`] on truncated input, unknown tags,
/// invalid UTF-8, or inconsistent tensor metadata. Trailing bytes after
/// the value are also an error.
pub fn from_bytes(bytes: &[u8]) -> Result<Value, CheckpointError> {
    let mut cursor = Cursor { bytes, pos: 0 };
    let v = read_value(&mut cursor)?;
    if cursor.pos != bytes.len() {
        return Err(CheckpointError::BadTensor {
            detail: format!("{} trailing bytes after value", bytes.len() - cursor.pos),
        });
    }
    Ok(v)
}

/// Serializes a whole `state_dict`.
pub fn dict_to_bytes(dict: &StateDict) -> Vec<u8> {
    to_bytes(&Value::Dict(dict.clone()))
}

/// Deserializes a `state_dict` previously produced by [`dict_to_bytes`].
///
/// # Errors
///
/// Same conditions as [`from_bytes`], plus a type error when the encoded
/// value is not a dictionary.
pub fn dict_from_bytes(bytes: &[u8]) -> Result<StateDict, CheckpointError> {
    match from_bytes(bytes)? {
        Value::Dict(d) => Ok(d),
        other => Err(CheckpointError::BadTensor {
            detail: format!("expected a dict at top level, found {other:?}"),
        }),
    }
}

/// Exact size in bytes [`to_bytes`] would produce, without allocating.
/// Used by the timing model to size serialized transfers.
pub fn serialized_size(value: &Value) -> usize {
    match value {
        Value::Int(i) => 1 + varint_len(zigzag(*i)),
        Value::Float(_) => 1 + 8,
        Value::Bool(_) => 1 + 1,
        Value::Str(s) => 1 + varint_len(s.len() as u64) + s.len(),
        Value::Bytes(b) => 1 + varint_len(b.len() as u64) + b.len(),
        Value::Tensor(t) => {
            1 + 1
                + varint_len(t.shape().len() as u64)
                + t.shape().iter().map(|&d| varint_len(d as u64)).sum::<usize>()
                + varint_len(t.byte_len() as u64)
                + t.byte_len()
        }
        Value::List(items) => {
            1 + varint_len(items.len() as u64) + items.iter().map(serialized_size).sum::<usize>()
        }
        Value::Dict(d) => {
            1 + varint_len(d.len() as u64)
                + d.iter()
                    .map(|(k, v)| varint_len(k.len() as u64) + k.len() + serialized_size(v))
                    .sum::<usize>()
        }
    }
}

pub(crate) fn write_value(value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Int(i) => {
            out.push(TAG_INT);
            write_varint(zigzag(*i), out);
        }
        Value::Float(x) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::Bool(b) => {
            out.push(TAG_BOOL);
            out.push(u8::from(*b));
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            write_varint(s.len() as u64, out);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Bytes(b) => {
            out.push(TAG_BYTES);
            write_varint(b.len() as u64, out);
            out.extend_from_slice(b);
        }
        Value::Tensor(t) => {
            out.push(TAG_TENSOR);
            out.push(t.dtype().tag());
            write_varint(t.shape().len() as u64, out);
            for &d in t.shape() {
                write_varint(d as u64, out);
            }
            write_varint(t.byte_len() as u64, out);
            out.extend_from_slice(t.bytes());
        }
        Value::List(items) => {
            out.push(TAG_LIST);
            write_varint(items.len() as u64, out);
            for item in items {
                write_value(item, out);
            }
        }
        Value::Dict(d) => {
            out.push(TAG_DICT);
            write_varint(d.len() as u64, out);
            for (k, v) in d.iter() {
                write_varint(k.len() as u64, out);
                out.extend_from_slice(k.as_bytes());
                write_value(v, out);
            }
        }
    }
}

pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }
    pub(crate) fn at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }

    pub(crate) fn u8(&mut self) -> Result<u8, CheckpointError> {
        let b = *self.bytes.get(self.pos).ok_or(CheckpointError::UnexpectedEof)?;
        self.pos += 1;
        Ok(b)
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self.pos.checked_add(n).ok_or(CheckpointError::UnexpectedEof)?;
        let s = self.bytes.get(self.pos..end).ok_or(CheckpointError::UnexpectedEof)?;
        self.pos = end;
        Ok(s)
    }

    /// A length-prefixed UTF-8 string.
    pub(crate) fn str(&mut self) -> Result<&'a str, CheckpointError> {
        let len = self.varint()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| CheckpointError::BadUtf8)
    }

    pub(crate) fn varint(&mut self) -> Result<u64, CheckpointError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            value |= ((b & 0x7F) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
            if shift >= 64 {
                return Err(CheckpointError::BadTag { tag: b });
            }
        }
    }
}

pub(crate) fn read_value(c: &mut Cursor<'_>) -> Result<Value, CheckpointError> {
    match c.u8()? {
        TAG_INT => Ok(Value::Int(unzigzag(c.varint()?))),
        TAG_FLOAT => {
            let raw: [u8; 8] = c.take(8)?.try_into().map_err(|_| CheckpointError::UnexpectedEof)?;
            Ok(Value::Float(f64::from_le_bytes(raw)))
        }
        TAG_BOOL => Ok(Value::Bool(c.u8()? != 0)),
        TAG_STR => Ok(Value::Str(c.str()?.to_string())),
        TAG_BYTES => {
            let len = c.varint()? as usize;
            Ok(Value::Bytes(c.take(len)?.to_vec()))
        }
        TAG_TENSOR => {
            let tag = c.u8()?;
            let dtype = DType::from_tag(tag).ok_or(CheckpointError::BadTag { tag })?;
            let rank = c.varint()? as usize;
            let mut shape = Vec::with_capacity(rank.min(64));
            for _ in 0..rank {
                shape.push(c.varint()? as usize);
            }
            let len = c.varint()? as usize;
            let data = c.take(len)?.to_vec();
            Ok(Value::Tensor(Tensor::from_bytes(dtype, &shape, data)?))
        }
        TAG_LIST => read_list(c, read_value).map(Value::List),
        TAG_DICT => read_dict(c, read_value).map(Value::Dict),
        tag => Err(CheckpointError::BadTag { tag }),
    }
}

/// Reads a list body — a count, then each item read by `item`.
pub(crate) fn read_list<'a>(
    c: &mut Cursor<'a>,
    mut item: impl FnMut(&mut Cursor<'a>) -> Result<Value, CheckpointError>,
) -> Result<Vec<Value>, CheckpointError> {
    let count = c.varint()? as usize;
    let mut items = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        items.push(item(c)?);
    }
    Ok(items)
}

/// Reads a dict body — a count, then each key and its value read by
/// `value` — and builds the dict in one pass.
pub(crate) fn read_dict<'a>(
    c: &mut Cursor<'a>,
    mut value: impl FnMut(&mut Cursor<'a>) -> Result<Value, CheckpointError>,
) -> Result<StateDict, CheckpointError> {
    let count = c.varint()? as usize;
    let mut entries = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        let key = c.str()?.to_string();
        entries.push((key, value(c)?));
    }
    Ok(StateDict::from_entries(entries))
}

pub(crate) fn write_varint(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn varint_len(v: u64) -> usize {
    (64 - v.max(1).leading_zeros() as usize).div_ceil(7)
}

fn zigzag(i: i64) -> u64 {
    (i.wrapping_shl(1) ^ (i >> 63)) as u64
}

fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(v: &Value) {
        let bytes = to_bytes(v);
        assert_eq!(bytes.len(), serialized_size(v), "size mismatch for {v:?}");
        assert_eq!(&from_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn scalars_round_trip() {
        roundtrip(&Value::Int(0));
        roundtrip(&Value::Int(i64::MAX));
        roundtrip(&Value::Int(i64::MIN));
        roundtrip(&Value::Float(3.5));
        roundtrip(&Value::Float(f64::NEG_INFINITY));
        roundtrip(&Value::Bool(true));
        roundtrip(&Value::Str("megatron".to_string()));
        roundtrip(&Value::Str(String::new()));
        roundtrip(&Value::Bytes(vec![0, 1, 2, 255]));
    }

    #[test]
    fn nan_bit_pattern_survives() {
        let nan = f64::from_bits(0x7FF8_0000_0000_1234);
        let bytes = to_bytes(&Value::Float(nan));
        match from_bytes(&bytes).unwrap() {
            Value::Float(x) => assert_eq!(x.to_bits(), nan.to_bits()),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn tensors_round_trip() {
        let t = Tensor::from_bytes(DType::F16, &[2, 3], (0u8..12).collect()).unwrap();
        roundtrip(&Value::Tensor(t));
        roundtrip(&Value::Tensor(Tensor::zeros(DType::I64, &[])));
    }

    #[test]
    fn nested_structures_round_trip() {
        let mut opt = StateDict::new();
        opt.insert("step", Value::Int(100));
        opt.insert("exp_avg", Value::Tensor(Tensor::zeros(DType::F32, &[16])));
        let mut sd = StateDict::new();
        sd.insert("iteration", Value::Int(42));
        sd.insert("optimizer", Value::Dict(opt));
        sd.insert("rng", Value::Bytes(vec![7u8; 64]));
        sd.insert(
            "shapes",
            Value::List(vec![Value::Int(1), Value::Str("x".into()), Value::Bool(false)]),
        );
        let bytes = dict_to_bytes(&sd);
        assert_eq!(dict_from_bytes(&bytes).unwrap(), sd);
    }

    #[test]
    fn truncated_input_errors() {
        let bytes = to_bytes(&Value::Str("hello".to_string()));
        for cut in 0..bytes.len() {
            assert!(from_bytes(&bytes[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn trailing_garbage_errors() {
        let mut bytes = to_bytes(&Value::Int(5));
        bytes.push(0);
        assert!(from_bytes(&bytes).is_err());
    }

    #[test]
    fn unknown_tag_errors() {
        assert!(matches!(from_bytes(&[0x7F]), Err(CheckpointError::BadTag { tag: 0x7F })));
    }

    #[test]
    fn dict_from_bytes_rejects_non_dict() {
        let bytes = to_bytes(&Value::Int(1));
        assert!(dict_from_bytes(&bytes).is_err());
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            any::<i64>().prop_map(Value::Int),
            any::<f64>().prop_map(Value::Float),
            any::<bool>().prop_map(Value::Bool),
            "[a-z.]{0,12}".prop_map(Value::Str),
            proptest::collection::vec(any::<u8>(), 0..32).prop_map(Value::Bytes),
            proptest::collection::vec(any::<u8>(), 0..16).prop_map(|b| {
                let len = b.len();
                Value::Tensor(Tensor::from_bytes(DType::U8, &[len], b).unwrap())
            }),
        ];
        leaf.prop_recursive(3, 24, 4, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::List),
                proptest::collection::vec(("[a-z]{1,8}", inner), 0..4)
                    .prop_map(|kvs| { Value::Dict(kvs.into_iter().collect()) }),
            ]
        })
    }

    proptest! {
        #[test]
        fn prop_round_trip(v in arb_value()) {
            let bytes = to_bytes(&v);
            prop_assert_eq!(bytes.len(), serialized_size(&v));
            let back = from_bytes(&bytes).unwrap();
            // NaN floats compare unequal; compare re-serialized bytes
            // instead, which is the bit-exactness we actually promise.
            prop_assert_eq!(to_bytes(&back), bytes);
        }

        #[test]
        fn prop_varint_round_trip(v in any::<u64>()) {
            let mut buf = Vec::new();
            write_varint(v, &mut buf);
            prop_assert_eq!(buf.len(), varint_len(v));
            let mut c = Cursor { bytes: &buf, pos: 0 };
            prop_assert_eq!(c.varint().unwrap(), v);
        }

        #[test]
        fn prop_zigzag_round_trip(i in any::<i64>()) {
            prop_assert_eq!(unzigzag(zigzag(i)), i);
        }
    }
}
