use std::collections::HashSet;
use std::fmt;

/// Element type of a [`Tensor`].
///
/// Covers the dtypes that appear in Megatron-style mixed-precision
/// checkpoints: fp16/bf16 parameters, fp32 master weights and Adam
/// moments, and integer bookkeeping tensors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// 16-bit IEEE float.
    F16,
    /// 16-bit brain float.
    BF16,
    /// 32-bit IEEE float.
    F32,
    /// 64-bit IEEE float.
    F64,
    /// 32-bit signed integer.
    I32,
    /// 64-bit signed integer.
    I64,
    /// Unsigned byte (RNG states, masks).
    U8,
}

impl DType {
    /// Size of one element in bytes.
    pub fn size(&self) -> usize {
        match self {
            DType::F16 | DType::BF16 => 2,
            DType::F32 | DType::I32 => 4,
            DType::F64 | DType::I64 => 8,
            DType::U8 => 1,
        }
    }

    /// Stable tag used by the serializer.
    pub(crate) fn tag(&self) -> u8 {
        match self {
            DType::F16 => 0,
            DType::BF16 => 1,
            DType::F32 => 2,
            DType::F64 => 3,
            DType::I32 => 4,
            DType::I64 => 5,
            DType::U8 => 6,
        }
    }

    pub(crate) fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => DType::F16,
            1 => DType::BF16,
            2 => DType::F32,
            3 => DType::F64,
            4 => DType::I32,
            5 => DType::I64,
            6 => DType::U8,
            _ => return None,
        })
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DType::F16 => "f16",
            DType::BF16 => "bf16",
            DType::F32 => "f32",
            DType::F64 => "f64",
            DType::I32 => "i32",
            DType::I64 => "i64",
            DType::U8 => "u8",
        };
        f.write_str(s)
    }
}

/// A dense tensor: dtype, shape, and contiguous little-endian bytes.
///
/// The reproduction never does math on tensor contents — checkpointing
/// treats them as opaque contiguous memory, exactly as the paper's
/// serialization-free protocol does (§III-C: "each tensor's data is
/// stored contiguously in memory").
///
/// # Examples
///
/// ```
/// use ecc_checkpoint::{DType, Tensor};
///
/// let t = Tensor::zeros(DType::F32, &[2, 3]);
/// assert_eq!(t.numel(), 6);
/// assert_eq!(t.byte_len(), 24);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    dtype: DType,
    shape: Vec<usize>,
    data: Vec<u8>,
}

impl Tensor {
    /// A zero-filled tensor of the given dtype and shape.
    pub fn zeros(dtype: DType, shape: &[usize]) -> Self {
        let numel: usize = shape.iter().product();
        Self { dtype, shape: shape.to_vec(), data: vec![0u8; numel * dtype.size()] }
    }

    /// A tensor from raw little-endian bytes.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CheckpointError::BadTensor`] when `data.len()`
    /// does not equal `numel × dtype.size()`.
    pub fn from_bytes(
        dtype: DType,
        shape: &[usize],
        data: Vec<u8>,
    ) -> Result<Self, crate::CheckpointError> {
        let numel: usize = shape.iter().product();
        let expected = numel * dtype.size();
        if data.len() != expected {
            return Err(crate::CheckpointError::BadTensor {
                detail: format!(
                    "shape {shape:?} with dtype {dtype} needs {expected} bytes, got {}",
                    data.len()
                ),
            });
        }
        Ok(Self { dtype, shape: shape.to_vec(), data })
    }

    /// Element type.
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.shape.iter().product()
    }

    /// Size of the contiguous data in bytes.
    pub fn byte_len(&self) -> usize {
        self.data.len()
    }

    /// The contiguous data.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }
}

/// A checkpoint value: scalar metadata, nested containers, or tensors.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A signed integer (iteration counts, versions).
    Int(i64),
    /// A floating-point scalar (loss scale, learning rate).
    Float(f64),
    /// A boolean flag.
    Bool(bool),
    /// A UTF-8 string (framework versions, parallelism descriptors).
    Str(String),
    /// Raw bytes (RNG state blobs).
    Bytes(Vec<u8>),
    /// A dense tensor.
    Tensor(Tensor),
    /// An ordered list.
    List(Vec<Value>),
    /// A nested dictionary.
    Dict(StateDict),
}

impl Value {
    /// `true` when this subtree contains at least one tensor.
    pub fn contains_tensor(&self) -> bool {
        match self {
            Value::Tensor(_) => true,
            Value::List(items) => items.iter().any(Value::contains_tensor),
            Value::Dict(d) => d.iter().any(|(_, v)| v.contains_tensor()),
            _ => false,
        }
    }

    /// Total bytes of tensor data in this subtree.
    pub fn tensor_bytes(&self) -> usize {
        match self {
            Value::Tensor(t) => t.byte_len(),
            Value::List(items) => items.iter().map(Value::tensor_bytes).sum(),
            Value::Dict(d) => d.iter().map(|(_, v)| v.tensor_bytes()).sum(),
            _ => 0,
        }
    }
}

/// An insertion-ordered string-keyed dictionary — the `state_dict`.
///
/// Order is preserved so that serialization, decomposition, and packing
/// are deterministic across runs and across nodes, which the encoded
/// checkpoint layout depends on.
///
/// # Examples
///
/// ```
/// use ecc_checkpoint::{StateDict, Value};
///
/// let mut sd = StateDict::new();
/// sd.insert("iteration", Value::Int(7));
/// assert_eq!(sd.get("iteration"), Some(&Value::Int(7)));
/// assert_eq!(sd.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StateDict {
    entries: Vec<(String, Value)>,
}

impl StateDict {
    /// An empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of top-level entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the dictionary has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts or replaces the value under `key`, returning any previous
    /// value. Insertion order is preserved; replacing keeps the original
    /// position.
    pub fn insert(&mut self, key: impl Into<String>, value: Value) -> Option<Value> {
        let key = key.into();
        for (k, v) in &mut self.entries {
            if *k == key {
                return Some(std::mem::replace(v, value));
            }
        }
        self.entries.push((key, value));
        None
    }

    /// The dict of `entries` in order, built in one pass. A repeated key
    /// resolves as sequential [`Self::insert`] would: its first position,
    /// its last value.
    pub(crate) fn from_entries(entries: Vec<(String, Value)>) -> Self {
        let mut seen = HashSet::with_capacity(entries.len());
        if entries.iter().all(|(k, _)| seen.insert(k.as_str())) {
            return Self { entries };
        }
        let mut sd = Self::new();
        sd.extend(entries);
        sd
    }

    /// The value under `key`, if present.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Mutable access to the value under `key`, if present.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.entries.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Iterates over `(key, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Total bytes of tensor data anywhere in the tree — the ">99.99%"
    /// component of a real checkpoint (paper §III-C).
    pub fn tensor_bytes(&self) -> usize {
        self.iter().map(|(_, v)| v.tensor_bytes()).sum()
    }

    /// Number of tensors anywhere in the tree.
    pub fn tensor_count(&self) -> usize {
        fn count(v: &Value) -> usize {
            match v {
                Value::Tensor(_) => 1,
                Value::List(items) => items.iter().map(count).sum(),
                Value::Dict(d) => d.iter().map(|(_, v)| count(v)).sum(),
                _ => 0,
            }
        }
        self.iter().map(|(_, v)| count(v)).sum()
    }
}

impl FromIterator<(String, Value)> for StateDict {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        Self::from_entries(iter.into_iter().collect())
    }
}

impl Extend<(String, Value)> for StateDict {
    fn extend<I: IntoIterator<Item = (String, Value)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_sizes() {
        assert_eq!(DType::F16.size(), 2);
        assert_eq!(DType::BF16.size(), 2);
        assert_eq!(DType::F32.size(), 4);
        assert_eq!(DType::F64.size(), 8);
        assert_eq!(DType::I64.size(), 8);
        assert_eq!(DType::U8.size(), 1);
    }

    #[test]
    fn dtype_tag_round_trips() {
        for d in
            [DType::F16, DType::BF16, DType::F32, DType::F64, DType::I32, DType::I64, DType::U8]
        {
            assert_eq!(DType::from_tag(d.tag()), Some(d));
        }
        assert_eq!(DType::from_tag(200), None);
    }

    #[test]
    fn tensor_shape_validation() {
        assert!(Tensor::from_bytes(DType::F32, &[2, 2], vec![0u8; 16]).is_ok());
        assert!(Tensor::from_bytes(DType::F32, &[2, 2], vec![0u8; 15]).is_err());
    }

    #[test]
    fn scalar_tensor_has_one_element() {
        let t = Tensor::zeros(DType::I64, &[]);
        assert_eq!(t.numel(), 1);
        assert_eq!(t.byte_len(), 8);
    }

    #[test]
    fn insert_preserves_order_and_replaces_in_place() {
        let mut sd = StateDict::new();
        sd.insert("a", Value::Int(1));
        sd.insert("b", Value::Int(2));
        let old = sd.insert("a", Value::Int(3));
        assert_eq!(old, Some(Value::Int(1)));
        let keys: Vec<&str> = sd.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "b"]);
        assert_eq!(sd.get("a"), Some(&Value::Int(3)));
    }

    #[test]
    fn tensor_accounting_recurses() {
        let mut inner = StateDict::new();
        inner.insert("w", Value::Tensor(Tensor::zeros(DType::F32, &[8])));
        let mut sd = StateDict::new();
        sd.insert("iteration", Value::Int(0));
        sd.insert("opt", Value::Dict(inner));
        sd.insert(
            "list",
            Value::List(vec![Value::Tensor(Tensor::zeros(DType::F16, &[4])), Value::Int(9)]),
        );
        assert_eq!(sd.tensor_count(), 2);
        assert_eq!(sd.tensor_bytes(), 32 + 8);
        assert!(sd.get("opt").unwrap().contains_tensor());
        assert!(!sd.get("iteration").unwrap().contains_tensor());
    }

    #[test]
    fn from_iterator_collects() {
        let sd: StateDict =
            vec![("x".to_string(), Value::Int(1)), ("y".to_string(), Value::Bool(true))]
                .into_iter()
                .collect();
        assert_eq!(sd.len(), 2);
        assert_eq!(sd.get("y"), Some(&Value::Bool(true)));
    }
}
