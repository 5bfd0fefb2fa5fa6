//! The serialization-free decomposition protocol (paper §III-C, Fig. 8).
//!
//! Step 1 of ECCheck's encoding protocol splits a `state_dict` into three
//! components: non-tensor key-value pairs (a dict of scalars, strings and
//! RNG blobs), tensor keys (dtypes + shapes), and the raw tensor
//! data. Only the first two — a few tens of kilobytes — are ever
//! serialized and broadcast; the gigabytes of tensor data flow into the
//! erasure coder as contiguous memory, untouched.
//!
//! The header is `varint(count) ‖ tensor keys ‖ skeleton`, and one pass
//! writes or reads it. A tensor key is `dtype ‖ varint(rank) ‖ dims`:
//! no path, because the skeleton's dict keys and list positions already
//! say where each tensor sits. [`decompose_views`] walks a borrowed `state_dict`
//! once, appending each tensor's key and each skeleton record as it goes
//! and returning a view of every tensor's bytes; [`reassemble_region`]
//! reads a header once and builds the `state_dict` straight from it,
//! copying each tensor byte out of the region it was laid into once.
//! [`Decomposition`] is the owned form: [`decompose`] copies the views,
//! [`Decomposition::reassemble`] runs the same reader over its buffers.

use std::ops::Range;

use crate::serialize::{read_dict, read_list, read_value, write_value, write_varint, Cursor};
use crate::{CheckpointError, DType, StateDict, Tensor, Value};

const SKEL_LEAF: u8 = 0x10;
const SKEL_TENSOR: u8 = 0x11;
const SKEL_LIST: u8 = 0x12;
const SKEL_DICT: u8 = 0x13;

/// Dtype and shape of one tensor extracted from a `state_dict` — an
/// entry of the protocol's "tensor keys" list, in DFS order. Where the
/// tensor sits is the skeleton's business: its `i`-th tensor ref names
/// the `i`-th key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TensorKey {
    dtype: DType,
    shape: Vec<usize>,
}

impl TensorKey {
    /// Element type.
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Byte length of the tensor's data.
    pub fn byte_len(&self) -> usize {
        self.shape.iter().product::<usize>() * self.dtype.size()
    }
}

/// The three components of the serialization-free protocol: the
/// serialized header (non-tensor key-values and tensor keys), the tensor
/// keys, and the tensor data.
///
/// # Examples
///
/// ```
/// use ecc_checkpoint::{decompose, DType, StateDict, Tensor, Value};
///
/// let mut sd = StateDict::new();
/// sd.insert("iteration", Value::Int(3));
/// sd.insert("w", Value::Tensor(Tensor::zeros(DType::F16, &[8])));
/// let d = decompose(&sd);
/// assert_eq!(d.tensor_keys()[0].shape(), [8]);
/// assert_eq!(d.tensor_bytes(), 16);
/// assert_eq!(d.reassemble()?, sd);
/// # Ok::<(), ecc_checkpoint::CheckpointError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Decomposition {
    header: Vec<u8>,
    keys: Vec<TensorKey>,
    data: Vec<Vec<u8>>,
}

/// Splits a `state_dict` into non-tensor structure, tensor keys, and raw
/// tensor data (DFS order, deterministic).
pub fn decompose(sd: &StateDict) -> Decomposition {
    let (header, views) = decompose_views(sd);
    let (keys, ..) = tensor_keys(&header).expect("a header the writer just wrote parses");
    Decomposition { header, keys, data: views.iter().map(|view| view.to_vec()).collect() }
}

/// [`decompose`] without the copy: the serialized header
/// (byte-identical to `decompose(sd).header_to_bytes()`) and every
/// tensor's bytes in the same DFS order, borrowed from `sd` — what a save
/// lays into its region straight from the caller's buffers.
///
/// # Examples
///
/// ```
/// use ecc_checkpoint::{decompose_views, reassemble_region, DType, StateDict, Tensor, Value};
///
/// let mut sd = StateDict::new();
/// sd.insert("w", Value::Tensor(Tensor::from_bytes(DType::U8, &[3], vec![7, 8, 9])?));
/// let (header, views) = decompose_views(&sd);
/// assert_eq!(views, [&[7u8, 8, 9][..]]);
/// // A region is the views head to tail, zero-padded.
/// assert_eq!(reassemble_region(&header, &[7, 8, 9, 0, 0])?, sd);
/// # Ok::<(), ecc_checkpoint::CheckpointError>(())
/// ```
pub fn decompose_views(sd: &StateDict) -> (Vec<u8>, Vec<&[u8]>) {
    let mut w = Writer::default();
    w.dict(sd);
    let mut header = Vec::with_capacity(10 + w.keys.len() + w.skeleton.len());
    write_varint(w.views.len() as u64, &mut header);
    header.extend_from_slice(&w.keys);
    header.extend_from_slice(&w.skeleton);
    (header, w.views)
}

/// Inverse of [`decompose_views`]: rebuilds the `state_dict` whose
/// tensors lie head to tail at the front of `region` (padding after them
/// is ignored). The header's sizes are held to the region before any
/// tensor is allocated; each tensor is then copied out of it once.
///
/// # Errors
///
/// Returns a [`CheckpointError`] on a malformed header, and
/// [`CheckpointError::ExtentOutOfRange`] when the header names more
/// tensor bytes than `region` holds.
pub fn reassemble_region(header: &[u8], region: &[u8]) -> Result<StateDict, CheckpointError> {
    let (table, skeleton) = KeyTable::read(header, |_, _| {})?;
    let total = table.entries.iter().try_fold(0usize, |sum, entry| sum.checked_add(entry.len));
    if total.is_none_or(|total| total > region.len()) {
        return Err(CheckpointError::ExtentOutOfRange {
            detail: format!("the header's tensors do not fit its {}-byte region", region.len()),
        });
    }
    let mut rest = region;
    let slots = table.entries.iter().map(|entry| {
        let (tensor, tail) = rest.split_at(entry.len);
        rest = tail;
        Some(tensor)
    });
    table.fill_dict(skeleton, slots.collect())
}

/// The one walk of a borrowed `state_dict`: each tensor's key entry
/// goes to `keys`, each skeleton record to `skeleton`, each tensor's
/// bytes to `views`.
#[derive(Default)]
struct Writer<'a> {
    keys: Vec<u8>,
    skeleton: Vec<u8>,
    views: Vec<&'a [u8]>,
}

impl<'a> Writer<'a> {
    fn value(&mut self, value: &'a Value) {
        match value {
            Value::Tensor(t) => {
                self.keys.push(t.dtype().tag());
                write_varint(t.shape().len() as u64, &mut self.keys);
                for &d in t.shape() {
                    write_varint(d as u64, &mut self.keys);
                }
                self.skeleton.push(SKEL_TENSOR);
                write_varint(self.views.len() as u64, &mut self.skeleton);
                self.views.push(t.bytes());
            }
            Value::List(items) => {
                self.skeleton.push(SKEL_LIST);
                write_varint(items.len() as u64, &mut self.skeleton);
                for item in items {
                    self.value(item);
                }
            }
            Value::Dict(d) => self.dict(d),
            leaf => {
                self.skeleton.push(SKEL_LEAF);
                write_value(leaf, &mut self.skeleton);
            }
        }
    }

    fn dict(&mut self, d: &'a StateDict) {
        self.skeleton.push(SKEL_DICT);
        write_varint(d.len() as u64, &mut self.skeleton);
        for (k, v) in d.iter() {
            write_varint(k.len() as u64, &mut self.skeleton);
            self.skeleton.extend_from_slice(k.as_bytes());
            self.value(v);
        }
    }
}

/// One tensor of a header's key table: its dtype, the range of its shape
/// in [`KeyTable::dims`], and its byte length.
struct KeyEntry {
    dtype: DType,
    shape: Range<usize>,
    len: usize,
}

/// A header's key table, read flat.
struct KeyTable {
    entries: Vec<KeyEntry>,
    dims: Vec<usize>,
}

impl KeyTable {
    /// Reads the key table at the front of `header`, handing each
    /// tensor's dtype and shape to `key`, and leaves the cursor at the
    /// skeleton. A shape is held to what `Tensor::from_bytes`
    /// multiplies, in the same order.
    fn read(
        header: &[u8],
        mut key: impl FnMut(DType, &[usize]),
    ) -> Result<(Self, Cursor<'_>), CheckpointError> {
        let mut c = Cursor::new(header);
        let n = c.varint()? as usize;
        let mut table = Self { entries: Vec::with_capacity(n.min(header.len())), dims: Vec::new() };
        for i in 0..n {
            let tag = c.u8()?;
            let dtype = DType::from_tag(tag).ok_or(CheckpointError::BadTag { tag })?;
            let start = table.dims.len();
            for _ in 0..c.varint()? {
                table.dims.push(c.varint()? as usize);
            }
            let shape = &table.dims[start..];
            let numel = shape.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
            let len = numel.and_then(|n| n.checked_mul(dtype.size())).ok_or_else(|| {
                CheckpointError::BadTensor {
                    detail: format!(
                        "tensor {i}: shape {shape:?} of {dtype} overflows a byte count"
                    ),
                }
            })?;
            key(dtype, shape);
            table.entries.push(KeyEntry { dtype, shape: start..table.dims.len(), len });
        }
        Ok((table, c))
    }

    /// [`Self::build_dict`] copying tensor `i` out of `slots[i]` once; a
    /// second ref to it gets an empty buffer, which `Tensor::from_bytes`
    /// refuses unless the tensor is empty.
    fn fill_dict(
        &self,
        c: Cursor<'_>,
        mut slots: Vec<Option<&[u8]>>,
    ) -> Result<StateDict, CheckpointError> {
        self.build_dict(c, &mut |i, entry| {
            let bytes =
                slots.get_mut(i).and_then(Option::take).map_or_else(Vec::new, <[u8]>::to_vec);
            let shape = &self.dims[entry.shape.clone()];
            Ok(Value::Tensor(Tensor::from_bytes(entry.dtype, shape, bytes)?))
        })
    }

    /// Reads the skeleton at `c` into the `state_dict` it describes, each
    /// tensor ref `i` (held to the table) built by `tensor(i, entry)`.
    fn build_dict(
        &self,
        mut c: Cursor<'_>,
        tensor: &mut dyn FnMut(usize, &KeyEntry) -> Result<Value, CheckpointError>,
    ) -> Result<StateDict, CheckpointError> {
        let detail = match self.node(&mut c, tensor)? {
            Value::Dict(d) if c.at_end() => return Ok(d),
            Value::Dict(_) => "trailing bytes after skeleton",
            _ => "top-level skeleton is not a dict",
        };
        Err(CheckpointError::Reassembly { detail: detail.to_string() })
    }

    fn node(
        &self,
        c: &mut Cursor<'_>,
        tensor: &mut dyn FnMut(usize, &KeyEntry) -> Result<Value, CheckpointError>,
    ) -> Result<Value, CheckpointError> {
        match c.u8()? {
            SKEL_LEAF => read_value(c),
            SKEL_TENSOR => {
                let i = c.varint()? as usize;
                let entry = self.entries.get(i).ok_or_else(|| CheckpointError::Reassembly {
                    detail: format!("tensor ref {i} out of range ({} tensors)", self.entries.len()),
                })?;
                tensor(i, entry)
            }
            SKEL_LIST => read_list(c, |c| self.node(c, tensor)).map(Value::List),
            SKEL_DICT => read_dict(c, |c| self.node(c, tensor)).map(Value::Dict),
            tag => Err(CheckpointError::BadTag { tag }),
        }
    }
}

/// The header's key table as owned [`TensorKey`]s, read flat, and its skeleton.
fn tensor_keys(header: &[u8]) -> Result<(Vec<TensorKey>, KeyTable, Cursor<'_>), CheckpointError> {
    let mut keys = Vec::new();
    let (table, skeleton) = KeyTable::read(header, |dtype, shape| {
        keys.push(TensorKey { dtype, shape: shape.to_vec() });
    })?;
    Ok((keys, table, skeleton))
}

impl Decomposition {
    /// The extracted tensor keys, in deterministic DFS order.
    pub fn tensor_keys(&self) -> &[TensorKey] {
        &self.keys
    }

    /// The raw tensor data buffers, parallel to [`Self::tensor_keys`].
    pub fn tensor_data(&self) -> &[Vec<u8>] {
        &self.data
    }

    /// Total bytes of tensor data (the >99.99% component).
    pub fn tensor_bytes(&self) -> usize {
        self.data.iter().map(Vec::len).sum()
    }

    /// Size of the serialized header ([`Self::header_to_bytes`]): the
    /// non-tensor key-values plus tensor keys — the small broadcast
    /// payload of protocol step 2.
    pub fn header_bytes(&self) -> usize {
        self.header.len()
    }

    /// Replaces the tensor data buffers (e.g. with buffers decoded during
    /// recovery).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Reassembly`] when the buffer count or
    /// any buffer length disagrees with the tensor keys.
    pub fn set_tensor_data(&mut self, data: Vec<Vec<u8>>) -> Result<(), CheckpointError> {
        if data.len() != self.keys.len() {
            return Err(CheckpointError::Reassembly {
                detail: format!("expected {} tensor buffers, got {}", self.keys.len(), data.len()),
            });
        }
        for (i, (key, buf)) in self.keys.iter().zip(&data).enumerate() {
            if key.byte_len() != buf.len() {
                return Err(CheckpointError::Reassembly {
                    detail: format!(
                        "tensor {i} expects {} bytes, buffer has {}",
                        key.byte_len(),
                        buf.len()
                    ),
                });
            }
        }
        self.data = data;
        Ok(())
    }

    /// The serialized skeleton and tensor keys (no tensor data) — what
    /// ECCheck broadcasts to all workers in protocol step 2.
    pub fn header_to_bytes(&self) -> Vec<u8> {
        self.header.clone()
    }

    /// Parses a broadcast header's tensor keys into a decomposition
    /// whose tensor buffers are zero-filled placeholders of the right
    /// lengths — the state of a recovering node before decoded data
    /// arrives. Follow with [`Decomposition::set_tensor_data`]. It
    /// allocates what the header names; a caller holding the region the
    /// tensors lie in uses [`reassemble_region`], which holds the header
    /// to it first.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] on a malformed header.
    pub fn from_header(header: &[u8]) -> Result<Self, CheckpointError> {
        let (keys, table, skeleton) = tensor_keys(header)?;
        // Read the skeleton through, tensors as empty lists, to refuse a malformed one.
        table.build_dict(skeleton, &mut |_, _| Ok(Value::List(Vec::new())))?;
        let data = keys.iter().map(|k| vec![0u8; k.byte_len()]).collect();
        Ok(Self { header: header.to_vec(), keys, data })
    }

    /// Rebuilds the original `state_dict`, bit-exact including key order.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] on a malformed header, or when a
    /// tensor is referenced twice.
    pub fn reassemble(&self) -> Result<StateDict, CheckpointError> {
        let (table, skeleton) = KeyTable::read(&self.header, |_, _| {})?;
        table.fill_dict(skeleton, self.data.iter().map(|d| Some(d.as_slice())).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DType, Tensor};

    fn sample_dict() -> StateDict {
        let mut opt_state = StateDict::new();
        opt_state.insert("step", Value::Int(128));
        opt_state.insert("exp_avg", Value::Tensor(Tensor::zeros(DType::F32, &[4, 4])));
        opt_state.insert("exp_avg_sq", Value::Tensor(Tensor::zeros(DType::F32, &[4, 4])));
        let mut sd = StateDict::new();
        sd.insert("iteration", Value::Int(1000));
        sd.insert("version", Value::Str("megatron-0.4".into()));
        sd.insert(
            "model",
            Value::Dict(
                vec![(
                    "weight".to_string(),
                    Value::Tensor(
                        Tensor::from_bytes(DType::F16, &[3], vec![1, 2, 3, 4, 5, 6]).unwrap(),
                    ),
                )]
                .into_iter()
                .collect(),
            ),
        );
        sd.insert("optimizer", Value::Dict(opt_state));
        sd.insert("rng", Value::Bytes(vec![9u8; 32]));
        sd.insert(
            "mixed",
            Value::List(vec![
                Value::Int(1),
                Value::Tensor(Tensor::zeros(DType::I64, &[2])),
                Value::Bool(true),
            ]),
        );
        sd
    }

    #[test]
    fn decompose_extracts_tensors_in_dfs_order() {
        let sd = sample_dict();
        let d = decompose(&sd);
        let keys: Vec<(DType, &[usize])> =
            d.tensor_keys().iter().map(|k| (k.dtype(), k.shape())).collect();
        assert_eq!(
            keys,
            [
                (DType::F16, &[3][..]),
                (DType::F32, &[4, 4]),
                (DType::F32, &[4, 4]),
                (DType::I64, &[2])
            ]
        );
        assert_eq!(d.tensor_bytes(), 6 + 64 + 64 + 16);
    }

    #[test]
    fn reassemble_is_exact_inverse() {
        let sd = sample_dict();
        let d = decompose(&sd);
        assert_eq!(d.reassemble().unwrap(), sd);
    }

    #[test]
    fn header_round_trips_with_data() {
        let sd = sample_dict();
        let d = decompose(&sd);
        let mut rebuilt = Decomposition::from_header(&d.header_to_bytes()).unwrap();
        assert_eq!(rebuilt.tensor_bytes(), d.tensor_bytes(), "zero-filled placeholders");
        rebuilt.set_tensor_data(d.tensor_data().to_vec()).unwrap();
        assert_eq!(rebuilt.reassemble().unwrap(), sd);
    }

    #[test]
    fn header_is_small_relative_to_tensor_data() {
        // The paper reports header components are < 0.001% for GPT2-345M;
        // at our test scale just assert the header excludes tensor bytes.
        let sd = sample_dict();
        let d = decompose(&sd);
        assert!(d.header_bytes() < 400);
        assert!(d.tensor_bytes() > 100);
    }

    #[test]
    fn set_tensor_data_validates_count_and_lengths() {
        let sd = sample_dict();
        let mut d = decompose(&sd);
        assert!(d.set_tensor_data(vec![vec![0u8; 1]]).is_err());
        let mut wrong = d.tensor_data().to_vec();
        wrong[0].push(0);
        assert!(d.set_tensor_data(wrong).is_err());
        let ok = d.tensor_data().to_vec();
        assert!(d.set_tensor_data(ok).is_ok());
    }

    #[test]
    fn replaced_data_appears_in_reassembly() {
        let mut sd = StateDict::new();
        sd.insert("w", Value::Tensor(Tensor::zeros(DType::U8, &[4])));
        let mut d = decompose(&sd);
        d.set_tensor_data(vec![vec![9, 8, 7, 6]]).unwrap();
        let back = d.reassemble().unwrap();
        match back.get("w").unwrap() {
            Value::Tensor(t) => assert_eq!(t.bytes(), &[9, 8, 7, 6]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn corrupt_header_is_rejected() {
        let sd = sample_dict();
        let d = decompose(&sd);
        let header = d.header_to_bytes();
        for cut in [0usize, 1, header.len() / 2, header.len() - 1] {
            assert!(Decomposition::from_header(&header[..cut]).is_err(), "cut at {cut} accepted");
        }
        let mut trailing = header.clone();
        trailing.push(0);
        assert!(Decomposition::from_header(&trailing).is_err(), "trailing byte accepted");
        let mut leaf_root = vec![0, SKEL_LEAF];
        write_value(&Value::Int(1), &mut leaf_root);
        assert!(Decomposition::from_header(&leaf_root).is_err(), "non-dict root accepted");
    }

    #[test]
    fn views_carry_the_owned_header_and_round_trip_through_a_region() {
        for sd in [sample_dict(), StateDict::new()] {
            let owned = decompose(&sd);
            let (header, views) = decompose_views(&sd);
            assert_eq!(header, owned.header_to_bytes());
            assert_eq!(views, owned.tensor_data().iter().map(Vec::as_slice).collect::<Vec<_>>());
            let mut region = views.concat();
            assert_eq!(reassemble_region(&header, &region).unwrap(), sd, "exact fit");
            region.resize(region.len() + 64, 0);
            assert_eq!(reassemble_region(&header, &region).unwrap(), sd, "padded");
            if let Some(short) = owned.tensor_bytes().checked_sub(1) {
                assert!(matches!(
                    reassemble_region(&header, &region[..short]),
                    Err(CheckpointError::ExtentOutOfRange { .. })
                ));
            }
        }
    }

    /// The header of `{"w": tensor 0}` over one `U8` tensor key per
    /// given shape.
    fn forged_header(shapes: &[&[u64]]) -> Vec<u8> {
        let mut out = vec![shapes.len() as u8];
        for shape in shapes {
            out.extend_from_slice(&[DType::U8.tag(), shape.len() as u8]);
            for &d in *shape {
                write_varint(d, &mut out);
            }
        }
        out.extend_from_slice(&[SKEL_DICT, 1, 1, b'w', SKEL_TENSOR, 0]);
        out
    }

    #[test]
    fn untrusted_shapes_are_refused_before_anything_is_allocated() {
        assert!(reassemble_region(&forged_header(&[&[4]]), &[1, 2, 3, 4]).is_ok());
        // A product that wraps `usize` never becomes a key ...
        for shape in [&[1 << 33, 1 << 33][..], &[u64::MAX, 2], &[1 << 62, 1 << 62, 0]] {
            assert!(matches!(
                Decomposition::from_header(&forged_header(&[shape])),
                Err(CheckpointError::BadTensor { .. })
            ));
        }
        // ... and one that fits but names a tebibyte is held to the
        // region, as is a sum of tensors that wraps.
        for shapes in [&[&[1 << 40][..]][..], &[&[u64::MAX], &[u64::MAX]]] {
            assert!(matches!(
                reassemble_region(&forged_header(shapes), &[0u8; 64]),
                Err(CheckpointError::ExtentOutOfRange { .. })
            ));
        }
    }

    #[test]
    fn a_tensor_referenced_twice_is_refused() {
        let mut header = forged_header(&[&[4]]);
        header.truncate(header.len() - 6);
        header.extend_from_slice(&[SKEL_DICT, 2, 1, b'w', SKEL_TENSOR, 0, 1, b'v', SKEL_TENSOR, 0]);
        assert!(matches!(
            reassemble_region(&header, &[1, 2, 3, 4]),
            Err(CheckpointError::BadTensor { .. })
        ));
    }

    #[test]
    fn empty_dict_decomposes() {
        let sd = StateDict::new();
        let d = decompose(&sd);
        assert!(d.tensor_keys().is_empty());
        assert_eq!(d.reassemble().unwrap(), sd);
    }

    #[test]
    fn tensor_only_dict_has_tiny_header() {
        let mut sd = StateDict::new();
        sd.insert("t", Value::Tensor(Tensor::zeros(DType::F32, &[1024])));
        let d = decompose(&sd);
        assert!(d.header_bytes() < 64);
        assert_eq!(d.tensor_bytes(), 4096);
    }
}
