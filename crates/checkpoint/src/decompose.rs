//! The serialization-free decomposition protocol (paper §III-C, Fig. 8).
//!
//! Step 1 of ECCheck's encoding protocol splits a `state_dict` into three
//! components: non-tensor key-value pairs (a dict of scalars, strings and
//! RNG blobs), tensor keys (paths + dtypes + shapes), and the raw tensor
//! data. Only the first two — a few tens of kilobytes — are ever
//! serialized and broadcast; the gigabytes of tensor data flow into the
//! erasure coder as contiguous memory, untouched.
//!
//! [`decompose`] performs the split into an owned [`Decomposition`];
//! [`Decomposition::reassemble`] inverts it bit-exactly (including
//! dictionary insertion order). The engine's pair borrows on the way in
//! and moves on the way out: [`decompose_views`] returns the header and
//! tensor *views* into the caller's `state_dict`, [`reassemble_region`]
//! turns a header and the region those tensors were laid into back into
//! a `state_dict`, copying each tensor byte once.

use crate::serialize::{read_value, write_value, write_varint, Cursor};
use crate::{CheckpointError, DType, StateDict, Tensor, Value};

const SKEL_LEAF: u8 = 0x10;
const SKEL_TENSOR: u8 = 0x11;
const SKEL_LIST: u8 = 0x12;
const SKEL_DICT: u8 = 0x13;

/// Path, dtype and shape of one tensor extracted from a `state_dict` —
/// an entry of the protocol's "tensor keys" list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TensorKey {
    path: String,
    dtype: DType,
    shape: Vec<usize>,
}

impl TensorKey {
    /// Dot/bracket path of the tensor inside the `state_dict`
    /// (e.g. `optimizer.state[0].exp_avg`).
    pub fn path(&self) -> &str {
        &self.path
    }

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

/// Structure of a `state_dict` with tensor data lifted out.
#[derive(Debug, Clone, PartialEq)]
enum Skeleton {
    /// A non-tensor value kept in place.
    Leaf(Value),
    /// The `i`-th extracted tensor.
    TensorRef(usize),
    /// An ordered list of children.
    List(Vec<Skeleton>),
    /// An ordered dictionary of children.
    Dict(Vec<(String, Skeleton)>),
}

/// The three components of the serialization-free protocol.
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
/// assert_eq!(d.tensor_keys()[0].path(), "w");
/// assert_eq!(d.tensor_bytes(), 16);
/// assert_eq!(d.reassemble()?, sd);
/// # Ok::<(), ecc_checkpoint::CheckpointError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Decomposition {
    skeleton: Skeleton,
    keys: Vec<TensorKey>,
    data: Vec<Vec<u8>>,
}

/// Splits a `state_dict` into non-tensor structure, tensor keys, and raw
/// tensor data (DFS order, deterministic).
pub fn decompose(sd: &StateDict) -> Decomposition {
    let mut split = Split::default();
    let skeleton = split.dict(sd, "");
    let data = split.views.iter().map(|view| view.to_vec()).collect();
    Decomposition { skeleton, keys: split.keys, data }
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
    let mut split = Split::default();
    let skeleton = split.dict(sd, "");
    let header = Decomposition { skeleton, keys: split.keys, data: Vec::new() }.header_to_bytes();
    (header, split.views)
}

/// Inverse of [`decompose_views`]: rebuilds the `state_dict` whose
/// tensors lie head to tail at the front of `region` (padding after them
/// is ignored). The header's sizes are held to the region before
/// anything is allocated; each tensor is then sliced out once and its
/// buffer moved into place.
///
/// # Errors
///
/// Returns a [`CheckpointError`] on a malformed header, and
/// [`CheckpointError::ExtentOutOfRange`] when the header names more
/// tensor bytes than `region` holds.
pub fn reassemble_region(header: &[u8], region: &[u8]) -> Result<StateDict, CheckpointError> {
    let mut d = Decomposition::parse_header(header)?;
    let total = d.keys.iter().try_fold(0usize, |sum, key| sum.checked_add(key.byte_len()));
    if total.is_none_or(|total| total > region.len()) {
        return Err(CheckpointError::ExtentOutOfRange {
            detail: format!("the header's tensors do not fit its {}-byte region", region.len()),
        });
    }
    let mut rest = region;
    for key in &d.keys {
        let (tensor, tail) = rest.split_at(key.byte_len());
        d.data.push(tensor.to_vec());
        rest = tail;
    }
    rebuild_dict(d.skeleton, &d.keys, &mut d.data)
}

/// One DFS walk over a borrowed `state_dict`: the tensor keys and a view
/// of each tensor's bytes, in the order the skeleton refers to them.
#[derive(Default)]
struct Split<'a> {
    keys: Vec<TensorKey>,
    views: Vec<&'a [u8]>,
}

impl<'a> Split<'a> {
    fn value(&mut self, value: &'a Value, path: String) -> Skeleton {
        match value {
            Value::Tensor(t) => {
                self.keys.push(TensorKey { path, dtype: t.dtype(), shape: t.shape().to_vec() });
                self.views.push(t.bytes());
                Skeleton::TensorRef(self.keys.len() - 1)
            }
            Value::List(items) => Skeleton::List(
                items
                    .iter()
                    .enumerate()
                    .map(|(i, v)| self.value(v, format!("{path}[{i}]")))
                    .collect(),
            ),
            Value::Dict(d) => self.dict(d, &path),
            other => Skeleton::Leaf(other.clone()),
        }
    }

    fn dict(&mut self, d: &'a StateDict, path: &str) -> Skeleton {
        Skeleton::Dict(
            d.iter()
                .map(|(k, v)| {
                    let child_path =
                        if path.is_empty() { k.to_string() } else { format!("{path}.{k}") };
                    (k.to_string(), self.value(v, child_path))
                })
                .collect(),
        )
    }
}

/// Rebuilds the `state_dict` under `skeleton`, moving each tensor's
/// buffer out of `data` into its [`Tensor`].
fn rebuild_dict(
    skeleton: Skeleton,
    keys: &[TensorKey],
    data: &mut [Vec<u8>],
) -> Result<StateDict, CheckpointError> {
    match rebuild(skeleton, keys, data)? {
        Value::Dict(d) => Ok(d),
        _ => Err(CheckpointError::Reassembly {
            detail: "top-level skeleton is not a dict".to_string(),
        }),
    }
}

fn rebuild(
    skel: Skeleton,
    keys: &[TensorKey],
    data: &mut [Vec<u8>],
) -> Result<Value, CheckpointError> {
    Ok(match skel {
        Skeleton::Leaf(v) => v,
        Skeleton::TensorRef(i) => {
            let (key, buf) = keys.get(i).zip(data.get_mut(i)).ok_or_else(|| {
                CheckpointError::Reassembly { detail: format!("tensor {i} has no key or no data") }
            })?;
            // A tensor referenced twice finds its buffer already moved,
            // which `from_bytes` refuses as a length mismatch.
            Value::Tensor(Tensor::from_bytes(key.dtype, &key.shape, std::mem::take(buf))?)
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
        self.header_to_bytes().len()
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
                        "tensor {i} ({}) expects {} bytes, buffer has {}",
                        key.path(),
                        key.byte_len(),
                        buf.len()
                    ),
                });
            }
        }
        self.data = data;
        Ok(())
    }

    /// Serializes the skeleton and tensor keys (no tensor data) — what
    /// ECCheck broadcasts to all workers in protocol step 2.
    pub fn header_to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        write_varint(self.keys.len() as u64, &mut out);
        for key in &self.keys {
            write_varint(key.path.len() as u64, &mut out);
            out.extend_from_slice(key.path.as_bytes());
            out.push(key.dtype.tag());
            write_varint(key.shape.len() as u64, &mut out);
            for &d in &key.shape {
                write_varint(d as u64, &mut out);
            }
        }
        write_skeleton(&self.skeleton, &mut out);
        out
    }

    /// Parses a broadcast header into a decomposition whose tensor
    /// buffers are zero-filled placeholders of the right lengths — the
    /// state of a recovering node before decoded data arrives. Follow
    /// with [`Decomposition::set_tensor_data`]. It allocates what the
    /// header names; a caller holding the region the tensors lie in
    /// uses [`reassemble_region`], which holds the header to it first.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] on malformed headers.
    pub fn from_header(header: &[u8]) -> Result<Self, CheckpointError> {
        let mut d = Self::parse_header(header)?;
        d.data = d.keys.iter().map(|k| vec![0u8; k.byte_len()]).collect();
        Ok(d)
    }

    fn parse_header(header: &[u8]) -> Result<Self, CheckpointError> {
        let mut c = Cursor::new(header);
        let n = c.varint()? as usize;
        let mut keys = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let plen = c.varint()? as usize;
            let path = std::str::from_utf8(c.take(plen)?)
                .map_err(|_| CheckpointError::BadUtf8)?
                .to_string();
            let dtype = DType::from_tag(c.u8()?).ok_or(CheckpointError::BadTag { tag: 0xFF })?;
            let rank = c.varint()? as usize;
            let mut shape = Vec::with_capacity(rank.min(64));
            for _ in 0..rank {
                shape.push(c.varint()? as usize);
            }
            // The shape is untrusted: hold it to what `byte_len` (and
            // `Tensor::from_bytes`) will multiply, in the same order.
            let numel = shape.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
            if numel.and_then(|n| n.checked_mul(dtype.size())).is_none() {
                return Err(CheckpointError::BadTensor {
                    detail: format!("{path}: shape {shape:?} of {dtype} overflows a byte count"),
                });
            }
            keys.push(TensorKey { path, dtype, shape });
        }
        let skeleton = read_skeleton(&mut c, keys.len())?;
        if !c.at_end() {
            return Err(CheckpointError::Reassembly {
                detail: "trailing bytes after skeleton".to_string(),
            });
        }
        Ok(Self { skeleton, keys, data: Vec::new() })
    }

    /// Rebuilds the original `state_dict`, bit-exact including key order.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Reassembly`] when a tensor buffer is
    /// missing or sized inconsistently with its key.
    pub fn reassemble(&self) -> Result<StateDict, CheckpointError> {
        rebuild_dict(self.skeleton.clone(), &self.keys, &mut self.data.clone())
    }
}

fn write_skeleton(skel: &Skeleton, out: &mut Vec<u8>) {
    match skel {
        Skeleton::Leaf(v) => {
            out.push(SKEL_LEAF);
            write_value(v, out);
        }
        Skeleton::TensorRef(i) => {
            out.push(SKEL_TENSOR);
            write_varint(*i as u64, out);
        }
        Skeleton::List(items) => {
            out.push(SKEL_LIST);
            write_varint(items.len() as u64, out);
            for item in items {
                write_skeleton(item, out);
            }
        }
        Skeleton::Dict(entries) => {
            out.push(SKEL_DICT);
            write_varint(entries.len() as u64, out);
            for (k, s) in entries {
                write_varint(k.len() as u64, out);
                out.extend_from_slice(k.as_bytes());
                write_skeleton(s, out);
            }
        }
    }
}

fn read_skeleton(c: &mut Cursor<'_>, n_tensors: usize) -> Result<Skeleton, CheckpointError> {
    match c.u8()? {
        SKEL_LEAF => Ok(Skeleton::Leaf(read_value(c)?)),
        SKEL_TENSOR => {
            let i = c.varint()? as usize;
            if i >= n_tensors {
                return Err(CheckpointError::Reassembly {
                    detail: format!("tensor ref {i} out of range ({n_tensors} tensors)"),
                });
            }
            Ok(Skeleton::TensorRef(i))
        }
        SKEL_LIST => {
            let count = c.varint()? as usize;
            let mut items = Vec::with_capacity(count.min(4096));
            for _ in 0..count {
                items.push(read_skeleton(c, n_tensors)?);
            }
            Ok(Skeleton::List(items))
        }
        SKEL_DICT => {
            let count = c.varint()? as usize;
            let mut entries = Vec::with_capacity(count.min(4096));
            for _ in 0..count {
                let klen = c.varint()? as usize;
                let key = std::str::from_utf8(c.take(klen)?)
                    .map_err(|_| CheckpointError::BadUtf8)?
                    .to_string();
                entries.push((key, read_skeleton(c, n_tensors)?));
            }
            Ok(Skeleton::Dict(entries))
        }
        tag => Err(CheckpointError::BadTag { tag }),
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
        let paths: Vec<&str> = d.tensor_keys().iter().map(TensorKey::path).collect();
        assert_eq!(
            paths,
            vec!["model.weight", "optimizer.exp_avg", "optimizer.exp_avg_sq", "mixed[1]"]
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
            out.extend_from_slice(&[1, b'w', DType::U8.tag(), shape.len() as u8]);
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
