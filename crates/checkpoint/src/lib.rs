//! Checkpoint data structures for the ECCheck reproduction.
//!
//! In distributed DNN training each worker holds a sharded `state_dict` —
//! a nested dictionary of model parameters, optimizer states, RNG states
//! and scalar metadata (paper §II-A). This crate reproduces that world in
//! Rust:
//!
//! * [`StateDict`] / [`Value`] / [`Tensor`] — the checkpoint value tree.
//! * [`serialize`] — a compact binary serializer (the `torch.save`
//!   stand-in used by the remote-storage baselines, and the tool ECCheck
//!   itself applies *only* to the tiny non-tensor components).
//! * [`Decomposition`] — the serialization-free protocol's first step
//!   (paper §III-C): split a `state_dict` into non-tensor key-values,
//!   tensor keys, and raw tensor data, and reassemble it bit-exactly.
//! * [`Packer`] — the fixed-size packet lay-out that turns a worker's
//!   variable-size tensors into the equal-size data packets the erasure
//!   coder consumes: the tensors head to tail, zero-padded.
//! * [`crc32`] / [`crc32_combine`] — the checksum a manifest holds for
//!   every chunk and header, at memory speed where the CPU has a
//!   carry-less multiply; [`checksum_frame`] / [`verify_checksum`] — the
//!   same CRC as the 4-byte frame closing a manifest or a wire message.
//!
//! # Examples
//!
//! ```
//! use ecc_checkpoint::{DType, StateDict, Tensor, Value};
//!
//! let mut sd = StateDict::new();
//! sd.insert("iteration", Value::Int(1200));
//! sd.insert("model.weight", Value::Tensor(Tensor::zeros(DType::F32, &[4, 4])));
//! let d = ecc_checkpoint::decompose(&sd);
//! assert_eq!(d.tensor_keys().len(), 1);
//! let back = d.reassemble()?;
//! assert_eq!(back, sd);
//! # Ok::<(), ecc_checkpoint::CheckpointError>(())
//! ```

// `deny`, not `forbid`: the PCLMULQDQ fold in `checksum::clmul` sits
// behind one scoped `#[allow(unsafe_code)]`; everything else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod checksum;
mod decompose;
mod error;
mod packer;
pub mod serialize;
mod value;

pub use checksum::{checksum_frame, crc32, crc32_combine, crc_kernel, verify_checksum};
pub use decompose::{decompose, decompose_views, reassemble_region, Decomposition, TensorKey};
pub use error::CheckpointError;
pub use packer::{Packer, TensorExtent};
pub use value::{DType, StateDict, Tensor, Value};
