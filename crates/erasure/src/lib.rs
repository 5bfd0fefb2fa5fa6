//! Erasure coding for the ECCheck reproduction.
//!
//! ECCheck (paper §IV-A) encodes in-memory checkpoints with a *Cauchy
//! Reed–Solomon* code whose generator matrix is expanded into a binary
//! bit-matrix so that encoding and decoding are pure XOR operations, and
//! accelerates region coding with a CPU thread pool. This crate implements
//! the full stack from scratch:
//!
//! * [`cauchy`] — Cauchy generator matrices over GF(2^w), including the
//!   Jerasure-style "good" normalisation that minimises the number of ones
//!   in the bit-matrix (fewer ones = fewer XORs).
//! * [`vandermonde`] — classic systematic Vandermonde generators, kept as
//!   the comparison point for the coding-scheme ablation bench.
//! * [`XorSchedule`] — dumb and smart XOR operation schedules derived from
//!   a bit-matrix.
//! * [`ErasureCode`] — systematic encode of `k` data chunks into `m`
//!   parity chunks, and any-k decode, over real byte regions.
//! * [`stripes`] — the paper's thread-pool technique: the stripe rule and
//!   the one executor whose workers take stripes off a shared queue. The
//!   save runs on it, and so does [`CodingPool`], a whole encode or decode
//!   coded stripe by stripe.
//!
//! # Examples
//!
//! ```
//! use ecc_erasure::{CodeParams, ErasureCode};
//!
//! let code = ErasureCode::cauchy_good(CodeParams::new(2, 2, 8)?)?;
//! let d0 = vec![7u8; 64];
//! let d1 = vec![9u8; 64];
//! let parity = code.encode(&[&d0, &d1])?;
//!
//! // Lose both data chunks; recover from the two parity chunks.
//! let shards: Vec<Option<&[u8]>> =
//!     vec![None, None, Some(&parity[0][..]), Some(&parity[1][..])];
//! let recovered = code.decode(&shards)?;
//! assert_eq!(recovered[0], d0);
//! assert_eq!(recovered[1], d1);
//! # Ok::<(), ecc_erasure::ErasureError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cauchy;
mod code;
mod error;
#[cfg(test)]
mod fused_equiv_prop;
mod params;
mod pool;
pub mod region;
mod schedule;
pub mod stripes;
pub mod vandermonde;

pub use code::ErasureCode;
pub use error::ErasureError;
pub use params::CodeParams;
pub use pool::CodingPool;
pub use region::{MulTable, MulTable16};
pub use schedule::{FusedChain, FusedSchedule, ScheduleKind, SubPacket, XorOp, XorSchedule};
