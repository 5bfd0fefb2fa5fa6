//! Real TCP transport for the ECCheck data plane.
//!
//! Everything else in this workspace simulates a cluster inside one
//! process. This crate makes the data plane *real*: a checkpoint
//! server ([`CheckpointServer`]) hosts any [`ecc_cluster::DataPlane`]
//! behind a socket, and a client ([`RemotePlane`]) implements that
//! same trait over the wire — so the ECCheck engine saves in one OS
//! process and restores bit-exactly in another with zero engine
//! changes. That is only possible because `DataPlane::get_local` /
//! `get_remote` return owned bytes: a borrowed `&[u8]` cannot
//! outlive a socket read.
//!
//! The wire protocol ([`codec`]) is a length-prefixed binary framing
//! with per-blob CRC trailers (reusing `ecc_checkpoint`'s checksum
//! frames). The codec streams: a blob is written from its own buffer
//! and read into the one its receiver keeps, with no frame-sized copy
//! in between. It is hardened against hostile input: oversized length
//! prefixes are rejected before allocation, every field is read under
//! the frame's byte budget, truncated or trailing-garbage frames and
//! unknown tags read as structured [`WireError`]s, and nothing in the
//! read path panics.
//!
//! The protocol also carries the elastic-membership control plane:
//! `Join`, `Leave`, and `GetPlacement` ops let processes enter and
//! drain cluster slots at runtime. Serve a [`MembershipPlane`] to
//! accept them — it drives an `ecc_membership::PlacementController`
//! that migrates only the churned chunks, re-verifies the m-fault
//! guarantee, and commits monotone placement epochs that engines pick
//! up through [`RemotePlane::get_placement`].
//!
//! Like `ecc-obs`, the crate is dependency-free (`std::net` +
//! threads): the crates.io registry is unreachable in this
//! environment, so no async runtime, serde, or protobuf.
//!
//! # Examples
//!
//! ```
//! use ecc_cluster::{Cluster, ClusterSpec, DataPlane};
//! use ecc_net::{CheckpointServer, RemotePlane, ServerConfig};
//!
//! let cluster = Cluster::new(ClusterSpec::tiny_test(2, 1));
//! let server = CheckpointServer::serve(cluster, "127.0.0.1:0", ServerConfig::default())?;
//! let addr = server.local_addr().to_string();
//!
//! let mut plane = RemotePlane::connect(&addr).map_err(|e| std::io::Error::other(e.to_string()))?;
//! plane.put_local(0, "demo", vec![1, 2, 3]).map_err(|e| std::io::Error::other(e.to_string()))?;
//! assert_eq!(plane.get_local(0, "demo"), Some(vec![1, 2, 3]));
//! server.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
pub mod codec;
mod member;
mod server;

pub use client::{ClientConfig, RemotePlane};
pub use codec::{Request, Response, WireError, MAX_FRAME, MAX_KEY};
pub use member::MembershipPlane;
pub use server::{CheckpointServer, PlacementInfo, ServePlane, ServerConfig};
