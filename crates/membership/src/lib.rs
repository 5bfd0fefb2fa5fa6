//! Elastic membership and the placement control plane.
//!
//! ECCheck's evaluation (and the core engine's `ClusterSpec`) assume a
//! fixed set of `n = k + m` nodes, but the §II-B failure model is
//! exactly what real fleets violate continuously: nodes crash, get
//! drained for maintenance, and come back as fresh (empty) processes.
//! This crate closes that gap with a *placement controller* in the
//! style of a placement center (cf. robustmq's `storage_cluster`): a
//! control-plane authority that owns
//!
//! - the **[`MembershipTable`]** — the authoritative node registry:
//!   one entry per cluster slot, tracking the slot's *incarnation*
//!   (bumped every time a replacement process takes the slot over) and
//!   lifecycle state ([`MemberState`]: active → leaving/dead → joining
//!   → active);
//! - the **[`ShardMap`]** — the epoch-versioned record of which slot
//!   incarnation holds which erasure-code chunk, derived from the
//!   paper's sweep-line placement (§IV-B-1) and advanced only by a
//!   verified rebalance;
//! - the **[`PlacementController`]** — the reconciliation loop that
//!   consumes `HealthRegistry::transitions_since` to detect dead
//!   nodes, admits replacements, and drives **online re-encoding**.
//!
//! # The rebalance protocol
//!
//! On membership change the controller recomputes the sweep-line
//! placement, diffs the shard map against it ([`ShardMap::diff`]), and
//! builds a [`RebalancePlan`] containing one [`Move`] per chunk whose
//! assignment actually changed — everything else stays put. A move is
//!
//! - [`Move::Copy`] when the outgoing incarnation's bytes are still
//!   readable (a graceful leave staged them): pure byte transfer,
//!   `~2·chunk` traffic;
//! - [`Move::Rebuild`] when they are gone (a crash): the chunk is
//!   reconstructed from any `k` intact survivors — by
//!   [`eccheck::store::repair_version`], the repair a restore runs,
//!   which compares the rebuilt chunk with its manifest entry before
//!   it stores it. Thanks to the
//!   GF-linearity of the Cauchy Reed–Solomon code, a lost *parity*
//!   chunk whose `k` data chunks all survive is **patched** by
//!   re-encoding just that one chunk — the other `m − 1` parity
//!   chunks are never touched, let alone re-distributed.
//!
//! The placement epoch bumps **only after** the m-fault guarantee has
//! been re-verified on the new layout (every chunk present, checksum
//! valid, on its own alive slot); a failed verification leaves the
//! epoch — and thus every engine's view of the world — unchanged.
//! Chunk migration traffic per rebalance is measured and reported
//! against the naive full-re-encode bound: re-encoding from scratch
//! would re-read the full data set (`k` chunks), re-distribute every
//! parity chunk (`m·s·W` bytes), and re-write each churned data slot
//! — `(k + m + d)·chunk` in total — while the plan moves only what
//! churned, so `chunk_bytes <= bound_bytes` at every commit.
//!
//! # Example
//!
//! ```
//! use ecc_cluster::{Cluster, ClusterSpec};
//! use ecc_membership::PlacementController;
//! use eccheck::EcCheckConfig;
//!
//! let spec = ClusterSpec::tiny_test(4, 2);
//! let mut cluster = Cluster::new(spec);
//! let config = EcCheckConfig::paper_defaults().with_packet_size(256);
//! let mut ctl = PlacementController::new(&spec, &config)?;
//! assert_eq!(ctl.epoch(), 0);
//!
//! // Node 2 crashes and a replacement process takes over its slot.
//! cluster.fail_node(2);
//! ctl.force_dead(2);
//! cluster.replace_node(2);
//! ctl.join(2)?;
//!
//! // No checkpoints stored yet, so the rebalance has nothing to move —
//! // but it still verifies the layout and commits a new epoch.
//! let report = ctl.rebalance(&mut cluster)?;
//! assert_eq!(report.epoch, 1);
//! assert_eq!(report.migrated_bytes, 0);
//! # Ok::<(), ecc_membership::MembershipError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod controller;
mod error;
mod shardmap;
mod table;

pub use controller::{Move, PlacementController, RebalancePlan, RebalanceReport};
pub use error::MembershipError;
pub use shardmap::{ShardEntry, ShardMap};
pub use table::{MemberState, MembershipTable, NodeInfo};
