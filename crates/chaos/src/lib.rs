//! Deterministic fault injection for the ECCheck data plane.
//!
//! The ECCheck engine promises that any `m` concurrent node failures
//! are survivable (paper §II-B, §III). This crate exists to *attack*
//! that promise, deterministically, so every violation is a
//! reproducible test failure rather than a flaky one:
//!
//! * [`ChaosPlane`] wraps any [`ecc_cluster::DataPlane`] and injects
//!   seeded faults at the blob-storage boundary: node crashes (including
//!   crashes scheduled to strike mid-`save` or mid-`load`), dropped and
//!   duplicated P2P transfers, bit-flip corruption of stored chunks and
//!   manifest records, and transiently-failing `get_local` reads. Every injected
//!   fault is logged as a [`FaultRecord`] and surfaced through telemetry
//!   counters and trace instants.
//! * [`scenario`] schedules faults over whole recovery rounds on top of
//!   `ecc_cluster::{FailureModel, FailureScenario}` — independent
//!   per-node failures, correlated group failures (a rack or a PDU
//!   taking its nodes down together), and failure-during-recovery.
//! * [`campaign`] runs seeded randomized save/fault/load rounds against
//!   a real engine and checks the paper's contract on every round:
//!   at most `m` chunk-class faults must round-trip **bit-exactly**;
//!   more than `m` must fail with a clean
//!   [`eccheck::EcCheckError::Unrecoverable`] — never garbage state.
//! * [`churn`] attacks the *elastic* half of the contract: rounds of
//!   node drains, crashes, and replacement joins driven through an
//!   `ecc_membership::PlacementController`, asserting that the m-fault
//!   guarantee holds at every instant, placement epochs stay strictly
//!   monotone, stale engines are fenced, and chunk migration traffic
//!   never exceeds the naive full-re-encode bound.
//!
//! # Examples
//!
//! ```
//! use ecc_chaos::{ChaosConfig, ChaosPlane};
//! use ecc_cluster::{Cluster, ClusterSpec, DataPlane};
//!
//! let inner = Cluster::new(ClusterSpec::tiny_test(4, 1));
//! let mut chaos = ChaosPlane::new(inner, ChaosConfig::quiet(7));
//! chaos.put_local(0, "blob", vec![1, 2, 3])?;
//!
//! // A chaos crash loses the node's (volatile) blobs, like a real
//! // power failure; the inner cluster itself is untouched.
//! chaos.crash_now(0);
//! assert!(!chaos.alive(0));
//! chaos.heal(0);
//! assert!(chaos.alive(0));
//! assert!(chaos.get_local(0, "blob").is_none());
//! # Ok::<(), ecc_cluster::ClusterError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod churn;
mod plane;
pub mod scenario;

pub use campaign::{
    campaign_slos, run_campaign, run_campaign_observed, run_campaign_on_plane, run_tiered_campaign,
    CampaignConfig, CampaignReport, RoundOutcome, RoundResult,
};
pub use churn::{run_churn_campaign, ChurnConfig, ChurnReport, ChurnRound};
pub use plane::{ChaosConfig, ChaosPlane, FaultKind, FaultRecord, FetchRecord, Tier};
pub use scenario::{ChaosEvent, ScenarioSchedule};
