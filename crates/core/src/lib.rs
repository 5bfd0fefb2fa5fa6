//! ECCheck: erasure-coded in-memory checkpointing for distributed DNN
//! training — the reproduction of the paper's core system.
//!
//! ECCheck classifies the `n` training nodes into `k` *data nodes* and
//! `m = n - k` *parity nodes*, packs each worker's sharded `state_dict`
//! into fixed-size packets without serialization, erasure-codes them with
//! a Cauchy Reed–Solomon code, and spreads the resulting chunks so that
//! any `m` concurrent node failures are survivable (paper §III).
//!
//! The public API mirrors the paper's three entry points:
//!
//! * [`EcCheck::initialize`] — chooses the encoding matrix, selects data
//!   and parity nodes with the sweep-line placement (§IV-B-1), plans XOR
//!   reduction targets (§IV-B-2), and sizes the buffer pools.
//! * [`EcCheck::save`] — the checkpoint's first three steps: DtoH
//!   offload, decompose + broadcast headers, pipelined encode →
//!   XOR-reduce → P2P (§III-A, Fig. 5). The fourth, the low-frequency
//!   copy to remote storage, is [`store::drain_version`] — run by an
//!   attached [`Drainer`] or called from the training loop. Nothing
//!   reaches remote storage otherwise.
//! * [`EcCheck::load`] — the two recovery workflows: resend when all
//!   data nodes survive, decode otherwise (§III-B, Fig. 7); with fewer
//!   than `k` chunks left in memory, the drained copy is restored.
//!
//! Two execution planes back the API (see DESIGN.md): `save`/`load` move
//! *real bytes* through an [`ecc_cluster::Cluster`], so recovery is
//! bit-exact by test, while [`timing`] produces deterministic simulated
//! durations for paper-scale configurations.
//!
//! # Examples
//!
//! ```
//! use ecc_checkpoint::{StateDict, Value};
//! use ecc_cluster::{Cluster, ClusterSpec};
//! use eccheck::{EcCheck, EcCheckConfig};
//!
//! let spec = ClusterSpec::tiny_test(4, 1);
//! let mut cluster = Cluster::new(spec);
//! let mut ecc = EcCheck::initialize(&spec, EcCheckConfig::paper_defaults())?;
//!
//! // Each worker checkpoints a (tiny) state_dict.
//! let dicts: Vec<StateDict> = (0..4)
//!     .map(|w| {
//!         let mut sd = StateDict::new();
//!         sd.insert("iteration", Value::Int(7));
//!         sd.insert("rank", Value::Int(w));
//!         sd
//!     })
//!     .collect();
//! ecc.save(&mut cluster, &dicts)?;
//!
//! // Two concurrent node failures -- replication pairs would be lost.
//! cluster.fail_node(0);
//! cluster.fail_node(1);
//! cluster.replace_node(0);
//! cluster.replace_node(1);
//! let (restored, _report) = ecc.load(&mut cluster)?;
//! assert_eq!(restored, dicts);
//! # Ok::<(), eccheck::EcCheckError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engine;
mod error;
mod groups;
pub mod keys;
mod pipeline;
mod placement;
mod reduction;
mod report;
pub mod store;
pub mod timing;

pub use config::EcCheckConfig;
pub use engine::EcCheck;
pub use error::EcCheckError;
pub use groups::{optimal_group_size, GroupSizeCost, GroupedEcCheck};
pub use pipeline::PipelineStats;
pub use placement::{data_p2p_packets, select_data_parity_nodes, Placement};
pub use reduction::{ReductionGroup, ReductionPlan, TrafficSummary};
pub use report::{DeltaReport, LoadReport, RecoveryWorkflow, SaveReport};
pub use store::{DrainHandle, Drainer, RetentionPolicy, VersionIndex, WorkerDirtySet};
