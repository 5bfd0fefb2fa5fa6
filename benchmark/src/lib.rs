//! The repo's benchmark: closed-loop save → delta → restore cycles on
//! the real engine over the memory, TCP and tiered planes, every restore
//! checked bit-exactly, plus a per-crate layer ledger from a traced run.
//! See `README.md` beside this package for every metric and workload.

pub mod cli;
pub mod compare;
pub mod cycle;
pub mod ledger;
pub mod metrics;
pub mod plane;
pub mod report;
pub mod run;
pub mod stats;
pub mod workload;
