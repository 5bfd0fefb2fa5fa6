use std::error::Error;
use std::fmt;

/// Errors produced by the ECCheck engine.
#[derive(Debug)]
#[non_exhaustive]
pub enum EcCheckError {
    /// Invalid configuration or cluster/config mismatch.
    Config {
        /// Human-readable description.
        detail: String,
    },
    /// Too many nodes failed: fewer than `k` intact chunks survive (a
    /// corrupted chunk counts as lost) and no usable remote copy exists
    /// (the catastrophic case of paper §III-A) — also when no copy of
    /// the version's manifest record, and so of its headers, verifies.
    Unrecoverable {
        /// Surviving intact chunk count.
        survivors: usize,
        /// Chunks needed.
        needed: usize,
        /// Workers whose `state_dict` cannot be reconstructed: members
        /// of data groups with no surviving (and undecodable) chunk
        /// (every worker when no manifest copy verifies). Empty when
        /// the loss could not be attributed to specific workers.
        lost_workers: Vec<usize>,
    },
    /// No checkpoint has been saved yet.
    NoCheckpoint,
    /// A chunk does not match its manifest entry where that cannot be
    /// treated as an erasure. From [`crate::EcCheck::save_delta`]: a
    /// stored chunk about to be patched in place — run
    /// [`crate::EcCheck::load`] first, which repairs it from the
    /// surviving ones. From a restore: a chunk the decoder *rebuilt*
    /// differs from what the save recorded, so the chunks that verified
    /// do not belong to one checkpoint and nothing is returned.
    CorruptChunk {
        /// Node holding (or due to hold) the chunk.
        node: usize,
    },
    /// A save-executor stage thread died mid-save (e.g. a worker
    /// panicked). The save is abandoned cleanly: nothing is committed,
    /// and the previous checkpoint remains loadable.
    StageFailed {
        /// Which stage died and why.
        detail: String,
    },
    /// The engine's placement epoch lags the epoch committed on the
    /// data plane (a membership controller rebalanced behind this
    /// engine's back), or [`crate::EcCheck::apply_placement`] was
    /// offered a non-monotone epoch. A stale engine must not move
    /// chunks under an outdated assignment; refresh the placement via
    /// `apply_placement` (or re-adopt the checkpoint) and retry.
    StaleEpoch {
        /// The epoch this engine believes is current.
        engine: u64,
        /// The newer (or for `apply_placement`, the rejected) epoch.
        committed: u64,
    },
    /// The requested checkpoint version is not in the retention index:
    /// it was garbage-collected by the retention policy, or was never
    /// sealed by this engine. Retained versions are listed by
    /// [`crate::EcCheck::retained_versions`].
    VersionGone {
        /// The version that was asked for.
        version: u64,
    },
    /// An underlying erasure-coding failure.
    Erasure(ecc_erasure::ErasureError),
    /// An underlying checkpoint (de)serialization failure.
    Checkpoint(ecc_checkpoint::CheckpointError),
    /// An underlying cluster data-plane failure.
    Cluster(ecc_cluster::ClusterError),
}

impl fmt::Display for EcCheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EcCheckError::Config { detail } => write!(f, "configuration error: {detail}"),
            EcCheckError::Unrecoverable { survivors, needed, lost_workers } => {
                write!(
                    f,
                    "unrecoverable failure: only {survivors} intact chunks survive, {needed} needed"
                )?;
                if !lost_workers.is_empty() {
                    write!(f, "; lost worker states: {lost_workers:?}")?;
                }
                Ok(())
            }
            EcCheckError::NoCheckpoint => write!(f, "no checkpoint has been saved"),
            EcCheckError::CorruptChunk { node } => {
                write!(f, "the chunk of node {node} does not match its manifest checksum")
            }
            EcCheckError::StageFailed { detail } => {
                write!(f, "save executor stage failed: {detail}")
            }
            EcCheckError::StaleEpoch { engine, committed } => {
                write!(
                    f,
                    "stale placement epoch: engine at {engine}, plane committed {committed}; \
                     refresh the placement before moving chunks"
                )
            }
            EcCheckError::VersionGone { version } => {
                write!(f, "checkpoint version {version} is not retained (collected or never saved)")
            }
            EcCheckError::Erasure(e) => write!(f, "erasure coding: {e}"),
            EcCheckError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            EcCheckError::Cluster(e) => write!(f, "cluster: {e}"),
        }
    }
}

impl Error for EcCheckError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EcCheckError::Erasure(e) => Some(e),
            EcCheckError::Checkpoint(e) => Some(e),
            EcCheckError::Cluster(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ecc_erasure::ErasureError> for EcCheckError {
    fn from(e: ecc_erasure::ErasureError) -> Self {
        EcCheckError::Erasure(e)
    }
}

impl From<ecc_checkpoint::CheckpointError> for EcCheckError {
    fn from(e: ecc_checkpoint::CheckpointError) -> Self {
        EcCheckError::Checkpoint(e)
    }
}

impl From<ecc_cluster::ClusterError> for EcCheckError {
    fn from(e: ecc_cluster::ClusterError) -> Self {
        EcCheckError::Cluster(e)
    }
}
