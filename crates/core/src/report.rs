use ecc_cluster::NodeId;

use crate::{PipelineStats, TrafficSummary};

/// What one [`crate::EcCheck::save`] call did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaveReport {
    /// Checkpoint version written.
    pub version: u64,
    /// Fixed packet size in bytes.
    pub packet_size: usize,
    /// Packets per worker after padding to a common count.
    pub packets_per_worker: usize,
    /// Bytes of parity produced by the encoder.
    pub encoded_bytes: u64,
    /// Communication accounting for the encode/XOR/P2P phases.
    pub traffic: TrafficSummary,
    /// Stage accounting of the save pipeline. Always `Some`: every save
    /// streams through the pipelined executor (the `Option` is kept for
    /// the callers that `extend` a list with it).
    pub pipeline: Option<PipelineStats>,
}

/// What one [`crate::EcCheck::save_delta`] call did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaReport {
    /// Checkpoint version patched in place (delta saves do not bump the
    /// version; they evolve the newest one).
    pub version: u64,
    /// Dirty workers, ascending.
    pub workers: Vec<usize>,
    /// Data chunks touched (dirty workers grouped by chunk).
    pub chunks_patched: usize,
    /// Bytes of the dirty regions that actually differed from the
    /// stored checkpoint (zero means the delta was a no-op).
    pub changed_bytes: u64,
    /// Bytes of worker region payload re-encoded (dirty workers ×
    /// packets-per-worker × packet size).
    pub region_bytes: u64,
    /// Network traffic the patch cost: each dirty region moves once to
    /// its data node and once per parity node, `region × (1 + m)` —
    /// compare against a full save's `m·s·W` parity traffic.
    pub traffic_bytes: u64,
    /// Bytes of parity delta produced by the encoder.
    pub encoded_bytes: u64,
}

/// Which recovery workflow [`crate::EcCheck::load`] executed (paper
/// §III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryWorkflow {
    /// All data nodes survived: lost packets are re-sent and lost parity
    /// re-encoded; no decoding needed.
    Resend,
    /// At least one data chunk was lost: surviving chunks are decoded
    /// through the inverted survivor submatrix.
    Decode,
    /// Fewer than `k` chunks survived in memory; the checkpoint was
    /// reloaded from the drained tier-1 copy.
    Remote,
}

/// What one [`crate::EcCheck::load`] call did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadReport {
    /// Checkpoint version restored.
    pub version: u64,
    /// The workflow that ran.
    pub workflow: RecoveryWorkflow,
    /// Nodes that had lost their chunk (dead, replaced, or holding a
    /// corrupted blob that was reclassified as an erasure).
    pub failed_nodes: Vec<NodeId>,
    /// Nodes whose chunk was present but failed its checksum — a
    /// subset of `failed_nodes`. Silent corruption the engine caught
    /// and treated as an erasure instead of decoding into garbage.
    pub corrupt_nodes: Vec<NodeId>,
    /// Chunks reconstructed by decoding or re-encoding.
    pub rebuilt_chunks: usize,
    /// Nodes that could not be re-seeded with their chunk during the
    /// restore-fault-tolerance phase (they died mid-recovery). The
    /// returned state is still correct; these nodes regain their chunk
    /// on the next save or load.
    pub restore_skipped: Vec<NodeId>,
    /// Total bytes of restored `state_dict` tensor data.
    pub restored_bytes: u64,
}
