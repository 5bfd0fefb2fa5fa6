//! The tiered, versioned checkpoint store (ROADMAP item 4).
//!
//! ECCheck's original engine kept exactly one checkpoint version in one
//! tier: the peer EC group (tier 0). Production systems (TierCheck,
//! GhostServe — see PAPERS.md) drain checkpoints through a hierarchy
//! and retain many versions with garbage collection. This module adds
//! the pieces the engine composes into that store:
//!
//! * [`RetentionPolicy`] + [`VersionIndex`] — which sealed versions
//!   stay restorable in tier 0. The policy keeps the newest
//!   `keep_last` versions plus every `keep_every`-th one; the index
//!   tracks what is sealed and computes the collectible set. The GC
//!   safety invariant — *the newest restorable version is never
//!   collected* — holds by construction: the newest version is always
//!   in the keep-last window (`keep_last` is clamped to ≥ 1).
//! * [`Drainer`] / [`DrainHandle`] — an asynchronous worker that
//!   copies sealed versions from tier 0 (peer memory) to tier 1 (the
//!   remote store) off the training critical path, over a bounded
//!   queue with explicit backpressure accounting. A version queued or
//!   mid-drain is *pinned*: the engine's GC reads
//!   [`DrainHandle::pending`] and never collects a pinned version, so
//!   a drain never races a delete. Deadlock-freedom: the drain thread
//!   only ever takes one plane operation's lock at a time and never
//!   waits on the training thread, while the training thread blocks
//!   (at most) on the bounded queue that the drain thread is actively
//!   emptying.
//! * [`Manifest`] — the one verified record per version, and the only
//!   place its byte format is spelled: the CRC-32 of every node's chunk
//!   and of every worker's header, closed by a CRC-32 of the record
//!   itself. Every node holds the same copy, written after everything
//!   it names, so it is at once the checksum of each blob
//!   ([`read_verified`] compares against its entries) and the commit
//!   record of the version: every reader takes one copy through
//!   [`read_manifest`] and judges every chunk and header by it, so a
//!   save or delta cut short is seen as erasures under the old record
//!   or as the new state under the new one, never as a mix.
//! * [`drain_version`] — the synchronous tier-0 → tier-1 copy itself
//!   and the only code in this crate that writes tier 1. It settles on
//!   one manifest copy, copies only blobs that verify against it and
//!   writes *that* manifest last, re-reading the committed placement
//!   epoch at copy time so node churn between enqueue and drain is
//!   observed rather than raced. Remote keys are per-node
//!   (`remote/ecc/v{v}/chunk/{node}`), so the copy stays correct
//!   whatever incarnation currently owns a slot.
//! * [`repair_version`] — the one repair of a sealed version, for a
//!   restore and a rebalance alike: given what a gather verified and
//!   the list of lost nodes it rebuilds the missing chunks, holds each
//!   to its manifest entry before anything is stored, and seeds the
//!   lost nodes only. [`read_header`] is the one "first header copy
//!   that verifies" loop the restore, the drain and the rebalance share.
//! * [`WorkerDirtySet`] — one worker's dirty shard for
//!   [`crate::EcCheck::save_delta`], the GF-linear delta save over an
//!   arbitrary dirty set.

use std::collections::BTreeSet;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use ecc_checkpoint::{checksum_frame, crc32, verify_checksum, StateDict};
use ecc_cluster::{ClusterError, DataPlane};
use ecc_erasure::ErasureCode;
use ecc_telemetry::Recorder;

use crate::keys::{
    chunk_key, committed_epoch, header_key, manifest_key, remote_chunk_key, remote_header_key,
    remote_manifest_key,
};
use crate::{EcCheckConfig, EcCheckError, Placement};

/// One worker's dirty shard for a delta save: the worker id and its new
/// `state_dict`. Tensor shapes must be unchanged since the last full
/// save (only values evolve during training); shape changes need a full
/// [`crate::EcCheck::save`].
#[derive(Debug, Clone, Copy)]
pub struct WorkerDirtySet<'a> {
    /// The worker whose shard changed.
    pub worker: usize,
    /// The worker's new state.
    pub state: &'a StateDict,
}

/// Which tier-0 versions survive a save: the newest `keep_last`, plus
/// every `keep_every`-th version (0 disables the ladder). Derived from
/// [`EcCheckConfig::retain_last`] / [`EcCheckConfig::retain_every`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetentionPolicy {
    /// Newest versions kept unconditionally (clamped to ≥ 1).
    pub keep_last: usize,
    /// Keep-every-Kth pinning period (0 = off).
    pub keep_every: u64,
}

impl RetentionPolicy {
    /// Reads the policy out of an engine configuration.
    pub fn from_config(config: &EcCheckConfig) -> Self {
        Self { keep_last: config.retain_last().max(1), keep_every: config.retain_every() }
    }
}

/// The ordered set of sealed (restorable) checkpoint versions in tier 0.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VersionIndex {
    versions: Vec<u64>,
}

impl VersionIndex {
    /// An empty index (no version sealed yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds the index from the manifests present on a plane's alive
    /// nodes — how an adopting engine learns which versions a previous
    /// process left restorable.
    pub fn rebuild(plane: &impl DataPlane) -> Self {
        Self { versions: crate::keys::manifest_versions(plane) }
    }

    /// Records a newly sealed version.
    pub fn record(&mut self, version: u64) {
        if version > 0 && !self.versions.contains(&version) {
            self.versions.push(version);
            self.versions.sort_unstable();
        }
    }

    /// Forgets a collected version.
    pub fn remove(&mut self, version: u64) {
        self.versions.retain(|&v| v != version);
    }

    /// `true` when `version` is sealed and uncollected.
    pub fn contains(&self, version: u64) -> bool {
        self.versions.contains(&version)
    }

    /// The newest sealed version, if any.
    pub fn newest(&self) -> Option<u64> {
        self.versions.last().copied()
    }

    /// Every sealed version, ascending.
    pub fn versions(&self) -> &[u64] {
        &self.versions
    }

    /// The versions a GC pass may collect under `policy`: everything
    /// outside the keep-last window, the keep-every ladder, and the
    /// `pinned` set (versions queued or mid-drain). Ascending order.
    /// The newest version is never returned — `keep_last ≥ 1`.
    pub fn collectible(&self, policy: &RetentionPolicy, pinned: &[u64]) -> Vec<u64> {
        let keep_last = policy.keep_last.max(1);
        let cutoff = self.versions.len().saturating_sub(keep_last);
        self.versions[..cutoff]
            .iter()
            .copied()
            .filter(|&v| !(policy.keep_every > 0 && v.is_multiple_of(policy.keep_every)))
            .filter(|v| !pinned.contains(v))
            .collect()
    }
}

/// What one tier-0 → tier-1 copy moved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainOutcome {
    /// The version copied.
    pub version: u64,
    /// The placement epoch committed on the plane at copy time
    /// (re-read under the drain, so churn since enqueue is observed).
    pub epoch: Option<u64>,
    /// Chunks copied intact.
    pub chunks_copied: usize,
    /// Total blob bytes written to tier 1.
    pub bytes_copied: u64,
    /// Chunks skipped because they failed their checksum (never
    /// propagate corruption into the copy of last resort).
    pub skipped_corrupt: usize,
}

/// Synchronously copies one sealed version from tier 0 (peer memory) to
/// tier 1 (the remote store). The version is judged by one manifest
/// copy — the one under which the most chunks verify, so a stale copy
/// on the first node does not beat a newer one; only chunks and headers
/// that verify against it are copied (corrupt chunks are skipped and
/// counted, headers fall back across all survivors exactly like
/// recovery), and that manifest is written last — so a drain racing a
/// delta leaves a consistent or an incomplete copy, never a spliced
/// one. The committed placement epoch is re-read at copy time.
/// This is the drain worker's unit of work, public so tests (and
/// synchronous callers) can drain deterministically without a thread.
///
/// # Errors
///
/// Returns [`EcCheckError::VersionGone`] when no alive node holds a
/// manifest of `version` that verifies — there is nothing sealed to
/// drain.
pub fn drain_version<P: DataPlane>(
    plane: &mut P,
    version: u64,
    world: usize,
    recorder: &Recorder,
) -> Result<DrainOutcome, EcCheckError> {
    let n = plane.nodes();
    // The copy under which the most chunks verify; one that faults
    // none of them ends the search.
    let mut best: Option<(usize, Manifest, Vec<Verified>)> = None;
    read_manifest(plane, false, version, world, |_, manifest| {
        let chunks: Vec<Verified> = (0..n)
            .map(|node| {
                read_verified(plane, Tier::Local(node), &chunk_key(version), manifest.chunks[node])
            })
            .collect();
        let intact = chunks.iter().filter(|c| matches!(c, Verified::Intact(_))).count();
        let clean = !chunks.iter().any(|c| matches!(c, Verified::Corrupt));
        if best.as_ref().is_none_or(|(most, ..)| intact > *most) {
            best = Some((intact, manifest.clone(), chunks));
        }
        clean.then_some(()).ok_or(())
    });
    let (chunks_copied, manifest, chunks) = best.ok_or(EcCheckError::VersionGone { version })?;
    let epoch = committed_epoch(plane);
    let mut bytes_copied = 0u64;
    let mut skipped_corrupt = 0usize;
    for (node, chunk) in chunks.into_iter().enumerate() {
        match chunk {
            Verified::Intact(blob) => {
                bytes_copied += blob.len() as u64;
                plane.put_remote(&remote_chunk_key(version, node), blob);
            }
            Verified::Missing => {}
            Verified::Corrupt => {
                skipped_corrupt += 1;
                recorder.counter("ecc.drain.skipped_corrupt").incr();
                recorder
                    .event("ecc.drain.corrupt", format!("v{version} node {node} failed checksum"));
            }
        }
    }
    for (w, &crc) in manifest.headers.iter().enumerate() {
        if let Some((_, header)) = read_header(plane, version, w, crc, |_| {}) {
            bytes_copied += header.len() as u64;
            plane.put_remote(&remote_header_key(version, w), header);
        }
    }
    let record = manifest.encode();
    bytes_copied += record.len() as u64;
    plane.put_remote(&remote_manifest_key(version), record);
    recorder.counter("ecc.drain.versions").incr();
    recorder.counter("ecc.drain.bytes").add(bytes_copied);
    recorder.event(
        "ecc.drain",
        format!("v{version} -> tier1: {chunks_copied} chunks, epoch {epoch:?}"),
    );
    Ok(DrainOutcome { version, epoch, chunks_copied, bytes_copied, skipped_corrupt })
}

/// The verified record of one checkpoint version: the CRC-32 of every
/// stored chunk and header. Stored under `ecc/v{v}/manifest` on every
/// node (and `remote/ecc/v{v}/manifest` in tier 1) as the entries in
/// little-endian order closed by a CRC-32 of the record itself.
///
/// Chunk entries are indexed by the node holding the chunk — the same
/// index the per-node chunk keys of both tiers use, so the drain and
/// the membership controller can verify a chunk without a placement.
/// No entry steers slicing: a restore still derives the lay-out from
/// the length of the chunks it verified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// CRC-32 of each node's chunk, by node.
    pub chunks: Vec<u32>,
    /// CRC-32 of each worker's header, by worker.
    pub headers: Vec<u32>,
}

impl Manifest {
    /// The stored record.
    pub fn encode(&self) -> Vec<u8> {
        let entries = self.chunks.iter().chain(&self.headers);
        seal_record(entries.flat_map(|crc| crc.to_le_bytes()).collect())
    }

    /// Parses a stored record for a cluster of `nodes` nodes and
    /// `world` workers. `None` when the record fails its self-check or
    /// holds any other number of entries — damaged bytes are never
    /// sliced, let alone trusted.
    pub fn decode(record: &[u8], nodes: usize, world: usize) -> Option<Self> {
        let payload = open_record(record)?;
        if payload.len() != 4 * (nodes + world) {
            return None;
        }
        let mut entries = payload
            .chunks_exact(4)
            .map(|crc| u32::from_le_bytes(crc.try_into().expect("chunks_exact yields 4 bytes")));
        let chunks = entries.by_ref().take(nodes).collect();
        Some(Self { chunks, headers: entries.collect() })
    }
}

/// Where a blob is read from: a node's memory (tier 0) or the remote
/// store (tier 1).
#[derive(Debug, Clone, Copy)]
pub enum Tier {
    /// The in-memory store of the given node.
    Local(usize),
    /// The remote persistent store.
    Remote,
}

/// Outcome of one checksum-verified read.
pub enum Verified {
    /// Present and matching its checksum.
    Intact(Vec<u8>),
    /// Absent (or the node is dead).
    Missing,
    /// Present but failing its checksum: silent corruption, which every
    /// caller treats as an erasure and never as data.
    Corrupt,
}

impl Verified {
    /// The verified blob, if there is one.
    pub fn intact(self) -> Option<Vec<u8>> {
        match self {
            Verified::Intact(blob) => Some(blob),
            Verified::Missing | Verified::Corrupt => None,
        }
    }
}

/// Reads the blob under `key` from `tier` and verifies it against
/// `crc`, its entry in the version's manifest. Callers keep their own
/// counters and events.
pub fn read_verified(plane: &impl DataPlane, tier: Tier, key: &str, crc: u32) -> Verified {
    let blob = match tier {
        Tier::Local(node) => plane.get_local(node, key),
        Tier::Remote => plane.get_remote(key),
    };
    match blob {
        Some(blob) if crc32(&blob) == crc => Verified::Intact(blob),
        Some(_) => Verified::Corrupt,
        None => Verified::Missing,
    }
}

/// The one reader of a version's manifest. Offers `serves` each
/// distinct copy that verifies — tier 0's in alive-node order, with the
/// node that held it; tier 1's one copy — and returns the first copy it
/// accepts with what it made of it. A copy that verifies can still be
/// stale (a delta's manifest put dropped on that node), so a copy that
/// does not serve gives way to the next before the version is given
/// up: `Some(Err(_))` is the first copy's refusal, `None` means no copy
/// verifies for this plane's node count and `world` workers.
pub fn read_manifest<T, E>(
    plane: &impl DataPlane,
    from_remote: bool,
    version: u64,
    world: usize,
    mut serves: impl FnMut(usize, &Manifest) -> Result<T, E>,
) -> Option<Result<(Manifest, T), E>> {
    let nodes = plane.nodes();
    let mut refused: Vec<Manifest> = Vec::new();
    let mut refusal = None;
    for node in 0..if from_remote { 1 } else { nodes } {
        let record = match from_remote {
            true => plane.get_remote(&remote_manifest_key(version)),
            false if plane.alive(node) => plane.get_local(node, &manifest_key(version)),
            false => None,
        };
        let Some(copy) = record.and_then(|r| Manifest::decode(&r, nodes, world)) else { continue };
        if refused.contains(&copy) {
            continue;
        }
        match serves(node, &copy) {
            Ok(found) => return Some(Ok((copy, found))),
            Err(err) => {
                refusal.get_or_insert(err);
                refused.push(copy);
            }
        }
    }
    refusal.map(Err)
}

/// Worker `w`'s header from the first alive node, in node order, whose
/// copy matches `crc` (its entry in the version's manifest), with the
/// node that served it; `corrupt` is told each node whose copy was
/// present but wrong on the way. The one place a header copy is chosen:
/// a restore, a drain and a rebalance all read through it, so every
/// node before the one returned held no copy or a bad one.
pub fn read_header(
    plane: &impl DataPlane,
    version: u64,
    w: usize,
    crc: u32,
    mut corrupt: impl FnMut(usize),
) -> Option<(usize, Vec<u8>)> {
    let key = header_key(version, w);
    (0..plane.nodes()).filter(|&node| plane.alive(node)).find_map(|node| {
        match read_verified(plane, Tier::Local(node), &key, crc) {
            Verified::Intact(blob) => Some((node, blob)),
            Verified::Missing => None,
            Verified::Corrupt => {
                corrupt(node);
                None
            }
        }
    })
}

/// What [`repair_version`] rebuilt and stored.
#[derive(Debug)]
pub struct Repaired {
    /// Every chunk of the version by chunk id: the verified ones as
    /// given (the same buffers, moved through), the others rebuilt and
    /// held to their manifest entry.
    pub chunks: Vec<Vec<u8>>,
    /// Lost nodes that were down and so were not seeded; the next
    /// repair that finds them up seeds them.
    pub skipped: Vec<usize>,
    /// Bytes stored on the lost nodes that were up.
    pub put_bytes: u64,
}

/// The one repair of a sealed version (paper §III-B, Fig. 7): rebuilds
/// what a gather could not read and re-seeds the `lost` nodes, for a
/// restore and a rebalance alike. `manifest` is the copy the gather was
/// judged by; `shards` holds the at least `k` chunks that verified
/// under it, by chunk id under `placement`; `headers` every worker's
/// header that did. Who is lost is the caller's finding: a restore
/// names the nodes whose chunk, manifest copy or header copy it read
/// and could not use (every node when tier 1 served: the tiers are
/// never mixed), a rebalance the slots whose incarnation changed.
///
/// Missing chunks are rebuilt with `reconstruct_all` and each is
/// compared with its manifest entry *before anything is stored*: a
/// decode is checked like a fetch, never trusted. Then each lost node
/// receives the `W` headers, the manifest and, last, its chunk. A save
/// and a delta write the manifest last because there it is new; here
/// it is the record the version already has, and the chunk goes last
/// so that a chunk that verifies vouches for its whole node — a
/// restore reads every chunk anyway, so it finds a repair cut short at
/// any put as a lost node, without another read. A lost node that is
/// down is skipped, not fatal: what was rebuilt is already in hand.
///
/// # Errors
///
/// [`EcCheckError::Erasure`] when fewer than `k` shards are given,
/// [`EcCheckError::CorruptChunk`] when a rebuilt chunk disagrees with
/// `manifest` (nothing has been stored), and [`EcCheckError::Cluster`]
/// when a put fails for any reason but the node being down.
#[allow(clippy::too_many_arguments)]
pub fn repair_version(
    plane: &mut impl DataPlane,
    code: &ErasureCode,
    placement: &Placement,
    version: u64,
    manifest: &Manifest,
    shards: Vec<Option<Vec<u8>>>,
    headers: &[Vec<u8>],
    lost: &[usize],
) -> Result<Repaired, EcCheckError> {
    let rebuilt: Vec<bool> = shards.iter().map(Option::is_none).collect();
    let chunks = code.reconstruct_all(shards)?;
    for (node, &crc) in manifest.chunks.iter().enumerate() {
        let id = placement.chunk_of(node);
        if rebuilt[id] && crc32(&chunks[id]) != crc {
            return Err(EcCheckError::CorruptChunk { node });
        }
    }
    let record = manifest.encode();
    let mut repaired = Repaired { chunks, skipped: Vec::new(), put_bytes: 0 };
    'nodes: for &node in lost {
        let chunk = &repaired.chunks[placement.chunk_of(node)];
        let named = headers.iter().enumerate().map(|(w, h)| (header_key(version, w), h));
        let blobs = named.chain([(manifest_key(version), &record), (chunk_key(version), chunk)]);
        for (key, blob) in blobs {
            match plane.put_local(node, &key, blob.clone()) {
                Ok(()) => repaired.put_bytes += blob.len() as u64,
                Err(ClusterError::NodeDown { .. }) => {
                    repaired.skipped.push(node);
                    continue 'nodes;
                }
                Err(e) => return Err(e.into()),
            }
        }
    }
    Ok(repaired)
}

/// Closes `payload` into a self-checked record: the payload followed by
/// its own [`checksum_frame`] — for the two small blobs no other record
/// vouches for, a version's manifest and the placement epoch marker.
pub(crate) fn seal_record(mut payload: Vec<u8>) -> Vec<u8> {
    let frame = checksum_frame(&payload);
    payload.extend_from_slice(&frame);
    payload
}

/// The payload of a record closed by [`seal_record`]; `None` when it is
/// too short to hold a frame or fails its self-check.
pub(crate) fn open_record(record: &[u8]) -> Option<&[u8]> {
    let (payload, frame) = record.split_at_checked(record.len().checked_sub(4)?)?;
    verify_checksum(payload, frame).then_some(payload)
}

enum DrainMsg {
    Drain { version: u64, world: usize },
    Flush(SyncSender<()>),
    Shutdown,
}

/// A cloneable handle into the drain worker's queue. The engine holds
/// one (to enqueue sealed versions and to pin pending versions against
/// GC); the owner of the [`Drainer`] keeps another for flushing.
#[derive(Debug, Clone)]
pub struct DrainHandle {
    tx: SyncSender<DrainMsg>,
    pending: Arc<Mutex<BTreeSet<u64>>>,
    recorder: Recorder,
}

impl DrainHandle {
    /// Queues `version` for a tier-0 → tier-1 copy. Blocks when the
    /// bounded queue is full (counting the stall on
    /// `ecc.drain.backpressure`) — the save path slows down rather
    /// than dropping durability work. Returns `false` when the drain
    /// worker is gone.
    pub fn enqueue(&self, version: u64, world: usize) -> bool {
        self.pending.lock().expect("drain pending lock").insert(version);
        self.recorder.counter("ecc.drain.enqueued").incr();
        match self.tx.try_send(DrainMsg::Drain { version, world }) {
            Ok(()) => true,
            Err(TrySendError::Full(msg)) => {
                self.recorder.counter("ecc.drain.backpressure").incr();
                if self.tx.send(msg).is_ok() {
                    true
                } else {
                    self.pending.lock().expect("drain pending lock").remove(&version);
                    false
                }
            }
            Err(TrySendError::Disconnected(_)) => {
                self.pending.lock().expect("drain pending lock").remove(&version);
                false
            }
        }
    }

    /// Versions queued or mid-drain — pinned against GC.
    pub fn pending(&self) -> Vec<u64> {
        self.pending.lock().expect("drain pending lock").iter().copied().collect()
    }

    /// Blocks until every version enqueued before this call has been
    /// drained (or the worker is gone).
    pub fn flush(&self) {
        let (ack_tx, ack_rx) = sync_channel(0);
        if self.tx.send(DrainMsg::Flush(ack_tx)).is_ok() {
            let _ = ack_rx.recv();
        }
    }
}

/// The asynchronous drain worker: owns a thread that copies sealed
/// versions to tier 1 as [`DrainHandle::enqueue`] feeds it, off the
/// training critical path.
///
/// # Examples
///
/// ```
/// use ecc_cluster::{Cluster, ClusterSpec, SharedPlane};
/// use ecc_telemetry::Recorder;
/// use eccheck::store::Drainer;
///
/// let shared = SharedPlane::new(Cluster::new(ClusterSpec::tiny_test(2, 1)));
/// let drainer = Drainer::spawn(shared.clone(), 4, Recorder::new());
/// let handle = drainer.handle();
/// // ... engine saves through a clone of `shared`, enqueueing versions ...
/// handle.flush();
/// drainer.shutdown();
/// ```
#[derive(Debug)]
pub struct Drainer {
    handle: DrainHandle,
    thread: Option<JoinHandle<()>>,
}

impl Drainer {
    /// Spawns the drain worker over `plane` (a [`SharedPlane`] clone of
    /// the plane the engine saves through, so the worker sees the blobs
    /// the engine places) with a queue of `depth` pending versions.
    ///
    /// [`SharedPlane`]: ecc_cluster::SharedPlane
    pub fn spawn<P: DataPlane + Send + 'static>(
        mut plane: P,
        depth: usize,
        recorder: Recorder,
    ) -> Self {
        let (tx, rx): (SyncSender<DrainMsg>, Receiver<DrainMsg>) = sync_channel(depth.max(1));
        let pending = Arc::new(Mutex::new(BTreeSet::new()));
        let handle = DrainHandle { tx, pending: Arc::clone(&pending), recorder: recorder.clone() };
        let thread = std::thread::spawn(move || {
            while let Ok(msg) = rx.recv() {
                match msg {
                    DrainMsg::Drain { version, world } => {
                        if let Err(err) = drain_version(&mut plane, version, world, &recorder) {
                            recorder.counter("ecc.drain.failures").incr();
                            recorder.event("ecc.drain.failed", format!("v{version}: {err}"));
                        }
                        // Unpin only after the copy (or its failure) is
                        // final, so GC never deletes a version mid-copy.
                        pending.lock().expect("drain pending lock").remove(&version);
                    }
                    DrainMsg::Flush(ack) => {
                        let _ = ack.send(());
                    }
                    DrainMsg::Shutdown => break,
                }
            }
        });
        Self { handle, thread: Some(thread) }
    }

    /// A handle for enqueueing and pin queries (give one to the engine
    /// via [`crate::EcCheck::set_drainer`]).
    pub fn handle(&self) -> DrainHandle {
        self.handle.clone()
    }

    /// Drains the queue and stops the worker.
    pub fn shutdown(mut self) {
        let _ = self.handle.tx.send(DrainMsg::Shutdown);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for Drainer {
    fn drop(&mut self) {
        let _ = self.handle.tx.send(DrainMsg::Shutdown);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecc_cluster::{Cluster, ClusterSpec, SharedPlane};

    fn policy(keep_last: usize, keep_every: u64) -> RetentionPolicy {
        RetentionPolicy { keep_last, keep_every }
    }

    fn index(versions: &[u64]) -> VersionIndex {
        let mut idx = VersionIndex::new();
        for &v in versions {
            idx.record(v);
        }
        idx
    }

    #[test]
    fn keep_last_one_collects_everything_but_newest() {
        let idx = index(&[1, 2, 3, 4]);
        assert_eq!(idx.collectible(&policy(1, 0), &[]), vec![1, 2, 3]);
        assert_eq!(idx.newest(), Some(4));
    }

    #[test]
    fn newest_version_is_never_collectible() {
        // Even a zero keep_last clamps to one.
        for keep in [0usize, 1, 2, 10] {
            let idx = index(&[5, 6, 7]);
            assert!(!idx.collectible(&policy(keep, 0), &[]).contains(&7));
        }
        assert!(index(&[9]).collectible(&policy(1, 0), &[]).is_empty());
        assert!(VersionIndex::new().collectible(&policy(1, 0), &[]).is_empty());
    }

    #[test]
    fn keep_every_pins_the_ladder() {
        let idx = index(&[1, 2, 3, 4, 5, 6, 7]);
        // Keep newest 2 (6, 7) and every 3rd (3, 6).
        assert_eq!(idx.collectible(&policy(2, 3), &[]), vec![1, 2, 4, 5]);
    }

    #[test]
    fn pinned_versions_survive() {
        let idx = index(&[1, 2, 3, 4]);
        assert_eq!(idx.collectible(&policy(1, 0), &[2]), vec![1, 3]);
    }

    #[test]
    fn record_is_idempotent_and_sorted() {
        let mut idx = index(&[3, 1]);
        idx.record(2);
        idx.record(3);
        idx.record(0); // version 0 means "none" and is never sealed
        assert_eq!(idx.versions(), &[1, 2, 3]);
        idx.remove(2);
        assert_eq!(idx.versions(), &[1, 3]);
        assert!(!idx.contains(2));
    }

    proptest::proptest! {
        /// Arbitrary bytes, and every truncation and single-bit flip of
        /// a valid record, never panic and never decode.
        #[test]
        fn damaged_manifests_never_decode(
            noise in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..80),
            entries in proptest::collection::vec(proptest::arbitrary::any::<u32>(), 1..12),
            nodes in 0usize..12,
        ) {
            let nodes = nodes.min(entries.len());
            let world = entries.len() - nodes;
            // 2^-32 of all noise is a valid record; none that short is.
            if noise.len() != 4 * (nodes + world) + 4 {
                proptest::prop_assert_eq!(Manifest::decode(&noise, nodes, world), None);
            }
            let manifest =
                Manifest { chunks: entries[..nodes].to_vec(), headers: entries[nodes..].to_vec() };
            let record = manifest.encode();
            proptest::prop_assert_eq!(record.len(), 4 * entries.len() + 4);
            proptest::prop_assert_eq!(Manifest::decode(&record, nodes, world), Some(manifest));
            // The same valid record read by an engine of another shape.
            proptest::prop_assert_eq!(Manifest::decode(&record, nodes + 1, world), None);
            for cut in 0..record.len() {
                proptest::prop_assert_eq!(Manifest::decode(&record[..cut], nodes, world), None);
            }
            for bit in 0..record.len() * 8 {
                let mut flipped = record.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                proptest::prop_assert_eq!(Manifest::decode(&flipped, nodes, world), None);
            }
        }
    }

    #[test]
    fn drain_of_unknown_version_errors() {
        let mut c = Cluster::new(ClusterSpec::tiny_test(2, 1));
        let err = drain_version(&mut c, 9, 2, &Recorder::new()).unwrap_err();
        assert!(matches!(err, EcCheckError::VersionGone { version: 9 }));
    }

    #[test]
    fn drainer_reports_pending_until_drained() {
        let shared = SharedPlane::new(Cluster::new(ClusterSpec::tiny_test(2, 1)));
        let drainer = Drainer::spawn(shared.clone(), 2, Recorder::new());
        let handle = drainer.handle();
        assert!(handle.pending().is_empty());
        // Draining a version with no manifest fails but must still
        // unpin it — a failed drain must never pin a version forever.
        assert!(handle.enqueue(3, 2));
        handle.flush();
        assert!(handle.pending().is_empty());
        drainer.shutdown();
    }
}
