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
//! * [`Manifest`] — the one metadata record per node per version, and
//!   the only place its byte format is spelled: the CRC-32 of every
//!   node's chunk and every worker's header, closed by a CRC-32 of the
//!   record itself. Every node holds the same copy, written after the
//!   chunks it names, so it is at once the checksum of each chunk, the
//!   carrier of the headers and the commit record of the version.
//! * [`gather`] — the one reader of a sealed version, and the only code
//!   that decodes a manifest copy or verifies a chunk: it judges every
//!   chunk a caller asks for by one copy, so a save or delta cut short
//!   is seen as erasures under the old record or as the new state under
//!   the new one, never as a mix. A restore, a delta, the drain and the
//!   membership controller differ only in its arguments.
//! * [`drain_version`] — the synchronous tier-0 → tier-1 copy itself
//!   and the only code in this crate that writes tier 1. It settles on
//!   one manifest copy, copies only chunks that verify against it and
//!   writes *that* manifest last, re-reading the committed placement
//!   epoch at copy time so node churn between enqueue and drain is
//!   observed rather than raced. Remote keys are per-node
//!   (`remote/ecc/v{v}/chunk/{node}`), so the copy stays correct
//!   whatever incarnation currently owns a slot.
//! * [`repair_version`] — the one repair of a sealed version, for a
//!   restore and a rebalance alike: given what a gather verified and
//!   the list of lost nodes it rebuilds the missing chunks, holds each
//!   to its manifest entry before anything is stored, and seeds the
//!   lost nodes only.
//! * [`WorkerDirtySet`] — one worker's dirty shard for
//!   [`crate::EcCheck::save_delta`], the GF-linear delta save over an
//!   arbitrary dirty set.

use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use ecc_checkpoint::{checksum_frame, crc32, verify_checksum, StateDict};
use ecc_cluster::{ClusterError, DataPlane};
use ecc_erasure::ErasureCode;
use ecc_telemetry::Recorder;

use crate::keys::{
    chunk_key, committed_epoch, manifest_key, remote_chunk_key, remote_manifest_key,
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
/// copy — the first under which no chunk fails its entry, else the one
/// under which the most chunks verify, so a stale copy on the first
/// node does not beat a newer one; only chunks that verify
/// against it are copied (corrupt chunks are skipped and counted), and
/// that manifest, which carries every header, is written last — so a
/// drain racing a delta leaves a consistent or an incomplete copy,
/// never a spliced one. The committed placement epoch is re-read at
/// copy time. This is the drain worker's unit of work, public so tests
/// (and synchronous callers) can drain deterministically without a
/// thread.
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
    let all: Vec<usize> = (0..plane.nodes()).collect();
    let clean = |found: &Gathered| all.iter().all(|&node| found.chunk(node) != Verified::Corrupt);
    let found = gather(plane, version, world, false, &all, all.len(), |_, _| false, clean);
    let (Ok(found) | Err(found)) = found.ok_or(EcCheckError::VersionGone { version })?;
    let corrupt: Vec<usize> =
        all.iter().copied().filter(|&node| found.chunk(node) == Verified::Corrupt).collect();
    let (manifest, chunks) = found.into_parts();
    let epoch = committed_epoch(plane);
    let mut bytes_copied = 0u64;
    let mut chunks_copied = 0usize;
    for (node, blob) in chunks.into_iter().enumerate() {
        if let Some(blob) = blob {
            chunks_copied += 1;
            bytes_copied += blob.len() as u64;
            plane.put_remote(&remote_chunk_key(version, node), blob);
        }
    }
    for &node in &corrupt {
        recorder.counter("ecc.drain.skipped_corrupt").incr();
        recorder.event("ecc.drain.corrupt", format!("v{version} node {node} failed checksum"));
    }
    bytes_copied += manifest.record().len() as u64;
    plane.put_remote(&remote_manifest_key(version), manifest.record().to_vec());
    recorder.counter("ecc.drain.versions").incr();
    recorder.counter("ecc.drain.bytes").add(bytes_copied);
    recorder.event(
        "ecc.drain",
        format!("v{version} -> tier1: {chunks_copied} chunks, epoch {epoch:?}"),
    );
    Ok(DrainOutcome { version, epoch, chunks_copied, bytes_copied, skipped_corrupt: corrupt.len() })
}

/// The verified record of one checkpoint version, and the only place
/// its byte format is spelled: the CRC-32 of every stored chunk and
/// every worker's header. Stored under `ecc/v{v}/manifest` on every node
/// (and `remote/ecc/v{v}/manifest` in tier 1) as
/// `0x02 ‖ u32 LE n ‖ u32 LE W ‖ u32 LE CRC-32 of each node's chunk, by
/// node ‖ per worker: u32 LE length ‖ header`, closed by a CRC-32 of the
/// record itself — so the record's own check vouches for the cluster
/// shape it states and the headers it carries.
///
/// Chunk entries are indexed by the node holding the chunk — the same
/// index the per-node chunk keys of both tiers use, so the drain and
/// the membership controller can verify a chunk without a placement.
/// No entry steers slicing: a restore still derives the lay-out from
/// the length of the chunks it verified. A decoded manifest keeps the
/// record it was read from, lends each header out of it and is stored
/// again as those very bytes; [`Manifest::seal`] is the one writer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// CRC-32 of each node's chunk, by node.
    chunks: Vec<u32>,
    /// The record as read; the headers are ranges of it.
    record: Vec<u8>,
    /// Where each worker's header lies in `record`, by worker.
    headers: Vec<Range<usize>>,
}

/// The leading format byte of a manifest record. The first format had
/// none and held no headers; its records are always too short to decode
/// as this one for the same cluster shape.
const MANIFEST_FORMAT: u8 = 0x02;

impl Manifest {
    /// The stored record of `chunks` (by node) and `headers` (by
    /// worker).
    pub fn seal<H: AsRef<[u8]>>(chunks: &[u32], headers: &[H]) -> Vec<u8> {
        let len = headers.iter().map(|h| 4 + h.as_ref().len()).sum::<usize>();
        let mut payload = Vec::with_capacity(9 + 4 * chunks.len() + len + 4);
        payload.push(MANIFEST_FORMAT);
        for count in [chunks.len(), headers.len()] {
            let count = u32::try_from(count).expect("a cluster has under 2^32 members");
            payload.extend_from_slice(&count.to_le_bytes());
        }
        chunks.iter().for_each(|crc| payload.extend_from_slice(&crc.to_le_bytes()));
        for header in headers {
            let header = header.as_ref();
            let len = u32::try_from(header.len()).expect("a header is under 4 GiB");
            payload.extend_from_slice(&len.to_le_bytes());
            payload.extend_from_slice(header);
        }
        seal_record(payload)
    }

    /// Parses a stored record for a cluster of `nodes` nodes and
    /// `world` workers. `None` unless the format byte is this format's,
    /// the record passes its self-check, it states `nodes` and `world`
    /// as its shape, and it holds that many chunk entries and
    /// length-prefixed headers with no byte left over — damaged bytes
    /// are never sliced, let alone trusted.
    pub fn decode(record: Vec<u8>, nodes: usize, world: usize) -> Option<Self> {
        let payload = open_record(&record)?;
        let (&MANIFEST_FORMAT, payload) = payload.split_first()? else { return None };
        let le = |count: usize| u32::try_from(count).ok().map(u32::to_le_bytes);
        let (n, payload) = payload.split_first_chunk::<4>()?;
        let (w, payload) = payload.split_first_chunk::<4>()?;
        if (Some(*n), Some(*w)) != (le(nodes), le(world)) {
            return None;
        }
        let (crcs, mut rest) = payload.split_at_checked(nodes.checked_mul(4)?)?;
        let chunks = crcs
            .chunks_exact(4)
            .map(|crc| u32::from_le_bytes(crc.try_into().expect("chunks_exact yields 4 bytes")))
            .collect();
        let mut headers = Vec::with_capacity(world.min(rest.len() / 4));
        let mut at = 9 + crcs.len();
        for _ in 0..world {
            let (len, tail) = rest.split_first_chunk::<4>()?;
            let len = u32::from_le_bytes(*len) as usize;
            rest = tail.get(len..)?;
            headers.push(at + 4..at + 4 + len);
            at += 4 + len;
        }
        rest.is_empty().then_some(Self { chunks, record, headers })
    }

    /// The CRC-32 of each node's chunk, by node.
    pub fn chunks(&self) -> &[u32] {
        &self.chunks
    }

    /// Every worker's header, by worker.
    pub fn headers(&self) -> impl ExactSizeIterator<Item = &[u8]> {
        self.headers.iter().map(|range| &self.record[range.clone()])
    }

    /// The stored bytes this manifest was decoded from.
    pub fn record(&self) -> &[u8] {
        &self.record
    }
}

/// What one node's chunk came to under one manifest copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verified {
    /// Present and matching its manifest entry.
    Intact,
    /// Absent, on a dead node, or not read.
    Missing,
    /// Present but failing its entry: silent corruption, which every
    /// caller treats as an erasure and never as data.
    Corrupt,
}

/// One node's chunk as a [`gather`] read it, shared by every copy it
/// judges.
enum Read {
    Unread,
    Absent,
    /// The blob and its CRC-32.
    Held(u32, Vec<u8>),
}

/// A version's chunks as one manifest copy judges them: what a
/// [`gather`] returns.
pub struct Gathered {
    /// The copy the chunks are judged by; it carries every header.
    pub manifest: Manifest,
    /// The node whose copy this is (0 in tier 1). Every node before it
    /// held no copy, a damaged one, or one that did not serve.
    pub from: usize,
    /// Every node's chunk as the gather read it, by node.
    read: Vec<Read>,
}

impl Gathered {
    /// What `node`'s chunk came to under this copy.
    pub fn chunk(&self, node: usize) -> Verified {
        match self.read[node] {
            Read::Held(crc, _) if crc == self.manifest.chunks()[node] => Verified::Intact,
            Read::Held(..) => Verified::Corrupt,
            _ => Verified::Missing,
        }
    }

    /// How many chunks verified.
    pub fn intact(&self) -> usize {
        (0..self.read.len()).filter(|&node| self.chunk(node) == Verified::Intact).count()
    }

    /// The copy, and the chunks that verified under it, by node.
    pub fn into_parts(self) -> (Manifest, Vec<Option<Vec<u8>>>) {
        let chunks = self.read.into_iter().zip(self.manifest.chunks());
        let chunks = chunks.map(|(read, &entry)| match read {
            Read::Held(crc, blob) if crc == entry => Some(blob),
            _ => None,
        });
        let chunks = chunks.collect();
        (self.manifest, chunks)
    }
}

/// The one reader of a sealed version (paper §III-B's gather), and the
/// only code that decodes a manifest copy or verifies a chunk. Every
/// caller judges the version by one copy of its manifest, and the
/// caller's policies are the arguments.
///
/// * Each distinct copy that verifies for this plane's node count and
///   `world` workers is offered in turn: tier 0's in alive-node order,
///   tier 1's (`remote`) one copy. A copy that verifies can still be
///   stale: a delta's record put dropped on that node.
/// * Under a copy, the chunks of `nodes` are read in the order given
///   until `enough` of them verify. A node that is down in tier 0 is
///   `Missing` and costs no plane op. A chunk that is absent is read
///   again while `retry(node, attempt)` says so; the caller waits.
/// * Each chunk is read at most once per call, and its CRC-32 computed
///   once: every chunk the call has read is judged by every copy's
///   entry.
///
/// Returns `Ok` with the first copy `serves` accepts, `Err` with the
/// refused copy under which the most chunks verified, and `None` when
/// no copy verifies.
#[allow(clippy::too_many_arguments)]
pub fn gather<P: DataPlane>(
    plane: &P,
    version: u64,
    world: usize,
    remote: bool,
    nodes: &[usize],
    enough: usize,
    mut retry: impl FnMut(usize, usize) -> bool,
    mut serves: impl FnMut(&Gathered) -> bool,
) -> Option<Result<Gathered, Gathered>> {
    let n = plane.nodes();
    let mut fetch = |node: usize| {
        let key = if remote { remote_chunk_key(version, node) } else { chunk_key(version) };
        for attempt in 0.. {
            if !remote && !plane.alive(node) {
                break;
            }
            let blob = if remote { plane.get_remote(&key) } else { plane.get_local(node, &key) };
            if let Some(blob) = blob {
                return Read::Held(crc32(&blob), blob);
            }
            if !retry(node, attempt) {
                break;
            }
        }
        Read::Absent
    };
    let mut read: Vec<Read> = (0..n).map(|_| Read::Unread).collect();
    // Copies refused so far, and the one under which the most chunks
    // verified: (intact, its index, the node it came from).
    let mut refused: Vec<Manifest> = Vec::new();
    let mut best: Option<(usize, usize, usize)> = None;
    for from in 0..if remote { 1 } else { n } {
        let record = match remote {
            true => plane.get_remote(&remote_manifest_key(version)),
            false if plane.alive(from) => plane.get_local(from, &manifest_key(version)),
            false => None,
        };
        let Some(manifest) = record.and_then(|r| Manifest::decode(r, n, world)) else { continue };
        if refused.contains(&manifest) {
            continue;
        }
        let mut intact = 0;
        for &node in nodes {
            if intact == enough {
                break;
            }
            if let Read::Unread = read[node] {
                read[node] = fetch(node);
            }
            if matches!(read[node], Read::Held(crc, _) if crc == manifest.chunks()[node]) {
                intact += 1;
            }
        }
        let found = Gathered { manifest, from, read };
        if serves(&found) {
            return Some(Ok(found));
        }
        let intact = found.intact();
        if best.is_none_or(|(most, ..)| intact > most) {
            best = Some((intact, refused.len(), from));
        }
        refused.push(found.manifest);
        read = found.read;
    }
    let (_, at, from) = best?;
    Some(Err(Gathered { manifest: refused.swap_remove(at), from, read }))
}

/// `true` when some alive node or tier 1 holds a manifest of `version`.
/// Presence only: a restore that follows judges the copies.
pub(crate) fn sealed(plane: &impl DataPlane, version: u64) -> bool {
    let key = manifest_key(version);
    (0..plane.nodes()).any(|node| plane.alive(node) && plane.get_local(node, &key).is_some())
        || plane.get_remote(&remote_manifest_key(version)).is_some()
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
/// judged by, headers and all; `shards` holds the at least `k` chunks
/// that verified under it, by chunk id under `placement`. Who is lost
/// is the caller's finding: a restore names the nodes whose chunk or
/// manifest copy it read and could not use (every node when tier 1
/// served: the tiers are never mixed), a rebalance the slots whose
/// incarnation changed.
///
/// Missing chunks are rebuilt with `reconstruct_all` and each is
/// compared with its manifest entry *before anything is stored*: a
/// decode is checked like a fetch, never trusted. Then each lost node
/// receives the manifest and, last, its chunk. A save and a delta
/// write the manifest last because there it is new; here
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
pub fn repair_version(
    plane: &mut impl DataPlane,
    code: &ErasureCode,
    placement: &Placement,
    version: u64,
    manifest: &Manifest,
    shards: Vec<Option<Vec<u8>>>,
    lost: &[usize],
) -> Result<Repaired, EcCheckError> {
    let rebuilt: Vec<bool> = shards.iter().map(Option::is_none).collect();
    let chunks = code.reconstruct_all(shards)?;
    for (node, &crc) in manifest.chunks().iter().enumerate() {
        let id = placement.chunk_of(node);
        if rebuilt[id] && crc32(&chunks[id]) != crc {
            return Err(EcCheckError::CorruptChunk { node });
        }
    }
    let record = manifest.record();
    let mut repaired = Repaired { chunks, skipped: Vec::new(), put_bytes: 0 };
    'nodes: for &node in lost {
        let chunk = repaired.chunks[placement.chunk_of(node)].as_slice();
        for (key, blob) in [(manifest_key(version), record), (chunk_key(version), chunk)] {
            match plane.put_local(node, &key, blob.to_vec()) {
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

    /// Where worker `w`'s length field sits in the payload of a record
    /// of `nodes` chunk entries and these headers.
    fn length_at(nodes: usize, headers: &[Vec<u8>], w: usize) -> usize {
        9 + 4 * nodes + headers[..w].iter().map(|h| 4 + h.len()).sum::<usize>()
    }

    proptest::proptest! {
        /// Arbitrary bytes, every truncation and single-bit flip of a
        /// valid record, a header length that points past the end, a
        /// trailing byte, another format byte, a record read for another
        /// number of nodes or workers and a record of the first format
        /// never panic and never decode.
        #[test]
        fn damaged_manifests_never_decode(
            noise in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..80),
            chunks in proptest::collection::vec(proptest::arbitrary::any::<u32>(), 0..6),
            headers in proptest::collection::vec(
                proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..12),
                0..5,
            ),
        ) {
            let (nodes, world) = (chunks.len(), headers.len());
            // Noise decodes only past the format byte and a frame that
            // verifies by chance.
            if noise.first() != Some(&MANIFEST_FORMAT) || open_record(&noise).is_none() {
                proptest::prop_assert_eq!(Manifest::decode(noise, nodes, world), None);
            }
            let record = Manifest::seal(&chunks, &headers);
            let len = 9 + 4 * nodes + headers.iter().map(|h| 4 + h.len()).sum::<usize>() + 4;
            proptest::prop_assert_eq!(record.len(), len);
            let manifest = Manifest::decode(record.clone(), nodes, world).expect("a sealed record");
            proptest::prop_assert_eq!(manifest.chunks(), chunks.as_slice());
            proptest::prop_assert!(manifest.headers().eq(headers.iter().map(Vec::as_slice)));
            proptest::prop_assert_eq!(manifest.record(), record.as_slice());
            // Read by an engine with one node or one worker more or
            // fewer: the record states another shape.
            for (n, w) in [(nodes + 1, world), (nodes, world + 1)]
                .into_iter()
                .chain(nodes.checked_sub(1).map(|n| (n, world)))
                .chain(world.checked_sub(1).map(|w| (nodes, w)))
            {
                proptest::prop_assert_eq!(Manifest::decode(record.clone(), n, w), None);
            }
            for cut in 0..record.len() {
                proptest::prop_assert_eq!(Manifest::decode(record[..cut].to_vec(), nodes, world), None);
            }
            for bit in 0..record.len() * 8 {
                let mut flipped = record.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                proptest::prop_assert_eq!(Manifest::decode(flipped, nodes, world), None);
            }
            // Validly closed, but a length points past the end, or a
            // byte follows the last header.
            let payload = &record[..record.len() - 4];
            if let Some(last) = world.checked_sub(1) {
                let at = length_at(nodes, &headers, last);
                for past in [headers[last].len() as u32 + 1, u32::MAX] {
                    let mut long = payload.to_vec();
                    long[at..at + 4].copy_from_slice(&past.to_le_bytes());
                    proptest::prop_assert_eq!(Manifest::decode(seal_record(long), nodes, world), None);
                }
            }
            let trailing = [payload, &[0]].concat();
            proptest::prop_assert_eq!(Manifest::decode(seal_record(trailing), nodes, world), None);
            // Validly closed, but another format byte.
            for format in [0x00, 0x01, 0x03, 0xFF] {
                let other = [&[format][..], &payload[1..]].concat();
                proptest::prop_assert_eq!(Manifest::decode(seal_record(other), nodes, world), None);
            }
            // The first format: every chunk's and header's CRC-32, no
            // format byte. Its payload, 4(n + W) bytes, is shorter than
            // the 9 + 4(n + W) bytes this format needs before any header
            // byte, so it never decodes — not even when its first byte
            // happens to be the format byte.
            let crcs = chunks.iter().copied().chain(headers.iter().map(|h| crc32(h)));
            let mut v1: Vec<u8> = crcs.flat_map(u32::to_le_bytes).collect();
            proptest::prop_assert_eq!(Manifest::decode(seal_record(v1.clone()), nodes, world), None);
            if let Some(first) = v1.first_mut() {
                *first = MANIFEST_FORMAT;
                proptest::prop_assert_eq!(Manifest::decode(seal_record(v1), nodes, world), None);
            }
        }
    }

    /// The stored bytes of one small record, pinned: format byte, shape
    /// `(n, W) = (2, 2)`, two chunk CRCs, two length-prefixed headers,
    /// the record's CRC-32.
    #[test]
    fn manifest_record_bytes_are_pinned() {
        let headers = [vec![0xA1], vec![0xB2, 0xB3]];
        let record = Manifest::seal(&[0x1122_3344, 0xAABB_CCDD], &headers);
        let hex: String = record.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            concat!(
                "02", "02000000", "02000000", "44332211", "ddccbbaa", "01000000", "a1", "02000000",
                "b2b3", "4ef173d3"
            )
        );
        let manifest = Manifest::decode(record, 2, 2).expect("verifies");
        assert_eq!(manifest.chunks(), [0x1122_3344, 0xAABB_CCDD]);
        assert_eq!(manifest.headers().collect::<Vec<_>>(), [&[0xA1][..], &[0xB2, 0xB3]]);
        // Every other shape reads these bytes as damaged.
        for (nodes, world) in [(1, 2), (3, 2), (2, 1), (2, 3), (3, 1), (1, 3)] {
            let record = Manifest::seal(&[0x1122_3344, 0xAABB_CCDD], &headers);
            assert_eq!(Manifest::decode(record, nodes, world), None, "({nodes}, {world})");
        }
        // Past the stated shape, one chunk CRC of 4 and one empty header
        // are also no chunks and one 4-byte header: only the shape the
        // record states tells the two apart.
        let record = Manifest::seal(&[4], &[[0u8; 0]]);
        assert_eq!(Manifest::decode(record.clone(), 0, 1), None);
        assert!(Manifest::decode(record, 1, 1).is_some());
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
