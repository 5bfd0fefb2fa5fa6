use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

use ecc_cluster::{ClusterError, DataPlane, NodeId};
use ecc_telemetry::Recorder;
use ecc_trace::{Tracer, TrackId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Trace pid for the chaos fault track, after the engine's
/// [`ecc_trace::DRIVER_PID`] and [`ecc_trace::CODING_PID`].
pub const CHAOS_PID: u64 = 1_000_002;

/// What a single injected fault was.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// A node crashed: it stops serving reads/writes and its volatile
    /// blobs are lost (host memory does not survive a power cycle).
    Crash,
    /// A `put_local` transfer was silently dropped — the sender saw
    /// success, the blob was never stored.
    DropPut,
    /// A `put_local` transfer was delivered twice (retransmission).
    /// The blob store is idempotent, so this must be harmless.
    DuplicatePut,
    /// A `put_local` payload had bits flipped in flight.
    CorruptPut,
    /// A stored blob had bits flipped at rest (memory corruption).
    CorruptAtRest,
    /// A `get_local` read transiently returned nothing for a blob that
    /// is actually present; later reads succeed.
    TransientGet,
}

impl FaultKind {
    /// Telemetry counter/event name for this fault kind.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Crash => "chaos.fault.crash",
            FaultKind::DropPut => "chaos.fault.drop_put",
            FaultKind::DuplicatePut => "chaos.fault.duplicate_put",
            FaultKind::CorruptPut => "chaos.fault.corrupt_put",
            FaultKind::CorruptAtRest => "chaos.fault.corrupt_at_rest",
            FaultKind::TransientGet => "chaos.fault.transient_get",
        }
    }
}

/// One injected fault, as recorded in the plane's fault log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// Storage-op counter value when the fault fired (see
    /// [`ChaosPlane::op`]).
    pub op: u64,
    /// What happened.
    pub kind: FaultKind,
    /// The node it happened on.
    pub node: NodeId,
    /// The blob key involved (empty for [`FaultKind::Crash`]).
    pub key: String,
}

/// Which storage tier served a successful fetch (see
/// [`ChaosPlane::fetch_log`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Tier 0: a peer node's host memory (`get_local`).
    Peer,
    /// Tier 1: the remote store of last resort (`get_remote`).
    Remote,
}

impl Tier {
    /// Telemetry counter name for fetches served by this tier.
    pub fn label(self) -> &'static str {
        match self {
            Tier::Peer => "chaos.fetch.peer",
            Tier::Remote => "chaos.fetch.remote",
        }
    }
}

/// One successful blob fetch, with the tier that served it — the
/// provenance record the tiered-store campaigns compare across runs
/// (like the fault log, the sequence must repeat exactly per seed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchRecord {
    /// Storage-op counter value at the fetch. Remote fetches do not
    /// tick the counter (tier 1 is outside the peer op clock), so
    /// theirs is the op of the last local operation before them.
    pub op: u64,
    /// The tier that served the bytes.
    pub tier: Tier,
    /// The serving node for [`Tier::Peer`]; `None` for remote fetches.
    pub node: Option<NodeId>,
    /// The blob key fetched.
    pub key: String,
}

/// Probabilities and knobs of a [`ChaosPlane`].
///
/// All randomness derives from `seed`, so a given (config, workload)
/// pair always injects the identical fault sequence.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// RNG seed for all probabilistic fault draws.
    pub seed: u64,
    /// Probability that a `put_local` is silently dropped.
    pub p_drop_put: f64,
    /// Probability that a `put_local` is delivered twice.
    pub p_duplicate_put: f64,
    /// Probability that a `put_local` payload is bit-flipped in flight.
    pub p_corrupt_put: f64,
    /// Probability that the first `get_local` of a given `(node, key)`
    /// starts a transient outage for that blob.
    pub p_transient_get: f64,
    /// How many consecutive `get_local` calls fail once a transient
    /// outage starts (the blob then reads fine forever).
    pub transient_get_failures: u32,
    /// Upper bound on bits flipped per corruption event (at least 1).
    pub max_bit_flips: usize,
}

impl ChaosConfig {
    /// A configuration that injects nothing on its own: all
    /// probabilities zero. Faults still happen when explicitly
    /// requested ([`ChaosPlane::crash_now`], [`ChaosPlane::corrupt_blob`],
    /// [`ChaosPlane::schedule_crash_at_op`]).
    pub fn quiet(seed: u64) -> Self {
        Self {
            seed,
            p_drop_put: 0.0,
            p_duplicate_put: 0.0,
            p_corrupt_put: 0.0,
            p_transient_get: 0.0,
            transient_get_failures: 1,
            max_bit_flips: 8,
        }
    }

    /// Overrides the drop-put probability.
    pub fn with_drop_put(mut self, p: f64) -> Self {
        self.p_drop_put = p;
        self
    }

    /// Overrides the duplicate-put probability.
    pub fn with_duplicate_put(mut self, p: f64) -> Self {
        self.p_duplicate_put = p;
        self
    }

    /// Overrides the corrupt-put probability.
    pub fn with_corrupt_put(mut self, p: f64) -> Self {
        self.p_corrupt_put = p;
        self
    }

    /// Overrides the transient-get probability and outage length.
    pub fn with_transient_get(mut self, p: f64, failures: u32) -> Self {
        self.p_transient_get = p;
        self.transient_get_failures = failures;
        self
    }
}

/// Interior-mutable chaos state. `get_local` takes `&self` in the
/// [`DataPlane`] trait but must advance the op clock, the RNG, and the
/// transient-outage bookkeeping, hence the [`RefCell`].
#[derive(Debug)]
struct State {
    rng: StdRng,
    op: u64,
    /// Chaos-dead overlay; a node here refuses reads/writes even if
    /// the inner plane still considers it alive.
    dead: BTreeSet<NodeId>,
    /// Dead nodes whose volatile blobs still await deletion from the
    /// inner plane (a crash can fire inside `get_local`, which has no
    /// `&mut` access to the inner plane; the wipe runs at the next
    /// mutable entry point). Always a subset of `dead`.
    pending_wipe: BTreeSet<NodeId>,
    /// Keys written through this plane per node — the node's volatile
    /// contents, i.e. what a crash destroys.
    written: BTreeMap<NodeId, BTreeSet<String>>,
    /// Remaining transient failures per `(node, key)`. An entry at 0
    /// means the outage is over and the blob reads fine forever.
    transient: BTreeMap<(NodeId, String), u32>,
    /// Scheduled `(fire_at_op, node)` crashes, unordered.
    crashes_at: Vec<(u64, NodeId)>,
    log: Vec<FaultRecord>,
    fetches: Vec<FetchRecord>,
}

/// A deterministic fault-injecting wrapper around any [`DataPlane`].
///
/// Every `put_local`/`get_local`/`delete_local` call ticks an op
/// counter; scheduled crashes fire when the counter reaches their op,
/// which is how a test places a crash *between* the gather and restore
/// phases of a single `load` call. Probabilistic faults (drops,
/// duplicates, in-flight corruption, transient reads) draw from one
/// seeded RNG, so a fixed workload replays the identical fault
/// sequence. Remote storage (`put_remote`/`get_remote`) passes through
/// untouched: the paper models it as reliable, slow storage.
#[derive(Debug)]
pub struct ChaosPlane<P: DataPlane> {
    inner: P,
    cfg: ChaosConfig,
    state: RefCell<State>,
    recorder: Recorder,
    trace: Option<(Tracer, TrackId)>,
}

impl<P: DataPlane> ChaosPlane<P> {
    /// Wraps `inner` with the given chaos configuration.
    pub fn new(inner: P, cfg: ChaosConfig) -> Self {
        Self {
            inner,
            cfg,
            state: RefCell::new(State {
                rng: StdRng::seed_from_u64(cfg.seed),
                op: 0,
                dead: BTreeSet::new(),
                pending_wipe: BTreeSet::new(),
                written: BTreeMap::new(),
                transient: BTreeMap::new(),
                crashes_at: Vec::new(),
                log: Vec::new(),
                fetches: Vec::new(),
            }),
            recorder: Recorder::new(),
            trace: None,
        }
    }

    /// The wrapped plane.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Mutable access to the wrapped plane (e.g. to replace a node on
    /// the underlying [`ecc_cluster::Cluster`]).
    pub fn inner_mut(&mut self) -> &mut P {
        &mut self.inner
    }

    /// Unwraps the plane, discarding chaos state.
    pub fn into_inner(self) -> P {
        self.inner
    }

    /// Routes fault counters and events to `recorder` (share the
    /// engine's recorder to interleave faults with recovery metrics).
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// Emits a trace instant per injected fault onto a dedicated
    /// "chaos" track of `tracer`.
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        let track = tracer.track(CHAOS_PID, "chaos", "faults");
        self.trace = Some((tracer.clone(), track));
    }

    /// Current storage-op counter (ticks on every local read, write,
    /// and delete through this plane).
    pub fn op(&self) -> u64 {
        self.state.borrow().op
    }

    /// Everything injected so far, in firing order.
    pub fn fault_log(&self) -> Vec<FaultRecord> {
        self.state.borrow().log.clone()
    }

    /// Every successful fetch so far with its tier provenance, in
    /// serving order — which tier (peer memory vs remote store)
    /// produced each blob the workload read.
    pub fn fetch_log(&self) -> Vec<FetchRecord> {
        self.state.borrow().fetches.clone()
    }

    /// Appends a fetch-provenance record and mirrors it to telemetry.
    fn record_fetch(&self, tier: Tier, node: Option<NodeId>, key: &str) {
        let mut st = self.state.borrow_mut();
        let op = st.op;
        self.recorder.counter(tier.label()).incr();
        st.fetches.push(FetchRecord { op, tier, node, key: key.to_string() });
    }

    /// Crashes `node` immediately: it stops serving and its volatile
    /// blobs (everything written through this plane) are lost.
    pub fn crash_now(&mut self, node: NodeId) {
        let op = self.state.borrow().op;
        self.mark_crashed(node, op);
        self.wipe_pending();
    }

    /// Schedules a crash of `node` the moment the op counter reaches
    /// `at_op` — e.g. `plane.op() + 5` strikes five storage operations
    /// into whatever the engine does next.
    pub fn schedule_crash_at_op(&mut self, node: NodeId, at_op: u64) {
        self.state.borrow_mut().crashes_at.push((at_op, node));
    }

    /// Cancels any scheduled crashes that have not fired yet (a crash
    /// aimed mid-load never fires when the load refuses early; left
    /// armed, it would strike an unrelated later operation).
    pub fn cancel_scheduled_crashes(&mut self) {
        self.state.borrow_mut().crashes_at.clear();
    }

    /// Revives a chaos-crashed node. Its blobs stay lost — host memory
    /// is volatile — so it comes back empty, like a replacement node.
    pub fn heal(&mut self, node: NodeId) {
        self.wipe_pending();
        self.state.borrow_mut().dead.remove(&node);
    }

    /// Flips bits in a stored blob at rest. Returns `false` when the
    /// node is down or the blob does not exist (nothing was injected,
    /// nothing is logged).
    pub fn corrupt_blob(&mut self, node: NodeId, key: &str) -> bool {
        if self.state.borrow().dead.contains(&node) {
            return false;
        }
        let Some(mut blob) = self.inner.get_local(node, key) else {
            return false;
        };
        if blob.is_empty() {
            return false;
        }
        {
            let mut st = self.state.borrow_mut();
            Self::flip_bits(&mut st.rng, &mut blob, self.cfg.max_bit_flips);
            let op = st.op;
            self.record(
                &mut st,
                FaultRecord { op, kind: FaultKind::CorruptAtRest, node, key: key.to_string() },
            );
        }
        self.inner
            .put_local(node, key, blob)
            .expect("rewriting an existing blob in place cannot fail");
        true
    }

    fn flip_bits(rng: &mut StdRng, blob: &mut [u8], max_flips: usize) {
        let flips = rng.gen_range(1..=max_flips.max(1));
        for _ in 0..flips {
            let bit = rng.gen_range(0..blob.len() * 8);
            blob[bit / 8] ^= 1 << (bit % 8);
        }
    }

    /// Appends to the log and mirrors the fault to telemetry/trace.
    fn record(&self, st: &mut State, rec: FaultRecord) {
        self.recorder.counter(rec.kind.label()).incr();
        self.recorder
            .event(rec.kind.label(), format!("op={} node={} key={}", rec.op, rec.node, rec.key));
        if let Some((tracer, track)) = &self.trace {
            tracer.instant(*track, rec.kind.label(), format!("node={} key={}", rec.node, rec.key));
        }
        st.log.push(rec);
    }

    fn mark_crashed(&self, node: NodeId, op: u64) {
        let mut st = self.state.borrow_mut();
        if st.dead.contains(&node) {
            return;
        }
        st.dead.insert(node);
        st.pending_wipe.insert(node);
        self.record(&mut st, FaultRecord { op, kind: FaultKind::Crash, node, key: String::new() });
    }

    /// Deletes the volatile blobs of freshly-crashed nodes from the
    /// inner plane. Needs `&mut self`, so `&self` paths only queue the
    /// wipe; until it runs, the dead overlay already hides the blobs.
    fn wipe_pending(&mut self) {
        let pending: Vec<NodeId> = {
            let mut st = self.state.borrow_mut();
            std::mem::take(&mut st.pending_wipe).into_iter().collect()
        };
        for node in pending {
            let keys: Vec<String> = {
                let mut st = self.state.borrow_mut();
                st.written.remove(&node).unwrap_or_default().into_iter().collect()
            };
            for key in keys {
                self.inner.delete_local(node, &key);
            }
        }
    }

    /// Advances the op clock and fires any due scheduled crashes.
    fn tick(&self) {
        let due: Vec<(u64, NodeId)> = {
            let mut st = self.state.borrow_mut();
            st.op += 1;
            let op = st.op;
            let (due, rest) = st.crashes_at.iter().copied().partition(|&(at, _)| at <= op);
            st.crashes_at = rest;
            due
        };
        for (_, node) in due {
            let op = self.state.borrow().op;
            self.mark_crashed(node, op);
        }
    }
}

impl<P: DataPlane> DataPlane for ChaosPlane<P> {
    fn nodes(&self) -> usize {
        self.inner.nodes()
    }

    fn alive(&self, node: NodeId) -> bool {
        !self.state.borrow().dead.contains(&node) && self.inner.alive(node)
    }

    fn put_local(&mut self, node: NodeId, key: &str, bytes: Vec<u8>) -> Result<(), ClusterError> {
        self.tick();
        self.wipe_pending();
        if self.state.borrow().dead.contains(&node) {
            return Err(ClusterError::NodeDown { node });
        }
        let mut bytes = bytes;
        // Draw all three fault decisions unconditionally so the RNG
        // stream does not depend on which faults fire.
        let (dropped, duplicated) = {
            let mut st = self.state.borrow_mut();
            let dropped = st.rng.gen_bool(self.cfg.p_drop_put);
            let corrupt = st.rng.gen_bool(self.cfg.p_corrupt_put);
            let duplicated = st.rng.gen_bool(self.cfg.p_duplicate_put);
            let op = st.op;
            if dropped {
                self.record(
                    &mut st,
                    FaultRecord { op, kind: FaultKind::DropPut, node, key: key.to_string() },
                );
            } else {
                if corrupt && !bytes.is_empty() {
                    Self::flip_bits(&mut st.rng, &mut bytes, self.cfg.max_bit_flips);
                    self.record(
                        &mut st,
                        FaultRecord { op, kind: FaultKind::CorruptPut, node, key: key.to_string() },
                    );
                }
                if duplicated {
                    self.record(
                        &mut st,
                        FaultRecord {
                            op,
                            kind: FaultKind::DuplicatePut,
                            node,
                            key: key.to_string(),
                        },
                    );
                }
            }
            (dropped, duplicated)
        };
        if dropped {
            // The sender sees success; the blob never lands.
            return Ok(());
        }
        if duplicated {
            // Retransmission: deliver the same payload twice. The blob
            // store overwrites in place, which is exactly the
            // idempotency the engine relies on.
            self.inner.put_local(node, key, bytes.clone())?;
        }
        self.state.borrow_mut().written.entry(node).or_default().insert(key.to_string());
        self.inner.put_local(node, key, bytes)
    }

    fn get_local(&self, node: NodeId, key: &str) -> Option<Vec<u8>> {
        self.tick();
        {
            let mut st = self.state.borrow_mut();
            if st.dead.contains(&node) {
                return None;
            }
            if self.cfg.p_transient_get > 0.0 {
                let outage_key = (node, key.to_string());
                let op = st.op;
                match st.transient.get_mut(&outage_key) {
                    Some(0) => {} // outage over; reads fine forever
                    Some(remaining) => {
                        *remaining -= 1;
                        self.record(
                            &mut st,
                            FaultRecord {
                                op,
                                kind: FaultKind::TransientGet,
                                node,
                                key: key.to_string(),
                            },
                        );
                        return None;
                    }
                    None => {
                        if st.rng.gen_bool(self.cfg.p_transient_get) {
                            let remaining = self.cfg.transient_get_failures.saturating_sub(1);
                            st.transient.insert(outage_key, remaining);
                            self.record(
                                &mut st,
                                FaultRecord {
                                    op,
                                    kind: FaultKind::TransientGet,
                                    node,
                                    key: key.to_string(),
                                },
                            );
                            return None;
                        }
                        st.transient.insert(outage_key, 0);
                    }
                }
            }
        }
        let got = self.inner.get_local(node, key);
        if got.is_some() {
            self.record_fetch(Tier::Peer, Some(node), key);
        }
        got
    }

    fn delete_local(&mut self, node: NodeId, key: &str) {
        self.tick();
        self.wipe_pending();
        if self.state.borrow().dead.contains(&node) {
            return;
        }
        if let Some(keys) = self.state.borrow_mut().written.get_mut(&node) {
            keys.remove(key);
        }
        self.inner.delete_local(node, key);
    }

    fn put_remote(&mut self, key: &str, bytes: Vec<u8>) {
        self.inner.put_remote(key, bytes);
    }

    fn get_remote(&self, key: &str) -> Option<Vec<u8>> {
        // Remote passthrough stays untouched by faults, but its
        // provenance is recorded: a restore that was served by tier 1
        // must say so, identically under either save executor.
        let got = self.inner.get_remote(key);
        if got.is_some() {
            self.record_fetch(Tier::Remote, None, key);
        }
        got
    }

    fn local_keys(&self, node: NodeId) -> Vec<String> {
        // Key listing is a control-plane query, not a storage op: no
        // tick, no faults — but the dead overlay still hides the node.
        if self.state.borrow().dead.contains(&node) {
            return Vec::new();
        }
        self.inner.local_keys(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecc_cluster::{Cluster, ClusterSpec};

    fn plane(cfg: ChaosConfig) -> ChaosPlane<Cluster> {
        ChaosPlane::new(Cluster::new(ClusterSpec::tiny_test(4, 1)), cfg)
    }

    #[test]
    fn quiet_plane_is_transparent() {
        let mut p = plane(ChaosConfig::quiet(1));
        p.put_local(0, "a", vec![1, 2, 3]).unwrap();
        assert_eq!(p.get_local(0, "a"), Some(vec![1u8, 2, 3]));
        p.delete_local(0, "a");
        assert!(p.get_local(0, "a").is_none());
        assert!(p.fault_log().is_empty());
        assert_eq!(p.op(), 4);
    }

    #[test]
    fn crash_hides_and_wipes_written_blobs() {
        let mut p = plane(ChaosConfig::quiet(1));
        p.put_local(2, "a", vec![9; 16]).unwrap();
        p.crash_now(2);
        assert!(!p.alive(2));
        assert!(p.get_local(2, "a").is_none());
        assert!(matches!(p.put_local(2, "b", vec![1]), Err(ClusterError::NodeDown { node: 2 })));
        p.heal(2);
        assert!(p.alive(2));
        // Volatile memory did not survive the crash.
        assert!(p.get_local(2, "a").is_none());
        assert!(p.inner().get_local(2, "a").is_none());
        assert_eq!(p.fault_log().len(), 1);
        assert_eq!(p.fault_log()[0].kind, FaultKind::Crash);
    }

    #[test]
    fn scheduled_crash_fires_mid_sequence_even_from_reads() {
        let mut p = plane(ChaosConfig::quiet(1));
        p.put_local(1, "a", vec![7; 8]).unwrap();
        p.schedule_crash_at_op(1, p.op() + 2);
        assert_eq!(p.get_local(1, "a"), Some(vec![7u8; 8])); // op+1: alive
        assert!(p.get_local(1, "a").is_none()); // op+2: crash fires
        assert!(!p.alive(1));
        // The wipe was queued from the `&self` read path and runs at
        // the next mutable entry point.
        p.heal(1);
        assert!(p.inner().get_local(1, "a").is_none());
    }

    #[test]
    fn dropped_put_never_lands() {
        let mut p = plane(ChaosConfig::quiet(3).with_drop_put(1.0));
        p.put_local(0, "a", vec![1, 2, 3]).unwrap();
        assert!(p.get_local(0, "a").is_none());
        assert_eq!(p.fault_log().len(), 1);
        assert_eq!(p.fault_log()[0].kind, FaultKind::DropPut);
    }

    #[test]
    fn corrupt_put_flips_bits_in_flight() {
        let mut p = plane(ChaosConfig::quiet(3).with_corrupt_put(1.0));
        let original = vec![0u8; 64];
        p.put_local(0, "a", original.clone()).unwrap();
        let stored = p.get_local(0, "a").unwrap();
        assert_eq!(stored.len(), original.len());
        assert_ne!(stored, original);
        assert!(p.fault_log().iter().any(|f| f.kind == FaultKind::CorruptPut));
    }

    #[test]
    fn duplicated_put_is_idempotent() {
        let mut p = plane(ChaosConfig::quiet(3).with_duplicate_put(1.0));
        p.put_local(0, "a", vec![5; 32]).unwrap();
        assert_eq!(p.get_local(0, "a"), Some(vec![5u8; 32]));
        assert!(p.fault_log().iter().any(|f| f.kind == FaultKind::DuplicatePut));
    }

    #[test]
    fn transient_get_recovers_after_configured_failures() {
        let mut p = plane(ChaosConfig::quiet(3).with_transient_get(1.0, 2));
        p.put_local(0, "a", vec![1]).unwrap();
        assert!(p.get_local(0, "a").is_none());
        assert!(p.get_local(0, "a").is_none());
        assert_eq!(p.get_local(0, "a"), Some(vec![1u8]));
        assert_eq!(p.get_local(0, "a"), Some(vec![1u8]));
        let transients = p.fault_log().iter().filter(|f| f.kind == FaultKind::TransientGet).count();
        assert_eq!(transients, 2);
    }

    #[test]
    fn corrupt_blob_at_rest_changes_stored_bytes() {
        let mut p = plane(ChaosConfig::quiet(3));
        p.put_local(1, "a", vec![0xAA; 16]).unwrap();
        assert!(p.corrupt_blob(1, "a"));
        assert_ne!(p.get_local(1, "a").unwrap(), &[0xAA; 16][..]);
        assert!(!p.corrupt_blob(1, "missing"));
        p.crash_now(1);
        assert!(!p.corrupt_blob(1, "a"));
    }

    #[test]
    fn same_seed_same_workload_same_fault_log() {
        let run = || {
            let mut p = plane(
                ChaosConfig::quiet(42)
                    .with_drop_put(0.3)
                    .with_corrupt_put(0.3)
                    .with_transient_get(0.3, 1),
            );
            for i in 0..40u8 {
                let node = usize::from(i % 4);
                p.put_local(node, &format!("k{i}"), vec![i; 24]).unwrap();
                let _ = p.get_local(node, &format!("k{i}"));
            }
            p.fault_log()
        };
        let a = run();
        assert!(!a.is_empty());
        assert_eq!(a, run());
    }

    #[test]
    fn faults_reach_telemetry_and_trace() {
        let mut p = plane(ChaosConfig::quiet(1));
        let recorder = Recorder::new();
        let tracer = Tracer::for_recorder(&recorder);
        p.set_recorder(recorder.clone());
        p.set_tracer(&tracer);
        p.put_local(0, "a", vec![1; 8]).unwrap();
        p.corrupt_blob(0, "a");
        p.crash_now(3);
        assert_eq!(recorder.counter(FaultKind::CorruptAtRest.label()).get(), 1);
        assert_eq!(recorder.counter(FaultKind::Crash.label()).get(), 1);
        assert!(!tracer.is_empty());
    }
}
