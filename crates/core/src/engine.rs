//! The ECCheck engine: real-byte save and load over a simulated cluster.
//!
//! `save` executes the paper's checkpoint protocol (§III, Fig. 5/6) on
//! actual memory: decompose each worker's `state_dict`
//! (serialization-free, §III-C), lay its tensor data head to tail into
//! its packet-aligned region of one of the `k` data chunks, encode `m`
//! parity chunks with the Cauchy Reed–Solomon code, and place every
//! chunk on its node. `load`
//! executes the two recovery workflows (§III-B, Fig. 7) and reconstructs
//! every worker's `state_dict` bit-exactly.
//!
//! Timing is *not* modelled here — see [`crate::timing`]; this module is
//! the correctness plane.

use std::collections::{BTreeMap, BTreeSet};

use ecc_checkpoint::{crc32, decompose_views, reassemble_region, CheckpointError, StateDict};
use ecc_cluster::{ClusterError, ClusterSpec, DataPlane, HealthConfig, HealthRegistry};
use ecc_erasure::{CodeParams, ErasureCode};
use ecc_obs::{ObsHub, ObsHubConfig, ObsServer, SloSpec};
use ecc_sim::{Bandwidth, BusyWindows, SlotGate};
use ecc_telemetry::Recorder;
use ecc_trace::{Tracer, TrackId, DRIVER_PID};

use crate::keys::{chunk_key, committed_epoch, manifest_key};
use crate::pipeline::{self, PipelineJob, PipelineOutcome};
use crate::store::{
    gather, repair_version, sealed, DrainHandle, Gathered, Manifest, Repaired, RetentionPolicy,
    Verified, VersionIndex, WorkerDirtySet,
};
use crate::{
    select_data_parity_nodes, DeltaReport, EcCheckConfig, EcCheckError, LoadReport, Placement,
    RecoveryWorkflow, ReductionPlan, SaveReport,
};

/// The ECCheck checkpointing system (paper §III).
///
/// See the crate-level example for end-to-end usage.
#[derive(Debug)]
pub struct EcCheck {
    config: EcCheckConfig,
    spec: ClusterSpec,
    code: ErasureCode,
    placement: Placement,
    reduction: ReductionPlan,
    version: u64,
    /// The placement epoch this engine operates under. 0 until a
    /// membership controller commits a rebalance; strictly monotone
    /// thereafter (see [`EcCheck::apply_placement`]). Save and load
    /// refuse to move chunks when the plane's committed epoch is newer
    /// — a stale engine writing through an outdated assignment would
    /// silently break the m-fault guarantee.
    placement_epoch: u64,
    recorder: Recorder,
    trace: Option<TraceHandles>,
    /// Profiled network-busy windows + wire bandwidth for idle-slot
    /// gating of a save's transfers (paper §IV-B-3).
    idle_profile: Option<(BusyWindows, Bandwidth)>,
    /// Chaos fail point: the encode worker picking up stripe `n` panics
    /// (see [`EcCheck::set_fail_encode_task`]).
    fail_encode_task: Option<u64>,
    /// The health registry handed out by [`EcCheck::obs_hub`], if any.
    /// Checkpoint traffic doubles as liveness evidence: a successful
    /// save heartbeats every node, a load heartbeats each node whose
    /// chunk arrived intact.
    health: Option<HealthRegistry>,
    /// Tier-0 retention index: every checkpoint version currently
    /// restorable from cluster memory, ascending. Saves append to it;
    /// the retention GC pass prunes it (never the newest entry).
    index: VersionIndex,
    /// Handle to an asynchronous tier-0 → tier-1 drain worker, if one
    /// is attached (see [`EcCheck::set_drainer`]). Every sealed save is
    /// enqueued here, and versions still pending a drain are pinned
    /// against GC so the copy source cannot vanish mid-drain.
    drain: Option<DrainHandle>,
}

/// Tracing handles for the engine: the driver's `engine` track hosts the
/// `ecc.{save,load,delta}` root spans and their phase children;
/// per-node `storage` tracks receive the chunk store/fetch flows.
#[derive(Debug, Clone)]
pub(crate) struct TraceHandles {
    pub(crate) tracer: Tracer,
    pub(crate) engine: TrackId,
}

impl TraceHandles {
    fn attach(tracer: &Tracer) -> Self {
        Self { tracer: tracer.clone(), engine: tracer.track(DRIVER_PID, "driver", "engine") }
    }

    /// The `storage` track of simulated node `node` (pid = node index).
    pub(crate) fn node_track(&self, node: usize) -> TrackId {
        self.tracer.track(node as u64, &format!("node{node}"), "storage")
    }
}

impl EcCheck {
    /// `eccheck.initialize`: validates the configuration, builds the
    /// encoding matrix, and runs data/parity node selection and
    /// reduction-target planning (paper §V-A).
    ///
    /// # Errors
    ///
    /// Returns [`EcCheckError::Config`] for invalid combinations and
    /// propagates erasure-code construction failures.
    pub fn initialize(spec: &ClusterSpec, config: EcCheckConfig) -> Result<Self, EcCheckError> {
        config.validate(spec.nodes(), spec.world_size())?;
        let params = CodeParams::new(config.k(), config.m(), config.w())?;
        let recorder = Recorder::new();
        let mut code = ErasureCode::cauchy_good(params)?;
        code.set_recorder(&recorder);
        let placement = select_data_parity_nodes(&spec.origin_group(), config.k())?;
        let reduction = ReductionPlan::build(spec, &placement, config.m())?;
        Ok(Self {
            config,
            spec: *spec,
            code,
            placement,
            reduction,
            version: 0,
            placement_epoch: 0,
            recorder,
            trace: None,
            idle_profile: None,
            fail_encode_task: None,
            health: None,
            index: VersionIndex::new(),
            drain: None,
        })
    }

    /// Attaches a profiled training iteration — its network-busy windows
    /// and the checkpoint wire bandwidth — so saves gate their chunk
    /// transfers into the idle slots (paper §IV-B-3). Gating is virtual
    /// time: stores still complete immediately on the in-memory data
    /// plane, but each save deterministically accounts when its transfers
    /// would start, finish and wait on the profiled wire (see
    /// [`crate::PipelineStats`] and the `ecc.pipeline.slot_*` counters).
    ///
    /// Attaching a profile is what arms the gate: every full save from
    /// here on is gated until [`EcCheck::clear_idle_profile`].
    pub fn set_idle_profile(&mut self, windows: BusyWindows, wire: Bandwidth) {
        self.idle_profile = Some((windows, wire));
    }

    /// Removes the idle-slot profile; subsequent saves transfer ungated.
    pub fn clear_idle_profile(&mut self) {
        self.idle_profile = None;
    }

    /// The attached idle-slot profile, if any.
    pub fn idle_profile(&self) -> Option<(&BusyWindows, Bandwidth)> {
        self.idle_profile.as_ref().map(|(w, b)| (w, *b))
    }

    /// The telemetry recorder this engine reports into. Snapshot it to
    /// inspect per-phase save latencies, coding throughput and recovery
    /// workflow counts.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Replaces the telemetry recorder (e.g. with one driven by a
    /// simulated clock) and re-attaches the erasure code to it. Metrics
    /// already recorded stay with the old recorder.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.code.set_recorder(&recorder);
        self.recorder = recorder;
        // Keep the span timeline on the same epoch as the new recorder's
        // event log (the two are meant to be cross-referenced).
        if self.trace.is_some() {
            self.attach_tracer();
        }
    }

    /// Builds a span tracer on the recorder's clock (one shared epoch, so
    /// trace timestamps and `Recorder::snapshot` event timestamps are
    /// directly comparable), wires it through the erasure code, and
    /// returns a handle for exporting.
    pub fn attach_tracer(&mut self) -> Tracer {
        let tracer = Tracer::for_recorder(&self.recorder);
        self.set_tracer(&tracer);
        tracer
    }

    /// Attaches an existing span tracer (e.g. one shared with other
    /// engines) to the save/load/delta paths and the erasure code.
    /// Prefer [`EcCheck::attach_tracer`], which also aligns the
    /// tracer's clock epoch with the recorder's.
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        self.code.set_tracer(tracer);
        self.trace = Some(TraceHandles::attach(tracer));
    }

    /// The active configuration.
    pub fn config(&self) -> &EcCheckConfig {
        &self.config
    }

    /// The default service-level objectives for this deployment,
    /// covering the paper's three headline claims (§IV, Table I):
    ///
    /// * `save_stall` — 99% of saves stall training for ≤ 250 ms;
    /// * `recovery` — 99% of restores complete within 1 s;
    /// * `traffic` — per-save network traffic stays within the m·s·W
    ///   bound, expressed as `ecc.save.traffic_bytes` ≤ k ×
    ///   `ecc.save.bytes_encoded` (encoded parity bytes are m·s·W/k).
    pub fn default_slos(&self) -> Vec<SloSpec> {
        vec![
            SloSpec::latency(
                "save_stall",
                "99% of saves stall training for at most 250ms",
                "ecc.save.ns",
                250_000_000,
                0.99,
            ),
            SloSpec::latency(
                "recovery",
                "99% of restores complete within 1s",
                "ecc.load.ns",
                1_000_000_000,
                0.99,
            ),
            SloSpec::ratio(
                "traffic",
                "per-save network traffic stays within the m*s*W bound",
                "ecc.save.traffic_bytes",
                "ecc.save.bytes_encoded",
                self.config.k() as f64,
            ),
        ]
    }

    /// Builds the observability hub for this engine: a read-only view
    /// over the recorder with the default windowed histograms, the
    /// [`EcCheck::default_slos`] objectives, and a heartbeat-driven
    /// [`HealthRegistry`] spanning every cluster node (seeded alive at
    /// the current clock; drive it via [`ObsHub::health`]). The engine
    /// keeps a handle to the registry: each successful save heartbeats
    /// every node, and each load heartbeats the nodes whose chunks
    /// arrived intact — checkpoint traffic doubles as liveness
    /// evidence, so a quiet engine goes `Suspect` and a failed node
    /// stops heartbeating on its own.
    ///
    /// The hub never writes to the recorder, so attaching it leaves
    /// telemetry snapshots and traces byte-identical.
    pub fn obs_hub(&mut self) -> ObsHub {
        let config = ObsHubConfig { slos: self.default_slos(), ..ObsHubConfig::default() };
        let health = HealthRegistry::new(self.spec.nodes(), HealthConfig::default());
        let now = self.recorder.now_ns();
        for node in 0..self.spec.nodes() {
            health.record_heartbeat(node, now);
        }
        self.health = Some(health.clone());
        ObsHub::new(self.recorder.clone(), config).with_health(health)
    }

    /// Records a liveness heartbeat for `node` on the registry handed
    /// out by [`EcCheck::obs_hub`]; a no-op when none is attached.
    fn heartbeat(&self, node: usize) {
        if let Some(health) = &self.health {
            health.record_heartbeat(node, self.recorder.now_ns());
        }
    }

    /// Starts the live observability exporter on `addr` (use port 0 for
    /// an ephemeral port), serving `/metrics`, `/health`, `/ready` and
    /// `/events` over this engine's recorder. The returned server owns
    /// its threads; drop it (or call [`ObsServer::shutdown`]) to stop.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the address is unavailable.
    pub fn serve_obs(&mut self, addr: &str) -> std::io::Result<ObsServer> {
        ObsServer::serve(std::sync::Arc::new(self.obs_hub()), addr)
    }

    /// Arms (or disarms, with `None`) the save executor's encode-worker
    /// fail point — chaos tests save a healthy checkpoint first, then
    /// kill a worker mid-save on the next one: the worker that picks up
    /// stripe `n` (0-based; stripes are picked up in order) panics,
    /// exercising the executor's clean-failure path.
    #[doc(hidden)]
    pub fn set_fail_encode_task(&mut self, n: Option<u64>) {
        self.fail_encode_task = n;
    }

    /// The node placement chosen at initialization.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The placement epoch this engine operates under (0 = no
    /// membership controller has ever rebalanced this cluster).
    pub fn placement_epoch(&self) -> u64 {
        self.placement_epoch
    }

    /// Adopts a new placement committed by a membership controller.
    /// Rebuilds the reduction plan for the new assignment and
    /// fast-forwards the engine to `epoch`. Epochs are strictly
    /// monotone: the controller bumps the epoch only after verifying
    /// the m-fault guarantee on the new layout, so accepting an old
    /// epoch would rewind the engine onto a layout the chunks no
    /// longer match.
    ///
    /// # Errors
    ///
    /// Returns [`EcCheckError::StaleEpoch`] when `epoch` is not
    /// strictly newer than the engine's, and [`EcCheckError::Config`]
    /// when the placement's (k, m) split or node ids do not fit this
    /// engine's configuration and cluster.
    pub fn apply_placement(
        &mut self,
        epoch: u64,
        placement: Placement,
    ) -> Result<(), EcCheckError> {
        if epoch <= self.placement_epoch {
            return Err(EcCheckError::StaleEpoch {
                engine: self.placement_epoch,
                committed: epoch,
            });
        }
        let (k, m, n) = (self.config.k(), self.config.m(), self.spec.nodes());
        if placement.k() != k || placement.m() != m {
            return Err(EcCheckError::Config {
                detail: format!(
                    "placement is ({}, {}) but the engine encodes ({k}, {m})",
                    placement.k(),
                    placement.m()
                ),
            });
        }
        if let Some(&bad) =
            placement.data_nodes().iter().chain(placement.parity_nodes()).find(|&&id| id >= n)
        {
            return Err(EcCheckError::Config {
                detail: format!("placement names node {bad}, cluster has {n}"),
            });
        }
        let reduction = ReductionPlan::build(&self.spec, &placement, m)?;
        let old = self.placement_epoch;
        self.placement = placement;
        self.reduction = reduction;
        self.placement_epoch = epoch;
        self.recorder.counter("ecc.placement.applied").incr();
        self.recorder.counter("ecc.placement.epoch").add(epoch - old);
        self.recorder.event("ecc.placement", format!("applied placement epoch {old} -> {epoch}"));
        Ok(())
    }

    /// Refuses to proceed when the plane's committed placement epoch is
    /// newer than this engine's — the stale-epoch fence guarding every
    /// operation that moves chunks by placement.
    fn ensure_fresh_epoch(&self, cluster: &impl DataPlane) -> Result<(), EcCheckError> {
        self.recorder.counter("ecc.epoch.checks").incr();
        match committed_epoch(cluster) {
            Some(committed) if committed > self.placement_epoch => {
                self.recorder.counter("ecc.epoch.stale_refusals").incr();
                self.recorder.event(
                    "ecc.epoch.stale",
                    format!(
                        "engine at epoch {}, plane committed {committed}",
                        self.placement_epoch
                    ),
                );
                Err(EcCheckError::StaleEpoch { engine: self.placement_epoch, committed })
            }
            _ => Ok(()),
        }
    }

    /// The reduction plan chosen at initialization.
    pub fn reduction(&self) -> &ReductionPlan {
        &self.reduction
    }

    /// The erasure code in use.
    pub fn code(&self) -> &ErasureCode {
        &self.code
    }

    /// Version of the latest completed checkpoint (0 = none yet).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Every checkpoint version currently restorable from tier 0
    /// (cluster memory), ascending — the retention index. The newest
    /// entry is never garbage-collected; older entries survive
    /// according to the configured retention policy (see
    /// [`EcCheckConfig::with_retain_last`] and
    /// [`EcCheckConfig::with_retain_every`]). Restore any of them with
    /// [`EcCheck::load_version`].
    pub fn retained_versions(&self) -> Vec<u64> {
        self.index.versions().to_vec()
    }

    /// Attaches a drain worker: from now on every sealed save version
    /// is enqueued for an asynchronous tier-0 → tier-1 copy (see
    /// [`crate::store::Drainer`]), and versions still pending a drain
    /// are pinned against garbage collection. The handle's plane must
    /// view the same storage this engine saves through (e.g. a
    /// [`ecc_cluster::SharedPlane`] clone).
    pub fn set_drainer(&mut self, drain: DrainHandle) {
        self.drain = Some(drain);
    }

    /// Adopts a checkpoint this engine did not write, so a fresh
    /// process can [`EcCheck::load`] state saved by another one (e.g.
    /// over a socket-backed plane). Checks that `version` was sealed —
    /// its manifest is on some alive node, or on the remote copy — and
    /// fast-forwards the engine to that version. Presence is all that
    /// is checked here: the restore that follows verifies the record
    /// and every blob against it, and derives the packet lay-out from
    /// the verified chunks. Use
    /// [`crate::keys::latest_manifest_version`] to discover the newest
    /// version on a plane.
    ///
    /// # Errors
    ///
    /// Returns [`EcCheckError::NoCheckpoint`] when no alive node (and
    /// not remote storage either) holds a manifest for `version`.
    pub fn adopt_version(
        &mut self,
        cluster: &impl DataPlane,
        version: u64,
    ) -> Result<(), EcCheckError> {
        if !sealed(cluster, version) {
            return Err(EcCheckError::NoCheckpoint);
        }
        self.version = version;
        // Rebuild the retention index from what the plane actually
        // holds — the adopting engine did not watch the saves happen.
        self.index = VersionIndex::rebuild(cluster);
        self.index.record(version);
        // Adopt the plane's committed placement epoch alongside the
        // checkpoint. The committed layout is always the sweep-line
        // assignment over the (unchanged) origin group — rebalances
        // swap node *incarnations*, not chunk positions — so a freshly
        // initialized engine's placement already matches it and only
        // the epoch number needs fast-forwarding.
        if let Some(committed) = committed_epoch(cluster) {
            if committed > self.placement_epoch {
                self.recorder.counter("ecc.placement.epoch").add(committed - self.placement_epoch);
                self.placement_epoch = committed;
            }
        }
        self.recorder.counter("ecc.adopt.calls").incr();
        self.recorder.event(
            "ecc.adopt",
            format!("adopted checkpoint v{version} @ epoch {}", self.placement_epoch),
        );
        Ok(())
    }

    /// `eccheck.save`: checkpoints all workers' `state_dict`s into
    /// erasure-coded host memory across the cluster.
    ///
    /// `state_dicts[w]` is worker `w`'s shard. Returns a report with the
    /// packet layout and traffic accounting.
    ///
    /// # Errors
    ///
    /// Returns [`EcCheckError::Config`] when the shard count differs
    /// from the world size, and propagates packing/coding/cluster
    /// failures (e.g. a node dying mid-save).
    pub fn save(
        &mut self,
        cluster: &mut impl DataPlane,
        state_dicts: &[StateDict],
    ) -> Result<SaveReport, EcCheckError> {
        let world = self.spec.world_size();
        if state_dicts.len() != world {
            return Err(EcCheckError::Config {
                detail: format!("expected {world} state_dicts, got {}", state_dicts.len()),
            });
        }
        self.ensure_fresh_epoch(cluster)?;
        let version = self.version + 1;
        let ps = self.config.packet_size();
        let save_timer = self.recorder.timer("ecc.save.ns");
        let trace = self.trace.clone();
        let root_span = trace
            .as_ref()
            .map(|t| t.tracer.span(t.engine, "ecc.save", format!("version={version}")));

        // Step 1: decompose every shard (tensor data leaves "GPU"
        // memory); its tiny header rides in the manifest (step 2).
        let phase = self.recorder.timer("ecc.save.decompose_ns");
        let span = trace.as_ref().map(|t| t.tracer.span(t.engine, "save.decompose", ""));
        let (headers, tensors): (Vec<Vec<u8>>, Vec<Vec<&[u8]>>) =
            state_dicts.iter().map(decompose_views).unzip();
        drop(span);
        drop(phase);

        // Step 3a: build the k data chunks. Chunk j holds the regions of
        // data group j's workers in relative-worker order — the layout
        // reduction groups operate on. A region is the worker's tensors
        // head to tail, zero-padded to the common packet count — laid
        // straight from the caller's buffers, their one copy.
        let phase = self.recorder.timer("ecc.save.pack_ns");
        let span = trace
            .as_ref()
            .map(|t| t.tracer.span(t.engine, "checkpoint.pack", format!("{world} workers")));
        let max_packets = state_dicts
            .iter()
            .map(|sd| sd.tensor_bytes().div_ceil(ps).max(1))
            .max()
            .expect("world size > 0");
        let region_len = max_packets * ps;
        let group_size = self.placement.group_size();
        let data_chunks: Vec<Vec<u8>> = tensors
            .chunks(group_size)
            .map(|group| {
                let mut chunk = Vec::with_capacity(group_size * region_len);
                for worker in group {
                    lay_region(&mut chunk, worker, region_len);
                }
                chunk
            })
            .collect();
        drop(span);
        drop(phase);

        // Steps 3c + 3d: encode parity and place every chunk.
        let PipelineOutcome { encoded_bytes, stats: pipeline_stats, chunk_crcs, .. } =
            self.encode_and_place(cluster, version, data_chunks, &trace)?;

        // Step 2: the manifest — every chunk's CRC and every worker's
        // header in one record — goes to every node (tiny, ungated),
        // after the chunks, so its presence seals what it names.
        let record = Manifest::seal(&chunk_crcs, &headers);
        let span = trace.as_ref().map(|t| t.tracer.span(t.engine, "save.manifest", ""));
        broadcast(cluster, 0..self.spec.nodes(), &manifest_key(version), record)?;
        drop(span);

        // Seal the new version in the retention index, hand it to the
        // drain worker (step 4: the tier-0 → tier-1 copy, off the
        // critical path), then collect whatever the retention policy
        // allows — never the version just sealed, never one still
        // pending a drain.
        self.version = version;
        self.index.record(version);
        if let Some(drain) = &self.drain {
            drain.enqueue(version, world);
        }
        self.collect_garbage(cluster);

        let traffic = self.reduction.traffic(region_len as u64);
        save_timer.stop();
        drop(root_span);
        self.recorder.counter("ecc.save.calls").incr();
        self.recorder.counter("ecc.save.bytes_encoded").add(encoded_bytes);
        self.recorder.counter("ecc.save.traffic_bytes").add(traffic.total());
        self.recorder
            .event("ecc.save", format!("version={version} packets_per_worker={max_packets}"));
        // A completed save placed chunks on every node — that's a
        // liveness proof for each of them.
        for node in 0..self.spec.nodes() {
            self.heartbeat(node);
        }
        Ok(SaveReport {
            version,
            packet_size: ps,
            packets_per_worker: max_packets,
            encoded_bytes,
            traffic,
            pipeline: Some(pipeline_stats),
        })
    }

    /// One retention GC pass over tier 0: deletes every version the
    /// policy lets go (see [`VersionIndex::collectible`]) and prunes
    /// the index. Safety invariant: the newest restorable version is
    /// never collected (the policy clamps `keep_last >= 1`), and a
    /// version still queued for a tier-1 drain is pinned until its
    /// copy completes. Tier-1 copies are never deleted here — the
    /// remote store is append-only by design, so a catastrophic
    /// restore always has every drained version to fall back on.
    fn collect_garbage(&mut self, cluster: &mut impl DataPlane) {
        let policy = RetentionPolicy::from_config(&self.config);
        let pinned = self.drain.as_ref().map(DrainHandle::pending).unwrap_or_default();
        for old in self.index.collectible(&policy, &pinned) {
            for node in 0..self.spec.nodes() {
                cluster.delete_local(node, &manifest_key(old));
                cluster.delete_local(node, &chunk_key(old));
            }
            self.index.remove(old);
            self.recorder.counter("ecc.gc.collected").incr();
            self.recorder.event("ecc.gc", format!("collected tier-0 v{old}"));
        }
    }

    /// Steps 3c + 3d, the paper's coding pipeline (§IV-C): the coding
    /// threads encode one stripe per task straight into the parity
    /// chunks, then every chunk is stored, gated into profiled network
    /// idle slots when a profile is attached. See [`crate::pipeline`]'s
    /// module docs for the dataflow.
    fn encode_and_place(
        &mut self,
        cluster: &mut impl DataPlane,
        version: u64,
        data_chunks: Vec<Vec<u8>>,
        trace: &Option<TraceHandles>,
    ) -> Result<PipelineOutcome, EcCheckError> {
        // A fresh gate per save: the profile describes one training
        // iteration, and determinism wants every save to schedule
        // against the same virtual timeline.
        let gate =
            self.idle_profile.as_ref().map(|(windows, wire)| SlotGate::new(windows.clone(), *wire));
        if let Some(t) = trace {
            // The worker count is deliberately absent: traces are
            // byte-identical across thread counts (see
            // `tests/pipeline_determinism.rs`); threads live in
            // `PipelineStats::encode_workers` instead.
            t.tracer.instant(
                t.engine,
                "save.pipeline",
                format!("buffer={} gated={}", self.config.pipeline_buffer(), gate.is_some()),
            );
        }
        let result = pipeline::run(
            PipelineJob {
                version,
                data_chunks,
                code: &self.code,
                placement: &self.placement,
                reduction: &self.reduction,
                threads: self.config.coding_threads(),
                buffer: self.config.pipeline_buffer(),
                recorder: &self.recorder,
                trace: trace.as_ref(),
                gate,
                fail_encode_task: self.fail_encode_task,
            },
            cluster,
        );
        // Summary spans for the two overlapped stages, re-emitted on the
        // engine track as direct children of `ecc.save` (timestamps come
        // from the executor; the executor itself writes nothing to the
        // engine track, so these deferred spans never get clamped).
        if let (Some(t), Ok(outcome)) = (trace.as_ref(), &result) {
            t.tracer.begin_at(
                t.engine,
                "save.encode",
                format!("k={} m={}", self.config.k(), self.config.m()),
                outcome.encode_begin_ns,
            );
            t.tracer.end_at(t.engine, outcome.encode_end_ns);
            t.tracer.begin_at(t.engine, "save.place", "", outcome.place_begin_ns);
            t.tracer.end_at(t.engine, outcome.place_end_ns);
        }
        result
    }

    /// `eccheck.load`: reconstructs every worker's `state_dict` from the
    /// chunks surviving in cluster memory, restoring full fault
    /// tolerance (every node ends up holding its chunk again).
    ///
    /// # Errors
    ///
    /// Returns [`EcCheckError::NoCheckpoint`] before the first save, and
    /// [`EcCheckError::Unrecoverable`] when fewer than `k` chunks survive
    /// and no remote copy exists.
    pub fn load(
        &self,
        cluster: &mut impl DataPlane,
    ) -> Result<(Vec<StateDict>, LoadReport), EcCheckError> {
        if self.version == 0 {
            return Err(EcCheckError::NoCheckpoint);
        }
        self.load_version_inner(cluster, self.version)
    }

    /// Restores a specific retained checkpoint version — any entry of
    /// [`EcCheck::retained_versions`], not just the newest — through
    /// the same two recovery workflows as [`EcCheck::load`] (falling
    /// back to the tier-1 remote copy when fewer than `k` chunks
    /// survive in memory). The packet layout of a version is derived
    /// from its own chunks, so restores work even after later saves
    /// changed the layout.
    ///
    /// # Errors
    ///
    /// Returns [`EcCheckError::NoCheckpoint`] before the first save,
    /// [`EcCheckError::VersionGone`] when `version` is not in the
    /// retention index (collected, or never saved), and otherwise the
    /// same errors as [`EcCheck::load`].
    pub fn load_version(
        &self,
        cluster: &mut impl DataPlane,
        version: u64,
    ) -> Result<(Vec<StateDict>, LoadReport), EcCheckError> {
        if self.version == 0 {
            return Err(EcCheckError::NoCheckpoint);
        }
        if !self.index.contains(version) {
            return Err(EcCheckError::VersionGone { version });
        }
        self.load_version_inner(cluster, version)
    }

    /// Shared body of [`EcCheck::load`] and [`EcCheck::load_version`]:
    /// pick the source tier → gather → repair ([`repair_version`]:
    /// rebuild what is missing, re-seed the nodes found lost) →
    /// reassemble, all against an explicit `version`.
    ///
    /// Every read is judged by one manifest copy, which also carries
    /// every header. Tier 0 serves when at least `k` chunks verify under
    /// an alive node's copy; a copy under which they do not (a delta's
    /// manifest put dropped on that node leaves it stale) gives way to
    /// the next *distinct* copy before the tier is given up. Otherwise
    /// *all* chunks and the headers come from tier 1, under tier 1's
    /// manifest. The two are never mixed — after a `save_delta` tier 0
    /// is newer than the drained copy, and decoding across the two
    /// would splice different checkpoints into one.
    fn load_version_inner(
        &self,
        cluster: &mut impl DataPlane,
        version: u64,
    ) -> Result<(Vec<StateDict>, LoadReport), EcCheckError> {
        self.ensure_fresh_epoch(cluster)?;
        let (k, n, world) = (self.config.k(), self.spec.nodes(), self.spec.world_size());
        self.recorder.counter("ecc.load.calls").incr();
        let load_timer = self.recorder.timer("ecc.load.ns");
        let trace = self.trace.clone();
        let root_span = trace
            .as_ref()
            .map(|t| t.tracer.span(t.engine, "ecc.load", format!("version={version}")));

        let gather_span = trace.as_ref().map(|t| t.tracer.span(t.engine, "load.gather", ""));
        let all: Vec<usize> = (0..n).collect();
        let primary = (0..n).find(|&node| cluster.alive(node));
        let retries = self.config.fetch_retries();
        let serves = |found: &Gathered| {
            if primary != Some(found.from) {
                self.recorder.counter("ecc.load.manifest_fallbacks").incr();
            }
            found.intact() >= k
        };
        let retry = |node, attempt| self.retry_chunk(node, attempt, &trace);
        // The bounded retry budget also covers tier 0 showing no copy.
        let mut local = gather(cluster, version, world, false, &all, n, retry, serves);
        for attempt in 0..retries {
            if local.is_some() {
                break;
            }
            self.recorder.counter("ecc.load.fetch_retries").incr();
            self.backoff_wait(attempt);
            local = gather(cluster, version, world, false, &all, n, retry, serves);
        }
        let (failed_nodes, corrupt_nodes) =
            self.judged(local.as_ref().map(|(Ok(found) | Err(found))| found), false, &trace);
        drop(gather_span);
        self.recorder.counter("ecc.load.survivors").add((n - failed_nodes.len()) as u64);

        let (from_remote, found) = match local {
            Some(Ok(found)) => (false, found),
            // Catastrophic: more than m chunks are gone from memory.
            local => {
                let serves = |found: &Gathered| found.intact() >= k;
                let remote = gather(cluster, version, world, true, &all, n, |_, _| false, serves);
                let found = remote.as_ref().map(|(Ok(found) | Err(found))| found);
                self.judged(found, true, &trace);
                match remote {
                    Some(Ok(found)) => (true, found),
                    remote => return Err(self.unrecoverable([local, remote])),
                }
            }
        };
        let passed_over = found.from;
        let (manifest, chunks) = found.into_parts();
        let mut shards = vec![None; n];
        for (node, chunk) in chunks.into_iter().enumerate() {
            shards[self.placement.chunk_of(node)] = chunk;
        }
        let survivors = shards.iter().flatten().count();
        let (workflow, counter) = if from_remote {
            (RecoveryWorkflow::Remote, "ecc.load.workflow.remote")
        } else if (0..k).any(|j| shards[j].is_none()) {
            (RecoveryWorkflow::Decode, "ecc.load.workflow.decode")
        } else {
            (RecoveryWorkflow::Resend, "ecc.load.workflow.resend")
        };
        self.recorder.counter(counter).incr();
        self.recorder.event(
            "ecc.load.workflow",
            format!("{workflow:?} survivors={survivors} failed={failed_nodes:?}"),
        );

        // Who is lost: every node when tier 1 served (tier 0 is replaced
        // wholesale, the tiers are never mixed); otherwise the nodes
        // whose chunk or manifest copy this restore read and could not
        // use. Nothing else is written.
        let mut lost: Vec<usize> = if from_remote {
            (0..n).collect()
        } else {
            failed_nodes.iter().copied().chain(0..passed_over).collect()
        };
        lost.sort_unstable();
        lost.dedup();
        let rebuilt_count = n - survivors;
        // The packet layout comes from the chunks that verified; no
        // stored number steers the slicing.
        let region_len = self.region_len(shards.iter().flatten().next().map_or(0, Vec::len))?;
        let span = trace.as_ref().map(|t| {
            t.tracer.span(
                t.engine,
                "load.repair",
                format!("{workflow:?}, {rebuilt_count} rebuilt, {} lost", lost.len()),
            )
        });
        let Repaired { chunks: all_chunks, skipped: restore_skipped, .. } = repair_version(
            cluster,
            &self.code,
            &self.placement,
            version,
            &manifest,
            shards,
            &lost,
        )?;
        for &node in &lost {
            if restore_skipped.contains(&node) {
                self.recorder.counter("ecc.load.restore_skipped").incr();
                self.recorder
                    .event("ecc.load.restore_skip", format!("node {node} is down, not re-seeded"));
                if let Some(t) = &trace {
                    t.tracer.instant(t.engine, "load.restore_skip", format!("node {node}"));
                }
            } else {
                trace_store(&trace, node, &format!("chunk {}", self.placement.chunk_of(node)));
            }
        }
        drop(span);

        // Reassemble every worker's state_dict from the data chunks.
        let span = trace.as_ref().map(|t| t.tracer.span(t.engine, "load.reassemble", ""));
        let dicts = self.reassemble_all(&all_chunks[..k], &manifest, region_len)?;
        let restored_bytes: u64 = dicts.iter().map(|d| d.tensor_bytes() as u64).sum();
        drop(span);
        load_timer.stop();
        drop(root_span);
        self.recorder.counter("ecc.load.rebuilt_chunks").add(rebuilt_count as u64);
        self.recorder.counter("ecc.load.restored_bytes").add(restored_bytes);
        Ok((
            dicts,
            LoadReport {
                version,
                workflow,
                failed_nodes,
                corrupt_nodes,
                rebuilt_chunks: rebuilt_count,
                restore_skipped,
                restored_bytes,
            },
        ))
    }

    /// Records what one tier's gather came to, and returns the nodes
    /// whose chunk failed and the subset that was corrupt (every node
    /// failed when no copy verified). Each corrupt chunk is counted and
    /// reported: under the copy that judged it, a bit-flipped (or
    /// newer, or older) chunk is an *erasure* the code corrects, never
    /// an input `reconstruct_all` decodes into garbage. On tier 0 each
    /// chunk that verified also heartbeats its node.
    fn judged(
        &self,
        found: Option<&Gathered>,
        remote: bool,
        trace: &Option<TraceHandles>,
    ) -> (Vec<usize>, Vec<usize>) {
        let n = self.spec.nodes();
        let Some(found) = found else { return ((0..n).collect(), Vec::new()) };
        let (mut failed, mut corrupt) = (Vec::new(), Vec::new());
        for node in 0..n {
            match found.chunk(node) {
                Verified::Intact if !remote => {
                    trace_fetch(trace, node, &format!("chunk {}", self.placement.chunk_of(node)));
                    self.heartbeat(node);
                }
                Verified::Intact => {}
                Verified::Missing => failed.push(node),
                Verified::Corrupt => {
                    let tier = if remote { "remote" } else { "memory" };
                    self.recorder.counter("ecc.load.corrupt_chunks").incr();
                    self.recorder.event(
                        "ecc.load.corrupt",
                        format!("{tier} chunk of node {node} failed checksum"),
                    );
                    if let Some(t) = trace {
                        t.tracer.instant(t.engine, "load.corrupt", format!("{tier} node {node}"));
                    }
                    corrupt.push(node);
                    failed.push(node);
                }
            }
        }
        (failed, corrupt)
    }

    /// The refusal when no tier serves. The tiers' gathers are never
    /// decoded together — only used to name exactly which workers'
    /// states are lost: every data group whose chunk neither tier holds
    /// intact. `survivors` counts intact chunks available *anywhere*.
    fn unrecoverable(&self, tiers: [Option<Result<Gathered, Gathered>>; 2]) -> EcCheckError {
        let k = self.config.k();
        let mut intact = BTreeSet::new();
        for found in tiers.iter().flatten().map(|(Ok(found) | Err(found))| found) {
            let nodes =
                (0..self.spec.nodes()).filter(|&node| found.chunk(node) == Verified::Intact);
            intact.extend(nodes.map(|node| self.placement.chunk_of(node)));
        }
        let group_size = self.placement.group_size();
        let groups = (0..k).filter(|j| !intact.contains(j));
        let lost_workers: Vec<usize> =
            groups.flat_map(|j| j * group_size..(j + 1) * group_size).collect();
        self.recorder.event(
            "ecc.load.lost_workers",
            format!("chunks unrecoverable; lost workers {lost_workers:?}"),
        );
        EcCheckError::Unrecoverable { survivors: intact.len(), needed: k, lost_workers }
    }

    /// Sleeps the bounded exponential backoff before retry `attempt + 1`
    /// (`attempt` is 0-based): `min(base << attempt, cap)` nanoseconds.
    /// Instant retries are correct against the in-memory plane but
    /// hot-spin a real server. The nominal delay is pure config — the
    /// counters below advance identically on every run with the same
    /// fault pattern, so ManualClock tests stay byte-identical; only
    /// the sleep itself touches wall time.
    fn backoff_wait(&self, attempt: usize) {
        let base = self.config.fetch_backoff_base_ns();
        if base == 0 {
            return;
        }
        let shift = attempt.min(20) as u32;
        let delay = base.saturating_mul(1 << shift).min(self.config.fetch_backoff_cap_ns());
        self.recorder.counter("ecc.load.backoff.waits").incr();
        self.recorder.counter("ecc.load.backoff.budget_ns").add(delay);
        std::thread::sleep(std::time::Duration::from_nanos(delay));
    }

    /// Whether the load reads `node`'s transiently missing chunk again
    /// after `attempt` reads (`fetch_retries` at most), having waited
    /// the backoff, before declaring the chunk lost.
    fn retry_chunk(&self, node: usize, attempt: usize, trace: &Option<TraceHandles>) -> bool {
        if attempt >= self.config.fetch_retries() {
            return false;
        }
        self.recorder.counter("ecc.load.fetch_retries").incr();
        if let Some(t) = trace {
            t.tracer.instant(
                t.engine,
                "load.retry",
                format!("node {node} chunk, attempt {}", attempt + 1),
            );
        }
        self.backoff_wait(attempt);
        true
    }

    /// Incrementally checkpoints an arbitrary *dirty set* of workers
    /// into the current version: only the dirty regions and the
    /// corresponding parity deltas move. For each touched data chunk,
    /// the delta `old ⊕ new` (zero outside the dirty slices) is
    /// encoded and the result XORed onto the stored parity — by the
    /// code's GF(2)-linearity, the patched parity equals what a full
    /// re-encode would produce, at a fraction of the traffic
    /// (`region × (1 + m)` instead of the full save's `m·s·W`; see
    /// [`DeltaReport::traffic_bytes`]). The patch runs straight-line on
    /// the calling thread, not through the save pipeline: an in-place
    /// patch may store nothing until everything that can fail has
    /// succeeded, so there is no transfer for an encode to overlap.
    ///
    /// Delta saves do not bump the version — they evolve the newest
    /// retained checkpoint in place. Tensor shapes must be unchanged
    /// since the last full [`EcCheck::save`].
    ///
    /// An empty dirty set is a no-op returning a zeroed report.
    ///
    /// # Errors
    ///
    /// Returns [`EcCheckError::NoCheckpoint`] before the first save,
    /// [`EcCheckError::Config`] when a worker id is out of range,
    /// appears twice in `dirty`, or its shard outgrew its sealed region,
    /// [`EcCheckError::Cluster`] (`NodeDown`) when any node is dead
    /// (all nodes must be alive to patch chunks in place — run
    /// [`EcCheck::load`] first to restore fault tolerance), and
    /// [`EcCheckError::CorruptChunk`] when a stored chunk fails its
    /// checksum (patching it would launder the corruption under a
    /// fresh, valid checksum — run [`EcCheck::load`] to repair).
    pub fn save_delta(
        &mut self,
        cluster: &mut impl DataPlane,
        dirty: &[WorkerDirtySet<'_>],
    ) -> Result<DeltaReport, EcCheckError> {
        if self.version == 0 {
            return Err(EcCheckError::NoCheckpoint);
        }
        if dirty.is_empty() {
            return Ok(DeltaReport {
                version: self.version,
                workers: Vec::new(),
                chunks_patched: 0,
                changed_bytes: 0,
                region_bytes: 0,
                traffic_bytes: 0,
                encoded_bytes: 0,
            });
        }
        let report = self.delta_inner(cluster, dirty)?;
        self.recorder.counter("ecc.delta.calls").incr();
        self.recorder.counter("ecc.delta.changed_bytes").add(report.changed_bytes);
        self.recorder.counter("ecc.delta.traffic_bytes").add(report.traffic_bytes);
        self.recorder.counter("ecc.delta.encoded_bytes").add(report.encoded_bytes);
        self.recorder.event(
            "ecc.delta",
            format!(
                "version={} workers={:?} changed={} traffic={}",
                report.version, report.workers, report.changed_bytes, report.traffic_bytes
            ),
        );
        Ok(report)
    }

    /// The body of [`EcCheck::save_delta`]: verify every chunk the
    /// patch touches, build whole-chunk deltas (zero outside the dirty
    /// regions), then patch the data chunks and XOR the encoded parity
    /// deltas onto the stored parity. The plane-op sequence is all reads
    /// up front (the manifest, then each chunk against its entry), then
    /// data columns ascending, then parity, then the updated manifest,
    /// carrying the dirty workers' headers, to every node. The manifest
    /// is the commit point: a patch cut short at any put leaves chunks
    /// that do not match the manifest a reader takes, which it treats
    /// as erasures (or refuses) — never decodes into a mix of old and
    /// new.
    fn delta_inner(
        &mut self,
        cluster: &mut impl DataPlane,
        dirty: &[WorkerDirtySet<'_>],
    ) -> Result<DeltaReport, EcCheckError> {
        let world = self.spec.world_size();
        for d in dirty {
            if d.worker >= world {
                return Err(EcCheckError::Config {
                    detail: format!("worker {} out of range (world size {world})", d.worker),
                });
            }
        }
        let mut sorted: Vec<&WorkerDirtySet<'_>> = dirty.iter().collect();
        sorted.sort_by_key(|d| d.worker);
        if let Some(pair) = sorted.windows(2).find(|pair| pair[0].worker == pair[1].worker) {
            return Err(EcCheckError::Config {
                detail: format!("worker {} appears twice in the dirty set", pair[0].worker),
            });
        }
        if let Some(dead) = (0..self.spec.nodes()).find(|&node| !cluster.alive(node)) {
            return Err(ClusterError::NodeDown { node: dead }.into());
        }
        self.ensure_fresh_epoch(cluster)?;

        let version = self.version;
        let workers: Vec<usize> = sorted.iter().map(|d| d.worker).collect();
        let timer = self.recorder.timer("ecc.delta.ns");
        let trace = self.trace.clone();
        let root_span = trace.as_ref().map(|t| {
            t.tracer.span(t.engine, "ecc.delta", format!("version={version} workers={workers:?}"))
        });

        // Verify *every* chunk the patch will touch before mutating any
        // of them, all against one manifest copy — the first under which
        // they all verify (a stale copy gives way to a newer one):
        // patching corrupt bytes and recording their CRC would launder
        // the corruption into a "valid" blob.
        let group_size = self.placement.group_size();
        let mut touched: Vec<usize> = workers.iter().map(|w| w / group_size).collect();
        touched.dedup();
        let data_nodes = touched.iter().map(|&j| self.placement.data_nodes()[j]);
        let patched: Vec<usize> =
            data_nodes.chain(self.placement.parity_nodes().iter().copied()).collect();
        let serves = |found: &Gathered| patched.iter().all(|&n| found.chunk(n) == Verified::Intact);
        let found =
            gather(cluster, version, world, false, &patched, patched.len(), |_, _| false, serves);
        let (manifest, mut chunks) = match found {
            Some(Ok(found)) => found.into_parts(),
            Some(Err(refused)) => {
                let node =
                    patched.iter().copied().find(|&node| refused.chunk(node) != Verified::Intact);
                let node = node.expect("a refused copy has a patched chunk that does not verify");
                if refused.chunk(node) == Verified::Missing {
                    return Err(EcCheckError::NoCheckpoint);
                }
                self.recorder.counter("ecc.delta.corrupt_chunks").incr();
                self.recorder
                    .event("ecc.delta.corrupt", format!("node {node} chunk failed checksum"));
                return Err(EcCheckError::CorruptChunk { node });
            }
            None => return Err(EcCheckError::NoCheckpoint),
        };
        let mut chunks: Vec<Vec<u8>> = patched
            .iter()
            .map(|&node| chunks[node].take().expect("every patched chunk verified"))
            .collect();
        let mut parities = chunks.split_off(touched.len());
        let mut cols: Vec<(usize, Vec<u8>)> = touched.into_iter().zip(chunks).collect();

        // Re-lay each dirty worker into its (fixed) region and bucket
        // the regions by data column. The sealed region size is read off
        // a verified chunk about to be patched.
        struct DirtyRegion {
            worker: usize,
            base: usize,
            /// The worker's new bytes, then their delta.
            region: Vec<u8>,
            header: Vec<u8>,
        }
        let region_len = self.region_len(cols[0].1.len())?;
        let mut by_col: BTreeMap<usize, Vec<DirtyRegion>> = BTreeMap::new();
        for d in &sorted {
            let tensor_bytes = d.state.tensor_bytes();
            if tensor_bytes > region_len {
                return Err(EcCheckError::Config {
                    detail: format!(
                        "worker {} now needs {} packets (> {}); run a full save",
                        d.worker,
                        tensor_bytes.div_ceil(self.config.packet_size()),
                        region_len / self.config.packet_size()
                    ),
                });
            }
            let (header, tensors) = decompose_views(d.state);
            let mut region = Vec::with_capacity(region_len);
            lay_region(&mut region, &tensors, region_len);
            by_col.entry(d.worker / group_size).or_default().push(DirtyRegion {
                worker: d.worker,
                base: (d.worker % group_size) * region_len,
                region,
                header,
            });
        }

        // Each dirty region becomes its slice's delta (`old ⊕ new`) and
        // the chunk copy takes the new bytes; the parity copies are
        // patched in place from those slices, the delta being zero
        // elsewhere in the chunk. No chunk-sized buffer is made here.
        let mut changed = 0u64;
        let mut region_bytes = 0u64;
        let mut encoded_bytes = 0u64;
        for (j, chunk) in cols.iter_mut() {
            let regions = by_col.get_mut(j).expect("every touched column has a dirty region");
            for dr in regions.iter_mut() {
                let old = &mut chunk[dr.base..dr.base + dr.region.len()];
                ecc_erasure::region::xor_into(&mut dr.region, old);
                ecc_erasure::region::xor_into(old, &dr.region);
                changed += dr.region.iter().filter(|&&b| b != 0).count() as u64;
                region_bytes += dr.region.len() as u64;
            }
            let pieces: Vec<(usize, &[u8])> =
                regions.iter().map(|dr| (dr.base, dr.region.as_slice())).collect();
            self.code.patch_parity(*j, chunk.len(), &pieces, &mut parities)?;
            encoded_bytes += (parities.len() * chunk.len()) as u64;
        }
        // Canonical store order: data columns ascending, then parity,
        // the CRC of each patched chunk going into the manifest and the
        // chunk itself moved into its put.
        let mut crcs = manifest.chunks().to_vec();
        for (j, chunk) in cols {
            let node = self.placement.data_nodes()[j];
            crcs[node] = crc32(&chunk);
            cluster.put_local(node, &chunk_key(version), chunk)?;
            trace_store(&trace, node, &format!("data chunk {j}"));
        }
        for (i, parity) in parities.into_iter().enumerate() {
            let node = self.placement.parity_nodes()[i];
            crcs[node] = crc32(&parity);
            cluster.put_local(node, &chunk_key(version), parity)?;
            trace_store(&trace, node, &format!("parity chunk {i}"));
        }

        // Commit, last: the manifest with the new chunk CRCs and each
        // dirty worker's (possibly changed) header. Readers take
        // manifest copies in ascending node order, so the commit
        // descends: a restore that reaches the new record has passed
        // over every node still holding the old one, and re-seeds
        // exactly those — the first restore to see a delta cut short
        // here also finishes it.
        let mut headers: Vec<&[u8]> = manifest.headers().collect();
        for dr in by_col.values().flatten() {
            headers[dr.worker] = &dr.header;
        }
        let record = Manifest::seal(&crcs, &headers);
        broadcast(cluster, (0..self.spec.nodes()).rev(), &manifest_key(version), record)?;
        timer.stop();
        drop(root_span);
        Ok(DeltaReport {
            version,
            workers,
            chunks_patched: by_col.len(),
            changed_bytes: changed,
            region_bytes,
            traffic_bytes: region_bytes * (1 + self.config.m() as u64),
            encoded_bytes,
        })
    }

    /// Rebuilds every worker's `state_dict` from its header in
    /// `manifest` and its region of its data chunk — deriving the whole
    /// layout from the broadcast header alone, exactly as a recovering
    /// replacement node must, and holding it to the region before
    /// slicing.
    fn reassemble_all(
        &self,
        data_chunks: &[Vec<u8>],
        manifest: &Manifest,
        region_len: usize,
    ) -> Result<Vec<StateDict>, EcCheckError> {
        let group_size = self.placement.group_size();
        let rebuilt = manifest.headers().enumerate().map(|(w, header)| {
            let base = (w % group_size) * region_len;
            let region = &data_chunks[w / group_size][base..base + region_len];
            reassemble_region(header, region).map_err(|e| match e {
                CheckpointError::ExtentOutOfRange { detail } => {
                    CheckpointError::ExtentOutOfRange { detail: format!("worker {w}: {detail}") }
                }
                other => other,
            })
        });
        Ok(rebuilt.collect::<Result<_, _>>()?)
    }

    /// Bytes in one worker's region of a `chunk_len`-byte chunk: the
    /// packet layout is a property of the (verified or rebuilt) chunk
    /// itself, so nothing needs to store it on the side.
    fn region_len(&self, chunk_len: usize) -> Result<usize, EcCheckError> {
        let group_size = self.placement.group_size();
        if chunk_len == 0 || !chunk_len.is_multiple_of(group_size * self.config.packet_size()) {
            return Err(EcCheckError::Config {
                detail: format!(
                    "a {chunk_len}-byte chunk is not {group_size} regions of whole {}-byte packets",
                    self.config.packet_size()
                ),
            });
        }
        Ok(chunk_len / group_size)
    }
}

/// Emits a driver → node chunk-placement flow: an arrow out of the
/// currently open driver span into a `store.chunk` slice on the node's
/// `storage` track.
pub(crate) fn trace_store(trace: &Option<TraceHandles>, node: usize, what: &str) {
    if let Some(t) = trace {
        let flow = t.tracer.flow_start(t.engine, "p2p.store");
        let nt = t.node_track(node);
        let recv = t.tracer.span(nt, "store.chunk", what);
        t.tracer.flow_end(nt, flow, "p2p.store");
        drop(recv);
    }
}

/// Emits a node → driver chunk-fetch flow: a `fetch.chunk` slice on the
/// node's `storage` track with an arrow into the currently open driver
/// span.
fn trace_fetch(trace: &Option<TraceHandles>, node: usize, what: &str) {
    if let Some(t) = trace {
        let nt = t.node_track(node);
        let send = t.tracer.span(nt, "fetch.chunk", what);
        let flow = send.flow_start("p2p.fetch");
        drop(send);
        t.tracer.flow_end(t.engine, flow, "p2p.fetch");
    }
}

/// Puts `record` under `key` on each of `nodes` in turn, the last put
/// taking the buffer itself.
fn broadcast(
    cluster: &mut impl DataPlane,
    nodes: impl Iterator<Item = usize>,
    key: &str,
    mut record: Vec<u8>,
) -> Result<(), ClusterError> {
    let mut nodes = nodes.peekable();
    while let Some(node) = nodes.next() {
        let blob =
            if nodes.peek().is_some() { record.clone() } else { std::mem::take(&mut record) };
        cluster.put_local(node, key, blob)?;
    }
    Ok(())
}

/// Appends one worker's region to `out`: its tensors head to tail,
/// zero-padded to `region_len` bytes (which must hold them).
fn lay_region(out: &mut Vec<u8>, tensors: &[&[u8]], region_len: usize) {
    let end = out.len() + region_len;
    for tensor in tensors {
        out.extend_from_slice(tensor);
    }
    out.resize(end, 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecc_checkpoint::Value;
    use ecc_cluster::{Cluster, ClusterSpec};
    use ecc_dnn::{build_worker_state_dict, ModelConfig, ParallelismSpec, StateDictSpec};

    fn tiny_config() -> EcCheckConfig {
        EcCheckConfig::paper_defaults().with_packet_size(256).with_coding_threads(2)
    }

    /// 4 nodes × 2 GPUs with realistic (tiny) Megatron-style shards.
    fn setup() -> (ClusterSpec, Cluster, EcCheck, Vec<StateDict>) {
        let spec = ClusterSpec::tiny_test(4, 2);
        let cluster = Cluster::new(spec);
        let ecc = EcCheck::initialize(&spec, tiny_config()).unwrap();
        let model = ModelConfig::gpt2(64, 4, 4).with_vocab(512).with_seq_len(32);
        let par = ParallelismSpec::new(2, 2, 2).unwrap();
        let sd_spec = StateDictSpec::new(model, par);
        let dicts: Vec<StateDict> =
            (0..8).map(|w| build_worker_state_dict(&sd_spec, w).unwrap()).collect();
        (spec, cluster, ecc, dicts)
    }

    #[test]
    fn tracer_records_save_and_load_timelines() {
        let (_, mut cluster, mut ecc, dicts) = setup();
        let tracer = ecc.attach_tracer();
        ecc.save(&mut cluster, &dicts).unwrap();
        cluster.fail_node(0);
        cluster.fail_node(2);
        cluster.replace_node(0);
        cluster.replace_node(2);
        ecc.load(&mut cluster).unwrap();

        let json = tracer.chrome_trace_json();
        let stats = ecc_trace::validate_chrome_trace(&json).expect("well-formed trace");
        assert!(stats.spans > 0);
        assert!(stats.flows > 0, "store/fetch flows should be present");
        // Driver + coding + 4 node processes.
        assert!(stats.processes >= 6, "got {} processes", stats.processes);
        for needle in ["ecc.save", "checkpoint.pack", "save.encode", "ecc.load", "load.repair"] {
            assert!(json.contains(needle), "trace should mention {needle}");
        }
        let summary = tracer.critical_path_summary("ecc.save");
        assert!(summary.contains("save.encode"), "{summary}");
        assert!(summary.contains("(self)"), "{summary}");
    }

    #[test]
    fn placement_epochs_are_strictly_monotone() {
        let (_, _, mut ecc, _) = setup();
        assert_eq!(ecc.placement_epoch(), 0);
        let next = ecc.placement().clone();
        ecc.apply_placement(1, next.clone()).unwrap();
        assert_eq!(ecc.placement_epoch(), 1);
        // Equal and older epochs are refused.
        assert!(matches!(
            ecc.apply_placement(1, next.clone()),
            Err(EcCheckError::StaleEpoch { engine: 1, committed: 1 })
        ));
        assert!(matches!(
            ecc.apply_placement(0, next.clone()),
            Err(EcCheckError::StaleEpoch { .. })
        ));
        // Gaps are fine — only monotonicity matters.
        ecc.apply_placement(7, next).unwrap();
        assert_eq!(ecc.placement_epoch(), 7);
    }

    #[test]
    fn apply_placement_rejects_misfit_layouts() {
        let (_, _, mut ecc, _) = setup();
        let g = ecc.placement().group_size();
        // Wrong (k, m) split for a (2, 2) engine.
        let wrong_km = Placement::new(vec![0, 1, 2], vec![3], g).unwrap();
        assert!(matches!(ecc.apply_placement(1, wrong_km), Err(EcCheckError::Config { .. })));
        // Node id outside the 4-node cluster.
        let out_of_range = Placement::new(vec![0, 5], vec![1, 2], g).unwrap();
        assert!(matches!(ecc.apply_placement(1, out_of_range), Err(EcCheckError::Config { .. })));
        assert_eq!(ecc.placement_epoch(), 0, "failed applies must not advance the epoch");
    }

    #[test]
    fn stale_engine_refuses_to_save_load_or_patch() {
        let (spec, mut cluster, mut ecc, dicts) = setup();
        ecc.save(&mut cluster, &dicts).unwrap();
        // A membership controller commits epoch 3 behind this engine's
        // back: every chunk-moving operation must refuse.
        let marker = crate::keys::encode_epoch(3);
        for node in 0..spec.nodes() {
            cluster.put_local(node, &crate::keys::placement_epoch_key(), marker.clone()).unwrap();
        }
        assert!(matches!(
            ecc.save(&mut cluster, &dicts),
            Err(EcCheckError::StaleEpoch { engine: 0, committed: 3 })
        ));
        assert!(matches!(ecc.load(&mut cluster), Err(EcCheckError::StaleEpoch { .. })));
        assert!(matches!(
            ecc.save_delta(&mut cluster, &[WorkerDirtySet { worker: 0, state: &dicts[0] }]),
            Err(EcCheckError::StaleEpoch { .. })
        ));
        // Refreshing the placement to the committed epoch unblocks it.
        let placement = ecc.placement().clone();
        ecc.apply_placement(3, placement).unwrap();
        ecc.save(&mut cluster, &dicts).unwrap();
        let (restored, _) = ecc.load(&mut cluster).unwrap();
        assert_eq!(restored, dicts);
    }

    #[test]
    fn adopt_version_fast_forwards_the_committed_epoch() {
        let (spec, mut cluster, mut ecc, dicts) = setup();
        let placement = ecc.placement().clone();
        ecc.apply_placement(2, placement).unwrap();
        ecc.save(&mut cluster, &dicts).unwrap();
        let marker = crate::keys::encode_epoch(2);
        for node in 0..spec.nodes() {
            cluster.put_local(node, &crate::keys::placement_epoch_key(), marker.clone()).unwrap();
        }
        let mut fresh = EcCheck::initialize(&spec, tiny_config()).unwrap();
        fresh.adopt_version(&cluster, 1).unwrap();
        assert_eq!(fresh.placement_epoch(), 2);
        let (restored, _) = fresh.load(&mut cluster).unwrap();
        assert_eq!(restored, dicts);
    }

    /// The fence reads every survivor's marker: a commit whose put was
    /// dropped on node 0 must not let an engine at the old epoch
    /// through, and a damaged copy says nothing at all.
    #[test]
    fn epoch_fence_takes_the_newest_marker_that_verifies() {
        let (_, mut cluster, mut ecc, dicts) = setup();
        let placement = ecc.placement().clone();
        ecc.apply_placement(2, placement).unwrap();
        let key = crate::keys::placement_epoch_key();
        for (node, epoch) in [2u64, 3, 3, 3].into_iter().enumerate() {
            cluster.put_local(node, &key, crate::keys::encode_epoch(epoch)).unwrap();
        }
        assert!(matches!(
            ecc.save(&mut cluster, &dicts),
            Err(EcCheckError::StaleEpoch { engine: 2, committed: 3 })
        ));
        // Node 0's copy bit-flipped upward: skipped, not obeyed.
        let mut forged = crate::keys::encode_epoch(2);
        forged[7] ^= 0x80;
        cluster.put_local(0, &key, forged).unwrap();
        assert_eq!(committed_epoch(&cluster), Some(3));
        let placement = ecc.placement().clone();
        ecc.apply_placement(3, placement).unwrap();
        ecc.save(&mut cluster, &dicts).unwrap();
    }

    #[test]
    fn save_then_load_without_failures() {
        let (_, mut cluster, mut ecc, dicts) = setup();
        let report = ecc.save(&mut cluster, &dicts).unwrap();
        assert_eq!(report.version, 1);
        assert!(report.packets_per_worker > 0);
        let (restored, load) = ecc.load(&mut cluster).unwrap();
        assert_eq!(restored, dicts);
        assert_eq!(load.workflow, RecoveryWorkflow::Resend);
        assert!(load.failed_nodes.is_empty());
        assert_eq!(load.rebuilt_chunks, 0);
    }

    #[test]
    fn every_two_node_failure_recovers_bit_exactly() {
        // The headline fault-tolerance property: any m = 2 concurrent
        // node failures are survivable, including both data nodes.
        for a in 0..4usize {
            for b in (a + 1)..4usize {
                let (_, mut cluster, mut ecc, dicts) = setup();
                ecc.save(&mut cluster, &dicts).unwrap();
                cluster.fail_node(a);
                cluster.fail_node(b);
                cluster.replace_node(a);
                cluster.replace_node(b);
                let (restored, load) = ecc.load(&mut cluster).unwrap();
                assert_eq!(restored, dicts, "failures {a},{b}");
                assert_eq!(load.failed_nodes, vec![a, b]);
                assert_eq!(load.rebuilt_chunks, 2);
            }
        }
    }

    #[test]
    fn workflow_classification_matches_paper() {
        // Placement on 4 nodes: data = {0, 2}, parity = {1, 3}.
        // Fig. 13a (nodes 1 and 3 fail): all data nodes survive -> Resend.
        let (_, mut cluster, mut ecc, dicts) = setup();
        ecc.save(&mut cluster, &dicts).unwrap();
        cluster.fail_node(1);
        cluster.fail_node(3);
        cluster.replace_node(1);
        cluster.replace_node(3);
        let (_, load) = ecc.load(&mut cluster).unwrap();
        assert_eq!(load.workflow, RecoveryWorkflow::Resend);

        // Fig. 13b (nodes 2 and 3 fail): data node 2 lost -> Decode.
        let (_, mut cluster, mut ecc, dicts) = setup();
        ecc.save(&mut cluster, &dicts).unwrap();
        cluster.fail_node(2);
        cluster.fail_node(3);
        cluster.replace_node(2);
        cluster.replace_node(3);
        let (restored, load) = ecc.load(&mut cluster).unwrap();
        assert_eq!(load.workflow, RecoveryWorkflow::Decode);
        assert_eq!(restored, dicts);
    }

    #[test]
    fn load_restores_fault_tolerance() {
        // After one recovery, a *different* pair of failures must still
        // be survivable (recovery task 2 of §III-B).
        let (_, mut cluster, mut ecc, dicts) = setup();
        ecc.save(&mut cluster, &dicts).unwrap();
        cluster.fail_node(0);
        cluster.fail_node(1);
        cluster.replace_node(0);
        cluster.replace_node(1);
        ecc.load(&mut cluster).unwrap();
        cluster.fail_node(2);
        cluster.fail_node(3);
        cluster.replace_node(2);
        cluster.replace_node(3);
        let (restored, _) = ecc.load(&mut cluster).unwrap();
        assert_eq!(restored, dicts);
    }

    #[test]
    fn three_failures_without_remote_are_unrecoverable() {
        let (_, mut cluster, mut ecc, dicts) = setup();
        ecc.save(&mut cluster, &dicts).unwrap();
        for n in [0, 1, 2] {
            cluster.fail_node(n);
            cluster.replace_node(n);
        }
        // Only one chunk survives in memory and nothing was drained to
        // remote storage, so recovery must fail (needed = k = 2).
        assert!(matches!(
            ecc.load(&mut cluster),
            Err(EcCheckError::Unrecoverable { needed: 2, .. })
        ));
    }

    /// Total cluster loss: every node fails and is replaced, so the
    /// restore comes from tier 1 — and must leave tier 0 as complete
    /// as a save does. Re-seeded nodes without `manifest` would make the
    /// restored version invisible to the next drain and to an adopting
    /// engine.
    #[test]
    fn total_loss_restores_from_tier_one_and_reseeds_every_node() {
        let (spec, mut cluster, mut ecc, dicts) = setup();
        ecc.save(&mut cluster, &dicts).unwrap();
        crate::store::drain_version(&mut cluster, 1, 8, ecc.recorder()).unwrap();
        for n in 0..4 {
            cluster.fail_node(n);
            cluster.replace_node(n);
        }
        let (restored, load) = ecc.load(&mut cluster).unwrap();
        assert_eq!(restored, dicts);
        assert_eq!(load.workflow, RecoveryWorkflow::Remote);
        assert_eq!(load.rebuilt_chunks, 0, "tier 1 held every chunk");
        for node in 0..4 {
            assert!(cluster.get_local(node, &manifest_key(1)).is_some(), "node {node} manifest");
        }
        let redrain = crate::store::drain_version(&mut cluster, 1, 8, ecc.recorder()).unwrap();
        assert_eq!(redrain.chunks_copied, 4);
        let mut fresh = EcCheck::initialize(&spec, tiny_config()).unwrap();
        fresh.adopt_version(&cluster, 1).unwrap();
        assert_eq!(VersionIndex::rebuild(&cluster).versions(), &[1], "tier 0 lists the version");
        assert_eq!(fresh.retained_versions(), vec![1]);
        assert_eq!(fresh.load(&mut cluster).unwrap().0, dicts);
    }

    #[test]
    fn versions_rotate_and_old_data_is_dropped() {
        let (_, mut cluster, mut ecc, mut dicts) = setup();
        ecc.save(&mut cluster, &dicts).unwrap();
        let used_v1 = cluster.mem_used(0);
        // Change the model state and save again.
        dicts[0].insert("iteration", Value::Int(99));
        let r2 = ecc.save(&mut cluster, &dicts).unwrap();
        assert_eq!(r2.version, 2);
        // Memory stays bounded: old version was deleted.
        assert!(cluster.mem_used(0) <= used_v1 + 64);
        let (restored, load) = ecc.load(&mut cluster).unwrap();
        assert_eq!(load.version, 2);
        assert_eq!(restored[0].get("iteration"), Some(&Value::Int(99)));
    }

    #[test]
    fn traffic_report_matches_msw_invariant() {
        let (_, mut cluster, mut ecc, dicts) = setup();
        let report = ecc.save(&mut cluster, &dicts).unwrap();
        let s = (report.packets_per_worker * report.packet_size) as u64;
        let w = 8u64;
        let m = 2u64;
        assert_eq!(report.traffic.total(), m * s * w);
    }

    #[test]
    fn wrong_shard_count_is_rejected() {
        let (_, mut cluster, mut ecc, dicts) = setup();
        assert!(matches!(ecc.save(&mut cluster, &dicts[..3]), Err(EcCheckError::Config { .. })));
    }

    #[test]
    fn load_before_save_errors() {
        let (_, mut cluster, _, _) = setup();
        let spec = ClusterSpec::tiny_test(4, 2);
        let ecc = EcCheck::initialize(&spec, tiny_config()).unwrap();
        assert!(matches!(ecc.load(&mut cluster), Err(EcCheckError::NoCheckpoint)));
    }

    #[test]
    fn initialize_rejects_mismatched_cluster() {
        let spec = ClusterSpec::tiny_test(5, 2);
        assert!(matches!(
            EcCheck::initialize(&spec, tiny_config()),
            Err(EcCheckError::Config { .. })
        ));
    }

    /// Flips one byte of a node's stored chunk in place, leaving the
    /// manifest untouched (simulating at-rest bit rot).
    fn corrupt_chunk(cluster: &mut Cluster, node: usize, version: u64) {
        let key = crate::keys::chunk_key(version);
        let mut blob = cluster.get_local(node, &key).unwrap().to_vec();
        let mid = blob.len() / 2;
        blob[mid] ^= 0x40;
        cluster.put_local(node, &key, blob).unwrap();
    }

    /// The silent-corruption regression: a bit-flipped chunk must be
    /// detected via its manifest entry and treated as an erasure, decoding
    /// the true bytes from the survivors — the pre-fix engine fed the
    /// garbage straight into `reconstruct_all` and returned corrupted
    /// weights with a successful report.
    #[test]
    fn corrupted_chunk_is_detected_and_decoded_around() {
        let (_, mut cluster, mut ecc, dicts) = setup();
        ecc.save(&mut cluster, &dicts).unwrap();
        // Node 0 is a data node on the 4-node testbed placement.
        corrupt_chunk(&mut cluster, 0, 1);
        let (restored, report) = ecc.load(&mut cluster).unwrap();
        assert_eq!(restored, dicts, "corruption must never surface as state");
        assert_eq!(report.workflow, RecoveryWorkflow::Decode);
        assert_eq!(report.corrupt_nodes, vec![0]);
        assert_eq!(report.failed_nodes, vec![0]);
        assert_eq!(report.rebuilt_chunks, 1);
        assert_eq!(ecc.recorder().snapshot().counter("ecc.load.corrupt_chunks"), 1);
        // The corrupt chunk was repaired in place: a fresh load sees a
        // fully intact cluster.
        let (_, second) = ecc.load(&mut cluster).unwrap();
        assert!(second.failed_nodes.is_empty());
    }

    #[test]
    fn corruption_combines_with_crashes_up_to_m() {
        // One crashed node + one corrupted chunk = exactly m = 2 faults.
        let (_, mut cluster, mut ecc, dicts) = setup();
        ecc.save(&mut cluster, &dicts).unwrap();
        cluster.fail_node(1);
        cluster.replace_node(1);
        corrupt_chunk(&mut cluster, 2, 1);
        let (restored, report) = ecc.load(&mut cluster).unwrap();
        assert_eq!(restored, dicts);
        assert_eq!(report.failed_nodes, vec![1, 2]);
        assert_eq!(report.corrupt_nodes, vec![2]);
    }

    #[test]
    fn corruption_beyond_m_is_unrecoverable_not_garbage() {
        let (_, mut cluster, mut ecc, dicts) = setup();
        ecc.save(&mut cluster, &dicts).unwrap();
        for node in [0, 1, 3] {
            corrupt_chunk(&mut cluster, node, 1);
        }
        // 3 corrupt chunks > m = 2: only one intact chunk remains, so
        // the engine must refuse with a structured report, never decode.
        match ecc.load(&mut cluster) {
            Err(EcCheckError::Unrecoverable { survivors, needed, lost_workers }) => {
                assert_eq!(survivors, 1);
                assert_eq!(needed, 2);
                // Data chunk 0 (node 0) is gone; data chunk 1 (node 2)
                // survived. Workers 0..4 of group 0 are the lost ones.
                assert_eq!(lost_workers, vec![0, 1, 2, 3]);
            }
            other => panic!("expected Unrecoverable, got {other:?}"),
        }
    }

    /// Rewrites every node's manifest of `version` through `edit` (the
    /// chunk entries and the headers), validly closed — what only a
    /// writer of the format could forge.
    fn forge_manifest(
        cluster: &mut Cluster,
        version: u64,
        edit: impl Fn(&mut [u32], &mut [Vec<u8>]),
    ) {
        let record = cluster.get_local(0, &manifest_key(version)).unwrap();
        let manifest = Manifest::decode(record, 4, 8).unwrap();
        let mut chunks = manifest.chunks().to_vec();
        let mut headers: Vec<Vec<u8>> = manifest.headers().map(<[u8]>::to_vec).collect();
        edit(&mut chunks, &mut headers);
        let record = Manifest::seal(&chunks, &headers);
        for node in 0..4 {
            cluster.put_local(node, &manifest_key(version), record.clone()).unwrap();
        }
    }

    /// Node 0's manifest copy — and with it every header — lost, then
    /// corrupt, is served by node 1 and re-seeded.
    #[test]
    fn manifest_restore_falls_back_across_survivors() {
        let (_, mut cluster, mut ecc, dicts) = setup();
        ecc.save(&mut cluster, &dicts).unwrap();
        let saved = cluster.get_local(0, &manifest_key(1)).unwrap();
        cluster.delete_local(0, &manifest_key(1));
        assert_eq!(ecc.load(&mut cluster).unwrap().0, dicts);
        assert_eq!(cluster.get_local(0, &manifest_key(1)), Some(saved.clone()), "re-seeded");
        let mut forged = saved.clone();
        forged[3] ^= 0x10;
        cluster.put_local(0, &manifest_key(1), forged).unwrap();
        assert_eq!(ecc.load(&mut cluster).unwrap().0, dicts);
        assert_eq!(cluster.get_local(0, &manifest_key(1)), Some(saved), "re-seeded");
        assert_eq!(ecc.recorder().snapshot().counter("ecc.load.manifest_fallbacks"), 2);
    }

    #[test]
    fn manifest_lost_everywhere_leaves_tier_zero_no_survivors() {
        let (_, mut cluster, mut ecc, dicts) = setup();
        ecc.save(&mut cluster, &dicts).unwrap();
        let saved = cluster.get_local(0, &manifest_key(1)).unwrap();
        for node in 0..4 {
            cluster.delete_local(node, &manifest_key(1));
        }
        match ecc.load(&mut cluster) {
            Err(EcCheckError::Unrecoverable { survivors: 0, lost_workers, .. }) => {
                assert_eq!(lost_workers, (0..8).collect::<Vec<_>>());
            }
            other => panic!("expected Unrecoverable naming every worker, got {other:?}"),
        }
        // With a drained copy the same loss is served by tier 1.
        for node in 0..4 {
            cluster.put_local(node, &manifest_key(1), saved.clone()).unwrap();
        }
        crate::store::drain_version(&mut cluster, 1, 8, ecc.recorder()).unwrap();
        for node in 0..4 {
            cluster.delete_local(node, &manifest_key(1));
        }
        let (restored, report) = ecc.load(&mut cluster).unwrap();
        assert_eq!(restored, dicts);
        assert_eq!(report.workflow, RecoveryWorkflow::Remote);
        assert_eq!(cluster.get_local(2, &manifest_key(1)), Some(saved));
    }

    /// Blobs that verify but describe a layout the chunks cannot hold
    /// must be refused with an error, never sliced out of range.
    #[test]
    fn layouts_the_chunks_cannot_hold_are_refused_not_sliced() {
        use ecc_checkpoint::{DType, Tensor};
        let (_, mut cluster, mut ecc, dicts) = setup();
        ecc.save(&mut cluster, &dicts).unwrap();
        // Worker 0's header, validly entered, names a 1 MiB tensor.
        let mut big = StateDict::new();
        big.insert("w", Value::Tensor(Tensor::zeros(DType::U8, &[1 << 20])));
        let (header, _) = decompose_views(&big);
        // The same header naming 2^40 bytes (nothing may be allocated
        // for it), and one whose shape's product wraps `usize`: the
        // shape [1 << 20] is the varint 80 80 40 after rank 1.
        let at = header.windows(4).position(|w| w == [1, 0x80, 0x80, 0x40]).unwrap();
        let with_shape = |shape: &[u8]| [&header[..at], shape, &header[at + 4..]].concat();
        let tebibyte = with_shape(&[1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20]);
        let wide = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01];
        let wraps = with_shape(&[&[3u8][..], &wide, &wide, &wide].concat());
        type Refusal = fn(&CheckpointError) -> bool;
        let cases: [(Vec<u8>, Refusal); 3] = [
            (header, |e| matches!(e, CheckpointError::ExtentOutOfRange { .. })),
            (tebibyte, |e| matches!(e, CheckpointError::ExtentOutOfRange { .. })),
            (wraps, |e| matches!(e, CheckpointError::BadTensor { .. })),
        ];
        for (header, refused) in cases {
            forge_manifest(&mut cluster, 1, |_, headers| headers[0] = header.clone());
            match ecc.load(&mut cluster) {
                Err(EcCheckError::Checkpoint(e)) if refused(&e) => {}
                other => panic!("expected a structured refusal, got {other:?}"),
            }
        }
        // Chunks, validly entered, that are no whole number of packets
        // per worker (192 bytes satisfies the code's own alignment).
        let runt = vec![0u8; 192];
        for node in 0..4 {
            cluster.put_local(node, &chunk_key(1), runt.clone()).unwrap();
        }
        forge_manifest(&mut cluster, 1, |chunks, _| chunks.fill(crc32(&runt)));
        assert!(matches!(ecc.load(&mut cluster), Err(EcCheckError::Config { .. })));
    }

    #[test]
    fn heterogeneous_shard_sizes_are_padded() {
        // Stage-0 workers carry embeddings and are bigger; padding must
        // keep everything recoverable.
        let (_, mut cluster, mut ecc, dicts) = setup();
        let sizes: Vec<usize> = dicts.iter().map(StateDict::tensor_bytes).collect();
        assert!(sizes.iter().any(|&s| s != sizes[7]), "shards should differ in size");
        ecc.save(&mut cluster, &dicts).unwrap();
        cluster.fail_node(0);
        cluster.fail_node(2);
        cluster.replace_node(0);
        cluster.replace_node(2);
        let (restored, _) = ecc.load(&mut cluster).unwrap();
        assert_eq!(restored, dicts);
    }
}

#[cfg(test)]
mod incremental_tests {
    use super::*;
    use ecc_checkpoint::Value;
    use ecc_cluster::{Cluster, ClusterSpec};
    use ecc_dnn::{build_worker_state_dict, ModelConfig, ParallelismSpec, StateDictSpec};

    fn setup() -> (ClusterSpec, Cluster, EcCheck, Vec<StateDict>) {
        let spec = ClusterSpec::tiny_test(4, 2);
        let cluster = Cluster::new(spec);
        let ecc = EcCheck::initialize(
            &spec,
            EcCheckConfig::paper_defaults().with_packet_size(256).with_coding_threads(1),
        )
        .unwrap();
        let model = ModelConfig::gpt2(64, 4, 4).with_vocab(512).with_seq_len(32);
        let par = ParallelismSpec::new(2, 2, 2).unwrap();
        let sd_spec = StateDictSpec::new(model, par);
        let dicts: Vec<StateDict> =
            (0..8).map(|w| build_worker_state_dict(&sd_spec, w).unwrap()).collect();
        (spec, cluster, ecc, dicts)
    }

    fn dirty(worker: usize, state: &StateDict) -> WorkerDirtySet<'_> {
        WorkerDirtySet { worker, state }
    }

    fn mutate(sd: &StateDict, worker: usize) -> StateDict {
        let model = ModelConfig::gpt2(64, 4, 4).with_vocab(512).with_seq_len(32);
        let par = ParallelismSpec::new(2, 2, 2).unwrap();
        // Same shapes, different seed -> different values, same layout.
        let spec = StateDictSpec { seed: 0xDEAD_BEEF, ..StateDictSpec::new(model, par) };
        let mut new = build_worker_state_dict(&spec, worker).unwrap();
        for (k, v) in sd.iter() {
            if !matches!(v, Value::Dict(_)) {
                new.insert(k.to_string(), v.clone());
            }
        }
        new
    }

    #[test]
    fn incremental_update_then_recovery_returns_new_state() {
        let (_, mut cluster, mut ecc, mut dicts) = setup();
        ecc.save(&mut cluster, &dicts).unwrap();
        // Update two workers in different data groups.
        for w in [1usize, 6] {
            let updated = mutate(&dicts[w], w);
            let report = ecc.save_delta(&mut cluster, &[dirty(w, &updated)]).unwrap();
            assert!(report.changed_bytes > 0);
            dicts[w] = updated;
        }
        // Any 2-node failure still recovers the *updated* state.
        cluster.fail_node(0);
        cluster.fail_node(2);
        cluster.replace_node(0);
        cluster.replace_node(2);
        let (restored, _) = ecc.load(&mut cluster).unwrap();
        assert_eq!(restored, dicts);
    }

    #[test]
    fn incremental_update_equals_full_save() {
        let (spec, mut cluster_a, mut ecc_a, mut dicts) = setup();
        ecc_a.save(&mut cluster_a, &dicts).unwrap();
        let updated = mutate(&dicts[3], 3);
        ecc_a.save_delta(&mut cluster_a, &[dirty(3, &updated)]).unwrap();
        dicts[3] = updated;
        // A fresh engine doing a full save of the same state must store
        // identical chunk bytes.
        let mut cluster_b = Cluster::new(spec);
        let mut ecc_b = EcCheck::initialize(
            &spec,
            EcCheckConfig::paper_defaults().with_packet_size(256).with_coding_threads(1),
        )
        .unwrap();
        ecc_b.save(&mut cluster_b, &dicts).unwrap();
        for node in 0..4 {
            assert_eq!(
                cluster_a.get_local(node, "ecc/v1/chunk"),
                cluster_b.get_local(node, "ecc/v1/chunk"),
                "node {node} chunk"
            );
        }
    }

    #[test]
    fn identical_state_update_changes_nothing() {
        let (_, mut cluster, mut ecc, dicts) = setup();
        ecc.save(&mut cluster, &dicts).unwrap();
        let report = ecc.save_delta(&mut cluster, &[dirty(0, &dicts[0])]).unwrap();
        assert_eq!(report.changed_bytes, 0);
    }

    #[test]
    fn update_before_save_errors() {
        let (_, mut cluster, mut ecc, dicts) = setup();
        assert!(matches!(
            ecc.save_delta(&mut cluster, &[dirty(0, &dicts[0])]),
            Err(EcCheckError::NoCheckpoint)
        ));
    }

    #[test]
    fn out_of_range_worker_errors() {
        let (_, mut cluster, mut ecc, dicts) = setup();
        ecc.save(&mut cluster, &dicts).unwrap();
        assert!(matches!(
            ecc.save_delta(&mut cluster, &[dirty(8, &dicts[0])]),
            Err(EcCheckError::Config { .. })
        ));
    }

    #[test]
    fn update_with_dead_node_reports_node_down() {
        // In-place patching needs every node; a dead node must surface
        // as a structured NodeDown, not a misleading NoCheckpoint.
        let (_, mut cluster, mut ecc, dicts) = setup();
        ecc.save(&mut cluster, &dicts).unwrap();
        cluster.fail_node(3);
        assert!(matches!(
            ecc.save_delta(&mut cluster, &[dirty(0, &dicts[0])]),
            Err(EcCheckError::Cluster(ecc_cluster::ClusterError::NodeDown { node: 3 }))
        ));
        // After replacement + load, updates work again.
        cluster.replace_node(3);
        ecc.load(&mut cluster).unwrap();
        ecc.save_delta(&mut cluster, &[dirty(0, &dicts[0])]).unwrap();
    }

    #[test]
    fn update_refuses_to_patch_corrupt_chunk() {
        let (_, mut cluster, mut ecc, mut dicts) = setup();
        ecc.save(&mut cluster, &dicts).unwrap();
        // Corrupt the parity chunk on node 1 (placement: parity {1, 3}).
        let key = crate::keys::chunk_key(1);
        let mut blob = cluster.get_local(1, &key).unwrap().to_vec();
        blob[7] ^= 0x01;
        cluster.put_local(1, &key, blob).unwrap();
        let updated = mutate(&dicts[2], 2);
        // Patching would fold the corrupt bytes under a fresh checksum.
        assert!(matches!(
            ecc.save_delta(&mut cluster, &[dirty(2, &updated)]),
            Err(EcCheckError::CorruptChunk { node: 1 })
        ));
        // load() repairs the chunk; the update then applies cleanly and
        // the new state survives failures.
        assert_eq!(ecc.recorder().snapshot().counter("ecc.delta.corrupt_chunks"), 1);
        ecc.load(&mut cluster).unwrap();
        ecc.save_delta(&mut cluster, &[dirty(2, &updated)]).unwrap();
        dicts[2] = updated;
        cluster.fail_node(0);
        cluster.fail_node(2);
        cluster.replace_node(0);
        cluster.replace_node(2);
        let (restored, _) = ecc.load(&mut cluster).unwrap();
        assert_eq!(restored, dicts);
    }
}

#[cfg(test)]
mod shape_tests {
    use super::*;
    use ecc_checkpoint::Value;
    use ecc_cluster::{Cluster, ClusterSpec};

    fn dicts(world: usize) -> Vec<StateDict> {
        (0..world)
            .map(|w| {
                let mut sd = StateDict::new();
                sd.insert("rank", Value::Int(w as i64));
                sd.insert("payload", Value::Bytes(vec![(w * 13) as u8; 300 + w * 17]));
                sd
            })
            .collect()
    }

    /// Exhaustive recovery over asymmetric (k, m) shapes: every erasure
    /// pattern of up to m nodes must restore bit-exactly.
    #[test]
    fn asymmetric_codes_recover_all_patterns() {
        for (nodes, g, k, m) in [
            (4usize, 3usize, 3usize, 1usize),
            (4, 2, 1, 3),
            (6, 1, 3, 3),
            (6, 1, 2, 4),
            (5, 2, 2, 3),
        ] {
            let spec = ClusterSpec::tiny_test(nodes, g);
            if !spec.world_size().is_multiple_of(k) {
                panic!("test shape invalid: {nodes}x{g} k={k}");
            }
            let mut cluster = Cluster::new(spec);
            let mut ecc = EcCheck::initialize(
                &spec,
                EcCheckConfig::paper_defaults().with_km(k, m).with_packet_size(256),
            )
            .unwrap();
            let d = dicts(spec.world_size());
            ecc.save(&mut cluster, &d).unwrap();
            // Every single- and double-failure pattern (and for m >= 3,
            // one maximal pattern).
            let mut patterns: Vec<Vec<usize>> = (0..nodes).map(|a| vec![a]).collect();
            if m >= 2 {
                for a in 0..nodes {
                    for b in (a + 1)..nodes {
                        patterns.push(vec![a, b]);
                    }
                }
            }
            if m >= 3 {
                patterns.push((0..m).collect());
            }
            for pattern in patterns {
                for &n in &pattern {
                    cluster.fail_node(n);
                    cluster.replace_node(n);
                }
                let (restored, report) = ecc.load(&mut cluster).unwrap();
                assert_eq!(restored, d, "{nodes}x{g} k={k} m={m} pattern {pattern:?}");
                assert_eq!(report.failed_nodes, pattern);
            }
        }
    }

    /// m = 1 tolerates exactly one failure: two concurrent failures are
    /// correctly refused without a remote copy.
    #[test]
    fn single_parity_refuses_double_failure() {
        // g = 3 so the 12 workers divide into k = 3 data groups.
        let spec = ClusterSpec::tiny_test(4, 3);
        let mut cluster = Cluster::new(spec);
        let mut ecc = EcCheck::initialize(
            &spec,
            EcCheckConfig::paper_defaults().with_km(3, 1).with_packet_size(256),
        )
        .unwrap();
        ecc.save(&mut cluster, &dicts(12)).unwrap();
        cluster.fail_node(0);
        cluster.fail_node(1);
        cluster.replace_node(0);
        cluster.replace_node(1);
        assert!(matches!(ecc.load(&mut cluster), Err(EcCheckError::Unrecoverable { .. })));
    }

    /// GF(2^4) and GF(2^16) drive the engine end-to-end too.
    #[test]
    fn alternate_field_widths_work_end_to_end() {
        for w in [4u8, 16] {
            let spec = ClusterSpec::tiny_test(4, 1);
            let mut cluster = Cluster::new(spec);
            let mut ecc = EcCheck::initialize(
                &spec,
                EcCheckConfig::paper_defaults().with_width(w).with_packet_size(256),
            )
            .unwrap();
            let d = dicts(4);
            ecc.save(&mut cluster, &d).unwrap();
            cluster.fail_node(0);
            cluster.fail_node(2);
            cluster.replace_node(0);
            cluster.replace_node(2);
            let (restored, _) = ecc.load(&mut cluster).unwrap();
            assert_eq!(restored, d, "w={w}");
        }
    }
}

#[cfg(test)]
mod store_tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::keys::{remote_chunk_key, remote_manifest_key};
    use crate::store::Drainer;
    use ecc_checkpoint::{DType, Tensor, Value};
    use ecc_cluster::{Cluster, ClusterSpec, SharedPlane};

    fn cfg() -> EcCheckConfig {
        EcCheckConfig::paper_defaults().with_packet_size(256).with_coding_threads(2)
    }

    /// Per-round worker states with tensor shapes that do NOT depend on
    /// the round (only values do) — delta saves require stable layouts.
    /// The payload is a real tensor: `Value::Bytes` would ride in the
    /// replicated header, never touching the erasure-coded chunks.
    fn dicts(world: usize, round: i64) -> Vec<StateDict> {
        (0..world)
            .map(|w| {
                let mut sd = StateDict::new();
                sd.insert("rank", Value::Int(w as i64));
                sd.insert("round", Value::Int(round));
                let len = 200 + w * 11;
                let fill = (w as u8).wrapping_mul(31).wrapping_add(round as u8);
                let t = Tensor::from_bytes(DType::U8, &[len], vec![fill; len]).unwrap();
                sd.insert("weights", Value::Tensor(t));
                sd
            })
            .collect()
    }

    /// Every blob the engine stores for `version`, across all nodes —
    /// the byte-level fingerprint the equivalence tests compare.
    fn version_blobs(
        cluster: &Cluster,
        version: u64,
    ) -> BTreeMap<(usize, String), Option<Vec<u8>>> {
        let keys = [chunk_key(version), manifest_key(version)];
        let mut out = BTreeMap::new();
        for node in 0..cluster.nodes() {
            for key in &keys {
                out.insert((node, key.clone()), cluster.get_local(node, key));
            }
        }
        out
    }

    #[test]
    fn retention_window_and_ladder_govern_gc() {
        let spec = ClusterSpec::tiny_test(4, 2);
        let mut cluster = Cluster::new(spec);
        let mut ecc =
            EcCheck::initialize(&spec, cfg().with_retain_last(2).with_retain_every(3)).unwrap();
        let mut saved: BTreeMap<u64, Vec<StateDict>> = BTreeMap::new();
        for round in 1..=7i64 {
            let d = dicts(8, round);
            let report = ecc.save(&mut cluster, &d).unwrap();
            saved.insert(report.version, d);
        }
        // Keep-last window {6, 7} plus the every-3rd ladder {3, 6}.
        assert_eq!(ecc.retained_versions(), vec![3, 6, 7]);
        for &v in &[3u64, 6, 7] {
            let (restored, report) = ecc.load_version(&mut cluster, v).unwrap();
            assert_eq!(restored, saved[&v], "version {v}");
            assert_eq!(report.version, v);
        }
        // Collected versions are refused by name and leave no blobs.
        assert!(matches!(
            ecc.load_version(&mut cluster, 5),
            Err(EcCheckError::VersionGone { version: 5 })
        ));
        for node in 0..4 {
            assert!(cluster.get_local(node, &chunk_key(5)).is_none(), "v5 chunk not swept");
            assert!(cluster.get_local(node, &manifest_key(5)).is_none(), "v5 manifest not swept");
        }
        // The default entry point still restores the newest version.
        let (restored, report) = ecc.load(&mut cluster).unwrap();
        assert_eq!(report.version, 7);
        assert_eq!(restored, saved[&7]);
    }

    /// Two blobs per version and nothing else: a node holds its chunk
    /// and the manifest, which carries every worker's header.
    #[test]
    fn a_save_leaves_chunk_headers_and_manifest_on_every_node() {
        let spec = ClusterSpec::tiny_test(4, 2);
        let mut cluster = Cluster::new(spec);
        let mut ecc = EcCheck::initialize(&spec, cfg()).unwrap();
        ecc.save(&mut cluster, &dicts(8, 1)).unwrap();
        ecc.save(&mut cluster, &dicts(8, 2)).unwrap();
        let mut want = vec![chunk_key(2), manifest_key(2)];
        want.sort();
        for node in 0..4 {
            assert_eq!(cluster.local_keys(node), want, "node {node}");
        }
    }

    #[test]
    fn default_retention_keeps_only_the_newest_version() {
        // Pins the pre-tiered-store behavior: retain_last defaults to 1,
        // so each save sweeps the previous version.
        let spec = ClusterSpec::tiny_test(4, 2);
        let mut cluster = Cluster::new(spec);
        let mut ecc = EcCheck::initialize(&spec, cfg()).unwrap();
        for round in 1..=3i64 {
            ecc.save(&mut cluster, &dicts(8, round)).unwrap();
        }
        assert_eq!(ecc.retained_versions(), vec![3]);
        assert!(matches!(
            ecc.load_version(&mut cluster, 2),
            Err(EcCheckError::VersionGone { version: 2 })
        ));
    }

    #[test]
    fn load_version_handles_divergent_packet_layouts() {
        // Each retained version has a different packets-per-worker
        // count; restoring an old one must read its manifest instead of
        // trusting the engine's current layout.
        let spec = ClusterSpec::tiny_test(4, 2);
        let mut cluster = Cluster::new(spec);
        let mut ecc = EcCheck::initialize(&spec, cfg().with_retain_last(3)).unwrap();
        let mut saved: BTreeMap<u64, Vec<StateDict>> = BTreeMap::new();
        for round in 1..=3i64 {
            let d: Vec<StateDict> = (0..8)
                .map(|w| {
                    let mut sd = StateDict::new();
                    sd.insert("rank", Value::Int(w as i64));
                    let len = 100 + 700 * (round as usize) + w * 13;
                    let t = Tensor::from_bytes(DType::U8, &[len], vec![round as u8; len]).unwrap();
                    sd.insert("weights", Value::Tensor(t));
                    sd
                })
                .collect();
            let report = ecc.save(&mut cluster, &d).unwrap();
            saved.insert(report.version, d);
        }
        for &v in &[1u64, 2, 3] {
            let (restored, report) = ecc.load_version(&mut cluster, v).unwrap();
            assert_eq!(restored, saved[&v], "version {v}");
            assert_eq!(report.version, v);
        }
    }

    /// A manifest is believed only as far as it checks out: a copy
    /// without a valid self-check is skipped, and a validly closed one
    /// with a wrong chunk entry makes that chunk an erasure — whose
    /// rebuilt bytes are then held to the same entry, so the restore
    /// refuses rather than return what the record does not vouch for.
    #[test]
    fn restores_do_not_trust_the_manifest_bytes() {
        let spec = ClusterSpec::tiny_test(4, 2);
        let mut cluster = Cluster::new(spec);
        let mut ecc = EcCheck::initialize(&spec, cfg()).unwrap();
        let d = dicts(8, 1);
        ecc.save(&mut cluster, &d).unwrap();
        // What the manifest held before it had a checksum.
        cluster.put_local(0, &manifest_key(1), 9u64.to_le_bytes().to_vec()).unwrap();
        assert_eq!(ecc.load(&mut cluster).unwrap().0, d);
        assert_eq!(ecc.recorder().snapshot().counter("ecc.load.manifest_fallbacks"), 1);
        let mut fresh = EcCheck::initialize(&spec, cfg()).unwrap();
        fresh.adopt_version(&cluster, 1).unwrap();
        assert_eq!(fresh.load(&mut cluster).unwrap().0, d, "adopted");

        let record = cluster.get_local(1, &manifest_key(1)).unwrap();
        let manifest = Manifest::decode(record, 4, 8).unwrap();
        let mut chunks = manifest.chunks().to_vec();
        chunks[0] ^= 1;
        let forged = Manifest::seal(&chunks, &manifest.headers().collect::<Vec<_>>());
        for node in 0..4 {
            cluster.put_local(node, &manifest_key(1), forged.clone()).unwrap();
        }
        assert!(matches!(ecc.load(&mut cluster), Err(EcCheckError::CorruptChunk { node: 0 })));
        assert_eq!(ecc.recorder().snapshot().counter("ecc.load.corrupt_chunks"), 1);
    }

    /// A stale copy that verifies — a delta's manifest put, which
    /// carries the dirty worker's header, silently dropped on node 0 —
    /// must not beat the newer one on nodes 1..3.
    #[test]
    fn stale_manifest_and_header_copies_do_not_beat_newer_ones() {
        let spec = ClusterSpec::tiny_test(4, 2);
        let mut cluster = Cluster::new(spec);
        let mut ecc = EcCheck::initialize(&spec, cfg()).unwrap();
        let mut d = dicts(8, 0);
        ecc.save(&mut cluster, &d).unwrap();
        let stale_manifest = cluster.get_local(0, &manifest_key(1)).unwrap();
        d[3] = dicts(8, 9).swap_remove(3);
        ecc.save_delta(&mut cluster, &[WorkerDirtySet { worker: 3, state: &d[3] }]).unwrap();
        cluster.put_local(0, &manifest_key(1), stale_manifest.clone()).unwrap();
        // The drain and the next delta judge by the newer copy too.
        let drained = crate::store::drain_version(&mut cluster, 1, 8, ecc.recorder()).unwrap();
        assert_eq!((drained.chunks_copied, drained.skipped_corrupt), (4, 0));
        assert_eq!(
            cluster.get_remote(&remote_manifest_key(1)),
            cluster.get_local(1, &manifest_key(1))
        );
        d[5] = dicts(8, 9).swap_remove(5);
        ecc.save_delta(&mut cluster, &[WorkerDirtySet { worker: 5, state: &d[5] }]).unwrap();
        assert_eq!(ecc.recorder().snapshot().counter("ecc.delta.corrupt_chunks"), 0);
        // That delta overwrote node 0's manifest; make it stale again.
        cluster.put_local(0, &manifest_key(1), stale_manifest).unwrap();
        assert_eq!(ecc.load(&mut cluster).unwrap().0, d);
        let snap = ecc.recorder().snapshot();
        assert_eq!(snap.counter("ecc.load.manifest_fallbacks"), 1);
        // Re-seeded: the next restore is served by node 0 alone.
        assert_eq!(ecc.load(&mut cluster).unwrap().0, d);
        assert_eq!(ecc.recorder().snapshot().counter("ecc.load.manifest_fallbacks"), 1);
    }

    /// A restore leaves every node with exactly the blobs a save left
    /// there, also where a chunk and a manifest copy had to be rebuilt.
    #[test]
    fn load_reseeds_byte_identical_blobs() {
        let spec = ClusterSpec::tiny_test(4, 2);
        let mut cluster = Cluster::new(spec);
        let mut ecc = EcCheck::initialize(&spec, cfg()).unwrap();
        let d = dicts(8, 3);
        ecc.save(&mut cluster, &d).unwrap();
        let saved = version_blobs(&cluster, 1);
        assert_eq!(ecc.load(&mut cluster).unwrap().0, d);
        assert_eq!(version_blobs(&cluster, 1), saved, "intact restore");

        for key in [chunk_key(1), manifest_key(1)] {
            let mut blob = cluster.get_local(0, &key).unwrap();
            blob[0] ^= 0x01;
            cluster.put_local(0, &key, blob).unwrap();
        }
        let (restored, report) = ecc.load(&mut cluster).unwrap();
        assert_eq!(restored, d);
        assert_eq!(report.corrupt_nodes, vec![0]);
        assert_eq!(report.rebuilt_chunks, 1);
        assert_eq!(version_blobs(&cluster, 1), saved, "rebuilt chunk and manifest copy");
    }

    #[test]
    fn multi_worker_delta_spans_chunks_and_survives_failures() {
        let spec = ClusterSpec::tiny_test(4, 2);
        let mut cluster = Cluster::new(spec);
        let mut ecc = EcCheck::initialize(&spec, cfg()).unwrap();
        let mut d = dicts(8, 0);
        ecc.save(&mut cluster, &d).unwrap();

        // Workers 1 and 6 live in different data groups (group size 4).
        let updated = dicts(8, 9);
        let dirty = [
            WorkerDirtySet { worker: 1, state: &updated[1] },
            WorkerDirtySet { worker: 6, state: &updated[6] },
        ];
        let report = ecc.save_delta(&mut cluster, &dirty).unwrap();
        d[1] = updated[1].clone();
        d[6] = updated[6].clone();
        assert_eq!(report.workers, vec![1, 6]);
        assert_eq!(report.chunks_patched, 2);
        assert!(report.changed_bytes > 0);
        // Each dirty region moves once to its data node and once per
        // parity node.
        assert_eq!(report.traffic_bytes, report.region_bytes * (1 + 2));

        cluster.fail_node(0);
        cluster.fail_node(2);
        cluster.replace_node(0);
        cluster.replace_node(2);
        let (restored, _) = ecc.load(&mut cluster).unwrap();
        assert_eq!(restored, d);
    }

    #[test]
    fn empty_delta_is_a_no_op() {
        let spec = ClusterSpec::tiny_test(4, 2);
        let mut cluster = Cluster::new(spec);
        let mut ecc = EcCheck::initialize(&spec, cfg()).unwrap();
        ecc.save(&mut cluster, &dicts(8, 0)).unwrap();
        let before = version_blobs(&cluster, 1);
        let report = ecc.save_delta(&mut cluster, &[]).unwrap();
        assert_eq!(report.changed_bytes, 0);
        assert_eq!(report.chunks_patched, 0);
        assert_eq!(report.traffic_bytes, 0);
        assert_eq!(version_blobs(&cluster, 1), before);
    }

    #[test]
    fn duplicate_dirty_worker_is_refused() {
        let spec = ClusterSpec::tiny_test(4, 2);
        let mut cluster = Cluster::new(spec);
        let mut ecc = EcCheck::initialize(&spec, cfg()).unwrap();
        let d = dicts(8, 0);
        ecc.save(&mut cluster, &d).unwrap();
        let dirty = [
            WorkerDirtySet { worker: 2, state: &d[2] },
            WorkerDirtySet { worker: 2, state: &d[2] },
        ];
        assert!(matches!(ecc.save_delta(&mut cluster, &dirty), Err(EcCheckError::Config { .. })));
    }

    #[test]
    fn delta_refusal_on_corrupt_chunk_is_atomic() {
        // All reads precede all stores, so a torn-update refusal must
        // leave every stored blob untouched.
        let spec = ClusterSpec::tiny_test(4, 2);
        let mut cluster = Cluster::new(spec);
        let mut ecc = EcCheck::initialize(&spec, cfg()).unwrap();
        let mut d = dicts(8, 0);
        ecc.save(&mut cluster, &d).unwrap();

        // Corrupt the parity chunk on node 1 (placement parity {1, 3}).
        let key = chunk_key(1);
        let mut blob = cluster.get_local(1, &key).unwrap();
        blob[11] ^= 0x40;
        cluster.put_local(1, &key, blob).unwrap();

        let snapshot = version_blobs(&cluster, 1);
        let updated = dicts(8, 5);
        let dirty = [WorkerDirtySet { worker: 4, state: &updated[4] }];
        assert!(matches!(
            ecc.save_delta(&mut cluster, &dirty),
            Err(EcCheckError::CorruptChunk { node: 1 })
        ));
        assert_eq!(version_blobs(&cluster, 1), snapshot, "refusal must not write");
        assert_eq!(ecc.recorder().snapshot().counter("ecc.delta.corrupt_chunks"), 1);

        // load() repairs the corruption; the delta then applies and the
        // new state survives failures.
        ecc.load(&mut cluster).unwrap();
        ecc.save_delta(&mut cluster, &dirty).unwrap();
        d[4] = updated[4].clone();
        cluster.fail_node(1);
        cluster.fail_node(3);
        cluster.replace_node(1);
        cluster.replace_node(3);
        let (restored, _) = ecc.load(&mut cluster).unwrap();
        assert_eq!(restored, d);
    }

    #[test]
    fn drainer_copies_sealed_versions_to_tier_one() {
        let spec = ClusterSpec::tiny_test(4, 2);
        let mut shared = SharedPlane::new(Cluster::new(spec));
        let mut ecc = EcCheck::initialize(&spec, cfg()).unwrap();
        let drainer = Drainer::spawn(shared.clone(), 4, ecc.recorder().clone());
        ecc.set_drainer(drainer.handle());

        let d1 = dicts(8, 1);
        ecc.save(&mut shared, &d1).unwrap();
        drainer.handle().flush();
        assert!(shared.get_remote(&remote_manifest_key(1)).is_some(), "v1 drained");

        let d2 = dicts(8, 2);
        ecc.save(&mut shared, &d2).unwrap();
        drainer.handle().flush();
        assert!(shared.get_remote(&remote_manifest_key(2)).is_some(), "v2 drained");
        // Default retention swept v1 from tier 0 after v2 sealed...
        assert_eq!(ecc.retained_versions(), vec![2]);
        // ...but tier 1 still holds both drained copies.
        assert!(shared.get_remote(&remote_chunk_key(1, 0)).is_some());

        // Catastrophic tier-0 loss (3 of 4 nodes > m = 2): recovery
        // must restore the newest version from the drained copy.
        for node in [0usize, 1, 2] {
            shared.lock().fail_node(node);
            shared.lock().replace_node(node);
        }
        let (restored, report) = ecc.load(&mut shared).unwrap();
        assert_eq!(restored, d2);
        assert_eq!(report.workflow, RecoveryWorkflow::Remote);
        drainer.shutdown();
    }
}
