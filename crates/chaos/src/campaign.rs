//! Seeded chaos campaigns: randomized save/fault/load rounds that
//! check the paper's recovery contract on every round.
//!
//! The contract under test (paper §II-B, §III-B):
//!
//! * **At most `m` chunk-class faults** (node crashes, lost or
//!   corrupted chunks) → `load` must return the checkpoint
//!   **bit-exactly**.
//! * **More than `m`**, or the version's manifest record — which
//!   carries every worker's header — lost from *every* node → `load`
//!   must fail with a clean [`eccheck::EcCheckError::Unrecoverable`]
//!   naming what was lost.
//! * **Never garbage**: whatever the fault mix — including faults that
//!   strike mid-recovery — a successful `load` must return exactly
//!   what was saved.

use std::collections::BTreeSet;

use ecc_checkpoint::{DType, StateDict, Tensor, Value};
use ecc_cluster::{Cluster, ClusterSpec, DataPlane, FailureModel, NodeId};
use ecc_obs::{ObsHub, SloSpec};
use ecc_telemetry::push_json_string;
use eccheck::store::{self, WorkerDirtySet};
use eccheck::{keys, EcCheck, EcCheckConfig, EcCheckError, RecoveryWorkflow};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::plane::{ChaosConfig, ChaosPlane, FaultKind, FaultRecord, FetchRecord, Tier};
use crate::scenario::{ChaosEvent, ScenarioSchedule};

/// Shape and fault intensities of a chaos campaign.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Cluster nodes (`k + m`).
    pub nodes: usize,
    /// GPUs (workers) per node; world size is `nodes * gpus_per_node`.
    pub gpus_per_node: usize,
    /// Data nodes.
    pub k: usize,
    /// Parity nodes — the failure budget under test.
    pub m: usize,
    /// Save/fault/load rounds per seed.
    pub rounds: usize,
    /// Engine packet size in bytes (multiple of 64).
    pub packet_size: usize,
    /// Per-node crash probability per round.
    pub p_node_fail: f64,
    /// Correlated failure-domain size (rack/PDU width).
    pub failure_domain: usize,
    /// Per-surviving-node at-rest chunk corruption probability.
    pub p_corrupt_chunk: f64,
    /// Probability that one crash strikes mid-load instead of before.
    pub p_midload_crash: f64,
    /// Probability of corrupting the manifest record on all nodes but
    /// one (recovery must fall back to the spared copy).
    pub p_record_attack: f64,
    /// Probability of corrupting the manifest record on *every* node
    /// (recovery must refuse).
    pub p_record_total_loss: f64,
    /// In-flight drop probability per `put_local` during save/restore.
    pub p_drop_put: f64,
    /// In-flight corruption probability per `put_local`.
    pub p_corrupt_put: f64,
    /// Duplicate-delivery probability per `put_local`.
    pub p_duplicate_put: f64,
    /// Transient-outage probability per first `get_local` of a blob.
    pub p_transient_get: f64,
    /// Engine fetch retries (must cover one transient failure).
    pub fetch_retries: usize,
    /// Coding threads for the save path (the save pipeline's encode
    /// worker count; faults must be thread-count-agnostic).
    pub coding_threads: usize,
}

impl CampaignConfig {
    /// The standard campaign: the paper's `k = m = 2` testbed (4
    /// nodes, 2 GPUs each) under a moderate mix of every fault kind —
    /// enough pressure that a typical seed exercises both recovery
    /// and refusal.
    pub fn standard() -> Self {
        Self {
            nodes: 4,
            gpus_per_node: 2,
            k: 2,
            m: 2,
            rounds: 8,
            packet_size: 256,
            p_node_fail: 0.2,
            failure_domain: 2,
            p_corrupt_chunk: 0.15,
            p_midload_crash: 0.2,
            p_record_attack: 0.2,
            p_record_total_loss: 0.05,
            p_drop_put: 0.02,
            p_corrupt_put: 0.02,
            p_duplicate_put: 0.05,
            p_transient_get: 0.1,
            fetch_retries: 2,
            coding_threads: 2,
        }
    }
}

/// How one campaign round ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoundResult {
    /// `load` succeeded and the restored state was bit-exact.
    Recovered {
        /// Chunks the engine rebuilt (decoded or re-encoded).
        rebuilt_chunks: usize,
        /// Corrupted chunks the engine caught via checksums.
        corrupt_detected: usize,
    },
    /// `load` refused with a structured `Unrecoverable`.
    Refused {
        /// Intact chunks that survived.
        survivors: usize,
        /// Chunks that were needed (`k`).
        needed: usize,
        /// Worker states the engine reported as lost.
        lost_workers: Vec<usize>,
    },
}

/// One round's faults and verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundOutcome {
    /// Round index within the campaign.
    pub round: usize,
    /// Checkpoint version the round saved and attacked.
    pub version: u64,
    /// Nodes whose chunk was destroyed or tainted before the load
    /// (crashes, at-rest corruption, dropped/corrupted chunk puts).
    pub chunk_casualties: Vec<NodeId>,
    /// Whether the version's manifest record was damaged on every
    /// node.
    pub record_catastrophe: bool,
    /// Whether a crash was scheduled to strike mid-load. Ambiguous
    /// rounds only assert the never-garbage half of the contract.
    pub ambiguous: bool,
    /// The verdict.
    pub result: RoundResult,
}

/// Everything a campaign run produced.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Campaign seed.
    pub seed: u64,
    /// Per-round outcomes, in order.
    pub outcomes: Vec<RoundOutcome>,
    /// Contract violations — **empty on a passing run**.
    pub violations: Vec<String>,
    /// Every fault the chaos plane injected, in firing order.
    pub fault_log: Vec<FaultRecord>,
    /// Every successful blob fetch with the tier that served it, in
    /// order — which restores were answered by the peer EC group and
    /// which fell back to the remote store. Like the fault log, this
    /// must repeat exactly for a given seed.
    pub fetch_log: Vec<FetchRecord>,
    /// Final telemetry snapshot (engine + chaos counters), as JSON.
    pub telemetry_json: String,
}

impl CampaignReport {
    /// `true` when no contract violation was observed.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Rounds that recovered bit-exactly.
    pub fn recovered(&self) -> usize {
        self.outcomes.iter().filter(|o| matches!(o.result, RoundResult::Recovered { .. })).count()
    }

    /// Rounds that cleanly refused.
    pub fn refused(&self) -> usize {
        self.outcomes.iter().filter(|o| matches!(o.result, RoundResult::Refused { .. })).count()
    }

    /// The fault log as a JSON array (one object per injected fault).
    pub fn fault_log_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, f) in self.fault_log.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "  {{\"op\": {}, \"kind\": \"{}\", \"node\": {}, \"key\": \"{}\"}}",
                f.op,
                f.kind.label(),
                f.node,
                f.key
            ));
        }
        out.push_str("\n]\n");
        out
    }

    /// The fetch log as a JSON array: one object per served fetch with
    /// its tier provenance (`"peer"` or `"remote"`; remote fetches have
    /// a `null` node). Diffable across runs the same way the fault log
    /// is.
    pub fn fetch_log_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, f) in self.fetch_log.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let tier = match f.tier {
                Tier::Peer => "peer",
                Tier::Remote => "remote",
            };
            let node = match f.node {
                Some(n) => n.to_string(),
                None => String::from("null"),
            };
            out.push_str(&format!(
                "  {{\"op\": {}, \"tier\": \"{}\", \"node\": {}, \"key\": \"{}\"}}",
                f.op, tier, node, f.key
            ));
        }
        out.push_str("\n]\n");
        out
    }

    /// A one-object JSON summary of the run.
    pub fn summary_json(&self) -> String {
        let mut violations = String::new();
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                violations.push_str(", ");
            }
            push_json_string(&mut violations, v);
        }
        format!(
            "{{\"seed\": {}, \"rounds\": {}, \"recovered\": {}, \"refused\": {}, \
             \"faults\": {}, \"violations\": [{}]}}\n",
            self.seed,
            self.outcomes.len(),
            self.recovered(),
            self.refused(),
            self.fault_log.len(),
            violations
        )
    }
}

/// Runs one seeded campaign: `cfg.rounds` rounds of save → inject →
/// load against a real engine on a chaos-wrapped cluster, checking
/// the recovery contract after every round.
///
/// # Panics
///
/// Panics when `cfg` is not a valid engine configuration (e.g.
/// `k + m != nodes`) or a save fails outright — campaign setup bugs,
/// not contract violations.
pub fn run_campaign(cfg: &CampaignConfig, seed: u64) -> CampaignReport {
    run_campaign_observed(cfg, seed, None)
}

/// The default objectives a campaign exposes when observed: the
/// engine's headline SLOs (save stall, recovery latency) plus the
/// paper's traffic bound expressed over the campaign's `k`.
pub fn campaign_slos(cfg: &CampaignConfig) -> Vec<SloSpec> {
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
            cfg.k as f64,
        ),
    ]
}

/// [`run_campaign`], optionally reporting into a live observability
/// hub: the engine adopts the hub's recorder (so `/metrics` scrapes
/// taken mid-campaign see every phase histogram and fault event), the
/// hub's health registry — if attached — receives heartbeats from
/// alive nodes each round and `mark_dead` on every injected crash.
///
/// With `obs = None` this is byte-for-byte the unobserved campaign:
/// same faults, same outcomes, same telemetry and fault-log artifacts.
///
/// # Panics
///
/// As [`run_campaign`].
pub fn run_campaign_observed(
    cfg: &CampaignConfig,
    seed: u64,
    obs: Option<&ObsHub>,
) -> CampaignReport {
    let spec = ClusterSpec::tiny_test(cfg.nodes, cfg.gpus_per_node);
    run_campaign_on_plane(cfg, seed, obs, Cluster::new(spec))
}

/// [`run_campaign_observed`] against an arbitrary inner data plane —
/// e.g. an `ecc-net` `RemotePlane`, so the identical fault campaign
/// runs over real sockets. The engine drives the same sequence of
/// data-plane operations whatever the transport, so a given (config,
/// seed) pair produces the identical fault log and outcomes on every
/// backend — a cross-plane differential the socket tests assert.
///
/// `inner` must expose exactly `cfg.nodes` all-alive nodes and start
/// with no blobs under the engine's key namespace.
///
/// # Panics
///
/// As [`run_campaign`], plus when `inner` has the wrong node count.
pub fn run_campaign_on_plane<P: DataPlane>(
    cfg: &CampaignConfig,
    seed: u64,
    obs: Option<&ObsHub>,
    inner: P,
) -> CampaignReport {
    assert_eq!(
        inner.nodes(),
        cfg.nodes,
        "inner plane has {} nodes, campaign wants {}",
        inner.nodes(),
        cfg.nodes
    );
    let world = cfg.nodes * cfg.gpus_per_node;
    let spec = ClusterSpec::tiny_test(cfg.nodes, cfg.gpus_per_node);
    let engine_cfg = EcCheckConfig::paper_defaults()
        .with_km(cfg.k, cfg.m)
        .with_packet_size(cfg.packet_size)
        .with_coding_threads(cfg.coding_threads)
        .with_pipeline_buffer(64)
        .with_fetch_retries(cfg.fetch_retries);
    let mut ecc = EcCheck::initialize(&spec, engine_cfg).expect("campaign config must be valid");
    if let Some(hub) = obs {
        // Report into the hub's recorder so live scrapes see the
        // campaign's histograms and fault events as they happen.
        ecc.set_recorder(hub.recorder().clone());
        heartbeat_all(hub, cfg.nodes);
    }

    let chaos_cfg = ChaosConfig {
        seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1),
        p_drop_put: cfg.p_drop_put,
        p_duplicate_put: cfg.p_duplicate_put,
        p_corrupt_put: cfg.p_corrupt_put,
        p_transient_get: cfg.p_transient_get,
        transient_get_failures: 1,
        max_bit_flips: 8,
    };
    let mut plane = ChaosPlane::new(inner, chaos_cfg);
    plane.set_recorder(ecc.recorder().clone());
    let tracer = ecc.attach_tracer();
    plane.set_tracer(&tracer);

    let model = FailureModel::new(cfg.p_node_fail).expect("probability is valid");
    let schedule = ScenarioSchedule::mixed(
        &model,
        cfg.nodes,
        cfg.failure_domain,
        cfg.p_corrupt_chunk,
        cfg.p_midload_crash,
        cfg.rounds,
        seed,
    );
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0xC4A0));

    let mut outcomes = Vec::new();
    let mut violations = Vec::new();

    for (round, mut events) in schedule.rounds.into_iter().enumerate() {
        // Occasionally attack the replicated manifest record too.
        if rng.gen_bool(cfg.p_record_total_loss) {
            events.push(ChaosEvent::CorruptRecordCopies((0..cfg.nodes).collect()));
        } else if rng.gen_bool(cfg.p_record_attack) {
            let spared = rng.gen_range(0..cfg.nodes);
            let nodes = (0..cfg.nodes).filter(|&n| n != spared).collect();
            events.push(ChaosEvent::CorruptRecordCopies(nodes));
        }

        let dicts = round_dicts(world, seed, round);
        let log_before_save = plane.fault_log().len();
        let report = ecc.save(&mut plane, &dicts).expect("save on an all-alive cluster succeeds");
        let version = report.version;

        // Fault accounting: which chunks are destroyed or tainted, and
        // which nodes' copy of the manifest record is damaged.
        let mut casualties: BTreeSet<NodeId> = BTreeSet::new();
        let mut manifest_damage: BTreeSet<NodeId> = BTreeSet::new();
        for fault in &plane.fault_log()[log_before_save..] {
            if !matches!(fault.kind, FaultKind::DropPut | FaultKind::CorruptPut) {
                continue;
            }
            if keys::key_version(&fault.key) != Some(version) {
                continue;
            }
            if keys::is_chunk_class(&fault.key) {
                casualties.insert(fault.node);
            } else if fault.key == keys::manifest_key(version) {
                manifest_damage.insert(fault.node);
            }
        }

        let mut crashed: BTreeSet<NodeId> = BTreeSet::new();
        let mut ambiguous = false;
        for event in &events {
            match event {
                ChaosEvent::CrashNodes(nodes) => {
                    for &node in nodes {
                        plane.crash_now(node);
                        crashed.insert(node);
                        casualties.insert(node);
                        if let Some(hub) = obs {
                            if let Some(health) = hub.health() {
                                health.mark_dead(node, hub.recorder().now_ns());
                            }
                        }
                    }
                }
                ChaosEvent::CorruptChunks(nodes) => {
                    for &node in nodes {
                        if plane.corrupt_blob(node, &keys::chunk_key(version)) {
                            casualties.insert(node);
                        }
                    }
                }
                ChaosEvent::CorruptRecordCopies(nodes) => {
                    for &node in nodes {
                        if plane.corrupt_blob(node, &keys::manifest_key(version)) {
                            manifest_damage.insert(node);
                        }
                    }
                }
                ChaosEvent::CrashDuringLoad { node, after_ops } => {
                    plane.schedule_crash_at_op(*node, plane.op() + after_ops);
                    ambiguous = true;
                }
            }
        }
        // A crashed node loses its copy of the manifest record; with no
        // intact copy on any alive node nothing in tier 0 can be
        // verified, and there is no tier 1 to fall back on.
        let record_catastrophe = manifest_damage.union(&crashed).count() == cfg.nodes;

        let faults = casualties.len();
        let result = match ecc.load(&mut plane) {
            Ok((restored, load_report)) => {
                if restored != dicts {
                    violations.push(format!(
                        "seed {seed} round {round}: load returned GARBAGE state \
                         ({faults} chunk faults, ambiguous={ambiguous})"
                    ));
                } else if !ambiguous && faults > cfg.m && !record_catastrophe {
                    violations.push(format!(
                        "seed {seed} round {round}: recovered despite {faults} > m = {} \
                         chunk faults — fault accounting or engine bug",
                        cfg.m
                    ));
                } else if !ambiguous && record_catastrophe {
                    violations.push(format!(
                        "seed {seed} round {round}: recovered although no intact manifest \
                         record survived on any node"
                    ));
                }
                RoundResult::Recovered {
                    rebuilt_chunks: load_report.rebuilt_chunks,
                    corrupt_detected: load_report.corrupt_nodes.len(),
                }
            }
            Err(EcCheckError::Unrecoverable { survivors, needed, lost_workers }) => {
                if !ambiguous && faults <= cfg.m && !record_catastrophe {
                    violations.push(format!(
                        "seed {seed} round {round}: refused a recoverable scenario \
                         ({faults} <= m = {} chunk faults, casualties {casualties:?})",
                        cfg.m
                    ));
                }
                RoundResult::Refused { survivors, needed, lost_workers }
            }
            Err(other) => {
                violations.push(format!(
                    "seed {seed} round {round}: unexpected error instead of a clean \
                     verdict: {other}"
                ));
                RoundResult::Refused { survivors: 0, needed: cfg.k, lost_workers: Vec::new() }
            }
        };

        outcomes.push(RoundOutcome {
            round,
            version,
            chunk_casualties: casualties.into_iter().collect(),
            record_catastrophe,
            ambiguous,
            result,
        });

        // Reset for the next round: revive everything and disarm any
        // mid-load crash that never fired.
        plane.cancel_scheduled_crashes();
        for node in 0..cfg.nodes {
            plane.heal(node);
        }
        if let Some(hub) = obs {
            heartbeat_all(hub, cfg.nodes);
        }
    }

    CampaignReport {
        seed,
        outcomes,
        violations,
        fault_log: plane.fault_log(),
        fetch_log: plane.fetch_log(),
        telemetry_json: ecc.recorder().snapshot().to_json(),
    }
}

/// Runs the tiered-store chaos campaign: `cfg.rounds` rounds cycling
/// through four fault legs that attack the tier-0 ↔ tier-1 boundary
/// the plain campaign never touches:
///
/// * **Mid-drain crash** — a node crash is armed to strike in the
///   middle of the tier-0 → tier-1 drain copy. The drain must skip the
///   dead node (never publish unverified bytes) and the next `load`
///   must still restore bit-exactly from the surviving peers.
/// * **Tier-1 loss, tier-0 intact** — the remote store is wiped after
///   a full drain and one node crashes. Recovery must be served
///   entirely by the peer tier: every fetch in the log says `Peer`.
/// * **Tier-0 heavy loss, tier-1 drained** — more than `m` nodes crash
///   after a full drain, so fewer than `k` chunks survive in memory.
///   Recovery must fall back to the drained copy: the load reports the
///   `Remote` workflow and the fetch log shows `Remote`-tier fetches.
/// * **Delta torn-update refusal** — a parity chunk is corrupted at
///   rest, then a delta save runs. The patch must refuse with
///   [`EcCheckError::CorruptChunk`] *before writing anything* (all
///   reads precede all stores), leaving the sealed version untouched,
///   and the next `load` must repair the corruption bit-exactly.
///
/// The legs are deterministic per seed, and — like
/// [`run_campaign`] — the whole report (outcomes, fault log, **and**
/// fetch log) repeats exactly from run to run.
///
/// # Panics
///
/// Panics when `cfg` is not a valid engine configuration or a
/// save/drain that must succeed fails outright — setup bugs, not
/// contract violations. Requires `cfg.nodes > cfg.m + 1` so the
/// heavy-loss leg leaves a survivor.
pub fn run_tiered_campaign(cfg: &CampaignConfig, seed: u64) -> CampaignReport {
    assert!(cfg.nodes > cfg.m + 1, "heavy-loss leg needs a surviving node");
    let world = cfg.nodes * cfg.gpus_per_node;
    let spec = ClusterSpec::tiny_test(cfg.nodes, cfg.gpus_per_node);
    let engine_cfg = EcCheckConfig::paper_defaults()
        .with_km(cfg.k, cfg.m)
        .with_packet_size(cfg.packet_size)
        .with_coding_threads(cfg.coding_threads)
        .with_pipeline_buffer(64)
        .with_fetch_retries(cfg.fetch_retries);
    let mut ecc = EcCheck::initialize(&spec, engine_cfg).expect("campaign config must be valid");
    // Quiet chaos: the tiered legs inject every fault explicitly, so
    // the tier that serves each fetch is the leg's doing alone.
    let chaos_cfg = ChaosConfig::quiet(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1));
    let mut plane = ChaosPlane::new(Cluster::new(spec), chaos_cfg);
    plane.set_recorder(ecc.recorder().clone());
    let tracer = ecc.attach_tracer();
    plane.set_tracer(&tracer);

    let mut outcomes = Vec::new();
    let mut violations = Vec::new();

    for round in 0..cfg.rounds {
        let leg = round % 4;
        let dicts = round_dicts(world, seed, round);
        let report = ecc.save(&mut plane, &dicts).expect("save on an all-alive cluster succeeds");
        let version = report.version;
        let victim = round % cfg.nodes;
        let mut casualties: BTreeSet<NodeId> = BTreeSet::new();

        match leg {
            0 => {
                // Leg A: crash strikes mid-drain. The drain's per-node
                // reads tick the op counter, so op+3 lands inside the
                // copy loop; the victim's blobs vanish underneath it.
                plane.schedule_crash_at_op(victim, plane.op() + 3);
                casualties.insert(victim);
                match store::drain_version(&mut plane, version, world, ecc.recorder()) {
                    Ok(outcome) => {
                        if outcome.chunks_copied < cfg.k {
                            violations.push(format!(
                                "seed {seed} round {round}: mid-drain crash left only {} \
                                 chunks in tier 1 (< k = {})",
                                outcome.chunks_copied, cfg.k
                            ));
                        }
                    }
                    Err(err) => violations.push(format!(
                        "seed {seed} round {round}: drain died on a one-node crash: {err}"
                    )),
                }
            }
            1 => {
                // Leg B: tier 1 lost after a full drain, one peer down
                // — recovery must be served entirely by tier 0.
                store::drain_version(&mut plane, version, world, ecc.recorder())
                    .expect("drain of a sealed version succeeds");
                plane.inner_mut().wipe_remote();
                plane.crash_now(victim);
                casualties.insert(victim);
            }
            2 => {
                // Leg C: tier 0 loses more than m nodes after a full
                // drain — recovery must fall back to tier 1.
                store::drain_version(&mut plane, version, world, ecc.recorder())
                    .expect("drain of a sealed version succeeds");
                for offset in 0..=cfg.m {
                    let node = (victim + offset) % cfg.nodes;
                    plane.crash_now(node);
                    casualties.insert(node);
                }
            }
            _ => {
                // Leg D: corrupt a parity chunk at rest, then attempt a
                // delta save. The patch reads every parity chunk before
                // writing anything, so it must refuse cleanly.
                let parity = ecc.placement().parity_nodes()[0];
                assert!(
                    plane.corrupt_blob(parity, &keys::chunk_key(version)),
                    "parity node must hold the sealed chunk"
                );
                casualties.insert(parity);
                let mut mutated = dicts[0].clone();
                mutated.insert("iteration", Value::Int(round as i64 + 0x7A57));
                let dirty = [WorkerDirtySet { worker: 0, state: &mutated }];
                match ecc.save_delta(&mut plane, &dirty) {
                    Err(EcCheckError::CorruptChunk { node }) => {
                        if node != parity {
                            violations.push(format!(
                                "seed {seed} round {round}: delta refusal blamed node \
                                 {node}, corrupted {parity}"
                            ));
                        }
                    }
                    Ok(_) => violations.push(format!(
                        "seed {seed} round {round}: delta save patched through a \
                         corrupt parity chunk"
                    )),
                    Err(other) => violations.push(format!(
                        "seed {seed} round {round}: delta refusal raised {other} \
                         instead of CorruptChunk"
                    )),
                }
            }
        }

        let fetches_before = plane.fetch_log().len();
        let result = match ecc.load(&mut plane) {
            Ok((restored, load_report)) => {
                if restored != dicts {
                    violations.push(format!(
                        "seed {seed} round {round} leg {leg}: load returned GARBAGE state"
                    ));
                }
                if leg == 2 && load_report.workflow != RecoveryWorkflow::Remote {
                    violations.push(format!(
                        "seed {seed} round {round}: {} crashed nodes but recovery ran \
                         {:?} instead of Remote",
                        casualties.len(),
                        load_report.workflow
                    ));
                }
                RoundResult::Recovered {
                    rebuilt_chunks: load_report.rebuilt_chunks,
                    corrupt_detected: load_report.corrupt_nodes.len(),
                }
            }
            Err(err) => {
                violations.push(format!(
                    "seed {seed} round {round} leg {leg}: tiered recovery failed: {err}"
                ));
                RoundResult::Refused { survivors: 0, needed: cfg.k, lost_workers: Vec::new() }
            }
        };

        // Tier provenance: leg B must never touch tier 1 (it is gone);
        // leg C must visibly lean on it.
        let fetches = plane.fetch_log();
        let round_fetches = &fetches[fetches_before..];
        let touched_remote = round_fetches.iter().any(|f| f.tier == Tier::Remote);
        match leg {
            1 if touched_remote => {
                violations.push(format!(
                    "seed {seed} round {round}: recovery read tier 1 after it was wiped"
                ));
            }
            2 if !touched_remote => {
                violations.push(format!(
                    "seed {seed} round {round}: remote-workflow recovery shows no \
                     tier-1 fetches"
                ));
            }
            _ => {}
        }

        outcomes.push(RoundOutcome {
            round,
            version,
            chunk_casualties: casualties.into_iter().collect(),
            record_catastrophe: false,
            ambiguous: false,
            result,
        });

        plane.cancel_scheduled_crashes();
        for node in 0..cfg.nodes {
            plane.heal(node);
        }
    }

    CampaignReport {
        seed,
        outcomes,
        violations,
        fault_log: plane.fault_log(),
        fetch_log: plane.fetch_log(),
        telemetry_json: ecc.recorder().snapshot().to_json(),
    }
}

/// Heartbeats every node on the hub's health registry at the current
/// clock (healed nodes revive; the next crash re-kills its target).
fn heartbeat_all(hub: &ObsHub, nodes: usize) {
    if let Some(health) = hub.health() {
        let now = hub.recorder().now_ns();
        for node in 0..nodes {
            health.record_heartbeat(node, now);
        }
    }
}

/// Deterministic per-round worker states: varying sizes so padding and
/// heterogeneous shards are exercised, plus scalars that make any
/// cross-round or cross-worker mixup visible. The payload is a tensor —
/// `Value::Bytes` rides in the replicated header and would leave every
/// erasure-coded chunk all zeros.
fn round_dicts(world: usize, seed: u64, round: usize) -> Vec<StateDict> {
    let mut rng = StdRng::seed_from_u64(seed ^ ((round as u64) << 32) ^ 0x5EED);
    (0..world)
        .map(|w| {
            let mut sd = StateDict::new();
            sd.insert("iteration", Value::Int(round as i64));
            sd.insert("rank", Value::Int(w as i64));
            sd.insert("tag", Value::Str(format!("s{seed}-r{round}-w{w}")));
            let len = 32 + rng.gen_range(0..160usize);
            let payload: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u8)).collect();
            let t = Tensor::from_bytes(DType::U8, &[len], payload).expect("tensor shape valid");
            sd.insert("payload", Value::Tensor(t));
            sd
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_campaign_passes_and_mixes_outcomes() {
        let cfg = CampaignConfig::standard();
        let report = run_campaign(&cfg, 5);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.outcomes.len(), cfg.rounds);
        assert!(!report.fault_log.is_empty());
        assert!(!report.telemetry_json.is_empty());
    }

    #[test]
    fn campaigns_are_deterministic_per_seed() {
        let cfg = CampaignConfig::standard();
        let a = run_campaign(&cfg, 11);
        let b = run_campaign(&cfg, 11);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.fault_log, b.fault_log);
    }

    #[test]
    fn seed_matrix_exercises_both_contract_halves() {
        let cfg = CampaignConfig::standard();
        let mut recovered = 0;
        let mut refused = 0;
        for seed in 0..4 {
            let report = run_campaign(&cfg, seed);
            assert!(report.passed(), "seed {seed} violations: {:?}", report.violations);
            recovered += report.recovered();
            refused += report.refused();
        }
        assert!(recovered > 0, "no round ever recovered — campaign too harsh");
        assert!(refused > 0, "no round ever refused — campaign too gentle");
    }

    #[test]
    fn tiered_campaign_passes_and_proves_tier_provenance() {
        let cfg = CampaignConfig::standard();
        let report = run_tiered_campaign(&cfg, 3);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.outcomes.len(), cfg.rounds);
        // Every leg recovers (leg D's refusal is the delta save's, not
        // the load's), and both tiers visibly served fetches.
        assert_eq!(report.recovered(), cfg.rounds);
        assert!(report.fetch_log.iter().any(|f| f.tier == Tier::Peer));
        assert!(report.fetch_log.iter().any(|f| f.tier == Tier::Remote));
    }

    #[test]
    fn tiered_campaigns_are_deterministic_fetch_for_fetch() {
        // Which tier served every blob is part of the recovery
        // contract, not an accident of scheduling: a seeded run must
        // repeat fault-for-fault AND fetch-for-fetch.
        let a = run_tiered_campaign(&CampaignConfig::standard(), 9);
        let b = run_tiered_campaign(&CampaignConfig::standard(), 9);
        assert!(a.passed(), "violations: {:?}", a.violations);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.fault_log, b.fault_log);
        assert_eq!(a.fetch_log, b.fetch_log);
    }

    #[test]
    fn observed_campaign_matches_the_unobserved_one() {
        use ecc_cluster::{HealthConfig, HealthRegistry};
        use ecc_obs::ObsHubConfig;
        use ecc_telemetry::Recorder;

        let cfg = CampaignConfig::standard();
        let plain = run_campaign(&cfg, 5);

        let hub_cfg = ObsHubConfig { slos: campaign_slos(&cfg), ..ObsHubConfig::default() };
        let hub = ObsHub::new(Recorder::new(), hub_cfg)
            .with_health(HealthRegistry::new(cfg.nodes, HealthConfig::default()));
        let observed = run_campaign_observed(&cfg, 5, Some(&hub));

        assert_eq!(plain.outcomes, observed.outcomes, "observation must not steer the campaign");
        assert_eq!(plain.fault_log, observed.fault_log);

        // A scrape taken after the campaign sees the engine's phase
        // histograms, injected faults, health counters and SLO burn.
        let metrics = hub.render_metrics();
        let scrape = ecc_obs::parse_exposition(&metrics).expect("valid exposition");
        assert!(scrape.value("ecc_save_calls_total").is_some());
        assert!(metrics.contains("chaos_fault_"), "injected faults must surface as counters");
        assert!(scrape.labeled("ecc_slo_burn_rate", &[("slo", "traffic")]).is_some());
        assert!(
            scrape
                .labeled("ecc_health_transitions_total", &[("to", "dead")])
                .is_some_and(|s| s.value != ecc_obs::MetricValue::Int(0)),
            "campaign crashes must drive health transitions"
        );
        let events = hub.render_events_json();
        assert!(events.contains("chaos.fault."), "fault events must reach /events");
    }

    #[test]
    fn report_json_exports_are_well_formed() {
        let report = run_campaign(&CampaignConfig::standard(), 2);
        let log = report.fault_log_json();
        assert!(log.starts_with('[') && log.trim_end().ends_with(']'));
        let summary = report.summary_json();
        assert!(summary.contains("\"seed\": 2"));
        assert!(summary.contains("\"violations\": []"));
        let fetches = report.fetch_log_json();
        assert!(fetches.starts_with('[') && fetches.trim_end().ends_with(']'));
        assert!(fetches.contains("\"tier\": \"peer\""));
    }

    #[test]
    fn summary_json_escapes_every_violation() {
        let mut report =
            run_campaign(&CampaignConfig { rounds: 1, ..CampaignConfig::standard() }, 2);
        let violation = "node \\1 said \"no\"\nthen\t\u{1}stopped";
        report.violations = vec![violation.to_string(), "plain".to_string()];
        let summary = ecc_trace::json::parse(&report.summary_json()).expect("valid JSON");
        let parsed = summary.get("violations").and_then(|v| v.as_arr()).expect("an array");
        let parsed: Vec<_> = parsed.iter().map(|v| v.as_str()).collect();
        assert_eq!(parsed, [Some(violation), Some("plain")]);
    }
}
