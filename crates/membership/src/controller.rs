//! The placement controller: reconcile health, admit replacements,
//! drive online re-encoding, commit epochs.
//!
//! See the crate docs for the protocol; this module is the engine room.
//! The controller is deliberately a *single authority* (placement
//! center idiom): every shard-map transition funnels through
//! [`PlacementController::rebalance`], which is the only place the
//! placement epoch advances — and it advances only after the m-fault
//! guarantee has been re-verified chunk by chunk on the data plane.

use std::collections::{BTreeMap, BTreeSet};

use ecc_cluster::{ClusterError, ClusterSpec, DataPlane, HealthRegistry, NodeHealth, NodeId};
use ecc_erasure::{CodeParams, ErasureCode};
use ecc_telemetry::Recorder;
use ecc_trace::{Tracer, TrackId, DRIVER_PID};
use eccheck::keys::{
    chunk_key, encode_epoch, is_chunk_class, key_version, manifest_versions, placement_epoch_key,
};
use eccheck::store::{read_manifest, read_verified, repair_version, Tier, Verified};
use eccheck::{select_data_parity_nodes, EcCheckConfig, EcCheckError, Placement};

use crate::{MemberState, MembershipError, MembershipTable, ShardMap};

/// One chunk migration in a [`RebalancePlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Move {
    /// The outgoing incarnation's bytes were staged (graceful leave):
    /// write them to the new incarnation. ~2·chunk traffic.
    Copy {
        /// The chunk to move.
        chunk: usize,
        /// The slot whose fresh incarnation receives it.
        slot: NodeId,
    },
    /// The bytes are gone (crash): the chunk is rebuilt from `k`
    /// intact survivors by [`eccheck::store::repair_version`] — a
    /// decode, or for a parity chunk whose data set is fully intact a
    /// re-encode of just that row (GF-linearity patch).
    Rebuild {
        /// The chunk to rebuild.
        chunk: usize,
        /// The slot whose fresh incarnation receives it.
        slot: NodeId,
    },
}

impl Move {
    /// The slot receiving bytes.
    pub fn slot(self) -> NodeId {
        match self {
            Move::Copy { slot, .. } | Move::Rebuild { slot, .. } => slot,
        }
    }

    /// The chunk being moved.
    pub fn chunk(self) -> usize {
        match self {
            Move::Copy { chunk, .. } | Move::Rebuild { chunk, .. } => chunk,
        }
    }
}

/// The minimal set of migrations that reconciles the shard map with
/// the current membership — one [`Move`] per chunk whose assignment
/// changed, nothing for the rest of the cluster.
#[derive(Debug, Clone)]
pub struct RebalancePlan {
    /// The epoch the plan was computed against.
    pub epoch_from: u64,
    /// The placement the cluster converges to (sweep-line recompute).
    pub placement: Placement,
    /// The migrations, in chunk order.
    pub moves: Vec<Move>,
}

/// What one committed rebalance did. `migrated_bytes` vs `bound_bytes`
/// is the headline number: migration traffic proportional to churn,
/// not to a full re-encode of the checkpoint.
#[derive(Debug, Clone)]
pub struct RebalanceReport {
    /// The epoch after the rebalance (unchanged for a no-op).
    pub epoch: u64,
    /// Chunk moves served from staged bytes (graceful leaves).
    pub moves_copied: usize,
    /// Chunk moves served by erasure decoding from survivors.
    pub moves_rebuilt: usize,
    /// Rebuilds that needed no decode: every lost chunk was parity and
    /// the `k` chunks read were the data set (subset of
    /// `moves_rebuilt`).
    pub parity_patched: usize,
    /// Total bytes that crossed node boundaries for the migration
    /// (chunk reads + writes, staged reads, metadata replication).
    pub migrated_bytes: u64,
    /// The chunk-payload subset of `migrated_bytes` that only the
    /// migration scheme decides: erasure-code chunk bytes read from
    /// survivors and written to targets. Excludes
    /// replicated metadata and graceful-drain evacuation reads — all
    /// of which move under any scheme. This is the number compared to
    /// `bound_bytes`; the invariant `chunk_bytes <= bound_bytes` holds
    /// for every committed rebalance.
    pub chunk_bytes: u64,
    /// What a naive full re-encode would have moved for the same
    /// membership change, summed over the migrated checkpoint
    /// versions: `k` data-chunk reads, `m` parity writes (`m·s·W`),
    /// plus one write per churned data slot — `(k + m + d) · chunk`.
    pub bound_bytes: u64,
    /// Checkpoint versions that were migrated.
    pub versions: Vec<u64>,
}

impl RebalanceReport {
    /// One-object JSON summary (artifact-friendly, no dependencies).
    pub fn summary_json(&self) -> String {
        format!(
            "{{\"epoch\":{},\"moves_copied\":{},\"moves_rebuilt\":{},\"parity_patched\":{},\
             \"migrated_bytes\":{},\"chunk_bytes\":{},\"bound_bytes\":{},\"versions\":{:?}}}",
            self.epoch,
            self.moves_copied,
            self.moves_rebuilt,
            self.parity_patched,
            self.migrated_bytes,
            self.chunk_bytes,
            self.bound_bytes,
            self.versions
        )
    }
}

/// The placement controller. See the crate docs for an end-to-end
/// example.
#[derive(Debug)]
pub struct PlacementController {
    spec: ClusterSpec,
    k: usize,
    m: usize,
    code: ErasureCode,
    table: MembershipTable,
    map: ShardMap,
    health_cursor: u64,
    /// Bytes read off gracefully-leaving slots before their
    /// replacement wipes them, keyed by slot. The read traffic is
    /// attributed to the rebalance whose `Copy` move consumes it.
    staged: BTreeMap<NodeId, Vec<(String, Vec<u8>)>>,
    recorder: Recorder,
    trace: Option<(Tracer, TrackId)>,
}

impl PlacementController {
    /// A controller for the cluster `spec` encodes with `config`'s
    /// (k, m) split. The initial shard map is the paper's sweep-line
    /// placement at epoch 0 with every slot active.
    ///
    /// # Errors
    ///
    /// [`MembershipError::Engine`] when `k + m` does not match the
    /// node count or the code parameters are invalid.
    pub fn new(spec: &ClusterSpec, config: &EcCheckConfig) -> Result<Self, MembershipError> {
        let (k, m) = (config.k(), config.m());
        if k + m != spec.nodes() {
            return Err(EcCheckError::Config {
                detail: format!("k + m = {} must equal the {} nodes", k + m, spec.nodes()),
            }
            .into());
        }
        let code = ErasureCode::cauchy_good(
            CodeParams::new(k, m, config.w()).map_err(EcCheckError::from)?,
        )
        .map_err(EcCheckError::from)?;
        let placement = select_data_parity_nodes(&spec.origin_group(), k)?;
        let table = MembershipTable::new(spec.nodes());
        let map = ShardMap::new(placement, &table)?;
        Ok(Self {
            spec: *spec,
            k,
            m,
            code,
            table,
            map,
            health_cursor: 0,
            staged: BTreeMap::new(),
            recorder: Recorder::new(),
            trace: None,
        })
    }

    /// Attaches a telemetry recorder (shared-handle semantics, like
    /// the engine's).
    pub fn set_recorder(&mut self, recorder: &Recorder) {
        self.recorder = recorder.clone();
    }

    /// Attaches a tracer; rebalances emit spans on a dedicated
    /// `membership` track of the driver process.
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        let track = tracer.track(DRIVER_PID, "driver", "membership");
        self.trace = Some((tracer.clone(), track));
    }

    /// The current placement epoch.
    pub fn epoch(&self) -> u64 {
        self.map.epoch()
    }

    /// The placement the shard map is bound to.
    pub fn placement(&self) -> &Placement {
        self.map.placement()
    }

    /// The authoritative node registry.
    pub fn table(&self) -> &MembershipTable {
        &self.table
    }

    /// The authoritative shard map.
    pub fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    /// Ingests new health transitions (missed-heartbeat detection):
    /// every node the registry wrote off since the last call is marked
    /// dead in the membership table. Returns the newly dead slots.
    pub fn observe(&mut self, health: &HealthRegistry) -> Vec<NodeId> {
        let (transitions, cursor) = health.transitions_since(self.health_cursor);
        self.health_cursor = cursor;
        let mut newly_dead = Vec::new();
        for t in transitions {
            if t.to == NodeHealth::Dead && self.mark_dead_inner(t.node) {
                newly_dead.push(t.node);
            }
        }
        newly_dead
    }

    /// Writes a slot off as dead without waiting for the health
    /// registry (e.g. an operator-confirmed crash). Returns `true`
    /// when the state changed.
    pub fn force_dead(&mut self, slot: NodeId) -> bool {
        self.mark_dead_inner(slot)
    }

    fn mark_dead_inner(&mut self, slot: NodeId) -> bool {
        let changed = self.table.mark_dead(slot);
        if changed {
            self.recorder.counter("membership.dead.detected").incr();
            self.recorder.event("membership.dead", format!("slot {slot} written off"));
        }
        changed
    }

    /// Admits a replacement process into a vacated (dead or leaving)
    /// slot. The *physical* replacement — an empty node taking the
    /// slot over on the data plane — is the caller's side; this
    /// records the new incarnation so the next [`rebalance`] migrates
    /// the slot's chunk onto it. Returns the new incarnation.
    ///
    /// [`rebalance`]: PlacementController::rebalance
    ///
    /// # Errors
    ///
    /// Propagates [`MembershipTable::admit`]'s state checks.
    pub fn join(&mut self, slot: NodeId) -> Result<u64, MembershipError> {
        let incarnation = self.table.admit(slot)?;
        self.recorder.counter("membership.joins").incr();
        self.recorder
            .event("membership.join", format!("slot {slot} admitted incarnation {incarnation}"));
        Ok(incarnation)
    }

    /// Announces a graceful drain of an active slot: its entire key
    /// set is staged off the node *now* (while the bytes are still
    /// readable), so the eventual replacement is served by a cheap
    /// [`Move::Copy`] instead of a decode.
    ///
    /// # Errors
    ///
    /// [`MembershipError::Plane`] (`NodeDown`) when the slot is not
    /// alive on the plane — a dead node cannot drain, only crash —
    /// plus [`MembershipTable::retire`]'s state checks.
    pub fn leave(&mut self, plane: &impl DataPlane, slot: NodeId) -> Result<(), MembershipError> {
        if self.table.state(slot) != MemberState::Active {
            // Surface the same error retire() would, without staging.
            self.table.retire(slot)?;
            unreachable!("retire must fail for non-active slots");
        }
        if !plane.alive(slot) {
            return Err(ClusterError::NodeDown { node: slot }.into());
        }
        let mut blobs = Vec::new();
        let mut bytes = 0u64;
        for key in plane.local_keys(slot) {
            if let Some(blob) = plane.get_local(slot, &key) {
                bytes += blob.len() as u64;
                blobs.push((key, blob));
            }
        }
        self.staged.insert(slot, blobs);
        self.table.retire(slot)?;
        self.recorder.counter("membership.leaves").incr();
        self.recorder
            .event("membership.leave", format!("slot {slot} draining, {bytes} bytes staged"));
        Ok(())
    }

    /// Recomputes the sweep-line placement, diffs it (plus the
    /// incarnation counters) against the shard map, and returns the
    /// minimal migration set. Read-only; [`rebalance`] executes it.
    ///
    /// [`rebalance`]: PlacementController::rebalance
    ///
    /// # Errors
    ///
    /// [`MembershipError::Engine`] when placement recomputation fails.
    pub fn plan(&self) -> Result<RebalancePlan, MembershipError> {
        let placement = select_data_parity_nodes(&self.spec.origin_group(), self.k)?;
        let changed = self.map.diff(&placement, &self.table)?;
        let slot_of = |chunk: usize| -> NodeId {
            if chunk < self.k {
                placement.data_nodes()[chunk]
            } else {
                placement.parity_nodes()[chunk - self.k]
            }
        };
        let moves = changed
            .into_iter()
            .map(|chunk| {
                let slot = slot_of(chunk);
                if self.staged.contains_key(&slot) {
                    Move::Copy { chunk, slot }
                } else {
                    Move::Rebuild { chunk, slot }
                }
            })
            .collect();
        Ok(RebalancePlan { epoch_from: self.map.epoch(), placement, moves })
    }

    /// Executes the current [`plan`]: migrates every churned chunk for
    /// every checkpoint version on the plane, re-verifies the m-fault
    /// guarantee on the candidate layout, and only then commits — the
    /// shard map rebinds, joining slots activate, and the placement
    /// epoch bumps (written to every alive node under
    /// `keys::placement_epoch_key`, which is what makes stale engines
    /// refuse to save). With no pending membership change this is a
    /// no-op returning the current epoch.
    ///
    /// [`plan`]: PlacementController::plan
    ///
    /// # Errors
    ///
    /// [`MembershipError::NotEnoughSurvivors`] when fewer than `k`
    /// intact chunks remain for some version, and
    /// [`MembershipError::GuaranteeViolated`] when post-migration
    /// verification fails — in both cases nothing commits: the epoch,
    /// shard map, and registry states are unchanged.
    pub fn rebalance(
        &mut self,
        plane: &mut impl DataPlane,
    ) -> Result<RebalanceReport, MembershipError> {
        let timer = self.recorder.timer("membership.rebalance.ns");
        let plan = self.plan()?;
        if plan.moves.is_empty() {
            timer.stop();
            return Ok(RebalanceReport {
                epoch: self.map.epoch(),
                moves_copied: 0,
                moves_rebuilt: 0,
                parity_patched: 0,
                migrated_bytes: 0,
                chunk_bytes: 0,
                bound_bytes: 0,
                versions: Vec::new(),
            });
        }
        let span = self.trace.as_ref().map(|(tracer, track)| {
            tracer.span(*track, "membership.rebalance", format!("{} moves", plan.moves.len()))
        });

        let versions = manifest_versions(plane);

        // Read-side traffic of the graceful drains this plan consumes:
        // the bytes staged off each leaving slot crossed a node
        // boundary once already, charged to the rebalance that uses
        // them (a drain whose replacement never arrives is not
        // charged). Evacuation reads happen under *any* scheme — a
        // full re-encode regenerates parity instead of copying it — so
        // they count toward `migrated_bytes` but not the
        // bound-comparable `chunk_bytes`.
        let mut staged_total = 0u64;
        for mv in &plan.moves {
            let Move::Copy { slot, .. } = *mv else { continue };
            for (_, blob) in self.staged.get(&slot).into_iter().flatten() {
                staged_total += blob.len() as u64;
            }
        }
        let mut report = RebalanceReport {
            epoch: self.map.epoch(),
            moves_copied: 0,
            moves_rebuilt: 0,
            parity_patched: 0,
            migrated_bytes: staged_total,
            chunk_bytes: 0,
            bound_bytes: 0,
            versions: versions.clone(),
        };
        for &version in &versions {
            self.migrate_version(plane, version, &plan, &mut report)?;
        }
        for &version in &versions {
            self.verify_m_fault(plane, version, &plan)?;
        }

        // Every chunk of every version is verified on its own alive
        // slot, so the guarantee holds — commit. The markers go first:
        // they are the last step that can fail, and one that does
        // leaves the controller where it was (engines that read a new
        // marker are fenced until the retried rebalance commits it).
        let marker = encode_epoch(self.map.epoch() + 1);
        for slot in 0..self.table.universe() {
            if plane.alive(slot) {
                plane.put_local(slot, &placement_epoch_key(), marker.clone())?;
            }
        }
        let epoch = self.map.advance(plan.placement, &self.table)?;
        let joining: Vec<NodeId> = self
            .table
            .entries()
            .filter(|(_, i)| i.state == MemberState::Joining)
            .map(|(slot, _)| slot)
            .collect();
        for slot in joining {
            self.table.activate(slot)?;
            self.staged.remove(&slot);
        }
        report.epoch = epoch;

        self.recorder.counter("membership.epoch").incr();
        self.recorder.counter("membership.rebalance.calls").incr();
        self.recorder.counter("membership.migration.bytes").add(report.migrated_bytes);
        self.recorder.counter("membership.moves.copy").add(report.moves_copied as u64);
        self.recorder.counter("membership.moves.rebuild").add(report.moves_rebuilt as u64);
        self.recorder.counter("membership.moves.patch").add(report.parity_patched as u64);
        self.recorder.event(
            "membership.rebalance",
            format!(
                "epoch {} -> {epoch}: {} copied, {} rebuilt ({} patched), {} bytes (bound {})",
                plan.epoch_from,
                report.moves_copied,
                report.moves_rebuilt,
                report.parity_patched,
                report.migrated_bytes,
                report.bound_bytes
            ),
        );
        drop(span);
        timer.stop();
        Ok(report)
    }

    /// Migrates `version`'s churned chunks per `plan`, accumulating
    /// traffic into `report`.
    fn migrate_version(
        &mut self,
        plane: &mut impl DataPlane,
        version: u64,
        plan: &RebalancePlan,
        report: &mut RebalanceReport,
    ) -> Result<(), MembershipError> {
        let targets: BTreeSet<NodeId> = plan.moves.iter().map(|m| m.slot()).collect();
        // Naive full re-encode for the same membership change reads
        // the k data chunks, rewrites all m parity chunks, and writes
        // one chunk per churned *data* slot: (k + m + d) · chunk.
        let churned_data = plan.moves.iter().filter(|m| m.chunk() < self.k).count();
        let naive_factor = (self.k + self.m + churned_data) as u64;

        // Copy moves first: staged bytes of this version flow to the
        // slot's fresh incarnation.
        for mv in &plan.moves {
            let Move::Copy { slot, .. } = *mv else { continue };
            let staged = self.staged.get(&slot).cloned().unwrap_or_default();
            for (key, blob) in staged {
                if key_version(&key) == Some(version) {
                    report.migrated_bytes += blob.len() as u64;
                    if is_chunk_class(&key) {
                        report.chunk_bytes += blob.len() as u64;
                    }
                    plane.put_local(slot, &key, blob)?;
                }
            }
            report.moves_copied += 1;
        }

        // Rebuild moves: reconstruct from survivors.
        let lost: Vec<Move> =
            plan.moves.iter().copied().filter(|m| matches!(m, Move::Rebuild { .. })).collect();
        if lost.is_empty() {
            // Still need the bound for the report: derive chunk size
            // from any survivor.
            if let Some(len) = self.survivor_chunk_len(plane, version, &targets) {
                report.bound_bytes += naive_factor * len as u64;
            }
            return Ok(());
        }

        // Gather intact survivor chunks (verified against the first of
        // the version's manifest copies under which k of them verify; a
        // corrupt survivor counts as an erasure, exactly like the load
        // path).
        let (n, world) = (self.table.universe(), self.spec.world_size());
        let gathered = read_manifest(plane, false, version, world, |_, manifest| {
            let mut shards: Vec<Option<Vec<u8>>> = vec![None; n];
            let mut intact = 0usize;
            let mut read_bytes = 0u64;
            for entry in self.map.entries() {
                if intact == self.k {
                    break;
                }
                if targets.contains(&entry.slot) || !plane.alive(entry.slot) {
                    continue;
                }
                let crc = manifest.chunks()[entry.slot];
                let blob =
                    match read_verified(plane, Tier::Local(entry.slot), &chunk_key(version), crc) {
                        Verified::Intact(blob) => blob,
                        Verified::Missing => continue,
                        Verified::Corrupt => {
                            self.recorder.counter("membership.migration.corrupt_survivors").incr();
                            continue;
                        }
                    };
                read_bytes += blob.len() as u64;
                intact += 1;
                shards[entry.chunk] = Some(blob);
            }
            if intact < self.k {
                return Err(MembershipError::NotEnoughSurvivors {
                    survivors: intact,
                    needed: self.k,
                });
            }
            Ok((shards, read_bytes))
        });
        let (manifest, (shards, read_bytes)) = gathered
            .unwrap_or(Err(MembershipError::NotEnoughSurvivors { survivors: 0, needed: self.k }))?;
        let chunk_len = shards.iter().flatten().next().map_or(0, Vec::len) as u64;
        report.bound_bytes += naive_factor * chunk_len;
        report.migrated_bytes += read_bytes;
        report.chunk_bytes += read_bytes;

        // When every lost chunk is parity and the k chunks read are
        // the data set, the repair re-encodes just the lost rows — no
        // decode, and the surviving parity is never touched.
        if lost.iter().all(|m| m.chunk() >= self.k) && shards[..self.k].iter().all(Option::is_some)
        {
            report.parity_patched += lost.len();
        }
        let slots: Vec<NodeId> = lost.iter().map(|m| m.slot()).collect();
        let repaired =
            repair_version(plane, &self.code, &plan.placement, version, &manifest, shards, &slots)?;
        // A slot that is down was skipped; `verify_m_fault` refuses it.
        let seeded = slots.len() - repaired.skipped.len();
        report.moves_rebuilt += seeded;
        report.migrated_bytes += repaired.put_bytes;
        report.chunk_bytes += seeded as u64 * chunk_len;
        Ok(())
    }

    /// Chunk length of any intact survivor for `version`, for bound
    /// accounting when a rebalance is copy-only.
    fn survivor_chunk_len(
        &self,
        plane: &impl DataPlane,
        version: u64,
        targets: &BTreeSet<NodeId>,
    ) -> Option<usize> {
        self.map
            .entries()
            .iter()
            .filter(|e| !targets.contains(&e.slot) && plane.alive(e.slot))
            .find_map(|e| plane.get_local(e.slot, &chunk_key(version)))
            .map(|blob| blob.len())
    }

    /// The acceptance gate for an epoch commit: every chunk of
    /// `version` present on its own alive slot and matching the
    /// version's manifest under the candidate placement — i.e. the
    /// cluster tolerates any `m` further faults from this instant on.
    fn verify_m_fault(
        &self,
        plane: &impl DataPlane,
        version: u64,
        plan: &RebalancePlan,
    ) -> Result<(), MembershipError> {
        let violated = |detail: String| MembershipError::GuaranteeViolated { version, detail };
        let world = self.spec.world_size();
        let judged = read_manifest(plane, false, version, world, |_, manifest| {
            let slots = plan.placement.data_nodes().iter().chain(plan.placement.parity_nodes());
            for (chunk, &slot) in slots.enumerate() {
                if !plane.alive(slot) {
                    return Err(violated(format!("slot {slot} (chunk {chunk}) is not alive")));
                }
                let crc = manifest.chunks()[slot];
                let detail = match read_verified(plane, Tier::Local(slot), &chunk_key(version), crc)
                {
                    Verified::Intact(_) => continue,
                    Verified::Missing => format!("chunk {chunk} absent on slot {slot}"),
                    Verified::Corrupt => format!("chunk {chunk} on slot {slot} fails its checksum"),
                };
                return Err(violated(detail));
            }
            Ok(())
        });
        let none = || Err(violated("no alive slot holds a manifest that verifies".to_string()));
        judged.unwrap_or_else(none).map(|_| ())
    }
}
