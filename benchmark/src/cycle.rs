//! The closed loop: one client thread drives the engine through
//! save → delta → restore cycles, each op a blocking call, and checks
//! every restore bit-exactly outside the timed region.

use std::sync::Arc;
use std::time::Instant;

use ecc_checkpoint::StateDict;
use ecc_cluster::DataPlane;
use eccheck::{PipelineStats, RecoveryWorkflow, WorkerDirtySet};

use crate::metrics::{Op, WorkloadSpec};
use crate::plane::{Backing, Sink, Tally};
use crate::workload::{build_states, Rig, States};

/// Untimed cycles before the first timed one: they cover kernel
/// dispatch, first allocations and the connection dial.
pub const WARMUP_CYCLES: usize = 2;

/// Step of the rotating dirty worker. Coprime with every workload's
/// world size, so all workers take their turn, and wider than a pipeline
/// stage's block of workers, so a few consecutive cycles already touch
/// every stage (stages differ in shard and header size).
const DIRTY_STRIDE: usize = 5;

/// What the timed cycles of one run measured.
#[derive(Debug, Default)]
pub struct Samples {
    /// Wall time of each op in ms, indexed by [`Op::index`].
    pub op_ms: [Vec<f64>; Op::ALL.len()],
    /// Time each cycle spent blocked in the library, ms.
    pub cycle_ms: Vec<f64>,
    /// `SaveReport.traffic` total over `m·s·W`, per save.
    pub save_traffic_ratio: Vec<f64>,
    /// `DeltaReport.traffic_bytes` over `m·s·W`, per delta.
    pub delta_traffic_ratio: Vec<f64>,
    /// Largest tier-0 footprint seen at a cycle's end, bytes.
    pub stored_peak: u64,
    /// Bytes each cycle added to tier 1.
    pub tier1_growth: Vec<f64>,
    /// Executor stage accounting of each save.
    pub pipeline: Vec<PipelineStats>,
    /// Plane calls inside each op, indexed by [`Op::index`] (traced
    /// cycles only).
    pub tallies: [Vec<Tally>; Op::ALL.len()],
}

impl Samples {
    pub fn ops(&self, op: Op) -> &[f64] {
        &self.op_ms[op.index()]
    }

    pub fn cycles(&self) -> usize {
        self.cycle_ms.len()
    }
}

/// One workload's client: its states, its rig and how to build a fresh
/// rig when the workload asks for a rebuild.
pub struct Loop<'a, P> {
    spec: &'static WorkloadSpec,
    pub states: States,
    /// `None` only while a rebuild drops the old rig before making the
    /// new one, so the two never hold memory together.
    rig: Option<Rig<P>>,
    make_rig: &'a dyn Fn() -> Rig<P>,
    sink: Option<Arc<Sink>>,
    cycle: usize,
    since_rebuild: usize,
    /// Ops attempted and ops that erred, restored wrong bytes or took
    /// the wrong workflow, warm-up included.
    pub attempted: u64,
    pub failed: u64,
}

impl<'a, P: DataPlane + Backing> Loop<'a, P> {
    /// Builds the states from `seed`, builds the rig and runs the
    /// warm-up cycles: everything before the first timed op.
    pub fn set_up(
        spec: &'static WorkloadSpec,
        seed: u64,
        make_rig: &'a dyn Fn() -> Rig<P>,
        sink: Option<Arc<Sink>>,
    ) -> Self {
        let mut this = Self {
            spec,
            states: build_states(spec, seed),
            rig: Some(make_rig()),
            make_rig,
            sink,
            cycle: 0,
            since_rebuild: 0,
            attempted: 0,
            failed: 0,
        };
        let mut discard = Samples::default();
        for _ in 0..WARMUP_CYCLES {
            this.run_cycle(&mut discard);
        }
        this
    }

    pub fn rig(&mut self) -> &mut Rig<P> {
        self.rig.as_mut().expect("rig present between cycles")
    }

    /// `m·s·W`: the parity bytes a full save of the current layout moves.
    fn full_save_bound(&self, packets_per_worker: usize) -> f64 {
        (self.spec.m * packets_per_worker * self.spec.packet_size * self.spec.world()) as f64
    }

    fn fail_nodes(&mut self, nodes: &[usize]) -> bool {
        let plane = self.rig().plane.inner_mut();
        nodes.iter().all(|&node| plane.fail_and_replace(node).is_ok())
    }

    /// Runs one cycle and appends its measurements to `out`.
    pub fn run_cycle(&mut self, out: &mut Samples) {
        if self.spec.rebuild_every == Some(self.since_rebuild) {
            self.rig = None;
            self.rig = Some((self.make_rig)());
            self.since_rebuild = 0;
        }
        if let Some(sink) = &self.sink {
            sink.begin_cycle(self.cycle as u32);
        }
        let tier1_before = self.rig().stored().1;
        let (m, world) = (self.spec.m, self.spec.world());
        let dirty_worker = self.cycle * DIRTY_STRIDE % world;
        let placement = self.rig().engine.placement().clone();
        let parity: Vec<usize> = placement.parity_nodes()[..m].to_vec();
        let data: Vec<usize> = placement.data_nodes()[..m].to_vec();
        // m + 1 losses leave fewer than k chunks in memory.
        let beyond: Vec<usize> =
            parity.iter().copied().chain(placement.data_nodes()[..1].iter().copied()).collect();

        let mut cycle_ms = 0.0;
        let mut packets_per_worker = 0;
        // Whether the delta has been applied on top of the full save.
        let mut patched = false;
        for &op in self.spec.ops() {
            let injected = match op {
                Op::RestoreParity => self.fail_nodes(&parity),
                Op::RestoreData => self.fail_nodes(&data),
                Op::RestoreRemote => self.fail_nodes(&beyond),
                _ => true,
            };
            let sink = self.sink.as_deref();
            let rig = self.rig.as_mut().expect("rig present between cycles");
            let (base, other) = self.states.for_cycle(self.cycle);
            let span = sink.map(Sink::begin_op);
            let started = Instant::now();
            let outcome = match op {
                Op::Save => rig.engine.save(&mut rig.plane, base).map(|report| {
                    packets_per_worker = report.packets_per_worker;
                    Done::Saved(report.traffic.total(), report.pipeline)
                }),
                Op::Drain => {
                    rig.drainer.as_ref().expect("tiered rig has a drainer").handle().flush();
                    Ok(Done::Drained)
                }
                Op::Delta => {
                    let dirty =
                        [WorkerDirtySet { worker: dirty_worker, state: &other[dirty_worker] }];
                    rig.engine
                        .save_delta(&mut rig.plane, &dirty)
                        .map(|report| Done::Patched(report.traffic_bytes))
                }
                _ => rig
                    .engine
                    .load(&mut rig.plane)
                    .map(|(dicts, report)| Done::Restored(dicts, report.workflow)),
            };
            let ms = started.elapsed().as_secs_f64() * 1e3;
            let tally = sink.zip(span).map(|(sink, t0)| sink.end_op(op, t0));

            let bound = self.full_save_bound(packets_per_worker);
            let ok = injected
                && match outcome {
                    Ok(Done::Saved(traffic, pipeline)) => {
                        out.save_traffic_ratio.push(traffic as f64 / bound);
                        out.pipeline.extend(pipeline);
                        true
                    }
                    Ok(Done::Drained) => true,
                    Ok(Done::Patched(traffic)) => {
                        out.delta_traffic_ratio.push(traffic as f64 / bound);
                        patched = true;
                        true
                    }
                    Ok(Done::Restored(dicts, workflow)) => {
                        // Tier 1 holds the full save's bytes; tier 0
                        // holds them with the delta on top.
                        let dirty = (patched && op != Op::RestoreRemote).then_some(dirty_worker);
                        workflow == expected_workflow(op) && matches(&dicts, base, other, dirty)
                    }
                    Err(err) => {
                        eprintln!("{} cycle {} {}: {err}", self.spec.name, self.cycle, op.name());
                        false
                    }
                };
            self.attempted += 1;
            if !ok {
                self.failed += 1;
            }
            out.op_ms[op.index()].push(ms);
            out.tallies[op.index()].extend(tally);
            cycle_ms += ms;
        }

        out.cycle_ms.push(cycle_ms);
        let (tier0, tier1) = self.rig().stored();
        out.stored_peak = out.stored_peak.max(tier0);
        out.tier1_growth.push(tier1.saturating_sub(tier1_before) as f64);
        self.cycle += 1;
        self.since_rebuild += 1;
    }
}

/// What a successful op hands to the checks that follow it.
enum Done {
    Saved(u64, Option<PipelineStats>),
    Drained,
    Patched(u64),
    Restored(Vec<StateDict>, RecoveryWorkflow),
}

fn expected_workflow(op: Op) -> RecoveryWorkflow {
    match op {
        Op::RestoreData => RecoveryWorkflow::Decode,
        Op::RestoreRemote => RecoveryWorkflow::Remote,
        _ => RecoveryWorkflow::Resend,
    }
}

/// Whether `restored` is `base`, with worker `dirty` taken from `other`.
fn matches(
    restored: &[StateDict],
    base: &[StateDict],
    other: &[StateDict],
    dirty: Option<usize>,
) -> bool {
    restored.len() == base.len()
        && restored
            .iter()
            .enumerate()
            .all(|(w, sd)| sd == if dirty == Some(w) { &other[w] } else { &base[w] })
}
