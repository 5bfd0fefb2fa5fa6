//! Deterministic timing models for ECCheck checkpointing and recovery.
//!
//! The correctness plane ([`crate::EcCheck`]) moves real bytes; this
//! module predicts *durations* for paper-scale configurations, following
//! the paper's own decomposition of a save (§III-A, Fig. 5/11):
//!
//! 1. **Step 1** — DtoH offload of GPU state, the only training-blocking
//!    part.
//! 2. **Step 2** — broadcast of the tiny serialized headers.
//! 3. **Step 3** — the asynchronous encode → XOR-reduce → P2P pipeline
//!    over fixed-size buffers, with the two communication stages
//!    restricted to profiled network idle slots when a training profile
//!    is supplied (§IV-B-3, §IV-C).
//!
//! Recovery timing models the two workflows of §III-B.

use ecc_cluster::{ClusterSpec, FailureScenario};
use ecc_dnn::IterationProfile;
use ecc_sim::{pipeline_completion, trace_pipeline, SimDuration, SimTime, StageConstraint};
use ecc_trace::{Tracer, TrackId, DRIVER_PID};

use crate::{select_data_parity_nodes, EcCheckConfig, RecoveryWorkflow};

/// Calibration constants for the timing model.
///
/// Defaults are representative of the paper's testbed-class hardware;
/// the criterion micro-benches in `ecc-bench` measure this machine's
/// actual XOR-coding rate if recalibration is wanted.
#[derive(Debug, Clone, Copy)]
pub struct TimingConstants {
    /// Sustained XOR-coding throughput per CPU thread, bytes/second.
    pub coding_rate_per_thread: f64,
    /// Serialized header size per worker in bytes (non-tensor KVs +
    /// tensor keys; ~104 KB for GPT2-345M per §III-C).
    pub header_bytes: u64,
}

impl Default for TimingConstants {
    fn default() -> Self {
        Self { coding_rate_per_thread: 3.0e9, header_bytes: 128 << 10 }
    }
}

/// Predicted timing of one `eccheck.save`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaveTiming {
    /// Step 1: DtoH offload (blocks training).
    pub step1_offload: SimDuration,
    /// Step 2: header broadcast (blocks training, negligible).
    pub step2_broadcast: SimDuration,
    /// Step 3: the asynchronous coding/communication pipeline.
    pub step3_pipeline: SimDuration,
    /// End-to-end save duration (`save` call to completion).
    pub total: SimDuration,
}

impl SaveTiming {
    /// The training stall caused by this save (steps 1 + 2).
    pub fn stall(&self) -> SimDuration {
        self.step1_offload + self.step2_broadcast
    }
}

/// Predicted timing of one `eccheck.load`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryTiming {
    /// Which workflow the scenario triggers.
    pub workflow: RecoveryWorkflow,
    /// Time to move checkpoint data back to where it is needed.
    pub transfer: SimDuration,
    /// Decode / re-encode compute time.
    pub compute: SimDuration,
    /// End-to-end recovery duration (`load` call to training resumption).
    pub total: SimDuration,
}

/// Predicts the duration of one ECCheck save.
///
/// `shard_bytes` is the per-worker checkpoint payload `s`; `profile`
/// (when given) confines the XOR-reduction and P2P stages to the
/// training network's idle windows.
///
/// # Panics
///
/// Panics when the configuration does not fit the cluster (these models
/// are driven by the bench harness with pre-validated configs).
pub fn save_timing(
    spec: &ClusterSpec,
    config: &EcCheckConfig,
    shard_bytes: u64,
    profile: Option<&IterationProfile>,
    constants: &TimingConstants,
) -> SaveTiming {
    save_plan(spec, config, shard_bytes, profile, constants).timing
}

/// A solved save model: the headline numbers plus the per-packet stage
/// timeline they were derived from, so the trace renderer can draw the
/// exact pipeline the prediction used.
struct SavePlan {
    timing: SaveTiming,
    /// Per-packet service times: `[encode, comm]`.
    durations: Vec<Vec<SimDuration>>,
    /// When step 3 begins (after the blocking steps 1 + 2).
    start: SimTime,
    /// Per-packet completion instants from [`pipeline_completion`].
    done: Vec<Vec<SimTime>>,
}

fn save_plan(
    spec: &ClusterSpec,
    config: &EcCheckConfig,
    shard_bytes: u64,
    profile: Option<&IterationProfile>,
    constants: &TimingConstants,
) -> SavePlan {
    config.validate(spec.nodes(), spec.world_size()).expect("valid configuration");
    let world = spec.world_size() as u64;
    let g = spec.gpus_per_node() as u64;
    let (k, m) = (config.k() as u64, config.m() as u64);
    let ps = config.packet_size() as u64;
    let packets = shard_bytes.div_ceil(ps).max(1);

    // Step 1: every worker offloads its shard over its own PCIe engine,
    // in parallel across workers.
    let step1 = spec.dtoh().transfer_time(shard_bytes);

    // Step 2: headers from every worker broadcast to all nodes. The
    // volume is worker-count × header size over each NIC.
    let header_volume = constants.header_bytes * world;
    let step2 = spec.nic().transfer_time(header_volume);

    // Step 3: per-worker pipeline over `packets` buffers. The per-packet
    // stage durations follow the traffic accounting of §V-F: over a full
    // checkpoint each worker encodes m packets' worth per data packet,
    // ships m·(k-1)/k packets of XOR-reduction traffic and m/k + data
    // packets of P2P — total m·s per worker. Node NICs are shared by g
    // workers.
    let threads = config.coding_threads() as f64;
    let encode_rate = constants.coding_rate_per_thread * threads;
    let t_encode = SimDuration::from_secs_f64((ps * m) as f64 / encode_rate);
    let per_worker_nic = spec.nic().shared(g as usize);
    // Split one checkpoint's total traffic (m·s·W, §V-F) evenly over
    // workers and packets. XOR reduction and P2P both cross the same
    // NIC, so although they are separate pipeline threads in the
    // implementation (§IV-C), their *bandwidth* serialises: model them
    // as one communication stage of m packets' worth per data packet.
    let xor_share = (m * (k - 1)) as f64 / k as f64;
    let p2p_share = m as f64 - xor_share;
    let t_comm = per_worker_nic.transfer_time((ps as f64 * (xor_share + p2p_share)).ceil() as u64);

    let durations = vec![vec![t_encode; packets as usize], vec![t_comm; packets as usize]];
    let idle = profile.map(IterationProfile::windows);
    let comm_constraint = match idle {
        Some(w) => StageConstraint::IdleSlots(w),
        None => StageConstraint::Free,
    };
    let constraints = vec![StageConstraint::Free, comm_constraint];
    let start = SimTime::ZERO + step1 + step2;
    let done = pipeline_completion(&durations, &constraints, start);
    let end = done[1][packets as usize - 1];
    let step3 = end - start;
    let timing = SaveTiming {
        step1_offload: step1,
        step2_broadcast: step2,
        step3_pipeline: step3,
        total: step1 + step2 + step3,
    };
    SavePlan { timing, durations, start, done }
}

/// Predicts the duration of one ECCheck recovery for a failure scenario.
///
/// # Panics
///
/// Panics when the configuration does not fit the cluster or more than
/// `m` nodes fail (the harness models the recoverable cases; the
/// catastrophic path is remote-storage-bound and modelled by baselines).
pub fn recovery_timing(
    spec: &ClusterSpec,
    config: &EcCheckConfig,
    shard_bytes: u64,
    scenario: &FailureScenario,
    constants: &TimingConstants,
) -> RecoveryTiming {
    config.validate(spec.nodes(), spec.world_size()).expect("valid configuration");
    assert!(scenario.count() <= config.m(), "recoverable scenarios fail at most m nodes");
    let placement = select_data_parity_nodes(&spec.origin_group(), config.k())
        .expect("validated configuration");
    let g = spec.gpus_per_node() as u64;
    let k = config.k() as u64;
    let world = spec.world_size() as u64;
    let chunk_bytes = world / k * shard_bytes; // one chunk = W/k packets of s
    let threads = config.coding_threads() as f64;
    let coding_rate = constants.coding_rate_per_thread * threads;

    let data_lost = placement.data_nodes().iter().any(|&n| scenario.is_failed(n));
    if !data_lost {
        // Workflow A: data nodes resend each replaced node's worker
        // packets (g·s per replaced node, receivers in parallel, but a
        // single data node may serve several receivers — serialize on
        // the busiest sender) and lost parity chunks are re-encoded and
        // shipped in the background.
        let receivers = scenario.count() as u64;
        let resend_bytes_per_receiver = g * shard_bytes;
        // Each receiver is served by the data node holding its packets;
        // a data node serving several receivers serializes on its NIC.
        let senders = k.min(receivers.max(1));
        let sender_load = resend_bytes_per_receiver * receivers.div_ceil(senders);
        let transfer = spec.nic().transfer_time(sender_load);
        // Lost parity is re-encoded in the background after training
        // resumes; report it as compute but not on the resume path.
        let reencode = SimDuration::from_secs_f64((chunk_bytes * k) as f64 / coding_rate);
        RecoveryTiming {
            workflow: RecoveryWorkflow::Resend,
            transfer,
            compute: reencode,
            total: transfer,
        }
    } else {
        // Workflow B: survivors ship chunks to the decoders (k chunks
        // cross the network in parallel, bounded per receiver), decode
        // runs at coding rate over k survivor chunks, then each node
        // regains its packets.
        let gather = spec.nic().transfer_time(chunk_bytes);
        let decode = SimDuration::from_secs_f64((chunk_bytes * k) as f64 / coding_rate);
        let redistribute = spec.nic().transfer_time(g * shard_bytes * scenario.count() as u64);
        RecoveryTiming {
            workflow: RecoveryWorkflow::Decode,
            transfer: gather + redistribute,
            compute: decode,
            total: gather + decode + redistribute,
        }
    }
}

fn node_nic(tracer: &Tracer, node: usize) -> TrackId {
    tracer.track(node as u64, &format!("node{node}"), "nic")
}

/// Like [`save_timing`], but also renders the predicted timeline into
/// `tracer` with explicit simulated timestamps (one process per node):
///
/// - `save.offload` / `save.headers` — the blocking steps 1–2 on every
///   node;
/// - `pkt<i>` spans on per-data-node `encode`/`xfer` tracks — the
///   step-3 pipeline, with a `pkt` hand-off arrow per buffer;
/// - `nic.burst` — when checkpoint bytes actually cross each data
///   node's NIC (split across training idle gaps when gated), with a
///   `p2p` arrow from the final burst into every parity node's
///   `p2p.recv` window;
/// - `train.comm` — the profiled training-busy windows the gated
///   stages must dodge, on the driver process.
pub fn trace_save_timing(
    tracer: &Tracer,
    spec: &ClusterSpec,
    config: &EcCheckConfig,
    shard_bytes: u64,
    profile: Option<&IterationProfile>,
    constants: &TimingConstants,
) -> SaveTiming {
    let plan = save_plan(spec, config, shard_bytes, profile, constants);
    let placement = select_data_parity_nodes(&spec.origin_group(), config.k())
        .expect("validated configuration");
    let t0 = SimTime::ZERO;
    let step1_end = t0 + plan.timing.step1_offload;
    let start = plan.start;
    let pipeline_end = *plan.done.last().and_then(|s| s.last()).expect("at least one packet");
    let idle = profile.map(IterationProfile::windows);

    for node in 0..spec.nodes() {
        let gpu = tracer.track(node as u64, &format!("node{node}"), "gpu");
        tracer.begin_at(gpu, "save.offload", format!("{shard_bytes} B DtoH"), t0.as_nanos());
        tracer.end_at(gpu, step1_end.as_nanos());
        let nic = node_nic(tracer, node);
        tracer.begin_at(
            nic,
            "save.headers",
            format!("{} B broadcast", constants.header_bytes),
            step1_end.as_nanos(),
        );
        tracer.end_at(nic, start.as_nanos());
    }

    if let Some(w) = idle {
        let train = tracer.track(DRIVER_PID, "driver", "train.comm");
        w.trace_occupancy(tracer, train, "train.comm", t0, pipeline_end);
    }

    // The NIC carries one checkpoint's worth of communication per data
    // node; when gated, the bytes cross the wire in idle-gap bursts.
    let total_comm: SimDuration = plan.durations[1].iter().copied().sum();
    let bursts = match idle {
        Some(w) => w.split_segments(start, total_comm),
        None => vec![(start, start + total_comm)],
    };
    let end = pipeline_end.max(bursts.last().map_or(start, |&(_, e)| e));

    // Parity receive windows open first so the arrows from every data
    // node's final burst land inside them.
    let mut recv_tracks = Vec::new();
    for &p in placement.parity_nodes() {
        let nic = node_nic(tracer, p);
        tracer.begin_at(
            nic,
            "p2p.recv",
            format!("from {} data nodes", placement.data_nodes().len()),
            start.as_nanos(),
        );
        recv_tracks.push(nic);
    }
    for &d in placement.data_nodes() {
        let enc = tracer.track(d as u64, &format!("node{d}"), "encode");
        let xfer = tracer.track(d as u64, &format!("node{d}"), "xfer");
        trace_pipeline(tracer, &[enc, xfer], "pkt", &plan.durations, &plan.done, start);
        let nic = node_nic(tracer, d);
        for (i, &(s, e)) in bursts.iter().enumerate() {
            tracer.begin_at(nic, "nic.burst", format!("segment {i}"), s.as_nanos());
            if i + 1 == bursts.len() {
                for &recv in &recv_tracks {
                    let flow = tracer.flow_start_at(nic, "p2p", e.as_nanos());
                    tracer.flow_end_at(recv, flow, "p2p", e.as_nanos());
                }
            }
            tracer.end_at(nic, e.as_nanos());
        }
    }
    for &recv in &recv_tracks {
        tracer.end_at(recv, end.as_nanos());
    }
    plan.timing
}

/// Like [`recovery_timing`], but also renders the predicted recovery
/// timeline into `tracer`: per-node `recover.*` spans with `p2p.resend`
/// or `p2p.chunk` / `p2p.restore` arrows tracing where the bytes move
/// in each workflow of §III-B.
pub fn trace_recovery_timing(
    tracer: &Tracer,
    spec: &ClusterSpec,
    config: &EcCheckConfig,
    shard_bytes: u64,
    scenario: &FailureScenario,
    constants: &TimingConstants,
) -> RecoveryTiming {
    let timing = recovery_timing(spec, config, shard_bytes, scenario, constants);
    let placement = select_data_parity_nodes(&spec.origin_group(), config.k())
        .expect("validated configuration");
    let t0 = SimTime::ZERO;
    if timing.workflow == RecoveryWorkflow::Resend {
        let xfer_end = t0 + timing.transfer;
        // Replaced nodes' receive windows open first for the arrows.
        let mut recvs = Vec::new();
        for &r in scenario.failed() {
            let nic = node_nic(tracer, r);
            tracer.begin_at(nic, "recover.recv", "replaced node", t0.as_nanos());
            recvs.push(nic);
        }
        for (i, &r) in scenario.failed().iter().enumerate() {
            let sender = placement.data_nodes()[i % placement.data_nodes().len()];
            let nic = node_nic(tracer, sender);
            tracer.begin_at(nic, "recover.resend", format!("to node{r}"), t0.as_nanos());
            let flow = tracer.flow_start_at(nic, "p2p.resend", xfer_end.as_nanos());
            tracer.flow_end_at(recvs[i], flow, "p2p.resend", xfer_end.as_nanos());
            tracer.end_at(nic, xfer_end.as_nanos());
        }
        for &recv in &recvs {
            tracer.end_at(recv, xfer_end.as_nanos());
        }
        // Lost parity is re-encoded in the background once training has
        // resumed — off the critical path, hence after the transfer.
        for &d in placement.data_nodes() {
            let enc = tracer.track(d as u64, &format!("node{d}"), "encode");
            tracer.begin_at(
                enc,
                "recover.reencode",
                "background parity rebuild",
                xfer_end.as_nanos(),
            );
            tracer.end_at(enc, (xfer_end + timing.compute).as_nanos());
        }
    } else {
        let g = spec.gpus_per_node() as u64;
        let redistribute = spec.nic().transfer_time(g * shard_bytes * scenario.count() as u64);
        let gather = timing.transfer - redistribute;
        let gather_end = t0 + gather;
        let decode_end = gather_end + timing.compute;
        let total_end = t0 + timing.total;
        // Render the decode on the lowest surviving node.
        let decoder = (0..spec.nodes()).find(|&n| !scenario.is_failed(n)).expect("a survivor");
        let dec_nic = node_nic(tracer, decoder);
        let survivors: Vec<usize> = placement
            .data_nodes()
            .iter()
            .chain(placement.parity_nodes())
            .copied()
            .filter(|&n| !scenario.is_failed(n) && n != decoder)
            .collect();
        tracer.begin_at(
            dec_nic,
            "recover.gather",
            format!("{} survivor chunks", survivors.len() + 1),
            t0.as_nanos(),
        );
        for &s in &survivors {
            let nic = node_nic(tracer, s);
            tracer.begin_at(nic, "recover.send_chunk", "survivor chunk", t0.as_nanos());
            let flow = tracer.flow_start_at(nic, "p2p.chunk", gather_end.as_nanos());
            tracer.flow_end_at(dec_nic, flow, "p2p.chunk", gather_end.as_nanos());
            tracer.end_at(nic, gather_end.as_nanos());
        }
        tracer.end_at(dec_nic, gather_end.as_nanos());
        let cpu = tracer.track(decoder as u64, &format!("node{decoder}"), "encode");
        tracer.begin_at(
            cpu,
            "recover.decode",
            format!("{:?}", timing.workflow),
            gather_end.as_nanos(),
        );
        tracer.end_at(cpu, decode_end.as_nanos());
        // Rebuilt packets flow back to the replacement nodes.
        let mut recvs = Vec::new();
        for &r in scenario.failed() {
            let nic = node_nic(tracer, r);
            tracer.begin_at(nic, "recover.recv", "replaced node", decode_end.as_nanos());
            recvs.push(nic);
        }
        tracer.begin_at(dec_nic, "recover.redistribute", "", decode_end.as_nanos());
        for &recv in &recvs {
            let flow = tracer.flow_start_at(dec_nic, "p2p.restore", total_end.as_nanos());
            tracer.flow_end_at(recv, flow, "p2p.restore", total_end.as_nanos());
        }
        tracer.end_at(dec_nic, total_end.as_nanos());
        for &recv in &recvs {
            tracer.end_at(recv, total_end.as_nanos());
        }
    }
    timing
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecc_dnn::{GpuSpec, ModelConfig, ParallelismSpec, TrainingTimeModel};

    fn paper_setup() -> (ClusterSpec, EcCheckConfig, TimingConstants) {
        (ClusterSpec::paper_testbed(), EcCheckConfig::paper_defaults(), TimingConstants::default())
    }

    fn shard(model: &ModelConfig) -> u64 {
        let par = ParallelismSpec::new(4, 4, 1).unwrap();
        model.shard_bytes(&par)
    }

    #[test]
    fn save_total_grows_with_model_size() {
        let (spec, cfg, consts) = paper_setup();
        let small =
            save_timing(&spec, &cfg, shard(&ModelConfig::gpt2(1600, 32, 48)), None, &consts);
        let large =
            save_timing(&spec, &cfg, shard(&ModelConfig::gpt2(5120, 40, 64)), None, &consts);
        assert!(large.total > small.total);
        assert!(large.stall() > small.stall());
    }

    #[test]
    fn stall_is_a_small_fraction_of_total() {
        // Fig. 11: step 1 blocks briefly; step 3 dominates but is async.
        let (spec, cfg, consts) = paper_setup();
        let t = save_timing(&spec, &cfg, shard(&ModelConfig::gpt2(2560, 40, 64)), None, &consts);
        assert!(t.step3_pipeline > t.stall());
        assert!(t.step2_broadcast < t.step1_offload);
    }

    #[test]
    fn pipeline_beats_sequential_stages() {
        let (spec, cfg, consts) = paper_setup();
        let s = shard(&ModelConfig::gpt2(2560, 40, 64));
        let t = save_timing(&spec, &cfg, s, None, &consts);
        // A non-pipelined step 3 would be the sum of all three stages'
        // serial totals; the pipeline must be strictly better than that
        // for multi-packet payloads.
        let packets = s.div_ceil(cfg.packet_size() as u64);
        assert!(packets > 3, "need a multi-buffer payload");
        // Reconstruct the per-packet stage durations from the model's
        // own parameters: an unpipelined step 3 pays encode + comm per
        // packet serially; the pipeline overlaps encode under comm.
        let g = spec.gpus_per_node();
        let m = cfg.m() as u64;
        let enc = (cfg.packet_size() as u64 * m) as f64
            / (consts.coding_rate_per_thread * cfg.coding_threads() as f64);
        let comm = spec.nic().shared(g).transfer_time(cfg.packet_size() as u64 * m).as_secs_f64();
        let serial_total = (enc + comm) * packets as f64;
        let pipelined = t.step3_pipeline.as_secs_f64();
        assert!(
            pipelined < serial_total * 0.99,
            "pipeline ({pipelined:.3}s) should beat serial ({serial_total:.3}s)"
        );
    }

    #[test]
    fn idle_slot_scheduling_defers_communication() {
        let (spec, cfg, consts) = paper_setup();
        let model = ModelConfig::gpt2(2560, 40, 64);
        let par = ParallelismSpec::new(4, 4, 1).unwrap();
        let tm = TrainingTimeModel::new(model, par, GpuSpec::a100_40g(), spec.nic()).unwrap();
        let profile = tm.profile(200);
        let s = shard(&model);
        let free = save_timing(&spec, &cfg, s, None, &consts);
        let gated = save_timing(&spec, &cfg, s, Some(&profile), &consts);
        assert!(gated.total >= free.total, "idle gating can only delay completion");
        // But the stall (blocking part) is identical: deferral only
        // affects the asynchronous stage.
        assert_eq!(gated.stall(), free.stall());
    }

    #[test]
    fn per_worker_cost_is_scale_invariant() {
        // §V-F: communication per device is m·s — so with fixed shard
        // size, save time stays flat as the cluster grows (Fig. 14's
        // flat ECCheck curve).
        let consts = TimingConstants::default();
        let s = 500 << 20; // 500 MB per worker
        let small_spec = ClusterSpec::v100_scalability(4, 1);
        let big_spec = ClusterSpec::v100_scalability(4, 8);
        let cfg = EcCheckConfig::paper_defaults();
        let t_small = save_timing(&small_spec, &cfg, s, None, &consts);
        let t_big = save_timing(&big_spec, &cfg, s, None, &consts);
        // NIC sharing among g workers is the only growth term; totals
        // stay within one order of magnitude and the blocking stall is
        // identical.
        assert_eq!(t_small.step1_offload, t_big.step1_offload);
        let ratio = t_big.total.as_secs_f64() / t_small.total.as_secs_f64();
        assert!(ratio < 8.5, "per-worker time should not blow up: ratio {ratio}");
    }

    #[test]
    fn recovery_resend_is_faster_than_decode() {
        let (spec, cfg, consts) = paper_setup();
        let s = shard(&ModelConfig::gpt2(2560, 40, 64));
        let a = recovery_timing(&spec, &cfg, s, &FailureScenario::fig13a(), &consts);
        let b = recovery_timing(&spec, &cfg, s, &FailureScenario::fig13b(), &consts);
        assert_eq!(a.workflow, RecoveryWorkflow::Resend);
        assert_eq!(b.workflow, RecoveryWorkflow::Decode);
        assert!(a.total < b.total, "resend {:?} should beat decode {:?}", a.total, b.total);
    }

    #[test]
    fn recovery_is_much_faster_than_remote_reload() {
        // The paper's 13.9× headline: in-memory recovery vs reading the
        // whole checkpoint back over 5 Gbps.
        let (spec, cfg, consts) = paper_setup();
        let model = ModelConfig::gpt2(2560, 40, 64);
        let s = shard(&model);
        let b = recovery_timing(&spec, &cfg, s, &FailureScenario::fig13b(), &consts);
        let remote_reload = spec.remote().transfer_time(model.checkpoint_bytes());
        let speedup = remote_reload.as_secs_f64() / b.total.as_secs_f64();
        assert!(speedup > 4.0, "expected a large speedup, got {speedup:.1}x");
    }

    #[test]
    fn trace_save_timing_renders_the_model_timeline() {
        let (spec, cfg, consts) = paper_setup();
        let model = ModelConfig::gpt2(2560, 40, 64);
        let par = ParallelismSpec::new(4, 4, 1).unwrap();
        let tm = TrainingTimeModel::new(model, par, GpuSpec::a100_40g(), spec.nic()).unwrap();
        let profile = tm.profile(200);
        let s = shard(&model);

        let (tracer, _clock) = ecc_trace::Tracer::with_manual_clock();
        let timing = trace_save_timing(&tracer, &spec, &cfg, s, Some(&profile), &consts);
        assert_eq!(timing, save_timing(&spec, &cfg, s, Some(&profile), &consts));

        let json = tracer.chrome_trace_json();
        let stats = ecc_trace::validate_chrome_trace(&json).expect("valid trace");
        assert!(stats.spans > 0);
        // One p2p arrow per (data node, parity node) pair.
        assert_eq!(stats.flows % (cfg.k() * cfg.m()), 0);
        assert!(stats.flows >= cfg.k() * cfg.m());
        // Every node appears as its own process, plus the driver's
        // train-comm context track.
        assert!(stats.processes > spec.nodes());
        for needle in
            ["save.offload", "save.headers", "nic.burst", "p2p.recv", "train.comm", "pkt0"]
        {
            assert!(json.contains(needle), "trace should mention {needle}");
        }
    }

    #[test]
    fn trace_recovery_timing_renders_both_workflows() {
        let (spec, cfg, consts) = paper_setup();
        let s = shard(&ModelConfig::gpt2(2560, 40, 64));
        for (scenario, needles) in [
            (FailureScenario::fig13a(), vec!["recover.resend", "recover.recv", "p2p.resend"]),
            (
                FailureScenario::fig13b(),
                vec!["recover.gather", "recover.decode", "recover.redistribute", "p2p.chunk"],
            ),
        ] {
            let (tracer, _clock) = ecc_trace::Tracer::with_manual_clock();
            let timing = trace_recovery_timing(&tracer, &spec, &cfg, s, &scenario, &consts);
            assert_eq!(timing, recovery_timing(&spec, &cfg, s, &scenario, &consts));
            let json = tracer.chrome_trace_json();
            let stats = ecc_trace::validate_chrome_trace(&json).expect("valid trace");
            assert!(stats.flows > 0, "{:?} should draw arrows", timing.workflow);
            for needle in needles {
                assert!(
                    json.contains(needle),
                    "{:?} trace should mention {needle}",
                    timing.workflow
                );
            }
        }
    }

    #[test]
    fn trace_save_timing_is_deterministic() {
        let (spec, cfg, consts) = paper_setup();
        let s = shard(&ModelConfig::gpt2(1600, 32, 48));
        let render = || {
            let (tracer, _clock) = ecc_trace::Tracer::with_manual_clock();
            trace_save_timing(&tracer, &spec, &cfg, s, None, &consts);
            tracer.chrome_trace_json()
        };
        assert_eq!(render(), render(), "same model, same bytes");
    }

    #[test]
    #[should_panic(expected = "at most m nodes")]
    fn too_many_failures_panic() {
        let (spec, cfg, consts) = paper_setup();
        let scenario = FailureScenario::new(vec![0, 1, 2]);
        let _ = recovery_timing(&spec, &cfg, 1 << 20, &scenario, &consts);
    }
}
