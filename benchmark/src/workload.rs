//! Builds what a workload runs on: the two states it alternates and the
//! rig (plane, engine and whatever serves them) it saves through.

use std::sync::Arc;

use ecc_checkpoint::StateDict;
use ecc_cluster::{Cluster, ClusterSpec, SharedPlane};
use ecc_dnn::{build_worker_state_dict, ModelConfig, ParallelismSpec, StateDictSpec};
use ecc_net::{CheckpointServer, ClientConfig, RemotePlane, ServerConfig};
use eccheck::store::Drainer;
use eccheck::{EcCheck, EcCheckConfig};

use crate::metrics::WorkloadSpec;
use crate::plane::{Backing, CountingPlane, Sink, Track};

/// Coding threads of every engine, and workers of the loopback server
/// and connections of its client pool: the host has two cores.
pub const THREADS: usize = 2;

/// Versions the drain queue holds before a save blocks on it.
const DRAIN_DEPTH: usize = 2;

/// The two states a workload alternates, so every save stores new bytes.
pub struct States {
    pub a: Vec<StateDict>,
    pub b: Vec<StateDict>,
    /// Tensor bytes of one state, summed over its workers.
    pub bytes: u64,
}

impl States {
    /// The state cycle `cycle` saves in full, and the one its delta
    /// takes the dirty worker from.
    pub fn for_cycle(&self, cycle: usize) -> (&[StateDict], &[StateDict]) {
        if cycle.is_multiple_of(2) {
            (&self.a, &self.b)
        } else {
            (&self.b, &self.a)
        }
    }
}

/// Builds states A and B from `seed`: the Megatron shards of the
/// workload's model over its parallelism grid, one per worker, with
/// tensor contents drawn from the seed.
pub fn build_states(spec: &WorkloadSpec, seed: u64) -> States {
    let (tp, pp, dp) = spec.grid;
    let (hidden, heads, layers, vocab, seq_len) = spec.model;
    let par = ParallelismSpec::new(tp, pp, dp).expect("workload grid is valid");
    assert_eq!(par.world_size(), spec.world(), "grid must cover the cluster's workers");
    let model = ModelConfig::gpt2(hidden, heads, layers).with_vocab(vocab).with_seq_len(seq_len);
    let build = |which: u64| -> Vec<StateDict> {
        let dict_spec = StateDictSpec {
            model,
            par,
            iteration: which,
            seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ which,
        };
        (0..spec.world())
            .map(|w| build_worker_state_dict(&dict_spec, w).expect("workload model fits its grid"))
            .collect()
    };
    let (a, b) = (build(0), build(1));
    let bytes = a.iter().map(|sd| sd.tensor_bytes() as u64).sum();
    States { a, b, bytes }
}

pub fn cluster_spec(spec: &WorkloadSpec) -> ClusterSpec {
    ClusterSpec::tiny_test(spec.nodes, spec.gpus_per_node)
}

/// `paper_defaults()` plus geometry only: the flush to remote storage
/// every 50 saves, the pipelined executor and the idle-slot gate stay
/// as a user would have them.
pub fn engine_config(spec: &WorkloadSpec) -> EcCheckConfig {
    EcCheckConfig::paper_defaults()
        .with_km(spec.k, spec.m)
        .with_width(8)
        .with_packet_size(spec.packet_size)
        .with_coding_threads(THREADS)
        .with_retain_last(spec.retain_last)
}

pub fn new_engine(spec: &WorkloadSpec) -> EcCheck {
    EcCheck::initialize(&cluster_spec(spec), engine_config(spec)).expect("workload config is valid")
}

/// One workload's plane and engine. Fields drop in order: the engine
/// and the client plane go before the drainer or server that serves them.
pub struct Rig<P> {
    pub engine: EcCheck,
    pub plane: CountingPlane<P>,
    /// The drain worker of a tiered rig.
    pub drainer: Option<Drainer>,
    /// The loopback server of a TCP rig.
    server: Option<CheckpointServer<Cluster>>,
}

impl<P: Backing> Rig<P> {
    /// Bytes held in node memory (tier 0) and in remote storage (tier 1).
    pub fn stored(&self) -> (u64, u64) {
        self.plane
            .inner()
            .stored()
            .or_else(|| self.server.as_ref()?.plane().lock().ok()?.stored())
            .expect("a rig's storage is in process or behind its own server")
    }
}

pub fn memory_rig(spec: &WorkloadSpec, sink: Option<Arc<Sink>>) -> Rig<Cluster> {
    Rig {
        engine: new_engine(spec),
        plane: CountingPlane::new(Cluster::new(cluster_spec(spec)), sink, Track::Client),
        drainer: None,
        server: None,
    }
}

pub fn tiered_rig(spec: &WorkloadSpec, sink: Option<Arc<Sink>>) -> Rig<SharedPlane<Cluster>> {
    let shared = SharedPlane::new(Cluster::new(cluster_spec(spec)));
    let mut engine = new_engine(spec);
    let worker_plane = CountingPlane::new(shared.clone(), sink.clone(), Track::Drainer);
    let drainer = Drainer::spawn(worker_plane, DRAIN_DEPTH, engine.recorder().clone());
    engine.set_drainer(drainer.handle());
    Rig {
        engine,
        plane: CountingPlane::new(shared, sink, Track::Client),
        drainer: Some(drainer),
        server: None,
    }
}

pub fn tcp_rig(spec: &WorkloadSpec, sink: Option<Arc<Sink>>) -> Rig<RemotePlane> {
    let server_cfg = ServerConfig { workers: THREADS, ..ServerConfig::default() };
    let server =
        CheckpointServer::serve(Cluster::new(cluster_spec(spec)), "127.0.0.1:0", server_cfg)
            .expect("loopback address binds");
    let client_cfg = ClientConfig { pool_size: THREADS, ..ClientConfig::default() };
    let client = RemotePlane::connect_with(&server.local_addr().to_string(), client_cfg)
        .expect("loopback server answers");
    Rig {
        engine: new_engine(spec),
        plane: CountingPlane::new(client, sink, Track::Client),
        drainer: None,
        server: Some(server),
    }
}
