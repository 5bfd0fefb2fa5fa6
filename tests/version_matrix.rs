//! Multi-version restore matrix.
//!
//! One save history — five versions under a `keep-last-2` window plus a
//! `keep-every-2nd` ladder, so tier 0 retains exactly {2, 4, 5} — is
//! replayed across every cell of the matrix
//!
//!     {retained version} × {data plane}
//!
//! where the data plane is the in-memory `Cluster`, a quiet
//! `ChaosPlane` (fault machinery armed, zero injection rate), and a
//! real `RemotePlane` speaking the TCP wire protocol to a loopback
//! `CheckpointServer`. Every cell must restore bit-exactly and stamp
//! `LoadReport.version` with the version it was asked for; collected
//! versions must refuse with `VersionGone` on every plane.

use std::collections::BTreeMap;

use ecc_chaos::{ChaosConfig, ChaosPlane};
use ecc_checkpoint::{DType, StateDict, Tensor, Value};
use ecc_cluster::{Cluster, ClusterSpec, DataPlane};
use ecc_net::{CheckpointServer, RemotePlane, ServerConfig};
use eccheck::{EcCheck, EcCheckConfig, EcCheckError};

const NODES: usize = 4;
const GPUS: usize = 2;
const WORLD: usize = NODES * GPUS;
const SAVES: u64 = 5;
const RETAINED: [u64; 3] = [2, 4, 5];
const COLLECTED: [u64; 2] = [1, 3];

fn dicts(round: u64) -> Vec<StateDict> {
    (0..WORLD)
        .map(|w| {
            let mut sd = StateDict::new();
            sd.insert("rank", Value::Int(w as i64));
            sd.insert("round", Value::Int(round as i64));
            let len = 48 + (w * 31) % 128;
            let bytes: Vec<u8> =
                (0..len).map(|i| (i as u8).wrapping_mul(43) ^ (w as u8) ^ round as u8).collect();
            let t = Tensor::from_bytes(DType::U8, &[len], bytes).expect("tensor shape valid");
            sd.insert("weights", Value::Tensor(t));
            sd
        })
        .collect()
}

fn config() -> EcCheckConfig {
    EcCheckConfig::paper_defaults()
        .with_km(2, 2)
        .with_packet_size(256)
        .with_coding_threads(2)
        .with_retain_last(2)
        .with_retain_every(2)
}

/// Runs the save history on `plane` and checks every matrix cell for
/// that plane.
fn run_matrix<P: DataPlane>(plane: &mut P, plane_name: &str) {
    let spec = ClusterSpec::tiny_test(NODES, GPUS);
    let mut ecc = EcCheck::initialize(&spec, config()).expect("config valid");

    let mut saved = BTreeMap::new();
    for round in 1..=SAVES {
        let d = dicts(round);
        let report = ecc.save(plane, &d).expect("save");
        assert_eq!(report.version, round, "{plane_name}");
        saved.insert(round, d);
    }
    assert_eq!(ecc.retained_versions(), RETAINED.to_vec(), "{plane_name}");

    for v in RETAINED {
        let (restored, report) = ecc
            .load_version(plane, v)
            .unwrap_or_else(|e| panic!("{plane_name}: v{v} must load: {e}"));
        assert_eq!(restored, saved[&v], "{plane_name}: v{v} bit-exact");
        assert_eq!(report.version, v, "{plane_name}: v{v} report stamp");
    }
    for v in COLLECTED {
        match ecc.load_version(plane, v) {
            Err(EcCheckError::VersionGone { version }) => assert_eq!(version, v),
            other => panic!("{plane_name}: collected v{v} must refuse, got {other:?}"),
        }
    }

    // The default entry point lands on the newest retained version.
    let (newest, report) = ecc.load(plane).expect("newest loads");
    assert_eq!(newest, saved[&SAVES], "{plane_name}");
    assert_eq!(report.version, SAVES, "{plane_name}");
}

#[test]
fn memory_plane_restores_every_retained_version() {
    let spec = ClusterSpec::tiny_test(NODES, GPUS);
    run_matrix(&mut Cluster::new(spec), "memory");
}

#[test]
fn quiet_chaos_plane_restores_every_retained_version() {
    // Zero injection rate: the full interposition machinery (op
    // accounting, fetch provenance) runs, but no faults fire — the
    // matrix must be indistinguishable from the memory plane.
    let spec = ClusterSpec::tiny_test(NODES, GPUS);
    let mut plane = ChaosPlane::new(Cluster::new(spec), ChaosConfig::quiet(11));
    run_matrix(&mut plane, "chaos-quiet");
}

#[test]
fn remote_plane_loopback_restores_every_retained_version() {
    // The same matrix over the real TCP wire protocol: every blob of
    // every version round-trips through the loopback server.
    let spec = ClusterSpec::tiny_test(NODES, GPUS);
    let server =
        CheckpointServer::serve(Cluster::new(spec), "127.0.0.1:0", ServerConfig::default())
            .expect("loopback server binds");
    let addr = server.local_addr().to_string();
    let mut plane = RemotePlane::connect(&addr).expect("client connects");
    run_matrix(&mut plane, "remote-loopback");
    drop(plane);
    server.shutdown();
}
