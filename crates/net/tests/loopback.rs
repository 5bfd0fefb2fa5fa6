//! Cross-process contract tests over a loopback checkpoint server.
//!
//! Everything the engine promises on the in-memory plane must hold
//! verbatim when the plane lives behind a socket: bit-exact restore
//! in a *different* engine (standing in for a different OS process —
//! the CI `net` job repeats the drill with real processes), recovery
//! under ≤ m crashes, clean refusal past m, survival of the previous
//! checkpoint when the server dies mid-save, and an identical chaos
//! fault log whatever the transport.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use ecc_chaos::{run_campaign, run_campaign_on_plane, CampaignConfig, ChaosConfig, ChaosPlane};
use ecc_checkpoint::{crc32, StateDict, Value};
use ecc_cluster::{Cluster, ClusterError, ClusterSpec, DataPlane};
use ecc_net::codec::{encode_request, read_response, Request, Response};
use ecc_net::{CheckpointServer, RemotePlane, ServerConfig, MAX_FRAME};
use eccheck::{keys, EcCheck, EcCheckConfig, EcCheckError};

const NODES: usize = 4;
const GPUS: usize = 2;
const K: usize = 2;
const M: usize = 2;

fn start_server() -> (CheckpointServer<Cluster>, String) {
    let cluster = Cluster::new(ClusterSpec::tiny_test(NODES, GPUS));
    let server = CheckpointServer::serve(cluster, "127.0.0.1:0", ServerConfig::default())
        .expect("loopback bind");
    let addr = server.local_addr().to_string();
    (server, addr)
}

fn engine() -> EcCheck {
    let spec = ClusterSpec::tiny_test(NODES, GPUS);
    let cfg = EcCheckConfig::paper_defaults()
        .with_km(K, M)
        .with_packet_size(256)
        .with_fetch_retries(2)
        .with_fetch_backoff(0, 0);
    EcCheck::initialize(&spec, cfg).expect("valid engine config")
}

fn dicts(tag: &str) -> Vec<StateDict> {
    (0..NODES * GPUS)
        .map(|w| {
            let mut sd = StateDict::new();
            sd.insert("rank", Value::Int(w as i64));
            sd.insert("tag", Value::Str(format!("{tag}-{w}")));
            sd.insert("payload", Value::Bytes((0..=200u8).map(|b| b ^ (w as u8)).collect()));
            sd
        })
        .collect()
}

/// A checkpoint saved by one engine restores bit-exactly in a fresh
/// engine that discovers and adopts it over the wire — the in-process
/// version of the two-OS-process CI drill.
#[test]
fn fresh_engine_adopts_and_restores_over_tcp() {
    let (server, addr) = start_server();

    let mut saver = RemotePlane::connect(&addr).expect("connect saver");
    let mut ecc_a = engine();
    let state = dicts("xproc");
    let report = ecc_a.save(&mut saver, &state).expect("save over tcp");
    assert_eq!(report.version, 1);
    drop(saver); // "process A" exits

    let mut loader = RemotePlane::connect(&addr).expect("connect loader");
    let mut ecc_b = engine();
    let version = keys::latest_manifest_version(&loader).expect("manifest is discoverable");
    assert_eq!(version, 1);
    ecc_b.adopt_version(&loader, version).expect("adopt");
    let (restored, _) = ecc_b.load(&mut loader).expect("load over tcp");
    assert_eq!(restored, state, "cross-engine restore must be bit-exact");

    server.shutdown();
}

/// ChaosPlane wraps the socket plane exactly like the in-memory one:
/// up to `m` crashes recover bit-exactly...
#[test]
fn chaos_over_tcp_recovers_within_budget() {
    let (server, addr) = start_server();
    let remote = RemotePlane::connect(&addr).expect("connect");
    let mut chaos = ChaosPlane::new(remote, ChaosConfig::quiet(11));

    let mut ecc = engine();
    let state = dicts("budget");
    ecc.save(&mut chaos, &state).expect("save");
    for node in 0..M {
        chaos.crash_now(node);
    }
    let (restored, report) = ecc.load(&mut chaos).expect("m crashes are survivable");
    assert_eq!(restored, state);
    assert!(report.rebuilt_chunks >= M);

    server.shutdown();
}

/// ...and past `m` the engine refuses cleanly, never returns garbage.
#[test]
fn chaos_over_tcp_refuses_past_budget() {
    let (server, addr) = start_server();
    let remote = RemotePlane::connect(&addr).expect("connect");
    let mut chaos = ChaosPlane::new(remote, ChaosConfig::quiet(13));

    let mut ecc = engine();
    ecc.save(&mut chaos, &dicts("pastm")).expect("save");
    for node in 0..=M {
        chaos.crash_now(node);
    }
    match ecc.load(&mut chaos) {
        Err(EcCheckError::Unrecoverable { survivors, needed, .. }) => {
            assert!(survivors < needed);
        }
        other => panic!("expected clean Unrecoverable, got {other:?}"),
    }

    server.shutdown();
}

/// A server that dies mid-save must fail the save with a structured
/// transport error — and the *previous* checkpoint must still restore
/// bit-exactly once the server is back.
#[test]
fn old_checkpoint_survives_connection_drop_mid_save() {
    let plane = std::sync::Arc::new(std::sync::Mutex::new(Cluster::new(ClusterSpec::tiny_test(
        NODES, GPUS,
    ))));

    // Healthy server: checkpoint v1 lands.
    let server = CheckpointServer::serve_shared(
        std::sync::Arc::clone(&plane),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("bind");
    let addr = server.local_addr().to_string();
    let mut remote = RemotePlane::connect(&addr).expect("connect");
    let mut ecc = engine();
    let v1_state = dicts("v1");
    ecc.save(&mut remote, &v1_state).expect("v1 save");
    server.shutdown();

    // Restart over the same plane, rigged to wedge almost immediately:
    // the v2 save dies mid-flight with a Transport error.
    let rigged = ServerConfig { fail_after_requests: Some(3), ..ServerConfig::default() };
    let server = CheckpointServer::serve_shared(std::sync::Arc::clone(&plane), &addr, rigged)
        .expect("rebind");
    let mut remote = RemotePlane::connect(&addr).expect("reconnect");
    let err = ecc.save(&mut remote, &dicts("v2")).expect_err("wedged server must fail the save");
    let is_transport = matches!(&err, EcCheckError::Cluster(ClusterError::Transport { .. }));
    assert!(is_transport, "expected a transport failure, got {err:?}");
    assert_eq!(ecc.version(), 1, "a failed save must not advance the version");
    server.shutdown();

    // Healthy again: v1 is still the latest manifest and restores
    // bit-exactly in a fresh engine.
    let server = CheckpointServer::serve_shared(
        std::sync::Arc::clone(&plane),
        &addr,
        ServerConfig::default(),
    )
    .expect("rebind healthy");
    let mut remote = RemotePlane::connect(&addr).expect("reconnect healthy");
    let mut fresh = engine();
    let version = keys::latest_manifest_version(&remote).expect("manifest survives");
    assert_eq!(version, 1, "the half-written v2 must not be discoverable");
    fresh.adopt_version(&remote, version).expect("adopt v1");
    let (restored, _) = fresh.load(&mut remote).expect("v1 still loads");
    assert_eq!(restored, v1_state);
    server.shutdown();
}

/// The full seeded chaos campaign, ChaosPlane-over-socket: same
/// (config, seed) must produce the identical fault log and outcome
/// sequence as the in-memory campaign — the transport is invisible.
#[test]
fn campaign_fault_log_is_transport_invariant() {
    let cfg = CampaignConfig { rounds: 3, ..CampaignConfig::standard() };
    let seed = 21;

    let (server, addr) = start_server();
    let remote = RemotePlane::connect(&addr).expect("connect");
    let socket_report = run_campaign_on_plane(&cfg, seed, None, remote);
    server.shutdown();

    assert!(socket_report.passed(), "violations: {:?}", socket_report.violations);

    let memory_report = run_campaign(&cfg, seed);
    assert_eq!(
        socket_report.fault_log, memory_report.fault_log,
        "identical seeds must inject identical faults on both transports"
    );
    assert_eq!(socket_report.outcomes, memory_report.outcomes);
}

/// Raw plane semantics over the wire: quota errors round-trip as
/// structured `ClusterError`s, absent keys are `None`, key listing
/// and liveness work, and out-of-range admin ops are refused rather
/// than panicking the server.
#[test]
fn wire_plane_preserves_data_plane_semantics() {
    let (server, addr) = start_server();
    let mut remote = RemotePlane::connect(&addr).expect("connect");

    assert_eq!(remote.nodes(), NODES);
    assert!(remote.ping());
    assert!(remote.alive(0));
    assert!(!remote.alive(NODES + 5), "out-of-range node is not alive");

    assert_eq!(remote.get_local(0, "nope"), None);
    remote.put_local(0, "a", vec![1, 2, 3]).expect("put");
    remote.put_local(0, "b", vec![4]).expect("put");
    assert_eq!(remote.get_local(0, "a"), Some(vec![1, 2, 3]));
    assert_eq!(remote.local_keys(0), vec!["a".to_string(), "b".to_string()]);
    remote.delete_local(0, "a");
    assert_eq!(remote.get_local(0, "a"), None);

    remote.put_remote("r", vec![9, 9]);
    assert_eq!(remote.get_remote("r"), Some(vec![9, 9]));

    // A structured error survives the wire as the same variant.
    remote.fail_node(1).expect("fail in range");
    let err = remote.put_local(1, "x", vec![0]).expect_err("dead node refuses writes");
    assert_eq!(err, ClusterError::NodeDown { node: 1 });
    remote.replace_node(1).expect("replace in range");
    assert!(remote.alive(1));

    // Hostile admin input is refused, not a server panic.
    assert!(remote.fail_node(10_000).is_err());
    assert!(remote.replace_node(10_000).is_err());

    server.shutdown();
}

/// A header-sized response must not stall on Nagle meeting delayed
/// ACK: the server sets `TCP_NODELAY` on accepted sockets. With it off,
/// each of these reads waits ~40 ms for the client's delayed ACK.
#[test]
fn header_sized_reads_do_not_stall_on_nagle() {
    let (server, addr) = start_server();
    let mut plane = RemotePlane::connect(&addr).expect("connect");
    plane.put_local(0, "hdr", vec![0xA5; 25 * 1024]).expect("put");
    let started = std::time::Instant::now();
    for _ in 0..20 {
        assert_eq!(plane.get_local(0, "hdr").map(|b| b.len()), Some(25 * 1024));
    }
    let elapsed = started.elapsed();
    assert!(elapsed.as_millis() < 200, "20 reads of 25 KiB took {elapsed:?}");
    server.shutdown();
}

/// A raw client connection with a read timeout, so a server that never
/// answers fails the test instead of hanging it.
fn raw_connect(addr: &str) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("set timeout");
    stream
}

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(payload);
    frame
}

/// Whatever the server still sends before it closes the connection.
fn rest_of(mut stream: TcpStream) -> Vec<u8> {
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("the server closes, it does not reset");
    rest
}

/// An op-level error (bad trailer, over-long key, unknown op) consumes
/// exactly its frame and costs one `Err`, so the next request on the
/// same connection is served; a peer that hangs up mid-prefix gets no
/// frame at all.
#[test]
fn op_level_errors_keep_the_connection_in_frame_sync() {
    let (server, addr) = start_server();
    let mut stream = raw_connect(&addr);

    let mut bad_trailer =
        encode_request(&Request::PutLocal { node: 0, key: "k".into(), blob: vec![7; 100] });
    *bad_trailer.last_mut().expect("a trailer") ^= 0x01;
    let mut long_key = vec![0x01]; // PutLocal
    long_key.extend(0u32.to_le_bytes());
    long_key.extend(5000u16.to_le_bytes());
    long_key.extend(std::iter::repeat_n(b'k', 5000));
    long_key.extend([1, 2, 3]);
    long_key.extend(crc32(&[1, 2, 3]).to_le_bytes());
    let mut unknown_op = vec![0x55];
    unknown_op.extend([0xAB; 1024]);
    let frames: Vec<u8> = [bad_trailer, long_key, unknown_op, encode_request(&Request::Ping)]
        .iter()
        .flat_map(|payload| framed(payload))
        .collect();
    stream.write_all(&frames).expect("send");

    for expected in ["CRC", "key", "op tag"] {
        match read_response(&mut stream, MAX_FRAME) {
            Ok(Response::Err(ClusterError::Transport { detail })) => {
                assert!(detail.contains(expected), "expected a {expected} error, got {detail}");
            }
            other => panic!("expected a structured {expected} error, got {other:?}"),
        }
    }
    assert_eq!(read_response(&mut stream, MAX_FRAME), Ok(Response::Ok), "same connection");

    stream.write_all(&[5, 0]).expect("half a prefix");
    stream.shutdown(Shutdown::Write).expect("half-close");
    assert_eq!(rest_of(stream), Vec::<u8>::new(), "no frame after a half-closed prefix");
    server.shutdown();
}

/// A framing error — here a prefix past the cap — is answered with one
/// `Err`, then the server hangs up: nothing after it can be trusted.
#[test]
fn a_framing_error_is_answered_once_then_hung_up() {
    let (server, addr) = start_server();
    let mut stream = raw_connect(&addr);
    stream.write_all(&u32::MAX.to_le_bytes()).expect("send");
    match read_response(&mut stream, MAX_FRAME) {
        Ok(Response::Err(ClusterError::Transport { detail })) => {
            assert!(detail.contains("exceeds cap"), "{detail}");
        }
        other => panic!("expected a structured refusal, got {other:?}"),
    }
    assert_eq!(rest_of(stream), Vec::<u8>::new(), "one answer, then the connection closes");
    server.shutdown();
}

/// A connection that closes before its first byte is not a request:
/// `fail_after_requests` counts only frames that began to arrive.
#[test]
fn hang_ups_between_frames_are_not_counted_as_requests() {
    // One worker serves connections in the order they were accepted.
    let cfg = ServerConfig { workers: 1, fail_after_requests: Some(2), ..ServerConfig::default() };
    let cluster = Cluster::new(ClusterSpec::tiny_test(NODES, GPUS));
    let server = CheckpointServer::serve(cluster, "127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr().to_string();
    for _ in 0..3 {
        drop(raw_connect(&addr));
    }
    let remote = RemotePlane::connect(&addr).expect("request 1 (Nodes) is served");
    assert!(remote.ping(), "request 2 is served");
    assert!(!remote.alive(0), "request 3 wedges the server");
    server.shutdown();
}

/// The elastic-membership protocol, end to end over loopback TCP: a
/// node dies, a `Join` rebuilds its chunk and commits epoch 1, the
/// stale engine is fenced off until it applies the `GetPlacement`
/// answer, and the checkpoint restores bit-exactly throughout.
#[test]
fn membership_churn_over_tcp_commits_epochs_and_fences_stale_engines() {
    use ecc_net::MembershipPlane;

    let spec = ClusterSpec::tiny_test(NODES, GPUS);
    let cfg = EcCheckConfig::paper_defaults().with_km(K, M).with_packet_size(256);
    let plane =
        MembershipPlane::new(Cluster::new(spec), &spec, &cfg).expect("k + m covers the node count");
    let server =
        CheckpointServer::serve(plane, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();

    let mut remote = RemotePlane::connect(&addr).expect("connect");
    let mut ecc = engine();
    let state = dicts("churn");
    ecc.save(&mut remote, &state).expect("initial save");

    // A plain server refuses membership ops; this one answers.
    let (epoch0, placement0) = remote.get_placement().expect("placement is served");
    assert_eq!(epoch0, 0);
    assert_eq!(placement0.k(), K);
    assert_eq!(placement0.m(), M);

    // Joining a healthy, living slot is refused — drain it instead.
    assert!(remote.join(1).is_err(), "a live active slot cannot be usurped");

    // Kill node 1 over the wire, then admit a replacement: the server
    // rebuilds the lost chunk from survivors and commits epoch 1.
    remote.fail_node(1).expect("kill node 1");
    let (epoch1, _) = remote.join(1).expect("join rebuilds and commits");
    assert_eq!(epoch1, 1);

    // The engine still believes epoch 0: the fence must refuse it.
    match ecc.save(&mut remote, &state) {
        Err(EcCheckError::StaleEpoch { engine, committed }) => {
            assert_eq!((engine, committed), (0, 1));
        }
        other => panic!("stale engine must be fenced, got {other:?}"),
    }

    // GetPlacement → apply → everything works again, bit-exactly.
    let (epoch, placement) = remote.get_placement().expect("refresh");
    ecc.apply_placement(epoch, placement).expect("apply");
    let (restored, _) = ecc.load(&mut remote).expect("load after churn");
    assert_eq!(restored, state, "checkpoint survives wire-driven churn bit-exactly");
    ecc.save(&mut remote, &state).expect("refreshed engine saves again");

    // A graceful drain stages bytes, then the replacement copies them.
    let (leave_epoch, _) = remote.leave(2).expect("drain slot 2");
    assert_eq!(leave_epoch, 1, "a drain alone does not move the epoch");
    remote.fail_node(2).expect("drained process exits");
    let (epoch2, _) = remote.join(2).expect("replacement joins");
    assert_eq!(epoch2, 2);

    let (epoch, placement) = remote.get_placement().expect("refresh again");
    ecc.apply_placement(epoch, placement).expect("apply again");
    let (restored, _) = ecc.load(&mut remote).expect("load after drain");
    assert_eq!(restored, state);

    server.shutdown();
}

/// A plane without a controller refuses the membership ops with a
/// readable transport error instead of a panic or a bogus answer.
#[test]
fn plain_server_refuses_membership_ops() {
    let (server, addr) = start_server();
    let remote = RemotePlane::connect(&addr).expect("connect");
    for result in [remote.get_placement(), remote.join(0), remote.leave(0)] {
        match result {
            Err(ClusterError::Transport { detail }) => {
                assert!(detail.contains("membership"), "unhelpful refusal: {detail}");
            }
            other => panic!("expected a structured refusal, got {other:?}"),
        }
    }
    server.shutdown();
}

/// A plane that panics when asked for one key and is a `Cluster`
/// otherwise.
struct PanicsOnKey(Cluster);

impl DataPlane for PanicsOnKey {
    fn nodes(&self) -> usize {
        self.0.nodes()
    }
    fn alive(&self, node: usize) -> bool {
        DataPlane::alive(&self.0, node)
    }
    fn put_local(&mut self, node: usize, key: &str, bytes: Vec<u8>) -> Result<(), ClusterError> {
        assert_ne!(key, "boom", "the plane's own bug");
        DataPlane::put_local(&mut self.0, node, key, bytes)
    }
    fn get_local(&self, node: usize, key: &str) -> Option<Vec<u8>> {
        DataPlane::get_local(&self.0, node, key)
    }
    fn delete_local(&mut self, node: usize, key: &str) {
        DataPlane::delete_local(&mut self.0, node, key)
    }
    fn put_remote(&mut self, key: &str, bytes: Vec<u8>) {
        DataPlane::put_remote(&mut self.0, key, bytes)
    }
    fn get_remote(&self, key: &str) -> Option<Vec<u8>> {
        DataPlane::get_remote(&self.0, key)
    }
    fn local_keys(&self, node: usize) -> Vec<String> {
        DataPlane::local_keys(&self.0, node)
    }
}

impl ecc_net::ServePlane for PanicsOnKey {}

/// One panic inside the served plane costs that request a structured
/// error, not the server: the same connection, a fresh one and the
/// plane handle all keep working (at the parent the poisoned mutex
/// killed every worker that touched it).
#[test]
fn a_panic_in_the_served_plane_costs_one_request() {
    let plane = PanicsOnKey(Cluster::new(ClusterSpec::tiny_test(NODES, GPUS)));
    let server =
        CheckpointServer::serve(plane, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let mut remote = RemotePlane::connect(&addr).expect("connect");
    remote.put_local(1, "fine", vec![7; 9]).expect("put before the panic");
    match remote.put_local(1, "boom", vec![0]) {
        Err(ClusterError::Transport { detail }) => assert!(detail.contains("panicked"), "{detail}"),
        other => panic!("expected a structured refusal, got {other:?}"),
    }
    assert_eq!(remote.get_local(1, "fine"), Some(vec![7; 9]), "same connection, next request");
    let mut second = RemotePlane::connect(&addr).expect("connect after the panic");
    second.put_local(2, "later", vec![1]).expect("put after the panic");
    assert_eq!(remote.local_keys(2), vec!["later".to_string()]);
    assert!(server.plane().lock().is_ok(), "the poison is cleared");
    server.shutdown();
}
