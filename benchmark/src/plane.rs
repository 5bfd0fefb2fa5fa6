//! The boundary the ledger is measured at: a `DataPlane` wrapper that
//! opens a span around every call into the wrapped plane and counts
//! calls and bytes at the same place. Nothing inside the engine is
//! instrumented; this wrapper is all the tracing there is.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ecc_cluster::{Cluster, ClusterError, DataPlane, NodeId, SharedPlane};
use ecc_net::RemotePlane;
use ecc_trace::Tracer;

use crate::metrics::Op;

/// Which plane method a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    PutLocal,
    GetLocal,
    DeleteLocal,
    PutRemote,
    GetRemote,
    LocalKeys,
    Alive,
}

impl Call {
    fn name(self) -> &'static str {
        match self {
            Call::PutLocal => "put_local",
            Call::GetLocal => "get_local",
            Call::DeleteLocal => "delete_local",
            Call::PutRemote => "put_remote",
            Call::GetRemote => "get_remote",
            Call::LocalKeys => "local_keys",
            Call::Alive => "alive",
        }
    }
}

/// Which thread made a call: the closed-loop client, whose calls nest
/// inside its current op span, or the drain worker, which runs beside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Track {
    Client,
    Drainer,
}

/// What the plane calls of one op (or of one cycle's drain) added up to.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    pub plane_ns: u64,
    pub put_calls: u64,
    pub put_bytes: u64,
    pub get_calls: u64,
    pub get_bytes: u64,
    pub delete_calls: u64,
    /// Every call that is one request on a socket plane.
    pub requests: u64,
}

impl Tally {
    fn add(&mut self, call: Call, bytes: u64, ns: u64) {
        self.plane_ns += ns;
        self.requests += 1;
        match call {
            Call::PutLocal | Call::PutRemote => {
                self.put_calls += 1;
                self.put_bytes += bytes;
            }
            Call::GetLocal | Call::GetRemote => {
                self.get_calls += 1;
                self.get_bytes += bytes;
            }
            Call::DeleteLocal => self.delete_calls += 1,
            Call::LocalKeys | Call::Alive => {}
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    track: Track,
    name: &'static str,
    cycle: u32,
    bytes: u64,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug, Default)]
struct SinkState {
    spans: Vec<Span>,
    cycle: u32,
    client: Tally,
    drainer: Tally,
}

/// In-memory span store shared by every `CountingPlane` of a run.
/// Spans are written out only at exit ([`Sink::chrome_trace_json`]).
#[derive(Debug)]
pub struct Sink {
    epoch: Instant,
    enabled: AtomicBool,
    state: Mutex<SinkState>,
}

impl Sink {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            state: Mutex::new(SinkState::default()),
        })
    }

    /// Switches span recording on or off; the traced run measures its
    /// own overhead by running cycles both ways.
    pub fn set_enabled(&self, on: bool) {
        // Relaxed: the flag publishes no other data.
        self.enabled.store(on, Ordering::Relaxed);
    }

    fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn state(&self) -> std::sync::MutexGuard<'_, SinkState> {
        self.state.lock().expect("no thread panics while holding the sink")
    }

    fn record(&self, track: Track, call: Call, bytes: u64, start_ns: u64) {
        let end_ns = self.now_ns();
        let mut state = self.state();
        let cycle = state.cycle;
        state.spans.push(Span { track, name: call.name(), cycle, bytes, start_ns, end_ns });
        let tally = match track {
            Track::Client => &mut state.client,
            Track::Drainer => &mut state.drainer,
        };
        tally.add(call, bytes, end_ns - start_ns);
    }

    /// Starts cycle `cycle`: the id every span of the cycle shares.
    pub fn begin_cycle(&self, cycle: u32) {
        self.state().cycle = cycle;
    }

    /// Opens an op span on the client track; the client's plane calls
    /// until [`Sink::end_op`] are its children.
    pub fn begin_op(&self) -> u64 {
        self.state().client = Tally::default();
        self.now_ns()
    }

    /// Closes the op span opened at `start_ns` and returns what the
    /// plane calls inside it added up to.
    pub fn end_op(&self, op: Op, start_ns: u64) -> Tally {
        let end_ns = self.now_ns();
        let mut state = self.state();
        let cycle = state.cycle;
        if self.enabled() {
            state.spans.push(Span {
                track: Track::Client,
                name: op.name(),
                cycle,
                bytes: 0,
                start_ns,
                end_ns,
            });
        }
        std::mem::take(&mut state.client)
    }

    /// What the drain worker's plane calls added up to since the last
    /// call of this method.
    pub fn take_drainer(&self) -> Tally {
        std::mem::take(&mut self.state().drainer)
    }

    pub fn span_count(&self) -> usize {
        self.state().spans.len()
    }

    /// Chrome Trace Event JSON of every recorded span, through
    /// `ecc_trace`'s exporter: one track per thread, plane spans nested
    /// in their op span, the cycle number in each span's detail.
    pub fn chrome_trace_json(&self) -> String {
        let tracer = Tracer::new();
        let mut spans = self.state().spans.clone();
        // Parents before children: earlier start first, and of two spans
        // starting together the longer one encloses the other.
        spans.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(b.end_ns.cmp(&a.end_ns)));
        for (track, thread) in [(Track::Client, "client"), (Track::Drainer, "drainer")] {
            let id = tracer.track(0, "eccbench", thread);
            let mut open: Vec<u64> = Vec::new();
            for span in spans.iter().filter(|s| s.track == track) {
                while open.last().is_some_and(|&end| end <= span.start_ns) {
                    tracer.end_at(id, open.pop().expect("checked non-empty"));
                }
                let detail = format!("cycle={} bytes={}", span.cycle, span.bytes);
                tracer.begin_at(id, span.name, detail, span.start_ns);
                open.push(span.end_ns);
            }
            while let Some(end) = open.pop() {
                tracer.end_at(id, end);
            }
        }
        tracer.chrome_trace_json()
    }
}

/// A `DataPlane` that forwards every call to `inner` unchanged and,
/// when a sink is attached and switched on, records a span and a count
/// for it. Without a sink it is a pass-through.
#[derive(Debug)]
pub struct CountingPlane<P> {
    inner: P,
    sink: Option<Arc<Sink>>,
    track: Track,
}

impl<P> CountingPlane<P> {
    pub fn new(inner: P, sink: Option<Arc<Sink>>, track: Track) -> Self {
        Self { inner, sink, track }
    }

    pub fn inner(&self) -> &P {
        &self.inner
    }

    pub fn inner_mut(&mut self) -> &mut P {
        &mut self.inner
    }
}

/// The sink and the start time of a span, when recording is on. Takes
/// the field, not the plane, so the wrapped plane stays free to borrow.
fn start(sink: &Option<Arc<Sink>>) -> Option<(&Sink, u64)> {
    let sink = sink.as_deref()?;
    sink.enabled().then(|| (sink, sink.now_ns()))
}

/// Closes the span `start` opened, if it opened one.
fn finish(started: Option<(&Sink, u64)>, track: Track, call: Call, bytes: u64) {
    if let Some((sink, t0)) = started {
        sink.record(track, call, bytes, t0);
    }
}

fn len_of(blob: &Option<Vec<u8>>) -> u64 {
    blob.as_ref().map_or(0, |b| b.len() as u64)
}

impl<P: DataPlane> DataPlane for CountingPlane<P> {
    fn nodes(&self) -> usize {
        self.inner.nodes()
    }

    fn alive(&self, node: NodeId) -> bool {
        let started = start(&self.sink);
        let alive = self.inner.alive(node);
        finish(started, self.track, Call::Alive, 0);
        alive
    }

    fn put_local(&mut self, node: NodeId, key: &str, bytes: Vec<u8>) -> Result<(), ClusterError> {
        let started = start(&self.sink);
        let len = bytes.len() as u64;
        let result = self.inner.put_local(node, key, bytes);
        finish(started, self.track, Call::PutLocal, len);
        result
    }

    fn get_local(&self, node: NodeId, key: &str) -> Option<Vec<u8>> {
        let started = start(&self.sink);
        let blob = self.inner.get_local(node, key);
        finish(started, self.track, Call::GetLocal, len_of(&blob));
        blob
    }

    fn delete_local(&mut self, node: NodeId, key: &str) {
        let started = start(&self.sink);
        self.inner.delete_local(node, key);
        finish(started, self.track, Call::DeleteLocal, 0);
    }

    fn put_remote(&mut self, key: &str, bytes: Vec<u8>) {
        let started = start(&self.sink);
        let len = bytes.len() as u64;
        self.inner.put_remote(key, bytes);
        finish(started, self.track, Call::PutRemote, len);
    }

    fn get_remote(&self, key: &str) -> Option<Vec<u8>> {
        let started = start(&self.sink);
        let blob = self.inner.get_remote(key);
        finish(started, self.track, Call::GetRemote, len_of(&blob));
        blob
    }

    fn local_keys(&self, node: NodeId) -> Vec<String> {
        let started = start(&self.sink);
        let keys = self.inner.local_keys(node);
        finish(started, self.track, Call::LocalKeys, 0);
        keys
    }
}

/// What the benchmark needs of a plane beyond `DataPlane`, all of it
/// used outside the timed regions.
pub trait Backing {
    /// Failure injection: the node loses its memory and an empty
    /// replacement takes its slot.
    fn fail_and_replace(&mut self, node: NodeId) -> Result<(), ClusterError>;

    /// Bytes held in node memory (tier 0) and in remote storage
    /// (tier 1); `None` when the storage is behind a socket.
    fn stored(&self) -> Option<(u64, u64)>;
}

impl Backing for Cluster {
    fn fail_and_replace(&mut self, node: NodeId) -> Result<(), ClusterError> {
        self.fail_node(node);
        self.replace_node(node);
        Ok(())
    }

    fn stored(&self) -> Option<(u64, u64)> {
        let tier0 = (0..self.spec().nodes()).map(|n| self.mem_used(n)).sum();
        Some((tier0, self.remote_used()))
    }
}

impl Backing for SharedPlane<Cluster> {
    fn fail_and_replace(&mut self, node: NodeId) -> Result<(), ClusterError> {
        self.lock().fail_and_replace(node)
    }

    fn stored(&self) -> Option<(u64, u64)> {
        self.lock().stored()
    }
}

impl Backing for RemotePlane {
    fn fail_and_replace(&mut self, node: NodeId) -> Result<(), ClusterError> {
        self.fail_node(node)?;
        self.replace_node(node)
    }

    fn stored(&self) -> Option<(u64, u64)> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecc_cluster::ClusterSpec;
    use ecc_net::{CheckpointServer, ServerConfig};

    fn blob(seed: u8, len: usize) -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_mul(31) ^ seed).collect()
    }

    /// Drives the same calls through a bare plane and a counted one.
    fn drive(plane: &mut impl DataPlane) -> Vec<Option<Vec<u8>>> {
        plane.put_local(0, "a", blob(1, 300)).expect("node 0 alive");
        plane.put_local(1, "b", blob(2, 70)).expect("node 1 alive");
        plane.put_local(1, "c", blob(3, 9)).expect("node 1 alive");
        plane.put_remote("r", blob(4, 40));
        plane.delete_local(1, "c");
        vec![
            plane.get_local(0, "a"),
            plane.get_local(1, "b"),
            plane.get_local(1, "c"),
            plane.get_local(0, "missing"),
            plane.get_remote("r"),
        ]
    }

    fn on_sink() -> Arc<Sink> {
        let sink = Sink::new();
        sink.set_enabled(true);
        sink
    }

    #[test]
    fn transparent_over_cluster_and_counts_match_the_plane() {
        let spec = ClusterSpec::tiny_test(2, 1);
        let mut bare = Cluster::new(spec);
        let expected = drive(&mut bare);

        let sink = on_sink();
        let mut counted =
            CountingPlane::new(Cluster::new(spec), Some(Arc::clone(&sink)), Track::Client);
        let t0 = sink.begin_op();
        let got = drive(&mut counted);
        let tally = sink.end_op(Op::Save, t0);

        assert_eq!(got, expected);
        for node in 0..2 {
            assert_eq!(counted.local_keys(node), bare.local_keys(node));
            assert_eq!(counted.inner().mem_used(node), bare.mem_used(node));
        }
        // Counts equal what the wrapped plane itself reports.
        let keys: usize = (0..2).map(|n| counted.inner().local_keys(n).len()).sum();
        assert_eq!(tally.put_calls - tally.delete_calls - 1, keys as u64);
        let stored: u64 = (0..2).map(|n| counted.inner().mem_used(n)).sum();
        assert_eq!(tally.put_bytes - 9 - 40, stored);
        assert_eq!(counted.inner().remote_used(), 40);
        assert_eq!((tally.get_calls, tally.get_bytes), (5, 300 + 70 + 40));
        assert_eq!(tally.requests, 10);
    }

    #[test]
    fn transparent_over_remote_plane() {
        let spec = ClusterSpec::tiny_test(2, 1);
        let mut bare = Cluster::new(spec);
        let expected = drive(&mut bare);

        let server =
            CheckpointServer::serve(Cluster::new(spec), "127.0.0.1:0", ServerConfig::default())
                .expect("loopback binds");
        let client = RemotePlane::connect(&server.local_addr().to_string()).expect("connects");
        let sink = on_sink();
        let mut counted = CountingPlane::new(client, Some(Arc::clone(&sink)), Track::Client);
        let t0 = sink.begin_op();
        let got = drive(&mut counted);
        let tally = sink.end_op(Op::Save, t0);

        assert_eq!(got, expected);
        let served = server.plane();
        let served = served.lock().expect("served plane");
        let mut stored = 0;
        for node in 0..2 {
            assert_eq!(served.local_keys(node), bare.local_keys(node));
            assert_eq!(served.mem_used(node), bare.mem_used(node));
            stored += served.mem_used(node);
        }
        assert_eq!(tally.put_bytes - 9 - 40, stored);
        assert_eq!(tally.put_calls, 4);
    }

    #[test]
    fn a_switched_off_sink_records_nothing() {
        let sink = Sink::new();
        let mut plane = CountingPlane::new(
            Cluster::new(ClusterSpec::tiny_test(2, 1)),
            Some(Arc::clone(&sink)),
            Track::Client,
        );
        let t0 = sink.begin_op();
        drive(&mut plane);
        assert_eq!(sink.end_op(Op::Save, t0), Tally::default());
        assert_eq!(sink.span_count(), 0);
    }

    #[test]
    fn chrome_trace_nests_plane_spans_in_their_op() {
        let sink = on_sink();
        let mut client = CountingPlane::new(
            SharedPlane::new(Cluster::new(ClusterSpec::tiny_test(2, 1))),
            Some(Arc::clone(&sink)),
            Track::Client,
        );
        let mut drainer =
            CountingPlane::new(client.inner().clone(), Some(Arc::clone(&sink)), Track::Drainer);
        sink.begin_cycle(7);
        let t0 = sink.begin_op();
        drive(&mut client);
        drainer.put_remote("tier1", blob(5, 16));
        sink.end_op(Op::RestoreData, t0);
        assert_eq!(sink.take_drainer().put_bytes, 16);

        let json = sink.chrome_trace_json();
        let stats = ecc_trace::validate_chrome_trace(&json).expect("well-formed trace");
        assert!(stats.events >= 2 * sink.span_count());
        assert!(json.contains("restore_data") && json.contains("cycle=7"));
    }
}
