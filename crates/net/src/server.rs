//! The checkpoint server: a [`DataPlane`] served over TCP.
//!
//! Built like `ecc-obs`'s exporter — `std::net::TcpListener`, one
//! accept thread, a fixed worker pool — but with a *bounded* handoff
//! queue and long-lived, pipelined connections speaking the
//! [`crate::codec`] frame protocol.
//!
//! # Backpressure and deadlock-freedom
//!
//! The accept thread hands sockets to workers over a
//! [`std::sync::mpsc::sync_channel`] of configurable depth. When every
//! worker is busy and the queue is full, `send` blocks the accept
//! thread, which in turn leaves new clients waiting in the kernel's
//! listen backlog — load sheds at the edge instead of growing an
//! unbounded buffer. The wait graph is a DAG (clients → accept thread →
//! workers → the plane mutex, which is only ever held for one request
//! with no I/O under it), so no cycle — and therefore no deadlock — is
//! possible. Shutdown drops the queue's sender and pokes the listener,
//! unblocking both ends.

use std::io::{BufRead, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use ecc_cluster::{Cluster, DataPlane, NodeId};

use crate::codec::{
    parse_request, read_message, write_response, Request, Response, WireError, MAX_FRAME,
};

/// The placement view the membership wire ops carry: a mirror of
/// [`Response::Placement`]'s fields, so planes can answer them without
/// the codec (or the engine crates) in their signatures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementInfo {
    /// The committed placement epoch.
    pub epoch: u64,
    /// Slots holding data chunks, in chunk order.
    pub data_nodes: Vec<u32>,
    /// Slots holding parity chunks, in chunk order.
    pub parity_nodes: Vec<u32>,
    /// GPUs per node.
    pub group_size: u32,
}

/// A [`DataPlane`] the server can host. The admin hooks back the
/// `FailNode`/`ReplaceNode` wire ops (used by cross-process recovery
/// drills); planes without real machines to kill keep the defaults,
/// which refuse. The membership hooks back the `Join`/`Leave`/
/// `GetPlacement` ops; planes without a placement controller keep the
/// defaults, which refuse with a readable reason (see
/// [`crate::MembershipPlane`] for a plane that accepts them).
pub trait ServePlane: DataPlane {
    /// Fails a node, destroying its volatile blobs. Returns `false`
    /// when unsupported or out of range.
    fn admin_fail_node(&mut self, node: NodeId) -> bool {
        let _ = node;
        false
    }

    /// Brings a replacement node online (alive, empty). Returns
    /// `false` when unsupported or out of range.
    fn admin_replace_node(&mut self, node: NodeId) -> bool {
        let _ = node;
        false
    }

    /// Admits a replacement process into `node`'s slot, migrates its
    /// chunk, and commits a new placement epoch. `Err` carries the
    /// refusal reason (unsupported, slot still active, guarantee not
    /// restorable yet, ...).
    fn admin_join(&mut self, node: NodeId) -> Result<PlacementInfo, String> {
        let _ = node;
        Err("membership is not enabled on this plane".into())
    }

    /// Announces a graceful drain of `node`'s slot, staging its bytes
    /// before a replacement wipes them.
    fn admin_leave(&mut self, node: NodeId) -> Result<PlacementInfo, String> {
        let _ = node;
        Err("membership is not enabled on this plane".into())
    }

    /// The committed placement and epoch.
    fn admin_placement(&self) -> Result<PlacementInfo, String> {
        Err("membership is not enabled on this plane".into())
    }
}

impl ServePlane for Cluster {
    fn admin_fail_node(&mut self, node: NodeId) -> bool {
        if node >= self.spec().nodes() {
            return false;
        }
        self.fail_node(node);
        true
    }

    fn admin_replace_node(&mut self, node: NodeId) -> bool {
        if node >= self.spec().nodes() {
            return false;
        }
        self.replace_node(node);
        true
    }
}

/// Server tunables.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads; each owns one connection at a time.
    pub workers: usize,
    /// Bounded accept→worker queue depth (the backpressure valve).
    pub queue_depth: usize,
    /// Per-frame payload cap; oversized prefixes are rejected before
    /// allocation.
    pub max_frame: usize,
    /// Per-connection socket timeout so a stuck peer cannot pin a
    /// worker forever.
    pub socket_timeout: Duration,
    /// Fault-injection knob: after serving this many requests the
    /// server wedges — every connection drops and no response is ever
    /// written again — simulating a server crash mid-save. `None`
    /// (default) never wedges.
    pub fail_after_requests: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 8,
            queue_depth: 64,
            max_frame: MAX_FRAME,
            socket_timeout: Duration::from_secs(10),
            fail_after_requests: None,
        }
    }
}

/// A running checkpoint server. Dropping it (or calling
/// [`CheckpointServer::shutdown`]) stops the accept loop and joins
/// every thread; the served plane survives and can be re-served.
pub struct CheckpointServer<P: ServePlane + Send + 'static> {
    addr: SocketAddr,
    plane: Arc<Mutex<P>>,
    stop: Arc<AtomicBool>,
    conns: Arc<Mutex<std::collections::HashMap<u64, TcpStream>>>,
    threads: Vec<JoinHandle<()>>,
}

impl<P: ServePlane + Send + 'static> CheckpointServer<P> {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// serves `plane`.
    ///
    /// # Errors
    ///
    /// Returns the bind error when the address is unavailable.
    pub fn serve(plane: P, addr: &str, cfg: ServerConfig) -> std::io::Result<Self> {
        Self::serve_shared(Arc::new(Mutex::new(plane)), addr, cfg)
    }

    /// [`CheckpointServer::serve`] over an externally owned plane, so a
    /// restarted server can pick up exactly where a crashed one left
    /// off — the property the connection-drop recovery tests exercise.
    ///
    /// # Errors
    ///
    /// Returns the bind error when the address is unavailable.
    pub fn serve_shared(
        plane: Arc<Mutex<P>>,
        addr: &str,
        cfg: ServerConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let wedged = Arc::new(AtomicBool::new(false));
        let served = Arc::new(AtomicU64::new(0));
        let (tx, rx) = mpsc::sync_channel::<TcpStream>(cfg.queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        // Clones of every in-flight connection, so shutdown can cut
        // blocked reads short instead of waiting out socket timeouts.
        // Keyed by a serial so each worker drops its entry (and the
        // cloned fd) when the connection finishes.
        let conns = Arc::new(Mutex::new(std::collections::HashMap::<u64, TcpStream>::new()));
        let conn_serial = Arc::new(AtomicU64::new(0));

        let workers = cfg.workers.max(1);
        let mut threads = Vec::with_capacity(workers + 1);
        for _ in 0..workers {
            let rx = Arc::clone(&rx);
            let plane = Arc::clone(&plane);
            let wedged = Arc::clone(&wedged);
            let served = Arc::clone(&served);
            let conns = Arc::clone(&conns);
            let conn_serial = Arc::clone(&conn_serial);
            threads.push(std::thread::spawn(move || loop {
                let stream = match rx.lock().expect("net worker queue poisoned").recv() {
                    Ok(s) => s,
                    Err(_) => return, // accept loop gone: drain and exit
                };
                let id = conn_serial.fetch_add(1, Ordering::Relaxed);
                if let Ok(clone) = stream.try_clone() {
                    conns.lock().expect("net conn registry poisoned").insert(id, clone);
                }
                let _ = serve_connection(stream, &plane, &cfg, &wedged, &served);
                conns.lock().expect("net conn registry poisoned").remove(&id);
            }));
        }

        {
            let stop = Arc::clone(&stop);
            threads.push(std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        return; // dropping `tx` shuts the workers down
                    }
                    if let Ok(stream) = stream {
                        // Blocks when the queue is full: backpressure
                        // propagates to the listen backlog.
                        if tx.send(stream).is_err() {
                            return;
                        }
                    }
                }
            }));
        }

        Ok(Self { addr: local, plane, stop, conns, threads })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served plane, for inspection or re-serving after shutdown.
    pub fn plane(&self) -> Arc<Mutex<P>> {
        Arc::clone(&self.plane)
    }

    /// Stops accepting, wakes the accept loop, and joins all threads.
    /// In-flight requests finish; idle connections drop.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // The accept loop blocks in `incoming()`; poke it with a
        // connection so it observes the stop flag. Workers blocked
        // reading idle connections get them cut out from under them.
        let _ = TcpStream::connect(self.addr);
        if let Ok(conns) = self.conns.lock() {
            for c in conns.values() {
                let _ = c.shutdown(Shutdown::Both);
            }
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl<P: ServePlane + Send + 'static> Drop for CheckpointServer<P> {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

impl<P: ServePlane + Send + 'static> std::fmt::Debug for CheckpointServer<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointServer").field("addr", &self.addr).finish_non_exhaustive()
    }
}

/// Serves one connection until EOF, a codec error, or the wedge fires.
/// Requests are handled in arrival order, so a pipelining client reads
/// responses in the order it sent requests.
fn serve_connection<P: ServePlane>(
    stream: TcpStream,
    plane: &Mutex<P>,
    cfg: &ServerConfig,
    wedged: &AtomicBool,
    served: &AtomicU64,
) -> Result<(), WireError> {
    stream.set_read_timeout(Some(cfg.socket_timeout))?;
    stream.set_write_timeout(Some(cfg.socket_timeout))?;
    // Under Nagle a response's last segment waits out the client's
    // delayed ACK (~40 ms per read). The client sets this too.
    stream.set_nodelay(true)?;
    // The server owns this stream for its whole life, so read-ahead is
    // never stranded: a small frame costs one `read`, and a blob past
    // the buffer's size is read straight into its own buffer.
    let mut reader = BufReader::with_capacity(64 << 10, &stream);
    let mut writer = &stream;
    loop {
        if wedged.load(Ordering::SeqCst) {
            return Ok(()); // drop the connection without a response
        }
        if reader.fill_buf()?.is_empty() {
            return Ok(()); // the peer hung up between frames
        }
        if let Some(limit) = cfg.fail_after_requests {
            if served.fetch_add(1, Ordering::SeqCst) + 1 > limit {
                wedged.store(true, Ordering::SeqCst);
                return Ok(());
            }
        }
        // A stream that fails mid-frame is dropped without an answer.
        let response = match read_message(&mut reader, cfg.max_frame, parse_request)? {
            Ok(req) => handle(plane, req),
            Err(err @ (WireError::Truncated | WireError::Oversized { .. })) => {
                // Framing is broken; nothing after this byte can be
                // trusted. Report and hang up.
                let resp =
                    Response::Err(ecc_cluster::ClusterError::Transport { detail: err.to_string() });
                let _ = write_response(&mut writer, &resp);
                return Err(err);
            }
            Err(err) => {
                // The reader consumed exactly the frame (bad op, bad
                // key, bad CRC): answer with a structured error and
                // keep the connection.
                Response::Err(ecc_cluster::ClusterError::Transport { detail: err.to_string() })
            }
        };
        write_response(&mut writer, &response)?;
    }
}

/// Executes one request against the plane. The mutex is held for the
/// duration of the plane call only — no I/O happens under it.
///
/// A panic inside the plane costs one request, not the server: it is
/// caught and answered with a structured error, and the poison it
/// leaves on the mutex is cleared (and stepped over by a worker that
/// locks in between), so the next request is served.
fn handle<P: ServePlane>(plane: &Mutex<P>, req: Request) -> Response {
    let call = AssertUnwindSafe(|| {
        handle_locked(&mut *plane.lock().unwrap_or_else(PoisonError::into_inner), req)
    });
    catch_unwind(call).unwrap_or_else(|_| {
        plane.clear_poison();
        Response::Err(ecc_cluster::ClusterError::Transport {
            detail: "the served plane panicked on this request".into(),
        })
    })
}

/// Node ids come off the wire, so they are bounds-checked *before*
/// the plane sees them: some plane impls (e.g. `Cluster::alive`)
/// index directly and would panic.
fn handle_locked<P: ServePlane>(p: &mut P, req: Request) -> Response {
    let nodes = p.nodes();
    if let Some(node) = req.node() {
        if node as usize >= nodes {
            return match req {
                Request::GetLocal { .. } => Response::NotFound,
                Request::Alive { .. } => Response::Bool(false),
                Request::ListKeys { .. } => Response::Keys(Vec::new()),
                // Deletes are idempotent no-ops, like the in-memory
                // plane on a missing key; writes and admin ops refuse.
                Request::DeleteLocal { .. } => Response::Ok,
                _ => Response::Err(ecc_cluster::ClusterError::NoSuchNode { node: node as usize }),
            };
        }
    }
    match req {
        Request::PutLocal { node, key, blob } => match p.put_local(node as usize, &key, blob) {
            Ok(()) => Response::Ok,
            Err(e) => Response::Err(e),
        },
        Request::GetLocal { node, key } => match p.get_local(node as usize, &key) {
            Some(blob) => Response::Blob(blob),
            None => Response::NotFound,
        },
        Request::DeleteLocal { node, key } => {
            p.delete_local(node as usize, &key);
            Response::Ok
        }
        Request::PutRemote { key, blob } => {
            p.put_remote(&key, blob);
            Response::Ok
        }
        Request::GetRemote { key } => match p.get_remote(&key) {
            Some(blob) => Response::Blob(blob),
            None => Response::NotFound,
        },
        Request::Alive { node } => Response::Bool(p.alive(node as usize)),
        Request::Nodes => Response::Count(p.nodes().min(u32::MAX as usize) as u32),
        Request::ListKeys { node } => Response::Keys(p.local_keys(node as usize)),
        Request::FailNode { node } => {
            if p.admin_fail_node(node as usize) {
                Response::Ok
            } else {
                Response::Err(ecc_cluster::ClusterError::NoSuchNode { node: node as usize })
            }
        }
        Request::ReplaceNode { node } => {
            if p.admin_replace_node(node as usize) {
                Response::Ok
            } else {
                Response::Err(ecc_cluster::ClusterError::NoSuchNode { node: node as usize })
            }
        }
        Request::Join { node } => membership_response(p.admin_join(node as usize)),
        Request::Leave { node } => membership_response(p.admin_leave(node as usize)),
        Request::GetPlacement => membership_response(p.admin_placement()),
        Request::Ping => Response::Ok,
    }
}

fn membership_response(result: Result<PlacementInfo, String>) -> Response {
    match result {
        Ok(info) => Response::Placement {
            epoch: info.epoch,
            data_nodes: info.data_nodes,
            parity_nodes: info.parity_nodes,
            group_size: info.group_size,
        },
        Err(detail) => Response::Err(ecc_cluster::ClusterError::Transport { detail }),
    }
}
