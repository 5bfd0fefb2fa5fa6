//! [`RemotePlane`]: a [`DataPlane`] backed by a live checkpoint server.
//!
//! This is the payoff of the owned-bytes `DataPlane` fix: because
//! `get_local`/`get_remote` return `Option<Vec<u8>>` instead of
//! borrowed slices, a plane whose bytes arrive over a socket can
//! implement the trait verbatim, and the ECCheck engine saves and
//! loads across real process boundaries with zero changes.
//!
//! Connections are pooled (a small stack of long-lived streams) and
//! each RPC retries once on a fresh connection after an I/O failure —
//! every wire op is idempotent, so the retry is safe. Failures that
//! survive the retry degrade the way the trait contract demands:
//! reads report "absent" (`None`), liveness reports `false`, and
//! writes surface [`ClusterError::Transport`].

use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Mutex;
use std::time::Duration;

use ecc_cluster::{ClusterError, DataPlane, NodeId};
use eccheck::Placement;

use crate::codec::{read_response, write_request, Request, Response, WireError, MAX_FRAME};

/// Client tunables.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Max idle connections kept in the pool.
    pub pool_size: usize,
    /// Per-frame payload cap applied to responses.
    pub max_frame: usize,
    /// Socket read/write timeout.
    pub socket_timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self { pool_size: 2, max_frame: MAX_FRAME, socket_timeout: Duration::from_secs(10) }
    }
}

/// A `DataPlane` whose storage lives in another process, reached over
/// TCP. See the module docs for the error-degradation contract.
pub struct RemotePlane {
    addr: String,
    cfg: ClientConfig,
    nodes: usize,
    pool: Mutex<Vec<TcpStream>>,
}

impl RemotePlane {
    /// Connects to a checkpoint server and snapshots its node count
    /// (cluster membership size is fixed for a server's lifetime, so
    /// one query at connect time suffices).
    ///
    /// # Errors
    ///
    /// [`ClusterError::Transport`] when the server is unreachable or
    /// answers the `Nodes` query with anything but a count.
    pub fn connect(addr: &str) -> Result<Self, ClusterError> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// [`RemotePlane::connect`] with explicit tunables.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Transport`] when the server is unreachable or
    /// answers the `Nodes` query with anything but a count.
    pub fn connect_with(addr: &str, cfg: ClientConfig) -> Result<Self, ClusterError> {
        let mut plane =
            Self { addr: addr.to_string(), cfg, nodes: 0, pool: Mutex::new(Vec::new()) };
        match plane.rpc(&Request::Nodes)? {
            Response::Count(n) => plane.nodes = n as usize,
            other => return Err(transport(format!("Nodes query answered with {other:?}"))),
        }
        Ok(plane)
    }

    /// The server address this plane talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Round-trips a `Ping`; `true` means the server is up and speaks
    /// the protocol.
    pub fn ping(&self) -> bool {
        matches!(self.rpc(&Request::Ping), Ok(Response::Ok))
    }

    /// Asks the server to fail a node (a cross-process crash drill).
    ///
    /// # Errors
    ///
    /// [`ClusterError::Transport`] when unreachable; the server's own
    /// refusal (e.g. node out of range) is passed through.
    pub fn fail_node(&self, node: NodeId) -> Result<(), ClusterError> {
        self.expect_ok(Request::FailNode { node: wire_node(node) })
    }

    /// Asks the server to bring a replacement node online.
    ///
    /// # Errors
    ///
    /// Same contract as [`RemotePlane::fail_node`].
    pub fn replace_node(&self, node: NodeId) -> Result<(), ClusterError> {
        self.expect_ok(Request::ReplaceNode { node: wire_node(node) })
    }

    /// Asks the server to admit a replacement into `node`'s slot,
    /// migrate its chunk, and commit a new placement epoch. Returns
    /// the committed epoch and placement.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Transport`] when unreachable or when the server
    /// refuses (slot still active, guarantee not restorable yet,
    /// membership not enabled).
    pub fn join(&self, node: NodeId) -> Result<(u64, Placement), ClusterError> {
        self.expect_placement(Request::Join { node: wire_node(node) })
    }

    /// Announces a graceful drain of `node`'s slot: the server stages
    /// its bytes before a replacement wipes them. Returns the (still
    /// unchanged) epoch and placement.
    ///
    /// # Errors
    ///
    /// Same contract as [`RemotePlane::join`].
    pub fn leave(&self, node: NodeId) -> Result<(u64, Placement), ClusterError> {
        self.expect_placement(Request::Leave { node: wire_node(node) })
    }

    /// The server's committed placement and epoch — what a stale
    /// engine applies (`EcCheck::apply_placement`) after an epoch
    /// fence refused its save or load.
    ///
    /// # Errors
    ///
    /// Same contract as [`RemotePlane::join`].
    pub fn get_placement(&self) -> Result<(u64, Placement), ClusterError> {
        self.expect_placement(Request::GetPlacement)
    }

    fn expect_placement(&self, req: Request) -> Result<(u64, Placement), ClusterError> {
        match self.rpc(&req)? {
            Response::Placement { epoch, data_nodes, parity_nodes, group_size } => {
                let placement = Placement::new(
                    data_nodes.into_iter().map(|n| n as usize).collect(),
                    parity_nodes.into_iter().map(|n| n as usize).collect(),
                    group_size as usize,
                )
                .map_err(|e| transport(format!("server sent an invalid placement: {e}")))?;
                Ok((epoch, placement))
            }
            Response::Err(e) => Err(e),
            other => Err(transport(format!("unexpected response {other:?}"))),
        }
    }

    fn expect_ok(&self, req: Request) -> Result<(), ClusterError> {
        match self.rpc(&req)? {
            Response::Ok => Ok(()),
            Response::Err(e) => Err(e),
            other => Err(transport(format!("unexpected response {other:?}"))),
        }
    }

    fn dial(&self) -> Result<TcpStream, WireError> {
        let addrs = self.addr.to_socket_addrs()?;
        let mut last = None;
        for a in addrs {
            match TcpStream::connect_timeout(&a, self.cfg.socket_timeout) {
                Ok(s) => {
                    s.set_read_timeout(Some(self.cfg.socket_timeout))?;
                    s.set_write_timeout(Some(self.cfg.socket_timeout))?;
                    s.set_nodelay(true)?;
                    return Ok(s);
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.map_or(WireError::Io("address resolved to nothing".into()), WireError::from))
    }

    fn checkout(&self) -> Option<TcpStream> {
        self.pool.lock().ok()?.pop()
    }

    fn checkin(&self, stream: TcpStream) {
        if let Ok(mut pool) = self.pool.lock() {
            if pool.len() < self.cfg.pool_size {
                pool.push(stream);
            }
        }
    }

    fn rpc_once(&self, stream: &mut TcpStream, req: &Request) -> Result<Response, WireError> {
        write_request(stream, req)?;
        // No buffered reader here: a throwaway buffer could strand
        // read-ahead bytes between RPCs on the pooled connection.
        read_response(stream, self.cfg.max_frame)
    }

    /// One RPC with at most one retry. A pooled connection may have
    /// died while idle (server restart, timeout), so an I/O failure on
    /// it is retried once on a freshly dialed stream; every request in
    /// the protocol is idempotent, which makes the retry safe even if
    /// the first attempt executed before the connection dropped.
    fn rpc(&self, req: &Request) -> Result<Response, ClusterError> {
        let pooled = self.checkout();
        let fresh = pooled.is_none();
        let mut stream = match pooled.map_or_else(|| self.dial(), Ok) {
            Ok(s) => s,
            Err(e) => return Err(transport(e.to_string())),
        };
        match self.rpc_once(&mut stream, req) {
            Ok(resp) => {
                self.checkin(stream);
                return Ok(resp);
            }
            Err(e) if fresh => return Err(transport(e.to_string())),
            Err(_) => drop(stream),
        }
        let mut stream = self.dial().map_err(|e| transport(e.to_string()))?;
        match self.rpc_once(&mut stream, req) {
            Ok(resp) => {
                self.checkin(stream);
                Ok(resp)
            }
            Err(e) => Err(transport(e.to_string())),
        }
    }

    fn fetch(&self, req: Request) -> Option<Vec<u8>> {
        match self.rpc(&req) {
            Ok(Response::Blob(blob)) => Some(blob),
            _ => None,
        }
    }
}

impl DataPlane for RemotePlane {
    fn nodes(&self) -> usize {
        self.nodes
    }

    fn alive(&self, node: NodeId) -> bool {
        matches!(self.rpc(&Request::Alive { node: wire_node(node) }), Ok(Response::Bool(true)))
    }

    fn put_local(&mut self, node: NodeId, key: &str, bytes: Vec<u8>) -> Result<(), ClusterError> {
        let req = Request::PutLocal { node: wire_node(node), key: key.to_string(), blob: bytes };
        match self.rpc(&req)? {
            Response::Ok => Ok(()),
            Response::Err(e) => Err(e),
            other => Err(transport(format!("PutLocal answered with {other:?}"))),
        }
    }

    fn get_local(&self, node: NodeId, key: &str) -> Option<Vec<u8>> {
        self.fetch(Request::GetLocal { node: wire_node(node), key: key.to_string() })
    }

    fn delete_local(&mut self, node: NodeId, key: &str) {
        let _ = self.rpc(&Request::DeleteLocal { node: wire_node(node), key: key.to_string() });
    }

    fn put_remote(&mut self, key: &str, bytes: Vec<u8>) {
        // The trait treats remote CPFS writes as infallible (the
        // in-memory plane cannot fail them); a transport failure here
        // is droppable because the engine re-flushes on a later save.
        let _ = self.rpc(&Request::PutRemote { key: key.to_string(), blob: bytes });
    }

    fn get_remote(&self, key: &str) -> Option<Vec<u8>> {
        self.fetch(Request::GetRemote { key: key.to_string() })
    }

    fn local_keys(&self, node: NodeId) -> Vec<String> {
        match self.rpc(&Request::ListKeys { node: wire_node(node) }) {
            Ok(Response::Keys(keys)) => keys,
            _ => Vec::new(),
        }
    }
}

impl std::fmt::Debug for RemotePlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemotePlane")
            .field("addr", &self.addr)
            .field("nodes", &self.nodes)
            .finish_non_exhaustive()
    }
}

/// Node ids ride the wire as `u32`; ids past `u32::MAX` cannot exist
/// on any real cluster, so they saturate to an id the server rejects.
fn wire_node(node: NodeId) -> u32 {
    node.min(u32::MAX as usize) as u32
}

fn transport(detail: String) -> ClusterError {
    ClusterError::Transport { detail }
}
