//! The checkpoint wire protocol: length-prefixed frames carrying the
//! [`DataPlane`](ecc_cluster::DataPlane) operations.
//!
//! Every message is one frame: a `u32` little-endian payload length,
//! then the payload. The first payload byte is an op tag (requests) or
//! a status tag (responses); blob-carrying messages end in a 4-byte
//! CRC-32 trailer over the blob bytes — the same
//! [`ecc_checkpoint::checksum_frame`] that closes a stored manifest —
//! so in-flight corruption is caught at the codec, before a damaged
//! blob can masquerade as stored state.
//!
//! Decoding is hardened against hostile input: a length prefix above
//! the frame cap is rejected *before* any allocation, truncated frames
//! and short payloads surface as [`WireError::Truncated`], unknown
//! tags and malformed keys as their own structured errors, and no
//! input byte sequence can panic the decoder (`tests/codec_prop.rs`
//! drives it with garbage streams).

use std::fmt;
use std::io::{Read, Write};

use ecc_checkpoint::{checksum_frame, verify_checksum};
use ecc_cluster::ClusterError;

/// Default cap on a single frame's payload, comfortably above the
/// largest chunk the paper's 64 MB packets produce.
pub const MAX_FRAME: usize = 256 << 20;

/// Cap on key length: engine keys are tens of bytes, so anything
/// kilobytes long is garbage or an attack.
pub const MAX_KEY: usize = 4096;

/// A request frame, client → server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Store a blob in a node's host memory.
    PutLocal {
        /// Target node.
        node: u32,
        /// Blob key.
        key: String,
        /// Blob bytes.
        blob: Vec<u8>,
    },
    /// Read a blob from a node's host memory.
    GetLocal {
        /// Target node.
        node: u32,
        /// Blob key.
        key: String,
    },
    /// Delete a blob if present.
    DeleteLocal {
        /// Target node.
        node: u32,
        /// Blob key.
        key: String,
    },
    /// Store a blob in persistent remote storage.
    PutRemote {
        /// Blob key.
        key: String,
        /// Blob bytes.
        blob: Vec<u8>,
    },
    /// Read a blob from remote storage.
    GetRemote {
        /// Blob key.
        key: String,
    },
    /// Is the node alive?
    Alive {
        /// Target node.
        node: u32,
    },
    /// How many nodes does the plane expose?
    Nodes,
    /// Sorted keys stored on a node.
    ListKeys {
        /// Target node.
        node: u32,
    },
    /// Admin: fail a node (volatile memory lost).
    FailNode {
        /// Target node.
        node: u32,
    },
    /// Admin: bring a replacement node online (alive, empty).
    ReplaceNode {
        /// Target node.
        node: u32,
    },
    /// Membership: admit a replacement process into a vacated slot and
    /// rebalance. Answered with [`Response::Placement`] on success.
    Join {
        /// Target slot.
        node: u32,
    },
    /// Membership: announce a graceful drain of a slot (its bytes are
    /// staged before the replacement wipes them). Answered with
    /// [`Response::Placement`].
    Leave {
        /// Target slot.
        node: u32,
    },
    /// Membership: the current placement and epoch, for engines that
    /// were refused with a stale epoch and need to refresh.
    GetPlacement,
    /// Liveness probe of the server itself.
    Ping,
}

impl Request {
    /// The node id this request addresses, if any — wire input, so
    /// servers bounds-check it before indexing a plane with it.
    pub fn node(&self) -> Option<u32> {
        match self {
            Request::PutLocal { node, .. }
            | Request::GetLocal { node, .. }
            | Request::DeleteLocal { node, .. }
            | Request::Alive { node }
            | Request::ListKeys { node }
            | Request::FailNode { node }
            | Request::ReplaceNode { node }
            | Request::Join { node }
            | Request::Leave { node } => Some(*node),
            Request::PutRemote { .. }
            | Request::GetRemote { .. }
            | Request::Nodes
            | Request::GetPlacement
            | Request::Ping => None,
        }
    }
}

/// A response frame, server → client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The operation succeeded with nothing to return.
    Ok,
    /// A blob (CRC-framed on the wire).
    Blob(Vec<u8>),
    /// The addressed blob does not exist (distinct from an error).
    NotFound,
    /// A boolean answer (`Alive`).
    Bool(bool),
    /// A count (`Nodes`).
    Count(u32),
    /// A key listing (`ListKeys`).
    Keys(Vec<String>),
    /// The committed placement at an epoch (`Join`/`Leave`/
    /// `GetPlacement`). Node ids are slots; `group_size` is the GPUs
    /// per node the sweep-line placement grouped over.
    Placement {
        /// The placement epoch this layout was committed at.
        epoch: u64,
        /// Slots holding data chunks, in chunk order.
        data_nodes: Vec<u32>,
        /// Slots holding parity chunks, in chunk order.
        parity_nodes: Vec<u32>,
        /// GPUs per node.
        group_size: u32,
    },
    /// A structured data-plane error, round-tripped losslessly.
    Err(ClusterError),
}

/// Why a frame could not be read or decoded. Every hostile input maps
/// to one of these — never a panic, never an unbounded allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The stream ended mid-frame, or the payload is shorter than its
    /// fields demand.
    Truncated,
    /// The length prefix exceeds the frame cap (rejected before any
    /// allocation).
    Oversized {
        /// The advertised payload length.
        len: u64,
        /// The configured cap.
        max: usize,
    },
    /// An unknown request op tag.
    UnknownOp(u8),
    /// An unknown response status tag.
    UnknownStatus(u8),
    /// A blob's CRC trailer does not match its bytes.
    CrcMismatch,
    /// A key is longer than [`MAX_KEY`] or not valid UTF-8.
    BadKey,
    /// The underlying transport failed mid-frame.
    Io(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds cap of {max}")
            }
            WireError::UnknownOp(op) => write!(f, "unknown op tag {op:#04x}"),
            WireError::UnknownStatus(s) => write!(f, "unknown status tag {s:#04x}"),
            WireError::CrcMismatch => write!(f, "blob failed its CRC trailer"),
            WireError::BadKey => write!(f, "malformed key (too long or invalid UTF-8)"),
            WireError::Io(detail) => write!(f, "transport failed: {detail}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e.to_string())
        }
    }
}

// Request op tags.
const OP_PUT_LOCAL: u8 = 0x01;
const OP_GET_LOCAL: u8 = 0x02;
const OP_DELETE_LOCAL: u8 = 0x03;
const OP_PUT_REMOTE: u8 = 0x04;
const OP_GET_REMOTE: u8 = 0x05;
const OP_ALIVE: u8 = 0x06;
const OP_NODES: u8 = 0x07;
const OP_LIST_KEYS: u8 = 0x08;
const OP_FAIL_NODE: u8 = 0x09;
const OP_REPLACE_NODE: u8 = 0x0A;
const OP_PING: u8 = 0x0B;
const OP_JOIN: u8 = 0x0C;
const OP_LEAVE: u8 = 0x0D;
const OP_GET_PLACEMENT: u8 = 0x0E;

// Response status tags.
const ST_OK: u8 = 0x80;
const ST_BLOB: u8 = 0x81;
const ST_NOT_FOUND: u8 = 0x82;
const ST_BOOL: u8 = 0x83;
const ST_COUNT: u8 = 0x84;
const ST_KEYS: u8 = 0x85;
const ST_PLACEMENT: u8 = 0x86;
const ST_ERR: u8 = 0x8F;

// ClusterError variant tags inside an ST_ERR payload.
const ERR_NODE_DOWN: u8 = 0;
const ERR_NO_SUCH_NODE: u8 = 1;
const ERR_NO_SUCH_BLOB: u8 = 2;
const ERR_OUT_OF_MEMORY: u8 = 3;
const ERR_TRANSPORT: u8 = 4;

/// Reads one frame: the length prefix, cap check, then the payload.
///
/// # Errors
///
/// [`WireError::Oversized`] for prefixes above `max_frame` (before any
/// allocation), [`WireError::Truncated`] for a stream that ends
/// mid-frame, [`WireError::Io`] for other transport failures.
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> Result<Vec<u8>, WireError> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > max_frame {
        return Err(WireError::Oversized { len: len as u64, max: max_frame });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Writes one frame: length prefix then payload.
///
/// # Errors
///
/// Transport failures as [`WireError::Io`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    let len = u32::try_from(payload.len())
        .map_err(|_| WireError::Oversized { len: payload.len() as u64, max: u32::MAX as usize })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// A bounds-checked payload reader; every accessor fails with
/// [`WireError::Truncated`] instead of slicing out of range.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(u64::from_le_bytes(arr))
    }

    /// A length-prefixed UTF-8 key, capped at [`MAX_KEY`].
    fn key(&mut self) -> Result<String, WireError> {
        let len = self.u16()? as usize;
        if len > MAX_KEY {
            return Err(WireError::BadKey);
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadKey)
    }

    /// All remaining bytes as a CRC-framed blob: the last 4 bytes are
    /// the [`checksum_frame`] of everything before them.
    fn crc_blob(&mut self) -> Result<Vec<u8>, WireError> {
        let rest = &self.buf[self.pos..];
        if rest.len() < 4 {
            return Err(WireError::Truncated);
        }
        let (blob, crc) = rest.split_at(rest.len() - 4);
        if !verify_checksum(blob, crc) {
            return Err(WireError::CrcMismatch);
        }
        self.pos = self.buf.len();
        Ok(blob.to_vec())
    }

    /// The payload must be fully consumed; trailing garbage means the
    /// frame does not say what its op tag claims.
    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Truncated)
        }
    }
}

fn push_key(out: &mut Vec<u8>, key: &str) {
    debug_assert!(key.len() <= MAX_KEY, "callers build keys, not attackers");
    let len = key.len().min(u16::MAX as usize) as u16;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&key.as_bytes()[..len as usize]);
}

fn push_crc_blob(out: &mut Vec<u8>, blob: &[u8]) {
    out.extend_from_slice(blob);
    out.extend_from_slice(&checksum_frame(blob));
}

/// Encodes a request payload (no length prefix; pair with
/// [`write_frame`]).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    match req {
        Request::PutLocal { node, key, blob } => {
            out.push(OP_PUT_LOCAL);
            out.extend_from_slice(&node.to_le_bytes());
            push_key(&mut out, key);
            push_crc_blob(&mut out, blob);
        }
        Request::GetLocal { node, key } => {
            out.push(OP_GET_LOCAL);
            out.extend_from_slice(&node.to_le_bytes());
            push_key(&mut out, key);
        }
        Request::DeleteLocal { node, key } => {
            out.push(OP_DELETE_LOCAL);
            out.extend_from_slice(&node.to_le_bytes());
            push_key(&mut out, key);
        }
        Request::PutRemote { key, blob } => {
            out.push(OP_PUT_REMOTE);
            push_key(&mut out, key);
            push_crc_blob(&mut out, blob);
        }
        Request::GetRemote { key } => {
            out.push(OP_GET_REMOTE);
            push_key(&mut out, key);
        }
        Request::Alive { node } => {
            out.push(OP_ALIVE);
            out.extend_from_slice(&node.to_le_bytes());
        }
        Request::Nodes => out.push(OP_NODES),
        Request::ListKeys { node } => {
            out.push(OP_LIST_KEYS);
            out.extend_from_slice(&node.to_le_bytes());
        }
        Request::FailNode { node } => {
            out.push(OP_FAIL_NODE);
            out.extend_from_slice(&node.to_le_bytes());
        }
        Request::ReplaceNode { node } => {
            out.push(OP_REPLACE_NODE);
            out.extend_from_slice(&node.to_le_bytes());
        }
        Request::Join { node } => {
            out.push(OP_JOIN);
            out.extend_from_slice(&node.to_le_bytes());
        }
        Request::Leave { node } => {
            out.push(OP_LEAVE);
            out.extend_from_slice(&node.to_le_bytes());
        }
        Request::GetPlacement => out.push(OP_GET_PLACEMENT),
        Request::Ping => out.push(OP_PING),
    }
    out
}

/// Decodes a request payload.
///
/// # Errors
///
/// Structured [`WireError`]s for every malformed input; never panics.
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let mut c = Cursor::new(payload);
    let op = c.u8()?;
    let req = match op {
        OP_PUT_LOCAL => {
            let node = c.u32()?;
            let key = c.key()?;
            let blob = c.crc_blob()?;
            Request::PutLocal { node, key, blob }
        }
        OP_GET_LOCAL => Request::GetLocal { node: c.u32()?, key: c.key()? },
        OP_DELETE_LOCAL => Request::DeleteLocal { node: c.u32()?, key: c.key()? },
        OP_PUT_REMOTE => {
            let key = c.key()?;
            let blob = c.crc_blob()?;
            Request::PutRemote { key, blob }
        }
        OP_GET_REMOTE => Request::GetRemote { key: c.key()? },
        OP_ALIVE => Request::Alive { node: c.u32()? },
        OP_NODES => Request::Nodes,
        OP_LIST_KEYS => Request::ListKeys { node: c.u32()? },
        OP_FAIL_NODE => Request::FailNode { node: c.u32()? },
        OP_REPLACE_NODE => Request::ReplaceNode { node: c.u32()? },
        OP_JOIN => Request::Join { node: c.u32()? },
        OP_LEAVE => Request::Leave { node: c.u32()? },
        OP_GET_PLACEMENT => Request::GetPlacement,
        OP_PING => Request::Ping,
        other => return Err(WireError::UnknownOp(other)),
    };
    c.finish()?;
    Ok(req)
}

/// Encodes a response payload (no length prefix; pair with
/// [`write_frame`]).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    match resp {
        Response::Ok => out.push(ST_OK),
        Response::Blob(blob) => {
            out.push(ST_BLOB);
            push_crc_blob(&mut out, blob);
        }
        Response::NotFound => out.push(ST_NOT_FOUND),
        Response::Bool(b) => {
            out.push(ST_BOOL);
            out.push(u8::from(*b));
        }
        Response::Count(n) => {
            out.push(ST_COUNT);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Response::Keys(keys) => {
            out.push(ST_KEYS);
            out.extend_from_slice(&(keys.len().min(u32::MAX as usize) as u32).to_le_bytes());
            for key in keys {
                push_key(&mut out, key);
            }
        }
        Response::Placement { epoch, data_nodes, parity_nodes, group_size } => {
            out.push(ST_PLACEMENT);
            out.extend_from_slice(&epoch.to_le_bytes());
            out.extend_from_slice(&group_size.to_le_bytes());
            push_nodes(&mut out, data_nodes);
            push_nodes(&mut out, parity_nodes);
        }
        Response::Err(e) => {
            out.push(ST_ERR);
            encode_cluster_error(&mut out, e);
        }
    }
    out
}

fn push_nodes(out: &mut Vec<u8>, nodes: &[u32]) {
    out.extend_from_slice(&(nodes.len().min(u32::MAX as usize) as u32).to_le_bytes());
    for node in nodes {
        out.extend_from_slice(&node.to_le_bytes());
    }
}

fn encode_cluster_error(out: &mut Vec<u8>, e: &ClusterError) {
    match e {
        ClusterError::NodeDown { node } => {
            out.push(ERR_NODE_DOWN);
            out.extend_from_slice(&(*node as u32).to_le_bytes());
        }
        ClusterError::NoSuchNode { node } => {
            out.push(ERR_NO_SUCH_NODE);
            out.extend_from_slice(&(*node as u32).to_le_bytes());
        }
        ClusterError::NoSuchBlob { key } => {
            out.push(ERR_NO_SUCH_BLOB);
            push_key(out, key);
        }
        ClusterError::OutOfMemory { node, requested, available } => {
            out.push(ERR_OUT_OF_MEMORY);
            out.extend_from_slice(&(*node as u32).to_le_bytes());
            out.extend_from_slice(&requested.to_le_bytes());
            out.extend_from_slice(&available.to_le_bytes());
        }
        ClusterError::Transport { detail } => {
            out.push(ERR_TRANSPORT);
            push_key(out, &detail.chars().take(512).collect::<String>());
        }
        // `ClusterError` is non_exhaustive: degrade unknown future
        // variants to a transport error carrying their Display text.
        other => {
            out.push(ERR_TRANSPORT);
            push_key(out, &other.to_string().chars().take(512).collect::<String>());
        }
    }
}

fn decode_cluster_error(c: &mut Cursor<'_>) -> Result<ClusterError, WireError> {
    let tag = c.u8()?;
    Ok(match tag {
        ERR_NODE_DOWN => ClusterError::NodeDown { node: c.u32()? as usize },
        ERR_NO_SUCH_NODE => ClusterError::NoSuchNode { node: c.u32()? as usize },
        ERR_NO_SUCH_BLOB => ClusterError::NoSuchBlob { key: c.key()? },
        ERR_OUT_OF_MEMORY => ClusterError::OutOfMemory {
            node: c.u32()? as usize,
            requested: c.u64()?,
            available: c.u64()?,
        },
        ERR_TRANSPORT => ClusterError::Transport { detail: c.key()? },
        other => return Err(WireError::UnknownStatus(other)),
    })
}

/// A length-prefixed `u32` slot list. Like `Keys`, a hostile count
/// cannot force an allocation beyond what the cap-checked payload can
/// actually hold.
fn take_nodes(c: &mut Cursor<'_>, payload_len: usize) -> Result<Vec<u32>, WireError> {
    let count = c.u32()? as usize;
    let mut nodes = Vec::with_capacity(count.min(payload_len / 4 + 1));
    for _ in 0..count {
        nodes.push(c.u32()?);
    }
    Ok(nodes)
}

/// Decodes a response payload.
///
/// # Errors
///
/// Structured [`WireError`]s for every malformed input; never panics.
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let mut c = Cursor::new(payload);
    let status = c.u8()?;
    let resp = match status {
        ST_OK => Response::Ok,
        ST_BLOB => Response::Blob(c.crc_blob()?),
        ST_NOT_FOUND => Response::NotFound,
        ST_BOOL => Response::Bool(c.u8()? != 0),
        ST_COUNT => Response::Count(c.u32()?),
        ST_KEYS => {
            let count = c.u32()? as usize;
            // A hostile count cannot force an allocation beyond what
            // the (already cap-checked) payload can actually hold.
            let mut keys = Vec::with_capacity(count.min(payload.len() / 2 + 1));
            for _ in 0..count {
                keys.push(c.key()?);
            }
            Response::Keys(keys)
        }
        ST_PLACEMENT => {
            let epoch = c.u64()?;
            let group_size = c.u32()?;
            let data_nodes = take_nodes(&mut c, payload.len())?;
            let parity_nodes = take_nodes(&mut c, payload.len())?;
            Response::Placement { epoch, data_nodes, parity_nodes, group_size }
        }
        ST_ERR => Response::Err(decode_cluster_error(&mut c)?),
        other => return Err(WireError::UnknownStatus(other)),
    };
    c.finish()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let payload = encode_request(&req);
        assert_eq!(decode_request(&payload).unwrap(), req);
    }

    fn round_trip_response(resp: Response) {
        let payload = encode_response(&resp);
        assert_eq!(decode_response(&payload).unwrap(), resp);
    }

    #[test]
    fn all_requests_round_trip() {
        round_trip_request(Request::PutLocal {
            node: 3,
            key: "ecc/v1/chunk".into(),
            blob: vec![7; 1024],
        });
        round_trip_request(Request::GetLocal { node: 0, key: "k".into() });
        round_trip_request(Request::DeleteLocal { node: 1, key: String::new() });
        round_trip_request(Request::PutRemote { key: "remote/x".into(), blob: Vec::new() });
        round_trip_request(Request::GetRemote { key: "remote/x".into() });
        round_trip_request(Request::Alive { node: 9 });
        round_trip_request(Request::Nodes);
        round_trip_request(Request::ListKeys { node: 2 });
        round_trip_request(Request::FailNode { node: 2 });
        round_trip_request(Request::ReplaceNode { node: 2 });
        round_trip_request(Request::Join { node: 3 });
        round_trip_request(Request::Leave { node: 0 });
        round_trip_request(Request::GetPlacement);
        round_trip_request(Request::Ping);
    }

    #[test]
    fn all_responses_round_trip() {
        round_trip_response(Response::Ok);
        round_trip_response(Response::Blob(vec![0xAB; 64]));
        round_trip_response(Response::Blob(Vec::new()));
        round_trip_response(Response::NotFound);
        round_trip_response(Response::Bool(true));
        round_trip_response(Response::Bool(false));
        round_trip_response(Response::Count(4));
        round_trip_response(Response::Keys(vec!["a".into(), "b/c".into(), String::new()]));
        round_trip_response(Response::Placement {
            epoch: 7,
            data_nodes: vec![0, 1],
            parity_nodes: vec![3, 2],
            group_size: 2,
        });
        round_trip_response(Response::Placement {
            epoch: 0,
            data_nodes: Vec::new(),
            parity_nodes: Vec::new(),
            group_size: 1,
        });
        round_trip_response(Response::Err(ClusterError::NodeDown { node: 2 }));
        round_trip_response(Response::Err(ClusterError::NoSuchNode { node: 7 }));
        round_trip_response(Response::Err(ClusterError::NoSuchBlob { key: "gone".into() }));
        round_trip_response(Response::Err(ClusterError::OutOfMemory {
            node: 1,
            requested: 1 << 40,
            available: 3,
        }));
        round_trip_response(Response::Err(ClusterError::Transport { detail: "refused".into() }));
    }

    #[test]
    fn frame_io_round_trips() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r, MAX_FRAME).unwrap(), b"hello");
    }

    #[test]
    fn oversized_prefix_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut r = &buf[..];
        assert!(matches!(read_frame(&mut r, 1024), Err(WireError::Oversized { .. })));
    }

    #[test]
    fn truncated_frames_are_truncated_errors() {
        let mut full = Vec::new();
        write_frame(&mut full, &encode_request(&Request::Ping)).unwrap();
        for cut in 0..full.len() {
            let mut r = &full[..cut];
            assert!(
                matches!(read_frame(&mut r, MAX_FRAME), Err(WireError::Truncated)),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn corrupted_blob_is_a_crc_mismatch() {
        let mut payload =
            encode_request(&Request::PutLocal { node: 0, key: "k".into(), blob: vec![1, 2, 3, 4] });
        let blob_byte = payload.len() - 6; // inside the blob, before the CRC
        payload[blob_byte] ^= 0xFF;
        assert_eq!(decode_request(&payload), Err(WireError::CrcMismatch));
    }

    #[test]
    fn unknown_tags_are_structured_errors() {
        assert_eq!(decode_request(&[0x55]), Err(WireError::UnknownOp(0x55)));
        assert_eq!(decode_response(&[0x01]), Err(WireError::UnknownStatus(0x01)));
        assert_eq!(decode_request(&[]), Err(WireError::Truncated));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut payload = encode_request(&Request::Ping);
        payload.push(0);
        assert_eq!(decode_request(&payload), Err(WireError::Truncated));
    }

    #[test]
    fn hostile_placement_counts_cannot_over_allocate() {
        // Claims 2^32 - 1 slots but carries none: must fail with
        // Truncated, not OOM or panic.
        let mut payload = vec![ST_PLACEMENT];
        payload.extend_from_slice(&7u64.to_le_bytes());
        payload.extend_from_slice(&2u32.to_le_bytes());
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_response(&payload), Err(WireError::Truncated));
    }

    #[test]
    fn oversized_key_is_bad_key() {
        let mut payload = vec![OP_GET_REMOTE];
        payload.extend_from_slice(&(MAX_KEY as u16 + 1).to_le_bytes());
        payload.extend(std::iter::repeat_n(b'x', MAX_KEY + 1));
        assert_eq!(decode_request(&payload), Err(WireError::BadKey));
    }
}
