//! The checkpoint wire protocol: length-prefixed frames carrying the
//! [`DataPlane`](ecc_cluster::DataPlane) operations.
//!
//! A frame is a `u32` little-endian payload length, then the payload.
//! The first payload byte is an op tag (requests) or a status tag
//! (responses); blob-carrying messages end in a 4-byte CRC-32 trailer
//! over the blob bytes — the same [`ecc_checkpoint::checksum_frame`]
//! that closes a stored manifest — so in-flight corruption is caught at
//! the codec, before a damaged blob can masquerade as stored state.
//!
//! The codec streams. [`write_request`] / [`write_response`] send
//! `len ‖ head ‖ blob ‖ crc` in one vectored write straight from the
//! blob's own buffer. [`read_request`] / [`read_response`] read the
//! fixed fields, then the blob into a buffer sized from the frame
//! length — the buffer the caller keeps — and check its trailer before
//! anything is returned. [`encode_request`] / [`decode_request`] (and
//! the response pair) are the same code over a `Vec` and a `&[u8]`, for
//! a payload without its length prefix.
//!
//! Reading is hardened against hostile input: a length prefix above
//! the cap is rejected before any allocation; every field is read
//! under the byte budget the prefix announced, so a field that overruns
//! its frame is [`WireError::Truncated`] and no buffer is sized from a
//! field; a key's length is checked against [`MAX_KEY`] before its
//! bytes are read; leftover bytes are rejected; unknown tags and
//! malformed keys are their own structured errors; and no input byte
//! sequence can panic the reader (`tests/codec_prop.rs` drives it with
//! garbage streams). An unknown tag, a bad key or a bad trailer leaves
//! the stream at the next frame's first byte, so a server can answer it
//! and keep the connection.

use std::fmt;
use std::io::{self, IoSlice, Read, Write};

use ecc_checkpoint::crc32;
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

/// Writes one request frame: the length prefix, the fixed fields, and
/// for a blob request the blob — from the request's own buffer — and
/// its CRC trailer, in one vectored write loop.
///
/// # Errors
///
/// Transport failures as [`WireError::Io`]; a payload past `u32::MAX`
/// bytes as [`WireError::Oversized`].
pub fn write_request(w: &mut impl Write, req: &Request) -> Result<(), WireError> {
    request_parts(req).write_frame(w)
}

/// Writes one response frame, like [`write_request`].
///
/// # Errors
///
/// As [`write_request`].
pub fn write_response(w: &mut impl Write, resp: &Response) -> Result<(), WireError> {
    response_parts(resp).write_frame(w)
}

/// Encodes a request payload: what [`write_request`] sends after the
/// length prefix, in a `Vec` sized to it.
pub fn encode_request(req: &Request) -> Vec<u8> {
    request_parts(req).payload()
}

/// Encodes a response payload: what [`write_response`] sends after the
/// length prefix, in a `Vec` sized to it.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    response_parts(resp).payload()
}

/// Reads one request frame. A blob lands in a buffer sized from the
/// frame length and is checked against its trailer before it is
/// returned.
///
/// # Errors
///
/// [`WireError::Oversized`] for a prefix above `max_frame` (before any
/// allocation), [`WireError::Truncated`] for a stream that ends
/// mid-frame or a field that overruns its frame, [`WireError::Io`] for
/// other transport failures, and the other structured [`WireError`]s
/// for malformed fields; never panics.
pub fn read_request(r: &mut impl Read, max_frame: usize) -> Result<Request, WireError> {
    read_message(r, max_frame, parse_request)?
}

/// Reads one response frame, like [`read_request`].
///
/// # Errors
///
/// As [`read_request`].
pub fn read_response(r: &mut impl Read, max_frame: usize) -> Result<Response, WireError> {
    read_message(r, max_frame, parse_response)?
}

/// Decodes a request payload (no length prefix).
///
/// # Errors
///
/// Structured [`WireError`]s for every malformed input; never panics.
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    read_payload(&mut &payload[..], payload.len(), parse_request)?
}

/// Decodes a response payload (no length prefix).
///
/// # Errors
///
/// Structured [`WireError`]s for every malformed input; never panics.
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    read_payload(&mut &payload[..], payload.len(), parse_response)?
}

/// Reads one frame and parses its payload with `parse`. The outer error
/// is the stream failing, after which nothing can be answered on it;
/// the inner one is a frame that arrived malformed. Every inner error
/// but [`WireError::Truncated`] and [`WireError::Oversized`] has
/// consumed exactly its frame, so the stream is at the next frame.
pub(crate) fn read_message<R: Read, T>(
    r: &mut R,
    max_frame: usize,
    parse: impl FnOnce(&mut Fields<'_, R>) -> Result<T, WireError>,
) -> io::Result<Result<T, WireError>> {
    let mut prefix = [0u8; 4];
    r.read_exact(&mut prefix)?;
    let len = u32::from_le_bytes(prefix) as usize;
    if len > max_frame {
        return Ok(Err(WireError::Oversized { len: len as u64, max: max_frame }));
    }
    read_payload(r, len, parse)
}

fn read_payload<R: Read, T>(
    r: &mut R,
    len: usize,
    parse: impl FnOnce(&mut Fields<'_, R>) -> Result<T, WireError>,
) -> io::Result<Result<T, WireError>> {
    let mut fields = Fields { r, left: len, failed: None };
    let parsed = parse(&mut fields);
    if let Some(e) = fields.failed {
        return Err(e);
    }
    match parsed {
        // Leftover bytes: the frame does not say what its tag claims.
        Ok(_) if fields.left > 0 => Ok(Err(WireError::Truncated)),
        Err(e) if e != WireError::Truncated => {
            // An op-level error: skip to the next frame to stay in sync.
            let left = fields.left as u64;
            if io::copy(&mut fields.r.take(left), &mut io::sink())? < left {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            Ok(Err(e))
        }
        parsed => Ok(parsed),
    }
}

/// The fields of one payload, read from a stream under the byte budget
/// its length prefix announced.
pub(crate) struct Fields<'r, R> {
    r: &'r mut R,
    left: usize,
    /// The stream itself failed; `read_payload` reports this instead of
    /// the error the parse returned.
    failed: Option<io::Error>,
}

impl<R: Read> Fields<'_, R> {
    /// Takes `n` bytes of the budget, or fails before any is read.
    fn claim(&mut self, n: usize) -> Result<(), WireError> {
        self.left = self.left.checked_sub(n).ok_or(WireError::Truncated)?;
        Ok(())
    }

    fn fail(&mut self, e: io::Error) -> WireError {
        self.failed = Some(e);
        WireError::Truncated
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        self.claim(N)?;
        let mut out = [0u8; N];
        self.r.read_exact(&mut out).map_err(|e| self.fail(e))?;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.array::<1>()?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// `n` bytes into a buffer of exactly `n`, the one the caller keeps.
    fn bytes(&mut self, n: usize) -> Result<Vec<u8>, WireError> {
        self.claim(n)?;
        let mut out = Vec::with_capacity(n);
        let read = Read::take(&mut *self.r, n as u64).read_to_end(&mut out);
        match read {
            Ok(got) if got == n => Ok(out),
            Ok(_) => Err(self.fail(io::ErrorKind::UnexpectedEof.into())),
            Err(e) => Err(self.fail(e)),
        }
    }

    /// A length-prefixed UTF-8 key; the length is checked against
    /// [`MAX_KEY`] before any key byte is read.
    fn key(&mut self) -> Result<String, WireError> {
        let len = usize::from(self.u16()?);
        if len > MAX_KEY {
            return Err(WireError::BadKey);
        }
        String::from_utf8(self.bytes(len)?).map_err(|_| WireError::BadKey)
    }

    /// The rest of the frame as a blob and its CRC trailer, checked
    /// before the blob is returned.
    fn crc_blob(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.left.checked_sub(4).ok_or(WireError::Truncated)?;
        let blob = self.bytes(len)?;
        if crc32(&blob) != u32::from_le_bytes(self.array()?) {
            return Err(WireError::CrcMismatch);
        }
        Ok(blob)
    }

    /// A `u32` count, then that many items. A hostile count cannot
    /// reserve more memory than the frame has bytes left.
    fn list<T>(
        &mut self,
        item: fn(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let count = self.u32()? as usize;
        let mut items = Vec::with_capacity(count.min(self.left / size_of::<T>().max(1)));
        for _ in 0..count {
            items.push(item(self)?);
        }
        Ok(items)
    }

    fn cluster_error(&mut self) -> Result<ClusterError, WireError> {
        Ok(match self.u8()? {
            ERR_NODE_DOWN => ClusterError::NodeDown { node: self.u32()? as usize },
            ERR_NO_SUCH_NODE => ClusterError::NoSuchNode { node: self.u32()? as usize },
            ERR_NO_SUCH_BLOB => ClusterError::NoSuchBlob { key: self.key()? },
            ERR_OUT_OF_MEMORY => ClusterError::OutOfMemory {
                node: self.u32()? as usize,
                requested: self.u64()?,
                available: self.u64()?,
            },
            ERR_TRANSPORT => ClusterError::Transport { detail: self.key()? },
            other => return Err(WireError::UnknownStatus(other)),
        })
    }
}

pub(crate) fn parse_request<R: Read>(f: &mut Fields<'_, R>) -> Result<Request, WireError> {
    Ok(match f.u8()? {
        OP_PUT_LOCAL => Request::PutLocal { node: f.u32()?, key: f.key()?, blob: f.crc_blob()? },
        OP_GET_LOCAL => Request::GetLocal { node: f.u32()?, key: f.key()? },
        OP_DELETE_LOCAL => Request::DeleteLocal { node: f.u32()?, key: f.key()? },
        OP_PUT_REMOTE => Request::PutRemote { key: f.key()?, blob: f.crc_blob()? },
        OP_GET_REMOTE => Request::GetRemote { key: f.key()? },
        OP_ALIVE => Request::Alive { node: f.u32()? },
        OP_NODES => Request::Nodes,
        OP_LIST_KEYS => Request::ListKeys { node: f.u32()? },
        OP_FAIL_NODE => Request::FailNode { node: f.u32()? },
        OP_REPLACE_NODE => Request::ReplaceNode { node: f.u32()? },
        OP_JOIN => Request::Join { node: f.u32()? },
        OP_LEAVE => Request::Leave { node: f.u32()? },
        OP_GET_PLACEMENT => Request::GetPlacement,
        OP_PING => Request::Ping,
        other => return Err(WireError::UnknownOp(other)),
    })
}

fn parse_response<R: Read>(f: &mut Fields<'_, R>) -> Result<Response, WireError> {
    Ok(match f.u8()? {
        ST_OK => Response::Ok,
        ST_BLOB => Response::Blob(f.crc_blob()?),
        ST_NOT_FOUND => Response::NotFound,
        ST_BOOL => Response::Bool(f.u8()? != 0),
        ST_COUNT => Response::Count(f.u32()?),
        ST_KEYS => Response::Keys(f.list(Fields::key)?),
        ST_PLACEMENT => Response::Placement {
            epoch: f.u64()?,
            group_size: f.u32()?,
            data_nodes: f.list(Fields::u32)?,
            parity_nodes: f.list(Fields::u32)?,
        },
        ST_ERR => Response::Err(f.cluster_error()?),
        other => return Err(WireError::UnknownStatus(other)),
    })
}

/// One message laid out for the wire: its fixed fields, and for a blob
/// message the blob — borrowed, never copied — and its CRC trailer.
struct Parts<'a> {
    head: Vec<u8>,
    blob: &'a [u8],
    crc: Option<[u8; 4]>,
}

impl<'a> Parts<'a> {
    fn new(tag: u8) -> Self {
        // Room for a tag, a node and an engine key without regrowing.
        let mut head = Vec::with_capacity(64);
        head.push(tag);
        Self { head, blob: &[], crc: None }
    }

    fn u8(mut self, v: u8) -> Self {
        self.head.push(v);
        self
    }

    fn u32(mut self, v: u32) -> Self {
        self.head.extend_from_slice(&v.to_le_bytes());
        self
    }

    fn u64(mut self, v: u64) -> Self {
        self.head.extend_from_slice(&v.to_le_bytes());
        self
    }

    fn key(mut self, key: &str) -> Self {
        debug_assert!(key.len() <= MAX_KEY, "callers build keys, not attackers");
        let len = key.len().min(u16::MAX as usize);
        self.head.extend_from_slice(&(len as u16).to_le_bytes());
        self.head.extend_from_slice(&key.as_bytes()[..len]);
        self
    }

    fn list<T>(self, items: &[T], item: fn(Self, &T) -> Self) -> Self {
        let count = items.len().min(u32::MAX as usize) as u32;
        items.iter().fold(self.u32(count), item)
    }

    /// Ends the message with `blob` and its trailer.
    fn blob(mut self, blob: &'a [u8]) -> Self {
        self.blob = blob;
        self.crc = Some(crc32(blob).to_le_bytes());
        self
    }

    fn cluster_error(self, e: &ClusterError) -> Self {
        match e {
            ClusterError::NodeDown { node } => self.u8(ERR_NODE_DOWN).u32(*node as u32),
            ClusterError::NoSuchNode { node } => self.u8(ERR_NO_SUCH_NODE).u32(*node as u32),
            ClusterError::NoSuchBlob { key } => self.u8(ERR_NO_SUCH_BLOB).key(key),
            ClusterError::OutOfMemory { node, requested, available } => {
                self.u8(ERR_OUT_OF_MEMORY).u32(*node as u32).u64(*requested).u64(*available)
            }
            ClusterError::Transport { detail } => {
                self.u8(ERR_TRANSPORT).key(&detail.chars().take(512).collect::<String>())
            }
            // `ClusterError` is non_exhaustive: degrade unknown future
            // variants to a transport error carrying their Display text.
            other => {
                self.u8(ERR_TRANSPORT).key(&other.to_string().chars().take(512).collect::<String>())
            }
        }
    }

    fn slices(&self) -> [IoSlice<'_>; 3] {
        let crc = self.crc.as_ref().map_or(&[][..], |crc| &crc[..]);
        [IoSlice::new(&self.head), IoSlice::new(self.blob), IoSlice::new(crc)]
    }

    fn len(&self) -> usize {
        self.slices().iter().map(|slice| slice.len()).sum()
    }

    fn payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len());
        for slice in self.slices() {
            out.extend_from_slice(&slice);
        }
        out
    }

    /// The length prefix and the payload in one vectored write loop: a
    /// small frame is one `writev`, and a blob leaves from its own buffer.
    fn write_frame(&self, w: &mut impl Write) -> Result<(), WireError> {
        let len = self.len();
        let prefix = u32::try_from(len)
            .map_err(|_| WireError::Oversized { len: len as u64, max: u32::MAX as usize })?
            .to_le_bytes();
        let [head, blob, crc] = self.slices();
        let mut slices = [IoSlice::new(&prefix), head, blob, crc];
        let mut unsent = &mut slices[..];
        while !unsent.is_empty() {
            match w.write_vectored(unsent) {
                Ok(0) => return Err(io::Error::from(io::ErrorKind::WriteZero).into()),
                Ok(n) => IoSlice::advance_slices(&mut unsent, n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        w.flush()?;
        Ok(())
    }
}

fn request_parts(req: &Request) -> Parts<'_> {
    match req {
        Request::PutLocal { node, key, blob } => {
            Parts::new(OP_PUT_LOCAL).u32(*node).key(key).blob(blob)
        }
        Request::GetLocal { node, key } => Parts::new(OP_GET_LOCAL).u32(*node).key(key),
        Request::DeleteLocal { node, key } => Parts::new(OP_DELETE_LOCAL).u32(*node).key(key),
        Request::PutRemote { key, blob } => Parts::new(OP_PUT_REMOTE).key(key).blob(blob),
        Request::GetRemote { key } => Parts::new(OP_GET_REMOTE).key(key),
        Request::Alive { node } => Parts::new(OP_ALIVE).u32(*node),
        Request::Nodes => Parts::new(OP_NODES),
        Request::ListKeys { node } => Parts::new(OP_LIST_KEYS).u32(*node),
        Request::FailNode { node } => Parts::new(OP_FAIL_NODE).u32(*node),
        Request::ReplaceNode { node } => Parts::new(OP_REPLACE_NODE).u32(*node),
        Request::Join { node } => Parts::new(OP_JOIN).u32(*node),
        Request::Leave { node } => Parts::new(OP_LEAVE).u32(*node),
        Request::GetPlacement => Parts::new(OP_GET_PLACEMENT),
        Request::Ping => Parts::new(OP_PING),
    }
}

fn response_parts(resp: &Response) -> Parts<'_> {
    match resp {
        Response::Ok => Parts::new(ST_OK),
        Response::Blob(blob) => Parts::new(ST_BLOB).blob(blob),
        Response::NotFound => Parts::new(ST_NOT_FOUND),
        Response::Bool(b) => Parts::new(ST_BOOL).u8(u8::from(*b)),
        Response::Count(n) => Parts::new(ST_COUNT).u32(*n),
        Response::Keys(keys) => Parts::new(ST_KEYS).list(keys, |p, key| p.key(key)),
        Response::Placement { epoch, data_nodes, parity_nodes, group_size } => {
            Parts::new(ST_PLACEMENT)
                .u64(*epoch)
                .u32(*group_size)
                .list(data_nodes, |p, node| p.u32(*node))
                .list(parity_nodes, |p, node| p.u32(*node))
        }
        Response::Err(e) => Parts::new(ST_ERR).cluster_error(e),
    }
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
    fn frames_round_trip_and_are_prefixed_payloads() {
        let req = Request::PutLocal { node: 1, key: "k".into(), blob: b"hello".to_vec() };
        let mut frame = Vec::new();
        write_request(&mut frame, &req).unwrap();
        let payload = encode_request(&req);
        assert_eq!(frame[..4], (payload.len() as u32).to_le_bytes());
        assert_eq!(frame[4..], payload[..]);
        assert_eq!(read_request(&mut &frame[..], MAX_FRAME).unwrap(), req);
    }

    #[test]
    fn oversized_prefix_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut r = &buf[..];
        assert!(matches!(read_request(&mut r, 1024), Err(WireError::Oversized { .. })));
    }

    #[test]
    fn truncated_frames_are_truncated_errors() {
        let mut full = Vec::new();
        write_request(&mut full, &Request::GetLocal { node: 1, key: "key".into() }).unwrap();
        for cut in 0..full.len() {
            let mut r = &full[..cut];
            assert_eq!(read_request(&mut r, MAX_FRAME), Err(WireError::Truncated), "cut at {cut}");
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

    /// An op-level error leaves the stream at the next frame; a framing
    /// error does not promise to.
    #[test]
    fn op_level_errors_consume_exactly_their_frame() {
        let mut stream = Vec::new();
        for payload in [vec![0x55; 9], vec![OP_GET_REMOTE, 0xFF, 0xFF, b'x']] {
            stream.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            stream.extend_from_slice(&payload);
        }
        write_request(&mut stream, &Request::Ping).unwrap();
        let mut r = &stream[..];
        assert_eq!(read_request(&mut r, MAX_FRAME), Err(WireError::UnknownOp(0x55)));
        assert_eq!(read_request(&mut r, MAX_FRAME), Err(WireError::BadKey));
        assert_eq!(read_request(&mut r, MAX_FRAME), Ok(Request::Ping));
        assert!(r.is_empty());
    }
}
