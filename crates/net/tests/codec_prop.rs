//! Hostile-input property suite for the wire codec.
//!
//! The read path faces bytes from an arbitrary peer, so the properties
//! are absolute: **no panic, no allocation past the frame cap** on any
//! input — garbage reads as a structured [`WireError`] — and every
//! legitimately written frame reads back to an equal value, however
//! the stream splits it. The bytes on the wire are pinned, so wire
//! compatibility across versions is a test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Cursor, Read};

use ecc_cluster::ClusterError;
use ecc_net::codec::{
    decode_request, decode_response, encode_request, encode_response, read_request, read_response,
    write_request, write_response, Request, Response, WireError,
};
use ecc_net::MAX_FRAME;
use proptest::prelude::*;

/// Forwards to `System`, noting the largest single allocation the
/// current thread asks for while [`largest_allocation`] is watching.
struct Tracking;

thread_local! {
    static LARGEST: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|largest| {
        if let Some(seen) = largest.get() {
            largest.set(Some(seen.max(size)));
        }
    });
}

// SAFETY: every call is forwarded unchanged to `System`; `note` only
// touches a const-initialised thread-local `Cell`, which never
// allocates and has no destructor.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with this layout; the caller
        // upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Tracking = Tracking;

/// Runs `f` and returns its result with the largest single allocation
/// it made on this thread.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|largest| largest.set(Some(0)));
    let out = f();
    (out, LARGEST.with(Cell::take).unwrap_or(0))
}

/// A reader that hands out its bytes a few at a time, cycling through
/// `steps` (each 1–7), the way a socket may.
struct Dribble<'a> {
    bytes: &'a [u8],
    steps: Vec<usize>,
    turn: usize,
}

impl Read for Dribble<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let step = self.steps[self.turn % self.steps.len()];
        self.turn += 1;
        let n = step.min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

fn request(op: usize, node: u32, key: String, blob: Vec<u8>) -> Request {
    match op {
        0 => Request::PutLocal { node, key, blob },
        1 => Request::GetLocal { node, key },
        2 => Request::DeleteLocal { node, key },
        3 => Request::PutRemote { key, blob },
        4 => Request::GetRemote { key },
        5 => Request::Alive { node },
        6 => Request::Nodes,
        7 => Request::ListKeys { node },
        8 => Request::FailNode { node },
        9 => Request::ReplaceNode { node },
        10 => Request::Join { node },
        11 => Request::Leave { node },
        12 => Request::GetPlacement,
        _ => Request::Ping,
    }
}

fn response(kind: usize, n: u32, key: String, blob: Vec<u8>) -> Response {
    let nodes: Vec<u32> = blob.iter().map(|&b| n ^ u32::from(b)).collect();
    match kind {
        0 => Response::Ok,
        1 => Response::Blob(blob),
        2 => Response::NotFound,
        3 => Response::Bool(n % 2 == 1),
        4 => Response::Count(n),
        5 => Response::Keys(vec![key.clone(), String::new(), key]),
        6 => Response::Placement {
            epoch: u64::from(n) << 20,
            data_nodes: nodes.clone(),
            parity_nodes: nodes.into_iter().rev().collect(),
            group_size: n,
        },
        7 => Response::Err(ClusterError::NodeDown { node: n as usize }),
        8 => Response::Err(ClusterError::NoSuchNode { node: n as usize }),
        9 => Response::Err(ClusterError::NoSuchBlob { key }),
        10 => Response::Err(ClusterError::OutOfMemory {
            node: n as usize,
            requested: u64::from(n) << 32,
            available: blob.len() as u64,
        }),
        _ => Response::Err(ClusterError::Transport { detail: key }),
    }
}

fn letters(bytes: Vec<u8>) -> String {
    bytes.into_iter().map(|b| char::from(b'a' + b % 26)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary payload bytes never panic the request decoder; they
    /// either parse (the fuzzer stumbled onto a valid encoding) or
    /// yield a structured error.
    #[test]
    fn garbage_never_panics_request_decode(
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let _ = decode_request(&payload);
    }

    /// Same for the response decoder.
    #[test]
    fn garbage_never_panics_response_decode(
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let _ = decode_response(&payload);
    }

    /// Arbitrary *streams* never panic the frame readers, and a hostile
    /// length prefix, count or key length can never make them allocate
    /// past the cap: no single allocation while reading exceeds it. Half
    /// the streams open with an honest prefix and a known tag, so the
    /// garbage reaches the fields behind them.
    #[test]
    fn garbage_streams_never_panic_or_allocate_past_the_cap(
        honest in any::<bool>(),
        tag in prop_oneof![1u8..15, 0x80u8..0x87, Just(0x8Fu8), any::<u8>()],
        body in proptest::collection::vec(any::<u8>(), 0..320),
        cap in 0usize..300,
    ) {
        let mut stream = Vec::new();
        if honest {
            stream.extend((body.len() as u32 + 1).to_le_bytes());
            stream.push(tag);
        }
        stream.extend(&body);
        let (_, largest) = largest_allocation(|| read_request(&mut Cursor::new(&stream), cap));
        prop_assert!(largest <= cap, "request read allocated {largest} under cap {cap}");
        let (_, largest) = largest_allocation(|| read_response(&mut Cursor::new(&stream), cap));
        prop_assert!(largest <= cap, "response read allocated {largest} under cap {cap}");
    }

    /// Every request variant survives write → read unchanged, through a
    /// reader that returns 1–7 bytes per call exactly as from the slice.
    #[test]
    fn requests_round_trip(
        op in 0usize..14,
        node in any::<u32>(),
        key in proptest::collection::vec(any::<u8>(), 0..40),
        blob in proptest::collection::vec(any::<u8>(), 0..200),
        steps in proptest::collection::vec(1usize..8, 1..16),
    ) {
        let req = request(op, node, letters(key), blob);
        prop_assert_eq!(decode_request(&encode_request(&req)).unwrap(), req.clone());
        let mut frame = Vec::new();
        write_request(&mut frame, &req).unwrap();
        let mut split = Dribble { bytes: &frame, steps, turn: 0 };
        prop_assert_eq!(read_request(&mut split, MAX_FRAME).unwrap(), req);
        prop_assert!(split.bytes.is_empty());
    }

    /// Every response variant, structured cluster errors included,
    /// survives write → read unchanged through the same split reads.
    #[test]
    fn responses_round_trip(
        kind in 0usize..12,
        n in any::<u32>(),
        key in proptest::collection::vec(any::<u8>(), 0..40),
        blob in proptest::collection::vec(any::<u8>(), 0..200),
        steps in proptest::collection::vec(1usize..8, 1..16),
    ) {
        let resp = response(kind, n, letters(key), blob);
        prop_assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp.clone());
        let mut frame = Vec::new();
        write_response(&mut frame, &resp).unwrap();
        let mut split = Dribble { bytes: &frame, steps, turn: 0 };
        prop_assert_eq!(read_response(&mut split, MAX_FRAME).unwrap(), resp);
        prop_assert!(split.bytes.is_empty());
    }

    /// A blob with any single bit flipped anywhere in its CRC-framed
    /// body must decode to CrcMismatch — never to a different blob.
    #[test]
    fn bit_flips_cannot_forge_blobs(
        blob in proptest::collection::vec(any::<u8>(), 1..64),
        flip_pos in any::<u16>(),
        flip_bit in 0u8..8,
    ) {
        let mut encoded = encode_response(&Response::Blob(blob.clone()));
        // Flip within the blob body + CRC trailer (skip the status tag:
        // flipping that legitimately changes the response kind).
        let pos = 1 + (flip_pos as usize) % (encoded.len() - 1);
        encoded[pos] ^= 1 << flip_bit;
        match decode_response(&encoded) {
            Ok(Response::Blob(decoded)) => prop_assert_eq!(decoded, blob),
            Ok(other) => prop_assert!(false, "forged {other:?}"),
            Err(WireError::CrcMismatch | WireError::Truncated) => {}
            Err(other) => prop_assert!(false, "unexpected error {other:?}"),
        }
    }

    /// The readers cap allocation strictly: a prefix advertising more
    /// than the cap is rejected even when the cap is MAX_FRAME.
    #[test]
    fn oversized_prefixes_rejected_at_full_cap(extra in 1u64..1_000_000) {
        let len = (MAX_FRAME as u64 + extra).min(u32::MAX as u64) as u32;
        let bytes = len.to_le_bytes();
        match read_request(&mut Cursor::new(&bytes[..]), MAX_FRAME) {
            Err(WireError::Oversized { len: l, max }) => {
                prop_assert_eq!(l, u64::from(len));
                prop_assert_eq!(max, MAX_FRAME);
            }
            other => prop_assert!(false, "expected Oversized, got {other:?}"),
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The frames `write_*` puts on the wire, one per request and response
/// variant, pinned byte for byte: `len ‖ payload` as the codec wrote it
/// before it streamed.
#[test]
fn wire_bytes_are_pinned() {
    let requests = [
        (
            Request::PutLocal {
                node: 3,
                key: "ecc/v1/chunk".into(),
                blob: vec![0xA5, 0x5A, 0, 0xFF],
            },
            "1b00000001030000000c006563632f76312f6368756e6ba55a00ffc072d817",
        ),
        (
            Request::GetLocal { node: 1, key: "ecc/v1/hdr".into() },
            "1100000002010000000a006563632f76312f686472",
        ),
        (Request::DeleteLocal { node: 2, key: "k".into() }, "08000000030200000001006b"),
        (
            Request::PutRemote { key: "remote/x".into(), blob: vec![1, 2, 3] },
            "1200000004080072656d6f74652f780102031d80bc55",
        ),
        (Request::GetRemote { key: "remote/x".into() }, "0b00000005080072656d6f74652f78"),
        (Request::Alive { node: 9 }, "050000000609000000"),
        (Request::Nodes, "0100000007"),
        (Request::ListKeys { node: 2 }, "050000000802000000"),
        (Request::FailNode { node: 1 }, "050000000901000000"),
        (Request::ReplaceNode { node: 1 }, "050000000a01000000"),
        (Request::Join { node: 3 }, "050000000c03000000"),
        (Request::Leave { node: 0 }, "050000000d00000000"),
        (Request::GetPlacement, "010000000e"),
        (Request::Ping, "010000000b"),
    ];
    for (req, golden) in requests {
        let mut frame = Vec::new();
        write_request(&mut frame, &req).unwrap();
        assert_eq!(hex(&frame), golden, "{req:?}");
    }
    let responses = [
        (Response::Ok, "0100000080"),
        (Response::Blob(vec![0xDE, 0xAD, 0xBE, 0xEF, 0]), "0a00000081deadbeef00c4cbc059"),
        (Response::NotFound, "0100000082"),
        (Response::Bool(true), "020000008301"),
        (Response::Count(4), "050000008404000000"),
        (Response::Keys(vec!["a".into(), "b/c".into()]), "0d00000085020000000100610300622f63"),
        (
            Response::Placement {
                epoch: 7,
                data_nodes: vec![0, 1],
                parity_nodes: vec![3, 2],
                group_size: 2,
            },
            "2500000086070000000000000002000000020000000000000001000000020000000300000002000000",
        ),
        (
            Response::Err(ClusterError::OutOfMemory { node: 1, requested: 1 << 40, available: 3 }),
            "160000008f030100000000000000000100000300000000000000",
        ),
    ];
    for (resp, golden) in responses {
        let mut frame = Vec::new();
        write_response(&mut frame, &resp).unwrap();
        assert_eq!(hex(&frame), golden, "{resp:?}");
    }
}
