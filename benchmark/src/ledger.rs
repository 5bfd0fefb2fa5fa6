//! The per-crate half of the layer ledger: each crate's public
//! functions timed from outside on the workload's own chunks. Every
//! GB/s figure is payload bytes over wall time.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use ecc_checkpoint::{checksum_frame, decompose, verify_checksum, Decomposition, Packer};
use ecc_cluster::{Cluster, DataPlane};
use ecc_erasure::{CodingPool, ScheduleKind};
use ecc_gf::kernel::active_kernel;
use ecc_gf::Split8;
use ecc_net::codec::{decode_request, encode_request};
use ecc_net::Request;
use eccheck::keys::chunk_key;
use eccheck::store::drain_version;

use crate::metrics::WorkloadSpec;
use crate::stats::median;
use crate::workload::{cluster_spec, memory_rig, tcp_rig, Rig, States, THREADS};

/// Metric name → value.
pub type Values = BTreeMap<String, f64>;

/// Median seconds `work` takes, repeated for `budget` and at least five
/// times; `prepare` makes each repetition's input and is not timed.
fn time_median<I, O>(
    budget: Duration,
    mut prepare: impl FnMut() -> I,
    mut work: impl FnMut(I) -> O,
) -> f64 {
    let mut samples = Vec::new();
    let begun = Instant::now();
    while samples.len() < 5 || begun.elapsed() < budget {
        let input = prepare();
        let t = Instant::now();
        let output = work(black_box(input));
        samples.push(t.elapsed().as_secs_f64());
        black_box(output);
    }
    median(&samples)
}

/// [`time_median`] of work that needs no per-repetition input.
fn time_of<O>(budget: Duration, mut work: impl FnMut() -> O) -> f64 {
    time_median(budget, || (), |()| work())
}

fn gbps(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / secs / 1e9
}

/// A blob too small for its bytes to matter: what a manifest or epoch
/// key costs.
const SMALL_BLOB: usize = 64;
/// Puts per timed batch of small blobs, so the clock reads are noise.
const SMALL_BATCH: usize = 64;

/// Times every crate on the save/restore path, `budget` per function.
pub fn layer_micros(spec: &'static WorkloadSpec, states: &States, budget: Duration) -> Values {
    let mut out = Values::new();
    let state_bytes = states.bytes as usize;

    // The workload's own chunks: what one save of state A stores.
    let mut rig = memory_rig(spec, None);
    rig.engine.save(&mut rig.plane, &states.a).expect("ledger save succeeds");
    let version = rig.engine.version();
    let placement = rig.engine.placement().clone();
    let fetch = |node: usize| {
        rig.plane.get_local(node, &chunk_key(version)).expect("saved chunk is present")
    };
    let data: Vec<Vec<u8>> = placement.data_nodes().iter().map(|&n| fetch(n)).collect();
    let parity: Vec<Vec<u8>> = placement.parity_nodes().iter().map(|&n| fetch(n)).collect();
    let chunk = &data[0];
    let chunk_len = chunk.len();
    let data_refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
    let data_bytes = chunk_len * spec.k;

    // gf: the kernel the encoder dispatches to.
    let kernel = active_kernel();
    let code = rig.engine.code();
    let table = Split8::new(code.gf(), 0x53).expect("coefficient is in GF(2^8)");
    let cached = &chunk[..chunk_len.min(64 << 10)];
    let mut dst = vec![0u8; chunk_len];
    let secs = time_of(budget, || kernel.mul_xor(&table, cached, &mut dst[..cached.len()]));
    out.insert("gf.mul_xor_gbps".into(), gbps(cached.len(), secs));
    let secs = time_of(budget, || kernel.mul_xor(&table, chunk, &mut dst));
    let mul_xor_stream = gbps(chunk_len, secs);
    out.insert("gf.mul_xor_stream_gbps".into(), mul_xor_stream);
    let secs = time_of(budget, || kernel.xor_chain(&mut dst, &data_refs, true));
    out.insert("gf.xor_chain_gbps".into(), gbps(data_bytes, secs));

    // erasure: serial code, pool, decode of m lost data chunks, delta.
    let pool = CodingPool::new(THREADS);
    let secs = time_of(budget, || code.encode(&data_refs).expect("encode"));
    out.insert("erasure.encode_gbps".into(), gbps(data_bytes, secs));
    let secs = time_of(budget, || pool.encode(code, &data_refs).expect("pool encode"));
    let pool_encode = gbps(data_bytes, secs);
    out.insert("erasure.pool_encode_gbps".into(), pool_encode);
    let survivors: Vec<Option<&[u8]>> = data
        .iter()
        .chain(&parity)
        .enumerate()
        .map(|(id, c)| (id >= spec.m).then_some(c.as_slice()))
        .collect();
    let secs = time_of(budget, || pool.decode(code, &survivors).expect("pool decode"));
    out.insert("erasure.pool_decode_gbps".into(), gbps(data_bytes, secs));
    let secs = time_of(budget, || code.parity_delta(0, chunk).expect("parity delta"));
    out.insert("erasure.parity_delta_gbps".into(), gbps(chunk_len, secs));
    out.insert("erasure.pool_frac_of_kernel".into(), pool_encode / mul_xor_stream);
    out.insert("erasure.xor_count".into(), code.schedule(ScheduleKind::Smart).xor_count() as f64);

    // checkpoint: decompose → pack on the way in, unpack → reassemble
    // on the way out, CRC framing on both.
    let packer = Packer::new(spec.packet_size).expect("workload packet size is valid");
    let secs = time_of(budget, || states.a.iter().map(decompose).collect::<Vec<_>>());
    out.insert("checkpoint.decompose_gbps".into(), gbps(state_bytes, secs));
    let decomposed: Vec<Decomposition> = states.a.iter().map(decompose).collect();
    let secs = time_of(budget, || {
        decomposed.iter().map(|d| packer.pack(d.tensor_data())).collect::<Vec<_>>()
    });
    out.insert("checkpoint.pack_gbps".into(), gbps(state_bytes, secs));
    let packed: Vec<_> = decomposed.iter().map(|d| packer.pack(d.tensor_data())).collect();
    let lens: Vec<Vec<usize>> =
        decomposed.iter().map(|d| d.tensor_data().iter().map(Vec::len).collect()).collect();
    let unpack_all = || -> Vec<Vec<Vec<u8>>> {
        packed
            .iter()
            .zip(&lens)
            .map(|((packets, extents), lens)| {
                packer.unpack(packets, extents, lens).expect("unpack")
            })
            .collect()
    };
    let secs = time_of(budget, &unpack_all);
    out.insert("checkpoint.unpack_gbps".into(), gbps(state_bytes, secs));
    let headers: Vec<Vec<u8>> = decomposed.iter().map(Decomposition::header_to_bytes).collect();
    let secs = time_median(budget, &unpack_all, |tensors| {
        headers
            .iter()
            .zip(tensors)
            .map(|(header, data)| {
                let mut d = Decomposition::from_header(header).expect("header parses");
                d.set_tensor_data(data).expect("tensor data fits its keys");
                d.reassemble().expect("reassembles")
            })
            .collect::<Vec<_>>()
    });
    out.insert("checkpoint.reassemble_gbps".into(), gbps(state_bytes, secs));
    let secs = time_of(budget, || checksum_frame(chunk));
    out.insert("checkpoint.crc_gbps".into(), gbps(chunk_len, secs));
    let frame = checksum_frame(chunk);
    let secs = time_of(budget, || verify_checksum(chunk, &frame));
    out.insert("checkpoint.verify_gbps".into(), gbps(chunk_len, secs));

    // cluster: the memory plane's stores and owned-copy reads.
    let mut cluster = Cluster::new(cluster_spec(spec));
    plane_micros(&mut cluster, "cluster", chunk, budget, &mut out);

    // core: the synchronous unit of the drain, on the saved version.
    let recorder = rig.engine.recorder().clone();
    let mut copied = 0;
    let secs = time_of(budget, || {
        let outcome = drain_version(&mut rig.plane, version, spec.world(), &recorder);
        copied = outcome.expect("saved version drains").bytes_copied as usize;
    });
    out.insert("core.store.drain_gbps".into(), gbps(copied, secs));

    // net: the codec alone, then the socket plane end to end.
    let put = |blob: Vec<u8>| Request::PutLocal { node: 0, key: chunk_key(version), blob };
    let secs = time_median(budget, || put(chunk.clone()), |req| encode_request(&req));
    out.insert("net.codec_encode_gbps".into(), gbps(chunk_len, secs));
    let payload = encode_request(&put(chunk.clone()));
    let secs = time_of(budget, || decode_request(&payload).expect("payload decodes"));
    out.insert("net.codec_decode_gbps".into(), gbps(chunk_len, secs));
    let mut tcp = tcp_rig(spec, None);
    plane_micros(&mut tcp.plane, "net", chunk, budget, &mut out);
    let secs = time_of(budget, || assert!(tcp.plane.inner().ping(), "server answers"));
    out.insert("net.ping_us".into(), secs * 1e6);

    // The same save on both planes, and with the engine's own tracer on:
    // each pair alternates so drift lands on both sides.
    let mut traced = memory_rig(spec, None);
    let _tracer = traced.engine.attach_tracer();
    out.insert(
        "net.tcp_over_mem_save".into(),
        save_ratio(&mut tcp, &mut memory_rig(spec, None), states, budget * 3),
    );
    out.insert(
        "trace.attach_overhead_frac".into(),
        save_ratio(&mut traced, &mut memory_rig(spec, None), states, budget * 3) - 1.0,
    );
    out
}

/// Median save time on `rig` over median save time on `base`, the two
/// saving the same states turn by turn for `budget`.
fn save_ratio<P: DataPlane, Q: DataPlane>(
    rig: &mut Rig<P>,
    base: &mut Rig<Q>,
    states: &States,
    budget: Duration,
) -> f64 {
    let (mut rig_s, mut base_s) = (Vec::new(), Vec::new());
    let begun = Instant::now();
    while rig_s.len() < 5 || begun.elapsed() < budget {
        let state = states.for_cycle(rig_s.len()).0;
        let t = Instant::now();
        base.engine.save(&mut base.plane, state).expect("baseline save");
        base_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        rig.engine.save(&mut rig.plane, state).expect("compared save");
        rig_s.push(t.elapsed().as_secs_f64());
    }
    median(&rig_s) / median(&base_s)
}

/// Chunk-sized put and get rates and the cost of one small put, on any
/// plane, reported under `<layer>.`.
fn plane_micros(
    plane: &mut impl DataPlane,
    layer: &str,
    chunk: &[u8],
    budget: Duration,
    out: &mut Values,
) {
    let secs = time_median(
        budget,
        || chunk.to_vec(),
        |blob| plane.put_local(0, "ledger.chunk", blob).expect("node 0 stores"),
    );
    out.insert(format!("{layer}.put_gbps"), gbps(chunk.len(), secs));
    let secs = time_of(budget, || plane.get_local(0, "ledger.chunk"));
    out.insert(format!("{layer}.get_gbps"), gbps(chunk.len(), secs));
    let secs = time_median(
        budget,
        || vec![vec![0xA5u8; SMALL_BLOB]; SMALL_BATCH],
        |blobs| {
            for blob in blobs {
                plane.put_local(0, "ledger.small", blob).expect("node 0 stores");
            }
        },
    );
    out.insert(format!("{layer}.small_put_us"), secs * 1e6 / SMALL_BATCH as f64);
}
