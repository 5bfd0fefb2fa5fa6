//! The benchmark's vocabulary: every workload and every metric, by name,
//! unit, direction and bound. `BENCHMARK.json` at the repo root repeats
//! these tables for the driver; the smoke test holds the two equal.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen;
    /// `None` for ledger metrics, which carry no bound.
    pub bound: Option<f64>,
}

fn def(name: impl Into<String>, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name: name.into(), unit, better, bound: None }
}

/// The operations a cycle is made of. `Drain` and `RestoreRemote` exist
/// only where a tier 1 is attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    Save,
    Drain,
    Delta,
    RestoreIntact,
    RestoreParity,
    RestoreData,
    RestoreRemote,
}

impl Op {
    pub const ALL: [Op; 7] = [
        Op::Save,
        Op::Drain,
        Op::Delta,
        Op::RestoreIntact,
        Op::RestoreParity,
        Op::RestoreData,
        Op::RestoreRemote,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Op::Save => "save",
            Op::Drain => "drain",
            Op::Delta => "delta",
            Op::RestoreIntact => "restore_intact",
            Op::RestoreParity => "restore_parity",
            Op::RestoreData => "restore_data",
            Op::RestoreRemote => "restore_remote",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// The five operations every workload runs, in cycle order. Their
/// timings are the end-to-end metrics.
pub const COMMON_OPS: [Op; 5] =
    [Op::Save, Op::Delta, Op::RestoreIntact, Op::RestoreParity, Op::RestoreData];

/// Operations whose plane calls the ledger splits out (`drain` runs on
/// the drainer's thread and has no op span of the client's).
pub const LEDGER_OPS: [Op; 6] =
    [Op::Save, Op::Delta, Op::RestoreIntact, Op::RestoreParity, Op::RestoreData, Op::RestoreRemote];

/// End-to-end metrics, measured with tracing off. Every one is defined
/// on every workload and is never zero.
pub fn end_to_end() -> Vec<MetricDef> {
    let bounded = |name: &str, unit: &'static str, better: Better, bound: f64| MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound: Some(bound),
    };
    let mut out = vec![bounded("setup_s", "s", Better::Lower, 0.25)];
    // Parallel phases run at one of two speeds, set by the host and
    // lasting tens of minutes: 0.20 is the tightest bound that tells a
    // change from the host (save_ms on mem_large differs by 13% between
    // the two).
    for op in COMMON_OPS {
        // A delta also flips, call by call, between a 40 ms and a 57 ms
        // mode with the scheduler, and a median moves with the share of
        // fast calls. The 75th percentile sits inside the slow mode.
        let name =
            if op == Op::Delta { "delta_p75_ms".into() } else { format!("{}_ms", op.name()) };
        out.push(bounded(&name, "ms", Better::Lower, 0.20));
    }
    out.push(bounded("cycle_mb_s", "MB/s", Better::Higher, 0.20));
    // Closed-form: they repeat exactly, so any growth is a change.
    out.push(bounded("save_traffic_ratio", "ratio", Better::Lower, 0.001));
    out.push(bounded("stored_bytes_per_state_byte", "ratio", Better::Lower, 0.001));
    out.push(bounded("peak_rss_mib", "MiB", Better::Lower, 0.25));
    out
}

/// The layer ledger, from the traced run: one group per crate on the
/// save/restore path.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut out = Vec::new();
    for name in ["gf.mul_xor_gbps", "gf.mul_xor_stream_gbps", "gf.xor_chain_gbps"] {
        out.push(def(name, "GB/s", Higher));
    }
    for name in [
        "erasure.encode_gbps",
        "erasure.pool_encode_gbps",
        "erasure.pool_decode_gbps",
        "erasure.parity_delta_gbps",
    ] {
        out.push(def(name, "GB/s", Higher));
    }
    out.push(def("erasure.pool_frac_of_kernel", "ratio", Higher));
    out.push(def("erasure.xor_count", "count", Lower));
    for name in ["decompose", "pack", "unpack", "reassemble", "crc", "verify"] {
        out.push(def(format!("checkpoint.{name}_gbps"), "GB/s", Higher));
    }
    out.push(def("cluster.put_gbps", "GB/s", Higher));
    out.push(def("cluster.get_gbps", "GB/s", Higher));
    out.push(def("cluster.small_put_us", "us", Lower));
    for op in LEDGER_OPS {
        let op = op.name();
        out.push(def(format!("core.{op}.plane_ms"), "ms", Lower));
        out.push(def(format!("core.{op}.self_ms"), "ms", Lower));
        for what in ["put_calls", "get_calls"] {
            out.push(def(format!("core.{op}.{what}"), "count", Lower));
        }
        for what in ["put_bytes", "get_bytes"] {
            out.push(def(format!("core.{op}.{what}"), "bytes", Lower));
        }
    }
    out.push(def("core.save.gbps", "GB/s", Higher));
    out.push(def("core.save.frac_of_pool", "ratio", Higher));
    for phase in ["decompose", "pack", "build_chunks", "encode", "place"] {
        out.push(def(format!("core.save.phase.{phase}_ms"), "ms", Lower));
    }
    for stage in ["encode", "reduce", "transfer"] {
        out.push(def(format!("core.pipeline.{stage}_occupancy"), "ratio", Higher));
    }
    // Scheduling accidents, not counts that repeat: their own unit keeps
    // them out of the same-seed equality gate.
    out.push(def("core.pipeline.ring_waits", "waits", Lower));
    out.push(def("core.pipeline.window_waits", "waits", Lower));
    out.push(def("core.delta.traffic_ratio", "ratio", Lower));
    out.push(def("core.store.drain_ms", "ms", Lower));
    out.push(def("core.store.drain_gbps", "GB/s", Higher));
    out.push(def("core.store.tier1_bytes_per_state_byte", "ratio", Lower));
    out.push(def("core.store.gc_deletes_per_save", "count", Lower));
    out.push(def("net.codec_encode_gbps", "GB/s", Higher));
    out.push(def("net.codec_decode_gbps", "GB/s", Higher));
    out.push(def("net.put_gbps", "GB/s", Higher));
    out.push(def("net.get_gbps", "GB/s", Higher));
    out.push(def("net.small_put_us", "us", Lower));
    out.push(def("net.ping_us", "us", Lower));
    out.push(def("net.requests_per_save", "count", Lower));
    out.push(def("net.tcp_over_mem_save", "ratio", Lower));
    out.push(def("bench.trace_overhead_frac", "ratio", Lower));
    out.push(def("trace.attach_overhead_frac", "ratio", Lower));
    out
}

/// Which data plane a workload saves through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaneKind {
    /// `ecc_cluster::Cluster`, in process.
    Memory,
    /// `ecc_net::RemotePlane` against a loopback `CheckpointServer`.
    Tcp,
    /// `SharedPlane<Cluster>` with a `Drainer` copying to tier 1.
    Tiered,
}

/// One named workload: plane, geometry and the model whose Megatron
/// shards make up the state.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    pub plane: PlaneKind,
    pub nodes: usize,
    pub gpus_per_node: usize,
    pub k: usize,
    pub m: usize,
    pub packet_size: usize,
    /// Mean bytes of tensor data per worker the model below is sized for.
    pub target_shard_bytes: usize,
    /// `(tp, pp, dp)` of the parallelism grid; their product is the
    /// world size.
    pub grid: (usize, usize, usize),
    /// `(hidden, heads, layers, vocab, seq_len)` of the GPT-2 shaped model.
    pub model: (usize, usize, usize, usize, usize),
    /// Tier-0 versions kept by retention GC.
    pub retain_last: usize,
    /// Rebuild plane, drainer and engine every this many cycles
    /// (untimed): tier 1 is never collected and would grow without end.
    pub rebuild_every: Option<usize>,
}

impl WorkloadSpec {
    pub fn world(&self) -> usize {
        self.nodes * self.gpus_per_node
    }

    /// The cycle's operations, in order. A tiered cycle drains right
    /// after the save and restores from tier 1 last; the delta comes
    /// after the drain, so tier 1 keeps the full save's bytes.
    pub fn ops(&self) -> &'static [Op] {
        match self.plane {
            PlaneKind::Memory | PlaneKind::Tcp => &COMMON_OPS,
            PlaneKind::Tiered => &[
                Op::Save,
                Op::Drain,
                Op::Delta,
                Op::RestoreIntact,
                Op::RestoreParity,
                Op::RestoreData,
                Op::RestoreRemote,
            ],
        }
    }
}

const LARGE_MODEL: (usize, usize, usize, usize, usize) = (48, 4, 10, 128, 16);

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "mem_small",
        why: "64 KiB shards on the memory plane: per-call fixed cost does the work, per-byte layers almost none",
        plane: PlaneKind::Memory,
        nodes: 4,
        gpus_per_node: 2,
        k: 2,
        m: 2,
        packet_size: 4 << 10,
        target_shard_bytes: 64 << 10,
        grid: (4, 2, 1),
        model: (16, 4, 10, 64, 16),
        retain_last: 1,
        rebuild_every: None,
    },
    WorkloadSpec {
        name: "mem_large",
        why: "512 KiB shards on the memory plane: pack, CRC, encode and plane copies do the work, net none",
        plane: PlaneKind::Memory,
        nodes: 4,
        gpus_per_node: 2,
        k: 2,
        m: 2,
        packet_size: 32 << 10,
        target_shard_bytes: 512 << 10,
        grid: (4, 2, 1),
        model: LARGE_MODEL,
        retain_last: 1,
        rebuild_every: None,
    },
    WorkloadSpec {
        name: "tcp_large",
        why: "mem_large's bytes over RemotePlane to a loopback server: the difference is the net layer",
        plane: PlaneKind::Tcp,
        nodes: 4,
        gpus_per_node: 2,
        k: 2,
        m: 2,
        packet_size: 32 << 10,
        target_shard_bytes: 512 << 10,
        grid: (4, 2, 1),
        model: LARGE_MODEL,
        retain_last: 1,
        rebuild_every: None,
    },
    WorkloadSpec {
        name: "tiered_wide",
        why: "k4 m2 over SharedPlane with an async drain and retention GC: wide decode, tier-1 copy and remote restore",
        plane: PlaneKind::Tiered,
        nodes: 6,
        gpus_per_node: 2,
        k: 4,
        m: 2,
        packet_size: 32 << 10,
        target_shard_bytes: 512 << 10,
        grid: (4, 3, 1),
        model: (48, 4, 15, 128, 16),
        retain_last: 2,
        rebuild_every: Some(8),
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How the driver starts the benchmark; it appends `--workload`,
/// `--seed`, `--seconds` and `--trace`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// The directory that holds the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["benchmark"];

/// Seconds one run measures for.
pub const RUN_SECONDS: u64 = 25;

/// `BENCHMARK.json` as these tables define it (`eccbench manifest`
/// prints it; the smoke test holds the file at the repo root to it).
pub fn manifest_json() -> String {
    let quoted =
        |items: &[&str]| items.iter().map(|s| format!("\"{s}\"")).collect::<Vec<_>>().join(", ");
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let metric = |d: &MetricDef| {
        let bound = d.bound.map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            d.name,
            d.unit,
            d.better.as_str()
        )
    };
    let list = |defs: Vec<MetricDef>| defs.iter().map(metric).collect::<Vec<_>>().join(",\n");
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted(&COMMAND),
        quoted(&PATHS),
        workloads.join(",\n"),
        list(end_to_end()),
        list(per_layer()),
    )
}
