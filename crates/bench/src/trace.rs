//! `--trace <path>` support for the figure binaries.
//!
//! Every figure binary accepts `--trace <path>` (or `--trace=<path>`)
//! and, when given, writes a Chrome Trace Event JSON file of the toy
//! real-byte engine run — loadable in Perfetto or `chrome://tracing`,
//! with the save pipeline, pipelined-executor coding workers and P2P
//! flow arrows on one timeline. [`sim_save_trace_json`] renders the *timing model's*
//! save prediction instead, with explicit simulated timestamps, so its
//! output is byte-identical across runs.

use std::error::Error;
use std::path::PathBuf;

use ecc_cluster::{Cluster, ClusterSpec};
use ecc_dnn::{
    build_worker_state_dict, GpuSpec, ModelConfig, ParallelismSpec, StateDictSpec,
    TrainingTimeModel,
};
use ecc_telemetry::Recorder;
use ecc_trace::Tracer;
use eccheck::timing::{trace_save_timing, TimingConstants};
use eccheck::{EcCheck, EcCheckConfig};

/// The value following `flag` (or glued on with `=`) in the process
/// arguments, if present.
pub fn arg_value(flag: &str) -> Option<String> {
    arg_value_in(flag, std::env::args().skip(1))
}

fn arg_value_in(flag: &str, args: impl IntoIterator<Item = String>) -> Option<String> {
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg == flag {
            return args.next();
        }
        if let Some(value) = arg.strip_prefix(flag) {
            if let Some(value) = value.strip_prefix('=') {
                return Some(value.to_string());
            }
        }
    }
    None
}

/// The path given with `--trace`, if the binary was invoked with one.
pub fn trace_path_from_args() -> Option<PathBuf> {
    arg_value("--trace").map(PathBuf::from)
}

/// Runs the same toy real-byte workload as the live-telemetry appendix
/// (one save, a two-node failure burst, one recovery) with a span
/// tracer attached, and returns the Chrome Trace Event JSON. The
/// tracer shares the recorder's clock epoch, so trace timestamps line
/// up with the recorder's event log; drive `recorder` from a
/// [`ecc_telemetry::ManualClock`] to make the output byte-identical
/// across runs.
pub fn engine_trace_json(recorder: Recorder) -> Result<String, Box<dyn Error>> {
    let spec = ClusterSpec::tiny_test(4, 2);
    let mut cluster = Cluster::new(spec);
    let model = ModelConfig::gpt2(64, 4, 4).with_vocab(512).with_seq_len(32);
    let par = ParallelismSpec::new(2, 2, 2)?;
    let sd_spec = StateDictSpec { iteration: 100, ..StateDictSpec::new(model, par) };
    let dicts: Vec<_> = (0..spec.world_size())
        .map(|w| build_worker_state_dict(&sd_spec, w))
        .collect::<Result<_, _>>()?;

    let config = EcCheckConfig::paper_defaults().with_packet_size(4096);
    let mut ecc = EcCheck::initialize(&spec, config)?;
    ecc.set_recorder(recorder);
    let tracer = ecc.attach_tracer();
    ecc.save(&mut cluster, &dicts)?;
    cluster.fail_node(1);
    cluster.fail_node(3);
    cluster.replace_node(1);
    cluster.replace_node(3);
    ecc.load(&mut cluster)?;
    Ok(tracer.chrome_trace_json())
}

/// Renders the timing model's prediction of one paper-testbed save
/// (GPT-2 2.5B, idle-slot gating on) as Chrome Trace Event JSON. Every
/// timestamp is an explicit simulated instant, so the output is
/// byte-identical across runs by construction.
pub fn sim_save_trace_json() -> String {
    let spec = ClusterSpec::paper_testbed();
    let cfg = EcCheckConfig::paper_defaults();
    let consts = TimingConstants::default();
    let model = ModelConfig::gpt2(2560, 40, 64);
    let par = ParallelismSpec::new(4, 4, 1).expect("paper parallelism");
    let tm = TrainingTimeModel::new(model, par, GpuSpec::a100_40g(), spec.nic())
        .expect("paper training model");
    let profile = tm.profile(200);
    let shard = model.shard_bytes(&par);
    let (tracer, _clock) = Tracer::with_manual_clock();
    trace_save_timing(&tracer, &spec, &cfg, shard, Some(&profile), &consts);
    tracer.chrome_trace_json()
}

/// Writes the toy engine-run trace when the binary was invoked with
/// `--trace <path>`. Figure binaries call this after printing their
/// tables; it is silent when the flag is absent.
pub fn write_trace_if_requested() {
    let Some(path) = trace_path_from_args() else { return };
    match engine_trace_json(Recorder::new()) {
        Ok(json) => match std::fs::write(&path, &json) {
            Ok(()) => println!(
                "\nspan trace written to {} (load in Perfetto or chrome://tracing)",
                path.display()
            ),
            Err(err) => eprintln!("could not write trace to {}: {err}", path.display()),
        },
        Err(err) => eprintln!("trace workload failed: {err}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use ecc_telemetry::ManualClock;
    use ecc_trace::validate_chrome_trace;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arg_value_finds_both_spellings() {
        assert_eq!(
            arg_value_in("--trace", args(&["--trace", "out.json"])),
            Some("out.json".into())
        );
        assert_eq!(arg_value_in("--trace", args(&["--trace=out.json"])), Some("out.json".into()));
        assert_eq!(arg_value_in("--trace", args(&["--out", "x"])), None);
        // A flag with no value yields nothing rather than panicking.
        assert_eq!(arg_value_in("--trace", args(&["--trace"])), None);
        // Prefix collisions do not count: --tracefile is not --trace.
        assert_eq!(arg_value_in("--trace", args(&["--tracefile", "x"])), None);
    }

    #[test]
    fn engine_trace_is_valid_and_deterministic_under_manual_clock() {
        let render = || {
            let recorder = Recorder::with_clock(Arc::new(ManualClock::new()));
            engine_trace_json(recorder).expect("toy workload runs")
        };
        let a = render();
        let stats = validate_chrome_trace(&a).expect("valid trace");
        assert!(stats.spans > 0);
        assert!(stats.flows > 0, "P2P transfers should draw arrows");
        for needle in [
            "ecc.save",
            "checkpoint.pack",
            "save.encode",
            "encode.stripe",
            "xfer.store",
            "p2p.store",
        ] {
            assert!(a.contains(needle), "trace should mention {needle}");
        }
        assert_eq!(a, render(), "manual clock must make the export byte-identical");
    }

    #[test]
    fn sim_save_trace_is_valid_and_deterministic() {
        let a = sim_save_trace_json();
        let stats = validate_chrome_trace(&a).expect("valid trace");
        assert!(stats.spans > 0);
        assert!(stats.flows > 0);
        assert_eq!(a, sim_save_trace_json());
    }
}
