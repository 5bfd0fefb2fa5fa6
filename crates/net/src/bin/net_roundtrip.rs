//! `net-roundtrip`: drives the ECCheck engine against a live
//! checkpoint server, one leg per process, so CI can prove the
//! cross-process contract:
//!
//! ```text
//! net-roundtrip save  ADDR [--seed S] [--gpus G] [--k K] [--m M]
//! net-roundtrip load  ADDR [--seed S] [--gpus G] [--k K] [--m M] [--fail-node N]
//! net-roundtrip chaos ADDR [--seed S] [--rounds R] [--out FILE]
//! net-roundtrip churn ADDR [--seed S] [--gpus G] [--k K] [--m M] [--rounds R] [--out FILE]
//! ```
//!
//! * `save` checkpoints a deterministic, seed-derived state through a
//!   [`RemotePlane`] and exits.
//! * `load` — run as a *different OS process* — discovers the latest
//!   checkpoint version on the server, adopts it into a fresh engine,
//!   optionally crashes a node first (`--fail-node`), restores, and
//!   verifies the state is **bit-exactly** what `save` wrote (it
//!   regenerates the expected state from the same seed).
//! * `chaos` runs the seeded chaos campaign with a `ChaosPlane`
//!   wrapping the socket plane, then re-runs the identical campaign
//!   in-memory and asserts the two fault logs and outcome sequences
//!   match — the cross-plane differential. `--out` writes the socket
//!   run's fault log as a JSON artifact.
//! * `churn` drives the elastic-membership protocol end to end
//!   against a server started with `--membership`: each round kills a
//!   node over the wire, `Join`s a replacement (the server rebuilds
//!   the lost chunk and commits a new placement epoch), proves the
//!   engine's epoch fence refuses the now-stale engine, refreshes it
//!   with `GetPlacement`, and restores bit-exactly. `--out` writes a
//!   per-round epoch log as a JSON artifact.
//!
//! Exit status: 0 on success, 1 on any contract violation or
//! transport failure, 2 on usage errors.

use ecc_chaos::{run_campaign, run_campaign_on_plane, CampaignConfig};
use ecc_checkpoint::{DType, StateDict, Tensor, Value};
use ecc_cluster::ClusterSpec;
use ecc_net::RemotePlane;
use eccheck::{keys, EcCheck, EcCheckConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn usage() -> ! {
    eprintln!(
        "usage: net-roundtrip save  ADDR [--seed S] [--gpus G] [--k K] [--m M]\n\
         \u{20}      net-roundtrip load  ADDR [--seed S] [--gpus G] [--k K] [--m M] [--fail-node N]\n\
         \u{20}      net-roundtrip chaos ADDR [--seed S] [--rounds R] [--out FILE]\n\
         \u{20}      net-roundtrip churn ADDR [--seed S] [--gpus G] [--k K] [--m M] [--rounds R] [--out FILE]"
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("net-roundtrip: {msg}");
    std::process::exit(1);
}

/// The deterministic state both `save` and `load` derive from the
/// seed: same generator as the chaos campaign's per-round dicts, so
/// "bit-exact" means every tensor byte, not just the metadata.
fn expected_dicts(world: usize, seed: u64) -> Vec<StateDict> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0DDB_A115);
    (0..world)
        .map(|w| {
            let mut sd = StateDict::new();
            sd.insert("iteration", Value::Int(7));
            sd.insert("rank", Value::Int(w as i64));
            sd.insert("tag", Value::Str(format!("net-s{seed}-w{w}")));
            let len = 64 + rng.gen_range(0..256usize);
            let payload: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u8)).collect();
            let t = Tensor::from_bytes(DType::U8, &[len], payload).expect("tensor shape valid");
            sd.insert("payload", Value::Tensor(t));
            sd
        })
        .collect()
}

struct Opts {
    addr: String,
    seed: u64,
    gpus: usize,
    k: usize,
    m: usize,
    fail_node: Option<usize>,
    rounds: usize,
    out: Option<String>,
}

fn parse_opts(mut args: std::env::Args) -> Opts {
    let addr = args.next().unwrap_or_else(|| usage());
    let mut opts =
        Opts { addr, seed: 42, gpus: 2, k: 2, m: 2, fail_node: None, rounds: 3, out: None };
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--seed" => opts.seed = value().parse().unwrap_or_else(|_| usage()),
            "--gpus" => opts.gpus = value().parse().unwrap_or_else(|_| usage()),
            "--k" => opts.k = value().parse().unwrap_or_else(|_| usage()),
            "--m" => opts.m = value().parse().unwrap_or_else(|_| usage()),
            "--fail-node" => opts.fail_node = Some(value().parse().unwrap_or_else(|_| usage())),
            "--rounds" => opts.rounds = value().parse().unwrap_or_else(|_| usage()),
            "--out" => opts.out = Some(value()),
            _ => usage(),
        }
    }
    opts
}

fn connect(addr: &str) -> RemotePlane {
    match RemotePlane::connect(addr) {
        Ok(p) => p,
        Err(e) => fail(&format!("cannot reach checkpoint server at {addr}: {e}")),
    }
}

fn engine_for(plane: &RemotePlane, opts: &Opts) -> (EcCheck, ClusterSpec, usize) {
    use ecc_cluster::DataPlane;
    let nodes = plane.nodes();
    if nodes != opts.k + opts.m {
        fail(&format!("server has {nodes} nodes but k + m = {}", opts.k + opts.m));
    }
    let spec = ClusterSpec::tiny_test(nodes, opts.gpus);
    let cfg = EcCheckConfig::paper_defaults()
        .with_km(opts.k, opts.m)
        .with_packet_size(256)
        .with_fetch_retries(2);
    let ecc = EcCheck::initialize(&spec, cfg)
        .unwrap_or_else(|e| fail(&format!("bad engine config: {e}")));
    let world = nodes * opts.gpus;
    (ecc, spec, world)
}

fn cmd_save(opts: &Opts) {
    let mut plane = connect(&opts.addr);
    let (mut ecc, _spec, world) = engine_for(&plane, opts);
    let dicts = expected_dicts(world, opts.seed);
    match ecc.save(&mut plane, &dicts) {
        Ok(report) => {
            println!(
                "saved v{} ({} bytes encoded) over {}",
                report.version, report.encoded_bytes, opts.addr
            );
        }
        Err(e) => fail(&format!("save over {} failed: {e}", opts.addr)),
    }
}

fn cmd_load(opts: &Opts) {
    let mut plane = connect(&opts.addr);
    let (mut ecc, _spec, world) = engine_for(&plane, opts);

    let version = keys::latest_manifest_version(&plane)
        .unwrap_or_else(|| fail("no checkpoint manifest found on the server"));
    ecc.adopt_version(&plane, version)
        .unwrap_or_else(|e| fail(&format!("cannot adopt v{version}: {e}")));

    if let Some(node) = opts.fail_node {
        plane.fail_node(node).unwrap_or_else(|e| fail(&format!("cannot fail node {node}: {e}")));
        eprintln!("net-roundtrip: failed node {node} before restore");
    }

    let (restored, report) = match ecc.load(&mut plane) {
        Ok(r) => r,
        Err(e) => fail(&format!("load of v{version} failed: {e}")),
    };
    let expected = expected_dicts(world, opts.seed);
    if restored != expected {
        fail(&format!("restored state of v{version} is NOT bit-exact (seed {})", opts.seed));
    }
    println!(
        "restored v{version} bit-exactly in a fresh process ({} chunks rebuilt)",
        report.rebuilt_chunks
    );
}

fn cmd_chaos(opts: &Opts) {
    let plane = connect(&opts.addr);
    let cfg = CampaignConfig { rounds: opts.rounds, ..CampaignConfig::standard() };

    let socket_report = run_campaign_on_plane(&cfg, opts.seed, None, plane);
    if let Some(path) = &opts.out {
        if let Err(e) = std::fs::write(path, socket_report.fault_log_json()) {
            fail(&format!("cannot write fault log to {path}: {e}"));
        }
    }
    if !socket_report.passed() {
        fail(&format!(
            "socket campaign violated the recovery contract: {:?}",
            socket_report.violations
        ));
    }

    // The differential: the same (config, seed) in-memory must inject
    // the identical fault sequence and reach the identical verdicts.
    let memory_report = run_campaign(&cfg, opts.seed);
    if socket_report.fault_log != memory_report.fault_log {
        fail(&format!(
            "fault logs diverge between transports: socket injected {} faults, memory {}",
            socket_report.fault_log.len(),
            memory_report.fault_log.len()
        ));
    }
    if socket_report.outcomes != memory_report.outcomes {
        fail("campaign outcomes diverge between socket and in-memory planes");
    }
    println!(
        "chaos campaign over {}: {} rounds, {} faults, outcomes identical to in-memory run",
        opts.addr,
        socket_report.outcomes.len(),
        socket_report.fault_log.len()
    );
}

/// Drives the full membership protocol over the wire: kill → Join →
/// epoch fence trips → GetPlacement refresh → bit-exact restore, once
/// per round, each round retiring a different slot.
fn cmd_churn(opts: &Opts) {
    use eccheck::EcCheckError;

    let mut plane = connect(&opts.addr);
    let (mut ecc, _spec, world) = engine_for(&plane, opts);
    let nodes = opts.k + opts.m;
    let dicts = expected_dicts(world, opts.seed);
    ecc.save(&mut plane, &dicts).unwrap_or_else(|e| fail(&format!("initial save failed: {e}")));

    let mut rounds_json = Vec::new();
    for round in 1..=opts.rounds {
        let victim = (round - 1) % nodes;
        plane
            .fail_node(victim)
            .unwrap_or_else(|e| fail(&format!("round {round}: cannot kill node {victim}: {e}")));
        let (epoch, _) = plane.join(victim).unwrap_or_else(|e| {
            fail(&format!("round {round}: join of slot {victim} refused: {e}"))
        });
        if epoch != round as u64 {
            fail(&format!("round {round}: epoch is {epoch}, not strictly monotone"));
        }

        // The engine has not heard about the new epoch: the fence must
        // refuse its save rather than write under a retired layout.
        match ecc.save(&mut plane, &dicts) {
            Err(EcCheckError::StaleEpoch { .. }) => {}
            Ok(_) => fail(&format!("round {round}: stale engine saved anyway — fence broken")),
            Err(e) => fail(&format!("round {round}: expected a stale-epoch refusal, got: {e}")),
        }
        let (fresh_epoch, placement) = plane
            .get_placement()
            .unwrap_or_else(|e| fail(&format!("round {round}: GetPlacement failed: {e}")));
        ecc.apply_placement(fresh_epoch, placement)
            .unwrap_or_else(|e| fail(&format!("round {round}: cannot apply placement: {e}")));

        let (restored, _) = ecc
            .load(&mut plane)
            .unwrap_or_else(|e| fail(&format!("round {round}: load after churn failed: {e}")));
        if restored != dicts {
            fail(&format!("round {round}: restore after churn is NOT bit-exact"));
        }
        ecc.save(&mut plane, &dicts)
            .unwrap_or_else(|e| fail(&format!("round {round}: refreshed save failed: {e}")));
        rounds_json.push(format!("{{\"round\":{round},\"victim\":{victim},\"epoch\":{epoch}}}"));
        eprintln!("net-roundtrip: round {round}: slot {victim} churned, epoch {epoch}");
    }

    if let Some(path) = &opts.out {
        let json = format!(
            "{{\"seed\":{},\"rounds\":[{}],\"final_epoch\":{}}}\n",
            opts.seed,
            rounds_json.join(","),
            opts.rounds
        );
        if let Err(e) = std::fs::write(path, json) {
            fail(&format!("cannot write epoch log to {path}: {e}"));
        }
    }
    println!(
        "churned {} rounds over {}: every join committed a monotone epoch, \
         every stale save was fenced, every restore was bit-exact",
        opts.rounds, opts.addr
    );
}

fn main() {
    let mut args = std::env::args();
    let _argv0 = args.next();
    let cmd = args.next().unwrap_or_else(|| usage());
    let opts = parse_opts(args);
    match cmd.as_str() {
        "save" => cmd_save(&opts),
        "load" => cmd_load(&opts),
        "chaos" => cmd_chaos(&opts),
        "churn" => cmd_churn(&opts),
        _ => usage(),
    }
}
