//! Extensions tour: FSDP sharding, group-based checkpointing, and
//! incremental updates working together.
//!
//! An 8-node × 2-GPU cluster trains a tiny GPT-2 with TP×PP×FSDP
//! parallelism; ECCheck runs independently in two 4-node groups (the
//! paper's §VI scaling strategy); between full saves, a single worker's
//! shard is patched incrementally through the code's linearity.
//!
//! Run with: `cargo run --example fsdp_groups`
//!
//! Add `--obs <host:port>` to serve live `/metrics` over the tour's
//! shared recorder (the incremental-update engine reports into it);
//! `--obs-hold-ms <n>` keeps the exporter up afterwards.

use ecc_cluster::{Cluster, ClusterSpec};
use ecc_dnn::{build_worker_state_dict, ModelConfig, ParallelismSpec, StateDictSpec};
use eccheck::{optimal_group_size, EcCheck, EcCheckConfig, GroupedEcCheck, WorkerDirtySet};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let recorder = ecc_telemetry::Recorder::new();
    let obs = ecc_bench::obs_session_from_args(&recorder);
    let spec = ClusterSpec::tiny_test(8, 2);

    // FSDP over the data-parallel dimension: every one of the 16 workers
    // holds a distinct slice of model + optimizer state — no replicas
    // anywhere, exactly the setting where checkpoint redundancy matters.
    let model = ModelConfig::gpt2(64, 4, 4).with_vocab(512).with_seq_len(32);
    let par = ParallelismSpec::new(2, 2, 4)?.with_fsdp();
    let sd_spec = StateDictSpec::new(model, par);
    let dicts: Vec<_> = (0..spec.world_size())
        .map(|w| build_worker_state_dict(&sd_spec, w))
        .collect::<Result<Vec<_>, _>>()?;
    println!(
        "FSDP: {} workers, {} model shards, {} bytes total",
        par.world_size(),
        par.model_shards(),
        dicts.iter().map(|d| d.tensor_bytes()).sum::<usize>()
    );

    // Group-based deployment: two independent 4-node ECCheck groups.
    let mut cluster = Cluster::new(spec);
    let config = EcCheckConfig::paper_defaults().with_packet_size(2048);
    let mut grouped = GroupedEcCheck::initialize(&spec, 4, config)?;
    println!(
        "groups: {} of {} nodes each; cluster recovery rate at p=0.1: {:.4}",
        grouped.group_count(),
        grouped.group_nodes(),
        grouped.recovery_rate(0.1)
    );
    grouped.save(&mut cluster, &dicts)?;

    // One failure in each group at the same time: still recoverable.
    cluster.fail_node(1);
    cluster.fail_node(6);
    cluster.replace_node(1);
    cluster.replace_node(6);
    let (restored, reports) = grouped.load(&mut cluster)?;
    assert_eq!(restored, dicts);
    println!(
        "recovered concurrent failures in both groups (workflows: {:?}, {:?})",
        reports[0].workflow, reports[1].workflow
    );
    recorder.counter("groups.recovered").add(reports.len() as u64);

    // Incremental updates on a single (non-grouped) engine: only the
    // changed worker's region and the parity deltas move.
    let spec4 = ClusterSpec::tiny_test(4, 2);
    let par4 = ParallelismSpec::new(2, 2, 2)?.with_fsdp();
    let sd4 = StateDictSpec::new(model, par4);
    let mut dicts4: Vec<_> = (0..spec4.world_size())
        .map(|w| build_worker_state_dict(&sd4, w))
        .collect::<Result<Vec<_>, _>>()?;
    let mut cluster4 = Cluster::new(spec4);
    let mut ecc = EcCheck::initialize(&spec4, config)?;
    ecc.set_recorder(recorder.clone());
    ecc.save(&mut cluster4, &dicts4)?;
    let updated = build_worker_state_dict(&StateDictSpec { seed: 42, ..sd4 }, 5)?;
    let delta = ecc.save_delta(&mut cluster4, &[WorkerDirtySet { worker: 5, state: &updated }])?;
    dicts4[5] = updated;
    println!("incremental update of worker 5 touched {} delta bytes", delta.changed_bytes);
    cluster4.fail_node(0);
    cluster4.fail_node(2);
    cluster4.replace_node(0);
    cluster4.replace_node(2);
    let (restored4, _) = ecc.load(&mut cluster4)?;
    assert_eq!(restored4, dicts4, "recovery sees the incrementally updated state");
    println!("post-update double-failure recovery is bit-exact ✓");

    // And the §VI future-work computation: what group size should a
    // 16-node deployment use?
    let (costs, best) = optimal_group_size(&ClusterSpec::v100_scalability(16, 4), 1 << 30, 0.05);
    println!(
        "\noptimal group size for 16 flaky nodes (p=0.05): {} nodes \
         (expected cost {:.3} s/checkpoint)",
        costs[best].group_nodes, costs[best].expected_cost
    );

    if let Some(obs) = obs {
        obs.finish();
    }
    Ok(())
}
