//! Property tests for the control plane: under *arbitrary* join /
//! leave / crash sequences, the shard map never co-locates two chunks
//! of a parity group on one node, and the placement epoch is strictly
//! monotone (one step per committed rebalance, frozen otherwise).

use ecc_cluster::{Cluster, ClusterSpec};
use ecc_erasure::{CodeParams, ErasureCode};
use ecc_membership::{MemberState, PlacementController};
use eccheck::keys::{chunk_key, manifest_key};
use eccheck::store::Manifest;
use eccheck::EcCheckConfig;
use proptest::prelude::*;

const K: usize = 2;
const M: usize = 2;

/// Plants a valid 4-chunk codeword (version 1) and its manifest on the
/// cluster, so rebalances exercise the real decode/patch paths instead
/// of running over an empty plane. 64-byte chunks: tiny but w-aligned.
fn seed_checkpoint(cluster: &mut Cluster, ctl: &PlacementController) {
    let code = ErasureCode::cauchy_good(CodeParams::new(K, M, 8).unwrap()).unwrap();
    let data: Vec<Vec<u8>> = (0..K).map(|j| vec![j as u8 + 1; 64]).collect();
    let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
    let parity = code.encode(&refs).unwrap();
    let placement = ctl.placement();
    let slots = placement.data_nodes().iter().chain(placement.parity_nodes());
    let mut chunks = vec![0; K + M];
    for (&slot, chunk) in slots.zip(data.iter().chain(&parity)) {
        chunks[slot] = ecc_checkpoint::crc32(chunk);
        cluster.put_local(slot, &chunk_key(1), chunk.clone()).unwrap();
    }
    for slot in 0..K + M {
        cluster.put_local(slot, &manifest_key(1), Manifest::seal(&chunks, &[[0u8; 0]; 8])).unwrap();
    }
}

#[derive(Debug, Clone, Copy)]
enum ChurnOp {
    Crash,
    Join,
    Leave,
}

fn churn_op() -> impl Strategy<Value = ChurnOp> {
    prop_oneof![Just(ChurnOp::Crash), Just(ChurnOp::Join), Just(ChurnOp::Leave)]
}

proptest! {
    #[test]
    fn arbitrary_churn_keeps_the_map_sound(
        ops in proptest::collection::vec((0..4usize, churn_op()), 1..32),
    ) {
        let spec = ClusterSpec::tiny_test(4, 2);
        let config = EcCheckConfig::paper_defaults().with_packet_size(256);
        let mut cluster = Cluster::new(spec);
        let mut ctl = PlacementController::new(&spec, &config).unwrap();
        seed_checkpoint(&mut cluster, &ctl);

        for (slot, op) in ops {
            match op {
                ChurnOp::Crash => {
                    cluster.fail_node(slot);
                    ctl.force_dead(slot);
                }
                ChurnOp::Join => {
                    if matches!(
                        ctl.table().state(slot),
                        MemberState::Dead | MemberState::Leaving
                    ) {
                        cluster.replace_node(slot);
                        ctl.join(slot).unwrap();
                    }
                }
                ChurnOp::Leave => {
                    if ctl.table().state(slot) == MemberState::Active && cluster.alive(slot) {
                        ctl.leave(&cluster, slot).unwrap();
                    }
                }
            }

            // The controller reconciles after every membership event; a
            // refusal (guarantee not yet restorable) must freeze the
            // epoch, a commit must advance it by exactly one.
            let before = ctl.epoch();
            match ctl.rebalance(&mut cluster) {
                Ok(report) => {
                    prop_assert!(
                        report.epoch == before || report.epoch == before + 1,
                        "epoch jumped {before} -> {}", report.epoch
                    );
                    prop_assert_eq!(report.epoch, ctl.epoch());
                    if !report.versions.is_empty() && report.moves_rebuilt + report.moves_copied > 0 {
                        prop_assert!(report.migrated_bytes > 0);
                        prop_assert!(report.chunk_bytes <= report.bound_bytes,
                            "chunk migration {} exceeds the full re-encode bound {}",
                            report.chunk_bytes, report.bound_bytes);
                    }
                }
                Err(_) => prop_assert_eq!(ctl.epoch(), before, "refusal must not move the epoch"),
            }

            // No two chunks of the parity group may share a slot, ever.
            let mut slots: Vec<_> =
                ctl.shard_map().entries().iter().map(|e| e.slot).collect();
            let total = slots.len();
            slots.sort_unstable();
            slots.dedup();
            prop_assert_eq!(slots.len(), total, "shard map co-located chunks");
            prop_assert_eq!(total, K + M);
        }
    }

    /// Incarnations only ever grow, and only via admission.
    #[test]
    fn incarnations_are_monotone(ops in proptest::collection::vec((0..4usize, churn_op()), 1..32)) {
        let spec = ClusterSpec::tiny_test(4, 2);
        let config = EcCheckConfig::paper_defaults().with_packet_size(256);
        let cluster = Cluster::new(spec);
        let mut ctl = PlacementController::new(&spec, &config).unwrap();
        let mut floor = [0u64; 4];
        for (slot, op) in ops {
            match op {
                ChurnOp::Crash => { ctl.force_dead(slot); }
                ChurnOp::Join => {
                    if matches!(ctl.table().state(slot), MemberState::Dead | MemberState::Leaving) {
                        ctl.join(slot).unwrap();
                    }
                }
                ChurnOp::Leave => {
                    if ctl.table().state(slot) == MemberState::Active {
                        ctl.leave(&cluster, slot).unwrap();
                    }
                }
            }
            for (s, low) in floor.iter_mut().enumerate() {
                let inc = ctl.table().incarnation(s);
                prop_assert!(inc >= *low);
                *low = inc;
            }
        }
    }
}
