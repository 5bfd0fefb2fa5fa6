//! GC safety properties for the tiered, versioned checkpoint store.
//!
//! The retention policy (`keep-last-N` window plus `keep-every-Kth`
//! ladder) has a closed form: after `S` saves, tier 0 retains exactly
//! the versions in the newest `max(N, 1)` window plus every multiple
//! of `K`. The property suite pins the engine's incremental GC to that
//! closed form and proves the safety invariants behind it:
//!
//! * the newest version is never collected — `load()` always works;
//! * every retained version restores bit-exactly with the right
//!   `LoadReport.version`;
//! * every collected version is a clean `VersionGone` refusal and its
//!   blobs are actually swept from every node (GC frees memory, it
//!   does not merely hide versions);
//! * with an async drain worker attached, GC never collects a version
//!   before its tier-0 → tier-1 copy completes (drain pins), so the
//!   remote store ends up with a checksum-verified copy of *every*
//!   sealed version even when tier 0 keeps only the newest.

use std::collections::BTreeMap;

use ecc_checkpoint::{crc32, decompose_views, DType, StateDict, Tensor, Value};
use ecc_cluster::{Cluster, ClusterSpec, DataPlane, SharedPlane};
use eccheck::store::{Drainer, Manifest};
use eccheck::{keys, EcCheck, EcCheckConfig, EcCheckError};
use proptest::prelude::*;

const NODES: usize = 4;
const GPUS: usize = 2;
const WORLD: usize = NODES * GPUS;

/// Per-round worker state. Tensor shapes depend only on the worker so
/// every version shares one packet layout; values carry the round.
fn dicts(round: u64) -> Vec<StateDict> {
    (0..WORLD)
        .map(|w| {
            let mut sd = StateDict::new();
            sd.insert("rank", Value::Int(w as i64));
            sd.insert("round", Value::Int(round as i64));
            let len = 64 + (w * 23) % 160;
            let bytes: Vec<u8> =
                (0..len).map(|i| (i as u8).wrapping_mul(17) ^ (w as u8) ^ round as u8).collect();
            let t = Tensor::from_bytes(DType::U8, &[len], bytes).expect("tensor shape valid");
            sd.insert("weights", Value::Tensor(t));
            sd
        })
        .collect()
}

fn config(keep_last: usize, keep_every: u64) -> EcCheckConfig {
    EcCheckConfig::paper_defaults()
        .with_km(2, 2)
        .with_packet_size(256)
        .with_coding_threads(2)
        .with_retain_last(keep_last)
        .with_retain_every(keep_every)
}

/// The closed form the incremental GC must converge to.
fn expected_retained(saves: u64, keep_last: usize, keep_every: u64) -> Vec<u64> {
    let window = keep_last.max(1) as u64;
    (1..=saves)
        .filter(|&v| v + window > saves || (keep_every > 0 && v.is_multiple_of(keep_every)))
        .collect()
}

/// True if any node still holds any tier-0 blob of `version`.
fn version_present(cluster: &Cluster, version: u64) -> bool {
    (0..NODES).any(|node| {
        cluster.local_keys(node).iter().any(|key| keys::key_version(key) == Some(version))
    })
}

/// Incremental GC over `saves` checkpoints equals the closed form,
/// keeps everything it claims restorable, and sweeps the rest.
fn check_retention(saves: u64, keep_last: usize, keep_every: u64) -> Result<(), TestCaseError> {
    let spec = ClusterSpec::tiny_test(NODES, GPUS);
    let mut cluster = Cluster::new(spec);
    let mut ecc = EcCheck::initialize(&spec, config(keep_last, keep_every)).expect("config valid");

    let mut saved = BTreeMap::new();
    for round in 1..=saves {
        let d = dicts(round);
        let report = ecc.save(&mut cluster, &d).expect("save");
        prop_assert_eq!(report.version, round);
        saved.insert(round, d);
    }

    let expect = expected_retained(saves, keep_last, keep_every);
    prop_assert_eq!(ecc.retained_versions(), expect.clone());
    prop_assert!(expect.contains(&saves), "the newest version must never be collected");

    // Every retained version restores bit-exactly and reports its
    // own version number.
    for &v in &expect {
        let (restored, report) = ecc.load_version(&mut cluster, v).expect("retained loads");
        prop_assert_eq!(&restored, &saved[&v]);
        prop_assert_eq!(report.version, v);
    }

    // Every collected version refuses cleanly and is truly swept.
    for v in 1..=saves {
        if expect.contains(&v) {
            continue;
        }
        match ecc.load_version(&mut cluster, v) {
            Err(EcCheckError::VersionGone { version }) => prop_assert_eq!(version, v),
            other => prop_assert!(false, "collected v{} must be VersionGone, got {:?}", v, other),
        }
        prop_assert!(!version_present(&cluster, v), "v{} blobs must be swept", v);
    }

    // And the default entry point still lands on the newest.
    let (newest, report) = ecc.load(&mut cluster).expect("newest loads");
    prop_assert_eq!(&newest, &saved[&saves]);
    prop_assert_eq!(report.version, saves);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The retention property over an arbitrary save history.
    #[test]
    fn gc_retention_matches_closed_form_and_stays_restorable(
        saves in 1u64..8,
        keep_last in 0usize..4,
        keep_every in 0u64..4,
    ) {
        check_retention(saves, keep_last, keep_every)?;
    }
}

/// The cases recorded in `store_gc.proptest-regressions`, replayed by
/// value so they keep running whatever the property's parameter list
/// looks like.
#[test]
fn recorded_regressions_still_hold() {
    check_retention(7, 0, 3).expect("ladder with a clamped window");
    check_retention(1, 0, 0).expect("single save, everything off");
}

#[test]
fn gc_waits_for_the_drain_worker() {
    // The hostile schedule for the GC-vs-drain race: tier 0 keeps only
    // the newest version (every save immediately makes its predecessor
    // collectible) while a depth-1 drain queue forces saves to block on
    // backpressure. If GC ever collected a version before its drain
    // finished, the tier-1 copy would come up short below.
    const SAVES: u64 = 6;
    let spec = ClusterSpec::tiny_test(NODES, GPUS);
    let shared = SharedPlane::new(Cluster::new(spec));
    let mut ecc = EcCheck::initialize(&spec, config(1, 0)).expect("config valid");
    let drainer = Drainer::spawn(shared.clone(), 1, ecc.recorder().clone());
    ecc.set_drainer(drainer.handle());

    let mut plane = shared.clone();
    let mut saved = BTreeMap::new();
    for round in 1..=SAVES {
        let d = dicts(round);
        ecc.save(&mut plane, &d).expect("save");
        saved.insert(round, d);
    }
    drainer.handle().flush();

    // Every sealed version must have a complete, checksum-verified
    // tier-1 copy — including the ones GC evicted from tier 0.
    for v in 1..=SAVES {
        let record = shared
            .get_remote(&keys::remote_manifest_key(v))
            .unwrap_or_else(|| panic!("v{v} manifest missing from tier 1"));
        let manifest = Manifest::decode(record, NODES, WORLD).expect("manifest verifies");
        for (node, &crc) in manifest.chunks().iter().enumerate() {
            let chunk = shared
                .get_remote(&keys::remote_chunk_key(v, node))
                .unwrap_or_else(|| panic!("v{v} chunk {node} missing from tier 1"));
            assert_eq!(crc32(&chunk), crc, "v{v} chunk {node} fails its checksum");
        }
        for (worker, header) in manifest.headers().enumerate() {
            let want = decompose_views(&saved[&v][worker]).0;
            assert_eq!(header, want, "v{v} header {worker} is not the saved one");
        }
    }

    // Tier 0 kept the newest — and, legitimately, a predecessor whose
    // drain was still running when the last save ran its GC: how many
    // is up to the scheduler. Whatever it kept restores.
    let retained = ecc.retained_versions();
    assert_eq!(retained.last(), Some(&SAVES), "retained {retained:?}");
    for v in retained {
        let (restored, report) = ecc.load_version(&mut plane, v).expect("retained loads");
        assert_eq!(restored, saved[&v], "v{v}");
        assert_eq!(report.version, v);
    }

    drainer.shutdown();
}
