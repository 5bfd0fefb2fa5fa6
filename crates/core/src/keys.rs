//! The engine's blob-key namespace.
//!
//! Every blob the engine stores on the data plane lives under a
//! versioned key built here: per version a node holds two, its one
//! `chunk` and the `manifest` that carries every chunk's CRC-32 and
//! every worker's header (see [`crate::store::Manifest`]); tier 1 holds
//! each node's chunk and one manifest. The helpers are
//! public so fault-injection layers (e.g. `ecc-chaos`) and targeted
//! tests can address a specific stored blob without duplicating format
//! strings.

use crate::store::{open_record, seal_record};

/// Key of the (single) erasure-code chunk a node holds for `version`.
pub fn chunk_key(version: u64) -> String {
    format!("ecc/v{version}/chunk")
}

/// Key of the manifest for `version`: the self-checked record of every
/// chunk's CRC-32 and every worker's header, identical on every node
/// and written after the chunks it names — its presence seals the
/// version.
pub fn manifest_key(version: u64) -> String {
    format!("ecc/v{version}/manifest")
}

/// Remote-storage key of `node`'s chunk for `version`.
pub fn remote_chunk_key(version: u64, node: usize) -> String {
    format!("remote/ecc/v{version}/chunk/{node}")
}

/// Remote-storage key of the manifest for `version`.
pub fn remote_manifest_key(version: u64) -> String {
    format!("remote/ecc/v{version}/manifest")
}

/// Key of the cluster-wide committed placement epoch marker, written
/// to every alive node by the membership controller after a verified
/// rebalance. Unversioned: there is exactly one current epoch per
/// cluster, and checkpoints of any version are migrated forward to
/// match it before it commits.
pub fn placement_epoch_key() -> String {
    "ecc/placement/epoch".to_string()
}

/// Serializes a placement epoch for storage under
/// [`placement_epoch_key`]: the epoch closed by its own checksum.
pub fn encode_epoch(epoch: u64) -> Vec<u8> {
    seal_record(epoch.to_le_bytes().to_vec())
}

/// Parses an epoch blob written by [`encode_epoch`]. `None` for blobs
/// of the wrong width or failing their self-check (treat as "this copy
/// says nothing").
pub fn decode_epoch(bytes: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(open_record(bytes)?.try_into().ok()?))
}

/// Reads the committed placement epoch: the maximum over the alive
/// nodes' markers that pass their self-check, so losing or damaging up
/// to `m` copies never rolls the fence backwards. `None` means no
/// membership controller has ever committed a rebalance on this plane
/// (implicit epoch 0).
pub fn committed_epoch(plane: &impl ecc_cluster::DataPlane) -> Option<u64> {
    let key = placement_epoch_key();
    (0..plane.nodes())
        .filter(|&node| plane.alive(node))
        .filter_map(|node| decode_epoch(&plane.get_local(node, &key)?))
        .max()
}

/// `true` when `key` addresses a chunk blob — the blobs whose loss or
/// corruption consumes one unit of the code's `m`-failure budget. Used
/// by fault-injection accounting.
pub fn is_chunk_class(key: &str) -> bool {
    key.contains("/chunk")
}

/// Extracts the version a key addresses, if it is an engine key.
///
/// # Examples
///
/// ```
/// assert_eq!(eccheck::keys::key_version(&eccheck::keys::chunk_key(7)), Some(7));
/// assert_eq!(eccheck::keys::key_version("unrelated"), None);
/// ```
pub fn key_version(key: &str) -> Option<u64> {
    let tail = key.strip_prefix("remote/").unwrap_or(key);
    let tail = tail.strip_prefix("ecc/v")?;
    let end = tail.find('/')?;
    tail[..end].parse().ok()
}

/// The newest checkpoint version that has a manifest on some alive
/// node, so a fresh process can adopt a checkpoint it did not write
/// (see `EcCheck::adopt_version`). Remote storage is not probed: it has
/// no key listing and only holds drained versions, so its newest
/// manifest may lag the cluster's.
pub fn latest_manifest_version(plane: &impl ecc_cluster::DataPlane) -> Option<u64> {
    manifest_versions(plane).last().copied()
}

/// Scans a data plane for every checkpoint version that has a manifest
/// on some alive node, sorted ascending. The tiered store's version
/// index is rebuilt from this after adoption: the manifest is the last
/// blob a save seals, so a version with a manifest is restorable (up to
/// the usual `m`-failure budget).
pub fn manifest_versions(plane: &impl ecc_cluster::DataPlane) -> Vec<u64> {
    let mut versions: Vec<u64> = (0..plane.nodes())
        .filter(|&node| plane.alive(node))
        .flat_map(|node| plane.local_keys(node))
        .filter_map(|key| key.strip_prefix("ecc/v")?.strip_suffix("/manifest")?.parse().ok())
        .collect();
    versions.sort_unstable();
    versions.dedup();
    versions
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_distinct_and_versioned() {
        let keys = [chunk_key(3), manifest_key(3), remote_chunk_key(3, 1), remote_manifest_key(3)];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
            assert_eq!(key_version(a), Some(3), "{a}");
        }
    }

    #[test]
    fn classification() {
        assert!(is_chunk_class(&chunk_key(1)));
        assert!(is_chunk_class(&remote_chunk_key(1, 0)));
        assert!(!is_chunk_class(&manifest_key(1)));
    }

    #[test]
    fn epoch_blob_round_trip() {
        assert_eq!(decode_epoch(&encode_epoch(0)), Some(0));
        assert_eq!(decode_epoch(&encode_epoch(u64::MAX)), Some(u64::MAX));
        assert_eq!(decode_epoch(&[1, 2, 3]), None);
        assert_eq!(decode_epoch(&[]), None);
        assert_eq!(decode_epoch(&7u64.to_le_bytes()), None, "a bare epoch has no self-check");
        // The cluster-wide marker is outside any version namespace, so
        // per-version cleanup can never reap it.
        assert_eq!(key_version(&placement_epoch_key()), None);
        assert!(!is_chunk_class(&placement_epoch_key()));
    }

    #[test]
    fn manifest_versions_scans_alive_nodes() {
        use ecc_cluster::{Cluster, ClusterSpec};
        let mut c = Cluster::new(ClusterSpec::tiny_test(2, 1));
        assert!(manifest_versions(&c).is_empty());
        c.put_local(0, &manifest_key(3), vec![0; 8]).unwrap();
        c.put_local(1, &manifest_key(1), vec![0; 8]).unwrap();
        c.put_local(1, &manifest_key(3), vec![0; 8]).unwrap();
        assert_eq!(manifest_versions(&c), vec![1, 3]);
        assert_eq!(latest_manifest_version(&c), Some(3));
        c.fail_node(1);
        assert_eq!(manifest_versions(&c), vec![3]);
    }

    #[test]
    fn version_extraction_rejects_garbage() {
        assert_eq!(key_version("ecc/vX/chunk"), None);
        assert_eq!(key_version("ecc/v12"), None);
        assert_eq!(key_version(""), None);
    }
}
