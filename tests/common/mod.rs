//! Shared by the suites that fail, count or fingerprint plane writes
//! (`tests/delta_differential.rs`, `crates/chaos/tests/repair.rs`); each
//! uses its own subset.

#![allow(dead_code)]

use ecc_checkpoint::{DType, StateDict, Tensor, Value};
use ecc_cluster::{ClusterError, DataPlane, NodeId};

/// One worker's state: tensor shapes depend only on the worker (delta
/// saves require stable layouts), values on `salt`.
pub fn worker_dict(w: usize, salt: u8) -> StateDict {
    let mut sd = StateDict::new();
    sd.insert("rank", Value::Int(w as i64));
    sd.insert("salt", Value::Int(salt as i64));
    let len = 40 + (w * 37) % 200;
    let bytes: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(29) ^ (w as u8) ^ salt).collect();
    let t = Tensor::from_bytes(DType::U8, &[len], bytes).expect("tensor shape valid");
    sd.insert("weights", Value::Tensor(t));
    sd
}

/// Every blob on every node, in canonical order — the complete
/// observable result of a save sequence on the local plane.
pub fn local_fingerprint(plane: &impl DataPlane) -> Vec<(usize, String, Vec<u8>)> {
    let mut out = Vec::new();
    for node in 0..plane.nodes() {
        for key in plane.local_keys(node) {
            let bytes = plane.get_local(node, &key).expect("listed key readable");
            out.push((node, key, bytes));
        }
    }
    out
}

/// A plane whose `fail_at`-th `put_local` from now (0-based) fails once,
/// storing nothing; everything else passes through. `puts` counts the
/// puts that went through.
pub struct FailNthPut<P> {
    pub inner: P,
    pub fail_at: Option<usize>,
    pub puts: usize,
}

impl<P> FailNthPut<P> {
    pub fn new(inner: P) -> Self {
        Self { inner, fail_at: None, puts: 0 }
    }
}

impl<P: DataPlane> DataPlane for FailNthPut<P> {
    fn nodes(&self) -> usize {
        self.inner.nodes()
    }
    fn alive(&self, node: NodeId) -> bool {
        self.inner.alive(node)
    }
    fn put_local(&mut self, node: NodeId, key: &str, bytes: Vec<u8>) -> Result<(), ClusterError> {
        match self.fail_at {
            Some(0) => {
                self.fail_at = None;
                return Err(ClusterError::Transport {
                    detail: format!("injected: put of {key} failed"),
                });
            }
            Some(left) => self.fail_at = Some(left - 1),
            None => {}
        }
        self.puts += 1;
        self.inner.put_local(node, key, bytes)
    }
    fn get_local(&self, node: NodeId, key: &str) -> Option<Vec<u8>> {
        self.inner.get_local(node, key)
    }
    fn delete_local(&mut self, node: NodeId, key: &str) {
        self.inner.delete_local(node, key)
    }
    fn put_remote(&mut self, key: &str, bytes: Vec<u8>) {
        self.inner.put_remote(key, bytes)
    }
    fn get_remote(&self, key: &str) -> Option<Vec<u8>> {
        self.inner.get_remote(key)
    }
    fn local_keys(&self, node: NodeId) -> Vec<String> {
        self.inner.local_keys(node)
    }
}
