use crate::EcCheckError;

/// Tunables of the ECCheck system.
///
/// # Examples
///
/// ```
/// use eccheck::EcCheckConfig;
///
/// // The paper's settings (§V-B): k = 2, m = 2, GF(2^8), 64 MB packets.
/// let cfg = EcCheckConfig::paper_defaults();
/// assert_eq!((cfg.k(), cfg.m()), (2, 2));
///
/// // Tests shrink the buffers.
/// let tiny = EcCheckConfig::paper_defaults().with_packet_size(256);
/// assert_eq!(tiny.packet_size(), 256);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct EcCheckConfig {
    k: usize,
    m: usize,
    w: u8,
    packet_size: usize,
    coding_threads: usize,
    fetch_retries: usize,
    fetch_backoff_base_ns: u64,
    fetch_backoff_cap_ns: u64,
    pipeline_buffer: usize,
    pipeline_depth: usize,
    retain_last: usize,
    retain_every: u64,
}

impl EcCheckConfig {
    /// The paper's experimental settings (§V-B): `k = m = 2` over
    /// GF(2^8), 64 MB packets. Two of the paper's mechanisms are not
    /// config knobs: idle-slot scheduling switches on when a profile is
    /// attached ([`crate::EcCheck::set_idle_profile`]), and the
    /// low-frequency remote copy (step 4) runs when a
    /// [`crate::store::Drainer`] is attached or the training loop calls
    /// [`crate::store::drain_version`].
    pub fn paper_defaults() -> Self {
        Self {
            k: 2,
            m: 2,
            w: 8,
            packet_size: 64 << 20,
            coding_threads: 8,
            fetch_retries: 2,
            fetch_backoff_base_ns: 200_000,
            fetch_backoff_cap_ns: 50_000_000,
            pipeline_buffer: 4 << 20,
            pipeline_depth: 8,
            retain_last: 1,
            retain_every: 0,
        }
    }

    /// Overrides the data/parity split.
    pub fn with_km(mut self, k: usize, m: usize) -> Self {
        self.k = k;
        self.m = m;
        self
    }

    /// Overrides the field width.
    pub fn with_width(mut self, w: u8) -> Self {
        self.w = w;
        self
    }

    /// Overrides the packet (buffer) size in bytes.
    pub fn with_packet_size(mut self, bytes: usize) -> Self {
        self.packet_size = bytes;
        self
    }

    /// Overrides the coding thread-pool size.
    pub fn with_coding_threads(mut self, threads: usize) -> Self {
        self.coding_threads = threads.max(1);
        self
    }

    /// Overrides the pipeline stripe-buffer size in bytes: roughly how
    /// many bytes of one data chunk each encode task consumes. Rounded
    /// internally so stripe boundaries stay coding-aligned.
    pub fn with_pipeline_buffer(mut self, bytes: usize) -> Self {
        self.pipeline_buffer = bytes;
        self
    }

    /// Overrides the pipeline depth: how many stripes may be in flight
    /// between the encode and transfer stages at once. Deeper pipelines
    /// absorb more stage jitter at the cost of `depth` reusable
    /// stripe-sized reduction buffers.
    pub fn with_pipeline_depth(mut self, depth: usize) -> Self {
        self.pipeline_depth = depth.max(2);
        self
    }

    /// Overrides how many sealed checkpoint versions the retention
    /// policy keeps in peer memory (the tier-0 EC group). The default
    /// of 1 reproduces the original rotate-on-save behavior: each save
    /// garbage-collects its predecessor. Clamped to at least 1 — the
    /// newest restorable version is never collectible.
    pub fn with_retain_last(mut self, n: usize) -> Self {
        self.retain_last = n.max(1);
        self
    }

    /// Additionally pins every version divisible by `every` (0 = off),
    /// so long-horizon restore points survive the keep-last-N window —
    /// the classic "keep every Kth" checkpoint ladder.
    pub fn with_retain_every(mut self, every: u64) -> Self {
        self.retain_every = every;
        self
    }

    /// Overrides how many times a recovery fetch is retried before the
    /// holding node is declared failed (0 = fail on the first miss).
    /// Retries absorb transient data-plane glitches — a blob that is
    /// momentarily unreadable is not the same as a dead node.
    pub fn with_fetch_retries(mut self, retries: usize) -> Self {
        self.fetch_retries = retries;
        self
    }

    /// Overrides the fetch-retry backoff policy: attempt `n` (0-based)
    /// waits `min(base << n, cap)` nanoseconds before retrying. Instant
    /// retries were correct against the in-memory plane but hot-spin
    /// against a real server; `base = 0` restores them for tests that
    /// must not sleep.
    pub fn with_fetch_backoff(mut self, base_ns: u64, cap_ns: u64) -> Self {
        self.fetch_backoff_base_ns = base_ns;
        self.fetch_backoff_cap_ns = cap_ns;
        self
    }

    /// Number of data nodes.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of parity nodes.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Galois-field width.
    pub fn w(&self) -> u8 {
        self.w
    }

    /// The packet (buffer) size in bytes.
    pub fn packet_size(&self) -> usize {
        self.packet_size
    }

    /// Coding thread-pool size.
    pub fn coding_threads(&self) -> usize {
        self.coding_threads
    }

    /// Bounded retry budget for recovery fetches.
    pub fn fetch_retries(&self) -> usize {
        self.fetch_retries
    }

    /// First-retry backoff delay in nanoseconds (0 = no backoff).
    pub fn fetch_backoff_base_ns(&self) -> u64 {
        self.fetch_backoff_base_ns
    }

    /// Ceiling on a single backoff delay in nanoseconds.
    pub fn fetch_backoff_cap_ns(&self) -> u64 {
        self.fetch_backoff_cap_ns
    }

    /// Pipeline stripe-buffer size in bytes.
    pub fn pipeline_buffer(&self) -> usize {
        self.pipeline_buffer
    }

    /// Pipeline depth (in-flight stripes between encode and transfer).
    pub fn pipeline_depth(&self) -> usize {
        self.pipeline_depth
    }

    /// How many newest sealed versions the tier-0 retention keeps.
    pub fn retain_last(&self) -> usize {
        self.retain_last
    }

    /// Keep-every-Kth pinning period for retention (0 = off).
    pub fn retain_every(&self) -> u64 {
        self.retain_every
    }

    /// Validates the configuration against a cluster size.
    ///
    /// # Errors
    ///
    /// Returns [`EcCheckError::Config`] when `k + m` does not equal the
    /// node count, the packet size is not coding-aligned, or the world
    /// size does not divide by `k`.
    pub fn validate(&self, nodes: usize, world_size: usize) -> Result<(), EcCheckError> {
        if self.k + self.m != nodes {
            return Err(EcCheckError::Config {
                detail: format!("k + m = {} must equal the node count {nodes}", self.k + self.m),
            });
        }
        if self.k == 0 || self.m == 0 {
            return Err(EcCheckError::Config {
                detail: "k and m must both be positive".to_string(),
            });
        }
        let align = self.w as usize * 8;
        if self.packet_size == 0 || !self.packet_size.is_multiple_of(align) {
            return Err(EcCheckError::Config {
                detail: format!(
                    "packet size {} must be a positive multiple of w*8 = {align}",
                    self.packet_size
                ),
            });
        }
        if self.pipeline_buffer == 0 {
            return Err(EcCheckError::Config {
                detail: "pipeline buffer size must be positive".to_string(),
            });
        }
        if !world_size.is_multiple_of(self.k) {
            return Err(EcCheckError::Config {
                detail: format!(
                    "world size {world_size} must divide evenly into k = {} data groups",
                    self.k
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_v_b() {
        let c = EcCheckConfig::paper_defaults();
        assert_eq!((c.k(), c.m(), c.w()), (2, 2, 8));
        assert_eq!(c.packet_size(), 64 << 20);
    }

    #[test]
    fn validate_accepts_paper_testbed() {
        let c = EcCheckConfig::paper_defaults();
        assert!(c.validate(4, 16).is_ok());
    }

    #[test]
    fn validate_rejects_mismatched_nodes() {
        let c = EcCheckConfig::paper_defaults();
        assert!(c.validate(5, 20).is_err());
    }

    #[test]
    fn validate_rejects_misaligned_packets() {
        let c = EcCheckConfig::paper_defaults().with_packet_size(100);
        assert!(c.validate(4, 16).is_err());
    }

    #[test]
    fn validate_rejects_indivisible_world() {
        let c = EcCheckConfig::paper_defaults().with_km(3, 1);
        assert!(c.validate(4, 16).is_err()); // 16 % 3 != 0
    }

    #[test]
    fn builders_chain() {
        let c = EcCheckConfig::paper_defaults()
            .with_km(3, 1)
            .with_width(4)
            .with_packet_size(320)
            .with_coding_threads(0)
            .with_fetch_retries(5)
            .with_fetch_backoff(1_000, 8_000)
            .with_pipeline_buffer(1 << 16)
            .with_pipeline_depth(1);
        assert_eq!((c.k(), c.m(), c.w()), (3, 1, 4));
        assert_eq!(c.packet_size(), 320);
        assert_eq!(c.coding_threads(), 1);
        assert_eq!(c.fetch_retries(), 5);
        assert_eq!((c.fetch_backoff_base_ns(), c.fetch_backoff_cap_ns()), (1_000, 8_000));
        assert_eq!(c.pipeline_buffer(), 1 << 16);
        assert_eq!(c.pipeline_depth(), 2, "depth clamps to a working minimum");
    }

    #[test]
    fn default_pipeline_geometry_is_usable() {
        let c = EcCheckConfig::paper_defaults();
        assert!(c.pipeline_buffer() > 0 && c.pipeline_depth() >= 2);
    }

    #[test]
    fn retention_defaults_reproduce_rotate_on_save() {
        let c = EcCheckConfig::paper_defaults();
        assert_eq!((c.retain_last(), c.retain_every()), (1, 0));
        let c = c.with_retain_last(0);
        assert_eq!(c.retain_last(), 1, "the newest version is never collectible");
        let c = c.with_retain_last(4).with_retain_every(10);
        assert_eq!((c.retain_last(), c.retain_every()), (4, 10));
    }

    #[test]
    fn validate_rejects_zero_pipeline_buffer() {
        let c = EcCheckConfig::paper_defaults().with_pipeline_buffer(0);
        assert!(c.validate(4, 16).is_err());
    }
}
