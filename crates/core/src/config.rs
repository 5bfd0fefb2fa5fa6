use ecc_erasure::ScheduleKind;

use crate::EcCheckError;

/// How [`crate::EcCheck::save`] executes (paper §IV).
///
/// Both modes store byte-identical blobs — the differential suite in
/// `tests/pipeline_differential.rs` holds them to that — so the choice
/// only affects *how* the work is scheduled, never what lands on the
/// cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaveMode {
    /// One monolithic pass: pack, build chunks, encode, then place. The
    /// oracle the pipelined executor is differentially tested against.
    Sequential,
    /// The paper's checkpoint coding pipeline: fixed-size stripes stream
    /// through encode → XOR-reduce → transfer stages on worker threads,
    /// with transfers gated into profiled network idle slots.
    Pipelined,
}

/// Tunables of the ECCheck system.
///
/// # Examples
///
/// ```
/// use eccheck::EcCheckConfig;
///
/// // The paper's settings (§V-B): k = 2, m = 2, GF(2^8), 64 MB buffers,
/// // 12 data + 24 encoding buffers per worker.
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
    schedule: ScheduleKind,
    use_idle_slots: bool,
    fetch_retries: usize,
    fetch_backoff_base_ns: u64,
    fetch_backoff_cap_ns: u64,
    save_mode: SaveMode,
    pipeline_buffer: usize,
    pipeline_depth: usize,
    retain_last: usize,
    retain_every: u64,
    fail_encode_task: Option<u64>,
}

impl EcCheckConfig {
    /// The paper's experimental settings (§V-B): `k = m = 2` over
    /// GF(2^8), 64 MB packets, idle-slot scheduling on. The paper's
    /// low-frequency remote copy (step 4) is not a config knob: attach
    /// a [`crate::store::Drainer`] or call
    /// [`crate::store::drain_version`] from the training loop.
    pub fn paper_defaults() -> Self {
        Self {
            k: 2,
            m: 2,
            w: 8,
            packet_size: 64 << 20,
            coding_threads: 8,
            schedule: ScheduleKind::Smart,
            use_idle_slots: true,
            fetch_retries: 2,
            fetch_backoff_base_ns: 200_000,
            fetch_backoff_cap_ns: 50_000_000,
            save_mode: SaveMode::Pipelined,
            pipeline_buffer: 4 << 20,
            pipeline_depth: 8,
            retain_last: 1,
            retain_every: 0,
            fail_encode_task: None,
        }
    }

    /// Fail point for chaos tests: the pipelined executor's encode
    /// worker that picks up global task `n` (0-based, in pick-up order)
    /// panics mid-steal, exercising the executor's clean-failure path.
    /// Applies to every pipelined save made with this config.
    #[doc(hidden)]
    pub fn with_fail_encode_task(mut self, n: u64) -> Self {
        self.fail_encode_task = Some(n);
        self
    }

    /// Disarms the encode-worker fail point.
    #[doc(hidden)]
    pub fn without_fail_encode_task(mut self) -> Self {
        self.fail_encode_task = None;
        self
    }

    /// The injected encode-worker fail point, if any.
    #[doc(hidden)]
    pub fn fail_encode_task(&self) -> Option<u64> {
        self.fail_encode_task
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

    /// Overrides the XOR schedule kind.
    pub fn with_schedule(mut self, schedule: ScheduleKind) -> Self {
        self.schedule = schedule;
        self
    }

    /// Enables or disables idle-slot communication scheduling.
    pub fn with_idle_slots(mut self, on: bool) -> Self {
        self.use_idle_slots = on;
        self
    }

    /// Overrides how the save path executes (default: pipelined).
    pub fn with_save_mode(mut self, mode: SaveMode) -> Self {
        self.save_mode = mode;
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

    /// Packet/buffer size in bytes.
    pub fn packet_size(&self) -> usize {
        self.packet_size
    }

    /// Coding thread-pool size.
    pub fn coding_threads(&self) -> usize {
        self.coding_threads
    }

    /// XOR schedule kind.
    pub fn schedule(&self) -> ScheduleKind {
        self.schedule
    }

    /// Whether checkpoint communication defers to network idle slots.
    pub fn use_idle_slots(&self) -> bool {
        self.use_idle_slots
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

    /// How the save path executes.
    pub fn save_mode(&self) -> SaveMode {
        self.save_mode
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
        assert!(c.use_idle_slots());
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
            .with_idle_slots(false)
            .with_fetch_retries(5)
            .with_fetch_backoff(1_000, 8_000)
            .with_save_mode(SaveMode::Sequential)
            .with_pipeline_buffer(1 << 16)
            .with_pipeline_depth(1);
        assert_eq!((c.k(), c.m(), c.w()), (3, 1, 4));
        assert_eq!(c.packet_size(), 320);
        assert_eq!(c.coding_threads(), 1);
        assert!(!c.use_idle_slots());
        assert_eq!(c.fetch_retries(), 5);
        assert_eq!((c.fetch_backoff_base_ns(), c.fetch_backoff_cap_ns()), (1_000, 8_000));
        assert_eq!(c.save_mode(), SaveMode::Sequential);
        assert_eq!(c.pipeline_buffer(), 1 << 16);
        assert_eq!(c.pipeline_depth(), 2, "depth clamps to a working minimum");
    }

    #[test]
    fn default_save_mode_is_pipelined() {
        let c = EcCheckConfig::paper_defaults();
        assert_eq!(c.save_mode(), SaveMode::Pipelined);
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
