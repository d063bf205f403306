//! Shared-buffer switch memory model with PFC threshold logic (§4 of the
//! paper, Broadcom Trident II-style).
//!
//! The switch has one pool of `total` bytes shared by all ports. For PFC,
//! every arriving packet is attributed to its *ingress* (port, priority)
//! queue; when that queue exceeds the PFC threshold `t_PFC` the switch
//! pauses the upstream device, and resumes it once the queue falls two MTUs
//! below the threshold.
//!
//! `t_PFC` is either **static** or **dynamic**:
//!
//! ```text
//! dynamic:  t_PFC = β · (B − 8·n·t_flight − s) / 8
//! ```
//!
//! where `B` is the pool size, `n` the port count, `t_flight` the reserved
//! per-(port, priority) headroom, `s` the bytes currently occupied, and 8 the
//! number of PFC priorities — exactly the rule the paper configures with
//! β = 8. A large β pauses late (giving ECN room to act first); a small β
//! pauses aggressively.

use crate::packet::NUM_PRIORITIES;
use crate::units::checked::{checked_accum, checked_drain, scale_bytes};

/// The switch MTU in bytes, used for the resume hysteresis (resume at
/// `t_PFC − 2·MTU`).
pub const MTU_BYTES: u64 = 1500;

/// Dynamic-alpha factor for the lossy-mode (PFC off) per-egress-queue
/// drop limit: a queue may hold at most `LOSSY_ALPHA · (B − s)` bytes.
/// Broadcom-style lossy configs default to small fractions; 1/16 of the
/// free pool approximates a production lossy profile.
const LOSSY_ALPHA: f64 = 1.0 / 16.0;

/// PFC threshold policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PfcThreshold {
    /// Fixed byte threshold per ingress (port, priority) queue. The paper's
    /// "misconfigured" experiment uses the static upper bound 24.47 KB.
    Static(u64),
    /// Trident II dynamic threshold with parameter β.
    Dynamic {
        /// The β factor: larger pauses later.
        beta: f64,
    },
}

/// Configuration of a shared buffer.
#[derive(Debug, Clone, Copy)]
pub struct BufferConfig {
    /// Total shared pool in bytes (12 MB on the paper's switches).
    pub total_bytes: u64,
    /// Number of ports (32 on the paper's switches).
    pub num_ports: usize,
    /// Reserved headroom per (port, priority) in bytes (`t_flight`,
    /// 22.4 KB in the paper).
    pub headroom_bytes: u64,
    /// PFC threshold policy.
    pub threshold: PfcThreshold,
}

impl BufferConfig {
    /// The paper's testbed switch: Arista 7050QX32 (Trident II), 32 × 40G
    /// ports, 12 MB shared buffer, 8 PFC priorities, β = 8.
    pub fn trident2() -> BufferConfig {
        BufferConfig {
            total_bytes: 12_000_000,
            num_ports: 32,
            headroom_bytes: 22_400,
            threshold: PfcThreshold::Dynamic { beta: 8.0 },
        }
    }

    /// Bytes of pool left after reserving headroom for every (port,
    /// priority): `B − 8·n·t_flight` (saturating).
    pub fn shared_pool(&self) -> u64 {
        self.total_bytes
            .saturating_sub(NUM_PRIORITIES as u64 * self.num_ports as u64 * self.headroom_bytes)
    }
}

/// Runtime shared-buffer state: total occupancy plus per-(port, priority)
/// ingress attribution.
#[derive(Debug, Clone)]
pub struct SharedBuffer {
    config: BufferConfig,
    /// Total bytes currently buffered (`s` in the paper's formula).
    occupied: u64,
    /// The highest `occupied` any admit reached.
    peak: u64,
    /// Ingress bytes per (port, priority).
    ingress: Vec<[u64; NUM_PRIORITIES]>,
}

impl SharedBuffer {
    /// Creates an empty buffer.
    pub fn new(config: BufferConfig) -> SharedBuffer {
        SharedBuffer {
            ingress: vec![[0; NUM_PRIORITIES]; config.num_ports],
            occupied: 0,
            peak: 0,
            config,
        }
    }

    /// The configuration this buffer was built with.
    pub fn config(&self) -> &BufferConfig {
        &self.config
    }

    /// Bytes currently occupied (the paper's `s`).
    pub fn occupied(&self) -> u64 {
        self.occupied
    }

    /// The highest occupancy an admit reached: the run's buffer
    /// high-water mark (the report's `peak_buffer_bytes`).
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Current ingress occupancy of one (port, priority) queue.
    pub(crate) fn ingress_bytes(&self, port: usize, prio: usize) -> u64 {
        self.ingress[port][prio]
    }

    /// The `(ingress occupancy, t_PFC)` pair justifying a PAUSE/RESUME
    /// decision on ingress `(port, prio)` right now — recorded on the
    /// causal tracer's pause-propagation edges so a congestion tree can
    /// show *how full* the root port was when it first paused.
    pub(crate) fn pause_detail(&self, port: usize, prio: usize) -> (u64, u64) {
        (self.ingress_bytes(port, prio), self.pfc_threshold())
    }

    /// The PFC threshold `t_PFC` under the current occupancy.
    pub fn pfc_threshold(&self) -> u64 {
        match self.config.threshold {
            PfcThreshold::Static(t) => t,
            PfcThreshold::Dynamic { beta } => {
                let per_class = beta / NUM_PRIORITIES as f64;
                let free = self.config.shared_pool().saturating_sub(self.occupied);
                scale_bytes(free, per_class)
            }
        }
    }

    /// Sum of every per-(port, priority) ingress count. Conservation
    /// invariant (checked by the `sanitize` auditor): this always equals
    /// [`SharedBuffer::occupied`].
    pub(crate) fn ingress_total(&self) -> u64 {
        let mut total = 0u64;
        for port in &self.ingress {
            for &b in port {
                total = total.saturating_add(b);
            }
        }
        total
    }

    /// Test/audit-only corruption hook: overwrites the global occupancy
    /// without touching the ingress attribution, deliberately breaking the
    /// conservation invariant so auditor tests can prove it is caught.
    #[cfg(feature = "sanitize")]
    pub fn debug_set_occupied(&mut self, bytes: u64) {
        self.occupied = bytes;
    }

    /// Tries to buffer `bytes` arriving on ingress (port, priority).
    /// Returns false (drop) when the pool is exhausted. The addition is
    /// checked: a `bytes` large enough to wrap `u64` is a drop, not a
    /// debug-panic/silent-wrap.
    pub fn admit(&mut self, port: usize, prio: usize, bytes: u64) -> bool {
        match self.occupied.checked_add(bytes) {
            Some(total) if total <= self.config.total_bytes => {
                self.occupied = total;
                self.peak = self.peak.max(total);
                // Bounded by `occupied ≤ total_bytes`, so this cannot
                // actually overflow; checked anyway per counter policy.
                let ok = checked_accum(&mut self.ingress[port][prio], bytes);
                debug_assert!(ok, "ingress accumulate overflow");
                true
            }
            _ => false,
        }
    }

    /// Releases `bytes` previously admitted for ingress (port, priority)
    /// (the packet finished transmitting out of the switch, or was dropped
    /// at egress). An unbalanced release (more than was admitted) leaves
    /// the counters untouched rather than wrapping; the `sanitize`
    /// auditor's conservation check then reports the imbalance.
    pub fn release(&mut self, port: usize, prio: usize, bytes: u64) {
        let ing_ok = checked_drain(&mut self.ingress[port][prio], bytes);
        debug_assert!(ing_ok, "release underflow");
        let occ_ok = checked_drain(&mut self.occupied, bytes);
        debug_assert!(occ_ok, "occupancy underflow");
    }

    /// Should the switch send PAUSE for this ingress (port, priority)?
    pub fn should_pause(&self, port: usize, prio: usize) -> bool {
        self.ingress[port][prio] > self.pfc_threshold()
    }

    /// Should the switch send RESUME for a currently paused ingress
    /// (port, priority)? The paper: "the switch sends RESUME when the queue
    /// falls below `t_PFC` by two MTU".
    pub(crate) fn should_resume(&self, port: usize, prio: usize) -> bool {
        let t = self.pfc_threshold();
        self.ingress[port][prio].saturating_add(2 * MTU_BYTES) <= t
    }

    /// Per-egress-queue drop limit when PFC is disabled (lossy mode):
    /// a dynamic-alpha style cap of the remaining free pool.
    pub(crate) fn lossy_egress_limit(&self) -> u64 {
        let free = self.config.total_bytes.saturating_sub(self.occupied);
        scale_bytes(free, LOSSY_ALPHA)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::bytes::{kb, mb};

    #[test]
    fn trident2_matches_paper_constants() {
        let c = BufferConfig::trident2();
        assert_eq!(c.total_bytes, mb(12));
        assert_eq!(c.num_ports, 32);
        // 8 · 32 · 22.4 KB = 5734.4 KB of headroom; pool = 6265.6 KB.
        assert_eq!(c.shared_pool(), mb(12) - 8 * 32 * 22_400);
        assert_eq!(c.shared_pool(), 6_265_600);
    }

    #[test]
    fn dynamic_threshold_shrinks_with_occupancy() {
        let mut b = SharedBuffer::new(BufferConfig::trident2());
        let empty = b.pfc_threshold();
        // β = 8: at s = 0, t_PFC = shared_pool (β/8 = 1).
        assert_eq!(empty, b.config().shared_pool());
        assert!(b.admit(0, 3, mb(4)));
        let loaded = b.pfc_threshold();
        assert_eq!(loaded, b.config().shared_pool() - mb(4));
        assert!(loaded < empty);
    }

    #[test]
    fn static_threshold_is_constant() {
        let mut cfg = BufferConfig::trident2();
        cfg.threshold = PfcThreshold::Static(kb(24));
        let mut b = SharedBuffer::new(cfg);
        assert_eq!(b.pfc_threshold(), kb(24));
        b.admit(0, 3, mb(6));
        assert_eq!(b.pfc_threshold(), kb(24));
    }

    #[test]
    fn peak_is_the_high_water_of_admits() {
        let mut cfg = BufferConfig::trident2();
        cfg.total_bytes = 4000;
        let mut b = SharedBuffer::new(cfg);
        assert!(b.admit(0, 3, 3000));
        b.release(0, 3, 3000);
        assert!(b.admit(0, 3, 1000));
        assert_eq!(b.peak(), 3000, "a release does not lower the peak");
        assert!(!b.admit(0, 3, 3500), "over the pool");
        assert_eq!(b.peak(), 3000, "a refused admit does not raise it");
    }

    #[test]
    fn admit_and_release_are_balanced() {
        let mut b = SharedBuffer::new(BufferConfig::trident2());
        assert!(b.admit(3, 3, 1500));
        assert!(b.admit(3, 3, 1500));
        assert!(b.admit(4, 0, 64));
        assert_eq!(b.occupied(), 3064);
        assert_eq!(b.ingress_bytes(3, 3), 3000);
        assert_eq!(b.ingress_bytes(4, 0), 64);
        b.release(3, 3, 1500);
        b.release(4, 0, 64);
        assert_eq!(b.occupied(), 1500);
        assert_eq!(b.ingress_bytes(3, 3), 1500);
    }

    #[test]
    fn admission_fails_when_pool_full() {
        let mut cfg = BufferConfig::trident2();
        cfg.total_bytes = 3000;
        let mut b = SharedBuffer::new(cfg);
        assert!(b.admit(0, 0, 1500));
        assert!(b.admit(0, 0, 1500));
        assert!(!b.admit(0, 0, 1));
        b.release(0, 0, 1500);
        assert!(b.admit(0, 0, 1500));
    }

    #[test]
    fn pause_and_resume_hysteresis() {
        let mut cfg = BufferConfig::trident2();
        cfg.threshold = PfcThreshold::Static(kb(24));
        let mut b = SharedBuffer::new(cfg);
        assert!(!b.should_pause(0, 3));
        b.admit(0, 3, kb(24) + 1);
        assert!(b.should_pause(0, 3));
        // Resume requires dropping 2 MTU below the threshold.
        b.release(0, 3, 1);
        assert!(!b.should_resume(0, 3)); // exactly at threshold
        b.release(0, 3, 2 * 1500);
        assert!(b.should_resume(0, 3));
    }

    #[test]
    fn dynamic_resume_accounts_for_current_occupancy() {
        let mut b = SharedBuffer::new(BufferConfig::trident2());
        // Fill most of the pool from another port so the threshold is tiny.
        let pool = b.config().shared_pool();
        assert!(b.admit(1, 3, pool - kb(10)));
        assert_eq!(b.pfc_threshold(), kb(10));
        b.admit(0, 3, kb(11));
        assert!(b.should_pause(0, 3));
        assert!(!b.should_resume(0, 3));
        // Draining the *other* port raises the threshold and unblocks us.
        b.release(1, 3, pool - kb(10));
        assert!(!b.should_pause(0, 3));
        assert!(b.should_resume(0, 3));
    }

    #[test]
    fn lossy_limit_shrinks_with_occupancy() {
        let mut b = SharedBuffer::new(BufferConfig::trident2());
        let l0 = b.lossy_egress_limit();
        assert_eq!(l0, mb(12) / 16);
        b.admit(0, 3, mb(8));
        assert_eq!(b.lossy_egress_limit(), mb(4) / 16);
    }

    #[test]
    fn ingress_total_tracks_occupied() {
        let mut b = SharedBuffer::new(BufferConfig::trident2());
        assert_eq!(b.ingress_total(), 0);
        assert!(b.admit(0, 3, 1500));
        assert!(b.admit(5, 1, 64));
        assert!(b.admit(31, 7, kb(20)));
        assert_eq!(b.ingress_total(), b.occupied());
        b.release(5, 1, 64);
        assert_eq!(b.ingress_total(), b.occupied());
    }

    #[test]
    fn unbalanced_release_does_not_wrap() {
        let mut b = SharedBuffer::new(BufferConfig::trident2());
        assert!(b.admit(0, 3, 100));
        // Debug builds assert; release builds must not wrap to ~u64::MAX.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            b.release(0, 3, 200);
        }));
        if result.is_ok() {
            assert!(b.occupied() <= 100, "no wraparound on bad release");
        }
    }

    #[test]
    fn admit_rejects_sizes_that_would_overflow_u64() {
        // A request near u64::MAX must be a clean drop — not a wrapping
        // add that sneaks past the pool check (or a debug-build panic).
        let mut b = SharedBuffer::new(BufferConfig::trident2());
        assert!(b.admit(0, 3, kb(10)));
        let before = b.occupied();
        assert!(!b.admit(0, 3, u64::MAX));
        assert!(!b.admit(1, 0, u64::MAX - before + 1));
        assert_eq!(b.occupied(), before, "rejected admits must not mutate");
        assert_eq!(b.ingress_bytes(1, 0), 0);
        // A merely-too-large (non-overflowing) request is also rejected.
        assert!(!b.admit(0, 3, b.config().total_bytes));
        assert_eq!(b.occupied(), before);
    }
}
