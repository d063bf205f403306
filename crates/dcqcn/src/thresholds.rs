//! The §4 buffer-threshold engineering: `t_flight`, `t_PFC`, `t_ECN`.
//!
//! Correct DCQCN operation needs two guarantees at every switch:
//!
//! 1. PFC must not fire *before* ECN has had a chance to mark (otherwise
//!    congestion spreads before the end-to-end loop reacts), and
//! 2. PFC must fire *before* the buffer overflows (losslessness).
//!
//! This module reproduces the paper's worst-case arithmetic for a
//! shared-buffer switch with `n` ports and 8 PFC priorities, and computes
//! the feasible ECN threshold for both the static and the dynamic-β PFC
//! threshold.

use netsim::buffer::BufferConfig;
use netsim::packet::NUM_PRIORITIES;
use netsim::units::{Bandwidth, Duration};

/// Worst-case headroom (`t_flight`) a PAUSE sender must reserve per
/// (port, priority), following the 802.1Qbb guidelines the paper cites:
/// the in-flight bytes of a round trip on the cable, one maximum-size frame
/// that the upstream device had already started transmitting, one
/// maximum-size frame that *we* may be busy transmitting when the PAUSE is
/// due (delaying it), the PAUSE frame itself, and the upstream response
/// time (2 PFC quanta of 512 bit times).
pub fn headroom_bytes(bandwidth: Bandwidth, one_way_delay: Duration, mtu: u64) -> u64 {
    let bytes_per_sec = bandwidth.0 as f64 / 8.0;
    let rtt_bytes = (2.0 * one_way_delay.as_secs_f64() * bytes_per_sec) as u64;
    let quanta_bytes = 2 * 512 / 8; // 2 × 512-bit PFC quanta
    rtt_bytes + 2 * mtu + 64 + quanta_bytes
}

/// The static upper bound on `t_PFC`:
/// `(B − 8·n·t_flight) / (8·n)` — every (port, priority) pair must be able
/// to sit at the threshold simultaneously without exhausting the pool.
pub fn static_pfc_bound(cfg: &BufferConfig) -> u64 {
    cfg.shared_pool() / (NUM_PRIORITIES as u64 * cfg.num_ports as u64)
}

/// The infeasible naive ECN bound under the static `t_PFC`:
/// `t_ECN < t_PFC / n` (worst case: all egress queues fed by one ingress).
/// For the paper's switch this is ~0.76 KB — less than one MTU, hence the
/// move to dynamic thresholds.
pub fn naive_ecn_bound(cfg: &BufferConfig) -> u64 {
    static_pfc_bound(cfg) / cfg.num_ports as u64
}

/// The feasible ECN bound under the dynamic threshold
/// `t_PFC = β (B − 8·n·t_flight − s) / 8`:
///
/// just before ECN triggers anywhere, `s ≤ n·t_ECN`, so requiring
/// `t_PFC > n·t_ECN` at that point yields
/// `t_ECN < β (B − 8·n·t_flight) / (8·n·(β + 1))`.
pub fn dynamic_ecn_bound(cfg: &BufferConfig, beta: f64) -> u64 {
    let pool = cfg.shared_pool() as f64;
    (beta * pool / (8.0 * cfg.num_ports as f64 * (beta + 1.0))) as u64
}

/// A summary of the §4 threshold derivation for a given switch, suitable
/// for printing (the `sec4` experiment) and asserting (tests).
#[derive(Debug, Clone, Copy)]
pub struct ThresholdReport {
    /// Reserved headroom per (port, priority).
    pub t_flight: u64,
    /// Static `t_PFC` upper bound.
    pub t_pfc_static: u64,
    /// Naive (infeasible) static ECN bound.
    pub t_ecn_naive: u64,
    /// Dynamic-β ECN bound.
    pub t_ecn_dynamic: u64,
    /// The β used.
    pub beta: f64,
}

/// Computes the full report for a switch configuration.
pub fn report(cfg: &BufferConfig, beta: f64) -> ThresholdReport {
    ThresholdReport {
        t_flight: cfg.headroom_bytes,
        t_pfc_static: static_pfc_bound(cfg),
        t_ecn_naive: naive_ecn_bound(cfg),
        t_ecn_dynamic: dynamic_ecn_bound(cfg, beta),
        beta,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn larger_beta_leaves_more_ecn_room() {
        let cfg = BufferConfig::trident2();
        let b1 = dynamic_ecn_bound(&cfg, 1.0);
        let b8 = dynamic_ecn_bound(&cfg, 8.0);
        let b64 = dynamic_ecn_bound(&cfg, 64.0);
        assert!(b1 < b8 && b8 < b64);
        // And the bound approaches pool/(8n) as β → ∞.
        assert!(b64 < static_pfc_bound(&cfg));
    }

    #[test]
    fn deployed_kmin_is_below_the_dynamic_bound() {
        // The deployed K_min = 5 KB must satisfy the §4 constraint.
        let bound = dynamic_ecn_bound(&BufferConfig::trident2(), 8.0);
        assert!(crate::params::red_deployed().kmin_bytes < bound);
    }

    #[test]
    fn headroom_formula_magnitude() {
        // At 40 Gbps with a 1.5 µs one-way cable + processing delay the
        // worst case is ~ the paper's 22.4 KB figure.
        let h = headroom_bytes(Bandwidth::gbps(40), Duration::from_nanos(1900), 1500);
        assert!((20_000..25_000).contains(&h), "headroom = {h} bytes");
        // Faster links need more headroom.
        let h100 = headroom_bytes(Bandwidth::gbps(100), Duration::from_nanos(1900), 1500);
        assert!(h100 > h);
    }

    #[test]
    fn headroom_grows_with_cable_length() {
        let short = headroom_bytes(Bandwidth::gbps(40), Duration::from_nanos(500), 1500);
        let long = headroom_bytes(Bandwidth::gbps(40), Duration::from_micros(5), 1500);
        assert!(long > short);
    }
}
