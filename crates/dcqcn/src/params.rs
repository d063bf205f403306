//! DCQCN protocol parameters.
//!
//! Two canonical sets:
//!
//! * [`DcqcnParams::paper`] — the deployed values of Figure 14 (derived from
//!   the fluid-model analysis of §5),
//! * [`DcqcnParams::strawman`] — the QCN/DCTCP-recommended values §5.2
//!   starts from and shows to be non-convergent.
//!
//! Plus the CP (switch RED) presets used throughout the evaluation.

use netsim::ecn::RedConfig;
use netsim::units::{bytes, Bandwidth, Duration};

/// Rate-increase step sizes and timers of the DCQCN reaction point, and the
/// NP's CNP pacing interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DcqcnParams {
    /// EWMA gain `g` for α (Equation 1). Deployed: 1/256.
    pub g: f64,
    /// NP CNP generation interval `N` (one CNP per flow per interval at
    /// most). Deployed: [`netsim::cc::CNP_INTERVAL`].
    pub cnp_interval: Duration,
    /// RP α-decay timer `K` (Equation 2 fires when no CNP arrives for this
    /// long). Must exceed `cnp_interval`. Deployed: 55 µs.
    pub alpha_timer: Duration,
    /// RP rate-increase timer `T`. Deployed: 55 µs (the strawman's 1.5 ms
    /// is what breaks convergence).
    pub rate_timer: Duration,
    /// RP byte counter `B`: one increase event per this many sent bytes.
    /// Deployed: 10 MB.
    pub byte_counter: u64,
    /// Fast-recovery steps `F` before additive increase. Fixed at 5.
    pub fast_recovery_steps: u32,
    /// Additive increase step `R_AI`. Deployed: 40 Mbps.
    pub rai: Bandwidth,
    /// Hyper increase step `R_HAI` (after `F` timer *and* byte-counter
    /// expirations). 10 × `R_AI` per the QCN lineage.
    pub rhai: Bandwidth,
    /// Floor on the sending rate.
    pub min_rate: Bandwidth,
}

impl DcqcnParams {
    /// The deployed parameters of Figure 14.
    pub fn paper() -> DcqcnParams {
        DcqcnParams {
            g: 1.0 / 256.0,
            cnp_interval: netsim::cc::CNP_INTERVAL,
            alpha_timer: Duration::from_micros(55),
            rate_timer: Duration::from_micros(55),
            byte_counter: bytes::mb(10),
            fast_recovery_steps: 5,
            rai: Bandwidth::mbps(40),
            rhai: Bandwidth::mbps(400),
            min_rate: Bandwidth::mbps(10),
        }
    }

    /// The strawman §5.2 starts from: QCN-recommended byte counter
    /// (150 KB) and timer (1.5 ms), DCTCP-recommended g = 1/16.
    pub fn strawman() -> DcqcnParams {
        DcqcnParams {
            g: 1.0 / 16.0,
            byte_counter: bytes::kb(150),
            rate_timer: Duration::from_millis(1) + Duration::from_micros(500),
            ..DcqcnParams::paper()
        }
    }

    /// Paper parameters with a different rate-increase timer (Fig 11b/13b).
    pub fn with_timer(mut self, t: Duration) -> DcqcnParams {
        self.rate_timer = t;
        self
    }

    /// Paper parameters with a different byte counter (Fig 11a).
    pub fn with_byte_counter(mut self, b: u64) -> DcqcnParams {
        self.byte_counter = b;
        self
    }

    /// Paper parameters with a different g (Fig 12).
    pub fn with_g(mut self, g: f64) -> DcqcnParams {
        self.g = g;
        self
    }
}

/// The deployed CP (switch RED) configuration of Figure 14:
/// K_min = 5 KB, K_max = 200 KB, P_max = 1 %.
pub fn red_deployed() -> RedConfig {
    RedConfig {
        kmin_bytes: bytes::kb(5),
        kmax_bytes: bytes::kb(200),
        pmax: 0.01,
    }
}

/// DCTCP-like cut-off marking at the strawman threshold (§5.2:
/// K_min = K_max = 40 KB, P_max = 1).
pub fn red_cutoff_strawman() -> RedConfig {
    RedConfig::cutoff(bytes::kb(40))
}

/// The §6.3 DCTCP comparison threshold: 160 KB cut-off per the DCTCP
/// guidelines at 40 Gbps.
pub fn red_cutoff_dctcp_40g() -> RedConfig {
    RedConfig::cutoff(bytes::kb(160))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_timer_exceeds_cnp_interval() {
        // §5: "These values need to be larger than CNP generation interval
        // to prevent unwarranted rate increases between successive CNPs."
        let p = DcqcnParams::paper();
        assert!(p.alpha_timer > p.cnp_interval);
        assert!(p.rate_timer >= p.cnp_interval);
    }

    #[test]
    fn strawman_differs_where_the_paper_says() {
        let s = DcqcnParams::strawman();
        let p = DcqcnParams::paper();
        assert_eq!(s.byte_counter, 150_000);
        assert_eq!(s.rate_timer, Duration::from_micros(1500));
        assert_eq!(s.g, 1.0 / 16.0);
        // Everything else matches the deployed set.
        assert_eq!(s.cnp_interval, p.cnp_interval);
        assert_eq!(s.rai, p.rai);
    }

    #[test]
    fn builders_override_single_fields() {
        let p = DcqcnParams::paper()
            .with_timer(Duration::from_micros(300))
            .with_byte_counter(1_000_000)
            .with_g(1.0 / 16.0);
        assert_eq!(p.rate_timer, Duration::from_micros(300));
        assert_eq!(p.byte_counter, 1_000_000);
        assert_eq!(p.g, 1.0 / 16.0);
        assert_eq!(p.rai, Bandwidth::mbps(40));
    }

    #[test]
    fn cutoff_presets() {
        let s = red_cutoff_strawman();
        assert_eq!(s.kmin_bytes, s.kmax_bytes);
        assert_eq!(s.pmax, 1.0);
        assert_eq!(red_cutoff_dctcp_40g().kmin_bytes, 160_000);
    }
}
