//! The fluid model's unique fixed point (§5.1, Equation 10).
//!
//! Setting the left-hand sides of Equations 6–9 to zero gives
//! `R_C = C/N` (fair share) and a single scalar equation in the marking
//! probability `p*`, which this module solves by bisection:
//!
//! * from `dα/dt = 0`:  `α* = 1 − (1−p)^{τ R}`
//! * from `dR_T/dt = 0`: `R_T − R_C = τ·R_AI·[(1−p)^{F·B} ν_B + (1−p)^{F·T·R} ν_T] / α*`
//! * substitute both into `dR_C/dt = 0` and solve for `p`.
//!
//! The paper verifies `p*` is unique and "less than 1% for reasonable
//! settings", and that the fixed-point queue sits roughly an order of
//! magnitude above K_min — both asserted in the tests.

use crate::model::rhs;
use crate::params::FluidParams;

/// The fixed point of the model for `n` flows.
#[derive(Debug, Clone, Copy)]
pub struct FixedPoint {
    /// Marking probability `p*`.
    pub p: f64,
    /// α at the fixed point.
    pub alpha: f64,
    /// Gap `R_T − R_C` in packets/second.
    pub rt_gap_pps: f64,
    /// Fair-share rate `C/N` in packets/second.
    pub rate_pps: f64,
    /// Queue at the fixed point, in packets (inverse of Equation 5).
    pub queue_pkts: f64,
}

impl FixedPoint {
    /// Queue at the fixed point in (decimal) KB.
    pub fn queue_kb(&self, params: &FluidParams) -> f64 {
        params.pkts_to_kb(self.queue_pkts)
    }
}

/// Equations 7–9 at the fair share `R_C = C/n` under marking
/// probability `p`, with α and `R_T − R_C` at their stationary values:
/// `α*` is the cut term (`dα/dt = 0`), and since `dR_T/dt` is linear in
/// the gap, its value at `R_T = R_C` gives the gap where it vanishes.
/// Returns `(α*, R_T − R_C, dR_C/dt)`; a positive `dR_C/dt` means the
/// rate would still grow.
fn stationary(params: &FluidParams, n: usize, p: f64) -> (f64, f64, f64) {
    let r = params.capacity_pps / n as f64;
    let at_rc = rhs(params, p, r, r, 0.0, 0.0);
    let alpha = at_rc.cut;
    let gap = if alpha > 0.0 {
        params.tau_cnp * at_rc.d_rt / alpha
    } else {
        f64::INFINITY
    };
    (alpha, gap, rhs(params, p, r, r, gap, alpha).d_rc)
}

/// Solves for the fixed point of the `n`-flow model by bisection on `p`.
pub fn solve(params: &FluidParams, n: usize) -> FixedPoint {
    let mut lo = 1e-9;
    let mut hi = 1.0 - 1e-9;
    // dR_C/dt is positive for tiny p (pure increase) and negative for large p
    // (pure decrease); bisect on the sign change.
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if stationary(params, n, mid).2 > 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let p = 0.5 * (lo + hi);
    let (alpha, rt_gap, _) = stationary(params, n, p);
    // Invert Equation 5 for the queue.
    let queue_pkts = if params.kmax_pkts > params.kmin_pkts {
        params.kmin_pkts + p / params.pmax * (params.kmax_pkts - params.kmin_pkts)
    } else {
        params.kmin_pkts
    };
    FixedPoint {
        p,
        alpha,
        rt_gap_pps: rt_gap,
        rate_pps: params.capacity_pps / n as f64,
        queue_pkts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FluidSim;

    #[test]
    fn p_star_is_below_one_percent() {
        // §5.1: "We verified that for reasonable settings, p is less than
        // 1%." Holds through 8:1 incast; deeper incasts pin the queue at
        // the K_max cliff (see `deep_incast_pins_at_kmax`).
        let params = FluidParams::paper_40g();
        for n in [2usize, 4, 8] {
            let fp = solve(&params, n);
            assert!(fp.p < 0.01, "N={n}: p* = {}", fp.p);
            assert!(fp.p > 0.0);
        }
    }

    #[test]
    fn deep_incast_pins_at_kmax() {
        // At 16:1 the unconstrained fixed point wants p* > P_max, which
        // the RED curve cannot deliver below K_max — the operating point
        // sits at the K_max discontinuity. (This is why the paper halves
        // R_AI for 32:1 incasts: less increase pressure lowers p*.)
        let params = FluidParams::paper_40g();
        let fp = solve(&params, 16);
        assert!(fp.p > params.pmax, "p* {} exceeds P_max", fp.p);
        let mut halved_rai = params;
        halved_rai.rai_pps /= 16.0;
        let fp2 = solve(&halved_rai, 16);
        assert!(fp2.p < fp.p, "less increase pressure lowers p*");
    }

    #[test]
    fn fixed_point_queue_is_order_of_magnitude_above_kmin() {
        // §5.2: "Fluid model predicts that the stable queue length is
        // usually one order of magnitude larger than 5KB K_min."
        let params = FluidParams::paper_40g();
        let q2 = solve(&params, 2).queue_kb(&params);
        let q8 = solve(&params, 8).queue_kb(&params);
        assert!(q2 > 4.0 * 5.0, "N=2 queue {q2} KB well above K_min");
        assert!(q8 > 10.0 * 5.0, "N=8 queue {q8} KB an order above K_min");
        assert!(q8 < 200.0, "N=8 queue {q8} KB below K_max");
        assert!(q8 > q2, "queue grows with incast degree");
    }

    #[test]
    fn more_flows_more_marking() {
        let params = FluidParams::paper_40g();
        let p2 = solve(&params, 2).p;
        let p16 = solve(&params, 16).p;
        assert!(p16 > p2, "deeper incast needs more marking: {p2} vs {p16}");
    }

    #[test]
    fn drc_brackets_the_root() {
        let params = FluidParams::paper_40g();
        assert!(stationary(&params, 2, 1e-9).2 > 0.0, "tiny p: rate grows");
        assert!(stationary(&params, 2, 0.5).2 < 0.0, "huge p: rate shrinks");
    }

    #[test]
    fn simulation_converges_to_the_fixed_point_queue() {
        // Integrate the 2-flow model and compare the settled queue with
        // the analytic fixed point (coarse agreement: same decade).
        let params = FluidParams::paper_40g();
        let fp = solve(&params, 2);
        let mut sim = FluidSim::incast(params, 2, 1e-6);
        let trace = sim.run(1.5, 1e-2);
        let q = trace.tail_mean(&trace.queue_kb, 1.0);
        let predicted = fp.queue_kb(&params);
        assert!(
            q > predicted * 0.3 && q < predicted * 3.0,
            "sim {q} KB vs fixed point {predicted} KB"
        );
    }

    #[test]
    fn fair_share_rate() {
        let params = FluidParams::paper_40g();
        let fp = solve(&params, 4);
        assert!((params.pps_to_gbps(fp.rate_pps) - 10.0).abs() < 1e-9);
    }
}
