//! Parameter sweeps over the two-flow fluid model — the machinery behind
//! Figures 11 (convergence surfaces) and 12 (g vs queue stability).
//!
//! Following §5.2, every sweep solves a two-flow system where one flow
//! starts at the 40 Gbps line rate and the other at ~0, and reports the
//! throughput difference |R₁ − R₂| over the first 200 ms (lower is better
//! convergence). Figure 12 instead integrates the N-flow incast model and
//! reports queue-length statistics for different g.

use crate::model::{FlowState, FluidSim, FluidTrace};
use crate::params::FluidParams;
use dcqcn::params::{red_deployed, DcqcnParams};
use netsim::ecn::RedConfig;
use netsim::units::{Bandwidth, Duration};

/// Integration step for sweeps (1 µs resolves the 50 µs loop delay).
pub const SWEEP_DT: f64 = 1e-6;

/// One sweep point: the parameter value and the |R₁−R₂| series.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The swept parameter's value (units depend on the sweep).
    pub value: f64,
    /// Sample times (seconds).
    pub times: Vec<f64>,
    /// |R₁ − R₂| in Gbps at each sample.
    pub diff_gbps: Vec<f64>,
    /// Mean |R₁ − R₂| over the last quarter of the horizon — the scalar
    /// convergence score (lower is better).
    pub tail_diff_gbps: f64,
}

/// Runs the two-flow convergence experiment for one configuration.
pub fn two_flow_convergence(
    proto: &DcqcnParams,
    red: &RedConfig,
    bottleneck: Bandwidth,
    horizon_s: f64,
) -> (FluidTrace, f64) {
    let params = FluidParams::from_protocol(proto, red, bottleneck, 1500);
    let c = params.capacity_pps;
    let min = params.min_rate_pps;
    let mut sim = FluidSim::new(
        params,
        vec![FlowState::new(0.0, c), FlowState::new(0.0, min)],
        SWEEP_DT,
    );
    let trace = sim.run(horizon_s, 1e-3);
    let diff = trace.rate_diff_gbps();
    let tail = trace.tail_mean(&diff, horizon_s * 0.75);
    (trace, tail)
}

fn point(proto: &DcqcnParams, red: &RedConfig, value: f64, horizon_s: f64) -> SweepPoint {
    let (trace, tail) = two_flow_convergence(proto, red, Bandwidth::gbps(40), horizon_s);
    SweepPoint {
        value,
        diff_gbps: trace.rate_diff_gbps(),
        times: trace.times,
        tail_diff_gbps: tail,
    }
}

/// Figure 11(a): sweep the byte counter (in KB) with strawman parameters.
pub fn sweep_byte_counter(values_kb: &[u64], horizon_s: f64) -> Vec<SweepPoint> {
    let red = dcqcn::params::red_cutoff_strawman();
    values_kb
        .iter()
        .map(|&kb| {
            let proto = DcqcnParams::strawman().with_byte_counter(kb * 1000);
            point(&proto, &red, kb as f64, horizon_s)
        })
        .collect()
}

/// Figure 11(b): sweep the rate-increase timer (µs) with the deployed
/// byte counter B (so the timer dominates).
pub fn sweep_timer(values_us: &[u64], horizon_s: f64) -> Vec<SweepPoint> {
    let red = dcqcn::params::red_cutoff_strawman();
    values_us
        .iter()
        .map(|&us| {
            let proto = DcqcnParams::strawman()
                .with_byte_counter(DcqcnParams::paper().byte_counter)
                .with_timer(Duration::from_micros(us));
            point(&proto, &red, us as f64, horizon_s)
        })
        .collect()
}

/// Figure 11(c): sweep K_max (KB) with strawman rate parameters and the
/// deployed K_min and P_max.
pub fn sweep_kmax(values_kb: &[u64], horizon_s: f64) -> Vec<SweepPoint> {
    values_kb
        .iter()
        .map(|&kb| {
            let proto = DcqcnParams::strawman();
            let red = RedConfig {
                kmax_bytes: kb * 1000,
                ..red_deployed()
            };
            point(&proto, &red, kb as f64, horizon_s)
        })
        .collect()
}

/// Figure 11(d): sweep P_max with the deployed K_min and K_max.
pub fn sweep_pmax(values: &[f64], horizon_s: f64) -> Vec<SweepPoint> {
    values
        .iter()
        .map(|&pmax| {
            let proto = DcqcnParams::strawman();
            let red = RedConfig {
                pmax,
                ..red_deployed()
            };
            point(&proto, &red, pmax, horizon_s)
        })
        .collect()
}

/// Figure 12: queue trace of an `n`:1 incast under gain `g`.
pub fn g_queue_trace(g: f64, n: usize, horizon_s: f64) -> FluidTrace {
    let proto = DcqcnParams::paper().with_g(g);
    let params = FluidParams::from_protocol(&proto, &red_deployed(), Bandwidth::gbps(40), 1500);
    let mut sim = FluidSim::incast(params, n, SWEEP_DT);
    sim.run(horizon_s, 1e-3)
}

/// Queue stability summary for Figure 12: (mean, standard deviation) of
/// the queue in KB over the settled tail.
pub fn queue_stats(trace: &FluidTrace, from: f64) -> (f64, f64) {
    let vals: Vec<f64> = trace
        .times
        .iter()
        .zip(&trace.queue_kb)
        .filter(|(t, _)| **t >= from)
        .map(|(_, q)| *q)
        .collect();
    if vals.is_empty() {
        return (0.0, 0.0);
    }
    let mean = vals.iter().sum::<f64>() / vals.len() as f64;
    let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// §5.2's headline: with strawman parameters the flows do NOT
    /// converge; speeding up the timer fixes it.
    #[test]
    fn strawman_diverges_fast_timer_converges() {
        let red = dcqcn::params::red_cutoff_strawman();
        let (_, strawman_diff) =
            two_flow_convergence(&DcqcnParams::strawman(), &red, Bandwidth::gbps(40), 0.2);
        let paper = DcqcnParams::paper();
        let fast = DcqcnParams::strawman()
            .with_byte_counter(paper.byte_counter)
            .with_timer(paper.rate_timer);
        let (_, fast_diff) = two_flow_convergence(&fast, &red, Bandwidth::gbps(40), 0.2);
        assert!(
            strawman_diff > 2.0 * fast_diff,
            "strawman {strawman_diff:.1} vs fast timer {fast_diff:.1} Gbps"
        );
        assert!(fast_diff < 8.0, "fast timer converges: {fast_diff:.1}");
    }

    /// Figure 11(c)/(d)'s intuition: RED-like probabilistic marking with a
    /// small P_max converges where DCTCP-style cut-off marking does not,
    /// even with the slow strawman timer ("we increase the likelihood that
    /// the larger flow will get more CNPs, and hence back off faster").
    #[test]
    fn red_like_marking_improves_convergence() {
        let cutoff = dcqcn::params::red_cutoff_strawman();
        let red = red_deployed();
        let proto = DcqcnParams::strawman();
        let (_, cutoff_diff) = two_flow_convergence(&proto, &cutoff, Bandwidth::gbps(40), 0.4);
        let (_, red_diff) = two_flow_convergence(&proto, &red, Bandwidth::gbps(40), 0.4);
        assert!(
            cutoff_diff > 20.0,
            "cut-off marking never converges: diff {cutoff_diff:.1} Gbps"
        );
        assert!(
            red_diff < 5.0,
            "RED-like marking converges: diff {red_diff:.1} Gbps"
        );
    }

    /// Figure 11(a): slowing the byte counter down helps convergence.
    #[test]
    fn slower_byte_counter_converges_better() {
        let pts = sweep_byte_counter(&[150, 10_000], 0.2);
        assert!(
            pts[1].tail_diff_gbps <= pts[0].tail_diff_gbps + 0.5,
            "150KB: {:.2}, 10MB: {:.2}",
            pts[0].tail_diff_gbps,
            pts[1].tail_diff_gbps
        );
    }

    /// Figure 12: smaller g gives lower queue variance (and the paper
    /// accepts slightly slower convergence for it).
    #[test]
    fn smaller_g_stabilizes_queue() {
        let t16 = g_queue_trace(1.0 / 16.0, 16, 0.4);
        let t256 = g_queue_trace(1.0 / 256.0, 16, 0.4);
        let (_, sd16) = queue_stats(&t16, 0.2);
        let (m256, sd256) = queue_stats(&t256, 0.2);
        assert!(
            sd256 < sd16,
            "g=1/256 sd {sd256:.1} KB vs g=1/16 sd {sd16:.1} KB"
        );
        assert!(m256 > 0.0);
    }

    #[test]
    fn sweep_points_carry_series() {
        let pts = sweep_timer(&[55], 0.05);
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].value, 55.0);
        assert!(!pts[0].times.is_empty());
        assert_eq!(pts[0].times.len(), pts[0].diff_gbps.len());
    }
}
