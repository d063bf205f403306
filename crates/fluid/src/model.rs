//! The DCQCN fluid model (Equations 5–9 and the two-flow extension,
//! Equation 11), integrated as a delay differential equation system.
//!
//! Per flow `i` the state is `(R_C, R_T, α)`; the flows couple through the
//! bottleneck queue `q`:
//!
//! ```text
//! dq/dt  = Σ R_Ci − C                                               (6, 11)
//! dα/dt  = g/τ' [(1 − (1−p̂)^{τ R̂c}) − α]                              (7)
//! dR_T/dt = −(R_T − R_C)/τ (1 − (1−p̂)^{τ R̂c})
//!           + R_AI (1−p̂)^{F·B}      · ν_B
//!           + R_AI (1−p̂)^{F·T·R̂c} · ν_T                               (8)
//! dR_C/dt = −(R_C α)/(2τ) (1 − (1−p̂)^{τ R̂c})
//!           + (R_T − R_C)/2 · ν_B + (R_T − R_C)/2 · ν_T                (9)
//! ```
//!
//! where hats denote values delayed by the control-loop delay `τ*`,
//! `ν_B = R̂c p̂ / ((1−p̂)^{−B} − 1)` is the byte-counter event rate and
//! `ν_T = R̂c p̂ / ((1−p̂)^{−T·R̂c} − 1)` the timer event rate. As `p̂ → 0`
//! these limits are `R̂c/B` and `1/T` — the deterministic counter rates —
//! which the implementation handles in closed form. Like the paper, the
//! hyper-increase phase and PFC are not modelled.

use crate::params::FluidParams;
use std::collections::VecDeque;

/// State of one fluid flow, rates in packets/second.
#[derive(Debug, Clone, Copy)]
pub struct FlowState {
    /// Current rate `R_C`.
    pub rc: f64,
    /// Target rate `R_T`.
    pub rt: f64,
    /// Rate-reduction factor α.
    pub alpha: f64,
    /// When the flow becomes active (seconds).
    pub start: f64,
    /// Initial rate at start (packets/second).
    pub initial_rate: f64,
}

impl FlowState {
    /// A flow joining at `start` seconds with `initial_rate` pps.
    pub fn new(start: f64, initial_rate: f64) -> FlowState {
        FlowState {
            rc: initial_rate,
            rt: initial_rate,
            alpha: 1.0,
            start,
            initial_rate,
        }
    }
}

/// A sampled trajectory of the model.
#[derive(Debug, Clone, Default)]
pub struct FluidTrace {
    /// Sample times in seconds.
    pub times: Vec<f64>,
    /// Per-flow rate in Gbps: `rates_gbps[flow][sample]`.
    pub rates_gbps: Vec<Vec<f64>>,
    /// Queue length in (decimal) KB.
    pub queue_kb: Vec<f64>,
    /// Per-flow α.
    pub alphas: Vec<Vec<f64>>,
}

impl FluidTrace {
    /// |rate₀ − rate₁| at each sample (two-flow convergence metric).
    pub fn rate_diff_gbps(&self) -> Vec<f64> {
        assert!(self.rates_gbps.len() >= 2);
        self.rates_gbps[0]
            .iter()
            .zip(&self.rates_gbps[1])
            .map(|(a, b)| (a - b).abs())
            .collect()
    }

    /// Mean of a value series over samples with `t >= from`.
    pub fn tail_mean(&self, values: &[f64], from: f64) -> f64 {
        let pairs: Vec<f64> = self
            .times
            .iter()
            .zip(values)
            .filter(|(t, _)| **t >= from)
            .map(|(_, v)| *v)
            .collect();
        if pairs.is_empty() {
            0.0
        } else {
            pairs.iter().sum::<f64>() / pairs.len() as f64
        }
    }
}

/// Byte-counter / timer event rate `R̂ p̂ / ((1−p̂)^{−w} − 1)` with stable
/// limits at `p → 0` (→ `R̂/w`) and `p → 1` (→ 0).
fn event_rate(r_hat: f64, p_hat: f64, window_pkts: f64) -> f64 {
    if window_pkts <= 0.0 || r_hat <= 0.0 {
        return 0.0;
    }
    if p_hat < 1e-12 {
        return r_hat / window_pkts;
    }
    if p_hat >= 1.0 - 1e-12 {
        return 0.0;
    }
    // (1−p)^{−w} − 1 = expm1(−w·ln(1−p))
    let denom = (-window_pkts * (1.0 - p_hat).ln()).exp_m1();
    if denom.is_finite() && denom > 0.0 {
        r_hat * p_hat / denom
    } else {
        0.0
    }
}

/// `(1−p)^{n}` computed stably.
fn pow1p(p: f64, n: f64) -> f64 {
    if p <= 0.0 {
        1.0
    } else if p >= 1.0 {
        0.0
    } else {
        (n * (1.0 - p).ln()).exp()
    }
}

/// One flow's derivatives under Equations 7–9.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Rhs {
    /// The cut term `1 − (1−p̂)^{τ R̂c}` the three equations share.
    pub(crate) cut: f64,
    /// `dα/dt` (Equation 7).
    pub(crate) d_alpha: f64,
    /// `dR_T/dt` (Equation 8).
    pub(crate) d_rt: f64,
    /// `dR_C/dt` (Equation 9).
    pub(crate) d_rc: f64,
}

/// The right-hand sides of Equations 7–9 for a flow at rate `rc` with
/// target gap `gap = R_T − R_C` and reduction factor `alpha`, seeing the
/// delayed marking probability `p_hat` at its delayed rate `rc_hat`. The
/// one transcription of §5's equations: [`FluidSim::step`] integrates it
/// and the fixed point (Equation 10) solves it.
pub(crate) fn rhs(pr: &FluidParams, p_hat: f64, rc_hat: f64, rc: f64, gap: f64, alpha: f64) -> Rhs {
    let cut = 1.0 - pow1p(p_hat, pr.tau_cnp * rc_hat);
    let nu_b = event_rate(rc_hat, p_hat, pr.byte_counter_pkts);
    let nu_t = event_rate(rc_hat, p_hat, pr.timer * rc_hat);
    Rhs {
        cut,
        d_alpha: pr.g / pr.tau_alpha * (cut - alpha),
        d_rt: -gap / pr.tau_cnp * cut
            + pr.rai_pps * pow1p(p_hat, pr.f_steps * pr.byte_counter_pkts) * nu_b
            + pr.rai_pps * pow1p(p_hat, pr.f_steps * pr.timer * rc_hat) * nu_t,
        d_rc: -(rc * alpha) / (2.0 * pr.tau_cnp) * cut + gap / 2.0 * nu_b + gap / 2.0 * nu_t,
    }
}

/// The fluid simulator: explicit Euler with a history ring buffer serving
/// the delayed terms.
pub struct FluidSim {
    /// Model constants.
    pub params: FluidParams,
    /// Per-flow state.
    pub flows: Vec<FlowState>,
    /// Queue in packets.
    pub q: f64,
    /// Current time in seconds.
    pub t: f64,
    dt: f64,
    /// History of (p, per-flow R_C), one entry per step, oldest first.
    hist: VecDeque<(f64, Vec<f64>)>,
    delay_steps: usize,
}

impl FluidSim {
    /// Creates a simulator with integration step `dt` seconds.
    pub fn new(params: FluidParams, flows: Vec<FlowState>, dt: f64) -> FluidSim {
        let delay_steps = (params.tau_delay / dt).round().max(1.0) as usize;
        FluidSim {
            params,
            flows,
            q: 0.0,
            t: 0.0,
            dt,
            hist: VecDeque::with_capacity(delay_steps + 1),
            delay_steps,
        }
    }

    /// Convenience: `n` identical flows all starting at `t = 0` at line
    /// rate (the paper's N-flow incast analysis).
    pub fn incast(params: FluidParams, n: usize, dt: f64) -> FluidSim {
        let c = params.capacity_pps;
        FluidSim::new(params, vec![FlowState::new(0.0, c); n], dt)
    }

    fn delayed(&self) -> (f64, Option<&Vec<f64>>) {
        match self.hist.front() {
            Some((p, rcs)) if self.hist.len() >= self.delay_steps => (*p, Some(rcs)),
            _ => (0.0, None),
        }
    }

    /// Advances one Euler step.
    pub fn step(&mut self) {
        let pr = &self.params;
        let p_now = pr.mark_probability(self.q);
        let (p_hat, rc_hats) = self.delayed();

        let mut sum_rc = 0.0;
        let mut new_flows = self.flows.clone();
        for (i, f) in self.flows.iter().enumerate() {
            if self.t < f.start {
                continue;
            }
            if self.t - self.dt < f.start {
                // Flow just became active: line-rate start.
                new_flows[i].rc = f.initial_rate;
                new_flows[i].rt = f.initial_rate;
                new_flows[i].alpha = 1.0;
                sum_rc += f.initial_rate;
                continue;
            }
            sum_rc += f.rc;
            // Delayed own-rate: before history exists use current.
            let rc_hat = rc_hats.map_or(f.rc, |v| v[i]);
            let d = rhs(pr, p_hat, rc_hat, f.rc, f.rt - f.rc, f.alpha);

            let nf = &mut new_flows[i];
            nf.alpha = (f.alpha + d.d_alpha * self.dt).clamp(0.0, 1.0);
            nf.rt = (f.rt + d.d_rt * self.dt).clamp(pr.min_rate_pps, pr.capacity_pps);
            nf.rc = (f.rc + d.d_rc * self.dt).clamp(pr.min_rate_pps, pr.capacity_pps);
        }
        // Queue evolution (Equations 6 / 11), clamped at empty.
        self.q = (self.q + (sum_rc - pr.capacity_pps) * self.dt).max(0.0);
        self.flows = new_flows;

        // Record history for the delayed terms.
        self.hist
            .push_back((p_now, self.flows.iter().map(|f| f.rc).collect()));
        if self.hist.len() > self.delay_steps {
            self.hist.pop_front();
        }
        self.t += self.dt;
    }

    /// Runs until `t_end` seconds, sampling every `sample_every` seconds.
    pub fn run(&mut self, t_end: f64, sample_every: f64) -> FluidTrace {
        let mut trace = FluidTrace {
            rates_gbps: vec![Vec::new(); self.flows.len()],
            alphas: vec![Vec::new(); self.flows.len()],
            ..FluidTrace::default()
        };
        let mut next_sample = 0.0;
        while self.t < t_end {
            if self.t >= next_sample {
                trace.times.push(self.t);
                trace.queue_kb.push(self.params.pkts_to_kb(self.q));
                for (i, f) in self.flows.iter().enumerate() {
                    let active = self.t >= f.start;
                    trace.rates_gbps[i].push(if active {
                        self.params.pps_to_gbps(f.rc)
                    } else {
                        0.0
                    });
                    trace.alphas[i].push(f.alpha);
                }
                next_sample += sample_every;
            }
            self.step();
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DT: f64 = 1e-6;

    #[test]
    fn event_rate_limits() {
        // p → 0: deterministic counter rate R/w.
        let r = event_rate(1e6, 0.0, 100.0);
        assert!((r - 1e4).abs() < 1.0);
        // p → 1: counters never complete.
        assert_eq!(event_rate(1e6, 1.0, 100.0), 0.0);
        // Monotone decreasing in p.
        let a = event_rate(1e6, 1e-4, 1000.0);
        let b = event_rate(1e6, 1e-2, 1000.0);
        assert!(a > b);
    }

    #[test]
    fn pow1p_edges() {
        assert_eq!(pow1p(0.0, 100.0), 1.0);
        assert_eq!(pow1p(1.0, 100.0), 0.0);
        assert!((pow1p(0.01, 2.0) - 0.9801).abs() < 1e-12);
    }

    #[test]
    fn rhs_transcribes_equations_7_to_9() {
        // A hand-worked point: p̂ = 1/2 and every window (τ·R̂c, B, T·R̂c)
        // one packet, so the cut term is 1/2, both event rates are
        // R̂c·p̂/((1−p̂)^{−1} − 1) = 2 and (1−p̂)^{F·B} = (1−p̂)^{F·T·R̂c} = 1/4.
        let pr = FluidParams {
            g: 0.5,
            tau_cnp: 0.25,
            tau_alpha: 0.25,
            timer: 0.25,
            byte_counter_pkts: 1.0,
            f_steps: 2.0,
            rai_pps: 8.0,
            ..FluidParams::paper_40g()
        };
        let d = rhs(&pr, 0.5, 4.0, 2.0, 1.0, 0.25);
        let close = |got: f64, want: f64| (got - want).abs() < 1e-12;
        assert!(close(d.cut, 0.5), "cut {}", d.cut);
        // (7): g/τ'·(cut − α) = 2·(0.5 − 0.25).
        assert!(close(d.d_alpha, 0.5), "dα/dt {}", d.d_alpha);
        // (8): −gap/τ·cut + R_AI·¼·ν_B + R_AI·¼·ν_T = −2 + 4 + 4.
        assert!(close(d.d_rt, 6.0), "dR_T/dt {}", d.d_rt);
        // (9): −(R_C·α)/(2τ)·cut + gap/2·ν_B + gap/2·ν_T = −0.5 + 1 + 1.
        assert!(close(d.d_rc, 1.5), "dR_C/dt {}", d.d_rc);
    }

    #[test]
    fn single_flow_stays_at_line_rate() {
        // One flow at capacity: the queue never builds, p stays 0, no cuts.
        let mut sim = FluidSim::incast(FluidParams::paper_40g(), 1, DT);
        let trace = sim.run(0.05, 1e-3);
        let last = *trace.rates_gbps[0].last().unwrap();
        assert!((last - 40.0).abs() < 0.5, "rate {last}");
        assert!(trace.queue_kb.iter().all(|&q| q < 1.0));
    }

    #[test]
    fn two_flows_converge_to_fair_share() {
        let p = FluidParams::paper_40g();
        let mut sim = FluidSim::incast(p, 2, DT);
        let trace = sim.run(1.0, 1e-2);
        let r0 = trace.tail_mean(&trace.rates_gbps[0], 0.8);
        let r1 = trace.tail_mean(&trace.rates_gbps[1], 0.8);
        assert!((r0 - 20.0).abs() < 2.0, "flow0 {r0}");
        assert!((r1 - 20.0).abs() < 2.0, "flow1 {r1}");
    }

    #[test]
    fn total_rate_tracks_capacity() {
        let p = FluidParams::paper_40g();
        let mut sim = FluidSim::incast(p, 4, DT);
        let trace = sim.run(1.0, 1e-2);
        let total: f64 = (0..4)
            .map(|i| trace.tail_mean(&trace.rates_gbps[i], 0.8))
            .sum();
        assert!((total - 40.0).abs() < 2.0, "total {total}");
    }

    #[test]
    fn queue_settles_above_kmin_and_below_kmax() {
        // The paper: the stable queue sits near (an order of magnitude
        // above) K_min = 5 KB because p* is small.
        let p = FluidParams::paper_40g();
        let mut sim = FluidSim::incast(p, 16, DT);
        let trace = sim.run(1.0, 1e-2);
        let q = trace.tail_mean(&trace.queue_kb, 0.8);
        assert!(q > 5.0, "queue {q} KB should exceed K_min");
        assert!(q < 200.0, "queue {q} KB should stay below K_max");
    }

    #[test]
    fn staggered_start_flow_joins_later() {
        let p = FluidParams::paper_40g();
        let c = p.capacity_pps;
        let mut sim = FluidSim::new(p, vec![FlowState::new(0.0, c), FlowState::new(0.1, c)], DT);
        let trace = sim.run(0.2, 1e-3);
        // Before 0.1 s flow 1 reports zero.
        let idx_before = trace.times.iter().position(|&t| t >= 0.05).unwrap();
        assert_eq!(trace.rates_gbps[1][idx_before], 0.0);
        assert!((trace.rates_gbps[0][idx_before] - 40.0).abs() < 0.5);
        // After joining, both are active and under control.
        let idx_after = trace.times.len() - 1;
        assert!(trace.rates_gbps[1][idx_after] > 1.0);
        assert!(trace.rates_gbps[0][idx_after] < 40.0);
    }

    #[test]
    fn unfair_initial_rates_converge() {
        // Figure 11's setting: one flow at 40 Gbps, one at ~0.
        let p = FluidParams::paper_40g();
        let c = p.capacity_pps;
        let mut sim = FluidSim::new(
            p,
            vec![FlowState::new(0.0, c), FlowState::new(0.0, p.min_rate_pps)],
            DT,
        );
        let trace = sim.run(1.5, 1e-2);
        let diff = trace.rate_diff_gbps();
        let tail = trace.tail_mean(&diff, 1.2);
        assert!(tail < 4.0, "converged diff {tail} Gbps");
    }

    #[test]
    fn queue_is_never_negative() {
        let p = FluidParams::paper_40g();
        let mut sim = FluidSim::incast(p, 2, DT);
        for _ in 0..200_000 {
            sim.step();
            assert!(sim.q >= 0.0);
        }
    }

    #[test]
    fn rates_respect_bounds() {
        let p = FluidParams::paper_40g();
        let cap = p.capacity_pps;
        let min = p.min_rate_pps;
        let mut sim = FluidSim::incast(p, 16, DT);
        for _ in 0..100_000 {
            sim.step();
            for f in &sim.flows {
                assert!(f.rc <= cap * (1.0 + 1e-9) && f.rc >= min * (1.0 - 1e-9));
                assert!(f.alpha >= 0.0 && f.alpha <= 1.0);
            }
        }
    }
}
