//! Figure 10: the fluid model closely matches the implementation — the
//! rate trace of a second sender joining an established flow, from both
//! the packet simulator and the DDE model.

use crate::common::{mean, CcChoice};
use crate::report::Run;
use fluid::model::{FlowState, FluidSim};
use fluid::params::FluidParams;
use netsim::packet::DATA_PRIORITY;
use netsim::stats::SamplerConfig;
use netsim::topology::{star, LinkParams};
use netsim::units::{Duration, Time};

/// Offset at which the second sender joins.
const JOIN_MS: u64 = 100;
/// Total horizon.
const END_MS: u64 = 600;

/// Runs the experiment.
pub fn run(run: &mut Run) {
    let end_ms = if run.quick { 300 } else { END_MS };

    // --- packet simulator ---
    let cc = CcChoice::dcqcn_paper();
    let mut s = star(
        3,
        LinkParams::default(),
        cc.host_config(),
        cc.switch_config(true, false),
        21,
    );
    let f = cc.factory();
    let f1 = s.net.add_flow(s.hosts[0], s.hosts[2], DATA_PRIORITY, &f);
    let f2 = s.net.add_flow(s.hosts[1], s.hosts[2], DATA_PRIORITY, &f);
    s.net.send_message(f1, u64::MAX, Time::ZERO);
    s.net.send_message(f2, u64::MAX, Time::from_millis(JOIN_MS));
    s.net.enable_sampling(
        Duration::from_millis(1),
        SamplerConfig {
            rate_flows: vec![f2],
            ..SamplerConfig::default()
        },
    );
    s.net.run_until(Time::from_millis(end_ms));
    run.dashboard(|| s.net.dashboard("fig10: joining sender (packet sim)"));
    let sim = s.net.sampler().flow_rate(f2).expect("sampled").series();

    // --- fluid model ---
    let params = FluidParams::paper_40g();
    let c = params.capacity_pps;
    let mut fsim = FluidSim::new(
        params,
        vec![
            FlowState::new(0.0, c),
            FlowState::new(JOIN_MS as f64 / 1000.0, c),
        ],
        1e-6,
    );
    let trace = fsim.run(end_ms as f64 / 1000.0, 1e-3);

    println!(
        "{:>8} | {:>10} | {:>10}",
        "t (ms)", "sim Gbps", "fluid Gbps"
    );
    let step = if run.quick { 20 } else { 25 };
    let mut sim_tail = Vec::new();
    let mut fluid_tail = Vec::new();
    for ms in (0..end_ms).step_by(step) {
        let t = ms as f64 / 1000.0;
        let si = sim
            .times
            .iter()
            .position(|&x| x.as_secs_f64() >= t)
            .unwrap_or(sim.times.len() - 1);
        let fi = trace
            .times
            .iter()
            .position(|&x| x >= t)
            .unwrap_or(trace.times.len() - 1);
        // Before the join, the sampler reports the CC's idle line rate;
        // the flow is not sending, so display zero like the fluid trace.
        let sv = if ms < JOIN_MS { 0.0 } else { sim.values[si] };
        let fv = trace.rates_gbps[1][fi];
        println!("{ms:>8} | {sv:>10.2} | {fv:>10.2}");
        if ms > end_ms * 2 / 3 {
            sim_tail.push(sv);
            fluid_tail.push(fv);
        }
    }
    println!(
        "settled rates: sim {:.2} Gbps, fluid {:.2} Gbps (fair share: 20.00)",
        mean(&sim_tail),
        mean(&fluid_tail)
    );
}
