//! §5 / Figure 10 cross-validation: the fluid model and the packet
//! simulator agree on where DCQCN settles.

use dcqcn::prelude::*;
use fluid::prelude::*;
use netsim::prelude::*;
use netsim::topology::{star, LinkParams};
use netsim::units::Bandwidth;

/// Runs an n:1 packet-level incast and returns (per-flow settled goodput
/// Gbps, settled queue KB).
fn packet_incast(n: usize, millis: u64) -> (Vec<f64>, f64) {
    let p = DcqcnParams::paper();
    let mut s = star(
        n + 1,
        LinkParams::default(),
        dcqcn_host_config(p),
        SwitchConfig::paper_default().with_red(red_deployed()),
        13,
    );
    let dst = s.hosts[n];
    let flows: Vec<FlowId> = (0..n)
        .map(|i| s.net.add_flow(s.hosts[i], dst, DATA_PRIORITY, dcqcn(p)))
        .collect();
    for &f in &flows {
        s.net.send_message(f, u64::MAX, Time::ZERO);
    }
    let port = PortId(n);
    s.net.enable_sampling(
        Duration::from_micros(100),
        SamplerConfig {
            all_flows: true,
            queues: vec![(s.switch, port)],
            ..SamplerConfig::default()
        },
    );
    let end = Time::from_millis(millis);
    s.net.run_until(end);
    let from = Time::from_millis(millis / 2);
    let goodputs = flows
        .iter()
        .map(|&f| s.net.goodput_gbps(f, from, end))
        .collect();
    let tl = s.net.sampler().queue(s.switch, port).expect("sampled port");
    let q_mean = tl.mean_from(from) / 1000.0;
    (goodputs, q_mean)
}

/// The 2:1 settled rates match the fluid fixed point (C/N) on both sides.
#[test]
fn two_to_one_rates_agree() {
    let (goodputs, _) = packet_incast(2, 200);
    let total: f64 = goodputs.iter().sum();
    assert!((34.0..38.5).contains(&total), "total {total:.2} Gbps");
    for g in &goodputs {
        // Fair share is ~19.1 Gbps of goodput (wire 20 minus headers);
        // allow short-window oscillation around it.
        assert!((15.5..22.0).contains(g), "sim settled at {g:.2} Gbps");
    }
    let params = FluidParams::paper_40g();
    let mut fsim = FluidSim::incast(params, 2, 1e-6);
    let trace = fsim.run(0.5, 1e-3);
    let fluid_rate = trace.tail_mean(&trace.rates_gbps[0], 0.4);
    assert!(
        (fluid_rate - 20.0).abs() < 1.0,
        "fluid settled at {fluid_rate:.2}"
    );
}

/// The settled 2:1 queue agrees with the fluid fixed point within a small
/// factor (the paper: "these numbers align well with the DCQCN fluid
/// model").
#[test]
fn two_to_one_queue_matches_fixed_point() {
    let (_, q_sim) = packet_incast(2, 200);
    let params = FluidParams::paper_40g();
    let fp = solve(&params, 2);
    let q_fp = fp.queue_kb(&params);
    assert!(
        q_sim > q_fp * 0.5 && q_sim < q_fp * 2.5,
        "sim queue {q_sim:.1} KB vs fixed point {q_fp:.1} KB"
    );
}

/// The fixed-point marking probability is consistent with the observed
/// packet-level marking fraction at 2:1.
#[test]
fn marking_probability_matches_fixed_point() {
    let p = DcqcnParams::paper();
    let mut s = star(
        3,
        LinkParams::default(),
        dcqcn_host_config(p),
        SwitchConfig::paper_default().with_red(red_deployed()),
        13,
    );
    let dst = s.hosts[2];
    let flows: Vec<FlowId> = (0..2)
        .map(|i| s.net.add_flow(s.hosts[i], dst, DATA_PRIORITY, dcqcn(p)))
        .collect();
    for &f in &flows {
        s.net.send_message(f, u64::MAX, Time::ZERO);
    }
    s.net.run_until(Time::from_millis(200));
    let delivered: u64 = flows
        .iter()
        .map(|&f| s.net.flow_stats(f).delivered_pkts)
        .sum();
    let marked: u64 = flows.iter().map(|&f| s.net.flow_stats(f).marked_pkts).sum();
    let frac = marked as f64 / delivered as f64;
    let fp = solve(&FluidParams::paper_40g(), 2);
    assert!(
        frac > fp.p * 0.3 && frac < fp.p * 3.0,
        "observed marking {frac:.5} vs fixed point {:.5}",
        fp.p
    );
    assert!(frac < 0.01, "well under 1% as §5.1 claims");
}

/// The fluid model's convergence verdicts transfer to the packet level:
/// the strawman stays unfair in both worlds (Figure 11 / 13(a)).
#[test]
fn strawman_verdict_transfers_to_packets() {
    // Fluid verdict.
    let red = red_cutoff_strawman();
    let (_, fluid_diff) =
        two_flow_convergence(&DcqcnParams::strawman(), &red, Bandwidth::gbps(40), 0.3);
    assert!(fluid_diff > 15.0, "fluid: strawman non-convergent");

    // Packet verdict: same configuration, staggered start.
    let cc_params = DcqcnParams::strawman();
    let mut sw = SwitchConfig::paper_default();
    sw.red = red;
    let mut s = star(
        3,
        LinkParams::default(),
        dcqcn_host_config(cc_params),
        sw,
        31,
    );
    let dst = s.hosts[2];
    let f1 = s
        .net
        .add_flow(s.hosts[0], dst, DATA_PRIORITY, dcqcn(cc_params));
    let f2 = s
        .net
        .add_flow(s.hosts[1], dst, DATA_PRIORITY, dcqcn(cc_params));
    s.net.send_message(f1, u64::MAX, Time::ZERO);
    s.net.send_message(f2, u64::MAX, Time::from_millis(50));
    s.net.enable_sampling(
        Duration::from_micros(500),
        SamplerConfig {
            all_flows: true,
            ..SamplerConfig::default()
        },
    );
    s.net.run_until(Time::from_millis(400));
    let g1 = s
        .net
        .goodput_gbps(f1, Time::from_millis(200), Time::from_millis(400));
    let g2 = s
        .net
        .goodput_gbps(f2, Time::from_millis(200), Time::from_millis(400));
    assert!(
        (g1 - g2).abs() > 10.0,
        "packets: strawman stays unfair ({g1:.1} vs {g2:.1})"
    );
}
