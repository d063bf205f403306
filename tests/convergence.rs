//! Congestion-control convergence and fairness across the schemes.

use baselines::dctcp::{dctcp, DctcpParams};
use dcqcn::prelude::*;
use netsim::prelude::*;
use netsim::topology::{star, LinkParams};

/// Jain's fairness index.
fn jain(xs: &[f64]) -> f64 {
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    sum * sum / (xs.len() as f64 * sq)
}

/// Four flows incast into one host of a star under `cc` for 120 ms; over
/// the second half they share the link fairly and fill it.
fn incast_is_fair_and_efficient(
    host: HostConfig,
    red: RedConfig,
    cc: impl Fn(Bandwidth) -> Box<dyn netsim::cc::CongestionControl>,
) {
    const N: usize = 4;
    let sw = SwitchConfig::paper_default().with_red(red);
    let mut s = star(N + 1, LinkParams::default(), host, sw, 3);
    let dst = s.hosts[N];
    let flows: Vec<FlowId> = (0..N)
        .map(|i| s.net.add_flow(s.hosts[i], dst, DATA_PRIORITY, &cc))
        .collect();
    for &f in &flows {
        s.net.send_message(f, u64::MAX, Time::ZERO);
    }
    s.net
        .enable_sampling(Duration::from_micros(500), SamplerConfig::default());
    let end = Time::from_millis(120);
    s.net.run_until(end);
    let g: Vec<f64> = flows
        .iter()
        .map(|&f| s.net.goodput_gbps(f, Time::from_millis(60), end))
        .collect();
    let total: f64 = g.iter().sum();
    assert!(jain(&g) > 0.95, "fairness {:.3} over {g:?}", jain(&g));
    assert!(total > 32.0, "utilization {total:.1} Gbps");
}

#[test]
fn dcqcn_incast_is_fair_and_efficient() {
    let p = DcqcnParams::paper();
    incast_is_fair_and_efficient(dcqcn_host_config(p), red_deployed(), dcqcn(p));
}

#[test]
fn dctcp_incast_is_fair_and_efficient() {
    let host = HostConfig {
        cnp_interval: None,
        ack_every: 2,
        ..HostConfig::default()
    };
    let dctcp = dctcp(DctcpParams::default_40g());
    incast_is_fair_and_efficient(host, red_cutoff_dctcp_40g(), dctcp);
}

/// DCQCN's hyper-fast start: a single flow with no competition never sees
/// a mark and stays pinned at line rate (no slow-start penalty).
#[test]
fn lone_flow_runs_at_line_rate_from_packet_one() {
    let p = DcqcnParams::paper();
    let mut s = star(
        2,
        LinkParams::default(),
        dcqcn_host_config(p),
        SwitchConfig::paper_default().with_red(red_deployed()),
        1,
    );
    let f = s
        .net
        .add_flow(s.hosts[0], s.hosts[1], DATA_PRIORITY, dcqcn(p));
    s.net.send_message(f, 5_000_000, Time::ZERO);
    s.net.run_until(Time::from_millis(5));
    let st = s.net.flow_stats(f);
    assert_eq!(st.cnps_received, 0, "no feedback without congestion");
    let done = st.completions[0];
    // 5 MB at 40 Gbps wire (≈ 38.3 Gbps goodput) is ~1.04 ms.
    assert!(
        done.goodput_gbps() > 35.0,
        "hyper-fast start: {:.1} Gbps",
        done.goodput_gbps()
    );
}

/// Late joiners converge to the fair share and early flows concede it
/// (the Figure 10 scenario at the summary level).
#[test]
fn late_joiner_reaches_fair_share() {
    let p = DcqcnParams::paper();
    let mut s = star(
        3,
        LinkParams::default(),
        dcqcn_host_config(p),
        SwitchConfig::paper_default().with_red(red_deployed()),
        5,
    );
    let r = s.hosts[2];
    let f1 = s.net.add_flow(s.hosts[0], r, DATA_PRIORITY, dcqcn(p));
    let f2 = s.net.add_flow(s.hosts[1], r, DATA_PRIORITY, dcqcn(p));
    s.net.send_message(f1, u64::MAX, Time::ZERO);
    s.net.send_message(f2, u64::MAX, Time::from_millis(50));
    s.net.enable_sampling(
        Duration::from_micros(500),
        SamplerConfig {
            all_flows: true,
            ..SamplerConfig::default()
        },
    );
    s.net.run_until(Time::from_millis(250));
    let g1 = s
        .net
        .goodput_gbps(f1, Time::from_millis(150), Time::from_millis(250));
    let g2 = s
        .net
        .goodput_gbps(f2, Time::from_millis(150), Time::from_millis(250));
    assert!((g1 - g2).abs() < 4.0, "converged: {g1:.1} vs {g2:.1}");
    assert!(g1 + g2 > 30.0, "utilization: {:.1}", g1 + g2);
}

/// An idle DCQCN flow restarts at line rate (the idle-reset path).
#[test]
fn idle_flow_restarts_at_line_rate() {
    let p = DcqcnParams::paper();
    let mut s = star(
        3,
        LinkParams::default(),
        dcqcn_host_config(p),
        SwitchConfig::paper_default().with_red(red_deployed()),
        5,
    );
    let r = s.hosts[2];
    let f1 = s.net.add_flow(s.hosts[0], r, DATA_PRIORITY, dcqcn(p));
    let f2 = s.net.add_flow(s.hosts[1], r, DATA_PRIORITY, dcqcn(p));
    // Congest to drive f1's rate down, then go idle.
    s.net.send_message(f1, 20_000_000, Time::ZERO);
    s.net.send_message(f2, 20_000_000, Time::ZERO);
    s.net.run_until(Time::from_millis(60));
    // Well past the idle-reset horizon, send a fresh burst on f1 alone.
    s.net.send_message(f1, 5_000_000, Time::from_millis(60));
    s.net.run_until(Time::from_millis(90));
    let last = *s.net.flow_stats(f1).completions.last().unwrap();
    assert!(
        last.goodput_gbps() > 30.0,
        "fresh burst ran at line rate: {:.1} Gbps",
        last.goodput_gbps()
    );
}
