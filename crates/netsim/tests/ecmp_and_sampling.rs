//! ECMP path selection and the measurement infrastructure, end to end.

use netsim::cc::NoCc;
use netsim::event::PortId;
use netsim::host::HostConfig;
use netsim::network::NetworkBuilder;
use netsim::packet::{FlowId, DATA_PRIORITY};
use netsim::stats::SamplerConfig;
use netsim::switch::SwitchConfig;
use netsim::topology::{star, LinkParams, Star};
use netsim::units::{Bandwidth, Duration, Time};
use std::panic::AssertUnwindSafe;

fn host_cfg() -> HostConfig {
    HostConfig {
        cnp_interval: None,
        ..HostConfig::default()
    }
}

/// Two equal-cost 40 G paths between edge switches: with enough flows,
/// ECMP uses both (aggregate exceeds one path's capacity).
#[test]
fn ecmp_uses_parallel_paths() {
    // a --- m1 --- b ;  a --- m2 --- b ; 4 hosts per side.
    let mut totals = Vec::new();
    for seed in 1..=4u64 {
        let mut bld = NetworkBuilder::new(seed);
        let a = bld.switch(SwitchConfig::paper_default());
        let b = bld.switch(SwitchConfig::paper_default());
        let m1 = bld.switch(SwitchConfig::paper_default());
        let m2 = bld.switch(SwitchConfig::paper_default());
        let d = Duration::from_micros(1);
        let g = Bandwidth::gbps(40);
        bld.connect(a, m1, g, d);
        bld.connect(a, m2, g, d);
        bld.connect(m1, b, g, d);
        bld.connect(m2, b, g, d);
        let srcs: Vec<_> = (0..4).map(|_| bld.host(host_cfg())).collect();
        let dsts: Vec<_> = (0..4).map(|_| bld.host(host_cfg())).collect();
        for &h in &srcs {
            bld.connect(h, a, g, d);
        }
        for &h in &dsts {
            bld.connect(h, b, g, d);
        }
        let mut net = bld.build();
        let flows: Vec<FlowId> = (0..4)
            .map(|i| net.add_flow(srcs[i], dsts[i], DATA_PRIORITY, |l| Box::new(NoCc::new(l))))
            .collect();
        for &f in &flows {
            net.send_message(f, u64::MAX, Time::ZERO);
        }
        net.run_until(Time::from_millis(10));
        let total: f64 = flows
            .iter()
            .map(|&f| net.flow_stats(f).delivered_bytes as f64 * 8.0 / 10e-3 / 1e9)
            .sum();
        totals.push(total);
    }
    // At least one seed spreads flows across both 40 G paths.
    let best = totals.iter().cloned().fold(0.0f64, f64::max);
    assert!(
        best > 45.0,
        "aggregate exceeded one path's capacity for some draw: {totals:?}"
    );
}

/// The sampler produces well-formed series: strictly increasing times and
/// nondecreasing cumulative byte counts; the goodput helper agrees with
/// raw counters.
#[test]
fn sampler_series_are_well_formed() {
    let mut s = star(
        3,
        LinkParams::default(),
        host_cfg(),
        SwitchConfig::paper_default(),
        1,
    );
    let f = s.net.add_flow(s.hosts[0], s.hosts[2], DATA_PRIORITY, |l| {
        Box::new(NoCc::new(l))
    });
    s.net.send_message(f, u64::MAX, Time::ZERO);
    s.net.enable_sampling(
        Duration::from_micros(100),
        SamplerConfig {
            all_flows: true,
            queues: vec![(s.switch, PortId(2))],
            rate_flows: vec![f],
            ..SamplerConfig::default()
        },
    );
    let end = Time::from_millis(10);
    s.net.run_until(end);

    let series = s.net.sampler().flow_bytes(f).expect("sampled").series();
    assert!(series.times.windows(2).all(|w| w[0] < w[1]));
    assert!(series.values.windows(2).all(|w| w[0] <= w[1]));
    assert!(series.times.len() > 90, "one sample per 100 µs");

    // goodput over the full window ≈ delivered/duration.
    let g = s.net.goodput_gbps(f, Time::ZERO, end);
    let direct = s.net.flow_stats(f).delivered_bytes as f64 * 8.0 / 10e-3 / 1e9;
    assert!((g - direct).abs() < 0.5, "goodput {g:.2} vs {direct:.2}");

    // Queue track exists and stays tiny for a single flow.
    let q = s.net.sampler().queue(s.switch, PortId(2)).expect("sampled");
    assert!(q.count() > 0);
    assert!(q.max() < 20_000.0);

    // Rate track reports the line rate for an uncontrolled flow.
    let r = s.net.sampler().flow_rate(f).expect("sampled");
    for b in r.buckets() {
        let v = r.representative(&b);
        assert!((v - 40.0).abs() < 1e-6, "line rate, got {v}");
    }
}

/// Calling `enable_sampling` again reconfigures the one running tick
/// chain; it must not start a second one (every tick would then record
/// twice: bucket counts double and counter-delta tracks gain a zero).
#[test]
fn enabling_sampling_twice_keeps_one_sample_per_tick() {
    let mut s = star(
        3,
        LinkParams::default(),
        host_cfg(),
        SwitchConfig::paper_default(),
        1,
    );
    let f = s.net.add_flow(s.hosts[0], s.hosts[2], DATA_PRIORITY, |l| {
        Box::new(NoCc::new(l))
    });
    s.net.send_message(f, u64::MAX, Time::ZERO);
    let config = SamplerConfig {
        all_flows: true,
        queues: vec![(s.switch, PortId(2))],
        rate_flows: vec![f],
        counters: vec!["forwarded"],
        ..SamplerConfig::default()
    };
    s.net
        .enable_sampling(Duration::from_micros(100), config.clone());
    s.net.enable_sampling(Duration::from_micros(100), config);
    const TICKS: u64 = 50;
    s.net.run_until(Time::from_micros(100 * TICKS));

    assert_eq!(
        s.net.sampler().timelines().len(),
        4,
        "bytes, queue, rate, counter"
    );
    for (name, track) in s.net.sampler().timelines().iter() {
        assert_eq!(track.count(), TICKS, "{name}: one sample per tick");
    }
    let forwarded = s
        .net
        .sampler()
        .timelines()
        .by_name("rate/forwarded")
        .unwrap();
    assert!(forwarded.min() > 0.0, "no spurious zero-delta samples");
}

/// Hooks fire at their scheduled time and can mutate the network
/// (starting a flow mid-run).
#[test]
fn hooks_start_flows_mid_run() {
    let mut s = star(
        3,
        LinkParams::default(),
        host_cfg(),
        SwitchConfig::paper_default(),
        1,
    );
    let f1 = s.net.add_flow(s.hosts[0], s.hosts[2], DATA_PRIORITY, |l| {
        Box::new(NoCc::new(l))
    });
    s.net.send_message(f1, u64::MAX, Time::ZERO);
    s.net.schedule_hook(
        Time::from_millis(5),
        Box::new(|net| {
            // Pull host ids back out of the network.
            let src = netsim::event::NodeId(2);
            let dst = netsim::event::NodeId(3);
            let f2 = net.add_flow(src, dst, DATA_PRIORITY, |l| Box::new(NoCc::new(l)));
            net.send_message(f2, 1_000_000, Time::ZERO);
        }),
    );
    s.net.run_until(Time::from_millis(10));
    // The hook-created flow is FlowId(1) and completed its transfer.
    let st = s.net.flow_stats(FlowId(1));
    assert_eq!(st.delivered_bytes, 1_000_000);
    assert_eq!(st.completions.len(), 1);
    assert!(st.completions[0].at >= Time::from_millis(5));
}

/// Mixed link speeds within one topology serialize correctly (10/40/100G).
#[test]
fn mixed_speed_links() {
    let mut b = NetworkBuilder::new(9);
    let sw = b.switch(SwitchConfig::paper_default());
    let h10 = b.host(host_cfg());
    let h40 = b.host(host_cfg());
    let h100 = b.host(host_cfg());
    let sink = b.host(host_cfg());
    let d = Duration::from_micros(1);
    b.connect(h10, sw, Bandwidth::gbps(10), d);
    b.connect(h40, sw, Bandwidth::gbps(40), d);
    b.connect(h100, sw, Bandwidth::gbps(100), d);
    b.connect(sink, sw, Bandwidth::gbps(100), d);
    let mut net = b.build();
    let flows = [(h10, 10.0), (h40, 40.0), (h100, 100.0)].map(|(h, expect)| {
        let f = net.add_flow(h, sink, DATA_PRIORITY, |l| Box::new(NoCc::new(l)));
        net.send_message(f, u64::MAX, Time::ZERO);
        (f, expect)
    });
    net.run_until(Time::from_millis(10));
    // Aggregate demand 150 > 100G sink: everyone is throttled, but the
    // 10G host can never exceed its own line rate.
    let g10 = net.flow_stats(flows[0].0).delivered_bytes as f64 * 8.0 / 10e-3 / 1e9;
    assert!(g10 <= 10.0 * 0.97 + 0.5, "10G host capped: {g10:.1}");
    let total: f64 = flows
        .iter()
        .map(|&(f, _)| net.flow_stats(f).delivered_bytes as f64 * 8.0 / 10e-3 / 1e9)
        .sum();
    assert!(total < 100.0, "sink capped: {total:.1}");
    assert!(total > 85.0, "sink well used: {total:.1}");
}

/// One greedy flow on a three-host star, not yet run.
fn lone_flow() -> (Star, FlowId) {
    let mut s = star(
        3,
        LinkParams::default(),
        host_cfg(),
        SwitchConfig::paper_default(),
        1,
    );
    let f = s.net.add_flow(s.hosts[0], s.hosts[2], DATA_PRIORITY, |l| {
        Box::new(NoCc::new(l))
    });
    s.net.send_message(f, u64::MAX, Time::ZERO);
    (s, f)
}

/// [`lone_flow`], run for 2 ms without sampling.
fn unsampled_run() -> (Star, FlowId) {
    let (mut s, f) = lone_flow();
    s.net.run_until(Time::from_millis(2));
    (s, f)
}

/// Without a sampled track the flow's counters still answer the one
/// question they can: the whole run so far.
#[test]
fn goodput_of_an_unsampled_flow_over_the_whole_run_is_answered() {
    let (s, f) = unsampled_run();
    let g = s.net.goodput_gbps(f, Time::ZERO, s.net.now());
    let direct = s.net.flow_stats(f).delivered_bytes as f64 * 8.0 / 2e-3 / 1e9;
    assert_eq!(g, direct);
    assert!(g > 30.0, "a lone flow runs near line rate: {g:.1}");
}

/// A windowed question about an unsampled flow used to be answered with
/// the whole-run average — a silently wrong figure. It now fails loudly.
#[test]
#[should_panic(expected = "enable_sampling")]
fn goodput_of_an_unsampled_flow_over_a_window_panics() {
    let (s, f) = unsampled_run();
    s.net
        .goodput_gbps(f, Time::from_millis(1), Time::from_millis(2));
}

/// A rate needs a window: an empty or reversed one fails loudly, sampled
/// or not. It used to read `NaN` (empty) or a wrapped duration (reversed;
/// a debug build panicked on the subtraction instead).
#[test]
fn goodput_over_an_empty_or_reversed_window_panics() {
    let (before_run, f) = lone_flow();
    let (unsampled, _) = unsampled_run();
    let (mut sampled, _) = lone_flow();
    sampled.net.enable_sampling(
        Duration::from_micros(100),
        SamplerConfig {
            all_flows: true,
            ..SamplerConfig::default()
        },
    );
    sampled.net.run_until(Time::from_millis(2));
    let us = Time::from_micros;
    for (net, from, to) in [
        (&before_run.net, Time::ZERO, Time::ZERO),
        (&unsampled.net, us(2_000), Time::ZERO),
        (&sampled.net, us(500), us(500)),
        (&sampled.net, us(800), us(200)),
    ] {
        let asked = std::panic::catch_unwind(AssertUnwindSafe(|| net.goodput_gbps(f, from, to)));
        let panic = asked.expect_err("no rate over an empty or reversed window");
        let msg = panic.downcast_ref::<String>().map_or("", String::as_str);
        assert!(
            msg.contains("from < to"),
            "[{from}, {to}] panicked with: {msg}"
        );
    }
}
