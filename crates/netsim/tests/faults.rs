//! Fault injection and graceful degradation, end to end: route failover
//! vs. black-holed QPs, exponential RTO backoff, the PFC storm watchdog,
//! and go-back-N recovery from injected bit errors.

use netsim::cc::NoCc;
use netsim::event::NodeId;
use netsim::faults::{FaultConfig, FaultPlan};
use netsim::host::HostConfig;
use netsim::network::NetworkBuilder;
use netsim::packet::DATA_PRIORITY;
use netsim::routing::RouteTable;
use netsim::switch::{PfcWatchdogConfig, SwitchConfig};
use netsim::topology::{clos_testbed, LinkParams};
use netsim::trace::TraceKind;
use netsim::units::{Bandwidth, Duration, Time};
use proptest::prelude::*;

fn host_cfg() -> HostConfig {
    HostConfig {
        cnp_interval: None,
        ..HostConfig::default()
    }
}

/// The headline acceptance scenario: a Clos fabric link dies mid-run.
/// With failover the affected flows reroute onto the surviving ECMP
/// member and recover; with failover disabled they keep hashing onto the
/// dead next-hop, exhaust their transport retries, and abort.
fn clos_link_down_run(failover: bool) -> (usize, Vec<u64>, Vec<u64>) {
    let mut tb = clos_testbed(
        2,
        LinkParams::default(),
        HostConfig {
            cnp_interval: None,
            rto: Duration::from_micros(500),
            max_retries: 4,
            ..HostConfig::default()
        },
        SwitchConfig::paper_default(),
        7,
    );
    // Eight inter-pod flows rack 0 → rack 3; distinct flow ids spread
    // over both of T1's uplinks (and both spines) via ECMP.
    let mut flows = Vec::new();
    for i in 0..8 {
        let src = tb.hosts[0][i % 2];
        let dst = tb.hosts[3][(i / 2) % 2];
        let f = tb
            .net
            .add_flow(src, dst, DATA_PRIORITY, |l| Box::new(NoCc::new(l)));
        tb.net.send_message(f, u64::MAX, Time::ZERO);
        flows.push(f);
    }
    let t1_l1 = tb.net.link_between(tb.tors[0], tb.leaves[0]).unwrap();
    // The down window outlasts the abort schedule: with rto = 500 µs and
    // max_retries = 4 the fifth (fatal) timer fires at ~10 ms, so a
    // black-holed QP is torn down before the link returns at 12 ms.
    let plan = FaultPlan::new()
        .link_down(Time::from_millis(2), t1_l1)
        .link_up(Time::from_millis(12), t1_l1);
    tb.net.install_faults(
        &plan,
        FaultConfig {
            failover,
            ..FaultConfig::default()
        },
    );
    tb.net.run_until(Time::from_millis(2));
    let at_down: Vec<u64> = flows
        .iter()
        .map(|&f| tb.net.flow_stats(f).delivered_bytes)
        .collect();
    tb.net.run_until(Time::from_millis(16));
    let at_end: Vec<u64> = flows
        .iter()
        .map(|&f| tb.net.flow_stats(f).delivered_bytes)
        .collect();
    let aborts = flows
        .iter()
        .filter(|&&f| tb.net.flow_stats(f).aborted)
        .count();
    assert_eq!(tb.net.fault_stats().transitions, 2, "down then up");
    if failover {
        assert!(
            tb.net.fault_stats().reroutes >= 2,
            "failover recomputed routes on both transitions"
        );
    } else {
        assert_eq!(tb.net.fault_stats().reroutes, 0);
    }
    (aborts, at_down, at_end)
}

#[test]
fn link_down_with_failover_recovers_without_aborts() {
    let (aborts, at_down, at_end) = clos_link_down_run(true);
    assert_eq!(aborts, 0, "failover keeps every QP alive");
    for (i, (&before, &after)) in at_down.iter().zip(&at_end).enumerate() {
        assert!(
            after > before + 1_000_000,
            "flow {i} kept making progress after the failure ({before} → {after})"
        );
    }
}

#[test]
fn link_down_without_failover_exhausts_retries() {
    let (aborts, at_down, at_end) = clos_link_down_run(false);
    assert!(
        aborts > 0,
        "some flows stay hashed onto the dead next-hop and abort"
    );
    assert!(aborts < 8, "flows hashed onto the surviving uplink live on");
    // Aggregate goodput stays finite and well-defined even with dead QPs.
    let total: u64 = at_end.iter().sum();
    assert!(total > at_down.iter().sum::<u64>());
}

/// A receiver goes dark (its access link dies, no failover possible for a
/// single-homed host): the sender's retransmit schedule must space out
/// exponentially (1, 2, 4, 8, 8, … × RTO) and the QP must tear down after
/// `max_retries`, never to time out again.
#[test]
fn rto_backoff_spaces_out_and_qp_tears_down() {
    let mut b = NetworkBuilder::new(11);
    let s1 = b.switch(SwitchConfig::paper_default());
    let h1 = b.host(HostConfig {
        cnp_interval: None,
        rto: Duration::from_micros(200),
        ..HostConfig::default()
    });
    let h2 = b.host(host_cfg());
    let d = Duration::from_micros(1);
    b.connect(h1, s1, Bandwidth::gbps(40), d);
    let access = b.connect(h2, s1, Bandwidth::gbps(40), d);
    let mut net = b.build();
    net.enable_trace(100_000);
    let f = net.add_flow(h1, h2, DATA_PRIORITY, |l| Box::new(NoCc::new(l)));
    net.send_message(f, u64::MAX, Time::ZERO);
    // Kill the receiver's access link just after the flow starts; disable
    // failover so the switch keeps forwarding into the void (the fault
    // engine counts those wire drops, so even sanitized runs stay clean).
    let plan = FaultPlan::new().link_down(Time::from_micros(100), access);
    net.install_faults(
        &plan,
        FaultConfig {
            failover: false,
            ..FaultConfig::default()
        },
    );
    net.run_until(Time::from_millis(20));

    let st = net.flow_stats(f);
    assert!(st.aborted, "retry budget exhausted tears the QP down");
    assert_eq!(
        st.timeouts,
        u64::from(HostConfig::default().max_retries),
        "exactly max_retries retransmit attempts before teardown"
    );

    let fires: Vec<Time> = net
        .trace()
        .of_kind(TraceKind::Timeout)
        .iter()
        .filter(|e| e.flow == f)
        .map(|e| e.at)
        .collect();
    assert_eq!(fires.len(), 7);
    let gaps: Vec<Duration> = fires.windows(2).map(|w| w[1] - w[0]).collect();
    let rto = Duration::from_micros(200);
    // The k-th timeout waits 2^(k−1) × RTO, capped at 8×.
    let expect: Vec<Duration> = [1u64, 2, 4, 8, 8, 8]
        .iter()
        .map(|&k| rto.saturating_mul(k))
        .collect();
    assert_eq!(gaps, expect, "backoff schedule 1, 2, 4, 8, 8, … × RTO");

    // Teardown is final: no retransmit timer survives the abort.
    let timeouts_at_abort = st.timeouts;
    net.run_until(Time::from_millis(40));
    assert_eq!(net.flow_stats(f).timeouts, timeouts_at_abort);
    assert!(net.fault_stats().link_drops > 0);
}

/// A malfunctioning NIC pause-storms its access link. Without a watchdog
/// the switch egress port freezes for the rest of the run (the simulator
/// models PAUSE as level-triggered, and a RESUME never comes). With the
/// watchdog, the port ignores PAUSE after `threshold` and delivery
/// continues at a bounded duty cycle, then recovers fully once the storm
/// ends.
fn pause_storm_run(watchdog: Option<PfcWatchdogConfig>) -> (u64, netsim::stats::SwitchStats) {
    let mut b = NetworkBuilder::new(5);
    let mut cfg = SwitchConfig::paper_default();
    cfg.watchdog = watchdog;
    let s1 = b.switch(cfg);
    let sender = b.host(host_cfg());
    let storm = b.host(host_cfg());
    let d = Duration::from_micros(1);
    b.connect(sender, s1, Bandwidth::gbps(40), d);
    b.connect(storm, s1, Bandwidth::gbps(40), d);
    let mut net = b.build();
    let f = net.add_flow(sender, storm, DATA_PRIORITY, |l| Box::new(NoCc::new(l)));
    net.send_message(f, u64::MAX, Time::ZERO);
    let plan = FaultPlan::new().pause_storm(
        storm,
        DATA_PRIORITY,
        Time::from_millis(1),
        Time::from_millis(6),
        Duration::from_micros(20),
    );
    net.install_faults(&plan, FaultConfig::default());
    net.run_until(Time::from_millis(10));
    assert!(
        net.fault_stats().storm_pauses > 100,
        "storm kept refreshing"
    );
    (net.flow_stats(f).delivered_bytes, net.switch_stats(s1))
}

#[test]
fn pause_storm_watchdog_bounds_the_damage() {
    let (frozen_bytes, frozen_stats) = pause_storm_run(None);
    let wd = PfcWatchdogConfig {
        threshold: Duration::from_micros(200),
        recovery: Duration::from_micros(800),
    };
    let (guarded_bytes, guarded_stats) = pause_storm_run(Some(wd));

    assert_eq!(frozen_stats.watchdog_trips, 0);
    assert!(guarded_stats.watchdog_trips >= 2, "watchdog kept tripping");
    assert!(guarded_stats.watchdog_restores >= 1, "and kept recovering");
    // 10 ms at 40 Gbps is ~48 MB of payload; the frozen run only gets the
    // first millisecond, the guarded run most of the window.
    assert!(
        guarded_bytes > 3 * frozen_bytes,
        "watchdog bounds the loss: {guarded_bytes} vs {frozen_bytes} bytes"
    );
}

/// Injected bit errors drop frames on a lossless class; go-back-N
/// retransmission still completes the message, deterministically.
#[test]
fn bit_errors_are_recovered_by_go_back_n() {
    let run = || {
        let mut b = NetworkBuilder::new(3);
        let s1 = b.switch(SwitchConfig::paper_default());
        let h1 = b.host(HostConfig {
            cnp_interval: None,
            rto: Duration::from_millis(1),
            ..HostConfig::default()
        });
        let h2 = b.host(host_cfg());
        let d = Duration::from_micros(1);
        let noisy = b.connect(h1, s1, Bandwidth::gbps(40), d);
        b.connect(h2, s1, Bandwidth::gbps(40), d);
        let mut net = b.build();
        let f = net.add_flow(h1, h2, DATA_PRIORITY, |l| Box::new(NoCc::new(l)));
        net.send_message(f, 2_000_000, Time::ZERO);
        let plan = FaultPlan::new().bit_error(Time::ZERO, noisy, 0.01);
        net.install_faults(&plan, FaultConfig::default());
        net.run_until(Time::from_millis(50));
        let st = net.flow_stats(f).clone();
        (st, net.fault_stats())
    };
    let (st, faults) = run();
    assert_eq!(st.delivered_bytes, 2_000_000, "message completes");
    assert_eq!(st.completions.len(), 1);
    assert!(!st.aborted);
    assert!(
        faults.crc_drops > 0,
        "the link really was corrupting frames"
    );
    assert!(
        st.retx_pkts > 0 || st.timeouts > 0,
        "recovery actually exercised the transport"
    );
    // Same seeds, same corruption, bit-identical outcome.
    let (st2, faults2) = run();
    assert_eq!(st.completions[0].at, st2.completions[0].at);
    assert_eq!(faults.crc_drops, faults2.crc_drops);
}

/// ECN misconfiguration: a switch silently stops marking mid-run.
#[test]
fn ecn_off_stops_marking_at_that_switch() {
    let mk = |misconfigure: bool| {
        let mut b = NetworkBuilder::new(9);
        let red = netsim::ecn::RedConfig {
            kmin_bytes: 5_000,
            kmax_bytes: 200_000,
            pmax: 0.01,
        };
        let s1 = b.switch(SwitchConfig::paper_default().with_red(red));
        let h1 = b.host(host_cfg());
        let h2 = b.host(host_cfg());
        let d = Duration::from_micros(1);
        b.connect(h1, s1, Bandwidth::gbps(40), d);
        b.connect(h2, s1, Bandwidth::gbps(10), d);
        let mut net = b.build();
        let f = net.add_flow(h1, h2, DATA_PRIORITY, |l| Box::new(NoCc::new(l)));
        net.send_message(f, u64::MAX, Time::ZERO);
        if misconfigure {
            let plan = FaultPlan::new().ecn_off(Time::from_millis(2), s1);
            net.install_faults(&plan, FaultConfig::default());
        }
        net.run_until(Time::from_millis(2));
        let marks_early = net.switch_stats(s1).ecn_marks;
        net.run_until(Time::from_millis(10));
        (marks_early, net.switch_stats(s1).ecn_marks)
    };
    let (healthy_early, healthy_late) = mk(false);
    assert!(healthy_early > 0, "congested queue marks");
    assert!(healthy_late > healthy_early, "and keeps marking");
    let (miscfg_early, miscfg_late) = mk(true);
    assert!(miscfg_early > 0);
    assert_eq!(
        miscfg_late, miscfg_early,
        "after EcnOff the switch never marks again"
    );
}

/// A fault plan leaves the pre-fault portion of a run untouched: the
/// dedicated bit-error RNG stream must not perturb RED draws or ECMP.
#[test]
fn installing_a_future_fault_does_not_disturb_the_past() {
    let run = |with_plan: bool| {
        let mut tb = clos_testbed(
            2,
            LinkParams::default(),
            host_cfg(),
            SwitchConfig::paper_default(),
            21,
        );
        let f = tb
            .net
            .add_flow(tb.hosts[0][0], tb.hosts[3][0], DATA_PRIORITY, |l| {
                Box::new(NoCc::new(l))
            });
        tb.net.send_message(f, u64::MAX, Time::ZERO);
        if with_plan {
            let link = tb.net.link_between(tb.tors[0], tb.leaves[0]).unwrap();
            // Scheduled far beyond the horizon: must change nothing.
            let plan = FaultPlan::new().link_down(Time::from_millis(500), link);
            tb.net.install_faults(&plan, FaultConfig::default());
        }
        tb.net.run_until(Time::from_millis(3));
        tb.net.flow_stats(f).delivered_bytes
    };
    assert_eq!(run(false), run(true));
}

/// `link_between` resolves fabric links in either endpoint order, and
/// administrative toggling round-trips.
#[test]
fn link_lookup_and_admin_toggle() {
    let mut tb = clos_testbed(
        1,
        LinkParams::default(),
        host_cfg(),
        SwitchConfig::paper_default(),
        1,
    );
    let a = tb.net.link_between(tb.tors[0], tb.leaves[0]).unwrap();
    let b = tb.net.link_between(tb.leaves[0], tb.tors[0]).unwrap();
    assert_eq!(a, b);
    assert!(tb.net.link_between(tb.tors[0], tb.spines[0]).is_none());
    assert!(tb.net.link_is_up(a));
    tb.net.set_link_state(a, false);
    assert!(!tb.net.link_is_up(a));
    tb.net.set_link_state(a, false); // idempotent
    assert_eq!(tb.net.fault_stats().transitions, 1);
    tb.net.set_link_state(a, true);
    assert!(tb.net.link_is_up(a));
    assert_eq!(tb.net.fault_stats().transitions, 2);
}

/// Convergence check 6: after a healed link flap, a switch holding a port
/// set other than a fresh computation's is reported by name, and a table
/// equal to the computed one set for set passes, in whatever destination
/// order it was built.
#[test]
fn stale_routes_fail_convergence_and_equal_tables_pass() {
    let mut tb = clos_testbed(
        2,
        LinkParams::default(),
        host_cfg(),
        SwitchConfig::paper_default(),
        7,
    );
    let (tor, far) = (tb.tors[0], tb.hosts[3][0]);
    let f = tb.net.add_flow(tb.hosts[0][0], far, DATA_PRIORITY, |l| {
        Box::new(NoCc::new(l))
    });
    tb.net.send_message(f, 1_000_000, Time::ZERO);
    let uplink = tb.net.link_between(tor, tb.leaves[0]).unwrap();
    let plan = FaultPlan::new()
        .link_down(Time::from_micros(100), uplink)
        .link_up(Time::from_micros(300), uplink);
    tb.net.install_faults(&plan, FaultConfig::default());
    let settle = Time::from_millis(2);
    tb.net.run_until(settle);
    let baseline = tb.net.delivered_snapshot();
    tb.net.run_until(Time::from_millis(3));
    let samples = [(tb.net.now(), tb.net.total_queued_bytes())];
    let stale = |net: &mut netsim::network::Network| -> Vec<_> {
        net.check_convergence(settle, 1, &baseline, &samples)
            .into_iter()
            .filter(|v| v.context.contains("routes differ"))
            .map(|v| (v.node, v.context))
            .collect()
    };
    assert_eq!(stale(&mut tb.net), []);

    let computed = tb.net.switch(tor).routes.clone();
    let mut rebuilt = RouteTable::new();
    for d in (0..tb.net.nodes.len()).rev() {
        if let Some(ports) = computed.get(&NodeId(d)) {
            rebuilt.insert(NodeId(d), ports.to_vec());
        }
    }
    assert_eq!(rebuilt, computed);

    let uplinks = computed[&far].to_vec();
    assert_eq!(uplinks.len(), 2, "T1 reaches rack 3 over both leaves");
    tb.net
        .switch_mut(tor)
        .routes
        .insert(far, uplinks[..1].to_vec());
    let context = format!(
        "switch {}: routes differ from a fresh computation over the current topology \
         (stale failover state)",
        tor.0
    );
    assert_eq!(stale(&mut tb.net), [(Some(tor), context)]);

    tb.net.switch_mut(tor).routes = rebuilt;
    assert_eq!(stale(&mut tb.net), []);
}

/// A plan naming something the fabric does not have is rejected when it
/// is installed, with the checker's one-line message — not as a bare
/// index panic millions of events later, when the fault fires.
#[test]
#[should_panic(expected = "bit_error names link 99 but the fabric has 20 links")]
fn installing_a_plan_outside_the_fabric_panics_up_front() {
    let mut tb = clos_testbed(
        1,
        LinkParams::default(),
        host_cfg(),
        SwitchConfig::paper_default(),
        1,
    );
    let plan = FaultPlan::new().bit_error(Time::from_millis(5), netsim::event::LinkId(99), 0.01);
    let err = tb.net.check_faults(&plan).unwrap_err();
    assert_eq!(err.lines().count(), 1, "{err}");
    let wedge_on_host =
        FaultPlan::new().wedge_watchdog(Time::ZERO, tb.hosts[0][0], netsim::event::PortId(0), 3);
    assert!(tb
        .net
        .check_faults(&wedge_on_host)
        .unwrap_err()
        .contains("is a host"));
    tb.net.install_faults(&plan, FaultConfig::default());
}

/// The watchdog is armed by switch-received PAUSE state, so a stray
/// restore event for an untripped port must be a no-op.
#[test]
fn watchdog_restore_without_trip_is_harmless() {
    let mut b = NetworkBuilder::new(2);
    let mut cfg = SwitchConfig::paper_default();
    cfg.watchdog = Some(PfcWatchdogConfig::default());
    let s1 = b.switch(cfg);
    let h1 = b.host(host_cfg());
    let h2 = b.host(host_cfg());
    let d = Duration::from_micros(1);
    b.connect(h1, s1, Bandwidth::gbps(40), d);
    b.connect(h2, s1, Bandwidth::gbps(10), d);
    let mut net = b.build();
    let f = net.add_flow(h1, h2, DATA_PRIORITY, |l| Box::new(NoCc::new(l)));
    net.send_message(f, u64::MAX, Time::ZERO);
    net.run_until(Time::from_millis(20));
    // Congestion PFC (pause/resume cycles with RESUMEs actually arriving)
    // must never trip the watchdog.
    let st = net.switch_stats(s1);
    assert!(st.pause_tx > 0, "there was PFC activity");
    assert!(st.resume_tx > 0, "with real resumes");
    assert_eq!(st.watchdog_trips, 0, "normal PFC never trips the watchdog");
    assert!(net.flow_stats(f).delivered_bytes > 10_000_000);
}

/// RTO backoff must *reset* once the flow makes progress again: after a
/// post-timeout delivery the next outage restarts the 1, 2, 4, … × RTO
/// schedule rather than continuing from the escalated multiplier.
#[test]
fn rto_backoff_resets_after_successful_delivery() {
    let rto = Duration::from_micros(200);
    let mut b = NetworkBuilder::new(13);
    let s1 = b.switch(SwitchConfig::paper_default());
    let h1 = b.host(HostConfig {
        cnp_interval: None,
        rto,
        ..HostConfig::default()
    });
    let h2 = b.host(host_cfg());
    let d = Duration::from_micros(1);
    b.connect(h1, s1, Bandwidth::gbps(40), d);
    let access = b.connect(h2, s1, Bandwidth::gbps(40), d);
    let mut net = b.build();
    net.enable_trace(100_000);
    let f = net.add_flow(h1, h2, DATA_PRIORITY, |l| Box::new(NoCc::new(l)));
    net.send_message(f, u64::MAX, Time::ZERO);
    // Two outages of the receiver's access link, separated by a healthy
    // window long enough for delivery (and the backoff reset) to happen.
    // No failover: a single-homed host has no alternate path.
    let plan = FaultPlan::new()
        .link_down(Time::from_micros(100), access)
        .link_up(Time::from_micros(1_800), access)
        .link_down(Time::from_micros(3_000), access)
        .link_up(Time::from_micros(6_000), access);
    net.install_faults(
        &plan,
        FaultConfig {
            failover: false,
            ..FaultConfig::default()
        },
    );
    net.run_until(Time::from_millis(10));

    let boundary = Time::from_micros(3_000);
    let fires: Vec<Time> = net
        .trace()
        .of_kind(TraceKind::Timeout)
        .iter()
        .filter(|e| e.flow == f)
        .map(|e| e.at)
        .collect();
    let first: Vec<Time> = fires.iter().copied().filter(|&t| t < boundary).collect();
    let second: Vec<Time> = fires.iter().copied().filter(|&t| t >= boundary).collect();
    assert!(
        first.len() >= 3,
        "first outage escalates through several timeouts: {first:?}"
    );
    let gaps: Vec<Duration> = first.windows(2).map(|w| w[1] - w[0]).collect();
    assert!(
        gaps.windows(2).all(|g| g[1] >= g[0]),
        "backoff escalated during the first outage: {gaps:?}"
    );
    assert!(
        gaps.last().unwrap() >= &rto.saturating_mul(2),
        "the multiplier actually grew past 1×: {gaps:?}"
    );
    // The healthy window delivered bytes, so the second outage restarts
    // the schedule: its first two timeouts are 1 × RTO apart (continued
    // escalation would make the gap ≥ 4 × RTO).
    assert!(
        second.len() >= 2,
        "second outage produced timeouts: {second:?}"
    );
    assert_eq!(
        second[1] - second[0],
        rto,
        "backoff restarted at 1 × RTO after recovery"
    );
    assert!(!net.flow_stats(f).aborted, "the flow survived both outages");
    assert!(
        net.flow_stats(f).delivered_bytes > 0,
        "delivery resumed in between"
    );
}

/// The watchdog must re-arm after restoring: a second storm on the same
/// port and class trips it again, and both trips and both restores are
/// counted — in the switch stats and in telemetry.
#[test]
fn watchdog_retrips_after_second_storm_and_counts_twice() {
    // Recovery is long enough that the restore lands *after* the storm's
    // final PAUSE frame: trip + recovery > storm end. PAUSE is modelled
    // level-triggered, so a trailing PAUSE applied after the restore
    // would (correctly) re-trip the watchdog within one storm, which is
    // not the re-arm path this test pins down.
    let wd = PfcWatchdogConfig {
        threshold: Duration::from_micros(500),
        recovery: Duration::from_micros(2_000),
    };
    let mut b = NetworkBuilder::new(17);
    let mut cfg = SwitchConfig::paper_default();
    cfg.watchdog = Some(wd);
    let s1 = b.switch(cfg);
    let sender = b.host(host_cfg());
    let storm = b.host(host_cfg());
    let d = Duration::from_micros(1);
    b.connect(sender, s1, Bandwidth::gbps(40), d);
    b.connect(storm, s1, Bandwidth::gbps(40), d);
    let mut net = b.build();
    let f = net.add_flow(sender, storm, DATA_PRIORITY, |l| Box::new(NoCc::new(l)));
    net.send_message(f, u64::MAX, Time::ZERO);
    // Two short storms. Each lasts 1.5 ms: long enough to trip a 500 µs
    // watchdog exactly once (the 1 ms recovery restore lands after the
    // storm has ended, so no double trip within one storm). The 5 ms gap
    // lets the port restore and the fabric drain before the second hit.
    let plan = FaultPlan::new()
        .pause_storm(
            storm,
            DATA_PRIORITY,
            Time::from_millis(1),
            Time::from_micros(2_500),
            Duration::from_micros(20),
        )
        .pause_storm(
            storm,
            DATA_PRIORITY,
            Time::from_micros(7_500),
            Time::from_millis(9),
            Duration::from_micros(20),
        );
    net.install_faults(&plan, FaultConfig::default());
    net.run_until(Time::from_millis(15));

    let st = net.switch_stats(s1);
    assert_eq!(st.watchdog_trips, 2, "one trip per storm, counted twice");
    assert_eq!(st.watchdog_restores, 2, "and one restore per storm");
    // Telemetry agrees with the per-switch stats.
    assert_eq!(net.metric("watchdog_trips"), 2);
    assert_eq!(net.metric("watchdog_restores"), 2);
    // After the last restore the port is healthy again: traffic flows.
    let delivered_at_end = net.flow_stats(f).delivered_bytes;
    net.run_until(Time::from_millis(17));
    assert!(
        net.flow_stats(f).delivered_bytes > delivered_at_end,
        "the restored port keeps forwarding"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// Any plan accepted by `FaultPlan::validate` replays
    /// deterministically: two simulations of the same topology, workload
    /// and plan agree event-for-event and byte-for-byte.
    #[test]
    fn accepted_plans_replay_deterministically(
        seed in 0u64..1_000,
        flap_at in 200u64..3_000,
        down_for in 100u64..900,
        storm_from in 1_000u64..4_000,
        storm_len in 500u64..2_000,
        err_ppm in 1u64..50_000,
    ) {
        let run = || {
            let mut b = NetworkBuilder::new(seed);
            let mut cfg = SwitchConfig::paper_default();
            cfg.watchdog = Some(PfcWatchdogConfig::default());
            let s1 = b.switch(cfg);
            let h1 = b.host(host_cfg());
            let h2 = b.host(host_cfg());
            let h3 = b.host(host_cfg());
            let d = Duration::from_micros(1);
            let l1 = b.connect(h1, s1, Bandwidth::gbps(40), d);
            b.connect(h2, s1, Bandwidth::gbps(40), d);
            b.connect(h3, s1, Bandwidth::gbps(40), d);
            let mut net = b.build();
            let f1 = net.add_flow(h1, h2, DATA_PRIORITY, |l| Box::new(NoCc::new(l)));
            let f2 = net.add_flow(h3, h2, DATA_PRIORITY, |l| Box::new(NoCc::new(l)));
            net.send_message(f1, 500_000, Time::ZERO);
            net.send_message(f2, 500_000, Time::from_micros(50));
            let plan = FaultPlan::new()
                .link_flap(
                    l1,
                    Time::from_micros(flap_at),
                    Duration::from_micros(down_for),
                    Duration::from_micros(down_for + 200),
                    2,
                )
                .bit_error(Time::from_micros(100), l1, err_ppm as f64 / 1e6)
                .bit_error(Time::from_micros(5_000), l1, 0.0)
                .pause_storm(
                    h2,
                    DATA_PRIORITY,
                    Time::from_micros(storm_from),
                    Time::from_micros(storm_from + storm_len),
                    Duration::from_micros(20),
                );
            assert!(plan.validate().is_ok());
            net.install_faults(&plan, FaultConfig::default());
            net.run_until(Time::from_millis(12));
            (
                net.events_executed(),
                net.flow_stats(f1).delivered_bytes,
                net.flow_stats(f2).delivered_bytes,
                net.metric("watchdog_trips"),
                net.fault_stats().transitions,
            )
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a, b, "replay must be exact");
    }
}
