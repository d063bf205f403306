//! PFC losslessness and the §4 ECN-before-PFC guarantee, exercised end to
//! end on the packet simulator.

use dcqcn::prelude::*;
use experiments::common::CcChoice;
use netsim::prelude::*;
use netsim::topology::{clos_testbed, star, LinkParams};

fn no_cc_host() -> HostConfig {
    HostConfig {
        cnp_interval: None,
        ..HostConfig::default()
    }
}

/// With PFC enabled, a brutal 8:1 incast with **no** congestion control
/// must never drop a packet — PAUSE absorbs everything.
#[test]
fn pfc_is_lossless_under_uncontrolled_incast() {
    for seed in 1..=3 {
        let mut s = star(
            9,
            LinkParams::default(),
            no_cc_host(),
            SwitchConfig::paper_default(),
            seed,
        );
        let dst = s.hosts[8];
        for i in 0..8 {
            let f = s
                .net
                .add_flow(s.hosts[i], dst, DATA_PRIORITY, |l| Box::new(NoCc::new(l)));
            s.net.send_message(f, u64::MAX, Time::ZERO);
        }
        s.net.run_until(Time::from_millis(30));
        let st = s.net.switch_stats(s.switch);
        assert_eq!(st.drops_pool, 0, "seed {seed}: shared pool never overflows");
        assert_eq!(st.drops_lossy, 0);
        assert!(st.pause_tx > 0, "seed {seed}: PFC actually engaged");
        assert!(st.resume_tx > 0, "seed {seed}: and released");
    }
}

/// Losslessness holds across the whole Clos too, including cascading
/// PAUSE chains.
#[test]
fn clos_is_lossless_with_cascading_pauses() {
    let mut tb = clos_testbed(
        5,
        LinkParams::default(),
        no_cc_host(),
        SwitchConfig::paper_default(),
        5,
    );
    let r = tb.hosts[3][0];
    let mut flows = Vec::new();
    for i in 0..4 {
        flows.push(
            tb.net
                .add_flow(tb.hosts[0][i], r, DATA_PRIORITY, |l| Box::new(NoCc::new(l))),
        );
    }
    for &f in &flows {
        tb.net.send_message(f, u64::MAX, Time::ZERO);
    }
    tb.net.run_until(Time::from_millis(30));
    let mut total_pause = 0;
    for id in tb.tors.iter().chain(&tb.leaves).chain(&tb.spines) {
        let st = tb.net.switch_stats(*id);
        assert_eq!(st.drops_pool + st.drops_lossy, 0, "no drops anywhere");
        total_pause += st.pause_tx;
    }
    assert!(total_pause > 0, "incast triggered PFC somewhere");
    // Every byte the receiver got arrived in order (goodput counted).
    let delivered: u64 = flows
        .iter()
        .map(|&f| tb.net.flow_stats(f).delivered_bytes)
        .sum();
    assert!(delivered > 0);
}

/// With the deployed §4 thresholds and DCQCN, ECN fires and PFC does not:
/// the end-to-end loop keeps ingress queues below the pause point.
#[test]
fn deployed_thresholds_mark_before_pausing() {
    let params = DcqcnParams::paper();
    let mut s = star(
        9,
        LinkParams::default(),
        dcqcn_host_config(params),
        SwitchConfig::paper_default().with_red(red_deployed()),
        3,
    );
    let dst = s.hosts[8];
    for i in 0..8 {
        let f = s
            .net
            .add_flow(s.hosts[i], dst, DATA_PRIORITY, dcqcn(params));
        s.net.send_message(f, u64::MAX, Time::ZERO);
    }
    s.net.run_until(Time::from_millis(50));
    let st = s.net.switch_stats(s.switch);
    assert!(st.ecn_marks > 0, "ECN engaged");
    assert_eq!(st.pause_tx, 0, "PFC never needed");
    assert_eq!(st.drops_pool + st.drops_lossy, 0);
}

/// With the misconfigured static thresholds (ECN above PFC), PFC fires
/// even though DCQCN is running — the §6.2 misconfiguration.
#[test]
fn misconfigured_thresholds_pause_before_marking() {
    let params = DcqcnParams::paper();
    let sw = CcChoice::dcqcn_paper().switch_config(true, true);
    let mut s = star(9, LinkParams::default(), dcqcn_host_config(params), sw, 3);
    let dst = s.hosts[8];
    for i in 0..8 {
        let f = s
            .net
            .add_flow(s.hosts[i], dst, DATA_PRIORITY, dcqcn(params));
        s.net.send_message(f, u64::MAX, Time::ZERO);
    }
    s.net.run_until(Time::from_millis(50));
    let st = s.net.switch_stats(s.switch);
    assert!(st.pause_tx > 0, "PFC fires before ECN can act");
    assert_eq!(st.drops_pool + st.drops_lossy, 0, "still lossless");
}

/// Without PFC the same incast drops packets (and DCQCN alone cannot
/// prevent the line-rate-start transient from overflowing lossy queues).
#[test]
fn disabling_pfc_loses_packets() {
    let params = DcqcnParams::paper();
    let mut s = star(
        9,
        LinkParams::default(),
        dcqcn_host_config(params),
        SwitchConfig::paper_default()
            .with_red(red_deployed())
            .without_pfc(),
        3,
    );
    let dst = s.hosts[8];
    let flows: Vec<FlowId> = (0..8)
        .map(|i| {
            s.net
                .add_flow(s.hosts[i], dst, DATA_PRIORITY, dcqcn(params))
        })
        .collect();
    for &f in &flows {
        s.net.send_message(f, 10_000_000, Time::ZERO);
    }
    s.net.run_until(Time::from_millis(100));
    let st = s.net.switch_stats(s.switch);
    assert!(
        st.drops_lossy > 0,
        "lossy mode drops under the start transient"
    );
    // Go-back-N still recovers: all messages complete.
    for &f in &flows {
        assert_eq!(
            s.net.flow_stats(f).completions.len(),
            1,
            "NAK-driven recovery completes the transfer"
        );
        assert_eq!(s.net.flow_stats(f).delivered_bytes, 10_000_000);
    }
}

/// PFC PAUSE applies per priority class: pausing the data class does not
/// block the control class (CNPs keep flowing).
#[test]
fn control_class_is_never_paused() {
    // Uncontrolled incast (pauses guaranteed) + DCQCN NP generating CNPs
    // on a second flow sharing the fabric: CNPs must still arrive.
    let params = DcqcnParams::paper();
    let mut s = star(
        6,
        LinkParams::default(),
        dcqcn_host_config(params),
        SwitchConfig::paper_default().with_red(red_deployed()),
        3,
    );
    let dst = s.hosts[5];
    let mut flows = Vec::new();
    for i in 0..4 {
        let f = s
            .net
            .add_flow(s.hosts[i], dst, DATA_PRIORITY, |l| Box::new(NoCc::new(l)));
        s.net.send_message(f, u64::MAX, Time::ZERO);
        flows.push(f);
    }
    let watched = s
        .net
        .add_flow(s.hosts[4], dst, DATA_PRIORITY, dcqcn(params));
    s.net.send_message(watched, u64::MAX, Time::ZERO);
    s.net.run_until(Time::from_millis(30));
    let st = s.net.flow_stats(watched);
    assert!(st.cnps_sent > 0, "NP generated CNPs");
    assert_eq!(
        st.cnps_sent, st.cnps_received,
        "every CNP reached the sender despite data-class pauses"
    );
}
