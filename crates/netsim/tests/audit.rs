//! End-to-end tests of the `sanitize` invariant auditor: real simulations
//! run clean, and deliberately corrupted ones are caught.
#![cfg(feature = "sanitize")]

use netsim::audit::ViolationKind;
use netsim::cc::{CcAuditInfo, CongestionControl, NoCc};
use netsim::host::HostConfig;
use netsim::packet::DATA_PRIORITY;
use netsim::switch::SwitchConfig;
use netsim::topology::{star, LinkParams};
use netsim::units::{Bandwidth, Time};

fn host_cfg() -> HostConfig {
    HostConfig {
        cnp_interval: None,
        ..HostConfig::default()
    }
}

/// A congested-but-healthy run records zero violations: the simulator's
/// own invariants hold under PFC pressure.
#[test]
fn healthy_congested_run_is_clean() {
    assert!(netsim::audit::Auditor::enabled());
    let mut s = star(
        4,
        LinkParams::default(),
        host_cfg(),
        SwitchConfig::paper_default(),
        7,
    );
    // 3-to-1 incast: enough pressure to exercise PFC pause/resume.
    for i in 0..3 {
        let f = s.net.add_flow(s.hosts[i], s.hosts[3], DATA_PRIORITY, |l| {
            Box::new(NoCc::new(l))
        });
        s.net.send_message(f, u64::MAX, Time::ZERO);
    }
    s.net.run_until(Time::from_millis(5));
    assert!(s.net.events_executed() > 10_000, "run actually simulated");
    s.net.audit().assert_clean();
}

/// Corrupting a switch's occupancy counter (without touching the ingress
/// attribution) is flagged as a conservation violation on the next scan.
#[test]
fn corrupted_buffer_occupancy_is_caught() {
    let mut s = star(
        2,
        LinkParams::default(),
        host_cfg(),
        SwitchConfig::paper_default(),
        1,
    );
    let f = s.net.add_flow(s.hosts[0], s.hosts[1], DATA_PRIORITY, |l| {
        Box::new(NoCc::new(l))
    });
    s.net.send_message(f, u64::MAX, Time::ZERO);
    s.net.run_until(Time::from_millis(1));
    s.net.audit().assert_clean();

    let sw = s.switch;
    s.net.switch_mut(sw).buffer.debug_set_occupied(123_456_789);
    s.net.audit_buffers_now();
    let v = s.net.audit().violations();
    assert!(!v.is_empty(), "corruption went unnoticed");
    assert!(v
        .iter()
        .any(|v| v.kind == ViolationKind::BufferConservation));
    // 123 MB also exceeds the 12 MB pool — both checks fire.
    assert!(v.iter().any(|v| v.context.contains("exceeds pool")));
}

/// A port whose byte counter disagrees with what its queue lists hold is
/// flagged, with the node named, by the same periodic scan.
#[test]
fn corrupted_port_accounting_is_caught() {
    let mut s = star(
        3,
        LinkParams::default(),
        host_cfg(),
        SwitchConfig::paper_default(),
        1,
    );
    // 2-to-1 incast: the switch's egress port holds a standing queue.
    for i in 0..2 {
        let f = s.net.add_flow(s.hosts[i], s.hosts[2], DATA_PRIORITY, |l| {
            Box::new(NoCc::new(l))
        });
        s.net.send_message(f, u64::MAX, Time::ZERO);
    }
    s.net.run_until(Time::from_millis(1));
    s.net.audit().assert_clean();

    let sw = s.switch;
    s.net.switch_mut(sw).ports[2].queued_bytes[DATA_PRIORITY as usize] += 1;
    s.net.audit_buffers_now();
    let v = s.net.audit().violations();
    assert_eq!(v.len(), 1, "one port, one violation");
    assert_eq!(v[0].kind, ViolationKind::PortConservation);
    assert_eq!(v[0].node, Some(sw));
    assert!(
        v[0].context.contains("port 2: prio 3") && v[0].context.contains("!= queued_bytes"),
        "{}",
        v[0].context
    );
}

/// A violation automatically dumps the offending node's flight-recorder
/// ring: the dump names the switch, carries the violation kind in its
/// reason, and holds the node's most recent trace events.
#[test]
fn violation_dumps_the_offending_nodes_flight_recorder() {
    let mut s = star(
        2,
        LinkParams::default(),
        host_cfg(),
        SwitchConfig::paper_default(),
        1,
    );
    let f = s.net.add_flow(s.hosts[0], s.hosts[1], DATA_PRIORITY, |l| {
        Box::new(NoCc::new(l))
    });
    s.net.send_message(f, u64::MAX, Time::ZERO);
    s.net.run_until(Time::from_millis(1));
    assert!(s.net.flight_dumps().is_empty(), "clean run, no dumps");

    let sw = s.switch;
    s.net.switch_mut(sw).buffer.debug_set_occupied(123_456_789);
    s.net.audit_buffers_now();
    assert!(!s.net.audit().is_clean());
    let dumps = s.net.flight_dumps();
    assert!(!dumps.is_empty(), "violation produced no flight dump");
    assert!(
        dumps.iter().any(|d| d.node == sw),
        "dump names the offending switch"
    );
    let d = dumps.iter().find(|d| d.node == sw).unwrap();
    assert!(
        d.reason.contains("BufferConservation") || d.reason.contains("exceeds pool"),
        "reason carries the violation: {}",
        d.reason
    );
}

/// A congestion-control implementation that reports α and rates outside
/// the documented domains (α > 1, R_C > R_T).
struct BrokenCc {
    line: Bandwidth,
}

impl CongestionControl for BrokenCc {
    fn rate(&self) -> Bandwidth {
        self.line
    }
    fn name(&self) -> &'static str {
        "broken"
    }
    fn audit_info(&self) -> Option<CcAuditInfo> {
        Some(CcAuditInfo {
            rate: self.line,
            target: Bandwidth::gbps(1), // rate > target: ordering broken
            line: self.line,
            alpha: Some(2.5), // outside [0, 1]
        })
    }
}

/// An algorithm whose self-reported state leaves the DCQCN domains is
/// flagged the first time the host consults it.
#[test]
fn out_of_domain_cc_state_is_caught() {
    let mut s = star(
        2,
        LinkParams::default(),
        host_cfg(),
        SwitchConfig::paper_default(),
        1,
    );
    let f = s.net.add_flow(s.hosts[0], s.hosts[1], DATA_PRIORITY, |l| {
        Box::new(BrokenCc { line: l })
    });
    s.net.send_message(f, 1_000_000, Time::ZERO);
    s.net.run_until(Time::from_millis(5));
    let v = s.net.audit().violations();
    assert!(!v.is_empty(), "bad CC state went unnoticed");
    assert!(v.iter().all(|v| v.kind == ViolationKind::CcDomain));
    assert!(v.iter().any(|v| v.context.contains("alpha")));
    assert!(v.iter().any(|v| v.context.contains("rate ordering")));
}

/// With PFC thresholds misconfigured far above the pool size, the switch
/// never pauses and must drop on a lossless class once the pool fills —
/// which the auditor reports as the contract violation it is.
#[test]
fn drop_on_lossless_class_is_caught() {
    use netsim::buffer::{BufferConfig, PfcThreshold};
    let mut cfg = SwitchConfig::paper_default();
    cfg.buffer = BufferConfig {
        total_bytes: 40_000, // tiny pool: fills within the first RTT
        headroom_bytes: 0,
        threshold: PfcThreshold::Static(u64::MAX), // never pause
        ..BufferConfig::trident2()
    };
    let mut s = star(4, LinkParams::default(), host_cfg(), cfg, 3);
    for i in 0..3 {
        let f = s.net.add_flow(s.hosts[i], s.hosts[3], DATA_PRIORITY, |l| {
            Box::new(NoCc::new(l))
        });
        s.net.send_message(f, u64::MAX, Time::ZERO);
    }
    s.net.run_until(Time::from_millis(2));
    let audit = s.net.audit();
    assert!(!audit.is_clean(), "lossless drops went unnoticed");
    assert!(audit
        .violations()
        .iter()
        .any(|v| v.kind == ViolationKind::LosslessDrop));
    assert!(audit.report().contains("lossless"));
}
