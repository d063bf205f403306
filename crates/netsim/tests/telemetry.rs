//! End-to-end telemetry: a real congested run natively produces the
//! paper's measurables, read back by name through `Network::metric`, the
//! JSON report is deterministic, and QP teardown dumps the flight
//! recorder.

use netsim::cc::NoCc;
use netsim::event::PortId;
use netsim::host::HostConfig;
use netsim::packet::DATA_PRIORITY;
use netsim::prelude::{FaultConfig, FaultPlan};
use netsim::stats::SamplerConfig;
use netsim::switch::SwitchConfig;
use netsim::topology::{star, LinkParams};
use netsim::trace::TraceKind;
use netsim::units::{Duration, Time};

fn host_cfg() -> HostConfig {
    HostConfig {
        cnp_interval: None,
        ..HostConfig::default()
    }
}

/// A 3-to-1 incast under PFC populates the paper's measurables — pause
/// frames, queue-depth samples, completions — with no sampler plumbing.
#[test]
fn congested_run_populates_the_registry() {
    let mut s = star(
        4,
        LinkParams::default(),
        host_cfg(),
        SwitchConfig::paper_default(),
        7,
    );
    for i in 0..3 {
        let f = s.net.add_flow(s.hosts[i], s.hosts[3], DATA_PRIORITY, |l| {
            Box::new(NoCc::new(l))
        });
        s.net.send_message(f, u64::MAX, Time::ZERO);
    }
    s.net.run_until(Time::from_millis(5));

    assert!(s.net.metric("forwarded") > 1_000, "data flowed");
    assert!(s.net.metric("pause_tx") > 0, "the incast paused");
    assert!(s.net.metric("resume_tx") > 0, "and resumed");
    assert_eq!(s.net.metric("drops_pool"), 0, "lossless: nothing dropped");

    let report = s.net.telemetry_report().render();
    for key in [
        "\"queue_depth_bytes\"",
        "\"pause_duration_us\"",
        "\"fct_us\"",
        "\"goodput_gbps\"",
        "\"events_executed\"",
    ] {
        assert!(report.contains(key), "report is missing {key}");
    }
    // Rendering is a pure function of the run — except for the `profile`
    // section of a `--features profile` build, which reads the host clock.
    if !netsim::telemetry::Profiler::enabled() {
        assert_eq!(report, s.net.telemetry_report().render());
    }
}

/// A misspelled counter name is an error, not a silently wrong 0.
#[test]
#[should_panic(expected = "unknown counter 'no_such_counter'")]
fn unknown_metric_names_panic() {
    let s = star(
        2,
        LinkParams::default(),
        host_cfg(),
        SwitchConfig::paper_default(),
        1,
    );
    s.net.metric("no_such_counter");
}

/// A misspelled sampled counter is caught when sampling is enabled.
#[test]
#[should_panic(expected = "enable_sampling: unknown counter 'no_such_counter'")]
fn unknown_sampled_counter_names_panic() {
    let mut s = star(
        2,
        LinkParams::default(),
        host_cfg(),
        SwitchConfig::paper_default(),
        1,
    );
    let config = SamplerConfig {
        counters: vec!["no_such_counter"],
        ..SamplerConfig::default()
    };
    s.net.enable_sampling(Duration::from_micros(10), config);
}

/// Message completions feed the completion counter and the FCT histogram.
#[test]
fn completions_and_fct_are_observed() {
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
    s.net.send_message(f, 1_000_000, Time::ZERO);
    s.net.send_message(f, 500_000, Time::from_micros(500));
    s.net.run_until(Time::from_millis(5));
    assert_eq!(s.net.metric("completions"), 2, "both messages finished");
    let report = s.net.telemetry_report().render();
    assert!(report.contains("\"fct_us\""));
}

/// Tearing a QP down (transport retries exhausted against a dead link)
/// dumps the sender's flight-recorder ring, and the ring holds the
/// timeout trail that led to the teardown.
#[test]
fn qp_teardown_dumps_the_flight_recorder() {
    let mut s = star(
        2,
        LinkParams::default(),
        HostConfig {
            rto: Duration::from_micros(500),
            max_retries: 2,
            ..host_cfg()
        },
        SwitchConfig::paper_default(),
        3,
    );
    s.net.enable_flight_recorder(64);
    let f = s.net.add_flow(s.hosts[0], s.hosts[1], DATA_PRIORITY, |l| {
        Box::new(NoCc::new(l))
    });
    s.net.send_message(f, u64::MAX, Time::ZERO);
    // Kill the receiver's access link with no failover: the sender
    // black-holes, backs off, and exhausts its retry budget.
    let link = s
        .net
        .link_between(s.switch, s.hosts[1])
        .expect("access link");
    let plan = FaultPlan::new().link_down(Time::from_micros(200), link);
    s.net.install_faults(
        &plan,
        FaultConfig {
            failover: false,
            ..FaultConfig::default()
        },
    );
    s.net.run_until(Time::from_millis(20));

    assert_eq!(s.net.metric("qp_teardowns"), 1, "the QP tore down");
    assert!(s.net.flow_stats(f).aborted);
    let dumps = s.net.flight_dumps();
    assert_eq!(dumps.len(), 1, "teardown produced exactly one dump");
    let d = &dumps[0];
    assert_eq!(d.node, s.hosts[0], "the sender's ring was dumped");
    assert!(d.reason.contains("qp_teardown"), "reason: {}", d.reason);
    assert!(
        d.events.iter().any(|e| e.kind == TraceKind::Timeout),
        "the ring holds the timeout trail"
    );
}

/// The run report's exact bytes for one small run with sampling, spans
/// and a link flap on, so the `faults`, `timelines`, `flows` and
/// `histograms` sections are pinned. Regenerate with
/// `UPDATE_GOLDEN=1 cargo test -p netsim --test telemetry`.
#[test]
fn report_matches_golden_file() {
    // A `profile` build appends host-clock data: pinned without it.
    if netsim::telemetry::Profiler::enabled() {
        return;
    }
    // Two greedy senders incast onto host 3 (PAUSEs), a third sends two
    // short messages (completions, FCTs); sender 0's link flaps.
    let mut s = star(
        4,
        LinkParams::default(),
        host_cfg(),
        SwitchConfig::paper_default(),
        11,
    );
    let flows: Vec<_> = (0..3)
        .map(|i| {
            s.net.add_flow(s.hosts[i], s.hosts[3], DATA_PRIORITY, |l| {
                Box::new(NoCc::new(l))
            })
        })
        .collect();
    s.net.send_message(flows[0], u64::MAX, Time::ZERO);
    s.net.send_message(flows[1], u64::MAX, Time::ZERO);
    s.net.send_message(flows[2], 200_000, Time::ZERO);
    s.net.send_message(flows[2], 100_000, Time::from_millis(1));
    s.net.enable_spans(256);
    s.net.enable_sampling(
        Duration::from_micros(50),
        SamplerConfig {
            all_flows: true,
            queues: vec![(s.switch, PortId(3))],
            rate_flows: vec![flows[0]],
            counters: vec!["forwarded", "pause_tx", "fault_drops"],
            ..SamplerConfig::default()
        },
    );
    let link = s.net.link_between(s.switch, s.hosts[0]).expect("link");
    let plan = FaultPlan::new().link_flap(
        link,
        Time::from_micros(300),
        Duration::from_micros(200),
        Duration::from_micros(500),
        1,
    );
    s.net.install_faults(&plan, FaultConfig::default());
    s.net.run_until(Time::from_millis(3));

    let rendered = s.net.telemetry_report().render();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/report.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden file present");
    assert_eq!(
        rendered, golden,
        "report drifted from tests/golden/report.json; \
         rerun with UPDATE_GOLDEN=1 if the change is intended"
    );
}
