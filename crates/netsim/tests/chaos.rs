//! Hostile chaos-case input: replay files are hand-editable, so a case
//! naming something its topology does not have, or a value too wide for
//! its field, must come back as one `Err` line — never an index panic
//! when the fault fires, a silent PASS, or a wrapped value.

use netsim::cc::NoCc;
use netsim::chaos::{chaos_host_config, generate_case, run_case, ChaosCase, FaultSpec, TopoPick};
use netsim::switch::SwitchConfig;
use netsim::telemetry::Json;

/// Narrow fields are range-checked, not wrapped: link 2^32 + 1 must
/// not replay as link 1, nor class 259 as class 3.
#[test]
fn from_json_rejects_out_of_range_fields() {
    let mut case = generate_case(1, 0, true);
    case.faults = vec![FaultSpec::Storm {
        host: 1,
        class: 3,
        from_us: 1_000,
        until_us: 2_000,
        refresh_us: 10,
    }];
    let good = case.to_json().render();
    for (from, to, field) in [
        ("\"host\": 1", "\"host\": 4294967297", "host"),
        ("\"class\": 3", "\"class\": 259", "class"),
    ] {
        assert!(good.contains(from), "{good}");
        let j = Json::parse(&good.replace(from, to)).unwrap();
        let err = ChaosCase::from_json(&j).unwrap_err();
        assert!(
            err.contains(&format!("field '{field}' out of range")),
            "{err}"
        );
    }
}

/// A fault naming something the topology does not have is an `Err`
/// up front, not an index panic when it fires (or a silent PASS).
#[test]
fn faults_outside_the_fabric_are_rejected_at_install() {
    let mut case = generate_case(1, 0, true);
    case.topo = TopoPick::Star { hosts: 4 };
    case.flows.truncate(1);
    case.flows[0].src = 0;
    case.flows[0].dst = 1;
    let wedge = |switch, port, class| FaultSpec::Wedge {
        switch,
        port,
        class,
        at_us: 1_000,
    };
    for (spec, needle) in [
        (
            FaultSpec::Flap {
                link: 99,
                at_us: 1_000,
                down_us: 100,
                times: 1,
                period_us: 500,
            },
            "link 99 but the fabric has 4 links",
        ),
        (
            FaultSpec::Storm {
                host: 50,
                class: 3,
                from_us: 1_000,
                until_us: 2_000,
                refresh_us: 10,
            },
            "host 51 but the fabric has 5 nodes",
        ),
        (wedge(0, 77, 3), "port 77 but switch 0 has 4 ports"),
        (wedge(0, 1, 9), "class 9 but PFC has 8 classes"),
        (wedge(2, 0, 3), "switch 2 but node 2 is a host"),
    ] {
        case.faults = vec![spec];
        let err = run_case(
            &case,
            chaos_host_config(),
            SwitchConfig::paper_default(),
            &|line| Box::new(NoCc::new(line)),
        )
        .unwrap_err();
        assert!(err.contains(needle), "{spec:?}: {err}");
        assert_eq!(err.lines().count(), 1, "one line: {err}");
    }
}
