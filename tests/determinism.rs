//! Cross-crate determinism guarantees: a run is a pure function of the
//! topology, workload, and seed.

use dcqcn::prelude::*;
use netsim::prelude::*;
use netsim::topology::{clos_testbed, star, LinkParams};

/// Runs a 4:1 DCQCN incast on a star to 30 ms, one `run_until` call per
/// entry of `windows` (each an absolute horizon; the last call is always
/// at 30 ms), and returns a behavioral fingerprint.
fn star_fingerprint(seed: u64, windows: &[Time]) -> Vec<u64> {
    let params = DcqcnParams::paper();
    let mut s = star(
        5,
        LinkParams::default(),
        dcqcn_host_config(params),
        SwitchConfig::paper_default().with_red(red_deployed()),
        seed,
    );
    let dst = s.hosts[4];
    let flows: Vec<FlowId> = (0..4)
        .map(|i| {
            s.net
                .add_flow(s.hosts[i], dst, DATA_PRIORITY, dcqcn(params))
        })
        .collect();
    for &f in &flows {
        s.net.send_message(f, u64::MAX, Time::ZERO);
    }
    for &until in windows {
        s.net.run_until(until);
    }
    s.net.run_until(Time::from_millis(30));
    let mut fp: Vec<u64> = flows
        .iter()
        .flat_map(|&f| {
            let st = s.net.flow_stats(f);
            [
                st.delivered_bytes,
                st.sent_pkts,
                st.cnps_sent,
                st.cnps_received,
            ]
        })
        .collect();
    fp.push(s.net.events_executed());
    fp.push(s.net.switch_stats(s.switch).ecn_marks);
    fp
}

#[test]
fn identical_seeds_are_bit_identical() {
    assert_eq!(star_fingerprint(11, &[]), star_fingerprint(11, &[]));
}

#[test]
fn different_seeds_differ() {
    // RED sampling differs, so marks/CNP counts should differ.
    assert_ne!(star_fingerprint(11, &[]), star_fingerprint(12, &[]));
}

/// Slicing a run into `run_until` windows changes nothing, not even the
/// event count. Each window leaves the clock at its horizon while the
/// queue's cursor may already stand on a later bucket, and what is then
/// scheduled at or before the cursor must still pop in order: windows
/// shorter than one wheel tick, a horizon repeated, horizons on odd
/// picoseconds and one a whole wheel span long all hit that path.
#[test]
fn sliced_runs_replay_the_single_call() {
    use netsim::event::{SPAN_PS, TICK_PS};
    let whole = star_fingerprint(11, &[]);
    let mut sub_tick = Vec::new();
    let mut t = Time::from_micros(50);
    for _ in 0..200 {
        t += Duration(TICK_PS / 3 + 7);
        sub_tick.push(t);
    }
    let slicings: [Vec<Time>; 4] = [
        sub_tick,
        // The same horizon twice, and a window that ends one picosecond
        // into a tick.
        vec![
            Time::from_micros(100),
            Time::from_micros(100),
            Time(Time::from_micros(100).0 + 1),
        ],
        (1..=29_999)
            .step_by(997)
            .map(|k| Time(k * 1_000_003))
            .collect(),
        (1..=50).map(|k| Time(k * SPAN_PS / 2 + k)).collect(),
    ];
    for (i, windows) in slicings.iter().enumerate() {
        assert_eq!(star_fingerprint(11, windows), whole, "slicing {i}");
    }
}

/// ECMP path selection is a deterministic function of the seed: the
/// per-host goodputs of the Clos unfairness scenario replay exactly.
#[test]
fn clos_ecmp_draws_replay() {
    let run = |seed: u64| -> Vec<u64> {
        let mut tb = clos_testbed(
            5,
            LinkParams::default(),
            HostConfig {
                cnp_interval: None,
                ..HostConfig::default()
            },
            SwitchConfig::paper_default(),
            seed,
        );
        let senders = [
            tb.hosts[0][0],
            tb.hosts[0][1],
            tb.hosts[0][2],
            tb.hosts[3][0],
        ];
        let r = tb.hosts[3][1];
        let flows: Vec<FlowId> = senders
            .iter()
            .map(|&h| {
                tb.net
                    .add_flow(h, r, DATA_PRIORITY, |l| Box::new(NoCc::new(l)))
            })
            .collect();
        for &f in &flows {
            tb.net.send_message(f, u64::MAX, Time::ZERO);
        }
        tb.net.run_until(Time::from_millis(20));
        flows
            .iter()
            .map(|&f| tb.net.flow_stats(f).delivered_bytes)
            .collect()
    };
    assert_eq!(run(3), run(3));
    // And seeds change the ECMP outcome for at least one of a few seeds.
    let base = run(3);
    assert!(
        (4..8).any(|s| run(s) != base),
        "ECMP outcomes vary with seed"
    );
}

/// Workload generation is deterministic too: the full benchmark pipeline
/// replays end to end.
#[test]
fn benchmark_pipeline_replays() {
    use experiments::common::CcChoice;
    use experiments::scenarios::{benchmark_run, BenchmarkConfig};
    let cfg = BenchmarkConfig {
        cc: CcChoice::dcqcn_paper(),
        pairs: 6,
        incast_degree: 4,
        duration: Duration::from_millis(60),
        pfc: true,
        misconfigured: false,
        nack_enabled: true,
        seed: 77,
    };
    let a = benchmark_run(&cfg);
    let b = benchmark_run(&cfg);
    assert_eq!(a.events, b.events);
    assert_eq!(a.user_goodputs, b.user_goodputs);
    assert_eq!(a.incast_goodputs, b.incast_goodputs);
    assert_eq!(a.spine_pause_rx, b.spine_pause_rx);
}
