//! Headline shape assertions from the paper's evaluation, at reduced
//! scale (full-scale numbers come from `cargo run -p experiments`).

use baselines::dctcp::{dctcp, DctcpParams};
use dcqcn::prelude::*;
use experiments::common::CcChoice;
use experiments::scenarios::{unfairness_run, victim_run};
use netsim::prelude::*;
use netsim::topology::{parking_lot, star, LinkParams};

/// Figure 3 vs Figure 8: PFC alone is unfair (H4's share dominates);
/// DCQCN equalizes.
#[test]
fn dcqcn_fixes_pfc_unfairness() {
    let dur = Duration::from_millis(120);
    let warm = Duration::from_millis(40);
    let pfc_only = unfairness_run(CcChoice::None, 2, dur, warm);
    // H4 (index 3) beats every T1 host.
    let h4 = pfc_only[3];
    assert!(
        pfc_only[..3].iter().all(|&h| h4 >= h - 0.5),
        "PFC-only favors H4: {pfc_only:?}"
    );
    let spread_pfc = pfc_only.iter().cloned().fold(0.0f64, f64::max)
        - pfc_only.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(spread_pfc > 4.0, "visible unfairness: {pfc_only:?}");

    let with_dcqcn = unfairness_run(
        CcChoice::dcqcn_paper(),
        2,
        Duration::from_millis(300),
        Duration::from_millis(180),
    );
    let spread_dcqcn = with_dcqcn.iter().cloned().fold(0.0f64, f64::max)
        - with_dcqcn.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(
        spread_dcqcn < spread_pfc / 2.0,
        "DCQCN equalizes: {with_dcqcn:?} vs {pfc_only:?}"
    );
}

/// Figure 4 vs Figure 9: adding remote senders under T3 hurts the victim
/// without DCQCN and not with it.
#[test]
fn dcqcn_fixes_victim_flow() {
    let dur = Duration::from_millis(120);
    let warm = Duration::from_millis(40);
    let v0: f64 = (1..=3)
        .map(|s| victim_run(CcChoice::None, 0, s, dur, warm))
        .sum::<f64>()
        / 3.0;
    let v2: f64 = (1..=3)
        .map(|s| victim_run(CcChoice::None, 2, s, dur, warm))
        .sum::<f64>()
        / 3.0;
    assert!(
        v2 < v0,
        "victim degrades with remote congestion: {v0:.1} -> {v2:.1}"
    );

    let d_dur = Duration::from_millis(300);
    let d_warm = Duration::from_millis(180);
    let d2: f64 = (1..=3)
        .map(|s| victim_run(CcChoice::dcqcn_paper(), 2, s, d_dur, d_warm))
        .sum::<f64>()
        / 3.0;
    assert!(
        d2 > 2.0 * v2,
        "DCQCN rescues the victim: {d2:.1} vs {v2:.1} Gbps"
    );
}

/// Figure 19: at the 2:1 microbenchmark, DCQCN's queue is far shorter
/// than DCTCP's (76.6 vs 162.9 KB at the 90th percentile in the paper).
#[test]
fn dcqcn_queue_is_shorter_than_dctcp() {
    let sample = |dcqcn_mode: bool| -> f64 {
        let (host, sw): (HostConfig, SwitchConfig) = if dcqcn_mode {
            (
                dcqcn_host_config(DcqcnParams::paper()),
                SwitchConfig::paper_default().with_red(red_deployed()),
            )
        } else {
            (
                HostConfig {
                    cnp_interval: None,
                    ack_every: 2,
                    ..HostConfig::default()
                },
                SwitchConfig::paper_default().with_red(red_cutoff_dctcp_40g()),
            )
        };
        let mut s = star(3, LinkParams::default(), host, sw, 3);
        let dst = s.hosts[2];
        for i in 0..2 {
            let f = if dcqcn_mode {
                s.net
                    .add_flow(s.hosts[i], dst, DATA_PRIORITY, dcqcn(DcqcnParams::paper()))
            } else {
                s.net.add_flow(
                    s.hosts[i],
                    dst,
                    DATA_PRIORITY,
                    dctcp(DctcpParams::default_40g()),
                )
            };
            s.net.send_message(f, u64::MAX, Time::ZERO);
        }
        let port = PortId(2);
        s.net.enable_sampling(
            Duration::from_micros(10),
            SamplerConfig {
                queues: vec![(s.switch, port)],
                ..SamplerConfig::default()
            },
        );
        s.net.run_until(Time::from_millis(120));
        let tl = s.net.sampler().queue(s.switch, port).expect("sampled port");
        // Skip the first 40 ms line-rate transient, as before.
        tl.weighted_percentile(90.0, Time::from_millis(40)) / 1000.0
    };
    let q_dcqcn = sample(true);
    let q_dctcp = sample(false);
    assert!(q_dcqcn < 110.0, "DCQCN p90 {q_dcqcn:.1} KB (paper 76.6)");
    assert!(
        (130.0..200.0).contains(&q_dctcp),
        "DCTCP p90 {q_dctcp:.1} KB rides its 160 KB threshold"
    );
    assert!(q_dcqcn < q_dctcp * 0.7, "DCQCN clearly shorter");
}

/// Figure 20: RED-like marking rescues the two-bottleneck flow that
/// cut-off marking starves.
#[test]
fn red_marking_mitigates_multi_bottleneck() {
    let run = |red: RedConfig| -> [f64; 3] {
        let cc = CcChoice::Dcqcn(DcqcnParams::paper());
        let mut sw = cc.switch_config(true, false);
        sw.red = red;
        let pl = parking_lot(LinkParams::default(), cc.host_config(), sw, 17);
        let mut net = pl.net;
        let f = cc.factory();
        let f1 = net.add_flow(pl.h1, pl.r1, DATA_PRIORITY, &f);
        let f2 = net.add_flow(pl.h2, pl.r2, DATA_PRIORITY, &f);
        let f3 = net.add_flow(pl.h3, pl.r2, DATA_PRIORITY, &f);
        for fl in [f1, f2, f3] {
            net.send_message(fl, u64::MAX, Time::ZERO);
        }
        net.enable_sampling(
            Duration::from_micros(500),
            SamplerConfig {
                all_flows: true,
                ..SamplerConfig::default()
            },
        );
        net.run_until(Time::from_millis(300));
        [f1, f2, f3].map(|fl| net.goodput_gbps(fl, Time::from_millis(150), Time::from_millis(300)))
    };
    let cutoff = run(RedConfig::cutoff(40_000));
    let red = run(red_deployed());
    assert!(
        red[1] > cutoff[1] + 3.0,
        "two-bottleneck f2: RED {:.1} vs cutoff {:.1} Gbps",
        red[1],
        cutoff[1]
    );
    assert!(red[1] < 20.0, "mitigated, not fully solved (max-min is 20)");
}

/// §6.1's capstone: K:1 incast with the deployed parameters keeps total
/// throughput high for K up to 16.
#[test]
fn deep_incast_keeps_high_utilization() {
    let p = DcqcnParams::paper();
    for k in [2usize, 8, 16] {
        let mut s = star(
            k + 1,
            LinkParams::default(),
            dcqcn_host_config(p),
            SwitchConfig::paper_default().with_red(red_deployed()),
            9,
        );
        let dst = s.hosts[k];
        let flows: Vec<FlowId> = (0..k)
            .map(|i| s.net.add_flow(s.hosts[i], dst, DATA_PRIORITY, dcqcn(p)))
            .collect();
        for &f in &flows {
            s.net.send_message(f, u64::MAX, Time::ZERO);
        }
        s.net.enable_sampling(
            Duration::from_micros(500),
            SamplerConfig {
                all_flows: true,
                ..SamplerConfig::default()
            },
        );
        s.net.run_until(Time::from_millis(200));
        let total: f64 = flows
            .iter()
            .map(|&f| {
                s.net
                    .goodput_gbps(f, Time::from_millis(100), Time::from_millis(200))
            })
            .sum();
        // Paper reports > 39 Gbps wire rate; our goodput ceiling is
        // 40 × 1436/1500 ≈ 38.3 Gbps. Allow the deep-incast oscillation
        // some slack but demand high utilization.
        assert!(total > 32.0, "{k}:1 total goodput {total:.1} Gbps");
    }
}
