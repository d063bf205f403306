//! Figure 19: egress queue-length CDF at the congested port during the
//! §6.3 2:1 incast microbenchmark — DCQCN (shallow K_min, hardware
//! pacing) vs DCTCP (deep cut-off threshold to absorb software bursts).
//! Deeper incasts are printed as an extension: past ~8:1 the deployed
//! parameters operate at the K_max cliff (the fluid fixed point wants
//! p* > P_max), so the DCQCN tail grows.

use crate::common::CcChoice;
use crate::report::{Artifact, Run};
use crate::runner::par_map;
use baselines::dctcp::DctcpParams;
use netsim::event::PortId;
use netsim::packet::DATA_PRIORITY;
use netsim::stats::SamplerConfig;
use netsim::topology::{star, LinkParams, Star};
use netsim::units::{Duration, Time};

/// Builds and runs an `n`:1 incast with queue sampling at the receiver's
/// switch port, returning the star and the sampled port.
fn incast_sim(cc: CcChoice, n: usize, duration: Duration, seed: u64) -> (Star, PortId) {
    let mut s = star(
        n + 1,
        LinkParams::default(),
        cc.host_config(),
        cc.switch_config(true, false),
        seed,
    );
    let dst = s.hosts[n];
    let f = cc.factory();
    for i in 0..n {
        let fl = s.net.add_flow(s.hosts[i], dst, DATA_PRIORITY, &f);
        s.net.send_message(fl, u64::MAX, Time::ZERO);
    }
    // The receiver's link was added last: its switch port index is n.
    let port = PortId(n);
    s.net.enable_sampling(
        Duration::from_micros(10),
        SamplerConfig {
            queues: vec![(s.switch, port)],
            ..SamplerConfig::default()
        },
    );
    s.net.run_until(Time::ZERO + duration);
    (s, port)
}

/// Runs an `n`:1 incast and returns queue-depth tail stats (KB) at the
/// receiver's switch port: `[p50, p90, p99, mean]`, taken over the
/// sampled timeline after the line-rate-start transient.
fn queue_stats(cc: CcChoice, n: usize, duration: Duration, seed: u64) -> [f64; 4] {
    let (s, port) = incast_sim(cc, n, duration, seed);
    // Skip the line-rate-start transient.
    let cut = Time::ZERO + duration / 4;
    let tl = s.net.sampler().queue(s.switch, port).expect("sampled port");
    [
        tl.weighted_percentile(50.0, cut) / 1000.0,
        tl.weighted_percentile(90.0, cut) / 1000.0,
        tl.weighted_percentile(99.0, cut) / 1000.0,
        tl.mean_from(cut) / 1000.0,
    ]
}

/// Runs the experiment.
pub fn run(run: &mut Run) {
    let scale = run.scale();
    let duration = scale.dur(150, 400);
    println!(
        "{:>6} {:<8} | {:>8} {:>8} {:>8} {:>8}",
        "incast", "scheme", "p50 KB", "p90 KB", "p99 KB", "mean KB"
    );
    let mut p90 = Vec::new();
    let depths: &[usize] = if run.quick { &[2] } else { &[2, 4, 8, 20] };
    let ccs = [
        CcChoice::dcqcn_paper(),
        CcChoice::Dctcp(DctcpParams::default_40g()),
    ];
    let grid: Vec<(usize, CcChoice)> = depths
        .iter()
        .flat_map(|&n| ccs.iter().map(move |&cc| (n, cc)))
        .collect();
    let stats = par_map(run.threads, &grid, |&(n, cc)| {
        queue_stats(cc, n, duration, 3)
    });
    for (&(n, cc), &[p50, p90v, p99, mean]) in grid.iter().zip(&stats) {
        println!(
            "{:>4}:1 {:<8} | {:>8.1} {:>8.1} {:>8.1} {:>8.1}",
            n,
            cc.label(),
            p50,
            p90v,
            p99,
            mean
        );
        if n == 2 {
            p90.push(p90v);
        }
    }
    println!(
        "2:1, 90th percentile: DCQCN {:.1} KB vs DCTCP {:.1} KB (paper: 76.6 vs 162.9)",
        p90[0], p90[1]
    );
    println!("DCTCP rides its 160 KB cut-off threshold; DCQCN's hardware pacing");
    println!("permits the shallow 5 KB K_min and a far shorter queue.");
    if run.enabled(Artifact::Dash) {
        // Serial representative rerun (2:1 DCQCN) on the dispatch thread,
        // so the dashboard bytes cannot depend on REPRO_THREADS.
        let (s, _) = incast_sim(CcChoice::dcqcn_paper(), 2, duration, 3);
        run.dashboard(|| s.net.dashboard("fig19: 2:1 incast, DCQCN"));
    }
}
