//! Figure 13: validating the fluid-model parameter choices on the packet
//! simulator (the paper's hardware microbenchmark, two flows through one
//! switch):
//!
//! * (a) strawman parameters + cut-off marking — unfair,
//! * (b) fast (55 µs) timer + cut-off marking — fair,
//! * (c) strawman timer + RED-like marking — fair on average, unstable,
//! * (d) fast timer + RED-like marking (the deployed combination) — fair
//!   and stable.

use crate::common::{mean, stddev, CcChoice};
use crate::report::{Artifact, Run};
use crate::runner::par_map;
use dcqcn::params::{red_cutoff_strawman, red_deployed, DcqcnParams};
use netsim::ecn::RedConfig;

use netsim::packet::{FlowId, DATA_PRIORITY};
use netsim::stats::SamplerConfig;
use netsim::topology::{star, LinkParams, Star};
use netsim::units::{Duration, Time};

struct Config {
    label: &'static str,
    params: DcqcnParams,
    red: RedConfig,
}

fn configs() -> Vec<Config> {
    let paper = DcqcnParams::paper();
    vec![
        Config {
            label: "(a) strawman + cutoff",
            params: DcqcnParams::strawman(),
            red: red_cutoff_strawman(),
        },
        Config {
            label: "(b) fast timer + cutoff",
            params: DcqcnParams::strawman()
                .with_byte_counter(paper.byte_counter)
                .with_timer(paper.rate_timer),
            red: red_cutoff_strawman(),
        },
        Config {
            label: "(c) strawman + RED-ECN",
            params: DcqcnParams::strawman(),
            red: red_deployed(),
        },
        Config {
            label: "(d) fast timer + RED-ECN",
            params: paper,
            red: red_deployed(),
        },
    ]
}

/// Builds and runs one two-flow staggered-join sim, returning the star
/// and the flows (flow 1 starts at 0, flow 2 joins at 50 ms).
fn sim_run(params: DcqcnParams, red: RedConfig, end: Duration, seed: u64) -> (Star, [FlowId; 2]) {
    let cc = CcChoice::Dcqcn(params);
    let mut sw = cc.switch_config(true, false);
    sw.red = red;
    let mut s = star(3, LinkParams::default(), cc.host_config(), sw, seed);
    let f = cc.factory();
    let f1 = s.net.add_flow(s.hosts[0], s.hosts[2], DATA_PRIORITY, &f);
    let f2 = s.net.add_flow(s.hosts[1], s.hosts[2], DATA_PRIORITY, &f);
    s.net.send_message(f1, u64::MAX, Time::ZERO);
    s.net.send_message(f2, u64::MAX, Time::from_millis(50));
    s.net.enable_sampling(
        Duration::from_millis(1),
        SamplerConfig {
            rate_flows: vec![f1, f2],
            ..SamplerConfig::default()
        },
    );
    s.net.run_until(Time::ZERO + end);
    (s, [f1, f2])
}

/// One run: returns per-flow tail-mean rate and rate stddev.
fn run_one(params: DcqcnParams, red: RedConfig, end: Duration, seed: u64) -> [(f64, f64); 2] {
    let (s, [f1, f2]) = sim_run(params, red, end, seed);
    let cutoff = end.as_secs_f64() / 2.0;
    [f1, f2].map(|fl| {
        let series = s.net.sampler().flow_rate(fl).expect("sampled").series();
        let tail: Vec<f64> = series
            .times
            .iter()
            .zip(&series.values)
            .filter(|(t, _)| t.as_secs_f64() >= cutoff)
            .map(|(_, v)| *v)
            .collect();
        (mean(&tail), stddev(&tail))
    })
}

/// Runs the experiment.
pub fn run(run: &mut Run) {
    let end = Duration::from_millis(if run.quick { 300 } else { 600 });
    println!(
        "{:<26} | {:>8} {:>8} | {:>8} | {:>8}",
        "configuration", "f1 Gbps", "f2 Gbps", "|diff|", "f1 sd"
    );
    let configs = configs();
    let results = par_map(run.threads, &configs, |c| run_one(c.params, c.red, end, 31));
    for (c, &[(m1, s1), (m2, _)]) in configs.iter().zip(&results) {
        println!(
            "{:<26} | {:>8.2} {:>8.2} | {:>8.2} | {:>8.2}",
            c.label,
            m1,
            m2,
            (m1 - m2).abs(),
            s1
        );
    }
    println!("paper: (a) unfair; (b) fair; (c) fair but unstable (randomness of");
    println!("marking); (d) deployed combination — fair and stable.");
    if run.enabled(Artifact::Dash) {
        // Serial representative rerun of the deployed configuration (d),
        // on the dispatch thread, so the dashboard bytes cannot depend on
        // REPRO_THREADS.
        let d = &configs[3];
        let (s, _) = sim_run(d.params, d.red, end, 31);
        run.dashboard(|| s.net.dashboard("fig13 (d): fast timer + RED-ECN"));
    }
}
