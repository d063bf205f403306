//! Figure 17: with DCQCN the fabric sustains 16× the user traffic — the
//! user-transfer goodput distribution with 5 pairs and no DCQCN matches
//! (or is beaten by) 80 pairs with DCQCN.

use crate::common::CcChoice;
use crate::report::Run;
use crate::runner::par_map;
use crate::scenarios::{benchmark_run, BenchmarkConfig};
use netsim::stats::percentile;

fn cdf_row(label: &str, v: &[f64]) {
    println!(
        "  {label:<22} n={:<5} p10={:>6.2} p25={:>6.2} p50={:>6.2} p75={:>6.2} p90={:>6.2}",
        v.len(),
        percentile(v, 10.0),
        percentile(v, 25.0),
        percentile(v, 50.0),
        percentile(v, 75.0),
        percentile(v, 90.0),
    );
}

/// Runs the experiment.
pub fn run(run: &mut Run) {
    let scale = run.scale();
    let duration = scale.dur(300, 800);
    let configs = [
        ("No DCQCN, 5 pairs", CcChoice::None, 5usize),
        ("DCQCN, 80 pairs", CcChoice::dcqcn_paper(), 80),
    ];
    let results = par_map(run.threads, &configs, |&(_, cc, pairs)| {
        benchmark_run(&BenchmarkConfig {
            cc,
            pairs,
            incast_degree: 10,
            duration,
            pfc: true,
            misconfigured: false,
            nack_enabled: true,
            seed: 5,
        })
    });
    for ((label, _, _), r) in configs.iter().zip(&results) {
        println!("(a) user transfer goodput CDF (Gbps):");
        cdf_row(label, &r.user_goodputs);
        println!("(b) incast flow goodput CDF (Gbps):");
        cdf_row(label, &r.incast_goodputs);
    }
    println!("paper: DCQCN at 16x the pairs matches no-DCQCN at 1x — 16x headroom.");
}
