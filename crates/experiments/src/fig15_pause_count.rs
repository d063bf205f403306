//! Figure 15: PAUSE frames received at the spines under benchmark
//! traffic, with and without DCQCN — DCQCN nearly eliminates
//! congestion-spreading.

use crate::common::CcChoice;
use crate::report::Run;
use crate::runner::par_map;
use crate::scenarios::{benchmark_run, BenchmarkConfig};

/// Runs the experiment.
pub fn run(run: &mut Run) {
    let scale = run.scale();
    let duration = scale.dur(300, 1000);
    let ccs = [CcChoice::None, CcChoice::dcqcn_paper()];
    let results = par_map(run.threads, &ccs, |&cc| {
        benchmark_run(&BenchmarkConfig {
            cc,
            pairs: 20,
            incast_degree: 10,
            duration,
            pfc: true,
            misconfigured: false,
            nack_enabled: true,
            seed: 7,
        })
    });
    for (cc, res) in ccs.iter().zip(&results) {
        println!(
            "  {:>9}: spine PAUSE rx = {:>8}  (drops {}, retx {})",
            cc.label(),
            res.spine_pause_rx,
            res.drops,
            res.retx
        );
    }
    println!("paper (2-minute run): >6,000,000 without DCQCN vs ~300 with DCQCN.");
}
