//! Figure 18: DCQCN still needs PFC, and needs *correctly configured*
//! buffer thresholds — 10th-percentile throughput for four
//! configurations under an 8:1 incast plus user traffic:
//!
//! * No DCQCN (PFC only),
//! * DCQCN without PFC (lossy fabric, go-back-N losses),
//! * DCQCN with misconfigured thresholds (PFC fires before ECN),
//! * DCQCN proper.

use crate::common::CcChoice;
use crate::report::Run;
use crate::runner::par_map;
use crate::scenarios::{benchmark_run, BenchmarkConfig};
use netsim::stats::percentile;

/// Runs the experiment.
pub fn run(run: &mut Run) {
    let scale = run.scale();
    let duration = scale.dur(300, 800);
    // (label, cc, pfc, misconfigured, NAK-capable receiver)
    let configs: [(&str, CcChoice, bool, bool, bool); 5] = [
        ("No DCQCN", CcChoice::None, true, false, true),
        (
            "DCQCN without PFC",
            CcChoice::dcqcn_paper(),
            false,
            false,
            true,
        ),
        (
            "  (timeout-only NICs)",
            CcChoice::dcqcn_paper(),
            false,
            false,
            false,
        ),
        (
            "DCQCN (misconfigured)",
            CcChoice::dcqcn_paper(),
            true,
            true,
            true,
        ),
        ("DCQCN", CcChoice::dcqcn_paper(), true, false, true),
    ];
    println!(
        "{:<22} | {:>9} {:>11} | {:>7} {:>7} {:>9} {:>6}",
        "configuration", "user 10th", "incast 10th", "drops", "retx", "pauses", "dead"
    );
    let results = par_map(run.threads, &configs, |&(_, cc, pfc, misconfig, nack)| {
        benchmark_run(&BenchmarkConfig {
            cc,
            pairs: 20,
            incast_degree: 8,
            duration,
            pfc,
            misconfigured: misconfig,
            nack_enabled: nack,
            seed: 9,
        })
    });
    for ((label, ..), r) in configs.iter().zip(&results) {
        println!(
            "{:<22} | {:>9.2} {:>11.2} | {:>7} {:>7} {:>9} {:>6}",
            label,
            percentile(&r.user_goodputs, 10.0),
            percentile(&r.incast_goodputs, 10.0),
            r.drops,
            r.retx,
            r.spine_pause_rx,
            r.aborted
        );
    }
    println!("paper: without PFC, losses crater the incast tail (10th pct ~ 0 on");
    println!("ConnectX-3-era NICs, whose recovery was timeout-driven — the");
    println!("timeout-only row); misconfigured thresholds land between PFC-only");
    println!("and proper DCQCN.");
}
