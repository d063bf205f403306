//! Figure 16: benchmark traffic — median and 10th-percentile throughput
//! of user and incast (disk-rebuild) flows as the incast degree grows,
//! with and without DCQCN.

use crate::common::CcChoice;
use crate::report::Run;
use crate::runner::par_map;
use crate::scenarios::{benchmark_run, BenchmarkConfig};
use netsim::stats::percentile;
use netsim::telemetry::Json;

/// Runs the experiment.
pub fn run(run: &mut Run) {
    let scale = run.scale();
    let duration = scale.dur(300, 800);
    let seeds = scale.seeds(1, 3);
    let degrees: &[usize] = if run.quick {
        &[2, 6, 10]
    } else {
        &[2, 4, 6, 8, 10]
    };
    println!(
        "{:>7} {:>9} | {:>9} {:>9} | {:>10} {:>10} | {:>8}",
        "degree", "scheme", "user med", "user 10th", "incast med", "incast 10th", "pauses"
    );
    // Flatten the full (degree × scheme × seed) grid into one fan-out so
    // every core stays busy, then aggregate per table row in order.
    let ccs = [CcChoice::None, CcChoice::dcqcn_paper()];
    let grid: Vec<(usize, CcChoice, u64)> = degrees
        .iter()
        .flat_map(|&deg| {
            let seeds = &seeds;
            ccs.iter()
                .flat_map(move |&cc| seeds.iter().map(move |&seed| (deg, cc, seed)))
        })
        .collect();
    let runs = par_map(run.threads, &grid, |&(deg, cc, seed)| {
        benchmark_run(&BenchmarkConfig {
            cc,
            pairs: 20,
            incast_degree: deg,
            duration,
            pfc: true,
            misconfigured: false,
            nack_enabled: true,
            seed,
        })
    });
    let mut rows = Vec::new();
    for (row, chunk) in runs.chunks(seeds.len()).enumerate() {
        let (deg, cc, _) = grid[row * seeds.len()];
        let mut user = Vec::new();
        let mut incast = Vec::new();
        let mut pauses = 0;
        let (mut drops, mut retx, mut aborted) = (0, 0, 0);
        for r in chunk {
            user.extend(r.user_goodputs.iter().copied());
            incast.extend(r.incast_goodputs.iter().copied());
            pauses += r.spine_pause_rx;
            drops += r.drops;
            retx += r.retx;
            aborted += r.aborted;
        }
        println!(
            "{:>7} {:>9} | {:>9.2} {:>9.2} | {:>10.2} {:>10.2} | {:>8}",
            deg,
            cc.label(),
            percentile(&user, 50.0),
            percentile(&user, 10.0),
            percentile(&incast, 50.0),
            percentile(&incast, 10.0),
            pauses
        );
        rows.push(Json::obj(vec![
            ("incast_degree", Json::from(deg)),
            ("scheme", Json::from(cc.label())),
            ("user_med_gbps", Json::from(percentile(&user, 50.0))),
            ("user_p10_gbps", Json::from(percentile(&user, 10.0))),
            ("incast_med_gbps", Json::from(percentile(&incast, 50.0))),
            ("incast_p10_gbps", Json::from(percentile(&incast, 10.0))),
            ("spine_pause_rx", Json::from(pauses)),
            ("drops", Json::from(drops)),
            ("retx_pkts", Json::from(retx)),
            ("aborted_flows", Json::from(aborted)),
        ]));
    }
    run.put("rows", Json::Arr(rows));
    println!("paper: without DCQCN user throughput collapses as degree grows (PAUSE");
    println!("cascades); with DCQCN it is flat, and incast tail gets its fair share");
    println!("(~40/degree Gbps).");
}
