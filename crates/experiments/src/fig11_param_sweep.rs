//! Figure 11: fluid-model parameter sweeps for convergence — byte
//! counter, rate-increase timer, K_max, and P_max. The z-axis of the
//! paper's surfaces is the two-flow throughput difference over time;
//! lower is better.

use crate::report::Run;
use crate::runner::par_map;
use fluid::sweep::{sweep_byte_counter, sweep_kmax, sweep_pmax, sweep_timer, SweepPoint};

/// One sweep panel: (title, value-column header, the sweep itself).
type Panel<'a> = (&'a str, &'a str, Box<dyn Fn() -> Vec<SweepPoint> + Sync>);

fn print_points(title: &str, unit: &str, pts: &[SweepPoint]) {
    println!("{title}:");
    println!(
        "{:>10} | {:>8} {:>8} {:>8} {:>8} | {:>10}",
        unit, "d@50ms", "d@100ms", "d@150ms", "d@200ms", "tail diff"
    );
    for p in pts {
        let at = |t: f64| -> f64 {
            match p.times.iter().position(|&x| x >= t) {
                Some(i) => p.diff_gbps[i],
                None => *p.diff_gbps.last().unwrap_or(&0.0),
            }
        };
        println!(
            "{:>10} | {:>8.1} {:>8.1} {:>8.1} {:>8.1} | {:>10.2}",
            p.value,
            at(0.05),
            at(0.10),
            at(0.15),
            at(0.20),
            p.tail_diff_gbps
        );
    }
    println!();
}

/// Runs the experiment.
pub fn run(run: &mut Run) {
    let horizon = if run.quick { 0.2 } else { 0.3 };
    let bc: &[u64] = if run.quick {
        &[150, 10_000]
    } else {
        &[150, 500, 1_500, 5_000, 10_000]
    };
    let timer: &[u64] = if run.quick {
        &[55, 1_500]
    } else {
        &[55, 150, 300, 500, 1_500]
    };
    let kmax: &[u64] = if run.quick {
        &[40, 200]
    } else {
        &[40, 80, 200, 400, 1_000]
    };
    let pmax: &[f64] = if run.quick {
        &[1.0, 0.01]
    } else {
        &[1.0, 0.5, 0.2, 0.1, 0.01]
    };

    // Each panel integrates the fluid model over every sweep value; fan
    // the four panels out and print in panel order.
    let jobs: Vec<Panel> = vec![
        (
            "(a) byte counter sweep, strawman parameters (KB)",
            "B (KB)",
            Box::new(move || sweep_byte_counter(bc, horizon)),
        ),
        (
            "(b) timer sweep with 10 MB byte counter (µs)",
            "T (µs)",
            Box::new(move || sweep_timer(timer, horizon)),
        ),
        (
            "(c) K_max sweep, strawman parameters (KB)",
            "Kmax(KB)",
            Box::new(move || sweep_kmax(kmax, horizon)),
        ),
        (
            "(d) P_max sweep with K_max = 200 KB",
            "Pmax",
            Box::new(move || sweep_pmax(pmax, horizon)),
        ),
    ];
    let results = par_map(run.threads, &jobs, |(_, _, job)| job());
    for ((title, unit, _), pts) in jobs.iter().zip(&results) {
        print_points(title, unit, pts);
    }
    println!("paper's conclusions: slow byte counter helps but is sluggish; fast timer");
    println!("converges best; RED-like marking (small P_max) fixes the strawman too.");
}
