//! §4: buffer-threshold engineering — reproduces the paper's arithmetic
//! for `t_flight`, `t_PFC` and `t_ECN` on the Trident II switch.

use crate::report::Run;
use dcqcn::thresholds::{dynamic_ecn_bound, report};
use netsim::buffer::{BufferConfig, MTU_BYTES};

/// Runs the experiment.
pub fn run(_run: &mut Run) {
    let cfg = BufferConfig::trident2();
    let r = report(&cfg, 8.0);
    println!(
        "switch: {} MB shared buffer, {} ports, 8 PFC priorities, MTU {}",
        cfg.total_bytes / 1_000_000,
        cfg.num_ports,
        MTU_BYTES
    );
    println!(
        "  t_flight (headroom/port/priority) : {:.1} KB  (paper: 22.4)",
        r.t_flight as f64 / 1000.0
    );
    println!(
        "  t_PFC static upper bound          : {:.2} KB  (paper: 24.47)",
        r.t_pfc_static as f64 / 1000.0
    );
    println!(
        "  naive static t_ECN bound          : {:.2} KB  (paper: ~0.8, < 1 MTU, infeasible)",
        r.t_ecn_naive as f64 / 1000.0
    );
    println!(
        "  dynamic t_ECN bound at beta = 8   : {:.2} KB  (paper: < 21.7)",
        r.t_ecn_dynamic as f64 / 1000.0
    );
    println!();
    println!("sensitivity of the t_ECN bound to beta:");
    println!("{:>8} | {:>12}", "beta", "t_ECN bound");
    for beta in [1.0, 2.0, 4.0, 8.0, 16.0, 64.0] {
        println!(
            "{beta:>8} | {:>9.2} KB",
            dynamic_ecn_bound(&cfg, beta) as f64 / 1000.0
        );
    }
    println!("larger beta pauses later, leaving more room for ECN to act first.");
}
