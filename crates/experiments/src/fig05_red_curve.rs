//! Figure 5: the switch packet-marking (RED) probability curve.

use crate::report::Run;
use dcqcn::params::{red_cutoff_strawman, red_deployed};

/// Runs the experiment.
pub fn run(_run: &mut Run) {
    let dep = red_deployed();
    let cut = red_cutoff_strawman();
    println!(
        "{:>9} | {:>16} | {:>16}",
        "queue KB", "deployed RED", "DCTCP-like cutoff"
    );
    for q_kb in [0u64, 5, 10, 25, 50, 100, 150, 200, 201, 250] {
        let q = q_kb * 1000;
        println!(
            "{:>9} | {:>15.3}% | {:>15.1}%",
            q_kb,
            dep.mark_probability(q) * 100.0,
            cut.mark_probability(q) * 100.0
        );
    }
    println!("deployed: K_min=5KB K_max=200KB P_max=1% — linear ramp (Equation 5)");
}
