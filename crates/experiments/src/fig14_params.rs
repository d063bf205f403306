//! Figure 14: the deployed DCQCN parameter table.

use crate::report::Run;
use dcqcn::params::{red_deployed, DcqcnParams};

/// Runs the experiment.
pub fn run(_run: &mut Run) {
    let p = DcqcnParams::paper();
    let r = red_deployed();
    println!("  rate-increase timer T : {}", p.rate_timer);
    println!(
        "  byte counter B        : {} MB",
        p.byte_counter / 1_000_000
    );
    println!("  K_max                 : {} KB", r.kmax_bytes / 1000);
    println!("  K_min                 : {} KB", r.kmin_bytes / 1000);
    println!("  P_max                 : {}%", r.pmax * 100.0);
    println!("  g                     : 1/{}", (1.0 / p.g).round());
    println!("  (CNP interval N       : {})", p.cnp_interval);
    println!("  (alpha timer K        : {})", p.alpha_timer);
    println!("  (R_AI                 : {})", p.rai);
    println!("  (F                    : {})", p.fast_recovery_steps);
}
