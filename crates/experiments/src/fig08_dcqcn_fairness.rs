//! Figure 8: DCQCN removes the Figure 3 unfairness — same scenario with
//! DCQCN enabled; all four senders share the bottleneck equally.

use crate::common::CcChoice;
use crate::fig03_pfc_unfairness::run_with;
use crate::report::Run;

/// Runs the experiment.
pub fn run(run: &mut Run) {
    run_with(run, CcChoice::dcqcn_paper());
}
