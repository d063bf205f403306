//! Figure 8: DCQCN removes the Figure 3 unfairness — same scenario with
//! DCQCN enabled; all four senders share the bottleneck equally.

use crate::common::{CcChoice, RunScale};
use crate::fig03_pfc_unfairness::run_with;

/// Runs the experiment.
pub fn run(quick: bool) {
    run_with(CcChoice::dcqcn_paper(), RunScale { quick });
}
