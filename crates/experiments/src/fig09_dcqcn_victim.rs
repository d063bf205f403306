//! Figure 9: DCQCN removes the Figure 4 victim-flow problem — the victim's
//! throughput no longer collapses as remote senders are added.

use crate::common::{CcChoice, RunScale};
use crate::fig04_victim_flow::run_with;

/// Runs the experiment.
pub fn run(quick: bool) {
    run_with(CcChoice::dcqcn_paper(), RunScale { quick });
}
