//! Figure 9: DCQCN removes the Figure 4 victim-flow problem — the victim's
//! throughput no longer collapses as remote senders are added.

use crate::common::CcChoice;
use crate::fig04_victim_flow::run_with;
use crate::report::Run;

/// Runs the experiment.
pub fn run(run: &mut Run) {
    run_with(run, CcChoice::dcqcn_paper());
}
