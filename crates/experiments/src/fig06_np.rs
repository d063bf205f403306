//! Figure 6: the NP state machine — CNP pacing demonstrated on a
//! synthetic stream of marked packets.

use crate::report::Run;
use dcqcn::np::NpState;
use netsim::units::Time;

/// Runs the experiment.
pub fn run(_run: &mut Run) {
    let mut np = NpState::paper();
    let mut cnps = Vec::new();
    // A congested period: every arriving packet marked, one per µs.
    for us in 0..200u64 {
        if np.on_packet(Time::from_micros(us), true) {
            cnps.push(us);
        }
    }
    println!("200 µs of continuously marked arrivals -> CNPs at t(µs) = {cnps:?}");
    assert_eq!(cnps, vec![0, 50, 100, 150]);
    // Congestion clears: no marks, no feedback.
    let mut quiet = 0;
    for us in 200..400u64 {
        if np.on_packet(Time::from_micros(us), false) {
            quiet += 1;
        }
    }
    println!("200 µs of unmarked arrivals -> {quiet} CNPs (no feedback without congestion)");
}
