//! Extension: causal FCT attribution — decompose the Figure 4 victim's
//! completion time into named causes and fold the PAUSE traffic into a
//! congestion tree naming the root port.
//!
//! The span tracer attributes every instant of the victim's life to one
//! state (serializing, queued, pause-blocked, throttled, retransmitting,
//! timed out, idle), so the FCT decomposes *exactly*:
//! `fct = serialize + queue + pause_blocked + throttled + retx + idle`.
//! Under PFC alone the victim's dominant cause is `pause_blocked` —
//! congestion spreading in one number; DCQCN shifts it to `throttled`
//! (its own CNP-driven rate limiter, not someone else's PAUSE).
//!
//! Nothing is simulated here that Figures 4 and 9 do not simulate: this
//! is their [`crate::scenarios::attribution`] pass, printed side by
//! side. A run that dispatched either figure first hands its pass over
//! ([`Run::attribution`]) rather than simulating it again.

use crate::common::{breakdown_json, print_breakdown, CcChoice};
use crate::report::{Artifact, Run};
use netsim::telemetry::Json;
use netsim::units::Duration;

/// Runs the experiment.
pub fn run(run: &mut Run) {
    let mut schemes = Vec::new();
    for cc in [CcChoice::None, CcChoice::dcqcn_paper()] {
        let att = run.attribution(cc);

        println!(
            "{}: victim (VS→VR) 1 MB message, 2 senders under T3:",
            cc.label()
        );
        assert!(att.completed, "victim's finite message must complete");
        let sum: Duration = att.breakdown.iter().copied().sum();
        assert_eq!(
            sum, att.fct,
            "span durations must decompose the measured FCT exactly"
        );
        print_breakdown(&att.breakdown, att.fct);

        match att.tree.roots.first() {
            Some(root) => println!(
                "  root cause: node {} port {} (first PAUSE at {})",
                root.node.0, root.port.0, root.first_pause
            ),
            None => println!("  root cause: none (no PAUSE observed)"),
        }
        println!(
            "  congestion tree: {} root(s), {} edge(s), {} victim flow(s)",
            att.tree.roots.len(),
            att.tree.edges.len(),
            att.tree.victims.len()
        );

        schemes.push(Json::obj(vec![
            ("scheme", Json::from(cc.label())),
            ("victim_fct_us", Json::from(att.fct.as_micros_f64())),
            ("victim_breakdown_us", breakdown_json(&att.breakdown)),
            ("congestion_tree", att.tree.to_json()),
        ]));

        // Export the PFC-only run's Chrome trace: it is the one whose
        // per-port PAUSE instants show the congestion spreading.
        if matches!(cc, CcChoice::None) {
            run.write(Artifact::Trace, |out| att.chrome_trace().write_to(out));
        }
    }
    run.put("schemes", Json::Arr(schemes));
}
