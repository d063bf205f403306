//! Figure 4: the victim-flow problem — a flow (VS→VR) whose path shares
//! no link with the incast bottleneck still collapses, because PAUSEs
//! cascade from T4 up through the spines and down to T1's uplinks.

use crate::common::{breakdown_json, mmm, print_breakdown, CcChoice};
use crate::report::{Artifact, Run};
use crate::runner::par_map;
use crate::scenarios::{testbed_window, victim_run};
use netsim::telemetry::{Json, SpanState};

/// Runs the scenario and prints the victim's median goodput per
/// T3-sender count.
pub fn run_with(run: &mut Run, cc: CcChoice) {
    let scale = run.scale();
    let seeds = scale.seeds(3, 15);
    let (duration, warmup) = testbed_window(cc, scale);
    // Fan the whole (t3 × seed) grid out at once so threads stay busy
    // across row boundaries, then print grouped per row.
    let t3_counts = [0usize, 1, 2];
    let grid: Vec<(usize, u64)> = t3_counts
        .iter()
        .flat_map(|&t3| seeds.iter().map(move |&s| (t3, s)))
        .collect();
    let results = par_map(run.threads, &grid, |&(t3, s)| {
        victim_run(cc, t3, s, duration, warmup)
    });
    println!("victim (VS→VR) goodput vs number of senders under T3 (Gbps):");
    run.put("scheme", Json::from(cc.label()));
    let mut rows = Vec::new();
    for (row, t3) in t3_counts.iter().enumerate() {
        let g = &results[row * seeds.len()..(row + 1) * seeds.len()];
        println!("  {t3} senders under T3: {}", mmm(g));
        rows.push(Json::obj(vec![
            ("t3_senders", Json::from(*t3)),
            ("victim_goodput_gbps", Json::from(g.to_vec())),
        ]));
    }
    run.put("rows", Json::Arr(rows));

    // Causal attribution (serial, one seed): decompose the victim's FCT
    // into named causes with the worst-case incast (2 senders under T3)
    // and check the scheme's signature — PFC alone leaves the victim
    // pause-blocked; an end-to-end scheme shifts that time into
    // rate-limiter throttling.
    let att = run.attribution(cc);
    assert!(att.completed, "victim's finite message must complete");
    println!(
        "victim FCT attribution (2 senders under T3, seed {}):",
        seeds[0]
    );
    print_breakdown(&att.breakdown, att.fct);
    let blocked = att.breakdown[SpanState::PauseBlocked as usize];
    let throttled = att.breakdown[SpanState::Throttled as usize];
    match cc {
        CcChoice::None => assert!(
            blocked > throttled,
            "PFC-only victim must be dominated by pause_blocked \
             ({blocked} vs throttled {throttled})"
        ),
        CcChoice::Dcqcn(_) => assert!(
            throttled > blocked,
            "DCQCN victim must be dominated by throttled \
             ({throttled} vs pause_blocked {blocked})"
        ),
        _ => {}
    }
    if let Some(root) = att.tree.roots.first() {
        println!(
            "  congestion root: node {} port {} ({} victim flows)",
            root.node.0,
            root.port.0,
            att.tree.victims.len()
        );
    }
    run.put("victim_fct_us", Json::from(att.fct.as_micros_f64()));
    run.put("victim_breakdown_us", breakdown_json(&att.breakdown));
    run.put("congestion_tree", att.tree.to_json());
    run.write(Artifact::Trace, |out| att.chrome_trace().write_to(out));
}

/// Runs the experiment.
pub fn run(run: &mut Run) {
    run_with(run, CcChoice::None);
}
