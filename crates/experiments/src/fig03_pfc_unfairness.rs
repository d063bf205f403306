//! Figure 3: PFC unfairness — four senders (H1–H3 under T1, H4 under T4)
//! incast into R under T4 with **no** end-to-end congestion control.
//! H4, alone on its ingress port at T4, beats H1–H3, who share T4's two
//! uplinks depending on the ECMP draw (the parking-lot problem).

use crate::common::{breakdown_json, mmm, print_breakdown, CcChoice};
use crate::report::{Artifact, Run};
use crate::runner::par_map;
use crate::scenarios::{testbed_window, unfairness_attribution, unfairness_scenario};
use netsim::telemetry::{Json, SpanState};
use netsim::units::Time;
use workloads::traffic::flow_goodputs;

/// Runs the scenario across seeds and prints per-host min/median/max.
pub fn run_with(run: &mut Run, cc: CcChoice) {
    let scale = run.scale();
    let seeds = scale.seeds(3, 9);
    let (duration, warmup) = testbed_window(cc, scale);
    // Per-run telemetry is built only for a `--json` report, its one
    // consumer.
    let telemetry = run.enabled(Artifact::Report);
    let runs = par_map(run.threads, &seeds, |&seed| {
        let (tb, flows) = unfairness_scenario(cc, seed, duration);
        let goodputs = flow_goodputs(&tb.net, &flows, Time::ZERO + warmup, Time::ZERO + duration);
        (goodputs, telemetry.then(|| tb.net.telemetry_report()))
    });
    let mut per_host: Vec<Vec<f64>> = vec![Vec::new(); 4];
    for (g, _) in &runs {
        for (h, &v) in g.iter().enumerate() {
            per_host[h].push(v);
        }
    }
    run.put("scheme", Json::from(cc.label()));
    run.put(
        "per_host_goodput_gbps",
        Json::Arr(
            per_host
                .iter()
                .map(|g| Json::from(g.clone()))
                .collect::<Vec<_>>(),
        ),
    );
    if telemetry {
        let runs = seeds.iter().zip(runs).map(|(&seed, (_, telemetry))| {
            let telemetry = telemetry.expect("built for the report");
            Json::obj(vec![("seed", Json::from(seed)), ("telemetry", telemetry)])
        });
        run.put("runs", Json::Arr(runs.collect()));
    }
    println!(
        "per-sender goodput across {} ECMP draws (Gbps):",
        seeds.len()
    );
    for (h, name) in ["H1", "H2", "H3", "H4"].iter().enumerate() {
        println!("  {name}: {}", mmm(&per_host[h]));
    }
    let h4_min = per_host[3].iter().cloned().fold(f64::INFINITY, f64::min);
    let others_max = per_host[..3]
        .iter()
        .flatten()
        .cloned()
        .fold(0.0f64, f64::max);
    match cc {
        CcChoice::None => println!(
            "  H4 min ({h4_min:.1}) vs H1–H3 max ({others_max:.1}) — paper: H4's min exceeds the others' max"
        ),
        _ => {
            let all: Vec<f64> = per_host.iter().flatten().copied().collect();
            let spread = all.iter().cloned().fold(0.0f64, f64::max)
                - all.iter().cloned().fold(f64::INFINITY, f64::min);
            println!("  spread across all hosts/draws: {spread:.2} Gbps — paper: equal shares, little variance");
        }
    }

    // Causal attribution (serial, one seed): where did H1's time go?
    // Under PFC alone a shared-uplink sender is PAUSE-blocked by T1; an
    // end-to-end scheme replaces that with rate-limiter throttling.
    let bd = unfairness_attribution(cc, seeds[0], duration);
    println!(
        "H1 time attribution over {:.0} ms (seed {}):",
        duration.as_secs_f64() * 1e3,
        seeds[0]
    );
    print_breakdown(&bd, duration);
    let blocked = bd[SpanState::PauseBlocked as usize];
    let throttled = bd[SpanState::Throttled as usize];
    match cc {
        CcChoice::None => assert!(
            blocked > throttled,
            "PFC-only H1 must be dominated by pause_blocked \
             ({blocked} vs throttled {throttled})"
        ),
        CcChoice::Dcqcn(_) => assert!(
            throttled > blocked,
            "DCQCN H1 must be dominated by throttled \
             ({throttled} vs pause_blocked {blocked})"
        ),
        _ => {}
    }
    run.put("h1_breakdown_us", breakdown_json(&bd));
}

/// Runs the experiment.
pub fn run(run: &mut Run) {
    run_with(run, CcChoice::None);
}
