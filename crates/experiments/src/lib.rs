#![warn(missing_docs)]

//! # experiments — the reproduction harness
//!
//! One module per table/figure of the paper; see DESIGN.md for the full
//! index and EXPERIMENTS.md for paper-vs-measured results. Run with:
//!
//! ```text
//! cargo run -p experiments --release -- <id> [--quick]
//! cargo run -p experiments --release -- all [--quick]
//! ```

pub mod chaos;
pub mod common;
pub mod compare;
pub mod ext_attribution;
pub mod ext_faults;
pub mod extensions;
pub mod report;
pub mod runner;
pub mod scenarios;

pub mod fig01_tcp_vs_rdma;
pub mod fig02_testbed;
pub mod fig03_pfc_unfairness;
pub mod fig04_victim_flow;
pub mod fig05_red_curve;
pub mod fig06_np;
pub mod fig07_rp_trace;
pub mod fig08_dcqcn_fairness;
pub mod fig09_dcqcn_victim;
pub mod fig10_fluid_vs_sim;
pub mod fig11_param_sweep;
pub mod fig12_g_sweep;
pub mod fig13_param_validation;
pub mod fig14_params;
pub mod fig15_pause_count;
pub mod fig16_benchmark;
pub mod fig17_user_scaling;
pub mod fig18_pfc_need;
pub mod fig19_queue_cdf;
pub mod fig20_multibottleneck;
pub mod sec4_thresholds;

use netsim::telemetry::Json;
use report::Run;

/// One experiment: its id, its banner title and its entry point (which
/// runs on the invocation's [`Run`]). An experiment is one row of [`ALL`]
/// or [`EXT`] and nothing else — `repro list`, the usage text, id
/// validation, the banner and [`dispatch`] all read the row.
pub type Experiment = (&'static str, &'static str, fn(&mut Run));

/// The paper's tables and figures, in paper order.
#[rustfmt::skip]
pub const ALL: &[Experiment] = &[
    ("fig1", "TCP vs RDMA: throughput / CPU / latency by message size", fig01_tcp_vs_rdma::run),
    ("fig2", "3-tier Clos testbed (4 ToRs, 4 leaves, 2 spines, 40G)", fig02_testbed::run),
    ("fig3", "PFC unfairness (no congestion control)", fig03_pfc_unfairness::run),
    ("fig4", "victim flow (no congestion control)", fig04_victim_flow::run),
    ("fig5", "switch marking probability vs egress queue", fig05_red_curve::run),
    ("fig6", "NP state machine: one CNP per flow per 50 µs", fig06_np::run),
    ("fig7", "RP state machine trace (cut -> fast recovery -> additive increase)", fig07_rp_trace::run),
    ("fig8", "DCQCN fixes the unfairness of Figure 3", fig08_dcqcn_fairness::run),
    ("fig9", "DCQCN fixes the victim flow of Figure 4", fig09_dcqcn_victim::run),
    ("fig10", "fluid model vs implementation (rate of the joining sender)", fig10_fluid_vs_sim::run),
    ("fig11", "parameter sweeps for convergence (fluid model, |R1-R2| in Gbps)", fig11_param_sweep::run),
    ("fig12", "g sweep: queue length/stability, 2:1 and 16:1 incast (fluid)", fig12_g_sweep::run),
    ("fig13", "validating parameter values (2 flows, packet simulator)", fig13_param_validation::run),
    ("fig14", "deployed DCQCN parameters", fig14_params::run),
    ("sec4", "PFC/ECN buffer thresholds (Arista 7050QX32 / Trident II)", sec4_thresholds::run),
    ("fig15", "PAUSE frames at spines, 10:1 incast + user traffic", fig15_pause_count::run),
    ("fig16", "benchmark traffic vs incast degree (user + rebuild flows)", fig16_benchmark::run),
    ("fig17", "16x user traffic: (no DCQCN, 5 pairs) vs (DCQCN, 80 pairs)", fig17_user_scaling::run),
    ("fig18", "need for PFC and correct thresholds (8:1 incast)", fig18_pfc_need::run),
    ("fig19", "queue-length CDF: DCQCN vs DCTCP, 2:1 incast", fig19_queue_cdf::run),
    ("fig20", "multi-bottleneck parking lot: cut-off vs RED-like marking", fig20_multibottleneck::run),
];

/// The extension experiments, in the order `ext` runs them.
#[rustfmt::skip]
pub const EXT: &[Experiment] = &[
    ("ext-rai", "R_AI vs incast depth (§5.2: halve R_AI for 32:1)", extensions::rai_scaling),
    ("ext-beta", "dynamic vs static PFC thresholds (pause churn)", extensions::beta_ablation),
    ("ext-prio", "PFC priority classes isolate traffic", extensions::priority_isolation),
    ("ext-timely", "reverse-path congestion: DCQCN vs TIMELY (§3.3)", extensions::reverse_path_sensitivity),
    ("ext-start", "hyper-fast start: transfer latency on an idle fabric", extensions::fast_start),
    ("ext-fattree", "DCQCN on a k=4 fat tree (16 hosts), permutation traffic", extensions::fat_tree_scale),
    ("ext-stability", "fluid-model stability map (the paper's future work)", extensions::stability),
    ("ext-linkflap", "goodput dip + recovery across a fabric link flap", ext_faults::link_flap),
    ("ext-pausestorm", "malfunctioning-NIC pause storm: watchdog vs victim collapse", ext_faults::pause_storm),
    ("ext-attribution", "causal FCT attribution of the Fig. 4 victim", ext_attribution::run),
];

/// Runs one experiment by id on `run`: prints its banner, then runs its
/// row. Returns the finished report (also written to `<dir>/<id>.json`
/// under a `--json` sink), or `None` for an unknown id.
pub fn dispatch(run: &mut Run, id: &str) -> Option<Json> {
    let &(id, title, entry) = ALL.iter().chain(EXT).find(|row| row.0 == id)?;
    println!();
    println!("=== {id}: {title} ===");
    Some(run.dispatched(id, entry))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_ids_are_rejected() {
        let mut run = Run::new(true, 1);
        assert!(dispatch(&mut run, "fig99").is_none());
        assert!(dispatch(&mut run, "").is_none());
        assert!(
            dispatch(&mut run, "ext").is_none(),
            "`ext` is repro's, not a row"
        );
    }

    #[test]
    fn cheap_ids_dispatch() {
        // The closed-form experiments; the simulation-heavy ones are
        // covered by the integration suite and the repro binary.
        let mut run = Run::new(true, 1);
        for id in ["fig1", "fig2", "fig5", "fig6", "fig7", "fig14", "sec4"] {
            let report = dispatch(&mut run, id).expect("a known id reports");
            assert_eq!(report.get("id"), Some(&Json::from(id)));
        }
    }

    #[test]
    fn the_table_is_well_formed() {
        let rows: Vec<&Experiment> = ALL.iter().chain(EXT).collect();
        assert_eq!((ALL.len(), EXT.len()), (21, 10));
        for (i, (id, title, _)) in rows.iter().enumerate() {
            assert!(!title.is_empty(), "{id} has a title");
            assert!(rows[..i].iter().all(|r| r.0 != *id), "{id} is listed twice");
        }
        assert!(EXT.iter().all(|r| r.0.starts_with("ext-")));
    }
}
