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

/// All experiment ids, in paper order.
pub const ALL: &[&str] = &[
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
    "fig12", "fig13", "fig14", "sec4", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20",
];

/// Extension experiment ids, in dispatch order (`ext` runs them all).
pub const EXT: &[&str] = &[
    "ext-rai",
    "ext-beta",
    "ext-prio",
    "ext-timely",
    "ext-start",
    "ext-fattree",
    "ext-stability",
    "ext-linkflap",
    "ext-pausestorm",
    "ext-attribution",
];

/// Dispatches one experiment by id. Returns false for unknown ids.
///
/// When a [`report`] sink is active (the `--json` flag or a test
/// capture), each dispatched id produces one finalized report; `ext`
/// re-dispatches its members so every extension gets its own.
pub fn dispatch(id: &str, quick: bool) -> bool {
    if id == "ext" {
        for sub in EXT {
            dispatch(sub, quick);
        }
        return true;
    }
    report::begin(id);
    let known = dispatch_inner(id, quick);
    if known {
        report::finish(id, quick);
    } else {
        report::discard();
    }
    known
}

fn dispatch_inner(id: &str, quick: bool) -> bool {
    match id {
        "fig1" => fig01_tcp_vs_rdma::run(quick),
        "fig2" => fig02_testbed::run(quick),
        "fig3" => fig03_pfc_unfairness::run(quick),
        "fig4" => fig04_victim_flow::run(quick),
        "fig5" => fig05_red_curve::run(quick),
        "fig6" => fig06_np::run(quick),
        "fig7" => fig07_rp_trace::run(quick),
        "fig8" => fig08_dcqcn_fairness::run(quick),
        "fig9" => fig09_dcqcn_victim::run(quick),
        "fig10" => fig10_fluid_vs_sim::run(quick),
        "fig11" => fig11_param_sweep::run(quick),
        "fig12" => fig12_g_sweep::run(quick),
        "fig13" => fig13_param_validation::run(quick),
        "fig14" => fig14_params::run(quick),
        "sec4" => sec4_thresholds::run(quick),
        "fig15" => fig15_pause_count::run(quick),
        "fig16" => fig16_benchmark::run(quick),
        "fig17" => fig17_user_scaling::run(quick),
        "fig18" => fig18_pfc_need::run(quick),
        "fig19" => fig19_queue_cdf::run(quick),
        "fig20" => fig20_multibottleneck::run(quick),
        "ext-rai" => extensions::rai_scaling(quick),
        "ext-beta" => extensions::beta_ablation(quick),
        "ext-prio" => extensions::priority_isolation(quick),
        "ext-timely" => extensions::reverse_path_sensitivity(quick),
        "ext-start" => extensions::fast_start(quick),
        "ext-fattree" => extensions::fat_tree_scale(quick),
        "ext-stability" => extensions::stability(quick),
        "ext-linkflap" => ext_faults::link_flap(quick),
        "ext-pausestorm" => ext_faults::pause_storm(quick),
        "ext-attribution" => ext_attribution::run(quick),
        _ => return false,
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_ids_are_rejected() {
        assert!(!dispatch("fig99", true));
        assert!(!dispatch("", true));
    }

    #[test]
    fn all_ids_are_known() {
        // Dispatch every id in quick mode for the cheap, closed-form
        // experiments; the simulation-heavy ones are covered by the
        // integration suite and the repro binary.
        for id in ["fig1", "fig2", "fig5", "fig6", "fig7", "fig14", "sec4"] {
            assert!(dispatch(id, true), "{id} should dispatch");
        }
        for id in ALL {
            assert!(
                matches!(
                    *id,
                    "fig1"
                        | "fig2"
                        | "fig3"
                        | "fig4"
                        | "fig5"
                        | "fig6"
                        | "fig7"
                        | "fig8"
                        | "fig9"
                        | "fig10"
                        | "fig11"
                        | "fig12"
                        | "fig13"
                        | "fig14"
                        | "sec4"
                        | "fig15"
                        | "fig16"
                        | "fig17"
                        | "fig18"
                        | "fig19"
                        | "fig20"
                ),
                "{id} is listed"
            );
        }
    }
}
