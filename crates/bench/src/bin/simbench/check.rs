//! Result sets and `simbench check <setA> <setB>`.
//!
//! A set is a directory of `<workload>.json` files written by
//! `simbench run --out <dir>`, one per workload, all from one commit.
//! `check` applies the regression bounds below to two sets measured
//! with the same seed and prints one verdict per workload × metric.

use crate::json_num;
use crate::measure::Summary;
use crate::workloads::{Outcome, Workload};
use netsim::telemetry::Json;
use std::path::Path;
use std::process::ExitCode;

/// How far an end-to-end metric may worsen between two sets of one seed
/// before `check` calls it a regression: `rel` of set A's value or `abs`
/// in the metric's unit, whichever is larger. Host metrics are noisy and
/// get room; simulated metrics repeat exactly, so any move beyond float
/// printing is real.
pub struct Bound {
    pub metric: &'static str,
    higher_is_better: bool,
    rel: f64,
    abs: f64,
}

pub const BOUNDS: [Bound; 6] = [
    Bound {
        metric: "wall_s",
        higher_is_better: false,
        rel: 0.08,
        abs: 0.0,
    },
    Bound {
        metric: "setup_s",
        higher_is_better: false,
        rel: 0.10,
        abs: 0.005,
    },
    Bound {
        metric: "peak_rss_mb",
        higher_is_better: false,
        rel: 0.05,
        abs: 2.0,
    },
    Bound {
        metric: "goodput_gbps",
        higher_is_better: true,
        rel: 0.001,
        abs: 0.0,
    },
    Bound {
        metric: "fct_p50_us",
        higher_is_better: false,
        rel: 0.001,
        abs: 0.0,
    },
    Bound {
        metric: "fct_p99_us",
        higher_is_better: false,
        rel: 0.001,
        abs: 0.0,
    },
];

/// The result file of one run.
pub fn result_json(
    workload: Workload,
    seed: u64,
    correct: bool,
    outcome: &Outcome,
    values: &[(String, f64)],
    wall: &Summary,
    setup: &Summary,
) -> Json {
    let mut metrics = Json::obj(vec![]);
    for (name, value) in values {
        let mut m = Json::obj(vec![("value", Json::Float(*value))]);
        let summary = match name.as_str() {
            "wall_s" => Some(wall),
            "setup_s" => Some(setup),
            _ => None,
        };
        if let Some(s) = summary {
            m.push("min", Json::Float(s.min));
            m.push("q1", Json::Float(s.q1));
            m.push("q3", Json::Float(s.q3));
            m.push("n", Json::UInt(s.n as u64));
        }
        metrics.push(name, m);
    }
    Json::obj(vec![
        ("workload", Json::str(workload.name())),
        ("seed", Json::UInt(seed)),
        ("correct", Json::Bool(correct)),
        ("sim_digest", Json::Str(format!("{:016x}", outcome.digest))),
        ("ops_attempted", Json::UInt(outcome.ops_attempted)),
        ("ops_failed", Json::UInt(outcome.ops_failed)),
        ("fct_samples", Json::UInt(outcome.fct_samples)),
        ("metrics", metrics),
    ])
}

fn load(dir: &Path, workload: Workload) -> Result<Json, String> {
    let path = dir.join(format!("{}.json", workload.name()));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `(value, spread)` of one metric in a result file; spread is the
/// interquartile range over the median where the file records quartiles.
fn metric(result: &Json, name: &str) -> Option<(f64, Option<f64>)> {
    let m = result.get("metrics")?.get(name)?;
    let value = m.get("value").and_then(json_num)?;
    let quartile = |k| m.get(k).and_then(json_num);
    let spread = quartile("q1")
        .zip(quartile("q3"))
        .map(|(q1, q3)| (q3 - q1) / value);
    Some((value, spread))
}

pub fn verdict(b: &Bound, a: (f64, Option<f64>), new: (f64, Option<f64>)) -> &'static str {
    let worse_by = if b.higher_is_better {
        a.0 - new.0
    } else {
        new.0 - a.0
    };
    if worse_by <= (b.rel * a.0).max(b.abs) {
        "ok"
    } else if [a.1, new.1]
        .into_iter()
        .flatten()
        .any(|spread| spread > b.rel)
    {
        // The repetitions of one run disagree by more than the bound.
        "unresolved"
    } else {
        "regressed"
    }
}

/// Compares set B against set A; exit 1 when anything regressed.
pub fn compare_sets(a_dir: &Path, b_dir: &Path) -> ExitCode {
    let mut regressed = 0;
    println!(
        "{:<24} {:<13} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "A", "B", "change"
    );
    for workload in Workload::ALL {
        let (a, b) = match (load(a_dir, workload), load(b_dir, workload)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        };
        if a.get("seed") != b.get("seed") {
            eprintln!(
                "{}: the sets were run with different seeds",
                workload.name()
            );
            return ExitCode::from(2);
        }
        for bound in &BOUNDS {
            let (Some(va), Some(vb)) = (metric(&a, bound.metric), metric(&b, bound.metric)) else {
                eprintln!(
                    "{}: no {} in one of the sets",
                    workload.name(),
                    bound.metric
                );
                return ExitCode::from(2);
            };
            let v = verdict(bound, va, vb);
            regressed += usize::from(v == "regressed");
            println!(
                "{:<24} {:<13} {:>14.6} {:>14.6} {:>+8.2}%  {v}",
                workload.name(),
                bound.metric,
                va.0,
                vb.0,
                (vb.0 - va.0) / va.0 * 100.0
            );
        }
        let same = a.get("sim_digest") == b.get("sim_digest");
        println!(
            "{:<24} sim_digest {}",
            workload.name(),
            if same { "same" } else { "differs" }
        );
    }
    println!("{regressed} regressed");
    ExitCode::from(u8::from(regressed > 0))
}
