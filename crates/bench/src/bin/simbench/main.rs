//! `simbench` — the repository's benchmark. See `README.md` beside this
//! file for the metric glossary, the workloads and how to run a set.
//!
//! ```text
//! simbench [run]  --workload <name> [--seed N] [--seconds S] [--out DIR]
//! simbench trace  --workload <name> [--seed N]
//! simbench check  <setA> <setB>
//! ```
//!
//! `run` (or `--trace 0`) measures the end-to-end metrics with tracing
//! off; `trace` (or `--trace 1`) repeats the workload with the
//! benchmark's spans recorded and runs the per-layer kernels. Both print
//! every metric by name and unit and end with one JSON line; a failed
//! output check exits 1. Single-threaded by construction: nothing here
//! calls `experiments::runner` or reads `REPRO_THREADS`.

mod check;
mod fabric_kernels;
mod kernels;
mod measure;
mod spans;
#[cfg(test)]
mod tests;
mod workloads;

use measure::{peak_rss_mb, Summary};
use netsim::telemetry::Json;
use spans::Recorder;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{prepare, Outcome, Workload};

#[global_allocator]
static ALLOC: measure::CountingAlloc = measure::CountingAlloc;

/// The benchmark's definition: metric names, units and run length.
const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");
/// `sim_digest` of every workload at full scale for seeds 1 and 2.
const GOLDENS_JSON: &str = include_str!("goldens.json");

/// Timed repetitions of one run, after one untimed warm-up; fewer (but
/// at least [`MIN_REPS`]) when `--seconds` runs out first.
const MAX_REPS: usize = 7;
const MIN_REPS: usize = 3;
/// Where `trace` writes `<workload>.trace.json`, relative to the
/// directory it is started in.
const TRACE_DIR: &str = "target/simbench";

/// Numeric value of a JSON number of any flavour.
pub fn json_num(j: &Json) -> Option<f64> {
    match *j {
        Json::Int(i) => Some(i as f64),
        Json::UInt(u) => Some(u as f64),
        Json::Float(f) => Some(f),
        _ => None,
    }
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
pub fn declared(list: &str) -> Vec<(String, String)> {
    let spec = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
    spec.get(list)
        .and_then(Json::as_arr)
        .expect(list)
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

fn run_seconds() -> f64 {
    let spec = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    spec.get("run_seconds")
        .and_then(json_num)
        .expect("run_seconds")
}

/// The metrics of one run, in emission order. Units come from
/// `BENCHMARK.json`, so a metric the benchmark does not declare cannot
/// be emitted.
pub struct Report {
    declared: Vec<(String, String)>,
    values: Vec<(String, f64)>,
}

impl Report {
    pub fn new(list: &str) -> Report {
        Report {
            declared: declared(list),
            values: Vec::new(),
        }
    }

    /// Records and prints one metric; `note` is free text printed after it.
    pub fn emit(&mut self, name: &str, value: f64, note: &str) {
        let unit = self.unit(name);
        assert!(value.is_finite(), "metric {name} is not finite");
        assert!(
            self.values.iter().all(|(n, _)| n != name),
            "metric {name} emitted twice"
        );
        println!("metric {name} {value} {unit}{note}");
        self.values.push((name.to_string(), value));
    }

    fn unit(&self, name: &str) -> &str {
        let found = self.declared.iter().find(|(n, _)| n == name);
        &found
            .unwrap_or_else(|| panic!("metric {name} is not in BENCHMARK.json"))
            .1
    }

    /// Names declared but not emitted.
    pub fn missing(&self) -> Vec<&str> {
        self.declared
            .iter()
            .map(|(n, _)| n.as_str())
            .filter(|n| self.values.iter().all(|(v, _)| v != n))
            .collect()
    }

    /// The driver's result line.
    fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .values
            .iter()
            .map(|(n, v)| {
                format!(
                    "\"{n}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    self.unit(n)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

/// One build+run of `workload`, timed: `(setup_s, wall_s, outcome)`.
fn repetition(
    workload: Workload,
    scale: u64,
    seed: u64,
    rec: &mut Recorder,
) -> (f64, f64, Outcome) {
    rec.begin("workload", None);
    let t0 = Instant::now();
    let prepared = prepare(workload, scale, seed, rec);
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let outcome = prepared.execute(rec);
    let wall_s = t1.elapsed().as_secs_f64();
    rec.end(outcome.counts.events);
    (setup_s, wall_s, outcome)
}

fn golden_status(workload: Workload, seed: u64, digest: u64) -> &'static str {
    let goldens = Json::parse(GOLDENS_JSON).expect("goldens.json parses");
    let recorded = goldens
        .get(workload.name())
        .and_then(|w| w.get(&seed.to_string()))
        .and_then(Json::as_str);
    match recorded {
        None => "none",
        Some(hex) if hex == format!("{digest:016x}") => "match",
        Some(_) => "differs",
    }
}

/// The output checks shared by both modes. Prints what it finds and
/// returns whether the outputs are correct.
fn check_outputs(workload: Workload, seed: u64, outcomes: &[Outcome]) -> bool {
    let first = &outcomes[0];
    let mut correct = true;
    if outcomes.iter().any(|o| o.digest != first.digest) {
        println!("check FAILED: sim_digest differs between repetitions");
        correct = false;
    }
    if workload != Workload::ChaosCampaign && first.counts.drops != 0 {
        println!(
            "check FAILED: {} lossless-class drops on a fault-free workload",
            first.counts.drops
        );
        correct = false;
    }
    if workload == Workload::ClosDcqcnObserved {
        // Observers must not perturb the model.
        let scale = workload.full_scale();
        let plain = repetition(
            Workload::ClosDcqcnMixed,
            scale,
            seed,
            &mut Recorder::new(false),
        )
        .2;
        if plain.digest != first.digest {
            println!(
                "check FAILED: sim_digest differs from clos_dcqcn_mixed ({:016x})",
                plain.digest
            );
            correct = false;
        }
    }
    println!("info sim_digest {:016x}", first.digest);
    println!(
        "info golden {}",
        golden_status(workload, seed, first.digest)
    );
    println!("info fct_samples {}", first.fct_samples);
    println!("info ops_attempted {}", first.ops_attempted);
    println!("info ops_failed {}", first.ops_failed);
    correct
}

/// `(attempted, failed)` for the result line: when the outputs are wrong
/// every operation counts as failed.
fn ops(outcome: &Outcome, correct: bool) -> (u64, u64) {
    let attempted = outcome.ops_attempted.max(1);
    (
        attempted,
        if correct {
            outcome.ops_failed
        } else {
            attempted
        },
    )
}

fn quartiles(s: &Summary) -> String {
    format!("  (min {} q1 {} q3 {} n {})", s.min, s.q1, s.q3, s.n)
}

/// The end-to-end metrics of one run.
fn end_to_end(wall: &Summary, setup: &Summary, o: &Outcome) -> Report {
    let mut report = Report::new("end_to_end");
    report.emit("wall_s", wall.median, &quartiles(wall));
    report.emit("setup_s", setup.median, &quartiles(setup));
    report.emit("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "");
    report.emit("goodput_gbps", o.goodput_gbps, "");
    report.emit("fct_p50_us", o.fct_p50_us, "");
    let samples = format!("  ({} samples)", o.fct_samples);
    report.emit("fct_p99_us", o.fct_p99_us, &samples);
    assert!(
        report.missing().is_empty(),
        "not emitted: {:?}",
        report.missing()
    );
    report
}

/// Tracing off: warm-up, then timed repetitions for `seconds`.
fn run(workload: Workload, seed: u64, seconds: f64, out: Option<&Path>) -> ExitCode {
    let scale = workload.full_scale();
    let mut rec = Recorder::new(false);
    repetition(workload, scale, seed, &mut rec);
    let started = Instant::now();
    let (mut setups, mut walls, mut outcomes) = (Vec::new(), Vec::new(), Vec::new());
    while outcomes.len() < MAX_REPS {
        let t0 = Instant::now();
        let (setup_s, wall_s, outcome) = repetition(workload, scale, seed, &mut rec);
        setups.push(setup_s);
        walls.push(wall_s);
        outcomes.push(outcome);
        let next_ends = started.elapsed().as_secs_f64() + t0.elapsed().as_secs_f64();
        if outcomes.len() >= MIN_REPS && next_ends > seconds {
            break;
        }
    }
    let correct = check_outputs(workload, seed, &outcomes);
    let (wall, setup, o) = (Summary::of(&walls), Summary::of(&setups), &outcomes[0]);

    let report = end_to_end(&wall, &setup, o);

    if let Some(dir) = out {
        let file = dir.join(format!("{}.json", workload.name()));
        let set = check::result_json(workload, seed, correct, o, &report.values, &wall, &setup);
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&file, set.render()))
        {
            eprintln!("cannot write {}: {e}", file.display());
            return ExitCode::from(2);
        }
    }
    let (attempted, failed) = ops(o, correct);
    println!("{}", report.result_line(correct, attempted, failed));
    ExitCode::from(u8::from(!correct))
}

/// The per-layer metrics of one traced run: from the traced repetition
/// recorded in `rec`, then from the kernels (see [`kernels::run_all`]).
fn per_layer(rec: &mut Recorder, traced: &Outcome, overhead_pct: f64, shrink: u64) -> Report {
    let mut report = Report::new("per_layer");
    report.emit("trace.overhead_pct", overhead_pct, "");
    kernels::engine_metrics(rec, traced, &mut report);
    kernels::run_all(rec, &mut report, shrink);
    assert!(
        report.missing().is_empty(),
        "not emitted: {:?}",
        report.missing()
    );
    report
}

/// Tracing on: after a warm-up the workload once untraced and once
/// traced, then the per-layer kernels; spans go to `target/simbench/`.
fn trace(workload: Workload, seed: u64) -> ExitCode {
    let scale = workload.full_scale();
    repetition(workload, scale, seed, &mut Recorder::new(false));
    let mut rec = Recorder::new(true);
    let (_, plain_wall, plain) = repetition(workload, scale, seed, &mut Recorder::new(false));
    let (_, traced_wall, traced) = repetition(workload, scale, seed, &mut rec);
    let outcomes = [traced, plain];
    let correct = check_outputs(workload, seed, &outcomes);
    // Self times must add up to the traced repetition's wall time.
    println!("info trace.wall_ns {}", rec.spans()[0].duration_ns());
    println!(
        "info trace.self_sum_ns {}",
        rec.self_times_ns().iter().sum::<u64>()
    );

    let overhead = (traced_wall - plain_wall) / plain_wall * 100.0;
    let report = per_layer(&mut rec, &outcomes[0], overhead, 1);

    let file = PathBuf::from(TRACE_DIR).join(format!("{}.trace.json", workload.name()));
    match std::fs::create_dir_all(TRACE_DIR)
        .and_then(|()| std::fs::write(&file, rec.to_json().render()))
    {
        Ok(()) => println!("info trace.file {}", file.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", file.display());
            return ExitCode::from(2);
        }
    }
    let (attempted, failed) = ops(&outcomes[0], correct);
    println!("{}", report.result_line(correct, attempted, failed));
    ExitCode::from(u8::from(!correct))
}

fn usage() -> ExitCode {
    eprintln!("usage: simbench [run] --workload <name> [--seed N] [--seconds S] [--out DIR]");
    eprintln!("       simbench trace --workload <name> [--seed N]");
    eprintln!("       simbench check <setA> <setB>");
    eprintln!("       (the driver form adds --trace 0|1 instead of run/trace)");
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("workloads: {}", names.join(" "));
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut traced = false;
    match args.first().map(String::as_str) {
        Some("check") if args.len() == 3 => {
            return check::compare_sets(Path::new(&args[1]), Path::new(&args[2]));
        }
        Some("check") => return usage(),
        Some("run") => drop(args.remove(0)),
        Some("trace") => {
            traced = true;
            args.remove(0);
        }
        _ => {}
    }
    let (mut workload, mut seed, mut seconds, mut out) = (None, 1u64, run_seconds(), None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            eprintln!("{flag} needs a value");
            return usage();
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Workload::from_name(value);
                workload.is_some()
            }
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => value.parse().map(|v| seconds = v).is_ok() && seconds > 0.0,
            "--trace" => match value.as_str() {
                "0" => true,
                "1" => {
                    traced = true;
                    true
                }
                _ => false,
            },
            "--out" => {
                out = Some(PathBuf::from(value));
                true
            }
            _ => false,
        };
        if !ok {
            eprintln!("bad argument: {flag} {value}");
            return usage();
        }
    }
    let Some(workload) = workload else {
        return usage();
    };
    println!(
        "simbench {} seed={seed} scale={}",
        workload.name(),
        workload.full_scale()
    );
    if traced {
        trace(workload, seed)
    } else {
        run(workload, seed, seconds, out.as_deref())
    }
}
