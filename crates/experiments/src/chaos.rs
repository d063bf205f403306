//! `repro chaos` — the chaos campaign: randomized fault scenarios with
//! convergence auditing, automatic case shrinking, and replayable repro
//! files.
//!
//! ```text
//! repro chaos [--seed N] [--cases N] [--quick] [--out DIR]
//! repro chaos --replay FILE
//! ```
//!
//! `netsim::chaos` holds the case vocabulary and its generator; this
//! module owns everything that runs, judges, shrinks, prints or files a
//! case. A campaign generates `--cases` scenarios from `--seed`, runs
//! them in parallel via [`runner::par_map`] through the one executor
//! ([`execute`]), and audits each for post-fault convergence. Every
//! failing case is shrunk ([`shrink_case`]) to a minimal reproduction and
//! written ([`case_json`]) as `CHAOS_REPRO_<seed>.json` under `--out`
//! (default `chaos_out/`); `--replay` reads such a file back
//! ([`read_case`]) and re-runs it bit-for-bit.
//!
//! The campaign summary on stdout is deterministic: results are emitted
//! in case order and contain only simulation-derived values, so the
//! bytes are identical across `REPRO_THREADS` settings.

use std::path::{Path, PathBuf};

use baselines::dctcp::DctcpParams;
use baselines::timely::TimelyParams;
use netsim::chaos::{
    generate_case, CaseReport, CcName, ChaosCase, ChaosFlow, FaultSpec, TopoPick, STREAM_FAULTS,
};
use netsim::event::NodeId;
use netsim::faults::FaultConfig;
use netsim::host::HostConfig;
use netsim::network::Network;
use netsim::packet::DATA_PRIORITY;
use netsim::switch::PfcWatchdogConfig;
use netsim::telemetry::Json;
use netsim::topology::{self, LinkParams};
use netsim::units::{Duration, Time};

use crate::common::CcChoice;
use crate::runner;

/// Every scheme a case can name.
const SCHEMES: [CcName; 4] = [CcName::None, CcName::Dcqcn, CcName::Dctcp, CcName::Timely];

/// A scheme's name in case files and summaries.
fn cc_label(cc: CcName) -> &'static str {
    match cc {
        CcName::None => "none",
        CcName::Dcqcn => "dcqcn",
        CcName::Dctcp => "dctcp",
        CcName::Timely => "timely",
    }
}

/// Maps a case's scheme name to a configured [`CcChoice`].
fn choice_for(cc: CcName) -> CcChoice {
    match cc {
        CcName::None => CcChoice::None,
        CcName::Dcqcn => CcChoice::dcqcn_paper(),
        CcName::Dctcp => CcChoice::Dctcp(DctcpParams::default_40g()),
        CcName::Timely => CcChoice::Timely(TimelyParams::default_40g()),
    }
}

/// The scheme's host config with the executor's recovery timing: a short
/// RTO with capped backoff, so the longest retry gap fits the generator's
/// settling window (`settle_window_covers_recovery` checks it), and a
/// bounded retry count, so black-holed flows tear down rather than hang.
fn host_config(cc: CcName) -> HostConfig {
    HostConfig {
        rto: Duration::from_millis(2),
        rto_backoff_cap: 4,
        max_retries: 7,
        ..choice_for(cc).host_config()
    }
}

/// Builds the case's topology under its scheme's configs, with a PFC
/// watchdog on every switch (the convergence audit assumes storms are
/// survivable). Hosts come back flattened in creation order, matching
/// the `TopoShape` index arithmetic.
fn build(case: &ChaosCase) -> (Network, Vec<NodeId>) {
    let (link, seed) = (LinkParams::default(), case.seed);
    let host_cfg = host_config(case.cc);
    let switch_cfg = choice_for(case.cc)
        .switch_config(true, false)
        .with_watchdog(PfcWatchdogConfig::default());
    match case.topo {
        TopoPick::Star { hosts } => {
            let star = topology::star(hosts as usize, link, host_cfg, switch_cfg, seed);
            (star.net, star.hosts)
        }
        TopoPick::Clos { hosts_per_tor } => {
            let t =
                topology::clos_testbed(hosts_per_tor as usize, link, host_cfg, switch_cfg, seed);
            (t.net, t.hosts.into_iter().flatten().collect())
        }
        TopoPick::ParkingLot => {
            let p = topology::parking_lot(link, host_cfg, switch_cfg, seed);
            (p.net, vec![p.h1, p.h2, p.h3, p.r1, p.r2])
        }
    }
}

/// Executes one case: build, load, inject, settle, audit.
///
/// Returns `Err` if the expanded fault schedule fails
/// [`Network::check_faults`] (an invalid plan, or a fault naming a link,
/// node, port or class the topology does not have) or a flow names a
/// host it does not have.
pub fn execute(case: &ChaosCase) -> Result<CaseReport, String> {
    let plan = case.plan();
    let (mut net, hosts) = build(case);
    net.check_faults(&plan)?;
    net.enable_flight_recorder(64);

    let make_cc = choice_for(case.cc).factory();
    for f in &case.flows {
        let (Some(&src), Some(&dst)) = (hosts.get(f.src as usize), hosts.get(f.dst as usize))
        else {
            return Err(format!(
                "flow references host {} but topology has {}",
                f.src.max(f.dst),
                hosts.len()
            ));
        };
        let flow = net.add_flow(src, dst, DATA_PRIORITY, &make_cc);
        net.send_message(flow, f.bytes, Time::from_micros(f.start_us));
    }
    if !plan.is_empty() {
        let seed = case.seed ^ STREAM_FAULTS;
        net.install_faults(
            &plan,
            FaultConfig {
                seed,
                ..FaultConfig::default()
            },
        );
    }

    // Run to the later of the nominal duration and the last fault event,
    // then sample queue depth at four checkpoints across the settling
    // window and audit convergence at its end.
    let settle_start = Time::from_micros(case.duration_us).max(plan.horizon());
    net.run_until(settle_start);
    let baseline = net.delivered_snapshot();
    let samples: Vec<_> = (1..=4u64)
        .map(|k| {
            net.run_until(settle_start + Duration::from_micros(case.settle_us * k / 4));
            (net.now(), net.total_queued_bytes())
        })
        .collect();
    let violations = net.check_convergence(settle_start, case.queue_threshold, &baseline, &samples);

    Ok(CaseReport {
        violations,
        completions: net.metric("completions"),
        teardowns: net.metric("qp_teardowns"),
        watchdog_trips: net.metric("watchdog_trips"),
        delivered_bytes: net.delivered_snapshot().iter().sum(),
        events: net.events_executed(),
    })
}

/// Maximum shrink rounds (each round tries every reduction once).
const MAX_SHRINK_ROUNDS: usize = 16;

/// Shrinks a failing case to a minimal reproduction.
///
/// Greedy delta-debugging to a fixpoint: drop fault specs one at a time,
/// then flows, then halve the nominal duration — keeping any reduction
/// for which `still_fails` returns true. The oracle re-runs the
/// candidate, so shrinking costs one simulation per attempted reduction.
/// Because reductions operate on whole [`FaultSpec`] groups, every
/// candidate remains a valid plan.
pub fn shrink_case(case: &ChaosCase, mut still_fails: impl FnMut(&ChaosCase) -> bool) -> ChaosCase {
    let mut best = case.clone();
    for _round in 0..MAX_SHRINK_ROUNDS {
        let before = best.clone();
        // Fault specs, then flows, last first (later ones are more likely
        // incidental), keeping at least one of each.
        for i in (0..best.faults.len()).rev() {
            let mut candidate = best.clone();
            candidate.faults.remove(i);
            if best.faults.len() > 1 && still_fails(&candidate) {
                best = candidate;
            }
        }
        for i in (0..best.flows.len()).rev() {
            let mut candidate = best.clone();
            candidate.flows.remove(i);
            if best.flows.len() > 1 && still_fails(&candidate) {
                best = candidate;
            }
        }
        // Halve the nominal duration (floor 5 ms; the fault horizon
        // still extends the run as needed).
        if best.duration_us > 10_000 {
            let mut candidate = best.clone();
            candidate.duration_us /= 2;
            if still_fails(&candidate) {
                best = candidate;
            }
        }
        if best == before {
            break;
        }
    }
    best
}

/// Replay-file limits on the sizes that cost memory: hosts of the
/// fabric, flows of the workload and cycles of one flap (each expands to
/// two plan events). [`generate_case`] emits at most 12 hosts, 12 flows
/// and 3 flap cycles; a file past a limit is rejected with the field
/// named instead of aborting on an allocation.
const MAX_REPLAY_HOSTS: u32 = 256;
/// See [`MAX_REPLAY_HOSTS`].
const MAX_REPLAY_FLOWS: usize = 4096;
/// See [`MAX_REPLAY_HOSTS`].
const MAX_REPLAY_FLAPS: u32 = 1000;

/// The latest whole microsecond the simulated clock (`u64` picoseconds)
/// can hold.
const MAX_CLOCK_US: u64 = u64::MAX / 1_000_000;

/// A topology's `kind` in case files and summaries.
fn topo_kind(topo: TopoPick) -> &'static str {
    match topo {
        TopoPick::Star { .. } => "star",
        TopoPick::Clos { .. } => "clos",
        TopoPick::ParkingLot => "parking_lot",
    }
}

/// A fault spec's `kind` and integer fields, as its case file spells them.
fn fault_fields(spec: FaultSpec) -> (&'static str, Vec<(&'static str, u64)>) {
    match spec {
        FaultSpec::Flap {
            link,
            at_us,
            down_us,
            times,
            period_us,
        } => (
            "flap",
            vec![
                ("link", link.into()),
                ("at_us", at_us),
                ("down_us", down_us),
                ("times", times.into()),
                ("period_us", period_us),
            ],
        ),
        FaultSpec::BitError {
            link,
            from_us,
            until_us,
            prob_ppm,
        } => (
            "bit_error",
            vec![
                ("link", link.into()),
                ("from_us", from_us),
                ("until_us", until_us),
                ("prob_ppm", prob_ppm.into()),
            ],
        ),
        FaultSpec::Storm {
            host,
            class,
            from_us,
            until_us,
            refresh_us,
        } => (
            "storm",
            vec![
                ("host", host.into()),
                ("class", class.into()),
                ("from_us", from_us),
                ("until_us", until_us),
                ("refresh_us", refresh_us),
            ],
        ),
        FaultSpec::Wedge {
            switch,
            port,
            class,
            at_us,
        } => (
            "wedge",
            vec![
                ("switch", switch.into()),
                ("port", port.into()),
                ("class", class.into()),
                ("at_us", at_us),
            ],
        ),
    }
}

/// An object of integer fields, plus `kind` when given.
fn uint_obj(kind: Option<&str>, fields: Vec<(&str, u64)>) -> Json {
    let mut obj = Json::obj(
        fields
            .into_iter()
            .map(|(k, v)| (k, Json::UInt(v)))
            .collect(),
    );
    if let Some(kind) = kind {
        obj.push("kind", Json::str(kind));
    }
    obj
}

/// The deterministic JSON document a `CHAOS_REPRO_<seed>.json` file
/// holds; [`read_case`] reads it back exactly.
pub fn case_json(case: &ChaosCase) -> Json {
    let topo = match case.topo {
        TopoPick::Star { hosts } => vec![("hosts", hosts.into())],
        TopoPick::Clos { hosts_per_tor } => vec![("hosts_per_tor", hosts_per_tor.into())],
        TopoPick::ParkingLot => vec![],
    };
    let flows = case.flows.iter().map(|f| {
        let (src, dst) = (f.src.into(), f.dst.into());
        uint_obj(
            None,
            vec![
                ("bytes", f.bytes),
                ("dst", dst),
                ("src", src),
                ("start_us", f.start_us),
            ],
        )
    });
    let faults = case.faults.iter().map(|&spec| {
        let (kind, fields) = fault_fields(spec);
        uint_obj(Some(kind), fields)
    });
    Json::obj(vec![
        ("cc", Json::str(cc_label(case.cc))),
        ("duration_us", Json::UInt(case.duration_us)),
        ("faults", Json::Arr(faults.collect())),
        ("flows", Json::Arr(flows.collect())),
        ("queue_threshold", Json::UInt(case.queue_threshold)),
        ("seed", Json::UInt(case.seed)),
        ("settle_us", Json::UInt(case.settle_us)),
        ("topo", uint_obj(Some(topo_kind(case.topo)), topo)),
    ])
}

/// The replay reader: parses a case file (hand-editable, so hostile).
/// Every field must be present and fit its type, sizes stay within the
/// replay limits, and `check_times` holds — all before
/// [`ChaosCase::plan`] runs. The error is one line naming the field.
pub fn read_case(text: &str) -> Result<ChaosCase, String> {
    fn u(j: &Json, key: &str) -> Result<u64, String> {
        j.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing or non-integer field '{key}'"))
    }
    /// A field narrower than `u64`: out-of-range values are an error,
    /// never a silent wrap onto some other link or class.
    fn narrow<T: TryFrom<u64>>(j: &Json, key: &str) -> Result<T, String> {
        let v = u(j, key)?;
        T::try_from(v).map_err(|_| {
            let bits = 8 * std::mem::size_of::<T>();
            format!("field '{key}' out of range ({v} does not fit in {bits} bits)")
        })
    }
    /// A count a replay file may not push past `max`.
    fn capped(j: &Json, key: &str, max: u32) -> Result<u32, String> {
        let v = u(j, key)?;
        u32::try_from(v)
            .ok()
            .filter(|&n| n <= max)
            .ok_or_else(|| format!("field '{key}' is {v}, past the replay limit of {max}"))
    }
    fn kind(j: &Json) -> Result<&str, String> {
        j.get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| "missing 'kind'".to_string())
    }
    let j = Json::parse(text)?;
    let topo_j = j.get("topo").ok_or("missing 'topo'")?;
    let topo = match kind(topo_j)? {
        "star" => TopoPick::Star {
            hosts: capped(topo_j, "hosts", MAX_REPLAY_HOSTS)?,
        },
        "clos" => TopoPick::Clos {
            hosts_per_tor: capped(topo_j, "hosts_per_tor", MAX_REPLAY_HOSTS / 4)?,
        },
        "parking_lot" => TopoPick::ParkingLot,
        k => return Err(format!("unknown topo kind '{k}'")),
    };
    let cc_label_j = j.get("cc").and_then(Json::as_str).ok_or("missing 'cc'")?;
    let cc = SCHEMES
        .into_iter()
        .find(|&cc| cc_label(cc) == cc_label_j)
        .ok_or_else(|| format!("unknown cc '{cc_label_j}'"))?;
    let flows = j
        .get("flows")
        .and_then(Json::as_arr)
        .ok_or("missing 'flows'")?;
    if flows.len() > MAX_REPLAY_FLOWS {
        return Err(format!(
            "field 'flows' lists {} flows, past the replay limit of {MAX_REPLAY_FLOWS}",
            flows.len()
        ));
    }
    let flows = flows
        .iter()
        .map(|f| {
            Ok(ChaosFlow {
                src: narrow(f, "src")?,
                dst: narrow(f, "dst")?,
                bytes: u(f, "bytes")?,
                start_us: u(f, "start_us")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let faults = j
        .get("faults")
        .and_then(Json::as_arr)
        .ok_or("missing 'faults'")?
        .iter()
        .map(|f| {
            Ok(match kind(f)? {
                "flap" => FaultSpec::Flap {
                    link: narrow(f, "link")?,
                    at_us: u(f, "at_us")?,
                    down_us: u(f, "down_us")?,
                    times: capped(f, "times", MAX_REPLAY_FLAPS)?,
                    period_us: u(f, "period_us")?,
                },
                "bit_error" => FaultSpec::BitError {
                    link: narrow(f, "link")?,
                    from_us: u(f, "from_us")?,
                    until_us: u(f, "until_us")?,
                    prob_ppm: narrow(f, "prob_ppm")?,
                },
                "storm" => FaultSpec::Storm {
                    host: narrow(f, "host")?,
                    class: narrow(f, "class")?,
                    from_us: u(f, "from_us")?,
                    until_us: u(f, "until_us")?,
                    refresh_us: u(f, "refresh_us")?,
                },
                "wedge" => FaultSpec::Wedge {
                    switch: narrow(f, "switch")?,
                    port: narrow(f, "port")?,
                    class: narrow(f, "class")?,
                    at_us: u(f, "at_us")?,
                },
                k => return Err(format!("unknown fault kind '{k}'")),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let case = ChaosCase {
        seed: u(&j, "seed")?,
        topo,
        cc,
        flows,
        faults,
        duration_us: u(&j, "duration_us")?,
        settle_us: u(&j, "settle_us")?,
        queue_threshold: u(&j, "queue_threshold")?,
    };
    check_times(&case)?;
    Ok(case)
}

/// Every µs time the case names, and every instant derived from them — a
/// flap's last transition, the end of the settling window — must fit the
/// simulated clock's `u64` picoseconds; past it the case would run on a
/// wrapped clock. A flap's outage must be shorter than its period, and a
/// bit-error window must heal after it starts. The error names the field.
fn check_times(case: &ChaosCase) -> Result<(), String> {
    fn fits(field: &str, derived: &str, us: Option<u64>) -> Result<u64, String> {
        us.filter(|&us| us <= MAX_CLOCK_US).ok_or_else(|| {
            format!(
                "field '{field}'{derived} overflows the simulated clock (max {MAX_CLOCK_US} us)"
            )
        })
    }
    let field = |name: &str, us: u64| fits(name, "", Some(us));
    for f in &case.flows {
        field("start_us", f.start_us)?;
    }
    let mut end = field("duration_us", case.duration_us)?;
    for &spec in &case.faults {
        for (name, us) in fault_fields(spec).1 {
            if name.ends_with("_us") {
                field(name, us)?;
            }
            if matches!(name, "at_us" | "from_us" | "until_us") {
                end = end.max(us);
            }
        }
        match spec {
            FaultSpec::Flap {
                at_us,
                down_us,
                times,
                period_us,
                ..
            } => {
                if down_us >= period_us {
                    return Err(format!(
                        "field 'down_us' is {down_us}, not shorter than period_us ({period_us})"
                    ));
                }
                let last_down = period_us
                    .checked_mul(u64::from(times.saturating_sub(1)))
                    .and_then(|span| span.checked_add(at_us));
                let last_up = fits(
                    "period_us",
                    " (in the last flap, at_us + (times - 1) * period_us + down_us)",
                    last_down.and_then(|t| t.checked_add(down_us)),
                )?;
                end = end.max(last_up);
            }
            FaultSpec::BitError {
                from_us, until_us, ..
            } if until_us <= from_us => {
                return Err(format!(
                    "field 'until_us' is {until_us}, not after from_us ({from_us})"
                ));
            }
            _ => {}
        }
    }
    field("settle_us", case.settle_us)?;
    fits(
        "settle_us",
        " (at the end of the run, the later of duration_us and the last fault plus settle_us)",
        end.checked_add(case.settle_us),
    )?;
    Ok(())
}

/// A case's one-line summary form.
fn describe_case(case: &ChaosCase) -> String {
    format!(
        "seed={:#018x} topo={} cc={} flows={} faults={}",
        case.seed,
        topo_kind(case.topo),
        cc_label(case.cc),
        case.flows.len(),
        case.faults.len()
    )
}

/// A report's one-line summary form (no wall-clock content).
fn describe_report(r: &CaseReport) -> String {
    format!(
        "{} violations={} completions={} teardowns={} wd_trips={} delivered={} events={}",
        if r.converged() { "PASS" } else { "FAIL" },
        r.violations.len(),
        r.completions,
        r.teardowns,
        r.watchdog_trips,
        r.delivered_bytes,
        r.events
    )
}

/// A case fails when it errors or its fabric does not converge.
fn failed(result: &Result<CaseReport, String>) -> bool {
    result.as_ref().map_or(true, |r| !r.converged())
}

/// Result of a whole campaign.
pub struct CampaignOutcome {
    /// The deterministic summary text (also printed to stdout).
    pub summary: String,
    /// Repro files written, one per failing case.
    pub repro_files: Vec<PathBuf>,
}

/// Runs a campaign: generate, execute on up to `threads` workers, shrink
/// failures, write repro files. Pure function of `(seed, cases, quick)`
/// except for the files it writes under `out_dir`.
pub fn campaign(
    seed: u64,
    cases: u64,
    quick: bool,
    threads: usize,
    out_dir: &Path,
) -> CampaignOutcome {
    let specs: Vec<ChaosCase> = (0..cases).map(|i| generate_case(seed, i, quick)).collect();
    let results = runner::par_map(threads, &specs, execute);

    let mut summary = String::new();
    summary.push_str(&format!(
        "chaos campaign: seed={seed} cases={cases} quick={quick}\n"
    ));
    let mut failures: Vec<&ChaosCase> = Vec::new();
    for (i, (case, result)) in specs.iter().zip(&results).enumerate() {
        let outcome = match result {
            Ok(report) => describe_report(report),
            Err(e) => format!("ERROR {e}"),
        };
        summary.push_str(&format!(
            "case {i:03}: {} -> {outcome}\n",
            describe_case(case)
        ));
        if failed(result) {
            failures.push(case);
        }
    }

    // Shrink every failure to a minimal reproduction and write it out.
    // Sequential on purpose: failures are rare and the shrink order must
    // not depend on scheduling.
    let mut repro_files = Vec::new();
    for case in &failures {
        let minimal = shrink_case(case, |c| failed(&execute(c)));
        let name = format!("CHAOS_REPRO_{:016x}.json", minimal.seed);
        summary.push_str(&format!(
            "shrunk {:#018x}: {} faults, {} flows, {} us -> {name}\n",
            minimal.seed,
            minimal.faults.len(),
            minimal.flows.len(),
            minimal.duration_us
        ));
        let path = out_dir.join(&name);
        if let Err(e) = std::fs::create_dir_all(out_dir)
            .and_then(|()| std::fs::write(&path, case_json(&minimal).render()))
        {
            eprintln!("cannot write {}: {e}", path.display());
        } else {
            repro_files.push(path);
        }
    }

    summary.push_str(&format!(
        "{}/{} cases converged, {} failed\n",
        cases as usize - failures.len(),
        cases,
        failures.len()
    ));
    CampaignOutcome {
        summary,
        repro_files,
    }
}

/// Replays a repro file. Returns the report, or an error for an
/// unreadable/invalid file.
pub fn replay(path: &Path) -> Result<(ChaosCase, CaseReport), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let case = read_case(&text)?;
    let report = execute(&case)?;
    Ok((case, report))
}

/// Prints a usage error and returns its exit status.
fn usage_error(msg: &str) -> i32 {
    eprintln!("{msg}");
    eprintln!("usage: repro chaos [--seed N] [--cases N] [--quick] [--out DIR]");
    eprintln!("       repro chaos --replay FILE");
    2
}

/// The `repro chaos` entry point, running cases on up to `threads`
/// workers. Returns the process exit status: 0 = all cases converged,
/// 1 = at least one failure, 2 = usage error.
pub fn cli(args: &[String], threads: usize) -> i32 {
    let mut seed: u64 = 1;
    let mut cases: u64 = 25;
    let mut quick = false;
    let mut out_dir = PathBuf::from("chaos_out");
    let mut replay_file: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return usage_error("--seed requires an integer"),
            },
            "--cases" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => cases = v,
                _ => return usage_error("--cases requires a positive integer"),
            },
            "--out" => match it.next() {
                Some(d) => out_dir = PathBuf::from(d),
                None => return usage_error("--out requires a directory"),
            },
            "--replay" => match it.next() {
                Some(f) => replay_file = Some(PathBuf::from(f)),
                None => return usage_error("--replay requires a file"),
            },
            other => return usage_error(&format!("unknown argument '{other}'")),
        }
    }

    if let Some(path) = replay_file {
        return match replay(&path) {
            Ok((case, report)) => {
                println!(
                    "replay {}: {}",
                    describe_case(&case),
                    describe_report(&report)
                );
                for v in &report.violations {
                    println!("  violation at {:?}: {}", v.at, v.context);
                }
                i32::from(!report.converged())
            }
            Err(e) => {
                eprintln!("{e}");
                2
            }
        };
    }

    let outcome = campaign(seed, cases, quick, threads, &out_dir);
    print!("{}", outcome.summary);
    i32::from(!outcome.repro_files.is_empty() || outcome.summary.contains("-> FAIL"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_case_executes_and_converges() {
        // Case 0 of seed 1 in quick mode: small, must converge — the
        // generator's vocabulary only schedules faults that clear.
        let case = generate_case(1, 0, true);
        let report = execute(&case).expect("valid generated case");
        assert!(
            report.converged(),
            "generated case should converge: {:?}",
            report
                .violations
                .iter()
                .map(|v| &v.context)
                .collect::<Vec<_>>()
        );
    }

    /// The generator's settling window covers the executor's slowest
    /// recovery: the longest single retry gap (`rto · rto_backoff_cap`)
    /// plus the watchdog's restore, under every scheme.
    #[test]
    fn settle_window_covers_recovery() {
        let recovery = PfcWatchdogConfig::default().recovery;
        for cc in SCHEMES {
            let h = host_config(cc);
            // The scheme's own knobs survive the executor's timing.
            assert_eq!(h.cnp_interval.is_some(), cc == CcName::Dcqcn, "{cc:?}");
            let worst = h.rto * u64::from(h.rto_backoff_cap) + recovery;
            for index in 0..16 {
                let case = generate_case(1, index, index % 2 == 0);
                let settle = Duration::from_micros(case.settle_us);
                assert!(settle > worst, "{cc:?}: settle {settle} <= {worst}");
            }
        }
    }

    #[test]
    fn topo_shape_matches_built_network() {
        for topo in [
            TopoPick::Star { hosts: 5 },
            TopoPick::Clos { hosts_per_tor: 2 },
            TopoPick::ParkingLot,
        ] {
            let shape = topo.shape();
            let (net, hosts) = build(&ChaosCase {
                topo,
                ..generate_case(1, 0, true)
            });
            assert_eq!(hosts.len(), shape.hosts, "{topo:?}");
            let nodes = shape.switches + shape.hosts;
            let linked = (0..nodes)
                .flat_map(|a| (a + 1..nodes).map(move |b| (NodeId(a), NodeId(b))))
                .filter(|&(a, b)| net.link_between(a, b).is_some())
                .count();
            assert_eq!(linked, shape.links, "{topo:?}");
            // Hosts follow switches in the node-id space.
            for (i, h) in hosts.iter().enumerate() {
                assert_eq!(h.0, shape.switches + i, "{topo:?}");
            }
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        for index in 0..12u64 {
            let case = generate_case(0xC0FFEE, index, false);
            let text = case_json(&case).render();
            let back = read_case(&text).unwrap();
            assert_eq!(back, case);
            // And the rendered form is a fixpoint (byte-identical files).
            assert_eq!(case_json(&back).render(), text);
        }
    }

    #[test]
    fn read_case_rejects_malformed_cases() {
        let good = case_json(&generate_case(1, 0, true)).render();
        assert!(read_case(&good.replace("\"dcqcn\"", "\"warp\"")).is_err());
        assert!(read_case(&good.replace("\"seed\"", "\"dees\"")).is_err());
    }

    /// A µs field or a derived instant past the clock's `u64` picoseconds
    /// is an error naming the field, not a run on a wrapped clock; the
    /// last representable microsecond is accepted.
    #[test]
    fn read_case_rejects_times_past_the_clock() {
        let base = generate_case(1, 0, true);
        let reject = |case: ChaosCase, field: &str| match read_case(&case_json(&case).render()) {
            Err(e) => assert!(e.contains(&format!("field '{field}'")), "{e}"),
            Ok(_) => panic!("{field}: accepted"),
        };
        let mut c = base.clone();
        c.duration_us = u64::MAX;
        reject(c, "duration_us");
        let mut c = base.clone();
        c.settle_us = u64::MAX;
        reject(c, "settle_us");
        let mut c = base.clone();
        c.flows[0].start_us = u64::MAX;
        reject(c, "start_us");
        // Each fits on its own; their sum does not.
        let mut c = base.clone();
        c.faults.clear();
        c.duration_us = MAX_CLOCK_US;
        c.settle_us = 1;
        reject(c, "settle_us");
        let mut c = base.clone();
        c.faults = vec![FaultSpec::Flap {
            link: 0,
            at_us: 1_000,
            down_us: 500,
            times: 3,
            period_us: MAX_CLOCK_US / 2,
        }];
        reject(c, "period_us");
        let mut c = base.clone();
        c.faults.clear();
        c.duration_us = MAX_CLOCK_US - 7;
        c.settle_us = 7;
        assert_eq!(read_case(&case_json(&c).render()), Ok(c));
    }

    #[test]
    fn shrinker_reaches_a_minimal_failing_case() {
        let mut case = generate_case(99, 0, false);
        // Pad with extra specs; the synthetic oracle only cares that a
        // Storm spec survives.
        case.faults = vec![
            FaultSpec::Flap {
                link: 0,
                at_us: 1_000,
                down_us: 500,
                times: 2,
                period_us: 2_000,
            },
            FaultSpec::Storm {
                host: 0,
                class: DATA_PRIORITY,
                from_us: 5_000,
                until_us: 9_000,
                refresh_us: 20,
            },
            FaultSpec::BitError {
                link: 1,
                from_us: 2_000,
                until_us: 8_000,
                prob_ppm: 5_000,
            },
        ];
        let mut oracle_calls = 0usize;
        let shrunk = shrink_case(&case, |c| {
            oracle_calls += 1;
            c.faults
                .iter()
                .any(|f| matches!(f, FaultSpec::Storm { .. }))
        });
        assert_eq!(shrunk.faults.len(), 1, "only the storm should survive");
        assert!(matches!(shrunk.faults[0], FaultSpec::Storm { .. }));
        assert_eq!(shrunk.flows.len(), 1, "flows halve to the floor");
        assert_eq!(shrunk.duration_us, 10_000, "duration halves to the floor");
        assert!(oracle_calls > 0 && oracle_calls < 200);
    }
}
