//! `repro` — regenerate every table and figure of the DCQCN paper.
//!
//! ```text
//! repro <id>... [--quick] [--json <dir>] [--trace <dir>] [--dash <dir>]
//! repro all [--quick]                    run every experiment
//! repro list                             list experiment ids
//! repro compare <a.json> <b.json> [..]   diff two telemetry reports
//! ```
//!
//! Several positional ids run in order: `repro fig3 fig4 fig9`. Unknown
//! ids, unknown `--flags` and flags with no id at all are rejected up
//! front with exit status 2 — nothing runs. Exit status 1 means every
//! experiment ran but a requested `--json`/`--trace`/`--dash` file could
//! not be written (one `error:` line each).
//!
//! `--json <dir>` additionally writes one machine-readable report per
//! experiment to `<dir>/<id>.json`; `--trace <dir>` writes a Chrome
//! trace-event file (`<dir>/<id>.trace.json`, loadable in Perfetto or
//! `about://tracing`) for the experiments that export a causal trace;
//! `--dash <dir>` writes a dependency-free single-file HTML dashboard
//! (`<dir>/<id>.html`) for the experiments that render one. All three
//! are deterministic byte-for-byte across `REPRO_THREADS` settings
//! (see DESIGN.md, "Telemetry" and "Causal tracing").

use experiments::report::{Artifact, Run};
use std::path::Path;
use std::time::Instant;

fn usage() {
    eprintln!(
        "usage: repro <id>...|all|list [--quick] [--json <dir>] [--trace <dir>] [--dash <dir>]"
    );
    eprintln!(
        "       repro compare <a.json> <b.json> [--rel-pct <p>] [--abs <v>] [--ignore <key>]"
    );
    eprintln!("       repro chaos [--seed <n>] [--cases <n>] [--quick] [--out <dir>]");
    eprintln!("       repro chaos --replay <file>");
    eprintln!("ids: {}", ids_of(experiments::ALL).join(" "));
    eprintln!("ext: ext {}", ids_of(experiments::EXT).join(" "));
}

/// The ids of a table of experiments, in table order.
fn ids_of(table: &[experiments::Experiment]) -> Vec<&'static str> {
    table.iter().map(|row| row.0).collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A bad thread count fails the invocation before any id or campaign
    // runs, not at the first experiment that fans out.
    let threads = experiments::runner::threads_from_env().unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2);
    });
    // `chaos` owns its flag vocabulary (--seed, --cases, --replay, …),
    // so it parses its own arguments instead of the shared loop below.
    if args.first().map(String::as_str) == Some("chaos") {
        std::process::exit(experiments::chaos::cli(&args[1..], threads));
    }
    // `compare` likewise owns its flags.
    if args.first().map(String::as_str) == Some("compare") {
        std::process::exit(experiments::compare::cli(&args[1..]));
    }
    let mut run = Run::new(false, threads);
    let mut ids: Vec<&str> = Vec::new();
    // Output directory per artifact kind, indexed by `Artifact`.
    let mut dirs: [Option<&str>; 3] = [None; 3];
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => run.quick = true,
            flag if flag.starts_with("--") => {
                let Some(kind) = Artifact::from_flag(flag) else {
                    eprintln!("unknown flag '{flag}'");
                    usage();
                    std::process::exit(2);
                };
                let Some(dir) = it.next() else {
                    eprintln!("{flag} requires an output directory");
                    std::process::exit(2);
                };
                dirs[kind as usize] = Some(dir.as_str());
            }
            id => ids.push(id),
        }
    }

    if ids.is_empty() && !args.is_empty() {
        // Flags but nothing to run: a script whose id list came out
        // empty must not pass.
        eprintln!("no experiment id given");
        usage();
        std::process::exit(2);
    }
    if ids.is_empty() || ids.contains(&"help") {
        usage();
        return;
    }
    let known = [ids_of(experiments::ALL), ids_of(experiments::EXT)].concat();
    if ids.contains(&"list") {
        for id in known {
            println!("{id}");
        }
        return;
    }
    // Validate every id up front so a typo late in the list cannot waste
    // the runs before it.
    for id in &ids {
        if !(*id == "all" || *id == "ext" || known.contains(id)) {
            eprintln!("unknown experiment '{id}'");
            usage();
            std::process::exit(2);
        }
    }

    for kind in [Artifact::Report, Artifact::Trace, Artifact::Dash] {
        let Some(dir) = dirs[kind as usize] else {
            continue;
        };
        if let Err(e) = run.set_dir(kind, Path::new(dir)) {
            eprintln!("cannot create output directory {dir}: {e}");
            std::process::exit(1);
        }
    }

    let t0 = Instant::now();
    let many = ids.len() > 1 || ids.contains(&"all") || ids.contains(&"ext");
    for id in &ids {
        let t = Instant::now();
        match *id {
            "all" => {
                for (id, ..) in experiments::ALL {
                    let t = Instant::now();
                    experiments::dispatch(&mut run, id);
                    eprintln!("[{id} took {:.1}s]", t.elapsed().as_secs_f64());
                }
            }
            "ext" => {
                for (id, ..) in experiments::EXT {
                    experiments::dispatch(&mut run, id);
                }
            }
            id => {
                experiments::dispatch(&mut run, id);
            }
        }
        // `all` timed each of its ids.
        if many && *id != "all" {
            eprintln!("[{id} took {:.1}s]", t.elapsed().as_secs_f64());
        }
    }
    if many {
        eprintln!("[total {:.1}s]", t0.elapsed().as_secs_f64());
    }
    // Each unwritable file was reported as it happened (`error: …`); a
    // requested artifact that is missing fails the invocation.
    if run.failed_writes() > 0 {
        std::process::exit(1);
    }
}
