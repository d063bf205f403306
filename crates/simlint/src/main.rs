//! Thin CLI over the simlint library.
//!
//! ```text
//! simlint [--format text|json] [--print-hot]
//! ```
//!
//! Exit codes: 0 no unsuppressed finding, 1 findings, 2 usage or I/O
//! error.

use simlint::{analyze_sources, collect_workspace_sources, render_report};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    format_json: bool,
    print_hot: bool,
}

fn usage() -> &'static str {
    "usage: simlint [--format text|json] [--print-hot]\n\
     \n\
     rules:\n"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        format_json: false,
        print_hot: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--format" => {
                let v = it.next().ok_or("--format needs a value")?;
                match v.as_str() {
                    "json" => args.format_json = true,
                    "text" => args.format_json = false,
                    other => return Err(format!("unknown format {other:?}")),
                }
            }
            "--print-hot" => args.print_hot = true,
            "--help" | "-h" => {
                let mut help = usage().to_owned();
                for (rule, desc) in simlint::rules::RULES {
                    help.push_str(&format!("  {rule:<18} {desc}\n"));
                }
                print!("{help}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// The workspace root: two levels above this crate's manifest when run
/// via cargo, else the current directory.
fn workspace_root() -> PathBuf {
    if let Ok(dir) = std::env::var("CARGO_MANIFEST_DIR") {
        let p = Path::new(&dir).join("../..");
        if p.join("Cargo.toml").exists() {
            return p;
        }
    }
    PathBuf::from(".")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simlint: {e}");
            return ExitCode::from(2);
        }
    };

    let root = workspace_root();
    let sources = match collect_workspace_sources(&root) {
        Ok(s) if !s.is_empty() => s,
        Ok(_) => {
            eprintln!("simlint: no source files found under {}", root.display());
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("simlint: {e}");
            return ExitCode::from(2);
        }
    };

    let analysis = analyze_sources(&sources);

    if args.print_hot {
        println!("# hot files ({})", analysis.hot_files.len());
        for f in &analysis.hot_files {
            println!("{f}");
        }
        println!("# hot fns ({})", analysis.hot_fns.len());
        for f in &analysis.hot_fns {
            println!("{f}");
        }
        return ExitCode::SUCCESS;
    }

    let status = if analysis.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    };

    if args.format_json {
        print!("{}", render_report(&analysis));
        return status;
    }

    // Text output.
    eprintln!(
        "simlint v2: {} files, {} fns, {} edges; {} hot fns across {} hot files",
        analysis.files,
        analysis.fns,
        analysis.edges,
        analysis.hot_fns.len(),
        analysis.hot_files.len()
    );
    for f in &analysis.findings {
        eprintln!("{}:{} [{}] {}", f.file, f.line, f.rule, f.msg);
        if let Some(chain) = &f.chain {
            eprintln!("    via {chain}");
        }
    }
    eprintln!(
        "simlint: {} finding(s) suppressed inline, {} unsuppressed",
        analysis.suppressed.len(),
        analysis.findings.len()
    );
    status
}
