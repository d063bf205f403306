//! Whole-workspace checks: the computed hot set covers the legacy
//! hard-coded lists, the checked-in baseline covers every finding, JSON
//! output is byte-stable, and the CLI reads and rewrites the baseline
//! through the shared `simjson` parser and renderer.

use simlint::{analyze_sources, collect_workspace_sources, render_report};
use simlint::{Baseline, Config};
use std::path::PathBuf;

/// The hot-file list the pre-engine scanner hard-coded. The computed
/// reachability set must remain a superset: losing any of these files
/// would silently disable hot-path rules where they used to apply.
const LEGACY_HOT_FILES: [&str; 9] = [
    "crates/netsim/src/event.rs",
    "crates/netsim/src/slab.rs",
    "crates/netsim/src/host.rs",
    "crates/netsim/src/switch.rs",
    "crates/netsim/src/port.rs",
    "crates/netsim/src/faults.rs",
    "crates/netsim/src/telemetry/registry.rs",
    "crates/netsim/src/telemetry/recorder.rs",
    "crates/netsim/src/telemetry/spans.rs",
];

/// Likewise for the legacy metric-lookup file list.
const LEGACY_METRIC_FILES: [&str; 11] = [
    "crates/netsim/src/event.rs",
    "crates/netsim/src/slab.rs",
    "crates/netsim/src/host.rs",
    "crates/netsim/src/switch.rs",
    "crates/netsim/src/port.rs",
    "crates/netsim/src/faults.rs",
    "crates/netsim/src/network.rs",
    // Split out of network.rs: `Event::Fault` application, the
    // convergence audit (a root of its own) and the sampler tick.
    "crates/netsim/src/network/faults.rs",
    "crates/netsim/src/network/converge.rs",
    "crates/netsim/src/telemetry/sampler.rs",
    "crates/netsim/src/telemetry/spans.rs",
];

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn computed_hot_set_covers_legacy_lists() {
    let sources = collect_workspace_sources(&workspace_root()).expect("collect");
    let a = analyze_sources(&sources, &Config::default());
    for legacy in LEGACY_HOT_FILES.iter().chain(LEGACY_METRIC_FILES.iter()) {
        assert!(
            a.hot_files.iter().any(|f| f == legacy),
            "computed hot set lost legacy hot file {legacy}; hot set: {:#?}",
            a.hot_files
        );
    }
}

/// The sampler tick runs inside the dispatch loop: the sampler and the
/// timeline engine it records into are hot code, and the hot-path rules
/// (no allocation, no by-name metric lookups) must keep applying to
/// them. Losing either file from the reachability set would silently
/// un-lint the sampling path.
#[test]
fn sampling_path_is_in_the_hot_set() {
    let sources = collect_workspace_sources(&workspace_root()).expect("collect");
    let a = analyze_sources(&sources, &Config::default());
    for file in [
        "crates/netsim/src/telemetry/timeline.rs",
        "crates/netsim/src/telemetry/sampler.rs",
        "crates/netsim/src/network.rs",
    ] {
        assert!(
            a.hot_files.iter().any(|f| f == file),
            "sampling-path file {file} fell out of the hot set; hot set: {:#?}",
            a.hot_files
        );
    }
}

#[test]
fn workspace_is_clean_under_the_checked_in_baseline() {
    let root = workspace_root();
    let sources = collect_workspace_sources(&root).expect("collect");
    let a = analyze_sources(&sources, &Config::default());
    let baseline_text = std::fs::read_to_string(root.join("simlint_baseline.json"))
        .expect("simlint_baseline.json is checked in at the workspace root");
    let baseline = Baseline::from_json(&baseline_text).expect("baseline parses");
    let r = baseline.ratchet(&a.findings);
    assert!(
        r.new.is_empty(),
        "unsuppressed findings beyond baseline:\n{:#?}",
        r.new
    );
    // Every baseline entry carries a real justification.
    for e in &baseline.entries {
        assert!(
            !e.justification.is_empty() && e.justification != "unreviewed",
            "baseline entry {}/{} needs a justification",
            e.rule,
            e.file
        );
    }
}

#[test]
fn json_report_is_byte_stable_across_runs() {
    let root = workspace_root();
    let sources = collect_workspace_sources(&root).expect("collect");
    let run = || {
        let a = analyze_sources(&sources, &Config::default());
        let r = Baseline::default().ratchet(&a.findings);
        render_report(&a, &r)
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "report must be byte-identical across runs");
    assert!(first.contains("\"schema\": \"simlint-v2\""));
}

#[test]
fn shard_report_lists_ctx_threading_functions() {
    let sources = collect_workspace_sources(&workspace_root()).expect("collect");
    let a = analyze_sources(&sources, &Config::default());
    let report = a.shard_report.render();
    // The dispatch loop threads &mut Ctx through node handlers — the
    // sharding work-list must see it.
    assert!(
        report.contains("ctx_mut_fns"),
        "shard report missing ctx_mut_fns: {report}"
    );
    assert!(
        report.contains("Host::receive"),
        "Host::receive threads &mut Ctx: {report}"
    );
}

fn simlint() -> std::process::Command {
    std::process::Command::new(env!("CARGO_BIN_EXE_simlint"))
}

fn tmp_file(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("simlint-{tag}-{}.json", std::process::id()))
}

/// `--write-baseline` on an unchanged tree is a no-op on the bytes: the
/// shared renderer's key order, escaping and indentation are exactly
/// what the checked-in file was written with.
#[test]
fn write_baseline_on_an_unchanged_tree_is_byte_identical() {
    let checked_in = std::fs::read(workspace_root().join("simlint_baseline.json")).unwrap();
    let copy = tmp_file("rewrite");
    std::fs::write(&copy, &checked_in).unwrap();
    let status = simlint()
        .arg("--baseline")
        .arg(&copy)
        .arg("--write-baseline")
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(0));
    let rewritten = std::fs::read(&copy).unwrap();
    std::fs::remove_file(&copy).ok();
    assert!(
        rewritten == checked_in,
        "rewritten baseline differs from the checked-in one:\n{}",
        String::from_utf8_lossy(&rewritten)
    );
}

/// A baseline of 300 KB of `[` is a bad baseline (exit 2, one line), not
/// a stack overflow in the loader.
#[test]
fn deeply_nested_baseline_is_rejected_not_a_crash() {
    let deep = tmp_file("deep");
    std::fs::write(&deep, "[".repeat(300_000)).unwrap();
    let out = simlint().arg("--baseline").arg(&deep).output().unwrap();
    std::fs::remove_file(&deep).ok();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("nesting deeper than"), "{stderr}");
}
