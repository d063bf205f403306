//! Whole-workspace checks: the computed hot set covers the dispatch
//! path, every finding in the tree is tolerated at its site with a
//! reason, and the JSON report lists those sites and is byte-stable.

use simlint::{analyze_sources, collect_workspace_sources, render_report};
use std::path::PathBuf;

/// The dispatch path is hot: the files the pre-engine scanner hard-coded
/// for its hot-path and metric-lookup rules. The computed reachability
/// set must remain a superset — losing any of these files would silently
/// disable hot-path rules where they used to apply.
const DISPATCH_PATH_FILES: [&str; 13] = [
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
    "crates/netsim/src/telemetry/registry.rs",
    "crates/netsim/src/telemetry/recorder.rs",
    "crates/netsim/src/telemetry/sampler.rs",
    "crates/netsim/src/telemetry/spans.rs",
];

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn computed_hot_set_covers_legacy_lists() {
    let sources = collect_workspace_sources(&workspace_root()).expect("collect");
    let a = analyze_sources(&sources);
    for legacy in DISPATCH_PATH_FILES {
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
    let a = analyze_sources(&sources);
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

/// No file beside the sources: every finding in the tree carries its
/// `simlint: allow(…) reason` at its site, and no allow is stale.
#[test]
fn workspace_is_clean() {
    let sources = collect_workspace_sources(&workspace_root()).expect("collect");
    let a = analyze_sources(&sources);
    assert!(
        a.findings.is_empty(),
        "unsuppressed findings:\n{:#?}",
        a.findings
    );
    assert!(!a.suppressed.is_empty());
    assert!(a.suppressed.iter().all(|s| !s.reason.is_empty()));
}

#[test]
fn json_report_lists_every_tolerated_site_and_is_byte_stable() {
    let sources = collect_workspace_sources(&workspace_root()).expect("collect");
    let a = analyze_sources(&sources);
    let first = render_report(&a);
    let second = render_report(&analyze_sources(&sources));
    assert_eq!(first, second, "report must be byte-identical across runs");
    assert!(first.contains("\"schema\": \"simlint-v4\""));

    let report = simjson::Json::parse(&first).expect("report parses");
    let listed = report
        .get("suppressed")
        .and_then(simjson::Json::as_arr)
        .unwrap();
    assert_eq!(listed.len(), a.suppressed.len());
    for (json, s) in listed.iter().zip(&a.suppressed) {
        let text = |key| json.get(key).and_then(simjson::Json::as_str);
        assert_eq!(text("file"), Some(s.file.as_str()));
        assert_eq!(
            json.get("line").and_then(simjson::Json::as_u64),
            Some(s.line as u64)
        );
        assert_eq!(text("rule"), Some(s.rule));
        assert_eq!(text("reason"), Some(s.reason.as_str()));
    }
}

/// netsim's public surface is what its callers use: no `pub` item
/// without an outside caller, and at most eight tolerated at their site.
#[test]
fn netsim_surface_has_a_caller_for_every_pub_item() {
    let sources = collect_workspace_sources(&workspace_root()).expect("collect");
    let a = analyze_sources(&sources);
    let unused: Vec<_> = a
        .findings
        .iter()
        .filter(|f| f.rule == "unused-pub")
        .collect();
    assert!(unused.is_empty(), "{unused:#?}");
    let tolerated = a.suppressed.iter().filter(|s| s.rule == "unused-pub");
    assert!(tolerated.count() <= 8);
}

/// Mutation check on the real tree: `Network::schedule_hook` stays `pub`
/// for one integration test; delete that caller and the rule fires.
#[test]
fn deleting_the_only_caller_of_a_kept_item_makes_unused_pub_fire() {
    const CALLER: &str = "crates/netsim/tests/ecmp_and_sampling.rs";
    let mut sources = collect_workspace_sources(&workspace_root()).expect("collect");
    let outside = |sources: &[(String, String)]| {
        let callers = sources
            .iter()
            .filter(|(rel, _)| !rel.starts_with("crates/netsim/src/"));
        callers
            .filter(|(_, src)| src.contains("schedule_hook"))
            .map(|(rel, _)| rel.clone())
            .collect::<Vec<_>>()
    };
    assert_eq!(outside(&sources), [CALLER], "the precondition: one caller");
    let fires = |sources: &[(String, String)]| {
        let a = analyze_sources(sources);
        a.findings
            .iter()
            .any(|f| f.rule == "unused-pub" && f.msg.contains("Network::schedule_hook"))
    };
    assert!(!fires(&sources));
    sources.retain(|(rel, _)| rel != CALLER);
    assert!(fires(&sources));
}

/// One way to tolerate a finding: the allow comment at its site. The
/// baseline file and its ratchet stay gone. simlint skips its own
/// directory, so this is checked here rather than by a rule.
#[test]
fn no_baseline_file_and_no_ratchet() {
    let root = workspace_root();
    assert!(!root.join("simlint_baseline.json").exists());
    for entry in std::fs::read_dir(root.join("crates/simlint/src")).expect("read src") {
        let path = entry.expect("entry").path();
        let src = std::fs::read_to_string(&path).expect("read");
        for word in ["Baseline", "ratchet"] {
            assert!(!src.contains(word), "{} mentions {word}", path.display());
        }
    }
}
