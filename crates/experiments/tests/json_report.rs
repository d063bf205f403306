//! The `--json` report contract: a report is a pure function of the
//! experiment's config + seeds, so it must be byte-identical no matter
//! how many worker threads the runs fan out across — the same property
//! `tests/determinism.rs` pins for raw results, extended here through the
//! telemetry counters and the JSON renderer. Every test dispatches on a
//! `Run` of its own, so no sink outlives the test that set it.

use experiments::report::{Artifact, Run};
use netsim::telemetry::Json;
use std::path::PathBuf;
use std::sync::OnceLock;

/// Dispatches `id` on `run` and returns its report.
fn report(run: &mut Run, id: &str) -> Json {
    experiments::dispatch(run, id).expect("a known id")
}

/// A scratch directory of this test process.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("repro-{name}-{}", std::process::id()))
}

/// The quick reports more than one check reads, each computed once per
/// test binary.
fn cached(id: &str) -> &'static Json {
    static REPORTS: [(&str, OnceLock<Json>); 3] = [
        ("fig4", OnceLock::new()),
        ("fig9", OnceLock::new()),
        ("ext-attribution", OnceLock::new()),
    ];
    let (_, cell) = REPORTS.iter().find(|r| r.0 == id).expect("a cached id");
    cell.get_or_init(|| report(&mut Run::new(true, 2), id))
}

#[test]
fn fig3_report_is_byte_identical_across_thread_counts() {
    // Through the `--json` sink, for which fig3 adds per-run telemetry.
    let file = |threads| {
        let dir = scratch(&format!("fig3-{threads}"));
        let mut run = Run::new(true, threads);
        run.set_dir(Artifact::Report, &dir).unwrap();
        report(&mut run, "fig3");
        let text = std::fs::read_to_string(dir.join("fig3.json")).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        text
    };
    let serial = file(1);
    let parallel = file(8);
    assert!(
        serial == parallel,
        "fig3 report differs between 1 and 8 threads"
    );
    // And it is a real report, not an empty shell: stamped with its id
    // and carrying per-run telemetry counters.
    assert!(serial.contains("\"id\": \"fig3\""));
    assert!(serial.contains("\"per_host_goodput_gbps\""));
    assert!(serial.contains("\"queue_depth_bytes\""));
    assert!(serial.contains("\"pause_tx\""));
}

#[test]
fn json_dir_writes_one_report_per_dispatch() {
    let dir = scratch("json");
    let mut run = Run::new(true, 1);
    run.set_dir(Artifact::Report, &dir).unwrap();
    assert!(run.enabled(Artifact::Report));
    // A cheap closed-form experiment still produces a stamped report.
    let returned = report(&mut run, "fig5");
    let text = std::fs::read_to_string(dir.join("fig5.json")).unwrap();
    assert!(text == returned.render(), "the file is the returned report");
    assert!(text.starts_with("{\n"), "report is a JSON object");
    assert!(text.ends_with("\n"), "report ends with a newline");
    assert!(text.contains("\"id\": \"fig5\""));
    assert!(text.contains("\"quick\": true"));
    // A sink belongs to its run: a later run without one writes no file
    // and fails no write.
    let mut bare = Run::new(true, 1);
    report(&mut bare, "fig6");
    let files = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(files, 1, "only the run with a --json dir wrote a file");
    assert_eq!((run.failed_writes(), bare.failed_writes()), (0, 0));
    std::fs::remove_dir_all(&dir).ok();
}

/// One attribution pass, three callers: `ext-attribution` prints what
/// fig4 (PFC only) and fig9 (DCQCN) already computed, so its two scheme
/// objects must equal their attribution keys exactly.
#[test]
fn ext_attribution_is_the_attribution_pass_of_fig4_and_fig9() {
    let ext = cached("ext-attribution");
    let schemes = ext.get("schemes").and_then(Json::as_arr).expect("schemes");
    assert_eq!(schemes.len(), 2);
    for (scheme, fig) in schemes.iter().zip(["fig4", "fig9"]) {
        let fig_report = cached(fig);
        assert_eq!(scheme.get("scheme"), fig_report.get("scheme"), "{fig}");
        for key in ["victim_fct_us", "victim_breakdown_us", "congestion_tree"] {
            assert!(scheme.get(key).is_some(), "{key} missing");
            assert_eq!(scheme.get(key), fig_report.get(key), "{fig} {key}");
        }
    }
}

/// The `--trace` sink only adds a file: the report of an experiment that
/// exports a trace is the same bytes whether or not the trace is
/// rendered (the attribution result carries what the trace is rendered
/// from, not a rendering).
#[test]
fn trace_sink_does_not_change_the_report() {
    let without = cached("fig4").render();
    let dir = scratch("trace");
    let mut run = Run::new(true, 2);
    run.set_dir(Artifact::Trace, &dir).unwrap();
    let with = report(&mut run, "fig4").render();
    assert!(without == with, "fig4 report differs with a --trace sink");
    assert_eq!(run.failed_writes(), 0);
    let trace = std::fs::read_to_string(dir.join("fig4.trace.json")).unwrap();
    assert!(trace.starts_with("{\n  \"displayTimeUnit\": \"ms\",\n"));
    assert!(trace.ends_with("]\n}\n"), "the file was written to its end");
    assert!(Json::parse(&trace).is_ok(), "the streamed file is JSON");
    std::fs::remove_dir_all(&dir).ok();
}
