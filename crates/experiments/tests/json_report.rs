//! The `--json` report contract: a report is a pure function of the
//! experiment's config + seeds, so it must be byte-identical no matter
//! how many worker threads `REPRO_THREADS` fans the runs across — the
//! same property `tests/determinism.rs` pins for raw results, extended
//! here through the telemetry registry and the JSON renderer.

use experiments::report::{capture, Artifact};
use netsim::telemetry::Json;
use std::sync::Mutex;

/// Serializes tests that mutate `REPRO_THREADS` / the report sink —
/// both are process-global.
static ENV_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn fig3_report_is_byte_identical_across_thread_counts() {
    let _guard = ENV_LOCK.lock().unwrap();
    std::env::set_var("REPRO_THREADS", "1");
    let serial = experiments::report::capture("fig3", true).expect("fig3 is a known id");
    std::env::set_var("REPRO_THREADS", "8");
    let parallel = experiments::report::capture("fig3", true).expect("fig3 is a known id");
    assert!(
        serial == parallel,
        "fig3 report differs between REPRO_THREADS=1 and =8"
    );
    // And it is a real report, not an empty shell: stamped with its id
    // and carrying per-run telemetry from the registry.
    assert!(serial.contains("\"id\": \"fig3\""));
    assert!(serial.contains("\"per_host_goodput_gbps\""));
    assert!(serial.contains("\"queue_depth_bytes\""));
    assert!(serial.contains("\"pause_tx\""));
}

#[test]
fn json_dir_writes_one_report_per_dispatch() {
    let _guard = ENV_LOCK.lock().unwrap();
    let dir = std::env::temp_dir().join(format!("repro-json-{}", std::process::id()));
    experiments::report::set_dir(Artifact::Report, &dir).unwrap();
    assert!(experiments::report::enabled(Artifact::Report));
    // A cheap closed-form experiment still produces a stamped report.
    assert!(experiments::dispatch("fig5", true));
    let text = std::fs::read_to_string(dir.join("fig5.json")).unwrap();
    assert!(text.starts_with("{\n"), "report is a JSON object");
    assert!(text.ends_with("\n"), "report ends with a newline");
    assert!(text.contains("\"id\": \"fig5\""));
    assert!(text.contains("\"quick\": true"));
    std::fs::remove_dir_all(&dir).ok();
}

/// One attribution pass, three callers: `ext-attribution` prints what
/// fig4 (PFC only) and fig9 (DCQCN) already computed, so its two scheme
/// objects must equal their attribution keys exactly.
#[test]
fn ext_attribution_is_the_attribution_pass_of_fig4_and_fig9() {
    let _guard = ENV_LOCK.lock().unwrap();
    let report = |id| Json::parse(&capture(id, true).expect("known id")).expect("report parses");
    let ext = report("ext-attribution");
    let schemes = ext.get("schemes").and_then(Json::as_arr).expect("schemes");
    assert_eq!(schemes.len(), 2);
    for (scheme, fig) in schemes.iter().zip(["fig4", "fig9"]) {
        let fig_report = report(fig);
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
    let _guard = ENV_LOCK.lock().unwrap();
    let without = capture("fig4", true).expect("fig4 is a known id");
    let dir = std::env::temp_dir().join(format!("repro-trace-{}", std::process::id()));
    experiments::report::set_dir(Artifact::Trace, &dir).unwrap();
    let with = capture("fig4", true).expect("fig4 is a known id");
    assert!(without == with, "fig4 report differs with a --trace sink");
    let trace = std::fs::read_to_string(dir.join("fig4.trace.json")).unwrap();
    assert!(trace.starts_with("{\n  \"displayTimeUnit\": \"ms\",\n"));
    assert!(trace.ends_with("]\n}\n"), "the file was written to its end");
    assert!(Json::parse(&trace).is_ok(), "the streamed file is JSON");
    std::fs::remove_dir_all(&dir).ok();
}
