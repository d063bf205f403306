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
