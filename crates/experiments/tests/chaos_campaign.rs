//! The chaos campaign contract, end to end: campaign summaries are
//! byte-identical at every thread count, a deliberately broken
//! recovery path (a wedged PFC watchdog) is caught by the convergence
//! auditor, and the shrinker reduces it to a minimal replayable case
//! file that still reproduces the failure.

use experiments::chaos::{campaign, case_json, execute, replay, shrink_case};
use netsim::audit::ViolationKind;
use netsim::chaos::{generate_case, CcName, ChaosCase, ChaosFlow, FaultSpec, TopoPick};
use netsim::packet::DATA_PRIORITY;

/// A hand-built case whose only fault is the test-only watchdog wedge —
/// the "firmware bug" the generator never emits. It can never converge.
fn wedged_case() -> ChaosCase {
    ChaosCase {
        seed: 0xBAD_D06,
        topo: TopoPick::Star { hosts: 4 },
        cc: CcName::Dcqcn,
        flows: vec![
            ChaosFlow {
                src: 0,
                dst: 1,
                bytes: 256 * 1024,
                start_us: 0,
            },
            ChaosFlow {
                src: 2,
                dst: 3,
                bytes: 256 * 1024,
                start_us: 100,
            },
        ],
        faults: vec![
            FaultSpec::Flap {
                link: 2,
                at_us: 1_000,
                down_us: 400,
                times: 1,
                period_us: 1_000,
            },
            FaultSpec::Wedge {
                switch: 0,
                port: 1,
                class: DATA_PRIORITY,
                at_us: 2_000,
            },
        ],
        duration_us: 10_000,
        settle_us: 20_000,
        queue_threshold: 64 * 1024,
    }
}

#[test]
fn campaign_summary_is_byte_identical_across_thread_counts() {
    let dir = std::env::temp_dir().join("chaos_campaign_test_threads");
    let serial = campaign(1, 12, true, 1, &dir);
    let parallel = campaign(1, 12, true, 4, &dir);
    assert_eq!(
        serial.summary, parallel.summary,
        "summary must not depend on the thread count"
    );
    assert_eq!(
        serial.summary,
        include_str!("golden/chaos_seed1_quick12.txt"),
        "the generator or executor changed a case"
    );
    assert!(serial.repro_files.is_empty(), "no failures, no repro files");
}

#[test]
fn wedged_watchdog_fails_convergence_and_shrinks_to_a_replayable_file() {
    let case = wedged_case();
    let report = execute(&case).expect("case is well-formed");
    assert!(!report.converged(), "a wedged watchdog can never converge");
    assert!(report
        .violations
        .iter()
        .all(|v| v.kind == ViolationKind::Convergence));
    assert!(report
        .violations
        .iter()
        .any(|v| v.context.contains("watchdog still tripped")));

    // Shrink with the real oracle: re-run each candidate and keep the
    // reduction only if it still fails to converge.
    let minimal = shrink_case(&case, |c| execute(c).map_or(true, |r| !r.converged()));
    assert_eq!(
        minimal.faults,
        vec![FaultSpec::Wedge {
            switch: 0,
            port: 1,
            class: DATA_PRIORITY,
            at_us: 2_000,
        }],
        "only the wedge survives shrinking"
    );
    assert_eq!(minimal.flows.len(), 1, "workload halves to one flow");
    // The acceptance bar: the minimal plan has at most two events.
    assert!(
        minimal.plan().actions().len() <= 2,
        "minimal case expands to ≤ 2 fault events"
    );

    // Round-trip through a repro file and replay: still fails, with the
    // same violation class.
    let dir = std::env::temp_dir().join("chaos_campaign_test_repro");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("CHAOS_REPRO_{:016x}.json", minimal.seed));
    std::fs::write(&path, case_json(&minimal).render()).unwrap();
    let (replayed_case, replayed_report) = replay(&path).expect("repro file replays");
    assert_eq!(replayed_case, minimal, "the file round-trips exactly");
    assert!(!replayed_report.converged());
    assert!(replayed_report
        .violations
        .iter()
        .any(|v| v.context.contains("watchdog still tripped")));
}

#[test]
fn replay_reproduces_a_case_bit_for_bit() {
    // Executing the same generated case twice must agree on the full
    // trajectory fingerprint, which is what makes repro files useful.
    let case = generate_case(3, 1, true);
    let a = execute(&case).unwrap();
    let b = execute(&case).unwrap();
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

/// Hostile replay files, through the real binary: a fault naming a link,
/// host, port, class or switch the star-4 fabric does not have, a field
/// too wide for its type, a flap count or fabric size past the replay
/// limits, or a fault window no schedule can mean, is a usage error
/// (exit 2, one line naming the field and the bound) — never an index
/// panic when the fault fires, a silently ignored or altered fault, a
/// value wrapped onto some other link or class, or an allocation that
/// aborts the process.
#[test]
fn hostile_replay_files_exit_2_with_one_line() {
    let wedge = |switch: u64, port: u64, class: u64| {
        format!(
            r#"{{"at_us": 1000, "class": {class}, "kind": "wedge", "port": {port}, "switch": {switch}}}"#
        )
    };
    let storm_window = |host: u64, class: u64, until: u64, refresh: u64| {
        format!(
            r#"{{"class": {class}, "from_us": 1000, "host": {host}, "kind": "storm", "refresh_us": {refresh}, "until_us": {until}}}"#
        )
    };
    let storm = |host, class| storm_window(host, class, 2000, 10);
    let flap_down = |link: u64, times: u64, down: u64| {
        format!(
            r#"{{"at_us": 1000, "down_us": {down}, "kind": "flap", "link": {link}, "period_us": 1000, "times": {times}}}"#
        )
    };
    let flap = |link, times| flap_down(link, times, 400);
    let bit_error_window = |link: u64, ppm: u64, until: u64| {
        format!(
            r#"{{"from_us": 1000, "kind": "bit_error", "link": {link}, "prob_ppm": {ppm}, "until_us": {until}}}"#
        )
    };
    let bit_error = |link| bit_error_window(link, 5000, 3000);
    const STAR4: &str = r#"{"hosts": 4, "kind": "star"}"#;
    let table: [(&str, String, &str, &str); 18] = [
        (
            "flap-link",
            flap(99, 1),
            STAR4,
            "link 99 but the fabric has 4 links",
        ),
        (
            "biterr-link",
            bit_error(99),
            STAR4,
            "link 99 but the fabric has 4 links",
        ),
        (
            "storm-host",
            storm(50, 3),
            STAR4,
            "host 51 but the fabric has 5 nodes",
        ),
        (
            "storm-class",
            storm(1, 9),
            STAR4,
            "class 9 but PFC has 8 classes",
        ),
        (
            "wedge-port",
            wedge(0, 77, 3),
            STAR4,
            "port 77 but switch 0 has 4 ports",
        ),
        (
            "wedge-class",
            wedge(0, 1, 9),
            STAR4,
            "wedge_watchdog names class 9 but PFC has 8 classes",
        ),
        (
            "wedge-switch",
            wedge(200, 1, 3),
            STAR4,
            "switch 200 but the fabric has 5 nodes",
        ),
        (
            "wedge-host",
            wedge(2, 0, 3),
            STAR4,
            "switch 2 but node 2 is a host",
        ),
        (
            "wide-link",
            flap(4_294_967_297, 1),
            STAR4,
            "field 'link' out of range",
        ),
        (
            "wide-class",
            storm(1, 259),
            STAR4,
            "field 'class' out of range",
        ),
        (
            "wide-host",
            storm(4_294_967_297, 3),
            STAR4,
            "field 'host' out of range",
        ),
        (
            "storm-refresh",
            storm_window(1, 3, 2000, 0),
            STAR4,
            "host 2 class 3 storm has a zero refresh interval",
        ),
        (
            "storm-order",
            storm_window(1, 3, 500, 10),
            STAR4,
            "host 2 class 3 storm ends at 0.000500s, before it starts at 0.001000s",
        ),
        (
            "flap-outage",
            flap_down(0, 1, 1000),
            STAR4,
            "field 'down_us' is 1000, not shorter than period_us (1000)",
        ),
        (
            "biterr-prob",
            bit_error_window(0, 2_000_000, 3000),
            STAR4,
            "link 0 bit-error probability 2 is outside [0, 1]",
        ),
        (
            "biterr-order",
            bit_error_window(0, 5000, 1000),
            STAR4,
            "field 'until_us' is 1000, not after from_us (1000)",
        ),
        (
            "flap-times",
            flap(0, 4_000_000_000),
            STAR4,
            "field 'times' is 4000000000, past the replay limit of 1000",
        ),
        (
            "star-hosts",
            flap(0, 1),
            r#"{"hosts": 4000000000, "kind": "star"}"#,
            "field 'hosts' is 4000000000, past the replay limit of 256",
        ),
    ];
    let dir = std::env::temp_dir().join(format!("chaos-hostile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (tag, fault, topo, needle) in &table {
        let text = format!(
            r#"{{"cc": "dcqcn", "duration_us": 10000, "faults": [{fault}],
                "flows": [{{"bytes": 65536, "dst": 1, "src": 0, "start_us": 0}}],
                "queue_threshold": 65536, "seed": 7, "settle_us": 20000,
                "topo": {topo}}}"#
        );
        let path = dir.join(format!("{tag}.json"));
        std::fs::write(&path, text).unwrap();
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["chaos", "--replay"])
            .arg(&path)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{tag}: {stderr}");
        assert!(!stderr.contains("panicked"), "{tag}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{tag}: {stderr}");
        assert!(stderr.contains(needle), "{tag}: {stderr}");
        assert!(out.stdout.is_empty(), "{tag}: nothing ran, nothing printed");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Replay files whose run length, settling window or flow start lies past
/// the simulated clock (`u64` picoseconds) exit 2 with one line naming the
/// field. Read unchecked, each wrapped to a short run that printed `PASS`.
#[test]
fn replay_files_past_the_clock_exit_2_with_one_line() {
    const MAX: u64 = u64::MAX;
    let dir = std::env::temp_dir().join(format!("chaos-clock-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (field, duration_us, settle_us, start_us) in [
        ("duration_us", MAX, 20_000, 0),
        ("settle_us", 10_000, MAX, 0),
        ("start_us", 10_000, 20_000, MAX),
    ] {
        let text = format!(
            r#"{{"cc": "dcqcn", "duration_us": {duration_us}, "faults": [],
                "flows": [{{"bytes": 65536, "dst": 1, "src": 0, "start_us": {start_us}}}],
                "queue_threshold": 65536, "seed": 7, "settle_us": {settle_us},
                "topo": {{"hosts": 4, "kind": "star"}}}}"#
        );
        let path = dir.join(format!("{field}.json"));
        std::fs::write(&path, text).unwrap();
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["chaos", "--replay"])
            .arg(&path)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{field}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{field}: {stderr}");
        assert!(stderr.contains(&format!("field '{field}'")), "{stderr}");
        assert!(stderr.contains("overflows the simulated clock"), "{stderr}");
        assert!(
            out.stdout.is_empty(),
            "{field}: nothing ran, nothing printed"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
