//! The `repro compare` exit-code contract, driven through the real
//! binary: self-diff is clean (exit 0), an injected counter regression
//! fails (exit 1), tolerances forgive small drift, and unreadable or
//! hostile input is a usage error (exit 2), never a crash. Also pins
//! that the retired `bench-core` / `bench-trajectory` ids are rejected
//! like any other unknown experiment.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-compare-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write(dir: &Path, name: &str, text: &str) -> PathBuf {
    let p = dir.join(name);
    std::fs::write(&p, text).unwrap();
    p
}

const BASE: &str = r#"{
  "id": "fig19",
  "metrics": {
    "counters": {
      "ecn_marks": 1200,
      "pause_tx": 40
    },
    "peak_pending_events": 917
  },
  "quick": true
}
"#;

#[test]
fn self_diff_exits_zero() {
    let dir = tmp_dir("self");
    let a = write(&dir, "a.json", BASE);
    let status = repro().arg("compare").arg(&a).arg(&a).status().unwrap();
    assert_eq!(status.code(), Some(0), "a report always matches itself");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_counter_regression_exits_nonzero() {
    let dir = tmp_dir("regress");
    let a = write(&dir, "a.json", BASE);
    let b = write(&dir, "b.json", &BASE.replace("1200", "1400"));
    let out = repro().arg("compare").arg(&a).arg(&b).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "regression must fail the diff");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("metrics.counters.ecn_marks"),
        "diff names the regressed leaf:\n{stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn default_ignored_keys_are_skipped_and_tolerances_forgive() {
    let dir = tmp_dir("tol");
    let a = write(&dir, "a.json", BASE);
    // peak_pending_events is in the default ignore list; pause_tx
    // drifts by 2.5%.
    let b = write(
        &dir,
        "b.json",
        &BASE
            .replace("917", "2048")
            .replace("\"pause_tx\": 40", "\"pause_tx\": 41"),
    );
    let strict = repro().arg("compare").arg(&a).arg(&b).status().unwrap();
    assert_eq!(
        strict.code(),
        Some(1),
        "2.5% drift differs at default tolerance"
    );
    let loose = repro()
        .args(["compare"])
        .arg(&a)
        .arg(&b)
        .args(["--rel-pct", "5"])
        .status()
        .unwrap();
    assert_eq!(loose.code(), Some(0), "--rel-pct 5 forgives 2.5% drift");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn non_finite_or_negative_tolerances_are_usage_errors() {
    let dir = tmp_dir("badtol");
    let a = write(&dir, "a.json", BASE);
    let b = write(&dir, "b.json", &BASE.replace("1200", "1400"));
    for (flag, value) in [
        ("--abs", "nan"),
        ("--abs", "-1"),
        ("--abs", "1e999"),
        ("--rel-pct", "nan"),
        ("--rel-pct", "-5"),
        ("--rel-pct", "inf"),
    ] {
        let out = repro()
            .arg("compare")
            .arg(&a)
            .arg(&b)
            .args([flag, value])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag} {value}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            stderr.trim_end(),
            format!("{flag} requires a finite number >= 0"),
            "{flag} {value}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_file_is_a_usage_error() {
    let status = repro()
        .args(["compare", "/nonexistent/a.json", "/nonexistent/b.json"])
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(2));
}

fn assert_one_line_usage_error(out: &std::process::Output, what: &str) {
    assert_eq!(out.status.code(), Some(2), "{what}: exit 2, not a crash");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.lines().count(), 1, "{what}: one line:\n{stderr}");
    assert!(stderr.contains("nesting deeper than"), "{what}: {stderr}");
}

#[test]
fn deeply_nested_input_is_a_usage_error_not_a_stack_overflow() {
    let dir = tmp_dir("deep");
    // 300 KB of `[`: deeper than any recursive-descent parser's stack.
    let deep = write(&dir, "deep.json", &"[".repeat(300_000));
    let good = write(&dir, "a.json", BASE);
    let out = repro()
        .arg("compare")
        .arg(&good)
        .arg(&deep)
        .output()
        .unwrap();
    assert_one_line_usage_error(&out, "compare");
    let out = repro()
        .args(["chaos", "--replay"])
        .arg(&deep)
        .output()
        .unwrap();
    assert_one_line_usage_error(&out, "chaos --replay");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retired_bench_subcommands_are_unknown_experiments() {
    for args in [&["bench-core"][..], &["bench-trajectory", "."]] {
        let out = repro().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown experiment '{}'", args[0])),
            "{args:?}:\n{stderr}"
        );
        assert_eq!(
            stderr.matches("bench-").count(),
            1,
            "only the error line names the id; the usage text does not:\n{stderr}"
        );
        for gone in ["--label", "--strict"] {
            assert!(!stderr.contains(gone), "usage lists {gone}:\n{stderr}");
        }
    }
}
