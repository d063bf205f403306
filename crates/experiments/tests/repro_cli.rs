//! The `repro <id>...` exit-code contract, driven through the real
//! binary: 0 when every experiment ran and every requested artifact was
//! written, 1 when an artifact could not be written (the rest still
//! are), 2 for an invocation that names nothing to run or sets a bad
//! `REPRO_THREADS`.

use std::path::PathBuf;
use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-cli-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn an_unwritable_artifact_fails_the_run_but_not_the_other_artifacts() {
    let dir = tmp_dir("unwritable");
    // Directories squatting on two of the three output file names.
    std::fs::create_dir_all(dir.join("fig5.json")).unwrap();
    std::fs::create_dir_all(dir.join("fig7.html")).unwrap();
    let out = repro()
        .args(["fig5", "fig7", "--quick", "--json"])
        .arg(&dir)
        .arg("--dash")
        .arg(&dir)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "a missing artifact is a failure"
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
    assert_eq!(errors.len(), 2, "one line per file:\n{stderr}");
    assert!(errors[0].contains("fig5.json") && errors[1].contains("fig7.html"));
    // Both experiments ran and the writable artifact was written.
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("=== fig5:") && stdout.contains("=== fig7:"));
    let report = std::fs::read_to_string(dir.join("fig7.json")).unwrap();
    assert!(report.contains("\"id\": \"fig7\""));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flags_without_an_experiment_id_are_a_usage_error() {
    let dir = tmp_dir("noid");
    let quick = repro().arg("--quick").output().unwrap();
    assert_eq!(quick.status.code(), Some(2));
    let json = repro().arg("--json").arg(&dir).output().unwrap();
    assert_eq!(json.status.code(), Some(2));
    assert!(!dir.exists(), "nothing ran, nothing was created");
    for out in [quick, json] {
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("no experiment id given"), "{stderr}");
        assert!(stderr.contains("usage:"), "{stderr}");
    }
}

#[test]
fn asking_for_help_is_not_an_error() {
    for args in [&[][..], &["help"][..]] {
        let out = repro().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "repro {args:?}");
        assert!(String::from_utf8(out.stderr).unwrap().contains("usage:"));
    }
}

#[test]
fn list_prints_the_table_in_order() {
    let out = repro().arg("list").output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let listed: Vec<&str> = stdout.lines().collect();
    let table = experiments::ALL.iter().chain(experiments::EXT);
    let ids: Vec<&str> = table.map(|row| row.0).collect();
    assert_eq!(listed, ids);
    assert_eq!(listed.len(), 31);
}

/// The banner comes from the experiment's table row, not from the
/// experiment: every cheap (closed-form) id prints its row's title.
#[test]
fn cheap_experiments_print_their_banner_from_the_table() {
    let cheap = ["fig1", "fig2", "fig5", "fig6", "fig7", "fig14", "sec4"];
    let out = repro().args(cheap).arg("--quick").output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let banners: Vec<&str> = stdout.lines().filter(|l| l.starts_with("=== ")).collect();
    let expected: Vec<String> = cheap
        .iter()
        .map(|id| {
            let row = experiments::ALL.iter().find(|row| row.0 == *id).unwrap();
            format!("=== {id}: {} ===", row.1)
        })
        .collect();
    assert_eq!(banners, expected);
}

/// A bad `REPRO_THREADS` is rejected before anything runs: by an id that
/// never fans out, ahead of one that does, and by the chaos campaign.
#[test]
fn a_bad_thread_count_fails_before_anything_runs() {
    for args in [&["fig1"][..], &["fig1", "fig3"], &["chaos", "--cases", "1"]] {
        let out = repro()
            .args(args)
            .arg("--quick")
            .env("REPRO_THREADS", "abc")
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "repro {args:?}");
        assert!(out.stdout.is_empty(), "repro {args:?} ran something");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.starts_with("error: REPRO_THREADS"), "{stderr}");
        assert_eq!(stderr.lines().count(), 1, "one line: {stderr}");
    }
}
