//! Machine-readable run reports — the sink behind `repro --json <dir>`.
//!
//! When a sink is active, [`crate::dispatch`] opens a report before an
//! experiment runs and finalizes it afterwards; experiment modules add
//! top-level keys with [`put`] as they aggregate their results. Rendering
//! goes through [`netsim::telemetry::Json`], whose sorted-key, fixed
//! float formatting makes a report a pure function of the run results —
//! and the runs themselves are pure functions of config + seed, so a
//! report is byte-identical across `REPRO_THREADS` settings (pinned by
//! `tests/json_report.rs` and the CI `artifact-determinism` job).
//!
//! With no sink active every call here is a cheap no-op, so experiment
//! code calls [`put`] unconditionally.

use netsim::telemetry::Json;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Collector state behind the process-wide lock. `current` only lives
/// between `begin` and `finish`, which `dispatch` calls from one thread;
/// worker threads never touch the collector.
struct State {
    dir: Option<PathBuf>,
    trace_dir: Option<PathBuf>,
    dash_dir: Option<PathBuf>,
    capture: bool,
    current: Option<Vec<(String, Json)>>,
    current_id: Option<String>,
    captured: Vec<(String, String)>,
}

static STATE: Mutex<State> = Mutex::new(State {
    dir: None,
    trace_dir: None,
    dash_dir: None,
    capture: false,
    current: None,
    current_id: None,
    captured: Vec::new(),
});

/// Enables report emission: every dispatched experiment writes
/// `<dir>/<id>.json`. Creates the directory if needed.
pub fn set_dir(dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    STATE.lock().unwrap().dir = Some(dir.to_path_buf());
    Ok(())
}

/// Is any sink (output directory or test capture) active?
pub fn enabled() -> bool {
    let s = STATE.lock().unwrap();
    s.dir.is_some() || s.capture
}

/// Enables Chrome-trace emission (`repro <id> --trace <dir>`): an
/// experiment that exports a causal trace writes
/// `<dir>/<id>.trace.json`. Creates the directory if needed.
pub fn set_trace_dir(dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    STATE.lock().unwrap().trace_dir = Some(dir.to_path_buf());
    Ok(())
}

/// Is a Chrome-trace sink active? Experiments gate their (serial)
/// trace-producing attribution runs on this where the trace is the only
/// consumer.
pub fn trace_enabled() -> bool {
    STATE.lock().unwrap().trace_dir.is_some()
}

/// Writes the dispatched experiment's Chrome trace to
/// `<trace dir>/<id>.trace.json` (no-op without a trace sink). The
/// render is a pure function of the run results and experiments export
/// from the dispatch thread, so the file is byte-identical across
/// `REPRO_THREADS` settings (the CI `artifact-determinism` job pins this).
pub fn put_trace(trace: &Json) {
    let s = STATE.lock().unwrap();
    let (Some(dir), Some(id)) = (&s.trace_dir, &s.current_id) else {
        return;
    };
    let path = dir.join(format!("{id}.trace.json"));
    if let Err(e) = std::fs::write(&path, trace.render()) {
        eprintln!("report: cannot write {}: {e}", path.display());
    }
}

/// Enables dashboard emission (`repro <id> --dash <dir>`): an experiment
/// that renders a dashboard writes `<dir>/<id>.html`. Creates the
/// directory if needed.
pub fn set_dash_dir(dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    STATE.lock().unwrap().dash_dir = Some(dir.to_path_buf());
    Ok(())
}

/// Is a dashboard sink active? Experiments gate their (serial)
/// dashboard-producing representative runs on this.
pub fn dash_enabled() -> bool {
    STATE.lock().unwrap().dash_dir.is_some()
}

/// Writes the dispatched experiment's dashboard to `<dash dir>/<id>.html`
/// (no-op without a dashboard sink). The render is a pure function of the
/// run results and experiments render from the dispatch thread, so the
/// file is byte-identical across `REPRO_THREADS` settings (the CI
/// `artifact-determinism` job pins this).
pub fn put_dash(dash: &netsim::telemetry::Dashboard) {
    let s = STATE.lock().unwrap();
    let (Some(dir), Some(id)) = (&s.dash_dir, &s.current_id) else {
        return;
    };
    let path = dir.join(format!("{id}.html"));
    if let Err(e) = std::fs::write(&path, dash.render()) {
        eprintln!("report: cannot write {}: {e}", path.display());
    }
}

/// Opens a report for the experiment about to run (no-op without a sink;
/// the experiment id is remembered either way so [`put_trace`] can name
/// its output file).
pub(crate) fn begin(id: &str) {
    let mut s = STATE.lock().unwrap();
    s.current_id = Some(id.to_string());
    if s.dir.is_some() || s.capture {
        s.current = Some(Vec::new());
    }
}

/// Adds (or replaces) one top-level key in the open report. No-op when
/// reporting is off, so experiments call it unconditionally.
pub fn put(key: &str, value: Json) {
    let mut s = STATE.lock().unwrap();
    if let Some(cur) = s.current.as_mut() {
        if let Some(slot) = cur.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            cur.push((key.to_string(), value));
        }
    }
}

/// Finalizes the open report: stamps `id` and `quick`, renders it, and
/// writes `<dir>/<id>.json` and/or stores it for [`capture`].
pub(crate) fn finish(id: &str, quick: bool) {
    let mut s = STATE.lock().unwrap();
    s.current_id = None;
    let Some(mut pairs) = s.current.take() else {
        return;
    };
    pairs.push(("id".to_string(), Json::from(id)));
    pairs.push(("quick".to_string(), Json::from(quick)));
    let rendered = Json::Obj(pairs).render();
    if let Some(dir) = &s.dir {
        let path = dir.join(format!("{id}.json"));
        if let Err(e) = std::fs::write(&path, &rendered) {
            eprintln!("report: cannot write {}: {e}", path.display());
        }
    }
    if s.capture {
        s.captured.push((id.to_string(), rendered));
    }
}

/// Drops the open report (unknown experiment id).
pub(crate) fn discard() {
    let mut s = STATE.lock().unwrap();
    s.current = None;
    s.current_id = None;
}

/// Runs experiment `id` with in-memory capture and returns its rendered
/// report — the hook the determinism tests compare across
/// `REPRO_THREADS` settings. Returns `None` for unknown ids.
pub fn capture(id: &str, quick: bool) -> Option<String> {
    {
        let mut s = STATE.lock().unwrap();
        s.capture = true;
        s.captured.clear();
    }
    let known = crate::dispatch(id, quick);
    let mut s = STATE.lock().unwrap();
    s.capture = false;
    let out = s
        .captured
        .iter()
        .find(|(i, _)| i == id)
        .map(|(_, r)| r.clone());
    s.captured.clear();
    if known {
        out
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_sink_and_unknown_ids_are_harmless() {
        assert!(capture("fig99", true).is_none());
        // No sink configured after the capture window closes: put is a
        // no-op and nothing reports as enabled.
        put("orphan", Json::from(1u64));
        assert!(!enabled());
    }
}
