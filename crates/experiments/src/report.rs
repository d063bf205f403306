//! Run artifacts — the sinks behind `repro --json|--trace|--dash <dir>`
//! (one [`Artifact`] each, one [`write()`] path) and the collector of the
//! machine-readable run report.
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

use netsim::telemetry::{Dashboard, Json};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The three files a dispatched experiment can leave behind, each with
/// one `repro` flag naming its output directory and one sink here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Artifact {
    /// `--json <dir>`: the machine-readable report, `<dir>/<id>.json`,
    /// finalized after every dispatched experiment.
    Report,
    /// `--trace <dir>`: a Chrome trace-event file,
    /// `<dir>/<id>.trace.json`, from experiments that export one.
    Trace,
    /// `--dash <dir>`: a single-file HTML dashboard, `<dir>/<id>.html`,
    /// from experiments that render one.
    Dash,
}

/// Each artifact's flag and file extension, indexed by [`Artifact`].
const KINDS: [(Artifact, &str, &str); 3] = [
    (Artifact::Report, "--json", "json"),
    (Artifact::Trace, "--trace", "trace.json"),
    (Artifact::Dash, "--dash", "html"),
];

impl Artifact {
    /// The artifact whose output directory `flag` names.
    pub fn from_flag(flag: &str) -> Option<Artifact> {
        KINDS.iter().find(|k| k.1 == flag).map(|k| k.0)
    }
}

/// Collector state behind the process-wide lock. `current` only lives
/// between `begin` and `finish`, which `dispatch` calls from one thread;
/// worker threads never touch the collector.
struct State {
    /// Output directory of each [`Artifact`], indexed by it.
    dirs: [Option<PathBuf>; 3],
    /// Requested files that could not be written.
    failed_writes: usize,
    capture: bool,
    current: Option<Vec<(String, Json)>>,
    current_id: Option<String>,
    captured: Vec<(String, String)>,
}

static STATE: Mutex<State> = Mutex::new(State {
    dirs: [None, None, None],
    failed_writes: 0,
    capture: false,
    current: None,
    current_id: None,
    captured: Vec::new(),
});

impl State {
    /// Writes the dispatched experiment's `kind` artifact if that sink is
    /// on: `render` gets the buffered file and writes the document into
    /// it piece by piece, so no copy of it is held. A file that cannot be
    /// written is an `error:` line on stderr, remembered for
    /// [`failed_writes`]; the run goes on, so the other artifacts are
    /// still produced.
    fn write(&mut self, kind: Artifact, render: impl FnOnce(&mut dyn Write) -> io::Result<()>) {
        let (Some(dir), Some(id)) = (&self.dirs[kind as usize], &self.current_id) else {
            return;
        };
        let path = dir.join(format!("{id}.{}", KINDS[kind as usize].2));
        let written = File::create(&path).and_then(|file| {
            let mut out = BufWriter::new(file);
            render(&mut out)?;
            // Dropping a BufWriter swallows the error of its last write.
            out.flush()
        });
        if let Err(e) = written {
            eprintln!("error: cannot write {}: {e}", path.display());
            self.failed_writes += 1;
        }
    }
}

/// Turns `kind`'s sink on: every dispatched experiment that produces the
/// artifact writes it under `dir`. Creates the directory if needed.
pub fn set_dir(kind: Artifact, dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    STATE.lock().unwrap().dirs[kind as usize] = Some(dir.to_path_buf());
    Ok(())
}

/// Is `kind` wanted? Experiments gate work whose only consumer is that
/// artifact (a serial representative run for the dashboard, per-run
/// telemetry for the report) on this. A test capture is a report sink.
pub fn enabled(kind: Artifact) -> bool {
    let s = STATE.lock().unwrap();
    s.dirs[kind as usize].is_some() || (kind == Artifact::Report && s.capture)
}

/// Writes the dispatched experiment's trace or dashboard (no-op without
/// that sink, and then `render` is never called — so whatever only it
/// needs should be built inside it). `render` writes into the buffered
/// file it is handed; it is a pure function of the run results and
/// experiments call this from the dispatch thread, so the file is
/// byte-identical across `REPRO_THREADS` settings (the CI
/// `artifact-determinism` job pins this).
pub fn write(kind: Artifact, render: impl FnOnce(&mut dyn Write) -> io::Result<()>) {
    STATE.lock().unwrap().write(kind, render);
}

/// Writes the dispatched experiment's dashboard (no-op without a `--dash`
/// sink, and then `build` is never called).
pub fn dashboard<'a>(build: impl FnOnce() -> Dashboard<'a>) {
    write(Artifact::Dash, |out| build().write_to(out));
}

/// How many requested artifacts could not be written so far; `repro`
/// exits 1 when any was not.
pub fn failed_writes() -> usize {
    STATE.lock().unwrap().failed_writes
}

/// Opens a report for the experiment about to run (no-op without a sink;
/// the experiment id is remembered either way so [`write()`] can name its
/// output file).
pub(crate) fn begin(id: &str) {
    let mut s = STATE.lock().unwrap();
    s.current_id = Some(id.to_string());
    if s.dirs[Artifact::Report as usize].is_some() || s.capture {
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

/// Finalizes the open report: stamps `id` and `quick`, and streams it to
/// `<dir>/<id>.json` and/or stores its rendering for [`capture`].
pub(crate) fn finish(id: &str, quick: bool) {
    let mut s = STATE.lock().unwrap();
    if let Some(mut pairs) = s.current.take() {
        pairs.push(("id".to_string(), Json::from(id)));
        pairs.push(("quick".to_string(), Json::from(quick)));
        let report = Json::Obj(pairs);
        if s.capture {
            s.captured.push((id.to_string(), report.render()));
        }
        s.write(Artifact::Report, |out| report.write_to(out));
    }
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
        assert!(!enabled(Artifact::Report));
    }
}
