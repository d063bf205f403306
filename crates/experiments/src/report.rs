//! A run of `repro` as a value: its settings and the artifacts it
//! leaves behind.
//!
//! `repro`'s `main` reads `--quick`, the `--json|--trace|--dash <dir>`
//! sinks (one [`Artifact`] each, one [`Run::write`] path) and
//! `REPRO_THREADS` once, into one [`Run`], and hands it to every
//! experiment it dispatches. [`crate::dispatch`] runs an experiment's
//! row on it; the experiment adds top-level report keys with
//! [`Run::put`] as it aggregates its results, and dispatch returns the
//! finished report and, with a `--json` sink, writes it to
//! `<dir>/<id>.json`. Rendering goes
//! through [`netsim::telemetry::Json`], whose sorted-key, fixed float
//! formatting makes a report a pure function of the run results — and
//! the runs themselves are pure functions of config + seed, so a report
//! is byte-identical at every thread count (pinned by
//! `tests/json_report.rs` and the CI `artifact-determinism` job).
//!
//! Nothing here is global: a test builds its own `Run` with the thread
//! count and sinks it wants.

use crate::common::{CcChoice, RunScale};
use crate::scenarios::{attribution, AttributionResult};
use netsim::telemetry::{Dashboard, Json};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::rc::Rc;

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

/// One invocation's settings, sinks and open report. Experiments run on
/// the dispatch thread with `&mut Run`; worker threads never see it.
pub struct Run {
    /// `--quick`: shorter runs and fewer seeds (see [`Run::scale`]).
    pub quick: bool,
    /// How many worker threads [`crate::runner::par_map`] may use.
    pub threads: usize,
    /// Output directory of each [`Artifact`], indexed by it.
    dirs: [Option<PathBuf>; 3],
    /// Requested files that could not be written.
    failed_writes: usize,
    /// The experiment being dispatched; it names the files.
    id: &'static str,
    /// The open report's top-level keys, in insertion order.
    pairs: Vec<(String, Json)>,
    /// The attribution passes run so far, by scheme (its `Debug` form):
    /// Figures 4 and 9 run one each, and `ext-attribution` prints both.
    attributions: Vec<(String, Rc<AttributionResult>)>,
}

impl Run {
    /// A run with no sink.
    pub fn new(quick: bool, threads: usize) -> Run {
        Run {
            quick,
            threads,
            dirs: [None, None, None],
            failed_writes: 0,
            id: "",
            pairs: Vec::new(),
            attributions: Vec::new(),
        }
    }

    /// The [`attribution`] pass of `cc` at this run's scale: simulated on
    /// the first request, then shared by every experiment of the run that
    /// asks for the same scheme.
    pub fn attribution(&mut self, cc: CcChoice) -> Rc<AttributionResult> {
        let key = format!("{cc:?}");
        if let Some((_, att)) = self.attributions.iter().find(|(k, _)| *k == key) {
            return Rc::clone(att);
        }
        let att = Rc::new(attribution(cc, self.scale()));
        self.attributions.push((key, Rc::clone(&att)));
        att
    }

    /// The run-length knobs `--quick` picks.
    pub fn scale(&self) -> RunScale {
        RunScale { quick: self.quick }
    }

    /// Turns `kind`'s sink on: every dispatched experiment that produces
    /// the artifact writes it under `dir`. Creates the directory if
    /// needed.
    pub fn set_dir(&mut self, kind: Artifact, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        self.dirs[kind as usize] = Some(dir.to_path_buf());
        Ok(())
    }

    /// Is `kind`'s sink on? Experiments gate work whose only consumer is
    /// that file (a serial representative run for the dashboard, per-run
    /// telemetry for the `--json` report) on this.
    pub fn enabled(&self, kind: Artifact) -> bool {
        self.dirs[kind as usize].is_some()
    }

    /// How many requested artifacts could not be written so far; `repro`
    /// exits 1 when any was not.
    pub fn failed_writes(&self) -> usize {
        self.failed_writes
    }

    /// Adds (or replaces) one top-level key in the open report.
    pub fn put(&mut self, key: &str, value: Json) {
        if let Some(slot) = self.pairs.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            self.pairs.push((key.to_string(), value));
        }
    }

    /// Writes the dispatched experiment's `kind` artifact if that sink is
    /// on (and otherwise never calls `render` — so whatever only it needs
    /// should be built inside it). `render` gets the buffered file and
    /// writes the document into it piece by piece, so no copy of it is
    /// held; it is a pure function of the run results, so the file is
    /// byte-identical at every thread count. A file that cannot be
    /// written is an `error:` line on stderr, counted in
    /// [`Run::failed_writes`]; the run goes on, so the other artifacts
    /// are still produced.
    pub fn write(&mut self, kind: Artifact, render: impl FnOnce(&mut dyn Write) -> io::Result<()>) {
        let Some(dir) = &self.dirs[kind as usize] else {
            return;
        };
        let path = dir.join(format!("{}.{}", self.id, KINDS[kind as usize].2));
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

    /// Writes the dispatched experiment's dashboard (no-op without a
    /// `--dash` sink, and then `build` is never called).
    pub fn dashboard<'a>(&mut self, build: impl FnOnce() -> Dashboard<'a>) {
        self.write(Artifact::Dash, |out| build().write_to(out));
    }

    /// Runs experiment `id`'s entry point, then finishes its report:
    /// stamps `id` and `quick`, writes `<dir>/<id>.json` when that sink is
    /// on and returns the report.
    pub(crate) fn dispatched(&mut self, id: &'static str, entry: fn(&mut Run)) -> Json {
        self.id = id;
        entry(self);
        let mut pairs = std::mem::take(&mut self.pairs);
        pairs.push(("id".to_string(), Json::from(id)));
        pairs.push(("quick".to_string(), Json::from(self.quick)));
        let report = Json::Obj(pairs);
        self.write(Artifact::Report, |out| report.write_to(out));
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_sink_and_unknown_ids_are_harmless() {
        let mut run = Run::new(true, 1);
        assert!(crate::dispatch(&mut run, "fig99").is_none());
        // No sink: nothing reports as enabled, and a report is only
        // returned, never written.
        assert!([Artifact::Report, Artifact::Trace, Artifact::Dash]
            .into_iter()
            .all(|kind| !run.enabled(kind)));
        let report = crate::dispatch(&mut run, "fig5").expect("fig5 is a known id");
        assert_eq!(report.get("quick"), Some(&Json::from(true)));
        assert_eq!(run.failed_writes(), 0);
    }
}
