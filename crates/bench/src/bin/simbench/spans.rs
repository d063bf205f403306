//! The benchmark's own span recorder: spans are opened and closed from
//! benchmark code around calls into each layer, kept in memory, and
//! written out once at exit. Nothing inside `netsim` is instrumented.

use netsim::telemetry::Json;
use std::time::Instant;

/// One recorded span. `parent` indexes the recorder's span list.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Distinguishes repeated spans of one name (`run.slice[3]`).
    pub index: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Operations the span covered (kernels), 0 where it has no count.
    pub ops: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    fn label(&self) -> String {
        match self.index {
            Some(i) => format!("{}[{i}]", self.name),
            None => self.name.to_string(),
        }
    }
}

/// Span recorder. Disabled, `begin`/`end` are one branch each, so the
/// untraced run executes the same code as the traced one.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str, index: Option<u32>) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            index,
            start_ns,
            end_ns: start_ns,
            parent,
            ops: 0,
        });
    }

    /// Closes the innermost open span, recording its operation count.
    pub fn end(&mut self, ops: u64) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("end() without a matching begin()");
        self.spans[id].end_ns = end_ns;
        self.spans[id].ops = ops;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        self.begin(name, None);
        let r = f(self);
        self.end(0);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.duration_ns();
            }
        }
        own
    }

    /// Durations in ms of the closed spans called `name`, in order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// The span file: name, start, end, parent id, self time, op count.
    pub fn to_json(&self) -> Json {
        let own = self.self_times_ns();
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj(vec![
                        ("id", Json::UInt(id as u64)),
                        ("name", Json::Str(s.label())),
                        ("start_ns", Json::UInt(s.start_ns)),
                        ("end_ns", Json::UInt(s.end_ns)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                        ),
                        ("self_ns", Json::UInt(own[id])),
                        ("ops", Json::UInt(s.ops)),
                    ])
                })
                .collect(),
        )
    }
}
