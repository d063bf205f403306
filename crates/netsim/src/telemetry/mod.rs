//! Telemetry subsystem: the simulator's own metrics, HDR-style histograms,
//! flight recorder, deterministic JSON, and an optional event-loop profiler.
//!
//! The paper's evaluation (§5) is measurement: per-flow throughput,
//! pause-frame counts, queue-depth CDFs, mark/drop/retransmit tallies.
//! This module family makes every run produce those measurables
//! natively, with hot-path costs suitable for the packet pipeline:
//!
//! * [`registry`] — [`Metrics`]: the two convergence counters behind
//!   `Copy` handles and the three histograms the packet pipeline
//!   samples, each update one array index or one field (no hashing, no
//!   allocation per event).
//! * [`hist`] — the allocation-free [`Histogram`] behind those metrics:
//!   65 log2 buckets plus exact count/sum/min/max.
//! * [`recorder`] — the [`FlightRecorder`]: a bounded ring of recent
//!   trace events per node, snapshotted automatically when the sanitize
//!   auditor records a violation or a QP is torn down.
//! * [`Json`] — the workspace's one deterministic JSON value, renderer
//!   (sorted keys, fixed float formatting) and parser, re-exported from
//!   the dependency-free `simjson` leaf crate that `simlint` shares;
//!   used for the experiments binary's `--json` run reports.
//! * [`profile`] — the event-loop self-profiler behind
//!   `--features profile`; every call is an inlined no-op without it.
//! * [`spans`] — span-based causal tracing: per-flow latency
//!   attribution (the FCT decomposition identity), the
//!   pause-propagation congestion tree, and a deterministic Chrome
//!   trace-event exporter. Disabled, it costs one branch per hook.
//! * [`timeline`] — bounded-memory time-series tracks with
//!   hierarchical downsampling: when a track fills its point budget,
//!   adjacent buckets merge and resolution halves, so memory is
//!   `O(budget)` for any horizon.
//! * [`sampler`] — the periodic [`Sampler`] behind
//!   `Network::enable_sampling`: taps bound to timeline tracks, the tick
//!   that records them, and the look-ups and charts that read them back.
//! * [`dash`] — a dependency-free HTML + inline-SVG dashboard emitter
//!   rendering timelines and span attribution to a single
//!   deterministic file (`repro <id> --dash <dir>`).
//!
//! The simulator owns one [`Metrics`] per network (see
//! `Network::telemetry_report`). A counter that a switch, flow or the
//! fault engine keeps is never stored here a second time:
//! `network::report::COUNTERS` lists each reported counter with the
//! owner it reads, and `Network::metric` and the report read it there.
//!
//! ```
//! use netsim::telemetry::Metrics;
//!
//! let mut m = Metrics::standard();
//! let h = m.h; // Copy handles: capture once, use on the hot path
//! m.inc(h.convergence_checks);
//! m.queue_depth_bytes.observe(4096);
//! assert_eq!(m.queue_depth_bytes.count(), 1);
//! ```

pub(crate) mod dash;
pub(crate) mod hist;
pub(crate) mod profile;
pub(crate) mod recorder;
pub(crate) mod registry;
pub(crate) mod sampler;
pub mod spans;
pub mod timeline;

pub use dash::{Dashboard, Series};
pub use hist::Histogram;
pub use profile::Profiler;
pub use recorder::{FlightDump, FlightRecorder};
pub use registry::{CounterId, Metrics, WellKnown};
pub use sampler::{Sampler, SamplerConfig};
pub use simjson::{fmt_f64, Json};
pub use spans::{
    ChromeTrace, CongestionTree, FlowSpan, HopSpan, PauseEdge, SpanCompletion, SpanState, Spans,
    TreeEdge, TreeRoot, TreeVictim, NUM_SPAN_STATES,
};
pub use timeline::{BucketView, Timeline, TimelineSet, TrackId, TrackKind};
