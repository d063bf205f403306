//! Span-based causal tracing: per-flow latency attribution, the
//! pause-propagation graph, and a Chrome trace-event exporter.
//!
//! The paper's headline pathologies — PFC unfairness (Fig. 3), the victim
//! flow (Fig. 4), congestion spreading — are *causal* questions: why was
//! this flow slow, and who paused whom?  The flat trace ring and the
//! run's counters answer aggregate questions only.  This module keeps,
//! per flow, a timeline of **attributed states** as seen from the
//! sender's NIC:
//!
//! * [`SpanState::Serializing`] — the flow's packet occupies the NIC port.
//! * [`SpanState::Queued`] — the flow has data and is eligible, but the
//!   NIC is busy with another frame (or another flow won arbitration).
//! * [`SpanState::PauseBlocked`] — the flow's priority class is paused at
//!   the NIC; the track remembers the origin port of the PAUSE.
//! * [`SpanState::Throttled`] — the rate limiter (or the go-back-N
//!   window) is holding the flow back; the track remembers how many CNPs
//!   the flow had absorbed when the span opened.
//! * [`SpanState::Retransmitting`] — like `Serializing`, but the frame on
//!   the wire is a go-back-N retransmission.
//! * [`SpanState::TimedOut`] — time re-attributed to an RTO stall when
//!   the retransmission timer fires.
//! * [`SpanState::Idle`] — none of the above: no send-side work, which
//!   for an active flow means the bytes are in flight (their per-hop
//!   residency is itemized separately by [`HopSpan`]s).
//!
//! State transitions only ever happen inside host event handlers, so the
//! timeline is exact: every attributed interval starts and ends on an
//! event boundary.  The accumulators telescope, giving the **FCT
//! decomposition identity**
//!
//! ```text
//! serializing + queued + pause_blocked + throttled
//!             + retransmitting + timed_out + idle  ==  fct
//! ```
//!
//! checked on every message-completion by the sanitize auditor
//! (`ViolationKind::SpanAccounting`).  Two cold folds sit on top:
//! [`Spans::congestion_tree`] collapses PAUSE/RESUME edges into a
//! per-run tree naming root port(s) and victim flows, and
//! [`Spans::chrome_trace`] renders everything as deterministic Chrome
//! trace-event JSON (loadable in Perfetto / `about://tracing`).
//!
//! Disabled (the default), the whole layer is one branch per hook —
//! mirroring `trace::Tracer`.

use crate::event::{NodeId, PortId};
use crate::packet::FlowId;
use crate::telemetry::Json;
use crate::units::{Duration, Time};
use simjson::Writer;
use std::collections::BTreeMap;
use std::io;

/// What a flow's send side is doing right now, as attributed by the NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum SpanState {
    /// No send-side work pending; for an unfinished message this is
    /// in-flight time (itemized per hop by [`HopSpan`]s).
    Idle = 0,
    /// The flow's frame occupies the NIC port (first transmission).
    Serializing = 1,
    /// Data is eligible but waiting for the NIC port or arbitration.
    Queued = 2,
    /// The flow's priority class is PAUSEd at the NIC.
    PauseBlocked = 3,
    /// The rate limiter or the go-back-N window is holding the flow.
    Throttled = 4,
    /// The flow's frame occupies the NIC port (go-back-N resend).
    Retransmitting = 5,
    /// Stall time re-attributed when the retransmission timer fired.
    TimedOut = 6,
}

/// Number of [`SpanState`] variants (length of per-flow accumulators).
pub const NUM_SPAN_STATES: usize = 7;

impl SpanState {
    /// All states, in accumulator-index order.
    pub const ALL: [SpanState; NUM_SPAN_STATES] = [
        SpanState::Idle,
        SpanState::Serializing,
        SpanState::Queued,
        SpanState::PauseBlocked,
        SpanState::Throttled,
        SpanState::Retransmitting,
        SpanState::TimedOut,
    ];

    /// Stable snake_case name (used in reports and trace exports).
    pub fn name(self) -> &'static str {
        match self {
            SpanState::Idle => "idle",
            SpanState::Serializing => "serializing",
            SpanState::Queued => "queued",
            SpanState::PauseBlocked => "pause_blocked",
            SpanState::Throttled => "throttled",
            SpanState::Retransmitting => "retransmitting",
            SpanState::TimedOut => "timed_out",
        }
    }
}

/// One closed attributed interval in a flow's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSpan {
    /// The attributed state.
    pub state: SpanState,
    /// Interval start (inclusive).
    pub start: Time,
    /// Interval end (exclusive).
    pub end: Time,
    /// State-specific detail: for [`SpanState::PauseBlocked`] the origin
    /// node id of the blocking PAUSE; for [`SpanState::Throttled`] the
    /// flow's CNP count when the span opened; otherwise 0.
    pub detail: u64,
}

/// One data frame's residency at one hop: queue wait plus serialization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopSpan {
    /// The flow the frame belongs to.
    pub flow: FlowId,
    /// The node (host NIC or switch) that forwarded the frame.
    pub node: NodeId,
    /// The egress port on that node.
    pub port: PortId,
    /// When the frame entered the egress queue.
    pub enqueued: Time,
    /// When serialization onto the wire began.
    pub start: Time,
    /// When the last bit left the port.
    pub end: Time,
}

/// One PAUSE or RESUME frame, as a directed edge of the propagation graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PauseEdge {
    /// When the frame was sent.
    pub at: Time,
    /// The node that sent the PAUSE/RESUME.
    pub from: NodeId,
    /// The ingress port whose occupancy triggered it.
    pub from_port: PortId,
    /// The upstream neighbour being paused/resumed.
    pub to: NodeId,
    /// The neighbour's port on this link.
    pub to_port: PortId,
    /// Priority class.
    pub class: u8,
    /// `true` for PAUSE, `false` for RESUME.
    pub pause: bool,
    /// `true` when injected by the malfunctioning-NIC fault, not by
    /// buffer pressure.
    pub storm: bool,
    /// Ingress occupancy (bytes) at the decision, 0 for storm frames.
    pub depth: u64,
    /// The PFC threshold in force at the decision, 0 for storm frames.
    pub threshold: u64,
}

/// Snapshot taken when a flow finishes a message: the decomposition the
/// sanitize auditor checks against the measured FCT.
#[derive(Debug, Clone, Copy)]
pub struct SpanCompletion {
    /// Completion time (last ACK processed).
    pub at: Time,
    /// When the track activated (first message arrival).
    pub started: Time,
    /// `at - started`: the flow's measured completion time.
    pub fct: Duration,
    /// Per-state attributed time, indexed by `SpanState as usize`.
    pub accum: [Duration; NUM_SPAN_STATES],
}

/// A root of the congestion tree: a port whose PAUSEs started a cascade.
#[derive(Debug, Clone, Copy)]
pub struct TreeRoot {
    /// Node owning the root port.
    pub node: NodeId,
    /// The ingress port that first crossed the PFC threshold.
    pub port: PortId,
    /// When its first PAUSE left.
    pub first_pause: Time,
    /// Total PAUSE frames it sent.
    pub pauses: u64,
    /// Whether any of them were fault-injected storm frames.
    pub storm: bool,
}

/// An aggregated directed edge of the congestion tree.
#[derive(Debug, Clone, Copy)]
pub struct TreeEdge {
    /// Pausing node.
    pub from: NodeId,
    /// Its ingress port.
    pub from_port: PortId,
    /// Paused upstream neighbour.
    pub to: NodeId,
    /// The neighbour's port.
    pub to_port: PortId,
    /// Priority class.
    pub class: u8,
    /// PAUSE frames on this edge.
    pub pauses: u64,
    /// RESUME frames on this edge.
    pub resumes: u64,
    /// First PAUSE timestamp.
    pub first_pause: Time,
    /// Last PAUSE/RESUME timestamp.
    pub last: Time,
    /// Whether any frame was storm-injected.
    pub storm: bool,
    /// Peak ingress occupancy seen on PAUSE decisions.
    pub(crate) peak_depth: u64,
}

/// A victim flow: one that spent time pause-blocked, with the last
/// culprit port.
#[derive(Debug, Clone, Copy)]
pub struct TreeVictim {
    /// The blocked flow.
    pub flow: FlowId,
    /// Total time its class was paused at its NIC.
    pub(crate) pause_blocked: Duration,
    /// Origin of the last PAUSE that blocked it, when known.
    pub origin: Option<(NodeId, PortId)>,
}

/// The folded pause-propagation graph of one run.
#[derive(Debug, Clone, Default)]
pub struct CongestionTree {
    /// Ports whose first PAUSE preceded any PAUSE *received* by their
    /// node: the places congestion genuinely originated.
    pub roots: Vec<TreeRoot>,
    /// All who-paused-whom edges, aggregated per (from, port, to, port,
    /// class) and sorted.
    pub edges: Vec<TreeEdge>,
    /// Flows with nonzero pause-blocked time, by ascending flow id.
    pub victims: Vec<TreeVictim>,
}

impl CongestionTree {
    /// Deterministic JSON form (keys sorted by the renderer).
    pub fn to_json(&self) -> Json {
        let roots = self
            .roots
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("node", Json::from(r.node.0)),
                    ("port", Json::from(r.port.0)),
                    ("first_pause_us", Json::from(r.first_pause.as_micros_f64())),
                    ("pauses", Json::from(r.pauses)),
                    ("storm", Json::from(r.storm)),
                ])
            })
            .collect();
        let edges = self
            .edges
            .iter()
            .map(|e| {
                Json::obj(vec![
                    ("from_node", Json::from(e.from.0)),
                    ("from_port", Json::from(e.from_port.0)),
                    ("to_node", Json::from(e.to.0)),
                    ("to_port", Json::from(e.to_port.0)),
                    ("class", Json::from(e.class as u64)),
                    ("pauses", Json::from(e.pauses)),
                    ("resumes", Json::from(e.resumes)),
                    ("first_pause_us", Json::from(e.first_pause.as_micros_f64())),
                    ("last_us", Json::from(e.last.as_micros_f64())),
                    ("storm", Json::from(e.storm)),
                    ("peak_depth_bytes", Json::from(e.peak_depth)),
                ])
            })
            .collect();
        let victims = self
            .victims
            .iter()
            .map(|v| {
                let mut o = Json::obj(vec![
                    ("flow", Json::from(v.flow.0)),
                    (
                        "pause_blocked_us",
                        Json::from(v.pause_blocked.as_micros_f64()),
                    ),
                ]);
                if let Some((n, p)) = v.origin {
                    o.push("origin_node", Json::from(n.0));
                    o.push("origin_port", Json::from(p.0));
                }
                o
            })
            .collect();
        Json::obj(vec![
            ("roots", Json::Arr(roots)),
            ("edges", Json::Arr(edges)),
            ("victims", Json::Arr(victims)),
        ])
    }
}

/// Per-flow timeline state (one per tracked flow).
#[derive(Debug, Clone)]
struct FlowTrack {
    /// First activation (first non-idle observation): FCT epoch.
    started: Time,
    /// Current attributed state.
    state: SpanState,
    /// When the current open interval began.
    since: Time,
    /// Detail value of the current open interval.
    detail: u64,
    /// Settled per-state time; telescopes to `settle_time - started`.
    accum: [Duration; NUM_SPAN_STATES],
    /// Closed spans (bounded by the configured capacity; contiguous
    /// same-state spans are merged). Drops never affect `accum`.
    log: Vec<FlowSpan>,
    /// Origin of the most recent PAUSE observed blocking this flow.
    pause_origin: Option<(NodeId, PortId)>,
    /// Whether the next serialization is a go-back-N resend.
    retx_pending: bool,
    /// Snapshot of the latest message completion.
    completion: Option<SpanCompletion>,
}

impl FlowTrack {
    fn new(now: Time, state: SpanState, detail: u64) -> FlowTrack {
        FlowTrack {
            started: now,
            state,
            since: now,
            detail,
            accum: [Duration::ZERO; NUM_SPAN_STATES],
            // simlint: allow(hot-alloc) one empty Vec per flow start, not per event
            log: Vec::new(),
            pause_origin: None,
            retx_pending: false,
            completion: None,
        }
    }
}

/// Flow-id indices above this are treated as untrackable (guards
/// sentinel ids like `FlowId(u64::MAX)` on control packets).
const MAX_TRACKED_FLOWS: usize = 1 << 20;

/// The causal-tracing recorder owned by the simulation context.
///
/// Disabled by default; every hot-path hook checks [`Spans::is_enabled`]
/// first, so a run that never calls [`Spans::enable`] pays one branch
/// per hook and nothing else.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    enabled: bool,
    /// Per-flow closed-span log capacity; hop spans and pause edges are
    /// each bounded by 64× this.
    cap: usize,
    flows: Vec<Option<FlowTrack>>,
    hops: Vec<HopSpan>,
    edges: Vec<PauseEdge>,
    dropped: u64,
}

impl Spans {
    /// The inert recorder every network starts with.
    pub fn disabled() -> Spans {
        Spans::default()
    }

    /// Enables causal tracing: up to `capacity` closed spans per flow
    /// and `64 * capacity` hop spans / pause edges overall.  Per-state
    /// accumulators (and therefore the FCT decomposition identity) are
    /// exact regardless of capacity; only itemized timeline entries are
    /// dropped, and [`Spans::dropped_spans`] counts them.
    ///
    /// A `capacity` of 0 means "no tracing": the recorder is reset to
    /// its disabled state (mirroring `Tracer::enable`).
    pub fn enable(&mut self, capacity: usize) {
        if capacity == 0 {
            *self = Spans::disabled();
            return;
        }
        *self = Spans {
            enabled: true,
            cap: capacity,
            ..Spans::disabled()
        };
    }

    /// Whether causal tracing is on. Hot-path hooks gate on this.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Timeline entries discarded because a capacity bound was hit.
    pub fn dropped_spans(&self) -> u64 {
        self.dropped
    }

    fn index(&mut self, flow: FlowId) -> Option<usize> {
        let Ok(idx) = usize::try_from(flow.0) else {
            self.dropped = self.dropped.saturating_add(1);
            return None;
        };
        if idx >= MAX_TRACKED_FLOWS {
            self.dropped = self.dropped.saturating_add(1);
            return None;
        }
        Some(idx)
    }

    fn push_log(log: &mut Vec<FlowSpan>, cap: usize, dropped: &mut u64, span: FlowSpan) {
        if let Some(last) = log.last_mut() {
            if last.state == span.state && last.end == span.start && last.detail == span.detail {
                last.end = span.end;
                return;
            }
        }
        if log.len() >= cap {
            *dropped = dropped.saturating_add(1);
            return;
        }
        log.push(span);
    }

    /// Records the flow's state as observed at the *end* of a host
    /// event.  `detail` is state-specific (see [`FlowSpan::detail`]);
    /// `origin` names the pausing port for [`SpanState::PauseBlocked`].
    ///
    /// An untracked flow observed `Idle` stays untracked: tracks
    /// activate on the first non-idle observation, which pins the FCT
    /// epoch to the first message arrival.
    #[inline]
    pub fn set_state(
        &mut self,
        flow: FlowId,
        state: SpanState,
        now: Time,
        detail: u64,
        origin: Option<(NodeId, PortId)>,
    ) {
        if !self.enabled {
            return;
        }
        let Some(idx) = self.index(flow) else {
            return;
        };
        if self.flows.len() <= idx || self.flows[idx].is_none() {
            if state == SpanState::Idle {
                return;
            }
            if self.flows.len() <= idx {
                self.flows.resize_with(idx + 1, || None);
            }
            self.flows[idx] = Some(FlowTrack::new(now, SpanState::Idle, 0));
        }
        let Some(t) = self.flows[idx].as_mut() else {
            return;
        };
        // A serialization observed while a resend is pending is the
        // resend itself.
        let state = if state == SpanState::Serializing && t.retx_pending {
            SpanState::Retransmitting
        } else {
            state
        };
        if state == SpanState::PauseBlocked && origin.is_some() {
            t.pause_origin = origin;
        }
        if t.state == state {
            return;
        }
        let held = now.saturating_since(t.since);
        t.accum[t.state as usize] += held;
        if held > Duration::ZERO {
            Spans::push_log(
                &mut t.log,
                self.cap,
                &mut self.dropped,
                FlowSpan {
                    state: t.state,
                    start: t.since,
                    end: now,
                    detail: t.detail,
                },
            );
        }
        t.state = state;
        t.since = now;
        t.detail = detail;
    }

    /// Notes that the NIC just cut a data frame for `flow`
    /// (`retx = true` for a go-back-N resend), ensuring the track
    /// exists before the end-of-event state observation.
    #[inline]
    pub(crate) fn on_data_tx(&mut self, flow: FlowId, retx: bool, now: Time) {
        if !self.enabled {
            return;
        }
        let Some(idx) = self.index(flow) else {
            return;
        };
        if self.flows.len() <= idx {
            self.flows.resize_with(idx + 1, || None);
        }
        let t = self.flows[idx].get_or_insert_with(|| FlowTrack::new(now, SpanState::Idle, 0));
        t.retx_pending = retx;
    }

    /// Re-attributes the open interval to [`SpanState::TimedOut`] when
    /// the retransmission timer fires: the stall since the last
    /// transition was RTO wait, whatever label it carried.
    #[inline]
    pub(crate) fn on_timeout(&mut self, flow: FlowId, now: Time) {
        if !self.enabled {
            return;
        }
        let Some(idx) = self.index(flow) else {
            return;
        };
        let Some(t) = self.flows.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        let held = now.saturating_since(t.since);
        t.accum[SpanState::TimedOut as usize] += held;
        if held > Duration::ZERO {
            Spans::push_log(
                &mut t.log,
                self.cap,
                &mut self.dropped,
                FlowSpan {
                    state: SpanState::TimedOut,
                    start: t.since,
                    end: now,
                    detail: 0,
                },
            );
        }
        t.since = now;
        t.detail = 0;
    }

    /// Settles the timeline at a message completion and snapshots the
    /// decomposition.  Returns `Some((fct, attributed_sum))` when the
    /// identity `Σ accum == at - started` does **not** hold — the
    /// caller routes that to the sanitize auditor.
    #[inline]
    pub(crate) fn on_complete(&mut self, flow: FlowId, now: Time) -> Option<(Duration, Duration)> {
        if !self.enabled {
            return None;
        }
        let idx = self.index(flow)?;
        let t = self.flows.get_mut(idx).and_then(Option::as_mut)?;
        let held = now.saturating_since(t.since);
        t.accum[t.state as usize] += held;
        if held > Duration::ZERO {
            Spans::push_log(
                &mut t.log,
                self.cap,
                &mut self.dropped,
                FlowSpan {
                    state: t.state,
                    start: t.since,
                    end: now,
                    detail: t.detail,
                },
            );
        }
        t.since = now;
        let fct = now.saturating_since(t.started);
        let sum: Duration = t.accum.iter().copied().sum();
        t.completion = Some(SpanCompletion {
            at: now,
            started: t.started,
            fct,
            accum: t.accum,
        });
        if sum == fct {
            None
        } else {
            Some((fct, sum))
        }
    }

    /// Records one data frame's residency at one hop.
    #[inline]
    pub fn record_hop(&mut self, hop: HopSpan) {
        if !self.enabled {
            return;
        }
        if self.hops.len() >= self.cap.saturating_mul(64) {
            self.dropped = self.dropped.saturating_add(1);
            return;
        }
        self.hops.push(hop);
    }

    /// Records one PAUSE/RESUME frame as a propagation-graph edge.
    #[inline]
    pub fn record_pause_edge(&mut self, edge: PauseEdge) {
        if !self.enabled {
            return;
        }
        if self.edges.len() >= self.cap.saturating_mul(64) {
            self.dropped = self.dropped.saturating_add(1);
            return;
        }
        self.edges.push(edge);
    }

    /// Test/diagnostic hook: skews a flow's idle accumulator so the
    /// decomposition identity is violated on its next completion.
    #[cfg(any(test, feature = "sanitize"))]
    pub fn debug_skew_accum(&mut self, flow: FlowId, by: Duration) {
        let Some(idx) = self.index(flow) else {
            return;
        };
        if let Some(t) = self.flows.get_mut(idx).and_then(Option::as_mut) {
            t.accum[SpanState::Idle as usize] += by;
        }
    }

    /// The flow's per-state attributed time as of `now` (settled
    /// accumulators plus the open interval). `None` if untracked.
    pub fn breakdown(&self, flow: FlowId, now: Time) -> Option<[Duration; NUM_SPAN_STATES]> {
        let idx = usize::try_from(flow.0).ok()?;
        let t = self.flows.get(idx)?.as_ref()?;
        let mut acc = t.accum;
        acc[t.state as usize] += now.saturating_since(t.since);
        Some(acc)
    }

    /// The flow's latest completion snapshot, if it finished a message.
    pub fn completion(&self, flow: FlowId) -> Option<SpanCompletion> {
        let idx = usize::try_from(flow.0).ok()?;
        self.flows.get(idx)?.as_ref()?.completion
    }

    /// Closed spans of one flow's timeline (bounded; see [`Spans::enable`]).
    pub fn flow_spans(&self, flow: FlowId) -> &[FlowSpan] {
        usize::try_from(flow.0)
            .ok()
            .and_then(|idx| self.flows.get(idx))
            .and_then(Option::as_ref)
            .map(|t| t.log.as_slice())
            .unwrap_or(&[])
    }

    /// All recorded per-hop residency spans, in simulation order.
    pub fn hops(&self) -> &[HopSpan] {
        &self.hops
    }

    /// All recorded PAUSE/RESUME edges, in simulation order.
    pub fn edges(&self) -> &[PauseEdge] {
        &self.edges
    }

    /// Folds the PAUSE/RESUME edges and the pause-blocked accumulators
    /// into the run's congestion tree (cold).
    ///
    /// A **root** is a port whose node sent its first PAUSE no later
    /// than the node first *received* one: pressure originated there
    /// rather than cascading into it.  Every flow with nonzero
    /// pause-blocked time is a **victim**, tagged with the origin of the
    /// last PAUSE that blocked it.
    pub fn congestion_tree(&self, now: Time) -> CongestionTree {
        #[derive(Default)]
        struct Agg {
            pauses: u64,
            resumes: u64,
            first_pause: Time,
            last: Time,
            storm: bool,
            peak_depth: u64,
        }
        let mut by_edge: BTreeMap<(usize, usize, usize, usize, u8), Agg> = BTreeMap::new();
        let mut first_rx: BTreeMap<usize, Time> = BTreeMap::new();
        for e in &self.edges {
            let key = (e.from.0, e.from_port.0, e.to.0, e.to_port.0, e.class);
            let a = by_edge.entry(key).or_insert_with(|| Agg {
                first_pause: Time::NEVER,
                ..Agg::default()
            });
            if e.pause {
                a.pauses += 1;
                if e.at < a.first_pause {
                    a.first_pause = e.at;
                }
                if e.depth > a.peak_depth {
                    a.peak_depth = e.depth;
                }
                let rx = first_rx.entry(e.to.0).or_insert(Time::NEVER);
                if e.at < *rx {
                    *rx = e.at;
                }
            } else {
                a.resumes += 1;
            }
            if e.at > a.last {
                a.last = e.at;
            }
            a.storm |= e.storm;
        }
        let mut edges = Vec::with_capacity(by_edge.len());
        let mut by_root: BTreeMap<(usize, usize), TreeRoot> = BTreeMap::new();
        for (&(from, from_port, to, to_port, class), a) in &by_edge {
            edges.push(TreeEdge {
                from: NodeId(from),
                from_port: PortId(from_port),
                to: NodeId(to),
                to_port: PortId(to_port),
                class,
                pauses: a.pauses,
                resumes: a.resumes,
                first_pause: a.first_pause,
                last: a.last,
                storm: a.storm,
                peak_depth: a.peak_depth,
            });
            if a.pauses == 0 {
                continue;
            }
            let received = first_rx.get(&from).copied().unwrap_or(Time::NEVER);
            if a.first_pause <= received {
                let r = by_root.entry((from, from_port)).or_insert(TreeRoot {
                    node: NodeId(from),
                    port: PortId(from_port),
                    first_pause: a.first_pause,
                    pauses: 0,
                    storm: false,
                });
                if a.first_pause < r.first_pause {
                    r.first_pause = a.first_pause;
                }
                r.pauses += a.pauses;
                r.storm |= a.storm;
            }
        }
        // Earliest origin first: `roots[0]` is *the* root cause.
        let mut roots: Vec<TreeRoot> = by_root.into_values().collect();
        roots.sort_by_key(|r| (r.first_pause, r.node.0, r.port.0));
        let mut victims = Vec::new();
        for (idx, slot) in self.flows.iter().enumerate() {
            let Some(t) = slot.as_ref() else {
                continue;
            };
            let mut acc = t.accum;
            acc[t.state as usize] += now.saturating_since(t.since);
            let blocked = acc[SpanState::PauseBlocked as usize];
            if blocked > Duration::ZERO {
                victims.push(TreeVictim {
                    flow: FlowId(idx as u64),
                    pause_blocked: blocked,
                    origin: t.pause_origin,
                });
            }
        }
        CongestionTree {
            roots,
            edges,
            victims,
        }
    }

    /// Everything recorded so far as Chrome trace-event JSON (cold): a
    /// borrowed view that renders straight from the recorder's own logs.
    pub fn chrome_trace(&self, now: Time) -> ChromeTrace<'_> {
        ChromeTrace { spans: self, now }
    }
}

/// The Chrome trace-event export of a [`Spans`] recorder, as of `now`.
///
/// One process (`pid` 0) holds one thread per flow; each node gets a
/// process (`pid = node + 1`) with one thread per port carrying hop
/// spans and PAUSE/RESUME instants.  Output is deterministic: it goes
/// through the workspace's one JSON writer and depends only on the
/// simulation, never on wall clock or thread count.
///
/// Nothing is copied out of the recorder: both outputs walk its flow
/// logs, hop spans and pause edges and stream one event at a time into
/// a [`simjson::Writer`], so rendering costs the output and nothing else.
#[derive(Debug, Clone, Copy)]
pub struct ChromeTrace<'a> {
    spans: &'a Spans,
    now: Time,
}

/// One trace event: what the walk of `ChromeTrace::for_each_event`
/// yields, for `emit_event` to render (and for the test-only tree
/// builder).
enum ChromeEvent<'a> {
    /// `ph: "M"` — names process `pid` (`thread: None`) or one of its
    /// threads. Process 0 is "flows" and its threads "flow N"; process
    /// `n + 1` is "node n" and its threads "port N".
    Meta { pid: usize, thread: Option<u64> },
    /// `ph: "X"` — one closed or still-open interval of a flow's timeline.
    Flow { flow: usize, span: FlowSpan },
    /// `ph: "X"` — one frame's serialization at one hop.
    Hop(&'a HopSpan),
    /// `ph: "i"` — one PAUSE/RESUME frame.
    Edge(&'a PauseEdge),
}

impl ChromeTrace<'_> {
    /// The trace's layout, as the [`Writer`] depth past which containers
    /// go on one line: the envelope object and its `traceEvents` array
    /// are indented, and each event is one line with no whitespace inside
    /// it, so `grep` and `diff` work event by event.
    pub const ONE_LINE_PAST: usize = 2;

    /// Renders the trace to a string (envelope indented, one event per
    /// line, sorted keys, one trailing newline), allocated once from the
    /// event count.
    pub fn render(&self) -> String {
        let mut w = Writer::new(Vec::with_capacity(self.size_hint()), Self::ONE_LINE_PAST);
        self.emit(&mut w);
        w.into_string()
    }

    /// Writes exactly the bytes of [`ChromeTrace::render`] to `sink`,
    /// one event at a time; hand it a buffered sink.
    pub fn write_to<W: io::Write + ?Sized>(&self, sink: &mut W) -> io::Result<()> {
        let mut w = Writer::new(sink, Self::ONE_LINE_PAST);
        self.emit(&mut w);
        w.finish().map(drop)
    }

    fn emit<W: io::Write>(&self, w: &mut Writer<W>) {
        // Reused for every name built from a number.
        let mut label = String::new();
        w.begin_object();
        w.key("displayTimeUnit");
        w.str("ms");
        w.key("dropped_spans");
        w.u64(self.spans.dropped);
        w.key("traceEvents");
        w.begin_array();
        self.for_each_event(|e| emit_event(w, &mut label, e));
        w.end_array();
        w.end_object();
    }

    /// Bytes to reserve so `render` does not regrow (and so copy) its
    /// buffer: how many events of each kind there are, times what one
    /// event line renders to with timestamps up to hundreds of
    /// milliseconds (flow span / hop / PAUSE-RESUME measured 88–108 /
    /// 104–125 / 171–177 bytes on the fig4 and fig9 `--quick` traces,
    /// simbench's `clos_dcqcn_observed` and `tests/render_alloc.rs`,
    /// thread names 78–81), plus room for the envelope and the
    /// port-thread names. A low guess costs one copy of the output, never
    /// a wrong byte.
    fn size_hint(&self) -> usize {
        let s = self.spans;
        // Per track: its thread name, its closed spans, its open one.
        let flow_events: usize = s.flows.iter().flatten().map(|t| t.log.len() + 2).sum();
        4096 + 115 * flow_events + 130 * s.hops.len() + 185 * s.edges.len()
    }

    /// The ports that carry a hop span or send a PAUSE/RESUME, by node,
    /// ascending: each becomes a named thread of its node's process.
    fn port_threads(&self) -> BTreeMap<usize, Vec<usize>> {
        let s = self.spans;
        let mut node_ports: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let hop_ports = s.hops.iter().map(|h| (h.node.0, h.port.0));
        let edge_ports = s.edges.iter().map(|e| (e.from.0, e.from_port.0));
        for (node, port) in hop_ports.chain(edge_ports) {
            let ports = node_ports.entry(node).or_default();
            if !ports.contains(&port) {
                ports.push(port);
            }
        }
        node_ports
            .values_mut()
            .for_each(|ports| ports.sort_unstable());
        node_ports
    }

    /// Visits every event in file order: metadata naming the flow
    /// threads and each node's port threads, then flow spans, hop spans
    /// and PAUSE/RESUME instants.
    fn for_each_event(&self, mut visit: impl FnMut(ChromeEvent<'_>)) {
        let s = self.spans;
        let meta = |pid, thread| ChromeEvent::Meta { pid, thread };
        visit(meta(0, None));
        for (idx, slot) in s.flows.iter().enumerate() {
            if slot.is_some() {
                visit(meta(0, Some(idx as u64)));
            }
        }
        for (node, ports) in self.port_threads() {
            visit(meta(node + 1, None));
            for p in ports {
                visit(meta(node + 1, Some(p as u64)));
            }
        }
        for (flow, slot) in s.flows.iter().enumerate() {
            let Some(t) = slot.as_ref() else {
                continue;
            };
            for &span in &t.log {
                visit(ChromeEvent::Flow { flow, span });
            }
            if self.now > t.since {
                let span = FlowSpan {
                    state: t.state,
                    start: t.since,
                    end: self.now,
                    detail: t.detail,
                };
                visit(ChromeEvent::Flow { flow, span });
            }
        }
        s.hops.iter().map(ChromeEvent::Hop).for_each(&mut visit);
        s.edges.iter().map(ChromeEvent::Edge).for_each(&mut visit);
    }
}

/// Writes one event object; `label` is scratch for names built from
/// numbers. Keys go out sorted — the writer asserts it.
fn emit_event<W: io::Write>(w: &mut Writer<W>, label: &mut String, event: ChromeEvent<'_>) {
    use std::fmt::Write as _;
    let uint = |w: &mut Writer<W>, key, v: u64| {
        w.key(key);
        w.u64(v);
    };
    let float = |w: &mut Writer<W>, key, v: f64| {
        w.key(key);
        w.f64(v);
    };
    let text = |w: &mut Writer<W>, key, v: &str| {
        w.key(key);
        w.str(v);
    };
    // The `dur`..`ts` run shared by both `ph: "X"` shapes.
    let complete = |w: &mut Writer<W>, name: &str, pid: usize, tid: u64, start: Time, end: Time| {
        float(w, "dur", end.saturating_since(start).as_micros_f64());
        text(w, "name", name);
        text(w, "ph", "X");
        uint(w, "pid", pid as u64);
        uint(w, "tid", tid);
        float(w, "ts", start.as_micros_f64());
    };
    label.clear();
    w.begin_object();
    w.key("args");
    w.begin_object();
    match event {
        ChromeEvent::Meta { pid, thread } => {
            let _ = match (pid, thread) {
                (0, None) => write!(label, "flows"),
                (0, Some(flow)) => write!(label, "flow {flow}"),
                (_, None) => write!(label, "node {}", pid - 1),
                (_, Some(port)) => write!(label, "port {port}"),
            };
            text(w, "name", label);
            w.end_object();
            let names = if thread.is_some() {
                "thread_name"
            } else {
                "process_name"
            };
            text(w, "name", names);
            text(w, "ph", "M");
            uint(w, "pid", pid as u64);
            uint(w, "tid", thread.unwrap_or(0));
        }
        ChromeEvent::Flow { flow, span } => {
            uint(w, "detail", span.detail);
            w.end_object();
            complete(w, span.state.name(), 0, flow as u64, span.start, span.end);
        }
        ChromeEvent::Hop(h) => {
            uint(w, "flow", h.flow.0);
            float(
                w,
                "queued_us",
                h.start.saturating_since(h.enqueued).as_micros_f64(),
            );
            w.end_object();
            let _ = write!(label, "tx flow {}", h.flow.0);
            complete(w, label, h.node.0 + 1, h.port.0 as u64, h.start, h.end);
        }
        ChromeEvent::Edge(e) => {
            uint(w, "class", u64::from(e.class));
            uint(w, "depth_bytes", e.depth);
            w.key("storm");
            w.bool(e.storm);
            uint(w, "threshold_bytes", e.threshold);
            uint(w, "to_node", e.to.0 as u64);
            uint(w, "to_port", e.to_port.0 as u64);
            w.end_object();
            text(w, "name", if e.pause { "PAUSE" } else { "RESUME" });
            text(w, "ph", "i");
            uint(w, "pid", e.from.0 as u64 + 1);
            text(w, "s", "t");
            uint(w, "tid", e.from_port.0 as u64);
            float(w, "ts", e.at.as_micros_f64());
        }
    }
    w.end_object();
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: FlowId = FlowId(3);

    #[test]
    fn disabled_recorder_is_inert() {
        let mut s = Spans::disabled();
        s.set_state(F, SpanState::Queued, Time::from_micros(1), 0, None);
        s.on_data_tx(F, false, Time::from_micros(1));
        assert!(!s.is_enabled());
        assert!(s.breakdown(F, Time::from_micros(2)).is_none());
    }

    #[test]
    fn enable_zero_stays_disabled() {
        let mut s = Spans::disabled();
        s.enable(0);
        assert!(!s.is_enabled());
        s.enable(8);
        assert!(s.is_enabled());
        s.enable(0);
        assert!(!s.is_enabled());
        s.set_state(F, SpanState::Queued, Time::ZERO, 0, None);
        assert!(s.breakdown(F, Time::from_micros(1)).is_none());
    }

    #[test]
    fn idle_does_not_activate_a_track() {
        let mut s = Spans::disabled();
        s.enable(16);
        s.set_state(F, SpanState::Idle, Time::from_micros(5), 0, None);
        assert!(s.breakdown(F, Time::from_micros(6)).is_none());
    }

    #[test]
    fn transitions_telescope_to_elapsed_time() {
        let mut s = Spans::disabled();
        s.enable(16);
        let t = Time::from_micros;
        s.set_state(F, SpanState::Queued, t(10), 0, None);
        s.set_state(F, SpanState::Serializing, t(13), 0, None);
        s.set_state(
            F,
            SpanState::PauseBlocked,
            t(20),
            7,
            Some((NodeId(7), PortId(2))),
        );
        s.set_state(F, SpanState::Idle, t(32), 0, None);
        let b = s.breakdown(F, t(40)).unwrap();
        assert_eq!(b[SpanState::Queued as usize], Duration::from_micros(3));
        assert_eq!(b[SpanState::Serializing as usize], Duration::from_micros(7));
        assert_eq!(
            b[SpanState::PauseBlocked as usize],
            Duration::from_micros(12)
        );
        assert_eq!(b[SpanState::Idle as usize], Duration::from_micros(8));
        let total: Duration = b.iter().copied().sum();
        assert_eq!(total, Duration::from_micros(30));
    }

    #[test]
    fn retx_pending_turns_serializing_into_retransmitting() {
        let mut s = Spans::disabled();
        s.enable(16);
        let t = Time::from_micros;
        s.on_data_tx(F, true, t(0));
        s.set_state(F, SpanState::Serializing, t(0), 0, None);
        s.set_state(F, SpanState::Idle, t(4), 0, None);
        let b = s.breakdown(F, t(4)).unwrap();
        assert_eq!(
            b[SpanState::Retransmitting as usize],
            Duration::from_micros(4)
        );
        assert_eq!(b[SpanState::Serializing as usize], Duration::ZERO);
    }

    #[test]
    fn completion_identity_holds_and_skew_is_detected() {
        let mut s = Spans::disabled();
        s.enable(16);
        let t = Time::from_micros;
        s.set_state(F, SpanState::Serializing, t(2), 0, None);
        s.set_state(F, SpanState::Idle, t(6), 0, None);
        assert_eq!(s.on_complete(F, t(9)), None);
        let c = s.completion(F).unwrap();
        assert_eq!(c.fct, Duration::from_micros(7));
        assert_eq!(c.accum.iter().copied().sum::<Duration>(), c.fct);
        // Corrupt an accumulator: the next completion must report the
        // mismatch for the sanitize auditor.
        s.debug_skew_accum(F, Duration::from_micros(1));
        s.set_state(F, SpanState::Serializing, t(10), 0, None);
        s.set_state(F, SpanState::Idle, t(12), 0, None);
        let got = s.on_complete(F, t(12));
        assert!(got.is_some());
        let (fct, sum) = got.unwrap();
        assert_eq!(sum, fct + Duration::from_micros(1));
    }

    #[test]
    fn timeout_reattributes_the_open_interval() {
        let mut s = Spans::disabled();
        s.enable(16);
        let t = Time::from_micros;
        s.set_state(F, SpanState::Serializing, t(0), 0, None);
        s.set_state(F, SpanState::Idle, t(3), 0, None);
        s.on_timeout(F, t(19));
        let b = s.breakdown(F, t(19)).unwrap();
        assert_eq!(b[SpanState::TimedOut as usize], Duration::from_micros(16));
        assert_eq!(b[SpanState::Idle as usize], Duration::ZERO);
    }

    #[test]
    fn log_capacity_bounds_and_counts_drops() {
        let mut s = Spans::disabled();
        s.enable(2);
        let t = Time::from_micros;
        // Alternate states so no merges happen.
        for i in 0..6u64 {
            let st = if i % 2 == 0 {
                SpanState::Queued
            } else {
                SpanState::Serializing
            };
            s.set_state(F, st, t(i), 0, None);
        }
        assert_eq!(s.flow_spans(F).len(), 2);
        assert!(s.dropped_spans() > 0);
    }

    #[test]
    fn sentinel_flow_ids_are_ignored() {
        let mut s = Spans::disabled();
        s.enable(4);
        s.set_state(FlowId(u64::MAX), SpanState::Queued, Time::ZERO, 0, None);
        assert!(s.breakdown(FlowId(u64::MAX), Time::ZERO).is_none());
        assert!(s.dropped_spans() > 0);
    }

    #[test]
    fn congestion_tree_finds_root_and_victim() {
        let mut s = Spans::disabled();
        s.enable(16);
        let t = Time::from_micros;
        // Switch 10 pauses switch 11 first; 11 then pauses host 12.
        let edge = |at, from: usize, to: usize, pause| PauseEdge {
            at,
            from: NodeId(from),
            from_port: PortId(1),
            to: NodeId(to),
            to_port: PortId(2),
            class: 3,
            pause,
            storm: false,
            depth: 200_000,
            threshold: 180_000,
        };
        s.record_pause_edge(edge(t(5), 10, 11, true));
        s.record_pause_edge(edge(t(9), 11, 12, true));
        s.record_pause_edge(edge(t(30), 10, 11, false));
        s.set_state(
            FlowId(0),
            SpanState::PauseBlocked,
            t(9),
            11,
            Some((NodeId(11), PortId(1))),
        );
        s.set_state(FlowId(0), SpanState::Idle, t(21), 0, None);
        let tree = s.congestion_tree(t(40));
        assert_eq!(tree.roots.len(), 1);
        assert_eq!(tree.roots[0].node, NodeId(10));
        assert_eq!(tree.roots[0].port, PortId(1));
        assert_eq!(tree.edges.len(), 2);
        assert_eq!(tree.victims.len(), 1);
        assert_eq!(tree.victims[0].flow, FlowId(0));
        assert_eq!(tree.victims[0].pause_blocked, Duration::from_micros(12));
        assert_eq!(tree.victims[0].origin, Some((NodeId(11), PortId(1))));
        // JSON form renders deterministically.
        let a = tree.to_json().render();
        let b = s.congestion_tree(t(40)).to_json().render();
        assert_eq!(a, b);
    }

    /// The trace as a `Json` tree, built event by event the way the
    /// exporter did before it streamed: the reference the streamed bytes
    /// are held to. Same walk, independent rendering (the tree renderer
    /// sorts keys itself and knows nothing of `emit_event`'s key order).
    fn trace_tree(trace: &ChromeTrace<'_>) -> Json {
        let complete = |name: &str, pid: usize, tid: u64, start: Time, end: Time, args: Json| {
            Json::obj(vec![
                ("ph", Json::from("X")),
                ("name", Json::from(name)),
                ("pid", Json::from(pid)),
                ("tid", Json::from(tid)),
                ("ts", Json::from(start.as_micros_f64())),
                (
                    "dur",
                    Json::from(end.saturating_since(start).as_micros_f64()),
                ),
                ("args", args),
            ])
        };
        let mut events = Vec::new();
        trace.for_each_event(|event| {
            events.push(match event {
                ChromeEvent::Meta { pid, thread } => Json::obj(vec![
                    ("ph", Json::from("M")),
                    (
                        "name",
                        Json::from(if thread.is_some() {
                            "thread_name"
                        } else {
                            "process_name"
                        }),
                    ),
                    ("pid", Json::from(pid)),
                    ("tid", Json::from(thread.unwrap_or(0))),
                    (
                        "args",
                        Json::obj(vec![(
                            "name",
                            Json::from(match (pid, thread) {
                                (0, None) => "flows".to_string(),
                                (0, Some(flow)) => format!("flow {flow}"),
                                (node, None) => format!("node {}", node - 1),
                                (_, Some(port)) => format!("port {port}"),
                            }),
                        )]),
                    ),
                ]),
                ChromeEvent::Flow { flow, span } => complete(
                    span.state.name(),
                    0,
                    flow as u64,
                    span.start,
                    span.end,
                    Json::obj(vec![("detail", Json::from(span.detail))]),
                ),
                ChromeEvent::Hop(h) => complete(
                    &format!("tx flow {}", h.flow.0),
                    h.node.0 + 1,
                    h.port.0 as u64,
                    h.start,
                    h.end,
                    Json::obj(vec![
                        ("flow", Json::from(h.flow.0)),
                        (
                            "queued_us",
                            Json::from(h.start.saturating_since(h.enqueued).as_micros_f64()),
                        ),
                    ]),
                ),
                ChromeEvent::Edge(e) => Json::obj(vec![
                    ("ph", Json::from("i")),
                    ("s", Json::from("t")),
                    ("name", Json::from(if e.pause { "PAUSE" } else { "RESUME" })),
                    ("pid", Json::from(e.from.0 + 1)),
                    ("tid", Json::from(e.from_port.0)),
                    ("ts", Json::from(e.at.as_micros_f64())),
                    (
                        "args",
                        Json::obj(vec![
                            ("to_node", Json::from(e.to.0)),
                            ("to_port", Json::from(e.to_port.0)),
                            ("class", Json::from(e.class as u64)),
                            ("depth_bytes", Json::from(e.depth)),
                            ("threshold_bytes", Json::from(e.threshold)),
                            ("storm", Json::from(e.storm)),
                        ]),
                    ),
                ]),
            });
        });
        Json::obj(vec![
            ("displayTimeUnit", Json::from("ms")),
            ("dropped_spans", Json::from(trace.spans.dropped)),
            ("traceEvents", Json::Arr(events)),
        ])
    }

    /// A recorder holding every kind of event: closed and open flow
    /// spans on two flows, hops on two nodes, a PAUSE and a RESUME, and
    /// drops on all three capacity bounds.
    fn busy_recorder() -> Spans {
        let mut s = Spans::disabled();
        s.enable(2);
        let t = Time::from_micros;
        for i in 0..6u64 {
            let st = if i % 2 == 0 {
                SpanState::Queued
            } else {
                SpanState::Throttled
            };
            s.set_state(F, st, t(i), i, None);
        }
        s.set_state(FlowId(0), SpanState::Serializing, t(1), 0, None);
        for i in 0..200u64 {
            s.record_hop(HopSpan {
                flow: FlowId(i % 2 * 3),
                node: NodeId(4 + (i % 3) as usize),
                port: PortId((i % 5) as usize),
                enqueued: t(i),
                start: Time(t(i).0 + 333),
                end: t(i + 1),
            });
            s.record_pause_edge(PauseEdge {
                at: Time(t(i).0 + 1),
                from: NodeId(9),
                from_port: PortId(1),
                to: NodeId(4),
                to_port: PortId(2),
                class: 3,
                pause: i % 2 == 0,
                storm: i % 7 == 0,
                depth: 200_000 + i,
                threshold: 180_000,
            });
        }
        assert!(s.dropped_spans() > 100);
        s
    }

    #[test]
    fn streamed_trace_equals_the_tree_rendering() {
        for (s, now) in [
            (busy_recorder(), Time::from_micros(300)),
            (Spans::disabled(), Time::ZERO),
        ] {
            let trace = s.chrome_trace(now);
            let rendered = trace.render();
            let mut tree = Writer::new(Vec::new(), ChromeTrace::ONE_LINE_PAST);
            tree.json(&trace_tree(&trace));
            assert_eq!(rendered, tree.into_string());
            let mut bytes = Vec::new();
            trace.write_to(&mut bytes).unwrap();
            assert_eq!(bytes, rendered.as_bytes(), "write_to and render agree");
            assert!(
                rendered.len() <= trace.size_hint(),
                "{} bytes outgrew the {} reserved",
                rendered.len(),
                trace.size_hint()
            );
        }
    }

    #[test]
    fn chrome_trace_is_deterministic_and_well_formed() {
        let mut s = Spans::disabled();
        s.enable(16);
        let t = Time::from_micros;
        s.set_state(F, SpanState::Serializing, t(1), 0, None);
        s.set_state(F, SpanState::Idle, t(2), 0, None);
        s.record_hop(HopSpan {
            flow: F,
            node: NodeId(4),
            port: PortId(0),
            enqueued: t(1),
            start: t(2),
            end: t(3),
        });
        let a = s.chrome_trace(t(5)).render();
        let b = s.chrome_trace(t(5)).render();
        assert_eq!(a, b);
        assert!(a.starts_with('{'));
        assert!(a.contains("\"traceEvents\""));
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"ph\":\"M\""));
    }
}
