//! Packet-level event tracing.
//!
//! A bounded, allocation-light record of what happened to packets —
//! marks, pauses, drops, deliveries — for debugging protocols and for
//! fine-grained assertions in tests. Disabled by default; enabling it
//! costs one branch per recorded event.
//!
//! ```
//! use netsim::prelude::*;
//! use netsim::trace::TraceKind;
//!
//! let mut star = netsim::topology::star(
//!     3,
//!     netsim::topology::LinkParams::default(),
//!     HostConfig { cnp_interval: None, ..HostConfig::default() },
//!     SwitchConfig::paper_default(),
//!     1,
//! );
//! star.net.enable_trace(10_000);
//! let f = star.net.add_flow(star.hosts[0], star.hosts[2], DATA_PRIORITY, |l| {
//!     Box::new(NoCc::new(l))
//! });
//! star.net.send_message(f, 5_000, Time::ZERO);
//! star.net.run_until(Time::from_millis(1));
//! let delivered = star
//!     .net
//!     .trace()
//!     .iter()
//!     .filter(|e| e.kind == TraceKind::Delivered)
//!     .count();
//! assert_eq!(delivered, 4, "5000 B = 4 packets (3×1436 + 692)");
//! ```

use crate::event::NodeId;
use crate::packet::FlowId;
use crate::units::Time;

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A data packet was ECN-marked at a switch egress.
    Marked,
    /// A switch sent a PAUSE upstream.
    PauseSent,
    /// A switch sent a RESUME upstream.
    ResumeSent,
    /// A switch dropped a packet (detail 0 = shared pool exhausted,
    /// 1 = lossy-mode egress cap, 2 = no route to the destination).
    Dropped,
    /// An in-order data packet was accepted by its receiver.
    Delivered,
    /// A receiver sent a go-back-N NAK.
    NackSent,
    /// An NP generated a CNP.
    CnpSent,
    /// A sender's retransmission timeout fired.
    Timeout,
    /// A link went down (fault injection); detail is the link index.
    LinkDown,
    /// A link came back up; detail is the link index.
    LinkUp,
    /// A frame was lost to an injected fault (detail 0 = link down,
    /// 1 = bit-error/CRC).
    FaultDropped,
    /// A switch's PFC storm watchdog tripped (detail is the class).
    WatchdogTrip,
}

/// One trace record.
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent {
    /// When it happened.
    pub at: Time,
    /// Where (switch or host).
    pub node: NodeId,
    /// The flow involved (`FlowId(u64::MAX)` when not flow-specific).
    pub flow: FlowId,
    /// What happened.
    pub kind: TraceKind,
    /// Event-specific detail: PSN for Delivered/NackSent/Timeout, queue
    /// depth in bytes for Marked, priority class for Pause/Resume and
    /// WatchdogTrip, the reason for Dropped (0 pool, 1 lossy cap, 2
    /// unroutable) and FaultDropped, link index for LinkDown/LinkUp, 0
    /// otherwise.
    pub detail: u64,
}

/// A [`TraceEvent`] as a [`Ring`] stores it, 32 B rather than 40: node
/// and flow as `u32`, with `FlowId(u64::MAX)` (no flow) as `u32::MAX`.
/// `NetworkBuilder::build` and `Host::add_flow` refuse a node count or
/// flow id that does not fit ([`check_node_count`], [`check_flow_id`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Record {
    at: Time,
    detail: u64,
    node: u32,
    flow: u32,
    kind: TraceKind,
}

impl Record {
    /// Narrows `e`: the one place a trace event loses width. The no-flow
    /// id saturates to `u32::MAX`; the checks at build and `add_flow`
    /// keep every other id below it, and saturating (never wrapping)
    /// keeps a missed check from folding one id onto another.
    #[inline]
    fn new(e: TraceEvent) -> Record {
        Record {
            at: e.at,
            detail: e.detail,
            node: u32::try_from(e.node.0).unwrap_or(u32::MAX),
            flow: u32::try_from(e.flow.0).unwrap_or(u32::MAX),
            kind: e.kind,
        }
    }

    /// Widens the record back into the event it stored.
    #[inline]
    fn event(self) -> TraceEvent {
        let flow = match self.flow {
            u32::MAX => FlowId(u64::MAX),
            id => FlowId(u64::from(id)),
        };
        // simlint: allow(owner) reads back an event Ctx::record_trace recorded; records nothing new
        TraceEvent {
            at: self.at,
            node: NodeId(self.node as usize),
            flow,
            kind: self.kind,
            detail: self.detail,
        }
    }
}

/// Panics unless every id of an `n`-node network fits a trace
/// [`Record`]'s `u32`.
pub(crate) fn check_node_count(n: usize) {
    assert!(
        u32::try_from(n).is_ok(),
        "network: {n} nodes do not fit a trace record's u32 node id"
    );
}

/// Panics unless `flow` fits a trace [`Record`]'s `u32` below its
/// no-flow value `u32::MAX`.
pub(crate) fn check_flow_id(flow: FlowId) {
    assert!(
        flow.0 < u64::from(u32::MAX),
        "add_flow: flow id {} does not fit a trace record's u32 flow id",
        flow.0
    );
}

/// A bounded ring of trace events, oldest evicted first: the one ring
/// behind both the [`Tracer`] and each node of the flight recorder
/// (`telemetry::recorder`). A ring of capacity 0 retains nothing, at
/// the cost of one branch per push.
#[derive(Debug, Clone, Default)]
pub(crate) struct Ring {
    records: Vec<Record>,
    capacity: usize,
    head: usize,
}

impl Ring {
    /// An empty ring that retains the last `capacity` events. Allocates
    /// nothing until the first push.
    pub(crate) fn new(capacity: usize) -> Ring {
        Ring {
            records: Vec::new(),
            capacity,
            head: 0,
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, event: TraceEvent) {
        if self.capacity == 0 {
            return;
        }
        let record = Record::new(event);
        if self.records.len() < self.capacity {
            self.records.push(record);
        } else {
            self.records[self.head] = record;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// The retained events, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        let (newer, older) = self.records.split_at(self.head);
        older.iter().chain(newer).map(|r| r.event())
    }
}

/// A bounded ring of trace events (oldest evicted first).
#[derive(Debug, Default)]
pub struct Tracer {
    ring: Ring,
}

impl Tracer {
    /// A disabled tracer (records nothing).
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// Enables tracing with space for `capacity` events, discarding
    /// anything recorded so far. A `capacity` of 0 means "no tracing":
    /// the tracer is reset to its disabled state.
    pub fn enable(&mut self, capacity: usize) {
        self.ring = Ring::new(capacity);
        self.ring.records.reserve(capacity.min(1 << 20));
    }

    /// Is tracing on?
    pub fn is_enabled(&self) -> bool {
        self.ring.capacity > 0
    }

    /// Records an event (no-op when disabled).
    #[inline]
    pub fn record(&mut self, event: TraceEvent) {
        self.ring.push(event);
    }

    /// The recorded events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        self.ring.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring.records.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ring.records.is_empty()
    }

    /// Events of one kind, oldest first.
    pub fn of_kind(&self, kind: TraceKind) -> Vec<TraceEvent> {
        self.iter().filter(|e| e.kind == kind).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            at: Time::from_micros(t),
            node: NodeId(0),
            flow: FlowId(1),
            kind,
            detail: t,
        }
    }

    #[test]
    fn records_read_back_unchanged() {
        let mut t = Tracer::disabled();
        t.enable(4);
        // The largest ids `check_node_count` and `check_flow_id` admit.
        let (node, flow) = (u32::MAX as usize - 1, u64::from(u32::MAX) - 1);
        let edges = [(0, FlowId(0)), (node, FlowId(flow))];
        for (node, flow) in edges.into_iter().chain([(7, FlowId(u64::MAX))]) {
            let e = TraceEvent {
                at: Time(u64::MAX),
                node: NodeId(node),
                flow,
                kind: TraceKind::WatchdogTrip,
                detail: u64::MAX,
            };
            t.record(e);
        }
        let read: Vec<_> = t.iter().map(|e| (e.node, e.flow, e.at, e.detail)).collect();
        let max = (Time(u64::MAX), u64::MAX);
        assert_eq!(
            read,
            [
                (NodeId(0), FlowId(0), max.0, max.1),
                (NodeId(node), FlowId(flow), max.0, max.1),
                (NodeId(7), FlowId(u64::MAX), max.0, max.1),
            ],
            "the no-flow id survives the u32 record"
        );
    }

    #[test]
    fn ids_past_a_record_fail_where_they_are_made() {
        check_node_count(u32::MAX as usize);
        check_flow_id(FlowId(u64::from(u32::MAX) - 1));
        let nodes = std::panic::catch_unwind(|| check_node_count(u32::MAX as usize + 1));
        let flows = std::panic::catch_unwind(|| check_flow_id(FlowId(u64::from(u32::MAX))));
        let message = |r: std::thread::Result<()>| *r.unwrap_err().downcast::<String>().unwrap();
        assert_eq!(
            message(nodes),
            "network: 4294967296 nodes do not fit a trace record's u32 node id"
        );
        assert_eq!(
            message(flows),
            "add_flow: flow id 4294967295 does not fit a trace record's u32 flow id"
        );
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::disabled();
        t.record(ev(1, TraceKind::Marked));
        assert!(t.is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn records_in_order() {
        let mut t = Tracer::disabled();
        t.enable(10);
        for i in 0..5 {
            t.record(ev(i, TraceKind::Delivered));
        }
        let details: Vec<u64> = t.iter().map(|e| e.detail).collect();
        assert_eq!(details, vec![0, 1, 2, 3, 4]);
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut t = Tracer::disabled();
        t.enable(3);
        for i in 0..7 {
            t.record(ev(i, TraceKind::Marked));
        }
        let details: Vec<u64> = t.iter().map(|e| e.detail).collect();
        assert_eq!(details, vec![4, 5, 6]);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn kind_filter() {
        let mut t = Tracer::disabled();
        t.enable(10);
        t.record(ev(1, TraceKind::Marked));
        t.record(ev(2, TraceKind::Dropped));
        t.record(ev(3, TraceKind::Marked));
        assert_eq!(t.of_kind(TraceKind::Marked).len(), 2);
        assert_eq!(t.of_kind(TraceKind::Dropped).len(), 1);
        assert_eq!(t.of_kind(TraceKind::Timeout).len(), 0);
    }

    #[test]
    fn zero_capacity_means_disabled() {
        let mut t = Tracer::disabled();
        t.enable(0);
        assert!(!t.is_enabled());
        t.record(ev(1, TraceKind::Marked));
        assert!(t.is_empty());
    }

    #[test]
    fn enable_zero_after_enable_disables_and_clears() {
        let mut t = Tracer::disabled();
        t.enable(4);
        t.record(ev(1, TraceKind::Marked));
        assert_eq!(t.len(), 1);
        t.enable(0);
        assert!(!t.is_enabled());
        assert!(t.is_empty());
        t.record(ev(2, TraceKind::Marked));
        assert!(t.is_empty(), "a zero-capacity tracer records nothing");
    }

    #[test]
    fn wraparound_at_exact_capacity_boundary() {
        let mut t = Tracer::disabled();
        t.enable(4);
        for i in 0..4 {
            t.record(ev(i, TraceKind::Marked));
        }
        // Exactly full: everything retained, nothing evicted yet.
        assert_eq!(t.len(), 4);
        let details: Vec<u64> = t.iter().map(|e| e.detail).collect();
        assert_eq!(details, vec![0, 1, 2, 3]);
        // The next record is the first wrap: oldest out, order intact.
        t.record(ev(4, TraceKind::Marked));
        let details: Vec<u64> = t.iter().map(|e| e.detail).collect();
        assert_eq!(details, vec![1, 2, 3, 4]);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn re_enable_clears_and_resizes() {
        let mut t = Tracer::disabled();
        t.enable(8);
        for i in 0..5 {
            t.record(ev(i, TraceKind::Marked));
        }
        // Re-enabling starts a fresh ring at the new capacity; old
        // events are gone and the new bound applies immediately.
        t.enable(2);
        assert!(t.is_enabled());
        assert!(t.is_empty());
        for i in 10..13 {
            t.record(ev(i, TraceKind::Delivered));
        }
        let details: Vec<u64> = t.iter().map(|e| e.detail).collect();
        assert_eq!(details, vec![11, 12]);
    }

    #[test]
    fn disabled_tracer_stays_empty_under_load() {
        // The one-branch guarantee: a disabled tracer records nothing no
        // matter how many events flow past it, and never allocates.
        let mut t = Tracer::disabled();
        for i in 0..10_000 {
            t.record(ev(i, TraceKind::Delivered));
        }
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.iter().count(), 0);
    }
}
