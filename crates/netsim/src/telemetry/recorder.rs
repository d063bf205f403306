//! Flight recorder: a bounded ring of recent trace events per node,
//! dumped automatically when something goes wrong.
//!
//! The recorder piggybacks on the [`crate::trace::TraceEvent`] stream:
//! when enabled, every trace event is also appended to a small ring
//! owned by the event's node. When the sanitize auditor records a
//! violation, or a QP is torn down after exhausting retries, the ring of
//! the offending node is snapshotted into a [`FlightDump`] — turning
//! "audit failed at t=1.2ms" into the last N things that node did.
//!
//! Recording costs one branch when disabled (the default) and an index +
//! ring write when enabled; dumps are cold and capped so a violation
//! storm cannot allocate without bound.

use crate::event::NodeId;
use crate::trace::{Ring, TraceEvent};
use crate::units::Time;

/// Maximum number of dumps retained per run. Violation storms beyond
/// this keep counting in the auditor but stop snapshotting.
pub(crate) const MAX_DUMPS: usize = 8;

/// One snapshot of a node's recent history, taken at a trigger point.
#[derive(Debug, Clone)]
pub struct FlightDump {
    /// Simulation time of the trigger.
    pub at: Time,
    /// The node whose ring was dumped.
    pub node: NodeId,
    /// Why the dump was taken (e.g. the violation kind, or
    /// "qp_teardown flow=3").
    pub reason: String,
    /// The node's recent trace events, oldest first.
    pub events: Vec<TraceEvent>,
}

/// Per-node bounded rings of recent trace events.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    enabled: bool,
    rings: Vec<Ring>,
    dumps: Vec<FlightDump>,
}

impl FlightRecorder {
    /// A disabled recorder for `n_nodes` nodes. [`FlightRecorder::record`]
    /// is a single branch until [`FlightRecorder::enable`] is called.
    pub fn new(n_nodes: usize) -> FlightRecorder {
        FlightRecorder {
            enabled: false,
            rings: vec![Ring::default(); n_nodes],
            dumps: Vec::new(),
        }
    }

    /// Enables recording with a ring of `capacity` events per node.
    /// Re-enabling clears previously buffered events, and a `capacity`
    /// of 0 turns the recorder off (same contract as
    /// [`crate::trace::Tracer::enable`]).
    pub fn enable(&mut self, capacity: usize) {
        self.enabled = capacity > 0;
        self.rings.fill(Ring::new(capacity));
    }

    /// Whether the recorder is currently buffering events.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Appends an event to its node's ring. One branch when disabled.
    #[inline]
    pub fn record(&mut self, ev: TraceEvent) {
        if !self.enabled {
            return;
        }
        if let Some(ring) = self.rings.get_mut(ev.node.0) {
            ring.push(ev);
        }
    }

    /// Snapshots `node`'s ring into a [`FlightDump`]. No-op when the
    /// recorder is disabled or [`MAX_DUMPS`] snapshots already exist.
    pub fn dump(&mut self, node: NodeId, at: Time, reason: &str) {
        if !self.enabled || self.dumps.len() >= MAX_DUMPS {
            return;
        }
        let events = match self.rings.get(node.0) {
            // simlint: allow(hot-alloc) a dump is taken only on a violation or QP teardown, at most MAX_DUMPS times
            Some(ring) => ring.iter().collect(),
            // simlint: allow(hot-alloc) same dump; an empty Vec does not allocate
            None => Vec::new(),
        };
        self.dumps.push(FlightDump {
            at,
            node,
            // simlint: allow(hot-alloc) same dump, bounded by MAX_DUMPS
            reason: reason.to_string(),
            events,
        });
    }

    /// The dumps taken so far, in trigger order.
    pub fn dumps(&self) -> &[FlightDump] {
        &self.dumps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::FlowId;
    use crate::trace::TraceKind;

    fn ev(node: usize, detail: u64) -> TraceEvent {
        TraceEvent {
            at: Time::from_nanos(detail),
            node: NodeId(node),
            flow: FlowId(u64::MAX),
            kind: TraceKind::Delivered,
            detail,
        }
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let mut fr = FlightRecorder::new(2);
        fr.record(ev(0, 1));
        fr.dump(NodeId(0), Time::ZERO, "why");
        assert!(fr.dumps().is_empty());
        assert!(!fr.is_enabled());
    }

    #[test]
    fn ring_keeps_most_recent_per_node() {
        let mut fr = FlightRecorder::new(2);
        fr.enable(3);
        for i in 0..5 {
            fr.record(ev(0, i));
        }
        fr.record(ev(1, 100));
        fr.dump(NodeId(0), Time::ZERO, "node0");
        fr.dump(NodeId(1), Time::ZERO, "node1");
        let d0 = &fr.dumps()[0];
        let kept: Vec<u64> = d0.events.iter().map(|e| e.detail).collect();
        assert_eq!(kept, vec![2, 3, 4], "oldest-first, last 3 of 5");
        assert_eq!(fr.dumps()[1].events.len(), 1);
    }

    #[test]
    fn dumps_are_capped() {
        let mut fr = FlightRecorder::new(1);
        fr.enable(2);
        for i in 0..(MAX_DUMPS + 3) {
            fr.dump(NodeId(0), Time::ZERO, &format!("trigger {i}"));
        }
        assert_eq!(fr.dumps().len(), MAX_DUMPS);
    }

    #[test]
    fn reenable_clears_buffered_events() {
        let mut fr = FlightRecorder::new(1);
        fr.enable(4);
        fr.record(ev(0, 1));
        fr.enable(4);
        fr.dump(NodeId(0), Time::ZERO, "after re-enable");
        assert!(fr.dumps()[0].events.is_empty());
    }

    #[test]
    fn zero_capacity_means_disabled() {
        let mut fr = FlightRecorder::new(1);
        fr.enable(4);
        fr.record(ev(0, 1));
        fr.enable(0);
        assert!(!fr.is_enabled());
        fr.record(ev(0, 2));
        fr.dump(NodeId(0), Time::ZERO, "off");
        assert!(fr.dumps().is_empty(), "a disabled recorder takes no dumps");
    }

    #[test]
    fn out_of_range_node_is_ignored() {
        let mut fr = FlightRecorder::new(1);
        fr.enable(2);
        fr.record(ev(5, 1));
        fr.dump(NodeId(5), Time::ZERO, "ghost");
        assert!(fr.dumps()[0].events.is_empty());
    }
}
