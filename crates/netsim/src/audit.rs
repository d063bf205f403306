//! Runtime invariant auditor (`sanitize` feature): conservation, ordering
//! and domain checks hooked at event-dispatch boundaries.
//!
//! The simulator's value rests on properties the type system cannot see:
//!
//! * **byte conservation** — a switch's global [`crate::buffer::SharedBuffer`]
//!   occupancy always equals the sum of its per-(port, priority) ingress
//!   counts, and never exceeds the pool (§4's `s ≤ B`); every port's
//!   `queued_bytes` equals what its queue lists hold, and each of its slab
//!   slots is on exactly one list ([`crate::port::Port::check_conservation`]),
//! * **event-time monotonicity** — dispatched event times never regress
//!   (determinism depends on the `(time, seq)` total order),
//! * **PFC pairing** — PAUSE/RESUME alternate per ingress (port, priority),
//!   and a PFC-protected (lossless) class never drops a packet,
//! * **go-back-N sanity** — receivers accept PSNs exactly in order, and a
//!   sender always satisfies `una ≤ send ≤ next`,
//! * **DCQCN domains** — `0 ≤ α ≤ 1` and `R_C ≤ R_T ≤ line rate`
//!   (Figure 7's state machine keeps these; Equation 2's decay must never
//!   push α negative).
//!
//! Every hook opens with `if !Auditor::enabled() { return; }`, and
//! [`Auditor::enabled`] is `const`: with the feature disabled the checks
//! fold away, so call sites stay unconditional at zero cost, yet every
//! build still type-checks them. With it enabled, violations are
//! *recorded* (with event context) rather than panicking, so tests can
//! both assert that deliberate corruption is caught and that real
//! experiment runs finish clean ([`Auditor::assert_clean`]).

use crate::event::NodeId;
use crate::packet::FlowId;
use crate::units::Time;

/// How often (in dispatched events) the expensive whole-buffer conservation
/// scan runs. Prime so it cannot phase-lock with periodic workloads.
const BUFFER_CHECK_PERIOD: u64 = 997;

/// Recorded violations are capped so a systematically broken run cannot
/// allocate without bound; the total count keeps climbing past the cap.
const MAX_RECORDED: usize = 64;

/// Which invariant a violation broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// `SharedBuffer.occupied` disagrees with the per-ingress sum, or
    /// exceeds the configured pool size.
    BufferConservation,
    /// A port's per-priority lists disagree with its `queued_bytes`, or a
    /// slot of its slab is on no list or on two.
    PortConservation,
    /// An event was dispatched at a time earlier than its predecessor.
    TimeRegression,
    /// PAUSE while already paused, or RESUME while not paused.
    PfcPairing,
    /// A packet was dropped on a PFC-protected (lossless) class.
    LosslessDrop,
    /// A receiver accepted an out-of-order PSN, or a sender's PSN
    /// bookkeeping lost `una ≤ send ≤ next`.
    SequenceError,
    /// A congestion-control algorithm left its documented domain
    /// (α ∉ [0, 1] or the rate ordering broke).
    CcDomain,
    /// A flow's span timeline lost the FCT decomposition identity
    /// (`serializing + queued + pause_blocked + throttled +
    /// retransmitting + timed_out + idle != fct` at a completion).
    SpanAccounting,
    /// The fabric failed to return to its quiescent state after the last
    /// injected fault cleared plus the settling bound: a link still down
    /// or degraded, a watchdog still tripped, a port pause-blocked since
    /// before the settle window, standing queues that never drained, a
    /// live QP making no byte progress, or routes that disagree with a
    /// fresh shortest-path computation over the healed topology (see
    /// `Network::check_convergence`).
    Convergence,
}

/// One recorded invariant violation, with event context.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Simulation time of the violating event.
    pub at: Time,
    /// The invariant that broke.
    pub kind: ViolationKind,
    /// The node the violation is attributed to, when one is identifiable
    /// (drives the telemetry flight-recorder dump; `None` for global
    /// checks like time monotonicity).
    pub node: Option<NodeId>,
    /// Human-readable context: which switch/port/flow, and the values seen.
    pub context: String,
}

#[derive(Debug, Default)]
struct AuditState {
    last_event_time: Time,
    events_since_buffer_check: u64,
    /// Currently paused ingress (node, port, priority) triples. A BTree
    /// keeps any future iteration deterministic (simlint: map-iter).
    paused: std::collections::BTreeSet<(usize, usize, usize)>,
    /// Next in-order PSN the auditor expects each receiver to accept.
    expected_psn: std::collections::BTreeMap<u64, u64>,
    violations: Vec<Violation>,
    total_violations: u64,
}

/// The invariant auditor. Lives in [`crate::network::Ctx`] so switches and
/// hosts can report to it from inside event handlers.
#[derive(Debug, Default)]
pub struct Auditor {
    state: AuditState,
}

impl Auditor {
    /// True when the `sanitize` feature is compiled in and checks run.
    #[inline]
    pub const fn enabled() -> bool {
        cfg!(feature = "sanitize")
    }

    /// Records a violation (bounded; see `MAX_RECORDED`).
    fn violate(
        &mut self,
        at: Time,
        kind: ViolationKind,
        node: Option<NodeId>,
        context: std::fmt::Arguments<'_>,
    ) {
        self.state.total_violations += 1;
        if self.state.violations.len() < MAX_RECORDED {
            self.state.violations.push(Violation {
                at,
                kind,
                node,
                // simlint: allow(hot-alloc) the message is built only when an invariant actually fails
                context: context.to_string(),
            });
        }
    }

    /// Records externally computed violations (the convergence checker
    /// builds its list unconditionally so release campaign runs can read
    /// it; this folds them into the auditor when the feature is on, so
    /// `assert_clean`, the report, and the flight-recorder dump sweep all
    /// see them).
    pub(crate) fn record_all(&mut self, violations: &[Violation]) {
        if !Self::enabled() {
            return;
        }
        for v in violations {
            self.violate(v.at, v.kind, v.node, format_args!("{}", v.context));
        }
    }

    /// An event is about to be dispatched at `at`: check monotonicity.
    #[inline]
    pub(crate) fn on_event(&mut self, at: Time) {
        if !Self::enabled() {
            return;
        }
        if at < self.state.last_event_time {
            let last = self.state.last_event_time;
            self.violate(
                at,
                ViolationKind::TimeRegression,
                None,
                format_args!("event at {at} after event at {last}"),
            );
        }
        self.state.last_event_time = at;
    }

    /// Should the (expensive) per-switch buffer conservation scan run now?
    /// Always false without the feature, so the caller's loop is dead code.
    #[inline]
    pub(crate) fn buffer_check_due(&mut self) -> bool {
        if !Self::enabled() {
            return false;
        }
        self.state.events_since_buffer_check += 1;
        if self.state.events_since_buffer_check >= BUFFER_CHECK_PERIOD {
            self.state.events_since_buffer_check = 0;
            return true;
        }
        false
    }

    /// Conservation check for one switch's shared buffer.
    #[inline]
    pub(crate) fn check_buffer(
        &mut self,
        node: NodeId,
        occupied: u64,
        ingress_total: u64,
        pool_bytes: u64,
        at: Time,
    ) {
        if !Self::enabled() {
            return;
        }
        if occupied != ingress_total {
            self.violate(
                at,
                ViolationKind::BufferConservation,
                Some(node),
                format_args!(
                    "switch {}: occupied {occupied} B != ingress sum {ingress_total} B",
                    node.0
                ),
            );
        }
        if occupied > pool_bytes {
            self.violate(
                at,
                ViolationKind::BufferConservation,
                Some(node),
                format_args!(
                    "switch {}: occupied {occupied} B exceeds pool {pool_bytes} B",
                    node.0
                ),
            );
        }
    }

    /// Records one port's failed [`crate::port::Port::check_conservation`].
    pub(crate) fn on_port_mismatch(
        &mut self,
        node: NodeId,
        port: usize,
        what: std::fmt::Arguments<'_>,
        at: Time,
    ) {
        if !Self::enabled() {
            return;
        }
        self.violate(
            at,
            ViolationKind::PortConservation,
            Some(node),
            format_args!("node {} port {port}: {what}", node.0),
        );
    }

    /// A switch sent PAUSE for ingress (port, priority).
    #[inline]
    pub(crate) fn on_pause(&mut self, node: NodeId, port: usize, prio: usize, at: Time) {
        if !Self::enabled() {
            return;
        }
        if !self.state.paused.insert((node.0, port, prio)) {
            self.violate(
                at,
                ViolationKind::PfcPairing,
                Some(node),
                format_args!(
                    "switch {} port {port} prio {prio}: PAUSE while already paused",
                    node.0
                ),
            );
        }
    }

    /// A switch sent RESUME for ingress (port, priority).
    #[inline]
    pub(crate) fn on_resume(&mut self, node: NodeId, port: usize, prio: usize, at: Time) {
        if !Self::enabled() {
            return;
        }
        if !self.state.paused.remove(&(node.0, port, prio)) {
            self.violate(
                at,
                ViolationKind::PfcPairing,
                Some(node),
                format_args!(
                    "switch {} port {port} prio {prio}: RESUME while not paused",
                    node.0
                ),
            );
        }
    }

    /// A switch dropped a packet of priority `prio`; `lossless` is whether
    /// that class is PFC-protected there. The paper's premise is that
    /// PFC-protected classes never drop — any such drop is a violation.
    #[inline]
    pub(crate) fn on_drop(&mut self, node: NodeId, prio: usize, lossless: bool, at: Time) {
        if !Self::enabled() {
            return;
        }
        if lossless {
            self.violate(
                at,
                ViolationKind::LosslessDrop,
                Some(node),
                format_args!("switch {}: drop on lossless priority {prio}", node.0),
            );
        }
    }

    /// A link transition (down *or* up) reset all PFC state on `node`'s
    /// `port`: forget any pause-pairing obligations for that ingress so the
    /// next PAUSE after the reset is not misread as a double-pause (and a
    /// RESUME that never comes is not misread as missing).
    #[inline]
    pub(crate) fn on_pfc_reset(&mut self, node: NodeId, port: usize) {
        if !Self::enabled() {
            return;
        }
        let lo = (node.0, port, 0);
        let hi = (node.0, port, usize::MAX);
        // simlint: allow(hot-alloc) sanitize builds only, once per link transition
        let stale: Vec<_> = self.state.paused.range(lo..=hi).copied().collect();
        for key in stale {
            self.state.paused.remove(&key);
        }
    }

    /// A receiver on `node` accepted `psn` of `flow` in order. Go-back-N
    /// receivers accept exactly 0, 1, 2, … — anything else is a transport
    /// bug.
    #[inline]
    pub(crate) fn on_in_order_accept(&mut self, node: NodeId, flow: FlowId, psn: u64, at: Time) {
        if !Self::enabled() {
            return;
        }
        let expected = self.state.expected_psn.entry(flow.0).or_insert(0);
        if psn != *expected {
            let want = *expected;
            self.violate(
                at,
                ViolationKind::SequenceError,
                Some(node),
                format_args!("flow {}: accepted PSN {psn}, expected {want}", flow.0),
            );
        }
        self.state.expected_psn.insert(flow.0, psn + 1);
    }

    /// Sender-side go-back-N bookkeeping on `node` must keep
    /// `una ≤ send ≤ next`.
    #[inline]
    pub(crate) fn check_flow_psns(
        &mut self,
        node: NodeId,
        flow: FlowId,
        (una, send, next): (u64, u64, u64),
        at: Time,
    ) {
        if !Self::enabled() {
            return;
        }
        if !(una <= send && send <= next) {
            self.violate(
                at,
                ViolationKind::SequenceError,
                Some(node),
                format_args!(
                    "flow {}: PSN order broke (una {una}, send {send}, next {next})",
                    flow.0
                ),
            );
        }
    }

    /// Domain check on a congestion-control algorithm's self-reported
    /// state (see [`crate::cc::CcAuditInfo`]); `node` is the sending host.
    #[inline]
    pub(crate) fn check_cc(
        &mut self,
        node: NodeId,
        flow: FlowId,
        info: &crate::cc::CcAuditInfo,
        at: Time,
    ) {
        if !Self::enabled() {
            return;
        }
        if let Some(alpha) = info.alpha {
            if !(0.0..=1.0 + 1e-9).contains(&alpha) || alpha.is_nan() {
                self.violate(
                    at,
                    ViolationKind::CcDomain,
                    Some(node),
                    format_args!("flow {}: alpha {alpha} outside [0, 1]", flow.0),
                );
            }
        }
        if info.rate > info.target || info.target > info.line {
            self.violate(
                at,
                ViolationKind::CcDomain,
                Some(node),
                format_args!(
                    "flow {}: rate ordering broke (R_C {} > R_T {} or R_T > line {})",
                    flow.0, info.rate, info.target, info.line
                ),
            );
        }
    }

    /// A flow's span timeline settled at a message completion with
    /// `Σ per-state spans != fct` — the causal tracer lost or
    /// double-counted an interval. `node` is the sending host.
    #[inline]
    pub(crate) fn on_span_mismatch(
        &mut self,
        node: NodeId,
        flow: FlowId,
        fct: crate::units::Duration,
        sum: crate::units::Duration,
        at: Time,
    ) {
        if !Self::enabled() {
            return;
        }
        self.violate(
            at,
            ViolationKind::SpanAccounting,
            Some(node),
            format_args!("flow {}: span sum {sum} != fct {fct} at completion", flow.0),
        );
    }

    /// Violations recorded so far (empty without the feature).
    pub fn violations(&self) -> &[Violation] {
        &self.state.violations
    }

    /// Total violation count, including any past the recording cap.
    pub(crate) fn total_violations(&self) -> u64 {
        self.state.total_violations
    }

    /// True when no invariant violation has been observed.
    pub fn is_clean(&self) -> bool {
        self.total_violations() == 0
    }

    /// Multi-line report of all recorded violations.
    pub fn report(&self) -> String {
        let mut out = String::new();
        for v in self.violations() {
            out.push_str(&format!("[{}] {:?}: {}\n", v.at, v.kind, v.context));
        }
        let total = self.total_violations();
        if total as usize > self.violations().len() {
            out.push_str(&format!(
                "... and {} more\n",
                total - self.violations().len() as u64
            ));
        }
        out
    }

    /// Panics with the full report if any violation was recorded.
    pub fn assert_clean(&self) {
        assert!(
            self.is_clean(),
            "invariant auditor recorded {} violation(s):\n{}",
            self.total_violations(),
            self.report()
        );
    }
}

/// Judges a settle-window series of `(time, total queued bytes)` samples
/// against the convergence drain invariant: by the end of the window the
/// fabric must either be below `threshold` or still visibly draining
/// (strictly less queued than at the window start — a long tail emptying
/// out is not a standing queue). Returns the violation to record, if any.
///
/// Pure so it runs (and is testable) with or without the `sanitize`
/// feature; the caller attributes no node (it is a fabric-wide check).
pub(crate) fn check_queue_drain(samples: &[(Time, u64)], threshold: u64) -> Option<Violation> {
    let (&(first_at, first), &(last_at, last)) = (samples.first()?, samples.last()?);
    if last <= threshold || (samples.len() > 1 && last < first) {
        return None;
    }
    Some(Violation {
        at: last_at,
        kind: ViolationKind::Convergence,
        node: None,
        // simlint: allow(hot-alloc) built only when the convergence drain check fails
        context: format!(
            "queues not draining: {last} B queued at {last_at} \
             (threshold {threshold} B, {first} B at {first_at})"
        ),
    })
}

#[cfg(test)]
mod drain_tests {
    use super::*;

    fn t(us: u64) -> Time {
        Time::from_micros(us)
    }

    #[test]
    fn below_threshold_converges() {
        let s = [(t(0), 9000), (t(10), 4000), (t(20), 900)];
        assert!(check_queue_drain(&s, 1000).is_none());
    }

    #[test]
    fn still_draining_tail_is_tolerated() {
        let s = [(t(0), 90_000), (t(10), 60_000), (t(20), 30_000)];
        assert!(check_queue_drain(&s, 1000).is_none());
    }

    #[test]
    fn standing_queue_is_a_violation() {
        let s = [(t(0), 50_000), (t(10), 50_000), (t(20), 50_000)];
        let v = check_queue_drain(&s, 1000).expect("standing queue");
        assert_eq!(v.kind, ViolationKind::Convergence);
        assert!(v.context.contains("not draining"));
    }

    #[test]
    fn growing_queue_is_a_violation() {
        let s = [(t(0), 10_000), (t(20), 80_000)];
        assert!(check_queue_drain(&s, 1000).is_some());
    }

    #[test]
    fn empty_series_is_vacuously_clean() {
        assert!(check_queue_drain(&[], 0).is_none());
    }
}

#[cfg(all(test, feature = "sanitize"))]
mod tests {
    use super::*;

    #[test]
    fn time_regression_is_caught() {
        let mut a = Auditor::default();
        a.on_event(Time::from_micros(10));
        a.on_event(Time::from_micros(10)); // equal is fine
        assert!(a.is_clean());
        a.on_event(Time::from_micros(5));
        assert_eq!(a.violations().len(), 1);
        assert_eq!(a.violations()[0].kind, ViolationKind::TimeRegression);
    }

    #[test]
    fn conservation_mismatch_is_caught() {
        let mut a = Auditor::default();
        a.check_buffer(NodeId(3), 1000, 1000, 12_000_000, Time::ZERO);
        assert!(a.is_clean());
        a.check_buffer(NodeId(3), 1000, 900, 12_000_000, Time::ZERO);
        assert_eq!(a.violations()[0].kind, ViolationKind::BufferConservation);
        // Over-pool occupancy is its own violation.
        let mut b = Auditor::default();
        b.check_buffer(NodeId(3), 13_000_000, 13_000_000, 12_000_000, Time::ZERO);
        assert_eq!(b.violations().len(), 1);
    }

    #[test]
    fn pfc_pairing_is_checked() {
        let mut a = Auditor::default();
        a.on_pause(NodeId(1), 2, 3, Time::ZERO);
        a.on_resume(NodeId(1), 2, 3, Time::ZERO);
        assert!(a.is_clean());
        a.on_resume(NodeId(1), 2, 3, Time::ZERO); // resume unpaused
        a.on_pause(NodeId(1), 2, 3, Time::ZERO);
        a.on_pause(NodeId(1), 2, 3, Time::ZERO); // double pause
        assert_eq!(a.violations().len(), 2);
        assert!(a
            .violations()
            .iter()
            .all(|v| v.kind == ViolationKind::PfcPairing));
    }

    #[test]
    fn lossless_drop_is_a_violation_lossy_is_not() {
        let mut a = Auditor::default();
        a.on_drop(NodeId(0), 3, false, Time::ZERO);
        assert!(a.is_clean());
        a.on_drop(NodeId(0), 3, true, Time::ZERO);
        assert_eq!(a.violations()[0].kind, ViolationKind::LosslessDrop);
    }

    #[test]
    fn out_of_order_accept_is_caught() {
        let mut a = Auditor::default();
        a.on_in_order_accept(NodeId(4), FlowId(7), 0, Time::ZERO);
        a.on_in_order_accept(NodeId(4), FlowId(7), 1, Time::ZERO);
        assert!(a.is_clean());
        a.on_in_order_accept(NodeId(4), FlowId(7), 3, Time::ZERO);
        assert_eq!(a.violations()[0].kind, ViolationKind::SequenceError);
        assert_eq!(a.violations()[0].node, Some(NodeId(4)));
    }

    #[test]
    fn psn_order_is_checked() {
        let mut a = Auditor::default();
        a.check_flow_psns(NodeId(0), FlowId(1), (5, 7, 9), Time::ZERO);
        assert!(a.is_clean());
        a.check_flow_psns(NodeId(0), FlowId(1), (8, 7, 9), Time::ZERO);
        assert_eq!(a.violations()[0].kind, ViolationKind::SequenceError);
    }

    #[test]
    fn cc_domains_are_checked() {
        use crate::cc::CcAuditInfo;
        use crate::units::Bandwidth;
        let mut a = Auditor::default();
        let ok = CcAuditInfo {
            rate: Bandwidth::gbps(20),
            target: Bandwidth::gbps(30),
            line: Bandwidth::gbps(40),
            alpha: Some(0.5),
        };
        a.check_cc(NodeId(0), FlowId(0), &ok, Time::ZERO);
        assert!(a.is_clean());
        let bad_alpha = CcAuditInfo {
            alpha: Some(1.5),
            ..ok
        };
        a.check_cc(NodeId(0), FlowId(0), &bad_alpha, Time::ZERO);
        let bad_order = CcAuditInfo {
            rate: Bandwidth::gbps(50),
            ..ok
        };
        a.check_cc(NodeId(0), FlowId(0), &bad_order, Time::ZERO);
        assert_eq!(a.violations().len(), 2);
        assert!(a
            .violations()
            .iter()
            .all(|v| v.kind == ViolationKind::CcDomain));
    }

    #[test]
    fn pfc_reset_clears_pairing_for_that_port_only() {
        let mut a = Auditor::default();
        a.on_pause(NodeId(1), 2, 3, Time::ZERO);
        a.on_pause(NodeId(1), 5, 3, Time::ZERO);
        // Link reset on (node 1, port 2): its pause obligation vanishes.
        a.on_pfc_reset(NodeId(1), 2);
        a.on_pause(NodeId(1), 2, 3, Time::ZERO); // not a double-pause now
        assert!(a.is_clean());
        // Port 5 was untouched: a second PAUSE there still violates.
        a.on_pause(NodeId(1), 5, 3, Time::ZERO);
        assert_eq!(a.violations()[0].kind, ViolationKind::PfcPairing);
    }

    #[test]
    fn span_mismatch_is_a_violation() {
        use crate::units::Duration;
        let mut a = Auditor::default();
        a.on_span_mismatch(
            NodeId(2),
            FlowId(5),
            Duration::from_micros(10),
            Duration::from_micros(11),
            Time::ZERO,
        );
        assert_eq!(a.violations().len(), 1);
        assert_eq!(a.violations()[0].kind, ViolationKind::SpanAccounting);
        assert_eq!(a.violations()[0].node, Some(NodeId(2)));
    }

    #[test]
    fn record_all_folds_external_violations_in() {
        let mut a = Auditor::default();
        let vs = vec![Violation {
            at: Time::from_micros(7),
            kind: ViolationKind::Convergence,
            node: Some(NodeId(3)),
            context: "watchdog still tripped".to_string(),
        }];
        a.record_all(&vs);
        assert_eq!(a.total_violations(), 1);
        assert_eq!(a.violations()[0].kind, ViolationKind::Convergence);
        assert!(!a.is_clean());
    }

    #[test]
    fn recording_is_capped_but_counted() {
        let mut a = Auditor::default();
        for _ in 0..200 {
            a.on_drop(NodeId(0), 3, true, Time::ZERO);
        }
        assert_eq!(a.violations().len(), MAX_RECORDED);
        assert_eq!(a.total_violations(), 200);
        assert!(a.report().contains("more"));
    }

    #[test]
    fn buffer_check_cadence() {
        let mut a = Auditor::default();
        let due: u64 = (0..3000).map(|_| a.buffer_check_due() as u64).sum();
        assert_eq!(due, 3000 / BUFFER_CHECK_PERIOD);
    }
}
