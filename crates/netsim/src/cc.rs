//! The pluggable congestion-control interface between a host NIC and a
//! per-flow algorithm (DCQCN's RP, DCTCP, TIMELY, or nothing).
//!
//! Algorithms come in two styles and the trait supports both:
//!
//! * **rate-based** (DCQCN, TIMELY): the NIC paces each flow at
//!   [`CongestionControl::rate`]; `window` returns `None`.
//! * **window-based** (DCTCP): `window` returns the congestion window in
//!   bytes and the NIC sends at line rate while un-ACKed bytes fit in it.
//!
//! Algorithms arm timers through [`CcActions`]; the host turns them into
//! simulator events and routes expiry back via `on_timer`. Cancellation is
//! lazy: re-arming a timer id supersedes the old deadline, and stale
//! expirations are filtered by the host before they reach the algorithm.

use crate::units::{Bandwidth, Duration, Time};

/// Actions an algorithm requests from its NIC during a callback.
#[derive(Debug, Default)]
pub struct CcActions {
    /// `(timer_id, deadline)` pairs to (re-)arm. A deadline of
    /// [`Time::NEVER`] disarms the timer.
    pub timers: Vec<(u32, Time)>,
}

impl CcActions {
    /// Arms (or re-arms) timer `id` to fire at `at`.
    pub fn arm(&mut self, id: u32, at: Time) {
        self.timers.push((id, at));
    }

    /// Disarms timer `id`.
    pub fn disarm(&mut self, id: u32) {
        self.timers.push((id, Time::NEVER));
    }

    /// Empties the action list, keeping its allocation. The host reuses
    /// one `CcActions` as a scratch buffer across every CC callback, so
    /// the per-packet path allocates nothing here.
    pub fn clear(&mut self) {
        self.timers.clear();
    }
}

/// A snapshot of an algorithm's internal state for the `sanitize`
/// invariant auditor ([`crate::audit::Auditor::check_cc`]). Rate-based
/// algorithms expose their current/target rates and, if they keep one,
/// their congestion estimator α; the auditor checks the paper's domains
/// (`0 ≤ α ≤ 1`, `R_C ≤ R_T ≤ line rate`).
#[derive(Debug, Clone, Copy)]
pub struct CcAuditInfo {
    /// Current sending rate R_C.
    pub rate: Bandwidth,
    /// Target rate R_T (equals `rate` for algorithms without one).
    pub target: Bandwidth,
    /// The flow's line rate (upper bound on both).
    pub line: Bandwidth,
    /// Congestion estimator α, if the algorithm keeps one.
    pub alpha: Option<f64>,
}

/// A per-flow congestion-control algorithm.
pub trait CongestionControl: Send {
    /// Current permitted sending rate. Window-based algorithms return the
    /// line rate here (pacing disabled) and bound in-flight data instead.
    fn rate(&self) -> Bandwidth;

    /// Congestion window in bytes for window-based algorithms, `None` for
    /// rate-based ones.
    fn window(&self) -> Option<u64> {
        None
    }

    /// A CNP for this flow arrived at the sender.
    fn on_cnp(&mut self, _now: Time, _actions: &mut CcActions) {}

    /// An ACK arrived covering `acked_bytes`, of which `marked` out of
    /// `acked_pkts` data packets carried CE (DCTCP's ECN-echo stream).
    /// `rtt` is the send-to-ACK time of the newest covered packet, absent
    /// when that packet was retransmitted (Karn's rule) — RTT-based
    /// algorithms (TIMELY) consume it.
    fn on_ack(
        &mut self,
        _now: Time,
        _acked_bytes: u64,
        _acked_pkts: u32,
        _marked: u32,
        _rtt: Option<Duration>,
        _actions: &mut CcActions,
    ) {
    }

    /// The NIC put `bytes` of this flow on the wire (drives byte counters).
    fn on_send(&mut self, _now: Time, _bytes: u64, _actions: &mut CcActions) {}

    /// A packet of this flow was lost (sender noticed via NAK or timeout).
    fn on_loss(&mut self, _now: Time, _actions: &mut CcActions) {}

    /// A previously armed timer fired.
    fn on_timer(&mut self, _now: Time, _id: u32, _actions: &mut CcActions) {}

    /// The flow was idle long enough that its state resets; the paper's
    /// flows (re)start at line rate ("hyper-fast start in the common case").
    fn reset(&mut self, _now: Time, _actions: &mut CcActions) {}

    /// Short algorithm name for logs and stats.
    fn name(&self) -> &'static str;

    /// State snapshot for the `sanitize` invariant auditor. `None` (the
    /// default) opts the algorithm out of domain checks.
    fn audit_info(&self) -> Option<CcAuditInfo> {
        None
    }
}

/// The paper's deployed CNP interval `N` (Fig. 14), read by the NP,
/// `HostConfig::default` and `dcqcn::params::DcqcnParams::paper`.
pub const CNP_INTERVAL: Duration = Duration::from_micros(50);

/// The DCQCN notification point (NP) of one flow — the receiver-side CNP
/// generator of §3.1, Figure 6: a CE-marked arrival triggers a CNP unless
/// one was sent for the flow within the last `N` microseconds. It sits
/// beside the RP's interface because the receiving NIC runs it for every
/// algorithm that wants CNPs; `dcqcn::np` re-exports it with the paper's
/// semantics spelled out and tested.
#[derive(Debug, Clone, Copy)]
pub struct NpState {
    interval: Duration,
    last_cnp: Option<Time>,
}

impl NpState {
    /// NP for one flow with CNP pacing interval `N`.
    pub fn new(interval: Duration) -> NpState {
        NpState {
            interval,
            last_cnp: None,
        }
    }

    /// NP with the paper's deployed [`CNP_INTERVAL`].
    pub fn paper() -> NpState {
        NpState::new(CNP_INTERVAL)
    }

    /// A packet for the flow arrived; `marked` is its CE bit. Returns true
    /// when a CNP must be sent now.
    #[inline]
    pub fn on_packet(&mut self, now: Time, marked: bool) -> bool {
        if !marked {
            return false;
        }
        let due = self.since_cnp(now).is_none_or(|gap| gap >= self.interval);
        if due {
            self.last_cnp = Some(now);
        }
        due
    }

    /// Time since the last CNP was generated (`None` before the first).
    #[inline]
    pub(crate) fn since_cnp(&self, now: Time) -> Option<Duration> {
        self.last_cnp.map(|last| now - last)
    }

    /// When the last CNP was generated.
    pub fn last_cnp(&self) -> Option<Time> {
        self.last_cnp
    }
}

/// No congestion control at all: send at line rate forever. This is the
/// paper's "No DCQCN" / PFC-only configuration.
#[derive(Debug, Clone)]
pub struct NoCc {
    line_rate: Bandwidth,
}

impl NoCc {
    /// A flow that always sends at `line_rate`.
    pub fn new(line_rate: Bandwidth) -> NoCc {
        NoCc { line_rate }
    }
}

impl CongestionControl for NoCc {
    fn rate(&self) -> Bandwidth {
        self.line_rate
    }
    fn name(&self) -> &'static str {
        "none"
    }
}

/// Factory that builds a fresh congestion-control instance per flow, given
/// the flow's line rate. Lets experiment code configure hosts declaratively.
pub type CcFactory = Box<dyn Fn(Bandwidth) -> Box<dyn CongestionControl> + Send>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_cc_always_line_rate() {
        let mut cc = NoCc::new(Bandwidth::gbps(40));
        let mut a = CcActions::default();
        cc.on_cnp(Time::ZERO, &mut a);
        cc.on_loss(Time::ZERO, &mut a);
        cc.on_ack(Time::ZERO, 1500, 1, 1, None, &mut a);
        assert_eq!(cc.rate(), Bandwidth::gbps(40));
        assert_eq!(cc.window(), None);
        assert!(a.timers.is_empty());
        assert_eq!(cc.name(), "none");
    }

    #[test]
    fn factory_builds_per_flow_instances() {
        let f: CcFactory = Box::new(|line| Box::new(NoCc::new(line)));
        let cc = f(Bandwidth::gbps(10));
        assert_eq!(cc.rate(), Bandwidth::gbps(10));
    }

    #[test]
    fn actions_arm_and_disarm() {
        let mut a = CcActions::default();
        a.arm(1, Time::from_micros(55));
        a.disarm(1);
        assert_eq!(a.timers.len(), 2);
        assert_eq!(a.timers[1], (1, Time::NEVER));
    }
}
