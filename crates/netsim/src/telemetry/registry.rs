//! The metrics the simulator keeps outside any switch, flow or fault
//! engine: two convergence counters behind `Copy` handles, and the three
//! histograms the packet pipeline samples.
//!
//! Every other reported count has one owner — `SwitchStats`,
//! `FlowStats` or `FaultStats` — and `network::report::COUNTERS` names
//! each reported counter beside the owner it reads. A hot-path write here
//! is one array index or one histogram field update: no hashing, no
//! string comparison, no allocation.

use super::hist::Histogram;

/// Handle to one of [`Metrics`]' counter slots. One array index to update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(pub(crate) usize);

/// Handles to the counter slots of [`Metrics`].
#[derive(Debug, Clone, Copy)]
pub struct WellKnown {
    /// Written only by simbench's `telemetry.counter_inc_ns` kernel and
    /// read by nothing: a run's `forwarded` count is owned by the
    /// switches' `SwitchStats`.
    pub forwarded: CounterId,
    /// Convergence audits run (`Network::check_convergence`).
    pub convergence_checks: CounterId,
    /// Violations those audits found.
    pub(crate) convergence_violations: CounterId,
}

/// The counters and histograms one simulation writes itself.
#[derive(Debug, Clone)]
pub struct Metrics {
    /// Handles to the counter slots.
    pub h: WellKnown,
    counts: [u64; 3],
    /// Egress queue depth seen by every data packet a switch forwards.
    pub queue_depth_bytes: Histogram,
    /// Gap between consecutive CNPs a receiver sends for one flow.
    pub(crate) cnp_interarrival_us: Histogram,
    /// How long each PFC pause on a port lasted.
    pub pause_duration_us: Histogram,
}

impl Metrics {
    /// Every counter at 0 and every histogram empty.
    pub fn standard() -> Metrics {
        Metrics {
            h: WellKnown {
                forwarded: CounterId(0),
                convergence_checks: CounterId(1),
                convergence_violations: CounterId(2),
            },
            counts: [0; 3],
            queue_depth_bytes: Histogram::new(),
            cnp_interarrival_us: Histogram::new(),
            pause_duration_us: Histogram::new(),
        }
    }

    /// Increments a counter by 1 (hot path: one array index).
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.counts[id.0] += 1;
    }

    /// Adds `n` to a counter.
    #[inline]
    pub(crate) fn add(&mut self, id: CounterId, n: u64) {
        self.counts[id.0] += n;
    }

    /// Current value of a counter.
    pub(crate) fn get(&self, id: CounterId) -> u64 {
        self.counts[id.0]
    }
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_index_their_own_slots() {
        let mut m = Metrics::standard();
        let h = m.h;
        m.inc(h.convergence_checks);
        m.add(h.convergence_violations, 2);
        assert_eq!(m.get(h.forwarded), 0);
        assert_eq!(m.get(h.convergence_checks), 1);
        assert_eq!(m.get(h.convergence_violations), 2);
    }
}
