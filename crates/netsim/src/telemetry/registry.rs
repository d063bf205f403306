//! Metrics registry: named counters, gauges and histograms behind
//! `Copy` handles.
//!
//! Metrics are registered **once** (at network build time) by name; each
//! registration returns a tiny `Copy` id that indexes a plain `Vec`.
//! The hot path — the event loop and the packet pipeline — only ever
//! touches metrics through those ids, so an update is one array index
//! and one add: no hashing, no string comparison, no allocation.
//! Name-based lookup ([`Registry::counter_value`] etc.) walks the name
//! vector linearly and is reserved for cold report-building code.

use super::hist::Histogram;
use super::Json;

/// Handle to a registered counter. One array index to update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(pub(crate) usize);

/// Handle to a registered gauge. One array index to update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(pub(crate) usize);

/// Handle to a registered histogram. One array index to update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(pub(crate) usize);

/// The registry backing all named metrics of one simulation.
#[derive(Debug, Default, Clone)]
pub struct Registry {
    counter_names: Vec<&'static str>,
    counters: Vec<u64>,
    gauge_names: Vec<&'static str>,
    gauges: Vec<u64>,
    hist_names: Vec<&'static str>,
    hists: Vec<Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Registers (or re-finds) a counter by name. Cold path.
    pub fn counter(&mut self, name: &'static str) -> CounterId {
        if let Some(i) = self.counter_names.iter().position(|&n| n == name) {
            return CounterId(i);
        }
        self.counter_names.push(name);
        self.counters.push(0);
        CounterId(self.counters.len() - 1)
    }

    /// Registers (or re-finds) a gauge by name. Cold path.
    pub(crate) fn gauge(&mut self, name: &'static str) -> GaugeId {
        if let Some(i) = self.gauge_names.iter().position(|&n| n == name) {
            return GaugeId(i);
        }
        self.gauge_names.push(name);
        self.gauges.push(0);
        GaugeId(self.gauges.len() - 1)
    }

    /// Registers (or re-finds) a histogram by name. Cold path.
    pub(crate) fn histogram(&mut self, name: &'static str) -> HistId {
        if let Some(i) = self.hist_names.iter().position(|&n| n == name) {
            return HistId(i);
        }
        self.hist_names.push(name);
        self.hists.push(Histogram::new());
        HistId(self.hists.len() - 1)
    }

    /// Increments a counter by 1.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.counters[id.0] += 1;
    }

    /// Adds `n` to a counter.
    #[inline]
    pub(crate) fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0] += n;
    }

    /// Sets a gauge to `v`.
    #[inline]
    pub fn set(&mut self, id: GaugeId, v: u64) {
        self.gauges[id.0] = v;
    }

    /// Raises a gauge to `v` if `v` exceeds its current value
    /// (high-water-mark semantics).
    #[inline]
    pub(crate) fn set_max(&mut self, id: GaugeId, v: u64) {
        if v > self.gauges[id.0] {
            self.gauges[id.0] = v;
        }
    }

    /// Records a histogram sample.
    #[inline]
    pub fn observe(&mut self, id: HistId, v: u64) {
        self.hists[id.0].observe(v);
    }

    /// Current value of a counter handle.
    #[inline]
    pub fn counter_get(&self, id: CounterId) -> u64 {
        self.counters[id.0]
    }

    /// The histogram behind a handle.
    #[inline]
    pub fn hist_get(&self, id: HistId) -> &Histogram {
        &self.hists[id.0]
    }

    /// Cold name-based handle lookup (no registration): the hook for
    /// binding an existing counter to a sampler track once, then reading
    /// it by id on the hot path.
    pub(crate) fn counter_id(&self, name: &str) -> Option<CounterId> {
        let i = self.counter_names.iter().position(|&n| n == name)?;
        Some(CounterId(i))
    }

    /// Cold name-based counter lookup for report code and tests.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        let i = self.counter_names.iter().position(|&n| n == name)?;
        Some(self.counters[i])
    }

    /// All counters as `(name, handle)` in registration order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, CounterId)> + '_ {
        self.counter_names
            .iter()
            .copied()
            .enumerate()
            .map(|(i, name)| (name, CounterId(i)))
    }

    /// All gauges as `(name, value)` in registration order.
    pub(crate) fn gauges(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.gauge_names
            .iter()
            .copied()
            .zip(self.gauges.iter().copied())
    }

    /// All histograms as `(name, histogram)` in registration order.
    pub(crate) fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.hist_names.iter().copied().zip(self.hists.iter())
    }

    /// The `gauges` section of the run report, keyed by name.
    pub(crate) fn gauges_json(&self) -> Json {
        Json::obj(self.gauges().map(|(n, v)| (n, Json::UInt(v))).collect())
    }
}

/// Handles for every metric the simulator itself maintains.
///
/// Registered once by [`Metrics::standard`]; the simulator's hot paths
/// copy these ids out and update through them. Every counter but
/// `convergence_checks` and `convergence_violations` is owned by a
/// switch, flow or fault-engine field (`SwitchStats`, `FlowStats`,
/// `FaultStats`): its registry slot is never written, and
/// `network::counter` reads it as the sum over its owners. Likewise the
/// `fct_us` histogram is folded from `FlowStats::completions` by the run
/// report.
#[derive(Debug, Clone, Copy)]
#[allow(missing_docs)] // field names mirror the metric names one-to-one
pub struct WellKnown {
    pub ecn_marks: CounterId,
    pub pause_tx: CounterId,
    pub pause_rx: CounterId,
    pub resume_tx: CounterId,
    pub drops_pool: CounterId,
    pub drops_lossy: CounterId,
    pub(crate) fault_drops: CounterId,
    pub forwarded: CounterId,
    pub retx_pkts: CounterId,
    pub timeouts: CounterId,
    pub nacks_sent: CounterId,
    pub cnps_sent: CounterId,
    pub watchdog_trips: CounterId,
    pub watchdog_restores: CounterId,
    pub(crate) qp_teardowns: CounterId,
    pub completions: CounterId,
    pub(crate) link_transitions: CounterId,
    pub storm_pauses: CounterId,
    pub convergence_checks: CounterId,
    pub(crate) convergence_violations: CounterId,
    pub(crate) peak_buffer_bytes: GaugeId,
    pub queue_depth_bytes: HistId,
    pub(crate) cnp_interarrival_us: HistId,
    pub(crate) fct_us: HistId,
    pub pause_duration_us: HistId,
}

/// A [`Registry`] plus the standard simulator handles.
#[derive(Debug, Clone)]
pub struct Metrics {
    /// The backing registry. Public so experiments can register their own
    /// metrics and build reports.
    pub registry: Registry,
    /// Handles to the standard simulator metrics.
    pub h: WellKnown,
}

impl Metrics {
    /// Builds a registry pre-populated with every metric the simulator
    /// updates natively.
    pub fn standard() -> Metrics {
        let mut r = Registry::new();
        let h = WellKnown {
            ecn_marks: r.counter("ecn_marks"),
            pause_tx: r.counter("pause_tx"),
            pause_rx: r.counter("pause_rx"),
            resume_tx: r.counter("resume_tx"),
            drops_pool: r.counter("drops_pool"),
            drops_lossy: r.counter("drops_lossy"),
            fault_drops: r.counter("fault_drops"),
            forwarded: r.counter("forwarded"),
            retx_pkts: r.counter("retx_pkts"),
            timeouts: r.counter("timeouts"),
            nacks_sent: r.counter("nacks_sent"),
            cnps_sent: r.counter("cnps_sent"),
            watchdog_trips: r.counter("watchdog_trips"),
            watchdog_restores: r.counter("watchdog_restores"),
            qp_teardowns: r.counter("qp_teardowns"),
            completions: r.counter("completions"),
            link_transitions: r.counter("link_transitions"),
            storm_pauses: r.counter("storm_pauses"),
            convergence_checks: r.counter("convergence_checks"),
            convergence_violations: r.counter("convergence_violations"),
            peak_buffer_bytes: r.gauge("peak_buffer_bytes"),
            queue_depth_bytes: r.histogram("queue_depth_bytes"),
            cnp_interarrival_us: r.histogram("cnp_interarrival_us"),
            fct_us: r.histogram("fct_us"),
            pause_duration_us: r.histogram("pause_duration_us"),
        };
        Metrics { registry: r, h }
    }

    /// Increments a counter by 1 (hot path: one array index).
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.registry.inc(id);
    }

    /// Adds `n` to a counter (hot path: one array index).
    #[inline]
    pub(crate) fn add(&mut self, id: CounterId, n: u64) {
        self.registry.add(id, n);
    }

    /// Raises a gauge high-water mark (hot path: one array index).
    #[inline]
    pub(crate) fn set_max(&mut self, id: GaugeId, v: u64) {
        self.registry.set_max(id, v);
    }

    /// Records a histogram sample (hot path: one array index).
    #[inline]
    pub fn observe(&mut self, id: HistId, v: u64) {
        self.registry.observe(id, v);
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
    fn registration_dedupes_by_name() {
        let mut r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        assert_eq!(a, b);
        r.inc(a);
        r.add(b, 2);
        assert_eq!(r.counter_value("x"), Some(3));
        assert_eq!(r.counter_value("y"), None);
    }

    #[test]
    fn gauge_set_max_is_high_water() {
        let mut r = Registry::new();
        let g = r.gauge("depth");
        r.set_max(g, 10);
        r.set_max(g, 5);
        assert_eq!(r.gauges().collect::<Vec<_>>(), [("depth", 10)]);
        r.set(g, 3);
        assert_eq!(r.gauges().collect::<Vec<_>>(), [("depth", 3)]);
    }

    #[test]
    fn standard_metrics_have_unique_names() {
        let m = Metrics::standard();
        let names: Vec<&str> = m.registry.counters().map(|(n, _)| n).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(names.len(), sorted.len());
        assert_eq!(m.registry.counter_value("ecn_marks"), Some(0));
        assert!(m.registry.histograms().any(|(n, _)| n == "fct_us"));
    }

    #[test]
    fn histogram_handle_round_trip() {
        let mut r = Registry::new();
        let h = r.histogram("lat");
        r.observe(h, 7);
        r.observe(h, 9);
        assert_eq!(r.hist_get(h).count(), 2);
        let named: Vec<_> = r.histograms().map(|(n, h)| (n, h.max())).collect();
        assert_eq!(named, [("lat", 9)]);
    }
}
