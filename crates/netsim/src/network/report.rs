//! Read-outs of a run: the machine-readable telemetry report, the
//! dashboard, and the span tracer's derived views. Each section is
//! rendered by the type that owns the data; this file composes them.

use super::{Ctx, Network, Node};
use crate::faults::FaultStats;
use crate::packet::FlowId;
use crate::port::Port;
use crate::stats::{FlowStats, SwitchStats};
use crate::telemetry::spans::{ChromeTrace, CongestionTree, SpanState, NUM_SPAN_STATES};
use crate::telemetry::{Dashboard, Histogram, Json, Metrics};
use crate::units::Duration;

/// Everything a reported counter is read from: the switches, the flows'
/// stats, the fault engine's tallies and the simulator's own [`Metrics`].
pub(crate) struct Counts<'a> {
    nodes: &'a [Node],
    flows: &'a [FlowStats],
    faults: &'a FaultStats,
    metrics: &'a Metrics,
}

impl<'a> Counts<'a> {
    pub(crate) fn new(nodes: &'a [Node], ctx: &'a Ctx, faults: &'a FaultStats) -> Counts<'a> {
        Counts {
            nodes,
            flows: &ctx.flow_stats,
            faults,
            metrics: &ctx.metrics,
        }
    }

    fn switches(&self, field: fn(&SwitchStats) -> u64) -> u64 {
        let stats = self.nodes.iter().filter_map(|node| match node {
            Node::Switch(s) => Some(&s.stats),
            Node::Host(_) => None,
        });
        stats.map(field).sum()
    }

    fn flows(&self, field: fn(&FlowStats) -> u64) -> u64 {
        self.flows.iter().map(field).sum()
    }
}

/// How one reported counter's run total is read from its owner.
pub(crate) type ReadCount = fn(&Counts<'_>) -> u64;

/// Every reported counter, in report order, beside the owner that counts
/// it: the sum of a `SwitchStats` or `FlowStats` field over all switches
/// or flows, a `FaultStats` tally, or one of the two convergence counts
/// in [`Metrics`]. The one place that knows who owns which count.
pub(crate) const COUNTERS: [(&str, ReadCount); 20] = [
    ("ecn_marks", |c| c.switches(|s| s.ecn_marks)),
    ("pause_tx", |c| c.switches(|s| s.pause_tx)),
    ("pause_rx", |c| c.switches(|s| s.pause_rx)),
    ("resume_tx", |c| c.switches(|s| s.resume_tx)),
    ("drops_pool", |c| c.switches(|s| s.drops_pool)),
    ("drops_lossy", |c| c.switches(|s| s.drops_lossy)),
    ("fault_drops", |c| c.faults.link_drops + c.faults.crc_drops),
    ("forwarded", |c| c.switches(|s| s.forwarded)),
    ("retx_pkts", |c| c.flows(|f| f.retx_pkts)),
    ("timeouts", |c| c.flows(|f| f.timeouts)),
    ("nacks_sent", |c| c.flows(|f| f.nacks_sent)),
    ("cnps_sent", |c| c.flows(|f| f.cnps_sent)),
    ("watchdog_trips", |c| c.switches(|s| s.watchdog_trips)),
    ("watchdog_restores", |c| c.switches(|s| s.watchdog_restores)),
    ("qp_teardowns", |c| c.flows(|f| u64::from(f.aborted))),
    ("completions", |c| c.flows(|f| f.completions.len() as u64)),
    ("link_transitions", |c| c.faults.transitions),
    ("storm_pauses", |c| c.faults.storm_pauses),
    ("convergence_checks", |c| {
        c.metrics.get(c.metrics.h.convergence_checks)
    }),
    ("convergence_violations", |c| {
        c.metrics.get(c.metrics.h.convergence_violations)
    }),
];

/// The reader of the counter named `name` (`None` for an unknown name).
pub(crate) fn find_counter(name: &str) -> Option<ReadCount> {
    COUNTERS
        .iter()
        .find(|&&(n, _)| n == name)
        .map(|&(_, read)| read)
}

impl Network {
    /// Cold name-based counter lookup: the run total of a reported
    /// counter (see `COUNTERS`). The hot path never uses this.
    ///
    /// # Panics
    /// Panics when no counter is reported under `name`: a typo must not
    /// read as a silently wrong 0.
    pub fn metric(&self, name: &str) -> u64 {
        let read = find_counter(name).unwrap_or_else(|| panic!("metric: unknown counter '{name}'"));
        read(&Counts::new(&self.nodes, &self.ctx, &self.faults.stats()))
    }

    /// Every reported counter as `(name, run total)`, in [`COUNTERS`]
    /// order: the report's `counters` section and the dashboard's table.
    fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        let faults = self.faults.stats();
        COUNTERS
            .iter()
            .map(move |&(name, read)| (name, read(&Counts::new(&self.nodes, &self.ctx, &faults))))
    }

    /// A flow's per-state attributed time as of the current simulation
    /// time (see `telemetry::spans` for the decomposition identity).
    pub fn span_breakdown(&self, flow: FlowId) -> Option<[Duration; NUM_SPAN_STATES]> {
        self.ctx.spans.breakdown(flow, self.now())
    }

    /// Folds recorded PAUSE/RESUME edges into the run's congestion tree:
    /// root port(s), aggregated who-paused-whom edges, and victim flows.
    pub fn congestion_tree(&self) -> CongestionTree {
        self.ctx.spans.congestion_tree(self.now())
    }

    /// Everything the span tracer recorded as deterministic Chrome
    /// trace-event JSON (loads in Perfetto / `about://tracing`): a view
    /// to `render()` or `write_to` a file, borrowed from the recorder.
    pub fn chrome_trace(&self) -> ChromeTrace<'_> {
        self.ctx.spans.chrome_trace(self.now())
    }

    /// Builds the machine-readable run report: every reported counter,
    /// the peak shared-buffer occupancy, the histograms, per-flow stats,
    /// fault/audit tallies, and (with `--features profile`) the
    /// event-loop profile. Deterministic for a deterministic run — same
    /// topology, workload and seed ⇒ identical JSON (the profile section
    /// is host-clock data and is only present when that feature is
    /// compiled in).
    pub fn telemetry_report(&self) -> Json {
        let now = self.now();
        let secs = now.as_secs_f64();
        let flows = self
            .flow_ids()
            .map(|id| self.flow_stats(id).report(id.0, secs))
            .collect();
        let audit = Json::obj(vec![
            ("flight_dumps", Json::UInt(self.flight_dumps().len() as u64)),
            ("violations", Json::UInt(self.ctx.audit.total_violations())),
        ]);
        let counters = self.counters().map(|(name, v)| (name, Json::UInt(v)));
        let mut report = Json::obj(vec![
            ("audit", audit),
            ("counters", Json::obj(counters.collect())),
            ("events_executed", Json::UInt(self.events_executed())),
            ("faults", self.faults.stats().report()),
            ("flows", Json::Arr(flows)),
            ("gauges", self.gauges_json()),
            ("histograms", self.histograms_json()),
            ("sim_time_us", Json::Float(now.as_micros_f64())),
            ("timelines", self.sampler.timelines().summary_json()),
        ]);
        let ports = || self.nodes.iter().flat_map(Node::ports);
        if let Some(profile) = self.profiler.report(
            self.ctx.queue.peak_pending(),
            self.ctx.pool.capacity(),
            ports().map(Port::peak_queued).sum(),
            ports().map(Port::slab_bytes).sum(),
            self.ctx.queue.cohort_stats(),
        ) {
            report.push("profile", profile);
        }
        report
    }

    /// The report's `gauges` section: the highest shared-buffer
    /// occupancy any switch reached.
    fn gauges_json(&self) -> Json {
        let peaks = self.nodes.iter().map(|node| match node {
            Node::Switch(s) => s.buffer.peak(),
            Node::Host(_) => 0,
        });
        let peak = peaks.max().unwrap_or(0);
        Json::obj(vec![("peak_buffer_bytes", Json::UInt(peak))])
    }

    /// The report's `histograms` section: the three [`Metrics`] histograms
    /// and `fct_us`, folded from its owner, every flow's `completions` (a
    /// log2 histogram does not depend on sample order).
    fn histograms_json(&self) -> Json {
        let mut fct = Histogram::new();
        for c in self.ctx.flow_stats.iter().flat_map(|s| &s.completions) {
            fct.observe(c.at.saturating_since(c.started).as_micros_f64() as u64);
        }
        let m = &self.ctx.metrics;
        Json::obj(vec![
            ("queue_depth_bytes", m.queue_depth_bytes.summary_json()),
            ("cnp_interarrival_us", m.cnp_interarrival_us.summary_json()),
            ("fct_us", fct.summary_json()),
            ("pause_duration_us", m.pause_duration_us.summary_json()),
        ])
    }

    /// Builds the run's dashboard: one chart per sampled track family
    /// (queue depth, CC rate, goodput, counter rates), span attribution
    /// when span tracing is enabled, and a counter-totals table. A pure
    /// function of the run state, so the rendered file is byte-identical
    /// across machines and `REPRO_THREADS` settings (the CI
    /// `artifact-determinism` job pins this).
    pub fn dashboard(&self, title: &str) -> Dashboard<'_> {
        let now = self.now();
        let mut d = Dashboard::new(title);
        d.fact("sim time", &format!("{:.1} \u{b5}s", now.as_micros_f64()));
        d.fact("events", &self.events_executed().to_string());
        d.fact("flows", &self.flows.len().to_string());
        self.sampler.charts(&mut d);

        // Span attribution: where each flow's time went (first 8 flows
        // with any attributed time).
        if self.ctx.spans.is_enabled() {
            let categories: Vec<String> = SpanState::ALL
                .iter()
                .map(|s| s.name().to_string())
                .collect();
            let mut rows = Vec::new();
            for id in self.flow_ids() {
                if rows.len() >= 8 {
                    break;
                }
                if let Some(parts) = self.ctx.spans.breakdown(id, now) {
                    let vals: Vec<f64> = parts.iter().map(|p| p.as_secs_f64() * 1e6).collect();
                    if vals.iter().sum::<f64>() > 0.0 {
                        rows.push((format!("flow {}", id.0), vals));
                    }
                }
            }
            if !rows.is_empty() {
                d.stacked("span attribution (\u{b5}s per state)", categories, rows);
            }
        }

        // End-of-run counter totals (nonzero only, `COUNTERS` order).
        let totals: Vec<(String, String)> = self
            .counters()
            .filter(|&(_, v)| v > 0)
            .map(|(name, v)| (name.to_string(), v.to_string()))
            .collect();
        if !totals.is_empty() {
            d.table("counters", totals);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::COUNTERS;

    #[test]
    fn counter_names_are_unique_and_in_report_order() {
        let names = COUNTERS.map(|(name, _)| name);
        assert_eq!(
            names,
            [
                "ecn_marks",
                "pause_tx",
                "pause_rx",
                "resume_tx",
                "drops_pool",
                "drops_lossy",
                "fault_drops",
                "forwarded",
                "retx_pkts",
                "timeouts",
                "nacks_sent",
                "cnps_sent",
                "watchdog_trips",
                "watchdog_restores",
                "qp_teardowns",
                "completions",
                "link_transitions",
                "storm_pauses",
                "convergence_checks",
                "convergence_violations",
            ]
        );
        let mut unique = names.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
    }
}
