//! Read-outs of a run: the machine-readable telemetry report, the
//! dashboard, and the span tracer's derived views. Each section is
//! rendered by the type that owns the data; this file composes them.

use super::{Ctx, Network, Node};
use crate::faults::FaultStats;
use crate::packet::FlowId;
use crate::port::Port;
use crate::stats::{FlowStats, SwitchStats};
use crate::telemetry::spans::{ChromeTrace, CongestionTree, SpanState, NUM_SPAN_STATES};
use crate::telemetry::{CounterId, Dashboard, Histogram, Json};
use crate::units::Duration;

/// The run total of counter `id`, and the one place that knows who owns
/// which count. A standard counter kept by a switch, a flow or the fault
/// engine is the sum of that field over its owners (its registry slot is
/// never written); any other counter is its registry slot.
pub fn counter(nodes: &[Node], ctx: &Ctx, faults: &FaultStats, id: CounterId) -> u64 {
    let switches = |field: fn(&SwitchStats) -> u64| -> u64 {
        let stats = nodes.iter().filter_map(|node| match node {
            Node::Switch(s) => Some(&s.stats),
            Node::Host(_) => None,
        });
        stats.map(field).sum()
    };
    let flows = |field: fn(&FlowStats) -> u64| -> u64 { ctx.flow_stats.iter().map(field).sum() };
    let h = &ctx.metrics.h;
    match id {
        _ if id == h.ecn_marks => switches(|s| s.ecn_marks),
        _ if id == h.pause_tx => switches(|s| s.pause_tx),
        _ if id == h.pause_rx => switches(|s| s.pause_rx),
        _ if id == h.resume_tx => switches(|s| s.resume_tx),
        _ if id == h.drops_pool => switches(|s| s.drops_pool),
        _ if id == h.drops_lossy => switches(|s| s.drops_lossy),
        _ if id == h.forwarded => switches(|s| s.forwarded),
        _ if id == h.watchdog_trips => switches(|s| s.watchdog_trips),
        _ if id == h.watchdog_restores => switches(|s| s.watchdog_restores),
        _ if id == h.retx_pkts => flows(|f| f.retx_pkts),
        _ if id == h.timeouts => flows(|f| f.timeouts),
        _ if id == h.nacks_sent => flows(|f| f.nacks_sent),
        _ if id == h.cnps_sent => flows(|f| f.cnps_sent),
        _ if id == h.completions => flows(|f| f.completions.len() as u64),
        _ if id == h.qp_teardowns => flows(|f| u64::from(f.aborted)),
        _ if id == h.fault_drops => faults.link_drops + faults.crc_drops,
        _ if id == h.link_transitions => faults.transitions,
        _ if id == h.storm_pauses => faults.storm_pauses,
        _ => ctx.metrics.registry.counter_get(id),
    }
}

impl Network {
    /// Cold name-based counter lookup: the run total of a registered
    /// counter (see [`counter`]). The hot path never uses this.
    ///
    /// # Panics
    /// Panics when no counter is registered under `name`: a typo must not
    /// read as a silently wrong 0.
    pub fn metric(&self, name: &str) -> u64 {
        let id = self
            .ctx
            .metrics
            .registry
            .counter_id(name)
            .unwrap_or_else(|| panic!("metric: unknown counter '{name}'"));
        counter(&self.nodes, &self.ctx, &self.faults.stats(), id)
    }

    /// Every registered counter as `(name, run total)`, in registration
    /// order: the report's `counters` section and the dashboard's table.
    fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        let faults = self.faults.stats();
        let registry = &self.ctx.metrics.registry;
        registry
            .counters()
            .map(move |(name, id)| (name, counter(&self.nodes, &self.ctx, &faults, id)))
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

    /// Builds the machine-readable run report: every registered counter,
    /// gauge and histogram, per-flow stats, fault/audit tallies, and (with
    /// `--features profile`) the event-loop profile. Deterministic for a
    /// deterministic run — same topology, workload and seed ⇒ identical
    /// JSON (the profile section is host-clock data and is only present
    /// when that feature is compiled in).
    pub fn telemetry_report(&self) -> Json {
        let now = self.now();
        let reg = &self.ctx.metrics.registry;
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
            ("gauges", reg.gauges_json()),
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

    /// The report's `histograms` section: each registry slot, except that
    /// `fct_us` is folded from its owner, every flow's `completions` (a
    /// log2 histogram does not depend on sample order).
    fn histograms_json(&self) -> Json {
        let mut fct = Histogram::new();
        for c in self.ctx.flow_stats.iter().flat_map(|s| &s.completions) {
            fct.observe(c.at.saturating_since(c.started).as_micros_f64() as u64);
        }
        let reg = &self.ctx.metrics.registry;
        let fct_slot = reg.hist_get(self.ctx.metrics.h.fct_us);
        let hists = reg.histograms().map(|(name, h)| {
            let h = if std::ptr::eq(h, fct_slot) { &fct } else { h };
            (name, h.summary_json())
        });
        Json::obj(hists.collect())
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

        // End-of-run counter totals (nonzero only, registration order).
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
