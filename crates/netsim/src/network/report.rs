//! Read-outs of a run: the machine-readable telemetry report, the
//! dashboard, and the span tracer's derived views. Each section is
//! rendered by the type that owns the data; this file composes them.

use super::{Network, Node};
use crate::packet::FlowId;
use crate::port::Port;
use crate::telemetry::spans::{ChromeTrace, CongestionTree, SpanState, NUM_SPAN_STATES};
use crate::telemetry::{Dashboard, Json};
use crate::units::Duration;

impl Network {
    /// Cold name-based counter lookup (0 for unknown names). The hot path
    /// never uses this — it updates through `ctx.metrics.h` handles.
    pub fn metric(&self, name: &str) -> u64 {
        // Post-run accessor, never inside the dispatch loop (the call
        // graph proves it cold, so no suppression is needed).
        self.ctx.metrics.registry.counter_value(name).unwrap_or(0)
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
            ("fault_drops", Json::UInt(self.ctx.audit.fault_drops())),
            ("flight_dumps", Json::UInt(self.flight_dumps().len() as u64)),
            ("violations", Json::UInt(self.ctx.audit.total_violations())),
        ]);
        let mut report = Json::obj(vec![
            ("audit", audit),
            ("counters", reg.counters_json()),
            ("events_executed", Json::UInt(self.events_executed())),
            ("faults", self.faults.stats().report()),
            ("flows", Json::Arr(flows)),
            ("gauges", reg.gauges_json()),
            ("histograms", reg.histograms_json()),
            ("sim_time_us", Json::Float(now.as_micros_f64())),
            ("timelines", self.sampler.timelines().summary_json()),
        ]);
        let ports = self.nodes.iter().flat_map(Node::ports);
        if let Some(profile) = self.profiler.report(
            self.ctx.queue.peak_pending(),
            self.ctx.pool.capacity(),
            ports.map(Port::peak_queued).sum(),
        ) {
            report.push("profile", profile);
        }
        report
    }

    /// Builds the run's dashboard: one chart per sampled track family
    /// (queue depth, CC rate, goodput, counter rates), span attribution
    /// when span tracing is enabled, and a counter-totals table. A pure
    /// function of the run state, so the rendered file is byte-identical
    /// across machines and `REPRO_THREADS` settings (the CI
    /// `artifact-determinism` job pins this).
    pub fn dashboard(&self, title: &str) -> Dashboard {
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
            .ctx
            .metrics
            .registry
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
