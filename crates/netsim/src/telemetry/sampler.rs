//! The periodic sampler: what to watch ([`SamplerConfig`]), the taps
//! bound to their [`TimelineSet`] tracks, the tick that records them, and
//! the look-ups and dashboard charts that read them back. Registration
//! (name formatting, track allocation) is cold; the tick is index
//! arithmetic plus integer adds — no map lookups, no allocation beyond a
//! track's budget-capped growth (its value vector doubling, a time column
//! once if its cadence breaks, then the grid once at the fold).

use super::dash::{Dashboard, Line};
use super::timeline::{
    BucketView, Timeline, TimelineSet, TrackId, TrackKind, DEFAULT_POINT_BUDGET,
};
use crate::event::{Event, NodeId, PortId};
use crate::faults::FaultStats;
use crate::network::report::{find_counter, Counts, ReadCount};
use crate::network::{Ctx, Node};
use crate::packet::FlowId;
use crate::units::Duration;

/// What the periodic sampler records. Every watched quantity becomes a
/// bounded-memory track (see `telemetry::timeline`); read them back
/// through [`Sampler::queue`] / [`Sampler::flow_bytes`] /
/// [`Sampler::flow_rate`] or by name from [`Sampler::timelines`].
#[derive(Debug, Clone, Default)]
pub struct SamplerConfig {
    /// Egress queues to watch: (switch, port) → total data bytes queued.
    /// Track `queue_bytes/<node>:<port>`, kind `Gauge`.
    pub queues: Vec<(NodeId, PortId)>,
    /// Flows whose cumulative delivered bytes to record. Empty = all flows.
    /// Track `flow_bytes/<id>`, kind `Cumulative`.
    pub flows: Vec<FlowId>,
    /// Record every flow even when `flows` lists some. An empty `flows`
    /// records every flow whatever this says.
    pub all_flows: bool,
    /// Flows whose instantaneous CC rate (Gbps) to record (Fig 10/13 style
    /// rate traces). Track `flow_rate_gbps/<id>`, kind `Gauge`.
    pub rate_flows: Vec<FlowId>,
    /// Counters to sample as per-interval deltas of their run totals
    /// (PAUSE/ECN/drop/CNP rates), each read from its owner through
    /// `network::report::COUNTERS` — the sum over the switches or flows,
    /// or the fault engine's tally. Track `rate/<name>`, kind `Counter`;
    /// the names must be reported counters (`enable_sampling` panics
    /// otherwise).
    pub counters: Vec<&'static str>,
}

/// A flow whose instantaneous CC rate the sampler records, resolved to
/// its host/slot once at registration so the per-tick read is two array
/// indexes.
#[derive(Debug, Clone, Copy)]
struct RateTap {
    flow: FlowId,
    host: NodeId,
    slot: usize,
    track: TrackId,
}

/// A counter sampled as per-interval deltas (PAUSE/ECN/CNP/drop rates).
/// `prev` is the counter's run total at the previous tick.
#[derive(Debug, Clone, Copy)]
struct CounterTap {
    read: ReadCount,
    track: TrackId,
    prev: u64,
}

/// The periodic sampler: its tracks, the taps bound to them, and the
/// tick interval (`None` until first configured).
#[derive(Debug, Clone, Default)]
pub struct Sampler {
    timelines: TimelineSet,
    interval: Option<Duration>,
    /// Record delivered bytes for every flow (including ones added after
    /// sampling was enabled).
    all: bool,
    queues: Vec<(NodeId, PortId, TrackId)>,
    rates: Vec<RateTap>,
    counters: Vec<CounterTap>,
    /// Delivered-bytes track per flow, indexed by flow id (`None` for
    /// unsampled flows).
    bytes: Vec<Option<TrackId>>,
}

impl Sampler {
    /// Starts sampling every `interval`, or — when already running —
    /// replaces what is sampled and the interval from the next tick on;
    /// tracks keep their data. `flows` is the network's flow table (each
    /// flow's host and slot, indexed by flow id); `nodes` and `faults`
    /// give each counter tap its starting value.
    ///
    /// # Panics
    /// Panics when `config.counters` names a counter that is not
    /// reported — a config typo, caught up front.
    pub fn configure(
        &mut self,
        interval: Duration,
        config: SamplerConfig,
        flows: &[(NodeId, usize)],
        nodes: &[Node],
        faults: &FaultStats,
        ctx: &mut Ctx,
    ) {
        self.all = config.all_flows || config.flows.is_empty();
        let timelines = &mut self.timelines;
        let mut track =
            |name: String, kind, unit| timelines.track(&name, kind, unit, DEFAULT_POINT_BUDGET);
        let queues = config.queues.iter().map(|&(node, port)| {
            let name = format!("queue_bytes/{}:{}", node.0, port.0);
            (node, port, track(name, TrackKind::Gauge, 1.0))
        });
        self.queues = queues.collect();
        let rates = config.rate_flows.iter().map(|&flow| {
            let (host, slot) = flows[flow.0 as usize];
            // micro-Gbps fixed point
            let track = track(format!("flow_rate_gbps/{}", flow.0), TrackKind::Gauge, 1e-6);
            RateTap {
                flow,
                host,
                slot,
                track,
            }
        });
        self.rates = rates.collect();
        let counts = Counts::new(nodes, ctx, faults);
        let counters = config.counters.iter().map(|name| {
            let read = find_counter(name)
                .unwrap_or_else(|| panic!("enable_sampling: unknown counter '{name}'"));
            CounterTap {
                read,
                track: track(format!("rate/{name}"), TrackKind::Counter, 1.0),
                prev: read(&counts),
            }
        });
        self.counters = counters.collect();
        self.bytes.clear();
        if self.all {
            for id in 0..flows.len() as u64 {
                self.bind_bytes(FlowId(id));
            }
        } else {
            for &id in &config.flows {
                self.bind_bytes(id);
            }
        }
        // One self-rescheduling `Event::Sample` chain per network: a
        // second call swaps what the running chain records and how often,
        // it must not start another (every tick would record twice).
        if self.interval.replace(interval).is_none() {
            let at = ctx.queue.now() + interval;
            ctx.queue.schedule(at, Event::Sample);
        }
    }

    /// A flow was registered: when sampling all flows, bind the newcomer
    /// to its bytes track so flows added mid-run are recorded too.
    pub fn flow_added(&mut self, id: FlowId) {
        if self.interval.is_some() && self.all {
            self.bind_bytes(id);
        }
    }

    /// Registers (or re-finds) a flow's delivered-bytes track and binds
    /// the flow id to it, growing the id-indexed slot table as needed.
    fn bind_bytes(&mut self, id: FlowId) {
        let track = self.timelines.track(
            &format!("flow_bytes/{}", id.0),
            TrackKind::Cumulative,
            1.0,
            DEFAULT_POINT_BUDGET,
        );
        let i = id.0 as usize;
        if i >= self.bytes.len() {
            self.bytes.resize(i + 1, None);
        }
        self.bytes[i] = Some(track);
    }

    /// One sampler tick (`Event::Sample`): records every tap at the
    /// current time and schedules the next tick.
    pub fn tick(&mut self, nodes: &[Node], faults: &FaultStats, ctx: &mut Ctx) {
        let now = ctx.queue.now();
        let timelines = &mut self.timelines;
        for &(node, port, track) in &self.queues {
            let depth = nodes[node.0].port(port).total_queued_bytes();
            timelines.record(track, now, depth);
        }
        // `bytes` is indexed by flow id, ascending: registration order.
        for (i, slot) in self.bytes.iter().enumerate() {
            if let Some(track) = *slot {
                let bytes = ctx.flow_stats.get(i).map_or(0, |s| s.delivered_bytes);
                timelines.record(track, now, bytes);
            }
        }
        for tap in &self.rates {
            let rate = match &nodes[tap.host.0] {
                Node::Host(h) => h.flows[tap.slot].cc.rate().as_gbps_f64(),
                Node::Switch(_) => 0.0,
            };
            timelines.record_f64(tap.track, now, rate);
        }
        let counts = Counts::new(nodes, ctx, faults);
        for tap in &mut self.counters {
            let value = (tap.read)(&counts);
            timelines.record(tap.track, now, value - tap.prev);
            tap.prev = value;
        }
        if let Some(interval) = self.interval {
            ctx.queue.schedule(now + interval, Event::Sample);
        }
    }

    /// Every track recorded so far, by registration order or name.
    pub fn timelines(&self) -> &TimelineSet {
        &self.timelines
    }

    /// The queue-depth timeline of a watched `(node, port)` (`None`
    /// unless sampling was enabled with that queue).
    pub fn queue(&self, node: NodeId, port: PortId) -> Option<&Timeline> {
        self.queues
            .iter()
            .find(|&&(n, p, _)| n == node && p == port)
            .map(|&(_, _, track)| self.timelines.get(track))
    }

    /// A flow's cumulative delivered-bytes timeline (`None` unless the
    /// sampler records it).
    pub fn flow_bytes(&self, flow: FlowId) -> Option<&Timeline> {
        let track = (*self.bytes.get(flow.0 as usize)?)?;
        Some(self.timelines.get(track))
    }

    /// A flow's instantaneous CC-rate timeline in Gbps (`None` unless it
    /// was listed in `SamplerConfig::rate_flows`).
    pub fn flow_rate(&self, flow: FlowId) -> Option<&Timeline> {
        self.rates
            .iter()
            .find(|tap| tap.flow == flow)
            .map(|tap| self.timelines.get(tap.track))
    }

    /// Adds one chart per sampled track family that has taps: queue
    /// depth, CC rate, goodput, counter rates.
    pub(crate) fn charts<'a>(&'a self, d: &mut Dashboard<'a>) {
        // One line per tap, drawn from its track in place: `y` of each
        // bucket against the bucket's time.
        let line = |label: String, track, y: fn(&BucketView) -> f64| {
            Line::track(label, self.timelines.get(track), y)
        };
        let mut chart = |title: &str, unit, lines: Vec<Line<'a>>| {
            if !lines.is_empty() {
                d.lines(title, unit, lines);
            }
        };

        // Queue depth in KB. Plotted at the per-bucket max: the peaks
        // are what PFC/ECN thresholds react to (Fig. 13-class plots).
        let queues = self.queues.iter().map(|&(node, port, track)| {
            line(format!("sw{}:p{}", node.0, port.0), track, |b| {
                b.max / 1000.0
            })
        });
        chart("queue depth", "KB", queues.collect());

        // Instantaneous CC rates (Fig. 7/10/13-class rate traces).
        let rates = self
            .rates
            .iter()
            .map(|tap| line(format!("flow {}", tap.flow.0), tap.track, |b| b.mean()));
        chart("CC rate", "Gbps", rates.collect());

        // Goodput derived from delivered bytes; cap the panel at 8 flows
        // (deterministically the lowest ids) to keep the file readable.
        let mut gseries = Vec::new();
        let mut sampled_flows = 0usize;
        for (i, slot) in self.bytes.iter().enumerate() {
            let Some(track) = slot else { continue };
            let tl = self.timelines.get(*track);
            if tl.count() < 2 {
                continue;
            }
            sampled_flows += 1;
            if gseries.len() >= 8 {
                continue;
            }
            gseries.push(Line::goodput(format!("flow {i}"), tl));
        }
        if sampled_flows > 8 {
            let title = format!("goodput (first 8 of {sampled_flows} flows)");
            chart(&title, "Gbps", gseries);
        } else {
            chart("goodput", "Gbps", gseries);
        }

        // Control-plane rates: sampled counter deltas per interval.
        let counters = self.counters.iter().map(|tap| {
            let name = self.timelines.name(tap.track);
            let label = name.trim_start_matches("rate/").to_string();
            line(label, tap.track, |b| b.sum)
        });
        chart("control frames / interval", "count", counters.collect());
    }
}
