//! The network: nodes, links, the event loop, and the experiment-facing
//! API (build a topology, add flows, inject messages, run, read stats).
//!
//! This file is the fabric state and the loop. Each other concern has one
//! owner: construction in [`build`], fault actions and route repair in
//! `faults`, the post-fault convergence audit in `converge`, reports and
//! the dashboard in `report`, and periodic sampling in
//! [`crate::telemetry::sampler`].

mod build;
mod converge;
mod faults;
mod report;

pub use build::NetworkBuilder;
pub use report::counter;

use crate::audit::Auditor;
use crate::cc::CongestionControl;
use crate::event::{Event, EventQueue, LinkId, NodeId, PortId, TimerKind};
use crate::faults::{FaultEngine, WireFate};
use crate::host::Host;
use crate::packet::{FlowId, Priority};
use crate::port::Port;
use crate::rng::SplitMix64;
use crate::routing::Edge;
use crate::slab::PacketPool;
use crate::stats::{FlowStats, SamplerConfig, SwitchStats};
use crate::switch::Switch;
use crate::telemetry::profile::Profiler;
use crate::telemetry::recorder::{FlightDump, FlightRecorder};
use crate::telemetry::spans::Spans;
use crate::telemetry::{Metrics, Sampler};
use crate::trace::{TraceEvent, TraceKind, Tracer};
use crate::units::{Bandwidth, Duration, Time};

/// A node is either a switch or a host.
// A host carries its one port inline and a switch its ports in a `Vec`;
// the node table is built once, so the padding costs ~300 B per switch.
#[allow(clippy::large_enum_variant)]
pub enum Node {
    /// A shared-buffer switch.
    Switch(Switch),
    /// An end host with one NIC.
    Host(Host),
}

impl Node {
    /// The node's ports: a switch's port table, a host's one NIC.
    pub fn ports(&self) -> &[Port] {
        match self {
            Node::Switch(s) => &s.ports,
            Node::Host(h) => std::slice::from_ref(&h.port),
        }
    }

    /// One port of the node (a host's NIC answers to every index).
    #[inline]
    pub fn port(&self, port: PortId) -> &Port {
        match self {
            Node::Switch(s) => &s.ports[port.0],
            Node::Host(h) => &h.port,
        }
    }
}

/// Mutable context threaded through node callbacks: the event queue, the
/// simulator RNG, and global per-flow statistics. Kept separate from the
/// node table so node methods can borrow both.
pub struct Ctx {
    /// The event queue (also the clock).
    pub queue: EventQueue,
    /// Simulator-internal randomness (RED sampling).
    pub rng: SplitMix64,
    /// Per-run ECMP hash salt.
    pub ecmp_salt: u64,
    /// Per-flow counters, indexed by flow id (ids are handed out
    /// sequentially from 0, so a flat Vec beats hashing on every packet).
    pub flow_stats: Vec<FlowStats>,
    /// Packet-level event tracer (disabled unless enabled on the network).
    pub tracer: Tracer,
    /// Runtime invariant auditor (active only with the `sanitize`
    /// feature; otherwise every call is an inlined no-op).
    pub audit: Auditor,
    /// The telemetry metrics registry. Hot-path updates go through the
    /// `Copy` handles in `metrics.h` — one array index, no hashing.
    pub metrics: Metrics,
    /// Per-node flight recorder (disabled by default; auto-enabled when
    /// the sanitize auditor is compiled in).
    pub flight: FlightRecorder,
    /// Span-based causal tracer (disabled unless enabled on the network;
    /// every hook is one branch when off).
    pub spans: Spans,
    /// Slab of in-flight packets: `Event::Deliver` carries a handle into
    /// this pool, recycled when the event dispatches.
    pub pool: PacketPool,
}

impl Ctx {
    /// Mutable access to a flow's counters (created on first touch).
    pub fn stats(&mut self, id: FlowId) -> &mut FlowStats {
        let i = id.0 as usize;
        if i >= self.flow_stats.len() {
            self.flow_stats.resize_with(i + 1, FlowStats::default);
        }
        &mut self.flow_stats[i]
    }

    /// Schedules host `node`'s timer `kind` to fire at `at`.
    #[inline]
    pub(crate) fn schedule_timer(&mut self, at: Time, node: NodeId, kind: TimerKind) {
        self.queue.schedule(at, Event::Timer { node, kind });
    }

    /// Records that `kind` happened at `node`, now, to both the packet
    /// tracer and the flight recorder (each is one branch when disabled).
    /// `flow` is `FlowId(u64::MAX)` when no flow is involved; `detail` is
    /// per kind (see [`TraceEvent::detail`]).
    #[inline]
    pub(crate) fn record_trace(
        &mut self,
        node: NodeId,
        flow: FlowId,
        kind: TraceKind,
        detail: u64,
    ) {
        let event = TraceEvent {
            at: self.queue.now(),
            node,
            flow,
            kind,
            detail,
        };
        self.tracer.record(event);
        self.flight.record(event);
    }
}

/// One-shot mutation executed at a scheduled time (start flows, flip
/// configuration mid-run).
pub type Hook = Box<dyn FnMut(&mut Network)>;

/// A fully built network plus its simulation state.
pub struct Network {
    /// All nodes.
    pub nodes: Vec<Node>,
    /// Event queue, RNG, per-flow stats.
    pub ctx: Ctx,
    /// All links, indexed by [`LinkId`] (declaration order).
    edges: Vec<Edge>,
    /// Route destinations (every host), kept for failover recomputation.
    dests: Vec<NodeId>,
    /// Fault-injection engine. Inactive (one dead branch on the Deliver
    /// path) unless a fault plan is installed or a link is toggled.
    faults: FaultEngine,
    /// The flow table: each flow's source host and its slot in that
    /// host's `flows`, indexed by flow id. Ids are handed out
    /// sequentially from 0, so `0..flows.len()` is also registration
    /// order — the order reports, dashboards and the sampler walk flows.
    flows: Vec<(NodeId, usize)>,
    /// The periodic sampler and its bounded-memory tracks (idle until
    /// [`Network::enable_sampling`]).
    sampler: Sampler,
    hooks: Vec<Option<Hook>>,
    /// Event-loop self-profiler (`--features profile`; no-op otherwise).
    profiler: Profiler,
    /// How many recorded auditor violations have already triggered a
    /// flight-recorder dump (cursor into `audit.violations()`).
    dumped_violations: usize,
    /// Reusable buffer for same-timestamp event cohorts (see `run_until`);
    /// held on the network so the allocation survives across calls.
    batch: Vec<Event>,
}

impl Network {
    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.ctx.queue.now()
    }

    /// Borrow a host.
    pub fn host(&self, id: NodeId) -> &Host {
        match &self.nodes[id.0] {
            Node::Host(h) => h,
            Node::Switch(_) => panic!("node {} is a switch", id.0),
        }
    }

    /// Mutably borrow a host.
    pub(crate) fn host_mut(&mut self, id: NodeId) -> &mut Host {
        match &mut self.nodes[id.0] {
            Node::Host(h) => h,
            Node::Switch(_) => panic!("node {} is a switch", id.0),
        }
    }

    /// Borrow a switch.
    pub fn switch(&self, id: NodeId) -> &Switch {
        match &self.nodes[id.0] {
            Node::Switch(s) => s,
            Node::Host(_) => panic!("node {} is a host", id.0),
        }
    }

    /// Mutably borrow a switch.
    pub fn switch_mut(&mut self, id: NodeId) -> &mut Switch {
        match &mut self.nodes[id.0] {
            Node::Switch(s) => s,
            Node::Host(_) => panic!("node {} is a host", id.0),
        }
    }

    /// A switch's counters.
    pub fn switch_stats(&self, id: NodeId) -> SwitchStats {
        self.switch(id).stats
    }

    /// Line rate of a host's NIC.
    pub fn line_rate(&self, host: NodeId) -> Bandwidth {
        self.host(host).line_rate()
    }

    /// The link connecting `a` and `b` directly (either order), if any.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.edges
            .iter()
            .position(|&(x, _, y, _)| (x == a && y == b) || (x == b && y == a))
            .map(LinkId)
    }

    /// Every registered flow id, in registration order.
    fn flow_ids(&self) -> impl Iterator<Item = FlowId> {
        (0..self.flows.len() as u64).map(FlowId)
    }

    /// Registers a flow from `src` to `dst`; `make_cc` receives the NIC
    /// line rate and returns the flow's congestion-control instance.
    pub fn add_flow(
        &mut self,
        src: NodeId,
        dst: NodeId,
        priority: Priority,
        make_cc: impl FnOnce(Bandwidth) -> Box<dyn CongestionControl>,
    ) -> FlowId {
        let id = FlowId(self.flows.len() as u64);
        let line = self.line_rate(src);
        let idx = self
            .host_mut(src)
            .add_flow(id, dst, priority, make_cc(line));
        self.flows.push((src, idx));
        self.ctx.stats(id); // materialize the flow's counters
        self.sampler.flow_added(id);
        id
    }

    /// Schedules `bytes` to be handed to `flow` at time `at` (clamped to
    /// now). Use `u64::MAX` for a greedy, never-ending flow.
    pub fn send_message(&mut self, flow: FlowId, bytes: u64, at: Time) {
        let (host, idx) = self.flows[flow.0 as usize];
        let at = at.max(self.ctx.queue.now());
        self.ctx
            .schedule_timer(at, host, TimerKind::MessageArrival { flow: idx, bytes });
    }

    /// A flow's counters.
    pub fn flow_stats(&self, flow: FlowId) -> &FlowStats {
        &self.ctx.flow_stats[flow.0 as usize]
    }

    /// A flow's current CC rate.
    pub fn flow_rate(&self, flow: FlowId) -> Bandwidth {
        let (host, idx) = self.flows[flow.0 as usize];
        self.host(host).flows[idx].cc.rate()
    }

    /// Average receiver goodput of a flow over `[from, to]`, in Gbps,
    /// computed from delivered bytes.
    ///
    /// Uses the flow's sampled delivered-bytes timeline (exact at the
    /// boundaries while the track's bucket width is finer than the
    /// sampling interval — true for every experiment cadence in the
    /// harness). Without a sampled track only the whole run so far,
    /// `from == Time::ZERO && to == now()`, is answerable, from the
    /// flow's total counters.
    ///
    /// # Panics
    /// Panics unless `from < to`: an empty window has no rate (it would
    /// read `NaN`) and a reversed one a wrapped duration. Panics when
    /// asked about any window but the whole run of an unsampled flow —
    /// the whole-run average would be a silently wrong figure; call
    /// [`Network::enable_sampling`] before the run.
    pub fn goodput_gbps(&self, flow: FlowId, from: Time, to: Time) -> f64 {
        assert!(
            from < to,
            "goodput_gbps: flow {} asked about [{from}, {to}], which is empty or \
             reversed; a rate needs from < to",
            flow.0
        );
        let dt = (to - from).as_secs_f64();
        if let Some(tl) = self.sampler.flow_bytes(flow) {
            if tl.count() > 0 {
                let at = |t: Time| tl.value_at(t).unwrap_or(0.0);
                return (at(to) - at(from)) * 8.0 / dt / 1e9;
            }
        }
        assert!(
            from == Time::ZERO && to == self.now(),
            "goodput_gbps: flow {} has no sampled track, so only the whole run \
             [0, now] is answerable, not [{from}, {to}]; call enable_sampling first",
            flow.0
        );
        let st = &self.ctx.flow_stats[flow.0 as usize];
        st.delivered_bytes as f64 * 8.0 / dt / 1e9
    }

    /// Enables periodic sampling every `interval`: each watched queue,
    /// flow and counter named by `config` becomes a bounded-memory track
    /// of [`Network::sampler`] (see [`Sampler::configure`], also for what
    /// a second call does and when this panics).
    pub fn enable_sampling(&mut self, interval: Duration, config: SamplerConfig) {
        let faults = self.faults.stats();
        self.sampler.configure(
            interval,
            config,
            &self.flows,
            &self.nodes,
            &faults,
            &mut self.ctx,
        );
    }

    /// The periodic sampler: its tracks and per-queue / per-flow
    /// look-ups (all empty unless [`Network::enable_sampling`] was called).
    pub fn sampler(&self) -> &Sampler {
        &self.sampler
    }

    /// Enables packet-level tracing with a ring of `capacity` events.
    ///
    /// A `capacity` of 0 means "no tracing": the tracer is returned to
    /// its disabled state (one branch per record) rather than an
    /// always-empty ring that still pays the record cost.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.ctx.tracer.enable(capacity);
    }

    /// The recorded trace (empty unless [`Network::enable_trace`] was
    /// called).
    pub fn trace(&self) -> &Tracer {
        &self.ctx.tracer
    }

    /// Enables span-based causal tracing (see `telemetry::spans`): up to
    /// `capacity` closed spans per flow plus bounded hop spans and
    /// PAUSE-propagation edges. A `capacity` of 0 disables it.
    pub fn enable_spans(&mut self, capacity: usize) {
        self.ctx.spans.enable(capacity);
    }

    /// The causal-tracing recorder (inert unless
    /// [`Network::enable_spans`] was called).
    pub fn spans(&self) -> &Spans {
        &self.ctx.spans
    }

    /// Moves the causal-tracing recorder out, leaving tracing disabled:
    /// for a caller that is done simulating and wants what was recorded
    /// (to render a Chrome trace later) without keeping the fabric.
    pub fn take_spans(&mut self) -> Spans {
        std::mem::take(&mut self.ctx.spans)
    }

    /// Enables the per-node flight recorder with `capacity` events per
    /// node (on by default when the `sanitize` feature is compiled in).
    /// A `capacity` of 0 turns it off.
    pub fn enable_flight_recorder(&mut self, capacity: usize) {
        self.ctx.flight.enable(capacity);
    }

    /// Flight-recorder dumps taken so far (violations and QP teardowns).
    pub fn flight_dumps(&self) -> &[FlightDump] {
        self.ctx.flight.dumps()
    }

    /// The runtime invariant auditor's findings (always empty without the
    /// `sanitize` feature).
    pub fn audit(&self) -> &Auditor {
        &self.ctx.audit
    }

    /// Total events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.ctx.queue.events_executed()
    }

    /// Schedules a one-shot mutation of the network at time `at`.
    pub fn schedule_hook(&mut self, at: Time, hook: Hook) {
        let id = self.hooks.len();
        self.hooks.push(Some(hook));
        self.ctx.queue.schedule(at, Event::Hook { id });
    }

    /// Runs the simulation until (and including) events at `until`.
    pub fn run_until(&mut self, until: Time) {
        // Events sharing a timestamp are drained from the queue as one
        // cohort and dispatched back-to-back, skipping the scheduler's
        // bucket/heap machinery between them. Order is unchanged: anything
        // a dispatch schedules at the same timestamp gets a higher seq
        // than the whole drained cohort and forms the *next* cohort.
        // The buffer is taken out of `self` so `dispatch` (which may run
        // arbitrary hooks) can borrow the network freely.
        let mut batch = std::mem::take(&mut self.batch);
        while let Some(t) = self.ctx.queue.pop_batch(until, &mut batch) {
            for event in batch.drain(..) {
                self.ctx.audit.on_event(t);
                let kind = if Profiler::enabled() {
                    event.kind_index()
                } else {
                    0
                };
                // `mark` is `()` without the profile feature.
                #[allow(clippy::let_unit_value)]
                let mark = self.profiler.mark();
                self.dispatch(event);
                self.profiler.on_event(kind, mark);
                if self.ctx.audit.buffer_check_due() {
                    self.audit_buffers_now();
                }
                self.dump_new_violations();
            }
        }
        self.batch = batch;
        // The loop leaves the clock at the last *popped* event, which may
        // fall well short of `until` (or never move at all in an idle
        // window). Land on the horizon itself so spans, telemetry
        // timestamps, and back-to-back `run_until` calls all measure the
        // window the caller asked for.
        self.ctx.queue.advance_clock(until);
    }

    /// Snapshots the flight recorder for every auditor violation recorded
    /// since the last sweep that names a node. The comparison is a dead
    /// branch without the sanitize feature (`violations()` is a constant
    /// empty slice); the loop is a cold path.
    #[inline]
    fn dump_new_violations(&mut self) {
        let Ctx { audit, flight, .. } = &mut self.ctx;
        let violations = audit.violations();
        if violations.len() == self.dumped_violations {
            return;
        }
        for v in &violations[self.dumped_violations..] {
            if let Some(node) = v.node {
                // simlint: allow(hot-alloc) only for a newly recorded violation; per event this fn is one length comparison
                flight.dump(node, v.at, &format!("{:?}: {}", v.kind, v.context));
            }
        }
        self.dumped_violations = violations.len();
    }

    /// Runs the shared-buffer conservation check on every switch and the
    /// queue conservation check on every port right now. The event loop
    /// does this periodically on its own; tests call it directly to audit
    /// a hand-corrupted state.
    pub fn audit_buffers_now(&mut self) {
        let now = self.ctx.queue.now();
        let Network { nodes, ctx, .. } = self;
        for (id, node) in nodes.iter().enumerate() {
            if let Node::Switch(s) = node {
                ctx.audit.check_buffer(
                    s.id,
                    s.buffer.occupied(),
                    s.buffer.ingress_total(),
                    s.buffer.config().total_bytes,
                    now,
                );
            }
            for (p, port) in node.ports().iter().enumerate() {
                port.check_conservation(&mut |what| {
                    ctx.audit.on_port_mismatch(NodeId(id), p, what, now)
                });
            }
        }
        // Tests call this directly (outside the event loop), so sweep for
        // dumps here too, not only in `run_until`.
        self.dump_new_violations();
    }

    fn dispatch(&mut self, event: Event) {
        // Borrowed apart so node handlers can take `ctx` beside their
        // node; the `Hook` and `Fault` arms use the whole network instead.
        let Network {
            nodes,
            ctx,
            faults,
            sampler,
            ..
        } = self;
        match event {
            Event::Deliver { node, port, pkt } => {
                // Reclaim the pooled slot first: dropped-by-fault packets
                // must recycle too, or the slab would leak per drop.
                let pkt = ctx.pool.take(pkt);
                // One dead branch when no faults are injected: with the
                // engine inactive this path is byte-identical to a
                // fault-free build.
                if faults.active() {
                    if let Some(att) = nodes[node.0].port(port).attach {
                        let fate = faults.wire_fate(att.link);
                        if fate != WireFate::Deliver {
                            ctx.record_trace(
                                node,
                                pkt.flow,
                                TraceKind::FaultDropped,
                                (fate == WireFate::CrcDrop) as u64,
                            );
                            return;
                        }
                    }
                }
                match &mut nodes[node.0] {
                    Node::Switch(s) => s.receive(ctx, port, pkt),
                    Node::Host(h) => h.receive(ctx, pkt),
                }
            }
            Event::TxDone { node, port } => match &mut nodes[node.0] {
                Node::Switch(s) => s.tx_done(ctx, port),
                Node::Host(h) => h.tx_done(ctx),
            },
            Event::Timer { node, kind } => match &mut nodes[node.0] {
                Node::Host(h) => h.timer(ctx, kind),
                Node::Switch(_) => unreachable!("switches have no timers"),
            },
            Event::Sample => sampler.tick(nodes, &faults.stats(), ctx),
            Event::Hook { id } => {
                if let Some(mut hook) = self.hooks[id].take() {
                    hook(self);
                }
            }
            Event::Fault { action } => self.apply_fault(action),
            Event::Watchdog {
                node,
                port,
                class,
                restore,
            } => match &mut nodes[node.0] {
                Node::Switch(s) => s.watchdog(ctx, port, class, restore),
                // Hosts have no watchdog; a stray event is a no-op.
                Node::Host(_) => {}
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::NoCc;
    use crate::packet::DATA_PRIORITY;

    fn tiny() -> (Network, NodeId, NodeId) {
        let mut b = NetworkBuilder::new(1);
        let sw = b.switch(crate::switch::SwitchConfig::paper_default());
        let h1 = b.host(crate::host::HostConfig::default());
        let h2 = b.host(crate::host::HostConfig::default());
        b.connect(h1, sw, Bandwidth::gbps(40), Duration::from_micros(1));
        b.connect(h2, sw, Bandwidth::gbps(40), Duration::from_micros(1));
        (b.build(), h1, h2)
    }

    #[test]
    fn flow_ids_are_sequential_and_locatable() {
        let (mut net, h1, h2) = tiny();
        let f0 = net.add_flow(h1, h2, DATA_PRIORITY, |l| Box::new(NoCc::new(l)));
        let f1 = net.add_flow(h2, h1, DATA_PRIORITY, |l| Box::new(NoCc::new(l)));
        assert_eq!(
            (f0, f1),
            (crate::packet::FlowId(0), crate::packet::FlowId(1))
        );
        assert_eq!(net.flow_rate(f0), Bandwidth::gbps(40));
        assert_eq!(net.flow_stats(f1).sent_pkts, 0);
    }

    #[test]
    #[should_panic(expected = "the index is 7")]
    fn unknown_flow_ids_fail_loudly() {
        let (mut net, h1, h2) = tiny();
        net.add_flow(h1, h2, DATA_PRIORITY, |l| Box::new(NoCc::new(l)));
        net.send_message(crate::packet::FlowId(7), 1000, Time::ZERO);
    }

    #[test]
    fn run_until_respects_the_horizon() {
        let (mut net, h1, h2) = tiny();
        let f = net.add_flow(h1, h2, DATA_PRIORITY, |l| Box::new(NoCc::new(l)));
        net.send_message(f, u64::MAX, Time::ZERO);
        net.run_until(Time::from_micros(100));
        assert!(net.now() <= Time::from_micros(100));
        let sent_100us = net.flow_stats(f).sent_pkts;
        net.run_until(Time::from_micros(200));
        assert!(net.flow_stats(f).sent_pkts > sent_100us, "resumable");
    }

    /// Regression: `run_until` used to leave `now()` at the last popped
    /// event, so an idle window (or the gap after the final event) was
    /// invisible to spans and telemetry, and repeated calls compounded
    /// the shortfall.
    #[test]
    fn run_until_advances_the_clock_to_the_horizon() {
        let (mut net, h1, h2) = tiny();
        let f = net.add_flow(h1, h2, DATA_PRIORITY, |l| Box::new(NoCc::new(l)));
        // A short message drains long before 1 ms.
        net.send_message(f, 3000, Time::ZERO);
        net.run_until(Time::from_millis(1));
        assert_eq!(net.now(), Time::from_millis(1));
        // A completely idle window must still advance the clock.
        net.run_until(Time::from_millis(2));
        assert_eq!(net.now(), Time::from_millis(2));
        // And events scheduled after idle windows still run in order.
        net.send_message(f, 3000, net.now());
        net.run_until(Time::from_millis(3));
        assert_eq!(net.now(), Time::from_millis(3));
        assert_eq!(net.flow_stats(f).completions.len(), 2);
    }

    #[test]
    #[should_panic(expected = "is a switch")]
    fn host_accessor_rejects_switches() {
        let (net, _, _) = tiny();
        let _ = net.host(NodeId(0));
    }

    #[test]
    #[should_panic(expected = "is a host")]
    fn switch_accessor_rejects_hosts() {
        let (net, h1, _) = tiny();
        let _ = net.switch(h1);
    }

    #[test]
    fn send_message_clamps_past_times_to_now() {
        let (mut net, h1, h2) = tiny();
        let f = net.add_flow(h1, h2, DATA_PRIORITY, |l| Box::new(NoCc::new(l)));
        net.send_message(f, 1000, Time::ZERO);
        net.run_until(Time::from_millis(1));
        // Scheduling "in the past" now must not panic.
        net.send_message(f, 1000, Time::ZERO);
        net.run_until(Time::from_millis(2));
        assert_eq!(net.flow_stats(f).completions.len(), 2);
    }
}
