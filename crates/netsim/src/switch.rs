//! The shared-buffer switch: ingress admission with PFC, routing with ECMP,
//! RED/ECN marking at egress, strict-priority scheduling.
//!
//! The pipeline for a forwarded packet is:
//!
//! 1. **ingress admission** — charge the shared pool, attributed to the
//!    ingress (port, priority); tail-drop if the pool is exhausted,
//! 2. **PFC check** — if the ingress queue crossed `t_PFC`, PAUSE the
//!    upstream device (§4's static or dynamic-β threshold),
//! 3. **routing** — ECMP among equal-cost shortest-path ports by flow hash,
//! 4. **ECN marking** — RED on the instantaneous egress queue depth,
//! 5. **egress enqueue** — per-priority FIFO; in lossy mode (PFC off for the
//!    class) the queue is capped and overflow is dropped,
//! 6. **transmit** — strict priority, skipping PFC-paused classes; buffer
//!    space is released when serialization completes, at which point RESUME
//!    may fire.

use crate::buffer::{BufferConfig, SharedBuffer};
use crate::ecn::RedConfig;
use crate::event::{Event, NodeId, PortId};
use crate::network::Ctx;
use crate::packet::{FlowId, Packet, PacketKind, CONTROL_PRIORITY};
use crate::port::{Port, Queued, MAX_PORTS};
use crate::rng::mix64;
use crate::routing::RouteTable;
use crate::stats::SwitchStats;
use crate::telemetry::spans::PauseEdge;
use crate::trace::TraceKind;
use crate::units::{Duration, Time};

/// PFC storm watchdog parameters: a port class paused *continuously* for
/// `threshold` trips the watchdog — the switch stops honoring PAUSE for
/// that (port, class) and keeps transmitting, then honors it again
/// `recovery` after the trip. This is the deployed mitigation for the §6
/// malfunctioning-NIC pause storm: without it one stuck receiver freezes
/// every queue upstream of it, forever.
///
/// Real switch watchdogs poll on 100–200 ms granularity; the defaults
/// here are scaled to this simulator's tens-of-milliseconds experiment
/// horizons. The 1:4 threshold:recovery ratio means a persistent storm
/// leaves the victim port transmitting ~80% of the time.
#[derive(Debug, Clone, Copy)]
pub struct PfcWatchdogConfig {
    /// Continuous pause time that trips the watchdog.
    pub threshold: Duration,
    /// How long PAUSE is ignored after a trip.
    pub recovery: Duration,
}

impl Default for PfcWatchdogConfig {
    fn default() -> PfcWatchdogConfig {
        PfcWatchdogConfig {
            threshold: Duration::from_millis(1),
            recovery: Duration::from_millis(4),
        }
    }
}

/// Static configuration of a switch.
#[derive(Debug, Clone)]
pub struct SwitchConfig {
    /// Shared-buffer and PFC threshold parameters.
    pub buffer: BufferConfig,
    /// RED/ECN marking parameters (the DCQCN CP).
    pub red: RedConfig,
    /// Is PFC enabled at all? It then protects every class but
    /// `CONTROL_PRIORITY`.
    pub pfc_enabled: bool,
    /// PFC storm watchdog (`None` = no watchdog, the paper-era default).
    pub watchdog: Option<PfcWatchdogConfig>,
}

impl SwitchConfig {
    /// The paper's production switch configuration: Trident II buffer with
    /// dynamic β = 8 thresholds, marking disabled (enable it via
    /// [`SwitchConfig::with_red`]). As in the deployment, PFC protects the
    /// RDMA data classes; the control class (priority 0, carrying
    /// ACKs/CNPs "with high priority") is served by strict priority and
    /// is not PFC-paused.
    pub fn paper_default() -> SwitchConfig {
        SwitchConfig {
            buffer: BufferConfig::trident2(),
            red: RedConfig::disabled(),
            pfc_enabled: true,
            watchdog: None,
        }
    }

    /// Same configuration with RED/ECN marking enabled.
    pub fn with_red(mut self, red: RedConfig) -> SwitchConfig {
        self.red = red;
        self
    }

    /// Disables PFC (the paper's "DCQCN without PFC" configuration).
    pub fn without_pfc(mut self) -> SwitchConfig {
        self.pfc_enabled = false;
        self
    }

    /// Enables the PFC storm watchdog.
    pub fn with_watchdog(mut self, wd: PfcWatchdogConfig) -> SwitchConfig {
        self.watchdog = Some(wd);
        self
    }
}

/// A switch instance.
pub struct Switch {
    /// This switch's node id.
    pub id: NodeId,
    /// Ports (egress queues + transmitters).
    pub ports: Vec<Port>,
    /// Shared-buffer occupancy and PFC thresholds.
    pub buffer: SharedBuffer,
    /// Configuration.
    pub config: SwitchConfig,
    /// Destination → equal-cost egress ports.
    pub routes: RouteTable,
    /// Counters.
    pub stats: SwitchStats,
    /// Ingress (port, priority) pairs we have currently paused — kept
    /// explicitly so RESUME can be re-evaluated on *any* buffer release
    /// (the dynamic threshold rises as the pool drains, so a pause can
    /// become releasable without traffic on its own ingress).
    paused_ingress: Vec<(usize, usize)>,
}

impl Switch {
    /// Creates a switch with `nports` (unattached) ports. If the topology
    /// needs more ports than the buffer profile's nominal count, the
    /// profile is widened so per-port accounting (and headroom
    /// reservation) covers every real port.
    ///
    /// # Panics
    /// Panics when `nports` exceeds [`MAX_PORTS`], naming the switch.
    pub fn new(id: NodeId, nports: usize, config: SwitchConfig) -> Switch {
        assert!(
            nports <= MAX_PORTS,
            "switch {} has {nports} ports; a switch has at most {MAX_PORTS}",
            id.0
        );
        let mut buf_cfg = config.buffer;
        buf_cfg.num_ports = buf_cfg.num_ports.max(nports);
        Switch {
            id,
            ports: (0..nports).map(|_| Port::new()).collect(),
            buffer: SharedBuffer::new(buf_cfg),
            config,
            routes: RouteTable::new(),
            stats: SwitchStats::default(),
            paused_ingress: Vec::new(),
        }
    }

    /// Is `prio` PFC-protected on this switch? With PFC on, every class
    /// but the control class is.
    pub(crate) fn is_lossless(&self, prio: usize) -> bool {
        self.config.pfc_enabled && prio != CONTROL_PRIORITY as usize
    }

    /// Picks the ECMP egress port for `pkt`, or `None` when unroutable.
    pub(crate) fn route(&self, pkt: &Packet, salt: u64) -> Option<PortId> {
        let ports = self.routes.get(&pkt.dst)?;
        debug_assert!(!ports.is_empty());
        let h = mix64(pkt.flow.0 ^ salt);
        Some(ports[(h % ports.len() as u64) as usize])
    }

    /// Handles a packet delivered to this switch on `in_port`.
    pub fn receive(&mut self, ctx: &mut Ctx, in_port: PortId, pkt: Packet) {
        let now = ctx.queue.now();

        // Link-local PFC frames control our transmitter on that port.
        if let PacketKind::Pfc { class, pause } = pkt.kind {
            self.stats.pause_rx += pause as u64;
            let c = class as usize;
            let port = &mut self.ports[in_port.0];
            let was_paused = port.rx_paused[c];
            let released = port.rx_pfc(ctx, class, pause);
            // Arm one watchdog check chain per (port, class) on the
            // false→true pause transition; the chain re-checks the soft
            // `rx_paused_since` deadline when it fires.
            if let Some(wd) = self.config.watchdog {
                if !was_paused && port.rx_paused[c] && !port.wd_armed[c] {
                    port.wd_armed[c] = true;
                    ctx.queue
                        .schedule(now + wd.threshold, self.watchdog_event(in_port, c, false));
                }
            }
            if released {
                self.try_transmit(ctx, in_port);
            }
            return;
        }

        let prio = pkt.priority as usize;
        let wire = pkt.wire();

        // 1. Shared-pool admission.
        if !self.buffer.admit(in_port.0, prio, wire) {
            self.record_drop(ctx, &pkt, 0);
            return;
        }

        // 2. PFC threshold check on the ingress queue.
        if self.is_lossless(prio)
            && !self.ports[in_port.0].tx_pause_sent[prio]
            && self.buffer.should_pause(in_port.0, prio)
        {
            self.paused_ingress.push((in_port.0, prio));
            self.send_pfc(ctx, in_port.0, prio, true, pkt.flow);
        }

        // 3. Routing.
        let Some(out) = self.route(&pkt, ctx.ecmp_salt) else {
            // Unroutable: release and count as a drop.
            self.buffer.release(in_port.0, prio, wire);
            self.record_drop(ctx, &pkt, 2);
            return;
        };

        let mut pkt = pkt;

        // 4. ECN marking on the instantaneous egress queue depth.
        let egress_depth = self.ports[out.0].queued_bytes[prio];
        if pkt.is_data() {
            ctx.metrics.queue_depth_bytes.observe(egress_depth);
        }
        if pkt.is_data() && self.config.red.should_mark(egress_depth, &mut ctx.rng) && pkt.mark_ce()
        {
            self.stats.ecn_marks += 1;
            ctx.record_trace(self.id, pkt.flow, TraceKind::Marked, egress_depth);
        }

        // 5. Lossy-mode egress cap.
        if !self.is_lossless(prio)
            && egress_depth.saturating_add(wire) > self.buffer.lossy_egress_limit()
        {
            self.buffer.release(in_port.0, prio, wire);
            self.record_drop(ctx, &pkt, 1);
            return;
        }

        // 6. Enqueue and (maybe) start transmitting.
        self.stats.forwarded += 1;
        // Only the hop spans read the enqueue stamp.
        let mut q = Queued::new(pkt, Some((in_port.0, prio)));
        if ctx.spans.is_enabled() {
            q = q.at(now);
        }
        self.ports[out.0].enqueue(q);
        self.try_transmit(ctx, out);
    }

    /// Handles a fired PFC storm watchdog event for `(pid, class)`.
    ///
    /// The check chain uses the same soft-deadline pattern as host RTO
    /// timers: the event re-reads `rx_paused_since` when it fires, so a
    /// pause that was released and re-applied just reschedules the check
    /// instead of tripping spuriously. On a genuine trip the class stops
    /// honoring PAUSE (and resumes transmitting) until the restore event
    /// fires `recovery` later.
    pub fn watchdog(&mut self, ctx: &mut Ctx, pid: PortId, class: usize, restore: bool) {
        let Some(wd) = self.config.watchdog else {
            return;
        };
        let now = ctx.queue.now();
        let port = &mut self.ports[pid.0];
        if restore {
            // Idempotent: a link reset may have cleared the ignore flag
            // before the restore event arrives.
            if port.pfc_ignore[class] {
                port.pfc_ignore[class] = false;
                self.stats.watchdog_restores += 1;
            }
            return;
        }
        if !port.rx_paused[class] || port.rx_paused_since[class] == Time::NEVER {
            port.wd_armed[class] = false;
            return; // pause released since arming: the chain dies
        }
        let trip_at = port.rx_paused_since[class] + wd.threshold;
        if trip_at > now {
            // Paused again, but not yet continuously long enough.
            ctx.queue
                .schedule(trip_at, self.watchdog_event(pid, class, false));
            return;
        }
        // Trip: the chain ends here. Ignore PAUSE, resume transmitting,
        // schedule recovery.
        port.wd_armed[class] = false;
        self.trip_watchdog(ctx, pid, class);
        ctx.queue
            .schedule(now + wd.recovery, self.watchdog_event(pid, class, true));
        self.try_transmit(ctx, pid);
    }

    /// The check (`restore: false`) or recovery event of `(pid, class)`'s
    /// watchdog chain.
    fn watchdog_event(&self, port: PortId, class: usize, restore: bool) -> Event {
        Event::Watchdog {
            node: self.id,
            port,
            class,
            restore,
        }
    }

    /// Test-only firmware-bug emulation (see
    /// [`crate::faults::FaultAction::WedgeWatchdog`]): trips the storm
    /// watchdog on `(pid, class)` exactly like a genuine trip — PAUSE
    /// ignored from here on, transmission resumed, the trip counted — but
    /// never schedules the recovery event, leaving the class wedged. The
    /// convergence auditor must catch the stuck `pfc_ignore`.
    pub fn wedge_watchdog(&mut self, ctx: &mut Ctx, pid: PortId, class: usize) {
        self.trip_watchdog(ctx, pid, class);
        self.try_transmit(ctx, pid);
    }

    /// The state change of a watchdog trip: `(pid, class)` stops honoring
    /// PAUSE, and the trip is counted and traced. A pending check stays
    /// armed (`wd_armed`) and ends its chain when it fires, so a class
    /// never has two.
    fn trip_watchdog(&mut self, ctx: &mut Ctx, pid: PortId, class: usize) {
        let port = &mut self.ports[pid.0];
        port.pfc_ignore[class] = true;
        port.rx_paused[class] = false;
        port.rx_paused_since[class] = Time::NEVER;
        self.stats.watchdog_trips += 1;
        ctx.record_trace(
            self.id,
            FlowId(u64::MAX),
            TraceKind::WatchdogTrip,
            class as u64,
        );
    }

    /// Starts transmission on `pid` if the transmitter is idle and a packet
    /// is eligible.
    pub(crate) fn try_transmit(&mut self, ctx: &mut Ctx, pid: PortId) {
        self.ports[pid.0].start_tx(ctx, self.id, pid);
    }

    /// A packet finished serializing on `pid` and is on the wire: release
    /// its buffer space, check RESUMEs, and keep transmitting.
    pub fn tx_done(&mut self, ctx: &mut Ctx, pid: PortId) {
        if let Some((ing_port, prio, wire)) = self.ports[pid.0].tx_done(ctx, self.id, pid) {
            self.buffer.release(ing_port, prio, wire);
            // Any release can make a paused ingress resumable — its
            // own queue drained, or the pool freed up and the dynamic
            // threshold rose. Re-check every currently paused pair.
            self.check_resumes(ctx);
        }
        self.try_transmit(ctx, pid);
    }

    /// Clears all PFC state on `pid` after a link transition (down or up):
    /// forget pauses received on it, forget pauses we sent over it (the
    /// peer's state is reset in the same transition), and kick the
    /// transmitter in case it was pause-blocked. Without this a dead
    /// link's unanswered PAUSE would freeze the port forever.
    pub(crate) fn reset_link_pfc(&mut self, ctx: &mut Ctx, pid: PortId) {
        self.paused_ingress.retain(|&(p, _)| p != pid.0);
        self.ports[pid.0].reset_pfc();
        self.try_transmit(ctx, pid);
    }

    /// Sends RESUME for every paused ingress (port, priority) whose queue
    /// is now two MTUs below the (possibly dynamic) threshold.
    fn check_resumes(&mut self, ctx: &mut Ctx) {
        let mut i = 0;
        while i < self.paused_ingress.len() {
            let (ing_port, prio) = self.paused_ingress[i];
            if self.buffer.should_resume(ing_port, prio) {
                self.paused_ingress.swap_remove(i);
                self.send_pfc(ctx, ing_port, prio, false, FlowId(u64::MAX));
            } else {
                i += 1;
            }
        }
    }

    /// Sends PAUSE (`pause`) or RESUME upstream of ingress `(ing_port,
    /// prio)`: flips the hysteresis bit, queues the frame ahead of all
    /// data, and tells stats (the one count), auditor, tracer and span
    /// log — the one place either frame is emitted. `flow` is the packet that
    /// crossed `t_PFC` (a RESUME has none: `FlowId(u64::MAX)`).
    fn send_pfc(&mut self, ctx: &mut Ctx, ing_port: usize, prio: usize, pause: bool, flow: FlowId) {
        let port = &mut self.ports[ing_port];
        // Traffic only arrives on attached ports and pauses are only
        // recorded for them; if that ever breaks, skipping the frame (and
        // letting the auditor flag what follows) beats panicking mid-run.
        let Some(att) = port.attach else {
            debug_assert!(false, "PFC for an unattached port");
            return;
        };
        let now = ctx.queue.now();
        port.tx_pause_sent[prio] = pause;
        port.pfc_queue
            .push_back(Packet::pfc(self.id, att.peer, prio as u8, pause));
        let kind = if pause {
            self.stats.pause_tx += 1;
            ctx.audit.on_pause(self.id, ing_port, prio, now);
            TraceKind::PauseSent
        } else {
            self.stats.resume_tx += 1;
            ctx.audit.on_resume(self.id, ing_port, prio, now);
            TraceKind::ResumeSent
        };
        ctx.record_trace(self.id, flow, kind, prio as u64);
        if ctx.spans.is_enabled() {
            let (depth, threshold) = self.buffer.pause_detail(ing_port, prio);
            ctx.spans.record_pause_edge(PauseEdge {
                at: now,
                from: self.id,
                from_port: PortId(ing_port),
                to: att.peer,
                to_port: att.peer_port,
                class: prio as u8,
                pause,
                storm: false,
                depth,
                threshold,
            });
        }
        self.try_transmit(ctx, PortId(ing_port));
    }

    /// Counts, audits and traces a packet this switch dropped. `why` is
    /// the [`TraceKind::Dropped`] detail: 0 shared pool exhausted, 1
    /// lossy-mode egress cap, 2 no route (counted with the pool drops).
    fn record_drop(&mut self, ctx: &mut Ctx, pkt: &Packet, why: u64) {
        if why == 1 {
            self.stats.drops_lossy += 1;
        } else {
            self.stats.drops_pool += 1;
        }
        let prio = pkt.priority as usize;
        ctx.audit
            .on_drop(self.id, prio, self.is_lossless(prio), ctx.queue.now());
        ctx.record_trace(self.id, pkt.flow, TraceKind::Dropped, why);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, CONTROL_PRIORITY, DATA_PRIORITY};

    fn test_switch() -> Switch {
        let mut sw = Switch::new(NodeId(0), 4, SwitchConfig::paper_default());
        sw.routes.insert(NodeId(10), vec![PortId(0)]);
        sw.routes
            .insert(NodeId(11), vec![PortId(1), PortId(2), PortId(3)]);
        sw
    }

    #[test]
    fn paper_default_protects_data_not_control() {
        let sw = test_switch();
        assert!(sw.is_lossless(DATA_PRIORITY as usize));
        assert!(!sw.is_lossless(CONTROL_PRIORITY as usize));
        let lossy = Switch::new(NodeId(0), 4, SwitchConfig::paper_default().without_pfc());
        assert!(!lossy.is_lossless(DATA_PRIORITY as usize));
    }

    #[test]
    fn route_is_deterministic_per_flow() {
        let sw = test_switch();
        let pkt =
            |flow: u64| Packet::data(NodeId(5), NodeId(11), FlowId(flow), DATA_PRIORITY, 0, 1000);
        for flow in 0..50 {
            let a = sw.route(&pkt(flow), 42).unwrap();
            let b = sw.route(&pkt(flow), 42).unwrap();
            assert_eq!(a, b, "same flow, same salt, same port");
        }
    }

    #[test]
    fn route_spreads_flows_across_equal_cost_ports() {
        let sw = test_switch();
        let mut used = std::collections::HashSet::new();
        for flow in 0..100u64 {
            let pkt = Packet::data(NodeId(5), NodeId(11), FlowId(flow), DATA_PRIORITY, 0, 1000);
            used.insert(sw.route(&pkt, 42).unwrap());
        }
        assert_eq!(used.len(), 3, "all three ECMP ports get used");
    }

    #[test]
    fn salt_changes_the_draw() {
        let sw = test_switch();
        let pkt = Packet::data(NodeId(5), NodeId(11), FlowId(7), DATA_PRIORITY, 0, 1000);
        let draws: std::collections::HashSet<_> = (0..32u64)
            .map(|salt| sw.route(&pkt, salt).unwrap())
            .collect();
        assert!(draws.len() > 1, "different salts reach different ports");
    }

    #[test]
    fn unroutable_destination_returns_none() {
        let sw = test_switch();
        let pkt = Packet::data(NodeId(5), NodeId(99), FlowId(1), DATA_PRIORITY, 0, 1000);
        assert!(sw.route(&pkt, 0).is_none());
    }

    #[test]
    fn wide_topologies_widen_the_buffer_profile() {
        let sw = Switch::new(NodeId(0), 48, SwitchConfig::paper_default());
        assert_eq!(sw.buffer.config().num_ports, 48);
        // Narrow ones keep the paper's 32-port arithmetic.
        let sw2 = Switch::new(NodeId(0), 4, SwitchConfig::paper_default());
        assert_eq!(sw2.buffer.config().num_ports, 32);
    }

    #[test]
    #[should_panic(expected = "switch 3 has 65536 ports; a switch has at most 65535")]
    fn a_switch_wider_than_the_release_key_fails_at_new() {
        let _ = Switch::new(NodeId(3), MAX_PORTS + 1, SwitchConfig::paper_default());
    }

    #[test]
    fn config_builders() {
        let c = SwitchConfig::paper_default()
            .with_red(RedConfig::cutoff(1000))
            .without_pfc();
        assert_eq!(c.red.kmin_bytes, 1000);
        assert!(!c.pfc_enabled);
    }
}
