//! The end host: a NIC with per-flow hardware-style rate limiters, a
//! RoCE-like go-back-N reliable transport, the receiver-side notification
//! point (NP) that generates CNPs, and a pluggable per-flow congestion
//! control algorithm (the RP).
//!
//! Sending is *pull-based*: the NIC hands a packet to the wire only when the
//! transmitter is idle, choosing round-robin among flows that (a) have data,
//! (b) are not PFC-paused, (c) fit their congestion window (window-based
//! algorithms), and (d) have passed their pacing deadline (rate-based
//! algorithms). This mirrors NIC hardware, where rate limiting is "on a
//! per-packet granularity" (§3.3).

use crate::cc::{CcActions, CongestionControl, NpState};
use crate::event::{NodeId, PortId, TimerKind};
use crate::network::Ctx;
use crate::packet::{Ecn, FlowId, Packet, PacketKind, Priority, HEADER_BYTES};
use crate::port::{Port, Queued};
use crate::trace::TraceKind;
use crate::units::{Bandwidth, Duration, Time};
use std::collections::{HashMap, VecDeque};

/// Host/NIC configuration.
#[derive(Debug, Clone, Copy)]
pub struct HostConfig {
    /// Generate a cumulative ACK every this many in-order data packets
    /// (message tails are always ACKed immediately).
    pub ack_every: u32,
    /// Go-back-N retransmission timeout.
    pub rto: Duration,
    /// Consecutive timeouts without progress before the QP is torn down
    /// (InfiniBand transport retry count; RoCE flows that exhaust it are
    /// "simply unable to recover" — §6.2).
    pub max_retries: u32,
    /// Cap on the exponential RTO backoff multiplier: the k-th consecutive
    /// timeout of a stalled flow waits `rto · min(2^(k−1), cap)` before
    /// retrying again, so a black-holed flow stops hammering the fabric
    /// with go-back-N bursts. 1 disables backoff.
    pub rto_backoff_cap: u32,
    /// NP CNP pacing interval (`N` in the paper, 50 µs); `None` disables
    /// CNP generation entirely (e.g. DCTCP hosts).
    pub cnp_interval: Option<Duration>,
    /// Minimum gap between repeated NAKs for the same expected PSN.
    pub nack_min_interval: Duration,
    /// Generate out-of-sequence NAKs at all. ConnectX-3-era NICs
    /// effectively recovered only via the retransmission timeout; disable
    /// this to model that (used by the Figure 18 loss study).
    pub nack_enabled: bool,
    /// After this much idle time a flow's congestion state resets to line
    /// rate (the paper's flows start at line rate). `None` keeps state
    /// forever.
    pub idle_reset: Option<Duration>,
    /// Data payload bytes per packet (MTU minus headers).
    pub mtu_payload: u64,
    /// Priority class for ACKs/NAKs. RoCE deployments ride them on the
    /// control class (the default); RTT-based schemes like TIMELY measure
    /// through the data class, so their hosts set `DATA_PRIORITY` here.
    pub ack_priority: Priority,
}

impl Default for HostConfig {
    fn default() -> HostConfig {
        HostConfig {
            ack_every: 4,
            rto: Duration::from_millis(16),
            max_retries: 7,
            rto_backoff_cap: 8,
            cnp_interval: Some(Duration::from_micros(50)),
            nack_min_interval: Duration::from_micros(100),
            nack_enabled: true,
            idle_reset: Some(Duration::from_millis(1)),
            mtu_payload: 1500 - HEADER_BYTES,
            ack_priority: crate::packet::CONTROL_PRIORITY,
        }
    }
}

/// A message handed to a flow for transmission.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingMessage {
    /// Bytes not yet cut into packets.
    pub(crate) remaining: u64,
    /// Original size.
    pub(crate) total: u64,
    /// When the message was handed to the flow.
    pub(crate) arrived: Time,
}

/// Metadata for a sent-but-unacknowledged packet (needed for go-back-N
/// retransmission).
#[derive(Debug, Clone, Copy)]
struct SentPkt {
    payload: u32,
    eom: bool,
    /// When the packet was (first) put on the wire.
    sent_at: Time,
    /// Karn's rule: RTT samples from retransmitted packets are discarded.
    retransmitted: bool,
}

/// A message fully cut into packets, awaiting cumulative acknowledgement.
#[derive(Debug, Clone, Copy)]
struct UnfinishedMsg {
    last_psn: u64,
    total: u64,
    arrived: Time,
}

/// Sender-side state of one flow.
pub struct Flow {
    /// Global flow id.
    pub id: FlowId,
    /// Destination host.
    pub dst: NodeId,
    /// PFC / scheduling class of the data packets.
    pub priority: Priority,
    /// The congestion-control algorithm (DCQCN RP, DCTCP, ...).
    pub cc: Box<dyn CongestionControl>,
    /// Messages waiting to be packetized.
    pub(crate) messages: VecDeque<PendingMessage>,
    /// Lowest unacknowledged PSN.
    pub(crate) una_psn: u64,
    /// Next PSN to put on the wire (rewinds on NAK/timeout).
    pub(crate) send_psn: u64,
    /// Next never-sent PSN.
    pub(crate) next_psn: u64,
    /// Wire bytes in `[una_psn, next_psn)` (window accounting).
    pub(crate) inflight_wire: u64,
    /// Pacing: earliest time the next packet may start.
    pub(crate) next_eligible: Time,
    /// Armed RTO deadline (`Time::NEVER` = disarmed).
    pub(crate) rto_deadline: Time,
    /// Armed CC timers: id → deadline.
    pub(crate) cc_timers: Vec<(u32, Time)>,
    /// Last send or ACK activity (drives idle reset).
    pub(crate) last_activity: Time,
    /// Consecutive retransmission timeouts without ACK progress.
    pub(crate) consecutive_timeouts: u32,
    /// The QP exhausted its retry budget and was torn down.
    pub(crate) dead: bool,
    unacked: VecDeque<SentPkt>,
    unfinished: VecDeque<UnfinishedMsg>,
}

impl Flow {
    fn new(id: FlowId, dst: NodeId, priority: Priority, cc: Box<dyn CongestionControl>) -> Flow {
        Flow {
            id,
            dst,
            priority,
            cc,
            messages: VecDeque::new(),
            una_psn: 0,
            send_psn: 0,
            next_psn: 0,
            inflight_wire: 0,
            next_eligible: Time::ZERO,
            rto_deadline: Time::NEVER,
            cc_timers: Vec::new(),
            last_activity: Time::ZERO,
            consecutive_timeouts: 0,
            dead: false,
            unacked: VecDeque::new(),
            unfinished: VecDeque::new(),
        }
    }

    /// Does this flow have a packet it could send right now (ignoring
    /// pacing/pause/window)? A queued message always has one: a fully cut
    /// message is popped at its `eom` packet, and a zero-byte message
    /// goes out as one header-only `eom` packet (like an InfiniBand
    /// zero-length write) and completes on its ACK.
    pub(crate) fn has_data(&self) -> bool {
        !self.dead && (self.send_psn < self.next_psn || !self.messages.is_empty())
    }

    /// Nothing outstanding and nothing to send.
    pub(crate) fn is_idle(&self) -> bool {
        self.una_psn == self.next_psn && !self.has_data()
    }

    /// Current sending rate as reported by the CC algorithm.
    pub(crate) fn current_rate(&self) -> Bandwidth {
        self.cc.rate()
    }

    fn window_permits(&self) -> bool {
        match self.cc.window() {
            // Strictly-below comparison: the window may be overshot by at
            // most one MTU, like a real segment-granularity sender.
            Some(w) => self.inflight_wire < w,
            None => true,
        }
    }
}

/// Receiver-side state of one flow (transport reassembly point + NP).
pub(crate) struct FlowReceiver {
    /// The sending host (ACKs/CNPs go there).
    pub(crate) src: NodeId,
    /// Next PSN expected in order.
    pub(crate) expected_psn: u64,
    /// The notification point (`None` when the host generates no CNPs).
    pub(crate) np: Option<NpState>,
    pkts_since_ack: u32,
    marked_since_ack: u32,
    last_nack_psn: u64,
    last_nack_at: Time,
}

impl FlowReceiver {
    fn new(src: NodeId, cnp_interval: Option<Duration>) -> FlowReceiver {
        FlowReceiver {
            src,
            expected_psn: 0,
            np: cnp_interval.map(NpState::new),
            pkts_since_ack: 0,
            marked_since_ack: 0,
            last_nack_psn: u64::MAX,
            last_nack_at: Time::ZERO,
        }
    }
}

/// An end host with one NIC port.
pub struct Host {
    /// This host's node id.
    pub id: NodeId,
    /// The NIC port (data + control egress queues).
    pub port: Port,
    /// Configuration.
    pub config: HostConfig,
    /// Sender-side flows originating here.
    pub flows: Vec<Flow>,
    /// Receiver-side state per incoming flow.
    pub(crate) receivers: HashMap<FlowId, FlowReceiver>,
    /// Flow id → index in `flows`; keeps per-ACK/CNP lookups O(1).
    flow_ids: HashMap<FlowId, usize>,
    rr_cursor: usize,
    wakeup_at: Time,
    /// Reusable CC-action buffer: cleared before every callback so the
    /// per-packet path performs no allocation.
    scratch: CcActions,
}

impl Host {
    /// Creates a host.
    pub fn new(id: NodeId, config: HostConfig) -> Host {
        Host {
            id,
            port: Port::new(),
            config,
            flows: Vec::new(),
            receivers: HashMap::new(),
            flow_ids: HashMap::new(),
            rr_cursor: 0,
            wakeup_at: Time::NEVER,
            scratch: CcActions::default(),
        }
    }

    /// Line rate of the NIC.
    pub fn line_rate(&self) -> Bandwidth {
        // Topology-construction precondition (hosts are built attached),
        // queried at flow-registration time — not the packet path (the
        // call graph proves it cold, so no suppression is needed).
        self.port.attach.expect("host NIC not attached").bandwidth
    }

    /// Registers a new outgoing flow; returns its local index.
    pub fn add_flow(
        &mut self,
        id: FlowId,
        dst: NodeId,
        priority: Priority,
        cc: Box<dyn CongestionControl>,
    ) -> usize {
        self.flows.push(Flow::new(id, dst, priority, cc));
        let idx = self.flows.len() - 1;
        self.flow_ids.insert(id, idx);
        idx
    }

    // ------------------------------------------------------------------
    // Receive path
    // ------------------------------------------------------------------

    /// Handles a packet delivered to this host.
    pub fn receive(&mut self, ctx: &mut Ctx, pkt: Packet) {
        match pkt.kind {
            PacketKind::Pfc { class, pause } => {
                if self.port.rx_pfc(ctx, class, pause) {
                    self.try_send(ctx);
                }
            }
            PacketKind::Data { psn, payload, eom } => {
                self.receive_data(ctx, &pkt, psn, payload, eom);
            }
            PacketKind::Ack {
                cum_psn,
                acked,
                marked,
            } => {
                self.receive_ack(ctx, pkt.flow, cum_psn, acked, marked);
            }
            PacketKind::Nack { expected_psn } => {
                self.receive_nack(ctx, pkt.flow, expected_psn);
            }
            PacketKind::Cnp => {
                let now = ctx.queue.now();
                ctx.stats(pkt.flow).cnps_received += 1;
                if let Some(i) = self.flow_index(pkt.flow) {
                    self.scratch.clear();
                    self.flows[i].cc.on_cnp(now, &mut self.scratch);
                    self.apply_cc_actions(ctx, i);
                }
            }
            PacketKind::QcnFeedback { fb } => {
                let now = ctx.queue.now();
                if let Some(i) = self.flow_index(pkt.flow) {
                    self.scratch.clear();
                    self.flows[i].cc.on_qcn_feedback(now, fb, &mut self.scratch);
                    self.apply_cc_actions(ctx, i);
                }
            }
        }
        self.update_spans(ctx);
    }

    fn flow_index(&self, id: FlowId) -> Option<usize> {
        self.flow_ids.get(&id).copied()
    }

    fn receive_data(&mut self, ctx: &mut Ctx, pkt: &Packet, psn: u64, payload: u64, eom: bool) {
        let now = ctx.queue.now();
        let cnp_interval = self.config.cnp_interval;
        let ack_every = self.config.ack_every;
        let nack_min = self.config.nack_min_interval;
        let nack_enabled = self.config.nack_enabled;
        let ack_priority = self.config.ack_priority;
        let host_id = self.id;
        let rcv = self
            .receivers
            .entry(pkt.flow)
            .or_insert_with(|| FlowReceiver::new(pkt.src, cnp_interval));

        // Notification point: CE-marked arrival may trigger a CNP, rate
        // limited to one per `cnp_interval` per flow (§3.1, Figure 6).
        let mut control: Option<Packet> = None;
        let mut cnp: Option<Packet> = None;
        let ce = pkt.ecn == Ecn::Ce;
        if ce {
            ctx.stats(pkt.flow).marked_pkts += 1;
            if let Some(np) = &mut rcv.np {
                let gap = np.since_cnp(now);
                if np.on_packet(now, ce) {
                    if let Some(gap) = gap {
                        ctx.metrics.observe(
                            ctx.metrics.h.cnp_interarrival_us,
                            gap.as_micros_f64() as u64,
                        );
                    }
                    cnp = Some(Packet::cnp(host_id, rcv.src, pkt.flow));
                    ctx.stats(pkt.flow).cnps_sent += 1;
                    ctx.record_trace(host_id, pkt.flow, TraceKind::CnpSent, 0);
                }
            }
        }

        if psn == rcv.expected_psn {
            // In-order: accept.
            ctx.audit.on_in_order_accept(host_id, pkt.flow, psn, now);
            rcv.expected_psn += 1;
            rcv.last_nack_psn = u64::MAX;
            rcv.pkts_since_ack += 1;
            if ce {
                rcv.marked_since_ack += 1;
            }
            let st = ctx.stats(pkt.flow);
            st.delivered_pkts += 1;
            st.delivered_bytes += payload;
            ctx.record_trace(host_id, pkt.flow, TraceKind::Delivered, psn);
            if eom || rcv.pkts_since_ack >= ack_every {
                let mut ack = Packet::ack(
                    host_id,
                    rcv.src,
                    pkt.flow,
                    rcv.expected_psn,
                    rcv.pkts_since_ack,
                    rcv.marked_since_ack,
                );
                ack.priority = ack_priority;
                control = Some(ack);
                rcv.pkts_since_ack = 0;
                rcv.marked_since_ack = 0;
            }
        } else if psn > rcv.expected_psn {
            // Gap: go-back-N receivers discard and NAK (once per episode).
            let expected = rcv.expected_psn;
            if nack_enabled && (rcv.last_nack_psn != expected || now - rcv.last_nack_at >= nack_min)
            {
                rcv.last_nack_psn = expected;
                rcv.last_nack_at = now;
                control = Some(Packet::nack(host_id, rcv.src, pkt.flow, expected));
                ctx.stats(pkt.flow).nacks_sent += 1;
                ctx.record_trace(host_id, pkt.flow, TraceKind::NackSent, expected);
            }
        } else {
            // Duplicate of an already-delivered packet (post-rewind
            // overlap): re-ACK so the sender advances.
            let mut ack = Packet::ack(host_id, rcv.src, pkt.flow, rcv.expected_psn, 0, 0);
            ack.priority = ack_priority;
            control = Some(ack);
        }

        for c in [cnp, control].into_iter().flatten() {
            self.port.enqueue(Queued::new(c, None));
        }
        self.try_send(ctx);
    }

    fn receive_ack(&mut self, ctx: &mut Ctx, id: FlowId, cum_psn: u64, acked: u32, marked: u32) {
        let now = ctx.queue.now();
        let Some(i) = self.flow_index(id) else { return };
        let f = &mut self.flows[i];
        let mut acked_bytes = 0u64;
        let mut rtt: Option<Duration> = None;
        while f.una_psn < cum_psn {
            let Some(meta) = f.unacked.pop_front() else {
                break;
            };
            let wire = meta.payload as u64 + HEADER_BYTES;
            debug_assert!(f.inflight_wire >= wire);
            f.inflight_wire -= wire;
            acked_bytes += wire;
            f.una_psn += 1;
            // RTT sample from the newest covered, never-retransmitted
            // packet (Karn's rule).
            rtt = if meta.retransmitted {
                None
            } else {
                Some(now.saturating_since(meta.sent_at))
            };
        }
        f.send_psn = f.send_psn.max(f.una_psn);
        f.last_activity = now;
        if acked_bytes > 0 {
            f.consecutive_timeouts = 0;
        }

        // Message completions.
        while f.unfinished.front().is_some_and(|m| m.last_psn < f.una_psn) {
            let Some(m) = f.unfinished.pop_front() else {
                break;
            };
            ctx.stats(id).completions.push(crate::stats::Completion {
                at: now,
                started: m.arrived,
                bytes: m.total,
            });
            ctx.metrics.observe(
                ctx.metrics.h.fct_us,
                now.saturating_since(m.arrived).as_micros_f64() as u64,
            );
            ctx.complete_span(id, self.id, now);
        }

        // RTO management: progress pushes the (soft) deadline out, full
        // acknowledgement disarms. The pending timer event re-checks the
        // stored deadline when it fires, so no rescheduling is needed here.
        if f.una_psn == f.next_psn {
            f.rto_deadline = Time::NEVER;
        } else if acked_bytes > 0 {
            f.rto_deadline = now + self.config.rto;
        }

        if acked > 0 || acked_bytes > 0 {
            self.scratch.clear();
            self.flows[i]
                .cc
                .on_ack(now, acked_bytes, acked, marked, rtt, &mut self.scratch);
            self.apply_cc_actions(ctx, i);
        }
        self.try_send(ctx);
    }

    fn receive_nack(&mut self, ctx: &mut Ctx, id: FlowId, expected_psn: u64) {
        // A NAK is a cumulative ACK for everything below `expected_psn`
        // plus a rewind request (go-back-N).
        self.receive_ack(ctx, id, expected_psn, 0, 0);
        let now = ctx.queue.now();
        let Some(i) = self.flow_index(id) else { return };
        let f = &mut self.flows[i];
        if expected_psn >= f.una_psn && expected_psn < f.next_psn {
            // Rewind to the NAKed PSN (never below the cumulative ACK).
            f.send_psn = expected_psn.max(f.una_psn);
            self.scratch.clear();
            f.cc.on_loss(now, &mut self.scratch);
            self.apply_cc_actions(ctx, i);
            self.try_send(ctx);
        }
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// Dispatches a fired host timer.
    pub fn timer(&mut self, ctx: &mut Ctx, kind: TimerKind) {
        let now = ctx.queue.now();
        match kind {
            TimerKind::Cc { flow, id } => {
                let Some(f) = self.flows.get_mut(flow) else {
                    return;
                };
                let armed = f.cc_timers.iter().any(|&(tid, at)| tid == id && at == now);
                if armed {
                    // Consume the deadline, then let the algorithm re-arm.
                    if let Some(slot) = f.cc_timers.iter_mut().find(|(tid, _)| *tid == id) {
                        slot.1 = Time::NEVER;
                    }
                    self.scratch.clear();
                    f.cc.on_timer(now, id, &mut self.scratch);
                    self.apply_cc_actions(ctx, flow);
                    self.try_send(ctx);
                }
            }
            TimerKind::Retransmit { flow } => {
                let Some(f) = self.flows.get_mut(flow) else {
                    return;
                };
                if f.rto_deadline == Time::NEVER {
                    return; // disarmed: the chain dies here
                }
                if f.rto_deadline > now {
                    // Deadline was pushed out by sends/ACKs since this
                    // event was scheduled: keep the chain alive.
                    let at = f.rto_deadline;
                    ctx.schedule_timer(at, self.id, TimerKind::Retransmit { flow });
                    return;
                }
                if f.una_psn < f.next_psn {
                    // Genuine stall: go-back-N from the first unacked PSN.
                    f.consecutive_timeouts += 1;
                    if f.consecutive_timeouts > self.config.max_retries {
                        // Transport retry count exhausted: QP error.
                        f.dead = true;
                        f.rto_deadline = Time::NEVER;
                        let id = f.id;
                        ctx.stats(id).aborted = true;
                        ctx.flight
                            // simlint: allow(hot-alloc) only when transport retries are exhausted (QP error)
                            .dump(self.id, now, &format!("qp_teardown flow={}", id.0));
                        self.update_spans(ctx);
                        return;
                    }
                    f.send_psn = f.una_psn;
                    ctx.stats(f.id).timeouts += 1;
                    ctx.record_trace(self.id, f.id, TraceKind::Timeout, f.una_psn);
                    // The stall that just ended was RTO wait: re-attribute
                    // the open interval before the rewind changes state.
                    ctx.spans.on_timeout(f.id, now);
                    // Exponential backoff: the k-th consecutive timeout
                    // waits min(2^(k−1), cap) × rto. ACK progress resets
                    // the count (receive_ack), returning to the base RTO.
                    let shift = (f.consecutive_timeouts - 1).min(31);
                    let factor = (1u64 << shift).min(u64::from(self.config.rto_backoff_cap.max(1)));
                    let deadline = now + self.config.rto.saturating_mul(factor);
                    f.rto_deadline = deadline;
                    ctx.schedule_timer(deadline, self.id, TimerKind::Retransmit { flow });
                    self.scratch.clear();
                    f.cc.on_loss(now, &mut self.scratch);
                    self.apply_cc_actions(ctx, flow);
                    self.try_send(ctx);
                } else {
                    f.rto_deadline = Time::NEVER;
                }
            }
            TimerKind::NicWakeup => {
                if self.wakeup_at <= now {
                    self.wakeup_at = Time::NEVER;
                }
                self.try_send(ctx);
            }
            TimerKind::MessageArrival { flow, bytes } => {
                self.inject_message(ctx, flow, bytes);
            }
        }
        self.update_spans(ctx);
    }

    /// Hands `bytes` to flow `flow` for transmission, resetting congestion
    /// state first if the flow has been idle long enough (line-rate start).
    pub fn inject_message(&mut self, ctx: &mut Ctx, flow: usize, bytes: u64) {
        let now = ctx.queue.now();
        let f = &mut self.flows[flow];
        if let Some(idle) = self.config.idle_reset {
            if f.is_idle() && now.saturating_since(f.last_activity) >= idle {
                self.scratch.clear();
                f.cc.reset(now, &mut self.scratch);
                f.next_eligible = now;
                self.apply_cc_actions(ctx, flow);
            }
        }
        let f = &mut self.flows[flow];
        f.messages.push_back(PendingMessage {
            remaining: bytes,
            total: bytes,
            arrived: now,
        });
        self.try_send(ctx);
        self.update_spans(ctx);
    }

    /// Applies the timer actions accumulated in `self.scratch` (filled by
    /// the preceding CC callback), then empties it for reuse.
    fn apply_cc_actions(&mut self, ctx: &mut Ctx, flow: usize) {
        for k in 0..self.scratch.timers.len() {
            let (id, at) = self.scratch.timers[k];
            let f = &mut self.flows[flow];
            match f.cc_timers.iter_mut().find(|(tid, _)| *tid == id) {
                Some(slot) => slot.1 = at,
                None => f.cc_timers.push((id, at)),
            }
            if at != Time::NEVER {
                ctx.schedule_timer(at, self.id, TimerKind::Cc { flow, id });
            }
        }
        self.scratch.timers.clear();
        // Every CC callback routes through here, so this one hook audits
        // the sender's go-back-N bookkeeping and the algorithm's domain
        // after each state change. Compiled out without `sanitize`.
        if cfg!(feature = "sanitize") {
            let now = ctx.queue.now();
            let f = &self.flows[flow];
            ctx.audit
                .check_flow_psns(self.id, f.id, f.una_psn, f.send_psn, f.next_psn, now);
            if let Some(info) = f.cc.audit_info() {
                ctx.audit.check_cc(self.id, f.id, &info, now);
            }
        }
    }

    // ------------------------------------------------------------------
    // Send path
    // ------------------------------------------------------------------

    /// The NIC scheduler: sends one packet if the transmitter is idle and
    /// anything is eligible; otherwise arms a wakeup for the earliest
    /// pacing deadline.
    pub(crate) fn try_send(&mut self, ctx: &mut Ctx) {
        if self.port.busy {
            return;
        }
        // Control frames (ACK/NAK/CNP) first — they sit in the port queues.
        if self.port.has_eligible() {
            self.port.start_tx(ctx, self.id, PortId(0));
            return;
        }
        if self.port.attach.is_none() {
            return;
        }
        let now = ctx.queue.now();
        let n = self.flows.len();
        let mut earliest = Time::NEVER;
        for k in 0..n {
            let i = (self.rr_cursor + k) % n;
            let f = &self.flows[i];
            if !f.has_data() || self.port.rx_paused[f.priority as usize] {
                continue;
            }
            if !f.window_permits() {
                continue; // ACK arrival will retry
            }
            if f.next_eligible > now {
                earliest = earliest.min(f.next_eligible);
                continue;
            }
            self.rr_cursor = i + 1;
            self.send_one(ctx, i);
            return;
        }
        if earliest != Time::NEVER && (self.wakeup_at > earliest || self.wakeup_at <= now) {
            self.wakeup_at = earliest;
            ctx.schedule_timer(earliest, self.id, TimerKind::NicWakeup);
        }
    }

    /// Builds and transmits the next packet of flow `i`.
    fn send_one(&mut self, ctx: &mut Ctx, i: usize) {
        let now = ctx.queue.now();
        let host_id = self.id;
        let mtu = self.config.mtu_payload;
        let rto = self.config.rto;
        let f = &mut self.flows[i];

        let (psn, payload, eom, is_retx) = if f.send_psn < f.next_psn {
            // Go-back-N retransmission.
            let idx = (f.send_psn - f.una_psn) as usize;
            f.unacked[idx].retransmitted = true;
            let meta = f.unacked[idx];
            (f.send_psn, meta.payload as u64, meta.eom, true)
        } else {
            // Cut a fresh packet from the front message. `has_data` was
            // checked by the scheduler, so an empty queue is unreachable;
            // bail (no packet this round) instead of panicking.
            let Some(msg) = f.messages.front_mut() else {
                debug_assert!(false, "send_one without data");
                return;
            };
            let payload = msg.remaining.min(mtu);
            msg.remaining -= payload;
            let eom = msg.remaining == 0;
            if eom {
                let done = *msg;
                f.messages.pop_front();
                f.unfinished.push_back(UnfinishedMsg {
                    last_psn: f.next_psn,
                    total: done.total,
                    arrived: done.arrived,
                });
            }
            (f.next_psn, payload, eom, false)
        };

        let mut pkt = Packet::data(host_id, f.dst, f.id, f.priority, psn, payload);
        if let PacketKind::Data { eom: e, .. } = &mut pkt.kind {
            *e = eom;
        }
        let wire = pkt.wire_bytes;
        ctx.spans.on_data_tx(f.id, is_retx, now);

        if is_retx {
            ctx.stats(f.id).retx_pkts += 1;
        } else {
            f.unacked.push_back(SentPkt {
                payload: payload as u32,
                eom,
                sent_at: now,
                retransmitted: false,
            });
            f.next_psn += 1;
            f.inflight_wire += wire;
        }
        f.send_psn += 1;
        f.last_activity = now;
        {
            let st = ctx.stats(f.id);
            st.sent_pkts += 1;
            st.sent_bytes += wire;
        }

        // Pacing: space packet *starts* by wire_time(rate). No credit
        // accumulates while the flow was blocked (hardware limiters do not
        // burst).
        let rate = f.cc.rate();
        f.next_eligible = now + rate.serialize(wire);

        // Arm the retransmission timer when data first becomes
        // outstanding; ACK progress pushes the (soft) deadline out. A
        // sender that keeps transmitting but gets no ACKs back *does*
        // time out — that is the black-hole case go-back-N must cover.
        if f.rto_deadline == Time::NEVER {
            let deadline = now + rto;
            f.rto_deadline = deadline;
            ctx.schedule_timer(deadline, host_id, TimerKind::Retransmit { flow: i });
        }

        self.scratch.clear();
        f.cc.on_send(now, wire, &mut self.scratch);
        self.apply_cc_actions(ctx, i);

        self.port.enqueue(Queued::new(pkt, None).at(now));
        self.port.start_tx(ctx, self.id, PortId(0));
    }

    /// The NIC finished serializing a frame and it is on the wire: pick
    /// the next one. (A host frame holds no shared buffer to release.)
    pub fn tx_done(&mut self, ctx: &mut Ctx) {
        self.port.tx_done(ctx, self.id, PortId(0));
        self.try_send(ctx);
        self.update_spans(ctx);
    }

    /// Re-observes every flow's attributed state after an event that may
    /// have changed what the NIC is doing (send start, PAUSE/RESUME, ACK,
    /// timer). State changes always coincide with host events — the NIC
    /// arms a wakeup for the earliest pacing deadline — so this lazy
    /// observation reconstructs the timeline exactly. One branch when
    /// causal tracing is off.
    pub(crate) fn update_spans(&mut self, ctx: &mut Ctx) {
        if !ctx.spans.is_enabled() {
            return;
        }
        use crate::telemetry::spans::SpanState;
        let now = ctx.queue.now();
        let current_flow = self
            .port
            .current
            .as_ref()
            .filter(|q| q.pkt.is_data())
            .map(|q| q.pkt.flow);
        let pause_origin = self.port.attach.map(|a| (a.peer, a.peer_port));
        for f in &self.flows {
            let (state, detail, origin) = if current_flow == Some(f.id) {
                // `set_state` re-labels this Retransmitting when the frame
                // on the wire was flagged as a go-back-N resend.
                (SpanState::Serializing, 0, None)
            } else if f.has_data() {
                if self.port.rx_paused[f.priority as usize] {
                    (SpanState::PauseBlocked, 0, pause_origin)
                } else if !f.window_permits() || f.next_eligible > now {
                    let cnps = ctx
                        .flow_stats
                        .get(f.id.0 as usize)
                        .map_or(0, |s| s.cnps_received);
                    (SpanState::Throttled, cnps, None)
                } else {
                    (SpanState::Queued, 0, None)
                }
            } else {
                (SpanState::Idle, 0, None)
            };
            ctx.spans.set_state(f.id, state, now, detail, origin);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::NoCc;

    fn flow() -> Flow {
        Flow::new(
            FlowId(1),
            NodeId(2),
            DATA_PRIORITY,
            Box::new(NoCc::new(Bandwidth::gbps(40))),
        )
    }
    use crate::packet::DATA_PRIORITY;

    #[test]
    fn fresh_flow_is_idle() {
        let f = flow();
        assert!(f.is_idle());
        assert!(!f.has_data());
        assert!(f.window_permits());
        assert_eq!(f.current_rate(), Bandwidth::gbps(40));
    }

    #[test]
    fn queued_message_makes_flow_sendable() {
        let mut f = flow();
        f.messages.push_back(PendingMessage {
            remaining: 1000,
            total: 1000,
            arrived: Time::ZERO,
        });
        assert!(f.has_data());
        assert!(!f.is_idle());
    }

    #[test]
    fn rewound_flow_has_data_even_with_empty_messages() {
        let mut f = flow();
        f.next_psn = 10;
        f.send_psn = 5; // go-back-N rewind
        f.una_psn = 5;
        assert!(f.has_data());
    }

    #[test]
    fn dead_flow_never_has_data() {
        let mut f = flow();
        f.messages.push_back(PendingMessage {
            remaining: 1000,
            total: 1000,
            arrived: Time::ZERO,
        });
        f.dead = true;
        assert!(!f.has_data());
    }

    #[test]
    fn outstanding_data_is_not_idle() {
        let mut f = flow();
        f.next_psn = 3;
        f.send_psn = 3;
        f.una_psn = 1;
        assert!(!f.is_idle(), "unacked data keeps the flow busy");
    }

    #[test]
    fn default_host_config_is_dcqcn_ready() {
        let c = HostConfig::default();
        assert_eq!(c.cnp_interval, Some(Duration::from_micros(50)));
        assert_eq!(c.mtu_payload, 1436);
        assert!(c.nack_enabled);
        assert_eq!(c.max_retries, 7);
        assert_eq!(c.rto_backoff_cap, 8);
        assert!(c.rto > Duration::from_millis(1));
    }

    #[test]
    fn host_flow_registration() {
        let mut h = Host::new(NodeId(0), HostConfig::default());
        let i0 = h.add_flow(
            FlowId(10),
            NodeId(1),
            DATA_PRIORITY,
            Box::new(NoCc::new(Bandwidth::gbps(40))),
        );
        let i1 = h.add_flow(
            FlowId(11),
            NodeId(2),
            DATA_PRIORITY,
            Box::new(NoCc::new(Bandwidth::gbps(40))),
        );
        assert_eq!((i0, i1), (0, 1));
        assert_eq!(h.flows[0].id, FlowId(10));
        assert_eq!(h.flows[1].dst, NodeId(2));
    }
}
