//! The end host: a NIC with per-flow hardware-style rate limiters, one
//! RoCE go-back-N queue pair per flow ([`crate::qp`]) and a pluggable
//! per-flow congestion control (the RP). The queue pairs decide; the host
//! turns each outcome into a packet or a timer and records it once.
//!
//! Sending is *pull-based*: the NIC hands a packet to the wire only when the
//! transmitter is idle, choosing round-robin among flows that (a) have data,
//! (b) are not PFC-paused, (c) fit their congestion window (window-based
//! algorithms), and (d) have passed their pacing deadline (rate-based
//! algorithms). This mirrors NIC hardware, where rate limiting is "on a
//! per-packet granularity" (§3.3).

use crate::cc::{CcActions, CongestionControl};
use crate::event::{NodeId, PortId, TimerKind};
use crate::network::Ctx;
use crate::packet::{Ecn, FlowId, Packet, PacketKind, Priority};
use crate::port::{Port, Queued};
use crate::qp::{QpRx, QpTx, Reply, Rto};
use crate::trace::TraceKind;
use crate::units::{Bandwidth, Duration, Time};
use std::collections::HashMap;

pub use crate::qp::HostConfig;

/// A flow idle this long restarts its congestion state at line rate (the
/// paper's flows start at line rate).
const IDLE_RESET: Duration = Duration::from_millis(1);

/// One outgoing flow: its queue pair's sender half, its congestion
/// control, and the NIC-side pacing and CC-timer state.
pub struct Flow {
    /// Global flow id.
    pub id: FlowId,
    /// Destination host.
    pub dst: NodeId,
    /// PFC / scheduling class of the data packets.
    pub priority: Priority,
    /// The congestion-control algorithm (DCQCN RP, DCTCP, ...).
    pub cc: Box<dyn CongestionControl>,
    /// The go-back-N sender.
    pub(crate) tx: QpTx,
    /// Pacing: earliest time the next packet may start.
    next_eligible: Time,
    /// Armed CC timers: id → deadline.
    cc_timers: Vec<(u32, Time)>,
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
    /// The go-back-N receiver (and NP) of each incoming flow.
    receivers: HashMap<FlowId, QpRx>,
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
        // A build-time precondition, queried at flow registration (cold).
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
        self.flows.push(Flow {
            id,
            dst,
            priority,
            cc,
            tx: QpTx::default(),
            next_eligible: Time::ZERO,
            cc_timers: Vec::new(),
        });
        self.flow_ids.insert(id, self.flows.len() - 1);
        self.flows.len() - 1
    }

    /// Handles a packet delivered to this host.
    pub fn receive(&mut self, ctx: &mut Ctx, pkt: Packet) {
        let now = ctx.queue.now();
        match pkt.kind {
            PacketKind::Pfc { class, pause } => {
                if self.port.rx_pfc(ctx, class, pause) {
                    self.try_send(ctx);
                }
            }
            PacketKind::Data { psn, payload, eom } => {
                self.receive_data(ctx, &pkt, psn, payload, eom);
            }
            PacketKind::Ack { .. } | PacketKind::Nack { .. } => self.receive_ack(ctx, &pkt),
            PacketKind::Cnp => {
                ctx.stats(pkt.flow).cnps_received += 1;
                if let Some(&i) = self.flow_ids.get(&pkt.flow) {
                    self.cc_call(ctx, i, |cc, a| cc.on_cnp(now, a));
                }
            }
            PacketKind::QcnFeedback { fb } => {
                if let Some(&i) = self.flow_ids.get(&pkt.flow) {
                    self.cc_call(ctx, i, |cc, a| cc.on_qcn_feedback(now, fb, a));
                }
            }
        }
        self.update_spans(ctx);
    }

    fn receive_data(&mut self, ctx: &mut Ctx, pkt: &Packet, psn: u64, payload: u64, eom: bool) {
        let now = ctx.queue.now();
        let (host, flow, src) = (self.id, pkt.flow, pkt.src);
        let cnp_interval = self.config.cnp_interval;
        let rx = self
            .receivers
            .entry(flow)
            .or_insert_with(|| QpRx::new(cnp_interval));
        let ce = pkt.ecn == Ecn::Ce;
        let out = rx.on_data(psn, ce, eom, now, &self.config);
        if ce {
            ctx.stats(flow).marked_pkts += 1;
        }
        // The CNP goes ahead of the ACK/NAK.
        if let Some(gap) = out.cnp {
            if let Some(gap) = gap {
                let h = ctx.metrics.h.cnp_interarrival_us;
                ctx.metrics.observe(h, gap.as_micros_f64() as u64);
            }
            ctx.stats(flow).cnps_sent += 1;
            ctx.record_trace(host, flow, TraceKind::CnpSent, 0);
            self.port
                .enqueue(Queued::new(Packet::cnp(host, src, flow), None));
        }
        if out.delivered {
            ctx.audit.on_in_order_accept(host, flow, psn, now);
            let st = ctx.stats(flow);
            st.delivered_pkts += 1;
            st.delivered_bytes += payload;
            ctx.record_trace(host, flow, TraceKind::Delivered, psn);
        }
        let reply = match out.reply {
            Reply::None => None,
            Reply::Ack {
                cum_psn,
                acked,
                marked,
            } => Some(Packet {
                priority: self.config.ack_priority,
                ..Packet::ack(host, src, flow, cum_psn, acked, marked)
            }),
            Reply::Nack(expected) => {
                ctx.stats(flow).nacks_sent += 1;
                ctx.record_trace(host, flow, TraceKind::NackSent, expected);
                Some(Packet::nack(host, src, flow, expected))
            }
        };
        if let Some(reply) = reply {
            self.port.enqueue(Queued::new(reply, None));
        }
        self.try_send(ctx);
    }

    /// An ACK, or a NAK: a cumulative ACK for everything below
    /// `expected_psn` plus a rewind request (go-back-N).
    fn receive_ack(&mut self, ctx: &mut Ctx, pkt: &Packet) {
        let (cum_psn, acked, marked, nack) = match pkt.kind {
            PacketKind::Ack {
                cum_psn,
                acked,
                marked,
            } => (cum_psn, acked, marked, false),
            PacketKind::Nack { expected_psn } => (expected_psn, 0, 0, true),
            _ => return,
        };
        let (now, id) = (ctx.queue.now(), pkt.flow);
        let Some(&i) = self.flow_ids.get(&id) else {
            return;
        };
        let tx = &mut self.flows[i].tx;
        let (bytes, rtt) = tx.on_ack(cum_psn, now, self.config.rto);
        while let Some(done) = tx.pop_completed(now) {
            ctx.stats(id).completions.push(done);
            // Settle the span timeline; a decomposition mismatch
            // (`Σ spans != fct`) goes to the sanitize auditor.
            if let Some((fct, sum)) = ctx.spans.on_complete(id, now) {
                ctx.audit.on_span_mismatch(self.id, id, fct, sum, now);
            }
        }
        if acked > 0 || bytes > 0 {
            self.cc_call(ctx, i, |cc, a| cc.on_ack(now, bytes, acked, marked, rtt, a));
        }
        self.try_send(ctx);
        if nack && self.flows[i].tx.rewind(cum_psn) {
            self.cc_call(ctx, i, |cc, a| cc.on_loss(now, a));
            self.try_send(ctx);
        }
    }

    /// Dispatches a fired host timer.
    pub fn timer(&mut self, ctx: &mut Ctx, kind: TimerKind) {
        let now = ctx.queue.now();
        match kind {
            TimerKind::Cc { flow, id } => {
                let Some(f) = self.flows.get_mut(flow) else {
                    return;
                };
                let armed = f.cc_timers.iter_mut().find(|t| **t == (id, now));
                if let Some(slot) = armed {
                    // Consume the deadline, then let the algorithm re-arm.
                    slot.1 = Time::NEVER;
                    self.cc_call(ctx, flow, |cc, a| cc.on_timer(now, id, a));
                    self.try_send(ctx);
                }
            }
            TimerKind::Retransmit { flow } => {
                let Some(f) = self.flows.get_mut(flow) else {
                    return;
                };
                match f.tx.on_rto(now, &self.config) {
                    Rto::Ignore => return,
                    Rto::Rearm(at) => {
                        // Deadline was pushed out by sends/ACKs since this
                        // event was scheduled: keep the chain alive.
                        ctx.schedule_timer(at, self.id, kind);
                        return;
                    }
                    Rto::Teardown => {
                        ctx.stats(f.id).aborted = true;
                        ctx.flight
                            // simlint: allow(hot-alloc) only when transport retries are exhausted (QP error)
                            .dump(self.id, now, &format!("qp_teardown flow={}", f.id.0));
                    }
                    Rto::Resend(deadline) => {
                        let una = f.tx.psns().0;
                        ctx.stats(f.id).timeouts += 1;
                        ctx.record_trace(self.id, f.id, TraceKind::Timeout, una);
                        // The stall that just ended was RTO wait:
                        // re-attribute it before the resend is observed.
                        ctx.spans.on_timeout(f.id, now);
                        ctx.schedule_timer(deadline, self.id, kind);
                        self.cc_call(ctx, flow, |cc, a| cc.on_loss(now, a));
                        self.try_send(ctx);
                    }
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
        if f.tx.idle_for(now).is_some_and(|idle| idle >= IDLE_RESET) {
            f.next_eligible = now;
            self.cc_call(ctx, flow, |cc, a| cc.reset(now, a));
        }
        self.flows[flow].tx.push_message(bytes, now);
        self.try_send(ctx);
        self.update_spans(ctx);
    }

    /// Runs one CC callback of flow `flow` and applies the timers it
    /// arms. `scratch` is reused, so the per-packet path allocates nothing.
    fn cc_call(
        &mut self,
        ctx: &mut Ctx,
        flow: usize,
        call: impl FnOnce(&mut dyn CongestionControl, &mut CcActions),
    ) {
        self.scratch.clear();
        let f = &mut self.flows[flow];
        call(f.cc.as_mut(), &mut self.scratch);
        for &(id, at) in &self.scratch.timers {
            match f.cc_timers.iter_mut().find(|(tid, _)| *tid == id) {
                Some(slot) => slot.1 = at,
                None => f.cc_timers.push((id, at)),
            }
            if at != Time::NEVER {
                ctx.schedule_timer(at, self.id, TimerKind::Cc { flow, id });
            }
        }
        // Every CC callback routes through here, so this one hook audits
        // the sender's go-back-N bookkeeping and the algorithm's domain
        // after each state change. Compiled out without `sanitize`.
        if cfg!(feature = "sanitize") {
            let now = ctx.queue.now();
            ctx.audit.check_flow_psns(self.id, f.id, f.tx.psns(), now);
            if let Some(info) = f.cc.audit_info() {
                ctx.audit.check_cc(self.id, f.id, &info, now);
            }
        }
    }

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
            if !f.tx.has_data() || self.port.rx_paused[f.priority as usize] {
                continue;
            }
            if !f.tx.fits(f.cc.window()) {
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
        let (mtu, rto) = (self.config.mtu_payload, self.config.rto);
        let f = &mut self.flows[i];
        // `has_data` was checked by the scheduler, so `None` is
        // unreachable; bail (no packet this round) instead of panicking.
        let Some(p) = f.tx.next_packet(now, mtu, rto) else {
            debug_assert!(false, "send_one without data");
            return;
        };
        let mut pkt = Packet::data(self.id, f.dst, f.id, f.priority, p.psn, p.payload);
        if let PacketKind::Data { eom, .. } = &mut pkt.kind {
            *eom = p.eom;
        }
        let wire = pkt.wire_bytes;
        ctx.spans.on_data_tx(f.id, p.retx, now);
        let st = ctx.stats(f.id);
        st.retx_pkts += u64::from(p.retx);
        st.sent_pkts += 1;
        st.sent_bytes += wire;

        // Pacing: space packet *starts* by wire_time(rate). No credit
        // accumulates while the flow was blocked (hardware limiters do not
        // burst).
        f.next_eligible = now + f.cc.rate().serialize(wire);
        if let Some(deadline) = p.arm_rto {
            ctx.schedule_timer(deadline, self.id, TimerKind::Retransmit { flow: i });
        }
        self.cc_call(ctx, i, |cc, a| cc.on_send(now, wire, a));

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
            } else if f.tx.has_data() {
                if self.port.rx_paused[f.priority as usize] {
                    (SpanState::PauseBlocked, 0, pause_origin)
                } else if !f.tx.fits(f.cc.window()) || f.next_eligible > now {
                    (SpanState::Throttled, ctx.stats(f.id).cnps_received, None)
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
    use crate::packet::DATA_PRIORITY;

    #[test]
    fn host_flow_registration() {
        let mut h = Host::new(NodeId(0), HostConfig::default());
        let cc = || Box::new(NoCc::new(Bandwidth::gbps(40)));
        let i0 = h.add_flow(FlowId(10), NodeId(1), DATA_PRIORITY, cc());
        let i1 = h.add_flow(FlowId(11), NodeId(2), DATA_PRIORITY, cc());
        assert_eq!((i0, i1), (0, 1));
        assert_eq!(h.flows[0].id, FlowId(10));
        assert_eq!(h.flows[1].dst, NodeId(2));
        assert!(h.flows[0].tx.is_idle() && !h.flows[1].tx.has_data());
    }
}
