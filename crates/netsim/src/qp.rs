//! The RoCE go-back-N transport of one queue pair, as two values: the
//! sender half [`QpTx`] and the receiver half [`QpRx`].
//!
//! Like [`crate::cc::CongestionControl`], each half is a pure state
//! machine: a call takes its input and the time and returns a small
//! `Copy` outcome. The host turns outcomes into packets, timers and
//! records; nothing here schedules, sends or counts.

use crate::cc::{NpState, CNP_INTERVAL};
use crate::packet::{Priority, CONTROL_PRIORITY, HEADER_BYTES, MAX_PAYLOAD, NUM_PRIORITIES};
use crate::stats::Completion;
use crate::units::{Duration, Time};
use std::collections::VecDeque;

/// Minimum gap between repeated NAKs for the same expected PSN.
const NACK_MIN_INTERVAL: Duration = Duration::from_micros(100);

/// Host/NIC configuration: the queue pairs' transport knobs and the NP's
/// CNP interval (reached as `netsim::host::HostConfig`).
#[derive(Debug, Clone, Copy)]
pub struct HostConfig {
    /// Generate a cumulative ACK every this many in-order data packets
    /// (message tails are always ACKed immediately); `1..=u16::MAX`, the
    /// range of an ACK's packet count.
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
    /// NP CNP pacing interval (`N` in the paper, [`CNP_INTERVAL`] by
    /// default); `None` disables CNP generation entirely (e.g. DCTCP hosts).
    pub cnp_interval: Option<Duration>,
    /// Generate out-of-sequence NAKs at all. ConnectX-3-era NICs
    /// effectively recovered only via the retransmission timeout; disable
    /// this to model that (used by the Figure 18 loss study).
    pub nack_enabled: bool,
    /// Data payload bytes per packet (MTU minus headers); at least 1, and
    /// with the headers a frame must fit a packet's `u32` wire size.
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
            cnp_interval: Some(CNP_INTERVAL),
            nack_enabled: true,
            mtu_payload: 1500 - HEADER_BYTES,
            ack_priority: CONTROL_PRIORITY,
        }
    }
}

impl HostConfig {
    /// Checks the knobs that packets carry in narrow fields, where a config
    /// enters (`NetworkBuilder::host`, `Host::new`), and returns
    /// `mtu_payload` as a frame field.
    ///
    /// # Panics
    /// With one line naming the field and its value when `mtu_payload` is
    /// 0 (every packet would be header-only and no message would finish)
    /// or its frame does not fit a packet's `u32` wire size, when
    /// `ack_every` is outside `1..=u16::MAX` (an ACK's `u16` count), or
    /// when `ack_priority` is not below `NUM_PRIORITIES`.
    pub(crate) fn checked_mtu(&self) -> u32 {
        let ack_every = self.ack_every;
        assert!(
            (1..=u32::from(u16::MAX)).contains(&ack_every),
            "host config: ack_every {ack_every} is outside 1..={}",
            u16::MAX
        );
        let ack_priority = self.ack_priority;
        assert!(
            usize::from(ack_priority) < NUM_PRIORITIES,
            "host config: ack_priority {ack_priority} is outside 0..{NUM_PRIORITIES}"
        );
        match u32::try_from(self.mtu_payload) {
            Ok(mtu @ 1..=MAX_PAYLOAD) => mtu,
            _ => panic!(
                "host config: mtu_payload {} is outside 1..={MAX_PAYLOAD} \
                 (with {HEADER_BYTES} header bytes a frame must fit a u32)",
                self.mtu_payload
            ),
        }
    }
}

/// A queued message: `remaining` bytes are not yet cut into packets.
#[derive(Debug, Clone, Copy)]
struct PendingMessage {
    remaining: u64,
    total: u64,
    arrived: Time,
}

/// Karn's flag in a [`SentPkt`]: the PSN was resent.
const RESENT: u64 = 1 << 63;

/// A sent-but-unacknowledged PSN, in 8 B: when it was first put on the
/// wire, with Karn's flag (RTT samples from resent packets are
/// discarded) in the top bit. Its payload and eom are not kept: like a
/// NIC rebuilding a resend from the work request, the QP recomputes them
/// from how its message was cut ([`QpTx::cut`]).
#[derive(Debug, Clone, Copy)]
struct SentPkt(u64);

impl SentPkt {
    /// A PSN first sent at `now`. A clock past 2^63 − 1 ps (106 days of
    /// simulated time) saturates rather than set the flag.
    #[inline]
    fn new(now: Time) -> SentPkt {
        debug_assert!(now.0 < RESENT, "send time {now:?} overlaps Karn's flag");
        SentPkt(now.0.min(RESENT - 1))
    }

    #[inline]
    fn sent_at(self) -> Time {
        Time(self.0 & !RESENT)
    }

    #[inline]
    fn resent(self) -> bool {
        self.0 & RESENT != 0
    }
}

/// Payload of the last packet of a `total`-byte message cut at `mtu`:
/// `(total − 1) % mtu + 1`, or 0 for an empty message.
#[inline]
fn last_payload(total: u64, mtu: u32) -> u32 {
    total.checked_sub(1).map_or(0, |t| {
        // The remainder is below `mtu`, so it fits and `+ 1` cannot wrap.
        u32::try_from(t % u64::from(mtu)).map_or(mtu, |rest| rest + 1)
    })
}

/// One data packet to put on the wire, from [`QpTx::next_packet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxPacket {
    /// Its sequence number.
    pub psn: u64,
    /// Payload bytes.
    pub payload: u32,
    /// Last packet of its message.
    pub eom: bool,
    /// A go-back-N resend of an already-sent PSN.
    pub retx: bool,
    /// A retransmission check to schedule: this packet armed the QP's
    /// deadline, and no check waits at or before it.
    pub arm_rto: Option<Time>,
}

/// What a fired retransmission timer means, from [`QpTx::on_rto`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rto {
    /// Disarmed, nothing outstanding, or the deadline moved out to where
    /// another check already waits: this chain ends.
    Ignore,
    /// The deadline moved out since the timer was set: fire again then.
    Rearm(Time),
    /// A stall: the QP rewound to its oldest unacked PSN and backed off;
    /// the next check is due at the given deadline (`None`: another one
    /// already waits at or before it).
    Resend(Option<Time>),
    /// The retry budget is exhausted: the QP is dead.
    Teardown,
}

/// The sender half of a queue pair: queued messages, the go-back-N PSN
/// window `una ≤ send ≤ next`, the retransmission timer and the retry
/// budget.
#[derive(Debug)]
pub struct QpTx {
    /// Payload bytes of every packet but a message's last.
    mtu: u32,
    messages: VecDeque<PendingMessage>,
    /// Lowest unacknowledged PSN.
    una: u64,
    /// Next PSN to put on the wire (rewinds on NAK/timeout).
    send: u64,
    /// Next never-sent PSN.
    next: u64,
    /// Wire bytes in `[una, next)` (window accounting).
    inflight_wire: u64,
    /// Armed RTO deadline (`None` = disarmed).
    rto_deadline: Option<Time>,
    /// When the last retransmission check asked for is due (`None` once it
    /// fired). A deadline at or after it gets no check of its own: the
    /// check re-arms to it. So one check is pending however often the QP
    /// goes idle and busy again; only a deadline set ahead of a backed-off
    /// check leaves that one pending beside the new one.
    rto_check: Option<Time>,
    /// Last send or ACK activity (drives the idle restart).
    last_activity: Time,
    /// Consecutive retransmission timeouts without ACK progress.
    consecutive_timeouts: u32,
    dead: bool,
    /// The send time and Karn flag of each PSN in `[una, next)`, 8 B a
    /// PSN; its payload and eom come from [`QpTx::cut`].
    unacked: VecDeque<SentPkt>,
    /// Messages fully cut into packets, with their last PSN, awaiting
    /// cumulative acknowledgement; where a PSN's payload is read back.
    unfinished: VecDeque<(u64, PendingMessage)>,
}

impl QpTx {
    /// An idle QP that cuts messages into packets of `mtu` payload bytes.
    ///
    /// # Panics
    /// When `mtu` is 0: no message would ever be cut to its end.
    pub fn new(mtu: u32) -> QpTx {
        assert!(mtu > 0, "QpTx::new: an mtu of 0 never ends a message");
        QpTx {
            mtu,
            messages: VecDeque::new(),
            una: 0,
            send: 0,
            next: 0,
            inflight_wire: 0,
            rto_deadline: None,
            rto_check: None,
            last_activity: Time::ZERO,
            consecutive_timeouts: 0,
            dead: false,
            unacked: VecDeque::new(),
            unfinished: VecDeque::new(),
        }
    }

    /// Queues a message of `bytes` handed to the QP at `now`.
    pub fn push_message(&mut self, bytes: u64, now: Time) {
        self.messages.push_back(PendingMessage {
            remaining: bytes,
            total: bytes,
            arrived: now,
        });
    }

    /// A packet is ready, ignoring pacing, PAUSE and window. A queued
    /// message always has one: a zero-byte message goes out as one
    /// header-only `eom` packet (like an InfiniBand zero-length write)
    /// and completes on its ACK.
    #[inline]
    pub fn has_data(&self) -> bool {
        !self.dead && (self.send < self.next || !self.messages.is_empty())
    }

    /// Nothing outstanding and nothing to send.
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.una == self.next && !self.has_data()
    }

    /// The QP exhausted its retry budget and was torn down.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// How long the QP has been idle at `now`; `None` while it is not.
    pub fn idle_for(&self, now: Time) -> Option<Duration> {
        self.is_idle()
            .then(|| now.saturating_since(self.last_activity))
    }

    /// The bytes in flight leave room under congestion window `window`
    /// (`None`: rate-based, always). Strictly below, so the window may be
    /// overshot by at most one MTU, like a segment-granularity sender.
    #[inline]
    pub fn fits(&self, window: Option<u64>) -> bool {
        window.is_none_or(|w| self.inflight_wire < w)
    }

    /// The go-back-N window as `(una, send, next)`.
    #[inline]
    pub fn psns(&self) -> (u64, u64, u64) {
        (self.una, self.send, self.next)
    }

    /// Takes the packet to put on the wire at `now`: a go-back-N resend
    /// while the QP is rewound, else the next MTU-sized cut of the front
    /// message (`None` when there is none). A disarmed QP arms its
    /// deadline at `now + rto`: a sender that keeps transmitting but gets
    /// no ACK back does time out — the black hole go-back-N must cover.
    /// The packet asks for a check at the deadline only when none waits
    /// at or before it.
    #[inline]
    pub fn next_packet(&mut self, now: Time, rto: Duration) -> Option<TxPacket> {
        let (psn, payload, eom, retx) = if self.send < self.next {
            let slot = self.slot(self.send);
            self.unacked[slot].0 |= RESENT;
            let (payload, eom) = self.cut(self.send);
            (self.send, payload, eom, true)
        } else {
            let mtu = self.mtu;
            let msg = self.messages.front_mut()?;
            let payload = u32::try_from(msg.remaining).map_or(mtu, |rest| rest.min(mtu));
            msg.remaining -= u64::from(payload);
            let eom = msg.remaining == 0;
            if eom {
                self.unfinished.push_back((self.next, *msg));
                self.messages.pop_front();
            }
            self.unacked.push_back(SentPkt::new(now));
            self.next += 1;
            self.inflight_wire += u64::from(payload) + HEADER_BYTES;
            (self.next - 1, payload, eom, false)
        };
        self.send += 1;
        self.last_activity = now;
        let arm_rto = match self.rto_deadline {
            Some(_) => None,
            None => {
                let deadline = now + rto;
                self.rto_deadline = Some(deadline);
                self.file_check(deadline)
            }
        };
        Some(TxPacket {
            psn,
            payload,
            eom,
            retx,
            arm_rto,
        })
    }

    /// A cumulative ACK for every PSN below `cum_psn` arrived at `now`;
    /// returns the wire bytes it newly covers and the send-to-ACK time of
    /// the newest of them (`None` when that packet was resent — Karn's
    /// rule — or nothing new was covered). Progress resets the retry count
    /// and pushes the (soft) deadline to `now + rto`; full acknowledgement
    /// disarms it. The pending timer re-checks the deadline when it fires,
    /// so nothing is rescheduled.
    #[inline]
    pub fn on_ack(&mut self, cum_psn: u64, now: Time, rto: Duration) -> (u64, Option<Duration>) {
        let (mut bytes, mut rtt) = (0, None);
        let end = cum_psn.clamp(self.una, self.next);
        if end > self.una {
            bytes = self.wire_between(self.una, end);
            debug_assert!(self.inflight_wire >= bytes);
            self.inflight_wire -= bytes;
            let newest = self.slot(end - 1);
            let sent = self.unacked[newest];
            rtt = (!sent.resent()).then(|| now.saturating_since(sent.sent_at()));
            self.unacked.drain(..=newest);
            self.una = end;
        }
        self.send = self.send.max(self.una);
        self.last_activity = now;
        if bytes > 0 {
            self.consecutive_timeouts = 0;
        }
        if self.una == self.next {
            self.rto_deadline = None;
        } else if bytes > 0 {
            self.rto_deadline = Some(now + rto);
        }
        (bytes, rtt)
    }

    /// Takes the oldest message the cumulative ACK fully covers, as its
    /// completion at `now`.
    #[inline]
    pub fn pop_completed(&mut self, now: Time) -> Option<Completion> {
        let &(last_psn, m) = self.unfinished.front()?;
        if last_psn >= self.una {
            return None;
        }
        self.unfinished.pop_front();
        let (started, bytes) = (m.arrived, m.total);
        Some(Completion {
            at: now,
            started,
            bytes,
        })
    }

    /// Where PSN `psn` in `[una, next)` sits in `unacked`.
    #[inline]
    fn slot(&self, psn: u64) -> usize {
        usize::try_from(psn - self.una).unwrap_or(usize::MAX)
    }

    /// Payload and eom of PSN `psn` in `[una, next)`, from how its
    /// message was cut: every packet but the last carries the MTU, the
    /// last [`last_payload`]. A PSN past every fully cut message's last
    /// belongs to the front message, which is cut only in full MTUs so
    /// far.
    #[inline]
    fn cut(&self, psn: u64) -> (u32, bool) {
        let k = self.unfinished.partition_point(|&(last, _)| last < psn);
        match self.unfinished.get(k) {
            Some(&(last, m)) if last == psn => (last_payload(m.total, self.mtu), true),
            _ => (self.mtu, false),
        }
    }

    /// Wire bytes of PSNs `[from, to)` within `[una, next)`: a full frame
    /// each, less what each message ending among them falls short of one.
    #[inline]
    fn wire_between(&self, from: u64, to: u64) -> u64 {
        let full = (to - from) * (u64::from(self.mtu) + HEADER_BYTES);
        let k = self.unfinished.partition_point(|&(last, _)| last < from);
        let short: u64 = self
            .unfinished
            .range(k..)
            .take_while(|&&(last, _)| last < to)
            .map(|&(_, m)| u64::from(self.mtu - last_payload(m.total, self.mtu)))
            .sum();
        full - short
    }

    /// The rewind half of a NAK: go back to `expected_psn` when it lies in
    /// the outstanding window `[una, next)`; false (no change) otherwise.
    #[inline]
    pub fn rewind(&mut self, expected_psn: u64) -> bool {
        let in_window = (self.una..self.next).contains(&expected_psn);
        if in_window {
            self.send = expected_psn;
        }
        in_window
    }

    /// A retransmission check due at `at` to schedule, unless the last one
    /// asked for waits at or before it (it re-arms to `at` when it fires).
    fn file_check(&mut self, at: Time) -> Option<Time> {
        if self.rto_check.is_some_and(|check| check <= at) {
            return None;
        }
        self.rto_check = Some(at);
        Some(at)
    }

    /// A retransmission check fired at `now`. Every check acts on the
    /// deadline it finds, so the QP resends exactly when it would if each
    /// arm had scheduled a check of its own. The k-th consecutive timeout
    /// of a stalled QP rewinds it to `una` and waits
    /// `rto · min(2^(k−1), rto_backoff_cap)`; ACK progress resets k.
    /// Timeout `max_retries + 1` tears the QP down.
    pub fn on_rto(&mut self, now: Time, config: &HostConfig) -> Rto {
        if self.rto_check == Some(now) {
            self.rto_check = None;
        }
        let Some(deadline) = self.rto_deadline else {
            return Rto::Ignore;
        };
        if deadline > now {
            return self.file_check(deadline).map_or(Rto::Ignore, Rto::Rearm);
        }
        self.rto_deadline = None;
        if self.una == self.next {
            return Rto::Ignore;
        }
        self.consecutive_timeouts += 1;
        if self.consecutive_timeouts > config.max_retries {
            self.dead = true;
            return Rto::Teardown;
        }
        self.send = self.una;
        let shift = (self.consecutive_timeouts - 1).min(31);
        let factor = (1u64 << shift).min(u64::from(config.rto_backoff_cap.max(1)));
        let deadline = now + config.rto.saturating_mul(factor);
        self.rto_deadline = Some(deadline);
        Rto::Resend(self.file_check(deadline))
    }
}

/// The control frame a data arrival calls for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    /// Nothing (ACK coalescing, or NAK pacing).
    None,
    /// Cumulative ACK of every PSN below `cum_psn`.
    Ack {
        /// First PSN not yet received in order.
        cum_psn: u64,
        /// In-order packets this ACK reports (0 when re-ACKing a duplicate).
        acked: u16,
        /// How many of them were CE-marked (DCTCP's echo).
        marked: u16,
    },
    /// Out-of-sequence NAK for the expected PSN.
    Nack(u64),
}

/// What one data arrival did at the receiver, from [`QpRx::on_data`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RxOutcome {
    /// `Some(gap)` when the NP owes a CNP; `gap` is the time since the
    /// flow's previous CNP (`None` before the first).
    pub cnp: Option<Option<Duration>>,
    /// The packet was in order and is delivered.
    pub delivered: bool,
    /// The ACK or NAK to send back.
    pub reply: Reply,
}

/// The receiver half of a queue pair: the expected PSN, ACK coalescing,
/// NAK pacing and the flow's notification point.
#[derive(Debug, Default)]
pub struct QpRx {
    expected: u64,
    /// `None` when the host generates no CNPs.
    np: Option<NpState>,
    /// Below `ack_every`, which `HostConfig` keeps within `u16`.
    pkts_since_ack: u16,
    marked_since_ack: u16,
    /// The PSN the last NAK asked for and when, until in-order progress.
    last_nack: Option<(u64, Time)>,
}

impl QpRx {
    /// A receiver whose NP paces CNPs at `cnp_interval` (`None`: no NP).
    pub fn new(cnp_interval: Option<Duration>) -> QpRx {
        let np = cnp_interval.map(NpState::new);
        QpRx {
            np,
            ..QpRx::default()
        }
    }

    /// Data packet `psn` arrived at `now`, CE-marked when `ce`, ending its
    /// message when `eom`. A CE arrival may owe a CNP, at most one per
    /// `cnp_interval` (§3.1, Figure 6). In order: deliver, and ACK every
    /// `ack_every` packets and at each message tail. Beyond a gap:
    /// discard and NAK once per episode (`nack_enabled` only). Already
    /// delivered (post-rewind overlap): re-ACK so the sender advances.
    #[inline]
    pub fn on_data(
        &mut self,
        psn: u64,
        ce: bool,
        eom: bool,
        now: Time,
        config: &HostConfig,
    ) -> RxOutcome {
        let cnp = match &mut self.np {
            Some(np) if ce => {
                let gap = np.since_cnp(now);
                np.on_packet(now, ce).then_some(gap)
            }
            _ => None,
        };
        let delivered = psn == self.expected;
        let reply = if delivered {
            self.expected += 1;
            self.last_nack = None;
            self.pkts_since_ack += 1;
            self.marked_since_ack += u16::from(ce);
            if eom || u32::from(self.pkts_since_ack) >= config.ack_every {
                let (acked, marked) = (self.pkts_since_ack, self.marked_since_ack);
                (self.pkts_since_ack, self.marked_since_ack) = (0, 0);
                let cum_psn = self.expected;
                Reply::Ack {
                    cum_psn,
                    acked,
                    marked,
                }
            } else {
                Reply::None
            }
        } else if psn > self.expected {
            let expected = self.expected;
            let repeat = self
                .last_nack
                .is_some_and(|(psn, at)| psn == expected && now - at < NACK_MIN_INTERVAL);
            if !config.nack_enabled || repeat {
                Reply::None
            } else {
                self.last_nack = Some((expected, now));
                Reply::Nack(expected)
            }
        } else {
            let cum_psn = self.expected;
            Reply::Ack {
                cum_psn,
                acked: 0,
                marked: 0,
            }
        };
        RxOutcome {
            cnp,
            delivered,
            reply,
        }
    }
}
