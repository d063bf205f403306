//! The RoCE go-back-N transport of one queue pair, as two values: the
//! sender half [`QpTx`] and the receiver half [`QpRx`].
//!
//! Like [`crate::cc::CongestionControl`], each half is a pure state
//! machine: a call takes its input and the time and returns a small
//! `Copy` outcome. The host turns outcomes into packets, timers and
//! records; nothing here schedules, sends or counts.

use crate::cc::NpState;
use crate::packet::{Priority, CONTROL_PRIORITY, HEADER_BYTES};
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
    /// Generate out-of-sequence NAKs at all. ConnectX-3-era NICs
    /// effectively recovered only via the retransmission timeout; disable
    /// this to model that (used by the Figure 18 loss study).
    pub nack_enabled: bool,
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
            nack_enabled: true,
            mtu_payload: 1500 - HEADER_BYTES,
            ack_priority: CONTROL_PRIORITY,
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

/// A sent-but-unacknowledged packet, kept for go-back-N resends.
#[derive(Debug, Clone, Copy)]
struct SentPkt {
    payload: u32,
    eom: bool,
    /// When the packet was first put on the wire.
    sent_at: Time,
    /// Karn's rule: RTT samples from resent packets are discarded.
    retransmitted: bool,
}

/// One data packet to put on the wire, from [`QpTx::next_packet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxPacket {
    /// Its sequence number.
    pub psn: u64,
    /// Payload bytes.
    pub payload: u64,
    /// Last packet of its message.
    pub eom: bool,
    /// A go-back-N resend of an already-sent PSN.
    pub retx: bool,
    /// The retransmission deadline this packet armed (the QP was disarmed).
    pub arm_rto: Option<Time>,
}

/// What a fired retransmission timer means, from [`QpTx::on_rto`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rto {
    /// Disarmed or nothing outstanding: the timer chain ends.
    Ignore,
    /// The deadline moved out since the timer was set: fire again then.
    Rearm(Time),
    /// A stall: the QP rewound to its oldest unacked PSN and backed off;
    /// the next timer is due at the given deadline.
    Resend(Time),
    /// The retry budget is exhausted: the QP is dead.
    Teardown,
}

/// The sender half of a queue pair: queued messages, the go-back-N PSN
/// window `una ≤ send ≤ next`, the retransmission timer and the retry
/// budget.
#[derive(Debug, Default)]
pub struct QpTx {
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
    /// Last send or ACK activity (drives the idle restart).
    last_activity: Time,
    /// Consecutive retransmission timeouts without ACK progress.
    consecutive_timeouts: u32,
    dead: bool,
    /// One entry per PSN in `[una, next)`.
    unacked: VecDeque<SentPkt>,
    /// Messages fully cut into packets, with their last PSN, awaiting
    /// cumulative acknowledgement.
    unfinished: VecDeque<(u64, PendingMessage)>,
}

impl QpTx {
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
    /// while the QP is rewound, else the next `mtu`-sized cut of the front
    /// message (`None` when there is none). A disarmed QP arms its
    /// deadline at `now + rto`: a sender that keeps transmitting but gets
    /// no ACK back does time out — the black hole go-back-N must cover.
    #[inline]
    pub fn next_packet(&mut self, now: Time, mtu: u64, rto: Duration) -> Option<TxPacket> {
        let (psn, payload, eom, retx) = if self.send < self.next {
            let meta = &mut self.unacked[(self.send - self.una) as usize];
            meta.retransmitted = true;
            (self.send, u64::from(meta.payload), meta.eom, true)
        } else {
            let msg = self.messages.front_mut()?;
            let payload = msg.remaining.min(mtu);
            msg.remaining -= payload;
            let eom = msg.remaining == 0;
            if eom {
                self.unfinished.push_back((self.next, *msg));
                self.messages.pop_front();
            }
            self.unacked.push_back(SentPkt {
                payload: payload as u32,
                eom,
                sent_at: now,
                retransmitted: false,
            });
            self.next += 1;
            self.inflight_wire += payload + HEADER_BYTES;
            (self.next - 1, payload, eom, false)
        };
        self.send += 1;
        self.last_activity = now;
        let arm_rto = self.rto_deadline.is_none().then_some(now + rto);
        self.rto_deadline = self.rto_deadline.or(arm_rto);
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
        while self.una < cum_psn {
            let Some(meta) = self.unacked.pop_front() else {
                break;
            };
            let wire = u64::from(meta.payload) + HEADER_BYTES;
            debug_assert!(self.inflight_wire >= wire);
            self.inflight_wire -= wire;
            bytes += wire;
            self.una += 1;
            rtt = (!meta.retransmitted).then(|| now.saturating_since(meta.sent_at));
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

    /// The retransmission timer fired at `now`. The k-th consecutive
    /// timeout of a stalled QP rewinds it to `una` and waits
    /// `rto · min(2^(k−1), rto_backoff_cap)`; ACK progress resets k.
    /// Timeout `max_retries + 1` tears the QP down.
    pub fn on_rto(&mut self, now: Time, config: &HostConfig) -> Rto {
        let Some(deadline) = self.rto_deadline else {
            return Rto::Ignore;
        };
        if deadline > now {
            return Rto::Rearm(deadline);
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
        Rto::Resend(deadline)
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
        acked: u32,
        /// How many of them were CE-marked (DCTCP's echo).
        marked: u32,
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
    pkts_since_ack: u32,
    marked_since_ack: u32,
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
            self.marked_since_ack += u32::from(ce);
            if eom || self.pkts_since_ack >= config.ack_every {
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
