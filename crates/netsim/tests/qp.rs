//! The go-back-N queue pair (`netsim::qp`) driven on its own, without a
//! `Network`: the sender's predicates, a unit-scale Figure 18 (NAK versus
//! timeout-only recovery of the same losses), the RTO backoff schedule
//! and teardown, and a table of edge inputs.

use netsim::host::HostConfig;
use netsim::packet::HEADER_BYTES;
use netsim::qp::{QpRx, QpTx, Reply, Rto, RxOutcome, TxPacket};
use netsim::units::{Duration, Time};
use std::collections::VecDeque;

const MTU: u32 = 1000;

/// `n` full packets' worth of payload bytes.
fn mtus(n: u64) -> u64 {
    n * u64::from(MTU)
}

fn us(n: u64) -> Time {
    Time::from_micros(n)
}

/// A sender holding one message of `bytes`, queued at time zero.
fn qp_with(bytes: u64) -> QpTx {
    let mut tx = QpTx::new(MTU);
    tx.push_message(bytes, Time::ZERO);
    tx
}

/// Puts `n` packets on the wire at time zero.
fn send(tx: &mut QpTx, n: usize) -> Vec<TxPacket> {
    let rto = HostConfig::default().rto;
    let sent = (0..n).map(|_| tx.next_packet(Time::ZERO, rto));
    sent.map(|p| p.expect("a packet is ready")).collect()
}

/// Fires the retransmission timer at each deadline it names until the QP
/// stops resending; returns the last firing time and outcome.
fn black_hole(tx: &mut QpTx, first: Time, config: &HostConfig) -> (Time, Rto) {
    let mut at = first;
    loop {
        match tx.on_rto(at, config) {
            Rto::Resend(Some(deadline)) => at = deadline,
            other => return (at, other),
        }
    }
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
fn fresh_qp_is_idle() {
    let tx = QpTx::new(MTU);
    assert!(tx.is_idle() && !tx.has_data() && !tx.is_dead());
    assert_eq!(tx.psns(), (0, 0, 0));
    assert_eq!(tx.idle_for(us(5)), Some(Duration::from_micros(5)));
}

#[test]
fn queued_message_makes_qp_sendable() {
    let tx = qp_with(1000);
    assert!(tx.has_data());
    assert!(!tx.is_idle());
    assert_eq!(tx.idle_for(us(5)), None);
}

#[test]
fn rewound_qp_has_data_even_with_empty_messages() {
    let mut tx = qp_with(mtus(10));
    send(&mut tx, 10);
    assert!(!tx.has_data(), "every packet is out");
    tx.on_ack(5, us(1), Duration::from_millis(16));
    assert!(tx.rewind(5), "go-back-N to the NAKed PSN");
    assert_eq!(tx.psns(), (5, 5, 10));
    assert!(tx.has_data());
}

#[test]
fn dead_qp_never_has_data() {
    let config = HostConfig::default();
    let mut tx = qp_with(mtus(1));
    let first = send(&mut tx, 1)[0].arm_rto.unwrap();
    assert_eq!(black_hole(&mut tx, first, &config).1, Rto::Teardown);
    tx.push_message(mtus(1), us(1));
    assert!(tx.is_dead() && !tx.has_data() && !tx.is_idle());
}

#[test]
fn outstanding_data_is_not_idle() {
    let mut tx = qp_with(mtus(3));
    send(&mut tx, 3);
    tx.on_ack(1, us(1), Duration::from_millis(16));
    assert_eq!(tx.psns(), (1, 3, 3));
    assert!(!tx.has_data());
    assert!(!tx.is_idle(), "unacked data keeps the QP busy");
}

#[test]
fn window_counts_wire_bytes_in_flight() {
    let mut tx = qp_with(mtus(2));
    send(&mut tx, 1);
    let one = mtus(1) + HEADER_BYTES;
    assert!(tx.fits(None), "rate-based: no window");
    assert!(tx.fits(Some(one + 1)));
    assert!(!tx.fits(Some(one)));
}

/// An event of the two-node loop in `run_lossy`.
enum Ev {
    Send,
    Data(TxPacket),
    Reply(Reply),
    Rto,
}

/// Drives one 20-packet message through `QpTx` → wire → `QpRx` and back,
/// dropping the first transmission of each PSN in `drop_once`. The sender
/// starts a packet every 1 µs while it has one; each direction takes
/// 5 µs. Events run in `(time, insertion)` order, like the simulator's.
/// Returns the resent packets and the completion time.
fn run_lossy(config: &HostConfig, drop_once: &[u64]) -> (u64, Time) {
    const GAP: Duration = Duration::from_micros(1);
    const DELAY: Duration = Duration::from_micros(5);
    let (mut tx, mut rx) = (qp_with(mtus(20)), QpRx::new(None));
    let mut queue = vec![(Time::ZERO, 0u64, Ev::Send)];
    let mut seq = 1;
    let mut push = |q: &mut Vec<(Time, u64, Ev)>, at: Time, ev: Ev| {
        q.push((at, seq, ev));
        seq += 1;
    };
    let (mut dropped, mut resent, mut sending) = (Vec::new(), 0, true);
    while let Some(k) = (0..queue.len()).min_by_key(|&k| (queue[k].0, queue[k].1)) {
        let (now, _, ev) = queue.swap_remove(k);
        let mut kick = false;
        match ev {
            Ev::Send => match tx.next_packet(now, config.rto) {
                Some(p) => {
                    resent += u64::from(p.retx);
                    if let Some(at) = p.arm_rto {
                        push(&mut queue, at, Ev::Rto);
                    }
                    if drop_once.contains(&p.psn) && !dropped.contains(&p.psn) {
                        dropped.push(p.psn);
                    } else {
                        push(&mut queue, now + DELAY, Ev::Data(p));
                    }
                    push(&mut queue, now + GAP, Ev::Send);
                }
                None => sending = false,
            },
            Ev::Data(p) => {
                let out = rx.on_data(p.psn, false, p.eom, now, config);
                if out.reply != Reply::None {
                    push(&mut queue, now + DELAY, Ev::Reply(out.reply));
                }
            }
            Ev::Reply(Reply::Ack { cum_psn, .. }) => {
                tx.on_ack(cum_psn, now, config.rto);
                if let Some(done) = tx.pop_completed(now) {
                    assert_eq!(done.bytes, mtus(20));
                    return (resent, now);
                }
            }
            Ev::Reply(Reply::Nack(psn)) => {
                tx.on_ack(psn, now, config.rto);
                kick = tx.rewind(psn);
            }
            Ev::Reply(Reply::None) => unreachable!("never sent"),
            Ev::Rto => match tx.on_rto(now, config) {
                Rto::Ignore => {}
                Rto::Rearm(at) => push(&mut queue, at, Ev::Rto),
                Rto::Resend(check) => {
                    if let Some(at) = check {
                        push(&mut queue, at, Ev::Rto);
                    }
                    kick = true;
                }
                Rto::Teardown => panic!("one loss episode exhausted the retries"),
            },
        }
        if kick && !sending {
            sending = true;
            push(&mut queue, now, Ev::Send);
        }
    }
    panic!("the message never completed");
}

/// Figure 18 at unit scale: PSNs 3 and 7 of 20 are lost once. With NAKs
/// the receiver asks for 3 as soon as 4 arrives (t = 9 µs); the NAK lands
/// at 14 µs, when PSNs 0–13 are out, so go-back-N resends 3–13 (the
/// resent 7 covers the second loss). Timeout-only, the receiver has ACKed
/// nothing (3 in-order packets < `ack_every`), so the 16 ms RTO resends
/// all 20 and the message finishes 400× later.
#[test]
fn nak_recovery_resends_less_than_timeout_only() {
    let nak = HostConfig::default();
    let timeout_only = HostConfig {
        nack_enabled: false,
        ..nak
    };
    assert_eq!(run_lossy(&nak, &[3, 7]), (11, us(40)));
    assert_eq!(run_lossy(&timeout_only, &[3, 7]), (20, us(16_029)));
    assert_eq!(run_lossy(&nak, &[]), (0, us(29)), "lossless baseline");
    assert_eq!(run_lossy(&timeout_only, &[]), (0, us(29)));
}

/// A black-holed QP backs off `rto · min(2^(k−1), cap)` per timeout,
/// resends from its oldest unacked PSN each time, and is torn down at
/// timeout `max_retries + 1`.
#[test]
fn backoff_schedule_then_teardown() {
    let config = HostConfig::default();
    let mut tx = qp_with(mtus(1));
    let mut at = send(&mut tx, 1)[0].arm_rto.unwrap();
    assert_eq!(at, Time::ZERO + config.rto);
    let mut waits_ms = Vec::new();
    while let Rto::Resend(Some(deadline)) = tx.on_rto(at, &config) {
        assert_eq!(tx.psns(), (0, 0, 1), "rewound to una");
        let p = tx.next_packet(at, config.rto).unwrap();
        assert_eq!((p.psn, p.retx, p.arm_rto), (0, true, None));
        waits_ms.push((deadline - at).as_micros_f64() as u64 / 1000);
        at = deadline;
    }
    assert_eq!(waits_ms, [16, 32, 64, 128, 128, 128, 128]);
    assert_eq!(waits_ms.len() as u32, config.max_retries);
    assert!(tx.is_dead() && !tx.has_data());
    assert_eq!(tx.on_rto(at, &config), Rto::Ignore, "the chain ends");
}

/// Edge inputs, one row each: what the QP must do, and not do. Each row
/// starts from a sender that has put PSNs 0..3 of one 3-packet message on
/// the wire at time zero.
#[test]
fn edge_inputs() {
    type Row = fn(&HostConfig, QpTx);
    let rows: [(&str, Row); 7] = [
        ("ack beyond next_psn", |config, mut tx| {
            let (bytes, rtt) = tx.on_ack(10, us(10), config.rto);
            assert_eq!(bytes, 3 * (mtus(1) + HEADER_BYTES));
            assert_eq!(rtt, Some(Duration::from_micros(10)));
            assert_eq!(tx.psns(), (3, 3, 3), "una stops at next");
            assert!(tx.is_idle());
            assert_eq!(
                tx.on_rto(Time::ZERO + config.rto, config),
                Rto::Ignore,
                "disarmed"
            );
        }),
        ("stale nak below una", |config, mut tx| {
            tx.on_ack(2, us(10), config.rto);
            assert_eq!(tx.on_ack(1, us(11), config.rto), (0, None));
            assert!(!tx.rewind(1), "below una: no rewind");
            assert!(!tx.rewind(3), "at next: nothing to resend");
            assert_eq!(tx.psns(), (2, 3, 3));
        }),
        ("nak on a dead qp", |config, mut tx| {
            assert_eq!(
                black_hole(&mut tx, Time::ZERO + config.rto, config).1,
                Rto::Teardown
            );
            assert_eq!(tx.on_ack(1, us(1), config.rto).0, mtus(1) + HEADER_BYTES);
            assert!(tx.rewind(1), "the window still rewinds");
            assert!(tx.is_dead() && !tx.has_data(), "a dead QP sends nothing");
        }),
        ("karn's rule", |config, mut tx| {
            tx.on_ack(1, us(4), config.rto);
            assert!(tx.rewind(1));
            tx.next_packet(us(5), config.rto);
            assert_eq!(tx.on_ack(2, us(9), config.rto).1, None, "resent: no RTT");
        }),
        (
            "timer after progress moved the deadline",
            |config, mut tx| {
                tx.on_ack(1, us(100), config.rto);
                let moved = us(100) + config.rto;
                assert_eq!(
                    tx.on_rto(Time::ZERO + config.rto, config),
                    Rto::Rearm(moved)
                );
                assert!(matches!(tx.on_rto(moved, config), Rto::Resend(_)));
            },
        ),
        ("duplicate data re-acks", |config, _| {
            let mut rx = QpRx::new(None);
            rx.on_data(0, false, false, us(1), config);
            let ack = Reply::Ack {
                cum_psn: 1,
                acked: 0,
                marked: 0,
            };
            let dup = rx.on_data(0, false, false, us(2), config);
            assert_eq!((dup.delivered, dup.reply), (false, ack));
        }),
        ("zero-byte message", |config, _| {
            let mut tx = qp_with(0);
            assert!(tx.has_data());
            let p = tx.next_packet(us(1), config.rto).unwrap();
            assert_eq!((p.psn, p.payload, p.eom, p.retx), (0, 0, true, false));
            assert!(!tx.has_data());
            let out = QpRx::new(None).on_data(p.psn, false, p.eom, us(2), config);
            let ack = Reply::Ack {
                cum_psn: 1,
                acked: 1,
                marked: 0,
            };
            assert_eq!(
                (out.delivered, out.reply),
                (true, ack),
                "a tail is ACKed at once"
            );
            tx.on_ack(1, us(3), config.rto);
            let done = tx.pop_completed(us(3)).unwrap();
            assert_eq!((done.bytes, done.started, done.at), (0, Time::ZERO, us(3)));
            assert!(tx.is_idle() && tx.pop_completed(us(3)).is_none());
        }),
    ];
    let config = HostConfig::default();
    for (name, row) in rows {
        eprintln!("row: {name}");
        let mut tx = qp_with(mtus(3));
        send(&mut tx, 3);
        row(&config, tx);
    }
}

#[test]
fn np_paces_cnps_and_reports_the_gap() {
    let config = HostConfig::default();
    let mut rx = QpRx::new(config.cnp_interval);
    let mut cnp = |psn, ce, t| rx.on_data(psn, ce, false, us(t), &config).cnp;
    assert_eq!(cnp(0, true, 10), Some(None), "first CE: CNP at once");
    assert_eq!(cnp(1, true, 30), None, "within N = 50 µs");
    assert_eq!(cnp(2, false, 70), None, "unmarked");
    assert_eq!(cnp(3, true, 70), Some(Some(Duration::from_micros(60))));
    assert_eq!(
        QpRx::new(None).on_data(0, true, false, us(1), &config).cnp,
        None
    );
}

#[test]
fn acks_coalesce_and_echo_marks() {
    let config = HostConfig::default();
    let mut rx = QpRx::new(None);
    let outs: Vec<RxOutcome> = (0..4)
        .map(|psn| rx.on_data(psn, psn % 2 == 1, false, us(psn), &config))
        .collect();
    assert!(outs.iter().all(|o| o.delivered && o.cnp.is_none()));
    assert!(outs[..3].iter().all(|o| o.reply == Reply::None));
    let ack = Reply::Ack {
        cum_psn: 4,
        acked: 4,
        marked: 2,
    };
    assert_eq!(outs[3].reply, ack, "every `ack_every` packets");
}

#[test]
fn naks_are_paced_per_episode() {
    let config = HostConfig::default();
    let mut rx = QpRx::new(None);
    let mut reply = |psn, t| rx.on_data(psn, false, false, us(t), &config).reply;
    assert_eq!(reply(2, 1), Reply::Nack(0));
    assert_eq!(reply(3, 50), Reply::None, "same episode, within 100 µs");
    assert_eq!(reply(4, 101), Reply::Nack(0), "repeated after 100 µs");
    assert_eq!(reply(0, 102), Reply::None, "in order again");
    assert_eq!(reply(5, 103), Reply::Nack(1), "a new episode NAKs at once");
    let off = HostConfig {
        nack_enabled: false,
        ..config
    };
    assert_eq!(
        QpRx::new(None).on_data(2, false, false, us(1), &off).reply,
        Reply::None
    );
}

/// The reference retransmission timer for `one_check_matches_one_per_arm`:
/// every arm, re-arm and resend schedules a check at its deadline, and
/// every check that fires acts on the deadline it finds. A PSN-level copy
/// of `QpTx`'s deadline rules, without its one-check bookkeeping.
#[derive(Default)]
struct PerArmChain {
    una: u64,
    send: u64,
    next: u64,
    deadline: Option<Time>,
    timeouts: u32,
    dead: bool,
    /// Pending checks as `(due, insertion seq)`.
    checks: Vec<(Time, u64)>,
    seq: u64,
}

impl PerArmChain {
    fn schedule(&mut self, at: Time) {
        self.checks.push((at, self.seq));
        self.seq += 1;
    }

    fn send(&mut self, now: Time, rto: Duration) {
        if self.send == self.next {
            self.next += 1;
        }
        self.send += 1;
        if self.deadline.is_none() {
            self.deadline = Some(now + rto);
            self.schedule(now + rto);
        }
    }

    fn on_ack(&mut self, cum_psn: u64, now: Time, rto: Duration) {
        let una = cum_psn.clamp(self.una, self.next);
        let progress = una > self.una;
        self.una = una;
        self.send = self.send.max(una);
        if progress {
            self.timeouts = 0;
        }
        if self.una == self.next {
            self.deadline = None;
        } else if progress {
            self.deadline = Some(now + rto);
        }
    }

    fn rewind(&mut self, psn: u64) {
        if (self.una..self.next).contains(&psn) {
            self.send = psn;
        }
    }

    fn on_rto(&mut self, now: Time, config: &HostConfig) -> Rto {
        let Some(deadline) = self.deadline else {
            return Rto::Ignore;
        };
        if deadline > now {
            self.schedule(deadline);
            return Rto::Rearm(deadline);
        }
        self.deadline = None;
        if self.una == self.next {
            return Rto::Ignore;
        }
        self.timeouts += 1;
        if self.timeouts > config.max_retries {
            self.dead = true;
            return Rto::Teardown;
        }
        self.send = self.una;
        let factor = (1u64 << (self.timeouts - 1).min(31)).min(u64::from(config.rto_backoff_cap));
        let deadline = now + config.rto.saturating_mul(factor);
        self.deadline = Some(deadline);
        self.schedule(deadline);
        Rto::Resend(Some(deadline))
    }
}

/// Takes the earliest pending check due at or before `until`.
fn due_check(checks: &mut Vec<(Time, u64)>, until: Time) -> Option<Time> {
    let k = (0..checks.len()).min_by_key(|&k| checks[k])?;
    (checks[k].0 <= until).then(|| checks.swap_remove(k).0)
}

/// When each resend (`false`) and teardown (`true`) happened.
type Acts = Vec<(Time, bool)>;

/// Runs `ops` against `QpTx` and against the reference, firing each one's
/// due checks before every op. Returns the resends and teardowns of each,
/// and the most checks either held pending at once.
fn run_rto_chains(ops: &[(u8, u64)], config: &HostConfig) -> (Acts, Acts, [usize; 2]) {
    let (mut tx, mut model) = (QpTx::new(MTU), PerArmChain::default());
    let (mut checks, mut seq) = (Vec::new(), 0u64);
    let (mut acts, mut model_acts, mut peak) = (Vec::new(), Vec::new(), [0; 2]);
    let mut now = Time::ZERO;
    for &(op, arg) in ops {
        // Time steps at every scale the timer cares about: the same
        // instant, ns, ms, and a backed-off RTO's 16–200 ms.
        now += match op % 4 {
            0 => Duration::ZERO,
            1 => Duration::from_nanos(arg % 50_000),
            2 => Duration::from_micros(arg % 20_000),
            _ => Duration::from_micros(arg % 200_000),
        };
        while let Some(at) = due_check(&mut checks, now) {
            let next = match tx.on_rto(at, config) {
                Rto::Ignore => None,
                Rto::Rearm(due) => Some(due),
                Rto::Resend(due) => {
                    acts.push((at, false));
                    due
                }
                Rto::Teardown => {
                    acts.push((at, true));
                    None
                }
            };
            if let Some(due) = next {
                checks.push((due, seq));
                seq += 1;
            }
        }
        while let Some(at) = due_check(&mut model.checks, now) {
            match model.on_rto(at, config) {
                Rto::Resend(_) => model_acts.push((at, false)),
                Rto::Teardown => model_acts.push((at, true)),
                Rto::Ignore | Rto::Rearm(_) => {}
            }
        }
        let window = model.next - model.una;
        match op / 4 % 4 {
            // Send a packet: a go-back-N resend, or a new one.
            0 | 1 if !tx.is_dead() => {
                if !tx.has_data() {
                    tx.push_message(mtus(1), now);
                }
                let p = tx.next_packet(now, config.rto).expect("a packet");
                if let Some(due) = p.arm_rto {
                    checks.push((due, seq));
                    seq += 1;
                }
                model.send(now, config.rto);
            }
            // A cumulative ACK: none, some or all of the window (or past it).
            2 => {
                let cum = model.una + arg % (window + 2);
                tx.on_ack(cum, now, config.rto);
                model.on_ack(cum, now, config.rto);
            }
            // A NAK: the ACK half, then the rewind.
            3 => {
                let psn = model.una + arg % (window + 1);
                tx.on_ack(psn, now, config.rto);
                model.on_ack(psn, now, config.rto);
                tx.rewind(psn);
                model.rewind(psn);
            }
            _ => {}
        }
        assert_eq!(tx.psns(), (model.una, model.send, model.next));
        assert_eq!(tx.is_dead(), model.dead);
        peak[0] = peak[0].max(checks.len());
        peak[1] = peak[1].max(model.checks.len());
    }
    (acts, model_acts, peak)
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2000))]
    /// Random sends, ACKs, NAKs, idle gaps and backoffs: a QP that asks
    /// for a check only when none waits at or before its deadline resends
    /// and tears down at exactly the instants a check per arm did, and
    /// never holds more checks.
    #[test]
    fn one_check_matches_one_per_arm(
        ops in proptest::prelude::prop::collection::vec((0u8..16, 0u64..u64::MAX), 1..300),
    ) {
        let config = HostConfig::default();
        let (acts, model_acts, [peak, model_peak]) = run_rto_chains(&ops, &config);
        proptest::prop_assert_eq!(acts, model_acts);
        proptest::prop_assert!(peak <= model_peak);
    }
}

/// Busy, idle and busy again, a thousand times inside one RTO: a check per
/// arm piles up a thousand pending checks, the QP keeps one.
#[test]
fn idle_busy_cycles_keep_one_check() {
    let ops: Vec<(u8, u64)> = (0..1000)
        .flat_map(|_| [(2, 5), (8, 1)]) // 5 µs on, send; then ACK it
        .collect();
    let (acts, model_acts, [peak, model_peak]) = run_rto_chains(&ops, &HostConfig::default());
    assert!(acts.is_empty() && model_acts.is_empty());
    assert_eq!((peak, model_peak), (1, 1000));
}

/// A sent PSN as the reference keeps it: a copy of its cut.
#[derive(Clone, Copy)]
struct RefSent {
    payload: u32,
    eom: bool,
    sent_at: Time,
    resent: bool,
}

/// The reference sender for `window_matches_the_per_psn_reference`: the
/// same go-back-N rules as `QpTx`, but a full `(payload, eom, sent_at,
/// resent)` record per PSN in `[una, next)`, so a resend or an ACK reads
/// each packet's cut back instead of recomputing it.
struct RefQp {
    mtu: u32,
    /// Queued messages as `(remaining, total, arrived)`.
    messages: VecDeque<(u64, u64, Time)>,
    una: u64,
    send: u64,
    next: u64,
    inflight_wire: u64,
    deadline: Option<Time>,
    check: Option<Time>,
    timeouts: u32,
    dead: bool,
    unacked: VecDeque<RefSent>,
    /// Fully cut messages as `(last PSN, total, arrived)`.
    unfinished: VecDeque<(u64, u64, Time)>,
}

impl RefQp {
    fn new(mtu: u32) -> RefQp {
        RefQp {
            mtu,
            messages: VecDeque::new(),
            una: 0,
            send: 0,
            next: 0,
            inflight_wire: 0,
            deadline: None,
            check: None,
            timeouts: 0,
            dead: false,
            unacked: VecDeque::new(),
            unfinished: VecDeque::new(),
        }
    }

    fn has_data(&self) -> bool {
        !self.dead && (self.send < self.next || !self.messages.is_empty())
    }

    fn fits(&self, window: Option<u64>) -> bool {
        window.is_none_or(|w| self.inflight_wire < w)
    }

    fn file_check(&mut self, at: Time) -> Option<Time> {
        if self.check.is_some_and(|check| check <= at) {
            return None;
        }
        self.check = Some(at);
        Some(at)
    }

    fn next_packet(&mut self, now: Time, rto: Duration) -> Option<TxPacket> {
        let (psn, payload, eom, retx) = if self.send < self.next {
            let sent = &mut self.unacked[usize::try_from(self.send - self.una).unwrap()];
            sent.resent = true;
            (self.send, sent.payload, sent.eom, true)
        } else {
            let (remaining, total, arrived) = self.messages.front_mut()?;
            let payload = (*remaining).min(u64::from(self.mtu));
            *remaining -= payload;
            let eom = *remaining == 0;
            if eom {
                self.unfinished.push_back((self.next, *total, *arrived));
                self.messages.pop_front();
            }
            let payload = u32::try_from(payload).unwrap();
            self.unacked.push_back(RefSent {
                payload,
                eom,
                sent_at: now,
                resent: false,
            });
            self.inflight_wire += u64::from(payload) + HEADER_BYTES;
            self.next += 1;
            (self.next - 1, payload, eom, false)
        };
        self.send += 1;
        let arm_rto = match self.deadline {
            Some(_) => None,
            None => {
                self.deadline = Some(now + rto);
                self.file_check(now + rto)
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

    fn on_ack(&mut self, cum_psn: u64, now: Time, rto: Duration) -> (u64, Option<Duration>) {
        let (mut bytes, mut rtt) = (0, None);
        while self.una < cum_psn {
            let Some(sent) = self.unacked.pop_front() else {
                break;
            };
            let wire = u64::from(sent.payload) + HEADER_BYTES;
            self.inflight_wire -= wire;
            bytes += wire;
            self.una += 1;
            rtt = (!sent.resent).then(|| Duration(now.0.saturating_sub(sent.sent_at.0)));
        }
        self.send = self.send.max(self.una);
        if bytes > 0 {
            self.timeouts = 0;
        }
        if self.una == self.next {
            self.deadline = None;
        } else if bytes > 0 {
            self.deadline = Some(now + rto);
        }
        (bytes, rtt)
    }

    fn pop_completed(&mut self, now: Time) -> Option<(Time, Time, u64)> {
        let &(last, total, arrived) = self.unfinished.front()?;
        if last >= self.una {
            return None;
        }
        self.unfinished.pop_front();
        Some((now, arrived, total))
    }

    fn rewind(&mut self, psn: u64) -> bool {
        let in_window = (self.una..self.next).contains(&psn);
        if in_window {
            self.send = psn;
        }
        in_window
    }

    fn on_rto(&mut self, now: Time, config: &HostConfig) -> Rto {
        if self.check == Some(now) {
            self.check = None;
        }
        let Some(deadline) = self.deadline else {
            return Rto::Ignore;
        };
        if deadline > now {
            return self.file_check(deadline).map_or(Rto::Ignore, Rto::Rearm);
        }
        self.deadline = None;
        if self.una == self.next {
            return Rto::Ignore;
        }
        self.timeouts += 1;
        if self.timeouts > config.max_retries {
            self.dead = true;
            return Rto::Teardown;
        }
        self.send = self.una;
        let factor = (1u64 << (self.timeouts - 1).min(31)).min(u64::from(config.rto_backoff_cap));
        let deadline = now + config.rto.saturating_mul(factor);
        self.deadline = Some(deadline);
        Rto::Resend(self.file_check(deadline))
    }
}

/// The MTUs a case may cut at: one byte, odd, the tests' own, and the
/// largest a frame carries.
const CUT_MTUS: [u32; 4] = [1, 7, MTU, u32::MAX - 64];

/// A message size at an edge of `mtu`'s cut, picked by `arg`: empty, one
/// byte, one short of an MTU, one MTU, one over, a few MTUs, and more
/// than `u32::MAX` bytes.
fn edge_message(mtu: u32, arg: u64) -> u64 {
    let mtu = u64::from(mtu);
    match arg % 7 {
        0 => 0,
        1 => 1,
        2 => mtu - 1,
        3 => mtu,
        4 => mtu + 1,
        5 => (2 + arg / 7 % 4) * mtu,
        _ => u64::from(u32::MAX) + 1 + arg / 7 % (2 * mtu),
    }
}

/// Runs `ops` on a `QpTx` cutting at `mtu` and on the reference in
/// lockstep, comparing every outcome and the window after every op.
fn run_window(mtu: u32, ops: &[(u8, u64)]) {
    let config = HostConfig::default();
    let (mut tx, mut model) = (QpTx::new(mtu), RefQp::new(mtu));
    let mut now = Time::ZERO;
    for &(op, arg) in ops {
        now += match op / 8 % 4 {
            0 => Duration::ZERO,
            1 => Duration::from_nanos(arg % 50_000),
            2 => Duration::from_micros(arg % 20_000),
            _ => Duration::from_micros(arg % 200_000),
        };
        let window = model.next - model.una;
        match op % 8 {
            // Send, queueing a message first when there is nothing to send.
            0..=2 => {
                if !model.has_data() && !model.dead {
                    let bytes = edge_message(mtu, arg);
                    tx.push_message(bytes, now);
                    model.messages.push_back((bytes, bytes, now));
                }
                assert_eq!(
                    tx.next_packet(now, config.rto),
                    model.next_packet(now, config.rto)
                );
            }
            // Queue a message behind the ones already queued.
            3 => {
                let bytes = edge_message(mtu, arg);
                tx.push_message(bytes, now);
                model.messages.push_back((bytes, bytes, now));
            }
            // A cumulative ACK anywhere from below `una` to past `next`,
            // then every completion it allows.
            4 | 5 => {
                let cum = model.una.saturating_sub(1) + arg % (window + 3);
                let acked = tx.on_ack(cum, now, config.rto);
                assert_eq!(acked, model.on_ack(cum, now, config.rto), "ack {cum}");
                loop {
                    let done = tx.pop_completed(now).map(|c| (c.at, c.started, c.bytes));
                    assert_eq!(done, model.pop_completed(now));
                    if done.is_none() {
                        break;
                    }
                }
            }
            // A NAK: the ACK half, then the rewind.
            6 => {
                let psn = model.una + arg % (window + 2);
                let acked = tx.on_ack(psn, now, config.rto);
                assert_eq!(acked, model.on_ack(psn, now, config.rto), "nak {psn}");
                assert_eq!(tx.rewind(psn), model.rewind(psn));
            }
            _ => assert_eq!(tx.on_rto(now, &config), model.on_rto(now, &config)),
        }
        assert_eq!(tx.psns(), (model.una, model.send, model.next));
        assert_eq!(
            (tx.has_data(), tx.is_dead()),
            (model.has_data(), model.dead)
        );
        let w = model.inflight_wire;
        for window in [None, Some(0), Some(w), Some(w + 1), Some(arg)] {
            assert_eq!(tx.fits(window), model.fits(window), "window {window:?}");
        }
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2000))]
    /// Random sends of messages at every edge of the cut, ACKs, NAKs,
    /// timeouts and completions: a window that keeps only each PSN's send
    /// time and Karn flag, and recomputes payloads from the cut, sends,
    /// acknowledges and completes exactly what a copy per PSN does.
    #[test]
    fn window_matches_the_per_psn_reference(
        mtu in 0usize..4,
        ops in proptest::prelude::prop::collection::vec((0u8..32, 0u64..u64::MAX), 1..300),
    ) {
        run_window(CUT_MTUS[mtu], &ops);
    }
}
