//! The go-back-N queue pair (`netsim::qp`) driven on its own, without a
//! `Network`: the sender's predicates, a unit-scale Figure 18 (NAK versus
//! timeout-only recovery of the same losses), the RTO backoff schedule
//! and teardown, and a table of edge inputs.

use netsim::host::HostConfig;
use netsim::packet::HEADER_BYTES;
use netsim::qp::{QpRx, QpTx, Reply, Rto, RxOutcome, TxPacket};
use netsim::units::{Duration, Time};

const MTU: u64 = 1000;

fn us(n: u64) -> Time {
    Time::from_micros(n)
}

/// A sender holding one message of `bytes`, queued at time zero.
fn qp_with(bytes: u64) -> QpTx {
    let mut tx = QpTx::default();
    tx.push_message(bytes, Time::ZERO);
    tx
}

/// Puts `n` packets on the wire at time zero.
fn send(tx: &mut QpTx, n: usize) -> Vec<TxPacket> {
    let rto = HostConfig::default().rto;
    let sent = (0..n).map(|_| tx.next_packet(Time::ZERO, MTU, rto));
    sent.map(|p| p.expect("a packet is ready")).collect()
}

/// Fires the retransmission timer at each deadline it names until the QP
/// stops resending; returns the last firing time and outcome.
fn black_hole(tx: &mut QpTx, first: Time, config: &HostConfig) -> (Time, Rto) {
    let mut at = first;
    loop {
        match tx.on_rto(at, config) {
            Rto::Resend(deadline) => at = deadline,
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
    let tx = QpTx::default();
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
    let mut tx = qp_with(10 * MTU);
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
    let mut tx = qp_with(MTU);
    let first = send(&mut tx, 1)[0].arm_rto.unwrap();
    assert_eq!(black_hole(&mut tx, first, &config).1, Rto::Teardown);
    tx.push_message(MTU, us(1));
    assert!(tx.is_dead() && !tx.has_data() && !tx.is_idle());
}

#[test]
fn outstanding_data_is_not_idle() {
    let mut tx = qp_with(3 * MTU);
    send(&mut tx, 3);
    tx.on_ack(1, us(1), Duration::from_millis(16));
    assert_eq!(tx.psns(), (1, 3, 3));
    assert!(!tx.has_data());
    assert!(!tx.is_idle(), "unacked data keeps the QP busy");
}

#[test]
fn window_counts_wire_bytes_in_flight() {
    let mut tx = qp_with(2 * MTU);
    send(&mut tx, 1);
    let one = MTU + HEADER_BYTES;
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
    let (mut tx, mut rx) = (qp_with(20 * MTU), QpRx::new(None));
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
            Ev::Send => match tx.next_packet(now, MTU, config.rto) {
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
                    assert_eq!(done.bytes, 20 * MTU);
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
                Rto::Resend(deadline) => {
                    push(&mut queue, deadline, Ev::Rto);
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
    let mut tx = qp_with(MTU);
    let mut at = send(&mut tx, 1)[0].arm_rto.unwrap();
    assert_eq!(at, Time::ZERO + config.rto);
    let mut waits_ms = Vec::new();
    while let Rto::Resend(deadline) = tx.on_rto(at, &config) {
        assert_eq!(tx.psns(), (0, 0, 1), "rewound to una");
        let p = tx.next_packet(at, MTU, config.rto).unwrap();
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
            assert_eq!(bytes, 3 * (MTU + HEADER_BYTES));
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
            assert_eq!(tx.on_ack(1, us(1), config.rto).0, MTU + HEADER_BYTES);
            assert!(tx.rewind(1), "the window still rewinds");
            assert!(tx.is_dead() && !tx.has_data(), "a dead QP sends nothing");
        }),
        ("karn's rule", |config, mut tx| {
            tx.on_ack(1, us(4), config.rto);
            assert!(tx.rewind(1));
            tx.next_packet(us(5), MTU, config.rto);
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
            let p = tx.next_packet(us(1), MTU, config.rto).unwrap();
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
        let mut tx = qp_with(3 * MTU);
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
