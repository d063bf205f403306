//! Message arrivals as `Network::send_message` files them. A flow keeps
//! only its next arrival in the event queue, under the seq reserved when
//! the message was filed, so every arrival pops exactly where an event
//! scheduled at filing would have: in any filing order, at instants that
//! several flows share, and for messages sent mid-run. The pinned
//! fingerprints were taken from the scheduler that queued one event per
//! message.

use netsim::cc::NoCc;
use netsim::host::HostConfig;
use netsim::network::Network;
use netsim::packet::{FlowId, DATA_PRIORITY};
use netsim::switch::SwitchConfig;
use netsim::topology::{star, LinkParams};
use netsim::units::{Duration, Time};
use std::fmt::Write;

/// One message: which flow, when (ns), how many bytes.
type Msg = (usize, u64, u64);

/// Four hosts on one switch. Flows 0 and 1 share host 0's NIC; flows 0
/// and 2 share host 3's downlink.
fn fabric() -> (Network, [FlowId; 3]) {
    let config = HostConfig {
        cnp_interval: None,
        ..HostConfig::default()
    };
    let mut s = star(
        4,
        LinkParams::default(),
        config,
        SwitchConfig::paper_default(),
        1,
    );
    let h = s.hosts;
    let mut flow = |src: usize, dst: usize| {
        s.net
            .add_flow(h[src], h[dst], DATA_PRIORITY, |l| Box::new(NoCc::new(l)))
    };
    let flows = [flow(0, 3), flow(0, 2), flow(1, 3)];
    s.net.enable_trace(1 << 16);
    (s.net, flows)
}

/// FNV-1a over the flows' counters and completions and the whole trace
/// ring, in order.
fn fingerprint(net: &Network, flows: &[FlowId]) -> u64 {
    let mut text = String::new();
    for &f in flows {
        let _ = write!(text, "{:?}", net.flow_stats(f));
    }
    for e in net.trace().iter() {
        let _ = write!(text, "{e:?}");
    }
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Files `msgs` in the given order, runs 2 ms and returns the fingerprint
/// and the completions.
fn run(msgs: &[Msg]) -> (u64, usize) {
    let (mut net, flows) = fabric();
    for &(f, at_ns, bytes) in msgs {
        net.send_message(flows[f], bytes, Time::ZERO + Duration::from_nanos(at_ns));
    }
    net.run_until(Time::from_millis(2));
    let done = flows
        .iter()
        .map(|&f| net.flow_stats(f).completions.len())
        .sum();
    (fingerprint(&net, &flows), done)
}

/// Flow 0: forty messages at distinct instants no other flow uses, some
/// close enough to queue behind each other; flows 1 and 2 load the
/// shared NIC and downlink.
fn spread() -> Vec<Msg> {
    let own = (0..40).map(|k| (0, 1_234 + k * 2_900 + k * k * 37, 400 + (k * 997) % 6_000));
    let others = (0..30).map(|k| (1 + k as usize % 2, k * 3_000, 3_000 + (k * 1_511) % 9_000));
    own.chain(others).collect()
}

#[test]
fn arrivals_filed_in_reverse_pop_in_time_order() {
    let forward = spread();
    let reverse: Vec<Msg> = forward.iter().rev().copied().collect();
    let (want, done) = run(&forward);
    assert_eq!(done, forward.len(), "every message completes");
    assert_eq!(
        run(&reverse).0,
        REVERSE,
        "the one-event-per-message fingerprint"
    );
    assert_eq!(want, FORWARD, "the one-event-per-message fingerprint");
}

#[test]
fn flows_sharing_instants_interleave_in_filing_order() {
    // Five instants, each shared by every flow, with two or three
    // messages per flow per instant, filed interleaved.
    let mut msgs = Vec::new();
    for (i, at_ns) in [0, 0, 2_500, 2_500, 9_000].into_iter().enumerate() {
        for (j, f) in [0, 1, 0, 2, 1, 0, 2].into_iter().enumerate() {
            msgs.push((f, at_ns, 256 + (i * 7 + j) as u64 * 700));
        }
    }
    let (got, done) = run(&msgs);
    assert_eq!(done, msgs.len());
    assert_eq!(got, SHARED, "the one-event-per-message fingerprint");
}

/// Messages sent while the run is under way — for a later instant that
/// messages filed up front share, at the current instant, and into the
/// past (clamped to now). At 20 µs flow 1's mid-run arrival is queued at
/// once under its new seq, while flow 0's second arrival for 20 µs,
/// filed up front under an older seq, enters the event queue only when
/// flow 0's first fires. (Within one instant injection order rarely
/// shows in a fingerprint; `tests/eventq.rs` checks the pop order
/// itself.)
#[test]
fn messages_sent_mid_run_pop_where_they_were_sent() {
    let (mut net, flows) = fabric();
    let at = Time::from_micros(20);
    for &f in &flows[..2] {
        net.send_message(f, 5_000, at + Duration::from_micros(3));
    }
    net.send_message(flows[0], 5_000, at);
    net.send_message(flows[0], 800, at);
    net.run_until(Time::from_micros(10));
    net.send_message(flows[1], 3_000, at);
    net.send_message(flows[2], 300, at);
    net.run_until(at);
    let now = net.now();
    net.send_message(flows[1], 2_000, now);
    net.send_message(flows[0], 700, Time::ZERO);
    net.send_message(flows[2], 2_000, now + Duration::from_micros(3));
    net.send_message(flows[0], 900, now);
    net.run_until(Time::from_millis(2));
    let done: usize = flows
        .iter()
        .map(|&f| net.flow_stats(f).completions.len())
        .sum();
    assert_eq!(done, 10);
    assert_eq!(
        fingerprint(&net, &flows),
        MID_RUN,
        "the one-event-per-message fingerprint"
    );
}

const FORWARD: u64 = 13_194_688_559_528_109_318;
const REVERSE: u64 = FORWARD;
const SHARED: u64 = 1_904_330_263_543_688_092;
const MID_RUN: u64 = 17_560_997_589_051_112_913;
