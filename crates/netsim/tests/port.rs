//! Tests of [`Port`], the link endpoint a switch port and a host NIC
//! share.
//!
//! * Queues: a differential test of the slab-backed storage — random
//!   enqueue / dequeue / `tx_done` / PFC sequences of frames of every
//!   kind, with every field at its range edges, against the
//!   obviously-correct layout it replaced (one `VecDeque` per priority
//!   and a linear scan), checking every field of each dequeued frame,
//!   its stamp and release key, byte accounting and eligibility after
//!   every step, plus the memory contract: slab slots = peak of
//!   concurrently queued entries. A second draw interleaves stamped and
//!   unstamped (`Time::ZERO`) frames, so a slot changes between the two
//!   and every hop span must still carry its own frame's stamp.
//! * Transmitter and PFC receiver: `start_tx` / `tx_done` / `rx_pfc` over
//!   a hand-built [`Ctx`] (no `Network`), event by event.
//! * The two things a `Switch` adds around them that have one code path
//!   each: PAUSE/RESUME emission and the drop record.

use netsim::audit::Auditor;
use netsim::buffer::PfcThreshold;
use netsim::event::{Event, EventQueue, LinkId, NodeId, PortId};
use netsim::network::Ctx;
use netsim::packet::{Ecn, FlowId, Packet, PacketKind, DATA_PRIORITY, NUM_PRIORITIES};
use netsim::port::{Attachment, Port, Queued, MAX_PORTS};
use netsim::rng::SplitMix64;
use netsim::slab::PacketPool;
use netsim::switch::{Switch, SwitchConfig};
use netsim::telemetry::{FlightRecorder, Metrics, Spans};
use netsim::trace::{TraceKind, Tracer};
use netsim::units::{Bandwidth, Duration, Time};
use proptest::prelude::*;
use std::collections::VecDeque;

/// Where a frame's shared-buffer bytes go back when it leaves:
/// `(ingress port, priority)`, as given to `Queued::new`.
type Ingress = Option<(usize, usize)>;

/// What `Port::tx_done` returns: the `(ingress port, priority, wire
/// bytes)` a switch must release, if any.
type Release = Option<(usize, usize, u64)>;

/// A frame as the reference model keeps it: the packet, where its
/// buffer bytes go back, and its enqueue stamp.
#[derive(Clone, Copy)]
struct Entry {
    pkt: Packet,
    ingress: Ingress,
    stamp: Time,
}

/// The reference model: the old `Port` storage and scan.
#[derive(Default)]
struct RefPort {
    pfc_queue: VecDeque<Packet>,
    queues: [VecDeque<Entry>; NUM_PRIORITIES],
    queued_bytes: [u64; NUM_PRIORITIES],
    rx_paused: [bool; NUM_PRIORITIES],
    /// The frame in flight, and whether `queued_bytes` counts it.
    current: Option<(Entry, bool)>,
    /// Most entries ever held in `queues` at once.
    max_queued: usize,
}

impl RefPort {
    fn enqueue(&mut self, entry: Entry) {
        let prio = entry.pkt.priority as usize;
        self.queued_bytes[prio] += entry.pkt.wire();
        self.queues[prio].push_back(entry);
        let queued = self.queues.iter().map(VecDeque::len).sum();
        self.max_queued = self.max_queued.max(queued);
    }

    fn dequeue_next(&mut self) -> Option<(Entry, bool)> {
        if let Some(pkt) = self.pfc_queue.pop_front() {
            let pfc = Entry {
                pkt,
                ingress: None,
                stamp: Time::ZERO,
            };
            return Some((pfc, false));
        }
        (0..NUM_PRIORITIES)
            .filter(|&p| !self.rx_paused[p])
            .find_map(|p| self.queues[p].pop_front())
            .map(|entry| (entry, true))
    }

    fn has_eligible(&self) -> bool {
        !self.pfc_queue.is_empty()
            || (0..NUM_PRIORITIES).any(|p| !self.rx_paused[p] && !self.queues[p].is_empty())
    }

    /// The frame in flight leaves: returns it with its release.
    fn tx_done(&mut self) -> Option<(Entry, Release)> {
        let (entry, counted) = self.current.take()?;
        let wire = entry.pkt.wire();
        if counted {
            self.queued_bytes[entry.pkt.priority as usize] -= wire;
        }
        Some((entry, entry.ingress.map(|(port, prio)| (port, prio, wire))))
    }
}

/// Every field of a frame, for comparing two field for field (`Packet`
/// deliberately has no `PartialEq`). Destructured, so a field added to
/// `Packet` must be added here.
fn fields(pkt: &Packet) -> (PacketKind, NodeId, NodeId, FlowId, u8, u32, Ecn) {
    let Packet {
        kind,
        src,
        dst,
        flow,
        priority,
        wire_bytes,
        ecn,
    } = *pkt;
    (kind, src, dst, flow, priority, wire_bytes, ecn)
}

/// 0, `max`, or anything between, each often enough that a range edge
/// is drawn in every run.
fn edge(rng: &mut SplitMix64, max: u64) -> u64 {
    let x = rng.next_u64();
    match x % 4 {
        0 => 0,
        1 => max,
        _ if max == u64::MAX => x,
        _ => x % (max + 1),
    }
}

/// A frame of class `class` whose every other field is drawn from `seed`:
/// any kind, PSNs over the whole `u64`, payload and wire size up to
/// `u32::MAX`, ACK counts up to `u16::MAX`, every ECN codepoint, node and
/// flow ids up to `u32::MAX − 1` (the largest a network admits) and the
/// no-flow `FlowId(u64::MAX)`.
fn frame(class: u8, seed: u64) -> Packet {
    let rng = &mut SplitMix64::new(seed);
    let largest_id = u64::from(u32::MAX) - 1;
    let kind = match rng.below(5) {
        0 => PacketKind::Data {
            psn: edge(rng, u64::MAX),
            payload: edge(rng, u32::MAX.into()) as u32,
            eom: rng.below(2) == 1,
        },
        1 => PacketKind::Ack {
            cum_psn: edge(rng, u64::MAX),
            acked: edge(rng, u16::MAX.into()) as u16,
            marked: edge(rng, u16::MAX.into()) as u16,
        },
        2 => PacketKind::Nack {
            expected_psn: edge(rng, u64::MAX),
        },
        3 => PacketKind::Cnp,
        _ => PacketKind::Pfc {
            class: rng.below(NUM_PRIORITIES as u64) as u8,
            pause: rng.below(2) == 1,
        },
    };
    let flow = match rng.below(4) {
        0 => FlowId(u64::MAX),
        _ => FlowId(edge(rng, largest_id)),
    };
    Packet {
        kind,
        src: NodeId(edge(rng, largest_id) as usize),
        dst: NodeId(edge(rng, largest_id) as usize),
        flow,
        priority: class,
        wire_bytes: edge(rng, u32::MAX.into()) as u32,
        ecn: *rng.pick(&[Ecn::NotEct, Ecn::Ect, Ecn::Ce]),
    }
}

fn check_views(port: &Port, model: &RefPort) {
    assert_eq!(port.queued_bytes, model.queued_bytes);
    assert_eq!(
        port.total_queued_bytes(),
        model.queued_bytes.iter().sum::<u64>()
    );
    assert_eq!(port.has_eligible(), model.has_eligible());
    assert_eq!(port.peak_queued(), model.max_queued);
    port.check_conservation(&mut |what| panic!("{what}"));
}

/// One generated step: `(op, class, ingress, seed)`, where ingress 0 is
/// none, 1 is port 0 and 2 the widest port a switch can have, and `seed`
/// draws the frame ([`frame`]), its release class and its enqueue stamp.
/// Ops 0–3 enqueue a stamped frame, ops 10 and above an unstamped one.
type Op = (u8, u8, u8, u64);

/// Applies one generated op to both ports.
fn apply(port: &mut Port, model: &mut RefPort, ctx: &mut Ctx, op: Op) {
    let (op, class, ingress, seed) = op;
    match op {
        // Enqueue is the most common op so that queues build up.
        0..=3 | 10.. => {
            // The release class is drawn apart from the frame's class,
            // so a slab record must keep the two apart.
            let c = (seed.rotate_right(17) % NUM_PRIORITIES as u64) as usize;
            let entry = Entry {
                pkt: frame(class, seed),
                ingress: [None, Some((0, c)), Some((MAX_PORTS - 1, c))][ingress as usize],
                stamp: if op < 10 {
                    Time(seed.rotate_left(32))
                } else {
                    Time::ZERO
                },
            };
            let q = Queued::new(entry.pkt, entry.ingress);
            port.enqueue(if op < 10 { q.at(entry.stamp) } else { q });
            model.enqueue(entry);
        }
        // Start the next frame if the transmitter is idle.
        4..=5 => {
            if port.current.is_none() {
                port.current = port.dequeue_next();
                model.current = model.dequeue_next();
            }
        }
        // The frame in flight leaves: the same release key, its
        // `Deliver` carries the same frame, and a data frame's hop span
        // the same enqueue stamp.
        6 => {
            // Far enough on that even a `u32::MAX`-byte frame has
            // serialized since the clock's start.
            advance(ctx, ctx.queue.now() + Duration::from_millis(1000));
            let hops = ctx.spans.hops().len();
            let left = model.tx_done();
            let released = port.tx_done(ctx, HERE.0, HERE.1);
            assert_eq!(released, left.and_then(|(_, release)| release));
            let delivered = ctx.queue.pop().map(|(_, event)| match event {
                Event::Deliver { pkt, .. } => fields(&ctx.pool.take(pkt)),
                other => panic!("expected Deliver, got {other:?}"),
            });
            assert_eq!(delivered, left.map(|(entry, _)| fields(&entry.pkt)));
            let stamped = ctx.spans.hops()[hops..]
                .iter()
                .map(|h| (h.flow, h.enqueued));
            let data = left.filter(|(entry, _)| matches!(entry.pkt.kind, PacketKind::Data { .. }));
            let want = data.map(|(entry, _)| (entry.pkt.flow, entry.stamp));
            assert!(
                stamped.eq(want),
                "one hop span per data frame, stamped as enqueued"
            );
        }
        7 => {
            let pause = seed % 2 == 0;
            port.apply_pfc(class, pause, Time::ZERO);
            model.rx_paused[class as usize] = pause;
        }
        8 => {
            let frame = Packet::pfc(NodeId(0), NodeId(1), class, true);
            port.pfc_queue.push_back(frame);
            model.pfc_queue.push_back(frame);
        }
        9 => {
            port.reset_pfc();
            model.rx_paused = [false; NUM_PRIORITIES];
            model.pfc_queue.clear();
        }
    }
    let in_flight = port.current.as_ref().map(|q| fields(&q.pkt));
    assert_eq!(
        in_flight,
        model.current.map(|(entry, _)| fields(&entry.pkt))
    );
}

/// Runs `ops` on a port and the reference, then drains both with every
/// class released: they empty in the same order and the accounting
/// returns to zero.
fn run_against_reference(ops: &[Op]) {
    let (mut port, mut model, mut ctx) = (attached(), RefPort::default(), bare_ctx(1));
    ctx.spans.enable(16);
    for &op in ops {
        apply(&mut port, &mut model, &mut ctx, op);
        check_views(&port, &model);
    }
    apply(&mut port, &mut model, &mut ctx, (9, 0, 0, 0));
    while port.has_eligible() || port.current.is_some() {
        apply(&mut port, &mut model, &mut ctx, (6, 0, 0, 0));
        apply(&mut port, &mut model, &mut ctx, (4, 0, 0, 0));
        check_views(&port, &model);
    }
    assert_eq!(port.total_queued_bytes(), 0);
}

proptest! {
    #[test]
    fn port_matches_the_vecdeque_reference(
        ops in prop::collection::vec(
            (0u8..10, 0u8..NUM_PRIORITIES as u8, 0u8..3, 0..=u64::MAX),
            1..400,
        ),
    ) {
        run_against_reference(&ops);
    }

    /// Stamped and unstamped frames share one port's slots: a stamped
    /// frame lands where an unstamped one was, and the other way round,
    /// and each hop span carries its own frame's stamp (`Time::ZERO` when
    /// none), never the slot's previous one.
    #[test]
    fn stamped_and_unstamped_frames_keep_their_own_stamps(
        ops in prop::collection::vec(
            (0u8..14, 0u8..NUM_PRIORITIES as u8, 0u8..3, 0..=u64::MAX),
            1..400,
        ),
    ) {
        run_against_reference(&ops);
    }
}

/// The slot cases by hand: slot 0 holds a stamped frame, then an
/// unstamped one, then a stamped one again; an unstamped frame first in
/// a fresh port, and one past the end of the stamp column, read
/// `Time::ZERO`.
#[test]
fn a_reused_slot_carries_the_new_frames_stamp() {
    let mut ctx = bare_ctx(1);
    ctx.spans.enable(16);
    let mut port = attached();
    let mut send = |port: &mut Port, q: Queued| {
        port.enqueue(q);
        port.start_tx(&mut ctx, HERE.0, HERE.1);
        ctx.queue.pop().unwrap(); // its TxDone
        port.tx_done(&mut ctx, HERE.0, HERE.1);
        ctx.queue.pop().unwrap(); // its Deliver
        ctx.spans.hops().last().unwrap().enqueued
    };
    let q = |psn| Queued::new(data(psn), None);
    let (t1, t2) = (Time::from_micros(1), Time::from_micros(2));
    assert_eq!(send(&mut port, q(0)), Time::ZERO, "fresh port, no stamp");
    assert_eq!(send(&mut port, q(1).at(t1)), t1);
    assert_eq!(send(&mut port, q(2)), Time::ZERO, "not the old stamp");
    assert_eq!(send(&mut port, q(3).at(t2)), t2);
    // With one frame always waiting, each send fills the slot the last
    // one left and transmits the frame queued before it: q(5) goes to
    // slot 1, past the column's end, q(6) to slot 0, q(7) to slot 1.
    port.enqueue(q(4).at(t1));
    assert_eq!(send(&mut port, q(5)), t1);
    assert_eq!(send(&mut port, q(6).at(t2)), Time::ZERO, "q(5), slot 1");
    assert_eq!(send(&mut port, q(7)), t2, "q(6), slot 0");
}

/// A standing queue of 16 cycled a million times needs 16 slots: not one
/// per packet ever queued, and not a ring sized by an earlier burst that
/// every later packet keeps walking through.
#[test]
fn slab_size_is_the_concurrent_peak_not_the_history() {
    let mut port = Port::new();
    let frame = |psn| {
        let prio = (psn % 3) as u8;
        Queued::new(
            Packet::data(NodeId(0), NodeId(1), FlowId(0), prio, psn, 1000),
            None,
        )
    };
    for psn in 0..16 {
        port.enqueue(frame(psn));
    }
    for psn in 16..1_000_016 {
        port.current = port.dequeue_next();
        assert!(port.finish_current().is_some());
        port.enqueue(frame(psn));
    }
    assert_eq!(port.peak_queued(), 16);
    port.check_conservation(&mut |what| panic!("{what}"));
}

// ----------------------------------------------------------------------
// Transmitter and PFC receiver, over a hand-built `Ctx`
// ----------------------------------------------------------------------

const LINE: Bandwidth = Bandwidth::gbps(40);
const DELAY: Duration = Duration::from_micros(2);
/// Where the port under test sits, and what its link leads to.
const HERE: (NodeId, PortId) = (NodeId(0), PortId(1));
const PEER: (NodeId, PortId) = (NodeId(5), PortId(3));

/// What `NetworkBuilder::build` assembles, with every observer off.
fn bare_ctx(nodes: usize) -> Ctx {
    Ctx {
        queue: EventQueue::new(),
        rng: SplitMix64::new(1),
        ecmp_salt: 0,
        flow_stats: Vec::new(),
        tracer: Tracer::disabled(),
        audit: Auditor::default(),
        metrics: Metrics::standard(),
        flight: FlightRecorder::new(nodes),
        spans: Spans::disabled(),
        pool: PacketPool::new(),
    }
}

/// Moves `ctx`'s clock to `t` by running a no-op event there.
fn advance(ctx: &mut Ctx, t: Time) {
    ctx.queue.schedule(t, Event::Hook { id: 0 });
    assert!(matches!(ctx.queue.pop(), Some((at, Event::Hook { .. })) if at == t));
}

fn attached() -> Port {
    let mut port = Port::new();
    port.attach = Some(Attachment {
        link: LinkId(0),
        peer: PEER.0,
        peer_port: PEER.1,
        bandwidth: LINE,
        delay: DELAY,
    });
    port
}

fn data(psn: u64) -> Packet {
    Packet::data(NodeId(9), NodeId(5), FlowId(4), DATA_PRIORITY, psn, 1000)
}

#[test]
fn start_tx_schedules_one_tx_done_and_only_when_idle() {
    let mut ctx = bare_ctx(1);
    let start = Time::from_micros(7);
    advance(&mut ctx, start);
    let mut port = attached();
    port.enqueue(Queued::new(data(0), None));
    port.enqueue(Queued::new(data(1), None));

    port.start_tx(&mut ctx, HERE.0, HERE.1);
    assert!(port.busy);
    assert_eq!(port.current.map(|q| fields(&q.pkt)), Some(fields(&data(0))));
    // Busy: the second frame waits, nothing more is scheduled.
    port.start_tx(&mut ctx, HERE.0, HERE.1);
    assert_eq!(ctx.queue.len(), 1);
    let (at, event) = ctx.queue.pop().unwrap();
    assert_eq!(at, start + LINE.serialize(data(0).wire()));
    assert!(matches!(event, Event::TxDone { node, port } if (node, port) == HERE));
}

#[test]
fn an_unattached_or_fully_paused_port_never_goes_busy() {
    let mut ctx = bare_ctx(1);
    let mut unattached = Port::new();
    unattached.enqueue(Queued::new(data(0), None));
    unattached.start_tx(&mut ctx, HERE.0, HERE.1);
    assert!(!unattached.busy && unattached.current.is_none());

    let mut paused = attached();
    paused.enqueue(Queued::new(data(0), None));
    paused.apply_pfc(DATA_PRIORITY, true, Time::ZERO);
    paused.start_tx(&mut ctx, HERE.0, HERE.1);
    assert!(!paused.busy && paused.current.is_none());
    assert!(ctx.queue.is_empty(), "neither port scheduled anything");

    // RESUME makes the same frame eligible.
    paused.apply_pfc(DATA_PRIORITY, false, Time::ZERO);
    paused.start_tx(&mut ctx, HERE.0, HERE.1);
    assert!(paused.busy);
}

#[test]
fn tx_done_puts_the_frame_on_the_wire_and_returns_the_release_key() {
    let mut ctx = bare_ctx(1);
    ctx.spans.enable(16);
    let mut port = attached();
    let prio = DATA_PRIORITY as usize;
    let wire = data(0).wire();
    let enqueued = Time::from_micros(1);
    // A forwarded data frame (ingress port 2), a host-style data frame
    // with no buffer attribution, and a link-local PFC frame.
    port.enqueue(Queued::new(data(0), Some((2, prio))).at(enqueued));
    port.enqueue(Queued::new(data(1), None));
    assert_eq!(port.queued_bytes[prio], 2 * wire);

    advance(&mut ctx, Time::from_micros(3));
    port.start_tx(&mut ctx, HERE.0, HERE.1);
    let (done_at, _) = ctx.queue.pop().unwrap();
    let released = port.tx_done(&mut ctx, HERE.0, HERE.1);
    assert_eq!(released, Some((2, prio, wire)));
    assert!(!port.busy && port.current.is_none());
    assert_eq!(port.queued_bytes[prio], wire, "the sent frame is drained");

    // Exactly one event: the Deliver, one propagation delay later, with
    // the same packet in the pool.
    assert_eq!(ctx.queue.len(), 1);
    let (at, event) = ctx.queue.pop().unwrap();
    assert_eq!(at, done_at + DELAY);
    let Event::Deliver { node, port: p, pkt } = event else {
        panic!("expected Deliver, got {event:?}");
    };
    assert_eq!((node, p), PEER);
    assert_eq!(fields(&ctx.pool.take(pkt)), fields(&data(0)));

    // One hop span for the data frame: queued, then serialized.
    let hops = ctx.spans.hops();
    assert_eq!(hops.len(), 1);
    assert_eq!((hops[0].node, hops[0].port), HERE);
    assert_eq!(hops[0].flow, FlowId(4));
    assert_eq!(hops[0].enqueued, enqueued);
    assert_eq!(hops[0].start, Time::from_micros(3));
    assert_eq!(hops[0].end, done_at);

    // The unattributed frame releases nothing but is a data hop too …
    port.start_tx(&mut ctx, HERE.0, HERE.1);
    ctx.queue.pop().unwrap();
    assert_eq!(port.tx_done(&mut ctx, HERE.0, HERE.1), None);
    assert_eq!(port.total_queued_bytes(), 0);
    assert_eq!(ctx.spans.hops().len(), 2);
    // … and a PFC frame releases nothing and is no hop.
    port.pfc_queue
        .push_back(Packet::pfc(HERE.0, PEER.0, DATA_PRIORITY, true));
    port.start_tx(&mut ctx, HERE.0, HERE.1);
    ctx.queue.pop().unwrap();
    ctx.queue.pop().unwrap(); // the previous frame's Deliver
    assert_eq!(port.tx_done(&mut ctx, HERE.0, HERE.1), None);
    assert_eq!(ctx.spans.hops().len(), 2);
    assert_eq!(
        ctx.queue.len(),
        1,
        "the PFC frame is delivered like any other"
    );

    // With spans off nothing is recorded.
    let mut quiet = bare_ctx(1);
    port.enqueue(Queued::new(data(2), None));
    port.start_tx(&mut quiet, HERE.0, HERE.1);
    quiet.queue.pop().unwrap();
    port.tx_done(&mut quiet, HERE.0, HERE.1);
    assert!(quiet.spans.hops().is_empty());
}

#[test]
fn rx_pfc_samples_the_pause_duration_once_per_release() {
    let mut ctx = bare_ctx(1);
    let mut port = attached();
    let samples = |ctx: &Ctx| {
        let h = &ctx.metrics.pause_duration_us;
        (h.count(), h.max())
    };
    // RESUME with no pause outstanding: nothing to release or sample.
    assert!(!port.rx_pfc(&mut ctx, 3, false));
    assert_eq!(samples(&ctx), (0, 0));

    advance(&mut ctx, Time::from_micros(10));
    assert!(!port.rx_pfc(&mut ctx, 3, true));
    assert!(port.rx_paused[3]);
    advance(&mut ctx, Time::from_micros(35));
    assert!(port.rx_pfc(&mut ctx, 3, false), "the class is released");
    assert_eq!(samples(&ctx), (1, 25), "one sample of the elapsed 25 µs");
    assert!(!port.rx_pfc(&mut ctx, 3, false), "released only once");
    assert_eq!(samples(&ctx), (1, 25));

    // While the watchdog ignores the class, PAUSE changes nothing.
    port.pfc_ignore[3] = true;
    assert!(!port.rx_pfc(&mut ctx, 3, true));
    assert!(!port.rx_paused[3]);
    assert_eq!(port.rx_paused_since[3], Time::NEVER);
    assert_eq!(samples(&ctx), (1, 25));
}

// ----------------------------------------------------------------------
// What a switch adds: PAUSE/RESUME emission and the drop record
// ----------------------------------------------------------------------

/// A two-port switch: ingress port 0 (from node 1), egress port 1 (to
/// node 2, the only routable destination), pausing above 4000 B.
fn small_switch() -> Switch {
    let mut config = SwitchConfig::paper_default();
    config.buffer.threshold = PfcThreshold::Static(4000);
    let mut sw = Switch::new(NodeId(0), 2, config);
    for p in 0..2 {
        let mut att = attached().attach.unwrap();
        (att.link, att.peer, att.peer_port) = (LinkId(p), NodeId(p + 1), PortId(0));
        sw.ports[p].attach = Some(att);
    }
    sw.routes.insert(NodeId(2), vec![PortId(1)]);
    sw
}

#[test]
fn pause_then_resume_are_each_told_once() {
    let mut sw = small_switch();
    let mut ctx = bare_ctx(3);
    ctx.tracer.enable(64);
    ctx.spans.enable(64);
    // Three 1500 B frames arrive back to back: 4500 B > t_PFC on the
    // third, which is the flow the PAUSE is attributed to.
    for psn in 0..3 {
        let pkt = Packet::data(NodeId(1), NodeId(2), FlowId(psn), DATA_PRIORITY, psn, 1436);
        sw.receive(&mut ctx, PortId(0), pkt);
    }
    assert_eq!((sw.stats.pause_tx, sw.stats.resume_tx), (1, 0));
    assert!(sw.ports[0].tx_pause_sent[DATA_PRIORITY as usize]);
    // Drain: RESUME fires once the ingress queue is two MTUs below t_PFC.
    while let Some((_, event)) = ctx.queue.pop() {
        match event {
            Event::TxDone { port, .. } => sw.tx_done(&mut ctx, port),
            Event::Deliver { pkt, .. } => drop(ctx.pool.take(pkt)),
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!((sw.stats.pause_tx, sw.stats.resume_tx), (1, 1));
    assert!(!sw.ports[0].tx_pause_sent[DATA_PRIORITY as usize]);

    let told: Vec<_> = ctx.tracer.iter().map(|e| (e.kind, e.flow)).collect();
    assert_eq!(
        told,
        [
            (TraceKind::PauseSent, FlowId(2)),
            (TraceKind::ResumeSent, FlowId(u64::MAX)),
        ]
    );
    assert!(ctx.tracer.iter().all(|e| e.detail == DATA_PRIORITY as u64));
    let edges = ctx.spans.edges();
    assert_eq!(edges.len(), 2);
    assert_eq!([edges[0].pause, edges[1].pause], [true, false]);
    for e in edges {
        assert_eq!((e.from, e.from_port), (NodeId(0), PortId(0)));
        assert_eq!((e.to, e.to_port), (NodeId(1), PortId(0)));
        assert_eq!(
            (e.class, e.storm, e.threshold),
            (DATA_PRIORITY, false, 4000)
        );
    }
    assert_eq!((edges[0].depth, edges[1].depth), (4500, 0));
}

#[test]
fn an_unroutable_packet_leaves_a_dropped_record() {
    let mut sw = small_switch();
    let mut ctx = bare_ctx(3);
    ctx.tracer.enable(8);
    ctx.flight.enable(8);
    let pkt = Packet::data(NodeId(1), NodeId(77), FlowId(6), DATA_PRIORITY, 0, 1000);
    sw.receive(&mut ctx, PortId(0), pkt);
    assert_eq!(sw.stats.drops_pool, 1);
    assert_eq!(sw.buffer.occupied(), 0, "the admitted bytes were released");
    assert!(ctx.queue.is_empty(), "nothing was forwarded");

    ctx.flight.dump(sw.id, ctx.queue.now(), "test");
    let ring = &ctx.flight.dumps()[0].events;
    for events in [ctx.tracer.of_kind(TraceKind::Dropped), ring.clone()] {
        assert_eq!(events.len(), 1);
        let e = events[0];
        assert_eq!(
            (e.kind, e.node, e.flow),
            (TraceKind::Dropped, sw.id, FlowId(6))
        );
        assert_eq!(e.detail, 2, "detail 2 = no route");
    }
}
