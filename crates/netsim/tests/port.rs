//! Differential test for the slab-backed [`Port`]: random enqueue /
//! dequeue / finish / PFC sequences against the obviously-correct layout
//! it replaced (one `VecDeque` per priority and a linear scan), checking
//! dequeue order, byte accounting and eligibility after every step, plus
//! the memory contract: slab slots = peak of concurrently queued entries.

use netsim::event::NodeId;
use netsim::packet::{FlowId, Packet, PacketKind, NUM_PRIORITIES};
use netsim::port::{Port, Queued};
use netsim::units::Time;
use proptest::prelude::*;
use std::collections::VecDeque;

/// The reference model: the old `Port` storage and scan.
#[derive(Default)]
struct RefPort {
    pfc_queue: VecDeque<Packet>,
    queues: [VecDeque<Queued>; NUM_PRIORITIES],
    queued_bytes: [u64; NUM_PRIORITIES],
    rx_paused: [bool; NUM_PRIORITIES],
    /// The frame in flight, and whether `queued_bytes` counts it.
    current: Option<(Packet, bool)>,
    /// Most entries ever held in `queues` at once.
    max_queued: usize,
}

impl RefPort {
    fn enqueue(&mut self, q: Queued) {
        let prio = q.pkt.priority as usize;
        self.queued_bytes[prio] += q.pkt.wire_bytes;
        self.queues[prio].push_back(q);
        let queued = self.queues.iter().map(VecDeque::len).sum();
        self.max_queued = self.max_queued.max(queued);
    }

    fn dequeue_next(&mut self) -> Option<(Packet, bool)> {
        if let Some(pkt) = self.pfc_queue.pop_front() {
            return Some((pkt, false));
        }
        (0..NUM_PRIORITIES)
            .filter(|&p| !self.rx_paused[p])
            .find_map(|p| self.queues[p].pop_front())
            .map(|q| (q.pkt, true))
    }

    fn has_eligible(&self) -> bool {
        !self.pfc_queue.is_empty()
            || (0..NUM_PRIORITIES).any(|p| !self.rx_paused[p] && !self.queues[p].is_empty())
    }

    fn finish_current(&mut self) -> Option<Packet> {
        let (pkt, counted) = self.current.take()?;
        if counted {
            self.queued_bytes[pkt.priority as usize] -= pkt.wire_bytes;
        }
        Some(pkt)
    }
}

/// What identifies a frame in a comparison: kind (PSN for data), class
/// and size. `Packet` deliberately has no `PartialEq`.
fn key(pkt: &Packet) -> (Option<u64>, u8, u64) {
    let psn = match pkt.kind {
        PacketKind::Data { psn, .. } => Some(psn),
        _ => None,
    };
    (psn, pkt.priority, pkt.wire_bytes)
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

/// Applies one generated op to both ports. `psn` numbers the data frames
/// so that dequeue order is compared exactly.
fn apply(port: &mut Port, model: &mut RefPort, (op, class, bytes): (u8, u8, u64), psn: u64) {
    match op {
        // Enqueue is the most common op so that queues build up.
        0..=3 => {
            let mut pkt = Packet::data(NodeId(0), NodeId(1), FlowId(0), class, psn, 0);
            pkt.wire_bytes = bytes;
            let q = Queued::new(pkt, Some((1, class as usize))).at(Time(psn));
            port.enqueue(q);
            model.enqueue(q);
        }
        // Start the next frame if the transmitter is idle.
        4..=5 => {
            if port.current.is_none() {
                port.current = port.dequeue_next();
                model.current = model.dequeue_next();
            }
        }
        6 => {
            let done = port.finish_current().map(|q| key(&q.pkt));
            assert_eq!(done, model.finish_current().map(|p| key(&p)));
        }
        7 => {
            let pause = bytes % 2 == 0;
            port.apply_pfc(class, pause, Time::ZERO);
            model.rx_paused[class as usize] = pause;
        }
        8 => {
            let frame = Packet::pfc(NodeId(0), NodeId(1), class, true);
            port.pfc_queue.push_back(frame);
            model.pfc_queue.push_back(frame);
        }
        _ => {
            port.reset_pfc();
            model.rx_paused = [false; NUM_PRIORITIES];
            model.pfc_queue.clear();
        }
    }
    let in_flight = port.current.as_ref().map(|q| key(&q.pkt));
    assert_eq!(in_flight, model.current.as_ref().map(|(p, _)| key(p)));
}

proptest! {
    #[test]
    fn port_matches_the_vecdeque_reference(
        ops in prop::collection::vec((0u8..10, 0u8..NUM_PRIORITIES as u8, 64u64..9000), 1..400),
    ) {
        let (mut port, mut model) = (Port::new(), RefPort::default());
        for (psn, &op) in ops.iter().enumerate() {
            apply(&mut port, &mut model, op, psn as u64);
            check_views(&port, &model);
        }
        // Drain with every class released: both sides empty in the same
        // order and the accounting returns to zero.
        apply(&mut port, &mut model, (9, 0, 0), 0);
        while port.has_eligible() || port.current.is_some() {
            apply(&mut port, &mut model, (6, 0, 0), 0);
            apply(&mut port, &mut model, (4, 0, 0), 0);
            check_views(&port, &model);
        }
        prop_assert_eq!(port.total_queued_bytes(), 0);
    }
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
