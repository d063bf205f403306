//! A port is one end of a link: per-priority egress queues, the
//! transmitter that drains them onto the wire, and the PFC pause state a
//! received PAUSE/RESUME drives. A switch port and a host NIC run the
//! same code; what differs (buffer release, flow scheduling) is added by
//! their callers.

use crate::event::{Event, LinkId, NodeId, PortId};
use crate::network::Ctx;
use crate::packet::{Ecn, FlowId, Packet, PacketKind, NUM_PRIORITIES};
use crate::slab::{Slab, NIL};
use crate::telemetry::spans::HopSpan;
use crate::units::checked::{checked_accum, checked_drain};
use crate::units::{Bandwidth, Duration, Time};
use std::collections::VecDeque;

/// Where a port is plugged in: the link and the far end.
#[derive(Debug, Clone, Copy)]
pub struct Attachment {
    /// Link this port terminates.
    pub link: LinkId,
    /// Node on the other side.
    pub peer: NodeId,
    /// Port on the other side.
    pub peer_port: PortId,
    /// Link bandwidth (same both directions).
    pub bandwidth: Bandwidth,
    /// One-way propagation delay (includes forwarding pipeline latency).
    pub delay: Duration,
}

/// Priority bits below the ingress port in a [`Queued`] release key.
const PRIO_BITS: u32 = NUM_PRIORITIES.trailing_zeros();

/// The release key of a frame that never occupied the shared buffer.
const NO_RELEASE: u32 = u32::MAX;

/// A [`Stored`] ingress port meaning "nothing to release".
const NO_INGRESS: u16 = u16::MAX;

/// Ports one switch may have: a queued frame's slab record keeps its
/// ingress port in a `u16` whose all-ones value means "nothing to
/// release". `Switch::new` rejects wider switches.
pub const MAX_PORTS: usize = NO_INGRESS as usize;

/// A queued packet plus the ingress attribution needed to release shared
/// buffer space when it finally leaves the switch. It is packed into the
/// port's slab (as a 32 B `Stored`, its stamp in the port's stamp
/// column), unpacked into `current` and moved out again on every hop, so
/// it is kept at one 64-byte cache line.
#[derive(Debug, Clone, Copy)]
pub struct Queued {
    /// The packet.
    pub pkt: Packet,
    /// `ingress port << PRIO_BITS | priority` for the buffer release, or
    /// [`NO_RELEASE`] for packets that never occupied the shared buffer
    /// (host-generated, or switch-local control).
    release: u32,
    /// When the packet entered this egress queue (`Time::ZERO` when not
    /// stamped). Feeds the causal tracer's per-hop residency spans, its
    /// only reader, so callers stamp only with spans on.
    pub(crate) enqueued_at: Time,
    /// Whether this entry is counted in `queued_bytes` (PFC frames from
    /// the dedicated queue are not).
    counted: bool,
}

impl Queued {
    /// A packet destined for the per-priority queues; `ingress` is the
    /// `(ingress port, priority)` whose shared-buffer bytes it holds.
    /// The port is below [`MAX_PORTS`] because no switch is wider.
    #[inline]
    pub fn new(pkt: Packet, ingress: Option<(usize, usize)>) -> Queued {
        let release = ingress.map_or(NO_RELEASE, |(port, prio)| {
            debug_assert!(port < MAX_PORTS && prio < NUM_PRIORITIES);
            u32::try_from(port << PRIO_BITS | prio).unwrap_or(NO_RELEASE)
        });
        Queued {
            pkt,
            release,
            enqueued_at: Time::ZERO,
            counted: false,
        }
    }

    /// Stamps the enqueue time (builder-style, for call sites that know
    /// the clock). A stamp costs its port a stamp column
    /// ([`Port::enqueue`]), so switches and hosts stamp only while span
    /// tracing is on.
    pub fn at(mut self, now: Time) -> Queued {
        self.enqueued_at = now;
        self
    }

    /// The `(ingress port, priority)` given to [`Queued::new`], if any.
    #[inline]
    fn release_to(&self) -> Option<(usize, usize)> {
        if self.release == NO_RELEASE {
            return None;
        }
        let key = self.release as usize;
        Some((key >> PRIO_BITS, key & (NUM_PRIORITIES - 1)))
    }
}

/// [`Stored::head`] bits 0–2: the packet kind.
const TAG: u8 = 0b111;
const DATA: u8 = 0;
const ACK: u8 = 1;
const NACK: u8 = 2;
const CNP: u8 = 3;
const PFC: u8 = 4;
/// [`Stored::head`] bit 3: the kind's flag (Data's `eom`, Pfc's `pause`).
const FLAG: u8 = 1 << 3;
/// [`Stored::head`] bits 4–5: the ECN codepoint.
const ECN_SHIFT: u8 = 4;
/// A class's three bits in [`Stored::classes`] (priority and release).
const CLASS: u8 = 0b111;
const _: () = assert!(NUM_PRIORITIES == 8, "a class fits three bits");

/// A [`Queued`] as its port's slab stores it, 32 B rather than 64 and
/// 4-byte aligned: node and flow ids as `u32`, with `FlowId(u64::MAX)`
/// (no flow) as `u32::MAX`; the kind as a tag, its PSN and one `u32`
/// argument; the release key as a `u16` ingress port and a class; no
/// `counted` flag, since every slab entry is counted; and no enqueue
/// stamp, which the port keeps apart (`Port::stamps`).
#[derive(Debug, Clone, Copy)]
struct Stored {
    src: u32,
    dst: u32,
    flow: u32,
    wire_bytes: u32,
    /// Data's payload, Ack's `acked | marked << 16`, Pfc's class; else 0.
    arg: u32,
    /// Data's PSN, Ack's `cum_psn`, Nack's `expected_psn`; else 0. Kept
    /// as bytes so that the record needs no 8-byte alignment.
    psn: [u8; 8],
    /// Ingress port of the buffer release ([`NO_INGRESS`]: none).
    ingress: u16,
    /// Kind tag, flag and ECN codepoint ([`TAG`], [`FLAG`], [`ECN_SHIFT`]).
    head: u8,
    /// Priority (bits 0–2) and release class (bits 3–5).
    classes: u8,
}

impl Stored {
    /// Narrows `q`: the one place a queued frame loses width. The no-flow
    /// id saturates to `u32::MAX`; the checks at build and `add_flow`
    /// keep every other id below it, and saturating (never wrapping)
    /// keeps a missed check from folding one id onto another. The
    /// priority fits its three bits because `Port::enqueue` indexes its
    /// class first; an ingress port fits its `u16` below [`NO_INGRESS`]
    /// because no switch is wider than [`MAX_PORTS`].
    #[inline]
    fn new(q: Queued) -> Stored {
        let (tag, psn, arg, flag) = match q.pkt.kind {
            PacketKind::Data { psn, payload, eom } => (DATA, psn, payload, eom),
            PacketKind::Ack {
                cum_psn,
                acked,
                marked,
            } => (
                ACK,
                cum_psn,
                u32::from(acked) | u32::from(marked) << 16,
                false,
            ),
            PacketKind::Nack { expected_psn } => (NACK, expected_psn, 0, false),
            PacketKind::Cnp => (CNP, 0, 0, false),
            PacketKind::Pfc { class, pause } => (PFC, 0, u32::from(class), pause),
        };
        let ecn = match q.pkt.ecn {
            Ecn::NotEct => 0,
            Ecn::Ect => 1,
            Ecn::Ce => 2,
        };
        let (ingress, class) = match q.release {
            NO_RELEASE => (NO_INGRESS, 0),
            key => (
                u16::try_from(key >> PRIO_BITS).unwrap_or(NO_INGRESS),
                key.to_le_bytes()[0] & CLASS,
            ),
        };
        debug_assert!(usize::from(q.pkt.priority) < NUM_PRIORITIES);
        Stored {
            src: u32::try_from(q.pkt.src.0).unwrap_or(u32::MAX),
            dst: u32::try_from(q.pkt.dst.0).unwrap_or(u32::MAX),
            flow: u32::try_from(q.pkt.flow.0).unwrap_or(u32::MAX),
            wire_bytes: q.pkt.wire_bytes,
            arg,
            psn: psn.to_le_bytes(),
            ingress,
            head: tag | (u8::from(flag) * FLAG) | ecn << ECN_SHIFT,
            classes: q.pkt.priority | class << PRIO_BITS,
        }
    }

    /// Widens the record back into the counted entry it stored, stamped
    /// `enqueued_at`.
    #[inline]
    fn queued(self, enqueued_at: Time) -> Queued {
        let (psn, flag) = (u64::from_le_bytes(self.psn), self.head & FLAG != 0);
        let [a0, a1, a2, a3] = self.arg.to_le_bytes();
        let kind = match self.head & TAG {
            DATA => PacketKind::Data {
                psn,
                payload: self.arg,
                eom: flag,
            },
            ACK => PacketKind::Ack {
                cum_psn: psn,
                acked: u16::from_le_bytes([a0, a1]),
                marked: u16::from_le_bytes([a2, a3]),
            },
            NACK => PacketKind::Nack { expected_psn: psn },
            CNP => PacketKind::Cnp,
            _ => PacketKind::Pfc {
                class: a0,
                pause: flag,
            },
        };
        let ecn = match self.head >> ECN_SHIFT {
            0 => Ecn::NotEct,
            1 => Ecn::Ect,
            _ => Ecn::Ce,
        };
        let flow = match self.flow {
            u32::MAX => FlowId(u64::MAX),
            id => FlowId(u64::from(id)),
        };
        let pkt = Packet {
            kind,
            src: NodeId(self.src as usize),
            dst: NodeId(self.dst as usize),
            flow,
            priority: self.classes & CLASS,
            wire_bytes: self.wire_bytes,
            ecn,
        };
        let release = match self.ingress {
            NO_INGRESS => NO_RELEASE,
            port => u32::from(port) << PRIO_BITS | u32::from(self.classes >> PRIO_BITS),
        };
        Queued {
            pkt,
            release,
            enqueued_at,
            counted: true,
        }
    }
}

/// A transmit port with strict-priority scheduling across `NUM_PRIORITIES`
/// classes, plus a dedicated always-first queue for link-local PFC frames
/// (which must never be blocked or reordered behind data).
#[derive(Debug)]
pub struct Port {
    /// Link attachment; `None` for unconnected ports.
    pub attach: Option<Attachment>,
    /// True while the transmitter is serializing a packet.
    pub busy: bool,
    /// Locally generated PFC frames awaiting transmission.
    pub pfc_queue: VecDeque<Packet>,
    /// Every queued entry of all eight classes. One recycled slab per
    /// port, so queue memory is the port's peak of concurrently queued
    /// packets and the slot just transmitted is the next one enqueued into.
    slab: Slab<Stored>,
    /// Enqueue stamp of each slab slot, for the hop spans. Empty until a
    /// stamped frame is queued, so a run without span tracing never
    /// allocates it; past its end a slot's stamp is `Time::ZERO`.
    stamps: Vec<Time>,
    /// Oldest and newest slab slot of each priority's FIFO, threaded
    /// through the slab's links (`NIL` when the class is empty).
    heads: [u32; NUM_PRIORITIES],
    tails: [u32; NUM_PRIORITIES],
    /// Bytes queued per priority (wire bytes, including the in-flight
    /// packet's — a packet counts until its transmission completes).
    pub queued_bytes: [u64; NUM_PRIORITIES],
    /// Classes paused by a PFC PAUSE received *on this port* — we must stop
    /// transmitting them until RESUME.
    pub rx_paused: [bool; NUM_PRIORITIES],
    /// Classes for which *we* have paused the upstream neighbor (this port
    /// viewed as ingress). Used for RESUME hysteresis.
    pub tx_pause_sent: [bool; NUM_PRIORITIES],
    /// When each class's current rx pause began (`Time::NEVER` when not
    /// paused). Feeds the PFC storm watchdog.
    pub rx_paused_since: [Time; NUM_PRIORITIES],
    /// Classes whose incoming PAUSE is currently being *ignored* because
    /// the storm watchdog tripped (restored after its recovery interval).
    pub pfc_ignore: [bool; NUM_PRIORITIES],
    /// Classes with a live watchdog check chain (one chain per class, the
    /// soft-deadline pattern used by host timers).
    pub(crate) wd_armed: [bool; NUM_PRIORITIES],
    /// The packet currently being serialized.
    pub current: Option<Queued>,
}

impl Default for Port {
    fn default() -> Port {
        Port::new()
    }
}

impl Port {
    /// Creates an unattached, empty port.
    pub fn new() -> Port {
        Port {
            attach: None,
            busy: false,
            pfc_queue: VecDeque::new(),
            slab: Slab::new(),
            stamps: Vec::new(),
            heads: [NIL; NUM_PRIORITIES],
            tails: [NIL; NUM_PRIORITIES],
            queued_bytes: [0; NUM_PRIORITIES],
            rx_paused: [false; NUM_PRIORITIES],
            tx_pause_sent: [false; NUM_PRIORITIES],
            rx_paused_since: [Time::NEVER; NUM_PRIORITIES],
            pfc_ignore: [false; NUM_PRIORITIES],
            wd_armed: [false; NUM_PRIORITIES],
            current: None,
        }
    }

    /// Enqueues a packet on its priority class.
    pub fn enqueue(&mut self, q: Queued) {
        let prio = q.pkt.priority as usize;
        let ok = checked_accum(&mut self.queued_bytes[prio], q.pkt.wire());
        debug_assert!(ok, "queued_bytes overflow");
        let i = self.slab.insert(Stored::new(q));
        // A reused slot's stamp is overwritten even by `Time::ZERO`: it
        // belongs to the frame that left it.
        match self.stamps.get_mut(i as usize) {
            Some(stamp) => *stamp = q.enqueued_at,
            None if q.enqueued_at != Time::ZERO => {
                self.stamps.resize(i as usize, Time::ZERO);
                self.stamps.push(q.enqueued_at);
            }
            None => {}
        }
        match std::mem::replace(&mut self.tails[prio], i) {
            NIL => self.heads[prio] = i,
            tail => self.slab.set_next(tail, i),
        }
    }

    /// Total bytes across all priority queues.
    pub fn total_queued_bytes(&self) -> u64 {
        self.queued_bytes.iter().sum()
    }

    /// Slab slots this port ever needed: its high-water mark of
    /// concurrently queued packets.
    pub fn peak_queued(&self) -> usize {
        self.slab.peak()
    }

    /// Heap bytes the queue storage holds: the slab's slots and links
    /// plus the stamp column, at their allocated capacity.
    pub(crate) fn slab_bytes(&self) -> usize {
        self.slab.bytes() + self.stamps.capacity() * std::mem::size_of::<Time>()
    }

    /// Slots the stamp column covers (0 until a stamped frame is queued).
    #[cfg(test)]
    pub(crate) fn stamped_slots(&self) -> usize {
        self.stamps.len()
    }

    /// The `sanitize` audit of the queue structure: the wire bytes on each
    /// priority's list, plus the counted frame in flight, equal
    /// `queued_bytes`, each list ends at its tail, and every slab slot is
    /// on exactly one priority list or the free list. Each mismatch goes
    /// to `report` unformatted, so a clean audit allocates nothing.
    pub fn check_conservation(&self, report: &mut dyn FnMut(std::fmt::Arguments<'_>)) {
        let mut listed = 0;
        for prio in 0..NUM_PRIORITIES {
            let mut bytes = match &self.current {
                Some(q) if q.counted && usize::from(q.pkt.priority) == prio => q.pkt.wire(),
                _ => 0,
            };
            let (mut i, mut last) = (self.heads[prio], NIL);
            // The bound turns a (corrupt) cyclic list into a count mismatch.
            while i != NIL && listed <= self.slab.peak() {
                bytes = bytes.saturating_add(u64::from(self.slab.get(i).wire_bytes));
                listed += 1;
                last = i;
                i = self.slab.next(i);
            }
            let counted = self.queued_bytes[prio];
            if bytes != counted {
                report(format_args!(
                    "prio {prio}: {bytes} B listed != queued_bytes {counted} B"
                ));
            }
            if last != self.tails[prio] {
                report(format_args!("prio {prio}: list does not end at its tail"));
            }
        }
        let (live, slots) = (self.slab.live(), self.slab.peak());
        if listed != live {
            report(format_args!(
                "{listed} listed of {live} live entries in {slots} slab slots"
            ));
        }
    }

    /// Picks the next packet to transmit under strict priority + PFC pause
    /// state, or `None` if nothing is eligible. PFC frames always win and
    /// are never paused.
    pub fn dequeue_next(&mut self) -> Option<Queued> {
        if let Some(pkt) = self.pfc_queue.pop_front() {
            return Some(Queued::new(pkt, None));
        }
        for prio in 0..NUM_PRIORITIES {
            let i = self.heads[prio];
            if i == NIL || self.rx_paused[prio] {
                continue;
            }
            self.heads[prio] = self.slab.next(i);
            if self.heads[prio] == NIL {
                self.tails[prio] = NIL;
            }
            let stamp = self.stamps.get(i as usize).copied();
            return Some(self.slab.take(i).queued(stamp.unwrap_or(Time::ZERO)));
        }
        None
    }

    /// True when some queue holds a transmittable packet right now.
    pub fn has_eligible(&self) -> bool {
        !self.pfc_queue.is_empty()
            || (0..NUM_PRIORITIES).any(|p| !self.rx_paused[p] && self.heads[p] != NIL)
    }

    /// Called when a packet finishes serializing: drops the byte accounting
    /// it held (in-flight packets count toward `queued_bytes` until done).
    pub fn finish_current(&mut self) -> Option<Queued> {
        let q = self.current.take()?;
        if q.counted {
            let prio = q.pkt.priority as usize;
            let ok = checked_drain(&mut self.queued_bytes[prio], q.pkt.wire());
            debug_assert!(ok, "queued_bytes underflow");
        }
        Some(q)
    }

    /// Starts serializing the next eligible frame if the transmitter is
    /// idle and the port is attached; `(node, pid)` is where this port
    /// sits, for the completion event.
    ///
    /// Only `TxDone` is scheduled here; the matching `Deliver` is
    /// scheduled by [`Port::tx_done`], which *moves* the frame out of
    /// `current` — one pending event per frame in flight instead of two,
    /// and no per-packet clone.
    #[inline]
    pub fn start_tx(&mut self, ctx: &mut Ctx, node: NodeId, pid: PortId) {
        if self.busy {
            return;
        }
        let Some(att) = self.attach else { return };
        let Some(q) = self.dequeue_next() else { return };
        let ser = att.bandwidth.serialize(q.pkt.wire());
        ctx.queue
            .schedule(ctx.queue.now() + ser, Event::TxDone { node, port: pid });
        self.current = Some(q);
        self.busy = true;
    }

    /// The frame in `current` finished serializing: hand it to the wire
    /// (its `Deliver` fires one propagation delay later) and record its
    /// hop span. Returns what a switch must now release to its shared
    /// buffer — `(ingress port, priority, wire bytes)` — or `None` for a
    /// frame that never occupied it. The caller restarts the transmitter.
    #[inline]
    pub fn tx_done(
        &mut self,
        ctx: &mut Ctx,
        node: NodeId,
        pid: PortId,
    ) -> Option<(usize, usize, u64)> {
        self.busy = false;
        // `start_tx` only goes busy on attached ports, so a missing
        // attachment here is unreachable; degrade to dropping the frame
        // on the floor rather than panicking the whole run.
        let Some(att) = self.attach else {
            debug_assert!(false, "transmitting port must be attached");
            return None;
        };
        let done = self.finish_current()?;
        let wire = done.pkt.wire();
        let now = ctx.queue.now();
        if ctx.spans.is_enabled() && done.pkt.is_data() {
            let ser = att.bandwidth.serialize(wire);
            ctx.spans.record_hop(HopSpan {
                flow: done.pkt.flow,
                node,
                port: pid,
                enqueued: done.enqueued_at,
                start: now - ser,
                end: now,
            });
        }
        let pkt = ctx.pool.insert(done.pkt);
        ctx.queue.schedule(
            now + att.delay,
            Event::Deliver {
                node: att.peer,
                port: att.peer_port,
                pkt,
            },
        );
        done.release_to().map(|(port, prio)| (port, prio, wire))
    }

    /// A PFC frame arrived on this port: applies it ([`Port::apply_pfc`])
    /// and, when it ends a pause, samples how long the pause lasted.
    /// Returns true if a paused class was released (caller should retry
    /// transmission).
    #[inline]
    pub fn rx_pfc(&mut self, ctx: &mut Ctx, class: u8, pause: bool) -> bool {
        let now = ctx.queue.now();
        let paused_since = self.rx_paused_since[class as usize];
        let released = self.apply_pfc(class, pause, now);
        if released && paused_since != Time::NEVER {
            let held = now.saturating_since(paused_since).as_micros_f64() as u64;
            ctx.metrics.pause_duration_us.observe(held);
        }
        released
    }

    /// Applies a received PFC frame to this port's transmit state.
    /// Returns true if a paused class was released (caller should retry
    /// transmission). PAUSE is discarded while the storm watchdog has the
    /// class in its ignore window; RESUME is always honored.
    pub fn apply_pfc(&mut self, class: u8, pause: bool, now: Time) -> bool {
        let c = class as usize;
        if pause && self.pfc_ignore[c] {
            return false;
        }
        let was = self.rx_paused[c];
        self.rx_paused[c] = pause;
        if pause {
            if !was {
                self.rx_paused_since[c] = now;
            }
        } else {
            self.rx_paused_since[c] = Time::NEVER;
        }
        was && !pause
    }

    /// Clears all PFC state, as a physical link reset does: outstanding
    /// rx pauses expire, our own PAUSE bookkeeping is forgotten (the far
    /// end lost its state too), and any watchdog ignore window ends.
    /// Called by the fault layer on link down *and* up transitions.
    pub fn reset_pfc(&mut self) {
        self.rx_paused = [false; NUM_PRIORITIES];
        self.rx_paused_since = [Time::NEVER; NUM_PRIORITIES];
        self.tx_pause_sent = [false; NUM_PRIORITIES];
        self.pfc_ignore = [false; NUM_PRIORITIES];
        // Undelivered PFC frames die with the link. A stale PAUSE sent
        // after the reset would pause a peer whose RESUME bookkeeping was
        // just forgotten — a permanent freeze.
        self.pfc_queue.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NodeId;
    use crate::packet::{FlowId, PacketKind};

    fn data(prio: u8, bytes: u64) -> Queued {
        let p = Packet::data(NodeId(0), NodeId(1), FlowId(1), prio, 0, bytes - 64);
        Queued::new(p, Some((2, prio as usize)))
    }

    /// Each hop copies a `Packet` and a `Queued` several times (`enqueue`,
    /// `current`, packet pool), so every byte added here is copied on
    /// every hop of every packet; a standing queue holds one `Stored`
    /// per frame, so every byte added there is held by every queued frame.
    #[test]
    fn a_hop_moves_a_48_byte_packet_in_a_64_byte_entry() {
        assert_eq!(std::mem::size_of::<Packet>(), 48);
        assert_eq!(std::mem::size_of::<Queued>(), 64);
        assert_eq!(std::mem::size_of::<Option<Queued>>(), 64);
        assert_eq!(std::mem::size_of::<Stored>(), 32);
        assert_eq!(std::mem::align_of::<Stored>(), 4);
    }

    /// `port_slab_bytes` counts 36 B a slot (a `Stored` and its link) at
    /// the slab's capacity, and 8 B a slot of stamp column only once a
    /// stamped frame is queued: the column then reaches that frame's slot.
    #[test]
    fn slab_bytes_count_the_stamp_column_only_once_stamped() {
        let mut port = Port::new();
        assert_eq!(port.slab_bytes(), 0);
        for _ in 0..5 {
            port.enqueue(data(3, 1500));
        }
        let unstamped = port.slab_bytes();
        assert!(unstamped >= 5 * 36 && unstamped.is_multiple_of(36));
        assert_eq!(port.stamped_slots(), 0);
        port.enqueue(data(3, 1500).at(Time::from_micros(1)));
        let column = port.slab_bytes() - port.slab.bytes();
        assert_eq!(port.stamped_slots(), 6);
        assert!(column >= 6 * 8 && column.is_multiple_of(8));
    }

    /// The tracer and every flight-recorder ring store this record.
    #[test]
    fn a_trace_record_is_32_bytes() {
        assert!(std::mem::size_of::<crate::trace::Record>() <= 32);
    }

    #[test]
    fn strict_priority_ordering() {
        let mut port = Port::new();
        port.enqueue(data(5, 1500));
        port.enqueue(data(3, 1500));
        port.enqueue(data(0, 64));
        assert_eq!(port.dequeue_next().unwrap().pkt.priority, 0);
        assert_eq!(port.dequeue_next().unwrap().pkt.priority, 3);
        assert_eq!(port.dequeue_next().unwrap().pkt.priority, 5);
        assert!(port.dequeue_next().is_none());
    }

    #[test]
    fn fifo_within_priority() {
        let mut port = Port::new();
        port.enqueue(data(3, 1000));
        port.enqueue(data(3, 1500));
        assert_eq!(port.dequeue_next().unwrap().pkt.wire(), 1000);
        assert_eq!(port.dequeue_next().unwrap().pkt.wire(), 1500);
    }

    #[test]
    fn pfc_frames_preempt_everything() {
        let mut port = Port::new();
        port.enqueue(data(0, 64));
        port.pfc_queue
            .push_back(Packet::pfc(NodeId(0), NodeId(1), 3, true));
        let first = port.dequeue_next().unwrap();
        assert!(matches!(first.pkt.kind, PacketKind::Pfc { .. }));
    }

    #[test]
    fn paused_classes_are_skipped() {
        let mut port = Port::new();
        port.enqueue(data(3, 1500));
        port.enqueue(data(5, 1500));
        port.apply_pfc(3, true, Time::ZERO);
        assert_eq!(port.dequeue_next().unwrap().pkt.priority, 5);
        assert!(port.dequeue_next().is_none());
        assert!(!port.has_eligible());
        let released = port.apply_pfc(3, false, Time::ZERO);
        assert!(released);
        assert!(port.has_eligible());
        assert_eq!(port.dequeue_next().unwrap().pkt.priority, 3);
    }

    #[test]
    fn byte_accounting_spans_transmission() {
        let mut port = Port::new();
        port.enqueue(data(3, 1500));
        assert_eq!(port.queued_bytes[3], 1500);
        let q = port.dequeue_next().unwrap();
        port.current = Some(q);
        // Still accounted while in flight.
        assert_eq!(port.queued_bytes[3], 1500);
        let done = port.finish_current().unwrap();
        assert_eq!(done.pkt.wire(), 1500);
        assert_eq!(port.queued_bytes[3], 0);
        assert_eq!(port.total_queued_bytes(), 0);
    }

    #[test]
    fn apply_pfc_reports_release_only_on_transition() {
        let mut port = Port::new();
        assert!(!port.apply_pfc(3, true, Time::ZERO));
        assert!(!port.apply_pfc(3, true, Time::ZERO));
        assert!(port.apply_pfc(3, false, Time::ZERO));
        assert!(!port.apply_pfc(3, false, Time::ZERO));
    }

    #[test]
    fn apply_pfc_tracks_pause_onset_for_the_watchdog() {
        let mut port = Port::new();
        assert_eq!(port.rx_paused_since[3], Time::NEVER);
        port.apply_pfc(3, true, Time::from_micros(10));
        assert_eq!(port.rx_paused_since[3], Time::from_micros(10));
        // A refresh PAUSE does not restart the clock.
        port.apply_pfc(3, true, Time::from_micros(20));
        assert_eq!(port.rx_paused_since[3], Time::from_micros(10));
        port.apply_pfc(3, false, Time::from_micros(30));
        assert_eq!(port.rx_paused_since[3], Time::NEVER);
    }

    #[test]
    fn ignore_window_discards_pause_but_honors_resume() {
        let mut port = Port::new();
        port.pfc_ignore[3] = true;
        port.apply_pfc(3, true, Time::ZERO);
        assert!(!port.rx_paused[3], "PAUSE ignored while watchdog tripped");
        port.pfc_ignore[3] = false;
        port.apply_pfc(3, true, Time::ZERO);
        assert!(port.rx_paused[3]);
        port.pfc_ignore[3] = true;
        assert!(
            port.apply_pfc(3, false, Time::ZERO),
            "RESUME always honored"
        );
    }

    #[test]
    fn reset_pfc_clears_all_pause_state() {
        let mut port = Port::new();
        port.apply_pfc(3, true, Time::from_micros(5));
        port.tx_pause_sent[4] = true;
        port.pfc_ignore[5] = true;
        port.pfc_queue
            .push_back(Packet::pfc(NodeId(0), NodeId(1), 3, true));
        port.reset_pfc();
        assert!(!port.rx_paused[3]);
        assert_eq!(port.rx_paused_since[3], Time::NEVER);
        assert!(!port.tx_pause_sent[4]);
        assert!(!port.pfc_ignore[5]);
        assert!(
            port.pfc_queue.is_empty(),
            "stale PFC frames die with the link"
        );
    }
}
