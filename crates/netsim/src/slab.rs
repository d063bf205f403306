//! The crate's one recycled slab, and the packet pool built on it.
//!
//! `Slab` is a grow-only vector of slots, a parallel `next` array that
//! threads slots into index-linked lists, and a LIFO free list through the
//! same array. It grows only when the free list is empty, so its slot count
//! is the high-water mark of *concurrently* live entries — never of
//! history — and the slot just released is the next one reused, while it is
//! still in L1. Three users: the event queue (bucket lists + overflow),
//! every [`crate::port::Port`] (per-priority FIFOs) and [`PacketPool`].
//!
//! A packet spends its wire time inside a [`Event::Deliver`] entry in the
//! event queue. Storing the `Packet` inline there made every event-queue
//! slot packet-sized and forced a move of ~64 bytes per hop; storing a
//! `Box<Packet>` would cost an alloc/free pair per packet per hop. The
//! pool splits the difference: packets park in a slab indexed by a 4-byte
//! [`PacketRef`], and steady-state simulation performs **zero** packet
//! allocations.
//!
//! [`Event::Deliver`]: crate::event::Event::Deliver

use crate::packet::Packet;

/// Tag bit on a free slot's `next` link: a live slot's link is an index or
/// [`NIL`], both below it, so "is this slot free?" is one load.
const FREE: u32 = 1 << 31;

/// End-of-list marker for the lists threaded through [`Slab::next`].
pub(crate) const NIL: u32 = FREE - 1;

/// Index-linked, LIFO-recycled slot storage. See the module docs.
#[derive(Debug)]
pub(crate) struct Slab<T> {
    slots: Vec<T>,
    /// `next[i]` links live slot `i` to the next slot of whatever list its
    /// user keeps it on, or free slot `i` (tagged [`FREE`]) to the next
    /// free one. Kept apart from the slots so that walking a list chases
    /// 4-byte links in a dense array and the loads of the slots themselves
    /// are independent of one another.
    next: Vec<u32>,
    free_head: u32,
}

impl<T: Copy> Slab<T> {
    /// An empty slab; allocates nothing until the first insert.
    pub(crate) const fn new() -> Slab<T> {
        Slab {
            slots: Vec::new(),
            next: Vec::new(),
            free_head: NIL,
        }
    }

    /// An empty slab with room for `n` entries before it reallocates.
    pub(crate) fn with_capacity(n: usize) -> Slab<T> {
        Slab {
            slots: Vec::with_capacity(n),
            next: Vec::with_capacity(n),
            free_head: NIL,
        }
    }

    /// Stores `value` in the most recently released slot (or a new one)
    /// and returns its index; the slot's link starts as [`NIL`].
    #[inline]
    pub(crate) fn insert(&mut self, value: T) -> u32 {
        let i = self.free_head;
        if i == NIL {
            // 2^31 concurrently live entries cannot happen on any
            // simulable topology; the debug assert documents the limit.
            debug_assert!(self.slots.len() < NIL as usize, "slab exceeds u32 slots");
            self.slots.push(value);
            self.next.push(NIL);
            return (self.slots.len() - 1) as u32;
        }
        self.free_head = self.next[i as usize] & !FREE;
        self.next[i as usize] = NIL;
        self.slots[i as usize] = value;
        i
    }

    /// The index the next [`Slab::insert`] will return.
    #[inline]
    pub(crate) fn vacant(&self) -> u32 {
        match self.free_head {
            NIL => self.slots.len() as u32,
            i => i,
        }
    }

    /// Copies the value out of slot `i` and puts the slot on the free list.
    #[inline]
    pub(crate) fn take(&mut self, i: u32) -> T {
        debug_assert!(!self.is_free(i), "double release of slab slot {i}");
        self.next[i as usize] = self.free_head | FREE;
        self.free_head = i;
        self.slots[i as usize]
    }

    #[inline]
    fn is_free(&self, i: u32) -> bool {
        self.next[i as usize] & FREE != 0
    }

    /// The value in live slot `i`.
    #[inline]
    pub(crate) fn get(&self, i: u32) -> &T {
        debug_assert!(!self.is_free(i), "read of free slab slot {i}");
        &self.slots[i as usize]
    }

    /// The slot linked after live slot `i`, or [`NIL`].
    #[inline]
    pub(crate) fn next(&self, i: u32) -> u32 {
        self.next[i as usize]
    }

    /// Links live slot `i` to `next` (a live slot or [`NIL`]).
    #[inline]
    pub(crate) fn set_next(&mut self, i: u32, next: u32) {
        debug_assert!(!self.is_free(i) && next & FREE == 0);
        self.next[i as usize] = next;
    }

    /// Slots ever allocated: the high-water mark of concurrently live
    /// entries.
    pub(crate) fn peak(&self) -> usize {
        self.slots.len()
    }

    /// Heap bytes allocated for slots and links (capacity, not length).
    pub(crate) fn bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<T>()
            + self.next.capacity() * std::mem::size_of::<u32>()
    }

    /// Entries currently live. A scan of the links, for audits and tests.
    pub(crate) fn live(&self) -> usize {
        self.next.iter().filter(|&&n| n & FREE == 0).count()
    }

    /// The live entries, in slot order.
    #[cfg(test)]
    pub(crate) fn live_values(&self) -> impl Iterator<Item = &T> {
        let live = self.next.iter().map(|&n| n & FREE == 0);
        self.slots
            .iter()
            .zip(live)
            .filter_map(|(v, live)| live.then_some(v))
    }
}

/// Handle to a packet parked in a [`PacketPool`].
///
/// Holding a `PacketRef` is a claim of ownership: exactly one `take` must
/// follow each `insert`. The event dispatcher upholds this by reclaiming
/// the slot when the `Deliver` event fires (or when a fault drops it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketRef(u32);

/// The slab of in-flight packets behind typed handles. See the module docs.
pub struct PacketPool {
    slab: Slab<Packet>,
}

impl Default for PacketPool {
    fn default() -> PacketPool {
        PacketPool::new()
    }
}

impl PacketPool {
    /// Creates an empty pool.
    pub fn new() -> PacketPool {
        PacketPool { slab: Slab::new() }
    }

    /// Parks `pkt` in the pool, returning its handle.
    #[inline]
    pub fn insert(&mut self, pkt: Packet) -> PacketRef {
        PacketRef(self.slab.insert(pkt))
    }

    /// Takes the packet back out, recycling its slot.
    pub fn take(&mut self, r: PacketRef) -> Packet {
        self.slab.take(r.0)
    }

    /// Read-only view of a parked packet.
    pub fn get(&self, r: PacketRef) -> &Packet {
        self.slab.get(r.0)
    }

    /// Number of packets currently parked.
    pub fn live(&self) -> usize {
        self.slab.live()
    }

    /// Total slots ever allocated (the in-flight high-water mark).
    pub(crate) fn capacity(&self) -> usize {
        self.slab.peak()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NodeId;
    use crate::packet::{FlowId, Packet, PacketKind};

    fn pkt(psn: u64) -> Packet {
        Packet::data(NodeId(0), NodeId(1), FlowId(0), 3, psn, 1000)
    }

    fn psn_of(p: &Packet) -> u64 {
        match p.kind {
            PacketKind::Data { psn, .. } => psn,
            _ => unreachable!(),
        }
    }

    #[test]
    fn released_slots_are_reused_last_in_first_out() {
        let mut slab = Slab::new();
        let ids: Vec<u32> = (0..4u64).map(|v| slab.insert(v)).collect();
        assert_eq!(ids, [0, 1, 2, 3]);
        assert_eq!(slab.take(1), 1);
        assert_eq!(slab.take(3), 3);
        assert_eq!((slab.live(), slab.peak()), (2, 4));
        // The slot released last comes back first, with a clean link.
        assert_eq!(slab.insert(30), 3);
        assert_eq!(slab.insert(10), 1);
        assert_eq!((slab.next(3), *slab.get(3)), (NIL, 30));
        // Only with the free list empty does the slab grow.
        assert_eq!(slab.insert(40), 4);
        assert_eq!((slab.live(), slab.peak()), (5, 5));
    }

    /// The free tag on the slot's own link catches it: no scan of a free
    /// list, whatever the slab's size.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double release of slab slot 1")]
    fn double_release_is_caught_in_debug() {
        let mut slab = Slab::new();
        for v in 0..3u64 {
            slab.insert(v);
        }
        slab.take(1);
        slab.take(1);
    }

    #[test]
    fn insert_take_roundtrips() {
        let mut pool = PacketPool::new();
        let a = pool.insert(pkt(1));
        let b = pool.insert(pkt(2));
        assert_eq!(pool.live(), 2);
        assert_eq!(psn_of(pool.get(a)), 1);
        assert_eq!(psn_of(&pool.take(a)), 1);
        assert_eq!(psn_of(&pool.take(b)), 2);
        assert_eq!(pool.live(), 0);
    }

    #[test]
    fn slots_are_recycled_not_grown() {
        let mut pool = PacketPool::new();
        for round in 0..100u64 {
            let r = pool.insert(pkt(round));
            assert_eq!(psn_of(&pool.take(r)), round);
        }
        // One packet in flight at a time: the slab never grew past 1 slot.
        assert_eq!(pool.capacity(), 1);
    }
}
