//! The discrete-event core: a deterministic priority queue of timestamped
//! events.
//!
//! Events at the same timestamp are executed in insertion order (a
//! monotonically increasing sequence number breaks ties), so a run is a pure
//! function of the network configuration and the RNG seed.
//!
//! Internally the queue is a calendar queue (hierarchical timing wheel with
//! a single level plus an overflow heap) rather than one big binary heap.
//! Every pending event lives in one recycled `Slab`; the common case —
//! scheduling a few microseconds ahead — is an O(1) link onto an unsorted
//! bucket list of slab indices, and only events inside the current bucket
//! (one `BUCKET_SHIFT` tick wide) are ever comparison-sorted, as 24-byte keys.
//! Far-future timers (retransmission backoff, watchdog restores) land in
//! the overflow heap and migrate into the wheel as the cursor approaches
//! them. Queue memory is the pending-event high-water mark, whatever the
//! bucket count. Pop order is exactly the old heap's `(time,
//! insertion-seq)` order; see DESIGN.md for the argument.

use crate::slab::{PacketRef, Slab, NIL};
use crate::units::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Index of a node (host or switch) in the network's node table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// Index of a port within a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub usize);

/// Index of a link in the network's link table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId(pub usize);

/// Kinds of timers a host can arm. The payload disambiguates per-flow timers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerKind {
    /// A congestion-control timer; `id` is interpreted by the CC algorithm.
    Cc {
        /// Local flow index on the host.
        flow: usize,
        /// Algorithm-defined timer id.
        id: u32,
    },
    /// Go-back-N retransmission timeout for a flow.
    Retransmit {
        /// Local flow index on the host.
        flow: usize,
    },
    /// The NIC asked to be woken when the earliest flow becomes eligible.
    NicWakeup,
    /// A new message is injected into a flow's send queue (workload arrival).
    MessageArrival {
        /// Local flow index on the host.
        flow: usize,
        /// Message size in bytes.
        bytes: u64,
    },
}

/// A simulation event.
#[derive(Debug, Clone, Copy)]
pub enum Event {
    /// A packet finishes arriving at `node` (entering through `port`).
    /// The packet body lives in the network's [`crate::slab::PacketPool`]
    /// and is reclaimed when the event is dispatched.
    Deliver {
        /// Receiving node.
        node: NodeId,
        /// Ingress port on that node.
        port: PortId,
        /// Handle to the arriving packet in the packet pool.
        pkt: PacketRef,
    },
    /// `node`'s transmitter on `port` finished serializing a packet.
    TxDone {
        /// Transmitting node.
        node: NodeId,
        /// The port whose transmitter became free.
        port: PortId,
    },
    /// A host timer fires.
    Timer {
        /// The host owning the timer.
        node: NodeId,
        /// Which timer.
        kind: TimerKind,
    },
    /// Periodic statistics sampling tick.
    Sample,
    /// A user-registered control hook (used by experiments to start flows or
    /// change configuration mid-run). The id indexes the network's hook table.
    Hook {
        /// Index into the network's hook table.
        id: usize,
    },
    /// A scheduled fault-plan action fires (see [`crate::faults`]).
    Fault {
        /// What breaks (or heals).
        action: crate::faults::FaultAction,
    },
    /// A switch's PFC storm watchdog fires for one (port, class): either a
    /// paused-too-long check or the post-trip restore.
    Watchdog {
        /// The switch owning the watchdog.
        node: NodeId,
        /// The watched port.
        port: PortId,
        /// The watched priority class.
        class: usize,
        /// False: check whether the class has been paused beyond the
        /// threshold. True: restore PAUSE honoring after the recovery
        /// interval.
        restore: bool,
    },
}

/// Names for [`Event::kind_index`] values, used by the telemetry
/// profiler's per-kind report.
pub const EVENT_KIND_NAMES: [&str; 7] = [
    "deliver", "tx_done", "timer", "sample", "hook", "fault", "watchdog",
];

impl Event {
    /// Index of this event's kind into [`EVENT_KIND_NAMES`].
    #[inline]
    pub fn kind_index(&self) -> usize {
        match self {
            Event::Deliver { .. } => 0,
            Event::TxDone { .. } => 1,
            Event::Timer { .. } => 2,
            Event::Sample => 3,
            Event::Hook { .. } => 4,
            Event::Fault { .. } => 5,
            Event::Watchdog { .. } => 6,
        }
    }
}

/// One slab entry: a pending event.
#[derive(Clone, Copy)]
struct Slot {
    at: Time,
    seq: u64,
    event: Event,
}

/// What `near` and `overflow` order: `(time, insertion seq, slab slot)`.
/// Seqs are unique, so the slot index never decides a comparison.
type Key = (Time, u64, u32);

/// Bucket width as a power-of-two of picoseconds: one tick is 2^17 ps ≈
/// 131 ns, finer than one packet serialization at 40 G, so on the testbed
/// consecutive link events usually land in *different* buckets and each
/// bucket drains as one small sorted cohort.
const BUCKET_SHIFT: u32 = 17;
/// Number of wheel buckets (must be a power of two). The wheel horizon is
/// `NUM_BUCKETS << BUCKET_SHIFT` = 2^29 ps ≈ 537 µs; CC timers (≤ 55 µs),
/// PFC pause timeouts and sampling ticks all fit, while RTO backoff
/// (≥ 16 ms) and watchdog restores overflow — exactly what the overflow
/// heap is for.
const NUM_BUCKETS: u64 = 4096;
const BUCKET_MASK: u64 = NUM_BUCKETS - 1;
/// Occupancy bitmap words (64 buckets per `u64`).
const NUM_WORDS: usize = (NUM_BUCKETS / 64) as usize;

#[inline]
fn tick_of(at: Time) -> u64 {
    at.0 >> BUCKET_SHIFT
}

/// Deterministic event queue. Pops events in `(time, insertion order)` order.
pub struct EventQueue {
    /// Every pending event. Its links thread the wheel's bucket lists
    /// (unused while `near` or `overflow` holds the slot), and its slot
    /// count is the pending-event high-water mark.
    slab: Slab<Slot>,
    /// The due cohort: every pending event whose bucket tick is ≤
    /// `cursor_tick`, sorted *descending* by `(time, seq)` so the global
    /// minimum is at the back and `pop` is a plain `Vec::pop`.
    near: Vec<Key>,
    /// Heads of the unsorted bucket lists for ticks in
    /// `(cursor_tick, cursor_tick + NUM_BUCKETS)`, indexed by
    /// `tick & BUCKET_MASK`. Boxed: the queue sits by value in `Ctx` and
    /// `Network`, and 16 KB inline made every move of those a 16 KB copy.
    heads: Box<[u32; NUM_BUCKETS as usize]>,
    /// Bitmap of non-empty wheel buckets, so advancing the cursor skips
    /// runs of empty buckets with a couple of word scans.
    occupied: [u64; NUM_WORDS],
    /// Total events linked into the wheel (kept so `pop` can jump the
    /// cursor straight to the overflow heap when the wheel is empty).
    wheel_len: usize,
    /// Events beyond the wheel horizon, ordered; migrated inward as the
    /// cursor advances.
    overflow: BinaryHeap<Reverse<Key>>,
    /// Highest bucket tick whose events have been promoted into `near`.
    cursor_tick: u64,
    seq: u64,
    now: Time,
    popped: u64,
}

impl Default for EventQueue {
    fn default() -> EventQueue {
        EventQueue::new()
    }
}

impl EventQueue {
    /// Creates an empty queue at time zero.
    pub fn new() -> EventQueue {
        EventQueue {
            slab: Slab::new(),
            near: Vec::new(),
            heads: Box::new([NIL; NUM_BUCKETS as usize]),
            occupied: [0; NUM_WORDS],
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            cursor_tick: 0,
            seq: 0,
            now: Time::ZERO,
            popped: 0,
        }
    }

    /// The current simulation time (time of the last popped event).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.popped
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.near.len() + self.wheel_len + self.overflow.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// High-water mark of pending events: the slab's slot count.
    pub fn peak_pending(&self) -> usize {
        self.slab.peak()
    }

    /// Links slot `i` onto the wheel bucket of `tick` (inside the horizon).
    #[inline]
    fn link(&mut self, tick: u64, i: u32) {
        let bucket = (tick & BUCKET_MASK) as usize;
        self.occupied[bucket / 64] |= 1 << (bucket % 64);
        let head = std::mem::replace(&mut self.heads[bucket], i);
        self.slab.set_next(i, head);
        self.wheel_len += 1;
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past: the simulator never time-travels.
    pub fn schedule(&mut self, at: Time, event: Event) {
        assert!(
            at >= self.now,
            "scheduled event at {at} before current time {}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        let i = self.slab.insert(Slot { at, seq, event });
        let tick = tick_of(at);
        if tick <= self.cursor_tick {
            // Into the due cohort, keeping it sorted. New events carry the
            // highest seq, so among equal times they belong closest to the
            // front-of-equal-run in the descending layout — which is where
            // `partition_point` on strict `>` lands them.
            let idx = self.near.partition_point(|k| (k.0, k.1) > (at, seq));
            self.near.insert(idx, (at, seq, i));
        } else if tick < self.cursor_tick + NUM_BUCKETS {
            self.link(tick, i);
        } else {
            self.overflow.push(Reverse((at, seq, i)));
        }
    }

    /// Moves overflow events that now fall inside the wheel horizon into
    /// their buckets (or into `near` — unsorted; the caller sorts — if
    /// already due).
    fn migrate_overflow(&mut self) {
        let horizon = self.cursor_tick + NUM_BUCKETS;
        while let Some(&Reverse(key)) = self.overflow.peek() {
            let tick = tick_of(key.0);
            if tick >= horizon {
                break;
            }
            self.overflow.pop();
            if tick <= self.cursor_tick {
                self.near.push(key);
            } else {
                self.link(tick, key.2);
            }
        }
    }

    /// First occupied wheel tick after `cursor_tick`. Caller guarantees
    /// `wheel_len > 0`. Two's-complement word scans over the occupancy
    /// bitmap: O(NUM_WORDS) worst case, usually one or two reads.
    fn next_occupied_tick(&self) -> u64 {
        let start = ((self.cursor_tick + 1) & BUCKET_MASK) as usize;
        let mut word = start / 64;
        // Bits below `start` in its word belong to already-drained slots
        // (or slots a full lap ahead); mask them off for the first read.
        let mut bits = self.occupied[word] & (!0u64 << (start % 64));
        for _ in 0..=NUM_WORDS {
            if bits != 0 {
                let slot = word * 64 + bits.trailing_zeros() as usize;
                let dist = (slot + NUM_BUCKETS as usize - start) & BUCKET_MASK as usize;
                return self.cursor_tick + 1 + dist as u64;
            }
            word = (word + 1) % NUM_WORDS;
            bits = self.occupied[word];
        }
        unreachable!("wheel_len > 0 but occupancy bitmap is empty");
    }

    /// Advances the cursor until `near` holds the earliest pending event,
    /// or returns `false` when the queue is empty. The cursor is untouched
    /// in the empty case.
    fn promote(&mut self) -> bool {
        while self.near.is_empty() {
            if self.wheel_len == 0 {
                // Nothing inside the horizon: jump straight to the first
                // overflow tick (if any) and pull its cohort in.
                let Some(Reverse(key)) = self.overflow.peek() else {
                    return false;
                };
                self.cursor_tick = tick_of(key.0);
                self.migrate_overflow();
            } else {
                // Skip straight to the next occupied bucket. No overflow
                // event can be earlier: occupied ticks are < cursor +
                // NUM_BUCKETS ≤ every overflow tick.
                self.cursor_tick = self.next_occupied_tick();
                let bucket = (self.cursor_tick & BUCKET_MASK) as usize;
                self.occupied[bucket / 64] &= !(1 << (bucket % 64));
                // Unlink the whole bucket into `near` (empty here) as keys;
                // the events stay where they are in the slab.
                let mut i = std::mem::replace(&mut self.heads[bucket], NIL);
                while i != NIL {
                    let slot = self.slab.get(i);
                    self.near.push((slot.at, slot.seq, i));
                    i = self.slab.next(i);
                }
                self.wheel_len -= self.near.len();
                // The cursor moved: newly in-horizon overflow events must
                // enter the wheel before anything else is scheduled.
                self.migrate_overflow();
            }
            self.near.sort_unstable_by_key(|&k| Reverse(k));
        }
        true
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Time, Event)> {
        if !self.promote() {
            return None;
        }
        let Some((at, _, i)) = self.near.pop() else {
            debug_assert!(false, "promote() returned true on an empty queue");
            return None;
        };
        debug_assert!(at >= self.now);
        self.now = at;
        self.popped += 1;
        Some((at, self.slab.take(i).event))
    }

    /// Pops the entire cohort of events sharing the earliest pending
    /// timestamp (if that timestamp is ≤ `until`) into `out`, in exact
    /// `(time, seq)` order, and returns the cohort's timestamp. The clock
    /// advances to it. Equivalent to repeated `pop` while the head time is
    /// unchanged — batching only skips re-entering the scheduler between
    /// same-timestamp events, which cannot reorder anything because events
    /// scheduled *during* their dispatch always carry higher seqs.
    pub fn pop_batch(&mut self, until: Time, out: &mut Vec<Event>) -> Option<Time> {
        if !self.promote() {
            return None;
        }
        let Some(&(t, ..)) = self.near.last() else {
            debug_assert!(false, "promote() returned true on an empty queue");
            return None;
        };
        if t > until {
            return None;
        }
        self.now = t;
        while let Some(&(at, _, i)) = self.near.last() {
            if at != t {
                break;
            }
            self.near.pop();
            self.popped += 1;
            out.push(self.slab.take(i).event);
        }
        Some(t)
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        if let Some(&(at, ..)) = self.near.last() {
            return Some(at);
        }
        if self.wheel_len > 0 {
            // The first occupied bucket holds the earliest tick; every
            // event in it shares that tick, so its min is the global min.
            let mut i = self.heads[(self.next_occupied_tick() & BUCKET_MASK) as usize];
            let mut min = Time::NEVER;
            while i != NIL {
                min = min.min(self.slab.get(i).at);
                i = self.slab.next(i);
            }
            return Some(min);
        }
        self.overflow.peek().map(|Reverse(key)| key.0)
    }

    /// Advances the clock to `to` without popping anything, so a drained
    /// horizon leaves `now()` at the horizon itself rather than at the
    /// last popped event. Never moves the clock backwards, and must not
    /// jump past a pending event (that would let `pop` run time in
    /// reverse).
    pub fn advance_clock(&mut self, to: Time) {
        debug_assert!(
            self.peek_time().is_none_or(|t| t >= to),
            "advance_clock({to}) would skip past a pending event"
        );
        self.now = self.now.max(to);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Duration;

    fn hook(id: usize) -> Event {
        Event::Hook { id }
    }

    fn drain_ids(q: &mut EventQueue) -> Vec<usize> {
        std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Hook { id } => id,
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_micros(3), hook(3));
        q.schedule(Time::from_micros(1), hook(1));
        q.schedule(Time::from_micros(2), hook(2));
        assert_eq!(drain_ids(&mut q), vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = Time::from_micros(7);
        for id in 0..100 {
            q.schedule(t, hook(id));
        }
        assert_eq!(drain_ids(&mut q), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_micros(5), hook(0));
        q.schedule(Time::from_micros(5), hook(1));
        q.schedule(Time::from_micros(9), hook(2));
        let mut last = Time::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            assert_eq!(q.now(), t);
        }
        assert_eq!(last, Time::from_micros(9));
        assert_eq!(q.events_executed(), 3);
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_micros(5), hook(0));
        q.pop();
        q.schedule(Time::from_micros(1), hook(1));
    }

    #[test]
    fn schedule_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_micros(5), hook(0));
        q.pop();
        q.schedule(q.now(), hook(1));
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, Time::from_micros(5));
        assert_eq!(t + Duration::ZERO, t);
    }

    #[test]
    fn far_future_events_take_the_overflow_path() {
        let mut q = EventQueue::new();
        // Well beyond the wheel horizon (see `NUM_BUCKETS`): a 16 ms RTO and
        // a 320 ms watchdog restore, interleaved with near events.
        q.schedule(Time::from_millis(320), hook(3));
        q.schedule(Time::from_micros(2), hook(0));
        q.schedule(Time::from_millis(16), hook(2));
        q.schedule(Time::from_millis(1), hook(1));
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_time(), Some(Time::from_micros(2)));
        assert_eq!(drain_ids(&mut q), vec![0, 1, 2, 3]);
        assert_eq!(q.now(), Time::from_millis(320));
    }

    #[test]
    fn peek_time_sees_wheel_and_overflow_without_advancing() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_millis(100), hook(1));
        assert_eq!(q.peek_time(), Some(Time::from_millis(100)));
        q.schedule(Time::from_micros(900), hook(0));
        assert_eq!(q.peek_time(), Some(Time::from_micros(900)));
        // Peeking must not have advanced the clock.
        assert_eq!(q.now(), Time::ZERO);
        assert_eq!(drain_ids(&mut q), vec![0, 1]);
    }

    #[test]
    fn cohorts_spanning_buckets_interleave_correctly() {
        let mut q = EventQueue::new();
        // Schedule across many buckets in scrambled order, with ties.
        let mut expect = Vec::new();
        for i in 0..50usize {
            let t = Time(((i * 7919) % 50) as u64 * 100_000_000);
            q.schedule(t, hook(i));
            expect.push((t, i));
        }
        expect.sort_by_key(|&(t, i)| (t, i));
        let got: Vec<(Time, usize)> = std::iter::from_fn(|| q.pop())
            .map(|(t, e)| match e {
                Event::Hook { id } => (t, id),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn pop_batch_drains_exactly_one_timestamp() {
        let mut q = EventQueue::new();
        let t = Time::from_micros(5);
        q.schedule(t, hook(0));
        q.schedule(t, hook(1));
        q.schedule(Time::from_micros(6), hook(2));
        let mut out = Vec::new();
        let popped = q.pop_batch(Time::from_millis(1), &mut out);
        assert_eq!(popped, Some(t));
        assert_eq!(out.len(), 2);
        assert_eq!(q.now(), t);
        assert_eq!(q.len(), 1);
        // Respecting `until`: the next cohort is past the bound.
        out.clear();
        assert_eq!(q.pop_batch(t, &mut out), None);
        assert!(out.is_empty());
        assert_eq!(q.events_executed(), 2);
    }
}
