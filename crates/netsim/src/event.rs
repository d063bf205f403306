//! The discrete-event core: a deterministic priority queue of timestamped
//! events.
//!
//! Events at the same timestamp are executed in insertion order (a
//! monotonically increasing sequence number breaks ties), so a run is a pure
//! function of the network configuration and the RNG seed.
//!
//! Internally the queue is a calendar queue (a one-level timing wheel plus
//! an overflow heap) rather than one big binary heap. Every pending event
//! lives in one recycled `Slab`; the common case — scheduling a few
//! microseconds ahead — is an O(1) link onto an unsorted bucket list of
//! slab indices, and only the events of the current bucket (one
//! [`TICK_PS`] wide) are ever comparison-sorted, as 16-byte packed keys. A
//! two-level occupancy bitmap finds the next non-empty bucket in a few word
//! reads however sparse the wheel is. Far-future timers (retransmission
//! backoff, watchdog restores) land in the overflow heap and migrate into
//! the wheel as the cursor approaches them. Queue memory is the
//! pending-event high-water mark plus a fixed, lazily touched wheel. Pop
//! order is exactly the old heap's `(time, insertion-seq)` order; see
//! DESIGN.md for the argument.
//!
//! A caller may take an insertion seq now ([`EventQueue::reserve`]) and
//! insert the event under it later ([`EventQueue::schedule_reserved`]):
//! the event pops exactly where scheduling it at reservation time would
//! have put it, without being pending in between.

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
    /// The front message of a flow's filed arrivals is injected into its
    /// send queue (workload arrival; the host keeps the bytes).
    MessageArrival {
        /// Local flow index on the host.
        flow: usize,
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
#[cfg(feature = "profile")]
pub(crate) const EVENT_KIND_NAMES: [&str; 7] = [
    "deliver", "tx_done", "timer", "sample", "hook", "fault", "watchdog",
];

impl Event {
    /// Index of this event's kind into [`EVENT_KIND_NAMES`].
    #[inline]
    pub(crate) fn kind_index(&self) -> usize {
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

/// log2 of [`TICK_PS`].
const TICK_SHIFT: u32 = 14;
/// Width of one wheel bucket: 2^14 ps ≈ 16.4 ns. A 40 Gbps frame takes
/// 12.8 ns (64 B) to 300 ns (1500 B) to serialize, so a port rarely puts
/// two transmitter events into one bucket. The cohort `pop` sorts per
/// non-empty bucket averages ≈ 2 events on the Clos testbed and ≈ 17 on
/// the 128-host fat tree.
pub const TICK_PS: u64 = 1 << TICK_SHIFT;
/// Number of wheel buckets (a power of two).
const NUM_BUCKETS: usize = 1 << 15;
/// The wheel's span: 2^29 ps ≈ 537 µs. An event whose bucket tick is less
/// than one span past the cursor's tick is linked into the wheel; later
/// ones wait in the overflow heap. CC timers (≤ 55 µs), PFC pause timeouts
/// and sampling ticks fit, while RTO backoff (≥ 16 ms) and watchdog
/// restores overflow.
pub const SPAN_PS: u64 = TICK_PS * NUM_BUCKETS as u64;
const BUCKET_MASK: u64 = NUM_BUCKETS as u64 - 1;
/// Occupancy bitmap words, 64 buckets each.
const LEAF_WORDS: usize = NUM_BUCKETS / 64;
/// Summary words, one bit per occupancy word.
const SUMMARY_WORDS: usize = LEAF_WORDS / 64;

/// Pending events a new queue has room for before its slab and overflow
/// heap reallocate (152 KB, untouched until used, so a small run pays for
/// none of it). Pending events are bounded by the fabric; at seed 1 they
/// peak at 98 on `clos_pfc_incast`, 225 on `clos_dcqcn_mixed` and 2 151
/// on `fattree_k8_permutation`, which doubles the slab once (room for
/// 4 096 left its `peak_rss_mb` within run-to-run spread).
const INITIAL_EVENTS: usize = 2048;

/// Bits of a key's low word that name the slab slot; the seq takes the
/// rest.
const SLOT_BITS: u32 = 24;
/// Most events a queue can hold pending at once: 2^24 ≈ 16.8 M.
const MAX_SLOTS: u32 = 1 << SLOT_BITS;
/// Most events a queue can ever be given: 2^40 ≈ 1.1 × 10^12.
const MAX_SEQ: u64 = 1 << (64 - SLOT_BITS);

#[inline]
fn tick_of(at: Time) -> u64 {
    at.0 >> TICK_SHIFT
}

/// The first slot of a bucket list from its entry in `heads` (slot + 1, 0
/// for an empty bucket), or [`NIL`].
#[inline]
fn first_slot(head: u32) -> u32 {
    head.checked_sub(1).unwrap_or(NIL)
}

/// The low word of a key: insertion seq above the slab slot. Seqs are
/// unique, so the slot never decides a comparison.
///
/// # Panics
/// Panics when either field outgrows its bits, rather than wrap into a
/// key that pops out of order.
#[inline]
fn tie_of(seq: u64, slot: u32) -> u64 {
    assert!(
        seq < MAX_SEQ && slot < MAX_SLOTS,
        "event queue key overflow: seq {seq} (limit 2^40) or slot {slot} (limit 2^24)"
    );
    seq << SLOT_BITS | slot as u64
}

/// What `near` and `overflow` order: `(time, insertion seq, slab slot)`
/// packed into one integer, time in the high word, so one compare orders
/// two pending events.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key(u128);

impl Key {
    #[inline]
    fn new(at: Time, tie: u64) -> Key {
        Key((at.0 as u128) << 64 | tie as u128)
    }

    #[inline]
    fn at(self) -> Time {
        Time((self.0 >> 64) as u64)
    }

    #[inline]
    fn slot(self) -> u32 {
        self.0 as u32 & (MAX_SLOTS - 1)
    }
}

/// One slab entry: a pending event and its key.
#[derive(Clone, Copy)]
struct Slot {
    at: Time,
    /// The key's low word, [`tie_of`].
    tie: u64,
    event: Event,
}

/// How `pop` met its events: the cohorts it sorted. Counted only under
/// `--features profile` (all zero otherwise), for the `profile` report
/// section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CohortStats {
    /// Times the cursor moved and pulled a bucket (or an overflow cohort)
    /// into the sorted due run.
    pub(crate) promotions: u64,
    /// Events those promotions pulled, in total.
    pub(crate) promoted: u64,
    /// The largest single promotion.
    pub(crate) max_cohort: u64,
}

/// Deterministic event queue. Pops events in `(time, insertion order)` order.
pub struct EventQueue {
    /// Every pending event. Its links thread the wheel's bucket lists
    /// (unused while `near` or `overflow` holds the slot), and its slot
    /// count is the pending-event high-water mark.
    slab: Slab<Slot>,
    /// The due cohort: every pending event whose bucket tick is ≤
    /// `cursor_tick`, sorted *descending* so the global minimum is at the
    /// back and `pop` is a plain `Vec::pop`.
    near: Vec<Key>,
    /// Heads of the unsorted bucket lists for ticks in
    /// `(cursor_tick, cursor_tick + NUM_BUCKETS)`, indexed by
    /// `tick & BUCKET_MASK`, as slot + 1 so that 0 marks an empty bucket.
    /// Boxed and allocated zeroed: the 128 KB are never written at
    /// construction, and a page is touched only when a bucket on it is.
    heads: Box<[u32; NUM_BUCKETS]>,
    /// Bitmap of non-empty buckets (boxed and zeroed like `heads`).
    leaf: Box<[u64; LEAF_WORDS]>,
    /// Bitmap of non-zero `leaf` words, so the scan for the next non-empty
    /// bucket reads at most a few words however sparse the wheel is.
    summary: [u64; SUMMARY_WORDS],
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
    #[cfg(feature = "profile")]
    cohorts: CohortStats,
}

impl Default for EventQueue {
    fn default() -> EventQueue {
        EventQueue::new()
    }
}

/// A boxed array of zeros, from the allocator's zeroed pages rather than
/// a write of every element.
fn zeroed<T: Copy + Default, const N: usize>() -> Box<[T; N]> {
    match vec![T::default(); N].into_boxed_slice().try_into() {
        Ok(array) => array,
        Err(_) => unreachable!("a Vec of N elements converts to [T; N]"),
    }
}

impl EventQueue {
    /// Creates an empty queue at time zero.
    pub fn new() -> EventQueue {
        EventQueue {
            slab: Slab::with_capacity(INITIAL_EVENTS),
            near: Vec::new(),
            heads: zeroed(),
            leaf: zeroed(),
            summary: [0; SUMMARY_WORDS],
            wheel_len: 0,
            overflow: BinaryHeap::with_capacity(INITIAL_EVENTS),
            cursor_tick: 0,
            seq: 0,
            now: Time::ZERO,
            popped: 0,
            #[cfg(feature = "profile")]
            cohorts: CohortStats::default(),
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

    /// Every pending event, in no particular order.
    #[cfg(test)]
    pub(crate) fn pending(&self) -> impl Iterator<Item = &Event> {
        self.slab.live_values().map(|slot| &slot.event)
    }

    /// The cohorts `pop` has sorted so far (all zero without `--features
    /// profile`).
    pub(crate) fn cohort_stats(&self) -> CohortStats {
        #[cfg(feature = "profile")]
        {
            self.cohorts
        }
        #[cfg(not(feature = "profile"))]
        {
            CohortStats::default()
        }
    }

    /// Links slot `i` onto the wheel bucket of `tick` (inside the horizon).
    #[inline]
    fn link(&mut self, tick: u64, i: u32) {
        let bucket = (tick & BUCKET_MASK) as usize;
        let word = bucket / 64;
        self.leaf[word] |= 1 << (bucket % 64);
        self.summary[word / 64] |= 1 << (word % 64);
        let head = std::mem::replace(&mut self.heads[bucket], i + 1);
        self.slab.set_next(i, first_slot(head));
        self.wheel_len += 1;
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past: the simulator never time-travels.
    // Always inlined: out of line, `schedule` takes the event by reference
    // to a copy on its caller's stack, and reading that copy back stalls
    // on store forwarding at every hop (`Port::start_tx`, `Port::tx_done`).
    // Inlined, the event is stored straight into its slab slot.
    #[inline(always)]
    pub fn schedule(&mut self, at: Time, event: Event) {
        let seq = self.reserve();
        self.schedule_reserved(at, seq, event);
    }

    /// Takes the next insertion seq without scheduling anything: an event
    /// later given it by [`EventQueue::schedule_reserved`] pops where one
    /// scheduled now would.
    #[inline]
    pub fn reserve(&mut self) -> u64 {
        self.seq += 1;
        self.seq - 1
    }

    /// Schedules `event` at `at` under `seq`, taken earlier from
    /// [`EventQueue::reserve`] and given to no other event.
    ///
    /// # Panics
    /// Panics if `at` is in the past, like [`EventQueue::schedule`].
    #[inline(always)]
    pub fn schedule_reserved(&mut self, at: Time, seq: u64, event: Event) {
        assert!(
            at >= self.now,
            "scheduled event at {at} before current time {}",
            self.now
        );
        debug_assert!(seq < self.seq, "seq {seq} was never reserved");
        let tie = tie_of(seq, self.slab.vacant());
        let i = self.slab.insert(Slot { at, tie, event });
        let tick = tick_of(at);
        if tick <= self.cursor_tick {
            self.insert_near(Key::new(at, tie));
        } else if tick < self.cursor_tick + NUM_BUCKETS as u64 {
            self.link(tick, i);
        } else {
            self.push_overflow(Key::new(at, tie));
        }
    }

    /// Parks `key` in the overflow heap. Out of line, like `insert_near`:
    /// `schedule` is inlined at every call site, and these are its rare
    /// branches.
    #[inline(never)]
    fn push_overflow(&mut self, key: Key) {
        self.overflow.push(Reverse(key));
    }

    /// Inserts `key` into the due cohort, keeping it sorted descending.
    /// Keys are unique, so `partition_point` on strict `>` lands it in its
    /// one place; a new event carries the highest seq and goes to the
    /// front of its equal-time run.
    #[inline(never)]
    fn insert_near(&mut self, key: Key) {
        let idx = self.near.partition_point(|&k| k > key);
        self.near.insert(idx, key);
    }

    /// Moves overflow events that now fall inside the wheel horizon into
    /// their buckets (or into `near` — unsorted; the caller sorts — if
    /// already due).
    fn migrate_overflow(&mut self) {
        let horizon = self.cursor_tick + NUM_BUCKETS as u64;
        while let Some(&Reverse(key)) = self.overflow.peek() {
            let tick = tick_of(key.at());
            if tick >= horizon {
                break;
            }
            self.overflow.pop();
            if tick <= self.cursor_tick {
                self.near.push(key);
            } else {
                self.link(tick, key.slot());
            }
        }
    }

    /// First non-empty bucket at or after `from`, not wrapping around.
    #[inline]
    fn first_occupied_from(&self, from: usize) -> Option<usize> {
        let word = from / 64;
        let bits = self.leaf[word] & (!0u64 << (from % 64));
        if bits != 0 {
            return Some(word * 64 + bits.trailing_zeros() as usize);
        }
        let next = word + 1;
        if next == LEAF_WORDS {
            return None;
        }
        let mut s = next / 64;
        let mut words = self.summary[s] & (!0u64 << (next % 64));
        loop {
            if words != 0 {
                let word = s * 64 + words.trailing_zeros() as usize;
                return Some(word * 64 + self.leaf[word].trailing_zeros() as usize);
            }
            s += 1;
            if s == SUMMARY_WORDS {
                return None;
            }
            words = self.summary[s];
        }
    }

    /// First occupied wheel tick after `cursor_tick`. Caller guarantees
    /// `wheel_len > 0`. Buckets below the cursor's own in the bitmap hold
    /// ticks almost a lap ahead, so the scan wraps once.
    fn next_occupied_tick(&self) -> u64 {
        let start = ((self.cursor_tick + 1) & BUCKET_MASK) as usize;
        let Some(bucket) = self
            .first_occupied_from(start)
            .or_else(|| self.first_occupied_from(0))
        else {
            unreachable!("wheel_len > 0 but occupancy bitmap is empty");
        };
        let dist = (bucket + NUM_BUCKETS - start) & BUCKET_MASK as usize;
        self.cursor_tick + 1 + dist as u64
    }

    /// Unlinks the whole bucket of `cursor_tick` into `near` (empty here)
    /// as keys; the events stay where they are in the slab.
    fn take_bucket(&mut self) {
        let bucket = (self.cursor_tick & BUCKET_MASK) as usize;
        let word = bucket / 64;
        self.leaf[word] &= !(1 << (bucket % 64));
        if self.leaf[word] == 0 {
            self.summary[word / 64] &= !(1 << (word % 64));
        }
        let mut i = first_slot(std::mem::take(&mut self.heads[bucket]));
        while i != NIL {
            let slot = self.slab.get(i);
            self.near.push(Key::new(slot.at, slot.tie));
            i = self.slab.next(i);
        }
        self.wheel_len -= self.near.len();
    }

    /// True once `near` holds the earliest pending event, false when the
    /// queue is empty. Inlined: most calls find `near` non-empty.
    #[inline]
    fn promote(&mut self) -> bool {
        !self.near.is_empty() || self.refill()
    }

    /// Advances the cursor until `near` is non-empty, or returns `false`
    /// when the queue is empty. The cursor is untouched in the empty case.
    fn refill(&mut self) -> bool {
        while self.near.is_empty() {
            if self.wheel_len == 0 {
                // Nothing inside the horizon: jump straight to the first
                // overflow tick (if any) and pull its cohort in.
                let Some(&Reverse(key)) = self.overflow.peek() else {
                    return false;
                };
                self.cursor_tick = tick_of(key.at());
            } else {
                // Skip straight to the next occupied bucket. No overflow
                // event can be earlier: occupied ticks are < cursor +
                // NUM_BUCKETS ≤ every overflow tick.
                self.cursor_tick = self.next_occupied_tick();
                self.take_bucket();
            }
            // The cursor moved: newly in-horizon overflow events must
            // enter the wheel before anything else is scheduled.
            self.migrate_overflow();
            self.near.sort_unstable_by(|a, b| b.cmp(a));
            #[cfg(feature = "profile")]
            {
                let c = &mut self.cohorts;
                c.promotions += 1;
                c.promoted += self.near.len() as u64;
                c.max_cohort = c.max_cohort.max(self.near.len() as u64);
            }
        }
        true
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Time, Event)> {
        self.pop_until(Time::NEVER)
    }

    /// Pops the next event if it is due at or before `until`, advancing
    /// the clock to its timestamp.
    pub fn pop_until(&mut self, until: Time) -> Option<(Time, Event)> {
        if !self.promote() {
            return None;
        }
        let Some(&key) = self.near.last() else {
            debug_assert!(false, "promote() returned true on an empty queue");
            return None;
        };
        let at = key.at();
        if at > until {
            return None;
        }
        debug_assert!(at >= self.now);
        self.near.pop();
        self.now = at;
        self.popped += 1;
        Some((at, self.slab.take(key.slot()).event))
    }

    /// Pops the entire cohort of events sharing the earliest pending
    /// timestamp (if that timestamp is ≤ `until`) into `out`, in exact
    /// `(time, seq)` order, and returns the cohort's timestamp. The clock
    /// advances to it. Equivalent to repeated `pop` while the head time is
    /// unchanged as long as events scheduled *during* the cohort's
    /// dispatch carry higher seqs, which `schedule` guarantees. An event
    /// given a reserved seq at the cohort's own time may belong inside the
    /// drained cohort, so a caller that does that pops one event at a time
    /// ([`EventQueue::pop_until`]).
    pub fn pop_batch(&mut self, until: Time, out: &mut Vec<Event>) -> Option<Time> {
        if !self.promote() {
            return None;
        }
        let Some(&head) = self.near.last() else {
            debug_assert!(false, "promote() returned true on an empty queue");
            return None;
        };
        let t = head.at();
        if t > until {
            return None;
        }
        self.now = t;
        while let Some(&key) = self.near.last() {
            if key.at() != t {
                break;
            }
            self.near.pop();
            self.popped += 1;
            out.push(self.slab.take(key.slot()).event);
        }
        Some(t)
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        if let Some(&key) = self.near.last() {
            return Some(key.at());
        }
        if self.wheel_len > 0 {
            // The first occupied bucket holds the earliest tick; every
            // event in it shares that tick, so its min is the global min.
            let bucket = (self.next_occupied_tick() & BUCKET_MASK) as usize;
            let mut i = first_slot(self.heads[bucket]);
            let mut min = Time::NEVER;
            while i != NIL {
                min = min.min(self.slab.get(i).at);
                i = self.slab.next(i);
            }
            return Some(min);
        }
        self.overflow.peek().map(|Reverse(key)| key.at())
    }

    /// Advances the clock to `to` without popping anything, so a drained
    /// horizon leaves `now()` at the horizon itself rather than at the
    /// last popped event. Never moves the clock backwards, and must not
    /// jump past a pending event (that would let `pop` run time in
    /// reverse).
    pub(crate) fn advance_clock(&mut self, to: Time) {
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
    fn keys_pack_time_seq_and_slot_in_order() {
        let a = Key::new(Time(5), tie_of(MAX_SEQ - 1, 3));
        let b = Key::new(Time(6), tie_of(0, MAX_SLOTS - 1));
        assert!(a < b, "time decides first");
        assert!(Key::new(Time(5), tie_of(7, 9)) < Key::new(Time(5), tie_of(8, 0)));
        assert_eq!((a.at(), a.slot()), (Time(5), 3));
        assert_eq!((b.at(), b.slot()), (Time(6), MAX_SLOTS - 1));
        assert_eq!(
            SPAN_PS,
            1 << 29,
            "the span simbench's churn_large kernel documents"
        );
    }

    #[test]
    #[should_panic(expected = "event queue key overflow: seq 1099511627776")]
    fn seq_past_its_bits_panics() {
        tie_of(MAX_SEQ, 0);
    }

    #[test]
    #[should_panic(expected = "event queue key overflow")]
    fn slot_past_its_bits_panics() {
        tie_of(0, MAX_SLOTS);
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
