//! Differential test for the calendar-queue event core: random
//! interleavings of `schedule`/`pop`/`pop_batch`, and of seqs reserved
//! now and inserted later, against a plain binary-heap reference model,
//! checking the exact `(time, seq)` pop order contract the simulator's
//! determinism rests on.

use netsim::event::{Event, EventQueue, SPAN_PS, TICK_PS};
use netsim::rng::SplitMix64;
use netsim::units::{Duration, Time};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The reference model: the old implementation, minus the payload. Pops
/// strictly by `(time, insertion seq)`.
#[derive(Default)]
struct HeapModel {
    heap: BinaryHeap<Reverse<(Time, u64)>>,
    seq: u64,
    now: Time,
    /// Most events ever pending at once.
    max_pending: usize,
}

/// One wheel lap in picoseconds.
const LAP_PS: u64 = SPAN_PS;

impl HeapModel {
    fn schedule(&mut self, at: Time) -> u64 {
        assert!(at >= self.now);
        let s = self.seq;
        self.seq += 1;
        self.heap.push(Reverse((at, s)));
        self.max_pending = self.max_pending.max(self.heap.len());
        s
    }
    fn head(&self) -> Option<(Time, u64)> {
        self.heap.peek().map(|&Reverse(key)| key)
    }
    fn pop(&mut self) -> Option<(Time, u64)> {
        let Reverse((at, s)) = self.heap.pop()?;
        self.now = at;
        Some((at, s))
    }
}

/// Interprets one generated op against both queues. `Hook { id }` carries
/// the model's seq number through the real queue so pops can be compared
/// exactly.
fn apply_schedule(q: &mut EventQueue, m: &mut HeapModel, at: Time) {
    let id = m.schedule(at);
    q.schedule(at, Event::Hook { id: id as usize });
}

fn check_pop(q: &mut EventQueue, m: &mut HeapModel) {
    let got = q.pop().map(|(t, e)| match e {
        Event::Hook { id } => (t, id as u64),
        _ => unreachable!(),
    });
    assert_eq!(got, m.pop(), "pop order must match the heap model");
    if got.is_some() {
        assert_eq!(q.now(), m.now);
    }
}

/// The read-only views agree with the model too.
fn check_views(q: &EventQueue, m: &HeapModel) {
    assert_eq!(q.len(), m.heap.len());
    assert_eq!(q.is_empty(), m.heap.is_empty());
    assert_eq!(q.peek_time(), m.heap.peek().map(|&Reverse((at, _))| at));
}

/// Hundreds of events inside one bucket tick, with ties, and more
/// scheduled at `now` and later in the same tick while the cohort drains:
/// the regime where a bucket is a long list and `near` a long sorted run.
#[test]
fn dense_tick_with_ties_and_schedule_at_now() {
    let mut rng = SplitMix64::new(0xD15E);
    let (mut q, mut m) = (EventQueue::new(), HeapModel::default());
    let tick_start = Time(1000 * TICK_PS);
    for _ in 0..600 {
        // 40 distinct instants inside the tick: ~15-way ties.
        let at = tick_start + Duration(rng.below(40) * (TICK_PS / 40));
        apply_schedule(&mut q, &mut m, at);
    }
    check_views(&q, &m);
    let mut extra = 400;
    while !m.heap.is_empty() {
        check_pop(&mut q, &mut m);
        let now = q.now();
        if extra > 0 && rng.chance(0.5) {
            extra -= 1;
            let left_in_tick = TICK_PS - now.0 % TICK_PS;
            let dt = if rng.chance(0.5) {
                0
            } else {
                rng.below(left_in_tick)
            };
            apply_schedule(&mut q, &mut m, now + Duration(dt));
        }
        check_views(&q, &m);
    }
    check_pop(&mut q, &mut m);
    assert_eq!(q.peak_pending(), m.max_pending);
}

/// Several wheel laps at bounded pending: bucket lists are relinked lap
/// after lap, overflow events migrate inward as the cursor advances, and
/// the slab never grows past the model's own pending high-water mark
/// (every popped slot is recycled, none leak).
#[test]
fn multi_lap_recycles_slots_and_migrates_overflow() {
    let mut rng = SplitMix64::new(0x1A95);
    let (mut q, mut m) = (EventQueue::new(), HeapModel::default());
    while q.now() < Time(4 * LAP_PS) {
        while m.heap.len() < 48 {
            let dt = match rng.below(8) {
                0 => 0,
                1 => rng.below(TICK_PS),
                // Past the horizon: parked in the overflow heap first.
                2 => LAP_PS + rng.below(LAP_PS),
                _ => rng.below(LAP_PS),
            };
            let at = q.now() + Duration(dt);
            apply_schedule(&mut q, &mut m, at);
        }
        for _ in 0..=rng.below(40) {
            check_pop(&mut q, &mut m);
        }
        check_views(&q, &m);
        assert!(q.peak_pending() <= m.max_pending);
    }
    while !m.heap.is_empty() {
        check_pop(&mut q, &mut m);
    }
    // Cursor jump: with the wheel and `near` empty the cursor leaps to the
    // first overflow tick; its cohort, a same-tick tie, a later in-horizon
    // event and one still past the new horizon must pop in model order.
    let base = q.now() + Duration(3 * LAP_PS);
    for dt in [5, 5, TICK_PS / 2, 100 * TICK_PS, LAP_PS + 7, 0] {
        apply_schedule(&mut q, &mut m, base + Duration(dt));
    }
    check_views(&q, &m);
    while !m.heap.is_empty() {
        check_pop(&mut q, &mut m);
        check_views(&q, &m);
    }
    assert_eq!(q.peak_pending(), m.max_pending);
}

/// A sparse wheel: events thousands of empty buckets apart; then, from a
/// cursor in the middle of a bitmap word, a lone event one tick short of a
/// span ahead (its bucket is the one just below the cursor's, in the same
/// word, so the scan for it wraps around the whole wheel) and an overflow
/// event exactly one span past the cursor's tick (the first tick the wheel
/// cannot hold). `peak_pending` stays exact.
#[test]
fn sparse_wheel_wraps_and_overflows_exactly() {
    let (mut q, mut m) = (EventQueue::new(), HeapModel::default());
    for k in [9_000, 3_000, 6_000] {
        apply_schedule(&mut q, &mut m, Time(k * TICK_PS + k));
        check_views(&q, &m);
    }
    while !m.heap.is_empty() {
        check_pop(&mut q, &mut m);
        check_views(&q, &m);
    }
    // The cursor stands on tick 9000: bit 40 of its bitmap word.
    let tick_start = Time(9_000 * TICK_PS);
    assert_eq!(q.now(), tick_start + Duration(9_000));
    apply_schedule(&mut q, &mut m, tick_start + Duration(SPAN_PS - TICK_PS));
    check_views(&q, &m);
    apply_schedule(&mut q, &mut m, tick_start + Duration(SPAN_PS));
    check_views(&q, &m);
    while !m.heap.is_empty() {
        check_pop(&mut q, &mut m);
        check_views(&q, &m);
    }
    check_pop(&mut q, &mut m);
    assert_eq!(q.peak_pending(), m.max_pending);
}

/// A fresh queue holds nothing (not even a preallocated slot), and a
/// fully drained one is order-exact when reused: the free list then holds
/// every slot, which chaos cases hit on each settle phase.
#[test]
fn fresh_and_drained_queues_start_clean() {
    let (mut q, mut m) = (EventQueue::new(), HeapModel::default());
    check_views(&q, &m);
    assert_eq!(q.peak_pending(), 0);
    check_pop(&mut q, &mut m);
    for round in 0..3 {
        let now = q.now();
        let tick_end = Duration(TICK_PS - 1 - now.0 % TICK_PS);
        for dt in [
            Duration(LAP_PS + LAP_PS / 2), // past the horizon
            Duration(LAP_PS - TICK_PS),    // one lap ahead, last bucket
            tick_end,                      // in the current tick
            Duration::ZERO,                // at now
            Duration::ZERO,
            tick_end,
        ] {
            apply_schedule(&mut q, &mut m, now + dt);
        }
        check_views(&q, &m);
        assert_eq!(q.peak_pending(), 6, "round {round} reuses round 0's slots");
        while !m.heap.is_empty() {
            check_pop(&mut q, &mut m);
            check_views(&q, &m);
        }
        check_pop(&mut q, &mut m);
    }
    // Dropping a queue with events in `near`, the wheel and the overflow
    // heap needs no draining.
    let now = q.now();
    for dt in [0, TICK_PS * 9, LAP_PS * 2] {
        apply_schedule(&mut q, &mut m, now + Duration(dt));
    }
    assert_eq!(q.len(), 3);
}

/// Reserves a seq in both queues for an event at `at`: the model
/// schedules it at once, the real queue gets it later, from `deferred`.
fn reserve(q: &mut EventQueue, m: &mut HeapModel, deferred: &mut Vec<(Time, u64)>, at: Time) {
    let seq = q.reserve();
    assert_eq!(seq, m.schedule(at), "both queues hand out the same seqs");
    deferred.push((at, seq));
}

/// Gives the real queue the deferred event at index `k`.
fn insert_deferred(q: &mut EventQueue, deferred: &mut Vec<(Time, u64)>, k: usize) {
    let (at, seq) = deferred.swap_remove(k);
    q.schedule_reserved(at, seq, Event::Hook { id: seq as usize });
}

/// `pop_until(until)` on both queues, the real one given a deferred event
/// just in time: when the model pops it next, after everything before it
/// (including events at its own time) has popped.
fn check_pop_until(
    q: &mut EventQueue,
    m: &mut HeapModel,
    deferred: &mut Vec<(Time, u64)>,
    until: Time,
) {
    if let Some((_, seq)) = m.head() {
        if let Some(k) = deferred.iter().position(|&(_, s)| s == seq) {
            insert_deferred(q, deferred, k);
        }
    }
    let got = q.pop_until(until).map(|(t, e)| match e {
        Event::Hook { id } => (t, id as u64),
        _ => unreachable!(),
    });
    let want = m.head().filter(|&(at, _)| at <= until);
    if want.is_some() {
        m.pop();
    }
    assert_eq!(got, want, "pop order must match the heap model");
    assert_eq!(q.len() + deferred.len(), m.heap.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    /// Seqs reserved now and inserted later — just in time, early, at the
    /// current instant in front of events already due, or past the wheel
    /// horizon — pop exactly where scheduling them at reservation would
    /// have put them, under random `pop_until` bounds.
    #[test]
    fn reserved_inserts_pop_in_model_order(
        ops in prop::collection::vec((0u8..7, 0u64..4_000_000), 1..200),
    ) {
        let (mut q, mut m, mut deferred) = (EventQueue::new(), HeapModel::default(), Vec::new());
        for &(op, dt) in &ops {
            let now = q.now();
            match op {
                0 => apply_schedule(&mut q, &mut m, now + Duration(dt)),
                1 => reserve(&mut q, &mut m, &mut deferred, now + Duration(dt)),
                2 => reserve(&mut q, &mut m, &mut deferred, now),
                3 => reserve(&mut q, &mut m, &mut deferred, now + Duration(3_000_000_000 + dt)),
                4 if !deferred.is_empty() => {
                    let k = dt as usize % deferred.len();
                    insert_deferred(&mut q, &mut deferred, k);
                }
                _ => check_pop_until(&mut q, &mut m, &mut deferred, now + Duration(dt / 4)),
            }
        }
        while !m.heap.is_empty() {
            check_pop_until(&mut q, &mut m, &mut deferred, Time::NEVER);
        }
        prop_assert!(q.is_empty() && deferred.is_empty());
    }

    /// Random schedule/pop interleavings — same-timestamp bursts,
    /// schedule-at-now, and far-future overflow times — pop identically
    /// to the reference heap.
    #[test]
    fn calendar_queue_matches_heap_model(
        ops in prop::collection::vec((0u8..6, 0u64..4_000_000), 1..200),
    ) {
        let mut q = EventQueue::new();
        let mut m = HeapModel::default();
        for &(op, dt) in &ops {
            let now = q.now();
            match op {
                // Near/wheel range: within a few µs of now.
                0 | 1 => apply_schedule(&mut q, &mut m, now + Duration(dt)),
                // Same-timestamp burst: three events, one instant.
                2 => {
                    let at = now + Duration(dt);
                    for _ in 0..3 {
                        apply_schedule(&mut q, &mut m, at);
                    }
                }
                // Far future: past the wheel horizon (overflow bucket).
                3 => apply_schedule(
                    &mut q,
                    &mut m,
                    now + Duration(3_000_000_000 + dt * 1000),
                ),
                // Exactly now (allowed; must sort after everything
                // already popped, in seq order).
                4 => apply_schedule(&mut q, &mut m, now),
                _ => check_pop(&mut q, &mut m),
            }
            check_views(&q, &m);
        }
        // Drain both to the end: every remaining event pops identically.
        loop {
            let empty = q.is_empty();
            prop_assert_eq!(empty, m.heap.is_empty());
            check_pop(&mut q, &mut m);
            if empty {
                break;
            }
        }
    }

    /// `pop_batch` pops exactly the cohort repeated `pop` would, in the
    /// same order, and respects the `until` bound.
    #[test]
    fn pop_batch_matches_repeated_pop(
        ops in prop::collection::vec((0u8..4, 0u64..2_000_000), 1..100),
        until_us in 0u64..5000,
    ) {
        let mut q = EventQueue::new();
        let mut m = HeapModel::default();
        for &(op, dt) in &ops {
            let now = q.now();
            let at = match op {
                0 => now + Duration(dt),
                1 => now + Duration(dt / 1000), // dense ties
                2 => now + Duration(3_000_000_000 + dt), // overflow
                _ => now,
            };
            apply_schedule(&mut q, &mut m, at);
        }
        let until = Time::from_micros(until_us);
        let mut batch = Vec::new();
        while let Some(t) = q.pop_batch(until, &mut batch) {
            prop_assert!(t <= until);
            prop_assert_eq!(q.now(), t);
            prop_assert!(!batch.is_empty());
            for e in batch.drain(..) {
                let id = match e {
                    Event::Hook { id } => id as u64,
                    _ => unreachable!(),
                };
                prop_assert_eq!(m.pop(), Some((t, id)));
            }
        }
        // Whatever the batch loop left behind is strictly past `until`.
        while let Some((t, _)) = m.pop() {
            prop_assert!(t > until);
            q.pop().expect("real queue holds the tail too");
        }
        prop_assert!(q.is_empty());
    }
}
