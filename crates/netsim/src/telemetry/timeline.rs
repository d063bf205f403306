//! Deterministic, bounded-memory time-series tracks.
//!
//! A [`Timeline`] is read as a uniform grid of buckets anchored at t = 0
//! whose width is a power of two picoseconds: the smallest width that
//! fits the latest sample within the track's fixed *point budget*
//! (default [`DEFAULT_POINT_BUDGET`]). Each bucket keeps `count`, `sum`,
//! `min` and `max` — all commutative aggregates — so what a track reads
//! is a pure function of the *multiset* of recorded samples: record order
//! never changes a bucket, a merge never changes the track total, and two
//! runs that sample the same values produce byte-identical summaries
//! (pinned by the proptests in `tests/timeline.rs`).
//!
//! A track stores that grid one of two ways, in one direction. While its
//! samples fit the budget it keeps them sorted by time and groups them
//! into buckets as they are read. Each sample stores its value, 4 B while
//! every value so far fits a `u32` and 8 B from the first that does not;
//! its time is computed as `first + step·i` while every sample so far
//! lies on one progression (a sampler's cadence, read from the first two
//! samples), and listed (8 B more) from the first sample that breaks it.
//! The sample that would pass the budget folds them into the dense grid
//! (48 B a slot, the whole budget at once), where adjacent bucket pairs
//! merge and the width doubles as the horizon grows: resolution halves,
//! but memory stays `O(budget)` for **any** horizon.
//!
//! Values are recorded as integers (`u64` raw ticks). A per-track `unit`
//! gives the value of one tick, so fractional quantities (a rate in
//! Gbps) are recorded in fixed point — e.g. `unit = 1e-6` records
//! micro-Gbps — keeping every aggregate exact and order-independent;
//! the float conversion happens only in the read-side views.
//!
//! How a merged bucket is *summarized* depends on the [`TrackKind`]:
//!
//! * [`TrackKind::Counter`] — per-interval deltas (PAUSE/ECN/CNP/drop
//!   rates). Representative: the bucket **sum**, which merges conserve.
//! * [`TrackKind::Gauge`] — instantaneous samples (queue depth, CC
//!   rate). Representative: the bucket **mean** (`sum/count`); `min`
//!   and `max` keep the envelope.
//! * [`TrackKind::Cumulative`] — monotone running totals (delivered
//!   bytes). Representative: the bucket **max**, which for a
//!   nondecreasing series is exactly the last sample of the interval.
//!
//! A [`TimelineSet`] holds named tracks behind `Copy` [`TrackId`]
//! handles, mirroring the `Metrics` counter handles: registration
//! (name lookup, allocation) is cold, the per-sample record path is an
//! array index plus integer adds.

use crate::stats::{nearest_rank, TimeSeries};
use crate::telemetry::Json;
use crate::units::{Duration, Time};

/// Default per-track point budget: a track never holds more than this
/// many samples or buckets, no matter the horizon.
pub(crate) const DEFAULT_POINT_BUDGET: usize = 4096;

/// How merged buckets of a track are summarized. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackKind {
    /// Per-interval deltas; representative = bucket sum.
    Counter,
    /// Instantaneous samples; representative = bucket mean.
    Gauge,
    /// Monotone running totals; representative = bucket max.
    Cumulative,
}

impl TrackKind {
    /// Stable lowercase name used in JSON summaries.
    pub fn name(self) -> &'static str {
        match self {
            TrackKind::Counter => "counter",
            TrackKind::Gauge => "gauge",
            TrackKind::Cumulative => "cumulative",
        }
    }
}

/// Handle to one track of a [`TimelineSet`]. One array index to record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackId(u32);

/// One grid bucket: commutative aggregates only (no `last`, whose value
/// would depend on record order within the bucket).
#[derive(Debug, Clone, Copy)]
struct Bucket {
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
    /// Latest sample time in the bucket (a max, so order-independent).
    t_max: u64,
}

impl Bucket {
    const EMPTY: Bucket = Bucket {
        count: 0,
        sum: 0,
        min: u64::MAX,
        max: 0,
        t_max: 0,
    };

    #[inline]
    fn observe(&mut self, t: Time, v: u64) {
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.t_max = self.t_max.max(t.0);
    }

    fn absorb(&mut self, other: Bucket) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.t_max = self.t_max.max(other.t_max);
    }
}

/// A read-side view of one non-empty bucket, with the raw integer
/// aggregates already converted through the track's `unit`.
#[derive(Debug, Clone, Copy)]
pub struct BucketView {
    /// Inclusive start of the bucket's time interval.
    pub start: Time,
    /// Exclusive end of the bucket's time interval.
    pub end: Time,
    /// Latest sample time recorded into the interval — exact while the
    /// bucket width is finer than the sampling cadence.
    pub last: Time,
    /// Samples recorded into this interval.
    pub count: u64,
    /// Sum of the samples (in track units).
    pub sum: f64,
    /// Smallest sample (in track units).
    pub min: f64,
    /// Largest sample (in track units).
    pub max: f64,
}

impl BucketView {
    /// Mean of the bucket's samples.
    pub fn mean(&self) -> f64 {
        self.sum / self.count as f64
    }
}

/// The dense grid a track folds into once its samples outgrow the budget.
#[derive(Debug, Clone)]
struct Grid {
    /// log2 of the bucket width in ps; grows by one per halving.
    width_log2: u32,
    /// Up to `budget` entries, all reserved at the fold; index `i` covers
    /// `[i·w, (i+1)·w)` where `w = 1 << width_log2` ps.
    buckets: Vec<Bucket>,
}

impl Grid {
    /// Index of the bucket covering `t` at the current width.
    #[inline]
    fn index_of(&self, t: Time) -> usize {
        t.0.checked_shr(self.width_log2).unwrap_or(0) as usize
    }

    /// Records one sample: an index plus integer adds; the halving loop
    /// only runs when the horizon outgrows the grid, which happens
    /// `O(log horizon)` times per track lifetime.
    #[inline]
    fn record(&mut self, t: Time, v: u64, budget: usize) {
        let mut idx = self.index_of(t);
        while idx >= budget {
            self.halve();
            idx = self.index_of(t);
        }
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, Bucket::EMPTY);
        }
        self.buckets[idx].observe(t, v);
    }

    /// Merges adjacent bucket pairs in place and doubles the width.
    fn halve(&mut self) {
        let n = self.buckets.len();
        let half = n.div_ceil(2);
        for i in 0..half {
            let mut merged = self.buckets[2 * i];
            if 2 * i + 1 < n {
                merged.absorb(self.buckets[2 * i + 1]);
            }
            self.buckets[i] = merged;
        }
        self.buckets.truncate(half);
        self.width_log2 += 1;
    }
}

/// Each stored sample's time (module docs).
#[derive(Debug, Clone)]
enum Times {
    /// Sample `i` is at `first + step·i`. The second sample sets `step`.
    Cadence { first: u64, step: u64 },
    /// Each sample's time, listed from the first that broke the cadence.
    Listed(Vec<u64>),
}

/// Each stored sample's value (module docs).
#[derive(Debug, Clone)]
enum Values {
    /// Every value so far fits a `u32`.
    Narrow(Vec<u32>),
    /// From the first value that does not.
    Wide(Vec<u64>),
}

impl Values {
    fn len(&self) -> usize {
        match self {
            Values::Narrow(values) => values.len(),
            Values::Wide(values) => values.len(),
        }
    }

    fn capacity(&self) -> usize {
        match self {
            Values::Narrow(values) => values.capacity(),
            Values::Wide(values) => values.capacity(),
        }
    }

    #[inline]
    fn get(&self, i: usize) -> u64 {
        match self {
            Values::Narrow(values) => u64::from(values[i]),
            Values::Wide(values) => values[i],
        }
    }

    /// Stores `v` at index `at`, widening first if `v` needs 64 bits.
    #[inline]
    fn insert(&mut self, at: usize, v: u64) {
        if let Values::Narrow(values) = self {
            match u32::try_from(v) {
                Ok(v) => return values.insert(at, v),
                Err(_) => self.widen(),
            }
        }
        if let Values::Wide(values) = self {
            values.insert(at, v);
        }
    }

    /// A value needs 64 bits: copies the column to 8 B a value, once per
    /// track lifetime, keeping its capacity.
    #[cold]
    fn widen(&mut self) {
        if let Values::Narrow(narrow) = self {
            let mut wide = Vec::with_capacity(narrow.capacity());
            wide.extend(narrow.iter().map(|&v| u64::from(v)));
            *self = Values::Wide(wide);
        }
    }
}

/// A track's samples before the fold, sorted by time; at most `budget`.
#[derive(Debug, Clone)]
struct Samples {
    times: Times,
    values: Values,
}

impl Samples {
    fn len(&self) -> usize {
        self.values.len()
    }

    /// The time of sample `i`: the one reader of the time column.
    #[inline]
    fn time_of(&self, i: usize) -> u64 {
        match &self.times {
            Times::Cadence { first, step } => first + step * i as u64,
            Times::Listed(times) => times[i],
        }
    }

    /// Stores one sample in time order: a value append while `t` keeps
    /// the cadence (a sampler tick is never earlier than the one before
    /// it), a listed time from the first sample that does not.
    #[inline]
    fn insert(&mut self, t: u64, v: u64) {
        let n = self.len();
        if let Times::Cadence { first, step } = &mut self.times {
            let on_cadence = match n {
                0 => {
                    *first = t;
                    true
                }
                _ => match t.checked_sub(*first + *step * (n as u64 - 1)) {
                    Some(gap) if n == 1 => {
                        *step = gap;
                        true
                    }
                    gap => gap == Some(*step),
                },
            };
            if on_cadence {
                self.values.insert(n, v);
                return;
            }
            self.list_times();
        }
        if let Times::Listed(times) = &mut self.times {
            let at = match times.last() {
                Some(&last) if last > t => times.partition_point(|&s| s <= t),
                _ => n,
            };
            times.insert(at, t);
            self.values.insert(at, v);
        }
    }

    /// `t` broke the cadence: writes out every time so far, once per
    /// track lifetime.
    #[cold]
    fn list_times(&mut self) {
        let mut times = Vec::with_capacity(self.values.capacity());
        times.extend((0..self.len()).map(|i| self.time_of(i)));
        self.times = Times::Listed(times);
    }
}

/// How a track holds its data (module docs): the samples while they fit
/// the budget, the grid from the fold on.
#[derive(Debug, Clone)]
enum Store {
    Samples(Samples),
    Grid(Grid),
}

/// The non-empty buckets of a track as `(index, aggregate)` in time
/// order, whichever way the track stores them.
enum Slots<'a> {
    /// Runs of consecutive samples sharing `t >> width_log2`, from
    /// sample `next` on.
    Samples {
        samples: &'a Samples,
        next: usize,
        width_log2: u32,
    },
    Grid(std::iter::Enumerate<std::slice::Iter<'a, Bucket>>),
}

impl Iterator for Slots<'_> {
    type Item = (u64, Bucket);

    fn next(&mut self) -> Option<(u64, Bucket)> {
        match self {
            Slots::Samples {
                samples,
                next,
                width_log2,
            } => {
                let w = *width_log2;
                let idx = (*next < samples.len()).then(|| samples.time_of(*next) >> w)?;
                let mut b = Bucket::EMPTY;
                while *next < samples.len() {
                    let t = samples.time_of(*next);
                    if t >> w != idx {
                        break;
                    }
                    b.observe(Time(t), samples.values.get(*next));
                    *next += 1;
                }
                Some((idx, b))
            }
            Slots::Grid(it) => it.find(|(_, b)| b.count > 0).map(|(i, b)| (i as u64, *b)),
        }
    }
}

/// One bounded-memory time-series track. See the module docs.
#[derive(Debug, Clone)]
pub struct Timeline {
    kind: TrackKind,
    /// Value of one raw tick (1.0 for byte/count tracks, 1e-6 for rates
    /// recorded in micro-units via [`Timeline::record_f64`]).
    unit: f64,
    budget: usize,
    store: Store,
    /// Whole-track aggregate — exact, never degraded by merging.
    total: Bucket,
}

impl Timeline {
    /// A new track with the default point budget.
    pub fn new(kind: TrackKind, unit: f64) -> Timeline {
        Timeline::with_budget(kind, unit, DEFAULT_POINT_BUDGET)
    }

    /// A new track with an explicit point budget (≥ 2; smaller budgets
    /// are clamped). Memory is `O(budget)` forever.
    pub fn with_budget(kind: TrackKind, unit: f64, budget: usize) -> Timeline {
        Timeline {
            kind,
            unit,
            budget: budget.max(2),
            store: Store::Samples(Samples {
                times: Times::Cadence { first: 0, step: 0 },
                values: Values::Narrow(Vec::new()),
            }),
            total: Bucket::EMPTY,
        }
    }

    /// Records one raw-tick sample. Hot path: an append while the
    /// samples fit the budget, a grid index plus integer adds after the
    /// fold.
    #[inline]
    pub fn record(&mut self, t: Time, v: u64) {
        match &mut self.store {
            Store::Grid(grid) => grid.record(t, v, self.budget),
            Store::Samples(samples) if samples.len() < self.budget => samples.insert(t.0, v),
            Store::Samples(_) => self.fold(t, v),
        }
        self.total.observe(t, v);
    }

    /// Storing one more sample would pass the budget: replays every
    /// sample and `(t, v)` into the grid the track keeps from now on.
    #[cold]
    fn fold(&mut self, t: Time, v: u64) {
        let mut grid = Grid {
            width_log2: 0,
            // simlint: allow(hot-alloc) once per track lifetime: the grid takes its whole budget at the fold
            buckets: Vec::with_capacity(self.budget),
        };
        if let Store::Samples(samples) = &self.store {
            for i in 0..samples.len() {
                grid.record(Time(samples.time_of(i)), samples.values.get(i), self.budget);
            }
        }
        grid.record(t, v, self.budget);
        self.store = Store::Grid(grid);
    }

    /// Records a float sample in track units: quantized to the nearest
    /// raw tick (`v / unit`). With `unit = 1e-6` this is micro-unit
    /// fixed point — quantization error ≤ `unit / 2`, and the stored
    /// integer keeps the track order-independent and exactly summable.
    #[inline]
    pub fn record_f64(&mut self, t: Time, v: f64) {
        let ticks = (v / self.unit).round();
        debug_assert!(
            ticks >= 0.0 && ticks <= u64::MAX as f64,
            "sample out of tick range"
        );
        self.record(t, ticks as u64);
    }

    /// This track's kind.
    pub fn kind(&self) -> TrackKind {
        self.kind
    }

    /// log2 of the bucket width. Before the fold it is what the grid's
    /// halvings would reach, which depends on the latest sample alone:
    /// the smallest `w` with `t_max >> w < budget`, i.e. the bit length
    /// of `t_max / budget`.
    fn width_log2(&self) -> u32 {
        match &self.store {
            Store::Samples(_) => {
                u64::BITS - (self.total.t_max / self.budget as u64).leading_zeros()
            }
            Store::Grid(grid) => grid.width_log2,
        }
    }

    /// Current bucket width (power of two ps; grows as the run does).
    pub fn bucket_width(&self) -> Duration {
        Duration(1u64 << self.width_log2())
    }

    /// The track's point budget: `capacity_used` never exceeds it.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Slots held — samples before the fold, grid buckets after it (≤
    /// budget — the bounded-memory invariant the long-horizon test
    /// asserts).
    pub fn capacity_used(&self) -> usize {
        match &self.store {
            Store::Samples(samples) => samples.len(),
            Store::Grid(grid) => grid.buckets.len(),
        }
    }

    /// Bytes reserved for sample values (0 after the fold).
    #[cfg(test)]
    fn value_bytes(&self) -> usize {
        match &self.store {
            Store::Samples(Samples { values, .. }) => match values {
                Values::Narrow(values) => values.capacity() * 4,
                Values::Wide(values) => values.capacity() * 8,
            },
            Store::Grid(_) => 0,
        }
    }

    /// The non-empty buckets as raw aggregates; builds nothing.
    fn slots(&self) -> Slots<'_> {
        match &self.store {
            Store::Samples(samples) => Slots::Samples {
                samples,
                next: 0,
                width_log2: self.width_log2(),
            },
            Store::Grid(grid) => Slots::Grid(grid.buckets.iter().enumerate()),
        }
    }

    /// Number of non-empty buckets (plotted points).
    pub fn points(&self) -> usize {
        self.slots().count()
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.total.count
    }

    /// Exact sum of all samples (in track units), unaffected by merging.
    pub fn sum(&self) -> f64 {
        self.total.sum as f64 * self.unit
    }

    /// Smallest recorded sample (0 when empty), in track units.
    pub fn min(&self) -> f64 {
        if self.total.count == 0 {
            0.0
        } else {
            self.total.min as f64 * self.unit
        }
    }

    /// Largest recorded sample (0 when empty), in track units.
    pub fn max(&self) -> f64 {
        self.total.max as f64 * self.unit
    }

    /// Exact mean of all samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total.count == 0 {
            0.0
        } else {
            (self.total.sum as f64 / self.total.count as f64) * self.unit
        }
    }

    /// Latest recorded timestamp ([`Time::ZERO`] when empty).
    pub fn last_time(&self) -> Time {
        Time(self.total.t_max)
    }

    /// The non-empty buckets in time order.
    pub fn buckets(&self) -> impl Iterator<Item = BucketView> + '_ {
        let w = self.bucket_width().0;
        self.slots().map(move |(i, b)| BucketView {
            start: Time(i * w),
            end: Time((i + 1).saturating_mul(w)),
            last: Time(b.t_max),
            count: b.count,
            sum: b.sum as f64 * self.unit,
            min: b.min as f64 * self.unit,
            max: b.max as f64 * self.unit,
        })
    }

    /// A bucket's representative value per the track kind (module docs).
    pub fn representative(&self, b: &BucketView) -> f64 {
        match self.kind {
            TrackKind::Counter => b.sum,
            TrackKind::Gauge => b.mean(),
            TrackKind::Cumulative => b.max,
        }
    }

    /// The track as a plain [`TimeSeries`]: one point per non-empty
    /// bucket, stamped at the bucket's latest sample time, valued at its
    /// representative. The bridge to plain series consumers (figure
    /// tables, fig. 7's dashboard); exact while buckets hold single
    /// samples.
    pub fn series(&self) -> TimeSeries {
        let mut out = TimeSeries::default();
        for b in self.buckets() {
            out.push(b.last, self.representative(&b));
        }
        out
    }

    /// Representative value at time `t`: the latest non-empty bucket
    /// starting at or before `t` (`None` before the first sample).
    ///
    /// For a [`TrackKind::Cumulative`] track this is the running total
    /// as of `t`, at bucket resolution — while the bucket width is
    /// finer than the sampling interval every bucket holds at most one
    /// sample and the value is *exact*, which is what keeps
    /// `Network::goodput_gbps` byte-identical to the pre-timeline
    /// implementation at the sampling rates the experiments use.
    pub fn value_at(&self, t: Time) -> Option<f64> {
        self.buckets()
            .take_while(|b| b.start <= t)
            .last()
            .map(|b| self.representative(&b))
    }

    /// Count-weighted nearest-rank percentile of the per-bucket means,
    /// over buckets starting at or after `from` (`p` in `[0, 100]`; 0.0
    /// when no samples qualify). The timeline replacement for running
    /// [`crate::stats::percentile`] over raw sample vectors: each bucket
    /// contributes its mean with multiplicity `count`, so the estimate
    /// degrades gracefully (toward the true mean) as buckets merge and
    /// is exact while buckets hold single samples.
    pub fn weighted_percentile(&self, p: f64, from: Time) -> f64 {
        let mut pairs: Vec<(f64, u64)> = self
            .buckets()
            .filter(|b| b.start >= from)
            .map(|b| (b.mean(), b.count))
            .collect();
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total: u64 = pairs.iter().map(|&(_, c)| c).sum();
        if total == 0 {
            return 0.0;
        }
        let rank = nearest_rank(total, p);
        let mut cum = 0u64;
        for &(v, c) in &pairs {
            cum += c;
            if cum >= rank {
                return v;
            }
        }
        pairs.last().map_or(0.0, |&(v, _)| v)
    }

    /// Count-weighted mean over buckets starting at or after `from`
    /// (0.0 when no samples qualify). Exactly the mean of the qualifying
    /// samples — bucket sums and counts are never approximated.
    pub fn mean_from(&self, from: Time) -> f64 {
        let w = self.bucket_width().0;
        let (mut sum, mut count) = (0u128, 0u64);
        for (i, b) in self.slots() {
            if Time(i * w) >= from {
                sum += b.sum;
                count += b.count;
            }
        }
        if count == 0 {
            0.0
        } else {
            (sum as f64 / count as f64) * self.unit
        }
    }

    /// Deterministic JSON summary (the `timelines` section of
    /// `Network::telemetry_report`; schema in DESIGN.md).
    pub fn summary_json(&self) -> Json {
        Json::obj(vec![
            ("bucket_width_ps", Json::UInt(self.bucket_width().0)),
            ("count", Json::UInt(self.count())),
            ("kind", Json::from(self.kind.name())),
            ("last_ps", Json::UInt(self.total.t_max)),
            ("max", Json::Float(self.max())),
            ("mean", Json::Float(self.mean())),
            ("min", Json::Float(self.min())),
            ("points", Json::UInt(self.points() as u64)),
            ("sum", Json::Float(self.sum())),
        ])
    }
}

/// A named collection of [`Timeline`] tracks behind `Copy` handles.
///
/// Registration ([`TimelineSet::track`]) is the cold path: it walks the
/// name list and may allocate. Recording through a [`TrackId`] is one
/// array index. Iteration is in registration order, which the simulator
/// keeps deterministic.
#[derive(Debug, Clone, Default)]
pub struct TimelineSet {
    names: Vec<String>,
    tracks: Vec<Timeline>,
}

impl TimelineSet {
    /// An empty set.
    pub fn new() -> TimelineSet {
        TimelineSet::default()
    }

    /// Registers (or re-finds) a track by name. Cold path. A re-find
    /// keeps the existing track untouched; `kind`/`unit`/`budget` only
    /// apply to a fresh registration.
    pub fn track(&mut self, name: &str, kind: TrackKind, unit: f64, budget: usize) -> TrackId {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return TrackId(i as u32);
        }
        self.names.push(name.to_string());
        self.tracks.push(Timeline::with_budget(kind, unit, budget));
        TrackId((self.tracks.len() - 1) as u32)
    }

    /// Records a raw-tick sample into a track. Hot path.
    #[inline]
    pub fn record(&mut self, id: TrackId, t: Time, v: u64) {
        self.tracks[id.0 as usize].record(t, v);
    }

    /// Records a float sample (track units) into a track. Hot path.
    #[inline]
    pub fn record_f64(&mut self, id: TrackId, t: Time, v: f64) {
        self.tracks[id.0 as usize].record_f64(t, v);
    }

    /// The track behind a handle.
    pub fn get(&self, id: TrackId) -> &Timeline {
        &self.tracks[id.0 as usize]
    }

    /// The registered name behind a handle.
    pub fn name(&self, id: TrackId) -> &str {
        &self.names[id.0 as usize]
    }

    /// Cold name-based lookup for report code and tests.
    pub fn by_name(&self, name: &str) -> Option<&Timeline> {
        let i = self.names.iter().position(|n| n == name)?;
        Some(&self.tracks[i])
    }

    /// All tracks as `(name, track)` in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Timeline)> + '_ {
        self.names
            .iter()
            .map(String::as_str)
            .zip(self.tracks.iter())
    }

    /// Number of registered tracks.
    pub fn len(&self) -> usize {
        self.tracks.len()
    }

    /// True when no track is registered.
    pub fn is_empty(&self) -> bool {
        self.tracks.is_empty()
    }

    /// Deterministic JSON summary of every track, keyed by name.
    pub fn summary_json(&self) -> Json {
        let mut obj = Json::obj(vec![]);
        for (name, tl) in self.iter() {
            obj.push(name, tl.summary_json());
        }
        obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bucket_per_sample_while_width_is_fine() {
        let mut tl = Timeline::new(TrackKind::Gauge, 1.0);
        for i in 0..10u64 {
            tl.record(Time(i * 400), i);
        }
        assert_eq!(tl.count(), 10);
        assert_eq!(tl.points(), 10, "1 ps buckets keep samples distinct");
        assert_eq!(tl.bucket_width(), Duration(1));
        assert_eq!(tl.sum(), 45.0);
        assert_eq!(tl.min(), 0.0);
        assert_eq!(tl.max(), 9.0);
    }

    /// A 100 µs sampler's 2 000 values below 2^32 take 4 B each (plus
    /// `Vec` slack); the first value that needs 64 bits widens the column
    /// to 8 B a value, once, keeping its capacity.
    #[test]
    fn a_value_takes_four_bytes_until_one_needs_eight() {
        let mut tl = Timeline::new(TrackKind::Gauge, 1.0);
        let top = u64::from(u32::MAX);
        for i in 0..2_000u64 {
            tl.record(Time::from_micros(100 * i), top - i % 3);
        }
        assert!(tl.value_bytes() <= 2_048 * 4, "{} B", tl.value_bytes());
        tl.record(Time::from_micros(200_000), top + 1);
        assert_eq!(tl.value_bytes(), 2_048 * 8);
        assert_eq!(tl.max(), 2f64.powi(32));
        assert_eq!(tl.min(), f64::from(u32::MAX - 2), "narrow values kept");

        let mut wide = Timeline::new(TrackKind::Gauge, 1.0);
        wide.record(Time(0), u64::MAX);
        assert_eq!(wide.value_bytes(), 4 * 8, "widens at the first value");
    }

    #[test]
    fn halving_conserves_totals_and_bounds_memory() {
        let mut tl = Timeline::with_budget(TrackKind::Counter, 1.0, 8);
        for i in 0..1000u64 {
            tl.record(Time(i * 7), 3);
        }
        assert!(tl.capacity_used() <= 8);
        assert_eq!(tl.sum(), 3000.0, "merges never lose counted events");
        assert_eq!(tl.count(), 1000);
        let bucket_sum: f64 = tl.buckets().map(|b| b.sum).sum();
        assert_eq!(bucket_sum, 3000.0);
        assert!(tl.bucket_width().0.is_power_of_two());
    }

    #[test]
    fn representative_follows_kind() {
        let mut c = Timeline::with_budget(TrackKind::Counter, 1.0, 2);
        let mut g = Timeline::with_budget(TrackKind::Gauge, 1.0, 2);
        let mut m = Timeline::with_budget(TrackKind::Cumulative, 1.0, 2);
        for (t, v) in [(0u64, 10u64), (1, 20), (2, 60)] {
            c.record(Time(t), v);
            g.record(Time(t), v);
            m.record(Time(t), v);
        }
        // Everything merged into few buckets; totals stay exact.
        let csum: f64 = c.buckets().map(|b| c.representative(&b)).sum();
        assert_eq!(csum, 90.0, "counter representatives telescope to the sum");
        for b in g.buckets() {
            assert!(b.min <= g.representative(&b) && g.representative(&b) <= b.max);
        }
        let last = m.buckets().last().unwrap();
        assert_eq!(m.representative(&last), 60.0, "cumulative keeps the peak");
    }

    #[test]
    fn value_at_is_a_step_function() {
        let mut tl = Timeline::new(TrackKind::Cumulative, 1.0);
        tl.record(Time(1000), 5);
        tl.record(Time(3000), 9);
        assert_eq!(tl.value_at(Time(500)), None, "before the first sample");
        assert_eq!(tl.value_at(Time(1000)), Some(5.0));
        assert_eq!(tl.value_at(Time(2999)), Some(5.0));
        assert_eq!(tl.value_at(Time(3000)), Some(9.0));
        assert_eq!(tl.value_at(Time(u64::MAX)), Some(9.0), "past the end");
        assert_eq!(Timeline::new(TrackKind::Gauge, 1.0).value_at(Time(0)), None);
    }

    #[test]
    fn fixed_point_units_round_trip() {
        let mut tl = Timeline::new(TrackKind::Gauge, 1e-6);
        tl.record_f64(Time(10), 40.0);
        tl.record_f64(Time(20), 19.999_999_5);
        assert!((tl.max() - 40.0).abs() < 1e-9);
        assert!((tl.min() - 20.0).abs() < 1e-6, "quantized to the tick");
    }

    #[test]
    fn weighted_percentile_and_mean_from() {
        let mut tl = Timeline::new(TrackKind::Gauge, 1.0);
        for i in 1..=100u64 {
            tl.record(Time(i * 10), i);
        }
        assert_eq!(tl.weighted_percentile(50.0, Time::ZERO), 50.0);
        assert_eq!(tl.weighted_percentile(90.0, Time::ZERO), 90.0);
        // From half way: samples 51..=100 remain.
        assert_eq!(tl.weighted_percentile(0.0, Time(510)), 51.0);
        assert_eq!(tl.mean_from(Time(510)), 75.5);
        assert_eq!(tl.mean_from(Time(u64::MAX)), 0.0);
        assert_eq!(tl.weighted_percentile(50.0, Time(u64::MAX)), 0.0);
    }

    #[test]
    fn series_bridges_to_rates() {
        let mut tl = Timeline::new(TrackKind::Cumulative, 1.0);
        // 500 KB every 100 µs = 40 Gbps.
        for i in 0..5u64 {
            tl.record(Time::from_micros(i * 100), i * 500_000);
        }
        let s = tl.series();
        let points = s.times.iter().copied().zip(s.values.iter().copied());
        let r: Vec<f64> = crate::stats::rate_gbps(points).map(|(_, v)| v).collect();
        assert_eq!(r.len(), 4);
        for v in &r {
            assert!((v - 40.0).abs() < 1e-9);
        }
    }

    #[test]
    fn set_registration_dedupes_and_iterates_in_order() {
        let mut set = TimelineSet::new();
        let a = set.track("a", TrackKind::Gauge, 1.0, 16);
        let b = set.track("b", TrackKind::Counter, 1.0, 16);
        let a2 = set.track("a", TrackKind::Counter, 1.0, 999);
        assert_eq!(a, a2, "re-registration re-finds");
        assert_eq!(set.get(a2).kind(), TrackKind::Gauge, "original untouched");
        set.record(a, Time(5), 7);
        set.record(b, Time(5), 1);
        let names: Vec<&str> = set.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!(set.by_name("a").unwrap().sum(), 7.0);
        assert!(set.by_name("zz").is_none());
        assert_eq!(set.len(), 2);
        let rendered = set.summary_json().render();
        assert!(rendered.contains("\"bucket_width_ps\""));
        assert!(rendered.contains("\"kind\": \"gauge\""));
    }

    #[test]
    fn empty_timeline_reports_zeros() {
        let tl = Timeline::new(TrackKind::Counter, 1.0);
        assert_eq!(tl.count(), 0);
        assert_eq!(tl.sum(), 0.0);
        assert_eq!(tl.min(), 0.0);
        assert_eq!(tl.max(), 0.0);
        assert_eq!(tl.mean(), 0.0);
        assert_eq!(tl.points(), 0);
        assert_eq!(tl.capacity_used(), 0);
        assert!(tl.series().values.is_empty());
    }
}
