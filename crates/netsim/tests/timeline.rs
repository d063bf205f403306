//! Timeline engine properties the PR contract pins: bounded memory over
//! arbitrary horizons, exact sum conservation through merges, record
//! order never changing the stored state, sampling integrated with
//! [`netsim::network::Network`], and the dashboard's golden bytes.

use dcqcn::prelude::{dcqcn, dcqcn_host_config, red_deployed, DcqcnParams};
use dcqcn::thresholds::static_pfc_bound;
use netsim::buffer::PfcThreshold;
use netsim::cc::NoCc;
use netsim::event::PortId;
use netsim::faults::{FaultConfig, FaultPlan};
use netsim::host::HostConfig;
use netsim::packet::{FlowId, DATA_PRIORITY};
use netsim::stats::{FlowStats, SamplerConfig, SwitchStats};
use netsim::switch::{PfcWatchdogConfig, SwitchConfig};
use netsim::telemetry::timeline::{BucketView, Timeline, TrackKind};
use netsim::telemetry::Json;
use netsim::topology::{clos_testbed, star, ClosTestbed, LinkParams, Star};
use netsim::units::{Duration, Time};
use proptest::prelude::*;

/// A full second of picosecond-resolution sampling lands in ≤ 4096
/// buckets: memory is `O(budget)` regardless of horizon, and the exact
/// aggregates survive every halving on the way there.
#[test]
fn long_horizon_memory_stays_bounded() {
    let mut tl = Timeline::new(TrackKind::Gauge, 1.0);
    let n: u64 = 200_000;
    // 5 µs cadence out to t = 1 s (1e12 ps) — far past the initial
    // 4096-slot grid, so the width doubles many times mid-run.
    for i in 0..n {
        tl.record(Time(i * 5_000_000), i % 1_000);
    }
    assert!(
        tl.capacity_used() <= tl.budget(),
        "{} buckets exceed the {} budget",
        tl.capacity_used(),
        tl.budget()
    );
    assert_eq!(tl.count(), n);
    let expected: u64 = (0..n).map(|i| i % 1_000).sum();
    assert_eq!(tl.sum(), expected as f64, "halvings never lose samples");
    let bucket_total: f64 = tl.buckets().map(|b| b.sum).sum();
    assert_eq!(bucket_total, expected as f64, "per-bucket sums telescope");
    assert!(tl.bucket_width().0.is_power_of_two());
    assert_eq!(tl.last_time(), Time((n - 1) * 5_000_000));
}

/// Every bucket aggregate a [`Timeline`] stores, bit for bit.
fn dump(tl: &Timeline) -> Vec<(u64, u64, u64, u64, u64, u64)> {
    tl.buckets()
        .map(|b| {
            (
                b.start.0,
                b.count,
                b.sum.to_bits(),
                b.min.to_bits(),
                b.max.to_bits(),
                b.last.0,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The stored state is a pure function of the sample *multiset*:
    /// recording in reverse produces bit-identical buckets and summary,
    /// and no merge sequence loses any of the sum.
    #[test]
    fn record_order_never_changes_state_and_sums_conserve(
        samples in prop::collection::vec((0u64..2_000_000_000, 0u64..1_000_000), 1..200),
        budget in 2usize..64,
    ) {
        let mut fwd = Timeline::with_budget(TrackKind::Gauge, 1.0, budget);
        for &(t, v) in &samples {
            fwd.record(Time(t), v);
        }
        let mut rev = Timeline::with_budget(TrackKind::Gauge, 1.0, budget);
        for &(t, v) in samples.iter().rev() {
            rev.record(Time(t), v);
        }
        prop_assert_eq!(dump(&fwd), dump(&rev));
        prop_assert_eq!(
            fwd.summary_json().render(),
            rev.summary_json().render()
        );
        // Σ before == Σ after all merges, exactly (integer arithmetic).
        let expected: u128 = samples.iter().map(|&(_, v)| v as u128).sum();
        prop_assert_eq!(fwd.sum(), expected as f64);
        let bucket_total: f64 = fwd.buckets().map(|b| b.sum).sum();
        prop_assert_eq!(bucket_total, expected as f64);
        prop_assert!(fwd.capacity_used() <= budget.max(2));
    }
}

/// One bucket's raw aggregates: `(count, sum, min, max, t_max)`.
type Agg = (u64, u128, u64, u64, u64);

const EMPTY: Agg = (0, 0, u64::MAX, 0, 0);

fn observe(b: &mut Agg, t: u64, v: u64) {
    *b = (b.0 + 1, b.1 + v as u128, b.2.min(v), b.3.max(v), b.4.max(t));
}

/// An obviously-correct model of a track. Each model says only which
/// buckets it holds; every read a [`Timeline`] offers is derived here
/// once, from those raw aggregates.
trait Reference {
    fn kind(&self) -> TrackKind;
    fn budget(&self) -> usize;
    fn width_log2(&self) -> u32;
    /// The non-empty buckets as `(index, aggregates)`, in time order.
    fn slots(&self) -> Vec<(u64, Agg)>;
    fn total(&self) -> Agg;

    fn buckets(&self) -> Vec<BucketView> {
        let w = 1u64 << self.width_log2();
        let slots = self.slots().into_iter();
        slots
            .map(|(i, (count, sum, min, max, t_max))| BucketView {
                start: Time(i * w),
                end: Time((i + 1).saturating_mul(w)),
                last: Time(t_max),
                count,
                sum: sum as f64,
                min: min as f64,
                max: max as f64,
            })
            .collect()
    }

    fn representative(&self, b: &BucketView) -> f64 {
        match self.kind() {
            TrackKind::Counter => b.sum,
            TrackKind::Gauge => b.mean(),
            TrackKind::Cumulative => b.max,
        }
    }

    fn value_at(&self, t: Time) -> Option<f64> {
        let last = self.buckets().into_iter().rfind(|b| b.start <= t);
        last.map(|b| self.representative(&b))
    }

    fn mean_from(&self, from: Time) -> f64 {
        let w = 1u64 << self.width_log2();
        let (mut sum, mut count) = (0u128, 0u64);
        for (i, b) in self.slots() {
            if Time(i * w) >= from {
                sum += b.1;
                count += b.0;
            }
        }
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        }
    }

    fn weighted_percentile(&self, p: f64, from: Time) -> f64 {
        let mut pairs: Vec<(f64, u64)> = self
            .buckets()
            .into_iter()
            .filter(|b| b.start >= from)
            .map(|b| (b.mean(), b.count))
            .collect();
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total: u64 = pairs.iter().map(|&(_, c)| c).sum();
        if total == 0 {
            return 0.0;
        }
        let rank = ((p.clamp(0.0, 100.0) / 100.0 * total as f64).ceil() as u64).max(1);
        let mut cum = 0;
        for &(v, c) in &pairs {
            cum += c;
            if cum >= rank {
                return v;
            }
        }
        pairs.last().map_or(0.0, |&(v, _)| v)
    }

    fn summary(&self) -> String {
        let (count, sum, min, max, t_max) = self.total();
        let mean = if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        };
        Json::obj(vec![
            ("bucket_width_ps", Json::UInt(1u64 << self.width_log2())),
            ("count", Json::UInt(count)),
            ("kind", Json::from(self.kind().name())),
            ("last_ps", Json::UInt(t_max)),
            ("max", Json::Float(max as f64)),
            ("mean", Json::Float(mean)),
            (
                "min",
                Json::Float(if count == 0 { 0.0 } else { min as f64 }),
            ),
            ("points", Json::UInt(self.slots().len() as u64)),
            ("sum", Json::Float(sum as f64)),
        ])
        .render()
    }
}

/// The dense grid every track used to be, kept as the obviously-correct
/// reference for the samples state: each sample lands in bucket
/// `t >> width_log2` of a grid that halves whenever a sample would land
/// past the budget, and every read walks the grid.
struct Dense {
    kind: TrackKind,
    budget: usize,
    width_log2: u32,
    buckets: Vec<Agg>,
    total: Agg,
}

impl Dense {
    fn new(kind: TrackKind, budget: usize) -> Dense {
        Dense {
            kind,
            budget: budget.max(2),
            width_log2: 0,
            buckets: Vec::new(),
            total: EMPTY,
        }
    }

    fn record(&mut self, t: u64, v: u64) {
        while (t >> self.width_log2) as usize >= self.budget {
            let merged = self.buckets.chunks(2).map(|pair| {
                let mut m = pair[0];
                if let Some(&(c, s, lo, hi, tm)) = pair.get(1) {
                    m = (m.0 + c, m.1 + s, m.2.min(lo), m.3.max(hi), m.4.max(tm));
                }
                m
            });
            self.buckets = merged.collect();
            self.width_log2 += 1;
        }
        let idx = (t >> self.width_log2) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, EMPTY);
        }
        observe(&mut self.buckets[idx], t, v);
        observe(&mut self.total, t, v);
    }
}

impl Reference for Dense {
    fn kind(&self) -> TrackKind {
        self.kind
    }
    fn budget(&self) -> usize {
        self.budget
    }
    fn width_log2(&self) -> u32 {
        self.width_log2
    }
    fn slots(&self) -> Vec<(u64, Agg)> {
        let filled = self.buckets.iter().enumerate().filter(|(_, b)| b.0 > 0);
        filled.map(|(i, &b)| (i as u64, b)).collect()
    }
    fn total(&self) -> Agg {
        self.total
    }
}

/// Every sample as a `(t, v)` pair kept sorted by time: the reference
/// for a track's time column, whichever way the track stores it. The
/// bucket width is the smallest power of two that puts the latest
/// sample in a bucket below the budget.
struct Pairs {
    kind: TrackKind,
    budget: usize,
    pairs: Vec<(u64, u64)>,
}

impl Pairs {
    fn new(kind: TrackKind, budget: usize) -> Pairs {
        let budget = budget.max(2);
        Pairs {
            kind,
            budget,
            pairs: Vec::new(),
        }
    }

    fn record(&mut self, t: u64, v: u64) {
        let at = self.pairs.partition_point(|&(s, _)| s <= t);
        self.pairs.insert(at, (t, v));
    }
}

impl Reference for Pairs {
    fn kind(&self) -> TrackKind {
        self.kind
    }
    fn budget(&self) -> usize {
        self.budget
    }
    fn width_log2(&self) -> u32 {
        let t_max = self.total().4;
        (0..64)
            .find(|&w| (t_max >> w) < self.budget as u64)
            .unwrap_or(64)
    }
    fn slots(&self) -> Vec<(u64, Agg)> {
        let w = self.width_log2();
        let mut slots: Vec<(u64, Agg)> = Vec::new();
        for &(t, v) in &self.pairs {
            match slots.last_mut() {
                Some((i, b)) if *i == t >> w => observe(b, t, v),
                _ => {
                    let mut b = EMPTY;
                    observe(&mut b, t, v);
                    slots.push((t >> w, b));
                }
            }
        }
        slots
    }
    fn total(&self) -> Agg {
        let mut total = EMPTY;
        for &(t, v) in &self.pairs {
            observe(&mut total, t, v);
        }
        total
    }
}

/// A [`BucketView`], bit for bit.
fn bits(b: &BucketView) -> (u64, u64, u64, u64, u64, u64, u64) {
    let f = |v: f64| v.to_bits();
    let (start, end, last) = (b.start.0, b.end.0, b.last.0);
    (start, end, last, b.count, f(b.sum), f(b.min), f(b.max))
}

/// Every read of `tl` equals the reference's, bit for bit, at `probes`.
fn same_reads(tl: &Timeline, reference: &impl Reference, probes: &[Time]) {
    let ours: Vec<_> = tl.buckets().map(|b| bits(&b)).collect();
    let theirs: Vec<_> = reference.buckets().iter().map(bits).collect();
    prop_assert_eq!(ours, theirs);
    prop_assert_eq!(tl.points(), reference.buckets().len());
    prop_assert_eq!(tl.bucket_width().0, 1u64 << reference.width_log2());
    prop_assert_eq!(tl.summary_json().render(), reference.summary());
    let series = tl.series();
    let want = reference.buckets();
    prop_assert_eq!(
        series.times,
        want.iter().map(|b| b.last).collect::<Vec<_>>()
    );
    let values: Vec<u64> = series.values.iter().map(|v| v.to_bits()).collect();
    let want: Vec<u64> = want
        .iter()
        .map(|b| reference.representative(b).to_bits())
        .collect();
    prop_assert_eq!(values, want);
    for (i, &t) in probes.iter().enumerate() {
        let p = (i * 37 % 101) as f64;
        prop_assert_eq!(
            tl.value_at(t).map(f64::to_bits),
            reference.value_at(t).map(f64::to_bits)
        );
        prop_assert_eq!(tl.mean_from(t).to_bits(), reference.mean_from(t).to_bits());
        prop_assert_eq!(
            tl.weighted_percentile(p, t).to_bits(),
            reference.weighted_percentile(p, t).to_bits()
        );
    }
    prop_assert!(tl.capacity_used() <= reference.budget());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Samples below, at and past the fold read exactly like the dense
    /// grid they stand for: duplicate timestamps, `t = 0`, times near
    /// `u64::MAX`, values up to `u64::MAX`, recorded in shuffled order.
    #[test]
    fn samples_read_like_the_dense_grid(
        draws in prop::collection::vec(
            (0u8..8, 0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX),
            1..200,
        ),
        budget in 2usize..64,
        kind in 0u8..3,
        probes in prop::collection::vec((0u8..4, 0u64..=u64::MAX), 6),
    ) {
        let kind = [TrackKind::Counter, TrackKind::Gauge, TrackKind::Cumulative][kind as usize];
        let mut samples: Vec<(u64, u64, u64)> = Vec::new();
        for &(shape, raw, v, rank) in &draws {
            let t = match shape {
                0 => 0,
                1 => u64::MAX - raw % 1_000,
                2 => samples.get(raw as usize % samples.len().max(1)).map_or(0, |s| s.0),
                3 => raw % 5_000,
                _ => raw % 2_000_000_000,
            };
            let v = if v >> 63 == 1 { v } else { v % 1_000_000 };
            samples.push((t, v, rank));
        }
        let probes: Vec<Time> = probes
            .iter()
            .map(|&(shape, raw)| {
                let near = samples[raw as usize % samples.len()].0;
                Time(match shape {
                    0 => raw,
                    1 => near,
                    2 => near.saturating_add(1),
                    _ => near.saturating_sub(1),
                })
            })
            .collect();
        let mut shuffled = samples.clone();
        shuffled.sort_by_key(|s| s.2);
        let mut tl = Timeline::with_budget(kind, 1.0, budget);
        let mut reference = Dense::new(kind, budget);
        for (&(t, v, _), &(rt, rv, _)) in shuffled.iter().zip(&samples) {
            tl.record(Time(t), v);
            reference.record(rt, rv);
        }
        same_reads(&tl, &reference, &probes);
        // And on the way there, with both fed the same order.
        let mut tl = Timeline::with_budget(kind, 1.0, budget);
        let mut reference = Dense::new(kind, budget);
        for &(t, v, _) in &shuffled {
            tl.record(Time(t), v);
            reference.record(t, v);
            same_reads(&tl, &reference, &probes);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A track's time column reads exactly like sorted `(t, v)` pairs,
    /// whether its times are computed from a cadence or listed: samples
    /// on one cadence, after a missed tick, a little early or late, out
    /// of order, at a repeated time, on a new cadence mid-run, and past
    /// the fold. `mode` 0 keeps every sample on the first cadence.
    #[test]
    fn time_column_reads_like_sorted_pairs(
        start in 0u64..3_000_000,
        step in 0u64..50_000,
        mode in 0u8..3,
        draws in prop::collection::vec((0u8..16, 0u64..=u64::MAX), 1..300),
        budget in 2usize..400,
        kind in 0u8..3,
        probes in prop::collection::vec((0u8..4, 0u64..=u64::MAX), 6),
    ) {
        let kind = [TrackKind::Counter, TrackKind::Gauge, TrackKind::Cumulative][kind as usize];
        let (mut step, mut latest) = (step, None::<u64>);
        let mut samples = Vec::new();
        for &(shape, raw) in &draws {
            let next = latest.map_or(start, |l| l + step);
            let t = match if mode == 0 { 0 } else { shape } {
                10 => next + step,
                11 => next + 1 + raw % 3,
                12 => next.saturating_sub(1),
                13 => raw % (next + 1),
                14 => {
                    step = raw % 50_000;
                    latest.map_or(start, |l| l + step)
                }
                15 => latest.unwrap_or(start),
                _ => next,
            };
            latest = latest.max(Some(t));
            samples.push((t, raw % 1_000_000));
        }
        let probes: Vec<Time> = probes
            .iter()
            .map(|&(shape, raw)| {
                let near = samples[raw as usize % samples.len()].0;
                Time(match shape {
                    0 => raw % (near + 1_000_000),
                    1 => near,
                    2 => near + 1,
                    _ => near.saturating_sub(1),
                })
            })
            .collect();
        let mut tl = Timeline::with_budget(kind, 1.0, budget);
        let mut reference = Pairs::new(kind, budget);
        for &(t, v) in &samples {
            tl.record(Time(t), v);
            reference.record(t, v);
            same_reads(&tl, &reference, &probes);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A track stores values in 4 B while they fit a `u32` and widens to
    /// 8 B at the first that does not; either way it reads exactly like
    /// `(t, v)` pairs that keep every value in 64 bits. Values near 0,
    /// near `u32::MAX` and past it; the first past it at sample
    /// `widen_at` (0: the first sample; past the end: never); samples
    /// on-cadence, off it, after a missed tick and out of order; and
    /// past the fold. `same_reads` compares the summary, every bucket
    /// view, `value_at` and the series, which are what the dashboard
    /// draws.
    #[test]
    fn narrow_and_wide_values_read_like_u64_pairs(
        start in 0u64..3_000_000,
        step in 1u64..50_000,
        draws in prop::collection::vec((0u8..8, 0u8..8, 0u64..=u64::MAX), 1..300),
        widen_at in 0usize..320,
        budget in 2usize..400,
        kind in 0u8..3,
        probes in prop::collection::vec((0u8..4, 0u64..=u64::MAX), 6),
    ) {
        let kind = [TrackKind::Counter, TrackKind::Gauge, TrackKind::Cumulative][kind as usize];
        let top = u64::from(u32::MAX);
        let mut latest = None::<u64>;
        let mut samples = Vec::new();
        for (i, &(time, value, raw)) in draws.iter().enumerate() {
            let next = latest.map_or(start, |l| l + step);
            let t = match time {
                5 => next + 1 + raw % 3,
                6 => raw % (next + 1),
                7 => next + step,
                _ => next,
            };
            latest = latest.max(Some(t));
            let v = match (value, i.cmp(&widen_at)) {
                (_, std::cmp::Ordering::Equal) => top + 1 + raw % 4,
                (0..=2, _) => raw % 4,
                (3 | 4, _) => top - raw % 4,
                (5, std::cmp::Ordering::Greater) => top + 1 + raw % 4,
                (6, std::cmp::Ordering::Greater) => u64::MAX - raw % 4,
                _ => raw % (top + 1),
            };
            samples.push((t, v));
        }
        let probes: Vec<Time> = probes
            .iter()
            .map(|&(shape, raw)| {
                let near = samples[raw as usize % samples.len()].0;
                Time(match shape {
                    0 => raw % (near + 1_000_000),
                    1 => near,
                    2 => near + 1,
                    _ => near.saturating_sub(1),
                })
            })
            .collect();
        let mut tl = Timeline::with_budget(kind, 1.0, budget);
        let mut reference = Pairs::new(kind, budget);
        for &(t, v) in &samples {
            tl.record(Time(t), v);
            reference.record(t, v);
            same_reads(&tl, &reference, &probes);
        }
    }
}

/// `enable_sampling` a second time with a new interval moves every
/// track off its first cadence mid-run: each still reads like sorted
/// `(t, v)` pairs, at the ticks the two intervals give.
#[test]
fn a_new_sampling_interval_reads_like_sorted_pairs() {
    let mut s = star(
        3,
        LinkParams::default(),
        HostConfig {
            cnp_interval: None,
            ..HostConfig::default()
        },
        SwitchConfig::paper_default(),
        11,
    );
    for i in 0..2 {
        let f = s.net.add_flow(s.hosts[i], s.hosts[2], DATA_PRIORITY, |l| {
            Box::new(NoCc::new(l))
        });
        s.net.send_message(f, u64::MAX, Time::ZERO);
    }
    let config = SamplerConfig {
        all_flows: true,
        queues: vec![(s.switch, PortId(2))],
        counters: vec!["forwarded", "pause_tx"],
        ..SamplerConfig::default()
    };
    s.net
        .enable_sampling(Duration::from_micros(20), config.clone());
    s.net.run_until(Time::from_millis(1));
    s.net.enable_sampling(Duration::from_micros(30), config);
    s.net.run_until(Time::from_millis(2));

    let timelines = s.net.sampler().timelines();
    assert_eq!(timelines.len(), 5, "one queue, two flows, two counters");
    let mut ticks = None;
    for (name, tl) in timelines.iter() {
        // Well under one sample per bucket: each bucket is one sample.
        assert!(tl.bucket_width() < Duration::from_micros(10), "{name}");
        let samples: Vec<(u64, u64)> = tl.buckets().map(|b| (b.last.0, b.sum as u64)).collect();
        assert_eq!(samples.len() as u64, tl.count(), "{name}");
        let mut reference = Pairs::new(tl.kind(), tl.budget());
        for &(t, v) in &samples {
            reference.record(t, v);
        }
        let probes: Vec<Time> = samples.iter().map(|&(t, _)| Time(t + 1)).collect();
        same_reads(tl, &reference, &probes);
        let times: Vec<u64> = samples.iter().map(|&(t, _)| t).collect();
        assert_eq!(*ticks.get_or_insert_with(|| times.clone()), times, "{name}");
    }
    // 20 µs ticks through 1 ms, then 30 µs ticks.
    let ticks = ticks.expect("tracks");
    let us = Time::from_micros(1).0;
    let gaps: Vec<u64> = ticks.windows(2).map(|w| (w[1] - w[0]) / us).collect();
    let first = gaps.iter().take_while(|&&g| g == 20).count();
    assert_eq!(ticks[0], 20 * us);
    assert!((49..=50).contains(&first), "{first} 20 µs gaps");
    assert!(gaps[first..].iter().all(|&g| g == 30), "{gaps:?}");
    assert!(gaps.len() - first >= 32, "{gaps:?}");
}

/// A deterministic 2:1 incast fixture with queues, rates, bytes and
/// counter tracks all sampled.
fn fixture() -> (Star, PortId) {
    let mut s = star(
        3,
        LinkParams::default(),
        HostConfig {
            cnp_interval: None,
            ..HostConfig::default()
        },
        SwitchConfig::paper_default(),
        11,
    );
    for i in 0..2 {
        let f = s.net.add_flow(s.hosts[i], s.hosts[2], DATA_PRIORITY, |l| {
            Box::new(NoCc::new(l))
        });
        s.net.send_message(f, u64::MAX, Time::ZERO);
    }
    let port = PortId(2);
    s.net.enable_spans(1024);
    s.net.enable_sampling(
        Duration::from_micros(20),
        SamplerConfig {
            all_flows: true,
            queues: vec![(s.switch, port)],
            counters: vec!["forwarded", "pause_tx"],
            ..SamplerConfig::default()
        },
    );
    s.net.run_until(Time::from_millis(2));
    (s, port)
}

/// The 18 standard counters a switch, flow or the fault engine owns.
const OWNED: [&str; 18] = [
    "ecn_marks",
    "pause_tx",
    "pause_rx",
    "resume_tx",
    "drops_pool",
    "drops_lossy",
    "fault_drops",
    "forwarded",
    "retx_pkts",
    "timeouts",
    "nacks_sent",
    "cnps_sent",
    "watchdog_trips",
    "watchdog_restores",
    "qp_teardowns",
    "completions",
    "link_transitions",
    "storm_pauses",
];

/// A faulted DCQCN run on the Figure 2 Clos with every owned counter
/// sampled: a fabric link (T1–L1) is down for 3 ms without failover, so
/// QPs hashed across it exhaust their small retry budget; a spine link
/// corrupts frames; a receiver pause-storms its access link under the
/// watchdog. Every message is finite and the run ends idle.
fn faulted_clos() -> (ClosTestbed, Vec<FlowId>) {
    let params = DcqcnParams::paper();
    let host_cfg = HostConfig {
        rto: Duration::from_micros(300),
        max_retries: 2,
        ..dcqcn_host_config(params)
    };
    let mut switch_cfg = SwitchConfig::paper_default()
        .with_red(red_deployed())
        .with_watchdog(PfcWatchdogConfig::default());
    // §4's static bound: the incast's line-rate start pauses before
    // DCQCN has cut the senders.
    switch_cfg.buffer.threshold = PfcThreshold::Static(static_pfc_bound(&switch_cfg.buffer));
    let mut tb = clos_testbed(3, LinkParams::default(), host_cfg, switch_cfg, 5);
    let h = tb.hosts.clone();
    // An 8:1 incast onto h[3][1], traffic into the storming h[3][0],
    // and pairs across T1's uplinks.
    let incast = h[..3].iter().flatten().take(8).map(|&src| (src, h[3][1]));
    let others = [
        (h[2][2], h[3][0]),
        (h[1][2], h[3][0]),
        (h[0][1], h[1][2]),
        (h[0][2], h[2][2]),
        (h[0][0], h[3][2]),
    ];
    let flows: Vec<FlowId> = incast
        .chain(others)
        .map(|(src, dst)| {
            let f = tb.net.add_flow(src, dst, DATA_PRIORITY, dcqcn(params));
            for k in 0..3 {
                tb.net
                    .send_message(f, 1_000_000, Time::from_micros(1_000 * k));
            }
            f
        })
        .collect();
    let t1_l1 = tb.net.link_between(tb.tors[0], tb.leaves[0]).expect("link");
    let l3_s1 = tb
        .net
        .link_between(tb.leaves[2], tb.spines[0])
        .expect("link");
    let plan = FaultPlan::new()
        .link_flap(
            t1_l1,
            Time::from_micros(500),
            Duration::from_millis(3),
            Duration::from_millis(4),
            1,
        )
        .bit_error(Time::from_micros(200), l3_s1, 0.002)
        .pause_storm(
            h[3][0],
            DATA_PRIORITY,
            Time::from_millis(1),
            Time::from_millis(3),
            Duration::from_micros(20),
        );
    let no_failover = FaultConfig {
        failover: false,
        ..FaultConfig::default()
    };
    tb.net.install_faults(&plan, no_failover);
    let config = SamplerConfig {
        counters: OWNED.to_vec(),
        ..SamplerConfig::default()
    };
    tb.net.enable_sampling(Duration::from_micros(20), config);
    tb.net.run_until(Time::from_millis(30));
    (tb, flows)
}

/// Counter tracks record per-interval deltas whose sum telescopes back
/// to the counter itself — nothing double-counted, nothing lost — and
/// every owned counter's run total is the sum over its owners.
#[test]
fn network_sampling_conserves_counters() {
    let (s, port) = fixture();
    let fwd = s
        .net
        .sampler()
        .timelines()
        .by_name("rate/forwarded")
        .expect("track");
    assert!(fwd.count() > 0, "sampler ran");
    let total = s.net.metric("forwarded");
    // The track holds every delta up to the last sampling tick; packets
    // forwarded after that tick are not yet recorded.
    assert!(fwd.sum() <= total as f64);
    assert!(
        fwd.sum() >= total as f64 * 0.95,
        "track sum {} far below counter {}",
        fwd.sum(),
        total
    );

    let q = s.net.sampler().queue(s.switch, port).expect("queue track");
    // ~100 samples at 20 µs over 2 ms; the run's congestion shows up.
    assert!(q.count() >= 99, "one gauge sample per tick");
    assert!(q.max() > 0.0, "the incast queued bytes");

    // The report embeds the timeline summaries and midpoint percentiles.
    let report = s.net.telemetry_report().render();
    assert!(report.contains("\"timelines\""));
    assert!(report.contains("\"rate/forwarded\""));
    assert!(report.contains("\"p50_mid\""));
    assert!(report.contains("\"p99_mid\""));

    // A faulted DCQCN Clos run: each owned counter is the hand-written
    // sum over its owners, and its track sums to that exactly (the run
    // ends idle, so nothing happens after the last tick).
    let (tb, flows) = faulted_clos();
    let net = &tb.net;
    let switch_ids: Vec<_> = tb.tors.iter().chain(&tb.leaves).chain(&tb.spines).collect();
    let switches: Vec<SwitchStats> = switch_ids.iter().map(|&&s| net.switch_stats(s)).collect();
    let per_switch = |f: fn(&SwitchStats) -> u64| switches.iter().map(f).sum::<u64>();
    let per_flow = |f: fn(&FlowStats) -> u64| flows.iter().map(|&id| f(net.flow_stats(id))).sum();
    let fs = net.fault_stats();
    let owned: [u64; 18] = [
        per_switch(|s| s.ecn_marks),
        per_switch(|s| s.pause_tx),
        per_switch(|s| s.pause_rx),
        per_switch(|s| s.resume_tx),
        per_switch(|s| s.drops_pool),
        per_switch(|s| s.drops_lossy),
        fs.link_drops + fs.crc_drops,
        per_switch(|s| s.forwarded),
        per_flow(|f| f.retx_pkts),
        per_flow(|f| f.timeouts),
        per_flow(|f| f.nacks_sent),
        per_flow(|f| f.cnps_sent),
        per_switch(|s| s.watchdog_trips),
        per_switch(|s| s.watchdog_restores),
        per_flow(|f| u64::from(f.aborted)),
        per_flow(|f| f.completions.len() as u64),
        fs.transitions,
        fs.storm_pauses,
    ];
    for (name, want) in OWNED.into_iter().zip(owned) {
        assert_eq!(net.metric(name), want, "{name}: the owners' sum");
        let track = net.sampler().timelines().by_name(&format!("rate/{name}"));
        assert_eq!(track.expect("track").sum(), want as f64, "{name}: sampled");
    }
    // Every fault and mechanism fired; the fabric stays lossless, so only
    // the switches' drop counters read 0.
    for name in OWNED.iter().filter(|&&n| !n.starts_with("drops_")) {
        assert!(net.metric(name) > 0, "{name} never counted");
    }

    // The buffer high-water mark is owned by each switch's buffer; the
    // report's gauge is the highest of them.
    let peaks = switch_ids.iter().map(|&&s| net.switch(s).buffer.peak());
    let peak = peaks.max().expect("switches");
    assert!(peak > 0, "the incast buffered bytes");
    let report = net.telemetry_report();
    let gauge = report
        .get("gauges")
        .and_then(|g| g.get("peak_buffer_bytes"));
    assert_eq!(gauge, Some(&Json::UInt(peak)));
}

/// The dashboard fixture's exact bytes. Regenerate with
/// `UPDATE_GOLDEN=1 cargo test -p netsim --test timeline`.
#[test]
fn dashboard_matches_golden_file() {
    let (s, _) = fixture();
    let rendered = s.net.dashboard("timeline fixture: 2:1 incast").render();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/dashboard.html");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden file present");
    assert_eq!(
        rendered, golden,
        "dashboard drifted from tests/golden/dashboard.html; \
         rerun with UPDATE_GOLDEN=1 if the change is intended"
    );
}

/// The dashboard shows every panel family the fixture populates.
#[test]
fn dashboard_has_expected_panels() {
    let (s, _) = fixture();
    let dash = s.net.dashboard("fixture");
    let html = dash.render();
    for panel in [
        "queue depth",
        "goodput",
        "control frames / interval",
        "span attribution",
        "counters",
    ] {
        assert!(html.contains(panel), "missing panel {panel}");
    }
    assert!(html.contains("<svg"), "charts rendered");
    assert!(!html.contains("<script"), "dependency-free: no scripts");
    // Same run, same bytes.
    assert_eq!(html, s.net.dashboard("fixture").render());
}
