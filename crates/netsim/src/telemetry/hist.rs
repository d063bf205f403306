//! Allocation-free log2-bucket (HDR-style) histograms.
//!
//! A [`Histogram`] is a fixed array of 65 buckets: bucket 0 holds the
//! value 0, and bucket `b` (1 ≤ b ≤ 64) holds values in
//! `[2^(b-1), 2^b − 1]`. Recording a sample is a leading-zeros
//! instruction plus one array index — no hashing, no allocation — so the
//! simulator's packet path can feed a histogram per event. Exact `min`,
//! `max`, `count` and `sum` are tracked alongside the buckets, so the
//! mean is exact; percentiles are resolved to the *lower bound* of the
//! bucket containing the nearest-rank sample (≤ 2× relative error by
//! construction, which is plenty for queue-depth CDFs and latency
//! tails).

use super::Json;
use crate::stats::nearest_rank;

/// Number of log2 buckets: one for zero plus one per bit of a `u64`.
pub(crate) const NUM_BUCKETS: usize = 65;

/// A fixed-size log2-bucket histogram of `u64` samples.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; NUM_BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// Index of the bucket holding `v`: 0 for 0, else `64 − leading_zeros`.
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Smallest value bucket `i` can hold (its lower bound).
#[inline]
pub(crate) fn bucket_floor(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: [0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean of the recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank percentile, resolved to the lower bound of the bucket
    /// containing that rank (`p` in `[0, 100]`; 0 when empty). Uses the
    /// same nearest-rank convention as [`crate::stats::percentile`].
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = nearest_rank(self.count, p);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_floor(i);
            }
        }
        bucket_floor(NUM_BUCKETS - 1)
    }

    /// Nearest-rank percentile estimated by the **midpoint rule**: the
    /// rank's bucket `[2^(b−1), 2^b − 1]` is resolved to its midpoint,
    /// then clamped to the observed `[min, max]`.
    ///
    /// **Error bound.** The true sample lies somewhere in the bucket, so
    /// the midpoint is off by at most half the bucket width — for bucket
    /// `b ≥ 1` that is `(2^(b−1) − 1) / 2 < 2^(b−2)`, i.e. **< 50%
    /// relative error**, halving the ≤ 2× worst case of the lower-bound
    /// rule ([`Histogram::percentile`]). The clamp makes degenerate
    /// cases exact: an empty histogram reports 0, a single-valued
    /// histogram reports that value, and `p = 0` / `p = 100` report
    /// `min` / `max` whenever the rank resolves to the extreme buckets.
    /// Bucket 0 (the value 0) has zero width and is always exact.
    pub(crate) fn percentile_midpoint(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = nearest_rank(self.count, p);
        let mut cum = 0u64;
        let mut bucket = NUM_BUCKETS - 1;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                bucket = i;
                break;
            }
        }
        let lo = bucket_floor(bucket);
        // Inclusive upper bound of the bucket: 2^b − 1 (u64::MAX for the
        // top bucket), 0 for bucket 0.
        let hi = if bucket == 0 {
            0
        } else if bucket == NUM_BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << bucket) - 1
        };
        let mid = lo as f64 + (hi - lo) as f64 / 2.0;
        mid.clamp(self.min() as f64, self.max() as f64)
    }

    /// Deterministic JSON summary (one entry of the `histograms` section
    /// of `Network::telemetry_report`; schema in DESIGN.md).
    pub fn summary_json(&self) -> Json {
        let buckets = self
            .nonzero_buckets()
            .map(|(floor, count)| {
                Json::obj(vec![
                    ("count", Json::UInt(count)),
                    ("ge", Json::UInt(floor)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("buckets", Json::Arr(buckets)),
            ("count", Json::UInt(self.count())),
            ("max", Json::UInt(self.max())),
            ("mean", Json::Float(self.mean())),
            ("min", Json::UInt(self.min())),
            ("p50", Json::UInt(self.percentile(50.0))),
            ("p50_mid", Json::Float(self.percentile_midpoint(50.0))),
            ("p99", Json::UInt(self.percentile(99.0))),
            ("p99_mid", Json::Float(self.percentile_midpoint(99.0))),
        ])
    }

    /// The non-empty buckets, as `(lower_bound, count)` pairs in
    /// ascending value order.
    pub(crate) fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_floor(i), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 1..NUM_BUCKETS {
            assert_eq!(
                bucket_index(bucket_floor(i)),
                i,
                "floor lands in its bucket"
            );
        }
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.nonzero_buckets().count(), 0);
    }

    #[test]
    fn exact_stats_approximate_percentiles() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 5, 100, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 221.2).abs() < 1e-9);
        // Nearest rank 50% of 5 = rank 3 = sample 5, bucket [4, 7] → 4.
        assert_eq!(h.percentile(50.0), 4);
        assert_eq!(h.percentile(0.0), 0);
        // 1000 lives in [512, 1023].
        assert_eq!(h.percentile(100.0), 512);
    }

    #[test]
    fn midpoint_percentile_empty_and_single() {
        let h = Histogram::new();
        assert_eq!(h.percentile_midpoint(50.0), 0.0, "empty → 0");
        let mut one = Histogram::new();
        one.observe(100);
        // One sample: bucket [64, 127] has midpoint 95.5, but the clamp
        // to [min, max] makes the single-valued case exact.
        assert_eq!(one.percentile_midpoint(0.0), 100.0);
        assert_eq!(one.percentile_midpoint(50.0), 100.0);
        assert_eq!(one.percentile_midpoint(100.0), 100.0);
        let mut zero = Histogram::new();
        zero.observe(0);
        assert_eq!(zero.percentile_midpoint(50.0), 0.0, "bucket 0 is exact");
    }

    #[test]
    fn midpoint_percentile_bucket_edges() {
        // Samples at both edges of bucket [8, 15]: the midpoint 11.5
        // sits within 50% relative error of either edge.
        let mut h = Histogram::new();
        h.observe(8);
        h.observe(15);
        let est = h.percentile_midpoint(50.0);
        assert_eq!(est, 11.5);
        for truth in [8.0f64, 15.0] {
            assert!(
                (est - truth).abs() / truth < 0.5,
                "≤50% relative error at bucket edge {truth}"
            );
        }
        // Power-of-two sample: 16 opens bucket [16, 31], midpoint 23.5.
        let mut p = Histogram::new();
        p.observe(16);
        p.observe(31);
        assert_eq!(p.percentile_midpoint(50.0), 23.5);
        // The clamp keeps the estimate inside the observed range even
        // when the rank bucket is wider than the data.
        let mut c = Histogram::new();
        c.observe(17);
        c.observe(18);
        let est = c.percentile_midpoint(99.0);
        assert!((17.0..=18.0).contains(&est));
    }

    #[test]
    fn midpoint_beats_floor_on_upper_half_of_bucket() {
        // 1000 lives in [512, 1023]: floor rule says 512 (−49%), the
        // clamped midpoint says min(767.5, max)=767.5 (−23%).
        let mut h = Histogram::new();
        h.observe(1000);
        h.observe(1);
        assert_eq!(h.percentile(100.0), 512);
        assert_eq!(h.percentile_midpoint(100.0), 767.5);
    }

    #[test]
    fn buckets_enumerate_in_order() {
        let mut h = Histogram::new();
        h.observe(3);
        h.observe(3);
        h.observe(64);
        let b: Vec<(u64, u64)> = h.nonzero_buckets().collect();
        assert_eq!(b, vec![(2, 2), (64, 1)]);
    }
}
