//! A tiny deterministic RNG for the simulator's internal randomness
//! (RED marking decisions, ECMP salt).
//!
//! We deliberately avoid pulling `rand` into the substrate: the simulator
//! needs only a fast, seedable, reproducible stream, and keeping it inline
//! guarantees run-for-run determinism is independent of external crate
//! versions. The `workloads` crate builds its distributions on this same
//! generator, so a whole run is a pure function of config + seed with no
//! external-crate randomness anywhere.

/// SplitMix64: tiny, fast, passes BigCrush for our purposes; used by many
/// simulators for exactly this role.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high-quality mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Uniform integer in `[0, n)`. `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Multiply-shift; bias is negligible for simulator-sized n.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniformly picks one element of a nonempty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick from empty slice");
        &items[self.below(items.len() as u64) as usize]
    }

    /// Fisher–Yates shuffle, deterministic under the seed.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// A deterministic 64-bit mixer used for ECMP flow hashing. Distinct from the
/// RNG: the same (flow, salt) pair must always map to the same path.
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x = (x ^ (x >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^ (x >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn floats_are_unit_interval() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn floats_are_roughly_uniform() {
        let mut r = SplitMix64::new(7);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn chance_edges() {
        let mut r = SplitMix64::new(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn chance_probability_is_respected() {
        let mut r = SplitMix64::new(11);
        let n = 200_000;
        let hits = (0..n).filter(|_| r.chance(0.01)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.01).abs() < 0.002, "rate {rate}");
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = SplitMix64::new(5);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            let v = r.below(8);
            assert!(v < 8);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn pick_is_uniform_ish_and_in_range() {
        let mut r = SplitMix64::new(21);
        let items = [10, 20, 30, 40];
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            let v = *r.pick(&items);
            counts[(v / 10 - 1) as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c > 800), "{counts:?}");
    }

    #[test]
    fn shuffle_is_a_permutation_and_seed_stable() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b: Vec<u32> = (0..50).collect();
        SplitMix64::new(9).shuffle(&mut a);
        SplitMix64::new(9).shuffle(&mut b);
        assert_eq!(a, b, "same seed, same permutation");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(a, sorted, "50 elements almost surely move");
    }

    #[test]
    fn mix64_is_stable_and_injectivish() {
        assert_eq!(mix64(0x1234), mix64(0x1234));
        let mut vals: Vec<u64> = (0..1000).map(mix64).collect();
        vals.sort_unstable();
        vals.dedup();
        assert_eq!(vals.len(), 1000);
    }
}
