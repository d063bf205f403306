//! Physical units used throughout the simulator.
//!
//! Time is kept in integer **picoseconds** so that serialization delays of
//! common datacenter rates are exact: at 40 Gbps one bit takes 25 ps, at
//! 100 Gbps 10 ps, at 10 Gbps 100 ps. A `u64` of picoseconds covers ~213
//! days of simulated time, far beyond any experiment in this repository.
//!
//! Bandwidth is kept in bits per second. Conversions route through `u128`
//! intermediates so they are exact for every rate/length combination that
//! fits the simulator's ranges.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Picoseconds per microsecond.
const PS_PER_US: u64 = 1_000_000;
/// Picoseconds per second.
const PS_PER_SEC: u64 = 1_000_000_000_000;

/// `n · ps_per_unit` picoseconds. A product past `u64::MAX` (≈ 213 days)
/// panics — at compile time in a `const` — instead of wrapping onto some
/// earlier instant.
#[track_caller]
const fn picos(n: u64, ps_per_unit: u64) -> u64 {
    match n.checked_mul(ps_per_unit) {
        Some(ps) => ps,
        None => panic!("time overflows u64 picoseconds (about 213 days)"),
    }
}

/// An absolute simulation timestamp, in picoseconds since the start of the
/// run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

/// A span of simulated time, in picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl Time {
    /// The beginning of the simulation.
    pub const ZERO: Time = Time(0);
    /// A timestamp later than any other; used as "never".
    pub const NEVER: Time = Time(u64::MAX);

    /// Builds a timestamp from whole nanoseconds.
    ///
    /// # Panics
    /// Panics when the instant does not fit `u64` picoseconds, as every
    /// `from_*` constructor of `Time` and `Duration` does.
    #[track_caller]
    pub const fn from_nanos(ns: u64) -> Time {
        Time(picos(ns, 1_000))
    }
    /// Builds a timestamp from whole microseconds.
    #[track_caller]
    pub const fn from_micros(us: u64) -> Time {
        Time(picos(us, PS_PER_US))
    }
    /// Builds a timestamp from whole milliseconds.
    #[track_caller]
    pub const fn from_millis(ms: u64) -> Time {
        Time(picos(ms, 1_000 * PS_PER_US))
    }
    /// Builds a timestamp from floating-point seconds (test/setup helper).
    pub fn from_secs_f64(s: f64) -> Time {
        Time((s * PS_PER_SEC as f64).round() as u64)
    }
    /// This timestamp expressed in floating-point seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }
    /// This timestamp expressed in floating-point microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }
    /// Saturating difference `self - earlier`.
    pub(crate) fn saturating_since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// The empty span.
    pub const ZERO: Duration = Duration(0);

    /// Builds a span from whole picoseconds.
    pub const fn from_picos(ps: u64) -> Duration {
        Duration(ps)
    }
    /// Builds a span from whole nanoseconds.
    #[track_caller]
    pub const fn from_nanos(ns: u64) -> Duration {
        Duration(picos(ns, 1_000))
    }
    /// Builds a span from whole microseconds.
    #[track_caller]
    pub const fn from_micros(us: u64) -> Duration {
        Duration(picos(us, PS_PER_US))
    }
    /// Builds a span from whole milliseconds.
    #[track_caller]
    pub const fn from_millis(ms: u64) -> Duration {
        Duration(picos(ms, 1_000 * PS_PER_US))
    }
    /// This span expressed in floating-point seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }
    /// This span expressed in floating-point microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }
    /// Multiplies the span by an integer factor.
    pub fn saturating_mul(self, k: u64) -> Duration {
        Duration(self.0.saturating_mul(k))
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    fn add(self, rhs: Duration) -> Time {
        Time(self.0 + rhs.0)
    }
}
impl AddAssign<Duration> for Time {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}
impl Sub<Duration> for Time {
    type Output = Time;
    fn sub(self, rhs: Duration) -> Time {
        Time(self.0 - rhs.0)
    }
}
impl Sub<Time> for Time {
    type Output = Duration;
    fn sub(self, rhs: Time) -> Duration {
        Duration(self.0 - rhs.0)
    }
}
impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}
impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}
impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}
impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}
impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}
impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}
impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        Duration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}
impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= PS_PER_SEC {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= PS_PER_US {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ps", self.0)
        }
    }
}

/// Link or flow bandwidth, in bits per second.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bandwidth(pub u64);

impl Bandwidth {
    /// Builds a bandwidth from gigabits per second.
    pub const fn gbps(g: u64) -> Bandwidth {
        Bandwidth(g * 1_000_000_000)
    }
    /// Builds a bandwidth from megabits per second.
    pub const fn mbps(m: u64) -> Bandwidth {
        Bandwidth(m * 1_000_000)
    }
    /// This bandwidth in floating-point gigabits per second.
    pub fn as_gbps_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
    /// Time to serialize `bytes` at this rate. Rounds up to a picosecond so
    /// back-to-back packets never overlap. A zero rate returns a huge span.
    pub fn serialize(self, bytes: u64) -> Duration {
        if self.0 == 0 {
            return Duration(u64::MAX / 4);
        }
        const CAP: u64 = u64::MAX / 4;
        Duration(match bytes.checked_mul(8 * PS_PER_SEC) {
            // Every frame below 2.3 MB: the same division in one `div`
            // instead of a `__udivti3` call per transmitted frame.
            Some(bit_ps) => bit_ps.div_ceil(self.0).min(CAP),
            None => (bytes as u128 * 8 * PS_PER_SEC as u128)
                .div_ceil(self.0 as u128)
                .min(CAP as u128) as u64,
        })
    }
    /// Scales the rate by a float factor, saturating at zero.
    pub fn scale(self, f: f64) -> Bandwidth {
        Bandwidth((self.0 as f64 * f).max(0.0).round() as u64)
    }
    /// Midpoint of two rates (used by DCQCN's fast recovery). Rounds up
    /// so repeated halving toward a target actually reaches it.
    pub fn midpoint(self, other: Bandwidth) -> Bandwidth {
        Bandwidth((self.0 + other.0).div_ceil(2))
    }
    /// Saturating addition.
    pub fn saturating_add(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.saturating_add(other.0))
    }
    /// The smaller of two rates.
    pub fn min(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.min(other.0))
    }
    /// The larger of two rates.
    pub fn max(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.max(other.0))
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.2}Gbps", self.as_gbps_f64())
        } else {
            write!(f, "{:.2}Mbps", self.0 as f64 / 1e6)
        }
    }
}

/// Byte-count helpers in **decimal** units (1 KB = 1000 B), matching the
/// paper's buffer arithmetic: with B = 12 MB, n = 32, t_flight = 22.4 KB,
/// §4's bound (B − 8·n·t_flight)/(8·n) comes out to 24.47 KB only in
/// decimal units.
pub mod bytes {
    /// Kilobytes to bytes.
    pub const fn kb(k: u64) -> u64 {
        k * 1000
    }
    /// Megabytes to bytes.
    pub const fn mb(m: u64) -> u64 {
        m * 1_000_000
    }
}

/// Checked arithmetic and conversion helpers for byte/occupancy counters.
///
/// Buffer occupancy, per-queue byte counts and similar accounting values
/// must never silently wrap (a wrap near `u64::MAX` sneaks past capacity
/// checks) and must never be poisoned by a NaN from float-factor math
/// (dynamic PFC thresholds, lossy-α limits). The `simlint` `counter-arith`
/// rule forbids bare `+`/`-`/`as` on such counters in
/// `netsim::{buffer,port,switch}`; these helpers are the sanctioned
/// replacements.
pub(crate) mod checked {
    /// Adds `bytes` to `counter`. On overflow the counter is left
    /// untouched and `false` is returned — callers treat that as a failed
    /// admission, never a wrap.
    #[inline]
    #[must_use]
    pub(crate) fn checked_accum(counter: &mut u64, bytes: u64) -> bool {
        match counter.checked_add(bytes) {
            Some(v) => {
                *counter = v;
                true
            }
            None => false,
        }
    }

    /// Subtracts `bytes` from `counter`. On underflow the counter is left
    /// untouched and `false` is returned — the accounting bug is then
    /// visible to `debug_assert!`s and the `sanitize` auditor instead of
    /// wrapping into an absurd occupancy.
    #[inline]
    #[must_use]
    pub(crate) fn checked_drain(counter: &mut u64, bytes: u64) -> bool {
        match counter.checked_sub(bytes) {
            Some(v) => {
                *counter = v;
                true
            }
            None => false,
        }
    }

    /// Scales a byte count by a float factor (dynamic thresholds: β·free/8,
    /// α·free). NaN and negative factors clamp to 0; results beyond
    /// `u64::MAX` saturate. The result is always a sane byte count.
    #[inline]
    pub(crate) fn scale_bytes(bytes: u64, factor: f64) -> u64 {
        let v = bytes as f64 * factor;
        if v.is_nan() || v <= 0.0 {
            0
        } else if v >= u64::MAX as f64 {
            u64::MAX
        } else {
            v as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_is_exact_at_40g() {
        // 40 Gbps = 25 ps per bit; a 1500 B frame is 12000 bits = 300 ns.
        let d = Bandwidth::gbps(40).serialize(1500);
        assert_eq!(d, Duration::from_nanos(300));
    }

    #[test]
    fn serialization_is_exact_at_10g_and_100g() {
        assert_eq!(
            Bandwidth::gbps(10).serialize(1500),
            Duration::from_nanos(1200)
        );
        assert_eq!(
            Bandwidth::gbps(100).serialize(1500),
            Duration::from_nanos(120)
        );
    }

    #[test]
    fn serialization_rounds_up() {
        // 3 bits at 1 Gbps would be 3 ns exactly; 1 byte at 3 Gbps is
        // 8/3 ns = 2666.66.. ps and must round up.
        let d = Bandwidth(3_000_000_000).serialize(1);
        assert_eq!(d.0, 2667);
    }

    proptest::proptest! {
        /// The `u64` fast path and the `u128` path are the same function.
        #[test]
        fn serialize_matches_the_u128_formula(
            rate in 1u64..=u64::MAX,
            small_rate in 1u64..=400_000_000_000,
            bytes in 0u64..=u64::MAX,
            near in 0u64..=2_000,
        ) {
            // Largest byte count whose bit-picoseconds still fit in `u64`.
            let edge = u64::MAX / (8 * PS_PER_SEC);
            for rate in [rate, small_rate, 1, u64::MAX] {
                for bytes in [bytes, near, edge - near, edge, edge + 1, edge + near] {
                    let exact = (bytes as u128 * 8 * PS_PER_SEC as u128)
                        .div_ceil(rate as u128)
                        .min(u64::MAX as u128 / 4) as u64;
                    proptest::prop_assert_eq!(Bandwidth(rate).serialize(bytes), Duration(exact));
                }
            }
        }
    }

    #[test]
    fn zero_bandwidth_never_finishes() {
        assert!(Bandwidth(0).serialize(1).0 > Duration::from_millis(1_000_000).0);
    }

    #[test]
    fn time_arithmetic() {
        let t = Time::from_micros(5) + Duration::from_nanos(300);
        assert_eq!(t.0, 5_000_000 + 300_000);
        assert_eq!(t - Time::from_micros(5), Duration::from_nanos(300));
        assert_eq!(Time::from_millis(1), Time::from_micros(1000));
    }

    #[test]
    fn constructors_reach_the_last_representable_picosecond() {
        let max_us = u64::MAX / PS_PER_US;
        assert_eq!(Time::from_micros(max_us).0, max_us * PS_PER_US);
        assert_eq!(
            Duration::from_millis(max_us / 1_000).0,
            max_us / 1_000 * 1_000 * PS_PER_US
        );
        assert_eq!(
            Duration::from_nanos(u64::MAX / 1_000).0,
            u64::MAX / 1_000 * 1_000
        );
    }

    #[test]
    #[should_panic(expected = "time overflows u64 picoseconds")]
    fn time_from_micros_panics_instead_of_wrapping() {
        Time::from_micros(u64::MAX / PS_PER_US + 1);
    }

    #[test]
    #[should_panic(expected = "time overflows u64 picoseconds")]
    fn time_from_millis_panics_instead_of_wrapping() {
        Time::from_millis(u64::MAX);
    }

    #[test]
    #[should_panic(expected = "time overflows u64 picoseconds")]
    fn duration_from_micros_panics_instead_of_wrapping() {
        Duration::from_micros(u64::MAX);
    }

    #[test]
    #[should_panic(expected = "time overflows u64 picoseconds")]
    fn duration_from_nanos_panics_instead_of_wrapping() {
        Duration::from_nanos(u64::MAX / 1_000 + 1);
    }

    #[test]
    fn saturating_since_clamps() {
        let a = Time::from_micros(1);
        let b = Time::from_micros(2);
        assert_eq!(a.saturating_since(b), Duration::ZERO);
        assert_eq!(b.saturating_since(a), Duration::from_micros(1));
    }

    #[test]
    fn bandwidth_midpoint_and_scale() {
        let a = Bandwidth::gbps(40);
        let b = Bandwidth::gbps(20);
        assert_eq!(a.midpoint(b), Bandwidth::gbps(30));
        assert_eq!(a.scale(0.5), Bandwidth::gbps(20));
        assert_eq!(a.scale(-1.0), Bandwidth(0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Bandwidth::gbps(40)), "40.00Gbps");
        assert_eq!(format!("{}", Bandwidth::mbps(40)), "40.00Mbps");
        assert_eq!(format!("{}", Duration::from_micros(55)), "55.000us");
    }

    #[test]
    fn byte_units_match_paper() {
        assert_eq!(bytes::mb(12), 12_000_000);
        assert_eq!(bytes::kb(200), 200_000);
    }

    #[test]
    fn checked_accum_and_drain() {
        use checked::{checked_accum, checked_drain};
        let mut c = 1000u64;
        assert!(checked_accum(&mut c, 500));
        assert_eq!(c, 1500);
        assert!(!checked_accum(&mut c, u64::MAX), "overflow rejected");
        assert_eq!(c, 1500, "counter untouched on overflow");
        assert!(checked_drain(&mut c, 1500));
        assert_eq!(c, 0);
        assert!(!checked_drain(&mut c, 1), "underflow rejected");
        assert_eq!(c, 0, "counter untouched on underflow");
    }

    #[test]
    fn scale_bytes_clamps_pathologies() {
        use checked::scale_bytes;
        assert_eq!(scale_bytes(1000, 0.5), 500);
        assert_eq!(scale_bytes(6_265_600, 1.0), 6_265_600);
        assert_eq!(scale_bytes(1000, f64::NAN), 0);
        assert_eq!(scale_bytes(1000, -2.0), 0);
        assert_eq!(scale_bytes(u64::MAX / 2, 1e30), u64::MAX);
        // The paper's dynamic threshold: β/8 · free with β = 8 is identity.
        assert_eq!(scale_bytes(123_456, 8.0 / 8.0), 123_456);
    }
}
