//! Host-side measurement tooling owned by the benchmark: a counting
//! global allocator, the `VmHWM` reader, nearest-rank order statistics
//! and a per-op stopwatch with its clock cost calibrated out.

use netsim::stats::nearest_rank_index;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Forwards to [`System`] and counts `alloc` calls. One relaxed add per
/// allocation; the simulator's steady state allocates nothing, so timed
/// runs do not pay it.
pub struct CountingAlloc;

// SAFETY: pure pass-through to `System`; the counter has no effect on
// the memory returned or released.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocations made by this process so far.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Peak resident set of this process in MB (`VmHWM` in
/// `/proc/self/status`), or `None` where procfs does not provide it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The nearest-rank p-th percentile of an ascending sample — the same
/// rank rule as `netsim::stats::percentile`, usable on integer samples
/// so simulated times stay exact until they are printed.
pub fn nearest_rank<T: Copy>(sorted: &[T], p: f64) -> T {
    sorted[nearest_rank_index(sorted.len(), p)]
}

/// Median, minimum and quartiles of a set of host timings.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarizes a non-empty sample.
    pub fn of(samples: &[f64]) -> Summary {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        Summary {
            median: nearest_rank(&s, 50.0),
            min: s[0],
            q1: nearest_rank(&s, 25.0),
            q3: nearest_rank(&s, 75.0),
            n: s.len(),
        }
    }
}

/// What an [`OpTimer`] bracket reports for an empty call, in ns: the
/// share of the clock reads that falls inside the bracket, for kernels
/// that bracket single calls to subtract.
pub fn clock_overhead_ns() -> f64 {
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let mut empty = OpTimer::default();
            for _ in 0..20_000 {
                empty.time(|| ());
            }
            empty.ns_per_op(0.0)
        })
        .collect();
    Summary::of(&batches).median
}

/// Accumulates the time of individually bracketed calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct OpTimer {
    total_ns: u64,
    pub ops: u64,
}

impl OpTimer {
    /// Times one call.
    #[inline]
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.total_ns += t0.elapsed().as_nanos() as u64;
        self.ops += 1;
        r
    }

    /// Mean ns per call with `clock_ns` of bracketing cost removed.
    pub fn ns_per_op(&self, clock_ns: f64) -> f64 {
        if self.ops == 0 {
            return 0.0;
        }
        (self.total_ns as f64 / self.ops as f64 - clock_ns).max(0.0)
    }
}
