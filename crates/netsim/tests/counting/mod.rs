//! A counting global allocator for the allocation tests: each test file
//! that declares `mod counting;` installs it for its own binary.
//!
//! The counters are process-wide, so such a file holds one `#[test]`: a
//! second test running beside it would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, counting calls and live bytes (with their
/// high-water mark). `Relaxed` throughout: statistics, read on the thread
/// that did the allocating.
struct Counting;

static CALLS: AtomicUsize = AtomicUsize::new(0);
/// Bytes currently allocated.
pub static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    CALLS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: the caller's contract for `dealloc`, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Old and new block coexist while the bytes are copied.
        grew(new_size);
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `work` and returns its result, the allocator calls it made, and
/// how far live bytes rose above where they stood when it started.
pub fn measured<T>(work: impl FnOnce() -> T) -> (T, usize, usize) {
    let (calls, live) = (CALLS.load(Relaxed), LIVE.load(Relaxed));
    PEAK.store(live, Relaxed);
    let out = work();
    (out, CALLS.load(Relaxed) - calls, PEAK.load(Relaxed) - live)
}
