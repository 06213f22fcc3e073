//! A counting global allocator for the traced binary. The counters
//! live here so the library can read them; they stay at zero in the
//! plain `stackbench` binary, which keeps the system allocator
//! untouched for the measured run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

// Statistics only: nothing is published through these, so `Relaxed`.
static COUNT: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// `System`, counting calls and live bytes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counting;

fn grew(bytes: usize) {
    COUNT.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping beside it touches only
// atomics and never the memory being handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's `layout` is passed on as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's `layout` is passed on as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        grew(new_size);
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's,
        // passed on as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation calls so far (0 when [`Counting`] is not installed).
pub fn count() -> u64 {
    COUNT.load(Ordering::Relaxed)
}

/// Forgets the high-water mark: the peak restarts at the live size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Highest live heap size since the last [`reset_peak`], bytes.
pub fn peak_live_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}
