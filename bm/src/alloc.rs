//! Counting global allocator: exact bytes requested from the heap
//! while counting is on (all threads). The traced run switches it on
//! around the untraced steady blocks to report
//! `par.alloc_bytes_per_op`; otherwise it costs one relaxed load per
//! allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicU64 = AtomicU64::new(0);

pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged, so `System`'s guarantees are this allocator's;
// the counters are plain atomics and allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size.saturating_sub(layout.size()));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[inline]
fn note(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// Count allocations made while `f` runs (on any thread) and return
/// `f`'s result with the bytes requested.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = BYTES.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::SeqCst);
    let r = f();
    COUNTING.store(false, Ordering::SeqCst);
    (r, BYTES.load(Ordering::Relaxed) - before)
}
