//! The counting `#[global_allocator]` of the budget tests
//! (`alloc_budget`, `telemetry_budget`, `idle_budget`): every binary that
//! declares this module counts its own heap allocations and live heap
//! bytes, per thread.

// Each binary reads the counter it needs.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread. Each test runs, single-threaded,
    /// on a thread of its own, so tests do not see each other.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated minus bytes it freed (requested sizes,
    /// not the allocator's size classes).
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn live_add(bytes: i64) {
    let _ = LIVE.try_with(|n| n.set(n.get() + bytes));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` (no lazy initialisation, no destructor), so
// touching it never allocates or re-enters the allocator; so is the
// live-bytes counter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        live_add(layout.size() as i64);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live_add(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        live_add(new_size as i64 - layout.size() as i64);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

pub fn allocations_during(run: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    run();
    ALLOCS.with(Cell::get) - before
}

/// Heap bytes live on this thread now; differences between two readings
/// are what the code in between left allocated.
pub fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}
