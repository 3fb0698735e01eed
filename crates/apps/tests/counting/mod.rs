//! The counting `#[global_allocator]` of the budget tests
//! (`alloc_budget`, `telemetry_budget`, `idle_budget`): every binary that
//! declares this module counts its own heap allocations, live heap bytes
//! and live blocks by size, per thread.

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
    /// Allocations of [`LARGE`] bytes or more made by this thread.
    static LARGE_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The size from which an allocation counts as large: no buffer of the
/// request path comes near it, a machine's simulated memory is far
/// above it.
pub const LARGE: usize = 1 << 20;

/// Counts one allocation of `size` bytes.
fn count(size: usize) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    if size >= LARGE {
        let _ = LARGE_ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

/// Distinct block sizes the histogram tells apart; blocks of any further
/// size are counted in [`live_bytes`] alone.
const SIZES: usize = 4096;

thread_local! {
    /// Live blocks by requested size: an open-addressed table of
    /// `(size, blocks)`, never resized, so that counting allocates
    /// nothing. A size keeps its slot once it has one.
    static BLOCKS: [Cell<(usize, i64)>; SIZES] = const { [const { Cell::new((0, 0)) }; SIZES] };
}

/// `by` = 1: one block of `size` bytes more is live; -1: one fewer.
fn live_add(size: usize, by: i64) {
    let _ = LIVE.try_with(|n| n.set(n.get() + by * size as i64));
    let _ = BLOCKS.try_with(|table| {
        let home = size.wrapping_mul(0x9e37_79b9) % SIZES;
        let mut probe = (0..SIZES).map(|k| &table[(home + k) % SIZES]);
        if let Some(slot) = probe.find(|slot| [size, 0].contains(&slot.get().0)) {
            slot.set((size, slot.get().1 + by));
        }
    });
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are const-initialised
// thread-local `Cell`s (no lazy initialisation, no destructor), so
// touching them never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        live_add(layout.size(), 1);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    // Forwarded as such, so that untouched simulated memory stays
    // untouched pages (the default would `alloc` and write zeroes).
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        live_add(layout.size(), 1);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live_add(layout.size(), -1);
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        live_add(layout.size(), -1);
        live_add(new_size, 1);
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

/// Allocations of [`LARGE`] bytes or more that `run` makes.
pub fn large_allocations_during(run: impl FnOnce()) -> u64 {
    let before = LARGE_ALLOCS.with(Cell::get);
    run();
    LARGE_ALLOCS.with(Cell::get) - before
}

/// Heap bytes live on this thread now; differences between two readings
/// are what the code in between left allocated.
pub fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

/// A reading of the live-block table.
pub struct Blocks(Vec<(usize, i64)>);

/// Blocks live on this thread now, by requested size. As with
/// [`live_bytes`], differences between two readings are what matters.
pub fn live_blocks_by_size() -> Blocks {
    Blocks(BLOCKS.with(|table| table.iter().map(Cell::get).collect()))
}

impl Blocks {
    /// This reading minus an `earlier` one, size by size.
    pub fn minus(&self, earlier: &Blocks) -> Blocks {
        let pairs = self.0.iter().zip(&earlier.0);
        Blocks(pairs.map(|(now, was)| (now.0, now.1 - was.1)).collect())
    }

    /// `(size, blocks, bytes)` of every size whose count is not zero, most
    /// bytes first.
    pub fn rows(&self) -> Vec<(usize, i64, i64)> {
        let live = self.0.iter().filter(|row| row.1 != 0);
        let mut rows: Vec<_> = live
            .map(|&(size, blocks)| (size, blocks, blocks * size as i64))
            .collect();
        rows.sort_by_key(|&(size, _, bytes)| (-bytes.abs(), size));
        rows
    }
}
