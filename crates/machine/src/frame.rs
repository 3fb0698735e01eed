//! Physical frame allocator (bitmap-based).
//!
//! The machine owns a fixed pool of physical frames; VMs map virtual pages
//! onto frames handed out here. A next-fit bitmap is plenty for the
//! simulation (allocation happens at boot and on heap growth, never on the
//! data path), and makes the no-double-allocation invariant easy to audit.
//! A request is answered in runs of consecutive frames, found a bitmap
//! word at a time, so a region on a fresh machine is one run whatever its
//! size — and the page table maps it as one extent.

use crate::addr::Pfn;
use crate::fault::{Fault, Result};

/// Bitmap allocator over the machine's physical frames.
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    /// One bit per frame; `true` = allocated.
    bits: Vec<u64>,
    total: u64,
    allocated: u64,
    /// Rotating search cursor (next-fit) to keep allocation O(1) amortized.
    cursor: u64,
}

impl FrameAllocator {
    /// Creates an allocator managing `total` frames, all free.
    pub fn new(total: u64) -> Self {
        let words = (total as usize).div_ceil(64);
        Self {
            bits: vec![0; words],
            total,
            allocated: 0,
            cursor: 0,
        }
    }

    /// Total number of frames managed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of frames currently allocated.
    pub fn allocated(&self) -> u64 {
        self.allocated
    }

    /// Number of frames currently free.
    pub fn free(&self) -> u64 {
        self.total - self.allocated
    }

    #[inline]
    fn is_set(&self, f: u64) -> bool {
        self.bits[(f / 64) as usize] & (1 << (f % 64)) != 0
    }

    #[inline]
    fn clear(&mut self, f: u64) {
        self.bits[(f / 64) as usize] &= !(1 << (f % 64));
    }

    /// Allocates `n` frames as runs `(first frame, frames)`, all or
    /// nothing. The frames, their order and the cursor afterwards are
    /// those of `n` single next-fit allocations: the first `n` free
    /// frames from the cursor on, wrapping at the end of the pool.
    pub fn alloc_many(&mut self, n: u64) -> Result<Vec<(Pfn, u64)>> {
        if self.free() < n {
            return Err(Fault::OutOfMemory { requested_pages: n });
        }
        let mut runs: Vec<(Pfn, u64)> = Vec::new();
        let (mut left, mut at) = (n, self.cursor);
        while left > 0 {
            // The free frames of `at`'s word from `at` on, bit 0 = `at`.
            let (w, lo) = ((at / 64) as usize, at % 64);
            let span = (64 - lo).min(self.total - at);
            let free = (!self.bits[w] >> lo) & (u64::MAX >> (64 - span));
            if free == 0 {
                at = (at + span) % self.total;
                continue;
            }
            let skip = u64::from(free.trailing_zeros());
            let len = u64::from((free >> skip).trailing_ones()).min(left);
            self.bits[w] |= (u64::MAX >> (64 - len)) << (lo + skip);
            let start = at + skip;
            match runs.last_mut() {
                Some((pfn, run)) if pfn.0 + *run == start => *run += len,
                _ => runs.push((Pfn(start), len)),
            }
            left -= len;
            at = (start + len) % self.total;
        }
        self.allocated += n;
        self.cursor = at;
        Ok(runs)
    }

    /// Frees a frame.
    ///
    /// # Panics
    ///
    /// Panics if the frame is out of range or was not allocated — a
    /// double-free in the simulator is a bug in the caller, not a
    /// recoverable condition.
    pub fn dealloc(&mut self, pfn: Pfn) {
        assert!(pfn.0 < self.total, "frame {} out of range", pfn.0);
        assert!(self.is_set(pfn.0), "double free of frame {}", pfn.0);
        self.clear(pfn.0);
        self.allocated -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl FrameAllocator {
        fn alloc(&mut self) -> Result<Pfn> {
            self.alloc_many(1).map(|runs| runs[0].0)
        }
    }

    #[test]
    fn alloc_returns_distinct_frames() {
        let mut fa = FrameAllocator::new(128);
        let a = fa.alloc().unwrap();
        let b = fa.alloc().unwrap();
        assert_ne!(a, b);
        assert_eq!(fa.allocated(), 2);
    }

    #[test]
    fn exhaustion_reports_out_of_memory() {
        let mut fa = FrameAllocator::new(2);
        fa.alloc().unwrap();
        fa.alloc().unwrap();
        assert!(matches!(fa.alloc(), Err(Fault::OutOfMemory { .. })));
    }

    #[test]
    fn dealloc_makes_frame_reusable() {
        let mut fa = FrameAllocator::new(1);
        let a = fa.alloc().unwrap();
        fa.dealloc(a);
        let b = fa.alloc().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut fa = FrameAllocator::new(4);
        let a = fa.alloc().unwrap();
        fa.dealloc(a);
        fa.dealloc(a);
    }

    #[test]
    fn alloc_many_is_all_or_nothing() {
        let mut fa = FrameAllocator::new(8);
        fa.alloc_many(6).unwrap();
        assert!(matches!(fa.alloc_many(3), Err(Fault::OutOfMemory { .. })));
        // The failed request must not have consumed frames.
        assert_eq!(fa.free(), 2);
    }

    #[test]
    fn bitmap_handles_word_boundaries() {
        let mut fa = FrameAllocator::new(130);
        let runs = fa.alloc_many(130).unwrap();
        assert_eq!(runs, [(Pfn(0), 130)]);
        assert_eq!(fa.free(), 0);
        for f in 0..130 {
            fa.dealloc(Pfn(f));
        }
        assert_eq!(fa.free(), 130);
    }

    /// The per-frame next-fit allocator `alloc_many` answers like.
    struct NextFit {
        used: Vec<bool>,
        cursor: u64,
    }

    impl NextFit {
        fn alloc_many(&mut self, n: u64) -> Option<Vec<Pfn>> {
            let total = self.used.len() as u64;
            if self.used.iter().filter(|&&u| !u).count() < n as usize {
                return None;
            }
            let frames = (0..n).map(|_| {
                let f = (0..total)
                    .map(|i| (self.cursor + i) % total)
                    .find(|&f| !self.used[f as usize])
                    .expect("counted");
                self.used[f as usize] = true;
                self.cursor = (f + 1) % total;
                Pfn(f)
            });
            Some(frames.collect())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Runs expand to the frames, in the order, and leave the cursor
        /// that `n` single next-fit allocations would, on pools that end
        /// inside, at and past a bitmap word, after frees that leave
        /// holes; a refused request changes nothing.
        #[test]
        fn alloc_many_runs_are_next_fit_frame_by_frame(
            total in prop_oneof![Just(1u64), Just(63), Just(64), Just(65), Just(130), Just(200)],
            ops in prop::collection::vec((0u64..80, 0usize..1000, 0u8..3), 1..40),
        ) {
            let mut fa = FrameAllocator::new(total);
            let mut reference = NextFit { used: vec![false; total as usize], cursor: 0 };
            let mut held: Vec<Pfn> = Vec::new();
            for (n, pick, frees) in ops {
                // Free up to two held frames from the middle of the pool.
                for _ in 0..frees.min(held.len() as u8) {
                    let f = held.swap_remove(pick % held.len());
                    fa.dealloc(f);
                    reference.used[f.0 as usize] = false;
                }
                let runs = fa.alloc_many(n).ok();
                let frames = runs.as_ref().map(|runs| {
                    runs.iter().flat_map(|&(p, len)| (p.0..p.0 + len).map(Pfn)).collect::<Vec<_>>()
                });
                let expected = reference.alloc_many(n);
                prop_assert_eq!(&frames, &expected);
                prop_assert_eq!(fa.cursor, reference.cursor);
                prop_assert_eq!(fa.free() as usize, reference.used.iter().filter(|&&u| !u).count());
                for (i, &u) in reference.used.iter().enumerate() {
                    prop_assert_eq!(fa.is_set(i as u64), u);
                }
                if let Some(runs) = runs {
                    // Maximal runs: no run continues the one before it.
                    for pair in runs.windows(2) {
                        prop_assert!(pair[0].0 .0 + pair[0].1 != pair[1].0 .0);
                    }
                    held.extend(frames.unwrap());
                }
            }
        }
    }
}
