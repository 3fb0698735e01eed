//! Bump allocator: constant-time allocation, no reuse.
//!
//! The classic boot-time/arena design: a pointer walks the region; `free`
//! only releases memory when the whole arena resets. Used for
//! compartments with phase-structured allocation (e.g. packet-processing
//! arenas) and as the simplest baseline in the allocator ablation bench.

use super::{align_up, heap_exhausted, AllocStats, Allocator};
use flexos_machine::{Addr, Fault, Machine, Result};
use std::collections::BTreeMap;

/// A bump allocator over `[base, base+len)`.
#[derive(Debug)]
pub struct BumpAllocator {
    base: Addr,
    len: u64,
    next: u64,
    /// Live allocation sizes (for `size_of` and leak accounting).
    live: BTreeMap<u64, u64>,
    stats: AllocStats,
}

impl BumpAllocator {
    /// Creates a bump allocator over the region.
    pub fn new(base: Addr, len: u64) -> Self {
        Self {
            base,
            len,
            next: 0,
            live: BTreeMap::new(),
            stats: AllocStats::default(),
        }
    }

    /// Resets the arena, invalidating all live allocations at once.
    pub fn reset(&mut self) {
        self.next = 0;
        self.live.clear();
        self.stats.live_bytes = 0;
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> u64 {
        self.len - self.next
    }
}

impl Allocator for BumpAllocator {
    fn alloc(&mut self, m: &mut Machine, size: u64, align: u64) -> Result<Addr> {
        m.charge(m.costs().alloc_op);
        let size = size.max(1);
        let start = align_up(self.base.0 + self.next, align) - self.base.0;
        let end = start
            .checked_add(size)
            .ok_or_else(|| heap_exhausted(size))?;
        if end > self.len {
            return Err(heap_exhausted(size));
        }
        self.next = end;
        self.live.insert(start, size);
        self.stats.on_alloc(size);
        Ok(Addr(self.base.0 + start))
    }

    fn free(&mut self, m: &mut Machine, addr: Addr) -> Result<u64> {
        m.charge(m.costs().alloc_op / 2);
        let off = addr.0.wrapping_sub(self.base.0);
        match self.live.remove(&off) {
            Some(size) => {
                self.stats.on_free(size);
                Ok(size)
            }
            None => Err(Fault::HardeningAbort {
                mechanism: "alloc",
                reason: format!("invalid free of {addr} (bump allocator)"),
            }),
        }
    }

    fn size_of(&self, addr: Addr) -> Option<u64> {
        self.live.get(&addr.0.wrapping_sub(self.base.0)).copied()
    }

    fn region(&self) -> (Addr, u64) {
        (self.base, self.len)
    }

    fn stats(&self) -> AllocStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "bump"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::testutil::region;

    #[test]
    fn allocations_are_sequential_and_aligned() {
        let (mut m, base) = region(4096);
        let mut a = BumpAllocator::new(base, 4096);
        let x = a.alloc(&mut m, 10, 8).unwrap();
        let y = a.alloc(&mut m, 10, 64).unwrap();
        assert!(y.0 >= x.0 + 10);
        assert_eq!(y.0 % 64, 0);
    }

    #[test]
    fn exhaustion_faults() {
        let (mut m, base) = region(4096);
        let mut a = BumpAllocator::new(base, 128);
        a.alloc(&mut m, 100, 8).unwrap();
        assert!(a.alloc(&mut m, 100, 8).is_err());
    }

    #[test]
    fn free_does_not_reclaim_but_reset_does() {
        let (mut m, base) = region(4096);
        let mut a = BumpAllocator::new(base, 64);
        let x = a.alloc(&mut m, 40, 8).unwrap();
        a.free(&mut m, x).unwrap();
        assert!(a.alloc(&mut m, 40, 8).is_err()); // no reuse
        a.reset();
        a.alloc(&mut m, 40, 8).unwrap(); // arena reset reclaims
    }

    #[test]
    fn invalid_free_is_detected() {
        let (mut m, base) = region(4096);
        let mut a = BumpAllocator::new(base, 4096);
        assert!(a.free(&mut m, Addr(base.0 + 8)).is_err());
    }

    #[test]
    fn size_of_reports_live_allocations() {
        let (mut m, base) = region(4096);
        let mut a = BumpAllocator::new(base, 4096);
        let x = a.alloc(&mut m, 33, 8).unwrap();
        assert_eq!(a.size_of(x), Some(33));
        a.free(&mut m, x).unwrap();
        assert_eq!(a.size_of(x), None);
    }

    #[test]
    fn charges_cycles() {
        let (mut m, base) = region(4096);
        let mut a = BumpAllocator::new(base, 4096);
        let c0 = m.clock().cycles();
        a.alloc(&mut m, 8, 8).unwrap();
        assert!(m.clock().cycles() > c0);
    }
}
