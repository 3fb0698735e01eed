//! Binary-buddy allocator (Unikraft ships `ukallocbbuddy`; the VM backend
//! instantiates one per compartment).

use super::{heap_exhausted, AllocStats, Allocator};
use flexos_machine::{Addr, Fault, Machine, Result};
use std::collections::{BTreeMap, BTreeSet};

/// Smallest block order (2^5 = 32 bytes).
const MIN_ORDER: u32 = 5;

/// A binary-buddy allocator over a power-of-two region.
#[derive(Debug)]
pub struct BuddyAllocator {
    base: Addr,
    len: u64,
    max_order: u32,
    /// Free blocks per order: offsets.
    free: Vec<BTreeSet<u64>>,
    /// Live allocations: offset → (order, requested size).
    live: BTreeMap<u64, (u32, u64)>,
    stats: AllocStats,
}

impl BuddyAllocator {
    /// Creates a buddy allocator; `len` must be a power of two ≥ 32.
    ///
    /// # Panics
    ///
    /// Panics if `len` is not a power of two or is below the minimum
    /// block size.
    pub fn new(base: Addr, len: u64) -> Self {
        assert!(len.is_power_of_two(), "buddy region must be a power of two");
        assert!(len >= 1 << MIN_ORDER, "buddy region too small");
        let max_order = len.trailing_zeros();
        let mut free: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); (max_order + 1) as usize];
        free[max_order as usize].insert(0);
        Self {
            base,
            len,
            max_order,
            free,
            live: BTreeMap::new(),
            stats: AllocStats::default(),
        }
    }

    fn order_for(&self, size: u64) -> u32 {
        let needed = size.max(1).next_power_of_two().trailing_zeros();
        needed.max(MIN_ORDER)
    }

    /// Total free bytes across all orders.
    pub fn free_bytes(&self) -> u64 {
        self.free
            .iter()
            .enumerate()
            .map(|(o, set)| (set.len() as u64) << o)
            .sum()
    }

    /// Checks the buddy invariants: blocks aligned to their order, no
    /// buddy pair both free (they would have been merged).
    pub fn audit(&self) -> bool {
        for (order, set) in self.free.iter().enumerate() {
            for &off in set {
                if off % (1u64 << order) != 0 {
                    return false;
                }
                let buddy = off ^ (1u64 << order);
                if set.contains(&buddy) && buddy != off {
                    return false; // unmerged buddies
                }
            }
        }
        true
    }
}

impl Allocator for BuddyAllocator {
    fn alloc(&mut self, m: &mut Machine, size: u64, align: u64) -> Result<Addr> {
        m.charge(m.costs().alloc_op);
        let size = size.max(1);
        // Buddy blocks are naturally aligned to their size; bump the order
        // until alignment is satisfied.
        let mut order = self.order_for(size.max(align));
        if order > self.max_order {
            return Err(heap_exhausted(size));
        }
        // Find the smallest order ≥ `order` with a free block.
        let mut found = None;
        for o in order..=self.max_order {
            if let Some(&off) = self.free[o as usize].iter().next() {
                found = Some((o, off));
                break;
            }
        }
        let Some((mut o, off)) = found else {
            return Err(heap_exhausted(size));
        };
        self.free[o as usize].remove(&off);
        // Split down to the target order.
        while o > order {
            o -= 1;
            let buddy = off + (1u64 << o);
            self.free[o as usize].insert(buddy);
        }
        order = o;
        self.live.insert(off, (order, size));
        self.stats.on_alloc(size);
        Ok(Addr(self.base.0 + off))
    }

    fn free(&mut self, m: &mut Machine, addr: Addr) -> Result<u64> {
        m.charge(m.costs().alloc_op);
        let mut off = addr.0.wrapping_sub(self.base.0);
        let Some((mut order, size)) = self.live.remove(&off) else {
            return Err(Fault::HardeningAbort {
                mechanism: "alloc",
                reason: format!("invalid or double free of {addr} (buddy)"),
            });
        };
        self.stats.on_free(size);
        // Merge with the buddy as long as it is free.
        while order < self.max_order {
            let buddy = off ^ (1u64 << order);
            if !self.free[order as usize].remove(&buddy) {
                break;
            }
            off = off.min(buddy);
            order += 1;
        }
        self.free[order as usize].insert(off);
        Ok(size)
    }

    fn size_of(&self, addr: Addr) -> Option<u64> {
        self.live
            .get(&addr.0.wrapping_sub(self.base.0))
            .map(|&(_, size)| size)
    }

    fn region(&self) -> (Addr, u64) {
        (self.base, self.len)
    }

    fn stats(&self) -> AllocStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "buddy"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::testutil::{check_no_overlap, region};

    #[test]
    fn blocks_are_power_of_two_aligned() {
        let (mut m, base) = region(4096);
        let mut a = BuddyAllocator::new(base, 4096);
        let x = a.alloc(&mut m, 100, 8).unwrap(); // order 7 (128)
        assert_eq!((x.0 - base.0) % 128, 0);
    }

    #[test]
    fn split_and_merge_round_trip() {
        let (mut m, base) = region(4096);
        let mut a = BuddyAllocator::new(base, 4096);
        let before = a.free_bytes();
        let blocks: Vec<_> = (0..4).map(|_| a.alloc(&mut m, 1000, 8).unwrap()).collect();
        assert!(a.alloc(&mut m, 1000, 8).is_err()); // 4×1024 fills 4096
        for b in blocks {
            a.free(&mut m, b).unwrap();
        }
        assert!(a.audit());
        assert_eq!(a.free_bytes(), before);
        // Fully merged again: a max-size block is allocatable.
        a.alloc(&mut m, 4096, 8).unwrap();
    }

    #[test]
    fn audit_rejects_nothing_under_normal_use() {
        let (mut m, base) = region(8192);
        let mut a = BuddyAllocator::new(base, 8192);
        let mut live = Vec::new();
        for i in 0..50u64 {
            if i % 4 == 3 && !live.is_empty() {
                a.free(&mut m, live.remove(0)).unwrap();
            } else if let Ok(p) = a.alloc(&mut m, 33 + (i * 61) % 500, 8) {
                live.push(p);
            }
            assert!(a.audit(), "buddy invariant broken at step {i}");
        }
    }

    #[test]
    fn double_free_is_detected() {
        let (mut m, base) = region(4096);
        let mut a = BuddyAllocator::new(base, 4096);
        let x = a.alloc(&mut m, 64, 8).unwrap();
        a.free(&mut m, x).unwrap();
        assert!(a.free(&mut m, x).is_err());
    }

    #[test]
    fn oversized_requests_fail_cleanly() {
        let (mut m, base) = region(4096);
        let mut a = BuddyAllocator::new(base, 4096);
        assert!(a.alloc(&mut m, 8192, 8).is_err());
    }

    #[test]
    fn no_overlap_under_mixed_workload() {
        let (mut m, base) = region(64 * 1024);
        let a = BuddyAllocator::new(base, 64 * 1024);
        check_no_overlap(a, &mut m);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_region_panics() {
        let (_m, base) = region(4096);
        let _ = BuddyAllocator::new(base, 3000);
    }

    #[test]
    fn large_alignment_is_honored() {
        let (mut m, base) = region(8192);
        let mut a = BuddyAllocator::new(base, 8192);
        a.alloc(&mut m, 10, 8).unwrap();
        let x = a.alloc(&mut m, 10, 1024).unwrap();
        assert_eq!((x.0 - base.0) % 1024, 0);
    }
}
