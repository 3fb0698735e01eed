//! First-fit free-list allocator with coalescing — the general-purpose
//! heap (the role Unikraft's default allocator plays).
//!
//! Host-side bookkeeping is flat (DESIGN.md §6.13): the free blocks are
//! a vector sorted by offset and the live blocks a hashed table, because
//! every heap this workspace boots holds a handful of each. `alloc` is an
//! O(free blocks) scan over contiguous memory with at most one element
//! shifted in or out; `free` is an O(1) lookup, an O(log n) search and at
//! most one O(n) shift. `tests/alloc_equiv.rs` holds the ordered-map
//! reference the decisions are differenced against.

use super::{align_up, heap_exhausted, AllocStats, Allocator};
use flexos_machine::{Addr, Fault, FixedMap, Machine, Result};

/// Minimum block granularity (keeps fragmentation bookkeeping sane).
const GRAIN: u64 = 16;

/// A first-fit allocator over `[base, base+len)` with free-block
/// coalescing on `free`.
///
/// Bookkeeping is exact: every byte of the region is, at all times, in
/// exactly one free block or one live block (live blocks may include
/// sub-[`GRAIN`] padding around the payload).
#[derive(Debug)]
pub struct FreeListAllocator {
    base: Addr,
    len: u64,
    /// Free blocks `(offset, length)`, sorted by offset; disjoint and
    /// coalesced.
    free: Vec<(u64, u64)>,
    /// Live blocks: payload offset → (block offset, block length,
    /// requested size). Probed and, in `audit`, sorted — never iterated
    /// for an output.
    live: FixedMap<u64, (u64, u64, u64)>,
    stats: AllocStats,
}

impl FreeListAllocator {
    /// Creates an allocator over the region.
    pub fn new(base: Addr, len: u64) -> Self {
        Self {
            base,
            len,
            free: if len > 0 { vec![(0, len)] } else { Vec::new() },
            live: FixedMap::default(),
            stats: AllocStats::default(),
        }
    }

    /// Number of free blocks (fragmentation indicator).
    pub fn free_blocks(&self) -> usize {
        self.free.len()
    }

    /// Total free bytes.
    pub fn free_bytes(&self) -> u64 {
        self.free.iter().map(|&(_, len)| len).sum()
    }

    /// Checks internal invariants: free and live blocks are disjoint,
    /// coalesced (free side), and exactly cover the region.
    pub fn audit(&self) -> bool {
        let mut blocks: Vec<(u64, u64, bool)> = self
            .free
            .iter()
            .map(|&(o, l)| (o, l, true))
            .chain(self.live.values().map(|&(o, l, _)| (o, l, false)))
            .collect();
        blocks.sort_unstable();
        let mut cursor = 0u64;
        let mut prev_free = false;
        for (off, len, is_free) in blocks {
            if off != cursor || len == 0 {
                return false;
            }
            if is_free && prev_free {
                return false; // uncoalesced neighbours
            }
            prev_free = is_free;
            cursor = off + len;
        }
        cursor == self.len
    }

    /// Returns `[start, start+len)` to the free list, merging it with a
    /// free neighbour on either side.
    fn insert_free_coalescing(&mut self, start: u64, len: u64) {
        let i = self.free.partition_point(|&(off, _)| off < start);
        let joins_left = i > 0 && self.free[i - 1].0 + self.free[i - 1].1 == start;
        let joins_right = i < self.free.len() && self.free[i].0 == start + len;
        match (joins_left, joins_right) {
            (true, true) => {
                self.free[i - 1].1 += len + self.free[i].1;
                self.free.remove(i);
            }
            (true, false) => self.free[i - 1].1 += len,
            (false, true) => self.free[i] = (start, len + self.free[i].1),
            (false, false) => self.free.insert(i, (start, len)),
        }
    }
}

impl Allocator for FreeListAllocator {
    fn alloc(&mut self, m: &mut Machine, size: u64, align: u64) -> Result<Addr> {
        m.charge(m.costs().alloc_op);
        let size = size.max(1);
        let base = self.base.0;
        // First fit: the lowest free block that can host an aligned payload.
        let fit = self.free.iter().enumerate().find_map(|(i, &(off, blen))| {
            let payload = align_up(base + off, align) - base;
            let head_pad = payload - off;
            (head_pad <= blen && blen - head_pad >= size).then_some((i, off, blen, payload))
        });
        let Some((i, off, blen, payload)) = fit else {
            return Err(heap_exhausted(size));
        };

        // A head or tail split goes back to the free list if it is big
        // enough to be useful; otherwise it stays in the block. The slot
        // found is edited in place: `off < used_end < next block`, so
        // the order holds.
        let head_pad = payload - off;
        let used_end = payload + size;
        let tail = off + blen - used_end;
        let (keep_head, keep_tail) = (head_pad >= GRAIN, tail >= GRAIN);
        let block_off = if keep_head { payload } else { off };
        let block_end = if keep_tail { used_end } else { off + blen };
        match (keep_head, keep_tail) {
            (true, true) => {
                self.free[i].1 = head_pad;
                self.free.insert(i + 1, (used_end, tail));
            }
            (true, false) => self.free[i].1 = head_pad,
            (false, true) => self.free[i] = (used_end, tail),
            (false, false) => drop(self.free.remove(i)),
        }

        self.live
            .insert(payload, (block_off, block_end - block_off, size));
        self.stats.on_alloc(size);
        Ok(Addr(base + payload))
    }

    fn free(&mut self, m: &mut Machine, addr: Addr) -> Result<u64> {
        m.charge(m.costs().alloc_op);
        let payload = addr.0.wrapping_sub(self.base.0);
        let Some((block_off, block_len, size)) = self.live.remove(&payload) else {
            return Err(Fault::HardeningAbort {
                mechanism: "alloc",
                reason: format!("invalid or double free of {addr}"),
            });
        };
        self.stats.on_free(size);
        self.insert_free_coalescing(block_off, block_len);
        Ok(size)
    }

    fn size_of(&self, addr: Addr) -> Option<u64> {
        self.live
            .get(&addr.0.wrapping_sub(self.base.0))
            .map(|&(_, _, size)| size)
    }

    fn region(&self) -> (Addr, u64) {
        (self.base, self.len)
    }

    fn stats(&self) -> AllocStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "freelist"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::testutil::{check_no_overlap, region};

    #[test]
    fn alloc_free_reuses_memory() {
        let (mut m, base) = region(4096);
        let mut a = FreeListAllocator::new(base, 256);
        let x = a.alloc(&mut m, 200, 8).unwrap();
        assert!(a.alloc(&mut m, 200, 8).is_err());
        a.free(&mut m, x).unwrap();
        a.alloc(&mut m, 200, 8).unwrap();
        assert!(a.audit());
    }

    #[test]
    fn coalescing_rebuilds_large_blocks() {
        let (mut m, base) = region(4096);
        let mut a = FreeListAllocator::new(base, 4096);
        let blocks: Vec<_> = (0..8).map(|_| a.alloc(&mut m, 512, 16).unwrap()).collect();
        assert!(a.alloc(&mut m, 512, 16).is_err());
        // Free in a scrambled order to exercise both coalescing sides.
        for &i in &[3usize, 1, 7, 5, 0, 2, 6, 4] {
            a.free(&mut m, blocks[i]).unwrap();
        }
        assert!(a.audit());
        assert_eq!(a.free_blocks(), 1);
        a.alloc(&mut m, 4096, 16).unwrap();
    }

    #[test]
    fn double_free_is_detected() {
        let (mut m, base) = region(4096);
        let mut a = FreeListAllocator::new(base, 4096);
        let x = a.alloc(&mut m, 64, 8).unwrap();
        a.free(&mut m, x).unwrap();
        assert!(a.free(&mut m, x).is_err());
    }

    #[test]
    fn alignment_is_respected_and_accounted() {
        let (mut m, base) = region(8192);
        let mut a = FreeListAllocator::new(base, 8192);
        a.alloc(&mut m, 3, 8).unwrap();
        let x = a.alloc(&mut m, 64, 256).unwrap();
        assert_eq!(x.0 % 256, 0);
        assert!(a.audit());
    }

    #[test]
    fn no_overlap_under_mixed_workload() {
        let (mut m, base) = region(64 * 1024);
        let a = FreeListAllocator::new(base, 64 * 1024);
        check_no_overlap(a, &mut m);
    }

    #[test]
    fn free_bytes_conserved_after_full_release() {
        let (mut m, base) = region(4096);
        let mut a = FreeListAllocator::new(base, 4096);
        let before = a.free_bytes();
        let x = a.alloc(&mut m, 100, 8).unwrap();
        let y = a.alloc(&mut m, 300, 64).unwrap();
        let z = a.alloc(&mut m, 7, 8).unwrap();
        for p in [y, x, z] {
            a.free(&mut m, p).unwrap();
        }
        assert!(a.audit());
        assert_eq!(a.free_bytes(), before);
        assert_eq!(a.free_blocks(), 1);
    }

    #[test]
    fn zero_size_allocs_are_valid() {
        let (mut m, base) = region(4096);
        let mut a = FreeListAllocator::new(base, 4096);
        let x = a.alloc(&mut m, 0, 8).unwrap();
        assert!(a.size_of(x).is_some());
        a.free(&mut m, x).unwrap();
        assert!(a.audit());
    }

    #[test]
    fn audit_holds_at_every_step() {
        let (mut m, base) = region(16 * 1024);
        let mut a = FreeListAllocator::new(base, 16 * 1024);
        let mut live = Vec::new();
        for i in 0..40u64 {
            if i % 3 == 2 && !live.is_empty() {
                let p = live.remove(live.len() / 2);
                a.free(&mut m, p).unwrap();
            } else {
                let sz = 17 + (i * 37) % 400;
                let al = 1 << (i % 6);
                if let Ok(p) = a.alloc(&mut m, sz, al) {
                    live.push(p);
                }
            }
            assert!(a.audit(), "invariant broken at step {i}");
        }
    }

    /// A checkerboard of 64-byte holes from the bottom up, then the
    /// untouched tail, is exactly that many free blocks — and stays so
    /// under alloc/free pairs, whether a pair takes and returns the
    /// lowest hole or scans past every hole to carve the tail.
    #[test]
    fn a_fragmented_heap_keeps_its_free_block_count_under_alloc_free_pairs() {
        for free_blocks in [1usize, 64, 4096] {
            let (mut m, base) = region(1 << 20);
            let mut a = FreeListAllocator::new(base, 1 << 20);
            let blocks: Vec<_> = (0..2 * (free_blocks - 1))
                .map(|_| a.alloc(&mut m, 64, 16).unwrap())
                .collect();
            for &p in blocks.iter().step_by(2) {
                a.free(&mut m, p).unwrap();
            }
            assert_eq!(a.free_blocks(), free_blocks);
            for size in [64u64, 4096] {
                for _ in 0..100 {
                    let p = a.alloc(&mut m, size, 16).unwrap();
                    a.free(&mut m, p).unwrap();
                }
                assert_eq!(a.free_blocks(), free_blocks, "{size}-byte pairs");
            }
            assert!(a.audit());
        }
    }
}
