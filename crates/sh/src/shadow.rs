//! ASAN-style shadow state: redzones, liveness, and a quarantine.
//!
//! The instrumented allocator pads every allocation with redzones and
//! tracks liveness; freed blocks sit in a quarantine so use-after-free
//! keeps faulting instead of silently hitting a reused block. This is the
//! in-kernel KASAN design the paper enables per compartment.

use flexos_machine::{Addr, Fault, Result};
use std::collections::{BTreeMap, VecDeque};

/// Redzone bytes placed before and after every instrumented allocation.
pub const REDZONE: u64 = 16;

/// Number of freed blocks kept poisoned before their slot is recycled.
pub const QUARANTINE_DEPTH: usize = 64;

/// State of one tracked block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockState {
    Live,
    Quarantined,
}

#[derive(Debug, Clone, Copy)]
struct Block {
    /// Payload base (inside the redzones).
    payload: u64,
    /// Payload size as requested.
    size: u64,
    state: BlockState,
}

/// Shadow memory for one compartment's instrumented heap.
#[derive(Debug, Default)]
pub struct Shadow {
    /// Tracked blocks keyed by *outer* base (start of leading redzone).
    blocks: BTreeMap<u64, Block>,
    /// FIFO of quarantined outer bases.
    quarantine: VecDeque<u64>,
    /// Heap ranges this shadow covers (accesses outside are not ASAN's
    /// concern).
    ranges: Vec<(u64, u64)>,
}

/// What a shadow lookup says about an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Access entirely inside a live payload.
    Ok,
    /// Access not covered by this shadow (not heap memory we track).
    Untracked,
    /// Access touches a redzone (heap overflow/underflow).
    Redzone,
    /// Access touches freed (quarantined) memory.
    UseAfterFree,
    /// Access inside the tracked heap but not in any allocation.
    WildAccess,
}

impl Shadow {
    /// Creates an empty shadow.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a heap range `[base, base+len)` as covered.
    pub fn cover(&mut self, base: Addr, len: u64) {
        self.ranges.push((base.0, len));
    }

    /// Whether `[addr, addr+len)` intersects a covered range.
    fn tracked(&self, addr: u64, len: u64) -> bool {
        self.ranges
            .iter()
            .any(|&(b, l)| addr < b + l && addr + len > b)
    }

    /// Records an allocation: the caller allocated `outer` of
    /// `size + 2*REDZONE` bytes; payload starts at `outer + REDZONE`.
    pub fn on_alloc(&mut self, outer: Addr, size: u64) {
        self.blocks.insert(
            outer.0,
            Block {
                payload: outer.0 + REDZONE,
                size,
                state: BlockState::Live,
            },
        );
    }

    /// Marks the block with payload base `payload` as freed (quarantined).
    /// Returns the outer base to *eventually* release, once it leaves the
    /// quarantine — i.e. the block that `QUARANTINE_DEPTH` frees ago was
    /// quarantined, or `None` while the quarantine still fills up.
    pub fn on_free(&mut self, payload: Addr) -> Result<Option<Addr>> {
        let outer = payload.0 - REDZONE;
        match self.blocks.get_mut(&outer) {
            Some(b) if b.state == BlockState::Live => b.state = BlockState::Quarantined,
            Some(_) => {
                return Err(Fault::HardeningAbort {
                    mechanism: "asan",
                    reason: format!("double free of {payload}"),
                })
            }
            None => {
                return Err(Fault::HardeningAbort {
                    mechanism: "asan",
                    reason: format!("free of unallocated {payload}"),
                })
            }
        }
        self.quarantine.push_back(outer);
        if self.quarantine.len() > QUARANTINE_DEPTH {
            let released = self.quarantine.pop_front().expect("nonempty");
            self.blocks.remove(&released);
            return Ok(Some(Addr(released)));
        }
        Ok(None)
    }

    /// Classifies an access of `len` bytes at `addr`.
    pub fn classify(&self, addr: Addr, len: u64) -> Verdict {
        let len = len.max(1);
        if !self.tracked(addr.0, len) {
            return Verdict::Untracked;
        }
        // Find the closest block at or below addr, and the one after, to
        // decide what the access touches.
        let candidates = self
            .blocks
            .range(..=addr.0)
            .next_back()
            .into_iter()
            .chain(self.blocks.range(addr.0 + 1..).next());
        for (&outer, b) in candidates {
            let outer_end = b.payload + b.size + REDZONE;
            let overlaps = addr.0 < outer_end && addr.0 + len > outer;
            if !overlaps {
                continue;
            }
            if b.state == BlockState::Quarantined {
                return Verdict::UseAfterFree;
            }
            let inside_payload = addr.0 >= b.payload && addr.0 + len <= b.payload + b.size;
            if inside_payload {
                return Verdict::Ok;
            }
            return Verdict::Redzone;
        }
        Verdict::WildAccess
    }

    /// Payload size of the live block at `payload`, if any.
    pub fn live_size(&self, payload: Addr) -> Option<u64> {
        let outer = payload.0.checked_sub(REDZONE)?;
        self.blocks
            .get(&outer)
            .filter(|b| b.state == BlockState::Live)
            .map(|b| b.size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shadow_with_block(payload_at: u64, size: u64) -> Shadow {
        let mut s = Shadow::new();
        s.cover(Addr(0x1000), 0x10000);
        s.on_alloc(Addr(payload_at - REDZONE), size);
        s
    }

    #[test]
    fn in_bounds_access_is_ok() {
        let s = shadow_with_block(0x2000, 100);
        assert_eq!(s.classify(Addr(0x2000), 100), Verdict::Ok);
        assert_eq!(s.classify(Addr(0x2050), 8), Verdict::Ok);
    }

    #[test]
    fn overflow_into_redzone_is_caught() {
        let s = shadow_with_block(0x2000, 100);
        assert_eq!(s.classify(Addr(0x2000), 101), Verdict::Redzone);
        assert_eq!(s.classify(Addr(0x2064), 1), Verdict::Redzone); // one past end
        assert_eq!(s.classify(Addr(0x1ff8), 8), Verdict::Redzone); // underflow
    }

    #[test]
    fn use_after_free_is_caught_through_quarantine() {
        let mut s = shadow_with_block(0x2000, 100);
        assert_eq!(s.on_free(Addr(0x2000)).unwrap(), None);
        assert_eq!(s.classify(Addr(0x2000), 8), Verdict::UseAfterFree);
    }

    #[test]
    fn double_free_is_caught() {
        let mut s = shadow_with_block(0x2000, 100);
        s.on_free(Addr(0x2000)).unwrap();
        assert!(s.on_free(Addr(0x2000)).is_err());
    }

    #[test]
    fn free_of_unallocated_is_caught() {
        let mut s = shadow_with_block(0x2000, 100);
        assert!(s.on_free(Addr(0x3000)).is_err());
    }

    #[test]
    fn quarantine_eventually_releases_oldest() {
        let mut s = Shadow::new();
        s.cover(Addr(0x1000), 0x100000);
        let mut released = Vec::new();
        for i in 0..(QUARANTINE_DEPTH as u64 + 3) {
            let outer = 0x2000 + i * 0x100;
            s.on_alloc(Addr(outer), 16);
            if let Some(r) = s.on_free(Addr(outer + REDZONE)).unwrap() {
                released.push(r);
            }
        }
        assert_eq!(released.len(), 3);
        assert_eq!(released[0], Addr(0x2000)); // FIFO order
                                               // Released blocks are no longer tracked: wild, not UAF.
        assert_eq!(s.classify(Addr(0x2000 + REDZONE), 8), Verdict::WildAccess);
    }

    #[test]
    fn untracked_memory_is_ignored() {
        let s = shadow_with_block(0x2000, 100);
        assert_eq!(s.classify(Addr(0x90000), 8), Verdict::Untracked);
    }

    #[test]
    fn wild_access_inside_heap_is_flagged() {
        let s = shadow_with_block(0x2000, 100);
        assert_eq!(s.classify(Addr(0x8000), 8), Verdict::WildAccess);
    }

    #[test]
    fn live_size_reports_only_live_blocks() {
        let mut s = shadow_with_block(0x2000, 100);
        assert_eq!(s.live_size(Addr(0x2000)), Some(100));
        s.on_free(Addr(0x2000)).unwrap();
        assert_eq!(s.live_size(Addr(0x2000)), None);
    }
}
