//! Memory-allocator micro-libraries (`ukalloc` in Unikraft terms).
//!
//! FlexOS makes the allocator a first-class compartmentalization concern:
//!
//! * the VM backend *requires* one allocator per compartment ("each
//!   compartment needs its own memory allocator and scheduler", §3);
//! * SH techniques instrument `malloc`, so "FlexOS can be configured to
//!   use separate memory allocators per compartment to avoid such
//!   overheads when only a subset of compartments are hardened" (§3) —
//!   the point of Figure 4's global-vs-local allocator experiment.
//!
//! Three allocator designs are provided ([`BumpAllocator`],
//! [`FreeListAllocator`], [`BuddyAllocator`]), all implementing
//! [`Allocator`] over a region of *simulated* memory, plus
//! [`HeapService`] which dispatches per compartment (global or dedicated
//! mode).

pub mod buddy;
pub mod bump;
pub mod list;
pub mod percpt;

pub use buddy::BuddyAllocator;
pub use bump::BumpAllocator;
pub use list::FreeListAllocator;
pub use percpt::{AllocMode, HeapService};

use flexos_machine::{Addr, Machine, Result};

/// Usage statistics for an allocator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Number of successful allocations.
    pub allocs: u64,
    /// Number of frees.
    pub frees: u64,
    /// Bytes currently allocated (as requested, not counting padding).
    pub live_bytes: u64,
    /// High-water mark of `live_bytes`.
    pub peak_bytes: u64,
}

impl AllocStats {
    pub(crate) fn on_alloc(&mut self, size: u64) {
        self.allocs += 1;
        self.live_bytes += size;
        self.peak_bytes = self.peak_bytes.max(self.live_bytes);
    }

    pub(crate) fn on_free(&mut self, size: u64) {
        self.frees += 1;
        self.live_bytes = self.live_bytes.saturating_sub(size);
    }
}

/// A heap allocator over a region of simulated memory.
///
/// Implementations keep their bookkeeping host-side (the allocator *is*
/// the micro-library; what lives in simulated memory is the payload), and
/// charge the machine's `alloc_op` cost per operation so allocation
/// pressure shows up in throughput numbers.
pub trait Allocator: std::fmt::Debug {
    /// Allocates `size` bytes aligned to `align` (a power of two).
    /// Returns the payload address. A zero-size request is a valid
    /// allocation accounted as one byte (`size.max(1)`) by `size_of`,
    /// `stats` and `free` alike.
    fn alloc(&mut self, m: &mut Machine, size: u64, align: u64) -> Result<Addr>;

    /// Frees an allocation previously returned by [`Allocator::alloc`],
    /// returning the size it was accounted at (what [`Allocator::size_of`]
    /// said and what leaves `stats().live_bytes`).
    fn free(&mut self, m: &mut Machine, addr: Addr) -> Result<u64>;

    /// Size of the live allocation at `addr`, if any (used by hardening
    /// layers for bounds metadata).
    fn size_of(&self, addr: Addr) -> Option<u64>;

    /// The managed region as `(base, len)`.
    fn region(&self) -> (Addr, u64);

    /// Usage statistics.
    fn stats(&self) -> AllocStats;

    /// Short implementation name.
    fn name(&self) -> &'static str;
}

/// Rounds `v` up to the next multiple of `align` (a power of two).
pub(crate) fn align_up(v: u64, align: u64) -> u64 {
    debug_assert!(align.is_power_of_two());
    (v + align - 1) & !(align - 1)
}

/// Returns an "out of heap" fault for a failed allocation.
pub(crate) fn heap_exhausted(requested: u64) -> flexos_machine::Fault {
    flexos_machine::Fault::OutOfMemory {
        requested_pages: requested.div_ceil(4096),
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use flexos_machine::{Addr, Machine, PageFlags, ProtKey, VmId};

    /// Allocates a fresh test region of `bytes` on a fresh machine.
    pub fn region(bytes: u64) -> (Machine, Addr) {
        let mut m = Machine::with_defaults();
        let base = m
            .alloc_region(VmId(0), bytes, ProtKey(0), PageFlags::RW)
            .unwrap();
        (m, base)
    }

    /// Exercises an allocator with a deterministic workload and checks
    /// non-overlap + alignment invariants.
    pub fn check_no_overlap<A: super::Allocator>(mut a: A, m: &mut Machine) {
        let mut live: Vec<(u64, u64)> = Vec::new();
        let sizes = [8u64, 24, 100, 512, 64, 1, 4096, 16];
        for (i, &s) in sizes.iter().cycle().take(64).enumerate() {
            let align = 1 << (i % 5);
            match a.alloc(m, s, align) {
                Ok(addr) => {
                    assert_eq!(addr.0 % align, 0, "misaligned allocation");
                    for &(b, len) in &live {
                        let disjoint = addr.0 + s <= b || b + len <= addr.0;
                        assert!(disjoint, "overlap: [{:#x};{s}) with [{b:#x};{len})", addr.0);
                    }
                    live.push((addr.0, s));
                }
                Err(_) => {
                    // Free half the live set and continue.
                    for _ in 0..live.len() / 2 {
                        let (b, _) = live.remove(0);
                        a.free(m, Addr(b)).unwrap();
                    }
                }
            }
        }
        for (b, _) in live {
            a.free(m, Addr(b)).unwrap();
        }
        assert_eq!(a.stats().live_bytes, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn align_up_powers_of_two() {
        assert_eq!(align_up(0, 8), 0);
        assert_eq!(align_up(1, 8), 8);
        assert_eq!(align_up(8, 8), 8);
        assert_eq!(align_up(9, 16), 16);
    }

    #[test]
    fn stats_track_watermark() {
        let mut s = AllocStats::default();
        s.on_alloc(100);
        s.on_alloc(50);
        s.on_free(100);
        s.on_alloc(10);
        assert_eq!(s.live_bytes, 60);
        assert_eq!(s.peak_bytes, 150);
        assert_eq!(s.allocs, 3);
        assert_eq!(s.frees, 1);
    }
}
