//! Per-vCPU software TLB: a direct-mapped translation cache.
//!
//! Real MPK systems (the paper's §3 backends, ERIM, Hodor) get their
//! speed from the hardware TLB caching virtual→physical translations
//! while PKRU is checked architecturally on *every* access. This module
//! models that split for the simulator's own benefit: the cache holds
//! [`PageEntry`] results of the extent page-table walk — translation
//! only — while the writable-bit and PKRU checks still run per access in
//! `Machine` against current vCPU state. Faults and simulated cycle
//! charges are therefore byte-for-byte identical with the cache hot,
//! cold, or disabled; the TLB only saves *host* time.
//!
//! Coherence is generational: each [`crate::page::PageTable`] bumps a
//! counter on every mutation, entries are tagged with the counter value
//! at fill time, and a lookup whose tag does not match the table's
//! current generation misses. One page-table edit thus lazily
//! invalidates every cached translation of that VM — no eager flush, no
//! way to read through a stale mapping after unmap/retag/seal.

use crate::addr::Vpn;
use crate::page::PageEntry;
use crate::vm::VmId;

/// Number of entries in one vCPU's TLB (direct-mapped by `vpn % 64`).
pub const TLB_ENTRIES: usize = 64;

#[derive(Debug, Clone, Copy)]
struct TlbSlot {
    vm: VmId,
    vpn: u64,
    generation: u64,
    entry: PageEntry,
    valid: bool,
}

impl TlbSlot {
    const EMPTY: TlbSlot = TlbSlot {
        vm: VmId(0),
        vpn: 0,
        generation: 0,
        entry: PageEntry {
            pfn: crate::addr::Pfn(0),
            flags: crate::page::PageFlags::RO,
            key: crate::pkey::ProtKey(0),
        },
        valid: false,
    };
}

/// One vCPU's direct-mapped translation cache.
#[derive(Debug, Clone)]
pub struct Tlb {
    slots: [TlbSlot; TLB_ENTRIES],
}

impl Default for Tlb {
    fn default() -> Self {
        Self::new()
    }
}

impl Tlb {
    /// An empty TLB.
    pub fn new() -> Self {
        Self {
            slots: [TlbSlot::EMPTY; TLB_ENTRIES],
        }
    }

    #[inline]
    fn index(vpn: Vpn) -> usize {
        (vpn.0 as usize) % TLB_ENTRIES
    }

    /// Looks up a cached walk result for `(vm, vpn)`. Hits only when the
    /// slot was filled under the page table's current `generation`;
    /// entries cached before any mutation of that VM's table miss here
    /// and get refilled from the walk.
    #[inline]
    pub fn lookup(&self, vm: VmId, vpn: Vpn, generation: u64) -> Option<PageEntry> {
        let s = &self.slots[Self::index(vpn)];
        if s.valid && s.vm == vm && s.vpn == vpn.0 && s.generation == generation {
            Some(s.entry)
        } else {
            None
        }
    }

    /// Caches a successful walk result, evicting whatever shared the slot.
    #[inline]
    pub fn insert(&mut self, vm: VmId, vpn: Vpn, generation: u64, entry: PageEntry) {
        self.slots[Self::index(vpn)] = TlbSlot {
            vm,
            vpn: vpn.0,
            generation,
            entry,
            valid: true,
        };
    }

    /// Drops every entry (not needed for correctness — generations
    /// already fence stale entries — but lets tests start cold).
    pub fn clear(&mut self) {
        self.slots = [TlbSlot::EMPTY; TLB_ENTRIES];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Pfn;
    use crate::page::PageFlags;
    use crate::pkey::ProtKey;

    fn entry(pfn: u64) -> PageEntry {
        PageEntry {
            pfn: Pfn(pfn),
            flags: PageFlags::RW,
            key: ProtKey(0),
        }
    }

    #[test]
    fn lookup_misses_cold_and_hits_after_insert() {
        let mut t = Tlb::new();
        assert!(t.lookup(VmId(0), Vpn(5), 0).is_none());
        t.insert(VmId(0), Vpn(5), 0, entry(9));
        assert_eq!(t.lookup(VmId(0), Vpn(5), 0).unwrap().pfn, Pfn(9));
    }

    #[test]
    fn generation_mismatch_misses() {
        let mut t = Tlb::new();
        t.insert(VmId(0), Vpn(5), 3, entry(9));
        assert!(t.lookup(VmId(0), Vpn(5), 4).is_none());
        assert!(t.lookup(VmId(0), Vpn(5), 2).is_none());
        assert!(t.lookup(VmId(0), Vpn(5), 3).is_some());
    }

    #[test]
    fn vm_and_vpn_are_part_of_the_key() {
        let mut t = Tlb::new();
        t.insert(VmId(1), Vpn(5), 0, entry(9));
        assert!(t.lookup(VmId(0), Vpn(5), 0).is_none());
        // Same direct-mapped slot, different vpn: must not alias.
        let aliased = Vpn(5 + TLB_ENTRIES as u64);
        assert!(t.lookup(VmId(1), aliased, 0).is_none());
    }

    #[test]
    fn colliding_vpns_evict() {
        let mut t = Tlb::new();
        t.insert(VmId(0), Vpn(1), 0, entry(10));
        t.insert(VmId(0), Vpn(1 + TLB_ENTRIES as u64), 0, entry(20));
        assert!(t.lookup(VmId(0), Vpn(1), 0).is_none());
        assert_eq!(
            t.lookup(VmId(0), Vpn(1 + TLB_ENTRIES as u64), 0)
                .unwrap()
                .pfn,
            Pfn(20)
        );
    }

    #[test]
    fn clear_empties_every_slot() {
        let mut t = Tlb::new();
        t.insert(VmId(0), Vpn(7), 0, entry(1));
        t.clear();
        assert!(t.lookup(VmId(0), Vpn(7), 0).is_none());
    }
}
