//! Per-VM page tables: virtual page → physical frame + permissions + key.
//!
//! The table is sparse (a `BTreeMap` keyed by virtual page number). This
//! stands in for the x86-64 four-level structure: what matters for FlexOS
//! is *what the walk yields* — frame, writability, and the page's
//! protection key — not the radix layout.
//!
//! The MPK backend's trust argument (paper §3) hinges on who may edit this
//! structure: the memory manager's domain includes the page table, so the
//! MM must be trusted under MPK. The simulator enforces that by routing all
//! edits through [`PageTable`] methods that the machine only exposes to
//! holders of the MM capability (see `machine::Machine::map_page`).

use crate::addr::{Pfn, Vpn};
use crate::pkey::ProtKey;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Permissions and attributes of a mapped page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageFlags {
    /// Page may be written (hardware W bit).
    pub writable: bool,
}

impl PageFlags {
    /// Read-write mapping.
    pub const RW: PageFlags = PageFlags { writable: true };
    /// Read-only mapping.
    pub const RO: PageFlags = PageFlags { writable: false };
}

/// A page-table entry: the result of a successful walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageEntry {
    /// Backing physical frame.
    pub pfn: Pfn,
    /// Hardware permissions.
    pub flags: PageFlags,
    /// Protection key tagged on the page (MPK).
    pub key: ProtKey,
}

/// A sparse per-VM page table.
#[derive(Debug, Default)]
pub struct PageTable {
    entries: BTreeMap<u64, PageEntry>,
    /// When sealed, no further modifications are accepted (the paper's
    /// "page-table sealing" defense for PKRU integrity).
    sealed: bool,
    /// Bumped on every successful mutation (and on sealing). The
    /// machine's software TLB tags cached walk results with this
    /// counter, so any edit lazily invalidates every cached translation
    /// of the VM without an eager flush.
    ///
    /// The generation bump is the page table's *publication point*:
    /// mutators bump with `Release` after the edit, TLB-tag readers load
    /// with `Acquire`. Every shipped path drives a machine from one host
    /// thread (logical vCPUs are interleaved, not threaded), so today the
    /// atomic only keeps a shared `&PageTable` well-defined to read;
    /// mutation still goes through `&mut self` — the MM capability keeps
    /// edits exclusive.
    generation: AtomicU64,
}

impl Clone for PageTable {
    fn clone(&self) -> Self {
        Self {
            entries: self.entries.clone(),
            sealed: self.sealed,
            generation: AtomicU64::new(self.generation.load(Ordering::Acquire)),
        }
    }
}

impl PageTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Walks the table for `vpn`.
    #[inline]
    pub fn walk(&self, vpn: Vpn) -> Option<PageEntry> {
        self.entries.get(&vpn.0).copied()
    }

    /// Installs or replaces a mapping. Returns `false` (and does nothing)
    /// if the table is sealed.
    pub fn map(&mut self, vpn: Vpn, entry: PageEntry) -> bool {
        if self.sealed {
            return false;
        }
        self.entries.insert(vpn.0, entry);
        self.generation.fetch_add(1, Ordering::Release);
        true
    }

    /// Removes a mapping, returning it. Returns `None` if absent or sealed.
    pub fn unmap(&mut self, vpn: Vpn) -> Option<PageEntry> {
        if self.sealed {
            return None;
        }
        let e = self.entries.remove(&vpn.0);
        if e.is_some() {
            self.generation.fetch_add(1, Ordering::Release);
        }
        e
    }

    /// Re-tags an existing mapping with a new protection key.
    /// Returns `false` if the page is unmapped or the table is sealed.
    pub fn set_key(&mut self, vpn: Vpn, key: ProtKey) -> bool {
        if self.sealed {
            return false;
        }
        match self.entries.get_mut(&vpn.0) {
            Some(e) => {
                e.key = key;
                self.generation.fetch_add(1, Ordering::Release);
                true
            }
            None => false,
        }
    }

    /// Seals the table against further modification.
    pub fn seal(&mut self) {
        self.sealed = true;
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// The mutation counter TLB entries are tagged with.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Whether the table is sealed.
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// Number of mapped pages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no pages are mapped.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(vpn, entry)` pairs in address order.
    pub fn iter(&self) -> impl Iterator<Item = (Vpn, PageEntry)> + '_ {
        self.entries.iter().map(|(&v, &e)| (Vpn(v), e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pkey::DEFAULT_KEY;

    fn entry(pfn: u64) -> PageEntry {
        PageEntry {
            pfn: Pfn(pfn),
            flags: PageFlags::RW,
            key: DEFAULT_KEY,
        }
    }

    #[test]
    fn walk_finds_mapped_pages_only() {
        let mut pt = PageTable::new();
        assert!(pt.walk(Vpn(1)).is_none());
        pt.map(Vpn(1), entry(42));
        assert_eq!(pt.walk(Vpn(1)).unwrap().pfn, Pfn(42));
        assert!(pt.walk(Vpn(2)).is_none());
    }

    #[test]
    fn set_key_retags_mapped_pages() {
        let mut pt = PageTable::new();
        pt.map(Vpn(7), entry(1));
        assert!(pt.set_key(Vpn(7), ProtKey(5)));
        assert_eq!(pt.walk(Vpn(7)).unwrap().key, ProtKey(5));
        assert!(!pt.set_key(Vpn(8), ProtKey(5)));
    }

    #[test]
    fn sealing_blocks_all_mutation() {
        let mut pt = PageTable::new();
        pt.map(Vpn(1), entry(1));
        pt.seal();
        assert!(!pt.map(Vpn(2), entry(2)));
        assert!(pt.unmap(Vpn(1)).is_none());
        assert!(!pt.set_key(Vpn(1), ProtKey(3)));
        // Existing mappings still readable.
        assert!(pt.walk(Vpn(1)).is_some());
    }

    #[test]
    fn unmap_returns_the_entry() {
        let mut pt = PageTable::new();
        pt.map(Vpn(3), entry(9));
        let e = pt.unmap(Vpn(3)).unwrap();
        assert_eq!(e.pfn, Pfn(9));
        assert!(pt.is_empty());
    }
}
