//! Per-VM page tables: virtual page → physical frame + permissions + key.
//!
//! The table holds extents, not pages: a `BTreeMap` from an extent's
//! first virtual page number to its length and first entry, where page
//! `i` of the extent maps frame `first.pfn + i`. A region backed by one
//! run of frames is one entry, so booting, unmapping and re-keying cost
//! O(extents), not O(pages), and a walk is one range lookup. This stands
//! in for the x86-64 four-level structure: what matters for FlexOS is
//! *what the walk yields* — frame, writability, and the page's protection
//! key — not the radix layout. Every range operation behaves exactly as
//! the per-page loop over it would, down to whether the generation moves.
//!
//! The MPK backend's trust argument (paper §3) hinges on who may edit this
//! structure: the memory manager's domain includes the page table, so the
//! MM must be trusted under MPK. The simulator enforces that by routing all
//! edits through [`PageTable`] methods that the machine only exposes to
//! holders of the MM capability (see `machine::Machine::map_page`).

use crate::addr::{Pfn, Vpn};
use crate::pkey::ProtKey;
use std::collections::BTreeMap;

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

/// A run of virtually contiguous pages mapped onto physically contiguous
/// frames with one flags/key pair: page `i` of it maps `first.pfn + i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Extent {
    pages: u64,
    first: PageEntry,
}

impl Extent {
    #[inline]
    fn entry(&self, i: u64) -> PageEntry {
        PageEntry {
            pfn: Pfn(self.first.pfn.0 + i),
            ..self.first
        }
    }
}

/// A per-VM page table of maximal extents.
#[derive(Debug, Clone, Default)]
pub struct PageTable {
    /// First vpn → extent. Extents never overlap, and no extent continues
    /// its predecessor (adjacent pages, next frame, same flags and key):
    /// every edit merges such neighbours, so the map is canonical.
    extents: BTreeMap<u64, Extent>,
    /// When sealed, no further modifications are accepted (the paper's
    /// "page-table sealing" defense for PKRU integrity).
    sealed: bool,
    /// Bumped by every operation that changes at least one page (a
    /// `map` counts even when it writes an identical entry) and by
    /// sealing. The machine's software TLB tags cached walk results with
    /// this counter, so any edit lazily invalidates every cached
    /// translation of the VM without an eager flush.
    generation: u64,
}

impl PageTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Walks the table for `vpn`: one range lookup.
    #[inline]
    pub fn walk(&self, vpn: Vpn) -> Option<PageEntry> {
        let (&first, e) = self.extents.range(..=vpn.0).next_back()?;
        let i = vpn.0 - first;
        (i < e.pages).then(|| e.entry(i))
    }

    /// Installs or replaces a mapping. Returns `false` (and does nothing)
    /// if the table is sealed.
    pub fn map(&mut self, vpn: Vpn, entry: PageEntry) -> bool {
        self.map_range(vpn, 1, entry)
    }

    /// Maps `pages` pages from `vpn` on onto consecutive frames from
    /// `first.pfn` on, replacing what was there: as many `map` calls, one
    /// generation step. Returns `false` (and does nothing) if sealed.
    pub fn map_range(&mut self, vpn: Vpn, pages: u64, first: PageEntry) -> bool {
        if self.sealed {
            return false;
        }
        if pages > 0 {
            let end = vpn.0 + pages;
            self.split(vpn.0);
            self.split(end);
            self.remove(vpn.0, end);
            self.extents.insert(vpn.0, Extent { pages, first });
            self.merge(end);
            self.merge(vpn.0);
            self.generation += 1;
        }
        true
    }

    /// Removes a mapping, returning it. Returns `None` if absent or sealed.
    pub fn unmap(&mut self, vpn: Vpn) -> Option<PageEntry> {
        let e = self.walk(vpn)?;
        self.unmap_range(vpn, 1).ok().map(|()| e)
    }

    /// Removes `pages` mappings from `vpn` on, as a per-page `unmap`
    /// loop would: the pages before the first hole go, and the hole is
    /// the error. A sealed table refuses with `Err(vpn)` and changes
    /// nothing.
    pub fn unmap_range(&mut self, vpn: Vpn, pages: u64) -> Result<(), Vpn> {
        let stop = self.mapped_until(vpn, pages)?;
        self.remove(vpn.0, stop);
        (stop == vpn.0 + pages).then_some(()).ok_or(Vpn(stop))
    }

    /// Re-tags an existing mapping with a new protection key.
    /// Returns `false` if the page is unmapped or the table is sealed.
    pub fn set_key(&mut self, vpn: Vpn, key: ProtKey) -> bool {
        self.set_key_range(vpn, 1, key).is_ok()
    }

    /// Re-tags `pages` mappings from `vpn` on with `key`, as a per-page
    /// `set_key` loop would: the pages before the first hole change, and
    /// the hole is the error. A sealed table refuses with `Err(vpn)` and
    /// changes nothing.
    pub fn set_key_range(&mut self, vpn: Vpn, pages: u64, key: ProtKey) -> Result<(), Vpn> {
        let stop = self.mapped_until(vpn, pages)?;
        let mut at = vpn.0;
        while at < stop {
            let e = self.extents.get_mut(&at).expect("mapped up to the hole");
            e.first.key = key;
            let next = at + e.pages;
            self.merge(at);
            at = next;
        }
        self.merge(stop);
        (stop == vpn.0 + pages).then_some(()).ok_or(Vpn(stop))
    }

    /// Where a per-page loop over `pages` pages from `vpn` on would stop:
    /// at the first hole, or at the end. If that is past `vpn`, the pages
    /// before it are about to change: the generation moves, and extents
    /// are split to start at `vpn` and at the stop. `Err(vpn)` if sealed.
    fn mapped_until(&mut self, vpn: Vpn, pages: u64) -> Result<u64, Vpn> {
        if self.sealed {
            return Err(vpn);
        }
        let (end, mut stop) = (vpn.0 + pages, vpn.0);
        while let Some((&first, e)) = self.extents.range(..=stop).next_back() {
            if stop >= end || first + e.pages <= stop {
                break;
            }
            stop = first + e.pages;
        }
        let stop = stop.min(end);
        if stop > vpn.0 {
            self.split(vpn.0);
            self.split(stop);
            self.generation += 1;
        }
        Ok(stop)
    }

    /// Splits the extent covering `vpn`, if it starts before it, so that
    /// an extent starts at `vpn`.
    fn split(&mut self, vpn: u64) {
        if let Some((&first, e)) = self.extents.range_mut(..vpn).next_back() {
            let i = vpn - first;
            if i < e.pages {
                let tail = Extent {
                    pages: e.pages - i,
                    first: e.entry(i),
                };
                e.pages = i;
                self.extents.insert(vpn, tail);
            }
        }
    }

    /// Removes the extents that start in `[vpn, end)`.
    fn remove(&mut self, vpn: u64, end: u64) {
        while let Some((&first, _)) = self.extents.range(vpn..end).next() {
            self.extents.remove(&first);
        }
    }

    /// Folds the extent starting at `vpn` into its predecessor if it
    /// continues it.
    fn merge(&mut self, vpn: u64) {
        let Some(&next) = self.extents.get(&vpn) else {
            return;
        };
        if let Some((&first, prev)) = self.extents.range_mut(..vpn).next_back() {
            if first + prev.pages == vpn && prev.entry(prev.pages) == next.first {
                prev.pages += next.pages;
                self.extents.remove(&vpn);
            }
        }
    }

    /// Seals the table against further modification.
    pub fn seal(&mut self) {
        self.sealed = true;
        self.generation += 1;
    }

    /// The mutation counter TLB entries are tagged with.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether the table is sealed.
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// Number of mapped pages.
    pub fn len(&self) -> usize {
        self.extents.values().map(|e| e.pages as usize).sum()
    }

    /// Whether no pages are mapped.
    pub fn is_empty(&self) -> bool {
        self.extents.is_empty()
    }

    /// Number of extents the mapped pages form.
    pub fn extents(&self) -> usize {
        self.extents.len()
    }

    /// Iterates over `(vpn, entry)` pairs in address order.
    pub fn iter(&self) -> impl Iterator<Item = (Vpn, PageEntry)> + '_ {
        self.extents
            .iter()
            .flat_map(|(&first, e)| (0..e.pages).map(move |i| (Vpn(first + i), e.entry(i))))
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
