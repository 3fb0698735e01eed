//! Property tests for the simulated machine's protection semantics.

use flexos_machine::{Access, Addr, Machine, PageFlags, Pkru, ProtKey, VcpuId, VmId, PAGE_SIZE};
use proptest::prelude::*;

fn arb_pkru() -> impl Strategy<Value = Pkru> {
    any::<u32>().prop_map(Pkru)
}

fn arb_key() -> impl Strategy<Value = ProtKey> {
    (0u8..16).prop_map(ProtKey)
}

fn arb_access() -> impl Strategy<Value = Access> {
    prop_oneof![Just(Access::Read), Just(Access::Write)]
}

proptest! {
    /// If `a` permits everything `b` permits (per the lattice helper),
    /// then for every key/access, `b` permitting implies `a` permitting.
    #[test]
    fn pkru_permissiveness_is_sound(a in arb_pkru(), b in arb_pkru(),
                                    key in arb_key(), access in arb_access()) {
        if a.at_least_as_permissive_as(b) && b.permits(key, access) {
            prop_assert!(a.permits(key, access));
        }
    }

    /// Write permission never exceeds read permission (AD dominates WD).
    #[test]
    fn pkru_write_implies_read(p in arb_pkru(), key in arb_key()) {
        if p.permits(key, Access::Write) {
            prop_assert!(p.permits(key, Access::Read));
        }
    }

    /// `deny_all_except` grants exactly what it is told to.
    #[test]
    fn deny_all_except_is_exact(allowed in prop::collection::btree_set(0u8..16, 0..4),
                                read_only in prop::collection::btree_set(0u8..16, 0..4)) {
        let allowed: Vec<ProtKey> = allowed.iter().map(|&k| ProtKey(k)).collect();
        let ro: Vec<ProtKey> = read_only.iter()
            .filter(|k| !allowed.iter().any(|a| a.0 == **k))
            .map(|&k| ProtKey(k))
            .collect();
        let p = Pkru::deny_all_except(&allowed, &ro);
        for k in 0..16u8 {
            let key = ProtKey(k);
            let in_allowed = allowed.contains(&key);
            let in_ro = ro.contains(&key);
            prop_assert_eq!(p.permits(key, Access::Write), in_allowed);
            prop_assert_eq!(p.permits(key, Access::Read), in_allowed || in_ro);
        }
    }

    /// Data written through the machine is read back identically across
    /// arbitrary offsets and lengths (incl. page straddles), and a write
    /// denied by PKRU leaves memory untouched.
    #[test]
    fn machine_write_read_round_trip(off in 0u64..(3 * PAGE_SIZE), data in prop::collection::vec(any::<u8>(), 1..256)) {
        let mut m = Machine::with_defaults();
        let base = m.alloc_region(VmId(0), 4 * PAGE_SIZE, ProtKey(1), PageFlags::RW).unwrap();
        let at = Addr(base.0 + off);
        m.write(VcpuId(0), at, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        m.read(VcpuId(0), at, &mut back).unwrap();
        prop_assert_eq!(&back, &data);

        // Lock the region out and verify the write is rejected and
        // nothing changed.
        let tok = m.gate_token();
        m.wrpkru(VcpuId(0), Pkru::deny_all_except(&[ProtKey(0)], &[ProtKey(1)]), Some(tok)).unwrap();
        let attack = vec![0xFFu8; data.len()];
        prop_assert!(m.write(VcpuId(0), at, &attack).is_err());
        let mut after = vec![0u8; data.len()];
        m.read(VcpuId(0), at, &mut after).unwrap();
        prop_assert_eq!(&after, &data);
    }

    /// Cycle accounting is monotone and exact for memory traffic.
    #[test]
    fn clock_charges_are_monotone(lens in prop::collection::vec(1u64..2048, 1..20)) {
        let mut m = Machine::with_defaults();
        let base = m.alloc_region(VmId(0), 1 << 20, ProtKey(0), PageFlags::RW).unwrap();
        let mut last = m.clock().cycles();
        for (i, &len) in lens.iter().enumerate() {
            let buf = vec![0u8; len as usize];
            m.write(VcpuId(0), Addr(base.0 + (i as u64 * 4096) % (1 << 19)), &buf).unwrap();
            let now = m.clock().cycles();
            let expected = m.costs().mem_access + m.costs().copy_cost(len);
            prop_assert_eq!(now - last, expected);
            last = now;
        }
    }
}

// ---- the extent page table against a per-page reference -----------------

use flexos_machine::addr::{Pfn, Vpn};
use flexos_machine::page::{PageEntry, PageTable};
use std::collections::BTreeMap;

/// Pages the random sequences touch: small, so ranges overlap, leave
/// holes and continue each other often.
const SPACE: u64 = 40;

/// The page table one entry per page, every range operation a loop over
/// its pages. Each operation returns what the per-page table returned and
/// whether it changed a page, which is when that table bumped its
/// generation (a `map` changes its page even when the entry is identical;
/// so does a `set_key` to the same key).
#[derive(Default)]
struct RefTable {
    pages: BTreeMap<u64, PageEntry>,
    sealed: bool,
}

impl RefTable {
    fn map_range(&mut self, vpn: u64, pages: u64, first: PageEntry) -> (bool, bool) {
        if self.sealed {
            return (false, false);
        }
        for i in 0..pages {
            let pfn = Pfn(first.pfn.0 + i);
            self.pages.insert(vpn + i, PageEntry { pfn, ..first });
        }
        (true, pages > 0)
    }

    /// Applies `edit` to each page from `vpn` on until the first hole.
    fn each_page(
        &mut self,
        vpn: u64,
        pages: u64,
        mut edit: impl FnMut(&mut BTreeMap<u64, PageEntry>, u64),
    ) -> (Result<(), Vpn>, bool) {
        if self.sealed {
            return (Err(Vpn(vpn)), false);
        }
        for v in vpn..vpn + pages {
            if !self.pages.contains_key(&v) {
                return (Err(Vpn(v)), v > vpn);
            }
            edit(&mut self.pages, v);
        }
        (Ok(()), pages > 0)
    }

    /// Maximal runs of adjacent pages on consecutive frames with one
    /// flags/key pair: the extents a canonical table holds.
    fn runs(&self) -> usize {
        let mut prev: Option<(u64, PageEntry)> = None;
        self.pages
            .iter()
            .filter(|&(&v, &e)| {
                let continues = prev.is_some_and(|(pv, pe)| {
                    pv + 1 == v && pe.pfn.0 + 1 == e.pfn.0 && (pe.flags, pe.key) == (e.flags, e.key)
                });
                prev = Some((v, e));
                !continues
            })
            .count()
    }
}

#[derive(Debug, Clone)]
enum PtOp {
    Map(u64, PageEntry),
    MapRange(u64, u64, PageEntry),
    Unmap(u64),
    UnmapRange(u64, u64),
    SetKey(u64, ProtKey),
    SetKeyRange(u64, u64, ProtKey),
    Seal,
}

/// An entry for `vpn` whose frame is `vpn + shift`: one shift runs
/// through a whole range, so neighbouring mappings often continue each
/// other and merge.
fn arb_entry(vpn: u64) -> impl Strategy<Value = PageEntry> {
    (0u64..3, any::<bool>(), 0u8..3).prop_map(move |(shift, writable, key)| PageEntry {
        pfn: Pfn(vpn + shift),
        flags: PageFlags { writable },
        key: ProtKey(key),
    })
}

fn arb_pt_op() -> impl Strategy<Value = PtOp> {
    let vpn = 0..SPACE;
    let pages = 0u64..12;
    let key = || (0u8..3).prop_map(ProtKey);
    prop_oneof![
        3 => vpn.clone().prop_flat_map(|v| arb_entry(v).prop_map(move |e| PtOp::Map(v, e))),
        6 => (vpn.clone(), pages.clone()).prop_flat_map(|(v, n)| {
            arb_entry(v).prop_map(move |e| PtOp::MapRange(v, n, e))
        }),
        2 => vpn.clone().prop_map(PtOp::Unmap),
        3 => (vpn.clone(), pages.clone()).prop_map(|(v, n)| PtOp::UnmapRange(v, n)),
        2 => (vpn.clone(), key()).prop_map(|(v, k)| PtOp::SetKey(v, k)),
        4 => (vpn, pages, key()).prop_map(|(v, n, k)| PtOp::SetKeyRange(v, n, k)),
        1 => Just(PtOp::Seal),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The extent table answers every operation, walk, `len` and `iter`
    /// exactly as the per-page reference does, moves its generation
    /// exactly when the reference changed a page, and stays canonical:
    /// one extent per maximal run.
    #[test]
    fn extent_table_matches_the_per_page_reference(ops in prop::collection::vec(arb_pt_op(), 1..60)) {
        let (mut pt, mut reference) = (PageTable::new(), RefTable::default());
        for op in ops {
            let generation = pt.generation();
            let (same, changed) = match op {
                PtOp::Map(v, e) => {
                    let (r, changed) = reference.map_range(v, 1, e);
                    (pt.map(Vpn(v), e) == r, changed)
                }
                PtOp::MapRange(v, n, e) => {
                    let (r, changed) = reference.map_range(v, n, e);
                    (pt.map_range(Vpn(v), n, e) == r, changed)
                }
                PtOp::Unmap(v) => {
                    let before = reference.pages.get(&v).copied();
                    let (r, changed) = reference.each_page(v, 1, |p, v| { p.remove(&v); });
                    (pt.unmap(Vpn(v)) == r.ok().and(before), changed)
                }
                PtOp::UnmapRange(v, n) => {
                    let (r, changed) = reference.each_page(v, n, |p, v| { p.remove(&v); });
                    (pt.unmap_range(Vpn(v), n) == r, changed)
                }
                PtOp::SetKey(v, k) => {
                    let (r, changed) = reference.each_page(v, 1, |p, v| p.get_mut(&v).unwrap().key = k);
                    (pt.set_key(Vpn(v), k) == r.is_ok(), changed)
                }
                PtOp::SetKeyRange(v, n, k) => {
                    let (r, changed) = reference.each_page(v, n, |p, v| p.get_mut(&v).unwrap().key = k);
                    (pt.set_key_range(Vpn(v), n, k) == r, changed)
                }
                PtOp::Seal => {
                    reference.sealed = true;
                    pt.seal();
                    (true, true)
                }
            };
            prop_assert!(same, "result differs");
            prop_assert_eq!(pt.generation() != generation, changed);
            prop_assert_eq!(pt.is_sealed(), reference.sealed);
            for v in 0..SPACE + 14 {
                prop_assert_eq!(pt.walk(Vpn(v)), reference.pages.get(&v).copied(), "walk({})", v);
            }
            prop_assert_eq!(pt.len(), reference.pages.len());
            prop_assert_eq!(pt.is_empty(), reference.pages.is_empty());
            let pages: Vec<(Vpn, PageEntry)> = reference.pages.iter().map(|(&v, &e)| (Vpn(v), e)).collect();
            prop_assert_eq!(pt.iter().collect::<Vec<_>>(), pages);
            prop_assert_eq!(pt.extents(), reference.runs());
        }
    }
}
