//! TLB-on vs TLB-off equivalence.
//!
//! The software TLB (see `flexos_machine::tlb`) must be invisible to
//! everything except host wall-clock time: same results, same faults,
//! same simulated cycle counts, no matter how map/unmap/retag/PKRU
//! operations interleave with accesses. These tests drive a TLB-enabled
//! machine and a TLB-disabled reference machine through identical
//! operation sequences and require them to agree step by step.

use flexos_machine::{
    Addr, Fault, Machine, MachineConfig, PageFlags, Pkru, ProtKey, VcpuId, VmId, PAGE_SIZE,
};
use proptest::prelude::*;

/// Arena: one region of this many pages allocated up front in both
/// machines; all random accesses land inside (or just past) it.
const ARENA_PAGES: u64 = 8;

fn boot(tlb_enabled: bool) -> (Machine, Addr) {
    let mut m = Machine::new(MachineConfig {
        tlb_enabled,
        ..Default::default()
    });
    let base = m
        .alloc_region(VmId(0), ARENA_PAGES * PAGE_SIZE, ProtKey(1), PageFlags::RW)
        .unwrap();
    (m, base)
}

/// One step of the random program. Offsets are wrapped into (a bit past)
/// the arena so some accesses fault on unmapped pages.
#[derive(Debug, Clone)]
enum Op {
    Read {
        off: u64,
        len: u64,
    },
    Write {
        off: u64,
        len: u64,
        byte: u8,
    },
    Fill {
        off: u64,
        len: u64,
        byte: u8,
    },
    Copy {
        dst: u64,
        src: u64,
        len: u64,
    },
    Unmap {
        page: u64,
        pages: u64,
    },
    Retag {
        page: u64,
        pages: u64,
        key: u8,
    },
    Wrpkru {
        allowed: Vec<u8>,
        read_only: Vec<u8>,
    },
    Seal,
}

fn arb_op() -> impl Strategy<Value = Op> {
    let span = (ARENA_PAGES + 2) * PAGE_SIZE;
    prop_oneof![
        4 => (0..span, 0u64..300).prop_map(|(off, len)| Op::Read { off, len }),
        4 => (0..span, 0u64..300, any::<u8>())
            .prop_map(|(off, len, byte)| Op::Write { off, len, byte }),
        2 => (0..span, 0u64..300, any::<u8>())
            .prop_map(|(off, len, byte)| Op::Fill { off, len, byte }),
        2 => (0..span, 0..span, 0u64..300)
            .prop_map(|(dst, src, len)| Op::Copy { dst, src, len }),
        2 => (0..ARENA_PAGES + 2, 1u64..3).prop_map(|(page, pages)| Op::Unmap { page, pages }),
        2 => (0..ARENA_PAGES + 2, 1u64..3, 0u8..16)
            .prop_map(|(page, pages, key)| Op::Retag { page, pages, key }),
        2 => (
            prop::collection::vec(0u8..16, 1..4),
            prop::collection::vec(0u8..16, 0..3)
        )
            .prop_map(|(allowed, read_only)| Op::Wrpkru { allowed, read_only }),
        1 => Just(Op::Seal),
    ]
}

/// Applies `op` to `m` and returns a comparable outcome (the data read
/// plus the `Result`).
fn apply(m: &mut Machine, base: Addr, op: &Op) -> (Vec<u8>, Result<(), Fault>) {
    let v = VcpuId(0);
    match op {
        Op::Read { off, len } => {
            let mut buf = vec![0u8; *len as usize];
            let r = m.read(v, Addr(base.0 + off), &mut buf);
            (buf, r)
        }
        Op::Write { off, len, byte } => {
            let buf = vec![*byte; *len as usize];
            (Vec::new(), m.write(v, Addr(base.0 + off), &buf))
        }
        Op::Fill { off, len, byte } => (Vec::new(), m.fill(v, Addr(base.0 + off), *len, *byte)),
        Op::Copy { dst, src, len } => (
            Vec::new(),
            m.copy(v, Addr(base.0 + dst), Addr(base.0 + src), *len),
        ),
        Op::Unmap { page, pages } => (
            Vec::new(),
            m.unmap_region(VmId(0), Addr(base.0 + page * PAGE_SIZE), pages * PAGE_SIZE),
        ),
        Op::Retag { page, pages, key } => (
            Vec::new(),
            m.set_region_key(
                VmId(0),
                Addr(base.0 + page * PAGE_SIZE),
                pages * PAGE_SIZE,
                ProtKey(*key),
            ),
        ),
        Op::Wrpkru { allowed, read_only } => {
            // Key 0 stays allowed so the test itself is never locked out.
            let mut a: Vec<ProtKey> = allowed.iter().map(|&k| ProtKey(k)).collect();
            a.push(ProtKey(0));
            let ro: Vec<ProtKey> = read_only.iter().map(|&k| ProtKey(k)).collect();
            let tok = m.gate_token();
            (
                Vec::new(),
                m.wrpkru(v, Pkru::deny_all_except(&a, &ro), Some(tok)),
            )
        }
        Op::Seal => {
            m.seal_page_tables();
            (Vec::new(), Ok(()))
        }
    }
}

proptest! {
    /// Random interleavings of reads/writes/fills/copies with
    /// unmap/retag/PKRU-write/seal produce identical outcomes, identical
    /// fault traces and identical cycle counts with the TLB on and off.
    #[test]
    fn tlb_is_semantically_invisible(ops in prop::collection::vec(arb_op(), 1..60)) {
        let (mut on, base_on) = boot(true);
        let (mut off, base_off) = boot(false);
        prop_assert_eq!(base_on, base_off);
        for op in &ops {
            let a = apply(&mut on, base_on, op);
            let b = apply(&mut off, base_off, op);
            prop_assert_eq!(&a, &b, "divergent outcome on {:?}", op);
            prop_assert_eq!(on.clock().cycles(), off.clock().cycles(),
                            "cycle divergence after {:?}", op);
        }
        prop_assert_eq!(on.fault_trace().total(), off.fault_trace().total());
        // The TLB-off machine never consults the cache.
        prop_assert_eq!(off.tlb_trace().hits + off.tlb_trace().misses, 0);
    }
}

// ---- directed invalidation tests ---------------------------------------

#[test]
fn unmap_invalidates_stale_tlb_entries() {
    let (mut m, base) = boot(true);
    m.write(VcpuId(0), base, b"warm").unwrap(); // fills the TLB
    let mut buf = [0u8; 4];
    m.read(VcpuId(0), base, &mut buf).unwrap();
    assert!(m.tlb_trace().hits > 0, "second access should hit");
    m.unmap_region(VmId(0), base, PAGE_SIZE).unwrap();
    // A cached translation must not let us read through the dead mapping.
    assert!(matches!(
        m.read(VcpuId(0), base, &mut buf),
        Err(Fault::PageNotPresent { .. })
    ));
}

#[test]
fn retag_invalidates_stale_tlb_entries() {
    let (mut m, base) = boot(true);
    m.write(VcpuId(0), base, b"warm").unwrap();
    // Re-tag the page with a key the PKRU will deny, then lock that key.
    m.set_region_key(VmId(0), base, PAGE_SIZE, ProtKey(4))
        .unwrap();
    let tok = m.gate_token();
    m.wrpkru(
        VcpuId(0),
        Pkru::deny_all_except(&[ProtKey(0), ProtKey(1)], &[]),
        Some(tok),
    )
    .unwrap();
    // A stale cached entry would still carry ProtKey(1) and allow this.
    assert!(matches!(
        m.write(VcpuId(0), base, b"x"),
        Err(Fault::PkeyViolation {
            key: ProtKey(4),
            ..
        })
    ));
}

#[test]
fn seal_invalidates_cached_translations() {
    let (mut m, base) = boot(true);
    let mut buf = [0u8; 4];
    m.read(VcpuId(0), base, &mut buf).unwrap();
    let misses_before = m.tlb_trace().misses;
    m.seal_page_tables();
    // Sealing bumps the generation: the next access must re-walk (miss),
    // not reuse the pre-seal entry.
    m.read(VcpuId(0), base, &mut buf).unwrap();
    assert!(m.tlb_trace().misses > misses_before);
    assert!(m.tlb_trace().flushes > 0);
}

#[test]
fn pkru_change_applies_on_next_access_without_flush() {
    let (mut m, base) = boot(true);
    let mut buf = [0u8; 4];
    m.read(VcpuId(0), base, &mut buf).unwrap(); // cache the translation
    let tok = m.gate_token();
    m.wrpkru(
        VcpuId(0),
        Pkru::deny_all_except(&[ProtKey(0)], &[]),
        Some(tok),
    )
    .unwrap();
    let hits_before = m.tlb_trace().hits;
    // The very next access faults even though the translation is a TLB
    // hit: permissions are checked per access, never cached.
    assert!(matches!(
        m.read(VcpuId(0), base, &mut buf),
        Err(Fault::PkeyViolation {
            key: ProtKey(1),
            ..
        })
    ));
    assert_eq!(m.tlb_trace().hits, hits_before + 1);
}
