//! `copy` ≡ `read` then `write`.
//!
//! [`Machine::copy`] moves bytes inside physical memory, but everything
//! else about it — checks, chaos draws, charges, fault identity — is
//! documented to be that of a `read` of the source into a host buffer
//! followed by a `write` of that buffer to the destination. Twin machines
//! run one random schedule of writes, maps, unmaps, retags, PKRU writes
//! and seals (with or without a chaos plan); the candidate serves every
//! copy with `copy`, the reference with the bounce. After every step they
//! must agree on the `Result`, the clock, the TLB and chaos counters, the
//! fault ledger, and every byte an observer vCPU can read.
//!
//! One VM cannot map two of its pages onto one frame through the public
//! API (the shared window aliases frames *across* VMs), so that case is a
//! unit test next to `Machine::copy`; here a second VM's vCPU copies
//! through its own view of the shared window.

use flexos_machine::{
    Addr, ChaosConfig, ChaosPlan, Fault, Machine, PageFlags, Pkru, ProtKey, Schedule, VcpuId, VmId,
    PAGE_SIZE,
};
use proptest::prelude::*;

/// Private pages of VM 0 mapped up front; addresses range a few pages
/// past them, where `Op::Map` maps more.
const ARENA_PAGES: u64 = 8;
/// Pages of the shared window (mapped in both VMs).
const SHARED_PAGES: u64 = 3;
/// vCPU 0 and 2 run in VM 0, vCPU 1 and 3 in VM 1. vCPU 2 and 3 only
/// observe: their PKRU stays allow-all.
const OBSERVER: VcpuId = VcpuId(2);
const OBSERVER_VM1: VcpuId = VcpuId(3);

struct Twin {
    m: Machine,
    arena: Addr,
    shared: Addr,
    /// Mapping into a sealed table is a bug of the caller (it panics), so
    /// `Op::Map*` after `Op::Seal` does nothing.
    sealed: bool,
}

fn boot(chaos: Option<(u64, u16)>) -> Twin {
    let mut m = Machine::with_defaults();
    let vm1 = m.add_vm(true);
    assert_eq!(m.add_vcpu(vm1), VcpuId(1));
    assert_eq!(m.add_vcpu(VmId(0)), OBSERVER);
    assert_eq!(m.add_vcpu(vm1), OBSERVER_VM1);
    // Page by page, with a page of VM 1 taken in between: virtually
    // contiguous (both allocators bump), physically not, so a run that
    // ignores a page boundary lands in a frame of the other VM — whose
    // private pages sit at the arena's addresses, so vCPU 1 has memory of
    // its own to copy in.
    let page = |m: &mut Machine, shared: bool| {
        m.alloc_region(vm1, PAGE_SIZE, ProtKey(0), PageFlags::RW)
            .unwrap();
        if shared {
            m.alloc_shared_region(PAGE_SIZE, ProtKey(2)).unwrap()
        } else {
            m.alloc_region(VmId(0), PAGE_SIZE, ProtKey(1), PageFlags::RW)
                .unwrap()
        }
    };
    let arena = page(&mut m, false);
    for _ in 1..ARENA_PAGES {
        page(&mut m, false);
    }
    let shared = page(&mut m, true);
    for _ in 1..SHARED_PAGES {
        page(&mut m, true);
    }
    // No two nearby bytes alike, so a misplaced or misordered move shows.
    for (base, pages) in [(arena, ARENA_PAGES), (shared, SHARED_PAGES)] {
        let fill: Vec<u8> = (0..pages * PAGE_SIZE)
            .map(|i| (i.wrapping_mul(131) ^ (i / 251) ^ base.0) as u8)
            .collect();
        m.write(OBSERVER, base, &fill).unwrap();
    }
    if let Some((seed, per_mille)) = chaos {
        m.set_chaos(ChaosPlan::new(ChaosConfig {
            spurious_pkey: Schedule::PerMille(per_mille),
            ..ChaosConfig::with_seed(seed)
        }));
    }
    Twin {
        m,
        arena,
        shared,
        sealed: false,
    }
}

/// An address: an offset into the shared window or into (and a little
/// past) the arena.
#[derive(Debug, Clone, Copy)]
struct Loc {
    shared: bool,
    off: u64,
}

impl Twin {
    fn addr(&self, at: Loc) -> Addr {
        let base = if at.shared { self.shared } else { self.arena };
        Addr(base.0 + at.off)
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// `dst = src + delta` when `delta` is given (overlap in both
    /// directions), else an independent location.
    Copy {
        vcpu: u8,
        src: Loc,
        dst: Result<i64, Loc>,
        len: u64,
    },
    Write {
        at: Loc,
        len: u64,
        salt: u8,
    },
    Map,
    MapReadOnly,
    Unmap {
        page: u64,
    },
    Retag {
        vm: u8,
        at: Loc,
        pages: u64,
        key: u8,
    },
    Wrpkru {
        vcpu: u8,
        allowed: Vec<u8>,
        read_only: Vec<u8>,
    },
    Seal,
}

fn arb_loc() -> impl Strategy<Value = Loc> {
    prop_oneof![
        3 => (0..(ARENA_PAGES + 3) * PAGE_SIZE).prop_map(|off| Loc { shared: false, off }),
        1 => (0..(SHARED_PAGES + 1) * PAGE_SIZE).prop_map(|off| Loc { shared: true, off }),
    ]
}

/// Lengths from 0 to 3 pages, weighted towards the one-page path.
fn arb_len() -> impl Strategy<Value = u64> {
    prop_oneof![
        1 => Just(0u64),
        5 => 1u64..200,
        2 => 200u64..=PAGE_SIZE,
        3 => PAGE_SIZE..=3 * PAGE_SIZE,
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Mostly closer than a copy is long. (The shim's ranges are unsigned.)
    let near = prop_oneof![3 => Just(150u64), 1 => Just(2 * PAGE_SIZE)]
        .prop_flat_map(|reach| (0..=2 * reach).prop_map(move |d| Ok(d as i64 - reach as i64)));
    let far = arb_loc().prop_map(Err);
    prop_oneof![
        20 => (0u8..2, arb_loc(), prop_oneof![near, far], arb_len())
            .prop_map(|(vcpu, src, dst, len)| Op::Copy { vcpu, src, dst, len }),
        8 => (arb_loc(), arb_len(), any::<u8>())
            .prop_map(|(at, len, salt)| Op::Write { at, len, salt }),
        2 => Just(Op::Map),
        2 => Just(Op::MapReadOnly),
        3 => (0..ARENA_PAGES + 3).prop_map(|page| Op::Unmap { page }),
        5 => (0u8..2, arb_loc(), 1u64..3, 0u8..6)
            .prop_map(|(vm, at, pages, key)| Op::Retag { vm, at, pages, key }),
        5 => (
            0u8..2,
            prop::collection::vec(0u8..6, 1..5),
            prop::collection::vec(0u8..6, 0..3)
        )
            .prop_map(|(vcpu, allowed, read_only)| Op::Wrpkru { vcpu, allowed, read_only }),
        1 => Just(Op::Seal),
    ]
}

/// How a twin serves `Op::Copy`.
type CopyFn = fn(&mut Machine, VcpuId, Addr, Addr, u64) -> Result<(), Fault>;

/// The bounce `Machine::copy`'s doc comment says it mirrors. The twins
/// share the machine's access pipeline, so what each half charges is
/// checked here against the cost table, not against the other twin: a
/// faulting half charges nothing, a completed one its whole length.
fn reference(m: &mut Machine, v: VcpuId, dst: Addr, src: Addr, len: u64) -> Result<(), Fault> {
    let half = m.costs().mem_access + m.costs().copy_cost(len);
    let t0 = m.clock().cycles();
    let mut buf = vec![0u8; len as usize];
    let read = m.read(v, src, &mut buf);
    assert_eq!(m.clock().cycles() - t0, if read.is_ok() { half } else { 0 });
    read?;
    let written = m.write(v, dst, &buf);
    let halves = if written.is_ok() { 2 } else { 1 };
    assert_eq!(m.clock().cycles() - t0, halves * half);
    written
}

fn apply(t: &mut Twin, op: &Op, copy: CopyFn) -> Result<(), Fault> {
    match op {
        Op::Copy {
            vcpu,
            src,
            dst,
            len,
        } => {
            let src = t.addr(*src);
            let dst = match dst {
                Ok(delta) => Addr(src.0.wrapping_add_signed(*delta)),
                Err(at) => t.addr(*at),
            };
            copy(&mut t.m, VcpuId(*vcpu), dst, src, *len)
        }
        Op::Write { at, len, salt } => {
            let bytes: Vec<u8> = (0..*len)
                .map(|i| (i as u8).wrapping_mul(31) ^ salt)
                .collect();
            let at = t.addr(*at);
            t.m.write(OBSERVER, at, &bytes)
        }
        Op::Map | Op::MapReadOnly if t.sealed => Ok(()),
        // Private regions are bump-allocated: the page lands right past
        // the arena, inside the range `arb_loc` draws from.
        Op::Map => {
            t.m.alloc_region(VmId(0), PAGE_SIZE, ProtKey(3), PageFlags::RW)
                .map(|_| ())
        }
        Op::MapReadOnly => {
            t.m.alloc_region(VmId(0), PAGE_SIZE, ProtKey(1), PageFlags::RO)
                .map(|_| ())
        }
        Op::Unmap { page } => {
            let at = Addr(t.arena.0 + page * PAGE_SIZE);
            t.m.unmap_region(VmId(0), at, PAGE_SIZE)
        }
        Op::Retag { vm, at, pages, key } => {
            let at = t.addr(*at);
            t.m.set_region_key(VmId(*vm), at, pages * PAGE_SIZE, ProtKey(*key))
        }
        Op::Wrpkru {
            vcpu,
            allowed,
            read_only,
        } => {
            let keys = |ks: &[u8]| ks.iter().map(|&k| ProtKey(k)).collect::<Vec<_>>();
            let tok = t.m.gate_token();
            let pkru = Pkru::deny_all_except(&keys(allowed), &keys(read_only));
            t.m.wrpkru(VcpuId(*vcpu), pkru, Some(tok))
        }
        Op::Seal => {
            t.m.seal_page_tables();
            t.sealed = true;
            Ok(())
        }
    }
}

/// Every page the schedule can touch, as the two observers read it
/// (`None` where the read faults — the twins draw the same chaos, so
/// alike).
fn dump(t: &mut Twin) -> Vec<Option<Vec<u8>>> {
    let private = (0..ARENA_PAGES + 3).map(|p| t.arena.0 + p * PAGE_SIZE);
    let pages = private
        .clone()
        .map(|at| (OBSERVER, at))
        .chain(private.map(|at| (OBSERVER_VM1, at)))
        .chain((0..SHARED_PAGES).map(|p| (OBSERVER, t.shared.0 + p * PAGE_SIZE)));
    pages
        .map(|(observer, at)| {
            let mut page = vec![0u8; PAGE_SIZE as usize];
            t.m.read(observer, Addr(at), &mut page).ok().map(|()| page)
        })
        .collect()
}

proptest! {
    #[test]
    fn copy_is_a_read_then_a_write(
        ops in prop::collection::vec(arb_op(), 1..50),
        chaos in prop::option::of((any::<u64>(), 20u16..250)),
    ) {
        let mut a = boot(chaos);
        let mut b = boot(chaos);
        for op in &ops {
            let ra = apply(&mut a, op, Machine::copy);
            let rb = apply(&mut b, op, reference);
            prop_assert_eq!(&ra, &rb, "divergent result on {:?}", op);
            prop_assert_eq!(a.m.clock().cycles(), b.m.clock().cycles(), "cycles after {:?}", op);
            prop_assert_eq!(a.m.tlb_trace(), b.m.tlb_trace(), "TLB counters after {:?}", op);
            prop_assert_eq!(a.m.chaos_stats(), b.m.chaos_stats(), "chaos after {:?}", op);
            let (fa, fb) = (a.m.fault_trace(), b.m.fault_trace());
            prop_assert_eq!(fa.by_kind(), fb.by_kind(), "fault kinds after {:?}", op);
            prop_assert_eq!(fa.by_key(), fb.by_key(), "fault keys after {:?}", op);
            if matches!(op, Op::Copy { .. }) {
                prop_assert_eq!(dump(&mut a), dump(&mut b), "bytes after {:?}", op);
            }
        }
        prop_assert_eq!(dump(&mut a), dump(&mut b));
        prop_assert_eq!(a.m.clock().cycles(), b.m.clock().cycles());
    }
}
