//! `FreeListAllocator` ≡ its ordered-map predecessor.
//!
//! The heap's host-side bookkeeping is a sorted vector of free blocks
//! and a hashed table of live ones (DESIGN.md §6.13); what it *decides* —
//! which address a request gets, which free blocks exist afterwards,
//! which frees are refused and with what text — is pinned here against
//! the two-`BTreeMap` first-fit it replaced, kept below as [`Reference`].
//! Both sides run one random schedule on a heap small enough to exhaust
//! and fragment, with a skewed base so sub-`GRAIN` head pads occur, and
//! after every operation must agree on the `Result`, `size_of`, the
//! stats, the free-block count and byte total, and the cycles charged;
//! the candidate's `audit()` must hold throughout.

use flexos_kernel::alloc::{AllocStats, Allocator, FreeListAllocator};
use flexos_machine::{Addr, Fault, Machine, PageFlags, ProtKey, Result, VmId};
use proptest::prelude::*;
use std::collections::BTreeMap;

const HEAP: u64 = 64 * 1024;
const GRAIN: u64 = 16;

fn align_up(v: u64, align: u64) -> u64 {
    (v + align - 1) & !(align - 1)
}

fn heap_exhausted(requested: u64) -> Fault {
    Fault::OutOfMemory {
        requested_pages: requested.div_ceil(4096),
    }
}

/// The allocator as it was before PR 18, bookkeeping and all; only
/// `free`'s return value (the released size) follows the trait.
struct Reference {
    base: Addr,
    free: BTreeMap<u64, u64>,
    live: BTreeMap<u64, (u64, u64, u64)>,
    stats: AllocStats,
}

impl Reference {
    fn new(base: Addr, len: u64) -> Self {
        let mut free = BTreeMap::new();
        if len > 0 {
            free.insert(0, len);
        }
        Self {
            base,
            free,
            live: BTreeMap::new(),
            stats: AllocStats::default(),
        }
    }

    fn free_blocks(&self) -> usize {
        self.free.len()
    }

    fn free_bytes(&self) -> u64 {
        self.free.values().sum()
    }

    fn insert_free_coalescing(&mut self, mut start: u64, mut len: u64) {
        if let Some((&poff, &plen)) = self.free.range(..start).next_back() {
            if poff + plen == start {
                self.free.remove(&poff);
                start = poff;
                len += plen;
            }
        }
        if let Some((&noff, &nlen)) = self.free.range(start..).next() {
            if noff == start + len {
                self.free.remove(&noff);
                len += nlen;
            }
        }
        self.free.insert(start, len);
    }

    fn alloc(&mut self, m: &mut Machine, size: u64, align: u64) -> Result<Addr> {
        m.charge(m.costs().alloc_op);
        let size = size.max(1);
        // First fit: the lowest free block that can host an aligned payload.
        let mut found: Option<(u64, u64, u64)> = None; // (block_off, block_len, payload_off)
        for (&off, &blen) in &self.free {
            let payload = align_up(self.base.0 + off, align) - self.base.0;
            let head_pad = payload - off;
            if head_pad <= blen && blen - head_pad >= size {
                found = Some((off, blen, payload));
                break;
            }
        }
        let Some((off, blen, payload)) = found else {
            return Err(heap_exhausted(size));
        };
        self.free.remove(&off);

        // Return a head split if it is big enough to be useful.
        let head_pad = payload - off;
        let block_off = if head_pad >= GRAIN {
            self.free.insert(off, head_pad);
            payload
        } else {
            off
        };
        // Return a tail split if big enough; otherwise keep it in the block.
        let used_end = payload + size;
        let tail = off + blen - used_end;
        let block_end = if tail >= GRAIN {
            self.free.insert(used_end, tail);
            used_end
        } else {
            off + blen
        };

        self.live
            .insert(payload, (block_off, block_end - block_off, size));
        self.stats.allocs += 1;
        self.stats.live_bytes += size;
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.stats.live_bytes);
        Ok(Addr(self.base.0 + payload))
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
        self.stats.frees += 1;
        self.stats.live_bytes = self.stats.live_bytes.saturating_sub(size);
        self.insert_free_coalescing(block_off, block_len);
        Ok(size)
    }

    fn size_of(&self, addr: Addr) -> Option<u64> {
        self.live
            .get(&addr.0.wrapping_sub(self.base.0))
            .map(|&(_, _, size)| size)
    }
}

#[derive(Debug, Clone)]
enum Op {
    Alloc {
        size: u64,
        align_pow: u32,
    },
    /// Frees the `index`-th live block (modulo how many there are).
    Free {
        index: usize,
    },
    /// Frees the `index`-th address ever released again — a double free,
    /// unless a later allocation landed on it.
    Refree {
        index: usize,
    },
    /// Frees `base + at - 64`: below the base, inside a block, past the end.
    Wild {
        at: u64,
    },
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    // Small and large requests, so holes of either size form and refill;
    // frees a little rarer than allocations, so the heap runs out.
    prop::collection::vec(
        prop_oneof![
            4 => (0u64..=4000, 0u32..=12).prop_map(|(size, align_pow)| Op::Alloc { size, align_pow }),
            4 => (0u64..=96, 0u32..=5).prop_map(|(size, align_pow)| Op::Alloc { size, align_pow }),
            5 => (0usize..1024).prop_map(|index| Op::Free { index }),
            1 => (0usize..1024).prop_map(|index| Op::Refree { index }),
            1 => (0u64..HEAP + 128).prop_map(|at| Op::Wild { at }),
        ],
        1..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn flat_bookkeeping_decides_what_the_ordered_maps_decided(
        ops in arb_ops(),
        skew in 0u64..GRAIN,
    ) {
        let mut m = Machine::with_defaults();
        let mut m_ref = Machine::with_defaults();
        let region = m.alloc_region(VmId(0), HEAP, ProtKey(0), PageFlags::RW).unwrap();
        let (base, len) = (Addr(region.0 + skew), HEAP - skew);
        let mut cand = FreeListAllocator::new(base, len);
        let mut refr = Reference::new(base, len);
        let mut live: Vec<Addr> = Vec::new();
        let mut released: Vec<Addr> = Vec::new();

        for (step, op) in ops.iter().enumerate() {
            let touched = match *op {
                Op::Alloc { size, align_pow } => {
                    let got = cand.alloc(&mut m, size, 1 << align_pow);
                    let want = refr.alloc(&mut m_ref, size, 1 << align_pow);
                    prop_assert_eq!(format!("{got:?}"), format!("{want:?}"), "step {step}: {op:?}");
                    if let Ok(p) = got {
                        live.push(p);
                    }
                    got.ok()
                }
                Op::Free { .. } | Op::Refree { .. } | Op::Wild { .. } => {
                    let addr = match *op {
                        Op::Free { index } if !live.is_empty() => live[index % live.len()],
                        Op::Refree { index } if !released.is_empty() => released[index % released.len()],
                        Op::Wild { at } => Addr((base.0 + at).wrapping_sub(64)),
                        _ => continue,
                    };
                    let got = cand.free(&mut m, addr);
                    let want = refr.free(&mut m_ref, addr);
                    prop_assert_eq!(format!("{got:?}"), format!("{want:?}"), "step {step}: {op:?}");
                    if got.is_ok() {
                        live.retain(|&p| p != addr);
                        released.push(addr);
                    }
                    Some(addr)
                }
            };
            if let Some(p) = touched {
                prop_assert_eq!(cand.size_of(p), refr.size_of(p), "step {step}: {op:?}");
            }
            if let Some(&p) = live.get(step % live.len().max(1)) {
                prop_assert_eq!(cand.size_of(p), refr.size_of(p), "step {step}: {op:?}");
            }
            prop_assert_eq!(cand.stats(), refr.stats, "step {step}: {op:?}");
            prop_assert_eq!(cand.free_blocks(), refr.free_blocks(), "step {step}: {op:?}");
            prop_assert_eq!(cand.free_bytes(), refr.free_bytes(), "step {step}: {op:?}");
            prop_assert_eq!(m.clock().cycles(), m_ref.clock().cycles(), "step {step}: {op:?}");
            prop_assert!(cand.audit(), "step {step}: audit broke after {op:?}");
        }
    }
}
