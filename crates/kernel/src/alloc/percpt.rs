//! Per-compartment allocator dispatch.
//!
//! "A key requirement for SH is the ability to have a separate memory
//! allocator per compartment: as many SH techniques instrument malloc,
//! using a single global allocator would result in the entire system
//! paying the cost of the instrumented allocator." (paper §3)
//!
//! [`HeapService`] is the kernel's malloc façade: in [`AllocMode::Global`]
//! mode every compartment shares allocator 0 (the paper's "global
//! allocator" Redis configuration); in [`AllocMode::PerCompartment`] mode
//! each compartment has its own (the "local allocator" configuration, and
//! a hard requirement of the VM backend).

use super::Allocator;
use flexos::gate::CompartmentId;
use flexos_machine::{Addr, Machine, Result};
use flexos_trace::AllocTrace;

/// Allocator topology of an image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocMode {
    /// One allocator shared by all compartments.
    Global,
    /// One allocator per compartment.
    PerCompartment,
}

/// The malloc/free service exposed to every micro-library.
#[derive(Debug)]
pub struct HeapService {
    mode: AllocMode,
    allocators: Vec<Box<dyn Allocator>>,
    trace: AllocTrace,
}

impl HeapService {
    /// A single global allocator serving every compartment.
    pub fn global(alloc: Box<dyn Allocator>) -> Self {
        Self {
            mode: AllocMode::Global,
            allocators: vec![alloc],
            trace: AllocTrace::new(),
        }
    }

    /// One allocator per compartment, indexed by [`CompartmentId`].
    ///
    /// # Panics
    ///
    /// Panics if `allocators` is empty.
    pub fn per_compartment(allocators: Vec<Box<dyn Allocator>>) -> Self {
        assert!(!allocators.is_empty(), "need at least one allocator");
        Self {
            mode: AllocMode::PerCompartment,
            allocators,
            trace: AllocTrace::new(),
        }
    }

    /// Per-compartment allocation telemetry (attributed to the requesting
    /// compartment even in global mode, which the shared allocator's own
    /// stats cannot do).
    pub fn trace(&self) -> &AllocTrace {
        &self.trace
    }

    /// The configured topology.
    pub fn mode(&self) -> AllocMode {
        self.mode
    }

    fn index(&self, c: CompartmentId) -> usize {
        match self.mode {
            AllocMode::Global => 0,
            AllocMode::PerCompartment => {
                let i = c.0 as usize;
                assert!(i < self.allocators.len(), "no allocator for {c}");
                i
            }
        }
    }

    /// Allocates from the allocator serving compartment `c`.
    pub fn alloc(
        &mut self,
        m: &mut Machine,
        c: CompartmentId,
        size: u64,
        align: u64,
    ) -> Result<Addr> {
        let i = self.index(c);
        match self.allocators[i].alloc(m, size, align) {
            Ok(a) => {
                // What the allocator accounted and `free` will hand back.
                self.trace.on_alloc(c.0, size.max(1));
                Ok(a)
            }
            Err(f) => {
                let now = m.clock().cycles();
                self.trace.on_fail(m.span_trace_mut(), c.0, size, now);
                Err(f)
            }
        }
    }

    /// Frees into the allocator serving compartment `c`.
    pub fn free(&mut self, m: &mut Machine, c: CompartmentId, addr: Addr) -> Result<()> {
        let i = self.index(c);
        let freed = self.allocators[i].free(m, addr)?;
        self.trace.on_free(c.0, freed);
        Ok(())
    }

    /// The allocator serving `c` (shared view).
    pub fn allocator_for(&self, c: CompartmentId) -> &dyn Allocator {
        self.allocators[self.index(c)].as_ref()
    }

    /// Iterates over all allocators (reporting).
    pub fn allocators(&self) -> impl Iterator<Item = &dyn Allocator> {
        self.allocators.iter().map(|a| a.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::testutil::region;
    use crate::alloc::FreeListAllocator;

    fn two_heaps() -> (Machine, HeapService) {
        let (mut m, base0) = region(8192);
        let base1 = m
            .alloc_region(
                flexos_machine::VmId(0),
                8192,
                flexos_machine::ProtKey(2),
                flexos_machine::PageFlags::RW,
            )
            .unwrap();
        let svc = HeapService::per_compartment(vec![
            Box::new(FreeListAllocator::new(base0, 8192)),
            Box::new(FreeListAllocator::new(base1, 8192)),
        ]);
        (m, svc)
    }

    #[test]
    fn per_compartment_mode_keeps_heaps_disjoint() {
        let (mut m, mut svc) = two_heaps();
        let a = svc.alloc(&mut m, CompartmentId(0), 64, 8).unwrap();
        let b = svc.alloc(&mut m, CompartmentId(1), 64, 8).unwrap();
        let (r0, l0) = svc.allocator_for(CompartmentId(0)).region();
        let (r1, _) = svc.allocator_for(CompartmentId(1)).region();
        assert!(a.0 >= r0.0 && a.0 < r0.0 + l0);
        assert!(b.0 >= r1.0);
        assert_ne!(r0, r1);
    }

    #[test]
    fn global_mode_shares_one_allocator() {
        let (mut m, base) = region(8192);
        let mut svc = HeapService::global(Box::new(FreeListAllocator::new(base, 8192)));
        let a = svc.alloc(&mut m, CompartmentId(0), 64, 8).unwrap();
        let b = svc.alloc(&mut m, CompartmentId(5), 64, 8).unwrap();
        // Both land in the same region; stats accumulate on one allocator.
        assert_eq!(svc.allocator_for(CompartmentId(3)).stats().allocs, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn free_routes_to_the_owning_allocator() {
        let (mut m, mut svc) = two_heaps();
        let a = svc.alloc(&mut m, CompartmentId(1), 64, 8).unwrap();
        svc.free(&mut m, CompartmentId(1), a).unwrap();
        assert_eq!(svc.allocator_for(CompartmentId(1)).stats().live_bytes, 0);
        // Freeing into the wrong compartment's allocator is caught.
        let b = svc.alloc(&mut m, CompartmentId(0), 64, 8).unwrap();
        assert!(svc.free(&mut m, CompartmentId(1), b).is_err());
    }

    #[test]
    fn zero_size_pair_leaves_bytes_in_use_where_it_was() {
        let (mut m, mut svc) = two_heaps();
        let c = CompartmentId(1);
        let held = svc.alloc(&mut m, c, 64, 8).unwrap();
        let in_use = |svc: &HeapService| svc.trace().row(1).unwrap().bytes_in_use;
        let before = in_use(&svc);
        for _ in 0..3 {
            let z = svc.alloc(&mut m, c, 0, 8).unwrap();
            // The trace and the allocator account the same byte.
            assert_eq!(in_use(&svc), svc.allocator_for(c).stats().live_bytes);
            svc.free(&mut m, c, z).unwrap();
        }
        assert_eq!(in_use(&svc), before);
        svc.free(&mut m, c, held).unwrap();
        assert_eq!(in_use(&svc), 0);
    }
}
