//! The top-level simulated machine.
//!
//! [`Machine`] owns physical memory, the frame allocator, all VMs and
//! vCPUs, the cycle clock and the cost table. Every modelled memory access
//! goes through [`Machine::read`]/[`Machine::write`], which perform the
//! full enforcement pipeline a real core would:
//!
//! 1. page-table walk in the active VM (miss ⇒ page fault / EPT violation),
//! 2. hardware W-bit check,
//! 3. protection-key check against the current vCPU's PKRU (when the VM
//!    has pkeys enabled),
//! 4. cycle charging (fixed per-access cost + per-byte streaming cost).
//!
//! `wrpkru` is guarded according to [`PkruGuard`]: with the default
//! capability guard, only holders of the machine's [`GateToken`] (i.e. the
//! isolation backends' vetted gate code) may change PKRU — modelling the
//! call-site vetting that ERIM does by binary inspection and Hodor by
//! runtime checking.

use crate::addr::{pages_for, Addr, Pfn, PhysAddr, Vpn, PAGE_SIZE};
use crate::chaos::{ChaosPlan, ChaosStats, NotifyFate};
use crate::clock::{Clock, CostTable};
use crate::cpu::{PkruGuard, Vcpu, VcpuId};
use crate::fault::{Fault, Result};
use crate::frame::FrameAllocator;
use crate::mem::PhysMem;
use crate::page::{PageEntry, PageFlags, PageTable};
use crate::pkey::{Access, Pkru, ProtKey};
use crate::tlb::Tlb;
use crate::vm::{Notification, Vm, VmId};
use flexos_trace::{FaultTrace, Label, SpanKind, SpanTrace, TlbSnapshot};

/// First virtual page number of the shared window. Shared regions are
/// mapped at identical addresses in every VM (paper §3: "mapped in all
/// compartments (VMs) at an identical address so that pointers to/in
/// shared structures remain valid"). Placing the window high keeps it
/// disjoint from every VM's private bump region.
const SHARED_WINDOW_FIRST_VPN: u64 = 0x8_0000_0000; // 512 GiB up.

/// Capability authorizing PKRU writes (held by gate implementations).
///
/// Each machine mints a distinct token at boot, so a token captured from
/// one machine does not authorize `wrpkru` on another — modelling the
/// fact that the vetted-call-site property is per-image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateToken(u64);

impl GateToken {
    fn fresh() -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0x464c_4558_4f53); // "FLEXOS"
        GateToken(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

/// Construction-time configuration of a [`Machine`].
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Number of 4 KiB physical frames (default 32 Mi B = 8192 frames).
    pub phys_frames: u64,
    /// Per-operation cycle costs.
    pub costs: CostTable,
    /// PKRU write-guard policy.
    pub pkru_guard: PkruGuard,
    /// Whether the per-vCPU software TLB is used (default `true`). The
    /// TLB caches translations only — faults and cycle charges are
    /// identical either way — so disabling it exists purely as a
    /// reference path for equivalence tests.
    pub tlb_enabled: bool,
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self {
            phys_frames: 8192,
            costs: CostTable::default(),
            pkru_guard: PkruGuard::default(),
            tlb_enabled: true,
        }
    }
}

/// A record of one shared region, replayed into newly added VMs.
#[derive(Debug, Clone)]
struct SharedRegion {
    first_vpn: u64,
    key: ProtKey,
    /// Its frames, as `(first frame, frames)` runs in address order.
    runs: Vec<(Pfn, u64)>,
}

/// Maps `runs` one after the other from `vpn` on into an unsealed
/// table: one range operation per run.
fn map_runs(pt: &mut PageTable, mut vpn: u64, runs: &[(Pfn, u64)], flags: PageFlags, key: ProtKey) {
    for &(pfn, pages) in runs {
        pt.map_range(Vpn(vpn), pages, PageEntry { pfn, flags, key });
        vpn += pages;
    }
}

/// The fault of a range operation in `vm` that met a hole (or a sealed
/// table) at a page.
fn hole_fault(vm: VmId) -> impl Fn(Vpn) -> Fault {
    move |hole| Fault::PageNotPresent {
        addr: hole.base(),
        vm,
        access: Access::Write,
    }
}

/// One physically contiguous piece of a translated virtual range:
/// `(phys_base, len)`, never crossing a page boundary.
type Run = (PhysAddr, u64);

/// The simulated machine.
#[derive(Debug)]
pub struct Machine {
    costs: CostTable,
    pkru_guard: PkruGuard,
    phys: PhysMem,
    frames: FrameAllocator,
    vms: Vec<Vm>,
    vcpus: Vec<Vcpu>,
    clock: Clock,
    shared_regions: Vec<SharedRegion>,
    shared_next_vpn: u64,
    gate_token: GateToken,
    faults: FaultTrace,
    spans: SpanTrace,
    chaos: Option<ChaosPlan>,
    /// One software TLB per vCPU (parallel to `vcpus`).
    tlbs: Vec<Tlb>,
    tlb_enabled: bool,
    tlb_trace: TlbSnapshot,
    /// The runs after the first of the last range translated on each
    /// side (0: the only or source side, 1: `copy`'s destination).
    /// Grow-only scratch: empty whenever the range stayed in one page.
    runs: [Vec<Run>; 2],
    /// Reusable bounce buffer for the rare overlapping-`copy` case.
    scratch: Vec<u8>,
}

impl Machine {
    /// Boots a machine with VM 0 (pkeys enabled) and vCPU 0 attached to it.
    pub fn new(cfg: MachineConfig) -> Self {
        let vms = vec![Vm::new(VmId(0), true)];
        let vcpus = vec![Vcpu::new(VcpuId(0), VmId(0))];
        Self {
            phys: PhysMem::new(cfg.phys_frames),
            frames: FrameAllocator::new(cfg.phys_frames),
            costs: cfg.costs,
            pkru_guard: cfg.pkru_guard,
            vms,
            vcpus,
            clock: Clock::new(),
            shared_regions: Vec::new(),
            shared_next_vpn: SHARED_WINDOW_FIRST_VPN,
            gate_token: GateToken::fresh(),
            faults: FaultTrace::new(),
            spans: SpanTrace::new(),
            chaos: None,
            tlbs: vec![Tlb::new()],
            tlb_enabled: cfg.tlb_enabled,
            tlb_trace: TlbSnapshot::default(),
            // Room for nine pages a side: packet, ring and copy traffic
            // never grows them, so no access allocates after boot.
            runs: [Vec::with_capacity(8), Vec::with_capacity(8)],
            scratch: Vec::new(),
        }
    }

    /// Boots a machine with the default configuration.
    pub fn with_defaults() -> Self {
        Self::new(MachineConfig::default())
    }

    // ---- topology -------------------------------------------------------

    /// Adds a VM; existing shared regions are mapped into it at the same
    /// addresses. Returns the new VM's id.
    pub fn add_vm(&mut self, pkeys_enabled: bool) -> VmId {
        let id = VmId(self.vms.len() as u8);
        let mut vm = Vm::new(id, pkeys_enabled);
        // The shared window lives above every VM's private range by
        // construction, so mapping it does not perturb the private bump
        // cursor.
        let pt = &mut vm.page_table;
        for r in &self.shared_regions {
            map_runs(pt, r.first_vpn, &r.runs, PageFlags::RW, r.key);
        }
        self.vms.push(vm);
        id
    }

    /// Adds a vCPU attached to `vm`.
    pub fn add_vcpu(&mut self, vm: VmId) -> VcpuId {
        assert!((vm.0 as usize) < self.vms.len(), "unknown {vm}");
        let id = VcpuId(self.vcpus.len() as u8);
        self.vcpus.push(Vcpu::new(id, vm));
        self.tlbs.push(Tlb::new());
        id
    }

    /// Adds `n` vCPUs attached to `vm` (SMP topologies), returning their
    /// ids in creation order. Each gets its own per-vCPU TLB.
    pub fn add_vcpus(&mut self, vm: VmId, n: usize) -> Vec<VcpuId> {
        (0..n).map(|_| self.add_vcpu(vm)).collect()
    }

    /// Number of VMs.
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// Immutable view of a vCPU's state.
    pub fn vcpu(&self, id: VcpuId) -> &Vcpu {
        &self.vcpus[id.0 as usize]
    }

    // ---- fault injection ------------------------------------------------

    /// Installs a fault-injection plan (see [`crate::chaos`]). With no
    /// plan installed — the default — every hook below is a no-op and
    /// the machine's behaviour and cycle accounting are bit-identical
    /// to a build without chaos support.
    pub fn set_chaos(&mut self, plan: ChaosPlan) {
        self.chaos = Some(plan);
    }

    /// Removes the fault-injection plan.
    pub fn clear_chaos(&mut self) {
        self.chaos = None;
    }

    /// Injection counters, if a plan is installed.
    pub fn chaos_stats(&self) -> Option<ChaosStats> {
        self.chaos.as_ref().map(ChaosPlan::stats)
    }

    /// Spurious-fault hook shared by `read`/`write`/`fill`: with a plan
    /// installed, a configurable fraction of accesses trap with a
    /// protection-key violation even though enforcement would have
    /// allowed them.
    #[inline]
    fn chaos_access(&mut self, addr: Addr, access: Access) -> Result<()> {
        if self
            .chaos
            .as_mut()
            .is_some_and(ChaosPlan::access_should_fault)
        {
            return Err(self.injected_pkey_fault(addr, access));
        }
        Ok(())
    }

    /// The injected fault of [`Machine::chaos_access`], recorded. Out of
    /// line: the fault probes must not keep the per-access check from
    /// inlining.
    #[cold]
    fn injected_pkey_fault(&mut self, addr: Addr, access: Access) -> Fault {
        self.record_injected("injected-pkey");
        self.trap(Fault::PkeyViolation {
            addr,
            key: ProtKey(15),
            access,
        })
    }

    // ---- regions --------------------------------------------------------

    /// Allocates `bytes` of fresh memory in `vm`'s private address space,
    /// tagged with `key`. Returns the base address (page-aligned).
    pub fn alloc_region(
        &mut self,
        vm: VmId,
        bytes: u64,
        key: ProtKey,
        flags: PageFlags,
    ) -> Result<Addr> {
        if self.vms[vm.0 as usize].page_table.is_sealed() {
            return Err(Fault::PageTableSealed { vm });
        }
        let pages = self.chaos_alloc(bytes)?;
        let runs = self.frames.alloc_many(pages).inspect_err(|f| {
            let now = self.clock.cycles();
            self.faults.record(&mut self.spans, f.kind(), None, now);
        })?;
        let vmref = &mut self.vms[vm.0 as usize];
        let first = vmref.reserve_vpns(pages);
        map_runs(&mut vmref.page_table, first, &runs, flags, key);
        self.tlb_trace.flush();
        Ok(Vpn(first).base())
    }

    /// Removes the mapping of `[base, base+bytes)` from `vm`'s address
    /// space. Frames stay owned by the machine (a region may alias the
    /// shared window, which other VMs still map). Fails with
    /// `PageNotPresent` if a page is already unmapped or the table is
    /// sealed; pages unmapped before the failure stay unmapped.
    pub fn unmap_region(&mut self, vm: VmId, base: Addr, bytes: u64) -> Result<()> {
        let pages = pages_for(bytes.max(1));
        let pt = &mut self.vms[vm.0 as usize].page_table;
        pt.unmap_range(base.vpn(), pages).map_err(hole_fault(vm))?;
        self.tlb_trace.flush();
        Ok(())
    }

    /// The pages `bytes` takes, or the out-of-memory fault an installed
    /// chaos plan injects in its place.
    fn chaos_alloc(&mut self, bytes: u64) -> Result<u64> {
        let pages = pages_for(bytes.max(1));
        if let Some(plan) = self.chaos.as_mut() {
            if plan.alloc_should_fail() {
                self.record_injected("injected-oom");
                return Err(Fault::OutOfMemory {
                    requested_pages: pages,
                });
            }
        }
        Ok(pages)
    }

    /// Allocates `bytes` of memory mapped at the *same* address in every
    /// VM (the shared window), tagged with `key`.
    pub fn alloc_shared_region(&mut self, bytes: u64, key: ProtKey) -> Result<Addr> {
        if let Some(vm) = self.vms.iter().find(|vm| vm.page_table.is_sealed()) {
            return Err(Fault::PageTableSealed { vm: vm.id });
        }
        let pages = self.chaos_alloc(bytes)?;
        let runs = self.frames.alloc_many(pages)?;
        let first = self.shared_next_vpn;
        self.shared_next_vpn += pages;
        for vm in &mut self.vms {
            map_runs(&mut vm.page_table, first, &runs, PageFlags::RW, key);
        }
        self.shared_regions.push(SharedRegion {
            first_vpn: first,
            key,
            runs,
        });
        self.tlb_trace.flush();
        Ok(Vpn(first).base())
    }

    /// Re-tags an existing region with a new protection key (memory-manager
    /// operation; fails if the page table is sealed or pages are unmapped).
    pub fn set_region_key(&mut self, vm: VmId, base: Addr, bytes: u64, key: ProtKey) -> Result<()> {
        let (vpn, pages) = (base.vpn(), pages_for(bytes.max(1)));
        let pt = &mut self.vms[vm.0 as usize].page_table;
        pt.set_key_range(vpn, pages, key).map_err(hole_fault(vm))?;
        self.tlb_trace.flush();
        Ok(())
    }

    /// `vm`'s page table, read-only.
    pub fn page_table(&self, vm: VmId) -> &PageTable {
        &self.vms[vm.0 as usize].page_table
    }

    /// Seals every VM's page table (the paper's page-table-sealing defense).
    pub fn seal_page_tables(&mut self) {
        for vm in &mut self.vms {
            vm.page_table.seal();
        }
        self.tlb_trace.flush();
    }

    // ---- enforcement pipeline -------------------------------------------

    /// Walks (or TLB-hits) one page as `vcpu_id` and runs the permission
    /// checks.
    ///
    /// The TLB caches the *translation* only: the W-bit and PKRU checks
    /// below run on every access against current vCPU state, so faults
    /// are identical hot or cold, and a PKRU change takes effect on the
    /// very next access with no flush.
    ///
    /// A miss returns a plain `PageNotPresent`; the cross-VM diagnostic
    /// scan that may upgrade it to `VmViolation` lives in
    /// [`Machine::raise`], off the translation fast path.
    ///
    /// Each walk marks its frame in [`PhysMem`], which zeroes exactly the
    /// marked frames when it is dropped for reuse (DESIGN.md §6.25). A hit
    /// needs no mark: the entry came from a walk of this machine.
    #[inline(always)]
    fn translate_page(&mut self, vcpu_id: VcpuId, addr: Addr, access: Access) -> Result<PhysAddr> {
        let v = &self.vcpus[vcpu_id.0 as usize];
        let (vm_id, pkru) = (v.vm, v.pkru);
        let vm = &self.vms[vm_id.0 as usize];
        let vpn = addr.vpn();
        let not_present = || Fault::PageNotPresent {
            addr,
            vm: vm_id,
            access,
        };
        let entry = if self.tlb_enabled {
            let tlb = &mut self.tlbs[vcpu_id.0 as usize];
            let generation = vm.page_table.generation();
            match tlb.lookup(vm_id, vpn, generation) {
                Some(e) => {
                    self.tlb_trace.hit();
                    e
                }
                None => {
                    self.tlb_trace.miss();
                    let e = vm.page_table.walk(vpn).ok_or_else(not_present)?;
                    self.phys.mark(e.pfn);
                    tlb.insert(vm_id, vpn, generation, e);
                    e
                }
            }
        } else {
            let e = vm.page_table.walk(vpn).ok_or_else(not_present)?;
            self.phys.mark(e.pfn);
            e
        };
        if access == Access::Write && !entry.flags.writable {
            return Err(Fault::WriteToReadOnly { addr, vm: vm_id });
        }
        if vm.pkeys_enabled && !pkru.permits(entry.key, access) {
            return Err(Fault::PkeyViolation {
                addr,
                key: entry.key,
                access,
            });
        }
        Ok(PhysAddr(entry.pfn.base().0 + addr.page_offset()))
    }

    /// Translates and checks `[addr, addr+len)` page by page. Returns the
    /// first run; the runs of any further pages are pushed on
    /// `self.runs[side]`, so a range inside one page touches no list.
    #[inline(always)]
    fn translate(
        &mut self,
        vcpu: VcpuId,
        addr: Addr,
        len: u64,
        access: Access,
        side: usize,
    ) -> Result<Run> {
        let end = addr
            .checked_add(len)
            .ok_or(Fault::AddressOverflow { addr, len })?;
        // An empty range translates nothing (and so cannot fault).
        if len == 0 {
            return Ok((PhysAddr(0), 0));
        }
        let first = (PAGE_SIZE - addr.page_offset()).min(len);
        let pa = self.translate_page(vcpu, addr, access)?;
        if first < len {
            self.translate_rest(vcpu, Addr(addr.0 + first), end, access, side)?;
        }
        Ok((pa, first))
    }

    /// The pages of a range after its first. Out of line: most accesses
    /// have none, and the loop's state must not weigh on them.
    #[inline(never)]
    fn translate_rest(
        &mut self,
        vcpu: VcpuId,
        mut cur: Addr,
        end: Addr,
        access: Access,
        side: usize,
    ) -> Result<()> {
        while cur.0 < end.0 {
            let run = PAGE_SIZE.min(end.0 - cur.0);
            let pa = self.translate_page(vcpu, cur, access)?;
            self.runs[side].push((pa, run));
            cur = Addr(cur.0 + run);
        }
        Ok(())
    }

    /// The enforcement pipeline of one access, shared by every accessor:
    /// chaos draw, translation and checks of the whole range (a fault is
    /// raised before any byte moves), then the cycle charge. Returns the
    /// range's runs as [`Machine::translate`] leaves them.
    ///
    /// Forced inline, like the two routines under it, so that each
    /// accessor holds the whole one-page pipeline with `len`, `access` and
    /// `side` folded in; left to the hint, a call per access stays (a
    /// 64-byte write + read pair reads 20 % slower, EXPERIMENTS.md E25).
    #[inline(always)]
    fn access(
        &mut self,
        vcpu: VcpuId,
        addr: Addr,
        len: u64,
        access: Access,
        side: usize,
    ) -> Result<Run> {
        self.chaos_access(addr, access)?;
        self.runs[side].clear();
        match self.translate(vcpu, addr, len, access, side) {
            Ok(first) => {
                self.clock
                    .advance(self.costs.mem_access + self.costs.copy_cost(len));
                Ok(first)
            }
            Err(f) => Err(self.raise(f)),
        }
    }

    /// The runs of a translated range, in address order.
    #[inline]
    fn runs(first: Run, rest: &[Run]) -> impl Iterator<Item = Run> + Clone + '_ {
        std::iter::once(first).chain(rest.iter().copied())
    }

    /// Calls `f(phys_base, offset, len)` for each run of a translated
    /// range, `offset` counting the bytes of the runs before it.
    #[inline]
    fn each_run(
        first: Run,
        rest: &[Run],
        mut f: impl FnMut(PhysAddr, usize, usize) -> Result<()>,
    ) -> Result<()> {
        f(first.0, 0, first.1 as usize)?;
        let mut off = first.1 as usize;
        for &(pa, run) in rest {
            f(pa, off, run as usize)?;
            off += run as usize;
        }
        Ok(())
    }

    /// Reads `dst.len()` bytes from `addr` as `vcpu`, enforcing paging and
    /// protection keys, charging cycle costs.
    pub fn read(&mut self, vcpu: VcpuId, addr: Addr, dst: &mut [u8]) -> Result<()> {
        let first = self.access(vcpu, addr, dst.len() as u64, Access::Read, 0)?;
        Self::each_run(first, &self.runs[0], |pa, off, n| {
            self.phys.read(pa, &mut dst[off..off + n])
        })
    }

    /// Writes `src` to `addr` as `vcpu`, enforcing paging and protection
    /// keys, charging cycle costs.
    pub fn write(&mut self, vcpu: VcpuId, addr: Addr, src: &[u8]) -> Result<()> {
        let first = self.access(vcpu, addr, src.len() as u64, Access::Write, 0)?;
        Self::each_run(first, &self.runs[0], |pa, off, n| {
            self.phys.write(pa, &src[off..off + n])
        })
    }

    /// Fills `[addr, addr+len)` with `value` as `vcpu`.
    pub fn fill(&mut self, vcpu: VcpuId, addr: Addr, len: u64, value: u8) -> Result<()> {
        let first = self.access(vcpu, addr, len, Access::Write, 0)?;
        Self::each_run(first, &self.runs[0], |pa, _, n| {
            self.phys.fill(pa, n as u64, value)
        })
    }

    /// Reads a little-endian `u64` at `addr`: unless it straddles a page,
    /// one translation and one fixed-width load.
    pub fn read_u64(&mut self, vcpu: VcpuId, addr: Addr) -> Result<u64> {
        let first = self.access(vcpu, addr, 8, Access::Read, 0)?;
        if first.1 == 8 {
            return self.phys.read_u64(first.0);
        }
        let mut b = [0u8; 8];
        Self::each_run(first, &self.runs[0], |pa, off, n| {
            self.phys.read(pa, &mut b[off..off + n])
        })?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a little-endian `u64` at `addr` (one fixed-width store, see
    /// [`Machine::read_u64`]).
    pub fn write_u64(&mut self, vcpu: VcpuId, addr: Addr, v: u64) -> Result<()> {
        let first = self.access(vcpu, addr, 8, Access::Write, 0)?;
        if first.1 == 8 {
            return self.phys.write_u64(first.0, v);
        }
        let b = v.to_le_bytes();
        Self::each_run(first, &self.runs[0], |pa, off, n| {
            self.phys.write(pa, &b[off..off + n])
        })
    }

    /// Copies `len` bytes from `src` to `dst` within the simulated memory,
    /// checking read rights on the source and write rights on the
    /// destination. Checks, chaos draws and charges are those of a `read`
    /// of the source followed by a `write` of the destination, but the
    /// bytes move inside physical memory ([`PhysMem::copy_within`])
    /// instead of bouncing through a temporary host buffer. Physically
    /// overlapping ranges copy with memmove semantics.
    pub fn copy(&mut self, vcpu: VcpuId, dst: Addr, src: Addr, len: u64) -> Result<()> {
        let s = self.access(vcpu, src, len, Access::Read, 0)?;
        let d = self.access(vcpu, dst, len, Access::Write, 1)?;
        if s.1 == len && d.1 == len {
            // One page per side: one move, which is a memmove.
            return self.phys.copy_within(d.0, s.0, len);
        }
        let mut sruns = Self::runs(s, &self.runs[0]);
        let mut druns = Self::runs(d, &self.runs[1]);
        let aliased = sruns.clone().any(|(sa, sl)| {
            druns
                .clone()
                .any(|(da, dl)| sa.0 < da.0 + dl && da.0 < sa.0 + sl)
        });
        if aliased {
            // Rare: snapshot the source through a reusable scratch buffer
            // so the destination sees the pre-copy bytes.
            self.scratch.clear();
            self.scratch.resize(len as usize, 0);
            Self::each_run(s, &self.runs[0], |pa, off, n| {
                self.phys.read(pa, &mut self.scratch[off..off + n])
            })?;
            return Self::each_run(d, &self.runs[1], |pa, off, n| {
                self.phys.write(pa, &self.scratch[off..off + n])
            });
        }
        // Disjoint: walk both sides in lockstep and move each common run
        // directly inside physical memory.
        let (mut sr, mut dr) = (sruns.next(), druns.next());
        while let (Some((spa, sl)), Some((dpa, dl))) = (sr, dr) {
            let n = sl.min(dl);
            self.phys.copy_within(dpa, spa, n)?;
            sr = if n == sl {
                sruns.next()
            } else {
                Some((PhysAddr(spa.0 + n), sl - n))
            };
            dr = if n == dl {
                druns.next()
            } else {
                Some((PhysAddr(dpa.0 + n), dl - n))
            };
        }
        Ok(())
    }

    // ---- capabilities (CHERI backend) --------------------------------------

    /// Reads through a capability: tag/seal/bounds/permission checks,
    /// then the normal paging pipeline. Charges the per-access
    /// capability check on top of the memory costs.
    pub fn read_via_cap(
        &mut self,
        vcpu: VcpuId,
        cap: &crate::cap::Capability,
        offset: u64,
        dst: &mut [u8],
    ) -> Result<()> {
        let addr = cap.check_access(offset, dst.len() as u64, false)?;
        self.clock.advance(self.costs.cap_check);
        self.read(vcpu, addr, dst)
    }

    /// Writes through a capability (see [`Machine::read_via_cap`]).
    pub fn write_via_cap(
        &mut self,
        vcpu: VcpuId,
        cap: &crate::cap::Capability,
        offset: u64,
        src: &[u8],
    ) -> Result<()> {
        let addr = cap.check_access(offset, src.len() as u64, true)?;
        self.clock.advance(self.costs.cap_check);
        self.write(vcpu, addr, src)
    }

    // ---- PKRU -----------------------------------------------------------

    /// Returns the machine's gate capability. Isolation backends call this
    /// once at image-build time; application/library code must never hold
    /// it. (In real FlexOS the equivalent authority is "being one of the
    /// vetted `wrpkru` call sites".)
    pub fn gate_token(&self) -> GateToken {
        self.gate_token
    }

    /// Refines a translation miss for diagnostics, then records the
    /// fault. The cross-VM scan that upgrades `PageNotPresent` to
    /// `VmViolation` (clearer attack-test output: "that page exists, it
    /// just isn't yours") runs *only* here, on the fault-construction
    /// path — never on the per-access translation fast path, which used
    /// to walk every other VM's page table on every miss.
    #[cold]
    fn raise(&mut self, f: Fault) -> Fault {
        let f = match f {
            Fault::PageNotPresent { addr, vm, access } if self.vms.len() > 1 => {
                let mapped_elsewhere = self
                    .vms
                    .iter()
                    .any(|other| other.id != vm && other.page_table.walk(addr.vpn()).is_some());
                if mapped_elsewhere {
                    Fault::VmViolation { addr, vm }
                } else {
                    Fault::PageNotPresent { addr, vm, access }
                }
            }
            f => f,
        };
        self.trap(f)
    }

    /// Records `f` in the fault trace (with the offending protection key
    /// for pkey violations) and hands it back — the raise-a-fault path.
    #[cold]
    fn trap(&mut self, f: Fault) -> Fault {
        let key = match &f {
            Fault::PkeyViolation { key, .. } => Some(key.0 as u16),
            _ => None,
        };
        let now = self.clock.cycles();
        self.faults.record(&mut self.spans, f.kind(), key, now);
        f
    }

    /// Records a fault the chaos layer injected, of class `kind`.
    #[cold]
    fn record_injected(&mut self, kind: &'static str) {
        let now = self.clock.cycles();
        self.faults.record_injected(&mut self.spans, kind, now);
    }

    /// Fault telemetry: counts by class and by protection key.
    pub fn fault_trace(&self) -> &FaultTrace {
        &self.faults
    }

    /// Software-TLB telemetry: hits, misses and lazy whole-VM flushes.
    pub fn tlb_trace(&self) -> &TlbSnapshot {
        &self.tlb_trace
    }

    /// Request-span telemetry: causal per-request intervals and exact
    /// end-to-end latency samples (PR 7).
    #[inline]
    pub fn span_trace(&self) -> &SpanTrace {
        &self.spans
    }

    /// Mutable span tracer, for probes that hold `&mut Machine`.
    #[inline]
    pub fn span_trace_mut(&mut self) -> &mut SpanTrace {
        &mut self.spans
    }

    /// Executes `wrpkru` on `vcpu`. Under [`PkruGuard::GateCapability`],
    /// `token` must be the machine's gate token or the write faults —
    /// modelling FlexOS's defenses against unauthorized PKRU writes.
    #[inline]
    pub fn wrpkru(&mut self, vcpu: VcpuId, pkru: Pkru, token: Option<GateToken>) -> Result<()> {
        match self.pkru_guard {
            PkruGuard::Off => {}
            PkruGuard::GateCapability => {
                if token != Some(self.gate_token) {
                    return Err(self.trap(Fault::UnauthorizedPkruWrite { attempted: pkru.0 }));
                }
            }
        }
        self.clock.advance(self.costs.wrpkru);
        self.vcpus[vcpu.0 as usize].pkru = pkru;
        Ok(())
    }

    /// Reads `vcpu`'s PKRU (free: `rdpkru` is cheap and off the hot path).
    pub fn rdpkru(&self, vcpu: VcpuId) -> Pkru {
        self.vcpus[vcpu.0 as usize].pkru
    }

    /// Restores a saved PKRU during a context switch. This is the
    /// scheduler's privileged path (the paper: "the scheduler holds the
    /// value of the PKRU for threads that are not currently running") —
    /// it still requires the gate capability.
    #[inline]
    pub fn restore_pkru(&mut self, vcpu: VcpuId, pkru: Pkru, token: GateToken) -> Result<()> {
        self.wrpkru(vcpu, pkru, Some(token))
    }

    // ---- inter-VM notifications ------------------------------------------

    /// Sends an inter-VM notification from `from`'s VM to `target`,
    /// charging the one-way notification cost. With a chaos plan
    /// installed the doorbell may be silently lost (the send cost is
    /// still charged — the interrupt just never arrives) or delivered
    /// twice; callers with delivery requirements must retry. This is
    /// [`Machine::notify_coalesced`] plus the post.
    pub fn notify(&mut self, from: VcpuId, target: VmId, word: u64) -> Result<()> {
        let fate = self.notify_coalesced(from, target)?;
        let n = Notification {
            from: self.vcpus[from.0 as usize].vm,
            word,
        };
        let queue = &mut self.vms[target.0 as usize];
        match fate {
            NotifyFate::Deliver => queue.post(n),
            NotifyFate::Drop => {}
            NotifyFate::Duplicate => {
                queue.post(n.clone());
                queue.post(n);
            }
        }
        Ok(())
    }

    /// A notification whose post its caller has proven redundant: the
    /// receiver's queue is empty and the caller consumes the doorbell
    /// synchronously, so posting to the queue and immediately consuming
    /// the entry is pure host-side churn. This charges the notification
    /// cost, draws the chaos fate and records the injected fault and the
    /// doorbell span — everything [`Machine::notify`] does but the post —
    /// and hands the fate back; callers must honour it (retry on
    /// [`NotifyFate::Drop`]) exactly as if they had posted and polled.
    ///
    /// Equivalence argument, per fate, against `notify` + an immediate
    /// `take_notification` of our own doorbell on an **empty** queue
    /// (callers look first, and take the real path when the queue is not
    /// empty): Deliver posts one entry and takes it back (queue
    /// unchanged, word always matches the sender's own); Drop posts
    /// nothing either way; Duplicate posts two identical entries of
    /// which one is taken and one absorbed by the duplicate-drain loop
    /// (queue unchanged again).
    pub fn notify_coalesced(&mut self, from: VcpuId, target: VmId) -> Result<NotifyFate> {
        assert!((target.0 as usize) < self.vms.len(), "unknown {target}");
        let from_vm = self.vcpus[from.0 as usize].vm;
        self.clock.advance(self.costs.vm_notify);
        let fate = self
            .chaos
            .as_mut()
            .map_or(NotifyFate::Deliver, ChaosPlan::notify_fate);
        let label = match fate {
            NotifyFate::Deliver => Label::Doorbell,
            NotifyFate::Drop => {
                self.record_injected("injected-notify-drop");
                Label::DoorbellDrop
            }
            NotifyFate::Duplicate => {
                self.record_injected("injected-notify-dup");
                Label::DoorbellDup
            }
        };
        let t1 = self.clock.cycles();
        self.spans.record(
            from.0 as u16,
            SpanKind::Doorbell,
            label,
            from_vm.0 as u16,
            target.0 as u16,
            t1 - self.costs.vm_notify,
            t1,
        );
        Ok(fate)
    }

    /// Dequeues the oldest pending notification for `vm`.
    pub fn take_notification(&mut self, vm: VmId) -> Option<Notification> {
        self.vms[vm.0 as usize].take_notification()
    }

    /// Peeks at the oldest pending notification for `vm` without
    /// consuming it (used by gates to absorb duplicated doorbells).
    pub fn peek_notification(&self, vm: VmId) -> Option<&Notification> {
        self.vms[vm.0 as usize].peek_notification()
    }

    // ---- clock ------------------------------------------------------------

    /// The simulated clock.
    #[inline]
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Charges `cycles` to the clock (used by higher layers for modelled
    /// work that does not flow through `read`/`write`).
    pub fn charge(&mut self, cycles: u64) {
        self.clock.advance(cycles);
    }

    /// The machine's cost table.
    pub fn costs(&self) -> &CostTable {
        &self.costs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::with_defaults()
    }

    #[test]
    fn boot_creates_vm0_and_vcpu0() {
        let m = machine();
        assert_eq!(m.vm_count(), 1);
        assert_eq!(m.vcpu(VcpuId(0)).vm, VmId(0));
    }

    #[test]
    fn alloc_write_read_round_trip() {
        let mut m = machine();
        let a = m
            .alloc_region(VmId(0), 8192, ProtKey(1), PageFlags::RW)
            .unwrap();
        m.write(VcpuId(0), a, b"hello-flexos").unwrap();
        let mut buf = [0u8; 12];
        m.read(VcpuId(0), a, &mut buf).unwrap();
        assert_eq!(&buf, b"hello-flexos");
    }

    #[test]
    fn cross_page_access_works() {
        let mut m = machine();
        let a = m
            .alloc_region(VmId(0), 2 * PAGE_SIZE, ProtKey(0), PageFlags::RW)
            .unwrap();
        let straddle = Addr(a.0 + PAGE_SIZE - 3);
        m.write(VcpuId(0), straddle, b"abcdef").unwrap();
        let mut buf = [0u8; 6];
        m.read(VcpuId(0), straddle, &mut buf).unwrap();
        assert_eq!(&buf, b"abcdef");
    }

    #[test]
    fn pkey_denial_faults_the_write() {
        let mut m = machine();
        let a = m
            .alloc_region(VmId(0), 128, ProtKey(3), PageFlags::RW)
            .unwrap();
        let tok = m.gate_token();
        let restrictive = Pkru::deny_all_except(&[ProtKey(0)], &[]);
        m.wrpkru(VcpuId(0), restrictive, Some(tok)).unwrap();
        let err = m.write(VcpuId(0), a, b"x").unwrap_err();
        assert!(matches!(
            err,
            Fault::PkeyViolation {
                key: ProtKey(3),
                ..
            }
        ));
        // Reads denied too (AD bit).
        let mut b = [0u8; 1];
        assert!(m.read(VcpuId(0), a, &mut b).is_err());
    }

    #[test]
    fn read_only_key_permits_reads_only() {
        let mut m = machine();
        let a = m
            .alloc_region(VmId(0), 128, ProtKey(2), PageFlags::RW)
            .unwrap();
        let tok = m.gate_token();
        let pkru = Pkru::deny_all_except(&[ProtKey(0)], &[ProtKey(2)]);
        m.wrpkru(VcpuId(0), pkru, Some(tok)).unwrap();
        let mut b = [0u8; 1];
        m.read(VcpuId(0), a, &mut b).unwrap();
        assert!(matches!(
            m.write(VcpuId(0), a, b"x"),
            Err(Fault::PkeyViolation { .. })
        ));
    }

    #[test]
    fn unauthorized_wrpkru_is_caught() {
        let mut m = machine();
        let err = m.wrpkru(VcpuId(0), Pkru::ALLOW_ALL, None).unwrap_err();
        assert!(matches!(err, Fault::UnauthorizedPkruWrite { .. }));
    }

    #[test]
    fn wrpkru_guard_off_reproduces_pku_pitfalls() {
        let mut m = Machine::new(MachineConfig {
            pkru_guard: PkruGuard::Off,
            ..Default::default()
        });
        // Attacker escalates without the token.
        m.wrpkru(VcpuId(0), Pkru::ALLOW_ALL, None).unwrap();
    }

    #[test]
    fn private_vm_memory_is_invisible_to_other_vms() {
        let mut m = machine();
        let vm1 = m.add_vm(false);
        let vcpu1 = m.add_vcpu(vm1);
        let secret = m
            .alloc_region(VmId(0), 64, ProtKey(0), PageFlags::RW)
            .unwrap();
        m.write(VcpuId(0), secret, b"secret").unwrap();
        let mut buf = [0u8; 6];
        let err = m.read(vcpu1, secret, &mut buf).unwrap_err();
        assert!(matches!(err, Fault::VmViolation { .. }));
    }

    #[test]
    fn shared_window_is_visible_to_all_vms_at_same_address() {
        let mut m = machine();
        let shared = m.alloc_shared_region(4096, ProtKey(0)).unwrap();
        let vm1 = m.add_vm(false); // Added *after* the shared alloc.
        let vcpu1 = m.add_vcpu(vm1);
        m.write(VcpuId(0), shared, b"rpc-frame").unwrap();
        let mut buf = [0u8; 9];
        m.read(vcpu1, shared, &mut buf).unwrap();
        assert_eq!(&buf, b"rpc-frame");
    }

    #[test]
    fn notifications_cost_cycles_and_arrive_fifo() {
        let mut m = machine();
        let vm1 = m.add_vm(false);
        let before = m.clock().cycles();
        m.notify(VcpuId(0), vm1, 7).unwrap();
        assert_eq!(m.clock().cycles() - before, m.costs().vm_notify);
        let n = m.take_notification(vm1).unwrap();
        assert_eq!(n.word, 7);
        assert_eq!(n.from, VmId(0));
    }

    #[test]
    fn memory_accesses_advance_the_clock() {
        let mut m = machine();
        let a = m
            .alloc_region(VmId(0), 4096, ProtKey(0), PageFlags::RW)
            .unwrap();
        let c0 = m.clock().cycles();
        m.write(VcpuId(0), a, &[0u8; 4096]).unwrap();
        let charged = m.clock().cycles() - c0;
        assert_eq!(charged, m.costs().mem_access + m.costs().copy_cost(4096));
    }

    #[test]
    fn write_to_read_only_page_faults() {
        let mut m = machine();
        let a = m
            .alloc_region(VmId(0), 64, ProtKey(0), PageFlags::RO)
            .unwrap();
        assert!(matches!(
            m.write(VcpuId(0), a, b"x"),
            Err(Fault::WriteToReadOnly { .. })
        ));
    }

    #[test]
    fn null_page_faults() {
        let mut m = machine();
        let mut b = [0u8; 1];
        assert!(matches!(
            m.read(VcpuId(0), Addr(0), &mut b),
            Err(Fault::PageNotPresent { .. })
        ));
    }

    #[test]
    fn set_region_key_retags() {
        let mut m = machine();
        let a = m
            .alloc_region(VmId(0), 4096, ProtKey(1), PageFlags::RW)
            .unwrap();
        m.set_region_key(VmId(0), a, 4096, ProtKey(4)).unwrap();
        let tok = m.gate_token();
        let pkru = Pkru::deny_all_except(&[ProtKey(1)], &[]);
        m.wrpkru(VcpuId(0), pkru, Some(tok)).unwrap();
        // Now tagged key 4, which the PKRU denies.
        assert!(matches!(
            m.write(VcpuId(0), a, b"x"),
            Err(Fault::PkeyViolation { .. })
        ));
    }

    #[test]
    fn sealed_page_tables_reject_retag() {
        let mut m = machine();
        let a = m
            .alloc_region(VmId(0), 4096, ProtKey(1), PageFlags::RW)
            .unwrap();
        m.seal_page_tables();
        assert!(m.set_region_key(VmId(0), a, 4096, ProtKey(2)).is_err());
    }

    #[test]
    fn sealed_page_tables_refuse_allocation_with_a_typed_fault() {
        let mut m = machine();
        let vm1 = m.add_vm(false);
        m.seal_page_tables();
        let free = m.frames.free();
        let sealed = |vm| Err(Fault::PageTableSealed { vm });
        assert_eq!(
            m.alloc_region(VmId(0), 4096, ProtKey(1), PageFlags::RW),
            sealed(VmId(0))
        );
        assert_eq!(
            m.alloc_region(vm1, 8192, ProtKey(0), PageFlags::RO),
            sealed(vm1)
        );
        assert_eq!(m.alloc_shared_region(4096, ProtKey(0)), sealed(VmId(0)));
        assert_eq!(
            m.frames.free(),
            free,
            "no frame is taken for a refused region"
        );
    }

    /// A range operation that meets a hole changes the pages before it,
    /// names the hole, and does not count as a flush.
    #[test]
    fn a_hole_stops_a_region_retag_or_unmap_where_it_is() {
        let mut m = machine();
        let a = m
            .alloc_region(VmId(0), 4 * PAGE_SIZE, ProtKey(1), PageFlags::RW)
            .unwrap();
        let page = |i: u64| Addr(a.0 + i * PAGE_SIZE);
        m.unmap_region(VmId(0), page(2), PAGE_SIZE).unwrap();
        let flushes = m.tlb_trace().flushes;
        let hole = Err(hole_fault(VmId(0))(page(2).vpn()));
        assert_eq!(
            m.set_region_key(VmId(0), page(1), 3 * PAGE_SIZE, ProtKey(2)),
            hole
        );
        let key = |m: &Machine, i| m.page_table(VmId(0)).walk(page(i).vpn()).map(|e| e.key);
        assert_eq!(
            [0, 1, 3].map(|i| key(&m, i)),
            [1, 2, 1].map(|k| Some(ProtKey(k)))
        );
        assert_eq!(m.unmap_region(VmId(0), page(0), 3 * PAGE_SIZE), hole);
        assert_eq!(
            [0, 1, 3].map(|i| key(&m, i)),
            [None, None, Some(ProtKey(1))]
        );
        assert_eq!(m.tlb_trace().flushes, flushes);
    }

    #[test]
    fn copy_moves_bytes_between_regions() {
        let mut m = machine();
        let src = m
            .alloc_region(VmId(0), 4096, ProtKey(0), PageFlags::RW)
            .unwrap();
        let dst = m
            .alloc_region(VmId(0), 4096, ProtKey(0), PageFlags::RW)
            .unwrap();
        m.write(VcpuId(0), src, b"payload").unwrap();
        m.copy(VcpuId(0), dst, src, 7).unwrap();
        let mut buf = [0u8; 7];
        m.read(VcpuId(0), dst, &mut buf).unwrap();
        assert_eq!(&buf, b"payload");
    }

    /// Three virtually contiguous pages of VM 0 whose frames are not
    /// adjacent (a frame of VM 1 sits between each two), the third
    /// unmapped again.
    fn scattered_pages(m: &mut Machine) -> Addr {
        let vm1 = m.add_vm(true);
        let page = |m: &mut Machine| {
            m.alloc_region(vm1, PAGE_SIZE, ProtKey(0), PageFlags::RW)
                .unwrap();
            m.alloc_region(VmId(0), PAGE_SIZE, ProtKey(0), PageFlags::RW)
                .unwrap()
        };
        let base = page(m);
        page(m);
        let third = page(m);
        m.unmap_region(VmId(0), third, PAGE_SIZE).unwrap();
        base
    }

    #[test]
    fn a_range_is_checked_whole_before_a_byte_moves_or_its_cycles_are_charged() {
        let mut m = machine();
        let base = scattered_pages(&mut m);
        let v = VcpuId(0);
        let (second, third) = (Addr(base.0 + PAGE_SIZE), Addr(base.0 + 2 * PAGE_SIZE));
        m.fill(v, second, PAGE_SIZE, 0x5a).unwrap();
        // Every accessor, over a range whose tail is the unmapped page.
        let at = Addr(third.0 - 3);
        type Access<'a> = &'a dyn Fn(&mut Machine) -> Result<()>;
        let accesses: [Access; 7] = [
            &|m| m.read(v, at, &mut [0u8; 6]),
            &|m| m.write(v, at, b"abcdef"),
            &|m| m.fill(v, at, 6, 1),
            &|m| m.copy(v, at, base, 6),
            &|m| m.copy(v, base, at, 6),
            &|m| m.write_u64(v, at, u64::MAX),
            &|m| m.read_u64(v, at).map(|_| ()),
        ];
        for (i, access) in accesses.iter().enumerate() {
            let t0 = m.clock().cycles();
            let fault = access(&mut m).unwrap_err();
            let at_third = matches!(fault, Fault::PageNotPresent { addr, .. } if addr == third);
            assert!(at_third, "access {i}: {fault:?}");
            // Only `copy(at, base)` got anywhere: its source half.
            let charged = if i == 3 {
                m.costs().mem_access + m.costs().copy_cost(6)
            } else {
                0
            };
            assert_eq!(m.clock().cycles() - t0, charged, "access {i}");
        }
        let mut page = vec![0u8; PAGE_SIZE as usize];
        m.read(v, second, &mut page).unwrap();
        assert!(page.iter().all(|&b| b == 0x5a), "a faulting access wrote");
    }

    #[test]
    fn a_straddling_access_follows_the_page_table_not_the_frame_order() {
        let mut m = machine();
        let base = scattered_pages(&mut m);
        let v = VcpuId(0);
        let at = Addr(base.0 + PAGE_SIZE - 3);
        let tail = |m: &mut Machine| {
            let (mut head, mut tail) = ([0u8; 3], [0u8; 5]);
            m.read(v, at, &mut head).unwrap();
            m.read(v, Addr(base.0 + PAGE_SIZE), &mut tail).unwrap();
            [head.as_slice(), tail.as_slice()].concat()
        };
        m.write(v, at, b"abcdefgh").unwrap();
        assert_eq!(tail(&mut m), b"abcdefgh");
        m.write_u64(v, at, 0x0807_0605_0403_0201).unwrap();
        assert_eq!(tail(&mut m), [1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(m.read_u64(v, at).unwrap(), 0x0807_0605_0403_0201);
        m.write_u64(v, at, 0x1817_1615_1413_1211).unwrap();
        assert_eq!(m.read_u64(v, at).unwrap(), 0x1817_1615_1413_1211);
        m.write(v, base, b"ABCDEFGH").unwrap();
        m.copy(v, at, base, 8).unwrap();
        assert_eq!(tail(&mut m), b"ABCDEFGH");
        m.fill(v, at, 8, 7).unwrap();
        assert_eq!(tail(&mut m), [7; 8]);
    }

    /// The one case `tests/copy_equiv.rs` cannot build through the public
    /// API: two pages of one VM on one frame, so source and destination
    /// differ virtually and overlap physically.
    #[test]
    fn copy_between_two_views_of_one_frame_is_a_memmove() {
        for pages in [1, 2] {
            let mut m = machine();
            let v = VcpuId(0);
            let bytes = pages * PAGE_SIZE;
            let a = m
                .alloc_region(VmId(0), bytes, ProtKey(0), PageFlags::RW)
                .unwrap();
            let vm = &mut m.vms[0];
            let alias = Vpn(vm.reserve_vpns(pages));
            for i in 0..pages {
                let entry = vm.page_table.walk(Vpn(a.vpn().0 + i)).unwrap();
                assert!(vm.page_table.map(Vpn(alias.0 + i), entry));
            }
            let pattern: Vec<u8> = (0..bytes).map(|i| (i * 7 + i / 256) as u8).collect();
            let len = bytes - 100;
            for (dst_off, src_off) in [(10, 0), (0, 10)] {
                m.write(v, a, &pattern).unwrap();
                let (dst, src) = (Addr(alias.base().0 + dst_off), Addr(a.0 + src_off));
                m.copy(v, dst, src, len).unwrap();
                let mut want = pattern.clone();
                want.copy_within(src_off as usize..(src_off + len) as usize, dst_off as usize);
                let mut got = vec![0u8; bytes as usize];
                m.read(v, a, &mut got).unwrap();
                assert_eq!(got, want, "{pages} page(s), dst +{dst_off}, src +{src_off}");
            }
        }
    }

    #[test]
    fn chaos_injects_oom_on_schedule() {
        use crate::chaos::{ChaosConfig, ChaosPlan, Schedule};
        let mut m = machine();
        m.set_chaos(ChaosPlan::new(ChaosConfig {
            seed: 1,
            alloc_fail: Schedule::EveryNth(2),
            ..Default::default()
        }));
        assert!(m
            .alloc_region(VmId(0), 64, ProtKey(0), PageFlags::RW)
            .is_ok());
        let err = m
            .alloc_region(VmId(0), 64, ProtKey(0), PageFlags::RW)
            .unwrap_err();
        assert!(matches!(err, Fault::OutOfMemory { .. }));
        assert_eq!(m.chaos_stats().unwrap().injected_oom, 1);
        assert_eq!(m.fault_trace().count("injected-oom"), 1);
    }

    #[test]
    fn chaos_drops_and_duplicates_doorbells() {
        use crate::chaos::{ChaosConfig, ChaosPlan, Schedule};
        let mut m = machine();
        let vm1 = m.add_vm(false);
        m.set_chaos(ChaosPlan::new(ChaosConfig {
            seed: 1,
            notify_drop: Schedule::EveryNth(2),
            ..Default::default()
        }));
        m.notify(VcpuId(0), vm1, 1).unwrap();
        m.notify(VcpuId(0), vm1, 2).unwrap(); // 2nd: dropped
        assert_eq!(m.take_notification(vm1).unwrap().word, 1);
        assert!(m.take_notification(vm1).is_none());
        assert_eq!(m.chaos_stats().unwrap().dropped_notifications, 1);

        m.set_chaos(ChaosPlan::new(ChaosConfig {
            seed: 1,
            notify_dup: Schedule::EveryNth(1),
            ..Default::default()
        }));
        m.notify(VcpuId(0), vm1, 9).unwrap();
        assert_eq!(m.take_notification(vm1).unwrap().word, 9);
        assert_eq!(m.peek_notification(vm1).unwrap().word, 9);
        assert_eq!(m.take_notification(vm1).unwrap().word, 9);
        assert_eq!(m.chaos_stats().unwrap().duplicated_notifications, 1);
        // One span per doorbell, labelled by its fate; one injected fault
        // per lost or doubled one.
        if cfg!(not(feature = "trace-off")) {
            let events = m.span_trace().merged_events();
            let doorbells: Vec<_> = events
                .iter()
                .filter(|(_, _, ev)| ev.kind == SpanKind::Doorbell)
                .map(|(_, _, ev)| ev.label.as_str())
                .collect();
            assert_eq!(doorbells, ["doorbell", "doorbell-drop", "doorbell-dup"]);
        }
        assert_eq!(m.fault_trace().count("injected-notify-drop"), 1);
        assert_eq!(m.fault_trace().count("injected-notify-dup"), 1);
    }

    #[test]
    fn chaos_trips_spurious_pkey_faults() {
        use crate::chaos::{ChaosConfig, ChaosPlan, Schedule};
        let mut m = machine();
        let a = m
            .alloc_region(VmId(0), 64, ProtKey(0), PageFlags::RW)
            .unwrap();
        m.set_chaos(ChaosPlan::new(ChaosConfig {
            seed: 1,
            spurious_pkey: Schedule::EveryNth(3),
            ..Default::default()
        }));
        m.write(VcpuId(0), a, b"a").unwrap();
        m.write(VcpuId(0), a, b"b").unwrap();
        let err = m.write(VcpuId(0), a, b"c").unwrap_err();
        assert!(matches!(err, Fault::PkeyViolation { .. }));
        assert_eq!(m.chaos_stats().unwrap().spurious_pkey_faults, 1);
        assert_eq!(m.fault_trace().count("injected-pkey"), 1);
    }

    #[test]
    fn idle_chaos_plan_is_cycle_neutral() {
        use crate::chaos::{ChaosConfig, ChaosPlan};
        let run = |chaos: bool| -> u64 {
            let mut m = machine();
            if chaos {
                m.set_chaos(ChaosPlan::new(ChaosConfig::with_seed(42)));
            }
            let vm1 = m.add_vm(false);
            let a = m
                .alloc_region(VmId(0), 4096, ProtKey(0), PageFlags::RW)
                .unwrap();
            m.write(VcpuId(0), a, &[7u8; 4096]).unwrap();
            let mut buf = [0u8; 256];
            m.read(VcpuId(0), a, &mut buf).unwrap();
            m.notify(VcpuId(0), vm1, 3).unwrap();
            m.take_notification(vm1).unwrap();
            m.clock().cycles()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn u64_helpers_round_trip() {
        let mut m = machine();
        let a = m
            .alloc_region(VmId(0), 64, ProtKey(0), PageFlags::RW)
            .unwrap();
        m.write_u64(VcpuId(0), a, 0xdead_beef_cafe_f00d).unwrap();
        assert_eq!(m.read_u64(VcpuId(0), a).unwrap(), 0xdead_beef_cafe_f00d);
    }
}
