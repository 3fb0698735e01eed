//! Plan instantiation: from an [`ImagePlan`] to a booted [`BootImage`].
//!
//! This is the runtime half of FlexOS's builder: "Using this information,
//! FlexOS's builder will generate the required protection domains (one
//! per compartment) and replace the call gate placeholders with the
//! relevant code." (paper §2). Given a validated plan, [`instantiate`]
//! boots a simulated machine, creates one protection domain per
//! compartment under the chosen backend (MPK keys in one VM, or one VM
//! per compartment), wires the per-compartment or global heap
//! allocators, maps the shared window, and installs the backend's gate
//! into a [`GateRuntime`].

use crate::cheri::CheriGate;
use crate::mpk::{MpkSharedGate, MpkSwitchedGate};
use crate::vmrpc::VmRpcGate;
use flexos::build::{BackendChoice, ImagePlan, LibRole};
use flexos::gate::{
    CallVec, CompartmentCtx, CompartmentId, Cqe, DirectGate, Gate, GateRuntime, Sqe,
};
use flexos_kernel::alloc::{Allocator, FreeListAllocator, HeapService};
use flexos_machine::{
    Addr, Fault, GateToken, Machine, MachineConfig, PageFlags, Pkru, ProtKey, Result, VcpuId, VmId,
};
use std::rc::Rc;

/// Sizing knobs for instantiation.
#[derive(Debug, Clone)]
pub struct BootOptions {
    /// Physical frames for the whole machine (default 64 MiB).
    pub phys_frames: u64,
    /// Private heap bytes per compartment (default 2 MiB).
    pub heap_per_compartment: u64,
    /// Shared-window heap bytes (default 1 MiB).
    pub shared_heap: u64,
    /// Per-thread stack bytes (default 64 KiB).
    pub stack_size: u64,
    /// Socket-ring pool bytes the OS assembly layer carves out of the
    /// network compartment's heap (default 1 MiB). Serving-tier boots
    /// with 10⁵ connections raise this so `conns × ring_bytes` fits.
    pub net_pool_bytes: u64,
}

impl Default for BootOptions {
    fn default() -> Self {
        Self {
            phys_frames: 16384,
            heap_per_compartment: 2 * 1024 * 1024,
            shared_heap: 1024 * 1024,
            stack_size: 64 * 1024,
            net_pool_bytes: 1024 * 1024,
        }
    }
}

/// A booted FlexOS image: machine + compartments + gates + heaps.
///
/// This is the substrate the kernel services, network stack and
/// applications run on. All of its memory operations execute as the
/// *current* compartment (per the gate runtime), so protection is
/// enforced end to end.
#[derive(Debug)]
pub struct BootImage {
    /// The simulated machine.
    pub machine: Machine,
    /// The gate dispatcher.
    pub gates: GateRuntime,
    /// The malloc service (global or per-compartment).
    pub heaps: HeapService,
    /// The plan this image was built from.
    pub plan: ImagePlan,
    /// Allocator over the shared window (the `[Requires] Shared` region;
    /// programmers "annotate data shared with other micro-libs so that
    /// they are allocated in shared areas").
    shared_alloc: FreeListAllocator,
    stack_size: u64,
    /// Base of the VM-RPC inbox area, when one was reserved at boot.
    /// Migratable images always reserve it (so a later swap to the
    /// VM-RPC backend needs no layout change); others get it lazily via
    /// [`crate::migrate::ensure_rpc_base`].
    pub(crate) rpc_base: Option<Addr>,
}

impl BootImage {
    /// The shared window as `(base, len)`.
    pub fn shared_region(&self) -> (Addr, u64) {
        self.shared_alloc.region()
    }
}

impl BootImage {
    /// The compartment a library was placed in, by library name.
    pub fn compartment_of_lib(&self, name: &str) -> Option<CompartmentId> {
        let idx = self
            .plan
            .config
            .libraries
            .iter()
            .position(|l| l.spec.name == name)?;
        Some(CompartmentId(self.plan.compartment_of[idx] as u16))
    }

    /// The compartment hosting the first library with `role`.
    pub fn compartment_of_role(&self, role: LibRole) -> Option<CompartmentId> {
        self.plan
            .compartment_of_role(role)
            .map(|c| CompartmentId(c as u16))
    }

    /// Allocates from the *current* compartment's heap.
    pub fn malloc(&mut self, size: u64, align: u64) -> Result<Addr> {
        let c = self.gates.current();
        self.heaps.alloc(&mut self.machine, c, size, align)
    }

    /// Frees into the *current* compartment's heap.
    pub fn free(&mut self, addr: Addr) -> Result<()> {
        let c = self.gates.current();
        self.heaps.free(&mut self.machine, c, addr)
    }

    /// Allocates shared data visible to every compartment.
    pub fn malloc_shared(&mut self, size: u64, align: u64) -> Result<Addr> {
        self.shared_alloc.alloc(&mut self.machine, size, align)
    }

    /// Writes as the current compartment.
    pub fn write(&mut self, addr: Addr, data: &[u8]) -> Result<()> {
        let vcpu = self.gates.current_ctx().vcpu;
        self.machine.write(vcpu, addr, data)
    }

    /// Reads as the current compartment.
    pub fn read(&mut self, addr: Addr, buf: &mut [u8]) -> Result<()> {
        let vcpu = self.gates.current_ctx().vcpu;
        self.machine.read(vcpu, addr, buf)
    }

    /// Copies within simulated memory as the current compartment.
    pub fn copy(&mut self, dst: Addr, src: Addr, len: u64) -> Result<()> {
        let vcpu = self.gates.current_ctx().vcpu;
        self.machine.copy(vcpu, dst, src, len)
    }

    /// Allocates a thread stack for `compartment`, honoring the backend's
    /// stack policy: shared-stack gates place stacks in the domain shared
    /// by all compartments; switched-stack and VM gates keep them private.
    pub fn alloc_stack(&mut self, compartment: CompartmentId) -> Result<(Addr, u64)> {
        let size = self.stack_size;
        if self.plan.config.backend.stacks_shared() {
            let base = self.machine.alloc_shared_region(size, ProtKey(0))?;
            Ok((base, size))
        } else {
            let ctx = self.gates.ctx(compartment).clone();
            let key = ctx.keys.first().copied().unwrap_or(ProtKey(0));
            let base = self
                .machine
                .alloc_region(ctx.vm, size, key, PageFlags::RW)?;
            Ok((base, size))
        }
    }

    /// Crosses into the compartment hosting `lib` and runs `f` there —
    /// the runtime analogue of the `uk_gate_r(...)` placeholder.
    pub fn call_lib<R>(
        &mut self,
        lib: &str,
        arg_bytes: u64,
        ret_bytes: u64,
        f: impl FnOnce(&mut Machine, &mut GateRuntime) -> Result<R>,
    ) -> Result<R> {
        let target = self.lib_target(lib)?;
        self.gates
            .cross(&mut self.machine, target, arg_bytes, ret_bytes, f)
    }

    /// Batched [`BootImage::call_lib`]: resolves `lib` to its compartment
    /// once (hoisting the per-call linear name search) and issues
    /// `calls.len()` crossings through [`GateRuntime::cross_batch`]; call
    /// `idx` runs `f(m, rt, idx)` inside the target compartment.
    pub fn call_lib_batch<R>(
        &mut self,
        lib: &str,
        calls: &CallVec,
        f: impl FnMut(&mut Machine, &mut GateRuntime, usize) -> Result<R>,
    ) -> Result<Vec<R>> {
        let target = self.lib_target(lib)?;
        self.gates.cross_batch(&mut self.machine, target, calls, f)
    }

    fn lib_target(&self, lib: &str) -> Result<CompartmentId> {
        self.compartment_of_lib(lib)
            .ok_or_else(|| Fault::HardeningAbort {
                mechanism: "gate",
                reason: format!("unknown library `{lib}`"),
            })
    }

    /// Queues one async gate-call descriptor against the compartment
    /// hosting `lib` — the submission half of [`BootImage::call_lib_async`].
    /// Host-side bookkeeping only; nothing simulated happens until a flush.
    pub fn submit_lib(&mut self, lib: &str, sqe: Sqe) -> Result<()> {
        let target = self.lib_target(lib)?;
        self.gates.submit(target, sqe)
    }

    /// Flushes the submission ring against the compartment hosting `lib`,
    /// running `f` inside it once per queued descriptor. Async analogue of
    /// [`BootImage::call_lib_batch`]; completions land on the ring for
    /// [`BootImage::reap_lib`] / [`GateRuntime::poll_completions`].
    pub fn call_lib_async(
        &mut self,
        lib: &str,
        f: impl FnMut(&mut Machine, &mut GateRuntime, &Sqe) -> Result<i64>,
    ) -> Result<usize> {
        let target = self.lib_target(lib)?;
        self.gates.flush_async(&mut self.machine, target, f)
    }

    /// Pops the oldest completion from `lib`'s ring ([`Fault::RingEmpty`]
    /// when none is ready).
    pub fn reap_lib(&mut self, lib: &str) -> Result<Cqe> {
        let target = self.lib_target(lib)?;
        self.gates.reap(target)
    }
}

/// Wires the one gate of `backend` over `compartments` — the loader's
/// step shared by both boots and by live migration. This is where the
/// CHERI gate's sealed entry capabilities are minted; `rpc_base` is read
/// by the VM-RPC gate only.
pub(crate) fn wire_gate(
    backend: BackendChoice,
    token: GateToken,
    rpc_base: Addr,
    compartments: &[CompartmentCtx],
) -> Result<Rc<dyn Gate>> {
    Ok(match backend {
        BackendChoice::None => Rc::new(DirectGate),
        BackendChoice::MpkShared => Rc::new(MpkSharedGate::new(token)),
        BackendChoice::MpkSwitched => Rc::new(MpkSwitchedGate::new(token)),
        BackendChoice::VmRpc => Rc::new(VmRpcGate::new(rpc_base, compartments.len() as u16)),
        BackendChoice::Cheri => Rc::new(CheriGate::new(token, compartments)?),
    })
}

/// Boots `plan` with default sizing.
pub fn instantiate(plan: ImagePlan) -> Result<BootImage> {
    instantiate_with(plan, BootOptions::default())
}

/// Boots `plan` with explicit sizing.
pub fn instantiate_with(plan: ImagePlan, opts: BootOptions) -> Result<BootImage> {
    let mut machine = Machine::new(MachineConfig {
        phys_frames: opts.phys_frames,
        ..MachineConfig::default()
    });
    let n = plan.num_compartments;
    let backend = plan.config.backend;

    // --- protection domains -------------------------------------------------
    let mut vms = vec![VmId(0); n];
    let mut vcpus = vec![VcpuId(0); n];
    let mut keys: Vec<Vec<ProtKey>> = vec![Vec::new(); n];
    let mut pkrus = vec![Pkru::ALLOW_ALL; n];
    match backend {
        BackendChoice::None => {}
        BackendChoice::MpkShared | BackendChoice::MpkSwitched | BackendChoice::Cheri => {
            // The CHERI backend reuses the per-page tags to model each
            // compartment's capability reach: the PKRU-visible set of a
            // compartment equals the memory its capabilities span.
            for c in 0..n {
                let key = ProtKey::new((c + 1) as u8).ok_or(Fault::HardeningAbort {
                    mechanism: "mpk",
                    reason: "compartment count exceeds the MPK key budget".into(),
                })?;
                keys[c] = vec![key];
                pkrus[c] = Pkru::deny_all_except(&[ProtKey(0), key], &[]);
            }
        }
        BackendChoice::VmRpc => {
            for c in 1..n {
                let vm = machine.add_vm(false);
                vms[c] = vm;
                vcpus[c] = machine.add_vcpu(vm);
            }
        }
    }

    // --- memory: shared window + per-compartment heaps ----------------------
    let rpc_area = if backend == BackendChoice::VmRpc {
        VmRpcGate::area_bytes(n as u16)
    } else {
        0
    };
    let shared_base = machine.alloc_shared_region(opts.shared_heap + rpc_area, ProtKey(0))?;
    let rpc_base = Addr(shared_base.0 + opts.shared_heap);
    let shared_alloc = FreeListAllocator::new(shared_base, opts.shared_heap);

    // Isolating backends with >1 compartment require split heaps (the MPK
    // backend isolates each compartment's heap; the VM backend cannot even
    // express a cross-VM heap).
    let dedicated = plan.config.dedicated_allocators || (backend.isolates() && n > 1);
    let mut compartments = Vec::with_capacity(n);
    let mut allocators: Vec<Box<dyn Allocator>> = Vec::new();
    if dedicated {
        for c in 0..n {
            let key = keys[c].first().copied().unwrap_or(ProtKey(0));
            let base =
                machine.alloc_region(vms[c], opts.heap_per_compartment, key, PageFlags::RW)?;
            allocators.push(Box::new(FreeListAllocator::new(
                base,
                opts.heap_per_compartment,
            )));
        }
    } else {
        let base = machine.alloc_region(
            VmId(0),
            opts.heap_per_compartment,
            ProtKey(0),
            PageFlags::RW,
        )?;
        allocators.push(Box::new(FreeListAllocator::new(
            base,
            opts.heap_per_compartment,
        )));
    }

    for c in 0..n {
        let (heap_base, heap_size) = if dedicated {
            allocators[c].region()
        } else {
            allocators[0].region()
        };
        compartments.push(CompartmentCtx {
            id: CompartmentId(c as u16),
            name: plan.compartment_names[c].clone(),
            vm: vms[c],
            vcpu: vcpus[c],
            pkru: pkrus[c],
            keys: keys[c].clone(),
            sh: plan.compartment_sh[c].clone(),
            heap_base,
            heap_size,
        });
    }
    let heaps = if dedicated {
        HeapService::per_compartment(allocators)
    } else {
        HeapService::global(allocators.remove(0))
    };

    // --- gates ---------------------------------------------------------------
    let gate = wire_gate(backend, machine.gate_token(), rpc_base, &compartments)?;
    let initial = plan
        .compartment_of_role(LibRole::App)
        .map(|c| CompartmentId(c as u16))
        .unwrap_or(CompartmentId(0));
    let mut gates = GateRuntime::new(compartments, gate, initial);

    // Load the initial compartment's protection view.
    gates.resume_in(&mut machine, initial)?;

    Ok(BootImage {
        machine,
        gates,
        heaps,
        plan,
        shared_alloc,
        stack_size: opts.stack_size,
        rpc_base: (backend == BackendChoice::VmRpc).then_some(rpc_base),
    })
}

/// Boots `plan` on the *migratable superset topology* with default
/// sizing — see [`instantiate_migratable_with`].
pub fn instantiate_migratable(plan: ImagePlan, from: BackendChoice) -> Result<BootImage> {
    instantiate_migratable_with(plan, from, BootOptions::default())
}

/// Boots `plan` so that any compartment pair can later swap its gate
/// backend live (ptr ↔ MPK ↔ CHERI ↔ VM-RPC) via the quiescence
/// protocol, starting from `from`.
///
/// Unlike [`instantiate_with`] — which carves protection domains for
/// exactly one backend — this boot reserves the superset every backend
/// needs, laid out **identically regardless of `from`**:
///
/// * every compartment lives in VM 0 on vCPU 0 (the VM-RPC gate's inbox
///   protocol works intra-VM: self-notifications are permitted);
/// * every compartment always owns a protection key, and every heap is
///   a dedicated allocator region so an MPK-family backend can be
///   retagged in without moving memory;
/// * the VM-RPC inbox area is always reserved next to the shared window.
///
/// Only the page *tags* and PKRU views differ by `from`, and those are
/// exactly what [`crate::migrate`]'s re-establishment step rewrites at
/// swap time (through the generation-counter TLB invalidation). This is
/// what makes the migrate-differential suite's 5×5 claim meaningful:
/// two migratable images differing only in `from` allocate byte-for-byte
/// identical layouts.
///
/// `plan` should be colored with an *isolating* backend (a
/// `BackendChoice::None` plan merges everything into one compartment,
/// leaving nothing to migrate); the stored plan's backend is overridden
/// to `from`.
pub fn instantiate_migratable_with(
    mut plan: ImagePlan,
    from: BackendChoice,
    opts: BootOptions,
) -> Result<BootImage> {
    let mut machine = Machine::new(MachineConfig {
        phys_frames: opts.phys_frames,
        ..MachineConfig::default()
    });
    let n = plan.num_compartments;
    let from_mpk = from.uses_pkeys();

    // Protection domains: single VM, per-compartment keys, PKRU views
    // only as strict as the boot backend requires.
    let mut keys: Vec<Vec<ProtKey>> = vec![Vec::new(); n];
    let mut pkrus = vec![Pkru::ALLOW_ALL; n];
    for (c, slot) in keys.iter_mut().enumerate() {
        let key = ProtKey::new((c + 1) as u8).ok_or(Fault::HardeningAbort {
            mechanism: "mpk",
            reason: "compartment count exceeds the MPK key budget".into(),
        })?;
        *slot = vec![key];
        if from_mpk {
            pkrus[c] = Pkru::deny_all_except(&[ProtKey(0), key], &[]);
        }
    }

    // Memory: shared window + VM-RPC inbox area (always), dedicated
    // per-compartment heaps (always), tags per the boot backend.
    let rpc_area = VmRpcGate::area_bytes(n as u16);
    let shared_base = machine.alloc_shared_region(opts.shared_heap + rpc_area, ProtKey(0))?;
    let rpc_base = Addr(shared_base.0 + opts.shared_heap);
    let shared_alloc = FreeListAllocator::new(shared_base, opts.shared_heap);

    let mut compartments = Vec::with_capacity(n);
    let mut allocators: Vec<Box<dyn Allocator>> = Vec::new();
    for ckeys in keys.iter().take(n) {
        let tag = if from_mpk { ckeys[0] } else { ProtKey(0) };
        let base = machine.alloc_region(VmId(0), opts.heap_per_compartment, tag, PageFlags::RW)?;
        allocators.push(Box::new(FreeListAllocator::new(
            base,
            opts.heap_per_compartment,
        )));
    }
    for c in 0..n {
        let (heap_base, heap_size) = allocators[c].region();
        compartments.push(CompartmentCtx {
            id: CompartmentId(c as u16),
            name: plan.compartment_names[c].clone(),
            vm: VmId(0),
            vcpu: VcpuId(0),
            pkru: pkrus[c],
            keys: keys[c].clone(),
            sh: plan.compartment_sh[c].clone(),
            heap_base,
            heap_size,
        });
    }
    let heaps = HeapService::per_compartment(allocators);

    let gate = wire_gate(from, machine.gate_token(), rpc_base, &compartments)?;
    plan.config.backend = from;
    let initial = plan
        .compartment_of_role(LibRole::App)
        .map(|c| CompartmentId(c as u16))
        .unwrap_or(CompartmentId(0));
    let mut gates = GateRuntime::new(compartments, gate, initial);
    gates.resume_in(&mut machine, initial)?;

    Ok(BootImage {
        machine,
        gates,
        heaps,
        plan,
        shared_alloc,
        stack_size: opts.stack_size,
        rpc_base: Some(rpc_base),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexos::build::{plan, ImageConfig, LibraryConfig};
    use flexos::spec::LibSpec;

    fn three_lib_plan(backend: BackendChoice) -> ImagePlan {
        let cfg = ImageConfig::new("test", backend)
            .with_library(LibraryConfig::new(
                LibSpec::verified_scheduler(),
                LibRole::Scheduler,
            ))
            .with_library(LibraryConfig::new(
                LibSpec::unsafe_c("netstack"),
                LibRole::NetStack,
            ))
            .with_library(LibraryConfig::new(LibSpec::unsafe_c("app"), LibRole::App));
        plan(cfg).unwrap()
    }

    #[test]
    fn baseline_boots_single_compartment() {
        let img = instantiate(three_lib_plan(BackendChoice::None)).unwrap();
        assert_eq!(img.gates.len(), 1);
        assert_eq!(img.compartment_of_lib("netstack"), Some(CompartmentId(0)));
    }

    #[test]
    fn mpk_boot_separates_heaps_by_key() {
        let mut img = instantiate(three_lib_plan(BackendChoice::MpkShared)).unwrap();
        assert!(img.gates.len() >= 2);
        // Current compartment (app's) heap works.
        let a = img.malloc(64, 8).unwrap();
        img.write(a, b"ok").unwrap();
        // The scheduler compartment's heap is unreachable from here.
        let sched_c = img.compartment_of_role(LibRole::Scheduler).unwrap();
        assert_ne!(sched_c, img.gates.current());
        let sched_heap = img.gates.ctx(sched_c).heap_base;
        assert!(img.write(sched_heap, b"attack").is_err());
        // …but reachable after crossing the gate.
        img.call_lib("uksched_verified", 8, 8, |m, rt| {
            let vcpu = rt.current_ctx().vcpu;
            m.write(vcpu, sched_heap, b"legit")
        })
        .unwrap();
    }

    #[test]
    fn vm_backend_gives_each_compartment_its_own_vm() {
        let img = instantiate(three_lib_plan(BackendChoice::VmRpc)).unwrap();
        let n = img.gates.len();
        assert!(n >= 2);
        let mut vms: Vec<_> = (0..n)
            .map(|c| img.gates.ctx(CompartmentId(c as u16)).vm)
            .collect();
        vms.dedup();
        assert_eq!(vms.len(), n, "each compartment runs in its own VM");
        assert_eq!(img.machine.vm_count(), n);
    }

    #[test]
    fn shared_heap_is_visible_across_compartments() {
        let mut img = instantiate(three_lib_plan(BackendChoice::VmRpc)).unwrap();
        let s = img.malloc_shared(128, 8).unwrap();
        img.write(s, b"shared-data").unwrap();
        let sched_c = img.compartment_of_role(LibRole::Scheduler).unwrap();
        let got = img
            .gates
            .cross(&mut img.machine, sched_c, 0, 0, |m, rt| {
                let vcpu = rt.current_ctx().vcpu;
                let mut buf = [0u8; 11];
                m.read(vcpu, s, &mut buf)?;
                Ok(buf)
            })
            .unwrap();
        assert_eq!(&got, b"shared-data");
    }

    #[test]
    fn crossing_charges_backend_costs() {
        for (backend, min_cost) in [
            (BackendChoice::MpkShared, 2 * CostTableProbe::shared()),
            (BackendChoice::VmRpc, 2 * CostTableProbe::notify()),
        ] {
            let mut img = instantiate(three_lib_plan(backend)).unwrap();
            let sched_c = img.compartment_of_role(LibRole::Scheduler).unwrap();
            let t0 = img.machine.clock().cycles();
            img.gates
                .cross(&mut img.machine, sched_c, 16, 8, |_, _| Ok(()))
                .unwrap();
            let spent = img.machine.clock().cycles() - t0;
            assert!(spent >= min_cost, "{backend:?}: {spent} < {min_cost}");
        }
    }

    struct CostTableProbe;
    impl CostTableProbe {
        fn shared() -> u64 {
            flexos_machine::CostTable::default().mpk_shared_gate()
        }
        fn notify() -> u64 {
            flexos_machine::CostTable::default().vm_notify
        }
    }

    #[test]
    fn stacks_follow_the_gate_policy() {
        // Shared-stack: stack readable from every compartment.
        let mut img = instantiate(three_lib_plan(BackendChoice::MpkShared)).unwrap();
        let c0 = img.gates.current();
        let (stack, _) = img.alloc_stack(c0).unwrap();
        img.write(stack, b"frame").unwrap();
        let sched_c = img.compartment_of_role(LibRole::Scheduler).unwrap();
        img.gates
            .cross(&mut img.machine, sched_c, 0, 0, |m, rt| {
                let mut b = [0u8; 5];
                m.read(rt.current_ctx().vcpu, stack, &mut b)
            })
            .unwrap();

        // Switched-stack: per-compartment stacks are private.
        let mut img = instantiate(three_lib_plan(BackendChoice::MpkSwitched)).unwrap();
        let c0 = img.gates.current();
        let (stack, _) = img.alloc_stack(c0).unwrap();
        img.write(stack, b"frame").unwrap();
        let sched_c = img.compartment_of_role(LibRole::Scheduler).unwrap();
        let err = img
            .gates
            .cross(&mut img.machine, sched_c, 0, 0, |m, rt| {
                let mut b = [0u8; 5];
                m.read(rt.current_ctx().vcpu, stack, &mut b)
            })
            .unwrap_err();
        assert!(err.is_protection_fault());
    }

    #[test]
    fn async_lib_calls_complete_across_backends() {
        // Direct (same-compartment), MPK and VM-RPC all complete through
        // the uniform submit/flush/reap API.
        for backend in [
            BackendChoice::None,
            BackendChoice::MpkShared,
            BackendChoice::VmRpc,
        ] {
            let mut img = instantiate(three_lib_plan(backend)).unwrap();
            for i in 0..4u64 {
                img.submit_lib("netstack", Sqe::new(16, 8, i)).unwrap();
            }
            let posted = img
                .call_lib_async("netstack", |m, _, sqe| {
                    m.charge(7);
                    Ok(sqe.user_data as i64 + 1)
                })
                .unwrap();
            assert_eq!(posted, 4, "{backend:?}");
            for i in 0..4u64 {
                let cqe = img.reap_lib("netstack").unwrap();
                assert_eq!(cqe.user_data, i);
                assert_eq!(cqe.res, i as i64 + 1);
            }
            assert!(matches!(
                img.reap_lib("netstack").unwrap_err(),
                Fault::RingEmpty { .. }
            ));
        }
        let mut img = instantiate(three_lib_plan(BackendChoice::None)).unwrap();
        assert!(matches!(
            img.submit_lib("no-such-lib", Sqe::new(0, 0, 0))
                .unwrap_err(),
            Fault::HardeningAbort {
                mechanism: "gate",
                ..
            }
        ));
    }

    #[test]
    fn global_allocator_mode_without_isolation() {
        let img = instantiate(three_lib_plan(BackendChoice::None)).unwrap();
        assert_eq!(img.heaps.mode(), flexos_kernel::AllocMode::Global);
        let img = instantiate(three_lib_plan(BackendChoice::MpkShared)).unwrap();
        assert_eq!(img.heaps.mode(), flexos_kernel::AllocMode::PerCompartment);
    }
}
