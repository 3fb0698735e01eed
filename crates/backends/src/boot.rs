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
use crate::mpk::MpkGate;
use crate::vmrpc::VmRpcGate;
use flexos::build::{BackendChoice, ImagePlan, LibRole};
use flexos::gate::{CallVec, CompartmentCtx, CompartmentId, DirectGate, Gate, GateRuntime};
use flexos_kernel::alloc::{Allocator, FreeListAllocator, HeapService};
use flexos_machine::{
    Addr, Fault, GateToken, Machine, MachineConfig, PageFlags, Pkru, ProtKey, Result, VcpuId, VmId,
};
use std::rc::Rc;

/// Shared-window heap bytes.
const SHARED_HEAP: u64 = 1024 * 1024;
/// Per-thread stack bytes.
const STACK_SIZE: u64 = 64 * 1024;

/// Sizing knobs for instantiation.
#[derive(Debug, Clone)]
pub struct BootOptions {
    /// Physical frames for the whole machine (default 64 MiB).
    pub phys_frames: u64,
    /// Private heap bytes per compartment (default 2 MiB).
    pub heap_per_compartment: u64,
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
        let size = STACK_SIZE;
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
}

/// Wires the one gate of `backend` over `compartments` — the loader's
/// step shared by both layouts and by live migration. This is where the
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
        BackendChoice::MpkShared | BackendChoice::MpkSwitched => {
            Rc::new(MpkGate::new(token, backend))
        }
        BackendChoice::VmRpc => Rc::new(VmRpcGate::new(rpc_base, compartments.len() as u16)),
        BackendChoice::Cheri => Rc::new(CheriGate::new(token, compartments)?),
    })
}

/// Boots `plan` with default sizing.
pub fn instantiate(plan: ImagePlan) -> Result<BootImage> {
    boot(plan, BootOptions::default(), false)
}

/// Boots `plan` with explicit sizing.
pub fn instantiate_with(plan: ImagePlan, opts: BootOptions) -> Result<BootImage> {
    boot(plan, opts, false)
}

/// Boots `plan` on the *migratable superset layout*, so that any
/// compartment pair can later swap its gate backend live (ptr ↔ MPK ↔
/// CHERI ↔ VM-RPC) via the quiescence protocol, starting from `from`.
///
/// Where [`instantiate`] carves protection domains for exactly one
/// backend, this boot reserves what every backend needs, laid out
/// **identically regardless of `from`**: every compartment lives in VM 0
/// on vCPU 0 (the VM-RPC inbox protocol works intra-VM), owns a
/// protection key and a dedicated heap, and the VM-RPC inbox area sits
/// next to the shared window. Only the page *tags* and PKRU views differ
/// by `from`, and those are exactly what [`crate::migrate`]'s
/// re-establishment step rewrites at swap time, so a migrated image and
/// one booted with the target backend allocate byte-for-byte the same.
///
/// `plan` should be colored with an *isolating* backend (a
/// `BackendChoice::None` plan merges everything into one compartment,
/// leaving nothing to migrate); the stored plan's backend becomes `from`.
pub fn instantiate_migratable(mut plan: ImagePlan, from: BackendChoice) -> Result<BootImage> {
    plan.config.backend = from;
    plan.config.dedicated_allocators = true;
    boot(plan, BootOptions::default(), true)
}

/// The one loader body (DESIGN.md §6.23). `superset` selects the
/// migratable layout; each way it differs from the exact layout is one
/// condition below. Allocation order — VMs, the shared window with the
/// RPC area, the heaps in compartment order, the gate — is what keeps
/// both layouts frame for frame what they are.
fn boot(plan: ImagePlan, opts: BootOptions, superset: bool) -> Result<BootImage> {
    let mut machine = Machine::new(MachineConfig {
        phys_frames: opts.phys_frames,
        ..MachineConfig::default()
    });
    let n = plan.num_compartments;
    let backend = plan.config.backend;
    let pkeys = backend.uses_pkeys();
    // Does the backend give every compartment its own VM, crossing over
    // the RPC area? Exhaustive, so a new backend must answer here.
    let vm_per_compartment = match backend {
        BackendChoice::VmRpc => true,
        BackendChoice::None
        | BackendChoice::MpkShared
        | BackendChoice::MpkSwitched
        | BackendChoice::Cheri => false,
    };
    let rpc = vm_per_compartment || superset;

    // --- protection domains -------------------------------------------------
    let mut vms = vec![VmId(0); n];
    let mut vcpus = vec![VcpuId(0); n];
    if vm_per_compartment && !superset {
        for c in 1..n {
            vms[c] = machine.add_vm(false);
            vcpus[c] = machine.add_vcpu(vms[c]);
        }
    }
    // The superset carves a key per compartment whatever the backend, so
    // an MPK-family backend can be migrated in later.
    let keys = if pkeys || superset {
        (0..n)
            .map(|c| {
                let key = ProtKey::new((c + 1) as u8).ok_or(Fault::HardeningAbort {
                    mechanism: "mpk",
                    reason: "compartment count exceeds the MPK key budget".into(),
                })?;
                Ok(Some(key))
            })
            .collect::<Result<Vec<_>>>()?
    } else {
        vec![None; n]
    };
    // Only a backend that checks keys tags a heap with, or confines a
    // PKRU view to, its compartment's key.
    let key_of = |c: usize| keys[c].filter(|_| pkeys);

    // --- memory: shared window (+ RPC area), then the heaps -----------------
    let rpc_area = if rpc {
        VmRpcGate::area_bytes(n as u16)
    } else {
        0
    };
    let shared_base = machine.alloc_shared_region(SHARED_HEAP + rpc_area, ProtKey(0))?;
    let rpc_base = Addr(shared_base.0 + SHARED_HEAP);
    let shared_alloc = FreeListAllocator::new(shared_base, SHARED_HEAP);

    let mut heap = |vm, key| -> Result<Box<dyn Allocator>> {
        let size = opts.heap_per_compartment;
        let base = machine.alloc_region(vm, size, key, PageFlags::RW)?;
        Ok(Box::new(FreeListAllocator::new(base, size)))
    };
    // The plan decides the topology (`build::place`).
    let heaps = if plan.config.dedicated_allocators {
        let own = (0..n).map(|c| heap(vms[c], key_of(c).unwrap_or(ProtKey(0))));
        HeapService::per_compartment(own.collect::<Result<_>>()?)
    } else {
        HeapService::global(heap(VmId(0), ProtKey(0))?)
    };

    let compartments: Vec<CompartmentCtx> = (0..n)
        .map(|c| {
            let id = CompartmentId(c as u16);
            let (heap_base, heap_size) = heaps.allocator_for(id).region();
            CompartmentCtx {
                id,
                name: plan.compartment_names[c].clone(),
                vm: vms[c],
                vcpu: vcpus[c],
                pkru: key_of(c).map_or(Pkru::ALLOW_ALL, |k| {
                    Pkru::deny_all_except(&[ProtKey(0), k], &[])
                }),
                keys: keys[c].into_iter().collect(),
                sh: plan.compartment_sh[c].clone(),
                heap_base,
                heap_size,
            }
        })
        .collect();

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
        rpc_base: rpc.then_some(rpc_base),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexos::build::{plan, ImageConfig, LibraryConfig};
    use flexos::gate::Sqe;
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
            let net = img.compartment_of_lib("netstack").unwrap();
            for i in 0..4u64 {
                img.gates.submit(net, Sqe::new(16, 8, i)).unwrap();
            }
            let posted = img
                .gates
                .flush_async(&mut img.machine, net, |m, _, sqe| {
                    m.charge(7);
                    Ok(sqe.user_data as i64 + 1)
                })
                .unwrap();
            assert_eq!(posted, 4, "{backend:?}");
            for i in 0..4u64 {
                let cqe = img.gates.reap(net).unwrap();
                assert_eq!(cqe.user_data, i);
                assert_eq!(cqe.res, i as i64 + 1);
            }
            assert!(matches!(
                img.gates.reap(net).unwrap_err(),
                Fault::RingEmpty { .. }
            ));
        }
        let mut img = instantiate(three_lib_plan(BackendChoice::None)).unwrap();
        assert!(matches!(
            img.call_lib("no-such-lib", 0, 0, |_, _| Ok(()))
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
        // The booted topology is the one the plan states, for every
        // backend, asked-for or not, exact or superset.
        for b in BackendChoice::ALL {
            for asked in [false, true] {
                let mut p = three_lib_plan(b);
                p.config.dedicated_allocators |= asked;
                let sup = instantiate_migratable(p.clone(), b).unwrap();
                for img in [instantiate(p).unwrap(), sup] {
                    let per = img.heaps.mode() == flexos_kernel::AllocMode::PerCompartment;
                    assert_eq!(per, img.plan.config.dedicated_allocators, "{b:?} {asked}");
                }
            }
        }
    }

    /// One line per boot: the shared window, the RPC area, the heap
    /// mode, every VM's page table as `(extents, pages)`, then each
    /// compartment's VM, vCPU, keys, PKRU view and heap.
    fn layout(img: &BootImage) -> String {
        let (shared, shared_len) = img.shared_region();
        let mut out = format!(
            "shared {:#x}+{shared_len:#x} rpc {} {:?} vms {}",
            shared.0,
            img.rpc_base.map_or("-".into(), |a| format!("{:#x}", a.0)),
            img.heaps.mode(),
            img.machine.vm_count()
        );
        for vm in 0..img.machine.vm_count() {
            let pt = img.machine.page_table(VmId(vm as u8));
            out += &format!(" pt{vm}={}/{}", pt.extents(), pt.len());
        }
        for c in 0..img.gates.len() {
            let ctx = img.gates.ctx(CompartmentId(c as u16));
            let keys: Vec<u8> = ctx.keys.iter().map(|k| k.0).collect();
            out += &format!(
                " | c{c} vm{} vcpu{} keys{keys:?} pkru{:#x} heap{:#x}+{:#x}",
                ctx.vm.0, ctx.vcpu.0, ctx.pkru.0, ctx.heap_base.0, ctx.heap_size
            );
        }
        out
    }

    /// Pins both layouts — the exact one of `instantiate` and the
    /// superset one of `instantiate_migratable` — frame for frame, for
    /// every backend.
    #[test]
    fn both_boot_layouts_are_pinned_for_every_backend() {
        let mut got = String::new();
        for b in BackendChoice::ALL {
            let exact = instantiate(three_lib_plan(b)).unwrap();
            got += &format!("{:<12} exact    {}\n", b.tag(), layout(&exact));
            let sup = instantiate_migratable(three_lib_plan(BackendChoice::MpkShared), b).unwrap();
            got += &format!("{:<12} superset {}\n", b.tag(), layout(&sup));
        }
        assert_eq!(got, LAYOUT_GOLDEN, "\n{got}");
    }

    const LAYOUT_GOLDEN: &str = "\
direct       exact    shared 0x800000000000+0x100000 rpc - Global vms 1 pt0=2/768 | c0 vm0 vcpu0 keys[] pkru0x0 heap0x1000+0x200000
direct       superset shared 0x800000000000+0x100000 rpc 0x800000100000 PerCompartment vms 1 pt0=2/1282 | c0 vm0 vcpu0 keys[1] pkru0x0 heap0x1000+0x200000 | c1 vm0 vcpu0 keys[2] pkru0x0 heap0x201000+0x200000
mpk-shared   exact    shared 0x800000000000+0x100000 rpc - PerCompartment vms 1 pt0=3/1280 | c0 vm0 vcpu0 keys[1] pkru0xfffffff0 heap0x1000+0x200000 | c1 vm0 vcpu0 keys[2] pkru0xffffffcc heap0x201000+0x200000
mpk-shared   superset shared 0x800000000000+0x100000 rpc 0x800000100000 PerCompartment vms 1 pt0=3/1282 | c0 vm0 vcpu0 keys[1] pkru0xfffffff0 heap0x1000+0x200000 | c1 vm0 vcpu0 keys[2] pkru0xffffffcc heap0x201000+0x200000
mpk-switched exact    shared 0x800000000000+0x100000 rpc - PerCompartment vms 1 pt0=3/1280 | c0 vm0 vcpu0 keys[1] pkru0xfffffff0 heap0x1000+0x200000 | c1 vm0 vcpu0 keys[2] pkru0xffffffcc heap0x201000+0x200000
mpk-switched superset shared 0x800000000000+0x100000 rpc 0x800000100000 PerCompartment vms 1 pt0=3/1282 | c0 vm0 vcpu0 keys[1] pkru0xfffffff0 heap0x1000+0x200000 | c1 vm0 vcpu0 keys[2] pkru0xffffffcc heap0x201000+0x200000
vmrpc        exact    shared 0x800000000000+0x100000 rpc 0x800000100000 PerCompartment vms 2 pt0=2/770 pt1=2/770 | c0 vm0 vcpu0 keys[] pkru0x0 heap0x1000+0x200000 | c1 vm1 vcpu1 keys[] pkru0x0 heap0x40001000+0x200000
vmrpc        superset shared 0x800000000000+0x100000 rpc 0x800000100000 PerCompartment vms 1 pt0=2/1282 | c0 vm0 vcpu0 keys[1] pkru0x0 heap0x1000+0x200000 | c1 vm0 vcpu0 keys[2] pkru0x0 heap0x201000+0x200000
cheri        exact    shared 0x800000000000+0x100000 rpc - PerCompartment vms 1 pt0=3/1280 | c0 vm0 vcpu0 keys[1] pkru0xfffffff0 heap0x1000+0x200000 | c1 vm0 vcpu0 keys[2] pkru0xffffffcc heap0x201000+0x200000
cheri        superset shared 0x800000000000+0x100000 rpc 0x800000100000 PerCompartment vms 1 pt0=3/1282 | c0 vm0 vcpu0 keys[1] pkru0xfffffff0 heap0x1000+0x200000 | c1 vm0 vcpu0 keys[2] pkru0xffffffcc heap0x201000+0x200000
";
}
