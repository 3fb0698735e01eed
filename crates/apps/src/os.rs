//! The assembled FlexOS instance: image + gates + hardening + kernel
//! services + network stack, with the paper's cross-compartment wiring.
//!
//! [`Os`] is what an evaluation application runs on. Every operation is
//! routed through the gate runtime exactly as the image plan dictates:
//!
//! * socket calls go application → **libc** (the `recv()` wrapper) →
//!   **network stack** (two gate round trips when those are separate
//!   compartments);
//! * blocking and wakeup go through **semaphores in libc** — even when
//!   the network stack and the scheduler share a compartment, wait-queue
//!   traffic still crosses into libc, reproducing the paper's Figure 5
//!   finding that merging NW+sched does not help;
//! * context switches restore the incoming compartment's PKRU via the
//!   scheduler (the executor's [`KernelHal`] hooks);
//! * per-*library* software hardening taxes land exactly on that
//!   library's work (libc's copies, the stack's packet processing, the
//!   app's request handling, the scheduler's switches), and instrumented
//!   allocators charge per allocation — global-allocator images charge
//!   *everyone*, dedicated-allocator images only the hardened
//!   compartment (Figure 4's experiment).

use crate::profiles::SchedKind;
use flexos::build::{ImagePlan, LibRole};
use flexos::explore::sh_overhead_percent;
use flexos::gate::{CompartmentId, Cqe, GateRuntime, Sqe};
use flexos_backends::{instantiate_with, BootImage, BootOptions};
use flexos_kernel::alloc::AllocMode;
use flexos_kernel::exec::{Executor, KernelHal};
use flexos_kernel::sched::ThreadId;
use flexos_kernel::sync::{SemId, SemTable, WaitChannel};
use flexos_machine::{Access, Addr, Fault, Machine, Result};
use flexos_net::event::{Interest, ReadyEvent};
use flexos_net::nic::Nic;
use flexos_net::stack::{NetError, NetResult, NetStack, SocketId};
use flexos_net::wire::Mac;
use flexos_sh::runtime::ShRuntime;
use flexos_sh::shadow::REDZONE;
use flexos_trace::{ServingSnapshot, SpanId, StatsSnapshot, TraceRegistry};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

/// Compartment of each functional role (resolved from the image plan).
#[derive(Debug, Clone, Copy)]
pub struct Roles {
    /// The application's compartment ("rest of the system").
    pub app: CompartmentId,
    /// libc's compartment (semaphores live here).
    pub libc: CompartmentId,
    /// The network stack's compartment.
    pub net: CompartmentId,
    /// The scheduler's compartment.
    pub sched: CompartmentId,
    /// The driver's compartment.
    pub driver: CompartmentId,
}

/// Per-library SH overhead percentages (0 = unhardened).
#[derive(Debug, Clone, Copy, Default)]
pub struct ComponentTax {
    /// Application work multiplier.
    pub app: u64,
    /// libc (copies, semaphores) multiplier.
    pub libc: u64,
    /// Network-stack multiplier.
    pub net: u64,
    /// Scheduler multiplier.
    pub sched: u64,
    /// Driver multiplier.
    pub driver: u64,
}

/// What a batched socket operation did ([`Os::recv_batch`] and the
/// `send_batch_*` family).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome {
    /// Operations issued, the stopping one included.
    pub issued: usize,
    /// Result of the last operation issued (`None` when none was).
    pub last: Option<NetResult<u64>>,
}

/// OS-level counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OsStats {
    /// Instrumented allocations performed.
    pub instrumented_allocs: u64,
}

/// A fully assembled FlexOS instance.
#[derive(Debug)]
pub struct Os {
    /// The booted image (machine, gates, heaps, plan).
    pub img: BootImage,
    /// The hardening runtime.
    pub sh: ShRuntime,
    /// The semaphore service (libc micro-library).
    pub sems: SemTable,
    /// The network stack (lwip micro-library).
    pub net: NetStack,
    /// Role → compartment map.
    pub roles: Roles,
    /// Per-library SH taxes.
    pub tax: ComponentTax,
    /// Which scheduler implementation this image runs.
    pub sched_kind: SchedKind,
    /// Whether the allocator serving each compartment is instrumented.
    alloc_instrumented: Vec<bool>,
    /// Where the semaphore service lives. Defaults to libc's compartment
    /// (the paper's layout); [`Os::relocate_semaphores`] moves it — the
    /// "redesign of the components" §4 calls for after observing that
    /// merging NW+sched does not help.
    sem_home: CompartmentId,
    /// The semaphore of each socket slot a thread ever waited on, by
    /// socket id: created by the first [`Os::wait_readable`], never
    /// removed, so a reused slot inherits it. A socket nobody waits on
    /// (every socket of the serving tier) holds none.
    sock_sems: Vec<Option<SemId>>,
    wakes: Vec<ThreadId>,
    stats: OsStats,
    /// Completion scratch of [`Os::sock_data_op_batch`].
    cqe_scratch: Vec<Cqe>,
    /// Readiness events drained by the last [`Os::poll_net`] (reused
    /// scratch; serve drivers read them via [`Os::ready_events`]).
    ready_scratch: Vec<ReadyEvent>,
    /// Aggregated cooperative-executor counters from serve runs, added
    /// to the stack's readiness counters in the `--stats` serving block.
    serve_exec: ServingSnapshot,
}

/// One socket data operation (`recv` or `send` on `sid` through `buf`)
/// with its route and costs below the libc wrapper — the one spelling of
/// the libc → network stack → semaphore → scheduler body that the sync
/// call ([`Os::sock_data_op`]) and the ring flush
/// ([`Os::sock_data_op_batch`]) both run.
#[derive(Debug, Clone, Copy)]
struct SockOp {
    sid: SocketId,
    buf: Addr,
    access: Access,
    c_net: CompartmentId,
    c_sem: CompartmentId,
    c_sched: CompartmentId,
    net_tax: u64,
    libc_tax: u64,
    sched_cycles: u64,
}

impl SockOp {
    /// The body of a `len`-byte operation as it runs inside libc: cross
    /// into the network stack, do the socket-layer work there, and signal
    /// lwIP's `sys_mbox` semaphore through its home compartment and the
    /// scheduler's wait queue. The outer `Result` carries machine faults,
    /// the inner one the socket layer's answer.
    fn in_libc(
        &self,
        m: &mut Machine,
        rt: &mut GateRuntime,
        net: &mut NetStack,
        sh: &mut ShRuntime,
        len: u64,
    ) -> Result<NetResult<u64>> {
        let (sid, buf, access) = (self.sid, self.buf, self.access);
        rt.cross(m, self.c_net, 32, 8, |m, rt| {
            let vcpu = rt.current_ctx().vcpu;
            if self.net_tax > 0 {
                // Hardened socket layer: KASAN-instrumented lock/
                // pbuf-chain work per call + a shadow check on the user
                // buffer it touches.
                let extra = m.costs().socket_call * m.costs().sh_net_socket_pct * self.net_tax
                    / (GCC_PCT * 100);
                m.charge(extra);
                if let Err(f) = sh.check_access(m, self.c_net, buf, len, access) {
                    return Ok(Err(NetError::from(f)));
                }
            }
            let res = match access {
                Access::Write => net.tcp_recv(m, vcpu, sid, buf, len),
                Access::Read => net.tcp_send(m, vcpu, sid, buf, len),
            };
            // lwIP's sys_mbox semaphore (in `sem_home`, libc by default)
            // + its wait queue (scheduler).
            rt.cross(m, self.c_sem, 8, 8, |m, rt| {
                m.charge(m.costs().func_call);
                rt.cross(m, self.c_sched, 8, 8, |m, _rt| {
                    m.charge(self.sched_cycles);
                    Ok(())
                })
            })?;
            Ok(res)
        })
    }
}

/// libc's user-space memcpy of an `n`-byte payload, with the
/// ASAN-interceptor tax when libc is hardened (`libc_tax` is its SH
/// percentage).
fn charge_libc_copy(m: &mut Machine, libc_tax: u64, n: u64) {
    let costs = m.costs();
    let base = n.div_ceil(4) * costs.libc_copy_per_4bytes;
    let pct = costs.sh_asan_memcpy_pct * libc_tax / GCC_PCT;
    m.charge(base + base * pct / 100);
}

/// `sh_overhead_percent` of the GCC hardening set
/// (ASAN + stack protector + UBSAN): the reference point the cost
/// table's component-level SH percentages are calibrated against.
/// Other hardening sets scale proportionally.
const GCC_PCT: u64 = 118;

/// Argument bytes a socket control call (`listen`, `accept`, `connect`,
/// `close`) marshals into libc and on into the stack.
const CONTROL_ARG_BYTES: u64 = 16;

/// A failure of the server library `lib` outside any memory fault,
/// attributed to it.
pub(crate) fn abort(lib: &'static str, reason: String) -> Fault {
    Fault::HardeningAbort {
        mechanism: lib,
        reason,
    }
}

fn lib_pct(plan: &ImagePlan, role: LibRole) -> u64 {
    plan.config
        .libraries
        .iter()
        .find(|l| l.role == role)
        .map(|l| sh_overhead_percent(&l.sh))
        .unwrap_or(0)
}

impl Os {
    /// Boots `plan` into a runnable OS with server address `ip` and a NIC
    /// identity of `nic_id`.
    pub fn boot(plan: ImagePlan, ip: u32, nic_id: u8) -> Result<Os> {
        Self::boot_with(plan, ip, nic_id, BootOptions::default())
    }

    /// [`Os::boot`] with explicit sizing.
    pub fn boot_with(plan: ImagePlan, ip: u32, nic_id: u8, opts: BootOptions) -> Result<Os> {
        let sched_kind = SchedKind::of(&plan);
        let mut tax = ComponentTax {
            app: lib_pct(&plan, LibRole::App),
            libc: lib_pct(&plan, LibRole::LibC),
            net: lib_pct(&plan, LibRole::NetStack),
            sched: lib_pct(&plan, LibRole::Scheduler),
            driver: lib_pct(&plan, LibRole::Driver),
        };
        // Super-linear SH composition (see `CostTable::sh_synergy_pct`):
        // the more components are instrumented, the more each one's
        // shadow/redzone footprint pressures the shared caches.
        {
            let costs = flexos_machine::CostTable::default();
            let hardened = [tax.app, tax.libc, tax.net, tax.sched, tax.driver]
                .iter()
                .filter(|&&p| p > 0)
                .count() as u64;
            let synergy = 100 + costs.sh_synergy_pct * hardened.saturating_sub(1);
            for p in [
                &mut tax.app,
                &mut tax.libc,
                &mut tax.net,
                &mut tax.sched,
                &mut tax.driver,
            ] {
                *p = *p * synergy / 100;
            }
        }
        let net_pool_bytes = opts.net_pool_bytes;
        let mut img = instantiate_with(plan, opts)?;
        let n = img.gates.len();
        let fallback = CompartmentId(0);
        let roles = Roles {
            app: img.compartment_of_role(LibRole::App).unwrap_or(fallback),
            libc: img.compartment_of_role(LibRole::LibC).unwrap_or(fallback),
            net: img
                .compartment_of_role(LibRole::NetStack)
                .unwrap_or(fallback),
            sched: img
                .compartment_of_role(LibRole::Scheduler)
                .unwrap_or(fallback),
            driver: img.compartment_of_role(LibRole::Driver).unwrap_or(fallback),
        };

        // Hardening runtime: per-compartment policy = union of member
        // libraries' SH; heap/shared registration for ASAN/DFI coverage.
        let mut sh = ShRuntime::new(n);
        for c in 0..n {
            let id = CompartmentId(c as u16);
            sh.set_policy(id, img.plan.compartment_sh[c].clone());
            let ctx = img.gates.ctx(id);
            sh.register_heap(id, ctx.heap_base, ctx.heap_size);
        }
        let (shared_base, shared_len) = img.shared_region();
        sh.register_shared(shared_base, shared_len);

        // Which allocators are instrumented? Global mode: one allocator,
        // instrumented if *any* library's SH instruments malloc — the
        // whole system pays (Figure 4, "global allocator"). Dedicated
        // mode: per compartment.
        let any_instrumented = img
            .plan
            .config
            .libraries
            .iter()
            .any(|l| l.sh.instruments_malloc());
        let alloc_instrumented: Vec<bool> = match img.heaps.mode() {
            AllocMode::Global => vec![any_instrumented; n],
            AllocMode::PerCompartment => (0..n)
                .map(|c| img.plan.compartment_sh[c].instruments_malloc())
                .collect(),
        };

        // The network stack: socket-ring pool from its compartment heap
        // (sized by `BootOptions::net_pool_bytes`).
        let pool = img
            .heaps
            .alloc(&mut img.machine, roles.net, net_pool_bytes, 16)?;
        let mut net = NetStack::new(ip, Nic::new(Mac::of_nic(nic_id)), pool, net_pool_bytes);
        let costs = img.machine.costs().clone();
        if img.plan.config.hypervisor == flexos::build::Hypervisor::Xen {
            net.extra_per_packet = costs.xen_packet_tax;
        }
        if tax.net > 0 {
            net.sh_per_packet = costs.sh_net_per_packet * tax.net / GCC_PCT
                + if alloc_instrumented[roles.net.0 as usize] {
                    costs.asan_alloc
                } else {
                    0
                };
        } else if alloc_instrumented[roles.net.0 as usize] {
            // Unhardened stack on an instrumented global allocator still
            // pays the instrumented pbuf allocation per packet.
            net.sh_per_packet = costs.asan_alloc;
        }
        if tax.driver > 0 {
            // A hardened driver pays KASAN on its descriptor handling
            // (~40% of its per-packet work at the GCC set).
            net.sh_per_packet += costs.nic_per_packet * 40 * tax.driver / (GCC_PCT * 100);
        }

        Ok(Os {
            img,
            sh,
            sems: SemTable::new(),
            net,
            roles,
            tax,
            sched_kind,
            alloc_instrumented,
            sem_home: roles.libc,
            sock_sems: Vec::new(),
            wakes: Vec::new(),
            stats: OsStats::default(),
            cqe_scratch: Vec::new(),
            ready_scratch: Vec::new(),
            serve_exec: ServingSnapshot::default(),
        })
    }

    /// Moves the semaphore service into `home` — the component redesign
    /// the paper's §4 points at: "putting the network stack and the
    /// scheduler in the same compartment does not increase performance:
    /// this is due to semaphores being implemented in another
    /// compartment (LibC). This brings the need for further
    /// compartmentalization or redesign of the components."
    ///
    /// With `home = roles.net`, the NW+Sched/Rest model's mbox traffic
    /// becomes compartment-local and the merge finally pays off (see
    /// `tests/counterfactuals.rs`).
    pub fn relocate_semaphores(&mut self, home: CompartmentId) {
        self.sem_home = home;
    }

    /// OS counters.
    pub fn stats(&self) -> OsStats {
        self.stats
    }

    /// Aggregates every subsystem's telemetry into one [`StatsSnapshot`]:
    /// gate crossings from the gate runtime, scheduler activity from
    /// `exec` (when the caller drove one), allocator pressure from the
    /// heap service, faults from the machine (pkey violations attributed
    /// to the compartment owning the key), and packet counters from the
    /// network stack.
    pub fn stats_snapshot(&self, exec: Option<&Executor<Os>>) -> StatsSnapshot {
        let n = self.img.gates.len();
        let names: Vec<String> = (0..n)
            .map(|c| self.img.gates.ctx(CompartmentId(c as u16)).name.clone())
            .collect();
        let mut owners: BTreeMap<u16, (u16, String)> = BTreeMap::new();
        for c in 0..n {
            let ctx = self.img.gates.ctx(CompartmentId(c as u16));
            for k in &ctx.keys {
                owners.insert(k.0 as u16, (c as u16, ctx.name.clone()));
            }
        }
        let mut reg = TraceRegistry::new();
        reg.set_elapsed(self.img.machine.clock().cycles());
        reg.add_gates(self.img.gates.trace(), &names);
        if let Some(ex) = exec {
            reg.add_sched(ex.sched());
        }
        reg.add_allocs(self.img.heaps.trace(), &names);
        reg.add_faults(self.img.machine.fault_trace(), |k| owners.get(&k).cloned());
        reg.add_tlb(self.img.machine.tlb_trace());
        reg.add_async_gates(self.img.gates.async_stats());
        reg.add_migrations(self.img.gates.migration_stats());
        reg.add_net(self.net.stats());
        reg.add_serving(self.net.events().stats() + self.serve_exec);
        reg.add_spans(self.img.machine.span_trace());
        reg.finish()
    }

    /// Renders the machine's span trace as Chrome trace-event JSON
    /// (Perfetto-loadable), naming each compartment track after the
    /// image's compartments. Deterministic runs produce the identical
    /// string run to run.
    pub fn trace_json(&self) -> String {
        let names: Vec<(u16, String)> = (0..self.img.gates.len())
            .map(|c| {
                (
                    c as u16,
                    self.img.gates.ctx(CompartmentId(c as u16)).name.clone(),
                )
            })
            .collect();
        self.img.machine.span_trace().to_chrome_json(&names)
    }

    fn taxed(base: u64, pct: u64) -> u64 {
        base + base * pct / 100
    }

    /// Cycles of one scheduler API call seen from glue code: the base
    /// call (with the scheduler's SH tax) plus — for the verified
    /// scheduler — the precondition checks "integrated in the glue code"
    /// (paper §4).
    fn sched_call_cycles(&self) -> u64 {
        let costs = self.img.machine.costs();
        let base = Self::taxed(costs.func_call, self.tax.sched);
        let glue = match self.sched_kind {
            SchedKind::Verified => costs.verified_contract_check,
            SchedKind::Coop => 0,
        };
        base + glue
    }

    /// Like [`Os::sched_call_cycles`] but for the light wait-queue peek
    /// every semaphore op performs (a single-precondition check in the
    /// verified scheduler's glue, not the full thread-op contract).
    fn sched_peek_cycles(&self) -> u64 {
        let costs = self.img.machine.costs();
        let base = Self::taxed(costs.func_call, self.tax.sched);
        let glue = match self.sched_kind {
            SchedKind::Verified => costs.verified_contract_check / 4,
            SchedKind::Coop => 0,
        };
        base + glue
    }

    // --- memory ------------------------------------------------------------------

    /// Allocates an application I/O buffer in the shared window (ported
    /// FlexOS applications annotate socket buffers as shared data so the
    /// network stack may fill them from its compartment).
    pub fn alloc_shared_buf(&mut self, size: u64) -> Result<Addr> {
        self.img.malloc_shared(size, 16)
    }

    /// malloc as compartment `c`, paying the instrumented-allocator cost
    /// when the allocator serving `c` is instrumented, and tracking
    /// redzones when `c` itself is ASAN-hardened.
    pub fn malloc_in(&mut self, c: CompartmentId, size: u64) -> Result<Addr> {
        if !self.alloc_instrumented[c.0 as usize] {
            return self.img.heaps.alloc(&mut self.img.machine, c, size, 16);
        }
        self.stats.instrumented_allocs += 1;
        let outer = self
            .img
            .heaps
            .alloc(&mut self.img.machine, c, size + 2 * REDZONE, 16)?;
        if self.sh.policy(c).instruments_malloc() {
            Ok(self.sh.on_alloc(&mut self.img.machine, c, outer, size))
        } else {
            // Instrumented allocator, unhardened caller: pay the cost,
            // gain no checking.
            self.img.machine.charge(self.img.machine.costs().asan_alloc);
            Ok(Addr(outer.0 + REDZONE))
        }
    }

    /// free as compartment `c` (quarantined when instrumented).
    pub fn free_in(&mut self, c: CompartmentId, payload: Addr) -> Result<()> {
        if !self.alloc_instrumented[c.0 as usize] {
            return self.img.heaps.free(&mut self.img.machine, c, payload);
        }
        if self.sh.policy(c).instruments_malloc() {
            if let Some(outer) = self.sh.on_free(&mut self.img.machine, c, payload)? {
                self.img.heaps.free(&mut self.img.machine, c, outer)?;
            }
            Ok(())
        } else {
            self.img.machine.charge(self.img.machine.costs().asan_alloc);
            self.img
                .heaps
                .free(&mut self.img.machine, c, Addr(payload.0 - REDZONE))
        }
    }

    /// Charges `base` cycles of application work (with the app library's
    /// SH tax).
    pub fn app_compute(&mut self, base: u64) {
        let cycles = Self::taxed(base, self.tax.app);
        self.img.machine.charge(cycles);
    }

    // --- socket API (application-facing, fully gated) ------------------------------

    /// A socket control call that goes app → libc → network stack and
    /// back: two nested crossings of [`CONTROL_ARG_BYTES`] in and 8 bytes
    /// out, with `call` run in the stack.
    fn via_libc_to_net<R>(
        &mut self,
        call: impl FnOnce(&mut NetStack, &mut Machine) -> NetResult<R>,
    ) -> NetResult<R> {
        let (c_libc, c_net) = (self.roles.libc, self.roles.net);
        let Os { img, net, .. } = self;
        let BootImage { machine, gates, .. } = img;
        gates
            .cross(machine, c_libc, CONTROL_ARG_BYTES, 8, |m, rt| {
                rt.cross(m, c_net, CONTROL_ARG_BYTES, 8, |m, _| Ok(call(net, m)))
            })
            .map_err(NetError::from)?
    }

    /// `listen()`: app → libc → network stack.
    pub fn listen(&mut self, port: u16) -> NetResult<SocketId> {
        self.via_libc_to_net(|net, _| net.tcp_listen(port))
    }

    /// `accept()`: returns a connected socket once the handshake is done.
    pub fn accept(&mut self, listener: SocketId) -> NetResult<Option<SocketId>> {
        self.via_libc_to_net(|net, _| net.tcp_accept(listener))
    }

    /// `connect()`: initiates an active open (poll until established).
    pub fn connect(&mut self, dst_ip: u32, dst_port: u16) -> NetResult<SocketId> {
        self.via_libc_to_net(|net, m| net.tcp_connect(dst_ip, dst_port, m.clock().cycles()))
    }

    /// A data operation on `sid` with where it goes and what it costs on
    /// the way: the compartments of its nested crossings and the
    /// per-library taxes of the current hardening configuration.
    fn sock_op(&self, sid: SocketId, buf: Addr, access: Access) -> SockOp {
        SockOp {
            sid,
            buf,
            access,
            c_net: self.roles.net,
            c_sem: self.sem_home,
            c_sched: self.roles.sched,
            net_tax: self.tax.net,
            libc_tax: self.tax.libc,
            sched_cycles: self.sched_peek_cycles(),
        }
    }

    /// One socket data operation (`recv` or `send`), with the paper's
    /// full crossing structure:
    ///
    /// 1. app → **libc** (the `recv()`/`send()` wrapper);
    /// 2. libc → **network stack** (the socket layer);
    /// 3. stack → **libc** — lwIP's `sys_mbox` semaphore lives in libc
    ///    ("semaphores being implemented in another compartment (LibC)",
    ///    §4) …
    /// 4. … whose wait queue lives in the **scheduler** ("frequent
    ///    communication between the scheduler and the network stack,
    ///    making intensive use of wait queues through semaphores").
    ///
    /// This is why Figure 5's NW+Sched merge does not help: step 3 still
    /// crosses out of the merged compartment into libc, and step 4
    /// crosses from libc into wherever the scheduler lives.
    fn sock_data_op(
        &mut self,
        sid: SocketId,
        buf: Addr,
        len: u64,
        access: Access,
    ) -> NetResult<u64> {
        let c_libc = self.roles.libc;
        let op = self.sock_op(sid, buf, access);
        let Os { img, net, sh, .. } = self;
        let BootImage { machine, gates, .. } = img;
        // A plain sync crossing, not a ring of one: the ring would add
        // submission/flush/batch-histogram entries to `--stats`.
        let r = gates
            .cross(machine, c_libc, 32, 8, |m, rt| {
                op.in_libc(m, rt, net, sh, len)
            })
            .map_err(NetError::from)??;
        charge_libc_copy(machine, op.libc_tax, r);
        Ok(r)
    }

    /// Encodes a socket-layer result as an io_uring-style CQE `res`
    /// value: byte counts are non-negative, errors map to stable
    /// negative codes (cf. `-errno`). The exact [`NetResult`] — faults
    /// included — travels alongside the ring, so the code is a summary,
    /// not the source of truth.
    pub fn net_res_code(r: &NetResult<u64>) -> i64 {
        match r {
            Ok(n) => *n as i64,
            Err(NetError::WouldBlock) => -1,
            Err(NetError::Closed) => -2,
            Err(NetError::AddrInUse) => -3,
            Err(NetError::InvalidSocket) => -4,
            Err(NetError::NoBuffers) => -5,
            Err(NetError::Fault(_)) => -7,
        }
    }

    /// Batched [`Os::sock_data_op`]: up to `max` data operations on `sid`
    /// submitted as descriptors onto the app → libc async gate ring and
    /// drained through one [`GateRuntime::flush_async_until`], each call
    /// performing the exact nested inner sequence (libc → stack →
    /// semaphore → scheduler) and each followed by the same libc memcpy
    /// epilogue a sequential driver charges. Descriptor `i` is tagged
    /// with `spans.get(i)` (untagged past the slice) and completes with
    /// its result encoded via [`Os::net_res_code`].
    ///
    /// `after(m, rt, &r)` runs in the caller's compartment after each
    /// operation's result `r`: it applies the work a sequential loop does
    /// between two socket calls (per-reply bookkeeping, staging the next
    /// chunk via `m`/`rt`) and returns `Ok(Some(next_len))` to issue the
    /// next operation with that length or `Ok(None)` to stop — e.g. on
    /// `WouldBlock`, EOF, or an emptied output buffer. The count of
    /// issued operations and the result of the last (stopping) one are
    /// returned.
    ///
    /// The simulated cycles, faults and trace are bit-identical to the
    /// sequential loop of [`Os::sock_data_op`] this replaces (see
    /// `tests/backend_equiv.rs` and `tests/async_gate.rs`).
    #[allow(clippy::too_many_arguments)] // one private fn backs 3 public wrappers
    fn sock_data_op_batch(
        &mut self,
        sid: SocketId,
        buf: Addr,
        first_len: u64,
        access: Access,
        max: usize,
        spans: &[SpanId],
        mut after: impl FnMut(&mut Machine, &mut GateRuntime, &NetResult<u64>) -> Result<Option<u64>>,
    ) -> Result<BatchOutcome> {
        let c_libc = self.roles.libc;
        let op = self.sock_op(sid, buf, access);
        let cur_len = Cell::new(first_len);
        // The exact result rides next to the ring: a CQE's i64 `res`
        // cannot carry a full `Fault` payload, so the ring transports
        // the io_uring-style code and this cell keeps the real value of
        // the operation that just completed.
        let done = RefCell::new(BatchOutcome {
            issued: 0,
            last: None,
        });
        let Os {
            img,
            net,
            sh,
            cqe_scratch,
            ..
        } = self;
        let BootImage { machine, gates, .. } = img;
        gates.ensure_ring_depth(c_libc, max);
        for i in 0..max {
            let span = spans.get(i).copied().unwrap_or(SpanId::NONE);
            gates.submit(c_libc, Sqe::new(32, 8, i as u64).with_span(span))?;
        }
        let flushed = gates.flush_async_until(
            machine,
            c_libc,
            |m, rt, _sqe| {
                let res = op.in_libc(m, rt, net, sh, cur_len.get())?;
                let code = Self::net_res_code(&res);
                let mut done = done.borrow_mut();
                done.issued += 1;
                done.last = Some(res);
                Ok(code)
            },
            |m, rt, _sqe, _code| {
                let held = done.borrow();
                let r = held.last.as_ref().expect("between hook follows its call");
                if let Ok(n) = r {
                    // Charged after the crossing returns, exactly where
                    // the sequential path charges it.
                    charge_libc_copy(m, op.libc_tax, *n);
                }
                let next = after(m, rt, r)?;
                drop(held);
                match next {
                    Some(next) => {
                        cur_len.set(next);
                        Ok(true)
                    }
                    None => Ok(false),
                }
            },
        );
        // A sequential driver has no notion of "still queued": whatever
        // an early stop (or an enter fault) left unissued is cancelled,
        // and the completions are drained — the one result a caller acts
        // on already lives in `done`, the CQEs carry the summary codes.
        gates.cancel_pending(c_libc);
        cqe_scratch.clear();
        gates.poll_completions(c_libc, cqe_scratch);
        let done = done.into_inner();
        // (A fault on a call's way back leaves it without a completion.)
        debug_assert!(
            cqe_scratch.len() != done.issued
                || cqe_scratch.last().map(|c| c.res) == done.last.as_ref().map(Self::net_res_code),
            "CQE codes diverged from the socket results"
        );
        flushed?;
        Ok(done)
    }

    /// Batched `recv()`: up to `max` receives of `len` bytes into `dst`
    /// through one vectored gate crossing. See [`Os::sock_data_op_batch`]
    /// for the `after` hook contract.
    pub fn recv_batch(
        &mut self,
        sid: SocketId,
        dst: Addr,
        len: u64,
        max: usize,
        after: impl FnMut(&mut Machine, &mut GateRuntime, &NetResult<u64>) -> Result<Option<u64>>,
    ) -> Result<BatchOutcome> {
        self.sock_data_op_batch(sid, dst, len, Access::Write, max, &[], after)
    }

    /// Batched `send()`: up to `max` sends from `src`, the first of
    /// `first_len` bytes, through one vectored gate crossing. The `after`
    /// hook stages each subsequent chunk (writing it through `m` in the
    /// caller's compartment, as a sequential send loop would) and returns
    /// its length; see [`Os::sock_data_op_batch`]. Descriptor `i` of the
    /// burst carries request span `spans[i]` (descriptors past the slice
    /// stay untagged), so the causal trace links each ring entry to the
    /// request whose reply it ships.
    pub fn send_batch_spanned(
        &mut self,
        sid: SocketId,
        src: Addr,
        first_len: u64,
        max: usize,
        spans: &[SpanId],
        after: impl FnMut(&mut Machine, &mut GateRuntime, &NetResult<u64>) -> Result<Option<u64>>,
    ) -> Result<BatchOutcome> {
        self.sock_data_op_batch(sid, src, first_len, Access::Read, max, spans, after)
    }

    /// `recv()`: see [`Os::sock_data_op`] for the crossing structure.
    pub fn recv(&mut self, sid: SocketId, dst: Addr, len: u64) -> NetResult<u64> {
        self.sock_data_op(sid, dst, len, Access::Write)
    }

    /// `close()`.
    pub fn sock_close(&mut self, sid: SocketId) -> NetResult<()> {
        self.via_libc_to_net(|net, _| net.close(sid))
    }

    // --- blocking / wakeup (the Figure 5 path) ---------------------------------------

    fn ensure_sem(&mut self, sid: SocketId) -> SemId {
        if self.sock_sems.len() <= sid.0 {
            self.sock_sems.resize(sid.0 + 1, None);
        }
        let sems = &mut self.sems;
        *self.sock_sems[sid.0].get_or_insert_with(|| sems.create(0))
    }

    /// Prepares to block until `sid` is readable. Crosses into libc for
    /// the semaphore down and into the scheduler compartment for the
    /// run-queue bookkeeping. Returns `None` when data raced in and the
    /// caller should retry instead of blocking.
    pub fn wait_readable(&mut self, tid: ThreadId, sid: SocketId) -> Result<Option<WaitChannel>> {
        let sem = self.ensure_sem(sid);
        let (c_libc, c_sched) = (self.sem_home, self.roles.sched);
        let sched_tax_cycles = self.sched_call_cycles();
        let Os { img, sems, .. } = self;
        let BootImage { machine, gates, .. } = img;
        let got_token = gates.cross(machine, c_libc, 16, 8, |m, rt| {
            let got = sems.try_down(sem, tid);
            if !got {
                // The blocking path continues into the scheduler's
                // compartment to park the thread.
                rt.cross(m, c_sched, 16, 8, |m, _rt| {
                    m.charge(sched_tax_cycles);
                    Ok(())
                })?;
            }
            Ok(got)
        })?;
        Ok(if got_token { None } else { Some(sem.channel()) })
    }

    /// Runs one network-stack iteration (in the stack's compartment) and
    /// wakes any threads whose sockets became readable (semaphore `up`s
    /// in libc, run-queue wakes in the scheduler compartment).
    pub fn poll_net(&mut self) -> Result<()> {
        let (c_libc, c_net, c_sched) = (self.sem_home, self.roles.net, self.roles.sched);
        {
            let Os { img, net, .. } = self;
            let BootImage { machine, gates, .. } = img;
            gates.cross(machine, c_net, 16, 8, |m, rt| {
                let vcpu = rt.current_ctx().vcpu;
                net.poll(m, vcpu).map_err(|e| match e {
                    NetError::Fault(f) => f,
                    other => abort("net", other.to_string()),
                })
            })?;
        }
        // Readiness wakeups: drain the stack's event queue — O(ready),
        // never a scan of every open socket. Level-triggered READ events
        // are exactly the readable streams the old full scan found;
        // processing them in ascending socket order with the identical
        // skip conditions keeps the charge stream byte-identical.
        let sched_tax_cycles = self.sched_call_cycles();
        let mut ready = std::mem::take(&mut self.ready_scratch);
        self.net.poll_events(&mut ready);
        ready.sort_unstable_by_key(|e| e.sid.0);
        for ev in &ready {
            if !ev.ready.contains(Interest::READ) {
                continue; // ACCEPT/WRITE readiness wakes no sem waiters
            }
            let sid = ev.sid;
            let Some(&Some(sem)) = self.sock_sems.get(sid.0) else {
                continue;
            };
            if self.sems.get(sem).waiter_count() == 0 {
                continue;
            }
            if !self.net.tcp_readable(sid).unwrap_or(false) {
                continue;
            }
            let Os {
                img, sems, wakes, ..
            } = self;
            let BootImage { machine, gates, .. } = img;
            gates.cross(machine, c_libc, 16, 8, |m, rt| {
                if let Some(tid) = sems.up(sem) {
                    // Waking crosses into the scheduler's compartment.
                    rt.cross(m, c_sched, 16, 8, |m, _rt| {
                        m.charge(sched_tax_cycles);
                        Ok(())
                    })?;
                    wakes.push(tid);
                }
                Ok(())
            })?;
        }
        self.ready_scratch = ready;
        Ok(())
    }

    /// The readiness events drained by the most recent
    /// [`Os::poll_net`]. Serve drivers translate these into
    /// per-connection task wakes; level-triggered readiness that nobody
    /// consumes simply reappears on the next poll.
    pub fn ready_events(&self) -> &[ReadyEvent] {
        &self.ready_scratch
    }

    /// Folds a serve run's cooperative-executor counters into the
    /// instance totals surfaced by [`Os::stats_snapshot`].
    pub fn record_serve_exec(&mut self, t: ServingSnapshot) {
        self.serve_exec = self.serve_exec + t;
    }
}

impl KernelHal for Os {
    fn machine_mut(&mut self) -> &mut Machine {
        &mut self.img.machine
    }

    fn resume_compartment(&mut self, compartment: CompartmentId) -> Result<()> {
        // A hardened scheduler pays its SH tax on every switch.
        if self.tax.sched > 0 {
            let extra = self.img.machine.costs().ctx_switch * self.tax.sched / 100;
            self.img.machine.charge(extra);
        }
        self.img.gates.resume_in(&mut self.img.machine, compartment)
    }

    fn drain_wakes(&mut self) -> Vec<ThreadId> {
        std::mem::take(&mut self.wakes)
    }

    fn drain_wakes_into(&mut self, out: &mut Vec<ThreadId>) {
        out.append(&mut self.wakes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{exchange, Rig, CLIENT_IP};
    use crate::profiles::{evaluation_image, harden, CompartmentModel, SchedKind};
    use flexos::build::{plan, BackendChoice};
    use flexos_net::nic::Link;

    fn boot(model: CompartmentModel, backend: BackendChoice) -> Os {
        let cfg = evaluation_image("iperf", model, backend, SchedKind::Coop);
        Os::boot(plan(cfg).unwrap(), 0x0a00_0001, 1).unwrap()
    }

    /// An NW/sched/rest image listening on port 80 opposite a client:
    /// the rig, the listener, and the client and server sockets of one
    /// connection it accepted.
    fn accepted() -> (Rig, SocketId, SocketId, SocketId) {
        let os = boot(CompartmentModel::NwSchedRest, BackendChoice::MpkShared);
        let mut rig = Rig::new(os, Link::new()).unwrap();
        let listener = rig.os.listen(80).unwrap();
        let cs = rig.connect(80).unwrap();
        let sid = rig.os.accept(listener).unwrap().expect("accepted");
        (rig, listener, cs, sid)
    }

    #[test]
    fn an_open_socket_holds_no_semaphore_until_a_thread_waits_on_it() {
        let (mut rig, _, _, sid) = accepted();
        rig.os.connect(CLIENT_IP, 9).unwrap();
        assert!(rig.os.sems.is_empty(), "accept or connect made a semaphore");
        assert!(rig.os.sock_sems.is_empty());
        // Nothing buffered: the wait blocks, on the one semaphore it made.
        let chan = rig.os.wait_readable(ThreadId(1), sid).unwrap();
        assert_eq!(chan, Some(SemId(0).channel()));
        assert_eq!(rig.os.sems.len(), 1);
        assert_eq!(rig.os.sems.get(SemId(0)).waiter_count(), 1);
        assert_eq!(rig.os.sock_sems[sid.0], Some(SemId(0)));
    }

    #[test]
    fn a_reused_socket_slot_keeps_its_semaphore() {
        let (mut rig, listener, cs, sid) = accepted();
        rig.os.wait_readable(ThreadId(1), sid).unwrap();
        rig.client.net.close(cs).unwrap();
        rig.os.sock_close(sid).unwrap();
        let mut rounds = 0;
        while rig.os.net.tcp_is_established(sid).is_ok() {
            rig.round().unwrap();
            rounds += 1;
            assert!(rounds < 64, "the closed socket was never reaped");
        }
        rig.connect(80).unwrap();
        assert_eq!(rig.os.accept(listener).unwrap(), Some(sid), "slot reused");
        let chan = rig.os.wait_readable(ThreadId(2), sid).unwrap();
        assert_eq!(chan, Some(SemId(0).channel()));
        assert_eq!(rig.os.sems.len(), 1, "the reused slot made a second one");
    }

    /// What one `poll_net` that finds `sid` readable costs, when before it
    /// `sid` has no semaphore (`None`), one with no waiter, or one with a
    /// thread waiting: server cycles, crossings, direct calls, wakes.
    fn wake_pass(sem: Option<bool>) -> (u64, u64, u64, Vec<ThreadId>) {
        let (mut rig, _, cs, sid) = accepted();
        match sem {
            None => {}
            Some(false) => drop(rig.os.ensure_sem(sid)),
            Some(true) => drop(rig.os.wait_readable(ThreadId(1), sid).unwrap()),
        }
        rig.client.send_bytes(cs, b"ping").unwrap();
        rig.client.poll().unwrap();
        exchange(&mut rig.link, &mut rig.client, &mut rig.os);
        rig.os.img.gates.reset_stats();
        let t0 = rig.os.img.machine.clock().cycles();
        rig.os.poll_net().unwrap();
        let readable = |e: &ReadyEvent| e.sid == sid && e.ready.contains(Interest::READ);
        assert!(rig.os.ready_events().iter().any(readable), "no READ event");
        let st = rig.os.img.gates.stats();
        let cycles = rig.os.img.machine.clock().cycles() - t0;
        (cycles, st.crossings, st.direct_calls, rig.os.drain_wakes())
    }

    #[test]
    fn a_socket_without_a_semaphore_costs_the_wake_pass_what_one_without_waiters_does() {
        let (none, idle, waiting) = (
            wake_pass(None),
            wake_pass(Some(false)),
            wake_pass(Some(true)),
        );
        assert_eq!(none, idle);
        assert!(none.3.is_empty());
        // The pass does reach the socket: a waiting thread is woken, with
        // the semaphore up and the scheduler's crossing on the bill.
        assert_eq!(waiting.3, vec![ThreadId(1)]);
        assert!(
            waiting.0 > none.0 && waiting.1 > none.1,
            "{waiting:?} vs {none:?}"
        );
    }

    #[test]
    fn baseline_boot_resolves_roles_to_one_compartment() {
        let os = boot(CompartmentModel::Baseline, BackendChoice::None);
        assert_eq!(os.roles.app, os.roles.net);
        assert_eq!(os.roles.libc, os.roles.sched);
    }

    #[test]
    fn nw_only_separates_net_from_rest() {
        let os = boot(CompartmentModel::NwOnly, BackendChoice::MpkShared);
        assert_ne!(os.roles.net, os.roles.app);
        assert_eq!(os.roles.libc, os.roles.app);
    }

    #[test]
    fn listen_crosses_gates_under_isolation() {
        let mut os = boot(CompartmentModel::NwOnly, BackendChoice::MpkShared);
        os.img.gates.reset_stats();
        os.listen(5201).unwrap();
        // app→libc is same-compartment (direct), libc→net is a crossing.
        assert_eq!(os.img.gates.stats().crossings, 1);
        assert_eq!(os.img.gates.stats().direct_calls, 1);
    }

    #[test]
    fn listen_is_direct_in_the_baseline() {
        let mut os = boot(CompartmentModel::Baseline, BackendChoice::None);
        os.img.gates.reset_stats();
        os.listen(5201).unwrap();
        assert_eq!(os.img.gates.stats().crossings, 0);
        assert_eq!(os.img.gates.stats().direct_calls, 2);
    }

    /// Each socket control call crosses app → libc → stack with its
    /// declared sizes: 16 bytes in and 8 out. Under NW-only the app →
    /// libc hop is direct, so the one libc → stack crossing marshals them.
    #[test]
    fn socket_calls_marshal_their_declared_sizes() {
        let mut os = boot(CompartmentModel::NwOnly, BackendChoice::MpkShared);
        let marshalled = |os: &mut Os, call: &dyn Fn(&mut Os)| {
            os.img.gates.reset_stats();
            call(os);
            assert_eq!(os.img.gates.stats().crossings, 1);
            os.img.gates.stats().bytes_marshalled
        };
        assert_eq!(marshalled(&mut os, &|os| drop(os.listen(5201))), 16 + 8);
        let l = os.listen(7).unwrap();
        assert_eq!(marshalled(&mut os, &|os| drop(os.accept(l))), 16 + 8);
        let connect = |os: &mut Os| drop(os.connect(0x0a00_0002, 9));
        assert_eq!(marshalled(&mut os, &connect), 16 + 8);
        assert_eq!(marshalled(&mut os, &|os| drop(os.sock_close(l))), 16 + 8);
    }

    /// libc's memcpy is charged per started 4-byte word, plus the
    /// ASAN-interceptor share when libc carries the GCC hardening set.
    #[test]
    fn the_libc_copy_charge_counts_every_started_word() {
        let mut m = Machine::with_defaults();
        let (per_word, asan_pct) = (m.costs().libc_copy_per_4bytes, m.costs().sh_asan_memcpy_pct);
        let mut charged = |libc_tax, n| {
            let t0 = m.clock().cycles();
            charge_libc_copy(&mut m, libc_tax, n);
            m.clock().cycles() - t0
        };
        assert_eq!(charged(0, 5), 2 * per_word);
        assert_eq!(charged(0, 8), 2 * per_word);
        let hardened = 2 * per_word + 2 * per_word * asan_pct / 100;
        assert_eq!(charged(GCC_PCT, 5), hardened);
    }

    #[test]
    fn shared_buffers_are_reachable_from_every_compartment() {
        let mut os = boot(CompartmentModel::NwSchedRest, BackendChoice::MpkSwitched);
        let buf = os.alloc_shared_buf(4096).unwrap();
        os.img.write(buf, b"app-data").unwrap();
        let c_net = os.roles.net;
        let Os { img, .. } = &mut os;
        let BootImage { machine, gates, .. } = img;
        gates
            .cross(machine, c_net, 0, 0, |m, rt| {
                let mut b = [0u8; 8];
                m.read(rt.current_ctx().vcpu, buf, &mut b)?;
                assert_eq!(&b, b"app-data");
                Ok(())
            })
            .unwrap();
    }

    #[test]
    fn hardened_netstack_pays_packet_taxes() {
        let cfg = harden(
            evaluation_image(
                "iperf",
                CompartmentModel::Baseline,
                BackendChoice::None,
                SchedKind::Coop,
            ),
            "lwip",
        );
        let os = Os::boot(plan(cfg).unwrap(), 0x0a00_0001, 1).unwrap();
        assert!(os.net.sh_per_packet > 0);
        assert!(os.tax.net > 0);
        assert_eq!(os.tax.libc, 0);
    }

    #[test]
    fn global_allocator_spreads_instrumentation_cost() {
        // SH on lwip, global allocator (baseline model, no isolation):
        // even the app's allocations pay.
        let cfg = harden(
            evaluation_image(
                "redis",
                CompartmentModel::Baseline,
                BackendChoice::None,
                SchedKind::Coop,
            ),
            "lwip",
        );
        let mut os = Os::boot(plan(cfg).unwrap(), 0x0a00_0001, 1).unwrap();
        let c_app = os.roles.app;
        let before = os.img.machine.clock().cycles();
        let p = os.malloc_in(c_app, 64).unwrap();
        let with_inst = os.img.machine.clock().cycles() - before;
        os.free_in(c_app, p).unwrap();
        assert_eq!(os.stats().instrumented_allocs, 1);

        // Same but with dedicated allocators: the app side is clean.
        let mut cfg2 = harden(
            evaluation_image(
                "redis",
                CompartmentModel::Baseline,
                BackendChoice::None,
                SchedKind::Coop,
            ),
            "lwip",
        );
        cfg2.dedicated_allocators = true;
        let mut os2 = Os::boot(plan(cfg2).unwrap(), 0x0a00_0001, 1).unwrap();
        let c_app2 = os2.roles.app;
        let b2 = os2.img.machine.clock().cycles();
        let p2 = os2.malloc_in(c_app2, 64).unwrap();
        let without_inst = os2.img.machine.clock().cycles() - b2;
        os2.free_in(c_app2, p2).unwrap();
        // Baseline model = one compartment, so dedicated == 1 allocator,
        // and the compartment union includes lwip's ASAN… the dedicated
        // case only helps once net is in its own compartment:
        let cfg3 = harden(
            evaluation_image(
                "redis",
                CompartmentModel::NwOnly,
                BackendChoice::MpkShared,
                SchedKind::Coop,
            ),
            "lwip",
        );
        let mut os3 = Os::boot(plan(cfg3).unwrap(), 0x0a00_0001, 1).unwrap();
        let c_app3 = os3.roles.app;
        let b3 = os3.img.machine.clock().cycles();
        let p3 = os3.malloc_in(c_app3, 64).unwrap();
        let isolated_clean = os3.img.machine.clock().cycles() - b3;
        os3.free_in(c_app3, p3).unwrap();
        assert!(with_inst > isolated_clean);
        let _ = without_inst;
        assert_eq!(os3.stats().instrumented_allocs, 0);
    }

    #[test]
    fn verified_sched_is_detected_from_the_plan() {
        let cfg = evaluation_image(
            "iperf",
            CompartmentModel::Baseline,
            BackendChoice::None,
            SchedKind::Verified,
        );
        let os = Os::boot(plan(cfg).unwrap(), 0x0a00_0001, 1).unwrap();
        assert_eq!(os.sched_kind, SchedKind::Verified);
    }

    #[test]
    fn a_scheduler_named_unverified_is_not_the_verified_one() {
        let mut cfg = evaluation_image(
            "iperf",
            CompartmentModel::Baseline,
            BackendChoice::None,
            SchedKind::Coop,
        );
        let sched = cfg
            .libraries
            .iter_mut()
            .find(|l| l.role == LibRole::Scheduler)
            .unwrap();
        std::rc::Rc::make_mut(&mut sched.spec).name = "uksched_unverified".into();
        let os = Os::boot(plan(cfg).unwrap(), 0x0a00_0001, 1).unwrap();
        assert_eq!(os.sched_kind, SchedKind::Coop);
        // No precondition checks in the glue: a call costs the taxed call.
        let func_call = os.img.machine.costs().func_call;
        assert_eq!(os.sched_call_cycles(), Os::taxed(func_call, os.tax.sched));
        assert_eq!(os.sched_peek_cycles(), Os::taxed(func_call, os.tax.sched));
    }

    #[test]
    fn xen_images_pay_the_hypervisor_tax() {
        let cfg = evaluation_image(
            "iperf",
            CompartmentModel::Baseline,
            BackendChoice::None,
            SchedKind::Coop,
        )
        .on(flexos::build::Hypervisor::Xen);
        let os = Os::boot(plan(cfg).unwrap(), 0x0a00_0001, 1).unwrap();
        assert_eq!(
            os.net.extra_per_packet,
            os.img.machine.costs().xen_packet_tax
        );
    }
}
