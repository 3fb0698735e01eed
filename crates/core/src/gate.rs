//! Gates: the isolation abstraction between compartments.
//!
//! "Compartments in FlexOS are separated via gates which are made up of
//! the API each compartment exposes. The gates also implement isolation
//! between compartments, and can leverage different isolation mechanisms
//! … Implementations vary from cheap function calls all the way to
//! expensive RPC across VM boundaries." (paper §2)
//!
//! This module defines the [`Gate`] trait that isolation backends
//! implement, the [`CompartmentCtx`] runtime state of one compartment,
//! and the [`GateRuntime`] dispatcher that replaces FlexOS's link-time
//! gate substitution: library code calls [`GateRuntime::cross`] (the
//! analogue of the `uk_gate_r(rc, listen, sockfd, 5)` placeholder) and
//! the runtime either performs a plain function call (same compartment)
//! or drives the configured backend's enter/exit sequence.
//!
//! That per-call sequence is written once, in `GateRuntime::cross_one`:
//! `cross` runs it once, a `cross_batch` and an async-ring flush once
//! per call over one hoisted gate lookup (DESIGN.md §6.10). No option
//! changes how a crossing is issued; the reference a batch or a flush
//! is held to — a loop of `cross` — lives in the tests.

use crate::spec::transform::ShSet;
use flexos_machine::{Addr, Fault, Machine, Pkru, ProtKey, Result, VcpuId, VmId};
use flexos_trace::{GateTrace, SpanId, SpanKind};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// Identifier of a compartment within an image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CompartmentId(pub u16);

impl fmt::Display for CompartmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "compartment{}", self.0)
    }
}

/// The isolation mechanism a gate implements (Figure 2's gate library).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateMechanism {
    /// Plain function call — no protection-domain switch.
    DirectCall,
    /// Intel MPK with a shared stack domain (ERIM-style).
    MpkSharedStack,
    /// Intel MPK with per-compartment stacks switched at the boundary
    /// (Hodor-style).
    MpkSwitchedStack,
    /// RPC across VM (EPT) boundaries via inter-VM notifications.
    VmRpc,
    /// CHERI sealed-capability domain transition (CompartOS-style) —
    /// the paper's other "heterogeneous hardware" example.
    Cheri,
}

impl GateMechanism {
    /// Human-readable name as used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            GateMechanism::DirectCall => "function call",
            GateMechanism::MpkSharedStack => "MPK (shared stack)",
            GateMechanism::MpkSwitchedStack => "MPK (switched stack)",
            GateMechanism::VmRpc => "VM RPC (EPT)",
            GateMechanism::Cheri => "CHERI (sealed caps)",
        }
    }

    /// Where thread stacks live under this mechanism: `true` if stacks sit
    /// in a domain shared by all compartments (the shared-stack gate), in
    /// which case stack memory cannot be assumed private.
    pub fn stacks_shared(self) -> bool {
        matches!(
            self,
            GateMechanism::DirectCall | GateMechanism::MpkSharedStack
        )
    }

    /// Position on the isolation-strength ladder the migration policy
    /// climbs: function call (0) → MPK shared stack → MPK switched
    /// stack → CHERI → VM RPC (4). A live migration to a higher rank
    /// escalates isolation; to a lower rank relaxes it.
    pub fn isolation_rank(self) -> u8 {
        match self {
            GateMechanism::DirectCall => 0,
            GateMechanism::MpkSharedStack => 1,
            GateMechanism::MpkSwitchedStack => 2,
            GateMechanism::Cheri => 3,
            GateMechanism::VmRpc => 4,
        }
    }
}

/// Why a live backend migration was requested — the policy intent,
/// tallied in [`MigrationStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationReason {
    /// Operator- or test-driven switch.
    Manual,
    /// Policy raised isolation (flexos-inject chaos or a
    /// `HardeningAbort` fired).
    Escalate,
    /// Policy lowered isolation under sustained load.
    Relax,
}

impl MigrationReason {
    /// Short machine-readable tag.
    pub fn label(self) -> &'static str {
        match self {
            MigrationReason::Manual => "manual",
            MigrationReason::Escalate => "escalate",
            MigrationReason::Relax => "relax",
        }
    }
}

/// Cumulative live-migration counters — the `--stats` block itself, so
/// a snapshot takes them as they are. Host-side bookkeeping: the
/// drain/swap machinery charges no simulated cycles of its own, so a run
/// in which no migration triggers is bit-identical to one without the
/// machinery.
pub type MigrationStats = flexos_trace::MigrationsSnapshot;

/// Backend-state re-establishment hook a migration runs at swap time,
/// once the pair is quiescent: pkey retags (driving the machine's
/// generation-counter TLB invalidation), PKRU view updates, VM-RPC
/// inbox/doorbell hygiene. Runs with the machine, every compartment
/// context, and the currently-executing compartment; the backend layer
/// builds it (`flexos-backends::migrate`), the gate runtime only
/// schedules it.
pub type ReestablishFn =
    Rc<dyn Fn(&mut Machine, &mut [CompartmentCtx], CompartmentId) -> Result<()>>;

/// One draining pair: the backend swap waiting for quiescence.
struct PendingMigration {
    gate: Rc<dyn Gate>,
    reason: MigrationReason,
    reestablish: Option<ReestablishFn>,
    requested_at: u64,
}

/// A builder for the per-call marshalling sizes of one batched crossing.
///
/// Each entry is the `(arg_bytes, ret_bytes)` pair one call moves
/// through the gate — the same two numbers a plain [`GateRuntime::cross`]
/// takes. Batches are homogeneous in *target* (all calls cross into the
/// same compartment) but heterogeneous in size.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CallVec {
    calls: Vec<(u64, u64)>,
}

impl CallVec {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// A batch of `n` identical calls (the common microbench shape).
    pub fn uniform(n: usize, arg_bytes: u64, ret_bytes: u64) -> Self {
        Self {
            calls: vec![(arg_bytes, ret_bytes); n],
        }
    }

    /// Appends one call.
    pub fn push(&mut self, arg_bytes: u64, ret_bytes: u64) -> &mut Self {
        self.calls.push((arg_bytes, ret_bytes));
        self
    }

    /// Appends `n` identical calls.
    pub fn push_uniform(&mut self, n: usize, arg_bytes: u64, ret_bytes: u64) -> &mut Self {
        let new_len = self.calls.len() + n;
        self.calls.resize(new_len, (arg_bytes, ret_bytes));
        self
    }

    /// Number of calls in the batch.
    pub fn len(&self) -> usize {
        self.calls.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.calls.is_empty()
    }

    /// Drops all calls, keeping the allocation.
    pub fn clear(&mut self) {
        self.calls.clear();
    }

    /// The `(arg_bytes, ret_bytes)` of call `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn get(&self, idx: usize) -> (u64, u64) {
        self.calls[idx]
    }

    /// All calls, in issue order.
    pub fn as_slice(&self) -> &[(u64, u64)] {
        &self.calls
    }
}

/// Default slot capacity of one async gate ring pair.
///
/// Deep enough for every in-tree consumer's natural burst (redis drains
/// its RESP pipeline in ≤ a few chunks, iperf bursts 8 segments); callers
/// with bigger bursts raise it with [`GateRuntime::ensure_ring_depth`].
pub const DEFAULT_RING_DEPTH: usize = 64;

/// One submitted gate-call descriptor — the io_uring SQE analogue.
///
/// Carries the same `(arg_bytes, ret_bytes)` marshalling sizes a plain
/// [`GateRuntime::cross`] takes, an opaque `user_data` cookie copied to
/// the completion verbatim (io_uring convention), and the PR-7 request
/// span the call belongs to, so latency attribution survives the
/// submit/reap decoupling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sqe {
    /// Marshalled argument bytes the call moves into the target.
    pub arg_bytes: u64,
    /// Marshalled return bytes the call moves back out.
    pub ret_bytes: u64,
    /// Opaque caller cookie, echoed in the matching [`Cqe`].
    pub user_data: u64,
    /// Request span this call is attributed to ([`SpanId::NONE`] if
    /// the caller isn't inside a traced request).
    pub span: SpanId,
}

impl Sqe {
    /// A descriptor with no span attribution.
    pub fn new(arg_bytes: u64, ret_bytes: u64, user_data: u64) -> Self {
        Self {
            arg_bytes,
            ret_bytes,
            user_data,
            span: SpanId::NONE,
        }
    }

    /// Tags the descriptor with a request span.
    pub fn with_span(mut self, span: SpanId) -> Self {
        self.span = span;
        self
    }
}

/// One completed gate call — the io_uring CQE analogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cqe {
    /// The cookie from the matching [`Sqe`].
    pub user_data: u64,
    /// The call's result value. io_uring-style: callers encode
    /// application-level errors as negative values; machine faults abort
    /// the flush instead and never produce a completion.
    pub res: i64,
    /// The span from the matching [`Sqe`].
    pub span: SpanId,
}

/// Cumulative async-ring counters — the `--stats` block itself.
pub type AsyncGateStats = flexos_trace::AsyncGatesSnapshot;

/// One (caller, target) pair's submission/completion ring state.
///
/// Host-side bookkeeping only: no simulated cycles are charged until a
/// flush replays the queued calls through the batch loop, so the
/// simulated instruction stream is exactly what a sequential driver
/// would have issued.
#[derive(Debug)]
struct AsyncRing {
    depth: usize,
    /// Contiguous so a flush indexes descriptors straight off a slice
    /// (a flush drains from the front; partial drains shift only the
    /// rare fault-path survivors).
    sq: Vec<Sqe>,
    /// Completions, `cq[cq_head..]` ready to reap. A `Vec` plus head
    /// index instead of a deque: posting and draining — the hot flush
    /// ops — are straight appends/copies, and only the one-at-a-time
    /// `reap` path pays the head bookkeeping.
    cq: Vec<Cqe>,
    cq_head: usize,
}

impl AsyncRing {
    /// Completions ready to reap.
    fn cq_ready(&self) -> usize {
        self.cq.len() - self.cq_head
    }

    /// Resets the backing `Vec` once every ready completion is gone, so
    /// reap-then-flush cycles reuse the buffer instead of growing it.
    fn cq_compact(&mut self) {
        if self.cq_head == self.cq.len() {
            self.cq.clear();
            self.cq_head = 0;
        }
    }
}

impl Default for AsyncRing {
    fn default() -> Self {
        Self {
            depth: DEFAULT_RING_DEPTH,
            sq: Vec::new(),
            cq: Vec::new(),
            cq_head: 0,
        }
    }
}

/// Runtime state of one compartment.
#[derive(Debug, Clone)]
pub struct CompartmentCtx {
    /// The compartment's identity.
    pub id: CompartmentId,
    /// Human-readable name (e.g. `"net"` or joined library names).
    pub name: String,
    /// The VM the compartment executes in (VM 0 for intra-address-space
    /// backends; its own VM for the VM backend).
    pub vm: VmId,
    /// The vCPU the compartment executes on ("Compartments do not share a
    /// single address space anymore, and run on different vCPUs" — VM
    /// backend; a single vCPU otherwise).
    pub vcpu: VcpuId,
    /// The PKRU view the compartment runs with (MPK backends).
    pub pkru: Pkru,
    /// Protection keys owned by this compartment (its private domain).
    pub keys: Vec<ProtKey>,
    /// Software hardening applied to this compartment.
    pub sh: ShSet,
    /// Base of this compartment's private heap region.
    pub heap_base: Addr,
    /// Size in bytes of the private heap region.
    pub heap_size: u64,
}

/// An isolation backend's gate implementation.
///
/// `enter` is executed when control crosses *into* `to` from `from`
/// carrying `arg_bytes` of arguments; `exit` when control returns,
/// carrying `ret_bytes`. Implementations charge their cycle costs on the
/// machine clock and perform the actual domain switch (PKRU write, vCPU
/// handoff, notification, …) so that enforcement matches the mechanism.
/// Gates are stateless behind `&self`: all mutable state — clock, PKRU,
/// doorbells — lives in the `Machine` passed in.
pub trait Gate: fmt::Debug {
    /// The mechanism this gate implements.
    fn mechanism(&self) -> GateMechanism;

    /// Crosses from `from` into `to`.
    fn enter(
        &self,
        m: &mut Machine,
        from: &CompartmentCtx,
        to: &CompartmentCtx,
        arg_bytes: u64,
    ) -> Result<()>;

    /// Returns from `callee` back into `caller`.
    fn exit(
        &self,
        m: &mut Machine,
        callee: &CompartmentCtx,
        caller: &CompartmentCtx,
        ret_bytes: u64,
    ) -> Result<()>;

    /// Like [`Gate::enter`], for call `idx` (0-based) of a batched
    /// crossing into the same target.
    ///
    /// The default forwards to `enter`. Backends override this to elide
    /// *host-side* work that repeats across a batch (doorbell queue
    /// churn, split register writes). Overrides MUST charge exactly the
    /// same simulated cycles, draw exactly the same chaos decisions and
    /// raise exactly the same faults as `enter` would — the differential
    /// suite in `crates/backends/tests/backend_equiv.rs` holds them to
    /// that contract.
    fn enter_nth(
        &self,
        m: &mut Machine,
        from: &CompartmentCtx,
        to: &CompartmentCtx,
        arg_bytes: u64,
        idx: usize,
    ) -> Result<()> {
        let _ = idx;
        self.enter(m, from, to, arg_bytes)
    }

    /// Like [`Gate::exit`], for call `idx` of a batched crossing. Same
    /// equivalence contract as [`Gate::enter_nth`].
    fn exit_nth(
        &self,
        m: &mut Machine,
        callee: &CompartmentCtx,
        caller: &CompartmentCtx,
        ret_bytes: u64,
        idx: usize,
    ) -> Result<()> {
        let _ = idx;
        self.exit(m, callee, caller, ret_bytes)
    }
}

/// The trivial gate: a plain function call. Used within a compartment and
/// by the "no isolation" baseline configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct DirectGate;

impl Gate for DirectGate {
    fn mechanism(&self) -> GateMechanism {
        GateMechanism::DirectCall
    }

    fn enter(
        &self,
        m: &mut Machine,
        _from: &CompartmentCtx,
        _to: &CompartmentCtx,
        _arg_bytes: u64,
    ) -> Result<()> {
        m.charge(m.costs().func_call);
        Ok(())
    }

    fn exit(
        &self,
        _m: &mut Machine,
        _callee: &CompartmentCtx,
        _caller: &CompartmentCtx,
        _ret_bytes: u64,
    ) -> Result<()> {
        Ok(())
    }
}

/// Cumulative gate-crossing statistics (reported by the bench harness).
/// All four describe completed calls: a crossing whose enter or exit
/// faulted is in none of them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GateStats {
    /// Cross-compartment crossings (round trips).
    pub crossings: u64,
    /// Same-compartment calls that compiled down to direct calls.
    pub direct_calls: u64,
    /// Total argument + return bytes moved through gates.
    pub bytes_marshalled: u64,
    /// Cycles spent inside the crossings' enter/exit sequences.
    pub gate_cycles: u64,
}

/// One ordered pair's entry in the runtime's dense gate table.
struct PairSlot {
    /// Index of the pair's gate in [`GateRuntime::gates`].
    gate: usize,
    /// The pair's [`GateTrace`] row under `gate`'s mechanism, once it
    /// has crossed.
    row: Option<usize>,
    /// A live migration swapped `gate` in and the pair has not crossed
    /// since: its next crossing records the `first-crossing` probe.
    swapped: bool,
}

/// The per-image gate dispatcher.
///
/// Holds every compartment's context, the configured backend gate (plus
/// optional per-pair overrides — Figure 2 shows different gate types can
/// coexist in one image), and the current call stack of compartments.
pub struct GateRuntime {
    compartments: Vec<CompartmentCtx>,
    /// The gate of every ordered pair, row-major `n × n`: a crossing
    /// resolves its gate with one index, not a tree walk.
    pairs: Vec<PairSlot>,
    /// Every gate ever installed, append-only: a crossing holds its
    /// gate's index and re-borrows the slab for enter, exit and label, so
    /// it touches no refcount and still exits through the gate it
    /// entered when the pair is re-pointed while it runs.
    gates: Vec<Rc<dyn Gate>>,
    stack: Vec<CompartmentId>,
    /// The one per-crossing ledger; [`GateStats`] is a fold over it.
    trace: GateTrace,
    rings: BTreeMap<(CompartmentId, CompartmentId), AsyncRing>,
    async_stats: AsyncGateStats,
    /// Pairs (normalized `a <= b`) whose backend swap is waiting for
    /// quiescence. Admission onto the pair's submission rings is
    /// stopped while an entry is present.
    draining: BTreeMap<(CompartmentId, CompartmentId), PendingMigration>,
    /// Stack of pairs with a `cross_batch`/flush in progress — those
    /// pairs are not quiescent even when no call is on the compartment
    /// stack (between two calls of a batch).
    active_batches: Vec<(CompartmentId, CompartmentId)>,
    migration_stats: MigrationStats,
}

impl fmt::Debug for GateRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GateRuntime")
            .field("compartments", &self.compartments.len())
            .field("current", &self.current())
            .field("stats", &self.stats())
            .finish()
    }
}

impl GateRuntime {
    /// Creates a runtime over `compartments` using `default_gate` for all
    /// cross-compartment calls, starting execution in `initial`.
    ///
    /// # Panics
    ///
    /// Panics if `compartments` is empty or `initial` is out of range.
    pub fn new(
        compartments: Vec<CompartmentCtx>,
        default_gate: Rc<dyn Gate>,
        initial: CompartmentId,
    ) -> Self {
        assert!(
            !compartments.is_empty(),
            "an image has at least one compartment"
        );
        assert!(
            (initial.0 as usize) < compartments.len(),
            "unknown initial compartment"
        );
        let pairs = (0..compartments.len() * compartments.len())
            .map(|_| PairSlot {
                gate: 0,
                row: None,
                swapped: false,
            })
            .collect();
        Self {
            compartments,
            pairs,
            gates: vec![default_gate],
            stack: vec![initial],
            trace: GateTrace::new(),
            rings: BTreeMap::new(),
            async_stats: AsyncGateStats::default(),
            draining: BTreeMap::new(),
            active_batches: Vec::new(),
            migration_stats: MigrationStats::default(),
        }
    }

    /// Normalized (both-directions) key for a compartment pair.
    fn pair_key(a: CompartmentId, b: CompartmentId) -> (CompartmentId, CompartmentId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Index of the ordered pair in `pairs`. Checked, because an id past
    /// the image would otherwise alias another pair's slot.
    #[inline]
    fn slot(&self, from: CompartmentId, to: CompartmentId) -> usize {
        let n = self.compartments.len();
        let (from, to) = (from.0 as usize, to.0 as usize);
        assert!(from < n && to < n, "unknown compartment");
        from * n + to
    }

    /// Overrides the gate used between `a` and `b` (both directions).
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` names no compartment of this image.
    pub fn set_pair_gate(&mut self, a: CompartmentId, b: CompartmentId, gate: Rc<dyn Gate>) {
        let slots = [self.slot(a, b), self.slot(b, a)];
        self.gates.push(gate);
        for slot in slots {
            self.pairs[slot] = PairSlot {
                gate: self.gates.len() - 1,
                row: None,
                swapped: false,
            };
        }
    }

    /// The gate currently serving the `(a, b)` pair.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` names no compartment of this image.
    #[inline]
    pub fn pair_gate(&self, a: CompartmentId, b: CompartmentId) -> Rc<dyn Gate> {
        Rc::clone(&self.gates[self.pairs[self.slot(a, b)].gate])
    }

    /// The mechanism currently serving the `(a, b)` pair.
    pub fn pair_mechanism(&self, a: CompartmentId, b: CompartmentId) -> GateMechanism {
        self.gates[self.pairs[self.slot(a, b)].gate].mechanism()
    }

    /// The compartment currently executing.
    #[inline]
    pub fn current(&self) -> CompartmentId {
        *self.stack.last().expect("compartment stack never empty")
    }

    /// Context of the current compartment.
    pub fn current_ctx(&self) -> &CompartmentCtx {
        &self.compartments[self.current().0 as usize]
    }

    /// Context of a specific compartment.
    pub fn ctx(&self, id: CompartmentId) -> &CompartmentCtx {
        &self.compartments[id.0 as usize]
    }

    /// Every compartment's context, indexed by id.
    pub fn compartments(&self) -> &[CompartmentCtx] {
        &self.compartments
    }

    /// Number of compartments.
    pub fn len(&self) -> usize {
        self.compartments.len()
    }

    /// Whether the image has a single compartment.
    pub fn is_empty(&self) -> bool {
        self.compartments.is_empty()
    }

    /// Cumulative statistics: the trace rows' always-on counters, summed.
    pub fn stats(&self) -> GateStats {
        let (crossings, bytes_marshalled, gate_cycles) = self.trace.totals();
        GateStats {
            crossings,
            direct_calls: self.trace.direct_calls(),
            bytes_marshalled,
            gate_cycles,
        }
    }

    /// Resets statistics (benchmark warm-up support).
    pub fn reset_stats(&mut self) {
        self.async_stats = AsyncGateStats::default();
        self.migration_stats = MigrationStats::default();
        self.trace.reset();
        for slot in &mut self.pairs {
            slot.row = None;
        }
    }

    /// Cumulative async-ring counters.
    pub fn async_stats(&self) -> AsyncGateStats {
        self.async_stats
    }

    /// Cumulative live-migration counters.
    pub fn migration_stats(&self) -> MigrationStats {
        self.migration_stats
    }

    /// Whether the `(a, b)` pair is draining towards a backend swap.
    pub fn migration_pending(&self, a: CompartmentId, b: CompartmentId) -> bool {
        self.draining.contains_key(&Self::pair_key(a, b))
    }

    /// Requests a live backend swap for the `(a, b)` pair — the
    /// quiescence protocol's entry point.
    ///
    /// If the pair is quiescent (no in-flight sync call has the pair on
    /// the compartment stack, no `cross_batch` or async-ring flush over
    /// the pair is mid-loop), the swap applies immediately and `Ok(true)`
    /// is returned. Otherwise the pair is marked *draining* — SQE
    /// admission onto its rings is refused with [`Fault::GateDraining`]
    /// so a continuous submitter cannot stall quiescence — and the swap
    /// is deferred to the next safe point (end of the in-flight call,
    /// batch, flush, or a [`GateRuntime::resume_in`] context switch);
    /// `Ok(false)` is returned. Either way the pair's queued SQEs are
    /// carried across the swap (they re-issue through the new backend on
    /// the next flush) and ready CQEs stay reapable — the same
    /// completed-prefix machinery a mid-flush `HardeningAbort` uses.
    ///
    /// `reestablish`, when present, runs at swap time to re-establish
    /// backend state (pkey retags via the generation-counter TLB
    /// invalidation, PKRU views, VM-RPC inbox hygiene); the
    /// `flexos-backends` migration layer builds it.
    ///
    /// Span probes: `drain-start` at the request, `drain-end` spanning
    /// the drain window, `swap` at the switch, and `first-crossing` on
    /// the pair's next crossing — all [`SpanKind::Migrate`].
    ///
    /// An unknown `a` or `b` is a typed `HardeningAbort`, recorded
    /// nowhere.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn request_migration(
        &mut self,
        m: &mut Machine,
        a: CompartmentId,
        b: CompartmentId,
        gate: Rc<dyn Gate>,
        reason: MigrationReason,
        reestablish: Option<ReestablishFn>,
    ) -> Result<bool> {
        self.check_target(a)?;
        self.check_target(b)?;
        assert_ne!(a, b, "a gate pair has two distinct compartments");
        let key = Self::pair_key(a, b);
        let now = m.clock().cycles();
        m.span_trace_mut().record(
            self.compartments[key.0 .0 as usize].vcpu.0 as u16,
            SpanKind::Migrate,
            "drain-start",
            key.0 .0,
            key.1 .0,
            now,
            now,
        );
        self.migration_stats.requested += 1;
        let pending = PendingMigration {
            gate,
            reason,
            reestablish,
            requested_at: now,
        };
        if self.migration_safe(key) {
            self.complete_migration(m, key, pending)?;
            Ok(true)
        } else {
            self.migration_stats.deferred += 1;
            // Latest request wins if the pair was already draining; the
            // admission stop carries over either way.
            self.draining.insert(key, pending);
            Ok(false)
        }
    }

    /// Applies every pending migration whose pair became quiescent —
    /// the pump drivers call from their idle loop so a drain completes
    /// even when no further crossings occur. Returns how many swaps
    /// were applied.
    pub fn poll_migrations(&mut self, m: &mut Machine) -> Result<usize> {
        let before = self.migration_stats.completed;
        self.apply_ready_migrations(m)?;
        Ok((self.migration_stats.completed - before) as usize)
    }

    /// A pair is quiescent when no in-flight sync call crosses it (no
    /// adjacent window of the compartment stack is the pair) and no
    /// batch or flush over it is mid-loop.
    fn migration_safe(&self, key: (CompartmentId, CompartmentId)) -> bool {
        !self.active_batches.contains(&key)
            && !self
                .stack
                .windows(2)
                .any(|w| Self::pair_key(w[0], w[1]) == key)
    }

    /// Completes every ready pending migration, in normalized pair
    /// order (deterministic). Invoked from the quiescence safe points:
    /// end of a crossing, each batched call, batch/flush epilogues, and
    /// context switches.
    fn apply_ready_migrations(&mut self, m: &mut Machine) -> Result<()> {
        if self.draining.is_empty() {
            return Ok(());
        }
        let ready: Vec<_> = self
            .draining
            .keys()
            .copied()
            .filter(|k| self.migration_safe(*k))
            .collect();
        for key in ready {
            let pending = self.draining.remove(&key).expect("collected above");
            self.complete_migration(m, key, pending)?;
        }
        Ok(())
    }

    /// The swap itself, run at quiescence: count the descriptors
    /// carried across, re-establish backend state, install the new
    /// gate, and record the migration span probes and counters.
    fn complete_migration(
        &mut self,
        m: &mut Machine,
        key: (CompartmentId, CompartmentId),
        pending: PendingMigration,
    ) -> Result<()> {
        let (a, b) = key;
        // Quiesced rings: pending SQEs stay queued and re-issue through
        // the incoming backend on the next flush; ready CQEs stay
        // reapable (the completed prefix is preserved, like a mid-flush
        // HardeningAbort).
        let mut requeued = 0u64;
        let mut preserved = 0u64;
        for dir in [(a, b), (b, a)] {
            if let Some(r) = self.rings.get(&dir) {
                requeued += r.sq.len() as u64;
                preserved += r.cq_ready() as u64;
            }
        }
        // Re-establish backend state before the swap becomes visible;
        // the pair is quiescent, so nothing simulated interleaves. A
        // failure here aborts the migration (the old gate stays).
        if let Some(re) = &pending.reestablish {
            let cur = self.current();
            re(m, &mut self.compartments, cur)?;
        }
        let now = m.clock().cycles();
        let shard = self.compartments[a.0 as usize].vcpu.0 as u16;
        m.span_trace_mut().record(
            shard,
            SpanKind::Migrate,
            "drain-end",
            a.0,
            b.0,
            pending.requested_at,
            now,
        );
        m.span_trace_mut()
            .record(shard, SpanKind::Migrate, "swap", a.0, b.0, now, now);
        self.set_pair_gate(a, b, pending.gate);
        for slot in [self.slot(a, b), self.slot(b, a)] {
            self.pairs[slot].swapped = true;
        }
        let st = &mut self.migration_stats;
        st.completed += 1;
        st.requeued_sqes += requeued;
        st.preserved_cqes += preserved;
        let drain = now - pending.requested_at;
        st.drain_cycles_total += drain;
        st.drain_cycles_max = st.drain_cycles_max.max(drain);
        match pending.reason {
            MigrationReason::Escalate => st.escalations += 1,
            MigrationReason::Relax => st.relaxations += 1,
            MigrationReason::Manual => {}
        }
        Ok(())
    }

    /// Per-pair/per-mechanism crossing telemetry.
    pub fn trace(&self) -> &GateTrace {
        &self.trace
    }

    /// Refuses a `target` that names no compartment of this image — a
    /// typed fault, never a panic: compartment ids reach the runtime
    /// from callers' tables, and a bad one must not take the image down.
    #[inline]
    fn check_target(&self, target: CompartmentId) -> Result<()> {
        if (target.0 as usize) < self.compartments.len() {
            return Ok(());
        }
        Err(Fault::HardeningAbort {
            mechanism: "gate",
            reason: format!("unknown {target}"),
        })
    }

    /// How a call `from → target` is routed: `None` within one
    /// compartment (FlexOS replaces the placeholder with a plain call at
    /// link time), else the slab index of the pair's gate.
    #[inline]
    fn route(&self, from: CompartmentId, target: CompartmentId) -> Result<Option<usize>> {
        if from == target {
            return Ok(None);
        }
        self.check_target(target)?;
        Ok(Some(self.pairs[self.slot(from, target)].gate))
    }

    /// The gate-call placeholder: runs `f` inside `target`.
    ///
    /// If `target` is the current compartment this is a direct function
    /// call (FlexOS replaces the placeholder with a plain call at link
    /// time). Otherwise the configured gate's `enter` sequence runs, `f`
    /// executes with the target compartment current, and `exit` restores
    /// the caller — including on error paths.
    ///
    /// `arg_bytes`/`ret_bytes` are the marshalled argument and return
    /// sizes ("gates take care of executing the function call in the
    /// foreign compartment, and of copying the return value back").
    pub fn cross<R>(
        &mut self,
        m: &mut Machine,
        target: CompartmentId,
        arg_bytes: u64,
        ret_bytes: u64,
        f: impl FnOnce(&mut Machine, &mut GateRuntime) -> Result<R>,
    ) -> Result<R> {
        let gate = self.route(self.current(), target)?;
        self.cross_one(m, gate, target, (arg_bytes, ret_bytes), None, f)
    }

    /// The one crossing body: every call the runtime issues — a sync
    /// [`GateRuntime::cross`] (`nth` is `None`), call `idx` of a batch or
    /// of a ring flush (`Some(idx)`) — runs exactly this sequence, so the
    /// entry points cannot drift apart in cycles, counters, spans or
    /// fault handling. `gate` is `None` for a same-compartment call,
    /// else the pair's gate as [`GateRuntime::route`] found it, looked
    /// up by the caller so that a batch hoists it out of its loop; a
    /// backend varies the sequence only through its [`Gate`] hooks.
    ///
    /// Error precedence: an enter fault returns before `f` runs; `f`'s
    /// error still runs the exit path and the stats/trace updates; an
    /// exit fault takes precedence over `f`'s result, and a fault from
    /// the migration safe point over both.
    #[inline]
    fn cross_one<R>(
        &mut self,
        m: &mut Machine,
        gate: Option<usize>,
        target: CompartmentId,
        (arg_bytes, ret_bytes): (u64, u64),
        nth: Option<usize>,
        f: impl FnOnce(&mut Machine, &mut GateRuntime) -> Result<R>,
    ) -> Result<R> {
        let Some(gate) = gate else {
            m.charge(m.costs().func_call);
            self.trace.record_direct();
            return f(m, self);
        };
        let from = self.current();
        let t0 = m.clock().cycles();
        {
            let (from_ctx, to_ctx) = (
                &self.compartments[from.0 as usize],
                &self.compartments[target.0 as usize],
            );
            let gate = &*self.gates[gate];
            match nth {
                None => gate.enter(m, from_ctx, to_ctx, arg_bytes)?,
                Some(idx) => gate.enter_nth(m, from_ctx, to_ctx, arg_bytes, idx)?,
            }
        }
        let enter_cycles = m.clock().cycles() - t0;
        self.stack.push(target);

        let result = f(m, self);

        self.stack.pop();
        let t1 = m.clock().cycles();
        let (gate, caller_ctx) = (&*self.gates[gate], &self.compartments[from.0 as usize]);
        {
            let callee_ctx = &self.compartments[target.0 as usize];
            match nth {
                None => gate.exit(m, callee_ctx, caller_ctx, ret_bytes)?,
                Some(idx) => gate.exit_nth(m, callee_ctx, caller_ctx, ret_bytes, idx)?,
            }
        }
        let now = m.clock().cycles();
        let (gate_cycles, bytes) = (enter_cycles + now - t1, arg_bytes + ret_bytes);
        let label = gate.mechanism().label();
        // The crossing's one record — the window [enter, exit], sharded
        // by the caller's plan-determined vCPU (run-queue-invisible) —
        // and its one accumulator update; every other view of it folds
        // from these two.
        let shard = caller_ctx.vcpu.0 as u16;
        m.span_trace_mut()
            .record_gate(shard, label, from.0, target.0, t0, now, gate_cycles, bytes);
        let slot = self.slot(from, target);
        let row = match self.pairs[slot].row {
            Some(row) => row,
            None => *self.pairs[slot]
                .row
                .insert(self.trace.row(label, from.0, target.0)),
        };
        self.trace.record_crossing(row, gate_cycles, bytes);
        if self.pairs[slot].swapped {
            for slot in [slot, self.slot(target, from)] {
                self.pairs[slot].swapped = false;
            }
            let (kind, label) = (SpanKind::Migrate, "first-crossing");
            m.span_trace_mut()
                .record(shard, kind, label, from.0, target.0, t0, now);
        }
        // The end of a crossing is a migration safe point (a batch's own
        // pair stays guarded by `active_batches` until the batch ends).
        if !self.draining.is_empty() {
            self.apply_ready_migrations(m)?;
        }
        result
    }

    /// Vectored gate crossing: runs `calls.len()` calls into `target`,
    /// call `idx` executing `f(m, rt, idx)`.
    ///
    /// The gate lookup is hoisted out of the loop and each call goes
    /// through the backend's [`Gate::enter_nth`]/[`Gate::exit_nth`] batch
    /// hooks, which may skip host-side work that repeats across the
    /// batch. The simulated operations are those of a loop of
    /// [`GateRuntime::cross`] — cycles charged, chaos decisions drawn,
    /// faults raised and trace events recorded are bit-identical — plus
    /// one entry in the per-mechanism batch-size histogram.
    ///
    /// The batch stops at the first call error, which is returned after
    /// that call's exit path has run (same contract as `cross`).
    pub fn cross_batch<R>(
        &mut self,
        m: &mut Machine,
        target: CompartmentId,
        calls: &CallVec,
        mut f: impl FnMut(&mut Machine, &mut GateRuntime, usize) -> Result<R>,
    ) -> Result<Vec<R>> {
        self.cross_batch_until(m, target, calls, &mut f, |_, _, _, _| Ok(true))
    }

    /// [`GateRuntime::cross_batch`] with an inter-call hook.
    ///
    /// `between(m, rt, idx, &r)` runs after call `idx` returned `r` and
    /// its exit path completed — i.e. in the *caller's* compartment,
    /// outside the gate. Consumers use it to apply the work a sequential
    /// driver would do between two crossings (marshalling charges,
    /// per-reply bookkeeping) so the simulated instruction stream is
    /// unchanged, and to stop the batch early (`Ok(false)`) the way a
    /// sequential loop breaks on `WouldBlock` or EOF. The results of all
    /// completed calls, including the stopping one, are returned.
    pub fn cross_batch_until<R>(
        &mut self,
        m: &mut Machine,
        target: CompartmentId,
        calls: &CallVec,
        mut f: impl FnMut(&mut Machine, &mut GateRuntime, usize) -> Result<R>,
        mut between: impl FnMut(&mut Machine, &mut GateRuntime, usize, &R) -> Result<bool>,
    ) -> Result<Vec<R>> {
        let mut out = Vec::with_capacity(calls.len());
        self.cross_each(
            m,
            target,
            calls.len(),
            |idx| calls.get(idx),
            &mut f,
            |m, rt, idx, r| {
                let more = between(m, rt, idx, &r)?;
                out.push(r);
                Ok(more)
            },
        )?;
        Ok(out)
    }

    /// The batch loop behind [`GateRuntime::cross_batch_until`] and
    /// [`GateRuntime::flush_async_until`]: [`GateRuntime::cross_one`]
    /// `len` times over one hoisted gate lookup, generic over where the
    /// marshalling sizes live (`desc(idx)` returns call `idx`'s
    /// `(arg_bytes, ret_bytes)`): a `CallVec` for the sync API, the
    /// submission ring itself for a flush — which therefore never copies
    /// descriptors into a side table. Each completed call's result is
    /// handed to `sink` by value (the sync API collects, a flush posts a
    /// CQE — neither pays for a result buffer it doesn't want); `sink`
    /// returning `Ok(false)` stops the batch after the current call.
    fn cross_each<R>(
        &mut self,
        m: &mut Machine,
        target: CompartmentId,
        len: usize,
        desc: impl Fn(usize) -> (u64, u64),
        mut f: impl FnMut(&mut Machine, &mut GateRuntime, usize) -> Result<R>,
        mut sink: impl FnMut(&mut Machine, &mut GateRuntime, usize, R) -> Result<bool>,
    ) -> Result<()> {
        if len == 0 {
            return Ok(());
        }
        let from = self.current();
        let gate = self.route(from, target)?;
        let label = gate
            .map_or(GateMechanism::DirectCall, |g| self.gates[g].mechanism())
            .label();
        // The whole batch holds the pair non-quiescent — a migration
        // requested from inside any call defers to the batch's end, so
        // the hoisted gate serves every call of the batch.
        if gate.is_some() {
            self.active_batches.push(Self::pair_key(from, target));
        }
        let mut issued: u64 = 0;
        let mut result = Ok(());
        for idx in 0..len {
            issued += 1;
            let call = |m: &mut Machine, rt: &mut GateRuntime| f(m, rt, idx);
            let step = self
                .cross_one(m, gate, target, desc(idx), Some(idx), call)
                .and_then(|r| sink(m, self, idx, r));
            match step {
                Ok(true) => {}
                Ok(false) => break,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        self.trace.record_batch(label, issued);
        if gate.is_some() {
            self.active_batches.pop();
            // The batch boundary is a safe point, even when the batch
            // itself errored out.
            result = result.and(self.apply_ready_migrations(m));
        }
        result
    }

    /// Queues one gate-call descriptor on the `(current → target)`
    /// submission ring — the io_uring-style async entry point.
    ///
    /// Submission is host-side bookkeeping only: nothing is charged on
    /// the simulated clock and no crossing happens until a flush drains
    /// the ring, so the caller genuinely keeps computing while crossing
    /// latency is pending. A full ring returns [`Fault::RingFull`] (the
    /// caller must flush or cancel first) — never a panic.
    pub fn submit(&mut self, target: CompartmentId, sqe: Sqe) -> Result<()> {
        self.check_target(target)?;
        let from = self.current();
        self.check_admission(from, target)?;
        let ring = self.rings.entry((from, target)).or_default();
        if ring.sq.len() >= ring.depth {
            self.async_stats.sq_full += 1;
            return Err(Fault::RingFull {
                ring: "gate-sq",
                depth: ring.depth,
            });
        }
        ring.sq.push(sqe);
        self.async_stats.submitted += 1;
        Ok(())
    }

    /// Queues a whole burst of descriptors with one ring lookup — the
    /// submission-side analogue of the kernel ring's single tail
    /// publication. Descriptors are accepted in order until the ring is
    /// full; the accepted count is returned (callers that must not drop
    /// compare it against `sqes.len()`), so a partial burst is visible,
    /// never silent.
    pub fn submit_many(&mut self, target: CompartmentId, sqes: &[Sqe]) -> Result<usize> {
        self.check_target(target)?;
        let from = self.current();
        self.check_admission(from, target)?;
        let ring = self.rings.entry((from, target)).or_default();
        let room = ring.depth.saturating_sub(ring.sq.len());
        let take = room.min(sqes.len());
        ring.sq.extend_from_slice(&sqes[..take]);
        self.async_stats.submitted += take as u64;
        if take < sqes.len() {
            self.async_stats.sq_full += 1;
        }
        Ok(take)
    }

    /// The quiescence protocol's admission stop: submissions onto a
    /// draining pair's rings are refused so continuous submitters
    /// cannot stall the drain — queued work only ever shrinks while a
    /// migration is pending.
    fn check_admission(&mut self, from: CompartmentId, target: CompartmentId) -> Result<()> {
        if self.draining.is_empty() || !self.draining.contains_key(&Self::pair_key(from, target)) {
            return Ok(());
        }
        self.migration_stats.rejected_submits += 1;
        Err(Fault::GateDraining {
            mechanism: self.pair_mechanism(from, target).label(),
        })
    }

    /// Raises (never lowers) the `(current → target)` ring's slot
    /// capacity so a burst of `depth` submissions fits without flushing.
    pub fn ensure_ring_depth(&mut self, target: CompartmentId, depth: usize) {
        let from = self.current();
        let ring = self.rings.entry((from, target)).or_default();
        ring.depth = ring.depth.max(depth);
    }

    /// Number of descriptors queued but not yet flushed on the
    /// `(current → target)` submission ring.
    pub fn sq_pending(&self, target: CompartmentId) -> usize {
        self.rings
            .get(&(self.current(), target))
            .map_or(0, |r| r.sq.len())
    }

    /// Number of completions ready to reap on the `(current → target)`
    /// completion ring.
    pub fn cq_ready(&self, target: CompartmentId) -> usize {
        self.rings
            .get(&(self.current(), target))
            .map_or(0, AsyncRing::cq_ready)
    }

    /// Pops the oldest completion from the `(current → target)` ring.
    ///
    /// An empty ring returns [`Fault::RingEmpty`] (flush first) — never
    /// a panic, matching io_uring's `-EAGAIN`.
    pub fn reap(&mut self, target: CompartmentId) -> Result<Cqe> {
        let from = self.current();
        let cqe = self.rings.get_mut(&(from, target)).and_then(|r| {
            let cqe = r.cq.get(r.cq_head).copied();
            if cqe.is_some() {
                r.cq_head += 1;
                r.cq_compact();
            }
            cqe
        });
        match cqe {
            Some(cqe) => Ok(cqe),
            None => {
                self.async_stats.cq_empty += 1;
                Err(Fault::RingEmpty { ring: "gate-cq" })
            }
        }
    }

    /// Drains every ready completion into `out`, returning how many were
    /// moved. Never fails: an empty ring is just a zero-length drain.
    pub fn poll_completions(&mut self, target: CompartmentId, out: &mut Vec<Cqe>) -> usize {
        let from = self.current();
        let Some(ring) = self.rings.get_mut(&(from, target)) else {
            return 0;
        };
        let n = ring.cq_ready();
        out.extend_from_slice(&ring.cq[ring.cq_head..]);
        ring.cq.clear();
        ring.cq_head = 0;
        n
    }

    /// Drops all not-yet-flushed submissions on the `(current → target)`
    /// ring (descriptors a failed flush left pending), returning how many
    /// were discarded. Ready completions are untouched.
    pub fn cancel_pending(&mut self, target: CompartmentId) -> usize {
        let from = self.current();
        let Some(ring) = self.rings.get_mut(&(from, target)) else {
            return 0;
        };
        let n = ring.sq.len();
        ring.sq.clear();
        self.async_stats.cancelled += n as u64;
        n
    }

    /// Flushes the `(current → target)` submission ring:
    /// [`GateRuntime::flush_async_until`] with no inter-call hook.
    pub fn flush_async(
        &mut self,
        m: &mut Machine,
        target: CompartmentId,
        f: impl FnMut(&mut Machine, &mut GateRuntime, &Sqe) -> Result<i64>,
    ) -> Result<usize> {
        self.flush_async_until(m, target, f, |_, _, _, _| Ok(true))
    }

    /// Flushes the `(current → target)` submission ring, running `f`
    /// inside the target once per queued descriptor (oldest first) and
    /// posting each successful result to the completion ring.
    ///
    /// The flush runs the batch loop of [`GateRuntime::cross_batch_until`]
    /// over the queued descriptors, so its simulated behaviour is
    /// *identical* to a sequential driver issuing the same calls: cycles
    /// charged, chaos decisions drawn, faults raised and span probes
    /// recorded are all bit-for-bit the same, and the batch histogram is
    /// that of the equivalent `cross_batch`. The backend's batch hooks
    /// elide repeated host-side work (VM-RPC posts one coalesced doorbell
    /// per flush via the hot-page descriptor cache; direct/MPK complete
    /// inline) — the overlap is host-time only.
    ///
    /// `between(m, rt, &sqe, res)` runs after each completion lands, in
    /// the caller's compartment; returning `Ok(false)` stops the flush
    /// early. Descriptor lifecycle on the three non-success paths:
    ///
    /// * **early stop** — descriptors not yet issued stay queued for the
    ///   next flush (or [`GateRuntime::cancel_pending`]);
    /// * **call fault** (e.g. a `HardeningAbort` inside `f`, or an exit
    ///   fault after it) — the faulting descriptor is consumed *without*
    ///   a completion, exactly like the sync path losing the return
    ///   value; descriptors behind it stay queued;
    /// * **enter fault** (e.g. a VM-RPC `GateTimeout` before `f` ran) —
    ///   the descriptor never crossed and stays queued, so the caller
    ///   can retry or cancel.
    ///
    /// Returns the number of completions posted by this flush.
    pub fn flush_async_until(
        &mut self,
        m: &mut Machine,
        target: CompartmentId,
        mut f: impl FnMut(&mut Machine, &mut GateRuntime, &Sqe) -> Result<i64>,
        mut between: impl FnMut(&mut Machine, &mut GateRuntime, &Sqe, i64) -> Result<bool>,
    ) -> Result<usize> {
        let from = self.current();
        // The ring leaves the map for the duration of the flush so `f`
        // and `between` can borrow the runtime freely; the default ring
        // left in its slot catches nested submits to the same pair,
        // merged back below (`mem::take` instead of remove + insert —
        // two tree probes per flush, no rebalancing).
        let Some(slot) = self.rings.get_mut(&(from, target)) else {
            return Ok(0);
        };
        if slot.sq.is_empty() {
            return Ok(0);
        }
        // The pair stays non-quiescent until the ring is merged back:
        // a migration completed mid-flush would otherwise count (and
        // requeue) the placeholder ring instead of the real one. The
        // inner `cross_each` pushes and pops its own guard; this outer
        // one outlives it.
        let guarded = from != target;
        if guarded {
            self.active_batches.push(Self::pair_key(from, target));
        }
        let mut ring = std::mem::take(slot);
        // `idx + 1` descriptors have been issued once `f` runs for `idx`;
        // a fault before `f` (enter path) leaves the descriptor queued.
        let issued = Cell::new(0usize);
        ring.cq_compact();
        let cq_before = ring.cq.len();
        ring.cq.reserve(ring.sq.len());
        let mut result = {
            let sq = ring.sq.as_slice();
            let cq = &mut ring.cq;
            self.cross_each(
                m,
                target,
                sq.len(),
                |idx| {
                    let s = &sq[idx];
                    (s.arg_bytes, s.ret_bytes)
                },
                |m, rt, idx| {
                    issued.set(idx + 1);
                    f(m, rt, &sq[idx])
                },
                |m, rt, idx, res| {
                    let sqe = &sq[idx];
                    cq.push(Cqe {
                        user_data: sqe.user_data,
                        res,
                        span: sqe.span,
                    });
                    between(m, rt, sqe, res)
                },
            )
        };
        // A faulting call is consumed only once it crossed (its `f` ran);
        // keep everything from the first unissued descriptor onwards.
        ring.sq.drain(..issued.get());
        self.async_stats.flushes += 1;
        // Completions that landed before a mid-flush fault stay reapable
        // (the async payoff), so count CQ growth, not the success result.
        let posted = ring.cq.len() - cq_before;
        self.async_stats.completed += posted as u64;
        let slot = self
            .rings
            .get_mut(&(from, target))
            .expect("the flush leaves the ring's slot in place");
        ring.depth = ring.depth.max(slot.depth);
        ring.sq.append(&mut slot.sq);
        ring.cq.extend_from_slice(&slot.cq[slot.cq_head..]);
        *slot = ring;
        if guarded {
            self.active_batches.pop();
            // With the ring back in place the flush boundary is a safe
            // point: a swap here carries the leftover descriptors.
            result = result.and(self.apply_ready_migrations(m));
        }
        result.map(|()| posted)
    }

    /// Restores the current compartment's protection view on the machine.
    ///
    /// The scheduler calls this after a context switch: the incoming
    /// thread resumes in some compartment, and (for MPK backends) its
    /// saved PKRU must be loaded — "the scheduler holds the value of the
    /// PKRU for threads that are not currently running" (paper §3).
    pub fn resume_in(&mut self, m: &mut Machine, id: CompartmentId) -> Result<()> {
        self.check_target(id)?;
        let ctx = &self.compartments[id.0 as usize];
        let tok = m.gate_token();
        let vcpu = ctx.vcpu;
        let pkru = ctx.pkru;
        // Skip the (costed) `wrpkru` when the register already holds the
        // right value — e.g. the VM backend never changes PKRU.
        if m.rdpkru(vcpu) != pkru {
            m.restore_pkru(vcpu, pkru, tok)?;
        }
        self.stack.clear();
        self.stack.push(id);
        // A context switch is a quiescent point for every pair.
        self.apply_ready_migrations(m)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexos_machine::PageFlags;

    fn two_compartments(m: &mut Machine) -> Vec<CompartmentCtx> {
        let heap0 = m
            .alloc_region(VmId(0), 4096, ProtKey(1), PageFlags::RW)
            .unwrap();
        let heap1 = m
            .alloc_region(VmId(0), 4096, ProtKey(2), PageFlags::RW)
            .unwrap();
        vec![
            CompartmentCtx {
                id: CompartmentId(0),
                name: "rest".into(),
                vm: VmId(0),
                vcpu: VcpuId(0),
                pkru: Pkru::ALLOW_ALL,
                keys: vec![ProtKey(1)],
                sh: ShSet::none(),
                heap_base: heap0,
                heap_size: 4096,
            },
            CompartmentCtx {
                id: CompartmentId(1),
                name: "net".into(),
                vm: VmId(0),
                vcpu: VcpuId(0),
                pkru: Pkru::ALLOW_ALL,
                keys: vec![ProtKey(2)],
                sh: ShSet::none(),
                heap_base: heap1,
                heap_size: 4096,
            },
        ]
    }

    fn fresh_rt() -> (Machine, GateRuntime) {
        let mut m = Machine::with_defaults();
        let cpts = two_compartments(&mut m);
        let rt = GateRuntime::new(cpts, Rc::new(DirectGate), CompartmentId(0));
        (m, rt)
    }

    #[test]
    fn same_compartment_cross_is_a_direct_call() {
        let mut m = Machine::with_defaults();
        let cpts = two_compartments(&mut m);
        let mut rt = GateRuntime::new(cpts, Rc::new(DirectGate), CompartmentId(0));
        let before = m.clock().cycles();
        let v = rt
            .cross(&mut m, CompartmentId(0), 16, 8, |_, _| Ok(42))
            .unwrap();
        assert_eq!(v, 42);
        assert_eq!(m.clock().cycles() - before, m.costs().func_call);
        assert_eq!(rt.stats().direct_calls, 1);
        assert_eq!(rt.stats().crossings, 0);
    }

    #[test]
    fn cross_switches_current_and_restores_it() {
        let mut m = Machine::with_defaults();
        let cpts = two_compartments(&mut m);
        let mut rt = GateRuntime::new(cpts, Rc::new(DirectGate), CompartmentId(0));
        rt.cross(&mut m, CompartmentId(1), 0, 0, |m, rt| {
            assert_eq!(rt.current(), CompartmentId(1));
            // Nested crossing back.
            rt.cross(m, CompartmentId(0), 0, 0, |_, rt| {
                assert_eq!(rt.current(), CompartmentId(0));
                Ok(())
            })
        })
        .unwrap();
        assert_eq!(rt.current(), CompartmentId(0));
        assert_eq!(rt.stats().crossings, 2);
    }

    #[test]
    fn cross_restores_caller_on_error() {
        let mut m = Machine::with_defaults();
        let cpts = two_compartments(&mut m);
        let mut rt = GateRuntime::new(cpts, Rc::new(DirectGate), CompartmentId(0));
        let err = rt
            .cross(&mut m, CompartmentId(1), 0, 0, |_, _| {
                Err::<(), _>(Fault::OutOfMemory { requested_pages: 1 })
            })
            .unwrap_err();
        assert!(matches!(err, Fault::OutOfMemory { .. }));
        assert_eq!(rt.current(), CompartmentId(0));
    }

    #[test]
    fn stats_accumulate_bytes() {
        let mut m = Machine::with_defaults();
        let cpts = two_compartments(&mut m);
        let mut rt = GateRuntime::new(cpts, Rc::new(DirectGate), CompartmentId(0));
        rt.cross(&mut m, CompartmentId(1), 100, 28, |_, _| Ok(()))
            .unwrap();
        assert_eq!(rt.stats().bytes_marshalled, 128);
    }

    #[test]
    fn mechanism_stack_policy() {
        assert!(GateMechanism::MpkSharedStack.stacks_shared());
        assert!(!GateMechanism::MpkSwitchedStack.stacks_shared());
        assert!(!GateMechanism::VmRpc.stacks_shared());
    }

    #[test]
    fn callvec_builders_agree() {
        let mut v = CallVec::new();
        v.push(16, 8).push_uniform(2, 16, 8);
        assert_eq!(v, CallVec::uniform(3, 16, 8));
        assert_eq!(v.len(), 3);
        assert_eq!(v.get(2), (16, 8));
        v.clear();
        assert!(v.is_empty());
    }

    /// The batch contract, against the reference it is defined by: a
    /// sequential loop of the public `cross` — for a real crossing and
    /// for a same-compartment (direct-call) batch, with a body that
    /// charges.
    #[test]
    fn batch_equals_sequential_crossings() {
        let mut calls = CallVec::new();
        calls
            .push(16, 8)
            .push(100, 28)
            .push(0, 0)
            .push_uniform(2, 32, 8);
        for target in [CompartmentId(0), CompartmentId(1)] {
            let (mut m1, mut rt1) = fresh_rt();
            let batched = rt1
                .cross_batch(&mut m1, target, &calls, |m, _, idx| {
                    m.charge(10 + idx as u64);
                    Ok(idx)
                })
                .unwrap();

            let (mut m2, mut rt2) = fresh_rt();
            let mut looped = Vec::new();
            for (idx, &(a, r)) in calls.as_slice().iter().enumerate() {
                looped.push(
                    rt2.cross(&mut m2, target, a, r, |m, _| {
                        m.charge(10 + idx as u64);
                        Ok(idx)
                    })
                    .unwrap(),
                );
            }
            assert_eq!(batched, looped, "{target}");
            assert_eq!(m1.clock().cycles(), m2.clock().cycles(), "{target}");
            assert_eq!(rt1.stats(), rt2.stats(), "{target}");
            let st = rt1.stats();
            let want = if target == CompartmentId(1) {
                (5, 0, 232)
            } else {
                (0, 5, 0)
            };
            assert_eq!(
                (st.crossings, st.direct_calls, st.bytes_marshalled),
                want,
                "{target}"
            );
        }
    }

    #[test]
    fn batch_stops_at_first_error_and_restores_caller() {
        let (mut m, mut rt) = fresh_rt();
        let err = rt
            .cross_batch(
                &mut m,
                CompartmentId(1),
                &CallVec::uniform(4, 8, 8),
                |_, _, idx| {
                    if idx == 2 {
                        Err(Fault::OutOfMemory { requested_pages: 1 })
                    } else {
                        Ok(idx)
                    }
                },
            )
            .unwrap_err();
        assert!(matches!(err, Fault::OutOfMemory { .. }));
        assert_eq!(rt.current(), CompartmentId(0));
        // The failing call still completed its exit path, like `cross`.
        assert_eq!(rt.stats().crossings, 3);
    }

    #[test]
    fn batch_until_early_stop_keeps_stopping_result() {
        let (mut m, mut rt) = fresh_rt();
        let out = rt
            .cross_batch_until(
                &mut m,
                CompartmentId(1),
                &CallVec::uniform(8, 4, 4),
                |_, _, idx| Ok(idx),
                |_, _, idx, _| Ok(idx < 2),
            )
            .unwrap();
        assert_eq!(out, vec![0, 1, 2]);
        assert_eq!(rt.stats().crossings, 3);
        assert_eq!(rt.current(), CompartmentId(0));
    }

    #[cfg(not(feature = "trace-off"))]
    #[test]
    fn batch_records_size_histogram_per_mechanism() {
        let mut m = Machine::with_defaults();
        let cpts = two_compartments(&mut m);
        let mut rt = GateRuntime::new(cpts, Rc::new(DirectGate), CompartmentId(0));
        rt.cross_batch(
            &mut m,
            CompartmentId(1),
            &CallVec::uniform(4, 0, 0),
            |_, _, _| Ok(()),
        )
        .unwrap();
        rt.cross_batch(
            &mut m,
            CompartmentId(0),
            &CallVec::uniform(2, 0, 0),
            |_, _, _| Ok(()),
        )
        .unwrap();
        // Empty batches leave no histogram entry.
        rt.cross_batch(&mut m, CompartmentId(1), &CallVec::new(), |_, _, _| Ok(()))
            .unwrap();
        let cross = rt
            .trace()
            .batch_hist(GateMechanism::DirectCall.label())
            .unwrap();
        // Both batches used the direct-call label (DirectGate is the
        // default pair gate here too), so sizes 4 and 2 land together.
        assert_eq!(cross.count(), 2);
        assert_eq!(cross.sum(), 6);
    }

    #[test]
    fn nested_batches_restore_compartments() {
        let mut m = Machine::with_defaults();
        let cpts = two_compartments(&mut m);
        let mut rt = GateRuntime::new(cpts, Rc::new(DirectGate), CompartmentId(0));
        rt.cross_batch(
            &mut m,
            CompartmentId(1),
            &CallVec::uniform(2, 0, 0),
            |m, rt, _| {
                assert_eq!(rt.current(), CompartmentId(1));
                let inner = rt.cross_batch(
                    m,
                    CompartmentId(0),
                    &CallVec::uniform(3, 0, 0),
                    |_, rt, i| {
                        assert_eq!(rt.current(), CompartmentId(0));
                        Ok(i)
                    },
                )?;
                assert_eq!(inner, vec![0, 1, 2]);
                assert_eq!(rt.current(), CompartmentId(1));
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(rt.current(), CompartmentId(0));
        assert_eq!(rt.stats().crossings, 8);
    }

    #[test]
    fn async_submit_flush_reap_roundtrip() {
        let (mut m, mut rt) = fresh_rt();
        let t = CompartmentId(1);
        for i in 0..3u64 {
            rt.submit(t, Sqe::new(16, 8, 0xbeef + i).with_span(SpanId(7 + i)))
                .unwrap();
        }
        assert_eq!(rt.sq_pending(t), 3);
        assert_eq!(rt.cq_ready(t), 0);
        // Nothing simulated happens at submit time.
        assert_eq!(m.clock().cycles(), 0);

        let posted = rt
            .flush_async(&mut m, t, |m, _, sqe| {
                m.charge(5);
                Ok((sqe.user_data - 0xbeef) as i64 * 10)
            })
            .unwrap();
        assert_eq!(posted, 3);
        assert_eq!(rt.sq_pending(t), 0);
        assert_eq!(rt.cq_ready(t), 3);

        for i in 0..3u64 {
            let cqe = rt.reap(t).unwrap();
            assert_eq!(cqe.user_data, 0xbeef + i);
            assert_eq!(cqe.res, i as i64 * 10);
            assert_eq!(cqe.span, SpanId(7 + i));
        }
        let stats = rt.async_stats();
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.flushes, 1);
    }

    /// The PR-5 invariant extended to async: a submit+flush must charge
    /// the byte-identical simulated cycles (and gate stats) as the
    /// sequential loop of `cross` it replaces.
    #[test]
    fn async_flush_is_cycle_identical_to_sync_loop() {
        let run_sync = || {
            let (mut m, mut rt) = fresh_rt();
            let mut out = Vec::new();
            for idx in 0..5u64 {
                out.push(
                    rt.cross(&mut m, CompartmentId(1), 32, 8, |m, _| {
                        m.charge(10 + idx);
                        Ok(idx as i64)
                    })
                    .unwrap(),
                );
            }
            (m.clock().cycles(), rt.stats(), out)
        };
        let run_async = || {
            let (mut m, mut rt) = fresh_rt();
            for idx in 0..5u64 {
                rt.submit(CompartmentId(1), Sqe::new(32, 8, idx)).unwrap();
            }
            rt.flush_async(&mut m, CompartmentId(1), |m, _, sqe| {
                m.charge(10 + sqe.user_data);
                Ok(sqe.user_data as i64)
            })
            .unwrap();
            let mut cqes = Vec::new();
            rt.poll_completions(CompartmentId(1), &mut cqes);
            let out: Vec<i64> = cqes.iter().map(|c| c.res).collect();
            (m.clock().cycles(), rt.stats(), out)
        };
        assert_eq!(run_sync(), run_async(), "flush diverged from the loop");
    }

    #[test]
    fn async_submit_onto_full_sq_is_a_typed_error() {
        let (_m, mut rt) = fresh_rt();
        let t = CompartmentId(1);
        for i in 0..DEFAULT_RING_DEPTH as u64 {
            rt.submit(t, Sqe::new(0, 0, i)).unwrap();
        }
        let err = rt.submit(t, Sqe::new(0, 0, 99)).unwrap_err();
        assert!(matches!(
            err,
            Fault::RingFull {
                ring: "gate-sq",
                depth: DEFAULT_RING_DEPTH
            }
        ));
        assert_eq!(rt.async_stats().sq_full, 1);
        // Raising the depth unblocks the caller.
        rt.ensure_ring_depth(t, DEFAULT_RING_DEPTH + 1);
        rt.submit(t, Sqe::new(0, 0, 99)).unwrap();
    }

    #[test]
    fn async_submit_many_fills_to_capacity_and_reports_the_partial() {
        let (mut m, mut rt) = fresh_rt();
        let t = CompartmentId(1);
        let burst: Vec<Sqe> = (0..DEFAULT_RING_DEPTH as u64 + 3)
            .map(|i| Sqe::new(8, 8, i))
            .collect();
        // Three descriptors don't fit: the burst is truncated, visibly.
        let accepted = rt.submit_many(t, &burst).unwrap();
        assert_eq!(accepted, DEFAULT_RING_DEPTH);
        assert_eq!(rt.sq_pending(t), DEFAULT_RING_DEPTH);
        assert_eq!(rt.async_stats().submitted, DEFAULT_RING_DEPTH as u64);
        assert_eq!(rt.async_stats().sq_full, 1);
        // A full ring accepts nothing more, and an empty burst is a no-op.
        assert_eq!(rt.submit_many(t, &burst[accepted..]).unwrap(), 0);
        assert_eq!(rt.async_stats().sq_full, 2);
        assert_eq!(rt.submit_many(t, &[]).unwrap(), 0);
        assert_eq!(rt.async_stats().sq_full, 2);
        // Submission order is the burst's order, as a flush observes it.
        rt.flush_async(&mut m, t, |_, _, sqe| Ok(sqe.user_data as i64))
            .unwrap();
        let mut cqes = Vec::new();
        rt.poll_completions(t, &mut cqes);
        let order: Vec<u64> = cqes.iter().map(|c| c.user_data).collect();
        assert_eq!(order, (0..DEFAULT_RING_DEPTH as u64).collect::<Vec<_>>());
    }

    #[test]
    fn async_reap_from_empty_cq_is_a_typed_error() {
        let (_m, mut rt) = fresh_rt();
        let err = rt.reap(CompartmentId(1)).unwrap_err();
        assert!(matches!(err, Fault::RingEmpty { ring: "gate-cq" }));
        assert_eq!(rt.async_stats().cq_empty, 1);
        let mut out = Vec::new();
        assert_eq!(rt.poll_completions(CompartmentId(1), &mut out), 0);
    }

    /// Satellite: completions that landed before a mid-flush
    /// `HardeningAbort` stay reapable; the faulting descriptor is
    /// consumed without a completion; descriptors behind it stay queued.
    #[test]
    fn async_fault_consumes_only_the_faulting_descriptor() {
        let (mut m, mut rt) = fresh_rt();
        let t = CompartmentId(1);
        for i in 0..4u64 {
            rt.submit(t, Sqe::new(8, 8, i)).unwrap();
        }
        let err = rt
            .flush_async(&mut m, t, |_, _, sqe| {
                if sqe.user_data == 2 {
                    Err(Fault::HardeningAbort {
                        mechanism: "async-test",
                        reason: "synthetic".into(),
                    })
                } else {
                    Ok(sqe.user_data as i64)
                }
            })
            .unwrap_err();
        assert!(matches!(err, Fault::HardeningAbort { .. }));
        assert_eq!(rt.current(), CompartmentId(0));
        // Calls 0 and 1 completed; 2 was consumed by the fault; 3 is
        // still pending and can be cancelled.
        assert_eq!(rt.cq_ready(t), 2);
        assert_eq!(rt.reap(t).unwrap().user_data, 0);
        assert_eq!(rt.reap(t).unwrap().user_data, 1);
        assert_eq!(rt.sq_pending(t), 1);
        assert_eq!(rt.cancel_pending(t), 1);
        assert_eq!(rt.sq_pending(t), 0);
        assert_eq!(rt.async_stats().completed, 2);
        assert_eq!(rt.async_stats().cancelled, 1);
    }

    #[test]
    fn async_early_stop_keeps_remainder_pending() {
        let (mut m, mut rt) = fresh_rt();
        let t = CompartmentId(1);
        for i in 0..8u64 {
            rt.submit(t, Sqe::new(4, 4, i)).unwrap();
        }
        let posted = rt
            .flush_async_until(
                &mut m,
                t,
                |_, _, sqe| Ok(sqe.user_data as i64),
                |_, _, sqe, _| Ok(sqe.user_data < 2),
            )
            .unwrap();
        // The stopping call's completion is posted, like `cross_batch`.
        assert_eq!(posted, 3);
        assert_eq!(rt.sq_pending(t), 5);
        // A second flush drains the survivors in order.
        let posted = rt
            .flush_async(&mut m, t, |_, _, sqe| Ok(sqe.user_data as i64))
            .unwrap();
        assert_eq!(posted, 5);
        let mut cqes = Vec::new();
        rt.poll_completions(t, &mut cqes);
        let order: Vec<u64> = cqes.iter().map(|c| c.user_data).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn async_nested_submit_during_flush_is_merged_behind_survivors() {
        let (mut m, mut rt) = fresh_rt();
        let t = CompartmentId(1);
        for i in 0..3u64 {
            rt.submit(t, Sqe::new(0, 0, i)).unwrap();
        }
        // The between hook runs in the caller's compartment, so a submit
        // there targets the same (caller → t) ring mid-flush.
        rt.flush_async_until(
            &mut m,
            t,
            |_, _, sqe| Ok(sqe.user_data as i64),
            |_, rt, sqe, _| {
                if sqe.user_data == 0 {
                    rt.submit(t, Sqe::new(0, 0, 100))?;
                }
                Ok(sqe.user_data < 1)
            },
        )
        .unwrap();
        // Survivor (2) queues ahead of the nested submission (100).
        assert_eq!(rt.sq_pending(t), 2);
        rt.flush_async(&mut m, t, |_, _, sqe| Ok(sqe.user_data as i64))
            .unwrap();
        let mut cqes = Vec::new();
        rt.poll_completions(t, &mut cqes);
        let order: Vec<u64> = cqes.iter().map(|c| c.user_data).collect();
        assert_eq!(order, vec![0, 1, 2, 100]);
    }

    /// A distinguishable gate for migration tests: flat per-leg cost,
    /// advertised as the MPK shared-stack mechanism.
    #[derive(Debug)]
    struct CostedGate {
        mech: GateMechanism,
        cost: u64,
    }

    impl Gate for CostedGate {
        fn mechanism(&self) -> GateMechanism {
            self.mech
        }
        fn enter(
            &self,
            m: &mut Machine,
            _from: &CompartmentCtx,
            _to: &CompartmentCtx,
            _arg_bytes: u64,
        ) -> Result<()> {
            m.charge(self.cost);
            Ok(())
        }
        fn exit(
            &self,
            m: &mut Machine,
            _callee: &CompartmentCtx,
            _caller: &CompartmentCtx,
            _ret_bytes: u64,
        ) -> Result<()> {
            m.charge(self.cost);
            Ok(())
        }
    }

    fn mpk_gate() -> Rc<dyn Gate> {
        Rc::new(CostedGate {
            mech: GateMechanism::MpkSharedStack,
            cost: 30,
        })
    }

    /// Records which [`Gate`] hook served each leg of each crossing.
    #[derive(Debug, Default)]
    struct SpyGate {
        legs: std::cell::RefCell<Vec<(&'static str, Option<usize>)>>,
    }

    impl SpyGate {
        fn leg(&self, leg: &'static str, nth: Option<usize>) -> Result<()> {
            self.legs.borrow_mut().push((leg, nth));
            Ok(())
        }
    }

    impl Gate for SpyGate {
        fn mechanism(&self) -> GateMechanism {
            GateMechanism::VmRpc
        }
        fn enter(
            &self,
            _: &mut Machine,
            _: &CompartmentCtx,
            _: &CompartmentCtx,
            _: u64,
        ) -> Result<()> {
            self.leg("enter", None)
        }
        fn exit(
            &self,
            _: &mut Machine,
            _: &CompartmentCtx,
            _: &CompartmentCtx,
            _: u64,
        ) -> Result<()> {
            self.leg("exit", None)
        }
        fn enter_nth(
            &self,
            _: &mut Machine,
            _: &CompartmentCtx,
            _: &CompartmentCtx,
            _: u64,
            idx: usize,
        ) -> Result<()> {
            self.leg("enter", Some(idx))
        }
        fn exit_nth(
            &self,
            _: &mut Machine,
            _: &CompartmentCtx,
            _: &CompartmentCtx,
            _: u64,
            idx: usize,
        ) -> Result<()> {
            self.leg("exit", Some(idx))
        }
    }

    /// The entry points differ in one thing only: which `Gate` hooks the
    /// shared body hands the two legs to. The simulation cannot see that
    /// (the `_nth` hooks are contracted to be cycle-identical), so it is
    /// pinned here: a sync call takes the plain hooks, call `idx` of a
    /// batch or of a ring flush takes the `_nth` hooks with its index.
    #[test]
    fn sync_calls_take_the_plain_hooks_batches_and_flushes_the_nth_ones() {
        let (mut m, mut rt) = fresh_rt();
        let t = CompartmentId(1);
        let spy = Rc::new(SpyGate::default());
        rt.set_pair_gate(CompartmentId(0), t, spy.clone());
        let legs = || legs_of(&spy);
        let nth = vec![
            ("enter", Some(0)),
            ("exit", Some(0)),
            ("enter", Some(1)),
            ("exit", Some(1)),
        ];

        rt.cross(&mut m, t, 8, 8, |_, _| Ok(())).unwrap();
        assert_eq!(legs(), vec![("enter", None), ("exit", None)]);

        rt.cross_batch(&mut m, t, &CallVec::uniform(2, 8, 8), |_, _, _| Ok(()))
            .unwrap();
        assert_eq!(legs(), nth);

        rt.submit_many(t, &[Sqe::new(8, 8, 0), Sqe::new(8, 8, 1)])
            .unwrap();
        rt.flush_async(&mut m, t, |_, _, _| Ok(0)).unwrap();
        assert_eq!(legs(), nth);
    }

    /// Two spies on the `(0, 1)` pair: `old` installed, `new` at hand.
    fn two_spies(rt: &mut GateRuntime) -> (Rc<SpyGate>, Rc<SpyGate>) {
        let old = Rc::new(SpyGate::default());
        rt.set_pair_gate(CompartmentId(0), CompartmentId(1), old.clone());
        (old, Rc::new(SpyGate::default()))
    }

    fn legs_of(spy: &SpyGate) -> Vec<(&'static str, Option<usize>)> {
        spy.legs.take()
    }

    /// The gate-identity contract: a crossing exits through the gate it
    /// entered, even when the pair is re-pointed while it runs; the next
    /// crossing takes the new gate for both legs.
    #[test]
    fn a_sync_crossing_exits_through_the_gate_it_entered() {
        let (mut m, mut rt) = fresh_rt();
        let (a, b) = (CompartmentId(0), CompartmentId(1));
        let (old, new) = two_spies(&mut rt);
        rt.cross(&mut m, b, 8, 8, |_, rt| {
            rt.set_pair_gate(a, b, new.clone());
            assert!(Rc::ptr_eq(
                &rt.pair_gate(a, b),
                &(new.clone() as Rc<dyn Gate>)
            ));
            Ok(())
        })
        .unwrap();
        assert_eq!(legs_of(&old), vec![("enter", None), ("exit", None)]);
        assert_eq!(legs_of(&new), vec![]);
        rt.cross(&mut m, b, 8, 8, |_, _| Ok(())).unwrap();
        assert_eq!(legs_of(&old), vec![]);
        assert_eq!(legs_of(&new), vec![("enter", None), ("exit", None)]);
    }

    /// The sync twin of `migration_mid_batch_defers_to_the_batch_end`, by
    /// gate identity (`migration_mid_call_defers_to_the_crossing_end`
    /// pins the counters): a migration requested from inside a sync
    /// crossing over its own pair defers to that crossing's end, which
    /// therefore still exits through the outgoing gate.
    #[test]
    fn migration_mid_sync_call_exits_through_the_outgoing_gate() {
        let (mut m, mut rt) = fresh_rt();
        let (a, b) = (CompartmentId(0), CompartmentId(1));
        let (old, new) = two_spies(&mut rt);
        rt.cross(&mut m, b, 8, 8, |m, rt| {
            let applied =
                rt.request_migration(m, a, b, new.clone(), MigrationReason::Manual, None)?;
            assert!(!applied, "pair is on the call stack; must defer");
            assert!(Rc::ptr_eq(
                &rt.pair_gate(a, b),
                &(old.clone() as Rc<dyn Gate>)
            ));
            Ok(())
        })
        .unwrap();
        assert!(!rt.migration_pending(a, b));
        assert_eq!(legs_of(&old), vec![("enter", None), ("exit", None)]);
        rt.cross(&mut m, b, 8, 8, |_, _| Ok(())).unwrap();
        assert_eq!(legs_of(&old), vec![]);
        assert_eq!(legs_of(&new), vec![("enter", None), ("exit", None)]);
    }

    #[test]
    fn isolation_rank_orders_the_ladder() {
        use GateMechanism::*;
        let ladder = [DirectCall, MpkSharedStack, MpkSwitchedStack, Cheri, VmRpc];
        for w in ladder.windows(2) {
            assert!(w[0].isolation_rank() < w[1].isolation_rank());
        }
    }

    #[test]
    fn quiescent_migration_applies_immediately() {
        let (mut m, mut rt) = fresh_rt();
        let (a, b) = (CompartmentId(0), CompartmentId(1));
        assert_eq!(rt.pair_mechanism(a, b), GateMechanism::DirectCall);
        let applied = rt
            .request_migration(&mut m, a, b, mpk_gate(), MigrationReason::Manual, None)
            .unwrap();
        assert!(applied);
        assert!(!rt.migration_pending(a, b));
        assert_eq!(rt.pair_mechanism(a, b), GateMechanism::MpkSharedStack);
        let st = rt.migration_stats();
        assert_eq!((st.requested, st.completed, st.deferred), (1, 1, 0));

        // The next crossing runs through the new backend and records the
        // first-crossing probe.
        rt.cross(&mut m, b, 8, 8, |_, _| Ok(())).unwrap();
        let labels: Vec<&str> = m
            .span_trace()
            .merged_events()
            .iter()
            .filter(|(_, _, ev)| ev.kind == SpanKind::Migrate)
            .map(|(_, _, ev)| ev.label)
            .collect();
        if cfg!(not(feature = "trace-off")) {
            assert_eq!(
                labels,
                vec!["drain-start", "drain-end", "swap", "first-crossing"]
            );
        }
    }

    #[test]
    fn migration_mid_call_defers_to_the_crossing_end() {
        let (mut m, mut rt) = fresh_rt();
        let (a, b) = (CompartmentId(0), CompartmentId(1));
        rt.cross(&mut m, b, 0, 0, |m, rt| {
            let applied =
                rt.request_migration(m, a, b, mpk_gate(), MigrationReason::Escalate, None)?;
            assert!(!applied, "pair is on the call stack; must defer");
            assert!(rt.migration_pending(a, b));
            // The swap stays invisible while the call is in flight.
            assert_eq!(rt.pair_mechanism(a, b), GateMechanism::DirectCall);
            // Simulated work between the request and the safe point makes
            // the drain window observable in the counters.
            m.charge(100);
            Ok(())
        })
        .unwrap();
        // The crossing's epilogue was the safe point.
        assert!(!rt.migration_pending(a, b));
        assert_eq!(rt.pair_mechanism(a, b), GateMechanism::MpkSharedStack);
        let st = rt.migration_stats();
        assert_eq!((st.deferred, st.completed, st.escalations), (1, 1, 1));
        assert!(st.drain_cycles_max > 0);
    }

    #[test]
    fn migration_mid_batch_defers_to_the_batch_end() {
        let (mut m, mut rt) = fresh_rt();
        let (a, b) = (CompartmentId(0), CompartmentId(1));
        rt.cross_batch(&mut m, b, &CallVec::uniform(3, 4, 4), |m, rt, idx| {
            if idx == 1 {
                let applied =
                    rt.request_migration(m, a, b, mpk_gate(), MigrationReason::Relax, None)?;
                assert!(!applied, "mid-batch request must defer");
            }
            // The hoisted gate serves the whole batch.
            assert_eq!(rt.pair_mechanism(a, b), GateMechanism::DirectCall);
            Ok(())
        })
        .unwrap();
        assert!(!rt.migration_pending(a, b));
        assert_eq!(rt.pair_mechanism(a, b), GateMechanism::MpkSharedStack);
        assert_eq!(rt.migration_stats().relaxations, 1);
    }

    #[test]
    fn submissions_onto_a_draining_pair_are_refused() {
        let (mut m, mut rt) = fresh_rt();
        let (a, b) = (CompartmentId(0), CompartmentId(1));
        rt.cross(&mut m, b, 0, 0, |m, rt| {
            rt.request_migration(m, a, b, mpk_gate(), MigrationReason::Manual, None)?;
            // Admission stop: the drain only ever shrinks queued work.
            let err = rt.submit(a, Sqe::new(4, 4, 7)).unwrap_err();
            assert!(matches!(
                err,
                Fault::GateDraining {
                    mechanism: "function call"
                }
            ));
            assert!(!err.is_protection_fault());
            let err = rt.submit_many(a, &[Sqe::new(4, 4, 8)]).unwrap_err();
            assert!(matches!(err, Fault::GateDraining { .. }));
            Ok(())
        })
        .unwrap();
        assert_eq!(rt.migration_stats().rejected_submits, 2);
        // Post-swap the pair admits again.
        rt.cross(&mut m, b, 0, 0, |_, rt| {
            rt.submit(a, Sqe::new(4, 4, 9))?;
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn swap_requeues_pending_sqes_and_preserves_ready_cqes() {
        let (mut m, mut rt) = fresh_rt();
        let (a, b) = (CompartmentId(0), CompartmentId(1));
        for i in 0..4u64 {
            rt.submit(b, Sqe::new(4, 4, i)).unwrap();
        }
        // Complete the first two, keep two queued.
        rt.flush_async_until(
            &mut m,
            b,
            |_, _, sqe| Ok(sqe.user_data as i64),
            |_, _, sqe, _| Ok(sqe.user_data < 1),
        )
        .unwrap();
        assert_eq!((rt.sq_pending(b), rt.cq_ready(b)), (2, 2));

        let applied = rt
            .request_migration(&mut m, a, b, mpk_gate(), MigrationReason::Manual, None)
            .unwrap();
        assert!(applied);
        let st = rt.migration_stats();
        assert_eq!((st.requeued_sqes, st.preserved_cqes), (2, 2));
        // Completed prefix reaps; survivors re-issue via the new backend.
        assert_eq!(rt.reap(b).unwrap().user_data, 0);
        assert_eq!(rt.reap(b).unwrap().user_data, 1);
        let before = m.clock().cycles();
        rt.flush_async(&mut m, b, |_, _, sqe| Ok(sqe.user_data as i64))
            .unwrap();
        assert!(m.clock().cycles() > before, "new gate charges crossings");
        let mut cqes = Vec::new();
        rt.poll_completions(b, &mut cqes);
        let order: Vec<u64> = cqes.iter().map(|c| c.user_data).collect();
        assert_eq!(order, vec![2, 3]);
    }

    #[test]
    fn reestablish_failure_aborts_the_swap() {
        let (mut m, mut rt) = fresh_rt();
        let (a, b) = (CompartmentId(0), CompartmentId(1));
        let re: ReestablishFn = Rc::new(|_, _, _| Err(Fault::OutOfMemory { requested_pages: 1 }));
        let err = rt
            .request_migration(&mut m, a, b, mpk_gate(), MigrationReason::Manual, Some(re))
            .unwrap_err();
        assert!(matches!(err, Fault::OutOfMemory { .. }));
        // The old gate stays installed and the pair is not stuck draining.
        assert_eq!(rt.pair_mechanism(a, b), GateMechanism::DirectCall);
        assert!(!rt.migration_pending(a, b));
        assert_eq!(rt.migration_stats().completed, 0);
    }

    #[test]
    fn context_switch_is_a_quiescent_point() {
        let (mut m, mut rt) = fresh_rt();
        let (a, b) = (CompartmentId(0), CompartmentId(1));
        // Defer a swap, then resume instead of crossing again.
        rt.cross(&mut m, b, 0, 0, |m, rt| {
            rt.request_migration(m, a, b, mpk_gate(), MigrationReason::Manual, None)?;
            Ok(())
        })
        .unwrap();
        // Already applied at the crossing end; poll is then a no-op.
        assert_eq!(rt.poll_migrations(&mut m).unwrap(), 0);
        assert_eq!(rt.pair_mechanism(a, b), GateMechanism::MpkSharedStack);
        rt.resume_in(&mut m, a).unwrap();
        assert_eq!(rt.current(), a);
    }

    /// The no-panic boundary: an out-of-range `CompartmentId` through
    /// any entry point is a typed `HardeningAbort` that changed nothing
    /// — not the current compartment, not the clock, no ring, no
    /// counter, no pending migration.
    #[test]
    fn unknown_compartment_is_a_typed_error_at_every_entry_point() {
        let (mut m, mut rt) = fresh_rt();
        let (a, bad) = (CompartmentId(0), CompartmentId(7));
        let unknown = |r: Result<()>| match r {
            Err(Fault::HardeningAbort {
                mechanism: "gate",
                reason,
            }) => assert_eq!(reason, "unknown compartment7"),
            other => panic!("expected the gate's typed refusal, got {other:?}"),
        };
        let calls = CallVec::uniform(2, 8, 8);
        unknown(rt.cross(&mut m, bad, 8, 8, |_, _| -> Result<()> {
            unreachable!("the body must not run")
        }));
        unknown(
            rt.cross_batch(&mut m, bad, &calls, |_, _, _| -> Result<()> {
                unreachable!("the body must not run")
            })
            .map(drop),
        );
        unknown(rt.submit(bad, Sqe::new(8, 8, 0)));
        unknown(rt.submit_many(bad, &[Sqe::new(8, 8, 0)]).map(drop));
        for (x, y) in [(a, bad), (bad, a)] {
            unknown(
                rt.request_migration(&mut m, x, y, mpk_gate(), MigrationReason::Manual, None)
                    .map(drop),
            );
        }
        unknown(rt.resume_in(&mut m, bad));
        // Nothing to flush, reap or cancel either.
        assert_eq!(rt.flush_async(&mut m, bad, |_, _, _| Ok(0)).unwrap(), 0);
        assert_eq!(rt.cancel_pending(bad), 0);

        assert_eq!(rt.current(), a);
        assert_eq!(m.clock().cycles(), 0, "nothing was charged");
        assert!(rt.rings.is_empty(), "no ring was created");
        assert_eq!(rt.stats(), GateStats::default());
        assert_eq!(rt.async_stats(), AsyncGateStats::default());
        assert_eq!(rt.migration_stats(), MigrationStats::default());
        assert!(rt.trace().batch_hist("function call").is_none());
        assert!(m.span_trace().merged_events().is_empty());
    }
}
