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

use crate::build::BackendChoice;
use crate::spec::transform::ShSet;
use flexos_machine::{Addr, Fault, Machine, Pkru, ProtKey, Result, VcpuId, VmId};
use flexos_trace::{GateTrace, Label, SpanId, SpanKind};
use std::cell::Cell;
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

    /// Number of calls in the batch.
    pub fn len(&self) -> usize {
        self.calls.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.calls.is_empty()
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
///
/// These two methods are a backend's whole crossing sequence: sync
/// calls, batches and ring flushes all run them, so what a backend skips
/// it decides from machine state, never from the entry point.
pub trait Gate: fmt::Debug {
    /// The backend whose mechanism this gate implements.
    fn mechanism(&self) -> BackendChoice;

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
}

/// The trivial gate: a plain function call. Used within a compartment and
/// by the "no isolation" baseline configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct DirectGate;

impl Gate for DirectGate {
    fn mechanism(&self) -> BackendChoice {
        BackendChoice::None
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

/// One ordered pair's entry in the runtime's dense pair table: the
/// crossing's route, then the pair's async ring. What both directions
/// share lives in the *normalized* slot, `(a, b)` with `a < b`.
#[derive(Default)]
struct PairSlot {
    /// Index of the pair's gate in [`GateRuntime::gates`].
    gate: usize,
    /// The pair's [`GateTrace`] row under `gate`'s mechanism, once it
    /// has crossed.
    row: Option<usize>,
    /// A live migration swapped `gate` in and the pair has not crossed
    /// since: its next crossing records the `first-crossing` probe.
    swapped: bool,
    /// The `(from → to)` submission/completion ring.
    ring: AsyncRing,
    /// Normalized slot only: the backend swap waiting for quiescence.
    /// Admission onto both directions' rings is stopped while present.
    pending: Option<PendingMigration>,
    /// Normalized slot only: batches and flushes over the pair in
    /// progress, which hold it non-quiescent between their calls.
    batches: u32,
}

/// A gate and the label its crossings are recorded with, as the slab
/// keeps them.
fn labelled(gate: Rc<dyn Gate>) -> (Rc<dyn Gate>, Label) {
    let label = gate.mechanism().span_label();
    (gate, label)
}

/// The per-image gate dispatcher.
///
/// Holds every compartment's context, the configured backend gate (plus
/// optional per-pair overrides — Figure 2 shows different gate types can
/// coexist in one image), and the current call stack of compartments.
pub struct GateRuntime {
    compartments: Vec<CompartmentCtx>,
    /// Every ordered pair's state, row-major `n × n`: a crossing
    /// resolves its gate, a submit its ring, with one index.
    pairs: Vec<PairSlot>,
    /// Every gate ever installed, append-only, each with the label its
    /// crossings are recorded with: a crossing holds its gate's index and
    /// re-borrows the slab for enter, exit and label, so it touches no
    /// refcount, asks the gate nothing for its record and still exits
    /// through the gate it entered when the pair is re-pointed while it
    /// runs.
    gates: Vec<(Rc<dyn Gate>, Label)>,
    stack: Vec<CompartmentId>,
    /// The one per-crossing ledger; [`GateStats`] is a fold over it.
    trace: GateTrace,
    async_stats: AsyncGateStats,
    /// How many slots hold a pending migration, so a crossing asks
    /// "anything draining?" without walking the table.
    draining: usize,
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
        let n = compartments.len();
        Self {
            compartments,
            pairs: (0..n * n).map(|_| PairSlot::default()).collect(),
            gates: vec![labelled(default_gate)],
            stack: vec![initial],
            trace: GateTrace::new(),
            async_stats: AsyncGateStats::default(),
            draining: 0,
            migration_stats: MigrationStats::default(),
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

    /// The pair's normalized slot, `slot(a, b)` with `a <= b`: where the
    /// state both directions share lives.
    fn norm(&self, a: CompartmentId, b: CompartmentId) -> usize {
        self.slot(a.min(b), a.max(b))
    }

    /// Overrides the gate used between `a` and `b` (both directions).
    /// Re-points the pair's route only: its rings, pending migration and
    /// batch guards stay.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` names no compartment of this image.
    pub fn set_pair_gate(&mut self, a: CompartmentId, b: CompartmentId, gate: Rc<dyn Gate>) {
        let slots = [self.slot(a, b), self.slot(b, a)];
        self.gates.push(labelled(gate));
        for slot in slots {
            let pair = &mut self.pairs[slot];
            (pair.gate, pair.row, pair.swapped) = (self.gates.len() - 1, None, false);
        }
    }

    /// The gate currently serving the `(a, b)` pair.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` names no compartment of this image.
    #[inline]
    pub fn pair_gate(&self, a: CompartmentId, b: CompartmentId) -> Rc<dyn Gate> {
        Rc::clone(&self.gates[self.pairs[self.slot(a, b)].gate].0)
    }

    /// The backend currently serving the `(a, b)` pair.
    pub fn pair_mechanism(&self, a: CompartmentId, b: CompartmentId) -> BackendChoice {
        self.gates[self.pairs[self.slot(a, b)].gate].0.mechanism()
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
        self.known(a) && self.known(b) && self.pairs[self.norm(a, b)].pending.is_some()
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
        let (a, b) = (a.min(b), a.max(b));
        let now = m.clock().cycles();
        m.span_trace_mut().record(
            self.compartments[a.0 as usize].vcpu.0 as u16,
            SpanKind::Migrate,
            Label::DrainStart,
            a.0,
            b.0,
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
        let slot = self.slot(a, b);
        if self.migration_safe(slot) {
            self.complete_migration(m, slot, pending)?;
            Ok(true)
        } else {
            self.migration_stats.deferred += 1;
            // Latest request wins if the pair was already draining; the
            // admission stop carries over either way.
            if self.pairs[slot].pending.replace(pending).is_none() {
                self.draining += 1;
            }
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

    /// A pair (by its normalized slot) is quiescent when no batch or
    /// flush over it is mid-loop and no in-flight sync call crosses it
    /// (no adjacent window of the compartment stack is the pair).
    fn migration_safe(&self, slot: usize) -> bool {
        self.pairs[slot].batches == 0
            && !self.stack.windows(2).any(|w| self.norm(w[0], w[1]) == slot)
    }

    /// Completes every ready pending migration, in ascending `(a, b)`
    /// order — the order of the normalized slots in the row-major table.
    /// Invoked from the quiescence safe points: end of a crossing, each
    /// batched call, batch/flush epilogues, and context switches.
    fn apply_ready_migrations(&mut self, m: &mut Machine) -> Result<()> {
        if self.draining == 0 {
            return Ok(());
        }
        // Completing a swap moves no stack entry and no guard, so which
        // pairs are ready is the same before and after each completion.
        for slot in 0..self.pairs.len() {
            let ready = self.pairs[slot].pending.is_some() && self.migration_safe(slot);
            if let Some(pending) = self.pairs[slot].pending.take_if(|_| ready) {
                self.draining -= 1;
                self.complete_migration(m, slot, pending)?;
            }
        }
        Ok(())
    }

    /// The swap itself, run at quiescence on the normalized `slot`: count
    /// the descriptors carried across, re-establish backend state, install
    /// the new gate, and record the migration span probes and counters.
    fn complete_migration(
        &mut self,
        m: &mut Machine,
        slot: usize,
        pending: PendingMigration,
    ) -> Result<()> {
        let n = self.compartments.len();
        let [a, b] = [slot / n, slot % n].map(|i| CompartmentId(i as u16));
        let back = self.slot(b, a);
        // Quiesced rings: pending SQEs stay queued and re-issue through
        // the incoming backend on the next flush; ready CQEs stay
        // reapable (the completed prefix is preserved, like a mid-flush
        // HardeningAbort).
        let rings = [&self.pairs[slot].ring, &self.pairs[back].ring];
        let requeued: usize = rings.iter().map(|r| r.sq.len()).sum();
        let preserved: usize = rings.iter().map(|r| r.cq_ready()).sum();
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
            Label::DrainEnd,
            a.0,
            b.0,
            pending.requested_at,
            now,
        );
        m.span_trace_mut()
            .record(shard, SpanKind::Migrate, Label::Swap, a.0, b.0, now, now);
        self.set_pair_gate(a, b, pending.gate);
        for slot in [slot, back] {
            self.pairs[slot].swapped = true;
        }
        let st = &mut self.migration_stats;
        st.completed += 1;
        st.requeued_sqes += requeued as u64;
        st.preserved_cqes += preserved as u64;
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
        if self.known(target) {
            return Ok(());
        }
        Err(Fault::HardeningAbort {
            mechanism: "gate",
            reason: format!("unknown {target}"),
        })
    }

    /// Whether `id` names a compartment of this image.
    #[inline]
    fn known(&self, id: CompartmentId) -> bool {
        (id.0 as usize) < self.compartments.len()
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
        self.cross_one(m, gate, target, (arg_bytes, ret_bytes), f)
    }

    /// The one crossing body: every call the runtime issues — a sync
    /// [`GateRuntime::cross`], each call of a batch or of a ring flush —
    /// runs exactly this sequence, so the entry points cannot drift apart
    /// in cycles, counters, spans or fault handling. `gate` is `None` for
    /// a same-compartment call, else the pair's gate as
    /// [`GateRuntime::route`] found it, looked up by the caller so that a
    /// batch hoists it out of its loop; a backend varies the sequence
    /// only through [`Gate::enter`] and [`Gate::exit`].
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
            self.gates[gate].0.enter(m, from_ctx, to_ctx, arg_bytes)?;
        }
        let enter_cycles = m.clock().cycles() - t0;
        self.stack.push(target);

        let result = f(m, self);

        self.stack.pop();
        let t1 = m.clock().cycles();
        let (gate, label) = (&*self.gates[gate].0, self.gates[gate].1);
        let caller_ctx = &self.compartments[from.0 as usize];
        let callee_ctx = &self.compartments[target.0 as usize];
        gate.exit(m, callee_ctx, caller_ctx, ret_bytes)?;
        let now = m.clock().cycles();
        let (gate_cycles, bytes) = (enter_cycles + now - t1, arg_bytes + ret_bytes);
        // The crossing's one record — the window [enter, exit], sharded
        // by the caller's plan-determined vCPU (run-queue-invisible) —
        // and its one accumulator update; every other view of it folds
        // from these two.
        let shard = caller_ctx.vcpu.0 as u16;
        m.span_trace_mut()
            .record_gate(shard, label, from.0, target.0, t0, now, gate_cycles, bytes);
        let slot = self.slot(from, target);
        let row = *self.pairs[slot]
            .row
            .get_or_insert_with(|| self.trace.row(label, from.0, target.0));
        self.trace.record_crossing(row, gate_cycles, bytes);
        if self.pairs[slot].swapped {
            for slot in [slot, self.slot(target, from)] {
                self.pairs[slot].swapped = false;
            }
            let (kind, label) = (SpanKind::Migrate, Label::FirstCrossing);
            m.span_trace_mut()
                .record(shard, kind, label, from.0, target.0, t0, now);
        }
        // The end of a crossing is a migration safe point (a batch's own
        // pair stays guarded by its `batches` count until the batch ends).
        if self.draining != 0 {
            self.apply_ready_migrations(m)?;
        }
        result
    }

    /// Vectored gate crossing: runs `calls.len()` calls into `target`,
    /// call `idx` executing `f(m, rt, idx)`.
    ///
    /// The gate lookup is hoisted out of the loop and the pair is held
    /// non-quiescent for the whole batch; each call then runs the body of
    /// [`GateRuntime::cross`]. The simulated operations are those of a
    /// loop of `cross` — cycles charged, chaos decisions drawn, faults
    /// raised and trace events recorded are bit-identical — plus one
    /// entry in the per-mechanism batch-size histogram.
    ///
    /// The batch stops at the first call error, which is returned after
    /// that call's exit path has run (same contract as `cross`).
    pub fn cross_batch<R>(
        &mut self,
        m: &mut Machine,
        target: CompartmentId,
        calls: &CallVec,
        f: impl FnMut(&mut Machine, &mut GateRuntime, usize) -> Result<R>,
    ) -> Result<Vec<R>> {
        let mut out = Vec::with_capacity(calls.len());
        self.cross_each(
            m,
            target,
            calls.len(),
            |idx| calls.get(idx),
            f,
            |_, _, _, r| {
                out.push(r);
                Ok(true)
            },
        )?;
        Ok(out)
    }

    /// The batch loop behind [`GateRuntime::cross_batch`] and
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
        let label = gate.map_or(Label::FunctionCall, |g| self.gates[g].1);
        // The whole batch holds the pair non-quiescent — a migration
        // requested from inside any call defers to the batch's end, so
        // the hoisted gate serves every call of the batch.
        let guard = gate.map(|_| self.norm(from, target));
        if let Some(pair) = guard {
            self.pairs[pair].batches += 1;
        }
        let mut issued: u64 = 0;
        let mut result = Ok(());
        for idx in 0..len {
            issued += 1;
            let call = |m: &mut Machine, rt: &mut GateRuntime| f(m, rt, idx);
            let step = self
                .cross_one(m, gate, target, desc(idx), call)
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
        if let Some(pair) = guard {
            self.pairs[pair].batches -= 1;
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
        if self.submit_many(target, std::slice::from_ref(&sqe))? == 0 {
            return Err(Fault::RingFull {
                ring: "gate-sq",
                depth: self.pairs[self.slot(self.current(), target)].ring.depth,
            });
        }
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
        let slot = self.slot(from, target);
        let ring = &mut self.pairs[slot].ring;
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
        if self.draining == 0 || self.pairs[self.norm(from, target)].pending.is_none() {
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
        if let Some(slot) = self.ring_slot(target) {
            let ring = &mut self.pairs[slot].ring;
            ring.depth = ring.depth.max(depth);
        }
    }

    /// The slot of the `(current → target)` ring; `None` for a target
    /// that names no compartment, which the ring entry points read as an
    /// empty ring.
    fn ring_slot(&self, target: CompartmentId) -> Option<usize> {
        self.known(target)
            .then(|| self.slot(self.current(), target))
    }

    /// Number of descriptors queued but not yet flushed on the
    /// `(current → target)` submission ring.
    pub fn sq_pending(&self, target: CompartmentId) -> usize {
        self.ring_slot(target)
            .map_or(0, |slot| self.pairs[slot].ring.sq.len())
    }

    /// Number of completions ready to reap on the `(current → target)`
    /// completion ring.
    pub fn cq_ready(&self, target: CompartmentId) -> usize {
        self.ring_slot(target)
            .map_or(0, |slot| self.pairs[slot].ring.cq_ready())
    }

    /// Pops the oldest completion from the `(current → target)` ring.
    ///
    /// An empty ring returns [`Fault::RingEmpty`] (flush first) — never
    /// a panic, matching io_uring's `-EAGAIN`.
    pub fn reap(&mut self, target: CompartmentId) -> Result<Cqe> {
        let cqe = self.ring_slot(target).and_then(|slot| {
            let r = &mut self.pairs[slot].ring;
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
        let Some(slot) = self.ring_slot(target) else {
            return 0;
        };
        let ring = &mut self.pairs[slot].ring;
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
        let Some(slot) = self.ring_slot(target) else {
            return 0;
        };
        let ring = &mut self.pairs[slot].ring;
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
    /// The flush runs the batch loop of [`GateRuntime::cross_batch`]
    /// over the queued descriptors, so its simulated behaviour is
    /// *identical* to a sequential driver issuing the same calls: cycles
    /// charged, chaos decisions drawn, faults raised and span probes
    /// recorded are all bit-for-bit the same, and the batch histogram is
    /// that of the equivalent `cross_batch`; the overlap with the
    /// caller's own work is host-time only.
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
        // The ring leaves its slot for the duration of the flush so `f`
        // and `between` can borrow the runtime freely; the default ring
        // left in its place catches nested submits to the same pair,
        // merged back below.
        let ready = |s: &usize| !self.pairs[*s].ring.sq.is_empty();
        let Some(slot) = self.ring_slot(target).filter(ready) else {
            return Ok(0);
        };
        // The pair stays non-quiescent until the ring is merged back:
        // a migration completed mid-flush would otherwise count (and
        // requeue) the placeholder ring instead of the real one. The
        // inner `cross_each` takes and drops its own guard; this outer
        // one outlives it.
        let guard = (from != target).then(|| self.norm(from, target));
        if let Some(pair) = guard {
            self.pairs[pair].batches += 1;
        }
        let mut ring = std::mem::take(&mut self.pairs[slot].ring);
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
        let nested = &mut self.pairs[slot].ring;
        ring.depth = ring.depth.max(nested.depth);
        ring.sq.append(&mut nested.sq);
        ring.cq.extend_from_slice(&nested.cq[nested.cq_head..]);
        *nested = ring;
        if let Some(pair) = guard {
            self.pairs[pair].batches -= 1;
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
        assert!(BackendChoice::MpkShared.stacks_shared());
        assert!(!BackendChoice::MpkSwitched.stacks_shared());
        assert!(!BackendChoice::VmRpc.stacks_shared());
    }

    #[test]
    fn callvec_builders_agree() {
        let mut v = CallVec::new();
        assert!(v.is_empty());
        v.push(16, 8).push(16, 8).push(16, 8);
        assert_eq!(v, CallVec::uniform(3, 16, 8));
        assert_eq!(v.len(), 3);
        assert_eq!(v.get(2), (16, 8));
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
            .push(32, 8)
            .push(32, 8);
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
        // And the batch let go of its pair: a swap applies at once.
        let (a, b) = (CompartmentId(0), CompartmentId(1));
        let applied = rt.request_migration(&mut m, a, b, mpk_gate(), MigrationReason::Manual, None);
        assert_eq!(applied, Ok(true), "the failed batch still guards its pair");
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
        let cross = rt.trace().batch_hist(Label::FunctionCall).unwrap();
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
        // The stopping call's completion is posted.
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
        mech: BackendChoice,
        cost: u64,
    }

    impl Gate for CostedGate {
        fn mechanism(&self) -> BackendChoice {
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
            mech: BackendChoice::MpkShared,
            cost: 30,
        })
    }

    /// Records each leg of each crossing it serves.
    #[derive(Debug, Default)]
    struct SpyGate {
        legs: std::cell::RefCell<Vec<&'static str>>,
    }

    impl SpyGate {
        fn leg(&self, leg: &'static str) -> Result<()> {
            self.legs.borrow_mut().push(leg);
            Ok(())
        }
    }

    impl Gate for SpyGate {
        fn mechanism(&self) -> BackendChoice {
            BackendChoice::VmRpc
        }
        fn enter(
            &self,
            _: &mut Machine,
            _: &CompartmentCtx,
            _: &CompartmentCtx,
            _: u64,
        ) -> Result<()> {
            self.leg("enter")
        }
        fn exit(
            &self,
            _: &mut Machine,
            _: &CompartmentCtx,
            _: &CompartmentCtx,
            _: u64,
        ) -> Result<()> {
            self.leg("exit")
        }
    }

    /// Two spies on the `(0, 1)` pair: `old` installed, `new` at hand.
    fn two_spies(rt: &mut GateRuntime) -> (Rc<SpyGate>, Rc<SpyGate>) {
        let old = Rc::new(SpyGate::default());
        rt.set_pair_gate(CompartmentId(0), CompartmentId(1), old.clone());
        (old, Rc::new(SpyGate::default()))
    }

    fn legs_of(spy: &SpyGate) -> Vec<&'static str> {
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
        assert_eq!(legs_of(&old), vec!["enter", "exit"]);
        assert!(legs_of(&new).is_empty());
        rt.cross(&mut m, b, 8, 8, |_, _| Ok(())).unwrap();
        assert!(legs_of(&old).is_empty());
        assert_eq!(legs_of(&new), vec!["enter", "exit"]);
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
        assert_eq!(legs_of(&old), vec!["enter", "exit"]);
        rt.cross(&mut m, b, 8, 8, |_, _| Ok(())).unwrap();
        assert!(legs_of(&old).is_empty());
        assert_eq!(legs_of(&new), vec!["enter", "exit"]);
    }

    #[test]
    fn isolation_rank_orders_the_ladder() {
        let ladder = [
            BackendChoice::None,
            BackendChoice::MpkShared,
            BackendChoice::MpkSwitched,
            BackendChoice::Cheri,
            BackendChoice::VmRpc,
        ];
        for w in ladder.windows(2) {
            assert!(w[0].isolation_rank() < w[1].isolation_rank());
        }
    }

    #[test]
    fn quiescent_migration_applies_immediately() {
        let (mut m, mut rt) = fresh_rt();
        let (a, b) = (CompartmentId(0), CompartmentId(1));
        assert_eq!(rt.pair_mechanism(a, b), BackendChoice::None);
        let applied = rt
            .request_migration(&mut m, a, b, mpk_gate(), MigrationReason::Manual, None)
            .unwrap();
        assert!(applied);
        assert!(!rt.migration_pending(a, b));
        assert_eq!(rt.pair_mechanism(a, b), BackendChoice::MpkShared);
        let st = rt.migration_stats();
        assert_eq!((st.requested, st.completed, st.deferred), (1, 1, 0));

        // The next crossing runs through the new backend, is recorded
        // under its label and records the first-crossing probe.
        rt.cross(&mut m, b, 8, 8, |_, _| Ok(())).unwrap();
        let labels = |kind| -> Vec<&str> {
            let events = m.span_trace().merged_events();
            let of_kind = events.iter().filter(|(_, _, ev)| ev.kind == kind);
            of_kind.map(|(_, _, ev)| ev.label.as_str()).collect()
        };
        if cfg!(not(feature = "trace-off")) {
            assert_eq!(labels(SpanKind::Gate), vec!["MPK (shared stack)"]);
            assert_eq!(
                labels(SpanKind::Migrate),
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
            assert_eq!(rt.pair_mechanism(a, b), BackendChoice::None);
            // Simulated work between the request and the safe point makes
            // the drain window observable in the counters.
            m.charge(100);
            Ok(())
        })
        .unwrap();
        // The crossing's epilogue was the safe point.
        assert!(!rt.migration_pending(a, b));
        assert_eq!(rt.pair_mechanism(a, b), BackendChoice::MpkShared);
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
            assert_eq!(rt.pair_mechanism(a, b), BackendChoice::None);
            Ok(())
        })
        .unwrap();
        assert!(!rt.migration_pending(a, b));
        assert_eq!(rt.pair_mechanism(a, b), BackendChoice::MpkShared);
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
        assert_eq!(rt.pair_mechanism(a, b), BackendChoice::None);
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
        assert_eq!(rt.pair_mechanism(a, b), BackendChoice::MpkShared);
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
        assert!(
            rt.pairs.iter().all(|p| p.ring.is_untouched()),
            "no ring was touched"
        );
        assert_eq!(rt.stats(), GateStats::default());
        assert_eq!(rt.async_stats(), AsyncGateStats::default());
        assert_eq!(rt.migration_stats(), MigrationStats::default());
        assert!(rt.trace().batch_hist(Label::FunctionCall).is_none());
        assert!(m.span_trace().merged_events().is_empty());
    }

    impl AsyncRing {
        /// Empty at the default depth: the state `GateRuntime::new`
        /// leaves every slot's ring in.
        fn is_untouched(&self) -> bool {
            self.depth == DEFAULT_RING_DEPTH && self.sq.is_empty() && self.cq.is_empty()
        }
    }

    /// The ring entry points that cannot fail read an unknown target as
    /// an empty ring — never `slot()`'s assertion — and `reap` refuses
    /// it like any empty ring.
    #[test]
    fn unknown_target_reads_as_an_empty_ring() {
        let (_m, mut rt) = fresh_rt();
        let bad = CompartmentId(7);
        rt.ensure_ring_depth(bad, DEFAULT_RING_DEPTH * 4);
        assert_eq!((rt.sq_pending(bad), rt.cq_ready(bad)), (0, 0));
        assert_eq!(rt.poll_completions(bad, &mut Vec::new()), 0);
        assert!(matches!(
            rt.reap(bad),
            Err(Fault::RingEmpty { ring: "gate-cq" })
        ));
        assert_eq!(
            rt.async_stats(),
            AsyncGateStats {
                cq_empty: 1,
                ..AsyncGateStats::default()
            }
        );
        assert!(!rt.migration_pending(CompartmentId(0), bad));
        assert!(rt.pairs.iter().all(|p| p.ring.is_untouched()));
    }

    /// `fresh_rt` plus a third compartment, `app`.
    fn three_rt() -> (Machine, GateRuntime) {
        let mut m = Machine::with_defaults();
        let mut cpts = two_compartments(&mut m);
        let heap2 = m
            .alloc_region(VmId(0), 4096, ProtKey(3), PageFlags::RW)
            .unwrap();
        cpts.push(CompartmentCtx {
            id: CompartmentId(2),
            name: "app".into(),
            keys: vec![ProtKey(3)],
            heap_base: heap2,
            ..cpts[1].clone()
        });
        let rt = GateRuntime::new(cpts, Rc::new(DirectGate), CompartmentId(0));
        (m, rt)
    }

    /// `(sq_pending, cq_ready)` towards every compartment, seen from
    /// each compartment in turn (crossing into it from `0`).
    fn ring_view(m: &mut Machine, rt: &mut GateRuntime) -> String {
        let mut rows = Vec::new();
        for c in 0..3 {
            let row = rt
                .cross(m, CompartmentId(c), 0, 0, |_, rt| {
                    Ok((0..3)
                        .map(|t| {
                            (
                                rt.sq_pending(CompartmentId(t)),
                                rt.cq_ready(CompartmentId(t)),
                            )
                        })
                        .collect::<Vec<_>>())
                })
                .unwrap();
            rows.push(format!("{c}:{row:?}"));
        }
        rows.join(" ")
    }

    /// Every piece of per-pair state — two ordered pairs' rings and a
    /// self-pair's, a migration deferred by a flush and requested twice,
    /// a nested submit, partial reaps, a cancel, two swaps applied at one
    /// context switch — read through the public API, against one golden.
    #[test]
    fn per_pair_state_is_pinned() {
        let (mut m, mut rt) = three_rt();
        let [c0, c1, c2] = [0, 1, 2].map(CompartmentId);
        let cheri = || -> Rc<dyn Gate> {
            Rc::new(CostedGate {
                mech: BackendChoice::Cheri,
                cost: 50,
            })
        };
        let mut log = Vec::new();
        for i in 0..5 {
            rt.submit(c1, Sqe::new(8, 8, 10 + i)).unwrap();
        }
        rt.ensure_ring_depth(c2, DEFAULT_RING_DEPTH + 2);
        let burst: Vec<Sqe> = (0..DEFAULT_RING_DEPTH as u64 + 2)
            .map(|i| Sqe::new(4, 4, 100 + i))
            .collect();
        log.push(format!("burst {:?}", rt.submit_many(c2, &burst)));
        log.push(format!("full {:?}", rt.submit(c2, Sqe::new(4, 4, 99))));
        rt.submit(c0, Sqe::new(0, 0, 30)).unwrap();
        rt.cross(&mut m, c1, 0, 0, |_, rt| rt.submit(c0, Sqe::new(2, 2, 40)))
            .unwrap();
        log.push(ring_view(&mut m, &mut rt));
        let posted = rt.flush_async_until(
            &mut m,
            c1,
            |m, rt, sqe| {
                if sqe.user_data == 11 {
                    rt.submit(c2, Sqe::new(1, 1, 50))?;
                }
                m.charge(7);
                Ok(sqe.user_data as i64 * 2)
            },
            |m, rt, sqe, _| {
                match sqe.user_data {
                    10 => rt.submit(c1, Sqe::new(8, 8, 60))?,
                    11 => {
                        for gate in [mpk_gate(), cheri()] {
                            let applied = rt.request_migration(
                                m,
                                c0,
                                c1,
                                gate,
                                MigrationReason::Escalate,
                                None,
                            )?;
                            assert!(!applied, "the flush guards its pair");
                        }
                        let refused = rt.submit(c1, Sqe::new(8, 8, 61));
                        assert!(matches!(refused, Err(Fault::GateDraining { .. })));
                    }
                    _ => {}
                }
                Ok(sqe.user_data < 12)
            },
        );
        log.push(format!("posted {posted:?} {:?}", rt.pair_mechanism(c0, c1)));
        log.push(ring_view(&mut m, &mut rt));
        let reaped: Vec<_> = (0..2)
            .map(|_| rt.reap(c1).map(|c| (c.user_data, c.res)))
            .collect();
        log.push(format!("reaped {reaped:?}"));
        log.push(format!("cancelled {}", rt.cancel_pending(c2)));
        log.push(format!(
            "flushed self {:?}",
            rt.flush_async(&mut m, c0, |_, _, s| Ok(s.user_data as i64))
        ));
        let mut cqes = Vec::new();
        let n = rt.poll_completions(c1, &mut cqes) + rt.poll_completions(c0, &mut cqes);
        let order: Vec<u64> = cqes.iter().map(|c| c.user_data).collect();
        log.push(format!("polled {n} {order:?}"));
        // Two swaps deferred by one call stack are applied by one context
        // switch, in ascending pair order whatever the request order.
        rt.cross(&mut m, c1, 0, 0, |m, rt| {
            rt.cross(m, c2, 0, 0, |m, rt| {
                for (a, b) in [(c2, c1), (c1, c0)] {
                    rt.request_migration(m, a, b, mpk_gate(), MigrationReason::Relax, None)?;
                }
                rt.resume_in(m, c2)
            })
        })
        .unwrap();
        rt.resume_in(&mut m, c0).unwrap();
        log.push(format!("polled swaps {:?}", rt.poll_migrations(&mut m)));
        log.push(ring_view(&mut m, &mut rt));
        log.push(format!("{:?}", rt.async_stats()));
        log.push(format!("{:?}", rt.migration_stats()));
        let golden = "\
burst Ok(66)\n\
full Err(RingFull { ring: \"gate-sq\", depth: 66 })\n\
0:[(1, 0), (5, 0), (66, 0)] 1:[(1, 0), (0, 0), (0, 0)] 2:[(0, 0), (0, 0), (0, 0)]\n\
posted Ok(3) Cheri\n\
0:[(1, 0), (3, 3), (66, 0)] 1:[(1, 0), (0, 0), (1, 0)] 2:[(0, 0), (0, 0), (0, 0)]\n\
reaped [Ok((10, 20)), Ok((11, 22))]\n\
cancelled 66\n\
flushed self Ok(1)\n\
polled 2 [12, 30]\n\
polled swaps Ok(0)\n\
0:[(0, 0), (3, 0), (0, 0)] 1:[(1, 0), (0, 0), (1, 0)] 2:[(0, 0), (0, 0), (0, 0)]\n\
AsyncGatesSnapshot { submitted: 75, completed: 4, flushes: 2, cancelled: 66, sq_full: 1, cq_empty: 0 }\n\
MigrationsSnapshot { requested: 4, completed: 3, deferred: 4, rejected_submits: 1, requeued_sqes: 9, preserved_cqes: 3, drain_cycles_total: 12, drain_cycles_max: 12, escalations: 1, relaxations: 2 }";
        assert_eq!(log.join("\n"), golden);
        if cfg!(not(feature = "trace-off")) {
            let swaps: Vec<_> = m
                .span_trace()
                .merged_events()
                .iter()
                .filter(|(_, _, ev)| ev.kind == SpanKind::Migrate)
                .map(|(_, _, ev)| format!("{}:{}-{}", ev.label.as_str(), ev.src, ev.dst))
                .collect();
            let golden = "drain-start:0-1 drain-start:0-1 drain-end:0-1 swap:0-1 \
                first-crossing:0-1 first-crossing:0-1 first-crossing:1-2 \
                drain-start:1-2 drain-start:0-1 drain-end:0-1 swap:0-1 drain-end:1-2 swap:1-2";
            assert_eq!(swaps.join(" "), golden);
        }
    }

    /// `set_pair_gate` re-points the pair's route and nothing else: the
    /// queued SQEs and ready CQEs of both directions stay where they are.
    #[test]
    fn set_pair_gate_keeps_the_pairs_rings() {
        let (mut m, mut rt) = fresh_rt();
        let (a, b) = (CompartmentId(0), CompartmentId(1));
        for (from, to) in [(a, b), (b, a)] {
            rt.resume_in(&mut m, from).unwrap();
            rt.ensure_ring_depth(to, DEFAULT_RING_DEPTH + 1);
            for i in 0..3 {
                rt.submit(to, Sqe::new(4, 4, i)).unwrap();
            }
            rt.flush_async_until(
                &mut m,
                to,
                |_, _, s| Ok(s.user_data as i64),
                |_, _, s, _| Ok(s.user_data < 1),
            )
            .unwrap();
        }
        rt.set_pair_gate(a, b, mpk_gate());
        for (from, to) in [(a, b), (b, a)] {
            rt.resume_in(&mut m, from).unwrap();
            assert_eq!(
                (rt.sq_pending(to), rt.cq_ready(to)),
                (1, 2),
                "{from} -> {to}"
            );
            assert_eq!(rt.reap(to).unwrap().user_data, 0);
            let full: Vec<Sqe> = (0..DEFAULT_RING_DEPTH as u64)
                .map(|i| Sqe::new(4, 4, i))
                .collect();
            assert_eq!(
                rt.submit_many(to, &full).unwrap(),
                DEFAULT_RING_DEPTH,
                "depth kept"
            );
        }
    }
}
