//! `flexos-trace`: per-compartment telemetry for the FlexOS reproduction.
//!
//! FlexOS's claim is that isolation cost is a dial; this crate is the
//! gauge. It keeps two kinds of telemetry:
//!
//! - **Counts.** Each event bumps exactly one counter, and that counter
//!   lives in the `--stats` block it is printed from: the executor owns
//!   the scheduler block of [`StatsSnapshot`], the machine the TLB block,
//!   the net stack the net block, the readiness layer and the
//!   cooperative executor one serving block each, and they bump them in
//!   place (the probes are methods on the block); the gate runtime bumps
//!   one [`GateTrace`] row per crossing, keyed by the mechanism's
//!   [`Label`] and the compartment pair, and the heap service one
//!   [`AllocRow`] per compartment. Nothing else counts the same event.
//!   Counts are always on.
//! - **Records.** One event stream, the machine's per-vCPU
//!   [`SpanRing`]s, in which every probe that records an event (a
//!   crossing, a context switch, a fault, a failed allocation, a dropped
//!   packet, an mq hop, …) writes exactly one [`SpanEvent`], plus the
//!   log2 [`CycleHist`]ogram samples: a crossing's cost in its
//!   mechanism's one histogram, a batch's size in its mechanism's.
//!
//! The owners hold their telemetry directly (no globals, no locks: the
//! simulation is single-threaded per image), and a [`TraceRegistry`]
//! folds counts and records into one serializable [`StatsSnapshot`].
//! Its event tail is the newest records of that one stream, read off the
//! span rings, and its ring report is theirs.
//!
//! Building with `--features trace-off` compiles every record away —
//! span records, histogram samples — while keeping struct layouts and
//! APIs identical, so the instrumented call sites need no `cfg` of their
//! own. It never removes a count: the counter blocks read the same in
//! both builds, and only what is folded from records (the event tail,
//! the ring report, latency and histogram rows) is empty.

// A compiled-out probe ignores its arguments, and what only probe
// bodies touch goes unused with them.
#![cfg_attr(feature = "trace-off", allow(unused_variables, dead_code))]

pub mod hist;
pub mod json;
mod label;
pub mod sheet;
pub mod snapshot;
pub mod span;

pub use hist::{CycleHist, HIST_BUCKETS};
pub use json::JsonWriter;
pub use label::Label;
pub use sheet::{Cell, Columns, Difference, Rule, Sheet, Table};
pub use snapshot::{
    AllocRow, AsyncGatesSnapshot, EventRow, FaultCompartmentRow, FaultKindRow, GateBatchRow,
    GatePairRow, LatencyRow, MechanismRow, MigrationsSnapshot, NetSnapshot, RingDropRow,
    SchedSnapshot, ServingSnapshot, StatsSnapshot, TlbSnapshot,
};
pub use span::{
    percentile, SpanEvent, SpanId, SpanKind, SpanRing, SpanTrace, DEFAULT_SPAN_RING_CAP,
};

use std::collections::BTreeMap;

/// Simulated core frequency in Hz (Xeon Silver 4110: 2.1 GHz).
pub const CPU_FREQ_HZ: u64 = 2_100_000_000;

/// Records kept in the final snapshot's event tail.
pub const SNAPSHOT_EVENT_CAP: usize = 64;

/// One `(mechanism, src, dst)` row of [`GateTrace`]. Always on:
/// `GateStats` is the rows' sum, `trace-off` or not.
#[derive(Debug, Clone)]
struct GateRow {
    mechanism: Label,
    src: u16,
    dst: u16,
    crossings: u64,
    bytes: u64,
    gate_cycles: u64,
    /// Index of the mechanism's crossing-cost histogram in
    /// [`GateTrace::hists`].
    hist: usize,
}

/// Telemetry owned by the gate runtime, one ledger per crossing: one
/// row per `(mechanism, src, dst)` — crossings, bytes, gate cycles —
/// and one crossing-cost [`CycleHist`] per mechanism, plus the
/// direct-call count and one batch-size histogram per mechanism.
///
/// A crossing updates exactly one row, addressed by the index
/// [`GateTrace::row`] handed out (the runtime keeps it beside the pair's
/// gate, so the hot path does no lookup), and the one histogram of the
/// row's mechanism. Everything per-pair, per-mechanism or
/// per-compartment in a snapshot is read off these; per-event views
/// come from the crossing's one span record ([`SpanTrace::record_gate`]).
#[derive(Debug, Clone, Default)]
pub struct GateTrace {
    /// First-crossing order, which breaks ties in the snapshot's
    /// busiest-first tables.
    rows: Vec<GateRow>,
    direct_calls: u64,
    /// Crossing cost, log2-bucketed, in the order the mechanisms first
    /// got a row.
    hists: Vec<(Label, CycleHist)>,
    batch_hists: Vec<(Label, CycleHist)>,
}

/// Packs a (src, dst) compartment pair into an event `detail` word.
pub fn pack_pair(src: u16, dst: u16) -> u64 {
    ((src as u64) << 16) | dst as u64
}

/// The histogram of `label` in `hists`, if it has one.
fn hist_of(hists: &[(Label, CycleHist)], label: Label) -> Option<&CycleHist> {
    hists.iter().find(|(l, _)| *l == label).map(|(_, h)| h)
}

/// The index of `label`'s histogram in `hists`, pushed empty on first use.
fn hist_slot(hists: &mut Vec<(Label, CycleHist)>, label: Label) -> usize {
    hists
        .iter()
        .position(|(l, _)| *l == label)
        .unwrap_or_else(|| {
            hists.push((label, CycleHist::new()));
            hists.len() - 1
        })
}

impl GateTrace {
    /// Fresh, empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a same-compartment call that compiled to a direct call.
    #[inline]
    pub fn record_direct(&mut self) {
        self.direct_calls += 1;
    }

    /// The index of the `(mechanism, src, dst)` row, created on first
    /// use together with the mechanism's histogram if it has none yet.
    pub fn row(&mut self, mechanism: Label, src: u16, dst: u16) -> usize {
        self.find(mechanism, src, dst).unwrap_or_else(|| {
            let hist = hist_slot(&mut self.hists, mechanism);
            self.rows.push(GateRow {
                mechanism,
                src,
                dst,
                crossings: 0,
                bytes: 0,
                gate_cycles: 0,
                hist,
            });
            self.rows.len() - 1
        })
    }

    fn find(&self, mechanism: Label, src: u16, dst: u16) -> Option<usize> {
        let at = |r: &GateRow| (r.mechanism, r.src, r.dst) == (mechanism, src, dst);
        self.rows.iter().position(at)
    }

    /// Records one completed round-trip crossing in `row`: `gate_cycles`
    /// spent in enter + exit, `bytes` marshalled.
    ///
    /// # Panics
    ///
    /// Panics if `row` did not come from [`GateTrace::row`] since the
    /// last [`GateTrace::reset`].
    #[inline]
    pub fn record_crossing(&mut self, row: usize, gate_cycles: u64, bytes: u64) {
        let r = &mut self.rows[row];
        r.crossings += 1;
        r.bytes += bytes;
        r.gate_cycles += gate_cycles;
        self.hists[r.hist].1.record(gate_cycles);
    }

    /// Records one batched crossing of `size` calls through `mechanism`
    /// (sizes land in a per-mechanism log2 histogram).
    ///
    /// The gate runtime's one batch loop records this once per
    /// `cross_batch` or ring flush, on every way out, with the number of
    /// calls it issued.
    pub fn record_batch(&mut self, mechanism: Label, size: u64) {
        #[cfg(not(feature = "trace-off"))]
        {
            if size == 0 {
                return;
            }
            let i = hist_slot(&mut self.batch_hists, mechanism);
            self.batch_hists[i].1.record(size);
        }
    }

    /// Same-compartment direct calls recorded.
    pub fn direct_calls(&self) -> u64 {
        self.direct_calls
    }

    /// Total crossings for one (mechanism, src, dst) pair.
    pub fn crossings(&self, mechanism: Label, src: u16, dst: u16) -> u64 {
        self.find(mechanism, src, dst)
            .map_or(0, |row| self.rows[row].crossings)
    }

    /// `(crossings, bytes marshalled, gate cycles)` summed over all rows.
    pub fn totals(&self) -> (u64, u64, u64) {
        self.rows.iter().fold((0, 0, 0), |(c, b, g), r| {
            (c + r.crossings, b + r.bytes, g + r.gate_cycles)
        })
    }

    /// Total crossings summed over all pairs.
    pub fn total_crossings(&self) -> u64 {
        self.totals().0
    }

    /// The crossing-cycle histogram for one mechanism, if any pair
    /// crossed through it.
    pub fn mechanism_hist(&self, mechanism: Label) -> Option<&CycleHist> {
        hist_of(&self.hists, mechanism)
    }

    /// The batch-size histogram for one mechanism, if it ever issued a
    /// batched crossing.
    pub fn batch_hist(&self, mechanism: Label) -> Option<&CycleHist> {
        hist_of(&self.batch_hists, mechanism)
    }

    /// Clears all rows and histograms (benchmark warm-up). Row indices
    /// handed out before are void.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

impl SchedSnapshot {
    /// Records a thread-to-thread context switch to thread `tid` of
    /// `compartment` over `[t0, t1]` (cost charge + protection restore):
    /// one count here, one `ctx-switch` record in `spans` whose detail
    /// is `tid`.
    #[inline]
    pub fn record_switch(
        &mut self,
        spans: &mut SpanTrace,
        tid: u32,
        compartment: u16,
        t0: u64,
        t1: u64,
    ) {
        self.switches += 1;
        let (src, detail) = (tid as u16, tid.into());
        spans.record_event(
            SpanKind::Sched,
            Label::CtxSwitch,
            src,
            compartment,
            t0,
            t1,
            detail,
        );
    }

    /// Records one executor step of thread `tid` costing `cycles`,
    /// sampling the run queue at `depth` ready threads. `task_cycles`
    /// stays in first-run order; the registry sorts its copy.
    #[inline]
    pub fn record_step(&mut self, tid: u32, cycles: u64, depth: usize) {
        self.steps += 1;
        self.depth_sum += depth as u64;
        self.depth_max = self.depth_max.max(depth as u64);
        match self.task_cycles.iter_mut().find(|(t, _)| *t == tid) {
            Some((_, c)) => *c += cycles,
            None => self.task_cycles.push((tid, cycles)),
        }
    }
}

/// Telemetry owned by the heap service: one [`AllocRow`] per
/// compartment, named when the registry takes it.
#[derive(Debug, Clone, Default)]
pub struct AllocTrace {
    per: Vec<AllocRow>,
}

impl AllocTrace {
    /// Fresh, empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(&mut self, cpt: u16) -> &mut AllocRow {
        let idx = cpt as usize;
        while self.per.len() <= idx {
            let compartment = self.per.len() as u16;
            self.per.push(AllocRow {
                compartment,
                ..AllocRow::default()
            });
        }
        &mut self.per[idx]
    }

    /// Records a successful allocation of `bytes` for compartment `cpt`.
    #[inline]
    pub fn on_alloc(&mut self, cpt: u16, bytes: u64) {
        let s = self.slot(cpt);
        s.allocs += 1;
        s.bytes_in_use += bytes;
        s.peak_bytes = s.peak_bytes.max(s.bytes_in_use);
    }

    /// Records a free of `bytes` for compartment `cpt`.
    #[inline]
    pub fn on_free(&mut self, cpt: u16, bytes: u64) {
        let s = self.slot(cpt);
        s.frees += 1;
        s.bytes_in_use = s.bytes_in_use.saturating_sub(bytes);
    }

    /// Records a failed allocation of `bytes` for compartment `cpt` at
    /// machine time `now`: one count here, one `alloc-fail` record in
    /// `spans` whose detail is `bytes`.
    #[inline]
    pub fn on_fail(&mut self, spans: &mut SpanTrace, cpt: u16, bytes: u64, now: u64) {
        self.slot(cpt).failures += 1;
        spans.record_event(
            SpanKind::AllocFail,
            Label::AllocFail,
            cpt,
            cpt,
            now,
            now,
            bytes,
        );
    }

    /// The row of compartment `cpt`; rows exist up to the highest
    /// compartment that allocated, freed or failed to allocate.
    pub fn row(&self, cpt: u16) -> Option<&AllocRow> {
        self.per.get(cpt as usize)
    }
}

/// Telemetry owned by the machine: fault counts by class and by
/// protection key.
#[derive(Debug, Clone, Default)]
pub struct FaultTrace {
    by_kind: BTreeMap<&'static str, u64>,
    by_key: BTreeMap<u16, u64>,
}

impl FaultTrace {
    /// Fresh, empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a fault of class `kind` at machine time `now`; `key` is
    /// the protection key involved, for pkey violations. One count here,
    /// one `fault` record in `spans` whose detail is the key, or
    /// `u64::MAX` when none is involved. Faults are the rare path: kept
    /// out of line so the checks that raise them stay small enough to
    /// inline.
    #[cold]
    pub fn record(
        &mut self,
        spans: &mut SpanTrace,
        kind: &'static str,
        key: Option<u16>,
        now: u64,
    ) {
        let detail = key.map_or(u64::MAX, u64::from);
        *self.by_kind.entry(kind).or_default() += 1;
        if let Some(k) = key {
            *self.by_key.entry(k).or_default() += 1;
        }
        spans.record_event(SpanKind::Fault, Label::Fault, 0, 0, now, now, detail);
    }

    /// Records a fault deliberately injected by the chaos layer at
    /// machine time `now`. Counted under `kind` (an `"injected-*"` tag)
    /// like any other class, but its record is labelled `injected`, so
    /// the event tail separates injected faults from enforcement faults.
    #[cold]
    pub fn record_injected(&mut self, spans: &mut SpanTrace, kind: &'static str, now: u64) {
        *self.by_kind.entry(kind).or_default() += 1;
        spans.record_event(SpanKind::Fault, Label::Injected, 0, 0, now, now, u64::MAX);
    }

    /// Count for one fault class.
    pub fn count(&self, kind: &str) -> u64 {
        self.by_kind.get(kind).copied().unwrap_or(0)
    }

    /// Total faults recorded.
    pub fn total(&self) -> u64 {
        self.by_kind.values().sum()
    }

    /// Per-class counts.
    pub fn by_kind(&self) -> &BTreeMap<&'static str, u64> {
        &self.by_kind
    }

    /// Per-protection-key violation counts.
    pub fn by_key(&self) -> &BTreeMap<u16, u64> {
        &self.by_key
    }
}

/// The software TLB's probes (the per-vCPU translation cache in front of
/// the page-table walk). A *flush* is one machine-level page-table
/// mutation (region map, unmap, retag or seal) that invalidated the
/// cached translations of the affected VM via its generation counter —
/// lazy invalidation, so one flush may expire many cached entries.
impl TlbSnapshot {
    /// Counts a translation served from the cache.
    #[inline]
    pub fn hit(&mut self) {
        self.hits += 1;
    }

    /// Counts a lookup that had to fall back to the page-table walk
    /// (including walks that end in a page fault).
    #[inline]
    pub fn miss(&mut self) {
        self.misses += 1;
    }

    /// Counts one generation-bumping page-table mutation.
    #[inline]
    pub fn flush(&mut self) {
        self.flushes += 1;
    }

    /// Walk fallbacks recorded.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// The net stack's probes for the two drop classes; its segment counts
/// are plain field bumps.
impl NetSnapshot {
    /// Records a demux drop at machine time `now`: one count here, one
    /// `packet-drop` record in `spans` with detail 0.
    #[inline]
    pub fn on_drop(&mut self, spans: &mut SpanTrace, now: u64) {
        self.drops += 1;
        spans.record_event(SpanKind::Drop, Label::PacketDrop, 0, 0, now, now, 0);
    }

    /// Records a SYN dropped because the listener's accept backlog was
    /// at capacity (the connection storm the serving tier must survive):
    /// one count here, one `packet-drop` record in `spans` with detail 1.
    #[inline]
    pub fn on_backlog_overflow(&mut self, spans: &mut SpanTrace, now: u64) {
        self.backlog_overflows += 1;
        spans.record_event(SpanKind::Drop, Label::PacketDrop, 0, 0, now, now, 1);
    }
}

/// The serving tier's probes. The readiness layer (`EventQueue` in
/// `flexos-net`) and the cooperative executor (`CoExecutor` in
/// `flexos-kernel`) each own one block and bump only their half of it;
/// the image's block is their sum.
impl ServingSnapshot {
    /// Counts one readiness event posted (socket newly enqueued).
    #[inline]
    pub fn on_post(&mut self) {
        self.events_posted += 1;
    }

    /// Counts an event merged into an already-queued socket entry.
    #[inline]
    pub fn on_coalesce(&mut self) {
        self.events_coalesced += 1;
    }

    /// Counts one `poll()` that delivered `n` ready sockets.
    #[inline]
    pub fn on_poll(&mut self, n: u64) {
        self.polls += 1;
        self.events_delivered += n;
    }

    /// Counts a task spawned.
    #[inline]
    pub fn on_spawn(&mut self) {
        self.tasks_spawned += 1;
    }

    /// Counts one task step run.
    #[inline]
    pub fn on_run(&mut self) {
        self.tasks_run += 1;
    }

    /// Counts a wakeup (task moved from waiting to the run queue).
    #[inline]
    pub fn on_wake(&mut self) {
        self.wakeups += 1;
    }
}

impl std::ops::Add for ServingSnapshot {
    type Output = Self;

    fn add(self, o: Self) -> Self {
        Self {
            events_posted: self.events_posted + o.events_posted,
            events_coalesced: self.events_coalesced + o.events_coalesced,
            polls: self.polls + o.polls,
            events_delivered: self.events_delivered + o.events_delivered,
            tasks_spawned: self.tasks_spawned + o.tasks_spawned,
            tasks_run: self.tasks_run + o.tasks_run,
            wakeups: self.wakeups + o.wakeups,
        }
    }
}

/// Aggregates the subsystems' telemetry into one [`StatsSnapshot`].
///
/// The caller registers each subsystem's trace or block (with whatever naming
/// context it has — compartment names, key ownership) and then calls
/// [`TraceRegistry::finish`], which sorts rows, builds the event tail,
/// and returns the snapshot.
///
/// No subsystem keeps an event ring: the event tail is the newest
/// [`SNAPSHOT_EVENT_CAP`] records of the tail kinds ([`SpanKind::in_tail`])
/// that the span rings still hold ([`TraceRegistry::add_spans`]), one row
/// per record, and the ring report is those rings' own accounting.
#[derive(Debug, Default)]
pub struct TraceRegistry {
    snap: StatsSnapshot,
    /// Protection key → owning compartment, for `fault` rows.
    key_owners: BTreeMap<u16, u16>,
    /// The tail's records as `(shard, seq, record)`, oldest first.
    tail: Vec<(u16, u64, SpanEvent)>,
}

impl TraceRegistry {
    /// A fresh registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the measured window length in cycles.
    pub fn set_elapsed(&mut self, cycles: u64) {
        self.snap.elapsed_cycles = cycles;
    }

    fn name_of(names: &[String], cpt: u16) -> String {
        names
            .get(cpt as usize)
            .cloned()
            .unwrap_or_else(|| format!("compartment{cpt}"))
    }

    /// Registers the gate runtime's trace. `names[i]` names compartment `i`.
    pub fn add_gates(&mut self, gt: &GateTrace, names: &[String]) {
        self.snap.direct_calls += gt.direct_calls();
        for r in &gt.rows {
            self.snap.gate_pairs.push(GatePairRow {
                mechanism: r.mechanism.as_str(),
                src: r.src,
                dst: r.dst,
                src_name: Self::name_of(names, r.src),
                dst_name: Self::name_of(names, r.dst),
                crossings: r.crossings,
                bytes: r.bytes,
                gate_cycles: r.gate_cycles,
            });
        }
        // Under `trace-off` no histogram holds a sample, so no row.
        for (mech, h) in gt.hists.iter().filter(|(_, h)| h.count() > 0) {
            let (p50, p90, p99) = h.quantiles();
            self.snap.mechanisms.push(MechanismRow {
                mechanism: mech.as_str(),
                count: h.count(),
                p50,
                p90,
                p99,
                mean: h.mean(),
                max: h.max(),
            });
        }
        for (mech, h) in &gt.batch_hists {
            self.snap.gate_batch.push(GateBatchRow {
                mechanism: mech.as_str(),
                batches: h.count(),
                calls: h.sum(),
                p50: h.percentile(50, 100),
                max: h.max(),
            });
        }
    }

    /// Registers the executor's block, its `task_cycles` sorted by
    /// thread id.
    pub fn add_sched(&mut self, st: &SchedSnapshot) {
        let mut sched = st.clone();
        sched.task_cycles.sort_unstable_by_key(|&(t, _)| t);
        self.snap.sched = sched;
    }

    /// Registers the heap service's trace. `names[i]` names compartment `i`.
    pub fn add_allocs(&mut self, at: &AllocTrace, names: &[String]) {
        for r in &at.per {
            if r.allocs == 0 && r.frees == 0 && r.failures == 0 {
                continue;
            }
            self.snap.allocs.push(AllocRow {
                name: Self::name_of(names, r.compartment),
                ..r.clone()
            });
        }
    }

    /// Registers the machine's fault trace. `key_owner` maps a protection
    /// key to the (compartment id, name) owning it, if any.
    pub fn add_faults(
        &mut self,
        ft: &FaultTrace,
        key_owner: impl Fn(u16) -> Option<(u16, String)>,
    ) {
        for (&kind, &count) in ft.by_kind().iter() {
            self.snap.fault_kinds.push(FaultKindRow { kind, count });
        }
        let mut per_cpt: BTreeMap<u16, (String, u64)> = BTreeMap::new();
        for (&key, &count) in ft.by_key().iter() {
            if let Some((cpt, name)) = key_owner(key) {
                self.key_owners.insert(key, cpt);
                let e = per_cpt.entry(cpt).or_insert((name, 0));
                e.1 += count;
            }
        }
        for (cpt, (name, count)) in per_cpt {
            self.snap.fault_compartments.push(FaultCompartmentRow {
                compartment: cpt,
                name,
                count,
            });
        }
    }

    /// Registers the machine's software-TLB counters.
    pub fn add_tlb(&mut self, tlb: &TlbSnapshot) {
        self.snap.tlb = *tlb;
    }

    /// Registers the gate runtime's async-ring counters.
    pub fn add_async_gates(&mut self, a: AsyncGatesSnapshot) {
        self.snap.async_gates = a;
    }

    /// Registers the gate runtime's live-migration counters.
    pub fn add_migrations(&mut self, mg: MigrationsSnapshot) {
        self.snap.migrations = mg;
    }

    /// Registers the net stack's counters.
    pub fn add_net(&mut self, net: NetSnapshot) {
        self.snap.net = net;
    }

    /// Registers the serving tier's counters (the readiness layer's
    /// block plus the cooperative executor's).
    pub fn add_serving(&mut self, serving: ServingSnapshot) {
        self.snap.serving = serving;
    }

    /// Registers the machine's request-span tracer: exact per-
    /// `(app, backend)` latency percentiles, per-shard ring accounting
    /// (what the rings overwrote is `events_overwritten`), and the
    /// records of the event tail.
    pub fn add_spans(&mut self, sp: &SpanTrace) {
        self.snap.latency.extend(sp.latency_rows());
        let rings = sp.ring_stats();
        self.snap.events_overwritten = rings.iter().map(|r| r.dropped).sum();
        self.snap.ring_drops = rings;
        self.tail = sp.newest_tail(SNAPSHOT_EVENT_CAP);
    }

    /// Sorts rows (busiest first), turns each tail record into one row,
    /// and returns the snapshot.
    ///
    /// A row's compartment is its record's `src`, except that a fault is
    /// attributed to the compartment owning its protection key when
    /// there is one ([`TraceRegistry::add_faults`]), and a context switch
    /// to the compartment of the thread switched to (its `dst`; its
    /// `src` is the thread). A crossing's detail is its
    /// [`pack_pair`]`(src, dst)`; every other record carries its own.
    pub fn finish(mut self) -> StatsSnapshot {
        self.snap
            .gate_pairs
            .sort_by_key(|r| std::cmp::Reverse(r.crossings));
        self.snap
            .mechanisms
            .sort_by_key(|r| std::cmp::Reverse(r.count));
        self.snap
            .gate_batch
            .sort_by_key(|r| std::cmp::Reverse(r.batches));
        self.snap.latency.sort_by_key(|r| (r.app, r.backend));
        let owners = &self.key_owners;
        let key_owner = |e: &SpanEvent| {
            let key = u16::try_from(e.bytes).ok()?;
            owners.get(&key).copied()
        };
        let row = |&(_, seq, e): &(u16, u64, SpanEvent)| EventRow {
            seq,
            cycles: e.t1,
            compartment: match e.kind {
                SpanKind::Fault => key_owner(&e).unwrap_or(e.src),
                SpanKind::Sched => e.dst,
                _ => e.src,
            },
            kind: e.label.as_str(),
            detail: match e.kind {
                SpanKind::Gate => pack_pair(e.src, e.dst),
                _ => e.bytes,
            },
        };
        self.snap.events = self.tail.iter().map(row).collect();
        self.snap
    }
}

#[cfg(all(test, not(feature = "trace-off")))]
mod tests {
    use super::*;

    /// Records one crossing the way the gate runtime does: one row
    /// update, one span record.
    fn cross(
        gt: &mut GateTrace,
        sp: &mut SpanTrace,
        (mech, src, dst): (Label, u16, u16),
        (cycles, bytes): (u64, u64),
        now: u64,
    ) {
        let row = gt.row(mech, src, dst);
        gt.record_crossing(row, cycles, bytes);
        sp.record_gate(0, mech, src, dst, now - cycles, now, cycles, bytes);
    }

    #[test]
    fn gate_trace_accumulates_pairs_and_hists() {
        let (mut gt, mut sp) = (GateTrace::new(), SpanTrace::new());
        gt.record_direct();
        cross(&mut gt, &mut sp, (Label::MpkShared, 0, 1), (180, 64), 1000);
        cross(&mut gt, &mut sp, (Label::MpkShared, 0, 1), (200, 64), 2000);
        cross(&mut gt, &mut sp, (Label::VmRpc, 1, 2), (7000, 0), 9000);
        assert_eq!(gt.direct_calls(), 1);
        assert_eq!(gt.crossings(Label::MpkShared, 0, 1), 2);
        assert_eq!(gt.crossings(Label::VmRpc, 1, 2), 1);
        assert_eq!(gt.totals(), (3, 128, 7380));
        let h = gt.mechanism_hist(Label::MpkShared).unwrap();
        assert_eq!((h.count(), h.min(), h.max()), (2, 180, 200));
        let h = gt.mechanism_hist(Label::VmRpc).unwrap();
        assert_eq!((h.count(), h.min(), h.max()), (1, 7000, 7000));
    }

    #[test]
    fn registry_builds_sorted_snapshot() {
        let (mut gt, mut sp) = (GateTrace::new(), SpanTrace::new());
        cross(&mut gt, &mut sp, (Label::MpkShared, 0, 1), (10, 0), 10);
        cross(&mut gt, &mut sp, (Label::VmRpc, 1, 0), (20, 0), 20);
        cross(&mut gt, &mut sp, (Label::VmRpc, 1, 0), (30, 0), 30);
        let mut st = SchedSnapshot::default();
        st.record_switch(&mut sp, 7, 1, 35, 40);
        st.record_step(7, 100, 2);
        st.record_step(3, 50, 1);
        st.record_step(7, 10, 2);
        let mut at = AllocTrace::new();
        at.on_alloc(1, 256);
        at.on_fail(&mut sp, 1, 1 << 40, 50);
        let mut ft = FaultTrace::new();
        ft.record(&mut sp, "pkey-violation", Some(2), 60);
        let mut nt = NetSnapshot::default();
        nt.on_drop(&mut sp, 70);

        let names = vec!["rest".to_string(), "net".to_string()];
        let mut reg = TraceRegistry::new();
        reg.set_elapsed(1000);
        reg.add_gates(&gt, &names);
        reg.add_sched(&st);
        reg.add_allocs(&at, &names);
        reg.add_faults(&ft, |k| (k == 2).then(|| (1, "net".to_string())));
        nt.retransmits = 3;
        reg.add_net(nt);
        reg.add_spans(&sp);
        let snap = reg.finish();

        assert_eq!(snap.gate_pairs[0].crossings, 2); // busiest first
        assert_eq!(snap.gate_pairs[0].src_name, "net");
        assert_eq!(snap.sched.switches, 1);
        // Summed per thread, sorted by thread id.
        assert_eq!(snap.sched.task_cycles, vec![(3, 50), (7, 110)]);
        assert_eq!(snap.allocs[0].failures, 1);
        assert_eq!(snap.fault_kinds[0].kind, "pkey-violation");
        assert_eq!(snap.fault_compartments[0].compartment, 1);
        assert_eq!(snap.net.drops, 1);
        assert_eq!(snap.net.retransmits, 3);
        // One row per record, oldest first, with its ring sequence
        // number: a crossing's source compartment, a switch's incoming
        // thread's, the requester of an allocation, the owner of a
        // faulting key.
        let rows: Vec<_> = snap
            .events
            .iter()
            .map(|e| (e.seq, e.cycles, e.compartment, e.kind, e.detail))
            .collect();
        let (p01, p10) = (pack_pair(0, 1), pack_pair(1, 0));
        assert_eq!(
            rows,
            vec![
                (0, 10, 0, "MPK (shared stack)", p01),
                (1, 20, 1, "VM RPC (EPT)", p10),
                (2, 30, 1, "VM RPC (EPT)", p10),
                (3, 40, 1, "ctx-switch", 7),
                (4, 50, 1, "alloc-fail", 1 << 40),
                (5, 60, 1, "fault", 2),
                (6, 70, 0, "packet-drop", 0),
            ]
        );
        let rings: Vec<_> = snap
            .ring_drops
            .iter()
            .map(|r| (r.subsystem, r.owner, r.pushed, r.dropped))
            .collect();
        assert_eq!(rings, vec![("spans", 0, 7, 0)]);
        assert_eq!(snap.events_overwritten, 0);
        assert!(!snap.to_json().is_empty());
    }
}
