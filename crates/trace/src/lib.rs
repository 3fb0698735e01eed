//! `flexos-trace`: per-compartment telemetry for the FlexOS reproduction.
//!
//! FlexOS's claim is that isolation cost is a dial; this crate is the
//! gauge. It provides two always-compiled primitives — counters and
//! fixed-bucket log2 [`CycleHist`]ograms — and one event stream, the
//! machine's per-vCPU [`SpanRing`]s, in which every probe that records an
//! event (a crossing, a context switch, a fault, a failed allocation, a
//! dropped packet, an mq hop, …) writes exactly one [`SpanEvent`]. The
//! per-subsystem trace structs that the hot paths own directly (no
//! globals, no locks: the simulation is single-threaded per image) keep
//! only counters, and a [`TraceRegistry`] folds counters and records into
//! a serializable [`StatsSnapshot`].
//!
//! Building with `--features trace-off` compiles every probe body to a
//! no-op while keeping struct layouts and APIs identical, so the
//! instrumented call sites need no `cfg` of their own.

// A compiled-out probe ignores its arguments, and what only probe
// bodies touch goes unused with them.
#![cfg_attr(feature = "trace-off", allow(unused_variables, dead_code))]

pub mod hist;
pub mod json;
mod ring;
pub mod sheet;
pub mod snapshot;
pub mod span;

pub use hist::{CycleHist, HIST_BUCKETS};
pub use json::JsonWriter;
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

/// Events kept in the final snapshot's tail.
pub const SNAPSHOT_EVENT_CAP: usize = 64;

/// Depth of the ring each row class of the event tail is modelled on:
/// the `ring_drops` report counts every event of a class but its newest
/// 256 as dropped.
pub const EVENT_WINDOW: usize = 256;

/// One `(mechanism, src, dst)` accumulator row of [`GateTrace`].
#[derive(Debug, Clone)]
struct GateRow {
    mechanism: &'static str,
    src: u16,
    dst: u16,
    // Always on: `GateStats` is their sum, `trace-off` or not.
    crossings: u64,
    bytes: u64,
    gate_cycles: u64,
    /// The probe: crossing cost, log2-bucketed.
    hist: CycleHist,
}

/// Telemetry owned by the gate runtime: one accumulator row per
/// `(mechanism, src, dst)` — crossings, bytes, gate cycles and a
/// crossing-cycle histogram — plus the direct-call count and a
/// per-mechanism batch-size histogram.
///
/// A crossing updates exactly one row, addressed by the index
/// [`GateTrace::row`] handed out (the runtime keeps it beside the pair's
/// gate, so the hot path does no lookup). Everything per-pair,
/// per-mechanism or per-compartment in a snapshot is a fold over the
/// rows; per-event views come from the crossing's one span record
/// ([`SpanTrace::record_gate`]).
#[derive(Debug, Clone, Default)]
pub struct GateTrace {
    rows: Vec<GateRow>,
    direct_calls: u64,
    batch_hists: Vec<(&'static str, CycleHist)>,
}

/// Packs a (src, dst) compartment pair into an event `detail` word.
pub fn pack_pair(src: u16, dst: u16) -> u64 {
    ((src as u64) << 16) | dst as u64
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
    /// use — rows therefore sit in first-crossing order, which breaks
    /// ties in the snapshot's busiest-first tables.
    pub fn row(&mut self, mechanism: &'static str, src: u16, dst: u16) -> usize {
        self.find(mechanism, src, dst).unwrap_or_else(|| {
            self.rows.push(GateRow {
                mechanism,
                src,
                dst,
                crossings: 0,
                bytes: 0,
                gate_cycles: 0,
                hist: CycleHist::new(),
            });
            self.rows.len() - 1
        })
    }

    fn find(&self, mechanism: &'static str, src: u16, dst: u16) -> Option<usize> {
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
        r.hist.record(gate_cycles);
    }

    /// Records one batched crossing of `size` calls through `mechanism`
    /// (sizes land in a per-mechanism log2 histogram).
    ///
    /// The gate runtime's one batch loop records this once per
    /// `cross_batch` or ring flush, on every way out, with the number of
    /// calls it issued.
    pub fn record_batch(&mut self, mechanism: &'static str, size: u64) {
        #[cfg(not(feature = "trace-off"))]
        {
            if size == 0 {
                return;
            }
            let i = match self.batch_hists.iter().position(|(m, _)| *m == mechanism) {
                Some(i) => i,
                None => {
                    self.batch_hists.push((mechanism, CycleHist::new()));
                    self.batch_hists.len() - 1
                }
            };
            self.batch_hists[i].1.record(size);
        }
    }

    /// Same-compartment direct calls recorded.
    pub fn direct_calls(&self) -> u64 {
        self.direct_calls
    }

    /// Total crossings for one (mechanism, src, dst) pair.
    pub fn crossings(&self, mechanism: &'static str, src: u16, dst: u16) -> u64 {
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

    /// Per-mechanism crossing-cycle histograms — the rows' histograms
    /// merged by mechanism, in first-use order. Mechanisms that recorded
    /// no sample (every one, under `trace-off`) are absent.
    fn mechanism_hists(&self) -> Vec<(&'static str, CycleHist)> {
        let mut out: Vec<(&'static str, CycleHist)> = Vec::new();
        for r in self.rows.iter().filter(|r| r.hist.count() > 0) {
            match out.iter_mut().find(|(m, _)| *m == r.mechanism) {
                Some((_, h)) => h.merge(&r.hist),
                None => out.push((r.mechanism, r.hist.clone())),
            }
        }
        out
    }

    /// The crossing-cycle histogram for one mechanism, if any crossing
    /// used it.
    pub fn mechanism_hist(&self, mechanism: &'static str) -> Option<CycleHist> {
        let mut hists = self.mechanism_hists().into_iter();
        hists.find(|(m, _)| *m == mechanism).map(|(_, h)| h)
    }

    /// The batch-size histogram for one mechanism, if it ever issued a
    /// batched crossing.
    pub fn batch_hist(&self, mechanism: &'static str) -> Option<&CycleHist> {
        self.batch_hists
            .iter()
            .find(|(m, _)| *m == mechanism)
            .map(|(_, h)| h)
    }

    /// Gate events each compartment saw — one `gate-enter` per crossing
    /// into it, one `gate-exit` per crossing out of it (index =
    /// compartment id). Counted off the probe half of the rows, so all
    /// zero under `trace-off`, like the records the events fold from.
    fn events_per_compartment(&self) -> Vec<u64> {
        let mut per = Vec::new();
        for r in &self.rows {
            let hi = r.src.max(r.dst) as usize;
            if per.len() <= hi {
                per.resize(hi + 1, 0);
            }
            per[r.src as usize] += r.hist.count();
            per[r.dst as usize] += r.hist.count();
        }
        per
    }

    /// Clears all rows and histograms (benchmark warm-up). Row indices
    /// handed out before are void.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// Telemetry owned by the kernel executor: context switches, run-queue
/// depth samples and per-task run cycles.
#[derive(Debug, Clone, Default)]
pub struct SchedTrace {
    switches: u64,
    steps: u64,
    depth_sum: u64,
    depth_samples: u64,
    depth_max: u64,
    task_cycles: Vec<(u32, u64)>,
    last_task: usize,
}

impl SchedTrace {
    /// Fresh, empty trace.
    pub fn new() -> Self {
        Self::default()
    }

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
        #[cfg(not(feature = "trace-off"))]
        {
            self.switches += 1;
        }
        let (src, detail) = (tid as u16, tid.into());
        spans.record_event(
            SpanKind::Sched,
            "ctx-switch",
            src,
            compartment,
            t0,
            t1,
            detail,
        );
    }

    /// Records one executor step of thread `tid` costing `cycles`,
    /// sampling the run queue at `depth` ready threads.
    #[inline]
    pub fn record_step(&mut self, tid: u32, cycles: u64, depth: usize) {
        #[cfg(not(feature = "trace-off"))]
        {
            self.steps += 1;
            self.depth_sum += depth as u64;
            self.depth_samples += 1;
            self.depth_max = self.depth_max.max(depth as u64);
            // Tiny task set; the last-hit cache covers the common case of
            // one runnable thread.
            let i = match self.task_cycles.get(self.last_task) {
                Some((t, _)) if *t == tid => self.last_task,
                _ => match self.task_cycles.iter().position(|(t, _)| *t == tid) {
                    Some(i) => i,
                    None => {
                        self.task_cycles.push((tid, 0));
                        self.task_cycles.len() - 1
                    }
                },
            };
            self.last_task = i;
            self.task_cycles[i].1 += cycles;
        }
    }

    /// Context switches recorded.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Aggregates into a [`SchedSnapshot`].
    pub fn snapshot(&self) -> SchedSnapshot {
        SchedSnapshot {
            switches: self.switches,
            steps: self.steps,
            depth_sum: self.depth_sum,
            depth_samples: self.depth_samples,
            depth_max: self.depth_max,
            task_cycles: {
                let mut v = self.task_cycles.clone();
                v.sort_unstable_by_key(|&(t, _)| t);
                v
            },
        }
    }
}

/// Per-compartment allocator counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocCounters {
    /// Successful allocations.
    pub allocs: u64,
    /// Frees.
    pub frees: u64,
    /// Bytes currently live.
    pub bytes_in_use: u64,
    /// High-water mark of live bytes.
    pub peak_bytes: u64,
    /// Failed allocation requests.
    pub failures: u64,
}

/// Telemetry owned by the heap service: one [`AllocCounters`] per
/// compartment.
#[derive(Debug, Clone, Default)]
pub struct AllocTrace {
    per: Vec<AllocCounters>,
}

impl AllocTrace {
    /// Fresh, empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    #[cfg(not(feature = "trace-off"))]
    fn slot(&mut self, cpt: u16) -> &mut AllocCounters {
        let idx = cpt as usize;
        while self.per.len() <= idx {
            self.per.push(AllocCounters::default());
        }
        &mut self.per[idx]
    }

    /// Records a successful allocation of `bytes` for compartment `cpt`.
    #[inline]
    pub fn on_alloc(&mut self, cpt: u16, bytes: u64) {
        #[cfg(not(feature = "trace-off"))]
        {
            let s = self.slot(cpt);
            s.allocs += 1;
            s.bytes_in_use += bytes;
            s.peak_bytes = s.peak_bytes.max(s.bytes_in_use);
        }
    }

    /// Records a free of `bytes` for compartment `cpt`.
    #[inline]
    pub fn on_free(&mut self, cpt: u16, bytes: u64) {
        #[cfg(not(feature = "trace-off"))]
        {
            let s = self.slot(cpt);
            s.frees += 1;
            s.bytes_in_use = s.bytes_in_use.saturating_sub(bytes);
        }
    }

    /// Records a failed allocation of `bytes` for compartment `cpt` at
    /// machine time `now`: one count here, one `alloc-fail` record in
    /// `spans` whose detail is `bytes`.
    #[inline]
    pub fn on_fail(&mut self, spans: &mut SpanTrace, cpt: u16, bytes: u64, now: u64) {
        #[cfg(not(feature = "trace-off"))]
        {
            self.slot(cpt).failures += 1;
        }
        spans.record_event(SpanKind::AllocFail, "alloc-fail", cpt, cpt, now, now, bytes);
    }

    /// Counters for compartment `cpt` (zeroes if never touched).
    pub fn counters(&self, cpt: u16) -> AllocCounters {
        self.per.get(cpt as usize).copied().unwrap_or_default()
    }

    /// All per-compartment counters (index = compartment id).
    pub fn all(&self) -> &[AllocCounters] {
        &self.per
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
        #[cfg(not(feature = "trace-off"))]
        {
            *self.by_kind.entry(kind).or_default() += 1;
            if let Some(k) = key {
                *self.by_key.entry(k).or_default() += 1;
            }
        }
        spans.record_event(SpanKind::Fault, "fault", 0, 0, now, now, detail);
    }

    /// Records a fault deliberately injected by the chaos layer at
    /// machine time `now`. Counted under `kind` (an `"injected-*"` tag)
    /// like any other class, but its record is labelled `injected`, so
    /// the event tail separates injected faults from enforcement faults.
    #[cold]
    pub fn record_injected(&mut self, spans: &mut SpanTrace, kind: &'static str, now: u64) {
        #[cfg(not(feature = "trace-off"))]
        {
            *self.by_kind.entry(kind).or_default() += 1;
        }
        spans.record_event(SpanKind::Fault, "injected", 0, 0, now, now, u64::MAX);
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

/// Telemetry owned by the machine's software TLB (the per-vCPU
/// translation cache in front of the page-table walk): hit, miss and
/// flush counters.
///
/// A *flush* is one machine-level page-table mutation (region map,
/// unmap, retag or seal) that invalidated the cached translations of
/// the affected VM via its generation counter — lazy invalidation, so
/// one flush may expire many cached entries. Like every probe in this
/// crate, all three counters compile to no-ops under `trace-off`.
#[derive(Debug, Clone, Copy, Default)]
pub struct TlbTrace {
    hits: u64,
    misses: u64,
    flushes: u64,
}

impl TlbTrace {
    /// Fresh, zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts a translation served from the cache.
    #[inline]
    pub fn hit(&mut self) {
        #[cfg(not(feature = "trace-off"))]
        {
            self.hits += 1;
        }
    }

    /// Counts a lookup that had to fall back to the page-table walk
    /// (including walks that end in a page fault).
    #[inline]
    pub fn miss(&mut self) {
        #[cfg(not(feature = "trace-off"))]
        {
            self.misses += 1;
        }
    }

    /// Counts one generation-bumping page-table mutation.
    #[inline]
    pub fn flush(&mut self) {
        #[cfg(not(feature = "trace-off"))]
        {
            self.flushes += 1;
        }
    }

    /// Cache hits recorded.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Walk fallbacks recorded.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Invalidating mutations recorded.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// The serializable view.
    pub fn snapshot(&self) -> TlbSnapshot {
        TlbSnapshot {
            hits: self.hits,
            misses: self.misses,
            flushes: self.flushes,
        }
    }
}

/// Telemetry owned by the net stack: packet counters.
#[derive(Debug, Clone, Default)]
pub struct NetTrace {
    rx_segments: u64,
    tx_segments: u64,
    rx_datagrams: u64,
    drops: u64,
    backlog_overflows: u64,
}

impl NetTrace {
    /// Fresh, empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a received TCP segment.
    #[inline]
    pub fn on_rx_segment(&mut self) {
        #[cfg(not(feature = "trace-off"))]
        {
            self.rx_segments += 1;
        }
    }

    /// Records a transmitted TCP segment.
    #[inline]
    pub fn on_tx_segment(&mut self) {
        #[cfg(not(feature = "trace-off"))]
        {
            self.tx_segments += 1;
        }
    }

    /// Records a delivered UDP datagram.
    #[inline]
    pub fn on_rx_datagram(&mut self) {
        #[cfg(not(feature = "trace-off"))]
        {
            self.rx_datagrams += 1;
        }
    }

    /// Records a demux drop at machine time `now`: one count here, one
    /// `packet-drop` record in `spans` with detail 0.
    #[inline]
    pub fn on_drop(&mut self, spans: &mut SpanTrace, now: u64) {
        #[cfg(not(feature = "trace-off"))]
        {
            self.drops += 1;
        }
        spans.record_event(SpanKind::Drop, "packet-drop", 0, 0, now, now, 0);
    }

    /// Records a SYN dropped because the listener's accept backlog was
    /// at capacity (the connection storm the serving tier must survive):
    /// one count here, one `packet-drop` record in `spans` with detail 1.
    #[inline]
    pub fn on_backlog_overflow(&mut self, spans: &mut SpanTrace, now: u64) {
        #[cfg(not(feature = "trace-off"))]
        {
            self.backlog_overflows += 1;
        }
        spans.record_event(SpanKind::Drop, "packet-drop", 0, 0, now, now, 1);
    }

    /// Drops recorded.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Backlog-overflow SYN drops recorded.
    pub fn backlog_overflows(&self) -> u64 {
        self.backlog_overflows
    }

    /// Aggregates into a [`NetSnapshot`]; `retransmits` is supplied by
    /// the stack (summed over live TCP connections).
    pub fn snapshot(&self, retransmits: u64) -> NetSnapshot {
        NetSnapshot {
            rx_segments: self.rx_segments,
            tx_segments: self.tx_segments,
            rx_datagrams: self.rx_datagrams,
            drops: self.drops,
            backlog_overflows: self.backlog_overflows,
            retransmits,
        }
    }
}

/// Telemetry owned by the readiness layer (`EventQueue` in
/// `flexos-net`): event posting, coalescing and delivery counters.
///
/// Host-side bookkeeping only — posting an event charges no simulated
/// cycles, so the counters are purely additive to the baseline figures.
#[derive(Debug, Clone, Copy, Default)]
pub struct EventQueueTrace {
    posted: u64,
    coalesced: u64,
    polls: u64,
    delivered: u64,
}

impl EventQueueTrace {
    /// Fresh, zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one readiness event posted (socket newly enqueued).
    #[inline]
    pub fn on_post(&mut self) {
        #[cfg(not(feature = "trace-off"))]
        {
            self.posted += 1;
        }
    }

    /// Counts an event merged into an already-queued socket entry.
    #[inline]
    pub fn on_coalesce(&mut self) {
        #[cfg(not(feature = "trace-off"))]
        {
            self.coalesced += 1;
        }
    }

    /// Counts one `poll()` that delivered `n` ready sockets.
    #[inline]
    pub fn on_poll(&mut self, n: u64) {
        #[cfg(not(feature = "trace-off"))]
        {
            self.polls += 1;
            self.delivered += n;
        }
    }

    /// Events posted (new queue entries).
    pub fn posted(&self) -> u64 {
        self.posted
    }

    /// Events coalesced into pending entries.
    pub fn coalesced(&self) -> u64 {
        self.coalesced
    }

    /// Polls issued.
    pub fn polls(&self) -> u64 {
        self.polls
    }

    /// Ready sockets delivered across all polls.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }
}

/// Telemetry owned by the cooperative per-connection executor
/// (`CoExecutor` in `flexos-kernel`): task spawn/run/wake
/// counters. Same additive, host-side-only contract as
/// [`EventQueueTrace`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecutorTrace {
    spawned: u64,
    tasks_run: u64,
    wakeups: u64,
}

impl ExecutorTrace {
    /// Fresh, zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts a task spawned.
    #[inline]
    pub fn on_spawn(&mut self) {
        #[cfg(not(feature = "trace-off"))]
        {
            self.spawned += 1;
        }
    }

    /// Counts one task step run.
    #[inline]
    pub fn on_run(&mut self) {
        #[cfg(not(feature = "trace-off"))]
        {
            self.tasks_run += 1;
        }
    }

    /// Counts a wakeup (task moved from waiting to the run queue).
    #[inline]
    pub fn on_wake(&mut self) {
        #[cfg(not(feature = "trace-off"))]
        {
            self.wakeups += 1;
        }
    }

    /// Tasks spawned.
    pub fn spawned(&self) -> u64 {
        self.spawned
    }

    /// Task steps run.
    pub fn tasks_run(&self) -> u64 {
        self.tasks_run
    }

    /// Wakeups delivered.
    pub fn wakeups(&self) -> u64 {
        self.wakeups
    }

    /// Adds `other`'s counters into `self`: the image's serving block
    /// takes in the counters of the executor the serve harness owned.
    pub fn merge_counters(&mut self, other: &Self) {
        self.spawned += other.spawned;
        self.tasks_run += other.tasks_run;
        self.wakeups += other.wakeups;
    }
}

/// Aggregates live trace structs into one [`StatsSnapshot`].
///
/// The caller registers each subsystem's trace (with whatever naming
/// context it has — compartment names, key ownership) and then calls
/// [`TraceRegistry::finish`], which sorts rows, folds the event tail,
/// and returns the snapshot.
///
/// No subsystem keeps an event ring. Every row of the tail is a fold,
/// done in `finish`, over a count the subsystem's trace keeps (handed
/// over when it registers) and the newest records of the matching
/// [`SpanKind`] in the span rings ([`TraceRegistry::add_spans`]) — as if
/// each row class had its own [`EVENT_WINDOW`]-deep ring: the scheduler
/// one for `ctx-switch`es, the heap service one for `alloc-fail`s, the
/// machine one for `fault`s and `injected` faults, the net stack one for
/// `packet-drop`s, and every compartment one that took a `gate-enter`
/// per crossing into it and a `gate-exit` per crossing out of it.
#[derive(Debug, Default)]
pub struct TraceRegistry {
    snap: StatsSnapshot,
    /// The tail's row classes in registration order (`finish` merges
    /// them in that order, and the sort by time is stable): the kind
    /// folded, the owning compartment, the events it ever recorded.
    tails: Vec<(SpanKind, u16, u64)>,
    gate_events_per_compartment: Vec<u64>,
    /// Protection key → owning compartment, for `fault` rows.
    key_owners: BTreeMap<u16, u16>,
    /// Every reachable tail record, completion order.
    records: Vec<SpanEvent>,
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

    /// Registers one row class of the tail: `kind` records owned by
    /// `owner`, `pushed` of them ever recorded.
    fn add_tail(&mut self, subsystem: &'static str, kind: SpanKind, owner: u16, pushed: u64) {
        self.note_ring(subsystem, owner, pushed);
        self.tails.push((kind, owner, pushed));
    }

    /// Records one modelled ring's push/drop accounting for the
    /// `--stats` dropped-events report: what an [`EVENT_WINDOW`]-deep
    /// ring would have lost. Rings that never recorded are skipped so
    /// the table stays workload-shaped.
    fn note_ring(&mut self, subsystem: &'static str, owner: u16, pushed: u64) {
        let dropped = pushed - pushed.min(EVENT_WINDOW as u64);
        self.snap.events_overwritten += dropped;
        if pushed == 0 {
            return;
        }
        self.snap.ring_drops.push(RingDropRow {
            subsystem,
            owner,
            pushed,
            dropped,
        });
    }

    /// Registers the gate runtime's trace. `names[i]` names compartment `i`.
    pub fn add_gates(&mut self, gt: &GateTrace, names: &[String]) {
        self.snap.direct_calls += gt.direct_calls();
        for r in &gt.rows {
            self.snap.gate_pairs.push(GatePairRow {
                mechanism: r.mechanism,
                src: r.src,
                dst: r.dst,
                src_name: Self::name_of(names, r.src),
                dst_name: Self::name_of(names, r.dst),
                crossings: r.crossings,
                bytes: r.bytes,
                gate_cycles: r.gate_cycles,
            });
        }
        for (mech, h) in gt.mechanism_hists() {
            let (p50, p90, p99) = h.quantiles();
            self.snap.mechanisms.push(MechanismRow {
                mechanism: mech,
                count: h.count(),
                p50,
                p90,
                p99,
                mean: h.mean(),
                max: h.max(),
            });
        }
        for &(mech, ref h) in gt.batch_hists.iter() {
            self.snap.gate_batch.push(GateBatchRow {
                mechanism: mech,
                batches: h.count(),
                calls: h.sum(),
                p50: h.percentile(0.50),
                max: h.max(),
            });
        }
        let per_compartment = gt.events_per_compartment();
        for (cpt, &pushed) in per_compartment.iter().enumerate() {
            self.note_ring("gates", cpt as u16, pushed);
        }
        self.tails.push((SpanKind::Gate, 0, 0));
        self.gate_events_per_compartment = per_compartment;
    }

    /// Registers the executor's trace; switch events are attributed to
    /// compartment `sched_cpt` (the compartment the scheduler lives in).
    pub fn add_sched(&mut self, st: &SchedTrace, sched_cpt: u16) {
        self.snap.sched = st.snapshot();
        self.add_tail("sched", SpanKind::Sched, sched_cpt, st.switches());
    }

    /// Registers the heap service's trace. `names[i]` names compartment `i`.
    pub fn add_allocs(&mut self, at: &AllocTrace, names: &[String]) {
        for (i, c) in at.all().iter().enumerate() {
            if c.allocs == 0 && c.frees == 0 && c.failures == 0 {
                continue;
            }
            self.snap.allocs.push(AllocRow {
                compartment: i as u16,
                name: Self::name_of(names, i as u16),
                allocs: c.allocs,
                frees: c.frees,
                bytes_in_use: c.bytes_in_use,
                peak_bytes: c.peak_bytes,
                failures: c.failures,
            });
        }
        // The tail attributes failures to compartment 0, this row's
        // owner; each record's `src` names the requester.
        let failures = at.all().iter().map(|c| c.failures).sum();
        self.add_tail("allocs", SpanKind::AllocFail, 0, failures);
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
        // Fault rows are attributed to the compartment owning the key
        // when there is one (`key_owners`), else to compartment 0.
        self.add_tail("faults", SpanKind::Fault, 0, ft.total());
    }

    /// Registers the machine's software-TLB counters.
    pub fn add_tlb(&mut self, tt: &TlbTrace) {
        self.snap.tlb = tt.snapshot();
    }

    /// Registers the gate runtime's async-ring counters.
    pub fn add_async_gates(&mut self, a: AsyncGatesSnapshot) {
        self.snap.async_gates = a;
    }

    /// Registers the gate runtime's live-migration counters.
    pub fn add_migrations(&mut self, mg: MigrationsSnapshot) {
        self.snap.migrations = mg;
    }

    /// Registers the net stack's trace, attributed to compartment
    /// `net_cpt`. `retransmits` is summed over the stack's connections.
    pub fn add_net(&mut self, nt: &NetTrace, retransmits: u64, net_cpt: u16) {
        self.snap.net = nt.snapshot(retransmits);
        let pushed = nt.drops() + nt.backlog_overflows();
        self.add_tail("net", SpanKind::Drop, net_cpt, pushed);
    }

    /// Registers the serving tier's counters: the readiness layer's
    /// [`EventQueueTrace`] plus the cooperative executor's
    /// [`ExecutorTrace`].
    pub fn add_serving(&mut self, eq: &EventQueueTrace, ex: &ExecutorTrace) {
        self.snap.serving = ServingSnapshot {
            events_posted: eq.posted(),
            events_coalesced: eq.coalesced(),
            polls: eq.polls(),
            events_delivered: eq.delivered(),
            tasks_spawned: ex.spawned(),
            tasks_run: ex.tasks_run(),
            wakeups: ex.wakeups(),
        };
    }

    /// Registers the machine's request-span tracer: exact per-
    /// `(app, backend)` latency percentiles, per-shard ring accounting,
    /// and the records every row of the event tail is folded from.
    pub fn add_spans(&mut self, sp: &SpanTrace) {
        self.snap.latency.extend(sp.latency_rows());
        self.snap.ring_drops.extend(sp.ring_stats());
        self.records = sp.tail();
    }

    /// The newest reachable records of `kind`, newest first, at most
    /// [`span::TAIL_PER_KIND`] of them — fewer than a modelled ring
    /// holds, so every row folded from them is one its ring would still
    /// have.
    fn newest(&self, kind: SpanKind) -> impl Iterator<Item = &SpanEvent> {
        const _: () = assert!(span::TAIL_PER_KIND <= EVENT_WINDOW);
        let of_kind = self.records.iter().rev().filter(move |e| e.kind == kind);
        of_kind.take(span::TAIL_PER_KIND)
    }

    /// The rows of one non-gate class: walks its newest records back
    /// from the `pushed` count, so every row carries the sequence number
    /// its ring would have given it. Oldest first.
    fn class_events(&self, kind: SpanKind, owner: u16, pushed: u64) -> Vec<EventRow> {
        let mut rows: Vec<EventRow> = (0..pushed)
            .rev()
            .zip(self.newest(kind))
            .map(|(seq, e)| EventRow {
                seq,
                cycles: e.t1,
                compartment: match kind {
                    SpanKind::Fault => u16::try_from(e.bytes)
                        .ok()
                        .and_then(|key| self.key_owners.get(&key).copied())
                        .unwrap_or(0),
                    _ => owner,
                },
                kind: e.label,
                detail: e.bytes,
            })
            .collect();
        rows.reverse();
        rows
    }

    /// The gate rows of the event tail: walks the newest crossings back
    /// from each compartment's final event count, so every row carries
    /// the sequence number its compartment's ring would have given it.
    /// A crossing gives a compartment at most one row. Returned in
    /// ring-merge order: by compartment, then seq.
    fn gate_events(&self) -> Vec<EventRow> {
        let mut next = self.gate_events_per_compartment.clone();
        let mut rows = Vec::new();
        for r in self.newest(SpanKind::Gate) {
            // A crossing pushes `gate-enter` first; backwards, `gate-exit`.
            for (cpt, kind) in [(r.src, "gate-exit"), (r.dst, "gate-enter")] {
                let Some(n) = next.get_mut(cpt as usize).filter(|n| **n > 0) else {
                    continue;
                };
                *n -= 1;
                rows.push(EventRow {
                    seq: *n,
                    cycles: r.t1,
                    compartment: cpt,
                    kind,
                    detail: pack_pair(r.src, r.dst),
                });
            }
        }
        rows.sort_by_key(|e| (e.compartment, e.seq));
        rows
    }

    /// Sorts rows (busiest first), folds every registered class of the
    /// tail and merges them into one time-ordered tail of at most
    /// [`SNAPSHOT_EVENT_CAP`] entries, and returns the snapshot.
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
        self.snap.ring_drops.sort_by_key(|r| (r.subsystem, r.owner));
        let mut events = Vec::new();
        for &(kind, owner, pushed) in &self.tails {
            events.extend(match kind {
                SpanKind::Gate => self.gate_events(),
                _ => self.class_events(kind, owner, pushed),
            });
        }
        events.sort_by_key(|e| e.cycles);
        let drop = events.len().saturating_sub(SNAPSHOT_EVENT_CAP);
        events.drain(..drop);
        self.snap.events = events;
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
        (mech, src, dst): (&'static str, u16, u16),
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
        cross(
            &mut gt,
            &mut sp,
            ("MPK (shared stack)", 0, 1),
            (180, 64),
            1000,
        );
        cross(
            &mut gt,
            &mut sp,
            ("MPK (shared stack)", 0, 1),
            (200, 64),
            2000,
        );
        cross(&mut gt, &mut sp, ("VM RPC (EPT)", 1, 2), (7000, 0), 9000);
        assert_eq!(gt.direct_calls(), 1);
        assert_eq!(gt.crossings("MPK (shared stack)", 0, 1), 2);
        assert_eq!(gt.crossings("VM RPC (EPT)", 1, 2), 1);
        assert_eq!(gt.totals(), (3, 128, 7380));
        let h = gt.mechanism_hist("MPK (shared stack)").unwrap();
        assert_eq!((h.count(), h.min(), h.max()), (2, 180, 200));
        // Compartment 1 saw two enters (from 0) and one exit (to 2).
        assert_eq!(gt.events_per_compartment(), vec![2, 3, 1]);
    }

    #[test]
    fn gate_events_fold_out_of_the_newest_records() {
        let (mut gt, mut sp) = (GateTrace::new(), SpanTrace::new());
        // 200 crossings 0 -> 1, then one 1 -> 2: compartment 1's ring
        // would hold 201 events, compartment 0's 200, compartment 2's 1.
        for i in 0..200 {
            cross(&mut gt, &mut sp, ("a", 0, 1), (10, 0), 100 + i);
        }
        cross(&mut gt, &mut sp, ("b", 1, 2), (10, 0), 1000);
        // Far more mq spans than the ring holds: every crossing record
        // is evicted, the newest stay reachable.
        for i in 0..3 * DEFAULT_SPAN_RING_CAP as u64 {
            sp.record(0, SpanKind::MqHop, "mq-send", 0, 0, 2000 + i, 2001 + i);
        }
        let mut reg = TraceRegistry::new();
        reg.add_gates(&gt, &[]);
        reg.add_spans(&sp);
        let snap = reg.finish();
        assert_eq!(snap.events.len(), SNAPSHOT_EVENT_CAP);
        let last: Vec<_> = snap.events[SNAPSHOT_EVENT_CAP - 3..]
            .iter()
            .map(|e| (e.seq, e.cycles, e.compartment, e.kind, e.detail))
            .collect();
        assert_eq!(
            last,
            vec![
                (199, 299, 1, "gate-enter", pack_pair(0, 1)),
                (200, 1000, 1, "gate-exit", pack_pair(1, 2)),
                (0, 1000, 2, "gate-enter", pack_pair(1, 2)),
            ]
        );
        let gates: Vec<_> = snap
            .ring_drops
            .iter()
            .filter(|r| r.subsystem == "gates")
            .map(|r| (r.owner, r.pushed, r.dropped))
            .collect();
        assert_eq!(gates, vec![(0, 200, 0), (1, 201, 0), (2, 1, 0)]);
    }

    #[test]
    fn gate_rings_report_what_a_256_deep_ring_would_drop() {
        let (mut gt, mut sp) = (GateTrace::new(), SpanTrace::new());
        for i in 0..300 {
            cross(&mut gt, &mut sp, ("a", 0, 1), (10, 0), 100 + i);
        }
        let mut reg = TraceRegistry::new();
        reg.add_gates(&gt, &[]);
        reg.add_spans(&sp);
        let snap = reg.finish();
        assert_eq!(snap.events_overwritten, 2 * 44);
        assert_eq!(snap.events.last().map(|e| e.seq), Some(299));
    }

    #[test]
    fn registry_builds_sorted_snapshot() {
        let (mut gt, mut sp) = (GateTrace::new(), SpanTrace::new());
        cross(&mut gt, &mut sp, ("a", 0, 1), (10, 0), 10);
        cross(&mut gt, &mut sp, ("b", 1, 0), (20, 0), 20);
        cross(&mut gt, &mut sp, ("b", 1, 0), (30, 0), 30);
        let mut st = SchedTrace::new();
        st.record_switch(&mut sp, 7, 0, 35, 40);
        st.record_step(7, 100, 2);
        let mut at = AllocTrace::new();
        at.on_alloc(1, 256);
        at.on_fail(&mut sp, 1, 1 << 40, 50);
        let mut ft = FaultTrace::new();
        ft.record(&mut sp, "pkey-violation", Some(2), 60);
        let mut nt = NetTrace::new();
        nt.on_drop(&mut sp, 70);

        let names = vec!["rest".to_string(), "net".to_string()];
        let mut reg = TraceRegistry::new();
        reg.set_elapsed(1000);
        reg.add_gates(&gt, &names);
        reg.add_sched(&st, 0);
        reg.add_allocs(&at, &names);
        reg.add_faults(&ft, |k| (k == 2).then(|| (1, "net".to_string())));
        reg.add_net(&nt, 3, 1);
        reg.add_spans(&sp);
        let snap = reg.finish();

        assert_eq!(snap.gate_pairs[0].crossings, 2); // busiest first
        assert_eq!(snap.gate_pairs[0].src_name, "net");
        assert_eq!(snap.sched.switches, 1);
        assert_eq!(snap.allocs[0].failures, 1);
        assert_eq!(snap.fault_kinds[0].kind, "pkey-violation");
        assert_eq!(snap.fault_compartments[0].compartment, 1);
        assert_eq!(snap.net.drops, 1);
        assert_eq!(snap.net.retransmits, 3);
        // One time-ordered tail; equal times keep the gate rings' order.
        let rows: Vec<_> = snap
            .events
            .iter()
            .map(|e| (e.seq, e.cycles, e.compartment, e.kind, e.detail))
            .collect();
        let (p01, p10) = (pack_pair(0, 1), pack_pair(1, 0));
        assert_eq!(
            rows,
            vec![
                (0, 10, 0, "gate-exit", p01),
                (0, 10, 1, "gate-enter", p01),
                (1, 20, 0, "gate-enter", p10),
                (1, 20, 1, "gate-exit", p10),
                (2, 30, 0, "gate-enter", p10),
                (2, 30, 1, "gate-exit", p10),
                (0, 40, 0, "ctx-switch", 7),
                (0, 50, 0, "alloc-fail", 1 << 40),
                (0, 60, 1, "fault", 2),
                (0, 70, 1, "packet-drop", 0),
            ]
        );
        assert!(!snap.to_json().is_empty());
    }

    /// Every class past its modelled ring, its records evicted by mq
    /// spans, some events in the same cycle: the rows carry the ring's
    /// sequence numbers, the report what a 256-deep ring would drop, and
    /// same-cycle rows keep registration order.
    #[test]
    fn every_tail_class_folds_from_its_count_and_newest_records() {
        let mut sp = SpanTrace::new();
        let (mut st, mut at, mut ft, mut nt) = (
            SchedTrace::new(),
            AllocTrace::new(),
            FaultTrace::new(),
            NetTrace::new(),
        );
        for t in 0..300 {
            st.record_switch(&mut sp, 70_000 + t as u32, 3, 10 * t, 10 * t + 5);
            ft.record_injected(&mut sp, "injected-oom", 10 * t + 5);
            at.on_fail(&mut sp, 2, 64 + t, 10 * t + 5);
            ft.record(&mut sp, "pkey-violation", Some((t % 3) as u16), 10 * t + 6);
            nt.on_backlog_overflow(&mut sp, 10 * t + 6);
        }
        nt.on_drop(&mut sp, 4000);
        for i in 0..3 * DEFAULT_SPAN_RING_CAP as u64 {
            sp.record(0, SpanKind::MqHop, "mq-send", 0, 0, 5000 + i, 5001 + i);
        }
        let mut reg = TraceRegistry::new();
        reg.add_sched(&st, 3);
        reg.add_allocs(&at, &[]);
        reg.add_faults(&ft, |k| (k == 1).then(|| (4, "four".to_string())));
        reg.add_net(&nt, 0, 5);
        reg.add_spans(&sp);
        let snap = reg.finish();
        let drops: Vec<_> = snap
            .ring_drops
            .iter()
            .filter(|r| r.subsystem != "spans")
            .map(|r| (r.subsystem, r.owner, r.pushed, r.dropped))
            .collect();
        assert_eq!(
            drops,
            vec![
                ("allocs", 0, 300, 44),
                ("faults", 0, 600, 344),
                ("net", 5, 301, 45),
                ("sched", 3, 300, 44),
            ]
        );
        assert_eq!(snap.events_overwritten, 44 + 344 + 45 + 44);
        let rows: Vec<_> = snap.events[SNAPSHOT_EVENT_CAP - 8..]
            .iter()
            .map(|e| (e.seq, e.cycles, e.compartment, e.kind, e.detail))
            .collect();
        assert_eq!(
            rows,
            vec![
                (597, 2986, 4, "fault", 1),
                (298, 2986, 5, "packet-drop", 1),
                (299, 2995, 3, "ctx-switch", 70_299),
                (299, 2995, 0, "alloc-fail", 363),
                (598, 2995, 0, "injected", u64::MAX),
                (599, 2996, 0, "fault", 2),
                (299, 2996, 5, "packet-drop", 1),
                (300, 4000, 5, "packet-drop", 0),
            ]
        );
    }
}
