//! Causal, request-scoped span tracing (PR 7).
//!
//! A [`SpanId`] is allocated per request (one Redis command, one iperf
//! receive burst) and every subsystem the request touches — gates,
//! doorbells, the scheduler, kernel message queues, the net stack —
//! records a `[t0, t1]` interval against the *current* span. Events land
//! in per-vCPU shard rings ([`SpanRing`]) keyed by the plan-determined
//! vCPU of the compartment doing the work, never by scheduler state, so
//! a deterministic run produces the byte-identical event stream run to
//! run.
//!
//! Three consumers:
//!
//! * [`SpanTrace::to_chrome_json`] renders the merged stream as Chrome
//!   trace-event JSON (Perfetto-loadable): one track per vCPU, one per
//!   compartment, `s`/`f` flow arrows across gate crossings and
//!   doorbells, async `b`/`e` pairs for whole requests.
//! * [`crate::TraceRegistry`] reads the `--stats` event tail, the newest
//!   crossings, switches, faults, failed allocations and drops the rings
//!   hold, and reports the rings' push and overwrite counts.
//! * [`SpanTrace::latency_rows`] folds completed requests into exact
//!   per-`(app, backend)` p50/p99/p999 end-to-end latency. Each key keeps
//!   a count per distinct latency, and a percentile walks the cumulative
//!   counts to its nearest rank — the value a sort of every sample would
//!   give, exact and deterministic, not bucketed like the PR-2
//!   histograms, in memory that grows with the distinct latencies (tens
//!   per workload), not with the requests.
//!
//! Like every probe since PR 2, the whole module compiles to no-ops
//! under the `trace-off` feature: probes never touch the machine clock,
//! so simulated cycles are identical with tracing on or off by
//! construction.

use crate::json::JsonWriter;
use crate::label::Label;
use crate::snapshot::{LatencyRow, RingDropRow};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A request-scoped trace identifier. `SpanId(0)` means "no span".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null span (no request in flight, or tracing compiled out).
    pub const NONE: SpanId = SpanId(0);
}

/// What kind of work a span interval covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A whole request, end to end (`begin_request`/`end_request`).
    Request,
    /// One gate crossing (enter + exit window).
    Gate,
    /// A VM-RPC doorbell ring (`Machine::notify`, coalesced or not).
    Doorbell,
    /// A scheduler context switch.
    Sched,
    /// A kernel message-queue hop (send or receive).
    MqHop,
    /// Net-stack work (segment rx/tx).
    Net,
    /// A fault the machine raised (label `"fault"`, detail: the
    /// protection key involved, or `u64::MAX`) or the chaos layer
    /// injected (label `"injected"`, detail `u64::MAX`).
    Fault,
    /// A failed allocation (label `"alloc-fail"`, detail: the bytes
    /// requested).
    AllocFail,
    /// A frame dropped at demux (detail 0) or a SYN shed at a full
    /// accept backlog (detail 1); label `"packet-drop"`.
    Drop,
    /// A live gate-backend migration phase (drain start/end, swap,
    /// first post-swap crossing).
    Migrate,
}

impl SpanKind {
    /// Short machine-readable tag (also the Chrome trace category).
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Request => "request",
            SpanKind::Gate => "gate",
            SpanKind::Doorbell => "doorbell",
            SpanKind::Sched => "sched",
            SpanKind::MqHop => "mq",
            SpanKind::Net => "net",
            SpanKind::Fault => "fault",
            SpanKind::AllocFail => "alloc-fail",
            SpanKind::Drop => "packet-drop",
            SpanKind::Migrate => "migrate",
        }
    }

    /// Whether records of this kind are rows of the `--stats` event tail
    /// (a crossing, a context switch, a fault, a failed allocation, a
    /// drop).
    #[inline(always)]
    pub fn in_tail(self) -> bool {
        matches!(
            self,
            SpanKind::Gate
                | SpanKind::Sched
                | SpanKind::Fault
                | SpanKind::AllocFail
                | SpanKind::Drop
        )
    }
}

/// One recorded interval, attributed to a span — the one fixed-size
/// record every probe writes (48 bytes: five words, two ids, two tags;
/// a gate crossing writes exactly one). Its sequence number is its
/// position in the shard's push order and is not stored:
/// [`SpanRing::events`] derives it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Owning request span (may be [`SpanId::NONE`] for unattributed
    /// background work, e.g. scheduler switches between requests).
    pub span: SpanId,
    /// Interval start, simulated cycles.
    pub t0: u64,
    /// Interval end, simulated cycles (`>= t0`).
    pub t1: u64,
    /// Gate crossings: cycles spent in the enter + exit sequences
    /// (0 for every other kind).
    pub gate_cycles: u64,
    /// Gate crossings: argument + return bytes marshalled. The other
    /// tail kinds: the event tail row's `detail` word (see [`SpanKind`]).
    /// 0 otherwise.
    pub bytes: u64,
    /// Source compartment / thread id (kind-specific).
    pub src: u16,
    /// Destination compartment id (kind-specific).
    pub dst: u16,
    /// Work class.
    pub kind: SpanKind,
    /// Mechanism or subsystem label ([`Label::MpkShared`], …).
    pub label: Label,
}

/// Default per-vCPU span ring capacity. Sized so a shard's buffer
/// (48 B/event) stays at 48 KiB — inside a typical L2 — because the
/// overwrite path cycles through the whole buffer and every event write
/// lands on a cold line once the ring outgrows the cache.
pub const DEFAULT_SPAN_RING_CAP: usize = 1024;

/// A bounded per-vCPU span ring with overwrite-oldest semantics:
/// `pushed() - len()` events were lost.
///
/// A flat `Vec` plus a head index rather than a deque, so a push on a
/// full ring is a single indexed store and never allocates. It counts
/// its pushes by the head's laps, so a push moves no counter but `head`.
#[derive(Debug, Clone)]
pub struct SpanRing {
    cap: usize,
    /// The oldest slot, once the ring is full.
    head: usize,
    /// Times `head` wrapped back to slot 0.
    laps: u64,
    buf: Vec<SpanEvent>,
}

impl Default for SpanRing {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_SPAN_RING_CAP)
    }
}

impl SpanRing {
    /// A ring holding at most `cap` events, allocated up front.
    pub fn with_capacity(cap: usize) -> Self {
        let cap = cap.max(1);
        Self {
            cap,
            head: 0,
            laps: 0,
            buf: Vec::with_capacity(cap),
        }
    }

    /// Records an event, overwriting the oldest when full. No-op under
    /// `trace-off` (so `pushed()` stays 0). Always inlined: the caller's
    /// record is built straight into its slot.
    #[inline(always)]
    pub fn push(&mut self, ev: SpanEvent) {
        #[cfg(not(feature = "trace-off"))]
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head += 1;
            if self.head == self.cap {
                self.head = 0;
                self.laps += 1;
            }
        }
    }

    /// Total events ever pushed: those held plus one per overwrite.
    pub fn pushed(&self) -> u64 {
        let overwrites = self.laps * self.cap as u64 + self.head as u64;
        self.buf.len() as u64 + overwrites
    }

    /// Events lost to overwrite.
    pub fn dropped(&self) -> u64 {
        self.pushed() - self.buf.len() as u64
    }

    /// Events held, oldest first.
    fn held(&self) -> impl DoubleEndedIterator<Item = &SpanEvent> {
        let (tail, head) = self.buf.split_at(self.head);
        head.iter().chain(tail)
    }

    /// Events currently held with their sequence numbers, oldest first.
    pub fn events(&self) -> impl Iterator<Item = (u64, &SpanEvent)> {
        (self.dropped()..).zip(self.held())
    }

    /// Events currently held with their sequence numbers, newest first.
    fn newest(&self) -> impl Iterator<Item = (u64, &SpanEvent)> {
        (0..self.pushed()).rev().zip(self.held().rev())
    }
}

/// The completed-request latencies of one `(app, backend)` key, as an
/// exact multiset: how many requests took each distinct latency. A
/// workload's latencies take a few dozen values over any run length
/// (DESIGN.md §6.17), so this stays a few hundred bytes where a sample
/// vector grew by 8 bytes a request. A tree, not a sorted `Vec`: a new
/// value costs O(log d), so all-distinct latencies do not go quadratic.
#[derive(Debug, Clone, Default)]
struct LatencyCounts {
    /// Requests per distinct latency, in cycles.
    counts: BTreeMap<u64, u64>,
    /// Requests counted: the sum of `counts`' values.
    total: u64,
}

impl LatencyCounts {
    /// Counts one request of `cycles`. Out of line, so that
    /// `end_request`, which every request site inlines, stays as small as
    /// with the push this replaced; inlined, a prototype read +1…+11 %
    /// host time on `redis_get_mpk`, which looked like code placement (E35).
    #[cfg(not(feature = "trace-off"))]
    #[inline(never)]
    fn add(&mut self, cycles: u64) {
        *self.counts.entry(cycles).or_insert(0) += 1;
        self.total += 1;
    }

    /// [`percentile`] of the counted samples: the first latency, in
    /// ascending order, at which the cumulative count reaches the rank.
    fn percentile(&self, num: u64, den: u64) -> u64 {
        let rank = nearest_rank(self.total, num, den);
        let mut seen = 0;
        for (&cycles, &n) in &self.counts {
            seen += n;
            if seen >= rank {
                return cycles;
            }
        }
        0
    }
}

/// The 1-based nearest rank of percentile `num/den` among `n` samples:
/// the smallest rank whose share of the samples is at least `num/den`,
/// and at least 1. Computed in integers, so it never depends on
/// floating-point rounding.
pub(crate) fn nearest_rank(n: u64, num: u64, den: u64) -> u64 {
    (n * num).div_ceil(den).max(1)
}

/// Exact nearest-rank percentile `num/den` over a sorted slice: the
/// smallest sample `x` such that at least that share of the samples is
/// `<= x` (0 for an empty slice).
pub fn percentile(sorted: &[u64], num: u64, den: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(nearest_rank(sorted.len() as u64, num, den) - 1) as usize]
}

/// An open (begun, not yet ended) request span.
#[derive(Debug, Clone, Copy)]
struct OpenRequest {
    span: SpanId,
    app: Label,
    backend: &'static str,
    t0: u64,
}

/// The per-machine span tracer. Lives in `Machine` next to the fault and
/// TLB traces so every subsystem holding `&mut Machine` can record.
#[derive(Debug, Clone, Default)]
pub struct SpanTrace {
    next_span: u64,
    current: SpanId,
    shards: Vec<SpanRing>,
    open: Vec<OpenRequest>,
    // A flat association list, not a map: one workload uses one or two
    // `(app, backend)` keys, and the linear scan on the request-complete
    // path is far cheaper than tree/hash lookups at that cardinality.
    latency: Vec<((Label, &'static str), LatencyCounts)>,
}

impl SpanTrace {
    /// An empty tracer (shards grow on demand).
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn shard_mut(&mut self, vcpu: u16) -> &mut SpanRing {
        let idx = vcpu as usize;
        if self.shards.len() <= idx {
            self.grow_shards(idx);
        }
        &mut self.shards[idx]
    }

    /// Creates the rings up to shard `idx` — once per vCPU, so kept out
    /// of every probe site.
    #[cold]
    fn grow_shards(&mut self, idx: usize) {
        self.shards.resize_with(idx + 1, SpanRing::default);
    }

    /// The span currently attributed to new events ([`SpanId::NONE`]
    /// when no request is in flight).
    #[inline]
    pub fn current(&self) -> SpanId {
        self.current
    }

    /// Opens a request span at `t0` and makes it current. Returns
    /// [`SpanId::NONE`] under `trace-off`.
    #[allow(unused_variables)] // `vcpu`: the closing probe picks the shard
    #[inline]
    pub fn begin_request(
        &mut self,
        app: Label,
        backend: &'static str,
        vcpu: u16,
        t0: u64,
    ) -> SpanId {
        #[cfg(not(feature = "trace-off"))]
        {
            self.next_span += 1;
            let span = SpanId(self.next_span);
            self.open.push(OpenRequest {
                span,
                app,
                backend,
                t0,
            });
            self.current = span;
            span
        }
        #[cfg(feature = "trace-off")]
        {
            SpanId::NONE
        }
    }

    /// Closes a request span at `t1`: records the end-to-end interval in
    /// the vCPU's shard ring and folds `t1 - t0` into the exact latency
    /// accumulator for the request's `(app, backend)` key.
    #[inline]
    pub fn end_request(&mut self, span: SpanId, vcpu: u16, t1: u64) {
        #[cfg(not(feature = "trace-off"))]
        {
            let Some(pos) = self.open.iter().position(|o| o.span == span) else {
                return;
            };
            let o = self.open.remove(pos);
            let key = (o.app, o.backend);
            let counts = match self.latency.iter_mut().position(|(k, _)| *k == key) {
                Some(i) => &mut self.latency[i].1,
                None => {
                    self.latency.push((key, LatencyCounts::default()));
                    &mut self.latency.last_mut().expect("just pushed").1
                }
            };
            counts.add(t1.saturating_sub(o.t0));
            self.shard_mut(vcpu).push(SpanEvent {
                span,
                t0: o.t0,
                t1,
                gate_cycles: 0,
                bytes: 0,
                src: vcpu,
                dst: vcpu,
                kind: SpanKind::Request,
                label: o.app,
            });
            if self.current == span {
                self.current = SpanId::NONE;
            }
        }
    }

    /// The one ring write behind every probe below: a record against
    /// the current span on `vcpu`'s shard.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn write(
        &mut self,
        vcpu: u16,
        kind: SpanKind,
        label: Label,
        src: u16,
        dst: u16,
        t0: u64,
        t1: u64,
        gate_cycles: u64,
        bytes: u64,
    ) {
        #[cfg(not(feature = "trace-off"))]
        {
            let span = self.current;
            self.shard_mut(vcpu).push(SpanEvent {
                span,
                t0,
                t1,
                gate_cycles,
                bytes,
                src,
                dst,
                kind,
                label,
            });
        }
    }

    /// Records a work interval against the current span on `vcpu`'s
    /// shard. Never touches a clock — callers pass the timestamps they
    /// already have, so the probe adds zero simulated cycles.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn record(
        &mut self,
        vcpu: u16,
        kind: SpanKind,
        label: Label,
        src: u16,
        dst: u16,
        t0: u64,
        t1: u64,
    ) {
        self.write(vcpu, kind, label, src, dst, t0, t1, 0, 0);
    }

    /// Records one event of the `--stats` event tail other than a
    /// crossing — a context switch, a fault, a failed allocation, a
    /// dropped packet — over `[t0, t1]`, against the current span, with
    /// the tail row's `detail` word in the record's `bytes`. Always on
    /// shard 0: these events belong to the image, not to a vCPU.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub(crate) fn record_event(
        &mut self,
        kind: SpanKind,
        label: Label,
        src: u16,
        dst: u16,
        t0: u64,
        t1: u64,
        detail: u64,
    ) {
        self.write(0, kind, label, src, dst, t0, t1, 0, detail);
    }

    /// Records one completed gate crossing `src → dst` through
    /// `mechanism` over `[t0, t1]` — the only ring write a crossing
    /// makes. `gate_cycles` of the window went to the enter + exit
    /// sequences, which marshalled `bytes`. Every per-event view of the
    /// crossing (the `--stats` `gate-enter`/`gate-exit` tail, the
    /// Perfetto slice and its flow arrow) is folded from this record.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn record_gate(
        &mut self,
        vcpu: u16,
        mechanism: Label,
        src: u16,
        dst: u16,
        t0: u64,
        t1: u64,
        gate_cycles: u64,
        bytes: u64,
    ) {
        let kind = SpanKind::Gate;
        self.write(vcpu, kind, mechanism, src, dst, t0, t1, gate_cycles, bytes);
    }

    /// Total events ever pushed across all shards.
    pub fn pushed(&self) -> u64 {
        self.shards.iter().map(SpanRing::pushed).sum()
    }

    /// Per-shard push/drop accounting, shard order (rows only for shards
    /// that ever recorded, so the report stays workload-shaped).
    pub fn ring_stats(&self) -> Vec<RingDropRow> {
        let rings = (0u16..).zip(&self.shards);
        rings
            .filter(|(_, r)| r.pushed() > 0)
            .map(|(owner, r)| RingDropRow {
                subsystem: "spans",
                owner,
                pushed: r.pushed(),
                dropped: r.dropped(),
            })
            .collect()
    }

    /// Exact latency percentiles per `(app, backend)` that completed a
    /// request, key order.
    pub fn latency_rows(&self) -> Vec<LatencyRow> {
        let mut rows: Vec<LatencyRow> = self
            .latency
            .iter()
            .map(|&((app, backend), ref c)| LatencyRow {
                app: app.as_str(),
                backend,
                count: c.total,
                p50: c.percentile(50, 100),
                p99: c.percentile(99, 100),
                p999: c.percentile(999, 1000),
            })
            .collect();
        rows.sort_by_key(|r| (r.app, r.backend));
        rows
    }

    /// All retained events as `(shard, seq, event)`, merged across
    /// shards in deterministic order: sorted by `(t0, t1, shard, seq)`.
    /// Shard assignment is plan-determined, so this stream is
    /// byte-identical run to run.
    pub fn merged_events(&self) -> Vec<(usize, u64, SpanEvent)> {
        let mut all: Vec<(usize, u64, SpanEvent)> = Vec::new();
        for (shard, ring) in self.shards.iter().enumerate() {
            all.extend(ring.events().map(|(seq, ev)| (shard, seq, *ev)));
        }
        all.sort_by_key(|&(shard, seq, ev)| (ev.t0, ev.t1, shard, seq));
        all
    }

    /// The newest `n` tail records ([`SpanKind::in_tail`]) the rings
    /// hold, as `(shard, seq, record)`, oldest first. Records are ordered
    /// by end time, then shard, then sequence number: within a shard that
    /// is push order, since every probe stamps its end time from the one
    /// machine clock as it pushes. So each shard gives at most its newest
    /// `n`, read newest first, and only those are sorted.
    pub(crate) fn newest_tail(&self, n: usize) -> Vec<(u16, u64, SpanEvent)> {
        let mut tail = Vec::new();
        for (shard, ring) in (0u16..).zip(&self.shards) {
            let held = ring.newest().filter(|(_, e)| e.kind.in_tail());
            tail.extend(held.take(n).map(|(seq, e)| (shard, seq, *e)));
        }
        tail.sort_unstable_by_key(|&(shard, seq, e)| (e.t1, shard, seq));
        tail.drain(..tail.len().saturating_sub(n));
        tail
    }

    /// Renders the merged stream as Chrome trace-event JSON (loadable in
    /// Perfetto / `chrome://tracing`).
    ///
    /// Layout: pid 1 is the vCPU process (one thread track per shard),
    /// pid 2 is the compartment process (one thread track per
    /// compartment, named via `names`). Every interval is an `"X"`
    /// complete slice on its vCPU track; gate and doorbell crossings
    /// additionally draw an `"s"`→`"f"` flow arrow from the source to
    /// the destination compartment track (always emitted as a pair, so
    /// flow begin/end stay balanced); whole requests are async
    /// `"b"`/`"e"` pairs on the owning compartment track. Timestamps are
    /// raw simulated cycles.
    pub fn to_chrome_json(&self, names: &[(u16, String)]) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj(None)
            .str_field("displayTimeUnit", "ns")
            .begin_arr(Some("traceEvents"));
        // Metadata first: the two processes, then their threads.
        let mut meta = |pid: u64, tid: u64, what: &str, name: &str| {
            w.begin_obj(None)
                .str_field("ph", "M")
                .u64_field("pid", pid)
                .u64_field("tid", tid)
                .str_field("name", what)
                .begin_obj(Some("args"))
                .str_field("name", name)
                .end_obj()
                .end_obj();
        };
        meta(1, 0, "process_name", "vCPUs");
        meta(2, 0, "process_name", "compartments");
        for shard in 0..self.shards.len() {
            meta(1, shard as u64, "thread_name", &format!("vcpu{shard}"));
        }
        for (id, name) in names {
            meta(2, (*id).into(), "thread_name", name);
        }
        // The events are fixed-shape templates, handed to the writer as
        // raw array elements: it places the commas, they fill the slots.
        let mut flow_id = 0u64;
        let mut head = String::new();
        for (shard, _, ev) in self.merged_events() {
            let (span, src, dst, t0, t1) = (ev.span.0, ev.src, ev.dst, ev.t0, ev.t1);
            // `"cat":…,"name":…`, shared by every event of the interval.
            head.clear();
            let _ = write!(head, "\"cat\":\"{}\",\"name\":", ev.kind.label());
            JsonWriter::quote_into(ev.label.as_str(), &mut head);
            if ev.kind == SpanKind::Request {
                // Async begin/end pair on the owning compartment track,
                // id'd by the span so nested requests nest.
                for (ph, ts) in [("b", t0), ("e", t1)] {
                    let _ = write!(
                        w.raw(None),
                        "{{\"ph\":\"{ph}\",{head},\"id\":{span},\"pid\":2,\"tid\":{src},\"ts\":{ts}}}"
                    );
                }
                continue;
            }
            let _ = write!(
                w.raw(None),
                "{{\"ph\":\"X\",{head},\"pid\":1,\"tid\":{shard},\"ts\":{t0},\"dur\":{},\
                 \"args\":{{\"span\":{span},\"src\":{src},\"dst\":{dst}}}}}",
                t1.saturating_sub(t0).max(1)
            );
            if matches!(ev.kind, SpanKind::Gate | SpanKind::Doorbell) && src != dst {
                flow_id += 1;
                let _ = write!(
                    w.raw(None),
                    "{{\"ph\":\"s\",{head},\"id\":{flow_id},\"pid\":2,\"tid\":{src},\"ts\":{t0}}}"
                );
                let _ = write!(
                    w.raw(None),
                    "{{\"ph\":\"f\",{head},\"bp\":\"e\",\"id\":{flow_id},\"pid\":2,\"tid\":{dst},\"ts\":{t1}}}"
                );
            }
        }
        w.end_arr().end_obj();
        w.finish()
    }
}

#[cfg(all(test, not(feature = "trace-off")))]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn request_latency_is_exact() {
        let mut t = SpanTrace::new();
        for (i, lat) in [(0u64, 10u64), (1, 20), (2, 30), (3, 40)] {
            let s = t.begin_request(Label::Redis, "direct", 0, i * 100);
            t.end_request(s, 0, i * 100 + lat);
        }
        let rows = t.latency_rows();
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!((r.app, r.backend, r.count), ("redis", "direct", 4));
        assert_eq!(r.p50, 20);
        assert_eq!(r.p99, 40);
        assert_eq!(r.p999, 40);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50, 100), 50);
        assert_eq!(percentile(&s, 99, 100), 99);
        assert_eq!(percentile(&s, 999, 1000), 100);
        assert_eq!(percentile(&s, 0, 1), 1);
        assert_eq!(percentile(&[7], 50, 100), 7);
        assert_eq!(percentile(&[], 50, 100), 0);
    }

    /// Distinct sample values in an arbitrary order, `n` of them: a
    /// bijection of `0..n` (odd multiplier, then xor).
    fn distinct(n: usize, seed: u64) -> Vec<u64> {
        let mix = |i: u64| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed;
        (0..n as u64).map(mix).collect()
    }

    /// A sample set: at most 40 distinct values, repeated, or all distinct.
    fn samples() -> impl Strategy<Value = Vec<u64>> {
        prop_oneof![
            (1u64..=40, any::<u32>()).prop_flat_map(|(k, base)| {
                let base = u64::from(base);
                prop::collection::vec(base..base + k, 0..4000)
            }),
            (0usize..4000, any::<u64>()).prop_map(|(n, seed)| distinct(n, seed)),
        ]
    }

    /// `(num, den)` with `0 ≤ num ≤ den ≤ 10⁶` (`num` 0: the minimum).
    fn rank() -> impl Strategy<Value = (u64, u64)> {
        (1u64..=1_000_000).prop_flat_map(|den| (0..=den, Just(den)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Counting is sorting: fed through `end_request` in any order,
        /// the counts give every percentile a sort of the same samples
        /// gives, and the row counts every request.
        #[test]
        fn counted_percentiles_equal_the_sorted_samples(
            samples in samples(),
            random in prop::collection::vec(rank(), 8),
        ) {
            let mut t = SpanTrace::new();
            for &lat in &samples {
                let s = t.begin_request(Label::Redis, "mpk", 0, 0);
                t.end_request(s, 0, lat);
            }
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            let rows = t.latency_rows();
            if sorted.is_empty() {
                prop_assert!(rows.is_empty());
                return Ok(());
            }
            prop_assert_eq!(rows.len(), 1);
            let row = &rows[0];
            prop_assert_eq!(row.count, sorted.len() as u64);
            prop_assert_eq!(row.p50, percentile(&sorted, 50, 100));
            prop_assert_eq!(row.p99, percentile(&sorted, 99, 100));
            prop_assert_eq!(row.p999, percentile(&sorted, 999, 1000));
            let counts = &t.latency[0].1;
            let fixed = [(50, 100), (99, 100), (999, 1000), (1, 1), (1, 1000), (0, 1)];
            for (num, den) in fixed.into_iter().chain(random) {
                prop_assert_eq!(
                    counts.percentile(num, den),
                    percentile(&sorted, num, den),
                    "{}/{} of {} samples", num, den, sorted.len()
                );
            }
        }
    }

    #[test]
    fn rows_come_out_in_key_order_and_only_for_completed_requests() {
        let mut t = SpanTrace::new();
        // `("redis", "vmrpc")` completes first, `("iperf", "mpk")` second;
        // `("redis", "direct")` begins but never ends.
        let mut clock = 0;
        for i in 0..6u64 {
            let a = t.begin_request(Label::Redis, "vmrpc", 0, clock);
            let b = t.begin_request(Label::Iperf, "mpk", 1, clock + 1);
            t.end_request(a, 0, clock + 10 + i);
            t.end_request(b, 1, clock + 101 + 2 * i);
            clock += 1_000;
        }
        t.begin_request(Label::Redis, "direct", 0, clock);
        let rows: Vec<_> = t
            .latency_rows()
            .into_iter()
            .map(|r| (r.app, r.backend, r.count, r.p50, r.p99, r.p999))
            .collect();
        assert_eq!(
            rows,
            vec![
                ("iperf", "mpk", 6, 104, 110, 110),
                ("redis", "vmrpc", 6, 12, 15, 15),
            ]
        );
    }

    /// The float-rank formula `--serve` used before it shared
    /// [`percentile`]; kept here as the reference the merge was held to.
    fn float_nearest_rank(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn rational_and_float_ranks_agree_up_to_400k_samples() {
        let s: Vec<u64> = (1..=400_000).collect();
        for n in 1..=s.len() {
            for (num, den, q) in [(50, 100, 0.50), (99, 100, 0.99), (999, 1000, 0.999)] {
                assert_eq!(
                    percentile(&s[..n], num, den),
                    float_nearest_rank(&s[..n], q),
                    "n = {n}, q = {q}"
                );
            }
        }
    }

    fn ev(kind: SpanKind, t: u64) -> SpanEvent {
        let label = match kind {
            SpanKind::Request => Label::Redis,
            SpanKind::Gate => Label::MpkShared,
            SpanKind::Doorbell => Label::Doorbell,
            SpanKind::Sched => Label::CtxSwitch,
            SpanKind::MqHop => Label::MqSend,
            SpanKind::Net => Label::NetRx,
            SpanKind::Fault => Label::Fault,
            SpanKind::AllocFail => Label::AllocFail,
            SpanKind::Drop => Label::PacketDrop,
            SpanKind::Migrate => Label::Swap,
        };
        SpanEvent {
            span: SpanId::NONE,
            t0: t,
            t1: t + 1,
            gate_cycles: 0,
            bytes: 0,
            src: 0,
            dst: 1,
            kind,
            label,
        }
    }

    #[test]
    fn rings_overwrite_oldest_and_count_drops() {
        let mut r = SpanRing::with_capacity(2);
        for i in 0..5u64 {
            r.push(ev(SpanKind::Net, i));
        }
        assert_eq!(r.pushed(), 5);
        assert_eq!(r.dropped(), 3);
        let evs: Vec<(u64, u64)> = r.events().map(|(seq, e)| (seq, e.t0)).collect();
        assert_eq!(evs, vec![(3, 3), (4, 4)]);
        let newest: Vec<(u64, u64)> = r.newest().map(|(seq, e)| (seq, e.t0)).collect();
        assert_eq!(newest, vec![(4, 4), (3, 3)]);
    }

    #[test]
    fn overwrites_oldest_and_keeps_sequence() {
        let mut r = SpanRing::with_capacity(3);
        for i in 0..5u64 {
            r.push(ev(SpanKind::Gate, 10 * i));
        }
        assert_eq!((r.buf.len(), r.pushed(), r.dropped()), (3, 5, 2));
        // The two oldest were overwritten; the survivors keep their
        // sequence numbers across the wrap.
        let held: Vec<(u64, u64)> = r.events().map(|(seq, e)| (seq, e.t0)).collect();
        assert_eq!(held, vec![(2, 20), (3, 30), (4, 40)]);
    }

    #[test]
    fn push_never_reallocates() {
        let mut r = SpanRing::with_capacity(8);
        let cap0 = r.buf.capacity();
        for i in 0..100u64 {
            r.push(ev(SpanKind::Net, i));
        }
        assert_eq!(r.buf.capacity(), cap0);
        assert_eq!((r.laps, r.pushed(), r.dropped()), (11, 100, 92));
    }

    /// One record the property below pushes: its shard (modulo the
    /// shards there are), kind and label, compartments and detail word,
    /// how far the clock moves before it (0 too, so records share
    /// cycles) and how long it lasted.
    #[derive(Debug, Clone)]
    struct Push {
        shard: u16,
        kind: SpanKind,
        label: Label,
        src: u16,
        dst: u16,
        detail: u64,
        advance: u64,
        len: u64,
    }

    /// Up to 3 000 pushes, a share `tail_per_mille` of them tail records
    /// (none, a few, or all), the rest mq, net and doorbell spans.
    fn pushes() -> impl Strategy<Value = Vec<Push>> {
        const TAIL: [(SpanKind, Label); 7] = [
            (SpanKind::Gate, Label::MpkShared),
            (SpanKind::Gate, Label::VmRpc),
            (SpanKind::Sched, Label::CtxSwitch),
            (SpanKind::Fault, Label::Fault),
            (SpanKind::Fault, Label::Injected),
            (SpanKind::AllocFail, Label::AllocFail),
            (SpanKind::Drop, Label::PacketDrop),
        ];
        const OTHER: [(SpanKind, Label); 3] = [
            (SpanKind::MqHop, Label::MqSend),
            (SpanKind::Net, Label::NetRx),
            (SpanKind::Doorbell, Label::Doorbell),
        ];
        (0u64..=1000, 1usize..3000).prop_flat_map(|(tail_per_mille, n)| {
            let push = (
                0u16..4,
                (0u64..1000, 0usize..TAIL.len(), 0usize..OTHER.len()),
                (0u16..6, 0u16..6, 0u64..8),
                (0u64..3, 0u64..4),
            )
                .prop_map(
                    move |(shard, (roll, t, o), (src, dst, detail), (advance, len))| {
                        let (kind, label) = if roll < tail_per_mille {
                            TAIL[t]
                        } else {
                            OTHER[o]
                        };
                        Push {
                            shard,
                            kind,
                            label,
                            src,
                            dst,
                            detail,
                            advance,
                            len,
                        }
                    },
                );
            prop::collection::vec(push, n)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Over any mix of tail and non-tail records on 1–4 shards, at
        /// capacities 1, 2, 64 and 1 024: the `--stats` event tail is the
        /// newest [`crate::SNAPSHOT_EVENT_CAP`] tail records among each
        /// shard's held window, by end time, shard and sequence number,
        /// one row each; the ring report is one `spans` row per shard that
        /// recorded, and the overwritten count their sum. The reference
        /// keeps every record and holds no ring.
        #[test]
        fn the_tail_is_the_newest_tail_records_the_rings_hold(
            shards in 1u16..=4,
            pushes in pushes(),
        ) {
            use crate::{pack_pair, EventRow, FaultTrace, TraceRegistry, SNAPSHOT_EVENT_CAP};
            for cap in [1, 2, 64, DEFAULT_SPAN_RING_CAP] {
                let mut t = SpanTrace::new();
                t.shards = (0..shards).map(|_| SpanRing::with_capacity(cap)).collect();
                let mut ft = FaultTrace::new();
                let mut all: Vec<Vec<SpanEvent>> = vec![Vec::new(); shards.into()];
                let mut now = 0;
                for p in &pushes {
                    now += p.advance;
                    let mut e = SpanEvent {
                        span: SpanId::NONE,
                        t0: now.saturating_sub(p.len),
                        t1: now,
                        gate_cycles: 0,
                        bytes: p.detail,
                        src: p.src,
                        dst: p.dst,
                        kind: p.kind,
                        label: p.label,
                    };
                    let mut shard = p.shard % shards;
                    if p.kind == SpanKind::Fault {
                        // Through the machine's probe, which writes on
                        // shard 0 and tells the fault trace the key
                        // (7: none).
                        let key = (p.detail < 7).then_some(p.detail as u16);
                        match p.label {
                            Label::Fault => ft.record(&mut t, "pkey-violation", key, now),
                            _ => ft.record_injected(&mut t, "injected-oom", now),
                        }
                        let detail = key.filter(|_| p.label == Label::Fault);
                        e = SpanEvent {
                            t0: now,
                            bytes: detail.map_or(u64::MAX, u64::from),
                            src: 0,
                            dst: 0,
                            ..e
                        };
                        shard = 0;
                    } else {
                        t.write(shard, p.kind, p.label, p.src, p.dst, e.t0, now, 0, p.detail);
                    }
                    all[usize::from(shard)].push(e);
                }
                // Keys 0, 3 and 6 belong to compartment key + 1.
                let owner = |k: u16| k.is_multiple_of(3).then(|| (k + 1, format!("c{k}")));
                let mut reg = TraceRegistry::new();
                reg.add_faults(&ft, owner);
                reg.add_spans(&t);
                let snap = reg.finish();

                let mut held = Vec::new();
                let (mut rings, mut overwritten) = (Vec::new(), 0);
                for (shard, evs) in (0u16..).zip(&all) {
                    let lost = evs.len().saturating_sub(cap);
                    let window = (lost as u64..).zip(&evs[lost..]);
                    let tail = window.filter(|(_, e)| e.kind.in_tail());
                    held.extend(tail.map(|(seq, e)| (shard, seq, *e)));
                    if !evs.is_empty() {
                        rings.push(("spans", shard, evs.len() as u64, lost as u64));
                        overwritten += lost as u64;
                    }
                }
                held.sort_by_key(|&(shard, seq, e)| (e.t1, shard, seq));
                let newest = &held[held.len().saturating_sub(SNAPSHOT_EVENT_CAP)..];
                let want: Vec<EventRow> = newest
                    .iter()
                    .map(|&(_, seq, e)| EventRow {
                        seq,
                        cycles: e.t1,
                        compartment: match e.kind {
                            SpanKind::Fault if e.bytes < 7 && e.bytes.is_multiple_of(3) => {
                                e.bytes as u16 + 1
                            }
                            SpanKind::Sched => e.dst,
                            _ => e.src,
                        },
                        kind: e.label.as_str(),
                        detail: match e.kind {
                            SpanKind::Gate => pack_pair(e.src, e.dst),
                            _ => e.bytes,
                        },
                    })
                    .collect();
                prop_assert_eq!(&snap.events, &want, "cap {}, {} shards", cap, shards);
                let got: Vec<_> = snap
                    .ring_drops
                    .iter()
                    .map(|r| (r.subsystem, r.owner, r.pushed, r.dropped))
                    .collect();
                prop_assert_eq!(got, rings, "cap {}", cap);
                prop_assert_eq!(snap.events_overwritten, overwritten, "cap {}", cap);
            }
        }
    }

    #[test]
    fn merged_events_are_time_ordered_across_shards() {
        let mut t = SpanTrace::new();
        t.record(1, SpanKind::Net, Label::NetRx, 1, 1, 50, 60);
        t.record(0, SpanKind::Gate, Label::MpkShared, 0, 1, 10, 20);
        t.record(0, SpanKind::Gate, Label::MpkShared, 1, 0, 70, 80);
        let m = t.merged_events();
        let t0s: Vec<u64> = m.iter().map(|(_, _, e)| e.t0).collect();
        assert_eq!(t0s, vec![10, 50, 70]);
    }

    /// What the parent of PR 23 rendered for the trace of the next test,
    /// byte for byte.
    const SMALL_TRACE_JSON: &str = concat!(
        r#"{"displayTimeUnit":"ns","traceEvents":["#,
        r#"{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"vCPUs"}},"#,
        r#"{"ph":"M","pid":2,"tid":0,"name":"process_name","args":{"name":"compartments"}},"#,
        r#"{"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"vcpu0"}},"#,
        r#"{"ph":"M","pid":2,"tid":0,"name":"thread_name","args":{"name":"app"}},"#,
        r#"{"ph":"M","pid":2,"tid":2,"name":"thread_name","args":{"name":"net \"rx\"\n"}},"#,
        r#"{"ph":"b","cat":"request","name":"redis","id":1,"pid":2,"tid":0,"ts":0},"#,
        r#"{"ph":"e","cat":"request","name":"redis","id":1,"pid":2,"tid":0,"ts":20},"#,
        r#"{"ph":"X","cat":"gate","name":"MPK (shared stack)","pid":1,"tid":0,"ts":5,"dur":4,"args":{"span":1,"src":0,"dst":2}},"#,
        r#"{"ph":"s","cat":"gate","name":"MPK (shared stack)","id":1,"pid":2,"tid":0,"ts":5},"#,
        r#"{"ph":"f","cat":"gate","name":"MPK (shared stack)","bp":"e","id":1,"pid":2,"tid":2,"ts":9},"#,
        r#"{"ph":"X","cat":"doorbell","name":"doorbell","pid":1,"tid":0,"ts":12,"dur":2,"args":{"span":1,"src":0,"dst":3}},"#,
        r#"{"ph":"s","cat":"doorbell","name":"doorbell","id":2,"pid":2,"tid":0,"ts":12},"#,
        r#"{"ph":"f","cat":"doorbell","name":"doorbell","bp":"e","id":2,"pid":2,"tid":3,"ts":14}]}"#,
    );

    #[test]
    fn chrome_json_pairs_every_flow_start_with_a_finish() {
        let mut t = SpanTrace::new();
        let s = t.begin_request(Label::Redis, "mpk", 0, 0);
        t.record(0, SpanKind::Gate, Label::MpkShared, 0, 2, 5, 9);
        t.record(0, SpanKind::Doorbell, Label::Doorbell, 0, 3, 12, 14);
        t.end_request(s, 0, 20);
        let j = t.to_chrome_json(&[(0, "app".into()), (2, "net \"rx\"\n".into())]);
        assert_eq!(j, SMALL_TRACE_JSON);
        let starts = j.matches("\"ph\":\"s\"").count();
        let finishes = j.matches("\"ph\":\"f\"").count();
        assert_eq!(starts, 2);
        assert_eq!(starts, finishes);
        assert_eq!(j.matches("\"ph\":\"b\"").count(), 1);
        assert_eq!(j.matches("\"ph\":\"e\"").count(), 1);
    }

    #[test]
    fn events_attribute_to_the_current_span() {
        let mut t = SpanTrace::new();
        t.record(0, SpanKind::Sched, Label::CtxSwitch, 0, 0, 0, 1);
        let s = t.begin_request(Label::Iperf, "vmrpc", 0, 2);
        t.record(0, SpanKind::Gate, Label::VmRpc, 0, 1, 3, 4);
        t.end_request(s, 0, 5);
        t.record(0, SpanKind::Sched, Label::CtxSwitch, 0, 0, 6, 7);
        let m = t.merged_events();
        let spans: Vec<u64> = m.iter().map(|(_, _, e)| e.span.0).collect();
        assert_eq!(spans, vec![0, 1, 1, 0]);
    }
}

#[cfg(all(test, feature = "trace-off"))]
mod off_tests {
    use super::*;

    /// Under `trace-off` every probe is a no-op: no spans allocated, no
    /// events pushed, no latency samples — and the API never touches a
    /// clock, so simulated cycles are unchanged by construction.
    #[test]
    fn probes_compile_to_no_ops() {
        let mut t = SpanTrace::new();
        let s = t.begin_request(Label::Redis, "direct", 0, 0);
        assert_eq!(s, SpanId::NONE);
        t.record(0, SpanKind::Gate, Label::MpkShared, 0, 1, 1, 2);
        t.end_request(s, 0, 10);
        assert_eq!(t.pushed(), 0);
        assert!(t.ring_stats().is_empty());
        assert!(t.latency_rows().is_empty());
        assert_eq!(t.current(), SpanId::NONE);
    }
}
