//! The aggregated, serializable view of a run's telemetry.
//!
//! A [`StatsSnapshot`] is plain data: every row type is public and the
//! whole thing serializes to JSON with a hand-rolled writer (the build
//! environment has no serde). Aggregation from the live trace structs is
//! done by [`crate::TraceRegistry`].

use std::fmt::Write as _;

/// One (mechanism, src, dst) gate-pair row.
#[derive(Debug, Clone, PartialEq)]
pub struct GatePairRow {
    /// Mechanism label (e.g. `"MPK (shared stack)"`).
    pub mechanism: &'static str,
    /// Source compartment id.
    pub src: u16,
    /// Destination compartment id.
    pub dst: u16,
    /// Source compartment name.
    pub src_name: String,
    /// Destination compartment name.
    pub dst_name: String,
    /// Completed round-trip crossings.
    pub crossings: u64,
    /// Argument + return bytes marshalled.
    pub bytes: u64,
    /// Cycles spent in enter/exit sequences for this pair.
    pub gate_cycles: u64,
}

/// Per-mechanism crossing-latency summary.
#[derive(Debug, Clone, PartialEq)]
pub struct MechanismRow {
    /// Mechanism label.
    pub mechanism: &'static str,
    /// Crossings recorded.
    pub count: u64,
    /// Median crossing cost in cycles (log2-bucket upper bound).
    pub p50: u64,
    /// 90th-percentile crossing cost.
    pub p90: u64,
    /// 99th-percentile crossing cost.
    pub p99: u64,
    /// Mean crossing cost.
    pub mean: u64,
    /// Largest observed crossing cost.
    pub max: u64,
}

/// Per-mechanism batched-crossing summary (sizes of `cross_batch`
/// submissions, recorded identically whether the vectored fast path or
/// the reference loop executed them).
#[derive(Debug, Clone, PartialEq)]
pub struct GateBatchRow {
    /// Mechanism label.
    pub mechanism: &'static str,
    /// Batches submitted.
    pub batches: u64,
    /// Calls issued across all batches.
    pub calls: u64,
    /// Median batch size (log2-bucket upper bound).
    pub p50: u64,
    /// Largest observed batch.
    pub max: u64,
}

/// Async gate-ring counters (the PR-8 submission/completion rings).
/// All host-side bookkeeping totals — the simulated cycle stream is
/// identical with the rings in or out of the path, so this block is
/// purely additive to the baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AsyncGatesSnapshot {
    /// Descriptors accepted onto submission rings.
    pub submitted: u64,
    /// Completions delivered.
    pub completed: u64,
    /// Ring flushes that drained at least one descriptor.
    pub flushes: u64,
    /// Pending submissions cancelled.
    pub cancelled: u64,
    /// Submissions rejected on a full SQ.
    pub sq_full: u64,
    /// Reaps rejected on an empty CQ.
    pub cq_empty: u64,
}

/// Live gate-backend migration counters (the quiescence protocol).
/// The block is all-zero — and therefore byte-stable against the CI
/// baseline — on any run that never requests a migration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationsSnapshot {
    /// Migrations requested (immediate or deferred).
    pub requested: u64,
    /// Backend swaps completed.
    pub completed: u64,
    /// Requests that had to wait for quiescence.
    pub deferred: u64,
    /// SQE submissions refused by the admission stop while draining.
    pub rejected_submits: u64,
    /// Pending SQEs carried across swaps (re-issued via the new backend).
    pub requeued_sqes: u64,
    /// Ready CQEs preserved across swaps.
    pub preserved_cqes: u64,
    /// Simulated cycles spent draining, summed over completed swaps.
    pub drain_cycles_total: u64,
    /// Longest single drain window.
    pub drain_cycles_max: u64,
    /// Swaps that raised the isolation rank (policy escalations).
    pub escalations: u64,
    /// Swaps that lowered it (policy relaxations).
    pub relaxations: u64,
}

/// Scheduler summary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchedSnapshot {
    /// Thread-to-thread context switches.
    pub switches: u64,
    /// Executor steps run.
    pub steps: u64,
    /// Sum of run-queue depth samples (one per pick).
    pub depth_sum: u64,
    /// Number of depth samples.
    pub depth_samples: u64,
    /// Deepest observed run queue.
    pub depth_max: u64,
    /// Per-task total run cycles, as (thread id, cycles).
    pub task_cycles: Vec<(u32, u64)>,
}

impl SchedSnapshot {
    /// Mean run-queue depth ×1000 (integer, avoids float plumbing).
    pub fn avg_depth_milli(&self) -> u64 {
        (self.depth_sum * 1000)
            .checked_div(self.depth_samples)
            .unwrap_or(0)
    }
}

/// Per-compartment allocator pressure.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AllocRow {
    /// Compartment id.
    pub compartment: u16,
    /// Compartment name.
    pub name: String,
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

/// Fault counts by class.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultKindRow {
    /// Fault class tag (e.g. `"pkey-violation"`).
    pub kind: &'static str,
    /// Occurrences.
    pub count: u64,
}

/// Protection-key violations attributed to the compartment owning the key.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCompartmentRow {
    /// Compartment id owning the faulted key.
    pub compartment: u16,
    /// Compartment name.
    pub name: String,
    /// Pkey violations against this compartment's memory.
    pub count: u64,
}

/// Software-TLB summary (see `TlbTrace` in the crate root).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbSnapshot {
    /// Translations served from the cache.
    pub hits: u64,
    /// Lookups that fell back to the page-table walk.
    pub misses: u64,
    /// Generation-bumping page-table mutations (lazy whole-VM flushes).
    pub flushes: u64,
}

impl TlbSnapshot {
    /// Hit rate ×1000 (integer, avoids float plumbing).
    pub fn hit_rate_milli(&self) -> u64 {
        (self.hits * 1000)
            .checked_div(self.hits + self.misses)
            .unwrap_or(0)
    }
}

/// Network stack summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetSnapshot {
    /// TCP segments received and demuxed to a connection.
    pub rx_segments: u64,
    /// TCP segments transmitted.
    pub tx_segments: u64,
    /// UDP datagrams delivered.
    pub rx_datagrams: u64,
    /// Frames/segments dropped at demux.
    pub drops: u64,
    /// SYNs dropped because the accept backlog was full.
    pub backlog_overflows: u64,
    /// TCP retransmissions.
    pub retransmits: u64,
}

/// Serving-tier counters: the readiness layer (`EventQueue`) plus the
/// cooperative per-connection executor. All host-side bookkeeping —
/// posting an event or running a task step charges no simulated cycles
/// beyond the work the task itself performs, so this block is purely
/// additive to the baseline figures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServingSnapshot {
    /// Readiness events posted (socket newly enqueued as ready).
    pub events_posted: u64,
    /// Events merged into an already-queued socket entry.
    pub events_coalesced: u64,
    /// `EventQueue::poll` calls issued.
    pub polls: u64,
    /// Ready sockets delivered across all polls.
    pub events_delivered: u64,
    /// Executor tasks spawned.
    pub tasks_spawned: u64,
    /// Executor task steps run.
    pub tasks_run: u64,
    /// Task wakeups delivered.
    pub wakeups: u64,
    /// Always 0: one executor serves a tier, so no task is ever stolen.
    /// The key stays because the report shape is pinned byte for byte
    /// (`ci/stats-baseline.json`, the artefact set).
    pub steals: u64,
}

/// One event row, merged across all rings.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRow {
    /// Sequence number within the source ring.
    pub seq: u64,
    /// Machine-clock timestamp in cycles.
    pub cycles: u64,
    /// Compartment the ring belongs to.
    pub compartment: u16,
    /// Event class tag.
    pub kind: &'static str,
    /// Kind-specific payload.
    pub detail: u64,
}

/// Exact end-to-end request latency percentiles for one
/// `(app, backend)` pair, from the PR-7 span tracer. Unlike
/// [`MechanismRow`] these are exact (every sample retained and sorted),
/// not log2-bucket upper bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyRow {
    /// Application that issued the requests (`"redis"`, `"iperf"`).
    pub app: &'static str,
    /// Isolation backend label the image was built with.
    pub backend: &'static str,
    /// Completed requests measured.
    pub count: u64,
    /// Median end-to-end latency, simulated cycles.
    pub p50: u64,
    /// 99th-percentile latency, simulated cycles.
    pub p99: u64,
    /// 99.9th-percentile latency, simulated cycles.
    pub p999: u64,
}

/// Push/overwrite accounting for one bounded event or span ring, so
/// evidence lost to overwrite-oldest truncation is visible in `--stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingDropRow {
    /// Which subsystem owns the ring (`"gates"`, `"sched"`, `"faults"`,
    /// `"allocs"`, `"net"`, `"spans"`).
    pub subsystem: &'static str,
    /// Ring owner within the subsystem (compartment id, or shard index
    /// for `"spans"`).
    pub owner: u16,
    /// Events ever pushed to the ring.
    pub pushed: u64,
    /// Events lost to overwrite.
    pub dropped: u64,
}

/// Everything the telemetry layer knows about one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Machine-clock cycles elapsed over the measured window.
    pub elapsed_cycles: u64,
    /// Same-compartment calls that compiled down to direct calls.
    pub direct_calls: u64,
    /// Per-(mechanism, src, dst) crossing rows, sorted by crossings desc.
    pub gate_pairs: Vec<GatePairRow>,
    /// Per-mechanism latency summaries.
    pub mechanisms: Vec<MechanismRow>,
    /// Per-mechanism batched-crossing size summaries.
    pub gate_batch: Vec<GateBatchRow>,
    /// Async gate-ring counters.
    pub async_gates: AsyncGatesSnapshot,
    /// Live gate-backend migration counters.
    pub migrations: MigrationsSnapshot,
    /// Scheduler summary.
    pub sched: SchedSnapshot,
    /// Per-compartment allocator rows.
    pub allocs: Vec<AllocRow>,
    /// Fault counts by class.
    pub fault_kinds: Vec<FaultKindRow>,
    /// Pkey violations by owning compartment.
    pub fault_compartments: Vec<FaultCompartmentRow>,
    /// Software-TLB counters.
    pub tlb: TlbSnapshot,
    /// Network stack counters.
    pub net: NetSnapshot,
    /// Serving-tier counters (readiness layer + cooperative executor).
    pub serving: ServingSnapshot,
    /// Exact per-(app, backend) request latency percentiles.
    pub latency: Vec<LatencyRow>,
    /// Per-ring push/drop accounting (sorted by subsystem, owner).
    pub ring_drops: Vec<RingDropRow>,
    /// Most recent events across all rings (time-ordered).
    pub events: Vec<EventRow>,
    /// Events lost to ring overwriting, summed over all rings.
    pub events_overwritten: u64,
}

/// Appends `s` as a quoted, escaped JSON string.
pub(crate) fn esc(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl StatsSnapshot {
    /// Serializes the snapshot as a self-contained JSON object.
    pub fn to_json(&self) -> String {
        let mut o = String::with_capacity(4096);
        o.push('{');
        let _ = write!(o, "\"elapsed_cycles\":{},", self.elapsed_cycles);
        let _ = write!(o, "\"direct_calls\":{},", self.direct_calls);

        o.push_str("\"gate_pairs\":[");
        for (i, r) in self.gate_pairs.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str("{\"mechanism\":");
            esc(r.mechanism, &mut o);
            let _ = write!(o, ",\"src\":{},\"dst\":{},", r.src, r.dst);
            o.push_str("\"src_name\":");
            esc(&r.src_name, &mut o);
            o.push_str(",\"dst_name\":");
            esc(&r.dst_name, &mut o);
            let _ = write!(
                o,
                ",\"crossings\":{},\"bytes\":{},\"gate_cycles\":{}}}",
                r.crossings, r.bytes, r.gate_cycles
            );
        }
        o.push_str("],");

        o.push_str("\"mechanisms\":[");
        for (i, r) in self.mechanisms.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str("{\"mechanism\":");
            esc(r.mechanism, &mut o);
            let _ = write!(
                o,
                ",\"count\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"mean\":{},\"max\":{}}}",
                r.count, r.p50, r.p90, r.p99, r.mean, r.max
            );
        }
        o.push_str("],");

        o.push_str("\"gate_batch\":[");
        for (i, r) in self.gate_batch.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str("{\"mechanism\":");
            esc(r.mechanism, &mut o);
            let _ = write!(
                o,
                ",\"batches\":{},\"calls\":{},\"p50\":{},\"max\":{}}}",
                r.batches, r.calls, r.p50, r.max
            );
        }
        o.push_str("],");

        let a = &self.async_gates;
        let _ = write!(
            o,
            "\"async_gates\":{{\"submitted\":{},\"completed\":{},\"flushes\":{},\"cancelled\":{},\"sq_full\":{},\"cq_empty\":{}}},",
            a.submitted, a.completed, a.flushes, a.cancelled, a.sq_full, a.cq_empty
        );

        let mg = &self.migrations;
        let _ = write!(
            o,
            "\"migrations\":{{\"requested\":{},\"completed\":{},\"deferred\":{},\"rejected_submits\":{},\"requeued_sqes\":{},\"preserved_cqes\":{},\"drain_cycles_total\":{},\"drain_cycles_max\":{},\"escalations\":{},\"relaxations\":{}}},",
            mg.requested,
            mg.completed,
            mg.deferred,
            mg.rejected_submits,
            mg.requeued_sqes,
            mg.preserved_cqes,
            mg.drain_cycles_total,
            mg.drain_cycles_max,
            mg.escalations,
            mg.relaxations
        );

        let s = &self.sched;
        let _ = write!(
            o,
            "\"sched\":{{\"switches\":{},\"steps\":{},\"avg_depth_milli\":{},\"depth_max\":{},\"task_cycles\":[",
            s.switches,
            s.steps,
            s.avg_depth_milli(),
            s.depth_max
        );
        for (i, (tid, cy)) in s.task_cycles.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            let _ = write!(o, "{{\"tid\":{tid},\"cycles\":{cy}}}");
        }
        o.push_str("]},");

        o.push_str("\"allocs\":[");
        for (i, r) in self.allocs.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            let _ = write!(o, "{{\"compartment\":{},\"name\":", r.compartment);
            esc(&r.name, &mut o);
            let _ = write!(
                o,
                ",\"allocs\":{},\"frees\":{},\"bytes_in_use\":{},\"peak_bytes\":{},\"failures\":{}}}",
                r.allocs, r.frees, r.bytes_in_use, r.peak_bytes, r.failures
            );
        }
        o.push_str("],");

        o.push_str("\"fault_kinds\":[");
        for (i, r) in self.fault_kinds.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str("{\"kind\":");
            esc(r.kind, &mut o);
            let _ = write!(o, ",\"count\":{}}}", r.count);
        }
        o.push_str("],");

        o.push_str("\"fault_compartments\":[");
        for (i, r) in self.fault_compartments.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            let _ = write!(o, "{{\"compartment\":{},\"name\":", r.compartment);
            esc(&r.name, &mut o);
            let _ = write!(o, ",\"count\":{}}}", r.count);
        }
        o.push_str("],");

        let t = &self.tlb;
        let _ = write!(
            o,
            "\"tlb\":{{\"hits\":{},\"misses\":{},\"flushes\":{},\"hit_rate_milli\":{}}},",
            t.hits,
            t.misses,
            t.flushes,
            t.hit_rate_milli()
        );

        let n = &self.net;
        let _ = write!(
            o,
            "\"net\":{{\"rx_segments\":{},\"tx_segments\":{},\"rx_datagrams\":{},\"drops\":{},\"backlog_overflows\":{},\"retransmits\":{}}},",
            n.rx_segments, n.tx_segments, n.rx_datagrams, n.drops, n.backlog_overflows, n.retransmits
        );

        let sv = &self.serving;
        let _ = write!(
            o,
            "\"serving\":{{\"events_posted\":{},\"events_coalesced\":{},\"polls\":{},\"events_delivered\":{},\"tasks_spawned\":{},\"tasks_run\":{},\"wakeups\":{},\"steals\":{}}},",
            sv.events_posted,
            sv.events_coalesced,
            sv.polls,
            sv.events_delivered,
            sv.tasks_spawned,
            sv.tasks_run,
            sv.wakeups,
            sv.steals
        );

        o.push_str("\"latency\":[");
        for (i, r) in self.latency.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str("{\"app\":");
            esc(r.app, &mut o);
            o.push_str(",\"backend\":");
            esc(r.backend, &mut o);
            let _ = write!(
                o,
                ",\"count\":{},\"p50\":{},\"p99\":{},\"p999\":{}}}",
                r.count, r.p50, r.p99, r.p999
            );
        }
        o.push_str("],");

        o.push_str("\"ring_drops\":[");
        for (i, r) in self.ring_drops.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str("{\"subsystem\":");
            esc(r.subsystem, &mut o);
            let _ = write!(
                o,
                ",\"owner\":{},\"pushed\":{},\"dropped\":{}}}",
                r.owner, r.pushed, r.dropped
            );
        }
        o.push_str("],");

        o.push_str("\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            let _ = write!(
                o,
                "{{\"seq\":{},\"cycles\":{},\"compartment\":{},\"kind\":",
                e.seq, e.cycles, e.compartment
            );
            esc(e.kind, &mut o);
            let _ = write!(o, ",\"detail\":{}}}", e.detail);
        }
        o.push_str("],");
        let _ = write!(o, "\"events_overwritten\":{}", self.events_overwritten);
        o.push('}');
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_well_formed_and_carries_rows() {
        let snap = StatsSnapshot {
            elapsed_cycles: 1000,
            direct_calls: 3,
            gate_pairs: vec![GatePairRow {
                mechanism: "MPK (shared stack)",
                src: 0,
                dst: 1,
                src_name: "rest".into(),
                dst_name: "net \"quoted\"".into(),
                crossings: 42,
                bytes: 128,
                gate_cycles: 9000,
            }],
            mechanisms: vec![MechanismRow {
                mechanism: "MPK (shared stack)",
                count: 42,
                p50: 255,
                p90: 255,
                p99: 511,
                mean: 214,
                max: 400,
            }],
            ..Default::default()
        };
        let j = snap.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"crossings\":42"));
        assert!(j.contains("\"p99\":511"));
        assert!(j.contains("net \\\"quoted\\\""));
        // Balanced braces/brackets (no string content to confuse this
        // beyond the escaped quotes handled above).
        let depth = j.chars().fold(0i64, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0);
    }
}
