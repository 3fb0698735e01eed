//! The aggregated, serializable view of a run's telemetry.
//!
//! A [`StatsSnapshot`] is plain data: every row type is public, and
//! [`StatsSnapshot::sheet`] is the one place that knows how it renders,
//! as `--stats` text and as JSON. The counter blocks (`sched`, `tlb`,
//! `net`, `serving`, the alloc rows) are also what their subsystems bump
//! while they run; [`crate::TraceRegistry`] folds them, the gate rows and
//! the span records into one snapshot.

use crate::sheet::{Cell, Rule, Sheet, Table};
use crate::CPU_FREQ_HZ;

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
    /// Sum of run-queue depth samples (one per step).
    pub depth_sum: u64,
    /// Deepest observed run queue.
    pub depth_max: u64,
    /// Per-task total run cycles, as (thread id, cycles).
    pub task_cycles: Vec<(u32, u64)>,
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

/// Software-TLB counters, bumped in place by the machine's TLB probes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbSnapshot {
    /// Translations served from the cache.
    pub hits: u64,
    /// Lookups that fell back to the page-table walk.
    pub misses: u64,
    /// Generation-bumping page-table mutations (lazy whole-VM flushes).
    pub flushes: u64,
}

/// Network stack summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetSnapshot {
    /// TCP segments received and demuxed to a connection.
    pub rx_segments: u64,
    /// TCP segments transmitted.
    pub tx_segments: u64,
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
}

/// One row of the event tail: one span record, merged across shards.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRow {
    /// The record's sequence number in its shard's ring.
    pub seq: u64,
    /// Machine-clock timestamp in cycles (the record's end).
    pub cycles: u64,
    /// Compartment the record is attributed to.
    pub compartment: u16,
    /// The record's label.
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

/// Push/overwrite accounting for one per-vCPU span ring, so evidence
/// lost to overwrite-oldest truncation is visible in `--stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingDropRow {
    /// Which subsystem owns the ring: `"spans"`, the one stream.
    pub subsystem: &'static str,
    /// The ring's shard index.
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
    /// The newest tail records the span rings hold, one row each
    /// (time-ordered).
    pub events: Vec<EventRow>,
    /// Records lost to ring overwriting, summed over all rings.
    pub events_overwritten: u64,
}

impl StatsSnapshot {
    /// Serializes the snapshot as a self-contained JSON object.
    pub fn to_json(&self) -> String {
        self.sheet().to_json()
    }

    /// The `--stats` report: every table of the snapshot with its JSON
    /// key and text header declared together, in JSON field order.
    pub fn sheet(&self) -> Sheet {
        let secs = self.elapsed_cycles as f64 / CPU_FREQ_HZ as f64;
        let per_sec = |n: u64| format!("{:.0}", n as f64 / secs.max(f64::MIN_POSITIVE));
        // Ratios ×1000 as integers in JSON, as decimals in text.
        let milli = |n: u64, d: u64| (n * 1000).checked_div(d).unwrap_or(0);
        let depth_milli = milli(self.sched.depth_sum, self.sched.steps);
        let hit_milli = milli(self.tlb.hits, self.tlb.hits + self.tlb.misses);
        Sheet::new()
            .field("elapsed_cycles", self.elapsed_cycles)
            .line(format!(
                "Same-compartment calls compiled to direct calls: {}",
                self.direct_calls
            ))
            .field("direct_calls", self.direct_calls)
            .table(
                Table::rows("gate_pairs", &self.gate_pairs)
                    .title("Gate crossings per (src -> dst) compartment pair")
                    .col("mechanism", |r| r.mechanism)
                    .json("src", |r| r.src)
                    .json("dst", |r| r.dst)
                    .json("src_name", |r| r.src_name.clone())
                    .json("dst_name", |r| r.dst_name.clone())
                    .text("src -> dst", |r| {
                        format!("{} -> {}", r.src_name, r.dst_name)
                    })
                    .col("crossings", |r| r.crossings)
                    .text("crossings/s", |r| per_sec(r.crossings))
                    .col("bytes", |r| r.bytes)
                    .both("gate_cycles", "gate cycles", |r| r.gate_cycles),
            )
            .table(
                Table::rows("mechanisms", &self.mechanisms)
                    .title("Crossing latency per gate mechanism (cycles, log2-bucket bounds)")
                    .col("mechanism", |r| r.mechanism)
                    .col("count", |r| r.count)
                    .col("p50", |r| r.p50)
                    .col("p90", |r| r.p90)
                    .col("p99", |r| r.p99)
                    .col("mean", |r| r.mean)
                    .col("max", |r| r.max),
            )
            .table(
                Table::rows("gate_batch", &self.gate_batch)
                    .title("Batched crossings per gate mechanism (batch-size histogram)")
                    .rule(Rule::NonEmpty)
                    .col("mechanism", |r| r.mechanism)
                    .col("batches", |r| r.batches)
                    .col("calls", |r| r.calls)
                    .both("p50", "p50 size", |r| r.p50)
                    .both("max", "max size", |r| r.max),
            )
            .table(
                Table::row("async_gates", self.async_gates)
                    .json("submitted", |a| a.submitted)
                    .json("completed", |a| a.completed)
                    .json("flushes", |a| a.flushes)
                    .json("cancelled", |a| a.cancelled)
                    .json("sq_full", |a| a.sq_full)
                    .json("cq_empty", |a| a.cq_empty),
            )
            .table(
                Table::row("migrations", self.migrations)
                    .json("requested", |m| m.requested)
                    .json("completed", |m| m.completed)
                    .json("deferred", |m| m.deferred)
                    .json("rejected_submits", |m| m.rejected_submits)
                    .json("requeued_sqes", |m| m.requeued_sqes)
                    .json("preserved_cqes", |m| m.preserved_cqes)
                    .json("drain_cycles_total", |m| m.drain_cycles_total)
                    .json("drain_cycles_max", |m| m.drain_cycles_max)
                    .json("escalations", |m| m.escalations)
                    .json("relaxations", |m| m.relaxations),
            )
            .table(
                Table::row("sched", &self.sched)
                    .title("Scheduler")
                    .both("switches", "ctx switches", |s| s.switches)
                    .col("steps", |s| s.steps)
                    .json("avg_depth_milli", |_| depth_milli)
                    .text("avg rq depth", |_| {
                        Cell::Fixed(depth_milli as f64 / 1000.0, 3)
                    })
                    .both("depth_max", "max rq depth", |s| s.depth_max)
                    .then(
                        Sheet::new().table(
                            Table::rows("task_cycles", &self.sched.task_cycles)
                                .title("Per-task run time")
                                .rule(Rule::NonEmpty)
                                .json("tid", |&&(tid, _)| tid)
                                .text("thread", |(tid, _)| format!("tid {tid}"))
                                .col("cycles", |&&(_, cycles)| cycles),
                        ),
                    ),
            )
            .table(
                Table::rows("allocs", &self.allocs)
                    .title("Allocator pressure per compartment")
                    .json("compartment", |r| r.compartment)
                    .both("name", "compartment", |r| r.name.clone())
                    .col("allocs", |r| r.allocs)
                    .col("frees", |r| r.frees)
                    .both("bytes_in_use", "bytes in use", |r| r.bytes_in_use)
                    .both("peak_bytes", "peak bytes", |r| r.peak_bytes)
                    .col("failures", |r| r.failures),
            )
            .table(
                Table::rows("fault_kinds", &self.fault_kinds)
                    .title("Faults by class")
                    .rule(Rule::Else("\nFaults: none recorded."))
                    .col("kind", |r| r.kind)
                    .col("count", |r| r.count),
            )
            .table(
                Table::rows("fault_compartments", &self.fault_compartments)
                    .title("Pkey violations by owning compartment")
                    .rule(Rule::NonEmpty)
                    .json("compartment", |r| r.compartment)
                    .both("name", "compartment", |r| r.name.clone())
                    .col("count", |r| r.count),
            )
            .table(
                Table::row("tlb", self.tlb)
                    .title("Software TLB")
                    .col("hits", |t| t.hits)
                    .col("misses", |t| t.misses)
                    .col("flushes", |t| t.flushes)
                    .json("hit_rate_milli", |_| hit_milli)
                    .text("hit rate", |_| format!("{:.1}%", hit_milli as f64 / 10.0)),
            )
            .table(
                Table::row("net", self.net)
                    .title("Network stack")
                    .both("rx_segments", "rx segments", |n| n.rx_segments)
                    .both("tx_segments", "tx segments", |n| n.tx_segments)
                    .both("drops", "demux drops", |n| n.drops)
                    .both("backlog_overflows", "backlog drops", |n| {
                        n.backlog_overflows
                    })
                    .col("retransmits", |n| n.retransmits),
            )
            .table(
                Table::row("serving", self.serving)
                    .title("Serving tier: readiness layer + cooperative executor")
                    .rule(Rule::NonZero)
                    .both("events_posted", "events posted", |s| s.events_posted)
                    .both("events_coalesced", "coalesced", |s| s.events_coalesced)
                    .col("polls", |s| s.polls)
                    .both("events_delivered", "delivered", |s| s.events_delivered)
                    .both("tasks_spawned", "tasks spawned", |s| s.tasks_spawned)
                    .both("tasks_run", "task steps", |s| s.tasks_run)
                    .col("wakeups", |s| s.wakeups),
            )
            .table(
                Table::rows("latency", &self.latency)
                    .title("Request latency percentiles (cycles, exact nearest-rank)")
                    .rule(Rule::NonEmpty)
                    .col("app", |r| r.app)
                    .col("backend", |r| r.backend)
                    .both("count", "requests", |r| r.count)
                    .col("p50", |r| r.p50)
                    .col("p99", |r| r.p99)
                    .col("p999", |r| r.p999),
            )
            .table(
                Table::rows("ring_drops", &self.ring_drops)
                    .title("Bounded-ring occupancy (events pushed vs overwritten)")
                    .rule(Rule::NonEmpty)
                    .col("subsystem", |r| r.subsystem)
                    .col("owner", |r| r.owner)
                    .col("pushed", |r| r.pushed)
                    .col("dropped", |r| r.dropped),
            )
            .table(
                Table::rows("events", &self.events)
                    .title("Event-ring tail (most recent, all compartments)")
                    .rule(Rule::NonEmpty)
                    .json("seq", |e| e.seq)
                    .col("cycles", |e| e.cycles)
                    .json("compartment", |e| e.compartment)
                    .text("compartment", |e| format!("cpt {}", e.compartment))
                    .col("kind", |e| e.kind)
                    .col("detail", |e| e.detail)
                    .text("seq", |e| e.seq)
                    .then(Sheet::new().line(format!(
                        "({} older events overwritten in bounded rings)",
                        self.events_overwritten
                    ))),
            )
            .field("events_overwritten", self.events_overwritten)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonWriter;
    use crate::sheet::Difference;

    impl StatsSnapshot {
        /// The embedding the golden test drives: the sheet, as the field
        /// `key` of `w`'s open object (or its root).
        fn write_json(&self, w: &mut JsonWriter, key: Option<&str>) {
            self.sheet().write_json(w, key);
        }
    }

    /// Every vector non-empty, every counter distinct, names that need
    /// escaping.
    fn full() -> StatsSnapshot {
        StatsSnapshot {
            elapsed_cycles: 1000,
            direct_calls: 3,
            gate_pairs: vec![
                GatePairRow {
                    mechanism: "MPK (shared stack)",
                    src: 0,
                    dst: 1,
                    src_name: "rest".into(),
                    dst_name: "net \"quoted\"\n\\tab\t\u{1}".into(),
                    crossings: 42,
                    bytes: 128,
                    gate_cycles: 9000,
                },
                GatePairRow {
                    mechanism: "VM RPC (EPT)",
                    src: 1,
                    dst: 0,
                    src_name: "net".into(),
                    dst_name: "rest".into(),
                    crossings: 7,
                    bytes: 64,
                    gate_cycles: 51_688,
                },
            ],
            mechanisms: vec![MechanismRow {
                mechanism: "MPK (shared stack)",
                count: 42,
                p50: 255,
                p90: 256,
                p99: 511,
                mean: 214,
                max: 400,
            }],
            gate_batch: vec![GateBatchRow {
                mechanism: "MPK (shared stack)",
                batches: 5,
                calls: 80,
                p50: 15,
                max: 16,
            }],
            async_gates: AsyncGatesSnapshot {
                submitted: 11,
                completed: 12,
                flushes: 13,
                cancelled: 14,
                sq_full: 15,
                cq_empty: 16,
            },
            migrations: MigrationsSnapshot {
                requested: 21,
                completed: 22,
                deferred: 23,
                rejected_submits: 24,
                requeued_sqes: 25,
                preserved_cqes: 26,
                drain_cycles_total: 27,
                drain_cycles_max: 28,
                escalations: 29,
                relaxations: 30,
            },
            sched: SchedSnapshot {
                switches: 31,
                steps: 32,
                depth_sum: 112,
                depth_max: 4,
                task_cycles: vec![(1, 100), (2, 200)],
            },
            allocs: vec![AllocRow {
                compartment: 1,
                name: "net".into(),
                allocs: 41,
                frees: 42,
                bytes_in_use: 43,
                peak_bytes: 44,
                failures: 45,
            }],
            fault_kinds: vec![
                FaultKindRow {
                    kind: "pkey-violation",
                    count: 2,
                },
                FaultKindRow {
                    kind: "gate-timeout",
                    count: 1,
                },
            ],
            fault_compartments: vec![FaultCompartmentRow {
                compartment: 1,
                name: "net".into(),
                count: 2,
            }],
            tlb: TlbSnapshot {
                hits: 51,
                misses: 17,
                flushes: 53,
            },
            net: NetSnapshot {
                rx_segments: 61,
                tx_segments: 62,
                drops: 64,
                backlog_overflows: 65,
                retransmits: 66,
            },
            serving: ServingSnapshot {
                events_posted: 71,
                events_coalesced: 72,
                polls: 73,
                events_delivered: 74,
                tasks_spawned: 75,
                tasks_run: 76,
                wakeups: 77,
            },
            latency: vec![LatencyRow {
                app: "redis",
                backend: "mpk-shared",
                count: 81,
                p50: 82,
                p99: 83,
                p999: 84,
            }],
            ring_drops: vec![
                RingDropRow {
                    subsystem: "gates",
                    owner: 0,
                    pushed: 91,
                    dropped: 92,
                },
                RingDropRow {
                    subsystem: "spans",
                    owner: 1,
                    pushed: 93,
                    dropped: 0,
                },
            ],
            events: vec![
                EventRow {
                    seq: 0,
                    cycles: 10,
                    compartment: 0,
                    kind: "gate-enter",
                    detail: 1,
                },
                EventRow {
                    seq: 1,
                    cycles: 20,
                    compartment: 1,
                    kind: "fault",
                    detail: 65_537,
                },
            ],
            events_overwritten: 99,
        }
    }

    /// The bytes the parent of PR 23 wrote for `full()` with its
    /// hand-placed commas and its own escaper (less the `steals` key,
    /// which went with its field): any separator, escape or field-order
    /// slip in the writer-based emitter fails here, before
    /// `ci/artefacts.sh` has to find it.
    const FULL_JSON: &str = concat!(
        r#"{"elapsed_cycles":1000,"#,
        r#""direct_calls":3,"#,
        r#""gate_pairs":[{"mechanism":"MPK (shared stack)","src":0,"dst":1,"src_name":"rest","dst_name":"net \"quoted\"\n\\tab\t\u0001","crossings":42,"bytes":128,"gate_cycles":9000},{"mechanism":"VM RPC (EPT)","src":1,"dst":0,"src_name":"net","dst_name":"rest","crossings":7,"bytes":64,"gate_cycles":51688}],"#,
        r#""mechanisms":[{"mechanism":"MPK (shared stack)","count":42,"p50":255,"p90":256,"p99":511,"mean":214,"max":400}],"#,
        r#""gate_batch":[{"mechanism":"MPK (shared stack)","batches":5,"calls":80,"p50":15,"max":16}],"#,
        r#""async_gates":{"submitted":11,"completed":12,"flushes":13,"cancelled":14,"sq_full":15,"cq_empty":16},"#,
        r#""migrations":{"requested":21,"completed":22,"deferred":23,"rejected_submits":24,"requeued_sqes":25,"preserved_cqes":26,"drain_cycles_total":27,"drain_cycles_max":28,"escalations":29,"relaxations":30},"#,
        r#""sched":{"switches":31,"steps":32,"avg_depth_milli":3500,"depth_max":4,"task_cycles":[{"tid":1,"cycles":100},{"tid":2,"cycles":200}]},"#,
        r#""allocs":[{"compartment":1,"name":"net","allocs":41,"frees":42,"bytes_in_use":43,"peak_bytes":44,"failures":45}],"#,
        r#""fault_kinds":[{"kind":"pkey-violation","count":2},{"kind":"gate-timeout","count":1}],"#,
        r#""fault_compartments":[{"compartment":1,"name":"net","count":2}],"#,
        r#""tlb":{"hits":51,"misses":17,"flushes":53,"hit_rate_milli":750},"#,
        r#""net":{"rx_segments":61,"tx_segments":62,"drops":64,"backlog_overflows":65,"retransmits":66},"#,
        r#""serving":{"events_posted":71,"events_coalesced":72,"polls":73,"events_delivered":74,"tasks_spawned":75,"tasks_run":76,"wakeups":77},"#,
        r#""latency":[{"app":"redis","backend":"mpk-shared","count":81,"p50":82,"p99":83,"p999":84}],"#,
        r#""ring_drops":[{"subsystem":"gates","owner":0,"pushed":91,"dropped":92},{"subsystem":"spans","owner":1,"pushed":93,"dropped":0}],"#,
        r#""events":[{"seq":0,"cycles":10,"compartment":0,"kind":"gate-enter","detail":1},{"seq":1,"cycles":20,"compartment":1,"kind":"fault","detail":65537}],"#,
        r#""events_overwritten":99}"#,
    );

    #[test]
    fn json_is_well_formed_and_carries_rows() {
        assert_eq!(full().to_json(), FULL_JSON);
        // Embedded in another document, the snapshot is the same bytes.
        let mut w = JsonWriter::new();
        w.begin_obj(None);
        full().write_json(&mut w, Some("stats"));
        w.end_obj();
        assert_eq!(w.finish(), format!("{{\"stats\":{FULL_JSON}}}"));
    }

    /// What the table code that `sheet()` replaced printed for `full()`
    /// (its `run_stats` table code over this snapshot, the lines between
    /// the workload line and the end of the event tail): every cell
    /// padded to its column, the last one too.
    const FULL_TEXT: &str = concat!(
        "Same-compartment calls compiled to direct calls: 3\n",
        "\n",
        "== Gate crossings per (src -> dst) compartment pair ==\n",
        "mechanism           src -> dst                   crossings  crossings/s  bytes  gate cycles\n",
        "-------------------------------------------------------------------------------------------\n",
        "MPK (shared stack)  rest -> net \"quoted\"\n",
        "\\tab\t\u{1}  42         88200000     128    9000       \n",
        "VM RPC (EPT)        net -> rest                  7          14700000     64     51688      \n",
        "\n",
        "\n",
        "== Crossing latency per gate mechanism (cycles, log2-bucket bounds) ==\n",
        "mechanism           count  p50  p90  p99  mean  max\n",
        "---------------------------------------------------\n",
        "MPK (shared stack)  42     255  256  511  214   400\n",
        "\n",
        "\n",
        "== Batched crossings per gate mechanism (batch-size histogram) ==\n",
        "mechanism           batches  calls  p50 size  max size\n",
        "------------------------------------------------------\n",
        "MPK (shared stack)  5        80     15        16      \n",
        "\n",
        "\n",
        "== Scheduler ==\n",
        "ctx switches  steps  avg rq depth  max rq depth\n",
        "-----------------------------------------------\n",
        "31            32     3.500         4           \n",
        "\n",
        "\n",
        "== Per-task run time ==\n",
        "thread  cycles\n",
        "--------------\n",
        "tid 1   100   \n",
        "tid 2   200   \n",
        "\n",
        "\n",
        "== Allocator pressure per compartment ==\n",
        "compartment  allocs  frees  bytes in use  peak bytes  failures\n",
        "--------------------------------------------------------------\n",
        "net          41      42     43            44          45      \n",
        "\n",
        "\n",
        "== Faults by class ==\n",
        "kind            count\n",
        "---------------------\n",
        "pkey-violation  2    \n",
        "gate-timeout    1    \n",
        "\n",
        "\n",
        "== Pkey violations by owning compartment ==\n",
        "compartment  count\n",
        "------------------\n",
        "net          2    \n",
        "\n",
        "\n",
        "== Software TLB ==\n",
        "hits  misses  flushes  hit rate\n",
        "-------------------------------\n",
        "51    17      53       75.0%   \n",
        "\n",
        "\n",
        "== Network stack ==\n",
        "rx segments  tx segments  demux drops  backlog drops  retransmits\n",
        "-----------------------------------------------------------------\n",
        "61           62           64           65             66         \n",
        "\n",
        "\n",
        "== Serving tier: readiness layer + cooperative executor ==\n",
        "events posted  coalesced  polls  delivered  tasks spawned  task steps  wakeups\n",
        "------------------------------------------------------------------------------\n",
        "71             72         73     74         75             76          77     \n",
        "\n",
        "\n",
        "== Request latency percentiles (cycles, exact nearest-rank) ==\n",
        "app    backend     requests  p50  p99  p999\n",
        "-------------------------------------------\n",
        "redis  mpk-shared  81        82   83   84  \n",
        "\n",
        "\n",
        "== Bounded-ring occupancy (events pushed vs overwritten) ==\n",
        "subsystem  owner  pushed  dropped\n",
        "---------------------------------\n",
        "gates      0      91      92     \n",
        "spans      1      93      0      \n",
        "\n",
        "\n",
        "== Event-ring tail (most recent, all compartments) ==\n",
        "cycles  compartment  kind        detail  seq\n",
        "--------------------------------------------\n",
        "10      cpt 0        gate-enter  1       0  \n",
        "20      cpt 1        fault       65537   1  \n",
        "\n",
        "(99 older events overwritten in bounded rings)\n",
    );

    /// The same for an empty snapshot: the fallback line, no row-less
    /// optional table, no serving block.
    const EMPTY_TEXT: &str = concat!(
        "Same-compartment calls compiled to direct calls: 0\n",
        "\n",
        "== Gate crossings per (src -> dst) compartment pair ==\n",
        "mechanism  src -> dst  crossings  crossings/s  bytes  gate cycles\n",
        "-----------------------------------------------------------------\n",
        "\n",
        "\n",
        "== Crossing latency per gate mechanism (cycles, log2-bucket bounds) ==\n",
        "mechanism  count  p50  p90  p99  mean  max\n",
        "------------------------------------------\n",
        "\n",
        "\n",
        "== Scheduler ==\n",
        "ctx switches  steps  avg rq depth  max rq depth\n",
        "-----------------------------------------------\n",
        "0             0      0.000         0           \n",
        "\n",
        "\n",
        "== Allocator pressure per compartment ==\n",
        "compartment  allocs  frees  bytes in use  peak bytes  failures\n",
        "--------------------------------------------------------------\n",
        "\n",
        "\n",
        "Faults: none recorded.\n",
        "\n",
        "== Software TLB ==\n",
        "hits  misses  flushes  hit rate\n",
        "-------------------------------\n",
        "0     0       0        0.0%    \n",
        "\n",
        "\n",
        "== Network stack ==\n",
        "rx segments  tx segments  demux drops  backlog drops  retransmits\n",
        "-----------------------------------------------------------------\n",
        "0            0            0            0              0          \n",
        "\n",
    );

    #[test]
    fn stats_text_is_the_recorded_rendering() {
        assert_eq!(full().sheet().to_string(), FULL_TEXT);
        assert_eq!(StatsSnapshot::default().sheet().to_string(), EMPTY_TEXT);
    }

    #[test]
    fn first_difference_names_every_perturbed_cell() {
        let cells = crate::sheet::tests::every_perturbed_cell_is_named(&full().sheet());
        // Every JSON value of `FULL_JSON` that is not an array or object.
        assert_eq!(cells, 109);
        // A perturbed row field is named under its table, row and key.
        let named = |f: fn(&mut StatsSnapshot)| {
            let mut other = full();
            f(&mut other);
            full().sheet().first_difference(&other.sheet())
        };
        let cell = |table: &str, row, column, left: u64, right: u64| Difference::Cell {
            table: table.to_string(),
            row,
            column,
            left: Cell::U64(left),
            right: Cell::U64(right),
        };
        type Perturb = fn(&mut StatsSnapshot);
        let cases: [(Perturb, Difference); 5] = [
            (
                |s| s.gate_pairs[1].gate_cycles += 1,
                cell("gate_pairs", 1, "gate_cycles", 51_688, 51_689),
            ),
            (
                |s| s.sched.task_cycles[1].1 = 7,
                cell("sched.task_cycles", 1, "cycles", 200, 7),
            ),
            (|s| s.tlb.misses = 0, cell("tlb", 0, "misses", 17, 0)),
            (
                |s| s.events_overwritten = 0,
                cell("", 0, "events_overwritten", 99, 0),
            ),
            (
                |s| s.latency.clear(),
                Difference::Row {
                    table: "latency".into(),
                    row: 0,
                    left: true,
                },
            ),
        ];
        for (f, want) in cases {
            assert_eq!(named(f), Some(want));
        }
        assert_eq!(named(|_| {}), None);
    }
}
