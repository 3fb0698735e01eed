//! The aggregated, serializable view of a run's telemetry.
//!
//! A [`StatsSnapshot`] is plain data: every row type is public and the
//! whole thing serializes to JSON through [`JsonWriter`]. Aggregation
//! from the live trace structs is done by [`crate::TraceRegistry`].

use crate::json::JsonWriter;

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

impl StatsSnapshot {
    /// Serializes the snapshot as a self-contained JSON object.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w, None);
        w.finish()
    }

    /// Writes the snapshot as one object of the document `w` is building:
    /// the field `key` of the open object, or the next array element /
    /// the root value when `key` is `None`.
    pub fn write_json(&self, w: &mut JsonWriter, key: Option<&str>) {
        w.begin_obj(key)
            .u64_field("elapsed_cycles", self.elapsed_cycles)
            .u64_field("direct_calls", self.direct_calls);

        w.obj_arr("gate_pairs", &self.gate_pairs, |w, r| {
            w.str_field("mechanism", r.mechanism)
                .u64_field("src", r.src.into())
                .u64_field("dst", r.dst.into())
                .str_field("src_name", &r.src_name)
                .str_field("dst_name", &r.dst_name)
                .u64_field("crossings", r.crossings)
                .u64_field("bytes", r.bytes)
                .u64_field("gate_cycles", r.gate_cycles);
        });

        w.obj_arr("mechanisms", &self.mechanisms, |w, r| {
            w.str_field("mechanism", r.mechanism)
                .u64_field("count", r.count)
                .u64_field("p50", r.p50)
                .u64_field("p90", r.p90)
                .u64_field("p99", r.p99)
                .u64_field("mean", r.mean)
                .u64_field("max", r.max);
        });

        w.obj_arr("gate_batch", &self.gate_batch, |w, r| {
            w.str_field("mechanism", r.mechanism)
                .u64_field("batches", r.batches)
                .u64_field("calls", r.calls)
                .u64_field("p50", r.p50)
                .u64_field("max", r.max);
        });

        let a = &self.async_gates;
        w.begin_obj(Some("async_gates"))
            .u64_field("submitted", a.submitted)
            .u64_field("completed", a.completed)
            .u64_field("flushes", a.flushes)
            .u64_field("cancelled", a.cancelled)
            .u64_field("sq_full", a.sq_full)
            .u64_field("cq_empty", a.cq_empty)
            .end_obj();

        let mg = &self.migrations;
        w.begin_obj(Some("migrations"))
            .u64_field("requested", mg.requested)
            .u64_field("completed", mg.completed)
            .u64_field("deferred", mg.deferred)
            .u64_field("rejected_submits", mg.rejected_submits)
            .u64_field("requeued_sqes", mg.requeued_sqes)
            .u64_field("preserved_cqes", mg.preserved_cqes)
            .u64_field("drain_cycles_total", mg.drain_cycles_total)
            .u64_field("drain_cycles_max", mg.drain_cycles_max)
            .u64_field("escalations", mg.escalations)
            .u64_field("relaxations", mg.relaxations)
            .end_obj();

        let s = &self.sched;
        w.begin_obj(Some("sched"))
            .u64_field("switches", s.switches)
            .u64_field("steps", s.steps)
            .u64_field("avg_depth_milli", s.avg_depth_milli())
            .u64_field("depth_max", s.depth_max)
            .obj_arr("task_cycles", &s.task_cycles, |w, &(tid, cycles)| {
                w.u64_field("tid", tid.into()).u64_field("cycles", cycles);
            })
            .end_obj();

        w.obj_arr("allocs", &self.allocs, |w, r| {
            w.u64_field("compartment", r.compartment.into())
                .str_field("name", &r.name)
                .u64_field("allocs", r.allocs)
                .u64_field("frees", r.frees)
                .u64_field("bytes_in_use", r.bytes_in_use)
                .u64_field("peak_bytes", r.peak_bytes)
                .u64_field("failures", r.failures);
        });

        w.obj_arr("fault_kinds", &self.fault_kinds, |w, r| {
            w.str_field("kind", r.kind).u64_field("count", r.count);
        });

        w.obj_arr("fault_compartments", &self.fault_compartments, |w, r| {
            w.u64_field("compartment", r.compartment.into())
                .str_field("name", &r.name)
                .u64_field("count", r.count);
        });

        let t = &self.tlb;
        w.begin_obj(Some("tlb"))
            .u64_field("hits", t.hits)
            .u64_field("misses", t.misses)
            .u64_field("flushes", t.flushes)
            .u64_field("hit_rate_milli", t.hit_rate_milli())
            .end_obj();

        let n = &self.net;
        w.begin_obj(Some("net"))
            .u64_field("rx_segments", n.rx_segments)
            .u64_field("tx_segments", n.tx_segments)
            .u64_field("rx_datagrams", n.rx_datagrams)
            .u64_field("drops", n.drops)
            .u64_field("backlog_overflows", n.backlog_overflows)
            .u64_field("retransmits", n.retransmits)
            .end_obj();

        let sv = &self.serving;
        w.begin_obj(Some("serving"))
            .u64_field("events_posted", sv.events_posted)
            .u64_field("events_coalesced", sv.events_coalesced)
            .u64_field("polls", sv.polls)
            .u64_field("events_delivered", sv.events_delivered)
            .u64_field("tasks_spawned", sv.tasks_spawned)
            .u64_field("tasks_run", sv.tasks_run)
            .u64_field("wakeups", sv.wakeups)
            .end_obj();

        w.obj_arr("latency", &self.latency, |w, r| {
            w.str_field("app", r.app)
                .str_field("backend", r.backend)
                .u64_field("count", r.count)
                .u64_field("p50", r.p50)
                .u64_field("p99", r.p99)
                .u64_field("p999", r.p999);
        });

        w.obj_arr("ring_drops", &self.ring_drops, |w, r| {
            w.str_field("subsystem", r.subsystem)
                .u64_field("owner", r.owner.into())
                .u64_field("pushed", r.pushed)
                .u64_field("dropped", r.dropped);
        });

        w.obj_arr("events", &self.events, |w, e| {
            w.u64_field("seq", e.seq)
                .u64_field("cycles", e.cycles)
                .u64_field("compartment", e.compartment.into())
                .str_field("kind", e.kind)
                .u64_field("detail", e.detail);
        });
        w.u64_field("events_overwritten", self.events_overwritten)
            .end_obj();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
                depth_sum: 7,
                depth_samples: 2,
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
                rx_datagrams: 63,
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
        r#""net":{"rx_segments":61,"tx_segments":62,"rx_datagrams":63,"drops":64,"backlog_overflows":65,"retransmits":66},"#,
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
}
