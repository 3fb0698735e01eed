//! The seven workloads, each reduced to one call: `Workload::run` takes a
//! shape (how many ops, isolated or not, which arrival gap) and a mode
//! (plain, with counters, with the span export) and drives the system
//! through its public `run_*` / `call_lib*` / ring functions only.

use flexos::build::{plan, BackendChoice, ImageConfig, ImagePlan, LibRole, LibraryConfig};
use flexos::gate::{CallVec, CompartmentId, Sqe};
use flexos::spec::LibSpec;
use flexos_apps::iperf::{run_iperf, IperfParams};
use flexos_apps::redis::{run_redis, run_redis_traced, run_redis_with_stats, Mix, RedisParams};
use flexos_apps::serve::{run_serve, run_serve_traced, run_serve_with_stats, ServeParams};
use flexos_apps::{CompartmentModel, SchedKind};
use flexos_backends::{instantiate, BootImage};
use flexos_trace::{AsyncGatesSnapshot, StatsSnapshot, TraceRegistry};

/// The gate ladder's backends, by the label the metric names use.
pub const GATE_BACKENDS: [(&str, BackendChoice); 5] = [
    ("direct", BackendChoice::None),
    ("mpk-shared", BackendChoice::MpkShared),
    ("mpk-switched", BackendChoice::MpkSwitched),
    ("vmrpc", BackendChoice::VmRpc),
    ("cheri", BackendChoice::Cheri),
];

/// The three ways a gate-ladder cell issues its crossings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cell {
    /// One synchronous `call_lib` per crossing.
    B1,
    /// `call_lib_batch` of 32.
    B32,
    /// `submit_many` + `flush_async` + `poll_completions` at depth 128.
    Async128,
}

impl Cell {
    pub const ALL: [Cell; 3] = [Cell::B1, Cell::B32, Cell::Async128];

    pub fn label(self) -> &'static str {
        match self {
            Cell::B1 => "b1",
            Cell::B32 => "b32",
            Cell::Async128 => "async128",
        }
    }
}

/// Crossings every gate-ladder cell count must divide by (one async ring).
pub const GATE_CELL_QUANTUM: u64 = 128;
/// Crossings per cell in a host round: the issue's 100 000, rounded up to
/// whole async rings so the three cells of a backend do equal work.
pub const GATE_CELL_OPS: u64 = 800 * GATE_CELL_QUANTUM;
/// Cells in one gate-ladder round.
pub const GATE_CELLS: u64 = (GATE_BACKENDS.len() * Cell::ALL.len()) as u64;

/// The serving tier's nominal mean gap between bursts (≈ 50 % of the
/// saturated capacity) and the gap that saturates it.
pub const SERVE_NOMINAL_GAP: u64 = 20_000;
pub const SERVE_SATURATED_GAP: u64 = 100;
/// Requests per ladder rung and per saturated run.
pub const SERVE_SIM_OPS: u64 = 200_000;
/// The open-loop rate ladder (mean gap between bursts, cycles).
pub const SERVE_LADDER: [u64; 8] = [
    50_000, 30_000, 20_000, 16_000, 14_000, 12_000, 10_000, 8_000,
];
/// The rungs `serve_c100k` runs: its nominal gap and the two around the
/// knee, because each rung there costs a 0.2 s establishment.
pub const SERVE_LADDER_C100K: [u64; 3] = [SERVE_NOMINAL_GAP, 14_000, 12_000];
const SERVE_PIPELINE: usize = 4;

/// What one call does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Ops requested (requests, KiB or crossings).
    pub ops: u64,
    /// `false` swaps in `CompartmentModel::Baseline` (which builds with
    /// `BackendChoice::None`); the gate ladder has no such twin.
    pub isolated: bool,
    /// Mean arrival gap (serve only).
    pub gap: u64,
}

/// How much telemetry the call returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The untraced entry point (`run_*`).
    Plain,
    /// `run_*_with_stats`: the counters too.
    Stats,
    /// `run_*_traced`: counters and the Chrome trace export.
    Traced,
}

/// What must repeat bit for bit between two calls of one shape.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Triple {
    pub ops: u64,
    pub cycles: u64,
    pub crossings: u64,
}

/// The additive counters a run reports, summed over the image's
/// compartments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum C {
    ElapsedCycles,
    GateCycles,
    Crossings,
    TlbHits,
    TlbMisses,
    AsyncSubmitted,
    AsyncSqFull,
    SchedSwitches,
    SchedSteps,
    Allocs,
    AllocFailures,
    CotaskSteps,
    CotaskWakeups,
    RxSegments,
    TxSegments,
    Retransmits,
    Drops,
    BacklogOverflows,
    EventsPosted,
    EventsCoalesced,
    EventsDelivered,
    Polls,
    SpansPushed,
    SpansDropped,
}

const COUNTERS: usize = C::SpansDropped as usize + 1;

/// Counters of one run. The snapshot they come from covers set-up too,
/// so per-op figures use the difference between a full run and a
/// minimum run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    v: [u64; COUNTERS],
    /// Median batch size of the busiest batched mechanism (not additive:
    /// a difference keeps the full run's value).
    pub batch_calls_p50: u64,
}

impl std::ops::Index<C> for Counters {
    type Output = u64;
    fn index(&self, c: C) -> &u64 {
        &self.v[c as usize]
    }
}

impl Counters {
    fn from_snapshot(s: &StatsSnapshot) -> Self {
        let spans = s.ring_drops.iter().filter(|r| r.subsystem == "spans");
        let mut v = [0u64; COUNTERS];
        for (c, value) in [
            (C::ElapsedCycles, s.elapsed_cycles),
            (
                C::GateCycles,
                s.gate_pairs.iter().map(|p| p.gate_cycles).sum(),
            ),
            (C::Crossings, s.gate_pairs.iter().map(|p| p.crossings).sum()),
            (C::TlbHits, s.tlb.hits),
            (C::TlbMisses, s.tlb.misses),
            (C::AsyncSubmitted, s.async_gates.submitted),
            (C::AsyncSqFull, s.async_gates.sq_full),
            (C::SchedSwitches, s.sched.switches),
            (C::SchedSteps, s.sched.steps),
            (C::Allocs, s.allocs.iter().map(|a| a.allocs).sum()),
            (C::AllocFailures, s.allocs.iter().map(|a| a.failures).sum()),
            (C::CotaskSteps, s.serving.tasks_run),
            (C::CotaskWakeups, s.serving.wakeups),
            (C::RxSegments, s.net.rx_segments),
            (C::TxSegments, s.net.tx_segments),
            (C::Retransmits, s.net.retransmits),
            (C::Drops, s.net.drops),
            (C::BacklogOverflows, s.net.backlog_overflows),
            (C::EventsPosted, s.serving.events_posted),
            (C::EventsCoalesced, s.serving.events_coalesced),
            (C::EventsDelivered, s.serving.events_delivered),
            (C::Polls, s.serving.polls),
            (C::SpansPushed, spans.clone().map(|r| r.pushed).sum()),
            (C::SpansDropped, spans.map(|r| r.dropped).sum()),
        ] {
            v[c as usize] = value;
        }
        Self {
            v,
            batch_calls_p50: s.gate_batch.first().map_or(0, |b| b.p50),
        }
    }

    /// `self + other` (`batch_calls_p50` keeps the larger).
    fn plus(mut self, o: Self) -> Self {
        for (a, b) in self.v.iter_mut().zip(o.v) {
            *a += b;
        }
        self.batch_calls_p50 = self.batch_calls_p50.max(o.batch_calls_p50);
        self
    }

    /// `self − setup`: the measured phase's share.
    pub fn minus(mut self, setup: Self) -> Self {
        for (a, b) in self.v.iter_mut().zip(setup.v) {
            *a = a.saturating_sub(b);
        }
        self
    }
}

/// Everything one call reports.
#[derive(Debug, Clone, Default)]
pub struct RunOut {
    pub triple: Triple,
    /// Full counters (absent for `Mode::Plain` and for iperf, whose
    /// `run_iperf` has no `_with_stats` variant).
    pub counters: Option<Counters>,
    /// `(p50, p99, p999)` request latency in simulated cycles.
    pub latency: Option<[u64; 3]>,
    /// Commands per shard compartment (serve).
    pub shard_ops: Vec<u64>,
    /// Context switches (iperf: the one scheduler counter `IperfResult` has).
    pub iperf_switches: Option<u64>,
    /// Frames the link dropped or corrupted (iperf; must be 0).
    pub link_losses: u64,
    /// Simulated cycles of each gate-ladder cell, backend-major.
    pub cell_cycles: Vec<u64>,
    /// Per-crossing simulated latency of the ladder's sync cells
    /// (`Mode::Stats` only).
    pub crossing_latencies: Vec<u64>,
    /// Chrome trace exports as `(file stem suffix, JSON)`.
    pub traces: Vec<(String, String)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Redis {
        mix: Mix,
        pipeline: usize,
        backend: BackendChoice,
    },
    Iperf {
        recv_buf: u64,
    },
    Serve {
        conns: usize,
        /// The mean gaps of the rate ladder's rungs.
        ladder: &'static [u64],
    },
    Gates,
}

/// One workload: its parameters, its fixed work per round and what the
/// report prints beside it.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Fixed work of one host round.
    pub ops_per_round: u64,
    /// The minimum request count: one pipeline's worth, one recv buffer,
    /// one async ring per cell. A run of this size is a set-up round.
    pub min_ops: u64,
    /// Host rounds a run never goes below, whatever `--seconds` says.
    pub min_rounds: usize,
    /// What one op is.
    pub op: &'static str,
    /// The backend whose gate unit costs price this workload's crossings.
    pub gate_backend: &'static str,
    /// Whether `trace.probe_overhead_ratio` is measured here (the twin
    /// build's alternating rounds are paid only where probes are densest).
    pub probe_pairs: bool,
    /// The paper's slowdown for this configuration where EXPERIMENTS.md
    /// holds one.
    pub paper_ref: &'static str,
}

/// The seven workloads, in report order.
pub const ALL: [Workload; 7] = [
    Workload {
        name: "redis_get_mpk",
        kind: Kind::Redis {
            mix: Mix::Get,
            pipeline: 16,
            backend: BackendChoice::MpkShared,
        },
        ops_per_round: 150_000,
        min_ops: 16,
        min_rounds: 21,
        op: "request",
        gate_backend: "mpk-shared",
        probe_pairs: true,
        paper_ref: "paper ~1.4x, EXPERIMENTS.md E4 1.26x (NW/Sched/Rest, shared stacks, 50 B GET)",
    },
    Workload {
        name: "redis_set_vmrpc_p1",
        kind: Kind::Redis {
            mix: Mix::Set,
            pipeline: 1,
            backend: BackendChoice::VmRpc,
        },
        ops_per_round: 40_000,
        min_ops: 1,
        min_rounds: 21,
        op: "request",
        gate_backend: "vmrpc",
        probe_pairs: false,
        paper_ref: "unvalidated",
    },
    Workload {
        name: "iperf_rx_16k",
        kind: Kind::Iperf {
            recv_buf: 16 * 1024,
        },
        ops_per_round: 196_608,
        min_ops: 16,
        min_rounds: 21,
        op: "KiB",
        gate_backend: "mpk-shared",
        probe_pairs: false,
        paper_ref: "paper: on par with the baseline from 1 KiB up (Fig. 3, NW-only); \
                    unvalidated for NW/Sched/Rest",
    },
    Workload {
        name: "iperf_rx_64",
        kind: Kind::Iperf { recv_buf: 64 },
        ops_per_round: 32_768,
        min_ops: 1,
        min_rounds: 21,
        op: "KiB",
        gate_backend: "mpk-shared",
        probe_pairs: true,
        paper_ref: "paper 2x-3x at small buffers, EXPERIMENTS.md E1 1.75x (Fig. 3, NW-only); \
                    unvalidated for NW/Sched/Rest",
    },
    Workload {
        name: "serve_c10k",
        kind: Kind::Serve {
            conns: 10_000,
            ladder: &SERVE_LADDER,
        },
        ops_per_round: 100_000,
        min_ops: SERVE_PIPELINE as u64,
        min_rounds: 21,
        op: "request",
        gate_backend: "mpk-shared",
        probe_pairs: false,
        paper_ref: "unvalidated",
    },
    Workload {
        name: "serve_c100k",
        kind: Kind::Serve {
            conns: 100_000,
            ladder: &SERVE_LADDER_C100K,
        },
        ops_per_round: 200_000,
        min_ops: SERVE_PIPELINE as u64,
        min_rounds: 11,
        op: "request",
        gate_backend: "mpk-shared",
        probe_pairs: false,
        paper_ref: "unvalidated",
    },
    Workload {
        name: "gate_ladder",
        kind: Kind::Gates,
        ops_per_round: GATE_CELLS * GATE_CELL_OPS,
        min_ops: GATE_CELLS * GATE_CELL_QUANTUM,
        min_rounds: 21,
        op: "crossing",
        gate_backend: "",
        probe_pairs: true,
        paper_ref: "unvalidated",
    },
];

pub fn lookup(name: &str) -> Option<Workload> {
    ALL.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The shape of a host round.
    pub fn round(&self) -> Shape {
        Shape {
            ops: self.ops_per_round,
            isolated: true,
            gap: SERVE_NOMINAL_GAP,
        }
    }

    /// The shape of a set-up round.
    pub fn setup(&self) -> Shape {
        Shape {
            ops: self.min_ops,
            ..self.round()
        }
    }

    /// Runs the workload once. `seed` reaches the serving tier's arrival
    /// process; the redis and iperf load generators live inside
    /// `flexos-apps` and take none.
    pub fn run(&self, seed: u64, shape: Shape, mode: Mode) -> Result<RunOut, String> {
        // The no-isolation twin: `evaluation_image` builds the baseline
        // model with `BackendChoice::None` whatever backend is named.
        let model = if shape.isolated {
            CompartmentModel::NwSchedRest
        } else {
            CompartmentModel::Baseline
        };
        let sched = SchedKind::Coop;
        match self.kind {
            Kind::Redis {
                mix,
                pipeline,
                backend,
            } => run_redis_shape(
                &RedisParams {
                    model,
                    backend,
                    sched,
                    payload: 50,
                    mix,
                    ops: shape.ops,
                    pipeline,
                    ..RedisParams::default()
                },
                mode,
            ),
            Kind::Iperf { recv_buf } => Ok(run_iperf_shape(&IperfParams {
                model,
                backend: BackendChoice::MpkShared,
                sched,
                recv_buf,
                total_bytes: shape.ops * 1024,
                ..IperfParams::default()
            })),
            Kind::Serve { conns, .. } => run_serve_shape(
                &ServeParams {
                    model,
                    backend: BackendChoice::MpkShared,
                    sched,
                    shards: 4,
                    conns,
                    ops: shape.ops,
                    payload: 64,
                    pipeline: SERVE_PIPELINE,
                    mix: Mix::Get,
                    arrival_gap_cycles: shape.gap,
                    seed,
                    migrate_to: None,
                },
                mode,
            ),
            Kind::Gates => run_gate_ladder(shape.ops / GATE_CELLS, mode),
        }
    }
}

/// A result with whatever telemetry the mode asked for.
type WithTelemetry<R> = (R, Option<StatsSnapshot>, Option<String>);

/// Calls the entry point `mode` names: `run_*`, `run_*_with_stats` or
/// `run_*_traced`.
fn by_mode<R, E: std::fmt::Display>(
    mode: Mode,
    plain: impl FnOnce() -> Result<R, E>,
    stats: impl FnOnce() -> Result<(R, StatsSnapshot), E>,
    traced: impl FnOnce() -> Result<(R, StatsSnapshot, String), E>,
) -> Result<WithTelemetry<R>, String> {
    match mode {
        Mode::Plain => plain().map(|r| (r, None, None)),
        Mode::Stats => stats().map(|(r, s)| (r, Some(s), None)),
        Mode::Traced => traced().map(|(r, s, t)| (r, Some(s), Some(t))),
    }
    .map_err(|e| e.to_string())
}

fn run_redis_shape(p: &RedisParams, mode: Mode) -> Result<RunOut, String> {
    let (r, snap, trace) = by_mode(
        mode,
        || run_redis(p),
        || run_redis_with_stats(p),
        || run_redis_traced(p),
    )?;
    Ok(RunOut {
        triple: Triple {
            ops: r.ops,
            cycles: r.cycles,
            crossings: r.crossings,
        },
        latency: snap.as_ref().and_then(|s| {
            let row = s.latency.iter().find(|l| l.app == "redis")?;
            Some([row.p50, row.p99, row.p999])
        }),
        counters: snap.as_ref().map(Counters::from_snapshot),
        traces: trace.into_iter().map(|t| (String::new(), t)).collect(),
        ..RunOut::default()
    })
}

fn run_iperf_shape(p: &IperfParams) -> RunOut {
    let r = run_iperf(p);
    RunOut {
        triple: Triple {
            ops: r.bytes / 1024,
            cycles: r.cycles,
            crossings: r.crossings,
        },
        iperf_switches: Some(r.switches),
        link_losses: r.frames_dropped + r.frames_corrupted,
        ..RunOut::default()
    }
}

fn run_serve_shape(p: &ServeParams, mode: Mode) -> Result<RunOut, String> {
    let (r, snap, trace) = by_mode(
        mode,
        || run_serve(p),
        || run_serve_with_stats(p),
        || run_serve_traced(p),
    )?;
    Ok(RunOut {
        triple: Triple {
            ops: r.ops,
            cycles: r.cycles,
            crossings: r.crossings,
        },
        latency: Some([r.p50_cycles, r.p99_cycles, r.p999_cycles]),
        shard_ops: r.shard_ops,
        counters: snap.as_ref().map(Counters::from_snapshot),
        traces: trace.into_iter().map(|t| (String::new(), t)).collect(),
        ..RunOut::default()
    })
}

// --- the gate ladder -------------------------------------------------------------

/// The library every ladder crossing targets.
const GATE_TARGET_LIB: &str = "uksched_verified";

/// Plans the three-library image the ladder crosses in: verified
/// scheduler, network stack and application, one compartment each where
/// the backend isolates.
pub fn three_lib_plan(backend: BackendChoice) -> Result<ImagePlan, String> {
    let cfg = ImageConfig::new("benchmark-gate", backend)
        .with_library(LibraryConfig::new(
            LibSpec::verified_scheduler(),
            LibRole::Scheduler,
        ))
        .with_library(LibraryConfig::new(
            LibSpec::unsafe_c("lwip"),
            LibRole::NetStack,
        ))
        .with_library(LibraryConfig::new(LibSpec::unsafe_c("app"), LibRole::App));
    plan(cfg).map_err(|e| e.to_string())
}

/// Boots [`three_lib_plan`] with the target's async ring sized for one
/// ladder burst.
pub fn gate_image(backend: BackendChoice) -> Result<BootImage, String> {
    let mut img = instantiate(three_lib_plan(backend)?).map_err(|e| e.to_string())?;
    let target = gate_target(&img)?;
    img.gates
        .ensure_ring_depth(target, GATE_CELL_QUANTUM as usize);
    Ok(img)
}

fn gate_target(img: &BootImage) -> Result<CompartmentId, String> {
    img.compartment_of_lib(GATE_TARGET_LIB)
        .ok_or_else(|| format!("no compartment hosts {GATE_TARGET_LIB}"))
}

/// Issues `n` crossings (16-byte arguments, 8-byte return) the way `cell`
/// says and returns how many completed. `n` must be a multiple of
/// [`GATE_CELL_QUANTUM`].
pub fn run_cell(img: &mut BootImage, cell: Cell, n: u64) -> Result<u64, String> {
    debug_assert_eq!(n % GATE_CELL_QUANTUM, 0);
    let mut done = 0u64;
    match cell {
        Cell::B1 => {
            for _ in 0..n {
                img.call_lib(GATE_TARGET_LIB, 16, 8, |_, _| Ok(()))
                    .map_err(|e| e.to_string())?;
                done += 1;
            }
        }
        Cell::B32 => {
            let calls = CallVec::uniform(32, 16, 8);
            for _ in 0..n / 32 {
                let rets = img
                    .call_lib_batch(GATE_TARGET_LIB, &calls, |_, _, _| Ok(()))
                    .map_err(|e| e.to_string())?;
                done += rets.len() as u64;
            }
        }
        Cell::Async128 => {
            let target = gate_target(img)?;
            let BootImage { machine, gates, .. } = img;
            let sqes: Vec<Sqe> = (0..GATE_CELL_QUANTUM).map(|i| Sqe::new(16, 8, i)).collect();
            let mut cqes = Vec::with_capacity(sqes.len());
            for _ in 0..n / GATE_CELL_QUANTUM {
                gates
                    .submit_many(target, &sqes)
                    .map_err(|e| e.to_string())?;
                gates
                    .flush_async(machine, target, |_, _, _| Ok(0))
                    .map_err(|e| e.to_string())?;
                cqes.clear();
                done += gates.poll_completions(target, &mut cqes) as u64;
            }
        }
    }
    Ok(done)
}

fn compartment_names(img: &BootImage) -> Vec<String> {
    (0..img.gates.len())
        .map(|c| img.gates.ctx(CompartmentId(c as u16)).name.clone())
        .collect()
}

fn gate_snapshot(img: &BootImage) -> StatsSnapshot {
    let names = compartment_names(img);
    let ag = img.gates.async_stats();
    let mut reg = TraceRegistry::new();
    reg.set_elapsed(img.machine.clock().cycles());
    reg.add_gates(img.gates.trace(), &names);
    reg.add_tlb(img.machine.tlb_trace());
    reg.add_async_gates(AsyncGatesSnapshot {
        submitted: ag.submitted,
        completed: ag.completed,
        flushes: ag.flushes,
        cancelled: ag.cancelled,
        sq_full: ag.sq_full,
        cq_empty: ag.cq_empty,
    });
    reg.add_spans(img.machine.span_trace());
    reg.finish()
}

/// Samples per backend for the ladder's per-crossing latency.
const GATE_LATENCY_SAMPLES: u64 = 10_000;

/// One ladder round: five fresh images, three cells each, `per_cell`
/// crossings per cell.
fn run_gate_ladder(per_cell: u64, mode: Mode) -> Result<RunOut, String> {
    let mut out = RunOut::default();
    let mut triple = Triple::default();
    let mut counters = Counters::default();
    for (label, backend) in GATE_BACKENDS {
        let mut img = gate_image(backend)?;
        for cell in Cell::ALL {
            let c0 = img.machine.clock().cycles();
            triple.ops += run_cell(&mut img, cell, per_cell)?;
            out.cell_cycles.push(img.machine.clock().cycles() - c0);
        }
        triple.crossings += img.gates.stats().crossings;
        if mode != Mode::Plain {
            counters = counters.plus(Counters::from_snapshot(&gate_snapshot(&img)));
        }
        if mode == Mode::Traced {
            let names: Vec<(u16, String)> = (0u16..).zip(compartment_names(&img)).collect();
            let json = img.machine.span_trace().to_chrome_json(&names);
            out.traces.push((format!(".{label}"), json));
        }
        if mode == Mode::Stats {
            for _ in 0..GATE_LATENCY_SAMPLES {
                let t0 = img.machine.clock().cycles();
                img.call_lib(GATE_TARGET_LIB, 16, 8, |_, _| Ok(()))
                    .map_err(|e| e.to_string())?;
                out.crossing_latencies
                    .push(img.machine.clock().cycles() - t0);
            }
        }
    }
    triple.cycles = out.cell_cycles.iter().sum();
    out.triple = triple;
    out.counters = (mode != Mode::Plain).then_some(counters);
    Ok(out)
}
