//! One run of one workload in this process: the sim pass, the set-up
//! rounds, the host rounds and — with `--trace 1` — the traced rounds
//! paired with them, the twin build's alternating rounds and the layer
//! ladder.

use crate::harness::{cpu_ns, mix_seed, peak_rss_mib, Calibrated, Harness, Metrics};
use crate::layers;
use crate::stats::{floor, iqr_ratio, max_rate, median, nearest_rank, quartiles, Rung};
use crate::workloads::{
    Cell, Counters, Kind, Mode, RunOut, Shape, Triple, Workload, C, GATE_BACKENDS, SERVE_LADDER,
    SERVE_NOMINAL_GAP, SERVE_SATURATED_GAP, SERVE_SIM_OPS,
};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// Set-up rounds discarded as warm-up, and the fewest kept by set-up
/// duration (under 5 ms, under 50 ms, longer). A traced run keeps fewer:
/// its host rounds only feed diagnostics. Short set-ups keep more, up to
/// [`SETUP_FILL_NS`] of them or [`SETUP_KEPT_MOST`]: 101 rounds of a
/// 0.2 ms set-up are 20 ms, which one burst of a neighbour covers whole.
const SETUP_WARMUP: [usize; 2] = [5, 2];
const SETUP_KEPT: [[usize; 3]; 2] = [[101, 51, 11], [31, 15, 5]];
const SETUP_FILL_NS: [f64; 2] = [200e6, 50e6];
const SETUP_KEPT_MOST: usize = 1000;
/// Share of `--seconds` a traced run spends on its pairs of one untraced
/// and one traced round, and the fewest pairs it runs.
const TRACED_HOST_SHARE: f64 = 0.4;
const TRACED_MIN_ROUNDS: usize = 3;
/// Interleaved default-build/`trace-off`-build pairs.
const PROBE_PAIRS: usize = 11;

pub struct RunCfg {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `trace-off` twin of this executable.
    pub twin: Option<PathBuf>,
    /// Where trace exports go.
    pub out_dir: PathBuf,
}

/// One named correctness check.
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// How well the host rounds resolved (`--trace 0`; a traced run
    /// reports the same as `harness.*` metrics).
    pub diagnostics: Vec<(&'static str, f64)>,
}

/// What a run accumulates: its outcome, and the triple each shape must
/// repeat.
#[derive(Default)]
struct Book {
    out: Outcome,
    refs: Vec<(Shape, Triple)>,
    mismatches: Vec<String>,
}

impl Book {
    /// Runs `shape` once and books it. An `Err`, or a triple that
    /// differs from the shape's first, fails all the call's ops; a short
    /// count fails the ops not completed.
    fn call(
        &mut self,
        cfg: &RunCfg,
        h: &mut Harness,
        span: &str,
        shape: Shape,
        mode: Mode,
    ) -> Result<(RunOut, f64), String> {
        self.out.attempted += shape.ops;
        let (res, ns) = h.timed(span, |_| cfg.workload.run(mix_seed(cfg.seed), shape, mode));
        let out = res.inspect_err(|_| self.out.failed += shape.ops)?;
        self.book(shape, out.triple);
        Ok((out, ns as f64))
    }

    fn book(&mut self, shape: Shape, t: Triple) {
        let first = match self.refs.iter().find(|(s, _)| *s == shape) {
            Some(&(_, first)) => first,
            None => {
                self.refs.push((shape, t));
                t
            }
        };
        if first == t {
            self.out.failed += shape.ops.saturating_sub(t.ops);
        } else {
            self.out.failed += shape.ops;
            self.mismatches.push(format!(
                "{shape:?}: {t:?} differs from the first call's {first:?}"
            ));
        }
    }
}

fn per_op(cycles: u64, ops: u64) -> f64 {
    cycles as f64 / ops.max(1) as f64
}

/// The simulated end-to-end figures of one workload.
struct Sim {
    cycles_per_op: f64,
    baseline_cycles_per_op: f64,
    p50: f64,
    p99: f64,
    max_rate: f64,
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut h = Harness::new();
    let mut book = Book::default();
    let w = cfg.workload;
    let pass = h.scope(w.name, |h| {
        if cfg.trace {
            layers_run(cfg, h, &mut book)
        } else {
            end_to_end_run(cfg, h, &mut book)
        }
    });
    if cfg.trace {
        let path = cfg.out_dir.join(format!("{}.harness.trace.json", w.name));
        std::fs::write(&path, h.to_chrome_json(w.name))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    pass?;
    book.out.checks.push(Check {
        name: "rounds_bit_identical".into(),
        ok: book.mismatches.is_empty(),
        detail: book.mismatches.join("; "),
    });
    Ok(book.out)
}

// --- shared passes ---------------------------------------------------------------

/// Warm-up round 1 of every run: the full round with counters. Its
/// simulated results are the sim pass's main figures, its triple is what
/// every later round must repeat.
fn main_round(cfg: &RunCfg, h: &mut Harness, book: &mut Book) -> Result<RunOut, String> {
    let (out, _) = book.call(cfg, h, "run", cfg.workload.round(), Mode::Stats)?;
    Ok(out)
}

struct Setup {
    /// Kept set-up rounds.
    rounds: Calibrated,
    triple: Triple,
    counters: Option<Counters>,
}

fn setup_pass(cfg: &RunCfg, h: &mut Harness, book: &mut Book) -> Result<Setup, String> {
    let shape = cfg.workload.setup();
    let traced = usize::from(cfg.trace);
    h.scope("pass:setup", |h| {
        // The warm-up rounds size the pass; the first is cold and carries
        // the counters, so the fastest of them stands for a set-up.
        let (first, mut typical_ns) = book.call(cfg, h, "setup", shape, Mode::Stats)?;
        for _ in 1..SETUP_WARMUP[traced] {
            let (_, ns) = book.call(cfg, h, "setup", shape, Mode::Plain)?;
            typical_ns = typical_ns.min(ns);
        }
        let class = match typical_ns {
            ns if ns < 5e6 => 0,
            ns if ns < 50e6 => 1,
            _ => 2,
        };
        let keep = ((SETUP_FILL_NS[traced] / typical_ns) as usize)
            .clamp(SETUP_KEPT[traced][class], SETUP_KEPT_MOST);
        let rounds = h.bracket(
            |kept| kept < keep,
            |h| {
                let (_, ns) = book.call(cfg, h, "setup", shape, Mode::Plain)?;
                Ok::<_, String>(Some(ns))
            },
        )?;
        Ok(Setup {
            rounds,
            triple: first.triple,
            counters: first.counters,
        })
    })
}

struct HostPass {
    /// The untraced rounds.
    rounds: Calibrated,
    /// Raw host ns of the traced rounds that ran between them, and the
    /// last one's output (`--trace 1` on workloads with a traced variant).
    traced_ns: Vec<f64>,
    last_traced: Option<RunOut>,
}

/// Warm-up round 2, then fresh untraced rounds of fixed work until
/// `budget_s` has passed and `min_rounds` have run, each bracketed by the
/// calibration spin. A round that returns `Err` is booked and skipped.
///
/// With `--trace 1` this is the traced pass too: every untraced round is
/// paired with a `run_*_traced` round, alternating which of the two goes
/// first so neither always runs in the other's cache state.
fn host_pass(
    cfg: &RunCfg,
    h: &mut Harness,
    book: &mut Book,
    budget_s: f64,
    min_rounds: usize,
) -> Result<HostPass, String> {
    let shape = cfg.workload.round();
    // `run_iperf` has no traced variant.
    let paired = cfg.trace && !matches!(cfg.workload.kind, Kind::Iperf { .. });
    h.scope("pass:host", |h| {
        book.call(cfg, h, "run", shape, Mode::Plain)?;
        let start = Instant::now();
        let (mut errors, mut turn) = (0, 0);
        let (mut traced_ns, mut last_traced) = (Vec::new(), None);
        let rounds = h.bracket(
            |rounds| rounds < min_rounds || start.elapsed().as_secs_f64() < budget_s,
            |h| {
                turn += 1;
                let mut plain = None;
                for traced_turn in [turn % 2 == 0, turn % 2 == 1] {
                    if !traced_turn {
                        match book.call(cfg, h, "run", shape, Mode::Plain) {
                            Ok((_, ns)) => plain = Some(ns),
                            Err(e) if errors >= min_rounds => {
                                return Err(format!("host rounds keep failing: {e}"))
                            }
                            Err(_) => errors += 1,
                        }
                    } else if paired {
                        let (out, ns) = book.call(cfg, h, "run:traced", shape, Mode::Traced)?;
                        traced_ns.push(ns);
                        last_traced = Some(out);
                    }
                }
                Ok(plain)
            },
        )?;
        Ok(HostPass {
            rounds,
            traced_ns,
            last_traced,
        })
    })
}

/// `(round − set-up round) ÷ ops` for calibrated host ns.
fn host_ns_per_op(round_ns: f64, setup: &Setup, main: &RunOut) -> f64 {
    let ops = main.triple.ops - setup.triple.ops;
    (round_ns - setup.rounds.floor_ns()) / ops as f64
}

/// How the host rounds resolved, per op: each round's figure (for the
/// spread diagnostics) and the figure reported, from the rounds' floor.
struct HostCost {
    per_round: Vec<f64>,
    ns_per_op: f64,
    /// How far the lower quartile sits above the floor, as a share of
    /// it: the floor is well resolved when a quarter of the rounds ran
    /// within a whisker of it.
    floor_spread: f64,
}

fn host_cost(host: &Calibrated, setup: &Setup, main: &RunOut) -> HostCost {
    let scale = host.scale();
    let per_round: Vec<f64> = host
        .raw
        .iter()
        .map(|&ns| host_ns_per_op(ns * scale, setup, main))
        .collect();
    let ns_per_op = host_ns_per_op(host.floor_ns(), setup, main);
    HostCost {
        floor_spread: (quartiles(&per_round).0 - ns_per_op) / ns_per_op,
        per_round,
        ns_per_op,
    }
}

// --- --trace 0: the end-to-end metrics -------------------------------------------

fn end_to_end_run(cfg: &RunCfg, h: &mut Harness, book: &mut Book) -> Result<(), String> {
    let w = cfg.workload;
    let (main, peak_rss, sim) = h.scope("pass:sim", |h| {
        let main = main_round(cfg, h, book)?;
        // Read right after the first full round: that is the workload's
        // own peak. Later it also holds the saturated runs' backlog
        // (which grows with the arrival seed) and however many rounds the
        // time budget allowed; a round frees everything it allocates, so
        // nothing a later round needs is missed.
        let peak_rss = peak_rss_mib()?;
        let sim = sim_pass(cfg, h, book, &main)?;
        Ok::<_, String>((main, peak_rss, sim))
    })?;
    let setup = setup_pass(cfg, h, book)?;
    let host = host_pass(cfg, h, book, cfg.seconds, w.min_rounds)?.rounds;
    let cost = host_cost(&host, &setup, &main);

    let m = &mut book.out.metrics;
    m.put("setup_s", setup.rounds.floor_ns() / 1e9, "s");
    m.put("sim_cycles_per_op", sim.cycles_per_op, "cycles");
    m.put(
        "sim_slowdown_vs_noisol",
        sim.cycles_per_op / sim.baseline_cycles_per_op,
        "ratio",
    );
    m.put("sim_p50_cycles", sim.p50, "cycles");
    m.put("sim_p99_cycles", sim.p99, "cycles");
    m.put("sim_max_rate_ops_per_mcycle", sim.max_rate, "ops/Mcycle");
    m.put("host_ns_per_op", cost.ns_per_op, "ns");
    m.put("peak_rss_mib", peak_rss, "MiB");

    book.out.diagnostics = vec![
        ("rounds", host.raw.len() as f64),
        ("rounds_disturbed", host.disturbed as f64),
        ("round_floor_spread", cost.floor_spread),
        ("round_iqr_ratio", iqr_ratio(&cost.per_round)),
        ("setup_rounds", setup.rounds.raw.len() as f64),
        ("calib_spin_ns", median(&host.spins)),
        ("calib_scale", host.scale()),
    ];
    println!(
        "# {}: sim_slowdown_vs_noisol reference: {}",
        w.name, w.paper_ref
    );
    Ok(())
}

/// The rest of the sim pass: the no-isolation twin of the main round
/// and, for the serving tier, the saturated runs and the rate ladder.
fn sim_pass(cfg: &RunCfg, h: &mut Harness, book: &mut Book, main: &RunOut) -> Result<Sim, String> {
    let w = cfg.workload;
    let round = w.round();
    let t = main.triple;
    let cycles_per_op = per_op(t.cycles, t.ops);
    let plain = |h: &mut Harness, book: &mut Book, shape: Shape| {
        book.call(cfg, h, "run", shape, Mode::Plain)
            .map(|(out, _)| out.triple)
    };
    match w.kind {
        Kind::Redis { .. } | Kind::Iperf { .. } => {
            let unisolated = Shape {
                isolated: false,
                ..round
            };
            let base = plain(h, book, unisolated)?;
            // A closed loop has no arrival schedule to outrun: its
            // sustainable rate is the rate it runs at. `run_iperf` exposes
            // no per-burst latency, so there both percentiles restate the
            // mean cost of an op.
            let [p50, p99, _] = main
                .latency
                .map_or([cycles_per_op; 3], |l| l.map(|c| c as f64));
            Ok(Sim {
                cycles_per_op,
                baseline_cycles_per_op: per_op(base.cycles, base.ops),
                p50,
                p99,
                max_rate: 1e6 / cycles_per_op,
            })
        }
        Kind::Gates => {
            book.out.checks.push(gate_cells_check(main));
            let per_cell = t.ops / main.cell_cycles.len() as u64;
            let mut lat = main.crossing_latencies.clone();
            lat.sort_unstable();
            Ok(Sim {
                cycles_per_op,
                // Cell 0 is the direct-call backend's sync cell.
                baseline_cycles_per_op: per_op(main.cell_cycles[0], per_cell),
                p50: nearest_rank(&lat, 0.50) as f64,
                p99: nearest_rank(&lat, 0.99) as f64,
                max_rate: 1e6 / cycles_per_op,
            })
        }
        Kind::Serve { ladder, .. } => {
            let saturated = Shape {
                ops: SERVE_SIM_OPS,
                gap: SERVE_SATURATED_GAP,
                ..round
            };
            let unisolated = Shape {
                isolated: false,
                ..saturated
            };
            let sat = plain(h, book, saturated)?;
            let base = plain(h, book, unisolated)?;
            let ladder = serve_ladder(cfg, h, book, main, ladder)?;
            let nominal = ladder
                .iter()
                .find(|r| r.gap == SERVE_NOMINAL_GAP)
                .ok_or("the ladder has no rung at the nominal gap")?;
            let sat_cycles_per_op = per_op(sat.cycles, sat.ops);
            println!(
                "# {}: at the nominal gap of {} cycles/burst the run's cycles/op is {:.1} \
                 (the offered load: gap / pipeline); the saturated service cost is {:.1}",
                w.name, nominal.gap, nominal.cycles_per_op, sat_cycles_per_op
            );
            Ok(Sim {
                cycles_per_op: sat_cycles_per_op,
                baseline_cycles_per_op: per_op(base.cycles, base.ops),
                p50: nominal.p50,
                p99: nominal.p99,
                max_rate: max_rate(&ladder).ok_or("no ladder rung is sustainable")?,
            })
        }
    }
}

/// Runs the workload's rate ladder. A rung whose shape equals the main
/// round's (the nominal gap on `serve_c100k`) reuses the main round.
fn serve_ladder(
    cfg: &RunCfg,
    h: &mut Harness,
    book: &mut Book,
    main: &RunOut,
    gaps: &[u64],
) -> Result<Vec<Rung>, String> {
    let w = cfg.workload;
    let mut ladder = Vec::new();
    for &gap in gaps {
        let shape = Shape {
            ops: SERVE_SIM_OPS,
            gap,
            ..w.round()
        };
        let out = if shape == w.round() {
            main.clone()
        } else {
            book.call(cfg, h, "run", shape, Mode::Plain)?.0
        };
        let t = out.triple;
        let [p50, p99, _] = out.latency.ok_or("a serve run reported no latency")?;
        ladder.push(Rung {
            gap,
            pipeline: w.min_ops,
            cycles_per_op: per_op(t.cycles, t.ops),
            p50: p50 as f64,
            p99: p99 as f64,
        });
    }
    Ok(ladder)
}

/// The three cells of each ladder backend must cost the same simulated
/// cycles: batch ≡ loop ≡ async is proven by the repo's equivalence
/// suites, so a difference here means the harness issued different work.
fn gate_cells_check(main: &RunOut) -> Check {
    let mut bad = Vec::new();
    for (cells, (label, _)) in main.cell_cycles.chunks(Cell::ALL.len()).zip(GATE_BACKENDS) {
        if cells.iter().any(|&c| c != cells[0]) {
            bad.push(format!("{label}: {cells:?}"));
        }
    }
    Check {
        name: "gate_cells_same_sim_cycles".into(),
        ok: bad.is_empty(),
        detail: bad.join("; "),
    }
}

// --- --trace 1: the per-layer metrics --------------------------------------------

fn layers_run(cfg: &RunCfg, h: &mut Harness, book: &mut Book) -> Result<(), String> {
    let w = cfg.workload;
    let main = h.scope("pass:sim", |h| {
        let main = main_round(cfg, h, book)?;
        serve_rungs(cfg, h, book, &main)?;
        Ok::<_, String>(main)
    })?;
    let setup = setup_pass(cfg, h, book)?;
    let HostPass {
        rounds: host,
        traced_ns,
        last_traced: traced,
    } = host_pass(
        cfg,
        h,
        book,
        cfg.seconds * TRACED_HOST_SHARE,
        TRACED_MIN_ROUNDS,
    )?;
    export_metrics(cfg, &host, &traced_ns, traced.as_ref(), book)?;
    h.scope("pass:probe", |h| probe_pass(cfg, h, book))?;
    h.scope("pass:layers", |h| {
        layers::measure(h, cfg.seed, &mut book.out.metrics)
    })?;
    workload_counters(&main, &setup, traced.as_ref(), book);

    let cost = host_cost(&host, &setup, &main);
    let (q1, q3) = quartiles(&cost.per_round);
    let m = &mut book.out.metrics;
    m.put("harness.calib_spin_ns", median(&host.spins), "ns");
    m.put("harness.rounds", host.raw.len() as f64, "count");
    m.put("harness.rounds_disturbed", host.disturbed as f64, "count");
    m.put("harness.host_ns_per_op_q1", q1, "ns");
    m.put("harness.host_ns_per_op_q3", q3, "ns");
    m.put(
        "harness.round_iqr_ratio",
        iqr_ratio(&cost.per_round),
        "ratio",
    );
    m.put(
        "closure.host_explained_ratio",
        explained_ns_per_op(&w, m) / cost.ns_per_op,
        "ratio",
    );
    Ok(())
}

/// `apps.serve.p99_cycles_gap*`: the p99 of every rung the workload's
/// ladder runs (all eight on `serve_c10k`, three on `serve_c100k`).
fn serve_rungs(
    cfg: &RunCfg,
    h: &mut Harness,
    book: &mut Book,
    main: &RunOut,
) -> Result<(), String> {
    let name = |gap: u64| format!("apps.serve.p99_cycles_gap{}k", gap / 1000);
    let gaps = match cfg.workload.kind {
        Kind::Serve { ladder, .. } => ladder,
        _ => &[],
    };
    for rung in serve_ladder(cfg, h, book, main, gaps)? {
        book.out.metrics.put(name(rung.gap), rung.p99, "cycles");
    }
    for gap in SERVE_LADDER.into_iter().filter(|g| !gaps.contains(g)) {
        book.out.metrics.absent(name(gap));
    }
    Ok(())
}

/// Writes the last traced round's exports out and reports what exporting
/// costs: traced over untraced rounds, floor over floor, both taken from
/// the same interleaved pass.
fn export_metrics(
    cfg: &RunCfg,
    host: &Calibrated,
    traced_ns: &[f64],
    last: Option<&RunOut>,
    book: &mut Book,
) -> Result<(), String> {
    const RATIO: &str = "trace.export_overhead_ratio";
    const BYTES: &str = "trace.export_bytes_per_op";
    let Some(last) = last else {
        book.out.metrics.absent(RATIO);
        book.out.metrics.absent(BYTES);
        return Ok(());
    };
    let mut bytes = 0usize;
    for (suffix, json) in &last.traces {
        let path = cfg
            .out_dir
            .join(format!("{}{suffix}.trace.json", cfg.workload.name));
        std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
        bytes += json.len();
    }
    let m = &mut book.out.metrics;
    m.put(RATIO, floor(traced_ns) / floor(&host.raw), "ratio");
    m.put(BYTES, bytes as f64 / last.triple.ops as f64, "bytes");
    Ok(())
}

/// The per-workload counters, as the difference between the traced (or,
/// for iperf, the main) run and the set-up run, per op.
fn workload_counters(main: &RunOut, setup: &Setup, traced: Option<&RunOut>, book: &mut Book) {
    let (m, checks) = (&mut book.out.metrics, &mut book.out.checks);
    let ops = (main.triple.ops - setup.triple.ops) as f64;
    let full = traced.and_then(|t| t.counters).or(main.counters);
    let counters = full.zip(setup.counters).map(|(f, s)| f.minus(s));

    let per_op_metrics = [
        ("machine.tlb_hits_per_op", C::TlbHits),
        ("machine.tlb_misses_per_op", C::TlbMisses),
        ("gate.async_submitted_per_op", C::AsyncSubmitted),
        ("kernel.sched_steps_per_op", C::SchedSteps),
        ("kernel.allocs_per_op", C::Allocs),
        ("kernel.cotask_steps_per_op", C::CotaskSteps),
        ("kernel.cotask_wakeups_per_op", C::CotaskWakeups),
        ("net.rx_segments_per_op", C::RxSegments),
        ("net.tx_segments_per_op", C::TxSegments),
        ("net.polls_per_op", C::Polls),
        ("trace.spans_pushed_per_op", C::SpansPushed),
    ];
    let totals = [
        ("gate.async_sq_full", C::AsyncSqFull),
        ("kernel.alloc_failures", C::AllocFailures),
        ("net.retransmits", C::Retransmits),
        ("net.drops", C::Drops),
        ("net.backlog_overflows", C::BacklogOverflows),
    ];
    let ratios = [
        "machine.tlb_hit_ratio",
        "gate.sim_share",
        "gate.batch_calls_p50",
        "net.events_delivered_ratio",
        "trace.spans_dropped_ratio",
    ];
    match counters {
        Some(c) => {
            for (name, counter) in per_op_metrics {
                m.put(name, c[counter] as f64 / ops, "1/op");
            }
            for (name, counter) in totals {
                m.put(name, c[counter] as f64, "count");
            }
            let share = |num: u64, den: u64| num as f64 / den.max(1) as f64;
            m.put(
                "machine.tlb_hit_ratio",
                share(c[C::TlbHits], c[C::TlbHits] + c[C::TlbMisses]),
                "ratio",
            );
            m.put(
                "gate.sim_share",
                share(c[C::GateCycles], c[C::ElapsedCycles]),
                "ratio",
            );
            m.put("gate.batch_calls_p50", c.batch_calls_p50 as f64, "count");
            // Useful outcomes per attempt: deliveries per post, counting
            // the posts that coalesced into an already queued event.
            m.put(
                "net.events_delivered_ratio",
                share(
                    c[C::EventsDelivered],
                    c[C::EventsPosted] + c[C::EventsCoalesced],
                ),
                "ratio",
            );
            m.put(
                "trace.spans_dropped_ratio",
                share(c[C::SpansDropped], c[C::SpansPushed]),
                "ratio",
            );
            let clean = c[C::Retransmits] + c[C::Drops] + c[C::BacklogOverflows] == 0;
            checks.push(Check {
                name: "links_clean".into(),
                ok: clean,
                detail: format!(
                    "retransmits {} drops {} backlog_overflows {}",
                    c[C::Retransmits],
                    c[C::Drops],
                    c[C::BacklogOverflows]
                ),
            });
        }
        None => {
            // iperf: counters are limited to what `IperfResult` carries.
            for (name, _) in per_op_metrics.iter().chain(&totals) {
                m.absent(*name);
            }
            ratios.into_iter().for_each(|n| m.absent(n));
            checks.push(Check {
                name: "links_clean".into(),
                ok: main.link_losses == 0,
                detail: format!("frames dropped or corrupted: {}", main.link_losses),
            });
        }
    }

    // Crossings and switches come from the result structs, so iperf has them.
    let t = main.triple;
    let crossings = t.crossings - setup.triple.crossings;
    m.put("gate.crossings_per_op", crossings as f64 / ops, "1/op");
    match (counters, main.iperf_switches) {
        (Some(c), _) => m.put(
            "kernel.sched_switches_per_op",
            c[C::SchedSwitches] as f64 / ops,
            "1/op",
        ),
        // `IperfResult::switches` covers set-up too; with ≥ 32 MiB moved
        // the handshake's few switches are below the last printed digit.
        (None, Some(s)) => m.put("kernel.sched_switches_per_op", s as f64 / ops, "1/op"),
        (None, None) => m.absent("kernel.sched_switches_per_op"),
    }

    let latency = traced.and_then(|t| t.latency).or(main.latency);
    match latency {
        Some([_, _, p999]) => m.put("apps.p999_cycles", p999 as f64, "cycles"),
        None => m.absent("apps.p999_cycles"),
    }
    if main.shard_ops.is_empty() {
        m.absent("apps.shard_imbalance");
    } else {
        let max = main.shard_ops.iter().copied().max().unwrap_or(0) as f64;
        let mean = main.shard_ops.iter().sum::<u64>() as f64 / main.shard_ops.len() as f64;
        m.put("apps.shard_imbalance", max / mean, "ratio");
    }
}

/// Σ counter × unit cost, in host ns per op: how much of the workload's
/// host time the layer ladder accounts for. A report, not a gate — the
/// pairing of counters and unit costs is deliberately crude (one unit
/// cost per counter, no overlap modelled).
fn explained_ns_per_op(w: &Workload, m: &Metrics) -> f64 {
    let get = |name: &str| m.get(name).unwrap_or(0.0);
    if w.kind == Kind::Gates {
        // Every op is one crossing of one of the 15 equal cells.
        let cells = GATE_BACKENDS.iter().flat_map(|(label, _)| {
            Cell::ALL.map(|c| get(&format!("gate.{label}.{}_ns", c.label())))
        });
        return cells.sum::<f64>() / (GATE_BACKENDS.len() * Cell::ALL.len()) as f64;
    }
    let cell = if get("gate.batch_calls_p50") > 1.0 {
        Cell::B32
    } else {
        Cell::B1
    };
    let segments = get("net.rx_segments_per_op") + get("net.tx_segments_per_op");
    let accesses_hit = get("machine.tlb_hits_per_op");
    let resp = match w.kind {
        Kind::Redis { .. } | Kind::Serve { .. } => {
            get("apps.resp_parse_get_ns") + get("apps.resp_encode_bulk50_ns")
        }
        _ => 0.0,
    };
    get("gate.crossings_per_op") * get(&format!("gate.{}.{}_ns", w.gate_backend, cell.label()))
        + get("kernel.sched_switches_per_op") * get("kernel.sched_switch_coop_ns")
        + get("kernel.allocs_per_op") * get("kernel.heap_alloc_free_ns")
        + get("kernel.cotask_steps_per_op") * get("kernel.cotask_wake_step_ns")
        // `net.tcp_segment_ns` prices a data segment and its ACK: two segments.
        + segments * (get("net.tcp_segment_ns") / 2.0 + get("net.frame_build_parse_ns"))
        + get("net.polls_per_op") * get("net.eventq_post_poll_ns")
        // One TLB lookup per machine access; `rw_*` price an access pair.
        + accesses_hit * get("machine.rw_u64_ns") / 2.0
        + get("machine.tlb_misses_per_op") * get("machine.tlb_miss_rw_ns") / 2.0
        + resp
}

// --- the twin build's alternating rounds -----------------------------------------

/// A child process that runs one untraced round per line it is sent.
struct Worker {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Worker {
    fn spawn(exe: &Path, cfg: &RunCfg) -> Result<Worker, String> {
        let mut child = Command::new(exe)
            .args([
                "--worker",
                cfg.workload.name,
                "--seed",
                &cfg.seed.to_string(),
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Worker {
            child,
            stdin,
            stdout,
        })
    }

    /// Asks for one round; returns its host ns and its triple.
    fn round(&mut self) -> Result<(f64, Triple), String> {
        let stdin = self.stdin.as_mut().expect("worker is open");
        stdin
            .write_all(b"round\n")
            .and_then(|()| stdin.flush())
            .map_err(|e| e.to_string())?;
        let mut line = String::new();
        self.stdout
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        let fields: Vec<u64> = line
            .split_whitespace()
            .filter_map(|f| f.parse().ok())
            .collect();
        match fields[..] {
            [ns, ops, cycles, crossings] => Ok((
                ns as f64,
                Triple {
                    ops,
                    cycles,
                    crossings,
                },
            )),
            _ => Err(format!("worker answered {line:?}")),
        }
    }

    /// Closes the worker's input (its cue to exit) and waits for it.
    fn finish(mut self) -> Result<(), String> {
        self.stdin = None;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("worker exited with {status}"))
        }
    }
}

/// The worker side: one untraced round of `workload` per input line,
/// answered with `host_ns ops cycles crossings`.
pub fn worker_main(workload: Workload, seed: u64) -> Result<(), String> {
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    for line in stdin.lock().lines() {
        line.map_err(|e| e.to_string())?;
        let t0 = cpu_ns();
        let out = workload.run(mix_seed(seed), workload.round(), Mode::Plain)?;
        let ns = cpu_ns() - t0;
        let t = out.triple;
        writeln!(stdout, "{ns} {} {} {}", t.ops, t.cycles, t.crossings)
            .and_then(|()| stdout.flush())
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// `trace.probe_overhead_ratio`: the default build and the `trace-off`
/// build each run as a worker child, one round at a time, alternating
/// which goes first. Their simulated triples must agree (probes never
/// read the clock), which the book checks.
fn probe_pass(cfg: &RunCfg, h: &mut Harness, book: &mut Book) -> Result<(), String> {
    const NAME: &str = "trace.probe_overhead_ratio";
    if !cfg.workload.probe_pairs {
        book.out.metrics.absent(NAME);
        return Ok(());
    }
    let twin = cfg
        .twin
        .as_deref()
        .ok_or("--trace 1 on this workload needs --twin <trace-off build> (run.sh passes it)")?;
    let this = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut workers = [Worker::spawn(&this, cfg)?, Worker::spawn(twin, cfg)?];
    let mut ns: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let shape = cfg.workload.round();
    // Pair 0 warms both children up and is not kept.
    let measured = (|| {
        for pair in 0..=PROBE_PAIRS {
            for side in [pair % 2, 1 - pair % 2] {
                let label = ["run:probes-on", "run:probes-off"][side];
                let (r, _) = h.timed(label, |_| workers[side].round());
                book.out.attempted += shape.ops;
                let (round_ns, triple) = r.inspect_err(|_| book.out.failed += shape.ops)?;
                book.book(shape, triple);
                if pair > 0 {
                    ns[side].push(round_ns);
                }
            }
        }
        Ok::<_, String>(())
    })();
    let [on, off] = workers;
    on.finish().and(off.finish()).and(measured)?;
    book.out
        .metrics
        .put(NAME, floor(&ns[0]) / floor(&ns[1]), "ratio");
    Ok(())
}
