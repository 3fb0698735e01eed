//! `reproduce` — regenerate the paper's tables and figures.
//!
//! ```text
//! Usage: reproduce [coloring|explore|ctxswitch|fig3|table1|fig4|fig5|cheri|stats|chaos|serve|migrate|all]
//!                  [--quick] [--stats] [--chaos] [--serve] [--migrate]
//!                  [--seed=S] [--conns=N] [--migrate-at=BURSTS[:backend]]
//!                  [--json[=PATH]] [--trace-out=PATH]
//! ```
//!
//! The command line is parsed once, against one table of reports
//! (`MODES`); an unknown flag, an unknown experiment or a second
//! experiment prints the usage and exits 2, so a misspelt `--sed=7`
//! cannot quietly run the default report at the default seed.
//!
//! Every report is simulated state, so its output is byte-identical run
//! to run — the `artefacts` CI job diffs two runs of this very binary.
//! Host time is not measured here at all: that is `benchmark/run.sh`.
//!
//! `--stats` (or the `stats` experiment) runs the Redis/MPK profile from
//! Figure 5 and prints the per-compartment telemetry report: gate
//! crossings per (src, dst) pair, cycle-latency percentiles per gate
//! mechanism, scheduler activity, allocator pressure, faults and the
//! event tail folded from the span rings. `--json[=PATH]` additionally
//! writes the same numbers as a JSON document (default
//! `flexos-stats.json`).
//! `--trace-out=PATH` additionally records a causal span trace of the
//! run — one slice per gate crossing, doorbell, context switch, mq hop
//! and net poll, with flow arrows stitching each request across
//! compartments — and writes it as Chrome trace-event JSON loadable in
//! Perfetto (`ui.perfetto.dev`). Timestamps are simulated cycles, so the
//! trace is byte-identical run to run.
//!
//! `--chaos` (or the `chaos` experiment) runs the `flexos-inject`
//! fault-injection sweeps — goodput vs. fault rate for TCP under frame
//! loss, VM RPC under doorbell loss, allocation under injected OOM, and
//! memory access under spurious pkey faults — seeded by `--seed`
//! (default 42). The same seed always produces the byte-identical
//! report; `--json[=PATH]` writes it as JSON (default
//! `flexos-chaos.json`). The chaos sweeps run standalone: they never
//! touch the figure experiments, whose outputs stay bit-identical.
//!
//! `--serve` (or the `serve` experiment) runs one serving-tier workload
//! — N established connections (default 10 000, `--conns=N` overrides)
//! served by the sharded Redis cluster proxy under open-loop Poisson
//! load — and prints its throughput, burst-latency percentiles,
//! per-shard request counts and the readiness/executor counters.
//! `--json[=PATH]` writes the figures (default `flexos-serve.json`).
//! Everything is simulated cycles: the JSON is byte-identical across
//! runs and hosts. `--trace-out=PATH` records the span trace, showing each
//! request's proxy → shard → proxy hops. `--migrate-at=BURSTS[:backend]`
//! arms a live migration: after that many completed request bursts,
//! every gate pair swaps to the named backend (default `vmrpc`) through
//! the quiescence protocol while traffic keeps flowing; the report's
//! `stats.migrations` block records the swap and the JSON stays
//! byte-identical across repeats (the `artefacts` CI job diffs two
//! migrating runs).
//!
//! `--migrate` (or the `migrate` experiment) sweeps the live
//! gate-backend migration protocol over every ordered (from, to)
//! backend pair: boot on `from`, swap every compartment pair to `to`
//! at runtime through the quiescence protocol, and report steady
//! crossing cost before/after plus the async descriptors the drain
//! carried across the swap. A second table walks the kernel's
//! migration-policy ladder (escalate on hostile windows, relax after
//! a benign streak). `--json[=PATH]` writes the figures (default
//! `flexos-migrate.json`); everything is simulated cycles,
//! bit-identical across hosts.
//!
//! Every number is derived from the deterministic simulated machine, so
//! repeated runs are bit-identical. Absolute values differ from the
//! paper's hardware testbed; the *shapes* (who wins, by what factor,
//! where crossovers fall) are the reproduction target — see
//! EXPERIMENTS.md for the side-by-side.

use flexos::build::{plan, BackendChoice, ImageConfig, LibRole, LibraryConfig};
use flexos::compat::{enumerate_deployments, IncompatGraph};
use flexos::explore::{
    candidates, fastest_meeting_security, max_security_within_budget, pareto_frontier, CallProfile,
};
use flexos::spec::{print as print_spec, Analysis, FuncRef, LibSpec};
use flexos_bench::experiments::{
    ctx_switch, ext_cheri, fig3, fig3_buffer_sizes, fig4, fig5, table1, Fig3Config, Fig4Config,
};
use flexos_bench::report::{fmt_mbps, fmt_slowdown};
use flexos_machine::CostTable;
use flexos_trace::{Cell, Sheet, Table};

/// A failed run fails the report.
fn or_exit<T>(what: &str, run: Result<T, impl std::fmt::Display>) -> T {
    run.unwrap_or_else(|e| {
        eprintln!("{what} run failed: {e}");
        std::process::exit(1)
    })
}

/// A report file that cannot be written fails the run.
fn write_or_exit(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("failed to write {path}: {e}");
        std::process::exit(1);
    }
}

fn run_fig3(quick: bool) -> Sheet {
    println!("Running Figure 3 (iperf throughput, various configs)...");
    let points = fig3(quick);
    let mut t = Table::text(
        "Figure 3: iperf throughput vs recv buffer size (Mb/s)",
        Fig3Config::ALL,
    )
    .text("config", |c| c.label());
    for s in fig3_buffer_sizes(quick) {
        t = t.text(format!("{s}B"), |&c| {
            let p = points.iter().find(|p| p.config == c && p.recv_buf == s);
            // `fig3` runs every config at every size this loop names.
            format!("{:.0}", p.expect("point exists").mbps)
        });
    }
    Sheet::new().table(t).line(
        "Paper shape: SH/MPK 2-3x slower at small buffers, converging by ~1KiB;\n\
         VM RPC needs far larger buffers to catch up; Xen trails KVM.\n",
    )
}

fn run_table1(quick: bool) -> Sheet {
    println!("Running Table 1 (iperf with SH per component)...");
    let t1 = table1(quick);
    let entire = (
        "Entire system".to_string(),
        format!("{} (baseline)", fmt_mbps(t1.baseline_mbps)),
        t1.all_sh_mbps,
    );
    let rows = t1.rows.iter().map(|r| {
        (
            r.component.clone(),
            fmt_mbps(r.all_but_c_mbps),
            r.c_only_mbps,
        )
    });
    Sheet::new()
        .table(
            Table::text(
                "Table 1: iperf throughput with SH on various components",
                rows.chain([entire]),
            )
            .text("Component C", |r| r.0.clone())
            .text("SH: all but C", |r| r.1.clone())
            .text("SH: C only", |r| fmt_mbps(r.2))
            .text("slowdown (C only)", |r| fmt_slowdown(t1.baseline_mbps, r.2)),
        )
        .line(
            "Paper shape: scheduler-only SH ~1% overhead, NW stack ~6%, LibC ~2.3x,\n\
             entire system ~6x (baseline 2.94 Gb/s on their testbed).\n",
        )
}

/// The distinct payload sizes of a figure's points, ascending.
fn payloads(mut p: Vec<usize>) -> Vec<usize> {
    p.sort_unstable();
    p.dedup();
    p
}

fn run_fig4(quick: bool) -> Sheet {
    use flexos_apps::redis::Mix;
    println!("Running Figure 4 (Redis under SH configs + verified scheduler)...");
    let points = fig4(quick);
    let mut t = Table::text(
        "Figure 4: Redis throughput (MTps) for SH configs and the verified scheduler",
        Fig4Config::ALL,
    )
    .text("config", |c| c.label());
    for pl in payloads(points.iter().map(|p| p.payload).collect()) {
        for (mix, name) in [(Mix::Set, "SET"), (Mix::Get, "GET")] {
            t = t.text(format!("{name} {pl}B"), |&c| {
                let p = points
                    .iter()
                    .find(|p| p.config == c && p.payload == pl && p.mix == mix);
                // `fig4` runs every config, payload and mix; `pl` is one of its payloads.
                format!("{:.3}", p.expect("point exists").mreq_per_s)
            });
        }
    }
    Sheet::new().table(t).line(
        "Paper shape: SH(NW)+global allocator ~1.45x slowdown, local allocator\n\
         ~1.24x; verified scheduler within 6% of the C scheduler.\n",
    )
}

fn run_fig5(quick: bool) -> Sheet {
    use flexos_apps::CompartmentModel as M;
    println!("Running Figure 5 (Redis with MPK isolation)...");
    let points = fig5(quick);
    let mut rows = vec![(M::Baseline, BackendChoice::None, "-")];
    for model in [M::NwOnly, M::NwSchedRest, M::NwAndSchedRest] {
        rows.push((model, BackendChoice::MpkShared, "Sh."));
        rows.push((model, BackendChoice::MpkSwitched, "Sw."));
    }
    let mut t = Table::text(
        "Figure 5: Redis GET throughput (MTps) with MPK isolation",
        rows,
    )
    .text("model", |r| r.0.label())
    .text("stacks", |r| r.2);
    for pl in payloads(points.iter().map(|p| p.payload).collect()) {
        t = t.text(format!("{pl}B payload"), |&(model, backend, _)| {
            let p = points
                .iter()
                .find(|p| p.model == model && p.backend == backend && p.payload == pl);
            // `fig5` runs each of these rows at every payload it reports.
            format!("{:.3}", p.expect("point exists").mreq_per_s)
        });
    }
    Sheet::new().table(t).line(
        "Paper shape: NW-only ~17% slowdown; +scheduler 1.4x (shared) / 2.25x\n\
         (switched); merging NW+sched does NOT help (semaphores live in LibC);\n\
         overhead shrinks as the payload grows.\n",
    )
}

fn run_cheri(quick: bool) -> Sheet {
    println!("Running the CHERI-backend extension (heterogeneous hardware)...");
    let points = ext_cheri(quick);
    let mut labels: Vec<&str> = points.iter().map(|p| p.label).collect();
    labels.dedup();
    let mut t = Table::text(
        "Extension: iperf throughput when retargeting the gate primitive (Mb/s)",
        labels,
    )
    .text("backend", |&l| l);
    for s in fig3_buffer_sizes(quick) {
        t = t.text(format!("{s}B"), |&l| {
            let p = points.iter().find(|p| p.label == l && p.recv_buf == s);
            // `l` is a label of `points`, and each backend runs every size.
            format!("{:.0}", p.expect("point exists").mbps)
        });
    }
    Sheet::new().table(t).line(
        "The same image, retargeted at build time: capability gates cost less\n\
         than MPK (no PKRU serialization), both dwarf VM RPC — the §1 pitch\n\
         (\"hardware becomes heterogeneous (MPK, CHERI)\") made concrete.\n",
    )
}

fn run_ctxswitch() -> Sheet {
    println!("Running the context-switch microbenchmark...");
    let r = ctx_switch(10_000);
    let rows = [
        ("C (coop)", r.coop_ns),
        ("Verified (Dafny port)", r.verified_ns),
    ];
    Sheet::new().table(
        Table::text(
            "Context-switch latency (paper §4: 76.6 ns C vs 218.6 ns verified)",
            rows,
        )
        .text("scheduler", |r| r.0)
        .text("latency", |r| format!("{:.1} ns", r.1))
        .text("ratio", |r| format!("{:.1}x", r.1 / rows[0].1)),
    )
}

fn run_coloring() -> Sheet {
    println!("Running the §2 compatibility/coloring example...");
    let sched = LibSpec::verified_scheduler();
    let raw = LibSpec::unsafe_c("rawlib");
    println!("\nVerified scheduler spec:\n{}", print_spec(&sched));
    println!("Unsafe C library spec:\n{}", print_spec(&raw));

    let graph = IncompatGraph::build(&[sched.clone(), raw.clone()]);
    println!(
        "Pairwise check: incompatible edges = {}",
        graph.graph.edge_count()
    );
    if let Some(reasons) = graph.why(0, 1) {
        for r in reasons {
            println!("  - {r}");
        }
    }

    let analysis = Analysis {
        call_targets: Some([FuncRef::new("uksched_verified", "yield")].into()),
        ..Analysis::well_behaved()
    };
    let deployments = enumerate_deployments(&[(sched, Analysis::default()), (raw, analysis)]);
    Sheet::new()
        .table(
            Table::text(
                "Enumerated deployments (SH variants x graph coloring)",
                &deployments,
            )
            .text("variant choice", |d| {
                let choice: Vec<String> = d
                    .variants
                    .iter()
                    .map(|v| format!("{}[{}]", v.spec.name, v.sh))
                    .collect();
                choice.join(" + ")
            })
            .text("compartments", |d| d.num_compartments())
            .text("hardened libs", |d| d.hardened_count()),
        )
        .line(
            "Paper shape: the SH version of the unsafe library shares a compartment\n\
             with the scheduler; the original requires a separate compartment.\n",
        )
}

fn run_explore() -> Result<Sheet, String> {
    println!("Running the §2 design-space-exploration objectives...");
    let base = ImageConfig::new("explore", BackendChoice::None)
        .with_library(LibraryConfig::new(
            LibSpec::verified_scheduler(),
            LibRole::Scheduler,
        ))
        .with_library(
            LibraryConfig::new(LibSpec::unsafe_c("lwip"), LibRole::NetStack)
                .with_analysis(Analysis::well_behaved()),
        )
        .with_library(
            LibraryConfig::new(LibSpec::unsafe_c("app"), LibRole::App)
                .with_analysis(Analysis::well_behaved()),
        );
    let profile = CallProfile::default()
        .with_calls("app", "lwip", 2)
        .with_calls("lwip", "uksched_verified", 4)
        .with_work("app", 500)
        .with_work("lwip", 2500)
        .with_work("uksched_verified", 400);
    let costs = CostTable::default();
    let cands = candidates(
        &base,
        &[
            BackendChoice::None,
            BackendChoice::MpkShared,
            BackendChoice::MpkSwitched,
            BackendChoice::VmRpc,
        ],
        &profile,
        &costs,
    );
    println!("Candidate space: {} configurations", cands.len());

    let frontier = Table::text(
        "Pareto frontier (predicted cycles/request vs security score)",
        pareto_frontier(cands.clone()),
    )
    .text("configuration", |c| c.label.clone())
    .text("cycles/req", |c| c.cycles)
    .text("security", |c| Cell::Fixed(c.security, 2));
    let budget = 8_000;
    let mut sheet = Sheet::new()
        .table(frontier)
        .line(match max_security_within_budget(cands.clone(), budget) {
            Some(best) => format!(
                "Objective A (max security within {budget} cycles/req): {} -> security {:.2}, {} cycles",
                best.label, best.security, best.cycles
            ),
            None => format!("Objective A: nothing fits in {budget} cycles"),
        })
        .line(match fastest_meeting_security(cands, 1.0) {
            Some(best) => format!(
                "Objective B (fastest fully-mitigated config): {} -> {} cycles/req",
                best.label, best.cycles
            ),
            None => "Objective B: no fully-mitigated configuration".to_string(),
        });
    // Show the audit trail for a sample plan.
    let p = plan(base).map_err(|e| format!("baseline plan: {e}"))?;
    if !p.report.warnings.is_empty() {
        sheet = sheet.line("\nBuild warnings for the unprotected baseline:");
        for w in &p.report.warnings {
            sheet = sheet.line(format!("  - {w}"));
        }
    }
    Ok(sheet.line(""))
}

fn run_stats(quick: bool, trace_out: Option<&str>) -> Sheet {
    use flexos_apps::redis::{run_redis_traced, run_redis_with_stats, Mix, RedisParams};
    use flexos_machine::CPU_FREQ_HZ;

    println!("Running the telemetry report (Redis GET, MPK shared stacks, NW+sched/rest)...");
    let params = RedisParams {
        model: flexos_apps::CompartmentModel::NwSchedRest,
        backend: BackendChoice::MpkShared,
        mix: Mix::Get,
        ops: if quick { 1_000 } else { 5_000 },
        ..RedisParams::default()
    };
    let (result, snap, trace) = or_exit(
        "stats",
        match trace_out {
            Some(_) => run_redis_traced(&params).map(|(r, s, t)| (r, s, Some(t))),
            None => run_redis_with_stats(&params).map(|(r, s)| (r, s, None)),
        },
    );

    let secs = snap.elapsed_cycles as f64 / CPU_FREQ_HZ as f64;
    let sheet = Sheet::new()
        .line(format!(
            "\nWorkload: {} GET requests, {:.3} MTps, {} gate crossings, \
             {} cycles ({:.3} ms simulated)",
            result.ops,
            result.mreq_per_s,
            result.crossings,
            result.cycles,
            secs * 1e3,
        ))
        .table(
            Table::row("workload", &result)
                .json("experiment", |_| "redis-get-mpk-shared")
                .json("ops", |r| r.ops)
                .json("cycles", |r| r.cycles)
                .json("mreq_per_s", |r| r.mreq_per_s)
                .json("crossings", |r| r.crossings),
        )
        .sheet("stats", snap.sheet());
    with_trace(sheet, trace_out, trace)
}

/// Writes the span trace where `--trace-out` asked, and says so after
/// the report.
fn with_trace(sheet: Sheet, path: Option<&str>, trace: Option<String>) -> Sheet {
    let (Some(path), Some(trace)) = (path, trace) else {
        return sheet;
    };
    write_or_exit(path, &trace);
    sheet.line(format!(
        "\nWrote Chrome trace-event JSON to {path} (open in ui.perfetto.dev)"
    ))
}

fn run_serve_exp(
    quick: bool,
    conns: Option<usize>,
    trace_out: Option<&str>,
    migrate_at: Option<(u64, flexos::build::BackendChoice)>,
) -> Sheet {
    use flexos_apps::serve::{run_serve_traced, run_serve_with_stats, ServeParams};
    use flexos_machine::CPU_FREQ_HZ;

    let params = ServeParams {
        conns: conns.unwrap_or(if quick { 2_000 } else { 10_000 }),
        ops: if quick { 2_000 } else { 10_000 },
        migrate_to: migrate_at,
        ..ServeParams::default()
    };
    println!(
        "Running the serving tier ({} connections, {} requests, {} shards, \
         open-loop Poisson arrivals)...",
        params.conns, params.ops, params.shards
    );
    if let Some((after, to)) = migrate_at {
        println!(
            "Live migration armed: every gate pair swaps to {to:?} after \
             {after} completed bursts (quiescence protocol, mid-traffic)."
        );
    }
    let (result, snap, trace) = or_exit(
        "serve",
        match trace_out {
            Some(_) => run_serve_traced(&params).map(|(r, s, t)| (r, s, Some(t))),
            None => run_serve_with_stats(&params).map(|(r, s)| (r, s, None)),
        },
    );

    let secs = result.cycles as f64 / CPU_FREQ_HZ as f64;
    let sheet = Sheet::new()
        .table(
            Table::row("workload", &result)
                .title("Serving tier: sharded Redis behind the async cluster proxy")
                .json("experiment", |_| "serve-sharded-proxy")
                .col("conns", |r| r.conns)
                .both("ops", "requests", |r| r.ops)
                .json("cycles", |r| r.cycles)
                .text("MTps", |r| Cell::Fixed(r.mreq_per_s, 3))
                .both("cycles_per_op", "cycles/req", |r| r.cycles_per_op)
                .json("mreq_per_s", |r| r.mreq_per_s)
                .col("crossings", |r| r.crossings)
                .both("p50_cycles", "p50", |r| r.p50_cycles)
                .both("p99_cycles", "p99", |r| r.p99_cycles)
                .both("p999_cycles", "p999", |r| r.p999_cycles)
                .both("backlog_overflows", "backlog drops", |r| {
                    r.backlog_overflows
                }),
        )
        .line(format!(
            "({} cycles measured, {:.3} ms simulated; burst percentiles are \
             arrival-to-last-reply, open-loop)",
            result.cycles,
            secs * 1e3
        ))
        .table(
            Table::text(
                "Requests per shard compartment",
                result.shard_ops.iter().enumerate(),
            )
            .text("shard", |(k, _)| format!("shard{k}"))
            .text("requests", |&(_, &n)| n),
        )
        .sheet("stats", snap.sheet().text_of("serving"));
    with_trace(sheet, trace_out, trace)
}

fn run_chaos(quick: bool, seed: u64) -> Sheet {
    use flexos_bench::chaos::{
        alloc_under_injected_oom, chaos_sheet, tcp_goodput_vs_loss, vmrpc_under_notify_loss,
        writes_under_spurious_pkey,
    };

    println!("Running the flexos-inject chaos sweeps (seed {seed})...");
    let tcp = tcp_goodput_vs_loss(quick, seed);
    let vmrpc = vmrpc_under_notify_loss(quick, seed);
    let alloc = alloc_under_injected_oom(quick, seed);
    let pkey = writes_under_spurious_pkey(quick, seed);

    chaos_sheet(seed, quick, &tcp, &vmrpc, &alloc, &pkey)
}

/// `--migrate`: the live gate-backend migration sweep. Boots a
/// migratable image on every source backend, swaps every compartment
/// pair to every target backend at runtime (5×5 ordered pairs), and
/// reports the first post-swap crossing cost against the steady-state
/// cost on either side — plus what the drain carried across the swap
/// (requeued SQEs). A second table demonstrates the kernel's
/// [`MigrationPolicy`] ladder: escalate one rung per hostile window,
/// relax after sustained benign load.
fn run_migrate(quick: bool) -> Result<Sheet, String> {
    use flexos::gate::{MigrationReason, Sqe};
    use flexos::spec::LibSpec;
    use flexos_backends::{instantiate_migratable, migrate_all, BootImage};
    use flexos_kernel::{MigrationPolicy, PolicyDecision, PolicySignals};

    fn migratable(from: BackendChoice) -> Result<BootImage, String> {
        let cfg = ImageConfig::new("migrate-sweep", BackendChoice::MpkShared)
            .with_library(LibraryConfig::new(
                LibSpec::verified_scheduler(),
                LibRole::Scheduler,
            ))
            .with_library(LibraryConfig::new(
                LibSpec::unsafe_c("netstack"),
                LibRole::NetStack,
            ))
            .with_library(LibraryConfig::new(LibSpec::unsafe_c("app"), LibRole::App));
        let plan = plan(cfg).map_err(|e| format!("sweep plan: {e}"))?;
        instantiate_migratable(plan, from).map_err(|e| format!("migratable boot: {e}"))
    }
    fn steady(img: &mut BootImage, calls: u64) -> Result<u64, String> {
        let t0 = img.machine.clock().cycles();
        for _ in 0..calls {
            img.call_lib("uksched_verified", 64, 16, |m, _| {
                m.charge(100);
                Ok(0)
            })
            .map_err(|e| format!("sweep crossing: {e}"))?;
        }
        Ok((img.machine.clock().cycles() - t0) / calls)
    }

    println!("Running the live gate-backend migration sweep (5x5 ordered pairs)...");
    let calls = if quick { 4 } else { 16 };
    /// One ordered (from, to) swap of the sweep.
    struct Pair {
        from: &'static str,
        to: &'static str,
        applied: usize,
        before: u64,
        first: u64,
        after: u64,
        requeued: u64,
    }
    let mut pairs = Vec::new();
    for from in BackendChoice::ALL {
        for to in BackendChoice::ALL {
            let at = format!("{from:?}->{to:?}");
            let mut img = migratable(from)?;
            let before = steady(&mut img, calls)?;
            let sched = img
                .compartment_of_lib("uksched_verified")
                .ok_or_else(|| format!("{at}: no compartment hosts uksched_verified"))?;
            // Park async work on the ring so the swap has something to
            // carry: pending SQEs must re-issue through the new gate.
            for ud in 0..3u64 {
                img.gates
                    .submit(sched, Sqe::new(32, 8, ud))
                    .map_err(|e| format!("{at}: submission before the drain: {e}"))?;
            }
            let (applied, deferred) = migrate_all(&mut img, to, MigrationReason::Manual)
                .map_err(|e| format!("{at}: migration: {e}"))?;
            if deferred != 0 {
                return Err(format!(
                    "{at}: {deferred} swaps deferred; the sweep image is quiescent between calls"
                ));
            }
            let first = steady(&mut img, 1)?;
            let after = steady(&mut img, calls)?;
            // The requeued descriptors complete through the new backend.
            let flushed = img
                .gates
                .flush_async(&mut img.machine, sched, |m, _, _| {
                    m.charge(50);
                    Ok(1)
                })
                .map_err(|e| format!("{at}: flushing the requeued SQEs: {e}"))?;
            if flushed != 3 {
                return Err(format!(
                    "{at}: lost a requeued SQE ({flushed} of 3 flushed)"
                ));
            }
            pairs.push(Pair {
                from: from.tag(),
                to: to.tag(),
                applied,
                before,
                first,
                after,
                requeued: img.gates.migration_stats().requeued_sqes,
            });
        }
    }

    // Policy ladder demo: hostile windows escalate one rung at a time,
    // sustained benign load relaxes after a streak.
    let mut pol = MigrationPolicy::new(BackendChoice::MpkShared);
    let benign = PolicySignals {
        hardening_aborts: 0,
        chaos_events: 0,
        window_ops: 512,
    };
    let chaos = PolicySignals {
        chaos_events: 2,
        ..benign
    };
    let abort = PolicySignals {
        hardening_aborts: 1,
        ..benign
    };
    let calm = ("benign, loaded", benign);
    let windows = [calm, ("chaos event", chaos), ("hardening abort", abort)]
        .into_iter()
        .chain([calm; 5]);
    let mut ladder = Vec::new();
    for (what, s) in windows {
        let decision = match pol.observe(s) {
            PolicyDecision::Hold => "hold".to_string(),
            PolicyDecision::Escalate { to } => {
                pol.applied(to);
                format!("escalate -> {}", to.tag())
            }
            PolicyDecision::Relax { to } => {
                pol.applied(to);
                format!("relax -> {}", to.tag())
            }
        };
        ladder.push((what, s, decision, pol.current().tag()));
    }

    Ok(Sheet::new()
        .field("experiment", "live-migration-sweep")
        .field("steady_calls", calls)
        .table(
            Table::rows("pairs", &pairs)
                .title("Live migration: runtime backend swap, per ordered (from, to) pair")
                .json("from", |p| p.from)
                .json("to", |p| p.to)
                .text("from \\ to", |p| format!("{} -> {}", p.from, p.to))
                .both("applied", "pairs", |p| p.applied)
                .both("steady_before", "steady before", |p| p.before)
                .both("first_after", "first after", |p| p.first)
                .both("steady_after", "steady after", |p| p.after)
                .both("requeued_sqes", "SQEs requeued", |p| p.requeued),
        )
        .line(
            "Shape: swaps toward VM RPC multiply the steady crossing cost, swaps\n\
             toward direct collapse it; the first post-swap crossing equals the\n\
             steady cost (re-establishment is charged at swap time, not lazily).\n",
        )
        .table(
            Table::rows("policy", &ladder)
                .title(
                    "MigrationPolicy ladder (escalate on hostile window, relax after a benign streak)",
                )
                .col("window", |l| l.0)
                .text("signals", |(_, s, ..)| {
                    format!(
                        "aborts={} chaos={} ops={}",
                        s.hardening_aborts, s.chaos_events, s.window_ops
                    )
                })
                .col("decision", |l| l.2.clone())
                .text("mechanism after", |l| l.3),
        ))
}

/// What one invocation asked for: the reports to run and their knobs.
struct Opts {
    /// Which rows of [`MODES`] run (in table order).
    run: [bool; MODES.len()],
    quick: bool,
    seed: u64,
    conns: Option<usize>,
    migrate_at: Option<(u64, BackendChoice)>,
    trace_out: Option<String>,
    /// `--json=PATH`; wins over a bare `--json`.
    json_path: Option<String>,
    /// Bare `--json`: each report writes its default file.
    json_default: bool,
}

/// One report `reproduce` can run.
struct Mode {
    name: &'static str,
    /// Part of `all` (and of a bare `reproduce`).
    in_all: bool,
    /// The file a bare `--json` writes, and how the report announces
    /// it. A report that has one is also selectable as `--name`, on top
    /// of whatever else was selected.
    json: Option<(&'static str, &'static str)>,
    /// Runs the report; its text is printed, its JSON written on request.
    run: fn(&Opts) -> Sheet,
}

const fn mode(
    name: &'static str,
    in_all: bool,
    json: Option<(&'static str, &'static str)>,
    run: fn(&Opts) -> Sheet,
) -> Mode {
    Mode {
        name,
        in_all,
        json,
        run,
    }
}

/// Every report, in the order they run.
const MODES: &[Mode] = &[
    mode("coloring", true, None, |_| run_coloring()),
    mode("explore", true, None, |_| or_exit("explore", run_explore())),
    mode("ctxswitch", true, None, |_| run_ctxswitch()),
    mode("fig3", true, None, |o| run_fig3(o.quick)),
    mode("table1", true, None, |o| run_table1(o.quick)),
    mode("fig4", true, None, |o| run_fig4(o.quick)),
    mode("fig5", true, None, |o| run_fig5(o.quick)),
    mode("cheri", true, None, |o| run_cheri(o.quick)),
    mode(
        "stats",
        true,
        Some(("flexos-stats.json", "\nWrote JSON stats")),
        |o| run_stats(o.quick, o.trace_out.as_deref()),
    ),
    mode(
        "chaos",
        false,
        Some(("flexos-chaos.json", "\nWrote JSON chaos report")),
        |o| run_chaos(o.quick, o.seed),
    ),
    mode(
        "serve",
        false,
        Some(("flexos-serve.json", "\nWrote JSON serve report")),
        |o| run_serve_exp(o.quick, o.conns, o.trace_out.as_deref(), o.migrate_at),
    ),
    mode(
        "migrate",
        false,
        Some(("flexos-migrate.json", "Wrote JSON migration report")),
        |o| or_exit("migrate", run_migrate(o.quick)),
    ),
];

fn usage() -> String {
    let names: Vec<&str> = MODES.iter().map(|m| m.name).collect();
    let flags: Vec<String> = MODES
        .iter()
        .filter(|m| m.json.is_some())
        .map(|m| format!("[--{}]", m.name))
        .collect();
    format!(
        "usage: reproduce [{}|all]\n\
         \x20                [--quick] {}\n\
         \x20                [--seed=S] [--conns=N] [--migrate-at=BURSTS[:backend]]\n\
         \x20                [--json[=PATH]] [--trace-out=PATH]",
        names.join("|"),
        flags.join(" "),
    )
}

fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag} must be an unsigned integer, got `{v}`"))
}

fn parse_migrate_at(s: &str) -> Result<(u64, BackendChoice), String> {
    let (n, b) = s.split_once(':').unwrap_or((s, BackendChoice::VmRpc.tag()));
    let after = n
        .parse()
        .map_err(|_| format!("--migrate-at must be BURSTS[:backend], got `{s}`"))?;
    let to = BackendChoice::from_tag(b).ok_or_else(|| {
        let tags = BackendChoice::ALL.map(BackendChoice::tag).join("|");
        format!("--migrate-at backend must be {tags}, got `{b}`")
    })?;
    Ok((after, to))
}

/// Parses the whole command line; anything it does not know is an error,
/// so a misspelt flag cannot silently run the default report.
fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        run: [false; MODES.len()],
        quick: false,
        seed: 42,
        conns: None,
        migrate_at: None,
        trace_out: None,
        json_path: None,
        json_default: false,
    };
    let mut what: Option<&str> = None;
    for arg in args {
        let Some(flag) = arg.strip_prefix("--") else {
            if let Some(first) = what {
                return Err(format!("two experiments given: `{first}` and `{arg}`"));
            }
            what = Some(arg);
            continue;
        };
        // `--flag` is `(flag, None)`, `--flag=` is `(flag, Some(""))`.
        match flag
            .split_once('=')
            .map_or((flag, None), |(k, v)| (k, Some(v)))
        {
            ("quick", None) => o.quick = true,
            ("json", None) => o.json_default = true,
            ("json", Some(path)) if !path.is_empty() => o.json_path = Some(path.to_string()),
            ("trace-out", Some(path)) if !path.is_empty() => o.trace_out = Some(path.to_string()),
            ("seed", Some(v)) => o.seed = number("--seed", v)?,
            ("conns", Some(v)) => match number("--conns", v)? {
                0 => return Err("--conns must be at least 1".to_string()),
                n => o.conns = Some(n),
            },
            ("migrate-at", Some(v)) => o.migrate_at = Some(parse_migrate_at(v)?),
            (name, None) => match MODES
                .iter()
                .position(|m| m.name == name && m.json.is_some())
            {
                Some(i) => o.run[i] = true,
                None => return Err(format!("unknown flag `{arg}`")),
            },
            _ => return Err(format!("unknown flag `{arg}`")),
        }
    }
    // No experiment and no report flag: everything `all` covers.
    match what.or((!o.run.contains(&true)).then_some("all")) {
        Some("all") => MODES
            .iter()
            .zip(&mut o.run)
            .for_each(|(m, on)| *on |= m.in_all),
        Some(name) => match MODES.iter().position(|m| m.name == name) {
            Some(i) => o.run[i] = true,
            None => return Err(format!("unknown experiment `{name}`")),
        },
        None => {}
    }
    Ok(o)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{}", usage());
        std::process::exit(2);
    });
    println!(
        "FlexOS-rs reproduction harness (deterministic cycle simulation @2.1 GHz{})",
        if opts.quick { ", quick mode" } else { "" }
    );
    for (mode, _) in MODES.iter().zip(opts.run).filter(|(_, on)| *on) {
        let sheet = (mode.run)(&opts);
        print!("{sheet}");
        let Some((default, what)) = mode.json else {
            continue;
        };
        let json = opts.json_path.as_deref();
        if let Some(path) = json.or(opts.json_default.then_some(default)) {
            write_or_exit(path, &sheet.to_json());
            println!("{what} to {path}");
        }
    }
}
