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
use flexos_bench::report::{fmt_mbps, fmt_slowdown, Table};
use flexos_machine::CostTable;
use flexos_trace::JsonWriter;

/// A report file that cannot be written fails the run.
fn write_or_exit(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("failed to write {path}: {e}");
        std::process::exit(1);
    }
}

fn run_fig3(quick: bool) {
    println!("Running Figure 3 (iperf throughput, various configs)...");
    let points = fig3(quick);
    let sizes = fig3_buffer_sizes(quick);
    let mut headers = vec!["config".to_string()];
    headers.extend(sizes.iter().map(|s| format!("{s}B")));
    let mut t = Table::new(
        "Figure 3: iperf throughput vs recv buffer size (Mb/s)",
        &headers.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    for config in Fig3Config::ALL {
        let mut row = vec![config.label().to_string()];
        for &s in &sizes {
            let p = points
                .iter()
                .find(|p| p.config == config && p.recv_buf == s)
                .expect("point exists");
            row.push(format!("{:.0}", p.mbps));
        }
        t.row(row);
    }
    println!("{}", t.render());
    println!(
        "Paper shape: SH/MPK 2-3x slower at small buffers, converging by ~1KiB;\n\
         VM RPC needs far larger buffers to catch up; Xen trails KVM.\n"
    );
}

fn run_table1(quick: bool) {
    println!("Running Table 1 (iperf with SH per component)...");
    let t1 = table1(quick);
    let mut t = Table::new(
        "Table 1: iperf throughput with SH on various components",
        &[
            "Component C",
            "SH: all but C",
            "SH: C only",
            "slowdown (C only)",
        ],
    );
    for row in &t1.rows {
        t.row(vec![
            row.component.clone(),
            fmt_mbps(row.all_but_c_mbps),
            fmt_mbps(row.c_only_mbps),
            fmt_slowdown(t1.baseline_mbps, row.c_only_mbps),
        ]);
    }
    t.row(vec![
        "Entire system".into(),
        format!("{} (baseline)", fmt_mbps(t1.baseline_mbps)),
        fmt_mbps(t1.all_sh_mbps),
        fmt_slowdown(t1.baseline_mbps, t1.all_sh_mbps),
    ]);
    println!("{}", t.render());
    println!(
        "Paper shape: scheduler-only SH ~1% overhead, NW stack ~6%, LibC ~2.3x,\n\
         entire system ~6x (baseline 2.94 Gb/s on their testbed).\n"
    );
}

fn run_fig4(quick: bool) {
    println!("Running Figure 4 (Redis under SH configs + verified scheduler)...");
    let points = fig4(quick);
    let payloads: Vec<usize> = {
        let mut p: Vec<usize> = points.iter().map(|p| p.payload).collect();
        p.sort_unstable();
        p.dedup();
        p
    };
    let mut headers = vec!["config".to_string()];
    for &pl in &payloads {
        headers.push(format!("SET {pl}B"));
        headers.push(format!("GET {pl}B"));
    }
    let mut t = Table::new(
        "Figure 4: Redis throughput (MTps) for SH configs and the verified scheduler",
        &headers.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    for config in Fig4Config::ALL {
        let mut row = vec![config.label().to_string()];
        for &pl in &payloads {
            for mix in [flexos_apps::redis::Mix::Set, flexos_apps::redis::Mix::Get] {
                let p = points
                    .iter()
                    .find(|p| p.config == config && p.payload == pl && p.mix == mix)
                    .expect("point exists");
                row.push(format!("{:.3}", p.mreq_per_s));
            }
        }
        t.row(row);
    }
    println!("{}", t.render());
    println!(
        "Paper shape: SH(NW)+global allocator ~1.45x slowdown, local allocator\n\
         ~1.24x; verified scheduler within 6% of the C scheduler.\n"
    );
}

fn run_fig5(quick: bool) {
    println!("Running Figure 5 (Redis with MPK isolation)...");
    let points = fig5(quick);
    let payloads: Vec<usize> = {
        let mut p: Vec<usize> = points.iter().map(|p| p.payload).collect();
        p.sort_unstable();
        p.dedup();
        p
    };
    let mut headers = vec!["model".to_string(), "stacks".to_string()];
    headers.extend(payloads.iter().map(|p| format!("{p}B payload")));
    let mut t = Table::new(
        "Figure 5: Redis GET throughput (MTps) with MPK isolation",
        &headers.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    let mut emit = |model: flexos_apps::CompartmentModel, backend: BackendChoice, label: &str| {
        let mut row = vec![model.label().to_string(), label.to_string()];
        for &pl in &payloads {
            let p = points
                .iter()
                .find(|p| p.model == model && p.backend == backend && p.payload == pl)
                .expect("point exists");
            row.push(format!("{:.3}", p.mreq_per_s));
        }
        t.row(row);
    };
    emit(
        flexos_apps::CompartmentModel::Baseline,
        BackendChoice::None,
        "-",
    );
    for model in [
        flexos_apps::CompartmentModel::NwOnly,
        flexos_apps::CompartmentModel::NwSchedRest,
        flexos_apps::CompartmentModel::NwAndSchedRest,
    ] {
        emit(model, BackendChoice::MpkShared, "Sh.");
        emit(model, BackendChoice::MpkSwitched, "Sw.");
    }
    println!("{}", t.render());
    println!(
        "Paper shape: NW-only ~17% slowdown; +scheduler 1.4x (shared) / 2.25x\n\
         (switched); merging NW+sched does NOT help (semaphores live in LibC);\n\
         overhead shrinks as the payload grows.\n"
    );
}

fn run_cheri(quick: bool) {
    println!("Running the CHERI-backend extension (heterogeneous hardware)...");
    let points = ext_cheri(quick);
    let sizes = fig3_buffer_sizes(quick);
    let mut headers = vec!["backend".to_string()];
    headers.extend(sizes.iter().map(|s| format!("{s}B")));
    let mut t = Table::new(
        "Extension: iperf throughput when retargeting the gate primitive (Mb/s)",
        &headers.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    let mut labels: Vec<&str> = points.iter().map(|p| p.label).collect();
    labels.dedup();
    for label in labels {
        let mut row = vec![label.to_string()];
        for &s in &sizes {
            let p = points
                .iter()
                .find(|p| p.label == label && p.recv_buf == s)
                .expect("point exists");
            row.push(format!("{:.0}", p.mbps));
        }
        t.row(row);
    }
    println!("{}", t.render());
    println!(
        "The same image, retargeted at build time: capability gates cost less\n\
         than MPK (no PKRU serialization), both dwarf VM RPC — the §1 pitch\n\
         (\"hardware becomes heterogeneous (MPK, CHERI)\") made concrete.\n"
    );
}

fn run_ctxswitch() {
    println!("Running the context-switch microbenchmark...");
    let r = ctx_switch(10_000);
    let mut t = Table::new(
        "Context-switch latency (paper §4: 76.6 ns C vs 218.6 ns verified)",
        &["scheduler", "latency", "ratio"],
    );
    t.row(vec![
        "C (coop)".into(),
        format!("{:.1} ns", r.coop_ns),
        "1.0x".into(),
    ]);
    t.row(vec![
        "Verified (Dafny port)".into(),
        format!("{:.1} ns", r.verified_ns),
        format!("{:.1}x", r.verified_ns / r.coop_ns),
    ]);
    println!("{}", t.render());
}

fn run_coloring() {
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
    let mut t = Table::new(
        "Enumerated deployments (SH variants x graph coloring)",
        &["variant choice", "compartments", "hardened libs"],
    );
    for d in &deployments {
        let choice: Vec<String> = d
            .variants
            .iter()
            .map(|v| format!("{}[{}]", v.spec.name, v.sh))
            .collect();
        t.row(vec![
            choice.join(" + "),
            d.num_compartments().to_string(),
            d.hardened_count().to_string(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "Paper shape: the SH version of the unsafe library shares a compartment\n\
         with the scheduler; the original requires a separate compartment.\n"
    );
}

fn run_explore() {
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

    let mut t = Table::new(
        "Pareto frontier (predicted cycles/request vs security score)",
        &["configuration", "cycles/req", "security"],
    );
    for c in pareto_frontier(cands.clone()) {
        t.row(vec![
            c.label.clone(),
            c.cycles.to_string(),
            format!("{:.2}", c.security),
        ]);
    }
    println!("{}", t.render());

    let budget = 8_000;
    match max_security_within_budget(cands.clone(), budget) {
        Some(best) => println!(
            "Objective A (max security within {budget} cycles/req): {} -> security {:.2}, {} cycles",
            best.label, best.security, best.cycles
        ),
        None => println!("Objective A: nothing fits in {budget} cycles"),
    }
    match fastest_meeting_security(cands, 1.0) {
        Some(best) => println!(
            "Objective B (fastest fully-mitigated config): {} -> {} cycles/req",
            best.label, best.cycles
        ),
        None => println!("Objective B: no fully-mitigated configuration"),
    }
    // Show the audit trail for a sample plan.
    let p = plan(base).expect("plans");
    if !p.report.warnings.is_empty() {
        println!("\nBuild warnings for the unprotected baseline:");
        for w in &p.report.warnings {
            println!("  - {w}");
        }
    }
    println!();
}

fn run_stats(quick: bool, json: Option<&str>, trace_out: Option<&str>) {
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
    let (result, snap, trace) = if trace_out.is_some() {
        match run_redis_traced(&params) {
            Ok((r, s, t)) => (r, s, Some(t)),
            Err(e) => {
                eprintln!("stats run failed: {e}");
                std::process::exit(1);
            }
        }
    } else {
        match run_redis_with_stats(&params) {
            Ok((r, s)) => (r, s, None),
            Err(e) => {
                eprintln!("stats run failed: {e}");
                std::process::exit(1);
            }
        }
    };

    let secs = snap.elapsed_cycles as f64 / CPU_FREQ_HZ as f64;
    println!(
        "\nWorkload: {} GET requests, {:.3} MTps, {} gate crossings, \
         {} cycles ({:.3} ms simulated)",
        result.ops,
        result.mreq_per_s,
        result.crossings,
        result.cycles,
        secs * 1e3,
    );
    println!(
        "Same-compartment calls compiled to direct calls: {}",
        snap.direct_calls
    );

    let mut pairs = Table::new(
        "Gate crossings per (src -> dst) compartment pair",
        &[
            "mechanism",
            "src -> dst",
            "crossings",
            "crossings/s",
            "bytes",
            "gate cycles",
        ],
    );
    for r in &snap.gate_pairs {
        pairs.row(vec![
            r.mechanism.to_string(),
            format!("{} -> {}", r.src_name, r.dst_name),
            r.crossings.to_string(),
            format!("{:.0}", r.crossings as f64 / secs.max(f64::MIN_POSITIVE)),
            r.bytes.to_string(),
            r.gate_cycles.to_string(),
        ]);
    }
    println!("{}", pairs.render());

    let mut mechs = Table::new(
        "Crossing latency per gate mechanism (cycles, log2-bucket bounds)",
        &["mechanism", "count", "p50", "p90", "p99", "mean", "max"],
    );
    for r in &snap.mechanisms {
        mechs.row(vec![
            r.mechanism.to_string(),
            r.count.to_string(),
            r.p50.to_string(),
            r.p90.to_string(),
            r.p99.to_string(),
            r.mean.to_string(),
            r.max.to_string(),
        ]);
    }
    println!("{}", mechs.render());

    if !snap.gate_batch.is_empty() {
        let mut gb = Table::new(
            "Batched crossings per gate mechanism (batch-size histogram)",
            &["mechanism", "batches", "calls", "p50 size", "max size"],
        );
        for r in &snap.gate_batch {
            gb.row(vec![
                r.mechanism.to_string(),
                r.batches.to_string(),
                r.calls.to_string(),
                r.p50.to_string(),
                r.max.to_string(),
            ]);
        }
        println!("{}", gb.render());
    }

    let mut sched = Table::new(
        "Scheduler",
        &["ctx switches", "steps", "avg rq depth", "max rq depth"],
    );
    sched.row(vec![
        snap.sched.switches.to_string(),
        snap.sched.steps.to_string(),
        format!("{:.3}", snap.sched.avg_depth_milli() as f64 / 1000.0),
        snap.sched.depth_max.to_string(),
    ]);
    println!("{}", sched.render());
    if !snap.sched.task_cycles.is_empty() {
        let mut tasks = Table::new("Per-task run time", &["thread", "cycles"]);
        for &(tid, cy) in &snap.sched.task_cycles {
            tasks.row(vec![format!("tid {tid}"), cy.to_string()]);
        }
        println!("{}", tasks.render());
    }

    let mut allocs = Table::new(
        "Allocator pressure per compartment",
        &[
            "compartment",
            "allocs",
            "frees",
            "bytes in use",
            "peak bytes",
            "failures",
        ],
    );
    for r in &snap.allocs {
        allocs.row(vec![
            r.name.clone(),
            r.allocs.to_string(),
            r.frees.to_string(),
            r.bytes_in_use.to_string(),
            r.peak_bytes.to_string(),
            r.failures.to_string(),
        ]);
    }
    println!("{}", allocs.render());

    if snap.fault_kinds.is_empty() {
        println!("\nFaults: none recorded.");
    } else {
        let mut faults = Table::new("Faults by class", &["kind", "count"]);
        for r in &snap.fault_kinds {
            faults.row(vec![r.kind.to_string(), r.count.to_string()]);
        }
        println!("{}", faults.render());
        if !snap.fault_compartments.is_empty() {
            let mut fc = Table::new(
                "Pkey violations by owning compartment",
                &["compartment", "count"],
            );
            for r in &snap.fault_compartments {
                fc.row(vec![r.name.clone(), r.count.to_string()]);
            }
            println!("{}", fc.render());
        }
    }

    let mut tlb = Table::new("Software TLB", &["hits", "misses", "flushes", "hit rate"]);
    tlb.row(vec![
        snap.tlb.hits.to_string(),
        snap.tlb.misses.to_string(),
        snap.tlb.flushes.to_string(),
        format!("{:.1}%", snap.tlb.hit_rate_milli() as f64 / 10.0),
    ]);
    println!("{}", tlb.render());

    let mut net = Table::new(
        "Network stack",
        &[
            "rx segments",
            "tx segments",
            "rx datagrams",
            "demux drops",
            "backlog drops",
            "retransmits",
        ],
    );
    net.row(vec![
        snap.net.rx_segments.to_string(),
        snap.net.tx_segments.to_string(),
        snap.net.rx_datagrams.to_string(),
        snap.net.drops.to_string(),
        snap.net.backlog_overflows.to_string(),
        snap.net.retransmits.to_string(),
    ]);
    println!("{}", net.render());

    print_serving_counters(&snap);

    if !snap.latency.is_empty() {
        let mut lat = Table::new(
            "Request latency percentiles (cycles, exact nearest-rank)",
            &["app", "backend", "requests", "p50", "p99", "p999"],
        );
        for r in &snap.latency {
            lat.row(vec![
                r.app.to_string(),
                r.backend.to_string(),
                r.count.to_string(),
                r.p50.to_string(),
                r.p99.to_string(),
                r.p999.to_string(),
            ]);
        }
        println!("{}", lat.render());
    }

    if !snap.ring_drops.is_empty() {
        let mut rd = Table::new(
            "Bounded-ring occupancy (events pushed vs overwritten)",
            &["subsystem", "owner", "pushed", "dropped"],
        );
        for r in &snap.ring_drops {
            rd.row(vec![
                r.subsystem.to_string(),
                r.owner.to_string(),
                r.pushed.to_string(),
                r.dropped.to_string(),
            ]);
        }
        println!("{}", rd.render());
    }

    if !snap.events.is_empty() {
        let mut ev = Table::new(
            "Event-ring tail (most recent, all compartments)",
            &["cycles", "compartment", "kind", "detail", "seq"],
        );
        for e in &snap.events {
            ev.row(vec![
                e.cycles.to_string(),
                format!("cpt {}", e.compartment),
                e.kind.to_string(),
                e.detail.to_string(),
                e.seq.to_string(),
            ]);
        }
        println!("{}", ev.render());
        println!(
            "({} older events overwritten in bounded rings)",
            snap.events_overwritten
        );
    }

    if let (Some(path), Some(trace)) = (trace_out, &trace) {
        write_or_exit(path, trace);
        println!("\nWrote Chrome trace-event JSON to {path} (open in ui.perfetto.dev)");
    }

    if let Some(path) = json {
        let mut w = JsonWriter::new();
        w.begin_obj(None)
            .begin_obj(Some("workload"))
            .str_field("experiment", "redis-get-mpk-shared")
            .u64_field("ops", result.ops)
            .u64_field("cycles", result.cycles)
            .f64_field("mreq_per_s", result.mreq_per_s)
            .u64_field("crossings", result.crossings)
            .end_obj();
        snap.write_json(&mut w, Some("stats"));
        w.end_obj();
        write_or_exit(path, &w.finish());
        println!("\nWrote JSON stats to {path}");
    }
}

/// Prints the readiness-layer + cooperative-executor counters (the
/// `--stats` serving block), when the run exercised them.
fn print_serving_counters(snap: &flexos_trace::StatsSnapshot) {
    let sv = &snap.serving;
    if *sv == flexos_trace::ServingSnapshot::default() {
        return;
    }
    let mut t = Table::new(
        "Serving tier: readiness layer + cooperative executor",
        &[
            "events posted",
            "coalesced",
            "polls",
            "delivered",
            "tasks spawned",
            "task steps",
            "wakeups",
        ],
    );
    t.row(vec![
        sv.events_posted.to_string(),
        sv.events_coalesced.to_string(),
        sv.polls.to_string(),
        sv.events_delivered.to_string(),
        sv.tasks_spawned.to_string(),
        sv.tasks_run.to_string(),
        sv.wakeups.to_string(),
    ]);
    println!("{}", t.render());
}

fn run_serve_exp(
    quick: bool,
    conns: Option<usize>,
    json: Option<&str>,
    trace_out: Option<&str>,
    migrate_at: Option<(u64, flexos::build::BackendChoice)>,
) {
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
    let (result, snap, trace) = if trace_out.is_some() {
        match run_serve_traced(&params) {
            Ok((r, s, t)) => (r, s, Some(t)),
            Err(e) => {
                eprintln!("serve run failed: {e}");
                std::process::exit(1);
            }
        }
    } else {
        match run_serve_with_stats(&params) {
            Ok((r, s)) => (r, s, None),
            Err(e) => {
                eprintln!("serve run failed: {e}");
                std::process::exit(1);
            }
        }
    };

    let secs = result.cycles as f64 / CPU_FREQ_HZ as f64;
    let mut t = Table::new(
        "Serving tier: sharded Redis behind the async cluster proxy",
        &[
            "conns",
            "requests",
            "MTps",
            "cycles/req",
            "crossings",
            "p50",
            "p99",
            "p999",
            "backlog drops",
        ],
    );
    t.row(vec![
        result.conns.to_string(),
        result.ops.to_string(),
        format!("{:.3}", result.mreq_per_s),
        result.cycles_per_op.to_string(),
        result.crossings.to_string(),
        result.p50_cycles.to_string(),
        result.p99_cycles.to_string(),
        result.p999_cycles.to_string(),
        result.backlog_overflows.to_string(),
    ]);
    println!("{}", t.render());
    println!(
        "({} cycles measured, {:.3} ms simulated; burst percentiles are \
         arrival-to-last-reply, open-loop)",
        result.cycles,
        secs * 1e3
    );

    let mut st = Table::new("Requests per shard compartment", &["shard", "requests"]);
    for (k, n) in result.shard_ops.iter().enumerate() {
        st.row(vec![format!("shard{k}"), n.to_string()]);
    }
    println!("{}", st.render());

    print_serving_counters(&snap);

    if let (Some(path), Some(trace)) = (trace_out, &trace) {
        write_or_exit(path, trace);
        println!("\nWrote Chrome trace-event JSON to {path} (open in ui.perfetto.dev)");
    }

    if let Some(path) = json {
        let mut w = JsonWriter::new();
        w.begin_obj(None)
            .begin_obj(Some("workload"))
            .str_field("experiment", "serve-sharded-proxy")
            .u64_field("conns", result.conns as u64)
            .u64_field("ops", result.ops)
            .u64_field("cycles", result.cycles)
            .u64_field("cycles_per_op", result.cycles_per_op)
            .f64_field("mreq_per_s", result.mreq_per_s)
            .u64_field("crossings", result.crossings)
            .u64_field("p50_cycles", result.p50_cycles)
            .u64_field("p99_cycles", result.p99_cycles)
            .u64_field("p999_cycles", result.p999_cycles)
            .u64_field("backlog_overflows", result.backlog_overflows)
            .end_obj();
        snap.write_json(&mut w, Some("stats"));
        w.end_obj();
        write_or_exit(path, &w.finish());
        println!("\nWrote JSON serve report to {path}");
    }
}

fn run_chaos(quick: bool, seed: u64, json: Option<&str>) {
    use flexos_bench::chaos::{
        alloc_under_injected_oom, chaos_json, tcp_goodput_vs_loss, vmrpc_under_notify_loss,
        writes_under_spurious_pkey,
    };

    println!("Running the flexos-inject chaos sweeps (seed {seed})...");
    let tcp = tcp_goodput_vs_loss(quick, seed);
    let vmrpc = vmrpc_under_notify_loss(quick, seed);
    let alloc = alloc_under_injected_oom(quick, seed);
    let pkey = writes_under_spurious_pkey(quick, seed);

    let mut t = Table::new(
        "TCP goodput vs injected frame loss (iperf, baseline image)",
        &[
            "loss \u{2030}",
            "bytes delivered",
            "goodput Mb/s",
            "frames dropped",
        ],
    );
    for p in &tcp {
        t.row(vec![
            p.loss_per_mille.to_string(),
            p.bytes.to_string(),
            format!("{:.1}", p.mbps),
            p.frames_dropped.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("Every byte stream completes; goodput degrades, never deadlocks.\n");

    let mut t = Table::new(
        "VM RPC vs injected doorbell loss (retry + exponential backoff)",
        &[
            "drop \u{2030}",
            "crossings",
            "ok",
            "timeouts",
            "doorbells lost",
            "mean cycles/ok",
        ],
    );
    for p in &vmrpc {
        t.row(vec![
            p.drop_per_mille.to_string(),
            p.attempts.to_string(),
            p.ok.to_string(),
            p.timeouts.to_string(),
            p.doorbells_dropped.to_string(),
            p.mean_cycles_ok.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "Lost doorbells are re-rung with bounded backoff; only exhausted retry\n\
         budgets surface as typed GateTimeout faults.\n"
    );

    let mut t = Table::new(
        "Allocation under injected OOM",
        &[
            "fail \u{2030}",
            "attempts",
            "injected OOM",
            "success \u{2030}",
        ],
    );
    for p in &alloc {
        t.row(vec![
            p.fail_per_mille.to_string(),
            p.attempts.to_string(),
            p.injected_oom.to_string(),
            p.success_per_mille.to_string(),
        ]);
    }
    println!("{}", t.render());

    let mut t = Table::new(
        "Writes under spurious pkey faults (retried until they land)",
        &["fault \u{2030}", "writes", "spurious faults", "completed"],
    );
    for p in &pkey {
        t.row(vec![
            p.fault_per_mille.to_string(),
            p.writes.to_string(),
            p.spurious_faults.to_string(),
            p.completed.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("Deterministic: the same --seed reproduces this report byte-for-byte.");

    if let Some(path) = json {
        let doc = chaos_json(seed, quick, &tcp, &vmrpc, &alloc, &pkey);
        write_or_exit(path, &doc);
        println!("\nWrote JSON chaos report to {path}");
    }
}

/// `--migrate`: the live gate-backend migration sweep. Boots a
/// migratable image on every source backend, swaps every compartment
/// pair to every target backend at runtime (5×5 ordered pairs), and
/// reports the first post-swap crossing cost against the steady-state
/// cost on either side — plus what the drain carried across the swap
/// (requeued SQEs). A second table demonstrates the kernel's
/// [`MigrationPolicy`] ladder: escalate one rung per hostile window,
/// relax after sustained benign load.
fn run_migrate(quick: bool, json: Option<&str>) {
    use flexos::gate::{GateMechanism, MigrationReason, Sqe};
    use flexos::spec::LibSpec;
    use flexos_backends::{instantiate_migratable, migrate_all, BootImage};
    use flexos_kernel::{MigrationPolicy, PolicyDecision, PolicySignals};

    const ALL: [BackendChoice; 5] = [
        BackendChoice::None,
        BackendChoice::MpkShared,
        BackendChoice::MpkSwitched,
        BackendChoice::VmRpc,
        BackendChoice::Cheri,
    ];
    fn tag(b: BackendChoice) -> &'static str {
        match b {
            BackendChoice::None => "direct",
            BackendChoice::MpkShared => "mpk-shared",
            BackendChoice::MpkSwitched => "mpk-switched",
            BackendChoice::VmRpc => "vm-rpc",
            BackendChoice::Cheri => "cheri",
        }
    }
    fn backend_of(mech: GateMechanism) -> BackendChoice {
        match mech {
            GateMechanism::DirectCall => BackendChoice::None,
            GateMechanism::MpkSharedStack => BackendChoice::MpkShared,
            GateMechanism::MpkSwitchedStack => BackendChoice::MpkSwitched,
            GateMechanism::VmRpc => BackendChoice::VmRpc,
            GateMechanism::Cheri => BackendChoice::Cheri,
        }
    }
    fn migratable(from: BackendChoice) -> BootImage {
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
        instantiate_migratable(plan(cfg).expect("sweep plan colors"), from)
            .expect("migratable boot succeeds")
    }
    fn steady(img: &mut BootImage, calls: u64) -> u64 {
        let t0 = img.machine.clock().cycles();
        for _ in 0..calls {
            img.call_lib("uksched_verified", 64, 16, |m, _| {
                m.charge(100);
                Ok(0)
            })
            .expect("sweep crossing succeeds");
        }
        (img.machine.clock().cycles() - t0) / calls
    }

    println!("Running the live gate-backend migration sweep (5x5 ordered pairs)...");
    let calls = if quick { 4 } else { 16 };
    let mut t = Table::new(
        "Live migration: runtime backend swap, per ordered (from, to) pair",
        &[
            "from \\ to",
            "pairs",
            "steady before",
            "first after",
            "steady after",
            "SQEs requeued",
        ],
    );
    let mut rows: Vec<(String, String, u64, u64, u64, u64, u64)> = Vec::new();
    for from in ALL {
        for to in ALL {
            let mut img = migratable(from);
            let before = steady(&mut img, calls);
            // Park async work on the ring so the swap has something to
            // carry: pending SQEs must re-issue through the new gate.
            for ud in 0..3u64 {
                img.submit_lib("uksched_verified", Sqe::new(32, 8, ud))
                    .expect("submission before the drain is admitted");
            }
            let (applied, deferred) = migrate_all(&mut img, to, MigrationReason::Manual)
                .expect("quiescent sweep image migrates");
            assert_eq!(deferred, 0, "sweep image is quiescent between calls");
            let t0 = img.machine.clock().cycles();
            img.call_lib("uksched_verified", 64, 16, |m, _| {
                m.charge(100);
                Ok(0)
            })
            .expect("first post-swap crossing succeeds");
            let first = img.machine.clock().cycles() - t0;
            let after = steady(&mut img, calls);
            // The requeued descriptors complete through the new backend.
            let flushed = img
                .call_lib_async("uksched_verified", |m, _, _| {
                    m.charge(50);
                    Ok(1)
                })
                .expect("requeued SQEs flush");
            assert_eq!(flushed, 3, "{from:?}->{to:?} lost a requeued SQE");
            let st = img.gates.migration_stats();
            t.row(vec![
                format!("{} -> {}", tag(from), tag(to)),
                applied.to_string(),
                format!("{before}"),
                format!("{first}"),
                format!("{after}"),
                st.requeued_sqes.to_string(),
            ]);
            rows.push((
                tag(from).to_string(),
                tag(to).to_string(),
                applied as u64,
                before,
                first,
                after,
                st.requeued_sqes,
            ));
        }
    }
    println!("{}", t.render());
    println!(
        "Shape: swaps toward VM RPC multiply the steady crossing cost, swaps\n\
         toward direct collapse it; the first post-swap crossing equals the\n\
         steady cost (re-establishment is charged at swap time, not lazily).\n"
    );

    // Policy ladder demo: hostile windows escalate one rung at a time,
    // sustained benign load relaxes after a streak.
    let mut pol = MigrationPolicy::new(GateMechanism::MpkSharedStack);
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
    let mut pt = Table::new(
        "MigrationPolicy ladder (escalate on hostile window, relax after a benign streak)",
        &["window", "signals", "decision", "mechanism after"],
    );
    let mut pol_rows: Vec<(String, String)> = Vec::new();
    for (what, s) in windows {
        let decision = pol.observe(s);
        let d = match decision {
            PolicyDecision::Hold => "hold".to_string(),
            PolicyDecision::Escalate { to } => {
                pol.applied(to);
                format!("escalate -> {}", tag(backend_of(to)))
            }
            PolicyDecision::Relax { to } => {
                pol.applied(to);
                format!("relax -> {}", tag(backend_of(to)))
            }
        };
        pt.row(vec![
            what.to_string(),
            format!(
                "aborts={} chaos={} ops={}",
                s.hardening_aborts, s.chaos_events, s.window_ops
            ),
            d.clone(),
            tag(backend_of(pol.current())).to_string(),
        ]);
        pol_rows.push((what.to_string(), d));
    }
    println!("{}", pt.render());

    if let Some(path) = json {
        let mut w = JsonWriter::new();
        w.begin_obj(None)
            .str_field("experiment", "live-migration-sweep")
            .u64_field("steady_calls", calls)
            .obj_arr(
                "pairs",
                &rows,
                |w, (from, to, applied, before, first, after, requeued)| {
                    w.str_field("from", from)
                        .str_field("to", to)
                        .u64_field("applied", *applied)
                        .u64_field("steady_before", *before)
                        .u64_field("first_after", *first)
                        .u64_field("steady_after", *after)
                        .u64_field("requeued_sqes", *requeued);
                },
            )
            .obj_arr("policy", &pol_rows, |w, (window, decision)| {
                w.str_field("window", window)
                    .str_field("decision", decision);
            })
            .end_obj();
        write_or_exit(path, &w.finish());
        println!("Wrote JSON migration report to {path}");
    }
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
    /// The file a bare `--json` writes. A report that has one is also
    /// selectable as `--name`, on top of whatever else was selected.
    json: Option<&'static str>,
    run: fn(&Opts, Option<&str>),
}

const fn mode(
    name: &'static str,
    in_all: bool,
    json: Option<&'static str>,
    run: fn(&Opts, Option<&str>),
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
    mode("coloring", true, None, |_, _| run_coloring()),
    mode("explore", true, None, |_, _| run_explore()),
    mode("ctxswitch", true, None, |_, _| run_ctxswitch()),
    mode("fig3", true, None, |o, _| run_fig3(o.quick)),
    mode("table1", true, None, |o, _| run_table1(o.quick)),
    mode("fig4", true, None, |o, _| run_fig4(o.quick)),
    mode("fig5", true, None, |o, _| run_fig5(o.quick)),
    mode("cheri", true, None, |o, _| run_cheri(o.quick)),
    mode("stats", true, Some("flexos-stats.json"), |o, json| {
        run_stats(o.quick, json, o.trace_out.as_deref())
    }),
    mode("chaos", false, Some("flexos-chaos.json"), |o, json| {
        run_chaos(o.quick, o.seed, json)
    }),
    mode("serve", false, Some("flexos-serve.json"), |o, json| {
        run_serve_exp(o.quick, o.conns, json, o.trace_out.as_deref(), o.migrate_at)
    }),
    mode("migrate", false, Some("flexos-migrate.json"), |o, json| {
        run_migrate(o.quick, json)
    }),
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
    let (n, b) = s.split_once(':').unwrap_or((s, "vmrpc"));
    let after = n
        .parse()
        .map_err(|_| format!("--migrate-at must be BURSTS[:backend], got `{s}`"))?;
    let to = match b {
        "direct" | "none" => BackendChoice::None,
        "mpk-shared" => BackendChoice::MpkShared,
        "mpk-switched" => BackendChoice::MpkSwitched,
        "vmrpc" => BackendChoice::VmRpc,
        "cheri" => BackendChoice::Cheri,
        _ => {
            return Err(format!(
                "--migrate-at backend must be \
                 direct|mpk-shared|mpk-switched|vmrpc|cheri, got `{b}`"
            ))
        }
    };
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
        match flag.split_once('=').unwrap_or((flag, "")) {
            ("quick", "") => o.quick = true,
            ("json", "") => o.json_default = true,
            ("json", path) => o.json_path = Some(path.to_string()),
            ("trace-out", path) if !path.is_empty() => o.trace_out = Some(path.to_string()),
            ("seed", v) => o.seed = number("--seed", v)?,
            ("conns", v) => o.conns = Some(number("--conns", v)?),
            ("migrate-at", v) => o.migrate_at = Some(parse_migrate_at(v)?),
            (name, "") => match MODES
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
        let json = opts
            .json_path
            .as_deref()
            .or(mode.json.filter(|_| opts.json_default));
        (mode.run)(&opts, json);
    }
}
