//! `flexos-benchmark`: the repo's benchmark.
//!
//! * `--workload NAME --trace 0|1 [--seed N] [--seconds S]` runs one
//!   workload in this process and prints, as the last line, the result
//!   object the driver reads (`--trace 0`: the end-to-end metrics,
//!   `--trace 1`: the per-layer metrics).
//! * Without `--trace` it is the one command: every workload (or the one
//!   named) runs twice, untraced and traced, each in a child process of
//!   this binary, and the merged report goes to `--out`.
//! * `--compare A.json B.json` applies `BENCHMARK.json`'s bounds to two
//!   such reports.
//!
//! See `benchmark/README.md`.

mod compare;
mod harness;
mod json;
mod layers;
mod run;
mod spec;
mod stats;
mod workloads;

use json::Json;
use run::{Outcome, RunCfg};
use spec::Spec;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--out FILE] | --compare A.json B.json";

/// Where trace exports and reports go, relative to the checkout's root.
const OUT_DIR: &str = "benchmark/out";

#[derive(Default)]
struct Args {
    workload: Option<String>,
    worker: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    twin: Option<PathBuf>,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        ..Args::default()
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--worker" => args.worker = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} is out of range"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--twin" => args.twin = Some(value()?.into()),
            "--out" => args.out = Some(value()?.into()),
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    match dispatch() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("flexos-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn find_workload(name: &str, spec: Option<&Spec>) -> Result<workloads::Workload, String> {
    let known = || {
        let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", names.join(", "))
    };
    let w = workloads::lookup(name).ok_or_else(known)?;
    if let Some(spec) = spec {
        if !spec.workloads.iter().any(|n| n == name) {
            return Err(format!("workload {name} is not listed in BENCHMARK.json"));
        }
    }
    Ok(w)
}

/// Returns whether everything that ran is correct.
fn dispatch() -> Result<bool, String> {
    let args = parse_args()?;
    if let Some(name) = &args.worker {
        run::worker_main(find_workload(name, None)?, args.seed)?;
        return Ok(true);
    }
    let spec = Spec::load()?;
    if let Some((a, b)) = &args.compare {
        let read = |p: &Path| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
        };
        return compare::compare(&spec, &read(a)?, &read(b)?);
    }
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let seconds = args.seconds.unwrap_or(spec.run_seconds);
    match (args.trace, &args.workload) {
        (Some(trace), Some(name)) => {
            let cfg = RunCfg {
                workload: find_workload(name, Some(&spec))?,
                seed: args.seed,
                seconds,
                trace,
                twin: args.twin,
                out_dir: OUT_DIR.into(),
            };
            single_run(&spec, &cfg)
        }
        (Some(_), None) => Err(format!("--trace needs --workload\n{USAGE}")),
        (None, _) => report(&spec, &args, seconds),
    }
}

// --- one workload, in this process ------------------------------------------------

fn detail_path(workload: &str, trace: bool) -> PathBuf {
    let kind = if trace { "layers" } else { "e2e" };
    Path::new(OUT_DIR).join(format!("{workload}.{kind}.json"))
}

fn single_run(spec: &Spec, cfg: &RunCfg) -> Result<bool, String> {
    let mut outcome = run::run(cfg)?;
    let errors = spec.coverage_errors(cfg.trace, &outcome.metrics);
    outcome.checks.push(run::Check {
        name: "benchmark_json_coverage".into(),
        ok: errors.is_empty(),
        detail: errors.join("; "),
    });
    let correct = outcome.failed == 0 && outcome.checks.iter().all(|c| c.ok);

    let name = cfg.workload.name;
    println!(
        "# {name}: seed {}, one op = one {}, {} ops per round",
        cfg.seed, cfg.workload.op, cfg.workload.ops_per_round
    );
    for (metric, &(value, unit)) in &outcome.metrics.values {
        println!("{name:<20} {metric:<40} {value:>18.4} {unit}");
    }
    for metric in &outcome.metrics.absent {
        println!(
            "{name:<20} {metric:<40} {:>18} (no instrument on this workload)",
            "-"
        );
    }
    for (key, value) in &outcome.diagnostics {
        println!("{name:<20} # {key:<38} {value:>18.4}");
    }
    for c in &outcome.checks {
        let verdict = if c.ok { "ok" } else { "FAILED" };
        println!("{name:<20} check {:<34} {verdict} {}", c.name, c.detail);
    }

    let detail = detail_json(cfg, &outcome, correct);
    let path = detail_path(name, cfg.trace);
    std::fs::write(&path, detail.to_line() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;

    // The driver's line: every metric of the section, by the section's
    // names and units. A per-layer metric this workload has no
    // instrument for reads 0 here (the report above leaves it out).
    let metrics = spec.section(cfg.trace).iter().map(|s| {
        let value = outcome.metrics.get(&s.name).unwrap_or(0.0);
        let entry = [
            ("value", Json::Num(value)),
            ("unit", Json::Str(s.unit.clone())),
        ];
        (s.name.clone(), Json::obj(entry))
    });
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", line.to_line());
    Ok(correct)
}

fn detail_json(cfg: &RunCfg, o: &Outcome, correct: bool) -> Json {
    let checks = o.checks.iter().map(|c| {
        Json::obj([
            ("name", Json::Str(c.name.clone())),
            ("ok", Json::Bool(c.ok)),
            ("detail", Json::Str(c.detail.clone())),
        ])
    });
    Json::obj([
        ("workload", Json::Str(cfg.workload.name.into())),
        ("seed", Json::Num(cfg.seed as f64)),
        ("seconds", Json::Num(cfg.seconds)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(o.attempted as f64)),
        ("failed", Json::Num(o.failed as f64)),
        ("metrics", o.metrics.to_json()),
        (
            "absent",
            Json::Arr(o.metrics.absent.iter().cloned().map(Json::Str).collect()),
        ),
        (
            "diagnostics",
            Json::obj(o.diagnostics.iter().map(|&(k, v)| (k, Json::Num(v)))),
        ),
        ("checks", Json::Arr(checks.collect())),
    ])
}

// --- the one command: every workload, each run in a child -------------------------

fn report(spec: &Spec, args: &Args, seconds: f64) -> Result<bool, String> {
    let names: Vec<String> = match &args.workload {
        Some(name) => vec![find_workload(name, Some(spec))?.name.to_string()],
        None => spec.workloads.clone(),
    };
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    let mut merged = Vec::new();
    for name in &names {
        let mut runs = Vec::new();
        for trace in [false, true] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if let Some(twin) = &args.twin {
                cmd.arg("--twin").arg(twin);
            }
            // The child prints its metrics itself; its detail file is
            // what gets merged.
            let status = cmd
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            all_correct &= status.success();
            let path = detail_path(name, trace);
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            runs.push(Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?);
        }
        merged.push((name.clone(), merge(&runs[0], &runs[1])));
    }
    let report = Json::obj([
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("workloads", Json::Obj(merged)),
    ]);
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| Path::new(OUT_DIR).join("report.json"));
    std::fs::write(&out, report.to_line() + "\n").map_err(|e| format!("{}: {e}", out.display()))?;
    println!(
        "# report written to {} ({})",
        out.display(),
        if all_correct {
            "every check passed"
        } else {
            "SOME CHECKS FAILED"
        }
    );
    Ok(all_correct)
}

/// One workload's entry in the report: the untraced run's end-to-end
/// metrics, the traced run's per-layer metrics, both runs' ops and checks.
fn merge(e2e: &Json, layers: &Json) -> Json {
    let field = |run: &Json, key: &str| run.get(key).cloned().unwrap_or(Json::Null);
    let sum = |key: &str| {
        let count = |run: &Json| run.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        Json::Num(count(e2e) + count(layers))
    };
    let both = |key: &str| {
        let mut items = field(e2e, key).as_arr().to_vec();
        items.extend_from_slice(field(layers, key).as_arr());
        Json::Arr(items)
    };
    let correct = [e2e, layers]
        .iter()
        .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", sum("attempted")),
        ("failed", sum("failed")),
        ("end_to_end", field(e2e, "metrics")),
        ("diagnostics", field(e2e, "diagnostics")),
        ("per_layer", field(layers, "metrics")),
        ("absent", field(layers, "absent")),
        ("checks", both("checks")),
    ])
}
