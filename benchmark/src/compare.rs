//! `--compare A.json B.json`: per (metric, workload), is B no worse than
//! A by more than the bound `BENCHMARK.json` fixes?

use crate::json::Json;
use crate::spec::{Better, Spec};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Better,
    /// One side's own spread is wider than the bound, so a difference
    /// within it says nothing.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// The verdict on one pairing. A `bound` of 0 compares exactly. `spreads`
/// say how well each side resolved its figure (for `host_ns_per_op`: how
/// far the rounds' lower quartile sits above their floor, as a share of
/// it), where the metric has such a diagnostic.
pub fn verdict(a: f64, b: f64, better: Better, bound: f64, spreads: Option<(f64, f64)>) -> Verdict {
    if a == b {
        return Verdict::Ok;
    }
    if let Some((sa, sb)) = spreads {
        if bound > 0.0 && (sa > bound || sb > bound) {
            return Verdict::Unresolved;
        }
    }
    match worse_by(a, b, better) {
        w if w > bound => Verdict::Worse,
        w if w < -bound => Verdict::Better,
        _ => Verdict::Ok,
    }
}

fn metric(workload: &Json, section: &str, name: &str) -> Option<f64> {
    workload.get(section)?.get(name)?.get("value")?.as_f64()
}

fn diagnostic(workload: &Json, name: &str) -> Option<f64> {
    workload.get("diagnostics")?.get(name)?.as_f64()
}

/// Compares two reports and prints one line per pairing. Returns whether
/// no pairing is `worse`.
pub fn compare(spec: &Spec, a: &Json, b: &Json) -> Result<bool, String> {
    let same_seed = a.get("seed").and_then(Json::as_f64) == b.get("seed").and_then(Json::as_f64);
    if !same_seed {
        println!("# the reports used different seeds: simulated metrics compare within their bounds, not exactly");
    }
    let mut clean = true;
    let workloads = a.get("workloads").ok_or("report A has no `workloads`")?;
    for (name, wa) in workloads.as_obj() {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(name)) else {
            println!("{name:<20} missing from report B");
            continue;
        };
        for m in &spec.end_to_end {
            let (Some(va), Some(vb)) = (
                metric(wa, "end_to_end", &m.name),
                metric(wb, "end_to_end", &m.name),
            ) else {
                continue;
            };
            // Simulated results repeat exactly for one seed, so any
            // worsening there is a regression.
            let exact = same_seed && m.name.starts_with("sim_");
            let bound = if exact { 0.0 } else { m.bound.unwrap_or(0.0) };
            let spreads = (m.name == "host_ns_per_op")
                .then(|| {
                    diagnostic(wa, "round_floor_spread").zip(diagnostic(wb, "round_floor_spread"))
                })
                .flatten();
            let v = verdict(va, vb, m.better, bound, spreads);
            clean &= v != Verdict::Worse;
            println!(
                "{name:<20} {:<28} {:<10} {va:>16.4} -> {vb:>16.4} {:<10} {:+.2} % (bound {} %)",
                m.name,
                v.label(),
                m.unit,
                100.0 * worse_by(va, vb, m.better),
                100.0 * bound,
            );
        }
        let fails = |w: &Json| {
            let f = w.get("failed").and_then(Json::as_f64)?;
            Some(f / w.get("attempted").and_then(Json::as_f64)?.max(1.0))
        };
        if let (Some(fa), Some(fb)) = (fails(wa), fails(wb)) {
            let v = verdict(fa, fb, Better::Lower, 0.0, None);
            clean &= v != Verdict::Worse;
            println!(
                "{name:<20} {:<28} {:<10} {fa:>16.4} -> {fb:>16.4} ratio",
                "fail_ratio",
                v.label()
            );
        }
        if same_seed {
            clean &= counters_identical(spec, name, wa, wb);
        }
    }
    Ok(clean)
}

/// Per-layer metrics that are counts of simulated events repeat exactly
/// for one seed; host times do not. Prints the ones that differ.
fn counters_identical(spec: &Spec, workload: &str, wa: &Json, wb: &Json) -> bool {
    let host_time = |unit: &str| matches!(unit, "ns" | "ms" | "s");
    let host_ratio = |name: &str| {
        name.starts_with("harness.")
            || name.starts_with("closure.")
            || name.ends_with("overhead_ratio")
    };
    let mut differing = Vec::new();
    let mut compared = 0;
    for m in &spec.per_layer {
        if host_time(&m.unit) || host_ratio(&m.name) {
            continue;
        }
        let pair = (
            metric(wa, "per_layer", &m.name),
            metric(wb, "per_layer", &m.name),
        );
        if let (Some(va), Some(vb)) = pair {
            compared += 1;
            if va != vb {
                differing.push(format!("{} {va} -> {vb}", m.name));
            }
        }
    }
    if differing.is_empty() {
        println!("{workload:<20} {compared} simulated per-layer counters identical");
    } else {
        println!(
            "{workload:<20} simulated per-layer counters differ: {}",
            differing.join(", ")
        );
    }
    differing.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_metrics_tolerate_the_bound_in_both_directions() {
        let lower = |a, b| verdict(a, b, Better::Lower, 0.05, None);
        assert_eq!(lower(100.0, 104.9), Verdict::Ok);
        assert_eq!(lower(100.0, 105.1), Verdict::Worse);
        assert_eq!(lower(100.0, 94.0), Verdict::Better);
        let higher = |a, b| verdict(a, b, Better::Higher, 0.05, None);
        assert_eq!(higher(100.0, 96.0), Verdict::Ok);
        assert_eq!(higher(100.0, 94.0), Verdict::Worse);
        assert_eq!(higher(100.0, 106.0), Verdict::Better);
    }

    #[test]
    fn exact_metrics_flag_any_difference() {
        let exact = |a, b| verdict(a, b, Better::Lower, 0.0, None);
        assert_eq!(exact(1041.0, 1041.0), Verdict::Ok);
        assert_eq!(exact(1041.0, 1041.5), Verdict::Worse);
        assert_eq!(exact(1041.0, 1040.5), Verdict::Better);
        assert_eq!(
            verdict(285.7, 250.0, Better::Higher, 0.0, None),
            Verdict::Worse
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let v = |spreads| verdict(100.0, 104.0, Better::Lower, 0.05, Some(spreads));
        assert_eq!(v((0.01, 0.02)), Verdict::Ok);
        assert_eq!(v((0.06, 0.02)), Verdict::Unresolved);
        assert_eq!(v((0.01, 0.07)), Verdict::Unresolved);
        // Identical values need no resolution.
        assert_eq!(
            verdict(7.0, 7.0, Better::Lower, 0.05, Some((0.5, 0.5))),
            Verdict::Ok
        );
    }
}
