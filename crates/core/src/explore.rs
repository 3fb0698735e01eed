//! Design-space exploration: the paper's two §2 objectives.
//!
//! * **Objective A** — "Given a performance target and a set of predefined
//!   compartments, find the combination of isolation primitives that
//!   maximizes security within a certain performance budget."
//! * **Objective B** — "Given a set of safety requirements, find a
//!   compliant instantiation that yields the best performance."
//!
//! Exploration needs two models:
//!
//! * a **cost model** ([`estimate_request_cycles`]) that predicts the
//!   per-request cycle cost of a candidate image from a workload's
//!   [`CallProfile`] (how often each library calls each other library per
//!   request, and how much base work each library does) — crossings
//!   between co-located libraries cost a function call, crossings between
//!   compartments cost the backend's gate, and hardened compartments pay
//!   SH multipliers on their base work;
//! * a **security model** ([`security_score`]) that scores how many of
//!   the image's *threatened* library pairs are actually protected —
//!   either by a protection-domain boundary or by hardening that rewrites
//!   the offender's spec into compatibility.

use crate::build::{admit, place, BackendChoice, ImageConfig, ImagePlan, LibraryConfig};
use crate::compat::{violations, IncompatGraph, VerdictTable};
use crate::spec::model::LibSpec;
use crate::spec::transform::{apply_sh, suggest_sh, ShMechanism, ShSet};
use flexos_machine::CostTable;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Per-request workload profile over the image's libraries.
#[derive(Debug, Clone, Default)]
pub struct CallProfile {
    /// `(caller, callee, calls-per-request)` for cross-library calls.
    pub calls: Vec<(String, String, u64)>,
    /// Average marshalled bytes per cross-library call.
    pub arg_bytes: u64,
    /// Base per-request work per library, in cycles (uninstrumented).
    pub base_cycles: BTreeMap<String, u64>,
}

impl CallProfile {
    /// Adds a call edge.
    #[must_use]
    pub fn with_calls(mut self, from: &str, to: &str, per_request: u64) -> Self {
        self.calls.push((from.into(), to.into(), per_request));
        self
    }

    /// Sets a library's base work.
    #[must_use]
    pub fn with_work(mut self, lib: &str, cycles: u64) -> Self {
        self.base_cycles.insert(lib.into(), cycles);
        self
    }
}

/// Multiplier (in percent) that a hardening set applies to a library's
/// base work. Calibrated against the paper's Table 1 per-component
/// slowdowns (SH costs concentrate in allocation-heavy and
/// pointer-chasing code).
pub fn sh_overhead_percent(sh: &ShSet) -> u64 {
    let mut pct = 0u64;
    for m in &sh.0 {
        pct += match m {
            ShMechanism::Asan => 90,
            ShMechanism::Dfi => 60,
            ShMechanism::Cfi => 10,
            ShMechanism::StackProtector => 3,
            ShMechanism::SafeStack => 5,
            ShMechanism::Ubsan => 25,
        };
    }
    pct
}

/// One-way gate cost in cycles for a backend under `costs`.
pub fn gate_cost(backend: BackendChoice, costs: &CostTable, arg_bytes: u64) -> u64 {
    match backend {
        BackendChoice::None => costs.func_call,
        BackendChoice::MpkShared => costs.mpk_shared_gate(),
        BackendChoice::MpkSwitched => costs.mpk_switched_gate() + costs.copy_cost(arg_bytes),
        BackendChoice::VmRpc => costs.vm_rpc_gate() + costs.copy_cost(arg_bytes),
        BackendChoice::Cheri => costs.cheri_gate,
    }
}

/// Estimates the per-request cycle cost of `plan` under `profile`.
pub fn estimate_request_cycles(plan: &ImagePlan, profile: &CallProfile, costs: &CostTable) -> u64 {
    let index: BTreeMap<&str, usize> = plan
        .config
        .libraries
        .iter()
        .enumerate()
        .map(|(i, l)| (l.spec.name.as_str(), i))
        .collect();

    let mut total = 0u64;
    // Base work with SH multipliers (per compartment hardening).
    for (lib, &cycles) in &profile.base_cycles {
        let Some(&i) = index.get(lib.as_str()) else {
            continue;
        };
        let c = plan.compartment_of[i];
        let pct = sh_overhead_percent(&plan.compartment_sh[c]);
        total += cycles + cycles * pct / 100;
    }
    // Crossings.
    for (from, to, count) in &profile.calls {
        let (Some(&fi), Some(&ti)) = (index.get(from.as_str()), index.get(to.as_str())) else {
            continue;
        };
        let per_call = if plan.compartment_of[fi] == plan.compartment_of[ti] {
            costs.func_call
        } else {
            // Round trip: enter + exit.
            2 * gate_cost(plan.config.backend, costs, profile.arg_bytes)
        };
        total += per_call * count;
    }
    total
}

/// Scores how well `plan` protects its libraries, in `[0, 1]`.
///
/// Every ordered pair `(victim, offender)` where the *plain* (pre-SH)
/// offender spec violates the victim's grants is a threat. A threat is
/// *mitigated* when the pair sits in different compartments of an
/// isolating backend, or when the offender's hardening rewrites its spec
/// into compatibility. The score is the mitigated fraction (1.0 when
/// there are no threats).
pub fn security_score(plan: &ImagePlan) -> f64 {
    let libs = &plan.config.libraries;
    let effective: Vec<Rc<LibSpec>> = libs.iter().map(LibraryConfig::effective_spec).collect();
    let mut threats = 0u32;
    let mut mitigated = 0u32;
    for v in 0..libs.len() {
        for o in 0..libs.len() {
            if v == o || violations(&libs[v].spec, &libs[o].spec).is_empty() {
                continue;
            }
            threats += 1;
            let separated =
                plan.config.backend.isolates() && plan.compartment_of[v] != plan.compartment_of[o];
            if separated || violations(&effective[v], &effective[o]).is_empty() {
                mitigated += 1;
            }
        }
    }
    mitigated_fraction(mitigated, threats)
}

fn mitigated_fraction(mitigated: u32, threats: u32) -> f64 {
    if threats == 0 {
        1.0
    } else {
        f64::from(mitigated) / f64::from(threats)
    }
}

/// One evaluated point in the design space.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The candidate's plan.
    pub plan: ImagePlan,
    /// Predicted per-request cycles.
    pub cycles: u64,
    /// Security score in `[0, 1]`.
    pub security: f64,
    /// Short description (backend + hardened libs).
    pub label: String,
}

/// Generates the candidate space for a base configuration: every backend
/// in `backends` × every subset of `{no SH, suggested SH}` per library
/// that has a suggestion (bounded like the paper's variant enumeration),
/// ordered by `(backend index, SH mask)`, unplanable combinations
/// dropped.
///
/// The walk follows the shape of the space, a product of small
/// ingredients:
///
/// * a library comes in one or two variants, its spec as configured and
///   its spec under the suggested hardening, and every verdict between
///   variants of two libraries is checked once, up front, into one dense
///   table;
/// * an SH mask picks one variant per library, so the mask's
///   incompatibility graph, and which threats its hardening clears, are
///   read from the table once per mask: neither depends on the backend;
/// * threats are judged on the declared specs, so they are found once.
///
/// A candidate then only places its libraries on its mask's graph (the
/// body behind [`plan`](crate::build::plan)) and counts what its
/// compartments separate; its score equals [`security_score`] of its plan.
///
/// # Panics
///
/// Panics if more than 12 libraries have a hardening suggestion.
pub fn candidates(
    base: &ImageConfig,
    backends: &[BackendChoice],
    profile: &CallProfile,
    costs: &CostTable,
) -> Vec<Candidate> {
    let suggestions: Vec<Option<ShSet>> = base
        .libraries
        .iter()
        .map(|l| {
            let s = suggest_sh(&l.spec);
            (!s.is_empty()).then_some(s)
        })
        .collect();
    let toggleable: Vec<usize> = (0..base.libraries.len())
        .filter(|&i| suggestions[i].is_some())
        .collect();
    assert!(toggleable.len() <= 12, "SH toggle space too large");
    if admit(base.libraries.len()).is_err() {
        return Vec::new();
    }

    let libs = &base.libraries;
    let variants: Vec<Vec<Rc<LibSpec>>> = libs
        .iter()
        .zip(&suggestions)
        .map(|(l, sugg)| {
            let mut v = vec![l.effective_spec()];
            v.extend(
                sugg.iter()
                    .map(|sh| Rc::new(apply_sh(&l.spec, sh, &l.analysis))),
            );
            v
        })
        .collect();
    let table = VerdictTable::new(variants.iter().map(|v| v.iter().map(Rc::as_ref)));
    let threats: Vec<(usize, usize)> = (0..libs.len())
        .flat_map(|v| (0..libs.len()).map(move |o| (v, o)))
        .filter(|&(v, o)| v != o && !violations(&libs[v].spec, &libs[o].spec).is_empty())
        .collect();

    // What a candidate shares with every other candidate of its mask.
    struct Mask<'a> {
        config: ImageConfig,
        hardened: Vec<&'a str>,
        graph: IncompatGraph,
        effective: Vec<Rc<LibSpec>>,
        hardened_away: Vec<bool>,
    }
    let masks: Vec<Mask> = (0..1u32 << toggleable.len())
        .map(|mask| {
            let mut config = base.clone();
            let mut selection = vec![0; libs.len()];
            let mut hardened = Vec::new();
            for (bit, &i) in toggleable.iter().enumerate() {
                if mask & (1 << bit) != 0 {
                    config.libraries[i].sh = suggestions[i].clone().expect("toggleable");
                    selection[i] = 1;
                    hardened.push(libs[i].spec.name.as_str());
                }
            }
            Mask {
                config,
                hardened,
                graph: table.graph(&selection),
                effective: (0..libs.len())
                    .map(|i| Rc::clone(&variants[i][selection[i]]))
                    .collect(),
                hardened_away: threats
                    .iter()
                    .map(|&(v, o)| table.verdict(&selection, v, o).is_empty())
                    .collect(),
            }
        })
        .collect();

    let mut out = Vec::new();
    for &backend in backends {
        for m in &masks {
            let mut config = m.config.clone();
            config.backend = backend;
            let Ok(plan) = place(config, &m.graph, &m.effective) else {
                continue;
            };
            let separated = |&(v, o): &(usize, usize)| {
                backend.isolates() && plan.compartment_of[v] != plan.compartment_of[o]
            };
            let mitigated = threats
                .iter()
                .zip(&m.hardened_away)
                .filter(|&(t, &away)| away || separated(t))
                .count();
            let label = if m.hardened.is_empty() {
                format!("{backend}")
            } else {
                format!("{backend} + SH({})", m.hardened.join(","))
            };
            out.push(Candidate {
                cycles: estimate_request_cycles(&plan, profile, costs),
                security: mitigated_fraction(mitigated as u32, threats.len() as u32),
                plan,
                label,
            });
        }
    }
    out
}

/// The options of [`explore`], of which none is left: the walk runs on
/// the calling thread. Kept only because the benchmark's layer ladder
/// (`benchmark/src/layers.rs`) passes `ExploreOptions::serial()`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExploreOptions;

impl ExploreOptions {
    /// The one way to walk the design space.
    pub fn serial() -> Self {
        Self
    }
}

/// The outcome of [`explore`]. Kept only because the benchmark's layer
/// ladder (`benchmark/src/layers.rs`) reads `candidates` from it.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// What [`candidates`] returns.
    pub candidates: Vec<Candidate>,
}

/// [`candidates`] under the signature the benchmark's layer ladder
/// (`benchmark/src/layers.rs`) times as `core.explore_synth_ms`; kept
/// only for it.
///
/// # Panics
///
/// Panics if more than 12 libraries have a hardening suggestion.
pub fn explore(
    base: &ImageConfig,
    backends: &[BackendChoice],
    profile: &CallProfile,
    costs: &CostTable,
    _opts: &ExploreOptions,
) -> Exploration {
    Exploration {
        candidates: candidates(base, backends, profile, costs),
    }
}

/// Objective A: the most secure candidate whose predicted cost fits in
/// `budget_cycles` (ties broken by speed). `None` if nothing fits.
pub fn max_security_within_budget(
    mut cands: Vec<Candidate>,
    budget_cycles: u64,
) -> Option<Candidate> {
    cands.retain(|c| c.cycles <= budget_cycles);
    cands.into_iter().max_by(|a, b| {
        // Higher security wins; on ties, fewer cycles wins (so `a` with
        // fewer cycles must compare greater).
        a.security
            .partial_cmp(&b.security)
            .expect("scores are finite")
            .then(b.cycles.cmp(&a.cycles))
    })
}

/// Objective B: the fastest candidate with `security >= floor`.
pub fn fastest_meeting_security(mut cands: Vec<Candidate>, floor: f64) -> Option<Candidate> {
    cands.retain(|c| c.security >= floor);
    cands.into_iter().min_by_key(|c| c.cycles)
}

/// The Pareto frontier over (cycles ↓, security ↑), sorted by cycles.
pub fn pareto_frontier(mut cands: Vec<Candidate>) -> Vec<Candidate> {
    cands.sort_by_key(|c| c.cycles);
    let mut out: Vec<Candidate> = Vec::new();
    let mut best_security = f64::NEG_INFINITY;
    for c in cands {
        if c.security > best_security {
            best_security = c.security;
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{plan, LibRole, LibraryConfig};
    use crate::spec::transform::Analysis;

    fn base_config() -> ImageConfig {
        let sched = LibraryConfig::new(LibSpec::verified_scheduler(), LibRole::Scheduler);
        let net = LibraryConfig::new(LibSpec::unsafe_c("netstack"), LibRole::NetStack)
            .with_analysis(Analysis::well_behaved());
        ImageConfig::new("explore", BackendChoice::None)
            .with_library(sched)
            .with_library(net)
    }

    fn profile() -> CallProfile {
        CallProfile::default()
            .with_calls("netstack", "uksched_verified", 4)
            .with_work("netstack", 2000)
            .with_work("uksched_verified", 400)
    }

    #[test]
    fn isolation_costs_more_than_colocation() {
        let costs = CostTable::default();
        let mut none = base_config();
        none.backend = BackendChoice::None;
        let p_none = plan(none).unwrap();
        let mut mpk = base_config();
        mpk.backend = BackendChoice::MpkShared;
        let p_mpk = plan(mpk).unwrap();
        let c_none = estimate_request_cycles(&p_none, &profile(), &costs);
        let c_mpk = estimate_request_cycles(&p_mpk, &profile(), &costs);
        assert!(c_mpk > c_none);
    }

    #[test]
    fn vm_rpc_is_the_most_expensive_backend() {
        let costs = CostTable::default();
        let cycles: Vec<u64> = [
            BackendChoice::MpkShared,
            BackendChoice::MpkSwitched,
            BackendChoice::VmRpc,
        ]
        .iter()
        .map(|&b| {
            let mut cfg = base_config();
            cfg.backend = b;
            estimate_request_cycles(&plan(cfg).unwrap(), &profile(), &costs)
        })
        .collect();
        assert!(cycles[0] < cycles[1]);
        assert!(cycles[1] < cycles[2]);
    }

    #[test]
    fn sh_multiplies_base_work() {
        let costs = CostTable::default();
        let mut cfg = base_config();
        cfg.libraries[1].sh = suggest_sh(&cfg.libraries[1].spec);
        let hardened = estimate_request_cycles(&plan(cfg).unwrap(), &profile(), &costs);
        let plainc = estimate_request_cycles(&plan(base_config()).unwrap(), &profile(), &costs);
        assert!(hardened > plainc);
    }

    #[test]
    fn security_score_rises_with_isolation() {
        let p_none = plan(base_config()).unwrap();
        let mut mpk = base_config();
        mpk.backend = BackendChoice::MpkShared;
        let p_mpk = plan(mpk).unwrap();
        assert!(security_score(&p_none) < security_score(&p_mpk));
        assert!((security_score(&p_mpk) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hardening_mitigates_without_isolation() {
        let mut cfg = base_config();
        cfg.libraries[1].sh = suggest_sh(&cfg.libraries[1].spec);
        let p = plan(cfg).unwrap();
        // netstack hardened => its threats to the scheduler are mitigated.
        assert!(security_score(&p) > security_score(&plan(base_config()).unwrap()));
    }

    #[test]
    fn candidate_space_covers_backends_and_sh_toggles() {
        let costs = CostTable::default();
        let cands = candidates(
            &base_config(),
            &[BackendChoice::None, BackendChoice::MpkShared],
            &profile(),
            &costs,
        );
        // 2 backends × 2 SH-toggles (netstack only) = 4.
        assert_eq!(cands.len(), 4);
    }

    #[test]
    fn objective_a_maximizes_security_under_budget() {
        let costs = CostTable::default();
        let cands = candidates(
            &base_config(),
            &[
                BackendChoice::None,
                BackendChoice::MpkShared,
                BackendChoice::VmRpc,
            ],
            &profile(),
            &costs,
        );
        let generous = max_security_within_budget(cands.clone(), u64::MAX).unwrap();
        assert!((generous.security - 1.0).abs() < 1e-9);
        // A tiny budget admits only the cheapest (insecure) baseline.
        let cheapest = cands.iter().map(|c| c.cycles).min().unwrap();
        let tight = max_security_within_budget(cands.clone(), cheapest).unwrap();
        assert_eq!(tight.cycles, cheapest);
        assert!(max_security_within_budget(cands, 0).is_none());
    }

    #[test]
    fn objective_b_finds_fastest_compliant() {
        let costs = CostTable::default();
        let cands = candidates(
            &base_config(),
            &[
                BackendChoice::None,
                BackendChoice::MpkShared,
                BackendChoice::MpkSwitched,
            ],
            &profile(),
            &costs,
        );
        let best = fastest_meeting_security(cands.clone(), 1.0).unwrap();
        assert!((best.security - 1.0).abs() < 1e-9);
        // Every other fully secure candidate is at least as slow.
        for c in &cands {
            if (c.security - 1.0).abs() < 1e-9 {
                assert!(best.cycles <= c.cycles);
            }
        }
    }

    #[test]
    fn pareto_frontier_is_monotone() {
        let costs = CostTable::default();
        let cands = candidates(
            &base_config(),
            &[
                BackendChoice::None,
                BackendChoice::MpkShared,
                BackendChoice::VmRpc,
            ],
            &profile(),
            &costs,
        );
        let front = pareto_frontier(cands);
        assert!(!front.is_empty());
        for w in front.windows(2) {
            assert!(w[0].cycles <= w[1].cycles);
            assert!(w[0].security < w[1].security);
        }
    }
}
