//! Integration tests for the parallel, memoized exploration engine:
//! parallel and serial runs must be byte-identical, the compatibility
//! cache must never change a verdict, and thread counts {1, 2, 8} must
//! all agree.

use flexos::build::{plan, BackendChoice, ImageConfig};
use flexos::compat::{
    enumerate_deployments, enumerate_deployments_with, violations, CompatCache, IncompatGraph,
};
use flexos::explore::{
    estimate_request_cycles, explore, security_score, CallProfile, Candidate, ExploreOptions,
};
use flexos::spec::{suggest_sh, Analysis, LibSpec};
use flexos::synth::synthetic_image;
use flexos_machine::CostTable;
use proptest::prelude::*;

const BACKENDS: &[BackendChoice] = &[
    BackendChoice::None,
    BackendChoice::MpkShared,
    BackendChoice::MpkSwitched,
    BackendChoice::VmRpc,
    BackendChoice::Cheri,
];

/// A canonical byte rendering of a candidate list, covering every field
/// that downstream consumers can observe. Two explorations are
/// considered identical exactly when these renderings are equal.
fn fingerprint(cands: &[Candidate]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for c in cands {
        let _ = writeln!(
            out,
            "{}|{}|{:016x}|{:?}|{}|{:?}|{:?}",
            c.label,
            c.cycles,
            c.security.to_bits(),
            c.plan.compartment_of,
            c.plan.num_compartments,
            c.plan.compartment_names,
            c.plan.report.warnings,
        );
    }
    out
}

/// The exploration engine before memoization, rebuilt from the public
/// API as the reference: a serial nested loop in which every candidate
/// re-runs every pairwise compatibility check from scratch (`plan` +
/// `security_score`, no shared cache). Label, cycles and security bits
/// per candidate, in enumeration order.
fn uncached_serial(
    base: &ImageConfig,
    profile: &CallProfile,
    costs: &CostTable,
) -> Vec<(String, u64, u64)> {
    let suggestions: Vec<_> = base
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
    let mut out = Vec::new();
    for &backend in BACKENDS {
        for mask in 0..(1u32 << toggleable.len()) {
            let mut cfg = base.clone();
            cfg.backend = backend;
            let mut hardened = Vec::new();
            for (bit, &i) in toggleable.iter().enumerate() {
                if mask & (1 << bit) != 0 {
                    cfg.libraries[i].sh = suggestions[i].clone().expect("toggleable");
                    hardened.push(cfg.libraries[i].spec.name.clone());
                }
            }
            let Ok(p) = plan(cfg) else { continue };
            let cycles = estimate_request_cycles(&p, profile, costs);
            let security = security_score(&p).to_bits();
            let label = if hardened.is_empty() {
                format!("{backend}")
            } else {
                format!("{backend} + SH({})", hardened.join(","))
            };
            out.push((label, cycles, security));
        }
    }
    out
}

#[test]
fn parallel_exploration_is_byte_identical_across_thread_counts() {
    let img = synthetic_image(16, 5, 42);
    let costs = CostTable::default();
    let serial = explore(
        &img.config,
        BACKENDS,
        &img.profile,
        &costs,
        &ExploreOptions::serial(),
    );
    // 5 backends x 2^5 masks, every combination plans.
    assert_eq!(serial.candidates.len(), 5 * 32);
    // The cache never changes a visible result: the uncached walk
    // yields the same candidates in the same order.
    let visible: Vec<_> = serial
        .candidates
        .iter()
        .map(|c| (c.label.clone(), c.cycles, c.security.to_bits()))
        .collect();
    assert_eq!(uncached_serial(&img.config, &img.profile, &costs), visible);
    let want = fingerprint(&serial.candidates);
    for threads in [2, 8, 0] {
        let par = explore(
            &img.config,
            BACKENDS,
            &img.profile,
            &costs,
            &ExploreOptions::default().with_threads(threads),
        );
        assert_eq!(
            fingerprint(&par.candidates),
            want,
            "threads={threads} diverged"
        );
        // The shared cache absorbs almost all re-checks across the run.
        assert!(
            par.cache_stats.hit_rate() > 0.9,
            "threads={threads}: {:?}",
            par.cache_stats
        );
    }
}

#[test]
fn exploration_objectives_agree_across_thread_counts() {
    let img = synthetic_image(16, 4, 7);
    let costs = CostTable::default();
    let serial = explore(
        &img.config,
        BACKENDS,
        &img.profile,
        &costs,
        &ExploreOptions::serial(),
    );
    let par = explore(
        &img.config,
        BACKENDS,
        &img.profile,
        &costs,
        &ExploreOptions::auto(),
    );
    let budget =
        serial.candidates.iter().map(|c| c.cycles).sum::<u64>() / serial.candidates.len() as u64;
    for (a, b) in [
        (
            serial.max_security_within_budget(budget),
            par.max_security_within_budget(budget),
        ),
        (
            serial.fastest_meeting_security(0.9),
            par.fastest_meeting_security(0.9),
        ),
    ] {
        let (a, b) = (a.unwrap(), b.unwrap());
        assert_eq!(a.label, b.label);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.security.to_bits(), b.security.to_bits());
    }
    assert_eq!(
        fingerprint(&serial.pareto_frontier()),
        fingerprint(&par.pareto_frontier())
    );
}

#[test]
fn deployment_enumeration_matches_serial_for_all_thread_counts() {
    let libs: Vec<(LibSpec, Analysis)> = (0..6)
        .map(|i| {
            if i % 2 == 0 {
                (
                    LibSpec::unsafe_c(format!("raw{i}")),
                    Analysis::well_behaved(),
                )
            } else {
                let mut s = LibSpec::verified_scheduler();
                s.name = format!("safe{i}");
                (s, Analysis::default())
            }
        })
        .collect();
    let serial = enumerate_deployments(&libs);
    let render = |ds: &[flexos::compat::Deployment]| {
        ds.iter()
            .map(|d| {
                format!(
                    "{:?}|{}|{:?}",
                    d.variants
                        .iter()
                        .map(|v| (&v.spec.name, format!("{}", v.sh)))
                        .collect::<Vec<_>>(),
                    d.num_compartments(),
                    d.coloring.colors,
                )
            })
            .collect::<Vec<_>>()
    };
    for threads in [1, 2, 8] {
        let cache = CompatCache::new();
        let par = enumerate_deployments_with(
            &libs,
            &cache,
            &ExploreOptions::default().with_threads(threads),
        );
        assert_eq!(render(&par), render(&serial), "threads={threads}");
        assert!(cache.stats().entries > 0);
    }
}

// ---- cache correctness under proptest --------------------------------------

fn arb_spec() -> impl Strategy<Value = LibSpec> {
    // A compact spec space that still exercises every check dimension:
    // the paper's two archetypes plus renames, so pairs range from fully
    // compatible to mutually violating.
    prop_oneof![
        "[a-z]{1,6}".prop_map(LibSpec::unsafe_c),
        "[a-z]{1,6}".prop_map(|n| {
            let mut s = LibSpec::verified_scheduler();
            s.name = n;
            s
        }),
        Just(LibSpec::verified_scheduler()),
    ]
}

proptest! {
    /// For arbitrary spec pairs, the memoized verdicts — first and
    /// repeat lookups — equal a fresh uncached check.
    #[test]
    fn cache_never_changes_a_verdict(a in arb_spec(), b in arb_spec()) {
        let cache = CompatCache::new();
        for _ in 0..2 {
            prop_assert_eq!(&*cache.violations(&a, &b), &violations(&a, &b));
            prop_assert_eq!(&*cache.violations(&b, &a), &violations(&b, &a));
            prop_assert_eq!(
                cache.compatible(&a, &b),
                flexos::compat::compatible(&a, &b)
            );
        }
        let stats = cache.stats();
        prop_assert!(stats.hits >= stats.misses);
    }

    /// Cached graph construction equals uncached construction for
    /// arbitrary spec sets, warm or cold.
    #[test]
    fn cached_graph_equals_uncached(specs in prop::collection::vec(arb_spec(), 2..6)) {
        let mut specs = specs;
        for (i, s) in specs.iter_mut().enumerate() {
            s.name = format!("{}{i}", s.name);
        }
        let cache = CompatCache::new();
        let plain = IncompatGraph::build(&specs);
        for pass in 0..2 {
            let cached = IncompatGraph::build_cached(&specs, &cache);
            prop_assert_eq!(&cached.names, &plain.names, "pass {}", pass);
            prop_assert_eq!(&cached.graph, &plain.graph, "pass {}", pass);
            prop_assert_eq!(&cached.reasons, &plain.reasons, "pass {}", pass);
        }
    }
}
