//! The explorer and the deployment enumeration against references
//! rebuilt from the public single-image API.
//!
//! Both walk a design space through one dense verdict table: every check
//! between variants of two libraries runs once, and each SH mask's graph
//! and hardening verdicts are read from the table. The references re-run
//! every check per candidate (`plan` + `estimate_request_cycles` +
//! `security_score`) or per combination (`IncompatGraph::build` +
//! `color`), so any slip in the table's indexing, in which specs it is
//! built over, or in what a mask shares with its candidates shows up as a
//! differing candidate or deployment.

use flexos::build::{plan, BackendChoice, ImageConfig, LibRole, LibraryConfig};
use flexos::compat::{
    color, enumerate_deployments, incompatibilities, Deployment, Graph, IncompatGraph,
};
use flexos::explore::{
    candidates, estimate_request_cycles, explore, security_score, CallProfile, Candidate,
    ExploreOptions,
};
use flexos::spec::{suggest_sh, variants_for, Analysis, LibSpec, ShMechanism, ShSet};
use flexos::synth::synthetic_image;
use flexos_machine::CostTable;
use proptest::prelude::*;

/// A canonical byte rendering of a candidate list, covering every field
/// that downstream consumers can observe. Two explorations are
/// considered identical exactly when these renderings are equal.
fn fingerprint(cands: &[Candidate]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for c in cands {
        let p = &c.plan;
        let _ = writeln!(
            out,
            "{}|{}|{:016x}|{:?}|{}|{:?}|{:?}|{:?}|{}|{:?}",
            c.label,
            c.cycles,
            c.security.to_bits(),
            p.compartment_of,
            p.num_compartments,
            p.compartment_names,
            p.compartment_sh,
            p.report.warnings,
            p.config.dedicated_allocators,
            p.config
                .libraries
                .iter()
                .map(|l| (&l.spec.name, &l.sh))
                .collect::<Vec<_>>(),
        );
    }
    out
}

/// The explorer rebuilt from the single-image API: a nested loop in which
/// every candidate plans, costs and scores itself anew.
fn reference_walk(
    base: &ImageConfig,
    backends: &[BackendChoice],
    profile: &CallProfile,
    costs: &CostTable,
) -> Vec<Candidate> {
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
    for &backend in backends {
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
            let Ok(plan) = plan(cfg) else { continue };
            let label = if hardened.is_empty() {
                format!("{backend}")
            } else {
                format!("{backend} + SH({})", hardened.join(","))
            };
            out.push(Candidate {
                cycles: estimate_request_cycles(&plan, profile, costs),
                security: security_score(&plan),
                plan,
                label,
            });
        }
    }
    out
}

/// Explores through `explore`, the entry point the benchmark times (it
/// returns what `candidates` does), and checks it against the reference.
fn explored(base: &ImageConfig, backends: &[BackendChoice], profile: &CallProfile) -> String {
    let costs = CostTable::default();
    let got = explore(base, backends, profile, &costs, &ExploreOptions::serial()).candidates;
    let want = reference_walk(base, backends, profile, &costs);
    assert_eq!(fingerprint(&got), fingerprint(&want));
    fingerprint(&got)
}

#[test]
fn explore_equals_the_reference_walk_on_synthetic_images() {
    for (n_libs, toggleable, seed) in [(12, 6, 1), (16, 5, 42), (9, 3, 7), (20, 4, 3), (6, 0, 9)] {
        let img = synthetic_image(n_libs, toggleable, seed);
        let got = explored(&img.config, &BackendChoice::ALL, &img.profile);
        // Every backend x mask of these images plans.
        assert_eq!(got.lines().count(), BackendChoice::ALL.len() << toggleable);
    }
}

#[test]
fn explore_drops_what_mpk_cannot_key_like_the_reference() {
    // Fifteen verified libraries pinned one per compartment leave MPK and
    // CHERI no room: a plain unsafe library needs a sixteenth
    // compartment, a hardened one folds into compartment 0. Only the
    // mask that hardens both unsafe libraries plans under them.
    let mut img = synthetic_image(17, 2, 5);
    let pinned = img
        .config
        .libraries
        .iter_mut()
        .filter(|l| suggest_sh(&l.spec).is_empty());
    for (c, lib) in pinned.enumerate() {
        lib.compartment = Some(c);
    }
    let got = explored(&img.config, &BackendChoice::ALL, &img.profile);
    // None and VM-RPC keep all 4 masks; MPK (x2) and CHERI keep 1 each.
    assert_eq!(got.lines().count(), 2 * 4 + 3);
}

#[test]
fn explore_judges_threats_on_declared_specs_when_the_base_hardens() {
    // The base already hardens three unsafe libraries: one fully (its
    // threats are mitigated by hardening in every candidate), one with
    // ASAN alone (its variant 0 is a rewritten spec that still calls
    // anywhere), one with a mechanism that rewrites nothing. Threats
    // stay those of the declared specs.
    let mut img = synthetic_image(12, 6, 11);
    let unsafe_libs: Vec<usize> = (0..img.config.libraries.len())
        .filter(|&i| !suggest_sh(&img.config.libraries[i].spec).is_empty())
        .collect();
    let libs = &mut img.config.libraries;
    libs[unsafe_libs[0]].sh = suggest_sh(&libs[unsafe_libs[0]].spec);
    libs[unsafe_libs[1]].sh = ShSet::of([ShMechanism::Asan]);
    libs[unsafe_libs[2]].sh = ShSet::of([ShMechanism::StackProtector]);
    explored(&img.config, &BackendChoice::ALL, &img.profile);
}

#[test]
fn explore_of_a_hand_built_image_with_roles_and_manual_placement() {
    // Roles feed MPK's trust warnings, a pinned library feeds the fold
    // into manual compartments, and an untrusted scheduler is toggleable.
    let base = ImageConfig::new("roles", BackendChoice::None)
        .with_library(LibraryConfig::new(
            LibSpec::unsafe_c("csched"),
            LibRole::Scheduler,
        ))
        .with_library(
            LibraryConfig::new(LibSpec::unsafe_c("lwip"), LibRole::NetStack)
                .with_analysis(Analysis::well_behaved()),
        )
        .with_library(
            LibraryConfig::new(LibSpec::verified_scheduler(), LibRole::Other).in_compartment(1),
        )
        .with_library(
            LibraryConfig::new(LibSpec::unsafe_c("app"), LibRole::App)
                .with_analysis(Analysis::well_behaved()),
        );
    let profile = CallProfile::default()
        .with_calls("app", "lwip", 2)
        .with_calls("lwip", "csched", 4)
        .with_work("lwip", 2500);
    explored(&base, &BackendChoice::ALL, &profile);
}

#[test]
fn an_image_the_graph_cannot_hold_explores_to_nothing() {
    // 65 libraries: `plan` refuses every combination, so the explorer
    // keeps none, and neither panics.
    let img = synthetic_image(65, 2, 1);
    assert!(explored(&img.config, &BackendChoice::ALL, &img.profile).is_empty());
}

#[test]
#[should_panic(expected = "SH toggle space too large")]
fn explore_refuses_more_than_twelve_toggles() {
    let mut base = ImageConfig::new("wide", BackendChoice::None);
    for i in 0..13 {
        base = base.with_library(LibraryConfig::new(
            LibSpec::unsafe_c(format!("u{i}")),
            LibRole::Other,
        ));
    }
    candidates(
        &base,
        &BackendChoice::ALL,
        &CallProfile::default(),
        &CostTable::default(),
    );
}

// ---- deployment enumeration -------------------------------------------------

/// The enumeration rebuilt per combination: odometer order (library 0
/// fastest), a fresh graph and coloring each, then the stable
/// cheapest-first sort.
fn reference_deployments(libs: &[(LibSpec, Analysis)]) -> Vec<Deployment> {
    let per_lib: Vec<_> = libs.iter().map(|(s, a)| variants_for(s, a)).collect();
    let combos: usize = per_lib.iter().map(Vec::len).product();
    if libs.is_empty() {
        return Vec::new();
    }
    let mut out: Vec<Deployment> = (0..combos)
        .map(|k| {
            let mut rem = k;
            let variants: Vec<_> = per_lib
                .iter()
                .map(|vs| {
                    let v = vs[rem % vs.len()].clone();
                    rem /= vs.len();
                    v
                })
                .collect();
            let specs: Vec<LibSpec> = variants.iter().map(|v| v.spec.clone()).collect();
            let graph = IncompatGraph::build(&specs);
            let coloring = color(&graph.graph);
            Deployment {
                variants,
                graph,
                coloring,
            }
        })
        .collect();
    out.sort_by_key(|d| (d.num_compartments(), d.hardened_count()));
    out
}

fn assert_same_deployments(libs: &[(LibSpec, Analysis)]) {
    let got = enumerate_deployments(libs);
    let want = reference_deployments(libs);
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g.variants, w.variants);
        assert_eq!(g.graph.names, w.graph.names);
        assert_eq!(g.graph.graph, w.graph.graph);
        assert_eq!(g.graph.reasons, w.graph.reasons);
        assert_eq!(g.coloring, w.coloring);
    }
}

fn renamed(mut spec: LibSpec, name: String) -> LibSpec {
    spec.name = name;
    spec
}

#[test]
fn enumerate_deployments_equals_the_per_combination_reference() {
    let alternating: Vec<(LibSpec, Analysis)> = (0..6)
        .map(|i| {
            if i % 2 == 0 {
                (
                    LibSpec::unsafe_c(format!("raw{i}")),
                    Analysis::well_behaved(),
                )
            } else {
                (
                    renamed(LibSpec::verified_scheduler(), format!("safe{i}")),
                    Analysis::default(),
                )
            }
        })
        .collect();
    assert_same_deployments(&alternating);

    // The paper's pair, whose call targets name the scheduler, plus an
    // unsafe library with no analysis (ASAN alone rewrites it) and one
    // whose call targets include a function the scheduler does not grant.
    let yield_only = Analysis {
        call_targets: Some(
            [flexos::spec::model::FuncRef::new(
                "uksched_verified",
                "yield",
            )]
            .into(),
        ),
        ..Analysis::well_behaved()
    };
    let internal = Analysis {
        call_targets: Some(
            [flexos::spec::model::FuncRef::new(
                "uksched_verified",
                "internal_requeue",
            )]
            .into(),
        ),
        ..Analysis::well_behaved()
    };
    assert_same_deployments(&[
        (LibSpec::verified_scheduler(), Analysis::default()),
        (LibSpec::unsafe_c("rawlib"), yield_only),
        (LibSpec::unsafe_c("bare"), Analysis::default()),
        (LibSpec::unsafe_c("caller"), internal),
        (
            renamed(LibSpec::verified_scheduler(), "uklock".into()),
            Analysis::default(),
        ),
    ]);
    assert_same_deployments(&[]);
}

/// The graph of `specs` with no table: one `incompatibilities` call per
/// unordered pair.
fn uncached_graph(specs: &[LibSpec]) -> IncompatGraph {
    let mut graph = Graph::new(specs.len());
    let mut reasons = std::collections::BTreeMap::new();
    for i in 0..specs.len() {
        for j in i + 1..specs.len() {
            let v = incompatibilities(&specs[i], &specs[j]);
            if !v.is_empty() {
                graph.add_edge(i, j);
                reasons.insert((i, j), v);
            }
        }
    }
    IncompatGraph {
        names: specs.iter().map(|s| s.name.clone()).collect(),
        graph,
        reasons,
    }
}

fn arb_spec() -> impl Strategy<Value = LibSpec> {
    // The paper's two archetypes plus renames, so pairs range from fully
    // compatible to mutually violating.
    prop_oneof![
        "[a-z]{1,6}".prop_map(LibSpec::unsafe_c),
        "[a-z]{1,6}".prop_map(|n| renamed(LibSpec::verified_scheduler(), n)),
        Just(LibSpec::verified_scheduler()),
    ]
}

proptest! {
    /// Every graph the enumeration assembles from its verdict table, and
    /// `IncompatGraph::build`, equal the graph checked pair by pair
    /// without a table, for arbitrary specs with and without a hardened
    /// variant.
    #[test]
    fn cached_graph_equals_uncached(
        libs in prop::collection::vec((arb_spec(), any::<bool>()), 2..6),
    ) {
        let libs: Vec<(LibSpec, Analysis)> = libs
            .into_iter()
            .enumerate()
            .map(|(i, (s, hardenable))| {
                let name = format!("{}{i}", s.name);
                let analysis = if hardenable {
                    Analysis::well_behaved()
                } else {
                    Analysis::default()
                };
                (renamed(s, name), analysis)
            })
            .collect();
        for d in enumerate_deployments(&libs) {
            let specs: Vec<LibSpec> = d.variants.iter().map(|v| v.spec.clone()).collect();
            let plain = uncached_graph(&specs);
            for g in [&d.graph, &IncompatGraph::build(&specs)] {
                prop_assert_eq!(&g.names, &plain.names);
                prop_assert_eq!(&g.graph, &plain.graph);
                prop_assert_eq!(&g.reasons, &plain.reasons);
            }
        }
    }
}
