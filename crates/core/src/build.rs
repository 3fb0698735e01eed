//! The FlexOS build system: from an image configuration to a validated
//! compartmentalization plan.
//!
//! "FlexOS's build system extends Unikraft's to allow specifying how many
//! compartments the resulting image should have, how they should be
//! isolated, and whether SH techniques should be applied to one or
//! multiple of these." (paper §2)
//!
//! [`plan`] consumes an [`ImageConfig`] (libraries + specs + requested
//! hardening + manual or automatic placement + isolation backend) and
//! produces an [`ImagePlan`]: the compartment assignment, per-compartment
//! hardening, and a validation report enforcing the paper's backend
//! constraints (MPK key budget, MPK's scheduler/MM trust requirement, the
//! VM backend's per-compartment allocator/scheduler requirement, …).
//! Isolation backends then *instantiate* the plan on a simulated machine
//! (see the `flexos-backends` crate).

use crate::compat::{color, violations, Graph, IncompatGraph};
use crate::spec::model::LibSpec;
use crate::spec::transform::{apply_sh, Analysis, ShSet};
use flexos_trace::Label;
use std::fmt;
use std::rc::Rc;

/// The isolation backend an image is built against, and the mechanism
/// its gates implement (Figure 2's gate library).
///
/// This is the one backend type: every per-backend fact is a method of
/// the `impl` below. A new variant is listed in [`BackendChoice::ALL`]
/// and handled there, where the backends crate wires and boots it, and
/// in the explorer's cost model, [`crate::explore::gate_cost`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendChoice {
    /// No isolation: every compartment boundary is a function call
    /// (the paper's baseline configurations).
    None,
    /// Intel MPK, shared stacks (ERIM-like).
    MpkShared,
    /// Intel MPK, per-compartment switched stacks (Hodor-like).
    MpkSwitched,
    /// One VM per compartment, RPC over inter-VM notifications.
    VmRpc,
    /// CHERI capabilities: per-compartment capability reach, sealed
    /// capabilities as gates (CompartOS-style; the paper's other
    /// heterogeneous-hardware example).
    Cheri,
}

impl BackendChoice {
    /// Every backend, in declaration order.
    pub const ALL: [BackendChoice; 5] = [
        BackendChoice::None,
        BackendChoice::MpkShared,
        BackendChoice::MpkSwitched,
        BackendChoice::VmRpc,
        BackendChoice::Cheri,
    ];

    /// Human-readable name as used in the paper's figures.
    pub fn label(self) -> &'static str {
        self.span_label().as_str()
    }

    /// The label a crossing through this backend is recorded with.
    pub fn span_label(self) -> Label {
        match self {
            BackendChoice::None => Label::FunctionCall,
            BackendChoice::MpkShared => Label::MpkShared,
            BackendChoice::MpkSwitched => Label::MpkSwitched,
            BackendChoice::VmRpc => Label::VmRpc,
            BackendChoice::Cheri => Label::Cheri,
        }
    }

    /// Short machine-readable name: the `backend` key of the latency
    /// rows, the `--migrate` tables and `--migrate-at`'s argument.
    pub fn tag(self) -> &'static str {
        match self {
            BackendChoice::None => "direct",
            BackendChoice::MpkShared => "mpk-shared",
            BackendChoice::MpkSwitched => "mpk-switched",
            BackendChoice::VmRpc => "vmrpc",
            BackendChoice::Cheri => "cheri",
        }
    }

    /// The backend whose [`BackendChoice::tag`] is `tag`.
    pub fn from_tag(tag: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|b| b.tag() == tag)
    }

    /// Whether this backend provides an actual protection-domain switch.
    pub fn isolates(self) -> bool {
        self != BackendChoice::None
    }

    /// Where thread stacks live under this backend: `true` if stacks sit
    /// in a domain shared by all compartments (the shared-stack gate), in
    /// which case stack memory cannot be assumed private.
    pub fn stacks_shared(self) -> bool {
        match self {
            BackendChoice::None | BackendChoice::MpkShared => true,
            BackendChoice::MpkSwitched | BackendChoice::VmRpc | BackendChoice::Cheri => false,
        }
    }

    /// Position on the isolation-strength ladder the migration policy
    /// climbs: function call (0) → MPK shared stack → MPK switched
    /// stack → CHERI → VM RPC (4). A live migration to a higher rank
    /// escalates isolation; to a lower rank relaxes it.
    pub fn isolation_rank(self) -> u8 {
        match self {
            BackendChoice::None => 0,
            BackendChoice::MpkShared => 1,
            BackendChoice::MpkSwitched => 2,
            BackendChoice::Cheri => 3,
            BackendChoice::VmRpc => 4,
        }
    }

    /// Whether the backend enforces through per-page protection keys and
    /// PKRU views. The CHERI model rides the same tag machinery: a
    /// compartment's PKRU-visible set is the memory its capabilities span.
    pub fn uses_pkeys(self) -> bool {
        match self {
            BackendChoice::MpkShared | BackendChoice::MpkSwitched | BackendChoice::Cheri => true,
            BackendChoice::None | BackendChoice::VmRpc => false,
        }
    }
}

impl fmt::Display for BackendChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The hypervisor the image runs on (affects baseline per-packet costs;
/// the paper's Xen numbers are lower because "Unikraft [is] not optimized
/// for this hypervisor").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Hypervisor {
    /// KVM (the paper's primary platform).
    #[default]
    Kvm,
    /// Xen (used for the VM/EPT backend in the paper).
    Xen,
}

/// Functional role of a micro-library inside the unikernel, used for
/// backend trust checks and kernel wiring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LibRole {
    /// The application itself (iperf, Redis, …).
    App,
    /// The network stack.
    NetStack,
    /// The scheduler micro-library.
    Scheduler,
    /// The memory manager / allocator micro-library.
    MemoryManager,
    /// The standard C library (semaphores live here — §4's Redis finding).
    LibC,
    /// Device drivers (virtio-net, …).
    Driver,
    /// Anything else.
    Other,
}

/// One library's build configuration.
#[derive(Debug, Clone)]
pub struct LibraryConfig {
    /// The library's safety metadata, shared: cloning a configuration or
    /// planning it copies no spec.
    pub spec: Rc<LibSpec>,
    /// Static-analysis results available for SH transformations.
    pub analysis: Analysis,
    /// Hardening requested for this library.
    pub sh: ShSet,
    /// Manual compartment placement (`None` = derive automatically).
    pub compartment: Option<usize>,
    /// Functional role.
    pub role: LibRole,
}

impl LibraryConfig {
    /// A library with no hardening and automatic placement.
    pub fn new(spec: impl Into<Rc<LibSpec>>, role: LibRole) -> Self {
        Self {
            spec: spec.into(),
            analysis: Analysis::default(),
            sh: ShSet::none(),
            compartment: None,
            role,
        }
    }

    /// Sets the hardening set.
    #[must_use]
    pub fn with_sh(mut self, sh: ShSet) -> Self {
        self.sh = sh;
        self
    }

    /// Pins the library into compartment `c`.
    #[must_use]
    pub fn in_compartment(mut self, c: usize) -> Self {
        self.compartment = Some(c);
        self
    }

    /// Attaches analysis results.
    #[must_use]
    pub fn with_analysis(mut self, analysis: Analysis) -> Self {
        self.analysis = analysis;
        self
    }

    /// The spec as seen by the compatibility analysis: the declared spec
    /// rewritten by the requested hardening. Without hardening that is
    /// the declared spec itself, shared, not a copy.
    pub fn effective_spec(&self) -> Rc<LibSpec> {
        if self.sh.is_empty() {
            Rc::clone(&self.spec)
        } else {
            Rc::new(apply_sh(&self.spec, &self.sh, &self.analysis))
        }
    }
}

/// A complete image configuration.
#[derive(Debug, Clone)]
pub struct ImageConfig {
    /// Image name (used in reports).
    pub name: String,
    /// The micro-libraries composing the image.
    pub libraries: Vec<LibraryConfig>,
    /// The isolation backend.
    pub backend: BackendChoice,
    /// The hypervisor underneath.
    pub hypervisor: Hypervisor,
    /// Use a dedicated memory allocator per compartment ("FlexOS can be
    /// configured to use separate memory allocators per compartment to
    /// avoid such overheads when only a subset of compartments are
    /// hardened", §3). [`plan`] forces it on for the VM backend and for
    /// any isolating backend with more than one compartment; the boot
    /// reads only this flag.
    pub dedicated_allocators: bool,
}

impl ImageConfig {
    /// Starts a configuration with no libraries.
    pub fn new(name: impl Into<String>, backend: BackendChoice) -> Self {
        Self {
            name: name.into(),
            libraries: Vec::new(),
            backend,
            hypervisor: Hypervisor::default(),
            dedicated_allocators: false,
        }
    }

    /// Adds a library.
    #[must_use]
    pub fn with_library(mut self, lib: LibraryConfig) -> Self {
        self.libraries.push(lib);
        self
    }

    /// Selects the hypervisor.
    #[must_use]
    pub fn on(mut self, hv: Hypervisor) -> Self {
        self.hypervisor = hv;
        self
    }

    /// Index of the first library with `role`, if any.
    pub fn find_role(&self, role: LibRole) -> Option<usize> {
        self.libraries.iter().position(|l| l.role == role)
    }
}

/// A build-stopping configuration error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildError(pub String);

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "image build error: {}", self.0)
    }
}

impl std::error::Error for BuildError {}

/// Validation findings that do not stop the build.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ValidationReport {
    /// Security-relevant observations the user should review.
    pub warnings: Vec<String>,
}

/// A validated compartmentalization plan, ready for backend
/// instantiation.
#[derive(Debug, Clone)]
pub struct ImagePlan {
    /// The originating configuration.
    pub config: ImageConfig,
    /// Compartment index per library (aligned with `config.libraries`).
    pub compartment_of: Vec<usize>,
    /// Number of compartments.
    pub num_compartments: usize,
    /// Human-readable compartment names (joined member names).
    pub compartment_names: Vec<String>,
    /// Per-compartment hardening: the union of member libraries'
    /// requested SH ("each compartment can be individually hardened by
    /// using SH without code changes", §2).
    pub compartment_sh: Vec<ShSet>,
    /// Non-fatal findings.
    pub report: ValidationReport,
}

impl ImagePlan {
    /// Compartment of the first library with `role`.
    pub fn compartment_of_role(&self, role: LibRole) -> Option<usize> {
        self.config.find_role(role).map(|i| self.compartment_of[i])
    }
}

/// Maximum compartments the MPK backends support: 16 hardware keys minus
/// key 0, which FlexOS reserves for the shared domain.
pub const MPK_MAX_COMPARTMENTS: usize = 15;

/// Derives and validates the compartmentalization plan for `config`.
///
/// Placement: libraries with a manual `compartment` keep it; the rest are
/// placed automatically by coloring the incompatibility graph of their
/// *effective* (SH-rewritten) specs, using colors disjoint from the
/// manual ones. With `BackendChoice::None`, everything collapses into a
/// single compartment (there is no protection domain to split over) and
/// incompatibilities surface as warnings. An image of no library, or of
/// more than [`Graph::MAX_VERTICES`] (the graph's bound), is an error.
pub fn plan(config: ImageConfig) -> Result<ImagePlan, BuildError> {
    admit(config.libraries.len())?;
    let effective: Vec<Rc<LibSpec>> = config
        .libraries
        .iter()
        .map(LibraryConfig::effective_spec)
        .collect();
    let graph = IncompatGraph::build(effective.iter().map(Rc::as_ref));
    place(config, &graph, &effective)
}

/// Whether an image of `n` libraries can be planned at all.
pub(crate) fn admit(n: usize) -> Result<(), BuildError> {
    if n == 0 {
        return Err(BuildError("an image needs at least one library".into()));
    }
    if n > Graph::MAX_VERTICES {
        return Err(BuildError(format!(
            "an image of {n} libraries exceeds the {} an incompatibility graph holds",
            Graph::MAX_VERTICES
        )));
    }
    Ok(())
}

/// The placement body behind [`plan`] and the explorer: places `config`'s
/// libraries on `graph`, the incompatibility graph of their effective
/// specs `effective`, and validates the result against the backend.
pub(crate) fn place(
    config: ImageConfig,
    graph: &IncompatGraph,
    effective: &[Rc<LibSpec>],
) -> Result<ImagePlan, BuildError> {
    let n = config.libraries.len();
    let mut warnings = Vec::new();

    let mut compartment_of = vec![usize::MAX; n];

    if config.backend == BackendChoice::None {
        // No protection domains: manual placements are kept as *logical*
        // compartments (they still select allocator topology and gate
        // placeholders compile to direct calls), everything else lands in
        // compartment 0. Conflicts are reported — nothing enforces them.
        for (i, lib) in config.libraries.iter().enumerate() {
            compartment_of[i] = lib.compartment.unwrap_or(0);
        }
        for ((i, j), v) in &graph.reasons {
            warnings.push(format!(
                "no isolation: {} and {} are unprotected from each other: {}",
                graph.names[*i],
                graph.names[*j],
                v.first().map(|v| v.to_string()).unwrap_or_default()
            ));
        }
        // Compact numbering.
        let mut remap = std::collections::BTreeMap::new();
        for c in compartment_of.iter_mut() {
            let next = remap.len();
            *c = *remap.entry(*c).or_insert(next);
        }
    } else {
        // Manual placements first.
        let mut next_color = 0usize;
        for (i, lib) in config.libraries.iter().enumerate() {
            if let Some(c) = lib.compartment {
                compartment_of[i] = c;
                next_color = next_color.max(c + 1);
            }
        }
        // Validate manual placements against the incompatibility graph.
        for i in 0..n {
            #[allow(clippy::needless_range_loop)] // symmetric pair scan
            for j in i + 1..n {
                if compartment_of[i] != usize::MAX
                    && compartment_of[i] == compartment_of[j]
                    && graph.graph.has_edge(i, j)
                {
                    warnings.push(format!(
                        "manual placement co-locates incompatible {} and {}: {}",
                        graph.names[i],
                        graph.names[j],
                        graph
                            .why(i, j)
                            .and_then(|v| v.first())
                            .map(|v| v.to_string())
                            .unwrap_or_default()
                    ));
                }
            }
        }
        // Automatic placement for the rest: color the subgraph, offsetting
        // past manual colors, then merge auto colors into compatible
        // manual compartments when possible.
        let auto: Vec<usize> = (0..n)
            .filter(|&i| compartment_of[i] == usize::MAX)
            .collect();
        if !auto.is_empty() {
            let mut sub = Graph::new(auto.len());
            for (a, &i) in auto.iter().enumerate() {
                for (b, &j) in auto.iter().enumerate().take(a) {
                    if graph.graph.has_edge(i, j) {
                        sub.add_edge(a, b);
                    }
                }
            }
            let coloring = color(&sub);
            // Try to fold each auto color class into an existing manual
            // compartment if every member is compatible with every manual
            // member of that compartment.
            for class in coloring.groups() {
                let mut target: Option<usize> = None;
                'manual: for c in 0..next_color {
                    for &a in &class {
                        let i = auto[a];
                        for (j, &cpt) in compartment_of.iter().enumerate() {
                            if cpt == c && graph.graph.has_edge(i, j) {
                                continue 'manual;
                            }
                        }
                    }
                    target = Some(c);
                    break;
                }
                let c = target.unwrap_or_else(|| {
                    let c = next_color;
                    next_color += 1;
                    c
                });
                for &a in &class {
                    compartment_of[auto[a]] = c;
                }
            }
        }
        // Compact compartment numbering (manual gaps allowed in input).
        let mut remap = std::collections::BTreeMap::new();
        for c in compartment_of.iter_mut() {
            let next = remap.len();
            *c = *remap.entry(*c).or_insert(next);
        }
    }

    let num_compartments = compartment_of.iter().copied().max().unwrap_or(0) + 1;

    // Backend constraints. The CHERI simulation reuses per-page tags to
    // model capability reach, so it shares MPK's key budget (real CHERI
    // has no such limit) but not MPK's trust requirement.
    let backend = config.backend;
    if backend.uses_pkeys() && num_compartments > MPK_MAX_COMPARTMENTS {
        let who = if backend == BackendChoice::Cheri {
            "the CHERI simulation"
        } else {
            "MPK"
        };
        return Err(BuildError(format!(
            "{who} supports at most {MPK_MAX_COMPARTMENTS} compartments, plan needs \
             {num_compartments}"
        )));
    }
    if backend.uses_pkeys() && backend != BackendChoice::Cheri {
        // §3: "the scheduler and MM have to be trusted when using MPK".
        for role in [LibRole::Scheduler, LibRole::MemoryManager] {
            if let Some(i) = config.find_role(role) {
                let lib = &config.libraries[i];
                let trusted = !effective[i].mem.write.is_star();
                if !trusted {
                    warnings.push(format!(
                        "MPK backend: {} ({role:?}) is adversarial but must be trusted \
                         (holds PKRU state / page tables); verify it or enable SH",
                        lib.spec.name
                    ));
                }
            }
        }
    }

    // The heap topology the boot builds, decided here only. §3, VM RPC:
    // "each compartment needs its own memory allocator and scheduler, so
    // these have to be trusted"; any other isolating backend splits the
    // heaps once there is more than one compartment to isolate.
    let mut config = config;
    config.dedicated_allocators |=
        backend == BackendChoice::VmRpc || (backend.isolates() && num_compartments > 1);

    let mut compartment_names = vec![String::new(); num_compartments];
    let mut compartment_sh = vec![ShSet::none(); num_compartments];
    for (i, lib) in config.libraries.iter().enumerate() {
        let c = compartment_of[i];
        if !compartment_names[c].is_empty() {
            compartment_names[c].push('+');
        }
        compartment_names[c].push_str(&lib.spec.name);
        compartment_sh[c].0.extend(lib.sh.0.iter().copied());
    }

    Ok(ImagePlan {
        config,
        compartment_of,
        num_compartments,
        compartment_names,
        compartment_sh,
        report: ValidationReport { warnings },
    })
}

/// Re-checks an existing plan after manual edits: returns every violation
/// among co-located effective specs ("our future work aims to automate
/// checking the safety of a proposed configuration", §7 — this is that
/// checker).
pub fn audit(plan: &ImagePlan) -> Vec<String> {
    let effective: Vec<Rc<LibSpec>> = plan
        .config
        .libraries
        .iter()
        .map(LibraryConfig::effective_spec)
        .collect();
    let mut findings = Vec::new();
    for i in 0..effective.len() {
        for j in 0..effective.len() {
            if i != j && plan.compartment_of[i] == plan.compartment_of[j] {
                for v in violations(&effective[i], &effective[j]) {
                    findings.push(v.to_string());
                }
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::transform::{suggest_sh, ShMechanism};

    fn sched_lib() -> LibraryConfig {
        LibraryConfig::new(LibSpec::verified_scheduler(), LibRole::Scheduler)
    }

    fn raw_lib(name: &str) -> LibraryConfig {
        LibraryConfig::new(LibSpec::unsafe_c(name), LibRole::Other)
    }

    #[test]
    fn every_backend_has_one_tag_that_parses_back() {
        assert_eq!(
            BackendChoice::ALL.map(BackendChoice::tag),
            ["direct", "mpk-shared", "mpk-switched", "vmrpc", "cheri"]
        );
        // The figure names, as the reports print them.
        assert_eq!(
            BackendChoice::ALL.map(BackendChoice::label),
            [
                "function call",
                "MPK (shared stack)",
                "MPK (switched stack)",
                "VM RPC (EPT)",
                "CHERI (sealed caps)"
            ]
        );
        for b in BackendChoice::ALL {
            assert_eq!(BackendChoice::from_tag(b.tag()), Some(b));
        }
    }

    #[test]
    fn auto_placement_separates_incompatible_libraries() {
        let cfg = ImageConfig::new("test", BackendChoice::MpkShared)
            .with_library(sched_lib())
            .with_library(raw_lib("rawlib"));
        let p = plan(cfg).unwrap();
        assert_eq!(p.num_compartments, 2);
        assert_ne!(p.compartment_of[0], p.compartment_of[1]);
        assert!(audit(&p).is_empty());
    }

    #[test]
    fn hardening_allows_colocation() {
        let raw = LibSpec::unsafe_c("rawlib");
        let sh = suggest_sh(&raw);
        let cfg = ImageConfig::new("test", BackendChoice::MpkShared)
            .with_library(sched_lib())
            .with_library(
                LibraryConfig::new(raw, LibRole::Other)
                    .with_sh(sh)
                    .with_analysis(Analysis::well_behaved()),
            );
        let p = plan(cfg).unwrap();
        assert_eq!(p.num_compartments, 1);
        assert!(audit(&p).is_empty());
    }

    /// Planning shares what it is given: an unhardened library's
    /// effective spec is its declared spec itself; a hardened one's is
    /// the rewrite.
    #[test]
    fn only_a_hardened_library_gets_a_spec_of_its_own() {
        let plain = raw_lib("rawlib").with_analysis(Analysis::well_behaved());
        assert!(Rc::ptr_eq(&plain.effective_spec(), &plain.spec));
        let sh = suggest_sh(&plain.spec);
        let hardened = plain.clone().with_sh(sh.clone());
        let rewritten = hardened.effective_spec();
        assert!(!Rc::ptr_eq(&rewritten, &hardened.spec));
        assert_eq!(
            *rewritten,
            apply_sh(&hardened.spec, &sh, &hardened.analysis)
        );
        assert_ne!(*rewritten, *hardened.spec);
    }

    #[test]
    fn no_isolation_collapses_and_warns() {
        let cfg = ImageConfig::new("baseline", BackendChoice::None)
            .with_library(sched_lib())
            .with_library(raw_lib("rawlib"));
        let p = plan(cfg).unwrap();
        assert_eq!(p.num_compartments, 1);
        assert!(!p.report.warnings.is_empty());
        // The audit surfaces the ungranted accesses too.
        assert!(!audit(&p).is_empty());
    }

    #[test]
    fn manual_placement_is_respected_and_checked() {
        let cfg = ImageConfig::new("manual", BackendChoice::MpkSwitched)
            .with_library(sched_lib().in_compartment(0))
            .with_library(raw_lib("rawlib").in_compartment(0));
        let p = plan(cfg).unwrap();
        assert_eq!(p.num_compartments, 1);
        assert!(p.report.warnings.iter().any(|w| w.contains("co-locates")));
        assert!(!audit(&p).is_empty());
    }

    #[test]
    fn auto_libs_fold_into_compatible_manual_compartments() {
        let mut other_sched = LibSpec::verified_scheduler();
        other_sched.name = "uklock".into();
        let cfg = ImageConfig::new("fold", BackendChoice::MpkShared)
            .with_library(sched_lib().in_compartment(0))
            .with_library(LibraryConfig::new(other_sched, LibRole::Other));
        let p = plan(cfg).unwrap();
        assert_eq!(p.num_compartments, 1);
    }

    #[test]
    fn mpk_key_budget_is_enforced() {
        // The CHERI model rides the page tags, so it shares the budget.
        for backend in BackendChoice::ALL {
            let mut cfg = ImageConfig::new("big", backend);
            for i in 0..16 {
                cfg = cfg.with_library(raw_lib(&format!("lib{i}")).in_compartment(i));
            }
            let res = plan(cfg);
            let keyed = [
                BackendChoice::MpkShared,
                BackendChoice::MpkSwitched,
                BackendChoice::Cheri,
            ];
            if keyed.contains(&backend) {
                let err = res.unwrap_err().0;
                assert!(
                    err.contains("at most 15 compartments, plan needs 16"),
                    "{err}"
                );
            } else {
                assert!(res.is_ok(), "{backend:?}");
            }
        }
    }

    #[test]
    fn mpk_warns_on_untrusted_scheduler() {
        // Only MPK keeps PKRU state in the scheduler; the CHERI model
        // shares MPK's tags but not that trust requirement.
        for backend in BackendChoice::ALL {
            let cfg = ImageConfig::new("bad-sched", backend).with_library(LibraryConfig::new(
                LibSpec::unsafe_c("csched"),
                LibRole::Scheduler,
            ));
            let p = plan(cfg).unwrap();
            let warned = p
                .report
                .warnings
                .iter()
                .any(|w| w.contains("must be trusted"));
            let mpk = [BackendChoice::MpkShared, BackendChoice::MpkSwitched];
            assert_eq!(warned, mpk.contains(&backend), "{backend:?}");
        }
    }

    #[test]
    fn mpk_trusts_hardened_scheduler() {
        let csched = LibSpec::unsafe_c("csched");
        let cfg = ImageConfig::new("sh-sched", BackendChoice::MpkShared).with_library(
            LibraryConfig::new(csched, LibRole::Scheduler)
                .with_sh(ShSet::of([ShMechanism::Asan]))
                .with_analysis(Analysis::well_behaved()),
        );
        let p = plan(cfg).unwrap();
        assert!(p.report.warnings.is_empty());
    }

    #[test]
    fn vm_backend_forces_dedicated_allocators() {
        let cfg = ImageConfig::new("vm", BackendChoice::VmRpc)
            .with_library(sched_lib())
            .with_library(raw_lib("rawlib"));
        let p = plan(cfg).unwrap();
        assert!(p.config.dedicated_allocators);
    }

    #[test]
    fn the_plan_decides_the_heap_topology() {
        for b in BackendChoice::ALL {
            let two = plan(
                ImageConfig::new("two", b)
                    .with_library(sched_lib())
                    .with_library(raw_lib("rawlib")),
            )
            .unwrap();
            assert_eq!(two.num_compartments > 1, b.isolates(), "{b:?}");
            assert_eq!(two.config.dedicated_allocators, b.isolates(), "{b:?}");
            let one = plan(ImageConfig::new("one", b).with_library(raw_lib("rawlib"))).unwrap();
            let vm = b == BackendChoice::VmRpc;
            assert_eq!(one.config.dedicated_allocators, vm, "{b:?}");
            let mut asked = ImageConfig::new("asked", b).with_library(raw_lib("rawlib"));
            asked.dedicated_allocators = true;
            assert!(plan(asked).unwrap().config.dedicated_allocators, "{b:?}");
        }
    }

    #[test]
    fn compartment_metadata_is_consistent() {
        let cfg = ImageConfig::new("meta", BackendChoice::MpkShared)
            .with_library(sched_lib())
            .with_library(raw_lib("rawlib").with_sh(ShSet::of([ShMechanism::Ubsan])));
        let p = plan(cfg).unwrap();
        assert_eq!(p.compartment_names.len(), p.num_compartments);
        assert_eq!(p.compartment_sh.len(), p.num_compartments);
        let raw_c = p.compartment_of[1];
        assert!(p.compartment_sh[raw_c].has(ShMechanism::Ubsan));
        assert_eq!(
            p.compartment_of_role(LibRole::Scheduler),
            Some(p.compartment_of[0])
        );
    }

    #[test]
    fn empty_image_is_rejected() {
        assert!(plan(ImageConfig::new("empty", BackendChoice::None)).is_err());
    }

    #[test]
    fn more_libraries_than_the_graph_holds_is_a_build_error() {
        for backend in [BackendChoice::None, BackendChoice::MpkShared] {
            let mut cfg = ImageConfig::new("huge", backend);
            for i in 0..=Graph::MAX_VERTICES {
                cfg = cfg.with_library(raw_lib(&format!("lib{i}")));
            }
            let err = plan(cfg).unwrap_err();
            assert!(err.0.contains("65 libraries"), "{err}");
        }
    }
}
