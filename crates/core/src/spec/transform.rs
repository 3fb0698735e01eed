//! Software-hardening (SH) mechanisms and their *spec-level* effect.
//!
//! The paper uses SH in two decoupled roles:
//!
//! 1. **Metadata transformation** (§2 "When to Enable SH?"): enabling an
//!    SH technique *rewrites a library's safety spec* — e.g. CFI turns
//!    `Call(*)` into `Call(func-list)` (populated by control-flow
//!    analysis), DFI/ASAN turn `Write(*)` into `Write(Own)` (or whatever
//!    the data-flow graph supports). The rewritten spec may be compatible
//!    with libraries the original was not, letting them share a
//!    compartment.
//! 2. **Runtime cost/protection**: the hardened build pays per-access
//!    instrumentation (implemented in the `flexos-sh` crate, costed by the
//!    machine's [`CostTable`](flexos_machine::CostTable)).
//!
//! This module implements role 1: a pure rewrite over [`LibSpec`]s driven
//! by per-library analysis results, plus the paper's SH-suggestion rule
//! ("1) for each library that writes to all memory, enable DFI / ASAN;
//! 2) for each library that can execute arbitrary code, enable CFI").

use super::model::{CallBehavior, FuncRef, LibSpec, RegionSet};
use std::collections::BTreeSet;
use std::fmt;

/// A software-hardening mechanism supported by FlexOS (§3: "Our
/// implementation supports KASAN, Stack protector and UBSAN on GCC, and
/// CFI and SafeStack under clang", plus DFI from §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ShMechanism {
    /// Address sanitizer (KASAN in-kernel): redzones + shadow memory +
    /// quarantine; confines accesses to valid allocations.
    Asan,
    /// Control-flow integrity: indirect calls restricted to the static
    /// call graph.
    Cfi,
    /// Data-flow integrity: stores restricted to statically legal
    /// destinations.
    Dfi,
    /// Stack canaries ("Strong" stack protection).
    StackProtector,
    /// SafeStack: split safe/unsafe stacks.
    SafeStack,
    /// Undefined-behaviour sanitizer: checked arithmetic/shifts/bounds.
    Ubsan,
}

impl ShMechanism {
    /// All supported mechanisms.
    pub const ALL: [ShMechanism; 6] = [
        ShMechanism::Asan,
        ShMechanism::Cfi,
        ShMechanism::Dfi,
        ShMechanism::StackProtector,
        ShMechanism::SafeStack,
        ShMechanism::Ubsan,
    ];

    /// Short lowercase name (matches toolchain flag spellings).
    pub fn name(self) -> &'static str {
        match self {
            ShMechanism::Asan => "asan",
            ShMechanism::Cfi => "cfi",
            ShMechanism::Dfi => "dfi",
            ShMechanism::StackProtector => "stack-protector",
            ShMechanism::SafeStack => "safestack",
            ShMechanism::Ubsan => "ubsan",
        }
    }

    /// Whether this mechanism requires a *separate memory allocator* for
    /// the hardened compartment (paper §3: "A key requirement for SH is
    /// the ability to have a separate memory allocator per compartment:
    /// as many SH techniques instrument malloc…").
    pub fn instruments_malloc(self) -> bool {
        matches!(self, ShMechanism::Asan | ShMechanism::Dfi)
    }
}

impl fmt::Display for ShMechanism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A set of SH mechanisms applied together to one library/compartment.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ShSet(pub BTreeSet<ShMechanism>);

impl ShSet {
    /// The empty set (no hardening).
    pub fn none() -> Self {
        Self::default()
    }

    /// A set from a list of mechanisms.
    pub fn of(mechs: impl IntoIterator<Item = ShMechanism>) -> Self {
        Self(mechs.into_iter().collect())
    }

    /// Whether `m` is enabled.
    pub fn has(&self, m: ShMechanism) -> bool {
        self.0.contains(&m)
    }

    /// Whether no mechanism is enabled.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Whether any enabled mechanism instruments the allocator.
    pub fn instruments_malloc(&self) -> bool {
        self.0.iter().any(|m| m.instruments_malloc())
    }
}

impl fmt::Display for ShSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return f.write_str("none");
        }
        let names: Vec<&str> = self.0.iter().map(|m| m.name()).collect();
        f.write_str(&names.join("+"))
    }
}

/// Results of static analysis over a library's sources, consumed by the
/// spec transformations. In the FlexOS vision these come from "a standard
/// control-flow analysis" and a data-flow graph; here they are provided by
/// the library author / test fixtures (the prototype, likewise, created
/// compartment specifications manually).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Analysis {
    /// The library's concrete call targets (CFG): what `Call(*)` becomes
    /// under CFI.
    pub call_targets: Option<BTreeSet<FuncRef>>,
    /// The regions the library's stores can actually reach (DFG): what
    /// `Write(*)` becomes under DFI.
    pub write_regions: Option<RegionSet>,
    /// The regions the library's loads can actually reach (DFG).
    pub read_regions: Option<RegionSet>,
}

impl Analysis {
    /// Analysis showing the library is fully well-behaved (the common case
    /// for leaf C libraries whose bugs, not intent, are the problem).
    pub fn well_behaved() -> Self {
        Self {
            call_targets: Some(BTreeSet::new()),
            write_regions: Some(RegionSet::own_and_shared()),
            read_regions: Some(RegionSet::own_and_shared()),
        }
    }
}

/// Applies the spec-level effect of `sh` to `spec`, using `analysis`
/// where a mechanism needs analysis input. The returned spec describes
/// "the safety behavior of the library when the SH technique is enabled"
/// (paper §2).
///
/// Rules:
/// * **CFI**: `Call(*)` → `Call(list)` from [`Analysis::call_targets`].
/// * **DFI**: `Write(*)` → [`Analysis::write_regions`]; reads likewise if
///   the analysis bounds them.
/// * **ASAN**: accesses are confined to valid allocations, so `Read(*)`
///   / `Write(*)` collapse to `Own,Shared` *without* needing analysis
///   (overflow out of an allocation is dynamically impossible).
/// * Stack protector / SafeStack / UBSAN do not change the declared
///   memory/call behaviour (they protect the library's own integrity);
///   they participate in cost and security scoring only.
pub fn apply_sh(spec: &LibSpec, sh: &ShSet, analysis: &Analysis) -> LibSpec {
    let mut out = spec.clone();
    if sh.has(ShMechanism::Cfi) && out.call.is_star() {
        if let Some(targets) = &analysis.call_targets {
            out.call = CallBehavior::Funcs(targets.clone());
        }
    }
    if sh.has(ShMechanism::Dfi) {
        if out.mem.write.is_star() {
            if let Some(w) = &analysis.write_regions {
                out.mem.write = w.clone();
            }
        }
        if out.mem.read.is_star() {
            if let Some(r) = &analysis.read_regions {
                out.mem.read = r.clone();
            }
        }
    }
    if sh.has(ShMechanism::Asan) {
        if out.mem.write.is_star() {
            out.mem.write = RegionSet::own_and_shared();
        }
        if out.mem.read.is_star() {
            out.mem.read = RegionSet::own_and_shared();
        }
    }
    out
}

/// The paper's SH-enabling heuristic: DFI/ASAN for libraries that write to
/// all memory, CFI for libraries that can execute arbitrary code.
pub fn suggest_sh(spec: &LibSpec) -> ShSet {
    let mut set = BTreeSet::new();
    if spec.mem.write.is_star() {
        set.insert(ShMechanism::Asan);
        set.insert(ShMechanism::Dfi);
    }
    if spec.call.is_star() {
        set.insert(ShMechanism::Cfi);
    }
    ShSet(set)
}

/// A library together with one choice of hardening: the unit over which
/// the compatibility search enumerates ("a list of libraries that have two
/// versions: one with SH, and one without").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShVariant {
    /// The (possibly rewritten) spec.
    pub spec: LibSpec,
    /// The hardening applied.
    pub sh: ShSet,
}

/// Produces the variant list for a library: the plain version plus, when
/// the suggestion heuristic fires, the hardened version.
pub fn variants_for(spec: &LibSpec, analysis: &Analysis) -> Vec<ShVariant> {
    let mut out = vec![ShVariant {
        spec: spec.clone(),
        sh: ShSet::none(),
    }];
    let suggested = suggest_sh(spec);
    if !suggested.is_empty() {
        let hardened = apply_sh(spec, &suggested, analysis);
        out.push(ShVariant {
            spec: hardened,
            sh: suggested,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::model::MemBehavior;

    fn unsafe_lib() -> LibSpec {
        LibSpec::unsafe_c("rawlib")
    }

    #[test]
    fn cfi_bounds_star_calls_with_cfg() {
        let analysis = Analysis {
            call_targets: Some([FuncRef::new("alloc", "malloc")].into()),
            ..Default::default()
        };
        let out = apply_sh(&unsafe_lib(), &ShSet::of([ShMechanism::Cfi]), &analysis);
        assert_eq!(out.call, CallBehavior::funcs([("alloc", "malloc")]));
        // Memory behaviour untouched by CFI.
        assert!(out.mem.write.is_star());
    }

    #[test]
    fn cfi_without_analysis_leaves_star() {
        let out = apply_sh(
            &unsafe_lib(),
            &ShSet::of([ShMechanism::Cfi]),
            &Analysis::default(),
        );
        assert!(out.call.is_star());
    }

    #[test]
    fn dfi_applies_dfg_write_regions() {
        let analysis = Analysis {
            write_regions: Some(RegionSet::own()),
            ..Default::default()
        };
        let out = apply_sh(&unsafe_lib(), &ShSet::of([ShMechanism::Dfi]), &analysis);
        assert_eq!(out.mem.write, RegionSet::own());
        // Reads not bounded by this analysis.
        assert!(out.mem.read.is_star());
    }

    #[test]
    fn asan_confines_accesses_without_analysis() {
        let out = apply_sh(
            &unsafe_lib(),
            &ShSet::of([ShMechanism::Asan]),
            &Analysis::default(),
        );
        assert_eq!(out.mem, MemBehavior::well_behaved());
        assert!(out.call.is_star()); // ASAN says nothing about control flow.
    }

    #[test]
    fn passive_mechanisms_change_nothing() {
        for m in [
            ShMechanism::StackProtector,
            ShMechanism::SafeStack,
            ShMechanism::Ubsan,
        ] {
            let out = apply_sh(&unsafe_lib(), &ShSet::of([m]), &Analysis::well_behaved());
            assert_eq!(out, unsafe_lib());
        }
    }

    #[test]
    fn suggestion_follows_the_paper_heuristic() {
        let s = suggest_sh(&unsafe_lib());
        assert!(s.has(ShMechanism::Asan));
        assert!(s.has(ShMechanism::Dfi));
        assert!(s.has(ShMechanism::Cfi));

        let s = suggest_sh(&LibSpec::verified_scheduler());
        assert!(s.is_empty());
    }

    #[test]
    fn variants_are_plain_plus_suggested() {
        let v = variants_for(&unsafe_lib(), &Analysis::well_behaved());
        assert_eq!(v.len(), 2);
        assert!(v[0].sh.is_empty());
        assert!(!v[1].sh.is_empty());
        assert_eq!(v[1].spec.mem, MemBehavior::well_behaved());

        let v = variants_for(&LibSpec::verified_scheduler(), &Analysis::default());
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn malloc_instrumentation_flag() {
        assert!(ShSet::of([ShMechanism::Asan]).instruments_malloc());
        assert!(!ShSet::of([ShMechanism::Cfi, ShMechanism::Ubsan]).instruments_malloc());
    }

    #[test]
    fn sh_set_display() {
        assert_eq!(ShSet::none().to_string(), "none");
        assert_eq!(
            ShSet::of([ShMechanism::Cfi, ShMechanism::Asan]).to_string(),
            "asan+cfi"
        );
    }
}
