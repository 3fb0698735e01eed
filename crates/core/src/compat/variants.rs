//! Enumeration of SH-variant combinations and their compartmentalizations.
//!
//! "We then iterate through all combinations of such library versions and
//! run the graph coloring algorithm described above. This will result in
//! as many colorings as there are possible combinations of libraries."
//! (paper §2)

use super::coloring::{color, Coloring};
use super::graph::{IncompatGraph, VerdictTable};
use crate::spec::model::LibSpec;
use crate::spec::transform::{variants_for, Analysis, ShSet, ShVariant};

/// One enumerated deployment: a concrete variant choice per library plus
/// the resulting minimal compartmentalization.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// Chosen variant per library (index-aligned with the input set).
    pub variants: Vec<ShVariant>,
    /// The incompatibility graph of the chosen variants.
    pub graph: IncompatGraph,
    /// The derived compartment assignment.
    pub coloring: Coloring,
}

impl Deployment {
    /// Number of compartments this deployment needs.
    pub fn num_compartments(&self) -> usize {
        self.coloring.num_colors
    }

    /// Number of libraries running with hardening enabled.
    pub fn hardened_count(&self) -> usize {
        self.variants.iter().filter(|v| !v.sh.is_empty()).count()
    }

    /// The hardening applied to library `i`.
    pub fn sh_of(&self, i: usize) -> &ShSet {
        &self.variants[i].sh
    }
}

/// Upper bound on enumerated combinations, to keep the search bounded on
/// pathological inputs (2^12 variant choices).
pub const MAX_COMBINATIONS: usize = 4096;

/// Enumerates every combination of per-library SH variants (plain vs the
/// paper-suggested hardened version) and colors each combination's
/// incompatibility graph. Results are sorted by ascending compartment
/// count, then ascending hardened-library count (cheapest first).
///
/// Every variant pair is checked once, into one verdict table, and each
/// combination's graph is assembled from it. Combination `k` decodes
/// to per-library variant indices in odometer order (library 0 varies
/// fastest); the final sort is stable, so ties keep that order.
///
/// Returns an empty vector if the input is empty.
///
/// # Panics
///
/// Panics if the combination space exceeds [`MAX_COMBINATIONS`], or if
/// there are more than [`MAX_VERTICES`](super::Graph::MAX_VERTICES)
/// libraries.
pub fn enumerate_deployments(libs: &[(LibSpec, Analysis)]) -> Vec<Deployment> {
    let per_lib: Vec<Vec<ShVariant>> = libs
        .iter()
        .map(|(spec, analysis)| variants_for(spec, analysis))
        .collect();
    let combos: usize = per_lib.iter().map(Vec::len).product();
    assert!(
        combos <= MAX_COMBINATIONS,
        "variant space too large ({combos} > {MAX_COMBINATIONS}); prune inputs"
    );
    if libs.is_empty() {
        return Vec::new();
    }

    let table = VerdictTable::new(per_lib.iter().map(|vs| vs.iter().map(|v| &v.spec)));
    let mut out: Vec<Deployment> = (0..combos)
        .map(|k| {
            let mut rem = k;
            let selection: Vec<usize> = per_lib
                .iter()
                .map(|vs| {
                    let v = rem % vs.len();
                    rem /= vs.len();
                    v
                })
                .collect();
            let graph = table.graph(&selection);
            let coloring = color(&graph.graph);
            Deployment {
                variants: selection
                    .iter()
                    .zip(&per_lib)
                    .map(|(&v, vs)| vs[v].clone())
                    .collect(),
                graph,
                coloring,
            }
        })
        .collect();
    out.sort_by_key(|d| (d.num_compartments(), d.hardened_count()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::model::FuncRef;

    fn paper_inputs() -> Vec<(LibSpec, Analysis)> {
        let sched = LibSpec::verified_scheduler();
        let raw = LibSpec::unsafe_c("rawlib");
        let raw_analysis = Analysis {
            call_targets: Some([FuncRef::new("uksched_verified", "yield")].into()),
            ..Analysis::well_behaved()
        };
        vec![(sched, Analysis::default()), (raw, raw_analysis)]
    }

    #[test]
    fn paper_example_produces_both_deployments() {
        // "When put together with the scheduler in the same image, the SH
        // version will be able to share a compartment with the scheduler,
        // while the original version will require a separate compartment."
        let deployments = enumerate_deployments(&paper_inputs());
        assert_eq!(deployments.len(), 2); // sched has 1 variant, raw has 2.

        let best = &deployments[0];
        assert_eq!(best.num_compartments(), 1);
        assert_eq!(best.hardened_count(), 1); // the SH rawlib co-locates

        let worst = deployments.last().unwrap();
        assert_eq!(worst.num_compartments(), 2);
        assert_eq!(worst.hardened_count(), 0); // the plain rawlib is split off
    }

    #[test]
    fn colorings_are_valid_for_their_graphs() {
        for d in enumerate_deployments(&paper_inputs()) {
            assert!(super::super::coloring::is_valid(
                &d.graph.graph,
                &d.coloring
            ));
        }
    }

    #[test]
    fn empty_input_is_empty_output() {
        assert!(enumerate_deployments(&[]).is_empty());
    }

    #[test]
    fn all_safe_libraries_enumerate_one_deployment() {
        let mut a = LibSpec::verified_scheduler();
        a.name = "a".into();
        let mut b = LibSpec::verified_scheduler();
        b.name = "b".into();
        let deployments =
            enumerate_deployments(&[(a, Analysis::default()), (b, Analysis::default())]);
        assert_eq!(deployments.len(), 1);
        assert_eq!(deployments[0].num_compartments(), 1);
    }

    #[test]
    fn sh_of_reports_per_library_choice() {
        let deployments = enumerate_deployments(&paper_inputs());
        let best = &deployments[0];
        assert!(best.sh_of(0).is_empty()); // scheduler never hardened
        assert!(!best.sh_of(1).is_empty()); // rawlib hardened
    }
}
