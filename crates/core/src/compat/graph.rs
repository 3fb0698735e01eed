//! The incompatibility graph over a set of library specs.
//!
//! "Armed with information about pair-wise incompatibility, selecting the
//! smallest number of compartments in a FlexOS image can be reduced to the
//! classical graph coloring problem: each library is a vertex, and an edge
//! connects two incompatible libraries." (paper §2)

use super::check::{violations, Violation};
use crate::spec::model::LibSpec;
use std::collections::BTreeMap;

/// An undirected graph over `n` vertices, adjacency stored as bitmasks
/// (supports up to 64 vertices — far beyond any unikernel image's
/// micro-library count).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    n: usize,
    adj: Vec<u64>,
}

impl Graph {
    /// Maximum supported vertex count.
    pub const MAX_VERTICES: usize = 64;

    /// Creates an edgeless graph with `n` vertices.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    pub fn new(n: usize) -> Self {
        assert!(
            n <= Self::MAX_VERTICES,
            "graph supports at most 64 vertices"
        );
        Self { n, adj: vec![0; n] }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Adds the undirected edge `(a, b)`. Self-loops are ignored.
    pub fn add_edge(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        self.adj[a] |= 1 << b;
        self.adj[b] |= 1 << a;
    }

    /// Whether `(a, b)` is an edge.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        a != b && self.adj[a] & (1 << b) != 0
    }

    /// Neighbour bitmask of `v`.
    pub fn neighbors(&self, v: usize) -> u64 {
        self.adj[v]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: usize) -> u32 {
        self.adj[v].count_ones()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.adj
            .iter()
            .map(|m| m.count_ones() as usize)
            .sum::<usize>()
            / 2
    }
}

/// The incompatibility graph for a concrete set of specs, with the
/// per-edge violations kept for diagnostics.
#[derive(Debug, Clone)]
pub struct IncompatGraph {
    /// Library names, index-aligned with graph vertices.
    pub names: Vec<String>,
    /// The underlying conflict graph.
    pub graph: Graph,
    /// For each conflicting pair `(i, j)` with `i < j`, why.
    pub reasons: BTreeMap<(usize, usize), Vec<Violation>>,
}

impl IncompatGraph {
    /// Builds the graph by checking every pair of specs: the verdict
    /// table of one variant per library.
    ///
    /// # Panics
    ///
    /// Panics if there are more than [`Graph::MAX_VERTICES`] specs.
    pub fn build<'a>(specs: impl IntoIterator<Item = &'a LibSpec>) -> Self {
        let table = VerdictTable::new(specs.into_iter().map(std::iter::once));
        table.graph(&vec![0; table.first.len()])
    }

    /// The violations that put the edge `(a, b)` in the graph, if any.
    pub fn why(&self, a: usize, b: usize) -> Option<&[Violation]> {
        let key = if a < b { (a, b) } else { (b, a) };
        self.reasons.get(&key).map(|v| v.as_slice())
    }
}

/// Every directional [`violations`] verdict among libraries that come in
/// one or more variants each: the dense (library × variant)² memo of a
/// design-space walk, where a variant is the plain or the hardened spec.
/// Verdicts are checked once, up front; the graph of any one choice of
/// variants is then assembled without another check.
pub(crate) struct VerdictTable<'a> {
    /// The variant specs, library by library.
    specs: Vec<&'a LibSpec>,
    /// `specs[first[i] + v]` is library `i`'s variant `v`.
    first: Vec<usize>,
    /// `verdicts[a * specs.len() + b]`: what `specs[b]` may do to
    /// `specs[a]`. Left empty between variants of one library, which
    /// never share an image.
    verdicts: Vec<Vec<Violation>>,
}

impl<'a> VerdictTable<'a> {
    /// Checks every ordered pair of variants of distinct libraries.
    pub(crate) fn new<V: IntoIterator<Item = &'a LibSpec>>(
        libs: impl IntoIterator<Item = V>,
    ) -> Self {
        let (mut specs, mut first, mut lib_of) = (Vec::new(), Vec::new(), Vec::new());
        for (i, variants) in libs.into_iter().enumerate() {
            first.push(specs.len());
            for spec in variants {
                specs.push(spec);
                lib_of.push(i);
            }
        }
        let m = specs.len();
        let mut verdicts = Vec::with_capacity(m * m);
        for a in 0..m {
            for b in 0..m {
                verdicts.push(if lib_of[a] == lib_of[b] {
                    Vec::new()
                } else {
                    violations(specs[a], specs[b])
                });
            }
        }
        Self {
            specs,
            first,
            verdicts,
        }
    }

    /// What `offender` may do to `victim`, each library in its variant
    /// under `selection`.
    pub(crate) fn verdict(
        &self,
        selection: &[usize],
        victim: usize,
        offender: usize,
    ) -> &[Violation] {
        let a = self.first[victim] + selection[victim];
        let b = self.first[offender] + selection[offender];
        &self.verdicts[a * self.specs.len() + b]
    }

    /// The incompatibility graph of one variant per library, library `i`
    /// in variant `selection[i]`.
    ///
    /// # Panics
    ///
    /// Panics if there are more than [`Graph::MAX_VERTICES`] libraries.
    pub(crate) fn graph(&self, selection: &[usize]) -> IncompatGraph {
        let n = self.first.len();
        let mut graph = Graph::new(n);
        let mut reasons = BTreeMap::new();
        for i in 0..n {
            for j in i + 1..n {
                let ab = self.verdict(selection, i, j);
                let ba = self.verdict(selection, j, i);
                if !(ab.is_empty() && ba.is_empty()) {
                    graph.add_edge(i, j);
                    reasons.insert((i, j), [ab, ba].concat());
                }
            }
        }
        IncompatGraph {
            names: (0..n)
                .map(|i| self.specs[self.first[i] + selection[i]].name.clone())
                .collect(),
            graph,
            reasons,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compat::check::incompatibilities;
    use crate::spec::model::{FuncRef, Grant, GrantKind, Region, Requires};
    use crate::spec::transform::{variants_for, Analysis, ShVariant};
    use proptest::prelude::*;

    #[test]
    fn graph_edges_are_undirected() {
        let mut g = Graph::new(4);
        g.add_edge(0, 2);
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(0, 1));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn self_loops_are_ignored() {
        let mut g = Graph::new(2);
        g.add_edge(1, 1);
        assert_eq!(g.edge_count(), 0);
        assert!(!g.has_edge(1, 1));
    }

    #[test]
    fn degree_counts_neighbors() {
        let mut g = Graph::new(5);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(0, 3);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(4), 0);
    }

    #[test]
    fn incompat_graph_of_paper_example() {
        let specs = vec![
            LibSpec::verified_scheduler(),
            LibSpec::unsafe_c("rawlib"),
            LibSpec::unsafe_c("x"),
        ];
        let g = IncompatGraph::build(&specs);
        // sched conflicts with both unsafe libs; they don't conflict with
        // each other.
        assert!(g.graph.has_edge(0, 1));
        assert!(g.graph.has_edge(0, 2));
        assert!(!g.graph.has_edge(1, 2));
        assert!(g.why(0, 1).is_some());
        assert!(g.why(1, 0).is_some()); // order-insensitive lookup
        assert!(g.why(1, 2).is_none());
    }

    /// The verdict table is the graph's memo: a graph assembled from it,
    /// first or again, equals one checked pair by pair without it.
    #[test]
    fn cached_build_matches_uncached() {
        // The scheduler in the middle is the victim of one edge from each
        // side, so both halves of a pair's verdicts are exercised.
        let specs = vec![
            LibSpec::unsafe_c("rawlib"),
            LibSpec::verified_scheduler(),
            LibSpec::unsafe_c("x"),
        ];
        let plain = reference(&specs);
        let table = VerdictTable::new(specs.iter().map(std::slice::from_ref));
        let selection = vec![0; specs.len()];
        let cached = table.graph(&selection);
        let warm = table.graph(&selection);
        for g in [&cached, &warm, &IncompatGraph::build(&specs)] {
            assert_eq!(g.names, plain.names);
            assert_eq!(g.graph, plain.graph);
            assert_eq!(g.reasons, plain.reasons);
        }
        assert_eq!(plain.graph.edge_count(), 2);
    }

    /// A library and the analysis its hardening rewrites with. The arms
    /// reach every shape of edge: one-way (a scheduler and an unsafe
    /// library), two-way (two strict schedulers that each write shared
    /// memory the other does not grant), call grants by name, and none.
    fn arb_lib() -> impl Strategy<Value = (LibSpec, Analysis)> {
        let strict = |name: String| {
            let mut s = LibSpec::verified_scheduler();
            s.name = name;
            s.requires = Requires::granting(vec![
                Grant::any(GrantKind::Read(Region::Own)),
                Grant::any(GrantKind::Read(Region::Shared)),
            ]);
            s
        };
        let analysis = prop_oneof![
            Just(Analysis::default()),
            Just(Analysis::well_behaved()),
            Just(Analysis {
                call_targets: Some(
                    [
                        FuncRef::new("uksched_verified", "yield"),
                        FuncRef::new("uksched_verified", "internal_requeue"),
                    ]
                    .into(),
                ),
                ..Analysis::well_behaved()
            }),
        ];
        let spec = prop_oneof![
            "[a-z]{1,4}".prop_map(LibSpec::unsafe_c),
            "[a-z]{1,4}".prop_map(strict),
            Just(LibSpec::verified_scheduler()),
        ];
        (spec, analysis)
    }

    /// The graph as `IncompatGraph::build` made it before the table: one
    /// `incompatibilities` call per unordered pair.
    fn reference(specs: &[LibSpec]) -> IncompatGraph {
        let mut graph = Graph::new(specs.len());
        let mut reasons = BTreeMap::new();
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

    proptest! {
        /// For any libraries and any choice of variants, the graph
        /// assembled from the table equals the graph of the chosen specs,
        /// built by `IncompatGraph::build` and by the pairwise reference:
        /// names, edges, and every edge's reasons in order.
        #[test]
        fn table_graph_equals_the_graph_of_the_selected_specs(
            libs in prop::collection::vec(arb_lib(), 1..7),
            bits in any::<u64>(),
        ) {
            let variants: Vec<Vec<ShVariant>> = libs
                .iter()
                .enumerate()
                .map(|(i, (spec, analysis))| {
                    let mut spec = spec.clone();
                    spec.name = format!("{}{i}", spec.name);
                    variants_for(&spec, analysis)
                })
                .collect();
            let table = VerdictTable::new(variants.iter().map(|vs| vs.iter().map(|v| &v.spec)));
            let selection: Vec<usize> = variants
                .iter()
                .enumerate()
                .map(|(i, vs)| (bits >> i) as usize % vs.len())
                .collect();
            let chosen: Vec<LibSpec> = selection
                .iter()
                .zip(&variants)
                .map(|(&v, vs)| vs[v].spec.clone())
                .collect();
            let got = table.graph(&selection);
            for want in [IncompatGraph::build(&chosen), reference(&chosen)] {
                prop_assert_eq!(&got.names, &want.names);
                prop_assert_eq!(&got.graph, &want.graph);
                prop_assert_eq!(&got.reasons, &want.reasons);
            }
        }
    }
}
