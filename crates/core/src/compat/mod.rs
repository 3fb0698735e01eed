//! Compatibility analysis: pairwise checks, the incompatibility graph,
//! graph coloring, and SH-variant enumeration (paper §2).

pub mod check;
pub mod coloring;
pub mod graph;
pub mod variants;

pub use check::{compatible, incompatibilities, violations, Violation, ViolationKind};
pub use coloring::{color, dsatur, exact, is_valid, Coloring, EXACT_THRESHOLD};
pub(crate) use graph::VerdictTable;
pub use graph::{Graph, IncompatGraph};
pub use variants::{enumerate_deployments, Deployment, MAX_COMBINATIONS};
