//! # flexos — the FlexOS framework (the paper's primary contribution)
//!
//! A Rust implementation of the core of *"FlexOS: Making OS Isolation
//! Flexible"* (HotOS '21): an OS whose **compartmentalization and
//! protection profile is decided at build time**, not design time.
//!
//! The crate provides, end to end:
//!
//! * [`spec`] — the **library metadata language**: memory-access
//!   behaviour (normal *and* adversarial), call behaviour, API entry
//!   points, and `[Requires]` grants; a parser/printer for the paper's
//!   textual syntax; and the **SH spec-transformations** (CFI bounds
//!   `Call(*)`, DFI/ASAN bound `Write(*)`, …).
//! * [`compat`] — **pairwise compatibility checking**, the
//!   incompatibility graph, **graph coloring** (exact + DSATUR) deriving
//!   the minimal number of compartments, and enumeration of SH-variant
//!   deployments.
//! * [`gate`] — the **gate abstraction**: compartment contexts, the
//!   `Gate` trait isolation backends implement (direct call, MPK
//!   shared/switched stack, VM RPC — see `flexos-backends`), and the
//!   `GateRuntime` dispatcher replacing FlexOS's link-time gate
//!   substitution.
//! * [`build`] — the **build system**: image configuration →
//!   validated compartmentalization plan (manual and automatic
//!   placement, backend constraints such as MPK's key budget and
//!   scheduler/MM trust requirements).
//! * [`explore`] — **design-space exploration**: a per-request cost
//!   model, a security score, candidate enumeration, and the paper's two
//!   §2 objectives (max security within a performance budget; fastest
//!   configuration meeting a security floor).
//!
//! ## Quick tour
//!
//! ```
//! use flexos::spec::{parse_with_name, LibSpec};
//! use flexos::compat::{compatible, IncompatGraph, color};
//! use flexos::build::{plan, BackendChoice, ImageConfig, LibraryConfig, LibRole};
//!
//! // The paper's two example specs:
//! let sched = LibSpec::verified_scheduler();
//! let rawlib = parse_with_name("[Memory access] Read(*); Write(*)\n[Call] *", "rawlib").unwrap();
//! assert!(!compatible(&sched, &rawlib)); // must be separated
//!
//! // Derive the compartmentalization automatically:
//! let cfg = ImageConfig::new("demo", BackendChoice::MpkShared)
//!     .with_library(LibraryConfig::new(sched, LibRole::Scheduler))
//!     .with_library(LibraryConfig::new(rawlib, LibRole::Other));
//! let plan = plan(cfg).unwrap();
//! assert_eq!(plan.num_compartments, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build;
pub mod compat;
pub mod explore;
pub mod gate;
pub mod spec;
pub mod synth;
pub mod wrappers;

pub use build::{plan, BackendChoice, ImageConfig, ImagePlan, LibRole, LibraryConfig};
pub use explore::{explore, Exploration, ExploreOptions};
pub use gate::{CompartmentCtx, CompartmentId, DirectGate, Gate, GateMechanism, GateRuntime};
pub use spec::{LibSpec, ShMechanism, ShSet};
