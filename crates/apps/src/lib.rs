//! # flexos-apps — evaluation applications and OS assembly
//!
//! The paper's §4 workloads, running end to end on the FlexOS
//! reproduction: an iperf-style TCP throughput server and a Redis-style
//! RESP key-value server, each built as a FlexOS image whose
//! compartmentalization, isolation backend, hardening and scheduler are
//! chosen at build time.
//!
//! * [`profiles`] — the micro-library specs and the §4 compartment
//!   models (`NW-only`, `NW/Sched/Rest`, `NW+Sched/Rest`, baseline);
//! * [`os`] — the assembled [`os::Os`]: image + gates + SH runtime +
//!   semaphores (in libc) + network stack, with every cross-compartment
//!   interaction routed through gates;
//! * [`iperf`] — the iperf server/measurement harness (Figure 3,
//!   Table 1);
//! * [`resp`] / [`redis`] — the RESP protocol and Redis-style server
//!   (Figures 4 and 5);
//! * [`client`] — the external load generator (its own machine and
//!   clock, so client work never pollutes server-side throughput);
//! * [`serve`] — the million-connection serving tier: sharded Redis
//!   behind an async cluster proxy, per-connection cooperative tasks
//!   woken by readiness events, and an open-loop Poisson load
//!   generator (the O(ready) scaling experiment).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod iperf;
pub mod os;
pub mod profiles;
pub mod redis;
pub mod resp;
pub mod serve;

pub use client::RunError;
pub use os::{Os, OsStats, Roles};
pub use profiles::{
    backend_tag, evaluation_image, gcc_sh, harden, harden_all, CompartmentModel, SchedKind,
};
