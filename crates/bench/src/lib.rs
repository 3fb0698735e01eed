//! # flexos-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's §4:
//!
//! | Paper artifact | Driver |
//! |---|---|
//! | Figure 3 (iperf vs buffer size, 6 configs) | [`experiments::fig3`] |
//! | Table 1 (SH at micro-library granularity) | [`experiments::table1`] |
//! | Figure 4 (Redis SH / allocator / verified sched) | [`experiments::fig4`] |
//! | Figure 5 (Redis MPK compartment models) | [`experiments::fig5`] |
//! | §4 context-switch latency (76.6 vs 218.6 ns) | [`experiments::ctx_switch`] |
//!
//! `cargo run -p flexos-bench --bin reproduce -- all` prints the
//! paper-style tables; `--quick` shrinks workload sizes.
//!
//! Beyond the paper: `reproduce -- --serve` drives the sharded-proxy
//! serving tier (open-loop Poisson load, p50/p99/p999 latency). Host
//! time is measured by the repo benchmark (`benchmark/run.sh`), not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod experiments;
pub mod report;
