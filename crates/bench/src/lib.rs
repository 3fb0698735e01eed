//! # flexos-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's §4:
//!
//! | Paper artifact | Driver | Bench target |
//! |---|---|---|
//! | Figure 3 (iperf vs buffer size, 6 configs) | [`experiments::fig3`] | `benches/fig3_iperf.rs` |
//! | Table 1 (SH at micro-library granularity) | [`experiments::table1`] | `benches/tab1_sh_granularity.rs` |
//! | Figure 4 (Redis SH / allocator / verified sched) | [`experiments::fig4`] | `benches/fig4_redis_sh.rs` |
//! | Figure 5 (Redis MPK compartment models) | [`experiments::fig5`] | `benches/fig5_redis_mpk.rs` |
//! | §4 context-switch latency (76.6 vs 218.6 ns) | [`experiments::ctx_switch`] | `benches/ctx_switch.rs` |
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
