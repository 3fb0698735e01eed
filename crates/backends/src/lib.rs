//! # flexos-backends — isolation backends and image instantiation
//!
//! The concrete gate implementations of the paper's §3 prototype:
//!
//! * [`mpk::MpkGate`] — PKRU switch; ERIM-style on shared stacks, or
//!   Hodor-style with a per-compartment stack switch and parameter
//!   copying, per the backend's stack policy;
//! * [`vmrpc::VmRpcGate`] — one VM per compartment, RPC over inter-VM
//!   notifications with a shared window mapped at identical addresses;
//!
//! plus [`boot::instantiate`], which turns a validated
//! [`ImagePlan`](flexos::build::ImagePlan) into a booted
//! [`boot::BootImage`]: protection domains created, heaps wired
//! (global or per-compartment), shared window mapped, gate installed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boot;
pub mod cheri;
pub mod migrate;
pub mod mpk;
pub mod vmrpc;

pub use boot::{instantiate, instantiate_migratable, instantiate_with, BootImage, BootOptions};
pub use cheri::CheriGate;
pub use migrate::{migrate_all, prepare_pair_migration};
pub use mpk::MpkGate;
pub use vmrpc::VmRpcGate;
