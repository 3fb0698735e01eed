//! # flexos-machine — deterministic simulated hardware substrate
//!
//! This crate is the hardware the FlexOS-rs reproduction runs on: a
//! deterministic, cycle-accounted model of the paper's testbed (an Intel
//! Xeon Silver 4110 @ 2.1 GHz running KVM/Xen guests with Memory
//! Protection Keys).
//!
//! It provides, faithfully to the mechanisms the paper builds on:
//!
//! * **Paged memory** ([`mem`], [`page`], [`frame`], [`addr`]) — 4 KiB
//!   pages, per-VM extent page tables, a run-based frame allocator, and a
//!   flat physical byte store that actually holds all simulated data.
//! * **Memory Protection Keys** ([`pkey`]) — 16 keys, PKRU with AD/WD bits
//!   per the Intel SDM, checked on every modelled access; `wrpkru` guarded
//!   by a gate capability (modelling ERIM call-site vetting / Hodor
//!   runtime checks / page-table sealing).
//! * **EPT-style VM isolation** ([`vm`]) — multiple address spaces, a
//!   shared window mapped at identical addresses in every VM, and
//!   inter-VM notification doorbells for RPC.
//! * **Cycle-accurate accounting** ([`clock`]) — every modelled operation
//!   charges a calibrated cost; throughput numbers in the benchmark
//!   harness are derived purely from this clock, making every experiment
//!   bit-for-bit reproducible.
//! * **Host-side utility** ([`hash`], [`bits`]) — the workspace's one
//!   fixed, unkeyed hasher and its one bit vector, here because every
//!   crate that keeps a probed-only table on a hot path (the kernel heap,
//!   the TCP demux, the stores) or a flag per slot of a dense table (the
//!   executor, the stack's active set) sees this one.
//!
//! The enforcement is real within the model: data lives in simulated
//! physical memory and every access is translated and permission-checked,
//! so the integration tests can demonstrate attacks being caught (or not)
//! depending on the configured isolation — the core claim of FlexOS.
//!
//! ## Example
//!
//! ```
//! use flexos_machine::{Machine, MachineConfig};
//! use flexos_machine::addr::Addr;
//! use flexos_machine::cpu::VcpuId;
//! use flexos_machine::page::PageFlags;
//! use flexos_machine::pkey::{Pkru, ProtKey};
//! use flexos_machine::vm::VmId;
//!
//! let mut m = Machine::with_defaults();
//! // Give the "network stack" its own protection domain (key 1).
//! let buf = m.alloc_region(VmId(0), 4096, ProtKey(1), PageFlags::RW).unwrap();
//! m.write(VcpuId(0), buf, b"packet").unwrap();
//!
//! // Enter a compartment that may not touch key 1:
//! let tok = m.gate_token();
//! m.wrpkru(VcpuId(0), Pkru::deny_all_except(&[ProtKey(0)], &[]), Some(tok)).unwrap();
//! assert!(m.write(VcpuId(0), buf, b"overwrite!").is_err()); // caught!
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod bits;
pub mod cap;
pub mod chaos;
pub mod clock;
pub mod cpu;
pub mod fault;
pub mod frame;
pub mod hash;
pub mod machine;
pub mod mem;
pub mod page;
pub mod pkey;
pub mod tlb;
pub mod vm;

pub use addr::{Addr, PhysAddr, PAGE_SIZE};
pub use bits::BitVec;
pub use cap::{CapPerms, Capability, OType};
pub use chaos::{ChaosConfig, ChaosPlan, ChaosStats, NotifyFate, Schedule, SplitMix64};
pub use clock::{cycles_to_nanos, nanos_to_cycles, throughput_mbps, Clock, CostTable, CPU_FREQ_HZ};
pub use cpu::{PkruGuard, Vcpu, VcpuId};
pub use fault::{Fault, Result};
pub use hash::{FixedHasher, FixedMap};
pub use machine::{GateToken, Machine, MachineConfig};
pub use page::PageFlags;
pub use pkey::{Access, Pkru, ProtKey};
pub use tlb::{Tlb, TLB_ENTRIES};
pub use vm::VmId;
