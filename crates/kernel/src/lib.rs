//! # flexos-kernel — the LibOS micro-library substrate
//!
//! The Unikraft-role crate: the fine-grained kernel components FlexOS
//! places into compartments. Matching the paper's inventory ("a
//! scheduler, a memory allocator or a message queue are all micro-libs",
//! §2):
//!
//! * [`alloc`] — the first-fit free-list allocator behind the
//!   [`alloc::Allocator`] trait, and [`alloc::HeapService`] providing
//!   the global-vs-per-compartment allocator topology that Figure 4's
//!   experiment turns on.
//! * [`sched`] — the plain cooperative scheduler and the **verified
//!   scheduler** (contract-checked port of the paper's Dafny scheduler,
//!   with the 76.6 ns vs 218.6 ns context-switch cost difference).
//! * [`exec`] — the cooperative executor driving [`exec::Task`] state
//!   machines over either scheduler, restoring per-thread compartment
//!   protection (saved PKRU) on every switch.
//! * [`cotask`] — per-connection cooperative tasks for the serving
//!   tier: a slab + FIFO run queue stepped only for *woken* tasks, the
//!   executor half of the O(ready) serving contract.
//! * [`sync`] — counting semaphores. These live in the LibC
//!   compartment in the evaluation images, reproducing the paper's
//!   finding that merging the network stack and scheduler compartments
//!   does not help while semaphores sit elsewhere.
//! * [`migrate`] — the live gate-backend migration policy (escalate on
//!   threat evidence, relax under sustained load) driving the core
//!   quiescence protocol from the reproduce and serve harnesses.
//! * [`mq`] — a message-queue micro-library in simulated shared memory.
//! * [`contract`] — the runtime pre/post-condition layer standing in for
//!   Dafny's static proofs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod contract;
pub mod cotask;
pub mod exec;
pub mod migrate;
pub mod mq;
pub mod sched;
pub mod sync;

pub use alloc::{AllocMode, Allocator, FreeListAllocator, HeapService};
pub use cotask::{CoExecutor, CoPoll, CoTask, CoTaskId, SlotTaken};
pub use exec::{ExecSummary, Executor, KernelHal, Step, Task};
pub use migrate::{MigrationPolicy, PolicyDecision, PolicySignals};
pub use mq::MsgQueue;
pub use sched::{CoopScheduler, RunQueue, ThreadId, VerifiedScheduler};
pub use sync::{SemId, SemTable, Semaphore, WaitChannel};
