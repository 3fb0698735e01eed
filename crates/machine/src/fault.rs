//! Fault and error types raised by the simulated machine.
//!
//! A [`Fault`] models a hardware exception (protection-key violation, page
//! fault, …) exactly where real silicon would raise one. Higher layers
//! treat faults as the simulated equivalent of a crash/trap: the FlexOS
//! integration tests assert that attacks *do* fault under the configured
//! isolation mechanism and do *not* under weaker configurations.

use crate::addr::Addr;
use crate::pkey::{Access, ProtKey};
use crate::vm::VmId;
use core::fmt;

/// A simulated hardware fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Access to a virtual page with no mapping in the current VM.
    PageNotPresent {
        /// Faulting virtual address.
        addr: Addr,
        /// VM whose address space was active.
        vm: VmId,
        /// The attempted access kind.
        access: Access,
    },
    /// Write to a page mapped read-only.
    WriteToReadOnly {
        /// Faulting virtual address.
        addr: Addr,
        /// VM whose address space was active.
        vm: VmId,
    },
    /// Protection-key check failed (the PKRU register disallowed the
    /// access for the page's key) — the MPK backend's enforcement signal.
    PkeyViolation {
        /// Faulting virtual address.
        addr: Addr,
        /// The key tagged on the faulting page.
        key: ProtKey,
        /// The attempted access kind.
        access: Access,
    },
    /// An attempt to execute `wrpkru` without holding the gate capability,
    /// caught by the configured PKRU-write guard (cf. §3: static analysis,
    /// runtime checks, or page-table sealing).
    UnauthorizedPkruWrite {
        /// The value the attacker tried to load into PKRU.
        attempted: u32,
    },
    /// A cross-VM access that the EPT-style isolation forbids (the address
    /// belongs to another VM and is not in the shared window).
    VmViolation {
        /// Faulting virtual address.
        addr: Addr,
        /// VM whose address space was active.
        vm: VmId,
    },
    /// A memory-manager operation met a sealed page table: nothing was
    /// allocated or mapped.
    PageTableSealed {
        /// The VM whose table is sealed.
        vm: VmId,
    },
    /// The machine ran out of physical frames.
    OutOfMemory {
        /// Number of frames that were requested.
        requested_pages: u64,
    },
    /// An address-range computation overflowed the 64-bit address space.
    AddressOverflow {
        /// Base address of the failed computation.
        addr: Addr,
        /// Length in bytes of the failed computation.
        len: u64,
    },
    /// A software-hardening mechanism (ASAN, canary, CFI, DFI, …) aborted
    /// execution. Carries the mechanism name and a human-readable reason.
    HardeningAbort {
        /// Name of the mechanism that fired (e.g. `"asan"`, `"cfi"`).
        mechanism: &'static str,
        /// Human-readable diagnostic.
        reason: String,
    },
    /// A verified component's runtime contract (pre/post-condition) failed.
    ContractViolation {
        /// The component whose contract failed.
        component: &'static str,
        /// The violated condition, as written in the contract.
        condition: String,
    },
    /// A gate gave up waiting for the remote side after exhausting its
    /// retry budget (e.g. every doorbell notification was lost).
    GateTimeout {
        /// The gate mechanism that timed out (e.g. `"vmrpc"`).
        mechanism: &'static str,
        /// Delivery attempts made before giving up.
        attempts: u32,
    },
    /// A doorbell notification carried an unexpected payload word — a
    /// forged or misrouted RPC descriptor caught at the gate.
    DoorbellMismatch {
        /// The payload word the gate expected.
        expected: u64,
        /// The payload word actually received.
        got: u64,
    },
    /// An async-gate submission ring had no free slot (cf. io_uring's
    /// `-EBUSY` on a full SQ): the caller must flush or reap before
    /// submitting more. A resource error, not a protection fault.
    RingFull {
        /// The ring that was full (e.g. `"gate-sq"`).
        ring: &'static str,
        /// The ring's slot capacity.
        depth: usize,
    },
    /// An async-gate completion ring had nothing to reap (cf. io_uring's
    /// `-EAGAIN` on an empty CQ): the caller must flush submissions
    /// first. A resource error, not a protection fault.
    RingEmpty {
        /// The ring that was empty (e.g. `"gate-cq"`).
        ring: &'static str,
    },
    /// A gate-call submission was refused because the compartment pair's
    /// backend is mid-migration: the quiescence protocol stops admission
    /// so a continuous submitter cannot stall the drain forever. A
    /// transient resource error, not a protection fault — resubmit once
    /// the swap completes.
    GateDraining {
        /// The mechanism being drained out (the pair's outgoing backend).
        mechanism: &'static str,
    },
}

impl Fault {
    /// Short machine-readable tag identifying the fault class.
    pub fn kind(&self) -> &'static str {
        match self {
            Fault::PageNotPresent { .. } => "page-not-present",
            Fault::WriteToReadOnly { .. } => "write-to-read-only",
            Fault::PkeyViolation { .. } => "pkey-violation",
            Fault::UnauthorizedPkruWrite { .. } => "unauthorized-pkru-write",
            Fault::VmViolation { .. } => "vm-violation",
            Fault::PageTableSealed { .. } => "page-table-sealed",
            Fault::OutOfMemory { .. } => "out-of-memory",
            Fault::AddressOverflow { .. } => "address-overflow",
            Fault::HardeningAbort { .. } => "hardening-abort",
            Fault::ContractViolation { .. } => "contract-violation",
            Fault::GateTimeout { .. } => "gate-timeout",
            Fault::DoorbellMismatch { .. } => "doorbell-mismatch",
            Fault::RingFull { .. } => "ring-full",
            Fault::RingEmpty { .. } => "ring-empty",
            Fault::GateDraining { .. } => "gate-draining",
        }
    }

    /// Returns `true` if this fault represents a *caught attack* — i.e. an
    /// isolation or hardening mechanism stopping an illegal action (rather
    /// than a resource or configuration error).
    pub fn is_protection_fault(&self) -> bool {
        matches!(
            self,
            Fault::PkeyViolation { .. }
                | Fault::WriteToReadOnly { .. }
                | Fault::UnauthorizedPkruWrite { .. }
                | Fault::VmViolation { .. }
                | Fault::HardeningAbort { .. }
                | Fault::PageNotPresent { .. }
                | Fault::DoorbellMismatch { .. }
        )
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::PageNotPresent { addr, vm, access } => {
                write!(f, "page not present: {access:?} at {addr} in vm{}", vm.0)
            }
            Fault::WriteToReadOnly { addr, vm } => {
                write!(f, "write to read-only page at {addr} in vm{}", vm.0)
            }
            Fault::PkeyViolation { addr, key, access } => {
                write!(
                    f,
                    "protection-key violation: {access:?} at {addr} (key {})",
                    key.0
                )
            }
            Fault::UnauthorizedPkruWrite { attempted } => {
                write!(f, "unauthorized wrpkru (attempted {attempted:#010x})")
            }
            Fault::VmViolation { addr, vm } => {
                write!(f, "EPT violation: access to {addr} from vm{}", vm.0)
            }
            Fault::PageTableSealed { vm } => write!(f, "page table of vm{} is sealed", vm.0),
            Fault::OutOfMemory { requested_pages } => {
                write!(
                    f,
                    "out of physical memory ({requested_pages} pages requested)"
                )
            }
            Fault::AddressOverflow { addr, len } => {
                write!(f, "address overflow at {addr} + {len}")
            }
            Fault::HardeningAbort { mechanism, reason } => {
                write!(f, "{mechanism} abort: {reason}")
            }
            Fault::ContractViolation {
                component,
                condition,
            } => {
                write!(f, "contract violation in {component}: {condition}")
            }
            Fault::GateTimeout {
                mechanism,
                attempts,
            } => {
                write!(f, "{mechanism} gate timed out after {attempts} attempts")
            }
            Fault::DoorbellMismatch { expected, got } => {
                write!(
                    f,
                    "doorbell payload mismatch: expected {expected:#x}, got {got:#x}"
                )
            }
            Fault::RingFull { ring, depth } => {
                write!(f, "{ring} ring full ({depth} slots)")
            }
            Fault::RingEmpty { ring } => {
                write!(f, "{ring} ring empty")
            }
            Fault::GateDraining { mechanism } => {
                write!(
                    f,
                    "{mechanism} gate draining for migration; admission stopped"
                )
            }
        }
    }
}

impl std::error::Error for Fault {}

/// Convenience alias for machine operations.
pub type Result<T> = core::result::Result<T, Fault>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protection_faults_are_classified() {
        let f = Fault::PkeyViolation {
            addr: Addr(0x1000),
            key: ProtKey(3),
            access: Access::Write,
        };
        assert!(f.is_protection_fault());
        assert_eq!(f.kind(), "pkey-violation");

        let f = Fault::OutOfMemory { requested_pages: 4 };
        assert!(!f.is_protection_fault());
    }

    #[test]
    fn ring_faults_are_resource_errors_not_protection_faults() {
        let full = Fault::RingFull {
            ring: "gate-sq",
            depth: 64,
        };
        assert!(!full.is_protection_fault());
        assert_eq!(full.kind(), "ring-full");
        assert!(full.to_string().contains("64 slots"));

        let empty = Fault::RingEmpty { ring: "gate-cq" };
        assert!(!empty.is_protection_fault());
        assert_eq!(empty.kind(), "ring-empty");
        assert!(empty.to_string().contains("empty"));
    }

    #[test]
    fn display_is_informative() {
        let f = Fault::UnauthorizedPkruWrite { attempted: 0xdead };
        let s = f.to_string();
        assert!(s.contains("wrpkru"));
        assert!(s.contains("0x0000dead"));
    }
}
