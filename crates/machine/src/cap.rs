//! CHERI-style capabilities.
//!
//! The paper motivates FlexOS with heterogeneous protection hardware —
//! "certain primitives are hardware-dependent (e.g. Intel Memory
//! Protection Keys – MPK)" with CHERI cited as the other emerging
//! example (§1, \[55\]). This module models the CHERI primitives a
//! capability backend needs:
//!
//! * a **capability** is an unforgeable, bounds- and permission-carrying
//!   pointer ([`Capability`]);
//! * capabilities can only be **derived downward** (narrower bounds,
//!   fewer permissions — provenance is preserved, privilege only
//!   shrinks);
//! * capabilities can be **sealed** with an object type, making them
//!   immutable and non-dereferenceable until the matching unseal — the
//!   CHERI `CSeal`/`CInvoke` domain-transition idiom FlexOS-style gates
//!   build on.
//!
//! Dereferences go through [`Machine::read_via_cap`] /
//! [`Machine::write_via_cap`](crate::machine::Machine), which enforce
//! tag, seal, bounds and permissions before touching memory.

use crate::addr::Addr;
use crate::fault::Fault;

/// Capability permissions (the subset FlexOS gates need).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapPerms {
    /// May load through this capability.
    pub read: bool,
    /// May store through this capability.
    pub write: bool,
}

impl CapPerms {
    /// Read & write.
    pub const RW: CapPerms = CapPerms {
        read: true,
        write: true,
    };
    /// Read-only.
    pub const RO: CapPerms = CapPerms {
        read: true,
        write: false,
    };

    /// Whether `self` grants no more than `other`.
    pub fn subset_of(self, other: CapPerms) -> bool {
        (!self.read || other.read) && (!self.write || other.write)
    }
}

/// An object type for sealing (the compartment identity in gate usage).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OType(pub u32);

/// A CHERI-style capability over `[base, base+len)`.
///
/// Constructed only via [`Capability::root`] (the boot-time authority a
/// backend holds) and narrowed via [`Capability::derive`]; there is no
/// way to widen one — modelling hardware tag-protected unforgeability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capability {
    base: Addr,
    len: u64,
    perms: CapPerms,
    sealed: Option<OType>,
}

/// Every capability violation is the same typed fault; built out of
/// line so the checks that raise it stay small enough to inline.
#[cold]
fn violation(reason: impl Into<String>) -> Fault {
    Fault::HardeningAbort {
        mechanism: "cheri",
        reason: reason.into(),
    }
}

impl Capability {
    /// Mints a root capability. This is the privileged boot-time
    /// operation (the almighty initial capability register state);
    /// everything else derives from it.
    pub fn root(base: Addr, len: u64) -> Self {
        Self {
            base,
            len,
            perms: CapPerms::RW,
            sealed: None,
        }
    }

    /// Base address.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Permissions.
    pub fn perms(&self) -> CapPerms {
        self.perms
    }

    /// Whether the capability is sealed.
    pub fn is_sealed(&self) -> bool {
        self.sealed.is_some()
    }

    /// Derives a narrower capability: bounds within ours, permissions no
    /// greater, unsealed input only. Monotone privilege reduction.
    pub fn derive(&self, offset: u64, len: u64, perms: CapPerms) -> Result<Capability, Fault> {
        if self.is_sealed() {
            return Err(violation("derive from sealed capability"));
        }
        let end = offset.checked_add(len);
        if end.is_none() || end.expect("checked") > self.len || !perms.subset_of(self.perms) {
            return Err(violation(format!(
                "monotonicity violation: derive [{offset}+{len}) perms {perms:?} from \
                 [0+{}) perms {:?}",
                self.len, self.perms
            )));
        }
        Ok(Capability {
            base: Addr(self.base.0 + offset),
            len,
            perms,
            sealed: None,
        })
    }

    /// Seals with `otype` (gate construction). Sealed capabilities are
    /// opaque: no deref, no derive, until unsealed with the same type.
    pub fn seal(&self, otype: OType) -> Result<Capability, Fault> {
        if self.is_sealed() {
            return Err(violation("double seal"));
        }
        Ok(Capability {
            sealed: Some(otype),
            ..*self
        })
    }

    /// Unseals with the matching object type (the `CInvoke` half). A
    /// gate runs this on every crossing, hence the inline hint.
    #[inline]
    pub fn unseal(&self, otype: OType) -> Result<Capability, Fault> {
        match self.sealed {
            Some(t) if t == otype => Ok(Capability {
                sealed: None,
                ..*self
            }),
            Some(_) => Err(violation("unseal with wrong object type")),
            None => Err(violation("unseal of unsealed capability")),
        }
    }

    /// Validates an access of `len` bytes at `offset`; returns the
    /// concrete address on success.
    pub fn check_access(&self, offset: u64, len: u64, write: bool) -> Result<Addr, Fault> {
        if self.is_sealed() {
            return Err(violation("dereference of sealed capability"));
        }
        if (write && !self.perms.write) || (!write && !self.perms.read) {
            return Err(violation(format!(
                "permission violation ({:?})",
                self.perms
            )));
        }
        let end = offset.checked_add(len.max(1));
        if end.is_none() || end.expect("checked") > self.len {
            return Err(violation(format!(
                "bounds violation: [{offset}+{len}) of {}",
                self.len
            )));
        }
        Ok(Addr(self.base.0 + offset))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> Capability {
        Capability::root(Addr(0x1000), 0x1000)
    }

    #[test]
    fn derive_narrows_bounds_and_perms() {
        let c = root().derive(0x100, 0x200, CapPerms::RO).unwrap();
        assert_eq!(c.base(), Addr(0x1100));
        assert_eq!(c.len(), 0x200);
        assert!(!c.perms().write);
    }

    #[test]
    fn derive_cannot_widen() {
        let narrow = root().derive(0, 0x100, CapPerms::RO).unwrap();
        // Longer than parent: refused.
        assert!(narrow.derive(0, 0x200, CapPerms::RO).is_err());
        // More permissions than parent: refused.
        assert!(narrow.derive(0, 0x50, CapPerms::RW).is_err());
        // Out-of-bounds offset: refused (including overflow).
        assert!(root().derive(0xF00, 0x200, CapPerms::RO).is_err());
        assert!(root().derive(u64::MAX, 2, CapPerms::RO).is_err());
    }

    #[test]
    fn access_checks_bounds_perms_and_seal() {
        let c = root().derive(0, 0x100, CapPerms::RO).unwrap();
        assert_eq!(c.check_access(0x10, 8, false).unwrap(), Addr(0x1010));
        assert!(c.check_access(0x10, 8, true).is_err()); // no write perm
        assert!(c.check_access(0xFC, 8, false).is_err()); // spills past end
        let sealed = c.seal(OType(7)).unwrap();
        assert!(sealed.check_access(0, 1, false).is_err());
    }

    #[test]
    fn seal_unseal_round_trip_requires_matching_otype() {
        let c = root();
        let sealed = c.seal(OType(3)).unwrap();
        assert!(sealed.is_sealed());
        assert!(sealed.derive(0, 1, CapPerms::RO).is_err());
        assert!(sealed.unseal(OType(4)).is_err());
        let back = sealed.unseal(OType(3)).unwrap();
        assert_eq!(back, c);
        assert!(c.unseal(OType(3)).is_err()); // unsealed input
        assert!(sealed.seal(OType(5)).is_err()); // double seal
    }
}
