//! Simulated virtual machines (EPT-style domains) and inter-VM doorbells.
//!
//! In the FlexOS VM backend, the toolchain generates **one VM image per
//! compartment**; a shared heap window is mapped *at the same virtual
//! address* in every VM so pointers into shared structures stay valid, and
//! compartments communicate by RPC over inter-VM notifications (paper §3,
//! "VM-based Backend"). This module provides exactly those pieces: a VM is
//! an address space (its own [`PageTable`]) plus a notification doorbell.

use crate::page::PageTable;
use core::fmt;
use std::collections::VecDeque;

/// Identifier of a simulated VM. VM 0 always exists ("the" machine for
/// single-address-space configurations such as the MPK backend).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VmId(pub u8);

impl fmt::Display for VmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vm{}", self.0)
    }
}

/// A pending inter-VM notification (event-channel message).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Notification {
    /// Sender VM.
    pub from: VmId,
    /// Opaque payload word (FlexOS RPC uses it as a descriptor index into
    /// the shared heap).
    pub word: u64,
}

/// A simulated VM: one address space and one doorbell queue.
#[derive(Debug)]
pub struct Vm {
    /// The VM's identity.
    pub id: VmId,
    /// The VM's private page table.
    pub page_table: PageTable,
    /// Whether protection keys are enforced inside this VM (true for the
    /// MPK backend's single VM, false for pure EPT isolation where each
    /// compartment already has its own address space).
    pub pkeys_enabled: bool,
    /// Pending notifications (doorbell FIFO).
    doorbell: VecDeque<Notification>,
    /// Next free virtual page number for region allocation (bump).
    next_vpn: u64,
}

/// Virtual-address stride between VMs' private regions (1 GiB of pages).
///
/// Each VM bump-allocates its private mappings from a distinct base so
/// that private addresses never alias across VMs: a pointer leaked from
/// one compartment dereferenced in another VM reliably faults as an EPT
/// violation instead of silently hitting that VM's own data.
const VM_VA_STRIDE_PAGES: u64 = 0x40000;

impl Vm {
    /// Creates an empty VM. Page 0 of every VM stays unmapped so address
    /// 0 faults like a real null page, and each VM's private mappings
    /// start at a distinct [`VM_VA_STRIDE_PAGES`] multiple.
    pub fn new(id: VmId, pkeys_enabled: bool) -> Self {
        Self {
            id,
            page_table: PageTable::new(),
            pkeys_enabled,
            doorbell: VecDeque::new(),
            next_vpn: 1 + u64::from(id.0) * VM_VA_STRIDE_PAGES,
        }
    }

    /// Reserves `pages` consecutive virtual pages and returns the first VPN.
    pub fn reserve_vpns(&mut self, pages: u64) -> u64 {
        let first = self.next_vpn;
        self.next_vpn += pages;
        first
    }

    /// Enqueues a notification on this VM's doorbell.
    pub fn post(&mut self, n: Notification) {
        self.doorbell.push_back(n);
    }

    /// Dequeues the oldest pending notification, if any.
    pub fn take_notification(&mut self) -> Option<Notification> {
        self.doorbell.pop_front()
    }

    /// The oldest pending notification without consuming it.
    pub fn peek_notification(&self) -> Option<&Notification> {
        self.doorbell.front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doorbell_is_fifo() {
        let mut vm = Vm::new(VmId(1), false);
        vm.post(Notification {
            from: VmId(0),
            word: 1,
        });
        vm.post(Notification {
            from: VmId(0),
            word: 2,
        });
        assert_eq!(vm.take_notification().unwrap().word, 1);
        assert_eq!(vm.take_notification().unwrap().word, 2);
        assert!(vm.take_notification().is_none());
    }

    #[test]
    fn vpn_reservation_is_monotonic_and_disjoint() {
        let mut vm = Vm::new(VmId(0), true);
        let a = vm.reserve_vpns(4);
        let b = vm.reserve_vpns(2);
        assert!(a + 4 <= b);
    }

    #[test]
    fn page_zero_is_never_handed_out() {
        let mut vm = Vm::new(VmId(0), true);
        assert!(vm.reserve_vpns(1) >= 1);
    }
}
