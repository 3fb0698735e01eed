//! Virtual and physical address types and page-granularity helpers.
//!
//! The simulated machine uses 4 KiB pages, like the x86-64 hardware the
//! FlexOS prototype ran on. Addresses are newtypes over `u64` so that
//! virtual and physical addresses cannot be confused at compile time.

use core::fmt;

/// Size of a page in bytes (4 KiB, matching x86-64 small pages).
pub const PAGE_SIZE: u64 = 4096;

/// Shift corresponding to [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;

/// A virtual address inside a simulated VM's address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

/// A physical address inside the simulated machine's physical memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(pub u64);

/// A virtual page number (virtual address / [`PAGE_SIZE`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Vpn(pub u64);

/// A physical frame number (physical address / [`PAGE_SIZE`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pfn(pub u64);

impl Addr {
    /// Returns the virtual page this address falls in.
    #[inline]
    pub fn vpn(self) -> Vpn {
        Vpn(self.0 >> PAGE_SHIFT)
    }

    /// Returns the byte offset of this address within its page.
    #[inline]
    pub fn page_offset(self) -> u64 {
        self.0 & (PAGE_SIZE - 1)
    }

    /// Returns the address advanced by `bytes`, or `None` on overflow.
    #[inline]
    pub fn checked_add(self, bytes: u64) -> Option<Addr> {
        self.0.checked_add(bytes).map(Addr)
    }
}

impl PhysAddr {
    /// Returns the physical frame this address falls in.
    #[inline]
    pub fn pfn(self) -> Pfn {
        Pfn(self.0 >> PAGE_SHIFT)
    }
}

impl Vpn {
    /// Returns the base virtual address of this page.
    #[inline]
    pub fn base(self) -> Addr {
        Addr(self.0 << PAGE_SHIFT)
    }
}

impl Pfn {
    /// Returns the base physical address of this frame.
    #[inline]
    pub fn base(self) -> PhysAddr {
        PhysAddr(self.0 << PAGE_SHIFT)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{:#x}", self.0)
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{:#x}", self.0)
    }
}

/// Computes how many pages are needed to hold `bytes` bytes.
#[inline]
pub fn pages_for(bytes: u64) -> u64 {
    bytes.div_ceil(PAGE_SIZE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vpn_and_offset_split_an_address() {
        let a = Addr(0x1234);
        assert_eq!(a.vpn(), Vpn(1));
        assert_eq!(a.page_offset(), 0x234);
    }

    #[test]
    fn pages_for_rounds_up() {
        assert_eq!(pages_for(0), 0);
        assert_eq!(pages_for(1), 1);
        assert_eq!(pages_for(PAGE_SIZE), 1);
        assert_eq!(pages_for(PAGE_SIZE + 1), 2);
    }

    #[test]
    fn page_base_round_trips() {
        let a = Addr(0x5678);
        assert_eq!(a.vpn().base().0 + a.page_offset(), a.0);
        let p = PhysAddr(0x9abc);
        assert_eq!(p.pfn().base().0 + 0xabc, p.0);
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert_eq!(Addr(u64::MAX).checked_add(1), None);
        assert_eq!(Addr(10).checked_add(5), Some(Addr(15)));
    }
}
