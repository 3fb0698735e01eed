//! Simulated physical memory.
//!
//! A flat byte array indexed by physical address. All data that flows
//! through the simulated system (packet payloads, heap objects, stacks)
//! actually lives here, so isolation is *enforced*, not just costed: a
//! compartment that computes a pointer into another compartment's pages
//! and dereferences it hits the same checks real hardware would apply.

use crate::addr::{PhysAddr, PAGE_SIZE};
use crate::fault::{Fault, Result};

/// The machine's physical memory.
#[derive(Debug, Clone)]
pub struct PhysMem {
    bytes: Vec<u8>,
}

impl PhysMem {
    /// Allocates `frames` frames of zeroed physical memory.
    pub fn new(frames: u64) -> Self {
        Self {
            bytes: vec![0; (frames * PAGE_SIZE) as usize],
        }
    }

    /// Size in bytes.
    pub fn len(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Whether the memory is empty (only for zero-frame machines).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    fn range(&self, at: PhysAddr, len: u64) -> Result<core::ops::Range<usize>> {
        let end = at.0.checked_add(len).ok_or(Fault::AddressOverflow {
            addr: crate::addr::Addr(at.0),
            len,
        })?;
        if end > self.len() {
            return Err(Fault::AddressOverflow {
                addr: crate::addr::Addr(at.0),
                len,
            });
        }
        Ok(at.0 as usize..end as usize)
    }

    /// Reads `dst.len()` bytes starting at `at`.
    pub fn read(&self, at: PhysAddr, dst: &mut [u8]) -> Result<()> {
        let r = self.range(at, dst.len() as u64)?;
        dst.copy_from_slice(&self.bytes[r]);
        Ok(())
    }

    /// Writes `src` starting at `at`.
    pub fn write(&mut self, at: PhysAddr, src: &[u8]) -> Result<()> {
        let r = self.range(at, src.len() as u64)?;
        self.bytes[r].copy_from_slice(src);
        Ok(())
    }

    /// Reads the little-endian `u64` at `at`: a fixed-width load.
    pub fn read_u64(&self, at: PhysAddr) -> Result<u64> {
        let r = self.range(at, 8)?;
        let b: [u8; 8] = self.bytes[r].try_into().expect("range() returned 8 bytes");
        Ok(u64::from_le_bytes(b))
    }

    /// Writes `v` little-endian at `at`: a fixed-width store.
    pub fn write_u64(&mut self, at: PhysAddr, v: u64) -> Result<()> {
        let r = self.range(at, 8)?;
        let b: &mut [u8; 8] = (&mut self.bytes[r])
            .try_into()
            .expect("range() returned 8 bytes");
        *b = v.to_le_bytes();
        Ok(())
    }

    /// Fills `len` bytes starting at `at` with `value`.
    pub fn fill(&mut self, at: PhysAddr, len: u64, value: u8) -> Result<()> {
        let r = self.range(at, len)?;
        self.bytes[r].fill(value);
        Ok(())
    }

    /// Borrows `len` bytes starting at `at` (read-only view).
    pub fn slice(&self, at: PhysAddr, len: u64) -> Result<&[u8]> {
        let r = self.range(at, len)?;
        Ok(&self.bytes[r])
    }

    /// Copies `len` bytes from `src` to `dst` inside physical memory
    /// without bouncing through a host buffer. Overlapping ranges copy
    /// with memmove semantics (as if through a temporary).
    pub fn copy_within(&mut self, dst: PhysAddr, src: PhysAddr, len: u64) -> Result<()> {
        let sr = self.range(src, len)?;
        let dr = self.range(dst, len)?;
        self.bytes.copy_within(sr, dr.start);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_zeroed() {
        let m = PhysMem::new(1);
        let mut buf = [1u8; 16];
        m.read(PhysAddr(0), &mut buf).unwrap();
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    fn write_read_round_trip() {
        let mut m = PhysMem::new(1);
        m.write(PhysAddr(100), b"flexos").unwrap();
        let mut buf = [0u8; 6];
        m.read(PhysAddr(100), &mut buf).unwrap();
        assert_eq!(&buf, b"flexos");
    }

    #[test]
    fn out_of_range_access_faults() {
        let mut m = PhysMem::new(1);
        assert!(m.write(PhysAddr(PAGE_SIZE - 2), b"xyz").is_err());
        let mut buf = [0u8; 3];
        assert!(m.read(PhysAddr(PAGE_SIZE), &mut buf).is_err());
    }

    #[test]
    fn overflowing_range_faults_not_panics() {
        let m = PhysMem::new(1);
        let mut buf = [0u8; 8];
        assert!(matches!(
            m.read(PhysAddr(u64::MAX - 2), &mut buf),
            Err(Fault::AddressOverflow { .. })
        ));
    }

    #[test]
    fn fill_sets_exact_range() {
        let mut m = PhysMem::new(1);
        m.fill(PhysAddr(10), 4, 0xAA).unwrap();
        assert_eq!(
            m.slice(PhysAddr(9), 6).unwrap(),
            &[0, 0xAA, 0xAA, 0xAA, 0xAA, 0]
        );
    }
}
