//! Simulated physical memory.
//!
//! A flat byte array indexed by physical address. All data that flows
//! through the simulated system (packet payloads, heap objects, stacks)
//! actually lives here, so isolation is *enforced*, not just costed: a
//! compartment that computes a pointer into another compartment's pages
//! and dereferences it hits the same checks real hardware would apply.
//!
//! A boot reuses memory, not page faults (DESIGN.md §6.25). A fresh
//! array costs the host an `mmap`, a first-touch fault on every host
//! page the run touches and an `munmap`; boots repeat, so `PhysMem`
//! keeps one bit per frame, set by the machine where it walks its page
//! table ([`PhysMem::mark`]). Every store goes through such a walk, so
//! the unmarked frames are still zero when the memory is dropped: the
//! drop zeroes the marked ones and parks the array on a small
//! per-thread spare list, and the next `PhysMem` of the same length
//! takes it instead of allocating. Either way a new `PhysMem` reads all
//! zero, and a page the host already faulted in is never faulted again.

use crate::addr::{Pfn, PhysAddr, PAGE_SIZE};
use crate::fault::{Fault, Result};
use std::cell::RefCell;

/// Arrays a thread keeps for its next boots: a server and a client
/// machine, with room to spare.
const SPARES: usize = 4;

thread_local! {
    /// Dropped arrays, all zero, each waiting for a `PhysMem` of its
    /// exact length.
    static SPARE: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

/// The machine's physical memory.
#[derive(Debug, Clone)]
pub struct PhysMem {
    bytes: Vec<u8>,
    /// One bit per frame: set once the machine translated the frame, so
    /// a clear bit means the frame was never stored to.
    marked: Vec<u64>,
}

impl PhysMem {
    /// Allocates `frames` frames of zeroed physical memory, reusing a
    /// dropped array of the same length if this thread kept one.
    pub fn new(frames: u64) -> Self {
        let len = (frames * PAGE_SIZE) as usize;
        let spare = SPARE.try_with(|spare| {
            let mut spare = spare.borrow_mut();
            let at = spare.iter().position(|b| b.len() == len)?;
            Some(spare.swap_remove(at))
        });
        Self {
            bytes: spare.ok().flatten().unwrap_or_else(|| vec![0; len]),
            marked: vec![0; frames.div_ceil(64) as usize],
        }
    }

    /// Marks frame `pfn` as translated: it may be stored to from now on,
    /// and is zeroed when the memory is dropped.
    #[inline]
    pub fn mark(&mut self, pfn: Pfn) {
        self.marked[(pfn.0 / 64) as usize] |= 1 << (pfn.0 % 64);
    }

    /// Whether every frame under the byte range `r` is marked (an empty
    /// range is).
    fn all_marked(&self, r: &core::ops::Range<usize>) -> bool {
        let page = PAGE_SIZE as usize;
        (r.start / page..r.end.div_ceil(page)).all(|f| self.marked[f / 64] & (1 << (f % 64)) != 0)
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
        debug_assert!(self.all_marked(&r), "store to an unmarked frame at {at:?}");
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
        debug_assert!(self.all_marked(&r), "store to an unmarked frame at {at:?}");
        let b: &mut [u8; 8] = (&mut self.bytes[r])
            .try_into()
            .expect("range() returned 8 bytes");
        *b = v.to_le_bytes();
        Ok(())
    }

    /// Fills `len` bytes starting at `at` with `value`.
    pub fn fill(&mut self, at: PhysAddr, len: u64, value: u8) -> Result<()> {
        let r = self.range(at, len)?;
        debug_assert!(self.all_marked(&r), "store to an unmarked frame at {at:?}");
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
        debug_assert!(
            self.all_marked(&dr),
            "store to an unmarked frame at {dst:?}"
        );
        self.bytes.copy_within(sr, dr.start);
        Ok(())
    }
}

impl Drop for PhysMem {
    /// Parks the array, its marked frames zeroed, for the next `PhysMem`
    /// of its length; with the spare list full, or gone at thread exit,
    /// the array is freed as it is.
    fn drop(&mut self) {
        if self.bytes.is_empty() {
            return;
        }
        let _ = SPARE.try_with(|spare| {
            let mut spare = spare.borrow_mut();
            if spare.len() < SPARES {
                let page = PAGE_SIZE as usize;
                for (k, &word) in self.marked.iter().enumerate() {
                    let mut w = word;
                    while w != 0 {
                        let at = (k * 64 + w.trailing_zeros() as usize) * page;
                        if let Some(frame) = self.bytes.get_mut(at..at + page) {
                            frame.fill(0);
                        }
                        w &= w - 1;
                    }
                }
                spare.push(std::mem::take(&mut self.bytes));
            }
        });
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
        m.mark(Pfn(0));
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
        m.mark(Pfn(0));
        m.fill(PhysAddr(10), 4, 0xAA).unwrap();
        assert_eq!(
            m.slice(PhysAddr(9), 6).unwrap(),
            &[0, 0xAA, 0xAA, 0xAA, 0xAA, 0]
        );
    }

    #[test]
    fn the_next_memory_of_a_length_reuses_the_dropped_array_zeroed() {
        let mut m = PhysMem::new(3);
        m.mark(Pfn(0));
        m.mark(Pfn(2));
        m.fill(PhysAddr(0), PAGE_SIZE, 0xAA).unwrap();
        m.write_u64(PhysAddr(3 * PAGE_SIZE - 8), u64::MAX).unwrap();
        let first = m.bytes.as_ptr();
        drop(m);
        let other = PhysMem::new(2);
        assert_ne!(other.bytes.as_ptr(), first, "an array of another length");
        let again = PhysMem::new(3);
        assert_eq!(again.bytes.as_ptr(), first, "the dropped array is reused");
        assert!(again.bytes.iter().all(|&b| b == 0));
        assert!(again.marked.iter().all(|&w| w == 0), "marks start clear");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "unmarked frame")]
    fn a_store_to_an_unmarked_frame_is_caught() {
        let mut m = PhysMem::new(2);
        m.mark(Pfn(0));
        let _ = m.write(PhysAddr(PAGE_SIZE - 2), b"xyz");
    }
}
