//! Byte ring buffers in simulated memory.
//!
//! Socket receive/transmit buffers live in the network stack's
//! compartment memory, so every payload byte that flows through a socket
//! is subject to the machine's protection checks and copy costs.

use flexos_machine::{Addr, Machine, Result, VcpuId};

/// A byte ring over `[base, base+cap)` in simulated memory. Indices are
/// kept host-side (they are the stack's private metadata); the payload is
/// simulated.
#[derive(Debug, Clone)]
pub struct SimRing {
    base: Addr,
    cap: u64,
    head: u64, // total bytes read
    tail: u64, // total bytes written
}

impl SimRing {
    /// Creates a ring over pre-allocated simulated memory.
    pub fn new(base: Addr, cap: u64) -> Self {
        assert!(cap > 0, "ring capacity must be positive");
        Self {
            base,
            cap,
            head: 0,
            tail: 0,
        }
    }

    /// Bytes currently buffered.
    pub fn len(&self) -> u64 {
        self.tail - self.head
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Free space.
    pub fn free(&self) -> u64 {
        self.cap - self.len()
    }

    /// Total capacity.
    pub fn capacity(&self) -> u64 {
        self.cap
    }

    /// The backing region `(base, cap)`.
    pub fn region(&self) -> (Addr, u64) {
        (self.base, self.cap)
    }

    /// Writes as much of `data` as fits; returns bytes written.
    pub fn push(&mut self, m: &mut Machine, vcpu: VcpuId, data: &[u8]) -> Result<u64> {
        let n = (data.len() as u64).min(self.free());
        let mut written = 0u64;
        while written < n {
            let off = (self.tail + written) % self.cap;
            let run = (n - written).min(self.cap - off);
            m.write(
                vcpu,
                Addr(self.base.0 + off),
                &data[written as usize..(written + run) as usize],
            )?;
            written += run;
        }
        self.tail += n;
        Ok(n)
    }

    /// Copies up to `max` buffered bytes into simulated memory at `dst`;
    /// returns bytes moved.
    pub fn pop_to(&mut self, m: &mut Machine, vcpu: VcpuId, dst: Addr, max: u64) -> Result<u64> {
        let n = max.min(self.len());
        let mut moved = 0u64;
        while moved < n {
            let off = (self.head + moved) % self.cap;
            let run = (n - moved).min(self.cap - off);
            m.copy(vcpu, Addr(dst.0 + moved), Addr(self.base.0 + off), run)?;
            moved += run;
        }
        self.head += n;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexos_machine::{PageFlags, ProtKey, VmId};

    fn ring(cap: u64) -> (Machine, SimRing) {
        let mut m = Machine::with_defaults();
        let base = m
            .alloc_region(VmId(0), cap.max(1), ProtKey(0), PageFlags::RW)
            .unwrap();
        (m, SimRing::new(base, cap))
    }

    /// Pops up to `max` bytes through a scratch region onto `out`;
    /// returns bytes moved.
    fn pop_host(m: &mut Machine, r: &mut SimRing, out: &mut Vec<u8>, max: u64) -> u64 {
        let dst = m
            .alloc_region(VmId(0), max.max(1), ProtKey(0), PageFlags::RW)
            .unwrap();
        let n = r.pop_to(m, VcpuId(0), dst, max).unwrap();
        let start = out.len();
        out.resize(start + n as usize, 0);
        m.read(VcpuId(0), dst, &mut out[start..]).unwrap();
        n
    }

    #[test]
    fn push_pop_round_trip() {
        let (mut m, mut r) = ring(64);
        assert_eq!(r.push(&mut m, VcpuId(0), b"hello world").unwrap(), 11);
        assert_eq!(r.len(), 11);
        let dst = m
            .alloc_region(VmId(0), 64, ProtKey(0), PageFlags::RW)
            .unwrap();
        assert_eq!(r.pop_to(&mut m, VcpuId(0), dst, 64).unwrap(), 11);
        let mut buf = [0u8; 11];
        m.read(VcpuId(0), dst, &mut buf).unwrap();
        assert_eq!(&buf, b"hello world");
        assert!(r.is_empty());
    }

    #[test]
    fn wraparound_preserves_order() {
        let (mut m, mut r) = ring(8);
        let mut out = Vec::new();
        for chunk in [&b"abcde"[..], b"fgh", b"ijklm"] {
            // Fill and drain repeatedly so the indices wrap.
            assert_eq!(
                r.push(&mut m, VcpuId(0), chunk).unwrap(),
                chunk.len() as u64
            );
            pop_host(&mut m, &mut r, &mut out, 16);
        }
        assert_eq!(&out, b"abcdefghijklm");
    }

    #[test]
    fn push_is_bounded_by_free_space() {
        let (mut m, mut r) = ring(4);
        assert_eq!(r.push(&mut m, VcpuId(0), b"abcdef").unwrap(), 4);
        assert_eq!(r.free(), 0);
        assert_eq!(r.push(&mut m, VcpuId(0), b"x").unwrap(), 0);
    }

    #[test]
    fn pop_is_bounded_by_content() {
        let (mut m, mut r) = ring(16);
        r.push(&mut m, VcpuId(0), b"abc").unwrap();
        let mut out = Vec::new();
        assert_eq!(pop_host(&mut m, &mut r, &mut out, 100), 3);
        assert_eq!(out, b"abc");
    }

    #[test]
    fn pop_max_limits_transfer() {
        let (mut m, mut r) = ring(16);
        r.push(&mut m, VcpuId(0), b"abcdef").unwrap();
        let mut out = Vec::new();
        pop_host(&mut m, &mut r, &mut out, 2);
        assert_eq!(out, b"ab");
        assert_eq!(r.len(), 4);
    }
}
