//! Byte ring buffers in simulated memory.
//!
//! Socket receive/transmit buffers live in the network stack's
//! compartment memory, so every payload byte that flows through a socket
//! is subject to the machine's protection checks and copy costs.

use flexos_machine::{Addr, Machine, Result, VcpuId};

/// A byte ring over `[base, base+cap)` in simulated memory. Indices are
/// kept host-side (they are the stack's private metadata); the payload is
/// simulated. One of these sits in every socket slot, so its indices are
/// as narrow as a ring's capacity allows.
#[derive(Debug, Clone)]
pub struct SimRing {
    base: Addr,
    cap: u32,
    /// Offset of the oldest buffered byte, `< cap`.
    head: u32,
    /// Bytes buffered.
    len: u32,
}

impl SimRing {
    /// Creates a ring over pre-allocated simulated memory.
    pub fn new(base: Addr, cap: u32) -> Self {
        assert!(cap > 0, "ring capacity must be positive");
        Self {
            base,
            cap,
            head: 0,
            len: 0,
        }
    }

    /// Bytes currently buffered.
    pub fn len(&self) -> u64 {
        u64::from(self.len)
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Free space.
    pub fn free(&self) -> u64 {
        u64::from(self.cap - self.len)
    }

    /// Total capacity.
    pub fn capacity(&self) -> u64 {
        u64::from(self.cap)
    }

    /// The backing region `(base, cap)`.
    pub fn region(&self) -> (Addr, u64) {
        (self.base, self.capacity())
    }

    /// The offset `n` bytes past the head, wrapped into `[0, cap)`. Every
    /// caller passes `n <= cap` and `head < cap`, so one subtraction
    /// wraps it.
    fn wrap(&self, n: u64) -> u64 {
        let off = u64::from(self.head) + n;
        if off >= self.capacity() {
            off - self.capacity()
        } else {
            off
        }
    }

    /// Writes as much of `data` as fits; returns bytes written.
    pub fn push(&mut self, m: &mut Machine, vcpu: VcpuId, data: &[u8]) -> Result<u64> {
        let n = (data.len() as u64).min(self.free());
        let mut written = 0u64;
        while written < n {
            let off = self.wrap(self.len() + written);
            let run = (n - written).min(self.capacity() - off);
            m.write(
                vcpu,
                Addr(self.base.0 + off),
                &data[written as usize..(written + run) as usize],
            )?;
            written += run;
        }
        // `n <= free()`, so the sum stays within `cap`.
        self.len += n as u32;
        Ok(n)
    }

    /// Copies up to `max` buffered bytes into simulated memory at `dst`;
    /// returns bytes moved.
    pub fn pop_to(&mut self, m: &mut Machine, vcpu: VcpuId, dst: Addr, max: u64) -> Result<u64> {
        let n = max.min(self.len());
        let mut moved = 0u64;
        while moved < n {
            let off = self.wrap(moved);
            let run = (n - moved).min(self.capacity() - off);
            m.copy(vcpu, Addr(dst.0 + moved), Addr(self.base.0 + off), run)?;
            moved += run;
        }
        self.head = self.wrap(n) as u32;
        self.len -= n as u32;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexos_machine::{PageFlags, ProtKey, VmId};
    use std::collections::VecDeque;

    fn ring(cap: u32) -> (Machine, SimRing) {
        let mut m = Machine::with_defaults();
        let base = m
            .alloc_region(VmId(0), u64::from(cap), ProtKey(0), PageFlags::RW)
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

    /// The ring against a `VecDeque<u8>` model, at a capacity that is not
    /// a power of two so every wrap point is exercised: pushes and pops
    /// of seeded lengths, the bytes popped and the fill after each.
    #[test]
    fn ring_matches_a_deque_model_across_thousands_of_wraps() {
        const CAP: u32 = 7;
        let (mut m, mut r) = ring(CAP);
        let dst = m
            .alloc_region(VmId(0), 16, ProtKey(0), PageFlags::RW)
            .unwrap();
        let mut model = VecDeque::new();
        let (mut rng, mut next) = (0x9e37_79b9_7f4a_7c15u64, 0u8);
        let mut draw = |bound: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % bound
        };
        for step in 0..5_000 {
            let data: Vec<u8> = (0..draw(10))
                .map(|_| {
                    next = next.wrapping_add(1);
                    next
                })
                .collect();
            let pushed = r.push(&mut m, VcpuId(0), &data).unwrap();
            let fits = data.len().min(CAP as usize - model.len());
            assert_eq!(pushed, fits as u64, "step {step}: push");
            model.extend(&data[..fits]);
            let max = draw(10);
            let popped = r.pop_to(&mut m, VcpuId(0), dst, max).unwrap();
            let want: Vec<u8> = model.drain(..(max as usize).min(model.len())).collect();
            let mut got = vec![0; popped as usize];
            m.read(VcpuId(0), dst, &mut got).unwrap();
            assert_eq!(got, want, "step {step}: pop");
            assert_eq!(
                (r.len(), r.free()),
                (model.len() as u64, u64::from(CAP) - model.len() as u64)
            );
        }
    }
}
