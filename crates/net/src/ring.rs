//! Byte ring buffers in simulated memory.
//!
//! Socket receive/transmit buffers live in the network stack's
//! compartment memory, so every payload byte that flows through a socket
//! is subject to the machine's protection checks and copy costs.

use flexos_machine::{Addr, Machine, Result, VcpuId};

/// A byte ring over `[off, off+cap)` of its owner's ring pool, in
/// simulated memory. Indices are kept host-side (they are the stack's
/// private metadata); the payload is simulated. One of these sits in
/// every socket slot, so it is four `u32`s: where it starts is an offset
/// from the pool's base, which the owner passes to every call that
/// touches the bytes.
#[derive(Debug, Clone)]
pub struct SimRing {
    /// Offset of the ring's first byte from the pool base.
    off: u32,
    cap: u32,
    /// Offset of the oldest buffered byte, `< cap`.
    head: u32,
    /// Bytes buffered.
    len: u32,
}

impl SimRing {
    /// Creates a ring over the pre-allocated `cap` bytes at `off` from
    /// its pool's base.
    pub fn new(off: u32, cap: u32) -> Self {
        assert!(cap > 0, "ring capacity must be positive");
        Self {
            off,
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

    /// The backing region `(offset from the pool base, cap)`.
    pub fn region(&self) -> (u32, u32) {
        (self.off, self.cap)
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

    /// The simulated address of the byte `at` past the ring's start, in
    /// the pool based at `pool`.
    fn addr(&self, pool: Addr, at: u64) -> Addr {
        Addr(pool.0 + u64::from(self.off) + at)
    }

    /// Writes as much of `data` as fits; returns bytes written. `pool`
    /// is the base of the pool the ring was carved from.
    pub fn push(&mut self, m: &mut Machine, vcpu: VcpuId, pool: Addr, data: &[u8]) -> Result<u64> {
        let n = (data.len() as u64).min(self.free());
        let mut written = 0u64;
        while written < n {
            let at = self.wrap(self.len() + written);
            let run = (n - written).min(self.capacity() - at);
            m.write(
                vcpu,
                self.addr(pool, at),
                &data[written as usize..(written + run) as usize],
            )?;
            written += run;
        }
        // `n <= free()`, so the sum stays within `cap`.
        self.len += n as u32;
        Ok(n)
    }

    /// Copies up to `max` buffered bytes into simulated memory at `dst`;
    /// returns bytes moved. `pool` is as for [`SimRing::push`].
    pub fn pop_to(
        &mut self,
        m: &mut Machine,
        vcpu: VcpuId,
        pool: Addr,
        dst: Addr,
        max: u64,
    ) -> Result<u64> {
        let n = max.min(self.len());
        let mut moved = 0u64;
        while moved < n {
            let at = self.wrap(moved);
            let run = (n - moved).min(self.capacity() - at);
            m.copy(vcpu, Addr(dst.0 + moved), self.addr(pool, at), run)?;
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

    /// A ring of `cap` bytes at offset `off` of a pool just large
    /// enough for it; returns the machine, the pool's base and the ring.
    fn ring_at(off: u32, cap: u32) -> (Machine, Addr, SimRing) {
        let mut m = Machine::with_defaults();
        let pool = m
            .alloc_region(VmId(0), u64::from(off + cap), ProtKey(0), PageFlags::RW)
            .unwrap();
        (m, pool, SimRing::new(off, cap))
    }

    fn ring(cap: u32) -> (Machine, Addr, SimRing) {
        ring_at(0, cap)
    }

    /// Pops up to `max` bytes through a scratch region onto `out`;
    /// returns bytes moved.
    fn pop_host(m: &mut Machine, pool: Addr, r: &mut SimRing, out: &mut Vec<u8>, max: u64) -> u64 {
        let dst = m
            .alloc_region(VmId(0), max.max(1), ProtKey(0), PageFlags::RW)
            .unwrap();
        let n = r.pop_to(m, VcpuId(0), pool, dst, max).unwrap();
        let start = out.len();
        out.resize(start + n as usize, 0);
        m.read(VcpuId(0), dst, &mut out[start..]).unwrap();
        n
    }

    #[test]
    fn push_pop_round_trip() {
        let (mut m, pool, mut r) = ring(64);
        assert_eq!(r.push(&mut m, VcpuId(0), pool, b"hello world").unwrap(), 11);
        assert_eq!(r.len(), 11);
        let dst = m
            .alloc_region(VmId(0), 64, ProtKey(0), PageFlags::RW)
            .unwrap();
        assert_eq!(r.pop_to(&mut m, VcpuId(0), pool, dst, 64).unwrap(), 11);
        let mut buf = [0u8; 11];
        m.read(VcpuId(0), dst, &mut buf).unwrap();
        assert_eq!(&buf, b"hello world");
        assert!(r.is_empty());
    }

    #[test]
    fn wraparound_preserves_order() {
        let (mut m, pool, mut r) = ring(8);
        let mut out = Vec::new();
        for chunk in [&b"abcde"[..], b"fgh", b"ijklm"] {
            // Fill and drain repeatedly so the indices wrap.
            assert_eq!(
                r.push(&mut m, VcpuId(0), pool, chunk).unwrap(),
                chunk.len() as u64
            );
            pop_host(&mut m, pool, &mut r, &mut out, 16);
        }
        assert_eq!(&out, b"abcdefghijklm");
    }

    #[test]
    fn push_is_bounded_by_free_space() {
        let (mut m, pool, mut r) = ring(4);
        assert_eq!(r.push(&mut m, VcpuId(0), pool, b"abcdef").unwrap(), 4);
        assert_eq!(r.free(), 0);
        assert_eq!(r.push(&mut m, VcpuId(0), pool, b"x").unwrap(), 0);
    }

    #[test]
    fn pop_is_bounded_by_content() {
        let (mut m, pool, mut r) = ring(16);
        r.push(&mut m, VcpuId(0), pool, b"abc").unwrap();
        let mut out = Vec::new();
        assert_eq!(pop_host(&mut m, pool, &mut r, &mut out, 100), 3);
        assert_eq!(out, b"abc");
    }

    #[test]
    fn pop_max_limits_transfer() {
        let (mut m, pool, mut r) = ring(16);
        r.push(&mut m, VcpuId(0), pool, b"abcdef").unwrap();
        let mut out = Vec::new();
        pop_host(&mut m, pool, &mut r, &mut out, 2);
        assert_eq!(out, b"ab");
        assert_eq!(r.len(), 4);
    }

    /// The ring against a `VecDeque<u8>` model, at a capacity that is not
    /// a power of two so every wrap point is exercised, and at an offset
    /// into its pool so the start is read from both halves: pushes and
    /// pops of seeded lengths, the bytes popped and the fill after each.
    #[test]
    fn ring_matches_a_deque_model_across_thousands_of_wraps() {
        const CAP: u32 = 7;
        let (mut m, pool, mut r) = ring_at(4093, CAP);
        assert_ne!(pool.0, 0);
        assert_eq!(r.region(), (4093, CAP), "the ring straddles a page");
        let dst = m
            .alloc_region(VmId(0), 16, ProtKey(0), PageFlags::RW)
            .unwrap();
        // The bytes land at the ring's offset from the pool's base.
        r.push(&mut m, VcpuId(0), pool, b"xyz").unwrap();
        let mut at = [0; 3];
        m.read(VcpuId(0), Addr(pool.0 + 4093), &mut at).unwrap();
        assert_eq!(&at, b"xyz");
        assert_eq!(r.pop_to(&mut m, VcpuId(0), pool, dst, 3).unwrap(), 3);
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
            let pushed = r.push(&mut m, VcpuId(0), pool, &data).unwrap();
            let fits = data.len().min(CAP as usize - model.len());
            assert_eq!(pushed, fits as u64, "step {step}: push");
            model.extend(&data[..fits]);
            let max = draw(10);
            let popped = r.pop_to(&mut m, VcpuId(0), pool, dst, max).unwrap();
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
