//! The bounded overwrite-oldest store under [`crate::SpanRing`].

/// A flat `Vec` plus a head index rather than a deque, so a push on a
/// full ring is a single indexed store and never allocates. It counts
/// its pushes by the head's laps, so a push moves no counter but `head`.
#[derive(Debug, Clone)]
pub(crate) struct Ring<T> {
    cap: usize,
    head: usize,
    /// Times `head` wrapped back to slot 0.
    laps: u64,
    buf: Vec<T>,
}

impl<T: Copy> Ring<T> {
    /// A ring of at most `cap` entries whose store grows on first use.
    pub(crate) fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(1),
            head: 0,
            laps: 0,
            buf: Vec::new(),
        }
    }

    /// A ring of at most `cap` entries, allocated up front: a push never
    /// allocates.
    pub(crate) fn with_capacity(cap: usize) -> Self {
        let mut r = Self::new(cap);
        r.buf.reserve_exact(r.cap);
        r
    }

    /// Stores `v`, overwriting the oldest entry when full; `evict` sees
    /// that entry first. Always inlined: the caller's value is built
    /// straight into its slot.
    #[inline(always)]
    pub(crate) fn push(&mut self, v: T, evict: impl FnOnce(&T)) {
        if self.buf.len() < self.cap {
            self.buf.push(v);
        } else {
            // `head` is the oldest slot; overwrite and advance.
            let slot = &mut self.buf[self.head];
            evict(slot);
            *slot = v;
            self.head += 1;
            if self.head == self.cap {
                self.head = 0;
                self.laps += 1;
            }
        }
    }

    /// Entries held, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        let (tail, head) = self.buf.split_at(self.head);
        head.iter().chain(tail.iter())
    }

    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    /// Entries ever pushed: those held plus one per overwrite.
    pub(crate) fn pushed(&self) -> u64 {
        let overwrites = self.laps * self.cap as u64 + self.head as u64;
        self.buf.len() as u64 + overwrites
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overwrites_oldest_and_keeps_sequence() {
        let mut r = Ring::with_capacity(3);
        let mut evicted = Vec::new();
        for i in 0..5u64 {
            r.push(i, |&old| evicted.push(old));
        }
        assert_eq!((r.len(), r.pushed()), (3, 5));
        assert_eq!(evicted, vec![0, 1]);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![2, 3, 4]);
    }

    #[test]
    fn push_never_reallocates() {
        let mut r = Ring::with_capacity(8);
        let cap0 = r.buf.capacity();
        for i in 0..100u64 {
            r.push(i, |_| {});
        }
        assert_eq!(r.buf.capacity(), cap0);
        assert_eq!((r.laps, r.pushed()), (11, 100));
        // A lazy ring allocates on first use, then never past its cap.
        let mut lazy = Ring::new(8);
        assert_eq!(lazy.buf.capacity(), 0);
        for i in 0..100u64 {
            lazy.push(i, |_| {});
        }
        assert_eq!(lazy.len(), 8);
    }
}
