//! Bounded event rings with overwrite-oldest semantics.
//!
//! Each recorded [`Event`] carries a monotonically increasing sequence
//! number, so a reader can tell how many events were overwritten
//! (`next_seq - len`) even after the ring wrapped. The backing store is
//! allocated once at construction; pushes never allocate.

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Control entered a compartment through a gate.
    GateEnter,
    /// Control returned from a compartment through a gate.
    GateExit,
    /// A hardware fault (protection-key violation, page fault, …).
    Fault,
    /// The scheduler switched threads.
    CtxSwitch,
    /// An allocation request failed.
    AllocFail,
    /// The net stack dropped a packet at demux.
    PacketDrop,
    /// A fault was deliberately injected by the chaos layer
    /// (`flexos-inject`), as opposed to raised by enforcement.
    Injected,
}

impl EventKind {
    /// Short machine-readable tag.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::GateEnter => "gate-enter",
            EventKind::GateExit => "gate-exit",
            EventKind::Fault => "fault",
            EventKind::CtxSwitch => "ctx-switch",
            EventKind::AllocFail => "alloc-fail",
            EventKind::PacketDrop => "packet-drop",
            EventKind::Injected => "injected",
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Sequence number, unique and increasing within one ring.
    pub seq: u64,
    /// Machine-clock timestamp in cycles.
    pub cycles: u64,
    /// Event class.
    pub kind: EventKind,
    /// Kind-specific payload (e.g. packed src/dst compartment ids for
    /// gate events, a thread id for context switches).
    pub detail: u64,
}

/// Default ring capacity (events kept per ring).
pub const DEFAULT_RING_CAP: usize = 256;

/// The bounded overwrite-oldest store under [`EventRing`] and
/// [`crate::SpanRing`]: a flat `Vec` allocated once, plus a head index
/// rather than a deque, so a push on a full ring is a single indexed
/// store and never allocates.
#[derive(Debug, Clone)]
pub(crate) struct Ring<T> {
    cap: usize,
    head: usize,
    buf: Vec<T>,
}

impl<T: Copy> Ring<T> {
    pub(crate) fn with_capacity(cap: usize) -> Self {
        let cap = cap.max(1);
        Self {
            cap,
            head: 0,
            buf: Vec::with_capacity(cap),
        }
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
}

/// A bounded event ring. When full, pushing overwrites the oldest event.
#[derive(Debug, Clone)]
pub struct EventRing {
    next_seq: u64,
    ring: Ring<Event>,
}

impl Default for EventRing {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_RING_CAP)
    }
}

impl EventRing {
    /// A ring holding at most `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            next_seq: 0,
            ring: Ring::with_capacity(cap),
        }
    }

    /// Records an event; returns its sequence number. Overwrites the
    /// oldest event when full. A no-op (returning the would-be sequence
    /// number) under `trace-off`.
    #[inline]
    pub fn push(&mut self, kind: EventKind, cycles: u64, detail: u64) -> u64 {
        let seq = self.next_seq;
        #[cfg(not(feature = "trace-off"))]
        {
            let event = Event {
                seq,
                cycles,
                kind,
                detail,
            };
            self.ring.push(event, |_| {});
            self.next_seq += 1;
        }
        seq
    }

    /// Events currently held, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.ring.iter()
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.ring.len() == 0
    }

    /// Total events ever pushed (held + overwritten).
    pub fn pushed(&self) -> u64 {
        self.next_seq
    }

    /// Events lost to overwriting.
    pub fn overwritten(&self) -> u64 {
        self.next_seq - self.ring.len() as u64
    }
}

#[cfg(all(test, not(feature = "trace-off")))]
mod tests {
    use super::*;

    #[test]
    fn overwrites_oldest_and_keeps_sequence() {
        let mut r = EventRing::with_capacity(3);
        for i in 0..5u64 {
            let seq = r.push(EventKind::CtxSwitch, i * 10, i);
            assert_eq!(seq, i);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.pushed(), 5);
        assert_eq!(r.overwritten(), 2);
        let seqs: Vec<u64> = r.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn push_never_reallocates() {
        let mut r = EventRing::with_capacity(8);
        let cap0 = r.ring.buf.capacity();
        for i in 0..100 {
            r.push(EventKind::Fault, i, 0);
        }
        assert_eq!(r.ring.buf.capacity(), cap0);
    }
}

#[cfg(all(test, feature = "trace-off"))]
mod off_tests {
    use super::*;

    #[test]
    fn push_is_a_no_op() {
        let mut r = EventRing::with_capacity(3);
        r.push(EventKind::Fault, 1, 2);
        assert!(r.is_empty());
        assert_eq!(r.pushed(), 0);
    }
}
