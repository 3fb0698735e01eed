//! The readiness layer: an epoll-style event queue over socket ids.
//!
//! [`EventQueue`] is the piece that turns the stack from O(open) into
//! O(ready): the stack posts readiness *at the exact state transition*
//! (segment moved into a receive ring, backlog push, FIFO drained) and a
//! poll drains only the sockets that are actually ready. Nothing ever
//! walks the socket table.
//!
//! Semantics follow epoll:
//!
//! * **Interest** is a bitmask ([`Interest::ACCEPT`], [`Interest::READ`],
//!   [`Interest::WRITE`]); posts are masked by it, so readiness a
//!   registration doesn't care about is never queued.
//! * **Level** triggered entries re-arm themselves on delivery: they are
//!   reported on every poll until the readiness is [`EventQueue::clear`]ed
//!   (the stack clears READ when a receive ring drains, ACCEPT when a
//!   backlog empties).
//! * **Edge** triggered entries report each readiness transition once:
//!   delivery consumes the ready bits and the entry stays quiet until the
//!   next post.
//!
//! Slot reuse is generation-stamped: a queue entry enqueued for a socket
//! that has since been deregistered (and possibly re-registered as a new
//! connection in the same slot) is detected by its stale generation and
//! skipped, so the churn path needs no queue scrubbing.

use crate::stack::SocketId;
use flexos_trace::ServingSnapshot;
use std::collections::VecDeque;
use std::ops::{BitAnd, BitOr, BitOrAssign, Not};

/// A readiness-interest bitmask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Interest(u8);

impl Interest {
    /// Nothing.
    pub const NONE: Interest = Interest(0);
    /// A listener has at least one connection in its accept backlog.
    pub const ACCEPT: Interest = Interest(1);
    /// A stream has bytes (or an EOF) to read.
    pub const READ: Interest = Interest(2);
    /// A stream is established with transmit-buffer room.
    pub const WRITE: Interest = Interest(4);

    /// Whether every bit of `other` is set in `self`.
    pub fn contains(self, other: Interest) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether no bits are set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl BitOr for Interest {
    type Output = Interest;
    fn bitor(self, rhs: Interest) -> Interest {
        Interest(self.0 | rhs.0)
    }
}

impl BitOrAssign for Interest {
    fn bitor_assign(&mut self, rhs: Interest) {
        self.0 |= rhs.0;
    }
}

impl BitAnd for Interest {
    type Output = Interest;
    fn bitand(self, rhs: Interest) -> Interest {
        Interest(self.0 & rhs.0)
    }
}

impl Not for Interest {
    type Output = Interest;
    fn not(self) -> Interest {
        Interest(!self.0 & 0x7)
    }
}

/// Edge- vs level-triggered delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Report each readiness transition once.
    Edge,
    /// Report on every poll while the readiness holds.
    Level,
}

/// One delivered readiness event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadyEvent {
    /// The ready socket.
    pub sid: SocketId,
    /// Which of the registered interests fired.
    pub ready: Interest,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    interest: Interest,
    trigger: Trigger,
    ready: Interest,
    queued: bool,
    generation: u32,
}

/// The epoll analogue: registered interests plus a queue of ready
/// sockets. All operations are O(1); a poll is O(delivered).
#[derive(Debug, Default)]
pub struct EventQueue {
    entries: Vec<Option<Entry>>,
    queue: VecDeque<(usize, u32)>,
    /// Queued entries whose registration has since died (they would be
    /// skipped by the generation check on the next poll, but a server
    /// that never polls must not accumulate them — see `deregister`).
    stale: usize,
    /// Its half of the serving block: posts, coalesces, polls, deliveries.
    stats: ServingSnapshot,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes the registration table for `socks` sockets at once: a
    /// capacity hint only.
    pub fn reserve(&mut self, socks: usize) {
        self.entries.reserve(socks);
    }

    /// Registers (or re-registers) `sid` with `interest`. Re-registering
    /// bumps the slot generation, invalidating any queued stale event.
    pub fn register(&mut self, sid: SocketId, interest: Interest, trigger: Trigger) {
        if self.entries.len() <= sid.0 {
            self.entries.resize_with(sid.0 + 1, || None);
        }
        let generation = self.entries[sid.0]
            .map(|e| e.generation.wrapping_add(1))
            .unwrap_or(0);
        self.entries[sid.0] = Some(Entry {
            interest,
            trigger,
            ready: Interest::NONE,
            queued: false,
            generation,
        });
    }

    /// Changes the interest mask of a live registration, keeping any
    /// still-interesting readiness armed.
    pub fn set_interest(&mut self, sid: SocketId, interest: Interest) {
        if let Some(Some(e)) = self.entries.get_mut(sid.0) {
            e.interest = interest;
            e.ready = e.ready & interest;
        }
    }

    /// Drops a registration. Queued events for the slot die by
    /// generation mismatch; once dead entries dominate the queue they
    /// are compacted away (amortized O(1) per deregister), so churn
    /// without polling cannot grow the queue.
    pub fn deregister(&mut self, sid: SocketId) {
        let Some(Some(e)) = self.entries.get_mut(sid.0) else {
            return;
        };
        if e.queued {
            self.stale += 1;
        }
        // A deregistered slot must not let register() restart at gen 0
        // (a queued (idx, 0) event would then hit the new socket). Park
        // the old generation in a phantom entry with no interest: it
        // can never queue, and register() bumps past it.
        *e = Entry {
            interest: Interest::NONE,
            trigger: Trigger::Edge,
            ready: Interest::NONE,
            queued: false,
            generation: e.generation,
        };
        if self.stale * 2 > self.queue.len() {
            self.compact();
        }
    }

    /// Drops queue entries whose registration died (generation
    /// mismatch or interest gone).
    fn compact(&mut self) {
        let entries = &self.entries;
        self.queue.retain(|&(idx, generation)| {
            matches!(
                entries.get(idx),
                Some(Some(e)) if e.generation == generation && e.queued
            )
        });
        self.stale = 0;
    }

    /// Posts readiness `what` for `sid`. Masked by the registered
    /// interest; coalesces with an already-queued event. O(1).
    pub fn post(&mut self, sid: SocketId, what: Interest) {
        let Some(Some(e)) = self.entries.get_mut(sid.0) else {
            return;
        };
        let bits = what & e.interest;
        if bits.is_empty() {
            return;
        }
        e.ready |= bits;
        if e.queued {
            self.stats.on_coalesce();
        } else {
            e.queued = true;
            let key = (sid.0, e.generation);
            self.queue.push_back(key);
            self.stats.on_post();
        }
    }

    /// Revokes readiness `what` for `sid` (the level-triggered disarm:
    /// ring drained, backlog emptied). O(1).
    pub fn clear(&mut self, sid: SocketId, what: Interest) {
        if let Some(Some(e)) = self.entries.get_mut(sid.0) {
            e.ready = e.ready & !what;
        }
    }

    /// Drains ready sockets into `out` (cleared first; the caller owns
    /// the scratch so polling allocates nothing at steady state).
    ///
    /// Level-triggered entries whose readiness still holds are re-queued
    /// for the next poll; edge-triggered deliveries consume their bits.
    pub fn poll(&mut self, out: &mut Vec<ReadyEvent>) {
        out.clear();
        // Snapshot the length: level re-arms must not be re-delivered
        // within the same poll.
        let n = self.queue.len();
        for _ in 0..n {
            let Some((idx, generation)) = self.queue.pop_front() else {
                break;
            };
            let Some(Some(e)) = self.entries.get_mut(idx) else {
                continue;
            };
            if e.generation != generation {
                continue; // stale: slot was re-registered
            }
            e.queued = false;
            let fired = e.ready & e.interest;
            if fired.is_empty() {
                continue; // readiness was cleared while queued
            }
            out.push(ReadyEvent {
                sid: SocketId(idx),
                ready: fired,
            });
            match e.trigger {
                Trigger::Edge => e.ready = e.ready & !fired,
                Trigger::Level => {
                    e.queued = true;
                    self.queue.push_back((idx, generation));
                }
            }
        }
        self.stats.on_poll(out.len() as u64);
    }

    /// Currently-queued ready sockets (the O(ready) bound a poll pays).
    pub fn ready_count(&self) -> usize {
        self.queue.len()
    }

    /// The queue's counters: the readiness half of the serving block.
    pub fn stats(&self) -> ServingSnapshot {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut EventQueue) -> Vec<ReadyEvent> {
        let mut out = Vec::new();
        q.poll(&mut out);
        out
    }

    #[test]
    fn level_redelivers_until_cleared() {
        let mut q = EventQueue::new();
        q.register(SocketId(3), Interest::READ, Trigger::Level);
        q.post(SocketId(3), Interest::READ);
        for _ in 0..3 {
            let ev = drain(&mut q);
            assert_eq!(ev.len(), 1);
            assert_eq!(ev[0].sid, SocketId(3));
            assert!(ev[0].ready.contains(Interest::READ));
        }
        q.clear(SocketId(3), Interest::READ);
        assert!(drain(&mut q).is_empty());
        // The entry naturally dequeued itself; a new post re-queues.
        q.post(SocketId(3), Interest::READ);
        assert_eq!(drain(&mut q).len(), 1);
    }

    #[test]
    fn edge_fires_once_per_transition() {
        let mut q = EventQueue::new();
        q.register(SocketId(0), Interest::READ | Interest::WRITE, Trigger::Edge);
        q.post(SocketId(0), Interest::READ);
        assert_eq!(drain(&mut q).len(), 1);
        assert!(drain(&mut q).is_empty(), "edge event re-delivered");
        q.post(SocketId(0), Interest::WRITE);
        let ev = drain(&mut q);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].ready, Interest::WRITE);
    }

    #[test]
    fn interest_masks_posts() {
        let mut q = EventQueue::new();
        q.register(SocketId(1), Interest::READ, Trigger::Level);
        q.post(SocketId(1), Interest::WRITE); // not interested
        assert!(drain(&mut q).is_empty());
        assert_eq!(q.stats().events_posted, 0);
    }

    #[test]
    fn posts_coalesce_while_queued() {
        let mut q = EventQueue::new();
        q.register(
            SocketId(2),
            Interest::READ | Interest::WRITE,
            Trigger::Level,
        );
        q.post(SocketId(2), Interest::READ);
        q.post(SocketId(2), Interest::WRITE);
        q.post(SocketId(2), Interest::READ);
        let ev = drain(&mut q);
        assert_eq!(ev.len(), 1, "coalesced into one event");
        assert_eq!(ev[0].ready, Interest::READ | Interest::WRITE);
        assert_eq!(q.stats().events_posted, 1);
        assert_eq!(q.stats().events_coalesced, 2);
    }

    #[test]
    fn stale_generation_events_are_skipped() {
        let mut q = EventQueue::new();
        q.register(SocketId(5), Interest::READ, Trigger::Edge);
        q.post(SocketId(5), Interest::READ);
        q.deregister(SocketId(5));
        // Same slot, new connection.
        q.register(SocketId(5), Interest::READ, Trigger::Level);
        assert!(
            drain(&mut q).is_empty(),
            "stale queued event leaked onto the reused slot"
        );
        q.post(SocketId(5), Interest::READ);
        assert_eq!(drain(&mut q).len(), 1);
    }

    #[test]
    fn set_interest_disarms_dropped_bits() {
        let mut q = EventQueue::new();
        q.register(
            SocketId(0),
            Interest::READ | Interest::WRITE,
            Trigger::Level,
        );
        q.post(SocketId(0), Interest::WRITE);
        q.set_interest(SocketId(0), Interest::READ);
        assert!(drain(&mut q).is_empty());
    }

    #[test]
    fn poll_is_o_ready_not_o_registered() {
        let mut q = EventQueue::new();
        for i in 0..10_000 {
            q.register(SocketId(i), Interest::READ, Trigger::Level);
        }
        q.post(SocketId(17), Interest::READ);
        q.post(SocketId(4242), Interest::READ);
        assert_eq!(q.ready_count(), 2);
        let ev = drain(&mut q);
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].sid, SocketId(17));
        assert_eq!(ev[1].sid, SocketId(4242));
    }
}
