//! Synchronization micro-library: counting semaphores.
//!
//! **Placement matters.** In the paper's Redis experiment, co-locating the
//! network stack and the scheduler did *not* recover performance because
//! "semaphores [are] implemented in another compartment (LibC)" (§4) —
//! every wait-queue operation still crossed a gate. In this reproduction
//! the same wiring is used: the network stack's wait queues call into the
//! semaphore service, and the apps crate routes those calls through the
//! gate runtime into the LibC compartment (see `flexos-apps::os`).
//!
//! The primitives here are pure run-queue-side data structures: blocking
//! is cooperative (a failed `try_down` enqueues the thread and the caller
//! returns [`Step::Block`](crate::exec::Step) from its task).

use crate::sched::ThreadId;
use std::collections::VecDeque;
use std::fmt;

/// A wait channel identifier: what a blocked thread is waiting on.
/// Semaphore `i` in the [`SemTable`] maps to channel `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WaitChannel(pub u64);

impl fmt::Display for WaitChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chan{}", self.0)
    }
}

/// A counting semaphore with a FIFO waiter queue.
#[derive(Debug, Default)]
pub struct Semaphore {
    count: i64,
    waiters: VecDeque<ThreadId>,
}

impl Semaphore {
    /// Creates a semaphore with an initial count.
    pub fn new(count: i64) -> Self {
        Self {
            count,
            waiters: VecDeque::new(),
        }
    }

    /// Attempts to decrement. On success returns `true`; otherwise the
    /// thread is enqueued as a waiter and the caller must block.
    pub fn try_down(&mut self, tid: ThreadId) -> bool {
        if self.count > 0 {
            self.count -= 1;
            true
        } else {
            if !self.waiters.contains(&tid) {
                self.waiters.push_back(tid);
            }
            false
        }
    }

    /// Increments; if a waiter exists, transfers the token to it and
    /// returns it (the caller wakes it).
    pub fn up(&mut self) -> Option<ThreadId> {
        match self.waiters.pop_front() {
            Some(t) => Some(t), // token handed directly to the waiter
            None => {
                self.count += 1;
                None
            }
        }
    }

    /// Current count.
    pub fn count(&self) -> i64 {
        self.count
    }

    /// Number of blocked waiters.
    pub fn waiter_count(&self) -> usize {
        self.waiters.len()
    }
}

/// Identifier of a semaphore in a [`SemTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SemId(pub usize);

impl SemId {
    /// The wait channel blocked threads on this semaphore use.
    pub fn channel(self) -> WaitChannel {
        WaitChannel(self.0 as u64)
    }
}

/// The semaphore service (lives in the LibC micro-library).
#[derive(Debug, Default)]
pub struct SemTable {
    sems: Vec<Semaphore>,
}

impl SemTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a semaphore with an initial count.
    pub fn create(&mut self, count: i64) -> SemId {
        self.sems.push(Semaphore::new(count));
        SemId(self.sems.len() - 1)
    }

    /// `try_down` on semaphore `id`.
    pub fn try_down(&mut self, id: SemId, tid: ThreadId) -> bool {
        self.sems[id.0].try_down(tid)
    }

    /// `up` on semaphore `id`; returns the thread to wake, if any.
    pub fn up(&mut self, id: SemId) -> Option<ThreadId> {
        self.sems[id.0].up()
    }

    /// Shared view of a semaphore.
    pub fn get(&self, id: SemId) -> &Semaphore {
        &self.sems[id.0]
    }

    /// Number of semaphores.
    pub fn len(&self) -> usize {
        self.sems.len()
    }

    /// Whether no semaphores exist.
    pub fn is_empty(&self) -> bool {
        self.sems.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T1: ThreadId = ThreadId(1);
    const T2: ThreadId = ThreadId(2);
    const T3: ThreadId = ThreadId(3);

    #[test]
    fn semaphore_counts_and_blocks() {
        let mut s = Semaphore::new(2);
        assert!(s.try_down(T1));
        assert!(s.try_down(T2));
        assert!(!s.try_down(T3));
        assert_eq!(s.waiter_count(), 1);
        // up() transfers the token to the waiter, not the count.
        assert_eq!(s.up(), Some(T3));
        assert_eq!(s.count(), 0);
        // A further up with no waiters restores the count.
        assert_eq!(s.up(), None);
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn semaphore_waiters_are_fifo() {
        let mut s = Semaphore::new(0);
        assert!(!s.try_down(T1));
        assert!(!s.try_down(T2));
        assert_eq!(s.up(), Some(T1));
        assert_eq!(s.up(), Some(T2));
    }

    #[test]
    fn duplicate_waiters_are_not_enqueued_twice() {
        let mut s = Semaphore::new(0);
        assert!(!s.try_down(T1));
        assert!(!s.try_down(T1));
        assert_eq!(s.waiter_count(), 1);
    }

    #[test]
    fn sem_table_ids_index_semaphores_and_channels() {
        let mut t = SemTable::new();
        let (a, b) = (t.create(1), t.create(0));
        assert!(t.try_down(a, T1));
        assert!(!t.try_down(b, T2));
        assert_eq!(t.up(b), Some(T2));
        assert_eq!((t.get(a).count(), t.len()), (0, 2));
        assert_eq!((a.channel(), b.channel()), (WaitChannel(0), WaitChannel(1)));
    }
}
