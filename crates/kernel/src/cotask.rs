//! Cooperative per-connection tasks for the serving tier.
//!
//! [`CoExecutor`] is a deliberately small executor in the sabios
//! `co_task` mold: a slab of tasks plus a FIFO run queue of woken task
//! ids. A serving tier spawns one task per connection; readiness events
//! from the net layer's `EventQueue` (and CQEs reaped off the async gate
//! rings) translate into [`CoExecutor::wake`] calls, and
//! [`CoExecutor::run_until_idle`] steps exactly the woken tasks — the
//! executor-side half of the O(ready) contract (a poll touches ready
//! sockets, a scheduling round touches woken tasks; neither ever scans
//! the 10⁵ idle connections).
//!
//! Scheduling is deterministic by construction: the run queue is a
//! canonical FIFO, wakes are recorded in call order, and nothing here
//! reads host time or thread identity. A serving tier drives a single
//! executor from one host thread, so a run is byte-identical run to run.
//!
//! Unlike [`crate::exec::Executor`] (which owns threads and gate
//! crossings for whole compartment images), a `CoExecutor` is a plain
//! data structure parameterized over a context type `C`: the serving
//! tier passes its own world (machine, stack, shards) down to each task
//! step. That keeps the executor free of any borrow entanglement with
//! the OS layer.

use flexos_trace::ServingSnapshot;
use std::collections::VecDeque;

/// A handle to a spawned task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoTaskId(pub u32);

/// What a task step reports back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoPoll {
    /// The task parked itself; it runs again only after a wake.
    Pending,
    /// The task finished; its slot is recycled.
    Ready,
}

/// One cooperative task: stepped with the executor's context until it
/// reports [`CoPoll::Ready`].
pub trait CoTask<C> {
    /// Advances the task. `id` is the task's own handle (so it can
    /// register itself in wake maps).
    fn step(&mut self, ctx: &mut C, id: CoTaskId) -> CoPoll;
}

impl<C, F> CoTask<C> for F
where
    F: FnMut(&mut C, CoTaskId) -> CoPoll,
{
    fn step(&mut self, ctx: &mut C, id: CoTaskId) -> CoPoll {
        self(ctx, id)
    }
}

struct Slot<C> {
    task: Box<dyn CoTask<C>>,
    /// Queued in the run queue (coalesces duplicate wakes).
    queued: bool,
}

/// The cooperative executor: a slab of tasks and a FIFO of woken ids.
pub struct CoExecutor<C> {
    slots: Vec<Option<Slot<C>>>,
    free: Vec<u32>,
    run_queue: VecDeque<u32>,
    /// Its half of the serving block: spawns, steps run, wakeups.
    stats: ServingSnapshot,
}

impl<C> Default for CoExecutor<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C> std::fmt::Debug for CoExecutor<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoExecutor")
            .field("tasks", &self.task_count())
            .field("runnable", &self.run_queue.len())
            .finish()
    }
}

impl<C> CoExecutor<C> {
    /// Creates an empty executor.
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
            run_queue: VecDeque::new(),
            stats: ServingSnapshot::default(),
        }
    }

    /// Sizes the task slab for `tasks` tasks at once, where the number to
    /// come is known: a capacity hint only.
    pub fn reserve(&mut self, tasks: usize) {
        self.slots.reserve(tasks);
    }

    /// Spawns a task; it is immediately runnable (first step happens on
    /// the next [`CoExecutor::run_until_idle`]).
    pub fn spawn(&mut self, task: Box<dyn CoTask<C>>) -> CoTaskId {
        let slot = Slot { task, queued: true };
        let id = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(slot);
                i
            }
            None => {
                self.slots.push(Some(slot));
                (self.slots.len() - 1) as u32
            }
        };
        self.run_queue.push_back(id);
        self.stats.on_spawn();
        CoTaskId(id)
    }

    /// Wakes a parked task. Duplicate wakes coalesce; wakes for dead
    /// ids are ignored (a readiness event can race a task's exit).
    pub fn wake(&mut self, id: CoTaskId) {
        let Some(Some(slot)) = self.slots.get_mut(id.0 as usize) else {
            return;
        };
        if slot.queued {
            return;
        }
        slot.queued = true;
        self.run_queue.push_back(id.0);
        self.stats.on_wake();
    }

    /// Steps woken tasks in FIFO order until the run queue drains or
    /// `budget` steps were taken. Returns the number of steps.
    ///
    /// A task stepping [`CoPoll::Pending`] parks until its next wake; a
    /// task may wake *other* tasks from inside its step (via whatever
    /// wake plumbing the context carries) and those run in this same
    /// call, FIFO — the deterministic interleave the artefact set
    /// byte-compares across repeat runs.
    pub fn run_until_idle(&mut self, ctx: &mut C, budget: u64) -> u64 {
        let mut steps = 0;
        while steps < budget {
            let Some(i) = self.run_queue.pop_front() else {
                break;
            };
            let Some(slot) = self.slots.get_mut(i as usize).and_then(Option::as_mut) else {
                continue;
            };
            slot.queued = false;
            // Move the task out so the step can re-enter the executor's
            // tables through `ctx` without aliasing its own slot.
            let mut task = std::mem::replace(&mut slot.task, Box::new(NopTask));
            steps += 1;
            self.stats.on_run();
            match task.step(ctx, CoTaskId(i)) {
                CoPoll::Ready => {
                    self.slots[i as usize] = None;
                    self.free.push(i);
                }
                CoPoll::Pending => {
                    if let Some(slot) = self.slots.get_mut(i as usize).and_then(Option::as_mut) {
                        slot.task = task;
                    }
                }
            }
        }
        steps
    }

    /// Live task count.
    pub fn task_count(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Tasks currently queued to run.
    pub fn runnable(&self) -> usize {
        self.run_queue.len()
    }

    /// Whether nothing is queued.
    pub fn is_idle(&self) -> bool {
        self.run_queue.is_empty()
    }

    /// The executor's counters: the task half of the serving block.
    pub fn stats(&self) -> ServingSnapshot {
        self.stats
    }
}

/// Placeholder parked in a slot while its real task is being stepped.
struct NopTask;

impl<C> CoTask<C> for NopTask {
    fn step(&mut self, _ctx: &mut C, _id: CoTaskId) -> CoPoll {
        CoPoll::Ready
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Ctx {
        log: Vec<(u32, u32)>,
        wakes: Vec<CoTaskId>,
    }

    fn counter_task(n: u32) -> Box<dyn CoTask<Ctx>> {
        let mut left = n;
        Box::new(move |ctx: &mut Ctx, id: CoTaskId| {
            ctx.log.push((id.0, left));
            if left == 0 {
                return CoPoll::Ready;
            }
            left -= 1;
            // Park; the driver re-wakes us.
            ctx.wakes.push(id);
            CoPoll::Pending
        })
    }

    fn drive(ex: &mut CoExecutor<Ctx>, ctx: &mut Ctx) -> u64 {
        let mut total = 0;
        loop {
            total += ex.run_until_idle(ctx, u64::MAX);
            let wakes = std::mem::take(&mut ctx.wakes);
            if wakes.is_empty() && ex.is_idle() {
                return total;
            }
            for id in wakes {
                ex.wake(id);
            }
        }
    }

    #[test]
    fn tasks_run_fifo_and_complete() {
        let mut ex = CoExecutor::new();
        let mut ctx = Ctx::default();
        let a = ex.spawn(counter_task(2));
        let b = ex.spawn(counter_task(1));
        assert_eq!((a.0, b.0), (0, 1));
        drive(&mut ex, &mut ctx);
        assert_eq!(ex.task_count(), 0);
        // FIFO interleave: a, b, a, b, a — byte-stable ordering.
        assert_eq!(ctx.log, vec![(0, 2), (1, 1), (0, 1), (1, 0), (0, 0)]);
    }

    #[test]
    fn duplicate_wakes_coalesce() {
        let mut ex = CoExecutor::new();
        let mut ctx = Ctx::default();
        let id = ex.spawn(counter_task(1));
        ex.run_until_idle(&mut ctx, u64::MAX);
        ctx.wakes.clear();
        ex.wake(id);
        ex.wake(id);
        ex.wake(id);
        assert_eq!(ex.runnable(), 1, "wakes did not coalesce");
        assert_eq!(ex.stats().wakeups, 1);
    }

    #[test]
    fn wake_of_dead_task_is_ignored() {
        let mut ex = CoExecutor::new();
        let mut ctx = Ctx::default();
        let id = ex.spawn(counter_task(0));
        ex.run_until_idle(&mut ctx, u64::MAX);
        assert_eq!(ex.task_count(), 0);
        ex.wake(id);
        assert!(ex.is_idle());
    }

    #[test]
    fn slots_are_recycled() {
        let mut ex = CoExecutor::new();
        let mut ctx = Ctx::default();
        for _ in 0..3 {
            let id = ex.spawn(counter_task(0));
            assert_eq!(id.0, 0, "slot not recycled");
            ex.run_until_idle(&mut ctx, u64::MAX);
        }
        assert_eq!(ex.stats().tasks_spawned, 3);
        assert_eq!(ex.stats().tasks_run, 3);
    }

    #[test]
    fn budget_bounds_a_round() {
        let mut ex = CoExecutor::new();
        let mut ctx = Ctx::default();
        ex.spawn(counter_task(100));
        let steps = ex.run_until_idle(&mut ctx, 1);
        assert_eq!(steps, 1);
        assert_eq!(ex.task_count(), 1);
    }

    #[test]
    fn tasks_can_spawnlike_wake_each_other_within_a_round() {
        // b parks first; a's step wakes b through the context, and b
        // runs within the same run_until_idle call.
        struct W {
            wake_b: Option<CoTaskId>,
            order: Vec<&'static str>,
        }
        let mut ex: CoExecutor<W> = CoExecutor::new();
        let b = ex.spawn(Box::new(|ctx: &mut W, _id| {
            ctx.order.push("b");
            if ctx.order.len() > 1 {
                CoPoll::Ready
            } else {
                CoPoll::Pending
            }
        }));
        ex.spawn(Box::new(move |ctx: &mut W, _id| {
            ctx.order.push("a");
            ctx.wake_b = Some(b);
            CoPoll::Ready
        }));
        let mut ctx = W {
            wake_b: None,
            order: Vec::new(),
        };
        // First round: b runs (parks), a runs (requests b's wake).
        ex.run_until_idle(&mut ctx, u64::MAX);
        if let Some(id) = ctx.wake_b.take() {
            ex.wake(id);
        }
        ex.run_until_idle(&mut ctx, u64::MAX);
        assert_eq!(ctx.order, vec!["b", "a", "b"]);
        assert_eq!(ex.task_count(), 0);
    }
}
