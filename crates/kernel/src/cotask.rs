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
use std::marker::PhantomData;

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

/// A boxed task is a task, so an executor of mixed tasks is
/// `CoExecutor<C>`. (Not a blanket `impl for Box<T>`: that one would
/// overlap the closure impl above.)
impl<C> CoTask<C> for Box<dyn CoTask<C>> {
    fn step(&mut self, ctx: &mut C, id: CoTaskId) -> CoPoll {
        (**self).step(ctx, id)
    }
}

/// A live task. Its `Option` in the slab is `None` when the task is
/// dead, and while it is being stepped.
struct Slot<T> {
    task: T,
    /// Queued in the run queue (coalesces duplicate wakes).
    queued: bool,
}

/// The cooperative executor: a slab of tasks and a FIFO of woken ids.
///
/// Tasks of one type `T` live in the slab by value, so a task costs its
/// slot and no allocation of its own; the default `T` boxes each task,
/// for executors of mixed tasks.
pub struct CoExecutor<C, T = Box<dyn CoTask<C>>> {
    slots: Vec<Option<Slot<T>>>,
    free: Vec<u32>,
    run_queue: VecDeque<u32>,
    /// Its half of the serving block: spawns, steps run, wakeups.
    stats: ServingSnapshot,
    /// The context the tasks step with (none is stored).
    ctx: PhantomData<fn(&mut C)>,
}

impl<C, T: CoTask<C>> Default for CoExecutor<C, T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C, T: CoTask<C>> std::fmt::Debug for CoExecutor<C, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoExecutor")
            .field("tasks", &self.task_count())
            .field("runnable", &self.run_queue.len())
            .finish()
    }
}

impl<C, T: CoTask<C>> CoExecutor<C, T> {
    /// Creates an empty executor.
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
            run_queue: VecDeque::new(),
            stats: ServingSnapshot::default(),
            ctx: PhantomData,
        }
    }

    /// Sizes the task slab for `tasks` tasks at once, where the number to
    /// come is known: a capacity hint only.
    pub fn reserve(&mut self, tasks: usize) {
        self.slots.reserve(tasks);
    }

    /// Spawns a task; it is immediately runnable (first step happens on
    /// the next [`CoExecutor::run_until_idle`]).
    pub fn spawn(&mut self, task: T) -> CoTaskId {
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
            // Move the task out so the step can re-enter the executor's
            // tables through `ctx` without aliasing its own slot.
            let Some(mut slot) = self.slots.get_mut(i as usize).and_then(Option::take) else {
                continue;
            };
            slot.queued = false;
            steps += 1;
            self.stats.on_run();
            match slot.task.step(ctx, CoTaskId(i)) {
                CoPoll::Ready => self.free.push(i),
                CoPoll::Pending => self.slots[i as usize] = Some(slot),
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

    fn drive<T: CoTask<Ctx>>(ex: &mut CoExecutor<Ctx, T>, ctx: &mut Ctx) -> u64 {
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

    /// A task held by value: it counts its own steps and wakes itself
    /// from inside each one, through the context.
    struct Countdown {
        left: u32,
        steps: u32,
    }

    impl CoTask<Ctx> for Countdown {
        fn step(&mut self, ctx: &mut Ctx, id: CoTaskId) -> CoPoll {
            self.steps += 1;
            ctx.log.push((id.0, self.steps));
            if self.left == 0 {
                return CoPoll::Ready;
            }
            self.left -= 1;
            ctx.wakes.push(id);
            CoPoll::Pending
        }
    }

    #[test]
    fn a_task_by_value_keeps_its_state_across_pending_steps_and_self_wakes() {
        let mut ex: CoExecutor<Ctx, Countdown> = CoExecutor::new();
        let mut ctx = Ctx::default();
        let a = ex.spawn(Countdown { left: 3, steps: 0 });
        let b = ex.spawn(Countdown { left: 1, steps: 10 });
        // One round steps each once; the self-wakes queue both again.
        assert_eq!(ex.run_until_idle(&mut ctx, u64::MAX), 2);
        assert_eq!(ex.task_count(), 2, "a pending task was not put back");
        assert_eq!(ctx.wakes, vec![a, b]);
        assert_eq!(drive(&mut ex, &mut ctx), 4);
        assert_eq!(
            ctx.log,
            vec![(0, 1), (1, 11), (0, 2), (1, 12), (0, 3), (0, 4)],
            "step counts are the tasks' own state, carried over"
        );
        assert_eq!(ex.task_count(), 0);
        assert_eq!(ex.stats().wakeups, 4);
        // Both slots are free again; the last one freed is reused first.
        assert_eq!(ex.spawn(Countdown { left: 0, steps: 0 }), a);
    }

    #[test]
    fn layout_budget_of_a_task_slot() {
        // 10⁵ of these are the serving tier's task slab: a task of three
        // words costs four, its liveness and queued flag in the fourth.
        let slot = std::mem::size_of::<Option<Slot<[u64; 3]>>>();
        assert!(
            slot <= 32,
            "a 24 B task's slot grew to {slot} B (budget 32)"
        );
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
