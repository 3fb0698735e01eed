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

use flexos_machine::BitVec;
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

/// The slab's element: the task with that id, or `None` where no task
/// lives and while it steps. Nothing else is kept per task, so a task
/// with a niche (a box, a flag) costs its own size.
type Slot<T> = Option<T>;

/// [`CoExecutor::spawn_at`] named an id a live task holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotTaken(pub CoTaskId);

impl std::fmt::Display for SlotTaken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task id {} is held by a live task", self.0 .0)
    }
}

impl std::error::Error for SlotTaken {}

/// The cooperative executor: a slab of tasks and a FIFO of woken ids.
///
/// Tasks of one type `T` live in the slab by value, so a task costs its
/// slot and no allocation of its own; the default `T` boxes each task,
/// for executors of mixed tasks. A caller that already numbers what its
/// tasks serve keys them by that number ([`CoExecutor::spawn_at`]), so
/// the slab is one more table indexed like its own.
pub struct CoExecutor<C, T = Box<dyn CoTask<C>>> {
    tasks: Vec<Slot<T>>,
    /// Which ids sit in the run queue (coalesces duplicate wakes).
    queued: BitVec,
    /// Ids [`CoExecutor::spawn`] may hand out again.
    free: Vec<u32>,
    /// Some task was keyed by its caller: ids are the caller's from then
    /// on, so a finished task's id is not queued for `spawn`.
    keyed: bool,
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
            tasks: Vec::new(),
            queued: BitVec::default(),
            free: Vec::new(),
            keyed: false,
            run_queue: VecDeque::new(),
            stats: ServingSnapshot::default(),
            ctx: PhantomData,
        }
    }

    /// Sizes the task slab for ids `0..tasks` at once, where the number
    /// to come is known: a capacity hint only.
    pub fn reserve(&mut self, tasks: usize) {
        self.tasks.reserve(tasks);
        self.queued.reserve(tasks);
    }

    /// Spawns a task at the id the task that finished last left, else at
    /// a new one; it is immediately runnable (first step happens on the next
    /// [`CoExecutor::run_until_idle`]).
    pub fn spawn(&mut self, task: T) -> CoTaskId {
        // An id `spawn_at` took meanwhile is skipped.
        while let Some(i) = self.free.pop() {
            if self.tasks[i as usize].is_none() {
                return self.place(i, task);
            }
        }
        let i = self.tasks.len() as u32;
        self.place(i, task)
    }

    /// Spawns a task at id `id`, the caller's own number for what it
    /// serves; it is immediately runnable.
    ///
    /// # Errors
    ///
    /// [`SlotTaken`] when a live task holds `id`: the new task is
    /// dropped and the live one left as it was.
    pub fn spawn_at(&mut self, id: CoTaskId, task: T) -> Result<CoTaskId, SlotTaken> {
        if self.is_live(id) {
            return Err(SlotTaken(id));
        }
        self.keyed = true;
        Ok(self.place(id.0, task))
    }

    fn place(&mut self, i: u32, task: T) -> CoTaskId {
        let at = i as usize;
        if at >= self.tasks.len() {
            self.tasks.resize_with(at + 1, || None);
        }
        self.tasks[at] = Some(task);
        self.queued.set(at);
        self.run_queue.push_back(i);
        self.stats.on_spawn();
        CoTaskId(i)
    }

    /// Whether a task lives at `id` (it does while it steps, too).
    fn is_live(&self, id: CoTaskId) -> bool {
        self.tasks.get(id.0 as usize).is_some_and(Option::is_some)
    }

    /// The ids live tasks hold, ascending. O(slab) — for audits.
    pub fn live_ids(&self) -> impl Iterator<Item = CoTaskId> + '_ {
        let ids = self.tasks.iter().enumerate();
        ids.filter_map(|(i, t)| t.as_ref().map(|_| CoTaskId(i as u32)))
    }

    /// Wakes a parked task. Duplicate wakes coalesce; wakes for dead
    /// ids are ignored (a readiness event can race a task's exit).
    pub fn wake(&mut self, id: CoTaskId) {
        if !self.is_live(id) || self.queued.replace(id.0 as usize, true) {
            return;
        }
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
            self.queued.clear(i as usize);
            // Move the task out so the step can re-enter the executor's
            // tables through `ctx` without aliasing its own slot.
            let Some(mut task) = self.tasks.get_mut(i as usize).and_then(Option::take) else {
                continue;
            };
            steps += 1;
            self.stats.on_run();
            match task.step(ctx, CoTaskId(i)) {
                CoPoll::Ready if !self.keyed => self.free.push(i),
                CoPoll::Ready => {}
                CoPoll::Pending => self.tasks[i as usize] = Some(task),
            }
        }
        steps
    }

    /// Live task count.
    pub fn task_count(&self) -> usize {
        self.live_ids().count()
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
        // 10⁵ of these are the serving tier's task slab: the slot is the
        // task, its liveness in the task's own niche and its queued flag
        // a bit beside the slab — a 16 B task with a niche costs 16 B.
        let slot = std::mem::size_of::<Slot<(Option<Box<u64>>, bool, bool)>>();
        assert!(
            slot <= 16,
            "a 16 B task's slot grew to {slot} B (budget 16)"
        );
    }

    #[test]
    fn spawn_at_refuses_an_id_a_live_task_holds() {
        let mut ex: CoExecutor<Ctx, Countdown> = CoExecutor::new();
        let mut ctx = Ctx::default();
        let id = CoTaskId(5);
        assert_eq!(ex.spawn_at(id, Countdown { left: 1, steps: 0 }), Ok(id));
        let again = ex.spawn_at(
            id,
            Countdown {
                left: 0,
                steps: 100,
            },
        );
        assert_eq!(again, Err(SlotTaken(id)));
        assert_eq!((ex.task_count(), ex.runnable()), (1, 1));
        ex.run_until_idle(&mut ctx, u64::MAX);
        assert_eq!(ctx.log, vec![(5, 1)], "the live task was replaced");
        // Parked is still live.
        assert_eq!(
            ex.spawn_at(id, Countdown { left: 0, steps: 0 }),
            Err(SlotTaken(id))
        );
        assert_eq!(ex.live_ids().collect::<Vec<_>>(), vec![id]);
        assert_eq!(ex.stats().tasks_spawned, 1);
    }

    #[test]
    fn wakes_of_a_keyed_task_coalesce_through_the_queued_bits() {
        let mut ex: CoExecutor<Ctx, Countdown> = CoExecutor::new();
        let mut ctx = Ctx::default();
        let (a, b) = (CoTaskId(70), CoTaskId(3));
        ex.spawn_at(a, Countdown { left: 5, steps: 0 }).unwrap();
        ex.spawn_at(b, Countdown { left: 5, steps: 0 }).unwrap();
        // Queued by their spawns: a wake adds nothing.
        ex.wake(a);
        assert_eq!(ex.runnable(), 2);
        assert_eq!(ex.run_until_idle(&mut ctx, u64::MAX), 2);
        for _ in 0..3 {
            ex.wake(a);
            ex.wake(b);
        }
        ex.wake(CoTaskId(4));
        ex.wake(CoTaskId(1_000));
        assert_eq!(ex.runnable(), 2, "wakes did not coalesce");
        assert_eq!(ex.stats().wakeups, 2);
        ex.run_until_idle(&mut ctx, u64::MAX);
        let order: Vec<u32> = ctx.log.iter().map(|&(id, _)| id).collect();
        assert_eq!(order, vec![70, 3, 70, 3], "FIFO by wake, not by id");
    }

    #[test]
    fn a_keyed_id_is_reused_once_its_task_is_ready() {
        let mut ex: CoExecutor<Ctx, Countdown> = CoExecutor::new();
        let mut ctx = Ctx::default();
        let id = CoTaskId(2);
        ex.spawn_at(id, Countdown { left: 0, steps: 0 }).unwrap();
        ex.run_until_idle(&mut ctx, u64::MAX);
        assert!(!ex.is_live(id));
        assert_eq!(ex.spawn_at(id, Countdown { left: 0, steps: 40 }), Ok(id));
        ex.run_until_idle(&mut ctx, u64::MAX);
        assert_eq!(ctx.log, vec![(2, 1), (2, 41)]);
        assert_eq!(ex.task_count(), 0);
        // A finished keyed task's id is the caller's, not `spawn`'s.
        assert_eq!(ex.spawn(Countdown { left: 0, steps: 0 }), CoTaskId(3));
    }

    #[test]
    fn a_keyed_task_that_wakes_itself_mid_step_runs_again() {
        let mut ex: CoExecutor<Ctx, Countdown> = CoExecutor::new();
        let mut ctx = Ctx::default();
        let id = CoTaskId(9);
        ex.spawn_at(id, Countdown { left: 2, steps: 0 }).unwrap();
        // Each step asks for its own wake; its queued bit is clear by then.
        assert_eq!(drive(&mut ex, &mut ctx), 3);
        assert_eq!(ctx.log, vec![(9, 1), (9, 2), (9, 3)]);
        assert_eq!(ex.stats().wakeups, 2);
        assert!(!ex.is_live(id) && ex.is_idle());
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
