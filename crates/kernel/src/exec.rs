//! The cooperative executor: drives tasks over a pluggable scheduler.
//!
//! Simulated threads are state machines ([`Task`]): each `step` runs one
//! scheduling quantum and reports whether the thread yielded, blocked on a
//! wait channel, or finished. The executor pulls the next ready thread
//! from the configured [`RunQueue`] (plain or verified scheduler), charges
//! the scheduler's context-switch cost, and — through the [`KernelHal`] —
//! restores the incoming thread's compartment protection view (the saved
//! PKRU under MPK: "the scheduler holds the value of the PKRU for threads
//! that are not currently running", §3).

use crate::sched::{RunQueue, ThreadId};
use crate::sync::WaitChannel;
use flexos::gate::CompartmentId;
use flexos_machine::{Machine, Result};
use flexos_trace::SchedSnapshot;
use std::collections::BTreeMap;

/// What a task reports after one scheduling quantum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Cooperatively yield; run me again later.
    Yield,
    /// Block until the channel is woken.
    Block(WaitChannel),
    /// The thread has finished.
    Done,
}

/// A simulated thread body, generic over the OS context `C` the apps
/// crate assembles (machine + gates + stacks + services).
pub trait Task<C> {
    /// Runs one quantum. The executor passes the thread's id so tasks can
    /// register as semaphore waiters.
    fn step(&mut self, ctx: &mut C, tid: ThreadId) -> Result<Step>;
}

impl<C, F> Task<C> for F
where
    F: FnMut(&mut C, ThreadId) -> Result<Step>,
{
    fn step(&mut self, ctx: &mut C, tid: ThreadId) -> Result<Step> {
        self(ctx, tid)
    }
}

/// Services the executor needs from the OS context.
pub trait KernelHal {
    /// The simulated machine (for cycle charging).
    fn machine_mut(&mut self) -> &mut Machine;

    /// Restores the protection view of `compartment` after a context
    /// switch (PKRU reload through the gate runtime under MPK).
    fn resume_compartment(&mut self, compartment: CompartmentId) -> Result<()>;

    /// Drains the thread-ids that became runnable since the last step
    /// (semaphore `up`s performed by tasks).
    fn drain_wakes(&mut self) -> Vec<ThreadId>;

    /// [`KernelHal::drain_wakes`] appended to `out`, which the executor
    /// reuses across steps: a context that keeps its wake list in a `Vec`
    /// overrides this to hand the ids over without allocating.
    fn drain_wakes_into(&mut self, out: &mut Vec<ThreadId>) {
        out.extend(self.drain_wakes());
    }
}

struct ThreadSlot<C> {
    compartment: CompartmentId,
    task: Option<Box<dyn Task<C>>>,
    blocked_on: Option<WaitChannel>,
}

/// Outcome of an executor run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecSummary {
    /// Quanta executed.
    pub steps: u64,
    /// Context switches performed (thread handovers).
    pub switches: u64,
    /// Threads still blocked when the run ended.
    pub blocked: usize,
    /// Threads that ran to completion.
    pub completed: u64,
}

/// The cooperative executor.
pub struct Executor<C> {
    rq: Box<dyn RunQueue>,
    threads: BTreeMap<ThreadId, ThreadSlot<C>>,
    next_id: u32,
    last_running: Option<ThreadId>,
    /// Switches, steps, run-queue depth and per-task cycles: the
    /// `--stats` block, and the source of [`ExecSummary`]'s two counts.
    sched: SchedSnapshot,
    blocked: usize,
    completed: u64,
    /// Scratch for [`KernelHal::drain_wakes_into`] (empty between steps).
    wakes: Vec<ThreadId>,
}

impl<C> std::fmt::Debug for Executor<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("scheduler", &self.rq.name())
            .field("threads", &self.threads.len())
            .field("sched", &self.sched)
            .finish()
    }
}

impl<C: KernelHal> Executor<C> {
    /// Creates an executor over the given scheduler implementation.
    pub fn new(rq: Box<dyn RunQueue>) -> Self {
        Self {
            rq,
            threads: BTreeMap::new(),
            next_id: 1,
            last_running: None,
            sched: SchedSnapshot::default(),
            blocked: 0,
            completed: 0,
            wakes: Vec::new(),
        }
    }

    /// Spawns a thread whose home compartment is `compartment`.
    pub fn spawn(
        &mut self,
        compartment: CompartmentId,
        task: Box<dyn Task<C>>,
    ) -> Result<ThreadId> {
        let tid = ThreadId(self.next_id);
        self.next_id += 1;
        self.rq.thread_add(tid)?;
        self.threads.insert(
            tid,
            ThreadSlot {
                compartment,
                task: Some(task),
                blocked_on: None,
            },
        );
        Ok(tid)
    }

    /// Cumulative execution statistics.
    pub fn summary(&self) -> ExecSummary {
        ExecSummary {
            steps: self.sched.steps,
            switches: self.sched.switches,
            blocked: self.blocked,
            completed: self.completed,
        }
    }

    /// Scheduler telemetry: switches, run-queue depth, per-task cycles
    /// (in first-run order).
    pub fn sched(&self) -> &SchedSnapshot {
        &self.sched
    }

    fn apply_wakes(&mut self, ctx: &mut C) -> Result<()> {
        ctx.drain_wakes_into(&mut self.wakes);
        for tid in self.wakes.drain(..) {
            if let Some(slot) = self.threads.get_mut(&tid) {
                if slot.blocked_on.take().is_some() {
                    self.rq.wake(tid)?;
                }
            }
        }
        Ok(())
    }

    /// Runs until no thread is ready or `max_steps` quanta have executed.
    /// Returns the summary for this run; blocked threads remain parked
    /// (a subsequent wake can resume them in a later `run` call).
    pub fn run(&mut self, ctx: &mut C, max_steps: u64) -> Result<ExecSummary> {
        let run_start = self.summary();
        for _ in 0..max_steps {
            self.apply_wakes(ctx)?;
            let Some(tid) = self.rq.pick_next() else {
                break;
            };
            let depth = self.rq.ready_len();
            let slot = self.threads.get_mut(&tid).expect("scheduled thread exists");

            // Context switch: cost + compartment protection restore.
            if self.last_running != Some(tid) {
                let t0 = ctx.machine_mut().clock().cycles();
                let cost = self.rq.switch_cost(ctx.machine_mut().costs());
                ctx.machine_mut().charge(cost);
                ctx.resume_compartment(slot.compartment)?;
                let t1 = ctx.machine_mut().clock().cycles();
                // The switch window (cost charge + PKRU restore),
                // attributed to the incoming thread and its compartment.
                let spans = ctx.machine_mut().span_trace_mut();
                self.sched
                    .record_switch(spans, tid.0, slot.compartment.0, t0, t1);
                self.last_running = Some(tid);
            }

            // Run one quantum with the task temporarily taken out so the
            // task can borrow the executor-free context.
            let mut task = slot.task.take().expect("task present while scheduled");
            let quantum_start = ctx.machine_mut().clock().cycles();
            let step = task.step(ctx, tid);
            let run_cycles = ctx.machine_mut().clock().cycles() - quantum_start;
            self.sched.record_step(tid.0, run_cycles, depth);
            let slot = self.threads.get_mut(&tid).expect("still present");
            slot.task = Some(task);

            match step? {
                Step::Yield => self.rq.yield_back(tid)?,
                Step::Block(ch) => {
                    slot.blocked_on = Some(ch);
                    self.rq.block(tid)?;
                }
                Step::Done => {
                    self.rq.block(tid)?; // take it off the queue…
                    self.rq.thread_rm(tid)?; // …and forget it
                    self.threads.remove(&tid);
                    self.completed += 1;
                    self.last_running = None;
                }
            }
        }
        // Wakes produced by the final quantum still count.
        self.apply_wakes(ctx)?;
        self.blocked = self
            .threads
            .values()
            .filter(|s| s.blocked_on.is_some())
            .count();
        let now = self.summary();
        Ok(ExecSummary {
            steps: now.steps - run_start.steps,
            switches: now.switches - run_start.switches,
            blocked: now.blocked,
            completed: now.completed - run_start.completed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{CoopScheduler, VerifiedScheduler};
    use std::collections::VecDeque;

    /// Minimal HAL for executor tests.
    struct TestCtx {
        machine: Machine,
        wakes: VecDeque<ThreadId>,
        resumed: Vec<CompartmentId>,
        counter: u64,
    }

    impl TestCtx {
        fn new() -> Self {
            Self {
                machine: Machine::with_defaults(),
                wakes: VecDeque::new(),
                resumed: Vec::new(),
                counter: 0,
            }
        }
    }

    impl KernelHal for TestCtx {
        fn machine_mut(&mut self) -> &mut Machine {
            &mut self.machine
        }
        fn resume_compartment(&mut self, c: CompartmentId) -> Result<()> {
            self.resumed.push(c);
            Ok(())
        }
        fn drain_wakes(&mut self) -> Vec<ThreadId> {
            self.wakes.drain(..).collect()
        }
    }

    fn counting_task(quanta: u64) -> Box<dyn Task<TestCtx>> {
        let mut left = quanta;
        Box::new(move |ctx: &mut TestCtx, _tid| {
            ctx.counter += 1;
            left -= 1;
            Ok(if left == 0 { Step::Done } else { Step::Yield })
        })
    }

    #[test]
    fn tasks_run_to_completion() {
        let mut ctx = TestCtx::new();
        let mut ex = Executor::new(Box::new(CoopScheduler::new()));
        ex.spawn(CompartmentId(0), counting_task(3)).unwrap();
        ex.spawn(CompartmentId(0), counting_task(2)).unwrap();
        let s = ex.run(&mut ctx, 100).unwrap();
        assert_eq!(s.completed, 2);
        assert_eq!(ctx.counter, 5);
    }

    #[test]
    fn blocked_threads_wait_for_wakes() {
        let mut ctx = TestCtx::new();
        let mut ex = Executor::new(Box::new(CoopScheduler::new()));
        let mut first = true;
        let blocker = Box::new(move |ctx: &mut TestCtx, _tid| {
            if first {
                first = false;
                Ok(Step::Block(WaitChannel(7)))
            } else {
                ctx.counter += 100;
                Ok(Step::Done)
            }
        });
        let tid = ex.spawn(CompartmentId(0), blocker).unwrap();
        let s = ex.run(&mut ctx, 100).unwrap();
        assert_eq!(s.blocked, 1);
        assert_eq!(ctx.counter, 0);
        // Wake it via the HAL and run again.
        ctx.wakes.push_back(tid);
        let s = ex.run(&mut ctx, 100).unwrap();
        assert_eq!(s.completed, 1);
        assert_eq!(ctx.counter, 100);
    }

    #[test]
    fn context_switches_charge_scheduler_cost() {
        let mut ctx = TestCtx::new();
        let mut ex = Executor::new(Box::new(CoopScheduler::new()));
        ex.spawn(CompartmentId(0), counting_task(2)).unwrap();
        ex.spawn(CompartmentId(0), counting_task(2)).unwrap();
        let before = ctx.machine.clock().cycles();
        let s = ex.run(&mut ctx, 100).unwrap();
        let charged = ctx.machine.clock().cycles() - before;
        // Two threads ping-pong: every quantum is a switch.
        assert_eq!(s.switches, 4);
        assert_eq!(charged, 4 * ctx.machine.costs().ctx_switch);
    }

    #[test]
    fn verified_scheduler_charges_more_per_switch() {
        let run_with = |rq: Box<dyn RunQueue>| {
            let mut ctx = TestCtx::new();
            let mut ex = Executor::new(rq);
            ex.spawn(CompartmentId(0), counting_task(4)).unwrap();
            ex.spawn(CompartmentId(0), counting_task(4)).unwrap();
            ex.run(&mut ctx, 100).unwrap();
            ctx.machine.clock().cycles()
        };
        let coop = run_with(Box::new(CoopScheduler::new()));
        let verified = run_with(Box::new(VerifiedScheduler::new()));
        assert!(verified > coop);
        // Ratio is bounded by the per-switch ratio (≈2.85).
        assert!(verified < coop * 3);
    }

    #[test]
    fn resume_restores_the_thread_compartment() {
        let mut ctx = TestCtx::new();
        let mut ex = Executor::new(Box::new(CoopScheduler::new()));
        ex.spawn(CompartmentId(3), counting_task(1)).unwrap();
        ex.run(&mut ctx, 10).unwrap();
        assert_eq!(ctx.resumed, vec![CompartmentId(3)]);
    }

    #[test]
    fn same_thread_consecutive_quanta_do_not_switch() {
        let mut ctx = TestCtx::new();
        let mut ex = Executor::new(Box::new(CoopScheduler::new()));
        ex.spawn(CompartmentId(0), counting_task(5)).unwrap();
        let s = ex.run(&mut ctx, 100).unwrap();
        // One thread alone: exactly one "switch" (the initial dispatch).
        assert_eq!(s.switches, 1);
        assert_eq!(s.steps, 5);
    }

    #[test]
    fn max_steps_bounds_execution() {
        let mut ctx = TestCtx::new();
        let mut ex = Executor::new(Box::new(CoopScheduler::new()));
        ex.spawn(CompartmentId(0), counting_task(1000)).unwrap();
        let s = ex.run(&mut ctx, 10).unwrap();
        assert_eq!(s.steps, 10);
    }
}
