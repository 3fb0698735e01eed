//! Per-vCPU run queues with a canonical deterministic interleave.
//!
//! [`SmpRunQueue`] is the SMP scheduler: each simulated vCPU owns a local
//! deque (Theseus-style per-CPU `task` queues) and threads are assigned a
//! home vCPU round-robin at `thread_add`. What makes it usable under the
//! repository's byte-for-byte reproducibility contract is the *canonical
//! interleave*:
//!
//! Every enqueue (add, yield, wake) stamps the thread with a monotonically
//! increasing global sequence number, and `pick_next` pops the
//! **lowest-stamped** head across all per-vCPU deques. Because each deque
//! is FIFO in stamp order, the global pop order equals the single-queue
//! round-robin order of [`CoopScheduler`](crate::sched::coop::CoopScheduler)
//! — *regardless of how many vCPUs the threads are spread over*. That is
//! the property the `artefacts` CI job enforces: `--stats`, `--chaos`
//! and every figure are byte-identical for `--vcpus 1/2/4`.
//!
//! Work stealing exists but is observable only through a counter: when the
//! globally-next thread does not live on the vCPU that last ran (the
//! "local" queue), the pop is accounted as a steal. The *order* never
//! changes — stealing rebalances which queue a thread is popped from, not
//! when it runs. Nothing here is seeded either: any seed-dependent choice
//! would make `--vcpus 2` output differ from `--vcpus 1`, which is
//! exactly what the determinism matrix forbids.

use super::{RunQueue, ThreadId};
use flexos_machine::{CostTable, Fault, Result};
use std::collections::{BTreeMap, VecDeque};

/// SMP scheduler: per-vCPU FIFO deques, canonical global pop order.
#[derive(Debug)]
pub struct SmpRunQueue {
    /// One ready deque per vCPU, entries are `(global_seq, thread)`.
    queues: Vec<VecDeque<(u64, ThreadId)>>,
    /// Home vCPU of every known thread (ready or parked).
    home: BTreeMap<ThreadId, usize>,
    /// Next global sequence stamp.
    seq: u64,
    /// Next vCPU to home a new thread on (round-robin placement).
    next_home: usize,
    /// vCPU that served the previous `pick_next` (steal accounting).
    last_vcpu: usize,
    /// Pops served from a deque other than `last_vcpu`'s.
    steals: u64,
    /// Charge the verified scheduler's contract-checked switch cost.
    verified: bool,
}

impl SmpRunQueue {
    /// Creates a scheduler with `vcpus` per-vCPU deques (min 1).
    pub fn new(vcpus: usize) -> Self {
        let n = vcpus.max(1);
        Self {
            queues: vec![VecDeque::new(); n],
            home: BTreeMap::new(),
            seq: 0,
            next_home: 0,
            last_vcpu: 0,
            steals: 0,
            verified: false,
        }
    }

    /// Like [`new`](Self::new), but charging the verified scheduler's
    /// contract-checked context-switch cost on every switch.
    pub fn new_verified(vcpus: usize) -> Self {
        Self {
            verified: true,
            ..Self::new(vcpus)
        }
    }

    /// Number of per-vCPU deques.
    pub fn vcpus(&self) -> usize {
        self.queues.len()
    }

    /// Pops served from a non-local deque ("steals").
    pub fn steals(&self) -> u64 {
        self.steals
    }

    /// The home vCPU a thread was placed on, if known.
    pub fn home_of(&self, t: ThreadId) -> Option<usize> {
        self.home.get(&t).copied()
    }

    fn enqueue(&mut self, vcpu: usize, t: ThreadId) {
        let stamp = self.seq;
        self.seq += 1;
        self.queues[vcpu].push_back((stamp, t));
    }

    fn is_ready(&self, t: ThreadId) -> bool {
        self.queues.iter().any(|q| q.iter().any(|&(_, x)| x == t))
    }
}

impl RunQueue for SmpRunQueue {
    fn thread_add(&mut self, t: ThreadId) -> Result<()> {
        if self.home.contains_key(&t) {
            return Err(Fault::HardeningAbort {
                mechanism: "sched",
                reason: format!("{t} added twice"),
            });
        }
        let vcpu = self.next_home;
        self.next_home = (self.next_home + 1) % self.queues.len();
        self.home.insert(t, vcpu);
        self.enqueue(vcpu, t);
        Ok(())
    }

    fn thread_rm(&mut self, t: ThreadId) -> Result<()> {
        if self.home.remove(&t).is_none() {
            return Err(Fault::HardeningAbort {
                mechanism: "sched",
                reason: format!("{t} not known"),
            });
        }
        for q in &mut self.queues {
            q.retain(|&(_, x)| x != t);
        }
        Ok(())
    }

    fn pick_next(&mut self) -> Option<ThreadId> {
        // Canonical interleave: take the globally oldest ready thread.
        // Scanning queue heads is O(vcpus); each deque is FIFO in stamp
        // order, so heads are sufficient.
        let vcpu = self
            .queues
            .iter()
            .enumerate()
            .filter_map(|(i, q)| q.front().map(|&(s, _)| (s, i)))
            .min()
            .map(|(_, i)| i)?;
        let (_, t) = self.queues[vcpu].pop_front().expect("head just observed");
        if vcpu != self.last_vcpu {
            self.steals += 1;
            self.last_vcpu = vcpu;
        }
        Some(t)
    }

    fn yield_back(&mut self, t: ThreadId) -> Result<()> {
        let vcpu = self.home.get(&t).copied().unwrap_or(self.last_vcpu);
        self.enqueue(vcpu, t);
        Ok(())
    }

    fn block(&mut self, _t: ThreadId) -> Result<()> {
        // Already off the ready deques (it was picked); stays known.
        Ok(())
    }

    fn wake(&mut self, t: ThreadId) -> Result<()> {
        if self.home.contains_key(&t) && !self.is_ready(t) {
            let vcpu = self.home[&t];
            self.enqueue(vcpu, t);
        }
        Ok(())
    }

    fn contains(&self, t: ThreadId) -> bool {
        self.home.contains_key(&t)
    }

    fn ready_len(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    fn len(&self) -> usize {
        self.home.len()
    }

    fn switch_cost(&self, costs: &CostTable) -> u64 {
        if self.verified {
            costs.ctx_switch + costs.verified_contract_check
        } else {
            costs.ctx_switch
        }
    }

    fn name(&self) -> &'static str {
        if self.verified {
            "smp-verified"
        } else {
            "smp"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{conformance, CoopScheduler};

    #[test]
    fn conformance_at_every_width() {
        for vcpus in [1, 2, 3, 4] {
            conformance::round_robin_order(SmpRunQueue::new(vcpus));
            conformance::block_wake_cycle(SmpRunQueue::new(vcpus));
            conformance::removal_forgets_thread(SmpRunQueue::new(vcpus));
        }
    }

    #[test]
    fn canonical_order_matches_coop_for_any_width() {
        // The core determinism property: identical pop order to the
        // single-queue scheduler, whatever the vCPU count.
        for vcpus in [1, 2, 4, 7] {
            let mut smp = SmpRunQueue::new(vcpus);
            let mut coop = CoopScheduler::new();
            for i in 0..5 {
                smp.thread_add(ThreadId(i)).unwrap();
                coop.thread_add(ThreadId(i)).unwrap();
            }
            for step in 0..40 {
                let a = smp.pick_next();
                let b = coop.pick_next();
                assert_eq!(a, b, "diverged at step {step} with {vcpus} vcpus");
                let t = a.unwrap();
                if step % 7 == 3 {
                    smp.block(t).unwrap();
                    coop.block(t).unwrap();
                    smp.wake(t).unwrap();
                    coop.wake(t).unwrap();
                } else {
                    smp.yield_back(t).unwrap();
                    coop.yield_back(t).unwrap();
                }
            }
        }
    }

    #[test]
    fn threads_spread_across_home_vcpus() {
        let mut s = SmpRunQueue::new(4);
        for i in 0..8 {
            s.thread_add(ThreadId(i)).unwrap();
        }
        for i in 0..8u32 {
            assert_eq!(s.home_of(ThreadId(i)), Some(i as usize % 4));
        }
    }

    #[test]
    fn steals_count_cross_queue_pops_without_reordering() {
        let mut s = SmpRunQueue::new(2);
        s.thread_add(ThreadId(0)).unwrap(); // home 0
        s.thread_add(ThreadId(1)).unwrap(); // home 1
        assert_eq!(s.pick_next(), Some(ThreadId(0)));
        assert_eq!(s.pick_next(), Some(ThreadId(1))); // cross-queue pop
        assert!(s.steals() >= 1);
    }

    #[test]
    fn double_add_aborts_like_coop() {
        let mut s = SmpRunQueue::new(2);
        s.thread_add(ThreadId(1)).unwrap();
        assert!(matches!(
            s.thread_add(ThreadId(1)),
            Err(Fault::HardeningAbort {
                mechanism: "sched",
                ..
            })
        ));
    }

    #[test]
    fn wake_is_idempotent_for_ready_threads() {
        let mut s = SmpRunQueue::new(2);
        s.thread_add(ThreadId(1)).unwrap();
        s.wake(ThreadId(1)).unwrap();
        assert_eq!(s.ready_len(), 1);
    }

    #[test]
    fn verified_variant_charges_contract_cost() {
        let costs = CostTable::default();
        let plain = SmpRunQueue::new(2);
        let verified = SmpRunQueue::new_verified(2);
        assert_eq!(plain.switch_cost(&costs), costs.ctx_switch);
        assert_eq!(
            verified.switch_cost(&costs),
            costs.ctx_switch + costs.verified_contract_check
        );
        assert_eq!(plain.name(), "smp");
        assert_eq!(verified.name(), "smp-verified");
    }
}
