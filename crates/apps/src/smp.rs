//! Shared executor construction for the app workloads, SMP-aware.
//!
//! Both iperf and Redis used to build their executor locally with an
//! identical `match` on [`SchedKind`]; true SMP adds a second axis — the
//! logical vCPU count — so the construction lives here once.
//!
//! With `vcpus <= 1` the legacy single-queue schedulers are used
//! unchanged (this is the path every pre-SMP figure took, and the
//! reference the determinism matrix compares against). With `vcpus > 1`
//! the [`SmpRunQueue`] spreads threads over per-vCPU deques but pops in
//! the canonical global order, so outcomes, simulated cycles, crossing
//! counts and fault traces are identical to the single-queue run — the
//! property `tests/smp_equiv.rs` proves over random workloads and the
//! `artefacts` CI job enforces end-to-end. The switch cost charged
//! per context switch is the same for both paths (plain or verified), so
//! the simulated clock cannot diverge either.

use crate::os::Os;
use crate::profiles::SchedKind;
use flexos_kernel::exec::Executor;
use flexos_kernel::sched::{CoopScheduler, RunQueue, SmpRunQueue, VerifiedScheduler};

/// Builds the executor for one run: `kind` picks the scheduler flavour,
/// `vcpus` the run-queue topology (1 = legacy single queue).
pub fn make_executor(kind: SchedKind, vcpus: usize) -> Executor<Os> {
    let rq: Box<dyn RunQueue> = match (kind, vcpus) {
        (SchedKind::Coop, 0 | 1) => Box::new(CoopScheduler::new()),
        (SchedKind::Verified, 0 | 1) => Box::new(VerifiedScheduler::new()),
        (SchedKind::Coop, n) => Box::new(SmpRunQueue::new(n)),
        (SchedKind::Verified, n) => Box::new(SmpRunQueue::new_verified(n)),
    };
    Executor::new(rq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexos_machine::CostTable;

    #[test]
    fn single_vcpu_uses_legacy_queues() {
        assert_eq!(make_executor(SchedKind::Coop, 1).scheduler_name(), "coop");
        assert_eq!(
            make_executor(SchedKind::Verified, 1).scheduler_name(),
            "verified"
        );
        assert_eq!(make_executor(SchedKind::Coop, 0).scheduler_name(), "coop");
    }

    #[test]
    fn multi_vcpu_uses_smp_queues() {
        assert_eq!(make_executor(SchedKind::Coop, 4).scheduler_name(), "smp");
        assert_eq!(
            make_executor(SchedKind::Verified, 4).scheduler_name(),
            "smp-verified"
        );
    }

    #[test]
    fn smp_switch_cost_matches_the_legacy_scheduler() {
        // If these diverged, the simulated clock — and every figure —
        // would differ between `--vcpus 1` and `--vcpus 4`.
        use flexos_kernel::sched::RunQueue as _;
        let costs = CostTable::default();
        assert_eq!(
            SmpRunQueue::new(4).switch_cost(&costs),
            CoopScheduler::new().switch_cost(&costs)
        );
        assert_eq!(
            SmpRunQueue::new_verified(4).switch_cost(&costs),
            VerifiedScheduler::new().switch_cost(&costs)
        );
    }
}
