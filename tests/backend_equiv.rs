//! Cross-backend differential suite for batched gate crossings.
//!
//! The same random call sequences — varying argument/return sizes,
//! synthetic faulting calls, nested crossings and chaos-injected
//! doorbell loss — are pushed through every gate mechanism (direct
//! call, MPK shared/switched stacks, VM RPC, CHERI). The backends must
//! agree on everything except cycle cost: per-call return values, fault
//! kinds, crossing/direct-call/marshalled-byte counters and the
//! batch-size histogram. Separately, on each backend a batch must be
//! *bit* identical — cycles, `GateStats`, per-pair trace counters and
//! spans included — to the reference it is defined by: a sequential
//! loop of the public `call_lib` (figure output and `--stats` counters
//! may not move). The scaffold lives in `tests/common/mod.rs`.

mod common;

use common::{arb_chaos, arb_ops, image, run, Driver};
use flexos::build::BackendChoice;
use flexos::gate::CallVec;
use flexos_machine::{ChaosConfig, ChaosPlan, Fault, Schedule};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every isolating backend observes the same returns, faults and
    /// counters for the same call sequence; only cycle costs may
    /// differ. The non-isolating `None` backend must still agree on
    /// every return value, fault kind and batch shape, but its gates
    /// are plain function calls: crossings degrade to direct calls and
    /// nothing is marshalled.
    #[test]
    fn backends_agree_on_everything_but_cycles(ops in arb_ops(), chaos in arb_chaos()) {
        let reference = run(BackendChoice::MpkShared, &ops, chaos, Driver::Batch, 0);
        for backend in BackendChoice::ALL {
            if backend == BackendChoice::MpkShared {
                continue;
            }
            let seen = run(backend, &ops, chaos, Driver::Batch, 0);
            if backend == BackendChoice::None {
                prop_assert_eq!(
                    &seen.chunks, &reference.chunks,
                    "{:?} returns/faults diverged", backend
                );
                prop_assert_eq!(
                    seen.batches, reference.batches,
                    "{:?} batch shape diverged", backend
                );
                prop_assert_eq!(
                    seen.stats.crossings + seen.stats.direct_calls,
                    reference.stats.crossings + reference.stats.direct_calls,
                    "{:?} total call count diverged", backend
                );
                prop_assert_eq!(seen.stats.crossings, 0, "ptr gates never isolate");
                prop_assert_eq!(seen.stats.bytes_marshalled, 0, "ptr gates never marshal");
            } else {
                prop_assert_eq!(
                    seen.counters(), reference.counters(),
                    "backend {:?} diverged from MpkShared", backend
                );
            }
        }
    }

    /// Idle machine vCPUs attached to the boot VM are observably inert
    /// for every backend — same returns,
    /// faults, counters, spans AND the same simulated cycle count. Gates
    /// address compartments by their assigned vCPU, so an idle sibling
    /// must never perturb a crossing (notably VM RPC, whose doorbells
    /// target a vCPU's VM).
    #[test]
    fn extra_vcpus_are_invisible_to_every_backend(ops in arb_ops(), chaos in arb_chaos()) {
        for backend in BackendChoice::ALL {
            let base = run(backend, &ops, chaos, Driver::Batch, 0);
            let smp = run(backend, &ops, chaos, Driver::Batch, 1);
            prop_assert_eq!(&base, &smp, "{:?} diverged with an extra vCPU", backend);
        }
    }

    /// Within one backend, a batch is bit-identical to the reference
    /// loop of sync calls: same outcome, same simulated cycle count,
    /// same `GateStats`, per-pair trace counters, spans, TLB counters and
    /// fault counts — with and without an extra vCPU.
    #[test]
    fn batching_is_cycle_identical_per_backend(ops in arb_ops(), chaos in arb_chaos()) {
        for backend in BackendChoice::ALL {
            for extra_vcpus in [0, 1] {
                let batch = run(backend, &ops, chaos, Driver::Batch, extra_vcpus);
                let reference = run(backend, &ops, chaos, Driver::Loop, extra_vcpus);
                prop_assert_eq!(reference.batches, (0, 0), "a loop records no batch");
                prop_assert_eq!(
                    batch.sequential(), reference,
                    "{:?} batch diverged from the loop of sync calls", backend
                );
            }
        }
    }
}

/// 100% doorbell loss exhausts the retry budget with the same typed
/// fault whether or not the crossing is batched.
#[test]
fn total_doorbell_loss_times_out_identically_batched_or_not() {
    for batch in [false, true] {
        let mut img = image(BackendChoice::VmRpc);
        img.machine.set_chaos(ChaosPlan::new(ChaosConfig {
            seed: 1,
            notify_drop: Schedule::EveryNth(1),
            ..Default::default()
        }));
        let err = if batch {
            let calls = CallVec::uniform(4, 16, 8);
            img.call_lib_batch("uksched_verified", &calls, |_, _, _| Ok(()))
                .map(drop)
        } else {
            img.call_lib("uksched_verified", 16, 8, |_, _| Ok(()))
        }
        .unwrap_err();
        assert!(
            matches!(err, Fault::GateTimeout { attempts: 5, .. }),
            "batch={batch}: {err:?}"
        );
    }
}
