//! Differential suite for the io_uring-style async gate rings.
//!
//! The same random call sequences `tests/backend_equiv.rs` pushes
//! through `call_lib_batch` are replayed here as submission-ring
//! descriptors (`gates.submit` → `gates.flush_async` → `gates.reap`) on every
//! gate mechanism; the drivers live in `tests/common/mod.rs`. The
//! contract the rings ship under:
//!
//! * **Host-time only.** Submitting, flushing and reaping must cost the
//!   exact simulated cycles of the sequential loop of sync calls they
//!   replace, and of the batched loop, and must leave every gate
//!   counter, per-pair trace counter and span identical; the batch
//!   histogram is that of the equivalent `call_lib_batch`.
//! * **Same fault fates.** A call whose body faults consumes its
//!   descriptor without a completion (the sync path loses the return
//!   value too); completions posted before the fault stay reapable —
//!   that is the async payoff a sequential caller never gets.
//! * **Crash-consistent rings.** An enter fault (e.g. VM-RPC doorbell
//!   loss exhausting the retry budget) leaves every descriptor queued
//!   for retry; nothing is silently dropped and nothing panics.
//! * **Idle vCPUs are inert.** Extra idle machine vCPUs change nothing,
//!   cycles included.

mod common;

use common::{arb_chaos, arb_ops, image, run, Driver};
use flexos::build::BackendChoice;
use flexos::gate::Sqe;
use flexos_machine::{ChaosConfig, ChaosPlan, Fault, Schedule};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The ring path is bit-identical in simulated time to the
    /// reference loop of sync calls AND to the sync batched loop on
    /// every backend, while additionally delivering the completions a
    /// mid-chunk fault would have cost a sequential caller (`run` holds
    /// all three drivers to the predicted per-call fates). Counters,
    /// per-pair trace counters and spans must not move; the batch
    /// histogram is the batched loop's, and only the rings flush.
    #[test]
    fn async_rings_cost_exactly_the_sync_batch(ops in arb_ops(), chaos in arb_chaos()) {
        for backend in BackendChoice::ALL {
            let ring = run(backend, &ops, chaos, Driver::Ring, 0);
            let batch = run(backend, &ops, chaos, Driver::Batch, 0);
            let reference = run(backend, &ops, chaos, Driver::Loop, 0);
            prop_assert_eq!(ring.flushes as usize, ring.chunks.len(), "one flush per chunk");
            prop_assert_eq!(batch.flushes, 0, "only rings flush");
            prop_assert_eq!(
                ring.batches, batch.batches,
                "{:?} batch histogram diverged from the batched loop", backend
            );
            prop_assert_eq!(
                ring.clone().sequential(), batch.sequential(),
                "{:?} ring diverged from the batched loop", backend
            );
            prop_assert_eq!(
                ring.sequential(), reference,
                "{:?} ring diverged from the loop of sync calls", backend
            );
        }
    }

    /// Extra idle machine vCPUs are invisible to the ring path: same
    /// reaped values, fault fates, counters, spans AND simulated cycles.
    #[test]
    fn extra_vcpus_are_invisible_to_async_rings(ops in arb_ops(), chaos in arb_chaos()) {
        for backend in BackendChoice::ALL {
            let base = run(backend, &ops, chaos, Driver::Ring, 0);
            let smp = run(backend, &ops, chaos, Driver::Ring, 1);
            prop_assert_eq!(&base, &smp, "{:?} diverged with an extra vCPU", backend);
        }
    }
}

/// Submitting past the ring depth is a typed `RingFull` error — never a
/// panic, never a silent drop — and the counter records the rejection.
#[test]
fn submit_past_ring_depth_is_a_typed_error() {
    let mut img = image(BackendChoice::MpkShared);
    let lwip = img.compartment_of_lib("lwip").unwrap();
    for i in 0..flexos::gate::DEFAULT_RING_DEPTH {
        img.gates.submit(lwip, Sqe::new(8, 8, i as u64)).unwrap();
    }
    let err = img.gates.submit(lwip, Sqe::new(8, 8, 999)).unwrap_err();
    assert!(
        matches!(
            err,
            Fault::RingFull {
                ring: "gate-sq",
                ..
            }
        ),
        "{err:?}"
    );
    assert_eq!(img.gates.async_stats().sq_full, 1);
}

/// Reaping an empty completion queue is a typed `RingEmpty` error on
/// every backend — the async analogue of `-EAGAIN`.
#[test]
fn reap_from_empty_cq_is_a_typed_error_on_every_backend() {
    for backend in BackendChoice::ALL {
        let mut img = image(backend);
        let lwip = img.compartment_of_lib("lwip").unwrap();
        let err = img.gates.reap(lwip).unwrap_err();
        assert!(
            matches!(err, Fault::RingEmpty { ring: "gate-cq" }),
            "{backend:?}: {err:?}"
        );
        assert!(img.gates.async_stats().cq_empty >= 1);
    }
}

/// A `HardeningAbort` mid-flush consumes only the faulting descriptor:
/// completions posted before it stay reapable on every backend, the
/// untouched tail stays queued, and nothing panics.
#[test]
fn completions_survive_a_hardening_abort_on_every_backend() {
    for backend in BackendChoice::ALL {
        let mut img = image(backend);
        let sched_c = img.compartment_of_lib("uksched_verified").unwrap();
        for i in 0..4u64 {
            img.gates.submit(sched_c, Sqe::new(16, 8, i)).unwrap();
        }
        let err = img
            .gates
            .flush_async(&mut img.machine, sched_c, |m, _rt, sqe| {
                if sqe.user_data == 2 {
                    return Err(Fault::HardeningAbort {
                        mechanism: "async-test",
                        reason: "synthetic".into(),
                    });
                }
                m.charge(5);
                Ok(sqe.user_data as i64 * 10)
            })
            .unwrap_err();
        assert_eq!(err.kind(), "hardening-abort", "{backend:?}");
        for want in 0..2i64 {
            let cqe = img.gates.reap(sched_c).unwrap();
            assert_eq!(
                (cqe.user_data, cqe.res),
                (want as u64, want * 10),
                "{backend:?}"
            );
        }
        assert!(matches!(
            img.gates.reap(sched_c).unwrap_err(),
            Fault::RingEmpty { .. }
        ));
        // Descriptor 2 was consumed by its fault; descriptor 3 was
        // never issued and stays queued.
        assert_eq!(img.gates.sq_pending(sched_c), 1, "{backend:?}");
        assert_eq!(img.gates.cancel_pending(sched_c), 1, "{backend:?}");
    }
}

/// Total doorbell loss faults the VM-RPC flush *before* any descriptor
/// is issued — `GateTimeout` after the full retry budget — and leaves
/// the whole submission queue intact. Clearing the chaos and flushing
/// again completes every descriptor: the ring is the retry buffer.
#[test]
fn doorbell_loss_leaves_the_ring_intact_for_retry() {
    let mut img = image(BackendChoice::VmRpc);
    img.machine.set_chaos(ChaosPlan::new(ChaosConfig {
        seed: 1,
        notify_drop: Schedule::EveryNth(1),
        ..Default::default()
    }));
    let sched_c = img.compartment_of_lib("uksched_verified").unwrap();
    for i in 0..4u64 {
        img.gates.submit(sched_c, Sqe::new(16, 8, i)).unwrap();
    }
    let err = img
        .gates
        .flush_async(&mut img.machine, sched_c, |m, _rt, sqe| {
            m.charge(1);
            Ok(sqe.user_data as i64)
        })
        .unwrap_err();
    assert!(
        matches!(err, Fault::GateTimeout { attempts: 5, .. }),
        "{err:?}"
    );
    assert_eq!(img.gates.sq_pending(sched_c), 4, "nothing issued");
    assert_eq!(img.gates.cq_ready(sched_c), 0, "nothing completed");

    // The doorbells come back; the queued descriptors drain untouched.
    img.machine
        .set_chaos(ChaosPlan::new(ChaosConfig::default()));
    let posted = img
        .gates
        .flush_async(&mut img.machine, sched_c, |m, _rt, sqe| {
            m.charge(1);
            Ok(sqe.user_data as i64)
        })
        .unwrap();
    assert_eq!(posted, 4);
    for i in 0..4i64 {
        let cqe = img.gates.reap(sched_c).unwrap();
        assert_eq!((cqe.user_data, cqe.res), (i as u64, i));
    }
}
