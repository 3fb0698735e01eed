//! Differential suite for live gate-backend migration.
//!
//! The contract under test: a run that *migrates* to a backend at
//! runtime is observably equivalent to a run *built* with that backend
//! from the start. Concretely, for every ordered (from, to) pair of the
//! five mechanisms, a random call sequence split at a random point —
//! head on `from`, `migrate_all`, tail on `to` — must produce
//!
//! * the same per-call returns and fault kinds as the same sequence on
//!   a never-migrated image (results never depend on the backend), and
//! * a tail whose crossing/direct-call/marshalled-byte deltas are
//!   *identical* to the tail of a `to`-built run split at the same
//!   point (the migrated pair is indistinguishable from a booted one).
//!
//! Cycle costs legitimately differ across backends, so the cross-pair
//! claims exclude them; within one (from, to) pair, a batched run must
//! stay bit-identical — cycles included — to the reference loop of sync
//! calls across the mid-sequence swap, and the async ring must carry
//! its queued descriptors through the swap without loss, duplication or
//! reordering. A drain-starvation regression test pins the admission
//! stop: a continuous submitter hammering a draining pair is refused
//! with `GateDraining` and cannot stall the swap.
//!
//! All images boot through `instantiate_migratable`, whose superset
//! topology (keys, VM-RPC inbox area, dedicated allocators) is
//! byte-identical regardless of the boot backend — which is what makes
//! the head/tail stat comparison exact rather than approximate. The
//! call sequences, image and drivers live in `tests/common/mod.rs`.

mod common;

use common::{
    arb_chaos, arb_ops, image_migratable as image, predict, predict_stats, run_ops, CallOp, Chunk,
    Driver,
};
use flexos::build::BackendChoice;
use flexos::gate::{MigrationReason, Sqe};
use flexos_backends::{migrate_all, prepare_pair_migration, BootImage};
use flexos_machine::Fault;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// What one segment (head or tail) of a run observably did, minus
/// cycles: per-chunk results/fault kinds plus the stat *deltas* the
/// segment produced.
#[derive(Debug, Clone, PartialEq)]
struct SegOutcome {
    chunks: Vec<Chunk>,
    crossings: u64,
    direct_calls: u64,
    bytes_marshalled: u64,
}

/// Runs `ops` through `img` and returns the segment's outcome — held to
/// what the ops alone predict. The migratable image keeps the scheduler
/// in its own compartment whatever the backend, so even a function-call
/// gate counts as a crossing and marshals.
fn run_segment(img: &mut BootImage, ops: &[CallOp], driver: Driver) -> SegOutcome {
    let s0 = img.gates.stats();
    let chunks = run_ops(img, ops, driver);
    let s1 = img.gates.stats();
    let seg = SegOutcome {
        chunks,
        crossings: s1.crossings - s0.crossings,
        direct_calls: s1.direct_calls - s0.direct_calls,
        bytes_marshalled: s1.bytes_marshalled - s0.bytes_marshalled,
    };
    assert_eq!(seg.chunks, predict(ops), "{driver:?} fates");
    assert_eq!(
        (seg.crossings, seg.direct_calls, seg.bytes_marshalled),
        predict_stats(ops, true),
        "{driver:?} gate counters"
    );
    seg
}

/// Boots on `from`, runs `ops[..k]`, live-migrates every pair to `to`,
/// runs `ops[k..]`. Returns (head, tail, total cycles). The `to == from`
/// case still performs the swap, so reference runs share the exact
/// migration machinery (and its — zero — cycle cost) with migrated
/// runs.
fn run_migrated(
    from: BackendChoice,
    to: BackendChoice,
    ops: &[CallOp],
    k: usize,
    chaos: Option<(u64, u64)>,
    driver: Driver,
) -> (SegOutcome, SegOutcome, u64) {
    let mut img = image(from, chaos);
    let t0 = img.machine.clock().cycles();
    let head = run_segment(&mut img, &ops[..k], driver);
    let (_, deferred) = migrate_all(&mut img, to, MigrationReason::Manual).expect("migrates");
    assert_eq!(deferred, 0, "quiescent between chunks: swaps are immediate");
    let tail = run_segment(&mut img, &ops[k..], driver);
    let cycles = img.machine.clock().cycles() - t0;
    (head, tail, cycles)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole claim, all 5×5 ordered pairs, ± chaos: a run
    /// migrated at a random point returns the same values and faults as
    /// an un-migrated run, its head is stat-identical to a `from`-built
    /// run, and its tail is stat-identical to a `to`-built run split at
    /// the same point.
    #[test]
    fn migrated_runs_match_runs_built_with_the_target(
        ops in arb_ops(),
        split in 0usize..10,
        chaos in arb_chaos(),
    ) {
        for from in BackendChoice::ALL {
            for to in BackendChoice::ALL {
                let k = split.min(ops.len());
                let (head, tail, _) = run_migrated(from, to, &ops, k, chaos, Driver::Batch);
                // Reference runs: never actually change backend, but go
                // through the same (self-)migration at the same point.
                let (from_head, _, _) = run_migrated(from, from, &ops, k, chaos, Driver::Batch);
                let (_, to_tail, _) = run_migrated(to, to, &ops, k, chaos, Driver::Batch);
                prop_assert_eq!(
                    &head, &from_head,
                    "{:?}->{:?}: pre-swap head diverged from a {:?}-built run",
                    from, to, from
                );
                prop_assert_eq!(
                    &tail, &to_tail,
                    "{:?}->{:?}: post-swap tail diverged from a {:?}-built run",
                    from, to, to
                );
            }
        }
    }

    /// A batched run stays bit-identical — cycles included — to the
    /// reference loop of sync calls across a mid-sequence backend swap,
    /// for every ordered pair.
    #[test]
    fn batching_stays_cycle_identical_across_a_swap(
        ops in arb_ops(),
        split in 0usize..10,
        chaos in arb_chaos(),
    ) {
        for from in BackendChoice::ALL {
            for to in BackendChoice::ALL {
                let k = split.min(ops.len());
                let (h_on, t_on, c_on) = run_migrated(from, to, &ops, k, chaos, Driver::Batch);
                let (h_off, t_off, c_off) = run_migrated(from, to, &ops, k, chaos, Driver::Loop);
                prop_assert_eq!(&h_on, &h_off, "{:?}->{:?} head diverged", from, to);
                prop_assert_eq!(&t_on, &t_off, "{:?}->{:?} tail diverged", from, to);
                prop_assert_eq!(
                    c_on, c_off,
                    "{:?}->{:?} cycles diverged between the batch and the loop", from, to
                );
            }
        }
    }

    /// The async ring survives a mid-sequence swap: descriptors queued
    /// before the migration complete through the *new* backend without
    /// loss, duplication or reordering, and the completion values match
    /// a run built with the target from the start.
    #[test]
    fn queued_descriptors_survive_the_swap_in_order(
        uds in prop::collection::vec(0u64..1000, 1..6),
        chaos in arb_chaos(),
    ) {
        for from in BackendChoice::ALL {
            for to in BackendChoice::ALL {
                let run_async = |boot: BackendChoice, migrate: bool| {
                    let mut img = image(boot, chaos);
                    let sched = img.compartment_of_lib("uksched_verified").expect("sched");
                    for &ud in &uds {
                        img.gates
                            .submit(sched, Sqe::new(16, 8, ud))
                            .expect("pre-swap submission admitted");
                    }
                    if migrate {
                        migrate_all(&mut img, to, MigrationReason::Manual).expect("migrates");
                    }
                    let flushed = img
                        .gates
                        .flush_async(&mut img.machine, sched, |m, _, sqe| {
                            m.charge(sqe.arg_bytes + 1);
                            Ok(sqe.user_data as i64 * 3)
                        })
                        .expect("flush completes");
                    let mut got = Vec::new();
                    while let Ok(cqe) = img.gates.reap(sched) {
                        got.push((cqe.user_data, cqe.res));
                    }
                    (flushed, got)
                };
                let (flushed, got) = run_async(from, true);
                let (ref_flushed, ref_got) = run_async(to, false);
                prop_assert_eq!(
                    flushed, ref_flushed,
                    "{:?}->{:?}: flush count diverged", from, to
                );
                prop_assert_eq!(
                    &got, &ref_got,
                    "{:?}->{:?}: completions diverged after the swap", from, to
                );
                prop_assert_eq!(got.len(), uds.len(), "a descriptor was lost or duplicated");
            }
        }
    }
}

/// Drain-starvation regression: a continuous submitter hammering a
/// draining pair is refused (`GateDraining`) on every attempt, cannot
/// delay the swap past the in-flight call it was waiting for, and the
/// drain's cycle cost stays bounded by that call's work — not by the
/// submission storm. Descriptors parked on the ring before the request
/// ride the deferred swap and complete, in order, through the new gate.
#[test]
fn continuous_submission_cannot_stall_quiescence() {
    let mut img = image(BackendChoice::MpkShared, None);
    let target = img.compartment_of_lib("uksched_verified").expect("sched");
    for ud in 0..4u64 {
        img.gates
            .submit(target, Sqe::new(8, 8, ud))
            .expect("parked before the drain");
    }
    let caller = img.gates.current();
    let pair = if caller.0 <= target.0 {
        (caller, target)
    } else {
        (target, caller)
    };
    let mut planned = BTreeMap::new();
    planned.insert(pair, BackendChoice::VmRpc);
    let (gate, re) =
        prepare_pair_migration(&mut img, pair.0, pair.1, BackendChoice::VmRpc, &planned)
            .expect("prepares");
    const STORM: u64 = 1_000;
    img.call_lib("uksched_verified", 8, 8, move |m, rt| {
        let applied =
            rt.request_migration(m, pair.0, pair.1, gate, MigrationReason::Escalate, Some(re))?;
        assert!(!applied, "the pair is mid-call; the swap must defer");
        // The storm: every submission onto the draining pair must be
        // refused — admission is what bounds the drain.
        let mut rejected = 0u64;
        for ud in 0..STORM {
            match rt.submit(pair.1, Sqe::new(8, 8, ud)) {
                Err(Fault::GateDraining { .. }) => rejected += 1,
                Ok(()) => panic!("submission {ud} slipped past the admission stop"),
                Err(e) => panic!("unexpected fault: {e}"),
            }
        }
        assert_eq!(rejected, STORM);
        m.charge(50);
        Ok(0i64)
    })
    .expect("the draining call itself completes");
    let st = img.gates.migration_stats();
    assert_eq!(st.completed, 1, "the storm stalled the swap");
    assert_eq!(st.rejected_submits, STORM);
    assert_eq!(st.requeued_sqes, 4, "the deferred swap lost ring work");
    // Bounded drain: request → swap covers the in-flight call's own
    // work (charge + return leg), not anything proportional to STORM.
    assert!(
        st.drain_cycles_max > 0 && st.drain_cycles_max < 10_000,
        "drain latency {} not bounded by the in-flight call",
        st.drain_cycles_max
    );
    // The refused submitter can proceed after the swap.
    img.gates
        .submit(target, Sqe::new(8, 8, 7))
        .expect("post-swap submission admitted");
    let flushed = img
        .gates
        .flush_async(&mut img.machine, target, |m, _, _| {
            m.charge(5);
            Ok(1)
        })
        .expect("post-swap flush completes");
    assert_eq!(flushed, 5);
    let order: Vec<u64> = std::iter::from_fn(|| img.gates.reap(target).ok())
        .map(|cqe| cqe.user_data)
        .collect();
    assert_eq!(order, [0, 1, 2, 3, 7]);
}

/// Migration is exact about what it carries: completions already posted
/// stay reapable, pending submissions re-issue through the new gate —
/// across every ordered pair.
#[test]
fn every_pair_preserves_ready_cqes_and_requeues_pending_sqes() {
    for from in BackendChoice::ALL {
        for to in BackendChoice::ALL {
            let mut img = image(from, None);
            let target = img.compartment_of_lib("uksched_verified").expect("sched");
            for ud in 0..4u64 {
                img.gates
                    .submit(target, Sqe::new(8, 8, ud))
                    .expect("submits");
            }
            // Flush the first two, keep two pending.
            let mut seen = 0;
            img.gates
                .flush_async_until(
                    &mut img.machine,
                    target,
                    |m, _, sqe| {
                        m.charge(1);
                        Ok(sqe.user_data as i64)
                    },
                    |_, _, _, _| {
                        seen += 1;
                        Ok(seen < 2)
                    },
                )
                .expect("partial flush");
            migrate_all(&mut img, to, MigrationReason::Manual).expect("migrates");
            let st = img.gates.migration_stats();
            assert_eq!(
                (st.requeued_sqes, st.preserved_cqes),
                (2, 2),
                "{from:?}->{to:?}"
            );
            // Ready completions reap in order; pending ones complete
            // through the new gate.
            assert_eq!(img.gates.reap(target).expect("cqe 0").user_data, 0);
            assert_eq!(img.gates.reap(target).expect("cqe 1").user_data, 1);
            let flushed = img
                .gates
                .flush_async(&mut img.machine, target, |m, _, sqe| {
                    m.charge(1);
                    Ok(sqe.user_data as i64)
                })
                .expect("post-swap flush");
            assert_eq!(flushed, 2, "{from:?}->{to:?}");
            assert_eq!(img.gates.reap(target).expect("cqe 2").user_data, 2);
            assert_eq!(img.gates.reap(target).expect("cqe 3").user_data, 3);
        }
    }
}

/// A whole application migrates too: Redis on MPK escalated to VM-RPC
/// halfway through its measured phase. The swap fires, and the escalated
/// tail costs more than a run that stays on MPK.
#[test]
fn redis_escalated_to_vmrpc_mid_run_pays_for_its_tail() {
    use flexos_apps::redis::{run_redis, run_redis_with_stats, Mix, RedisParams};
    use flexos_apps::CompartmentModel;
    let params = RedisParams {
        model: CompartmentModel::NwSchedRest,
        backend: BackendChoice::MpkShared,
        mix: Mix::Get,
        ops: 600,
        migrate_to: Some((300, BackendChoice::VmRpc)),
        ..RedisParams::default()
    };
    let (migrated, snap) = run_redis_with_stats(&params).expect("migrating run");
    assert!(snap.migrations.completed >= 1, "migration never fired");
    let stay = run_redis(&RedisParams {
        migrate_to: None,
        ..params
    })
    .expect("no migration");
    assert!(
        migrated.cycles > stay.cycles,
        "VM-RPC tail should cost more: {} vs {}",
        migrated.cycles,
        stay.cycles
    );
}
