//! SMP lockstep suite: the deterministic SMP run queue is contracted to
//! be *invisible* — for any workload, any vCPU count must produce the
//! same outcomes, the same simulated cycle counts, the same gate
//! crossings and the same fault traces as the legacy single-queue
//! schedulers. The canonical interleave (every enqueue stamped with a
//! global sequence number; pop always takes the minimum across per-vCPU
//! deques) makes this provable per-step; this suite checks it
//! end-to-end over randomised iperf and Redis runs, with and without
//! injected chaos, at `vcpus` 2 and 4. The `artefacts` CI job
//! enforces the same contract on the shipped `reproduce` binary.

use flexos::build::BackendChoice;
use flexos_apps::iperf::{run_iperf, IperfParams};
use flexos_apps::redis::{run_redis, run_redis_traced, run_redis_with_stats, Mix, RedisParams};
use flexos_apps::{CompartmentModel, SchedKind};
use flexos_machine::{ChaosConfig, Schedule};
use flexos_net::nic::LinkChaos;
use proptest::prelude::*;

/// The vCPU widths compared against the single-queue reference.
const WIDTHS: &[usize] = &[2, 4];

fn arb_sched() -> impl Strategy<Value = SchedKind> {
    prop_oneof![Just(SchedKind::Coop), Just(SchedKind::Verified)]
}

fn arb_model_backend() -> impl Strategy<Value = (CompartmentModel, BackendChoice)> {
    prop_oneof![
        Just((CompartmentModel::Baseline, BackendChoice::None)),
        Just((CompartmentModel::NwOnly, BackendChoice::MpkShared)),
        Just((CompartmentModel::NwSchedRest, BackendChoice::MpkShared)),
        Just((CompartmentModel::NwOnly, BackendChoice::MpkSwitched)),
    ]
}

/// Everything observable about an iperf run. Cycles and mbps included:
/// the contract is bit-level, not shape-level. Harsh link chaos can
/// abort the run (e.g. the handshake never completes under heavy seeded
/// loss) — that abort is deterministic too, so the fate is part of the
/// fingerprint: a run that dies at vcpus=1 must die with the same
/// message at vcpus=4.
#[allow(clippy::type_complexity)]
fn iperf_fingerprint(params: &IperfParams) -> Result<(u64, u64, u64, u64, u64, u64, u64), String> {
    let params = params.clone();
    std::panic::catch_unwind(move || {
        let r = run_iperf(&params);
        (
            r.bytes,
            r.cycles,
            r.mbps.to_bits(),
            r.crossings,
            r.switches,
            r.frames_dropped,
            r.frames_corrupted,
        )
    })
    .map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "opaque panic".into())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// iperf at vcpus 2/4 is bit-identical to the single-queue run —
    /// bytes, cycles, throughput bits, crossings, switches, and the
    /// chaos-driven frame drop/corruption counts (the fault trace of
    /// this workload).
    #[test]
    fn iperf_is_bit_identical_across_vcpu_counts(
        model_backend in arb_model_backend(),
        sched in arb_sched(),
        recv_buf in prop_oneof![Just(256u64), Just(1024), Just(16 * 1024)],
        loss in prop_oneof![Just(0u16), Just(50), Just(150)],
        seed in 0u64..1_000,
    ) {
        let (model, backend) = model_backend;
        let params = IperfParams {
            model,
            backend,
            sched,
            recv_buf,
            total_bytes: 96 * 1024,
            link_chaos: (loss > 0).then_some((
                LinkChaos { loss_per_mille: loss, ..Default::default() },
                seed,
            )),
            vcpus: 1,
            ..IperfParams::default()
        };
        let reference = iperf_fingerprint(&params);
        for &vcpus in WIDTHS {
            let smp = iperf_fingerprint(&IperfParams { vcpus, ..params.clone() });
            prop_assert_eq!(
                smp, reference,
                "iperf diverged at vcpus={} (model {:?}, backend {:?}, sched {:?}, \
                 buf {}, loss {}‰)",
                vcpus, model, backend, sched, recv_buf, loss
            );
        }
    }

    /// Redis at vcpus 2/4 matches the single-queue run down to the full
    /// telemetry snapshot JSON — per-pair crossings, latency histograms,
    /// scheduler activity, allocator counters, fault tables and event
    /// rings. One string compare covers every counter the tracer owns.
    #[test]
    fn redis_snapshot_is_identical_across_vcpu_counts(
        model_backend in arb_model_backend(),
        sched in arb_sched(),
        mix in prop_oneof![Just(Mix::Get), Just(Mix::Set)],
        payload in prop_oneof![Just(5usize), Just(500)],
        ops in 50u64..200,
    ) {
        let (model, backend) = model_backend;
        let params = RedisParams {
            model,
            backend,
            sched,
            mix,
            payload,
            ops,
            vcpus: 1,
            ..RedisParams::default()
        };
        let (r1, snap1) = run_redis_with_stats(&params).expect("reference run");
        let json1 = snap1.to_json();
        for &vcpus in WIDTHS {
            let (rn, snapn) =
                run_redis_with_stats(&RedisParams { vcpus, ..params.clone() })
                    .expect("smp run");
            prop_assert_eq!(
                (rn.ops, rn.cycles, rn.crossings, rn.mreq_per_s.to_bits()),
                (r1.ops, r1.cycles, r1.crossings, r1.mreq_per_s.to_bits()),
                "redis result diverged at vcpus={}", vcpus
            );
            prop_assert_eq!(
                &snapn.to_json(), &json1,
                "telemetry snapshot diverged at vcpus={}", vcpus
            );
        }
    }

    /// The span tracer rides the same canonical interleave: the full
    /// Chrome trace-event export (every slice, flow arrow and request
    /// span, timestamped in simulated cycles) and the per-request
    /// latency percentile block must be byte-identical at every vCPU
    /// width. Span shards are keyed by plan-determined vCPU assignment,
    /// never by which host queue ran the work.
    #[test]
    fn span_trace_is_byte_identical_across_vcpu_counts(
        model_backend in arb_model_backend(),
        mix in prop_oneof![Just(Mix::Get), Just(Mix::Set)],
        ops in 50u64..150,
    ) {
        let (model, backend) = model_backend;
        let params = RedisParams {
            model,
            backend,
            mix,
            ops,
            vcpus: 1,
            ..RedisParams::default()
        };
        let (r1, snap1, trace1) = run_redis_traced(&params).expect("reference run");
        let latency1 = format!("{:?}", snap1.latency);
        for &vcpus in WIDTHS {
            let (rn, snapn, tracen) =
                run_redis_traced(&RedisParams { vcpus, ..params.clone() })
                    .expect("smp run");
            prop_assert_eq!((rn.ops, rn.cycles), (r1.ops, r1.cycles));
            prop_assert_eq!(
                &format!("{:?}", snapn.latency), &latency1,
                "latency percentiles diverged at vcpus={}", vcpus
            );
            prop_assert_eq!(
                &tracen, &trace1,
                "span trace diverged at vcpus={}", vcpus
            );
        }
    }

    /// Injected machine chaos (doorbell loss on a VM RPC image) fails —
    /// or survives — identically at every vCPU count: same typed error
    /// or the same success numbers.
    #[test]
    fn redis_chaos_fate_is_identical_across_vcpu_counts(
        drop_nth in 2u64..6,
        ops in 40u64..120,
        seed in 0u64..100,
    ) {
        let params = RedisParams {
            model: CompartmentModel::NwOnly,
            backend: BackendChoice::VmRpc,
            mix: Mix::Get,
            ops,
            machine_chaos: Some(ChaosConfig {
                seed,
                notify_drop: Schedule::EveryNth(drop_nth),
                ..Default::default()
            }),
            vcpus: 1,
            ..RedisParams::default()
        };
        let reference = run_redis(&params)
            .map(|r| (r.ops, r.cycles, r.crossings, r.mreq_per_s.to_bits()));
        for &vcpus in WIDTHS {
            let smp = run_redis(&RedisParams { vcpus, ..params.clone() })
                .map(|r| (r.ops, r.cycles, r.crossings, r.mreq_per_s.to_bits()));
            prop_assert_eq!(
                &smp, &reference,
                "chaos fate diverged at vcpus={} (drop 1/{}, seed {})",
                vcpus, drop_nth, seed
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A live backend migration fired mid-run (PR 10's quiescence
    /// protocol) runs between executor steps, so it is part of the
    /// canonical interleave: the result tuple, the full telemetry
    /// snapshot — including the new `migrations` block — and the span
    /// trace must all be byte-identical at every vCPU width, for any
    /// target backend and any trigger point.
    #[test]
    fn live_migration_is_byte_identical_across_vcpu_counts(
        to in prop_oneof![
            Just(BackendChoice::VmRpc),
            Just(BackendChoice::MpkSwitched),
            Just(BackendChoice::None),
        ],
        after in 20u64..80,
        ops in 100u64..160,
    ) {
        let params = RedisParams {
            model: CompartmentModel::NwSchedRest,
            backend: BackendChoice::MpkShared,
            mix: Mix::Get,
            ops,
            migrate_to: Some((after, to)),
            vcpus: 1,
            ..RedisParams::default()
        };
        let (r1, snap1, trace1) = run_redis_traced(&params).expect("reference run");
        prop_assert!(
            snap1.migrations.completed >= 1,
            "migration never fired (after {}, ops {})", after, ops
        );
        let json1 = snap1.to_json();
        for &vcpus in WIDTHS {
            let (rn, snapn, tracen) =
                run_redis_traced(&RedisParams { vcpus, ..params.clone() })
                    .expect("smp run");
            prop_assert_eq!(
                (rn.ops, rn.cycles, rn.crossings, rn.mreq_per_s.to_bits()),
                (r1.ops, r1.cycles, r1.crossings, r1.mreq_per_s.to_bits()),
                "migrating redis result diverged at vcpus={} (to {:?}, after {})",
                vcpus, to, after
            );
            prop_assert_eq!(
                &snapn.to_json(), &json1,
                "telemetry snapshot diverged at vcpus={}", vcpus
            );
            prop_assert_eq!(
                &tracen, &trace1,
                "span trace diverged at vcpus={}", vcpus
            );
        }
    }
}

/// The migrating profile at unit-test speed, vcpus 1 vs 4: the MPK →
/// VM-RPC escalation lands between the same two scheduler steps at both
/// widths (bit-identical results and snapshot JSON), and the escalated
/// tail is visibly more expensive than a run that stays on MPK.
#[test]
fn ci_migration_profile_is_bit_identical_at_vcpus_4() {
    let params = RedisParams {
        model: CompartmentModel::NwSchedRest,
        backend: BackendChoice::MpkShared,
        mix: Mix::Get,
        ops: 600,
        migrate_to: Some((300, BackendChoice::VmRpc)),
        ..RedisParams::default()
    };
    let (r1, s1) = run_redis_with_stats(&params).expect("vcpus=1");
    let (r4, s4) = run_redis_with_stats(&RedisParams {
        vcpus: 4,
        ..params.clone()
    })
    .expect("vcpus=4");
    assert!(s1.migrations.completed >= 1, "migration never fired");
    assert_eq!(
        (r1.ops, r1.cycles, r1.crossings),
        (r4.ops, r4.cycles, r4.crossings)
    );
    assert_eq!(s1.to_json(), s4.to_json());
    let (stay, _) = run_redis_with_stats(&RedisParams {
        migrate_to: None,
        ..params
    })
    .expect("no migration");
    assert!(
        r1.cycles > stay.cycles,
        "VM-RPC tail should cost more: {} vs {}",
        r1.cycles,
        stay.cycles
    );
}

/// The exact profile the `artefacts` CI job pins with its recorded
/// baseline, asserted here at unit-test speed so a violation is caught
/// before CI: Redis GET / MPK shared / NW+sched-vs-rest, vcpus 1 vs 4.
#[test]
fn ci_profile_is_bit_identical_at_vcpus_4() {
    let params = RedisParams {
        model: CompartmentModel::NwSchedRest,
        backend: BackendChoice::MpkShared,
        mix: Mix::Get,
        ops: 1_000,
        ..RedisParams::default()
    };
    let (r1, s1) = run_redis_with_stats(&params).expect("vcpus=1");
    let (r4, s4) = run_redis_with_stats(&RedisParams { vcpus: 4, ..params }).expect("vcpus=4");
    assert_eq!(
        (r1.ops, r1.cycles, r1.crossings),
        (r4.ops, r4.cycles, r4.crossings)
    );
    assert_eq!(s1.to_json(), s4.to_json());
    // And it is a profile worth pinning: every pair crossed, the
    // mechanism and batch histograms filled, the software TLB was used.
    #[cfg(not(feature = "trace-off"))]
    assert!(
        !s4.gate_pairs.is_empty()
            && s4.gate_pairs.iter().all(|p| p.crossings > 0)
            && !s4.mechanisms.is_empty()
            && !s4.gate_batch.is_empty()
            && s4.tlb.hits > 0,
        "{s4:?}"
    );
}

/// With `trace-off`, every span probe compiles to a no-op: the workload
/// still runs (same API, same results), but the trace export carries no
/// slices, no requests and no flow arrows, and the snapshot's latency
/// and ring-drop tables are empty. Paired with the normal-mode CI
/// baseline (whose simulated cycle counts did not move when the probes
/// landed), this is the "tracing is free when compiled out, and costs
/// zero simulated cycles when compiled in" contract.
#[cfg(feature = "trace-off")]
#[test]
fn trace_off_build_records_no_spans_and_still_runs() {
    let params = RedisParams {
        model: CompartmentModel::NwSchedRest,
        backend: BackendChoice::MpkShared,
        mix: Mix::Get,
        ops: 200,
        ..RedisParams::default()
    };
    let (result, snap, trace) = run_redis_traced(&params).expect("trace-off run");
    assert!(result.ops > 0 && result.cycles > 0);
    assert!(snap.latency.is_empty(), "latency rows under trace-off");
    assert!(
        !snap.ring_drops.iter().any(|r| r.subsystem == "spans"),
        "span ring stats under trace-off"
    );
    // The export is still structurally valid JSON, just empty of spans:
    // metadata only, no slices ("ph":"X"), requests ("b"/"e") or flows.
    for ph in ["\"ph\":\"X\"", "\"ph\":\"b\"", "\"ph\":\"s\""] {
        assert!(!trace.contains(ph), "{ph} present under trace-off");
    }
}
