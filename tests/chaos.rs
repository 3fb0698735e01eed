//! End-to-end `flexos-inject` integration: chaos plans drive real
//! recovery paths, injected faults land in the trace layer, and the
//! whole pipeline is a pure function of the seed.

use flexos::gate::{CompartmentCtx, CompartmentId, Gate};
use flexos::spec::ShSet;
use flexos_backends::vmrpc::{RetryPolicy, VmRpcGate};
use flexos_machine::{
    ChaosConfig, ChaosPlan, Fault, Machine, PageFlags, Pkru, ProtKey, Schedule, VcpuId, VmId,
};
use flexos_trace::{StatsSnapshot, TraceRegistry};

/// Names the first cell where two replays' `--stats` part, ahead of the
/// byte comparison that fails on it.
fn report_first_difference(a: &StatsSnapshot, b: &StatsSnapshot) {
    if let Some(d) = a.sheet().first_difference(&b.sheet()) {
        eprintln!("replays part at {d:?}");
    }
}

fn rpc_world() -> (Machine, VmRpcGate, CompartmentCtx, CompartmentCtx) {
    let mut m = Machine::with_defaults();
    let vm1 = m.add_vm(false);
    let vcpu1 = m.add_vcpu(vm1);
    let rpc_base = m
        .alloc_shared_region(VmRpcGate::area_bytes(2), ProtKey(0))
        .unwrap();
    let gate = VmRpcGate::new(rpc_base, 2);
    let heap0 = m
        .alloc_region(VmId(0), 4096, ProtKey(0), PageFlags::RW)
        .unwrap();
    let heap1 = m
        .alloc_region(vm1, 4096, ProtKey(0), PageFlags::RW)
        .unwrap();
    let ctx = |id, name: &str, vm, vcpu, heap| CompartmentCtx {
        id: CompartmentId(id),
        name: name.into(),
        vm,
        vcpu,
        pkru: Pkru::ALLOW_ALL,
        keys: vec![],
        sh: ShSet::none(),
        heap_base: heap,
        heap_size: 4096,
    };
    let c0 = ctx(0, "rest", VmId(0), VcpuId(0), heap0);
    let c1 = ctx(1, "net", vm1, vcpu1, heap1);
    (m, gate, c0, c1)
}

#[test]
fn injected_doorbell_loss_is_recovered_and_traced() {
    let (mut m, gate, c0, c1) = rpc_world();
    m.set_chaos(ChaosPlan::new(ChaosConfig {
        seed: 42,
        notify_drop: Schedule::PerMille(300),
        ..Default::default()
    }));
    let mut ok = 0u64;
    let mut timeouts = 0u64;
    for _ in 0..200 {
        match gate.enter(&mut m, &c0, &c1, 32) {
            Ok(()) => ok += 1,
            Err(Fault::GateTimeout { mechanism, .. }) => {
                assert_eq!(mechanism, "vmrpc");
                timeouts += 1;
            }
            Err(e) => panic!("unexpected fault: {e}"),
        }
    }
    // At 30% loss and 5 attempts, the overwhelming majority recovers.
    assert!(ok > 190, "only {ok}/200 crossings recovered");
    let stats = m.chaos_stats().unwrap();
    assert!(stats.dropped_notifications > 0);
    if cfg!(feature = "trace-off") {
        return; // the chaos ledger above is the always-on one
    }
    // Injected faults are counted in the machine's fault trace...
    assert_eq!(
        m.fault_trace().count("injected-notify-drop"),
        stats.dropped_notifications
    );
    // ...and surface as `injected` events in a stats snapshot.
    let mut reg = TraceRegistry::new();
    reg.set_elapsed(m.clock().cycles());
    reg.add_faults(m.fault_trace(), |_| None);
    reg.add_spans(m.span_trace());
    let snap = reg.finish();
    assert!(snap
        .fault_kinds
        .iter()
        .any(|r| r.kind == "injected-notify-drop" && r.count == stats.dropped_notifications));
    assert!(snap.events.iter().any(|e| e.kind == "injected"));
    // The snapshot's JSON carries the injected kinds too.
    assert!(snap.to_json().contains("injected-notify-drop"));
    let _ = timeouts;
}

#[test]
fn total_doorbell_loss_times_out_instead_of_hanging() {
    let (mut m, _gate, c0, c1) = rpc_world();
    // A gate with a tight custom retry budget over its own RPC area.
    let rpc_base = m
        .alloc_shared_region(VmRpcGate::area_bytes(2), ProtKey(0))
        .unwrap();
    let gate = VmRpcGate::with_retry(
        rpc_base,
        2,
        RetryPolicy {
            max_attempts: 3,
            backoff_base_cycles: 1_000,
        },
    );
    m.set_chaos(ChaosPlan::new(ChaosConfig {
        seed: 7,
        notify_drop: Schedule::EveryNth(1),
        ..Default::default()
    }));
    let t0 = m.clock().cycles();
    let err = gate.enter(&mut m, &c0, &c1, 8).unwrap_err();
    assert_eq!(
        err,
        Fault::GateTimeout {
            mechanism: "vmrpc",
            attempts: 3,
        }
    );
    // Backoff charged 1000 + 2000 cycles on top of the notify costs.
    assert!(m.clock().cycles() - t0 >= 3_000);
}

#[test]
fn chaos_pipeline_is_a_pure_function_of_the_seed() {
    let run = |seed: u64| -> ((u64, u64, String), StatsSnapshot) {
        let (mut m, gate, c0, c1) = rpc_world();
        m.set_chaos(ChaosPlan::new(ChaosConfig {
            seed,
            notify_drop: Schedule::PerMille(400),
            spurious_pkey: Schedule::PerMille(20),
            ..Default::default()
        }));
        let mut ok = 0u64;
        for _ in 0..100 {
            if gate.enter(&mut m, &c0, &c1, 16).is_ok() {
                ok += 1;
            }
        }
        let mut reg = TraceRegistry::new();
        reg.set_elapsed(m.clock().cycles());
        reg.add_faults(m.fault_trace(), |_| None);
        let snap = reg.finish();
        ((ok, m.clock().cycles(), snap.to_json()), snap)
    };
    let (a, sa) = run(1234);
    let (b, sb) = run(1234);
    report_first_difference(&sa, &sb);
    assert_eq!(a, b, "same seed must replay the same world");
    let (c, _) = run(5678);
    assert_ne!(a.1, c.1, "different seeds should diverge");
}

#[test]
fn disabling_chaos_restores_the_exact_baseline() {
    let run = |with_idle_chaos: bool| -> u64 {
        let (mut m, gate, c0, c1) = rpc_world();
        if with_idle_chaos {
            // A plan with every schedule Off must be invisible.
            m.set_chaos(ChaosPlan::new(ChaosConfig::with_seed(99)));
        }
        for _ in 0..50 {
            gate.enter(&mut m, &c0, &c1, 64).unwrap();
            gate.exit(&mut m, &c1, &c0, 16).unwrap();
        }
        m.clock().cycles()
    };
    assert_eq!(run(false), run(true));
}

/// A live backend migration under active chaos is still a pure function
/// of the seed: two same-seed runs that escalate MPK → VM RPC mid-way
/// through a chaos-injected call sequence produce byte-identical stats
/// JSON — migrations block included.
#[test]
fn migration_under_chaos_is_byte_identical_for_the_same_seed() {
    use flexos::build::{plan, BackendChoice, ImageConfig, LibRole, LibraryConfig};
    use flexos::gate::{MigrationReason, Sqe};
    use flexos::spec::LibSpec;
    use flexos_backends::{instantiate_migratable, migrate_all};
    use flexos_trace::MigrationsSnapshot;

    let run = |seed: u64| -> StatsSnapshot {
        let cfg = ImageConfig::new("chaos-mig", BackendChoice::MpkShared)
            .with_library(LibraryConfig::new(
                LibSpec::verified_scheduler(),
                LibRole::Scheduler,
            ))
            .with_library(LibraryConfig::new(LibSpec::unsafe_c("app"), LibRole::App));
        let mut img = instantiate_migratable(plan(cfg).unwrap(), BackendChoice::MpkShared).unwrap();
        img.machine.set_chaos(ChaosPlan::new(ChaosConfig {
            seed,
            notify_drop: Schedule::PerMille(300),
            spurious_pkey: Schedule::PerMille(20),
            ..Default::default()
        }));
        let cross = |img: &mut flexos_backends::BootImage| {
            let _ = img.call_lib("uksched_verified", 16, 8, |m, _| {
                m.charge(10);
                Ok(0i64)
            });
        };
        for _ in 0..20 {
            cross(&mut img);
        }
        for ud in 0..3u64 {
            img.submit_lib("uksched_verified", Sqe::new(8, 8, ud))
                .unwrap();
        }
        migrate_all(&mut img, BackendChoice::VmRpc, MigrationReason::Escalate).unwrap();
        for _ in 0..20 {
            cross(&mut img);
        }
        let _ = img.call_lib_async("uksched_verified", |m, _, _| {
            m.charge(5);
            Ok(1)
        });
        let mut reg = TraceRegistry::new();
        reg.set_elapsed(img.machine.clock().cycles());
        reg.add_faults(img.machine.fault_trace(), |_| None);
        let mg = img.gates.migration_stats();
        reg.add_migrations(MigrationsSnapshot {
            requested: mg.requested,
            completed: mg.completed,
            deferred: mg.deferred,
            rejected_submits: mg.rejected_submits,
            requeued_sqes: mg.requeued_sqes,
            preserved_cqes: mg.preserved_cqes,
            drain_cycles_total: mg.drain_cycles_total,
            drain_cycles_max: mg.drain_cycles_max,
            escalations: mg.escalations,
            relaxations: mg.relaxations,
        });
        reg.finish()
    };
    let (sa, sb) = (run(42), run(42));
    report_first_difference(&sa, &sb);
    let (a, b) = (sa.to_json(), sb.to_json());
    assert_eq!(
        a, b,
        "same seed + same migration must replay byte-identically"
    );
    assert!(a.contains("\"migrations\":{"));
    assert!(a.contains("\"escalations\":1"));
    let c = run(5678).to_json();
    assert_ne!(a, c, "different seeds should diverge");
}

/// Doorbell loss injected *while a pair drains* neither loses nor
/// duplicates a descriptor: pending submissions re-issue through the
/// new backend, already-posted completions stay reapable, and every
/// cookie comes back exactly once, in order.
#[test]
fn doorbell_loss_during_drain_loses_no_descriptor() {
    use flexos::build::{plan, BackendChoice, ImageConfig, LibRole, LibraryConfig};
    use flexos::gate::{MigrationReason, Sqe};
    use flexos::spec::LibSpec;
    use flexos_backends::{instantiate_migratable, migrate_all};

    let cfg = ImageConfig::new("chaos-drain", BackendChoice::VmRpc)
        .with_library(LibraryConfig::new(
            LibSpec::verified_scheduler(),
            LibRole::Scheduler,
        ))
        .with_library(LibraryConfig::new(LibSpec::unsafe_c("app"), LibRole::App));
    let mut img = instantiate_migratable(plan(cfg).unwrap(), BackendChoice::VmRpc).unwrap();
    // Lossy, duplicating doorbells for the entire drain window. Loss
    // stays under the retry budget so crossings recover.
    img.machine.set_chaos(ChaosPlan::new(ChaosConfig {
        seed: 7,
        notify_drop: Schedule::EveryNth(2),
        notify_dup: Schedule::EveryNth(3),
        ..Default::default()
    }));
    for ud in 0..6u64 {
        img.submit_lib("uksched_verified", Sqe::new(8, 8, ud))
            .unwrap();
    }
    // Flush half under chaos, leaving three descriptors pending.
    let target = img.compartment_of_lib("uksched_verified").unwrap();
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
                Ok(seen < 3)
            },
        )
        .unwrap();
    // The swap away from VM RPC drains the doorbell backlog (including
    // chaos-duplicated rings) and carries the ring across.
    migrate_all(
        &mut img,
        BackendChoice::MpkShared,
        MigrationReason::Escalate,
    )
    .unwrap();
    let st = img.gates.migration_stats();
    assert_eq!((st.requeued_sqes, st.preserved_cqes), (3, 3));
    let flushed = img
        .call_lib_async("uksched_verified", |m, _, sqe| {
            m.charge(1);
            Ok(sqe.user_data as i64)
        })
        .unwrap();
    assert_eq!(flushed, 3, "a pending descriptor was lost in the drain");
    let mut got = Vec::new();
    while let Ok(cqe) = img.reap_lib("uksched_verified") {
        got.push(cqe.user_data);
    }
    assert_eq!(
        got,
        vec![0, 1, 2, 3, 4, 5],
        "loss or duplication across the swap"
    );
}
