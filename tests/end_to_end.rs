//! End-to-end integration: boot full FlexOS images under every backend
//! and run the evaluation applications against them.

use flexos::build::{plan, BackendChoice, Hypervisor};
use flexos_apps::iperf::{run_iperf, IperfParams};
use flexos_apps::redis::{run_redis, Mix, RedisParams};
use flexos_apps::{evaluation_image, CompartmentModel, Os, SchedKind};

const SERVER_IP: u32 = 0x0a00_0001;

fn boot(model: CompartmentModel, backend: BackendChoice) -> Os {
    let cfg = evaluation_image("iperf", model, backend, SchedKind::Coop);
    Os::boot(plan(cfg).unwrap(), SERVER_IP, 1).unwrap()
}

#[test]
fn iperf_runs_on_every_backend() {
    for (model, backend) in [
        (CompartmentModel::Baseline, BackendChoice::None),
        (CompartmentModel::NwOnly, BackendChoice::MpkShared),
        (CompartmentModel::NwOnly, BackendChoice::MpkSwitched),
        (CompartmentModel::NwOnly, BackendChoice::VmRpc),
        (CompartmentModel::NwSchedRest, BackendChoice::MpkShared),
        (CompartmentModel::NwAndSchedRest, BackendChoice::MpkSwitched),
    ] {
        let r = run_iperf(&IperfParams {
            model,
            backend,
            total_bytes: 128 * 1024,
            ..IperfParams::default()
        });
        assert!(
            r.bytes >= 128 * 1024,
            "{model:?}/{backend:?} transferred {} bytes",
            r.bytes
        );
        assert!(r.mbps > 0.0);
    }
}

#[test]
fn redis_runs_on_every_backend() {
    for backend in [
        BackendChoice::MpkShared,
        BackendChoice::MpkSwitched,
        BackendChoice::VmRpc,
    ] {
        for mix in [Mix::Set, Mix::Get] {
            let r = run_redis(&RedisParams {
                model: CompartmentModel::NwOnly,
                backend,
                mix,
                ops: 200,
                ..RedisParams::default()
            })
            .expect("redis run");
            assert!(r.ops >= 200, "{backend:?}/{mix:?} completed {} ops", r.ops);
        }
    }
}

#[test]
fn redis_handles_all_payload_sizes_and_verified_sched() {
    for payload in [5usize, 50, 500] {
        let r = run_redis(&RedisParams {
            payload,
            sched: SchedKind::Verified,
            ops: 150,
            ..RedisParams::default()
        })
        .expect("redis run");
        assert!(r.ops >= 150);
    }
}

#[test]
fn xen_images_run_with_the_vm_backend() {
    let r = run_iperf(&IperfParams {
        model: CompartmentModel::NwOnly,
        backend: BackendChoice::VmRpc,
        hypervisor: Hypervisor::Xen,
        total_bytes: 64 * 1024,
        ..IperfParams::default()
    });
    assert!(r.bytes >= 64 * 1024);
}

#[test]
fn mpk_image_enforces_compartment_boundaries_in_vivo() {
    let mut os = boot(CompartmentModel::NwOnly, BackendChoice::MpkShared);
    // The net compartment's heap must be invisible from the app
    // compartment without a gate.
    let net_heap = os.img.gates.ctx(os.roles.net).heap_base;
    assert!(os.img.write(net_heap, b"attack").is_err());
    // And perfectly reachable through a gate.
    let c_net = os.roles.net;
    let flexos_backends::BootImage { machine, gates, .. } = &mut os.img;
    gates
        .cross(machine, c_net, 0, 0, |m, rt| {
            m.write(rt.current_ctx().vcpu, net_heap, b"legit!")
        })
        .unwrap();
}

#[test]
fn vm_image_gives_compartments_private_address_spaces() {
    let os = boot(CompartmentModel::NwOnly, BackendChoice::VmRpc);
    let app_vm = os.img.gates.ctx(os.roles.app).vm;
    let net_vm = os.img.gates.ctx(os.roles.net).vm;
    assert_ne!(app_vm, net_vm);
    assert!(os.img.machine.vm_count() >= 2);
}

#[test]
fn gate_crossings_scale_with_isolation_granularity() {
    let count = |model, backend| {
        run_iperf(&IperfParams {
            model,
            backend,
            total_bytes: 64 * 1024,
            recv_buf: 1024,
            ..IperfParams::default()
        })
        .crossings
    };
    let none = count(CompartmentModel::Baseline, BackendChoice::None);
    let nw = count(CompartmentModel::NwOnly, BackendChoice::MpkShared);
    let nw_sched = count(CompartmentModel::NwSchedRest, BackendChoice::MpkShared);
    assert_eq!(none, 0);
    assert!(nw > 0);
    assert!(
        nw_sched > nw,
        "finer compartments mean more crossings ({nw_sched} vs {nw})"
    );
}

#[test]
fn throughput_is_deterministic_across_runs() {
    let params = IperfParams {
        model: CompartmentModel::NwOnly,
        backend: BackendChoice::MpkShared,
        total_bytes: 64 * 1024,
        ..IperfParams::default()
    };
    let a = run_iperf(&params);
    let b = run_iperf(&params);
    assert_eq!(a.cycles, b.cycles, "simulation must be bit-deterministic");
    assert_eq!(a.bytes, b.bytes);
    assert_eq!(a.crossings, b.crossings);
}

/// With `trace-off`, every span probe compiles to a no-op: the workload
/// still runs (same API, same results), but the trace export carries no
/// slices, no requests and no flow arrows, and the snapshot's latency,
/// mechanism, ring-drop and event tables are empty. The counters are not
/// probes: they count in this build as in the default one. Paired with the normal-mode CI
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
    let (result, snap, trace) =
        flexos_apps::redis::run_redis_traced(&params).expect("trace-off run");
    assert!(result.ops > 0 && result.cycles > 0);
    assert!(snap.net.rx_segments > 0, "{:?}", snap.net);
    assert!(snap.sched.switches > 0, "{:?}", snap.sched);
    assert!(snap.tlb.hits > 0, "{:?}", snap.tlb);
    assert!(snap.events.is_empty(), "event tail under trace-off");
    assert!(snap.ring_drops.is_empty(), "ring rows under trace-off");
    assert!(snap.latency.is_empty(), "latency rows under trace-off");
    assert!(
        snap.mechanisms.is_empty(),
        "crossing histograms under trace-off"
    );
    // The export is still structurally valid JSON, just empty of spans:
    // metadata only, no slices ("ph":"X"), requests ("b"/"e") or flows.
    for ph in ["\"ph\":\"X\"", "\"ph\":\"b\"", "\"ph\":\"s\""] {
        assert!(!trace.contains(ph), "{ph} present under trace-off");
    }
}
