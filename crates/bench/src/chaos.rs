//! The `flexos-inject` chaos report: goodput vs. fault rate per
//! mechanism (`reproduce --chaos`).
//!
//! Each experiment drives a real workload through the simulated machine
//! with a seeded [`ChaosPlan`] (or seeded [`LinkChaos`]) installed and
//! measures how gracefully the recovery path degrades:
//!
//! * **TCP vs. frame loss** — the full iperf image, with the link
//!   dropping a per-mille fraction of frames; goodput falls, the byte
//!   stream still completes (RTO + retransmission).
//! * **VM RPC vs. doorbell loss** — gate crossings with notifications
//!   silently dropped; the gate retries with exponential backoff and
//!   surfaces a typed `GateTimeout` only when every attempt is lost.
//! * **Allocation vs. injected OOM** — region allocations forced to
//!   fail probabilistically; callers observe clean `OutOfMemory` faults
//!   and the success fraction tracks the configured rate.
//! * **Memory access vs. spurious pkey faults** — writes that fault
//!   spuriously and are retried; every write eventually lands.
//!
//! Every number is a pure function of the seed: two runs with the same
//! seed produce bit-identical reports.

use flexos::gate::{CompartmentCtx, CompartmentId, Gate};
use flexos::spec::ShSet;
use flexos_apps::iperf::{run_iperf, IperfParams};
use flexos_backends::vmrpc::VmRpcGate;
use flexos_machine::{
    ChaosConfig, ChaosPlan, Machine, PageFlags, Pkru, ProtKey, Schedule, VcpuId, VmId,
};
use flexos_net::nic::LinkChaos;
use flexos_trace::JsonWriter;
use std::fmt::Write as _;

/// One point of the TCP goodput-vs-loss sweep.
#[derive(Debug, Clone, Copy)]
pub struct TcpChaosPoint {
    /// Injected frame-loss rate (‰).
    pub loss_per_mille: u16,
    /// Bytes delivered to the application (always the full transfer).
    pub bytes: u64,
    /// Goodput in Mb/s.
    pub mbps: f64,
    /// Frames the link dropped.
    pub frames_dropped: u64,
}

/// iperf goodput under injected frame loss.
///
/// `vcpus` selects the run-queue topology (1 = legacy single queue,
/// more = the deterministic SMP queue). The canonical interleave makes
/// the sweep byte-identical for every `vcpus` value — the property the
/// `artefacts` CI job checks on this very report. The other three
/// chaos sweeps drive the machine directly, without a scheduler, so they
/// take no `vcpus` parameter.
pub fn tcp_goodput_vs_loss(quick: bool, seed: u64, vcpus: usize) -> Vec<TcpChaosPoint> {
    let rates: &[u16] = if quick {
        &[0, 100, 200]
    } else {
        &[0, 25, 50, 100, 200]
    };
    let total_bytes: u64 = if quick { 128 * 1024 } else { 512 * 1024 };
    rates
        .iter()
        .map(|&loss| {
            let r = run_iperf(&IperfParams {
                total_bytes,
                link_chaos: (loss > 0).then_some((
                    LinkChaos {
                        loss_per_mille: loss,
                        ..Default::default()
                    },
                    seed,
                )),
                vcpus,
                ..IperfParams::default()
            });
            TcpChaosPoint {
                loss_per_mille: loss,
                bytes: r.bytes,
                mbps: r.mbps,
                frames_dropped: r.frames_dropped,
            }
        })
        .collect()
}

/// One point of the VM-RPC doorbell-loss sweep.
#[derive(Debug, Clone, Copy)]
pub struct VmRpcChaosPoint {
    /// Injected doorbell-loss rate (‰).
    pub drop_per_mille: u16,
    /// Crossings attempted.
    pub attempts: u64,
    /// Crossings that completed (possibly after retries).
    pub ok: u64,
    /// Crossings that exhausted the retry budget (`GateTimeout`).
    pub timeouts: u64,
    /// Doorbell notifications the chaos layer dropped.
    pub doorbells_dropped: u64,
    /// Mean cycles per completed crossing (retry backoff included).
    pub mean_cycles_ok: u64,
}

/// VM RPC crossings under injected doorbell loss.
pub fn vmrpc_under_notify_loss(quick: bool, seed: u64) -> Vec<VmRpcChaosPoint> {
    let rates: &[u16] = if quick {
        &[0, 250, 900]
    } else {
        &[0, 100, 250, 500, 900]
    };
    let crossings: u64 = if quick { 200 } else { 1_000 };
    rates
        .iter()
        .map(|&rate| {
            let mut m = Machine::with_defaults();
            let vm1 = m.add_vm(false);
            let vcpu1 = m.add_vcpu(vm1);
            let rpc_base = m
                .alloc_shared_region(VmRpcGate::area_bytes(2), ProtKey(0))
                .expect("rpc area");
            let gate = VmRpcGate::new(rpc_base, 2);
            let heap0 = m
                .alloc_region(VmId(0), 4096, ProtKey(0), PageFlags::RW)
                .expect("heap0");
            let heap1 = m
                .alloc_region(vm1, 4096, ProtKey(0), PageFlags::RW)
                .expect("heap1");
            let c0 = CompartmentCtx {
                id: CompartmentId(0),
                name: "rest".into(),
                vm: VmId(0),
                vcpu: VcpuId(0),
                pkru: Pkru::ALLOW_ALL,
                keys: vec![],
                sh: ShSet::none(),
                heap_base: heap0,
                heap_size: 4096,
            };
            let c1 = CompartmentCtx {
                id: CompartmentId(1),
                name: "net".into(),
                vm: vm1,
                vcpu: vcpu1,
                pkru: Pkru::ALLOW_ALL,
                keys: vec![],
                sh: ShSet::none(),
                heap_base: heap1,
                heap_size: 4096,
            };
            if rate > 0 {
                m.set_chaos(ChaosPlan::new(ChaosConfig {
                    seed,
                    notify_drop: Schedule::PerMille(rate),
                    ..Default::default()
                }));
            }
            let mut ok = 0u64;
            let mut timeouts = 0u64;
            let mut cycles_ok = 0u64;
            for _ in 0..crossings {
                let t0 = m.clock().cycles();
                match gate.enter(&mut m, &c0, &c1, 64) {
                    Ok(()) => {
                        ok += 1;
                        cycles_ok += m.clock().cycles() - t0;
                    }
                    Err(_) => timeouts += 1,
                }
            }
            VmRpcChaosPoint {
                drop_per_mille: rate,
                attempts: crossings,
                ok,
                timeouts,
                doorbells_dropped: m.chaos_stats().map_or(0, |s| s.dropped_notifications),
                mean_cycles_ok: cycles_ok.checked_div(ok).unwrap_or(0),
            }
        })
        .collect()
}

/// One point of the injected-OOM sweep.
#[derive(Debug, Clone, Copy)]
pub struct AllocChaosPoint {
    /// Injected allocation-failure rate (‰).
    pub fail_per_mille: u16,
    /// Allocation attempts.
    pub attempts: u64,
    /// Attempts the chaos layer forced to fail.
    pub injected_oom: u64,
    /// Successful allocations per thousand attempts.
    pub success_per_mille: u64,
}

/// Region allocations under injected OOM.
pub fn alloc_under_injected_oom(quick: bool, seed: u64) -> Vec<AllocChaosPoint> {
    let rates: &[u16] = if quick {
        &[0, 100, 250]
    } else {
        &[0, 50, 100, 250]
    };
    let attempts: u64 = if quick { 200 } else { 1_000 };
    rates
        .iter()
        .map(|&rate| {
            let mut m = Machine::with_defaults();
            if rate > 0 {
                m.set_chaos(ChaosPlan::new(ChaosConfig {
                    seed,
                    alloc_fail: Schedule::PerMille(rate),
                    ..Default::default()
                }));
            }
            let mut ok = 0u64;
            for _ in 0..attempts {
                // Small regions so real frame exhaustion never interferes
                // with the injected failures.
                if m.alloc_region(VmId(0), 64, ProtKey(0), PageFlags::RW)
                    .is_ok()
                {
                    ok += 1;
                }
            }
            AllocChaosPoint {
                fail_per_mille: rate,
                attempts,
                injected_oom: m.chaos_stats().map_or(0, |s| s.injected_oom),
                success_per_mille: ok * 1000 / attempts,
            }
        })
        .collect()
}

/// One point of the spurious-pkey sweep.
#[derive(Debug, Clone, Copy)]
pub struct PkeyChaosPoint {
    /// Injected spurious-fault rate (‰) per access.
    pub fault_per_mille: u16,
    /// Writes the workload wanted to complete.
    pub writes: u64,
    /// Spurious faults taken (each retried until the write landed).
    pub spurious_faults: u64,
    /// Writes that eventually completed (always all of them).
    pub completed: u64,
}

/// Memory writes under spurious protection-key faults, retried until
/// they land — the "degrade gracefully" contract for the access path.
pub fn writes_under_spurious_pkey(quick: bool, seed: u64) -> Vec<PkeyChaosPoint> {
    let rates: &[u16] = if quick {
        &[0, 50, 100]
    } else {
        &[0, 10, 50, 100]
    };
    let writes: u64 = if quick { 500 } else { 2_000 };
    rates
        .iter()
        .map(|&rate| {
            let mut m = Machine::with_defaults();
            let buf = m
                .alloc_region(VmId(0), 4096, ProtKey(0), PageFlags::RW)
                .expect("buffer");
            if rate > 0 {
                m.set_chaos(ChaosPlan::new(ChaosConfig {
                    seed,
                    spurious_pkey: Schedule::PerMille(rate),
                    ..Default::default()
                }));
            }
            let mut completed = 0u64;
            for i in 0..writes {
                let payload = [(i % 251) as u8; 64];
                // Retry the write across spurious faults; the schedule is
                // per-access, so a retry re-draws and eventually lands.
                for _attempt in 0..64 {
                    if m.write(VcpuId(0), buf, &payload).is_ok() {
                        completed += 1;
                        break;
                    }
                }
            }
            PkeyChaosPoint {
                fault_per_mille: rate,
                writes,
                spurious_faults: m.chaos_stats().map_or(0, |s| s.spurious_pkey_faults),
                completed,
            }
        })
        .collect()
}

/// Renders the whole chaos report as a deterministic JSON document.
pub fn chaos_json(
    seed: u64,
    quick: bool,
    tcp: &[TcpChaosPoint],
    vmrpc: &[VmRpcChaosPoint],
    alloc: &[AllocChaosPoint],
    pkey: &[PkeyChaosPoint],
) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj(None)
        .begin_obj(Some("chaos"))
        .u64_field("seed", seed);
    let _ = write!(w.raw(Some("quick")), "{quick}");
    w.obj_arr("tcp", tcp, |w, p| {
        w.u64_field("loss_per_mille", p.loss_per_mille.into())
            .u64_field("bytes", p.bytes);
        let _ = write!(w.raw(Some("mbps")), "{:.3}", p.mbps);
        w.u64_field("frames_dropped", p.frames_dropped);
    })
    .obj_arr("vmrpc", vmrpc, |w, p| {
        w.u64_field("drop_per_mille", p.drop_per_mille.into())
            .u64_field("attempts", p.attempts)
            .u64_field("ok", p.ok)
            .u64_field("timeouts", p.timeouts)
            .u64_field("doorbells_dropped", p.doorbells_dropped)
            .u64_field("mean_cycles_ok", p.mean_cycles_ok);
    })
    .obj_arr("alloc", alloc, |w, p| {
        w.u64_field("fail_per_mille", p.fail_per_mille.into())
            .u64_field("attempts", p.attempts)
            .u64_field("injected_oom", p.injected_oom)
            .u64_field("success_per_mille", p.success_per_mille);
    })
    .obj_arr("pkey", pkey, |w, p| {
        w.u64_field("fault_per_mille", p.fault_per_mille.into())
            .u64_field("writes", p.writes)
            .u64_field("spurious_faults", p.spurious_faults)
            .u64_field("completed", p.completed);
    })
    .end_obj()
    .end_obj();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vmrpc_sweep_degrades_monotonically_in_spirit() {
        let points = vmrpc_under_notify_loss(true, 42);
        // Zero loss: every crossing succeeds, nothing dropped.
        assert_eq!(points[0].ok, points[0].attempts);
        assert_eq!(points[0].doorbells_dropped, 0);
        // Heavy loss: retries charge cycles, some crossings time out.
        let heavy = points.last().unwrap();
        assert!(heavy.doorbells_dropped > 0, "chaos never fired");
        assert!(heavy.timeouts > 0);
        assert!(heavy.mean_cycles_ok > points[0].mean_cycles_ok);
    }

    #[test]
    fn alloc_sweep_tracks_the_configured_rate() {
        let points = alloc_under_injected_oom(true, 42);
        assert_eq!(points[0].success_per_mille, 1000);
        let last = points.last().unwrap();
        // 250‰ failure: success lands near 750‰.
        assert!((650..=850).contains(&last.success_per_mille));
        assert_eq!(
            last.injected_oom,
            last.attempts - last.attempts * last.success_per_mille / 1000
        );
    }

    #[test]
    fn pkey_sweep_always_completes_every_write() {
        for p in writes_under_spurious_pkey(true, 42) {
            assert_eq!(p.completed, p.writes);
            if p.fault_per_mille > 0 {
                assert!(p.spurious_faults > 0);
            }
        }
    }

    #[test]
    fn chaos_json_is_deterministic() {
        let mk = || {
            let tcp = tcp_goodput_vs_loss(true, 7, 1);
            // Frames are lost, bytes are not: every transfer completes.
            assert!(tcp.iter().all(|p| p.bytes >= 128 * 1024), "{tcp:?}");
            let vmrpc = vmrpc_under_notify_loss(true, 7);
            let alloc = alloc_under_injected_oom(true, 7);
            let pkey = writes_under_spurious_pkey(true, 7);
            chaos_json(7, true, &tcp, &vmrpc, &alloc, &pkey)
        };
        assert_eq!(mk(), mk());
    }
}
