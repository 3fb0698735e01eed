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
use flexos_trace::{Cell, Sheet, Table};

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
pub fn tcp_goodput_vs_loss(quick: bool, seed: u64) -> Vec<TcpChaosPoint> {
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

/// The whole chaos report: each sweep's table, with its JSON key and
/// text header declared together, inside the JSON object `chaos`.
pub fn chaos_sheet(
    seed: u64,
    quick: bool,
    tcp: &[TcpChaosPoint],
    vmrpc: &[VmRpcChaosPoint],
    alloc: &[AllocChaosPoint],
    pkey: &[PkeyChaosPoint],
) -> Sheet {
    let sweeps = Sheet::new()
        .field("seed", seed)
        .field("quick", quick)
        .table(
            Table::rows("tcp", tcp)
                .title("TCP goodput vs injected frame loss (iperf, baseline image)")
                .both("loss_per_mille", "loss \u{2030}", |p| p.loss_per_mille)
                .both("bytes", "bytes delivered", |p| p.bytes)
                .json("mbps", |p| Cell::Fixed(p.mbps, 3))
                .text("goodput Mb/s", |p| Cell::Fixed(p.mbps, 1))
                .both("frames_dropped", "frames dropped", |p| p.frames_dropped),
        )
        .line("Every byte stream completes; goodput degrades, never deadlocks.\n")
        .table(
            Table::rows("vmrpc", vmrpc)
                .title("VM RPC vs injected doorbell loss (retry + exponential backoff)")
                .both("drop_per_mille", "drop \u{2030}", |p| p.drop_per_mille)
                .both("attempts", "crossings", |p| p.attempts)
                .col("ok", |p| p.ok)
                .col("timeouts", |p| p.timeouts)
                .both("doorbells_dropped", "doorbells lost", |p| {
                    p.doorbells_dropped
                })
                .both("mean_cycles_ok", "mean cycles/ok", |p| p.mean_cycles_ok),
        )
        .line(
            "Lost doorbells are re-rung with bounded backoff; only exhausted retry\n\
             budgets surface as typed GateTimeout faults.\n",
        )
        .table(
            Table::rows("alloc", alloc)
                .title("Allocation under injected OOM")
                .both("fail_per_mille", "fail \u{2030}", |p| p.fail_per_mille)
                .col("attempts", |p| p.attempts)
                .both("injected_oom", "injected OOM", |p| p.injected_oom)
                .both("success_per_mille", "success \u{2030}", |p| {
                    p.success_per_mille
                }),
        )
        .table(
            Table::rows("pkey", pkey)
                .title("Writes under spurious pkey faults (retried until they land)")
                .both("fault_per_mille", "fault \u{2030}", |p| p.fault_per_mille)
                .col("writes", |p| p.writes)
                .both("spurious_faults", "spurious faults", |p| p.spurious_faults)
                .col("completed", |p| p.completed),
        )
        .line("Deterministic: the same --seed reproduces this report byte-for-byte.");
    Sheet::new().sheet("chaos", sweeps)
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
            let tcp = tcp_goodput_vs_loss(true, 7);
            // Frames are lost, bytes are not: every transfer completes.
            assert!(tcp.iter().all(|p| p.bytes >= 128 * 1024), "{tcp:?}");
            let vmrpc = vmrpc_under_notify_loss(true, 7);
            let alloc = alloc_under_injected_oom(true, 7);
            let pkey = writes_under_spurious_pkey(true, 7);
            chaos_sheet(7, true, &tcp, &vmrpc, &alloc, &pkey).to_json()
        };
        assert_eq!(mk(), mk());
    }

    /// Two TCP points and one of each other sweep, with goodputs that
    /// round differently at one and three decimals.
    fn fixed_points() -> Sheet {
        let tcp = |loss_per_mille, mbps, frames_dropped| TcpChaosPoint {
            loss_per_mille,
            bytes: 131_072,
            mbps,
            frames_dropped,
        };
        chaos_sheet(
            7,
            true,
            &[tcp(0, 1234.5678, 0), tcp(100, 98.76549, 17)],
            &[VmRpcChaosPoint {
                drop_per_mille: 250,
                attempts: 200,
                ok: 199,
                timeouts: 1,
                doorbells_dropped: 61,
                mean_cycles_ok: 1234,
            }],
            &[AllocChaosPoint {
                fail_per_mille: 100,
                attempts: 200,
                injected_oom: 21,
                success_per_mille: 895,
            }],
            &[PkeyChaosPoint {
                fault_per_mille: 50,
                writes: 500,
                spurious_faults: 26,
                completed: 500,
            }],
        )
    }

    /// The bytes the code that `chaos_sheet` replaced printed and wrote for
    /// `fixed_points()`: its four text tables and its JSON writer.
    #[test]
    fn chaos_sheet_is_the_recorded_text_and_json() {
        assert_eq!(
            fixed_points().to_string(),
            concat!(
                "\n",
                "== TCP goodput vs injected frame loss (iperf, baseline image) ==\n",
                "loss \u{2030}    bytes delivered  goodput Mb/s  frames dropped\n",
                "-------------------------------------------------------\n",
                "0         131072           1234.6        0             \n",
                "100       131072           98.8          17            \n",
                "\n",
                "Every byte stream completes; goodput degrades, never deadlocks.\n",
                "\n",
                "\n",
                "== VM RPC vs injected doorbell loss (retry + exponential backoff) ==\n",
                "drop \u{2030}    crossings  ok   timeouts  doorbells lost  mean cycles/ok\n",
                "------------------------------------------------------------------\n",
                "250       200        199  1         61              1234          \n",
                "\n",
                "Lost doorbells are re-rung with bounded backoff; only exhausted retry\n",
                "budgets surface as typed GateTimeout faults.\n",
                "\n",
                "\n",
                "== Allocation under injected OOM ==\n",
                "fail \u{2030}    attempts  injected OOM  success \u{2030}  \n",
                "---------------------------------------------\n",
                "100       200       21            895        \n",
                "\n",
                "\n",
                "== Writes under spurious pkey faults (retried until they land) ==\n",
                "fault \u{2030}    writes  spurious faults  completed\n",
                "---------------------------------------------\n",
                "50         500     26               500      \n",
                "\n",
                "Deterministic: the same --seed reproduces this report byte-for-byte.\n",
            )
        );
        assert_eq!(
            fixed_points().to_json(),
            concat!(
                r#"{"chaos":{"seed":7,"quick":true,"#,
                r#""tcp":[{"loss_per_mille":0,"bytes":131072,"mbps":1234.568,"frames_dropped":0},{"loss_per_mille":100,"bytes":131072,"mbps":98.765,"frames_dropped":17}],"#,
                r#""vmrpc":[{"drop_per_mille":250,"attempts":200,"ok":199,"timeouts":1,"doorbells_dropped":61,"mean_cycles_ok":1234}],"#,
                r#""alloc":[{"fail_per_mille":100,"attempts":200,"injected_oom":21,"success_per_mille":895}],"#,
                r#""pkey":[{"fault_per_mille":50,"writes":500,"spurious_faults":26,"completed":500}]}}"#,
            )
        );
    }
}
