//! Quantitative shape assertions against the paper's §4 claims.
//!
//! These are the regression tests for the reproduction: if a refactor
//! breaks a headline finding (a who-wins ordering, a crossover, a
//! magnitude band), these fail. Workload sizes are kept small; the full
//! sweeps live in `cargo run -p flexos-bench --bin reproduce`.

use flexos::build::{BackendChoice, Hypervisor};
use flexos_apps::iperf::{run_iperf, IperfParams};
use flexos_apps::redis::{run_redis, Mix, RedisParams};
use flexos_apps::{CompartmentModel, SchedKind};

fn iperf(params: IperfParams) -> f64 {
    run_iperf(&IperfParams {
        total_bytes: 256 * 1024,
        ..params
    })
    .mbps
}

fn redis(params: RedisParams) -> f64 {
    run_redis(&RedisParams { ops: 300, ..params })
        .expect("redis run")
        .mreq_per_s
}

// --- Figure 3 shapes -----------------------------------------------------------

#[test]
fn fig3_mpk_slowdown_is_2_to_3x_at_small_buffers_and_converges() {
    let base_small = iperf(IperfParams {
        recv_buf: 64,
        ..IperfParams::default()
    });
    let base_large = iperf(IperfParams {
        recv_buf: 16 * 1024,
        ..IperfParams::default()
    });
    for backend in [BackendChoice::MpkShared, BackendChoice::MpkSwitched] {
        let small = iperf(IperfParams {
            model: CompartmentModel::NwOnly,
            backend,
            recv_buf: 64,
            ..IperfParams::default()
        });
        let slowdown = base_small / small;
        assert!(
            (1.5..=3.5).contains(&slowdown),
            "{backend:?} small-buffer slowdown {slowdown:.2} outside the paper's 2-3x band"
        );
        let large = iperf(IperfParams {
            model: CompartmentModel::NwOnly,
            backend,
            recv_buf: 16 * 1024,
            ..IperfParams::default()
        });
        assert!(
            base_large / large < 1.15,
            "{backend:?} should be near-baseline at 16 KiB (got {:.2}x)",
            base_large / large
        );
    }
}

#[test]
fn fig3_sh_on_netstack_hurts_small_buffers_then_converges() {
    let cfg = |recv_buf| IperfParams {
        recv_buf,
        sh_on: vec!["lwip".into()],
        ..IperfParams::default()
    };
    let base_small = iperf(IperfParams {
        recv_buf: 64,
        ..IperfParams::default()
    });
    let base_large = iperf(IperfParams {
        recv_buf: 16 * 1024,
        ..IperfParams::default()
    });
    let sh_small = iperf(cfg(64));
    let sh_large = iperf(cfg(16 * 1024));
    let small_slowdown = base_small / sh_small;
    assert!(
        (1.5..=3.5).contains(&small_slowdown),
        "SH small: {small_slowdown:.2}x"
    );
    assert!(
        base_large / sh_large < 1.25,
        "SH large: {:.2}x",
        base_large / sh_large
    );
}

#[test]
fn fig3_vm_rpc_needs_much_larger_buffers_to_catch_up() {
    let xen_base = |recv_buf| {
        iperf(IperfParams {
            recv_buf,
            hypervisor: Hypervisor::Xen,
            ..IperfParams::default()
        })
    };
    let vm = |recv_buf| {
        iperf(IperfParams {
            model: CompartmentModel::NwOnly,
            backend: BackendChoice::VmRpc,
            hypervisor: Hypervisor::Xen,
            recv_buf,
            ..IperfParams::default()
        })
    };
    // Much slower at small buffers...
    assert!(xen_base(64) / vm(64) > 5.0);
    // ...still behind at 1 KiB where MPK already converged...
    assert!(xen_base(1024) / vm(1024) > 2.0);
    // ...and close only at large buffers (the paper's 32 KiB crossover).
    assert!(xen_base(64 * 1024) / vm(64 * 1024) < 1.6);
}

#[test]
fn fig3_xen_baseline_trails_kvm_baseline() {
    let kvm = iperf(IperfParams::default());
    let xen = iperf(IperfParams {
        hypervisor: Hypervisor::Xen,
        ..IperfParams::default()
    });
    assert!(xen < kvm);
}

// --- Table 1 shapes ---------------------------------------------------------------

#[test]
fn table1_per_component_sh_ordering_matches_the_paper() {
    let run = |sh_on: Vec<String>| {
        iperf(IperfParams {
            recv_buf: 8 * 1024,
            sh_on,
            ..IperfParams::default()
        })
    };
    let baseline = run(Vec::new());
    let sched = run(vec!["uksched".into()]);
    let net = run(vec!["lwip".into()]);
    let libc = run(vec!["libc".into()]);
    let all = run(["iperf", "libc", "ukalloc", "uknetdev", "lwip", "uksched"]
        .iter()
        .map(|s| s.to_string())
        .collect());
    // Paper: scheduler ~1%, NW ~6%, LibC ~2.3x, everything ~6x.
    assert!(
        baseline / sched < 1.08,
        "scheduler SH: {:.2}x",
        baseline / sched
    );
    assert!(
        (1.02..1.35).contains(&(baseline / net)),
        "NW SH: {:.2}x",
        baseline / net
    );
    assert!(
        (1.9..2.9).contains(&(baseline / libc)),
        "LibC SH: {:.2}x",
        baseline / libc
    );
    assert!(
        baseline / all > 3.5,
        "whole-system SH: {:.2}x",
        baseline / all
    );
    // Strict ordering.
    assert!(sched > net && net > libc && libc > all);
}

// --- Figure 4 shapes ---------------------------------------------------------------

#[test]
fn fig4_local_allocator_recovers_part_of_the_sh_cost() {
    let base = redis(RedisParams {
        mix: Mix::Set,
        ..RedisParams::default()
    });
    let sh = |dedicated| {
        redis(RedisParams {
            model: CompartmentModel::NwOnly,
            backend: BackendChoice::None,
            sh_on: vec!["lwip".into()],
            dedicated_allocators: dedicated,
            mix: Mix::Set,
            ..RedisParams::default()
        })
    };
    let global = base / sh(false);
    let local = base / sh(true);
    // Paper: ~1.45x with the global allocator, ~1.24x with a local one.
    assert!(
        (1.25..1.75).contains(&global),
        "global-alloc slowdown {global:.2}x"
    );
    assert!(
        (1.05..1.45).contains(&local),
        "local-alloc slowdown {local:.2}x"
    );
    assert!(
        global > local + 0.08,
        "the local allocator must visibly help"
    );
}

#[test]
fn fig4_verified_scheduler_stays_within_6_percent() {
    for mix in [Mix::Set, Mix::Get] {
        let coop = redis(RedisParams {
            mix,
            ..RedisParams::default()
        });
        let verified = redis(RedisParams {
            mix,
            sched: SchedKind::Verified,
            ..RedisParams::default()
        });
        let overhead = coop / verified - 1.0;
        assert!(
            (0.0..=0.08).contains(&overhead),
            "verified scheduler overhead {:.1}% ({mix:?})",
            overhead * 100.0
        );
    }
}

// --- Figure 5 shapes -----------------------------------------------------------------

#[test]
fn fig5_isolation_granularity_ordering() {
    let base = redis(RedisParams::default());
    let get = |model, backend| {
        redis(RedisParams {
            model,
            backend,
            ..RedisParams::default()
        })
    };
    let nw_sha = get(CompartmentModel::NwOnly, BackendChoice::MpkShared);
    let nw_sw = get(CompartmentModel::NwOnly, BackendChoice::MpkSwitched);
    let three_sha = get(CompartmentModel::NwSchedRest, BackendChoice::MpkShared);
    let three_sw = get(CompartmentModel::NwSchedRest, BackendChoice::MpkSwitched);

    // Paper: NW-only ≈ 17% slowdown.
    let nw_slowdown = base / nw_sha;
    assert!(
        (1.08..1.35).contains(&nw_slowdown),
        "NW-only: {nw_slowdown:.2}x"
    );
    // Isolating the scheduler too costs more; switched stacks cost more
    // than shared (paper: 1.4x vs 2.25x).
    assert!(three_sha < nw_sha);
    assert!(nw_sw < nw_sha);
    assert!(three_sw < three_sha);
    let three_sw_slowdown = base / three_sw;
    assert!(
        (1.3..2.6).contains(&three_sw_slowdown),
        "NW/Sched/Rest switched: {three_sw_slowdown:.2}x"
    );
}

#[test]
fn fig5_merging_nw_and_sched_does_not_help() {
    // The paper's standout finding, rooted in libc owning the semaphores.
    for backend in [BackendChoice::MpkShared, BackendChoice::MpkSwitched] {
        let separate = redis(RedisParams {
            model: CompartmentModel::NwSchedRest,
            backend,
            ..RedisParams::default()
        });
        let merged = redis(RedisParams {
            model: CompartmentModel::NwAndSchedRest,
            backend,
            ..RedisParams::default()
        });
        assert!(
            merged <= separate * 1.05,
            "{backend:?}: merging should not help (merged {merged:.3} vs separate {separate:.3})"
        );
    }
}

#[test]
fn fig5_overhead_shrinks_with_payload_size() {
    let slowdown = |payload| {
        let base = redis(RedisParams {
            payload,
            ..RedisParams::default()
        });
        let iso = redis(RedisParams {
            payload,
            model: CompartmentModel::NwSchedRest,
            backend: BackendChoice::MpkSwitched,
            ..RedisParams::default()
        });
        base / iso
    };
    let small = slowdown(5);
    let large = slowdown(500);
    assert!(
        large < small,
        "isolation overhead must shrink with payload (5B: {small:.2}x, 500B: {large:.2}x)"
    );
}

// --- §4 verified-scheduler microbenchmark ----------------------------------------------

#[test]
fn context_switch_latencies_match_the_paper() {
    use flexos_kernel::sched::{CoopScheduler, RunQueue, VerifiedScheduler};
    use flexos_machine::{cycles_to_nanos, CostTable};
    let costs = CostTable::default();
    let coop_ns = cycles_to_nanos(CoopScheduler::new().switch_cost(&costs));
    let verified_ns = cycles_to_nanos(VerifiedScheduler::new().switch_cost(&costs));
    assert!((coop_ns - 76.6).abs() < 1.0, "C scheduler: {coop_ns:.1} ns");
    assert!(
        (verified_ns - 218.6).abs() < 1.0,
        "verified: {verified_ns:.1} ns"
    );
}

// --- the who-wins story does not hang on the calibration (DESIGN.md §6.1) ----------

/// Sweep the two calibration constants the gate ladder is most sensitive
/// to — `wrpkru` 2x down and 4x up, `vm_notify` 4x down and up — and
/// demand `direct < MPK shared < MPK switched < VM RPC` for the estimated
/// request at every point.
#[test]
fn gate_ordering_survives_a_sweep_of_the_calibration_constants() {
    use flexos::build::{plan, ImageConfig, LibRole, LibraryConfig};
    use flexos::explore::{estimate_request_cycles, CallProfile};
    use flexos::spec::{Analysis, LibSpec};
    use flexos_machine::CostTable;
    let ladder = [
        BackendChoice::None,
        BackendChoice::MpkShared,
        BackendChoice::MpkSwitched,
        BackendChoice::VmRpc,
    ]
    .map(|backend| {
        let cfg = ImageConfig::new("ablate", backend)
            .with_library(LibraryConfig::new(
                LibSpec::verified_scheduler(),
                LibRole::Scheduler,
            ))
            .with_library(
                LibraryConfig::new(LibSpec::unsafe_c("lwip"), LibRole::NetStack)
                    .with_analysis(Analysis::well_behaved()),
            );
        plan(cfg).expect("plans")
    });
    let profile = CallProfile::default()
        .with_calls("lwip", "uksched_verified", 6)
        .with_work("lwip", 3000)
        .with_work("uksched_verified", 500);
    for wrpkru in [15u64, 30, 60, 120] {
        for vm_notify in [875u64, 3500, 14000] {
            let costs = CostTable {
                wrpkru,
                vm_notify,
                ..CostTable::default()
            };
            let cycles = ladder
                .each_ref()
                .map(|image| estimate_request_cycles(image, &profile, &costs));
            assert!(
                cycles.windows(2).all(|w| w[0] < w[1]),
                "gate ordering broke at wrpkru={wrpkru}, vm_notify={vm_notify}: {cycles:?}"
            );
        }
    }
}

// --- per-request latency across the isolation ladder -------------------------------

/// Isolation costs latency, not only throughput: the same Redis GET
/// workload on no isolation, MPK shared stacks and VM RPC must order
/// `direct <= mpk-shared <= vmrpc` at p50, p99 and p999 of the span
/// tracer's exact per-request percentiles (simulated cycles).
#[cfg(not(feature = "trace-off"))]
#[test]
fn request_latency_grows_along_the_isolation_ladder() {
    use flexos_apps::redis::run_redis_with_stats;
    let ladder = [
        (CompartmentModel::Baseline, BackendChoice::None, "direct"),
        (
            CompartmentModel::NwSchedRest,
            BackendChoice::MpkShared,
            "mpk-shared",
        ),
        (CompartmentModel::NwSchedRest, BackendChoice::VmRpc, "vmrpc"),
    ];
    let rows: Vec<_> = ladder
        .iter()
        .map(|&(model, backend, tag)| {
            let (_, snap) = run_redis_with_stats(&RedisParams {
                model,
                backend,
                mix: Mix::Get,
                ops: 500,
                ..RedisParams::default()
            })
            .expect("redis run");
            let [row] = snap.latency[..] else {
                panic!("{tag}: one latency row expected, got {:?}", snap.latency);
            };
            assert_eq!((row.app, row.backend), ("redis", tag));
            assert!(row.count > 0, "{row:?}");
            assert!(0 < row.p50 && row.p50 <= row.p99 && row.p99 <= row.p999);
            row
        })
        .collect();
    for pair in rows.windows(2) {
        let (lo, hi) = (&pair[0], &pair[1]);
        assert!(
            lo.p50 <= hi.p50 && lo.p99 <= hi.p99 && lo.p999 <= hi.p999,
            "{} must not be slower than {}: {lo:?} vs {hi:?}",
            lo.backend,
            hi.backend
        );
    }
}
