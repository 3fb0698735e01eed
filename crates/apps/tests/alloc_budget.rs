//! The host-allocation budget of the request path.
//!
//! The servers and load generators stage RESP through reused buffers, so
//! a request costs (almost) no host heap allocation in steady state — a
//! Redis request none at all, now that the span tracer counts latencies
//! per distinct value instead of keeping one sample a request;
//! `flexos-net` recycles its frame and segment buffers and the executor
//! drains the wake list into a scratch it keeps. A connection's own
//! buffers are lent from spare lists while it has work (DESIGN.md §6.15),
//! so not even its first burst allocates; the bulk path (iperf) pays per
//! pump round, never per segment. This binary counts allocations
//! with its own `#[global_allocator]` (`counting/mod.rs`) and pins the
//! per-request figure: a run of N and a run of 2N requests differ only
//! in N steady-state requests, so the difference of their counts cancels
//! set-up exactly. Both follow an unmeasured run, so that both boot
//! alike: a dropped machine leaves its simulated memory to the thread's
//! next boot (DESIGN.md §6.25), which the first run of a thread cannot
//! find. The counts are deterministic — the bounds are asserted, the
//! measured values printed (`--nocapture`).

use flexos::build::BackendChoice;
use flexos_apps::iperf::{run_iperf, IperfParams};
use flexos_apps::redis::{run_redis, Mix, RedisParams};
use flexos_apps::serve::{run_serve, ServeParams};
use flexos_apps::CompartmentModel;

mod counting;
use counting::{allocations_during, large_allocations_during, LARGE};

/// Steady-state allocations per request: `run(ops)` serves `ops`
/// requests, set-up included.
fn per_request(name: &str, n: u64, run: impl Fn(u64)) -> f64 {
    run(n);
    let small = allocations_during(|| run(n));
    let large = allocations_during(|| run(2 * n));
    let per_request = (large - small) as f64 / n as f64;
    println!(
        "{name}: {per_request:.2} allocations/request ({small} for {n}, {large} for {})",
        2 * n
    );
    per_request
}

#[test]
fn redis_get_pipelined_allocates_less_than_once_per_two_requests() {
    let per_request = per_request("redis GET p16 x mpk-shared", 4_000, |ops| {
        let r = run_redis(&RedisParams {
            model: CompartmentModel::NwSchedRest,
            backend: BackendChoice::MpkShared,
            mix: Mix::Get,
            pipeline: 16,
            ops,
            ..RedisParams::default()
        })
        .expect("redis run succeeds");
        assert!(r.ops >= ops);
    });
    // The simulated heap's live table and free vector grow during the
    // preload and never on a request.
    assert_eq!(
        per_request, 0.0,
        "was 21.3 before the streaming codec, 0.81 before frames were recycled, 0.00025 (one \
         doubling of the latency sample vector) before latencies were counted"
    );
}

#[test]
fn a_second_boot_of_the_same_shape_allocates_no_simulated_memory() {
    let run = || {
        let r = run_redis(&RedisParams {
            model: CompartmentModel::NwSchedRest,
            backend: BackendChoice::MpkShared,
            mix: Mix::Get,
            ops: 100,
            ..RedisParams::default()
        })
        .expect("redis run succeeds");
        assert!(r.ops >= 100);
    };
    let first = large_allocations_during(run);
    let second = large_allocations_during(run);
    println!("allocations of {LARGE} B or more: {first} on a first run, {second} on a second");
    // The first run allocates the server's 64 MiB and the client's 32 MiB
    // of simulated memory; the second takes both arrays back from the
    // thread's spare list, with no page of them faulted in again.
    assert_eq!(first, 2);
    assert_eq!(second, 0, "a second run allocates simulated memory again");
}

/// A set-up round of the benchmark's `redis_set_vmrpc_p1` shape: plan,
/// boot, one SET, teardown.
fn set_p1_setup_round() {
    let r = run_redis(&RedisParams {
        model: CompartmentModel::NwSchedRest,
        backend: BackendChoice::VmRpc,
        mix: Mix::Set,
        pipeline: 1,
        ops: 1,
        ..RedisParams::default()
    })
    .expect("redis run succeeds");
    assert!(r.ops >= 1);
}

/// The whole host-heap bill of a set-up round, pinned exactly: a plan
/// shares the library specs it is given and a plain run builds no
/// telemetry snapshot (DESIGN.md §6.27), so a copy of a spec, or any
/// other allocation that returns to the round, is red here rather than
/// lost in the noise of `setup_s`. The round follows an unmeasured one,
/// which builds the thread's specs and leaves it its simulated memory.
#[test]
fn a_second_set_up_round_allocates_what_it_always_has() {
    set_p1_setup_round();
    let second = allocations_during(set_p1_setup_round);
    println!("redis SET p1 x vmrpc: {second} allocations in a second set-up round");
    // With the probes compiled out, their own buffers are not made.
    let pinned = if cfg!(feature = "trace-off") {
        253
    } else {
        263
    };
    assert_eq!(
        second, pinned,
        "was 469 while every plan copied its specs and a plain run built a snapshot"
    );
}

#[test]
fn redis_set_unpipelined_allocates_nothing() {
    let per_request = per_request("redis SET p1 x vmrpc", 1_000, |ops| {
        let r = run_redis(&RedisParams {
            model: CompartmentModel::NwSchedRest,
            backend: BackendChoice::VmRpc,
            mix: Mix::Set,
            pipeline: 1,
            ops,
            ..RedisParams::default()
        })
        .expect("redis run succeeds");
        assert!(r.ops >= ops);
    });
    assert_eq!(
        per_request, 0.0,
        "was 40.0 before the streaming codec, 13.0 before frames were recycled, 1.0 while the \
         executor took the wake list by value, 0.001 (one doubling of the latency sample \
         vector) before latencies were counted"
    );
}

#[test]
fn serve_10k_connections_allocates_only_on_a_connections_first_burst() {
    let per_request = per_request("serve 10k conns x 4 shards", 4_000, |ops| {
        let r = run_serve(&ServeParams {
            conns: 10_000,
            shards: 4,
            ops,
            ..ServeParams::default()
        })
        .expect("serve run succeeds");
        assert_eq!(r.ops, ops);
    });
    // Measured 0.002: the name is history. A first burst used to grow
    // five buffers of the connection's own (1.3 a request); they are
    // borrowed from the spare lists now, and what is left is scratch
    // doubling.
    assert!(
        per_request <= 0.1,
        "{per_request} > 0.1 (was 25.2 before the streaming codec, 4.22 before frames were \
         recycled, 1.3 while every connection kept its own buffers)"
    );
}

#[test]
fn iperf_16k_allocates_per_pump_round_never_per_segment() {
    // Units of 64 KiB: 45 MSS segments out and their ACKs back, in two
    // client pump rounds of 32 KiB. A round costs two allocations — one
    // frame buffer on each side (the server emits one more frame a round
    // than it receives, so its pool runs dry by one; the client's pool
    // hands that ACK-sized buffer to a data frame, which grows it); the
    // wake list cost a third until the executor kept a scratch for it. A
    // segment costs none: frames are cut from the send FIFO into pooled
    // NIC buffers. One allocation per segment would read 49, not 4.
    const UNIT: u64 = 64 * 1024;
    let per_unit = per_request(
        "iperf 16 KiB recv x mpk-shared (per 64 KiB)",
        128,
        |units| {
            let r = run_iperf(&IperfParams {
                model: CompartmentModel::NwSchedRest,
                backend: BackendChoice::MpkShared,
                recv_buf: 16 * 1024,
                total_bytes: units * UNIT,
                ..IperfParams::default()
            });
            assert!(r.bytes >= units * UNIT);
        },
    );
    assert!(
        per_unit <= 4.5,
        "{per_unit} allocations per 64 KiB > 4.5 (2 per pump round, 0 per segment; was 6.0)"
    );
}
