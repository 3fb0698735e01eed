//! The telemetry budget of the dense probes: what one gate crossing,
//! one message-queue hop, one scheduler switch and one completed request
//! may cost in span-ring writes and host heap allocations. Exact counts,
//! not timings — the always-on probes stay cheap enough to leave on only
//! while a crossing writes ONE record (every other view of it is folded
//! at snapshot time) and no probe allocates once its ring exists.

#![cfg(not(feature = "trace-off"))]

use flexos::build::{plan, BackendChoice, ImageConfig, LibRole, LibraryConfig};
use flexos::gate::{CallVec, CompartmentId, Sqe};
use flexos::spec::LibSpec;
use flexos_backends::{instantiate, BootImage};
use flexos_kernel::{CoopScheduler, Executor, KernelHal, MsgQueue, Step, ThreadId};
use flexos_machine::{Machine, PageFlags, ProtKey, VcpuId, VmId};
use flexos_trace::{Label, SpanEvent, SpanId, SpanKind, SpanTrace};

mod counting;
use counting::{allocations_during, live_bytes};

const TARGET: &str = "uksched_verified";

/// Drives one round of crossings into [`TARGET`].
type Driver<'a> = Box<dyn FnMut(&mut BootImage) + 'a>;

/// The gate ladder's image: scheduler, network stack and application,
/// one compartment each where the backend isolates.
fn gate_image(backend: BackendChoice) -> BootImage {
    let cfg = ImageConfig::new("telemetry-budget", backend)
        .with_library(LibraryConfig::new(
            LibSpec::verified_scheduler(),
            LibRole::Scheduler,
        ))
        .with_library(LibraryConfig::new(
            LibSpec::unsafe_c("lwip"),
            LibRole::NetStack,
        ))
        .with_library(LibraryConfig::new(LibSpec::unsafe_c("app"), LibRole::App));
    let mut img = instantiate(plan(cfg).expect("plans")).expect("boots");
    let target = img.compartment_of_lib(TARGET).expect("target");
    img.gates.ensure_ring_depth(target, 128);
    img
}

/// Events pushed so far, per shard.
fn marks(spans: &SpanTrace) -> Vec<u64> {
    let mut per_shard = Vec::new();
    for s in spans.ring_stats() {
        per_shard.resize(s.owner as usize + 1, 0);
        per_shard[s.owner as usize] = s.pushed;
    }
    per_shard
}

/// The kinds of the spans pushed since `marks` was taken. Callers push
/// fewer than a ring's worth in between, so all of them are still held.
fn kinds_since(spans: &SpanTrace, marks: &[u64]) -> Vec<SpanKind> {
    let fresh = |shard: usize, seq: u64| seq >= marks.get(shard).copied().unwrap_or(0);
    let held = spans.merged_events();
    let kinds: Vec<SpanKind> = held
        .iter()
        .filter(|&&(shard, seq, _)| fresh(shard, seq))
        .map(|&(_, _, ev)| ev.kind)
        .collect();
    let pushed = spans.pushed() - marks.iter().sum::<u64>();
    assert_eq!(kinds.len() as u64, pushed, "a ring wrapped under the test");
    kinds
}

/// The record is exactly 48 bytes, four to three cache lines: five
/// words (`span`, `t0`, `t1`, `gate_cycles`, `bytes`), two 2-byte ids
/// (`src`, `dst`) and two 1-byte tags (`kind`, `label`), padded by two.
#[test]
fn the_record_fits_one_cache_line() {
    let SpanEvent {
        span,
        t0,
        t1,
        gate_cycles,
        bytes,
        src,
        dst,
        kind,
        label,
    } = SpanEvent {
        span: SpanId::NONE,
        t0: 0,
        t1: 0,
        gate_cycles: 0,
        bytes: 0,
        src: 0,
        dst: 0,
        kind: SpanKind::Gate,
        label: Label::MpkShared,
    };
    use std::mem::size_of_val as size;
    let words = [
        size(&span),
        size(&t0),
        size(&t1),
        size(&gate_cycles),
        size(&bytes),
    ];
    assert_eq!(words, [8; 5]);
    assert_eq!(
        [size(&src), size(&dst), size(&kind), size(&label)],
        [2, 2, 1, 1]
    );
    assert_eq!(std::mem::size_of::<SpanEvent>(), 48);
}

/// Per backend × {sync, batch 32, ring 128}: a crossing pushes exactly
/// one record of its own (VM RPC rings its doorbells besides) and
/// allocates nothing once the rings are warm.
#[test]
fn a_crossing_writes_one_record_and_allocates_nothing() {
    const N: u64 = 256;
    for backend in BackendChoice::ALL {
        let calls = CallVec::uniform(32, 16, 8);
        let sqes: Vec<Sqe> = (0..128).map(|i| Sqe::new(16, 8, i)).collect();
        let mut cqes = Vec::with_capacity(sqes.len());
        let mut cells: [(&str, Driver); 3] = [
            (
                "sync",
                Box::new(|img| {
                    for _ in 0..N {
                        img.call_lib(TARGET, 16, 8, |_, _| Ok(())).expect("crosses");
                    }
                }),
            ),
            (
                "batch 32",
                Box::new(|img| {
                    for _ in 0..N / 32 {
                        img.call_lib_batch(TARGET, &calls, |_, _, _| Ok(()))
                            .expect("crosses");
                    }
                }),
            ),
            (
                "ring 128",
                Box::new(|img| {
                    let target = img.compartment_of_lib(TARGET).expect("target");
                    for _ in 0..N / 128 {
                        img.gates.submit_many(target, &sqes).expect("room");
                        img.gates
                            .flush_async(&mut img.machine, target, |_, _, _| Ok(0))
                            .expect("flushes");
                        cqes.clear();
                        img.gates.poll_completions(target, &mut cqes);
                    }
                }),
            ),
        ];
        for (cell, run) in &mut cells {
            let mut img = gate_image(backend);
            // Warm-up: the accumulator row, the span rings, the async
            // ring and the doorbell queues come into being.
            run(&mut img);
            let marks = marks(img.machine.span_trace());
            let crossings0 = img.gates.stats().crossings;
            let allocs = allocations_during(|| run(&mut img));
            let crossings = img.gates.stats().crossings - crossings0;
            let kinds = kinds_since(img.machine.span_trace(), &marks);
            let gates = kinds.iter().filter(|k| **k == SpanKind::Gate).count() as u64;
            let expected = if backend == BackendChoice::None { 0 } else { N };
            assert_eq!(crossings, expected, "{backend:?} {cell}: crossings");
            assert_eq!(gates, crossings, "{backend:?} {cell}: records per crossing");
            assert!(
                kinds
                    .iter()
                    .all(|k| matches!(k, SpanKind::Gate | SpanKind::Doorbell)),
                "{backend:?} {cell}: a crossing pushed something else"
            );
            if backend != BackendChoice::VmRpc {
                assert_eq!(kinds.len() as u64, crossings, "{backend:?} {cell}: pushes");
            }
            assert_eq!(
                allocs, 0,
                "{backend:?} {cell}: allocations in {N} crossings"
            );
        }
    }
}

#[test]
fn an_mq_hop_writes_one_record_and_allocates_nothing() {
    let mut m = Machine::with_defaults();
    let (slots, slot) = (64, 64 + 8);
    let base = m
        .alloc_region(
            VmId(0),
            MsgQueue::bytes_needed(slots, slot),
            ProtKey(0),
            PageFlags::RW,
        )
        .expect("region");
    let q = MsgQueue::init(&mut m, VcpuId(0), base, slots, slot).expect("queue");
    let (msg, mut buf) = ([7u8; 64], [0u8; 64]);
    let mut hops = |m: &mut Machine, n: u64| {
        for _ in 0..n {
            assert!(q.try_send(m, VcpuId(0), &msg).expect("sends"));
            assert_eq!(
                q.try_recv(m, VcpuId(0), &mut buf).expect("receives"),
                Some(64)
            );
        }
    };
    hops(&mut m, 8);
    let marks = marks(m.span_trace());
    let allocs = allocations_during(|| hops(&mut m, 100));
    let kinds = kinds_since(m.span_trace(), &marks);
    assert_eq!(
        kinds.len(),
        200,
        "one record per hop, a send and a receive each"
    );
    assert!(kinds.iter().all(|k| *k == SpanKind::MqHop));
    assert_eq!(allocs, 0);
}

/// A completed request is one more count beside a latency already seen:
/// once a key's distinct latencies have all occurred, further requests
/// allocate nothing and hold no more heap, however many there are.
#[test]
fn a_request_latency_is_a_count_not_a_sample() {
    let mut spans = SpanTrace::new();
    let mut t = 0;
    let mut requests = |spans: &mut SpanTrace, n: u64| {
        for i in 0..n {
            let span = spans.begin_request(Label::Redis, "mpk-shared", 0, t);
            // 32 distinct latencies, as many as `redis_get_mpk` has.
            t += 5_000 + i % 32;
            spans.end_request(span, 0, t);
        }
    };
    requests(&mut spans, 32);
    let live = live_bytes();
    let allocs = allocations_during(|| requests(&mut spans, 10_000));
    assert_eq!(allocs, 0, "allocations in 10 000 requests");
    assert_eq!(live_bytes(), live, "heap held by 10 000 more requests");
    let rows = spans.latency_rows();
    assert_eq!(rows.len(), 1);
    assert_eq!((rows[0].count, rows[0].p50), (10_032, 5_015));
}

/// The least an [`Executor`] needs from its context.
struct BareCtx {
    machine: Machine,
}

impl KernelHal for BareCtx {
    fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }
    fn resume_compartment(&mut self, _c: CompartmentId) -> flexos_machine::Result<()> {
        Ok(())
    }
    fn drain_wakes(&mut self) -> Vec<ThreadId> {
        Vec::new()
    }
}

#[test]
fn a_scheduler_switch_writes_one_record_and_allocates_nothing() {
    let mut ctx = BareCtx {
        machine: Machine::with_defaults(),
    };
    let mut exec: Executor<BareCtx> = Executor::new(Box::new(CoopScheduler::new()));
    for _ in 0..2 {
        // Two threads that always yield: every quantum is a switch.
        exec.spawn(
            CompartmentId(0),
            Box::new(|_: &mut BareCtx, _: ThreadId| Ok(Step::Yield)),
        )
        .expect("spawns");
    }
    exec.run(&mut ctx, 8).expect("runs");
    let marks = marks(ctx.machine.span_trace());
    let mut switches = 0;
    let allocs = allocations_during(|| switches = exec.run(&mut ctx, 100).expect("runs").switches);
    let kinds = kinds_since(ctx.machine.span_trace(), &marks);
    assert_eq!(switches, 100);
    assert_eq!(kinds.len(), 100, "one record per switch");
    assert!(kinds.iter().all(|k| *k == SpanKind::Sched));
    assert_eq!(allocs, 0);
}
