//! The layer ladder: host-ns unit costs of each crate's public hot
//! functions, timed by the benchmark's own loops, plus the few simulated
//! unit costs (cycles per crossing, per switch, per migration drain).
//!
//! A unit cost is the calibrated floor of [`SAMPLES`] samples, each a
//! loop sized to run for [`SAMPLE_NS`]. The issue asked for 20 ms
//! samples; 36 loops of 11 such samples would take 8 s of every traced
//! run, which the driver's cap on total run time does not leave, so a
//! sample is 5 ms.

use crate::harness::{cpu_ns, seeded_bytes, Harness, Metrics};
use crate::workloads::{
    gate_image, run_cell, three_lib_plan, Cell, GATE_BACKENDS, GATE_CELL_QUANTUM,
};
use flexos::build::BackendChoice;
use flexos::explore::{explore, ExploreOptions};
use flexos::gate::{CompartmentId, MigrationReason};
use flexos::synth::synthetic_image;
use flexos_apps::gcc_sh;
use flexos_apps::resp::{encode, encode_command, RespParser, RespValue};
use flexos_backends::{instantiate, instantiate_migratable, migrate_all};
use flexos_kernel::sched::RunQueue;
use flexos_kernel::{
    Allocator, CoExecutor, CoPoll, CoTaskId, CoopScheduler, Executor, FreeListAllocator,
    HeapService, KernelHal, MsgQueue, Step, ThreadId, VerifiedScheduler,
};
use flexos_machine::{Access, Addr, CostTable, Machine, PageFlags, ProtKey, VcpuId, VmId};
use flexos_net::tcp::SegmentOut;
use flexos_net::wire::{
    build_tcp_frame, checksum, EthHeader, Ipv4Header, Mac, TcpFlags, TcpHeader, ETHERTYPE_IPV4,
    ETH_LEN, IPV4_LEN, MSS, PROTO_TCP, TCP_LEN,
};
use flexos_net::{EventQueue, Interest, SocketId, TcpConfig, TcpConn, Trigger};
use flexos_sh::{ShRuntime, REDZONE};
use std::hint::black_box;

const SAMPLES: usize = 11;
const SAMPLE_NS: u64 = 5_000_000;

const VCPU: VcpuId = VcpuId(0);
const CPT: CompartmentId = CompartmentId(0);

type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Host ns of `iters` calls of `op`.
fn timed(iters: u64, mut op: impl FnMut(u64) -> Res<()>) -> Res<f64> {
    let t0 = cpu_ns();
    for i in 0..iters {
        op(i)?;
    }
    Ok((cpu_ns() - t0) as f64)
}

/// A loop that works in bursts does `done >= asked` operations; this
/// scales its time to the `asked` count [`unit_ns`] divides by.
fn per_asked(ns: f64, asked: u64, done: u64) -> f64 {
    ns * asked as f64 / done as f64
}

/// Calibrated host ns per operation of `body`, which performs the number of
/// operations it is given and returns the host ns they took (so a body
/// can leave its own re-arming outside the timed part).
fn unit_ns(h: &mut Harness, name: &str, mut body: impl FnMut(u64) -> Res<f64>) -> Res<f64> {
    h.scope(name, |h| {
        // Size a sample: grow the loop until it is long enough to scale from.
        let mut iters = 1u64;
        let per_op = loop {
            let d = body(iters)?;
            if d >= 1e6 || iters >= 1 << 28 {
                break d / iters as f64;
            }
            iters *= 4;
        };
        let iters = ((SAMPLE_NS as f64 / per_op.max(0.01)) as u64).max(1);
        let samples = h.bracket(
            |taken| taken < SAMPLES,
            |h| h.scope("loop", |_| body(iters)).map(Some),
        )?;
        Ok(samples.floor_ns() / iters as f64)
    })
}

/// [`unit_ns`] reported as the metric `name`, in ns.
fn put_ns(
    h: &mut Harness,
    out: &mut Metrics,
    name: &str,
    body: impl FnMut(u64) -> Res<f64>,
) -> Res<()> {
    let ns = unit_ns(h, name, body)?;
    out.put(name, ns, "ns");
    Ok(())
}

fn region(m: &mut Machine, bytes: u64) -> Res<Addr> {
    m.alloc_region(VmId(0), bytes, ProtKey(0), PageFlags::RW)
        .map_err(err)
}

/// Measures every unit cost into `out`. `seed` fixes the payload bytes.
pub fn measure(h: &mut Harness, seed: u64, out: &mut Metrics) -> Res<()> {
    h.scope("layer:machine", |s| machine(s, seed, out))?;
    h.scope("layer:gate", |s| gate(s, out))?;
    h.scope("layer:backends", |s| backends(s, seed, out))?;
    h.scope("layer:kernel", |s| kernel(s, seed, out))?;
    h.scope("layer:net", |s| net(s, seed, out))?;
    h.scope("layer:sh", |s| sh(s, out))?;
    h.scope("layer:apps", |s| apps(s, seed, out))
}

fn machine(h: &mut Harness, seed: u64, out: &mut Metrics) -> Res<()> {
    let mut m = Machine::with_defaults();
    let a = region(&mut m, 16 * 1024)?;
    let b = region(&mut m, 16 * 1024)?;
    let mut buf = seeded_bytes(seed, 4096);
    m.write(VCPU, a, &seeded_bytes(seed, 16 * 1024))
        .map_err(err)?;

    put_ns(h, out, "machine.rw_u64_ns", |n| {
        timed(n, |i| {
            m.write_u64(VCPU, a, i).map_err(err)?;
            black_box(m.read_u64(VCPU, a).map_err(err)?);
            Ok(())
        })
    })?;

    put_ns(h, out, "machine.rw_4k_ns", |n| {
        timed(n, |_| {
            m.write(VCPU, a, &buf).map_err(err)?;
            m.read(VCPU, a, &mut buf).map_err(err)
        })
    })?;

    put_ns(h, out, "machine.copy_16k_ns", |n| {
        timed(n, |_| m.copy(VCPU, b, a, 16 * 1024).map_err(err))
    })?;

    // 256 pages against a 64-entry direct-mapped TLB: a page stride
    // revisits each set with a different page every time, so the write of
    // every pair misses (and the read after it hits).
    const PAGES: u64 = 256;
    let wide = region(&mut m, PAGES * 4096)?;
    let misses0 = m.tlb_trace().misses();
    let mut accesses = 0u64;
    put_ns(h, out, "machine.tlb_miss_rw_ns", |n| {
        accesses += 2 * n;
        timed(n, |i| {
            let at = Addr(wide.0 + (i % PAGES) * 4096);
            m.write_u64(VCPU, at, i).map_err(err)?;
            black_box(m.read_u64(VCPU, at).map_err(err)?);
            Ok(())
        })
    })?;
    // The sizing loops restart at page 0 and hit a few warm entries.
    let missed = m.tlb_trace().misses() - misses0;
    if cfg!(not(feature = "trace-off")) && missed * 20 < accesses * 9 {
        return Err(format!(
            "tlb_miss loop missed {missed} times in {accesses} accesses"
        ));
    }
    Ok(())
}

fn gate(h: &mut Harness, out: &mut Metrics) -> Res<()> {
    for (label, backend) in GATE_BACKENDS {
        let mut img = gate_image(backend)?;
        for cell in Cell::ALL {
            let name = format!("gate.{label}.{}_ns", cell.label());
            put_ns(h, out, &name, |asked| {
                let n = asked.next_multiple_of(GATE_CELL_QUANTUM);
                let t0 = cpu_ns();
                let done = run_cell(&mut img, cell, n)?;
                let d = (cpu_ns() - t0) as f64;
                if done != n {
                    return Err(format!("{name}: {done} of {n} crossings completed"));
                }
                Ok(per_asked(d, asked, n))
            })?;
        }
        let c0 = img.machine.clock().cycles();
        run_cell(&mut img, Cell::B1, GATE_CELL_QUANTUM)?;
        let cycles = (img.machine.clock().cycles() - c0) as f64 / GATE_CELL_QUANTUM as f64;
        out.put(format!("gate.{label}.sim_cycles"), cycles, "cycles");
    }
    Ok(())
}

fn backends(h: &mut Harness, seed: u64, out: &mut Metrics) -> Res<()> {
    put_ns(h, out, "backends.boot_ns", |n| {
        timed(n, |_| {
            let p = three_lib_plan(BackendChoice::MpkShared)?;
            black_box(instantiate(p).map_err(err)?);
            Ok(())
        })
    })?;

    // An idle image swapped mpk-shared -> vmrpc; only the forward swap is
    // timed, the swap back re-arms the loop.
    let p = three_lib_plan(BackendChoice::MpkShared)?;
    let mut img = instantiate_migratable(p, BackendChoice::MpkShared).map_err(err)?;
    put_ns(h, out, "backends.migrate_all_ns", |n| {
        let mut total = 0;
        for _ in 0..n {
            let t0 = cpu_ns();
            migrate_all(&mut img, BackendChoice::VmRpc, MigrationReason::Manual).map_err(err)?;
            total += cpu_ns() - t0;
            migrate_all(&mut img, BackendChoice::MpkShared, MigrationReason::Manual)
                .map_err(err)?;
        }
        Ok(total as f64)
    })?;
    let st = img.gates.migration_stats();
    out.put(
        "backends.migrate_drain_cycles",
        st.drain_cycles_total as f64 / st.completed.max(1) as f64,
        "cycles",
    );

    let synth = synthetic_image(12, 6, seed);
    let all: Vec<BackendChoice> = GATE_BACKENDS.iter().map(|&(_, b)| b).collect();
    let costs = CostTable::default();
    let ns = unit_ns(h, "core.explore_synth", |n| {
        timed(n, |_| {
            let e = explore(
                &synth.config,
                &all,
                &synth.profile,
                &costs,
                &ExploreOptions::serial(),
            );
            black_box(e.candidates.len());
            Ok(())
        })
    })?;
    out.put("core.explore_synth_ms", ns / 1e6, "ms");
    Ok(())
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

/// `kernel.sched_switch_<sched>_ns` and `_cycles`: two threads that
/// always yield, so every quantum is a context switch.
fn sched_switch(h: &mut Harness, out: &mut Metrics, sched: &str, rq: Box<dyn RunQueue>) -> Res<()> {
    let mut ctx = BareCtx {
        machine: Machine::with_defaults(),
    };
    let mut exec: Executor<BareCtx> = Executor::new(rq);
    for _ in 0..2 {
        exec.spawn(
            CPT,
            Box::new(|_: &mut BareCtx, _: ThreadId| Ok(Step::Yield)),
        )
        .map_err(err)?;
    }
    let c0 = ctx.machine.clock().cycles();
    let name = format!("kernel.sched_switch_{sched}");
    put_ns(h, out, &format!("{name}_ns"), |n| {
        let t0 = cpu_ns();
        let ran = exec.run(&mut ctx, n).map_err(err)?;
        let d = (cpu_ns() - t0) as f64;
        if ran.switches != n {
            return Err(format!("{name}: {} switches in {n} quanta", ran.switches));
        }
        Ok(d)
    })?;
    let cycles = (ctx.machine.clock().cycles() - c0) as f64 / exec.summary().switches as f64;
    out.put(format!("{name}_cycles"), cycles, "cycles");
    Ok(())
}

fn kernel(h: &mut Harness, seed: u64, out: &mut Metrics) -> Res<()> {
    let mut m = Machine::with_defaults();
    let msg = seeded_bytes(seed, 64);

    const SLOTS: u64 = 64;
    const SLOT: u64 = 64 + 8;
    let base = region(&mut m, MsgQueue::bytes_needed(SLOTS, SLOT))?;
    let q = MsgQueue::init(&mut m, VCPU, base, SLOTS, SLOT).map_err(err)?;
    let mut buf = [0u8; 64];
    put_ns(h, out, "kernel.mq_send_recv_ns", |n| {
        timed(n, |_| {
            let sent = q.try_send(&mut m, VCPU, &msg).map_err(err)?;
            let got = q.try_recv(&mut m, VCPU, &mut buf).map_err(err)?;
            if !sent || got != Some(msg.len()) {
                return Err("mq lost a message".into());
            }
            Ok(())
        })
    })?;

    let batch: Vec<&[u8]> = (0..32).map(|_| msg.as_slice()).collect();
    let mut taken = Vec::with_capacity(32);
    put_ns(h, out, "kernel.mq_batch32_ns_per_msg", |n| {
        timed(n.div_ceil(32), |_| {
            let sent = q.enqueue_batch(&mut m, VCPU, &batch).map_err(err)?;
            taken.clear();
            let got = q.dequeue_batch(&mut m, VCPU, 32, &mut taken).map_err(err)?;
            if sent != 32 || got != 32 {
                return Err("mq batch lost a message".into());
            }
            Ok(())
        })
        .map(|d| per_asked(d, n, n.div_ceil(32) * 32))
    })?;

    sched_switch(h, out, "coop", Box::new(CoopScheduler::new()))?;
    sched_switch(h, out, "verified", Box::new(VerifiedScheduler::new()))?;

    // 1024 parked tasks, woken 64 at a time: the serving tier's pattern
    // (a readiness poll wakes a few of many connections).
    const TASKS: u32 = 1024;
    const WAKE: u64 = 64;
    let mut co: CoExecutor<u64> = CoExecutor::new();
    for _ in 0..TASKS {
        co.spawn(Box::new(|steps: &mut u64, _: CoTaskId| {
            *steps += 1;
            CoPoll::Pending
        }));
    }
    let mut steps = 0u64;
    co.run_until_idle(&mut steps, u64::MAX);
    let mut next = 0u32;
    put_ns(h, out, "kernel.cotask_wake_step_ns", |n| {
        let bursts = n.div_ceil(WAKE);
        timed(bursts, |_| {
            for _ in 0..WAKE {
                co.wake(CoTaskId(next % TASKS));
                next = next.wrapping_add(1);
            }
            if co.run_until_idle(&mut steps, u64::MAX) != WAKE {
                return Err("a woken cotask did not run".into());
            }
            Ok(())
        })
        .map(|d| per_asked(d, n, bursts * WAKE))
    })?;

    let heap = region(&mut m, 1 << 20)?;
    let mut heaps = HeapService::global(Box::new(FreeListAllocator::new(heap, 1 << 20)));
    put_ns(h, out, "kernel.heap_alloc_free_ns", |n| {
        timed(n, |_| {
            let a = heaps.alloc(&mut m, CPT, 64, 16).map_err(err)?;
            heaps.free(&mut m, CPT, a).map_err(err)
        })
    })?;
    Ok(())
}

/// A client/server pair of established TCP endpoints.
fn tcp_pair() -> Res<(TcpConn, TcpConn)> {
    let (mut client, syn) = TcpConn::connect(40_000, 5201, 1_000, TcpConfig::default());
    let (mut server, syn_ack) =
        TcpConn::accept(5201, 40_000, 9_000, &syn.hdr, TcpConfig::default());
    for ack in client.on_segment(&syn_ack.hdr, &[], 0) {
        server.on_segment(&ack.hdr, &[], 0);
    }
    if !client.is_established() || !server.is_established() {
        return Err("tcp handshake did not complete".into());
    }
    Ok((client, server))
}

fn net(h: &mut Harness, seed: u64, out: &mut Metrics) -> Res<()> {
    let payload = seeded_bytes(seed, MSS);

    put_ns(h, out, "net.checksum_1460_ns", |n| {
        timed(n, |i| {
            black_box(checksum(black_box(&payload), i as u32 & 0xffff));
            Ok(())
        })
    })?;

    let eth = EthHeader {
        dst: Mac::of_nic(1),
        src: Mac::of_nic(2),
        ethertype: ETHERTYPE_IPV4,
    };
    let ip = Ipv4Header {
        src: 0x0a00_0002,
        dst: 0x0a00_0001,
        proto: PROTO_TCP,
        total_len: (IPV4_LEN + TCP_LEN + MSS) as u16,
        ttl: 64,
        ident: 1,
    };
    let tcp = TcpHeader {
        src_port: 40_000,
        dst_port: 5201,
        seq: 1,
        ack: 1,
        flags: TcpFlags::ACK,
        window: 65_535,
    };
    put_ns(h, out, "net.frame_build_parse_ns", |n| {
        timed(n, |_| {
            let frame = build_tcp_frame(&eth, &ip, &tcp, &payload).map_err(err)?;
            let parsed = EthHeader::parse(&frame)
                .and_then(|_| Ipv4Header::parse(&frame[ETH_LEN..]))
                .and_then(|ip| TcpHeader::parse(&ip, &frame[ETH_LEN + IPV4_LEN..]));
            match parsed {
                Some((hdr, _)) if hdr == tcp => Ok(()),
                _ => Err("frame did not parse back".into()),
            }
        })
    })?;

    // One in-order MSS segment from sender to receiver and its ACK back:
    // two `on_segment_into` and two `poll_into` per operation.
    let (mut tx, mut rx) = tcp_pair()?;
    let mut segs: Vec<SegmentOut> = Vec::new();
    let mut acks: Vec<SegmentOut> = Vec::new();
    put_ns(h, out, "net.tcp_segment_ns", |n| {
        timed(n, |i| {
            if tx.send(&payload) != payload.len() {
                return Err("tcp sender refused a segment".into());
            }
            segs.clear();
            tx.poll_into(i, &mut segs);
            acks.clear();
            for s in &segs {
                rx.on_segment_into(&s.hdr, &s.payload, i, &mut acks);
            }
            rx.poll_into(i, &mut acks);
            if rx.take_ready(MSS).len() != MSS {
                return Err("tcp receiver did not deliver the segment".into());
            }
            segs.clear();
            for a in &acks {
                tx.on_segment_into(&a.hdr, &a.payload, i, &mut segs);
            }
            Ok(())
        })
    })?;
    if tx.retransmits + rx.retransmits != 0 {
        return Err("the tcp unit loop retransmitted".into());
    }

    const SOCKETS: usize = 1024;
    const READY: u64 = 64;
    let mut q = EventQueue::new();
    for sid in 0..SOCKETS {
        q.register(SocketId(sid), Interest::READ, Trigger::Edge);
    }
    let mut events = Vec::with_capacity(READY as usize);
    let mut next = 0usize;
    put_ns(h, out, "net.eventq_post_poll_ns", |n| {
        let bursts = n.div_ceil(READY);
        timed(bursts, |_| {
            for _ in 0..READY {
                q.post(SocketId(next % SOCKETS), Interest::READ);
                next += 1;
            }
            q.poll(&mut events);
            if events.len() as u64 != READY {
                return Err("the event queue lost a readiness event".into());
            }
            Ok(())
        })
        .map(|d| per_asked(d, n, bursts * READY))
    })?;
    Ok(())
}

fn sh(h: &mut Harness, out: &mut Metrics) -> Res<()> {
    let mut m = Machine::with_defaults();
    let heap = region(&mut m, 1 << 20)?;
    let mut rt = ShRuntime::new(1);
    rt.set_policy(CPT, gcc_sh());
    rt.register_heap(CPT, heap, 1 << 20);
    let mut alloc = FreeListAllocator::new(heap, 1 << 20);

    let outer = alloc.alloc(&mut m, 64 + 2 * REDZONE, 16).map_err(err)?;
    let live = rt.on_alloc(&mut m, CPT, outer, 64);
    put_ns(h, out, "sh.check_access_ns", |n| {
        timed(n, |_| {
            rt.check_access(&mut m, CPT, live, 64, Access::Read)
                .map_err(err)
        })
    })?;

    // The instrumented malloc/free pair: redzones on allocation, a
    // quarantine on free that releases the oldest block to the allocator.
    put_ns(h, out, "sh.alloc_free_ns", |n| {
        timed(n, |_| {
            let outer = alloc.alloc(&mut m, 64 + 2 * REDZONE, 16).map_err(err)?;
            let p = rt.on_alloc(&mut m, CPT, outer, 64);
            if let Some(release) = rt.on_free(&mut m, CPT, p).map_err(err)? {
                alloc.free(&mut m, release).map_err(err)?;
            }
            Ok(())
        })
    })?;
    Ok(())
}

fn apps(h: &mut Harness, seed: u64, out: &mut Metrics) -> Res<()> {
    let get = encode_command(&[b"GET", b"key:0007"]);
    let mut parser = RespParser::new();
    put_ns(h, out, "apps.resp_parse_get_ns", |n| {
        timed(n, |_| {
            parser.feed(&get);
            match parser.parse_command() {
                Some(args) if args.len() == 2 => Ok(()),
                _ => Err("RESP GET did not parse".into()),
            }
        })
    })?;

    let reply = RespValue::Bulk(Some(seeded_bytes(seed, 50)));
    put_ns(h, out, "apps.resp_encode_bulk50_ns", |n| {
        timed(n, |_| {
            black_box(encode(black_box(&reply)));
            Ok(())
        })
    })?;
    Ok(())
}
