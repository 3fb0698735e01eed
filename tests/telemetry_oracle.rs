//! Differential oracle for the telemetry folds.
//!
//! A crossing writes one span record and one accumulator row; a context
//! switch, a fault, a failed allocation and a dropped packet each write
//! one span record and bump one counter. The `--stats` pair and
//! mechanism tables, the event tail, the ring report and the Perfetto
//! export are all read off those at snapshot time. This suite holds them
//! to reference ledgers (`common::ReferenceLedgers`): pair rows and
//! per-mechanism histograms fed by a spy gate that times every round
//! trip from the inside, and span rings that keep every record the
//! machine's pushed, of which the newest of each shard count as held.
//! After every run the real snapshot's JSON and the real Chrome export
//! must equal, byte for byte, what the reference makes of its ledgers —
//! on every backend, through every driver, with chaos, across a live
//! migration, and with every kind of tail record written through its
//! real probe.

#![cfg(not(feature = "trace-off"))]

mod common;

use common::{
    arb_chaos, arb_ops, image_migratable, image_with_idle_vcpus, install_spies, run_ops, set_chaos,
    CallOp, Driver, ReferenceLedgers, SpyGate, SpyLog, SCHED,
};
use flexos::build::BackendChoice;
use flexos::gate::{CompartmentId, MigrationReason};
use flexos_backends::{prepare_pair_migration, BootImage};
use flexos_machine::{ChaosConfig, ChaosPlan, PageFlags, ProtKey, Schedule, VmId};
use flexos_trace::{
    Label, NetSnapshot, SchedSnapshot, SpanKind, StatsSnapshot, TraceRegistry,
    DEFAULT_SPAN_RING_CAP,
};
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// An image whose every gate is spied on, a scheduler and a net-stack
/// block driven through their probes, and the reference ledgers kept
/// beside them.
struct Harness {
    img: BootImage,
    chaos: Option<(u64, u64)>,
    sched: SchedSnapshot,
    net: NetSnapshot,
    log: Rc<RefCell<SpyLog>>,
    ledgers: ReferenceLedgers,
    /// Spy crossings already replayed into `ledgers`.
    fed: usize,
}

/// One event of the tail other than a crossing, through the probe that
/// records it in a running image.
#[derive(Debug, Clone, Copy)]
enum TailOp {
    /// A context switch to this thread id.
    Switch(u32),
    /// The app reads the scheduler compartment's heap: a pkey violation
    /// under MPK, a VM fault under VM RPC, nothing without isolation.
    Trespass,
    /// A spurious protection-key violation the chaos layer injects: an
    /// `injected` event, then the fault it raises.
    InjectedPkey,
    /// A frame allocation the chaos layer fails: an `injected` event.
    InjectedOom,
    /// A heap allocation of 1 TiB + this many bytes, which fails.
    AllocFail(u64),
    /// A frame dropped at demux.
    Drop,
    /// A SYN shed at a full accept backlog.
    Backlog,
    /// This many mq/net/doorbell spans on each vCPU's ring.
    Noise(u64),
}

fn arb_tail_ops() -> impl Strategy<Value = Vec<TailOp>> {
    let op = (0u8..8, any::<u32>(), 0u64..900).prop_map(|(op, x, n)| match op {
        0 => TailOp::Switch(x),
        1 => TailOp::Trespass,
        2 => TailOp::InjectedPkey,
        3 => TailOp::InjectedOom,
        4 => TailOp::AllocFail(n),
        5 => TailOp::Drop,
        6 => TailOp::Backlog,
        _ => TailOp::Noise(n),
    });
    prop::collection::vec(op, 1..24)
}

impl Harness {
    fn boot(backend: BackendChoice, chaos: Option<(u64, u64)>, migratable: bool) -> Self {
        let mut img = if migratable {
            image_migratable(backend, chaos)
        } else {
            let mut img = image_with_idle_vcpus(backend, 1);
            set_chaos(&mut img, chaos);
            img
        };
        let log = Rc::new(RefCell::new(SpyLog::default()));
        install_spies(&mut img, &log);
        Self {
            img,
            chaos,
            sched: SchedSnapshot::default(),
            net: NetSnapshot::default(),
            log,
            ledgers: ReferenceLedgers::default(),
            fed: 0,
        }
    }

    fn sched_c(&self) -> CompartmentId {
        self.img.compartment_of_lib(SCHED).expect("sched")
    }

    /// Protection key → the compartment holding it.
    fn key_owners(&self) -> BTreeMap<u16, u16> {
        let n = self.img.gates.len() as u16;
        let ctxs = (0..n).map(|c| self.img.gates.ctx(CompartmentId(c)));
        ctxs.flat_map(|ctx| ctx.keys.iter().map(|k| (k.0 as u16, ctx.id.0)))
            .collect()
    }

    /// Runs `f` under a one-off chaos plan, then puts the harness's back.
    fn inject<T>(&mut self, cfg: ChaosConfig, f: impl FnOnce(&mut BootImage) -> T) -> T {
        self.img.machine.set_chaos(ChaosPlan::new(cfg));
        let out = f(&mut self.img);
        self.img.machine.clear_chaos();
        set_chaos(&mut self.img, self.chaos);
        out
    }

    fn tail(&mut self, op: TailOp) {
        let app = self.img.gates.current_ctx();
        let (app_c, vcpu, own) = (app.id, app.vcpu, app.heap_base);
        let theirs = self.img.gates.ctx(self.sched_c()).heap_base;
        let sched_c = self.sched_c().0;
        let chaos = |seed| ChaosConfig::with_seed(seed);
        match op {
            TailOp::Switch(tid) => {
                let m = &mut self.img.machine;
                let t0 = m.clock().cycles();
                m.charge(40);
                let t1 = m.clock().cycles();
                self.sched
                    .record_switch(m.span_trace_mut(), tid, sched_c, t0, t1);
            }
            TailOp::Trespass => {
                let _ = self.img.machine.read_u64(vcpu, theirs);
            }
            TailOp::InjectedPkey => {
                let cfg = ChaosConfig {
                    spurious_pkey: Schedule::EveryNth(1),
                    ..chaos(3)
                };
                let read = self.inject(cfg, |img| img.machine.read_u64(vcpu, own));
                assert!(read.is_err(), "the read was made to fault");
            }
            TailOp::InjectedOom => {
                let cfg = ChaosConfig {
                    alloc_fail: Schedule::EveryNth(1),
                    ..chaos(4)
                };
                let region = self.inject(cfg, |img| {
                    img.machine
                        .alloc_region(VmId(0), 4096, ProtKey(0), PageFlags::RW)
                });
                assert!(region.is_err(), "the allocation was made to fail");
            }
            TailOp::AllocFail(n) => {
                let BootImage { machine, heaps, .. } = &mut self.img;
                let got = heaps.alloc(machine, app_c, (1 << 40) + n, 8);
                assert!(got.is_err(), "1 TiB does not fit");
            }
            TailOp::Drop | TailOp::Backlog => {
                let m = &mut self.img.machine;
                let now = m.clock().cycles();
                if matches!(op, TailOp::Drop) {
                    self.net.on_drop(m.span_trace_mut(), now);
                } else {
                    self.net.on_backlog_overflow(m.span_trace_mut(), now);
                }
                m.charge(1);
            }
            TailOp::Noise(n) => other_spans(self, n),
        }
    }

    /// Brings the reference ledgers up to date: tails the span rings
    /// (fewer than a ring's worth of events may have been pushed since
    /// the last call), replays the spy's new crossings, and checks that
    /// the two sources describe the same crossings.
    fn sync(&mut self) {
        let spans = self.img.machine.span_trace();
        let merged = spans.merged_events();
        let mut recorded = Vec::new();
        for s in spans.ring_stats() {
            let shard = s.owner as usize;
            let seen = self.ledgers.spans_pushed(shard);
            assert!(
                s.pushed - seen <= DEFAULT_SPAN_RING_CAP as u64,
                "tail more often"
            );
            let mut fresh: Vec<_> = merged
                .iter()
                .filter(|&&(at, seq, _)| at == shard && seq >= seen)
                .collect();
            fresh.sort_by_key(|&&(_, seq, _)| seq);
            assert_eq!(
                fresh.len() as u64,
                s.pushed - seen,
                "a pushed span is missing"
            );
            for &&(shard, _, ev) in &fresh {
                self.ledgers.record_span(shard, ev);
                if ev.kind == SpanKind::Gate {
                    recorded.push((
                        ev.label.as_str(),
                        ev.src,
                        ev.dst,
                        ev.t0,
                        ev.t1,
                        ev.gate_cycles,
                        ev.bytes,
                    ));
                }
            }
        }
        let log = self.log.borrow();
        let mut spied = Vec::new();
        for c in &log.done[self.fed..] {
            self.ledgers.record_crossing(c);
            spied.push((
                c.mechanism,
                c.src,
                c.dst,
                c.t0,
                c.now,
                c.gate_cycles,
                c.bytes,
            ));
        }
        self.fed = log.done.len();
        recorded.sort_unstable();
        spied.sort_unstable();
        assert_eq!(recorded, spied, "gate records vs what the gates saw");
    }

    fn names(&self) -> Vec<String> {
        (0..self.img.gates.len())
            .map(|c| self.img.gates.ctx(CompartmentId(c as u16)).name.clone())
            .collect()
    }

    /// Registers everything the way `Os::stats_snapshot` does.
    fn snapshot(&self) -> StatsSnapshot {
        let names = self.names();
        let owners = self.key_owners();
        let mut reg = TraceRegistry::new();
        reg.set_elapsed(self.img.machine.clock().cycles());
        reg.add_gates(self.img.gates.trace(), &names);
        reg.add_sched(&self.sched);
        reg.add_allocs(self.img.heaps.trace(), &names);
        reg.add_faults(self.img.machine.fault_trace(), |k| {
            let &c = owners.get(&k)?;
            Some((c, names[c as usize].clone()))
        });
        reg.add_tlb(self.img.machine.tlb_trace());
        reg.add_net(self.net);
        reg.add_spans(self.img.machine.span_trace());
        reg.finish()
    }

    /// The oracle: both exports, byte for byte.
    fn check(&mut self) {
        self.sync();
        let real = self.snapshot();
        let owners = self.key_owners();
        let fault_owner = |detail: u64| owners.get(&u16::try_from(detail).ok()?).copied();
        let reference = self.ledgers.snapshot(&real, &self.names(), &fault_owner);
        if let Some(d) = real.sheet().first_difference(&reference.sheet()) {
            eprintln!("--stats JSON: first difference (real vs reference) {d:?}");
        }
        assert_eq!(real.to_json(), reference.to_json(), "--stats JSON");
        let names: Vec<(u16, String)> = (0u16..).zip(self.names()).collect();
        assert_eq!(
            self.img.machine.span_trace().to_chrome_json(&names),
            self.ledgers.chrome_json(&names),
            "Chrome trace"
        );
    }

    fn run(&mut self, ops: &[CallOp], driver: Driver) {
        run_ops(&mut self.img, ops, driver);
        self.sync();
    }

    /// Live-migrates the one pair of the equivalence image to `to`,
    /// spied on like the boot gates; `deferred` requests it from inside
    /// a crossing of that pair, so the swap lands at that crossing's
    /// own safe point, after its record.
    fn migrate(&mut self, to: BackendChoice, deferred: bool) {
        let a = self.img.gates.current();
        let b = CompartmentId(1 - a.0);
        let planned = BTreeMap::from([((a.min(b), a.max(b)), to)]);
        let (gate, re) = prepare_pair_migration(&mut self.img, a, b, to, &planned).expect("plans");
        let gate = SpyGate::wrap(gate, &self.log);
        let BootImage { machine, gates, .. } = &mut self.img;
        let reason = MigrationReason::Manual;
        if deferred {
            gates
                .cross(machine, b, 8, 8, |m, rt| {
                    let applied = rt.request_migration(m, a, b, gate, reason, Some(re))?;
                    assert!(!applied, "the pair is mid-crossing");
                    Ok(())
                })
                .expect("crosses");
        } else {
            let applied = gates.request_migration(machine, a, b, gate, reason, Some(re));
            assert!(applied.expect("migrates"), "the pair is quiescent");
        }
        assert_eq!(gates.pair_mechanism(a, b), to);
        self.sync();
    }
}

const DRIVERS: [Driver; 3] = [Driver::Loop, Driver::Batch, Driver::Ring];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn telemetry_views_equal_reference_ledgers(
        ops in arb_ops(),
        chaos in arb_chaos(),
        migrate in prop::option::of((0usize..10, 0usize..5, any::<bool>())),
        rounds in 1usize..4,
    ) {
        for backend in BackendChoice::ALL {
            for driver in DRIVERS {
                let mut h = Harness::boot(backend, chaos, migrate.is_some());
                for round in 0..rounds {
                    match migrate {
                        Some((split, to, deferred)) if round == 0 => {
                            let k = split.min(ops.len());
                            h.run(&ops[..k], driver);
                            h.check();
                            h.migrate(BackendChoice::ALL[to], deferred);
                            h.run(&ops[k..], driver);
                        }
                        _ => h.run(&ops, driver),
                    }
                    h.check();
                }
            }
        }
    }
}

/// Pushes `n` mq/net/doorbell spans on each of the two vCPUs' rings.
fn other_spans(h: &mut Harness, n: u64) {
    let kinds = [
        (SpanKind::MqHop, Label::MqSend),
        (SpanKind::Net, Label::NetRx),
        (SpanKind::Doorbell, Label::Doorbell),
    ];
    for i in 0..n {
        let (kind, label) = kinds[(i % 3) as usize];
        let t = h.img.machine.clock().cycles() + i;
        let spans = h.img.machine.span_trace_mut();
        spans.record(0, kind, label, 0, 0, t, t + 1);
        spans.record(1, kind, label, 1, 1, t, t + 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Switches, faults (enforced, chaos-injected, on every backend),
    /// failed allocations, drops and backlog overflows between
    /// crossings, with and without enough other spans to evict them.
    #[test]
    fn tail_events_equal_reference_rings(
        tail in arb_tail_ops(),
        ops in arb_ops(),
        chaos in arb_chaos(),
    ) {
        for backend in BackendChoice::ALL {
            let mut h = Harness::boot(backend, chaos, false);
            for (i, &op) in tail.iter().enumerate() {
                h.tail(op);
                if i % 2 == 0 {
                    h.run(&ops, Driver::Loop);
                }
                h.check();
            }
        }
    }
}

/// The profile `reproduce --stats` reports and
/// `crates/bench/tests/golden/stats.json` pins — Redis GET / MPK shared /
/// NW+sched-vs-rest — is one worth pinning: every pair crossed, the
/// mechanism and batch histograms filled, the software TLB used.
#[test]
fn the_stats_profile_fills_every_table() {
    use flexos_apps::redis::{run_redis_with_stats, Mix, RedisParams};
    use flexos_apps::CompartmentModel;
    let (_, s) = run_redis_with_stats(&RedisParams {
        model: CompartmentModel::NwSchedRest,
        backend: BackendChoice::MpkShared,
        mix: Mix::Get,
        ops: 1_000,
        ..RedisParams::default()
    })
    .expect("stats profile");
    assert!(
        !s.gate_pairs.is_empty()
            && s.gate_pairs.iter().all(|p| p.crossings > 0)
            && !s.mechanisms.is_empty()
            && !s.gate_batch.is_empty()
            && s.tlb.hits > 0,
        "{s:?}"
    );
}
