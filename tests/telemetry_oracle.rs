//! Differential oracle for the telemetry folds.
//!
//! A crossing writes one span record and one accumulator row; the
//! `--stats` pair and mechanism tables, the per-compartment
//! `gate-enter`/`gate-exit` rows of the event tail with their sequence
//! numbers, the `gates` rows of the ring-drop report and the Perfetto
//! export are all folded from those at snapshot time. This suite holds
//! the folds to the ledgers they replaced (`common::ReferenceLedgers`):
//! pair rows, per-mechanism histograms and 256-deep per-compartment
//! event rings fed by a spy gate that times every round trip from the
//! inside, and span rings fed by tailing the machine's. After every run
//! the real snapshot's JSON and the real Chrome export must equal, byte
//! for byte, what the old aggregation makes of the reference ledgers —
//! on every backend, through every driver, with chaos, across a live
//! migration, while and after the shared span ring evicts the crossings, and
//! after a compartment's ring wrapped.

#![cfg(not(feature = "trace-off"))]

mod common;

use common::{
    arb_chaos, arb_ops, image_migratable, image_smp, install_spies, run_ops, set_chaos, CallOp,
    Driver, ReferenceLedgers, SpyGate, SpyLog, BACKENDS,
};
use flexos::build::BackendChoice;
use flexos::gate::{CompartmentId, MigrationReason};
use flexos_backends::{prepare_pair_migration, BootImage};
use flexos_trace::{SpanKind, StatsSnapshot, TraceRegistry, DEFAULT_SPAN_RING_CAP};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// An image whose every gate is spied on, and the reference ledgers
/// kept beside it.
struct Harness {
    img: BootImage,
    log: Arc<Mutex<SpyLog>>,
    ledgers: ReferenceLedgers,
    /// Spy crossings already replayed into `ledgers`.
    fed: usize,
}

impl Harness {
    fn boot(backend: BackendChoice, chaos: Option<(u64, u64)>, migratable: bool) -> Self {
        let mut img = if migratable {
            image_migratable(backend, chaos)
        } else {
            let mut img = image_smp(backend, 1);
            set_chaos(&mut img, chaos);
            img
        };
        let log = Arc::new(Mutex::new(SpyLog::default()));
        install_spies(&mut img, &log);
        Self {
            img,
            log,
            ledgers: ReferenceLedgers::default(),
            fed: 0,
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
                        ev.label,
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
        let log = self.log.lock().expect("spy log");
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

    fn snapshot(&self) -> StatsSnapshot {
        let mut reg = TraceRegistry::new();
        reg.set_elapsed(self.img.machine.clock().cycles());
        reg.add_gates(self.img.gates.trace(), &self.names());
        reg.add_faults(self.img.machine.fault_trace(), |_| None);
        reg.add_tlb(self.img.machine.tlb_trace());
        reg.add_spans(self.img.machine.span_trace());
        reg.finish()
    }

    /// The oracle: both exports, byte for byte.
    fn check(&mut self) {
        self.sync();
        let real = self.snapshot();
        let faults = self.img.machine.fault_trace().ring();
        let reference = self.ledgers.snapshot(&real, &self.names(), &[(0, faults)]);
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
        let planned = BTreeMap::from([((a.min(b), a.max(b)), to.mechanism())]);
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
        assert_eq!(gates.pair_mechanism(a, b), to.mechanism());
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
        for &backend in BACKENDS {
            for driver in DRIVERS {
                let mut h = Harness::boot(backend, chaos, migrate.is_some());
                for round in 0..rounds {
                    match migrate {
                        Some((split, to, deferred)) if round == 0 => {
                            let k = split.min(ops.len());
                            h.run(&ops[..k], driver);
                            h.check();
                            h.migrate(BACKENDS[to], deferred);
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

/// Eight scheduler calls, every other one with a nested crossing back.
fn dense_ops() -> Vec<CallOp> {
    (0..8)
        .map(|i| CallOp {
            sched: true,
            arg: 16,
            ret: 8,
            fail: false,
            nested: i % 2 == 0,
        })
        .collect()
}

/// Pushes `n` mq/net/sched spans on each of the two vCPUs' rings.
fn other_spans(h: &mut Harness, n: u64) {
    let kinds = [
        (SpanKind::MqHop, "mq-send"),
        (SpanKind::Net, "net-rx"),
        (SpanKind::Sched, "ctx-switch"),
    ];
    for i in 0..n {
        let (kind, label) = kinds[(i % 3) as usize];
        let t = h.img.machine.clock().cycles() + i;
        let spans = h.img.machine.span_trace_mut();
        spans.record(0, kind, label, 0, 0, t, t + 1);
        spans.record(1, kind, label, 1, 1, t, t + 1);
    }
}

/// The known trap: mq, net and sched spans share the per-vCPU ring with
/// the crossings and evict them, yet the event tail stays exact.
#[test]
fn the_event_tail_survives_eviction_of_crossings() {
    for &backend in BACKENDS {
        for driver in DRIVERS {
            let mut h = Harness::boot(backend, None, false);
            // Sparse crossings: the ring holds fewer than the tail needs,
            // and both kinds of record evict them.
            for _ in 0..12 {
                other_spans(&mut h, 400);
                h.run(&dense_ops(), driver);
                h.check();
            }
            // No crossing left in any ring at all.
            for _ in 0..3 {
                other_spans(&mut h, DEFAULT_SPAN_RING_CAP as u64 / 2);
                h.check();
            }
            let held = h.img.machine.span_trace().merged_events();
            assert!(
                held.iter().all(|(_, _, ev)| ev.kind != SpanKind::Gate),
                "{backend:?} {driver:?}: the rings still hold a crossing"
            );
            // ...and the next crossings pick the sequence numbers up.
            h.run(&dense_ops(), driver);
            h.check();
        }
    }
}

/// A crossing's record can also be evicted by another crossing's while
/// the ring holds too few of them: line every ring up so that the next
/// crossings overwrite the previous ones one for one.
#[test]
fn crossings_evicted_by_crossings_stay_reachable() {
    let pushed = |h: &Harness| -> Vec<(u16, u64)> {
        let stats = h.img.machine.span_trace().ring_stats();
        stats.iter().map(|s| (s.owner, s.pushed)).collect()
    };
    for &backend in BACKENDS {
        for driver in DRIVERS {
            let mut h = Harness::boot(backend, None, false);
            other_spans(&mut h, 10);
            h.sync();
            let before = pushed(&h);
            h.run(&dense_ops(), driver);
            for ((shard, start), (_, now)) in before.into_iter().zip(pushed(&h)) {
                for i in 0..start + DEFAULT_SPAN_RING_CAP as u64 - now {
                    let spans = h.img.machine.span_trace_mut();
                    spans.record(shard, SpanKind::Net, "net-tx", 0, 0, i, i + 1);
                }
            }
            h.sync();
            h.run(&dense_ops(), driver);
            h.check();
        }
    }
}

/// More than 256 events into one compartment: its ring wrapped.
#[test]
fn a_wrapped_compartment_ring_reports_its_drops() {
    for &backend in BACKENDS {
        for driver in DRIVERS {
            let mut h = Harness::boot(backend, None, false);
            for _ in 0..30 {
                h.run(&dense_ops(), driver);
            }
            h.check();
            if backend != BackendChoice::None {
                let snap = h.snapshot();
                assert!(snap.events_overwritten > 0, "{backend:?}: nothing wrapped");
                assert!(snap
                    .ring_drops
                    .iter()
                    .any(|r| r.subsystem == "gates" && r.dropped > 0));
            }
        }
    }
}
