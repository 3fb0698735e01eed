//! Gate-crossing telemetry: exact per-mechanism counts through
//! [`GateRuntime::cross`], and histogram-bucket properties.

use flexos::build::BackendChoice;
use flexos::gate::{CompartmentCtx, CompartmentId, DirectGate, Gate, GateRuntime};
use flexos::spec::transform::ShSet;
use flexos_machine::{Machine, PageFlags, Pkru, ProtKey, Result, VcpuId, VmId};
use flexos_trace::{CycleHist, Label, HIST_BUCKETS};
use proptest::prelude::*;
use std::rc::Rc;

/// A minimal backend gate that only charges cycles — enough to exercise
/// the trace paths for every [`BackendChoice`] without pulling the real
/// backends (which live above this crate in the dependency graph).
#[derive(Debug)]
struct StubGate {
    mechanism: BackendChoice,
    enter_cost: u64,
    exit_cost: u64,
}

impl Gate for StubGate {
    fn mechanism(&self) -> BackendChoice {
        self.mechanism
    }

    fn enter(
        &self,
        m: &mut Machine,
        _from: &CompartmentCtx,
        _to: &CompartmentCtx,
        _arg_bytes: u64,
    ) -> Result<()> {
        m.charge(self.enter_cost);
        Ok(())
    }

    fn exit(
        &self,
        m: &mut Machine,
        _callee: &CompartmentCtx,
        _caller: &CompartmentCtx,
        _ret_bytes: u64,
    ) -> Result<()> {
        m.charge(self.exit_cost);
        Ok(())
    }
}

fn two_compartments(m: &mut Machine) -> Vec<CompartmentCtx> {
    let heap0 = m
        .alloc_region(VmId(0), 4096, ProtKey(1), PageFlags::RW)
        .unwrap();
    let heap1 = m
        .alloc_region(VmId(0), 4096, ProtKey(2), PageFlags::RW)
        .unwrap();
    let ctx = |id: u16, name: &str, key: u8, heap| CompartmentCtx {
        id: CompartmentId(id),
        name: name.into(),
        vm: VmId(0),
        vcpu: VcpuId(0),
        pkru: Pkru::ALLOW_ALL,
        keys: vec![ProtKey(key)],
        sh: ShSet::none(),
        heap_base: heap,
        heap_size: 4096,
    };
    vec![ctx(0, "rest", 1, heap0), ctx(1, "net", 2, heap1)]
}

#[test]
fn each_mechanism_records_exact_crossing_counts() {
    for (mechanism, crossings) in [
        (BackendChoice::None, 3u64),
        (BackendChoice::MpkShared, 5),
        (BackendChoice::MpkSwitched, 7),
        (BackendChoice::VmRpc, 2),
        (BackendChoice::Cheri, 4),
    ] {
        let mut m = Machine::with_defaults();
        let cpts = two_compartments(&mut m);
        let gate = Rc::new(StubGate {
            mechanism,
            enter_cost: 120,
            exit_cost: 80,
        });
        let mut rt = GateRuntime::new(cpts, gate, CompartmentId(0));
        for _ in 0..crossings {
            rt.cross(&mut m, CompartmentId(1), 16, 8, |_, _| Ok(()))
                .unwrap();
        }
        let label = mechanism.span_label();
        assert_eq!(
            rt.trace().crossings(label, 0, 1),
            crossings,
            "{mechanism}: 0 -> 1 count"
        );
        assert_eq!(rt.trace().crossings(label, 1, 0), 0, "{mechanism}: reverse");
        assert_eq!(
            rt.trace().total_crossings(),
            crossings,
            "{mechanism}: total"
        );
        // Every crossing cost exactly enter + exit cycles, so the
        // mechanism histogram saw `crossings` identical samples.
        if cfg!(not(feature = "trace-off")) {
            let hist = rt.trace().mechanism_hist(label).expect("hist exists");
            assert_eq!(hist.count(), crossings);
            assert_eq!(hist.min(), 200);
            assert_eq!(hist.max(), 200);
        }
    }
}

#[test]
fn same_compartment_calls_count_as_direct_not_crossings() {
    let mut m = Machine::with_defaults();
    let cpts = two_compartments(&mut m);
    let mut rt = GateRuntime::new(cpts, Rc::new(DirectGate), CompartmentId(0));
    for _ in 0..6 {
        rt.cross(&mut m, CompartmentId(0), 8, 8, |_, _| Ok(()))
            .unwrap();
    }
    assert_eq!(rt.trace().direct_calls(), 6);
    assert_eq!(rt.trace().total_crossings(), 0);
    assert_eq!(rt.trace().crossings(Label::FunctionCall, 0, 0), 0);
    assert!(rt.trace().mechanism_hist(Label::FunctionCall).is_none());
}

#[test]
fn nested_crossings_attribute_both_directions() {
    let mut m = Machine::with_defaults();
    let cpts = two_compartments(&mut m);
    let gate = Rc::new(StubGate {
        mechanism: BackendChoice::MpkSwitched,
        enter_cost: 10,
        exit_cost: 10,
    });
    let mut rt = GateRuntime::new(cpts, gate, CompartmentId(0));
    rt.cross(&mut m, CompartmentId(1), 0, 0, |m, rt| {
        rt.cross(m, CompartmentId(0), 0, 0, |_, _| Ok(()))
    })
    .unwrap();
    let label = BackendChoice::MpkSwitched.span_label();
    assert_eq!(rt.trace().crossings(label, 0, 1), 1);
    assert_eq!(rt.trace().crossings(label, 1, 0), 1);
}

proptest! {
    /// Cumulative bucket counts never decrease and always sum to the
    /// total: percentile readout depends on this monotonicity.
    #[test]
    fn histogram_buckets_are_monotone(values in prop::collection::vec(any::<u64>(), 1..200)) {
        let mut h = CycleHist::new();
        for &v in &values {
            h.record(v);
        }
        let recorded = if cfg!(feature = "trace-off") { 0 } else { values.len() as u64 };
        prop_assert_eq!(h.count(), recorded);
        let mut cumulative = 0u64;
        let mut prev = 0u64;
        for (i, &c) in h.buckets().iter().enumerate() {
            cumulative += c;
            prop_assert!(cumulative >= prev, "cumulative count decreased at bucket {}", i);
            prev = cumulative;
        }
        prop_assert_eq!(cumulative, recorded);
    }

    /// Percentiles are ordered and bounded by the observed extremes.
    #[test]
    fn histogram_percentiles_are_ordered(values in prop::collection::vec(any::<u64>(), 1..200)) {
        let mut h = CycleHist::new();
        for &v in &values {
            h.record(v);
        }
        let (p50, p90, p99) = h.quantiles();
        prop_assert!(p50 <= p90 && p90 <= p99);
        prop_assert!(p99 <= h.max());
        prop_assert!(p50 >= CycleHist::bucket_upper_bound(CycleHist::bucket_index(h.min()).saturating_sub(1)));
    }

    /// Every representable value lands in a bucket whose bounds contain it.
    #[test]
    fn bucket_index_respects_bounds(v in any::<u64>()) {
        let i = CycleHist::bucket_index(v);
        prop_assert!(i < HIST_BUCKETS);
        prop_assert!(v <= CycleHist::bucket_upper_bound(i));
        if i > 0 {
            prop_assert!(v > CycleHist::bucket_upper_bound(i - 1));
        }
    }
}
