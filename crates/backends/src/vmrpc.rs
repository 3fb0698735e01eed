//! The VM-based isolation backend: RPC across EPT boundaries.
//!
//! "Our toolchain generates one VM image per compartment. … along with a
//! thin RPC implementation based on inter-VM notifications and a shared
//! area of memory for shared heap/static data. It is mapped in all
//! compartments (VMs) at an identical address so that pointers to/in
//! shared structures remain valid. Compartments do not share a single
//! address space anymore, and run on different vCPUs." (paper §3)
//!
//! A crossing marshals the argument frame into a per-direction RPC ring
//! in the shared window, rings the target VM's doorbell (charging the
//! inter-VM notification cost), and hands execution to the callee vCPU.
//!
//! The gate itself is stateless (`Copy`, no interior mutability): all
//! crossing state lives in the [`Machine`] it is handed.

use flexos::build::BackendChoice;
use flexos::gate::{CompartmentCtx, Gate};
use flexos_machine::{Addr, Fault, Machine, NotifyFate, Result};

/// Size reserved in the shared window for each compartment's RPC inbox.
pub const RPC_INBOX_BYTES: u64 = 4096;

/// Doorbell delivery attempts before a crossing gives up.
///
/// Inter-VM interrupts can be lost (in the simulation, injected by the
/// chaos layer; on real hardware, by a missed event-channel upcall). The
/// gate re-rings the doorbell with exponential backoff — failed attempt
/// `k` sleeps `BACKOFF_BASE_CYCLES << (k-1)` simulated cycles — and
/// aborts with [`Fault::GateTimeout`] once `MAX_ATTEMPTS` deliveries
/// have all gone unanswered.
pub const MAX_ATTEMPTS: u32 = 5;

/// Backoff charged after the first failed attempt; doubles per retry.
pub const BACKOFF_BASE_CYCLES: u64 = 2_000;

// The largest backoff, `BACKOFF_BASE_CYCLES << (MAX_ATTEMPTS - 2)`
// (16 000 cycles), keeps every bit of its base.
const _: () = assert!(BACKOFF_BASE_CYCLES.leading_zeros() >= MAX_ATTEMPTS - 2);

/// The VM RPC gate. Holds the base of the RPC area in the shared window;
/// compartment `i`'s inbox sits at `rpc_base + i * RPC_INBOX_BYTES`.
#[derive(Debug, Clone, Copy)]
pub struct VmRpcGate {
    rpc_base: Addr,
    compartments: u16,
}

impl VmRpcGate {
    /// Creates the gate over an RPC area of `compartments` inboxes.
    pub fn new(rpc_base: Addr, compartments: u16) -> Self {
        Self {
            rpc_base,
            compartments,
        }
    }

    /// Bytes of shared memory this gate needs for `compartments` inboxes.
    pub fn area_bytes(compartments: u16) -> u64 {
        u64::from(compartments) * RPC_INBOX_BYTES
    }

    fn inbox(&self, c: u16) -> Addr {
        Addr(self.rpc_base.0 + u64::from(c) * RPC_INBOX_BYTES)
    }

    /// Marshals a `bytes`-long frame into `target`'s inbox, notifies it,
    /// and consumes the notification on the callee side (the synchronous
    /// closure model of [`GateRuntime::cross`]).
    ///
    /// Each delivery attempt first looks at the target's doorbell queue.
    /// Empty — every crossing but one into a planted doorbell — posting
    /// our doorbell and taking it straight back would leave the queue as
    /// it was whatever the chaos fate, so the attempt only draws and
    /// honours the fate ([`Machine::notify_coalesced`]). Not empty, the
    /// attempt posts for real and takes the oldest entry, so a forged or
    /// stale word raises [`Fault::DoorbellMismatch`] as the callee would
    /// see it. Either way a lost doorbell is re-rung with bounded
    /// exponential backoff before the gate is declared dead.
    ///
    /// [`GateRuntime::cross`]: flexos::gate::GateRuntime::cross
    fn rpc(
        &self,
        m: &mut Machine,
        from: &CompartmentCtx,
        to: &CompartmentCtx,
        bytes: u64,
    ) -> Result<()> {
        if to.id.0 >= self.compartments {
            return Err(Fault::HardeningAbort {
                mechanism: "vmrpc",
                reason: format!("no RPC inbox for {}", to.id),
            });
        }
        if bytes > RPC_INBOX_BYTES - 16 {
            return Err(Fault::HardeningAbort {
                mechanism: "vmrpc",
                reason: format!("RPC frame of {bytes} bytes exceeds inbox"),
            });
        }
        // Marshal: descriptor (call id + length) followed by the frame.
        // The frame contents are produced by the caller into the shared
        // window; here we charge the copy and write the descriptor so the
        // data path is exercised under enforcement.
        m.charge(m.costs().vm_rpc_marshal + m.costs().copy_cost(bytes));
        let inbox = self.inbox(to.id.0);
        m.write_u64(from.vcpu, inbox, u64::from(from.id.0))?;
        m.write_u64(from.vcpu, Addr(inbox.0 + 8), bytes)?;
        let expected = u64::from(from.id.0);
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let delivered = if m.peek_notification(to.vm).is_none() {
                m.notify_coalesced(from.vcpu, to.vm)? != NotifyFate::Drop
            } else {
                m.notify(from.vcpu, to.vm, expected)?;
                match m.take_notification(to.vm) {
                    Some(n) if n.word != expected => {
                        return Err(Fault::DoorbellMismatch {
                            expected,
                            got: n.word,
                        });
                    }
                    Some(_) => {
                        // Absorb duplicate deliveries of our own doorbell so
                        // a stale copy can't be misread as the next crossing.
                        while m
                            .peek_notification(to.vm)
                            .is_some_and(|d| d.word == expected && d.from == from.vm)
                        {
                            m.take_notification(to.vm);
                        }
                        true
                    }
                    None => false,
                }
            };
            if delivered {
                return Ok(());
            }
            if attempt >= MAX_ATTEMPTS {
                return Err(Fault::GateTimeout {
                    mechanism: "vmrpc",
                    attempts: attempt,
                });
            }
            m.charge(BACKOFF_BASE_CYCLES << (attempt - 1));
        }
    }
}

impl Gate for VmRpcGate {
    fn mechanism(&self) -> BackendChoice {
        BackendChoice::VmRpc
    }

    fn enter(
        &self,
        m: &mut Machine,
        from: &CompartmentCtx,
        to: &CompartmentCtx,
        arg_bytes: u64,
    ) -> Result<()> {
        self.rpc(m, from, to, arg_bytes)
    }

    fn exit(
        &self,
        m: &mut Machine,
        callee: &CompartmentCtx,
        caller: &CompartmentCtx,
        ret_bytes: u64,
    ) -> Result<()> {
        // The response travels the same path in reverse.
        self.rpc(m, callee, caller, ret_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexos::gate::CompartmentId;
    use flexos::spec::ShSet;
    use flexos_machine::{
        ChaosConfig, ChaosPlan, PageFlags, Pkru, ProtKey, Schedule, VcpuId, VmId,
    };

    fn setup() -> (Machine, VmRpcGate, CompartmentCtx, CompartmentCtx) {
        let mut m = Machine::with_defaults();
        let vm1 = m.add_vm(false);
        let vcpu1 = m.add_vcpu(vm1);
        let rpc_base = m
            .alloc_shared_region(VmRpcGate::area_bytes(2), ProtKey(0))
            .unwrap();
        let gate = VmRpcGate::new(rpc_base, 2);
        let heap0 = m
            .alloc_region(VmId(0), 4096, ProtKey(0), PageFlags::RW)
            .unwrap();
        let heap1 = m
            .alloc_region(vm1, 4096, ProtKey(0), PageFlags::RW)
            .unwrap();
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
        (m, gate, c0, c1)
    }

    #[test]
    fn rpc_charges_notification_and_marshalling() {
        let (mut m, gate, c0, c1) = setup();
        let t0 = m.clock().cycles();
        gate.enter(&mut m, &c0, &c1, 64).unwrap();
        let charged = m.clock().cycles() - t0;
        assert!(charged >= m.costs().vm_notify + m.costs().vm_rpc_marshal);
        // Descriptor landed in the callee-visible inbox.
        let inbox = Addr(gate.rpc_base.0 + RPC_INBOX_BYTES);
        assert_eq!(m.read_u64(c1.vcpu, inbox).unwrap(), 0); // from compartment 0
        assert_eq!(m.read_u64(c1.vcpu, Addr(inbox.0 + 8)).unwrap(), 64);
    }

    #[test]
    fn rpc_round_trip_is_far_costlier_than_mpk() {
        let (mut m, gate, c0, c1) = setup();
        let t0 = m.clock().cycles();
        gate.enter(&mut m, &c0, &c1, 32).unwrap();
        gate.exit(&mut m, &c1, &c0, 8).unwrap();
        let rpc_cost = m.clock().cycles() - t0;
        assert!(rpc_cost > 10 * 2 * m.costs().mpk_switched_gate());
    }

    #[test]
    fn oversized_frames_are_rejected() {
        let (mut m, gate, c0, c1) = setup();
        assert!(gate.enter(&mut m, &c0, &c1, RPC_INBOX_BYTES).is_err());
    }

    #[test]
    fn callee_vm_cannot_reach_caller_private_heap() {
        let (mut m, _gate, c0, c1) = setup();
        m.write(c0.vcpu, c0.heap_base, b"private").unwrap();
        let mut buf = [0u8; 7];
        // From VM 1, compartment 0's private heap is not mapped.
        assert!(m.read(c1.vcpu, c0.heap_base, &mut buf).is_err());
    }

    #[test]
    fn unknown_target_compartment_is_rejected() {
        let (mut m, gate, c0, _c1) = setup();
        let mut bogus = c0.clone();
        bogus.id = CompartmentId(9);
        assert!(gate.enter(&mut m, &c0, &bogus, 0).is_err());
    }

    #[test]
    fn forged_doorbell_payload_is_rejected_at_runtime() {
        let (mut m, gate, c0, c1) = setup();
        // An attacker rings the callee's doorbell with a bogus descriptor
        // word before the legitimate crossing: the gate must notice the
        // mismatch even in release builds (this used to be a debug_assert).
        m.notify(c0.vcpu, c1.vm, 0xbad).unwrap();
        let err = gate.enter(&mut m, &c0, &c1, 16).unwrap_err();
        assert!(matches!(err, Fault::DoorbellMismatch { got: 0xbad, .. }));
        assert!(err.is_protection_fault());
    }

    /// A doorbell forged between two calls of a batch is still caught:
    /// call 0's body plants it on the callee's queue, so call 1's enter
    /// finds the queue busy, takes the forged word and faults before its
    /// body runs.
    #[test]
    fn forged_doorbell_mid_batch_is_still_rejected() {
        use flexos::gate::{CallVec, GateRuntime};
        use std::rc::Rc;
        let (mut m, gate, c0, c1) = setup();
        let (attacker, victim) = (c0.vcpu, c1.vm);
        let mut rt = GateRuntime::new(vec![c0, c1], Rc::new(gate), CompartmentId(0));
        let mut bodies = 0;
        let calls = CallVec::uniform(2, 16, 8);
        let err = rt
            .cross_batch(&mut m, CompartmentId(1), &calls, |m, _, idx| {
                bodies += 1;
                if idx == 0 {
                    m.notify(attacker, victim, 0xbad)?;
                }
                Ok(())
            })
            .unwrap_err();
        assert!(
            matches!(err, Fault::DoorbellMismatch { got: 0xbad, .. }),
            "{err:?}"
        );
        assert_eq!(bodies, 1, "call 1 must fault before its body");
        assert_eq!(rt.current(), CompartmentId(0));
    }

    #[test]
    fn lost_doorbell_is_retried_with_backoff() {
        // Baseline: the cost of one clean crossing.
        let t_nochaos = {
            let (mut m2, gate2, b0, b1) = setup();
            let t0 = m2.clock().cycles();
            gate2.enter(&mut m2, &b0, &b1, 16).unwrap();
            m2.clock().cycles() - t0
        };
        // Drop every even-numbered notification: the second crossing's
        // first ring is lost and its retry lands.
        let (mut m, gate, c0, c1) = setup();
        m.set_chaos(ChaosPlan::new(ChaosConfig {
            seed: 1,
            notify_drop: Schedule::EveryNth(2),
            ..Default::default()
        }));
        // First notify survives (EveryNth(2) fires on calls 2, 4, …).
        gate.enter(&mut m, &c0, &c1, 16).unwrap();
        // Second crossing: ring dropped, retry succeeds.
        let t0 = m.clock().cycles();
        gate.enter(&mut m, &c0, &c1, 16).unwrap();
        let retried = m.clock().cycles() - t0;
        assert_eq!(m.chaos_stats().unwrap().dropped_notifications, 1);
        // The retried crossing paid at least one backoff plus a second
        // notification on top of the clean-path cost.
        assert!(retried >= t_nochaos + BACKOFF_BASE_CYCLES);
    }

    #[test]
    fn all_doorbells_lost_times_out_with_typed_fault() {
        let (mut m, gate, c0, c1) = setup();
        m.set_chaos(ChaosPlan::new(ChaosConfig {
            seed: 1,
            notify_drop: Schedule::EveryNth(1), // 100% loss
            ..Default::default()
        }));
        let err = gate.enter(&mut m, &c0, &c1, 16).unwrap_err();
        assert_eq!(
            err,
            Fault::GateTimeout {
                mechanism: "vmrpc",
                attempts: MAX_ATTEMPTS,
            }
        );
    }

    #[test]
    fn duplicated_doorbells_are_absorbed() {
        let (mut m, gate, c0, c1) = setup();
        m.set_chaos(ChaosPlan::new(ChaosConfig {
            seed: 1,
            notify_dup: Schedule::EveryNth(1), // every doorbell delivered twice
            ..Default::default()
        }));
        gate.enter(&mut m, &c0, &c1, 16).unwrap();
        // The duplicate must not linger to corrupt the next crossing.
        assert!(m.peek_notification(c1.vm).is_none());
        gate.enter(&mut m, &c0, &c1, 16).unwrap();
        assert!(m.peek_notification(c1.vm).is_none());
    }

    /// The reference the gate's doorbell is held to: every attempt posts
    /// for real, takes the oldest entry off the target's queue, checks
    /// its word and absorbs duplicates of our own, whatever the queue
    /// held before.
    fn post_take_check(
        m: &mut Machine,
        gate: &VmRpcGate,
        from: &CompartmentCtx,
        to: &CompartmentCtx,
        bytes: u64,
    ) -> Result<()> {
        m.charge(m.costs().vm_rpc_marshal + m.costs().copy_cost(bytes));
        let inbox = gate.inbox(to.id.0);
        m.write_u64(from.vcpu, inbox, u64::from(from.id.0))?;
        m.write_u64(from.vcpu, Addr(inbox.0 + 8), bytes)?;
        let expected = u64::from(from.id.0);
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            m.notify(from.vcpu, to.vm, expected)?;
            if let Some(n) = m.take_notification(to.vm) {
                if n.word != expected {
                    return Err(Fault::DoorbellMismatch {
                        expected,
                        got: n.word,
                    });
                }
                while m
                    .peek_notification(to.vm)
                    .is_some_and(|d| d.word == expected && d.from == from.vm)
                {
                    m.take_notification(to.vm);
                }
                return Ok(());
            }
            if attempt >= MAX_ATTEMPTS {
                return Err(Fault::GateTimeout {
                    mechanism: "vmrpc",
                    attempts: attempt,
                });
            }
            m.charge(BACKOFF_BASE_CYCLES << (attempt - 1));
        }
    }

    /// The queue the gate observes decides each delivery attempt, and
    /// both branches are held to the post-take-check reference: for each
    /// chaos fate, from an empty doorbell queue, one holding a forged
    /// word and one holding a stale copy of our own, a sync round trip
    /// returns, charges, leaves on both queues, counts as faults and
    /// records as spans exactly what the reference does. From an empty
    /// queue that is an empty queue again.
    #[test]
    fn a_sync_crossing_leaves_the_doorbell_queue_as_the_exact_path_does() {
        let fates = [
            ("deliver", Schedule::Off, Schedule::Off),
            ("drop", Schedule::EveryNth(1), Schedule::Off),
            ("drop-then-deliver", Schedule::EveryNth(2), Schedule::Off),
            ("duplicate", Schedule::Off, Schedule::EveryNth(1)),
        ];
        for (fate, notify_drop, notify_dup) in fates {
            for planted in [None, Some(0xbad), Some(0)] {
                let run = |reference: bool| {
                    let (mut m, gate, c0, c1) = setup();
                    if let Some(word) = planted {
                        m.notify(c0.vcpu, c1.vm, word).unwrap();
                    }
                    m.set_chaos(ChaosPlan::new(ChaosConfig {
                        seed: 3,
                        notify_drop,
                        notify_dup,
                        ..Default::default()
                    }));
                    let mut rpc = |from: &CompartmentCtx, to: &CompartmentCtx, bytes| {
                        if reference {
                            post_take_check(&mut m, &gate, from, to, bytes)
                        } else {
                            gate.enter(&mut m, from, to, bytes)
                        }
                    };
                    let result = rpc(&c0, &c1, 16).and_then(|()| rpc(&c1, &c0, 8));
                    let mut queued = Vec::new();
                    for vm in [c1.vm, c0.vm] {
                        while let Some(n) = m.take_notification(vm) {
                            queued.push((vm, n));
                        }
                    }
                    let faults = m.fault_trace().by_kind().clone();
                    let spans = m.span_trace().merged_events();
                    (result, m.clock().cycles(), queued, faults, spans)
                };
                let (gate, reference) = (run(false), run(true));
                let at = format!("{fate}, planted {planted:?}");
                assert_eq!(gate, reference, "{at}");
                if planted.is_none() {
                    assert!(gate.2.is_empty(), "{at}: the queues are as found");
                }
                if planted == Some(0xbad) {
                    assert!(
                        matches!(gate.0, Err(Fault::DoorbellMismatch { got: 0xbad, .. })),
                        "{at}"
                    );
                }
            }
        }
    }
}
