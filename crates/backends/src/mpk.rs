//! The Intel MPK isolation backend: one gate, shared or switched stacks.
//!
//! "Our MPK backend places each compartment in its own MPK memory region,
//! including static memory, heap, stack, and TLS. … Our MPK backend
//! supports two types of gates. In the shared-stack gate, heap and static
//! memory are isolated and only shared data is accessible from all
//! compartments …; thread stacks are located in a domain shared by all
//! compartments. This gate is similar to ERIM's. With the switched stack
//! gate, the heap, stacks, and static memory are all isolated. There is
//! one stack per thread per compartment and the stack is switched at
//! domain boundaries. Parameters are copied to the target domain stack
//! … This gate is similar to HODOR's." (paper §3)
//!
//! The gate carries the machine's [`GateToken`], modelling the vetted
//! `wrpkru` call sites: only gate code may change PKRU (the paper's
//! defense against unauthorized PKRU writes).

use flexos::build::BackendChoice;
use flexos::gate::{CompartmentCtx, Gate};
use flexos_machine::{GateToken, Machine, Result};

/// The MPK gate, in the stack policy of its backend
/// ([`BackendChoice::stacks_shared`]). `MpkShared` is ERIM-style: a PKRU
/// switch, arguments stay on the shared stack domain. `MpkSwitched` is
/// Hodor-style: the PKRU switch **plus** a stack switch, with parameters
/// copied to the target domain's stack and the return value copied back.
#[derive(Debug, Clone, Copy)]
pub struct MpkGate {
    token: GateToken,
    backend: BackendChoice,
}

impl MpkGate {
    /// Creates the gate of `backend` (`MpkShared` or `MpkSwitched`);
    /// `token` authorizes its `wrpkru` call sites.
    pub fn new(token: GateToken, backend: BackendChoice) -> Self {
        Self { token, backend }
    }

    /// Call-site validation and register clearing (plus, on switched
    /// stacks, the stack switch and the copy of `bytes`), then the PKRU
    /// write itself (the machine charges `wrpkru`).
    fn switch_to(&self, m: &mut Machine, to: &CompartmentCtx, bytes: u64) -> Result<()> {
        let costs = m.costs();
        let mut cycles = costs.pkru_guard_check + costs.mpk_gate_overhead;
        if !self.backend.stacks_shared() {
            cycles += costs.stack_switch + costs.copy_cost(bytes);
        }
        m.charge(cycles);
        m.wrpkru(to.vcpu, to.pkru, Some(self.token))
    }
}

impl Gate for MpkGate {
    fn mechanism(&self) -> BackendChoice {
        self.backend
    }

    fn enter(
        &self,
        m: &mut Machine,
        _from: &CompartmentCtx,
        to: &CompartmentCtx,
        arg_bytes: u64,
    ) -> Result<()> {
        self.switch_to(m, to, arg_bytes)
    }

    fn exit(
        &self,
        m: &mut Machine,
        _callee: &CompartmentCtx,
        caller: &CompartmentCtx,
        ret_bytes: u64,
    ) -> Result<()> {
        self.switch_to(m, caller, ret_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexos::gate::CompartmentId;
    use flexos::spec::ShSet;
    use flexos_machine::{PageFlags, Pkru, ProtKey, VcpuId, VmId};

    fn ctx(id: u16, key: u8, m: &mut Machine) -> CompartmentCtx {
        let heap = m
            .alloc_region(VmId(0), 4096, ProtKey(key), PageFlags::RW)
            .unwrap();
        CompartmentCtx {
            id: CompartmentId(id),
            name: format!("c{id}"),
            vm: VmId(0),
            vcpu: VcpuId(0),
            pkru: Pkru::deny_all_except(&[ProtKey(0), ProtKey(key)], &[]),
            keys: vec![ProtKey(key)],
            sh: ShSet::none(),
            heap_base: heap,
            heap_size: 4096,
        }
    }

    #[test]
    fn shared_gate_switches_pkru_and_charges_one_way_cost() {
        let mut m = Machine::with_defaults();
        let a = ctx(0, 1, &mut m);
        let b = ctx(1, 2, &mut m);
        let gate = MpkGate::new(m.gate_token(), BackendChoice::MpkShared);
        let c0 = m.clock().cycles();
        gate.enter(&mut m, &a, &b, 64).unwrap();
        assert_eq!(m.clock().cycles() - c0, m.costs().mpk_shared_gate());
        assert_eq!(m.rdpkru(VcpuId(0)), b.pkru);
        let c0 = m.clock().cycles();
        gate.exit(&mut m, &b, &a, 8).unwrap();
        assert_eq!(m.clock().cycles() - c0, m.costs().mpk_shared_gate());
        assert_eq!(m.rdpkru(VcpuId(0)), a.pkru);
        assert_eq!(gate.mechanism(), BackendChoice::MpkShared);
    }

    #[test]
    fn switched_gate_charges_stack_switch_and_arg_copy() {
        let mut m = Machine::with_defaults();
        let a = ctx(0, 1, &mut m);
        let b = ctx(1, 2, &mut m);
        let gate = MpkGate::new(m.gate_token(), BackendChoice::MpkSwitched);
        assert_eq!(gate.mechanism(), BackendChoice::MpkSwitched);
        let c0 = m.clock().cycles();
        gate.enter(&mut m, &a, &b, 128).unwrap();
        let charged = m.clock().cycles() - c0;
        assert_eq!(
            charged,
            m.costs().mpk_switched_gate() + m.costs().copy_cost(128)
        );
        assert!(charged > m.costs().mpk_shared_gate());
        assert_eq!(m.rdpkru(VcpuId(0)), b.pkru);
        // The return value is copied back on the way out.
        let c0 = m.clock().cycles();
        gate.exit(&mut m, &b, &a, 24).unwrap();
        assert_eq!(
            m.clock().cycles() - c0,
            m.costs().mpk_switched_gate() + m.costs().copy_cost(24)
        );
        assert_eq!(m.rdpkru(VcpuId(0)), a.pkru);
    }

    /// MPK gates have no doorbell to defer behind: an async ring flush
    /// completes every descriptor *inline* — each CQE is posted the
    /// moment its crossing returns, and the PKRU is already back in the
    /// submitter's domain when the flush hands control to the between
    /// hook. This is the uniform-API half of the ring contract (VM RPC
    /// rings a doorbell per leg instead; the caller code is identical).
    #[test]
    fn async_ring_flush_completes_inline_over_mpk() {
        use flexos::gate::{GateRuntime, Sqe};
        use std::rc::Rc;

        let mut m = Machine::with_defaults();
        let a = ctx(0, 1, &mut m);
        let b = ctx(1, 2, &mut m);
        let caller_pkru = a.pkru;
        let mut rt = GateRuntime::new(
            vec![a, b],
            Rc::new(MpkGate::new(m.gate_token(), BackendChoice::MpkShared)),
            CompartmentId(0),
        );
        for i in 0..3u64 {
            rt.submit(CompartmentId(1), Sqe::new(16, 8, i)).unwrap();
        }
        let posted = rt
            .flush_async_until(
                &mut m,
                CompartmentId(1),
                |m, _rt, sqe| {
                    m.charge(2);
                    Ok(sqe.user_data as i64 + 100)
                },
                |m, _rt, _sqe, res| {
                    // Inline delivery: by the time the between hook
                    // runs, this descriptor's crossing has fully
                    // retired — result in hand, PKRU already switched
                    // back to the submitter's domain.
                    assert!(res >= 100);
                    assert_eq!(m.rdpkru(VcpuId(0)), caller_pkru);
                    Ok(true)
                },
            )
            .unwrap();
        assert_eq!(posted, 3);
        for i in 0..3u64 {
            let cqe = rt.reap(CompartmentId(1)).unwrap();
            assert_eq!((cqe.user_data, cqe.res), (i, i as i64 + 100));
        }
    }

    #[test]
    fn entered_compartment_cannot_touch_foreign_heap() {
        let mut m = Machine::with_defaults();
        let a = ctx(0, 1, &mut m);
        let b = ctx(1, 2, &mut m);
        let gate = MpkGate::new(m.gate_token(), BackendChoice::MpkShared);
        gate.enter(&mut m, &a, &b, 0).unwrap();
        // Inside compartment b, heap of a (key 1) is unreachable.
        assert!(m.write(VcpuId(0), a.heap_base, b"attack").is_err());
        // Its own heap works.
        m.write(VcpuId(0), b.heap_base, b"fine").unwrap();
    }

    #[test]
    fn forged_gate_without_valid_token_is_rejected() {
        let mut m = Machine::with_defaults();
        let a = ctx(0, 1, &mut m);
        let b = ctx(1, 2, &mut m);
        // A gate built with another machine's token is useless here:
        // tokens are per-image (per vetted binary).
        let stolen = Machine::with_defaults().gate_token();
        let forged = MpkGate::new(stolen, BackendChoice::MpkShared);
        let err = forged.enter(&mut m, &a, &b, 0).unwrap_err();
        assert!(matches!(
            err,
            flexos_machine::Fault::UnauthorizedPkruWrite { .. }
        ));
        // Direct wrpkru without any token fails too (PKU-pitfalls defense).
        let err = m.wrpkru(VcpuId(0), b.pkru, None).unwrap_err();
        assert!(matches!(
            err,
            flexos_machine::Fault::UnauthorizedPkruWrite { .. }
        ));
    }
}
