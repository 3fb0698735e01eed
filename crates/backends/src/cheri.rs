//! The CHERI capability backend (heterogeneous-hardware extension).
//!
//! The paper motivates FlexOS precisely with this scenario: "computer
//! hardware is becoming heterogeneous and certain primitives are
//! hardware-dependent (e.g. Memory Protection Keys)" — with CHERI
//! \[55\] the second example. A FlexOS image should be able to retarget
//! from MPK gates to capability gates *without touching the OS code*;
//! this backend makes `BackendChoice::Cheri` exactly such a drop-in.
//!
//! Model: each compartment's *capability reach* is the set of memory it
//! holds capabilities for (its own domain + the shared region); a gate
//! crossing is a sealed-capability invoke (`CSeal`/`CInvoke`) that
//! atomically swaps the executing reach. The simulation reuses the
//! machine's per-page tags to represent reachability — a compartment's
//! permitted tag set equals the span of its capabilities — so stray
//! pointers into foreign compartments fault exactly as unforgeable
//! capabilities dictate. Per-access capability checks (tag+bounds) are
//! nearly free in hardware (`cap_check`); the crossing costs
//! `cheri_gate` per direction — cheaper than MPK (no PKRU
//! serialization), far cheaper than a VM exit.
//!
//! Who mints, who invokes: the sealed entry capabilities are **minted
//! at wiring** — once, by the loader, where the gate is built from the
//! compartments' contexts (boot and live migration) — and a crossing
//! only *invokes* the one it was given: it never touches root authority
//! (DESIGN.md §6.14).

use flexos::build::BackendChoice;
use flexos::gate::{CompartmentCtx, CompartmentId, Gate};
use flexos_machine::cap::{CapPerms, Capability, OType};
use flexos_machine::{Fault, GateToken, Machine, Result};

/// The sealed-capability gate.
#[derive(Debug, Clone)]
pub struct CheriGate {
    token: GateToken,
    /// One sealed entry capability per compartment, indexed by id.
    entries: Vec<Capability>,
}

fn otype_of(id: CompartmentId) -> OType {
    OType(u32::from(id.0))
}

#[cold]
fn no_entry(id: CompartmentId) -> Fault {
    Fault::HardeningAbort {
        mechanism: "cheri",
        reason: format!("no entry capability for {id}"),
    }
}

impl CheriGate {
    /// Wires the gate for `compartments` (in id order, as the runtime
    /// holds them), minting each one's sealed entry capability; `token`
    /// authorizes the reach switch. An entry that ends up under another
    /// compartment's index fails its `CInvoke` check at crossing time.
    pub fn new(token: GateToken, compartments: &[CompartmentCtx]) -> Result<Self> {
        let entries = compartments
            .iter()
            .map(Self::entry_capability)
            .collect::<Result<_>>()?;
        Ok(Self { token, entries })
    }

    /// Builds the sealed entry capability for a compartment (what a
    /// caller holds: opaque until invoked). The loader's routine: the
    /// only place root authority is exercised.
    pub fn entry_capability(ctx: &CompartmentCtx) -> Result<Capability> {
        Capability::root(ctx.heap_base, ctx.heap_size)
            .derive(0, ctx.heap_size, CapPerms::RW)?
            .seal(otype_of(ctx.id))
    }

    #[inline]
    fn switch_to(&self, m: &mut Machine, to: &CompartmentCtx) -> Result<()> {
        // The CInvoke: unseal the target's entry capability (checked),
        // then install its reach. Charged as one domain transition; the
        // underlying register write is covered by the same budget.
        let sealed = self
            .entries
            .get(usize::from(to.id.0))
            .ok_or_else(|| no_entry(to.id))?;
        let _unsealed = sealed.unseal(otype_of(to.id))?;
        let gate_cost = m.costs().cheri_gate.saturating_sub(m.costs().wrpkru);
        m.charge(gate_cost);
        // Reach switch, modelled on the page tags (see module docs).
        m.wrpkru(to.vcpu, to.pkru, Some(self.token))
    }
}

impl Gate for CheriGate {
    fn mechanism(&self) -> BackendChoice {
        BackendChoice::Cheri
    }

    fn enter(
        &self,
        m: &mut Machine,
        _from: &CompartmentCtx,
        to: &CompartmentCtx,
        _arg_bytes: u64,
    ) -> Result<()> {
        // Arguments are passed *by capability* (no copy): the caller
        // derives a bounded capability over the argument buffer and the
        // callee uses it directly — one of CHERI's selling points.
        self.switch_to(m, to)
    }

    fn exit(
        &self,
        m: &mut Machine,
        _callee: &CompartmentCtx,
        caller: &CompartmentCtx,
        _ret_bytes: u64,
    ) -> Result<()> {
        self.switch_to(m, caller)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexos::spec::ShSet;
    use flexos_machine::{PageFlags, Pkru, ProtKey, VcpuId, VmId};

    fn ctx(id: u16, key: u8, m: &mut Machine) -> CompartmentCtx {
        let heap = m
            .alloc_region(VmId(0), 8192, ProtKey(key), PageFlags::RW)
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
            heap_size: 8192,
        }
    }

    fn assert_cheri_fault(r: Result<()>, needle: &str) {
        match r {
            Err(Fault::HardeningAbort { mechanism, reason }) => {
                assert_eq!(mechanism, "cheri");
                assert!(reason.contains(needle), "{reason}");
            }
            other => panic!("expected a cheri fault, got {other:?}"),
        }
    }

    #[test]
    fn crossing_costs_the_cheri_budget() {
        // Wired for N compartments: every direction of every crossing is
        // one table lookup and exactly `cheri_gate` cycles.
        let mut m = Machine::with_defaults();
        let cpts: Vec<_> = (0..4).map(|c| ctx(c, c as u8 + 1, &mut m)).collect();
        let gate = CheriGate::new(m.gate_token(), &cpts).unwrap();
        for to in &cpts {
            let t0 = m.clock().cycles();
            gate.enter(&mut m, &cpts[0], to, 64).unwrap();
            assert_eq!(m.clock().cycles() - t0, m.costs().cheri_gate);
            let t0 = m.clock().cycles();
            gate.exit(&mut m, to, &cpts[0], 8).unwrap();
            assert_eq!(m.clock().cycles() - t0, m.costs().cheri_gate);
        }
        // Cheaper than an MPK crossing, far cheaper than VM RPC.
        assert!(m.costs().cheri_gate < m.costs().mpk_shared_gate());
        assert!(m.costs().cheri_gate * 10 < m.costs().vm_rpc_gate());
    }

    #[test]
    fn reach_is_enforced_after_the_crossing() {
        let mut m = Machine::with_defaults();
        let cpts = [ctx(0, 1, &mut m), ctx(1, 2, &mut m)];
        let gate = CheriGate::new(m.gate_token(), &cpts).unwrap();
        gate.enter(&mut m, &cpts[0], &cpts[1], 0).unwrap();
        // Inside b's reach, a's heap is unreachable.
        assert!(m.write(VcpuId(0), cpts[0].heap_base, b"stray").is_err());
        m.write(VcpuId(0), cpts[1].heap_base, b"own").unwrap();
    }

    #[test]
    fn an_id_without_an_entry_is_a_typed_fault_not_a_remint() {
        let mut m = Machine::with_defaults();
        let cpts = [ctx(0, 1, &mut m), ctx(1, 2, &mut m)];
        let stranger = ctx(2, 3, &mut m);
        let gate = CheriGate::new(m.gate_token(), &cpts).unwrap();
        let (t0, view) = (m.clock().cycles(), m.rdpkru(VcpuId(0)));
        assert_cheri_fault(
            gate.enter(&mut m, &cpts[0], &stranger, 0),
            "no entry capability for compartment2",
        );
        assert_cheri_fault(
            gate.exit(&mut m, &cpts[1], &stranger, 0),
            "no entry capability for compartment2",
        );
        // A refused invoke charges nothing and leaves the reach alone.
        assert_eq!(m.clock().cycles(), t0);
        assert_eq!(m.rdpkru(VcpuId(0)), view);
    }

    #[test]
    fn an_entry_sealed_for_another_compartment_fails_its_cinvoke() {
        // Wired out of id order, slot 0 holds compartment 1's entry and
        // vice versa: the per-crossing unseal check refuses both.
        let mut m = Machine::with_defaults();
        let cpts = [ctx(1, 2, &mut m), ctx(0, 1, &mut m)];
        let gate = CheriGate::new(m.gate_token(), &cpts).unwrap();
        let (t0, view) = (m.clock().cycles(), m.rdpkru(VcpuId(0)));
        for to in &cpts {
            assert_cheri_fault(
                gate.enter(&mut m, &cpts[0], to, 0),
                "unseal with wrong object type",
            );
        }
        assert_eq!(m.clock().cycles(), t0);
        assert_eq!(m.rdpkru(VcpuId(0)), view);
    }

    #[test]
    fn entry_capabilities_are_sealed_and_compartment_typed() {
        let mut m = Machine::with_defaults();
        let b = ctx(1, 2, &mut m);
        let sealed = CheriGate::entry_capability(&b).unwrap();
        assert!(sealed.is_sealed());
        // Cannot dereference or unseal with the wrong compartment type.
        assert!(sealed.check_access(0, 8, false).is_err());
        assert!(sealed.unseal(OType(0)).is_err());
        assert!(sealed.unseal(OType(1)).is_ok());
    }

    #[test]
    fn argument_capabilities_bound_what_the_callee_may_touch() {
        let mut m = Machine::with_defaults();
        let a = ctx(0, 1, &mut m);
        // The caller derives a 64-byte RO view of its buffer for the callee.
        let arg = Capability::root(a.heap_base, a.heap_size)
            .derive(128, 64, CapPerms::RO)
            .unwrap();
        let mut buf = [0u8; 16];
        m.read_via_cap(VcpuId(0), &arg, 0, &mut buf).unwrap();
        // Out of bounds / wrong permission through the capability: caught
        // even though the underlying pages would allow it.
        assert!(m.read_via_cap(VcpuId(0), &arg, 60, &mut buf).is_err());
        assert!(m.write_via_cap(VcpuId(0), &arg, 0, b"x").is_err());
    }
}
