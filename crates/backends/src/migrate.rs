//! Live gate-backend migration: the backend half of the quiescence
//! protocol.
//!
//! `flexos::gate` owns the drain machinery (admission stop, safe points,
//! SQE requeue); this module owns what is backend-specific about a swap:
//! building the incoming gate and the **re-establishment closure** that
//! runs at quiescence, immediately before the new gate becomes visible:
//!
//! * **pkey retags** — each endpoint's heap pages are retagged through
//!   [`Machine::set_region_key`], riding the existing generation-counter
//!   TLB invalidation, so MPK-family backends find their isolation
//!   boundary material when they arrive and leave no stale tags behind
//!   when they go;
//! * **PKRU views** — an endpoint's view is the *strictest* any of its
//!   pair backends requires: if any pair is MPK-family the view stays
//!   `deny_all_except(key0, own)`, otherwise it relaxes to allow-all.
//!   The current compartment's live PKRU register is refreshed through
//!   the gate capability token;
//! * **VM-RPC inbox hygiene** — a pair entering or leaving the VM-RPC
//!   backend drains stale doorbell notifications so a pre-swap delivery
//!   can never be misread as a post-swap crossing.
//!
//! Pairs on a [`boot::instantiate_migratable`] image can swap freely in
//! any direction; on a regular [`boot::instantiate`] image, migrating
//! *to* an MPK-family backend requires per-compartment keys (boot-time
//! state this layer will not invent), and migrating *to* VM-RPC lazily
//! reserves the inbox area (`ensure_rpc_base`).
//!
//! [`boot::instantiate`]: crate::boot::instantiate
//! [`boot::instantiate_migratable`]: crate::boot::instantiate_migratable
//! [`Machine::set_region_key`]: flexos_machine::Machine::set_region_key

use crate::boot::{wire_gate, BootImage};
use crate::vmrpc::VmRpcGate;
use flexos::build::BackendChoice;
use flexos::gate::{CompartmentId, Gate, MigrationReason, ReestablishFn};
use flexos_machine::{Addr, Fault, Pkru, ProtKey, Result};
use std::collections::BTreeMap;
use std::rc::Rc;

fn norm(a: CompartmentId, b: CompartmentId) -> (CompartmentId, CompartmentId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Returns the VM-RPC inbox base, reserving the area on first use.
/// Migratable boots pre-reserve it; a plain boot that later escalates to
/// VM-RPC pays one shared-region allocation here, once.
fn ensure_rpc_base(img: &mut BootImage) -> Result<Addr> {
    if let Some(base) = img.rpc_base {
        return Ok(base);
    }
    let n = img.gates.len() as u16;
    let base = img
        .machine
        .alloc_shared_region(VmRpcGate::area_bytes(n), ProtKey(0))?;
    img.rpc_base = Some(base);
    Ok(base)
}

fn make_gate(img: &mut BootImage, to: BackendChoice) -> Result<Rc<dyn Gate>> {
    let rpc_base = if to == BackendChoice::VmRpc {
        ensure_rpc_base(img)?
    } else {
        Addr(0)
    };
    let token = img.machine.gate_token();
    wire_gate(to, token, rpc_base, img.gates.compartments())
}

/// What one endpoint should look like after the swaps in `planned` land.
fn endpoint_target(
    img: &BootImage,
    e: CompartmentId,
    planned: &BTreeMap<(CompartmentId, CompartmentId), BackendChoice>,
) -> Result<(Pkru, ProtKey)> {
    let n = img.gates.len() as u16;
    let wants_mpk = (0..n).filter(|&o| o != e.0).any(|o| {
        let other = CompartmentId(o);
        planned
            .get(&norm(e, other))
            .copied()
            .unwrap_or_else(|| img.gates.pair_mechanism(e, other))
            .uses_pkeys()
    });
    if !wants_mpk {
        return Ok((Pkru::ALLOW_ALL, ProtKey(0)));
    }
    let own = img
        .gates
        .ctx(e)
        .keys
        .first()
        .copied()
        .ok_or_else(|| Fault::HardeningAbort {
            mechanism: "migrate",
            reason: format!(
                "{e} has no protection key; boot with instantiate_migratable to \
                 migrate into an MPK-family backend"
            ),
        })?;
    Ok((Pkru::deny_all_except(&[ProtKey(0), own], &[]), own))
}

/// Builds the incoming gate and re-establishment closure for swapping
/// the `(a, b)` pair to `to`, assuming every swap in `planned` (at
/// minimum this pair's) will land. The caller passes both to
/// [`GateRuntime::request_migration`](flexos::gate::GateRuntime::request_migration).
pub fn prepare_pair_migration(
    img: &mut BootImage,
    a: CompartmentId,
    b: CompartmentId,
    to: BackendChoice,
    planned: &BTreeMap<(CompartmentId, CompartmentId), BackendChoice>,
) -> Result<(Rc<dyn Gate>, ReestablishFn)> {
    let from = img.gates.pair_mechanism(a, b);
    let gate = make_gate(img, to)?;
    let token = img.machine.gate_token();
    // Decide each endpoint's post-swap protection view now, while the
    // planned-swaps map is in scope; the closure replays the decision at
    // quiescence, however long the drain takes.
    let targets: Vec<(CompartmentId, Pkru, ProtKey)> = [a, b]
        .into_iter()
        .map(|e| endpoint_target(img, e, planned).map(|(pkru, key)| (e, pkru, key)))
        .collect::<Result<_>>()?;
    let rpc_involved = from == BackendChoice::VmRpc || to == BackendChoice::VmRpc;
    let re: ReestablishFn = Rc::new(move |m, cpts, cur| {
        for &(e, pkru, key) in &targets {
            let ctx = &cpts[e.0 as usize];
            // Retag the endpoint's heap; set_region_key bumps the page-
            // table generation, so every vCPU's TLB drops the old tags.
            m.set_region_key(ctx.vm, ctx.heap_base, ctx.heap_size, key)?;
            cpts[e.0 as usize].pkru = pkru;
            if cur == e {
                let vcpu = cpts[e.0 as usize].vcpu;
                if m.rdpkru(vcpu) != pkru {
                    m.restore_pkru(vcpu, pkru, token)?;
                }
            }
        }
        if rpc_involved {
            // Inbox hygiene: a doorbell posted before the swap must not
            // satisfy (or corrupt) a post-swap crossing.
            for &(e, _, _) in &targets {
                let vm = cpts[e.0 as usize].vm;
                while m.take_notification(vm).is_some() {}
            }
        }
        Ok(())
    });
    Ok((gate, re))
}

/// Migrates **every** compartment pair to `to` — the whole-image
/// reconfiguration the `--migrate` sweeps and the serving tier use.
/// Returns `(applied, deferred)` counts; deferred swaps land at their
/// pairs' next safe points. The image plan's recorded backend is updated
/// to `to` so stack policy and reporting follow the destination.
pub fn migrate_all(
    img: &mut BootImage,
    to: BackendChoice,
    reason: MigrationReason,
) -> Result<(usize, usize)> {
    let n = img.gates.len() as u16;
    let mut planned = BTreeMap::new();
    for a in 0..n {
        for b in (a + 1)..n {
            planned.insert((CompartmentId(a), CompartmentId(b)), to);
        }
    }
    let pairs: Vec<_> = planned.keys().copied().collect();
    let (mut applied, mut deferred) = (0, 0);
    for (a, b) in pairs {
        let (gate, re) = prepare_pair_migration(img, a, b, to, &planned)?;
        if img
            .gates
            .request_migration(&mut img.machine, a, b, gate, reason, Some(re))?
        {
            applied += 1;
        } else {
            deferred += 1;
        }
    }
    img.plan.config.backend = to;
    Ok((applied, deferred))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boot::{instantiate, instantiate_migratable};
    use flexos::build::{plan, ImageConfig, LibRole, LibraryConfig};
    use flexos::spec::LibSpec;

    fn migratable(from: BackendChoice) -> BootImage {
        // Color with an isolating backend so the plan keeps all three
        // compartments; the boot overrides the stored backend to `from`.
        let cfg = ImageConfig::new("mig", BackendChoice::MpkShared)
            .with_library(LibraryConfig::new(
                LibSpec::verified_scheduler(),
                LibRole::Scheduler,
            ))
            .with_library(LibraryConfig::new(
                LibSpec::unsafe_c("netstack"),
                LibRole::NetStack,
            ))
            .with_library(LibraryConfig::new(LibSpec::unsafe_c("app"), LibRole::App));
        instantiate_migratable(plan(cfg).unwrap(), from).unwrap()
    }

    #[test]
    fn migratable_layout_is_identical_across_boot_backends() {
        let reference: Vec<_> = {
            let img = migratable(BackendChoice::None);
            (0..img.gates.len())
                .map(|c| {
                    let ctx = img.gates.ctx(CompartmentId(c as u16));
                    (ctx.heap_base, ctx.heap_size, ctx.vm, ctx.vcpu)
                })
                .collect()
        };
        for from in BackendChoice::ALL {
            let img = migratable(from);
            assert_eq!(img.plan.config.backend, from);
            let layout: Vec<_> = (0..img.gates.len())
                .map(|c| {
                    let ctx = img.gates.ctx(CompartmentId(c as u16));
                    (ctx.heap_base, ctx.heap_size, ctx.vm, ctx.vcpu)
                })
                .collect();
            assert_eq!(layout, reference, "layout depends on {from:?}");
            assert!(img.rpc_base.is_some(), "inbox area always reserved");
        }
    }

    #[test]
    fn every_ordered_pair_migrates_and_crosses() {
        for from in BackendChoice::ALL {
            for to in BackendChoice::ALL {
                let mut img = migratable(from);
                let n = img.gates.len();
                let (applied, deferred) =
                    migrate_all(&mut img, to, MigrationReason::Manual).unwrap();
                assert_eq!(deferred, 0, "{from:?}→{to:?}: image was quiescent");
                assert_eq!(applied, n * (n - 1) / 2, "{from:?}→{to:?}");
                // The swapped gate actually crosses.
                let v = img
                    .call_lib("netstack", 16, 8, |m, _| {
                        m.charge(5);
                        Ok(7)
                    })
                    .unwrap();
                assert_eq!(v, 7, "{from:?}→{to:?}");
                assert_eq!(img.gates.migration_stats().completed, applied as u64);
            }
        }
    }

    /// From the current compartment, crosses into every other one and
    /// from there into every third: each id is invoked as a callee and
    /// as a returning caller, and every crossing costs two CHERI gates.
    fn cross_into_every_compartment(img: &mut BootImage) {
        let n = img.gates.len() as u16;
        let cur = img.gates.current();
        let round_trip = 2 * img.machine.costs().cheri_gate;
        let BootImage { machine, gates, .. } = img;
        for b in (0..n).map(CompartmentId).filter(|&b| b != cur) {
            assert_eq!(gates.pair_mechanism(cur, b), BackendChoice::Cheri);
            let t0 = machine.clock().cycles();
            gates
                .cross(machine, b, 0, 0, |m, rt| {
                    for c in (0..n).map(CompartmentId).filter(|&c| c != b) {
                        rt.cross(m, c, 0, 0, |_, _| Ok(()))?;
                    }
                    Ok(())
                })
                .unwrap();
            assert_eq!(
                machine.clock().cycles() - t0,
                u64::from(n) * round_trip,
                "into {b}"
            );
        }
    }

    #[test]
    fn every_compartment_has_a_cheri_entry_after_boot_and_after_migration() {
        // Booted on CHERI: the table is minted by the boot.
        cross_into_every_compartment(&mut migratable(BackendChoice::Cheri));
        // Arriving by live migration: `make_gate` mints it from the
        // runtime's contexts, whatever the image was booted on.
        for from in BackendChoice::ALL {
            let mut img = migratable(from);
            migrate_all(&mut img, BackendChoice::Cheri, MigrationReason::Manual).unwrap();
            cross_into_every_compartment(&mut img);
        }
    }

    #[test]
    fn migrating_to_mpk_establishes_enforcement() {
        // The CHERI model enforces through the same tags, so it counts.
        for to in [
            BackendChoice::MpkShared,
            BackendChoice::MpkSwitched,
            BackendChoice::Cheri,
        ] {
            let mut img = migratable(BackendChoice::None);
            // Pre-swap: no isolation, foreign heaps are open.
            let sched_c = img.compartment_of_role(LibRole::Scheduler).unwrap();
            let sched_heap = img.gates.ctx(sched_c).heap_base;
            img.write(sched_heap, b"open").unwrap();
            let n = img.gates.len() as u64;
            migrate_all(&mut img, to, MigrationReason::Escalate).unwrap();
            // Post-swap: the same access faults — the retag + PKRU
            // re-establishment made the boundary material.
            let err = img.write(sched_heap, b"attack").unwrap_err();
            assert!(err.is_protection_fault(), "{to:?}: got {err:?}");
            // …and the legitimate path still works.
            img.call_lib("uksched_verified", 8, 8, |m, rt| {
                let vcpu = rt.current_ctx().vcpu;
                m.write(vcpu, sched_heap, b"legit")
            })
            .unwrap();
            assert_eq!(img.gates.migration_stats().escalations, n * (n - 1) / 2);
        }
    }

    #[test]
    fn migrating_to_direct_relaxes_enforcement() {
        let mut img = migratable(BackendChoice::MpkShared);
        let n = img.gates.len() as u64;
        let sched_c = img.compartment_of_role(LibRole::Scheduler).unwrap();
        let sched_heap = img.gates.ctx(sched_c).heap_base;
        assert!(img.write(sched_heap, b"attack").is_err());
        migrate_all(&mut img, BackendChoice::None, MigrationReason::Relax).unwrap();
        img.write(sched_heap, b"open").unwrap();
        assert_eq!(img.gates.migration_stats().relaxations, n * (n - 1) / 2);
    }

    #[test]
    fn plain_boot_escalates_to_vmrpc_with_a_lazy_inbox() {
        let cfg = ImageConfig::new("plain", BackendChoice::None)
            .with_library(LibraryConfig::new(LibSpec::unsafe_c("app"), LibRole::App));
        let mut img = instantiate(plan(cfg).unwrap()).unwrap();
        assert!(img.rpc_base.is_none());
        // Single compartment: nothing to migrate, but the helper works.
        let base = ensure_rpc_base(&mut img).unwrap();
        assert_eq!(img.rpc_base, Some(base));
        assert_eq!(ensure_rpc_base(&mut img).unwrap(), base);
    }

    #[test]
    fn plain_boot_cannot_enter_mpk_without_keys() {
        // A VM-RPC boot has keyless compartments; migrating its one pair
        // into the MPK family must refuse rather than silently not isolate.
        let cfg = ImageConfig::new("plain", BackendChoice::VmRpc)
            .with_library(LibraryConfig::new(
                LibSpec::verified_scheduler(),
                LibRole::Scheduler,
            ))
            .with_library(LibraryConfig::new(LibSpec::unsafe_c("app"), LibRole::App));
        let mut img = instantiate(plan(cfg).unwrap()).unwrap();
        assert_eq!(img.gates.len(), 2);
        let err =
            migrate_all(&mut img, BackendChoice::MpkShared, MigrationReason::Manual).unwrap_err();
        assert!(matches!(
            err,
            Fault::HardeningAbort {
                mechanism: "migrate",
                ..
            }
        ));
        // The pair keeps its old backend, and so does the plan.
        assert_eq!(
            img.gates.pair_mechanism(CompartmentId(0), CompartmentId(1)),
            BackendChoice::VmRpc
        );
        assert_eq!(img.plan.config.backend, BackendChoice::VmRpc);
    }
}
