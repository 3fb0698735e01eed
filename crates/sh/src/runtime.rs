//! The per-compartment software-hardening runtime.
//!
//! "FlexOS's SH support is modular: we can apply hardening mechanisms per
//! compartment (not system-wide), allowing for fine-grained protection
//! and performance trade-offs." (paper §3)
//!
//! [`ShRuntime`] holds each compartment's hardening policy and the state
//! the mechanisms need (ASAN shadow, CFI target sets, stack canaries,
//! DFI write-range tables). The OS layer routes every heap operation,
//! memory access, indirect call and frame push/pop through it; hardened
//! compartments pay the calibrated per-check cycle costs and get real
//! detection, unhardened compartments pay nothing — exactly the
//! trade-off the paper's Table 1 and Figure 4 measure.

use crate::shadow::{Shadow, Verdict, REDZONE};
use flexos::gate::CompartmentId;
use flexos::spec::{ShMechanism, ShSet};
use flexos_machine::{Access, Addr, Fault, Machine, Result, VcpuId};
use std::collections::{BTreeMap, BTreeSet};

/// Cumulative hardening statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShStats {
    /// ASAN shadow checks performed.
    pub asan_checks: u64,
    /// DFI write checks performed.
    pub dfi_checks: u64,
    /// CFI indirect-call checks performed.
    pub cfi_checks: u64,
    /// Canary frames pushed.
    pub canary_pushes: u64,
    /// UBSAN arithmetic checks performed.
    pub ubsan_checks: u64,
    /// Violations caught (aborts raised).
    pub violations: u64,
}

#[derive(Debug, Default, Clone)]
struct Regions {
    heap: Vec<(u64, u64)>,
    stacks: Vec<(u64, u64)>,
}

impl Regions {
    fn contains(&self, addr: u64, len: u64) -> bool {
        self.heap
            .iter()
            .chain(self.stacks.iter())
            .any(|&(b, l)| addr >= b && addr + len <= b + l)
    }
}

/// The hardening runtime for one image.
#[derive(Debug)]
pub struct ShRuntime {
    policies: Vec<ShSet>,
    shadows: Vec<Shadow>,
    regions: Vec<Regions>,
    shared: Vec<(u64, u64)>,
    cfi_targets: Vec<Option<BTreeSet<String>>>,
    canaries: BTreeMap<u64, u64>,
    stats: ShStats,
}

fn canary_value(frame: Addr) -> u64 {
    // Deterministic per-frame value (a real kernel uses a boot-time
    // random canary; determinism keeps the simulation reproducible).
    0x0057_ac4e_5a5a_a5a5u64 ^ frame.0.rotate_left(17)
}

impl ShRuntime {
    /// Creates a runtime for `compartments` compartments, all unhardened.
    pub fn new(compartments: usize) -> Self {
        Self {
            policies: vec![ShSet::none(); compartments],
            shadows: (0..compartments).map(|_| Shadow::new()).collect(),
            regions: vec![Regions::default(); compartments],
            shared: Vec::new(),
            cfi_targets: vec![None; compartments],
            canaries: BTreeMap::new(),
            stats: ShStats::default(),
        }
    }

    /// Sets the hardening policy of compartment `c`.
    pub fn set_policy(&mut self, c: CompartmentId, sh: ShSet) {
        self.policies[c.0 as usize] = sh;
    }

    /// The policy of compartment `c`.
    pub fn policy(&self, c: CompartmentId) -> &ShSet {
        &self.policies[c.0 as usize]
    }

    /// Whether compartment `c`'s allocator is instrumented.
    pub fn instruments_malloc(&self, c: CompartmentId) -> bool {
        self.policy(c).instruments_malloc()
    }

    /// Registers a heap range owned by `c` (shadow coverage + DFI table).
    pub fn register_heap(&mut self, c: CompartmentId, base: Addr, len: u64) {
        self.shadows[c.0 as usize].cover(base, len);
        self.regions[c.0 as usize].heap.push((base.0, len));
    }

    /// Registers a stack range owned by `c` (DFI table).
    pub fn register_stack(&mut self, c: CompartmentId, base: Addr, len: u64) {
        self.regions[c.0 as usize].stacks.push((base.0, len));
    }

    /// Registers the shared window (writable by every compartment under
    /// DFI, matching the `Shared` region semantics of the spec language).
    pub fn register_shared(&mut self, base: Addr, len: u64) {
        self.shared.push((base.0, len));
    }

    /// Installs the CFI target set of compartment `c` (from the
    /// control-flow analysis that rewrites `Call(*)`).
    pub fn set_cfi_targets(&mut self, c: CompartmentId, targets: BTreeSet<String>) {
        self.cfi_targets[c.0 as usize] = Some(targets);
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> ShStats {
        self.stats
    }

    // --- allocator instrumentation ------------------------------------------

    /// Records an instrumented allocation: `outer` is the raw block, the
    /// payload starts `REDZONE` inside. Charges the instrumentation cost.
    pub fn on_alloc(&mut self, m: &mut Machine, c: CompartmentId, outer: Addr, size: u64) -> Addr {
        debug_assert!(self.instruments_malloc(c));
        m.charge(m.costs().asan_alloc);
        self.shadows[c.0 as usize].on_alloc(outer, size);
        Addr(outer.0 + REDZONE)
    }

    /// Records an instrumented free. Returns the raw block to release to
    /// the allocator once it leaves the quarantine.
    pub fn on_free(
        &mut self,
        m: &mut Machine,
        c: CompartmentId,
        payload: Addr,
    ) -> Result<Option<Addr>> {
        debug_assert!(self.instruments_malloc(c));
        m.charge(m.costs().asan_alloc);
        self.shadows[c.0 as usize]
            .on_free(payload)
            .inspect_err(|_| {
                self.stats.violations += 1;
            })
    }

    // --- access checks --------------------------------------------------------

    /// Checks a memory access performed by compartment `c`. Unhardened
    /// compartments pass through for free; hardened ones pay per-check
    /// costs and get ASAN/DFI detection.
    pub fn check_access(
        &mut self,
        m: &mut Machine,
        c: CompartmentId,
        addr: Addr,
        len: u64,
        access: Access,
    ) -> Result<()> {
        let ci = c.0 as usize;
        let policy = &self.policies[ci];
        if policy.is_empty() {
            return Ok(());
        }
        if policy.has(ShMechanism::Asan) {
            // One shadow check per 16-byte granule, like compiler-emitted
            // ASAN checks on vectorized code. Large contiguous accesses
            // go through the interceptor's range check, which caps the
            // per-call cost (a memcpy is validated once, not per word).
            let granules = len.max(1).div_ceil(16).min(64);
            m.charge(m.costs().asan_check * granules);
            self.stats.asan_checks += granules;
            match self.shadows[ci].classify(addr, len) {
                Verdict::Ok | Verdict::Untracked => {}
                bad => {
                    self.stats.violations += 1;
                    return Err(Fault::HardeningAbort {
                        mechanism: "asan",
                        reason: format!("{bad:?} on {access:?} of {len} bytes at {addr}"),
                    });
                }
            }
        }
        if policy.has(ShMechanism::Dfi) && access == Access::Write {
            m.charge(m.costs().dfi_check);
            self.stats.dfi_checks += 1;
            let allowed = self.regions[ci].contains(addr.0, len.max(1))
                || self
                    .shared
                    .iter()
                    .any(|&(b, l)| addr.0 >= b && addr.0 + len.max(1) <= b + l);
            if !allowed {
                self.stats.violations += 1;
                return Err(Fault::HardeningAbort {
                    mechanism: "dfi",
                    reason: format!(
                        "write of {len} bytes at {addr} outside {c}'s legal destinations"
                    ),
                });
            }
        }
        Ok(())
    }

    /// Checks an indirect call performed by compartment `c` against its
    /// CFI target set.
    pub fn check_call(&mut self, m: &mut Machine, c: CompartmentId, target: &str) -> Result<()> {
        let ci = c.0 as usize;
        if !self.policies[ci].has(ShMechanism::Cfi) {
            return Ok(());
        }
        m.charge(m.costs().cfi_check);
        self.stats.cfi_checks += 1;
        let ok = match &self.cfi_targets[ci] {
            Some(targets) => targets.contains(target),
            None => false, // CFI on but no CFG: nothing is a legal target.
        };
        if ok {
            Ok(())
        } else {
            self.stats.violations += 1;
            Err(Fault::HardeningAbort {
                mechanism: "cfi",
                reason: format!("indirect call to `{target}` not in {c}'s call graph"),
            })
        }
    }

    // --- stack protection -------------------------------------------------------

    /// On function entry in a canary-protected compartment: writes the
    /// canary below the frame at `frame_base` (simulated memory) so stack
    /// smashing corrupts it.
    pub fn push_frame(
        &mut self,
        m: &mut Machine,
        vcpu: VcpuId,
        c: CompartmentId,
        frame_base: Addr,
    ) -> Result<()> {
        let policy = &self.policies[c.0 as usize];
        if !policy.has(ShMechanism::StackProtector) {
            if policy.has(ShMechanism::SafeStack) {
                m.charge(m.costs().safestack);
            }
            return Ok(());
        }
        m.charge(m.costs().canary);
        self.stats.canary_pushes += 1;
        let value = canary_value(frame_base);
        m.write(vcpu, frame_base, &value.to_le_bytes())?;
        self.canaries.insert(frame_base.0, value);
        Ok(())
    }

    /// On function return: verifies the canary is intact.
    pub fn pop_frame(
        &mut self,
        m: &mut Machine,
        vcpu: VcpuId,
        c: CompartmentId,
        frame_base: Addr,
    ) -> Result<()> {
        let policy = &self.policies[c.0 as usize];
        if !policy.has(ShMechanism::StackProtector) {
            return Ok(());
        }
        m.charge(m.costs().canary);
        let expected = self
            .canaries
            .remove(&frame_base.0)
            .ok_or(Fault::HardeningAbort {
                mechanism: "stack-protector",
                reason: format!("pop of unknown frame at {frame_base}"),
            })?;
        let mut buf = [0u8; 8];
        m.read(vcpu, frame_base, &mut buf)?;
        if u64::from_le_bytes(buf) != expected {
            self.stats.violations += 1;
            return Err(Fault::HardeningAbort {
                mechanism: "stack-protector",
                reason: format!("*** stack smashing detected *** at {frame_base}"),
            });
        }
        Ok(())
    }

    // --- UBSAN -----------------------------------------------------------------

    /// Checked addition under UBSAN: overflow aborts in hardened
    /// compartments and wraps (with no cost) otherwise — matching C
    /// semantics with/without `-fsanitize=undefined`.
    pub fn checked_add(
        &mut self,
        m: &mut Machine,
        c: CompartmentId,
        a: u64,
        b: u64,
    ) -> Result<u64> {
        if !self.policies[c.0 as usize].has(ShMechanism::Ubsan) {
            return Ok(a.wrapping_add(b));
        }
        m.charge(m.costs().ubsan_check);
        self.stats.ubsan_checks += 1;
        a.checked_add(b).ok_or_else(|| {
            self.stats.violations += 1;
            Fault::HardeningAbort {
                mechanism: "ubsan",
                reason: format!("unsigned overflow: {a} + {b}"),
            }
        })
    }

    /// Checked multiplication under UBSAN.
    pub fn checked_mul(
        &mut self,
        m: &mut Machine,
        c: CompartmentId,
        a: u64,
        b: u64,
    ) -> Result<u64> {
        if !self.policies[c.0 as usize].has(ShMechanism::Ubsan) {
            return Ok(a.wrapping_mul(b));
        }
        m.charge(m.costs().ubsan_check);
        self.stats.ubsan_checks += 1;
        a.checked_mul(b).ok_or_else(|| {
            self.stats.violations += 1;
            Fault::HardeningAbort {
                mechanism: "ubsan",
                reason: format!("unsigned overflow: {a} * {b}"),
            }
        })
    }

    /// Checked left shift under UBSAN (shift amount must be < 64).
    pub fn checked_shl(
        &mut self,
        m: &mut Machine,
        c: CompartmentId,
        a: u64,
        by: u32,
    ) -> Result<u64> {
        if !self.policies[c.0 as usize].has(ShMechanism::Ubsan) {
            return Ok(a.wrapping_shl(by));
        }
        m.charge(m.costs().ubsan_check);
        self.stats.ubsan_checks += 1;
        if by >= 64 {
            self.stats.violations += 1;
            return Err(Fault::HardeningAbort {
                mechanism: "ubsan",
                reason: format!("shift amount {by} out of range"),
            });
        }
        Ok(a << by)
    }

    /// Bounds-checked index under UBSAN.
    pub fn checked_index(
        &mut self,
        m: &mut Machine,
        c: CompartmentId,
        index: u64,
        len: u64,
    ) -> Result<u64> {
        if !self.policies[c.0 as usize].has(ShMechanism::Ubsan) {
            return Ok(index);
        }
        m.charge(m.costs().ubsan_check);
        self.stats.ubsan_checks += 1;
        if index >= len {
            self.stats.violations += 1;
            return Err(Fault::HardeningAbort {
                mechanism: "ubsan",
                reason: format!("index {index} out of bounds (len {len})"),
            });
        }
        Ok(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexos_machine::{PageFlags, ProtKey, VmId};

    const C0: CompartmentId = CompartmentId(0);
    const C1: CompartmentId = CompartmentId(1);

    fn setup(policy: ShSet) -> (Machine, ShRuntime, Addr) {
        let mut m = Machine::with_defaults();
        let heap = m
            .alloc_region(VmId(0), 64 * 1024, ProtKey(0), PageFlags::RW)
            .unwrap();
        let mut sh = ShRuntime::new(2);
        sh.set_policy(C0, policy);
        sh.register_heap(C0, heap, 64 * 1024);
        (m, sh, heap)
    }

    #[test]
    fn unhardened_compartments_pay_nothing() {
        let (mut m, mut sh, heap) = setup(ShSet::none());
        let c0 = m.clock().cycles();
        sh.check_access(&mut m, C0, heap, 64, Access::Write)
            .unwrap();
        sh.check_call(&mut m, C0, "anything").unwrap();
        assert_eq!(m.clock().cycles(), c0);
        assert_eq!(sh.stats(), ShStats::default());
    }

    #[test]
    fn asan_catches_heap_overflow() {
        let (mut m, mut sh, heap) = setup(ShSet::of([ShMechanism::Asan]));
        // Simulate an instrumented allocation of 100 bytes at heap+0.
        let payload = sh.on_alloc(&mut m, C0, heap, 100);
        sh.check_access(&mut m, C0, payload, 100, Access::Write)
            .unwrap();
        let err = sh
            .check_access(&mut m, C0, payload, 101, Access::Write)
            .unwrap_err();
        assert!(err.to_string().contains("asan"));
        assert_eq!(sh.stats().violations, 1);
    }

    #[test]
    fn asan_catches_use_after_free() {
        let (mut m, mut sh, heap) = setup(ShSet::of([ShMechanism::Asan]));
        let payload = sh.on_alloc(&mut m, C0, heap, 64);
        sh.on_free(&mut m, C0, payload).unwrap();
        assert!(sh
            .check_access(&mut m, C0, payload, 8, Access::Read)
            .is_err());
    }

    #[test]
    fn asan_checks_charge_per_granule_with_interceptor_cap() {
        let (mut m, mut sh, heap) = setup(ShSet::of([ShMechanism::Asan]));
        let payload = sh.on_alloc(&mut m, C0, heap, 4096);
        let c0 = m.clock().cycles();
        sh.check_access(&mut m, C0, payload, 256, Access::Read)
            .unwrap();
        assert_eq!(m.clock().cycles() - c0, m.costs().asan_check * 16);
        // Big ranges hit the interceptor cap (64 granules).
        let c1 = m.clock().cycles();
        sh.check_access(&mut m, C0, payload, 4096, Access::Read)
            .unwrap();
        assert_eq!(m.clock().cycles() - c1, m.costs().asan_check * 64);
    }

    #[test]
    fn dfi_blocks_writes_outside_legal_destinations() {
        let (mut m, mut sh, heap) = setup(ShSet::of([ShMechanism::Dfi]));
        sh.check_access(&mut m, C0, heap, 8, Access::Write).unwrap();
        // Reads are not DFI's concern.
        sh.check_access(&mut m, C0, Addr(0xdead_0000), 8, Access::Read)
            .unwrap();
        // A write to foreign memory (say, the scheduler's run queue) aborts.
        let err = sh
            .check_access(&mut m, C0, Addr(0xdead_0000), 8, Access::Write)
            .unwrap_err();
        assert!(err.to_string().contains("dfi"));
    }

    #[test]
    fn dfi_allows_shared_window_writes() {
        let (mut m, mut sh, _) = setup(ShSet::of([ShMechanism::Dfi]));
        sh.register_shared(Addr(0x5000_0000), 4096);
        sh.check_access(&mut m, C0, Addr(0x5000_0010), 64, Access::Write)
            .unwrap();
    }

    #[test]
    fn cfi_restricts_indirect_calls() {
        let (mut m, mut sh, _) = setup(ShSet::of([ShMechanism::Cfi]));
        sh.set_cfi_targets(C0, ["yield".to_string(), "malloc".to_string()].into());
        sh.check_call(&mut m, C0, "yield").unwrap();
        let err = sh.check_call(&mut m, C0, "system").unwrap_err();
        assert!(err.to_string().contains("cfi"));
        // Other compartments unaffected.
        sh.check_call(&mut m, C1, "system").unwrap();
    }

    #[test]
    fn canary_detects_stack_smash() {
        let (mut m, mut sh, heap) = setup(ShSet::of([ShMechanism::StackProtector]));
        sh.register_stack(C0, heap, 4096);
        let frame = Addr(heap.0 + 512);
        sh.push_frame(&mut m, VcpuId(0), C0, frame).unwrap();
        // Clean return: OK.
        sh.pop_frame(&mut m, VcpuId(0), C0, frame).unwrap();
        // Smash the canary via a (simulated) buffer overflow and detect it.
        sh.push_frame(&mut m, VcpuId(0), C0, frame).unwrap();
        m.write(VcpuId(0), frame, b"AAAAAAAA").unwrap();
        let err = sh.pop_frame(&mut m, VcpuId(0), C0, frame).unwrap_err();
        assert!(err.to_string().contains("stack smashing"));
    }

    #[test]
    fn ubsan_catches_overflow_and_oob_index() {
        let (mut m, mut sh, _) = setup(ShSet::of([ShMechanism::Ubsan]));
        assert_eq!(sh.checked_add(&mut m, C0, 1, 2).unwrap(), 3);
        assert!(sh.checked_add(&mut m, C0, u64::MAX, 1).is_err());
        assert!(sh.checked_mul(&mut m, C0, u64::MAX, 2).is_err());
        assert!(sh.checked_shl(&mut m, C0, 1, 64).is_err());
        assert!(sh.checked_index(&mut m, C0, 10, 10).is_err());
        assert_eq!(sh.checked_index(&mut m, C0, 9, 10).unwrap(), 9);
        // Unhardened compartment wraps silently, C-style.
        assert_eq!(sh.checked_add(&mut m, C1, u64::MAX, 1).unwrap(), 0);
    }

    #[test]
    fn safestack_charges_per_frame_without_canary_state() {
        let (mut m, mut sh, heap) = setup(ShSet::of([ShMechanism::SafeStack]));
        let c0 = m.clock().cycles();
        sh.push_frame(&mut m, VcpuId(0), C0, heap).unwrap();
        assert_eq!(m.clock().cycles() - c0, m.costs().safestack);
        sh.pop_frame(&mut m, VcpuId(0), C0, heap).unwrap();
    }
}
