//! Zero on reuse (DESIGN.md §6.25).
//!
//! A dropped machine hands its physical memory to the thread's next
//! machine of the same size, and zeroes only the frames it marked where
//! it walked its page table. These tests store through every path a
//! machine has — `write`, `write_u64`, `fill`, `copy`, ranges that
//! straddle pages, the shared window from two VMs, accesses that fault
//! after their walk (read-only pages, a denied protection key) or before
//! it (holes) — with the TLB on and off, then drop the machine, boot the
//! same configuration again and read every frame back: all must be zero.
//! In a debug build every store also asserts that its frame is marked.

use flexos_machine::{
    Addr, Machine, MachineConfig, PageFlags, Pkru, ProtKey, SplitMix64, VcpuId, VmId, PAGE_SIZE,
};

/// A machine small enough to read back whole after every program.
const FRAMES: u64 = 64;

/// The key of the region whose stores PKRU denies.
const DENIED: ProtKey = ProtKey(3);

fn config(tlb_enabled: bool) -> MachineConfig {
    MachineConfig {
        phys_frames: FRAMES,
        tlb_enabled,
        ..Default::default()
    }
}

/// A mapped range and the vCPU a program stores to it as.
#[derive(Clone, Copy)]
struct Target {
    vcpu: VcpuId,
    base: Addr,
    bytes: u64,
}

/// Boots the machine every program runs on: in VM 0 a writable region,
/// a read-only one and one under [`DENIED`]; a shared window; VM 1 with
/// its own vCPU and region, and the window at the same address.
fn boot(tlb_enabled: bool) -> (Machine, Vec<Target>) {
    let mut m = Machine::new(config(tlb_enabled));
    let (v0, vm0) = (VcpuId(0), VmId(0));
    let pages = |n: u64| n * PAGE_SIZE;
    let rw = m
        .alloc_region(vm0, pages(5), ProtKey(0), PageFlags::RW)
        .unwrap();
    let ro = m
        .alloc_region(vm0, pages(2), ProtKey(0), PageFlags::RO)
        .unwrap();
    let denied = m
        .alloc_region(vm0, pages(2), DENIED, PageFlags::RW)
        .unwrap();
    let shared = m.alloc_shared_region(pages(3), ProtKey(0)).unwrap();
    let vm1 = m.add_vm(false);
    let v1 = m.add_vcpu(vm1);
    let own = m
        .alloc_region(vm1, pages(4), ProtKey(0), PageFlags::RW)
        .unwrap();
    let token = m.gate_token();
    m.wrpkru(v0, Pkru::ALLOW_ALL.deny(DENIED), Some(token))
        .unwrap();
    let at = |vcpu, base, n| Target {
        vcpu,
        base,
        bytes: pages(n),
    };
    let targets = vec![
        at(v0, rw, 5),
        at(v0, ro, 2),
        at(v0, denied, 2),
        at(v0, shared, 3),
        at(v1, shared, 3),
        at(v1, own, 4),
    ];
    (m, targets)
}

/// Runs `ops` random stores on `m`; returns how many succeeded.
fn program(m: &mut Machine, targets: &[Target], rng: &mut SplitMix64, ops: usize) -> usize {
    let mut stored = 0;
    let mut buf = vec![0u8; 3 * PAGE_SIZE as usize];
    for _ in 0..ops {
        let t = targets[rng.below(targets.len() as u64) as usize];
        // Up to a page past the end, so some ranges run into a hole.
        let mut addr = || Addr(t.base.0 + rng.below(t.bytes + PAGE_SIZE));
        let (dst, src) = (addr(), addr());
        let len = rng.below(2 * PAGE_SIZE + 64);
        let byte = 1 + rng.below(255) as u8;
        let done = match rng.below(4) {
            0 => {
                buf[..len as usize].fill(byte);
                m.write(t.vcpu, dst, &buf[..len as usize])
            }
            1 => m.write_u64(t.vcpu, dst, u64::MAX - rng.below(1 << 32)),
            2 => m.fill(t.vcpu, dst, len, byte),
            _ => m.copy(t.vcpu, dst, src, len),
        };
        stored += usize::from(done.is_ok());
    }
    stored
}

/// Boots the configuration again and reads every frame back through
/// one region that maps them all.
fn assert_reboot_reads_zero(tlb_enabled: bool, case: &str) {
    let mut m = Machine::new(config(tlb_enabled));
    let all = m
        .alloc_region(VmId(0), FRAMES * PAGE_SIZE, ProtKey(0), PageFlags::RW)
        .unwrap();
    let mut frame = vec![0u8; PAGE_SIZE as usize];
    for f in 0..FRAMES {
        m.read(VcpuId(0), Addr(all.0 + f * PAGE_SIZE), &mut frame)
            .unwrap();
        let dirty = frame.iter().position(|&b| b != 0);
        assert_eq!(dirty, None, "{case}: a reused frame kept a byte");
    }
}

#[test]
fn every_frame_reads_zero_after_a_reboot() {
    for tlb_enabled in [true, false] {
        let mut stored = 0;
        for seed in 0..48 {
            let case = format!("tlb {tlb_enabled}, seed {seed}");
            let (mut m, targets) = boot(tlb_enabled);
            let mut rng = SplitMix64::new(seed);
            stored += program(&mut m, &targets, &mut rng, 200);
            drop(m);
            assert_reboot_reads_zero(tlb_enabled, &case);
        }
        // The programs stored something to read back: about half of
        // their operations succeed.
        assert!(stored > 48 * 50, "tlb {tlb_enabled}: only {stored} stores");
    }
}
