//! Ablation: allocator designs and topologies (DESIGN.md §6.3).
//!
//! Compares the three allocator implementations under a mixed workload,
//! and the global-vs-per-compartment topology under instrumentation —
//! the mechanism behind Figure 4's allocator result. `freelist_fragmented`
//! is the free list's worst case: the booted heaps never hold more than
//! two free blocks (DESIGN.md §6.13), this group shows what a sorted
//! vector costs when a heap holds thousands.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flexos::build::BackendChoice;
use flexos_apps::redis::{run_redis, Mix, RedisParams};
use flexos_apps::CompartmentModel;
use flexos_kernel::alloc::{Allocator, BuddyAllocator, BumpAllocator, FreeListAllocator};
use flexos_machine::{Machine, PageFlags, ProtKey, VmId};

fn mixed_workload(a: &mut dyn Allocator, m: &mut Machine) {
    let mut live = Vec::new();
    for i in 0..256u64 {
        let size = 16 + (i * 37) % 480;
        if let Ok(p) = a.alloc(m, size, 16) {
            live.push(p);
        }
        if i % 3 == 2 {
            if let Some(p) = live.pop() {
                a.free(m, p).unwrap();
            }
        }
    }
    for p in live {
        a.free(m, p).unwrap();
    }
}

fn bench_allocators(c: &mut Criterion) {
    let mut g = c.benchmark_group("allocator_designs");
    g.bench_function("freelist", |b| {
        let mut m = Machine::with_defaults();
        let base = m
            .alloc_region(VmId(0), 1 << 20, ProtKey(0), PageFlags::RW)
            .unwrap();
        b.iter(|| mixed_workload(&mut FreeListAllocator::new(base, 1 << 20), &mut m))
    });
    g.bench_function("buddy", |b| {
        let mut m = Machine::with_defaults();
        let base = m
            .alloc_region(VmId(0), 1 << 20, ProtKey(0), PageFlags::RW)
            .unwrap();
        b.iter(|| mixed_workload(&mut BuddyAllocator::new(base, 1 << 20), &mut m))
    });
    g.bench_function("bump_with_reset", |b| {
        let mut m = Machine::with_defaults();
        let base = m
            .alloc_region(VmId(0), 1 << 20, ProtKey(0), PageFlags::RW)
            .unwrap();
        b.iter(|| {
            let mut a = BumpAllocator::new(base, 1 << 20);
            for i in 0..256u64 {
                let _ = a.alloc(&mut m, 16 + (i * 37) % 480, 16);
            }
            a.reset();
        })
    });
    g.finish();
}

/// A 1 MiB heap with `free_blocks` free blocks: a checkerboard of
/// 64-byte holes from the bottom up, then the untouched tail.
fn checkerboard(m: &mut Machine, free_blocks: usize) -> FreeListAllocator {
    let base = m
        .alloc_region(VmId(0), 1 << 20, ProtKey(0), PageFlags::RW)
        .unwrap();
    let mut a = FreeListAllocator::new(base, 1 << 20);
    let blocks: Vec<_> = (0..2 * (free_blocks - 1))
        .map(|_| a.alloc(m, 64, 16).unwrap())
        .collect();
    for &p in blocks.iter().step_by(2) {
        a.free(m, p).unwrap();
    }
    assert_eq!(a.free_blocks(), free_blocks);
    a
}

/// 10 000 alloc/free pairs per iteration. A 64-byte pair takes and
/// returns the lowest hole (every later slot shifts, twice); a 4 KiB
/// pair scans past every hole to the tail and edits it in place.
fn bench_fragmented(c: &mut Criterion) {
    let mut g = c.benchmark_group("freelist_fragmented");
    for free_blocks in [1usize, 64, 4096] {
        for (name, size) in [("pairs_64b", 64u64), ("pairs_4k", 4096)] {
            let mut m = Machine::with_defaults();
            let mut a = checkerboard(&mut m, free_blocks);
            g.bench_function(BenchmarkId::new(name, free_blocks), |b| {
                b.iter(|| {
                    for _ in 0..10_000 {
                        let p = a.alloc(&mut m, size, 16).unwrap();
                        a.free(&mut m, p).unwrap();
                    }
                })
            });
            assert_eq!(a.free_blocks(), free_blocks);
        }
    }
    g.finish();
}

fn bench_topology(c: &mut Criterion) {
    let mut g = c.benchmark_group("allocator_topology_under_sh");
    g.sample_size(10);
    for (name, dedicated) in [("global", false), ("per_compartment", true)] {
        let params = RedisParams {
            model: CompartmentModel::NwOnly,
            backend: BackendChoice::None,
            sh_on: vec!["lwip".into()],
            dedicated_allocators: dedicated,
            mix: Mix::Set,
            ops: 200,
            ..RedisParams::default()
        };
        g.bench_function(name, |b| {
            b.iter(|| {
                let r = run_redis(&params).expect("redis run");
                r.mreq_per_s
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_allocators, bench_fragmented, bench_topology);
criterion_main!(benches);
