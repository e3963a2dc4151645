//! Criterion micro-benchmarks of the architectural components: caches,
//! memoization table, DRAM reservations, and a short end-to-end
//! simulation step rate.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use clme_cache::hierarchy::{CacheAccessResult, MemorySystemCaches};
use clme_cache::set_assoc::SetAssocCache;
use clme_counters::memo::MemoTable;
use clme_dram::timing::{AccessKind, Dram};
use clme_obs::NopSink;
use clme_types::rng::Xoshiro256;
use clme_types::{BlockAddr, SystemConfig, Time, TimeDelta};

fn bench_components(c: &mut Criterion) {
    let mut group = c.benchmark_group("components");
    group.sample_size(20);

    let mut cache = SetAssocCache::with_capacity(64 << 10, 32);
    let mut rng = Xoshiro256::seed_from(1);
    group.bench_function("set_assoc_access", |b| {
        b.iter(|| {
            let block = rng.below(1 << 16);
            if let Err(victim) = cache.access(black_box(block), false) {
                cache.fill_victim(block, false, victim);
            }
        })
    });

    let mut memo = MemoTable::new(128);
    for i in 0..128 {
        memo.insert(i, [0; 16]);
    }
    group.bench_function("memo_lookup", |b| {
        b.iter(|| memo.lookup(black_box(rng.below(256))))
    });
    group.bench_function("memo_advance", |b| {
        b.iter(|| memo.advance(black_box(rng.below(64)), u64::MAX))
    });

    let cfg = SystemConfig::isca_table1();
    let nop = &mut NopSink;
    let mut dram = Dram::new(&cfg);
    let mut t = Time::ZERO;
    group.bench_function("dram_demand_access", |b| {
        b.iter(|| {
            t += TimeDelta::from_ns(10);
            dram.access(BlockAddr::new(rng.below(1 << 22)), AccessKind::Read, t, nop)
        })
    });
    let mut dram_bg = Dram::new(&cfg);
    let mut t2 = Time::ZERO;
    group.bench_function("dram_background_access", |b| {
        b.iter(|| {
            t2 += TimeDelta::from_ns(10);
            let block = BlockAddr::new(rng.below(1 << 22));
            dram_bg.background_access(block, AccessKind::Write, t2, nop)
        })
    });

    // One result reused across accesses, as the simulator's machine does.
    let mut hierarchy = MemorySystemCaches::new(&cfg);
    let mut result = CacheAccessResult::default();
    group.bench_function("hierarchy_access", |b| {
        b.iter(|| {
            let block = black_box(rng.below(1 << 20));
            hierarchy.access_into(0, block, false, Time::ZERO, nop, &mut result);
        })
    });
    group.finish();
}

criterion_group!(benches, bench_components);
criterion_main!(benches);
