//! Criterion micro-benchmarks of the Synergy-with-EncryptionMetadata ECC
//! path: encode, MetaWord decode, clean verification, trial-and-error
//! correction, and the entropy filter.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use clme_core::functional::MemoryImage;
use clme_ecc::codec::{decode_meta, encode};
use clme_ecc::encmeta::MetaWord;
use clme_ecc::entropy::block_entropy;
use clme_ecc::layout::Chip;
use clme_types::BlockAddr;

fn bench_ecc(c: &mut Criterion) {
    let mut group = c.benchmark_group("ecc");
    group.sample_size(20);

    let data = [0xA5u8; 64];
    group.bench_function("encode_block", |b| {
        b.iter(|| encode(black_box(&data), black_box(0x1234), MetaWord::counter(7)))
    });
    let block = encode(&data, 0x1234, MetaWord::counter(7));
    group.bench_function("decode_meta", |b| b.iter(|| decode_meta(black_box(&block))));
    group.bench_function("block_entropy", |b| {
        b.iter(|| block_entropy(black_box(&data)))
    });

    // Full functional read paths.
    let mut mem = MemoryImage::new(1 << 20, [3; 32]);
    let addr = BlockAddr::new(9);
    mem.write_block(addr, &data);
    group.bench_function("read_clean_verify", |b| {
        b.iter(|| mem.read_block(black_box(addr)).unwrap())
    });
    group.bench_function("read_with_chip_correction", |b| {
        b.iter(|| {
            mem.corrupt_chip(addr, Chip::Data(3), 0xFFFF);
            mem.read_block(black_box(addr)).unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_ecc);
criterion_main!(benches);
