//! Criterion micro-benchmarks of the cryptographic substrate: AES,
//! XTS, counter-mode pads, SHA-3, the MACs, and the OTP combiners.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use clme_crypto::aes::Aes;
use clme_crypto::combine::{combine_linear, combine_nonlinear};
use clme_crypto::keys::KeyMaterial;
use clme_crypto::mac::counterless_mac;
use clme_crypto::sha3::{sha3_256, sha3_tag64, sha3_tag64_batch, sha3_tag64_batch_portable};

fn bench_crypto(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto");
    group.sample_size(20);

    let aes128 = Aes::new_128([7; 16]);
    group.bench_function("aes128_block", |b| {
        b.iter(|| aes128.encrypt_block(black_box([1; 16])))
    });
    let aes256 = Aes::new_256([7; 32]);
    group.bench_function("aes256_block", |b| {
        b.iter(|| aes256.encrypt_block(black_box([1; 16])))
    });

    let keys = KeyMaterial::from_master([9; 32]);
    let data = [0x5A; 64];
    group.bench_function("xts_encrypt_block64", |b| {
        b.iter(|| keys.xts().encrypt_block64(black_box(0x40), &data))
    });
    group.bench_function("otp_pad_block64", |b| {
        b.iter(|| keys.otp().pad_block64(black_box(0x40), black_box(7)))
    });
    group.bench_function("sha3_256_64B", |b| b.iter(|| sha3_256(black_box(&data))));
    // A tree-node MAC's input is 141 bytes: two permutations per tag.
    let node_input = [0xA7u8; 141];
    group.bench_function("sha3_tag64_141B", |b| {
        b.iter(|| sha3_tag64(black_box(&node_input), &[]))
    });
    for n in [1usize, 8, 64] {
        let inputs = vec![&node_input[..]; n];
        let mut tags = vec![0u64; n];
        group.bench_function(format!("sha3_tag64_batch{n}_141B"), |b| {
            b.iter(|| sha3_tag64_batch(black_box(&inputs), &mut tags))
        });
        group.bench_function(format!("sha3_tag64_batch{n}_141B_portable"), |b| {
            b.iter(|| sha3_tag64_batch_portable(black_box(&inputs), &mut tags))
        });
    }
    group.bench_function("counterless_mac", |b| {
        b.iter(|| counterless_mac(keys.counterless_mac_key(), black_box(0x40), &data, u32::MAX))
    });
    group.bench_function("counter_mode_mac", |b| {
        b.iter(|| keys.counter_mode_mac().tag(black_box(0xDEAD), &data, 7))
    });
    group.bench_function("combine_linear", |b| {
        b.iter(|| combine_linear(black_box([1; 16]), black_box([2; 16])))
    });
    group.bench_function("combine_nonlinear", |b| {
        b.iter(|| combine_nonlinear(black_box([1; 16]), black_box([2; 16])))
    });
    group.finish();
}

criterion_group!(benches, bench_crypto);
criterion_main!(benches);
