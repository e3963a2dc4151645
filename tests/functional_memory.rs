//! Integration + property tests of the bit-exact encrypted memory: mode
//! interleavings, fault injection through the full correction flow, and
//! the security-equivalence behaviours the paper claims.

use clme::core::epoch::WritebackMode;
use clme::core::functional::{MemoryImage, ReadError};
use clme::ecc::inject::FaultInjector;
use clme::ecc::layout::Chip;
use clme::types::rng::Xoshiro256;
use clme::types::BlockAddr;
use std::collections::HashMap;

/// Structured, low-entropy plaintext (so the entropy filter never
/// mistakes it for ciphertext).
fn plaintext(tag: u8) -> [u8; 64] {
    core::array::from_fn(|i| if i % 4 == 0 { tag } else { (i % 4) as u8 })
}

#[test]
fn random_write_read_interleaving_round_trips() {
    let mut mem = MemoryImage::new(4 << 20, [0x11; 32]);
    let mut rng = Xoshiro256::seed_from(500);
    let mut shadow: HashMap<u64, [u8; 64]> = HashMap::new();
    for step in 0..2_000u64 {
        let block = BlockAddr::new(rng.below(1 << 14));
        if rng.chance(0.1) {
            mem.set_writeback_mode(if rng.chance(0.5) {
                WritebackMode::Counter
            } else {
                WritebackMode::Counterless
            });
        }
        if rng.chance(0.6) || !shadow.contains_key(&block.raw()) {
            let pt = plaintext((step % 251) as u8);
            mem.write_block(block, &pt);
            shadow.insert(block.raw(), pt);
        } else {
            let expected = shadow[&block.raw()];
            assert_eq!(mem.read_block(block).unwrap(), expected, "step {step}");
        }
    }
}

#[test]
fn fault_injection_storm_every_single_chip_error_corrects() {
    let mut mem = MemoryImage::new(4 << 20, [0x22; 32]);
    let mut injector = FaultInjector::new(77);
    let mut rng = Xoshiro256::seed_from(42);
    for round in 0..300u64 {
        let block = BlockAddr::new(rng.below(1 << 12));
        if rng.chance(0.5) {
            mem.set_writeback_mode(WritebackMode::Counterless);
        } else {
            mem.set_writeback_mode(WritebackMode::Counter);
        }
        let pt = plaintext((round % 250) as u8);
        mem.write_block(block, &pt);
        let mut bad = mem.raw_block(block).unwrap();
        let chip = injector.corrupt_random_chip(&mut bad);
        mem.overwrite_raw(block, bad);
        assert_eq!(
            mem.read_block(block).unwrap(),
            pt,
            "round {round}, chip {chip}"
        );
    }
    assert_eq!(mem.stats().dues, 0);
    assert_eq!(mem.stats().corrections, 300);
}

#[test]
fn multi_chip_errors_never_silently_corrupt() {
    let mut mem = MemoryImage::new(1 << 20, [0x33; 32]);
    let mut injector = FaultInjector::new(13);
    for round in 0..100u64 {
        let block = BlockAddr::new(round);
        let pt = plaintext(round as u8);
        mem.write_block(block, &pt);
        let mut bad = mem.raw_block(block).unwrap();
        injector.corrupt_two_chips(&mut bad);
        mem.overwrite_raw(block, bad);
        match mem.read_block(block) {
            Err(ReadError::Uncorrectable) => {}
            Ok(read) => assert_eq!(read, pt, "a 'correction' must never fabricate data"),
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }
}

#[test]
fn counter_overflow_switches_block_permanently() {
    let mut mem = MemoryImage::new(1 << 20, [0x44; 32]);
    let block = BlockAddr::new(3);
    // Pin the counter near the flag via the test hook, then write.
    mem.write_block(block, &plaintext(1));
    mem.set_counter_for_test(block, (u32::MAX - 1) as u64);
    mem.write_block(block, &plaintext(2));
    assert!(
        mem.is_counterless(block),
        "overflow must switch to counterless"
    );
    assert_eq!(mem.read_block(block).unwrap(), plaintext(2));
    // Stays counterless even though the mode is Counter.
    mem.write_block(block, &plaintext(3));
    assert!(mem.is_counterless(block));
    assert_eq!(mem.read_block(block).unwrap(), plaintext(3));
}

#[test]
fn corruption_of_any_chip_with_any_pattern_corrects() {
    for case in 0..24u64 {
        let mut rng = Xoshiro256::seed_from(0xC0_4217 + case);
        let block_idx = rng.below(1024);
        let chip_idx = rng.below(10) as usize;
        let flips = 1 + rng.below(u64::MAX - 1);
        let counterless = rng.chance(0.5);
        let tag = rng.next_u64() as u8;
        let mut mem = MemoryImage::new(1 << 20, [0x55; 32]);
        mem.set_writeback_mode(if counterless {
            WritebackMode::Counterless
        } else {
            WritebackMode::Counter
        });
        let block = BlockAddr::new(block_idx);
        let pt = plaintext(tag);
        mem.write_block(block, &pt);
        mem.corrupt_chip(block, Chip::all()[chip_idx], flips);
        assert_eq!(mem.read_block(block).unwrap(), pt, "case {case}");
    }
}

#[test]
fn repeated_writes_never_reuse_a_pad() {
    for case in 0..24u64 {
        let mut rng = Xoshiro256::seed_from(0x9AD5 + case);
        let n_writes = 2 + rng.below(18) as usize;
        let tag = rng.next_u64() as u8;
        let mut mem = MemoryImage::new(1 << 20, [0x66; 32]);
        let block = BlockAddr::new(9);
        let pt = plaintext(tag);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..n_writes {
            mem.write_block(block, &pt);
            let raw = mem.raw_block(block).unwrap();
            assert!(
                seen.insert(raw.lanes),
                "case {case}: identical ciphertext ⇒ pad reuse"
            );
        }
    }
}
