//! Chipkill in action: inject faults into every chip of an encrypted
//! block — data chips, the MAC chip, the parity chip — and watch the
//! Fig. 14 trial-and-error correction recover the plaintext, under both
//! encryption modes. Then go beyond the guarantee (two bad chips) and
//! watch it degrade safely into a detected uncorrectable error.
//!
//! Run with: `cargo run --release --example fault_tolerant_memory`

use clme::core::epoch::WritebackMode;
use clme::core::functional::{MemoryImage, ReadError};
use clme::ecc::inject::FaultInjector;
use clme::ecc::layout::Chip;
use clme::types::BlockAddr;

fn main() {
    let mut mem = MemoryImage::new(8 << 20, [0x77; 32]);
    let mut injector = FaultInjector::new(99);
    let plaintext: [u8; 64] = core::array::from_fn(|i| b"fault tolerant! "[i % 16]);

    for (mode, label) in [
        (WritebackMode::Counter, "counter mode"),
        (WritebackMode::Counterless, "counterless mode"),
    ] {
        println!("=== {label} ===");
        mem.set_writeback_mode(mode);
        let block = BlockAddr::new(if mode == WritebackMode::Counter {
            10
        } else {
            20
        });
        mem.write_block(block, &plaintext);
        for chip in Chip::all() {
            let mut bad = mem.raw_block(block).expect("written");
            injector.corrupt_chip(&mut bad, chip);
            mem.overwrite_raw(block, bad);
            let recovered = mem.read_block(block).expect("single-chip must correct");
            assert_eq!(recovered, plaintext);
            println!("  chip {chip:<7} corrupted -> corrected, plaintext intact");
        }
        // Two chips at once: beyond chipkill's guarantee.
        let mut bad = mem.raw_block(block).expect("written");
        injector.corrupt_chip(&mut bad, Chip::Data(1));
        injector.corrupt_chip(&mut bad, Chip::Data(6));
        mem.overwrite_raw(block, bad);
        match mem.read_block(block) {
            Err(ReadError::Uncorrectable) => {
                println!(
                    "  two chips corrupted -> detected uncorrectable error (no silent corruption)"
                )
            }
            other => panic!("expected DUE, got {other:?}"),
        }
        // Rewrite to repair for the next round.
        mem.write_block(block, &plaintext);
    }

    let stats = mem.stats();
    println!(
        "\ncorrections: {}, detected uncorrectable errors: {}",
        stats.corrections, stats.dues
    );
}
