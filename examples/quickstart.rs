//! Quickstart: encrypt memory functionally, then compare the timing of
//! the three encryption designs on one irregular workload.
//!
//! Run with: `cargo run --release --example quickstart`

use clme::core::engine::EngineKind;
use clme::core::functional::MemoryImage;
use clme::sim::{run_benchmark, SimParams};
use clme::types::{BlockAddr, SystemConfig};

fn main() {
    // --- Functional: a bit-exact encrypted memory -----------------------
    let mut mem = MemoryImage::new(16 << 20, [0x42; 32]);
    let block = BlockAddr::new(0x100);
    let secret: [u8; 64] = core::array::from_fn(|i| (i as u8).wrapping_mul(3));
    mem.write_block(block, &secret);
    let stored = mem.raw_block(block).expect("just written");
    println!("plaintext[0..8]  = {:02x?}", &secret[..8]);
    println!(
        "ciphertext lane0 = {:#018x} (what a bus probe would see)",
        stored.lanes[0]
    );
    println!(
        "decrypted ok     = {}",
        mem.read_block(block).unwrap() == secret
    );

    // --- Timing: one benchmark under three designs ----------------------
    let cfg = SystemConfig::isca_table1();
    let params = SimParams::quick();
    println!("\nsimulating 'bfs' (quick windows):");
    let baseline = run_benchmark(&cfg, EngineKind::None, "bfs", params);
    for kind in [EngineKind::Counterless, EngineKind::CounterLight] {
        let result = run_benchmark(&cfg, kind, "bfs", params);
        println!(
            "  {:<14} perf vs no-encryption: {:.3}   mean miss stall after data: {}",
            kind.to_string(),
            result.performance_vs(&baseline),
            result.engine_stats.mean_stall_after_data()
        );
    }
    println!("\nCounter-light keeps the counterless memory-traffic profile on reads");
    println!("while decrypting from the memoized counter pad — see DESIGN.md.");
}
