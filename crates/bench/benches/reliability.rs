//! Section IV-E — reliability: Monte-Carlo fault injection through the
//! full Fig. 14 correction flow, the entropy-disambiguation measurement,
//! and the DUE probability model.
//!
//! Paper: every single-chip error is correctable; wrongly decrypted data
//! has byte entropy ≥ 5.5 for ≥ 99.9% of blocks while real plaintexts
//! stay below; the analytic DUE rate doubles from 2⁻⁶¹ to 2⁻⁶⁰ without
//! the entropy filter and returns to ≈ 2⁻⁶¹·(1+0.001) with it.

use clme_core::epoch::WritebackMode;
use clme_core::functional::MemoryImage;
use clme_ecc::entropy::{block_entropy, looks_like_ciphertext};
use clme_ecc::inject::FaultInjector;
use clme_ecc::layout::Chip;
use clme_ecc::reliability::{
    counter_light_due_probability, counter_light_due_with_entropy_filter, synergy_due_probability,
};
use clme_types::rng::Xoshiro256;
use clme_types::BlockAddr;

/// Program-like plaintext: small integers, repeated tags, text runs.
fn plaintext(rng: &mut Xoshiro256) -> [u8; 64] {
    let mut block = [0u8; 64];
    match rng.below(3) {
        0 => {
            for (i, chunk) in block.chunks_mut(4).enumerate() {
                chunk.copy_from_slice(&((i as u32) * 8 + rng.below(4) as u32).to_le_bytes());
            }
        }
        1 => {
            for (i, chunk) in block.chunks_mut(8).enumerate() {
                let ptr = 0x7F80_1000_0000u64 + (i as u64 + rng.below(16)) * 0x40;
                chunk.copy_from_slice(&ptr.to_le_bytes());
            }
        }
        _ => {
            let text = b"result=ok; next=0x1f; flags=rw; ";
            for (i, byte) in block.iter_mut().enumerate() {
                *byte = text[i % text.len()];
            }
        }
    }
    block
}

fn main() {
    let trials = 2_000u32;
    let mut mem = MemoryImage::new(64 << 20, [0x5C; 32]);
    let mut rng = Xoshiro256::seed_from(2024);
    let mut injector = FaultInjector::new(7);

    let mut corrected = 0u32;
    let mut dues = 0u32;
    let mut wrong_decryptions_flagged = 0u32;
    let mut wrong_total = 0u32;
    let mut plaintext_flagged = 0u32;

    for t in 0..trials {
        let block = BlockAddr::new(rng.below(1 << 18));
        let counter_mode = rng.chance(0.5);
        mem.set_writeback_mode(if counter_mode {
            WritebackMode::Counter
        } else {
            WritebackMode::Counterless
        });
        let pt = plaintext(&mut rng);
        if looks_like_ciphertext(&pt) {
            plaintext_flagged += 1;
        }
        mem.write_block(block, &pt);

        // Entropy of a *wrong* decryption: decrypt under the other mode's
        // pad — emulated by decrypting the raw ciphertext with a bogus
        // counter pad.
        let raw = mem.raw_block(block).expect("written");
        let wrong = clme_crypto::otp::xor64(&raw.data(), &mem.pad_for(block, u32::MAX as u64 - 2));
        wrong_total += 1;
        if looks_like_ciphertext(&wrong) {
            wrong_decryptions_flagged += 1;
        }

        // Single-chip error: must always be corrected.
        let chip = Chip::all()[(t as usize) % 10];
        let mut bad = raw;
        injector.corrupt_chip(&mut bad, chip);
        mem.overwrite_raw(block, bad);
        match mem.read_block(block) {
            Ok(read) if read == pt => corrected += 1,
            _ => dues += 1,
        }
    }

    println!("=== Section IV-E: reliability ===");
    println!("single-chip injections: {trials}; corrected: {corrected}; DUEs: {dues}");
    println!(
        "wrong decryptions flagged as ciphertext (entropy ≥ 5.5): {:.2}% (paper ≥ 99.9%)",
        wrong_decryptions_flagged as f64 / wrong_total as f64 * 100.0
    );
    println!(
        "real plaintexts mistaken for ciphertext: {:.2}% (paper: 0%)",
        plaintext_flagged as f64 / trials as f64 * 100.0
    );
    println!(
        "sample entropies: plaintext {:.2} bits, ciphertext {:.2} bits (max 6.0)",
        block_entropy(&plaintext(&mut rng)),
        block_entropy(&{
            let mut ct = [0u8; 64];
            rng.fill_bytes(&mut ct);
            ct
        })
    );
    println!("\nanalytic DUE probabilities (Section IV-E):");
    println!(
        "  Synergy baseline:            2^{:.1}",
        synergy_due_probability().log2()
    );
    println!(
        "  Counter-light (no filter):   2^{:.1}  (doubled trials)",
        counter_light_due_probability().log2()
    );
    println!(
        "  Counter-light (entropy flt): 2^{:.1}  (≈ baseline × 1.001)",
        counter_light_due_with_entropy_filter(0.001).log2()
    );
}
