//! Attack lab: run the paper's security arguments as experiments —
//! the Fig. 10 pad-reuse leak, the integrity tree catching counter
//! replay, the accepted whole-block replay (counterless-equivalent
//! security), the ciphertext side channel, and the algebraic-attack
//! equation counting of Section IV-F.
//!
//! Run with: `cargo run --release --example attack_lab`

use clme::security::algebraic::AttackSystem;
use clme::security::linearity;
use clme::security::replay;
use clme::security::sidechannel;

fn main() {
    println!("=== 1. Pad reuse via counter replay (Fig. 10) ===");
    let (reconstructed, actual) = replay::pad_reuse_leaks_new_plaintext();
    println!(
        "attacker reconstructs the newly written plaintext: {} (byte0 = {:#04x}, paper's example: 0x1a)",
        reconstructed == actual,
        reconstructed[0]
    );

    println!("\n=== 2. The integrity tree blocks that replay on writebacks ===");
    println!(
        "counter replay detected: {}",
        replay::counter_replay_detected_by_tree()
    );

    println!("\n=== 3. Whole-block replay (accepted by design) ===");
    println!(
        "replay of the full (data, MAC, parity) tuple accepted: {} — identical to counterless security",
        replay::whole_block_replay_accepted()
    );

    println!("\n=== 4. Ciphertext side channel (Section IV-D) ===");
    let sc = sidechannel::run();
    println!(
        "counterless, shared key  -> attacker recognises victim data: {}",
        sc.counterless_shared_key_leaks
    );
    println!(
        "counterless, per-VM keys -> leak: {}",
        sc.counterless_per_vm_keys_leak
    );
    println!(
        "counter mode, global key -> leak: {}",
        sc.counter_mode_global_key_leaks
    );

    println!("\n=== 5. Algebraic attack on the OTP combiner (Section IV-F) ===");
    let simplest = AttackSystem::new(2, 2);
    println!(
        "simplest solvable system: {} boolean equations over {} unknowns",
        simplest.boolean_equations(),
        simplest.boolean_unknowns()
    );
    println!(
        "MQ transformation: {} equations, ≥{} variables; polynomial-time solvable: {}",
        simplest.mq_equations(),
        simplest.mq_variables_lower_bound(),
        simplest.mq_polynomially_solvable()
    );
    for row in linearity::report(1_000) {
        println!(
            "combiner {:<28} linearity violations {:>5.1}%",
            row.name,
            row.violation_rate * 100.0
        );
    }
}
