//! Differential tests: the CPU back ends (AES-NI, PCLMULQDQ, the
//! AVX-512F eight-way Keccak) against the portable reference, on seeded
//! random keys, blocks and messages.
//!
//! Every cipher and MAC picks its path from CPUID when it is built, and
//! `to_portable()` gives the same instance pinned to the reference code;
//! the batched SHA-3 tag has `sha3_tag64_batch_portable` beside it.
//! On a host without the features both sides run the portable code; the
//! tests then still check it (against the FIPS 197 vectors, among
//! others) and say so on stderr.

use clme_crypto::aes::Aes;
use clme_crypto::mac::CounterModeMac;
use clme_crypto::otp::OtpCipher;
use clme_crypto::sha3::{
    batch_uses_hardware, sha3_tag64, sha3_tag64_batch, sha3_tag64_batch_portable, SHA3_256_RATE,
};
use clme_crypto::xts::Xts;
use clme_types::rng::Xoshiro256;

const CASES: usize = 20_000;

fn bytes<const N: usize>(rng: &mut Xoshiro256) -> [u8; N] {
    let mut out = [0u8; N];
    rng.fill_bytes(&mut out);
    out
}

fn hex16(s: &str) -> [u8; 16] {
    core::array::from_fn(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).expect("hex"))
}

/// Reports which path the test compares, so a portable-only host is
/// visible in the test log.
fn report(what: &str, hardware: bool) {
    if !hardware {
        eprintln!("{what}: CPU feature not detected; checking the portable path only");
    }
}

/// An AES-128 or AES-256 cipher on a seeded random key, alternating.
fn random_aes(rng: &mut Xoshiro256, case: usize) -> Aes {
    if case.is_multiple_of(2) {
        Aes::new_128(bytes(rng))
    } else {
        Aes::new_256(bytes(rng))
    }
}

#[test]
fn fips197_vectors_through_both_paths() {
    let key256: [u8; 32] = core::array::from_fn(|i| i as u8);
    let vectors = [
        (
            Aes::new_128(hex16("2b7e151628aed2a6abf7158809cf4f3c")),
            "3243f6a8885a308d313198a2e0370734",
            "3925841d02dc09fbdc118597196a0b32",
        ),
        (
            Aes::new_128(hex16("000102030405060708090a0b0c0d0e0f")),
            "00112233445566778899aabbccddeeff",
            "69c4e0d86a7b0430d8cdb78070b4c55a",
        ),
        (
            Aes::new_256(key256),
            "00112233445566778899aabbccddeeff",
            "8ea2b7ca516745bfeafc49904b496089",
        ),
    ];
    report("aes", vectors[0].0.uses_hardware());
    for (aes, pt, ct) in &vectors {
        for path in [aes.clone(), aes.to_portable()] {
            assert_eq!(
                path.encrypt_block(hex16(pt)),
                hex16(ct),
                "hardware={}",
                path.uses_hardware()
            );
            let [a, b] = path.encrypt_blocks([hex16(pt), hex16(pt)]);
            assert_eq!((a, b), (hex16(ct), hex16(ct)));
            assert_eq!(path.decrypt_block(hex16(ct)), hex16(pt));
        }
    }
}

#[test]
fn aes_encrypt_block_matches_portable() {
    let mut rng = Xoshiro256::seed_from(0x0D1F_FAE5);
    for case in 0..CASES {
        let aes = random_aes(&mut rng, case);
        let reference = aes.to_portable();
        assert!(!reference.uses_hardware());
        let pt = bytes::<16>(&mut rng);
        assert_eq!(
            aes.encrypt_block(pt),
            reference.encrypt_block(pt),
            "case {case}"
        );
    }
}

#[test]
fn otp_pad_block64_matches_portable() {
    let mut rng = Xoshiro256::seed_from(0x0D1F_F07B);
    for case in 0..CASES {
        let otp = if case.is_multiple_of(2) {
            OtpCipher::new_128(bytes(&mut rng))
        } else {
            OtpCipher::new_256(bytes(&mut rng))
        };
        let reference = otp.to_portable();
        let (addr, ctr) = (rng.next_u64(), rng.next_u64());
        assert_eq!(
            otp.pad_block64(addr, ctr),
            reference.pad_block64(addr, ctr),
            "case {case}"
        );
        assert_eq!(otp.pad_trunc64(addr, ctr), reference.pad_trunc64(addr, ctr));
    }
}

#[test]
fn xts_encrypt_block64_matches_portable() {
    let mut rng = Xoshiro256::seed_from(0xD1FF_7175);
    for case in 0..CASES / 4 {
        let xts = if case.is_multiple_of(2) {
            Xts::new_128(bytes(&mut rng), bytes(&mut rng))
        } else {
            Xts::new_256(bytes(&mut rng), bytes(&mut rng))
        };
        let reference = xts.to_portable();
        let addr = rng.next_u64();
        let pt = bytes::<64>(&mut rng);
        let ct = xts.encrypt_block64(addr, &pt);
        assert_eq!(ct, reference.encrypt_block64(addr, &pt), "case {case}");
        assert_eq!(reference.decrypt_block64(addr, &ct), pt, "case {case}");
    }
}

#[test]
fn counter_mode_tag_matches_portable() {
    let mut rng = Xoshiro256::seed_from(0x0D1F_F7A6);
    report("mac", CounterModeMac::from_seed(&[0; 32]).uses_hardware());
    for case in 0..CASES {
        let mac = CounterModeMac::from_seed(&bytes(&mut rng));
        let reference = mac.to_portable();
        assert!(!reference.uses_hardware());
        let mut pt = bytes::<64>(&mut rng);
        // Force the top bit of a random subset of lanes on: the high
        // half of each 64×128 product and the final fold get exercised.
        let top_bits = rng.next_u64() as u8;
        for lane in 0..8 {
            if top_bits >> lane & 1 == 1 {
                pt[8 * lane + 7] |= 0x80;
            }
        }
        let meta = match case % 3 {
            0 => u32::MAX,
            1 => rng.next_u64() as u32,
            _ => 0,
        };
        let otp = rng.next_u64();
        assert_eq!(
            mac.tag(otp, &pt, meta),
            reference.tag(otp, &pt, meta),
            "case {case}"
        );
    }
    // Every lane zero, all ones, or only its top bit set.
    for seed in [[0u8; 32], [0xFF; 32]] {
        let mac = CounterModeMac::from_seed(&seed);
        let reference = mac.to_portable();
        for pt in [
            [0u8; 64],
            [0xFF; 64],
            u64::to_le_bytes(1 << 63).repeat(8).try_into().unwrap(),
        ] {
            assert_eq!(mac.tag(7, &pt, u32::MAX), reference.tag(7, &pt, u32::MAX));
        }
    }
}

#[test]
fn sha3_tag64_batch_matches_portable_and_single() {
    let mut rng = Xoshiro256::seed_from(0x5EA3_BA7C);
    report("sha3 batch", batch_uses_hardware());
    // The rate edges and the metadata MAC input lengths come up often;
    // the rest of the lengths are uniform over 0..=300.
    let edges = [0, 1, 135, 136, 137, 138, 141, 271, 272, 273, 300];
    let edge_len = |i: u64| edges[i as usize % edges.len()];
    assert_eq!(SHA3_256_RATE, 136);
    let mut messages = 0usize;
    for case in 0..CASES {
        let n = case % 18;
        let msgs: Vec<Vec<u8>> = (0..n)
            .map(|_| {
                let len = match rng.next_u64() % 4 {
                    0 => edge_len(rng.next_u64()),
                    _ => (rng.next_u64() % 301) as usize,
                };
                let mut msg = vec![0u8; len];
                rng.fill_bytes(&mut msg);
                msg
            })
            .collect();
        messages += n;
        let inputs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
        let mut batched = vec![0u64; n];
        sha3_tag64_batch(&inputs, &mut batched);
        let mut portable = vec![u64::MAX; n];
        sha3_tag64_batch_portable(&inputs, &mut portable);
        assert_eq!(batched, portable, "case {case}");
        for (i, msg) in msgs.iter().enumerate() {
            let cut = (rng.next_u64() % (msg.len() as u64 + 1)) as usize;
            let single = sha3_tag64(&msg[..cut], &[&msg[cut..]]);
            assert_eq!(
                batched[i],
                single,
                "case {case} message {i} len {}",
                msg.len()
            );
        }
    }
    assert!(
        messages > 8 * CASES,
        "batches must average more than one group"
    );
}
