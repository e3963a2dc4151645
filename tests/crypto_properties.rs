//! Randomised tests over the cryptographic substrate: round trips,
//! tamper detection, and codec inversions under seeded-random inputs.
//! Each test sweeps a fixed number of deterministic cases so failures
//! reproduce exactly (the seed is in the assertion message).

use clme::crypto::keys::KeyMaterial;
use clme::crypto::mac::counterless_mac;
use clme::crypto::otp::xor64;
use clme::crypto::Aes;
use clme::ecc::codec::{decode_meta, encode};
use clme::ecc::encmeta::{EncMeta, MetaWord, COUNTERLESS_FLAG};
use clme::types::rng::Xoshiro256;

const CASES: u64 = 48;

fn bytes<const N: usize>(rng: &mut Xoshiro256) -> [u8; N] {
    let mut out = [0u8; N];
    rng.fill_bytes(&mut out);
    out
}

#[test]
fn aes128_round_trips() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from(0xAE5_128 + case);
        let aes = Aes::new_128(bytes::<16>(&mut rng));
        let pt = bytes::<16>(&mut rng);
        assert_eq!(aes.decrypt_block(aes.encrypt_block(pt)), pt, "case {case}");
    }
}

#[test]
fn aes256_round_trips() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from(0xAE5_256 + case);
        let aes = Aes::new_256(bytes::<32>(&mut rng));
        let pt = bytes::<16>(&mut rng);
        assert_eq!(aes.decrypt_block(aes.encrypt_block(pt)), pt, "case {case}");
    }
}

#[test]
fn xts_round_trips_and_randomises() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from(0x7175 + case);
        let keys = KeyMaterial::from_master(bytes::<32>(&mut rng));
        let addr = rng.next_u64();
        let pt = bytes::<64>(&mut rng);
        let ct = keys.xts().encrypt_block64(addr, &pt);
        assert_eq!(keys.xts().decrypt_block64(addr, &ct), pt, "case {case}");
        // Ciphertext must differ from plaintext (with overwhelming prob.).
        assert_ne!(ct, pt, "case {case}");
    }
}

#[test]
fn otp_round_trips() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from(0x07B0 + case);
        let keys = KeyMaterial::from_master(bytes::<32>(&mut rng));
        let addr = rng.next_u64();
        let counter = rng.next_u64();
        let pt = bytes::<64>(&mut rng);
        let ct = keys.otp().encrypt_block64(addr, counter, &pt);
        assert_eq!(
            keys.otp().decrypt_block64(addr, counter, &ct),
            pt,
            "case {case}"
        );
    }
}

#[test]
fn distinct_counters_give_distinct_pads() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from(0xD15C + case);
        let keys = KeyMaterial::from_master(bytes::<32>(&mut rng));
        let addr = rng.next_u64();
        let c1 = rng.next_u64();
        let c2 = rng.next_u64();
        if c1 == c2 {
            continue;
        }
        assert_ne!(
            keys.otp().pad_block64(addr, c1),
            keys.otp().pad_block64(addr, c2),
            "case {case}"
        );
    }
}

#[test]
fn counterless_mac_detects_any_tamper() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from(0x3AC0 + case);
        let key = bytes::<32>(&mut rng);
        let addr = rng.next_u64();
        let ct = bytes::<64>(&mut rng);
        let byte = rng.below(64) as usize;
        let flip = 1 + rng.below(255) as u8;
        let tag = counterless_mac(&key, addr, &ct, COUNTERLESS_FLAG);
        let mut tampered = ct;
        tampered[byte] ^= flip;
        assert_ne!(
            counterless_mac(&key, addr, &tampered, COUNTERLESS_FLAG),
            tag,
            "case {case}"
        );
    }
}

#[test]
fn counter_mode_mac_detects_any_tamper() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from(0xC7AC + case);
        let keys = KeyMaterial::from_master(bytes::<32>(&mut rng));
        let otp_trunc = rng.next_u64();
        let pt = bytes::<64>(&mut rng);
        let counter = rng.next_u64() as u32;
        let byte = rng.below(64) as usize;
        let flip = 1 + rng.below(255) as u8;
        let tag = keys.counter_mode_mac().tag(otp_trunc, &pt, counter);
        let mut tampered = pt;
        tampered[byte] ^= flip;
        assert_ne!(
            keys.counter_mode_mac().tag(otp_trunc, &tampered, counter),
            tag,
            "case {case}"
        );
    }
}

#[test]
fn parity_codec_inverts_for_any_meta() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from(0xC0DE + case);
        let ct = bytes::<64>(&mut rng);
        let mac = rng.next_u64();
        let raw_meta = rng.next_u64() as u32;
        let aux = rng.next_u64() as u32;
        let meta = MetaWord::new(EncMeta::from_raw(raw_meta), aux);
        let block = encode(&ct, mac, meta);
        assert_eq!(decode_meta(&block), meta, "case {case}");
        assert_eq!(block.data(), ct, "case {case}");
    }
}

#[test]
fn xor64_is_involutive() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from(0x1404 + case);
        let a = bytes::<64>(&mut rng);
        let b = bytes::<64>(&mut rng);
        assert_eq!(xor64(&xor64(&a, &b), &b), a, "case {case}");
    }
}
