//! Known-answer pins for every primitive that writes bytes to a store:
//! the counter-mode pad, the Carter–Wegman data MAC, the SHA-3
//! counterless MAC and the XTS ciphertext, under AES-128 and AES-256
//! keys.
//!
//! The constants were computed by the portable (table-driven AES,
//! bit-serial GF(2¹²⁸)) implementation. Any back end that diverges from
//! it by a single bit fails here on every host, whichever path the host
//! selects. Each sweep hashes many seeded cases into one SHA3-256
//! digest, so a handful of constants covers thousands of inputs.

use clme_crypto::mac::{counterless_mac, CounterModeMac};
use clme_crypto::otp::OtpCipher;
use clme_crypto::sha3::sha3_256;
use clme_crypto::xts::Xts;
use clme_types::rng::Xoshiro256;

const CASES: usize = 2000;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn bytes<const N: usize>(rng: &mut Xoshiro256) -> [u8; N] {
    let mut out = [0u8; N];
    rng.fill_bytes(&mut out);
    out
}

/// A block whose lanes alternate between random values and values with
/// the top bit forced on, so the high half of every 64×128 product
/// is exercised.
fn block(rng: &mut Xoshiro256) -> [u8; 64] {
    let mut b = bytes::<64>(rng);
    for lane in (0..8).step_by(2) {
        b[8 * lane + 7] |= 0x80;
    }
    b
}

/// Encryption metadata values: the extremes plus random words.
fn enc_meta(rng: &mut Xoshiro256, case: usize) -> u32 {
    match case % 4 {
        0 => u32::MAX,
        1 => 0,
        _ => rng.next_u64() as u32,
    }
}

#[test]
fn otp_pad_known_answers() {
    let o128 = OtpCipher::new_128(*b"clme-otp-key-128");
    let o256 = OtpCipher::new_256(*b"clme-otp-key-256-clme-otp-key-25");
    assert_eq!(
        hex(&o128.pad_block64(0x1234_5678, 42)),
        "d542661c92202d811bd201c8278a1e1e25831dfa0ca8fd36014645058ce8ee48bd86f063e53b0d538108df7d262a59b04279e8cb40ef0273368ec6e565d5f884"
    );
    assert_eq!(
        hex(&o256.pad_block64(u64::MAX, u64::MAX)),
        "6038979235269f28977c317ea5ff3a2f58a436288cc215a7a1948a14bb570b8ded4a8801d7012062f409d228df66a30ac4993bc524f3ae618f62eb8f350e3062"
    );
}

#[test]
fn otp_pad_sweep_digest() {
    let mut rng = Xoshiro256::seed_from(0x007B_5EE9);
    let mut acc = Vec::with_capacity(CASES * 64);
    for case in 0..CASES {
        let otp = if case.is_multiple_of(2) {
            OtpCipher::new_128(bytes(&mut rng))
        } else {
            OtpCipher::new_256(bytes(&mut rng))
        };
        let (addr, ctr) = (rng.next_u64(), rng.next_u64());
        acc.extend_from_slice(&otp.pad_block64(addr, ctr));
    }
    assert_eq!(
        hex(&sha3_256(&acc)),
        "01c3a9bf42e1411876cf593580a6b062ba84df27f3f7982b0e3e1a335576cad9"
    );
}

#[test]
fn counter_mode_mac_known_answers() {
    let mac = CounterModeMac::from_seed(&[0x7E; 32]);
    let pt: [u8; 64] = core::array::from_fn(|i| (i as u8).wrapping_mul(37) ^ 0x80);
    assert_eq!(
        mac.tag(0xDEAD_BEEF_0BAD_F00D, &pt, u32::MAX),
        0x45C2_3491_04CF_B539
    );
    assert_eq!(mac.tag(0, &[0xFF; 64], u32::MAX), 0xE9DE_9D25_F363_BA26);
    assert_eq!(mac.tag(0, &[0; 64], 1), 0x3DD4_7DD9_F2E0_D2F5);
}

#[test]
fn counter_mode_mac_sweep_digest() {
    let mut rng = Xoshiro256::seed_from(0x7A6_5EE9);
    let mut acc = Vec::with_capacity(CASES * 8);
    for case in 0..CASES {
        let mac = CounterModeMac::from_seed(&bytes(&mut rng));
        let pt = block(&mut rng);
        let meta = enc_meta(&mut rng, case);
        acc.extend_from_slice(&mac.tag(rng.next_u64(), &pt, meta).to_le_bytes());
    }
    assert_eq!(
        hex(&sha3_256(&acc)),
        "2811258a77827a66081714c0b0f839079acf07ce5e7eb48b6b2d2f1f56e44669"
    );
}

#[test]
fn counterless_mac_known_answers() {
    let ct: [u8; 64] = core::array::from_fn(|i| i as u8);
    assert_eq!(
        counterless_mac(&[0x11; 32], 0x40, &ct, u32::MAX),
        0x8EA7_BF43_1A17_2F1C
    );
    assert_eq!(
        counterless_mac(&[0x22; 32], u64::MAX, &[0xFF; 64], 7),
        0xF591_A093_A0BB_AF1D
    );
}

#[test]
fn xts_known_answers() {
    let pt: [u8; 64] = core::array::from_fn(|i| (i as u8).wrapping_mul(11));
    let x128 = Xts::new_128([0x11; 16], [0x22; 16]);
    let x256 = Xts::new_256([0xAA; 32], [0xBB; 32]);
    assert_eq!(hex(&x128.encrypt_block64(0x40, &pt)), "76418a12e69d267f91ca302823ce0d564d951f963441e0891a3d7e41e092b0e6c304ceb3e0d25bcc42307540a152646aa029c325de37fb7d6bdd7859f93142d6");
    assert_eq!(hex(&x256.encrypt_block64(u64::MAX, &pt)), "dc65645d99879fb59118e5bc9f4b67c9265a2f9f6076eeb7bc0ec0b154681d1443a57114728930b7ad082e8f4a53147c2d91d47d8494e958ace16d84c345d025");
}

#[test]
fn xts_sweep_digest() {
    let mut rng = Xoshiro256::seed_from(0x7175_5EE9);
    let mut acc = Vec::with_capacity(CASES * 64);
    for case in 0..CASES / 4 {
        let xts = if case.is_multiple_of(2) {
            Xts::new_128(bytes(&mut rng), bytes(&mut rng))
        } else {
            Xts::new_256(bytes(&mut rng), bytes(&mut rng))
        };
        let addr = rng.next_u64();
        let pt = bytes::<64>(&mut rng);
        let ct = xts.encrypt_block64(addr, &pt);
        assert_eq!(xts.decrypt_block64(addr, &ct), pt, "case {case}");
        acc.extend_from_slice(&ct);
    }
    assert_eq!(
        hex(&sha3_256(&acc)),
        "837fad7f4b780033d4c2d2d6d88298ddf142ca3982e05ed6a3146b7b68583751"
    );
}
