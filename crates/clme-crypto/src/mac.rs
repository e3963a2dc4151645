//! The two 64-bit per-block MAC constructions of Section II, extended
//! with the EncryptionMetadata input of Section IV-C.
//!
//! * [`counterless_mac`] — the SHA-3-based MAC counterless encryption
//!   uses (Intel MKTME uses SHA-3; the paper keeps the tag at 64 bits "to
//!   keep hardware regular"). Inputs: key, block address, ciphertext, and
//!   — under Counter-light — the EncryptionMetadata word.
//! * [`CounterModeMac`] — the OTP-based Carter–Wegman MAC counter mode
//!   uses (SGX1-style): the XOR of a truncated OTP with a truncated
//!   GF(2¹²⁸) dot product of the plaintext lanes and secret keys. The
//!   counter enters through the OTP; under Counter-light the counter *is*
//!   the EncryptionMetadata.

use crate::gf::Gf128;
use crate::hw;
use crate::sha3::sha3_tag64;

/// Computes the counterless (SHA-3) 64-bit MAC over a block's ciphertext.
///
/// `enc_meta` is the Counter-light EncryptionMetadata word; pass the
/// counterless flag value when modelling plain counterless encryption
/// (Section IV-C adds EncryptionMetadata "as an input to the SHA-3 used
/// for the counterless MAC").
///
/// # Examples
///
/// ```
/// use clme_crypto::mac::counterless_mac;
///
/// let tag = counterless_mac(&[1; 32], 0x40, &[0; 64], u32::MAX);
/// assert_ne!(tag, counterless_mac(&[1; 32], 0x41, &[0; 64], u32::MAX));
/// ```
pub fn counterless_mac(
    key: &[u8; 32],
    block_addr: u64,
    ciphertext: &[u8; 64],
    enc_meta: u32,
) -> u64 {
    sha3_tag64(
        b"clme:counterless-mac:v1",
        &[
            key,
            &block_addr.to_le_bytes(),
            ciphertext,
            &enc_meta.to_le_bytes(),
        ],
    )
}

/// Number of 8-byte data lanes per block (one per data chip, Fig. 3).
pub const DATA_LANES: usize = 8;

/// The counter-mode Carter–Wegman MAC: `trunc(OTP) ⊕ trunc(Σᵢ Dᵢ·Kᵢ ⊕
/// EncMeta·K₈)` over GF(2¹²⁸).
///
/// The OTP truncation carries the (address, counter) binding; the dot
/// product binds the plaintext lanes. Because the OTP is unknown to an
/// attacker, the construction is a classic polynomial MAC.
#[derive(Clone)]
pub struct CounterModeMac {
    lane_keys: [Gf128; DATA_LANES + 1],
    /// Whether the dot product runs on PCLMULQDQ: CPUID reported it when
    /// this MAC was built.
    clmul: bool,
}

impl std::fmt::Debug for CounterModeMac {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("CounterModeMac").finish_non_exhaustive()
    }
}

impl CounterModeMac {
    /// Derives the nine GF(2¹²⁸) lane keys from a 32-byte seed via SHA-3.
    pub fn from_seed(seed: &[u8; 32]) -> CounterModeMac {
        let mut lane_keys = [Gf128::ZERO; DATA_LANES + 1];
        for (i, key) in lane_keys.iter_mut().enumerate() {
            let digest =
                crate::sha3::sha3_256(&[b"clme:mac-lane:".as_slice(), &[i as u8], seed].concat());
            *key = Gf128::from_bytes(digest[..16].try_into().expect("32-byte digest"));
        }
        CounterModeMac {
            lane_keys,
            clmul: hw::clmul_detected(),
        }
    }

    /// Whether the dot product runs on the CPU's carry-less multiplier
    /// (PCLMULQDQ) rather than the bit-serial [`Gf128::mul`].
    pub fn uses_hardware(&self) -> bool {
        self.clmul
    }

    /// The same MAC pinned to the bit-serial [`Gf128::mul`]: the
    /// reference the hardware path is tested against.
    pub fn to_portable(&self) -> CounterModeMac {
        CounterModeMac {
            clmul: false,
            ..self.clone()
        }
    }

    /// Computes the 64-bit tag for a block.
    ///
    /// * `otp_trunc` — the truncated one-time pad
    ///   ([`crate::otp::OtpCipher::pad_trunc64`]), which binds address and
    ///   counter.
    /// * `plaintext` — the block's 64 plaintext bytes, split into 8 lanes.
    /// * `enc_meta` — the EncryptionMetadata word (the counter value under
    ///   counter mode, per Section IV-C).
    ///
    /// On PCLMULQDQ each lane costs two carry-less multiplies and the
    /// nine products are reduced once; the tag is the same either way.
    pub fn tag(&self, otp_trunc: u64, plaintext: &[u8; 64], enc_meta: u32) -> u64 {
        let dot = if self.clmul {
            let keys = self.lane_keys.map(|k| k.0);
            // SAFETY: `clmul` is true only when `hw::clmul_detected()`
            // (CPUID) reported PCLMULQDQ when this MAC was built.
            Gf128(unsafe { hw::clmul_dot(plaintext, enc_meta, &keys) })
        } else {
            self.dot_portable(plaintext, enc_meta)
        };
        let folded = (dot.0 as u64) ^ ((dot.0 >> 64) as u64);
        otp_trunc ^ folded
    }

    /// `Σᵢ Dᵢ·Kᵢ ⊕ EncMeta·K₈` with the bit-serial field multiply.
    fn dot_portable(&self, plaintext: &[u8; 64], enc_meta: u32) -> Gf128 {
        let mut dot = Gf128::ZERO;
        for lane in 0..DATA_LANES {
            let value = u64::from_le_bytes(
                plaintext[8 * lane..8 * lane + 8]
                    .try_into()
                    .expect("8-byte lane"),
            );
            dot = dot.add(Gf128(value as u128).mul(self.lane_keys[lane]));
        }
        dot.add(Gf128(enc_meta as u128).mul(self.lane_keys[DATA_LANES]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clme_types::rng::Xoshiro256;

    fn mac() -> CounterModeMac {
        CounterModeMac::from_seed(&[0x7E; 32])
    }

    #[test]
    fn counterless_mac_detects_any_single_byte_tamper() {
        let key = [9u8; 32];
        let ct = [0x5Au8; 64];
        let tag = counterless_mac(&key, 100, &ct, u32::MAX);
        for byte in 0..64 {
            let mut tampered = ct;
            tampered[byte] ^= 0x80;
            assert_ne!(
                counterless_mac(&key, 100, &tampered, u32::MAX),
                tag,
                "byte {byte}"
            );
        }
    }

    #[test]
    fn counterless_mac_binds_all_inputs() {
        let key = [9u8; 32];
        let ct = [1u8; 64];
        let tag = counterless_mac(&key, 7, &ct, 3);
        assert_ne!(counterless_mac(&[8u8; 32], 7, &ct, 3), tag);
        assert_ne!(counterless_mac(&key, 8, &ct, 3), tag);
        assert_ne!(counterless_mac(&key, 7, &ct, 4), tag);
    }

    #[test]
    fn counter_mode_mac_detects_lane_tampering() {
        let m = mac();
        let pt = [0x33u8; 64];
        let tag = m.tag(0xDEAD_BEEF, &pt, 5);
        for lane in 0..DATA_LANES {
            let mut tampered = pt;
            tampered[8 * lane] ^= 1;
            assert_ne!(m.tag(0xDEAD_BEEF, &tampered, 5), tag, "lane {lane}");
        }
    }

    #[test]
    fn counter_mode_mac_binds_otp_and_encmeta() {
        let m = mac();
        let pt = [0u8; 64];
        let tag = m.tag(1, &pt, 2);
        assert_ne!(m.tag(2, &pt, 2), tag);
        assert_ne!(m.tag(1, &pt, 3), tag);
    }

    #[test]
    fn counter_mode_mac_xor_structure_in_otp() {
        // tag(otp, pt) ⊕ tag(otp', pt) == otp ⊕ otp' — the Carter–Wegman
        // structure (the dot product cancels).
        let m = mac();
        let pt = [0xABu8; 64];
        assert_eq!(m.tag(5, &pt, 1) ^ m.tag(9, &pt, 1), 5 ^ 9);
    }

    #[test]
    fn different_seeds_give_different_tags() {
        let a = CounterModeMac::from_seed(&[1; 32]);
        let b = CounterModeMac::from_seed(&[2; 32]);
        let pt = [7u8; 64];
        assert_ne!(a.tag(0, &pt, 0), b.tag(0, &pt, 0));
    }

    #[test]
    fn forgery_probability_sanity() {
        // Random tamper attempts should essentially never collide on the
        // 64-bit tag.
        let m = mac();
        let mut rng = Xoshiro256::seed_from(17);
        let mut pt = [0u8; 64];
        rng.fill_bytes(&mut pt);
        let tag = m.tag(42, &pt, 9);
        for _ in 0..2000 {
            let mut tampered = pt;
            let idx = rng.below(64) as usize;
            tampered[idx] ^= (1 + rng.below(255)) as u8;
            assert_ne!(m.tag(42, &tampered, 9), tag);
        }
    }

    #[test]
    fn debug_hides_keys() {
        let repr = format!("{:?}", mac());
        assert!(repr.contains("CounterModeMac"));
        assert!(!repr.contains("Gf128"));
    }
}
