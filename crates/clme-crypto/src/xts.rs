//! AES-XTS — the *counterless* encryption mode (paper Fig. 2a).
//!
//! XTS (IEEE 1619) is the mode used by Intel TME/MKTME/SGX2 and AMD
//! SME/SEV. For each 16-byte word `j` of a 64-byte memory block at address
//! `A`:
//!
//! ```text
//! T_j = AES_enc(K2, Tweak(A)) · αʲ          (GF(2¹²⁸), α = x)
//! C_j = AES_enc(K1, P_j ⊕ T_j) ⊕ T_j
//! ```
//!
//! The tweak depends only on the *address*, so `T_j` can be precomputed,
//! but the inner AES takes the *data* as input — which is exactly why
//! counterless decryption must stall for the full AES latency after the
//! missing data arrive (paper Section III).

use crate::aes::Aes;
use crate::gf::Gf128;

/// Number of 16-byte words per 64-byte memory block.
pub const WORDS_PER_BLOCK: usize = 4;

/// An AES-XTS cipher over 64-byte memory blocks.
///
/// # Examples
///
/// ```
/// use clme_crypto::xts::Xts;
///
/// let xts = Xts::new_128([1; 16], [2; 16]);
/// let pt = [0x5A; 64];
/// let ct = xts.encrypt_block64(0x40, &pt);
/// assert_ne!(ct, pt);
/// assert_eq!(xts.decrypt_block64(0x40, &ct), pt);
/// ```
#[derive(Clone, Debug)]
pub struct Xts {
    data_cipher: Aes,
    tweak_cipher: Aes,
}

impl Xts {
    /// Creates an XTS instance from two independent AES-128 keys
    /// (IEEE 1619 requires K1 ≠ K2; enforced here).
    ///
    /// # Panics
    ///
    /// Panics if the two keys are equal.
    pub fn new_128(data_key: [u8; 16], tweak_key: [u8; 16]) -> Xts {
        assert_ne!(data_key, tweak_key, "XTS keys must be independent");
        Xts {
            data_cipher: Aes::new_128(data_key),
            tweak_cipher: Aes::new_128(tweak_key),
        }
    }

    /// Creates an XTS instance from two independent AES-256 keys.
    ///
    /// # Panics
    ///
    /// Panics if the two keys are equal.
    pub fn new_256(data_key: [u8; 32], tweak_key: [u8; 32]) -> Xts {
        assert_ne!(data_key, tweak_key, "XTS keys must be independent");
        Xts {
            data_cipher: Aes::new_256(data_key),
            tweak_cipher: Aes::new_256(tweak_key),
        }
    }

    /// Computes the encrypted base tweak for a block address. This is the
    /// address-only AES of Fig. 2a: it does not depend on data, so the
    /// hardware can compute it while the data are still in flight.
    pub fn base_tweak(&self, block_addr: u64) -> Gf128 {
        let mut tweak_in = [0u8; 16];
        tweak_in[..8].copy_from_slice(&block_addr.to_le_bytes());
        Gf128::from_bytes(self.tweak_cipher.encrypt_block(tweak_in))
    }

    /// Encrypts a 64-byte block stored at `block_addr` (a 64-byte-aligned
    /// unit number, e.g. [`clme_types::BlockAddr::raw`]).
    pub fn encrypt_block64(&self, block_addr: u64, plaintext: &[u8; 64]) -> [u8; 64] {
        self.process(block_addr, plaintext, true)
    }

    /// Decrypts a 64-byte block stored at `block_addr`.
    pub fn decrypt_block64(&self, block_addr: u64, ciphertext: &[u8; 64]) -> [u8; 64] {
        self.process(block_addr, ciphertext, false)
    }

    /// The same cipher pinned to the portable AES code: the reference
    /// the hardware path is tested against.
    pub fn to_portable(&self) -> Xts {
        Xts {
            data_cipher: self.data_cipher.to_portable(),
            tweak_cipher: self.tweak_cipher.to_portable(),
        }
    }

    /// `C_j = AES(K1, P_j ⊕ T_j) ⊕ T_j` (or its inverse) for the four
    /// words. The tweak ladder is computed first, so the four encryptions
    /// are independent and go through the cipher together.
    fn process(&self, block_addr: u64, input: &[u8; 64], encrypt: bool) -> [u8; 64] {
        let mut tweak = self.base_tweak(block_addr);
        let tweaks: [[u8; 16]; WORDS_PER_BLOCK] = core::array::from_fn(|_| {
            let t = tweak.to_bytes();
            tweak = tweak.mul_alpha();
            t
        });
        let words: [[u8; 16]; WORDS_PER_BLOCK] =
            core::array::from_fn(|j| core::array::from_fn(|i| input[16 * j + i] ^ tweaks[j][i]));
        let cipher_out = if encrypt {
            self.data_cipher.encrypt_blocks(words)
        } else {
            words.map(|w| self.data_cipher.decrypt_block(w))
        };
        let mut out = [0u8; 64];
        for (j, word) in cipher_out.iter().enumerate() {
            for i in 0..16 {
                out[16 * j + i] = word[i] ^ tweaks[j][i];
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clme_types::rng::Xoshiro256;

    fn xts() -> Xts {
        Xts::new_128([0x11; 16], [0x22; 16])
    }

    #[test]
    fn round_trip_random_blocks() {
        let x = xts();
        let mut rng = Xoshiro256::seed_from(1);
        for addr in [0u64, 1, 0xABC, 1 << 30] {
            let mut pt = [0u8; 64];
            rng.fill_bytes(&mut pt);
            assert_eq!(x.decrypt_block64(addr, &x.encrypt_block64(addr, &pt)), pt);
        }
    }

    #[test]
    fn same_data_different_address_different_ciphertext() {
        let x = xts();
        let pt = [0x77; 64];
        assert_ne!(x.encrypt_block64(0, &pt), x.encrypt_block64(1, &pt));
    }

    #[test]
    fn same_data_same_address_same_ciphertext() {
        // The determinism that enables the ciphertext side-channel attack
        // (paper Section IV-D) — inherent to XTS without counters.
        let x = xts();
        let pt = [0x77; 64];
        assert_eq!(x.encrypt_block64(5, &pt), x.encrypt_block64(5, &pt));
    }

    #[test]
    fn words_use_distinct_tweaks() {
        // Identical plaintext words within one block must encrypt
        // differently thanks to the αʲ ladder.
        let x = xts();
        let pt = [0x33; 64];
        let ct = x.encrypt_block64(9, &pt);
        for j in 1..WORDS_PER_BLOCK {
            assert_ne!(
                ct[0..16],
                ct[16 * j..16 * j + 16],
                "word {j} repeats word 0"
            );
        }
    }

    #[test]
    fn single_ciphertext_bit_flip_garbles_whole_word() {
        // The tamper-resistance property of Section II-B: flipping one
        // ciphertext bit randomises ~half of the 16-byte word's bits.
        let x = xts();
        let pt = [0u8; 64];
        let mut ct = x.encrypt_block64(3, &pt);
        ct[5] ^= 0x01;
        let garbled = x.decrypt_block64(3, &ct);
        let flipped: u32 = garbled[0..16].iter().map(|b| b.count_ones()).sum();
        assert!((30..=98).contains(&flipped), "flipped {flipped} bits");
        // Other words untouched.
        assert_eq!(&garbled[16..64], &pt[16..64]);
    }

    #[test]
    fn base_tweak_is_address_only() {
        let x = xts();
        assert_eq!(x.base_tweak(42), x.base_tweak(42));
        assert_ne!(x.base_tweak(42), x.base_tweak(43));
    }

    #[test]
    fn aes256_variant_round_trips() {
        let x = Xts::new_256([0xAA; 32], [0xBB; 32]);
        let pt: [u8; 64] = core::array::from_fn(|i| (i * 3) as u8);
        assert_eq!(x.decrypt_block64(7, &x.encrypt_block64(7, &pt)), pt);
    }

    #[test]
    #[should_panic(expected = "independent")]
    fn equal_keys_rejected() {
        let _ = Xts::new_128([1; 16], [1; 16]);
    }
}
