//! AES-CTR one-time pads — the *counter mode* encryption (paper Fig. 2b).
//!
//! For each 16-byte word of a 64-byte block, counter mode computes
//! `OTP_j = AES(K, word_address_j || counter)` and XORs it with the data.
//! The AES input contains no data, so the pad can be computed (or fetched
//! from the memoization table) before the data arrive — the property
//! Counter-light exploits to hide cipher latency.
//!
//! Re-using a (address, counter) pair would reuse a pad and leak plaintext
//! (paper Fig. 10), which is why the counter is a per-write nonce.

use crate::aes::Aes;

/// Number of 16-byte words per 64-byte memory block.
pub const WORDS_PER_BLOCK: usize = 4;

/// A counter-mode pad generator over 64-byte memory blocks.
///
/// # Examples
///
/// ```
/// use clme_crypto::otp::OtpCipher;
///
/// let otp = OtpCipher::new_128([9; 16]);
/// let pt = [0xC3; 64];
/// let ct = otp.encrypt_block64(0x100, 1, &pt);
/// assert_eq!(otp.decrypt_block64(0x100, 1, &ct), pt);
/// ```
#[derive(Clone, Debug)]
pub struct OtpCipher {
    cipher: Aes,
}

impl OtpCipher {
    /// Creates a counter-mode cipher with an AES-128 key.
    pub fn new_128(key: [u8; 16]) -> OtpCipher {
        OtpCipher {
            cipher: Aes::new_128(key),
        }
    }

    /// Creates a counter-mode cipher with an AES-256 key.
    pub fn new_256(key: [u8; 32]) -> OtpCipher {
        OtpCipher {
            cipher: Aes::new_256(key),
        }
    }

    /// Generates the 64-byte one-time pad for (`block_addr`, `counter`).
    ///
    /// Each 16-byte word's AES input packs the word's 16-byte-granularity
    /// address (block address and word index) with the 64-bit block write
    /// counter — the "Address for a 16B word, Counter for a 64B block"
    /// layout of Fig. 2b.
    ///
    /// The four words' AES passes are independent, so they go through
    /// the cipher together (interleaved on AES-NI).
    pub fn pad_block64(&self, block_addr: u64, counter: u64) -> [u8; 64] {
        let inputs: [[u8; 16]; WORDS_PER_BLOCK] =
            core::array::from_fn(|j| pad_input(block_addr, j as u32, counter));
        let words = self.cipher.encrypt_blocks(inputs);
        let mut pad = [0u8; 64];
        for (chunk, word) in pad.chunks_exact_mut(16).zip(&words) {
            chunk.copy_from_slice(word);
        }
        pad
    }

    /// Generates the 16-byte pad for one word of a block.
    pub fn pad_word(&self, block_addr: u64, word_index: u32, counter: u64) -> [u8; 16] {
        self.cipher
            .encrypt_block(pad_input(block_addr, word_index, counter))
    }

    /// The same pad generator pinned to the portable AES code: the
    /// reference the hardware path is tested against.
    pub fn to_portable(&self) -> OtpCipher {
        OtpCipher {
            cipher: self.cipher.to_portable(),
        }
    }

    /// Generates the pads for a batch of `(block_addr, counter)`
    /// requests, one [`pad_block64`](Self::pad_block64) each, under the
    /// one key schedule this cipher holds.
    pub fn pad_batch64(&self, requests: &[(u64, u64)]) -> Vec<[u8; 64]> {
        let mut pads = Vec::with_capacity(requests.len());
        for &(block_addr, counter) in requests {
            pads.push(self.pad_block64(block_addr, counter));
        }
        pads
    }

    /// Encrypts a block: `C = P ⊕ OTP(addr, counter)`.
    pub fn encrypt_block64(&self, block_addr: u64, counter: u64, plaintext: &[u8; 64]) -> [u8; 64] {
        xor64(plaintext, &self.pad_block64(block_addr, counter))
    }

    /// Decrypts a block: `P = C ⊕ OTP(addr, counter)`. Identical to
    /// encryption because XOR is an involution.
    pub fn decrypt_block64(
        &self,
        block_addr: u64,
        counter: u64,
        ciphertext: &[u8; 64],
    ) -> [u8; 64] {
        self.encrypt_block64(block_addr, counter, ciphertext)
    }

    /// The 64-bit truncation of the block's pad used by the counter-mode
    /// MAC (Section II-B: "bitwise XOR between a truncated OTP and a
    /// truncated Galois Field dot product").
    pub fn pad_trunc64(&self, block_addr: u64, counter: u64) -> u64 {
        let word = self.pad_word(block_addr, 0, counter);
        u64::from_le_bytes(word[..8].try_into().expect("16-byte pad word"))
    }

    /// Computes an *address-only* AES result (counter field zeroed) — the
    /// left input of the RMCC combiner (paper Fig. 4), reused by the
    /// Counter-light combiner.
    pub fn address_only_aes(&self, block_addr: u64, word_index: u32) -> [u8; 16] {
        let mut input = [0u8; 16];
        let word_addr = block_addr
            .wrapping_mul(WORDS_PER_BLOCK as u64)
            .wrapping_add(word_index as u64);
        input[..8].copy_from_slice(&word_addr.to_le_bytes());
        // Domain-separate from pad_word inputs by tagging the high byte.
        input[15] = 0xA5;
        self.cipher.encrypt_block(input)
    }

    /// Computes a *counter-only* AES result (address field zeroed) — the
    /// memoizable right input of the RMCC combiner (paper Fig. 4).
    pub fn counter_only_aes(&self, counter: u64) -> [u8; 16] {
        let mut input = [0u8; 16];
        input[..8].copy_from_slice(&counter.to_le_bytes());
        // Domain-separate from address-only inputs.
        input[15] = 0xC7;
        self.cipher.encrypt_block(input)
    }
}

/// The AES input for one pad word: the 16-byte-granularity word
/// address (block address × 4 + word index), then the block's counter.
fn pad_input(block_addr: u64, word_index: u32, counter: u64) -> [u8; 16] {
    let word_addr = block_addr
        .wrapping_mul(WORDS_PER_BLOCK as u64)
        .wrapping_add(word_index as u64);
    let mut input = [0u8; 16];
    input[..8].copy_from_slice(&word_addr.to_le_bytes());
    input[8..16].copy_from_slice(&counter.to_le_bytes());
    input
}

/// XORs two 64-byte arrays.
pub fn xor64(a: &[u8; 64], b: &[u8; 64]) -> [u8; 64] {
    let mut out = [0u8; 64];
    for i in 0..64 {
        out[i] = a[i] ^ b[i];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn otp() -> OtpCipher {
        OtpCipher::new_128([3; 16])
    }

    #[test]
    fn round_trip() {
        let o = otp();
        let pt = [0x42; 64];
        let ct = o.encrypt_block64(10, 5, &pt);
        assert_ne!(ct, pt);
        assert_eq!(o.decrypt_block64(10, 5, &ct), pt);
    }

    #[test]
    fn pad_reuse_leaks_xor_of_plaintexts() {
        // The Fig. 10 vulnerability: identical (addr, counter) pads mean
        // C1 ⊕ C2 == P1 ⊕ P2.
        let o = otp();
        let p1 = [0x11u8; 64];
        let p2 = [0x2Au8; 64];
        let c1 = o.encrypt_block64(7, 9, &p1);
        let c2 = o.encrypt_block64(7, 9, &p2);
        let leaked = xor64(&c1, &c2);
        assert_eq!(leaked, xor64(&p1, &p2));
    }

    #[test]
    fn pad_batch_matches_singles() {
        let o = otp();
        let requests = [(3u64, 1u64), (4, 2), (3, 1), (1000, u64::MAX)];
        let pads = o.pad_batch64(&requests);
        assert_eq!(pads.len(), requests.len());
        for (&(addr, ctr), pad) in requests.iter().zip(&pads) {
            assert_eq!(*pad, o.pad_block64(addr, ctr));
        }
        assert!(o.pad_batch64(&[]).is_empty());
    }

    #[test]
    fn counter_change_changes_pad() {
        let o = otp();
        assert_ne!(o.pad_block64(1, 1), o.pad_block64(1, 2));
    }

    #[test]
    fn address_change_changes_pad() {
        let o = otp();
        assert_ne!(o.pad_block64(1, 1), o.pad_block64(2, 1));
    }

    #[test]
    fn words_have_distinct_pads() {
        let o = otp();
        let pad = o.pad_block64(0, 0);
        for j in 1..WORDS_PER_BLOCK {
            assert_ne!(pad[0..16], pad[16 * j..16 * j + 16]);
        }
    }

    #[test]
    fn pad_trunc_matches_word0() {
        let o = otp();
        let pad = o.pad_block64(12, 34);
        assert_eq!(
            o.pad_trunc64(12, 34),
            u64::from_le_bytes(pad[..8].try_into().unwrap())
        );
    }

    #[test]
    fn address_only_and_counter_only_are_domain_separated() {
        let o = otp();
        // Same numeric value in both constructions must yield different
        // AES outputs (different domain tags).
        assert_ne!(
            o.address_only_aes(0, 5 / WORDS_PER_BLOCK as u32),
            o.counter_only_aes(5)
        );
        assert_ne!(o.counter_only_aes(5), o.pad_word(0, 0, 5));
    }

    #[test]
    fn bit_flip_in_ciphertext_flips_same_plaintext_bit() {
        // Counter mode's malleability (Section II-B): flipping ciphertext
        // bit k flips exactly plaintext bit k.
        let o = otp();
        let pt = [0u8; 64];
        let mut ct = o.encrypt_block64(3, 4, &pt);
        ct[20] ^= 0x10;
        let tampered = o.decrypt_block64(3, 4, &ct);
        let mut expected = pt;
        expected[20] ^= 0x10;
        assert_eq!(tampered, expected);
    }

    #[test]
    fn aes256_variant() {
        let o = OtpCipher::new_256([0x5C; 32]);
        let pt = [1u8; 64];
        assert_eq!(o.decrypt_block64(0, 0, &o.encrypt_block64(0, 0, &pt)), pt);
    }
}
