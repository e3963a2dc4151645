//! AES-128 and AES-256 (FIPS 197), implemented from first principles.
//!
//! The S-box is generated from its algebraic definition (GF(2⁸) inversion
//! followed by the affine map) instead of being transcribed, and the whole
//! cipher is validated against the FIPS 197 known-answer vectors in the
//! test module. This table-driven code is the reference and the only
//! path on CPUs without AES-NI. Where CPUID reports AES-NI, encryption
//! runs on the CPU's AES unit instead (the private `hw` module), over
//! the same round keys and with byte-identical output: `clme-mem`
//! encrypts every block it stores with this cipher, so its throughput
//! is the layer's. Decryption, which only counterless (XTS) reads use,
//! stays portable. The *timing* of AES in the simulated memory system is
//! modelled by the simulator's latency parameters (Table I: 10 ns /
//! 14 ns), not by this code.

use crate::gf::{gf8_inv, gf8_mul, xtime};
use crate::hw;
use std::sync::OnceLock;

/// Number of 32-bit words in an AES state/block.
const NB: usize = 4;

/// Round keys of the longest schedule (AES-256: 14 rounds plus the
/// initial key).
const MAX_ROUND_KEYS: usize = 15;

static SBOX: OnceLock<[u8; 256]> = OnceLock::new();
static INV_SBOX: OnceLock<[u8; 256]> = OnceLock::new();

/// The AES S-box, generated as `affine(inv(x))` per FIPS 197 §5.1.1.
pub fn sbox() -> &'static [u8; 256] {
    SBOX.get_or_init(|| {
        let mut table = [0u8; 256];
        for (x, slot) in table.iter_mut().enumerate() {
            *slot = affine(gf8_inv(x as u8));
        }
        table
    })
}

/// The inverse AES S-box (the forward table inverted).
pub fn inv_sbox() -> &'static [u8; 256] {
    INV_SBOX.get_or_init(|| {
        let fwd = sbox();
        let mut table = [0u8; 256];
        for (x, &s) in fwd.iter().enumerate() {
            table[s as usize] = x as u8;
        }
        table
    })
}

/// FIPS 197 affine transformation: `b ⊕ rotl(b,1) ⊕ rotl(b,2) ⊕ rotl(b,3)
/// ⊕ rotl(b,4) ⊕ 0x63`.
fn affine(b: u8) -> u8 {
    b ^ b.rotate_left(1) ^ b.rotate_left(2) ^ b.rotate_left(3) ^ b.rotate_left(4) ^ 0x63
}

/// An AES cipher instance with a fully expanded key schedule.
///
/// Supports the two key sizes the paper discusses: AES-128 (10 rounds,
/// mainstream today) and AES-256 (14 rounds, post-quantum-motivated).
///
/// # Examples
///
/// ```
/// use clme_crypto::aes::Aes;
///
/// let aes = Aes::new_256([0x42; 32]);
/// let pt = *b"exactly 16 bytes";
/// assert_eq!(aes.decrypt_block(aes.encrypt_block(pt)), pt);
/// ```
#[derive(Clone)]
pub struct Aes {
    /// Round keys, one 16-byte key per round plus the initial key; the
    /// first `rounds + 1` are used.
    round_keys: [[u8; 16]; MAX_ROUND_KEYS],
    rounds: usize,
    /// Whether encryption runs on AES-NI: CPUID reported it when this
    /// instance was built.
    aes_ni: bool,
}

impl std::fmt::Debug for Aes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("Aes").field("rounds", &self.rounds).finish()
    }
}

impl Aes {
    /// Creates an AES-128 instance (10 rounds).
    pub fn new_128(key: [u8; 16]) -> Aes {
        Aes::expand(&key, 10)
    }

    /// Creates an AES-256 instance (14 rounds).
    pub fn new_256(key: [u8; 32]) -> Aes {
        Aes::expand(&key, 14)
    }

    /// Number of rounds (10 or 14).
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    fn expand(key: &[u8], rounds: usize) -> Aes {
        let nk = key.len() / 4;
        let total_words = NB * (rounds + 1);
        let mut w: Vec<[u8; 4]> = Vec::with_capacity(total_words);
        for i in 0..nk {
            w.push([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
        }
        let mut rcon: u8 = 1;
        for i in nk..total_words {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp = sub_word(rot_word(temp));
                temp[0] ^= rcon;
                rcon = xtime(rcon);
            } else if nk > 6 && i % nk == 4 {
                temp = sub_word(temp);
            }
            let prev = w[i - nk];
            w.push([
                prev[0] ^ temp[0],
                prev[1] ^ temp[1],
                prev[2] ^ temp[2],
                prev[3] ^ temp[3],
            ]);
        }
        let mut round_keys = [[0u8; 16]; MAX_ROUND_KEYS];
        for (r, rk) in round_keys.iter_mut().take(rounds + 1).enumerate() {
            for c in 0..NB {
                rk[4 * c..4 * c + 4].copy_from_slice(&w[NB * r + c]);
            }
        }
        Aes {
            round_keys,
            rounds,
            aes_ni: hw::aes_detected(),
        }
    }

    /// Whether this instance encrypts on the CPU's AES unit (AES-NI)
    /// rather than the portable table code.
    pub fn uses_hardware(&self) -> bool {
        self.aes_ni
    }

    /// The same cipher pinned to the portable table code: the reference
    /// the hardware path is tested against.
    pub fn to_portable(&self) -> Aes {
        Aes {
            aes_ni: false,
            ..self.clone()
        }
    }

    /// Encrypts one 16-byte block.
    pub fn encrypt_block(&self, block: [u8; 16]) -> [u8; 16] {
        let [out] = self.encrypt_blocks([block]);
        out
    }

    /// Encrypts `N` independent blocks. On AES-NI the blocks go through
    /// the unit interleaved, round by round, so their latencies overlap.
    pub fn encrypt_blocks<const N: usize>(&self, blocks: [[u8; 16]; N]) -> [[u8; 16]; N] {
        if self.aes_ni {
            // SAFETY: `aes_ni` is true only when `hw::aes_detected()`
            // (CPUID) reported AES-NI when this instance was built.
            return unsafe { hw::aes_encrypt(&self.round_keys[..=self.rounds], blocks) };
        }
        blocks.map(|b| self.encrypt_block_portable(b))
    }

    /// The portable table-driven encryption of one block.
    fn encrypt_block_portable(&self, block: [u8; 16]) -> [u8; 16] {
        let mut state = block;
        add_round_key(&mut state, &self.round_keys[0]);
        for round in 1..self.rounds {
            sub_bytes(&mut state);
            shift_rows(&mut state);
            mix_columns(&mut state);
            add_round_key(&mut state, &self.round_keys[round]);
        }
        sub_bytes(&mut state);
        shift_rows(&mut state);
        add_round_key(&mut state, &self.round_keys[self.rounds]);
        state
    }

    /// Decrypts one 16-byte block.
    pub fn decrypt_block(&self, block: [u8; 16]) -> [u8; 16] {
        let mut state = block;
        add_round_key(&mut state, &self.round_keys[self.rounds]);
        for round in (1..self.rounds).rev() {
            inv_shift_rows(&mut state);
            inv_sub_bytes(&mut state);
            add_round_key(&mut state, &self.round_keys[round]);
            inv_mix_columns(&mut state);
        }
        inv_shift_rows(&mut state);
        inv_sub_bytes(&mut state);
        add_round_key(&mut state, &self.round_keys[0]);
        state
    }
}

fn rot_word(w: [u8; 4]) -> [u8; 4] {
    [w[1], w[2], w[3], w[0]]
}

fn sub_word(w: [u8; 4]) -> [u8; 4] {
    let s = sbox();
    [
        s[w[0] as usize],
        s[w[1] as usize],
        s[w[2] as usize],
        s[w[3] as usize],
    ]
}

fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for (s, k) in state.iter_mut().zip(rk.iter()) {
        *s ^= k;
    }
}

fn sub_bytes(state: &mut [u8; 16]) {
    let s = sbox();
    for byte in state.iter_mut() {
        *byte = s[*byte as usize];
    }
}

fn inv_sub_bytes(state: &mut [u8; 16]) {
    let s = inv_sbox();
    for byte in state.iter_mut() {
        *byte = s[*byte as usize];
    }
}

/// State layout is FIPS column-major: flat index `4c + r` holds row `r`,
/// column `c`; input byte order maps directly onto this layout.
fn shift_rows(state: &mut [u8; 16]) {
    let old = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[4 * c + r] = old[4 * ((c + r) % 4) + r];
        }
    }
}

fn inv_shift_rows(state: &mut [u8; 16]) {
    let old = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[4 * ((c + r) % 4) + r] = old[4 * c + r];
        }
    }
}

fn mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [
            state[4 * c],
            state[4 * c + 1],
            state[4 * c + 2],
            state[4 * c + 3],
        ];
        state[4 * c] = xtime(col[0]) ^ (xtime(col[1]) ^ col[1]) ^ col[2] ^ col[3];
        state[4 * c + 1] = col[0] ^ xtime(col[1]) ^ (xtime(col[2]) ^ col[2]) ^ col[3];
        state[4 * c + 2] = col[0] ^ col[1] ^ xtime(col[2]) ^ (xtime(col[3]) ^ col[3]);
        state[4 * c + 3] = (xtime(col[0]) ^ col[0]) ^ col[1] ^ col[2] ^ xtime(col[3]);
    }
}

fn inv_mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [
            state[4 * c],
            state[4 * c + 1],
            state[4 * c + 2],
            state[4 * c + 3],
        ];
        state[4 * c] = gf8_mul(col[0], 0x0E)
            ^ gf8_mul(col[1], 0x0B)
            ^ gf8_mul(col[2], 0x0D)
            ^ gf8_mul(col[3], 0x09);
        state[4 * c + 1] = gf8_mul(col[0], 0x09)
            ^ gf8_mul(col[1], 0x0E)
            ^ gf8_mul(col[2], 0x0B)
            ^ gf8_mul(col[3], 0x0D);
        state[4 * c + 2] = gf8_mul(col[0], 0x0D)
            ^ gf8_mul(col[1], 0x09)
            ^ gf8_mul(col[2], 0x0E)
            ^ gf8_mul(col[3], 0x0B);
        state[4 * c + 3] = gf8_mul(col[0], 0x0B)
            ^ gf8_mul(col[1], 0x0D)
            ^ gf8_mul(col[2], 0x09)
            ^ gf8_mul(col[3], 0x0E);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn hex16(s: &str) -> [u8; 16] {
        hex(s).try_into().unwrap()
    }

    #[test]
    fn sbox_known_entries() {
        let s = sbox();
        assert_eq!(s[0x00], 0x63);
        assert_eq!(s[0x01], 0x7C);
        assert_eq!(s[0x53], 0xED);
        assert_eq!(s[0xFF], 0x16);
    }

    #[test]
    fn sbox_is_a_permutation_with_no_fixed_points() {
        let s = sbox();
        let mut seen = [false; 256];
        for (x, &v) in s.iter().enumerate() {
            assert!(!seen[v as usize], "duplicate S-box output");
            seen[v as usize] = true;
            assert_ne!(x as u8, v, "AES S-box has no fixed points");
            assert_ne!(x as u8, !v, "AES S-box has no anti-fixed points");
        }
    }

    #[test]
    fn inv_sbox_inverts() {
        let (s, inv) = (sbox(), inv_sbox());
        for x in 0..=255usize {
            assert_eq!(inv[s[x] as usize] as usize, x);
        }
    }

    #[test]
    fn fips197_appendix_b_aes128() {
        let aes = Aes::new_128(hex16("2b7e151628aed2a6abf7158809cf4f3c"));
        let ct = aes.encrypt_block(hex16("3243f6a8885a308d313198a2e0370734"));
        assert_eq!(ct, hex16("3925841d02dc09fbdc118597196a0b32"));
    }

    #[test]
    fn fips197_appendix_c1_aes128() {
        let aes = Aes::new_128(hex16("000102030405060708090a0b0c0d0e0f"));
        let pt = hex16("00112233445566778899aabbccddeeff");
        let ct = aes.encrypt_block(pt);
        assert_eq!(ct, hex16("69c4e0d86a7b0430d8cdb78070b4c55a"));
        assert_eq!(aes.decrypt_block(ct), pt);
    }

    #[test]
    fn fips197_appendix_c3_aes256() {
        let key: [u8; 32] = hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
            .try_into()
            .unwrap();
        let aes = Aes::new_256(key);
        let pt = hex16("00112233445566778899aabbccddeeff");
        let ct = aes.encrypt_block(pt);
        assert_eq!(ct, hex16("8ea2b7ca516745bfeafc49904b496089"));
        assert_eq!(aes.decrypt_block(ct), pt);
    }

    #[test]
    fn round_counts() {
        assert_eq!(Aes::new_128([0; 16]).rounds(), 10);
        assert_eq!(Aes::new_256([0; 32]).rounds(), 14);
    }

    #[test]
    fn round_trip_many_random_blocks() {
        use clme_types::rng::Xoshiro256;
        let mut rng = Xoshiro256::seed_from(11);
        let mut key = [0u8; 16];
        rng.fill_bytes(&mut key);
        let aes = Aes::new_128(key);
        for _ in 0..64 {
            let mut pt = [0u8; 16];
            rng.fill_bytes(&mut pt);
            assert_eq!(aes.decrypt_block(aes.encrypt_block(pt)), pt);
        }
    }

    #[test]
    fn avalanche_on_plaintext() {
        let aes = Aes::new_128([7; 16]);
        let base = aes.encrypt_block([0; 16]);
        let mut flipped_in = [0u8; 16];
        flipped_in[0] = 1;
        let flipped = aes.encrypt_block(flipped_in);
        let differing: u32 = base
            .iter()
            .zip(flipped.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert!(
            (40..=90).contains(&differing),
            "weak diffusion: {differing}"
        );
    }

    #[test]
    fn debug_hides_key_material() {
        let aes = Aes::new_128([0x41; 16]);
        let repr = format!("{aes:?}");
        assert!(repr.contains("rounds"));
        assert!(!repr.contains("41, 41"), "round keys must not leak: {repr}");
    }

    #[test]
    fn shift_rows_inverse_property() {
        let mut state: [u8; 16] = core::array::from_fn(|i| i as u8);
        let orig = state;
        shift_rows(&mut state);
        assert_ne!(state, orig);
        inv_shift_rows(&mut state);
        assert_eq!(state, orig);
    }

    #[test]
    fn mix_columns_inverse_property() {
        let mut state: [u8; 16] = core::array::from_fn(|i| (i * 17) as u8);
        let orig = state;
        mix_columns(&mut state);
        inv_mix_columns(&mut state);
        assert_eq!(state, orig);
    }
}
