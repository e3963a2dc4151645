//! Keccak-f\[1600\] and SHA3-256 (FIPS 202), from scratch.
//!
//! Counterless memory encryption computes its per-block MAC with SHA-3
//! (Intel MKTME, paper Section II-A). The functional memory model uses
//! [`sha3_256`] through [`crate::mac::counterless_mac`]; the timing model
//! only uses the 1 ns latency parameter from Table I.

const ROUNDS: usize = 24;

const RC: [u64; ROUNDS] = [
    0x0000_0000_0000_0001,
    0x0000_0000_0000_8082,
    0x8000_0000_0000_808A,
    0x8000_0000_8000_8000,
    0x0000_0000_0000_808B,
    0x0000_0000_8000_0001,
    0x8000_0000_8000_8081,
    0x8000_0000_0000_8009,
    0x0000_0000_0000_008A,
    0x0000_0000_0000_0088,
    0x0000_0000_8000_8009,
    0x0000_0000_8000_000A,
    0x0000_0000_8000_808B,
    0x8000_0000_0000_008B,
    0x8000_0000_0000_8089,
    0x8000_0000_0000_8003,
    0x8000_0000_0000_8002,
    0x8000_0000_0000_0080,
    0x0000_0000_0000_800A,
    0x8000_0000_8000_000A,
    0x8000_0000_8000_8081,
    0x8000_0000_0000_8080,
    0x0000_0000_8000_0001,
    0x8000_0000_8000_8008,
];

/// Rho rotation offsets indexed by `x + 5y`.
const RHO: [u32; 25] = [
    0, 1, 62, 28, 27, //
    36, 44, 6, 55, 20, //
    3, 10, 43, 25, 39, //
    41, 45, 15, 21, 8, //
    18, 2, 61, 56, 14,
];

/// Applies the Keccak-f\[1600\] permutation in place.
///
/// State lanes are indexed `x + 5y` in little-endian u64 lanes, the FIPS
/// 202 convention.
pub fn keccak_f1600(state: &mut [u64; 25]) {
    for &rc in &RC {
        // Theta.
        let mut c = [0u64; 5];
        for (x, cx) in c.iter_mut().enumerate() {
            *cx = state[x] ^ state[x + 5] ^ state[x + 10] ^ state[x + 15] ^ state[x + 20];
        }
        for x in 0..5 {
            let d = c[(x + 4) % 5] ^ c[(x + 1) % 5].rotate_left(1);
            for y in 0..5 {
                state[x + 5 * y] ^= d;
            }
        }
        // Rho and Pi.
        let mut b = [0u64; 25];
        for x in 0..5 {
            for y in 0..5 {
                b[y + 5 * ((2 * x + 3 * y) % 5)] = state[x + 5 * y].rotate_left(RHO[x + 5 * y]);
            }
        }
        // Chi.
        for y in 0..5 {
            for x in 0..5 {
                state[x + 5 * y] =
                    b[x + 5 * y] ^ (!b[(x + 1) % 5 + 5 * y] & b[(x + 2) % 5 + 5 * y]);
            }
        }
        // Iota.
        state[0] ^= rc;
    }
}

/// SHA3-256 rate in bytes (1600 − 2·256 bits = 1088 bits).
pub const SHA3_256_RATE: usize = 136;

/// Computes the SHA3-256 digest of `data`.
///
/// # Examples
///
/// ```
/// use clme_crypto::sha3::sha3_256;
///
/// let digest = sha3_256(b"");
/// assert_eq!(digest[0], 0xA7); // FIPS 202 empty-message vector
/// ```
pub fn sha3_256(data: &[u8]) -> [u8; 32] {
    let mut sponge = Sponge::new();
    sponge.absorb(data);
    sponge.finish()
}

/// Computes a 64-bit MAC tag as the first 8 bytes of
/// `SHA3-256(domain || parts...)`; the shared keyed-hash helper behind the
/// counterless MAC and `clme-mem`'s metadata MACs. The parts are absorbed
/// in place through the sponge's rate-sized stack buffer, so a tag costs
/// no heap allocation.
pub fn sha3_tag64(domain: &[u8], parts: &[&[u8]]) -> u64 {
    let mut sponge = Sponge::new();
    sponge.absorb(domain);
    for part in parts {
        sponge.absorb(part);
    }
    let digest = sponge.finish();
    u64::from_le_bytes(digest[..8].try_into().expect("digest has 32 bytes"))
}

/// A SHA3-256 sponge that absorbs its message in pieces: bytes collect
/// in a rate-sized block, and every full block is XORed into the state
/// and permuted.
struct Sponge {
    state: [u64; 25],
    block: [u8; SHA3_256_RATE],
    filled: usize,
}

impl Sponge {
    fn new() -> Sponge {
        Sponge {
            state: [0; 25],
            block: [0; SHA3_256_RATE],
            filled: 0,
        }
    }

    fn absorb(&mut self, mut data: &[u8]) {
        while !data.is_empty() {
            let take = data.len().min(SHA3_256_RATE - self.filled);
            self.block[self.filled..self.filled + take].copy_from_slice(&data[..take]);
            self.filled += take;
            data = &data[take..];
            if self.filled == SHA3_256_RATE {
                self.permute_block();
            }
        }
    }

    fn permute_block(&mut self) {
        for (lane, bytes) in self.state.iter_mut().zip(self.block.chunks_exact(8)) {
            *lane ^= u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"));
        }
        keccak_f1600(&mut self.state);
        self.block = [0; SHA3_256_RATE];
        self.filled = 0;
    }

    /// Pads the final block (SHA-3 domain bits 0b01, then pad10*1),
    /// permutes, and squeezes 32 bytes (they fit in one rate block).
    fn finish(mut self) -> [u8; 32] {
        self.block[self.filled] ^= 0x06;
        self.block[SHA3_256_RATE - 1] ^= 0x80;
        self.permute_block();
        let mut out = [0u8; 32];
        for (chunk, lane) in out.chunks_mut(8).zip(&self.state) {
            chunk.copy_from_slice(&lane.to_le_bytes());
        }
        out
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

    #[test]
    fn empty_message_vector() {
        assert_eq!(
            sha3_256(b"").to_vec(),
            hex("a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a")
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            sha3_256(b"abc").to_vec(),
            hex("3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532")
        );
    }

    #[test]
    fn rate_boundary_lengths() {
        // Exercise messages straddling the 136-byte rate: 135, 136, 137.
        for len in [0usize, 1, 135, 136, 137, 272, 300] {
            let msg = vec![0xA5u8; len];
            let d1 = sha3_256(&msg);
            let d2 = sha3_256(&msg);
            assert_eq!(d1, d2);
            if len > 0 {
                let mut tweaked = msg.clone();
                tweaked[len / 2] ^= 1;
                assert_ne!(sha3_256(&tweaked), d1, "len={len}");
            }
        }
    }

    #[test]
    fn permutation_changes_state() {
        let mut state = [0u64; 25];
        keccak_f1600(&mut state);
        assert_ne!(state, [0u64; 25]);
        // Every lane should be touched after one permutation of the zero
        // state (iota seeds lane 0; theta/chi spread it everywhere).
        assert!(state.iter().all(|&lane| lane != 0));
        let after_one = state;
        keccak_f1600(&mut state);
        assert_ne!(state, after_one);
    }

    #[test]
    fn tag64_is_prefix_of_digest() {
        let tag = sha3_tag64(b"dom", &[b"part1", b"part2"]);
        let digest = sha3_256(b"dompart1part2");
        assert_eq!(tag, u64::from_le_bytes(digest[..8].try_into().unwrap()));
    }

    #[test]
    fn tag64_domain_separation() {
        assert_ne!(sha3_tag64(b"a", &[b"bc"]), sha3_tag64(b"ab", &[b"c"]) ^ 1);
        // Different domains with same payload differ.
        assert_ne!(sha3_tag64(b"ctr", &[b"x"]), sha3_tag64(b"ctl", &[b"x"]));
    }

    #[test]
    fn digest_distribution_sanity() {
        // Bits of the digest should be roughly balanced across inputs.
        let mut ones = 0u32;
        for i in 0..64u64 {
            let d = sha3_256(&i.to_le_bytes());
            ones += d.iter().map(|b| b.count_ones()).sum::<u32>();
        }
        let total = 64 * 256;
        let frac = ones as f64 / total as f64;
        assert!((0.45..0.55).contains(&frac), "bit balance off: {frac}");
    }
}
