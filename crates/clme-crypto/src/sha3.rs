//! Keccak-f\[1600\] and SHA3-256 (FIPS 202), from scratch.
//!
//! Counterless memory encryption computes its per-block MAC with SHA-3
//! (Intel MKTME, paper Section II-A). The functional memory model uses
//! [`sha3_256`] through [`crate::mac::counterless_mac`]; the timing model
//! only uses the 1 ns latency parameter from Table I.
//!
//! `clme-mem` seals its tree-node and counter words with [`sha3_tag64`]
//! tags over 138–141-byte inputs, just past the 136-byte rate, so each
//! tag costs two permutations. Where it has many such words at once (a
//! write batch's walk and commit, the boot and rekey sweeps) it tags
//! them through [`sha3_tag64_batch`], which on a CPU with AVX-512F runs
//! eight sponges side by side through one eight-way permutation
//! (`hw::keccak_f1600_x8`). [`sha3_tag64_batch_portable`] is the same
//! computation one scalar sponge at a time; both give identical tags.

use crate::hw;

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

/// Computes `out[i] = sha3_tag64(inputs[i], &[])` for every message:
/// each input is a whole message, domain included. On a CPU with
/// AVX-512F the messages go through the eight-way permutation eight at
/// a time; elsewhere this is [`sha3_tag64_batch_portable`].
///
/// # Panics
///
/// If `inputs` and `out` differ in length.
///
/// # Examples
///
/// ```
/// use clme_crypto::sha3::{sha3_tag64, sha3_tag64_batch};
///
/// let mut tags = [0u64; 2];
/// sha3_tag64_batch(&[b"dom:one", b"dom:two"], &mut tags);
/// assert_eq!(tags[1], sha3_tag64(b"dom:", &[b"two"]));
/// ```
pub fn sha3_tag64_batch(inputs: &[&[u8]], out: &mut [u64]) {
    assert_eq!(inputs.len(), out.len(), "one tag per input");
    if batch_uses_hardware() {
        for (group, tags) in inputs.chunks(8).zip(out.chunks_mut(8)) {
            tag64_x8(group, tags);
        }
    } else {
        sha3_tag64_batch_portable(inputs, out);
    }
}

/// [`sha3_tag64_batch`] on the portable scalar sponge, one message at a
/// time: the reference the eight-way path is checked against.
///
/// # Panics
///
/// If `inputs` and `out` differ in length.
pub fn sha3_tag64_batch_portable(inputs: &[&[u8]], out: &mut [u64]) {
    assert_eq!(inputs.len(), out.len(), "one tag per input");
    for (input, tag) in inputs.iter().zip(out.iter_mut()) {
        *tag = sha3_tag64(input, &[]);
    }
}

/// Whether [`sha3_tag64_batch`] runs the AVX-512F eight-way permutation
/// on this CPU (CPUID-probed; the standard library caches the answer).
pub fn batch_uses_hardware() -> bool {
    hw::avx512_detected()
}

/// Up to eight tags through one eight-way sponge. Lane `s` absorbs
/// message `s`'s padded blocks; every permutation runs on all eight
/// states, and a message's tag is taken right after its last block, so
/// the extra permutations a shorter message sees change nothing. Unused
/// lanes permute a zero state.
fn tag64_x8(group: &[&[u8]], tags: &mut [u64]) {
    let mut blocks = [0usize; 8];
    for (count, msg) in blocks.iter_mut().zip(group) {
        *count = msg.len() / SHA3_256_RATE + 1;
    }
    let rounds = blocks.iter().copied().max().unwrap_or(0);
    let mut lanes = [[0u64; 8]; 25];
    for round in 0..rounds {
        for (s, msg) in group.iter().enumerate() {
            if round < blocks[s] {
                let block = padded_block(msg, round);
                for (lane, bytes) in lanes.iter_mut().zip(block.chunks_exact(8)) {
                    lane[s] ^= u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"));
                }
            }
        }
        // SAFETY: `sha3_tag64_batch` calls this only when
        // `hw::avx512_detected()` returned true.
        unsafe { hw::keccak_f1600_x8(&mut lanes, &RC) };
        for (s, tag) in tags.iter_mut().enumerate() {
            if blocks[s] == round + 1 {
                *tag = lanes[0][s];
            }
        }
    }
}

/// Block `index` of `msg` after SHA-3 padding; the message spans
/// `msg.len() / RATE + 1` blocks.
fn padded_block(msg: &[u8], index: usize) -> [u8; SHA3_256_RATE] {
    let mut block = [0u8; SHA3_256_RATE];
    let start = index * SHA3_256_RATE;
    let tail = &msg[start.min(msg.len())..];
    let take = tail.len().min(SHA3_256_RATE);
    block[..take].copy_from_slice(&tail[..take]);
    if take < SHA3_256_RATE {
        pad_final(&mut block, take);
    }
    block
}

/// Pads the final block, which holds `filled` message bytes: SHA-3
/// domain bits 0b01, then pad10*1.
fn pad_final(block: &mut [u8; SHA3_256_RATE], filled: usize) {
    block[filled] ^= 0x06;
    block[SHA3_256_RATE - 1] ^= 0x80;
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
        pad_final(&mut self.block, self.filled);
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

    /// Message lengths around the 136-byte rate and the 141-byte
    /// metadata MAC input.
    const RATE_EDGE_LENS: [usize; 8] = [0, 135, 136, 137, 141, 271, 272, 300];
    /// SHA3-256 of `len` bytes `(31 i + 7) mod 256` for each of
    /// `RATE_EDGE_LENS`, from an independent implementation (Python's
    /// `hashlib.sha3_256`).
    const RATE_EDGE_DIGESTS: [&str; 8] = [
        "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a",
        "27177c35076523ab12bf3c60c7e340ac833bee9017b0b9d273d25f1bc8759ce1",
        "bf55dd8c0b4dd0f226d019f9b85d74e3d77cd13409e1306665a44cc688a93d6e",
        "b88ad98270115d9a7d164a81476b4b1c999eac7a9b67cfe013c365496a599e11",
        "9ba17c66828e443791be85072c7e508b8127cc1b967fecf6d8e43213b73b437c",
        "0a4ee8fd7f5dc6285c6e3901fd80a20e0fed1d40e0bfb6e01b22b822e5b71009",
        "b323515ec9ee619c2c497029753e8a92bb26ef831e9523799cc7b0bfe3f912aa",
        "8d57366bec794c029941c74012219bf5536d97caf6a71d0b262f203df96165a6",
    ];

    #[test]
    fn rate_boundary_lengths() {
        let msgs: Vec<Vec<u8>> = RATE_EDGE_LENS
            .iter()
            .map(|&len| (0..len).map(|i| (31 * i + 7) as u8).collect())
            .collect();
        let mut expected_tags = Vec::new();
        for (msg, answer) in msgs.iter().zip(RATE_EDGE_DIGESTS) {
            let len = msg.len();
            let digest = hex(answer);
            assert_eq!(sha3_256(msg).to_vec(), digest, "sha3_256, len={len}");
            let tag = u64::from_le_bytes(digest[..8].try_into().unwrap());
            // The tag splits its message anywhere between domain and parts.
            let cut = len / 3;
            let parts: [&[u8]; 2] = [&msg[cut..len - cut / 2], &msg[len - cut / 2..]];
            assert_eq!(
                sha3_tag64(&msg[..cut], &parts),
                tag,
                "sha3_tag64, len={len}"
            );
            expected_tags.push(tag);
        }
        // Both batched paths, over one batch of all eight lengths and
        // over batches that spill past one eight-way group.
        let inputs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
        for n in [8, 9, 17] {
            let inputs: Vec<&[u8]> = inputs.iter().cycle().take(n).copied().collect();
            let expected: Vec<u64> = expected_tags.iter().cycle().take(n).copied().collect();
            let mut batched = vec![0u64; n];
            sha3_tag64_batch(&inputs, &mut batched);
            assert_eq!(batched, expected, "batch of {n}");
            let mut portable = vec![0u64; n];
            sha3_tag64_batch_portable(&inputs, &mut portable);
            assert_eq!(portable, expected, "portable batch of {n}");
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
