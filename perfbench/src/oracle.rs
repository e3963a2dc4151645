//! The correctness oracle: the plaintext every block must hold.
//!
//! A block's content is a pure function of (seed, address, version),
//! so the model keeps one version number per block instead of its
//! bytes. Version 0 is the all-zero block a fresh layer starts with.

use clme_mem::{Block, BLOCK_BYTES};
use clme_types::rng::SplitMix64;
use std::sync::atomic::{AtomicU64, Ordering};

/// The bytes of version `version` of block `addr` under `seed`.
pub fn plaintext(seed: u64, addr: u64, version: u64) -> Block {
    let mut block = [0u8; BLOCK_BYTES];
    if version == 0 {
        return block;
    }
    let mut rng =
        SplitMix64::new(seed ^ addr.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ version.rotate_left(29));
    for lane in block.chunks_exact_mut(8) {
        lane.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    block
}

/// The last version written to every block.
///
/// Each block is only ever written and checked by the one client
/// thread that owns it, and the main thread reads the model only after
/// joining the clients, so `Relaxed` suffices: the counters publish no
/// other data.
pub struct Model {
    seed: u64,
    versions: Vec<AtomicU64>,
}

impl Model {
    /// A model of `blocks` blocks, all at `version`.
    pub fn new(seed: u64, blocks: u64, version: u64) -> Model {
        Model {
            seed,
            versions: (0..blocks).map(|_| AtomicU64::new(version)).collect(),
        }
    }

    /// What a read of `addr` must return.
    pub fn expected(&self, addr: u64) -> Block {
        plaintext(
            self.seed,
            addr,
            self.versions[addr as usize].load(Ordering::Relaxed),
        )
    }

    /// Advances `addr` to its next version and returns the bytes to
    /// write. Duplicate addresses in one batch apply in slice order, as
    /// `batch_write` does.
    pub fn next_write(&self, addr: u64) -> Block {
        let version = self.versions[addr as usize].fetch_add(1, Ordering::Relaxed) + 1;
        plaintext(self.seed, addr, version)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versions_are_distinct_and_reproducible() {
        assert_eq!(plaintext(1, 5, 0), [0u8; BLOCK_BYTES]);
        assert_eq!(plaintext(1, 5, 3), plaintext(1, 5, 3));
        assert_ne!(plaintext(1, 5, 3), plaintext(1, 5, 4));
        assert_ne!(plaintext(1, 5, 3), plaintext(1, 6, 3));
        assert_ne!(plaintext(1, 5, 3), plaintext(2, 5, 3));
    }

    #[test]
    fn model_tracks_the_last_write() {
        let model = Model::new(9, 4, 0);
        assert_eq!(model.expected(2), [0u8; BLOCK_BYTES]);
        let first = model.next_write(2);
        let second = model.next_write(2);
        assert_ne!(first, second);
        assert_eq!(model.expected(2), second);
    }
}
