//! The bit-exact functional model of a Counter-light-encrypted memory.
//!
//! Where the engines in this crate model *timing*, [`MemoryImage`] models
//! *bytes*: every 64-byte block is stored as 8 ciphertext lanes + MAC +
//! parity (Fig. 12), encrypted with real AES through either the XTS
//! counterless path or the combined (address-AES ⊗ counter-AES) one-time
//! pad of Fig. 15b, authenticated with the real MACs of Section II, with
//! the EncryptionMetadata word XORed into the parity. Reads decode the
//! MetaWord from the parity, verify the MAC, and — on failure — run the
//! full Fig. 14 trial-and-error correction with the entropy filter.
//!
//! Writes in counter mode advance the block's counter onto a memoized
//! value (RMCC policy) and record the write in the counter integrity
//! tree; writes in counterless mode record the flag. A counter reaching
//! the flag value switches the block to counterless permanently.

use crate::epoch::WritebackMode;
use clme_counters::layout::MetadataLayout;
use clme_counters::memo::MemoTable;
use clme_counters::tree::IntegrityTree;
use clme_crypto::combine::combine_nonlinear;
use clme_crypto::keys::KeyMaterial;
use clme_crypto::mac::counterless_mac;
use clme_crypto::otp::xor64;
use clme_ecc::codec::{decode_meta, encode};
use clme_ecc::correct::{verify_or_correct, CorrectionOutcome, MacVerifier};
use clme_ecc::encmeta::{EncMeta, MetaWord, MAX_COUNTER};
use clme_ecc::layout::{Chip, EncodedBlock};
use clme_types::BlockAddr;
use std::collections::{HashMap, HashSet};

/// Reads always run the Section IV-E entropy disambiguation when a
/// correction trial finds several candidates.
const ENTROPY_FILTER: bool = true;

/// Why a read failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadError {
    /// The block was never written (nothing to decrypt).
    NeverWritten,
    /// MAC verification failed and no correction trial succeeded — either
    /// tampering or a multi-chip error (a DUE).
    Uncorrectable,
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::NeverWritten => f.write_str("block was never written"),
            ReadError::Uncorrectable => f.write_str("detected uncorrectable error or tampering"),
        }
    }
}

impl std::error::Error for ReadError {}

/// Counters of functional activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ImageStats {
    /// Successful reads.
    pub reads: u64,
    /// Writes (either mode).
    pub writes: u64,
    /// Counter-mode writes.
    pub counter_writes: u64,
    /// Counterless writes.
    pub counterless_writes: u64,
    /// Reads repaired by the Fig. 14 correction flow.
    pub corrections: u64,
    /// Reads that ended in a detected uncorrectable error.
    pub dues: u64,
}

/// A bit-exact encrypted memory image.
///
/// # Examples
///
/// ```
/// use clme_core::functional::MemoryImage;
/// use clme_types::PhysAddr;
///
/// let mut mem = MemoryImage::new(1 << 20, [7u8; 32]);
/// let block = PhysAddr::new(0x400).block();
/// mem.write_block(block, &[0xAB; 64]);
/// assert_eq!(mem.read_block(block).unwrap(), [0xAB; 64]);
/// ```
pub struct MemoryImage {
    keys: KeyMaterial,
    layout: MetadataLayout,
    blocks: HashMap<u64, EncodedBlock>,
    counters: HashMap<u64, u64>,
    permanent_counterless: HashSet<u64>,
    tree: IntegrityTree,
    memo: MemoTable,
    wb_mode: WritebackMode,
    stats: ImageStats,
}

impl std::fmt::Debug for MemoryImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryImage")
            .field("data_blocks", &self.layout.data_blocks())
            .field("written_blocks", &self.blocks.len())
            .field("wb_mode", &self.wb_mode)
            .finish_non_exhaustive()
    }
}

impl MemoryImage {
    /// Creates an encrypted memory of `size_bytes` (rounded down to whole
    /// blocks) keyed from `master`.
    ///
    /// # Panics
    ///
    /// Panics if `size_bytes` is smaller than one block.
    pub fn new(size_bytes: u64, master: [u8; 32]) -> MemoryImage {
        let data_blocks = size_bytes / clme_types::BLOCK_BYTES;
        assert!(data_blocks > 0, "memory must hold at least one block");
        let layout = MetadataLayout::new(data_blocks);
        let mut memo = MemoTable::new(128);
        let keys = KeyMaterial::from_master(master);
        memo.insert(0, keys.otp().counter_only_aes(0));
        MemoryImage {
            tree: IntegrityTree::new(
                layout.counter_blocks() as usize,
                *keys.counterless_mac_key(),
            ),
            keys,
            layout,
            blocks: HashMap::new(),
            counters: HashMap::new(),
            permanent_counterless: HashSet::new(),
            memo,
            wb_mode: WritebackMode::Counter,
            stats: ImageStats::default(),
        }
    }

    /// Selects the mode used for subsequent writes (driven by the epoch
    /// monitor in the full system).
    pub fn set_writeback_mode(&mut self, mode: WritebackMode) {
        self.wb_mode = mode;
    }

    /// Functional statistics.
    pub fn stats(&self) -> ImageStats {
        self.stats
    }

    /// The block's current counter value.
    pub fn counter_of(&self, block: BlockAddr) -> u64 {
        self.counters.get(&block.raw()).copied().unwrap_or(0)
    }

    /// Whether the block's *stored* metadata marks it counterless.
    pub fn is_counterless(&self, block: BlockAddr) -> bool {
        self.blocks
            .get(&block.raw())
            .map(|b| decode_meta(b).meta.is_counterless())
            .unwrap_or(false)
    }

    /// Encrypts and stores `plaintext` at `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is outside the data region.
    pub fn write_block(&mut self, block: BlockAddr, plaintext: &[u8; 64]) {
        assert!(
            block.raw() < self.layout.data_blocks(),
            "write beyond data region"
        );
        self.stats.writes += 1;
        let counterless = match self.wb_mode {
            WritebackMode::Counterless => true,
            WritebackMode::Counter => {
                if self.permanent_counterless.contains(&block.raw()) {
                    true
                } else {
                    let current = self.counter_of(block);
                    let next = self.memo.advance(current, MAX_COUNTER as u64 + 1);
                    if next > MAX_COUNTER as u64 {
                        self.permanent_counterless.insert(block.raw());
                        true
                    } else {
                        // Section IV-B: before using the counter for a
                        // writeback, its integrity-tree path must verify —
                        // otherwise a replayed counter would lead to pad
                        // reuse (Fig. 10).
                        let leaf = self.layout.tree_leaf_of(block);
                        assert!(
                            self.tree.verify(leaf),
                            "counter metadata failed integrity verification (replay?)"
                        );
                        if !self.memo.probe(next) {
                            self.memo
                                .insert(next, self.keys.otp().counter_only_aes(next));
                        }
                        self.counters.insert(block.raw(), next);
                        self.tree.record_write(leaf);
                        let stored = self.encrypt_counter_mode(block, plaintext, next);
                        self.blocks.insert(block.raw(), stored);
                        self.stats.counter_writes += 1;
                        false
                    }
                }
            }
        };
        if counterless {
            let stored = self.encrypt_counterless(block, plaintext);
            self.blocks.insert(block.raw(), stored);
            self.stats.counterless_writes += 1;
        }
    }

    /// Fetches, verifies, corrects if needed, and decrypts `block`.
    ///
    /// # Errors
    ///
    /// [`ReadError::NeverWritten`] if the block has no contents;
    /// [`ReadError::Uncorrectable`] on tampering or multi-chip errors.
    pub fn read_block(&mut self, block: BlockAddr) -> Result<[u8; 64], ReadError> {
        let stored = *self
            .blocks
            .get(&block.raw())
            .ok_or(ReadError::NeverWritten)?;
        let verifier = BlockVerifier {
            keys: &self.keys,
            addr: block.raw(),
        };
        let candidates = [
            MetaWord::counterless(),
            MetaWord::counter(self.counter_of(block) as u32),
        ];
        match verify_or_correct(&stored, &candidates, &verifier, ENTROPY_FILTER) {
            CorrectionOutcome::Clean { meta } => {
                self.stats.reads += 1;
                Ok(verifier.decrypt(&stored.data(), meta))
            }
            CorrectionOutcome::Corrected(correction) => {
                // Repair the stored copy (scrubbing).
                self.blocks.insert(block.raw(), correction.block);
                self.stats.corrections += 1;
                self.stats.reads += 1;
                Ok(verifier.decrypt(&correction.block.data(), correction.meta))
            }
            CorrectionOutcome::Uncorrectable { .. } => {
                self.stats.dues += 1;
                Err(ReadError::Uncorrectable)
            }
        }
    }

    /// Raw stored block (for attacks, fault injection, and inspection).
    pub fn raw_block(&self, block: BlockAddr) -> Option<EncodedBlock> {
        self.blocks.get(&block.raw()).copied()
    }

    /// Overwrites the raw stored block — the physical-attack primitive
    /// (bus probe / replay).
    pub fn overwrite_raw(&mut self, block: BlockAddr, stored: EncodedBlock) {
        self.blocks.insert(block.raw(), stored);
    }

    /// Attack/test hook: physically replays a counter-tree leaf (the
    /// counter and its group MAC) to an older snapshot, as a memory-bus
    /// attacker would. The next counter-mode write to any block under
    /// that leaf must detect it.
    pub fn replay_tree_leaf(&mut self, block: BlockAddr, snapshot: (u64, u64)) {
        let leaf = self.layout.tree_leaf_of(block);
        self.tree.tamper_leaf(leaf, snapshot.0, snapshot.1);
    }

    /// Snapshot of a block's counter-tree leaf for a later replay.
    pub fn snapshot_tree_leaf(&self, block: BlockAddr) -> (u64, u64) {
        self.tree.snapshot_leaf(self.layout.tree_leaf_of(block))
    }

    /// Attack/test hook: reverts the authoritative counter state for
    /// `block`, emulating a physical replay of the counter block alongside
    /// the data block (reads never consult the integrity tree, so this
    /// models the full counterless-equivalent replay of Section IV-F).
    pub fn set_counter_for_test(&mut self, block: BlockAddr, counter: u64) {
        self.counters.insert(block.raw(), counter);
    }

    /// Corrupts one chip's lane of a stored block with `flips`
    /// (XOR pattern), for reliability experiments.
    ///
    /// # Panics
    ///
    /// Panics if the block was never written.
    pub fn corrupt_chip(&mut self, block: BlockAddr, chip: Chip, flips: u64) {
        let stored = self
            .blocks
            .get_mut(&block.raw())
            .expect("cannot corrupt an unwritten block");
        stored.set_lane(chip, stored.lane(chip) ^ flips);
    }

    /// Generates the combined one-time pad of Fig. 15b for
    /// (`block`, `counter`).
    pub fn pad_for(&self, block: BlockAddr, counter: u64) -> [u8; 64] {
        pad_for(&self.keys, block.raw(), counter)
    }

    fn encrypt_counter_mode(
        &self,
        block: BlockAddr,
        plaintext: &[u8; 64],
        counter: u64,
    ) -> EncodedBlock {
        let pad = pad_for(&self.keys, block.raw(), counter);
        let ciphertext = xor64(plaintext, &pad);
        let otp_trunc = u64::from_le_bytes(pad[..8].try_into().expect("64-byte pad"));
        let mac = self
            .keys
            .counter_mode_mac()
            .tag(otp_trunc, plaintext, counter as u32);
        encode(&ciphertext, mac, MetaWord::counter(counter as u32))
    }

    fn encrypt_counterless(&self, block: BlockAddr, plaintext: &[u8; 64]) -> EncodedBlock {
        let meta = MetaWord::counterless();
        let ciphertext = self.keys.xts().encrypt_block64(block.raw(), plaintext);
        let mac = counterless_mac(
            self.keys.counterless_mac_key(),
            block.raw(),
            &ciphertext,
            meta.meta.to_raw(),
        );
        encode(&ciphertext, mac, meta)
    }
}

/// Computes the combined (address-AES ⊗ counter-AES) pad for a block.
fn pad_for(keys: &KeyMaterial, addr: u64, counter: u64) -> [u8; 64] {
    let counter_aes = keys.otp().counter_only_aes(counter);
    let mut pad = [0u8; 64];
    for j in 0..4 {
        let addr_aes = keys.otp().address_only_aes(addr, j as u32);
        let word = combine_nonlinear(addr_aes, counter_aes);
        pad[16 * j..16 * (j + 1)].copy_from_slice(&word);
    }
    pad
}

/// The MAC/decryption oracle the generic correction procedure needs,
/// bound to one block address.
struct BlockVerifier<'a> {
    keys: &'a KeyMaterial,
    addr: u64,
}

impl MacVerifier for BlockVerifier<'_> {
    fn verify(&self, ciphertext: &[u8; 64], mac: u64, meta: MetaWord) -> bool {
        if meta.aux != 0 {
            // This reproduction writes aux = 0; any other value is a
            // corrupted MetaWord.
            return false;
        }
        match meta.meta {
            EncMeta::Counterless => {
                mac == counterless_mac(
                    self.keys.counterless_mac_key(),
                    self.addr,
                    ciphertext,
                    meta.meta.to_raw(),
                )
            }
            EncMeta::Counter(counter) => {
                let pad = pad_for(self.keys, self.addr, counter as u64);
                let plaintext = xor64(ciphertext, &pad);
                let otp_trunc = u64::from_le_bytes(pad[..8].try_into().expect("64-byte pad"));
                mac == self
                    .keys
                    .counter_mode_mac()
                    .tag(otp_trunc, &plaintext, counter)
            }
        }
    }

    fn decrypt(&self, ciphertext: &[u8; 64], meta: MetaWord) -> [u8; 64] {
        match meta.meta {
            EncMeta::Counterless => self.keys.xts().decrypt_block64(self.addr, ciphertext),
            EncMeta::Counter(counter) => {
                xor64(ciphertext, &pad_for(self.keys, self.addr, counter as u64))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clme_ecc::inject::FaultInjector;

    fn image() -> MemoryImage {
        MemoryImage::new(1 << 20, [0x5A; 32])
    }

    fn structured_plaintext(seed: u8) -> [u8; 64] {
        // Low-entropy, program-like data (small repeated words).
        let mut pt = [0u8; 64];
        for (i, chunk) in pt.chunks_mut(4).enumerate() {
            chunk.copy_from_slice(&((i as u32 % 4) + seed as u32).to_le_bytes());
        }
        pt
    }

    #[test]
    fn counter_mode_round_trip() {
        let mut mem = image();
        let block = BlockAddr::new(10);
        let pt = structured_plaintext(1);
        mem.write_block(block, &pt);
        assert!(!mem.is_counterless(block));
        assert_eq!(mem.read_block(block).unwrap(), pt);
        assert_eq!(mem.stats().counter_writes, 1);
    }

    #[test]
    fn counterless_round_trip() {
        let mut mem = image();
        mem.set_writeback_mode(WritebackMode::Counterless);
        let block = BlockAddr::new(20);
        let pt = structured_plaintext(2);
        mem.write_block(block, &pt);
        assert!(mem.is_counterless(block));
        assert_eq!(mem.read_block(block).unwrap(), pt);
        assert_eq!(mem.stats().counterless_writes, 1);
    }

    #[test]
    fn mode_switch_round_trips_both_ways() {
        let mut mem = image();
        let block = BlockAddr::new(30);
        mem.write_block(block, &structured_plaintext(3));
        mem.set_writeback_mode(WritebackMode::Counterless);
        let pt2 = structured_plaintext(4);
        mem.write_block(block, &pt2);
        assert!(mem.is_counterless(block));
        assert_eq!(mem.read_block(block).unwrap(), pt2);
        mem.set_writeback_mode(WritebackMode::Counter);
        let pt3 = structured_plaintext(5);
        mem.write_block(block, &pt3);
        assert!(!mem.is_counterless(block));
        assert_eq!(mem.read_block(block).unwrap(), pt3);
    }

    #[test]
    fn never_written_errors() {
        let mut mem = image();
        assert_eq!(
            mem.read_block(BlockAddr::new(1)),
            Err(ReadError::NeverWritten)
        );
    }

    #[test]
    fn counters_advance_monotonically_per_write() {
        let mut mem = image();
        let block = BlockAddr::new(40);
        let mut last = 0;
        for i in 0..10u8 {
            mem.write_block(block, &structured_plaintext(i));
            let c = mem.counter_of(block);
            assert!(c > last);
            last = c;
        }
    }

    #[test]
    fn ciphertexts_differ_across_writes_of_same_data() {
        // Counter mode: fresh counter ⇒ fresh ciphertext even for equal
        // plaintext at the same address (blocks the ciphertext
        // side-channel).
        let mut mem = image();
        let block = BlockAddr::new(50);
        let pt = structured_plaintext(6);
        mem.write_block(block, &pt);
        let first = mem.raw_block(block).unwrap();
        mem.write_block(block, &pt);
        let second = mem.raw_block(block).unwrap();
        assert_ne!(first.lanes, second.lanes);
    }

    #[test]
    fn counterless_ciphertext_is_deterministic() {
        let mut mem = image();
        mem.set_writeback_mode(WritebackMode::Counterless);
        let block = BlockAddr::new(51);
        let pt = structured_plaintext(7);
        mem.write_block(block, &pt);
        let first = mem.raw_block(block).unwrap();
        mem.write_block(block, &pt);
        let second = mem.raw_block(block).unwrap();
        assert_eq!(first, second, "XTS is deterministic — the side channel");
    }

    #[test]
    fn every_single_chip_error_is_corrected_counter_mode() {
        let mut mem = image();
        let block = BlockAddr::new(60);
        let pt = structured_plaintext(8);
        mem.write_block(block, &pt);
        let mut injector = FaultInjector::new(3);
        for chip in Chip::all() {
            let mut bad = mem.raw_block(block).unwrap();
            injector.corrupt_chip(&mut bad, chip);
            mem.overwrite_raw(block, bad);
            assert_eq!(mem.read_block(block).unwrap(), pt, "chip {chip}");
        }
        assert_eq!(mem.stats().corrections, 10);
        assert_eq!(mem.stats().dues, 0);
    }

    #[test]
    fn every_single_chip_error_is_corrected_counterless() {
        let mut mem = image();
        mem.set_writeback_mode(WritebackMode::Counterless);
        let block = BlockAddr::new(61);
        let pt = structured_plaintext(9);
        mem.write_block(block, &pt);
        let mut injector = FaultInjector::new(4);
        for chip in Chip::all() {
            let mut bad = mem.raw_block(block).unwrap();
            injector.corrupt_chip(&mut bad, chip);
            mem.overwrite_raw(block, bad);
            assert_eq!(mem.read_block(block).unwrap(), pt, "chip {chip}");
        }
    }

    #[test]
    fn correction_repairs_the_stored_copy() {
        let mut mem = image();
        let block = BlockAddr::new(62);
        mem.write_block(block, &structured_plaintext(10));
        let clean = mem.raw_block(block).unwrap();
        mem.corrupt_chip(block, Chip::Data(2), 0xFFFF);
        mem.read_block(block).unwrap();
        assert_eq!(mem.raw_block(block).unwrap(), clean, "scrubbing restores");
    }

    #[test]
    fn double_chip_error_is_due() {
        let mut mem = image();
        let block = BlockAddr::new(63);
        mem.write_block(block, &structured_plaintext(11));
        mem.corrupt_chip(block, Chip::Data(0), 0x1);
        mem.corrupt_chip(block, Chip::Data(5), 0x2);
        assert_eq!(mem.read_block(block), Err(ReadError::Uncorrectable));
        assert_eq!(mem.stats().dues, 1);
    }

    #[test]
    fn tampering_ciphertext_is_detected() {
        let mut mem = image();
        let block = BlockAddr::new(64);
        mem.write_block(block, &structured_plaintext(12));
        let mut tampered = mem.raw_block(block).unwrap();
        // Flip bits in two lanes — not a single-chip pattern.
        tampered.lanes[1] ^= 0xDEAD;
        tampered.mac ^= 0xBEEF;
        mem.overwrite_raw(block, tampered);
        assert_eq!(mem.read_block(block), Err(ReadError::Uncorrectable));
    }

    #[test]
    fn whole_block_replay_is_not_detected() {
        // Counter-light matches counterless security: replaying the whole
        // {data, MAC, parity} tuple passes (Section IV-F: "an attacker
        // can always replay the whole data block").
        let mut mem = image();
        let block = BlockAddr::new(65);
        let old_pt = structured_plaintext(13);
        mem.write_block(block, &old_pt);
        let old_raw = mem.raw_block(block).unwrap();
        let old_counter = mem.counter_of(block);
        mem.write_block(block, &structured_plaintext(14));
        // Physical replay of the whole block.
        mem.overwrite_raw(block, old_raw);
        // The read needs the *old* counter to verify — which the replayed
        // parity still encodes. The MAC check passes.
        mem.counters.insert(block.raw(), old_counter);
        assert_eq!(mem.read_block(block).unwrap(), old_pt);
    }

    #[test]
    fn memoized_pads_match_recomputed() {
        let mem = image();
        let pad_a = mem.pad_for(BlockAddr::new(70), 5);
        let pad_b = mem.pad_for(BlockAddr::new(70), 5);
        assert_eq!(pad_a, pad_b);
        assert_ne!(pad_a, mem.pad_for(BlockAddr::new(70), 6));
        assert_ne!(pad_a, mem.pad_for(BlockAddr::new(71), 5));
    }

    #[test]
    #[should_panic(expected = "integrity verification")]
    fn counter_replay_is_caught_on_the_write_path() {
        let mut mem = image();
        let block = BlockAddr::new(80);
        mem.write_block(block, &structured_plaintext(20));
        let old = mem.snapshot_tree_leaf(block);
        mem.write_block(block, &structured_plaintext(21));
        // Physical replay of the counter metadata; the next counter-mode
        // write must refuse to reuse the replayed counter state.
        mem.replay_tree_leaf(block, old);
        mem.write_block(block, &structured_plaintext(22));
    }

    #[test]
    #[should_panic(expected = "beyond data region")]
    fn write_outside_data_region_panics() {
        let mut mem = MemoryImage::new(64 * 64, [0; 32]);
        mem.write_block(BlockAddr::new(64), &[0; 64]);
    }
}
