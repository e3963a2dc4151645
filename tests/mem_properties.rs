//! Property-based round-trip tests for the `clme-mem` encryption layer:
//! SplitMix64-driven random interleavings of batch writes, batch reads,
//! and mid-stream `rekey()` sweeps, checked byte-for-byte against a
//! plaintext `BTreeMap` model, on both backends. A saturation threshold
//! low enough for hot blocks to overflow keeps both encryption modes
//! (counter and counterless) in play throughout. The group-commit
//! checks hold `batch_write` to the store that the same writes leave
//! when applied one block at a time, on success and on a mid-batch
//! integrity failure.

use clme::mem::{
    Block, EncryptionLayer, FileBackend, IntegrityError, LayerOptions, MemoryAdt, StoreBackend,
    TamperClass, VecBackend, PAGE_BLOCKS,
};
use clme::types::rng::SplitMix64;
use std::collections::BTreeMap;
use std::path::PathBuf;

const MASTER: [u8; 32] = [0x31; 32];
const SEED: u64 = 0x00C0_FFEE;
const BLOCKS: u64 = 300; // 5 pages, partial last page

fn options() -> LayerOptions {
    LayerOptions {
        // Low enough that the random stream pushes some blocks into
        // counterless mode, high enough that most stay counter-mode.
        counter_saturation: 6,
        ..LayerOptions::default()
    }
}

fn random_block(rng: &mut SplitMix64) -> Block {
    let mut block = [0u8; 64];
    for chunk in block.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    block
}

/// Runs `ops` random operations against the layer and a plaintext
/// model, verifying every read. Returns the model and rekeys performed.
fn drive(
    layer: &EncryptionLayer<impl StoreBackend>,
    rng: &mut SplitMix64,
    ops: usize,
) -> (BTreeMap<u64, Block>, usize) {
    let mut model: BTreeMap<u64, Block> = BTreeMap::new();
    let mut rekeys = 0usize;
    let mut master_round = 0u64;
    for op in 0..ops {
        match rng.below(10) {
            // Batch write of 1..=64 (addr, block) pairs; duplicate
            // addresses within a batch apply in slice order.
            0..=4 => {
                let len = 1 + rng.below(64) as usize;
                let batch: Vec<(u64, Block)> = (0..len)
                    .map(|_| (rng.below(BLOCKS), random_block(rng)))
                    .collect();
                layer.batch_write(&batch).expect("in-bounds write");
                for (addr, block) in batch {
                    model.insert(addr, block);
                }
            }
            // Batch read of 1..=64 addresses (duplicates allowed),
            // every block compared byte-for-byte against the model
            // (unwritten blocks read as zeros).
            5..=8 => {
                let len = 1 + rng.below(64) as usize;
                let addrs: Vec<u64> = (0..len).map(|_| rng.below(BLOCKS)).collect();
                let got = layer.batch_read(&addrs).expect("in-bounds read");
                for (addr, block) in addrs.iter().zip(&got) {
                    let want = model.get(addr).copied().unwrap_or([0u8; 64]);
                    assert_eq!(block, &want, "op {op}: block {addr:#x} diverged from model");
                }
            }
            // Rekey mid-stream: plaintext must be unaffected.
            _ => {
                master_round += 1;
                let mut new_master = MASTER;
                new_master[..8].copy_from_slice(&master_round.to_le_bytes());
                let report = layer.rekey(new_master).expect("rekey succeeds");
                assert_eq!(report.blocks, BLOCKS, "rekey must sweep every block");
                rekeys += 1;
            }
        }
    }
    (model, rekeys)
}

fn verify_final_state(layer: &EncryptionLayer<impl StoreBackend>, model: &BTreeMap<u64, Block>) {
    let addrs: Vec<u64> = (0..BLOCKS).collect();
    let got = layer.batch_read(&addrs).expect("full sweep reads");
    for (addr, block) in addrs.iter().zip(&got) {
        let want = model.get(addr).copied().unwrap_or([0u8; 64]);
        assert_eq!(block, &want, "final state: block {addr:#x}");
    }
}

#[test]
fn random_interleavings_match_model_vec_backend() {
    let layer =
        EncryptionLayer::with_options(VecBackend::for_blocks(BLOCKS), BLOCKS, MASTER, options())
            .expect("geometry fits");
    let mut rng = SplitMix64::new(SplitMix64::new(SEED).derive(b"props/vec"));
    let (model, rekeys) = drive(&layer, &mut rng, 400);
    assert!(rekeys > 0, "the op mix must exercise rekey");
    verify_final_state(&layer, &model);
    // The low saturation plus duplicate-heavy writes must have pushed
    // at least one block into counterless mode.
    let counterless = (0..BLOCKS)
        .filter(|&addr| layer.is_counterless(addr).expect("verified"))
        .count();
    assert!(counterless > 0, "op mix never saturated a counter");
}

#[test]
fn random_interleavings_match_model_file_backend() {
    let path = PathBuf::from(std::env::temp_dir())
        .join(format!("clme-mem-props-{}.store", std::process::id()));
    let layer = EncryptionLayer::with_options(
        FileBackend::create_for_blocks(&path, BLOCKS).expect("temp store"),
        BLOCKS,
        MASTER,
        options(),
    )
    .expect("geometry fits");
    let mut rng = SplitMix64::new(SplitMix64::new(SEED).derive(b"props/file"));
    let (model, rekeys) = drive(&layer, &mut rng, 200);
    verify_final_state(&layer, &model);
    // Persistence: reopen the file under the live key (drive() derives
    // masters from the rekey count, so the final one is known) and the
    // saved root, and re-verify the whole model.
    let root = layer.root();
    let mut master = MASTER;
    if rekeys > 0 {
        master[..8].copy_from_slice(&(rekeys as u64).to_le_bytes());
    }
    drop(layer);
    let backend = FileBackend::open(&path).expect("reopen");
    let reopened = EncryptionLayer::attach_with_options(backend, BLOCKS, master, root, options())
        .expect("attach");
    verify_final_state(&reopened, &model);
    std::fs::remove_file(&path).expect("temp file removed");
}

/// After a full `rekey()`, nothing in the store verifies — let alone
/// decrypts — under the old key: every single block read must fail.
#[test]
fn rekey_leaves_no_block_decryptable_under_old_key() {
    let layer =
        EncryptionLayer::with_options(VecBackend::for_blocks(BLOCKS), BLOCKS, MASTER, options())
            .expect("geometry fits");
    let mut rng = SplitMix64::new(SplitMix64::new(SEED).derive(b"props/rekey"));
    // Populate every block, saturating a few.
    for addr in 0..BLOCKS {
        layer
            .write_block(addr, &random_block(&mut rng))
            .expect("write");
    }
    for _ in 0..8 {
        let hot = rng.below(BLOCKS);
        for _ in 0..8 {
            layer
                .write_block(hot, &random_block(&mut rng))
                .expect("write");
        }
    }
    let report = layer.rekey([0x99; 32]).expect("rekey succeeds");
    assert_eq!(report.blocks, BLOCKS);
    assert!(
        report.counterless_blocks > 0,
        "sweep must cover counterless blocks too"
    );
    // Attach the swept store under the OLD key: every read must fail.
    let root = layer.root();
    let backend = layer.into_backend();
    let old_key_view =
        EncryptionLayer::attach_with_options(backend, BLOCKS, MASTER, root, options())
            .expect("attach is lazy");
    for addr in 0..BLOCKS {
        let err = old_key_view
            .read_block(addr)
            .expect_err("old key must not decrypt any block");
        assert!(err.integrity().is_some(), "block {addr:#x}: {err}");
    }
}

/// Rekey must compose: two sweeps back-to-back, plaintext stable, and
/// neither the old nor the intermediate key can read the result.
#[test]
fn chained_rekeys_keep_plaintext_and_burn_old_keys() {
    let layer = EncryptionLayer::new(VecBackend::for_blocks(128), 128, MASTER).expect("fits");
    let mut rng = SplitMix64::new(SplitMix64::new(SEED).derive(b"props/chain"));
    let mut model = BTreeMap::new();
    for addr in 0..128u64 {
        let block = random_block(&mut rng);
        layer.write_block(addr, &block).expect("write");
        model.insert(addr, block);
    }
    layer.rekey([0x01; 32]).expect("first sweep");
    layer.rekey([0x02; 32]).expect("second sweep");
    for (addr, want) in &model {
        assert_eq!(&layer.read_block(*addr).expect("readable"), want);
    }
    let root = layer.root();
    let backend = layer.into_backend();
    for burnt in [MASTER, [0x01; 32]] {
        let view = EncryptionLayer::attach(backend_clone_hack(&backend), 128, burnt, root)
            .expect("attach");
        assert!(view.read_block(0).is_err(), "burnt key still reads");
    }
    let live = EncryptionLayer::attach(backend, 128, [0x02; 32], root).expect("attach");
    assert_eq!(&live.read_block(5).expect("readable"), &model[&5]);
}

/// Clones a VecBackend by copying every word — test-only helper so two
/// attached views can inspect the same store image.
fn backend_clone_hack(backend: &VecBackend) -> VecBackend {
    let copy = VecBackend::new(backend.words());
    for w in 0..backend.words() {
        copy.write_word(w, &backend.read_word(w).expect("in-bounds"))
            .expect("in-bounds");
    }
    copy
}

/// 80 pages (a three-level tree, so batches share interior nodes) with
/// a partial last page.
const EQ_BLOCKS: u64 = 79 * PAGE_BLOCKS + 44;

/// Low enough that a block hammered through a page roll goes on to
/// pass saturation within the same batch.
const EQ_SATURATION: u64 = 140;

/// One random write batch for the group-commit equivalence check.
fn equivalence_batch(rng: &mut SplitMix64) -> Vec<(u64, Block)> {
    let addrs: Vec<u64> = match rng.below(4) {
        // Spread over the whole store: many pages, few shared leaves.
        0 | 1 => {
            let len = 1 + rng.below(96);
            (0..len).map(|_| rng.below(EQ_BLOCKS)).collect()
        }
        // Clustered on four neighbouring pages: repeated addresses and
        // shared tree nodes.
        2 => {
            let base = rng.below(EQ_BLOCKS - 4 * PAGE_BLOCKS);
            let len = 1 + rng.below(64);
            (0..len)
                .map(|_| base + rng.below(4 * PAGE_BLOCKS))
                .collect()
        }
        // Hot: one block written 130+ times among a few neighbours and
        // strays, which rolls its page mid-batch and can saturate it.
        _ => {
            let hot = rng.below(EQ_BLOCKS);
            let page_base = hot - hot % PAGE_BLOCKS;
            let len = 150 + rng.below(50);
            (0..len)
                .map(|_| match rng.below(16) {
                    0 => (page_base + rng.below(PAGE_BLOCKS)).min(EQ_BLOCKS - 1),
                    1 => rng.below(EQ_BLOCKS),
                    _ => hot,
                })
                .collect()
        }
    };
    addrs
        .into_iter()
        .map(|addr| (addr, random_block(rng)))
        .collect()
}

fn assert_same_store(
    a: &EncryptionLayer<impl StoreBackend>,
    b: &EncryptionLayer<impl StoreBackend>,
    round: usize,
) {
    assert_eq!(a.root(), b.root(), "round {round}: root");
    for w in 0..a.backend().words() {
        let (x, y) = (a.backend().read_word(w), b.backend().read_word(w));
        assert!(
            x.expect("in-bounds") == y.expect("in-bounds"),
            "round {round}: stored word {w} differs"
        );
    }
}

/// Drives random batches through `grouped.batch_write` and, one block
/// at a time in batch order, through `single.write_block`; after every
/// batch the two stores and roots must match byte for byte.
fn group_commit_matches_block_at_a_time<B: StoreBackend>(
    grouped: &EncryptionLayer<B>,
    single: &EncryptionLayer<B>,
    label: &[u8],
) {
    let mut rng = SplitMix64::new(SplitMix64::new(SEED).derive(label));
    for round in 0..40 {
        let batch = equivalence_batch(&mut rng);
        grouped.batch_write(&batch).expect("grouped write");
        for (addr, block) in &batch {
            single.write_block(*addr, block).expect("single write");
        }
        assert_same_store(grouped, single, round);
        // Reads between batches fill the verified-page cache (when it
        // is on), so the next batch has entries to invalidate.
        let addrs: Vec<u64> = (0..16).map(|_| rng.below(EQ_BLOCKS)).collect();
        assert_eq!(
            grouped.batch_read(&addrs).expect("grouped read"),
            single.batch_read(&addrs).expect("single read"),
            "round {round}: reads differ"
        );
    }
    let counters: Vec<u64> = (0..EQ_BLOCKS)
        .map(|addr| grouped.counter_of(addr).expect("verified"))
        .collect();
    assert!(
        counters.iter().any(|&c| c >= 128),
        "the batches never rolled a page"
    );
    assert!(
        counters.iter().any(|&c| c > EQ_SATURATION),
        "the batches never saturated a counter"
    );
}

fn equivalence_options(cache_pages: usize) -> LayerOptions {
    LayerOptions {
        counter_saturation: EQ_SATURATION,
        cache_pages,
        ..LayerOptions::default()
    }
}

#[test]
fn group_commit_is_byte_identical_to_block_at_a_time_vec_backend() {
    for cache_pages in [0, 16] {
        let make = || {
            EncryptionLayer::with_options(
                VecBackend::for_blocks(EQ_BLOCKS),
                EQ_BLOCKS,
                MASTER,
                equivalence_options(cache_pages),
            )
            .expect("geometry fits")
        };
        let label = format!("props/group-commit/vec/{cache_pages}");
        group_commit_matches_block_at_a_time(&make(), &make(), label.as_bytes());
    }
}

#[test]
fn group_commit_is_byte_identical_to_block_at_a_time_file_backend() {
    for cache_pages in [0, 16] {
        let path = |twin: &str| {
            std::env::temp_dir().join(format!(
                "clme-mem-group-commit-{}-{cache_pages}-{twin}.store",
                std::process::id()
            ))
        };
        let make = |twin: &str| {
            EncryptionLayer::with_options(
                FileBackend::create_for_blocks(path(twin), EQ_BLOCKS).expect("temp store"),
                EQ_BLOCKS,
                MASTER,
                equivalence_options(cache_pages),
            )
            .expect("geometry fits")
        };
        let (grouped, single) = (make("grouped"), make("single"));
        let label = format!("props/group-commit/file/{cache_pages}");
        group_commit_matches_block_at_a_time(&grouped, &single, label.as_bytes());
        drop((grouped, single));
        for twin in ["grouped", "single"] {
            std::fs::remove_file(path(twin)).expect("temp file removed");
        }
    }
}

/// A batch over pages 1..=5 whose third page rolls onto a tampered
/// co-resident: the typed error comes back, pages 1 and 2 commit, and
/// pages 3..=5 keep their old data — exactly what writing the same
/// blocks one at a time, stopping at the first error, leaves behind.
#[test]
fn mid_batch_roll_failure_commits_exactly_the_earlier_pages() {
    const PAGES: u64 = 8;
    let blocks = PAGES * PAGE_BLOCKS;
    let old = |addr: u64| [addr as u8 ^ 0x5A; 64];
    let new = |addr: u64| [addr as u8 ^ 0xA5; 64];
    let hot = 3 * PAGE_BLOCKS + 5;
    let victim = 3 * PAGE_BLOCKS + 9;
    let prepare = || {
        let layer = EncryptionLayer::new(VecBackend::for_blocks(blocks), blocks, MASTER)
            .expect("geometry fits");
        for page in 1..=5 {
            for slot in [5, 6, 9] {
                let addr = page * PAGE_BLOCKS + slot;
                layer.write_block(addr, &old(addr)).expect("old data");
            }
        }
        // 127 writes leave the hot block's minor counter full: its next
        // write rolls page 3.
        for _ in 1..127 {
            layer.write_block(hot, &old(hot)).expect("hot writes");
        }
        assert_eq!(layer.counter_of(hot).expect("verified"), 127);
        // Fill the read cache, so the failure must also purge it.
        let all: Vec<u64> = (0..blocks).collect();
        layer.batch_read(&all).expect("clean store");
        let mut word = layer.backend().read_word(victim).expect("in-bounds");
        word[3] ^= 0x01;
        layer
            .backend()
            .write_word(victim, &word)
            .expect("in-bounds");
        layer
    };
    let batch: Vec<(u64, Block)> = (1..=5)
        .flat_map(|page| [page * PAGE_BLOCKS + 5, page * PAGE_BLOCKS + 6])
        .map(|addr| (addr, new(addr)))
        .collect();
    // The flipped ciphertext byte fails the metadata word decoded from
    // the parity lane, the first check on a data word.
    let expected = IntegrityError {
        addr: victim,
        class: TamperClass::Meta,
    };

    let grouped = prepare();
    let root_before = grouped.root();
    let err = grouped
        .batch_write(&batch)
        .expect_err("the roll meets the tampered block");
    assert_eq!(err.integrity(), Some(&expected), "{err}");
    assert_eq!(
        grouped.root(),
        root_before + 4,
        "pages 1 and 2 committed two blocks each"
    );
    for page in 1..=5 {
        for slot in [5, 6] {
            let addr = page * PAGE_BLOCKS + slot;
            let want = if page <= 2 { new(addr) } else { old(addr) };
            assert_eq!(
                grouped.read_block(addr).expect("verifies"),
                want,
                "page {page} slot {slot}"
            );
        }
    }
    assert_eq!(
        grouped.counter_of(hot).expect("verified"),
        127,
        "page 3 never committed"
    );

    let single = prepare();
    let mut first_err = None;
    for (addr, block) in &batch {
        if let Err(e) = single.write_block(*addr, block) {
            first_err = Some(e);
            break;
        }
    }
    assert_eq!(first_err.expect("fails too").integrity(), Some(&expected));
    assert_same_store(&grouped, &single, 0);
}
