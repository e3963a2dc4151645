//! Adversarial tamper tests for the `clme-mem` encryption layer.
//!
//! The attacker model is the memory bus: arbitrary byte flips in any
//! stored word — ciphertext lanes, the MAC lane, the parity lane
//! carrying the encryption metadata, counter-block words, and
//! integrity-tree node words — plus splicing valid ciphertexts between
//! addresses and replaying whole stale store images. The layer's
//! contract is that **every** such corruption surfaces as a typed
//! `IntegrityError` on the next read that traverses it, and that
//! restoring the original bytes restores the read (proving the flip,
//! not collateral state, caused the failure).
//!
//! Coverage is exhaustive over one block's whole verification chain
//! (every byte of its data word, its counter word, and every tree node
//! on its path, under two flip masks each) and SplitMix64-sampled over
//! every stored word of a large region.

use clme::mem::{
    EncryptionLayer, FileBackend, LayerOptions, MemoryAdt, Region, StoreBackend, TamperClass,
    VecBackend, PAGE_BLOCKS, WORD_BYTES,
};
use clme::types::rng::SplitMix64;

const MASTER: [u8; 32] = [0x5A; 32];
const SEED: u64 = 0x00C0_FFEE;

fn filled_layer(blocks: u64, saturation: Option<u64>) -> EncryptionLayer<VecBackend> {
    let mut options = LayerOptions::default();
    if let Some(saturation) = saturation {
        options.counter_saturation = saturation;
    }
    let layer =
        EncryptionLayer::with_options(VecBackend::for_blocks(blocks), blocks, MASTER, options)
            .expect("geometry fits");
    let mut rng = SplitMix64::new(SEED);
    let mut batch = Vec::new();
    for addr in 0..blocks {
        let mut block = [0u8; 64];
        for chunk in block.chunks_mut(8) {
            chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
        }
        batch.push((addr, block));
        if batch.len() == 64 {
            layer.batch_write(&batch).expect("in-bounds writes");
            batch.clear();
        }
    }
    if !batch.is_empty() {
        layer.batch_write(&batch).expect("in-bounds writes");
    }
    layer
}

/// Flips `mask` into one byte of one stored word, asserts the probe
/// read fails with an integrity error of an expected class, restores
/// the word, and asserts the read works again.
fn assert_flip_caught(
    layer: &EncryptionLayer<VecBackend>,
    word_index: u64,
    byte: usize,
    mask: u8,
    probe: u64,
    expect: impl Fn(TamperClass) -> bool,
    context: &str,
) {
    let baseline = layer.read_block(probe).expect("probe readable before flip");
    let original = layer.backend().read_word(word_index).expect("in-bounds");
    let mut tampered = original;
    tampered[byte] ^= mask;
    layer
        .backend()
        .write_word(word_index, &tampered)
        .expect("in-bounds");
    let err = layer.read_block(probe).expect_err(&format!(
        "{context}: flip of word {word_index} byte {byte} mask {mask:#04x} went undetected"
    ));
    let integrity = err.integrity().unwrap_or_else(|| {
        panic!("{context}: non-integrity error for word {word_index} byte {byte}: {err}")
    });
    assert!(
        expect(integrity.class),
        "{context}: word {word_index} byte {byte} mask {mask:#04x} raised unexpected class {}",
        integrity.class
    );
    layer
        .backend()
        .write_word(word_index, &original)
        .expect("in-bounds");
    assert_eq!(
        layer.read_block(probe).expect("restored word reads again"),
        baseline,
        "{context}: restore must return the original plaintext"
    );
}

/// Every byte of a victim block's entire verification chain — data
/// word, counter word, and each tree node on its path — flipped under
/// two masks. 100% must be caught, with the class that names the stage.
#[test]
fn exhaustive_single_byte_tamper_matrix_counter_mode() {
    // 130 blocks: 3 pages, partial last page, single-level tree.
    let layer = filled_layer(130, None);
    let geo = layer.geometry().clone();
    let victim = 65u64; // second page, mid-store
    let page = geo.page_of(victim);
    let mut flips = 0usize;

    for mask in [0x01u8, 0xFF] {
        // Data word: ciphertext lanes (0..64), MAC lane (64..72),
        // parity/metadata lane (72..80). The ECC construction folds
        // every lane into the decoded metadata word, so flips surface
        // as metadata or MAC mismatches — either way, detected.
        for byte in 0..WORD_BYTES {
            assert_flip_caught(
                &layer,
                geo.data_word(victim),
                byte,
                mask,
                victim,
                |class| matches!(class, TamperClass::Meta | TamperClass::DataMac),
                "data word",
            );
            flips += 1;
        }
        // Counter word: the page's split-counter image, its MAC, and
        // the reserved lane are all sealed by the counter-block MAC.
        for byte in 0..WORD_BYTES {
            assert_flip_caught(
                &layer,
                geo.counter_word(page),
                byte,
                mask,
                victim,
                |class| class == TamperClass::CounterBlock,
                "counter word",
            );
            flips += 1;
        }
        // Every tree node on the victim's path, leaf to root.
        for (level, group, _slot) in geo.path(page) {
            for byte in 0..WORD_BYTES {
                assert_flip_caught(
                    &layer,
                    geo.node_word(level, group),
                    byte,
                    mask,
                    victim,
                    |class| class == TamperClass::TreeNode { level: level as u8 },
                    "tree node word",
                );
                flips += 1;
            }
        }
    }
    // 2 masks x (data + counter + 1 path level) x 80 bytes.
    assert_eq!(flips, 2 * 3 * WORD_BYTES, "matrix must be exhaustive");
}

/// The same exhaustive matrix over a block that has saturated its
/// counter and switched to counterless (XTS + SHA-3 MAC) mode.
#[test]
fn exhaustive_single_byte_tamper_matrix_counterless() {
    let layer = filled_layer(130, Some(2));
    let victim = 7u64;
    // Push the victim past saturation; its reads now take the
    // counterless verify path.
    for round in 0..3u8 {
        layer.write_block(victim, &[round; 64]).expect("in-bounds");
    }
    assert!(layer.is_counterless(victim).expect("verified counter"));
    let geo = layer.geometry().clone();
    for mask in [0x01u8, 0xFF] {
        for byte in 0..WORD_BYTES {
            assert_flip_caught(
                &layer,
                geo.data_word(victim),
                byte,
                mask,
                victim,
                |class| matches!(class, TamperClass::Meta | TamperClass::DataMac),
                "counterless data word",
            );
        }
    }
}

/// SplitMix64-sampled flips across every region of a 4096-block store
/// (64 pages, two tree levels): random word, random byte, random
/// nonzero mask — all caught, all recoverable.
#[test]
fn sampled_tamper_sweep_over_large_region() {
    let layer = filled_layer(4096, None);
    let geo = layer.geometry().clone();
    assert!(geo.levels() >= 2, "store must exercise a multi-level tree");
    let mut rng = SplitMix64::new(SplitMix64::new(SEED).derive(b"tamper-sweep"));
    let mut per_region = [0usize; 3];
    for _ in 0..384 {
        let word_index = rng.below(geo.total_words());
        let byte = rng.below(WORD_BYTES as u64) as usize;
        let mask = loop {
            let mask = (rng.next_u64() & 0xFF) as u8;
            if mask != 0 {
                break mask;
            }
        };
        let region = geo.classify(word_index);
        let probe = geo.probe_addr(region);
        let expect: Box<dyn Fn(TamperClass) -> bool> = match region {
            Region::Data { .. } => {
                per_region[0] += 1;
                Box::new(|class| matches!(class, TamperClass::Meta | TamperClass::DataMac))
            }
            Region::CounterBlock { .. } => {
                per_region[1] += 1;
                Box::new(|class| class == TamperClass::CounterBlock)
            }
            Region::TreeNode { level, .. } => {
                per_region[2] += 1;
                Box::new(move |class| class == TamperClass::TreeNode { level })
            }
        };
        assert_flip_caught(
            &layer,
            word_index,
            byte,
            mask,
            probe,
            expect,
            "sampled sweep",
        );
    }
    // The data region dominates the word space, but the layout
    // guarantees the sampler still hits metadata words.
    assert!(per_region[0] > 0, "sampler missed data words");
    assert!(
        per_region[1] + per_region[2] > 0,
        "sampler missed metadata words"
    );
}

/// Splicing two valid ciphertext words between addresses must fail at
/// both positions: the MAC binds the address, so a block is not
/// relocatable even though both images are individually well-formed.
#[test]
fn splice_of_valid_ciphertexts_is_rejected() {
    let layer = filled_layer(130, None);
    let geo = layer.geometry().clone();
    for (a, b) in [(0u64, 1u64), (3, 64), (65, 129)] {
        let word_a = layer
            .backend()
            .read_word(geo.data_word(a))
            .expect("in-bounds");
        let word_b = layer
            .backend()
            .read_word(geo.data_word(b))
            .expect("in-bounds");
        let plain_a = layer.read_block(a).expect("valid before splice");
        let plain_b = layer.read_block(b).expect("valid before splice");
        layer
            .backend()
            .write_word(geo.data_word(a), &word_b)
            .expect("in-bounds");
        layer
            .backend()
            .write_word(geo.data_word(b), &word_a)
            .expect("in-bounds");
        for addr in [a, b] {
            let err = layer
                .read_block(addr)
                .expect_err("spliced ciphertext must not verify");
            assert!(err.integrity().is_some(), "splice at {addr}: {err}");
        }
        layer
            .backend()
            .write_word(geo.data_word(a), &word_a)
            .expect("in-bounds");
        layer
            .backend()
            .write_word(geo.data_word(b), &word_b)
            .expect("in-bounds");
        assert_eq!(layer.read_block(a).expect("restored"), plain_a);
        assert_eq!(layer.read_block(b).expect("restored"), plain_b);
    }
}

/// Replaying a complete stale store image — data, counters, and every
/// tree node, all mutually consistent — must still fail, because the
/// root lives inside the layer and has moved on. This is the attack
/// that defeats per-word MACs without a tree.
#[test]
fn wholesale_replay_of_stale_store_is_rejected() {
    let layer = filled_layer(130, None);
    let geo = layer.geometry().clone();
    let victim = 10u64;
    let stale_plain = layer.read_block(victim).expect("readable");
    // Snapshot the *entire* store: a perfectly consistent stale image.
    let snapshot: Vec<_> = (0..geo.total_words())
        .map(|w| layer.backend().read_word(w).expect("in-bounds"))
        .collect();
    // The victim moves on.
    layer.write_block(victim, &[0xEE; 64]).expect("in-bounds");
    assert_eq!(layer.read_block(victim).expect("readable"), [0xEE; 64]);
    // Roll every stored word back to the snapshot.
    for (w, word) in snapshot.iter().enumerate() {
        layer
            .backend()
            .write_word(w as u64, word)
            .expect("in-bounds");
    }
    let err = layer
        .read_block(victim)
        .expect_err("stale image must not verify against the live root");
    let class = err.integrity().expect("typed integrity error").class;
    assert!(
        matches!(class, TamperClass::TreeNode { .. }),
        "replay must die at the root-anchored tree, got {class}"
    );
    assert_ne!(stale_plain, [0xEE; 64], "test must distinguish the images");
}

/// Replaying only a page's counter word (not its tree path) is the
/// classic counter-rollback attack; the leaf count binding kills it.
#[test]
fn counter_word_rollback_is_rejected() {
    let layer = filled_layer(130, None);
    let geo = layer.geometry().clone();
    let victim = 70u64;
    let page = geo.page_of(victim);
    let stale = layer
        .backend()
        .read_word(geo.counter_word(page))
        .expect("in-bounds");
    layer.write_block(victim, &[0x11; 64]).expect("in-bounds");
    layer
        .backend()
        .write_word(geo.counter_word(page), &stale)
        .expect("in-bounds");
    let err = layer
        .read_block(victim)
        .expect_err("rolled-back counter word");
    assert_eq!(
        err.integrity().expect("typed").class,
        TamperClass::CounterBlock
    );
}

/// Flips one byte of each tree node on a victim page's path, and
/// separately of its counter word, each time right after reads and a
/// write batch have warmed the verified-page cache and the trusted tree
/// nodes. The next `batch_write` to the page must fail with the class
/// naming the stage, and leave the flipped word in the store: a warm
/// batch may skip re-reading what it trusts, but must never reseal a
/// flip beneath it.
fn assert_warm_batch_catches<B: StoreBackend>(layer: &EncryptionLayer<B>, label: &str) {
    let geo = layer.geometry().clone();
    let victim = 37 * PAGE_BLOCKS + 5;
    let page = geo.page_of(victim);
    let mut targets = vec![(geo.counter_word(page), 5, TamperClass::CounterBlock)];
    for (level, group, slot) in geo.path(page) {
        // The low byte of the page's own counter in the node.
        let class = TamperClass::TreeNode { level: level as u8 };
        targets.push((geo.node_word(level, group), 8 * slot, class));
    }
    assert!(
        targets.len() >= 4,
        "{label}: the path must span several levels"
    );
    for (round, (word_index, byte, class)) in targets.into_iter().enumerate() {
        let round = round as u8;
        // Warm: a read walks the path (trusting it), a write batch runs
        // on the trusted path, and a read refills the page's cache
        // entry so a batch could borrow its counter block.
        layer
            .batch_read(&[victim, victim + 1, 3])
            .expect("warm read");
        layer
            .batch_write(&[(victim, [round; 64])])
            .expect("warm write");
        assert_eq!(
            layer.batch_read(&[victim]).expect("refill"),
            vec![[round; 64]]
        );

        let original = layer.backend().read_word(word_index).expect("in bounds");
        let mut flipped = original;
        flipped[byte] ^= 0x01;
        layer
            .backend()
            .write_word(word_index, &flipped)
            .expect("in bounds");
        let err = layer
            .batch_write(&[(victim, [0xEE; 64])])
            .expect_err(&format!(
                "{label}: warm batch hid a flip of word {word_index}"
            ));
        assert_eq!(
            err.integrity().map(|e| e.class),
            Some(class),
            "{label}: flip of word {word_index} byte {byte}: {err}"
        );
        assert_eq!(
            layer.backend().read_word(word_index).expect("in bounds"),
            flipped,
            "{label}: the batch resealed the flipped word {word_index}"
        );
        layer
            .backend()
            .write_word(word_index, &original)
            .expect("in bounds");
        assert_eq!(
            layer.read_block(victim).expect("restored"),
            [round; 64],
            "{label}"
        );
    }
}

#[test]
fn warm_write_batch_does_not_hide_tampering() {
    // 72 pages: a three-level tree under the default options, so the
    // verified-page cache and the trusted nodes are both on.
    let blocks = 72 * PAGE_BLOCKS;
    let vec = EncryptionLayer::new(VecBackend::for_blocks(blocks), blocks, MASTER).expect("vec");
    assert_warm_batch_catches(&vec, "vec");
    let path = std::env::temp_dir().join(format!("clme-tamper-warm-{}.store", std::process::id()));
    let file = EncryptionLayer::new(
        FileBackend::create_for_blocks(&path, blocks).expect("store file"),
        blocks,
        MASTER,
    )
    .expect("file");
    assert_warm_batch_catches(&file, "file");
    drop(file);
    let _ = std::fs::remove_file(&path);
}

/// The pages of [`assert_batch_commits_pages_before_flip`]'s batch: six
/// pages under six distinct leaf nodes, so flipping one page's leaf
/// node fails that page's walk and no earlier page's.
const BATCH_PAGES: [u64; 6] = [1, 10, 19, 28, 37, 46];

/// A write batch over the six [`BATCH_PAGES`], two blocks each and
/// listed out of page order, with the counter word or the leaf node of
/// the k-th page (in page order) flipped, for every k, with the layer
/// cold (freshly attached: nothing cached, nothing trusted) and warm.
/// The batch must fail with the class naming the flipped word, at the
/// first address the batch writes in that page; the pages before k
/// commit (the root advances by their blocks and they read back the new
/// data), page k and the later pages keep their old data, and the
/// flipped word stays as flipped. This is the partial-commit rule: a
/// batch commits exactly the pages its walk verified before the
/// failure.
fn assert_batch_commits_pages_before_flip<B: StoreBackend>(
    mut layer: EncryptionLayer<B>,
    label: &str,
) {
    let geo = layer.geometry().clone();
    let blocks = geo.data_blocks();
    let order = [3usize, 0, 5, 1, 4, 2];
    let mut round = 0u8;
    for counter_word in [true, false] {
        for (k, &page) in BATCH_PAGES.iter().enumerate() {
            for warm in [false, true] {
                round = round.wrapping_add(1);
                let case = format!("{label}: k={k} counter_word={counter_word} warm={warm}");
                let slots = |page: u64| [page * PAGE_BLOCKS + 5, page * PAGE_BLOCKS + 2];
                let before: Vec<Vec<[u8; 64]>> = BATCH_PAGES
                    .iter()
                    .map(|&p| layer.batch_read(&slots(p)).expect("readable before"))
                    .collect();
                if warm {
                    let addrs: Vec<u64> = BATCH_PAGES.iter().map(|p| p * PAGE_BLOCKS).collect();
                    layer.batch_read(&addrs).expect("warm read");
                    let warmup: Vec<_> = addrs.iter().map(|&a| (a + 7, [round; 64])).collect();
                    layer.batch_write(&warmup).expect("warm write");
                    layer.batch_read(&addrs).expect("warm refill");
                } else {
                    let root = layer.root();
                    layer = EncryptionLayer::attach(layer.into_backend(), blocks, MASTER, root)
                        .expect("reattach");
                }
                let (word_index, class) = if counter_word {
                    (geo.counter_word(page), TamperClass::CounterBlock)
                } else {
                    let (level, group, _) = geo.path(page)[0];
                    (
                        geo.node_word(level, group),
                        TamperClass::TreeNode { level: 0 },
                    )
                };
                let original = layer.backend().read_word(word_index).expect("in bounds");
                let mut flipped = original;
                flipped[3] ^= 0x10;
                layer
                    .backend()
                    .write_word(word_index, &flipped)
                    .expect("in bounds");

                let root = layer.root();
                let new_block = |p: usize| [round ^ (0x40 + p as u8); 64];
                let writes: Vec<(u64, [u8; 64])> = order
                    .iter()
                    .flat_map(|&p| slots(BATCH_PAGES[p]).map(|a| (a, new_block(p))))
                    .collect();
                let err = layer
                    .batch_write(&writes)
                    .expect_err(&format!("{case}: flip went undetected"));
                let integrity = *err.integrity().unwrap_or_else(|| panic!("{case}: {err}"));
                assert_eq!(integrity.class, class, "{case}");
                assert_eq!(integrity.addr, slots(page)[0], "{case}: error address");
                assert_eq!(
                    layer.root(),
                    root + 2 * k as u64,
                    "{case}: committed blocks"
                );
                assert_eq!(
                    layer.backend().read_word(word_index).expect("in bounds"),
                    flipped,
                    "{case}: the batch resealed the flipped word"
                );

                layer
                    .backend()
                    .write_word(word_index, &original)
                    .expect("in bounds");
                for (p, &pg) in BATCH_PAGES.iter().enumerate() {
                    let got = layer
                        .batch_read(&slots(pg))
                        .expect("readable after restore");
                    if p < k {
                        assert_eq!(got, vec![new_block(p); 2], "{case}: page {pg} committed");
                    } else {
                        assert_eq!(got, before[p], "{case}: page {pg} kept its data");
                    }
                }
            }
        }
    }
}

#[test]
fn write_batch_commits_exactly_the_pages_before_a_flip() {
    // 72 pages: a three-level tree with nine leaf nodes.
    let blocks = 72 * PAGE_BLOCKS;
    let vec = EncryptionLayer::new(VecBackend::for_blocks(blocks), blocks, MASTER).expect("vec");
    assert_batch_commits_pages_before_flip(vec, "vec");
    let path =
        std::env::temp_dir().join(format!("clme-tamper-partial-{}.store", std::process::id()));
    let file = EncryptionLayer::new(
        FileBackend::create_for_blocks(&path, blocks).expect("store file"),
        blocks,
        MASTER,
    )
    .expect("file");
    assert_batch_commits_pages_before_flip(file, "file");
    let _ = std::fs::remove_file(&path);
}

/// Flips a tree node on a victim page's path together with the page's
/// counter word, for every node on the path (the leaf and each upper
/// node), with the layer cold (freshly attached: nothing cached,
/// nothing trusted) and warm. A read and `counter_of` must both report
/// the node — the first word of the walk that fails — at the read's
/// first address. With only the node restored, both must report the
/// counter word; with both restored, the read returns the page's data
/// again. This pins the read walk's failure rules: checks run in walk
/// order, and the first failing one is the error.
fn assert_read_walk_reports_first_flip<B: StoreBackend>(
    mut layer: EncryptionLayer<B>,
    label: &str,
) {
    let geo = layer.geometry().clone();
    let blocks = geo.data_blocks();
    let victim = 37 * PAGE_BLOCKS + 9;
    let page = geo.page_of(victim);
    let addrs = [victim, victim - 4];
    let counter_word = geo.counter_word(page);
    let path = geo.path(page);
    assert!(
        path.len() >= 3,
        "{label}: the path must span several levels"
    );
    let mut round = 0u8;
    for &(level, group, slot) in &path {
        for warm in [false, true] {
            round = round.wrapping_add(1);
            let case = format!("{label}: level={level} warm={warm}");
            layer
                .batch_write(&[(victim, [round; 64]), (victim - 4, [!round; 64])])
                .expect("write");
            let data = vec![[round; 64], [!round; 64]];
            if warm {
                layer.batch_read(&[victim, 3]).expect("warm read");
                // One write to the victim per round so far.
                let counter = layer.counter_of(victim).expect("warm counter");
                assert_eq!(counter, u64::from(round), "{case}");
            } else {
                let root = layer.root();
                layer = EncryptionLayer::attach(layer.into_backend(), blocks, MASTER, root)
                    .expect("reattach");
            }
            let node_word = geo.node_word(level, group);
            let flip = |index: u64, byte: usize| {
                let original = layer.backend().read_word(index).expect("in bounds");
                let mut flipped = original;
                flipped[byte] ^= 0x01;
                layer
                    .backend()
                    .write_word(index, &flipped)
                    .expect("in bounds");
                original
            };
            let node_original = flip(node_word, 8 * slot);
            let counter_original = flip(counter_word, 5);
            let node_class = TamperClass::TreeNode { level: level as u8 };
            let expect = |class: TamperClass, what: &str| {
                let err = layer
                    .batch_read(&addrs)
                    .expect_err(&format!("{case}: read missed the {what}"));
                let integrity = *err.integrity().unwrap_or_else(|| panic!("{case}: {err}"));
                assert_eq!(integrity.class, class, "{case}: read with the {what}");
                assert_eq!(integrity.addr, addrs[0], "{case}: read error address");
                let err = layer
                    .counter_of(addrs[0])
                    .expect_err(&format!("{case}: counter_of missed the {what}"));
                let integrity = *err.integrity().unwrap_or_else(|| panic!("{case}: {err}"));
                assert_eq!(integrity.class, class, "{case}: counter_of with the {what}");
                assert_eq!(integrity.addr, addrs[0], "{case}: counter_of error address");
            };
            expect(node_class, "node and counter word flipped");
            layer
                .backend()
                .write_word(node_word, &node_original)
                .expect("in bounds");
            expect(TamperClass::CounterBlock, "counter word flipped");
            layer
                .backend()
                .write_word(counter_word, &counter_original)
                .expect("in bounds");
            assert_eq!(layer.batch_read(&addrs).expect("restored"), data, "{case}");
        }
    }
}

#[test]
fn read_walk_reports_the_first_of_two_flips() {
    // 72 pages: a three-level tree with nine leaf nodes.
    let blocks = 72 * PAGE_BLOCKS;
    let vec = EncryptionLayer::new(VecBackend::for_blocks(blocks), blocks, MASTER).expect("vec");
    assert_read_walk_reports_first_flip(vec, "vec");
    let path = std::env::temp_dir().join(format!(
        "clme-tamper-read-walk-{}.store",
        std::process::id()
    ));
    let file = EncryptionLayer::new(
        FileBackend::create_for_blocks(&path, blocks).expect("store file"),
        blocks,
        MASTER,
    )
    .expect("file");
    assert_read_walk_reports_first_flip(file, "file");
    let _ = std::fs::remove_file(&path);
}
