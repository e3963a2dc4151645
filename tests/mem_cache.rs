//! Differential tests for the verified-page read cache: a cache-on and
//! a cache-off layer fed the identical operation stream must return
//! byte-identical reads under random write/read/rekey/tamper
//! interleavings, on both backends — the cache may change how fast a
//! read answers, never what it answers. Also pins the security
//! property behind the design: rekey and tamper purge every cached
//! entry, so plaintext decrypted under a retired key (or before a
//! detected flip) is unreachable afterwards.

use clme::mem::{
    Block, CacheCause, EncryptionLayer, FileBackend, LayerOptions, MemoryAdt, StoreBackend,
    VecBackend, PAGE_BLOCKS,
};
use clme::types::rng::SplitMix64;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

const MASTER: [u8; 32] = [0x47; 32];
const SEED: u64 = 0x0DDB_A11;
const BLOCKS: u64 = 300; // 5 pages, partial last page

fn options(cache_pages: usize) -> LayerOptions {
    LayerOptions {
        // Low enough that hot blocks overflow into counterless mode, so
        // the cache is exercised across both encryption modes.
        counter_saturation: 6,
        cache_pages,
        // One lock shard so a small cache capacity is a real bound and
        // the 5-page store forces CLOCK evictions.
        shards: 1,
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

/// Drives the same random op stream through both layers. Because the
/// scheme is deterministic — same master key, same write order, same
/// counters — the two stored images stay bit-identical, which lets the
/// tamper op flip the *same* stored byte in both and demand the same
/// typed failure from each.
fn drive_twins<A: StoreBackend, B: StoreBackend>(
    cached: &EncryptionLayer<A>,
    plain: &EncryptionLayer<B>,
    rng: &mut SplitMix64,
    ops: usize,
) -> (usize, usize) {
    let mut model: BTreeMap<u64, Block> = BTreeMap::new();
    let mut rekeys = 0usize;
    let mut tampers = 0usize;
    let mut master_round = 0u64;
    let total_words = cached.geometry().total_words();
    for op in 0..ops {
        match rng.below(12) {
            0..=4 => {
                let len = 1 + rng.below(64) as usize;
                let batch: Vec<(u64, Block)> = (0..len)
                    .map(|_| (rng.below(BLOCKS), random_block(rng)))
                    .collect();
                cached.batch_write(&batch).expect("cached write");
                plain.batch_write(&batch).expect("plain write");
                for (addr, block) in batch {
                    model.insert(addr, block);
                }
            }
            5..=8 => {
                let len = 1 + rng.below(64) as usize;
                let addrs: Vec<u64> = (0..len).map(|_| rng.below(BLOCKS)).collect();
                let from_cached = cached.batch_read(&addrs).expect("cached read");
                let from_plain = plain.batch_read(&addrs).expect("plain read");
                assert_eq!(
                    from_cached, from_plain,
                    "op {op}: cache-on and cache-off reads diverged"
                );
                for (addr, block) in addrs.iter().zip(&from_cached) {
                    let want = model.get(addr).copied().unwrap_or([0u8; 64]);
                    assert_eq!(block, &want, "op {op}: block {addr:#x} diverged from model");
                }
            }
            9..=10 => {
                master_round += 1;
                let mut new_master = MASTER;
                new_master[..8].copy_from_slice(&master_round.to_le_bytes());
                cached.rekey(new_master).expect("cached rekey");
                plain.rekey(new_master).expect("plain rekey");
                rekeys += 1;
            }
            // Tamper: flip one stored byte in both images, probe the
            // address whose read must traverse it, demand an integrity
            // error from both layers, then restore and demand recovery.
            _ => {
                let word_index = rng.below(total_words);
                let byte = rng.below(80) as usize;
                let mask = 1u8 << rng.below(8);
                let probe = cached
                    .geometry()
                    .probe_addr(cached.geometry().classify(word_index));
                fn flip<B: StoreBackend>(backend: &B, word_index: u64, byte: usize, mask: u8) {
                    let mut word = backend.read_word(word_index).expect("read word");
                    word[byte] ^= mask;
                    backend.write_word(word_index, &word).expect("write word");
                }
                for restore in [false, true] {
                    flip(cached.backend(), word_index, byte, mask);
                    flip(plain.backend(), word_index, byte, mask);
                    let want = model.get(&probe).copied().unwrap_or([0u8; 64]);
                    let from_cached = cached.read_block(probe);
                    let from_plain = plain.read_block(probe);
                    if restore {
                        assert_eq!(
                            from_cached.expect("cached recovers after restore"),
                            want,
                            "op {op}: restored read diverged"
                        );
                        assert_eq!(
                            from_plain.expect("plain recovers after restore"),
                            want,
                            "op {op}: restored plain read diverged"
                        );
                    } else {
                        // The flipped byte bumped the backend's write
                        // generation, so the cache may not serve the
                        // stale (pre-flip) plaintext: both layers must
                        // fail verification identically.
                        let cached_err = from_cached.expect_err("cache must not mask the flip");
                        let plain_err = from_plain.expect_err("plain flip detected");
                        assert_eq!(
                            cached_err.integrity().map(|e| e.class),
                            plain_err.integrity().map(|e| e.class),
                            "op {op}: flip produced different error classes"
                        );
                    }
                }
                tampers += 1;
            }
        }
    }
    // Full-store sweep: the final images answer identically everywhere.
    let addrs: Vec<u64> = (0..BLOCKS).collect();
    let from_cached = cached.batch_read(&addrs).expect("final cached sweep");
    let from_plain = plain.batch_read(&addrs).expect("final plain sweep");
    assert_eq!(from_cached, from_plain, "final sweep diverged");
    for (addr, block) in addrs.iter().zip(&from_cached) {
        let want = model.get(addr).copied().unwrap_or([0u8; 64]);
        assert_eq!(block, &want, "final state: block {addr:#x}");
    }
    (rekeys, tampers)
}

#[test]
fn cache_on_and_off_read_identically_vec_backend() {
    let cached = EncryptionLayer::with_options(
        VecBackend::for_blocks(BLOCKS),
        BLOCKS,
        MASTER,
        // Capacity below the page count so CLOCK eviction runs too.
        options(3),
    )
    .expect("geometry fits");
    let plain =
        EncryptionLayer::with_options(VecBackend::for_blocks(BLOCKS), BLOCKS, MASTER, options(0))
            .expect("geometry fits");
    let mut rng = SplitMix64::new(SplitMix64::new(SEED).derive(b"cache/vec"));
    let (rekeys, tampers) = drive_twins(&cached, &plain, &mut rng, 300);
    assert!(rekeys > 0, "the op mix must exercise rekey");
    assert!(tampers > 0, "the op mix must exercise tamper");
    let snap = cached.metrics_snapshot();
    if snap.cache.misses + snap.cache.hits > 0 {
        // Telemetry is compiled in: the run must actually have used the
        // cache, evicted under pressure, and purged on rekey + tamper.
        assert!(snap.cache.fills > 0, "cache never filled");
        assert!(
            snap.cache.evictions > 0,
            "capacity 3 over 5 pages must evict"
        );
        assert!(snap.cache.invalidated(CacheCause::Rekey) > 0);
        assert!(snap.cache.invalidated(CacheCause::Foreign) > 0);
    }
}

#[test]
fn cache_on_and_off_read_identically_file_backend() {
    let dir = std::env::temp_dir();
    let cached_path =
        PathBuf::from(&dir).join(format!("clme-mem-cache-on-{}.store", std::process::id()));
    let plain_path =
        PathBuf::from(&dir).join(format!("clme-mem-cache-off-{}.store", std::process::id()));
    {
        let cached = EncryptionLayer::with_options(
            FileBackend::create_for_blocks(&cached_path, BLOCKS).expect("create store"),
            BLOCKS,
            MASTER,
            options(3),
        )
        .expect("geometry fits");
        let plain = EncryptionLayer::with_options(
            FileBackend::create_for_blocks(&plain_path, BLOCKS).expect("create store"),
            BLOCKS,
            MASTER,
            options(0),
        )
        .expect("geometry fits");
        let mut rng = SplitMix64::new(SplitMix64::new(SEED).derive(b"cache/file"));
        let (rekeys, tampers) = drive_twins(&cached, &plain, &mut rng, 200);
        assert!(rekeys > 0, "the op mix must exercise rekey");
        assert!(tampers > 0, "the op mix must exercise tamper");
    }
    let _ = std::fs::remove_file(&cached_path);
    let _ = std::fs::remove_file(&plain_path);
}

/// After a rekey, nothing decrypted under the old key stays reachable:
/// the purge empties the cache and the refill re-verifies under the new
/// key. After a detected flip the same holds for pre-flip plaintext.
#[test]
fn rekey_and_tamper_leave_no_stale_entries() {
    let layer =
        EncryptionLayer::with_options(VecBackend::for_blocks(BLOCKS), BLOCKS, MASTER, options(64))
            .expect("geometry fits");
    let mut rng = SplitMix64::new(SplitMix64::new(SEED).derive(b"cache/stale"));
    let batch: Vec<(u64, Block)> = (0..BLOCKS).map(|a| (a, random_block(&mut rng))).collect();
    layer.batch_write(&batch).expect("populate");
    let addrs: Vec<u64> = (0..BLOCKS).collect();
    let before = layer.batch_read(&addrs).expect("fill the cache");

    layer.rekey([0x58; 32]).expect("rekey");
    let snap = layer.metrics_snapshot();
    if snap.cache.fills > 0 {
        assert_eq!(
            snap.cache.resident_pages, 0,
            "rekey left stale old-key entries resident"
        );
    }
    // Every block re-reads identically through fresh verification.
    assert_eq!(layer.batch_read(&addrs).expect("post-rekey sweep"), before);

    // A detected flip purges too: corrupt one counter word, catch the
    // error, then check nothing stayed resident.
    let word_index = layer.geometry().counter_word(0);
    let mut word = layer.backend().read_word(word_index).expect("read");
    word[5] ^= 0x20;
    layer.backend().write_word(word_index, &word).expect("flip");
    layer.read_block(0).expect_err("flip detected");
    let snap = layer.metrics_snapshot();
    if snap.cache.fills > 0 {
        assert_eq!(
            snap.cache.resident_pages, 0,
            "tamper left stale pre-flip entries resident"
        );
    }
    word[5] ^= 0x20;
    layer
        .backend()
        .write_word(word_index, &word)
        .expect("restore");
    assert_eq!(layer.batch_read(&addrs).expect("recovered sweep"), before);
}

/// Drives seeded random write and read batches, with one rekey halfway,
/// through `trusted` (the default layer: verified-page cache and trusted
/// tree nodes) and `full` (`cache_pages = 0`: every walk starts at the
/// root). A hot block takes a third of the writes, so it saturates into
/// counterless mode and rolls its page. Reads, `counter_of` values and
/// roots must agree after every op, and the stores byte for byte at the
/// end.
fn drive_trust_twins<A: StoreBackend, B: StoreBackend>(
    trusted: &EncryptionLayer<A>,
    full: &EncryptionLayer<B>,
    seed: &[u8],
) {
    const HOT: u64 = 2 * PAGE_BLOCKS + 9;
    let blocks = trusted.geometry().data_blocks();
    let mut rng = SplitMix64::new(SplitMix64::new(SEED).derive(seed));
    let ops = 160;
    for op in 0..ops {
        if op == ops / 2 {
            trusted.rekey([0x3B; 32]).expect("trusted rekey");
            full.rekey([0x3B; 32]).expect("full rekey");
        }
        let len = 1 + rng.below(48) as usize;
        if rng.below(2) == 0 {
            let batch: Vec<(u64, Block)> = (0..len)
                .map(|_| {
                    let addr = if rng.below(3) == 0 {
                        HOT
                    } else {
                        rng.below(blocks)
                    };
                    (addr, random_block(&mut rng))
                })
                .collect();
            trusted.batch_write(&batch).expect("trusted write");
            full.batch_write(&batch).expect("full write");
        } else {
            let addrs: Vec<u64> = (0..len).map(|_| rng.below(blocks)).collect();
            assert_eq!(
                trusted.batch_read(&addrs).expect("trusted read"),
                full.batch_read(&addrs).expect("full read"),
                "op {op}: reads diverged"
            );
        }
        for addr in [HOT, rng.below(blocks)] {
            assert_eq!(
                trusted.counter_of(addr).expect("trusted counter"),
                full.counter_of(addr).expect("full counter"),
                "op {op}: counter of {addr} diverged"
            );
        }
        assert_eq!(trusted.root(), full.root(), "op {op}: roots diverged");
    }
    // The stream reached both modes and rolled the hot page: a
    // co-resident that was never written carries the rolled major.
    assert!(trusted.is_counterless(HOT).expect("hot counter"));
    assert!(
        trusted
            .counter_of(HOT - HOT % PAGE_BLOCKS)
            .expect("co-resident")
            >= 128
    );
    let words = trusted.geometry().total_words();
    for w in 0..words {
        assert_eq!(
            trusted.backend().read_word(w).expect("trusted word"),
            full.backend().read_word(w).expect("full word"),
            "stored word {w} differs"
        );
    }
}

/// A layer over `backend` with the default options but a saturation
/// the stream crosses: `cache_pages = 0` turns the cache, and with it
/// the trusted nodes, off.
fn trust_layer<B: StoreBackend>(backend: B, cache_pages: usize) -> EncryptionLayer<B> {
    let blocks = TRUST_PAGES * PAGE_BLOCKS;
    let options = LayerOptions {
        counter_saturation: 40,
        cache_pages,
        ..LayerOptions::default()
    };
    EncryptionLayer::with_options(backend, blocks, MASTER, options).expect("geometry fits")
}

/// 20 pages: a two-level tree that the default layer trusts whole.
const TRUST_PAGES: u64 = 20;

#[test]
fn trusted_nodes_on_and_off_behave_the_same() {
    let blocks = TRUST_PAGES * PAGE_BLOCKS;
    let on = LayerOptions::default().cache_pages;
    drive_trust_twins(
        &trust_layer(VecBackend::for_blocks(blocks), on),
        &trust_layer(VecBackend::for_blocks(blocks), 0),
        b"trust/vec",
    );
    let dir = std::env::temp_dir();
    let paths = ["on", "off"]
        .map(|tag| dir.join(format!("clme-mem-trust-{tag}-{}.store", std::process::id())));
    let file = |path: &PathBuf| FileBackend::create_for_blocks(path, blocks).expect("store");
    drive_trust_twins(
        &trust_layer(file(&paths[0]), on),
        &trust_layer(file(&paths[1]), 0),
        b"trust/file",
    );
    for path in paths {
        let _ = std::fs::remove_file(path);
    }
}

/// `(hits, partial_hits, misses)`: the page visits the cache has served
/// in each state so far.
fn serves<B: StoreBackend>(layer: &EncryptionLayer<B>) -> [u64; 3] {
    let cache = layer.metrics_snapshot().cache;
    [cache.hits, cache.partial_hits, cache.misses]
}

/// Page runs: seeded read batches with shuffled and repeated addresses,
/// so one page's requests sit at positions that are not adjacent, must
/// read exactly as a `cache_pages: 0` twin over an identical store
/// reads them. Writes, rekeys and foreign store writes between batches
/// keep every serve state — full hit, partial hit, miss — in play, and
/// each batch serves every distinct page it names exactly once.
#[test]
fn shuffled_batches_serve_one_run_per_page() {
    const PAGES: u64 = BLOCKS.div_ceil(PAGE_BLOCKS);
    let twin = |cache_pages| {
        EncryptionLayer::with_options(
            VecBackend::for_blocks(BLOCKS),
            BLOCKS,
            MASTER,
            options(cache_pages),
        )
        .expect("geometry fits")
    };
    let (cached, plain) = (twin(4), twin(0));
    let telemetry = cached.metrics().is_some();
    let mut rng = SplitMix64::new(SplitMix64::new(SEED).derive(b"cache/runs"));
    let mut totals = [0u64; 3];
    let mut split_runs = 0usize;
    for batch in 0..240u64 {
        match rng.below(10) {
            0 => {
                let mut new_master = MASTER;
                new_master[..8].copy_from_slice(&batch.to_le_bytes());
                cached.rekey(new_master).expect("cached rekey");
                plain.rekey(new_master).expect("plain rekey");
            }
            // A foreign write that stores the word it read: the store
            // still verifies, but the cache must purge.
            1 => {
                let word = rng.below(cached.geometry().total_words());
                for backend in [cached.backend(), plain.backend()] {
                    let bytes = backend.read_word(word).expect("read word");
                    backend.write_word(word, &bytes).expect("write word");
                }
            }
            2 | 3 => {
                let len = 1 + rng.below(6) as usize;
                let writes: Vec<(u64, Block)> = (0..len)
                    .map(|_| (rng.below(BLOCKS), random_block(&mut rng)))
                    .collect();
                cached.batch_write(&writes).expect("cached write");
                plain.batch_write(&writes).expect("plain write");
            }
            _ => {}
        }
        // A few low slots per page (all inside the partial last page),
        // so pages fill up to full hits between the writes and purges
        // that knock them back.
        let len = 1 + rng.below(20) as usize;
        let mut addrs: Vec<u64> = (0..len)
            .map(|_| rng.below(PAGES) * PAGE_BLOCKS + rng.below(12))
            .collect();
        for _ in 0..rng.below(4) {
            addrs.push(addrs[rng.below(addrs.len() as u64) as usize]);
        }
        for i in (1..addrs.len()).rev() {
            addrs.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let pages: BTreeSet<u64> = addrs.iter().map(|&addr| addr / PAGE_BLOCKS).collect();
        // Runs of adjacent same-page addresses beyond one per page.
        let adjacent_runs = 1 + addrs
            .windows(2)
            .filter(|w| w[0] / PAGE_BLOCKS != w[1] / PAGE_BLOCKS)
            .count();
        split_runs += adjacent_runs - pages.len();

        let before = serves(&cached);
        assert_eq!(
            cached.batch_read(&addrs).expect("cached read"),
            plain.batch_read(&addrs).expect("plain read"),
            "batch {batch}: {addrs:?} read differently with the cache on"
        );
        if telemetry {
            let after = serves(&cached);
            let delta: Vec<u64> = (0..3).map(|s| after[s] - before[s]).collect();
            assert_eq!(
                delta.iter().sum::<u64>(),
                pages.len() as u64,
                "batch {batch}: {addrs:?} served {delta:?} over {} pages",
                pages.len()
            );
            for (total, d) in totals.iter_mut().zip(delta) {
                *total += d;
            }
        }
    }
    assert!(split_runs > 0, "no batch split a page across positions");
    if telemetry {
        assert!(
            totals.iter().all(|&n| n > 0),
            "every serve state must occur: (hits, partial, misses) = {totals:?}"
        );
    }
}
