//! Concurrency tests for the `Send + Sync` encryption layer: threads
//! hammering disjoint and overlapping regions through a shared
//! reference, with three properties under test — no operation ever
//! fails or corrupts state, no read is ever torn (every read returns
//! some fully-written block, never a byte-mix of two writes), and a
//! deterministic single-threaded replay of the same per-thread op
//! streams lands in exactly the same final state.

use clme::mem::{
    Block, EncryptionLayer, LayerOptions, MemoryAdt, StoreBackend, VecBackend, PAGE_BLOCKS,
};
use clme::types::rng::SplitMix64;
use std::collections::BTreeMap;
use std::sync::{mpsc, Arc};
use std::time::Duration;

const MASTER: [u8; 32] = [0x77; 32];
const SEED: u64 = 0x00C0_FFEE;
const THREADS: u64 = 4;
const OPS_PER_THREAD: usize = 300;

/// A block whose 8 lanes all carry the same u64 tag. Any byte-mix of
/// two distinct tagged blocks breaks the all-lanes-equal invariant, so
/// "decrypts AND verifies AND is uniform" certifies an untorn read.
fn tagged_block(tag: u64) -> Block {
    let mut block = [0u8; 64];
    for chunk in block.chunks_mut(8) {
        chunk.copy_from_slice(&tag.to_le_bytes());
    }
    block
}

fn block_tag(block: &Block) -> Option<u64> {
    let tag = u64::from_le_bytes(block[..8].try_into().expect("8-byte lane"));
    block
        .chunks(8)
        .all(|chunk| chunk == tag.to_le_bytes())
        .then_some(tag)
}

/// One thread's deterministic op stream over its own page plus the
/// shared page. Returns the thread's final model of its private region.
fn run_stream(
    layer: &EncryptionLayer<impl StoreBackend>,
    thread: u64,
    shared_base: u64,
) -> BTreeMap<u64, Block> {
    let mut rng = SplitMix64::new(SplitMix64::new(SEED).derive(&thread.to_le_bytes()));
    let private_base = thread * PAGE_BLOCKS;
    let mut model: BTreeMap<u64, Block> = BTreeMap::new();
    for op in 0..OPS_PER_THREAD {
        match rng.below(4) {
            // Private-region batch write, mirrored into the model.
            0 | 1 => {
                let len = 1 + rng.below(16) as usize;
                let batch: Vec<(u64, Block)> = (0..len)
                    .map(|_| {
                        let addr = private_base + rng.below(PAGE_BLOCKS);
                        let tag = (thread << 48) | (op as u64) << 16 | rng.below(1 << 16);
                        (addr, tagged_block(tag))
                    })
                    .collect();
                layer.batch_write(&batch).expect("private write");
                for (addr, block) in batch {
                    model.insert(addr, block);
                }
            }
            // Private-region read: must match this thread's own model
            // exactly — nobody else writes here.
            2 => {
                let len = 1 + rng.below(16) as usize;
                let addrs: Vec<u64> = (0..len)
                    .map(|_| private_base + rng.below(PAGE_BLOCKS))
                    .collect();
                let got = layer.batch_read(&addrs).expect("private read");
                for (addr, block) in addrs.iter().zip(&got) {
                    let want = model.get(addr).copied().unwrap_or([0u8; 64]);
                    assert_eq!(block, &want, "thread {thread}: private block {addr:#x}");
                }
            }
            // Shared-region hammering: every thread writes tagged
            // blocks to the same page and asserts reads are uniform —
            // some thread's complete write, never a torn mix.
            _ => {
                let addr = shared_base + rng.below(PAGE_BLOCKS);
                let tag = (thread << 48) | 0xC0FFEE;
                layer
                    .write_block(addr, &tagged_block(tag))
                    .expect("shared write");
                let read_addr = shared_base + rng.below(PAGE_BLOCKS);
                let got = layer.read_block(read_addr).expect("shared read");
                assert!(
                    block_tag(&got).is_some() || got == [0u8; 64],
                    "thread {thread}: torn read at {read_addr:#x}: {got:02x?}"
                );
            }
        }
    }
    model
}

#[test]
fn concurrent_streams_no_torn_reads_and_replay_matches() {
    // One private page per thread plus one shared page at the end.
    let blocks = (THREADS + 1) * PAGE_BLOCKS;
    let layer = EncryptionLayer::new(VecBackend::for_blocks(blocks), blocks, MASTER).expect("fits");
    let shared_base = THREADS * PAGE_BLOCKS;

    let layer_ref = &layer;
    let concurrent_models: Vec<BTreeMap<u64, Block>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|thread| scope.spawn(move || run_stream(layer_ref, thread, shared_base)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panics"))
            .collect()
    });

    // Every private block must equal its owner's model (disjointness),
    // and the whole store must still verify (no metadata corruption
    // from the interleaving).
    for (thread, model) in concurrent_models.iter().enumerate() {
        let base = thread as u64 * PAGE_BLOCKS;
        for addr in base..base + PAGE_BLOCKS {
            let want = model.get(&addr).copied().unwrap_or([0u8; 64]);
            assert_eq!(
                layer.read_block(addr).expect("verifies"),
                want,
                "thread {thread}: block {addr:#x} after join"
            );
        }
    }
    for addr in shared_base..shared_base + PAGE_BLOCKS {
        let got = layer.read_block(addr).expect("shared region verifies");
        assert!(block_tag(&got).is_some() || got == [0u8; 64]);
    }

    // Deterministic replay: the same per-thread streams run
    // sequentially on a fresh layer must produce models identical to
    // the concurrent run's (each stream is internally deterministic),
    // and the private regions of both layers must agree byte-for-byte.
    let replay =
        EncryptionLayer::new(VecBackend::for_blocks(blocks), blocks, MASTER).expect("fits");
    for thread in 0..THREADS {
        let model = run_stream(&replay, thread, shared_base);
        assert_eq!(
            &model, &concurrent_models[thread as usize],
            "thread {thread}: replay model diverged"
        );
    }
    for thread in 0..THREADS {
        let base = thread * PAGE_BLOCKS;
        for addr in base..base + PAGE_BLOCKS {
            assert_eq!(
                layer.read_block(addr).expect("verifies"),
                replay.read_block(addr).expect("verifies"),
                "block {addr:#x}: concurrent and sequential disagree"
            );
        }
    }
}

/// Readers racing a rekey: the sweep takes every shard lock, so
/// concurrent reads serialize around it and must never observe a
/// half-swept store (mixed keys would fail verification).
#[test]
fn rekey_races_readers_without_integrity_failures() {
    let blocks = 4 * PAGE_BLOCKS;
    let layer = EncryptionLayer::new(VecBackend::for_blocks(blocks), blocks, MASTER).expect("fits");
    for addr in 0..blocks {
        layer
            .write_block(addr, &tagged_block(addr | 0xAB << 56))
            .expect("seed write");
    }
    let layer_ref = &layer;
    std::thread::scope(|scope| {
        for reader in 0..3u64 {
            scope.spawn(move || {
                let mut rng = SplitMix64::new(SplitMix64::new(SEED).derive(&reader.to_le_bytes()));
                for _ in 0..400 {
                    let addr = rng.below(blocks);
                    let got = layer_ref
                        .read_block(addr)
                        .expect("reads verify across rekey");
                    assert_eq!(block_tag(&got), Some(addr | 0xAB << 56));
                }
            });
        }
        scope.spawn(move || {
            for round in 1..=3u8 {
                let report = layer_ref.rekey([round; 32]).expect("rekey under load");
                assert_eq!(report.blocks, blocks);
            }
        });
    });
    // Final state: live key reads everything.
    for addr in (0..blocks).step_by(17) {
        assert_eq!(
            block_tag(&layer.read_block(addr).expect("verifies")),
            Some(addr | 0xAB << 56)
        );
    }
}

/// Two writers whose batches span several shards and overlap on the
/// same pages, a reader and a rekey loop, all at once. Write batches
/// take their shard locks in ascending order, as rekey does, so the
/// run must finish well inside the watchdog; afterwards each writer's
/// blocks hold its last write and every block verifies. The op counts
/// are sized so that taking shard locks in page order instead hangs
/// this test reliably.
#[test]
fn overlapping_multi_shard_batches_with_reader_and_rekey_never_deadlock() {
    const PAGES: u64 = 12;
    let blocks = PAGES * PAGE_BLOCKS;
    let options = LayerOptions {
        shards: 4,
        ..LayerOptions::default()
    };
    let layer = Arc::new(
        EncryptionLayer::with_options(VecBackend::for_blocks(blocks), blocks, MASTER, options)
            .expect("fits"),
    );
    let (done_tx, done_rx) = mpsc::channel();
    let worker = Arc::clone(&layer);
    let run = std::thread::spawn(move || {
        let layer = &*worker;
        let models: Vec<BTreeMap<u64, Block>> = std::thread::scope(|scope| {
            let writers: Vec<_> = (0..2u64)
                .map(|writer| {
                    scope.spawn(move || {
                        // Writer 0 owns the even slots and writer 1 the
                        // odd ones, on every page: batches share pages
                        // and shards but never a block.
                        let mut rng =
                            SplitMix64::new(SplitMix64::new(SEED).derive(&[b'w', writer as u8]));
                        let mut model = BTreeMap::new();
                        for op in 0..400u64 {
                            let len = 2 + rng.below(24) as usize;
                            let batch: Vec<(u64, Block)> = (0..len)
                                .map(|_| {
                                    let slot = 2 * rng.below(PAGE_BLOCKS / 2) + writer;
                                    let addr = rng.below(PAGES) * PAGE_BLOCKS + slot;
                                    (addr, tagged_block(writer << 48 | op << 16 | slot))
                                })
                                .collect();
                            layer.batch_write(&batch).expect("overlapping write");
                            model.extend(batch);
                        }
                        model
                    })
                })
                .collect();
            scope.spawn(move || {
                let mut rng = SplitMix64::new(SplitMix64::new(SEED).derive(b"reader"));
                for _ in 0..300 {
                    let addrs: Vec<u64> = (0..8).map(|_| rng.below(blocks)).collect();
                    for got in layer.batch_read(&addrs).expect("reads verify") {
                        assert!(block_tag(&got).is_some() || got == [0u8; 64], "torn read");
                    }
                }
            });
            scope.spawn(move || {
                for round in 1..=10u8 {
                    layer.rekey([round; 32]).expect("rekey under write load");
                }
            });
            writers
                .into_iter()
                .map(|h| h.join().expect("writer"))
                .collect()
        });
        done_tx.send(models).expect("test thread waits");
    });
    let models = done_rx
        .recv_timeout(Duration::from_secs(120))
        .expect("writers, reader and rekey finish: no deadlock");
    run.join().expect("the run thread already sent its result");
    for (writer, model) in models.iter().enumerate() {
        for (&addr, want) in model {
            assert_eq!(
                &layer.read_block(addr).expect("verifies"),
                want,
                "writer {writer}: block {addr:#x}"
            );
        }
    }
    let all: Vec<u64> = (0..blocks).collect();
    layer.batch_read(&all).expect("the whole store verifies");
}
