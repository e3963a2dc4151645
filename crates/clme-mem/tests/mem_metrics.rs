//! Telemetry pipeline invariants that need a real multi-threaded layer:
//! merged metrics must be exact (not sampled) under any thread
//! interleaving. That the observer's per-call fold never allocates is
//! pinned next to it, in `observe.rs`.

use clme_mem::{EncryptionLayer, MemOp, MemoryAdt, VecBackend, SAMPLE_EVERY};
use std::sync::Arc;

fn pattern(tag: u8) -> clme_mem::Block {
    core::array::from_fn(|i| tag ^ i as u8)
}

/// Whatever order the scheduler runs the writers in, the merged
/// telemetry must account for every block exactly once: counters are
/// exact sums, and histogram totals count exactly the sampled calls.
#[test]
#[cfg_attr(feature = "telemetry-off", ignore = "telemetry compiled out")]
fn merged_counts_are_deterministic_across_thread_interleavings() {
    for threads in [2usize, 4, 8] {
        let blocks_per_thread = 256u64;
        let layer = Arc::new(
            EncryptionLayer::new(
                VecBackend::for_blocks(blocks_per_thread * threads as u64),
                blocks_per_thread * threads as u64,
                [0x5A; 32],
            )
            .unwrap(),
        );
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let layer = Arc::clone(&layer);
                std::thread::spawn(move || {
                    let base = t as u64 * blocks_per_thread;
                    for chunk in 0..(blocks_per_thread / 64) {
                        let batch: Vec<_> = (0..64)
                            .map(|i| (base + chunk * 64 + i, pattern(t as u8)))
                            .collect();
                        layer.batch_write(&batch).unwrap();
                        let addrs: Vec<u64> = (0..64).map(|i| base + chunk * 64 + i).collect();
                        let got = layer.batch_read(&addrs).unwrap();
                        assert!(got.iter().all(|b| *b == pattern(t as u8)));
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }

        let total = blocks_per_thread * threads as u64;
        let batches = threads as u64 * (blocks_per_thread / 64);
        let snap = layer.metrics_snapshot();
        assert_eq!(snap.blocks_written, total, "{threads} writer threads");
        assert_eq!(snap.blocks_read, total);
        assert_eq!(snap.batch_writes, batches);
        assert_eq!(snap.batch_reads, batches);
        assert_eq!(snap.integrity_errors, 0);
        // Each thread's calls 0, SAMPLE_EVERY, ... of each kind are
        // sampled, and a sampled call records every block's op latency,
        // its batch latency and its one shard lock's wait and hold (each
        // batch touches exactly one page).
        let sampled = threads as u64 * (blocks_per_thread / 64).div_ceil(SAMPLE_EVERY);
        assert_eq!(snap.op(MemOp::Write).latency.count(), 64 * sampled);
        assert_eq!(snap.op(MemOp::Read).latency.count(), 64 * sampled);
        assert_eq!(snap.op(MemOp::Batch).latency.count(), 2 * sampled);
        let waits: u64 = snap.lock_wait.iter().map(|h| h.count()).sum();
        let holds: u64 = snap.lock_hold.iter().map(|h| h.count()).sum();
        assert_eq!(waits, 2 * sampled, "{threads} threads");
        assert_eq!(holds, 2 * sampled, "{threads} threads");
        assert_eq!(snap.observed_writes_total, total);
    }
}
