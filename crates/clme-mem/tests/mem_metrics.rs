//! Telemetry pipeline invariants that need a real multi-threaded layer
//! and a counting allocator: merged metrics must be exact (not sampled)
//! under any thread interleaving, and the hot increment path must never
//! touch the heap.

use clme_mem::{EncryptionLayer, MemMetrics, MemOp, MemoryAdt, VecBackend, SAMPLE_EVERY};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Per-thread allocation counter
// ---------------------------------------------------------------------

// The counter is thread-local so concurrently running tests (and the
// test harness's own threads) cannot leak allocations into another
// test's measurement window.
thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

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

/// The increment path — counters, gauges, sharded histograms, per-page
/// observation slots — must stay allocation-free: it runs inside every
/// read and write the layer serves.
#[test]
fn hot_increment_path_does_not_allocate() {
    let metrics = MemMetrics::new(16, 64);
    // Warm the per-thread histogram shard slot and any lazy TLS before
    // the measurement window.
    metrics.op_duration(MemOp::Read, std::time::Duration::from_micros(3));
    metrics.observe_ciphertext_writes(0, 1);
    metrics.note_read_batch(1);

    let before = thread_allocs();
    for i in 0..10_000u64 {
        let t0 = std::time::Instant::now();
        metrics.note_read_batch(64);
        metrics.note_write_batch(64);
        metrics.op_duration(MemOp::Read, std::time::Duration::from_nanos(500 + i));
        metrics.op_duration(MemOp::Write, t0.elapsed());
        metrics.stage_duration_n(
            MemOp::Read,
            clme_mem::MemStage::MacVerify,
            std::time::Duration::from_nanos(i),
            1,
        );
        metrics.lock_wait((i % 16) as usize, t0.elapsed());
        metrics.lock_hold((i % 16) as usize, t0.elapsed());
        metrics.observe_ciphertext_writes(i % 64, 1);
        metrics.page_rolls(1);
        metrics.counterless_reads(1);
    }
    let after = thread_allocs();
    assert_eq!(
        after - before,
        0,
        "hot telemetry increments allocated on the heap"
    );

    // Snapshotting is allowed to allocate; just prove the traffic above
    // actually landed. `MemMetrics` is live in every build: under
    // `telemetry-off` the layer simply never feeds it.
    let snap = metrics.snapshot(None);
    assert_eq!(snap.op(MemOp::Read).latency.count(), 10_001);
    assert_eq!(snap.page_rolls, 10_000);
}
