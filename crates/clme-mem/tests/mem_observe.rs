//! The observation path's contract, checked through the layer's public
//! snapshot and exposition: one sampling decision per batch call covers
//! every sampled probe of every page visit in that call, a visit's
//! stage time is counted once, and derived gauges are fresh on every
//! read path.

use clme_mem::{
    EncryptionLayer, LayerOptions, MemOp, MemStage, MemoryAdt, VecBackend, MEM_STAGES, PAGE_BLOCKS,
    SAMPLE_EVERY,
};

const MASTER: [u8; 32] = [0x6B; 32];

fn layer(pages: u64, cache_pages: usize) -> EncryptionLayer<VecBackend> {
    let blocks = pages * PAGE_BLOCKS;
    let options = LayerOptions {
        cache_pages,
        ..LayerOptions::default()
    };
    EncryptionLayer::with_options(VecBackend::for_blocks(blocks), blocks, MASTER, options)
        .expect("layer builds")
}

/// Sum of a histogram's samples, in picoseconds.
fn sum_ps(h: &clme_obs::Log2Histogram) -> f64 {
    h.mean_ps() * h.count() as f64
}

/// Every sampled probe rides the call's one decision, and the test
/// thread's calls 0, SAMPLE_EVERY, ... of each kind are sampled. On a
/// read-only cache-off run of calls that each visit two pages for k
/// blocks apiece, each sampled call adds two fan-in samples, 2k read
/// latency, MAC-verify and pad-gen samples, two lock waits and holds,
/// and one batch latency; on one-page k-block write batches, one fan-in
/// sample, k write-latency samples, and one lock wait and hold.
#[test]
#[cfg_attr(feature = "telemetry-off", ignore = "telemetry compiled out")]
fn sampled_probes_share_the_visit_decision() {
    const K: u64 = 8;
    const CALLS: u64 = 300;
    let sampled = CALLS.div_ceil(SAMPLE_EVERY);
    let reads = layer(4, 0);
    for call in 0..CALLS {
        let addrs: Vec<u64> = [call % 4, (call + 1) % 4]
            .into_iter()
            .flat_map(|page| (0..K).map(move |i| page * PAGE_BLOCKS + i * 3))
            .collect();
        reads.batch_read(&addrs).expect("read");
    }
    let snap = reads.metrics_snapshot();
    assert_eq!(snap.fanin_read.count(), 2 * sampled);
    let read = snap.op(MemOp::Read);
    assert_eq!(read.latency.count(), 2 * K * sampled);
    assert_eq!(
        read.stages[MemStage::MacVerify as usize].count(),
        2 * K * sampled
    );
    assert_eq!(
        read.stages[MemStage::PadGen as usize].count(),
        2 * K * sampled
    );
    assert_eq!(snap.op(MemOp::Batch).latency.count(), sampled);
    let waits: u64 = snap.lock_wait.iter().map(|h| h.count()).sum();
    let holds: u64 = snap.lock_hold.iter().map(|h| h.count()).sum();
    assert_eq!(waits, 2 * sampled);
    assert_eq!(holds, 2 * sampled);

    const BATCHES: u64 = 100;
    let sampled = BATCHES.div_ceil(SAMPLE_EVERY);
    let writes = layer(4, 0);
    for batch in 0..BATCHES {
        let page = batch % 4;
        let data: Vec<(u64, clme_mem::Block)> = (0..K)
            .map(|i| (page * PAGE_BLOCKS + i, [batch as u8; 64]))
            .collect();
        writes.batch_write(&data).expect("write");
    }
    let snap = writes.metrics_snapshot();
    assert_eq!(snap.fanin_write.count(), sampled);
    assert_eq!(snap.op(MemOp::Write).latency.count(), K * sampled);
    let waits: u64 = snap.lock_wait.iter().map(|h| h.count()).sum();
    let holds: u64 = snap.lock_hold.iter().map(|h| h.count()).sum();
    assert_eq!(waits, sampled);
    assert_eq!(holds, sampled);
}

/// A page visit's batched pad pass is one interval shared by its
/// blocks, so the read pad-gen stage can never add up to more time than
/// the sampled batch calls that contain it.
#[test]
#[cfg_attr(feature = "telemetry-off", ignore = "telemetry compiled out")]
fn read_pad_gen_counts_each_pad_pass_once() {
    const CALLS: u64 = 256;
    let sampled = CALLS.div_ceil(SAMPLE_EVERY);
    let mem = layer(4, 0);
    for call in 0..CALLS {
        let page = call % 4;
        let addrs: Vec<u64> = (page * PAGE_BLOCKS..(page + 1) * PAGE_BLOCKS).collect();
        mem.batch_read(&addrs).expect("full-page miss read");
    }
    let snap = mem.metrics_snapshot();
    let pad = &snap.op(MemOp::Read).stages[MemStage::PadGen as usize];
    let batch = &snap.op(MemOp::Batch).latency;
    assert_eq!(pad.count(), PAGE_BLOCKS * sampled);
    assert_eq!(batch.count(), sampled);
    assert!(
        sum_ps(pad) <= sum_ps(batch),
        "pad-gen total {} ps exceeds the batch-call total {} ps",
        sum_ps(pad),
        sum_ps(batch)
    );
}

/// The resident-pages gauge is refreshed for the Prometheus scrape as
/// well as for the snapshot.
#[test]
#[cfg_attr(feature = "telemetry-off", ignore = "telemetry compiled out")]
fn prom_scrape_sees_the_resident_page_gauge() {
    let mem = layer(4, 16);
    for page in 0..3u64 {
        mem.batch_read(&[page * PAGE_BLOCKS]).expect("cold read");
    }
    let text = mem.metrics_prom();
    assert!(
        text.contains("clme_mem_cache_resident_pages 3\n"),
        "scrape must show 3 resident pages:\n{text}"
    );
    assert_eq!(mem.metrics_snapshot().cache.resident_pages, 3);
}

/// Runs `call` as the first call of its kind on a fresh thread, so it
/// is sampled, and returns the stage counts it added, `[read, write]`
/// by [`MemStage`].
fn stage_counts(
    mem: &EncryptionLayer<VecBackend>,
    call: impl FnOnce(&EncryptionLayer<VecBackend>) + Send,
) -> [[u64; MEM_STAGES]; 2] {
    let counts = |mem: &EncryptionLayer<VecBackend>| {
        let snap = mem.metrics_snapshot();
        [MemOp::Read, MemOp::Write]
            .map(|op| MemStage::ALL.map(|s| snap.op(op).stages[s as usize].count()))
    };
    let before = counts(mem);
    std::thread::scope(|s| s.spawn(|| call(mem)).join().expect("call runs"));
    let after = counts(mem);
    core::array::from_fn(|op| core::array::from_fn(|s| after[op][s] - before[op][s]))
}

/// A stage counts the blocks its measured interval covered: 1 for a
/// lock wait, a walk and a commit; 1 per fetched block for store and
/// MAC; the pad requests of a read page's batched pad pass plus 1 per
/// XTS decrypt; 1 per page roll for write-side MAC and 1 per encrypted
/// block for write-side pad. Stage order: lock, tree-walk, store,
/// mac-verify, pad-gen, commit.
#[test]
#[cfg_attr(feature = "telemetry-off", ignore = "telemetry compiled out")]
fn sampled_calls_count_each_stage_by_the_blocks_it_covered() {
    const SATURATION: u64 = 3;
    let blocks = 4 * PAGE_BLOCKS;
    let options = LayerOptions {
        counter_saturation: SATURATION,
        ..LayerOptions::default()
    };
    let mem =
        EncryptionLayer::with_options(VecBackend::for_blocks(blocks), blocks, MASTER, options)
            .expect("layer builds");
    // Block 0 passes saturation and turns counterless; block 1 stays in
    // counter mode. Block 64 is one write short of rolling page 1.
    let mut setup = vec![(0, [1u8; 64]); SATURATION as usize + 1];
    setup.push((1, [2u8; 64]));
    setup.extend(std::iter::repeat_n((PAGE_BLOCKS, [3u8; 64]), 127));
    mem.batch_write(&setup).expect("setup writes");
    assert!(mem.is_counterless(0).expect("counter"));
    assert!(!mem.is_counterless(1).expect("counter"));
    let none = [0; MEM_STAGES];

    // A miss on page 0: one walk, three fetched blocks, two pads from
    // the batched pass and one XTS decrypt.
    let miss = stage_counts(&mem, |m| {
        m.batch_read(&[0, 1, 2]).expect("miss");
    });
    assert_eq!(miss, [[1, 1, 3, 3, 3, 0], none]);
    // A partial hit: block 0 from the cache, block 3 fetched under the
    // cached counter block, no walk.
    let partial = stage_counts(&mem, |m| {
        m.batch_read(&[0, 3]).expect("partial hit");
    });
    assert_eq!(partial, [[1, 0, 1, 1, 1, 0], none]);
    // A full hit: only the lock wait is timed.
    let hit = stage_counts(&mem, |m| {
        m.batch_read(&[1, 2]).expect("full hit");
    });
    assert_eq!(hit, [[1, 0, 0, 0, 0, 0], none]);
    // A two-page write batch whose first block rolls page 1: one lock
    // wait, walk and commit, one roll verified, two blocks encrypted.
    let write = stage_counts(&mem, |m| {
        m.batch_write(&[(PAGE_BLOCKS, [4u8; 64]), (2 * PAGE_BLOCKS, [5u8; 64])])
            .expect("write");
    });
    assert_eq!(write, [none, [1, 1, 0, 1, 2, 1]]);
    assert_eq!(mem.metrics_snapshot().page_rolls, 1);
}
