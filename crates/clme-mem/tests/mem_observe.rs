//! The observation path's contract, checked through the layer's public
//! snapshot and exposition: one sampling decision per batch call covers
//! every sampled probe of every page visit in that call, a visit's
//! stage time is counted once, and derived gauges are fresh on every
//! read path.

use clme_mem::{
    EncryptionLayer, LayerOptions, MemOp, MemStage, MemoryAdt, VecBackend, PAGE_BLOCKS,
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
