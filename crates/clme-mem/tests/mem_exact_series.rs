//! Exact-series golden: every exact telemetry series of a
//! seeded single-thread tenant stream, pinned in
//! `goldens/mem/exact_series.json`.
//!
//! The stream runs on four layers — vec and file backends, verified-page
//! cache on (a 4-page cache, so it evicts) and off — and includes a
//! forced page roll, a rekey sweep and a store-level tamper. What the
//! golden pins is a pure function of the stream: every counter, the
//! cache, observation, rekey-progress, store and tree-walk counters, the
//! per-tenant columns, and the flight events that are not sampled. It
//! also pins the sample counts of the latency and stage histograms:
//! they hold the sampled calls only, and on the test's one thread which
//! calls are sampled is a function of the stream too. Nanosecond values,
//! wall-clock fields and the sampled flight events are left out.
//!
//! A mismatch prints the full actual document, which is also how the
//! golden was first produced.

use clme_mem::{
    Block, EncryptionLayer, FileBackend, FlightKind, LayerOptions, MemOp, MemStage, MemoryAdt,
    SloSpec, StoreBackend, TenantRanges, TenantTelemetry, VecBackend, PAGE_BLOCKS,
};
use clme_types::json::JsonValue;
use clme_workloads::tenants::{ComposedBatch, TenantComposer, TenantTrafficConfig};
use std::sync::Arc;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../goldens/mem/exact_series.json"
);
const MASTER: [u8; 32] = [0x3C; 32];
const TENANTS: u64 = 6;
const PAGES_PER_TENANT: u64 = 2;
const BLOCKS: u64 = TENANTS * PAGES_PER_TENANT * PAGE_BLOCKS;

fn traffic() -> TenantTrafficConfig {
    TenantTrafficConfig {
        tenants: TENANTS,
        seed: 0x0E8A_C7,
        skew: 1.2,
        pages_per_tenant: PAGES_PER_TENANT,
        page_blocks: PAGE_BLOCKS,
        batch_blocks: 16,
    }
}

fn options(cache: bool) -> LayerOptions {
    LayerOptions {
        // Low enough that the hot blocks go counterless mid-run.
        counter_saturation: 40,
        shards: 4,
        // The whole run fits: no event is dropped from the multiset.
        flight_capacity: 1 << 16,
        cache_pages: if cache { 4 } else { 0 },
    }
}

fn block_for(addr: u64, round: u64) -> Block {
    core::array::from_fn(|i| (addr as u8) ^ (round as u8).rotate_left(3) ^ i as u8)
}

/// One composed batch through the layer, recorded for its tenant.
fn drive<B: StoreBackend>(layer: &EncryptionLayer<B>, batch: &ComposedBatch, round: u64) {
    let started = std::time::Instant::now();
    if batch.write {
        let writes: Vec<(u64, Block)> = batch
            .addrs
            .iter()
            .map(|&a| (a, block_for(a, round)))
            .collect();
        layer.batch_write(&writes).expect("stream write");
    } else {
        layer.batch_read(&batch.addrs).expect("stream read");
    }
    let blocks = batch.addrs.len() as u64;
    layer.record_tenant_batch(
        batch.tenant,
        batch.write,
        started.elapsed().as_nanos() as u64,
        blocks,
    );
}

fn num(v: u64) -> JsonValue {
    JsonValue::Num(v as f64)
}

fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Runs the stream on `layer` and returns its exact series.
fn series<B: StoreBackend>(mut layer: EncryptionLayer<B>) -> JsonValue {
    let cfg = traffic();
    let mut composer = TenantComposer::new(cfg);
    layer.install_tenants(Arc::new(TenantTelemetry::new(
        TenantRanges {
            count: TENANTS,
            first_page: 0,
            pages_per: PAGES_PER_TENANT,
        },
        TENANTS as usize,
        &composer.expected_heaviest(TENANTS as usize),
        SloSpec::parse_list("read-p99=1s").expect("valid slo"),
    )));
    let mut round = 0u64;
    let mut phase = |layer: &EncryptionLayer<B>, batches: usize| {
        for _ in 0..batches {
            round += 1;
            drive(layer, &composer.next_batch(), round);
        }
    };

    phase(&layer, 150);
    // A forced page roll: 130 writes to one block overflow its minor
    // counter and re-encrypt the page's co-residents.
    let victim = 3 * PAGE_BLOCKS + 5;
    for i in 0..130u64 {
        layer
            .batch_write(&[(victim, block_for(victim, i))])
            .expect("roll write");
    }
    phase(&layer, 100);
    let report = layer.rekey([0xA5; 32]).expect("rekey");
    phase(&layer, 100);
    // A store-level flip: the read fails, then the restore (another
    // foreign write) lets the page verify again.
    let word_index = layer.geometry().data_word(victim);
    let word = layer.backend().read_word(word_index).expect("in bounds");
    let mut flipped = word;
    flipped[7] ^= 0x10;
    layer
        .backend()
        .write_word(word_index, &flipped)
        .expect("in bounds");
    assert!(
        layer.batch_read(&[victim]).is_err(),
        "tamper must be detected"
    );
    layer
        .backend()
        .write_word(word_index, &word)
        .expect("in bounds");
    layer.batch_read(&[victim]).expect("restored word verifies");
    phase(&layer, 50);

    let snap = layer.metrics_snapshot();
    let count = |op: MemOp| snap.op(op).latency.count();
    let stage = |op: MemOp, s: MemStage| snap.op(op).stages[s as usize].count();
    let c = &snap.cache;
    let s = &snap.store;
    let tenants = layer.tenants().expect("installed").snapshot();
    let rows = tenants
        .rows
        .iter()
        .map(|r| {
            obj(vec![
                ("tenant", JsonValue::Str(r.label.clone())),
                (
                    "ops",
                    JsonValue::Arr(r.ops.iter().map(|&v| num(v)).collect()),
                ),
                (
                    "blocks",
                    JsonValue::Arr(r.blocks.iter().map(|&v| num(v)).collect()),
                ),
                (
                    "latency_counts",
                    JsonValue::Arr(vec![num(r.read.count()), num(r.write.count())]),
                ),
                (
                    "cache",
                    JsonValue::Arr(r.cache.iter().map(|&v| num(v)).collect()),
                ),
                ("ciphertext_writes", num(r.ciphertext_writes)),
                ("key_exposure_writes", num(r.key_exposure_writes)),
            ])
        })
        .collect();

    // Flight events minus the sampled kinds (lock waits depend on real
    // contention; read-page and read-hit ride the read sampling tick).
    let sampled_kinds = [
        FlightKind::LockSlow as u16,
        FlightKind::ReadPage as u16,
        FlightKind::ReadHit as u16,
    ];
    let flight = layer.flight_snapshot();
    assert_eq!(flight.dropped, 0, "the ring must retain the whole run");
    let mut events: Vec<(u16, u64, u64)> = flight
        .events
        .iter()
        .filter(|e| !sampled_kinds.contains(&e.kind))
        .map(|e| (e.kind, e.a, e.b))
        .collect();
    events.sort_unstable();
    let events = events
        .into_iter()
        .map(|(k, a, b)| {
            let name = FlightKind::from_code(k).map_or("unknown", FlightKind::name);
            JsonValue::Str(format!("{name} {a} {b}"))
        })
        .collect();

    obj(vec![
        (
            "counters",
            obj(vec![
                ("blocks_read", num(snap.blocks_read)),
                ("blocks_written", num(snap.blocks_written)),
                ("batch_reads", num(snap.batch_reads)),
                ("batch_writes", num(snap.batch_writes)),
                ("integrity_errors", num(snap.integrity_errors)),
                ("page_rolls", num(snap.page_rolls)),
                ("counterless_reads", num(snap.counterless_reads)),
                ("counterless_writes", num(snap.counterless_writes)),
            ]),
        ),
        (
            "verify_cache",
            obj(vec![
                ("hits", num(c.hits)),
                ("partial_hits", num(c.partial_hits)),
                ("misses", num(c.misses)),
                ("fills", num(c.fills)),
                ("evictions", num(c.evictions)),
                ("bypasses", num(c.bypasses)),
                (
                    "invalidations",
                    JsonValue::Arr(c.invalidations.iter().map(|&v| num(v)).collect()),
                ),
                ("foreign_purges", num(c.foreign_purges)),
                ("resident_pages", num(c.resident_pages)),
            ]),
        ),
        (
            "observation",
            obj(vec![
                ("total", num(snap.observed_writes_total)),
                ("max", num(snap.observed_writes_max)),
                ("max_page", num(snap.observed_writes_max_page)),
            ]),
        ),
        (
            "rekey",
            obj(vec![
                ("sweeps", num(snap.rekey.sweeps)),
                ("pages_total", num(snap.rekey.pages_total)),
                ("pages_done", num(snap.rekey.pages_done)),
                ("in_progress", JsonValue::Bool(snap.rekey.in_progress)),
                ("report_pages", num(report.pages)),
                ("report_blocks", num(report.blocks)),
                ("report_counterless", num(report.counterless_blocks)),
            ]),
        ),
        (
            "store",
            obj(vec![
                ("words_read", num(s.words_read)),
                ("words_written", num(s.words_written)),
                ("page_cache_hits", num(s.page_cache_hits)),
                ("page_cache_misses", num(s.page_cache_misses)),
                ("page_cache_evictions", num(s.page_cache_evictions)),
                (
                    "page_cache_read_fill_evictions",
                    num(s.page_cache_read_fill_evictions),
                ),
                ("file_reads", num(s.file_reads)),
                ("file_writes", num(s.file_writes)),
            ]),
        ),
        (
            "tree",
            obj(vec![
                ("nodes_trusted", num(snap.tree.nodes_trusted)),
                ("nodes_verified", num(snap.tree.nodes_verified)),
            ]),
        ),
        (
            "histogram_counts",
            obj(vec![
                ("read_latency", num(count(MemOp::Read))),
                ("batch_latency", num(count(MemOp::Batch))),
                (
                    "read_tree_walk",
                    num(stage(MemOp::Read, MemStage::TreeWalk)),
                ),
                (
                    "write_tree_walk",
                    num(stage(MemOp::Write, MemStage::TreeWalk)),
                ),
                ("write_commit", num(stage(MemOp::Write, MemStage::Commit))),
                (
                    "write_mac_verify",
                    num(stage(MemOp::Write, MemStage::MacVerify)),
                ),
            ]),
        ),
        ("root", num(layer.root())),
        ("tenants", JsonValue::Arr(rows)),
        ("folded_ops", num(tenants.folded_ops)),
        ("flight", JsonValue::Arr(events)),
    ])
}

#[test]
#[cfg_attr(feature = "telemetry-off", ignore = "telemetry compiled out")]
fn exact_series_match_the_golden() {
    let dir = std::env::temp_dir();
    let mut configs = Vec::new();
    for cache in [true, false] {
        let label = if cache { "cache" } else { "no-cache" };
        let vec = EncryptionLayer::with_options(
            VecBackend::for_blocks(BLOCKS),
            BLOCKS,
            MASTER,
            options(cache),
        )
        .expect("vec layer");
        configs.push((format!("vec/{label}"), series(vec)));

        let path = dir.join(format!(
            "clme-exact-series-{}-{label}.store",
            std::process::id()
        ));
        let file = EncryptionLayer::with_options(
            FileBackend::create_for_blocks(&path, BLOCKS).expect("store file"),
            BLOCKS,
            MASTER,
            options(cache),
        )
        .expect("file layer");
        configs.push((format!("file/{label}"), series(file)));
        let _ = std::fs::remove_file(&path);
    }
    let actual = JsonValue::Obj(configs).to_pretty();
    let golden = std::fs::read_to_string(GOLDEN).unwrap_or_default();
    assert!(
        golden.trim_end() == actual.trim_end(),
        "exact series drifted from {GOLDEN}; actual document:\n{actual}"
    );
}
