//! Multi-tenant observability invariants that need the real layer and
//! the real traffic composer together: byte-deterministic composed
//! streams regardless of executing thread count, exact top-K accounting
//! with the long tail folded into `__other__`, and Prometheus output
//! that survives hostile tenant display names.
//!
//! The tenant table itself is live in every build; under
//! `telemetry-off` only the layer stops feeding it, so only the test of
//! the layer's own attribution is gated on the default feature set.

use clme_mem::{EncryptionLayer, MemoryAdt, SloSpec, TenantRanges, TenantTelemetry, VecBackend};
use clme_workloads::tenants::{ComposedBatch, TenantComposer, TenantTrafficConfig};
use std::sync::Arc;

const PAGE_BLOCKS: u64 = clme_mem::PAGE_BLOCKS as u64;

fn traffic(tenants: u64, pages_per: u64, seed: u64) -> TenantTrafficConfig {
    TenantTrafficConfig {
        tenants,
        seed,
        skew: 1.2,
        pages_per_tenant: pages_per,
        page_blocks: PAGE_BLOCKS,
        batch_blocks: 64,
    }
}

fn layer_for(cfg: &TenantTrafficConfig) -> EncryptionLayer<VecBackend> {
    let blocks = cfg.tenants * cfg.pages_per_tenant * PAGE_BLOCKS;
    EncryptionLayer::new(VecBackend::for_blocks(blocks), blocks, [9u8; 32]).expect("layer builds")
}

/// Tenant telemetry whose exact slots go to the composer's expected
/// heaviest tenants of the given ranks (`0..k`: the top `k`).
fn telemetry_for(
    cfg: &TenantTrafficConfig,
    ranks: std::ops::Range<usize>,
    slos: &str,
) -> Arc<TenantTelemetry> {
    let composer = TenantComposer::new(*cfg);
    Arc::new(TenantTelemetry::new(
        TenantRanges {
            count: cfg.tenants,
            first_page: 0,
            pages_per: cfg.pages_per_tenant,
        },
        ranks.len(),
        &composer.expected_heaviest(ranks.end)[ranks.start..],
        SloSpec::parse_list(slos).expect("valid slos"),
    ))
}

/// Runs pre-composed batches against the layer over `threads` workers,
/// round-robin by batch index, recording into the tenant telemetry.
/// The composition (and its digest) happened before any thread spawned,
/// so the stream is identical whatever `threads` is.
fn execute(
    layer: &Arc<EncryptionLayer<VecBackend>>,
    telemetry: &Arc<TenantTelemetry>,
    batches: &[ComposedBatch],
    threads: usize,
) {
    std::thread::scope(|scope| {
        for worker in 0..threads {
            let layer = Arc::clone(layer);
            let telemetry = Arc::clone(telemetry);
            let mine: Vec<ComposedBatch> = batches
                .iter()
                .skip(worker)
                .step_by(threads)
                .cloned()
                .collect();
            scope.spawn(move || {
                for batch in mine {
                    let started = std::time::Instant::now();
                    if batch.write {
                        let data: Vec<(u64, clme_mem::Block)> = batch
                            .addrs
                            .iter()
                            .map(|&addr| (addr, [addr as u8; 64]))
                            .collect();
                        layer.batch_write(&data).expect("write succeeds");
                    } else {
                        layer.batch_read(&batch.addrs).expect("read succeeds");
                    }
                    telemetry.record_op(
                        batch.tenant,
                        batch.write,
                        started.elapsed().as_nanos() as u64,
                        batch.addrs.len() as u64,
                    );
                }
            });
        }
    });
}

#[test]
fn composed_stream_is_deterministic_across_runs_and_thread_counts() {
    let cfg = traffic(16, 2, 0xFEED);
    let mut a = TenantComposer::new(cfg);
    let mut b = TenantComposer::new(cfg);
    let batches_a = a.compose(96);
    let batches_b = b.compose(96);
    assert_eq!(
        batches_a, batches_b,
        "same seed must compose the same stream"
    );
    assert_eq!(a.digest(), b.digest());

    // Execute the identical stream under 1, 4 and 16 threads, rolling
    // the SLO windows halfway: the digest is already fixed
    // (composition-time), and the per-tenant op/block counters, SLO
    // scores and window burns must agree exactly because they are
    // recorded per batch, not per timing (every read meets 1 s, every
    // write misses 1 ns). So must the heavy tenants outside the slots,
    // which go to the 5th to 8th expected-heaviest tenants so that the
    // heaviest four fold into `__other__`. 16 threads outnumber the
    // counters' owned stripes, so the shared stripe runs too.
    {
        let mut snapshots = Vec::new();
        for threads in [1usize, 4, 16] {
            let layer = Arc::new(layer_for(&cfg));
            let telemetry = telemetry_for(&cfg, 4..8, "read-p99=1s,write-p99=1ns");
            let (first, second) = batches_a.split_at(batches_a.len() / 2);
            execute(&layer, &telemetry, first, threads);
            telemetry.roll_windows();
            execute(&layer, &telemetry, second, threads);
            snapshots.push(telemetry.snapshot());
        }
        type Row = (String, [u64; 2], [u64; 2], Vec<(u64, u64, Vec<f64>)>);
        let counters = |snap: &clme_mem::TenantSnapshot| -> Vec<Row> {
            snap.rows
                .iter()
                .map(|r| {
                    let slo = r
                        .slo
                        .iter()
                        .map(|s| (s.good, s.bad, s.window_burns.clone()))
                        .collect();
                    (r.label.clone(), r.ops, r.blocks, slo)
                })
                .collect()
        };
        assert!(
            snapshots[0].rows.iter().any(|r| r.slo[1].bad > 0),
            "the write objective must score some ops bad"
        );
        assert!(
            !snapshots[0].hot_unadmitted.is_empty(),
            "the heaviest tenants fold into __other__ and must be named"
        );
        for snap in &snapshots[1..] {
            assert_eq!(
                counters(&snapshots[0]),
                counters(snap),
                "per-tenant ops/blocks/SLO scores must not depend on the executing thread count"
            );
            assert_eq!(snapshots[0].folded_ops, snap.folded_ops);
            assert_eq!(snapshots[0].hot_unadmitted, snap.hot_unadmitted);
        }
    }
}

#[test]
fn top_k_rows_are_exact_and_tail_folds_into_other() {
    let cfg = traffic(100, 1, 7);
    let mut composer = TenantComposer::new(cfg);
    let telemetry = telemetry_for(&cfg, 0..8, "read-p99=1s");
    let admitted: Vec<u64> = composer.expected_heaviest(8);

    // Ground truth per tenant, accumulated alongside the recording.
    let mut truth = vec![[0u64; 2]; 100];
    for _ in 0..600 {
        let batch = composer.next_batch();
        truth[batch.tenant as usize][batch.write as usize] += 1;
        telemetry.record_op(batch.tenant, batch.write, 1_000, batch.addrs.len() as u64);
    }

    let snap = telemetry.snapshot();
    assert_eq!(snap.rows.len(), 9, "8 exact rows plus the __other__ rollup");
    let mut folded_expected = 0u64;
    for (t, counts) in truth.iter().enumerate() {
        if !admitted.contains(&(t as u64)) {
            folded_expected += counts[0] + counts[1];
        }
    }
    for row in &snap.rows[..8] {
        let id = row.id.expect("exact rows carry the tenant id") as usize;
        assert!(admitted.contains(&(id as u64)));
        assert_eq!(
            row.ops, truth[id],
            "exact slot must match ground truth for tenant {id}"
        );
    }
    let other = &snap.rows[8];
    assert_eq!(other.id, None);
    assert_eq!(other.label, "__other__");
    assert_eq!(other.ops[0] + other.ops[1], folded_expected);
    assert_eq!(snap.folded_ops, folded_expected);
}

#[test]
fn hostile_tenant_labels_cannot_break_the_prom_exposition() {
    let cfg = traffic(8, 1, 11);
    let telemetry = telemetry_for(&cfg, 0..8, "read-p99=1s");
    let long_name = "x".repeat(200);
    let hostile = [
        (0u64, "quote\"inject\"}"),
        (1, "new\nline{evil=\"1\"}"),
        (2, "back\\slash"),
        (3, "ünïcódé-租户-🦀"),
    ];
    for &(id, name) in &hostile {
        telemetry.set_label(id, name);
    }
    telemetry.set_label(4, &long_name);
    for t in 0..8 {
        telemetry.record_op(t, false, 1_000, 64);
    }

    let text = clme_obs::prom::render(&telemetry.snapshot().prom_samples());
    // The exposition grammar survives: every quote, newline, and
    // backslash in a label value is escaped, so no rendered line is
    // split or terminated early by a hostile name.
    assert!(
        text.contains("quote\\\"inject\\\"}"),
        "quotes must be escaped:\n{text}"
    );
    assert!(
        text.contains("new\\nline{{evil=\\\"1\\\"}}") || text.contains("new\\nline"),
        "newlines must be escaped:\n{text}"
    );
    assert!(
        text.contains("back\\\\slash"),
        "backslashes must be escaped:\n{text}"
    );
    assert!(
        text.contains("ünïcódé-租户-🦀"),
        "plain UTF-8 passes through"
    );
    assert!(text.contains(&long_name), "long names pass through intact");
    for line in text.lines() {
        if let Some(open) = line.find('{') {
            let close = line.rfind('}');
            assert!(
                close.is_some() && close.unwrap() > open,
                "label block must close on the same line: {line}"
            );
        }
        assert!(
            !line.contains("evil=\"1\""),
            "injected label must stay escaped inside the value: {line}"
        );
    }
}

#[cfg(not(feature = "telemetry-off"))]
#[test]
fn layer_hooks_attribute_cache_and_observation_to_the_owning_tenant() {
    let cfg = traffic(4, 1, 23);
    let layer = {
        let blocks = cfg.tenants * cfg.pages_per_tenant * PAGE_BLOCKS;
        let backend = VecBackend::for_blocks(blocks);
        let mut layer = EncryptionLayer::new(backend, blocks, [5u8; 32]).expect("layer builds");
        layer.install_tenants(telemetry_for(&cfg, 0..4, "read-p99=1s"));
        layer
    };

    // Tenant 2's page: write it (ciphertext observations), then read it
    // twice — miss then verified-page hit.
    let base = 2 * PAGE_BLOCKS;
    let writes: Vec<(u64, clme_mem::Block)> =
        (0..PAGE_BLOCKS).map(|i| (base + i, [7u8; 64])).collect();
    layer.batch_write(&writes).expect("write");
    let addrs: Vec<u64> = (0..PAGE_BLOCKS).map(|i| base + i).collect();
    layer.batch_read(&addrs).expect("cold read");
    layer.batch_read(&addrs).expect("cached read");

    let snap = layer.tenants().expect("installed").snapshot();
    let row = snap
        .rows
        .iter()
        .find(|r| r.id == Some(2))
        .expect("tenant 2 has an exact slot");
    assert!(
        row.ciphertext_writes >= PAGE_BLOCKS,
        "observed {}",
        row.ciphertext_writes
    );
    assert!(
        row.cache[0] >= 1,
        "second read must hit the verified-page cache"
    );
    assert!(row.cache[2] >= 1, "first read must miss");
    for other in snap
        .rows
        .iter()
        .filter(|r| r.id != Some(2) && r.id.is_some())
    {
        assert_eq!(
            other.ciphertext_writes, 0,
            "{} saw foreign traffic",
            other.label
        );
        assert_eq!(other.cache, [0, 0, 0]);
    }

    // Rekey resets key-exposure gauges but not cumulative observations.
    assert!(row.key_exposure_writes > 0);
    layer.rekey([6u8; 32]).expect("rekey");
    let after = layer.tenants().expect("installed").snapshot();
    let row_after = after.rows.iter().find(|r| r.id == Some(2)).expect("slot");
    assert_eq!(row_after.key_exposure_writes, 0, "exposure resets at rekey");
    assert!(
        row_after.ciphertext_writes >= PAGE_BLOCKS,
        "observation history survives"
    );
}
