//! Telemetry output after a run: the `--stats` tables, the
//! `--stats-json` artifact, the `--prom` exposition, and the
//! `--check-stats` walk over an artifact's required keys.

use super::bench::BenchReport;
use super::MemArgs;
use crate::write_artifact;
use clme_mem::{EncryptionLayer, MemOp, StoreBackend, TenantSnapshot};
use clme_obs::Log2Histogram;
use clme_types::json::JsonValue;
use std::path::Path;

/// `BENCH_mem.json` schema version. 2 added the bench warm-up pass,
/// per-rep throughput + spread, and the verify_cache/fanin stats
/// sections; 3 added the `tenants` object (per-tenant rows, SLO burn,
/// tail attribution, stream digest) written by `--tenants` runs.
/// History entries from schemas 1 and 2 are still carried forward.
const MEM_SCHEMA: u64 = 3;

/// Schema versions whose `history` arrays this build still understands.
const MEM_SCHEMA_COMPAT: [u64; 3] = [1, 2, MEM_SCHEMA];

/// Artifact history entries kept when carrying the trajectory forward.
const MEM_HISTORY_CAP: usize = 40;

/// One latency histogram row: samples, p50, p95, p99, mean and max in ns,
/// after `indent` and the label padded to `width`.
pub fn hist_row(indent: &str, width: usize, label: &str, hist: &Log2Histogram) {
    println!(
        "{indent}{label:<width$} {:>10} {:>9.0} {:>9.0} {:>9.0} {:>9.0} {:>9.0}",
        hist.count(),
        hist.percentile_ps(0.5) as f64 / 1000.0,
        hist.percentile_ps(0.95) as f64 / 1000.0,
        hist.percentile_ps(0.99) as f64 / 1000.0,
        hist.mean_ps() / 1000.0,
        hist.max_ps() as f64 / 1000.0,
    );
}

/// The human `--stats` table: every layer of the telemetry pipeline.
fn print_stats(snap: &clme_mem::MemMetricsSnapshot) {
    use clme_mem::MemStage;

    println!("telemetry: op and crypto-stage latencies (ns)");
    println!(
        "    {:<14} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "class", "samples", "p50", "p95", "p99", "mean", "max"
    );
    for op in MemOp::ALL {
        let stats = snap.op(op);
        hist_row("    ", 14, op.name(), &stats.latency);
        for stage in MemStage::ALL {
            let hist = &stats.stages[stage as usize];
            if hist.count() > 0 {
                hist_row("    ", 14, &format!("  {}", stage.name()), hist);
            }
        }
    }

    println!("telemetry: shard lock contention (ns)");
    println!(
        "    {:<14} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "shard", "acquires", "wait_p50", "wait_p99", "wait_max", "hold_p50", "hold_p99"
    );
    for (i, wait) in snap.lock_wait.iter().enumerate() {
        let hold = &snap.lock_hold[i];
        if wait.count() == 0 && hold.count() == 0 {
            continue;
        }
        println!(
            "    {:<14} {:>10} {:>9.0} {:>9.0} {:>9.0} {:>9.0} {:>9.0}",
            i,
            wait.count(),
            wait.percentile_ps(0.5) as f64 / 1000.0,
            wait.percentile_ps(0.99) as f64 / 1000.0,
            wait.max_ps() as f64 / 1000.0,
            hold.percentile_ps(0.5) as f64 / 1000.0,
            hold.percentile_ps(0.99) as f64 / 1000.0,
        );
    }

    println!(
        "telemetry: traffic  blocks_read={} blocks_written={} batches={}r/{}w \
         integrity_errors={} page_rolls={} counterless={}r/{}w",
        snap.blocks_read,
        snap.blocks_written,
        snap.batch_reads,
        snap.batch_writes,
        snap.integrity_errors,
        snap.page_rolls,
        snap.counterless_reads,
        snap.counterless_writes,
    );
    println!(
        "telemetry: observation  ciphertext_writes={} hottest page {} observed {} times",
        snap.observed_writes_total, snap.observed_writes_max_page, snap.observed_writes_max,
    );
    println!(
        "telemetry: rekey  sweeps={} progress={}/{} pages{} key_dwell={}ms \
         last_sweep={}ms last_old_key_dwell={}ms",
        snap.rekey.sweeps,
        snap.rekey.pages_done,
        snap.rekey.pages_total,
        if snap.rekey.in_progress {
            " (in progress)"
        } else {
            ""
        },
        snap.rekey.key_dwell_ms,
        snap.rekey.last_sweep_ms,
        snap.rekey.last_old_key_dwell_ms,
    );
    let cache = &snap.cache;
    println!(
        "telemetry: verify_cache  {:.1}% hit ({} full / {} partial / {} misses), \
         fills={} evictions={} bypasses={} resident={} pages",
        cache.hit_rate() * 100.0,
        cache.hits,
        cache.partial_hits,
        cache.misses,
        cache.fills,
        cache.evictions,
        cache.bypasses,
        cache.resident_pages,
    );
    println!(
        "telemetry: verify_cache invalidations  write={} rekey={} tamper={} \
         foreign={} (foreign purges={})",
        cache.invalidated(clme_mem::CacheCause::Write),
        cache.invalidated(clme_mem::CacheCause::Rekey),
        cache.invalidated(clme_mem::CacheCause::Tamper),
        cache.invalidated(clme_mem::CacheCause::Foreign),
        cache.foreign_purges,
    );
    println!(
        "telemetry: tree  nodes_trusted={} nodes_verified={}",
        snap.tree.nodes_trusted, snap.tree.nodes_verified,
    );
    println!(
        "telemetry: batch fan-in  read p50={} p99={} max={} blocks/page, \
         write p50={} p99={} max={} blocks/page",
        snap.fanin_read.percentile_ps(0.5) / 1000,
        snap.fanin_read.percentile_ps(0.99) / 1000,
        snap.fanin_read.max_ps() / 1000,
        snap.fanin_write.percentile_ps(0.5) / 1000,
        snap.fanin_write.percentile_ps(0.99) / 1000,
        snap.fanin_write.max_ps() / 1000,
    );
    println!(
        "telemetry: store  words={}r/{}w page_cache {:.1}% hit \
         ({} hits / {} misses / {} evictions), file io {}r/{}w",
        snap.store.words_read,
        snap.store.words_written,
        snap.store.page_cache_hit_rate() * 100.0,
        snap.store.page_cache_hits,
        snap.store.page_cache_misses,
        snap.store.page_cache_evictions,
        snap.store.file_reads,
        snap.store.file_writes,
    );
}

/// The `--stats` per-tenant tables: bounded-cardinality rows (top-K
/// exact plus the `__other__` rollup), stage blame, tail attribution,
/// and SLO burn.
fn print_tenant_stats(tenant: &TenantSnapshot) {
    use clme_mem::MemStage;

    println!(
        "telemetry: per-tenant ({} exact slots of {} tenants, {} ops folded into __other__)",
        tenant.top_k.min(tenant.tenant_count as usize),
        tenant.tenant_count,
        tenant.folded_ops,
    );
    println!(
        "    {:<14} {:>13} {:>9} {:>9} {:>9} {:>7} {:>9} {:<10}",
        "tenant", "ops(r/w)", "rd_p50", "rd_p99", "wr_p99", "cache%", "ctx_wr", "tail"
    );
    for row in &tenant.rows {
        let lookups: u64 = row.cache.iter().sum();
        if row.ops[0] + row.ops[1] == 0 && lookups == 0 {
            continue;
        }
        let cache_pct = if lookups > 0 {
            row.cache[0] as f64 / lookups as f64 * 100.0
        } else {
            0.0
        };
        println!(
            "    {:<14} {:>13} {:>9.0} {:>9.0} {:>9.0} {:>7.1} {:>9} {:<10}",
            row.label,
            format!("{}/{}", row.ops[0], row.ops[1]),
            row.read.percentile_ps(0.5) as f64 / 1000.0,
            row.read.percentile_ps(0.99) as f64 / 1000.0,
            row.write.percentile_ps(0.99) as f64 / 1000.0,
            cache_pct,
            row.ciphertext_writes,
            row.dominant_tail()
                .map(MemStage::tenant_name)
                .unwrap_or("-"),
        );
    }
    if !tenant.slo.is_empty() {
        println!("telemetry: tenant SLO burn (burn = bad-fraction / error-budget)");
        println!(
            "    {:<14} {:<16} {:>9} {:>7} {:>7}  window burns (oldest first)",
            "tenant", "slo", "good", "bad", "burn"
        );
        for row in &tenant.rows {
            for slo in &row.slo {
                if slo.good + slo.bad == 0 {
                    continue;
                }
                let windows: Vec<String> =
                    slo.window_burns.iter().map(|b| format!("{b:.2}")).collect();
                println!(
                    "    {:<14} {:<16} {:>9} {:>7} {:>7.2}  {}",
                    row.label,
                    slo.label,
                    slo.good,
                    slo.bad,
                    slo.burn,
                    windows.join(" "),
                );
            }
        }
    }
    if !tenant.hot_unadmitted.is_empty() {
        let listed: Vec<String> = tenant
            .hot_unadmitted
            .iter()
            .map(|(id, count)| format!("tenant-{id} ({count} blocks)"))
            .collect();
        println!(
            "telemetry: heavy hitters hiding in __other__ (raise --tenant-top): {}",
            listed.join(", ")
        );
    }
}

/// Renders the `--stats-json` artifact: run parameters, throughput
/// (when the run was a bench), the full telemetry snapshot, and the
/// run history carried forward with this run appended.
fn stats_artifact(
    args: &MemArgs,
    snap: &clme_mem::MemMetricsSnapshot,
    bench: Option<&BenchReport>,
    tenant: Option<&TenantSnapshot>,
    mut history: Vec<JsonValue>,
) -> String {
    let num = JsonValue::Num;
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0);
    // A bench's own per-call latencies; otherwise the layer's samples.
    let p99_ns = |op: MemOp| {
        let ps = match bench {
            Some(bench) => bench.latency(op).percentile_ps(0.99),
            None => snap.op(op).latency.percentile_ps(0.99),
        };
        ps as f64 / 1000.0
    };
    let mut entry = vec![
        ("unix_time".into(), num(unix_time)),
        ("backend".into(), JsonValue::Str(args.backend.clone())),
        ("cache".into(), JsonValue::Bool(args.cache)),
        ("read_p99_ns".into(), num(p99_ns(MemOp::Read))),
        ("write_p99_ns".into(), num(p99_ns(MemOp::Write))),
    ];
    if let Some(bench) = bench {
        entry.push(("write_blocks_per_sec".into(), num(bench.write.best().1)));
        entry.push(("read_blocks_per_sec".into(), num(bench.read.best().1)));
    }
    history.push(JsonValue::Obj(entry));
    if history.len() > MEM_HISTORY_CAP {
        let excess = history.len() - MEM_HISTORY_CAP;
        history.drain(..excess);
    }

    let mut doc = vec![
        ("schema".into(), num(MEM_SCHEMA as f64)),
        ("backend".into(), JsonValue::Str(args.backend.clone())),
        ("blocks".into(), num(args.blocks as f64)),
        ("seed".into(), num(args.seed as f64)),
    ];
    if let Some(bench) = bench {
        let nums = |values: Vec<f64>| JsonValue::Arr(values.into_iter().map(num).collect());
        doc.push((
            "bench".into(),
            JsonValue::Obj(vec![
                ("ops".into(), num(args.ops.max(64) as f64)),
                ("reps".into(), num(args.reps as f64)),
                ("write_blocks_per_sec".into(), num(bench.write.best().1)),
                ("read_blocks_per_sec".into(), num(bench.read.best().1)),
                ("rekey_blocks".into(), num(bench.rekey_blocks as f64)),
                (
                    "rekey_blocks_per_sec".into(),
                    num(bench.rekey_blocks_per_sec),
                ),
                ("warmup_passes".into(), num(1.0)),
                ("write_rep_blocks_per_sec".into(), nums(bench.write.rates())),
                ("read_rep_blocks_per_sec".into(), nums(bench.read.rates())),
                ("write_spread_pct".into(), num(bench.write.spread_pct())),
                ("read_spread_pct".into(), num(bench.read.spread_pct())),
            ]),
        ));
    }
    doc.push(("stats".into(), snap.to_json()));
    if let Some(tenant) = tenant {
        let mut obj = match tenant.to_json() {
            JsonValue::Obj(fields) => fields,
            other => vec![("snapshot".into(), other)],
        };
        obj.push(("skew".into(), num(args.skew)));
        if let Some((digest, batches)) = bench.and_then(|bench| bench.tenant_stream) {
            // Hex string: a u64 digest does not survive the f64 JSON
            // number round trip.
            obj.push(("digest".into(), JsonValue::Str(format!("{digest:#018x}"))));
            obj.push(("batches".into(), num(batches as f64)));
        }
        doc.push(("tenants".into(), JsonValue::Obj(obj)));
    }
    doc.push(("history".into(), JsonValue::Arr(history)));
    let mut text = JsonValue::Obj(doc).to_pretty();
    text.push('\n');
    text
}

/// Emits whatever telemetry outputs the flags asked for after the mode
/// (demo/smoke/bench/critpath) has run. One snapshot feeds all three.
pub fn emit_stats<B: StoreBackend>(
    args: &MemArgs,
    layer: &EncryptionLayer<B>,
    bench: Option<&BenchReport>,
) -> i32 {
    if !(args.stats || args.stats_json.is_some() || args.prom.is_some()) {
        return 0;
    }
    let snap = layer.metrics_snapshot();
    let tenant = layer.tenants().map(|t| t.snapshot());
    if args.stats {
        print_stats(&snap);
        if let Some(tenant) = &tenant {
            print_tenant_stats(tenant);
        }
    }
    if let Some(path) = &args.stats_json {
        let history = std::fs::read_to_string(path)
            .map(|text| clme_bench::perf::extract_history_for(&text, &MEM_SCHEMA_COMPAT))
            .unwrap_or_default();
        let artifact = stats_artifact(args, &snap, bench, tenant.as_ref(), history);
        if !write_artifact(path, &artifact) {
            return 1;
        }
        eprintln!("wrote telemetry artifact to {}", path.display());
    }
    if let Some(path) = &args.prom {
        if !write_artifact(path, &prom_text(layer)) {
            return 1;
        }
        eprintln!("wrote Prometheus exposition to {}", path.display());
    }
    0
}

/// The full Prometheus exposition for a layer: the layer/store families
/// plus the bounded-cardinality per-tenant families when tenant
/// telemetry is installed.
pub fn prom_text<B: StoreBackend>(layer: &EncryptionLayer<B>) -> String {
    let mut text = layer.metrics_prom();
    if let Some(tenants) = layer.tenants() {
        text.push_str(&clme_obs::prom::render(&tenants.snapshot().prom_samples()));
    }
    text
}

/// What a required artifact key must hold.
#[derive(Clone, Copy)]
pub enum Want {
    Num,
    Str,
    /// Any value.
    Some,
    /// An array, possibly empty.
    Arr,
    /// An array with at least one element.
    NonEmpty,
}

/// Every key a `--stats-json` artifact must carry, as dotted paths. `[*]`
/// stands for every element of an array, which its own entry checks.
/// The `tenants` keys apply when the artifact has a `tenants` object
/// (a `--tenants` run): per-tenant rows, SLO burn, tail attribution and
/// the stream digest.
pub const REQUIRED_KEYS: [(&str, Want); 32] = [
    ("stats.lock_wait", Want::NonEmpty),
    ("stats.lock_wait[*].p99_ns", Want::Num),
    ("stats.rekey.pages_total", Want::Num),
    ("stats.rekey.pages_done", Want::Num),
    ("stats.rekey.key_dwell_ms", Want::Num),
    ("stats.store.page_cache_hit_rate", Want::Num),
    ("stats.verify_cache.hits", Want::Num),
    ("stats.verify_cache.partial_hits", Want::Num),
    ("stats.verify_cache.misses", Want::Num),
    ("stats.verify_cache.hit_rate", Want::Num),
    ("stats.verify_cache.bypasses", Want::Num),
    ("stats.verify_cache.resident_pages", Want::Num),
    ("stats.tree.nodes_trusted", Want::Num),
    ("stats.tree.nodes_verified", Want::Num),
    ("stats.fanin.read.p99_blocks", Want::Num),
    ("stats.fanin.write.p99_blocks", Want::Num),
    ("stats.ops.read.latency.p99_ns", Want::Num),
    ("stats.ops.write.latency.p99_ns", Want::Num),
    ("tenants.count", Want::Num),
    ("tenants.top_k", Want::Num),
    ("tenants.folded_ops", Want::Num),
    ("tenants.skew", Want::Num),
    ("tenants.digest", Want::Str),
    ("tenants.rows", Want::NonEmpty),
    ("tenants.rows[*].read.p99_ns", Want::Some),
    ("tenants.rows[*].write.p99_ns", Want::Some),
    ("tenants.rows[*].cache.hits", Want::Some),
    ("tenants.rows[*].tail.dominant", Want::Some),
    ("tenants.rows[*].ciphertext_writes", Want::Some),
    ("tenants.rows[*].slo", Want::Arr),
    ("tenants.rows[*].slo[*].burn", Want::Num),
    ("tenants.rows[*].slo[*].window_burns", Want::Arr),
];

/// Checks the rest of a key `path` below `value`, reached under `name`,
/// and records the key in `missing` unless it holds what `want` asks.
fn walk(value: Option<&JsonValue>, name: &str, path: &str, want: Want, missing: &mut Vec<String>) {
    if path.is_empty() {
        let (held, note) = match want {
            Want::Num => (value.and_then(JsonValue::as_f64).is_some(), ""),
            Want::Str => (value.and_then(JsonValue::as_str).is_some(), ""),
            Want::Some => (value.is_some(), ""),
            Want::Arr => (matches!(value, Some(JsonValue::Arr(_))), " (array)"),
            Want::NonEmpty => (
                matches!(value, Some(JsonValue::Arr(items)) if !items.is_empty()),
                " (non-empty array)",
            ),
        };
        if !held {
            missing.push(format!("{name}{note}"));
        }
        return;
    }
    let (segment, rest) = path.split_once('.').unwrap_or((path, ""));
    let key = segment.trim_end_matches("[*]");
    let child = value.and_then(|v| v.get(key));
    let name = if name.is_empty() {
        key.to_string()
    } else {
        format!("{name}.{key}")
    };
    if key == segment {
        walk(child, &name, rest, want, missing);
    } else if let Some(JsonValue::Arr(items)) = child {
        for (i, item) in items.iter().enumerate() {
            walk(Some(item), &format!("{name}[{i}]"), rest, want, missing);
        }
    }
}

/// Every required key `doc` lacks, named as `--check-stats` lists it.
pub fn stats_missing(doc: &JsonValue) -> Vec<String> {
    let mut missing = Vec::new();
    if doc.get("schema").and_then(JsonValue::as_f64) != Some(MEM_SCHEMA as f64) {
        missing.push(format!("schema {MEM_SCHEMA}"));
    }
    let tenants = doc.get("tenants");
    for (path, want) in REQUIRED_KEYS {
        if tenants.is_some() || !path.starts_with("tenants") {
            walk(Some(doc), "", path, want, &mut missing);
        }
    }
    if let Some(JsonValue::Arr(rows)) = tenants.and_then(|t| t.get("rows")) {
        let other =
            |row: &JsonValue| row.get("tenant").and_then(JsonValue::as_str) == Some("__other__");
        if !rows.is_empty() && !rows.iter().any(other) {
            missing.push("tenants.rows[*] __other__ rollup row".into());
        }
    }
    missing
}

/// Reads and parses a JSON artifact such as a `--stats-json` file.
pub fn read_json(path: &Path) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|err| format!("cannot read {}: {err}", path.display()))?;
    clme_types::json::parse(&text)
        .map_err(|err| format!("{} is not valid JSON: {err}", path.display()))
}

/// `--check-stats PATH`: parses a `--stats-json` artifact with the
/// in-tree JSON parser and verifies the telemetry pipeline's key
/// signals survived the round trip — the CI smoke check.
pub fn check_stats(path: &Path) -> i32 {
    let doc = match read_json(path) {
        Ok(doc) => doc,
        Err(err) => {
            eprintln!("{err}");
            return 1;
        }
    };
    let digest = doc.get("tenants").and_then(|t| t.get("digest"));
    if let Some(digest) = digest.and_then(JsonValue::as_str) {
        println!("{}: tenant stream digest {digest}", path.display());
    }
    let missing = stats_missing(&doc);
    if missing.is_empty() {
        println!("{}: telemetry pipeline keys present", path.display());
        0
    } else {
        eprintln!("{}: missing telemetry keys:", path.display());
        for key in missing {
            eprintln!("  - {key}");
        }
        1
    }
}
