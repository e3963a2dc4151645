//! `clme mem`: the clme-mem encrypted-memory library runner — demo,
//! smoke, bench (single-stream or multi-tenant), critpath, tamper
//! post-mortems, telemetry artifacts and the metrics endpoint.

use crate::args::{unknown_flag, Cursor, DEFAULT_MATRIX_SEED};
use crate::critpath::{critpath_json, print_blame_table};
use clme_mem::{
    write_atomic, DumpContext, EncryptionLayer, FileBackend, LayerOptions, MemOp, MemoryAdt,
    SloSpec, StoreBackend, TenantRanges, TenantSnapshot, TenantTelemetry, VecBackend,
    DEFAULT_CACHE_PAGES, DEFAULT_TENANT_TOP,
};
use clme_obs::{span_flow_json, Log2Histogram, SpanTracer};
use clme_types::json::JsonValue;
use clme_types::rng::SplitMix64;
use clme_workloads::tenants::{TenantComposer, TenantTrafficConfig};
use std::path::{Path, PathBuf};

pub const USAGE: &str = "\
usage: clme mem [--backend vec|file] [--path PATH] [--blocks N] [--ops N]
             [--seed HEX|DEC] [--saturation N] [--smoke | --bench |
             --critpath sweep|zipf|hot | --tamper REGION] [--samples N]
             [--json PATH] [--trace PATH] [--reps N] [--watch]
             [--cache | --no-cache] [--cache-pages N]
             [--epoch-ms MS] [--stats] [--stats-json PATH] [--prom PATH]
             [--check-stats PATH] [--dump PATH] [--dump-on-exit]
             [--serve ADDR] [--serve-requests N]
             [--tenants N] [--skew Z] [--slo SPEC] [--tenant-top K]

Drives the clme-mem library — the counter-light scheme applied to a
real backing store instead of the simulator. The default run is a
demo: random batch writes checked against a plaintext model, one
byte flipped in every stored-word region (ciphertext, MAC lane,
parity lane, counter block, tree node) with the typed IntegrityError
each flip provokes, a ciphertext splice, and a full rekey() sweep.

--smoke     same checks, compact output, nonzero exit on any miss
         (this is the tier-1 CI entry point)
--bench     batch write/read throughput, op latency percentiles,
         and rekey sweep rate (one untimed warm-up pass, then
         --reps timed reps: best-of-N plus the per-rep spread)
--critpath  trace reads with the span tracer and print the blame
         table (sweep = sequential, zipf = skewed; hot = a small
         working set re-read so the verified-page cache serves
         it; zipf blocks saturate counters and go counterless)
--backend   vec (in-memory, default) or file (paged file store;
         --path to keep it, otherwise a temp file is used)
--cache / --no-cache  enable (default) or disable the layer's
         verified-page read cache; --no-cache re-verifies the
         whole chain on every read
--cache-pages N  verified-page cache capacity in pages (default
         512; implies --cache)
--saturation counters above N switch the block to counterless mode
--watch     print a telemetry epoch row every --epoch-ms (default
         250) while the bench runs
--stats     print the full telemetry table after the run: op and
         crypto-stage latency histograms, per-shard lock
         wait/hold, page-cache hit rate, rekey progress
--stats-json write the telemetry snapshot + throughput artifact
         (BENCH_mem.json schema, history carried forward)
--prom      write the snapshot in Prometheus text exposition format
--check-stats parse a --stats-json artifact and verify the
         telemetry pipeline keys are present (CI smoke)
--tamper    flip one stored byte in REGION (data|mac|parity|counter|
         tree) after a deterministic write phase; the provoked
         IntegrityError writes a .clmedump post-mortem bundle
--dump      where the .clmedump bundle goes (with --tamper or
         --dump-on-exit; default mem-tamper-REGION.clmedump)
--dump-on-exit arm the flight recorder and write a bundle when the
         run finishes, even without a fault
--serve     after the run, keep serving GET /metrics (Prometheus
         text) and /healthz over HTTP on ADDR (e.g. 127.0.0.1:9464)
--serve-requests stop serving after N requests (0 = forever)
--tenants   bench N interleaved client streams (Zipf-skewed
         activity, disjoint page ranges, per-tenant read/write
         mix) instead of the single-stream bench; per-tenant
         tables ride --stats/--stats-json/--prom, and --blocks
         is raised if needed so every tenant owns >= 1 page
--skew      Zipf exponent for tenant and page popularity
         (default 1.2; 0 = uniform)
--slo       per-tenant latency objectives, e.g.
         read-p99=120us,write-p99=1ms (default
         read-p99=250us,write-p99=1ms); burn rates per window
--tenant-top exact per-tenant metric slots; the long tail folds
         into __other__ (default 8, bounded cardinality)

example: clme mem --smoke --blocks 256
example: clme mem --bench --backend file --blocks 8192 --stats
example: clme mem --bench --stats-json BENCH_mem.json --reps 3
example: clme mem --critpath hot --json mem_blame.json
example: clme mem --bench --no-cache --stats
example: clme mem --tamper mac --blocks 256 --dump mac.clmedump
example: clme mem --serve 127.0.0.1:9464 --blocks 256
example: clme mem --tenants 64 --skew 1.2 --slo read-p99=120us --stats";

pub struct MemArgs {
    pub backend: String,
    pub path: Option<PathBuf>,
    pub blocks: u64,
    pub ops: usize,
    pub seed: u64,
    pub samples: usize,
    pub saturation: Option<u64>,
    pub smoke: bool,
    pub bench: bool,
    pub critpath: Option<String>,
    pub json: Option<PathBuf>,
    pub trace: Option<PathBuf>,
    pub stats: bool,
    pub stats_json: Option<PathBuf>,
    pub prom: Option<PathBuf>,
    pub watch: bool,
    pub epoch_ms: u64,
    pub reps: usize,
    pub check_stats: Option<PathBuf>,
    pub tamper: Option<String>,
    pub dump: Option<PathBuf>,
    pub dump_on_exit: bool,
    pub serve: Option<String>,
    pub serve_requests: usize,
    pub cache: bool,
    pub cache_pages: Option<usize>,
    pub tenants: Option<u64>,
    pub skew: f64,
    pub slo: Option<String>,
    pub tenant_top: usize,
}

impl Default for MemArgs {
    fn default() -> Self {
        MemArgs {
            backend: "vec".to_string(),
            path: None,
            blocks: 4096,
            ops: 20_000,
            seed: DEFAULT_MATRIX_SEED,
            samples: clme_obs::DEFAULT_SPAN_SAMPLES,
            saturation: None,
            smoke: false,
            bench: false,
            critpath: None,
            json: None,
            trace: None,
            stats: false,
            stats_json: None,
            prom: None,
            watch: false,
            epoch_ms: 250,
            reps: 1,
            check_stats: None,
            tamper: None,
            dump: None,
            dump_on_exit: false,
            serve: None,
            serve_requests: 0,
            cache: true,
            cache_pages: None,
            tenants: None,
            skew: clme_workloads::tenants::DEFAULT_SKEW,
            slo: None,
            tenant_top: DEFAULT_TENANT_TOP,
        }
    }
}

/// The store backends `--backend` (and a `mem/BACKEND/...` critpath
/// label) can name.
pub const BACKENDS: [&str; 2] = ["vec", "file"];

/// The read patterns `--critpath` (and a `mem/.../PATTERN` label) can name.
pub const CRITPATH_PATTERNS: [&str; 3] = ["sweep", "zipf", "hot"];

/// SLOs a `--tenants` run tracks when `--slo` is not given. Generous
/// enough that a healthy run burns near zero; a noisy neighbour or a
/// cold file backend shows up as burn > 0.
const DEFAULT_TENANT_SLO: &str = "read-p99=250us,write-p99=1ms";

pub fn parse(args: &[String]) -> Result<MemArgs, String> {
    let mut parsed = MemArgs::default();
    let mut cur = Cursor::new(args);
    while let Some(flag) = cur.next_flag() {
        match flag {
            "--backend" => parsed.backend = cur.one_of(flag, &BACKENDS)?,
            "--path" => parsed.path = Some(cur.path(flag)?),
            "--blocks" => parsed.blocks = cur.positive(flag, "count")?,
            "--ops" => parsed.ops = cur.num(flag)?,
            "--seed" => parsed.seed = cur.seed(flag)?,
            "--samples" => parsed.samples = cur.num(flag)?,
            "--saturation" => parsed.saturation = Some(cur.num(flag)?),
            "--smoke" => parsed.smoke = true,
            "--bench" => parsed.bench = true,
            "--critpath" => parsed.critpath = Some(cur.one_of(flag, &CRITPATH_PATTERNS)?),
            "--cache" => parsed.cache = true,
            "--no-cache" => parsed.cache = false,
            "--cache-pages" => {
                parsed.cache = true;
                parsed.cache_pages = Some(cur.num(flag)?);
            }
            "--json" => parsed.json = Some(cur.path(flag)?),
            "--trace" => parsed.trace = Some(cur.path(flag)?),
            "--stats" => parsed.stats = true,
            "--stats-json" => parsed.stats_json = Some(cur.path(flag)?),
            "--prom" => parsed.prom = Some(cur.path(flag)?),
            "--watch" => parsed.watch = true,
            "--epoch-ms" => parsed.epoch_ms = cur.positive(flag, "interval")?,
            "--reps" => parsed.reps = cur.positive(flag, "count")?,
            "--check-stats" => parsed.check_stats = Some(cur.path(flag)?),
            "--tamper" => {
                let regions = ["data", "mac", "parity", "counter", "tree"];
                parsed.tamper = Some(cur.one_of(flag, &regions)?);
            }
            "--dump" => parsed.dump = Some(cur.path(flag)?),
            "--dump-on-exit" => parsed.dump_on_exit = true,
            "--serve" => parsed.serve = Some(cur.value(flag)?),
            "--serve-requests" => parsed.serve_requests = cur.num(flag)?,
            "--tenants" => parsed.tenants = Some(cur.positive(flag, "count")?),
            "--skew" => {
                parsed.skew = cur.num(flag)?;
                if !(parsed.skew.is_finite() && parsed.skew >= 0.0) {
                    return Err("--skew needs a finite non-negative exponent".to_string());
                }
            }
            "--slo" => {
                let spec = cur.value(flag)?;
                SloSpec::parse_list(&spec).map_err(|err| format!("bad --slo: {err}"))?;
                parsed.slo = Some(spec);
            }
            "--tenant-top" => parsed.tenant_top = cur.positive(flag, "count")?,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(unknown_flag(other)),
        }
    }
    let modes = [
        parsed.smoke,
        parsed.bench,
        parsed.critpath.is_some(),
        parsed.tamper.is_some(),
    ];
    if modes.into_iter().filter(|&on| on).count() > 1 {
        return Err(
            "--smoke, --bench, --critpath, and --tamper are mutually exclusive".to_string(),
        );
    }
    if let Some(tenants) = parsed.tenants {
        if parsed.smoke || parsed.critpath.is_some() || parsed.tamper.is_some() {
            return Err("--tenants runs the multi-tenant bench; it cannot combine with --smoke, --critpath, or --tamper".to_string());
        }
        parsed.bench = true;
        // Every tenant needs its own page range; resize the store to an
        // exact fit of equal ranges (raising it when --blocks is too
        // small for one page per tenant).
        let page_blocks = clme_mem::PAGE_BLOCKS;
        let pages_per = (parsed.blocks / page_blocks / tenants).max(1);
        let needed = tenants * pages_per * page_blocks;
        if needed != parsed.blocks {
            eprintln!(
                "--tenants {tenants}: sizing the store to {needed} blocks \
                 ({pages_per} pages per tenant)"
            );
            parsed.blocks = needed;
        }
    }
    Ok(parsed)
}

/// The layer's master key, derived from the run seed.
pub fn mem_master_key(seed: u64, label: &[u8]) -> [u8; 32] {
    let mut rng = SplitMix64::new(SplitMix64::new(seed).derive(label));
    let mut key = [0u8; 32];
    for chunk in key.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    key
}

fn mem_options(args: &MemArgs) -> LayerOptions {
    let mut options = LayerOptions::default();
    if let Some(saturation) = args.saturation {
        options.counter_saturation = saturation;
    } else if args.critpath.as_deref() == Some("zipf") {
        // Let the zipf hot set overflow into counterless mode so the
        // blame table shows both modes.
        options.counter_saturation = 8;
    }
    options.cache_pages = if args.cache {
        args.cache_pages.unwrap_or(DEFAULT_CACHE_PAGES)
    } else {
        0
    };
    options
}

/// A skewed block address: cubing a uniform sample concentrates mass
/// near zero — a cheap stand-in for a Zipf-like hot set.
fn mem_skewed_addr(rng: &mut SplitMix64, blocks: u64) -> u64 {
    let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    (((unit * unit * unit) * blocks as f64) as u64).min(blocks - 1)
}

fn mem_pattern_block(rng: &mut SplitMix64) -> clme_mem::Block {
    let mut block = [0u8; clme_mem::BLOCK_BYTES];
    for chunk in block.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    block
}

pub fn run(args: MemArgs) -> i32 {
    if let Some(path) = &args.check_stats {
        return mem_check_stats(path);
    }
    run_with_args(&args)
}

/// The traffic shape a `--tenants` run composes: disjoint equal page
/// ranges over the (already resized) store.
fn mem_tenant_traffic(args: &MemArgs, tenants: u64) -> TenantTrafficConfig {
    TenantTrafficConfig {
        tenants,
        seed: args.seed,
        skew: args.skew,
        pages_per_tenant: args.blocks / clme_mem::PAGE_BLOCKS / tenants,
        page_blocks: clme_mem::PAGE_BLOCKS,
        batch_blocks: 64,
    }
}

/// Builds the per-tenant telemetry for a `--tenants` run: page ranges
/// from the traffic config, exact slots primed with the composer's
/// expected-heaviest tenants, SLOs from `--slo` (or the default pair).
fn mem_tenant_telemetry(args: &MemArgs) -> Option<std::sync::Arc<TenantTelemetry>> {
    let tenants = args.tenants?;
    let cfg = mem_tenant_traffic(args, tenants);
    let composer = TenantComposer::new(cfg);
    let slos = SloSpec::parse_list(args.slo.as_deref().unwrap_or(DEFAULT_TENANT_SLO))
        .expect("SLO spec validated at parse time");
    let ranges = TenantRanges {
        count: tenants,
        first_page: 0,
        pages_per: cfg.pages_per_tenant,
    };
    Some(std::sync::Arc::new(TenantTelemetry::new(
        ranges,
        args.tenant_top,
        &composer.expected_heaviest(args.tenant_top),
        slos,
    )))
}

pub fn run_with_args(args: &MemArgs) -> i32 {
    let master = mem_master_key(args.seed, b"mem/master");
    let options = mem_options(args);
    match args.backend.as_str() {
        "file" => {
            let (path, temporary) = match &args.path {
                Some(path) => (path.clone(), false),
                None => (
                    std::env::temp_dir().join(format!("clme-mem-{}.store", std::process::id())),
                    true,
                ),
            };
            let backend = match FileBackend::create_for_blocks(&path, args.blocks) {
                Ok(backend) => backend,
                Err(err) => {
                    eprintln!("cannot create store at {}: {err}", path.display());
                    return 1;
                }
            };
            let mut layer =
                match EncryptionLayer::with_options(backend, args.blocks, master, options) {
                    Ok(layer) => layer,
                    Err(err) => {
                        eprintln!("cannot initialise layer: {err}");
                        return 1;
                    }
                };
            if let Some(tenants) = mem_tenant_telemetry(args) {
                layer.install_tenants(tenants);
            }
            let code = mem_dispatch(args, &layer);
            drop(layer);
            if temporary {
                let _ = std::fs::remove_file(&path);
            }
            code
        }
        _ => {
            let backend = VecBackend::for_blocks(args.blocks);
            match EncryptionLayer::with_options(backend, args.blocks, master, options) {
                Ok(mut layer) => {
                    if let Some(tenants) = mem_tenant_telemetry(args) {
                        layer.install_tenants(tenants);
                    }
                    mem_dispatch(args, &layer)
                }
                Err(err) => {
                    eprintln!("cannot initialise layer: {err}");
                    1
                }
            }
        }
    }
}

fn mem_dispatch<B: StoreBackend>(args: &MemArgs, layer: &EncryptionLayer<B>) -> i32 {
    if args.dump_on_exit && args.tamper.is_none() {
        layer.arm_dump(mem_dump_context(args, "run", JsonValue::Null));
    }
    let mut bench_report = None;
    let code = if let Some(region) = &args.tamper {
        mem_tamper(args, layer, region)
    } else if let Some(pattern) = &args.critpath {
        mem_critpath(args, layer, pattern)
    } else if args.bench {
        match mem_bench(args, layer) {
            Ok(report) => {
                bench_report = Some(report);
                0
            }
            Err(err) => {
                eprintln!("{err}");
                1
            }
        }
    } else {
        mem_demo(args, layer, !args.smoke)
    };
    if code != 0 {
        return code;
    }
    if args.dump_on_exit && args.tamper.is_none() {
        match layer.dump_now() {
            Ok(Some(path)) => eprintln!("wrote exit dump to {}", path.display()),
            // A fault mid-run already consumed the armed context; the
            // bundle on disk captures that first fault, not the exit.
            Ok(None) => {
                if let Some(path) = layer.last_dump() {
                    eprintln!(
                        "dump already written at the first fault: {}",
                        path.display()
                    );
                }
            }
            Err(err) => {
                eprintln!("cannot write exit dump: {err}");
                return 1;
            }
        }
    }
    let code = mem_emit_stats(args, layer, bench_report.as_ref());
    if code != 0 {
        return code;
    }
    match &args.serve {
        Some(addr) => mem_serve(addr, layer, args.serve_requests),
        None => 0,
    }
}

/// The dump destination and workload description a run arms itself
/// with. `mode` tags what produced the captured window; extras are
/// spliced into the workload object for the replayer.
fn mem_dump_context(args: &MemArgs, mode: &str, extras: JsonValue) -> DumpContext {
    let path = args.dump.clone().unwrap_or_else(|| {
        PathBuf::from(match &args.tamper {
            Some(region) => format!("mem-tamper-{region}.clmedump"),
            None => "mem-exit.clmedump".to_string(),
        })
    });
    let mut workload = vec![
        ("mode".into(), JsonValue::Str(mode.to_string())),
        ("backend".into(), JsonValue::Str(args.backend.clone())),
        ("blocks".into(), JsonValue::Num(args.blocks as f64)),
        ("ops".into(), JsonValue::Num(args.ops.max(64) as f64)),
    ];
    if let Some(tenants) = args.tenants {
        // The range descriptor lets `clme postmortem` name the suspect
        // tenant from page-level events alone.
        let ranges = TenantRanges {
            count: tenants,
            first_page: 0,
            pages_per: mem_tenant_traffic(args, tenants).pages_per_tenant,
        };
        workload.push(("tenants".into(), ranges.to_json()));
        workload.push(("skew".into(), JsonValue::Num(args.skew)));
    }
    if let JsonValue::Obj(extra) = extras {
        workload.extend(extra);
    }
    DumpContext {
        path,
        seed: args.seed,
        workload: JsonValue::Obj(workload),
    }
}

/// The distinct addresses the populate stream will touch, without
/// writing anything — lets `--tamper` pick its victim and arm the dump
/// *before* the captured op window starts, so the bundle's counts cover
/// the whole workload.
fn mem_tamper_addrs(seed: u64, blocks: u64, ops: usize) -> Vec<u64> {
    let mut rng = SplitMix64::new(SplitMix64::new(seed).derive(b"mem/demo"));
    let mut written = std::collections::BTreeSet::new();
    for _ in 0..ops.max(64) {
        written.insert(rng.below(blocks));
        let _ = mem_pattern_block(&mut rng);
    }
    written.into_iter().collect()
}

/// The demo's deterministic phase-1 write stream: `ops` random
/// (address, pattern) pairs from the `mem/demo` seed stream, written in
/// batches of 64. Tamper capture and `postmortem --replay` both run
/// exactly this, so a bundle's recorded seed pins the op window.
/// Returns the sorted distinct addresses written.
pub fn mem_tamper_populate<B: StoreBackend>(
    layer: &EncryptionLayer<B>,
    seed: u64,
    ops: usize,
) -> Result<Vec<u64>, String> {
    let mut rng = SplitMix64::new(SplitMix64::new(seed).derive(b"mem/demo"));
    let blocks = layer.geometry().data_blocks();
    let mut written = std::collections::BTreeSet::new();
    let mut pending: Vec<(u64, clme_mem::Block)> = Vec::with_capacity(64);
    for i in 0..ops.max(64) {
        pending.push((rng.below(blocks), mem_pattern_block(&mut rng)));
        if pending.len() == 64 || i + 1 == ops.max(64) {
            layer
                .batch_write(&pending)
                .map_err(|e| format!("populate batch_write failed: {e}"))?;
            written.extend(pending.drain(..).map(|(addr, _)| addr));
        }
    }
    Ok(written.into_iter().collect())
}

/// Flips `mask` into one stored byte, then reads the probe address; a
/// healthy layer must answer with an [`clme_mem::IntegrityError`] (which
/// is what triggers the armed dump).
pub fn mem_flip_and_probe<B: StoreBackend>(
    layer: &EncryptionLayer<B>,
    word_index: u64,
    byte: usize,
    mask: u8,
    probe: u64,
) -> Result<clme_mem::IntegrityError, String> {
    let mut word = layer
        .backend()
        .read_word(word_index)
        .map_err(|e| format!("cannot read word {word_index}: {e}"))?;
    if byte >= word.len() {
        return Err(format!("byte offset {byte} outside the stored word"));
    }
    word[byte] ^= mask;
    layer
        .backend()
        .write_word(word_index, &word)
        .map_err(|e| format!("cannot write word {word_index}: {e}"))?;
    match layer.read_block(probe) {
        Err(err) => err
            .integrity()
            .copied()
            .ok_or_else(|| format!("tamper raised a non-integrity error: {err}")),
        Ok(_) => Err("tamper went UNDETECTED".into()),
    }
}

/// `--tamper REGION`: run the deterministic write phase, flip one byte
/// in the chosen stored-word region, and let the armed layer write the
/// `.clmedump` bundle the moment the probe read fails. The bundle's
/// workload object records the exact flip site so `clme postmortem
/// --replay` can re-run this flow and reproduce the error class.
fn mem_tamper<B: StoreBackend>(args: &MemArgs, layer: &EncryptionLayer<B>, region: &str) -> i32 {
    use clme_mem::Region;

    let geo = layer.geometry().clone();
    let addrs = mem_tamper_addrs(args.seed, geo.data_blocks(), args.ops.max(64));
    // Same flip sites as the demo's tamper matrix (phase 2).
    let victim = addrs[addrs.len() / 2];
    let page = geo.page_of(victim);
    let top = geo.levels() - 1;
    let (word_index, byte, probe) = match region {
        "data" => (geo.data_word(victim), 5usize, victim),
        "mac" => (geo.data_word(victim), 64 + 2, victim),
        "parity" => (geo.data_word(victim), 72 + 1, victim),
        "counter" => (
            geo.counter_word(page),
            9,
            geo.probe_addr(Region::CounterBlock { page }),
        ),
        _ => (
            geo.node_word(top, 0),
            17,
            geo.probe_addr(Region::TreeNode {
                level: top as u8,
                group: 0,
            }),
        ),
    };
    let extras = JsonValue::Obj(vec![
        ("region".into(), JsonValue::Str(region.to_string())),
        ("word_index".into(), JsonValue::Num(word_index as f64)),
        ("byte".into(), JsonValue::Num(byte as f64)),
        ("mask".into(), JsonValue::Num(1.0)),
        ("probe_addr".into(), JsonValue::Num(probe as f64)),
    ]);
    layer.arm_dump(mem_dump_context(args, "tamper", extras));
    if let Err(err) = mem_tamper_populate(layer, args.seed, args.ops.max(64)) {
        eprintln!("{err}");
        return 1;
    }
    match mem_flip_and_probe(layer, word_index, byte, 0x01, probe) {
        Ok(err) => match layer.last_dump() {
            Some(path) => {
                println!(
                    "tamper {region}: caught ({err}); post-mortem bundle at {}",
                    path.display()
                );
                0
            }
            None => {
                eprintln!("tamper {region}: caught ({err}), but no dump was written");
                1
            }
        },
        Err(msg) => {
            eprintln!("tamper {region}: {msg}");
            1
        }
    }
}

/// `--serve ADDR`: a minimal std-only HTTP responder. `GET /metrics`
/// answers with the layer's Prometheus text exposition, `GET /healthz`
/// with `ok`; anything else is a 404. One request per connection, no
/// keep-alive — enough for a scraper, zero dependencies.
fn mem_serve<B: StoreBackend>(addr: &str, layer: &EncryptionLayer<B>, max_requests: usize) -> i32 {
    use std::io::{BufRead, BufReader, Write};

    let listener = match std::net::TcpListener::bind(addr) {
        Ok(listener) => listener,
        Err(err) => {
            eprintln!("cannot bind {addr}: {err}");
            return 1;
        }
    };
    let local = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| addr.to_string());
    eprintln!("serving /metrics and /healthz on http://{local}");
    let mut served = 0usize;
    for stream in listener.incoming() {
        let mut stream = match stream {
            Ok(stream) => stream,
            Err(_) => continue,
        };
        let request_line = {
            let mut reader = BufReader::new(&mut stream);
            let mut line = String::new();
            if reader.read_line(&mut line).is_err() {
                continue;
            }
            // Drain the headers so well-behaved clients see a clean close.
            let mut header = String::new();
            while let Ok(n) = reader.read_line(&mut header) {
                if n == 0 || header.trim().is_empty() {
                    break;
                }
                header.clear();
            }
            line
        };
        let target = request_line.split_whitespace().nth(1).unwrap_or("");
        let (status, content_type, body) = match target {
            "/metrics" => ("200 OK", "text/plain; version=0.0.4", mem_prom_text(layer)),
            "/healthz" => ("200 OK", "text/plain", "ok\n".to_string()),
            _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
        };
        let response = format!(
            "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        let _ = stream.write_all(response.as_bytes());
        served += 1;
        if max_requests != 0 && served >= max_requests {
            eprintln!("served {served} requests, stopping");
            break;
        }
    }
    0
}

/// Write/read against a plaintext model, one tamper per stored-word
/// region, a splice, and a rekey — the library's end-to-end story.
/// `--smoke` runs the same checks with one-line output; any miss is a
/// nonzero exit (the tier-1 CI hook).
fn mem_demo<B: StoreBackend>(args: &MemArgs, layer: &EncryptionLayer<B>, verbose: bool) -> i32 {
    use clme_mem::Region;
    use std::collections::BTreeMap;

    let geo = layer.geometry().clone();
    if verbose {
        let meta_words = geo.total_words() - geo.data_blocks();
        println!(
            "clme-mem demo: {} blocks ({} pages, {}-level tree, {} metadata words = {:.1}% overhead), backend {}",
            geo.data_blocks(),
            geo.pages(),
            geo.levels(),
            meta_words,
            meta_words as f64 / geo.data_blocks() as f64 * 100.0,
            args.backend,
        );
    }

    // Phase 1: random batch writes mirrored into a plaintext model.
    let mut rng = SplitMix64::new(SplitMix64::new(args.seed).derive(b"mem/demo"));
    let mut model: BTreeMap<u64, clme_mem::Block> = BTreeMap::new();
    let ops = args.ops.max(64);
    let mut pending: Vec<(u64, clme_mem::Block)> = Vec::with_capacity(64);
    for _ in 0..ops {
        let addr = rng.below(geo.data_blocks());
        let block = mem_pattern_block(&mut rng);
        pending.push((addr, block));
        if pending.len() == 64 {
            if let Err(err) = layer.batch_write(&pending) {
                eprintln!("batch_write failed: {err}");
                return 1;
            }
            for (addr, block) in pending.drain(..) {
                model.insert(addr, block);
            }
        }
    }
    if !pending.is_empty() {
        if let Err(err) = layer.batch_write(&pending) {
            eprintln!("batch_write failed: {err}");
            return 1;
        }
        for (addr, block) in pending.drain(..) {
            model.insert(addr, block);
        }
    }
    let addrs: Vec<u64> = model.keys().copied().collect();
    for chunk in addrs.chunks(64) {
        let got = match layer.batch_read(chunk) {
            Ok(got) => got,
            Err(err) => {
                eprintln!("batch_read failed: {err}");
                return 1;
            }
        };
        for (addr, block) in chunk.iter().zip(&got) {
            if block != &model[addr] {
                eprintln!("block {addr:#x} read back wrong");
                return 1;
            }
        }
    }
    if verbose {
        println!(
            "wrote {ops} blocks ({} distinct), every read matches the plaintext model",
            addrs.len()
        );
    }

    // Phase 2: flip one byte in each stored-word region; every flip
    // must surface as a typed IntegrityError and restoring the word
    // must restore the read.
    let victim = addrs[addrs.len() / 2];
    let page = geo.page_of(victim);
    let top = geo.levels() - 1;
    let probes = [
        ("ciphertext lane", geo.data_word(victim), 5usize, victim),
        ("MAC lane", geo.data_word(victim), 64 + 2, victim),
        ("parity lane", geo.data_word(victim), 72 + 1, victim),
        (
            "counter block",
            geo.counter_word(page),
            9,
            geo.probe_addr(Region::CounterBlock { page }),
        ),
        (
            "tree node",
            geo.node_word(top, 0),
            17,
            geo.probe_addr(Region::TreeNode {
                level: top as u8,
                group: 0,
            }),
        ),
    ];
    for (what, word_index, byte, probe) in probes {
        let original = match layer.backend().read_word(word_index) {
            Ok(word) => word,
            Err(err) => {
                eprintln!("cannot read word {word_index}: {err}");
                return 1;
            }
        };
        let mut tampered = original;
        tampered[byte] ^= 0x01;
        layer
            .backend()
            .write_word(word_index, &tampered)
            .expect("in-bounds");
        match layer.read_block(probe) {
            Err(err) if err.integrity().is_some() => {
                if verbose {
                    println!("tamper {what:<16} -> caught: {err}");
                }
            }
            Err(err) => {
                eprintln!("tamper {what} raised a non-integrity error: {err}");
                return 1;
            }
            Ok(_) => {
                eprintln!("tamper {what} went UNDETECTED");
                return 1;
            }
        }
        layer
            .backend()
            .write_word(word_index, &original)
            .expect("in-bounds");
        if layer.read_block(probe).is_err() {
            eprintln!("restoring the {what} word did not restore the read");
            return 1;
        }
    }

    // Phase 3: splice two valid ciphertexts — both positions must fail.
    let (a, b) = (addrs[0], addrs[addrs.len() - 1]);
    let word_a = layer
        .backend()
        .read_word(geo.data_word(a))
        .expect("in-bounds");
    let word_b = layer
        .backend()
        .read_word(geo.data_word(b))
        .expect("in-bounds");
    layer
        .backend()
        .write_word(geo.data_word(a), &word_b)
        .expect("in-bounds");
    layer
        .backend()
        .write_word(geo.data_word(b), &word_a)
        .expect("in-bounds");
    if layer.read_block(a).is_ok() || layer.read_block(b).is_ok() {
        eprintln!("splicing blocks {a:#x} and {b:#x} went UNDETECTED");
        return 1;
    }
    layer
        .backend()
        .write_word(geo.data_word(a), &word_a)
        .expect("in-bounds");
    layer
        .backend()
        .write_word(geo.data_word(b), &word_b)
        .expect("in-bounds");
    if verbose {
        println!("splice of two valid ciphertexts rejected at both positions");
    }

    // Phase 4: rekey and re-verify.
    let report = match layer.rekey(mem_master_key(args.seed, b"mem/rekey")) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("rekey failed: {err}");
            return 1;
        }
    };
    for chunk in addrs.chunks(64) {
        let got = match layer.batch_read(chunk) {
            Ok(got) => got,
            Err(err) => {
                eprintln!("post-rekey batch_read failed: {err}");
                return 1;
            }
        };
        for (addr, block) in chunk.iter().zip(&got) {
            if block != &model[addr] {
                eprintln!("block {addr:#x} wrong after rekey");
                return 1;
            }
        }
    }
    if verbose {
        println!(
            "rekey swept {} blocks over {} pages ({} counterless); all reads still match",
            report.blocks, report.pages, report.counterless_blocks
        );
    } else {
        println!(
            "mem smoke ok: {} blocks, {} tamper probes caught, splice rejected, rekey swept {} blocks",
            geo.data_blocks(),
            probes.len(),
            report.blocks
        );
    }
    0
}

/// Batch write/read throughput and the rekey sweep rate.
/// Throughput numbers `mem_bench` hands back so `--stats-json` can fold
/// them into the artifact next to the telemetry snapshot.
struct MemBenchReport {
    ops: usize,
    write_blocks_per_sec: f64,
    read_blocks_per_sec: f64,
    /// Every timed rep's throughput (best-of-N hides host noise; these
    /// let the artifact show it).
    write_rep_blocks_per_sec: Vec<f64>,
    read_rep_blocks_per_sec: Vec<f64>,
    /// Slowest rep vs fastest, percent over the fastest.
    write_spread_pct: f64,
    read_spread_pct: f64,
    rekey_blocks: u64,
    rekey_blocks_per_sec: f64,
    /// `--tenants` runs only: FNV-1a digest of the composed stream and
    /// how many batches it covered (byte-deterministic per seed).
    tenant_digest: Option<u64>,
    tenant_batches: u64,
}

/// Prints one telemetry epoch row per `--epoch-ms` while the bench
/// runs: the delta snapshot since the previous row (SeriesRecorder
/// idiom — epoch k is its own interval, not cumulative).
struct MemWatch {
    enabled: bool,
    interval: std::time::Duration,
    last_tick: std::time::Instant,
    last_snap: clme_mem::MemMetricsSnapshot,
    epoch: usize,
}

impl MemWatch {
    fn new<B: StoreBackend>(args: &MemArgs, layer: &EncryptionLayer<B>) -> MemWatch {
        if args.watch {
            println!(
                "  {:<6} {:>6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
                "epoch", "phase", "writes", "reads", "wr_p50ns", "wr_p99ns", "rd_p50ns", "rd_p99ns"
            );
        }
        MemWatch {
            enabled: args.watch,
            interval: std::time::Duration::from_millis(args.epoch_ms),
            last_tick: std::time::Instant::now(),
            last_snap: layer.metrics_snapshot(),
            epoch: 0,
        }
    }

    fn tick<B: StoreBackend>(&mut self, phase: &str, layer: &EncryptionLayer<B>) {
        if !self.enabled || self.last_tick.elapsed() < self.interval {
            return;
        }
        let snap = layer.metrics_snapshot();
        let delta = snap.delta_since(&self.last_snap);
        let p = |op: MemOp, q: f64| delta.op(op).latency.percentile_ps(q) as f64 / 1000.0;
        println!(
            "  {:<6} {:>6} {:>9} {:>9} {:>9.0} {:>9.0} {:>9.0} {:>9.0}",
            self.epoch,
            phase,
            delta.blocks_written,
            delta.blocks_read,
            p(MemOp::Write, 0.5),
            p(MemOp::Write, 0.99),
            p(MemOp::Read, 0.5),
            p(MemOp::Read, 0.99),
        );
        self.epoch += 1;
        self.last_snap = snap;
        self.last_tick = std::time::Instant::now();
    }
}

fn mem_bench<B: StoreBackend>(
    args: &MemArgs,
    layer: &EncryptionLayer<B>,
) -> Result<MemBenchReport, String> {
    if args.tenants.is_some() {
        return mem_bench_tenants(args, layer);
    }
    let blocks = layer.blocks();
    let ops = args.ops.max(64);
    let mut rng = SplitMix64::new(SplitMix64::new(args.seed).derive(b"mem/bench"));
    let mib = |count: usize, secs: f64| count as f64 * 64.0 / (1024.0 * 1024.0) / secs;
    let mut watch = MemWatch::new(args, layer);

    // Rep 0 is an untimed warm-up: it pays the one-time costs (page
    // faults, file page-cache fills, verified-page cache fills) so the
    // timed reps measure steady state. Of the timed reps the fastest
    // wins — host noise only ever slows a run down (same reasoning as
    // the perf gate's measure_best) — but the per-rep times are kept so
    // the artifact records the spread instead of silently folding a
    // noisy host into the best.
    let mut write_rep_secs: Vec<f64> = Vec::with_capacity(args.reps);
    let mut read_rep_secs: Vec<f64> = Vec::with_capacity(args.reps);
    for rep in 0..=args.reps {
        let warmup = rep == 0;
        let mut batch: Vec<(u64, clme_mem::Block)> = Vec::with_capacity(64);
        let started = std::time::Instant::now();
        let mut written = 0usize;
        while written < ops {
            batch.clear();
            for _ in 0..64.min(ops - written) {
                batch.push((rng.below(blocks), mem_pattern_block(&mut rng)));
            }
            layer
                .batch_write(&batch)
                .map_err(|err| format!("batch_write failed: {err}"))?;
            written += batch.len();
            watch.tick("write", layer);
        }
        if !warmup {
            write_rep_secs.push(started.elapsed().as_secs_f64());
        }

        let mut read_addrs: Vec<u64> = Vec::with_capacity(64);
        let started = std::time::Instant::now();
        let mut read = 0usize;
        while read < ops {
            read_addrs.clear();
            for _ in 0..64.min(ops - read) {
                read_addrs.push(rng.below(blocks));
            }
            layer
                .batch_read(&read_addrs)
                .map_err(|err| format!("batch_read failed: {err}"))?;
            read += read_addrs.len();
            watch.tick("read", layer);
        }
        if !warmup {
            read_rep_secs.push(started.elapsed().as_secs_f64());
        }
    }
    let best = |secs: &[f64]| secs.iter().copied().fold(f64::INFINITY, f64::min);
    let spread_pct = |secs: &[f64]| {
        let (min, max) = (best(secs), secs.iter().copied().fold(0.0, f64::max));
        if min > 0.0 {
            (max - min) / min * 100.0
        } else {
            0.0
        }
    };
    let write_secs = best(&write_rep_secs);
    let read_secs = best(&read_rep_secs);

    let started = std::time::Instant::now();
    let report = layer
        .rekey(mem_master_key(args.seed, b"mem/bench-rekey"))
        .map_err(|err| format!("rekey failed: {err}"))?;
    let rekey_secs = started.elapsed().as_secs_f64();

    println!(
        "clme-mem bench: {} blocks, batches of 64, backend {}, 1 warm-up pass{}",
        blocks,
        args.backend,
        if args.reps > 1 {
            format!(", best of {} reps", args.reps)
        } else {
            String::new()
        }
    );
    println!(
        "  {:<12} {:>10} {:>14} {:>12}",
        "op", "blocks", "blocks/s", "MiB/s"
    );
    println!(
        "  {:<12} {:>10} {:>14.0} {:>12.1}",
        "batch_write",
        ops,
        ops as f64 / write_secs,
        mib(ops, write_secs)
    );
    println!(
        "  {:<12} {:>10} {:>14.0} {:>12.1}",
        "batch_read",
        ops,
        ops as f64 / read_secs,
        mib(ops, read_secs)
    );
    println!(
        "  {:<12} {:>10} {:>14.0} {:>12.1}",
        "rekey",
        report.blocks,
        report.blocks as f64 / rekey_secs,
        mib(report.blocks as usize, rekey_secs)
    );
    if args.reps > 1 {
        println!(
            "  spread over {} reps: write {:.1}%  read {:.1}% (max rep vs best)",
            args.reps,
            spread_pct(&write_rep_secs),
            spread_pct(&read_rep_secs),
        );
    }

    // Per-block latency percentiles from the always-on telemetry (all
    // reps pooled). Under telemetry-off these print as zeros.
    let snap = layer.metrics_snapshot();
    let read_lat = &snap.op(MemOp::Read).latency;
    let write_lat = &snap.op(MemOp::Write).latency;
    if read_lat.count() + write_lat.count() > 0 {
        println!(
            "  {:<12} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "latency", "samples", "p50_ns", "p95_ns", "p99_ns", "mean_ns", "max_ns"
        );
        for (label, hist) in [("read", read_lat), ("write", write_lat)] {
            println!(
                "  {:<12} {:>10} {:>9.0} {:>9.0} {:>9.0} {:>9.0} {:>9.0}",
                label,
                hist.count(),
                hist.percentile_ps(0.5) as f64 / 1000.0,
                hist.percentile_ps(0.95) as f64 / 1000.0,
                hist.percentile_ps(0.99) as f64 / 1000.0,
                hist.mean_ps() / 1000.0,
                hist.max_ps() as f64 / 1000.0,
            );
        }
    }

    Ok(MemBenchReport {
        ops,
        write_blocks_per_sec: ops as f64 / write_secs,
        read_blocks_per_sec: ops as f64 / read_secs,
        write_rep_blocks_per_sec: write_rep_secs.iter().map(|s| ops as f64 / s).collect(),
        read_rep_blocks_per_sec: read_rep_secs.iter().map(|s| ops as f64 / s).collect(),
        write_spread_pct: spread_pct(&write_rep_secs),
        read_spread_pct: spread_pct(&read_rep_secs),
        rekey_blocks: report.blocks,
        rekey_blocks_per_sec: report.blocks as f64 / rekey_secs,
        tenant_digest: None,
        tenant_batches: 0,
    })
}

/// The `--tenants` bench: composed multi-tenant traffic instead of the
/// single uniform stream. Every batch is timed individually so the
/// per-tenant telemetry gets exact op latencies; reads and writes
/// interleave as composed, with each side's throughput summed
/// separately so the printed rows stay comparable to the single-stream
/// bench (and to the ci.sh overhead gate's awk).
fn mem_bench_tenants<B: StoreBackend>(
    args: &MemArgs,
    layer: &EncryptionLayer<B>,
) -> Result<MemBenchReport, String> {
    let tenant_count = args.tenants.expect("tenant bench needs --tenants");
    let mut composer = TenantComposer::new(mem_tenant_traffic(args, tenant_count));
    let mut data_rng = SplitMix64::new(SplitMix64::new(args.seed).derive(b"mem/tenants/data"));
    let ops = args.ops.max(64);
    let mib_rate = |blocks_per_sec: f64| blocks_per_sec * 64.0 / (1024.0 * 1024.0);
    let mut watch = MemWatch::new(args, layer);

    // Same shape as the single-stream bench: rep 0 is an untimed
    // warm-up, then best-of---reps. The composer runs on through all
    // reps, so the digest covers the whole emitted stream.
    let mut write_rep_rates: Vec<f64> = Vec::with_capacity(args.reps);
    let mut read_rep_rates: Vec<f64> = Vec::with_capacity(args.reps);
    let (mut best_write, mut best_read) = (0u64, 0u64);
    let mut batch: Vec<(u64, clme_mem::Block)> = Vec::with_capacity(64);
    for rep in 0..=args.reps {
        let warmup = rep == 0;
        let (mut write_secs, mut read_secs) = (0.0f64, 0.0f64);
        let (mut write_blocks, mut read_blocks) = (0u64, 0u64);
        let mut issued = 0usize;
        while issued < ops {
            let composed = composer.next_batch();
            let blocks_in_batch = composed.addrs.len() as u64;
            if composed.write {
                // Pattern data is generated outside the timed window so
                // the per-tenant latency (and SLO burn) blames the
                // layer, not the data generator.
                batch.clear();
                for &addr in &composed.addrs {
                    batch.push((addr, mem_pattern_block(&mut data_rng)));
                }
            }
            let started = std::time::Instant::now();
            if composed.write {
                layer
                    .batch_write(&batch)
                    .map_err(|err| format!("tenant batch_write failed: {err}"))?;
            } else {
                layer
                    .batch_read(&composed.addrs)
                    .map_err(|err| format!("tenant batch_read failed: {err}"))?;
            }
            let elapsed = started.elapsed();
            layer.record_tenant_batch(
                composed.tenant,
                composed.write,
                elapsed.as_nanos() as u64,
                blocks_in_batch,
            );
            if composed.write {
                write_secs += elapsed.as_secs_f64();
                write_blocks += blocks_in_batch;
            } else {
                read_secs += elapsed.as_secs_f64();
                read_blocks += blocks_in_batch;
            }
            issued += blocks_in_batch as usize;
            watch.tick(if composed.write { "write" } else { "read" }, layer);
        }
        // One SLO burn window per rep: window rolls are the bench's
        // epoch boundary (no table to roll under telemetry-off).
        if let Some(tenants) = layer.tenants() {
            tenants.roll_windows();
        }
        if !warmup {
            if write_blocks > 0 && write_secs > 0.0 {
                write_rep_rates.push(write_blocks as f64 / write_secs);
            }
            if read_blocks > 0 && read_secs > 0.0 {
                read_rep_rates.push(read_blocks as f64 / read_secs);
            }
            best_write = best_write.max(write_blocks);
            best_read = best_read.max(read_blocks);
        }
    }
    let best = |rates: &[f64]| rates.iter().copied().fold(0.0f64, f64::max);
    let spread_pct = |rates: &[f64]| {
        let (max, min) = (
            best(rates),
            rates.iter().copied().fold(f64::INFINITY, f64::min),
        );
        if min.is_finite() && min > 0.0 {
            (max - min) / min * 100.0
        } else {
            0.0
        }
    };
    let write_rate = best(&write_rep_rates);
    let read_rate = best(&read_rep_rates);

    let started = std::time::Instant::now();
    let report = layer
        .rekey(mem_master_key(args.seed, b"mem/bench-rekey"))
        .map_err(|err| format!("rekey failed: {err}"))?;
    let rekey_secs = started.elapsed().as_secs_f64();

    println!(
        "clme-mem bench: {} blocks, {} tenants (skew {:.2}, top {} exact), batches of 64, \
         backend {}, 1 warm-up pass{}",
        layer.blocks(),
        tenant_count,
        args.skew,
        args.tenant_top.min(tenant_count as usize),
        args.backend,
        if args.reps > 1 {
            format!(", best of {} reps", args.reps)
        } else {
            String::new()
        }
    );
    println!(
        "  {:<12} {:>10} {:>14} {:>12}",
        "op", "blocks", "blocks/s", "MiB/s"
    );
    println!(
        "  {:<12} {:>10} {:>14.0} {:>12.1}",
        "batch_write",
        best_write,
        write_rate,
        mib_rate(write_rate)
    );
    println!(
        "  {:<12} {:>10} {:>14.0} {:>12.1}",
        "batch_read",
        best_read,
        read_rate,
        mib_rate(read_rate)
    );
    println!(
        "  {:<12} {:>10} {:>14.0} {:>12.1}",
        "rekey",
        report.blocks,
        report.blocks as f64 / rekey_secs,
        mib_rate(report.blocks as f64 / rekey_secs)
    );
    if args.reps > 1 {
        println!(
            "  spread over {} reps: write {:.1}%  read {:.1}% (max rep vs best)",
            args.reps,
            spread_pct(&write_rep_rates),
            spread_pct(&read_rep_rates),
        );
    }
    println!(
        "  tenant stream digest {:#018x} over {} batches",
        composer.digest(),
        composer.batches()
    );

    let snap = layer.metrics_snapshot();
    let read_lat = &snap.op(MemOp::Read).latency;
    let write_lat = &snap.op(MemOp::Write).latency;
    if read_lat.count() + write_lat.count() > 0 {
        println!(
            "  {:<12} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "latency", "samples", "p50_ns", "p95_ns", "p99_ns", "mean_ns", "max_ns"
        );
        for (label, hist) in [("read", read_lat), ("write", write_lat)] {
            println!(
                "  {:<12} {:>10} {:>9.0} {:>9.0} {:>9.0} {:>9.0} {:>9.0}",
                label,
                hist.count(),
                hist.percentile_ps(0.5) as f64 / 1000.0,
                hist.percentile_ps(0.95) as f64 / 1000.0,
                hist.percentile_ps(0.99) as f64 / 1000.0,
                hist.mean_ps() / 1000.0,
                hist.max_ps() as f64 / 1000.0,
            );
        }
    }

    Ok(MemBenchReport {
        ops,
        write_blocks_per_sec: write_rate,
        read_blocks_per_sec: read_rate,
        write_spread_pct: spread_pct(&write_rep_rates),
        read_spread_pct: spread_pct(&read_rep_rates),
        write_rep_blocks_per_sec: write_rep_rates,
        read_rep_blocks_per_sec: read_rep_rates,
        rekey_blocks: report.blocks,
        rekey_blocks_per_sec: report.blocks as f64 / rekey_secs,
        tenant_digest: Some(composer.digest()),
        tenant_batches: composer.batches(),
    })
}

// ---------------------------------------------------------------------
// mem telemetry output: --stats / --stats-json / --prom / --check-stats
// ---------------------------------------------------------------------

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

fn mem_hist_row(label: &str, hist: &Log2Histogram) {
    println!(
        "    {:<14} {:>10} {:>9.0} {:>9.0} {:>9.0} {:>9.0} {:>9.0}",
        label,
        hist.count(),
        hist.percentile_ps(0.5) as f64 / 1000.0,
        hist.percentile_ps(0.95) as f64 / 1000.0,
        hist.percentile_ps(0.99) as f64 / 1000.0,
        hist.mean_ps() / 1000.0,
        hist.max_ps() as f64 / 1000.0,
    );
}

/// The human `--stats` table: every layer of the telemetry pipeline.
fn mem_print_stats(snap: &clme_mem::MemMetricsSnapshot) {
    use clme_mem::MemStage;

    println!("telemetry: op and crypto-stage latencies (ns)");
    println!(
        "    {:<14} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "class", "samples", "p50", "p95", "p99", "mean", "max"
    );
    for op in MemOp::ALL {
        let stats = snap.op(op);
        mem_hist_row(op.name(), &stats.latency);
        for stage in MemStage::ALL {
            let hist = &stats.stages[stage as usize];
            if hist.count() > 0 {
                mem_hist_row(&format!("  {}", stage.name()), hist);
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
fn mem_print_tenant_stats(tenant: &TenantSnapshot) {
    use clme_mem::TailCause;

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
        if row.ops[0] + row.ops[1] == 0 && row.cache.iter().sum::<u64>() == 0 {
            continue;
        }
        let lookups: u64 = row.cache.iter().sum();
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
            row.dominant_tail().map(TailCause::name).unwrap_or("-"),
        );
    }
    if !tenant.slo.is_empty() {
        println!("telemetry: tenant SLO burn (burn = bad-fraction / error-budget)");
        println!(
            "    {:<14} {:<16} {:>9} {:>7} {:>7}  {}",
            "tenant", "slo", "good", "bad", "burn", "window burns (oldest first)"
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
            .map(|(id, count)| format!("tenant-{id} (~{count} blocks)"))
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
fn mem_stats_artifact(
    args: &MemArgs,
    snap: &clme_mem::MemMetricsSnapshot,
    bench: Option<&MemBenchReport>,
    tenant: Option<&TenantSnapshot>,
    mut history: Vec<JsonValue>,
) -> String {
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0);
    let p99_ns = |op: MemOp| snap.op(op).latency.percentile_ps(0.99) as f64 / 1000.0;
    let mut entry = vec![
        ("unix_time".into(), JsonValue::Num(unix_time)),
        ("backend".into(), JsonValue::Str(args.backend.clone())),
        ("cache".into(), JsonValue::Bool(args.cache)),
        ("read_p99_ns".into(), JsonValue::Num(p99_ns(MemOp::Read))),
        ("write_p99_ns".into(), JsonValue::Num(p99_ns(MemOp::Write))),
    ];
    if let Some(bench) = bench {
        entry.push((
            "write_blocks_per_sec".into(),
            JsonValue::Num(bench.write_blocks_per_sec),
        ));
        entry.push((
            "read_blocks_per_sec".into(),
            JsonValue::Num(bench.read_blocks_per_sec),
        ));
    }
    history.push(JsonValue::Obj(entry));
    if history.len() > MEM_HISTORY_CAP {
        let excess = history.len() - MEM_HISTORY_CAP;
        history.drain(..excess);
    }

    let mut doc = vec![
        ("schema".into(), JsonValue::Num(MEM_SCHEMA as f64)),
        ("backend".into(), JsonValue::Str(args.backend.clone())),
        ("blocks".into(), JsonValue::Num(args.blocks as f64)),
        ("seed".into(), JsonValue::Num(args.seed as f64)),
    ];
    if let Some(bench) = bench {
        doc.push((
            "bench".into(),
            JsonValue::Obj(vec![
                ("ops".into(), JsonValue::Num(bench.ops as f64)),
                ("reps".into(), JsonValue::Num(args.reps as f64)),
                (
                    "write_blocks_per_sec".into(),
                    JsonValue::Num(bench.write_blocks_per_sec),
                ),
                (
                    "read_blocks_per_sec".into(),
                    JsonValue::Num(bench.read_blocks_per_sec),
                ),
                (
                    "rekey_blocks".into(),
                    JsonValue::Num(bench.rekey_blocks as f64),
                ),
                (
                    "rekey_blocks_per_sec".into(),
                    JsonValue::Num(bench.rekey_blocks_per_sec),
                ),
                ("warmup_passes".into(), JsonValue::Num(1.0)),
                (
                    "write_rep_blocks_per_sec".into(),
                    JsonValue::Arr(
                        bench
                            .write_rep_blocks_per_sec
                            .iter()
                            .map(|&v| JsonValue::Num(v))
                            .collect(),
                    ),
                ),
                (
                    "read_rep_blocks_per_sec".into(),
                    JsonValue::Arr(
                        bench
                            .read_rep_blocks_per_sec
                            .iter()
                            .map(|&v| JsonValue::Num(v))
                            .collect(),
                    ),
                ),
                (
                    "write_spread_pct".into(),
                    JsonValue::Num(bench.write_spread_pct),
                ),
                (
                    "read_spread_pct".into(),
                    JsonValue::Num(bench.read_spread_pct),
                ),
            ]),
        ));
    }
    doc.push(("stats".into(), snap.to_json()));
    if let Some(tenant) = tenant {
        let mut obj = match tenant.to_json() {
            JsonValue::Obj(fields) => fields,
            other => vec![("snapshot".into(), other)],
        };
        obj.push(("skew".into(), JsonValue::Num(args.skew)));
        if let Some(bench) = bench {
            if let Some(digest) = bench.tenant_digest {
                // Hex string: a u64 digest does not survive the f64
                // JSON number round trip.
                obj.push(("digest".into(), JsonValue::Str(format!("{digest:#018x}"))));
                obj.push((
                    "batches".into(),
                    JsonValue::Num(bench.tenant_batches as f64),
                ));
            }
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
fn mem_emit_stats<B: StoreBackend>(
    args: &MemArgs,
    layer: &EncryptionLayer<B>,
    bench: Option<&MemBenchReport>,
) -> i32 {
    if !(args.stats || args.stats_json.is_some() || args.prom.is_some()) {
        return 0;
    }
    let snap = layer.metrics_snapshot();
    let tenant = layer.tenants().map(|t| t.snapshot());
    if args.stats {
        mem_print_stats(&snap);
        if let Some(tenant) = &tenant {
            mem_print_tenant_stats(tenant);
        }
    }
    if let Some(path) = &args.stats_json {
        let history = std::fs::read_to_string(path)
            .map(|text| clme_bench::perf::extract_history_for(&text, &MEM_SCHEMA_COMPAT))
            .unwrap_or_default();
        let artifact = mem_stats_artifact(args, &snap, bench, tenant.as_ref(), history);
        if let Err(err) = write_atomic(path, &artifact) {
            eprintln!("cannot write {}: {err}", path.display());
            return 1;
        }
        eprintln!("wrote telemetry artifact to {}", path.display());
    }
    if let Some(path) = &args.prom {
        if let Err(err) = std::fs::write(path, mem_prom_text(layer)) {
            eprintln!("cannot write {}: {err}", path.display());
            return 1;
        }
        eprintln!("wrote Prometheus exposition to {}", path.display());
    }
    0
}

/// The full Prometheus exposition for a layer: the layer/store families
/// plus the bounded-cardinality per-tenant families when tenant
/// telemetry is installed.
fn mem_prom_text<B: StoreBackend>(layer: &EncryptionLayer<B>) -> String {
    let mut text = layer.metrics_prom();
    if let Some(tenants) = layer.tenants() {
        text.push_str(&clme_obs::prom::render(&tenants.snapshot().prom_samples()));
    }
    text
}

/// `--check-stats PATH`: parses a `--stats-json` artifact with the
/// in-tree JSON parser and verifies the telemetry pipeline's key
/// signals survived the round trip — the CI smoke check.
fn mem_check_stats(path: &Path) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("cannot read {}: {err}", path.display());
            return 1;
        }
    };
    let doc = match clme_types::json::parse(&text) {
        Ok(doc) => doc,
        Err(err) => {
            eprintln!("{} is not valid JSON: {err}", path.display());
            return 1;
        }
    };
    let mut missing: Vec<String> = Vec::new();
    if doc.get("schema").and_then(JsonValue::as_f64) != Some(MEM_SCHEMA as f64) {
        missing.push(format!("schema {MEM_SCHEMA}"));
    }
    let stats = doc.get("stats");
    match stats.and_then(|s| s.get("lock_wait")) {
        Some(JsonValue::Arr(shards)) if !shards.is_empty() => {
            if !shards
                .iter()
                .all(|s| s.get("p99_ns").and_then(JsonValue::as_f64).is_some())
            {
                missing.push("stats.lock_wait[*].p99_ns".into());
            }
        }
        _ => missing.push("stats.lock_wait (non-empty array)".into()),
    }
    for key in ["pages_total", "pages_done", "key_dwell_ms"] {
        if stats
            .and_then(|s| s.get("rekey"))
            .and_then(|r| r.get(key))
            .and_then(JsonValue::as_f64)
            .is_none()
        {
            missing.push(format!("stats.rekey.{key}"));
        }
    }
    if stats
        .and_then(|s| s.get("store"))
        .and_then(|s| s.get("page_cache_hit_rate"))
        .and_then(JsonValue::as_f64)
        .is_none()
    {
        missing.push("stats.store.page_cache_hit_rate".into());
    }
    for key in [
        "hits",
        "partial_hits",
        "misses",
        "hit_rate",
        "bypasses",
        "resident_pages",
    ] {
        if stats
            .and_then(|s| s.get("verify_cache"))
            .and_then(|c| c.get(key))
            .and_then(JsonValue::as_f64)
            .is_none()
        {
            missing.push(format!("stats.verify_cache.{key}"));
        }
    }
    for dir in ["read", "write"] {
        if stats
            .and_then(|s| s.get("fanin"))
            .and_then(|f| f.get(dir))
            .and_then(|f| f.get("p99_blocks"))
            .and_then(JsonValue::as_f64)
            .is_none()
        {
            missing.push(format!("stats.fanin.{dir}.p99_blocks"));
        }
    }
    for op in ["read", "write"] {
        if stats
            .and_then(|s| s.get("ops"))
            .and_then(|o| o.get(op))
            .and_then(|o| o.get("latency"))
            .and_then(|l| l.get("p99_ns"))
            .and_then(JsonValue::as_f64)
            .is_none()
        {
            missing.push(format!("stats.ops.{op}.latency.p99_ns"));
        }
    }
    // `--tenants` artifacts carry the per-tenant object; verify the
    // bounded-cardinality rows, SLO burn, tail attribution, and stream
    // digest all survived the round trip.
    if let Some(tenants) = doc.get("tenants") {
        for key in ["count", "top_k", "folded_ops", "skew"] {
            if tenants.get(key).and_then(JsonValue::as_f64).is_none() {
                missing.push(format!("tenants.{key}"));
            }
        }
        match tenants.get("digest").and_then(JsonValue::as_str) {
            Some(digest) => println!("{}: tenant stream digest {digest}", path.display()),
            None => missing.push("tenants.digest".into()),
        }
        match tenants.get("rows") {
            Some(JsonValue::Arr(rows)) if !rows.is_empty() => {
                let field = |row: &JsonValue, path: &[&str]| -> Option<JsonValue> {
                    let mut v = row.clone();
                    for key in path {
                        v = v.get(key)?.clone();
                    }
                    Some(v)
                };
                for (i, row) in rows.iter().enumerate() {
                    for keys in [
                        &["read", "p99_ns"][..],
                        &["write", "p99_ns"][..],
                        &["cache", "hits"][..],
                        &["tail", "dominant"][..],
                        &["ciphertext_writes"][..],
                    ] {
                        if field(row, keys).is_none() {
                            missing.push(format!("tenants.rows[{i}].{}", keys.join(".")));
                        }
                    }
                    match row.get("slo") {
                        Some(JsonValue::Arr(slos)) => {
                            if !slos.iter().all(|s| {
                                s.get("burn").and_then(JsonValue::as_f64).is_some()
                                    && matches!(s.get("window_burns"), Some(JsonValue::Arr(_)))
                            }) {
                                missing.push(format!("tenants.rows[{i}].slo[*].burn"));
                            }
                        }
                        _ => missing.push(format!("tenants.rows[{i}].slo (array)")),
                    }
                }
                if !rows
                    .iter()
                    .any(|r| r.get("tenant").and_then(JsonValue::as_str) == Some("__other__"))
                {
                    missing.push("tenants.rows[*] __other__ rollup row".into());
                }
            }
            _ => missing.push("tenants.rows (non-empty array)".into()),
        }
    }
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

/// Traced reads through the installed span tracer; prints the same
/// blame table as `clme critpath`, but over the library's real latencies.
fn mem_critpath<B: StoreBackend>(args: &MemArgs, layer: &EncryptionLayer<B>, pattern: &str) -> i32 {
    let blocks = layer.blocks();
    let label = format!("mem/{}/{pattern}", args.backend);
    let seed = SplitMix64::new(args.seed).derive(label.as_bytes());
    let mut rng = SplitMix64::new(seed);
    eprintln!(
        "tracing {label} ({} blocks, {} reads, reservoir of {} spans)",
        blocks, args.ops, args.samples
    );

    // Populate: a sweep writes every block once; zipf hammers a hot set
    // until its counters saturate and the blocks go counterless; hot
    // writes a working set small enough to live entirely in the
    // verified-page cache, then re-reads it.
    let hot_set = blocks.min(4 * clme_mem::PAGE_BLOCKS);
    let mut batch: Vec<(u64, clme_mem::Block)> = Vec::with_capacity(64);
    let writes = match pattern {
        "zipf" => args.ops.max(64),
        "hot" => hot_set as usize,
        _ => blocks as usize,
    };
    let mut issued = 0usize;
    while issued < writes {
        batch.clear();
        for _ in 0..64.min(writes - issued) {
            let addr = match pattern {
                "zipf" => mem_skewed_addr(&mut rng, blocks),
                "hot" => (issued + batch.len()) as u64 % hot_set,
                _ => (issued + batch.len()) as u64 % blocks,
            };
            batch.push((addr, mem_pattern_block(&mut rng)));
        }
        if let Err(err) = layer.batch_write(&batch) {
            eprintln!("populate failed: {err}");
            return 1;
        }
        issued += batch.len();
    }
    let counterless = (0..blocks)
        .filter(|&addr| layer.is_counterless(addr).unwrap_or(false))
        .count();

    layer.install_tracer(SpanTracer::new(args.samples));
    let mut read_addrs: Vec<u64> = Vec::with_capacity(64);
    let mut read = 0usize;
    while read < args.ops {
        read_addrs.clear();
        for _ in 0..64.min(args.ops - read) {
            let addr = match pattern {
                "zipf" => mem_skewed_addr(&mut rng, blocks),
                "hot" => rng.below(hot_set),
                _ => (read + read_addrs.len()) as u64 % blocks,
            };
            read_addrs.push(addr);
        }
        if let Err(err) = layer.batch_read(&read_addrs) {
            eprintln!("traced read failed: {err}");
            return 1;
        }
        read += read_addrs.len();
    }
    let tracer = layer.take_tracer().expect("tracer installed above");

    let tally = tracer.tally();
    println!(
        "critical-path blame for {label}: {} classified reads ({} of {} blocks counterless)",
        tally.total(),
        counterless,
        blocks
    );
    print_blame_table(tally);
    println!(
        "\nsampled {} of {} requests (deterministic reservoir; --samples to resize)",
        tracer.sampled().len(),
        tracer.total_requests()
    );
    if let Some(path) = &args.json {
        let artifact = critpath_json(&label, seed, tally, tracer.sampled().len());
        if let Err(err) = std::fs::write(path, artifact) {
            eprintln!("cannot write {}: {err}", path.display());
            return 1;
        }
        eprintln!("wrote blame artifact to {}", path.display());
    }
    if let Some(path) = &args.trace {
        let trace = span_flow_json(&label, tracer.sampled());
        if let Err(err) = std::fs::write(path, trace) {
            eprintln!("cannot write {}: {err}", path.display());
            return 1;
        }
        println!(
            "wrote {} request spans with flow arrows to {} — open in Perfetto \
             (https://ui.perfetto.dev) or chrome://tracing",
            tracer.sampled().len(),
            path.display()
        );
    }
    0
}
