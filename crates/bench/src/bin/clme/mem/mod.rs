//! `clme mem`: the clme-mem encrypted-memory library runner. This file
//! holds the flags, the layer opener and the dispatch; each job lives in
//! its own module: `verify` (demo, smoke, tamper and the replayed write
//! stream), `bench` (the timed loop over a batch source), `stats`
//! (telemetry tables, artifacts, `--check-stats`) and `serve` (the
//! metrics endpoint). `--critpath` runs in the `critpath` subcommand's
//! module, next to the blame report it shares with simulated cells.

pub mod bench;
pub mod serve;
pub mod stats;
pub mod verify;

use crate::args::{unknown_flag, Cursor, DEFAULT_MATRIX_SEED};
use clme_mem::{
    DumpContext, EncryptionLayer, FileBackend, LayerOptions, SloSpec, StoreBackend, TenantRanges,
    TenantTelemetry, VecBackend, DEFAULT_CACHE_PAGES, DEFAULT_TENANT_TOP,
};
use clme_types::json::JsonValue;
use clme_types::rng::SplitMix64;
use clme_workloads::tenants::{TenantComposer, TenantTrafficConfig};
use std::path::{Path, PathBuf};
use verify::TAMPER_REGIONS;

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
                let regions = TAMPER_REGIONS.map(|(name, _, _)| name);
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
pub fn master_key(seed: u64, label: &[u8]) -> [u8; 32] {
    random_bytes(&mut SplitMix64::new(SplitMix64::new(seed).derive(label)))
}

/// `N` pseudo-random bytes from `rng`, eight at a time: a key, or one
/// block of pattern data.
pub fn random_bytes<const N: usize>(rng: &mut SplitMix64) -> [u8; N] {
    let mut bytes = [0u8; N];
    for chunk in bytes.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    bytes
}

fn layer_options(args: &MemArgs) -> LayerOptions {
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

pub fn run(args: MemArgs) -> i32 {
    if let Some(path) = &args.check_stats {
        return stats::check_stats(path);
    }
    open_layer(
        &args.backend,
        args.path.as_deref(),
        args.blocks,
        master_key(args.seed, b"mem/master"),
        layer_options(&args),
        &args,
    )
}

/// The traffic shape a `--tenants` run composes: disjoint equal page
/// ranges over the (already resized) store.
fn tenant_traffic(args: &MemArgs, tenants: u64) -> TenantTrafficConfig {
    TenantTrafficConfig {
        tenants,
        seed: args.seed,
        skew: args.skew,
        pages_per_tenant: args.blocks / clme_mem::PAGE_BLOCKS / tenants,
        page_blocks: clme_mem::PAGE_BLOCKS,
        batch_blocks: 64,
    }
}

/// The page ranges a `--tenants` run gives its tenants.
fn tenant_ranges(args: &MemArgs, tenants: u64) -> TenantRanges {
    TenantRanges {
        count: tenants,
        first_page: 0,
        pages_per: tenant_traffic(args, tenants).pages_per_tenant,
    }
}

/// Builds the per-tenant telemetry for a `--tenants` run: page ranges
/// from the traffic config, exact slots primed with the composer's
/// expected-heaviest tenants, SLOs from `--slo` (or the default pair).
fn tenant_telemetry(args: &MemArgs) -> Option<std::sync::Arc<TenantTelemetry>> {
    let tenants = args.tenants?;
    let composer = TenantComposer::new(tenant_traffic(args, tenants));
    let slos = SloSpec::parse_list(args.slo.as_deref().unwrap_or(DEFAULT_TENANT_SLO))
        .expect("SLO spec validated at parse time");
    Some(std::sync::Arc::new(TenantTelemetry::new(
        tenant_ranges(args, tenants),
        args.tenant_top,
        &composer.expected_heaviest(args.tenant_top),
        slos,
    )))
}

/// A job that runs on an opened layer, whichever store backs it.
pub trait LayerJob {
    fn run<B: StoreBackend>(self, layer: EncryptionLayer<B>) -> i32;
}

/// Opens the store `backend` names — `file`: a paged file at `path`, or
/// a temporary file removed afterwards; `vec`: in memory — builds a
/// layer of `blocks` blocks over it and runs `job` on the layer.
pub fn open_layer(
    backend: &str,
    path: Option<&Path>,
    blocks: u64,
    master: [u8; 32],
    options: LayerOptions,
    job: impl LayerJob,
) -> i32 {
    fn build<B: StoreBackend>(
        store: B,
        blocks: u64,
        master: [u8; 32],
        options: LayerOptions,
        job: impl LayerJob,
    ) -> i32 {
        match EncryptionLayer::with_options(store, blocks, master, options) {
            Ok(layer) => job.run(layer),
            Err(err) => {
                eprintln!("cannot initialise layer: {err}");
                1
            }
        }
    }
    if backend != "file" {
        return build(VecBackend::for_blocks(blocks), blocks, master, options, job);
    }
    let temporary = path.is_none();
    let path = path.map_or_else(
        || std::env::temp_dir().join(format!("clme-mem-{}.store", std::process::id())),
        Path::to_path_buf,
    );
    let code = match FileBackend::create_for_blocks(&path, blocks) {
        Ok(store) => build(store, blocks, master, options, job),
        Err(err) => {
            eprintln!("cannot create store at {}: {err}", path.display());
            1
        }
    };
    if temporary {
        let _ = std::fs::remove_file(&path);
    }
    code
}

/// A `clme mem` run: tenant telemetry installed when asked for, then
/// the chosen mode.
impl LayerJob for &MemArgs {
    fn run<B: StoreBackend>(self, mut layer: EncryptionLayer<B>) -> i32 {
        if let Some(tenants) = tenant_telemetry(self) {
            layer.install_tenants(tenants);
        }
        dispatch(self, &layer)
    }
}

/// Runs the mode, then the exit dump, the telemetry outputs and
/// `--serve`.
fn dispatch<B: StoreBackend>(args: &MemArgs, layer: &EncryptionLayer<B>) -> i32 {
    if args.dump_on_exit && args.tamper.is_none() {
        layer.arm_dump(dump_context(args, "run", Vec::new()));
    }
    let ran = match (&args.tamper, &args.critpath) {
        (Some(region), _) => verify::tamper(args, layer, region).map(|()| None),
        (None, Some(pattern)) => match crate::critpath::trace_mem(args, layer, pattern) {
            0 => Ok(None),
            code => return code,
        },
        (None, None) if args.bench => bench::bench(args, layer).map(Some),
        (None, None) => verify::demo(args, layer, !args.smoke).map(|()| None),
    };
    let bench_report = match ran {
        Ok(report) => report,
        Err(err) => {
            eprintln!("{err}");
            return 1;
        }
    };
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
    let code = stats::emit_stats(args, layer, bench_report.as_ref());
    if code != 0 {
        return code;
    }
    match &args.serve {
        Some(addr) => match std::net::TcpListener::bind(addr) {
            Ok(listener) => serve::serve(listener, layer, args.serve_requests),
            Err(err) => {
                eprintln!("cannot bind {addr}: {err}");
                1
            }
        },
        None => 0,
    }
}

/// The dump destination and workload description a run arms itself
/// with. `mode` tags what produced the captured window; extras are
/// spliced into the workload object for the replayer.
fn dump_context(args: &MemArgs, mode: &str, extras: Vec<(String, JsonValue)>) -> DumpContext {
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
        workload.push(("tenants".into(), tenant_ranges(args, tenants).to_json()));
        workload.push(("skew".into(), JsonValue::Num(args.skew)));
    }
    workload.extend(extras);
    DumpContext {
        path,
        seed: args.seed,
        workload: JsonValue::Obj(workload),
    }
}
