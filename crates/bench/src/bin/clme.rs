//! `clme` — command-line simulation runner.
//!
//! Single runs: any benchmark under any engine and configuration without
//! writing code:
//!
//! ```text
//! cargo run --release -p clme-bench --bin clme -- \
//!     --engine counter-light --bench bfs --bandwidth low \
//!     --aes 256 --threshold 0.8 --measure 200000
//! ```
//!
//! Prints the [`clme_sim::SimResult`] report plus a normalised
//! comparison against the unencrypted baseline when `--baseline` is set.
//!
//! Matrix runs: the whole (workload × engine × config) evaluation grid,
//! in parallel, with one stats-snapshot JSON per cell:
//!
//! ```text
//! clme matrix --tiny --out goldens/tiny     # run grid, write snapshots
//! clme matrix --filter 'table1/counter-*'   # only matching cells
//! clme diff --tiny --golden goldens/tiny    # re-run, diff vs goldens
//! ```
//!
//! Profiling: one cell with the observability recorder installed —
//! per-stage latency histograms, event counters, and throughput:
//!
//! ```text
//! clme profile --engine counter-light --bench bfs [--json BENCH_profile.json]
//! clme profile --series [--epoch N] [--json series.json]
//! clme profile --diff table1/counter-mode/bfs table1/counter-light/bfs
//! clme trace --engine counter-mode --bench mcf --out trace.json
//! ```
//!
//! `--series` replays the cell under the epoch sampler and prints the
//! per-epoch time-series (IPC, counter-cache hit rate, row-conflict
//! rate, per-stage percentiles); `--diff` replays two cells and prints
//! their per-stage / per-event deltas. `trace` writes Chrome
//! `trace_event` JSON — open it in Perfetto
//! (<https://ui.perfetto.dev>) or `about:tracing`.
//!
//! Critical-path attribution: one cell with the span tracer installed —
//! every LLC miss becomes a request span, its dependent operations
//! (data DRAM access, per-level counter fetch, in-line MAC, pad, ECC
//! decode) become child spans, and each miss is blamed on the chain
//! that gated readiness:
//!
//! ```text
//! clme critpath table1/counter-mode/bfs [--json blame.json] [--trace spans.json]
//! ```
//!
//! Phase-aligned cross-cell series: every (config × benchmark) group of
//! the grid replayed under all four engines with a *shared*,
//! engine-independent workload seed, so epoch k covers the same program
//! phase in each engine's column:
//!
//! ```text
//! clme series --matrix [--tiny] [--json aligned.json]
//! ```
//!
//! Library runner: `clme mem` drives the clme-mem crate — the
//! counter-light scheme applied to a real backing store (in-memory or
//! paged file) instead of the simulator:
//!
//! ```text
//! clme mem                       # demo: model check, tamper matrix, rekey
//! clme mem --smoke --blocks 256  # CI smoke, nonzero exit on any miss
//! clme mem --bench               # batch write/read/rekey throughput
//! clme mem --critpath zipf       # blame table over real library latencies
//! clme critpath mem/vec/zipf     # same, through the critpath front door
//! ```
//!
//! Performance gate: `clme perf` runs a fixed calibrated cell set,
//! normalises cells/sec by a built-in spin-calibration loop, writes
//! `BENCH_perf.json` (with history), and compares against
//! `goldens/perf_baseline.json`:
//!
//! ```text
//! clme perf                      # measure, append history, gate
//! clme perf --write-baseline     # regenerate the golden baseline
//! ```
//!
//! See EXPERIMENTS.md for the snapshot format and the golden workflow.

use clme_core::engine::EngineKind;
use clme_mem::{
    write_atomic, DumpBundle, DumpContext, EncryptionLayer, FileBackend, LayerOptions, MemOp,
    MemoryAdt, SloSpec, StoreBackend, TenantRanges, TenantSnapshot, TenantTelemetry, VecBackend,
    DEFAULT_CACHE_PAGES, DEFAULT_TENANT_TOP,
};
use clme_obs::{span_flow_json, Blame, EpochSeries, EventKind, Log2Histogram, SpanTracer, Stage};
use clme_sim::matrix::{all_engines, RunMatrix};
use clme_sim::{
    compare, run_benchmark, run_benchmark_recorded, run_benchmark_series, run_benchmark_spans,
    SimParams, StatsSnapshot, Tolerance,
};
use clme_types::config::AesStrength;
use clme_types::json::JsonValue;
use clme_types::rng::SplitMix64;
use clme_types::SystemConfig;
use clme_workloads::suites;
use clme_workloads::tenants::{TenantComposer, TenantTrafficConfig};
use std::path::{Path, PathBuf};

struct Args {
    engine: EngineKind,
    bench: String,
    low_bandwidth: bool,
    aes256: bool,
    threshold: Option<f64>,
    params: SimParams,
    baseline: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: clme [--engine none|counterless|counter-mode|counter-light]\n\
         \x20           [--bench NAME] [--bandwidth high|low] [--aes 128|256]\n\
         \x20           [--threshold FRACTION] [--measure N] [--warmup N]\n\
         \x20           [--functional-warmup N] [--baseline] [--list]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        engine: EngineKind::CounterLight,
        bench: "bfs".to_string(),
        low_bandwidth: false,
        aes256: false,
        threshold: None,
        params: clme_bench::params_from_env(),
        baseline: true,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| iter.next().unwrap_or_else(|| {
            eprintln!("{name} needs a value");
            usage()
        });
        match flag.as_str() {
            "--engine" => {
                args.engine = match value("--engine").as_str() {
                    "none" => EngineKind::None,
                    "counterless" => EngineKind::Counterless,
                    "counter-mode" => EngineKind::CounterMode,
                    "counter-light" => EngineKind::CounterLight,
                    other => {
                        eprintln!("unknown engine {other}");
                        usage()
                    }
                }
            }
            "--bench" => args.bench = value("--bench"),
            "--bandwidth" => match value("--bandwidth").as_str() {
                "high" => args.low_bandwidth = false,
                "low" => args.low_bandwidth = true,
                other => {
                    eprintln!("unknown bandwidth {other}");
                    usage()
                }
            },
            "--aes" => match value("--aes").as_str() {
                "128" => args.aes256 = false,
                "256" => args.aes256 = true,
                other => {
                    eprintln!("unknown AES strength {other}");
                    usage()
                }
            },
            "--threshold" =>

                args.threshold = Some(value("--threshold").parse().unwrap_or_else(|_| {
                    eprintln!("--threshold needs a fraction in [0,1]");
                    usage()
                })),
            "--measure" => {
                args.params.measure_per_core = value("--measure").parse().unwrap_or_else(|_| usage())
            }
            "--warmup" => {
                args.params.warmup_per_core = value("--warmup").parse().unwrap_or_else(|_| usage())
            }
            "--functional-warmup" => {
                args.params.functional_warmup_accesses =
                    value("--functional-warmup").parse().unwrap_or_else(|_| usage())
            }
            "--baseline" => args.baseline = true,
            "--no-baseline" => args.baseline = false,
            "--list" => {
                println!("irregular: {}", suites::IRREGULAR.join(" "));
                println!("regular:   {}", suites::REGULAR.join(" "));
                println!("extended:  {} pointer_chase", suites::EXTENDED_GRAPH.join(" "));
                std::process::exit(0)
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    args
}

/// The master seed `clme matrix`/`clme diff` use unless `--seed` is
/// given; golden snapshots are generated with it.
const DEFAULT_MATRIX_SEED: u64 = 0x00C0_FFEE;

struct MatrixArgs {
    tiny: bool,
    threads: usize,
    seed: u64,
    out: Option<PathBuf>,
    golden: Option<PathBuf>,
    tolerance: f64,
    filter: Option<String>,
}

fn matrix_usage() -> ! {
    eprintln!(
        "usage: clme matrix [--tiny] [--threads N] [--seed HEX|DEC] [--out DIR|--golden DIR]\n\
         \x20                  [--filter GLOB]\n\
         \x20      clme diff   [--tiny] [--threads N] [--seed HEX|DEC] --golden DIR [--tol FRACTION]\n\
         \x20                  [--filter GLOB]\n\
         \x20      clme diff   --mem-stats A.json B.json\n\
         \n\
         matrix runs the (workload x engine x config) grid in parallel and\n\
         prints one summary row per cell; --out also writes one stats-snapshot\n\
         JSON per cell (--golden is an alias for --out: regenerating a golden\n\
         directory is the same write). diff re-runs the same grid and compares\n\
         each cell against DIR/<config>__<engine>__<bench>.json with a\n\
         tolerance band (default 2% relative). --tiny selects the 12-cell\n\
         smoke grid the checked-in goldens cover; the default grid is the\n\
         paper's 72 cells (goldens/full). --filter keeps only cells whose\n\
         config/engine/benchmark label matches GLOB (* and ? wildcards); cell\n\
         results never change under filtering because workload seeds are\n\
         label-keyed. diff --mem-stats instead compares two clme mem\n\
         --stats-json artifacts for read-result parity (caller-visible\n\
         traffic counters must match exactly; cache internals may differ) —\n\
         the CI check that cache-on and cache-off runs read the same bytes."
    );
    std::process::exit(2)
}

fn parse_matrix_args(args: &[String]) -> MatrixArgs {
    let mut parsed = MatrixArgs {
        tiny: false,
        // At least 4 workers even on small containers: the cells are
        // independent and short, so oversubscription is harmless, and the
        // matrix must exercise its parallel path everywhere.
        threads: std::thread::available_parallelism().map_or(4, usize::from).max(4),
        seed: DEFAULT_MATRIX_SEED,
        out: None,
        golden: None,
        tolerance: 0.02,
        filter: None,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next().cloned().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                matrix_usage()
            })
        };
        match flag.as_str() {
            "--tiny" => parsed.tiny = true,
            "--threads" => {
                parsed.threads = value("--threads").parse().unwrap_or_else(|_| matrix_usage())
            }
            "--seed" => {
                let text = value("--seed");
                parsed.seed = if let Some(hex) = text.strip_prefix("0x") {
                    u64::from_str_radix(hex, 16).unwrap_or_else(|_| matrix_usage())
                } else {
                    text.parse().unwrap_or_else(|_| matrix_usage())
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value("--out"))),
            "--golden" => parsed.golden = Some(PathBuf::from(value("--golden"))),
            "--tol" => {
                parsed.tolerance = value("--tol").parse().unwrap_or_else(|_| matrix_usage())
            }
            "--filter" => parsed.filter = Some(value("--filter")),
            "--help" | "-h" => matrix_usage(),
            other => {
                eprintln!("unknown flag {other}");
                matrix_usage()
            }
        }
    }
    parsed
}

/// Builds the grid the flags select: the 12-cell `--tiny` smoke grid
/// (3 benchmarks x 4 engines x table1) or the full evaluation grid
/// (9 irregular benchmarks x 4 engines x {table1, low-bw}).
fn build_matrix(args: &MatrixArgs) -> RunMatrix {
    let matrix = if args.tiny {
        RunMatrix::new(tiny_cell_params(), args.seed)
            .benches(["bfs", "canneal", "streamcluster"])
            .engines(all_engines())
            .configs([("table1".to_string(), SystemConfig::isca_table1())])
    } else {
        RunMatrix::new(clme_bench::params_from_env(), args.seed)
            .benches(suites::IRREGULAR.iter().copied())
            .engines(all_engines())
            .configs([
                ("table1".to_string(), SystemConfig::isca_table1()),
                ("low-bw".to_string(), SystemConfig::low_bandwidth()),
            ])
    };
    match &args.filter {
        Some(pattern) => matrix.filter(pattern.clone()),
        None => matrix,
    }
}

/// The window sizes of one `--tiny` matrix cell (shared with `profile`
/// and `trace` so their default run matches a tiny cell exactly).
fn tiny_cell_params() -> SimParams {
    SimParams {
        functional_warmup_accesses: 20_000,
        warmup_per_core: 10_000,
        measure_per_core: 20_000,
    }
}

fn print_cell_summary(snap: &StatsSnapshot) {
    println!(
        "{:<44} ipc {:>6.3}  stall {:>6.2} ns  cxl-wb {:>5.1}%  util {:>5.1}%",
        snap.label(),
        snap.metric("ipc").unwrap_or(0.0),
        snap.metric("engine.mean_stall_after_data_ns").unwrap_or(0.0),
        snap.metric("engine.counterless_writeback_fraction").unwrap_or(0.0) * 100.0,
        snap.metric("dram.bandwidth_utilization").unwrap_or(0.0) * 100.0,
    );
}

fn run_matrix_command(args: &[String]) -> i32 {
    let mut args = parse_matrix_args(args);
    // For `matrix`, --golden DIR means "(re)generate that golden
    // directory" — an alias for --out.
    if args.out.is_none() {
        args.out = args.golden.take();
    }
    let matrix = build_matrix(&args);
    let cells = matrix.cells();
    eprintln!(
        "running {} cells on {} threads (seed {:#x})",
        cells.len(),
        args.threads,
        matrix.seed()
    );
    let snapshots = matrix.run(args.threads);
    for snap in &snapshots {
        print_cell_summary(snap);
    }
    if let Some(dir) = &args.out {
        if let Err(err) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {err}", dir.display());
            return 1;
        }
        for snap in &snapshots {
            let path = dir.join(format!("{}.json", snap.file_stem()));
            if let Err(err) = std::fs::write(&path, snap.to_json()) {
                eprintln!("cannot write {}: {err}", path.display());
                return 1;
            }
        }
        eprintln!("wrote {} snapshots to {}", snapshots.len(), dir.display());
    }
    0
}

fn load_golden(dir: &Path, stem: &str) -> Result<StatsSnapshot, String> {
    let path = dir.join(format!("{stem}.json"));
    let text = std::fs::read_to_string(&path)
        .map_err(|err| format!("cannot read {}: {err}", path.display()))?;
    StatsSnapshot::from_json(&text).map_err(|err| format!("{}: {err}", path.display()))
}

/// `clme diff --mem-stats A B`: read-result parity between two
/// `clme mem --stats-json` artifacts — the CI check that a cache-on run
/// served exactly the traffic a cache-off run did. Only the
/// caller-visible counters are compared; cache and store internals are
/// *expected* to differ between the two configurations.
fn run_mem_stats_diff(paths: &[String]) -> i32 {
    let [a, b] = paths else {
        eprintln!("diff --mem-stats needs exactly two artifact paths");
        matrix_usage()
    };
    let load = |path: &String| -> Result<JsonValue, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|err| format!("cannot read {path}: {err}"))?;
        clme_types::json::parse(&text).map_err(|err| format!("{path} is not valid JSON: {err}"))
    };
    let (doc_a, doc_b) = match (load(a), load(b)) {
        (Ok(doc_a), Ok(doc_b)) => (doc_a, doc_b),
        (Err(err), _) | (_, Err(err)) => {
            eprintln!("{err}");
            return 1;
        }
    };
    let counter = |doc: &JsonValue, key: &str| {
        doc.get("stats")
            .and_then(|s| s.get("counters"))
            .and_then(|c| c.get(key))
            .and_then(JsonValue::as_f64)
    };
    let mut bad = 0usize;
    for key in [
        "blocks_read",
        "blocks_written",
        "batch_reads",
        "batch_writes",
        "integrity_errors",
    ] {
        match (counter(&doc_a, key), counter(&doc_b, key)) {
            (Some(va), Some(vb)) if va == vb => println!("ok      counters.{key} = {va}"),
            (va, vb) => {
                bad += 1;
                let show = |v: Option<f64>| {
                    v.map_or_else(|| "missing".to_string(), |v| format!("{v}"))
                };
                println!("DEVIATES counters.{key}: {} vs {}", show(va), show(vb));
            }
        }
    }
    if bad == 0 {
        println!("read-result parity: {a} and {b} agree");
        0
    } else {
        println!("{bad} counters deviate between {a} and {b}");
        1
    }
}

fn run_diff_command(args: &[String]) -> i32 {
    if args.first().map(String::as_str) == Some("--mem-stats") {
        return run_mem_stats_diff(&args[1..]);
    }
    let args = parse_matrix_args(args);
    let Some(golden_dir) = &args.golden else {
        eprintln!("diff needs --golden DIR");
        matrix_usage()
    };
    let tolerance = Tolerance {
        relative: args.tolerance,
        absolute: 1e-9,
    };
    let matrix = build_matrix(&args);
    eprintln!(
        "diffing {} cells against {} (tolerance {}%, seed {:#x})",
        matrix.cells().len(),
        golden_dir.display(),
        args.tolerance * 100.0,
        matrix.seed()
    );
    let snapshots = matrix.run(args.threads);
    let mut bad_cells = 0usize;
    for fresh in &snapshots {
        match load_golden(golden_dir, &fresh.file_stem()) {
            Err(err) => {
                bad_cells += 1;
                println!("MISSING {:<40} {err}", fresh.label());
            }
            Ok(golden) => {
                let deviations = compare(&golden, fresh, tolerance);
                if deviations.is_empty() {
                    println!("ok      {}", fresh.label());
                } else {
                    bad_cells += 1;
                    println!("DEVIATES {}", fresh.label());
                    for line in deviations {
                        println!("    {line}");
                    }
                }
            }
        }
    }
    if bad_cells == 0 {
        println!("all {} cells within tolerance", snapshots.len());
        0
    } else {
        println!("{bad_cells} of {} cells out of tolerance", snapshots.len());
        1
    }
}

struct ProfileArgs {
    engine: EngineKind,
    bench: String,
    low_bandwidth: bool,
    seed: u64,
    params: SimParams,
    ring: usize,
    json: Option<PathBuf>,
    out: PathBuf,
    series: bool,
    epoch_cycles: u64,
    diff: Option<(String, String)>,
}

fn profile_usage() -> ! {
    eprintln!(
        "usage: clme profile [--engine E] [--bench NAME] [--bandwidth high|low]\n\
         \x20                   [--seed HEX|DEC] [--measure N] [--warmup N]\n\
         \x20                   [--functional-warmup N] [--json PATH]\n\
         \x20                   [--series] [--epoch CYCLES]\n\
         \x20      clme profile --diff CELL_A CELL_B [same flags]\n\
         \x20      clme trace   [same flags] [--out PATH] [--ring N]\n\
         \n\
         profile runs one cell with the observability recorder installed and\n\
         prints a per-stage latency breakdown (engine / counter-fetch / dram /\n\
         cache / rob-stall), the event counters, and cells/sec throughput;\n\
         --json also writes those numbers as a JSON artifact.\n\
         --series replays the cell under the epoch sampler instead and prints\n\
         the per-epoch time-series (one row per --epoch CYCLES of simulated\n\
         time; --json writes the full series). --diff replays two cells named\n\
         by label (config/engine/bench, e.g. table1/counter-mode/bfs) and\n\
         prints a per-stage and per-event delta table. trace runs the\n\
         same cell and writes the retained events as Chrome trace_event JSON\n\
         (open in Perfetto or about:tracing). The default cell is\n\
         table1/counter-light/bfs with the --tiny matrix windows, and the\n\
         workload seed is label-derived exactly like a matrix cell's."
    );
    std::process::exit(2)
}

/// One resolved cell: what `config/engine/bench` names.
struct CellSpec {
    config_name: String,
    cfg: SystemConfig,
    engine: EngineKind,
    bench: String,
}

impl CellSpec {
    fn label(&self) -> String {
        format!("{}/{}/{}", self.config_name, self.engine, self.bench)
    }
}

fn parse_engine_name(name: &str) -> Option<EngineKind> {
    match name {
        "none" | "no-encryption" => Some(EngineKind::None),
        "counterless" => Some(EngineKind::Counterless),
        "counter-mode" => Some(EngineKind::CounterMode),
        "counter-light" => Some(EngineKind::CounterLight),
        _ => None,
    }
}

/// Parses a matrix cell label (`config/engine/bench`) into a spec.
fn parse_cell_label(label: &str) -> Option<CellSpec> {
    let mut parts = label.splitn(3, '/');
    let config_name = parts.next()?;
    let engine = parse_engine_name(parts.next()?)?;
    let bench = parts.next()?;
    let cfg = match config_name {
        "table1" => SystemConfig::isca_table1(),
        "low-bw" => SystemConfig::low_bandwidth(),
        _ => return None,
    };
    Some(CellSpec {
        config_name: config_name.to_string(),
        cfg,
        engine,
        bench: bench.to_string(),
    })
}

fn parse_profile_args(args: &[String]) -> ProfileArgs {
    let mut parsed = ProfileArgs {
        engine: EngineKind::CounterLight,
        bench: "bfs".to_string(),
        low_bandwidth: false,
        seed: DEFAULT_MATRIX_SEED,
        params: tiny_cell_params(),
        ring: clme_obs::DEFAULT_RING_CAPACITY,
        json: None,
        out: PathBuf::from("trace.json"),
        series: false,
        epoch_cycles: clme_obs::DEFAULT_EPOCH_CYCLES,
        diff: None,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next().cloned().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                profile_usage()
            })
        };
        match flag.as_str() {
            "--engine" => {
                parsed.engine = match value("--engine").as_str() {
                    "none" => EngineKind::None,
                    "counterless" => EngineKind::Counterless,
                    "counter-mode" => EngineKind::CounterMode,
                    "counter-light" => EngineKind::CounterLight,
                    other => {
                        eprintln!("unknown engine {other}");
                        profile_usage()
                    }
                }
            }
            "--bench" => parsed.bench = value("--bench"),
            "--bandwidth" => match value("--bandwidth").as_str() {
                "high" => parsed.low_bandwidth = false,
                "low" => parsed.low_bandwidth = true,
                other => {
                    eprintln!("unknown bandwidth {other}");
                    profile_usage()
                }
            },
            "--seed" => {
                let text = value("--seed");
                parsed.seed = if let Some(hex) = text.strip_prefix("0x") {
                    u64::from_str_radix(hex, 16).unwrap_or_else(|_| profile_usage())
                } else {
                    text.parse().unwrap_or_else(|_| profile_usage())
                }
            }
            "--measure" => {
                parsed.params.measure_per_core =
                    value("--measure").parse().unwrap_or_else(|_| profile_usage())
            }
            "--warmup" => {
                parsed.params.warmup_per_core =
                    value("--warmup").parse().unwrap_or_else(|_| profile_usage())
            }
            "--functional-warmup" => {
                parsed.params.functional_warmup_accesses =
                    value("--functional-warmup").parse().unwrap_or_else(|_| profile_usage())
            }
            "--ring" => parsed.ring = value("--ring").parse().unwrap_or_else(|_| profile_usage()),
            "--json" => parsed.json = Some(PathBuf::from(value("--json"))),
            "--out" => parsed.out = PathBuf::from(value("--out")),
            "--series" => parsed.series = true,
            "--epoch" => {
                parsed.epoch_cycles = value("--epoch").parse().unwrap_or_else(|_| profile_usage());
                if parsed.epoch_cycles == 0 {
                    eprintln!("--epoch needs a positive cycle count");
                    profile_usage()
                }
            }
            "--diff" => {
                let a = value("--diff CELL_A");
                let b = value("--diff CELL_B");
                parsed.diff = Some((a, b));
            }
            "--help" | "-h" => profile_usage(),
            other => {
                eprintln!("unknown flag {other}");
                profile_usage()
            }
        }
    }
    parsed
}

fn cell_from_flags(args: &ProfileArgs) -> CellSpec {
    let (config_name, cfg) = if args.low_bandwidth {
        ("low-bw", SystemConfig::low_bandwidth())
    } else {
        ("table1", SystemConfig::isca_table1())
    };
    CellSpec {
        config_name: config_name.to_string(),
        cfg,
        engine: args.engine,
        bench: args.bench.clone(),
    }
}

/// The same label-keyed derivation the matrix uses, so a profiled cell
/// replays the matching matrix cell exactly.
fn cell_workload_seed(master_seed: u64, label: &str) -> u64 {
    SplitMix64::new(master_seed).derive(label.as_bytes())
}

/// Runs one cell with a recorder installed. Returns the label, the
/// wall-clock seconds the cell took, and the run's outputs.
fn record_cell(
    spec: &CellSpec,
    params: SimParams,
    master_seed: u64,
    ring: usize,
) -> (String, f64, clme_sim::SimResult, clme_obs::Recorder) {
    let label = spec.label();
    let seed = cell_workload_seed(master_seed, &label);
    eprintln!("profiling {label} (workload seed {seed:#x})");
    let started = std::time::Instant::now();
    let (result, recorder) =
        run_benchmark_recorded(&spec.cfg, spec.engine, &spec.bench, params, seed, ring);
    let wall = started.elapsed().as_secs_f64();
    (label, wall, result, recorder)
}

fn run_profiled_cell(
    args: &ProfileArgs,
) -> (String, f64, clme_sim::SimResult, clme_obs::Recorder) {
    record_cell(&cell_from_flags(args), args.params, args.seed, args.ring)
}

fn ns(ps: f64) -> f64 {
    ps / 1000.0
}

fn print_stage_table(recorder: &clme_obs::Recorder) {
    println!("per-stage latency over the measured window (ns):");
    println!(
        "  {:<14} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "stage", "samples", "mean", "p50", "p95", "max"
    );
    for stage in Stage::ALL {
        let hist: &Log2Histogram = recorder.stage(stage);
        if hist.count() == 0 {
            println!("  {:<14} {:>10} {:>43}", stage.name(), 0, "-");
            continue;
        }
        println!(
            "  {:<14} {:>10} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
            stage.name(),
            hist.count(),
            ns(hist.mean_ps()),
            ns(hist.percentile_ps(0.50) as f64),
            ns(hist.percentile_ps(0.95) as f64),
            ns(hist.max_ps() as f64),
        );
    }
}

fn profile_json(label: &str, wall: f64, result: &clme_sim::SimResult, rec: &clme_obs::Recorder) -> String {
    let stages = Stage::ALL
        .iter()
        .map(|&stage| {
            let hist = rec.stage(stage);
            (
                stage.name().to_string(),
                JsonValue::Obj(vec![
                    ("samples".into(), JsonValue::Num(hist.count() as f64)),
                    ("mean_ns".into(), JsonValue::Num(ns(hist.mean_ps()))),
                    ("p50_ns".into(), JsonValue::Num(ns(hist.percentile_ps(0.50) as f64))),
                    ("p95_ns".into(), JsonValue::Num(ns(hist.percentile_ps(0.95) as f64))),
                    ("max_ns".into(), JsonValue::Num(ns(hist.max_ps() as f64))),
                ]),
            )
        })
        .collect();
    let counters = rec
        .counters()
        .nonzero()
        .map(|(kind, count)| (kind.name().to_string(), JsonValue::Num(count as f64)))
        .collect();
    let doc = JsonValue::Obj(vec![
        ("label".into(), JsonValue::Str(label.to_string())),
        ("instructions".into(), JsonValue::Num(result.instructions as f64)),
        ("ipc".into(), JsonValue::Num(result.ipc)),
        ("wall_seconds".into(), JsonValue::Num(wall)),
        ("cells_per_sec".into(), JsonValue::Num(1.0 / wall.max(1e-9))),
        ("stages".into(), JsonValue::Obj(stages)),
        ("counters".into(), JsonValue::Obj(counters)),
    ]);
    let mut text = doc.to_pretty();
    text.push('\n');
    text
}

/// `clme profile --series`: replay the cell under the epoch sampler and
/// print (or dump) the per-epoch time-series.
fn run_series_profile(args: &ProfileArgs) -> i32 {
    let spec = cell_from_flags(args);
    let label = spec.label();
    let seed = cell_workload_seed(args.seed, &label);
    eprintln!(
        "sampling {label} every {} cycles (workload seed {seed:#x})",
        args.epoch_cycles
    );
    let (result, series, blame) = run_benchmark_series(
        &spec.cfg,
        spec.engine,
        &spec.bench,
        args.params,
        seed,
        args.epoch_cycles,
    );
    println!(
        "epoch series for {label}: {} epochs x {} cycles (window ipc {:.3})",
        series.len(),
        series.epoch_cycles,
        result.ipc
    );
    println!(
        "  {:>5} {:>9} {:>12} {:>7} {:>9} {:>9} {:>11} {:>11}",
        "epoch", "cycles", "instrs", "ipc", "cc-hit%", "rowconf%", "dram p95", "fetch p95"
    );
    for sample in &series.samples {
        let dram = &sample.stages[Stage::Dram as usize];
        let fetch = &sample.stages[Stage::CounterFetch as usize];
        println!(
            "  {:>5} {:>9} {:>12} {:>7.3} {:>9.1} {:>9.1} {:>8.1} ns {:>8.1} ns",
            sample.index,
            sample.cycles,
            sample.instructions,
            sample.ipc(),
            sample.counter_cache_hit_rate() * 100.0,
            sample.row_conflict_rate() * 100.0,
            ns(dram.p95_ps as f64),
            ns(fetch.p95_ps as f64),
        );
    }
    println!(
        "\nipc min {:.3} / max {:.3} / last {:.3}; counter-cache hit rate (last epoch) {:.1}%",
        series.ipc_min(),
        series.ipc_max(),
        series.ipc_last(),
        series.counter_cache_hit_rate_last() * 100.0
    );
    println!(
        "blame over {} misses: dram {:.1}% / counter {:.1}% / cipher {:.1}% / mac {:.1}%",
        blame.total(),
        blame.fraction(Blame::Dram) * 100.0,
        blame.fraction(Blame::Counter) * 100.0,
        blame.fraction(Blame::Cipher) * 100.0,
        blame.fraction(Blame::Mac) * 100.0,
    );
    if let Some(path) = &args.json {
        if let Err(err) = std::fs::write(path, series.to_json(&label)) {
            eprintln!("cannot write {}: {err}", path.display());
            return 1;
        }
        eprintln!("wrote epoch series to {}", path.display());
    }
    0
}

/// `clme profile --diff A B`: replay two cells and print per-stage and
/// per-event deltas — the counter-mode vs counter-light argument as a
/// table.
fn run_diff_profile(args: &ProfileArgs, label_a: &str, label_b: &str) -> i32 {
    let parse = |label: &str| {
        parse_cell_label(label).unwrap_or_else(|| {
            eprintln!(
                "bad cell label {label:?} (want config/engine/bench, \
                 e.g. table1/counter-mode/bfs)"
            );
            profile_usage()
        })
    };
    let spec_a = parse(label_a);
    let spec_b = parse(label_b);
    let (label_a, _, result_a, rec_a) = record_cell(&spec_a, args.params, args.seed, args.ring);
    let (label_b, _, result_b, rec_b) = record_cell(&spec_b, args.params, args.seed, args.ring);

    println!("differential profile (measured windows):");
    println!("  A = {label_a}  (ipc {:.3})", result_a.ipc);
    println!("  B = {label_b}  (ipc {:.3})", result_b.ipc);

    println!("\nper-stage latency (ns):");
    println!(
        "  {:<14} {:>10} {:>10} {:>10} {:>10} {:>11}",
        "stage", "A samples", "A mean", "B samples", "B mean", "Δmean"
    );
    for stage in Stage::ALL {
        let a = rec_a.stage(stage);
        let b = rec_b.stage(stage);
        if a.count() == 0 && b.count() == 0 {
            continue;
        }
        let mean_a = if a.count() > 0 { ns(a.mean_ps()) } else { 0.0 };
        let mean_b = if b.count() > 0 { ns(b.mean_ps()) } else { 0.0 };
        println!(
            "  {:<14} {:>10} {:>10.2} {:>10} {:>10.2} {:>+11.2}",
            stage.name(),
            a.count(),
            mean_a,
            b.count(),
            mean_b,
            mean_b - mean_a,
        );
    }

    println!("\nevent counters:");
    println!(
        "  {:<24} {:>12} {:>12} {:>13}",
        "event", "A", "B", "Δ"
    );
    for &kind in EventKind::ALL.iter() {
        let a = rec_a.counters().get(kind);
        let b = rec_b.counters().get(kind);
        if a == 0 && b == 0 {
            continue;
        }
        println!(
            "  {:<24} {:>12} {:>12} {:>+13}",
            kind.name(),
            a,
            b,
            b as i128 - a as i128,
        );
    }
    0
}

fn run_profile_command(args: &[String]) -> i32 {
    let args = parse_profile_args(args);
    if let Some((a, b)) = args.diff.clone() {
        return run_diff_profile(&args, &a, &b);
    }
    if args.series {
        return run_series_profile(&args);
    }
    let (label, wall, result, recorder) = run_profiled_cell(&args);
    println!("{result}\n");
    print_stage_table(&recorder);
    println!("\nevent counters (measured window):");
    let mut any = false;
    for (kind, count) in recorder.counters().nonzero() {
        println!("  {:<24} {count}", kind.name());
        any = true;
    }
    if !any {
        println!("  (none)");
    }
    println!(
        "\nthroughput: {:.3} cells/sec ({:.2} s wall for {label})",
        1.0 / wall.max(1e-9),
        wall
    );
    if let Some(path) = &args.json {
        let artifact = profile_json(&label, wall, &result, &recorder);
        if let Err(err) = std::fs::write(path, artifact) {
            eprintln!("cannot write {}: {err}", path.display());
            return 1;
        }
        eprintln!("wrote profile artifact to {}", path.display());
    }
    0
}

struct PerfArgs {
    threads: usize,
    seed: u64,
    out: PathBuf,
    baseline: PathBuf,
    gate: f64,
    write_baseline: bool,
    no_gate: bool,
}

fn perf_usage() -> ! {
    eprintln!(
        "usage: clme perf [--threads N] [--seed HEX|DEC] [--out PATH]\n\
         \x20               [--baseline PATH] [--gate FRACTION]\n\
         \x20               [--write-baseline] [--no-gate]\n\
         \n\
         perf measures simulator throughput on a fixed calibrated cell set\n\
         (8 tiny cells: 4 engines x {{bfs, canneal}} on table1), normalises\n\
         cells/sec by a built-in spin-calibration loop so the score is\n\
         machine-invariant, and writes BENCH_perf.json (default --out) with\n\
         the measurement appended to the artifact's run history. When the\n\
         baseline file (default goldens/perf_baseline.json) exists, the run\n\
         fails if the normalised score regressed more than --gate (default\n\
         15%). --write-baseline regenerates the baseline from this run;\n\
         --no-gate measures and records without failing."
    );
    std::process::exit(2)
}

fn parse_perf_args(args: &[String]) -> PerfArgs {
    let mut parsed = PerfArgs {
        threads: std::thread::available_parallelism().map_or(4, usize::from).max(4),
        seed: DEFAULT_MATRIX_SEED,
        out: PathBuf::from("BENCH_perf.json"),
        baseline: PathBuf::from("goldens/perf_baseline.json"),
        gate: clme_bench::perf::DEFAULT_GATE,
        write_baseline: false,
        no_gate: false,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next().cloned().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                perf_usage()
            })
        };
        match flag.as_str() {
            "--threads" => {
                parsed.threads = value("--threads").parse().unwrap_or_else(|_| perf_usage())
            }
            "--seed" => {
                let text = value("--seed");
                parsed.seed = if let Some(hex) = text.strip_prefix("0x") {
                    u64::from_str_radix(hex, 16).unwrap_or_else(|_| perf_usage())
                } else {
                    text.parse().unwrap_or_else(|_| perf_usage())
                }
            }
            "--out" => parsed.out = PathBuf::from(value("--out")),
            "--baseline" => parsed.baseline = PathBuf::from(value("--baseline")),
            "--gate" => parsed.gate = value("--gate").parse().unwrap_or_else(|_| perf_usage()),
            "--write-baseline" => parsed.write_baseline = true,
            "--no-gate" => parsed.no_gate = true,
            "--help" | "-h" => perf_usage(),
            other => {
                eprintln!("unknown flag {other}");
                perf_usage()
            }
        }
    }
    parsed
}

/// Per-stage ns/op of one profiled calibrated cell: how much host time
/// the simulator spends per simulated stage event (plus the simulated
/// mean for context). Rendered into `BENCH_perf.json`.
///
/// The recorder only knows the whole cell's wall time, so the host cost
/// is apportioned by each stage's share of simulated work (samples ×
/// simulated mean): a stage that simulated twice the picoseconds is
/// charged twice the host nanoseconds. Dividing the total wall by each
/// stage's sample count — the old rule — charged every equal-count
/// stage the identical ns/op regardless of what it simulated.
fn perf_stage_json(wall: f64, rec: &clme_obs::Recorder) -> Vec<(String, JsonValue)> {
    let wall_ns = wall * 1e9;
    let total_work: f64 = Stage::ALL
        .iter()
        .map(|&stage| {
            let hist = rec.stage(stage);
            hist.count() as f64 * hist.mean_ps()
        })
        .sum();
    Stage::ALL
        .iter()
        .map(|&stage| {
            let hist = rec.stage(stage);
            let samples = hist.count();
            let host = if samples > 0 && total_work > 0.0 {
                wall_ns * hist.mean_ps() / total_work
            } else {
                0.0
            };
            (
                stage.name().to_string(),
                JsonValue::Obj(vec![
                    ("samples".into(), JsonValue::Num(samples as f64)),
                    ("sim_mean_ns".into(), JsonValue::Num(ns(hist.mean_ps()))),
                    ("host_ns_per_op".into(), JsonValue::Num(host)),
                ]),
            )
        })
        .collect()
}

fn run_perf_command(args: &[String]) -> i32 {
    let args = parse_perf_args(args);
    eprintln!(
        "calibrating spin loop and running {} perf cells on {} threads (seed {:#x})",
        clme_bench::perf::calibrated_matrix(args.seed).cells().len(),
        args.threads,
        args.seed
    );
    let measurement = if args.write_baseline {
        // Baselines pin the gate floor for every future run: take the
        // median of three measurements so host noise cannot pin an
        // unrepresentatively fast (or slow) score.
        eprintln!("baseline mode: taking the median of 3 measurements");
        clme_bench::perf::measure_median(args.threads, args.seed, 3)
    } else {
        // The gate compares against that median, so estimate with the
        // best of three: scheduler noise only ever slows a run down, and
        // a real regression drags the best run down with the rest.
        clme_bench::perf::measure_best(args.threads, args.seed, 3)
    };
    println!(
        "perf: {:.3} cells/sec over {} cells ({:.2} s wall)",
        measurement.cells_per_sec, measurement.cells, measurement.wall_seconds
    );
    println!(
        "calibration: {:.3} ns/iter -> normalized score {:.4}",
        measurement.spin_ns_per_iter, measurement.normalized_score
    );

    // One profiled cell for the per-stage ns/op breakdown.
    let spec = CellSpec {
        config_name: "table1".to_string(),
        cfg: SystemConfig::isca_table1(),
        engine: EngineKind::CounterLight,
        bench: "bfs".to_string(),
    };
    let (_, stage_wall, _, recorder) =
        record_cell(&spec, tiny_cell_params(), args.seed, clme_obs::DEFAULT_RING_CAPACITY);
    let stages = perf_stage_json(stage_wall, &recorder);

    let history = std::fs::read_to_string(&args.out)
        .map(|text| clme_bench::perf::extract_history(&text))
        .unwrap_or_default();
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0);
    let artifact = clme_bench::perf::perf_json(&measurement, stages, history, unix_time);
    if let Err(err) = write_atomic(&args.out, &artifact) {
        eprintln!("cannot write {}: {err}", args.out.display());
        return 1;
    }
    eprintln!("wrote perf artifact to {}", args.out.display());

    if args.write_baseline {
        if let Some(parent) = args.baseline.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        let text = clme_bench::perf::baseline_json(&measurement);
        if let Err(err) = std::fs::write(&args.baseline, text) {
            eprintln!("cannot write {}: {err}", args.baseline.display());
            return 1;
        }
        println!("wrote perf baseline to {}", args.baseline.display());
        return 0;
    }

    match std::fs::read_to_string(&args.baseline) {
        Err(_) => {
            eprintln!(
                "no baseline at {} — run clme perf --write-baseline to pin one",
                args.baseline.display()
            );
            0
        }
        Ok(text) => match clme_bench::perf::parse_baseline(&text) {
            Err(err) => {
                eprintln!("bad baseline {}: {err}", args.baseline.display());
                1
            }
            Ok(baseline) => {
                println!(
                    "baseline score {:.4} ({}); ratio {:.3}",
                    baseline,
                    args.baseline.display(),
                    measurement.normalized_score / baseline
                );
                match clme_bench::perf::regression(
                    baseline,
                    measurement.normalized_score,
                    args.gate,
                ) {
                    None => {
                        println!("perf gate passed");
                        0
                    }
                    Some(reason) => {
                        println!("PERF REGRESSION: {reason}");
                        if args.no_gate {
                            println!("(--no-gate: not failing)");
                            0
                        } else {
                            1
                        }
                    }
                }
            }
        },
    }
}

fn run_trace_command(args: &[String]) -> i32 {
    let args = parse_profile_args(args);
    let (label, wall, _result, recorder) = run_profiled_cell(&args);
    let ring = recorder.ring();
    if ring.dropped() > 0 {
        eprintln!(
            "ring overflowed: kept the latest {} events, dropped {} older ones \
             (raise --ring to keep more)",
            ring.len(),
            ring.dropped()
        );
    }
    let trace = recorder.chrome_trace();
    if let Err(err) = std::fs::write(&args.out, trace) {
        eprintln!("cannot write {}: {err}", args.out.display());
        return 1;
    }
    println!(
        "wrote {} trace events for {label} to {} ({:.2} s wall) — open in \
         Perfetto (https://ui.perfetto.dev) or chrome://tracing",
        ring.len(),
        args.out.display(),
        wall
    );
    0
}

struct CritpathArgs {
    label: String,
    samples: usize,
    seed: u64,
    params: SimParams,
    json: Option<PathBuf>,
    trace: Option<PathBuf>,
}

fn critpath_usage() -> ! {
    eprintln!(
        "usage: clme critpath CONFIG/ENGINE/BENCH [--samples N] [--seed HEX|DEC]\n\
         \x20                  [--measure N] [--warmup N] [--functional-warmup N]\n\
         \x20                  [--json PATH] [--trace PATH]\n\
         \n\
         critpath replays one cell with the span tracer installed: every LLC\n\
         miss of the measured window becomes a request span whose dependent\n\
         operations (data DRAM access, counter fetch per tree level, in-line\n\
         MAC, pad generation, ECC decode) are recorded as child spans, and the\n\
         chain that actually gated readiness assigns the miss one blame class\n\
         (dram-/counter-/cipher-/mac-bound). Prints the blame breakdown table;\n\
         --json writes it as a JSON artifact, --trace writes the sampled\n\
         request spans as Chrome trace_event JSON with flow arrows (open in\n\
         Perfetto). The cell runs the --tiny matrix windows with its\n\
         label-derived workload seed, so the fractions match the matching\n\
         snapshot's blame.* metrics exactly.\n\
         \n\
         Labels of the form mem/BACKEND/PATTERN (backend vec|file, pattern\n\
         sweep|zipf|hot) trace the clme-mem library itself instead of a simulated\n\
         cell: reads of an encrypted in-process store, host-clock spans, the\n\
         same blame table. See clme mem --help for the library runner.\n\
         \n\
         example: clme critpath table1/counter-mode/bfs --trace spans.json\n\
         example: clme critpath mem/vec/zipf --json mem_blame.json"
    );
    std::process::exit(2)
}

fn parse_critpath_args(args: &[String]) -> CritpathArgs {
    let mut parsed = CritpathArgs {
        label: String::new(),
        samples: clme_obs::DEFAULT_SPAN_SAMPLES,
        seed: DEFAULT_MATRIX_SEED,
        params: tiny_cell_params(),
        json: None,
        trace: None,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next().cloned().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                critpath_usage()
            })
        };
        match flag.as_str() {
            "--samples" => {
                parsed.samples = value("--samples").parse().unwrap_or_else(|_| critpath_usage())
            }
            "--seed" => {
                let text = value("--seed");
                parsed.seed = if let Some(hex) = text.strip_prefix("0x") {
                    u64::from_str_radix(hex, 16).unwrap_or_else(|_| critpath_usage())
                } else {
                    text.parse().unwrap_or_else(|_| critpath_usage())
                }
            }
            "--measure" => {
                parsed.params.measure_per_core =
                    value("--measure").parse().unwrap_or_else(|_| critpath_usage())
            }
            "--warmup" => {
                parsed.params.warmup_per_core =
                    value("--warmup").parse().unwrap_or_else(|_| critpath_usage())
            }
            "--functional-warmup" => {
                parsed.params.functional_warmup_accesses =
                    value("--functional-warmup").parse().unwrap_or_else(|_| critpath_usage())
            }
            "--json" => parsed.json = Some(PathBuf::from(value("--json"))),
            "--trace" => parsed.trace = Some(PathBuf::from(value("--trace"))),
            "--help" | "-h" => critpath_usage(),
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other}");
                critpath_usage()
            }
            label => {
                if !parsed.label.is_empty() {
                    eprintln!("critpath takes one cell label, got {label:?} too");
                    critpath_usage()
                }
                parsed.label = label.to_string();
            }
        }
    }
    if parsed.label.is_empty() {
        eprintln!("critpath needs a cell label");
        critpath_usage()
    }
    parsed
}

fn critpath_json(
    label: &str,
    seed: u64,
    tally: &clme_obs::BlameTally,
    sampled: usize,
) -> String {
    let classes = Blame::ALL
        .iter()
        .map(|&blame| {
            (
                blame.name().to_string(),
                JsonValue::Obj(vec![
                    ("requests".into(), JsonValue::Num(tally.count(blame) as f64)),
                    ("fraction".into(), JsonValue::Num(tally.fraction(blame))),
                    (
                        "mean_stall_ns".into(),
                        JsonValue::Num(ns(tally.mean_stall_ps(blame))),
                    ),
                ]),
            )
        })
        .collect();
    let doc = JsonValue::Obj(vec![
        ("label".into(), JsonValue::Str(label.to_string())),
        ("seed".into(), JsonValue::Str(format!("{seed:#018x}"))),
        ("requests".into(), JsonValue::Num(tally.total() as f64)),
        ("sampled_spans".into(), JsonValue::Num(sampled as f64)),
        ("classes".into(), JsonValue::Obj(classes)),
    ]);
    let mut text = doc.to_pretty();
    text.push('\n');
    text
}

/// The blame-breakdown table shared by `clme critpath` and `clme mem
/// --critpath`.
fn print_blame_table(tally: &clme_obs::BlameTally) {
    println!(
        "  {:<14} {:>10} {:>8} {:>22}",
        "class", "requests", "share", "mean stall after data"
    );
    for &blame in Blame::ALL.iter() {
        println!(
            "  {:<14} {:>10} {:>7.1}% {:>19.2} ns",
            blame.name(),
            tally.count(blame),
            tally.fraction(blame) * 100.0,
            ns(tally.mean_stall_ps(blame)),
        );
    }
}

fn run_critpath_command(args: &[String]) -> i32 {
    let args = parse_critpath_args(args);
    // `mem/...` labels trace the clme-mem library instead of a simulated
    // cell — same tracer, same table, real host-clock spans.
    if let Some(rest) = args.label.strip_prefix("mem/") {
        return run_mem_critpath_label(&args, rest);
    }
    let Some(spec) = parse_cell_label(&args.label) else {
        eprintln!(
            "bad cell label {:?} (want config/engine/bench, e.g. table1/counter-mode/bfs)",
            args.label
        );
        critpath_usage()
    };
    let label = spec.label();
    let seed = cell_workload_seed(args.seed, &label);
    eprintln!(
        "tracing {label} (workload seed {seed:#x}, reservoir of {} spans)",
        args.samples
    );
    let (result, tracer) = run_benchmark_spans(
        &spec.cfg,
        spec.engine,
        &spec.bench,
        args.params,
        seed,
        args.samples,
    );
    let tally = tracer.tally();
    println!(
        "critical-path blame for {label}: {} classified misses (window ipc {:.3})",
        tally.total(),
        result.ipc
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

// =====================================================================
// mem — the clme-mem encrypted-memory library runner
// =====================================================================

struct MemArgs {
    backend: String,
    path: Option<PathBuf>,
    blocks: u64,
    ops: usize,
    seed: u64,
    samples: usize,
    saturation: Option<u64>,
    smoke: bool,
    bench: bool,
    critpath: Option<String>,
    json: Option<PathBuf>,
    trace: Option<PathBuf>,
    stats: bool,
    stats_json: Option<PathBuf>,
    prom: Option<PathBuf>,
    watch: bool,
    epoch_ms: u64,
    reps: usize,
    check_stats: Option<PathBuf>,
    tamper: Option<String>,
    dump: Option<PathBuf>,
    dump_on_exit: bool,
    serve: Option<String>,
    serve_requests: usize,
    cache: bool,
    cache_pages: Option<usize>,
    tenants: Option<u64>,
    skew: f64,
    slo: Option<String>,
    tenant_top: usize,
}

/// SLOs a `--tenants` run tracks when `--slo` is not given. Generous
/// enough that a healthy run burns near zero; a noisy neighbour or a
/// cold file backend shows up as burn > 0.
const DEFAULT_TENANT_SLO: &str = "read-p99=250us,write-p99=1ms";

fn mem_usage() -> ! {
    eprintln!(
        "usage: clme mem [--backend vec|file] [--path PATH] [--blocks N] [--ops N]\n\
         \x20            [--seed HEX|DEC] [--saturation N] [--smoke | --bench |\n\
         \x20            --critpath sweep|zipf|hot | --tamper REGION] [--samples N]\n\
         \x20            [--json PATH] [--trace PATH] [--reps N] [--watch]\n\
         \x20            [--cache | --no-cache] [--cache-pages N]\n\
         \x20            [--epoch-ms MS] [--stats] [--stats-json PATH] [--prom PATH]\n\
         \x20            [--check-stats PATH] [--dump PATH] [--dump-on-exit]\n\
         \x20            [--serve ADDR] [--serve-requests N]\n\
         \x20            [--tenants N] [--skew Z] [--slo SPEC] [--tenant-top K]\n\
         \n\
         Drives the clme-mem library — the counter-light scheme applied to a\n\
         real backing store instead of the simulator. The default run is a\n\
         demo: random batch writes checked against a plaintext model, one\n\
         byte flipped in every stored-word region (ciphertext, MAC lane,\n\
         parity lane, counter block, tree node) with the typed IntegrityError\n\
         each flip provokes, a ciphertext splice, and a full rekey() sweep.\n\
         \n\
         --smoke     same checks, compact output, nonzero exit on any miss\n\
         \x20        (this is the tier-1 CI entry point)\n\
         --bench     batch write/read throughput, op latency percentiles,\n\
         \x20        and rekey sweep rate (one untimed warm-up pass, then\n\
         \x20        --reps timed reps: best-of-N plus the per-rep spread)\n\
         --critpath  trace reads with the span tracer and print the blame\n\
         \x20        table (sweep = sequential, zipf = skewed; hot = a small\n\
         \x20        working set re-read so the verified-page cache serves\n\
         \x20        it; zipf blocks saturate counters and go counterless)\n\
         --backend   vec (in-memory, default) or file (paged file store;\n\
         \x20        --path to keep it, otherwise a temp file is used)\n\
         --cache / --no-cache  enable (default) or disable the layer's\n\
         \x20        verified-page read cache; --no-cache re-verifies the\n\
         \x20        whole chain on every read\n\
         --cache-pages N  verified-page cache capacity in pages (default\n\
         \x20        512; implies --cache)\n\
         --saturation counters above N switch the block to counterless mode\n\
         --watch     print a telemetry epoch row every --epoch-ms (default\n\
         \x20        250) while the bench runs\n\
         --stats     print the full telemetry table after the run: op and\n\
         \x20        crypto-stage latency histograms, per-shard lock\n\
         \x20        wait/hold, page-cache hit rate, rekey progress\n\
         --stats-json write the telemetry snapshot + throughput artifact\n\
         \x20        (BENCH_mem.json schema, history carried forward)\n\
         --prom      write the snapshot in Prometheus text exposition format\n\
         --check-stats parse a --stats-json artifact and verify the\n\
         \x20        telemetry pipeline keys are present (CI smoke)\n\
         --tamper    flip one stored byte in REGION (data|mac|parity|counter|\n\
         \x20        tree) after a deterministic write phase; the provoked\n\
         \x20        IntegrityError writes a .clmedump post-mortem bundle\n\
         --dump      where the .clmedump bundle goes (with --tamper or\n\
         \x20        --dump-on-exit; default mem-tamper-REGION.clmedump)\n\
         --dump-on-exit arm the flight recorder and write a bundle when the\n\
         \x20        run finishes, even without a fault\n\
         --serve     after the run, keep serving GET /metrics (Prometheus\n\
         \x20        text) and /healthz over HTTP on ADDR (e.g. 127.0.0.1:9464)\n\
         --serve-requests stop serving after N requests (0 = forever)\n\
         --tenants   bench N interleaved client streams (Zipf-skewed\n\
         \x20        activity, disjoint page ranges, per-tenant read/write\n\
         \x20        mix) instead of the single-stream bench; per-tenant\n\
         \x20        tables ride --stats/--stats-json/--prom, and --blocks\n\
         \x20        is raised if needed so every tenant owns >= 1 page\n\
         --skew      Zipf exponent for tenant and page popularity\n\
         \x20        (default 1.2; 0 = uniform)\n\
         --slo       per-tenant latency objectives, e.g.\n\
         \x20        read-p99=120us,write-p99=1ms (default\n\
         \x20        read-p99=250us,write-p99=1ms); burn rates per window\n\
         --tenant-top exact per-tenant metric slots; the long tail folds\n\
         \x20        into __other__ (default 8, bounded cardinality)\n\
         \n\
         example: clme mem --smoke --blocks 256\n\
         example: clme mem --bench --backend file --blocks 8192 --stats\n\
         example: clme mem --bench --stats-json BENCH_mem.json --reps 3\n\
         example: clme mem --critpath hot --json mem_blame.json\n\
         example: clme mem --bench --no-cache --stats\n\
         example: clme mem --tamper mac --blocks 256 --dump mac.clmedump\n\
         example: clme mem --serve 127.0.0.1:9464 --blocks 256\n\
         example: clme mem --tenants 64 --skew 1.2 --slo read-p99=120us --stats"
    );
    std::process::exit(2)
}

fn parse_mem_args(args: &[String]) -> MemArgs {
    let mut parsed = MemArgs {
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
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next().cloned().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                mem_usage()
            })
        };
        match flag.as_str() {
            "--backend" => {
                parsed.backend = value("--backend");
                if !matches!(parsed.backend.as_str(), "vec" | "file") {
                    eprintln!("--backend must be vec or file");
                    mem_usage()
                }
            }
            "--path" => parsed.path = Some(PathBuf::from(value("--path"))),
            "--blocks" => {
                parsed.blocks = value("--blocks").parse().unwrap_or_else(|_| mem_usage());
                if parsed.blocks == 0 {
                    eprintln!("--blocks needs a positive count");
                    mem_usage()
                }
            }
            "--ops" => parsed.ops = value("--ops").parse().unwrap_or_else(|_| mem_usage()),
            "--seed" => {
                let text = value("--seed");
                parsed.seed = if let Some(hex) = text.strip_prefix("0x") {
                    u64::from_str_radix(hex, 16).unwrap_or_else(|_| mem_usage())
                } else {
                    text.parse().unwrap_or_else(|_| mem_usage())
                }
            }
            "--samples" => {
                parsed.samples = value("--samples").parse().unwrap_or_else(|_| mem_usage())
            }
            "--saturation" => {
                parsed.saturation =
                    Some(value("--saturation").parse().unwrap_or_else(|_| mem_usage()))
            }
            "--smoke" => parsed.smoke = true,
            "--bench" => parsed.bench = true,
            "--critpath" => {
                let pattern = value("--critpath");
                if !matches!(pattern.as_str(), "sweep" | "zipf" | "hot") {
                    eprintln!("--critpath must be sweep, zipf, or hot");
                    mem_usage()
                }
                parsed.critpath = Some(pattern);
            }
            "--cache" => parsed.cache = true,
            "--no-cache" => parsed.cache = false,
            "--cache-pages" => {
                parsed.cache = true;
                parsed.cache_pages =
                    Some(value("--cache-pages").parse().unwrap_or_else(|_| mem_usage()))
            }
            "--json" => parsed.json = Some(PathBuf::from(value("--json"))),
            "--trace" => parsed.trace = Some(PathBuf::from(value("--trace"))),
            "--stats" => parsed.stats = true,
            "--stats-json" => parsed.stats_json = Some(PathBuf::from(value("--stats-json"))),
            "--prom" => parsed.prom = Some(PathBuf::from(value("--prom"))),
            "--watch" => parsed.watch = true,
            "--epoch-ms" => {
                parsed.epoch_ms = value("--epoch-ms").parse().unwrap_or_else(|_| mem_usage());
                if parsed.epoch_ms == 0 {
                    eprintln!("--epoch-ms needs a positive interval");
                    mem_usage()
                }
            }
            "--reps" => {
                parsed.reps = value("--reps").parse().unwrap_or_else(|_| mem_usage());
                if parsed.reps == 0 {
                    eprintln!("--reps needs a positive count");
                    mem_usage()
                }
            }
            "--check-stats" => {
                parsed.check_stats = Some(PathBuf::from(value("--check-stats")))
            }
            "--tamper" => {
                let region = value("--tamper");
                if !matches!(region.as_str(), "data" | "mac" | "parity" | "counter" | "tree") {
                    eprintln!("--tamper must be data, mac, parity, counter, or tree");
                    mem_usage()
                }
                parsed.tamper = Some(region);
            }
            "--dump" => parsed.dump = Some(PathBuf::from(value("--dump"))),
            "--dump-on-exit" => parsed.dump_on_exit = true,
            "--serve" => parsed.serve = Some(value("--serve")),
            "--serve-requests" => {
                parsed.serve_requests =
                    value("--serve-requests").parse().unwrap_or_else(|_| mem_usage())
            }
            "--tenants" => {
                let n: u64 = value("--tenants").parse().unwrap_or_else(|_| mem_usage());
                if n == 0 {
                    eprintln!("--tenants needs a positive count");
                    mem_usage()
                }
                parsed.tenants = Some(n);
            }
            "--skew" => {
                parsed.skew = value("--skew").parse().unwrap_or_else(|_| mem_usage());
                if !(parsed.skew.is_finite() && parsed.skew >= 0.0) {
                    eprintln!("--skew needs a finite non-negative exponent");
                    mem_usage()
                }
            }
            "--slo" => {
                let spec = value("--slo");
                if let Err(err) = SloSpec::parse_list(&spec) {
                    eprintln!("bad --slo: {err}");
                    mem_usage()
                }
                parsed.slo = Some(spec);
            }
            "--tenant-top" => {
                parsed.tenant_top =
                    value("--tenant-top").parse().unwrap_or_else(|_| mem_usage());
                if parsed.tenant_top == 0 {
                    eprintln!("--tenant-top needs a positive count");
                    mem_usage()
                }
            }
            "--help" | "-h" => mem_usage(),
            other => {
                eprintln!("unknown flag {other}");
                mem_usage()
            }
        }
    }
    if parsed.smoke as u8
        + parsed.bench as u8
        + parsed.critpath.is_some() as u8
        + parsed.tamper.is_some() as u8
        > 1
    {
        eprintln!("--smoke, --bench, --critpath, and --tamper are mutually exclusive");
        mem_usage()
    }
    if let Some(tenants) = parsed.tenants {
        if parsed.smoke || parsed.critpath.is_some() || parsed.tamper.is_some() {
            eprintln!("--tenants runs the multi-tenant bench; it cannot combine with --smoke, --critpath, or --tamper");
            mem_usage()
        }
        parsed.bench = true;
        // Every tenant needs its own page range; resize the store to an
        // exact fit of equal ranges (raising it when --blocks is too
        // small for one page per tenant).
        let page_blocks = clme_mem::PAGE_BLOCKS as u64;
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
    parsed
}

/// The layer's master key, derived from the run seed.
fn mem_master_key(seed: u64, label: &[u8]) -> [u8; 32] {
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

fn run_mem_command(args: &[String]) -> i32 {
    let args = parse_mem_args(args);
    if let Some(path) = &args.check_stats {
        return mem_check_stats(path);
    }
    run_mem_with_args(&args)
}

/// `clme critpath mem/BACKEND/PATTERN` — the simulator's blame command
/// pointed at the library.
fn run_mem_critpath_label(args: &CritpathArgs, rest: &str) -> i32 {
    let mut parts = rest.splitn(2, '/');
    let backend = parts.next().unwrap_or("");
    let pattern = parts.next().unwrap_or("sweep");
    if !matches!(backend, "vec" | "file") || !matches!(pattern, "sweep" | "zipf" | "hot") {
        eprintln!("bad mem label mem/{rest:?} (want mem/vec|file/sweep|zipf|hot)");
        critpath_usage()
    }
    let mem_args = MemArgs {
        backend: backend.to_string(),
        path: None,
        blocks: 4096,
        ops: 20_000,
        seed: args.seed,
        samples: args.samples,
        saturation: None,
        smoke: false,
        bench: false,
        critpath: Some(pattern.to_string()),
        json: args.json.clone(),
        trace: args.trace.clone(),
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
    };
    run_mem_with_args(&mem_args)
}

/// The traffic shape a `--tenants` run composes: disjoint equal page
/// ranges over the (already resized) store.
fn mem_tenant_traffic(args: &MemArgs, tenants: u64) -> TenantTrafficConfig {
    TenantTrafficConfig {
        tenants,
        seed: args.seed,
        skew: args.skew,
        pages_per_tenant: args.blocks / clme_mem::PAGE_BLOCKS as u64 / tenants,
        page_blocks: clme_mem::PAGE_BLOCKS as u64,
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

fn run_mem_with_args(args: &MemArgs) -> i32 {
    let master = mem_master_key(args.seed, b"mem/master");
    let options = mem_options(args);
    match args.backend.as_str() {
        "file" => {
            let (path, temporary) = match &args.path {
                Some(path) => (path.clone(), false),
                None => (
                    std::env::temp_dir()
                        .join(format!("clme-mem-{}.store", std::process::id())),
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
                    return 1;
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
                    eprintln!("dump already written at the first fault: {}", path.display());
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
fn mem_tamper_populate<B: StoreBackend>(
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
fn mem_flip_and_probe<B: StoreBackend>(
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
        layer.backend().write_word(word_index, &tampered).expect("in-bounds");
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
        layer.backend().write_word(word_index, &original).expect("in-bounds");
        if layer.read_block(probe).is_err() {
            eprintln!("restoring the {what} word did not restore the read");
            return 1;
        }
    }

    // Phase 3: splice two valid ciphertexts — both positions must fail.
    let (a, b) = (addrs[0], addrs[addrs.len() - 1]);
    let word_a = layer.backend().read_word(geo.data_word(a)).expect("in-bounds");
    let word_b = layer.backend().read_word(geo.data_word(b)).expect("in-bounds");
    layer.backend().write_word(geo.data_word(a), &word_b).expect("in-bounds");
    layer.backend().write_word(geo.data_word(b), &word_a).expect("in-bounds");
    if layer.read_block(a).is_ok() || layer.read_block(b).is_ok() {
        eprintln!("splicing blocks {a:#x} and {b:#x} went UNDETECTED");
        return 1;
    }
    layer.backend().write_word(geo.data_word(a), &word_a).expect("in-bounds");
    layer.backend().write_word(geo.data_word(b), &word_b).expect("in-bounds");
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
        if min > 0.0 { (max - min) / min * 100.0 } else { 0.0 }
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
        if min.is_finite() && min > 0.0 { (max - min) / min * 100.0 } else { 0.0 }
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
const MEM_SCHEMA: u32 = 3;

/// Schema versions whose `history` arrays this build still understands.
const MEM_SCHEMA_COMPAT: [u32; 3] = [1, 2, MEM_SCHEMA];

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
        if snap.rekey.in_progress { " (in progress)" } else { "" },
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

/// Carries the history array forward from a previous `BENCH_mem.json`;
/// unreadable or mismatched-schema text yields an empty history.
fn mem_extract_history(text: &str) -> Vec<JsonValue> {
    let Ok(doc) = clme_types::json::parse(text) else {
        return Vec::new();
    };
    let schema = doc.get("schema").and_then(JsonValue::as_f64);
    if !MEM_SCHEMA_COMPAT.iter().any(|&v| schema == Some(v as f64)) {
        return Vec::new();
    }
    match doc.get("history") {
        Some(JsonValue::Arr(items)) => items.clone(),
        _ => Vec::new(),
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
                ("rekey_blocks".into(), JsonValue::Num(bench.rekey_blocks as f64)),
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
                ("write_spread_pct".into(), JsonValue::Num(bench.write_spread_pct)),
                ("read_spread_pct".into(), JsonValue::Num(bench.read_spread_pct)),
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
                obj.push(("batches".into(), JsonValue::Num(bench.tenant_batches as f64)));
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
            .map(|text| mem_extract_history(&text))
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
    for key in ["hits", "partial_hits", "misses", "hit_rate", "bypasses", "resident_pages"] {
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
                if !rows.iter().any(|r| {
                    r.get("tenant").and_then(JsonValue::as_str) == Some("__other__")
                }) {
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
fn mem_critpath<B: StoreBackend>(
    args: &MemArgs,
    layer: &EncryptionLayer<B>,
    pattern: &str,
) -> i32 {
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

struct SeriesArgs {
    matrix: bool,
    tiny: bool,
    threads: usize,
    seed: u64,
    epoch_cycles: u64,
    json: Option<PathBuf>,
}

fn series_usage() -> ! {
    eprintln!(
        "usage: clme series --matrix [--tiny] [--threads N] [--seed HEX|DEC]\n\
         \x20                 [--epoch CYCLES] [--json PATH]\n\
         \n\
         series --matrix runs every (config x benchmark) group of the grid\n\
         under the epoch sampler with ONE workload seed per group — derived\n\
         from config/bench only, without the engine — so all four engines\n\
         replay identical access streams and epoch k covers the same program\n\
         phase in each. Prints one engine-vs-engine epoch IPC table per group\n\
         with bursts (epochs deviating more than 25% from the cell's median\n\
         IPC) starred; --json writes the aligned series as a JSON artifact.\n\
         --tiny uses the 12-cell smoke grid's axes; the default is the full\n\
         72-cell grid's. Single-cell series live under clme profile --series."
    );
    std::process::exit(2)
}

fn parse_series_args(args: &[String]) -> SeriesArgs {
    let mut parsed = SeriesArgs {
        matrix: false,
        tiny: false,
        threads: std::thread::available_parallelism().map_or(4, usize::from).max(4),
        seed: DEFAULT_MATRIX_SEED,
        epoch_cycles: clme_obs::DEFAULT_EPOCH_CYCLES,
        json: None,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next().cloned().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                series_usage()
            })
        };
        match flag.as_str() {
            "--matrix" => parsed.matrix = true,
            "--tiny" => parsed.tiny = true,
            "--threads" => {
                parsed.threads = value("--threads").parse().unwrap_or_else(|_| series_usage())
            }
            "--seed" => {
                let text = value("--seed");
                parsed.seed = if let Some(hex) = text.strip_prefix("0x") {
                    u64::from_str_radix(hex, 16).unwrap_or_else(|_| series_usage())
                } else {
                    text.parse().unwrap_or_else(|_| series_usage())
                }
            }
            "--epoch" => {
                parsed.epoch_cycles = value("--epoch").parse().unwrap_or_else(|_| series_usage());
                if parsed.epoch_cycles == 0 {
                    eprintln!("--epoch needs a positive cycle count");
                    series_usage()
                }
            }
            "--json" => parsed.json = Some(PathBuf::from(value("--json"))),
            "--help" | "-h" => series_usage(),
            other => {
                eprintln!("unknown flag {other}");
                series_usage()
            }
        }
    }
    parsed
}

/// Epochs whose IPC deviates more than 25% from the cell's median — the
/// "burst" marker of the phase-aligned comparison table.
fn burst_epochs(ipcs: &[f64]) -> Vec<bool> {
    let mut sorted = ipcs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("ipc is finite"));
    let median = if sorted.is_empty() {
        0.0
    } else if sorted.len() % 2 == 1 {
        sorted[sorted.len() / 2]
    } else {
        (sorted[sorted.len() / 2 - 1] + sorted[sorted.len() / 2]) / 2.0
    };
    ipcs.iter()
        .map(|&ipc| median > 0.0 && (ipc - median).abs() > 0.25 * median)
        .collect()
}

fn run_series_matrix_command(args: &[String]) -> i32 {
    let args = parse_series_args(args);
    if !args.matrix {
        eprintln!("clme series needs --matrix (single-cell series: clme profile --series)");
        series_usage()
    }
    let (params, benches, configs): (SimParams, Vec<&str>, Vec<(&str, SystemConfig)>) =
        if args.tiny {
            (
                tiny_cell_params(),
                vec!["bfs", "canneal", "streamcluster"],
                vec![("table1", SystemConfig::isca_table1())],
            )
        } else {
            (
                clme_bench::params_from_env(),
                suites::IRREGULAR.to_vec(),
                vec![
                    ("table1", SystemConfig::isca_table1()),
                    ("low-bw", SystemConfig::low_bandwidth()),
                ],
            )
        };
    let engines = all_engines();
    let groups: Vec<(String, SystemConfig, String)> = configs
        .iter()
        .flat_map(|(name, cfg)| {
            benches
                .iter()
                .map(move |bench| (name.to_string(), cfg.clone(), bench.to_string()))
        })
        .collect();
    let jobs: Vec<(usize, usize)> = (0..groups.len())
        .flat_map(|g| (0..engines.len()).map(move |e| (g, e)))
        .collect();
    eprintln!(
        "running {} phase-aligned cells ({} groups x {} engines) on {} threads (seed {:#x})",
        jobs.len(),
        groups.len(),
        engines.len(),
        args.threads,
        args.seed
    );

    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<EpochSeries>>> = Mutex::new(vec![None; jobs.len()]);
    let threads = args.threads.max(1).min(jobs.len().max(1));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(g, e)) = jobs.get(index) else {
                    break;
                };
                let (config_name, cfg, bench) = &groups[g];
                // The phase-alignment contract: the seed ignores the
                // engine, so the four cells of a group replay identical
                // workload streams and their cycle-indexed epochs line up.
                let seed = SplitMix64::new(args.seed)
                    .derive(format!("{config_name}/{bench}").as_bytes());
                let (_, series, _) = run_benchmark_series(
                    cfg,
                    engines[e],
                    bench,
                    params,
                    seed,
                    args.epoch_cycles,
                );
                slots.lock().expect("series worker panicked")[index] = Some(series);
            });
        }
    });
    let all_series: Vec<EpochSeries> = slots
        .into_inner()
        .expect("series worker panicked")
        .into_iter()
        .map(|slot| slot.expect("every job ran"))
        .collect();

    let mut json_groups: Vec<(String, JsonValue)> = Vec::new();
    for (g, (config_name, _, bench)) in groups.iter().enumerate() {
        let group_seed =
            SplitMix64::new(args.seed).derive(format!("{config_name}/{bench}").as_bytes());
        let cells: Vec<&EpochSeries> = engines
            .iter()
            .enumerate()
            .map(|(e, _)| &all_series[g * engines.len() + e])
            .collect();
        let ipcs: Vec<Vec<f64>> = cells
            .iter()
            .map(|s| s.samples.iter().map(|sample| sample.ipc()).collect())
            .collect();
        let bursts: Vec<Vec<bool>> = ipcs.iter().map(|i| burst_epochs(i)).collect();
        let rows = ipcs.iter().map(Vec::len).max().unwrap_or(0);

        println!(
            "\n== {config_name}/{bench} — shared workload seed {group_seed:#x}, \
             epochs of {} cycles",
            args.epoch_cycles
        );
        print!("  {:>5}", "epoch");
        for engine in &engines {
            print!(" {:>14}", engine.to_string());
        }
        println!();
        for row in 0..rows {
            print!("  {row:>5}");
            for (e, ipc) in ipcs.iter().enumerate() {
                match ipc.get(row) {
                    Some(&value) => {
                        let marker = if bursts[e][row] { "*" } else { " " };
                        print!(" {value:>13.3}{marker}");
                    }
                    None => print!(" {:>14}", "-"),
                }
            }
            println!();
        }
        print!("  bursts (>25% off the cell median):");
        for (e, engine) in engines.iter().enumerate() {
            let count = bursts[e].iter().filter(|&&b| b).count();
            print!(" {engine} {count}");
            if e + 1 < engines.len() {
                print!(",");
            }
        }
        println!();

        if args.json.is_some() {
            let engine_objs = engines
                .iter()
                .enumerate()
                .map(|(e, engine)| {
                    (
                        engine.to_string(),
                        JsonValue::Obj(vec![
                            (
                                "ipc".into(),
                                JsonValue::Arr(
                                    ipcs[e].iter().map(|&v| JsonValue::Num(v)).collect(),
                                ),
                            ),
                            (
                                "burst_epochs".into(),
                                JsonValue::Arr(
                                    bursts[e]
                                        .iter()
                                        .enumerate()
                                        .filter(|(_, &b)| b)
                                        .map(|(i, _)| JsonValue::Num(i as f64))
                                        .collect(),
                                ),
                            ),
                        ]),
                    )
                })
                .collect();
            json_groups.push((
                format!("{config_name}/{bench}"),
                JsonValue::Obj(vec![
                    ("seed".into(), JsonValue::Str(format!("{group_seed:#018x}"))),
                    ("engines".into(), JsonValue::Obj(engine_objs)),
                ]),
            ));
        }
    }
    if let Some(path) = &args.json {
        let doc = JsonValue::Obj(vec![
            ("matrix_seed".into(), JsonValue::Str(format!("{:#018x}", args.seed))),
            ("epoch_cycles".into(), JsonValue::Num(args.epoch_cycles as f64)),
            ("groups".into(), JsonValue::Obj(json_groups)),
        ]);
        let mut text = doc.to_pretty();
        text.push('\n');
        if let Err(err) = std::fs::write(path, text) {
            eprintln!("cannot write {}: {err}", path.display());
            return 1;
        }
        eprintln!("wrote aligned series to {}", path.display());
    }
    0
}

// =====================================================================
// postmortem — render and replay .clmedump bundles
// =====================================================================

struct PostmortemArgs {
    file: PathBuf,
    replay: bool,
    tail: usize,
}

fn postmortem_usage() -> ! {
    eprintln!(
        "usage: clme postmortem FILE.clmedump [--replay] [--tail N]\n\
         \n\
         Renders a post-mortem bundle written by an armed clme-mem run\n\
         (clme mem --tamper REGION, --dump-on-exit, or any embedder that\n\
         armed the layer): the capture window, the triggering\n\
         IntegrityError, a blame summary over the flight-recorder events,\n\
         a suspect-page ranking, and the event timeline.\n\
         \n\
         --replay    rebuild the layer from the bundle's recorded config\n\
         \x20        and seed, re-run the captured op window, re-apply the\n\
         \x20        recorded byte flip, and verify the same error class\n\
         \x20        reproduces (nonzero exit when it does not)\n\
         --tail      timeline rows to print (default 24, 0 = all)\n\
         \n\
         example: clme mem --tamper mac --dump mac.clmedump\n\
         \x20        clme postmortem mac.clmedump --replay"
    );
    std::process::exit(2)
}

fn parse_postmortem_args(args: &[String]) -> PostmortemArgs {
    let mut file = None;
    let mut replay = false;
    let mut tail = 24usize;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--replay" => replay = true,
            "--tail" => {
                tail = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| postmortem_usage())
            }
            "--help" | "-h" => postmortem_usage(),
            other if !other.starts_with('-') && file.is_none() => {
                file = Some(PathBuf::from(other))
            }
            other => {
                eprintln!("unknown flag {other}");
                postmortem_usage()
            }
        }
    }
    PostmortemArgs {
        file: file.unwrap_or_else(|| postmortem_usage()),
        replay,
        tail,
    }
}

fn run_postmortem_command(args: &[String]) -> i32 {
    let args = parse_postmortem_args(args);
    let text = match std::fs::read_to_string(&args.file) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("cannot read {}: {err}", args.file.display());
            return 1;
        }
    };
    let bundle = match DumpBundle::parse(&text) {
        Ok(bundle) => bundle,
        Err(err) => {
            eprintln!("{} is not a dump bundle: {err}", args.file.display());
            return 1;
        }
    };
    postmortem_render(&args.file, &bundle, args.tail);
    if args.replay {
        postmortem_replay(&bundle)
    } else {
        0
    }
}

/// Timeline, blame summary, and suspect-page ranking for one bundle.
fn postmortem_render(path: &Path, bundle: &DumpBundle, tail: usize) {
    println!("post-mortem bundle {}", path.display());
    println!("  trigger   {}", bundle.trigger);
    println!(
        "  layer     {} backend, {} blocks over {} pages, {}-level tree, {} shards",
        bundle.backend, bundle.blocks, bundle.pages, bundle.levels, bundle.shards
    );
    println!("  seed      {:#018x}", bundle.seed);
    println!(
        "  window    {} batches ({} reads + {} writes, {} blocks written, {} blocks read, {} page rolls)",
        bundle.op_index,
        bundle.counts.batch_reads,
        bundle.counts.batch_writes,
        bundle.counts.blocks_written,
        bundle.counts.blocks_read,
        bundle.counts.page_rolls,
    );
    match &bundle.error {
        Some(err) => println!("  error     {err} [class {}]", err.class.name()),
        None => println!("  error     none (clean-exit capture)"),
    }

    // Blame summary: how the retained window distributes across kinds.
    let mut by_kind: Vec<(&str, usize)> = Vec::new();
    for event in &bundle.events {
        let name = clme_mem::FlightKind::from_code(event.kind)
            .map(clme_mem::FlightKind::name)
            .unwrap_or("unknown");
        match by_kind.iter_mut().find(|(n, _)| *n == name) {
            Some((_, count)) => *count += 1,
            None => by_kind.push((name, 1)),
        }
    }
    by_kind.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    println!(
        "\nblame summary ({} events retained, {} recorded, {} dropped):",
        bundle.events.len(),
        bundle.events_recorded,
        bundle.events_dropped
    );
    for (name, count) in &by_kind {
        println!("  {name:<16} {count:>7}");
    }

    // Suspect pages: weight the kinds that localise a fault. The error
    // address itself (when in the data region) counts heaviest.
    let mut scores: std::collections::BTreeMap<u64, (u64, u64, u64, u64)> =
        std::collections::BTreeMap::new();
    for event in &bundle.events {
        let Some(kind) = clme_mem::FlightKind::from_code(event.kind) else {
            continue;
        };
        use clme_mem::FlightKind as K;
        let page = match kind {
            K::IntegrityFail if event.a < bundle.blocks => {
                event.a / clme_mem::PAGE_BLOCKS as u64
            }
            K::WritePage | K::PageRoll | K::WriteBurst => event.a,
            _ => continue,
        };
        let slot = scores.entry(page).or_default();
        match kind {
            K::IntegrityFail => slot.0 += 1,
            K::WriteBurst => slot.1 += 1,
            K::PageRoll => slot.2 += 1,
            _ => slot.3 += 1,
        }
    }
    let mut ranked: Vec<(u64, (u64, u64, u64, u64))> = scores.into_iter().collect();
    ranked.sort_by_key(|(page, (fails, bursts, rolls, writes))| {
        (std::cmp::Reverse(fails * 1000 + bursts * 50 + rolls * 10 + writes), *page)
    });
    let ranges = bundle.workload.get("tenants").and_then(TenantRanges::from_json);
    println!("\nsuspect pages (integrity failures, then write pressure):");
    for (page, (fails, bursts, rolls, writes)) in ranked.iter().take(8) {
        let owner = ranges
            .and_then(|r| r.tenant_of_page(*page))
            .map(|t| format!("  tenant-{t}"))
            .unwrap_or_default();
        println!(
            "  page {page:<8} fails {fails:<4} bursts {bursts:<4} rolls {rolls:<4} writes {writes}{owner}"
        );
    }
    if ranked.is_empty() {
        println!("  (no page-attributable events in the window)");
    }

    // Suspect tenants: fold the page scores through the recorded
    // ranges and add the tenant-batch traffic the recorder retained, so
    // a multi-tenant post-mortem names who was hammering the layer.
    let mut tenant_rows: std::collections::BTreeMap<u64, (u64, u64, u64, u64)> =
        std::collections::BTreeMap::new();
    if let Some(ranges) = ranges {
        for (page, (fails, bursts, rolls, writes)) in &ranked {
            if let Some(t) = ranges.tenant_of_page(*page) {
                let slot = tenant_rows.entry(t).or_default();
                slot.0 += fails * 1000 + bursts * 50 + rolls * 10 + writes;
            }
        }
    }
    for event in &bundle.events {
        if clme_mem::FlightKind::from_code(event.kind)
            == Some(clme_mem::FlightKind::TenantBatch)
        {
            let slot = tenant_rows.entry(event.a).or_default();
            slot.1 += 1;
            slot.2 += event.b >> 1;
            slot.3 += (event.b & 1) * (event.b >> 1);
        }
    }
    if !tenant_rows.is_empty() {
        let mut suspects: Vec<(u64, (u64, u64, u64, u64))> = tenant_rows.into_iter().collect();
        suspects.sort_by_key(|(t, (score, _, blocks, _))| {
            (std::cmp::Reverse(*score), std::cmp::Reverse(*blocks), *t)
        });
        println!("\nsuspect tenants (page faults mapped through the recorded ranges):");
        for (t, (score, batches, blocks, write_blocks)) in suspects.iter().take(4) {
            println!(
                "  tenant-{t:<7} fault_score {score:<6} batches {batches:<5} \
                 blocks {blocks:<7} written {write_blocks}"
            );
        }
    }

    // Timeline tail: the newest events, oldest of the tail first.
    let total = bundle.events.len();
    let shown = if tail == 0 { total } else { tail.min(total) };
    println!("\ntimeline (last {shown} of {total} retained events):");
    println!("  {:>10}  {:<16} {:>12} {:>12}", "seq", "event", "a", "b");
    for event in &bundle.events[total - shown..] {
        let name = clme_mem::FlightKind::from_code(event.kind)
            .map(clme_mem::FlightKind::name)
            .unwrap_or("unknown");
        println!(
            "  {:>10}  {:<16} {:>12} {:>12}",
            event.seq, name, event.a, event.b
        );
    }
}

/// `--replay`: rebuild the layer from the bundle's recorded geometry
/// and seed, re-run the captured tamper workload, and check the same
/// [`clme_mem::TamperClass`] comes back.
fn postmortem_replay(bundle: &DumpBundle) -> i32 {
    let mode = bundle.workload.get("mode").and_then(JsonValue::as_str);
    if mode != Some("tamper") {
        eprintln!(
            "--replay needs a tamper bundle (workload.mode = \"tamper\", found {})",
            mode.unwrap_or("nothing")
        );
        return 1;
    }
    let key = |name: &str| {
        bundle
            .workload
            .get(name)
            .and_then(JsonValue::as_f64)
            .map(|f| f as u64)
    };
    let (Some(ops), Some(word_index), Some(byte), Some(mask), Some(probe)) = (
        key("ops"),
        key("word_index"),
        key("byte"),
        key("mask"),
        key("probe_addr"),
    ) else {
        eprintln!("tamper bundle is missing replay keys (ops/word_index/byte/mask/probe_addr)");
        return 1;
    };
    let Some(expected) = bundle.error else {
        eprintln!("bundle records no IntegrityError to reproduce");
        return 1;
    };
    match bundle.backend.as_str() {
        "file" => {
            let path = std::env::temp_dir()
                .join(format!("clme-replay-{}.store", std::process::id()));
            let backend = match FileBackend::create_for_blocks(&path, bundle.blocks) {
                Ok(backend) => backend,
                Err(err) => {
                    eprintln!("cannot create replay store at {}: {err}", path.display());
                    return 1;
                }
            };
            let code = postmortem_replay_on(
                bundle, backend, ops, word_index, byte, mask, probe, expected,
            );
            let _ = std::fs::remove_file(&path);
            code
        }
        _ => postmortem_replay_on(
            bundle,
            VecBackend::for_blocks(bundle.blocks),
            ops,
            word_index,
            byte,
            mask,
            probe,
            expected,
        ),
    }
}

#[allow(clippy::too_many_arguments)]
fn postmortem_replay_on<B: StoreBackend>(
    bundle: &DumpBundle,
    backend: B,
    ops: u64,
    word_index: u64,
    byte: u64,
    mask: u64,
    probe: u64,
    expected: clme_mem::IntegrityError,
) -> i32 {
    let master = mem_master_key(bundle.seed, b"mem/master");
    let options = LayerOptions {
        counter_saturation: bundle.saturation,
        shards: bundle.shards.max(1) as usize,
        ..LayerOptions::default()
    };
    let layer = match EncryptionLayer::with_options(backend, bundle.blocks, master, options) {
        Ok(layer) => layer,
        Err(err) => {
            eprintln!("cannot rebuild the captured layer: {err}");
            return 1;
        }
    };
    if let Err(err) = mem_tamper_populate(&layer, bundle.seed, ops as usize) {
        eprintln!("replay {err}");
        return 1;
    }
    match mem_flip_and_probe(&layer, word_index, byte as usize, mask as u8, probe) {
        Ok(err) if err.class == expected.class => {
            println!(
                "replay: reproduced class {} at address {:#x} — matches the capture",
                err.class.name(),
                err.addr
            );
            0
        }
        Ok(err) => {
            eprintln!(
                "replay: got class {} but the capture recorded {}",
                err.class.name(),
                expected.class.name()
            );
            1
        }
        Err(msg) => {
            eprintln!("replay: {msg}");
            1
        }
    }
}

fn main() {
    let all: Vec<String> = std::env::args().skip(1).collect();
    match all.first().map(String::as_str) {
        Some("matrix") => std::process::exit(run_matrix_command(&all[1..])),
        Some("diff") => std::process::exit(run_diff_command(&all[1..])),
        Some("profile") => std::process::exit(run_profile_command(&all[1..])),
        Some("perf") => std::process::exit(run_perf_command(&all[1..])),
        Some("trace") => std::process::exit(run_trace_command(&all[1..])),
        Some("critpath") => std::process::exit(run_critpath_command(&all[1..])),
        Some("series") => std::process::exit(run_series_matrix_command(&all[1..])),
        Some("mem") => std::process::exit(run_mem_command(&all[1..])),
        Some("postmortem") => std::process::exit(run_postmortem_command(&all[1..])),
        _ => {}
    }
    let args = parse_args();
    let mut cfg = if args.low_bandwidth {
        SystemConfig::low_bandwidth()
    } else {
        SystemConfig::isca_table1()
    };
    if args.aes256 {
        cfg = cfg.with_aes(AesStrength::Aes256);
    }
    if let Some(threshold) = args.threshold {
        cfg = cfg.with_threshold(threshold);
    }

    let result = run_benchmark(&cfg, args.engine, &args.bench, args.params);
    println!("{result}");
    if args.baseline && args.engine != EngineKind::None {
        let base = run_benchmark(&cfg, EngineKind::None, &args.bench, args.params);
        println!(
            "\nnormalised to no encryption: {:.4}  (miss-latency overhead {:+.2} ns, energy ratio {:.3})",
            result.performance_vs(&base),
            result.miss_latency_overhead_vs(&base),
            result.energy_vs(&base)
        );
    }
}
