//! `clme matrix` and `clme diff`: the (workload x engine x config) grid,
//! run in parallel, written as snapshots or diffed against goldens.

use crate::args::{
    config_by_name, default_threads, tiny_cell_params, unknown_flag, Cursor, CONFIG_NAMES,
    DEFAULT_MATRIX_SEED,
};
use crate::mem::stats::read_json;
use crate::write_artifact;
use clme_sim::matrix::{all_engines, RunMatrix};
use clme_sim::{compare, SimParams, StatsSnapshot, Tolerance};
use clme_types::json::JsonValue;
use clme_workloads::suites;
use std::path::{Path, PathBuf};

pub const USAGE: &str = "\
usage: clme matrix [--tiny] [--threads N] [--seed HEX|DEC] [--out DIR|--golden DIR]
                   [--filter GLOB]
       clme diff   [--tiny] [--threads N] [--seed HEX|DEC] --golden DIR [--tol FRACTION]
                   [--filter GLOB]
       clme diff   --mem-stats A.json B.json

matrix runs the (workload x engine x config) grid in parallel and
prints one summary row per cell; --out also writes one stats-snapshot
JSON per cell (--golden is an alias for --out: regenerating a golden
directory is the same write). diff re-runs the same grid and compares
each cell against DIR/<config>__<engine>__<bench>.json with a
tolerance band (default 2% relative). --tiny selects the 12-cell
smoke grid the checked-in goldens cover; the default grid is the
paper's 72 cells (goldens/full). --filter keeps only cells whose
config/engine/benchmark label matches GLOB (* and ? wildcards); cell
results never change under filtering because workload seeds are
label-keyed. diff --mem-stats instead compares two clme mem
--stats-json artifacts for read-result parity (caller-visible
traffic counters must match exactly; cache internals may differ) —
the CI check that cache-on and cache-off runs read the same bytes.";

pub struct MatrixArgs {
    pub tiny: bool,
    pub threads: usize,
    pub seed: u64,
    pub out: Option<PathBuf>,
    pub golden: Option<PathBuf>,
    pub tolerance: f64,
    pub filter: Option<String>,
}

/// What `clme diff` compares: two `clme mem --stats-json` artifacts, or
/// a re-run grid against a golden directory.
pub enum DiffArgs {
    MemStats(String, String),
    Golden(MatrixArgs, PathBuf),
}

pub fn parse(args: &[String]) -> Result<MatrixArgs, String> {
    let mut parsed = MatrixArgs {
        tiny: false,
        threads: default_threads(),
        seed: DEFAULT_MATRIX_SEED,
        out: None,
        golden: None,
        tolerance: 0.02,
        filter: None,
    };
    let mut cur = Cursor::new(args);
    while let Some(flag) = cur.next_flag() {
        match flag {
            "--tiny" => parsed.tiny = true,
            "--threads" => parsed.threads = cur.num(flag)?,
            "--seed" => parsed.seed = cur.seed(flag)?,
            "--out" => parsed.out = Some(cur.path(flag)?),
            "--golden" => parsed.golden = Some(cur.path(flag)?),
            "--tol" => parsed.tolerance = cur.num(flag)?,
            "--filter" => parsed.filter = Some(cur.value(flag)?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(unknown_flag(other)),
        }
    }
    Ok(parsed)
}

pub fn parse_diff(args: &[String]) -> Result<DiffArgs, String> {
    if args.first().map(String::as_str) == Some("--mem-stats") {
        let [a, b] = &args[1..] else {
            return Err("diff --mem-stats needs exactly two artifact paths".to_string());
        };
        return Ok(DiffArgs::MemStats(a.clone(), b.clone()));
    }
    let mut parsed = parse(args)?;
    let golden = parsed.golden.take().ok_or("diff needs --golden DIR")?;
    Ok(DiffArgs::Golden(parsed, golden))
}

/// The axes `--tiny` selects: the 12-cell smoke grid (3 benchmarks x
/// table1 at the tiny windows) or the full evaluation grid (9 irregular
/// benchmarks x {table1, low-bw} at the environment's windows). `clme
/// series --matrix` replays the same axes.
pub fn grid_axes(tiny: bool) -> (SimParams, Vec<&'static str>, &'static [&'static str]) {
    if tiny {
        (
            tiny_cell_params(),
            vec!["bfs", "canneal", "streamcluster"],
            &CONFIG_NAMES[..1],
        )
    } else {
        (
            clme_bench::params_from_env(),
            suites::IRREGULAR.to_vec(),
            &CONFIG_NAMES,
        )
    }
}

/// Builds the grid the flags select, under all four engines.
fn build_matrix(args: &MatrixArgs) -> RunMatrix {
    let (params, benches, configs) = grid_axes(args.tiny);
    let matrix = RunMatrix::new(params, args.seed)
        .benches(benches)
        .engines(all_engines())
        .configs(
            configs
                .iter()
                .map(|&name| (name, config_by_name(name).expect("known config"))),
        );
    match &args.filter {
        Some(pattern) => matrix.filter(pattern.clone()),
        None => matrix,
    }
}

fn print_cell_summary(snap: &StatsSnapshot) {
    println!(
        "{:<44} ipc {:>6.3}  stall {:>6.2} ns  cxl-wb {:>5.1}%  util {:>5.1}%",
        snap.label(),
        snap.metric("ipc").unwrap_or(0.0),
        snap.metric("engine.mean_stall_after_data_ns")
            .unwrap_or(0.0),
        snap.metric("engine.counterless_writeback_fraction")
            .unwrap_or(0.0)
            * 100.0,
        snap.metric("dram.bandwidth_utilization").unwrap_or(0.0) * 100.0,
    );
}

pub fn run(mut args: MatrixArgs) -> i32 {
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
            if !write_artifact(&path, &snap.to_json()) {
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
fn run_mem_stats_diff(a: &str, b: &str) -> i32 {
    let (doc_a, doc_b) = match (read_json(Path::new(a)), read_json(Path::new(b))) {
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
                let show =
                    |v: Option<f64>| v.map_or_else(|| "missing".to_string(), |v| format!("{v}"));
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

pub fn run_diff(args: DiffArgs) -> i32 {
    let (args, golden_dir) = match args {
        DiffArgs::MemStats(a, b) => return run_mem_stats_diff(&a, &b),
        DiffArgs::Golden(args, golden_dir) => (args, golden_dir),
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
        match load_golden(&golden_dir, &fresh.file_stem()) {
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
