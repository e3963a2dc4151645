//! `clme profile` and `clme trace`: one cell with the observability
//! recorder installed — per-stage latency, event counters, epoch series,
//! two-cell deltas, or a Chrome trace of the retained events.

use crate::args::{
    bad_cell_label, tiny_cell_params, unknown_flag, CellSpec, Cursor, CONFIG_NAMES,
    DEFAULT_MATRIX_SEED,
};
use clme_core::engine::EngineKind;
use clme_obs::{Blame, EventKind, Log2Histogram, Stage};
use clme_sim::{run_benchmark_recorded, run_benchmark_series, SimParams};
use clme_types::json::JsonValue;
use std::path::PathBuf;

pub const USAGE: &str = "\
usage: clme profile [--engine E] [--bench NAME] [--bandwidth high|low]
                    [--seed HEX|DEC] [--measure N] [--warmup N]
                    [--functional-warmup N] [--json PATH]
                    [--series] [--epoch CYCLES]
       clme profile --diff CELL_A CELL_B [same flags]
       clme trace   [same flags] [--out PATH] [--ring N]

profile runs one cell with the observability recorder installed and
prints a per-stage latency breakdown (engine / counter-fetch / dram /
cache / rob-stall), the event counters, and cells/sec throughput;
--json also writes those numbers as a JSON artifact.
--series replays the cell under the epoch sampler instead and prints
the per-epoch time-series (one row per --epoch CYCLES of simulated
time; --json writes the full series). --diff replays two cells named
by label (config/engine/bench, e.g. table1/counter-mode/bfs) and
prints a per-stage and per-event delta table. trace runs the
same cell and writes the retained events as Chrome trace_event JSON
(open in Perfetto or about:tracing). The default cell is
table1/counter-light/bfs with the --tiny matrix windows, and the
workload seed is label-derived exactly like a matrix cell's.";

pub struct ProfileArgs {
    pub cell: CellSpec,
    pub seed: u64,
    pub params: SimParams,
    pub ring: usize,
    pub json: Option<PathBuf>,
    pub out: PathBuf,
    pub series: bool,
    pub epoch_cycles: u64,
    pub diff: Option<(CellSpec, CellSpec)>,
}

pub fn parse(args: &[String]) -> Result<ProfileArgs, String> {
    let mut engine = EngineKind::CounterLight;
    let mut bench = "bfs".to_string();
    let mut config = CONFIG_NAMES[0];
    let mut diff = None;
    let mut parsed = ProfileArgs {
        cell: CellSpec::new(config, engine, &bench),
        seed: DEFAULT_MATRIX_SEED,
        params: tiny_cell_params(),
        ring: clme_obs::DEFAULT_RING_CAPACITY,
        json: None,
        out: PathBuf::from("trace.json"),
        series: false,
        epoch_cycles: clme_obs::DEFAULT_EPOCH_CYCLES,
        diff: None,
    };
    let mut cur = Cursor::new(args);
    while let Some(flag) = cur.next_flag() {
        match flag {
            "--engine" => engine = cur.engine()?,
            "--bench" => bench = cur.value(flag)?,
            "--bandwidth" => config = cur.bandwidth()?,
            "--seed" => parsed.seed = cur.seed(flag)?,
            "--measure" | "--warmup" | "--functional-warmup" => {
                cur.window(flag, &mut parsed.params)?
            }
            "--ring" => parsed.ring = cur.num(flag)?,
            "--json" => parsed.json = Some(cur.path(flag)?),
            "--out" => parsed.out = cur.path(flag)?,
            "--series" => parsed.series = true,
            "--epoch" => parsed.epoch_cycles = cur.positive(flag, "cycle count")?,
            "--diff" => diff = Some((cur.value("--diff CELL_A")?, cur.value("--diff CELL_B")?)),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(unknown_flag(other)),
        }
    }
    parsed.cell = CellSpec::new(config, engine, &bench);
    if let Some((a, b)) = diff {
        let cell = |label: &str| CellSpec::parse(label).ok_or_else(|| bad_cell_label(label));
        parsed.diff = Some((cell(&a)?, cell(&b)?));
    }
    Ok(parsed)
}

/// Runs one cell with a recorder installed. Returns the label, the
/// wall-clock seconds the cell took, and the run's outputs.
pub fn record_cell(
    spec: &CellSpec,
    params: SimParams,
    master_seed: u64,
    ring: usize,
) -> (String, f64, clme_sim::SimResult, clme_obs::Recorder) {
    let label = spec.label();
    let seed = spec.workload_seed(master_seed);
    eprintln!("profiling {label} (workload seed {seed:#x})");
    let started = std::time::Instant::now();
    let (result, recorder) =
        run_benchmark_recorded(&spec.cfg, spec.engine, &spec.bench, params, seed, ring);
    let wall = started.elapsed().as_secs_f64();
    (label, wall, result, recorder)
}

pub fn ns(ps: f64) -> f64 {
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

fn profile_json(
    label: &str,
    wall: f64,
    result: &clme_sim::SimResult,
    rec: &clme_obs::Recorder,
) -> String {
    let stages = Stage::ALL
        .iter()
        .map(|&stage| {
            let hist = rec.stage(stage);
            (
                stage.name().to_string(),
                JsonValue::Obj(vec![
                    ("samples".into(), JsonValue::Num(hist.count() as f64)),
                    ("mean_ns".into(), JsonValue::Num(ns(hist.mean_ps()))),
                    (
                        "p50_ns".into(),
                        JsonValue::Num(ns(hist.percentile_ps(0.50) as f64)),
                    ),
                    (
                        "p95_ns".into(),
                        JsonValue::Num(ns(hist.percentile_ps(0.95) as f64)),
                    ),
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
        (
            "instructions".into(),
            JsonValue::Num(result.instructions as f64),
        ),
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
    let spec = &args.cell;
    let label = spec.label();
    let seed = spec.workload_seed(args.seed);
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
fn run_diff_profile(args: &ProfileArgs, spec_a: &CellSpec, spec_b: &CellSpec) -> i32 {
    let (label_a, _, result_a, rec_a) = record_cell(spec_a, args.params, args.seed, args.ring);
    let (label_b, _, result_b, rec_b) = record_cell(spec_b, args.params, args.seed, args.ring);

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
    println!("  {:<24} {:>12} {:>12} {:>13}", "event", "A", "B", "Δ");
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

pub fn run(args: ProfileArgs) -> i32 {
    if let Some((a, b)) = &args.diff {
        return run_diff_profile(&args, a, b);
    }
    if args.series {
        return run_series_profile(&args);
    }
    let (label, wall, result, recorder) =
        record_cell(&args.cell, args.params, args.seed, args.ring);
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

pub fn run_trace(args: ProfileArgs) -> i32 {
    let (label, wall, _result, recorder) =
        record_cell(&args.cell, args.params, args.seed, args.ring);
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
