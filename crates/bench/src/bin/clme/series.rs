//! `clme series --matrix`: phase-aligned epoch series across engines.

use crate::args::{config_by_name, default_threads, unknown_flag, Cursor, DEFAULT_MATRIX_SEED};
use crate::matrix::grid_axes;
use crate::write_artifact;
use clme_obs::EpochSeries;
use clme_sim::matrix::all_engines;
use clme_sim::run_benchmark_series;
use clme_types::json::JsonValue;
use clme_types::rng::SplitMix64;
use clme_types::SystemConfig;
use std::path::PathBuf;

pub const USAGE: &str = "\
usage: clme series --matrix [--tiny] [--threads N] [--seed HEX|DEC]
                  [--epoch CYCLES] [--json PATH]

series --matrix runs every (config x benchmark) group of the grid
under the epoch sampler with ONE workload seed per group — derived
from config/bench only, without the engine — so all four engines
replay identical access streams and epoch k covers the same program
phase in each. Prints one engine-vs-engine epoch IPC table per group
with bursts (epochs deviating more than 25% from the cell's median
IPC) starred; --json writes the aligned series as a JSON artifact.
--tiny uses the 12-cell smoke grid's axes; the default is the full
72-cell grid's. Single-cell series live under clme profile --series.";

pub struct SeriesArgs {
    pub tiny: bool,
    pub threads: usize,
    pub seed: u64,
    pub epoch_cycles: u64,
    pub json: Option<PathBuf>,
}

pub fn parse(args: &[String]) -> Result<SeriesArgs, String> {
    let mut matrix = false;
    let mut parsed = SeriesArgs {
        tiny: false,
        threads: default_threads(),
        seed: DEFAULT_MATRIX_SEED,
        epoch_cycles: clme_obs::DEFAULT_EPOCH_CYCLES,
        json: None,
    };
    let mut cur = Cursor::new(args);
    while let Some(flag) = cur.next_flag() {
        match flag {
            "--matrix" => matrix = true,
            "--tiny" => parsed.tiny = true,
            "--threads" => parsed.threads = cur.num(flag)?,
            "--seed" => parsed.seed = cur.seed(flag)?,
            "--epoch" => parsed.epoch_cycles = cur.positive(flag, "cycle count")?,
            "--json" => parsed.json = Some(cur.path(flag)?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(unknown_flag(other)),
        }
    }
    if !matrix {
        return Err(
            "clme series needs --matrix (single-cell series: clme profile --series)".to_string(),
        );
    }
    Ok(parsed)
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

pub fn run(args: SeriesArgs) -> i32 {
    let (params, benches, configs) = grid_axes(args.tiny);
    let engines = all_engines();
    let groups: Vec<(String, SystemConfig, String)> = configs
        .iter()
        .flat_map(|&name| {
            let cfg = config_by_name(name).expect("known config");
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
                let seed =
                    SplitMix64::new(args.seed).derive(format!("{config_name}/{bench}").as_bytes());
                let (_, series, _) =
                    run_benchmark_series(cfg, engines[e], bench, params, seed, args.epoch_cycles);
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
            (
                "matrix_seed".into(),
                JsonValue::Str(format!("{:#018x}", args.seed)),
            ),
            (
                "epoch_cycles".into(),
                JsonValue::Num(args.epoch_cycles as f64),
            ),
            ("groups".into(), JsonValue::Obj(json_groups)),
        ]);
        let mut text = doc.to_pretty();
        text.push('\n');
        if !write_artifact(path, &text) {
            return 1;
        }
        eprintln!("wrote aligned series to {}", path.display());
    }
    0
}
