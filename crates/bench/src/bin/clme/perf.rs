//! `clme perf`: the machine-normalised simulator throughput gate.

use crate::args::{
    default_threads, tiny_cell_params, unknown_flag, CellSpec, Cursor, CONFIG_NAMES,
    DEFAULT_MATRIX_SEED,
};
use crate::profile::{ns, record_cell};
use crate::write_artifact;
use clme_core::engine::EngineKind;
use clme_obs::Stage;
use clme_sim::PhaseTimes;
use clme_types::json::JsonValue;
use std::path::PathBuf;

pub const USAGE: &str = "\
usage: clme perf [--threads N] [--seed HEX|DEC] [--out PATH]
                [--baseline PATH] [--gate FRACTION]
                [--write-baseline] [--no-gate]

perf measures simulator throughput on a fixed calibrated cell set
(8 tiny cells: 4 engines x {bfs, canneal} on table1), normalises
cells/sec by a built-in spin-calibration loop so the score is
machine-invariant, and writes BENCH_perf.json (default --out) with
the measurement appended to the artifact's run history. When the
baseline file (default goldens/perf_baseline.json) exists, the run
fails if the normalised score regressed more than --gate (default
15%). --write-baseline regenerates the baseline from this run;
--no-gate measures and records without failing.";

pub struct PerfArgs {
    pub threads: usize,
    pub seed: u64,
    pub out: PathBuf,
    pub baseline: PathBuf,
    pub gate: f64,
    pub write_baseline: bool,
    pub no_gate: bool,
}

pub fn parse(args: &[String]) -> Result<PerfArgs, String> {
    let mut parsed = PerfArgs {
        threads: default_threads(),
        seed: DEFAULT_MATRIX_SEED,
        out: PathBuf::from("BENCH_perf.json"),
        baseline: PathBuf::from("goldens/perf_baseline.json"),
        gate: clme_bench::perf::DEFAULT_GATE,
        write_baseline: false,
        no_gate: false,
    };
    let mut cur = Cursor::new(args);
    while let Some(flag) = cur.next_flag() {
        match flag {
            "--threads" => parsed.threads = cur.num(flag)?,
            "--seed" => parsed.seed = cur.seed(flag)?,
            "--out" => parsed.out = cur.path(flag)?,
            "--baseline" => parsed.baseline = cur.path(flag)?,
            "--gate" => parsed.gate = cur.num(flag)?,
            "--write-baseline" => parsed.write_baseline = true,
            "--no-gate" => parsed.no_gate = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(unknown_flag(other)),
        }
    }
    Ok(parsed)
}

/// Per-stage ns/op of one profiled calibrated cell: how much host time
/// the simulator spends per simulated stage event (plus the simulated
/// mean for context), beside the host time of the phases before the
/// measured window. Rendered into `BENCH_perf.json`.
///
/// The recorder's stage histograms cover only the measured window, so
/// only that window's wall time is apportioned, by each stage's share of
/// simulated work (samples × simulated mean): a stage that simulated
/// twice the picoseconds is charged twice the host nanoseconds.
fn perf_stage_json(times: &PhaseTimes, rec: &clme_obs::Recorder) -> Vec<(String, JsonValue)> {
    let wall_ns = times.measured_s * 1e9;
    let total_work: f64 = Stage::ALL
        .iter()
        .map(|&stage| {
            let hist = rec.stage(stage);
            hist.count() as f64 * hist.mean_ps()
        })
        .sum();
    let stages = Stage::ALL
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
        .collect();
    vec![
        (
            "functional_warmup_s".into(),
            JsonValue::Num(times.functional_warmup_s),
        ),
        (
            "warmup_window_s".into(),
            JsonValue::Num(times.warmup_window_s),
        ),
        ("measured_window_s".into(), JsonValue::Num(times.measured_s)),
        ("stages".into(), JsonValue::Obj(stages)),
    ]
}

pub fn run(args: PerfArgs) -> i32 {
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
        "perf: {:.3} cells/sec over {} passes of {} cells ({:.2} s wall)",
        measurement.cells_per_sec,
        clme_bench::perf::PASSES,
        measurement.cells,
        measurement.wall_seconds
    );
    println!(
        "calibration: {:.3} ns/iter -> normalized score {:.4}",
        measurement.spin_ns_per_iter, measurement.normalized_score
    );

    // One profiled cell for the per-stage ns/op breakdown.
    let spec = CellSpec::new(CONFIG_NAMES[0], EngineKind::CounterLight, "bfs");
    let (_, times, _, recorder) = record_cell(
        &spec,
        tiny_cell_params(),
        args.seed,
        clme_obs::DEFAULT_RING_CAPACITY,
    );
    let profiled = perf_stage_json(&times, &recorder);

    let history = std::fs::read_to_string(&args.out)
        .map(|text| clme_bench::perf::extract_history(&text))
        .unwrap_or_default();
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0);
    let artifact = clme_bench::perf::perf_json(&measurement, profiled, history, unix_time);
    if !write_artifact(&args.out, &artifact) {
        return 1;
    }
    eprintln!("wrote perf artifact to {}", args.out.display());

    if args.write_baseline {
        if let Some(parent) = args.baseline.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        let text = clme_bench::perf::baseline_json(&measurement);
        if !write_artifact(&args.baseline, &text) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use clme_obs::TraceSink;
    use clme_types::TimeDelta;

    /// The stage host times add up to the measured window alone: the
    /// build and warm-up phases are reported beside them, not charged
    /// to them.
    #[test]
    fn stages_apportion_only_the_measured_window() {
        let mut rec = clme_obs::Recorder::new();
        rec.latency(Stage::Dram, TimeDelta::from_ns(30));
        rec.latency(Stage::Dram, TimeDelta::from_ns(50));
        rec.latency(Stage::Cache, TimeDelta::from_ns(10));
        let times = PhaseTimes {
            build_s: 1.0,
            functional_warmup_s: 6.0,
            warmup_window_s: 2.0,
            measured_s: 0.5,
        };
        let doc = JsonValue::Obj(perf_stage_json(&times, &rec));
        let num = |v: Option<&JsonValue>| v.and_then(JsonValue::as_f64).unwrap();
        assert_eq!(num(doc.get("functional_warmup_s")), 6.0);
        assert_eq!(num(doc.get("warmup_window_s")), 2.0);
        let stages = doc.get("stages").unwrap();
        let charged: f64 = Stage::ALL
            .iter()
            .map(|s| {
                let stage = stages.get(s.name()).unwrap();
                num(stage.get("samples")) * num(stage.get("host_ns_per_op"))
            })
            .sum();
        assert!((charged - 0.5e9).abs() < 1.0, "charged {charged} ns");
    }
}
