//! Machine-speed-normalised simulator-throughput measurement — the
//! engine behind `clme perf`.
//!
//! Wall-clock cells/sec depends on the host, so a checked-in baseline
//! would be meaningless across machines. The fix is a built-in spin
//! calibration loop ([`spin_ns_per_iter`]): a fixed SplitMix64 integer
//! loop whose ns/iteration scales with the host exactly like the
//! simulator's own integer-heavy inner loops do. The gated metric is
//!
//! ```text
//! normalized_score = cells_per_sec × spin_ns_per_iter
//! ```
//!
//! — cells simulated per *spin-loop-iteration-equivalent* of CPU work,
//! which is (to first order) machine-invariant: a 2× faster host doubles
//! `cells_per_sec` and halves `spin_ns_per_iter`. A genuine simulator
//! slowdown moves only the first factor and trips the gate.
//!
//! The calibrated cell set is fixed (engines × {bfs, canneal} on the
//! table1 config with the tiny-cell windows) and never follows
//! `CLME_FULL`, so every `BENCH_perf.json` history entry measures the
//! same work.

use clme_sim::matrix::{all_engines, RunMatrix};
use clme_sim::SimParams;
use clme_types::json::{self, JsonValue};
use clme_types::rng::SplitMix64;
use clme_types::SystemConfig;

/// Schema stamped into `BENCH_perf.json` and the perf baseline.
pub const PERF_SCHEMA: u64 = 1;

/// Default regression gate: fail when the normalized score drops more
/// than this fraction below the baseline.
pub const DEFAULT_GATE: f64 = 0.15;

/// Iterations of one spin-calibration rep (~10 ms on current hosts).
pub const SPIN_ITERS: u64 = 1 << 22;

const SPIN_REPS: usize = 3;

/// History entries retained in `BENCH_perf.json` (oldest dropped first).
pub const HISTORY_CAP: usize = 200;

/// Measures the host's speed on a fixed integer spin loop; returns the
/// best (minimum) ns/iteration over a few reps, minimising scheduler
/// noise the same way criterion's minimum-of-samples estimator does.
pub fn spin_ns_per_iter() -> f64 {
    let mut best = f64::INFINITY;
    for rep in 0..SPIN_REPS {
        let mut rng = SplitMix64::new(0x5EED_0000 + rep as u64);
        let started = std::time::Instant::now();
        let mut acc = 0u64;
        for _ in 0..SPIN_ITERS {
            acc = acc.wrapping_add(rng.next_u64());
        }
        let nanos = started.elapsed().as_nanos() as f64;
        std::hint::black_box(acc);
        best = best.min(nanos / SPIN_ITERS as f64);
    }
    best
}

/// The fixed calibrated cell set: every engine on two contrasting
/// irregular workloads, tiny-cell windows. 8 cells, a few seconds of
/// work — large enough to amortise per-cell setup, small enough for
/// every CI run.
pub fn calibrated_matrix(seed: u64) -> RunMatrix {
    RunMatrix::new(
        SimParams {
            functional_warmup_accesses: 20_000,
            warmup_per_core: 10_000,
            measure_per_core: 20_000,
        },
        seed,
    )
    .benches(["bfs", "canneal"])
    .engines(all_engines())
    .configs([("table1".to_string(), SystemConfig::isca_table1())])
}

/// One throughput measurement of the calibrated cell set.
#[derive(Clone, Copy, Debug)]
pub struct PerfMeasurement {
    /// Cells in the calibrated set.
    pub cells: usize,
    /// Wall-clock seconds the set took.
    pub wall_seconds: f64,
    /// Raw host-dependent throughput.
    pub cells_per_sec: f64,
    /// The calibration loop's ns/iteration on this host.
    pub spin_ns_per_iter: f64,
    /// The machine-invariant gated metric:
    /// `cells_per_sec × spin_ns_per_iter`.
    pub normalized_score: f64,
}

/// Runs the calibration loop and the calibrated cell set on `threads`
/// workers.
pub fn measure(threads: usize, seed: u64) -> PerfMeasurement {
    let spin = spin_ns_per_iter();
    let matrix = calibrated_matrix(seed);
    let cells = matrix.cells().len();
    let started = std::time::Instant::now();
    let snapshots = matrix.run(threads);
    let wall = started.elapsed().as_secs_f64().max(1e-9);
    assert_eq!(snapshots.len(), cells, "every calibrated cell must run");
    let cells_per_sec = cells as f64 / wall;
    PerfMeasurement {
        cells,
        wall_seconds: wall,
        cells_per_sec,
        spin_ns_per_iter: spin,
        normalized_score: cells_per_sec * spin,
    }
}

/// Runs [`measure`] `reps` times and returns the run with the median
/// normalized score. Single measurements on a shared host scatter by
/// several percent; pinning a baseline from one lucky-fast run would
/// leave the regression gate with no noise headroom, so
/// `--write-baseline` uses this instead.
pub fn measure_median(threads: usize, seed: u64, reps: usize) -> PerfMeasurement {
    let runs = (0..reps).map(|_| measure(threads, seed)).collect();
    median_by_score(runs)
}

/// The element with the median `normalized_score`.
///
/// # Panics
///
/// Panics on an empty vector.
pub fn median_by_score(mut runs: Vec<PerfMeasurement>) -> PerfMeasurement {
    assert!(!runs.is_empty(), "median of no measurements");
    runs.sort_by(|a, b| a.normalized_score.total_cmp(&b.normalized_score));
    runs[runs.len() / 2]
}

/// Runs [`measure`] `reps` times and returns the best (highest
/// normalized score) run — the gate-side estimator. Throughput noise is
/// one-sided (scheduler preemption only ever slows a run down), so the
/// maximum is the most stable estimate of what the simulator can do; a
/// genuine regression drags the whole distribution down and the best
/// run with it.
pub fn measure_best(threads: usize, seed: u64, reps: usize) -> PerfMeasurement {
    let runs: Vec<PerfMeasurement> = (0..reps).map(|_| measure(threads, seed)).collect();
    runs.into_iter()
        .max_by(|a, b| a.normalized_score.total_cmp(&b.normalized_score))
        .expect("at least one rep")
}

fn measurement_obj(m: &PerfMeasurement, unix_time: f64) -> Vec<(String, JsonValue)> {
    vec![
        ("unix_time".into(), JsonValue::Num(unix_time)),
        ("cells_per_sec".into(), JsonValue::Num(m.cells_per_sec)),
        ("ns_per_iter".into(), JsonValue::Num(m.spin_ns_per_iter)),
        (
            "normalized_score".into(),
            JsonValue::Num(m.normalized_score),
        ),
    ]
}

/// Renders `BENCH_perf.json`: the fresh measurement, per-stage ns/op of
/// a profiled cell (`stages`, pre-rendered), and the run history carried
/// over from the previous artifact with this run appended (capped at
/// [`HISTORY_CAP`] entries).
pub fn perf_json(
    m: &PerfMeasurement,
    stages: Vec<(String, JsonValue)>,
    mut history: Vec<JsonValue>,
    unix_time: f64,
) -> String {
    history.push(JsonValue::Obj(measurement_obj(m, unix_time)));
    if history.len() > HISTORY_CAP {
        let excess = history.len() - HISTORY_CAP;
        history.drain(..excess);
    }
    let doc = JsonValue::Obj(vec![
        ("schema".into(), JsonValue::Num(PERF_SCHEMA as f64)),
        (
            "calibration".into(),
            JsonValue::Obj(vec![
                ("spin_iters".into(), JsonValue::Num(SPIN_ITERS as f64)),
                ("ns_per_iter".into(), JsonValue::Num(m.spin_ns_per_iter)),
            ]),
        ),
        ("cells".into(), JsonValue::Num(m.cells as f64)),
        ("wall_seconds".into(), JsonValue::Num(m.wall_seconds)),
        ("cells_per_sec".into(), JsonValue::Num(m.cells_per_sec)),
        (
            "normalized_score".into(),
            JsonValue::Num(m.normalized_score),
        ),
        ("stages".into(), JsonValue::Obj(stages)),
        ("history".into(), JsonValue::Arr(history)),
    ]);
    let mut text = doc.to_pretty();
    text.push('\n');
    text
}

/// Extracts the history array from a previous `BENCH_perf.json` so the
/// next artifact can carry it forward. Unreadable or mismatched-schema
/// text yields an empty history (the artifact regenerates cleanly).
pub fn extract_history(text: &str) -> Vec<JsonValue> {
    extract_history_for(text, &[PERF_SCHEMA])
}

/// [`extract_history`] for any artifact with a top-level `schema` and
/// `history`: the history survives only when the schema is one of
/// `schemas`.
pub fn extract_history_for(text: &str, schemas: &[u64]) -> Vec<JsonValue> {
    let Ok(doc) = json::parse(text) else {
        return Vec::new();
    };
    let schema = doc.get("schema").and_then(JsonValue::as_f64);
    if !schemas.iter().any(|&v| schema == Some(v as f64)) {
        return Vec::new();
    }
    match doc.get("history") {
        Some(JsonValue::Arr(items)) => items.clone(),
        _ => Vec::new(),
    }
}

/// Renders `goldens/perf_baseline.json` from a measurement.
pub fn baseline_json(m: &PerfMeasurement) -> String {
    let doc = JsonValue::Obj(vec![
        ("schema".into(), JsonValue::Num(PERF_SCHEMA as f64)),
        ("cells".into(), JsonValue::Num(m.cells as f64)),
        ("cells_per_sec".into(), JsonValue::Num(m.cells_per_sec)),
        ("ns_per_iter".into(), JsonValue::Num(m.spin_ns_per_iter)),
        (
            "normalized_score".into(),
            JsonValue::Num(m.normalized_score),
        ),
    ]);
    let mut text = doc.to_pretty();
    text.push('\n');
    text
}

/// Parses the baseline's normalized score.
///
/// # Errors
///
/// Returns a description when the text is not a supported baseline.
pub fn parse_baseline(text: &str) -> Result<f64, String> {
    let doc = json::parse(text)?;
    let schema = doc
        .get("schema")
        .and_then(JsonValue::as_f64)
        .ok_or("baseline missing schema")?;
    if schema != PERF_SCHEMA as f64 {
        return Err(format!("baseline schema {schema} != supported {PERF_SCHEMA}"));
    }
    doc.get("normalized_score")
        .and_then(JsonValue::as_f64)
        .filter(|score| score.is_finite() && *score > 0.0)
        .ok_or_else(|| "baseline missing a positive normalized_score".to_string())
}

/// Applies the regression gate: `Some(reason)` when `fresh` fell more
/// than `gate` (a fraction) below `baseline`.
pub fn regression(baseline: f64, fresh: f64, gate: f64) -> Option<String> {
    let floor = baseline * (1.0 - gate);
    if fresh < floor {
        Some(format!(
            "normalized score {fresh:.4} is {:.1}% below baseline {baseline:.4} \
             (gate allows {:.1}%)",
            (1.0 - fresh / baseline) * 100.0,
            gate * 100.0,
        ))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake(score: f64) -> PerfMeasurement {
        PerfMeasurement {
            cells: 8,
            wall_seconds: 2.0,
            cells_per_sec: 4.0,
            spin_ns_per_iter: score / 4.0,
            normalized_score: score,
        }
    }

    #[test]
    fn calibrated_set_is_fixed() {
        let cells = calibrated_matrix(1).cells();
        assert_eq!(cells.len(), 8);
        // The set must not follow CLME_FULL: windows are pinned.
        assert_eq!(calibrated_matrix(1).params().measure_per_core, 20_000);
    }

    #[test]
    fn spin_loop_reports_plausible_speed() {
        let ns = spin_ns_per_iter();
        // Between 10 ps and 1 µs per iteration covers every real host.
        assert!(ns > 0.01 && ns < 1_000.0, "ns/iter {ns}");
    }

    #[test]
    fn baseline_round_trips() {
        let text = baseline_json(&fake(3.5));
        assert_eq!(parse_baseline(&text).unwrap(), 3.5);
        assert!(parse_baseline("{}").is_err());
        assert!(parse_baseline(&text.replace("1,", "9,")).is_err(), "bad schema");
    }

    #[test]
    fn gate_semantics() {
        assert!(regression(10.0, 9.0, 0.15).is_none(), "10% drop passes 15% gate");
        assert!(regression(10.0, 8.4, 0.15).is_some(), "16% drop fails");
        assert!(regression(10.0, 12.0, 0.15).is_none(), "improvement passes");
    }

    #[test]
    fn median_picks_the_middle_score() {
        let runs = vec![fake(5.0), fake(1.0), fake(3.0)];
        assert_eq!(median_by_score(runs).normalized_score, 3.0);
        // Even count: the upper-middle element (stable, deterministic).
        let runs = vec![fake(4.0), fake(1.0)];
        assert_eq!(median_by_score(runs).normalized_score, 4.0);
    }

    #[test]
    fn best_of_reps_measures_at_least_once() {
        // One real rep keeps this test fast while covering the path.
        let m = measure_best(2, 7, 1);
        assert!(m.normalized_score > 0.0 && m.cells == 8);
    }

    #[test]
    fn history_carries_over_and_caps() {
        let first = perf_json(&fake(3.0), Vec::new(), Vec::new(), 1000.0);
        let history = extract_history(&first);
        assert_eq!(history.len(), 1);
        let second = perf_json(&fake(3.1), Vec::new(), history, 2000.0);
        let history = extract_history(&second);
        assert_eq!(history.len(), 2);
        assert_eq!(
            history[1].get("normalized_score").and_then(JsonValue::as_f64),
            Some(3.1)
        );
        // Unparseable and wrong-schema inputs reset cleanly.
        assert!(extract_history("not json").is_empty());
        assert!(extract_history("{\"schema\": 9}").is_empty());
        // The cap drops the oldest entries.
        let mut long = Vec::new();
        for i in 0..HISTORY_CAP + 5 {
            long.push(JsonValue::Obj(vec![(
                "unix_time".into(),
                JsonValue::Num(i as f64),
            )]));
        }
        let capped = perf_json(&fake(3.0), Vec::new(), long, 9999.0);
        let history = extract_history(&capped);
        assert_eq!(history.len(), HISTORY_CAP);
        assert_eq!(
            history.last().unwrap().get("unix_time").and_then(JsonValue::as_f64),
            Some(9999.0)
        );
    }
}
