//! Cross-crate integration tests for the observability layer: recording
//! must never perturb simulation results, recorded traces must be
//! deterministic, and the Chrome export must be well-formed.

use clme::core::engine::EngineKind;
use clme::obs::{BlameTally, EpochSeries, EventKind, SeriesRecorder, Stage, DEFAULT_EPOCH_CYCLES};
use clme::sim::{
    run_benchmark_recorded, run_benchmark_seeded, run_benchmark_series, simulate, stock_engine,
    MachineArena, RunMatrix, SimParams, SimResult, StatsSnapshot,
};
use clme::types::json::{parse, JsonValue};
use clme::types::SystemConfig;

fn params() -> SimParams {
    SimParams {
        functional_warmup_accesses: 20_000,
        warmup_per_core: 10_000,
        measure_per_core: 20_000,
    }
}

const SEED: u64 = 0x00C0_FFEE;

/// The whole point of the sink hooks: attaching a live [`Recorder`]
/// must not change a single byte of the simulation's statistics
/// relative to the default no-op sink.
#[test]
fn recording_sink_leaves_snapshot_byte_identical() {
    let cfg = SystemConfig::isca_table1();
    for kind in [EngineKind::CounterMode, EngineKind::CounterLight] {
        let plain = run_benchmark_seeded(&cfg, kind, "bfs", params(), SEED);
        let (recorded, recorder, _) =
            run_benchmark_recorded(&cfg, kind, "bfs", params(), SEED, 1 << 12);
        assert!(recorder.ring().len() > 0, "recorder saw no events");
        let a = StatsSnapshot::capture(&plain, "table1", SEED).to_json();
        let b = StatsSnapshot::capture(&recorded, "table1", SEED).to_json();
        assert_eq!(a, b, "recording perturbed the {kind:?} run");
    }
}

#[test]
fn recorded_trace_is_deterministic() {
    let cfg = SystemConfig::isca_table1();
    let (_, a, _) = run_benchmark_recorded(
        &cfg,
        EngineKind::CounterLight,
        "bfs",
        params(),
        SEED,
        1 << 12,
    );
    let (_, b, _) = run_benchmark_recorded(
        &cfg,
        EngineKind::CounterLight,
        "bfs",
        params(),
        SEED,
        1 << 12,
    );
    assert_eq!(a.chrome_trace(), b.chrome_trace());
    for (kind, count) in a.counters().nonzero() {
        assert_eq!(
            b.counters().get(kind),
            count,
            "counter {} drifted",
            kind.name()
        );
    }
    assert_eq!(a.ring().dropped(), b.ring().dropped());
}

/// The measured window of a counter-light run must exercise every
/// attributed pipeline stage.
#[test]
fn stages_cover_the_pipeline() {
    let cfg = SystemConfig::isca_table1();
    let (_, rec, _) = run_benchmark_recorded(
        &cfg,
        EngineKind::CounterLight,
        "bfs",
        params(),
        SEED,
        1 << 12,
    );
    for stage in [Stage::Engine, Stage::Dram, Stage::Cache, Stage::RobStall] {
        assert!(
            rec.stage(stage).count() > 0,
            "stage {} recorded no samples",
            stage.name()
        );
        assert!(rec.stage(stage).mean_ps() > 0.0);
    }
}

#[test]
fn chrome_trace_is_wellformed() {
    let cfg = SystemConfig::isca_table1();
    let (_, rec, _) = run_benchmark_recorded(
        &cfg,
        EngineKind::CounterLight,
        "bfs",
        params(),
        SEED,
        1 << 12,
    );
    let doc = parse(&rec.chrome_trace()).expect("trace must parse as JSON");
    let JsonValue::Obj(fields) = &doc else {
        panic!("trace root must be an object");
    };
    let unit = fields.iter().find(|(k, _)| k == "displayTimeUnit");
    assert!(matches!(unit, Some((_, JsonValue::Str(s))) if s == "ns"));
    let Some((_, JsonValue::Arr(events))) = fields.iter().find(|(k, _)| k == "traceEvents") else {
        panic!("traceEvents array missing");
    };
    assert!(events.len() > 4, "expected metadata plus complete events");
    for event in events {
        let JsonValue::Obj(ev) = event else {
            panic!("each trace event must be an object");
        };
        let Some((_, JsonValue::Str(ph))) = ev.iter().find(|(k, _)| k == "ph") else {
            panic!("event missing ph");
        };
        assert!(ph == "M" || ph == "X", "unexpected phase {ph}");
    }
}

/// The epoch series behind `clme profile --series` must be byte-stable:
/// two fresh runs and an arena-reusing run (the path the threaded matrix
/// workers take) must all emit identical JSON, and attaching the series
/// recorder must not perturb the simulation itself.
#[test]
fn epoch_series_is_deterministic_across_run_paths() {
    let cfg = SystemConfig::isca_table1();
    let kind = EngineKind::CounterLight;
    let plain_result = run_benchmark_seeded(&cfg, kind, "bfs", params(), SEED);
    let (res_a, series_a, blame_a) =
        run_benchmark_series(&cfg, kind, "bfs", params(), SEED, DEFAULT_EPOCH_CYCLES);
    let (res_b, series_b, blame_b) =
        run_benchmark_series(&cfg, kind, "bfs", params(), SEED, DEFAULT_EPOCH_CYCLES);
    let mut arena = MachineArena::default();
    // The arena-reusing path the matrix workers take.
    let mut series_reusing = || -> (SimResult, EpochSeries, BlameTally) {
        let engine = stock_engine(kind);
        let sink = SeriesRecorder::new(DEFAULT_EPOCH_CYCLES, cfg.core_period());
        let (result, recorder, _) = simulate(&cfg, engine, "bfs", params(), SEED, sink, &mut arena);
        let blame = recorder.blame_tally().clone();
        (result, recorder.into_series(), blame)
    };
    let (res_c, series_c, blame_c) = series_reusing();
    // Reuse the warm arena once more: recycled buffers must not leak
    // state into the next cell's series.
    let (_, series_d, blame_d) = series_reusing();
    let json_a = series_a.to_json("table1/counter-light/bfs");
    assert_eq!(json_a, series_b.to_json("table1/counter-light/bfs"));
    assert_eq!(json_a, series_c.to_json("table1/counter-light/bfs"));
    assert_eq!(json_a, series_d.to_json("table1/counter-light/bfs"));
    assert!(!series_a.is_empty(), "a real run must produce epochs");
    // The blame tally rides the same sink: equally deterministic across
    // fresh and arena-reusing runs.
    assert!(blame_a.total() > 0, "misses were classified");
    assert_eq!(blame_a, blame_b);
    assert_eq!(blame_a, blame_c);
    assert_eq!(blame_a, blame_d);
    // Observing the series must not change the simulation.
    assert_eq!(plain_result.elapsed, res_a.elapsed);
    assert_eq!(res_a.elapsed, res_b.elapsed);
    assert_eq!(res_a.elapsed, res_c.elapsed);
}

/// The stage gap `clme profile --diff` reports: counter-mode pays for
/// counter fetches on the metadata path while counter-light's in-ECC
/// metadata makes every one of those events structurally impossible.
#[test]
fn diff_reproduces_the_counter_fetch_gap() {
    let cfg = SystemConfig::isca_table1();
    let (_, mode_rec, _) = run_benchmark_recorded(
        &cfg,
        EngineKind::CounterMode,
        "bfs",
        params(),
        SEED,
        1 << 12,
    );
    let (_, light_rec, _) = run_benchmark_recorded(
        &cfg,
        EngineKind::CounterLight,
        "bfs",
        params(),
        SEED,
        1 << 12,
    );
    for kind in [
        EventKind::CounterFetchStart,
        EventKind::CounterCacheHit,
        EventKind::CounterLate,
    ] {
        assert!(
            mode_rec.counters().get(kind) > 0,
            "counter-mode must exercise {}",
            kind.name()
        );
        assert_eq!(
            light_rec.counters().get(kind),
            0,
            "counter-light must never emit {}",
            kind.name()
        );
    }
    // The dedicated-counter fetch path also inflates counter-mode's
    // engine-stage latency relative to counter-light.
    let mode_engine = mode_rec.stage(Stage::Engine).mean_ps();
    let light_engine = light_rec.stage(Stage::Engine).mean_ps();
    assert!(
        mode_engine > light_engine,
        "expected counter-mode engine stage ({mode_engine} ps) above \
         counter-light ({light_engine} ps)"
    );
}

/// `--filter` must not change what the surviving cells compute, and the
/// filtered matrix must stay thread-count invariant (the same guarantee
/// the full matrix has, now with arena reuse in the workers).
#[test]
fn filtered_matrix_is_thread_invariant() {
    let matrix = RunMatrix::new(params(), SEED)
        .benches(["bfs", "canneal"])
        .engines([EngineKind::CounterMode, EngineKind::CounterLight])
        .configs([("table1".to_string(), SystemConfig::isca_table1())])
        .filter("*/counter-light/*");
    assert_eq!(matrix.cells().len(), 2);
    let serial: Vec<String> = matrix.run(1).iter().map(StatsSnapshot::to_json).collect();
    let threaded: Vec<String> = matrix.run(4).iter().map(StatsSnapshot::to_json).collect();
    assert_eq!(serial, threaded);
}
