//! Integration tests for the per-request span tracer behind
//! `clme critpath`: tracing must never perturb the simulation, blame
//! classification must be deterministic, and the paper's central
//! asymmetry — counter-mode stalls on counter fetches where
//! counter-light structurally cannot — must show up both in live runs
//! and in the checked-in golden snapshots.

use clme::core::engine::EngineKind;
use clme::obs::{Blame, SpanKind, DEFAULT_SPAN_SAMPLES};
use clme::sim::{run_benchmark_seeded, run_benchmark_spans, SimParams, StatsSnapshot};
use clme::types::json::{parse, JsonValue};
use clme::types::SystemConfig;
use std::path::Path;

fn params() -> SimParams {
    SimParams {
        functional_warmup_accesses: 20_000,
        warmup_per_core: 10_000,
        measure_per_core: 20_000,
    }
}

const SEED: u64 = 0x00C0_FFEE;

/// Attaching the span tracer must not change a single byte of the
/// simulation's statistics relative to the default no-op sink.
#[test]
fn span_tracing_leaves_snapshot_byte_identical() {
    let cfg = SystemConfig::isca_table1();
    for kind in [EngineKind::CounterMode, EngineKind::CounterLight] {
        let plain = run_benchmark_seeded(&cfg, kind, "bfs", params(), SEED);
        let (traced, tracer) =
            run_benchmark_spans(&cfg, kind, "bfs", params(), SEED, DEFAULT_SPAN_SAMPLES);
        assert!(tracer.total_requests() > 0, "tracer saw no LLC misses");
        assert!(!tracer.sampled().is_empty(), "reservoir kept no spans");
        let a = StatsSnapshot::capture(&plain, "table1", SEED).to_json();
        let b = StatsSnapshot::capture(&traced, "table1", SEED).to_json();
        assert_eq!(a, b, "span tracing perturbed the {kind:?} run");
    }
}

/// Same seed, same machine, same tracer: the blame tally and the
/// sampled request population must be reproducible run to run.
#[test]
fn blame_attribution_is_deterministic() {
    let cfg = SystemConfig::isca_table1();
    let (_, a) = run_benchmark_spans(
        &cfg,
        EngineKind::CounterMode,
        "bfs",
        params(),
        SEED,
        DEFAULT_SPAN_SAMPLES,
    );
    let (_, b) = run_benchmark_spans(
        &cfg,
        EngineKind::CounterMode,
        "bfs",
        params(),
        SEED,
        DEFAULT_SPAN_SAMPLES,
    );
    assert_eq!(a.tally(), b.tally());
    assert_eq!(a.total_requests(), b.total_requests());
    assert_eq!(a.sampled().len(), b.sampled().len());
}

/// The acceptance criterion, live: on the same workload stream,
/// counter-mode must attribute a strictly larger fraction of misses to
/// the counter fetch than counter-light, whose in-ECC metadata arrives
/// with (in fact, before) the data and therefore can never gate.
#[test]
fn counter_mode_is_more_counter_bound_than_counter_light() {
    let cfg = SystemConfig::isca_table1();
    let (_, mode) = run_benchmark_spans(
        &cfg,
        EngineKind::CounterMode,
        "bfs",
        params(),
        SEED,
        DEFAULT_SPAN_SAMPLES,
    );
    let (_, light) = run_benchmark_spans(
        &cfg,
        EngineKind::CounterLight,
        "bfs",
        params(),
        SEED,
        DEFAULT_SPAN_SAMPLES,
    );
    assert!(mode.tally().total() > 0 && light.tally().total() > 0);
    let mode_frac = mode.tally().fraction(Blame::Counter);
    let light_frac = light.tally().fraction(Blame::Counter);
    assert!(
        mode_frac > light_frac,
        "counter-mode counter-bound fraction ({mode_frac}) must exceed \
         counter-light's ({light_frac})"
    );
    assert_eq!(
        light_frac, 0.0,
        "counter-light's half-transfer-early metadata must never be the gate"
    );
    // The sampled spans back the table: counter-mode requests carry
    // dedicated counter-fetch children, and every request's children
    // fit inside the request envelope.
    let mode_has_fetch = mode.sampled().iter().any(|req| {
        req.children
            .iter()
            .any(|c| c.kind == SpanKind::CounterFetch)
    });
    assert!(
        mode_has_fetch,
        "no sampled counter-mode request fetched a counter"
    );
    for req in mode.sampled().iter().chain(light.sampled().iter()) {
        assert!(req.ready >= req.issue);
        for child in &req.children {
            assert!(child.end >= child.begin, "inverted child span");
        }
    }
}

fn golden_counter_bound_fraction(file: &str) -> f64 {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("goldens/tiny")
        .join(file);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let doc = parse(&text).expect("golden must parse as JSON");
    let JsonValue::Obj(fields) = &doc else {
        panic!("golden root must be an object");
    };
    let Some((_, JsonValue::Obj(metrics))) = fields.iter().find(|(k, _)| k == "metrics") else {
        panic!("golden missing metrics object");
    };
    let Some((_, JsonValue::Num(frac))) = metrics
        .iter()
        .find(|(k, _)| k == "blame.counter_bound_fraction")
    else {
        panic!("golden {file} missing blame.counter_bound_fraction (schema < 4?)");
    };
    *frac
}

/// The same asymmetry, pinned: the regenerated schema-v4 goldens must
/// carry a strictly positive counter-bound fraction for every
/// counter-mode cell and exactly zero for every counter-light cell, so
/// a regression in the blame classifier fails the golden diff too.
#[test]
fn golden_snapshots_pin_the_counter_bound_gap() {
    for bench in ["bfs", "canneal", "streamcluster"] {
        let mode = golden_counter_bound_fraction(&format!("table1__counter-mode__{bench}.json"));
        let light = golden_counter_bound_fraction(&format!("table1__counter-light__{bench}.json"));
        assert!(
            mode > light,
            "{bench}: golden counter-mode fraction {mode} not above counter-light {light}"
        );
        assert!(mode > 0.0, "{bench}: counter-mode cell never counter-bound");
        assert_eq!(light, 0.0, "{bench}: counter-light cell counter-bound");
    }
}
