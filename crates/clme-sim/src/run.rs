//! High-level run helpers used by the examples and the `clme` CLI.

use crate::machine::Machine;
use crate::result::SimResult;
use clme_cache::hierarchy::MemorySystemCaches;
use clme_core::build_engine;
use clme_core::engine::{EncryptionEngine, EngineKind};
use clme_dram::timing::Dram;
use clme_obs::{BlameTally, EpochSeries, NopSink, Recorder, SeriesRecorder, SpanTracer, TraceSink};
use clme_types::config::SystemConfig;
use clme_workloads::suites;
use std::time::Instant;

/// Window sizes for a simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimParams {
    /// Functional (untimed) warm-up memory accesses per core — the
    /// analogue of the paper's 25-billion-instruction atomic-mode warm-up.
    /// Must be large enough to cycle the 8 MB LLC (128 K lines) so dirty
    /// evictions reach steady state before measurement.
    pub functional_warmup_accesses: u64,
    /// Timed warm-up instructions per core (detailed-mode warm-up:
    /// DRAM row state, epoch monitor, memoization and counter state).
    pub warmup_per_core: u64,
    /// Measured instructions per core.
    pub measure_per_core: u64,
}

impl SimParams {
    /// Fast windows for unit/integration tests.
    pub fn quick() -> SimParams {
        SimParams {
            functional_warmup_accesses: 5_000,
            warmup_per_core: 2_000,
            measure_per_core: 15_000,
        }
    }

    /// The windows `CLME_FULL=1` selects (scaled from the paper's 20 ms
    /// detailed window to keep the full sweep tractable; the relative
    /// results are stable beyond this size).
    pub fn evaluation() -> SimParams {
        SimParams {
            functional_warmup_accesses: 400_000,
            warmup_per_core: 300_000,
            measure_per_core: 500_000,
        }
    }
}

/// A reusable allocation of the machine's heavyweight state (cache
/// arrays and DRAM bank/row bookkeeping). A worker thread that runs many
/// cells of the *same configuration* back-to-back keeps one arena and
/// avoids re-allocating the multi-megabyte cache tag arrays per cell;
/// [`Machine::from_parts`] resets the parts so results stay
/// byte-identical to fresh construction.
/// `MachineArena::default()` is empty: its first run allocates fresh
/// parts.
#[derive(Default)]
pub struct MachineArena {
    parts: Option<(MemorySystemCaches, Dram)>,
}

/// Host wall time of each phase of one cell, in seconds.
#[derive(Clone, Copy, Debug)]
pub struct PhaseTimes {
    /// Engine, workload and machine construction.
    pub build_s: f64,
    /// The functional (untimed) warm-up.
    pub functional_warmup_s: f64,
    /// The timed warm-up window.
    pub warmup_window_s: f64,
    /// The measured window: the only phase a recorder's histograms and
    /// counters cover.
    pub measured_s: f64,
}

impl PhaseTimes {
    /// The whole cell.
    pub fn total_s(&self) -> f64 {
        self.build_s + self.functional_warmup_s + self.warmup_window_s + self.measured_s
    }
}

/// Simulates `bench` under the engine `engine` builds for `cfg`, with
/// every workload stream derived from `seed` and `sink` observing: the
/// one place a machine is built and run. Every other helper here is a
/// shorthand for a call to it.
///
/// Reuses (and refills) `arena`'s machine parts; the arena must only
/// ever be used with one configuration. The timed warm-up and the
/// measured window run as two [`Machine::run`] calls, which gives the
/// same result as one call covering both. Returns the result, the sink
/// and the host time of each phase.
pub fn simulate<S: TraceSink>(
    cfg: &SystemConfig,
    engine: impl FnOnce(&SystemConfig) -> Box<dyn EncryptionEngine>,
    bench: &str,
    params: SimParams,
    seed: u64,
    sink: S,
    arena: &mut MachineArena,
) -> (SimResult, S, PhaseTimes) {
    let started = Instant::now();
    let engine = engine(cfg);
    let workloads = (0..cfg.cores)
        .map(|c| suites::instantiate_seeded(bench, c, seed))
        .collect();
    let mut machine = match arena.parts.take() {
        Some((caches, dram)) => Machine::from_parts(cfg.clone(), engine, workloads, caches, dram),
        None => Machine::new(cfg.clone(), engine, workloads),
    };
    machine.set_sink(Box::new(sink));
    let built = Instant::now();
    machine.functional_warmup(params.functional_warmup_accesses);
    let warmed = Instant::now();
    machine.run(params.warmup_per_core, 0);
    let window_warmed = Instant::now();
    let result = machine.run(0, params.measure_per_core);
    let measured = Instant::now();
    let sink = machine
        .take_sink()
        .into_any()
        .downcast::<S>()
        .expect("the sink installed above");
    arena.parts = Some(machine.into_parts());
    let times = PhaseTimes {
        build_s: built.duration_since(started).as_secs_f64(),
        functional_warmup_s: warmed.duration_since(built).as_secs_f64(),
        warmup_window_s: window_warmed.duration_since(warmed).as_secs_f64(),
        measured_s: measured.duration_since(window_warmed).as_secs_f64(),
    };
    (result, *sink, times)
}

/// The engine builder [`simulate`] takes for the stock engine `kind`.
pub fn stock_engine(kind: EngineKind) -> impl FnOnce(&SystemConfig) -> Box<dyn EncryptionEngine> {
    move |cfg| build_engine(kind, cfg, suites::address_space_blocks())
}

/// [`simulate`] with the stock engine `kind` on fresh machine parts.
fn simulate_stock<S: TraceSink>(
    cfg: &SystemConfig,
    kind: EngineKind,
    bench: &str,
    params: SimParams,
    seed: u64,
    sink: S,
) -> (SimResult, S, PhaseTimes) {
    let arena = &mut MachineArena::default();
    simulate(cfg, stock_engine(kind), bench, params, seed, sink, arena)
}

/// Runs `bench` under the stock engine `kind` with the default workload
/// seed ([`suites::DEFAULT_SEED`]).
pub fn run_benchmark(
    cfg: &SystemConfig,
    kind: EngineKind,
    bench: &str,
    params: SimParams,
) -> SimResult {
    run_benchmark_seeded(cfg, kind, bench, params, suites::DEFAULT_SEED)
}

/// Runs `bench` under the stock engine `kind` with every workload stream
/// derived from `seed`, so a run is reproducible from (config, engine,
/// bench, seed) alone.
pub fn run_benchmark_seeded(
    cfg: &SystemConfig,
    kind: EngineKind,
    bench: &str,
    params: SimParams,
    seed: u64,
) -> SimResult {
    simulate_stock(cfg, kind, bench, params, seed, NopSink).0
}

/// [`run_benchmark_seeded`] with an enabled [`Recorder`] installed:
/// returns the result, the recorder holding per-stage latency
/// histograms, event counters, and the bounded event ring (at most
/// `ring_capacity` retained events), and the host time of each phase.
pub fn run_benchmark_recorded(
    cfg: &SystemConfig,
    kind: EngineKind,
    bench: &str,
    params: SimParams,
    seed: u64,
    ring_capacity: usize,
) -> (SimResult, Recorder, PhaseTimes) {
    let sink = Recorder::with_capacity(ring_capacity);
    simulate_stock(cfg, kind, bench, params, seed, sink)
}

/// [`run_benchmark_seeded`] with a [`SeriesRecorder`] installed: returns
/// the result plus the epoch time-series sampled every `epoch_cycles`
/// core cycles of the measured window (pass
/// [`clme_obs::DEFAULT_EPOCH_CYCLES`] unless the caller has a reason to
/// resample) and the critical-path blame tally over every measured miss.
pub fn run_benchmark_series(
    cfg: &SystemConfig,
    kind: EngineKind,
    bench: &str,
    params: SimParams,
    seed: u64,
    epoch_cycles: u64,
) -> (SimResult, EpochSeries, BlameTally) {
    let sink = SeriesRecorder::new(epoch_cycles, cfg.core_period());
    let (result, recorder, _) = simulate_stock(cfg, kind, bench, params, seed, sink);
    let blame = recorder.blame_tally().clone();
    (result, recorder.into_series(), blame)
}

/// [`run_benchmark_seeded`] with a [`SpanTracer`] installed: returns the
/// result plus the tracer holding the whole-run blame tally and a
/// deterministic reservoir of at most `span_samples` fully-recorded
/// request spans (children included), exportable with
/// [`clme_obs::span_flow_json`].
pub fn run_benchmark_spans(
    cfg: &SystemConfig,
    kind: EngineKind,
    bench: &str,
    params: SimParams,
    seed: u64,
    span_samples: usize,
) -> (SimResult, SpanTracer) {
    let (result, tracer, _) = simulate_stock(
        cfg,
        kind,
        bench,
        params,
        seed,
        SpanTracer::new(span_samples),
    );
    (result, tracer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_benchmark_end_to_end() {
        let cfg = SystemConfig::isca_table1();
        let result = run_benchmark(
            &cfg,
            EngineKind::CounterLight,
            "canneal",
            SimParams::quick(),
        );
        assert_eq!(result.engine, EngineKind::CounterLight);
        assert!(result.engine_stats.read_misses > 0);
    }

    #[test]
    fn params_presets_ordered() {
        assert!(SimParams::quick().measure_per_core < SimParams::evaluation().measure_per_core);
    }

    #[test]
    fn series_run_matches_plain_run_and_samples_epochs() {
        let cfg = SystemConfig::isca_table1();
        let plain =
            run_benchmark_seeded(&cfg, EngineKind::CounterMode, "bfs", SimParams::quick(), 7);
        let (result, series, blame) = run_benchmark_series(
            &cfg,
            EngineKind::CounterMode,
            "bfs",
            SimParams::quick(),
            7,
            clme_obs::DEFAULT_EPOCH_CYCLES,
        );
        // Observation must not perturb the simulation.
        assert_eq!(result.elapsed, plain.elapsed);
        assert_eq!(result.instructions, plain.instructions);
        assert!(!series.is_empty(), "a quick window spans several epochs");
        let total: u64 = series.samples.iter().map(|s| s.instructions).sum();
        assert_eq!(total, result.instructions, "epochs partition the window");
        assert!(series.ipc_max() > 0.0);
        // Every measured-window miss receives exactly one blame verdict.
        assert!(blame.total() > 0, "misses were classified");
    }
}
