//! Cross-crate integration tests: simulator determinism, the
//! timing/functional twins agreeing on mode decisions, and trace
//! replay driving the simulator.

use clme::core::engine::{EncryptionEngine, EngineKind};
use clme::core::epoch::WritebackMode;
use clme::core::functional::MemoryImage;
use clme::core::CounterLightEngine;
use clme::dram::timing::Dram;
use clme::obs::NopSink;
use clme::sim::{run_benchmark, Machine, SimParams};
use clme::types::rng::Xoshiro256;
use clme::types::{BlockAddr, SystemConfig, Time, TimeDelta};
use clme::workloads::trace::RecordedTrace;
use clme::workloads::{suites, Workload};

fn params() -> SimParams {
    SimParams {
        functional_warmup_accesses: 20_000,
        warmup_per_core: 10_000,
        measure_per_core: 20_000,
    }
}

#[test]
fn identical_runs_are_bit_identical() {
    let cfg = SystemConfig::isca_table1();
    let a = run_benchmark(&cfg, EngineKind::CounterLight, "canneal", params());
    let b = run_benchmark(&cfg, EngineKind::CounterLight, "canneal", params());
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(a.instructions, b.instructions);
    assert_eq!(a.dram_reads, b.dram_reads);
    assert_eq!(a.dram_writes, b.dram_writes);
    assert_eq!(a.engine_stats.read_misses, b.engine_stats.read_misses);
    assert_eq!(
        a.engine_stats.counterless_writebacks,
        b.engine_stats.counterless_writebacks
    );
}

#[test]
fn recorded_trace_drives_the_machine() {
    let cfg = SystemConfig::isca_table1();
    let engine = clme::core::build_engine(EngineKind::CounterLight, &cfg, 1 << 24);
    let workloads: Vec<Box<dyn Workload>> = (0..cfg.cores)
        .map(|core| {
            let mut source = suites::instantiate("mcf", core);
            Box::new(RecordedTrace::record("mcf-trace", source.as_mut(), 5_000))
                as Box<dyn Workload>
        })
        .collect();
    let mut machine = Machine::new(cfg, engine, workloads);
    machine.functional_warmup(2_000);
    let result = machine.run(2_000, 10_000);
    assert!(result.engine_stats.read_misses > 0);
    assert_eq!(result.benchmark, "mcf-trace");
}

#[test]
fn timing_engine_and_functional_twin_agree_on_mode_decisions() {
    // Drive the timing engine and the functional image with the same
    // writeback sequence under the same epoch schedule; the per-block
    // mode they record must match.
    let cfg = SystemConfig::isca_table1();
    let mut engine = CounterLightEngine::new(&cfg, 1 << 20);
    let mut dram = Dram::new(&cfg);
    let mut image = MemoryImage::new(1 << 20, [9; 32]);
    let mut rng = Xoshiro256::seed_from(31);

    let mut now = Time::ZERO;
    for step in 0..3_000u64 {
        now += TimeDelta::from_ns(50);
        let block = BlockAddr::new(rng.below(1 << 12));
        // A bursty phase in the middle saturates the engine's epoch
        // monitor (it observes its own accesses).
        let burst = (1_000..1_800).contains(&step);
        if burst {
            for _ in 0..40 {
                engine.on_prefetch_fill(
                    BlockAddr::new(rng.below(1 << 12)),
                    now,
                    &mut dram,
                    &mut NopSink,
                );
            }
        }
        let wb = engine.on_writeback(block, now, &mut dram, &mut NopSink);
        // Mirror the timing engine's decision into the functional image —
        // in the full system the MC makes one decision and both the
        // stored bits and the timing reflect it.
        image.set_writeback_mode(if wb.used_counter_mode {
            WritebackMode::Counter
        } else {
            WritebackMode::Counterless
        });
        let pt: [u8; 64] = core::array::from_fn(|i| ((step as usize + i) % 7) as u8);
        image.write_block(block, &pt);
        assert_eq!(
            !wb.used_counter_mode,
            image.is_counterless(block),
            "twins disagree at step {step}"
        );
        assert!(mode_matches_read(&mut image, block, &pt), "step {step}");
    }
    // Both modes must actually have been exercised.
    let stats = engine.stats();
    assert!(
        stats.counter_mode_writebacks > 0,
        "no counter-mode writebacks"
    );
    assert!(
        stats.counterless_writebacks > 0,
        "no counterless writebacks"
    );
}

/// The decrypt path must agree with the stored mode.
fn mode_matches_read(image: &mut MemoryImage, block: BlockAddr, expected: &[u8; 64]) -> bool {
    image.read_block(block) == Ok(*expected)
}

#[test]
fn run_matrix_snapshots_are_byte_identical_across_runs_and_thread_counts() {
    // The matrix driver's determinism contract: the same master seed
    // yields byte-identical snapshot JSON on a repeated run AND under a
    // different worker-thread count. This is what makes the checked-in
    // goldens meaningful.
    use clme::core::engine::EngineKind;
    use clme::sim::RunMatrix;

    let matrix = RunMatrix::new(
        SimParams {
            functional_warmup_accesses: 5_000,
            warmup_per_core: 2_000,
            measure_per_core: 6_000,
        },
        0x00C0_FFEE,
    )
    .benches(["bfs", "streamcluster"])
    .engines([
        EngineKind::None,
        EngineKind::Counterless,
        EngineKind::CounterMode,
        EngineKind::CounterLight,
    ])
    .configs([("table1", SystemConfig::isca_table1())]);

    let first: Vec<String> = matrix.run(1).iter().map(|s| s.to_json()).collect();
    let repeat: Vec<String> = matrix.run(1).iter().map(|s| s.to_json()).collect();
    let threaded: Vec<String> = matrix.run(3).iter().map(|s| s.to_json()).collect();
    assert_eq!(first.len(), 8);
    assert_eq!(first, repeat, "same seed, same thread count must repeat");
    assert_eq!(first, threaded, "thread count must not leak into results");

    // A different master seed must actually change the measurement (the
    // workload streams really are derived from it).
    let other = RunMatrix::new(matrix.params(), 0xBAD_5EED)
        .benches(["bfs", "streamcluster"])
        .engines([
            EngineKind::None,
            EngineKind::Counterless,
            EngineKind::CounterMode,
            EngineKind::CounterLight,
        ])
        .configs([("table1", SystemConfig::isca_table1())]);
    let reseeded: Vec<String> = other.run(2).iter().map(|s| s.to_json()).collect();
    assert_ne!(first, reseeded, "master seed must reach the workloads");
}

#[test]
fn snapshot_json_survives_disk_round_trip() {
    // What `clme matrix --out` writes, `clme diff` must read back
    // verbatim — including the hex-encoded u64 seed.
    use clme::core::engine::EngineKind;
    use clme::sim::{compare, RunMatrix, StatsSnapshot, Tolerance};

    let matrix = RunMatrix::new(
        SimParams {
            functional_warmup_accesses: 4_000,
            warmup_per_core: 2_000,
            measure_per_core: 5_000,
        },
        42,
    )
    .benches(["canneal"])
    .engines([EngineKind::CounterLight])
    .configs([("table1", SystemConfig::isca_table1())]);
    let snapshots = matrix.run(1);
    assert_eq!(snapshots.len(), 1);
    let text = snapshots[0].to_json();
    let back = StatsSnapshot::from_json(&text).expect("parse back");
    assert_eq!(back, snapshots[0]);
    assert_eq!(back.to_json(), text, "re-encoding must be byte-identical");
    assert!(compare(&back, &snapshots[0], Tolerance::exact()).is_empty());
}

#[test]
fn engine_results_differ_only_where_the_design_differs() {
    // None and counterless issue essentially identical DRAM traffic
    // (counterless adds latency, not accesses); tiny deviations come from
    // timing-dependent core interleaving shifting cache contents.
    let cfg = SystemConfig::isca_table1();
    let none = run_benchmark(&cfg, EngineKind::None, "streamcluster", params());
    let cxl = run_benchmark(&cfg, EngineKind::Counterless, "streamcluster", params());
    let reads_delta = (none.dram_reads as f64 - cxl.dram_reads as f64).abs();
    assert!(
        reads_delta / (none.dram_reads as f64) < 0.01,
        "read traffic diverged: {} vs {}",
        none.dram_reads,
        cxl.dram_reads
    );
    // And counterless must still be slower.
    assert!(cxl.elapsed > none.elapsed);
}
