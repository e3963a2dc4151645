//! End-to-end checks of the paper's headline claims, at test-sized
//! simulation windows. Absolute numbers use small windows, so thresholds
//! are generous; the full-window numbers live in EXPERIMENTS.md.

use clme::core::engine::EngineKind;
use clme::counters::layout::MetadataLayout;
use clme::ecc::reliability;
use clme::sim::{run_benchmark, SimParams};
use clme::types::SystemConfig;

fn params() -> SimParams {
    SimParams {
        functional_warmup_accesses: 60_000,
        warmup_per_core: 30_000,
        measure_per_core: 40_000,
    }
}

#[test]
fn counterless_slows_irregular_workloads() {
    // Section III: counterless costs ~9% on irregular workloads.
    let cfg = SystemConfig::isca_table1();
    let base = run_benchmark(&cfg, EngineKind::None, "bfs", params());
    let cxl = run_benchmark(&cfg, EngineKind::Counterless, "bfs", params());
    let perf = cxl.performance_vs(&base);
    assert!(
        perf < 0.97,
        "counterless should cost several percent: {perf}"
    );
    assert!(perf > 0.75, "but not collapse: {perf}");
}

#[test]
fn counter_light_recovers_most_of_the_loss() {
    // Fig. 16: Counter-light ≈ 98% of no-encryption performance.
    let cfg = SystemConfig::isca_table1();
    let base = run_benchmark(&cfg, EngineKind::None, "canneal", params());
    let cxl = run_benchmark(&cfg, EngineKind::Counterless, "canneal", params());
    let light = run_benchmark(&cfg, EngineKind::CounterLight, "canneal", params());
    assert!(
        light.performance_vs(&base) > cxl.performance_vs(&base),
        "counter-light must beat counterless on irregular workloads"
    );
    assert!(light.performance_vs(&base) > 0.93);
}

#[test]
fn counter_light_read_stall_is_sub_two_ns_on_memo_hits() {
    // Section IV-D: +0.75 ns over the 1 ns baseline check.
    let cfg = SystemConfig::isca_table1();
    let light = run_benchmark(&cfg, EngineKind::CounterLight, "streamcluster", params());
    // streamcluster barely writes, so essentially all blocks stay counter
    // mode with memoized counter 0 and the mean sits at the 1.75 ns fast
    // path. A tolerance band (not exact equality) keeps the claim robust
    // to the rare counterless block pushing the mean a few ps: the paper's
    // claim is "sub-2 ns", not a bit pattern.
    let stall_ns = light.engine_stats.mean_stall_after_data().as_ns_f64();
    assert!(
        (stall_ns - 1.75).abs() <= 0.1,
        "memo-hit stall should sit near 1.75 ns: {stall_ns}"
    );
    assert!(stall_ns < 2.0, "Section IV-D claims sub-2 ns: {stall_ns}");
}

#[test]
fn counter_light_reads_never_fetch_counters() {
    let cfg = SystemConfig::isca_table1();
    let light = run_benchmark(&cfg, EngineKind::CounterLight, "mcf", params());
    assert_eq!(light.engine_stats.counter_fetches, 0);
    assert_eq!(light.engine_stats.counter_late_fraction(), 0.0);
}

#[test]
fn counter_mode_counters_sometimes_arrive_late() {
    // Fig. 8: under counter mode, counters arrive after the data for a
    // meaningful fraction of misses.
    let cfg = SystemConfig::isca_table1();
    let cm = run_benchmark(&cfg, EngineKind::CounterMode, "canneal", params());
    let late = cm.engine_stats.counter_late_fraction();
    assert!(late > 0.05, "expected late counters, got {late}");
}

#[test]
fn starved_bandwidth_switches_writebacks_to_counterless() {
    // Figs. 20–21 mechanism.
    // Longer windows here: the first 100 µs epoch starts in counter mode
    // and only trips once the access count crosses the threshold, so a
    // tiny window under-measures the switched fraction.
    let wide = SimParams {
        functional_warmup_accesses: 100_000,
        warmup_per_core: 60_000,
        measure_per_core: 80_000,
    };
    let low = SystemConfig::low_bandwidth();
    let light = run_benchmark(&low, EngineKind::CounterLight, "canneal", wide);
    let starved = light.engine_stats.counterless_writeback_fraction();
    let high = SystemConfig::isca_table1();
    let light_high = run_benchmark(&high, EngineKind::CounterLight, "canneal", params());
    let plentiful = light_high.engine_stats.counterless_writeback_fraction();
    // The claim under test is the *mechanism* — the epoch monitor flips
    // writebacks to counterless exactly when bandwidth is starved — so
    // assert a wide separation between the two regimes rather than
    // window-size-sensitive absolute cutoffs.
    assert!(
        starved > 0.7,
        "starved bandwidth must switch writebacks: {starved}"
    );
    assert!(
        plentiful < 0.5,
        "plentiful bandwidth should mostly use counter mode: {plentiful}"
    );
    assert!(
        starved > plentiful + 0.3,
        "regimes must separate clearly: starved {starved} vs plentiful {plentiful}"
    );
}

#[test]
fn metadata_capacity_overhead_matches_split_counters() {
    // Section IV-D: counters + tree ≈ 1.6% of memory.
    let layout = MetadataLayout::new((128u64 << 30) / 64);
    let frac = layout.overhead_fraction();
    assert!((0.014..0.02).contains(&frac), "metadata overhead {frac}");
}

#[test]
fn due_model_matches_section_4e() {
    let synergy = reliability::synergy_due_probability();
    let light = reliability::counter_light_due_probability();
    let filtered = reliability::counter_light_due_with_entropy_filter(0.001);
    assert!((light / synergy - 19.0 / 9.0).abs() < 1e-9);
    assert!(filtered < light);
    assert!((filtered / synergy - 1.001).abs() < 1e-9);
}

#[test]
fn aes256_widens_the_counterless_gap() {
    // Fig. 16: the Counter-light advantage grows with AES latency.
    use clme::types::config::AesStrength;
    let cfg128 = SystemConfig::isca_table1();
    let cfg256 = SystemConfig::isca_table1().with_aes(AesStrength::Aes256);
    let b128 = run_benchmark(&cfg128, EngineKind::None, "bfs", params());
    let b256 = run_benchmark(&cfg256, EngineKind::None, "bfs", params());
    let cxl128 = run_benchmark(&cfg128, EngineKind::Counterless, "bfs", params());
    let cxl256 = run_benchmark(&cfg256, EngineKind::Counterless, "bfs", params());
    assert!(
        cxl256.performance_vs(&b256) < cxl128.performance_vs(&b128),
        "AES-256 must hurt counterless more"
    );
}
