//! `clme figures`: Table I and every simulator figure of the paper's
//! evaluation from one run.
//!
//! The figures read one de-duplicated list of cells, [`figure_cells`]:
//! (configuration, engine variant, benchmark), all at the default
//! workload seed, so every engine in a figure runs the same workload
//! draw. Each cell is simulated once, in parallel; each figure then
//! looks up the results it needs by key and prints its table. The
//! sections print in DESIGN.md §3 order; `goldens/figures.txt` pins the
//! whole text.

use crate::args::{config_by_name, default_threads, unknown_flag};
use clme_bench::{geomean, mean, params_from_env};
use clme_core::engine::{EncryptionEngine, EngineKind};
use clme_core::{build_engine, CounterLightEngine, CounterModeConfig, CounterModeEngine};
use clme_obs::NopSink;
use clme_sim::{par_map, simulate, MachineArena, SimParams, SimResult};
use clme_types::config::AesStrength;
use clme_types::stats::Histogram;
use clme_types::{SystemConfig, TimeDelta};
use clme_workloads::suites::{address_space_blocks, DEFAULT_SEED};
use clme_workloads::suites::{EXTENDED_GRAPH, IRREGULAR, REGULAR};
use std::collections::HashMap;
use std::fmt;

pub const USAGE: &str = "\
usage: clme figures

figures prints Table I and every simulator figure of the paper's
evaluation: Figs. 1, 5, 8, 9 and 16-23, the no-switch ablation and the
sensitivity sweeps. It simulates each distinct (config, engine,
benchmark) cell once, at the default workload seed, in parallel, and
takes no flags; CLME_FULL=1 selects the long evaluation windows. The
output is deterministic; goldens/figures.txt pins it.";

pub fn parse(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        None => Ok(()),
        Some("--help" | "-h") => Err(String::new()),
        Some(other) => Err(unknown_flag(other)),
    }
}

pub fn run((): ()) -> i32 {
    print!("{}", figure_text(params_from_env(), default_threads()));
    0
}

/// Appends formatted text to a `String`.
macro_rules! put {
    ($out:expr, $($arg:tt)*) => {
        $out.push_str(&format!($($arg)*))
    };
}

/// The engine a figure cell runs: a stock engine or one of two ablations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Variant {
    Stock(EngineKind),
    /// Fig. 9: counter mode fetching only the missing block's counter on
    /// a read miss, with no writeback metadata and no tree accesses.
    SingleCounterRead,
    /// The §VI ablation: Counter-light with dynamic switching off, so
    /// every writeback uses counter mode.
    NoSwitch,
}

const NONE: Variant = Variant::Stock(EngineKind::None);
const CXL: Variant = Variant::Stock(EngineKind::Counterless);
const LIGHT: Variant = Variant::Stock(EngineKind::CounterLight);
const MODE: Variant = Variant::Stock(EngineKind::CounterMode);

impl Variant {
    fn engine(self, cfg: &SystemConfig) -> Box<dyn EncryptionEngine> {
        let blocks = address_space_blocks();
        match self {
            Variant::Stock(kind) => build_engine(kind, cfg, blocks),
            Variant::SingleCounterRead => Box::new(CounterModeEngine::with_mode_config(
                cfg,
                blocks,
                CounterModeConfig::single_counter_read_only(),
            )),
            Variant::NoSwitch => Box::new(CounterLightEngine::with_dynamic_switching(
                cfg, blocks, false,
            )),
        }
    }
}

impl fmt::Display for Variant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Variant::Stock(kind) => write!(f, "{kind}"),
            Variant::SingleCounterRead => f.write_str("counter-mode-single-read"),
            Variant::NoSwitch => f.write_str("counter-light-no-switch"),
        }
    }
}

/// Figs. 21 and 22: thresholds 10/60/80% at 6.4 GB/s.
const THRESHOLDS: [&str; 3] = ["low-bw+thr10", "low-bw", "low-bw+thr80"];
/// Sensitivity: memoization-table entries 16/128/1024.
const MEMO_SIZES: [&str; 3] = ["table1+memo16", "table1", "table1+memo1024"];
/// Sensitivity: counter-cache capacity 16/64/256 KB.
const COUNTER_CACHES: [&str; 3] = ["table1+ctr16k", "table1", "table1+ctr256k"];
/// Sensitivity: epoch length 25/100/400 µs at 6.4 GB/s.
const EPOCHS: [&str; 3] = ["low-bw+epoch25us", "low-bw", "low-bw+epoch400us"];
/// The representative irregular workloads of the sensitivity sweeps.
const SWEPT: [&str; 3] = ["bfs", "canneal", "mcf"];

/// The configuration a figure label names: a grid configuration
/// (`table1`, `low-bw`), optionally with one parameter changed after a
/// `+`. A sweep point equal to Table I's own value (the 60% threshold,
/// 128 memo entries, a 64 KB counter cache, a 100 µs epoch) is the bare
/// base label, so it shares the base configuration's cells.
///
/// # Panics
///
/// Panics on a label no figure uses.
pub fn config(label: &str) -> SystemConfig {
    let (base, change) = label.split_once('+').unwrap_or((label, ""));
    let mut cfg = config_by_name(base).unwrap_or_else(|| panic!("no configuration {base}"));
    match change {
        "" => {}
        "aes256" => cfg.aes = AesStrength::Aes256,
        "memo16" => cfg.memo_entries = 16,
        "memo1024" => cfg.memo_entries = 1024,
        "ctr16k" => cfg.counter_cache_bytes = 16 << 10,
        "ctr256k" => cfg.counter_cache_bytes = 256 << 10,
        "thr10" => cfg.bandwidth_threshold = 0.10,
        "thr80" => cfg.bandwidth_threshold = 0.80,
        "epoch25us" => cfg.epoch_length = TimeDelta::from_us(25),
        "epoch400us" => cfg.epoch_length = TimeDelta::from_us(400),
        other => panic!("no configuration change {other}"),
    }
    cfg
}

/// One simulation a figure reads: (configuration label, engine variant,
/// benchmark).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FigureCell(pub &'static str, pub Variant, pub &'static str);

impl FigureCell {
    pub fn label(&self) -> String {
        format!("{}/{}/{}", self.0, self.1, self.2)
    }

    /// Simulates the cell, unobserved, at `params` windows.
    fn run(self, params: SimParams) -> SimResult {
        let FigureCell(label, variant, bench) = self;
        let (cfg, arena) = (config(label), &mut MachineArena::default());
        let engine = |cfg: &SystemConfig| variant.engine(cfg);
        simulate(&cfg, engine, bench, params, DEFAULT_SEED, NopSink, arena).0
    }
}

/// Every cell the figures read, each once, in first-use order.
pub fn figure_cells() -> Vec<FigureCell> {
    let table1: &[&str] = &["table1"];
    let low_bw: &[&str] = &["low-bw"];
    let both_aes: &[&str] = &["table1", "table1+aes256"];
    let both_bw: &[&str] = &["table1", "low-bw"];
    let needs: [(&[&str], &[Variant], &[&str]); 17] = [
        (table1, &[NONE, CXL, LIGHT, MODE], &["bfs"]), // Fig. 1
        (table1, &[NONE, CXL], &["pointer_chase"]),    // §III
        (both_aes, &[NONE, CXL], IRREGULAR),           // Fig. 5
        (table1, &[MODE], IRREGULAR),                  // Fig. 8
        (table1, &[NONE, Variant::SingleCounterRead, CXL], IRREGULAR), // Fig. 9
        (both_aes, &[NONE, CXL, LIGHT], IRREGULAR),    // Figs. 16, 17, 19
        (both_bw, &[NONE, CXL, LIGHT], IRREGULAR),     // Figs. 18, 20, 21
        (&THRESHOLDS, &[CXL, LIGHT], IRREGULAR),       // Figs. 21, 22
        (table1, &[NONE, CXL, LIGHT], REGULAR),        // Fig. 23
        (low_bw, &[CXL, LIGHT], REGULAR),              // Fig. 23
        (table1, &[CXL, Variant::NoSwitch, LIGHT], IRREGULAR), // ablation
        (table1, &[NONE], &SWEPT),                     // sensitivity
        (&MEMO_SIZES, &[LIGHT], &SWEPT),
        (&COUNTER_CACHES, &[LIGHT], &SWEPT),
        (low_bw, &[CXL], &SWEPT),
        (&EPOCHS, &[LIGHT], &SWEPT),
        (table1, &[NONE, CXL, LIGHT], EXTENDED_GRAPH),
    ];
    let mut cells: Vec<FigureCell> = Vec::new();
    for (configs, variants, benches) in needs {
        for &config in configs {
            for &variant in variants {
                for &bench in benches {
                    let cell = FigureCell(config, variant, bench);
                    if !cells.contains(&cell) {
                        cells.push(cell);
                    }
                }
            }
        }
    }
    cells
}

/// The simulated figure cells, by key.
pub struct FigureResults(HashMap<FigureCell, SimResult>);

impl FigureResults {
    /// Simulates every cell once on `threads` workers.
    pub fn simulate(cells: &[FigureCell], params: SimParams, threads: usize) -> FigureResults {
        let results = par_map(cells, threads, |cell, _: &mut ()| cell.run(params));
        FigureResults(cells.iter().copied().zip(results).collect())
    }

    /// The result of one cell.
    ///
    /// # Panics
    ///
    /// Panics, naming the cell, if [`figure_cells`] does not list it.
    pub fn get(&self, config: &'static str, variant: Variant, bench: &'static str) -> &SimResult {
        let cell = FigureCell(config, variant, bench);
        self.0
            .get(&cell)
            .unwrap_or_else(|| panic!("figure cell {} is not in figure_cells()", cell.label()))
    }

    /// Variant `v`'s performance normalised to `base`'s, both on `config`.
    fn perf(&self, config: &'static str, v: Variant, base: Variant, bench: &'static str) -> f64 {
        self.get(config, v, bench)
            .performance_vs(self.get(config, base, bench))
    }
}

/// The whole `clme figures` text at `params` windows, simulated on
/// `threads` workers; the same text for any worker count.
pub fn figure_text(params: SimParams, threads: usize) -> String {
    let r = FigureResults::simulate(&figure_cells(), params, threads);
    let mut out = String::new();
    table1(&mut out);
    for figure in [
        fig01, fig05, fig08, fig09, fig16, fig17, fig18, fig19, fig20, fig21, fig22, fig23,
        ablation, sweeps,
    ] {
        figure(&r, &mut out);
    }
    out
}

/// A figure table: one row of values per benchmark.
type Rows = Vec<(String, Vec<f64>)>;

/// One row per benchmark of `benches`, its values from `row`.
fn rows(benches: &[&'static str], mut row: impl FnMut(&'static str) -> Vec<f64>) -> Rows {
    benches.iter().map(|&b| (b.to_string(), row(b))).collect()
}

/// Column `i` of a table's rows.
fn column(rows: &Rows, i: usize) -> Vec<f64> {
    rows.iter().map(|(_, v)| v[i]).collect()
}

/// Prints a fixed-width table: one row per benchmark, one column per
/// series, plus a mean row (geometric when every value is positive).
fn table(out: &mut String, title: &str, columns: &[&str], rows: &Rows) {
    put!(out, "\n=== {title} ===\n{:<16}", "benchmark");
    for col in columns {
        put!(out, "{col:>16}");
    }
    for (name, values) in rows {
        put!(out, "\n{name:<16}");
        for v in values {
            put!(out, "{v:>16.4}");
        }
    }
    put!(out, "\n{:<16}", "mean");
    for i in 0..columns.len() {
        let col = column(rows, i);
        let positive = col.iter().all(|&v| v > 0.0);
        let mean_of = if positive { geomean } else { mean };
        put!(out, "{:>16.4}", mean_of(&col));
    }
    put!(out, "\n");
}

/// Table I: every parameter the paper's table lists, from the same
/// `SystemConfig` the simulations use.
fn table1(out: &mut String) {
    let c = SystemConfig::isca_table1();
    put!(
        out,
        "=== Table I: System Configuration ===\n\
         CPU                      {cores} OoO cores, {ghz:.1} GHz\n\
         Prefetchers              next-line: L1$/L2$; stride: L1$ (degree {deg1}), L2$ (degree {deg2})\n\
         L1d$/L2$/L3$             {l1}KB/{l2}MB/{l3}MB; {t1}/{t2}/{t3}\n\
         Counter$/Memo table      {ctr}KB {ways}-way / {memo} entries\n\
         AES-128/AES-256/SHA-3    {aes128}/{aes256}/{sha3}\n\
         Memory                   {gb} GB, {gbps:.1} GB/s\n\
         tCL/tRCD/tRP             {tcl}/{trcd}/{trp}\n\
         Channels/Ranks           {channels}/{ranks}\n\
         BW utilisation threshold {threshold:.0}% ({accesses} accesses per {epoch} epoch)\n",
        cores = c.cores,
        ghz = c.core_freq_hz as f64 / 1e9,
        deg1 = c.stride_degree_l1,
        deg2 = c.stride_degree_l2,
        l1 = c.l1d.capacity_bytes >> 10,
        l2 = c.l2.capacity_bytes >> 20,
        l3 = c.llc.capacity_bytes >> 20,
        t1 = c.l1d.latency,
        t2 = c.l2.latency,
        t3 = c.llc.latency,
        ctr = c.counter_cache_bytes >> 10,
        ways = c.counter_cache_ways,
        memo = c.memo_entries,
        aes128 = c.aes128_latency,
        aes256 = c.aes256_latency,
        sha3 = c.sha3_latency,
        gb = c.memory_bytes >> 30,
        gbps = c.dram_bandwidth_bytes_per_s as f64 / 1e9,
        tcl = c.t_cl,
        trcd = c.t_rcd,
        trp = c.t_rp,
        channels = c.channels,
        ranks = c.ranks,
        threshold = c.bandwidth_threshold * 100.0,
        accesses = (c.max_accesses_per_epoch() as f64 * c.bandwidth_threshold) as u64,
        epoch = c.epoch_length,
    );
}

/// `n / d`, or 0 when `d` is 0.
fn ratio(n: u64, d: u64) -> f64 {
    if d > 0 {
        n as f64 / d as f64
    } else {
        0.0
    }
}

/// Fig. 1 — the qualitative comparison table, measured on bfs: overhead
/// accesses per read miss and per writeback, and the stall after data.
fn fig01(r: &FigureResults, out: &mut String) {
    put!(out, "=== Fig. 1 (measured on bfs, 25.6 GB/s) ===\n");
    let [scheme, misses, fetches, meta] = ["scheme", "rd-miss", "ctr-fetch/rd", "meta-acc/wb"];
    put!(
        out,
        "{scheme:<16}{misses:>14}{fetches:>14}{meta:>16}{:>18}\n",
        "stall-after-data"
    );
    for variant in [NONE, CXL, LIGHT, MODE] {
        let s = &r.get("table1", variant, "bfs").engine_stats;
        let per_read = ratio(s.counter_fetches, s.read_misses);
        let overhead = (s.metadata_reads + s.metadata_writes).saturating_sub(s.counter_fetches);
        let per_wb = ratio(overhead, s.writebacks);
        let (name, stall) = (variant.to_string(), s.mean_stall_after_data().to_string());
        let misses = s.read_misses;
        put!(
            out,
            "{name:<16}{misses:>14}{per_read:>14.3}{per_wb:>16.3}{stall:>18}\n"
        );
    }
    put!(
        out,
        "\npaper Fig. 1: counterless = no overhead accesses but always stalls AES;\n\
         counter-light = no read overhead, writeback overhead only in quiet epochs, stalls only on memo miss;\n\
         counter mode = counter accesses on every miss and writeback.\n"
    );
}

/// Fig. 5 — counterless performance normalised to no encryption under
/// AES-128 and AES-256, after the §III pointer-chase per-miss latency.
fn fig05(r: &FigureResults, out: &mut String) {
    let base = r.get("table1", NONE, "pointer_chase");
    let cxl = r.get("table1", CXL, "pointer_chase");
    let from = base.engine_stats.mean_read_latency();
    let to = cxl.engine_stats.mean_read_latency();
    let delta = cxl.miss_latency_overhead_vs(base);
    put!(
        out,
        "Section III microbenchmark (pointer chase): per-miss latency {from} -> {to} \
         (delta {delta:.1} ns; paper: 10 ns)\n"
    );
    let rows = rows(IRREGULAR, |b| {
        let vs_none = |config| r.perf(config, CXL, NONE, b);
        vec![vs_none("table1"), vs_none("table1+aes256")]
    });
    let title = "Fig. 5: counterless performance normalised to no encryption";
    table(out, title, &["AES-128", "AES-256"], &rows);
    let (a128, a256) = (geomean(&column(&rows, 0)), geomean(&column(&rows, 1)));
    put!(
        out,
        "paper-reported averages: 0.91 (AES-128), ~0.87 (AES-256); measured: {a128:.3}, {a256:.3}\n"
    );
}

/// Fig. 8 — (counter arrival − data arrival) over all LLC misses under
/// counter mode with RMCC memoization.
fn fig08(r: &FigureResults, out: &mut String) {
    let mut aggregate = Histogram::new(-30_000, 5_000, 12);
    let mut late_fracs = Vec::new();
    put!(
        out,
        "=== Fig. 8: counter arrival minus data arrival (counter mode / RMCC) ===\n"
    );
    for &bench in IRREGULAR {
        let stats = &r.get("table1", MODE, bench).engine_stats;
        let hist = &stats.counter_skew;
        late_fracs.push((bench, stats.counter_late_fraction()));
        for i in 0..hist.len() {
            for _ in 0..hist.bucket_count(i) {
                aggregate.add(hist.bucket_lo(i));
            }
        }
        for _ in 0..hist.underflow() {
            aggregate.add(i64::MIN / 2);
        }
        for _ in 0..hist.overflow() {
            aggregate.add(i64::MAX / 2);
        }
    }
    let total = aggregate.total() as f64;
    let (under, over) = (aggregate.underflow() as f64, aggregate.overflow() as f64);
    put!(out, "{:>20} {:>10}\n", "skew bucket (ns)", "% misses");
    put!(out, "{:>20} {:>9.1}%\n", "< -30", under / total * 100.0);
    for i in 0..aggregate.len() {
        let (lo, hi) = (aggregate.bucket_lo(i) / 1000, aggregate.bucket_hi(i) / 1000);
        let percent = aggregate.bucket_fraction(i) * 100.0;
        put!(out, "{lo:>9} .. {hi:>7} {percent:>9.1}%\n");
    }
    put!(out, "{:>20} {:>9.1}%\n", ">= 30", over / total * 100.0);
    put!(
        out,
        "\nper-benchmark fraction of misses with counter later than data (paper avg: 22%):\n"
    );
    for (bench, frac) in &late_fracs {
        put!(out, "  {bench:<16} {:.1}%\n", frac * 100.0);
    }
    let avg = late_fracs.iter().map(|(_, f)| f).sum::<f64>() / late_fracs.len() as f64;
    put!(out, "  average          {:.1}%\n", avg * 100.0);
}

/// Fig. 9 — the overhead strictly due to the one counter read per LLC
/// read miss, with counterless as the reference series.
fn fig09(r: &FigureResults, out: &mut String) {
    let rows = rows(IRREGULAR, |b| {
        let vs_none = |v| r.perf("table1", v, NONE, b);
        vec![vs_none(Variant::SingleCounterRead), vs_none(CXL)]
    });
    let title = "Fig. 9: slowdown from the one counter read per LLC miss (reference: counterless)";
    table(out, title, &["single-ctr-read", "counterless"], &rows);
    let overhead = (1.0 - geomean(&column(&rows, 0))) * 100.0;
    put!(
        out,
        "paper: the single counter read alone costs ~7%; measured overhead: {overhead:.1}%\n"
    );
}

/// The columns of Figs. 16 and 17: counterless and Counter-light under
/// AES-128 and AES-256, each compared with no encryption by `metric`.
fn aes_rows(r: &FigureResults, metric: fn(&SimResult, &SimResult) -> f64) -> Rows {
    let columns = [
        ("table1", CXL),
        ("table1", LIGHT),
        ("table1+aes256", CXL),
        ("table1+aes256", LIGHT),
    ];
    rows(IRREGULAR, |b| {
        columns
            .map(|(config, v)| metric(r.get(config, v, b), r.get(config, NONE, b)))
            .to_vec()
    })
}

const AES_COLUMNS: [&str; 4] = ["cxl-128", "light-128", "cxl-256", "light-256"];

/// Fig. 16 — performance normalised to no encryption at 25.6 GB/s.
fn fig16(r: &FigureResults, out: &mut String) {
    let rows = aes_rows(r, SimResult::performance_vs);
    let title = "Fig. 16: performance normalised to no encryption (25.6 GB/s)";
    table(out, title, &AES_COLUMNS, &rows);
    let gain =
        |cxl, light| (geomean(&column(&rows, light)) / geomean(&column(&rows, cxl)) - 1.0) * 100.0;
    let (g128, g256) = (gain(0, 1), gain(2, 3));
    put!(
        out,
        "Counter-light over counterless: +{g128:.1}% (AES-128; paper 8.6%), \
         +{g256:.1}% (AES-256; paper 13.0%)\n"
    );
}

/// Fig. 17 — average LLC miss latency overhead versus no encryption.
fn fig17(r: &FigureResults, out: &mut String) {
    let rows = aes_rows(r, SimResult::miss_latency_overhead_vs);
    let title = "Fig. 17: LLC miss latency overhead vs no encryption (ns)";
    table(out, title, &AES_COLUMNS, &rows);
    let saving = |cxl, light| mean(&column(&rows, cxl)) - mean(&column(&rows, light));
    let (s128, s256) = (saving(0, 1), saving(2, 3));
    put!(
        out,
        "Counter-light saving vs counterless: {s128:.1} ns (AES-128; paper 7.2), \
         {s256:.1} ns (AES-256; paper 11.2)\n"
    );
}

/// Fig. 18 — DRAM bandwidth utilisation at 25.6 and 6.4 GB/s.
fn fig18(r: &FigureResults, out: &mut String) {
    let rows = rows(IRREGULAR, |b| {
        let util = |config| [NONE, CXL, LIGHT].map(|v| r.get(config, v, b).bandwidth_utilization);
        [util("table1"), util("low-bw")].concat()
    });
    let columns = [
        "none@25.6",
        "cxl@25.6",
        "light@25.6",
        "none@6.4",
        "cxl@6.4",
        "light@6.4",
    ];
    table(out, "Fig. 18: DRAM bandwidth utilisation", &columns, &rows);
    let [none, light, low_light] = [0, 2, 5].map(|i| mean(&column(&rows, i)) * 100.0);
    put!(
        out,
        "paper: none 22% -> light 36% @25.6; ~73% @6.4. \
         measured: {none:.0}% -> {light:.0}% @25.6; {low_light:.0}% @6.4\n"
    );
}

/// Fig. 19 — Counter-light DRAM energy per instruction under AES-128,
/// normalised to counterless.
fn fig19(r: &FigureResults, out: &mut String) {
    let rows = rows(IRREGULAR, |b| {
        vec![r.get("table1", LIGHT, b).energy_vs(r.get("table1", CXL, b))]
    });
    let title = "Fig. 19: Counter-light energy/instruction normalised to counterless (AES-128)";
    table(out, title, &["energy ratio"], &rows);
    let saving = (1.0 - geomean(&column(&rows, 0))) * 100.0;
    put!(
        out,
        "paper: 5.1% average saving; measured saving: {saving:.1}%\n"
    );
}

/// Fig. 20 — performance at the starved 6.4 GB/s, normalised to no
/// encryption.
fn fig20(r: &FigureResults, out: &mut String) {
    let rows = rows(IRREGULAR, |b| {
        [CXL, LIGHT].map(|v| r.perf("low-bw", v, NONE, b)).to_vec()
    });
    let title = "Fig. 20: performance at 6.4 GB/s, normalised to no encryption";
    table(out, title, &["counterless", "counter-light"], &rows);
    let gaps = rows.iter().map(|(_, v)| 1.0 - v[1] / v[0]);
    let worst = gaps.fold(0.0, f64::max) * 100.0;
    let (cxl, light) = (geomean(&column(&rows, 0)), geomean(&column(&rows, 1)));
    put!(
        out,
        "worst-case Counter-light degradation vs counterless: {worst:.1}% (paper: 1.4%); \
         gmeans {light:.3} vs {cxl:.3}\n"
    );
}

/// Fig. 21 — fraction of writebacks using counterless encryption at
/// thresholds 10/60/80% and 6.4 GB/s, plus 60% at 25.6 GB/s.
fn fig21(r: &FigureResults, out: &mut String) {
    let rows = rows(IRREGULAR, |b| {
        let stats = |config| &r.get(config, LIGHT, b).engine_stats;
        let configs = [THRESHOLDS[0], THRESHOLDS[1], THRESHOLDS[2], "table1"];
        configs
            .map(|c| stats(c).counterless_writeback_fraction())
            .to_vec()
    });
    let title = "Fig. 21: fraction of writebacks using counterless encryption";
    let columns = ["10%@6.4", "60%@6.4", "80%@6.4", "60%@25.6"];
    table(out, title, &columns, &rows);
    let [t10, t60, t80, high] = [0, 1, 2, 3].map(|i| mean(&column(&rows, i)) * 100.0);
    put!(
        out,
        "paper: 100% / 91% / 70% at 6.4 GB/s and 3% at 25.6 GB/s; \
         measured: {t10:.0}% / {t60:.0}% / {t80:.0}% / {high:.0}%\n"
    );
}

/// Fig. 22 — Counter-light at thresholds 10/60/80% and 6.4 GB/s,
/// normalised to counterless.
fn fig22(r: &FigureResults, out: &mut String) {
    let rows = rows(IRREGULAR, |b| {
        THRESHOLDS.map(|c| r.perf(c, LIGHT, CXL, b)).to_vec()
    });
    let title =
        "Fig. 22: Counter-light at different thresholds (6.4 GB/s), normalised to counterless";
    table(out, title, &["thr 10%", "thr 60%", "thr 80%"], &rows);
}

/// Fig. 23 — regular workloads at 25.6 GB/s normalised to no
/// encryption, plus Counter-light vs counterless at quarter bandwidth.
fn fig23(r: &FigureResults, out: &mut String) {
    let rows = rows(REGULAR, |b| {
        let vs_none = |v| r.perf("table1", v, NONE, b);
        vec![
            vs_none(CXL),
            vs_none(LIGHT),
            r.perf("low-bw", LIGHT, CXL, b),
        ]
    });
    let title =
        "Fig. 23: regular workloads at 25.6 GB/s (last column: light vs counterless at 6.4 GB/s)";
    let columns = ["counterless", "counter-light", "light/cxl@6.4"];
    table(out, title, &columns, &rows);
    let [cxl, light, low] = [0, 1, 2].map(|i| geomean(&column(&rows, i)) * 100.0);
    put!(
        out,
        "paper: counterless 96.6%, counter-light 99.5%, quarter-BW retention 99.5%; \
         measured: {cxl:.1}% / {light:.1}% / {low:.1}%\n"
    );
}

/// §VI ablation — Counter-light with dynamic switching off, normalised
/// to counterless at 25.6 GB/s.
fn ablation(r: &FigureResults, out: &mut String) {
    let rows = rows(IRREGULAR, |b| {
        let pinned = r.perf("table1", Variant::NoSwitch, CXL, b);
        vec![pinned, r.perf("table1", LIGHT, CXL, b)]
    });
    let title = "Ablation: Counter-light without dynamic switching, vs counterless (25.6 GB/s)";
    table(out, title, &["no-switch", "with-switch"], &rows);
    let avg = (geomean(&column(&rows, 0)) - 1.0) * 100.0;
    put!(
        out,
        "paper: no-switch averages -20% vs counterless (omnetpp -51%; GraphColoring improves); \
         measured avg: {avg:.1}%\n"
    );
}

/// Design-choice sweeps beyond the paper's figures: memoization-table
/// and counter-cache capacity, epoch length, and the two extended
/// graphBIG kernels.
fn sweeps(r: &FigureResults, out: &mut String) {
    // Counter-light at each sweep point against one baseline cell.
    let sweep = |points: [&'static str; 3], (base, base_variant): (&'static str, Variant)| {
        rows(&SWEPT, |b| {
            let baseline = r.get(base, base_variant, b);
            points
                .map(|c| r.get(c, LIGHT, b).performance_vs(baseline))
                .to_vec()
        })
    };
    let title = "Sensitivity: Counter-light vs memo-table entries (perf vs no-encryption)";
    let swept = sweep(MEMO_SIZES, ("table1", NONE));
    table(out, title, &["16", "128", "1024"], &swept);
    let title = "Sensitivity: Counter-light vs counter-cache capacity (KB)";
    let swept = sweep(COUNTER_CACHES, ("table1", NONE));
    table(out, title, &["16KB", "64KB", "256KB"], &swept);
    let title = "Sensitivity: epoch length at 6.4 GB/s (perf vs counterless)";
    let swept = sweep(EPOCHS, ("low-bw", CXL));
    table(out, title, &["25us", "100us", "400us"], &swept);
    let rows = rows(EXTENDED_GRAPH, |b| {
        [CXL, LIGHT].map(|v| r.perf("table1", v, NONE, b)).to_vec()
    });
    let title = "Extended graphBIG kernels (25.6 GB/s, perf vs no-encryption)";
    table(out, title, &["counterless", "counter-light"], &rows);
}
