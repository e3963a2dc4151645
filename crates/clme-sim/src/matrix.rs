//! The parallel, deterministic run-matrix driver.
//!
//! The paper's whole evaluation is a grid of (workload × engine ×
//! configuration) simulations — Figs. 8, 16, 20–23 all sweep it.
//! [`RunMatrix`] makes that grid a first-class artifact: it enumerates
//! the cells in a stable order, derives an independent workload seed per
//! cell from the matrix seed and the cell's *label* (so adding or
//! filtering cells never shifts another cell's stream), fans the cells
//! out over `std::thread` workers, and returns one
//! [`StatsSnapshot`](crate::report::StatsSnapshot) per cell in
//! enumeration order — byte-identical no matter how many threads ran it.

use crate::report::StatsSnapshot;
use crate::run::{simulate, stock_engine, MachineArena, SimParams};
use clme_core::engine::EngineKind;
use clme_obs::{SeriesRecorder, DEFAULT_EPOCH_CYCLES};
use clme_types::rng::SplitMix64;
use clme_types::SystemConfig;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Mutex;

/// Matches `pattern` against `text` with shell-style wildcards: `*`
/// matches any run of characters (including none) and `?` any single
/// character; everything else matches literally.
///
/// Iterative star backtracking: on a mismatch only the latest `*` is
/// retried, one text byte further on, so the cost is
/// O(pattern × text) however many stars the pattern holds.
pub fn glob_match(pattern: &str, text: &str) -> bool {
    let (p, t) = (pattern.as_bytes(), text.as_bytes());
    let (mut pi, mut ti) = (0, 0);
    // The latest `*` and the text position its match currently ends at.
    let mut star: Option<(usize, usize)> = None;
    while ti < t.len() {
        match p.get(pi) {
            Some(b'*') => {
                star = Some((pi, ti));
                pi += 1;
            }
            Some(&c) if c == b'?' || c == t[ti] => {
                pi += 1;
                ti += 1;
            }
            _ => match star {
                Some((star_pi, star_ti)) => {
                    star = Some((star_pi, star_ti + 1));
                    pi = star_pi + 1;
                    ti = star_ti + 1;
                }
                None => return false,
            },
        }
    }
    p[pi..].iter().all(|&c| c == b'*')
}

/// Maps `job` over `items` on `threads` worker threads (clamped to
/// 1..=`items.len()`) and returns the results in `items` order: the one
/// parallel fan-out of the simulator's grids.
///
/// Items are handed to workers through an atomic cursor and results are
/// written back by index, so the output never depends on the thread
/// count or on scheduling as long as `job` is a pure function of its
/// item. Each worker owns one `W::default()` that it passes to every
/// job it draws, for scratch state such as machine arenas.
pub fn par_map<T, R, W, F>(items: &[T], threads: usize, job: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    W: Default,
    F: Fn(&T, &mut W) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut scratch = W::default();
                loop {
                    // Relaxed: the cursor only hands out indices; results
                    // are published through the mutex.
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(index) else {
                        break;
                    };
                    let result = job(item, &mut scratch);
                    slots.lock().expect("a worker panicked")[index] = Some(result);
                }
            });
        }
    });
    slots
        .into_inner()
        .expect("a worker panicked")
        .into_iter()
        .map(|slot| slot.expect("every item ran"))
        .collect()
}

/// One cell of the evaluation grid.
#[derive(Clone, Debug)]
pub struct MatrixCell {
    /// Benchmark name.
    pub bench: String,
    /// Engine under test.
    pub engine: EngineKind,
    /// Configuration label (stable; part of the seed derivation).
    pub config_name: String,
    /// The configuration itself.
    pub config: SystemConfig,
}

impl MatrixCell {
    /// The cell's stable label, `config/engine/benchmark` — the key used
    /// for seed derivation and snapshot file names.
    pub fn label(&self) -> String {
        format!("{}/{}/{}", self.config_name, self.engine, self.bench)
    }
}

/// The (workload × engine × config) grid plus the run parameters.
#[derive(Clone, Debug)]
pub struct RunMatrix {
    benches: Vec<String>,
    engines: Vec<EngineKind>,
    configs: Vec<(String, SystemConfig)>,
    params: SimParams,
    seed: u64,
    filter: Option<String>,
}

impl RunMatrix {
    /// Creates an empty matrix with the given window sizes and master
    /// seed. Populate it with [`benches`](Self::benches),
    /// [`engines`](Self::engines), and [`configs`](Self::configs).
    pub fn new(params: SimParams, seed: u64) -> RunMatrix {
        RunMatrix {
            benches: Vec::new(),
            engines: Vec::new(),
            configs: Vec::new(),
            params,
            seed,
            filter: None,
        }
    }

    /// Sets the benchmark axis.
    pub fn benches<I: IntoIterator<Item = S>, S: Into<String>>(mut self, benches: I) -> RunMatrix {
        self.benches = benches.into_iter().map(Into::into).collect();
        self
    }

    /// Sets the engine axis.
    pub fn engines<I: IntoIterator<Item = EngineKind>>(mut self, engines: I) -> RunMatrix {
        self.engines = engines.into_iter().collect();
        self
    }

    /// Sets the configuration axis (label + config pairs; labels must be
    /// unique — they key the seed derivation and golden file names).
    pub fn configs<I: IntoIterator<Item = (S, SystemConfig)>, S: Into<String>>(
        mut self,
        configs: I,
    ) -> RunMatrix {
        self.configs = configs.into_iter().map(|(n, c)| (n.into(), c)).collect();
        self
    }

    /// Restricts the grid to cells whose `config/engine/benchmark` label
    /// matches the glob `pattern` (`*` and `?` wildcards). Because cell
    /// seeds are label-keyed, filtering never changes a surviving cell's
    /// result. Pass `None`/omit to run everything.
    pub fn filter<S: Into<String>>(mut self, pattern: S) -> RunMatrix {
        self.filter = Some(pattern.into());
        self
    }

    /// The matrix master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The per-run window sizes.
    pub fn params(&self) -> SimParams {
        self.params
    }

    /// Enumerates the grid in its stable order: configs outermost, then
    /// engines, then benchmarks.
    pub fn cells(&self) -> Vec<MatrixCell> {
        let mut cells =
            Vec::with_capacity(self.configs.len() * self.engines.len() * self.benches.len());
        for (config_name, config) in &self.configs {
            for &engine in &self.engines {
                for bench in &self.benches {
                    let cell = MatrixCell {
                        bench: bench.clone(),
                        engine,
                        config_name: config_name.clone(),
                        config: config.clone(),
                    };
                    if let Some(pattern) = &self.filter {
                        if !glob_match(pattern, &cell.label()) {
                            continue;
                        }
                    }
                    cells.push(cell);
                }
            }
        }
        cells
    }

    /// The workload seed for one cell: a pure function of the matrix
    /// seed and the cell label, independent of enumeration order,
    /// filtering, and thread scheduling.
    pub fn cell_seed(&self, cell: &MatrixCell) -> u64 {
        SplitMix64::new(self.seed).derive(cell.label().as_bytes())
    }

    /// Runs every cell on `threads` worker threads (clamped to ≥ 1) and
    /// returns the snapshots in [`cells`](Self::cells) order.
    ///
    /// The cells go through [`par_map`], so any number of threads
    /// produces the same snapshots: each cell is a fully independent
    /// simulation seeded only by [`cell_seed`](Self::cell_seed). Each
    /// worker keeps one [`MachineArena`] per configuration and reuses its
    /// cache/DRAM allocations across the cells it draws;
    /// [`Machine::from_parts`](crate::machine::Machine::from_parts)
    /// resets the parts, so reuse is byte-invisible in the snapshots.
    pub fn run(&self, threads: usize) -> Vec<StatsSnapshot> {
        par_map(
            &self.cells(),
            threads,
            |cell, arenas: &mut HashMap<String, MachineArena>| {
                let arena = arenas.entry(cell.config_name.clone()).or_default();
                self.run_cell_reusing(cell, arena)
            },
        )
    }

    /// Runs a single cell synchronously with freshly-allocated machine
    /// state. Every matrix cell runs under a
    /// [`SeriesRecorder`](clme_obs::SeriesRecorder), so its snapshot
    /// carries the `series.*` epoch summary; sinks never perturb timing,
    /// so the remaining metrics equal an unobserved run's.
    pub fn run_cell(&self, cell: &MatrixCell) -> StatsSnapshot {
        self.run_cell_reusing(cell, &mut MachineArena::default())
    }

    /// Runs a single cell reusing `arena`'s machine allocations. The
    /// arena must only ever see cells of one configuration.
    pub fn run_cell_reusing(&self, cell: &MatrixCell, arena: &mut MachineArena) -> StatsSnapshot {
        let seed = self.cell_seed(cell);
        let (cfg, engine) = (&cell.config, stock_engine(cell.engine));
        let sink = SeriesRecorder::new(DEFAULT_EPOCH_CYCLES, cfg.core_period());
        let (result, recorder, _) =
            simulate(cfg, engine, &cell.bench, self.params, seed, sink, arena);
        let blame = recorder.blame_tally().clone();
        let series = recorder.into_series();
        StatsSnapshot::capture_with_series(&result, &cell.config_name, seed, &series, &blame)
    }
}

/// All four stock engines, in the paper's comparison order.
pub fn all_engines() -> [EngineKind; 4] {
    [
        EngineKind::None,
        EngineKind::Counterless,
        EngineKind::CounterMode,
        EngineKind::CounterLight,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RunMatrix {
        RunMatrix::new(
            SimParams {
                functional_warmup_accesses: 2_000,
                warmup_per_core: 1_000,
                measure_per_core: 4_000,
            },
            7,
        )
        .benches(["bfs", "streamcluster"])
        .engines([EngineKind::None, EngineKind::CounterLight])
        .configs([("table1", SystemConfig::isca_table1())])
    }

    #[test]
    fn cells_enumerate_in_stable_order() {
        let labels: Vec<String> = tiny().cells().iter().map(MatrixCell::label).collect();
        assert_eq!(
            labels,
            [
                "table1/no-encryption/bfs",
                "table1/no-encryption/streamcluster",
                "table1/counter-light/bfs",
                "table1/counter-light/streamcluster",
            ]
        );
    }

    #[test]
    fn cell_seeds_are_label_keyed() {
        let m = tiny();
        let cells = m.cells();
        let seeds: Vec<u64> = cells.iter().map(|c| m.cell_seed(c)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "per-cell seeds must differ");
        // Filtering the matrix must not move surviving cells' seeds.
        let filtered = tiny().benches(["streamcluster"]);
        let filtered_cells = filtered.cells();
        assert_eq!(filtered.cell_seed(&filtered_cells[0]), seeds[1]);
        // A different master seed moves every cell.
        let other = RunMatrix { seed: 8, ..tiny() };
        assert_ne!(other.cell_seed(&cells[0]), seeds[0]);
    }

    #[test]
    fn parallel_run_matches_serial_run_exactly() {
        let m = tiny();
        let serial = m.run(1);
        let parallel = m.run(4);
        assert_eq!(serial.len(), 4);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.to_json(), b.to_json(), "cell {}", a.label());
        }
    }

    #[test]
    fn run_cell_is_what_run_runs() {
        let m = tiny();
        let all = m.run(2);
        let lone = m.run_cell(&m.cells()[2]);
        assert_eq!(all[2], lone);
    }

    #[test]
    fn glob_matcher_semantics() {
        assert!(glob_match("*", "anything/at/all"));
        assert!(glob_match("table1/*/bfs", "table1/counter-light/bfs"));
        assert!(!glob_match("table1/*/bfs", "table1/counter-light/mcf"));
        assert!(glob_match("*counter*", "table1/counter-mode/bfs"));
        assert!(glob_match("table?", "table1"));
        assert!(!glob_match("table?", "table12"));
        assert!(glob_match("", ""));
        assert!(!glob_match("", "x"));
    }

    /// The recursive matcher `glob_match` replaced: exponential in the
    /// number of stars, kept as the reference semantics.
    fn recursive_glob_match(p: &[u8], t: &[u8]) -> bool {
        match p.split_first() {
            None => t.is_empty(),
            Some((b'*', rest)) => (0..=t.len()).any(|skip| recursive_glob_match(rest, &t[skip..])),
            Some((b'?', rest)) => !t.is_empty() && recursive_glob_match(rest, &t[1..]),
            Some((&c, rest)) => t.first() == Some(&c) && recursive_glob_match(rest, &t[1..]),
        }
    }

    #[test]
    fn glob_matcher_agrees_with_the_recursive_reference() {
        let patterns = [
            "",
            "*",
            "**",
            "?",
            "??",
            "*?",
            "?*",
            "*/*",
            "*/*/*",
            "a*",
            "*a",
            "*a*",
            "a*b",
            "a*b*c",
            "*ab*",
            "a?c",
            "a**c",
            "?*?",
            "*?*?*",
            "table1/*/bfs",
            "table?/*",
            "*/counter-*/*",
            "*counter*",
            "*-light/*s",
            "low-bw/*/m?f",
            "*bfs",
            "*bfs*x",
            "aa*aa",
            "*aaa*b",
            "a*a*a*a*b",
        ];
        let texts = [
            "",
            "a",
            "b",
            "ab",
            "abc",
            "aab",
            "acb",
            "aaab",
            "aaaaaaab",
            "aaaaaaaa",
            "a/b",
            "a/b/c",
            "aa/aa",
            "table1/counter-light/bfs",
            "table1/counter-mode/bfs",
            "low-bw/no-encryption/mcf",
            "low-bw/counter-light/streamcluster",
            "table12",
        ];
        for pattern in patterns {
            for text in texts {
                assert_eq!(
                    glob_match(pattern, text),
                    recursive_glob_match(pattern.as_bytes(), text.as_bytes()),
                    "{pattern:?} vs {text:?}"
                );
            }
        }
    }

    #[test]
    fn many_stars_match_promptly() {
        // The recursive matcher took tens of seconds on this pattern.
        let started = std::time::Instant::now();
        assert!(!glob_match(
            "*?*?*?*?*?*?*?*?*?*?*?*z",
            "low-bw/counter-light/streamcluster"
        ));
        assert!(glob_match(
            "*?*?*?*?*?*?*?*?*?*?*?*r",
            "low-bw/counter-light/streamcluster"
        ));
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
    }

    #[test]
    fn filter_restricts_cells_without_moving_seeds() {
        let full = tiny();
        let full_cells = full.cells();
        let filtered = tiny().filter("*/counter-light/*");
        let cells = filtered.cells();
        let labels: Vec<String> = cells.iter().map(MatrixCell::label).collect();
        assert_eq!(
            labels,
            [
                "table1/counter-light/bfs",
                "table1/counter-light/streamcluster"
            ]
        );
        // Surviving cells keep their label-keyed seeds.
        assert_eq!(
            filtered.cell_seed(&cells[0]),
            full.cell_seed(&full_cells[2])
        );
        // A pattern matching nothing yields an empty grid, not an error.
        assert!(tiny().filter("nope/*").cells().is_empty());
    }

    #[test]
    fn arena_reuse_is_byte_invisible() {
        let m = tiny();
        let cells = m.cells();
        let mut arena = MachineArena::default();
        let first_fresh = m.run_cell(&cells[0]);
        let first_reused = m.run_cell_reusing(&cells[0], &mut arena);
        assert_eq!(first_fresh.to_json(), first_reused.to_json());
        // The arena now holds used parts; a different cell through the
        // same arena must still match a fresh machine byte-for-byte.
        let second_fresh = m.run_cell(&cells[3]);
        let second_reused = m.run_cell_reusing(&cells[3], &mut arena);
        assert_eq!(second_fresh.to_json(), second_reused.to_json());
    }
}
