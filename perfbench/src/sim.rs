//! The `sim-grid` workload: a fixed slice of the `goldens/full`
//! evaluation grid — all four engines × {bfs, canneal, mcf} ×
//! {table1, low-bw} — at the figure-harness windows, on two workers.
//!
//! Every cell's snapshot must equal its golden byte for byte, so the
//! simulated inputs are pinned to the golden matrix seed; `--seed`
//! permutes the order the workers draw cells in.

use crate::calib::{self, Calibrator, Mark, Scaled};
use crate::stats::{self, ratio, summarize};
use crate::trace::{self, Accounting, ThreadTrace};
use crate::{Args, Report};
use clme_core::build_engine;
use clme_core::engine::EngineKind;
use clme_obs::{SeriesRecorder, DEFAULT_EPOCH_CYCLES};
use clme_sim::matrix::all_engines;
use clme_sim::{Machine, RunMatrix, SimParams, StatsSnapshot};
use clme_types::rng::SplitMix64;
use clme_types::SystemConfig;
use clme_workloads::suites;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The master seed `goldens/full` was generated with.
const GOLDEN_SEED: u64 = 0x00C0_FFEE;

/// Benchmarks of the grid slice.
const BENCHES: [&str; 3] = ["bfs", "canneal", "mcf"];

/// Worker threads.
const WORKERS: usize = 2;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Whole passes an untraced run makes at least: 120 cells, enough for
/// the p90 tail (ten cells beyond it) even when a slow host would fit
/// fewer into the run's seconds.
const MIN_PASSES: usize = 5;

/// The figure-harness windows `goldens/full` was generated with.
fn params() -> SimParams {
    SimParams {
        functional_warmup_accesses: 200_000,
        warmup_per_core: 150_000,
        measure_per_core: 150_000,
    }
}

fn golden_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../goldens/full"))
}

/// One grid cell with its expected snapshot.
struct Cell {
    config_name: String,
    config: SystemConfig,
    engine: EngineKind,
    bench: String,
    seed: u64,
    golden: String,
}

/// Loads the grid slice and its goldens.
fn load_cells() -> Result<Vec<Cell>, String> {
    let matrix = RunMatrix::new(params(), GOLDEN_SEED)
        .benches(BENCHES)
        .engines(all_engines())
        .configs([
            ("table1".to_string(), SystemConfig::isca_table1()),
            ("low-bw".to_string(), SystemConfig::low_bandwidth()),
        ]);
    matrix
        .cells()
        .into_iter()
        .map(|c| {
            let path = golden_dir().join(format!("{}.json", c.label().replace('/', "__")));
            let golden = std::fs::read_to_string(&path)
                .map_err(|e| format!("golden {}: {e}", path.display()))?;
            Ok(Cell {
                seed: matrix.cell_seed(&c),
                config_name: c.config_name,
                config: c.config,
                engine: c.engine,
                bench: c.bench,
                golden,
            })
        })
        .collect()
}

/// What one cell run measured.
#[derive(Clone, Copy)]
struct CellRun {
    index: usize,
    /// Engine build through snapshot capture, ns: what a caller waits.
    total_ns: u64,
    /// `total_ns` scaled to the nominal host, set by the worker that
    /// ran the cell.
    scaled_ns: u64,
    new_ns: u64,
    warmup_ns: u64,
    detailed_ns: u64,
    matches_golden: bool,
    instructions: u64,
    dram_accesses: u64,
    counter_fetches: u64,
    metadata_reads: u64,
    llc_lookups: u64,
}

/// Runs one cell through the simulator's public API, timing each
/// phase from outside, then checks the snapshot against its golden.
fn run_cell(cells: &[Cell], index: usize, trace: Option<&mut ThreadTrace>) -> CellRun {
    let cell = &cells[index];
    let p = params();
    let t0 = Instant::now();
    let engine = build_engine(cell.engine, &cell.config, suites::address_space_blocks());
    let workloads = (0..cell.config.cores)
        .map(|c| suites::instantiate_seeded(&cell.bench, c, cell.seed))
        .collect();
    let n0 = Instant::now();
    let mut machine = Machine::new(cell.config.clone(), engine, workloads);
    let n1 = Instant::now();
    machine.set_sink(Box::new(SeriesRecorder::new(
        DEFAULT_EPOCH_CYCLES,
        cell.config.core_period(),
    )));
    machine.functional_warmup(p.functional_warmup_accesses);
    let w1 = Instant::now();
    let result = machine.run(p.warmup_per_core, p.measure_per_core);
    let r1 = Instant::now();
    let recorder = machine
        .take_sink()
        .into_any()
        .downcast::<SeriesRecorder>()
        .expect("the sink installed above is a SeriesRecorder");
    let blame = recorder.blame_tally().clone();
    let series = recorder.into_series();
    let snap =
        StatsSnapshot::capture_with_series(&result, &cell.config_name, cell.seed, &series, &blame);
    let t1 = Instant::now();
    if let Some(tr) = trace {
        let op = tr.op("sim.cell", t0, t1);
        tr.child(op, "sim.new", n0, n1);
        tr.child(op, "sim.functional_warmup", n1, w1);
        tr.child(op, "sim.run", w1, r1);
    }
    let metric = |name: &str| snap.metric(name).unwrap_or(0.0) as u64;
    CellRun {
        index,
        total_ns: t1.duration_since(t0).as_nanos() as u64,
        scaled_ns: 0,
        new_ns: n1.duration_since(n0).as_nanos() as u64,
        warmup_ns: w1.duration_since(n1).as_nanos() as u64,
        detailed_ns: r1.duration_since(w1).as_nanos() as u64,
        matches_golden: snap.to_json() == cell.golden,
        instructions: result.instructions,
        dram_accesses: metric("dram.reads") + metric("dram.writes"),
        counter_fetches: metric("engine.counter_fetches"),
        metadata_reads: metric("engine.metadata_reads"),
        llc_lookups: metric("cache.llc_demand_lookups"),
    }
}

/// The seeded order workers draw cells in.
fn cell_order(seed: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = SplitMix64::new(SplitMix64::new(seed).derive(b"perfbench/sim/order"));
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

/// What one timed phase measured.
struct Phase {
    runs: Vec<CellRun>,
    /// Each worker's time, raw and scaled to the nominal host.
    times: Vec<Scaled>,
    traces: Vec<ThreadTrace>,
}

impl Phase {
    /// Cells per second on the nominal host, over the mean worker time.
    fn cells_per_s(&self) -> f64 {
        let wall_ns = self.times.iter().map(|t| t.ns).sum::<f64>() / WORKERS as f64;
        ratio(self.runs.len() as f64 * 1e9, wall_ns)
    }

    /// Cells per second on this host.
    fn raw_cells_per_s(&self) -> f64 {
        let wall_ns = self.times.iter().map(|t| t.raw_ns).sum::<f64>() / WORKERS as f64;
        ratio(self.runs.len() as f64 * 1e9, wall_ns)
    }

    /// The workers' time-weighted speed factor.
    fn factor(&self) -> f64 {
        self.times.iter().copied().sum::<Scaled>().factor()
    }
}

/// Where the workers are in the cyclic cell order.
struct Cursor {
    next: usize,
    /// The index at which drawing stops: the end of the pass running
    /// when the deadline passed.
    limit: usize,
}

/// Workers draw cells in `order`, cyclically, until `dur` has passed and
/// `min_passes` are done, then finish the pass they are in: every run
/// covers whole passes, so its latency quantiles always come from the
/// same mix of cells.
fn phase(
    cells: &[Cell],
    order: &[usize],
    (dur, min_passes): (Duration, usize),
    epoch: Option<Instant>,
) -> Phase {
    let n = order.len();
    let cursor = Mutex::new(Cursor {
        next: 0,
        limit: usize::MAX,
    });
    let deadline = Instant::now() + dur;
    let per_worker: Vec<(Vec<CellRun>, Scaled, Option<ThreadTrace>)> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..WORKERS)
                .map(|w| {
                    let cursor = &cursor;
                    scope.spawn(move || {
                        let mut trace = epoch.map(|e| ThreadTrace::new(e, w));
                        let mut cal = Calibrator::new();
                        let mut time = Scaled::default();
                        let mut runs = Vec::new();
                        loop {
                            let mark = Mark::now();
                            let i = {
                                let mut c = cursor.lock().expect("a sim worker panicked");
                                if mark.at >= deadline {
                                    c.limit = c.limit.min(c.next.div_ceil(n).max(min_passes) * n);
                                }
                                if c.next >= c.limit {
                                    break;
                                }
                                c.next += 1;
                                c.next - 1
                            };
                            let mut run = run_cell(cells, order[i % n], trace.as_mut());
                            let took = mark.end();
                            if let Some(tr) = trace.as_mut() {
                                // The draw and the golden comparison
                                // around the op span.
                                tr.driver_ns += (took.wall_ns as u64).saturating_sub(run.total_ns);
                            }
                            // The host is measured between cells, outside
                            // every cell's time.
                            let factor = cal.interval_factor();
                            time.add(took, factor);
                            let busy = took.busy_ns / took.wall_ns.max(1.0);
                            run.scaled_ns = (run.total_ns as f64 * busy * factor).round() as u64;
                            runs.push(run);
                        }
                        if let Some(tr) = trace.as_mut() {
                            tr.wall_ns = time.raw_ns as u64;
                        }
                        (runs, time, trace)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sim worker panicked"))
                .collect()
        });
    let mut runs = Vec::new();
    let mut times = Vec::new();
    let mut traces = Vec::new();
    for (r, t, tr) in per_worker {
        runs.extend(r);
        times.push(t);
        traces.extend(tr);
    }
    Phase {
        runs,
        times,
        traces,
    }
}

/// Runs the `sim-grid` workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let dur = Duration::from_secs_f64(args.seconds);
    let mut cal = Calibrator::new();
    let (mut setups, mut raw_setups) = (Vec::new(), Vec::new());
    let mut loaded = None;
    for _ in 0..if args.trace { 1 } else { SETUP_REPS } {
        // Set-up: load the goldens and run the first cell of the grid
        // (the same one for every seed) to fault in the simulator's
        // allocations; that cell must match too.
        let (done, scaled, raw) = calib::timed(&mut cal, || -> Result<_, String> {
            let cells = load_cells()?;
            let warm = run_cell(&cells, 0, None);
            Ok((cells, warm))
        });
        let (cells, warm) = done?;
        setups.push(scaled);
        raw_setups.push(raw);
        report.attempted += 1;
        report.failed += u64::from(!warm.matches_golden);
        loaded = Some(cells);
    }
    let cells = loaded.expect("at least one set-up");
    let order = cell_order(args.seed, cells.len());

    if !args.trace {
        let p = phase(&cells, &order, (dur, MIN_PASSES), None);
        count(&mut report, &p);
        let mut samples: Vec<u64> = p.runs.iter().map(|r| r.scaled_ns).collect();
        let s = summarize(&mut samples);
        report.end_to_end = vec![
            ("setup_s", stats::median_f64(&setups)),
            ("items_per_s", p.cells_per_s()),
            ("call_p50_us", s.p50 / 1e3),
            ("call_tail_us", s.tail / 1e3),
            (
                "cpu_us_per_item",
                ratio(
                    p.times.iter().map(|t| t.cpu_ns).sum::<f64>() / 1e3,
                    p.runs.len() as f64,
                ),
            ),
        ];
        report.facts.push(("setup_s_each", format!("{setups:?}")));
        report.raw_facts(&raw_setups, p.raw_cells_per_s(), p.factor());
        report.facts.push(("calls", s.n.to_string()));
        report
            .facts
            .push(("tail_percentile", format!("{}", s.tail_q * 100.0)));
        return Ok(report);
    }

    let plain = phase(&cells, &order, (dur / 3, 1), None);
    count(&mut report, &plain);
    let epoch = Instant::now();
    let p = phase(&cells, &order, (dur - dur / 3, 1), Some(epoch));
    count(&mut report, &p);
    let acc = Accounting::of(&p.traces);
    let n = p.runs.len() as f64;
    let mean_s = |f: fn(&CellRun) -> u64, runs: &[&CellRun]| {
        ratio(
            runs.iter().map(|r| f(r) as f64).sum::<f64>(),
            runs.len() as f64,
        ) / 1e9
    };
    let all: Vec<&CellRun> = p.runs.iter().collect();
    let engine_s = |engine: EngineKind| {
        let of: Vec<&CellRun> = p
            .runs
            .iter()
            .filter(|r| cells[r.index].engine == engine)
            .collect();
        mean_s(|r| r.detailed_ns, &of)
    };
    let detailed: f64 = p.runs.iter().map(|r| r.detailed_ns as f64).sum();
    // Exact counts: one run of every cell, which must repeat bit for bit.
    let mut once: Vec<&CellRun> = Vec::new();
    for r in &p.runs {
        if !once.iter().any(|o| o.index == r.index) {
            once.push(r);
        }
    }
    let total = |f: fn(&CellRun) -> u64| once.iter().map(|r| f(r) as f64).sum::<f64>();
    report.per_layer = vec![
        ("driver.calls", n),
        ("driver.ns_per_batch", ratio(acc.driver_ns as f64, n)),
        ("driver.unexplained_frac", acc.unexplained_frac()),
        (
            "trace_overhead_frac",
            1.0 - ratio(p.cells_per_s(), plain.cells_per_s()),
        ),
        ("sim.new_ms", mean_s(|r| r.new_ns, &all) * 1e3),
        ("sim.functional_warmup_s", mean_s(|r| r.warmup_ns, &all)),
        ("sim.detailed_s.no-encryption", engine_s(EngineKind::None)),
        (
            "sim.detailed_s.counterless",
            engine_s(EngineKind::Counterless),
        ),
        (
            "sim.detailed_s.counter-mode",
            engine_s(EngineKind::CounterMode),
        ),
        (
            "sim.detailed_s.counter-light",
            engine_s(EngineKind::CounterLight),
        ),
        (
            "sim.host_ns_per_instr",
            ratio(detailed, p.runs.iter().map(|r| r.instructions as f64).sum()),
        ),
        (
            "sim.host_ns_per_dram_access",
            ratio(
                detailed,
                p.runs.iter().map(|r| r.dram_accesses as f64).sum(),
            ),
        ),
        ("sim.dram_accesses", total(|r| r.dram_accesses)),
        ("sim.counter_fetches", total(|r| r.counter_fetches)),
        ("sim.metadata_reads", total(|r| r.metadata_reads)),
        ("sim.llc_lookups", total(|r| r.llc_lookups)),
    ];
    let path = trace::trace_path(&args.workload);
    trace::write_chrome(&path, &p.traces).map_err(|e| format!("trace file: {e}"))?;
    report
        .facts
        .push(("trace_file", format!("\"{}\"", path.display())));
    report.facts.push((
        "accounting_ns",
        format!(
            "{{\"wall\": {}, \"sim_self\": {}, \"sim_phases\": {}, \"driver\": {}, \"unexplained\": {}}}",
            acc.wall_ns,
            acc.call_ns - acc.child_ns,
            acc.child_ns,
            acc.driver_ns,
            acc.wall_ns as i64 - (acc.call_ns + acc.driver_ns) as i64
        ),
    ));
    Ok(report)
}

/// Counts a phase's cells into the report: each is one attempted op,
/// failed unless its snapshot equals the golden.
fn count(report: &mut Report, p: &Phase) {
    report.attempted += p.runs.len() as u64;
    report.failed += p.runs.iter().filter(|r| !r.matches_golden).count() as u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_order_is_a_seeded_permutation() {
        let a = cell_order(1, 24);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..24).collect::<Vec<_>>());
        assert_eq!(a, cell_order(1, 24));
        assert_ne!(a, cell_order(2, 24));
    }

    #[test]
    fn the_grid_slice_has_a_golden_for_every_cell() {
        let cells = load_cells().expect("goldens/full holds the slice");
        assert_eq!(cells.len(), 24);
        assert!(cells.iter().all(|c| c.golden.contains("\"schema\"")));
    }
}
