//! `clme` — command-line simulation runner.
//!
//! Single runs: any benchmark under any engine and configuration without
//! writing code:
//!
//! ```text
//! cargo run --release -p clme-bench --bin clme -- \
//!     --engine counter-light --bench bfs --bandwidth low \
//!     --aes 256 --threshold 0.8 --measure 200000
//! ```
//!
//! Prints the [`clme_sim::SimResult`] report plus a normalised
//! comparison against the unencrypted baseline when `--baseline` is set.
//!
//! Matrix runs: the whole (workload × engine × config) evaluation grid,
//! in parallel, with one stats-snapshot JSON per cell:
//!
//! ```text
//! clme matrix --tiny --out goldens/tiny     # run grid, write snapshots
//! clme matrix --filter 'table1/counter-*'   # only matching cells
//! clme diff --tiny --golden goldens/tiny    # re-run, diff vs goldens
//! ```
//!
//! Figures: `clme figures` prints Table I and every simulator figure of
//! the paper's evaluation; CI diffs it against `goldens/figures.txt`.
//!
//! Profiling: one cell with the observability recorder installed —
//! per-stage latency histograms, event counters, and throughput:
//!
//! ```text
//! clme profile --engine counter-light --bench bfs [--json BENCH_profile.json]
//! clme profile --series [--epoch N] [--json series.json]
//! clme profile --diff table1/counter-mode/bfs table1/counter-light/bfs
//! clme trace --engine counter-mode --bench mcf --out trace.json
//! ```
//!
//! `--series` replays the cell under the epoch sampler and prints the
//! per-epoch time-series (IPC, counter-cache hit rate, row-conflict
//! rate, per-stage percentiles); `--diff` replays two cells and prints
//! their per-stage / per-event deltas. `trace` writes Chrome
//! `trace_event` JSON — open it in Perfetto
//! (<https://ui.perfetto.dev>) or `about:tracing`.
//!
//! Critical-path attribution: one cell with the span tracer installed —
//! every LLC miss becomes a request span, its dependent operations
//! (data DRAM access, per-level counter fetch, in-line MAC, pad, ECC
//! decode) become child spans, and each miss is blamed on the chain
//! that gated readiness:
//!
//! ```text
//! clme critpath table1/counter-mode/bfs [--json blame.json] [--trace spans.json]
//! ```
//!
//! Phase-aligned cross-cell series: every (config × benchmark) group of
//! the grid replayed under all four engines with a *shared*,
//! engine-independent workload seed, so epoch k covers the same program
//! phase in each engine's column:
//!
//! ```text
//! clme series --matrix [--tiny] [--json aligned.json]
//! ```
//!
//! Library runner: `clme mem` drives the clme-mem crate — the
//! counter-light scheme applied to a real backing store (in-memory or
//! paged file) instead of the simulator:
//!
//! ```text
//! clme mem                       # demo: model check, tamper matrix, rekey
//! clme mem --smoke --blocks 256  # CI smoke, nonzero exit on any miss
//! clme mem --bench               # batch write/read/rekey throughput
//! clme mem --critpath zipf       # blame table over real library latencies
//! clme critpath mem/vec/zipf     # same, through the critpath front door
//! ```
//!
//! Performance gate: `clme perf` runs a fixed calibrated cell set,
//! normalises cells/sec by a built-in spin-calibration loop, writes
//! `BENCH_perf.json` (with history), and compares against
//! `goldens/perf_baseline.json`:
//!
//! ```text
//! clme perf                      # measure, append history, gate
//! clme perf --write-baseline     # regenerate the golden baseline
//! ```
//!
//! Post-mortems: `clme postmortem FILE.clmedump [--replay]` renders (and
//! re-runs) a bundle a tampered `clme mem` run wrote.
//!
//! See EXPERIMENTS.md for the snapshot format and the golden workflow.
//!
//! Layout: this file only dispatches. Each subcommand lives in its own
//! module (`single` for the bare run, `matrix` for matrix/diff,
//! `figures`, `profile` for profile/trace, `perf`, `critpath`, `series`,
//! `mem`, `postmortem`) with a `USAGE` text, a `parse` that returns its
//! arguments or an error message, and a `run` that returns the exit
//! code. Every parser uses the one flag grammar in `args` (values,
//! numbers, seeds, engine and config names, simulation windows), and
//! every output file goes through [`write_artifact`]. Exit codes: 0
//! success, 1 a failed run or check, 2 a bad command line — printed
//! here, with the subcommand's usage, and nowhere else.

mod args;
mod critpath;
mod figures;
mod matrix;
mod mem;
mod perf;
mod postmortem;
mod profile;
mod series;
mod single;
#[cfg(test)]
mod tests;

/// Writes one output file atomically, so a reader (a Prometheus textfile
/// collector, a CI grep) never sees it half written. On failure prints
/// the error and returns false; the caller exits 1.
pub fn write_artifact(path: &std::path::Path, text: &str) -> bool {
    match clme_mem::write_atomic(path, text) {
        Ok(()) => true,
        Err(err) => {
            eprintln!("cannot write {}: {err}", path.display());
            false
        }
    }
}

/// Parses and runs one subcommand (or the bare single run). A parse
/// error is the only way out with exit 2: `main` prints its message and
/// that subcommand's usage.
fn main() {
    let all: Vec<String> = std::env::args().skip(1).collect();
    let rest = all.get(1..).unwrap_or_default();
    let (usage, outcome) = match all.first().map(String::as_str) {
        Some("matrix") => (matrix::USAGE, matrix::parse(rest).map(matrix::run)),
        Some("diff") => (
            matrix::USAGE,
            matrix::parse_diff(rest).map(matrix::run_diff),
        ),
        Some("profile") => (profile::USAGE, profile::parse(rest).map(profile::run)),
        Some("perf") => (perf::USAGE, perf::parse(rest).map(perf::run)),
        Some("figures") => (figures::USAGE, figures::parse(rest).map(figures::run)),
        Some("trace") => (profile::USAGE, profile::parse(rest).map(profile::run_trace)),
        Some("critpath") => (critpath::USAGE, critpath::parse(rest).map(critpath::run)),
        Some("series") => (series::USAGE, series::parse(rest).map(series::run)),
        Some("mem") => (mem::USAGE, mem::parse(rest).map(mem::run)),
        Some("postmortem") => (
            postmortem::USAGE,
            postmortem::parse(rest).map(postmortem::run),
        ),
        _ => (single::USAGE, single::parse(&all).map(single::run)),
    };
    match outcome {
        Ok(code) => std::process::exit(code),
        Err(message) => {
            if !message.is_empty() {
                eprintln!("{message}");
            }
            eprintln!("{usage}");
            std::process::exit(2)
        }
    }
}
