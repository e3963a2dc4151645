//! The trace-driven multi-core memory-system simulator — the
//! gem5-equivalent substrate of this reproduction.
//!
//! * [`core`] — the interval (ROB/MSHR-limited) core timing model.
//! * [`machine`] — cores → cache hierarchy → encryption engine → DRAM.
//! * [`result`] — [`result::SimResult`] and the figures' derived metrics.
//! * [`run`] — one-call helpers: pick a config, an engine, a benchmark.
//! * [`matrix`] — the parallel deterministic (workload × engine ×
//!   config) run-matrix driver.
//! * [`report`] — [`report::StatsSnapshot`]: per-component counters with
//!   a byte-stable JSON encoding and tolerance-band golden diffing.
//!
//! # Examples
//!
//! ```
//! use clme_core::engine::EngineKind;
//! use clme_sim::run::{run_benchmark, SimParams};
//! use clme_types::SystemConfig;
//!
//! let cfg = SystemConfig::isca_table1();
//! let mut params = SimParams::quick();
//! params.measure_per_core = 4_000;
//! let result = run_benchmark(&cfg, EngineKind::CounterLight, "mcf", params);
//! assert!(result.instructions > 0);
//! ```

pub mod core;
pub mod machine;
pub mod matrix;
pub mod report;
pub mod result;
pub mod run;

pub use machine::Machine;
pub use matrix::{glob_match, par_map, MatrixCell, RunMatrix};
pub use report::{compare, StatsSnapshot, Tolerance};
pub use result::{CoreWindow, SimResult};
pub use run::{
    run_benchmark, run_benchmark_recorded, run_benchmark_seeded, run_benchmark_series,
    run_benchmark_spans, simulate, stock_engine, MachineArena, PhaseTimes, SimParams,
};
