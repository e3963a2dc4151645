//! The one flag grammar every `clme` subcommand parses with.
//!
//! A parser walks its arguments with a [`Cursor`] and returns
//! `Result<XArgs, String>`. The error string is what `main` prints above
//! the subcommand's usage text before exiting 2; an empty string means
//! "usage alone" (`--help`, and the bad-number errors that have always
//! shown only the usage).

use clme_core::engine::EngineKind;
use clme_sim::matrix::all_engines;
use clme_sim::SimParams;
use clme_types::rng::SplitMix64;
use clme_types::SystemConfig;
use std::path::PathBuf;
use std::str::FromStr;

/// The master seed `clme matrix`/`clme diff` use unless `--seed` is
/// given; golden snapshots are generated with it.
pub const DEFAULT_MATRIX_SEED: u64 = 0x00C0_FFEE;

/// Every system configuration a cell label or `--bandwidth` can name.
pub const CONFIG_NAMES: [&str; 2] = ["table1", "low-bw"];

/// The configuration a cell label's first part names.
pub fn config_by_name(name: &str) -> Option<SystemConfig> {
    match name {
        "table1" => Some(SystemConfig::isca_table1()),
        "low-bw" => Some(SystemConfig::low_bandwidth()),
        _ => None,
    }
}

/// The engine a name denotes: the name `EngineKind` prints in every cell
/// label (`no-encryption`, `counterless`, ...), or `none` for the
/// unencrypted baseline.
pub fn engine_by_name(name: &str) -> Option<EngineKind> {
    if name == "none" {
        return Some(EngineKind::None);
    }
    all_engines()
        .into_iter()
        .find(|engine| engine.to_string() == name)
}

/// Worker threads for the parallel grids: at least 4 even on small
/// containers — the cells are independent and short, so
/// oversubscription is harmless, and the grid must exercise its
/// parallel path everywhere.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(4, usize::from)
        .max(4)
}

/// The window sizes of one `--tiny` matrix cell (shared with `profile`,
/// `trace` and `critpath` so their default run matches a tiny cell
/// exactly).
pub fn tiny_cell_params() -> SimParams {
    SimParams {
        functional_warmup_accesses: 20_000,
        warmup_per_core: 10_000,
        measure_per_core: 20_000,
    }
}

/// One resolved cell: what `config/engine/bench` names.
pub struct CellSpec {
    pub config_name: String,
    pub cfg: SystemConfig,
    pub engine: EngineKind,
    pub bench: String,
}

impl CellSpec {
    pub fn new(config_name: &str, engine: EngineKind, bench: &str) -> Self {
        CellSpec {
            config_name: config_name.to_string(),
            cfg: config_by_name(config_name).expect("a known config name"),
            engine,
            bench: bench.to_string(),
        }
    }

    /// Parses a matrix cell label (`config/engine/bench`).
    pub fn parse(label: &str) -> Option<Self> {
        let mut parts = label.splitn(3, '/');
        let config_name = parts.next()?;
        let engine = engine_by_name(parts.next()?)?;
        let bench = parts.next()?;
        config_by_name(config_name)?;
        Some(CellSpec::new(config_name, engine, bench))
    }

    pub fn label(&self) -> String {
        format!("{}/{}/{}", self.config_name, self.engine, self.bench)
    }

    /// The same label-keyed derivation the matrix uses, so a profiled
    /// or traced cell replays the matching matrix cell exactly.
    pub fn workload_seed(&self, master_seed: u64) -> u64 {
        SplitMix64::new(master_seed).derive(self.label().as_bytes())
    }
}

/// The error for a cell label that does not parse.
pub fn bad_cell_label(label: &str) -> String {
    format!("bad cell label {label:?} (want config/engine/bench, e.g. table1/counter-mode/bfs)")
}

/// The error for a flag no parser arm matched.
pub fn unknown_flag(flag: &str) -> String {
    format!("unknown flag {flag}")
}

/// A cursor over one subcommand's arguments.
pub struct Cursor<'a> {
    args: std::slice::Iter<'a, String>,
}

impl<'a> Cursor<'a> {
    pub fn new(args: &'a [String]) -> Self {
        Cursor { args: args.iter() }
    }

    /// The next flag (or positional argument), if any.
    pub fn next_flag(&mut self) -> Option<&'a str> {
        self.args.next().map(String::as_str)
    }

    /// The value following flag `name`.
    pub fn value(&mut self, name: &str) -> Result<String, String> {
        self.args
            .next()
            .cloned()
            .ok_or_else(|| format!("{name} needs a value"))
    }

    /// The value following `name`, parsed as a number.
    pub fn num<T: FromStr>(&mut self, name: &str) -> Result<T, String> {
        self.value(name)?.parse().map_err(|_| String::new())
    }

    /// A nonzero count; `what` names it in the error ("count", ...).
    pub fn positive<T: FromStr + Default + PartialEq>(
        &mut self,
        name: &str,
        what: &str,
    ) -> Result<T, String> {
        let n: T = self.num(name)?;
        if n == T::default() {
            return Err(format!("{name} needs a positive {what}"));
        }
        Ok(n)
    }

    /// A seed, `0x…` hex or decimal.
    pub fn seed(&mut self, name: &str) -> Result<u64, String> {
        let text = self.value(name)?;
        match text.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => text.parse(),
        }
        .map_err(|_| String::new())
    }

    pub fn path(&mut self, name: &str) -> Result<PathBuf, String> {
        self.value(name).map(PathBuf::from)
    }

    /// A value that must be one of `choices`.
    pub fn one_of(&mut self, name: &str, choices: &[&str]) -> Result<String, String> {
        let value = self.value(name)?;
        if choices.contains(&value.as_str()) {
            return Ok(value);
        }
        let list = match choices {
            [a, b] => format!("{a} or {b}"),
            [init @ .., last] => format!("{}, or {last}", init.join(", ")),
            [] => String::new(),
        };
        Err(format!("{name} must be {list}"))
    }

    /// `--engine`: any name [`engine_by_name`] knows.
    pub fn engine(&mut self) -> Result<EngineKind, String> {
        let name = self.value("--engine")?;
        engine_by_name(&name).ok_or_else(|| format!("unknown engine {name}"))
    }

    /// `--bandwidth high|low`, as the config name it selects.
    pub fn bandwidth(&mut self) -> Result<&'static str, String> {
        match self.value("--bandwidth")?.as_str() {
            "high" => Ok(CONFIG_NAMES[0]),
            "low" => Ok(CONFIG_NAMES[1]),
            other => Err(format!("unknown bandwidth {other}")),
        }
    }

    /// One of the simulation-window flags (`--measure`, `--warmup`,
    /// `--functional-warmup`), stored into `params`.
    pub fn window(&mut self, flag: &str, params: &mut SimParams) -> Result<(), String> {
        match flag {
            "--measure" => params.measure_per_core = self.num(flag)?,
            "--warmup" => params.warmup_per_core = self.num(flag)?,
            _ => params.functional_warmup_accesses = self.num(flag)?,
        }
        Ok(())
    }
}
