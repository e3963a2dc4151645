//! Structured stats snapshots: every per-component counter of one
//! simulation cell, flattened into a stable, ordered metric list with a
//! byte-stable JSON encoding.
//!
//! A [`StatsSnapshot`] is the unit the run-matrix driver persists (one
//! JSON file per cell) and diffs against checked-in goldens with
//! [`compare`]'s tolerance bands. Determinism contract: the same
//! (config, engine, benchmark, seed) must serialise to byte-identical
//! JSON regardless of how many worker threads executed the matrix.

use crate::result::SimResult;
use clme_types::json::{self, JsonValue};

/// Schema version stamped into every snapshot; bump when metric names
/// change meaning so stale goldens fail loudly instead of silently.
///
/// v2 added the per-core breakdown (`core<i>.ipc`,
/// `core<i>.rob_stall_ns`, `core<i>.rob_stall_events`) and the engine
/// counter-cache hit-rate metrics. v3 added the epoch time-series
/// summary (`series.*`): matrix cells now run under a
/// [`SeriesRecorder`](clme_obs::SeriesRecorder) and report per-epoch
/// IPC extremes plus warmup-endpoint cache/row-buffer rates. v4 added
/// the per-request critical-path blame summary (`blame.*`): every miss
/// of the measured window is classified dram-/counter-/cipher-/mac-bound
/// by the span layer and the fractions are reported per cell.
pub const SNAPSHOT_SCHEMA: u64 = 4;

/// All statistics of one (config × engine × benchmark) cell, flattened
/// to ordered `(metric, value)` pairs.
#[derive(Clone, Debug, PartialEq)]
pub struct StatsSnapshot {
    /// Benchmark name.
    pub benchmark: String,
    /// Engine name (the `EngineKind` display form).
    pub engine: String,
    /// Configuration label (e.g. `"table1"`, `"low-bw"`).
    pub config: String,
    /// The cell's workload seed (hex-encoded in JSON: u64 does not fit
    /// exactly in a JSON number).
    pub seed: u64,
    /// Ordered metrics; the order is part of the stable encoding.
    pub metrics: Vec<(String, f64)>,
}

impl StatsSnapshot {
    /// Captures every component's counters out of a finished run.
    pub fn capture(result: &SimResult, config: &str, seed: u64) -> StatsSnapshot {
        let mut metrics: Vec<(String, f64)> = Vec::with_capacity(40);
        let mut push = |name: &str, value: f64| metrics.push((name.to_string(), value));

        push("instructions", result.instructions as f64);
        push("elapsed_ps", result.elapsed.picos() as f64);
        push("ipc", result.ipc);
        for (i, core) in result.per_core.iter().enumerate() {
            push(&format!("core{i}.ipc"), core.ipc);
            push(&format!("core{i}.rob_stall_ns"), core.rob_stall.as_ns_f64());
            push(
                &format!("core{i}.rob_stall_events"),
                core.rob_stall_events as f64,
            );
        }
        push(
            "energy_per_instruction_nj",
            result.energy_per_instruction_nj,
        );

        for (name, value) in result.engine_stats.export() {
            push(&format!("engine.{name}"), value);
        }

        push("dram.reads", result.dram_reads as f64);
        push("dram.writes", result.dram_writes as f64);
        push("dram.busy_ps", result.dram_busy.picos() as f64);
        push("dram.bandwidth_utilization", result.bandwidth_utilization);
        push("dram.activations", result.activations as f64);
        push("dram.row_hits", result.row_hits as f64);
        push("dram.row_closed", result.row_closed as f64);
        push("dram.row_conflicts", result.row_conflicts as f64);
        let demand_rows = result.row_hits + result.row_closed + result.row_conflicts;
        push(
            "dram.row_hit_rate",
            if demand_rows == 0 {
                0.0
            } else {
                result.row_hits as f64 / demand_rows as f64
            },
        );

        let llc = result.llc_demand_hit;
        let llc_misses = llc.total() - llc.hits();
        push("cache.llc_demand_lookups", llc.total() as f64);
        push("cache.llc_demand_hits", llc.hits() as f64);
        push("cache.llc_demand_hit_rate", llc.rate());
        push(
            "cache.llc_mpki",
            llc_misses as f64 * 1000.0 / result.instructions.max(1) as f64,
        );

        StatsSnapshot {
            benchmark: result.benchmark.clone(),
            engine: result.engine.to_string(),
            config: config.to_string(),
            seed,
            metrics,
        }
    }

    /// [`StatsSnapshot::capture`] plus the epoch-series summary metrics
    /// (`series.*`) out of the run's sampled time-series and the
    /// critical-path blame summary (`blame.*`) out of its span layer.
    pub fn capture_with_series(
        result: &SimResult,
        config: &str,
        seed: u64,
        series: &clme_obs::EpochSeries,
        blame: &clme_obs::BlameTally,
    ) -> StatsSnapshot {
        let mut snapshot = StatsSnapshot::capture(result, config, seed);
        let mut push = |name: &str, value: f64| snapshot.metrics.push((name.to_string(), value));
        push("series.epoch_cycles", series.epoch_cycles as f64);
        push("series.epochs", series.len() as f64);
        push("series.ipc_min", series.ipc_min());
        push("series.ipc_max", series.ipc_max());
        push("series.ipc_last", series.ipc_last());
        push(
            "series.counter_cache_hit_rate_last",
            series.counter_cache_hit_rate_last(),
        );
        push(
            "series.row_conflict_rate_mean",
            series.row_conflict_rate_mean(),
        );
        push("blame.requests", blame.total() as f64);
        push(
            "blame.dram_bound_fraction",
            blame.fraction(clme_obs::Blame::Dram),
        );
        push(
            "blame.counter_bound_fraction",
            blame.fraction(clme_obs::Blame::Counter),
        );
        push(
            "blame.cipher_bound_fraction",
            blame.fraction(clme_obs::Blame::Cipher),
        );
        push(
            "blame.mac_bound_fraction",
            blame.fraction(clme_obs::Blame::Mac),
        );
        snapshot
    }

    /// The cell's stable label, `config/engine/benchmark`.
    pub fn label(&self) -> String {
        format!("{}/{}/{}", self.config, self.engine, self.benchmark)
    }

    /// A filesystem-safe version of [`label`](Self::label).
    pub fn file_stem(&self) -> String {
        self.label().replace('/', "__")
    }

    /// Looks up one metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The stable JSON encoding (ends with a newline).
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value)| (name.clone(), JsonValue::Num(*value)))
            .collect();
        let doc = JsonValue::Obj(vec![
            ("schema".into(), JsonValue::Num(SNAPSHOT_SCHEMA as f64)),
            ("benchmark".into(), JsonValue::Str(self.benchmark.clone())),
            ("engine".into(), JsonValue::Str(self.engine.clone())),
            ("config".into(), JsonValue::Str(self.config.clone())),
            (
                "seed".into(),
                JsonValue::Str(format!("{:#018x}", self.seed)),
            ),
            ("metrics".into(), JsonValue::Obj(metrics)),
        ]);
        let mut text = doc.to_pretty();
        text.push('\n');
        text
    }

    /// Parses a snapshot back from its JSON encoding.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem.
    pub fn from_json(text: &str) -> Result<StatsSnapshot, String> {
        let doc = json::parse(text)?;
        let schema = doc
            .get("schema")
            .and_then(JsonValue::as_f64)
            .ok_or("missing schema")?;
        if schema != SNAPSHOT_SCHEMA as f64 {
            return Err(format!(
                "snapshot schema {schema} != supported {SNAPSHOT_SCHEMA}"
            ));
        }
        let field = |name: &str| -> Result<String, String> {
            doc.get(name)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or(format!("missing string field {name:?}"))
        };
        let seed_text = field("seed")?;
        let seed = u64::from_str_radix(seed_text.trim_start_matches("0x"), 16)
            .map_err(|_| format!("bad seed {seed_text:?}"))?;
        let metrics = doc
            .get("metrics")
            .and_then(JsonValue::as_obj)
            .ok_or("missing metrics object")?
            .iter()
            .map(|(name, value)| {
                value
                    .as_f64()
                    .map(|v| (name.clone(), v))
                    .ok_or(format!("metric {name:?} is not a number"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(StatsSnapshot {
            benchmark: field("benchmark")?,
            engine: field("engine")?,
            config: field("config")?,
            seed,
            metrics,
        })
    }
}

/// Tolerance band for golden comparison: a metric passes when
/// `|fresh − golden| ≤ absolute + relative · |golden|`.
#[derive(Clone, Copy, Debug)]
pub struct Tolerance {
    /// Relative band, e.g. `0.02` for ±2%.
    pub relative: f64,
    /// Absolute floor, covering metrics whose golden value is ~0.
    pub absolute: f64,
}

impl Tolerance {
    /// Exact comparison (for determinism tests).
    pub fn exact() -> Tolerance {
        Tolerance {
            relative: 0.0,
            absolute: 0.0,
        }
    }

    /// The default band for cross-platform golden diffs.
    pub fn default_band() -> Tolerance {
        Tolerance {
            relative: 0.02,
            absolute: 1e-9,
        }
    }

    fn accepts(&self, golden: f64, fresh: f64) -> bool {
        (fresh - golden).abs() <= self.absolute + self.relative * golden.abs()
    }
}

/// Compares a freshly-measured snapshot against a golden one. Returns
/// one human-readable line per deviation (empty = within tolerance).
pub fn compare(golden: &StatsSnapshot, fresh: &StatsSnapshot, tol: Tolerance) -> Vec<String> {
    let mut deviations = Vec::new();
    if golden.label() != fresh.label() {
        deviations.push(format!(
            "cell identity mismatch: golden {} vs fresh {}",
            golden.label(),
            fresh.label()
        ));
        return deviations;
    }
    if golden.seed != fresh.seed {
        deviations.push(format!(
            "seed mismatch: golden {:#x} vs fresh {:#x}",
            golden.seed, fresh.seed
        ));
    }
    for (name, golden_value) in &golden.metrics {
        match fresh.metric(name) {
            None => deviations.push(format!("metric {name} missing from fresh run")),
            Some(fresh_value) => {
                if !tol.accepts(*golden_value, fresh_value) {
                    deviations.push(format!(
                        "{name}: golden {golden_value} vs fresh {fresh_value}"
                    ));
                }
            }
        }
    }
    for (name, _) in &fresh.metrics {
        if golden.metric(name).is_none() {
            deviations.push(format!("metric {name} absent from golden"));
        }
    }
    deviations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{run_benchmark, SimParams};
    use clme_core::engine::EngineKind;
    use clme_types::SystemConfig;

    fn snapshot() -> StatsSnapshot {
        let params = SimParams {
            functional_warmup_accesses: 2_000,
            warmup_per_core: 1_000,
            measure_per_core: 5_000,
        };
        let cfg = SystemConfig::isca_table1();
        let result = run_benchmark(&cfg, EngineKind::CounterLight, "bfs", params);
        StatsSnapshot::capture(&result, "table1", 0xDEAD_BEEF_DEAD_BEEF)
    }

    #[test]
    fn capture_fills_every_component() {
        let snap = snapshot();
        for prefix in ["instructions", "engine.", "dram.", "cache."] {
            assert!(
                snap.metrics.iter().any(|(n, _)| n.starts_with(prefix)),
                "no {prefix} metrics"
            );
        }
        assert!(snap.metric("engine.read_misses").unwrap() > 0.0);
        assert!(snap.metric("engine.counter_cache_hit_rate").is_some());
        assert!(snap.metric("core0.ipc").unwrap() > 0.0);
        assert!(snap.metric("core0.rob_stall_ns").is_some());
        assert!(snap.metric("dram.row_hits").is_some());
        assert!(snap.metric("cache.llc_mpki").unwrap() > 0.0);
        assert_eq!(snap.label(), "table1/counter-light/bfs");
        assert_eq!(snap.file_stem(), "table1__counter-light__bfs");
    }

    #[test]
    fn capture_with_series_appends_series_metrics() {
        let params = SimParams {
            functional_warmup_accesses: 2_000,
            warmup_per_core: 1_000,
            measure_per_core: 5_000,
        };
        let cfg = SystemConfig::isca_table1();
        let (result, series, blame) = crate::run::run_benchmark_series(
            &cfg,
            EngineKind::CounterMode,
            "bfs",
            params,
            11,
            clme_obs::DEFAULT_EPOCH_CYCLES,
        );
        let snap = StatsSnapshot::capture_with_series(&result, "table1", 11, &series, &blame);
        assert_eq!(snap.metric("series.epochs"), Some(series.len() as f64));
        assert!(snap.metric("series.ipc_max").unwrap() > 0.0);
        assert!(snap.metric("series.ipc_min").unwrap() <= snap.metric("series.ipc_max").unwrap());
        assert!(snap.metric("series.counter_cache_hit_rate_last").is_some());
        assert!(snap.metric("series.row_conflict_rate_mean").is_some());
        // The blame summary covers exactly the classified misses and its
        // fractions partition them.
        assert_eq!(snap.metric("blame.requests"), Some(blame.total() as f64));
        let fractions = ["dram", "counter", "cipher", "mac"]
            .iter()
            .map(|k| snap.metric(&format!("blame.{k}_bound_fraction")).unwrap())
            .sum::<f64>();
        assert!(
            (fractions - 1.0).abs() < 1e-9,
            "fractions sum to 1, got {fractions}"
        );
        // The plain metrics come first and are unchanged by the series.
        let plain = StatsSnapshot::capture(&result, "table1", 11);
        assert_eq!(snap.metrics[..plain.metrics.len()], plain.metrics[..]);
    }

    #[test]
    fn json_round_trips_exactly() {
        let snap = snapshot();
        let text = snap.to_json();
        let back = StatsSnapshot::from_json(&text).unwrap();
        assert_eq!(back, snap);
        // Re-encoding is byte-identical (the goldens' stability contract).
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn seed_survives_full_u64_range() {
        let mut snap = snapshot();
        snap.seed = u64::MAX;
        let back = StatsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back.seed, u64::MAX);
    }

    #[test]
    fn compare_accepts_within_band_and_flags_outside() {
        let golden = snapshot();
        let mut fresh = golden.clone();
        assert!(compare(&golden, &fresh, Tolerance::exact()).is_empty());

        // Nudge one metric by 1%: passes ±2%, fails exact.
        let idx = fresh.metrics.iter().position(|(n, _)| n == "ipc").unwrap();
        fresh.metrics[idx].1 *= 1.01;
        assert!(compare(&golden, &fresh, Tolerance::default_band()).is_empty());
        let exact = compare(&golden, &fresh, Tolerance::exact());
        assert_eq!(exact.len(), 1);
        assert!(exact[0].starts_with("ipc:"), "{exact:?}");

        // A 10% deviation breaches the default band.
        fresh.metrics[idx].1 = golden.metrics[idx].1 * 1.10;
        assert_eq!(compare(&golden, &fresh, Tolerance::default_band()).len(), 1);
    }

    #[test]
    fn compare_flags_identity_and_missing_metrics() {
        let golden = snapshot();
        let mut fresh = golden.clone();
        fresh.benchmark = "other".into();
        assert!(compare(&golden, &fresh, Tolerance::exact())[0].contains("identity"));

        let mut trimmed = golden.clone();
        trimmed.metrics.pop();
        let report = compare(&golden, &trimmed, Tolerance::exact());
        assert_eq!(report.len(), 1);
        assert!(report[0].contains("missing"));
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let text = snapshot()
            .to_json()
            .replace("\"schema\": 4", "\"schema\": 999");
        assert!(StatsSnapshot::from_json(&text).is_err());
    }
}
