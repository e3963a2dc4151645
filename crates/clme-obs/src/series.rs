//! The epoch sampler: counters and histograms *over simulated time*.
//!
//! The paper's key effects are temporal — counter-cache warmup, the
//! row-buffer contention that makes counters arrive later than data
//! (Fig. 8), and the per-epoch mode switch itself — but end-of-run
//! aggregates flatten all of it. [`SeriesRecorder`] is a [`TraceSink`]
//! that, in addition to accumulating the same per-stage histograms and
//! event counters as [`Recorder`](crate::Recorder), snapshots the
//! *delta* of every counter and histogram each `epoch_cycles` simulated
//! core cycles into a compact [`EpochSeries`]: per-epoch IPC,
//! counter-cache hit rate, row-conflict rate, and per-stage latency
//! percentiles.
//!
//! Epoch boundaries are driven by the [`TraceSink::tick`] hook (called
//! by the machine per executed op and by the engines and DRAM on each
//! event) and instruction counts by [`TraceSink::retire`];
//! both are pure integer bookkeeping on the single-threaded simulation
//! sequence, so a cell's series is byte-identical no matter how many
//! matrix worker threads ran around it.
//!
//! # Examples
//!
//! ```
//! use clme_obs::{SeriesRecorder, Stage, TraceSink};
//! use clme_types::{Time, TimeDelta};
//!
//! // 10 cycles of 100 ps per epoch.
//! let mut rec = SeriesRecorder::new(10, TimeDelta::from_picos(100));
//! rec.latency(Stage::Dram, TimeDelta::from_ns(20));
//! rec.retire(7);
//! rec.tick(Time::from_picos(1_500)); // crosses one full epoch
//! let series = rec.into_series();
//! assert_eq!(series.samples[0].instructions, 7);
//! assert_eq!(series.samples[0].stages[Stage::Dram as usize].count, 1);
//! ```

use crate::counters::{EventCounters, EventKind};
use crate::hist::Log2Histogram;
use crate::sink::{Stage, TraceSink, STAGES};
use crate::span::{BlameTally, BlameTracker, SpanKind};
use clme_types::json::JsonValue;
use clme_types::{Time, TimeDelta};
use std::any::Any;

/// Default epoch length in core cycles (~2.56 µs at 3.2 GHz): fine
/// enough to resolve counter-cache warmup in a tiny matrix cell, coarse
/// enough that a full evaluation window stays a few hundred samples.
pub const DEFAULT_EPOCH_CYCLES: u64 = 8_192;

/// Per-stage summary of one epoch's latency samples.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StageSample {
    /// Samples recorded in this epoch.
    pub count: u64,
    /// Exact mean latency of the epoch's samples, in picoseconds.
    pub mean_ps: f64,
    /// Approximate median, in picoseconds.
    pub p50_ps: u64,
    /// Approximate 95th percentile, in picoseconds.
    pub p95_ps: u64,
}

impl StageSample {
    fn from_hist(hist: &Log2Histogram) -> StageSample {
        StageSample {
            count: hist.count(),
            mean_ps: hist.mean_ps(),
            p50_ps: hist.percentile_ps(0.50),
            p95_ps: hist.percentile_ps(0.95),
        }
    }
}

/// One epoch of the time-series: every counter delta plus per-stage
/// latency summaries.
#[derive(Clone, Debug, PartialEq)]
pub struct EpochSample {
    /// Epoch number since the measurement window started (0-based).
    pub index: u64,
    /// Simulated end of the epoch.
    pub end: Time,
    /// Core cycles this epoch covers (`epoch_cycles`, except a shorter
    /// final partial epoch).
    pub cycles: u64,
    /// Instructions retired (all cores) in this epoch.
    pub instructions: u64,
    /// Event-counter deltas for this epoch.
    pub counters: EventCounters,
    /// Per-stage latency summaries for this epoch (indexed by `Stage`).
    pub stages: [StageSample; STAGES],
}

impl EpochSample {
    /// Aggregate IPC over this epoch (all cores' instructions divided by
    /// the epoch's core cycles).
    pub fn ipc(&self) -> f64 {
        self.instructions as f64 / self.cycles.max(1) as f64
    }

    /// Counter-cache hit rate over this epoch's counter fetches
    /// (hits / (hits + DRAM fetches)); 0 when no counters were fetched.
    pub fn counter_cache_hit_rate(&self) -> f64 {
        let hits = self.counters.get(EventKind::CounterCacheHit);
        let misses = self.counters.get(EventKind::CounterFetchStart);
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }

    /// Fraction of this epoch's demand DRAM accesses that conflicted
    /// with a different open row; 0 when DRAM was idle.
    pub fn row_conflict_rate(&self) -> f64 {
        let conflicts = self.counters.get(EventKind::RowConflict);
        let total = conflicts
            + self.counters.get(EventKind::RowHit)
            + self.counters.get(EventKind::RowClosed);
        if total == 0 {
            0.0
        } else {
            conflicts as f64 / total as f64
        }
    }
}

/// The complete epoch time-series of one measured window.
#[derive(Clone, Debug, PartialEq)]
pub struct EpochSeries {
    /// Nominal epoch length in core cycles.
    pub epoch_cycles: u64,
    /// The core period the cycle counts are denominated in.
    pub core_period: TimeDelta,
    /// The epochs, in simulated-time order.
    pub samples: Vec<EpochSample>,
}

impl EpochSeries {
    /// Number of epochs.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when the window produced no epochs.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Smallest per-epoch IPC (0 for an empty series).
    pub fn ipc_min(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples
            .iter()
            .map(EpochSample::ipc)
            .fold(f64::INFINITY, f64::min)
    }

    /// Largest per-epoch IPC (0 for an empty series).
    pub fn ipc_max(&self) -> f64 {
        self.samples
            .iter()
            .map(EpochSample::ipc)
            .fold(0.0, f64::max)
    }

    /// IPC of the final epoch (0 for an empty series) — the steady-state
    /// signal, vs. [`ipc_min`](Self::ipc_min) which usually catches the
    /// cold-cache first epochs.
    pub fn ipc_last(&self) -> f64 {
        self.samples.last().map(EpochSample::ipc).unwrap_or(0.0)
    }

    /// Counter-cache hit rate of the final epoch (warmup endpoint).
    pub fn counter_cache_hit_rate_last(&self) -> f64 {
        self.samples
            .last()
            .map(EpochSample::counter_cache_hit_rate)
            .unwrap_or(0.0)
    }

    /// Mean of the per-epoch row-conflict rates (0 for an empty series).
    pub fn row_conflict_rate_mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples
            .iter()
            .map(EpochSample::row_conflict_rate)
            .sum::<f64>()
            / self.samples.len() as f64
    }

    /// The byte-stable JSON encoding of the series (ends with a
    /// newline): one object per epoch with IPC, derived rates, nonzero
    /// counters, and per-stage summaries. `label` names the cell.
    pub fn to_json(&self, label: &str) -> String {
        let epochs = self
            .samples
            .iter()
            .map(|sample| {
                let counters = sample
                    .counters
                    .nonzero()
                    .map(|(kind, count)| (kind.name().to_string(), JsonValue::Num(count as f64)))
                    .collect();
                let stages = Stage::ALL
                    .iter()
                    .map(|&stage| {
                        let s = &sample.stages[stage as usize];
                        (
                            stage.name().to_string(),
                            JsonValue::Obj(vec![
                                ("count".into(), JsonValue::Num(s.count as f64)),
                                ("mean_ps".into(), JsonValue::Num(s.mean_ps)),
                                ("p50_ps".into(), JsonValue::Num(s.p50_ps as f64)),
                                ("p95_ps".into(), JsonValue::Num(s.p95_ps as f64)),
                            ]),
                        )
                    })
                    .collect();
                JsonValue::Obj(vec![
                    ("index".into(), JsonValue::Num(sample.index as f64)),
                    ("end_ps".into(), JsonValue::Num(sample.end.picos() as f64)),
                    ("cycles".into(), JsonValue::Num(sample.cycles as f64)),
                    (
                        "instructions".into(),
                        JsonValue::Num(sample.instructions as f64),
                    ),
                    ("ipc".into(), JsonValue::Num(sample.ipc())),
                    (
                        "counter_cache_hit_rate".into(),
                        JsonValue::Num(sample.counter_cache_hit_rate()),
                    ),
                    (
                        "row_conflict_rate".into(),
                        JsonValue::Num(sample.row_conflict_rate()),
                    ),
                    ("counters".into(), JsonValue::Obj(counters)),
                    ("stages".into(), JsonValue::Obj(stages)),
                ])
            })
            .collect();
        let doc = JsonValue::Obj(vec![
            ("label".into(), JsonValue::Str(label.to_string())),
            (
                "epoch_cycles".into(),
                JsonValue::Num(self.epoch_cycles as f64),
            ),
            (
                "core_period_ps".into(),
                JsonValue::Num(self.core_period.picos() as f64),
            ),
            ("epochs".into(), JsonValue::Arr(epochs)),
        ]);
        let mut text = doc.to_pretty();
        text.push('\n');
        text
    }
}

/// A [`TraceSink`] that accumulates the same cumulative per-stage
/// histograms and event counters as [`Recorder`](crate::Recorder) (no
/// event ring) and additionally flushes an [`EpochSample`] of the deltas
/// every `epoch_cycles` simulated core cycles.
#[derive(Clone, Debug)]
pub struct SeriesRecorder {
    epoch_cycles: u64,
    core_period: TimeDelta,
    epoch_len: TimeDelta,
    /// Simulated start of the current sampling window.
    base: Time,
    /// Latest simulated time observed via [`TraceSink::tick`].
    cursor: Time,
    instructions: u64,
    counters: EventCounters,
    stages: [Log2Histogram; STAGES],
    /// State at the last flushed epoch boundary (for delta extraction).
    flushed_instructions: u64,
    flushed_counters: EventCounters,
    flushed_stages: [Log2Histogram; STAGES],
    samples: Vec<EpochSample>,
    /// O(1)-per-request critical-path blame over the whole window (the
    /// `blame.*` snapshot metrics; not broken out per epoch).
    blame: BlameTracker,
}

impl SeriesRecorder {
    /// Creates a sampler flushing every `epoch_cycles` cycles of
    /// `core_period` each.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_cycles` is 0 or `core_period` is zero.
    pub fn new(epoch_cycles: u64, core_period: TimeDelta) -> SeriesRecorder {
        assert!(epoch_cycles > 0, "epoch must cover at least one cycle");
        assert!(
            core_period > TimeDelta::ZERO,
            "core period must be positive"
        );
        SeriesRecorder {
            epoch_cycles,
            core_period,
            epoch_len: core_period * epoch_cycles,
            base: Time::ZERO,
            cursor: Time::ZERO,
            instructions: 0,
            counters: EventCounters::new(),
            stages: Default::default(),
            flushed_instructions: 0,
            flushed_counters: EventCounters::new(),
            flushed_stages: Default::default(),
            samples: Vec::new(),
            blame: BlameTracker::new(),
        }
    }

    /// The critical-path blame tally over the measured window.
    pub fn blame_tally(&self) -> &BlameTally {
        self.blame.tally()
    }

    /// The cumulative event counters (like [`Recorder::counters`](crate::Recorder::counters)).
    pub fn counters(&self) -> &EventCounters {
        &self.counters
    }

    /// The cumulative latency histogram for `stage`.
    pub fn stage(&self, stage: Stage) -> &Log2Histogram {
        &self.stages[stage as usize]
    }

    /// The epochs flushed so far (excludes the in-flight partial epoch).
    pub fn samples(&self) -> &[EpochSample] {
        &self.samples
    }

    /// The end of the next unflushed epoch.
    fn next_boundary(&self) -> Time {
        self.base + self.epoch_len * (self.samples.len() as u64 + 1)
    }

    /// Flushes one epoch ending at `end` covering `cycles` cycles.
    fn flush(&mut self, end: Time, cycles: u64) {
        let mut stages = [StageSample::default(); STAGES];
        for (i, stage) in stages.iter_mut().enumerate() {
            let delta = self.stages[i].delta_since(&self.flushed_stages[i]);
            *stage = StageSample::from_hist(&delta);
        }
        self.samples.push(EpochSample {
            index: self.samples.len() as u64,
            end,
            cycles,
            instructions: self.instructions - self.flushed_instructions,
            counters: self.counters.delta_since(&self.flushed_counters),
            stages,
        });
        self.flushed_instructions = self.instructions;
        self.flushed_counters = self.counters.clone();
        self.flushed_stages = self.stages.clone();
    }

    /// Extracts the series, flushing any trailing partial epoch that
    /// covers at least one whole cycle.
    pub fn into_series(mut self) -> EpochSeries {
        let last_boundary = self.base + self.epoch_len * (self.samples.len() as u64);
        let tail_cycles = self.cursor.saturating_since(last_boundary) / self.core_period;
        let tail_activity = self.instructions > self.flushed_instructions
            || self.counters != self.flushed_counters
            || self.stages != self.flushed_stages;
        if tail_cycles > 0 && tail_activity {
            let end = self.cursor;
            self.flush(end, tail_cycles);
        }
        EpochSeries {
            epoch_cycles: self.epoch_cycles,
            core_period: self.core_period,
            samples: self.samples,
        }
    }
}

impl TraceSink for SeriesRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn event(
        &mut self,
        _at: Time,
        _component: crate::counters::Component,
        event: EventKind,
        _addr: u64,
        _latency: TimeDelta,
    ) {
        self.counters.bump(event);
    }

    fn count(&mut self, event: EventKind) {
        self.counters.bump(event);
    }

    fn latency(&mut self, stage: Stage, latency: TimeDelta) {
        self.stages[stage as usize].record(latency);
    }

    fn tick(&mut self, now: Time) {
        if now <= self.cursor {
            return;
        }
        self.cursor = now;
        while self.cursor >= self.next_boundary() {
            let end = self.next_boundary();
            self.flush(end, self.epoch_cycles);
        }
    }

    fn retire(&mut self, instructions: u64) {
        self.instructions += instructions;
    }

    fn span_request_begin(&mut self, _at: Time, _addr: u64) {
        self.blame.begin();
    }

    fn span_child(&mut self, kind: SpanKind, _level: u8, _begin: Time, end: Time) {
        self.blame.child(kind, end);
    }

    fn span_request_end(&mut self, data_arrival: Time, ready: Time) {
        self.blame.end(data_arrival, ready);
    }

    fn window_reset(&mut self) {
        // Re-anchor epoch 0 at the measurement window's start: the last
        // observed time is (up to one op) the window boundary.
        self.base = self.cursor;
        self.instructions = 0;
        self.flushed_instructions = 0;
        self.counters = EventCounters::new();
        self.flushed_counters = EventCounters::new();
        for stage in &mut self.stages {
            stage.clear();
        }
        for stage in &mut self.flushed_stages {
            stage.clear();
        }
        self.samples.clear();
        self.blame.reset();
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Component;

    fn ps(v: u64) -> Time {
        Time::from_picos(v)
    }

    /// 10 cycles of 100 ps: epoch boundaries at 1000, 2000, 3000, ...
    fn recorder() -> SeriesRecorder {
        SeriesRecorder::new(10, TimeDelta::from_picos(100))
    }

    #[test]
    fn epochs_flush_on_boundary_crossings() {
        let mut rec = recorder();
        rec.retire(5);
        rec.latency(Stage::Dram, TimeDelta::from_picos(400));
        rec.tick(ps(999));
        assert!(rec.samples().is_empty(), "no boundary crossed yet");
        rec.tick(ps(1000));
        assert_eq!(rec.samples().len(), 1);
        let first = &rec.samples()[0];
        assert_eq!(first.instructions, 5);
        assert_eq!(first.cycles, 10);
        assert_eq!(first.end, ps(1000));
        assert!((first.ipc() - 0.5).abs() < 1e-12);
        assert_eq!(first.stages[Stage::Dram as usize].count, 1);
        // A jump across several boundaries flushes the quiet epochs too.
        rec.retire(3);
        rec.tick(ps(3_500));
        assert_eq!(rec.samples().len(), 3);
        assert_eq!(rec.samples()[1].instructions, 3);
        assert_eq!(rec.samples()[2].instructions, 0);
        assert_eq!(rec.samples()[2].counters, EventCounters::new());
    }

    #[test]
    fn deltas_do_not_double_count() {
        let mut rec = recorder();
        rec.count(EventKind::RowHit);
        rec.count(EventKind::RowHit);
        rec.tick(ps(1000));
        rec.count(EventKind::RowHit);
        rec.tick(ps(2000));
        assert_eq!(rec.samples()[0].counters.get(EventKind::RowHit), 2);
        assert_eq!(rec.samples()[1].counters.get(EventKind::RowHit), 1);
        // Cumulative view still totals 3.
        assert_eq!(rec.counters().get(EventKind::RowHit), 3);
    }

    #[test]
    fn non_monotonic_ticks_are_tolerated() {
        let mut rec = recorder();
        rec.tick(ps(1_500));
        rec.tick(ps(700)); // a component-local timestamp trailing the max
        rec.tick(ps(1_600));
        assert_eq!(rec.samples().len(), 1);
        assert_eq!(rec.samples()[0].end, ps(1000));
    }

    #[test]
    fn window_reset_reanchors_epoch_zero() {
        let mut rec = recorder();
        rec.retire(100);
        rec.tick(ps(2_350)); // two epochs + partial
        rec.window_reset();
        assert!(rec.samples().is_empty());
        rec.retire(4);
        // Base is now 2350: the next boundary is 3350.
        rec.tick(ps(3_349));
        assert!(rec.samples().is_empty());
        rec.tick(ps(3_350));
        assert_eq!(rec.samples().len(), 1);
        assert_eq!(rec.samples()[0].instructions, 4);
    }

    #[test]
    fn into_series_flushes_the_partial_tail() {
        let mut rec = recorder();
        rec.retire(6);
        rec.tick(ps(1000));
        rec.retire(2);
        rec.latency(Stage::Engine, TimeDelta::from_picos(50));
        rec.tick(ps(1_530)); // 5 whole cycles past the boundary
        let series = rec.into_series();
        assert_eq!(series.len(), 2);
        let tail = &series.samples[1];
        assert_eq!(tail.cycles, 5);
        assert_eq!(tail.instructions, 2);
        assert_eq!(tail.end, ps(1_530));
        assert!((tail.ipc() - 0.4).abs() < 1e-12);
        // A quiet tail (no activity after the boundary) is dropped.
        let mut quiet = recorder();
        quiet.retire(1);
        quiet.tick(ps(1000));
        quiet.tick(ps(1_999));
        assert_eq!(quiet.into_series().len(), 1);
    }

    #[test]
    fn derived_rates() {
        let mut rec = recorder();
        rec.count(EventKind::CounterCacheHit);
        rec.count(EventKind::CounterCacheHit);
        rec.count(EventKind::CounterCacheHit);
        rec.count(EventKind::CounterFetchStart);
        rec.count(EventKind::RowHit);
        rec.count(EventKind::RowConflict);
        rec.tick(ps(1000));
        let sample = &rec.samples()[0];
        assert!((sample.counter_cache_hit_rate() - 0.75).abs() < 1e-12);
        assert!((sample.row_conflict_rate() - 0.5).abs() < 1e-12);
        // Empty epochs report 0 rates, not NaN.
        rec.tick(ps(2000));
        let quiet = &rec.samples()[1];
        assert_eq!(quiet.counter_cache_hit_rate(), 0.0);
        assert_eq!(quiet.row_conflict_rate(), 0.0);
    }

    #[test]
    fn series_json_is_stable_and_parses() {
        let mut rec = recorder();
        rec.retire(10);
        rec.count(EventKind::ReadMiss);
        rec.event(
            ps(10),
            Component::Dram,
            EventKind::RowHit,
            7,
            TimeDelta::from_picos(100),
        );
        rec.latency(Stage::Cache, TimeDelta::from_picos(300));
        rec.tick(ps(2_000));
        let series = rec.into_series();
        let a = series.to_json("table1/counter-light/bfs");
        let b = series.to_json("table1/counter-light/bfs");
        assert_eq!(a, b);
        let doc = clme_types::json::parse(&a).expect("series JSON must parse");
        assert_eq!(
            doc.get("label").and_then(JsonValue::as_str),
            Some("table1/counter-light/bfs")
        );
        let epochs = match doc.get("epochs") {
            Some(JsonValue::Arr(items)) => items,
            other => panic!("epochs missing: {other:?}"),
        };
        assert_eq!(epochs.len(), 2);
        assert_eq!(
            epochs[0].get("instructions").and_then(JsonValue::as_f64),
            Some(10.0)
        );
    }

    #[test]
    fn hostile_labels_survive_series_json() {
        // The label is caller-supplied (CLI bench/config names), so the
        // emitted document must escape quotes, backslashes, and control
        // characters rather than leaking them into the JSON.
        let mut rec = recorder();
        rec.retire(3);
        rec.tick(ps(2_000));
        let series = rec.into_series();
        let label = "cfg\"x\"/eng\\y/bench\n\u{2}z";
        let text = series.to_json(label);
        assert!(
            text.bytes().all(|b| b >= 0x20 || b == b'\n'),
            "raw control bytes leaked: {text:?}"
        );
        let doc = clme_types::json::parse(&text).expect("hostile-label series must parse");
        assert_eq!(doc.get("label").and_then(JsonValue::as_str), Some(label));
    }

    #[test]
    fn summary_accessors_cover_empty_and_filled() {
        let empty = EpochSeries {
            epoch_cycles: 10,
            core_period: TimeDelta::from_picos(100),
            samples: Vec::new(),
        };
        assert_eq!(empty.ipc_min(), 0.0);
        assert_eq!(empty.ipc_max(), 0.0);
        assert_eq!(empty.ipc_last(), 0.0);
        assert_eq!(empty.counter_cache_hit_rate_last(), 0.0);
        assert_eq!(empty.row_conflict_rate_mean(), 0.0);
        assert!(empty.is_empty());

        let mut rec = recorder();
        rec.retire(2);
        rec.tick(ps(1000));
        rec.retire(8);
        rec.tick(ps(2000));
        let series = rec.into_series();
        assert!((series.ipc_min() - 0.2).abs() < 1e-12);
        assert!((series.ipc_max() - 0.8).abs() < 1e-12);
        assert!((series.ipc_last() - 0.8).abs() < 1e-12);
        assert_eq!(series.len(), 2);
    }
}
