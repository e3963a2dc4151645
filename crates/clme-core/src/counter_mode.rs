//! The counter-mode baseline with RMCC memoization (Sections II-B/II-C;
//! measured in the paper's Figs. 8 and 9).
//!
//! Reads fetch the block's counter (through the counter cache, with the
//! DRAM fetch serialised behind the lookup) and generate the pad from the
//! memoization table when possible. Writebacks read-modify-write the
//! counter block and every integrity-tree level — the bandwidth overhead
//! that motivated the industry's move to counterless encryption.
//!
//! [`CounterModeConfig`] selects the ablation the paper simulates:
//! Fig. 9's "single counter read only" drops all writeback metadata and
//! all tree accesses, isolating the latency cost of that one read.

use crate::engine::{EncryptionEngine, EngineKind, Frame, Pad, ReadMissOutcome, WritebackOutcome};
use crate::epoch::WritebackMode;
use crate::metadata::MetadataTraffic;
use crate::rmcc::RmccCounters;
use crate::stats::EngineStats;
use clme_dram::timing::Dram;
use clme_obs::{EventKind, NopSink, Stage, TraceSink};
use clme_types::config::SystemConfig;
use clme_types::{BlockAddr, Time};

/// Which counter-mode metadata traffic runs. Every read miss and
/// prefetch fill fetches its block's counter through the counter cache
/// either way.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CounterModeConfig {
    /// Full traditional counter mode with RMCC memoization: a read whose
    /// counter missed the cache verifies the integrity-tree path
    /// (Fig. 6a), and a writeback updates the counter block and the tree
    /// path.
    #[default]
    Full,
    /// The Fig. 9 ablation: *only* the missing block's one counter read
    /// remains; all writeback metadata and all tree accesses are dropped.
    SingleCounterRead,
}

/// Counter-mode encryption with memoized pads.
#[derive(Clone, Debug)]
pub struct CounterModeEngine {
    mode_cfg: CounterModeConfig,
    metadata: MetadataTraffic,
    counters: RmccCounters,
    frame: Frame,
}

impl CounterModeEngine {
    /// Creates a counter-mode engine over `data_blocks` of protected
    /// memory.
    pub fn new(cfg: &SystemConfig, data_blocks: u64) -> CounterModeEngine {
        CounterModeEngine::with_mode_config(cfg, data_blocks, CounterModeConfig::Full)
    }

    /// Creates an engine running the metadata traffic `mode_cfg` selects.
    pub fn with_mode_config(
        cfg: &SystemConfig,
        data_blocks: u64,
        mode_cfg: CounterModeConfig,
    ) -> CounterModeEngine {
        CounterModeEngine {
            mode_cfg,
            metadata: MetadataTraffic::new(cfg, data_blocks),
            counters: RmccCounters::new(cfg),
            frame: Frame::new(cfg, true),
        }
    }

    /// The block's current counter (0 for never-written blocks).
    pub fn counter_of(&self, block: BlockAddr) -> u64 {
        self.counters.counter_of(block)
    }
}

impl EncryptionEngine for CounterModeEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::CounterMode
    }

    fn on_read_miss(
        &mut self,
        block: BlockAddr,
        issue: Time,
        dram: &mut Dram,
        obs: &mut dyn TraceSink,
    ) -> ReadMissOutcome {
        let full = self.mode_cfg == CounterModeConfig::Full;
        self.frame
            .read_miss(block, issue, dram, obs, |stats, data, dram, obs| {
                stats.reads_in_counter_mode += 1;
                if !self.metadata.protects(block) {
                    return None;
                }
                obs.count(EventKind::CounterFetchStart);
                let fetch = self.metadata.counter_for_read(block, issue, dram, obs);
                self.metadata.tally(&fetch, stats);
                if fetch.counter_dram_arrival.is_some() {
                    stats.counter_fetches += 1;
                    if full {
                        let verify = self.metadata.verify_tree_for_read(block, issue, dram, obs);
                        self.metadata.tally(&verify, stats);
                    }
                } else {
                    obs.count(EventKind::CounterCacheHit);
                }
                // Fig. 8: counter arrival minus data arrival, over all misses.
                let skew = fetch.available.picos() as i64 - data.picos() as i64;
                stats.counter_skew.add(skew);
                if obs.enabled() {
                    if fetch.available > data {
                        obs.count(EventKind::CounterLate);
                    }
                    obs.latency(Stage::CounterFetch, fetch.available.saturating_since(issue));
                }
                // Pad generation starts when the counter value is known.
                Some(Pad::Counter {
                    known: fetch.available,
                    memoized: self.counters.memoized(block, stats),
                })
            })
    }

    fn on_prefetch_fill(
        &mut self,
        block: BlockAddr,
        issue: Time,
        dram: &mut Dram,
        obs: &mut dyn TraceSink,
    ) -> Time {
        let arrival = self.frame.prefetch_fill(block, issue, dram, obs);
        if self.metadata.protects(block) {
            // Off the critical path, so the counter fetch is not reported.
            let fetch = self
                .metadata
                .counter_for_read(block, issue, dram, &mut NopSink);
            self.metadata.tally(&fetch, &mut self.frame.stats);
        }
        arrival
    }

    fn on_writeback(
        &mut self,
        block: BlockAddr,
        now: Time,
        dram: &mut Dram,
        obs: &mut dyn TraceSink,
    ) -> WritebackOutcome {
        let full = self.mode_cfg == CounterModeConfig::Full;
        self.frame.writeback(block, now, dram, obs, |stats, dram| {
            let mut metadata_done = Time::ZERO;
            if full && self.metadata.protects(block) {
                let update = self.metadata.update_for_writeback(block, now, dram);
                self.metadata.tally(&update, stats);
                metadata_done = update.available;
            }
            // Counter mode's counters are full-width: no bound short of
            // u64::MAX, which no run reaches.
            self.counters.advance(block, u64::MAX);
            (Some(WritebackMode::Counter), metadata_done)
        })
    }

    fn stats(&self) -> &EngineStats {
        &self.frame.stats
    }

    fn reset_stats(&mut self) {
        self.frame.stats = EngineStats::new();
        self.metadata.reset_stats();
        self.counters.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clme_obs::NopSink;
    use clme_types::TimeDelta;

    fn setup() -> (CounterModeEngine, Dram) {
        let cfg = SystemConfig::isca_table1();
        (CounterModeEngine::new(&cfg, 1 << 20), Dram::new(&cfg))
    }

    #[test]
    fn cold_read_fetches_counter_and_tree() {
        let nop = &mut NopSink;
        let (mut engine, mut dram) = setup();
        let miss = engine.on_read_miss(BlockAddr::new(0), Time::ZERO, &mut dram, nop);
        assert!(miss.counter_known.is_some());
        assert_eq!(engine.stats().counter_fetches, 1);
        // Counter block + 4 tree levels.
        assert_eq!(engine.stats().metadata_reads, 5);
    }

    #[test]
    fn warm_counter_cache_makes_counter_early() {
        let nop = &mut NopSink;
        let (mut engine, mut dram) = setup();
        engine.on_read_miss(BlockAddr::new(0), Time::ZERO, &mut dram, nop);
        let t = Time::ZERO + TimeDelta::from_us(1);
        let miss = engine.on_read_miss(BlockAddr::new(1), t, &mut dram, nop);
        // Counter known 2 ns after issue — far before data arrival.
        assert_eq!(miss.counter_known.unwrap(), t + TimeDelta::from_ns(2));
        assert!(miss.counter_known.unwrap() < miss.data_arrival);
        // Memoized counter 0 → pad ready before data: total stall = check.
        assert_eq!(miss.ready - miss.data_arrival, TimeDelta::from_ns(1));
    }

    #[test]
    fn counter_cache_miss_can_delay_ready_past_data() {
        let nop = &mut NopSink;
        let (mut engine, mut dram) = setup();
        let miss = engine.on_read_miss(BlockAddr::new(0), Time::ZERO, &mut dram, nop);
        // Cold: counter fetch serialises behind lookup and data transfer,
        // so readiness is gated by the counter, not the data.
        assert!(miss.counter_known.unwrap() >= miss.data_arrival);
        assert!(miss.ready > miss.data_arrival + TimeDelta::from_ns(1));
    }

    #[test]
    fn writeback_updates_counter_and_advances_via_memo() {
        let nop = &mut NopSink;
        let (mut engine, mut dram) = setup();
        let block = BlockAddr::new(42);
        assert_eq!(engine.counter_of(block), 0);
        let wb = engine.on_writeback(block, Time::ZERO, &mut dram, nop);
        assert!(wb.used_counter_mode);
        assert!(engine.counter_of(block) > 0);
        assert!(engine.stats().metadata_reads >= 1);
        // A second write advances monotonically.
        let before = engine.counter_of(block);
        engine.on_writeback(block, Time::ZERO, &mut dram, nop);
        assert!(engine.counter_of(block) > before);
    }

    #[test]
    fn advance_policy_yields_memo_hits_on_reread() {
        let nop = &mut NopSink;
        let cfg = SystemConfig::isca_table1();
        let mut engine = CounterModeEngine::new(&cfg, 1 << 20);
        let mut dram = Dram::new(&cfg);
        // Write then read many blocks: counters land on memoized values.
        for i in 0..200u64 {
            engine.on_writeback(BlockAddr::new(i * 64), Time::ZERO, &mut dram, nop);
        }
        engine.reset_stats();
        for i in 0..200u64 {
            engine.on_read_miss(BlockAddr::new(i * 64), Time::ZERO, &mut dram, nop);
        }
        assert!(
            engine.stats().memo.rate() >= 0.9,
            "memo hit rate {}",
            engine.stats().memo.rate()
        );
    }

    #[test]
    fn fig9_ablation_drops_writeback_and_tree_traffic() {
        let nop = &mut NopSink;
        let cfg = SystemConfig::isca_table1();
        let mut engine = CounterModeEngine::with_mode_config(
            &cfg,
            1 << 20,
            CounterModeConfig::SingleCounterRead,
        );
        let mut dram = Dram::new(&cfg);
        engine.on_writeback(BlockAddr::new(0), Time::ZERO, &mut dram, nop);
        assert_eq!(engine.stats().metadata_reads, 0);
        engine.on_read_miss(BlockAddr::new(64), Time::ZERO, &mut dram, nop);
        // Only the one counter read; no tree.
        assert_eq!(engine.stats().metadata_reads, 1);
    }

    #[test]
    fn skew_histogram_collects_all_misses() {
        let nop = &mut NopSink;
        let (mut engine, mut dram) = setup();
        engine.on_read_miss(BlockAddr::new(0), Time::ZERO, &mut dram, nop);
        engine.on_read_miss(BlockAddr::new(1), Time::ZERO, &mut dram, nop);
        assert_eq!(engine.stats().counter_skew.total(), 2);
    }
}
