//! The counter-mode baseline with RMCC memoization (Sections II-B/II-C;
//! measured in the paper's Figs. 8 and 9).
//!
//! Reads fetch the block's counter (through the counter cache, with the
//! DRAM fetch serialised behind the lookup) and generate the pad from the
//! memoization table when possible. Writebacks read-modify-write the
//! counter block and every integrity-tree level — the bandwidth overhead
//! that motivated the industry's move to counterless encryption.
//!
//! [`CounterModeConfig`] exposes the ablations the paper simulates:
//! Fig. 9's "single counter read only" drops all writeback metadata and
//! all tree accesses, isolating the latency cost of that one read.

use crate::engine::{EncryptionEngine, EngineKind, ReadMissOutcome, WritebackOutcome};
use crate::metadata::MetadataTraffic;
use crate::stats::EngineStats;
use clme_counters::memo::MemoTable;
use clme_dram::timing::{AccessKind, Dram};
use clme_obs::{Component, EventKind, SpanKind, Stage, TraceSink};
use clme_types::config::SystemConfig;
use clme_types::{BlockAddr, Time, TimeDelta};
use std::collections::HashMap;

/// Which parts of the counter-mode machinery are active.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterModeConfig {
    /// Fetch the block's counter on read misses.
    pub fetch_counters_on_read: bool,
    /// Install read-fetched counter blocks into the counter cache.
    pub cache_read_counters: bool,
    /// Verify the integrity-tree path when a read's counter missed the
    /// cache (traditional counter mode, Fig. 6a).
    pub tree_on_read: bool,
    /// Update counter blocks on writebacks.
    pub writeback_metadata: bool,
    /// Update the integrity-tree path on writebacks.
    pub tree_on_write: bool,
}

impl CounterModeConfig {
    /// Full traditional counter mode with RMCC memoization.
    pub fn full() -> CounterModeConfig {
        CounterModeConfig {
            fetch_counters_on_read: true,
            cache_read_counters: true,
            tree_on_read: true,
            writeback_metadata: true,
            tree_on_write: true,
        }
    }

    /// The Fig. 9 ablation: *only* the missing block's one counter read
    /// remains; all writeback metadata and all tree accesses are dropped.
    pub fn single_counter_read_only() -> CounterModeConfig {
        CounterModeConfig {
            fetch_counters_on_read: true,
            cache_read_counters: true,
            tree_on_read: false,
            writeback_metadata: false,
            tree_on_write: false,
        }
    }
}

impl Default for CounterModeConfig {
    fn default() -> CounterModeConfig {
        CounterModeConfig::full()
    }
}

/// Counter-mode encryption with memoized pads.
#[derive(Clone, Debug)]
pub struct CounterModeEngine {
    mode_cfg: CounterModeConfig,
    metadata: MetadataTraffic,
    memo: MemoTable,
    counters: HashMap<u64, u64>,
    aes: TimeDelta,
    ecc_check: TimeDelta,
    memo_combine: TimeDelta,
    mac_window: TimeDelta,
    stats: EngineStats,
}

impl CounterModeEngine {
    /// Creates a counter-mode engine over `data_blocks` of protected
    /// memory.
    pub fn new(cfg: &SystemConfig, data_blocks: u64) -> CounterModeEngine {
        CounterModeEngine::with_mode_config(cfg, data_blocks, CounterModeConfig::full())
    }

    /// Creates an engine with explicit ablation switches.
    pub fn with_mode_config(
        cfg: &SystemConfig,
        data_blocks: u64,
        mode_cfg: CounterModeConfig,
    ) -> CounterModeEngine {
        let mut memo = MemoTable::new(cfg.memo_entries);
        // Cold memory is "written with counter 0": memoize it so
        // first-touch reads behave like RMCC's warmed table.
        memo.insert(0, [0; 16]);
        CounterModeEngine {
            mode_cfg,
            metadata: MetadataTraffic::new(cfg, data_blocks),
            memo,
            counters: HashMap::new(),
            aes: cfg.aes_latency(),
            ecc_check: cfg.ecc_check_latency,
            memo_combine: cfg.memo_combine_latency,
            // Synergy layout: the MAC occupies the ninth-chip lanes of the
            // same burst, so it lands over the last eighth of the transfer.
            mac_window: TimeDelta::from_picos(cfg.block_transfer_time().picos() / 8),
            stats: EngineStats::new(),
        }
    }

    /// The block's current counter (0 for never-written blocks).
    pub fn counter_of(&self, block: BlockAddr) -> u64 {
        self.counters.get(&block.raw()).copied().unwrap_or(0)
    }
}

impl EncryptionEngine for CounterModeEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::CounterMode
    }

    fn on_read_miss_obs(
        &mut self,
        block: BlockAddr,
        issue: Time,
        dram: &mut Dram,
        obs: &mut dyn TraceSink,
    ) -> ReadMissOutcome {
        obs.tick(issue);
        let data = dram.access_obs(block, AccessKind::Read, issue, obs);
        if obs.enabled() {
            obs.span_child(SpanKind::DataDram, 0, issue, data.arrival);
        }
        let mut counter_known = None;
        let mut ready = data.arrival + self.ecc_check;
        let protected = block.raw() < self.metadata.layout().data_blocks();
        if self.mode_cfg.fetch_counters_on_read && protected {
            obs.count(EventKind::CounterFetchStart);
            let fetch = self.metadata.counter_for_read_obs(
                block,
                issue,
                dram,
                self.mode_cfg.cache_read_counters,
                obs,
            );
            self.stats.metadata_reads += fetch.dram_reads;
            self.stats.metadata_writes += fetch.dram_writes;
            if fetch.counter_dram_arrival.is_some() {
                self.stats.counter_fetches += 1;
                if self.mode_cfg.tree_on_read {
                    let verify = self
                        .metadata
                        .verify_tree_for_read_obs(block, issue, dram, obs);
                    self.stats.metadata_reads += verify.dram_reads;
                    self.stats.metadata_writes += verify.dram_writes;
                }
            } else {
                obs.count(EventKind::CounterCacheHit);
            }
            counter_known = Some(fetch.available);
            // Fig. 8: counter arrival minus data arrival, over all misses.
            let skew = fetch.available.picos() as i64 - data.arrival.picos() as i64;
            self.stats.counter_skew.add(skew);
            // Pad generation starts when the counter value is known.
            let counter = self.counter_of(block);
            let memo_hit = self.memo.lookup(counter).is_some();
            let pad_latency = if memo_hit {
                self.memo_combine
            } else {
                self.aes
            };
            self.stats.memo = self.memo.hit_ratio();
            let pad_done = fetch.available + pad_latency;
            ready = pad_done.max(data.arrival) + self.ecc_check;
            if obs.enabled() {
                if fetch.available > data.arrival {
                    obs.count(EventKind::CounterLate);
                }
                obs.count(if memo_hit {
                    EventKind::PadMemoized
                } else {
                    EventKind::PadAes
                });
                obs.latency(Stage::CounterFetch, fetch.available.saturating_since(issue));
                obs.span_child(
                    if memo_hit {
                        SpanKind::PadMemo
                    } else {
                        SpanKind::PadAes
                    },
                    0,
                    fetch.available,
                    pad_done,
                );
            }
            self.stats.counter_cache = self.metadata.cache_hit_ratio();
        }
        self.stats.read_misses += 1;
        self.stats.reads_in_counter_mode += 1;
        self.stats.total_read_latency += ready - issue;
        self.stats.total_stall_after_data += ready.saturating_since(data.arrival);
        if obs.enabled() {
            obs.count(EventKind::MacVerify);
            // Synergy stores the MAC in-line: its lanes ride the tail of
            // the data burst instead of issuing a separate DRAM read.
            obs.latency(Stage::MacFetch, self.mac_window);
            obs.span_child(
                SpanKind::MacFetch,
                0,
                data.arrival - self.mac_window,
                data.arrival,
            );
            obs.span_child(SpanKind::EccDecode, 0, ready - self.ecc_check, ready);
            obs.event(
                issue,
                Component::Engine,
                EventKind::ReadMiss,
                block.raw(),
                ready - issue,
            );
            obs.latency(Stage::Engine, ready.saturating_since(data.arrival));
        }
        ReadMissOutcome {
            data_arrival: data.arrival,
            ready,
            counter_known,
        }
    }

    fn on_prefetch_fill_obs(
        &mut self,
        block: BlockAddr,
        issue: Time,
        dram: &mut Dram,
        obs: &mut dyn TraceSink,
    ) -> Time {
        obs.tick(issue);
        self.stats.prefetch_fills += 1;
        obs.count(EventKind::PrefetchFill);
        let arrival = dram.background_access_obs(block, AccessKind::Read, issue, obs);
        if self.mode_cfg.fetch_counters_on_read
            && block.raw() < self.metadata.layout().data_blocks()
        {
            let fetch = self.metadata.counter_for_read(
                block,
                issue,
                dram,
                self.mode_cfg.cache_read_counters,
            );
            self.stats.metadata_reads += fetch.dram_reads;
            self.stats.metadata_writes += fetch.dram_writes;
            self.stats.counter_cache = self.metadata.cache_hit_ratio();
        }
        arrival
    }

    fn on_writeback_obs(
        &mut self,
        block: BlockAddr,
        now: Time,
        dram: &mut Dram,
        obs: &mut dyn TraceSink,
    ) -> WritebackOutcome {
        obs.tick(now);
        let data_done = dram.background_access_obs(block, AccessKind::Write, now, obs);
        let mut completion = data_done;
        if self.mode_cfg.writeback_metadata && block.raw() < self.metadata.layout().data_blocks() {
            let update =
                self.metadata
                    .update_for_writeback(block, now, dram, self.mode_cfg.tree_on_write);
            self.stats.metadata_reads += update.dram_reads;
            self.stats.metadata_writes += update.dram_writes;
            completion = completion.max(update.available);
            self.stats.counter_cache = self.metadata.cache_hit_ratio();
        }
        // RMCC counter-advance policy: jump to the next memoized value.
        let current = self.counter_of(block);
        let next = self.memo.advance(current, u64::MAX);
        if !self.memo.probe(next) {
            self.memo.insert(next, [0; 16]);
        }
        self.counters.insert(block.raw(), next);
        self.stats.writebacks += 1;
        self.stats.counter_mode_writebacks += 1;
        if obs.enabled() {
            obs.count(EventKind::Writeback);
            obs.count(EventKind::WritebackCounterMode);
        }
        WritebackOutcome {
            used_counter_mode: true,
            completion,
        }
    }

    fn stats(&self) -> &EngineStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = EngineStats::new();
        self.metadata.reset_stats();
        self.memo.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (CounterModeEngine, Dram) {
        let cfg = SystemConfig::isca_table1();
        (CounterModeEngine::new(&cfg, 1 << 20), Dram::new(&cfg))
    }

    #[test]
    fn cold_read_fetches_counter_and_tree() {
        let (mut engine, mut dram) = setup();
        let miss = engine.on_read_miss(BlockAddr::new(0), Time::ZERO, &mut dram);
        assert!(miss.counter_known.is_some());
        assert_eq!(engine.stats().counter_fetches, 1);
        // Counter block + 4 tree levels.
        assert_eq!(engine.stats().metadata_reads, 5);
    }

    #[test]
    fn warm_counter_cache_makes_counter_early() {
        let (mut engine, mut dram) = setup();
        engine.on_read_miss(BlockAddr::new(0), Time::ZERO, &mut dram);
        let t = Time::ZERO + TimeDelta::from_us(1);
        let miss = engine.on_read_miss(BlockAddr::new(1), t, &mut dram);
        // Counter known 2 ns after issue — far before data arrival.
        assert_eq!(miss.counter_known.unwrap(), t + TimeDelta::from_ns(2));
        assert!(miss.counter_known.unwrap() < miss.data_arrival);
        // Memoized counter 0 → pad ready before data: total stall = check.
        assert_eq!(miss.ready - miss.data_arrival, TimeDelta::from_ns(1));
    }

    #[test]
    fn counter_cache_miss_can_delay_ready_past_data() {
        let (mut engine, mut dram) = setup();
        let miss = engine.on_read_miss(BlockAddr::new(0), Time::ZERO, &mut dram);
        // Cold: counter fetch serialises behind lookup and data transfer,
        // so readiness is gated by the counter, not the data.
        assert!(miss.counter_known.unwrap() >= miss.data_arrival);
        assert!(miss.ready > miss.data_arrival + TimeDelta::from_ns(1));
    }

    #[test]
    fn writeback_updates_counter_and_advances_via_memo() {
        let (mut engine, mut dram) = setup();
        let block = BlockAddr::new(42);
        assert_eq!(engine.counter_of(block), 0);
        let wb = engine.on_writeback(block, Time::ZERO, &mut dram);
        assert!(wb.used_counter_mode);
        assert!(engine.counter_of(block) > 0);
        assert!(engine.stats().metadata_reads >= 1);
        // A second write advances monotonically.
        let before = engine.counter_of(block);
        engine.on_writeback(block, Time::ZERO, &mut dram);
        assert!(engine.counter_of(block) > before);
    }

    #[test]
    fn advance_policy_yields_memo_hits_on_reread() {
        let cfg = SystemConfig::isca_table1();
        let mut engine = CounterModeEngine::new(&cfg, 1 << 20);
        let mut dram = Dram::new(&cfg);
        // Write then read many blocks: counters land on memoized values.
        for i in 0..200u64 {
            engine.on_writeback(BlockAddr::new(i * 64), Time::ZERO, &mut dram);
        }
        engine.reset_stats();
        for i in 0..200u64 {
            engine.on_read_miss(BlockAddr::new(i * 64), Time::ZERO, &mut dram);
        }
        assert!(
            engine.stats().memo.rate() >= 0.9,
            "memo hit rate {}",
            engine.stats().memo.rate()
        );
    }

    #[test]
    fn fig9_ablation_drops_writeback_and_tree_traffic() {
        let cfg = SystemConfig::isca_table1();
        let mut engine = CounterModeEngine::with_mode_config(
            &cfg,
            1 << 20,
            CounterModeConfig::single_counter_read_only(),
        );
        let mut dram = Dram::new(&cfg);
        engine.on_writeback(BlockAddr::new(0), Time::ZERO, &mut dram);
        assert_eq!(engine.stats().metadata_reads, 0);
        engine.on_read_miss(BlockAddr::new(64), Time::ZERO, &mut dram);
        // Only the one counter read; no tree.
        assert_eq!(engine.stats().metadata_reads, 1);
    }

    #[test]
    fn skew_histogram_collects_all_misses() {
        let (mut engine, mut dram) = setup();
        engine.on_read_miss(BlockAddr::new(0), Time::ZERO, &mut dram);
        engine.on_read_miss(BlockAddr::new(1), Time::ZERO, &mut dram);
        assert_eq!(engine.stats().counter_skew.total(), 2);
    }
}
