//! Counter-light Encryption — the paper's contribution (Section IV).
//!
//! **Read misses** never touch counters in memory: the block's
//! EncryptionMetadata (mode + counter) is decoded from the parity lane as
//! soon as *half* the block has crossed the bus, i.e.
//! `half_block_transfer_time` before the full arrival. For counter-mode
//! blocks whose counter value hits the memoization table, the pad is
//! ready `memo_combine` after that point — the +0.75 ns common case of
//! Section IV-D. Memo misses and counterless-mode blocks pay AES, like
//! counterless encryption.
//!
//! **Writebacks** consult the epoch bandwidth monitor: in quiet epochs
//! they use counter mode (advancing the counter onto a memoized value and
//! updating the counter block + integrity tree through the counter
//! cache); in hot epochs they switch to counterless for free, because the
//! mode is recorded in the block's own ECC rather than anywhere else in
//! memory.
//!
//! A block whose counter would reach the flag value `2³² − 1` switches to
//! counterless **permanently** (Section IV-C), as do all blocks of a
//! quarantined faulty rank (Section IV-E).

use crate::engine::{EncryptionEngine, EngineKind, ReadMissOutcome, WritebackOutcome};
use crate::epoch::{EpochMonitor, WritebackMode};
use crate::metadata::MetadataTraffic;
use crate::stats::EngineStats;
use clme_counters::memo::MemoTable;
use clme_dram::mapping::AddressMapping;
use clme_dram::timing::{AccessKind, Dram};
use clme_ecc::encmeta::MAX_COUNTER;
use clme_obs::{Component, EventKind, SpanKind, Stage, TraceSink};
use clme_types::config::SystemConfig;
use clme_types::{BlockAddr, Time, TimeDelta};
use std::collections::{HashMap, HashSet};

/// Counter-light Encryption.
///
/// # Examples
///
/// ```
/// use clme_core::counter_light::CounterLightEngine;
/// use clme_core::engine::EncryptionEngine;
/// use clme_dram::timing::Dram;
/// use clme_types::{BlockAddr, SystemConfig, Time, TimeDelta};
///
/// let cfg = SystemConfig::isca_table1();
/// let mut engine = CounterLightEngine::new(&cfg, 1 << 20);
/// let mut dram = Dram::new(&cfg);
/// let miss = engine.on_read_miss(BlockAddr::new(0), Time::ZERO, &mut dram);
/// // Common case: only 0.75 ns more than an unencrypted system's 1 ns.
/// assert_eq!(miss.ready - miss.data_arrival, TimeDelta::from_ns_f64(1.75));
/// ```
#[derive(Clone, Debug)]
pub struct CounterLightEngine {
    metadata: MetadataTraffic,
    memo: MemoTable,
    epoch: EpochMonitor,
    /// Per-block current counter value (persists across mode switches).
    counters: HashMap<u64, u64>,
    /// Blocks currently stored in counterless mode (their ECC carries the
    /// flag); absent blocks are counter-mode.
    counterless_blocks: HashSet<u64>,
    /// Blocks permanently counterless (counter saturation / bad rank).
    permanent_counterless: HashSet<u64>,
    quarantined_ranks: HashSet<u32>,
    mapping: AddressMapping,
    banks_per_rank: u32,
    aes: TimeDelta,
    ecc_check: TimeDelta,
    memo_combine: TimeDelta,
    half_transfer: TimeDelta,
    mac_window: TimeDelta,
    stats: EngineStats,
}

impl CounterLightEngine {
    /// Creates a Counter-light engine over `data_blocks` of protected
    /// memory.
    pub fn new(cfg: &SystemConfig, data_blocks: u64) -> CounterLightEngine {
        CounterLightEngine::with_dynamic_switching(cfg, data_blocks, true)
    }

    /// Creates an engine with the dynamic mode switch optionally disabled
    /// (the Section VI "no switching" ablation: writebacks always use
    /// counter mode).
    pub fn with_dynamic_switching(
        cfg: &SystemConfig,
        data_blocks: u64,
        dynamic: bool,
    ) -> CounterLightEngine {
        let mut memo = MemoTable::new(cfg.memo_entries);
        memo.insert(0, [0; 16]);
        CounterLightEngine {
            metadata: MetadataTraffic::new(cfg, data_blocks),
            memo,
            epoch: EpochMonitor::new(cfg).with_dynamic_switching(dynamic),
            counters: HashMap::new(),
            counterless_blocks: HashSet::new(),
            permanent_counterless: HashSet::new(),
            quarantined_ranks: HashSet::new(),
            mapping: AddressMapping::new(cfg),
            banks_per_rank: cfg.banks_per_rank,
            aes: cfg.aes_latency(),
            ecc_check: cfg.ecc_check_latency,
            memo_combine: cfg.memo_combine_latency,
            half_transfer: cfg.half_block_transfer_time(),
            // Synergy layout: the MAC lanes ride the last eighth of the
            // data burst rather than a separate DRAM access.
            mac_window: TimeDelta::from_picos(cfg.block_transfer_time().picos() / 8),
            stats: EngineStats::new(),
        }
    }

    /// Marks every block of `rank` permanently counterless (Section IV-E:
    /// a rank diagnosed with a permanent fault gains nothing from
    /// ECC-encoded metadata, whose recovery needs the counter block).
    pub fn quarantine_rank(&mut self, rank: u32) {
        self.quarantined_ranks.insert(rank);
    }

    /// Whether `block` is currently stored counterless.
    pub fn is_counterless(&self, block: BlockAddr) -> bool {
        self.counterless_blocks.contains(&block.raw())
            || self.permanent_counterless.contains(&block.raw())
            || self.in_quarantined_rank(block)
    }

    /// The block's current counter value (0 for never-written blocks).
    pub fn counter_of(&self, block: BlockAddr) -> u64 {
        self.counters.get(&block.raw()).copied().unwrap_or(0)
    }

    fn in_quarantined_rank(&self, block: BlockAddr) -> bool {
        if self.quarantined_ranks.is_empty() {
            return false;
        }
        let rank = self.mapping.coord(block).bank / self.banks_per_rank;
        self.quarantined_ranks.contains(&rank)
    }

    fn observe_n(&mut self, now: Time, n: u64) {
        for _ in 0..n {
            self.epoch.observe_access(now);
        }
    }
}

impl EncryptionEngine for CounterLightEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::CounterLight
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
        self.epoch.observe_access(issue);
        // EncryptionMetadata decodes from the parity once half the block
        // (including the parity lane) has arrived.
        let meta_known = data.arrival - self.half_transfer;
        let (cipher_done, counter_known) = if self.is_counterless(block) {
            // Counterless-mode block: data-dependent AES after arrival,
            // exactly like counterless encryption.
            obs.count(EventKind::PadAes);
            if obs.enabled() {
                obs.span_child(SpanKind::PadAes, 0, data.arrival, data.arrival + self.aes);
            }
            (data.arrival + self.aes, None)
        } else {
            self.stats.reads_in_counter_mode += 1;
            let counter = self.counter_of(block);
            let memo_hit = self.memo.lookup(counter).is_some();
            let pad_latency = if memo_hit {
                self.memo_combine
            } else {
                // Memo miss: compute AES from the in-ECC counter, which is
                // available at meta_known — no memory fetch either way.
                self.aes
            };
            self.stats.memo = self.memo.hit_ratio();
            let skew = meta_known.picos() as i64 - data.arrival.picos() as i64;
            self.stats.counter_skew.add(skew);
            if obs.enabled() {
                obs.count(if memo_hit {
                    EventKind::PadMemoized
                } else {
                    EventKind::PadAes
                });
                // The in-ECC "fetch" completes at the half-block point.
                obs.latency(Stage::CounterFetch, meta_known.saturating_since(issue));
                // In-ECC decode: the counter is never a DRAM dependency,
                // so the counter-fetch span always ends before arrival.
                obs.span_child(SpanKind::CounterFetch, 0, issue, meta_known);
                obs.span_child(
                    if memo_hit {
                        SpanKind::PadMemo
                    } else {
                        SpanKind::PadAes
                    },
                    0,
                    meta_known,
                    meta_known + pad_latency,
                );
            }
            (meta_known + pad_latency, Some(meta_known))
        };
        let ready = cipher_done.max(data.arrival) + self.ecc_check;
        self.stats.read_misses += 1;
        self.stats.total_read_latency += ready - issue;
        self.stats.total_stall_after_data += ready - data.arrival;
        if obs.enabled() {
            obs.count(EventKind::MacVerify);
            // Synergy in-line MAC: lanes arrive with the burst tail.
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
            obs.latency(Stage::Engine, ready - data.arrival);
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
        self.epoch.observe_access(issue);
        // Everything needed for decryption rides inside the block.
        dram.background_access_obs(block, AccessKind::Read, issue, obs)
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
        self.epoch.observe_access(now);
        self.stats.writebacks += 1;

        let forced_counterless = self.permanent_counterless.contains(&block.raw())
            || self.in_quarantined_rank(block)
            || block.raw() >= self.metadata.layout().data_blocks();
        let mode = if forced_counterless {
            WritebackMode::Counterless
        } else {
            self.epoch.writeback_mode(now)
        };

        let mut completion = data_done;
        let mut used_counter_mode = false;
        match mode {
            WritebackMode::Counterless => {
                // Recording the flag in the block's own ECC costs nothing.
                self.counterless_blocks.insert(block.raw());
                self.stats.counterless_writebacks += 1;
            }
            WritebackMode::Counter => {
                let current = self.counter_of(block);
                let next = self.memo.advance(current, MAX_COUNTER as u64 + 1);
                if next > MAX_COUNTER as u64 {
                    // Counter saturation: permanent counterless switch
                    // (Section IV-C).
                    self.permanent_counterless.insert(block.raw());
                    self.counterless_blocks.insert(block.raw());
                    self.stats.counterless_writebacks += 1;
                } else {
                    if !self.memo.probe(next) {
                        self.memo.insert(next, [0; 16]);
                    }
                    self.counters.insert(block.raw(), next);
                    self.counterless_blocks.remove(&block.raw());
                    // Verified counter update: counter block + full tree
                    // path, through the counter cache.
                    let update = self.metadata.update_for_writeback(block, now, dram, true);
                    self.stats.metadata_reads += update.dram_reads;
                    self.stats.metadata_writes += update.dram_writes;
                    self.observe_n(now, update.dram_reads + update.dram_writes);
                    completion = completion.max(update.available);
                    self.stats.counter_mode_writebacks += 1;
                    self.stats.counter_cache = self.metadata.cache_hit_ratio();
                    used_counter_mode = true;
                }
            }
        }
        if obs.enabled() {
            obs.count(EventKind::Writeback);
            obs.count(if used_counter_mode {
                EventKind::WritebackCounterMode
            } else {
                EventKind::WritebackCounterless
            });
        }
        WritebackOutcome {
            used_counter_mode,
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

    fn setup() -> (CounterLightEngine, Dram) {
        let cfg = SystemConfig::isca_table1();
        (CounterLightEngine::new(&cfg, 1 << 20), Dram::new(&cfg))
    }

    #[test]
    fn common_case_read_is_0_75ns_over_baseline() {
        let (mut engine, mut dram) = setup();
        let miss = engine.on_read_miss(BlockAddr::new(0), Time::ZERO, &mut dram);
        // Baseline stall is 1 ns (ECC); Counter-light common case 1.75 ns.
        assert_eq!(miss.ready - miss.data_arrival, TimeDelta::from_ns_f64(1.75));
        assert!(miss.counter_known.unwrap() < miss.data_arrival);
    }

    #[test]
    fn reads_issue_no_metadata_traffic() {
        let (mut engine, mut dram) = setup();
        for i in 0..20u64 {
            engine.on_read_miss(BlockAddr::new(i * 64), Time::ZERO, &mut dram);
        }
        assert_eq!(engine.stats().metadata_reads, 0);
        assert_eq!(engine.stats().counter_fetches, 0);
        assert_eq!(dram.tracker().reads(), 20, "only the data reads");
    }

    #[test]
    fn low_bandwidth_hides_pad_entirely() {
        // At 6.4 GB/s the half-block point is 5 ns before arrival, so the
        // 2 ns combine finishes before the data: zero overhead vs
        // baseline.
        let cfg = SystemConfig::low_bandwidth();
        let mut engine = CounterLightEngine::new(&cfg, 1 << 20);
        let mut dram = Dram::new(&cfg);
        let miss = engine.on_read_miss(BlockAddr::new(0), Time::ZERO, &mut dram);
        assert_eq!(miss.ready - miss.data_arrival, TimeDelta::from_ns(1));
    }

    #[test]
    fn counterless_block_pays_full_aes() {
        let cfg = SystemConfig::isca_table1();
        let mut engine = CounterLightEngine::new(&cfg, 1 << 20);
        let mut dram = Dram::new(&cfg);
        // Force a counterless writeback by saturating the epoch monitor.
        for _ in 0..25_000 {
            engine.epoch.observe_access(Time::ZERO);
        }
        let block = BlockAddr::new(7);
        let wb = engine.on_writeback(block, Time::ZERO, &mut dram);
        assert!(!wb.used_counter_mode);
        assert!(engine.is_counterless(block));
        let miss = engine.on_read_miss(block, Time::ZERO, &mut dram);
        assert_eq!(miss.ready - miss.data_arrival, TimeDelta::from_ns(11));
        assert!(miss.counter_known.is_none());
    }

    #[test]
    fn quiet_epoch_writebacks_use_counter_mode_with_tree() {
        let (mut engine, mut dram) = setup();
        let wb = engine.on_writeback(BlockAddr::new(3), Time::ZERO, &mut dram);
        assert!(wb.used_counter_mode);
        assert!(engine.stats().metadata_reads >= 1);
        assert_eq!(engine.stats().counter_mode_writebacks, 1);
        assert!(engine.counter_of(BlockAddr::new(3)) > 0);
    }

    #[test]
    fn counter_mode_write_returns_block_from_counterless() {
        let (mut engine, mut dram) = setup();
        let block = BlockAddr::new(9);
        engine.counterless_blocks.insert(block.raw());
        assert!(engine.is_counterless(block));
        engine.on_writeback(block, Time::ZERO, &mut dram);
        assert!(
            !engine.is_counterless(block),
            "quiet epoch rewrites in counter mode"
        );
    }

    #[test]
    fn counter_saturation_switches_permanently() {
        let (mut engine, mut dram) = setup();
        let block = BlockAddr::new(11);
        // Pin the counter one step from the flag.
        engine.counters.insert(block.raw(), MAX_COUNTER as u64);
        // Fill the memo table with values that cannot help (all below).
        let wb = engine.on_writeback(block, Time::ZERO, &mut dram);
        assert!(!wb.used_counter_mode);
        assert!(engine.permanent_counterless.contains(&block.raw()));
        // Even a later quiet-epoch write stays counterless.
        let wb2 = engine.on_writeback(block, Time::ZERO + TimeDelta::from_us(200), &mut dram);
        assert!(!wb2.used_counter_mode);
    }

    #[test]
    fn quarantined_rank_is_always_counterless() {
        let (mut engine, mut dram) = setup();
        let block = BlockAddr::new(0); // bank 0 → rank 0
        engine.quarantine_rank(0);
        assert!(engine.is_counterless(block));
        let wb = engine.on_writeback(block, Time::ZERO, &mut dram);
        assert!(!wb.used_counter_mode);
        // A block in another rank still uses counter mode.
        let far = BlockAddr::new(128 * 8); // bank 8 → rank 1
        assert!(!engine.is_counterless(far));
    }

    #[test]
    fn memo_hit_after_writeback_read_cycle() {
        let (mut engine, mut dram) = setup();
        let block = BlockAddr::new(21);
        engine.on_writeback(block, Time::ZERO, &mut dram);
        engine.reset_stats();
        engine.on_read_miss(block, Time::ZERO, &mut dram);
        assert_eq!(engine.stats().memo.hits(), 1);
    }

    #[test]
    fn counter_skew_is_always_negative() {
        // The headline fix: the counter can never arrive after the data.
        let (mut engine, mut dram) = setup();
        for i in 0..50u64 {
            engine.on_read_miss(BlockAddr::new(i * 999), Time::ZERO, &mut dram);
        }
        assert_eq!(engine.stats().counter_late_fraction(), 0.0);
    }

    #[test]
    fn ablation_never_switches() {
        let cfg = SystemConfig::isca_table1();
        let mut engine = CounterLightEngine::with_dynamic_switching(&cfg, 1 << 20, false);
        let mut dram = Dram::new(&cfg);
        for _ in 0..100_000 {
            engine.epoch.observe_access(Time::ZERO);
        }
        let wb = engine.on_writeback(BlockAddr::new(1), Time::ZERO, &mut dram);
        assert!(
            wb.used_counter_mode,
            "ablated engine must stay in counter mode"
        );
    }
}
