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

use crate::engine::{EncryptionEngine, EngineKind, Frame, Pad, ReadMissOutcome, WritebackOutcome};
use crate::epoch::{EpochMonitor, WritebackMode};
use crate::metadata::MetadataTraffic;
use crate::rmcc::RmccCounters;
use crate::stats::EngineStats;
use clme_dram::mapping::AddressMapping;
use clme_dram::timing::Dram;
use clme_ecc::encmeta::MAX_COUNTER;
use clme_obs::{SpanKind, Stage, TraceSink};
use clme_types::config::SystemConfig;
use clme_types::{BlockAddr, Time, TimeDelta};
use std::collections::HashSet;

/// Counter-light Encryption.
///
/// # Examples
///
/// ```
/// use clme_core::counter_light::CounterLightEngine;
/// use clme_core::engine::EncryptionEngine;
/// use clme_dram::timing::Dram;
/// use clme_obs::NopSink;
/// use clme_types::{BlockAddr, SystemConfig, Time, TimeDelta};
///
/// let cfg = SystemConfig::isca_table1();
/// let mut engine = CounterLightEngine::new(&cfg, 1 << 20);
/// let mut dram = Dram::new(&cfg);
/// let miss = engine.on_read_miss(BlockAddr::new(0), Time::ZERO, &mut dram, &mut NopSink);
/// // Common case: only 0.75 ns more than an unencrypted system's 1 ns.
/// assert_eq!(miss.ready - miss.data_arrival, TimeDelta::from_ns_f64(1.75));
/// ```
#[derive(Clone, Debug)]
pub struct CounterLightEngine {
    metadata: MetadataTraffic,
    /// Per-block counters (persisting across mode switches) and the memo
    /// table.
    counters: RmccCounters,
    epoch: EpochMonitor,
    /// Blocks currently stored in counterless mode (their ECC carries the
    /// flag); absent blocks are counter-mode.
    counterless_blocks: HashSet<u64>,
    /// Blocks permanently counterless (counter saturation / bad rank).
    permanent_counterless: HashSet<u64>,
    quarantined_ranks: HashSet<u32>,
    mapping: AddressMapping,
    banks_per_rank: u32,
    half_transfer: TimeDelta,
    frame: Frame,
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
        CounterLightEngine {
            metadata: MetadataTraffic::new(cfg, data_blocks),
            counters: RmccCounters::new(cfg),
            epoch: EpochMonitor::new(cfg).with_dynamic_switching(dynamic),
            counterless_blocks: HashSet::new(),
            permanent_counterless: HashSet::new(),
            quarantined_ranks: HashSet::new(),
            mapping: AddressMapping::new(cfg),
            banks_per_rank: cfg.banks_per_rank,
            half_transfer: cfg.half_block_transfer_time(),
            frame: Frame::new(cfg, true),
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
        self.counters.counter_of(block)
    }

    fn in_quarantined_rank(&self, block: BlockAddr) -> bool {
        if self.quarantined_ranks.is_empty() {
            return false;
        }
        let rank = self.mapping.coord(block).bank / self.banks_per_rank;
        self.quarantined_ranks.contains(&rank)
    }
}

impl EncryptionEngine for CounterLightEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::CounterLight
    }

    fn on_read_miss(
        &mut self,
        block: BlockAddr,
        issue: Time,
        dram: &mut Dram,
        obs: &mut dyn TraceSink,
    ) -> ReadMissOutcome {
        let counterless = self.is_counterless(block);
        self.frame
            .read_miss(block, issue, dram, obs, |stats, data, _, obs| {
                self.epoch.observe_access(issue);
                if counterless {
                    // Data-dependent AES after arrival, exactly like
                    // counterless encryption.
                    return Some(Pad::Data);
                }
                stats.reads_in_counter_mode += 1;
                // EncryptionMetadata decodes from the parity once half the
                // block (including the parity lane) has arrived. A memo miss
                // computes AES from that in-ECC counter: no memory fetch
                // either way.
                let meta_known = data - self.half_transfer;
                let memoized = self.counters.memoized(block, stats);
                let skew = meta_known.picos() as i64 - data.picos() as i64;
                stats.counter_skew.add(skew);
                if obs.enabled() {
                    // The in-ECC "fetch" completes at the half-block point, so
                    // the counter-fetch span always ends before arrival.
                    obs.latency(Stage::CounterFetch, meta_known.saturating_since(issue));
                    obs.span_child(SpanKind::CounterFetch, 0, issue, meta_known);
                }
                Some(Pad::Counter {
                    known: meta_known,
                    memoized,
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
        self.epoch.observe_access(issue);
        // Everything needed for decryption rides inside the block.
        self.frame.prefetch_fill(block, issue, dram, obs)
    }

    fn on_writeback(
        &mut self,
        block: BlockAddr,
        now: Time,
        dram: &mut Dram,
        obs: &mut dyn TraceSink,
    ) -> WritebackOutcome {
        let forced_counterless = self.permanent_counterless.contains(&block.raw())
            || self.in_quarantined_rank(block)
            || !self.metadata.protects(block);
        self.frame.writeback(block, now, dram, obs, |stats, dram| {
            self.epoch.observe_access(now);
            if forced_counterless || self.epoch.writeback_mode(now) == WritebackMode::Counterless {
                // Recording the flag in the block's own ECC costs nothing.
                self.counterless_blocks.insert(block.raw());
                return (Some(WritebackMode::Counterless), Time::ZERO);
            }
            let advanced = self.counters.advance(block, MAX_COUNTER as u64 + 1);
            if advanced.is_none() {
                // Counter saturation: permanent counterless switch
                // (Section IV-C).
                self.permanent_counterless.insert(block.raw());
                self.counterless_blocks.insert(block.raw());
                return (Some(WritebackMode::Counterless), Time::ZERO);
            }
            self.counterless_blocks.remove(&block.raw());
            // Verified counter update: counter block + full tree path,
            // through the counter cache.
            let update = self.metadata.update_for_writeback(block, now, dram);
            self.metadata.tally(&update, stats);
            for _ in 0..update.dram_reads + update.dram_writes {
                self.epoch.observe_access(now);
            }
            (Some(WritebackMode::Counter), update.available)
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

    fn setup() -> (CounterLightEngine, Dram) {
        let cfg = SystemConfig::isca_table1();
        (CounterLightEngine::new(&cfg, 1 << 20), Dram::new(&cfg))
    }

    #[test]
    fn common_case_read_is_0_75ns_over_baseline() {
        let nop = &mut NopSink;
        let (mut engine, mut dram) = setup();
        let miss = engine.on_read_miss(BlockAddr::new(0), Time::ZERO, &mut dram, nop);
        // Baseline stall is 1 ns (ECC); Counter-light common case 1.75 ns.
        assert_eq!(miss.ready - miss.data_arrival, TimeDelta::from_ns_f64(1.75));
        assert!(miss.counter_known.unwrap() < miss.data_arrival);
    }

    #[test]
    fn reads_issue_no_metadata_traffic() {
        let nop = &mut NopSink;
        let (mut engine, mut dram) = setup();
        for i in 0..20u64 {
            engine.on_read_miss(BlockAddr::new(i * 64), Time::ZERO, &mut dram, nop);
        }
        assert_eq!(engine.stats().metadata_reads, 0);
        assert_eq!(engine.stats().counter_fetches, 0);
        assert_eq!(dram.tracker().reads(), 20, "only the data reads");
    }

    #[test]
    fn low_bandwidth_hides_pad_entirely() {
        let nop = &mut NopSink;
        // At 6.4 GB/s the half-block point is 5 ns before arrival, so the
        // 2 ns combine finishes before the data: zero overhead vs
        // baseline.
        let cfg = SystemConfig::low_bandwidth();
        let mut engine = CounterLightEngine::new(&cfg, 1 << 20);
        let mut dram = Dram::new(&cfg);
        let miss = engine.on_read_miss(BlockAddr::new(0), Time::ZERO, &mut dram, nop);
        assert_eq!(miss.ready - miss.data_arrival, TimeDelta::from_ns(1));
    }

    #[test]
    fn counterless_block_pays_full_aes() {
        let nop = &mut NopSink;
        let cfg = SystemConfig::isca_table1();
        let mut engine = CounterLightEngine::new(&cfg, 1 << 20);
        let mut dram = Dram::new(&cfg);
        // Force a counterless writeback by saturating the epoch monitor.
        for _ in 0..25_000 {
            engine.epoch.observe_access(Time::ZERO);
        }
        let block = BlockAddr::new(7);
        let wb = engine.on_writeback(block, Time::ZERO, &mut dram, nop);
        assert!(!wb.used_counter_mode);
        assert!(engine.is_counterless(block));
        let miss = engine.on_read_miss(block, Time::ZERO, &mut dram, nop);
        assert_eq!(miss.ready - miss.data_arrival, TimeDelta::from_ns(11));
        assert!(miss.counter_known.is_none());
    }

    #[test]
    fn quiet_epoch_writebacks_use_counter_mode_with_tree() {
        let nop = &mut NopSink;
        let (mut engine, mut dram) = setup();
        let wb = engine.on_writeback(BlockAddr::new(3), Time::ZERO, &mut dram, nop);
        assert!(wb.used_counter_mode);
        assert!(engine.stats().metadata_reads >= 1);
        assert_eq!(engine.stats().counter_mode_writebacks, 1);
        assert!(engine.counter_of(BlockAddr::new(3)) > 0);
    }

    #[test]
    fn counter_mode_write_returns_block_from_counterless() {
        let nop = &mut NopSink;
        let (mut engine, mut dram) = setup();
        let block = BlockAddr::new(9);
        engine.counterless_blocks.insert(block.raw());
        assert!(engine.is_counterless(block));
        engine.on_writeback(block, Time::ZERO, &mut dram, nop);
        assert!(
            !engine.is_counterless(block),
            "quiet epoch rewrites in counter mode"
        );
    }

    #[test]
    fn counter_saturation_switches_permanently() {
        let nop = &mut NopSink;
        let (mut engine, mut dram) = setup();
        let block = BlockAddr::new(11);
        // Pin the counter one step from the flag.
        engine
            .counters
            .counters
            .insert(block.raw(), MAX_COUNTER as u64);
        // Fill the memo table with values that cannot help (all below).
        let wb = engine.on_writeback(block, Time::ZERO, &mut dram, nop);
        assert!(!wb.used_counter_mode);
        assert!(engine.permanent_counterless.contains(&block.raw()));
        // Even a later quiet-epoch write stays counterless.
        let wb2 = engine.on_writeback(block, Time::ZERO + TimeDelta::from_us(200), &mut dram, nop);
        assert!(!wb2.used_counter_mode);
    }

    #[test]
    fn quarantined_rank_is_always_counterless() {
        let nop = &mut NopSink;
        let (mut engine, mut dram) = setup();
        let block = BlockAddr::new(0); // bank 0 → rank 0
        engine.quarantine_rank(0);
        assert!(engine.is_counterless(block));
        let wb = engine.on_writeback(block, Time::ZERO, &mut dram, nop);
        assert!(!wb.used_counter_mode);
        // A block in another rank still uses counter mode.
        let far = BlockAddr::new(128 * 8); // bank 8 → rank 1
        assert!(!engine.is_counterless(far));
    }

    #[test]
    fn memo_hit_after_writeback_read_cycle() {
        let nop = &mut NopSink;
        let (mut engine, mut dram) = setup();
        let block = BlockAddr::new(21);
        engine.on_writeback(block, Time::ZERO, &mut dram, nop);
        engine.reset_stats();
        engine.on_read_miss(block, Time::ZERO, &mut dram, nop);
        assert_eq!(engine.stats().memo.hits(), 1);
    }

    #[test]
    fn counter_skew_is_always_negative() {
        let nop = &mut NopSink;
        // The headline fix: the counter can never arrive after the data.
        let (mut engine, mut dram) = setup();
        for i in 0..50u64 {
            engine.on_read_miss(BlockAddr::new(i * 999), Time::ZERO, &mut dram, nop);
        }
        assert_eq!(engine.stats().counter_late_fraction(), 0.0);
    }

    #[test]
    fn ablation_never_switches() {
        let nop = &mut NopSink;
        let cfg = SystemConfig::isca_table1();
        let mut engine = CounterLightEngine::with_dynamic_switching(&cfg, 1 << 20, false);
        let mut dram = Dram::new(&cfg);
        for _ in 0..100_000 {
            engine.epoch.observe_access(Time::ZERO);
        }
        let wb = engine.on_writeback(BlockAddr::new(1), Time::ZERO, &mut dram, nop);
        assert!(
            wb.used_counter_mode,
            "ablated engine must stay in counter mode"
        );
    }
}
