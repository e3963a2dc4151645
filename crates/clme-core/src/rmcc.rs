//! RMCC's counter policy (Section II-C), shared by the two engines that
//! keep per-block counters: counter mode and Counter-light.
//!
//! Each block's counter lives in a map (0 for never-written blocks)
//! beside the memoization table of counter-only AES results. A read looks
//! the block's counter up in the table; a writeback advances the counter
//! onto the next memoized value, so later reads hit.

use crate::stats::EngineStats;
use clme_counters::memo::MemoTable;
use clme_types::config::SystemConfig;
use clme_types::BlockAddr;
use std::collections::HashMap;

/// Per-block counters steered onto memoized values.
#[derive(Clone, Debug)]
pub(crate) struct RmccCounters {
    memo: MemoTable,
    pub(crate) counters: HashMap<u64, u64>,
}

impl RmccCounters {
    pub(crate) fn new(cfg: &SystemConfig) -> RmccCounters {
        let mut memo = MemoTable::new(cfg.memo_entries);
        // Cold memory is "written with counter 0": memoize it so
        // first-touch reads behave like RMCC's warmed table.
        memo.insert(0, [0; 16]);
        RmccCounters {
            memo,
            counters: HashMap::new(),
        }
    }

    /// The block's current counter (0 for never-written blocks).
    pub(crate) fn counter_of(&self, block: BlockAddr) -> u64 {
        self.counters.get(&block.raw()).copied().unwrap_or(0)
    }

    /// Whether the table holds the AES result for `block`'s counter, so
    /// its pad is a combine rather than a full AES. The lookup counts
    /// toward `stats.memo`.
    pub(crate) fn memoized(&mut self, block: BlockAddr, stats: &mut EngineStats) -> bool {
        let hit = self.memo.lookup(self.counter_of(block)).is_some();
        stats.memo = self.memo.hit_ratio();
        hit
    }

    /// The counter-advance policy: moves `block`'s counter to the next
    /// memoized value below `bound` (or one past it, memoized now) and
    /// returns it. Returns `None`, leaving the counter as it is, when that
    /// value would reach `bound`.
    pub(crate) fn advance(&mut self, block: BlockAddr, bound: u64) -> Option<u64> {
        let next = self.memo.advance(self.counter_of(block), bound);
        if next >= bound {
            return None;
        }
        if !self.memo.probe(next) {
            self.memo.insert(next, [0; 16]);
        }
        self.counters.insert(block.raw(), next);
        Some(next)
    }

    /// Clears the table's hit statistics, keeping its contents.
    pub(crate) fn reset_stats(&mut self) {
        self.memo.reset_stats();
    }
}
