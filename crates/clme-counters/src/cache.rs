//! The counter cache (Table I: 64 KB, 32-way).
//!
//! Caches counter blocks *and* integrity-tree node blocks. Under
//! Counter-light it is consulted only on the writeback path (and during
//! rare error corrections): LLC read misses never touch counters because
//! the counter travels inside the data block's ECC (Section IV-D,
//! "Summary of Counter Block Accesses").

use clme_cache::set_assoc::SetAssocCache;
use clme_types::stats::Ratio;
use clme_types::BlockAddr;

/// A metadata-block cache over counter and tree-node block addresses.
///
/// # Examples
///
/// ```
/// use clme_counters::cache::CounterCache;
/// use clme_types::BlockAddr;
///
/// let mut cc = CounterCache::new(64 << 10, 32);
/// let block = BlockAddr::new(0x9000);
/// assert!(!cc.access(block, false));
/// cc.fill(block, true);
/// assert!(cc.access(block, false));
/// ```
#[derive(Clone, Debug)]
pub struct CounterCache {
    inner: SetAssocCache,
}

/// A dirty metadata block displaced from the counter cache; it must be
/// written to DRAM.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DirtyEviction {
    /// The displaced metadata block.
    pub block: BlockAddr,
}

impl CounterCache {
    /// Creates a counter cache of `capacity_bytes` with `ways`
    /// associativity (64-byte metadata blocks).
    pub fn new(capacity_bytes: u64, ways: u32) -> CounterCache {
        CounterCache {
            inner: SetAssocCache::with_capacity(capacity_bytes, ways),
        }
    }

    /// Looks up a metadata block; `write` marks it dirty on a hit.
    pub fn access(&mut self, block: BlockAddr, write: bool) -> bool {
        self.inner.access(block.raw(), write).is_ok()
    }

    /// Installs a metadata block fetched from DRAM; returns the dirty
    /// eviction to write back, if any.
    pub fn fill(&mut self, block: BlockAddr, dirty: bool) -> Option<DirtyEviction> {
        self.inner.fill(block.raw(), dirty).and_then(|evicted| {
            evicted.dirty.then_some(DirtyEviction {
                block: BlockAddr::new(evicted.block),
            })
        })
    }

    /// Presence check without side effects.
    pub fn probe(&self, block: BlockAddr) -> bool {
        self.inner.probe(block.raw())
    }

    /// Hit statistics.
    pub fn hit_ratio(&self) -> Ratio {
        self.inner.hit_ratio()
    }

    /// Clears statistics, keeping contents.
    pub fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_fill_hit() {
        let mut cc = CounterCache::new(4 << 10, 4);
        let b = BlockAddr::new(77);
        assert!(!cc.access(b, false));
        assert!(cc.fill(b, false).is_none());
        assert!(cc.access(b, true));
        assert!(cc.probe(b));
    }

    #[test]
    fn dirty_evictions_surface() {
        // 1-set worth of conflicting blocks: capacity 64B × 2 ways.
        let mut cc = CounterCache::new(128, 2);
        cc.fill(BlockAddr::new(0), true);
        cc.fill(BlockAddr::new(2), true);
        let evicted = cc.fill(BlockAddr::new(4), false);
        assert_eq!(
            evicted,
            Some(DirtyEviction {
                block: BlockAddr::new(0)
            })
        );
    }

    #[test]
    fn clean_evictions_are_silent() {
        let mut cc = CounterCache::new(128, 2);
        cc.fill(BlockAddr::new(0), false);
        cc.fill(BlockAddr::new(2), false);
        assert!(cc.fill(BlockAddr::new(4), false).is_none());
    }

    #[test]
    fn table1_geometry_holds_1024_blocks() {
        let mut cc = CounterCache::new(64 << 10, 32);
        for i in 0..1024u64 {
            cc.fill(BlockAddr::new(i), false);
        }
        let resident = (0..1024u64)
            .filter(|&i| cc.probe(BlockAddr::new(i)))
            .count();
        assert_eq!(resident, 1024);
    }

    #[test]
    fn irregular_metadata_stream_thrashes() {
        // The Section IV-B observation: for irregular workloads the
        // counter cache sees ≥ 98% write-path miss rates once the
        // footprint exceeds its reach.
        let mut cc = CounterCache::new(64 << 10, 32);
        let mut rng = clme_types::rng::Xoshiro256::seed_from(11);
        for _ in 0..20_000 {
            let b = BlockAddr::new(rng.below(1 << 21));
            if !cc.access(b, true) {
                cc.fill(b, true);
            }
        }
        assert!(
            cc.hit_ratio().rate() < 0.05,
            "rate {}",
            cc.hit_ratio().rate()
        );
    }
}
