//! Shared metadata-traffic machinery: the counter cache in front of
//! counter blocks and integrity-tree nodes.
//!
//! Both the counter-mode baseline and Counter-light route their metadata
//! accesses through here. All metadata transfers go to real DRAM
//! addresses (laid out by [`clme_counters::layout::MetadataLayout`]) so
//! they contend with data traffic — the mechanism behind Fig. 8's late
//! counters and Fig. 18's bandwidth overhead. Those DRAM transfers are
//! not reported to a sink: the read path reports only the counter-fetch
//! child spans, so metadata traffic never blurs the data path's DRAM
//! events and stage latencies.

use crate::stats::EngineStats;
use clme_cache::set_assoc::{Evicted, SetAssocCache};
use clme_counters::layout::MetadataLayout;
use clme_dram::timing::{AccessKind, Dram};
use clme_obs::{NopSink, SpanKind, TraceSink};
use clme_types::config::SystemConfig;
use clme_types::{BlockAddr, Time, TimeDelta};

/// Traffic counts and timing returned by a metadata operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetadataOutcome {
    /// When the needed metadata value became known to the controller.
    pub available: Time,
    /// DRAM arrival time of the block's own counter, when it was fetched
    /// from DRAM (feeds the Fig. 8 skew histogram).
    pub counter_dram_arrival: Option<Time>,
    /// DRAM reads issued.
    pub dram_reads: u64,
    /// DRAM writes issued (dirty counter-cache evictions).
    pub dram_writes: u64,
}

/// The counter cache plus address layout used by counter-bearing engines.
#[derive(Clone, Debug)]
pub struct MetadataTraffic {
    layout: MetadataLayout,
    /// The counter cache (Table I: 64 KB, 32-way) over counter blocks and
    /// tree-node blocks. Under Counter-light only writebacks consult it:
    /// read misses take the counter from the data block's own ECC
    /// (Section IV-D).
    cache: SetAssocCache,
    lookup_latency: TimeDelta,
}

impl MetadataTraffic {
    /// Builds the metadata subsystem for `data_blocks` of protected
    /// memory.
    pub fn new(cfg: &SystemConfig, data_blocks: u64) -> MetadataTraffic {
        MetadataTraffic {
            layout: MetadataLayout::new(data_blocks),
            cache: SetAssocCache::with_capacity(cfg.counter_cache_bytes, cfg.counter_cache_ways),
            lookup_latency: cfg.counter_cache_latency,
        }
    }

    /// Whether `block` lies in protected memory, so it has a counter.
    pub fn protects(&self, block: BlockAddr) -> bool {
        block.raw() < self.layout.data_blocks()
    }

    /// Adds `outcome`'s DRAM traffic to `stats` and refreshes their
    /// counter-cache hit ratio.
    pub fn tally(&self, outcome: &MetadataOutcome, stats: &mut EngineStats) {
        stats.metadata_reads += outcome.dram_reads;
        stats.metadata_writes += outcome.dram_writes;
        stats.counter_cache = self.cache.hit_ratio();
    }

    /// Clears counter-cache statistics.
    pub fn reset_stats(&mut self) {
        self.cache.reset_stats();
    }

    /// Read-path counter acquisition (Fig. 6b: *only* the missing block's
    /// own counter block), installed in the counter cache as the RMCC
    /// baseline does. The DRAM fetch, when needed, starts only after the
    /// counter-cache lookup resolves — the serialisation the paper calls
    /// out in Section IV-A. The acquisition (cache hit or DRAM fetch) is
    /// reported to `obs` as a level-0 counter-fetch child span of the open
    /// request.
    pub fn counter_for_read(
        &mut self,
        data_block: BlockAddr,
        issue: Time,
        dram: &mut Dram,
        obs: &mut dyn TraceSink,
    ) -> MetadataOutcome {
        let counter_block = self.layout.counter_block_of(data_block);
        let fetch = self.touch(counter_block, issue, dram, false);
        if obs.enabled() {
            obs.span_child(SpanKind::CounterFetch, 0, issue, fetch.available);
        }
        fetch
    }

    /// Read-path integrity verification for *traditional* counter mode
    /// (Fig. 6a): the tree nodes protecting the counter are consulted
    /// through the counter cache; misses fetch from DRAM. Each node is
    /// reported to `obs` as a counter-fetch child span at its depth
    /// (level 1 = lowest tree node).
    pub fn verify_tree_for_read(
        &mut self,
        data_block: BlockAddr,
        issue: Time,
        dram: &mut Dram,
        obs: &mut dyn TraceSink,
    ) -> MetadataOutcome {
        self.walk_tree(data_block, issue, dram, false, obs)
    }

    /// Writeback-path metadata update: read-modify-write the counter
    /// block and every tree node on the path, through the counter cache.
    /// Dirty evictions become DRAM writes.
    pub fn update_for_writeback(
        &mut self,
        data_block: BlockAddr,
        now: Time,
        dram: &mut Dram,
    ) -> MetadataOutcome {
        let counter_block = self.layout.counter_block_of(data_block);
        let mut outcome = self.touch(counter_block, now, dram, true);
        let tree = self.walk_tree(data_block, now, dram, true, &mut NopSink);
        outcome.dram_reads += tree.dram_reads;
        outcome.dram_writes += tree.dram_writes;
        outcome.available = outcome.available.max(tree.available);
        outcome
    }

    fn walk_tree(
        &mut self,
        data_block: BlockAddr,
        issue: Time,
        dram: &mut Dram,
        write: bool,
        obs: &mut dyn TraceSink,
    ) -> MetadataOutcome {
        let mut outcome = MetadataOutcome {
            available: issue + self.lookup_latency,
            ..MetadataOutcome::default()
        };
        for (depth, node) in self.layout.tree_path_of(data_block).into_iter().enumerate() {
            let touched = self.touch(node, issue, dram, write);
            if obs.enabled() {
                obs.span_child(
                    SpanKind::CounterFetch,
                    (depth + 1) as u8,
                    issue,
                    touched.available,
                );
            }
            outcome.dram_reads += touched.dram_reads;
            outcome.dram_writes += touched.dram_writes;
            outcome.available = outcome.available.max(touched.available);
        }
        outcome
    }

    /// One read (or, for a `write`, read-modify-write) of a metadata block
    /// through the cache, in one scan of its set: a miss fetches the block
    /// and fills the victim the lookup found. A read's fetch is
    /// latency-critical; a writeback's is buffered behind demand reads.
    fn touch(
        &mut self,
        meta_block: BlockAddr,
        now: Time,
        dram: &mut Dram,
        write: bool,
    ) -> MetadataOutcome {
        let lookup_done = now + self.lookup_latency;
        let Err(victim) = self.cache.access(meta_block.raw(), write) else {
            return MetadataOutcome {
                available: lookup_done,
                ..MetadataOutcome::default()
            };
        };
        let arrival = if write {
            dram.background_access(meta_block, AccessKind::Read, lookup_done, &mut NopSink)
        } else {
            dram.access(meta_block, AccessKind::Read, lookup_done, &mut NopSink)
                .arrival
        };
        let mut writes = 0;
        let evicted = self.cache.fill_victim(meta_block.raw(), write, victim);
        if let Some(Evicted { block, dirty: true }) = evicted {
            let block = BlockAddr::new(block);
            dram.background_access(block, AccessKind::Write, arrival, &mut NopSink);
            writes = 1;
        }
        MetadataOutcome {
            available: arrival,
            counter_dram_arrival: Some(arrival),
            dram_reads: 1,
            dram_writes: writes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (MetadataTraffic, Dram) {
        let cfg = SystemConfig::isca_table1();
        (MetadataTraffic::new(&cfg, 1 << 20), Dram::new(&cfg))
    }

    /// A metadata subsystem whose counter cache holds two lines in one
    /// set.
    fn two_line_cache() -> (MetadataTraffic, Dram) {
        let cfg = SystemConfig {
            counter_cache_bytes: 128,
            counter_cache_ways: 2,
            ..SystemConfig::isca_table1()
        };
        (MetadataTraffic::new(&cfg, 1 << 20), Dram::new(&cfg))
    }

    #[test]
    fn read_counter_miss_fetches_after_lookup() {
        let (mut meta, mut dram) = setup();
        let out = meta.counter_for_read(BlockAddr::new(0), Time::ZERO, &mut dram, &mut NopSink);
        assert_eq!(out.dram_reads, 1);
        let arrival = out.counter_dram_arrival.expect("cold miss fetches");
        // Lookup 2 ns + closed-row access 27.5 ns + 2.5 ns transfer... the
        // fetch cannot start before the lookup completes.
        assert!(arrival >= Time::ZERO + TimeDelta::from_ns(2) + TimeDelta::from_ns_f64(30.0));
        assert_eq!(out.available, arrival);
    }

    #[test]
    fn read_counter_hit_after_fill() {
        let (mut meta, mut dram) = setup();
        meta.counter_for_read(BlockAddr::new(0), Time::ZERO, &mut dram, &mut NopSink);
        let out = meta.counter_for_read(BlockAddr::new(1), Time::ZERO, &mut dram, &mut NopSink);
        // Block 1 shares block 0's counter block.
        assert_eq!(out.dram_reads, 0);
        assert_eq!(out.available, Time::ZERO + TimeDelta::from_ns(2));
        assert!(out.counter_dram_arrival.is_none());
    }

    #[test]
    fn writeback_updates_counter_and_tree() {
        let (mut meta, mut dram) = setup();
        let out = meta.update_for_writeback(BlockAddr::new(0), Time::ZERO, &mut dram);
        // Cold: counter block + 4 tree levels fetched.
        assert_eq!(out.dram_reads, 1 + 4);
        // Re-dirtying the same page is free (all hot).
        let again = meta.update_for_writeback(BlockAddr::new(5), Time::ZERO, &mut dram);
        assert_eq!(again.dram_reads, 0);
    }

    #[test]
    fn dirty_evictions_write_to_dram() {
        let (mut small, mut dram) = two_line_cache();
        // Conflicting dirty counter blocks and tree nodes: later fills
        // must evict dirty ones to DRAM.
        let mut writes = 0;
        for page in 0..6u64 {
            let out = small.update_for_writeback(BlockAddr::new(page * 64), Time::ZERO, &mut dram);
            writes += out.dram_writes;
        }
        assert!(writes > 0, "dirty metadata evictions must reach DRAM");
        assert_eq!(dram.tracker().writes(), writes);
    }

    #[test]
    fn dirty_evictions_surface() {
        let (mut small, mut dram) = two_line_cache();
        let now = Time::ZERO;
        small.touch(BlockAddr::new(0), now, &mut dram, true);
        small.touch(BlockAddr::new(2), now, &mut dram, true);
        // The third block evicts the least recently used one, block 0,
        // dirty: exactly one write, to block 0.
        let out = small.touch(BlockAddr::new(4), now, &mut dram, false);
        assert_eq!(out.dram_writes, 1);
        assert_eq!(dram.tracker().writes(), 1);
        assert!(!small.cache.probe(0));
        assert!(small.cache.probe(2) && small.cache.probe(4));
    }

    #[test]
    fn clean_evictions_are_silent() {
        let (mut small, mut dram) = two_line_cache();
        let mut writes = 0;
        for page in 0..6u64 {
            let block = BlockAddr::new(page * 64);
            writes += small
                .counter_for_read(block, Time::ZERO, &mut dram, &mut NopSink)
                .dram_writes;
        }
        assert_eq!(writes, 0);
        assert_eq!(dram.tracker().writes(), 0);
        assert_eq!(dram.tracker().reads(), 6, "every counter read missed");
    }

    #[test]
    fn table1_geometry_holds_1024_blocks() {
        let (mut meta, mut dram) = setup();
        // 1,024 pages' counter blocks fill the 64 KB cache exactly...
        for page in 0..1024u64 {
            let block = BlockAddr::new(page * 64);
            meta.counter_for_read(block, Time::ZERO, &mut dram, &mut NopSink);
        }
        // ...so every one of them is still resident.
        for page in 0..1024u64 {
            let block = BlockAddr::new(page * 64);
            let out = meta.counter_for_read(block, Time::ZERO, &mut dram, &mut NopSink);
            assert_eq!(out.dram_reads, 0, "page {page}'s counter was evicted");
        }
    }

    #[test]
    fn irregular_metadata_stream_thrashes() {
        // The Section IV-B observation: for irregular workloads the
        // counter cache sees ≥ 98% write-path miss rates once the
        // footprint exceeds its reach.
        let (mut meta, mut dram) = setup();
        let mut rng = clme_types::rng::Xoshiro256::seed_from(11);
        for _ in 0..20_000 {
            let block = BlockAddr::new(rng.below(1 << 21));
            meta.touch(block, Time::ZERO, &mut dram, true);
        }
        let rate = meta.cache.hit_ratio().rate();
        assert!(rate < 0.05, "rate {rate}");
    }

    #[test]
    fn tree_verification_reads_nodes() {
        let (mut meta, mut dram) = setup();
        let out =
            meta.verify_tree_for_read(BlockAddr::new(77), Time::ZERO, &mut dram, &mut NopSink);
        assert_eq!(out.dram_reads, 4);
        // Second verification of the same path is cached.
        let again =
            meta.verify_tree_for_read(BlockAddr::new(77), Time::ZERO, &mut dram, &mut NopSink);
        assert_eq!(again.dram_reads, 0);
    }
}
