//! Shared metadata-traffic machinery: the counter cache in front of
//! counter blocks and integrity-tree nodes.
//!
//! Both the counter-mode baseline and Counter-light route their metadata
//! accesses through here. All metadata transfers go to real DRAM
//! addresses (laid out by [`clme_counters::layout::MetadataLayout`]) so
//! they contend with data traffic — the mechanism behind Fig. 8's late
//! counters and Fig. 18's bandwidth overhead.

use clme_counters::cache::CounterCache;
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
    cache: CounterCache,
    lookup_latency: TimeDelta,
}

impl MetadataTraffic {
    /// Builds the metadata subsystem for `data_blocks` of protected
    /// memory.
    pub fn new(cfg: &SystemConfig, data_blocks: u64) -> MetadataTraffic {
        MetadataTraffic {
            layout: MetadataLayout::new(data_blocks),
            cache: CounterCache::new(cfg.counter_cache_bytes, cfg.counter_cache_ways),
            lookup_latency: cfg.counter_cache_latency,
        }
    }

    /// The metadata address layout.
    pub fn layout(&self) -> &MetadataLayout {
        &self.layout
    }

    /// Counter-cache hit statistics.
    pub fn cache_hit_ratio(&self) -> clme_types::stats::Ratio {
        self.cache.hit_ratio()
    }

    /// Clears counter-cache statistics.
    pub fn reset_stats(&mut self) {
        self.cache.reset_stats();
    }

    /// Read-path counter acquisition (Fig. 6b: *only* the missing block's
    /// own counter block). The DRAM fetch, when needed, starts only after
    /// the counter-cache lookup resolves — the serialisation the paper
    /// calls out in Section IV-A. `fill_cache` selects whether the
    /// fetched counter block is installed (the RMCC baseline installs it;
    /// Counter-light "does not cache counters during LLC misses").
    pub fn counter_for_read(
        &mut self,
        data_block: BlockAddr,
        issue: Time,
        dram: &mut Dram,
        fill_cache: bool,
    ) -> MetadataOutcome {
        self.counter_for_read_obs(data_block, issue, dram, fill_cache, &mut NopSink)
    }

    /// [`MetadataTraffic::counter_for_read`] with an observability sink:
    /// the counter acquisition (cache hit or DRAM fetch) is reported as a
    /// level-0 counter-fetch child span of the open request.
    pub fn counter_for_read_obs(
        &mut self,
        data_block: BlockAddr,
        issue: Time,
        dram: &mut Dram,
        fill_cache: bool,
        obs: &mut dyn TraceSink,
    ) -> MetadataOutcome {
        let counter_block = self.layout.counter_block_of(data_block);
        let lookup_done = issue + self.lookup_latency;
        if self.cache.access(counter_block, false) {
            if obs.enabled() {
                obs.span_child(SpanKind::CounterFetch, 0, issue, lookup_done);
            }
            return MetadataOutcome {
                available: lookup_done,
                counter_dram_arrival: None,
                dram_reads: 0,
                dram_writes: 0,
            };
        }
        // Deliberately the unobserved access: metadata fetches keep their
        // pre-span-layer stage/event attribution so snapshots stay
        // byte-identical with tracing off; only the child span is new.
        let access = dram.access(counter_block, AccessKind::Read, lookup_done);
        if obs.enabled() {
            obs.span_child(SpanKind::CounterFetch, 0, issue, access.arrival);
        }
        let mut outcome = MetadataOutcome {
            available: access.arrival,
            counter_dram_arrival: Some(access.arrival),
            dram_reads: 1,
            dram_writes: 0,
        };
        if fill_cache {
            if let Some(evicted) = self.cache.fill(counter_block, false) {
                dram.background_access(evicted.block, AccessKind::Write, access.arrival);
                outcome.dram_writes += 1;
            }
        }
        outcome
    }

    /// Read-path integrity verification for *traditional* counter mode
    /// (Fig. 6a): the tree nodes protecting the counter are consulted
    /// through the counter cache; misses fetch from DRAM.
    pub fn verify_tree_for_read(
        &mut self,
        data_block: BlockAddr,
        issue: Time,
        dram: &mut Dram,
    ) -> MetadataOutcome {
        self.verify_tree_for_read_obs(data_block, issue, dram, &mut NopSink)
    }

    /// [`MetadataTraffic::verify_tree_for_read`] with an observability
    /// sink: each tree node consulted is reported as a counter-fetch
    /// child span at its depth (level 1 = lowest tree node).
    pub fn verify_tree_for_read_obs(
        &mut self,
        data_block: BlockAddr,
        issue: Time,
        dram: &mut Dram,
        obs: &mut dyn TraceSink,
    ) -> MetadataOutcome {
        self.walk_tree(data_block, issue, dram, false, obs)
    }

    /// Writeback-path metadata update: read-modify-write the counter
    /// block and (when `include_tree`) every tree node on the path,
    /// through the counter cache. Dirty evictions become DRAM writes.
    pub fn update_for_writeback(
        &mut self,
        data_block: BlockAddr,
        now: Time,
        dram: &mut Dram,
        include_tree: bool,
    ) -> MetadataOutcome {
        let counter_block = self.layout.counter_block_of(data_block);
        let mut outcome = self.touch(counter_block, now, dram, true, false);
        if include_tree {
            let tree = self.walk_tree(data_block, now, dram, true, &mut NopSink);
            outcome.dram_reads += tree.dram_reads;
            outcome.dram_writes += tree.dram_writes;
            outcome.available = outcome.available.max(tree.available);
        }
        outcome
    }

    fn walk_tree(
        &mut self,
        data_block: BlockAddr,
        issue: Time,
        dram: &mut Dram,
        dirty: bool,
        obs: &mut dyn TraceSink,
    ) -> MetadataOutcome {
        let mut outcome = MetadataOutcome {
            available: issue + self.lookup_latency,
            ..MetadataOutcome::default()
        };
        for (depth, node) in self.layout.tree_path_of(data_block).into_iter().enumerate() {
            let touched = self.touch(node, issue, dram, dirty, !dirty);
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

    /// One read-modify-write (or read) of a metadata block through the
    /// cache. `demand` selects whether a DRAM fetch is latency-critical
    /// (the read path) or buffered behind demand reads (the writeback
    /// path).
    fn touch(
        &mut self,
        meta_block: BlockAddr,
        now: Time,
        dram: &mut Dram,
        dirty: bool,
        demand: bool,
    ) -> MetadataOutcome {
        let lookup_done = now + self.lookup_latency;
        if self.cache.access(meta_block, dirty) {
            return MetadataOutcome {
                available: lookup_done,
                counter_dram_arrival: None,
                dram_reads: 0,
                dram_writes: 0,
            };
        }
        let arrival = if demand {
            dram.access(meta_block, AccessKind::Read, lookup_done)
                .arrival
        } else {
            dram.background_access(meta_block, AccessKind::Read, lookup_done)
        };
        let mut writes = 0;
        if let Some(evicted) = self.cache.fill(meta_block, dirty) {
            dram.background_access(evicted.block, AccessKind::Write, arrival);
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

    #[test]
    fn read_counter_miss_fetches_after_lookup() {
        let (mut meta, mut dram) = setup();
        let out = meta.counter_for_read(BlockAddr::new(0), Time::ZERO, &mut dram, true);
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
        meta.counter_for_read(BlockAddr::new(0), Time::ZERO, &mut dram, true);
        let out = meta.counter_for_read(BlockAddr::new(1), Time::ZERO, &mut dram, true);
        // Block 1 shares block 0's counter block.
        assert_eq!(out.dram_reads, 0);
        assert_eq!(out.available, Time::ZERO + TimeDelta::from_ns(2));
        assert!(out.counter_dram_arrival.is_none());
    }

    #[test]
    fn no_fill_mode_never_caches() {
        let (mut meta, mut dram) = setup();
        meta.counter_for_read(BlockAddr::new(0), Time::ZERO, &mut dram, false);
        let again = meta.counter_for_read(BlockAddr::new(0), Time::ZERO, &mut dram, false);
        assert_eq!(again.dram_reads, 1, "uncached counter refetches");
    }

    #[test]
    fn writeback_updates_counter_and_tree() {
        let (mut meta, mut dram) = setup();
        let out = meta.update_for_writeback(BlockAddr::new(0), Time::ZERO, &mut dram, true);
        // Cold: counter block + 4 tree levels fetched.
        assert_eq!(out.dram_reads, 1 + 4);
        // Re-dirtying the same page is free (all hot).
        let again = meta.update_for_writeback(BlockAddr::new(5), Time::ZERO, &mut dram, true);
        assert_eq!(again.dram_reads, 0);
    }

    #[test]
    fn writeback_without_tree_touches_only_counter() {
        let (mut meta, mut dram) = setup();
        let out = meta.update_for_writeback(BlockAddr::new(0), Time::ZERO, &mut dram, false);
        assert_eq!(out.dram_reads, 1);
    }

    #[test]
    fn dirty_evictions_write_to_dram() {
        let cfg = SystemConfig::isca_table1();
        let mut small = MetadataTraffic {
            layout: MetadataLayout::new(1 << 20),
            cache: CounterCache::new(128, 2), // 2 lines total
            lookup_latency: cfg.counter_cache_latency,
        };
        let mut dram = Dram::new(&cfg);
        // Three conflicting dirty counter blocks: the third fill must
        // evict a dirty one to DRAM.
        let mut writes = 0;
        for page in 0..6u64 {
            let out =
                small.update_for_writeback(BlockAddr::new(page * 64), Time::ZERO, &mut dram, false);
            writes += out.dram_writes;
        }
        assert!(writes > 0, "dirty metadata evictions must reach DRAM");
    }

    #[test]
    fn tree_verification_reads_nodes() {
        let (mut meta, mut dram) = setup();
        let out = meta.verify_tree_for_read(BlockAddr::new(77), Time::ZERO, &mut dram);
        assert_eq!(out.dram_reads, 4);
        // Second verification of the same path is cached.
        let again = meta.verify_tree_for_read(BlockAddr::new(77), Time::ZERO, &mut dram);
        assert_eq!(again.dram_reads, 0);
    }
}
