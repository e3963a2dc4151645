//! The three-level cache hierarchy of Table I: per-core L1d and L2 with a
//! shared LLC, plus the configured prefetchers.
//!
//! [`MemorySystemCaches::access_into`] performs one demand access and
//! reports everything the memory controller needs: which level served it,
//! which dirty LLC lines were displaced to memory (LLC writebacks), and
//! which prefetched blocks must be fetched from memory. It fills a
//! caller-owned [`CacheAccessResult`] and keeps its own prefetch buffer,
//! so a caller that reuses one result allocates nothing per access.
//!
//! Modelling choices (documented in DESIGN.md): caches are non-inclusive
//! with write-back/write-allocate; dirty evictions cascade one level down;
//! prefetched blocks install into L2 and the LLC (not L1), consume memory
//! bandwidth when they miss the LLC, and are treated as timely (the
//! optimism that lets prefetching hide decryption latency for regular
//! workloads, as in Section I).

use crate::prefetch::{NextLinePrefetcher, PrefetchThrottle, StridePrefetcher};
use crate::set_assoc::{Evicted, Install, SetAssocCache};
use clme_obs::{Component, EventKind, TraceSink};
use clme_types::config::SystemConfig;
use clme_types::stats::Ratio;
use clme_types::{Time, TimeDelta};

/// Which level satisfied a demand access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HitLevel {
    /// L1 data cache hit.
    L1,
    /// L2 hit.
    L2,
    /// Shared last-level cache hit.
    Llc,
    /// LLC miss — the block comes from DRAM.
    Memory,
}

/// The outcome of one demand access through the hierarchy.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheAccessResult {
    /// Deepest level consulted.
    pub level: Option<HitLevel>,
    /// Dirty blocks displaced from the LLC — these become memory
    /// writebacks (and encryption work under every engine).
    pub writebacks: Vec<u64>,
    /// Prefetched blocks that missed the LLC — these become memory reads.
    pub prefetch_fills: Vec<u64>,
}

impl CacheAccessResult {
    /// Whether the access missed all cache levels.
    pub fn is_llc_miss(&self) -> bool {
        self.level == Some(HitLevel::Memory)
    }
}

struct CoreCaches {
    l1: SetAssocCache,
    l2: SetAssocCache,
    stride_l1: StridePrefetcher,
    stride_l2: StridePrefetcher,
    next_line: Option<NextLinePrefetcher>,
    throttle: PrefetchThrottle,
}

/// The full cache system: per-core private L1/L2 and a shared LLC.
///
/// # Examples
///
/// ```
/// use clme_cache::hierarchy::{CacheAccessResult, HitLevel, MemorySystemCaches};
/// use clme_obs::NopSink;
/// use clme_types::{SystemConfig, Time};
///
/// let mut caches = MemorySystemCaches::new(&SystemConfig::isca_table1());
/// let mut result = CacheAccessResult::default();
/// caches.access_into(0, 0x1000, false, Time::ZERO, &mut NopSink, &mut result);
/// assert_eq!(result.level, Some(HitLevel::Memory)); // cold miss
/// caches.access_into(0, 0x1000, false, Time::ZERO, &mut NopSink, &mut result);
/// assert_eq!(result.level, Some(HitLevel::L1)); // now resident
/// ```
pub struct MemorySystemCaches {
    cores: Vec<CoreCaches>,
    llc: SetAssocCache,
    llc_demand: Ratio,
    timeliness: clme_types::rng::Xoshiro256,
    /// Prefetch suggestions of the access in flight; empty between
    /// accesses, kept for its allocation.
    suggestions: Vec<u64>,
}

/// Fraction of accepted prefetches that arrive in time to cover the next
/// demand access. Instantly-installed prefetches would otherwise be
/// *perfect*, hiding every miss of a regular workload; real prefetchers
/// are late for a tail of accesses (which is why the paper's regular
/// suite still shows a 3.4% counterless overhead in Fig. 23).
const PREFETCH_TIMELINESS: f64 = 0.85;

/// Fixed seed for the timeliness draw stream; reseeded by
/// [`MemorySystemCaches::reset_full`] so arena-reused hierarchies replay
/// the same draws as fresh ones.
const TIMELINESS_SEED: u64 = 0x7F7F_1CE5;

impl MemorySystemCaches {
    /// Builds the hierarchy from a [`SystemConfig`].
    pub fn new(cfg: &SystemConfig) -> MemorySystemCaches {
        let cores = (0..cfg.cores)
            .map(|_| CoreCaches {
                l1: SetAssocCache::with_capacity(cfg.l1d.capacity_bytes, cfg.l1d.ways),
                l2: SetAssocCache::with_capacity(cfg.l2.capacity_bytes, cfg.l2.ways),
                stride_l1: StridePrefetcher::new(64, cfg.stride_degree_l1),
                stride_l2: StridePrefetcher::new(128, cfg.stride_degree_l2),
                next_line: cfg.next_line_prefetch.then(NextLinePrefetcher::new),
                throttle: PrefetchThrottle::new(),
            })
            .collect();
        MemorySystemCaches {
            cores,
            llc: SetAssocCache::with_capacity(cfg.llc.capacity_bytes, cfg.llc.ways),
            llc_demand: Ratio::new(),
            timeliness: clme_types::rng::Xoshiro256::seed_from(TIMELINESS_SEED),
            suggestions: Vec::new(),
        }
    }

    /// Performs one demand access by `core` to `block`, overwriting
    /// `result` with its outcome, and reports the serving level to `obs`
    /// (L1/L2 hits as counters; LLC hits and misses as trace events
    /// stamped `at`).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access_into(
        &mut self,
        core: usize,
        block: u64,
        write: bool,
        at: Time,
        obs: &mut dyn TraceSink,
        result: &mut CacheAccessResult,
    ) {
        result.writebacks.clear();
        result.prefetch_fills.clear();
        self.train(core, block);
        let level = self.demand_path(core, block, write, result);
        self.finish(core, block, level, at, obs, result);
    }

    /// Trains `core`'s prefetchers on a demand access, collecting their
    /// suggestions.
    fn train(&mut self, core: usize, block: u64) {
        let cc = &mut self.cores[core];
        cc.throttle.on_demand(block);
        cc.stride_l1.observe(block, &mut self.suggestions);
        cc.stride_l2.observe(block, &mut self.suggestions);
    }

    /// Records the serving `level`, reports it to `obs` and installs the
    /// accepted prefetch suggestions.
    fn finish(
        &mut self,
        core: usize,
        block: u64,
        level: HitLevel,
        at: Time,
        obs: &mut dyn TraceSink,
        result: &mut CacheAccessResult,
    ) {
        result.level = Some(level);
        if obs.enabled() {
            match level {
                HitLevel::L1 => obs.count(EventKind::L1Hit),
                HitLevel::L2 => obs.count(EventKind::L2Hit),
                HitLevel::Llc => obs.event(
                    at,
                    Component::Cache,
                    EventKind::LlcHit,
                    block,
                    TimeDelta::ZERO,
                ),
                HitLevel::Memory => {
                    obs.event(
                        at,
                        Component::Cache,
                        EventKind::LlcMiss,
                        block,
                        TimeDelta::ZERO,
                    );
                    // The LLC miss opens a request span; the machine and
                    // engine report its dependent operations as children.
                    obs.span_request_begin(at, block);
                }
            }
        }

        // Next-line prefetch fires on L2 misses (the L1 next-line
        // prefetcher's useful work is covered by the L1 stride prefetcher;
        // firing on every L1 miss would flood the bus for irregular
        // workloads far beyond the utilisation real systems report).
        if level == HitLevel::Llc || level == HitLevel::Memory {
            if let Some(nl) = self.cores[core].next_line {
                self.suggestions.push(nl.suggest(block));
            }
        }

        // Install prefetches into L2 + LLC (accuracy-throttled); count
        // LLC misses as memory fetches.
        let mut suggestions = std::mem::take(&mut self.suggestions);
        suggestions.sort_unstable();
        suggestions.dedup();
        for &pf_block in &suggestions {
            if pf_block == block || !self.cores[core].throttle.allows() {
                continue;
            }
            self.cores[core].throttle.on_issue(pf_block);
            if self.timeliness.chance(PREFETCH_TIMELINESS) {
                self.prefetch_install(core, pf_block, result);
            }
        }
        suggestions.clear();
        self.suggestions = suggestions;
    }

    /// Looks `block` up level by level and installs it in every level it
    /// missed, each into the victim its own miss found. A level's set is
    /// untouched between its miss and its fill: the LLC and L2 fills (and
    /// their dirty spills) touch only the LLC and L2, and nothing touches
    /// L1 before its fill, so each victim is still its set's LRU line.
    fn demand_path(
        &mut self,
        core: usize,
        block: u64,
        write: bool,
        result: &mut CacheAccessResult,
    ) -> HitLevel {
        let Err(l1_victim) = self.cores[core].l1.access(block, write) else {
            return HitLevel::L1;
        };
        let level = match self.cores[core].l2.access(block, false) {
            Ok(()) => HitLevel::L2,
            Err(l2_victim) => {
                let level = match self.llc.access(block, false) {
                    Ok(()) => HitLevel::Llc,
                    Err(llc_victim) => {
                        // Fetch from memory: install at every level.
                        let evicted = self.llc.fill_victim(block, false, llc_victim);
                        Self::write_back(evicted, result);
                        HitLevel::Memory
                    }
                };
                self.llc_demand.record(level == HitLevel::Llc);
                let evicted = self.cores[core].l2.fill_victim(block, false, l2_victim);
                self.spill_l2(evicted, result);
                level
            }
        };
        let cc = &mut self.cores[core];
        if let Some(Evicted { block, dirty: true }) = cc.l1.fill_victim(block, write, l1_victim) {
            // Dirty L1 victim moves down into L2.
            let evicted = cc.l2.fill(block, true);
            self.spill_l2(evicted, result);
        }
        level
    }

    /// Installs prefetched `block` into the LLC and `core`'s L2, leaving a
    /// resident line of either alone.
    fn prefetch_install(&mut self, core: usize, block: u64, result: &mut CacheAccessResult) {
        if let Install::Filled(evicted) = self.llc.install(block, false) {
            result.prefetch_fills.push(block);
            Self::write_back(evicted, result);
        }
        if let Install::Filled(evicted) = self.cores[core].l2.install(block, false) {
            self.spill_l2(evicted, result);
        }
    }

    /// A dirty line displaced from L2 moves down into the LLC; a resident
    /// LLC line only merges the dirtiness.
    fn spill_l2(&mut self, evicted: Option<Evicted>, result: &mut CacheAccessResult) {
        if let Some(Evicted { block, dirty: true }) = evicted {
            if let Install::Filled(evicted) = self.llc.install(block, true) {
                Self::write_back(evicted, result);
            }
        }
    }

    /// A dirty line displaced from the LLC becomes a memory writeback.
    fn write_back(evicted: Option<Evicted>, result: &mut CacheAccessResult) {
        if let Some(Evicted { block, dirty: true }) = evicted {
            result.writebacks.push(block);
        }
    }

    /// Demand hit ratio observed at the LLC (prefetch traffic excluded).
    pub fn llc_demand_hit_ratio(&self) -> Ratio {
        self.llc_demand
    }

    /// Clears all statistics (not contents), e.g. after warm-up.
    pub fn reset_stats(&mut self) {
        self.llc_demand = Ratio::new();
        self.llc.reset_stats();
        for cc in &mut self.cores {
            cc.l1.reset_stats();
            cc.l2.reset_stats();
        }
    }

    /// Returns the whole hierarchy — contents, prefetcher training,
    /// throttle state, statistics, and the timeliness RNG — to its exact
    /// just-constructed state while keeping every allocation. Used by the
    /// run-matrix arena so a worker can reuse one hierarchy across cells
    /// with bit-identical results.
    pub fn reset_full(&mut self) {
        for cc in &mut self.cores {
            cc.l1.clear();
            cc.l2.clear();
            cc.stride_l1.reset();
            cc.stride_l2.reset();
            cc.throttle.reset();
        }
        self.llc.clear();
        self.llc_demand = Ratio::new();
        self.timeliness = clme_types::rng::Xoshiro256::seed_from(TIMELINESS_SEED);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clme_obs::NopSink;

    impl MemorySystemCaches {
        /// One demand access by `core` to `block`, reported to no sink,
        /// into a fresh result.
        pub(crate) fn demand(&mut self, core: usize, block: u64, write: bool) -> CacheAccessResult {
            let mut result = CacheAccessResult::default();
            self.access_into(core, block, write, Time::ZERO, &mut NopSink, &mut result);
            result
        }
    }

    fn small_config() -> SystemConfig {
        let mut cfg = SystemConfig::isca_table1();
        cfg.cores = 2;
        cfg.l1d.capacity_bytes = 1 << 10; // 16 lines
        cfg.l2.capacity_bytes = 4 << 10; // 64 lines
        cfg.llc.capacity_bytes = 16 << 10; // 256 lines
        cfg.l1d.ways = 2;
        cfg.l2.ways = 4;
        cfg.llc.ways = 4;
        cfg
    }

    fn no_prefetch(mut cfg: SystemConfig) -> SystemConfig {
        cfg.next_line_prefetch = false;
        cfg.stride_degree_l1 = 0;
        cfg.stride_degree_l2 = 0;
        cfg
    }

    #[test]
    fn cold_miss_then_l1_hit() {
        let mut caches = MemorySystemCaches::new(&no_prefetch(small_config()));
        assert_eq!(caches.demand(0, 100, false).level, Some(HitLevel::Memory));
        assert_eq!(caches.demand(0, 100, false).level, Some(HitLevel::L1));
    }

    #[test]
    fn private_caches_are_per_core_but_llc_is_shared() {
        let mut caches = MemorySystemCaches::new(&no_prefetch(small_config()));
        caches.demand(0, 7, false);
        // Core 1 misses its private caches but hits the shared LLC.
        assert_eq!(caches.demand(1, 7, false).level, Some(HitLevel::Llc));
    }

    #[test]
    fn dirty_data_eventually_writes_back_to_memory() {
        let cfg = no_prefetch(small_config());
        let mut caches = MemorySystemCaches::new(&cfg);
        // Dirty one block, then stream enough blocks to push it out of
        // every level.
        caches.demand(0, 0, true);
        let mut writebacks = Vec::new();
        let total_lines = 1000;
        for b in 1..=total_lines {
            writebacks.extend(caches.demand(0, b, false).writebacks);
        }
        assert!(
            writebacks.contains(&0),
            "dirty block 0 never reached memory"
        );
    }

    #[test]
    fn clean_evictions_do_not_write_back() {
        let cfg = no_prefetch(small_config());
        let mut caches = MemorySystemCaches::new(&cfg);
        let mut writebacks = Vec::new();
        for b in 0..1000 {
            writebacks.extend(caches.demand(0, b, false).writebacks);
        }
        assert!(writebacks.is_empty(), "clean stream produced writebacks");
    }

    #[test]
    fn sequential_stream_triggers_prefetch_fills() {
        let mut caches = MemorySystemCaches::new(&small_config());
        let mut prefetched = 0usize;
        let mut memory_misses = 0usize;
        for b in 0..256u64 {
            let r = caches.demand(0, b, false);
            prefetched += r.prefetch_fills.len();
            if r.is_llc_miss() {
                memory_misses += 1;
            }
        }
        assert!(prefetched > 100, "prefetchers idle on a sequential stream");
        // Most demand accesses should have been covered by prefetch.
        assert!(
            memory_misses < 40,
            "prefetch failed to hide the stream: {memory_misses} misses"
        );
    }

    #[test]
    fn random_stream_defeats_prefetch() {
        let mut caches = MemorySystemCaches::new(&small_config());
        let mut rng = clme_types::rng::Xoshiro256::seed_from(3);
        let mut memory_misses = 0usize;
        let accesses = 2_000;
        for _ in 0..accesses {
            let block = rng.below(1 << 22); // 256 MB footprint
            if caches.demand(0, block, false).is_llc_miss() {
                memory_misses += 1;
            }
        }
        assert!(
            memory_misses > accesses * 9 / 10,
            "random stream should mostly miss: {memory_misses}/{accesses}"
        );
    }

    #[test]
    fn llc_demand_ratio_counts_only_demand() {
        let mut caches = MemorySystemCaches::new(&no_prefetch(small_config()));
        caches.demand(0, 1, false);
        caches.demand(0, 1, false); // L1 hit: no LLC consultation
        let r = caches.llc_demand_hit_ratio();
        assert_eq!(r.total(), 1);
        assert_eq!(r.hits(), 0);
    }

    #[test]
    fn write_allocates_and_dirties() {
        let mut caches = MemorySystemCaches::new(&no_prefetch(small_config()));
        let r = caches.demand(0, 50, true);
        assert_eq!(r.level, Some(HitLevel::Memory));
        // The block is dirty in L1: pushing it out must eventually surface
        // a writeback of block 50.
        let mut writebacks = Vec::new();
        for b in 51..1100u64 {
            writebacks.extend(caches.demand(0, b, false).writebacks);
        }
        assert!(writebacks.contains(&50));
    }

    #[test]
    fn reset_stats_preserves_contents() {
        let mut caches = MemorySystemCaches::new(&no_prefetch(small_config()));
        caches.demand(0, 9, false);
        caches.reset_stats();
        assert_eq!(caches.llc_demand_hit_ratio().total(), 0);
        assert_eq!(caches.demand(0, 9, false).level, Some(HitLevel::L1));
    }

    #[test]
    fn reset_full_replays_like_fresh() {
        // Heavy mixed traffic (prefetchers training, throttle filling,
        // timeliness RNG advancing), then reset_full: the hierarchy must
        // be indistinguishable from a fresh one on a shared replay.
        let cfg = small_config();
        let mut used = MemorySystemCaches::new(&cfg);
        let mut rng = clme_types::rng::Xoshiro256::seed_from(11);
        for _ in 0..5_000 {
            let core = rng.below(2) as usize;
            used.demand(core, rng.below(1 << 16), rng.chance(0.3));
        }
        used.reset_full();
        let mut fresh = MemorySystemCaches::new(&cfg);
        let mut replay = clme_types::rng::Xoshiro256::seed_from(77);
        for step in 0..5_000 {
            let core = replay.below(2) as usize;
            let block = replay.below(1 << 14);
            let write = replay.chance(0.4);
            assert_eq!(
                used.demand(core, block, write),
                fresh.demand(core, block, write),
                "divergence at step {step}"
            );
        }
        assert_eq!(
            used.llc_demand_hit_ratio().total(),
            fresh.llc_demand_hit_ratio().total()
        );
        assert_eq!(
            used.llc_demand_hit_ratio().hits(),
            fresh.llc_demand_hit_ratio().hits()
        );
    }

    #[test]
    fn reused_result_matches_fresh_results() {
        let cfg = small_config();
        let mut fresh = MemorySystemCaches::new(&cfg);
        let mut reusing = MemorySystemCaches::new(&cfg);
        let mut result = CacheAccessResult::default();
        let mut rng = clme_types::rng::Xoshiro256::seed_from(21);
        for step in 0..5_000 {
            let core = rng.below(2) as usize;
            // Short strided runs train the prefetchers between jumps.
            let block = if rng.chance(0.7) {
                step * 3
            } else {
                rng.below(1 << 14)
            };
            let write = rng.chance(0.3);
            reusing.access_into(core, block, write, Time::ZERO, &mut NopSink, &mut result);
            assert_eq!(result, fresh.demand(core, block, write), "step {step}");
        }
    }

    #[test]
    fn access_obs_counts_levels() {
        use clme_obs::Recorder;

        let mut caches = MemorySystemCaches::new(&no_prefetch(small_config()));
        let mut rec = Recorder::new();
        let result = &mut CacheAccessResult::default();
        caches.access_into(0, 100, false, Time::ZERO, &mut rec, result); // memory
        caches.access_into(0, 100, false, Time::ZERO, &mut rec, result); // L1
        caches.access_into(1, 100, false, Time::ZERO, &mut rec, result); // LLC (other core)
        assert_eq!(rec.counters().get(EventKind::LlcMiss), 1);
        assert_eq!(rec.counters().get(EventKind::L1Hit), 1);
        assert_eq!(rec.counters().get(EventKind::LlcHit), 1);
        assert_eq!(
            rec.ring().len(),
            2,
            "only LLC-level outcomes take ring slots"
        );
    }
}

#[cfg(test)]
mod hierarchy_properties {
    use super::*;
    use clme_types::rng::Xoshiro256;

    /// After any access sequence: re-accessing the last-touched block
    /// hits L1, and every reported writeback was previously written.
    /// Randomised over 24 seeded access sequences.
    #[test]
    fn recency_and_writeback_soundness() {
        for case in 0..24u64 {
            let mut rng = Xoshiro256::seed_from(0x4EC3 + case);
            let len = 1 + rng.below(299) as usize;
            let mut cfg = SystemConfig::isca_table1();
            cfg.cores = 2;
            cfg.l1d.capacity_bytes = 2 << 10;
            cfg.l2.capacity_bytes = 8 << 10;
            cfg.llc.capacity_bytes = 32 << 10;
            let mut caches = MemorySystemCaches::new(&cfg);
            let mut ever_written = std::collections::HashSet::new();
            for _ in 0..len {
                let block = rng.below(4096);
                let write = rng.chance(0.5);
                let core = rng.below(2) as usize;
                if write {
                    ever_written.insert(block);
                }
                let result = caches.demand(core, block, write);
                for wb in &result.writebacks {
                    assert!(
                        ever_written.contains(wb),
                        "case {case}: writeback of never-written {wb}"
                    );
                }
                let again = caches.demand(core, block, false);
                assert_eq!(
                    again.level,
                    Some(HitLevel::L1),
                    "case {case}: just-touched block must hit L1"
                );
            }
        }
    }
}

/// The demand path as it was before a miss handed its victim to the fill,
/// kept as the reference model the new path is compared with.
#[cfg(test)]
mod probe_then_fill {
    use super::*;
    use clme_obs::NopSink;
    use clme_types::rng::Xoshiro256;

    impl MemorySystemCaches {
        /// `demand` through [`MemorySystemCaches::demand_path_reference`].
        fn access_reference(&mut self, core: usize, block: u64, write: bool) -> CacheAccessResult {
            let mut result = CacheAccessResult::default();
            self.train(core, block);
            let level = self.demand_path_reference(core, block, write, &mut result);
            self.finish(core, block, level, Time::ZERO, &mut NopSink, &mut result);
            result
        }

        /// Each level is looked up by `access`; a level that missed is then
        /// filled by `fill` or `install`, which scan its set a second time.
        fn demand_path_reference(
            &mut self,
            core: usize,
            block: u64,
            write: bool,
            result: &mut CacheAccessResult,
        ) -> HitLevel {
            if self.cores[core].l1.access(block, write).is_ok() {
                return HitLevel::L1;
            }
            if self.cores[core].l2.access(block, false).is_ok() {
                self.fill_l1_reference(core, block, write, result);
                return HitLevel::L2;
            }
            if self.llc.access(block, false).is_ok() {
                self.llc_demand.record(true);
                self.fill_l2_reference(core, block, result);
                self.fill_l1_reference(core, block, write, result);
                return HitLevel::Llc;
            }
            self.llc_demand.record(false);
            self.fill_llc_reference(block, false, result);
            self.fill_l2_reference(core, block, result);
            self.fill_l1_reference(core, block, write, result);
            HitLevel::Memory
        }

        fn fill_l1_reference(
            &mut self,
            core: usize,
            block: u64,
            dirty: bool,
            result: &mut CacheAccessResult,
        ) {
            if let Some(evicted) = self.cores[core].l1.fill(block, dirty) {
                if evicted.dirty {
                    if let Some(l2_evicted) = self.cores[core].l2.fill(evicted.block, true) {
                        if l2_evicted.dirty {
                            self.fill_llc_reference(l2_evicted.block, true, result);
                        }
                    }
                }
            }
        }

        fn fill_l2_reference(&mut self, core: usize, block: u64, result: &mut CacheAccessResult) {
            if let Install::Filled(Some(evicted)) = self.cores[core].l2.install(block, false) {
                if evicted.dirty {
                    self.fill_llc_reference(evicted.block, true, result);
                }
            }
        }

        fn fill_llc_reference(&mut self, block: u64, dirty: bool, result: &mut CacheAccessResult) {
            if let Install::Filled(evicted) = self.llc.install(block, dirty) {
                Self::write_back(evicted, result);
            }
        }
    }

    /// Every per-level hit ratio and the LLC demand ratio.
    fn ratios(caches: &MemorySystemCaches) -> Vec<Ratio> {
        let mut all = vec![caches.llc.hit_ratio(), caches.llc_demand];
        for cc in &caches.cores {
            all.extend([cc.l1.hit_ratio(), cc.l2.hit_ratio()]);
        }
        all
    }

    /// Runs a seeded 4-core stream of strided runs (which train the
    /// prefetchers), repeats (L1 hits) and scattered reads and writes over
    /// `footprint` blocks through the new path and the reference, requiring every
    /// result and the final ratios to agree. Returns the writebacks seen:
    /// a written block reaches memory only through a dirty L1 → L2 → LLC
    /// cascade.
    fn drive(mut cfg: SystemConfig, seed: u64, steps: u64, footprint: u64) -> usize {
        cfg.cores = 4;
        let mut caches = MemorySystemCaches::new(&cfg);
        let mut reference = MemorySystemCaches::new(&cfg);
        let mut rng = Xoshiro256::seed_from(seed);
        let mut cursor = [0u64; 4];
        let mut writebacks = 0;
        for step in 0..steps {
            let core = rng.below(4) as usize;
            cursor[core] = match rng.below(10) {
                0..=4 => (cursor[core] + core as u64 + 1) % footprint,
                5..=6 => cursor[core],
                _ => rng.below(footprint),
            };
            let block = cursor[core];
            let write = rng.chance(0.35);
            let got = caches.demand(core, block, write);
            assert_eq!(
                got,
                reference.access_reference(core, block, write),
                "seed {seed} step {step}: core {core} block {block:#x} write {write}"
            );
            writebacks += got.writebacks.len();
        }
        assert_eq!(ratios(&caches), ratios(&reference), "seed {seed} ratios");
        writebacks
    }

    #[test]
    fn victim_path_matches_probe_then_fill_on_the_small_geometry() {
        for seed in 0..8 {
            let mut cfg = SystemConfig::isca_table1();
            cfg.l1d.capacity_bytes = 1 << 10;
            cfg.l2.capacity_bytes = 4 << 10;
            cfg.llc.capacity_bytes = 16 << 10;
            cfg.l1d.ways = 2;
            cfg.l2.ways = 4;
            cfg.llc.ways = 4;
            let writebacks = drive(cfg, 0xD1A5 + seed, 20_000, 1 << 12);
            assert!(writebacks > 500, "seed {seed}: {writebacks} writebacks");
        }
    }

    #[test]
    fn victim_path_matches_probe_then_fill_on_table1() {
        for seed in 0..2 {
            let writebacks = drive(SystemConfig::isca_table1(), 0x7AB1 + seed, 400_000, 1 << 18);
            assert!(writebacks > 10_000, "seed {seed}: {writebacks} writebacks");
        }
    }
}
