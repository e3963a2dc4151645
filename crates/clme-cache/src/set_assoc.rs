//! A generic set-associative, write-back/write-allocate cache with
//! true-LRU replacement.
//!
//! The cache tracks 64-byte blocks by block index (see
//! [`clme_types::BlockAddr`]); it stores no data — data live in the
//! functional memory model — only presence, dirtiness, and recency, which
//! is all the timing model needs.

use clme_types::stats::Ratio;

/// A line evicted by a fill.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Evicted {
    /// The evicted block index.
    pub block: u64,
    /// Whether the evicted line was dirty (must be written back).
    pub dirty: bool,
}

/// The line a missed block would displace: the first line of its set with
/// the smallest stamp, so an invalid line before the true-LRU one.
///
/// A miss in [`SetAssocCache::access`] returns it and
/// [`SetAssocCache::fill_victim`] installs the missed block there without
/// scanning the set again. It stays the set's victim while nothing fills,
/// hits or invalidates a line of that set; misses and probes leave it be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Victim(usize);

/// What [`SetAssocCache::install`] found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Install {
    /// The block was already resident; only its dirtiness was merged.
    Resident,
    /// The block was installed, displacing the evicted line, if any.
    Filled(Option<Evicted>),
}

/// A set-associative cache over block indices.
///
/// Lines live in flat arrays indexed `set * ways + way`: the block tag,
/// the tick of the line's last use (0 marks an invalid line), and the
/// dirty bit.
///
/// # Examples
///
/// ```
/// use clme_cache::set_assoc::SetAssocCache;
///
/// let mut cache = SetAssocCache::new(2, 2); // 2 sets × 2 ways
/// cache.fill(0, true);
/// cache.fill(2, false); // same set as 0 (even blocks)
/// cache.fill(4, false); // evicts LRU (block 0, dirty)
/// assert_eq!(cache.fill(6, false).unwrap().block, 2);
///
/// // A miss hands its victim to the fill: one scan of the set in all.
/// let victim = cache.access(8, false).unwrap_err();
/// assert_eq!(cache.fill_victim(8, false, victim).unwrap().block, 4);
/// assert!(cache.access(8, false).is_ok());
/// ```
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    tags: Vec<u64>,
    stamps: Vec<u64>,
    dirty: Vec<bool>,
    ways: usize,
    set_mask: u64,
    tick: u64,
    hits: Ratio,
}

impl SetAssocCache {
    /// Creates a cache with `sets` sets (a power of two) and `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a nonzero power of two or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> SetAssocCache {
        assert!(
            sets.is_power_of_two() && sets > 0,
            "sets must be a power of two"
        );
        assert!(ways > 0, "need at least one way");
        let lines = sets * ways;
        SetAssocCache {
            tags: vec![0; lines],
            stamps: vec![0; lines],
            dirty: vec![false; lines],
            ways,
            set_mask: sets as u64 - 1,
            tick: 0,
            hits: Ratio::new(),
        }
    }

    /// Creates a cache from a capacity in bytes and associativity,
    /// assuming 64-byte lines (how Table I specifies geometries).
    pub fn with_capacity(capacity_bytes: u64, ways: u32) -> SetAssocCache {
        let lines = capacity_bytes / clme_types::BLOCK_BYTES;
        let sets = (lines / ways as u64).max(1) as usize;
        SetAssocCache::new(sets.next_power_of_two(), ways as usize)
    }

    /// Total lines.
    pub fn lines(&self) -> usize {
        self.tags.len()
    }

    /// Index of `block`'s set's first line.
    fn base(&self, block: u64) -> usize {
        (block & self.set_mask) as usize * self.ways
    }

    /// The line holding `block`, if resident.
    fn find(&self, block: u64) -> Option<usize> {
        let base = self.base(block);
        let tags = &self.tags[base..base + self.ways];
        let stamps = &self.stamps[base..base + self.ways];
        tags.iter()
            .zip(stamps)
            .position(|(&tag, &stamp)| tag == block && stamp != 0)
            .map(|way| base + way)
    }

    /// One pass over `block`'s set: `Ok(line)` where it is resident,
    /// else `Err(line)` of the victim — the first line with the smallest
    /// stamp, so an invalid line before the true-LRU one.
    fn lookup(&self, block: u64) -> Result<usize, usize> {
        let base = self.base(block);
        let tags = &self.tags[base..base + self.ways];
        let stamps = &self.stamps[base..base + self.ways];
        let (mut victim, mut oldest) = (0, u64::MAX);
        for (way, (&tag, &stamp)) in tags.iter().zip(stamps).enumerate() {
            if tag == block && stamp != 0 {
                return Ok(base + way);
            }
            if stamp < oldest {
                (victim, oldest) = (way, stamp);
            }
        }
        Err(base + victim)
    }

    /// Marks `line` used now, dirtied by `dirty`.
    fn touch(&mut self, line: usize, dirty: bool) {
        self.tick += 1;
        self.stamps[line] = self.tick;
        self.dirty[line] |= dirty;
    }

    /// Puts `block` into the victim `line`, returning what it displaced.
    fn replace(&mut self, line: usize, block: u64, dirty: bool) -> Option<Evicted> {
        let evicted = (self.stamps[line] != 0).then(|| Evicted {
            block: self.tags[line],
            dirty: self.dirty[line],
        });
        self.tick += 1;
        self.tags[line] = block;
        self.stamps[line] = self.tick;
        self.dirty[line] = dirty;
        evicted
    }

    /// Looks up `block` in one pass over its set. A hit updates recency
    /// (and dirtiness for a write) and returns `Ok`. A miss does *not*
    /// allocate: it returns the set's [`Victim`], for
    /// [`SetAssocCache::fill_victim`] when the data arrive.
    pub fn access(&mut self, block: u64, write: bool) -> Result<(), Victim> {
        let found = self.lookup(block);
        match found {
            Ok(line) => self.touch(line, write),
            Err(_) => self.tick += 1,
        }
        self.hits.record(found.is_ok());
        found.map(|_| ()).map_err(Victim)
    }

    /// Checks presence without touching recency or statistics.
    pub fn probe(&self, block: u64) -> bool {
        self.find(block).is_some()
    }

    /// Installs `block`, evicting the LRU line of its set if necessary.
    /// Returns the evicted line, if any valid line was displaced.
    pub fn fill(&mut self, block: u64, dirty: bool) -> Option<Evicted> {
        match self.lookup(block) {
            // Already present (e.g. racing prefetch): just update.
            Ok(line) => {
                self.touch(line, dirty);
                None
            }
            Err(victim) => self.replace(victim, block, dirty),
        }
    }

    /// Installs the block that [`SetAssocCache::access`] just missed into
    /// the victim that miss returned, returning the line it displaced. No
    /// line of `block`'s set may have been filled, hit or invalidated in
    /// between, or the victim is no longer the set's LRU line.
    pub fn fill_victim(&mut self, block: u64, dirty: bool, victim: Victim) -> Option<Evicted> {
        let base = self.base(block);
        debug_assert!(
            (base..base + self.ways).contains(&victim.0),
            "victim line {} is outside block {block:#x}'s set",
            victim.0
        );
        self.replace(victim.0, block, dirty)
    }

    /// Installs `block` if it is absent, as [`SetAssocCache::fill`] does.
    /// A resident line keeps its place in LRU order unless `dirty`, which
    /// marks it as a write hit ([`SetAssocCache::access`]) would. One
    /// pass over the set either way: the same outcome as a
    /// [`SetAssocCache::probe`] followed by `access` or `fill`.
    pub fn install(&mut self, block: u64, dirty: bool) -> Install {
        match self.lookup(block) {
            Ok(line) => {
                if dirty {
                    self.touch(line, true);
                    self.hits.record(true);
                }
                Install::Resident
            }
            Err(victim) => Install::Filled(self.replace(victim, block, dirty)),
        }
    }

    /// Removes `block` if present, returning whether it was dirty.
    pub fn invalidate(&mut self, block: u64) -> Option<bool> {
        let line = self.find(block)?;
        self.stamps[line] = 0;
        Some(self.dirty[line])
    }

    /// Hit-rate statistics accumulated by [`SetAssocCache::access`].
    pub fn hit_ratio(&self) -> Ratio {
        self.hits
    }

    /// Clears statistics (e.g. at the end of a warm-up window) without
    /// touching contents.
    pub fn reset_stats(&mut self) {
        self.hits = Ratio::new();
    }

    /// Invalidates every line and resets recency and statistics, keeping
    /// the allocation — returns the cache to its just-constructed state
    /// (run-matrix arena reuse).
    pub fn clear(&mut self) {
        self.tags.fill(0);
        self.stamps.fill(0);
        self.dirty.fill(false);
        self.tick = 0;
        self.hits = Ratio::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_then_hit() {
        let mut c = SetAssocCache::new(4, 2);
        assert!(c.access(5, false).is_err());
        c.fill(5, false);
        assert!(c.access(5, false).is_ok());
        assert_eq!(c.hit_ratio().hits(), 1);
        assert_eq!(c.hit_ratio().total(), 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = SetAssocCache::new(1, 2);
        c.fill(1, false);
        c.fill(2, false);
        assert!(c.access(1, false).is_ok()); // 2 is now LRU
        let evicted = c.fill(3, false).unwrap();
        assert_eq!(evicted.block, 2);
        assert!(c.probe(1));
        assert!(c.probe(3));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = SetAssocCache::new(1, 1);
        c.fill(7, false);
        assert!(c.access(7, true).is_ok()); // make dirty
        let evicted = c.fill(9, false).unwrap();
        assert_eq!(
            evicted,
            Evicted {
                block: 7,
                dirty: true
            }
        );
    }

    #[test]
    fn clean_eviction_reported_clean() {
        let mut c = SetAssocCache::new(1, 1);
        c.fill(7, false);
        assert_eq!(
            c.fill(9, false).unwrap(),
            Evicted {
                block: 7,
                dirty: false
            }
        );
    }

    #[test]
    fn refill_existing_merges_dirty() {
        let mut c = SetAssocCache::new(1, 2);
        c.fill(1, false);
        assert!(c.fill(1, true).is_none());
        let evicted_later = {
            c.fill(3, false);
            c.fill(5, false).unwrap()
        };
        assert_eq!(evicted_later.block, 1);
        assert!(evicted_later.dirty);
    }

    #[test]
    fn sets_are_indexed_by_low_bits() {
        let mut c = SetAssocCache::new(4, 1);
        c.fill(0, false);
        c.fill(1, false);
        c.fill(2, false);
        c.fill(3, false);
        // All four coexist (different sets).
        for b in 0..4 {
            assert!(c.probe(b));
        }
        // Block 4 maps to set 0 and evicts block 0.
        assert_eq!(c.fill(4, false).unwrap().block, 0);
    }

    #[test]
    fn invalidate_removes_and_reports_dirty() {
        let mut c = SetAssocCache::new(2, 2);
        c.fill(2, true);
        assert_eq!(c.invalidate(2), Some(true));
        assert_eq!(c.invalidate(2), None);
        assert!(!c.probe(2));
    }

    #[test]
    fn probe_does_not_perturb() {
        let mut c = SetAssocCache::new(1, 2);
        c.fill(1, false);
        c.fill(2, false);
        // Probing 1 must NOT refresh it.
        assert!(c.probe(1));
        assert_eq!(c.fill(3, false).unwrap().block, 1);
        assert_eq!(c.hit_ratio().total(), 0, "probe must not count in stats");
    }

    #[test]
    fn with_capacity_geometry() {
        let c = SetAssocCache::with_capacity(64 << 10, 32);
        // 64KB / 64B = 1024 lines; 1024/32 = 32 sets.
        assert_eq!(c.lines(), 1024);
    }

    #[test]
    fn write_access_marks_dirty() {
        let mut c = SetAssocCache::new(1, 1);
        c.fill(4, false);
        assert!(c.access(4, true).is_ok());
        assert_eq!(c.invalidate(4), Some(true));
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = SetAssocCache::new(2, 1);
        c.fill(1, false);
        assert!(c.access(1, false).is_ok());
        c.reset_stats();
        assert_eq!(c.hit_ratio().total(), 0);
        assert!(c.probe(1));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside block 0x1's set")]
    fn victim_from_another_set_panics() {
        let mut c = SetAssocCache::new(2, 1);
        let victim = c.access(0, false).unwrap_err();
        c.fill_victim(1, false, victim);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panics() {
        let _ = SetAssocCache::new(3, 1);
    }

    #[test]
    fn clear_restores_constructed_state() {
        let mut c = SetAssocCache::new(2, 2);
        c.fill(1, true);
        c.fill(3, false);
        assert!(c.access(1, false).is_ok());
        c.clear();
        assert!(!c.probe(1));
        assert!(!c.probe(3));
        assert_eq!(c.hit_ratio().total(), 0);
        // Replay against a fresh cache: eviction order must match, which
        // pins the recency counter reset.
        let mut fresh = SetAssocCache::new(2, 2);
        for b in [0u64, 2, 4, 6, 0, 8] {
            assert_eq!(c.fill(b, false), fresh.fill(b, false));
        }
    }
}

/// The nested-`Vec` cache the flat arrays replaced, kept as the
/// reference model the equivalence property drives side by side.
#[cfg(test)]
mod reference {
    use super::Evicted;
    use clme_types::stats::Ratio;

    #[derive(Clone, Copy, Debug)]
    struct Line {
        tag: u64,
        valid: bool,
        dirty: bool,
        last_use: u64,
    }

    const EMPTY: Line = Line {
        tag: 0,
        valid: false,
        dirty: false,
        last_use: 0,
    };

    pub struct ReferenceCache {
        sets: Vec<Vec<Line>>,
        set_mask: u64,
        tick: u64,
        hits: Ratio,
    }

    impl ReferenceCache {
        pub fn new(sets: usize, ways: usize) -> ReferenceCache {
            ReferenceCache {
                sets: vec![vec![EMPTY; ways]; sets],
                set_mask: sets as u64 - 1,
                tick: 0,
                hits: Ratio::new(),
            }
        }

        pub fn access(&mut self, block: u64, write: bool) -> bool {
            self.tick += 1;
            let tick = self.tick;
            let set = &mut self.sets[(block & self.set_mask) as usize];
            match set.iter_mut().find(|line| line.valid && line.tag == block) {
                Some(line) => {
                    line.last_use = tick;
                    line.dirty |= write;
                    self.hits.record(true);
                    true
                }
                None => {
                    self.hits.record(false);
                    false
                }
            }
        }

        pub fn probe(&self, block: u64) -> bool {
            self.sets[(block & self.set_mask) as usize]
                .iter()
                .any(|line| line.valid && line.tag == block)
        }

        pub fn fill(&mut self, block: u64, dirty: bool) -> Option<Evicted> {
            self.tick += 1;
            let tick = self.tick;
            let set = &mut self.sets[(block & self.set_mask) as usize];
            if let Some(line) = set.iter_mut().find(|line| line.valid && line.tag == block) {
                line.last_use = tick;
                line.dirty |= dirty;
                return None;
            }
            let victim = set
                .iter_mut()
                .min_by_key(|line| if line.valid { line.last_use } else { 0 })
                .expect("ways > 0");
            let evicted = victim.valid.then_some(Evicted {
                block: victim.tag,
                dirty: victim.dirty,
            });
            *victim = Line {
                tag: block,
                valid: true,
                dirty,
                last_use: tick,
            };
            evicted
        }

        pub fn invalidate(&mut self, block: u64) -> Option<bool> {
            let set = &mut self.sets[(block & self.set_mask) as usize];
            for line in set.iter_mut() {
                if line.valid && line.tag == block {
                    line.valid = false;
                    return Some(line.dirty);
                }
            }
            None
        }

        pub fn hit_ratio(&self) -> Ratio {
            self.hits
        }

        pub fn clear(&mut self) {
            for set in &mut self.sets {
                set.fill(EMPTY);
            }
            self.tick = 0;
            self.hits = Ratio::new();
        }
    }
}

#[cfg(test)]
mod equivalence {
    use super::reference::ReferenceCache;
    use super::*;
    use clme_types::rng::Xoshiro256;

    /// Drives the flat cache and the nested-`Vec` reference through one
    /// seeded random operation sequence and requires every return value,
    /// every `Evicted` and the hit statistics to agree. `install` is
    /// checked against the reference's probe-then-access/fill, the two
    /// calls it replaces in the hierarchy. Half the misses hold their
    /// `Victim` while operations on other sets run, as the hierarchy
    /// holds its L1 victim across the L2 and LLC fills; the held victim
    /// is filled before any operation reaches its set, and checked
    /// against the reference's `fill`. Blocks come from a small window
    /// (so sets conflict) either near 0 or near `u64::MAX`.
    fn drive(sets: usize, ways: usize, seed: u64, steps: usize) {
        let mut flat = SetAssocCache::new(sets, ways);
        let mut reference = ReferenceCache::new(sets, ways);
        let mut rng = Xoshiro256::seed_from(seed);
        let window = (sets * ways * 3) as u64;
        let high = rng.chance(0.5);
        let set_of = |block: u64| block & (sets as u64 - 1);
        let mut held: Option<(u64, bool, Victim)> = None;
        for step in 0..steps {
            let offset = rng.below(window);
            let block = if high { u64::MAX - offset } else { offset };
            let flag = rng.chance(0.3);
            let what = format!("{sets}x{ways} seed {seed} step {step} block {block:#x}");
            let op = rng.below(100);
            if let Some((missed, dirty, victim)) = held {
                if op == 99 || set_of(missed) == set_of(block) || rng.chance(0.25) {
                    assert_eq!(
                        flat.fill_victim(missed, dirty, victim),
                        reference.fill(missed, dirty),
                        "fill_victim of {missed:#x}: {what}"
                    );
                    held = None;
                }
            }
            match op {
                0..=34 => {
                    let found = flat.access(block, flag);
                    assert_eq!(
                        found.is_ok(),
                        reference.access(block, flag),
                        "access: {what}"
                    );
                    if let (Err(victim), None) = (found, held) {
                        if rng.chance(0.5) {
                            held = Some((block, rng.chance(0.3), victim));
                        }
                    }
                }
                35..=64 => assert_eq!(
                    flat.fill(block, flag),
                    reference.fill(block, flag),
                    "fill: {what}"
                ),
                65..=79 => {
                    let expected = if reference.probe(block) {
                        if flag {
                            reference.access(block, true);
                        }
                        Install::Resident
                    } else {
                        Install::Filled(reference.fill(block, flag))
                    };
                    assert_eq!(flat.install(block, flag), expected, "install: {what}");
                }
                80..=89 => assert_eq!(flat.probe(block), reference.probe(block), "probe: {what}"),
                90..=98 => assert_eq!(
                    flat.invalidate(block),
                    reference.invalidate(block),
                    "invalidate: {what}"
                ),
                _ => {
                    flat.clear();
                    reference.clear();
                }
            }
            assert_eq!(flat.hit_ratio(), reference.hit_ratio(), "hits: {what}");
        }
    }

    #[test]
    fn flat_cache_matches_nested_reference() {
        for seed in 0..16u64 {
            drive(1, 1, 0x5E7A + seed, 2_000);
            drive(4, 8, 0x5E7A + seed, 4_000);
            drive(8, 16, 0x5E7A + seed, 4_000);
            drive(2, 32, 0x5E7A + seed, 4_000);
        }
    }
}
