//! Bounded-cardinality tenant tracking.
//!
//! A shared encryption layer serving thousands of tenants cannot afford a
//! metric series per tenant: Prometheus cardinality and per-series memory
//! both explode. This module bounds the blast radius at a fixed `K`:
//!
//! * [`TenantScope`] hands out at most `K` exact label slots. Tenants
//!   beyond the cap fold into the shared [`OTHER_TENANT`] rollup series,
//!   so downstream histograms/counters stay `O(K)` no matter how many
//!   tenants exist. Slots can be *primed* up front (when the caller knows
//!   the expected heavy hitters, e.g. a workload composer that built the
//!   popularity distribution) or claimed first-observed.
//! * [`SpaceSaving`] is the classic Metwally et al. heavy-hitter sketch:
//!   `cap` monitored entries, evict-the-minimum on overflow with the
//!   evictee's count as the newcomer's error floor. It ranks tenants
//!   *empirically*, so a scope primed with the wrong tenants can detect
//!   an unadmitted heavy hitter hiding inside `__other__`.
//! * [`TenantSketch`] shards `SpaceSaving` per writer stream and merges
//!   deterministically (sum by id, order by count desc / id asc), so the
//!   merged top-K is a pure function of each stream's content — thread
//!   interleaving across streams cannot change it.
//!
//! Nothing here reads a clock or allocates on the observe path beyond the
//! sketch's fixed-capacity tables.

use clme_types::hash::BlockHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::Mutex;

/// Label value for the folded long-tail series.
pub const OTHER_TENANT: &str = "__other__";

/// Number of independent writer shards in [`TenantSketch`].
pub const TENANT_SKETCH_SHARDS: usize = 8;

/// One monitored entry of a [`SpaceSaving`] sketch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeavyHitter {
    /// Tenant id.
    pub id: u64,
    /// Estimated observation count (true count is in
    /// `[count - error, count]`).
    pub count: u64,
    /// Maximum overestimation inherited from the evicted minimum.
    pub error: u64,
}

/// Space-saving heavy-hitter sketch over `u64` tenant ids.
///
/// Tracks at most `cap` tenants. Observing a monitored tenant increments
/// its count exactly; observing an unmonitored one evicts the current
/// minimum and inherits its count as the error floor. Guarantees: any
/// tenant with true frequency `> N / cap` is monitored, and every
/// reported `count` overestimates the true count by at most `error`.
#[derive(Clone, Debug)]
pub struct SpaceSaving {
    cap: usize,
    entries: Vec<HeavyHitter>,
    /// id -> index into `entries`. Probed, never iterated, and never
    /// above `cap` ids, so colliding ids cost at most a `cap`-long probe.
    index: HashMap<u64, usize, BuildHasherDefault<BlockHasher>>,
}

impl SpaceSaving {
    /// Creates a sketch monitoring at most `cap` tenants (min 1).
    pub fn new(cap: usize) -> SpaceSaving {
        let cap = cap.max(1);
        SpaceSaving {
            cap,
            entries: Vec::with_capacity(cap),
            index: HashMap::with_capacity_and_hasher(cap * 2, Default::default()),
        }
    }

    /// Monitored-slot capacity.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Records `weight` observations of tenant `id`.
    pub fn observe_n(&mut self, id: u64, weight: u64) {
        if weight == 0 {
            return;
        }
        if let Some(&i) = self.index.get(&id) {
            self.entries[i].count += weight;
            return;
        }
        if self.entries.len() < self.cap {
            self.index.insert(id, self.entries.len());
            self.entries.push(HeavyHitter {
                id,
                count: weight,
                error: 0,
            });
            return;
        }
        // Evict the minimum-count entry; ties break on the larger id so
        // that, all else equal, earlier-admitted small ids survive.
        let mut victim = 0usize;
        for (i, e) in self.entries.iter().enumerate() {
            let v = &self.entries[victim];
            if e.count < v.count || (e.count == v.count && e.id > v.id) {
                victim = i;
            }
        }
        let floor = self.entries[victim].count;
        self.index.remove(&self.entries[victim].id);
        self.index.insert(id, victim);
        self.entries[victim] = HeavyHitter {
            id,
            count: floor + weight,
            error: floor,
        };
    }

    /// Records one observation of tenant `id`.
    pub fn observe(&mut self, id: u64) {
        self.observe_n(id, 1);
    }

    /// Monitored entries ordered by count descending, id ascending.
    pub fn top(&self) -> Vec<HeavyHitter> {
        let mut out = self.entries.clone();
        out.sort_by(|a, b| b.count.cmp(&a.count).then(a.id.cmp(&b.id)));
        out
    }

    /// Resets the sketch to empty.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.index.clear();
    }
}

/// A sharded [`SpaceSaving`] sketch with a deterministic merge.
///
/// Each writer stream observes into its own shard (`shard = stream %
/// TENANT_SKETCH_SHARDS`), so concurrent streams never interleave inside
/// one sketch. [`TenantSketch::merged_top`] sums per-id counts across
/// shards and orders by count desc / id asc — a pure function of each
/// shard's content, hence identical across thread schedules as long as
/// the stream -> shard assignment is fixed.
pub struct TenantSketch {
    shards: [Mutex<SpaceSaving>; TENANT_SKETCH_SHARDS],
}

impl TenantSketch {
    /// Creates a sketch with `cap` monitored slots per shard.
    pub fn new(cap: usize) -> TenantSketch {
        TenantSketch {
            shards: std::array::from_fn(|_| Mutex::new(SpaceSaving::new(cap))),
        }
    }

    /// Records `weight` observations of `id` on behalf of writer
    /// `stream`. Streams map to shards by modulo; a stream observes the
    /// same shard for its whole lifetime.
    pub fn observe_n(&self, stream: usize, id: u64, weight: u64) {
        let shard = stream % TENANT_SKETCH_SHARDS;
        self.shards[shard]
            .lock()
            .expect("tenant sketch shard poisoned")
            .observe_n(id, weight);
    }

    /// Merged heavy hitters: per-id counts and errors summed across
    /// shards, top `limit` by count desc / id asc.
    pub fn merged_top(&self, limit: usize) -> Vec<HeavyHitter> {
        let mut merged: HashMap<u64, (u64, u64)> = HashMap::new();
        for shard in &self.shards {
            let guard = shard.lock().expect("tenant sketch shard poisoned");
            for e in &guard.entries {
                let slot = merged.entry(e.id).or_insert((0, 0));
                slot.0 += e.count;
                slot.1 += e.error;
            }
        }
        let mut out: Vec<HeavyHitter> = merged
            .into_iter()
            .map(|(id, (count, error))| HeavyHitter { id, count, error })
            .collect();
        out.sort_by(|a, b| b.count.cmp(&a.count).then(a.id.cmp(&b.id)));
        out.truncate(limit);
        out
    }

    /// Empties every shard.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("tenant sketch shard poisoned").clear();
        }
    }
}

/// Bounded registry of exact tenant label slots.
///
/// At most `cap` tenants get their own slot (and hence their own metric
/// series); every other tenant resolves to [`TenantScope::OTHER_SLOT`]
/// and shares the `__other__` rollup. Admission is first-come: prime the
/// scope with known heavy hitters before traffic starts, or let the
/// first `cap` observed tenants claim the slots.
pub struct TenantScope {
    cap: usize,
    inner: Mutex<ScopeInner>,
}

struct ScopeInner {
    /// Slot index -> tenant id, in admission order.
    slots: Vec<u64>,
    /// Tenant id -> slot index.
    by_id: HashMap<u64, usize>,
    /// Tenants that resolved to `__other__` at least once.
    folded: u64,
}

impl TenantScope {
    /// Slot index returned for tenants beyond the cap. Callers size their
    /// per-slot metric arrays as `cap() + 1` and use the *last* index for
    /// the rollup; `resolve` returns `cap()` itself for folded tenants.
    pub const OTHER_SLOT: usize = usize::MAX;

    /// Creates a scope with `cap` exact slots (min 1).
    pub fn new(cap: usize) -> TenantScope {
        let cap = cap.max(1);
        TenantScope {
            cap,
            inner: Mutex::new(ScopeInner {
                slots: Vec::with_capacity(cap),
                by_id: HashMap::with_capacity(cap * 2),
                folded: 0,
            }),
        }
    }

    /// Number of exact slots.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Pre-admits `id` to an exact slot, returning its index, or `None`
    /// if the scope is full and `id` is not already admitted. Call
    /// before traffic with the expected heaviest tenants.
    pub fn prime(&self, id: u64) -> Option<usize> {
        let mut inner = self.inner.lock().expect("tenant scope poisoned");
        if let Some(&slot) = inner.by_id.get(&id) {
            return Some(slot);
        }
        if inner.slots.len() >= self.cap {
            return None;
        }
        let slot = inner.slots.len();
        inner.slots.push(id);
        inner.by_id.insert(id, slot);
        Some(slot)
    }

    /// Resolves `id` to its slot, admitting it if a slot is free.
    /// Returns [`TenantScope::OTHER_SLOT`] for folded tenants.
    pub fn resolve(&self, id: u64) -> usize {
        let mut inner = self.inner.lock().expect("tenant scope poisoned");
        if let Some(&slot) = inner.by_id.get(&id) {
            return slot;
        }
        if inner.slots.len() < self.cap {
            let slot = inner.slots.len();
            inner.slots.push(id);
            inner.by_id.insert(id, slot);
            return slot;
        }
        inner.folded += 1;
        TenantScope::OTHER_SLOT
    }

    /// Slot for `id` if it is admitted, without admitting it.
    pub fn lookup(&self, id: u64) -> Option<usize> {
        self.inner
            .lock()
            .expect("tenant scope poisoned")
            .by_id
            .get(&id)
            .copied()
    }

    /// Admitted tenant ids in slot order.
    pub fn admitted(&self) -> Vec<u64> {
        self.inner
            .lock()
            .expect("tenant scope poisoned")
            .slots
            .clone()
    }

    /// Number of resolve calls that fell through to `__other__`.
    pub fn folded(&self) -> u64 {
        self.inner.lock().expect("tenant scope poisoned").folded
    }
}

/// Sanitised tenant label: `tenant-<id>` for admitted tenants,
/// [`OTHER_TENANT`] for the rollup. Generating the label (rather than
/// accepting caller strings) keeps ids printable; free-form names still
/// pass through the Prometheus writer's escaping when callers attach
/// their own.
pub fn tenant_label(slot_tenant: Option<u64>) -> String {
    match slot_tenant {
        Some(id) => format!("tenant-{id}"),
        None => OTHER_TENANT.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_saving_exact_under_capacity() {
        let mut s = SpaceSaving::new(8);
        for id in 0..5u64 {
            for _ in 0..=id {
                s.observe(id);
            }
        }
        let top = s.top();
        assert_eq!(top.len(), 5);
        assert_eq!(
            top[0],
            HeavyHitter {
                id: 4,
                count: 5,
                error: 0
            }
        );
        assert_eq!(
            top[4],
            HeavyHitter {
                id: 0,
                count: 1,
                error: 0
            }
        );
        // Under capacity every count is exact.
        assert!(top.iter().all(|e| e.error == 0));
    }

    #[test]
    fn space_saving_keeps_heavy_hitters_over_capacity() {
        let mut s = SpaceSaving::new(4);
        // Two heavy tenants drowned in a sea of singletons.
        for round in 0..100u64 {
            s.observe(1000);
            s.observe(1001);
            s.observe(2000 + round); // 100 distinct light tenants
        }
        let top = s.top();
        assert_eq!(top[0].id, 1000);
        assert_eq!(top[1].id, 1001);
        // Heavy counts are exact-or-overestimates, never lost.
        assert!(top[0].count >= 100);
        assert!(top[1].count >= 100);
        // True count lies within [count - error, count].
        assert!(top[0].count - top[0].error <= 100);
    }

    #[test]
    fn space_saving_weighted_observe() {
        let mut s = SpaceSaving::new(2);
        s.observe_n(7, 50);
        s.observe_n(8, 10);
        s.observe_n(9, 30); // evicts 8 (min), inherits error floor 10
        let top = s.top();
        assert_eq!(
            top[0],
            HeavyHitter {
                id: 7,
                count: 50,
                error: 0
            }
        );
        assert_eq!(
            top[1],
            HeavyHitter {
                id: 9,
                count: 40,
                error: 10
            }
        );
    }

    #[test]
    fn sketch_merge_is_interleaving_independent() {
        use std::sync::Arc;
        // Fixed per-stream workloads; only the thread schedule varies.
        let workload = |stream: usize| -> Vec<(u64, u64)> {
            (0..200u64)
                .map(|i| ((i * 7 + stream as u64 * 13) % 32, 1 + i % 3))
                .collect()
        };
        let run = |spawn_order: &[usize]| -> Vec<HeavyHitter> {
            let sketch = Arc::new(TenantSketch::new(16));
            let mut handles = Vec::new();
            for &stream in spawn_order {
                let sk = Arc::clone(&sketch);
                let ops = workload(stream);
                handles.push(std::thread::spawn(move || {
                    for (id, w) in ops {
                        sk.observe_n(stream, id, w);
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            sketch.merged_top(16)
        };
        let a = run(&[0, 1, 2, 3]);
        let b = run(&[3, 2, 1, 0]);
        let c = run(&[2, 0, 3, 1]);
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert!(!a.is_empty());
    }

    #[test]
    fn scope_folds_beyond_cap() {
        let scope = TenantScope::new(3);
        assert_eq!(scope.resolve(10), 0);
        assert_eq!(scope.resolve(20), 1);
        assert_eq!(scope.resolve(30), 2);
        assert_eq!(scope.resolve(40), TenantScope::OTHER_SLOT);
        assert_eq!(scope.resolve(10), 0); // stable for admitted ids
        assert_eq!(scope.folded(), 1);
        assert_eq!(scope.admitted(), vec![10, 20, 30]);
        assert_eq!(scope.lookup(40), None);
    }

    #[test]
    fn scope_priming_reserves_slots() {
        let scope = TenantScope::new(2);
        assert_eq!(scope.prime(5), Some(0));
        assert_eq!(scope.prime(5), Some(0)); // idempotent
        assert_eq!(scope.prime(6), Some(1));
        assert_eq!(scope.prime(7), None); // full
                                          // Primed tenants resolve to their reserved slots; others fold.
        assert_eq!(scope.resolve(6), 1);
        assert_eq!(scope.resolve(7), TenantScope::OTHER_SLOT);
    }

    #[test]
    fn tenant_labels() {
        assert_eq!(tenant_label(Some(42)), "tenant-42");
        assert_eq!(tenant_label(None), OTHER_TENANT);
    }
}
