//! A sharded CLOCK cache — the one eviction policy both caching layers
//! in this crate share.
//!
//! The [`EncryptionLayer`](crate::EncryptionLayer) uses it to hold
//! verified plaintext page images (the read-side verified-page cache)
//! and the [`FileBackend`](crate::FileBackend) uses it for raw file
//! pages, so "how do we decide what stays resident" has exactly one
//! answer in this crate.
//!
//! Design: keys shard by `key % shards`, each shard owning an
//! independent `Mutex` around a fixed slab of slots, a `HashMap` index,
//! and a CLOCK hand. There is no global lock and no cross-shard
//! balancing — a shard evicts only when *its* slab is full, which keeps
//! insertion O(slots-per-shard) worst case and O(1) amortised. CLOCK
//! approximates LRU with one referenced bit per slot: lookups set the
//! bit, the sweeping hand clears it, and a slot is reclaimed when the
//! hand finds the bit already clear.

use clme_types::hash::BlockHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::{Mutex, PoisonError};

struct Slot<V> {
    key: u64,
    value: V,
    referenced: bool,
}

struct ClockShard<V> {
    /// Fixed-capacity slab; `None` slots are free.
    slots: Vec<Option<Slot<V>>>,
    /// key → slab position. Probed, never iterated, and bounded by the
    /// slab, so [`BlockHasher`] picks its buckets.
    index: HashMap<u64, usize, BuildHasherDefault<BlockHasher>>,
    /// CLOCK hand: next slab position the eviction sweep examines.
    hand: usize,
}

impl<V> ClockShard<V> {
    fn new(capacity: usize) -> ClockShard<V> {
        let mut slots = Vec::with_capacity(capacity);
        slots.resize_with(capacity, || None);
        ClockShard {
            slots,
            index: HashMap::with_capacity_and_hasher(capacity, Default::default()),
            hand: 0,
        }
    }

    /// Finds a free slot, evicting via the CLOCK sweep if the slab is
    /// full. Returns `(position, evicted_key)`.
    fn claim(&mut self) -> (usize, Option<u64>) {
        if self.index.len() < self.slots.len() {
            // A free slot exists; the hand sweep will find it (free
            // slots never have their referenced bit set).
            for _ in 0..self.slots.len() {
                let pos = self.hand;
                self.hand = (self.hand + 1) % self.slots.len();
                if self.slots[pos].is_none() {
                    return (pos, None);
                }
            }
            unreachable!("index len < slab len implies a free slot");
        }
        // Full: second-chance sweep. Terminates within two revolutions
        // because the first pass clears every referenced bit it sees.
        loop {
            let pos = self.hand;
            self.hand = (self.hand + 1) % self.slots.len();
            let slot = self.slots[pos].as_mut().expect("full slab");
            if slot.referenced {
                slot.referenced = false;
            } else {
                let key = slot.key;
                self.index.remove(&key);
                self.slots[pos] = None;
                return (pos, Some(key));
            }
        }
    }
}

/// A sharded CLOCK cache from `u64` keys to values of type `V`.
///
/// Lookups borrow the cached value under the shard lock, so a caller
/// copies out only what it needs — the encryption layer's read hits
/// copy just the requested blocks, never a whole multi-KB entry.
/// Insertions report whom they evicted, and
/// [`clear`](ClockCache::clear) empties every shard — the hammer the
/// encryption layer swings on rekey and tamper.
pub struct ClockCache<V> {
    shards: Vec<Mutex<ClockShard<V>>>,
}

impl<V> ClockCache<V> {
    /// A cache of `capacity` entries spread over `shards` shards (at
    /// least 1). Each shard gets `capacity / shards` slots and the first
    /// `capacity % shards` shards one more, so the slots add up to
    /// `capacity`; a shard left with none declines every insert.
    pub fn new(shards: usize, capacity: usize) -> ClockCache<V> {
        let shards = shards.max(1);
        let slots = |i: usize| capacity / shards + usize::from(i < capacity % shards);
        ClockCache {
            shards: (0..shards)
                .map(|i| Mutex::new(ClockShard::new(slots(i))))
                .collect(),
        }
    }

    fn shard(&self, key: u64) -> std::sync::MutexGuard<'_, ClockShard<V>> {
        self.shards[(key % self.shards.len() as u64) as usize]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up `key` and applies `f` to the cached value under the
    /// shard lock, marking the slot recently used. `None` on miss.
    pub fn with<R>(&self, key: u64, f: impl FnOnce(&V) -> R) -> Option<R> {
        let mut shard = self.shard(key);
        let pos = *shard.index.get(&key)?;
        let slot = shard.slots[pos].as_mut().expect("indexed slot");
        slot.referenced = true;
        Some(f(&slot.value))
    }

    /// Looks up `key` and applies `f` to the cached value *mutably*
    /// under the shard lock (for merging partial fills into a resident
    /// entry). Marks the slot recently used. `None` on miss.
    pub fn with_mut<R>(&self, key: u64, f: impl FnOnce(&mut V) -> R) -> Option<R> {
        let mut shard = self.shard(key);
        let pos = *shard.index.get(&key)?;
        let slot = shard.slots[pos].as_mut().expect("indexed slot");
        slot.referenced = true;
        Some(f(&mut slot.value))
    }

    /// Inserts (or replaces) `key`. Returns the key this insertion
    /// evicted, if the shard's slab was full — `key` itself when the
    /// shard has no slot and declines it.
    pub fn insert(&self, key: u64, value: V) -> Option<u64> {
        let mut shard = self.shard(key);
        if shard.slots.is_empty() {
            return Some(key);
        }
        if let Some(&pos) = shard.index.get(&key) {
            let slot = shard.slots[pos].as_mut().expect("indexed slot");
            slot.value = value;
            slot.referenced = true;
            return None;
        }
        let (pos, evicted) = shard.claim();
        shard.slots[pos] = Some(Slot {
            key,
            value,
            referenced: true,
        });
        shard.index.insert(key, pos);
        evicted
    }

    /// Drops `key` if resident. Returns whether an entry was removed.
    pub fn remove(&self, key: u64) -> bool {
        let mut shard = self.shard(key);
        match shard.index.remove(&key) {
            Some(pos) => {
                shard.slots[pos] = None;
                true
            }
            None => false,
        }
    }

    /// Empties every shard. Returns how many entries were dropped.
    pub fn clear(&self) -> u64 {
        let mut dropped = 0u64;
        for shard in &self.shards {
            let mut shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            dropped += shard.index.len() as u64;
            shard.index.clear();
            for slot in &mut shard.slots {
                *slot = None;
            }
            shard.hand = 0;
        }
        dropped
    }

    /// Resident entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).index.len())
            .sum()
    }

    /// True when no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<V> std::fmt::Debug for ClockCache<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClockCache")
            .field("shards", &self.shards.len())
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_remove_round_trip() {
        let cache: ClockCache<String> = ClockCache::new(4, 16);
        assert!(cache.is_empty());
        assert_eq!(cache.insert(7, "seven".into()), None);
        assert_eq!(cache.with(7, |v| v.clone()), Some("seven".into()));
        assert_eq!(cache.with(8, |v| v.clone()), None);
        assert_eq!(cache.len(), 1);
        assert!(cache.remove(7));
        assert!(!cache.remove(7));
        assert!(cache.is_empty());
    }

    #[test]
    fn reinsert_replaces_in_place() {
        let cache: ClockCache<u32> = ClockCache::new(1, 2);
        cache.insert(1, 10);
        assert_eq!(cache.insert(1, 11), None);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.with(1, |v| *v), Some(11));
    }

    #[test]
    fn with_mut_mutates_in_place() {
        let cache: ClockCache<Vec<u32>> = ClockCache::new(2, 4);
        cache.insert(5, vec![1]);
        cache.with_mut(5, |v| v.push(2));
        assert_eq!(cache.with(5, |v| v.clone()), Some(vec![1, 2]));
    }

    #[test]
    fn full_shard_evicts_and_reports_victim() {
        // Single shard, two slots: the third insert must evict.
        let cache: ClockCache<u64> = ClockCache::new(1, 2);
        assert_eq!(cache.insert(1, 0), None);
        assert_eq!(cache.insert(2, 0), None);
        let evicted = cache.insert(3, 0).expect("full slab must evict");
        assert!(evicted == 1 || evicted == 2);
        assert_eq!(cache.len(), 2);
        assert!(cache.with(evicted, |_| ()).is_none());
        assert!(cache.with(3, |_| ()).is_some());
    }

    #[test]
    fn clock_gives_referenced_entries_a_second_chance() {
        let cache: ClockCache<u64> = ClockCache::new(1, 2);
        cache.insert(1, 0);
        cache.insert(2, 0);
        // Full slab, both referenced: the sweep clears both bits on its
        // first revolution and takes slot 0 (key 1) on the second.
        assert_eq!(cache.insert(3, 0), Some(1));
        // Now key 3 is referenced (fresh insert) and key 2 is not: the
        // hand lands on the unreferenced key 2 and key 3 survives.
        assert_eq!(cache.insert(4, 0), Some(2));
        assert!(cache.with(3, |_| ()).is_some());
        assert!(cache.with(4, |_| ()).is_some());
    }

    #[test]
    fn clear_empties_all_shards() {
        let cache: ClockCache<u8> = ClockCache::new(4, 8);
        for k in 0..8u64 {
            cache.insert(k, k as u8);
        }
        assert_eq!(cache.len(), 8);
        assert_eq!(cache.clear(), 8);
        assert!(cache.is_empty());
        assert_eq!(cache.clear(), 0);
        // Usable after clearing.
        cache.insert(3, 3);
        assert_eq!(cache.with(3, |v| *v), Some(3));
    }

    #[test]
    fn keys_spread_across_shards() {
        let cache: ClockCache<u8> = ClockCache::new(4, 4);
        // One key per shard: no shard is full, so no evictions.
        for k in 0..4u64 {
            assert_eq!(cache.insert(k, 0), None);
        }
        assert_eq!(cache.len(), 4);
        // A fifth key landing in shard 0 (4 % 4 == 0) evicts key 0.
        assert_eq!(cache.insert(4, 0), Some(0));
    }

    #[test]
    fn fewer_pages_than_shards_keeps_exactly_the_capacity() {
        // Four slots over sixteen shards: shards 0-3 hold one page each,
        // and the other twelve decline, displacing the new key at once.
        let cache: ClockCache<u8> = ClockCache::new(16, 4);
        for k in 0..4u64 {
            assert_eq!(cache.insert(k, 0), None);
        }
        for k in 4..16u64 {
            assert_eq!(cache.insert(k, 0), Some(k), "shard {k} has no slot");
            assert!(cache.with(k, |_| ()).is_none());
        }
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.insert(16, 0), Some(0), "shard 0 is full");
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn uneven_split_gives_the_remainder_to_the_first_shards() {
        // Six slots over four shards: 2, 2, 1, 1.
        let cache: ClockCache<u8> = ClockCache::new(4, 6);
        let evicted: Vec<Option<u64>> = (0..8u64).map(|k| cache.insert(k, 0)).collect();
        assert_eq!(
            evicted,
            [None, None, None, None, None, None, Some(2), Some(3)]
        );
        assert_eq!(cache.len(), 6);
    }
}
