//! A lock-free flight recorder: the always-on black box.
//!
//! [`TraceRing`](crate::TraceRing) is `&mut`-threaded and belongs to one
//! simulation loop; the flight recorder is its production twin, shaped
//! like [`ShardedHistogram`](crate::ShardedHistogram): a bounded ring of
//! compact structured events striped across cache-line-aligned per-thread
//! shards under the [registry's stripe rule](crate::registry), recorded
//! with a handful of relaxed atomics and no clock reads,
//! merged into one deterministic oldest-first timeline only when a
//! [`snapshot`](FlightRing::snapshot) is taken (normally: post-mortem,
//! after an integrity violation).
//!
//! Events are deliberately opaque here — a `kind` discriminant plus two
//! `u64` payload words — so the crate stays independent of what is being
//! recorded; `clme-mem` defines the kind vocabulary and renders it.
//!
//! # Examples
//!
//! ```
//! use clme_obs::flight::FlightRing;
//!
//! let ring = FlightRing::new(64);
//! ring.record(1, 7, 0);
//! ring.record(2, 7, 1);
//! let snap = ring.snapshot();
//! assert_eq!(snap.events.len(), 2);
//! assert!(snap.events[0].seq < snap.events[1].seq);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

use crate::registry::{stripe, stripe_add, STRIPES};

/// Sentinel sequence number marking a slot empty or mid-write.
const SEQ_EMPTY: u64 = u64::MAX;

/// One recorded event, as returned by [`FlightRing::snapshot`].
///
/// `seq` is a global order stamp (claimed from one relaxed counter at
/// record time, *not* a clock), so merged timelines sort into the exact
/// record order without any wall-time nondeterminism.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Global record-order stamp (0 = first event ever recorded).
    pub seq: u64,
    /// Caller-defined discriminant (what happened).
    pub kind: u16,
    /// First payload word (typically a page id or address).
    pub a: u64,
    /// Second payload word (typically a count, class, or outcome).
    pub b: u64,
}

/// One event slot. The writer publishes `seq` last (release) and the
/// snapshot reader validates it seqlock-style: load `seq`, read the
/// payload, re-load `seq` — a slot that changed mid-read is skipped
/// rather than surfaced torn.
struct FlightSlot {
    seq: AtomicU64,
    kind: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

impl FlightSlot {
    fn new() -> FlightSlot {
        FlightSlot {
            seq: AtomicU64::new(SEQ_EMPTY),
            kind: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        }
    }
}

/// One recorder stripe, padded to its own cache lines so two threads
/// recording into adjacent shards never false-share the cursors.
#[repr(align(128))]
struct FlightShard {
    /// Total events ever recorded into this shard (wraps over `slots`).
    cursor: AtomicU64,
    slots: Box<[FlightSlot]>,
}

impl FlightShard {
    fn new(per_shard: usize) -> FlightShard {
        FlightShard {
            cursor: AtomicU64::new(0),
            slots: (0..per_shard).map(|_| FlightSlot::new()).collect(),
        }
    }
}

/// A merged, ordered view of everything the ring currently retains.
#[derive(Clone, Debug, Default)]
pub struct FlightSnapshot {
    /// Retained events, sorted by `seq` ascending (oldest first).
    pub events: Vec<FlightEvent>,
    /// Events overwritten because their shard was full.
    pub dropped: u64,
    /// Total events ever recorded.
    pub recorded: u64,
    /// Maximum events the ring retains across all shards.
    pub capacity: usize,
}

/// A bounded, lock-free, per-thread-sharded event ring.
///
/// Recording is allocation-free and clock-free: one relaxed `fetch_add`
/// on the global sequence, which orders the merged timeline, then a
/// shard-cursor bump under the stripe rule (a plain load and store for
/// a thread that owns its shard), three relaxed payload stores and one
/// release `seq` store — the same cost class as a few
/// [`Counter`](crate::Counter) bumps, cheap enough to live on the
/// `clme-mem` hot paths under the 3% telemetry budget.
pub struct FlightRing {
    shards: Box<[FlightShard]>,
    per_shard: usize,
    seq: AtomicU64,
}

impl FlightRing {
    /// Creates a ring retaining at least `capacity` events (rounded up to
    /// a multiple of the eight thread shards, min one slot per shard).
    pub fn new(capacity: usize) -> FlightRing {
        let per_shard = capacity.div_ceil(STRIPES).max(1);
        FlightRing {
            shards: (0..STRIPES).map(|_| FlightShard::new(per_shard)).collect(),
            per_shard,
            seq: AtomicU64::new(0),
        }
    }

    /// Maximum events retained across all shards.
    pub fn capacity(&self) -> usize {
        self.per_shard * STRIPES
    }

    /// Records one event. Lock-free, allocation-free, no clock read.
    #[inline]
    pub fn record(&self, kind: u16, a: u64, b: u64) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let (i, owned) = stripe();
        let shard = &self.shards[i];
        let at = stripe_add(&shard.cursor, 1, owned) % self.per_shard as u64;
        let slot = &shard.slots[at as usize];
        // Invalidate first so a concurrent snapshot never pairs the new
        // payload with the old sequence stamp.
        slot.seq.store(SEQ_EMPTY, Ordering::Release);
        slot.kind.store(kind as u64, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.seq.store(seq, Ordering::Release);
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Merges every shard into one timeline sorted oldest-first by the
    /// global sequence stamp. Safe to take while recorders are live: a
    /// slot being overwritten mid-read fails its seqlock check and is
    /// skipped (it would have been evicted moments later anyway).
    pub fn snapshot(&self) -> FlightSnapshot {
        let mut events = Vec::with_capacity(self.capacity());
        let mut dropped = 0u64;
        for shard in self.shards.iter() {
            let pushed = shard.cursor.load(Ordering::Relaxed);
            dropped += pushed.saturating_sub(self.per_shard as u64);
            for slot in shard.slots.iter() {
                let before = slot.seq.load(Ordering::Acquire);
                if before == SEQ_EMPTY {
                    continue;
                }
                let kind = slot.kind.load(Ordering::Relaxed);
                let a = slot.a.load(Ordering::Relaxed);
                let b = slot.b.load(Ordering::Relaxed);
                if slot.seq.load(Ordering::Acquire) != before {
                    continue;
                }
                events.push(FlightEvent {
                    seq: before,
                    kind: kind as u16,
                    a,
                    b,
                });
            }
        }
        events.sort_unstable_by_key(|e| e.seq);
        FlightSnapshot {
            events,
            dropped,
            recorded: self.recorded(),
            capacity: self.capacity(),
        }
    }

    /// Empties the ring (capacity is kept). Callers must be quiescent —
    /// events recorded concurrently with a clear may survive it.
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard.cursor.store(0, Ordering::Relaxed);
            for slot in shard.slots.iter() {
                slot.seq.store(SEQ_EMPTY, Ordering::Release);
            }
        }
        self.seq.store(0, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for FlightRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRing")
            .field("capacity", &self.capacity())
            .field("recorded", &self.recorded())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_single_thread() {
        // One thread records into one shard, so size the ring to keep
        // per_shard (capacity / STRIPES) above the event count.
        let ring = FlightRing::new(128);
        for i in 0..10u64 {
            ring.record(3, i, i * 2);
        }
        let snap = ring.snapshot();
        assert_eq!(snap.events.len(), 10);
        assert_eq!(snap.dropped, 0);
        assert_eq!(snap.recorded, 10);
        let payload: Vec<(u64, u64, u64)> = snap.events.iter().map(|e| (e.seq, e.a, e.b)).collect();
        let want: Vec<(u64, u64, u64)> = (0..10).map(|i| (i, i, i * 2)).collect();
        assert_eq!(payload, want, "timeline sorts into record order");
    }

    #[test]
    fn wraps_and_counts_dropped() {
        // One thread lands on one shard, so its view wraps at per_shard.
        let ring = FlightRing::new(8); // per_shard = 1
        for i in 0..5u64 {
            ring.record(1, i, 0);
        }
        let snap = ring.snapshot();
        assert_eq!(snap.events.len(), 1, "single shard retains one slot");
        assert_eq!(snap.events[0].a, 4, "the newest survives");
        assert_eq!(snap.dropped, 4);
        assert_eq!(snap.recorded, 5);
    }

    #[test]
    fn capacity_floor_is_one_slot_per_shard() {
        let ring = FlightRing::new(0);
        assert_eq!(ring.capacity(), STRIPES);
        ring.record(9, 1, 2);
        assert_eq!(ring.snapshot().events.len(), 1);
    }

    #[test]
    fn clear_keeps_capacity() {
        let ring = FlightRing::new(32);
        ring.record(1, 1, 1);
        ring.record(2, 2, 2);
        ring.clear();
        let snap = ring.snapshot();
        assert!(snap.events.is_empty());
        assert_eq!(snap.dropped, 0);
        assert_eq!(snap.capacity, 32);
        ring.record(7, 7, 7);
        assert_eq!(ring.snapshot().events[0].kind, 7);
    }

    #[test]
    fn concurrent_recording_loses_nothing_under_capacity() {
        // 16 threads outnumber the owned shards, so several share the
        // last one. Size every shard for all events: which threads own
        // a shard depends on what else ran in this process first.
        for threads in [4u64, 16] {
            let ring = FlightRing::new(threads as usize * 100 * STRIPES);
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let ring = &ring;
                    scope.spawn(move || {
                        for i in 0..100u64 {
                            ring.record(t as u16, t, i);
                        }
                    });
                }
            });
            let snap = ring.snapshot();
            assert_eq!(snap.recorded, threads * 100);
            assert_eq!(snap.dropped, 0);
            assert_eq!(snap.events.len() as u64, threads * 100);
            // Sequence stamps are unique and the sort is total, so the
            // merged timeline is deterministic given the same per-thread
            // payloads.
            for pair in snap.events.windows(2) {
                assert!(pair[0].seq < pair[1].seq);
            }
            // Each thread's own events keep their program order.
            for t in 0..threads {
                let bs: Vec<u64> = snap
                    .events
                    .iter()
                    .filter(|e| e.a == t)
                    .map(|e| e.b)
                    .collect();
                let want: Vec<u64> = (0..100).collect();
                assert_eq!(bs, want, "thread {t} subsequence is in program order");
            }
        }
    }
}
