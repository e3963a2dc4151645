//! A bounded ring buffer of trace events.
//!
//! Traces of long runs would otherwise grow without bound; the ring keeps
//! the most recent `capacity` events and counts how many were dropped, so
//! the Chrome export always stays at a predictable size.

use crate::counters::{Component, EventKind};
use clme_types::{Time, TimeDelta};

/// One observed event: when, where, what, which address, how long.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time the event began.
    pub at: Time,
    /// Component that observed it.
    pub component: Component,
    /// What happened.
    pub event: EventKind,
    /// Block address involved (0 when not address-shaped).
    pub addr: u64,
    /// Duration attributed to the event ([`TimeDelta::ZERO`] for instants).
    pub latency: TimeDelta,
}

/// Bounded ring of [`TraceEvent`]s; overwrites the oldest when full.
///
/// # Examples
///
/// ```
/// use clme_obs::{Component, EventKind, TraceEvent, TraceRing};
/// use clme_types::{Time, TimeDelta};
///
/// let mut ring = TraceRing::new(2);
/// for i in 0..3 {
///     ring.push(TraceEvent {
///         at: Time::from_picos(i),
///         component: Component::Dram,
///         event: EventKind::RowHit,
///         addr: i,
///         latency: TimeDelta::ZERO,
///     });
/// }
/// let kept: Vec<u64> = ring.iter().map(|e| e.addr).collect();
/// assert_eq!(kept, vec![1, 2]); // oldest event dropped
/// assert_eq!(ring.dropped(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct TraceRing {
    slots: Vec<TraceEvent>,
    capacity: usize,
    /// Index of the next slot to write (wraps).
    head: usize,
    dropped: u64,
}

impl TraceRing {
    /// Creates a ring holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> TraceRing {
        let capacity = capacity.max(1);
        TraceRing {
            slots: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            dropped: 0,
        }
    }

    /// Appends an event, evicting the oldest when full.
    #[inline]
    pub fn push(&mut self, event: TraceEvent) {
        if self.slots.len() < self.capacity {
            self.slots.push(event);
        } else {
            self.slots[self.head] = event;
            self.dropped += 1;
        }
        self.head = (self.head + 1) % self.capacity;
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Maximum number of events the ring retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates the retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> + '_ {
        let split = if self.slots.len() < self.capacity {
            0
        } else {
            self.head
        };
        self.slots[split..].iter().chain(self.slots[..split].iter())
    }

    /// Empties the ring (capacity is kept).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.head = 0;
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u64) -> TraceEvent {
        TraceEvent {
            at: Time::from_picos(i * 10),
            component: Component::Engine,
            event: EventKind::ReadMiss,
            addr: i,
            latency: TimeDelta::from_picos(i),
        }
    }

    #[test]
    fn fills_then_wraps_oldest_first() {
        let mut ring = TraceRing::new(4);
        for i in 0..4 {
            ring.push(ev(i));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 0);
        let order: Vec<u64> = ring.iter().map(|e| e.addr).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);

        // Push 3 more: 0, 1, 2 are overwritten.
        for i in 4..7 {
            ring.push(ev(i));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 3);
        let order: Vec<u64> = ring.iter().map(|e| e.addr).collect();
        assert_eq!(
            order,
            vec![3, 4, 5, 6],
            "iteration stays oldest-first across the wrap"
        );
    }

    #[test]
    fn wraps_many_times() {
        let mut ring = TraceRing::new(3);
        for i in 0..31 {
            ring.push(ev(i));
        }
        assert_eq!(ring.dropped(), 28);
        let order: Vec<u64> = ring.iter().map(|e| e.addr).collect();
        assert_eq!(order, vec![28, 29, 30]);
    }

    #[test]
    fn capacity_floor_is_one() {
        let mut ring = TraceRing::new(0);
        ring.push(ev(1));
        ring.push(ev(2));
        assert_eq!(ring.capacity(), 1);
        assert_eq!(ring.iter().count(), 1);
        assert_eq!(ring.iter().next().unwrap().addr, 2);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut ring = TraceRing::new(2);
        ring.push(ev(1));
        ring.push(ev(2));
        ring.push(ev(3));
        ring.clear();
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 0);
        ring.push(ev(9));
        assert_eq!(ring.iter().next().unwrap().addr, 9);
    }
}
