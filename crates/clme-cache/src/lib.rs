//! CPU cache substrate: set-associative caches, MSHRs, prefetchers, and
//! the three-level hierarchy of the paper's Table I.
//!
//! * [`set_assoc`] — a generic set-associative, write-back/write-allocate
//!   cache with true-LRU replacement; also used for the 64 KB counter
//!   cache in `clme-counters`.
//! * [`mshr`] — miss-status-holding registers bounding outstanding misses
//!   (the memory-level-parallelism cap of the interval core model).
//! * [`prefetch`] — next-line prefetchers (L1/L2) and stride prefetchers
//!   of degree 1 (L1) and 2 (L2), as configured in Table I.
//! * [`hierarchy`] — per-core L1d + L2 with a shared LLC, returning per
//!   access where it hit, which blocks must be fetched from memory, and
//!   which dirty blocks were written back.
//!
//! # Examples
//!
//! ```
//! use clme_cache::set_assoc::SetAssocCache;
//!
//! let mut cache = SetAssocCache::new(4, 2);
//! let victim = cache.access(0x10, false).unwrap_err(); // cold miss
//! cache.fill_victim(0x10, false, victim);
//! assert!(cache.access(0x10, false).is_ok()); // hit
//! ```

pub mod hierarchy;
pub mod mshr;
pub mod prefetch;
pub mod set_assoc;

pub use hierarchy::{CacheAccessResult, HitLevel, MemorySystemCaches};
pub use set_assoc::SetAssocCache;
