//! Counter storage and integrity substrates for counter-mode memory
//! encryption (paper Section II-B/II-C).
//!
//! * [`split`] — Split Counters: each 64-byte counter block packs one
//!   major counter plus 64 per-block minor counters, covering a 4 KB page
//!   of data; minor overflow rolls the major counter and forces a page
//!   re-encryption. This is the design that brings counter storage down
//!   to ~1.6% of memory.
//! * [`tree`] — the 8-ary counter integrity tree with an on-chip root:
//!   writebacks update a counter on every level; replaying any in-memory
//!   counter is detected because the root cannot be replayed.
//! * [`memo`] — the RMCC memoization table: 128 memoized counter-value
//!   AES results plus the counter-advance update policy that steers
//!   writebacks onto memoized values, giving ≥ 90% hit rates even for
//!   irregular workloads.
//! * [`layout`] — address-space layout: where counter blocks and tree
//!   levels live in physical memory, so the timing model issues real
//!   DRAM addresses for metadata traffic.
//!
//! # Examples
//!
//! ```
//! use clme_counters::split::CounterBlock;
//!
//! let mut counters = CounterBlock::new();
//! let outcome = counters.increment(3);
//! assert_eq!(outcome.new_counter, 1);
//! assert!(outcome.page_reencryption.is_none());
//! ```

pub mod layout;
pub mod memo;
pub mod split;
pub mod tree;

pub use memo::MemoTable;
pub use split::CounterBlock;
pub use tree::IntegrityTree;
