//! The encrypted-memory *library*: the paper's counter-light scheme
//! applied to real bytes over pluggable backing stores.
//!
//! Everything else in this workspace simulates the scheme's *timing*;
//! this crate runs its *data path* for real. [`EncryptionLayer`] wraps
//! any [`StoreBackend`] and exposes the plaintext-facing [`MemoryAdt`]
//! (batch reads and writes of 64-byte blocks), while the store only
//! ever sees:
//!
//! * **Data words** — the [Synergy 10-chip layout](clme_ecc::layout):
//!   8 ciphertext lanes, a 64-bit MAC lane, and the parity lane with the
//!   EncryptionMetadata word riding it (Section IV-C), so a block's
//!   counter decodes from the block itself with zero extra traffic.
//! * **Counter words** — one [split-counter block](clme_counters::split)
//!   per 64-block page, sealed with a keyed MAC that also binds the
//!   page's integrity-tree leaf count.
//! * **Tree-node words** — an 8-ary counter tree over the pages whose
//!   root lives *inside the layer* ("on chip"), never in the store, so
//!   replaying stale metadata is detected.
//!
//! Blocks encrypt under AES-CTR one-time pads keyed by (address,
//! counter) with a Carter–Wegman MAC; a block whose counter passes the
//! saturation point permanently switches to AES-XTS with a SHA-3 MAC —
//! the paper's counterless fallback. Every read verifies the chain
//! (tree path → counter block → metadata word → block MAC), trusting
//! the tree nodes it verified before as the paper's on-chip metadata
//! cache does, and returns a typed [`IntegrityError`] naming the
//! failure class on any mismatch. [`EncryptionLayer::rekey`] re-encrypts every live block
//! and reseals all metadata under a fresh master key while the layer
//! stays online.
//!
//! The layer is `Send + Sync`: pages shard across interior locks, so
//! disjoint regions proceed in parallel while a page roll (64 blocks
//! re-encrypted at once) stays atomic.
//!
//! # Quickstart
//!
//! ```
//! use clme_mem::{EncryptionLayer, MemoryAdt, VecBackend};
//!
//! let backend = VecBackend::for_blocks(256);
//! let mem = EncryptionLayer::new(backend, 256, [7u8; 32]).unwrap();
//! mem.batch_write(&[(3, [0xAB; 64])]).unwrap();
//! assert_eq!(mem.batch_read(&[3]).unwrap()[0], [0xAB; 64]);
//! ```

pub mod adt;
pub mod cache;
pub mod dump;
pub mod error;
pub mod flight;
pub mod geometry;
pub mod layer;
pub mod metrics;
mod observe;
pub mod store;
pub mod tenant;

pub use adt::{Block, MemoryAdt, BLOCK_BYTES};
pub use cache::ClockCache;
pub use dump::{write_atomic, DumpBundle, DumpContext, DumpCounts, DUMP_SCHEMA};
pub use error::{IntegrityError, MemError, TamperClass};
pub use flight::{FlightKind, FLIGHT_CAPACITY, FLIGHT_KINDS};
pub use geometry::{Geometry, Region, NODE_ARITY, PAGE_BLOCKS};
pub use layer::{EncryptionLayer, LayerOptions, RekeyReport, DEFAULT_CACHE_PAGES};
pub use metrics::{
    CacheCause, CacheStats, MemMetrics, MemMetricsSnapshot, MemOp, MemStage, OpStats, RekeyStats,
    StoreMetrics, StoreStats, TreeStats, CACHE_CAUSES, MEM_OPS, MEM_STAGES,
};
pub use observe::{BURST_FLOOR, REKEY_FLIGHT_EVERY, SAMPLE_EVERY, SLOW_LOCK_NS};
pub use store::{FileBackend, StoreBackend, StoredWord, VecBackend, WORD_BYTES};
pub use tenant::{
    SloRow, SloSpec, TenantRanges, TenantRow, TenantServe, TenantSnapshot, TenantTelemetry,
    BURN_WINDOWS, DEFAULT_TAIL_CUTOFF_NS, DEFAULT_TENANT_TOP,
};
