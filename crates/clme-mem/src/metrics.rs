//! Always-on production telemetry for the encryption layer.
//!
//! [`MemMetrics`] is built from the atomic primitives in
//! [`clme_obs::registry`]: relaxed counters, gauges, and per-thread
//! sharded log2 histograms, so recording costs a handful of relaxed
//! RMWs — never a lock, never an allocation. What it watches:
//!
//! * **Lock contention** — wait- and hold-time histograms per page-shard
//!   lock.
//! * **Page-visit stages** — per-block latencies of the six
//!   [`MemStage`]s (lock wait, tree walk, store read, MAC verify, pad
//!   generation, metadata commit), split by operation class. A stage
//!   measured once for several blocks records each block's share.
//! * **Store behaviour** — [`StoreMetrics`]: word traffic, the file
//!   backend's page-cache hit/miss/eviction counts, and file I/O ops.
//! * **Ciphertext-write observation counters** — per-page counts of how
//!   many ciphertexts an adversary watching the store has seen for that
//!   page (CipherGuard's leakage budget, here as a first-class metric).
//! * **Rekey progress and key age** — sweep progress gauges, key dwell
//!   time, and the dwell of the key just retired (Security Through
//!   Amnesia's lifetime concern, live instead of test-only).
//!
//! This module registers the handles and reads them back; it records
//! nothing itself. There is one observation path: each batch call
//! fills one visit record, and the layer's observer (`observe.rs`)
//! folds it into these handles once per call, writing them directly,
//! and feeds the per-tenant tables, the flight ring and the span
//! tracer. Each observer method is the one place its event is
//! recorded. Every count is exact. One call in `SAMPLE_EVERY` per
//! thread and op kind is sampled, and only a sampled call feeds the
//! latency, stage, lock and fan-in histograms.
//! [`MemStage`] is the crate's one stage list: the same enum indexes
//! these stage histograms and the per-tenant blame tables, and names
//! each stage once per vocabulary.
//!
//! Compiling the crate with the `telemetry-off` feature swaps the
//! observer for a twin that records nothing (the layer's snapshot and
//! exposition come back empty) and [`StoreMetrics`] for a zero-sized
//! twin, since backends record their own counters. The `ci.sh` overhead
//! gate benches both builds and fails when the always-on default costs
//! more than 3% throughput.
//!
//! Snapshot types ([`MemMetricsSnapshot`] and friends) serve both modes
//! so callers (the `clme mem --stats` pipeline) are feature-agnostic.

use clme_obs::registry::{Counter, Gauge, Registry, Sample, ShardedHistogram};
use clme_obs::Log2Histogram;
use clme_types::json::JsonValue;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Operation classes the per-op histograms split on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MemOp {
    /// One block read (per-block latency inside any read call).
    #[default]
    Read = 0,
    /// One block written (per-block latency inside any write call).
    Write = 1,
    /// A whole `batch_read`/`batch_write` call, any size.
    Batch = 2,
}

/// Number of [`MemOp`] classes.
pub const MEM_OPS: usize = 3;

impl MemOp {
    /// All classes, index order.
    pub const ALL: [MemOp; MEM_OPS] = [MemOp::Read, MemOp::Write, MemOp::Batch];

    /// Stable lower-case name (label value in the Prometheus output).
    pub fn name(self) -> &'static str {
        match self {
            MemOp::Read => "read",
            MemOp::Write => "write",
            MemOp::Batch => "batch",
        }
    }
}

/// The stages of a page visit the layer times: the one stage list of
/// the per-op stage histograms and the per-tenant blame tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemStage {
    /// Shard-lock wait — the noisy-neighbor signature.
    Lock = 0,
    /// Root → tree path → counter word verification.
    TreeWalk = 1,
    /// Backing-store word reads, with their ECC decode.
    Store = 2,
    /// Data-block MAC check (reads; write-side only on page rolls).
    MacVerify = 3,
    /// AES pad generation + encrypt (CTR) or XTS work.
    PadGen = 4,
    /// Metadata bump + reseal + write-back.
    Commit = 5,
}

/// Number of [`MemStage`]s.
pub const MEM_STAGES: usize = 6;

impl MemStage {
    /// All stages, index order.
    pub const ALL: [MemStage; MEM_STAGES] = [
        MemStage::Lock,
        MemStage::TreeWalk,
        MemStage::Store,
        MemStage::MacVerify,
        MemStage::PadGen,
        MemStage::Commit,
    ];

    /// Each stage's two stable names, index order: the metric `stage`
    /// label and the tenant blame key (`cause` label).
    const NAMES: [(&'static str, &'static str); MEM_STAGES] = [
        ("lock", "lock"),
        ("tree-walk", "tree_walk"),
        ("store", "store"),
        ("mac-verify", "mac"),
        ("pad-gen", "pad"),
        ("commit", "commit"),
    ];

    /// Dashed name: the `stage` label of the Prometheus output and the
    /// `ops.<op>.stages` JSON key.
    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize].0
    }

    /// Tenant blame name: the per-tenant `stage_ns` and `tail` JSON key
    /// and `cause` label value.
    pub fn tenant_name(self) -> &'static str {
        Self::NAMES[self as usize].1
    }
}

// ---------------------------------------------------------------------
// Snapshot types (compiled in both modes)
// ---------------------------------------------------------------------

/// Latency summary for one [`MemOp`] class.
#[derive(Clone, Debug, Default)]
pub struct OpStats {
    /// End-to-end latency of the class.
    pub latency: Log2Histogram,
    /// Per-[`MemStage`] latencies inside the class.
    pub stages: [Log2Histogram; MEM_STAGES],
}

/// Rekey-sweep progress and key-lifetime gauges.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RekeyStats {
    /// Completed sweeps.
    pub sweeps: u64,
    /// Pages in the sweep currently running (or the last one).
    pub pages_total: u64,
    /// Pages already re-encrypted by that sweep.
    pub pages_done: u64,
    /// Whether a sweep holds the layer right now.
    pub in_progress: bool,
    /// Milliseconds the current master key has been live.
    pub key_dwell_ms: u64,
    /// Wall milliseconds the last completed sweep took.
    pub last_sweep_ms: u64,
    /// How long the previously retired key had been live, in ms.
    pub last_old_key_dwell_ms: u64,
}

/// Backend counters out of [`StoreMetrics`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Stored words read.
    pub words_read: u64,
    /// Stored words written.
    pub words_written: u64,
    /// File-backend page-cache hits, counted on reads: a write updates a
    /// resident page but is neither a hit nor a miss.
    pub page_cache_hits: u64,
    /// File-backend page-cache read misses (each one is a file read).
    pub page_cache_misses: u64,
    /// Cache fills that displaced a different live page (both causes).
    pub page_cache_evictions: u64,
    /// Evictions caused by a read-miss fill (the only fills there are:
    /// the file backend does not allocate on writes).
    pub page_cache_read_fill_evictions: u64,
    /// Positioned file reads issued.
    pub file_reads: u64,
    /// Positioned file writes issued.
    pub file_writes: u64,
}

impl StoreStats {
    /// Page-cache hit rate in `[0, 1]` (0 when the backend has no cache
    /// or saw no traffic).
    pub fn page_cache_hit_rate(&self) -> f64 {
        let total = self.page_cache_hits + self.page_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.page_cache_hits as f64 / total as f64
        }
    }

    // Saturating: a baseline that is not an earlier state of the same
    // backend (snapshot kept across a reattach, or swapped between
    // layers) clamps to zero instead of wrapping.
    fn delta_since(&self, base: &StoreStats) -> StoreStats {
        StoreStats {
            words_read: self.words_read.saturating_sub(base.words_read),
            words_written: self.words_written.saturating_sub(base.words_written),
            page_cache_hits: self.page_cache_hits.saturating_sub(base.page_cache_hits),
            page_cache_misses: self
                .page_cache_misses
                .saturating_sub(base.page_cache_misses),
            page_cache_evictions: self
                .page_cache_evictions
                .saturating_sub(base.page_cache_evictions),
            page_cache_read_fill_evictions: self
                .page_cache_read_fill_evictions
                .saturating_sub(base.page_cache_read_fill_evictions),
            file_reads: self.file_reads.saturating_sub(base.file_reads),
            file_writes: self.file_writes.saturating_sub(base.file_writes),
        }
    }
}

/// Integrity-tree walk counters out of [`MemMetrics`]: where the hops of
/// the read and write-batch tree walks were answered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TreeStats {
    /// Hops answered by a node the layer already trusted (no store read,
    /// no MAC).
    pub nodes_trusted: u64,
    /// Hops that read a node word from the store and checked its MAC.
    pub nodes_verified: u64,
}

impl TreeStats {
    fn delta_since(&self, base: &TreeStats) -> TreeStats {
        TreeStats {
            nodes_trusted: self.nodes_trusted.saturating_sub(base.nodes_trusted),
            nodes_verified: self.nodes_verified.saturating_sub(base.nodes_verified),
        }
    }
}

/// Why the verified-page cache dropped entries. The discriminants are
/// the on-wire `a` codes of [`FlightKind::CachePurge`](crate::FlightKind)
/// events, so they are append-only like the kinds themselves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum CacheCause {
    /// A `batch_write` invalidated the page it mutated.
    Write = 0,
    /// A rekey sweep retired the key every entry was verified under.
    Rekey = 1,
    /// An integrity error made every cached verification suspect.
    Tamper = 2,
    /// The backend's write generation moved without the layer writing —
    /// someone else touched the store underneath us.
    Foreign = 3,
}

/// Number of [`CacheCause`]s.
pub const CACHE_CAUSES: usize = 4;

impl CacheCause {
    /// All causes, discriminant order.
    pub const ALL: [CacheCause; CACHE_CAUSES] = [
        CacheCause::Write,
        CacheCause::Rekey,
        CacheCause::Tamper,
        CacheCause::Foreign,
    ];

    /// Stable lower-case name (label value in the Prometheus output).
    pub fn name(self) -> &'static str {
        match self {
            CacheCause::Write => "write",
            CacheCause::Rekey => "rekey",
            CacheCause::Tamper => "tamper",
            CacheCause::Foreign => "foreign",
        }
    }

    /// The stable flight-event code.
    pub fn code(self) -> u64 {
        self as u64
    }
}

/// Verified-page cache counters out of [`MemMetrics`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Page visits fully served from the cache (no store I/O, no MAC).
    pub hits: u64,
    /// Page visits that reused the verified counter block but had to
    /// fetch some blocks (tree walk skipped, block MACs still checked).
    pub partial_hits: u64,
    /// Page visits that found nothing and ran the full verification.
    pub misses: u64,
    /// Entries inserted or extended after a verified fetch.
    pub fills: u64,
    /// Entries displaced by the CLOCK policy to stay within capacity.
    pub evictions: u64,
    /// Page visits that skipped the cache (layer configured with
    /// `cache_pages = 0`).
    pub bypasses: u64,
    /// Entries dropped, by [`CacheCause`] (discriminant order).
    pub invalidations: [u64; CACHE_CAUSES],
    /// Whole-cache purges forced by a foreign write generation.
    pub foreign_purges: u64,
    /// Pages resident when the snapshot was taken (gauge).
    pub resident_pages: u64,
}

impl CacheStats {
    /// Full-hit rate over all cache-consulting page visits, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.partial_hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Entries dropped for `cause`.
    pub fn invalidated(&self, cause: CacheCause) -> u64 {
        self.invalidations[cause as usize]
    }

    // Saturating for the same reason as [`StoreStats::delta_since`]: a
    // baseline newer than `self` yields zeros, never a wrapped count.
    fn delta_since(&self, base: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(base.hits),
            partial_hits: self.partial_hits.saturating_sub(base.partial_hits),
            misses: self.misses.saturating_sub(base.misses),
            fills: self.fills.saturating_sub(base.fills),
            evictions: self.evictions.saturating_sub(base.evictions),
            bypasses: self.bypasses.saturating_sub(base.bypasses),
            invalidations: core::array::from_fn(|i| {
                self.invalidations[i].saturating_sub(base.invalidations[i])
            }),
            foreign_purges: self.foreign_purges.saturating_sub(base.foreign_purges),
            resident_pages: self.resident_pages,
        }
    }
}

/// A point-in-time copy of every metric [`MemMetrics`] keeps.
///
/// Because every underlying counter and histogram is monotonic, two
/// snapshots bracket the traffic between them: [`delta_since`]
/// ([`MemMetricsSnapshot::delta_since`]) is the `--watch` epoch idiom,
/// exactly like [`Log2Histogram::delta_since`] in the simulator's
/// `SeriesRecorder`.
#[derive(Clone, Debug, Default)]
pub struct MemMetricsSnapshot {
    /// Per-class latency + stage histograms, indexed by [`MemOp`].
    pub ops: Vec<OpStats>,
    /// Per page-shard lock wait-time histograms.
    pub lock_wait: Vec<Log2Histogram>,
    /// Per page-shard lock hold-time histograms.
    pub lock_hold: Vec<Log2Histogram>,
    /// Blocks decrypted for callers.
    pub blocks_read: u64,
    /// Blocks encrypted for callers.
    pub blocks_written: u64,
    /// `batch_read` calls.
    pub batch_reads: u64,
    /// `batch_write` calls.
    pub batch_writes: u64,
    /// Operations that failed integrity verification.
    pub integrity_errors: u64,
    /// Page rolls (whole-page re-encryptions on minor-counter overflow).
    pub page_rolls: u64,
    /// Reads served from counterless (XTS) blocks.
    pub counterless_reads: u64,
    /// Writes landing on counterless (XTS) blocks.
    pub counterless_writes: u64,
    /// Ciphertext writes an observer of the store has seen, total.
    pub observed_writes_total: u64,
    /// Largest per-page observation count.
    pub observed_writes_max: u64,
    /// The page holding that largest count.
    pub observed_writes_max_page: u64,
    /// Rekey progress and key-age gauges.
    pub rekey: RekeyStats,
    /// Verified-page cache counters.
    pub cache: CacheStats,
    /// Integrity-tree walk counters.
    pub tree: TreeStats,
    /// Blocks-per-page-visit distribution of batch reads. Recorded as
    /// raw block counts scaled by 1000, so the histogram's "ns" fields
    /// read directly as block counts.
    pub fanin_read: Log2Histogram,
    /// Blocks-per-page-visit distribution of batch writes (same scale).
    pub fanin_write: Log2Histogram,
    /// Backend counters (zero if the backend keeps none).
    pub store: StoreStats,
}

/// A latency histogram's `--stats-json` object: count, p50/p95/p99,
/// mean and max, in nanoseconds.
pub(crate) fn hist_json(h: &Log2Histogram) -> JsonValue {
    let ns = |ps: u64| ps as f64 / 1000.0;
    JsonValue::Obj(vec![
        ("count".into(), JsonValue::Num(h.count() as f64)),
        ("p50_ns".into(), JsonValue::Num(ns(h.percentile_ps(0.50)))),
        ("p95_ns".into(), JsonValue::Num(ns(h.percentile_ps(0.95)))),
        ("p99_ns".into(), JsonValue::Num(ns(h.percentile_ps(0.99)))),
        ("mean_ns".into(), JsonValue::Num(h.mean_ps() / 1000.0)),
        ("max_ns".into(), JsonValue::Num(ns(h.max_ps()))),
    ])
}

/// Fan-in histograms store blocks × this scale in their picosecond
/// slots, so their "ps" accessors divided by it read as block counts.
pub(crate) const FANIN_SCALE: u64 = 1000;

fn fanin_json(h: &Log2Histogram) -> JsonValue {
    let blocks = |ps: u64| ps as f64 / FANIN_SCALE as f64;
    JsonValue::Obj(vec![
        ("count".into(), JsonValue::Num(h.count() as f64)),
        (
            "p50_blocks".into(),
            JsonValue::Num(blocks(h.percentile_ps(0.50))),
        ),
        (
            "p99_blocks".into(),
            JsonValue::Num(blocks(h.percentile_ps(0.99))),
        ),
        (
            "mean_blocks".into(),
            JsonValue::Num(h.mean_ps() / FANIN_SCALE as f64),
        ),
        ("max_blocks".into(), JsonValue::Num(blocks(h.max_ps()))),
    ])
}

impl MemMetricsSnapshot {
    /// An empty snapshot shaped for `shards` lock shards.
    pub fn empty(shards: usize) -> MemMetricsSnapshot {
        MemMetricsSnapshot {
            ops: (0..MEM_OPS).map(|_| OpStats::default()).collect(),
            lock_wait: vec![Log2Histogram::new(); shards],
            lock_hold: vec![Log2Histogram::new(); shards],
            ..MemMetricsSnapshot::default()
        }
    }

    /// Latency stats for one op class (empty stats if the snapshot was
    /// taken with telemetry compiled out).
    pub fn op(&self, op: MemOp) -> OpStats {
        self.ops.get(op as usize).cloned().unwrap_or_default()
    }

    /// The traffic between `base` (an earlier snapshot of the same
    /// layer) and `self`. Monotonic values subtract; gauges (rekey
    /// progress, observation maxima) keep their current level.
    ///
    /// Every subtraction saturates at zero: a baseline that is *not* an
    /// earlier state of the same layer (it outlived a purge or rekey, or
    /// was taken from a different layer) degrades to an empty-or-smaller
    /// delta instead of wrapping into garbage counts.
    pub fn delta_since(&self, base: &MemMetricsSnapshot) -> MemMetricsSnapshot {
        let hist_delta = |a: &[Log2Histogram], b: &[Log2Histogram]| -> Vec<Log2Histogram> {
            a.iter()
                .enumerate()
                .map(|(i, h)| match b.get(i) {
                    Some(bh) => h.delta_since(bh),
                    None => h.clone(),
                })
                .collect()
        };
        MemMetricsSnapshot {
            ops: self
                .ops
                .iter()
                .enumerate()
                .map(|(i, o)| {
                    let empty = OpStats::default();
                    let b = base.ops.get(i).unwrap_or(&empty);
                    OpStats {
                        latency: o.latency.delta_since(&b.latency),
                        stages: core::array::from_fn(|s| o.stages[s].delta_since(&b.stages[s])),
                    }
                })
                .collect(),
            lock_wait: hist_delta(&self.lock_wait, &base.lock_wait),
            lock_hold: hist_delta(&self.lock_hold, &base.lock_hold),
            blocks_read: self.blocks_read.saturating_sub(base.blocks_read),
            blocks_written: self.blocks_written.saturating_sub(base.blocks_written),
            batch_reads: self.batch_reads.saturating_sub(base.batch_reads),
            batch_writes: self.batch_writes.saturating_sub(base.batch_writes),
            integrity_errors: self.integrity_errors.saturating_sub(base.integrity_errors),
            page_rolls: self.page_rolls.saturating_sub(base.page_rolls),
            counterless_reads: self
                .counterless_reads
                .saturating_sub(base.counterless_reads),
            counterless_writes: self
                .counterless_writes
                .saturating_sub(base.counterless_writes),
            observed_writes_total: self
                .observed_writes_total
                .saturating_sub(base.observed_writes_total),
            observed_writes_max: self.observed_writes_max,
            observed_writes_max_page: self.observed_writes_max_page,
            rekey: self.rekey.clone(),
            cache: self.cache.delta_since(&base.cache),
            tree: self.tree.delta_since(&base.tree),
            fanin_read: self.fanin_read.delta_since(&base.fanin_read),
            fanin_write: self.fanin_write.delta_since(&base.fanin_write),
            store: self.store.delta_since(&base.store),
        }
    }

    /// The machine-readable form of the whole snapshot, the `stats`
    /// object inside `BENCH_mem.json` and `--stats-json` output.
    pub fn to_json(&self) -> JsonValue {
        let ops = JsonValue::Obj(
            MemOp::ALL
                .iter()
                .map(|&op| {
                    let stats = self.op(op);
                    let mut fields = vec![("latency".into(), hist_json(&stats.latency))];
                    fields.push((
                        "stages".into(),
                        JsonValue::Obj(
                            MemStage::ALL
                                .iter()
                                .map(|&s| (s.name().into(), hist_json(&stats.stages[s as usize])))
                                .collect(),
                        ),
                    ));
                    (op.name().into(), JsonValue::Obj(fields))
                })
                .collect(),
        );
        let shard_hists = |hists: &[Log2Histogram]| {
            JsonValue::Arr(
                hists
                    .iter()
                    .enumerate()
                    .map(|(i, h)| {
                        let mut obj = vec![("shard".into(), JsonValue::Num(i as f64))];
                        if let JsonValue::Obj(fields) = hist_json(h) {
                            obj.extend(fields);
                        }
                        JsonValue::Obj(obj)
                    })
                    .collect(),
            )
        };
        JsonValue::Obj(vec![
            ("ops".into(), ops),
            ("lock_wait".into(), shard_hists(&self.lock_wait)),
            ("lock_hold".into(), shard_hists(&self.lock_hold)),
            (
                "counters".into(),
                JsonValue::Obj(vec![
                    (
                        "blocks_read".into(),
                        JsonValue::Num(self.blocks_read as f64),
                    ),
                    (
                        "blocks_written".into(),
                        JsonValue::Num(self.blocks_written as f64),
                    ),
                    (
                        "batch_reads".into(),
                        JsonValue::Num(self.batch_reads as f64),
                    ),
                    (
                        "batch_writes".into(),
                        JsonValue::Num(self.batch_writes as f64),
                    ),
                    (
                        "integrity_errors".into(),
                        JsonValue::Num(self.integrity_errors as f64),
                    ),
                    ("page_rolls".into(), JsonValue::Num(self.page_rolls as f64)),
                    (
                        "counterless_reads".into(),
                        JsonValue::Num(self.counterless_reads as f64),
                    ),
                    (
                        "counterless_writes".into(),
                        JsonValue::Num(self.counterless_writes as f64),
                    ),
                ]),
            ),
            (
                "observation".into(),
                JsonValue::Obj(vec![
                    (
                        "ciphertext_writes_total".into(),
                        JsonValue::Num(self.observed_writes_total as f64),
                    ),
                    (
                        "ciphertext_writes_max".into(),
                        JsonValue::Num(self.observed_writes_max as f64),
                    ),
                    (
                        "ciphertext_writes_max_page".into(),
                        JsonValue::Num(self.observed_writes_max_page as f64),
                    ),
                ]),
            ),
            (
                "rekey".into(),
                JsonValue::Obj(vec![
                    ("sweeps".into(), JsonValue::Num(self.rekey.sweeps as f64)),
                    (
                        "pages_total".into(),
                        JsonValue::Num(self.rekey.pages_total as f64),
                    ),
                    (
                        "pages_done".into(),
                        JsonValue::Num(self.rekey.pages_done as f64),
                    ),
                    (
                        "in_progress".into(),
                        JsonValue::Bool(self.rekey.in_progress),
                    ),
                    (
                        "key_dwell_ms".into(),
                        JsonValue::Num(self.rekey.key_dwell_ms as f64),
                    ),
                    (
                        "last_sweep_ms".into(),
                        JsonValue::Num(self.rekey.last_sweep_ms as f64),
                    ),
                    (
                        "last_old_key_dwell_ms".into(),
                        JsonValue::Num(self.rekey.last_old_key_dwell_ms as f64),
                    ),
                ]),
            ),
            (
                "verify_cache".into(),
                JsonValue::Obj(vec![
                    ("hits".into(), JsonValue::Num(self.cache.hits as f64)),
                    (
                        "partial_hits".into(),
                        JsonValue::Num(self.cache.partial_hits as f64),
                    ),
                    ("misses".into(), JsonValue::Num(self.cache.misses as f64)),
                    ("hit_rate".into(), JsonValue::Num(self.cache.hit_rate())),
                    ("fills".into(), JsonValue::Num(self.cache.fills as f64)),
                    (
                        "evictions".into(),
                        JsonValue::Num(self.cache.evictions as f64),
                    ),
                    (
                        "bypasses".into(),
                        JsonValue::Num(self.cache.bypasses as f64),
                    ),
                    (
                        "invalidations".into(),
                        JsonValue::Obj(
                            CacheCause::ALL
                                .iter()
                                .map(|&c| {
                                    (
                                        c.name().into(),
                                        JsonValue::Num(self.cache.invalidated(c) as f64),
                                    )
                                })
                                .collect(),
                        ),
                    ),
                    (
                        "foreign_purges".into(),
                        JsonValue::Num(self.cache.foreign_purges as f64),
                    ),
                    (
                        "resident_pages".into(),
                        JsonValue::Num(self.cache.resident_pages as f64),
                    ),
                ]),
            ),
            (
                "tree".into(),
                JsonValue::Obj(vec![
                    (
                        "nodes_trusted".into(),
                        JsonValue::Num(self.tree.nodes_trusted as f64),
                    ),
                    (
                        "nodes_verified".into(),
                        JsonValue::Num(self.tree.nodes_verified as f64),
                    ),
                ]),
            ),
            (
                "fanin".into(),
                JsonValue::Obj(vec![
                    ("read".into(), fanin_json(&self.fanin_read)),
                    ("write".into(), fanin_json(&self.fanin_write)),
                ]),
            ),
            (
                "store".into(),
                JsonValue::Obj(vec![
                    (
                        "words_read".into(),
                        JsonValue::Num(self.store.words_read as f64),
                    ),
                    (
                        "words_written".into(),
                        JsonValue::Num(self.store.words_written as f64),
                    ),
                    (
                        "page_cache_hits".into(),
                        JsonValue::Num(self.store.page_cache_hits as f64),
                    ),
                    (
                        "page_cache_misses".into(),
                        JsonValue::Num(self.store.page_cache_misses as f64),
                    ),
                    (
                        "page_cache_evictions".into(),
                        JsonValue::Num(self.store.page_cache_evictions as f64),
                    ),
                    (
                        "page_cache_read_fill_evictions".into(),
                        JsonValue::Num(self.store.page_cache_read_fill_evictions as f64),
                    ),
                    (
                        "page_cache_hit_rate".into(),
                        JsonValue::Num(self.store.page_cache_hit_rate()),
                    ),
                    (
                        "file_reads".into(),
                        JsonValue::Num(self.store.file_reads as f64),
                    ),
                    (
                        "file_writes".into(),
                        JsonValue::Num(self.store.file_writes as f64),
                    ),
                ]),
            ),
        ])
    }
}

// ---------------------------------------------------------------------
// Live metrics — real implementation
// ---------------------------------------------------------------------

pub(crate) struct OpHandles {
    pub(crate) latency: Arc<ShardedHistogram>,
    pub(crate) stages: [Arc<ShardedHistogram>; MEM_STAGES],
}

/// Live telemetry for one [`EncryptionLayer`](crate::EncryptionLayer).
///
/// Handles are registered once at layer construction in an internal
/// [`Registry`]. The layer's observer is their only writer: it bumps
/// the handles directly (relaxed atomics, no locks, no allocation).
/// This type only registers them and reads them back: the
/// snapshot/exposition methods are the cold path.
pub struct MemMetrics {
    registry: Registry,
    pub(crate) ops: Vec<OpHandles>,
    pub(crate) lock_wait: Vec<Arc<ShardedHistogram>>,
    pub(crate) lock_hold: Vec<Arc<ShardedHistogram>>,
    pub(crate) blocks_read: Arc<Counter>,
    pub(crate) blocks_written: Arc<Counter>,
    pub(crate) batch_reads: Arc<Counter>,
    pub(crate) batch_writes: Arc<Counter>,
    pub(crate) integrity_errors: Arc<Counter>,
    pub(crate) page_rolls: Arc<Counter>,
    pub(crate) counterless_reads: Arc<Counter>,
    pub(crate) counterless_writes: Arc<Counter>,
    pub(crate) observed_total: Arc<Counter>,
    pub(crate) observed: Vec<AtomicU64>,
    pub(crate) observed_max: Arc<Gauge>,
    pub(crate) observed_max_page: Arc<Gauge>,
    pub(crate) cache_hits: Arc<Counter>,
    pub(crate) cache_partial_hits: Arc<Counter>,
    pub(crate) cache_misses: Arc<Counter>,
    pub(crate) cache_fills: Arc<Counter>,
    pub(crate) cache_evictions: Arc<Counter>,
    pub(crate) cache_bypasses: Arc<Counter>,
    pub(crate) cache_invalidations: [Arc<Counter>; CACHE_CAUSES],
    pub(crate) cache_foreign_purges: Arc<Counter>,
    pub(crate) cache_resident: Arc<Gauge>,
    pub(crate) tree_nodes_trusted: Arc<Counter>,
    pub(crate) tree_nodes_verified: Arc<Counter>,
    pub(crate) fanin_read: Arc<ShardedHistogram>,
    pub(crate) fanin_write: Arc<ShardedHistogram>,
    pub(crate) rekey_sweeps: Arc<Counter>,
    pub(crate) rekey_pages_total: Arc<Gauge>,
    pub(crate) rekey_pages_done: Arc<Gauge>,
    pub(crate) rekey_in_progress: Arc<Gauge>,
    pub(crate) key_dwell_ms: Arc<Gauge>,
    pub(crate) rekey_last_ms: Arc<Gauge>,
    pub(crate) old_key_dwell_ms: Arc<Gauge>,
}

impl MemMetrics {
    /// Builds the full metric set for a layer with `lock_shards` page
    /// shards over `pages` pages.
    pub fn new(lock_shards: usize, pages: u64) -> MemMetrics {
        let registry = Registry::new();
        let ok = "static metric names are valid";
        let mut ops = Vec::with_capacity(MEM_OPS);
        for op in MemOp::ALL {
            let latency = registry
                .histogram(
                    "clme_mem_op_latency_ps",
                    "end-to-end operation latency",
                    &[("op", op.name())],
                )
                .expect(ok);
            let stages = core::array::from_fn(|s| {
                registry
                    .histogram(
                        "clme_mem_stage_latency_ps",
                        "crypto pipeline stage latency",
                        &[("op", op.name()), ("stage", MemStage::ALL[s].name())],
                    )
                    .expect(ok)
            });
            ops.push(OpHandles { latency, stages });
        }
        let mut lock_wait = Vec::with_capacity(lock_shards);
        let mut lock_hold = Vec::with_capacity(lock_shards);
        for shard in 0..lock_shards {
            let label = shard.to_string();
            lock_wait.push(
                registry
                    .histogram(
                        "clme_mem_lock_wait_ps",
                        "page-shard lock wait time",
                        &[("shard", &label)],
                    )
                    .expect(ok),
            );
            lock_hold.push(
                registry
                    .histogram(
                        "clme_mem_lock_hold_ps",
                        "page-shard lock hold time",
                        &[("shard", &label)],
                    )
                    .expect(ok),
            );
        }
        let counter = |name: &str, help: &str| registry.counter(name, help, &[]).expect(ok);
        let gauge = |name: &str, help: &str| registry.gauge(name, help, &[]).expect(ok);
        MemMetrics {
            ops,
            lock_wait,
            lock_hold,
            blocks_read: counter("clme_mem_blocks_read_total", "blocks decrypted for callers"),
            blocks_written: counter(
                "clme_mem_blocks_written_total",
                "blocks encrypted for callers",
            ),
            batch_reads: counter("clme_mem_batch_reads_total", "batch_read calls"),
            batch_writes: counter("clme_mem_batch_writes_total", "batch_write calls"),
            integrity_errors: counter(
                "clme_mem_integrity_errors_total",
                "operations failing integrity verification",
            ),
            page_rolls: counter("clme_mem_page_rolls_total", "whole-page re-encryptions"),
            counterless_reads: counter(
                "clme_mem_counterless_reads_total",
                "reads from counterless (XTS) blocks",
            ),
            counterless_writes: counter(
                "clme_mem_counterless_writes_total",
                "writes to counterless (XTS) blocks",
            ),
            observed_total: counter(
                "clme_mem_ciphertext_writes_total",
                "ciphertext writes visible to a store observer",
            ),
            observed: (0..pages).map(|_| AtomicU64::new(0)).collect(),
            observed_max: gauge(
                "clme_mem_ciphertext_writes_max",
                "largest per-page observation count",
            ),
            observed_max_page: gauge(
                "clme_mem_ciphertext_writes_max_page",
                "page with the largest observation count",
            ),
            cache_hits: counter(
                "clme_mem_cache_hits_total",
                "page visits fully served from the verified-page cache",
            ),
            cache_partial_hits: counter(
                "clme_mem_cache_partial_hits_total",
                "page visits reusing a cached counter block but fetching blocks",
            ),
            cache_misses: counter(
                "clme_mem_cache_misses_total",
                "page visits running the full verification chain",
            ),
            cache_fills: counter(
                "clme_mem_cache_fills_total",
                "verified-page cache entries inserted or extended",
            ),
            cache_evictions: counter(
                "clme_mem_cache_evictions_total",
                "verified-page cache entries displaced by the CLOCK policy",
            ),
            cache_bypasses: counter(
                "clme_mem_cache_bypasses_total",
                "page visits with the verified-page cache disabled",
            ),
            cache_invalidations: core::array::from_fn(|i| {
                registry
                    .counter(
                        "clme_mem_cache_invalidations_total",
                        "verified-page cache entries dropped, by cause",
                        &[("cause", CacheCause::ALL[i].name())],
                    )
                    .expect(ok)
            }),
            cache_foreign_purges: counter(
                "clme_mem_cache_foreign_purges_total",
                "whole-cache purges forced by a foreign write generation",
            ),
            cache_resident: gauge(
                "clme_mem_cache_resident_pages",
                "pages resident in the verified-page cache",
            ),
            tree_nodes_trusted: counter(
                "clme_mem_tree_nodes_trusted_total",
                "tree walk hops answered by an already trusted node",
            ),
            tree_nodes_verified: counter(
                "clme_mem_tree_nodes_verified_total",
                "tree walk hops that read and MAC-checked a node word",
            ),
            fanin_read: registry
                .histogram(
                    "clme_mem_batch_fanin_blocks",
                    "blocks per page visit (recorded as blocks x 1000)",
                    &[("op", "read")],
                )
                .expect(ok),
            fanin_write: registry
                .histogram(
                    "clme_mem_batch_fanin_blocks",
                    "blocks per page visit (recorded as blocks x 1000)",
                    &[("op", "write")],
                )
                .expect(ok),
            rekey_sweeps: counter("clme_mem_rekey_sweeps_total", "completed rekey sweeps"),
            rekey_pages_total: gauge("clme_mem_rekey_pages", "pages in the current/last sweep"),
            rekey_pages_done: gauge("clme_mem_rekey_pages_done", "pages swept so far"),
            rekey_in_progress: gauge("clme_mem_rekey_in_progress", "1 while a sweep runs"),
            key_dwell_ms: gauge("clme_mem_key_dwell_ms", "current master key age"),
            rekey_last_ms: gauge("clme_mem_rekey_last_ms", "duration of the last sweep"),
            old_key_dwell_ms: gauge(
                "clme_mem_old_key_dwell_ms",
                "lifetime of the most recently retired key",
            ),
            registry,
        }
    }

    /// Ciphertext writes observed for one page.
    pub fn observed_writes(&self, page: u64) -> u64 {
        self.observed
            .get(page as usize)
            .map(|s| s.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Refreshes the observation maxima, which are derived at read
    /// time, so snapshots and scrapes see current values.
    fn refresh_observed_max(&self) {
        let mut max = 0u64;
        let mut max_page = 0u64;
        for (page, slot) in self.observed.iter().enumerate() {
            let v = slot.load(Ordering::Relaxed);
            if v > max {
                max = v;
                max_page = page as u64;
            }
        }
        self.observed_max.set(max);
        self.observed_max_page.set(max_page);
    }

    /// Copies every metric out, merging histogram shards. Pass the
    /// backend's [`StoreMetrics`] to fold its counters in.
    pub fn snapshot(&self, store: Option<&StoreMetrics>) -> MemMetricsSnapshot {
        self.refresh_observed_max();
        MemMetricsSnapshot {
            ops: self
                .ops
                .iter()
                .map(|o| OpStats {
                    latency: o.latency.merge(),
                    stages: core::array::from_fn(|s| o.stages[s].merge()),
                })
                .collect(),
            lock_wait: self.lock_wait.iter().map(|h| h.merge()).collect(),
            lock_hold: self.lock_hold.iter().map(|h| h.merge()).collect(),
            blocks_read: self.blocks_read.get(),
            blocks_written: self.blocks_written.get(),
            batch_reads: self.batch_reads.get(),
            batch_writes: self.batch_writes.get(),
            integrity_errors: self.integrity_errors.get(),
            page_rolls: self.page_rolls.get(),
            counterless_reads: self.counterless_reads.get(),
            counterless_writes: self.counterless_writes.get(),
            observed_writes_total: self.observed_total.get(),
            observed_writes_max: self.observed_max.get(),
            observed_writes_max_page: self.observed_max_page.get(),
            rekey: RekeyStats {
                sweeps: self.rekey_sweeps.get(),
                pages_total: self.rekey_pages_total.get(),
                pages_done: self.rekey_pages_done.get(),
                in_progress: self.rekey_in_progress.get() != 0,
                key_dwell_ms: self.key_dwell_ms.get(),
                last_sweep_ms: self.rekey_last_ms.get(),
                last_old_key_dwell_ms: self.old_key_dwell_ms.get(),
            },
            cache: CacheStats {
                hits: self.cache_hits.get(),
                partial_hits: self.cache_partial_hits.get(),
                misses: self.cache_misses.get(),
                fills: self.cache_fills.get(),
                evictions: self.cache_evictions.get(),
                bypasses: self.cache_bypasses.get(),
                invalidations: core::array::from_fn(|i| self.cache_invalidations[i].get()),
                foreign_purges: self.cache_foreign_purges.get(),
                resident_pages: self.cache_resident.get(),
            },
            tree: TreeStats {
                nodes_trusted: self.tree_nodes_trusted.get(),
                nodes_verified: self.tree_nodes_verified.get(),
            },
            fanin_read: self.fanin_read.merge(),
            fanin_write: self.fanin_write.merge(),
            store: store.map(|s| s.snapshot()).unwrap_or_default(),
        }
    }

    /// Every registered metric as exposition samples (the layer's plus,
    /// when given, the backend's), ready for [`clme_obs::prom::render`].
    pub fn prom_samples(&self, store: Option<&StoreMetrics>) -> Vec<Sample> {
        self.refresh_observed_max();
        let mut samples = self.registry.snapshot();
        if let Some(s) = store {
            samples.extend(s.samples());
        }
        samples
    }
}

// ---------------------------------------------------------------------
// Store counters — recorded by the backends themselves, so they keep a
// zero-sized twin for `telemetry-off` builds
// ---------------------------------------------------------------------

#[cfg(not(feature = "telemetry-off"))]
mod store_counters {
    use super::*;

    /// Per-backend store counters: word traffic, page-cache behaviour, and
    /// file I/O. Backends own one and report it via
    /// [`StoreBackend::store_metrics`](crate::StoreBackend::store_metrics).
    pub struct StoreMetrics {
        registry: Registry,
        words_read: Arc<Counter>,
        words_written: Arc<Counter>,
        page_cache_hits: Arc<Counter>,
        page_cache_misses: Arc<Counter>,
        page_cache_evictions: Arc<Counter>,
        page_cache_read_fill_evictions: Arc<Counter>,
        file_reads: Arc<Counter>,
        file_writes: Arc<Counter>,
    }

    impl StoreMetrics {
        /// Builds the counter set.
        pub fn new() -> StoreMetrics {
            let registry = Registry::new();
            let ok = "static metric names are valid";
            let counter = |name: &str, help: &str| registry.counter(name, help, &[]).expect(ok);
            StoreMetrics {
                words_read: counter("clme_store_words_read_total", "stored words read"),
                words_written: counter("clme_store_words_written_total", "stored words written"),
                page_cache_hits: counter("clme_store_page_cache_hits_total", "page-cache hits"),
                page_cache_misses: counter(
                    "clme_store_page_cache_misses_total",
                    "page-cache misses",
                ),
                page_cache_evictions: counter(
                    "clme_store_page_cache_evictions_total",
                    "cache fills displacing a live page",
                ),
                page_cache_read_fill_evictions: registry
                    .counter(
                        "clme_store_page_cache_fill_evictions_total",
                        "cache-fill evictions, by the filling side",
                        &[("fill", "read")],
                    )
                    .expect(ok),
                file_reads: counter("clme_store_file_reads_total", "positioned file reads"),
                file_writes: counter("clme_store_file_writes_total", "positioned file writes"),
                registry,
            }
        }

        /// One stored word read.
        #[inline]
        pub fn word_read(&self) {
            self.words_read.inc();
        }

        /// One stored word written.
        #[inline]
        pub fn word_written(&self) {
            self.words_written.inc();
        }

        /// A page-cache hit.
        #[inline]
        pub fn cache_hit(&self) {
            self.page_cache_hits.inc();
        }

        /// A page-cache miss.
        #[inline]
        pub fn cache_miss(&self) {
            self.page_cache_misses.inc();
        }

        /// A read-miss fill displaced a live page.
        #[inline]
        pub fn cache_evicted(&self) {
            self.page_cache_evictions.inc();
            self.page_cache_read_fill_evictions.inc();
        }

        /// One positioned file read.
        #[inline]
        pub fn file_read(&self) {
            self.file_reads.inc();
        }

        /// One positioned file write.
        #[inline]
        pub fn file_write(&self) {
            self.file_writes.inc();
        }

        /// The counters as exposition samples.
        pub(crate) fn samples(&self) -> Vec<Sample> {
            self.registry.snapshot()
        }

        /// Copies the counters out.
        pub fn snapshot(&self) -> StoreStats {
            StoreStats {
                words_read: self.words_read.get(),
                words_written: self.words_written.get(),
                page_cache_hits: self.page_cache_hits.get(),
                page_cache_misses: self.page_cache_misses.get(),
                page_cache_evictions: self.page_cache_evictions.get(),
                page_cache_read_fill_evictions: self.page_cache_read_fill_evictions.get(),
                file_reads: self.file_reads.get(),
                file_writes: self.file_writes.get(),
            }
        }
    }

    impl Default for StoreMetrics {
        fn default() -> StoreMetrics {
            StoreMetrics::new()
        }
    }
}

#[cfg(feature = "telemetry-off")]
mod store_counters {
    use super::*;

    /// No-op twin of the backend counters.
    #[derive(Debug, Default)]
    pub struct StoreMetrics;

    impl StoreMetrics {
        /// Builds the stub.
        pub fn new() -> StoreMetrics {
            StoreMetrics
        }

        /// No-op.
        #[inline(always)]
        pub fn word_read(&self) {}
        /// No-op.
        #[inline(always)]
        pub fn word_written(&self) {}
        /// No-op.
        #[inline(always)]
        pub fn cache_hit(&self) {}
        /// No-op.
        #[inline(always)]
        pub fn cache_miss(&self) {}
        /// No-op.
        #[inline(always)]
        pub fn cache_evicted(&self) {}
        /// No-op.
        #[inline(always)]
        pub fn file_read(&self) {}
        /// No-op.
        #[inline(always)]
        pub fn file_write(&self) {}

        /// Always-zero stats.
        pub fn snapshot(&self) -> StoreStats {
            StoreStats::default()
        }

        /// No samples.
        pub(crate) fn samples(&self) -> Vec<Sample> {
            Vec::new()
        }
    }
}

pub use store_counters::StoreMetrics;

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(not(feature = "telemetry-off"))]
    use crate::observe::{CacheServe, Observer, PageTally, PageVisit, Visit};

    // The observer is the metrics' only writer, so these tests record
    // through it; the `telemetry-off` observer records nothing.

    #[cfg(not(feature = "telemetry-off"))]
    fn live(obs: &Observer) -> &MemMetrics {
        obs.metrics(None).expect("telemetry compiled in")
    }

    /// Folds a finished call of `op` over `blocks` blocks with no page
    /// visit.
    #[cfg(not(feature = "telemetry-off"))]
    fn call(obs: &Observer, op: MemOp, blocks: u64) {
        obs.visit(&Visit::new(op, blocks, false, false), true);
    }

    /// Folds a read call whose page visits were served as `serves`, one
    /// block and 50 ns each.
    #[cfg(not(feature = "telemetry-off"))]
    fn read(obs: &Observer, blocks: u64, sampled: bool, serves: &[CacheServe]) {
        let mut v = Visit::new(MemOp::Read, blocks, sampled, sampled);
        for (page, &serve) in serves.iter().enumerate() {
            let p = PageVisit {
                serve,
                total_ns: 50,
                ..PageVisit::new(page as u64, 1)
            };
            obs.page(&mut v, &p);
        }
        obs.visit(&v, true);
    }

    /// Folds a write call whose one page saw `observed` ciphertexts.
    #[cfg(not(feature = "telemetry-off"))]
    fn writes(obs: &Observer, page: u64, observed: u64) {
        let mut v = Visit::new(MemOp::Write, 0, false, false);
        v.pages.push(PageTally {
            page,
            observed,
            ..PageTally::default()
        });
        obs.visit(&v, true);
    }

    #[test]
    #[cfg(not(feature = "telemetry-off"))]
    fn op_and_stage_histograms_split_by_class() {
        let obs = Observer::new(4, 8, 64);
        let mut read = Visit::new(MemOp::Read, 1, true, true);
        let mut p = PageVisit {
            total_ns: 100,
            ..PageVisit::new(0, 1)
        };
        p.stage_ns[MemStage::MacVerify as usize] = 50;
        p.stage_blocks[MemStage::MacVerify as usize] = 1;
        obs.page(&mut read, &p);
        let mut write = Visit::new(MemOp::Write, 1, true, true);
        write.pages.push(PageTally {
            blocks: 1,
            ..PageTally::default()
        });
        let p = PageVisit {
            data_ns: 200,
            ..PageVisit::new(0, 1)
        };
        obs.page(&mut write, &p);
        let snap = live(&obs).snapshot(None);
        assert_eq!(snap.op(MemOp::Read).latency.count(), 1);
        assert_eq!(snap.op(MemOp::Write).latency.count(), 1);
        assert_eq!(snap.op(MemOp::Batch).latency.count(), 0);
        assert_eq!(
            snap.op(MemOp::Read).stages[MemStage::MacVerify as usize].count(),
            1
        );
        assert_eq!(
            snap.op(MemOp::Write).stages[MemStage::MacVerify as usize].count(),
            0
        );
    }

    #[test]
    #[cfg(not(feature = "telemetry-off"))]
    fn observation_counters_track_per_page_and_max() {
        let obs = Observer::new(2, 4, 64);
        for _ in 0..3 {
            writes(&obs, 1, 1);
        }
        writes(&obs, 3, 1);
        let m = live(&obs);
        let snap = m.snapshot(None);
        assert_eq!(snap.observed_writes_total, 4);
        assert_eq!(snap.observed_writes_max, 3);
        assert_eq!(snap.observed_writes_max_page, 1);
        assert_eq!(m.observed_writes(1), 3);
        assert_eq!(m.observed_writes(3), 1);
        // Out-of-range pages are counted in the total only.
        writes(&obs, 99, 1);
        assert_eq!(m.snapshot(None).observed_writes_total, 5);
    }

    #[test]
    #[cfg(not(feature = "telemetry-off"))]
    fn rekey_gauges_progress_and_retire_keys() {
        let obs = Observer::new(2, 4, 64);
        obs.rekey_begin(4);
        let snap = live(&obs).snapshot(None);
        assert!(snap.rekey.in_progress);
        assert_eq!(snap.rekey.pages_total, 4);
        assert_eq!(snap.rekey.pages_done, 0);
        for page in 0..4 {
            obs.rekey_page(page, 0);
        }
        obs.rekey_end(true);
        let snap = live(&obs).snapshot(None);
        assert!(!snap.rekey.in_progress);
        assert_eq!(snap.rekey.pages_done, 4);
        assert_eq!(snap.rekey.sweeps, 1);
        // A failed sweep clears in_progress without retiring the key.
        obs.rekey_begin(4);
        obs.rekey_end(false);
        let snap = live(&obs).snapshot(None);
        assert!(!snap.rekey.in_progress);
        assert_eq!(snap.rekey.sweeps, 1);
    }

    #[test]
    #[cfg(not(feature = "telemetry-off"))]
    fn snapshot_delta_brackets_traffic() {
        let obs = Observer::new(2, 4, 64);
        call(&obs, MemOp::Read, 10);
        let base = live(&obs).snapshot(None);
        read(&obs, 5, true, &[CacheServe::Miss]);
        let delta = live(&obs).snapshot(None).delta_since(&base);
        assert_eq!(delta.blocks_read, 5);
        assert_eq!(delta.batch_reads, 1);
        assert_eq!(delta.op(MemOp::Read).latency.count(), 1);
    }

    #[test]
    #[cfg(not(feature = "telemetry-off"))]
    fn snapshot_delta_clamps_against_newer_baseline() {
        // A snapshot that outlived a purge/rekey — or was swapped between
        // layers — can be *ahead* of the live state. Deltas must clamp
        // to zero everywhere instead of wrapping to ~u64::MAX.
        let live_obs = Observer::new(2, 4, 64);
        read(&live_obs, 3, false, &[CacheServe::Hit]);
        let newer = Observer::new(2, 4, 64);
        read(&newer, 10, true, &[CacheServe::Hit, CacheServe::Hit]);
        call(&newer, MemOp::Write, 10);
        newer.cache_purge(CacheCause::Rekey, 7);
        writes(&newer, 0, 1);
        let delta = live(&live_obs)
            .snapshot(None)
            .delta_since(&live(&newer).snapshot(None));
        assert_eq!(delta.blocks_read, 0);
        assert_eq!(delta.blocks_written, 0);
        assert_eq!(delta.batch_reads, 0);
        assert_eq!(delta.batch_writes, 0);
        assert_eq!(delta.observed_writes_total, 0);
        assert_eq!(delta.cache.hits, 0);
        assert_eq!(delta.cache.invalidated(CacheCause::Rekey), 0);
        assert_eq!(delta.op(MemOp::Read).latency.count(), 0);
        assert_eq!(delta.op(MemOp::Read).latency.percentile_ps(0.99), 0);

        // Store-side counters clamp the same way.
        let s_live = StoreMetrics::new();
        s_live.cache_hit();
        let s_newer = StoreMetrics::new();
        s_newer.cache_hit();
        s_newer.cache_hit();
        s_newer.cache_miss();
        let delta = live(&live_obs)
            .snapshot(Some(&s_live))
            .delta_since(&live(&newer).snapshot(Some(&s_newer)));
        assert_eq!(delta.store.page_cache_hits, 0);
        assert_eq!(delta.store.page_cache_misses, 0);
    }

    #[test]
    fn snapshot_json_has_pipeline_keys() {
        let json = MemMetrics::new(2, 4).snapshot(None).to_json().to_pretty();
        for key in [
            "\"lock_wait\"",
            "\"lock_hold\"",
            "\"pages_done\"",
            "\"pages_total\"",
            "\"page_cache_hit_rate\"",
            "\"ciphertext_writes_total\"",
            "\"p99_ns\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let parsed = clme_types::json::parse(&json).expect("snapshot json parses");
        assert!(parsed.get("rekey").is_some());
    }

    #[test]
    #[cfg(not(feature = "telemetry-off"))]
    fn prom_samples_render_with_store() {
        let obs = Observer::new(2, 4, 64);
        let s = StoreMetrics::new();
        s.cache_hit();
        s.cache_miss();
        s.cache_evicted();
        call(&obs, MemOp::Write, 3);
        let text = clme_obs::prom::render(&live(&obs).prom_samples(Some(&s)));
        assert!(text.contains("clme_mem_blocks_written_total 3\n"), "{text}");
        assert!(text.contains("clme_store_page_cache_hits_total 1\n"));
        assert!(text.contains("clme_store_page_cache_evictions_total 1\n"));
        assert!(text.contains("clme_store_page_cache_fill_evictions_total{fill=\"read\"} 1\n"));
        assert!(text.contains("# TYPE clme_mem_lock_wait_ps histogram"));
        assert!(text.contains("clme_mem_rekey_in_progress 0\n"));
        assert!(text.contains("clme_mem_cache_invalidations_total{cause=\"rekey\"} 0\n"));
    }

    #[test]
    #[cfg(not(feature = "telemetry-off"))]
    fn cache_counters_snapshot_and_delta() {
        use CacheServe::*;
        let obs = Observer::new(2, 4, 64);
        // An unsampled read call that filled one entry and evicted one,
        // then a sampled one: a miss of 8 blocks, the one fan-in sample.
        let mut v = Visit::new(MemOp::Read, 4, false, false);
        for serve in [Hit, Hit, Partial, Bypass] {
            obs.page(
                &mut v,
                &PageVisit {
                    serve,
                    ..PageVisit::new(0, 1)
                },
            );
        }
        v.fills = 1;
        v.evictions = 1;
        obs.visit(&v, true);
        let mut v = Visit::new(MemOp::Read, 8, true, true);
        let p = PageVisit {
            serve: Miss,
            ..PageVisit::new(1, 8)
        };
        obs.page(&mut v, &p);
        obs.visit(&v, true);
        // A sampled write of 64 blocks that invalidated its page.
        let mut v = Visit::new(MemOp::Write, 64, true, true);
        v.invalidated = 1;
        v.pages.push(PageTally {
            page: 2,
            blocks: 64,
            ..PageTally::default()
        });
        obs.page(&mut v, &PageVisit::new(2, 64));
        obs.visit(&v, true);
        obs.cache_purge(CacheCause::Foreign, 5);
        let m = obs.metrics(Some(3)).expect("telemetry compiled in");
        let snap = m.snapshot(None);
        assert_eq!(snap.cache.hits, 2);
        assert_eq!(snap.cache.partial_hits, 1);
        assert_eq!(snap.cache.misses, 1);
        assert_eq!(snap.cache.fills, 1);
        assert_eq!(snap.cache.evictions, 1);
        assert_eq!(snap.cache.bypasses, 1);
        assert_eq!(snap.cache.invalidated(CacheCause::Write), 1);
        assert_eq!(snap.cache.invalidated(CacheCause::Foreign), 5);
        assert_eq!(snap.cache.invalidated(CacheCause::Rekey), 0);
        assert_eq!(snap.cache.foreign_purges, 1);
        assert_eq!(snap.cache.resident_pages, 3);
        assert!((snap.cache.hit_rate() - 0.5).abs() < 1e-9);
        assert_eq!(snap.fanin_read.count(), 1);
        assert_eq!(snap.fanin_write.count(), 1);
        // Scaled storage: "ps" percentiles divide back to block counts.
        assert!(snap.fanin_write.percentile_ps(0.5) as f64 / 1000.0 >= 64.0);

        read(&obs, 1, false, &[Hit]);
        let delta = live(&obs).snapshot(None).delta_since(&snap);
        assert_eq!(delta.cache.hits, 1);
        assert_eq!(delta.cache.misses, 0);
        assert_eq!(delta.cache.resident_pages, 3, "gauge keeps its level");

        let json = live(&obs).snapshot(None).to_json().to_pretty();
        for key in [
            "\"verify_cache\"",
            "\"partial_hits\"",
            "\"foreign_purges\"",
            "\"resident_pages\"",
            "\"fanin\"",
            "\"mean_blocks\"",
            "\"page_cache_read_fill_evictions\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
    }
}
