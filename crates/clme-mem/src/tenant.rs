//! Per-tenant observability: bounded-cardinality attribution over one
//! shared [`EncryptionLayer`](crate::EncryptionLayer).
//!
//! A layer serving N tenants answers three questions no aggregate metric
//! can: *whose* p99 regressed, *which* crypto stage did it, and *whose*
//! pages does an observer of the store see most. [`TenantTelemetry`] is
//! the recording surface:
//!
//! * Tenants own disjoint page ranges ([`TenantRanges`]), so every page
//!   maps to its tenant with one subtract-and-divide — the layer's hot
//!   paths attribute cache results and ciphertext observations with an
//!   array index, no hashing.
//! * Cardinality is bounded at `K` rows: the expected-heaviest `K`
//!   tenants (the traffic composer knows its own popularity
//!   distribution) get exact slots, everyone else folds into the
//!   [`OTHER_TENANT`] rollup row. Every tenant also keeps one exact
//!   block tally, so a mis-primed table still names the heavy tenants
//!   hiding inside `__other__`
//!   ([`hot_unadmitted`](TenantSnapshot::hot_unadmitted)).
//! * Per-tenant SLOs ([`SloSpec`], e.g. `read-p99=120us`) are scored on
//!   every driver-recorded op; windowed burn rates follow the classic
//!   error-budget form `bad_fraction / (1 - quantile)`.
//! * Every per-tenant cell is a striped [`Counter`] or histogram that
//!   only grows. A burn window and a tenant's key exposure are derived:
//!   the cumulative count minus the baseline that the last
//!   [`roll_windows`](TenantTelemetry::roll_windows) or
//!   [`on_rekey`](TenantTelemetry::on_rekey) recorded, so no hot cell is
//!   ever swapped or reset.
//! * Noisy-neighbor attribution: sampled page visits report their
//!   measured nanoseconds per [`MemStage`] (lock wait, tree walk, store
//!   I/O, MAC, pad, commit — the same segments the per-op stage
//!   histograms share out), summed per tenant as time-share blame; a
//!   sampled visit past the tail cutoff also counts its *dominant*
//!   stage, so "tenant-3's tail is lock waits behind tenant-0's page
//!   rolls" is a table lookup. The blame keys and `cause` labels are
//!   [`MemStage::tenant_name`]s (`lock`, `tree_walk`, `store`, `mac`,
//!   `pad`, `commit`).
//!
//! The layer feeds it through its observer, one call per finished
//! visit record, and the traffic driver through
//! [`EncryptionLayer::record_tenant_batch`](crate::EncryptionLayer::record_tenant_batch).
//! A `telemetry-off` layer drops an installed table and never feeds it.

use crate::metrics::{hist_json, MemStage, MEM_STAGES};
use clme_obs::registry::{Counter, ShardedHistogram};
use clme_obs::{Log2Histogram, MetricKind, Sample, SampleValue};
use clme_types::json::JsonValue;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// How many rolled burn windows each SLO retains per tenant.
pub const BURN_WINDOWS: usize = 8;

/// Tail cutoff when no SLO supplies one: a visit this slow is worth a
/// dominant-cause count even without an objective (100 µs, the same
/// order as [`SLOW_LOCK_NS`](crate::SLOW_LOCK_NS)).
pub const DEFAULT_TAIL_CUTOFF_NS: u64 = 100_000;

/// Default number of exact tenant slots.
pub const DEFAULT_TENANT_TOP: usize = 8;

/// Label of the rollup row that every tenant without an exact slot
/// folds into.
pub const OTHER_TENANT: &str = "__other__";

// ---------------------------------------------------------------------
// Always-compiled data types
// ---------------------------------------------------------------------

/// Disjoint, equal-sized per-tenant page ranges: tenant `t` owns pages
/// `[first_page + t * pages_per, first_page + (t + 1) * pages_per)`.
/// Because ranges are arithmetic, `page -> tenant` is one subtraction
/// and one division — cheap enough for the layer's per-page hot paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TenantRanges {
    /// Number of tenants.
    pub count: u64,
    /// First page of tenant 0.
    pub first_page: u64,
    /// Pages per tenant.
    pub pages_per: u64,
}

impl TenantRanges {
    /// The tenant owning `page`, or `None` outside every range.
    #[inline]
    pub fn tenant_of_page(&self, page: u64) -> Option<u64> {
        if self.pages_per == 0 || page < self.first_page {
            return None;
        }
        let t = (page - self.first_page) / self.pages_per;
        (t < self.count).then_some(t)
    }

    /// Pages spanned by all tenants together.
    pub fn total_pages(&self) -> u64 {
        self.count * self.pages_per
    }

    /// The compact descriptor stored in `.clmedump` workload JSON so a
    /// post-mortem can name the suspect tenant without a page table.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("count".into(), JsonValue::Num(self.count as f64)),
            ("first_page".into(), JsonValue::Num(self.first_page as f64)),
            ("pages_per".into(), JsonValue::Num(self.pages_per as f64)),
        ])
    }

    /// Inverse of [`TenantRanges::to_json`].
    pub fn from_json(v: &JsonValue) -> Option<TenantRanges> {
        let num = |k: &str| v.get(k).and_then(JsonValue::as_f64).map(|n| n as u64);
        Some(TenantRanges {
            count: num("count")?,
            first_page: num("first_page")?,
            pages_per: num("pages_per")?,
        })
    }
}

/// One per-tenant latency objective, e.g. "99% of reads under 120 µs".
#[derive(Clone, Debug, PartialEq)]
pub struct SloSpec {
    /// `true` for write-op objectives, `false` for reads.
    pub write: bool,
    /// Objective quantile in `(0, 1)`, e.g. `0.99`.
    pub quantile: f64,
    /// Latency threshold in nanoseconds.
    pub threshold_ns: u64,
    /// The spec as parsed, used as the `slo` label value.
    pub label: String,
}

impl SloSpec {
    /// Parses one spec of the form `OP-pQQ=DURATION`, e.g.
    /// `read-p99=120us`, `write-p95=1ms`, `read-p999=250000ns`.
    pub fn parse(spec: &str) -> Result<SloSpec, String> {
        let (lhs, rhs) = spec
            .split_once('=')
            .ok_or_else(|| format!("slo `{spec}`: expected OP-pQQ=DURATION"))?;
        let (op, quant) = lhs
            .split_once("-p")
            .ok_or_else(|| format!("slo `{spec}`: expected read-pQQ or write-pQQ"))?;
        let write = match op {
            "read" => false,
            "write" => true,
            other => return Err(format!("slo `{spec}`: unknown op `{other}`")),
        };
        if quant.is_empty() || quant.len() > 3 || !quant.bytes().all(|b| b.is_ascii_digit()) {
            return Err(format!("slo `{spec}`: bad quantile `p{quant}`"));
        }
        let quantile = quant.parse::<f64>().unwrap() / 10f64.powi(quant.len() as i32);
        if !(0.0..1.0).contains(&quantile) || quantile == 0.0 {
            return Err(format!("slo `{spec}`: quantile must be in (0, 1)"));
        }
        let threshold_ns = parse_duration_ns(rhs)
            .ok_or_else(|| format!("slo `{spec}`: bad duration `{rhs}` (use ns/us/ms)"))?;
        if threshold_ns == 0 {
            return Err(format!("slo `{spec}`: threshold must be positive"));
        }
        Ok(SloSpec {
            write,
            quantile,
            threshold_ns,
            label: spec.to_string(),
        })
    }

    /// Parses a comma-separated list of specs.
    pub fn parse_list(list: &str) -> Result<Vec<SloSpec>, String> {
        list.split(',')
            .filter(|s| !s.trim().is_empty())
            .map(|s| SloSpec::parse(s.trim()))
            .collect()
    }

    /// Burn rate of an error budget: the fraction of ops over threshold
    /// divided by the budget `1 - quantile`. 1.0 means the budget is
    /// consumed exactly as fast as it accrues.
    pub fn burn(&self, good: u64, bad: u64) -> f64 {
        let total = good + bad;
        if total == 0 {
            return 0.0;
        }
        (bad as f64 / total as f64) / (1.0 - self.quantile)
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("label".into(), JsonValue::Str(self.label.clone())),
            (
                "op".into(),
                JsonValue::Str(if self.write { "write" } else { "read" }.into()),
            ),
            ("quantile".into(), JsonValue::Num(self.quantile)),
            (
                "threshold_ns".into(),
                JsonValue::Num(self.threshold_ns as f64),
            ),
        ])
    }
}

fn parse_duration_ns(s: &str) -> Option<u64> {
    let (digits, scale) = if let Some(d) = s.strip_suffix("ns") {
        (d, 1u64)
    } else if let Some(d) = s.strip_suffix("us") {
        (d, 1_000)
    } else if let Some(d) = s.strip_suffix("ms") {
        (d, 1_000_000)
    } else if let Some(d) = s.strip_suffix('s') {
        (d, 1_000_000_000)
    } else {
        (s, 1)
    };
    digits.parse::<u64>().ok()?.checked_mul(scale)
}

/// How the verified-page cache served a tenant's page visit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TenantServe {
    /// Fully served from the cache.
    Hit = 0,
    /// Counter block reused, some blocks fetched.
    Partial = 1,
    /// Full verification chain ran.
    Miss = 2,
}

/// One SLO's score for one tenant.
#[derive(Clone, Debug, Default)]
pub struct SloRow {
    /// The spec's label.
    pub label: String,
    /// Ops that met the objective, cumulative.
    pub good: u64,
    /// Ops over threshold, cumulative.
    pub bad: u64,
    /// Cumulative burn rate.
    pub burn: f64,
    /// Burn rate per retained window, oldest first (the last entry is
    /// the in-progress window).
    pub window_burns: Vec<f64>,
}

/// One tenant's row of a [`TenantSnapshot`]. The last row of a snapshot
/// is always the [`OTHER_TENANT`] rollup.
#[derive(Clone, Debug, Default)]
pub struct TenantRow {
    /// Tenant id; `None` for the rollup row.
    pub id: Option<u64>,
    /// Display label (escaped only at the Prometheus writer).
    pub label: String,
    /// Driver-recorded read-op latencies.
    pub read: Log2Histogram,
    /// Driver-recorded write-op latencies.
    pub write: Log2Histogram,
    /// Read / write ops recorded.
    pub ops: [u64; 2],
    /// Blocks moved by those ops (read / write).
    pub blocks: [u64; 2],
    /// Cache full hits / partial hits / misses on this tenant's pages.
    pub cache: [u64; 3],
    /// Ciphertext writes an observer saw land on this tenant's pages.
    pub ciphertext_writes: u64,
    /// Ciphertext writes under the *current* master key (key dwell in
    /// write-exposure terms; resets on rekey).
    pub key_exposure_writes: u64,
    /// Sampled time-share blame, ns summed per [`MemStage`].
    pub stage_ns: [u64; MEM_STAGES],
    /// Sampled tail visits (past the cutoff) per dominant stage.
    pub tail: [u64; MEM_STAGES],
    /// SLO scores, one per configured spec.
    pub slo: Vec<SloRow>,
}

impl TenantRow {
    /// Total sampled tail visits.
    pub fn tail_total(&self) -> u64 {
        self.tail.iter().sum()
    }

    /// The dominant tail stage, if any tail visit was recorded; ties go
    /// to the earlier stage.
    pub fn dominant_tail(&self) -> Option<MemStage> {
        let (i, &n) = self
            .tail
            .iter()
            .enumerate()
            .max_by_key(|&(i, &n)| (n, std::cmp::Reverse(i)))?;
        (n > 0).then_some(MemStage::ALL[i])
    }
}

/// Point-in-time copy of everything [`TenantTelemetry`] tracks.
#[derive(Clone, Debug, Default)]
pub struct TenantSnapshot {
    /// Total tenants composed over the layer.
    pub tenant_count: u64,
    /// Exact slots configured.
    pub top_k: usize,
    /// Configured SLOs.
    pub slo: Vec<SloSpec>,
    /// Exact rows in slot order, then the `__other__` rollup row.
    pub rows: Vec<TenantRow>,
    /// Ops that folded into the rollup.
    pub folded_ops: u64,
    /// `(id, blocks)` of the tenants among the `top_k` heaviest by
    /// recorded blocks that do *not* own an exact slot — heavy traffic
    /// hiding inside `__other__` (empty when priming was right).
    /// Heaviest first, ties by id.
    pub hot_unadmitted: Vec<(u64, u64)>,
}

impl TenantSnapshot {
    /// The `tenants` object of `--stats-json` / `BENCH_mem.json`.
    pub fn to_json(&self) -> JsonValue {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                let stage = JsonValue::Obj(
                    MemStage::ALL
                        .iter()
                        .map(|&c| {
                            (
                                c.tenant_name().to_string(),
                                JsonValue::Num(r.stage_ns[c as usize] as f64),
                            )
                        })
                        .collect(),
                );
                let mut tail: Vec<(String, JsonValue)> =
                    vec![("total".into(), JsonValue::Num(r.tail_total() as f64))];
                for c in MemStage::ALL {
                    tail.push((
                        c.tenant_name().into(),
                        JsonValue::Num(r.tail[c as usize] as f64),
                    ));
                }
                tail.push((
                    "dominant".into(),
                    match r.dominant_tail() {
                        Some(c) => JsonValue::Str(c.tenant_name().into()),
                        None => JsonValue::Null,
                    },
                ));
                let slo = r
                    .slo
                    .iter()
                    .map(|s| {
                        JsonValue::Obj(vec![
                            ("label".into(), JsonValue::Str(s.label.clone())),
                            ("good".into(), JsonValue::Num(s.good as f64)),
                            ("bad".into(), JsonValue::Num(s.bad as f64)),
                            ("burn".into(), JsonValue::Num(s.burn)),
                            (
                                "window_burns".into(),
                                JsonValue::Arr(
                                    s.window_burns.iter().map(|&b| JsonValue::Num(b)).collect(),
                                ),
                            ),
                        ])
                    })
                    .collect();
                JsonValue::Obj(vec![
                    ("tenant".into(), JsonValue::Str(r.label.clone())),
                    (
                        "id".into(),
                        match r.id {
                            Some(id) => JsonValue::Num(id as f64),
                            None => JsonValue::Null,
                        },
                    ),
                    ("read".into(), hist_json(&r.read)),
                    ("write".into(), hist_json(&r.write)),
                    (
                        "ops".into(),
                        JsonValue::Obj(vec![
                            ("read".into(), JsonValue::Num(r.ops[0] as f64)),
                            ("write".into(), JsonValue::Num(r.ops[1] as f64)),
                        ]),
                    ),
                    (
                        "blocks".into(),
                        JsonValue::Obj(vec![
                            ("read".into(), JsonValue::Num(r.blocks[0] as f64)),
                            ("write".into(), JsonValue::Num(r.blocks[1] as f64)),
                        ]),
                    ),
                    (
                        "cache".into(),
                        JsonValue::Obj(vec![
                            ("hits".into(), JsonValue::Num(r.cache[0] as f64)),
                            ("partial_hits".into(), JsonValue::Num(r.cache[1] as f64)),
                            ("misses".into(), JsonValue::Num(r.cache[2] as f64)),
                        ]),
                    ),
                    (
                        "ciphertext_writes".into(),
                        JsonValue::Num(r.ciphertext_writes as f64),
                    ),
                    (
                        "key_exposure_writes".into(),
                        JsonValue::Num(r.key_exposure_writes as f64),
                    ),
                    ("stage_ns".into(), stage),
                    ("tail".into(), JsonValue::Obj(tail)),
                    ("slo".into(), JsonValue::Arr(slo)),
                ])
            })
            .collect();
        JsonValue::Obj(vec![
            ("count".into(), JsonValue::Num(self.tenant_count as f64)),
            ("top_k".into(), JsonValue::Num(self.top_k as f64)),
            (
                "slo".into(),
                JsonValue::Arr(self.slo.iter().map(SloSpec::to_json).collect()),
            ),
            ("folded_ops".into(), JsonValue::Num(self.folded_ops as f64)),
            (
                "hot_unadmitted".into(),
                JsonValue::Arr(
                    self.hot_unadmitted
                        .iter()
                        .map(|&(id, count)| {
                            JsonValue::Obj(vec![
                                ("id".into(), JsonValue::Num(id as f64)),
                                ("count".into(), JsonValue::Num(count as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("rows".into(), JsonValue::Arr(rows)),
        ])
    }

    /// Per-tenant Prometheus families. Tenant label *values* pass
    /// through [`clme_obs::prom::render`]'s escaping, so hostile display
    /// names cannot break the exposition format.
    pub fn prom_samples(&self) -> Vec<Sample> {
        let mut out = Vec::new();
        let sample = |name: &str, help: &str, kind, labels: Vec<(String, String)>, value| Sample {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            labels,
            value,
        };
        let t = |r: &TenantRow| ("tenant".to_string(), r.label.clone());
        for r in &self.rows {
            for (op, i) in [("read", 0usize), ("write", 1usize)] {
                out.push(sample(
                    "clme_tenant_ops_total",
                    "Driver-recorded ops per tenant.",
                    MetricKind::Counter,
                    vec![t(r), ("op".into(), op.into())],
                    SampleValue::Counter(r.ops[i]),
                ));
                out.push(sample(
                    "clme_tenant_blocks_total",
                    "Blocks moved per tenant.",
                    MetricKind::Counter,
                    vec![t(r), ("op".into(), op.into())],
                    SampleValue::Counter(r.blocks[i]),
                ));
                out.push(sample(
                    "clme_tenant_op_latency_ps",
                    "Per-tenant op latency.",
                    MetricKind::Histogram,
                    vec![t(r), ("op".into(), op.into())],
                    SampleValue::Histogram(if i == 0 {
                        r.read.clone()
                    } else {
                        r.write.clone()
                    }),
                ));
            }
            for (result, i) in [("hit", 0usize), ("partial", 1), ("miss", 2)] {
                out.push(sample(
                    "clme_tenant_cache_total",
                    "Verified-page cache results on the tenant's pages.",
                    MetricKind::Counter,
                    vec![t(r), ("result".into(), result.into())],
                    SampleValue::Counter(r.cache[i]),
                ));
            }
            out.push(sample(
                "clme_tenant_ciphertext_writes_total",
                "Ciphertext writes observable on the tenant's pages.",
                MetricKind::Counter,
                vec![t(r)],
                SampleValue::Counter(r.ciphertext_writes),
            ));
            out.push(sample(
                "clme_tenant_key_exposure_writes",
                "Ciphertext writes under the current master key.",
                MetricKind::Gauge,
                vec![t(r)],
                SampleValue::Gauge(r.key_exposure_writes),
            ));
            for c in MemStage::ALL {
                out.push(sample(
                    "clme_tenant_stage_ns_total",
                    "Sampled visit time per cause, nanoseconds.",
                    MetricKind::Counter,
                    vec![t(r), ("cause".into(), c.tenant_name().into())],
                    SampleValue::Counter(r.stage_ns[c as usize]),
                ));
                out.push(sample(
                    "clme_tenant_tail_total",
                    "Sampled tail visits by dominant cause.",
                    MetricKind::Counter,
                    vec![t(r), ("cause".into(), c.tenant_name().into())],
                    SampleValue::Counter(r.tail[c as usize]),
                ));
            }
            for s in &r.slo {
                let labels = |extra: &str| vec![t(r), ("slo".into(), extra.to_string())];
                out.push(sample(
                    "clme_tenant_slo_good_total",
                    "Ops meeting the objective.",
                    MetricKind::Counter,
                    labels(&s.label),
                    SampleValue::Counter(s.good),
                ));
                out.push(sample(
                    "clme_tenant_slo_bad_total",
                    "Ops over the objective threshold.",
                    MetricKind::Counter,
                    labels(&s.label),
                    SampleValue::Counter(s.bad),
                ));
                out.push(sample(
                    "clme_tenant_slo_burn_milli",
                    "Cumulative burn rate x1000.",
                    MetricKind::Gauge,
                    labels(&s.label),
                    SampleValue::Gauge((s.burn * 1000.0) as u64),
                ));
            }
        }
        out
    }
}

/// One tenant row's live cells. Every cell only grows; windows and key
/// exposure are derived from baselines kept in [`Baselines`].
struct TenantSlot {
    read: ShardedHistogram,
    write: ShardedHistogram,
    ops: [Counter; 2],
    blocks: [Counter; 2],
    cache: [Counter; 3],
    observed: Counter,
    stage_ns: [Counter; MEM_STAGES],
    tail: [Counter; MEM_STAGES],
    /// Cumulative per-SLO good/bad.
    slo_good: Box<[Counter]>,
    slo_bad: Box<[Counter]>,
}

impl TenantSlot {
    fn new(slos: usize) -> TenantSlot {
        TenantSlot {
            read: ShardedHistogram::new(),
            write: ShardedHistogram::new(),
            ops: Default::default(),
            blocks: Default::default(),
            cache: Default::default(),
            observed: Counter::new(),
            stage_ns: Default::default(),
            tail: Default::default(),
            slo_good: (0..slos).map(|_| Counter::new()).collect(),
            slo_bad: (0..slos).map(|_| Counter::new()).collect(),
        }
    }
}

/// What the cumulative cells read at the last window roll and the last
/// rekey, per slot: the in-progress window of an SLO is its good/bad
/// count minus `slo`, and key exposure is `observed` minus `exposure`.
struct Baselines {
    /// Rolled burn-window history: `[slot][slo]` ring, oldest first.
    burns: Vec<Vec<Vec<f64>>>,
    /// `[slot][slo]` good/bad counts at the last roll.
    slo: Vec<Vec<[u64; 2]>>,
    /// `[slot]` ciphertext writes observed at the last rekey.
    exposure: Vec<u64>,
}

/// The per-tenant recording surface. One per layer, installed with
/// [`EncryptionLayer::install_tenants`](crate::EncryptionLayer::install_tenants);
/// shared with the traffic driver, which records op latencies and SLO
/// scores exhaustively while the layer attributes cache results,
/// ciphertext observations, and sampled stage blame by page.
pub struct TenantTelemetry {
    ranges: TenantRanges,
    top_k: usize,
    /// Tenant ids owning exact slots, slot order (frozen at build).
    admitted: Vec<u64>,
    /// Blocks recorded per tenant id, exact: ranks the tenants for
    /// [`TenantSnapshot::hot_unadmitted`].
    tally: Box<[AtomicU64]>,
    /// `page - ranges.first_page` pre-division slot table is not needed:
    /// tenant-of-page is arithmetic, then this maps tenant -> slot.
    /// `u32::MAX` marks folded tenants.
    tenant_slots: Vec<u32>,
    slos: Vec<SloSpec>,
    tail_cutoff_ns: u64,
    /// Exact slots then the `__other__` rollup (last).
    slots: Vec<TenantSlot>,
    folded_ops: Counter,
    /// Burn history and the baselines windows and exposure count from.
    windows: Mutex<Baselines>,
    /// Display-name overrides, for operators naming tenants.
    names: Mutex<HashMap<u64, String>>,
}

impl TenantTelemetry {
    /// Builds telemetry for `ranges.count` tenants with `top_k` exact
    /// slots, primed with `heaviest` (the composer's expected-heaviest
    /// tenants, best first): its first `top_k` distinct ids get them.
    /// Admission freezes here: tenants outside the primed set fold into
    /// `__other__`, and the snapshot reports any that turn out heavy.
    pub fn new(
        ranges: TenantRanges,
        top_k: usize,
        heaviest: &[u64],
        slos: Vec<SloSpec>,
    ) -> TenantTelemetry {
        let top_k = top_k.max(1);
        let mut admitted: Vec<u64> = Vec::with_capacity(top_k);
        for &id in heaviest {
            if admitted.len() == top_k {
                break;
            }
            if !admitted.contains(&id) {
                admitted.push(id);
            }
        }
        let mut tenant_slots = vec![u32::MAX; ranges.count as usize];
        for (slot, &id) in admitted.iter().enumerate() {
            if let Some(s) = tenant_slots.get_mut(id as usize) {
                *s = slot as u32;
            }
        }
        let tail_cutoff_ns = slos
            .iter()
            .map(|s| s.threshold_ns)
            .min()
            .unwrap_or(DEFAULT_TAIL_CUTOFF_NS);
        let n_slots = admitted.len() + 1;
        let slots = (0..n_slots).map(|_| TenantSlot::new(slos.len())).collect();
        let windows = Baselines {
            burns: vec![vec![Vec::new(); slos.len()]; n_slots],
            slo: vec![vec![[0; 2]; slos.len()]; n_slots],
            exposure: vec![0; n_slots],
        };
        TenantTelemetry {
            ranges,
            top_k,
            admitted,
            tally: (0..ranges.count).map(|_| AtomicU64::new(0)).collect(),
            tenant_slots,
            slos,
            tail_cutoff_ns,
            slots,
            folded_ops: Counter::new(),
            windows: Mutex::new(windows),
            names: Mutex::new(HashMap::new()),
        }
    }

    /// Overrides a tenant's display label. Values are escaped by the
    /// Prometheus writer at render time, so hostile names are safe.
    pub fn set_label(&self, id: u64, name: &str) {
        self.names
            .lock()
            .expect("tenant names poisoned")
            .insert(id, name.to_string());
    }

    #[inline]
    fn slot_of_tenant(&self, id: u64) -> usize {
        match self.tenant_slots.get(id as usize) {
            Some(&s) if s != u32::MAX => s as usize,
            _ => self.slots.len() - 1,
        }
    }

    #[inline]
    fn slot_of_page(&self, page: u64) -> Option<usize> {
        self.ranges
            .tenant_of_page(page)
            .map(|t| self.slot_of_tenant(t))
    }

    /// Driver hook: one completed batch for `tenant`. Records the op
    /// latency exhaustively, scores every matching SLO, and adds the
    /// batch's blocks (at least one) to the tenant's tally.
    pub fn record_op(&self, tenant: u64, write: bool, latency_ns: u64, blocks: u64) {
        if let Some(tally) = self.tally.get(tenant as usize) {
            tally.fetch_add(blocks.max(1), Ordering::Relaxed);
        }
        let slot_idx = self.slot_of_tenant(tenant);
        if slot_idx == self.slots.len() - 1 {
            self.folded_ops.inc();
        }
        let slot = &self.slots[slot_idx];
        let op = write as usize;
        slot.ops[op].inc();
        slot.blocks[op].add(blocks);
        let hist = if write { &slot.write } else { &slot.read };
        hist.record_ps(latency_ns.saturating_mul(1000));
        for (i, spec) in self.slos.iter().enumerate() {
            if spec.write != write {
                continue;
            }
            if latency_ns > spec.threshold_ns {
                slot.slo_bad[i].inc();
            } else {
                slot.slo_good[i].inc();
            }
        }
    }

    /// Layer hook: the verified-page cache served a visit to `page`.
    #[inline]
    pub fn page_served(&self, page: u64, serve: TenantServe) {
        if let Some(slot) = self.slot_of_page(page) {
            self.slots[slot].cache[serve as usize].inc();
        }
    }

    /// Layer hook: `n` ciphertext writes landed on `page` — observable
    /// by anyone watching the store, and exposure accrued against the
    /// current master key.
    #[inline]
    pub fn ciphertext_writes(&self, page: u64, n: u64) {
        if let Some(slot) = self.slot_of_page(page) {
            self.slots[slot].observed.add(n);
        }
    }

    /// Layer hook: a sampled page visit measured `segs` nanoseconds per
    /// [`MemStage`] over `total_ns`. Segments accumulate as time-share
    /// blame; a visit past the tail cutoff also counts its dominant
    /// segment.
    pub fn visit_sample(&self, page: u64, total_ns: u64, segs: &[u64; MEM_STAGES]) {
        let Some(slot_idx) = self.slot_of_page(page) else {
            return;
        };
        let slot = &self.slots[slot_idx];
        let mut dominant = 0usize;
        for (i, &ns) in segs.iter().enumerate() {
            slot.stage_ns[i].add(ns);
            if ns > segs[dominant] {
                dominant = i;
            }
        }
        if total_ns >= self.tail_cutoff_ns && segs[dominant] > 0 {
            slot.tail[dominant].inc();
        }
    }

    /// Layer hook: a rekey sweep completed — every key-exposure gauge
    /// restarts from zero, because the writes an observer collected were
    /// under the retired key.
    pub fn on_rekey(&self) {
        let mut windows = self.windows.lock().expect("tenant windows poisoned");
        for (base, slot) in windows.exposure.iter_mut().zip(&self.slots) {
            *base = slot.observed.get();
        }
    }

    /// Driver hook: closes the in-progress SLO window for every tenant
    /// and appends its burn rate to the retained ring (capacity
    /// [`BURN_WINDOWS`]).
    pub fn roll_windows(&self) {
        let mut windows = self.windows.lock().expect("tenant windows poisoned");
        let Baselines { burns, slo, .. } = &mut *windows;
        for (slot_idx, slot) in self.slots.iter().enumerate() {
            for (i, spec) in self.slos.iter().enumerate() {
                let now = [slot.slo_good[i].get(), slot.slo_bad[i].get()];
                let base = std::mem::replace(&mut slo[slot_idx][i], now);
                let ring = &mut burns[slot_idx][i];
                ring.push(spec.burn(now[0] - base[0], now[1] - base[1]));
                if ring.len() > BURN_WINDOWS {
                    let drop = ring.len() - BURN_WINDOWS;
                    ring.drain(..drop);
                }
            }
        }
    }

    /// Point-in-time copy of every per-tenant series.
    pub fn snapshot(&self) -> TenantSnapshot {
        let names = self.names.lock().expect("tenant names poisoned");
        let windows = self.windows.lock().expect("tenant windows poisoned");
        let rows = self
            .slots
            .iter()
            .enumerate()
            .map(|(slot_idx, slot)| {
                let id = self.admitted.get(slot_idx).copied();
                let label = match id {
                    Some(id) => names
                        .get(&id)
                        .cloned()
                        .unwrap_or_else(|| format!("tenant-{id}")),
                    None => OTHER_TENANT.to_string(),
                };
                let slo = self
                    .slos
                    .iter()
                    .enumerate()
                    .map(|(i, spec)| {
                        let good = slot.slo_good[i].get();
                        let bad = slot.slo_bad[i].get();
                        let mut window_burns = windows.burns[slot_idx][i].clone();
                        // The in-progress window rides along so a
                        // snapshot before any roll still shows burn.
                        let [bg, bb] = windows.slo[slot_idx][i];
                        let (wg, wb) = (good - bg, bad - bb);
                        if wg + wb > 0 {
                            window_burns.push(spec.burn(wg, wb));
                        }
                        SloRow {
                            label: spec.label.clone(),
                            good,
                            bad,
                            burn: spec.burn(good, bad),
                            window_burns,
                        }
                    })
                    .collect();
                let observed = slot.observed.get();
                TenantRow {
                    id,
                    label,
                    read: slot.read.merge(),
                    write: slot.write.merge(),
                    ops: slot.ops.each_ref().map(Counter::get),
                    blocks: slot.blocks.each_ref().map(Counter::get),
                    cache: slot.cache.each_ref().map(Counter::get),
                    ciphertext_writes: observed,
                    key_exposure_writes: observed - windows.exposure[slot_idx],
                    stage_ns: slot.stage_ns.each_ref().map(Counter::get),
                    tail: slot.tail.each_ref().map(Counter::get),
                    slo,
                }
            })
            .collect();
        let mut hot_unadmitted: Vec<(u64, u64)> = (0..)
            .zip(self.tally.iter().map(|t| t.load(Ordering::Relaxed)))
            .filter(|&(_, blocks)| blocks > 0)
            .collect();
        hot_unadmitted.sort_by_key(|&(id, blocks)| (std::cmp::Reverse(blocks), id));
        hot_unadmitted.truncate(self.top_k);
        hot_unadmitted.retain(|(id, _)| !self.admitted.contains(id));
        TenantSnapshot {
            tenant_count: self.ranges.count,
            top_k: self.top_k,
            slo: self.slos.clone(),
            rows,
            folded_ops: self.folded_ops.get(),
            hot_unadmitted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_map_pages_arithmetically() {
        let r = TenantRanges {
            count: 4,
            first_page: 2,
            pages_per: 3,
        };
        assert_eq!(r.tenant_of_page(0), None);
        assert_eq!(r.tenant_of_page(2), Some(0));
        assert_eq!(r.tenant_of_page(4), Some(0));
        assert_eq!(r.tenant_of_page(5), Some(1));
        assert_eq!(r.tenant_of_page(13), Some(3));
        assert_eq!(r.tenant_of_page(14), None);
        assert_eq!(r.total_pages(), 12);
        let back = TenantRanges::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn slo_specs_parse_and_reject() {
        let s = SloSpec::parse("read-p99=120us").unwrap();
        assert!(!s.write);
        assert!((s.quantile - 0.99).abs() < 1e-12);
        assert_eq!(s.threshold_ns, 120_000);
        assert_eq!(s.label, "read-p99=120us");
        let s = SloSpec::parse("write-p95=1ms").unwrap();
        assert!(s.write);
        assert!((s.quantile - 0.95).abs() < 1e-12);
        assert_eq!(s.threshold_ns, 1_000_000);
        let s = SloSpec::parse("read-p999=250ns").unwrap();
        assert!((s.quantile - 0.999).abs() < 1e-12);
        let list = SloSpec::parse_list("read-p99=120us, write-p99=1ms").unwrap();
        assert_eq!(list.len(), 2);
        for bad in [
            "p99=120us",
            "read-p99",
            "scan-p99=1ms",
            "read-p0=1ms",
            "read-pxx=1ms",
            "read-p99=fast",
            "read-p99=0ns",
        ] {
            assert!(SloSpec::parse(bad).is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn burn_rate_is_bad_fraction_over_budget() {
        let s = SloSpec::parse("read-p99=1us").unwrap();
        assert_eq!(s.burn(0, 0), 0.0);
        // 1% bad at a p99 objective burns exactly 1.0.
        assert!((s.burn(99, 1) - 1.0).abs() < 1e-12);
        // 10% bad burns 10x.
        assert!((s.burn(90, 10) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn record_op_fills_slots_and_folds_tail() {
        let ranges = TenantRanges {
            count: 10,
            first_page: 0,
            pages_per: 2,
        };
        let slos = SloSpec::parse_list("read-p99=1us").unwrap();
        // A repeated id takes one slot: 3 still gets the second.
        let t = TenantTelemetry::new(ranges, 2, &[7, 7, 3], slos);
        t.record_op(7, false, 500, 64); // meets the objective
        t.record_op(7, false, 2_000, 64); // over threshold
        t.record_op(3, true, 100, 32);
        t.record_op(9, false, 50, 16); // folds
        let snap = t.snapshot();
        assert_eq!(snap.rows.len(), 3);
        assert_eq!(snap.rows[0].id, Some(7));
        assert_eq!(snap.rows[0].label, "tenant-7");
        assert_eq!(snap.rows[0].ops, [2, 0]);
        assert_eq!(snap.rows[0].blocks, [128, 0]);
        assert_eq!(snap.rows[0].read.count(), 2);
        assert_eq!(snap.rows[0].slo[0].good, 1);
        assert_eq!(snap.rows[0].slo[0].bad, 1);
        assert_eq!(snap.rows[1].id, Some(3));
        assert_eq!(snap.rows[1].ops, [0, 1]);
        assert_eq!(snap.rows[1].write.count(), 1);
        assert_eq!(snap.rows[2].id, None);
        assert_eq!(snap.rows[2].label, OTHER_TENANT);
        assert_eq!(snap.rows[2].ops, [1, 0]);
        assert_eq!(snap.folded_ops, 1);
    }

    #[test]
    fn page_hooks_attribute_by_range() {
        let ranges = TenantRanges {
            count: 3,
            first_page: 1,
            pages_per: 2,
        };
        let t = TenantTelemetry::new(ranges, 3, &[0, 1, 2], Vec::new());
        t.page_served(1, TenantServe::Hit); // tenant 0
        t.page_served(2, TenantServe::Miss); // tenant 0
        t.page_served(3, TenantServe::Partial); // tenant 1
        t.page_served(0, TenantServe::Hit); // outside every range
        t.ciphertext_writes(5, 4); // tenant 2
        t.ciphertext_writes(5, 1);
        let snap = t.snapshot();
        assert_eq!(snap.rows[0].cache, [1, 0, 1]);
        assert_eq!(snap.rows[1].cache, [0, 1, 0]);
        assert_eq!(snap.rows[2].ciphertext_writes, 5);
        assert_eq!(snap.rows[2].key_exposure_writes, 5);
        t.on_rekey();
        let snap = t.snapshot();
        assert_eq!(snap.rows[2].ciphertext_writes, 5, "observations persist");
        assert_eq!(snap.rows[2].key_exposure_writes, 0, "exposure resets");
        t.ciphertext_writes(6, 3); // tenant 2, under the new key
        t.ciphertext_writes(1, 2); // tenant 0
        let snap = t.snapshot();
        assert_eq!(snap.rows[2].ciphertext_writes, 8);
        assert_eq!(
            snap.rows[2].key_exposure_writes, 3,
            "only post-rekey writes"
        );
        assert_eq!(snap.rows[0].key_exposure_writes, 2);
    }

    #[test]
    fn visit_samples_blame_the_dominant_cause() {
        let ranges = TenantRanges {
            count: 2,
            first_page: 0,
            pages_per: 4,
        };
        let t = TenantTelemetry::new(ranges, 2, &[0, 1], Vec::new());
        let mut segs = [0u64; MEM_STAGES];
        segs[MemStage::Lock as usize] = 90_000;
        segs[MemStage::MacVerify as usize] = 20_000;
        // Past the default 100us cutoff: dominant cause is lock wait.
        t.visit_sample(0, 150_000, &segs);
        // Under the cutoff: blame sums accrue, tail count does not.
        t.visit_sample(0, 50_000, &segs);
        let snap = t.snapshot();
        let row = &snap.rows[0];
        assert_eq!(row.stage_ns[MemStage::Lock as usize], 180_000);
        assert_eq!(row.stage_ns[MemStage::MacVerify as usize], 40_000);
        assert_eq!(row.tail[MemStage::Lock as usize], 1);
        assert_eq!(row.tail_total(), 1);
        assert_eq!(row.dominant_tail(), Some(MemStage::Lock));
    }

    #[test]
    fn windows_roll_and_retain_burns() {
        let ranges = TenantRanges {
            count: 1,
            first_page: 0,
            pages_per: 1,
        };
        let slos = SloSpec::parse_list("read-p99=1us").unwrap();
        let t = TenantTelemetry::new(ranges, 1, &[0], slos);
        for round in 0..(BURN_WINDOWS + 2) {
            // Alternate clean and fully-burning windows.
            let ns = if round % 2 == 0 { 10 } else { 10_000 };
            for _ in 0..10 {
                t.record_op(0, false, ns, 1);
            }
            t.roll_windows();
        }
        let snap = t.snapshot();
        let slo = &snap.rows[0].slo[0];
        assert_eq!(slo.window_burns.len(), BURN_WINDOWS, "ring is bounded");
        // All-bad windows burn at 1/(1-0.99) = 100x budget.
        assert!(slo.window_burns.iter().any(|&b| b > 99.0));
        assert!(slo.window_burns.iter().any(|&b| b == 0.0));
        assert_eq!(slo.good + slo.bad, 10 * (BURN_WINDOWS as u64 + 2));
    }

    #[test]
    fn sketch_flags_unadmitted_heavy_hitters() {
        let ranges = TenantRanges {
            count: 100,
            first_page: 0,
            pages_per: 1,
        };
        // Primed with the wrong tenants: 0 and 1 get slots, but 50
        // carries the real load.
        let t = TenantTelemetry::new(ranges, 2, &[0, 1], Vec::new());
        for _ in 0..100 {
            t.record_op(50, false, 100, 64);
        }
        t.record_op(0, false, 100, 1);
        let snap = t.snapshot();
        assert!(
            snap.hot_unadmitted.iter().any(|&(id, _)| id == 50),
            "tenant 50 should surface from __other__: {:?}",
            snap.hot_unadmitted
        );
    }

    #[test]
    fn hot_unadmitted_counts_every_tenants_blocks_exactly() {
        let ranges = TenantRanges {
            count: 1024,
            first_page: 0,
            pages_per: 1,
        };
        let t = TenantTelemetry::new(ranges, 2, &[0, 1], Vec::new());
        // A hundred light tenants, then one heavy one, all unadmitted.
        for id in (8..=800).step_by(8) {
            t.record_op(id, false, 100, 1);
        }
        t.record_op(808, true, 100, 64);
        let snap = t.snapshot();
        // Exact counts, lightest ties broken by the smaller id.
        assert_eq!(snap.hot_unadmitted, vec![(808, 64), (8, 1)]);
    }

    #[test]
    fn snapshot_json_and_prom_have_tenant_families() {
        let ranges = TenantRanges {
            count: 4,
            first_page: 0,
            pages_per: 2,
        };
        let slos = SloSpec::parse_list("read-p99=120us").unwrap();
        let t = TenantTelemetry::new(ranges, 2, &[1, 2], slos);
        t.record_op(1, false, 1_000, 64);
        t.record_op(2, true, 2_000, 64);
        let snap = t.snapshot();
        let json = snap.to_json().to_pretty();
        for key in [
            "\"top_k\"",
            "\"rows\"",
            "\"tenant-1\"",
            "\"__other__\"",
            "\"p99_ns\"",
            "\"stage_ns\"",
            "\"tail\"",
            "\"burn\"",
            "\"window_burns\"",
            "\"key_exposure_writes\"",
            "\"hot_unadmitted\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let text = clme_obs::prom::render(&snap.prom_samples());
        for family in [
            "clme_tenant_ops_total{tenant=\"tenant-1\",op=\"read\"} 1",
            "clme_tenant_blocks_total{tenant=\"tenant-1\",op=\"read\"} 64",
            "clme_tenant_cache_total",
            "clme_tenant_ciphertext_writes_total",
            "clme_tenant_key_exposure_writes",
            "clme_tenant_stage_ns_total",
            "clme_tenant_tail_total",
            "clme_tenant_slo_good_total",
            "clme_tenant_slo_burn_milli",
            "# TYPE clme_tenant_op_latency_ps histogram",
        ] {
            assert!(text.contains(family), "missing {family} in {text}");
        }
    }
}
