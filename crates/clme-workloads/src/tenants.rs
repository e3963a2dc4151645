//! Deterministic multi-tenant traffic composition.
//!
//! The paper evaluates the scheme on single-stream workloads; production
//! memory-encryption deployments serve many clients at once, and the
//! observability layer (clme-mem's `tenant` module) needs a traffic
//! source whose per-tenant shape is known in advance so its top-K
//! accounting can be checked exactly. [`TenantComposer`] provides that
//! source: `N` client streams with Zipf-skewed popularity interleave
//! into one sequence of batches, each tagged with its tenant, over
//! disjoint per-tenant page ranges.
//!
//! Everything is a pure function of the seed:
//!
//! * Which tenants are hot — a seeded rank permutation feeds a Zipf
//!   weight table, so tenant 17 may be the heavy hitter in one seed and
//!   a background stream in another.
//! * Which pages are hot *within* a tenant — the same Zipf shape over
//!   page ranks, rotated by a per-tenant offset so tenants do not share
//!   a hot page index.
//! * Each tenant's read/write mix — derived per tenant in `[50%, 95%]`
//!   reads.
//!
//! The composer runs single-threaded ahead of execution and folds every
//! emitted `(tenant, kind, addr)` into an FNV-1a digest, so the stream
//! is byte-deterministic regardless of how many threads later *execute*
//! it: same seed → same [`TenantComposer::digest`], on any machine.

use clme_types::rng::SplitMix64;

/// Default Zipf exponent for tenant and page popularity.
pub const DEFAULT_SKEW: f64 = 1.2;

/// Shape of the composed traffic. All fields are required; see
/// [`TenantComposer::new`] for the constraints.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TenantTrafficConfig {
    /// Number of client streams.
    pub tenants: u64,
    /// Master seed; every derived stream is a pure function of it.
    pub seed: u64,
    /// Zipf exponent for both tenant activity and page popularity.
    /// `0.0` means uniform.
    pub skew: f64,
    /// Pages owned by each tenant (ranges are disjoint and equal-sized,
    /// tenant `t` owning pages `[t·pages_per, (t+1)·pages_per)`).
    pub pages_per_tenant: u64,
    /// Blocks per page (the layer's `PAGE_BLOCKS`).
    pub page_blocks: u64,
    /// Blocks per composed batch.
    pub batch_blocks: usize,
}

/// One composed batch: a burst of block addresses from a single tenant,
/// all reads or all writes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ComposedBatch {
    /// Issuing tenant.
    pub tenant: u64,
    /// `true` for a write burst, `false` for a read burst.
    pub write: bool,
    /// Target block addresses, all inside the tenant's page range.
    pub addrs: Vec<u64>,
}

/// Deterministic interleaved multi-tenant traffic source.
///
/// # Examples
///
/// ```
/// use clme_workloads::tenants::{TenantComposer, TenantTrafficConfig};
///
/// let cfg = TenantTrafficConfig {
///     tenants: 8,
///     seed: 42,
///     skew: 1.2,
///     pages_per_tenant: 4,
///     page_blocks: 64,
///     batch_blocks: 64,
/// };
/// let mut a = TenantComposer::new(cfg);
/// let mut b = TenantComposer::new(cfg);
/// for _ in 0..100 {
///     assert_eq!(a.next_batch(), b.next_batch());
/// }
/// assert_eq!(a.digest(), b.digest());
/// ```
#[derive(Clone, Debug)]
pub struct TenantComposer {
    cfg: TenantTrafficConfig,
    rng: SplitMix64,
    /// Cumulative tenant weights for the weighted draw.
    tenant_cum: Vec<f64>,
    /// Cumulative page-rank weights (one shared shape, rotated per tenant).
    page_cum: Vec<f64>,
    /// Tenant ids ordered by popularity rank (index 0 = heaviest).
    by_rank: Vec<u64>,
    /// Per-tenant rotation of the page-rank → page mapping.
    page_offset: Vec<u64>,
    /// Per-tenant read percentage in `[50, 95]`.
    read_pct: Vec<u64>,
    digest: u64,
    batches: u64,
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

impl TenantComposer {
    /// Builds the composer. Weight tables and per-tenant parameters are
    /// derived here, once; emission is then O(log tenants) per draw.
    ///
    /// # Panics
    ///
    /// Panics if `tenants`, `pages_per_tenant`, `page_blocks`, or
    /// `batch_blocks` is zero, or if `skew` is negative or non-finite.
    pub fn new(cfg: TenantTrafficConfig) -> TenantComposer {
        assert!(cfg.tenants > 0, "need at least one tenant");
        assert!(
            cfg.pages_per_tenant > 0,
            "need at least one page per tenant"
        );
        assert!(cfg.page_blocks > 0, "need at least one block per page");
        assert!(cfg.batch_blocks > 0, "need at least one block per batch");
        assert!(
            cfg.skew >= 0.0 && cfg.skew.is_finite(),
            "skew must be a finite non-negative exponent"
        );

        let root = SplitMix64::new(cfg.seed);

        // Seeded popularity ranks: a Fisher–Yates shuffle of the tenant
        // ids, so which tenant is "rank 0" depends on the seed, not the
        // id order.
        let mut by_rank: Vec<u64> = (0..cfg.tenants).collect();
        let mut rank_rng = SplitMix64::new(root.derive(b"tenants/rank"));
        for i in (1..by_rank.len()).rev() {
            let j = rank_rng.below(i as u64 + 1) as usize;
            by_rank.swap(i, j);
        }

        // Zipf weight by rank: w(r) = 1 / (r+1)^skew, accumulated in id
        // order for the binary-search draw.
        let mut rank_of = vec![0u64; cfg.tenants as usize];
        for (rank, &tenant) in by_rank.iter().enumerate() {
            rank_of[tenant as usize] = rank as u64;
        }
        let mut tenant_cum = Vec::with_capacity(cfg.tenants as usize);
        let mut acc = 0.0f64;
        for tenant in 0..cfg.tenants {
            acc += zipf_weight(rank_of[tenant as usize], cfg.skew);
            tenant_cum.push(acc);
        }

        let mut page_cum = Vec::with_capacity(cfg.pages_per_tenant as usize);
        let mut page_acc = 0.0f64;
        for rank in 0..cfg.pages_per_tenant {
            page_acc += zipf_weight(rank, cfg.skew);
            page_cum.push(page_acc);
        }

        // Per-tenant parameters come from `derive`, so they are stable
        // under any emission order.
        let mut page_offset = Vec::with_capacity(cfg.tenants as usize);
        let mut read_pct = Vec::with_capacity(cfg.tenants as usize);
        for tenant in 0..cfg.tenants {
            let mut per = SplitMix64::new(root.derive(&tenant_label_bytes(tenant)));
            page_offset.push(per.below(cfg.pages_per_tenant));
            read_pct.push(50 + per.below(46));
        }

        TenantComposer {
            cfg,
            rng: SplitMix64::new(root.derive(b"tenants/stream")),
            tenant_cum,
            page_cum,
            by_rank,
            page_offset,
            read_pct,
            digest: FNV_OFFSET,
            batches: 0,
        }
    }

    /// The configuration this composer was built from.
    pub fn config(&self) -> &TenantTrafficConfig {
        &self.cfg
    }

    /// Total pages across all tenant ranges.
    pub fn total_pages(&self) -> u64 {
        self.cfg.tenants * self.cfg.pages_per_tenant
    }

    /// Total blocks across all tenant ranges.
    pub fn total_blocks(&self) -> u64 {
        self.total_pages() * self.cfg.page_blocks
    }

    /// The `k` tenants expected to dominate traffic, heaviest first.
    /// This is exact by construction (rank order), so it can prime an
    /// exact top-K accounting scope before any traffic flows.
    pub fn expected_heaviest(&self, k: usize) -> Vec<u64> {
        self.by_rank.iter().take(k).copied().collect()
    }

    /// A tenant's read percentage (derived, in `[50, 95]`).
    pub fn read_percent(&self, tenant: u64) -> u64 {
        self.read_pct[tenant as usize]
    }

    /// FNV-1a digest over every `(tenant, kind, addr)` emitted so far.
    /// Two composers with equal config agree on this after equal batch
    /// counts, regardless of the executing thread count.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Number of batches emitted so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Composes the next batch: weighted tenant draw, derived read/write
    /// mix, Zipf page picks inside the tenant's range.
    pub fn next_batch(&mut self) -> ComposedBatch {
        let tenant = draw_cum(&mut self.rng, &self.tenant_cum);
        let write = self.rng.below(100) >= self.read_pct[tenant as usize];
        let mut addrs = Vec::with_capacity(self.cfg.batch_blocks);
        for _ in 0..self.cfg.batch_blocks {
            let rank = draw_cum(&mut self.rng, &self.page_cum);
            let page_in_range =
                (rank + self.page_offset[tenant as usize]) % self.cfg.pages_per_tenant;
            let page = tenant * self.cfg.pages_per_tenant + page_in_range;
            let block = self.rng.below(self.cfg.page_blocks);
            addrs.push(page * self.cfg.page_blocks + block);
        }

        self.fold(tenant);
        self.fold(write as u64);
        for &addr in &addrs {
            self.fold(addr);
        }
        self.batches += 1;

        ComposedBatch {
            tenant,
            write,
            addrs,
        }
    }

    /// Composes `n` batches up front. Because composition is a single
    /// stream, the returned vector (and [`digest`](Self::digest)) is
    /// identical however the batches are later scheduled.
    pub fn compose(&mut self, n: usize) -> Vec<ComposedBatch> {
        (0..n).map(|_| self.next_batch()).collect()
    }

    fn fold(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.digest ^= byte as u64;
            self.digest = self.digest.wrapping_mul(FNV_PRIME);
        }
    }
}

/// Weighted index draw by binary search over a cumulative table.
fn draw_cum(rng: &mut SplitMix64, cum: &[f64]) -> u64 {
    let total = *cum.last().expect("cumulative table is non-empty");
    let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) * total;
    cum.partition_point(|&c| c <= u).min(cum.len() - 1) as u64
}

fn zipf_weight(rank: u64, skew: f64) -> f64 {
    if skew == 0.0 {
        1.0
    } else {
        1.0 / ((rank + 1) as f64).powf(skew)
    }
}

fn tenant_label_bytes(tenant: u64) -> Vec<u8> {
    let mut label = b"tenants/stream/".to_vec();
    label.extend_from_slice(&tenant.to_le_bytes());
    label
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seed: u64) -> TenantTrafficConfig {
        TenantTrafficConfig {
            tenants: 16,
            seed,
            skew: 1.2,
            pages_per_tenant: 4,
            page_blocks: 64,
            batch_blocks: 64,
        }
    }

    #[test]
    fn same_seed_same_stream_and_digest() {
        let mut a = TenantComposer::new(cfg(7));
        let mut b = TenantComposer::new(cfg(7));
        for _ in 0..200 {
            assert_eq!(a.next_batch(), b.next_batch());
        }
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.batches(), 200);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = TenantComposer::new(cfg(1));
        let mut b = TenantComposer::new(cfg(2));
        a.compose(50);
        b.compose(50);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn compose_matches_next_batch() {
        let mut a = TenantComposer::new(cfg(9));
        let mut b = TenantComposer::new(cfg(9));
        let batched = a.compose(37);
        let single: Vec<_> = (0..37).map(|_| b.next_batch()).collect();
        assert_eq!(batched, single);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn addresses_stay_inside_owning_range() {
        let c = cfg(11);
        let mut comp = TenantComposer::new(c);
        let blocks_per_tenant = c.pages_per_tenant * c.page_blocks;
        for _ in 0..300 {
            let batch = comp.next_batch();
            assert!(batch.tenant < c.tenants);
            assert_eq!(batch.addrs.len(), c.batch_blocks);
            for &addr in &batch.addrs {
                assert_eq!(
                    addr / blocks_per_tenant,
                    batch.tenant,
                    "address {addr} escaped tenant {}",
                    batch.tenant
                );
            }
        }
    }

    #[test]
    fn skew_concentrates_on_expected_heaviest() {
        let mut comp = TenantComposer::new(TenantTrafficConfig {
            tenants: 64,
            skew: 1.2,
            ..cfg(13)
        });
        let heavy = comp.expected_heaviest(4);
        assert_eq!(heavy.len(), 4);
        let mut counts = vec![0u64; 64];
        for _ in 0..4000 {
            counts[comp.next_batch().tenant as usize] += 1;
        }
        // The rank-0 tenant should beat every tenant outside the
        // expected-heavy set.
        let top = counts[heavy[0] as usize];
        for t in 0..64u64 {
            if !heavy.contains(&t) {
                assert!(
                    top > counts[t as usize],
                    "rank-0 tenant {} ({top} batches) should out-draw tenant {t} ({})",
                    heavy[0],
                    counts[t as usize]
                );
            }
        }
    }

    #[test]
    fn zero_skew_is_roughly_uniform() {
        let mut comp = TenantComposer::new(TenantTrafficConfig {
            skew: 0.0,
            ..cfg(17)
        });
        let mut counts = vec![0u64; 16];
        for _ in 0..4800 {
            counts[comp.next_batch().tenant as usize] += 1;
        }
        for (t, &n) in counts.iter().enumerate() {
            assert!((100..600).contains(&n), "tenant {t} drew {n} of 4800");
        }
    }

    #[test]
    fn read_write_mix_is_per_tenant_and_bounded() {
        let comp = TenantComposer::new(cfg(19));
        for t in 0..16 {
            assert!((50..=95).contains(&comp.read_percent(t)));
        }
        let mut comp = comp;
        let (mut reads, mut writes) = (0u64, 0u64);
        for _ in 0..2000 {
            if comp.next_batch().write {
                writes += 1;
            } else {
                reads += 1;
            }
        }
        assert!(
            reads > writes,
            "read-mostly mix expected: {reads}r/{writes}w"
        );
        assert!(writes > 0, "writes must still occur");
    }

    #[test]
    fn heaviest_list_is_distinct_and_seed_dependent() {
        let a = TenantComposer::new(cfg(23));
        let b = TenantComposer::new(cfg(29));
        let ha = a.expected_heaviest(16);
        let mut sorted = ha.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 16, "ranks must be a permutation");
        assert_ne!(
            ha,
            b.expected_heaviest(16),
            "rank order should follow the seed"
        );
    }
}
