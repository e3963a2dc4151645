//! `--bench` and `--tenants`: one timed loop over a batch source, the
//! throughput and latency tables, and the `--watch` epoch rows.

use super::stats::hist_row;
use super::{master_key, random_bytes, tenant_traffic, MemArgs};
use clme_mem::{Block, EncryptionLayer, MemOp, MemoryAdt, StoreBackend};
use clme_obs::Log2Histogram;
use clme_types::rng::SplitMix64;
use clme_types::TimeDelta;
use clme_workloads::tenants::TenantComposer;
use std::time::{Duration, Instant};

/// One batch the bench issues.
#[derive(Clone, Default)]
pub struct Batch {
    /// The issuing tenant, for composed traffic.
    pub tenant: Option<u64>,
    pub write: bool,
    /// The target addresses.
    pub addrs: Vec<u64>,
    /// Address and data of every block, for a write batch.
    pub writes: Vec<(u64, Block)>,
}

/// Where the bench's batches come from. The uniform stream (`--bench`):
/// each rep writes `ops` blocks at uniform random addresses, then reads
/// `ops` uniform random addresses, in batches of 64 from the `mem/bench`
/// seed stream. Composed traffic (`--tenants`): `ops` blocks of composer
/// batches, composed once, during the first rep (the warm-up), and
/// replayed by every later rep, so all reps time the same traffic; write
/// data comes from its own `mem/tenants/data` stream, so the composed
/// stream (and its digest) does not depend on it.
pub struct BatchSource {
    composer: Option<TenantComposer>,
    /// The composed rep, as far as it has been composed.
    composed: Vec<Batch>,
    /// The position in `composed` of the current rep's next batch.
    replay: usize,
    rng: SplitMix64,
    blocks: u64,
    ops: usize,
}

impl BatchSource {
    pub fn new(args: &MemArgs, blocks: u64) -> BatchSource {
        let composer = args
            .tenants
            .map(|tenants| TenantComposer::new(tenant_traffic(args, tenants)));
        let label: &[u8] = match composer {
            Some(_) => b"mem/tenants/data",
            None => b"mem/bench",
        };
        BatchSource {
            composer,
            composed: Vec::new(),
            replay: 0,
            rng: SplitMix64::new(SplitMix64::new(args.seed).derive(label)),
            blocks,
            ops: args.ops.max(64),
        }
    }

    /// Refills `batch` with the next batch of a rep that has issued
    /// `issued` blocks so far; false once the rep is complete.
    pub fn fill(&mut self, issued: usize, batch: &mut Batch) -> bool {
        let ops = self.ops;
        batch.writes.clear();
        if let Some(composer) = &mut self.composer {
            if issued >= ops {
                self.replay = 0;
                return false;
            }
            if self.replay == self.composed.len() {
                let composed = composer.next_batch();
                let writes = if composed.write {
                    let data = composed.addrs.iter();
                    data.map(|&a| (a, random_bytes(&mut self.rng))).collect()
                } else {
                    Vec::new()
                };
                self.composed.push(Batch {
                    tenant: Some(composed.tenant),
                    write: composed.write,
                    addrs: composed.addrs,
                    writes,
                });
            }
            batch.clone_from(&self.composed[self.replay]);
            self.replay += 1;
            return true;
        }
        if issued >= 2 * ops {
            return false;
        }
        batch.tenant = None;
        batch.write = issued < ops;
        batch.addrs.clear();
        let end = if batch.write { ops } else { 2 * ops };
        for _ in 0..64.min(end - issued) {
            let addr = self.rng.below(self.blocks);
            batch.addrs.push(addr);
            if batch.write {
                batch.writes.push((addr, random_bytes(&mut self.rng)));
            }
        }
        true
    }

    /// The composed stream's FNV-1a digest and batch count.
    fn digest(&self) -> Option<(u64, u64)> {
        (self.composer.as_ref()).map(|composer| (composer.digest(), composer.batches()))
    }
}

/// Issues one batch and returns its wall time. The data was generated
/// before the clock starts, so the time (and a tenant's latency and SLO
/// burn) blames the layer, not the data generator. A composed batch is
/// also recorded against its tenant, which writes a flight event.
fn time_batch<B: StoreBackend>(
    layer: &EncryptionLayer<B>,
    batch: &Batch,
) -> Result<Duration, String> {
    let started = Instant::now();
    let done = if batch.write {
        layer.batch_write(&batch.writes)
    } else {
        layer.batch_read(&batch.addrs).map(drop)
    };
    let elapsed = started.elapsed();
    if let Err(err) = done {
        let op = if batch.write {
            "batch_write"
        } else {
            "batch_read"
        };
        return Err(format!("{op} failed: {err}"));
    }
    if let Some(tenant) = batch.tenant {
        let nanos = elapsed.as_nanos() as u64;
        layer.record_tenant_batch(tenant, batch.write, nanos, batch.addrs.len() as u64);
    }
    Ok(elapsed)
}

/// What the bench measured, for `--stats-json` to fold into the artifact
/// next to the telemetry snapshot.
pub struct BenchReport {
    pub write: Reps,
    pub read: Reps,
    /// Per-block latency of every timed call of the counted reps,
    /// `[read, write]`.
    latency: [Log2Histogram; 2],
    pub rekey_blocks: u64,
    pub rekey_blocks_per_sec: f64,
    /// `--tenants` runs only: FNV-1a digest of the composed stream and
    /// how many batches it covered (byte-deterministic per seed).
    pub tenant_stream: Option<(u64, u64)>,
}

impl BenchReport {
    /// The per-block latencies of `op`'s timed calls (read or write).
    pub fn latency(&self, op: MemOp) -> &Log2Histogram {
        &self.latency[(op == MemOp::Write) as usize]
    }
}

/// The timed reps of one side (reads or writes): each rep's blocks and
/// blocks/s. The fastest rep is the result; the others show the spread.
#[derive(Default)]
pub struct Reps(Vec<(u64, f64)>);

impl Reps {
    pub fn rates(&self) -> Vec<f64> {
        self.0.iter().map(|&(_, rate)| rate).collect()
    }

    /// The fastest rep: its blocks and its rate.
    pub fn best(&self) -> (u64, f64) {
        let faster = |best: (u64, f64), rep: (u64, f64)| if rep.1 > best.1 { rep } else { best };
        self.0.iter().copied().fold((0, 0.0), faster)
    }

    /// How much faster the fastest rep ran than the slowest, in percent
    /// (for a fixed rep size: the slowest rep's extra time).
    pub fn spread_pct(&self) -> f64 {
        let slowest = self.0.iter().map(|rep| rep.1).fold(f64::INFINITY, f64::min);
        if slowest.is_finite() && slowest > 0.0 {
            (self.best().1 - slowest) / slowest * 100.0
        } else {
            0.0
        }
    }
}

/// Batch write/read throughput, op latency percentiles, and the rekey
/// sweep rate, over the uniform stream or composed tenant traffic.
/// Every batch is timed on its own, and reads and writes are summed
/// separately, so the printed rows are comparable between the two
/// sources (and to the ci.sh overhead gate's awk).
pub fn bench<B: StoreBackend>(
    args: &MemArgs,
    layer: &EncryptionLayer<B>,
) -> Result<BenchReport, String> {
    let mut source = BatchSource::new(args, layer.blocks());
    let mut watch = args.watch.then(|| Watch::new(args, layer));
    let mut batch = Batch::default();

    // Rep 0 is a warm-up that is not counted: it pays the one-time costs
    // (page faults, file page-cache fills, verified-page cache fills) so
    // the counted reps measure steady state. Of those the fastest wins —
    // host noise only ever slows a run down (same reasoning as the perf
    // gate's measure_best) — but the per-rep rates are kept so the
    // artifact records the spread instead of silently folding a noisy
    // host into the best. Every rep issues equal work: the uniform
    // stream draws the same counts each rep, and composed traffic replays
    // the rep the warm-up composed.
    let (mut write, mut read) = (Reps::default(), Reps::default());
    // Each counted call's wall time shared by its blocks, [read, write]:
    // this loop times every call, where the layer samples a few.
    let mut latency = [Log2Histogram::new(), Log2Histogram::new()];
    for rep in 0..=args.reps {
        // [read, write] blocks and summed batch time of this rep.
        let mut sides = [(0u64, Duration::ZERO); 2];
        let mut issued = 0usize;
        while source.fill(issued, &mut batch) {
            let elapsed = time_batch(layer, &batch)?;
            let blocks = batch.addrs.len() as u64;
            let side = &mut sides[batch.write as usize];
            side.0 += blocks;
            side.1 += elapsed;
            if rep > 0 && blocks > 0 {
                let ns = elapsed.as_nanos() as u64 / blocks;
                latency[batch.write as usize].record_n(TimeDelta::from_ns(ns), blocks);
            }
            issued += batch.addrs.len();
            if let Some(watch) = &mut watch {
                watch.tick(if batch.write { "write" } else { "read" }, layer);
            }
        }
        // One SLO burn window per rep: window rolls are the bench's
        // epoch boundary (no table to roll under telemetry-off).
        if let Some(tenants) = layer.tenants() {
            tenants.roll_windows();
        }
        if rep == 0 {
            continue;
        }
        for (reps, (blocks, time)) in [(&mut read, sides[0]), (&mut write, sides[1])] {
            if blocks > 0 && time > Duration::ZERO {
                reps.0.push((blocks, blocks as f64 / time.as_secs_f64()));
            }
        }
    }

    let started = Instant::now();
    let rekey = layer
        .rekey(master_key(args.seed, b"mem/bench-rekey"))
        .map_err(|err| format!("rekey failed: {err}"))?;
    let rekey_rate = rekey.blocks as f64 / started.elapsed().as_secs_f64();

    let tenants = match args.tenants {
        Some(count) => format!(
            ", {count} tenants (skew {:.2}, top {} exact)",
            args.skew,
            args.tenant_top.min(count as usize)
        ),
        None => String::new(),
    };
    let reps = if args.reps > 1 {
        format!(", best of {} reps", args.reps)
    } else {
        String::new()
    };
    println!(
        "clme-mem bench: {} blocks{tenants}, batches of 64, backend {}, 1 warm-up pass{reps}",
        layer.blocks(),
        args.backend,
    );
    println!(
        "  {:<12} {:>10} {:>14} {:>12}",
        "op", "blocks", "blocks/s", "MiB/s"
    );
    for (label, (blocks, rate)) in [
        ("batch_write", write.best()),
        ("batch_read", read.best()),
        ("rekey", (rekey.blocks, rekey_rate)),
    ] {
        let mib = rate * 64.0 / (1024.0 * 1024.0);
        println!("  {label:<12} {blocks:>10} {rate:>14.0} {mib:>12.1}");
    }
    if args.reps > 1 {
        println!(
            "  spread over {} reps: write {:.1}%  read {:.1}% (max rep vs best)",
            args.reps,
            write.spread_pct(),
            read.spread_pct(),
        );
    }
    let tenant_stream = source.digest();
    if let Some((digest, batches)) = tenant_stream {
        println!("  tenant stream digest {digest:#018x} over {batches} batches");
    }

    let report = BenchReport {
        write,
        read,
        latency,
        rekey_blocks: rekey.blocks,
        rekey_blocks_per_sec: rekey_rate,
        tenant_stream,
    };
    // Per-block latency percentiles of the counted reps' calls, pooled.
    let ops = [MemOp::Read, MemOp::Write];
    if ops.iter().any(|&op| report.latency(op).count() > 0) {
        println!(
            "  {:<12} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "latency", "samples", "p50_ns", "p95_ns", "p99_ns", "mean_ns", "max_ns"
        );
        for op in ops {
            hist_row("  ", 12, op.name(), report.latency(op));
        }
    }
    Ok(report)
}

/// Prints one telemetry epoch row per `--epoch-ms` while the bench
/// runs: the delta snapshot since the previous row (SeriesRecorder
/// idiom — epoch k is its own interval, not cumulative).
struct Watch {
    interval: Duration,
    last_tick: Instant,
    last_snap: clme_mem::MemMetricsSnapshot,
    epoch: usize,
}

impl Watch {
    fn new<B: StoreBackend>(args: &MemArgs, layer: &EncryptionLayer<B>) -> Watch {
        println!(
            "  {:<6} {:>6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "epoch", "phase", "writes", "reads", "wr_p50ns", "wr_p99ns", "rd_p50ns", "rd_p99ns"
        );
        Watch {
            interval: Duration::from_millis(args.epoch_ms),
            last_tick: Instant::now(),
            last_snap: layer.metrics_snapshot(),
            epoch: 0,
        }
    }

    fn tick<B: StoreBackend>(&mut self, phase: &str, layer: &EncryptionLayer<B>) {
        if self.last_tick.elapsed() < self.interval {
            return;
        }
        let snap = layer.metrics_snapshot();
        let delta = snap.delta_since(&self.last_snap);
        let p = |op: MemOp, q: f64| delta.op(op).latency.percentile_ps(q) as f64 / 1000.0;
        println!(
            "  {:<6} {:>6} {:>9} {:>9} {:>9.0} {:>9.0} {:>9.0} {:>9.0}",
            self.epoch,
            phase,
            delta.blocks_written,
            delta.blocks_read,
            p(MemOp::Write, 0.5),
            p(MemOp::Write, 0.99),
            p(MemOp::Read, 0.5),
            p(MemOp::Read, 0.99),
        );
        self.epoch += 1;
        self.last_snap = snap;
        self.last_tick = Instant::now();
    }
}
