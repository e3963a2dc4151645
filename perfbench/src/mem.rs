//! The `mem-*` workloads: closed-loop clients over `EncryptionLayer`.
//!
//! * `mem-hot-read` — a vec store of 256 pages (half the verified-page
//!   cache) written and read once during set-up, then 100% Zipf reads
//!   from one client: the cache copy path does the work.
//! * `mem-mixed-cold` — a file store of 2048 pages (4× the cache, 32×
//!   the file page cache) under `TenantComposer` traffic from one
//!   client: tree walk, pads, MACs, commit and file I/O do the work,
//!   writes beside reads.
//!
//! Every read is checked against the model outside the timed call, and
//! a full read-back after the run checks the final state.

use crate::calib::{self, Calibrator, Mark, Scaled};
use crate::oracle::Model;
use crate::stats::{self, ratio, summarize};
use crate::trace::{self, Accounting, ThreadTrace, TimedStore};
use crate::{Args, Report, SCRATCH_DIR};
use clme_mem::{
    Block, CacheCause, EncryptionLayer, FileBackend, LayerOptions, MemError, MemMetricsSnapshot,
    MemOp, MemStage, MemoryAdt, StoreBackend, VecBackend, PAGE_BLOCKS,
};
use clme_obs::Log2Histogram;
use clme_types::rng::SplitMix64;
use clme_workloads::tenants::{TenantComposer, TenantTrafficConfig, DEFAULT_SKEW};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Blocks per call.
const BATCH: usize = 64;

/// Composed batches per tenant epoch. Every epoch re-draws the tenant
/// population (heavy hitters, read mixes, hot pages) from a seed derived
/// from the run seed, so one run averages over many populations instead
/// of resting on whichever tenant one seed made heaviest.
const EPOCH_BATCHES: u64 = 128;

/// Which `mem-*` workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// `mem-hot-read`.
    HotRead,
    /// `mem-mixed-cold`.
    MixedCold,
}

impl Shape {
    fn pages(self) -> u64 {
        match self {
            Shape::HotRead => 256,
            Shape::MixedCold => 2048,
        }
    }

    fn blocks(self) -> u64 {
        self.pages() * PAGE_BLOCKS
    }

    /// Client threads. One each: with two, a client that the host
    /// descheduled while it held a shard lock stalled the other for
    /// milliseconds, which moved mixed-cold's p99 by up to 4× between
    /// runs of the same code.
    fn clients(self) -> u64 {
        1
    }

    /// Untimed calls each client makes before its timed phase, so the
    /// caches reach their steady state (hot-read fills its cache during
    /// set-up instead).
    fn warm_calls(self) -> u64 {
        match self {
            Shape::HotRead => 0,
            Shape::MixedCold => 400,
        }
    }

    /// Set-ups per untraced run; `setup_s` is their median.
    fn setup_reps(self) -> usize {
        match self {
            Shape::HotRead => 11,
            Shape::MixedCold => 5,
        }
    }

    /// Latency samples each client can hold: several times what a
    /// minute-long run records on a current host.
    fn sample_cap(self) -> usize {
        match self {
            Shape::HotRead => 1 << 22,
            Shape::MixedCold => 1 << 18,
        }
    }

    fn tenant_config(self, seed: u64) -> TenantTrafficConfig {
        TenantTrafficConfig {
            tenants: 32,
            seed,
            skew: DEFAULT_SKEW,
            pages_per_tenant: self.pages() / 32,
            page_blocks: PAGE_BLOCKS,
            batch_blocks: BATCH,
        }
    }
}

/// The layer key, derived from the seed.
fn master_key(seed: u64) -> [u8; 32] {
    let mut rng = SplitMix64::new(SplitMix64::new(seed).derive(b"perfbench/key"));
    let mut key = [0u8; 32];
    for lane in key.chunks_exact_mut(8) {
        lane.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    key
}

/// Zipf page popularity over a seeded page permutation (hot-read).
struct ZipfReads {
    rng: SplitMix64,
    cum: Vec<f64>,
    perm: Vec<u64>,
}

impl ZipfReads {
    fn new(seed: u64, pages: u64) -> ZipfReads {
        let root = SplitMix64::new(seed);
        let mut perm: Vec<u64> = (0..pages).collect();
        let mut shuffle = SplitMix64::new(root.derive(b"perfbench/hot/perm"));
        for i in (1..perm.len()).rev() {
            perm.swap(i, shuffle.below(i as u64 + 1) as usize);
        }
        let mut acc = 0.0;
        let cum = (0..pages)
            .map(|rank| {
                acc += 1.0 / ((rank + 1) as f64).powf(DEFAULT_SKEW);
                acc
            })
            .collect();
        ZipfReads {
            rng: SplitMix64::new(root.derive(b"perfbench/hot/stream")),
            cum,
            perm,
        }
    }

    fn next(&mut self) -> Vec<u64> {
        let total = *self.cum.last().expect("at least one page");
        (0..BATCH)
            .map(|_| {
                let u = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
                let rank = self
                    .cum
                    .partition_point(|&c| c <= u)
                    .min(self.cum.len() - 1);
                self.perm[rank] * PAGE_BLOCKS + self.rng.below(PAGE_BLOCKS)
            })
            .collect()
    }
}

/// The composer configuration of tenant epoch `epoch` (epoch 0 uses the
/// run seed itself).
fn epoch_config(base: TenantTrafficConfig, epoch: u64) -> TenantTrafficConfig {
    let seed = match epoch {
        0 => base.seed,
        _ => SplitMix64::new(base.seed).derive(&epoch.to_le_bytes()),
    };
    TenantTrafficConfig { seed, ..base }
}

/// One client's share of the composed tenant stream: every client runs
/// the whole composer and keeps the tenants of its parity, so each
/// tenant's batches stay in stream order whatever the timing.
struct TenantShard {
    base: TenantTrafficConfig,
    comp: TenantComposer,
    epoch: u64,
    client: u64,
    clients: u64,
    /// The stream digest of every finished epoch.
    digests: Vec<u64>,
}

impl TenantShard {
    fn new(base: TenantTrafficConfig, client: u64, clients: u64) -> TenantShard {
        TenantShard {
            base,
            comp: TenantComposer::new(base),
            epoch: 0,
            client,
            clients,
            digests: Vec::new(),
        }
    }

    fn next(&mut self) -> (bool, Vec<u64>) {
        loop {
            if self.comp.batches() == EPOCH_BATCHES {
                self.digests.push(self.comp.digest());
                self.epoch += 1;
                self.comp = TenantComposer::new(epoch_config(self.base, self.epoch));
            }
            let batch = self.comp.next_batch();
            if batch.tenant % self.clients == self.client {
                return (batch.write, batch.addrs);
            }
        }
    }
}

/// A client's traffic source.
enum Traffic {
    Zipf(ZipfReads),
    Tenants(Box<TenantShard>),
}

impl Traffic {
    /// Client `client`'s traffic for `shape` under `seed`.
    fn new(shape: Shape, seed: u64, client: u64, clients: u64) -> Traffic {
        match shape {
            Shape::HotRead => Traffic::Zipf(ZipfReads::new(seed, shape.pages())),
            Shape::MixedCold => Traffic::Tenants(Box::new(TenantShard::new(
                shape.tenant_config(seed),
                client,
                clients,
            ))),
        }
    }
}

impl Traffic {
    fn next(&mut self) -> (bool, Vec<u64>) {
        match self {
            Traffic::Zipf(z) => (false, z.next()),
            Traffic::Tenants(t) => t.next(),
        }
    }

    /// The digests of the tenant epochs this client finished.
    fn into_digests(self) -> Vec<u64> {
        match self {
            Traffic::Zipf(_) => Vec::new(),
            Traffic::Tenants(t) => t.digests,
        }
    }
}

/// The stream digest of the first tenant epoch under `cfg`.
pub fn stream_digest(cfg: TenantTrafficConfig) -> u64 {
    let mut comp = TenantComposer::new(cfg);
    for _ in 0..EPOCH_BATCHES {
        comp.next_batch();
    }
    comp.digest()
}

/// An empty sample buffer whose `cap` slots are already resident, so
/// the run's peak RSS does not grow with the number of calls it makes.
fn sample_buffer(cap: usize) -> Vec<u32> {
    let mut buf = Vec::with_capacity(cap);
    buf.resize(cap, u32::MAX);
    buf.clear();
    buf
}

/// What one client measured.
#[derive(Default)]
struct ClientOut {
    /// Per-call latency of the timed phase, ns (saturating), up to the
    /// buffer's capacity.
    samples: Vec<u32>,
    blocks_read: u64,
    blocks_written: u64,
    read_call_ns: u64,
    write_call_ns: u64,
    calls: u64,
    failed: u64,
    /// Time of the call windows (host measurements excluded), raw and
    /// scaled to the nominal host.
    time: Scaled,
    digests: Vec<u64>,
    trace: Option<ThreadTrace>,
}

/// The next batch's writes: each address advanced to its next version.
fn writes_for(model: &Model, write: bool, addrs: &[u64]) -> Vec<(u64, Block)> {
    if write {
        addrs.iter().map(|&a| (a, model.next_write(a))).collect()
    } else {
        Vec::new()
    }
}

/// One closed-loop call; a read returns its blocks.
fn call<B: StoreBackend>(
    layer: &EncryptionLayer<B>,
    write: bool,
    addrs: &[u64],
    writes: &[(u64, Block)],
) -> Result<Option<Vec<Block>>, MemError> {
    if write {
        layer.batch_write(writes).map(|()| None)
    } else {
        layer.batch_read(addrs).map(Some)
    }
}

/// Whether a call succeeded and every block it read matches the model.
fn call_ok(model: &Model, addrs: &[u64], result: Result<Option<Vec<Block>>, MemError>) -> bool {
    match result {
        Ok(Some(got)) => reads_match(model, addrs, &got),
        Ok(None) => true,
        Err(_) => false,
    }
}

fn reads_match(model: &Model, addrs: &[u64], got: &[Block]) -> bool {
    addrs.len() == got.len() && addrs.iter().zip(got).all(|(&a, b)| model.expected(a) == *b)
}

/// Runs one client: `warm` untimed calls, then calls until `dur` has
/// passed, keeping up to `cap` latency samples. With a trace, every
/// call is a span and the time between calls is driver time.
fn client<B: StoreBackend>(
    layer: &EncryptionLayer<B>,
    model: &Model,
    mut traffic: Traffic,
    (warm, cap): (u64, usize),
    dur: Duration,
    mut trace: Option<ThreadTrace>,
) -> ClientOut {
    let mut out = ClientOut {
        samples: sample_buffer(cap),
        ..ClientOut::default()
    };
    let mut cal = Calibrator::new();
    for _ in 0..warm {
        let (write, addrs) = traffic.next();
        let writes = writes_for(model, write, &addrs);
        let ok = call_ok(model, &addrs, call(layer, write, &addrs, &writes));
        out.calls += 1;
        out.failed += u64::from(!ok);
    }
    cal.measure();
    let mut mark = Mark::now();
    let deadline = mark.at + dur;
    let mut until = mark.at + calib::WINDOW;
    let mut first = 0;
    let mut driver_from = mark.at;
    // Windows of calls alternate with measurements of the host; only
    // the windows count as the phase's time.
    loop {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        if now >= until {
            close_window(&mut out, &mut cal, &mark, first);
            mark = Mark::now();
            until = mark.at + calib::WINDOW;
            first = out.samples.len();
            driver_from = mark.at;
        }
        let (write, addrs) = traffic.next();
        let writes = writes_for(model, write, &addrs);
        let op = trace.as_mut().map(ThreadTrace::begin_call);
        let t0 = Instant::now();
        let result = call(layer, write, &addrs, &writes);
        let t1 = Instant::now();
        let ns = t1.duration_since(t0).as_nanos() as u64;
        if let (Some(tr), Some(op)) = (trace.as_mut(), op) {
            let name = if write {
                "layer.batch_write"
            } else {
                "layer.batch_read"
            };
            tr.end_call(op, name, t0, t1);
        }
        if out.samples.len() < out.samples.capacity() {
            out.samples.push(u32::try_from(ns).unwrap_or(u32::MAX));
        }
        let ok = call_ok(model, &addrs, result);
        out.calls += 1;
        out.failed += u64::from(!ok);
        if write {
            out.blocks_written += addrs.len() as u64;
            out.write_call_ns += ns;
        } else {
            out.blocks_read += addrs.len() as u64;
            out.read_call_ns += ns;
        }
        if let Some(tr) = trace.as_mut() {
            let checked = Instant::now();
            tr.driver_ns +=
                (t0.duration_since(driver_from) + checked.duration_since(t1)).as_nanos() as u64;
            driver_from = checked;
        }
    }
    close_window(&mut out, &mut cal, &mark, first);
    if let Some(tr) = trace.as_mut() {
        tr.wall_ns = out.time.raw_ns as u64;
    }
    out.digests = traffic.into_digests();
    out.trace = trace;
    out
}

/// Ends the window of calls that began at `mark`: measures the host,
/// adds the window's time, and scales the window's samples (those from
/// index `first` on) to the nominal host's speed.
fn close_window(out: &mut ClientOut, cal: &mut Calibrator, mark: &Mark, first: usize) {
    let took = mark.end();
    let factor = cal.interval_factor();
    out.time.add(took, factor);
    for s in &mut out.samples[first..] {
        *s = (f64::from(*s) * factor).round() as u32;
    }
}

/// Builds a fresh layer over `backend` and brings it to the workload's
/// starting state (hot-read: every block written once, then read once
/// so the verified-page cache holds the whole store).
fn build<B: StoreBackend>(
    shape: Shape,
    seed: u64,
    backend: B,
) -> Result<(EncryptionLayer<B>, Model), String> {
    let blocks = shape.blocks();
    let layer =
        EncryptionLayer::with_options(backend, blocks, master_key(seed), LayerOptions::default())
            .map_err(|e| format!("layer set-up: {e}"))?;
    let model = match shape {
        Shape::MixedCold => Model::new(seed, blocks, 0),
        Shape::HotRead => {
            let model = Model::new(seed, blocks, 0);
            for page in 0..shape.pages() {
                let addrs: Vec<u64> = (page * PAGE_BLOCKS..(page + 1) * PAGE_BLOCKS).collect();
                let writes = writes_for(&model, true, &addrs);
                layer
                    .batch_write(&writes)
                    .map_err(|e| format!("set-up write: {e}"))?;
            }
            for page in 0..shape.pages() {
                let addrs: Vec<u64> = (page * PAGE_BLOCKS..(page + 1) * PAGE_BLOCKS).collect();
                let got = layer
                    .batch_read(&addrs)
                    .map_err(|e| format!("set-up read: {e}"))?;
                if !reads_match(&model, &addrs, &got) {
                    return Err(format!("set-up read-back of page {page} differs"));
                }
            }
            model
        }
    };
    Ok((layer, model))
}

/// A fresh backend for set-up `rep`.
trait MakeBackend {
    type B: StoreBackend;
    fn make(&self, rep: usize) -> Result<Self::B, String>;
}

struct Vecs(u64);

impl MakeBackend for Vecs {
    type B = VecBackend;
    fn make(&self, _rep: usize) -> Result<VecBackend, String> {
        Ok(VecBackend::for_blocks(self.0))
    }
}

struct Files {
    blocks: u64,
}

impl Files {
    fn path(&self, rep: usize) -> PathBuf {
        Path::new(SCRATCH_DIR).join(format!("store-{}-{rep}.clme", std::process::id()))
    }
}

impl MakeBackend for Files {
    type B = FileBackend;
    fn make(&self, rep: usize) -> Result<FileBackend, String> {
        std::fs::create_dir_all(SCRATCH_DIR).map_err(|e| format!("scratch dir: {e}"))?;
        FileBackend::create_for_blocks(self.path(rep), self.blocks)
            .map_err(|e| format!("file store: {e}"))
    }
}

impl Drop for Files {
    fn drop(&mut self) {
        for rep in 0..8 {
            let _ = std::fs::remove_file(self.path(rep));
        }
    }
}

/// Everything measured over one timed phase.
struct Phase {
    clients: Vec<ClientOut>,
    delta: MemMetricsSnapshot,
    /// Final read-back: (pages checked, pages wrong).
    sweep: (u64, u64),
    /// The expected digest of the first tenant epoch.
    digest: u64,
}

impl Phase {
    fn blocks(&self) -> u64 {
        self.clients
            .iter()
            .map(|c| c.blocks_read + c.blocks_written)
            .sum()
    }

    /// Blocks per second on the nominal host, over the slowest client's
    /// scaled window time.
    fn blocks_per_s(&self) -> f64 {
        let wall_ns = self.clients.iter().map(|c| c.time.ns).fold(0.0, f64::max);
        ratio(self.blocks() as f64 * 1e9, wall_ns)
    }

    /// Blocks per second on this host.
    fn raw_blocks_per_s(&self) -> f64 {
        let wall_ns = self
            .clients
            .iter()
            .map(|c| c.time.raw_ns)
            .fold(0.0, f64::max);
        ratio(self.blocks() as f64 * 1e9, wall_ns)
    }

    /// The clients' time-weighted speed factor.
    fn factor(&self) -> f64 {
        self.clients.iter().map(|c| c.time).sum::<Scaled>().factor()
    }

    /// The clients' CPU time in their windows, scaled to the nominal
    /// host, ns.
    fn cpu_ns(&self) -> f64 {
        self.clients.iter().map(|c| c.time.cpu_ns).sum()
    }

    fn attempted(&self) -> u64 {
        self.clients.iter().map(|c| c.calls).sum::<u64>() + self.sweep.0 + self.checks().0
    }

    fn failed(&self) -> u64 {
        self.clients.iter().map(|c| c.failed).sum::<u64>() + self.sweep.1 + self.checks().1
    }

    /// Whole-run checks, as (attempted, failed): every client composed
    /// the same stream (first epoch equal to the digest computed up
    /// front, later epochs equal across clients), and the cache was
    /// never bypassed.
    fn checks(&self) -> (u64, u64) {
        let first = &self.clients[0].digests;
        let streams: Vec<bool> = self
            .clients
            .iter()
            .filter(|c| !c.digests.is_empty())
            .map(|c| {
                c.digests[0] == self.digest && c.digests.iter().zip(first).all(|(a, b)| a == b)
            })
            .collect();
        let bad_streams = streams.iter().filter(|ok| !**ok).count() as u64;
        let bypassed = u64::from(self.delta.cache.bypasses != 0);
        (streams.len() as u64 + 1, bad_streams + bypassed)
    }
}

/// Runs the clients against `layer` for `dur`, then reads every block
/// back against the model.
fn phase<B: StoreBackend>(
    shape: Shape,
    seed: u64,
    layer: &EncryptionLayer<B>,
    model: &Model,
    dur: Duration,
    epoch: Option<Instant>,
) -> Phase {
    let digest = stream_digest(shape.tenant_config(seed));
    let before = layer.metrics_snapshot();
    let clients: Vec<ClientOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shape.clients())
            .map(|id| {
                let traffic = Traffic::new(shape, seed, id, shape.clients());
                let trace = epoch.map(|e| ThreadTrace::new(e, id as usize));
                // Client 0's buffer also takes the others' samples when
                // they are merged for the quantiles.
                let cap = shape.sample_cap() * if id == 0 { shape.clients() as usize } else { 1 };
                scope.spawn(move || {
                    client(layer, model, traffic, (shape.warm_calls(), cap), dur, trace)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let delta = layer.metrics_snapshot().delta_since(&before);
    let mut sweep = (0, 0);
    for page in 0..shape.pages() {
        let addrs: Vec<u64> = (page * PAGE_BLOCKS..(page + 1) * PAGE_BLOCKS).collect();
        let ok = layer
            .batch_read(&addrs)
            .is_ok_and(|got| reads_match(model, &addrs, &got));
        sweep.0 += 1;
        sweep.1 += u64::from(!ok);
    }
    Phase {
        clients,
        delta,
        sweep,
        digest,
    }
}

/// Runs a `mem-*` workload.
pub fn run(shape: Shape, args: &Args) -> Result<Report, String> {
    match shape {
        Shape::HotRead => run_with(shape, args, &Vecs(shape.blocks())),
        Shape::MixedCold => run_with(
            shape,
            args,
            &Files {
                blocks: shape.blocks(),
            },
        ),
    }
}

fn run_with<M: MakeBackend>(shape: Shape, args: &Args, backends: &M) -> Result<Report, String> {
    let seed = args.seed;
    let mut report = Report::default();
    if shape == Shape::MixedCold {
        let digest = stream_digest(shape.tenant_config(seed));
        report
            .facts
            .push(("stream_digest", format!("\"{digest:#018x}\"")));
    }
    if args.trace {
        traced(shape, args, backends, &mut report)?;
        return Ok(report);
    }

    let mut cal = Calibrator::new();
    let (mut setups, mut raw_setups) = (Vec::new(), Vec::new());
    let mut built = None;
    for rep in 0..shape.setup_reps() {
        drop(built.take());
        let (layer, scaled, raw) = calib::timed(&mut cal, || -> Result<_, String> {
            build(shape, seed, backends.make(rep)?)
        });
        built = Some(layer?);
        setups.push(scaled);
        raw_setups.push(raw);
    }
    let (layer, model) = built.expect("at least one set-up");
    let mut p = phase(
        shape,
        seed,
        &layer,
        &model,
        Duration::from_secs_f64(args.seconds),
        None,
    );
    let mut samples = std::mem::take(&mut p.clients[0].samples);
    for c in &p.clients[1..] {
        samples.extend_from_slice(&c.samples);
    }
    if samples.is_empty() {
        return Err("no call completed in the timed phase".into());
    }
    let s = summarize(&mut samples);
    report.attempted = p.attempted();
    report.failed = p.failed();
    report.end_to_end = vec![
        ("setup_s", stats::median_f64(&setups)),
        ("items_per_s", p.blocks_per_s()),
        ("call_p50_us", s.p50 / 1e3),
        ("call_tail_us", s.tail / 1e3),
        (
            "cpu_us_per_item",
            ratio(p.cpu_ns() / 1e3, p.blocks() as f64),
        ),
    ];
    report.facts.push(("setup_s_each", format!("{setups:?}")));
    report.raw_facts(&raw_setups, p.raw_blocks_per_s(), p.factor());
    report.facts.push(("calls", s.n.to_string()));
    report
        .facts
        .push(("tail_percentile", format!("{}", s.tail_q * 100.0)));
    Ok(report)
}

/// The traced run: an untraced phase for the overhead baseline, then a
/// phase over a fresh layer whose store is wrapped in [`TimedStore`].
fn traced<M: MakeBackend>(
    shape: Shape,
    args: &Args,
    backends: &M,
    report: &mut Report,
) -> Result<(), String> {
    let seed = args.seed;
    let total = Duration::from_secs_f64(args.seconds);
    let (plain_layer, plain_model) = build(shape, seed, backends.make(0)?)?;
    let plain = phase(shape, seed, &plain_layer, &plain_model, total / 3, None);
    drop(plain_layer);

    let epoch = Instant::now();
    let (layer, model) = build(shape, seed, TimedStore::new(backends.make(1)?, epoch))?;
    let mut p = phase(shape, seed, &layer, &model, total - total / 3, Some(epoch));
    let parity = wrapper_parity(shape, seed, backends)?;
    report.attempted = plain.attempted() + p.attempted() + 1;
    report.failed = plain.failed() + p.failed() + u64::from(!parity);

    let traces: Vec<ThreadTrace> = p
        .clients
        .iter_mut()
        .filter_map(|c| c.trace.take())
        .collect();
    let acc = Accounting::of(&traces);
    let d = &p.delta;
    let blocks_read: u64 = p.clients.iter().map(|c| c.blocks_read).sum();
    let blocks_written: u64 = p.clients.iter().map(|c| c.blocks_written).sum();
    let read_ns: u64 = p.clients.iter().map(|c| c.read_call_ns).sum();
    let write_ns: u64 = p.clients.iter().map(|c| c.write_call_ns).sum();
    let snap_blocks = (d.blocks_read + d.blocks_written) as f64;
    let stage = |op: MemOp, st: MemStage| d.op(op).stages[st as usize].mean_ps() / 1e3;
    let visits = (d.cache.hits + d.cache.partial_hits + d.cache.misses) as f64;
    let (wait_mean, wait_max) = merged(&d.lock_wait);
    let (hold_mean, _) = merged(&d.lock_hold);
    report.per_layer = vec![
        (
            "layer.read_ns_per_block",
            ratio(read_ns as f64, blocks_read as f64),
        ),
        (
            "layer.write_ns_per_block",
            ratio(write_ns as f64, blocks_written as f64),
        ),
        (
            "layer.self_ns_per_block",
            ratio(
                (acc.call_ns - acc.child_ns) as f64,
                (blocks_read + blocks_written) as f64,
            ),
        ),
        ("layer.page_rolls", d.page_rolls as f64),
        (
            "layer.counterless_blocks",
            (d.counterless_reads + d.counterless_writes) as f64,
        ),
        ("layer.integrity_errors", d.integrity_errors as f64),
        ("cache.hit_rate", d.cache.hit_rate()),
        (
            "cache.partial_hit_rate",
            ratio(d.cache.partial_hits as f64, visits),
        ),
        ("cache.evictions", d.cache.evictions as f64),
        (
            "cache.write_invalidations",
            d.cache.invalidated(CacheCause::Write) as f64,
        ),
        ("cache.bypasses", d.cache.bypasses as f64),
        (
            "stage.read.tree_walk_ns",
            stage(MemOp::Read, MemStage::TreeWalk),
        ),
        (
            "stage.read.mac_verify_ns",
            stage(MemOp::Read, MemStage::MacVerify),
        ),
        (
            "stage.read.pad_gen_ns",
            stage(MemOp::Read, MemStage::PadGen),
        ),
        (
            "stage.write.tree_walk_ns",
            stage(MemOp::Write, MemStage::TreeWalk),
        ),
        (
            "stage.write.pad_gen_ns",
            stage(MemOp::Write, MemStage::PadGen),
        ),
        (
            "stage.write.commit_ns",
            stage(MemOp::Write, MemStage::Commit),
        ),
        (
            "store.read_ns_per_word",
            ratio(acc.store.read_ns as f64, acc.store.reads as f64),
        ),
        (
            "store.write_ns_per_word",
            ratio(acc.store.write_ns as f64, acc.store.writes as f64),
        ),
        (
            "store.words_read_per_block",
            ratio(d.store.words_read as f64, snap_blocks),
        ),
        (
            "store.words_written_per_block",
            ratio(d.store.words_written as f64, d.blocks_written as f64),
        ),
        ("store.page_cache_hit_rate", d.store.page_cache_hit_rate()),
        ("store.file_reads", d.store.file_reads as f64),
        ("store.file_writes", d.store.file_writes as f64),
        ("lock.wait_ns_mean", wait_mean),
        ("lock.wait_ns_max", wait_max),
        ("lock.hold_ns_mean", hold_mean),
        ("driver.calls", acc.calls as f64),
        (
            "driver.ns_per_batch",
            ratio(acc.driver_ns as f64, acc.calls as f64),
        ),
        ("driver.unexplained_frac", acc.unexplained_frac()),
        (
            "trace_overhead_frac",
            1.0 - ratio(p.blocks_per_s(), plain.blocks_per_s()),
        ),
    ];
    let path = trace::trace_path(&args.workload);
    trace::write_chrome(&path, &traces).map_err(|e| format!("trace file: {e}"))?;
    report
        .facts
        .push(("trace_file", format!("\"{}\"", path.display())));
    report.facts.push((
        "accounting_ns",
        format!(
            "{{\"wall\": {}, \"layer_self\": {}, \"store\": {}, \"driver\": {}, \"unexplained\": {}}}",
            acc.wall_ns,
            acc.call_ns - acc.child_ns,
            acc.child_ns,
            acc.driver_ns,
            acc.wall_ns as i64 - (acc.call_ns + acc.driver_ns) as i64
        ),
    ));
    Ok(())
}

/// Mean and max over a set of histograms, ns.
fn merged(hists: &[Log2Histogram]) -> (f64, f64) {
    let count: u64 = hists.iter().map(Log2Histogram::count).sum();
    let sum: f64 = hists.iter().map(|h| h.mean_ps() * h.count() as f64).sum();
    let max = hists.iter().map(Log2Histogram::max_ps).max().unwrap_or(0);
    (ratio(sum, count as f64) / 1e3, max as f64 / 1e3)
}

/// Replays a fixed prefix of the workload's traffic through a plain
/// and a [`TimedStore`]-wrapped layer and checks that every counter the
/// layer and store keep comes out the same: the wrapper must not change
/// what it measures.
fn wrapper_parity<M: MakeBackend>(shape: Shape, seed: u64, backends: &M) -> Result<bool, String> {
    fn replay<B: StoreBackend>(
        shape: Shape,
        seed: u64,
        backend: B,
    ) -> Result<(String, u64), String> {
        let (layer, model) = build(shape, seed, backend)?;
        let mut traffic = Traffic::new(shape, seed, 0, 1);
        let before = layer.metrics_snapshot();
        for _ in 0..256 {
            let (write, addrs) = traffic.next();
            let writes = writes_for(&model, write, &addrs);
            if !call_ok(&model, &addrs, call(&layer, write, &addrs, &writes)) {
                return Err("parity replay: a call failed or read wrong bytes".into());
            }
        }
        let d = layer.metrics_snapshot().delta_since(&before);
        let counts = format!(
            "{} {} {} {} {:?} {:?} {} {}",
            d.blocks_read,
            d.blocks_written,
            d.batch_reads,
            d.batch_writes,
            d.cache,
            d.store,
            d.page_rolls,
            layer.backend().kind()
        );
        Ok((counts, layer.root()))
    }
    let plain = replay(shape, seed, backends.make(2)?)?;
    let wrapped = replay(
        shape,
        seed,
        TimedStore::new(backends.make(3)?, Instant::now()),
    )?;
    if plain != wrapped {
        eprintln!("perfbench: wrapper parity differs:\n  plain   {plain:?}\n  wrapped {wrapped:?}");
    }
    Ok(plain == wrapped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_epoch_digests_are_pinned() {
        // The mixed-cold stream of a seed must never change silently:
        // a composer change that moves these moves every result.
        let digest = |seed| stream_digest(Shape::MixedCold.tenant_config(seed));
        assert_eq!(
            format!("{:#x} {:#x}", digest(1), digest(2)),
            "0x58828807ea1eeea2 0xd3c7791299c8763a"
        );
    }

    #[test]
    fn parity_shards_keep_each_tenants_batches_in_stream_order() {
        let cfg = Shape::MixedCold.tenant_config(5);
        let mut whole = TenantShard::new(cfg, 0, 1);
        let all: Vec<(bool, Vec<u64>)> = (0..3 * EPOCH_BATCHES).map(|_| whole.next()).collect();
        let blocks_per_tenant = cfg.pages_per_tenant * PAGE_BLOCKS;
        for client in 0..2 {
            let mut shard = TenantShard::new(cfg, client, 2);
            let mine: Vec<_> = all
                .iter()
                .filter(|(_, addrs)| (addrs[0] / blocks_per_tenant) % 2 == client)
                .take(EPOCH_BATCHES as usize)
                .cloned()
                .collect();
            let got: Vec<_> = (0..mine.len()).map(|_| shard.next()).collect();
            assert_eq!(got, mine, "client {client}");
            assert!(!shard.digests.is_empty(), "the shard crossed an epoch");
            assert_eq!(
                shard.digests,
                whole.digests[..shard.digests.len()],
                "epochs compose identically"
            );
        }
        assert_eq!(whole.digests[0], stream_digest(cfg));
    }

    #[test]
    fn zipf_reads_stay_in_the_store_and_follow_the_seed() {
        let pages = Shape::HotRead.pages();
        let mut a = ZipfReads::new(3, pages);
        let mut b = ZipfReads::new(3, pages);
        let mut c = ZipfReads::new(4, pages);
        let batch = a.next();
        assert_eq!(batch.len(), BATCH);
        assert!(batch.iter().all(|&addr| addr < pages * PAGE_BLOCKS));
        assert_eq!(batch, b.next());
        assert_ne!(batch, c.next());
    }
}
