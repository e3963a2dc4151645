//! The encryption layer: counter-light applied to a backing store.
//!
//! # Stored formats
//!
//! *Data words* are [`EncodedBlock`]s — 8 ciphertext lanes, the MAC
//! lane, and the parity lane carrying the EncryptionMetadata word
//! (Section IV-C), so a read learns the block's mode and counter from
//! the block itself. *Counter words* hold a serialized
//! [`CounterBlock`] image sealed by a keyed SHA-3 MAC that also binds
//! the page's integrity-tree leaf count. *Tree-node words* hold eight
//! child counters each; a node's MAC binds its parent's counter, and
//! the topmost parent — the root — lives only inside the layer, which
//! is what defeats wholesale replay of stale metadata.
//!
//! # Verification chain
//!
//! Every read verifies root → tree path → counter word → data word:
//! each hop's MAC is checked before its contents are trusted, the
//! decoded metadata word must match the verified counter exactly, and
//! the block MAC is checked last. The first mismatch aborts with an
//! [`IntegrityError`] naming the stage.
//!
//! One metadata walk serves a read miss, [`counter_of`] and a write
//! batch alike. It reads the untrusted node words on each page's path
//! and the page's counter word, queueing their MAC checks in walk order,
//! then checks them all in one batched tag call: a read miss walks its
//! one page, a write batch all of its pages. The first failing check in
//! walk order is the error, and nothing the walk read from that check
//! on is trusted. A block the verified-page cache
//! holds was verified when it entered the cache, so it skips the chain
//! and the crypto: the lookup copies it from the entry straight into
//! the caller's buffer, and a page visit fetches the keys only when
//! some block still needs the store.
//!
//! Like the paper's on-chip metadata cache, the layer keeps the tree
//! nodes it has verified and trusts them from then on: a read walk, a
//! write batch and [`counter_of`] start below the deepest trusted node
//! on the page's path, and a group commit replaces each node it
//! rewrites with its new value. Whole levels are trusted from the top
//! down while each fits `TRUSTED_LEVEL_NODES` (4,096) nodes. Trust
//! lives beside the verified-page cache and ends with it: a foreign
//! write, an integrity error and a rekey drop both, and a failed commit
//! drops trust. Without the cache (`cache_pages = 0`, or a backend with
//! no write generation) every walk starts at the root.
//!
//! # Locking
//!
//! Pages shard across reader-writer locks (page → shard by modulo);
//! the tree root has its own lock, always taken *after* the shard
//! locks, so disjoint pages proceed in parallel, a page roll (64 blocks
//! re-encrypted under one shard lock) is atomic, and [`rekey`] gets
//! global exclusivity by taking every shard lock in ascending order.
//! A write batch is one group commit: it takes the write locks of the
//! shards it touches, also in ascending order, then the root, and holds
//! them for the whole batch while it verifies each distinct tree node
//! once and rewrites each touched metadata word once.
//!
//! # Observation
//!
//! The data path calls no metric, flight or tenant hook itself: each
//! batch call fills one visit record, adding each page visit's counts
//! to it, and hands it to the layer's observer (`observe.rs`), which
//! makes the call's one sampling decision and folds the record once.
//! The data path reads the clock only when that record is `clocked`:
//! on a sampled call or under an installed span tracer.
//!
//! [`rekey`]: EncryptionLayer::rekey
//! [`counter_of`]: EncryptionLayer::counter_of

use crate::adt::{Block, MemoryAdt, BLOCK_BYTES};
use crate::cache::ClockCache;
use crate::dump::{DumpBundle, DumpContext};
use crate::error::{IntegrityError, MemError, TamperClass};
use crate::flight::FLIGHT_CAPACITY;
use crate::geometry::{Geometry, Region, NODE_ARITY, PAGE_BLOCKS};
use crate::metrics::{CacheCause, MemMetrics, MemMetricsSnapshot, MemOp, MemStage};
use crate::observe::{
    clock, ns_between, CacheServe, Observer, PageTally, PageVisit, ReadMarks, TreeHops, Visit,
};
use crate::store::{StoreBackend, StoredWord, WORD_BYTES};
use crate::tenant::TenantTelemetry;
use clme_counters::split::CounterBlock;
use clme_crypto::keys::KeyMaterial;
use clme_crypto::mac::counterless_mac;
use clme_crypto::otp::xor64;
use clme_crypto::sha3::sha3_tag64_batch;
use clme_ecc::codec;
use clme_ecc::encmeta::{MetaWord, COUNTERLESS_FLAG, MAX_COUNTER};
use clme_ecc::layout::EncodedBlock;
use clme_obs::flight::FlightSnapshot;
use clme_obs::span::SpanTracer;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::Instant;

/// Default capacity of the verified-page read cache, in pages (about
/// 2 MB of plaintext at 64 blocks x 64 bytes per page).
pub const DEFAULT_CACHE_PAGES: usize = 512;

/// Tuning knobs for an [`EncryptionLayer`].
#[derive(Clone, Copy, Debug)]
pub struct LayerOptions {
    /// Counters above this value switch the block to counterless (XTS)
    /// mode permanently — the paper's overflow fallback. The default is
    /// the metadata word's own limit; tests lower it to exercise the
    /// counterless path in a handful of writes.
    pub counter_saturation: u64,
    /// Number of page-shard locks.
    pub shards: usize,
    /// Events the flight recorder retains (its black-box window).
    pub flight_capacity: usize,
    /// Pages the verified-page read cache retains (plaintext plus the
    /// verified counter image, one CLOCK slab per shard). `0` disables
    /// the cache and, with it, the trusted tree nodes: every read then
    /// re-verifies the full chain from the root. The cache
    /// also stays off when the backend keeps no
    /// [`write_generation`](StoreBackend::write_generation) — without
    /// it the layer cannot detect foreign writes underneath it.
    pub cache_pages: usize,
}

impl Default for LayerOptions {
    fn default() -> LayerOptions {
        LayerOptions {
            counter_saturation: MAX_COUNTER as u64,
            shards: 16,
            flight_capacity: FLIGHT_CAPACITY,
            cache_pages: DEFAULT_CACHE_PAGES,
        }
    }
}

/// What a [`EncryptionLayer::rekey`] sweep touched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RekeyReport {
    /// Pages whose metadata was resealed.
    pub pages: u64,
    /// Data blocks re-encrypted.
    pub blocks: u64,
    /// How many of those were counterless at rekey time.
    pub counterless_blocks: u64,
}

/// A tree level of at most this many node words is trusted whole once
/// its nodes are verified. Levels shrink eightfold going up, so the
/// trusted levels are the top ones and hold under 8/7 of this many
/// nodes: a tree of up to 8 x 4,096 = 32,768 pages is trusted in full,
/// and a larger one walks only the levels below.
const TRUSTED_LEVEL_NODES: u64 = 4096;

/// A verified tree node: its counters and the reserved bytes it is
/// resealed with.
#[derive(Clone, Copy)]
struct TreeNode {
    counters: [u64; NODE_ARITY as usize],
    reserved: [u8; 8],
}

/// The tree nodes on a walk's paths, keyed by `(level, group)`: each
/// distinct node is taken from trust or read and MAC-checked once per
/// walk; a write batch then rewrites each once in its group commit.
type VerifiedNodes = BTreeMap<(usize, u64), TreeNode>;

/// The one metadata walk, for a write batch's pages and for the one page
/// of a read miss or [`counter_of`](EncryptionLayer::counter_of): the
/// tree nodes on the walked paths, and the MAC checks of the words it
/// read, queued in walk order so one batched tag call checks them all.
#[derive(Default)]
struct MetadataWalk {
    /// The root counter the walk starts from.
    root: u64,
    /// Pages walked so far: the run index of the page being walked.
    pages: usize,
    /// Every node on the walked paths. A node read from the store is
    /// unverified until its queued check passes.
    nodes: VerifiedNodes,
    /// The hops walked so far, trusted and read.
    hops: TreeHops,
    openings: Vec<Opening>,
    /// Where each queued check falls in the walk.
    at: Vec<WalkPoint>,
}

/// A queued check's place in a walk.
#[derive(Clone, Copy)]
struct WalkPoint {
    /// The walk's page run it belongs to.
    run: usize,
    /// The walk's hops counted up to and including it.
    hops: TreeHops,
    /// The node it vouches for; none for a counter word.
    node: Option<(usize, u64)>,
}

impl MetadataWalk {
    fn queue(&mut self, opening: Opening, node: Option<(usize, u64)>) {
        self.openings.push(opening);
        self.at.push(WalkPoint {
            run: self.pages,
            hops: self.hops,
            node,
        });
    }

    /// Checks every queued MAC in one batched call. On a mismatch, drops
    /// the nodes the failing check and every later one vouch for, rewinds
    /// `hops` to the failing check, and returns its page run and error.
    fn check(&mut self) -> Option<(usize, IntegrityError)> {
        let (i, e) = first_mismatch(&self.openings)?;
        for key in self.at[i..].iter().filter_map(|point| point.node) {
            self.nodes.remove(&key);
        }
        self.hops = self.at[i].hops;
        Some((self.at[i].run, e))
    }

    /// The nodes the walk read from the store, verified once
    /// [`check`](MetadataWalk::check) has passed.
    fn read_nodes(&self) -> impl Iterator<Item = (&(usize, u64), &TreeNode)> {
        let keys = self.at.iter().filter_map(|point| point.node);
        keys.map(|key| self.nodes.get_key_value(&key).expect("a read node"))
    }
}

/// The tree nodes the layer trusts: every node of levels `from..`, once
/// verified. A slot is trusted while its stamp equals `generation`, so
/// a purge is one increment, and a walk that began before a purge
/// cannot trust what it verified.
struct TrustedNodes {
    from: usize,
    generation: u64,
    /// Per trusted level (index `level - from`), by group.
    slots: Vec<Vec<(u64, TreeNode)>>,
}

impl TrustedNodes {
    fn new(geo: &Geometry) -> TrustedNodes {
        // The top level is one node, so some level always fits.
        let from = (0..geo.levels())
            .find(|&level| geo.node_count(level) <= TRUSTED_LEVEL_NODES)
            .expect("the top level fits");
        let empty = TreeNode {
            counters: [0; NODE_ARITY as usize],
            reserved: [0; 8],
        };
        TrustedNodes {
            from,
            generation: 1,
            slots: (from..geo.levels())
                .map(|level| vec![(0, empty); geo.node_count(level) as usize])
                .collect(),
        }
    }

    fn get(&self, level: usize, group: u64) -> Option<&TreeNode> {
        let (stamp, node) = self
            .slots
            .get(level.checked_sub(self.from)?)?
            .get(group as usize)?;
        (*stamp == self.generation).then_some(node)
    }

    /// Trusts `node` unless a purge ran since `generation` was read.
    fn insert(&mut self, generation: u64, level: usize, group: u64, node: &TreeNode) {
        if generation == self.generation && level >= self.from {
            self.slots[level - self.from][group as usize] = (generation, *node);
        }
    }
}

/// One resident page of the verified-page read cache: plaintext blocks
/// decrypted-and-verified earlier, plus the page's verified counter
/// block so a partial hit can skip the tree walk. Entries are only
/// consulted, installed, or merged while holding the page's shard
/// lock, so an entry can never be newer than the store beneath it —
/// and writes remove the entry under the shard *write* lock, so it can
/// never be staler either.
struct PageCacheEntry {
    /// The layer key epoch the verification ran under; a stale-epoch
    /// entry is a miss (rekey also purges wholesale — this is the
    /// belt-and-braces check).
    epoch: u64,
    /// The page's verified counter block.
    cb: CounterBlock,
    /// Plaintext by slot; only slots set in `present` are meaningful.
    blocks: Box<[Block]>,
    /// Bitmap of populated slots — [`PAGE_BLOCKS`] is 64, so one `u64`
    /// covers the page exactly.
    present: u64,
}

/// The counter-light encryption layer over a backing store.
///
/// See the [module docs](self) for formats, verification, and locking.
pub struct EncryptionLayer<B: StoreBackend> {
    backend: B,
    geo: Geometry,
    keys: RwLock<Arc<KeyMaterial>>,
    shards: Box<[RwLock<()>]>,
    /// The on-chip tree root: total metadata writes, never stored.
    tree: RwLock<u64>,
    saturation: u64,
    /// The verified-page read cache; `None` when disabled by options or
    /// because the backend keeps no write generation.
    cache: Option<ClockCache<PageCacheEntry>>,
    /// The trusted tree nodes; present exactly when `cache` is.
    trust: Option<RwLock<TrustedNodes>>,
    /// Store writes this layer issued, bumped *before* the backend sees
    /// each write so `write_generation - self_writes` can only
    /// under-count foreign writes — never purge on the layer's own
    /// traffic.
    self_writes: AtomicU64,
    /// High-watermark of the foreign-write estimate already purged for;
    /// seeded with the backend's generation at attach time so adopted
    /// history does not read as an attack.
    foreign_seen: AtomicU64,
    /// Bumped on every completed rekey; cache entries are stamped with
    /// it at fill time.
    key_epoch: AtomicU64,
    /// The one observation path: every visit record and event goes here.
    obs: Observer,
    /// An armed post-mortem dump: the context plus the metrics baseline
    /// taken at arm time (so the bundle carries window deltas). One-shot
    /// on integrity errors.
    dump: Mutex<Option<(DumpContext, MemMetricsSnapshot)>>,
    /// Where the most recent dump landed.
    last_dump: Mutex<Option<std::path::PathBuf>>,
}

const NODE_MAC_DOMAIN: &[u8] = b"clme-mem:node-mac:v1";
const CB_MAC_DOMAIN: &[u8] = b"clme-mem:cb-mac:v1";

// The metadata MACs hash 141 (node) and 138 (counter word) bytes:
// domain, key, position, the 64-byte payload, parent or leaf count, and
// the reserved lane. Both exceed SHA3-256's 136-byte rate, so each tag
// costs two Keccak permutations, 1.2–1.5 µs on the scalar sponge. The
// layer tags every group of words it opens or seals with one
// `sha3_tag64_batch` call — a walk's checks (a write batch's pages, or
// the one page of a read miss), a commit, and the boot and rekey sweeps
// — which runs eight sponges per permutation on an AVX-512F host (about
// 0.17 µs a tag in a full group). Trimming the input under the rate
// would halve the scalar cost, but it changes every stored MAC, i.e. the
// store format.

/// Words sealed or opened per batched tag call in the boot and rekey
/// sweeps, which bounds their buffers on a large store.
const SWEEP_CHUNK: usize = 512;

/// Bytes a tree-node MAC hashes, the longer of the two inputs.
const NODE_MAC_BYTES: usize = NODE_MAC_DOMAIN.len() + 32 + 1 + 8 + 64 + 8 + 8;

/// The bytes a metadata MAC hashes, in one buffer:
/// `domain ‖ key ‖ position ‖ payload ‖ binding ‖ reserved`. The
/// position is a node's level and group or a counter word's page; the
/// binding is a node's parent counter or a page's leaf count. Payload
/// and reserved lane sit at fixed offsets from the end, so the sealed
/// word is rebuilt from the input and its tag.
struct MacInput {
    bytes: [u8; NODE_MAC_BYTES],
    len: usize,
}

impl MacInput {
    fn new(
        domain: &[u8],
        key: &[u8; 32],
        position: &[&[u8]],
        payload: &[u8; 64],
        binding: u64,
        reserved: &[u8; 8],
    ) -> MacInput {
        let mut input = MacInput {
            bytes: [0; NODE_MAC_BYTES],
            len: 0,
        };
        for part in [domain, key].into_iter().chain(position.iter().copied()) {
            input.push(part);
        }
        input.push(payload);
        input.push(&binding.to_le_bytes());
        input.push(reserved);
        input
    }

    fn push(&mut self, part: &[u8]) {
        self.bytes[self.len..self.len + part.len()].copy_from_slice(part);
        self.len += part.len();
    }

    fn node(
        key: &[u8; 32],
        level: usize,
        group: u64,
        counters: &[u8; 64],
        parent: u64,
        reserved: &[u8; 8],
    ) -> MacInput {
        let position: [&[u8]; 2] = [&[level as u8], &group.to_le_bytes()];
        MacInput::new(NODE_MAC_DOMAIN, key, &position, counters, parent, reserved)
    }

    fn counter(
        key: &[u8; 32],
        page: u64,
        image: &[u8; 64],
        leaf_count: u64,
        reserved: &[u8; 8],
    ) -> MacInput {
        let position: [&[u8]; 1] = [&page.to_le_bytes()];
        MacInput::new(CB_MAC_DOMAIN, key, &position, image, leaf_count, reserved)
    }

    fn bytes(&self) -> &[u8] {
        &self.bytes[..self.len]
    }

    /// The sealed word: payload `[..64]`, `mac` `[64..72]` and the
    /// reserved lane `[72..80]`, the layout tree-node and counter words
    /// share.
    fn word(&self, mac: u64) -> StoredWord {
        let tail = &self.bytes()[self.len - 80..];
        let mut word = [0u8; WORD_BYTES];
        word[..64].copy_from_slice(&tail[..64]);
        word[64..72].copy_from_slice(&mac.to_le_bytes());
        word[72..80].copy_from_slice(&tail[72..]);
        word
    }
}

/// Tags every input with one batched call, in order.
fn tag_all<'a>(inputs: impl Iterator<Item = &'a MacInput>) -> Vec<u64> {
    let bytes: Vec<&[u8]> = inputs.map(MacInput::bytes).collect();
    let mut tags = vec![0; bytes.len()];
    sha3_tag64_batch(&bytes, &mut tags);
    tags
}

/// Seals every input with one batched tag call, in order.
fn seal_all(inputs: &[MacInput]) -> Vec<StoredWord> {
    let tags = tag_all(inputs.iter());
    inputs
        .iter()
        .zip(tags)
        .map(|(input, mac)| input.word(mac))
        .collect()
}

/// A sealed metadata word read from the store and parsed, not yet
/// trusted: its MAC input, the MAC it carries, and the error a mismatch
/// raises.
struct Opening {
    input: MacInput,
    mac: u64,
    err: IntegrityError,
}

/// Checks every opening's MAC with one batched tag call; the index and
/// error of the first mismatch, in order.
fn first_mismatch(openings: &[Opening]) -> Option<(usize, IntegrityError)> {
    let tags = tag_all(openings.iter().map(|o| &o.input));
    let i = openings
        .iter()
        .zip(tags)
        .position(|(o, tag)| tag != o.mac)?;
    Some((i, openings[i].err))
}

/// Splits a sealed metadata word into its lanes: payload `[..64]`, MAC
/// `[64..72]` and a reserved lane `[72..80]` that the MAC binds and a
/// reseal keeps.
fn split_sealed(word: &StoredWord) -> ([u8; 64], u64, [u8; 8]) {
    (
        word[..64].try_into().expect("64-byte payload"),
        u64::from_le_bytes(word[64..72].try_into().expect("8-byte mac")),
        word[72..80].try_into().expect("8-byte reserved"),
    )
}

/// Parses a tree-node word and prepares the check of its MAC against
/// the parent's counter for it. A mismatch is a `TreeNode` tamper
/// reported at `err_addr`.
fn node_opening(
    mkey: &[u8; 32],
    word: &StoredWord,
    level: usize,
    group: u64,
    parent: u64,
    err_addr: u64,
) -> (TreeNode, Opening) {
    let (payload, mac, reserved) = split_sealed(word);
    let counters = std::array::from_fn(|j| {
        let lane = payload[8 * j..8 * j + 8].try_into();
        u64::from_le_bytes(lane.expect("8-byte counter"))
    });
    let opening = Opening {
        input: MacInput::node(mkey, level, group, &payload, parent, &reserved),
        mac,
        err: IntegrityError {
            addr: err_addr,
            class: TamperClass::TreeNode { level: level as u8 },
        },
    };
    (TreeNode { counters, reserved }, opening)
}

/// The MAC input that seals a tree node under `parent`, its parent's
/// counter for it.
fn node_seal(mkey: &[u8; 32], node: &TreeNode, level: usize, group: u64, parent: u64) -> MacInput {
    let mut payload = [0u8; 64];
    for (j, counter) in node.counters.iter().enumerate() {
        payload[8 * j..8 * j + 8].copy_from_slice(&counter.to_le_bytes());
    }
    MacInput::node(mkey, level, group, &payload, parent, &node.reserved)
}

/// Parses a page's counter word and prepares the check of its MAC,
/// which binds the page's leaf count; returns the counter block and the
/// reserved lane. A mismatch is a `CounterBlock` tamper reported at
/// `err_addr`.
fn counter_opening(
    mkey: &[u8; 32],
    word: &StoredWord,
    page: u64,
    leaf_count: u64,
    err_addr: u64,
) -> (CounterBlock, [u8; 8], Opening) {
    let (image, mac, reserved) = split_sealed(word);
    let opening = Opening {
        input: MacInput::counter(mkey, page, &image, leaf_count, &reserved),
        mac,
        err: IntegrityError {
            addr: err_addr,
            class: TamperClass::CounterBlock,
        },
    };
    (CounterBlock::from_bytes(&image), reserved, opening)
}

/// The MAC input that seals a page's counter block under its leaf
/// count.
fn counter_seal(
    mkey: &[u8; 32],
    cb: &CounterBlock,
    page: u64,
    leaf_count: u64,
    reserved: &[u8; 8],
) -> MacInput {
    MacInput::counter(mkey, page, &cb.to_bytes(), leaf_count, reserved)
}

fn encode_word(block: &EncodedBlock) -> StoredWord {
    let mut word = [0u8; WORD_BYTES];
    word[..64].copy_from_slice(&block.data());
    word[64..72].copy_from_slice(&block.mac.to_le_bytes());
    word[72..80].copy_from_slice(&block.parity.to_le_bytes());
    word
}

fn decode_word(word: &StoredWord) -> EncodedBlock {
    EncodedBlock::from_data(
        word[..64].try_into().expect("64-byte payload"),
        u64::from_le_bytes(word[64..72].try_into().expect("8-byte mac lane")),
        u64::from_le_bytes(word[72..80].try_into().expect("8-byte parity lane")),
    )
}

/// The counter-mode MAC's truncated pad: the first eight bytes of the
/// block's pad, which is what
/// [`pad_trunc64`](clme_crypto::otp::OtpCipher::pad_trunc64) recomputes
/// with another AES pass.
fn pad_trunc(pad: &[u8; 64]) -> u64 {
    u64::from_le_bytes(pad[..8].try_into().expect("64-byte pad"))
}

/// Encrypts one block under its counter (or counterless past
/// saturation) into the stored-word form.
fn encrypt_one(
    keys: &KeyMaterial,
    addr: u64,
    plaintext: &Block,
    counter: u64,
    saturation: u64,
) -> StoredWord {
    let block = if counter > saturation {
        let ct = keys.xts().encrypt_block64(addr, plaintext);
        let mac = counterless_mac(keys.counterless_mac_key(), addr, &ct, COUNTERLESS_FLAG);
        codec::encode(&ct, mac, MetaWord::counterless())
    } else {
        let pad = keys.otp().pad_block64(addr, counter);
        let ct = xor64(plaintext, &pad);
        let mac = keys
            .counter_mode_mac()
            .tag(pad_trunc(&pad), plaintext, counter as u32);
        codec::encode(&ct, mac, MetaWord::counter(counter as u32))
    };
    encode_word(&block)
}

/// Verifies and decrypts one stored data word against its verified
/// counter: metadata word first, then the block MAC. `pad` is the
/// block's counter-mode pad when the caller generated it already (a
/// read's page-batched pass); otherwise it is generated here. With
/// `marks`, whose data interval the caller took, each later interval
/// starts where the one before it ended: ECC decode, MAC (with the
/// counter-mode XOR), then the XTS decrypt, whose end is `ready`.
fn decrypt_verify(
    keys: &KeyMaterial,
    addr: u64,
    word: &StoredWord,
    counter: u64,
    saturation: u64,
    pad: Option<&[u8; 64]>,
    marks: Option<&mut ReadMarks>,
) -> Result<Block, IntegrityError> {
    let clocked = marks.is_some();
    let now = || clocked.then(clock);
    let counterless = counter > saturation;
    let block = decode_word(word);
    let expected = if counterless {
        MetaWord::counterless()
    } else {
        MetaWord::counter(counter as u32)
    };
    if codec::decode_meta(&block) != expected {
        return Err(IntegrityError {
            addr,
            class: TamperClass::Meta,
        });
    }
    let e1 = now();
    let ct = block.data();
    let (pt, m1, x1) = if counterless {
        if counterless_mac(keys.counterless_mac_key(), addr, &ct, COUNTERLESS_FLAG) != block.mac {
            return Err(IntegrityError {
                addr,
                class: TamperClass::DataMac,
            });
        }
        let m1 = now();
        let pt = keys.xts().decrypt_block64(addr, &ct);
        (pt, m1, now())
    } else {
        let own;
        let pad = match pad {
            Some(pad) => pad,
            None => {
                own = keys.otp().pad_block64(addr, counter);
                &own
            }
        };
        let pt = xor64(&ct, pad);
        if keys
            .counter_mode_mac()
            .tag(pad_trunc(pad), &pt, counter as u32)
            != block.mac
        {
            return Err(IntegrityError {
                addr,
                class: TamperClass::DataMac,
            });
        }
        (pt, now(), None)
    };
    if let (Some(m), Some(e1), Some(m1)) = (marks, e1, m1) {
        m.ecc = (m.data.1, e1);
        m.mac = (e1, m1);
        m.xts = x1.map(|x1| (m1, x1));
        m.ready = x1.unwrap_or(m1);
    }
    Ok(pt)
}

impl<B: StoreBackend> EncryptionLayer<B> {
    /// Initializes a fresh layer: every block encrypted as zeros at
    /// counter 0, all metadata sealed, root 0. The backend must be
    /// sized by [`Geometry::for_blocks`]`(data_blocks).total_words()`.
    pub fn new(
        backend: B,
        data_blocks: u64,
        master: [u8; 32],
    ) -> Result<EncryptionLayer<B>, MemError> {
        EncryptionLayer::with_options(backend, data_blocks, master, LayerOptions::default())
    }

    /// [`EncryptionLayer::new`] with explicit options.
    pub fn with_options(
        backend: B,
        data_blocks: u64,
        master: [u8; 32],
        options: LayerOptions,
    ) -> Result<EncryptionLayer<B>, MemError> {
        let layer = EncryptionLayer::attach_with_options(backend, data_blocks, master, 0, options)?;
        layer.initial_sweep()?;
        Ok(layer)
    }

    /// Adopts a backend that already holds encrypted state (written by
    /// a previous layer under the same master key), without touching
    /// it. `root` must be the value [`EncryptionLayer::root`] reported
    /// when the state was last written — the root is the layer's
    /// anti-replay anchor and is deliberately never stored.
    pub fn attach(
        backend: B,
        data_blocks: u64,
        master: [u8; 32],
        root: u64,
    ) -> Result<EncryptionLayer<B>, MemError> {
        EncryptionLayer::attach_with_options(
            backend,
            data_blocks,
            master,
            root,
            LayerOptions::default(),
        )
    }

    /// [`EncryptionLayer::attach`] with explicit options.
    pub fn attach_with_options(
        backend: B,
        data_blocks: u64,
        master: [u8; 32],
        root: u64,
        options: LayerOptions,
    ) -> Result<EncryptionLayer<B>, MemError> {
        assert!(
            options.counter_saturation <= MAX_COUNTER as u64,
            "saturation must leave the counter encodable in the metadata word"
        );
        assert!(options.shards >= 1, "at least one shard lock");
        let geo = Geometry::for_blocks(data_blocks);
        if backend.words() != geo.total_words() {
            return Err(MemError::GeometryMismatch {
                expected_words: geo.total_words(),
                actual_words: backend.words(),
            });
        }
        let shards = (0..options.shards)
            .map(|_| RwLock::new(()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let obs = Observer::new(options.shards, geo.pages(), options.flight_capacity);
        let cache = (options.cache_pages > 0 && backend.write_generation().is_some())
            .then(|| ClockCache::new(options.shards, options.cache_pages));
        let trust = cache
            .is_some()
            .then(|| RwLock::new(TrustedNodes::new(&geo)));
        let foreign_base = backend.write_generation().unwrap_or(0);
        Ok(EncryptionLayer {
            backend,
            geo,
            keys: RwLock::new(Arc::new(KeyMaterial::from_master(master))),
            shards,
            tree: RwLock::new(root),
            saturation: options.counter_saturation,
            cache,
            trust,
            self_writes: AtomicU64::new(0),
            foreign_seen: AtomicU64::new(foreign_base),
            key_epoch: AtomicU64::new(0),
            obs,
            dump: Mutex::new(None),
            last_dump: Mutex::new(None),
        })
    }

    /// The layout this layer manages.
    pub fn geometry(&self) -> &Geometry {
        &self.geo
    }

    /// The current on-chip tree root. Save it alongside a persistent
    /// backend to [`EncryptionLayer::attach`] later; a wrong root makes
    /// every read fail tree verification.
    pub fn root(&self) -> u64 {
        *self.tree.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The raw backing store — the adversary's view of physical
    /// memory. Tamper tests (and the CLI demo) flip bytes here, below
    /// the encryption layer; the layer must catch every such flip.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Dismantles the layer, returning the backing store.
    pub fn into_backend(self) -> B {
        self.backend
    }

    /// The verified write counter of a block (counts past the
    /// saturation point mean the block is counterless). A page in the
    /// verified-page cache lends its counter block, so no store word is
    /// read.
    ///
    /// A verification failure takes the integrity-error path, as a
    /// failing batch op does.
    pub fn counter_of(&self, addr: u64) -> Result<u64, MemError> {
        let counter = (|| {
            self.check_addr(addr)?;
            let page = self.geo.page_of(addr);
            let _shard = self.shards[self.shard_index(page)]
                .read()
                .unwrap_or_else(PoisonError::into_inner);
            self.foreign_writes_check();
            let cb = match self.lent_counter_block(page) {
                Some(cb) => cb,
                None => self.verify_page(&self.keys(), page, addr, &mut TreeHops::default())?,
            };
            Ok(cb.counter(self.geo.slot_of(addr)))
        })();
        self.note_integrity_error(counter)
    }

    /// Whether a block has switched to counterless (XTS) mode.
    pub fn is_counterless(&self, addr: u64) -> Result<bool, MemError> {
        Ok(self.counter_of(addr)? > self.saturation)
    }

    /// The layer's always-on telemetry; `None` when the crate is built
    /// with the `telemetry-off` feature.
    pub fn metrics(&self) -> Option<&MemMetrics> {
        self.obs
            .metrics(self.cache.as_ref().map(|c| c.len() as u64))
    }

    /// A snapshot of every layer metric, with the backend's store
    /// counters folded in. Empty under `telemetry-off`.
    pub fn metrics_snapshot(&self) -> MemMetricsSnapshot {
        self.metrics().map_or_else(
            || MemMetricsSnapshot::empty(0),
            |m| m.snapshot(self.backend.store_metrics()),
        )
    }

    /// The layer's (and backend's) metrics as Prometheus exposition
    /// text. Empty under `telemetry-off`.
    pub fn metrics_prom(&self) -> String {
        self.metrics().map_or_else(String::new, |m| {
            clme_obs::prom::render(&m.prom_samples(self.backend.store_metrics()))
        })
    }

    /// Installs per-tenant attribution. Takes `&mut self` so it can only
    /// happen before the layer is shared across threads; every visit
    /// record then attributes cache results, ciphertext observations,
    /// and sampled stage blame to the tenant owning its page. A
    /// `telemetry-off` layer drops it.
    pub fn install_tenants(&mut self, tenants: Arc<TenantTelemetry>) {
        self.obs.install_tenants(tenants);
    }

    /// The installed per-tenant telemetry, if any.
    pub fn tenants(&self) -> Option<&Arc<TenantTelemetry>> {
        self.obs.tenants()
    }

    /// A multi-tenant driver finished one batch for `tenant`: the batch
    /// latency and size go to the tenant's row and SLO scores, and the
    /// flight ring tags the timeline with whose traffic it was.
    pub fn record_tenant_batch(&self, tenant: u64, write: bool, latency_ns: u64, blocks: u64) {
        self.obs.tenant_batch(tenant, write, latency_ns, blocks);
    }

    /// Merged, ordered view of the flight ring's retained events (empty
    /// under `telemetry-off`).
    pub fn flight_snapshot(&self) -> FlightSnapshot {
        self.obs.flight_snapshot()
    }

    /// Arms post-mortem capture: the next [`IntegrityError`] raised by a
    /// batch op, [`counter_of`](EncryptionLayer::counter_of) (and so
    /// [`is_counterless`](EncryptionLayer::is_counterless)) or a rekey
    /// sweep writes a `.clmedump` bundle to
    /// `ctx.path` (flight ring + metrics delta since this call +
    /// geometry/config/seed), then disarms. [`dump_now`] triggers the
    /// same bundle explicitly without disarming.
    ///
    /// [`dump_now`]: EncryptionLayer::dump_now
    pub fn arm_dump(&self, ctx: DumpContext) {
        let base = self.metrics_snapshot();
        *self.dump.lock().unwrap_or_else(PoisonError::into_inner) = Some((ctx, base));
    }

    /// Disarms post-mortem capture, returning the pending context.
    pub fn disarm_dump(&self) -> Option<DumpContext> {
        self.dump
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .map(|(ctx, _)| ctx)
    }

    /// Writes the armed dump bundle now (trigger `"exit"`), without
    /// disarming. `Ok(None)` when no dump is armed.
    pub fn dump_now(&self) -> std::io::Result<Option<std::path::PathBuf>> {
        self.write_dump("exit", None, false)
    }

    /// Where the most recent dump bundle was written, if any.
    pub fn last_dump(&self) -> Option<std::path::PathBuf> {
        self.last_dump
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Returns `result`, first taking the integrity-error path if it is
    /// an [`IntegrityError`]: record the failure in the flight ring, bump
    /// the metric, drop every cached page (the store is suspect — nothing
    /// verified before the failure may be served again), and flush the
    /// armed dump (one-shot). Every public call that verifies returns
    /// through here, with its locks released.
    fn note_integrity_error<T>(&self, result: Result<T, MemError>) -> Result<T, MemError> {
        if let Some(e) = result.as_ref().err().and_then(MemError::integrity) {
            self.obs.integrity_error(e);
            self.purge_cache(CacheCause::Tamper);
            let _ = self.write_dump("integrity-error", Some(*e), true);
        }
        result
    }

    /// Empties the verified-page cache, attributing the drop to `cause`
    /// in both the counters and the flight ring, and drops all trust in
    /// tree nodes.
    fn purge_cache(&self, cause: CacheCause) {
        if let Some(cache) = &self.cache {
            self.obs.cache_purge(cause, cache.clear());
            self.purge_trust();
        }
    }

    /// Drops all trust in tree nodes: the next walks start at the root.
    fn purge_trust(&self) {
        if let Some(trust) = &self.trust {
            trust
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .generation += 1;
        }
    }

    /// The trust generation, read before a walk: what the walk verifies
    /// is trusted only if no purge runs in between.
    fn trust_generation(&self) -> u64 {
        self.trust.as_ref().map_or(0, |t| {
            t.read().unwrap_or_else(PoisonError::into_inner).generation
        })
    }

    /// Trusts `nodes`, all verified or committed since `generation` was
    /// read; none of them if a purge ran in between.
    fn trust_nodes<'a>(
        &self,
        generation: u64,
        nodes: impl IntoIterator<Item = (&'a (usize, u64), &'a TreeNode)>,
    ) {
        if let Some(trust) = &self.trust {
            let mut trust = trust.write().unwrap_or_else(PoisonError::into_inner);
            for (&(level, group), node) in nodes {
                trust.insert(generation, level, group, node);
            }
        }
    }

    /// Every store write the layer itself issues goes through here: the
    /// self-write count bumps *before* the backend can observe the
    /// write, so a concurrent [`foreign_writes_check`] computing
    /// `write_generation - self_writes` never over-counts — the layer's
    /// own traffic can never trigger a spurious purge.
    ///
    /// [`foreign_writes_check`]: EncryptionLayer::foreign_writes_check
    fn store_write(&self, index: u64, word: &StoredWord) -> Result<(), MemError> {
        self.self_writes.fetch_add(1, Ordering::SeqCst);
        self.backend.write_word(index, word)
    }

    /// Purges the cache and trust when the backend has seen writes this
    /// layer did not issue — a tamper harness or bus adversary mutating
    /// words beneath the layer. Cached plaintext or a trusted node must
    /// never mask a store-level flip, so any growth of the foreign
    /// estimate drops everything and re-verifies from the store. Reading
    /// the generation *before* the self-write count keeps the estimate a
    /// lower bound under concurrency; once traffic quiesces it is exact.
    /// A no-op without the cache, which is also when no trust exists.
    fn foreign_writes_check(&self) {
        if self.cache.is_none() {
            return;
        }
        let Some(generation) = self.backend.write_generation() else {
            return;
        };
        let own = self.self_writes.load(Ordering::SeqCst);
        let est = generation.saturating_sub(own);
        // fetch_max returns the prior watermark: only the thread that
        // actually advances it purges, so one foreign burst is one
        // purge, not one per racing reader.
        if est > self.foreign_seen.load(Ordering::SeqCst)
            && self.foreign_seen.fetch_max(est, Ordering::SeqCst) < est
        {
            self.purge_cache(CacheCause::Foreign);
        }
    }

    fn write_dump(
        &self,
        trigger: &str,
        error: Option<IntegrityError>,
        consume: bool,
    ) -> std::io::Result<Option<std::path::PathBuf>> {
        let armed = {
            let mut guard = self.dump.lock().unwrap_or_else(PoisonError::into_inner);
            if consume {
                guard.take()
            } else {
                guard.clone()
            }
        };
        let Some((ctx, base)) = armed else {
            return Ok(None);
        };
        let delta = self.metrics_snapshot().delta_since(&base);
        let bundle = DumpBundle::assemble(
            trigger,
            self.backend.kind(),
            &self.geo,
            self.shards.len() as u64,
            self.saturation,
            &ctx,
            &delta,
            self.flight_snapshot(),
            error,
        );
        crate::dump::write_atomic(&ctx.path, &bundle.to_json().to_pretty())?;
        *self
            .last_dump
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(ctx.path.clone());
        Ok(Some(ctx.path))
    }

    /// Installs a span tracer; subsequent reads emit request spans.
    pub fn install_tracer(&self, tracer: SpanTracer) {
        self.obs.spans.install(tracer);
    }

    /// Removes and returns the tracer, stopping span emission.
    pub fn take_tracer(&self) -> Option<SpanTracer> {
        self.obs.spans.take()
    }

    /// Re-encrypts every block and reseals all metadata under a new
    /// master key, online: the sweep takes every shard lock, so it
    /// serializes against all traffic but needs no restart. Counters
    /// and the root are preserved (pads differ by key, so keeping the
    /// counters reuses no nonce). Afterwards nothing in the store
    /// verifies — let alone decrypts — under the old key.
    pub fn rekey(&self, new_master: [u8; 32]) -> Result<RekeyReport, MemError> {
        let result = self.rekey_inner(new_master);
        // Whatever the outcome, nothing verified before the sweep may
        // be served again: success burned the old key (old-key-era
        // plaintext must be unreachable), failure means the store is
        // suspect. Stale-epoch stamping backstops the success path.
        self.purge_cache(CacheCause::Rekey);
        let result = self.note_integrity_error(result);
        self.obs.rekey_end(result.is_ok());
        result
    }

    fn rekey_inner(&self, new_master: [u8; 32]) -> Result<RekeyReport, MemError> {
        // Each shard's wait runs from the previous lock's acquisition.
        let now = || Observer::SWEEPS_SAMPLED.then(clock);
        let mut _guards = Vec::with_capacity(self.shards.len());
        let mut hold_from = now();
        for (i, s) in self.shards.iter().enumerate() {
            _guards.push(s.write().unwrap_or_else(PoisonError::into_inner));
            let got = now();
            self.obs.rekey_lock(i, ns_between(hold_from, got));
            hold_from = got;
        }
        let root = self.tree.write().unwrap_or_else(PoisonError::into_inner);
        self.obs.rekey_begin(self.geo.pages());
        let old = self.keys();
        let new = KeyMaterial::from_master(new_master);
        let old_mkey = old.counterless_mac_key();
        let new_mkey = new.counterless_mac_key();

        // Reseal the tree top-down, verifying under the old key as we
        // descend; each level's counters are the next level's parents.
        // Each chunk of words is opened, then resealed, with one batched
        // tag call each; a failure still reseals exactly the words
        // before it.
        let mut parents: Vec<u64> = vec![*root];
        let mut leaf_counts: Vec<u64> = Vec::new();
        for level in (0..self.geo.levels()).rev() {
            let count = self.geo.node_count(level);
            let mut flat = Vec::with_capacity((count * NODE_ARITY) as usize);
            for start in (0..count).step_by(SWEEP_CHUNK) {
                let groups = start..count.min(start + SWEEP_CHUNK as u64);
                let indices = groups.clone().map(|group| self.geo.node_word(level, group));
                let (nodes, failure) = self.open_chunk(indices, |i, word| {
                    let group = start + i as u64;
                    let region = Region::TreeNode {
                        level: level as u8,
                        group,
                    };
                    let parent = parents[group as usize];
                    node_opening(
                        old_mkey,
                        word,
                        level,
                        group,
                        parent,
                        self.geo.probe_addr(region),
                    )
                });
                self.write_sealed(nodes.iter().zip(groups).map(|(node, group)| {
                    let parent = parents[group as usize];
                    let index = self.geo.node_word(level, group);
                    (index, node_seal(new_mkey, node, level, group, parent))
                }))?;
                for node in &nodes {
                    flat.extend_from_slice(&node.counters);
                }
                if let Some(e) = failure {
                    return Err(e);
                }
            }
            if level == 0 {
                leaf_counts = flat;
            } else {
                parents = flat;
            }
        }

        let mut blocks = 0u64;
        let mut counterless_blocks = 0u64;
        let pages = self.geo.pages();
        for start in (0..pages).step_by(SWEEP_CHUNK) {
            let chunk = start..pages.min(start + SWEEP_CHUNK as u64);
            let indices = chunk.clone().map(|page| self.geo.counter_word(page));
            let (opened, failure) = self.open_chunk(indices, |i, word| {
                let page = start + i as u64;
                let leaf = leaf_counts[page as usize];
                let (cb, reserved, opening) =
                    counter_opening(old_mkey, word, page, leaf, page * PAGE_BLOCKS);
                ((cb, reserved), opening)
            });
            let reseal: Vec<MacInput> = opened
                .iter()
                .zip(chunk.clone())
                .map(|((cb, reserved), page)| {
                    counter_seal(new_mkey, cb, page, leaf_counts[page as usize], reserved)
                })
                .collect();
            for (((cb, _), word), page) in opened.iter().zip(seal_all(&reseal)).zip(chunk) {
                self.store_write(self.geo.counter_word(page), &word)?;
                let page_first = blocks;
                for addr in self.geo.page_addr_range(page) {
                    let counter = cb.counter(self.geo.slot_of(addr));
                    let data = self.backend.read_word(self.geo.data_word(addr))?;
                    let pt =
                        decrypt_verify(&old, addr, &data, counter, self.saturation, None, None)?;
                    self.store_write(
                        self.geo.data_word(addr),
                        &encrypt_one(&new, addr, &pt, counter, self.saturation),
                    )?;
                    blocks += 1;
                    if counter > self.saturation {
                        counterless_blocks += 1;
                    }
                }
                self.obs.rekey_page(page, blocks - page_first);
            }
            if let Some(e) = failure {
                return Err(e);
            }
        }
        drop(root);
        *self.keys.write().unwrap_or_else(PoisonError::into_inner) = Arc::new(new);
        // Entries filled before this line verified under the old key;
        // the epoch bump makes any survivor of the wholesale purge (in
        // `rekey`) read as a miss.
        self.key_epoch.fetch_add(1, Ordering::SeqCst);
        self.obs
            .rekey_swept(self.shards.len(), ns_between(hold_from, now()));
        Ok(RekeyReport {
            pages: self.geo.pages(),
            blocks,
            counterless_blocks,
        })
    }

    fn keys(&self) -> Arc<KeyMaterial> {
        self.keys
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn shard_index(&self, page: u64) -> usize {
        (page % self.shards.len() as u64) as usize
    }

    fn check_addr(&self, addr: u64) -> Result<(), MemError> {
        if addr < self.geo.data_blocks() {
            Ok(())
        } else {
            Err(MemError::OutOfBounds {
                index: addr,
                limit: self.geo.data_blocks(),
            })
        }
    }

    /// Seals every `(word index, MAC input)` pair and writes the words
    /// in order, tagging up to [`SWEEP_CHUNK`] of them per batched call.
    fn write_sealed(
        &self,
        sealed: impl IntoIterator<Item = (u64, MacInput)>,
    ) -> Result<(), MemError> {
        let mut sealed = sealed.into_iter().peekable();
        while sealed.peek().is_some() {
            let (indices, inputs): (Vec<u64>, Vec<MacInput>) =
                sealed.by_ref().take(SWEEP_CHUNK).unzip();
            for (index, word) in indices.into_iter().zip(seal_all(&inputs)) {
                self.store_write(index, &word)?;
            }
        }
        Ok(())
    }

    /// Reads the words at `indices` in order and parses each with
    /// `open(position, word)`, then checks all their MACs in one batched
    /// call. Returns what was parsed before the first failure — a store
    /// read error or a MAC mismatch, whichever comes first — and that
    /// failure.
    fn open_chunk<T>(
        &self,
        indices: impl Iterator<Item = u64>,
        mut open: impl FnMut(usize, &StoredWord) -> (T, Opening),
    ) -> (Vec<T>, Option<MemError>) {
        let mut parsed = Vec::new();
        let mut openings = Vec::new();
        let mut failure = None;
        for (i, index) in indices.enumerate() {
            match self.backend.read_word(index) {
                Ok(word) => {
                    let (value, opening) = open(i, &word);
                    parsed.push(value);
                    openings.push(opening);
                }
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        if let Some((i, e)) = first_mismatch(&openings) {
            parsed.truncate(i);
            failure = Some(e.into());
        }
        (parsed, failure)
    }

    /// Writes the boot-time state: zeroed counters, sealed metadata,
    /// every block encrypted as zeros at counter 0.
    fn initial_sweep(&self) -> Result<(), MemError> {
        let keys = self.keys();
        let mkey = keys.counterless_mac_key();
        let zero_node = TreeNode {
            counters: [0; NODE_ARITY as usize],
            reserved: [0; 8],
        };
        for level in 0..self.geo.levels() {
            self.write_sealed((0..self.geo.node_count(level)).map(|group| {
                let index = self.geo.node_word(level, group);
                (index, node_seal(mkey, &zero_node, level, group, 0))
            }))?;
        }
        let cb = CounterBlock::new();
        self.write_sealed((0..self.geo.pages()).map(|page| {
            (
                self.geo.counter_word(page),
                counter_seal(mkey, &cb, page, 0, &[0; 8]),
            )
        }))?;
        let zeros = [0u8; BLOCK_BYTES];
        for addr in 0..self.geo.data_blocks() {
            self.store_write(
                self.geo.data_word(addr),
                &encrypt_one(&keys, addr, &zeros, 0, self.saturation),
            )?;
        }
        Ok(())
    }

    /// The counter block of `page`'s verified-page cache entry, if the
    /// entry is of the current key epoch: verified when the page was
    /// cached and current while the caller holds the page's shard lock,
    /// since every write to the page drops or refreshes the entry.
    fn lent_counter_block(&self, page: u64) -> Option<CounterBlock> {
        let epoch = self.key_epoch.load(Ordering::SeqCst);
        self.cache
            .as_ref()?
            .with(page, |e| (e.epoch == epoch).then(|| e.cb.clone()))
            .flatten()
    }

    /// Verifies one page's metadata for a read miss or
    /// [`counter_of`](EncryptionLayer::counter_of): walks it with
    /// [`walk_page`](EncryptionLayer::walk_page), checks the walk's MACs
    /// in one batched call and trusts the nodes it read. `hops` adds the
    /// walk's hops, up to the failing check on a mismatch. Caller holds
    /// the page's shard lock.
    fn verify_page(
        &self,
        keys: &KeyMaterial,
        page: u64,
        err_addr: u64,
        hops: &mut TreeHops,
    ) -> Result<CounterBlock, MemError> {
        // The root stays read-locked until the read nodes are trusted, so
        // no commit can rewrite one of them in between.
        let root = self.tree.read().unwrap_or_else(PoisonError::into_inner);
        let generation = self.trust_generation();
        let mut walk = MetadataWalk {
            root: *root,
            ..MetadataWalk::default()
        };
        let mkey = keys.counterless_mac_key();
        let read = self.walk_page(mkey, page, err_addr, None, &mut walk);
        let mismatch = walk.check();
        hops.trusted += walk.hops.trusted;
        hops.verified += walk.hops.verified;
        if let Some((_, e)) = mismatch {
            return Err(e.into());
        }
        let cb = read?;
        if walk.hops.verified > 0 {
            self.trust_nodes(generation, walk.read_nodes());
        }
        Ok(cb)
    }

    /// Walks one more page's metadata into `walk`, from the walk's root.
    /// A path hop takes its node from `walk.nodes` (where an earlier page
    /// of the walk put it), from trust, or reads the node word, parses it
    /// into `walk.nodes` and queues its MAC check; `walk.hops` counts the
    /// trusted and read hops. Then the page's counter block is `cached` —
    /// a verified cache entry's, lent by the caller — or parsed from the
    /// counter word, whose check is queued against the leaf count the
    /// path gives. The counter block returned is verified once every
    /// check queued so far passes.
    fn walk_page(
        &self,
        mkey: &[u8; 32],
        page: u64,
        err_addr: u64,
        cached: Option<CounterBlock>,
        walk: &mut MetadataWalk,
    ) -> Result<CounterBlock, MemError> {
        let trust = self
            .trust
            .as_ref()
            .map(|t| t.read().unwrap_or_else(PoisonError::into_inner));
        let mut parent = walk.root;
        for (level, group, slot) in self.geo.path(page).into_iter().rev() {
            if let Some(node) = walk.nodes.get(&(level, group)) {
                parent = node.counters[slot];
                continue;
            }
            let node = match trust.as_ref().and_then(|t| t.get(level, group)) {
                Some(node) => {
                    walk.hops.trusted += 1;
                    *node
                }
                None => {
                    walk.hops.verified += 1;
                    let word = self.backend.read_word(self.geo.node_word(level, group))?;
                    let (node, opening) = node_opening(mkey, &word, level, group, parent, err_addr);
                    walk.queue(opening, Some((level, group)));
                    node
                }
            };
            parent = node.counters[slot];
            walk.nodes.insert((level, group), node);
        }
        drop(trust);
        let cb = match cached {
            Some(cb) => cb,
            None => {
                let word = self.backend.read_word(self.geo.counter_word(page))?;
                let (cb, _, opening) = counter_opening(mkey, &word, page, parent, err_addr);
                walk.queue(opening, None);
                cb
            }
        };
        walk.pages += 1;
        Ok(cb)
    }

    /// A write batch's group commit: adds each page's committed block
    /// count to the counters on its tree path and to the root, then
    /// rewrites every touched node word once and every touched counter
    /// word once, with fresh MACs from one batched tag call. The bumps
    /// add up, so the store and root end byte-identical to one commit
    /// per block. Caller holds the pages' shard write locks and `root`;
    /// `nodes` holds every node on the pages' paths as verified before
    /// the batch. `cbs` are the pages' counter blocks after the blocks
    /// that committed, and `pages` says how many blocks that was.
    fn commit_batch(
        &self,
        keys: &KeyMaterial,
        root: &mut u64,
        nodes: &mut VerifiedNodes,
        cbs: &[CounterBlock],
        pages: &[PageTally],
    ) -> Result<(), MemError> {
        let mkey = keys.counterless_mac_key();
        let pages: Vec<(&CounterBlock, &PageTally)> = cbs
            .iter()
            .zip(pages)
            .filter(|(_, p)| p.blocks > 0)
            .collect();
        let mut dirty = BTreeSet::new();
        for (_, p) in &pages {
            *root += p.blocks;
            for (level, group, slot) in self.geo.path(p.page) {
                nodes
                    .get_mut(&(level, group))
                    .expect("every path node verified")
                    .counters[slot] += p.blocks;
                dirty.insert((level, group));
            }
        }
        let top = self.geo.levels() - 1;
        let node_words = dirty.into_iter().map(|(level, group)| {
            // A node's MAC binds its parent's counter for it: the slot
            // one level up, or the root above the single top node.
            let parent = if level == top {
                *root
            } else {
                nodes[&(level + 1, group / NODE_ARITY)].counters[(group % NODE_ARITY) as usize]
            };
            let seal = node_seal(mkey, &nodes[&(level, group)], level, group, parent);
            (self.geo.node_word(level, group), seal)
        });
        let counter_words = pages.iter().map(|(cb, p)| {
            let leaf = nodes[&(0, p.page / NODE_ARITY)].counters[(p.page % NODE_ARITY) as usize];
            // A committed counter word starts a fresh reserved lane.
            let seal = counter_seal(mkey, cb, p.page, leaf, &[0; 8]);
            (self.geo.counter_word(p.page), seal)
        });
        let sealed: Vec<(u64, MacInput)> = node_words.chain(counter_words).collect();
        self.write_sealed(sealed)
    }
}

impl<B: StoreBackend> MemoryAdt for EncryptionLayer<B> {
    fn blocks(&self) -> u64 {
        self.geo.data_blocks()
    }

    fn batch_read(&self, addrs: &[u64]) -> Result<Vec<Block>, MemError> {
        self.observed_batch(MemOp::Read, addrs.len(), |visit| {
            self.batch_read_inner(addrs, visit)
        })
    }

    fn batch_write(&self, writes: &[(u64, Block)]) -> Result<(), MemError> {
        self.observed_batch(MemOp::Write, writes.len(), |visit| {
            self.batch_write_inner(writes, visit)
        })
    }
}

impl<B: StoreBackend> EncryptionLayer<B> {
    /// Runs one batch call of `blocks` blocks under one observation
    /// record: the call fills it, the observer folds it once, and then
    /// a failure takes the integrity-error path.
    fn observed_batch<T>(
        &self,
        op: MemOp,
        blocks: usize,
        call: impl FnOnce(&mut Visit) -> Result<T, MemError>,
    ) -> Result<T, MemError> {
        let mut visit = self.obs.begin(op, blocks as u64);
        let result = call(&mut visit);
        self.obs.visit(&visit, result.is_ok());
        self.note_integrity_error(result)
    }

    /// A batch's indices ordered into page runs: pages ascending, batch
    /// order kept within a page, for `page` mapping an index to its
    /// page. The sort key `(page, index)` is unique, so the unstable
    /// sort yields the stable order without a merge buffer.
    fn page_order(n: usize, page: impl Fn(usize) -> u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by_key(|&i| (page(i), i));
        order
    }

    fn batch_read_inner(&self, addrs: &[u64], visit: &mut Visit) -> Result<Vec<Block>, MemError> {
        for &addr in addrs {
            self.check_addr(addr)?;
        }
        let mut out = vec![[0u8; BLOCK_BYTES]; addrs.len()];
        let page_of = |i: usize| self.geo.page_of(addrs[i]);
        let order = Self::page_order(addrs.len(), page_of);
        let clocked = visit.clocked;
        let now = || clocked.then(clock);
        for idxs in order.chunk_by(|&a, &b| page_of(a) == page_of(b)) {
            let page = page_of(idxs[0]);
            let shard = self.shard_index(page);
            let mut pv = PageVisit::new(page, idxs.len() as u64);
            let wait0 = now();
            let guard = self.shards[shard]
                .read()
                .unwrap_or_else(PoisonError::into_inner);
            let held = now();
            pv.add(MemStage::Lock, wait0, held, 1);
            let result = self.read_page_group(addrs, idxs, &mut out, held, visit, &mut pv);
            pv.release(wait0, held, now());
            drop(guard);
            self.obs
                .lock(visit, shard, ns_between(wait0, held), pv.hold_ns);
            self.obs.page(visit, &pv);
            result?;
        }
        Ok(out)
    }

    /// Serves one page visit of a batch read: the verified-page cache
    /// copies every block it holds straight into `out`, and a full hit
    /// ends there — no allocation, no counter-block clone, no key fetch.
    /// Whatever is missing is verified and fetched with the page's pads
    /// generated in one batched pass. Caller holds the page's shard read
    /// lock since `issue`; `visit` and `pv` record what happened,
    /// including on an error.
    fn read_page_group(
        &self,
        addrs: &[u64],
        idxs: &[usize],
        out: &mut [Block],
        issue: Option<Instant>,
        visit: &mut Visit,
        pv: &mut PageVisit,
    ) -> Result<(), MemError> {
        let page = pv.page;
        let tracing = self.obs.spans.on();
        let clocked = visit.clocked;
        let now = || clocked.then(clock);
        let epoch = self.key_epoch.load(Ordering::SeqCst);
        let hit_addrs = |missing: u64| -> Vec<u64> {
            idxs.iter()
                .map(|&i| addrs[i])
                .filter(|&addr| missing >> self.geo.slot_of(addr) & 1 == 0)
                .collect()
        };
        // A partial hit: the bitmap of the requested slots the entry
        // lacks, and the entry's verified counter block.
        let mut partial: Option<(u64, CounterBlock)> = None;
        if let Some(cache) = &self.cache {
            self.foreign_writes_check();
            // `None` for a stale key epoch, `Some(None)` once every
            // requested block is in `out`.
            let found = cache.with(page, |e| {
                if e.epoch != epoch {
                    return None;
                }
                let mut missing = 0u64;
                for &i in idxs {
                    let slot = self.geo.slot_of(addrs[i]);
                    if e.present >> slot & 1 == 1 {
                        out[i] = e.blocks[slot];
                        pv.hits += 1;
                    } else {
                        missing |= 1 << slot;
                    }
                }
                Some((missing != 0).then(|| (missing, e.cb.clone())))
            });
            match found {
                // Full hit: the blocks are already in `out` — no store
                // traffic, no tree walk, no MACs.
                Some(Some(None)) => {
                    pv.serve = CacheServe::Hit;
                    if let (true, Some(t0), Some(t1)) = (tracing, issue, now()) {
                        self.obs.spans.hits(t0, t1, &hit_addrs(0));
                    }
                    return Ok(());
                }
                Some(Some(hit)) => partial = hit,
                // Stale key epoch: the rekey purge already ran, so this
                // is defense in depth; drop it and fall through to a
                // miss.
                Some(None) => {
                    cache.remove(page);
                }
                None => {}
            }
        }
        let served = now();

        // Partial hit: the cached counter block is already verified, so
        // the tree walk is skipped and only the absent blocks pay for
        // store I/O and a MAC. Miss: the full verification chain. Keys
        // are fetched here, still under the shard lock, because only
        // these paths run crypto.
        let keys = self.keys();
        let was_partial = partial.is_some();
        let mut meta = None;
        let (missing, cb) = match partial {
            Some(hit) => {
                pv.serve = CacheServe::Partial;
                hit
            }
            None => {
                if self.cache.is_some() {
                    pv.serve = CacheServe::Miss;
                }
                let meta0 = now();
                let cb = self.verify_page(&keys, page, addrs[idxs[0]], &mut visit.hops)?;
                let meta1 = now();
                pv.add(MemStage::TreeWalk, meta0, meta1, 1);
                meta = meta0.zip(meta1);
                (u64::MAX, cb)
            }
        };
        let absent = |i: usize| missing >> self.geo.slot_of(addrs[i]) & 1 == 1;

        // One batched pass over the shared AES key schedule generates
        // every absent counter-mode block's pad up front (the paper's
        // pads-before-data overlap, amortized page-wide).
        let mut pad_reqs: Vec<(u64, u64)> = Vec::new();
        for &i in idxs.iter().filter(|&&i| absent(i)) {
            let addr = addrs[i];
            let counter = cb.counter(self.geo.slot_of(addr));
            if counter <= self.saturation {
                pad_reqs.push((addr, counter));
            }
        }
        let p0 = now();
        let pads = keys.otp().pad_batch64(&pad_reqs);
        let pad_iv = p0.zip(now());
        let requests = pad_reqs.len() as u64;
        pv.add(MemStage::PadGen, p0, pad_iv.map(|iv| iv.1), requests);

        let mut traced: Vec<(u64, ReadMarks)> = Vec::new();
        let mut next_pad = 0usize;
        let fetched = (|| -> Result<(), MemError> {
            for &i in idxs.iter().filter(|&&i| absent(i)) {
                let addr = addrs[i];
                let counter = cb.counter(self.geo.slot_of(addr));
                let pad = (counter <= self.saturation).then(|| {
                    next_pad += 1;
                    &pads[next_pad - 1]
                });
                visit.counterless += u64::from(pad.is_none());
                let d0 = now();
                let word = self.backend.read_word(self.geo.data_word(addr))?;
                let mut marks = d0.zip(now()).map(|(d0, d1)| ReadMarks {
                    pad: pad.and(pad_iv),
                    data: (d0, d1),
                    ecc: (d1, d1),
                    mac: (d1, d1),
                    xts: None,
                    ready: d1,
                });
                let sat = self.saturation;
                let block = decrypt_verify(&keys, addr, &word, counter, sat, pad, marks.as_mut())?;
                if let Some(m) = marks {
                    pv.add_marks(&m);
                    if tracing {
                        traced.push((addr, m));
                    }
                }
                out[i] = block;
            }
            Ok(())
        })();
        fetched?;
        if let (true, Some(issue), Some(served)) = (tracing, issue, served) {
            let hits = hit_addrs(missing);
            if !hits.is_empty() {
                self.obs.spans.hits(issue, served, &hits);
            }
            if !traced.is_empty() {
                // A partial hit has no verify interval: its first
                // request gets a point counter fetch like the rest.
                self.obs
                    .spans
                    .reads(meta.unwrap_or((issue, issue)), &traced);
            }
        }

        // Install (or extend) the verified image while still under the
        // shard read lock: no write can have intervened, so the entry
        // matches the store exactly. The fetched blocks are in `out`.
        if let Some(cache) = &self.cache {
            let fresh = idxs.iter().filter(|&&i| absent(i));
            if was_partial {
                cache.with_mut(page, |e| {
                    if e.epoch == epoch {
                        for &i in fresh {
                            let slot = self.geo.slot_of(addrs[i]);
                            e.blocks[slot] = out[i];
                            e.present |= 1 << slot;
                        }
                    }
                });
            } else {
                let mut blocks = vec![[0u8; BLOCK_BYTES]; PAGE_BLOCKS as usize].into_boxed_slice();
                let mut present = 0u64;
                for &i in fresh {
                    let slot = self.geo.slot_of(addrs[i]);
                    blocks[slot] = out[i];
                    present |= 1 << slot;
                }
                let entry = PageCacheEntry {
                    epoch,
                    cb,
                    blocks,
                    present,
                };
                visit.fills += 1;
                visit.evictions += u64::from(cache.insert(page, entry).is_some());
            }
        }
        Ok(())
    }

    /// One group commit per batch. The batch takes the write lock of
    /// every shard it touches in ascending order (the order `rekey`
    /// uses), then the tree root, and holds them all until its commit.
    /// Under them it runs the reads' foreign-write check, reads each
    /// distinct untrusted tree node once and checks all the walk's MACs
    /// in one batched call, encrypts page by page (page rolls included),
    /// and lets
    /// [`commit_batch`] rewrite each touched node and counter word once.
    /// A page whose verified-page cache entry is of the current key
    /// epoch lends the batch its counter block, so the counter word is
    /// neither read nor re-checked. A mid-batch failure still commits
    /// exactly the blocks before it, so the store ends as if every block
    /// had committed on its own. A successful commit trusts every node
    /// on the batch's paths with its new value; a failed one drops all
    /// trust, since the store may hold only part of the commit.
    ///
    /// [`commit_batch`]: EncryptionLayer::commit_batch
    fn batch_write_inner(
        &self,
        writes: &[(u64, Block)],
        visit: &mut Visit,
    ) -> Result<(), MemError> {
        for &(addr, _) in writes {
            self.check_addr(addr)?;
        }
        let page_of = |i: usize| self.geo.page_of(writes[i].0);
        let order = Self::page_order(writes.len(), page_of);
        let runs: Vec<(u64, &[usize])> = order
            .chunk_by(|&a, &b| page_of(a) == page_of(b))
            .map(|idxs| (page_of(idxs[0]), idxs))
            .collect();
        let Some(&(first_page, _)) = runs.first() else {
            return Ok(());
        };
        let shard_ids: BTreeSet<usize> = runs.iter().map(|&(p, _)| self.shard_index(p)).collect();
        // The batch is one page visit, charged to its first page (a
        // composed tenant batch stays inside one tenant's pages). Each
        // shard's wait runs from the previous lock's acquisition.
        let clocked = visit.clocked;
        let now = || clocked.then(clock);
        let mut pv = PageVisit::new(first_page, writes.len() as u64);
        let wait0 = now();
        let mut held = wait0;
        let mut guards = Vec::with_capacity(shard_ids.len());
        for &s in &shard_ids {
            let guard = self.shards[s]
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            let got = now();
            guards.push((s, ns_between(held, got), guard));
            held = got;
        }
        pv.add(MemStage::Lock, wait0, held, 1);
        let keys = self.keys();
        let mut root = self.tree.write().unwrap_or_else(PoisonError::into_inner);
        self.foreign_writes_check();
        let generation = self.trust_generation();

        // Read every page's metadata first, then check all of its MACs
        // in one batched call. The first failure in walk order stops the
        // batch where a check-as-you-go walk would: the pages before it
        // are still written and committed, and the nodes read past it are
        // dropped unverified, never trusted or resealed.
        let t0 = now();
        let mkey = keys.counterless_mac_key();
        let mut walk = MetadataWalk {
            root: *root,
            ..MetadataWalk::default()
        };
        let mut cbs: Vec<CounterBlock> = Vec::with_capacity(runs.len());
        let mut failure = None;
        for &(page, idxs) in &runs {
            let cached = self.lent_counter_block(page);
            let addr = writes[idxs[0]].0;
            match self.walk_page(mkey, page, addr, cached, &mut walk) {
                Ok(cb) => cbs.push(cb),
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        // A MAC mismatch comes before the store error that stopped the
        // reads, if any, so it replaces it.
        if let Some((run, e)) = walk.check() {
            cbs.truncate(run);
            failure = Some(e.into());
        }
        visit.hops = walk.hops;
        let mut nodes = walk.nodes;
        visit
            .pages
            .extend(runs[..cbs.len()].iter().map(|&(page, _)| PageTally {
                page,
                ..PageTally::default()
            }));
        let t1 = now();
        pv.add(MemStage::TreeWalk, t0, t1, 1);

        // An encryption failure comes before any later page's verify
        // failure in batch order, so it replaces it.
        for (j, (cb, &(_, idxs))) in cbs.iter_mut().zip(&runs).enumerate() {
            if let Err(e) = self.write_page_group(&keys, cb, j, writes, idxs, visit, &mut pv) {
                failure = Some(e);
                break;
            }
        }

        let c0 = now();
        pv.data_ns = ns_between(t1, c0);
        let committed = self.commit_batch(&keys, &mut root, &mut nodes, &cbs, &visit.pages);
        match committed {
            Ok(()) => self.trust_nodes(generation, &nodes),
            Err(_) => self.purge_trust(),
        }
        let c1 = now();
        pv.add(MemStage::Commit, c0, c1, 1);
        pv.release(wait0, held, c1);
        drop(root);
        for (shard, wait_ns, guard) in guards {
            drop(guard);
            self.obs.lock(visit, shard, wait_ns, pv.hold_ns);
        }
        self.obs.page(visit, &pv);
        failure.map_or(committed, Err)
    }

    /// Encrypts one page group of a write batch under the page's
    /// verified counter block `cb` and writes its data words, page rolls
    /// included, tallying into `visit.pages[j]` and timing into `pv`. On
    /// an error the tally holds exactly the blocks that committed before
    /// it. Caller holds the page's shard write lock.
    #[allow(clippy::too_many_arguments)]
    fn write_page_group(
        &self,
        keys: &KeyMaterial,
        cb: &mut CounterBlock,
        j: usize,
        writes: &[(u64, Block)],
        idxs: &[usize],
        visit: &mut Visit,
        pv: &mut PageVisit,
    ) -> Result<(), MemError> {
        let page = visit.pages[j].page;
        let clocked = visit.clocked;
        let now = || clocked.then(clock);
        // Precise invalidation, before any word changes: only this
        // page's entry drops, so readers of other pages keep their hits
        // and no reader can ever see plaintext staler than the store.
        if let Some(cache) = &self.cache {
            visit.invalidated += u64::from(cache.remove(page));
        }
        for &i in idxs {
            let (addr, block) = writes[i];
            let mut next = cb.clone();
            let outcome = next.increment(self.geo.slot_of(addr));
            visit.counterless += u64::from(outcome.new_counter > self.saturation);
            // On a page roll, verify and decrypt every co-resident
            // block under its old counter before this block commits,
            // so a tampered neighbour aborts cleanly.
            let mut reencrypt: Vec<(u64, Block, u64)> = Vec::new();
            if let Some(others) = &outcome.page_reencryption {
                visit.pages[j].rolls += 1;
                let m0 = now();
                for &(other_slot, new_counter) in others {
                    let other_addr = page * PAGE_BLOCKS + other_slot as u64;
                    if other_addr >= self.geo.data_blocks() {
                        continue;
                    }
                    let word = self.backend.read_word(self.geo.data_word(other_addr))?;
                    let old = cb.counter(other_slot);
                    let pt =
                        decrypt_verify(keys, other_addr, &word, old, self.saturation, None, None)?;
                    reencrypt.push((other_addr, pt, new_counter));
                }
                pv.add(MemStage::MacVerify, m0, now(), 1);
            }
            *cb = next;
            visit.pages[j].blocks += 1;
            let p0 = now();
            let word = encrypt_one(keys, addr, &block, outcome.new_counter, self.saturation);
            pv.add(MemStage::PadGen, p0, now(), 1);
            self.store_write(self.geo.data_word(addr), &word)?;
            visit.pages[j].observed += 1;
            for (other_addr, pt, new_counter) in reencrypt {
                self.store_write(
                    self.geo.data_word(other_addr),
                    &encrypt_one(keys, other_addr, &pt, new_counter, self.saturation),
                )?;
                visit.pages[j].observed += 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::clock_reads;
    use crate::store::{FileBackend, VecBackend};
    use crate::tenant::{TenantRanges, TenantTelemetry};
    use clme_obs::span::{Blame, SpanKind};

    const MASTER: [u8; 32] = [0x42; 32];

    fn layer(blocks: u64) -> EncryptionLayer<VecBackend> {
        EncryptionLayer::new(VecBackend::for_blocks(blocks), blocks, MASTER).unwrap()
    }

    fn pattern(tag: u8) -> Block {
        core::array::from_fn(|i| tag ^ i as u8)
    }

    #[test]
    fn layer_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EncryptionLayer<VecBackend>>();
        assert_send_sync::<EncryptionLayer<FileBackend>>();
    }

    #[test]
    fn fresh_blocks_read_zero() {
        let mem = layer(130);
        for addr in [0, 64, 129] {
            assert_eq!(mem.read_block(addr).unwrap(), [0u8; 64]);
        }
    }

    #[test]
    fn write_read_round_trip_and_counters() {
        let mem = layer(130);
        mem.batch_write(&[(0, pattern(1)), (65, pattern(2)), (129, pattern(3))])
            .unwrap();
        assert_eq!(mem.read_block(0).unwrap(), pattern(1));
        assert_eq!(mem.read_block(65).unwrap(), pattern(2));
        assert_eq!(mem.read_block(129).unwrap(), pattern(3));
        assert_eq!(mem.counter_of(0).unwrap(), 1);
        assert_eq!(mem.counter_of(1).unwrap(), 0);
        mem.write_block(0, &pattern(9)).unwrap();
        assert_eq!(mem.counter_of(0).unwrap(), 2);
        assert_eq!(mem.read_block(0).unwrap(), pattern(9));
        assert_eq!(mem.root(), 4, "root counts every metadata write");
    }

    #[test]
    fn out_of_bounds_is_typed() {
        let mem = layer(64);
        assert!(matches!(
            mem.batch_read(&[64]),
            Err(MemError::OutOfBounds {
                index: 64,
                limit: 64
            })
        ));
        assert!(mem.batch_write(&[(64, [0u8; 64])]).is_err());
    }

    #[test]
    fn page_roll_reencrypts_co_residents() {
        let mem = layer(128);
        mem.write_block(1, &pattern(7)).unwrap();
        mem.write_block(63, &pattern(8)).unwrap();
        // 128 writes to block 0 overflow its 7-bit minor and roll page 0.
        for i in 0..128u32 {
            mem.write_block(0, &pattern(i as u8)).unwrap();
        }
        assert_eq!(mem.counter_of(0).unwrap(), 128);
        assert_eq!(mem.counter_of(1).unwrap(), 128, "co-resident rolled");
        assert_eq!(mem.read_block(0).unwrap(), pattern(127));
        assert_eq!(mem.read_block(1).unwrap(), pattern(7));
        assert_eq!(mem.read_block(63).unwrap(), pattern(8));
        // Page 1 was untouched.
        assert_eq!(mem.counter_of(64).unwrap(), 0);
    }

    #[test]
    fn saturation_switches_to_counterless_permanently() {
        let backend = VecBackend::for_blocks(64);
        let opts = LayerOptions {
            counter_saturation: 3,
            ..LayerOptions::default()
        };
        let mem = EncryptionLayer::with_options(backend, 64, MASTER, opts).unwrap();
        for round in 0..5u8 {
            mem.write_block(7, &pattern(round)).unwrap();
        }
        assert!(mem.is_counterless(7).unwrap());
        assert_eq!(mem.read_block(7).unwrap(), pattern(4));
        // Still writable, still counterless.
        mem.write_block(7, &pattern(9)).unwrap();
        assert_eq!(mem.read_block(7).unwrap(), pattern(9));
        assert!(mem.is_counterless(7).unwrap());
        // A sibling block below saturation stays in counter mode.
        mem.write_block(8, &pattern(1)).unwrap();
        assert!(!mem.is_counterless(8).unwrap());
    }

    #[test]
    fn attach_resumes_and_wrong_root_fails() {
        let mem = layer(128);
        mem.write_block(5, &pattern(5)).unwrap();
        let root = mem.root();
        let backend = mem.into_backend();
        let resumed = EncryptionLayer::attach(backend, 128, MASTER, root).unwrap();
        assert_eq!(resumed.read_block(5).unwrap(), pattern(5));
        // A stale root (replayed metadata) must fail tree verification.
        let backend = resumed.into_backend();
        let stale = EncryptionLayer::attach(backend, 128, MASTER, root + 1).unwrap();
        let err = stale.read_block(5).unwrap_err();
        assert!(
            matches!(
                err.integrity().map(|e| e.class),
                Some(TamperClass::TreeNode { .. })
            ),
            "{err}"
        );
    }

    #[test]
    fn geometry_mismatch_is_rejected() {
        let backend = VecBackend::new(10);
        assert!(matches!(
            EncryptionLayer::new(backend, 128, MASTER),
            Err(MemError::GeometryMismatch { .. })
        ));
    }

    #[test]
    fn rekey_reencrypts_everything_and_old_key_fails() {
        let mem = layer(130);
        mem.batch_write(&[(0, pattern(1)), (129, pattern(2))])
            .unwrap();
        let before: Vec<StoredWord> = (0..130)
            .map(|a| mem.backend().read_word(a).unwrap())
            .collect();
        let report = mem.rekey([0x77; 32]).unwrap();
        assert_eq!(report.blocks, 130);
        assert_eq!(report.pages, 3);
        // Every stored data word changed, plaintext did not.
        let after: Vec<StoredWord> = (0..130)
            .map(|a| mem.backend().read_word(a).unwrap())
            .collect();
        for (a, b) in before.iter().zip(&after) {
            assert_ne!(a, b, "rekey must rewrite every block");
        }
        assert_eq!(mem.read_block(0).unwrap(), pattern(1));
        assert_eq!(mem.read_block(129).unwrap(), pattern(2));
        // The old key no longer verifies anything.
        let root = mem.root();
        let backend = mem.into_backend();
        let old = EncryptionLayer::attach(backend, 130, MASTER, root).unwrap();
        assert!(old.read_block(0).is_err());
    }

    #[test]
    fn reads_emit_spans_when_traced() {
        let mem = layer(128);
        mem.batch_write(&[(0, pattern(1)), (64, pattern(2))])
            .unwrap();
        mem.install_tracer(SpanTracer::new(64));
        let _ = mem.batch_read(&[0, 1, 64]).unwrap();
        let tracer = mem.take_tracer().expect("tracer installed");
        assert_eq!(tracer.total_requests(), 3);
        assert_eq!(tracer.tally().total(), 3);
        // The software data path verifies the MAC after the data
        // arrives, so counter-mode reads are mac- (or cipher-) bound —
        // never counter-bound: metadata is verified before the data.
        assert_eq!(tracer.tally().count(Blame::Counter), 0);
        for req in tracer.sampled() {
            assert!(req
                .children
                .iter()
                .any(|c| c.kind == SpanKind::CounterFetch));
            assert!(req.children.iter().any(|c| c.kind == SpanKind::DataDram));
            assert!(req.ready >= req.data_arrival);
        }
        // Untraced reads after take_tracer still work.
        assert_eq!(mem.read_block(0).unwrap(), pattern(1));
    }

    /// Every clock read goes through `observe::clock`, and only a
    /// sampled call or an installed tracer reads it. Pinned per kind of
    /// call, on a fresh thread so that its ticks start at 0: the first
    /// call of each kind is sampled, and no call after it is until
    /// call `SAMPLE_EVERY`.
    #[test]
    fn clock_reads_are_pinned_per_call() {
        std::thread::spawn(|| {
            let mut mem = layer(3 * PAGE_BLOCKS);
            mem.install_tenants(Arc::new(TenantTelemetry::new(
                TenantRanges {
                    count: 3,
                    first_page: 0,
                    pages_per: 1,
                },
                3,
                &[0, 1, 2],
                Vec::new(),
            )));
            let reads = |call: &dyn Fn()| {
                let before = clock_reads();
                call();
                clock_reads() - before
            };
            // The sampled calls: a two-page write batch, then a miss on
            // the same two pages with two blocks fetched from one. A
            // sampled write reads 1 + 1 + 2 (call start, lock request,
            // one acquisition per shard) + 2 (tree walk) + 2 * 2 (pad per
            // block) + 2 (commit) + 1 (call end). A sampled read reads
            // 1 (call start) + 1 (call end), and per page visit 2 (lock)
            // + 1 (cache lookup) + 2 (tree walk) + 2 (pad pass) + 1
            // (release) + 4 per fetched block (store read 2, ECC 1, MAC
            // 1).
            let sampled_write = reads(&|| {
                mem.batch_write(&[(0, pattern(1)), (PAGE_BLOCKS, pattern(2))])
                    .unwrap()
            });
            let sampled_read = reads(&|| {
                mem.batch_read(&[0, 1, PAGE_BLOCKS]).unwrap();
            });
            let cached_read = reads(&|| {
                mem.batch_read(&[0, PAGE_BLOCKS]).unwrap();
            });
            let missed_read = reads(&|| {
                mem.batch_read(&[2 * PAGE_BLOCKS]).unwrap();
            });
            let write = reads(&|| mem.write_block(3, &pattern(3)).unwrap());
            let tenant_call = reads(&|| {
                mem.batch_read(&[2 * PAGE_BLOCKS + 1]).unwrap();
                mem.record_tenant_batch(2, false, 1_000, 1);
            });
            let pinned = [
                sampled_write,
                sampled_read,
                cached_read,
                missed_read,
                write,
                tenant_call,
            ];
            if cfg!(feature = "telemetry-off") {
                assert_eq!(pinned, [0; 6], "nothing is sampled");
            } else {
                assert_eq!(pinned, [13, 30, 0, 0, 0, 0]);
            }
        })
        .join()
        .unwrap();
    }

    #[test]
    fn file_backend_layer_round_trips_and_persists() {
        let path =
            std::env::temp_dir().join(format!("clme-mem-layer-{}.store", std::process::id()));
        let mem = EncryptionLayer::new(
            FileBackend::create_for_blocks(&path, 96).unwrap(),
            96,
            MASTER,
        )
        .unwrap();
        mem.batch_write(&[(0, pattern(3)), (95, pattern(4))])
            .unwrap();
        assert_eq!(mem.read_block(95).unwrap(), pattern(4));
        let root = mem.root();
        drop(mem.into_backend());
        let reopened =
            EncryptionLayer::attach(FileBackend::open(&path).unwrap(), 96, MASTER, root).unwrap();
        assert_eq!(reopened.read_block(0).unwrap(), pattern(3));
        assert_eq!(reopened.read_block(95).unwrap(), pattern(4));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    #[cfg(not(feature = "telemetry-off"))]
    fn metrics_count_traffic_stages_and_locks() {
        use crate::metrics::{MemOp, MemStage};
        let mem = layer(130);
        mem.batch_write(&[(0, pattern(1)), (65, pattern(2))])
            .unwrap();
        let _ = mem.batch_read(&[0, 65, 129]).unwrap();
        let snap = mem.metrics_snapshot();
        assert_eq!(snap.blocks_written, 2);
        assert_eq!(snap.blocks_read, 3);
        assert_eq!(snap.batch_writes, 1);
        assert_eq!(snap.batch_reads, 1);
        assert_eq!(snap.integrity_errors, 0);
        // A test thread's first call of each kind is sampled, and a
        // sampled call records every probe of every page visit in it.
        assert_eq!(snap.op(MemOp::Read).latency.count(), 3);
        assert_eq!(snap.op(MemOp::Write).latency.count(), 2);
        assert_eq!(snap.op(MemOp::Batch).latency.count(), 2);
        // One read tree walk per missed page: reads span pages {0,1,2}.
        assert_eq!(
            snap.op(MemOp::Read).stages[MemStage::TreeWalk as usize].count(),
            3
        );
        // The write batch verified and committed once.
        assert_eq!(
            snap.op(MemOp::Write).stages[MemStage::TreeWalk as usize].count(),
            1
        );
        assert_eq!(
            snap.op(MemOp::Write).stages[MemStage::Commit as usize].count(),
            1
        );
        // Three fetched read blocks, and five shard-lock acquisitions
        // (two by the write batch, three read page visits).
        assert_eq!(
            snap.op(MemOp::Read).stages[MemStage::MacVerify as usize].count(),
            3
        );
        assert_eq!(
            snap.op(MemOp::Read).stages[MemStage::PadGen as usize].count(),
            3
        );
        let waits: u64 = snap.lock_wait.iter().map(|h| h.count()).sum();
        let holds: u64 = snap.lock_hold.iter().map(|h| h.count()).sum();
        assert_eq!(waits, 5);
        assert_eq!(holds, 5);
        assert!(snap.store.words_read > 0);
        assert!(snap.store.words_written > 0);
    }

    #[test]
    #[cfg(not(feature = "telemetry-off"))]
    fn batch_rewrites_each_metadata_word_once() {
        let mem = layer(130);
        let before = mem.metrics_snapshot().store.words_written;
        // Five writes (one address twice) over three pages under one
        // leaf node: five data words, three counter words, one node.
        mem.batch_write(&[
            (0, pattern(1)),
            (1, pattern(2)),
            (0, pattern(3)),
            (64, pattern(4)),
            (129, pattern(5)),
        ])
        .unwrap();
        assert_eq!(
            mem.metrics_snapshot().store.words_written - before,
            5 + 3 + 1
        );
        assert_eq!(mem.root(), 5, "the root still counts every block");
        assert_eq!(mem.read_block(0).unwrap(), pattern(3));
    }

    #[test]
    #[cfg(not(feature = "telemetry-off"))]
    fn sampled_probes_fire_under_sustained_traffic() {
        use crate::metrics::{MemOp, MemStage};
        use crate::observe::SAMPLE_EVERY;
        let mem = layer(64);
        // Sixteen rounds of one write batch and one read call: calls 0,
        // SAMPLE_EVERY, ... of each kind are sampled, and each sampled
        // call carries every one of its probes. Each read follows a
        // write that invalidated its page, so it misses and fetches.
        let sampled = 16u64.div_ceil(SAMPLE_EVERY);
        for round in 0..16u8 {
            mem.batch_write(&[
                (0, pattern(round)),
                (1, pattern(round.wrapping_add(1))),
                (2, pattern(round.wrapping_add(2))),
            ])
            .unwrap();
            let _ = mem.batch_read(&[0, 1, 2]).unwrap();
        }
        let snap = mem.metrics_snapshot();
        assert_eq!(snap.blocks_written, 48);
        assert_eq!(snap.blocks_read, 48);
        let (write, read) = (snap.op(MemOp::Write), snap.op(MemOp::Read));
        assert_eq!(write.latency.count(), 3 * sampled);
        assert_eq!(read.latency.count(), 3 * sampled);
        assert_eq!(write.stages[MemStage::TreeWalk as usize].count(), sampled);
        assert_eq!(write.stages[MemStage::Commit as usize].count(), sampled);
        assert_eq!(write.stages[MemStage::PadGen as usize].count(), 3 * sampled);
        assert_eq!(
            read.stages[MemStage::MacVerify as usize].count(),
            3 * sampled
        );
        assert_eq!(read.stages[MemStage::PadGen as usize].count(), 3 * sampled);
        let waits: u64 = snap.lock_wait.iter().map(|h| h.count()).sum();
        assert_eq!(waits, 2 * sampled, "one shard lock per sampled call");
    }

    #[test]
    #[cfg(not(feature = "telemetry-off"))]
    fn alternating_calls_sample_both_kinds() {
        use crate::metrics::MemOp;
        use crate::observe::SAMPLE_EVERY;
        let mem = layer(64);
        // Each op kind has its own tick, so alternating one-block writes
        // and reads sample calls 0, SAMPLE_EVERY and 2 * SAMPLE_EVERY of
        // both kinds.
        for round in 0..=2 * SAMPLE_EVERY {
            mem.write_block(round % 64, &pattern(round as u8)).unwrap();
            assert_eq!(mem.read_block(round % 64).unwrap(), pattern(round as u8));
        }
        let snap = mem.metrics_snapshot();
        assert_eq!(snap.op(MemOp::Write).latency.count(), 3);
        assert_eq!(snap.op(MemOp::Read).latency.count(), 3);
        assert_eq!(snap.op(MemOp::Batch).latency.count(), 6);
        assert_eq!(snap.fanin_write.count(), 3);
        assert_eq!(snap.fanin_read.count(), 3);
    }

    #[test]
    #[cfg(not(feature = "telemetry-off"))]
    fn metrics_track_page_rolls_and_observed_writes() {
        let mem = layer(128);
        mem.write_block(1, &pattern(7)).unwrap();
        for i in 0..128u32 {
            mem.write_block(0, &pattern(i as u8)).unwrap();
        }
        let snap = mem.metrics_snapshot();
        assert!(snap.page_rolls >= 1, "minor overflow rolled the page");
        // 129 direct writes plus the co-residents re-encrypted on rolls.
        assert!(snap.observed_writes_total > 129);
        assert_eq!(snap.observed_writes_max_page, 0);
        let metrics = mem.metrics().expect("telemetry compiled in");
        assert_eq!(snap.observed_writes_max, metrics.observed_writes(0));
        assert_eq!(
            metrics.observed_writes(1),
            snap.observed_writes_total - metrics.observed_writes(0)
        );
    }

    #[test]
    #[cfg(not(feature = "telemetry-off"))]
    fn metrics_track_rekey_progress_and_key_dwell() {
        let mem = layer(130);
        mem.batch_write(&[(0, pattern(1)), (129, pattern(2))])
            .unwrap();
        mem.rekey([0x77; 32]).unwrap();
        let snap = mem.metrics_snapshot();
        assert_eq!(snap.rekey.sweeps, 1);
        assert!(!snap.rekey.in_progress);
        assert_eq!(snap.rekey.pages_total, 3);
        assert_eq!(snap.rekey.pages_done, 3);
        // The sweep re-wrote every live data block.
        assert!(snap.observed_writes_total >= 2 + 130);
    }

    #[test]
    #[cfg(not(feature = "telemetry-off"))]
    fn metrics_prom_exposition_has_layer_and_store_families() {
        let mem = layer(64);
        mem.write_block(0, &pattern(5)).unwrap();
        let text = mem.metrics_prom();
        for family in [
            "clme_mem_blocks_written_total",
            "clme_mem_op_latency_ps",
            "clme_mem_lock_wait_ps",
            "clme_mem_rekey_in_progress",
            "clme_store_words_written_total",
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
    }

    #[test]
    #[cfg(not(feature = "telemetry-off"))]
    fn read_cache_hits_skip_store_traffic_and_rebias_blame() {
        let mem = layer(130);
        mem.batch_write(&[(0, pattern(1)), (1, pattern(2))])
            .unwrap();
        assert_eq!(
            mem.batch_read(&[0, 1]).unwrap(),
            vec![pattern(1), pattern(2)]
        );
        let words_before = mem.metrics_snapshot().store.words_read;
        mem.install_tracer(SpanTracer::new(16));
        assert_eq!(
            mem.batch_read(&[0, 1]).unwrap(),
            vec![pattern(1), pattern(2)]
        );
        let tracer = mem.take_tracer().expect("tracer installed");
        assert_eq!(
            tracer.tally().count(Blame::Dram),
            2,
            "hits are DRAM-bound, never MAC-bound"
        );
        let snap = mem.metrics_snapshot();
        assert_eq!(
            snap.store.words_read, words_before,
            "a full hit reads no words"
        );
        assert_eq!(snap.cache.hits, 1);
        assert_eq!(snap.cache.misses, 1);
        assert_eq!(snap.cache.fills, 1);
        assert_eq!(
            snap.op(MemOp::Read).latency.count(),
            2,
            "only the thread's first read call is sampled"
        );

        // One batch over a fully cached page (0) and a partly cached one
        // (1, holding only block 64), pages interleaved: block 65's data
        // word is the batch's only store read, and only page 1 counts a
        // partial hit.
        mem.batch_write(&[(64, pattern(3)), (65, pattern(4))])
            .unwrap();
        assert_eq!(mem.read_block(64).unwrap(), pattern(3));
        let before = mem.metrics_snapshot();
        assert_eq!(
            mem.batch_read(&[65, 0, 64, 1]).unwrap(),
            vec![pattern(4), pattern(1), pattern(3), pattern(2)]
        );
        let snap = mem.metrics_snapshot();
        assert_eq!(
            snap.store.words_read - before.store.words_read,
            1,
            "only the absent block reaches the store"
        );
        assert_eq!(snap.cache.hits - before.cache.hits, 1);
        assert_eq!(snap.cache.partial_hits - before.cache.partial_hits, 1);
        assert_eq!(snap.cache.misses, before.cache.misses);
    }

    #[test]
    #[cfg(not(feature = "telemetry-off"))]
    fn partial_hits_reuse_the_counter_block_and_merge() {
        let mem = layer(130);
        mem.batch_write(&[(0, pattern(1)), (1, pattern(2))])
            .unwrap();
        let _ = mem.batch_read(&[0]).unwrap(); // miss: fills slot 0
        let after_miss = mem.metrics_snapshot();
        let got = mem.batch_read(&[0, 1]).unwrap(); // partial: 1 from store
        assert_eq!(got, vec![pattern(1), pattern(2)]);
        let got = mem.batch_read(&[1]).unwrap(); // merged slot -> full hit
        assert_eq!(got, vec![pattern(2)]);
        let snap = mem.metrics_snapshot();
        assert_eq!(snap.cache.misses, 1);
        assert_eq!(snap.cache.partial_hits, 1);
        assert_eq!(snap.cache.hits, 1);
        assert_eq!(snap.cache.fills, 1);
        // Only the cold miss walked the tree; the partial hit trusted
        // the cached counter block, took no tree hop and read only its
        // absent data word.
        assert_eq!(snap.tree, after_miss.tree);
        assert_eq!(snap.store.words_read - after_miss.store.words_read, 1);
    }

    #[test]
    #[cfg(not(feature = "telemetry-off"))]
    fn writes_invalidate_exactly_their_page() {
        let mem = layer(130);
        mem.batch_write(&[(0, pattern(1)), (64, pattern(2))])
            .unwrap();
        let _ = mem.batch_read(&[0, 64]).unwrap(); // fills pages 0 and 1
        mem.write_block(0, &pattern(9)).unwrap(); // drops page 0 only
        assert_eq!(mem.read_block(64).unwrap(), pattern(2)); // page 1 still hits
        assert_eq!(mem.read_block(0).unwrap(), pattern(9)); // page 0 re-misses
        let snap = mem.metrics_snapshot();
        assert_eq!(snap.cache.invalidated(CacheCause::Write), 1);
        assert_eq!(snap.cache.hits, 1);
        assert_eq!(snap.cache.misses, 3);
    }

    #[test]
    #[cfg(not(feature = "telemetry-off"))]
    fn foreign_writes_purge_the_cache() {
        let mem = layer(130);
        mem.write_block(0, &pattern(1)).unwrap();
        assert_eq!(mem.read_block(0).unwrap(), pattern(1)); // fill
                                                            // An adversary flips a byte below the layer: the next lookup
                                                            // must purge and re-verify — never serve cached plaintext over
                                                            // a store-level flip.
        let word0 = mem.backend().read_word(0).unwrap();
        let mut flipped = word0;
        flipped[3] ^= 0x01;
        mem.backend().write_word(0, &flipped).unwrap();
        assert!(mem.read_block(0).is_err());
        let snap = mem.metrics_snapshot();
        assert_eq!(snap.cache.foreign_purges, 1);
        assert_eq!(snap.cache.invalidated(CacheCause::Foreign), 1);
        // Restoring the word is another foreign write: purged again,
        // and reads recover.
        mem.backend().write_word(0, &word0).unwrap();
        assert_eq!(mem.read_block(0).unwrap(), pattern(1));
        assert_eq!(mem.metrics_snapshot().cache.foreign_purges, 2);
    }

    #[test]
    #[cfg(not(feature = "telemetry-off"))]
    fn rekey_drops_every_cached_page() {
        let mem = layer(130);
        mem.batch_write(&[(0, pattern(1)), (64, pattern(2))])
            .unwrap();
        let _ = mem.batch_read(&[0, 64]).unwrap();
        mem.rekey([0x55; 32]).unwrap();
        let snap = mem.metrics_snapshot();
        assert_eq!(snap.cache.invalidated(CacheCause::Rekey), 2);
        assert_eq!(snap.cache.resident_pages, 0);
        // Reads after the sweep verify under the new key and refill.
        assert_eq!(mem.read_block(0).unwrap(), pattern(1));
        assert_eq!(mem.metrics_snapshot().cache.misses, 3);
    }

    #[test]
    #[cfg(not(feature = "telemetry-off"))]
    fn cache_disabled_counts_bypasses_and_still_verifies() {
        let opts = LayerOptions {
            cache_pages: 0,
            ..LayerOptions::default()
        };
        let mem =
            EncryptionLayer::with_options(VecBackend::for_blocks(130), 130, MASTER, opts).unwrap();
        mem.write_block(0, &pattern(1)).unwrap();
        let before = mem.metrics_snapshot();
        assert_eq!(mem.read_block(0).unwrap(), pattern(1));
        assert_eq!(mem.read_block(0).unwrap(), pattern(1));
        let snap = mem.metrics_snapshot();
        assert_eq!(snap.cache.bypasses, 2);
        assert_eq!(
            snap.cache.hits + snap.cache.partial_hits + snap.cache.misses,
            0
        );
        // Two identical reads, two full verification chains: with no
        // cache nothing is trusted, so each walk verifies every level
        // and reads every node word, the counter word and the data word.
        let levels = mem.geometry().levels() as u64;
        let verified = snap.tree.nodes_verified - before.tree.nodes_verified;
        assert_eq!(verified, 2 * levels);
        assert_eq!(snap.tree.nodes_trusted, 0);
        assert_eq!(
            snap.store.words_read - before.store.words_read,
            2 * (levels + 2)
        );
    }

    #[test]
    #[cfg(not(feature = "telemetry-off"))]
    fn tiny_cache_evicts_but_keeps_serving_correctly() {
        let blocks = 4 * PAGE_BLOCKS;
        let opts = LayerOptions {
            cache_pages: 2,
            shards: 1,
            ..LayerOptions::default()
        };
        let mem =
            EncryptionLayer::with_options(VecBackend::for_blocks(blocks), blocks, MASTER, opts)
                .unwrap();
        for page in 0..4u64 {
            mem.write_block(page * PAGE_BLOCKS, &pattern(page as u8))
                .unwrap();
        }
        for round in 0..3 {
            for page in 0..4u64 {
                assert_eq!(
                    mem.read_block(page * PAGE_BLOCKS).unwrap(),
                    pattern(page as u8),
                    "round {round}"
                );
            }
        }
        let snap = mem.metrics_snapshot();
        assert!(
            snap.cache.evictions > 0,
            "4 hot pages must not fit in 2 slots"
        );
        assert!(snap.cache.resident_pages <= 2);
        assert_eq!(snap.cache.fills, snap.cache.misses);
    }

    #[test]
    #[cfg(not(feature = "telemetry-off"))]
    fn counter_of_failures_take_the_integrity_error_path() {
        let mem = layer(130);
        mem.write_block(65, &pattern(1)).unwrap();
        assert_eq!(mem.counter_of(65).unwrap(), 1);
        let index = mem.geometry().counter_word(1);
        let mut word = mem.backend().read_word(index).unwrap();
        word[5] ^= 0x01;
        mem.backend().write_word(index, &word).unwrap();
        let err = mem.counter_of(65).unwrap_err();
        assert_eq!(
            err.integrity().map(|e| e.class),
            Some(TamperClass::CounterBlock)
        );
        assert_eq!(mem.metrics_snapshot().integrity_errors, 1);
        assert!(mem.is_counterless(65).is_err());
        assert_eq!(mem.metrics_snapshot().integrity_errors, 2);
    }

    #[test]
    #[cfg(not(feature = "telemetry-off"))]
    fn counter_of_a_cached_page_reads_no_store_word() {
        let mem = layer(130);
        mem.write_block(65, &pattern(1)).unwrap();
        mem.write_block(66, &pattern(2)).unwrap();
        assert_eq!(mem.read_block(65).unwrap(), pattern(1));
        let before = mem.metrics_snapshot().store.words_read;
        assert_eq!(mem.counter_of(65).unwrap(), 1);
        assert_eq!(mem.counter_of(66).unwrap(), 1);
        assert_eq!(mem.counter_of(67).unwrap(), 0);
        assert_eq!(mem.metrics_snapshot().store.words_read, before);
    }

    #[test]
    #[cfg(feature = "telemetry-off")]
    fn telemetry_off_layer_still_round_trips_with_empty_snapshot() {
        let mem = layer(64);
        mem.write_block(0, &pattern(5)).unwrap();
        assert_eq!(mem.read_block(0).unwrap(), pattern(5));
        let snap = mem.metrics_snapshot();
        assert_eq!(snap.blocks_written, 0);
        assert!(mem.metrics_prom().is_empty());
        // The off build keeps no flight recorder: the timeline is empty.
        assert!(mem.flight_snapshot().events.is_empty());
    }
}
