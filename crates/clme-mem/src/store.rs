//! Backing stores: flat arrays of 80-byte stored words.
//!
//! A stored word is one encoded memory block — 64 bytes of payload plus
//! the 8-byte MAC lane and 8-byte parity/reserved lane, exactly the
//! 10-chip DDR5 footprint of the Synergy layout. Backends are *dumb*:
//! they hold opaque words and know nothing about encryption, which is
//! also what makes them the attacker's surface — a tamper test (or a
//! bus adversary) flips bytes here, below the encryption layer.

use crate::cache::ClockCache;
use crate::error::MemError;
use crate::geometry::Geometry;
use crate::metrics::StoreMetrics;
use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError, RwLock};

/// Bytes per stored word: 64 payload + 8 MAC lane + 8 parity lane.
pub const WORD_BYTES: usize = 80;

/// One stored word.
pub type StoredWord = [u8; WORD_BYTES];

/// A flat, thread-safe store of [`StoredWord`]s.
///
/// A backend that wraps another (to time or trace its word I/O) must
/// forward all six methods, the defaulted ones included: the layer
/// turns its verified-page cache off without a
/// [`write_generation`](StoreBackend::write_generation), folds the
/// store counters in from [`store_metrics`](StoreBackend::store_metrics)
/// and records [`kind`](StoreBackend::kind) in dump bundles. A wrapper
/// that forwards them leaves the layer's counters, root and stored
/// bytes exactly as on the bare backend
/// (`crates/clme-mem/tests/mem_backend_wrapper.rs`).
pub trait StoreBackend: Send + Sync {
    /// Number of stored words.
    fn words(&self) -> u64;

    /// Reads one word.
    fn read_word(&self, index: u64) -> Result<StoredWord, MemError>;

    /// Writes one word.
    fn write_word(&self, index: u64, word: &StoredWord) -> Result<(), MemError>;

    /// The backend's telemetry counters, when it keeps any. The
    /// encryption layer folds these into its metrics snapshot; the
    /// default is for backends with no instrumentation.
    fn store_metrics(&self) -> Option<&StoreMetrics> {
        None
    }

    /// Stable backend identifier recorded into post-mortem dump bundles
    /// so a replay can rebuild the same backend class. The default is
    /// for out-of-tree backends the replayer does not know.
    fn kind(&self) -> &'static str {
        "unknown"
    }

    /// A counter that advances on **every** successful `write_word`,
    /// regardless of who called it. The encryption layer compares it
    /// against its own write count to detect *foreign* writes — a
    /// tamper harness or bus adversary mutating words underneath the
    /// layer — and purges its verified-page cache when they differ,
    /// so cached plaintext can never mask a store-level flip. `None`
    /// (the default) means the backend keeps no such counter and the
    /// layer must bypass its cache entirely.
    fn write_generation(&self) -> Option<u64> {
        None
    }
}

fn check_bounds(index: u64, limit: u64) -> Result<(), MemError> {
    if index < limit {
        Ok(())
    } else {
        Err(MemError::OutOfBounds { index, limit })
    }
}

// ---------------------------------------------------------------------
// In-memory backend
// ---------------------------------------------------------------------

/// Words per lock segment in [`VecBackend`]; segments stripe by index
/// so neighbouring words rarely contend.
const VEC_SEGMENTS: usize = 16;

/// An in-memory backend: the words live in striped `RwLock`ed vectors.
pub struct VecBackend {
    segments: Vec<RwLock<Vec<StoredWord>>>,
    words: u64,
    generation: AtomicU64,
    metrics: StoreMetrics,
}

impl VecBackend {
    /// A zeroed store of `words` stored words.
    pub fn new(words: u64) -> VecBackend {
        let mut segments = Vec::with_capacity(VEC_SEGMENTS);
        for s in 0..VEC_SEGMENTS as u64 {
            // Words w with w % VEC_SEGMENTS == s.
            let len = (words + VEC_SEGMENTS as u64 - 1 - s) / VEC_SEGMENTS as u64;
            segments.push(RwLock::new(vec![[0u8; WORD_BYTES]; len as usize]));
        }
        VecBackend {
            segments,
            words,
            generation: AtomicU64::new(0),
            metrics: StoreMetrics::new(),
        }
    }

    /// A zeroed store sized for `data_blocks` blocks plus all the
    /// counter and tree metadata the encryption layer needs.
    pub fn for_blocks(data_blocks: u64) -> VecBackend {
        VecBackend::new(Geometry::for_blocks(data_blocks).total_words())
    }

    fn locate(&self, index: u64) -> (usize, usize) {
        (
            (index % VEC_SEGMENTS as u64) as usize,
            (index / VEC_SEGMENTS as u64) as usize,
        )
    }
}

impl StoreBackend for VecBackend {
    fn words(&self) -> u64 {
        self.words
    }

    fn read_word(&self, index: u64) -> Result<StoredWord, MemError> {
        check_bounds(index, self.words)?;
        self.metrics.word_read();
        let (seg, pos) = self.locate(index);
        let guard = self.segments[seg]
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        Ok(guard[pos])
    }

    fn write_word(&self, index: u64, word: &StoredWord) -> Result<(), MemError> {
        check_bounds(index, self.words)?;
        self.metrics.word_written();
        // SeqCst so the layer's gen-then-self-count read order gives a
        // foreign-write estimate that never exceeds the true count.
        self.generation.fetch_add(1, Ordering::SeqCst);
        let (seg, pos) = self.locate(index);
        let mut guard = self.segments[seg]
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        guard[pos] = *word;
        Ok(())
    }

    fn store_metrics(&self) -> Option<&StoreMetrics> {
        Some(&self.metrics)
    }

    fn kind(&self) -> &'static str {
        "vec"
    }

    fn write_generation(&self) -> Option<u64> {
        Some(self.generation.load(Ordering::SeqCst))
    }
}

// ---------------------------------------------------------------------
// Paged file backend
// ---------------------------------------------------------------------

/// Stored words per cached file page (one 5 KB run of the file).
pub const FILE_PAGE_WORDS: u64 = 64;

/// Resident pages the file cache holds (same total footprint as the old
/// direct-mapped design, but CLOCK-managed so hot pages survive
/// conflict misses).
const FILE_CACHE_PAGES: usize = 64;

/// Shards of the file page cache's [`ClockCache`].
const FILE_CACHE_SHARDS: usize = 8;

/// Page-coherence stripes: all I/O for a page serialises on
/// `stripes[page % FILE_STRIPES]` so a racing read-miss fill can never
/// install bytes staler than a concurrent write-through.
const FILE_STRIPES: usize = 16;

/// An mmap-style paged file store: words live in a flat file, accessed
/// through positioned I/O with a page cache evicted by the crate-wide
/// sharded CLOCK policy ([`ClockCache`]) — the same machinery behind
/// the encryption layer's verified-page cache.
///
/// The cache is write-through without write-allocate: every write goes
/// to the file, and updates the cached page only when it is already
/// resident. Only read misses fill the cache, so an 80-byte write never
/// pays for reading the 5 KB page around it. The page-cache hit and
/// miss counters therefore count reads, and every miss is one file read.
///
/// Dropping the backend does **not** delete the file; reopen it with
/// [`FileBackend::open`] (and re-attach the layer with its saved root)
/// to get persistence.
pub struct FileBackend {
    file: File,
    path: PathBuf,
    words: u64,
    cache: ClockCache<Vec<u8>>,
    stripes: Vec<Mutex<()>>,
    generation: AtomicU64,
    metrics: StoreMetrics,
}

impl FileBackend {
    /// Creates (truncating) a zero-filled store of `words` words.
    pub fn create(path: impl AsRef<Path>, words: u64) -> Result<FileBackend, MemError> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        file.set_len(words * WORD_BYTES as u64)?;
        Ok(FileBackend::wrap(file, path, words))
    }

    /// Creates a store sized for `data_blocks` blocks plus metadata.
    pub fn create_for_blocks(
        path: impl AsRef<Path>,
        data_blocks: u64,
    ) -> Result<FileBackend, MemError> {
        FileBackend::create(path, Geometry::for_blocks(data_blocks).total_words())
    }

    /// Opens an existing store, inferring the word count from the file
    /// length (which must be a multiple of [`WORD_BYTES`]).
    pub fn open(path: impl AsRef<Path>) -> Result<FileBackend, MemError> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        let len = file.metadata()?.len();
        if len % WORD_BYTES as u64 != 0 {
            return Err(MemError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("store length {len} is not a multiple of {WORD_BYTES}"),
            )));
        }
        Ok(FileBackend::wrap(file, path, len / WORD_BYTES as u64))
    }

    fn wrap(file: File, path: PathBuf, words: u64) -> FileBackend {
        FileBackend {
            file,
            path,
            words,
            cache: ClockCache::new(FILE_CACHE_SHARDS, FILE_CACHE_PAGES),
            stripes: (0..FILE_STRIPES).map(|_| Mutex::new(())).collect(),
            generation: AtomicU64::new(0),
            metrics: StoreMetrics::new(),
        }
    }

    /// The store's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn page_len(&self, page: u64) -> usize {
        let first = page * FILE_PAGE_WORDS;
        let words = (self.words - first).min(FILE_PAGE_WORDS);
        words as usize * WORD_BYTES
    }

    fn stripe(&self, page: u64) -> std::sync::MutexGuard<'_, ()> {
        self.stripes[(page % FILE_STRIPES as u64) as usize]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn read_at(&self, buf: &mut [u8], offset: u64) -> Result<(), MemError> {
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.read_exact_at(buf, offset)?;
        }
        #[cfg(not(unix))]
        {
            use std::io::{Read, Seek, SeekFrom};
            let mut f = &self.file;
            f.seek(SeekFrom::Start(offset))?;
            f.read_exact(buf)?;
        }
        Ok(())
    }

    fn write_at(&self, buf: &[u8], offset: u64) -> Result<(), MemError> {
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.write_all_at(buf, offset)?;
        }
        #[cfg(not(unix))]
        {
            use std::io::{Seek, SeekFrom, Write};
            let mut f = &self.file;
            f.seek(SeekFrom::Start(offset))?;
            f.write_all(buf)?;
        }
        Ok(())
    }
}

impl StoreBackend for FileBackend {
    fn words(&self) -> u64 {
        self.words
    }

    fn read_word(&self, index: u64) -> Result<StoredWord, MemError> {
        check_bounds(index, self.words)?;
        self.metrics.word_read();
        let page = index / FILE_PAGE_WORDS;
        let within = (index % FILE_PAGE_WORDS) as usize * WORD_BYTES;
        // Same-page operations serialise on the stripe so a miss fill
        // cannot install bytes older than a concurrent write-through.
        let _stripe = self.stripe(page);
        let hit = self.cache.with(page, |bytes| {
            let mut word = [0u8; WORD_BYTES];
            word.copy_from_slice(&bytes[within..within + WORD_BYTES]);
            word
        });
        if let Some(word) = hit {
            self.metrics.cache_hit();
            return Ok(word);
        }
        // Miss: read the whole page from the file and install it.
        self.metrics.cache_miss();
        let mut bytes = vec![0u8; self.page_len(page)];
        self.metrics.file_read();
        self.read_at(&mut bytes, page * FILE_PAGE_WORDS * WORD_BYTES as u64)?;
        let mut word = [0u8; WORD_BYTES];
        word.copy_from_slice(&bytes[within..within + WORD_BYTES]);
        if self.cache.insert(page, bytes).is_some() {
            self.metrics.cache_evicted();
        }
        Ok(word)
    }

    fn write_word(&self, index: u64, word: &StoredWord) -> Result<(), MemError> {
        check_bounds(index, self.words)?;
        self.metrics.word_written();
        self.generation.fetch_add(1, Ordering::SeqCst);
        let page = index / FILE_PAGE_WORDS;
        let within = (index % FILE_PAGE_WORDS) as usize * WORD_BYTES;
        // Hold the page stripe across file and cache updates so a racing
        // reader of the same page never caches stale bytes.
        let _stripe = self.stripe(page);
        self.metrics.file_write();
        self.write_at(word, index * WORD_BYTES as u64)?;
        // No write-allocate: a resident page takes the new word, an
        // absent one stays absent.
        self.cache.with_mut(page, |bytes| {
            bytes[within..within + WORD_BYTES].copy_from_slice(word)
        });
        Ok(())
    }

    fn store_metrics(&self) -> Option<&StoreMetrics> {
        Some(&self.metrics)
    }

    fn kind(&self) -> &'static str {
        "file"
    }

    fn write_generation(&self) -> Option<u64> {
        Some(self.generation.load(Ordering::SeqCst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("clme-mem-store-{tag}-{}.bin", std::process::id()))
    }

    #[test]
    fn vec_backend_round_trips_and_bounds_checks() {
        let store = VecBackend::new(100);
        assert_eq!(store.words(), 100);
        let word = [0xA5u8; WORD_BYTES];
        store.write_word(99, &word).unwrap();
        assert_eq!(store.read_word(99).unwrap(), word);
        assert_eq!(store.read_word(0).unwrap(), [0u8; WORD_BYTES]);
        assert!(matches!(
            store.read_word(100),
            Err(MemError::OutOfBounds {
                index: 100,
                limit: 100
            })
        ));
        assert!(store.write_word(100, &word).is_err());
    }

    #[test]
    fn file_backend_round_trips_persists_and_bounds_checks() {
        let path = temp_path("roundtrip");
        {
            let store = FileBackend::create(&path, 150).unwrap();
            assert_eq!(store.words(), 150);
            let mut word = [0u8; WORD_BYTES];
            for (i, b) in word.iter_mut().enumerate() {
                *b = i as u8;
            }
            store.write_word(149, &word).unwrap();
            // Same cache page read-back and a cold page.
            assert_eq!(store.read_word(149).unwrap(), word);
            assert_eq!(store.read_word(0).unwrap(), [0u8; WORD_BYTES]);
            assert!(store.read_word(150).is_err());
        }
        {
            let store = FileBackend::open(&path).unwrap();
            assert_eq!(store.words(), 150);
            assert_eq!(store.read_word(149).unwrap()[5], 5);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_backend_write_through_updates_cached_page() {
        let path = temp_path("writethrough");
        let store = FileBackend::create(&path, FILE_PAGE_WORDS * 2).unwrap();
        // Warm the cache slot for page 0, then write through it.
        assert_eq!(store.read_word(3).unwrap(), [0u8; WORD_BYTES]);
        let word = [0x5Cu8; WORD_BYTES];
        store.write_word(3, &word).unwrap();
        assert_eq!(store.read_word(3).unwrap(), word);
        drop(store);
        let store = FileBackend::open(&path).unwrap();
        assert_eq!(store.read_word(3).unwrap(), word);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    #[cfg(not(feature = "telemetry-off"))]
    fn file_backend_counts_cache_hits_misses_and_split_evictions() {
        let path = temp_path("counters");
        // Shard 0 of the CLOCK cache holds FILE_CACHE_PAGES /
        // FILE_CACHE_SHARDS = 8 pages; pages that are multiples of 8
        // all land there, so nine of them overflow it.
        let per_shard = (FILE_CACHE_PAGES / FILE_CACHE_SHARDS) as u64;
        let stride = FILE_CACHE_SHARDS as u64;
        let store = FileBackend::create(&path, FILE_PAGE_WORDS * 73).unwrap();
        let stats = || store.store_metrics().unwrap().snapshot();
        store.read_word(0).unwrap(); // cold miss + fill, no eviction
        store.read_word(1).unwrap(); // hit (same page)
        let word = [0x11u8; WORD_BYTES];
        store.write_word(7, &word).unwrap(); // resident: write-through
        assert_eq!(store.read_word(7).unwrap(), word, "hit sees the write");
        for i in 1..=per_shard {
            // Pages 8, 16, ..., 64: all shard 0. The last fill evicts.
            store.read_word(i * stride * FILE_PAGE_WORDS).unwrap();
        }
        // Page 72, shard 0, not resident: the write goes to the file
        // only — no file read, nothing installed, nothing evicted.
        let before = stats();
        let far = 9 * stride * FILE_PAGE_WORDS;
        let word = [0x22u8; WORD_BYTES];
        store.write_word(far, &word).unwrap();
        let after = stats();
        assert_eq!(
            after.file_reads, before.file_reads,
            "a write miss reads nothing"
        );
        assert_eq!(after.file_writes, before.file_writes + 1);
        assert_eq!(after.page_cache_misses, before.page_cache_misses);
        assert_eq!(after.page_cache_evictions, before.page_cache_evictions);
        // The later read misses and fills (evicting again), and sees the
        // word the write put in the file.
        assert_eq!(store.read_word(far).unwrap(), word);
        let stats = stats();
        assert_eq!(stats.page_cache_hits, 2);
        assert_eq!(stats.page_cache_misses, 10);
        assert_eq!(stats.page_cache_evictions, 2);
        assert_eq!(stats.page_cache_read_fill_evictions, 2);
        assert_eq!(stats.file_reads, 10, "every miss is one file read");
        assert_eq!(stats.file_writes, 2);
        assert_eq!(stats.words_read, 12);
        assert_eq!(stats.words_written, 2);
        assert!((stats.page_cache_hit_rate() - 2.0 / 12.0).abs() < 1e-9);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn write_generation_advances_on_every_write() {
        let vec = VecBackend::new(16);
        assert_eq!(vec.write_generation(), Some(0));
        vec.write_word(3, &[1u8; WORD_BYTES]).unwrap();
        vec.write_word(4, &[2u8; WORD_BYTES]).unwrap();
        assert_eq!(vec.write_generation(), Some(2));
        // Reads never advance it; failed writes don't either.
        vec.read_word(3).unwrap();
        assert!(vec.write_word(99, &[0u8; WORD_BYTES]).is_err());
        assert_eq!(vec.write_generation(), Some(2));

        let path = temp_path("generation");
        let file = FileBackend::create(&path, 16).unwrap();
        assert_eq!(file.write_generation(), Some(0));
        file.write_word(0, &[3u8; WORD_BYTES]).unwrap();
        assert_eq!(file.write_generation(), Some(1));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    #[cfg(not(feature = "telemetry-off"))]
    fn vec_backend_counts_words() {
        let store = VecBackend::new(8);
        store.write_word(0, &[1u8; WORD_BYTES]).unwrap();
        store.read_word(0).unwrap();
        store.read_word(1).unwrap();
        let stats = store.store_metrics().unwrap().snapshot();
        assert_eq!(stats.words_written, 1);
        assert_eq!(stats.words_read, 2);
        assert_eq!(stats.file_reads, 0);
    }

    #[test]
    fn open_rejects_torn_lengths() {
        let path = temp_path("torn");
        std::fs::write(&path, [0u8; WORD_BYTES + 1]).unwrap();
        assert!(FileBackend::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
