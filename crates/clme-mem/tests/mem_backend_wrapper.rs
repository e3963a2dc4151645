//! A `StoreBackend` wrapper that forwards the trait's six methods and
//! nothing else must be invisible to the layer: the same seeded stream
//! of writes, reads and a rekey gives the same counters, root and store
//! bytes through the wrapper as on the bare backend, for the vec and
//! the file store alike. Timing and tracing wrappers rely on this to
//! measure a store without changing what it does.

use clme_mem::{
    Block, EncryptionLayer, FileBackend, LayerOptions, MemError, MemoryAdt, StoreBackend,
    StoreMetrics, StoredWord, VecBackend, PAGE_BLOCKS,
};
use clme_types::rng::SplitMix64;

const BLOCKS: u64 = 12 * PAGE_BLOCKS;

/// Forwards exactly the trait's six methods to `inner`.
struct Forwarding<B>(B);

impl<B: StoreBackend> StoreBackend for Forwarding<B> {
    fn words(&self) -> u64 {
        self.0.words()
    }

    fn read_word(&self, index: u64) -> Result<StoredWord, MemError> {
        self.0.read_word(index)
    }

    fn write_word(&self, index: u64, word: &StoredWord) -> Result<(), MemError> {
        self.0.write_word(index, word)
    }

    fn store_metrics(&self) -> Option<&StoreMetrics> {
        self.0.store_metrics()
    }

    fn kind(&self) -> &'static str {
        self.0.kind()
    }

    fn write_generation(&self) -> Option<u64> {
        self.0.write_generation()
    }
}

/// What a run leaves behind: its counters, the root and every stored
/// word.
struct Outcome {
    counters: String,
    root: u64,
    image: Vec<StoredWord>,
}

/// Replays one seeded stream: skewed batch writes and reads over a
/// store three times the verified-page cache, with one rekey halfway.
fn replay<B: StoreBackend>(backend: B) -> Outcome {
    let options = LayerOptions {
        counter_saturation: 6,
        shards: 2,
        cache_pages: 4,
        ..LayerOptions::default()
    };
    let layer =
        EncryptionLayer::with_options(backend, BLOCKS, [0x3C; 32], options).expect("layer builds");
    let mut rng = SplitMix64::new(0xBAC4_E2D5);
    let pick = |rng: &mut SplitMix64| {
        let hot = rng.below(4) != 0;
        if hot {
            rng.below(2 * PAGE_BLOCKS)
        } else {
            rng.below(BLOCKS)
        }
    };
    for round in 0..200u64 {
        let len = 1 + rng.below(24) as usize;
        if rng.below(2) == 0 {
            let batch: Vec<(u64, Block)> = (0..len)
                .map(|_| (pick(&mut rng), [rng.next_u64() as u8; 64]))
                .collect();
            layer.batch_write(&batch).expect("in-bounds write");
        } else {
            let addrs: Vec<u64> = (0..len).map(|_| pick(&mut rng)).collect();
            layer.batch_read(&addrs).expect("in-bounds read");
        }
        if round == 100 {
            layer.rekey([0xC3; 32]).expect("rekey succeeds");
        }
    }
    let s = layer.metrics_snapshot();
    let counters = format!(
        "{} {} {} {} {} {} {} {:?} {:?} {:?} {}",
        s.blocks_read,
        s.blocks_written,
        s.batch_reads,
        s.batch_writes,
        s.page_rolls,
        s.counterless_reads,
        s.counterless_writes,
        s.cache,
        s.tree,
        s.store,
        layer.backend().kind()
    );
    let root = layer.root();
    let backend = layer.backend();
    let image = (0..backend.words())
        .map(|w| backend.read_word(w).expect("in-bounds"))
        .collect();
    Outcome {
        counters,
        root,
        image,
    }
}

/// Replays the stream on a fresh file store, wrapped or not.
fn replay_file(wrapped: bool) -> Outcome {
    let tag = if wrapped { "wrapped" } else { "bare" };
    let path =
        std::env::temp_dir().join(format!("clme-mem-wrapper-{tag}-{}.bin", std::process::id()));
    let store = FileBackend::create_for_blocks(&path, BLOCKS).expect("file store");
    let outcome = if wrapped {
        replay(Forwarding(store))
    } else {
        replay(store)
    };
    std::fs::remove_file(&path).expect("remove the file store");
    outcome
}

fn assert_same(a: &Outcome, b: &Outcome, what: &str) {
    assert_eq!(a.counters, b.counters, "{what}: counters differ");
    assert_eq!(a.root, b.root, "{what}: roots differ");
    assert!(a.image == b.image, "{what}: store images differ");
}

#[test]
fn forwarding_wrapper_matches_the_bare_vec_and_file_backends() {
    let vec = replay(VecBackend::for_blocks(BLOCKS));
    let vec_wrapped = replay(Forwarding(VecBackend::for_blocks(BLOCKS)));
    assert_same(&vec, &vec_wrapped, "wrapped vec store");

    let file = replay_file(false);
    let file_wrapped = replay_file(true);
    assert_same(&file, &file_wrapped, "wrapped file store");

    // The two backends keep different store counters but the same
    // bytes under the same root.
    assert_eq!(vec.root, file.root);
    assert!(vec.image == file.image, "vec and file store images differ");
}
