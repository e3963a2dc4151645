//! Flight-recorder and post-mortem tests: a forced single-byte tamper
//! must produce a `.clmedump` bundle that parses, carries the flight
//! timeline, and replays to the same [`TamperClass`] on a rebuilt layer
//! — on both backends. Separately, the ring's *content* (not its
//! interleaving-dependent retention order) must be deterministic: the
//! same per-thread op streams run concurrently and sequentially must
//! record the same multiset of events.

use clme::mem::{
    Block, DumpBundle, DumpContext, EncryptionLayer, FileBackend, FlightKind, IntegrityError,
    LayerOptions, MemoryAdt, StoreBackend, VecBackend, DUMP_SCHEMA, PAGE_BLOCKS,
};
use clme::types::json::JsonValue;
use clme::types::rng::SplitMix64;

const SEED: u64 = 0x00C0_FFEE;
const BLOCKS: u64 = 4 * PAGE_BLOCKS;

fn master(seed: u64) -> [u8; 32] {
    let mut rng = SplitMix64::new(SplitMix64::new(seed).derive(b"flight/master"));
    let mut key = [0u8; 32];
    for chunk in key.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    key
}

fn pattern_block(rng: &mut SplitMix64) -> Block {
    let mut block = [0u8; 64];
    for chunk in block.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    block
}

/// The deterministic op window a capture and its replay both run: `ops`
/// seeded writes in batches of 64.
fn populate<B: StoreBackend>(layer: &EncryptionLayer<B>, seed: u64, ops: usize) -> Vec<u64> {
    let mut rng = SplitMix64::new(SplitMix64::new(seed).derive(b"flight/ops"));
    let blocks = layer.geometry().data_blocks();
    let mut written = std::collections::BTreeSet::new();
    let mut pending: Vec<(u64, Block)> = Vec::new();
    for i in 0..ops {
        pending.push((rng.below(blocks), pattern_block(&mut rng)));
        if pending.len() == 64 || i + 1 == ops {
            layer.batch_write(&pending).expect("populate write");
            written.extend(pending.drain(..).map(|(addr, _)| addr));
        }
    }
    written.into_iter().collect()
}

/// Flips one bit of one stored byte and reads the victim back; the
/// layer must answer with an integrity error (which fires the armed
/// dump).
fn flip_and_probe<B: StoreBackend>(
    layer: &EncryptionLayer<B>,
    word_index: u64,
    byte: usize,
    probe: u64,
) -> IntegrityError {
    let mut word = layer.backend().read_word(word_index).expect("in-bounds");
    word[byte] ^= 0x01;
    layer
        .backend()
        .write_word(word_index, &word)
        .expect("in-bounds");
    let err = layer
        .read_block(probe)
        .expect_err("tamper must be detected");
    *err.integrity().expect("integrity class")
}

/// Capture on `layer`, then replay the bundle on `rebuild` (a fresh
/// layer of the same backend kind) and check the class matches.
fn tamper_dump_replay<B, R>(layer: EncryptionLayer<B>, rebuild: EncryptionLayer<R>, tag: &str)
where
    B: StoreBackend,
    R: StoreBackend,
{
    let dump_path =
        std::env::temp_dir().join(format!("clme-flight-{}-{tag}.clmedump", std::process::id()));
    let _ = std::fs::remove_file(&dump_path);

    let ops = 500usize;
    layer.arm_dump(DumpContext {
        path: dump_path.clone(),
        seed: SEED,
        workload: JsonValue::Obj(vec![("mode".into(), JsonValue::Str("test-tamper".into()))]),
    });
    let addrs = populate(&layer, SEED, ops);
    let victim = addrs[addrs.len() / 2];
    let geo = layer.geometry().clone();
    let word_index = geo.data_word(victim);
    let captured = flip_and_probe(&layer, word_index, 5, victim);

    // The one-shot dump fired and the context is consumed: a second
    // fault may not overwrite the first capture.
    let written = layer.last_dump().expect("dump path recorded");
    assert_eq!(written, dump_path);
    assert!(layer.disarm_dump().is_none(), "context must be consumed");

    let text = std::fs::read_to_string(&dump_path).expect("bundle on disk");
    let bundle = DumpBundle::parse(&text).expect("bundle parses");
    assert_eq!(bundle.schema, DUMP_SCHEMA);
    assert_eq!(bundle.trigger, "integrity-error");
    assert_eq!(bundle.seed, SEED);
    assert_eq!(bundle.blocks, BLOCKS);
    let recorded = bundle.error.expect("bundle carries the error");
    assert_eq!(recorded.class, captured.class);
    assert!(
        bundle
            .events
            .iter()
            .any(|e| e.kind == FlightKind::IntegrityFail as u16),
        "{tag}: flight timeline must end with the integrity failure"
    );
    assert!(
        bundle
            .events
            .iter()
            .any(|e| e.kind == FlightKind::WritePage as u16),
        "{tag}: flight timeline must show the write window"
    );
    assert_eq!(bundle.counts.blocks_written, ops as u64);
    assert_eq!(bundle.counts.integrity_errors, 1);

    // Replay: same seed, same op window, same flip site — the same
    // error class must come back on the rebuilt layer.
    let replay_addrs = populate(&rebuild, bundle.seed, ops);
    assert_eq!(replay_addrs, addrs, "{tag}: replay op window diverged");
    let replayed = flip_and_probe(&rebuild, word_index, 5, victim);
    assert_eq!(
        replayed.class, recorded.class,
        "{tag}: replay must reproduce the captured class"
    );

    let _ = std::fs::remove_file(&dump_path);
}

#[test]
fn tamper_dump_replay_round_trip_vec_backend() {
    let layer =
        EncryptionLayer::new(VecBackend::for_blocks(BLOCKS), BLOCKS, master(SEED)).expect("fits");
    let rebuild =
        EncryptionLayer::new(VecBackend::for_blocks(BLOCKS), BLOCKS, master(SEED)).expect("fits");
    tamper_dump_replay(layer, rebuild, "vec");
}

#[test]
fn tamper_dump_replay_round_trip_file_backend() {
    let dir = std::env::temp_dir();
    let store = dir.join(format!("clme-flight-store-{}.bin", std::process::id()));
    let restore = dir.join(format!("clme-flight-restore-{}.bin", std::process::id()));
    let _ = std::fs::remove_file(&store);
    let _ = std::fs::remove_file(&restore);
    let layer = EncryptionLayer::new(
        FileBackend::create_for_blocks(&store, BLOCKS).expect("store file"),
        BLOCKS,
        master(SEED),
    )
    .expect("fits");
    let rebuild = EncryptionLayer::new(
        FileBackend::create_for_blocks(&restore, BLOCKS).expect("replay file"),
        BLOCKS,
        master(SEED),
    )
    .expect("fits");
    tamper_dump_replay(layer, rebuild, "file");
    let _ = std::fs::remove_file(&store);
    let _ = std::fs::remove_file(&restore);
}

/// An explicit exit dump (no fault) leaves the armed context in place
/// and still snapshots the window.
#[test]
fn exit_dump_is_non_consuming_and_parses() {
    let dump_path =
        std::env::temp_dir().join(format!("clme-flight-exit-{}.clmedump", std::process::id()));
    let _ = std::fs::remove_file(&dump_path);
    let layer =
        EncryptionLayer::new(VecBackend::for_blocks(BLOCKS), BLOCKS, master(SEED)).expect("fits");
    layer.arm_dump(DumpContext {
        path: dump_path.clone(),
        seed: SEED,
        workload: JsonValue::Null,
    });
    populate(&layer, SEED, 128);
    let written = layer.dump_now().expect("dump writes").expect("armed");
    assert_eq!(written, dump_path);
    let bundle =
        DumpBundle::parse(&std::fs::read_to_string(&dump_path).expect("on disk")).expect("parses");
    assert_eq!(bundle.trigger, "exit");
    assert!(bundle.error.is_none());
    assert_eq!(bundle.counts.blocks_written, 128);
    // Still armed: dump_now may run again.
    assert!(layer.dump_now().expect("dump writes").is_some());
    assert!(layer.disarm_dump().is_some());
    let _ = std::fs::remove_file(&dump_path);
}

// ---------------------------------------------------------------------
// Ring-content determinism across thread interleavings
// ---------------------------------------------------------------------

const THREADS: u64 = 4;
const OPS_PER_THREAD: usize = 120;

/// One thread's deterministic stream over its own private page: writes
/// and read-backs only, so every flight event it causes is a pure
/// function of the stream, not the interleaving.
fn run_stream<B: StoreBackend>(layer: &EncryptionLayer<B>, thread: u64) {
    let mut rng = SplitMix64::new(SplitMix64::new(SEED).derive(&thread.to_le_bytes()));
    let base = thread * PAGE_BLOCKS;
    for _ in 0..OPS_PER_THREAD {
        let len = 1 + rng.below(8) as usize;
        let batch: Vec<(u64, Block)> = (0..len)
            .map(|_| (base + rng.below(PAGE_BLOCKS), pattern_block(&mut rng)))
            .collect();
        layer.batch_write(&batch).expect("private write");
        let addrs: Vec<u64> = (0..len).map(|_| base + rng.below(PAGE_BLOCKS)).collect();
        layer.batch_read(&addrs).expect("private read");
    }
}

/// The (kind, a, b) multiset of the layer's retained events, minus the
/// kinds that are not a pure function of the op stream: lock waits
/// depend on real contention, and the read-path events (`ReadPage`,
/// `ReadHit`) ride a per-thread sampling tick, whose phase
/// differs between N fresh threads and one thread running N streams.
fn event_multiset<B: StoreBackend>(layer: &EncryptionLayer<B>) -> Vec<(u16, u64, u64)> {
    let snap = layer.flight_snapshot();
    assert_eq!(snap.dropped, 0, "ring must retain the whole run");
    let sampled_kinds = [
        FlightKind::LockSlow as u16,
        FlightKind::ReadPage as u16,
        FlightKind::ReadHit as u16,
    ];
    let mut events: Vec<(u16, u64, u64)> = snap
        .events
        .iter()
        .filter(|e| !sampled_kinds.contains(&e.kind))
        .map(|e| (e.kind, e.a, e.b))
        .collect();
    events.sort_unstable();
    events
}

#[test]
fn flight_ring_content_deterministic_across_interleavings() {
    let options = LayerOptions {
        // Large enough that no shard ever wraps during the run.
        flight_capacity: 1 << 16,
        ..LayerOptions::default()
    };
    let blocks = THREADS * PAGE_BLOCKS;

    let concurrent = EncryptionLayer::with_options(
        VecBackend::for_blocks(blocks),
        blocks,
        master(SEED),
        options.clone(),
    )
    .expect("fits");
    let layer_ref = &concurrent;
    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            scope.spawn(move || run_stream(layer_ref, thread));
        }
    });

    let sequential = EncryptionLayer::with_options(
        VecBackend::for_blocks(blocks),
        blocks,
        master(SEED),
        options,
    )
    .expect("fits");
    for thread in 0..THREADS {
        run_stream(&sequential, thread);
    }

    let concurrent_events = event_multiset(&concurrent);
    let sequential_events = event_multiset(&sequential);
    assert!(!concurrent_events.is_empty(), "the run must record events");
    assert_eq!(
        concurrent_events, sequential_events,
        "event content must not depend on the interleaving"
    );
}
