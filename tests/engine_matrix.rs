//! Matrix test: every engine × a representative benchmark slice, at
//! small windows, asserting the structural invariants that distinguish
//! the designs (Fig. 1's comparison as assertions).

use std::collections::BTreeMap;

use clme::core::engine::EngineKind;
use clme::core::epoch::WritebackMode;
use clme::core::functional::MemoryImage;
use clme::dram::timing::Dram;
use clme::obs::NopSink;
use clme::sim::{run_benchmark, SimParams};
use clme::types::{SystemConfig, Time, TimeDelta, BLOCK_BYTES};
use clme::workloads::trace::RecordedTrace;
use clme::workloads::{suites, Op, Workload};

fn params() -> SimParams {
    SimParams {
        functional_warmup_accesses: 15_000,
        warmup_per_core: 8_000,
        measure_per_core: 15_000,
    }
}

const BENCHES: &[&str] = &["bfs", "canneal", "streamcluster"];

#[test]
fn all_engines_run_all_benches_with_sane_stats() {
    let cfg = SystemConfig::isca_table1();
    for &bench in BENCHES {
        for kind in [
            EngineKind::None,
            EngineKind::Counterless,
            EngineKind::CounterMode,
            EngineKind::CounterLight,
        ] {
            let r = run_benchmark(&cfg, kind, bench, params());
            assert!(r.instructions >= 60_000, "{kind} {bench}");
            assert!(r.ipc > 0.0 && r.ipc < 16.0, "{kind} {bench}: IPC {}", r.ipc);
            assert!(r.engine_stats.read_misses > 0, "{kind} {bench}");
            assert!(
                r.bandwidth_utilization > 0.0 && r.bandwidth_utilization <= 1.0,
                "{kind} {bench}: util {}",
                r.bandwidth_utilization
            );
            assert!(r.energy_per_instruction_nj > 0.0);
        }
    }
}

#[test]
fn fig1_invariants_hold_per_engine() {
    let cfg = SystemConfig::isca_table1();
    // A warm-up long enough to leave dirty lines to evict, so every
    // bench writes back inside the measured window.
    let params = SimParams {
        functional_warmup_accesses: 150_000,
        ..params()
    };
    for &bench in BENCHES {
        // No encryption / counterless: zero metadata traffic ever.
        for kind in [EngineKind::None, EngineKind::Counterless] {
            let r = run_benchmark(&cfg, kind, bench, params);
            assert_eq!(r.engine_stats.metadata_reads, 0, "{kind} {bench}");
            assert_eq!(r.engine_stats.metadata_writes, 0, "{kind} {bench}");
            assert_eq!(r.engine_stats.counter_fetches, 0, "{kind} {bench}");
        }
        // Counter-light: no read-path counter fetches. Every writeback
        // takes one of the two modes, and only a counter-mode one
        // updates metadata: a counterless one records its mode in the
        // block's own ECC.
        let light = run_benchmark(&cfg, EngineKind::CounterLight, bench, params);
        let e = &light.engine_stats;
        assert_eq!(e.counter_fetches, 0, "{bench}");
        assert!(e.writebacks > 0, "{bench}");
        assert_eq!(
            e.counter_mode_writebacks + e.counterless_writebacks,
            e.writebacks,
            "{bench}"
        );
        if e.counter_mode_writebacks == 0 {
            assert_eq!((e.metadata_reads, e.metadata_writes), (0, 0), "{bench}");
        }
        // Counter mode: counters fetched on the read path.
        let cm = run_benchmark(&cfg, EngineKind::CounterMode, bench, params);
        assert!(cm.engine_stats.counter_fetches > 0, "{bench}");
        assert!(
            cm.engine_stats.metadata_reads >= cm.engine_stats.counter_fetches,
            "{bench}"
        );
    }
}

#[test]
fn all_engines_decrypt_the_same_trace_to_identical_plaintext() {
    // Differential conformance: replay ONE recorded trace through each of
    // the four engines, mirroring every writeback's mode decision into a
    // per-engine functional memory image. The engines disagree on timing
    // and on which mode each block lands in — but the decrypted contents
    // of memory must be identical across all four, and must equal what
    // was written.
    let cfg = SystemConfig::isca_table1();
    let mut source = suites::instantiate("canneal", 0);
    let trace = RecordedTrace::record("conformance", source.as_mut(), 6_000);
    let image_bytes = suites::address_space_blocks() * BLOCK_BYTES;

    // Expected plaintext per block: a pure function of (block, store
    // ordinal), recomputed identically for every engine.
    let plaintext = |block: u64, ordinal: u64| -> [u8; 64] {
        core::array::from_fn(|i| (block ^ ordinal.wrapping_mul(31) ^ i as u64) as u8)
    };

    let mut images: Vec<(EngineKind, MemoryImage, BTreeMap<u64, u64>)> = Vec::new();
    for kind in [
        EngineKind::None,
        EngineKind::Counterless,
        EngineKind::CounterMode,
        EngineKind::CounterLight,
    ] {
        let mut engine = clme::core::build_engine(kind, &cfg, suites::address_space_blocks());
        let mut dram = Dram::new(&cfg);
        let mut image = MemoryImage::new(image_bytes, [7; 32]);
        let mut replay = trace.clone();
        let mut stores: BTreeMap<u64, u64> = BTreeMap::new();
        let mut now = Time::ZERO;
        let mut ordinal = 0u64;
        for _ in 0..trace.len() {
            now += TimeDelta::from_ns(20);
            match replay.next_op() {
                Op::Store { addr } => {
                    let block = addr.block();
                    let wb = engine.on_writeback(block, now, &mut dram, &mut NopSink);
                    image.set_writeback_mode(if wb.used_counter_mode {
                        WritebackMode::Counter
                    } else {
                        WritebackMode::Counterless
                    });
                    ordinal += 1;
                    image.write_block(block, &plaintext(block.raw(), ordinal));
                    stores.insert(block.raw(), ordinal);
                }
                Op::Load { addr, .. } => {
                    let block = addr.block();
                    engine.on_read_miss(block, now, &mut dram, &mut NopSink);
                    // Reading back through the image must decrypt to the
                    // last write regardless of the mode it was stored in.
                    if let Some(&ord) = stores.get(&block.raw()) {
                        assert_eq!(
                            image.read_block(block),
                            Ok(plaintext(block.raw(), ord)),
                            "{kind}: wrong decrypt at {block}"
                        );
                    }
                }
                Op::Compute { .. } => {}
            }
        }
        images.push((kind, image, stores));
    }

    // Every engine saw the same trace, so the written-block sets agree...
    let final_blocks: Vec<(u64, u64)> = images[0].2.iter().map(|(&b, &o)| (b, o)).collect();
    assert!(
        final_blocks.len() > 100,
        "trace too quiet to be a meaningful conformance check"
    );
    for (kind, image, stores) in &mut images {
        assert_eq!(
            stores.len(),
            final_blocks.len(),
            "{kind}: functional image diverged in written-block set"
        );
        // ...and every block decrypts to the identical final plaintext.
        for &(block, ordinal) in &final_blocks {
            assert_eq!(
                image.read_block(clme::types::BlockAddr::new(block)),
                Ok(plaintext(block, ordinal)),
                "{kind}: final image differs at block {block:#x}"
            );
        }
    }
}

#[test]
fn stall_ordering_matches_the_paper() {
    // Post-arrival cipher stall: none < counter-light ≤ counterless.
    let cfg = SystemConfig::isca_table1();
    for &bench in BENCHES {
        let none = run_benchmark(&cfg, EngineKind::None, bench, params());
        let light = run_benchmark(&cfg, EngineKind::CounterLight, bench, params());
        let cxl = run_benchmark(&cfg, EngineKind::Counterless, bench, params());
        let s_none = none.engine_stats.mean_stall_after_data();
        let s_light = light.engine_stats.mean_stall_after_data();
        let s_cxl = cxl.engine_stats.mean_stall_after_data();
        assert!(s_none < s_light, "{bench}: {s_none} !< {s_light}");
        assert!(s_light <= s_cxl, "{bench}: {s_light} !<= {s_cxl}");
    }
}
