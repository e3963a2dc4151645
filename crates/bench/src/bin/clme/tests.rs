//! Parser tests for every `clme` subcommand: defaults, the shared flag
//! grammar, and the errors `main` turns into a usage message and exit 2.
//! Then the `clme figures` cell list and text, and the pieces of
//! `clme mem` its jobs share: the demo write stream, the uniform bench
//! source, the `--check-stats` key table, and the `--serve` loop.

use crate::args::{tiny_cell_params, DEFAULT_MATRIX_SEED};
use crate::{critpath, figures, matrix, mem, perf, postmortem, profile, series, single};
use clme_core::engine::EngineKind;
use clme_mem::{Block, EncryptionLayer, MemoryAdt, StoreBackend, VecBackend, PAGE_BLOCKS};
use clme_sim::SimParams;
use clme_types::json::JsonValue;
use clme_types::rng::SplitMix64;
use clme_types::{SystemConfig, TimeDelta};
use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;

fn argv(line: &str) -> Vec<String> {
    line.split_whitespace().map(String::from).collect()
}

/// Every parser, by subcommand name, reduced to "did it accept".
fn parses(sub: &str, line: &str) -> Result<(), String> {
    let args = argv(line);
    match sub {
        "" => single::parse(&args).map(drop),
        "matrix" => matrix::parse(&args).map(drop),
        "diff" => matrix::parse_diff(&args).map(drop),
        "profile" | "trace" => profile::parse(&args).map(drop),
        "perf" => perf::parse(&args).map(drop),
        "critpath" => critpath::parse(&args).map(drop),
        "series" => series::parse(&args).map(drop),
        "mem" => mem::parse(&args).map(drop),
        "postmortem" => postmortem::parse(&args).map(drop),
        "figures" => figures::parse(&args),
        other => panic!("no parser named {other}"),
    }
}

/// The smallest argument list each parser accepts.
const SUBCOMMANDS: [(&str, &str); 11] = [
    ("", ""),
    ("matrix", ""),
    ("diff", "--golden goldens/tiny"),
    ("profile", ""),
    ("trace", ""),
    ("perf", ""),
    ("critpath", "table1/counter-light/bfs"),
    ("series", "--matrix"),
    ("mem", ""),
    ("postmortem", "bundle.clmedump"),
    ("figures", ""),
];

#[test]
fn defaults_match_the_documented_values() {
    let threads = std::thread::available_parallelism()
        .map_or(4, usize::from)
        .max(4);

    let run = single::parse(&[]).unwrap();
    assert!(!run.list && run.baseline && !run.aes256);
    assert_eq!(run.engine, EngineKind::CounterLight);
    assert_eq!((run.bench.as_str(), run.config), ("bfs", "table1"));
    assert_eq!(run.threshold, None);
    assert_eq!(run.params, clme_bench::params_from_env());

    let grid = matrix::parse(&[]).unwrap();
    assert!(!grid.tiny && grid.out.is_none() && grid.golden.is_none() && grid.filter.is_none());
    assert_eq!(
        (grid.threads, grid.seed, grid.tolerance),
        (threads, DEFAULT_MATRIX_SEED, 0.02)
    );

    let prof = profile::parse(&[]).unwrap();
    assert_eq!(prof.cell.label(), "table1/counter-light/bfs");
    assert_eq!(
        (prof.seed, prof.params),
        (DEFAULT_MATRIX_SEED, tiny_cell_params())
    );
    assert_eq!(prof.ring, clme_obs::DEFAULT_RING_CAPACITY);
    assert_eq!(prof.epoch_cycles, clme_obs::DEFAULT_EPOCH_CYCLES);
    assert_eq!(prof.out, PathBuf::from("trace.json"));
    assert!(prof.json.is_none() && !prof.series && prof.diff.is_none());

    let gate = perf::parse(&[]).unwrap();
    assert_eq!((gate.threads, gate.seed), (threads, DEFAULT_MATRIX_SEED));
    assert_eq!(gate.out, PathBuf::from("BENCH_perf.json"));
    assert_eq!(gate.baseline, PathBuf::from("goldens/perf_baseline.json"));
    assert_eq!(gate.gate, clme_bench::perf::DEFAULT_GATE);
    assert!(!gate.write_baseline && !gate.no_gate);

    let crit = critpath::parse(&argv("table1/counter-mode/bfs")).unwrap();
    assert_eq!(crit.samples, clme_obs::DEFAULT_SPAN_SAMPLES);
    assert_eq!(
        (crit.seed, crit.params),
        (DEFAULT_MATRIX_SEED, tiny_cell_params())
    );
    assert!(crit.json.is_none() && crit.trace.is_none());
    assert!(
        matches!(&crit.target, critpath::Target::Cell(c) if c.label() == "table1/counter-mode/bfs")
    );

    let ser = series::parse(&argv("--matrix")).unwrap();
    assert!(!ser.tiny && ser.json.is_none());
    assert_eq!((ser.threads, ser.seed), (threads, DEFAULT_MATRIX_SEED));
    assert_eq!(ser.epoch_cycles, clme_obs::DEFAULT_EPOCH_CYCLES);

    let m = mem::parse(&[]).unwrap();
    assert_eq!((m.backend.as_str(), m.blocks, m.ops), ("vec", 4096, 20_000));
    assert_eq!(
        (m.seed, m.samples),
        (DEFAULT_MATRIX_SEED, clme_obs::DEFAULT_SPAN_SAMPLES)
    );
    assert_eq!((m.epoch_ms, m.reps, m.serve_requests), (250, 1, 0));
    assert_eq!((m.skew, m.tenant_top), (1.2, clme_mem::DEFAULT_TENANT_TOP));
    assert!(m.cache && m.cache_pages.is_none() && m.tenants.is_none() && m.slo.is_none());
    assert!(!m.smoke && !m.bench && !m.stats && !m.watch && !m.dump_on_exit);
    assert!(m.critpath.is_none() && m.tamper.is_none() && m.check_stats.is_none());

    let pm = postmortem::parse(&argv("a.clmedump")).unwrap();
    assert_eq!(
        (pm.file, pm.replay, pm.tail),
        (PathBuf::from("a.clmedump"), false, 24)
    );
}

#[test]
fn seeds_accept_hex_and_decimal() {
    for line in ["--seed 0x2a", "--seed 42"] {
        assert_eq!(matrix::parse(&argv(line)).unwrap().seed, 42);
        assert_eq!(profile::parse(&argv(line)).unwrap().seed, 42);
        assert_eq!(perf::parse(&argv(line)).unwrap().seed, 42);
        assert_eq!(mem::parse(&argv(line)).unwrap().seed, 42);
        assert_eq!(
            series::parse(&argv(&format!("--matrix {line}")))
                .unwrap()
                .seed,
            42
        );
        let crit = critpath::parse(&argv(&format!("table1/counter-light/bfs {line}")));
        assert_eq!(crit.unwrap().seed, 42);
    }
    assert!(matrix::parse(&argv("--seed 0xzz")).is_err());
    assert!(matrix::parse(&argv("--seed -1")).is_err());
}

#[test]
fn missing_values_unknown_flags_and_bad_numbers_are_errors() {
    for (sub, base) in SUBCOMMANDS {
        assert!(parses(sub, base).is_ok(), "{sub} {base}");
        assert_eq!(
            parses(sub, &format!("{base} --bogus")),
            Err("unknown flag --bogus".to_string()),
            "{sub}"
        );
        assert_eq!(
            parses(sub, &format!("{base} --help")),
            Err(String::new()),
            "{sub}"
        );
    }
    let numeric = [
        ("", "--measure"),
        ("matrix", "--threads"),
        ("diff", "--tol"),
        ("profile", "--ring"),
        ("trace", "--epoch"),
        ("perf", "--gate"),
        ("critpath", "--samples"),
        ("series", "--epoch"),
        ("mem", "--blocks"),
    ];
    for (sub, flag) in numeric {
        let base = SUBCOMMANDS.iter().find(|(name, _)| *name == sub).unwrap().1;
        assert_eq!(
            parses(sub, &format!("{base} {flag}")),
            Err(format!("{flag} needs a value")),
            "{sub} {flag}"
        );
        assert!(
            parses(sub, &format!("{base} {flag} abc")).is_err(),
            "{sub} {flag}"
        );
    }
    // postmortem's --tail has always reported both with the usage alone.
    assert_eq!(
        parses("postmortem", "a.clmedump --tail"),
        Err(String::new())
    );
    assert_eq!(
        parses("postmortem", "a.clmedump --tail x"),
        Err(String::new())
    );
}

#[test]
fn positive_counts_and_choices_are_checked() {
    assert_eq!(
        parses("mem", "--blocks 0"),
        Err("--blocks needs a positive count".into())
    );
    assert_eq!(
        parses("mem", "--epoch-ms 0"),
        Err("--epoch-ms needs a positive interval".into())
    );
    assert_eq!(
        parses("profile", "--epoch 0"),
        Err("--epoch needs a positive cycle count".into())
    );
    assert_eq!(
        parses("mem", "--backend disk"),
        Err("--backend must be vec or file".into())
    );
    assert_eq!(
        parses("mem", "--critpath walk"),
        Err("--critpath must be sweep, zipf, or hot".into())
    );
    assert_eq!(
        parses("mem", "--tamper ecc"),
        Err("--tamper must be data, mac, parity, counter, or tree".into())
    );
    assert_eq!(
        parses("", "--bandwidth mid"),
        Err("unknown bandwidth mid".into())
    );
    assert_eq!(
        single::parse(&argv("--bandwidth low")).unwrap().config,
        "low-bw"
    );
    assert_eq!(
        profile::parse(&argv("--bandwidth low"))
            .unwrap()
            .cell
            .label(),
        "low-bw/counter-light/bfs"
    );
}

#[test]
fn threshold_must_be_a_fraction() {
    let error = Err("--threshold needs a fraction in [0,1]".to_string());
    assert_eq!(parses("", "--threshold 5"), error);
    assert_eq!(parses("", "--threshold -0.1"), error);
    assert_eq!(parses("", "--threshold abc"), error);
    assert_eq!(
        parses("", "--threshold"),
        Err("--threshold needs a value".into())
    );
    for fraction in ["0", "0.8", "1"] {
        let run = single::parse(&argv(&format!("--threshold {fraction}"))).unwrap();
        assert_eq!(run.threshold, Some(fraction.parse().unwrap()));
    }
}

#[test]
fn every_engine_spelling_reaches_every_engine_parser() {
    let spellings = [
        ("none", EngineKind::None),
        ("no-encryption", EngineKind::None),
        ("counterless", EngineKind::Counterless),
        ("counter-mode", EngineKind::CounterMode),
        ("counter-light", EngineKind::CounterLight),
    ];
    for (name, engine) in spellings {
        let flag = format!("--engine {name}");
        assert_eq!(
            single::parse(&argv(&flag)).unwrap().engine,
            engine,
            "{name}"
        );
        // profile and trace share one parser.
        assert_eq!(
            profile::parse(&argv(&flag)).unwrap().cell.engine,
            engine,
            "{name}"
        );
        let label = format!("table1/{name}/bfs");
        match critpath::parse(&argv(&label)).unwrap().target {
            critpath::Target::Cell(cell) => assert_eq!(cell.engine, engine, "{name}"),
            critpath::Target::Mem { .. } => panic!("{label} is a simulated cell"),
        }
        let diff = profile::parse(&argv(&format!("--diff {label} low-bw/{name}/mcf"))).unwrap();
        let (a, b) = diff.diff.expect("--diff parsed");
        assert_eq!((a.engine, b.engine), (engine, engine), "{name}");
    }
    assert_eq!(parses("", "--engine aes"), Err("unknown engine aes".into()));
    assert_eq!(
        parses("profile", "--engine aes"),
        Err("unknown engine aes".into())
    );
    assert!(parses("critpath", "table1/aes/bfs").is_err());
}

#[test]
fn mem_modes_are_mutually_exclusive() {
    let error =
        Err("--smoke, --bench, --critpath, and --tamper are mutually exclusive".to_string());
    for pair in [
        "--smoke --bench",
        "--smoke --critpath hot",
        "--bench --tamper mac",
        "--critpath zipf --tamper tree",
    ] {
        assert_eq!(parses("mem", pair), error, "{pair}");
    }
    for single_mode in ["--smoke", "--bench", "--critpath sweep", "--tamper data"] {
        assert!(parses("mem", single_mode).is_ok(), "{single_mode}");
    }
    assert!(parses("mem", "--tenants 4 --smoke")
        .unwrap_err()
        .starts_with("--tenants runs"));
    assert!(parses("mem", "--tenants 4 --tamper mac").is_err());
}

#[test]
fn tenants_resize_the_store_to_equal_page_ranges() {
    let sized = |line: &str| mem::parse(&argv(line)).unwrap();
    // 2048 blocks split evenly: 4 pages per tenant, no resize.
    let even = sized("--tenants 8 --blocks 2048");
    assert_eq!(
        (even.blocks, even.tenants, even.bench),
        (2048, Some(8), true)
    );
    // Too small for one page per tenant: raised to one page each.
    assert_eq!(sized("--tenants 64 --blocks 256").blocks, 64 * PAGE_BLOCKS);
    // An uneven split rounds down to whole equal ranges.
    let pages_per = 4096 / PAGE_BLOCKS / 3;
    assert_eq!(sized("--tenants 3").blocks, 3 * pages_per * PAGE_BLOCKS);
    assert_eq!(
        parses("mem", "--tenants 0"),
        Err("--tenants needs a positive count".into())
    );
}

#[test]
fn labels_and_files_are_required_and_validated() {
    assert_eq!(
        parses("critpath", ""),
        Err("critpath needs a cell label".into())
    );
    assert_eq!(
        parses(
            "critpath",
            "table1/counter-light/bfs low-bw/counter-mode/mcf"
        ),
        Err("critpath takes one cell label, got \"low-bw/counter-mode/mcf\" too".into())
    );
    assert!(parses("critpath", "table9/counter-light/bfs")
        .unwrap_err()
        .starts_with("bad cell label"));
    assert!(parses("critpath", "mem/disk/sweep")
        .unwrap_err()
        .starts_with("bad mem label"));
    match critpath::parse(&argv("mem/file")).unwrap().target {
        critpath::Target::Mem { backend, pattern } => {
            assert_eq!((backend, pattern), ("file".into(), "sweep".into()))
        }
        critpath::Target::Cell(_) => panic!("mem/file is a library label"),
    }
    assert_eq!(parses("postmortem", ""), Err(String::new()));
    assert_eq!(
        parses("postmortem", "a.clmedump b.clmedump"),
        Err("unknown flag b.clmedump".into())
    );
    assert_eq!(parses("diff", ""), Err("diff needs --golden DIR".into()));
    assert_eq!(
        parses("diff", "--mem-stats a.json"),
        Err("diff --mem-stats needs exactly two artifact paths".into())
    );
    assert!(parses("diff", "--mem-stats a.json b.json").is_ok());
    assert_eq!(
        parses("series", "--tiny"),
        Err("clme series needs --matrix (single-cell series: clme profile --series)".into())
    );
}

#[test]
fn figure_cells_are_the_200_distinct_cells_of_the_figures() {
    let cells = figures::figure_cells();
    assert_eq!(cells.len(), 200);
    let keys: HashSet<figures::FigureCell> = cells.iter().copied().collect();
    assert_eq!(keys.len(), cells.len(), "a cell is listed twice");
    let labels: HashSet<String> = cells.iter().map(figures::FigureCell::label).collect();
    assert_eq!(labels.len(), cells.len(), "two cells share a label");
}

/// A sweep point equal to Table I's own value shares its base
/// configuration's cells, so the base must be exactly what that sweep
/// point builds.
#[test]
fn swept_table1_values_are_their_base_configurations() {
    let table1 = SystemConfig::isca_table1();
    let low_bw = SystemConfig::low_bandwidth().with_threshold(0.60);
    assert_eq!(figures::config("table1"), table1);
    assert_eq!(figures::config("low-bw"), low_bw);
    assert_eq!(
        (table1.memo_entries, table1.counter_cache_bytes),
        (128, 64 << 10)
    );
    assert_eq!(low_bw.epoch_length, TimeDelta::from_us(100));
    // Every label names a distinct configuration.
    let labels: HashSet<&str> = figures::figure_cells().iter().map(|cell| cell.0).collect();
    let configs: Vec<SystemConfig> = labels.into_iter().map(figures::config).collect();
    for (i, a) in configs.iter().enumerate() {
        assert!(!configs[i + 1..].contains(a), "{a:?} is listed twice");
    }
}

#[test]
fn figure_text_is_the_same_on_one_worker_and_on_four() {
    let one = figures::figure_text(SimParams::quick(), 1);
    let four = figures::figure_text(SimParams::quick(), 4);
    assert!(one.starts_with("=== Table I: System Configuration ===\n"));
    assert!(one.contains("\n=== Extended graphBIG kernels"));
    assert_eq!(one, four);
}

#[test]
#[should_panic(expected = "figure cell low-bw/counter-mode/bfs is not in figure_cells()")]
fn a_cell_outside_the_list_panics_with_its_label() {
    let mode = figures::Variant::Stock(EngineKind::CounterMode);
    let cell = figures::FigureCell("low-bw", mode, "bfs");
    assert!(!figures::figure_cells().contains(&cell));
    let results = figures::FigureResults::simulate(&[], SimParams::quick(), 1);
    results.get("low-bw", mode, "bfs");
}

fn vec_layer(blocks: u64) -> EncryptionLayer<VecBackend> {
    EncryptionLayer::new(VecBackend::for_blocks(blocks), blocks, [7; 32]).unwrap()
}

/// Whether this build records telemetry: `clme-mem/telemetry-off`
/// compiles it out, and with it every artifact key and metric family.
fn telemetry_on() -> bool {
    let layer = vec_layer(64);
    layer.batch_write(&[(0, [0; 64])]).unwrap();
    layer.metrics_snapshot().blocks_written > 0
}

#[test]
fn tamper_victims_are_the_addresses_populate_writes() {
    for (blocks, ops, seed) in [
        (256, 1000, DEFAULT_MATRIX_SEED),
        (4096, 20_000, 1),
        (1024, 10, 2),
    ] {
        let layer = vec_layer(blocks);
        let model = mem::verify::populate(&layer, seed, ops).unwrap();
        let written: Vec<u64> = model.keys().copied().collect();
        assert_eq!(mem::verify::demo_addrs(seed, blocks, ops), written);
        assert_eq!(
            layer.batch_read(&written).unwrap(),
            model.into_values().collect::<Vec<_>>()
        );
    }
}

#[test]
fn critpath_exits_1_when_a_counter_check_fails() {
    // The hot pattern populates only the first four pages; page 6's
    // flipped counter word fails the counterless count that follows.
    let layer = vec_layer(8 * PAGE_BLOCKS);
    let index = layer.geometry().counter_word(6);
    let mut word = layer.backend().read_word(index).unwrap();
    word[5] ^= 0x01;
    layer.backend().write_word(index, &word).unwrap();
    let args = mem::MemArgs {
        ops: 64,
        ..mem::MemArgs::default()
    };
    assert_eq!(critpath::trace_mem(&args, &layer, "hot"), 1);
}

/// Reference for the uniform bench stream, written out loop by loop:
/// per rep, `ops` (address, block) writes, then `ops` read addresses, in
/// batches of 64, from one `mem/bench` stream. Each batch is its
/// addresses and, for a write, its blocks.
fn reference_uniform_reps(
    seed: u64,
    blocks: u64,
    ops: usize,
    reps: usize,
) -> Vec<(Vec<u64>, Vec<Block>)> {
    let pattern_block = |rng: &mut SplitMix64| {
        let mut block = [0u8; clme_mem::BLOCK_BYTES];
        for chunk in block.chunks_mut(8) {
            chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
        }
        block
    };
    let mut rng = SplitMix64::new(SplitMix64::new(seed).derive(b"mem/bench"));
    let mut batches = Vec::new();
    for _ in 0..=reps {
        let mut written = 0usize;
        while written < ops {
            let mut batch: Vec<(u64, Block)> = Vec::new();
            for _ in 0..64.min(ops - written) {
                batch.push((rng.below(blocks), pattern_block(&mut rng)));
            }
            written += batch.len();
            batches.push(batch.into_iter().unzip());
        }
        let mut read = 0usize;
        while read < ops {
            let batch: Vec<u64> = (0..64.min(ops - read)).map(|_| rng.below(blocks)).collect();
            read += batch.len();
            batches.push((batch, Vec::new()));
        }
    }
    batches
}

#[test]
fn uniform_bench_source_replays_the_single_stream_sequence() {
    let (seed, blocks, ops, reps) = (9, 512, 200, 2);
    let line = format!("--bench --seed {seed} --ops {ops} --reps {reps}");
    let args = mem::parse(&argv(&line)).unwrap();
    let mut source = mem::bench::BatchSource::new(&args, blocks);
    let mut batch = mem::bench::Batch::default();
    let mut got: Vec<(Vec<u64>, Vec<Block>)> = Vec::new();
    for _ in 0..=reps {
        let mut issued = 0;
        while source.fill(issued, &mut batch) {
            assert_eq!(batch.tenant, None);
            issued += batch.addrs.len();
            let (addrs, data): (Vec<u64>, Vec<Block>) = batch.writes.iter().copied().unzip();
            if batch.write {
                assert_eq!(addrs, batch.addrs);
            } else {
                assert!(addrs.is_empty());
            }
            got.push((batch.addrs.clone(), data));
        }
        assert_eq!(issued, 2 * ops);
    }
    assert_eq!(got, reference_uniform_reps(seed, blocks, ops, reps));
}

#[test]
fn tenant_bench_source_replays_one_composed_rep() {
    let (blocks, ops, reps) = (2048, 4000, 3);
    let line = format!("--tenants 8 --seed 9 --ops {ops} --reps {reps}");
    let args = mem::parse(&argv(&line)).unwrap();
    let mut source = mem::bench::BatchSource::new(&args, blocks);
    let mut batch = mem::bench::Batch::default();
    let mut rep_batches = Vec::new();
    for _ in 0..=reps {
        let mut issued = 0;
        let mut rep = Vec::new();
        while source.fill(issued, &mut batch) {
            assert!(batch.tenant.is_some());
            assert_eq!(
                batch.writes.len(),
                if batch.write { batch.addrs.len() } else { 0 }
            );
            issued += batch.addrs.len();
            rep.push((
                batch.tenant,
                batch.write,
                batch.addrs.clone(),
                batch.writes.clone(),
            ));
        }
        assert!(issued >= ops);
        rep_batches.push(rep);
    }
    // The warm-up composed the rep; every counted rep replayed it.
    assert!(rep_batches.iter().all(|rep| *rep == rep_batches[0]));
    assert!(rep_batches[0].iter().any(|b| b.1) && rep_batches[0].iter().any(|b| !b.1));
}

/// The value at a dotted path; array elements go by index.
fn value_at<'a>(doc: &'a mut JsonValue, path: &str) -> &'a mut JsonValue {
    let mut at = doc;
    for key in path.split('.') {
        at = match at {
            JsonValue::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1,
            JsonValue::Arr(items) => &mut items[key.parse::<usize>().unwrap()],
            other => panic!("{path}: {key} is inside {other:?}"),
        };
    }
    at
}

fn doc_value(doc: &JsonValue, path: &str) -> JsonValue {
    value_at(&mut doc.clone(), path).clone()
}

fn replace_key(doc: &mut JsonValue, path: &str, value: JsonValue) {
    *value_at(doc, path) = value;
}

/// Removes the value at a dotted path.
fn remove_key(doc: &mut JsonValue, path: &str) {
    let (parent, last) = path.rsplit_once('.').unwrap_or(("", path));
    let at = if parent.is_empty() {
        doc
    } else {
        value_at(doc, parent)
    };
    match at {
        JsonValue::Obj(fields) => fields.retain(|(k, _)| k != last),
        JsonValue::Arr(items) => drop(items.remove(last.parse::<usize>().unwrap())),
        other => panic!("{path}: {last} is inside {other:?}"),
    }
}

#[test]
fn check_stats_names_every_required_key_an_artifact_lacks() {
    let path = std::env::temp_dir().join(format!("clme-check-stats-{}.json", std::process::id()));
    let line = format!(
        "--tenants 4 --blocks 1024 --ops 512 --stats-json {}",
        path.display()
    );
    assert_eq!(mem::run(mem::parse(&argv(&line)).unwrap()), 0);
    let doc = mem::stats::read_json(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    if !telemetry_on() {
        return;
    }
    assert_eq!(mem::stats::stats_missing(&doc), Vec::<String>::new());

    // Every key path the check requires, with the line it lists when the
    // key is missing (`[*]` at element 0).
    let required = [
        ("stats.lock_wait", "stats.lock_wait (non-empty array)"),
        ("stats.lock_wait.0.p99_ns", "stats.lock_wait[0].p99_ns"),
        ("stats.rekey.pages_total", "stats.rekey.pages_total"),
        ("stats.rekey.pages_done", "stats.rekey.pages_done"),
        ("stats.rekey.key_dwell_ms", "stats.rekey.key_dwell_ms"),
        (
            "stats.store.page_cache_hit_rate",
            "stats.store.page_cache_hit_rate",
        ),
        ("stats.verify_cache.hits", "stats.verify_cache.hits"),
        (
            "stats.verify_cache.partial_hits",
            "stats.verify_cache.partial_hits",
        ),
        ("stats.verify_cache.misses", "stats.verify_cache.misses"),
        ("stats.verify_cache.hit_rate", "stats.verify_cache.hit_rate"),
        ("stats.verify_cache.bypasses", "stats.verify_cache.bypasses"),
        (
            "stats.verify_cache.resident_pages",
            "stats.verify_cache.resident_pages",
        ),
        ("stats.tree.nodes_trusted", "stats.tree.nodes_trusted"),
        ("stats.tree.nodes_verified", "stats.tree.nodes_verified"),
        ("stats.fanin.read.p99_blocks", "stats.fanin.read.p99_blocks"),
        (
            "stats.fanin.write.p99_blocks",
            "stats.fanin.write.p99_blocks",
        ),
        (
            "stats.ops.read.latency.p99_ns",
            "stats.ops.read.latency.p99_ns",
        ),
        (
            "stats.ops.write.latency.p99_ns",
            "stats.ops.write.latency.p99_ns",
        ),
        ("tenants.count", "tenants.count"),
        ("tenants.top_k", "tenants.top_k"),
        ("tenants.folded_ops", "tenants.folded_ops"),
        ("tenants.skew", "tenants.skew"),
        ("tenants.digest", "tenants.digest"),
        ("tenants.rows", "tenants.rows (non-empty array)"),
        ("tenants.rows.0.read.p99_ns", "tenants.rows[0].read.p99_ns"),
        (
            "tenants.rows.0.write.p99_ns",
            "tenants.rows[0].write.p99_ns",
        ),
        ("tenants.rows.0.cache.hits", "tenants.rows[0].cache.hits"),
        (
            "tenants.rows.0.tail.dominant",
            "tenants.rows[0].tail.dominant",
        ),
        (
            "tenants.rows.0.ciphertext_writes",
            "tenants.rows[0].ciphertext_writes",
        ),
        ("tenants.rows.0.slo", "tenants.rows[0].slo (array)"),
        ("tenants.rows.0.slo.0.burn", "tenants.rows[0].slo[0].burn"),
        (
            "tenants.rows.0.slo.0.window_burns",
            "tenants.rows[0].slo[0].window_burns (array)",
        ),
    ];
    assert_eq!(required.len(), mem::stats::REQUIRED_KEYS.len());
    for (path, listed) in required {
        let mut broken = doc.clone();
        remove_key(&mut broken, path);
        let missing = mem::stats::stats_missing(&broken);
        assert!(missing.contains(&listed.to_string()), "{path}: {missing:?}");
        // A value of the wrong kind is as bad as none, except where any
        // value will do.
        let row_fields = ["read.", "write.", "cache.", "tail.", "ciphertext_writes"];
        let any_value = row_fields
            .iter()
            .any(|f| path.starts_with(&format!("tenants.rows.0.{f}")));
        if !any_value {
            let wrong = match doc_value(&doc, path) {
                JsonValue::Num(_) => JsonValue::Str("0".into()),
                JsonValue::Arr(_) if listed.ends_with("(non-empty array)") => {
                    JsonValue::Arr(vec![])
                }
                _ => JsonValue::Num(0.0),
            };
            let mut broken = doc.clone();
            replace_key(&mut broken, path, wrong);
            let missing = mem::stats::stats_missing(&broken);
            assert!(missing.contains(&listed.to_string()), "{path}: {missing:?}");
        }
    }

    let mut old_schema = doc.clone();
    remove_key(&mut old_schema, "schema");
    assert_eq!(mem::stats::stats_missing(&old_schema), ["schema 3"]);
    let mut no_rollup = doc.clone();
    let JsonValue::Obj(fields) = &mut no_rollup else {
        panic!("an artifact is an object")
    };
    let tenants = &mut fields.iter_mut().find(|(k, _)| k == "tenants").unwrap().1;
    let Some(JsonValue::Arr(rows)) = tenants.get("rows").cloned() else {
        panic!("tenant rows")
    };
    let kept: Vec<JsonValue> = rows
        .into_iter()
        .filter(|row| row.get("tenant").and_then(JsonValue::as_str) != Some("__other__"))
        .collect();
    let JsonValue::Obj(tenant_fields) = tenants else {
        panic!("tenants is an object")
    };
    tenant_fields
        .iter_mut()
        .find(|(k, _)| k == "rows")
        .unwrap()
        .1 = JsonValue::Arr(kept);
    assert_eq!(
        mem::stats::stats_missing(&no_rollup),
        ["tenants.rows[*] __other__ rollup row"]
    );
}

#[test]
fn serve_answers_past_an_idle_client_and_stops_after_its_quota() {
    let layer = std::sync::Arc::new(vec_layer(256));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // Detached, so a server stuck on a client fails the test instead of
    // hanging it.
    let server = std::thread::spawn({
        let layer = layer.clone();
        move || mem::serve::serve(listener, &layer, 3)
    });
    let get = |request: &[u8]| {
        let mut stream = TcpStream::connect(addr).unwrap();
        let patience = mem::serve::SERVE_TIMEOUT * 5;
        stream.set_read_timeout(Some(patience)).unwrap();
        stream.write_all(request).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    };
    // Connected first and silent: the server must give up on it after
    // its read timeout instead of stalling every client behind it.
    let _idle = TcpStream::connect(addr).unwrap();
    let health = get(b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n");
    assert!(health.starts_with("HTTP/1.1 200 OK\r\n"), "{health}");
    assert!(health.ends_with("\r\n\r\nok\n"), "{health}");
    let metrics = get(b"GET /metrics HTTP/1.1\r\n\r\n");
    assert!(metrics.starts_with("HTTP/1.1 200 OK\r\n"), "{metrics}");
    if telemetry_on() {
        assert!(metrics.contains("# TYPE clme_mem_op_latency_ps histogram"));
    }
    // A request line that never ends is cut at the cap, not buffered.
    let endless = vec![b'A'; mem::serve::SERVE_REQUEST_CAP as usize];
    let refused = get(&endless);
    assert!(
        refused.starts_with("HTTP/1.1 400 Bad Request\r\n"),
        "{refused}"
    );
    assert_eq!(server.join().unwrap(), 0);
    assert!(
        TcpStream::connect(addr).is_err(),
        "the listener closes with the loop"
    );
}
