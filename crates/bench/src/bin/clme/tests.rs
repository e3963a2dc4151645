//! Parser tests for every `clme` subcommand: defaults, the shared flag
//! grammar, and the errors `main` turns into a usage message and exit 2.

use crate::args::{tiny_cell_params, DEFAULT_MATRIX_SEED};
use crate::{critpath, matrix, mem, perf, postmortem, profile, series, single};
use clme_core::engine::EngineKind;
use clme_mem::PAGE_BLOCKS;
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
        other => panic!("no parser named {other}"),
    }
}

/// The smallest argument list each parser accepts.
const SUBCOMMANDS: [(&str, &str); 10] = [
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
