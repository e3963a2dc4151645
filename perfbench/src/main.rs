//! The repository benchmark: one command, three workloads, every
//! end-to-end metric by name with its unit, outputs checked.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload mem-hot-read --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` reports the end-to-end metrics,
//! `--trace 1` the per-layer ones from a separate traced run. The line
//! before it records host facts next to the result. See `README.md`.

mod calib;
mod mem;
mod oracle;
mod sim;
mod stats;
mod trace;

use std::process::ExitCode;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("items_per_s", "1/s"),
    ("call_p50_us", "us"),
    ("call_tail_us", "us"),
    ("cpu_us_per_item", "us"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`
/// (0 where the workload does not run the layer).
pub const PER_LAYER: [(&str, &str); 45] = [
    ("layer.read_ns_per_block", "ns"),
    ("layer.write_ns_per_block", "ns"),
    ("layer.self_ns_per_block", "ns"),
    ("layer.page_rolls", "count"),
    ("layer.counterless_blocks", "count"),
    ("layer.integrity_errors", "count"),
    ("cache.hit_rate", "ratio"),
    ("cache.partial_hit_rate", "ratio"),
    ("cache.evictions", "count"),
    ("cache.write_invalidations", "count"),
    ("cache.bypasses", "count"),
    ("stage.read.tree_walk_ns", "ns"),
    ("stage.read.mac_verify_ns", "ns"),
    ("stage.read.pad_gen_ns", "ns"),
    ("stage.write.tree_walk_ns", "ns"),
    ("stage.write.pad_gen_ns", "ns"),
    ("stage.write.commit_ns", "ns"),
    ("store.read_ns_per_word", "ns"),
    ("store.write_ns_per_word", "ns"),
    ("store.words_read_per_block", "words/block"),
    ("store.words_written_per_block", "words/block"),
    ("store.page_cache_hit_rate", "ratio"),
    ("store.file_reads", "count"),
    ("store.file_writes", "count"),
    ("lock.wait_ns_mean", "ns"),
    ("lock.wait_ns_max", "ns"),
    ("lock.hold_ns_mean", "ns"),
    ("driver.calls", "count"),
    ("driver.ns_per_batch", "ns"),
    ("driver.unexplained_frac", "ratio"),
    ("trace_overhead_frac", "ratio"),
    ("sim.new_ms", "ms"),
    ("sim.functional_warmup_s", "s"),
    ("sim.detailed_s.no-encryption", "s"),
    ("sim.detailed_s.counterless", "s"),
    ("sim.detailed_s.counter-mode", "s"),
    ("sim.detailed_s.counter-light", "s"),
    ("sim.host_ns_per_instr", "ns"),
    ("sim.host_ns_per_dram_access", "ns"),
    ("sim.dram_accesses", "count"),
    ("sim.counter_fetches", "count"),
    ("sim.metadata_reads", "count"),
    ("sim.llc_lookups", "count"),
    ("host.cpu_s", "s"),
    ("host.spin_ns_per_iter", "ns"),
];

/// The workloads, as named on the command line.
pub const WORKLOADS: [&str; 3] = ["mem-hot-read", "mem-mixed-cold", "sim-grid"];

/// Where scratch files (the file store, the trace) go, relative to the
/// directory the benchmark runs from.
pub const SCRATCH_DIR: &str = ".perfbench";

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds the timed phase lasts.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (calls, cells, and whole-output checks).
    pub attempted: u64,
    /// Operations that failed or returned wrong output.
    pub failed: u64,
    /// End-to-end values by name (`peak_rss_mb` is filled in by `main`).
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Per-layer values by name.
    pub per_layer: Vec<(&'static str, f64)>,
    /// Extra facts for the line printed before the result.
    pub facts: Vec<(&'static str, String)>,
}

impl Report {
    /// Records an untraced run's unscaled figures beside its metrics,
    /// which are scaled to the nominal host (see `calib`).
    pub fn raw_facts(&mut self, raw_setups: &[f64], raw_items_per_s: f64, host_factor: f64) {
        self.facts
            .push(("raw_setup_s", num(stats::median_f64(raw_setups))));
        self.facts.push(("raw_items_per_s", num(raw_items_per_s)));
        self.facts.push(("host_factor", num(host_factor)));
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: clme-perfbench --workload {{{}}} --seed N --seconds S --trace {{0|1}}",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args(argv: &[String]) -> Option<Args> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16).ok()?,
                    None => value.parse().ok()?,
                })
            }
            "--seconds" => seconds = Some(value.parse::<f64>().ok().filter(|s| *s > 0.0)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                })
            }
            _ => return None,
        }
    }
    let workload = workload.filter(|w| WORKLOADS.contains(&w.as_str()))?;
    Some(Args {
        workload,
        seed: seed?,
        seconds: seconds?,
        trace: trace?,
    })
}

/// Formats a measured value with all its digits (never NaN or infinite
/// in JSON).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn metrics_json(values: &[(&'static str, f64)], names: &[(&str, &str)]) -> String {
    let body: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |&(_, v)| v);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(value)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(args) = parse_args(&argv) else {
        return usage();
    };
    let spin_ns = clme_bench::perf::spin_ns_per_iter();
    let result = match args.workload.as_str() {
        "sim-grid" => sim::run(&args),
        "mem-hot-read" => mem::run(mem::Shape::HotRead, &args),
        _ => mem::run(mem::Shape::MixedCold, &args),
    };
    let mut report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let rss = stats::peak_rss_mb();
    let cpu = stats::process_cpu_s();
    report.end_to_end.push(("peak_rss_mb", rss));
    report.per_layer.push(("host.cpu_s", cpu));
    report.per_layer.push(("host.spin_ns_per_iter", spin_ns));

    let mut facts = vec![
        format!("\"workload\": \"{}\"", args.workload),
        format!("\"seed\": {}", args.seed),
        format!("\"trace\": {}", args.trace),
        format!("\"nproc\": {}", stats::nproc()),
        format!("\"process_cpu_s\": {}", num(cpu)),
        format!("\"peak_rss_mb\": {}", num(rss)),
        format!("\"spin_ns_per_iter\": {}", num(spin_ns)),
    ];
    facts.extend(report.facts.iter().map(|(k, v)| format!("\"{k}\": {v}")));
    println!("{{\"host\": {{{}}}}}", facts.join(", "));

    let metrics = if args.trace {
        metrics_json(&report.per_layer, &PER_LAYER)
    } else {
        metrics_json(&report.end_to_end, &END_TO_END)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv(
            "--workload sim-grid --seed 0x10 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("sim-grid", 16, 3.0, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_none());
        assert!(parse_args(&argv("--workload sim-grid --seed 1 --seconds 1 --trace 2")).is_none());
        assert!(parse_args(&argv("--workload sim-grid --seed 1 --seconds 1")).is_none());
        assert!(parse_args(&argv("--workload sim-grid --seed 1 --seconds 0 --trace 0")).is_none());
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let doc = clme_types::json::parse(&text).expect("BENCHMARK.json parses");
        for (key, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let Some(clme_types::json::JsonValue::Arr(items)) = doc.get(key) else {
                panic!("{key} is not a list");
            };
            let declared: Vec<(&str, &str)> = items
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(|v| v.as_str()).expect("name"),
                        m.get("unit").and_then(|v| v.as_str()).expect("unit"),
                    )
                })
                .collect();
            assert_eq!(declared, list.to_vec(), "{key} differs from the code");
        }
        let Some(clme_types::json::JsonValue::Arr(workloads)) = doc.get("workloads") else {
            panic!("workloads is not a list");
        };
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).expect("name"))
            .collect();
        assert_eq!(names, WORKLOADS.to_vec());
    }

    #[test]
    fn metrics_json_fills_every_declared_name() {
        let text = metrics_json(&[("setup_s", 1.25)], &END_TO_END);
        assert!(text.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(text.contains("\"call_tail_us\": {\"value\": 0, \"unit\": \"us\"}"));
        assert_eq!(num(f64::NAN), "0");
    }
}
