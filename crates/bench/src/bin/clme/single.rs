//! The bare `clme [flags]` path: one benchmark under one engine and
//! configuration, optionally normalised against the unencrypted run.

use crate::args::{config_by_name, unknown_flag, Cursor};
use clme_core::engine::EngineKind;
use clme_sim::{run_benchmark, SimParams};
use clme_types::config::AesStrength;
use clme_workloads::suites;

pub const USAGE: &str = "\
usage: clme [--engine none|counterless|counter-mode|counter-light]
            [--bench NAME] [--bandwidth high|low] [--aes 128|256]
            [--threshold FRACTION] [--measure N] [--warmup N]
            [--functional-warmup N] [--baseline] [--list]";

pub struct Args {
    pub list: bool,
    pub engine: EngineKind,
    pub bench: String,
    pub config: &'static str,
    pub aes256: bool,
    pub threshold: Option<f64>,
    pub params: SimParams,
    pub baseline: bool,
}

pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        list: false,
        engine: EngineKind::CounterLight,
        bench: "bfs".to_string(),
        config: "table1",
        aes256: false,
        threshold: None,
        params: clme_bench::params_from_env(),
        baseline: true,
    };
    let mut cur = Cursor::new(args);
    while let Some(flag) = cur.next_flag() {
        match flag {
            "--engine" => parsed.engine = cur.engine()?,
            "--bench" => parsed.bench = cur.value(flag)?,
            "--bandwidth" => parsed.config = cur.bandwidth()?,
            "--aes" => {
                parsed.aes256 = match cur.value(flag)?.as_str() {
                    "128" => false,
                    "256" => true,
                    other => return Err(format!("unknown AES strength {other}")),
                }
            }
            "--threshold" => {
                let text = cur.value(flag)?;
                let fraction = text.parse().ok().filter(|f: &f64| (0.0..=1.0).contains(f));
                parsed.threshold = Some(fraction.ok_or("--threshold needs a fraction in [0,1]")?);
            }
            "--measure" | "--warmup" | "--functional-warmup" => {
                cur.window(flag, &mut parsed.params)?
            }
            "--baseline" => parsed.baseline = true,
            "--no-baseline" => parsed.baseline = false,
            // Listing ends the parse: later flags are never looked at.
            "--list" => {
                parsed.list = true;
                break;
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(unknown_flag(other)),
        }
    }
    Ok(parsed)
}

pub fn run(args: Args) -> i32 {
    if args.list {
        println!("irregular: {}", suites::IRREGULAR.join(" "));
        println!("regular:   {}", suites::REGULAR.join(" "));
        println!(
            "extended:  {} pointer_chase",
            suites::EXTENDED_GRAPH.join(" ")
        );
        return 0;
    }
    let mut cfg = config_by_name(args.config).expect("--bandwidth names a config");
    if args.aes256 {
        cfg = cfg.with_aes(AesStrength::Aes256);
    }
    if let Some(threshold) = args.threshold {
        cfg = cfg.with_threshold(threshold);
    }

    let result = run_benchmark(&cfg, args.engine, &args.bench, args.params);
    println!("{result}");
    if args.baseline && args.engine != EngineKind::None {
        let base = run_benchmark(&cfg, EngineKind::None, &args.bench, args.params);
        println!(
            "\nnormalised to no encryption: {:.4}  (miss-latency overhead {:+.2} ns, energy ratio {:.3})",
            result.performance_vs(&base),
            result.miss_latency_overhead_vs(&base),
            result.energy_vs(&base)
        );
    }
    0
}
