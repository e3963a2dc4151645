//! `clme critpath`: one cell (or the clme-mem library) with the span
//! tracer installed, every miss blamed on the chain that gated it.

use crate::args::{
    bad_cell_label, tiny_cell_params, unknown_flag, CellSpec, Cursor, DEFAULT_MATRIX_SEED,
};
use crate::mem::{self, random_bytes, MemArgs};
use crate::profile::ns;
use crate::write_artifact;
use clme_mem::{Block, EncryptionLayer, MemoryAdt, StoreBackend};
use clme_obs::{span_flow_json, Blame, SpanTracer};
use clme_sim::{run_benchmark_spans, SimParams};
use clme_types::json::JsonValue;
use clme_types::rng::SplitMix64;
use std::path::{Path, PathBuf};

pub const USAGE: &str = "\
usage: clme critpath CONFIG/ENGINE/BENCH [--samples N] [--seed HEX|DEC]
                   [--measure N] [--warmup N] [--functional-warmup N]
                   [--json PATH] [--trace PATH]

critpath replays one cell with the span tracer installed: every LLC
miss of the measured window becomes a request span whose dependent
operations (data DRAM access, counter fetch per tree level, in-line
MAC, pad generation, ECC decode) are recorded as child spans, and the
chain that actually gated readiness assigns the miss one blame class
(dram-/counter-/cipher-/mac-bound). Prints the blame breakdown table;
--json writes it as a JSON artifact, --trace writes the sampled
request spans as Chrome trace_event JSON with flow arrows (open in
Perfetto). The cell runs the --tiny matrix windows with its
label-derived workload seed, so the fractions match the matching
snapshot's blame.* metrics exactly.

Labels of the form mem/BACKEND/PATTERN (backend vec|file, pattern
sweep|zipf|hot) trace the clme-mem library itself instead of a simulated
cell: reads of an encrypted in-process store, host-clock spans, the
same blame table. See clme mem --help for the library runner.

example: clme critpath table1/counter-mode/bfs --trace spans.json
example: clme critpath mem/vec/zipf --json mem_blame.json";

/// What a critpath label names: a simulated cell, or a clme-mem
/// library workload (`mem/BACKEND/PATTERN`).
pub enum Target {
    Cell(CellSpec),
    Mem { backend: String, pattern: String },
}

pub struct CritpathArgs {
    pub target: Target,
    pub samples: usize,
    pub seed: u64,
    pub params: SimParams,
    pub json: Option<PathBuf>,
    pub trace: Option<PathBuf>,
}

pub fn parse(args: &[String]) -> Result<CritpathArgs, String> {
    let mut label = None;
    let mut samples = clme_obs::DEFAULT_SPAN_SAMPLES;
    let mut seed = DEFAULT_MATRIX_SEED;
    let mut params = tiny_cell_params();
    let (mut json, mut trace) = (None, None);
    let mut cur = Cursor::new(args);
    while let Some(flag) = cur.next_flag() {
        match flag {
            "--samples" => samples = cur.num(flag)?,
            "--seed" => seed = cur.seed(flag)?,
            "--measure" | "--warmup" | "--functional-warmup" => cur.window(flag, &mut params)?,
            "--json" => json = Some(cur.path(flag)?),
            "--trace" => trace = Some(cur.path(flag)?),
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with("--") => return Err(unknown_flag(other)),
            other => {
                if label.is_some() {
                    return Err(format!("critpath takes one cell label, got {other:?} too"));
                }
                label = Some(other);
            }
        }
    }
    let label = label.ok_or("critpath needs a cell label")?;
    let target = match label.strip_prefix("mem/") {
        // `mem/...` labels trace the clme-mem library instead of a
        // simulated cell — same tracer, same table, real host-clock spans.
        Some(rest) => {
            let (backend, pattern) = rest.split_once('/').unwrap_or((rest, "sweep"));
            if !mem::BACKENDS.contains(&backend) || !mem::CRITPATH_PATTERNS.contains(&pattern) {
                return Err(format!(
                    "bad mem label mem/{rest:?} (want mem/vec|file/sweep|zipf|hot)"
                ));
            }
            Target::Mem {
                backend: backend.to_string(),
                pattern: pattern.to_string(),
            }
        }
        None => Target::Cell(CellSpec::parse(label).ok_or_else(|| bad_cell_label(label))?),
    };
    Ok(CritpathArgs {
        target,
        samples,
        seed,
        params,
        json,
        trace,
    })
}

fn critpath_json(label: &str, seed: u64, tally: &clme_obs::BlameTally, sampled: usize) -> String {
    let classes = Blame::ALL
        .iter()
        .map(|&blame| {
            (
                blame.name().to_string(),
                JsonValue::Obj(vec![
                    ("requests".into(), JsonValue::Num(tally.count(blame) as f64)),
                    ("fraction".into(), JsonValue::Num(tally.fraction(blame))),
                    (
                        "mean_stall_ns".into(),
                        JsonValue::Num(ns(tally.mean_stall_ps(blame))),
                    ),
                ]),
            )
        })
        .collect();
    let doc = JsonValue::Obj(vec![
        ("label".into(), JsonValue::Str(label.to_string())),
        ("seed".into(), JsonValue::Str(format!("{seed:#018x}"))),
        ("requests".into(), JsonValue::Num(tally.total() as f64)),
        ("sampled_spans".into(), JsonValue::Num(sampled as f64)),
        ("classes".into(), JsonValue::Obj(classes)),
    ]);
    let mut text = doc.to_pretty();
    text.push('\n');
    text
}

pub fn run(args: CritpathArgs) -> i32 {
    let spec = match args.target {
        Target::Cell(spec) => spec,
        // The simulator's blame command pointed at the library.
        Target::Mem { backend, pattern } => {
            return mem::run(MemArgs {
                backend,
                seed: args.seed,
                samples: args.samples,
                critpath: Some(pattern),
                json: args.json,
                trace: args.trace,
                ..MemArgs::default()
            })
        }
    };
    let label = spec.label();
    let seed = spec.workload_seed(args.seed);
    eprintln!(
        "tracing {label} (workload seed {seed:#x}, reservoir of {} spans)",
        args.samples
    );
    let (result, tracer) = run_benchmark_spans(
        &spec.cfg,
        spec.engine,
        &spec.bench,
        args.params,
        seed,
        args.samples,
    );
    let headline = format!("classified misses (window ipc {:.3})", result.ipc);
    report_blame(
        &label,
        seed,
        &tracer,
        &headline,
        args.json.as_deref(),
        args.trace.as_deref(),
    )
}

/// The blame report `clme critpath` and `clme mem --critpath` share: the
/// headline, the blame table, the sample count, and the `--json` and
/// `--trace` artifacts.
fn report_blame(
    label: &str,
    seed: u64,
    tracer: &SpanTracer,
    headline: &str,
    json: Option<&Path>,
    trace: Option<&Path>,
) -> i32 {
    let tally = tracer.tally();
    println!(
        "critical-path blame for {label}: {} {headline}",
        tally.total()
    );
    println!(
        "  {:<14} {:>10} {:>8} {:>22}",
        "class", "requests", "share", "mean stall after data"
    );
    for &blame in Blame::ALL.iter() {
        println!(
            "  {:<14} {:>10} {:>7.1}% {:>19.2} ns",
            blame.name(),
            tally.count(blame),
            tally.fraction(blame) * 100.0,
            ns(tally.mean_stall_ps(blame)),
        );
    }
    println!(
        "\nsampled {} of {} requests (deterministic reservoir; --samples to resize)",
        tracer.sampled().len(),
        tracer.total_requests()
    );
    if let Some(path) = json {
        if !write_artifact(
            path,
            &critpath_json(label, seed, tally, tracer.sampled().len()),
        ) {
            return 1;
        }
        eprintln!("wrote blame artifact to {}", path.display());
    }
    if let Some(path) = trace {
        if !write_artifact(path, &span_flow_json(label, tracer.sampled())) {
            return 1;
        }
        println!(
            "wrote {} request spans with flow arrows to {} — open in Perfetto \
             (https://ui.perfetto.dev) or chrome://tracing",
            tracer.sampled().len(),
            path.display()
        );
    }
    0
}

/// A skewed block address: cubing a uniform sample concentrates mass
/// near zero — a cheap stand-in for a Zipf-like hot set.
fn skewed_addr(rng: &mut SplitMix64, blocks: u64) -> u64 {
    let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    (((unit * unit * unit) * blocks as f64) as u64).min(blocks - 1)
}

/// `clme mem --critpath`: reads traced through the installed span tracer,
/// blamed with the same report as a cell, over the library's real
/// latencies.
pub fn trace_mem<B: StoreBackend>(
    args: &MemArgs,
    layer: &EncryptionLayer<B>,
    pattern: &str,
) -> i32 {
    let blocks = layer.blocks();
    let label = format!("mem/{}/{pattern}", args.backend);
    let seed = SplitMix64::new(args.seed).derive(label.as_bytes());
    let mut rng = SplitMix64::new(seed);
    eprintln!(
        "tracing {label} ({} blocks, {} reads, reservoir of {} spans)",
        blocks, args.ops, args.samples
    );

    // Populate: a sweep writes every block once; zipf hammers a hot set
    // until its counters saturate and the blocks go counterless; hot
    // writes a working set small enough to live entirely in the
    // verified-page cache, then re-reads it.
    let hot_set = blocks.min(4 * clme_mem::PAGE_BLOCKS);
    let populated = match pattern {
        "zipf" => args.ops.max(64) as u64,
        "hot" => hot_set,
        _ => blocks,
    };
    let writes: Vec<(u64, Block)> = (0..populated)
        .map(|i| {
            let addr = match pattern {
                "zipf" => skewed_addr(&mut rng, blocks),
                "hot" => i % hot_set,
                _ => i % blocks,
            };
            (addr, random_bytes(&mut rng))
        })
        .collect();
    for batch in writes.chunks(64) {
        if let Err(err) = layer.batch_write(batch) {
            eprintln!("populate failed: {err}");
            return 1;
        }
    }
    let mut counterless = 0u64;
    for addr in 0..blocks {
        match layer.is_counterless(addr) {
            Ok(mode) => counterless += u64::from(mode),
            Err(err) => {
                eprintln!("counter check failed: {err}");
                return 1;
            }
        }
    }

    let reads: Vec<u64> = (0..args.ops as u64)
        .map(|i| match pattern {
            "zipf" => skewed_addr(&mut rng, blocks),
            "hot" => rng.below(hot_set),
            _ => i % blocks,
        })
        .collect();
    layer.install_tracer(SpanTracer::new(args.samples));
    for batch in reads.chunks(64) {
        if let Err(err) = layer.batch_read(batch) {
            eprintln!("traced read failed: {err}");
            return 1;
        }
    }
    let tracer = layer.take_tracer().expect("tracer installed above");

    let headline = format!("classified reads ({counterless} of {blocks} blocks counterless)");
    report_blame(
        &label,
        seed,
        &tracer,
        &headline,
        args.json.as_deref(),
        args.trace.as_deref(),
    )
}
