//! `clme postmortem`: render and replay `.clmedump` bundles.

use crate::args::{unknown_flag, Cursor};
use crate::mem::verify::{flip_and_probe, populate, Flip};
use crate::mem::{self, LayerJob};
use clme_mem::{DumpBundle, EncryptionLayer, LayerOptions, StoreBackend, TenantRanges};
use clme_types::json::JsonValue;
use std::path::{Path, PathBuf};

pub const USAGE: &str = "\
usage: clme postmortem FILE.clmedump [--replay] [--tail N]

Renders a post-mortem bundle written by an armed clme-mem run
(clme mem --tamper REGION, --dump-on-exit, or any embedder that
armed the layer): the capture window, the triggering
IntegrityError, a blame summary over the flight-recorder events,
a suspect-page ranking, and the event timeline.

--replay    rebuild the layer from the bundle's recorded config
         and seed, re-run the captured op window, re-apply the
         recorded byte flip, and verify the same error class
         reproduces (nonzero exit when it does not)
--tail      timeline rows to print (default 24, 0 = all)

example: clme mem --tamper mac --dump mac.clmedump
         clme postmortem mac.clmedump --replay";

pub struct PostmortemArgs {
    pub file: PathBuf,
    pub replay: bool,
    pub tail: usize,
}

pub fn parse(args: &[String]) -> Result<PostmortemArgs, String> {
    let mut file = None;
    let mut replay = false;
    let mut tail = 24usize;
    let mut cur = Cursor::new(args);
    while let Some(flag) = cur.next_flag() {
        match flag {
            "--replay" => replay = true,
            // A missing or bad --tail has always shown the usage alone.
            "--tail" => tail = cur.num(flag).map_err(|_| String::new())?,
            "--help" | "-h" => return Err(String::new()),
            other if !other.starts_with('-') && file.is_none() => file = Some(PathBuf::from(other)),
            other => return Err(unknown_flag(other)),
        }
    }
    Ok(PostmortemArgs {
        file: file.ok_or_else(String::new)?,
        replay,
        tail,
    })
}

pub fn run(args: PostmortemArgs) -> i32 {
    let text = match std::fs::read_to_string(&args.file) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("cannot read {}: {err}", args.file.display());
            return 1;
        }
    };
    let bundle = match DumpBundle::parse(&text) {
        Ok(bundle) => bundle,
        Err(err) => {
            eprintln!("{} is not a dump bundle: {err}", args.file.display());
            return 1;
        }
    };
    postmortem_render(&args.file, &bundle, args.tail);
    if args.replay {
        postmortem_replay(&bundle)
    } else {
        0
    }
}

/// Timeline, blame summary, and suspect-page ranking for one bundle.
fn postmortem_render(path: &Path, bundle: &DumpBundle, tail: usize) {
    println!("post-mortem bundle {}", path.display());
    println!("  trigger   {}", bundle.trigger);
    println!(
        "  layer     {} backend, {} blocks over {} pages, {}-level tree, {} shards",
        bundle.backend, bundle.blocks, bundle.pages, bundle.levels, bundle.shards
    );
    println!("  seed      {:#018x}", bundle.seed);
    println!(
        "  window    {} batches ({} reads + {} writes, {} blocks written, {} blocks read, {} page rolls)",
        bundle.op_index,
        bundle.counts.batch_reads,
        bundle.counts.batch_writes,
        bundle.counts.blocks_written,
        bundle.counts.blocks_read,
        bundle.counts.page_rolls,
    );
    match &bundle.error {
        Some(err) => println!("  error     {err} [class {}]", err.class.name()),
        None => println!("  error     none (clean-exit capture)"),
    }

    // Blame summary: how the retained window distributes across kinds.
    let mut by_kind: Vec<(&str, usize)> = Vec::new();
    for event in &bundle.events {
        let name = clme_mem::FlightKind::from_code(event.kind)
            .map(clme_mem::FlightKind::name)
            .unwrap_or("unknown");
        match by_kind.iter_mut().find(|(n, _)| *n == name) {
            Some((_, count)) => *count += 1,
            None => by_kind.push((name, 1)),
        }
    }
    by_kind.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    println!(
        "\nblame summary ({} events retained, {} recorded, {} dropped):",
        bundle.events.len(),
        bundle.events_recorded,
        bundle.events_dropped
    );
    for (name, count) in &by_kind {
        println!("  {name:<16} {count:>7}");
    }

    // Suspect pages: weight the kinds that localise a fault. The error
    // address itself (when in the data region) counts heaviest.
    let mut scores: std::collections::BTreeMap<u64, (u64, u64, u64, u64)> =
        std::collections::BTreeMap::new();
    for event in &bundle.events {
        let Some(kind) = clme_mem::FlightKind::from_code(event.kind) else {
            continue;
        };
        use clme_mem::FlightKind as K;
        let page = match kind {
            K::IntegrityFail if event.a < bundle.blocks => event.a / clme_mem::PAGE_BLOCKS,
            K::WritePage | K::PageRoll | K::WriteBurst => event.a,
            _ => continue,
        };
        let slot = scores.entry(page).or_default();
        match kind {
            K::IntegrityFail => slot.0 += 1,
            K::WriteBurst => slot.1 += 1,
            K::PageRoll => slot.2 += 1,
            _ => slot.3 += 1,
        }
    }
    let mut ranked: Vec<(u64, (u64, u64, u64, u64))> = scores.into_iter().collect();
    ranked.sort_by_key(|(page, (fails, bursts, rolls, writes))| {
        (
            std::cmp::Reverse(fails * 1000 + bursts * 50 + rolls * 10 + writes),
            *page,
        )
    });
    let ranges = bundle
        .workload
        .get("tenants")
        .and_then(TenantRanges::from_json);
    println!("\nsuspect pages (integrity failures, then write pressure):");
    for (page, (fails, bursts, rolls, writes)) in ranked.iter().take(8) {
        let owner = ranges
            .and_then(|r| r.tenant_of_page(*page))
            .map(|t| format!("  tenant-{t}"))
            .unwrap_or_default();
        println!(
            "  page {page:<8} fails {fails:<4} bursts {bursts:<4} rolls {rolls:<4} writes {writes}{owner}"
        );
    }
    if ranked.is_empty() {
        println!("  (no page-attributable events in the window)");
    }

    // Suspect tenants: fold the page scores through the recorded
    // ranges and add the tenant-batch traffic the recorder retained, so
    // a multi-tenant post-mortem names who was hammering the layer.
    let mut tenant_rows: std::collections::BTreeMap<u64, (u64, u64, u64, u64)> =
        std::collections::BTreeMap::new();
    if let Some(ranges) = ranges {
        for (page, (fails, bursts, rolls, writes)) in &ranked {
            if let Some(t) = ranges.tenant_of_page(*page) {
                let slot = tenant_rows.entry(t).or_default();
                slot.0 += fails * 1000 + bursts * 50 + rolls * 10 + writes;
            }
        }
    }
    for event in &bundle.events {
        if clme_mem::FlightKind::from_code(event.kind) == Some(clme_mem::FlightKind::TenantBatch) {
            let slot = tenant_rows.entry(event.a).or_default();
            slot.1 += 1;
            slot.2 += event.b >> 1;
            slot.3 += (event.b & 1) * (event.b >> 1);
        }
    }
    if !tenant_rows.is_empty() {
        let mut suspects: Vec<(u64, (u64, u64, u64, u64))> = tenant_rows.into_iter().collect();
        suspects.sort_by_key(|(t, (score, _, blocks, _))| {
            (std::cmp::Reverse(*score), std::cmp::Reverse(*blocks), *t)
        });
        println!("\nsuspect tenants (page faults mapped through the recorded ranges):");
        for (t, (score, batches, blocks, write_blocks)) in suspects.iter().take(4) {
            println!(
                "  tenant-{t:<7} fault_score {score:<6} batches {batches:<5} \
                 blocks {blocks:<7} written {write_blocks}"
            );
        }
    }

    // Timeline tail: the newest events, oldest of the tail first.
    let total = bundle.events.len();
    let shown = if tail == 0 { total } else { tail.min(total) };
    println!("\ntimeline (last {shown} of {total} retained events):");
    println!("  {:>10}  {:<16} {:>12} {:>12}", "seq", "event", "a", "b");
    for event in &bundle.events[total - shown..] {
        let name = clme_mem::FlightKind::from_code(event.kind)
            .map(clme_mem::FlightKind::name)
            .unwrap_or("unknown");
        println!(
            "  {:>10}  {:<16} {:>12} {:>12}",
            event.seq, name, event.a, event.b
        );
    }
}

/// `--replay`: rebuild the layer from the bundle's recorded geometry
/// and seed, re-run the captured tamper workload, and check the same
/// [`clme_mem::TamperClass`] comes back.
fn postmortem_replay(bundle: &DumpBundle) -> i32 {
    let mode = bundle.workload.get("mode").and_then(JsonValue::as_str);
    if mode != Some("tamper") {
        eprintln!(
            "--replay needs a tamper bundle (workload.mode = \"tamper\", found {})",
            mode.unwrap_or("nothing")
        );
        return 1;
    }
    let ops = bundle.workload.get("ops").and_then(JsonValue::as_f64);
    let (Some(ops), Some(flip)) = (ops, Flip::from_workload(&bundle.workload)) else {
        eprintln!("tamper bundle is missing replay keys (ops/word_index/byte/mask/probe_addr)");
        return 1;
    };
    let Some(expected) = bundle.error else {
        eprintln!("bundle records no IntegrityError to reproduce");
        return 1;
    };
    let options = LayerOptions {
        counter_saturation: bundle.saturation,
        shards: bundle.shards.max(1) as usize,
        ..LayerOptions::default()
    };
    let replay = Replay {
        seed: bundle.seed,
        ops: ops as usize,
        flip,
        expected,
    };
    let master = mem::master_key(bundle.seed, b"mem/master");
    mem::open_layer(
        &bundle.backend,
        None,
        bundle.blocks,
        master,
        options,
        replay,
    )
}

/// A replay on the rebuilt layer: the demo write stream, then the
/// recorded flip, then the class check.
struct Replay {
    seed: u64,
    ops: usize,
    flip: Flip,
    expected: clme_mem::IntegrityError,
}

impl LayerJob for Replay {
    fn run<B: StoreBackend>(self, layer: EncryptionLayer<B>) -> i32 {
        if let Err(err) = populate(&layer, self.seed, self.ops) {
            eprintln!("replay {err}");
            return 1;
        }
        match flip_and_probe(&layer, self.flip) {
            Ok((err, _)) if err.class == self.expected.class => {
                println!(
                    "replay: reproduced class {} at address {:#x} — matches the capture",
                    err.class.name(),
                    err.addr
                );
                0
            }
            Ok((err, _)) => {
                eprintln!(
                    "replay: got class {} but the capture recorded {}",
                    err.class.name(),
                    self.expected.class.name()
                );
                1
            }
            Err(msg) => {
                eprintln!("replay: {msg}");
                1
            }
        }
    }
}
