//! The verification chain on real bytes: the demo and `--smoke` (model
//! check, one flip per stored-word region, a splice, a rekey),
//! `--tamper`, and the write stream `clme postmortem --replay` re-runs.

use super::{dump_context, master_key, random_bytes, MemArgs};
use clme_mem::{
    Block, EncryptionLayer, Geometry, IntegrityError, MemoryAdt, Region, StoreBackend, StoredWord,
};
use clme_types::json::JsonValue;
use clme_types::rng::SplitMix64;
use std::collections::BTreeMap;

/// The stored-word regions a flip can target: the `--tamper` name, the
/// demo's label, and the byte flipped in the region's word. The three
/// lanes share the victim block's data word; the counter block is the
/// victim page's, the tree node the first of the top level.
pub const TAMPER_REGIONS: [(&str, &str, usize); 5] = [
    ("data", "ciphertext lane", 5),
    ("mac", "MAC lane", 64 + 2),
    ("parity", "parity lane", 72 + 1),
    ("counter", "counter block", 9),
    ("tree", "tree node", 17),
];

/// One byte flipped underneath the layer: the stored word, the byte in
/// it, the XOR mask, and the block whose read must then fail. A
/// `--tamper` bundle records it so `clme postmortem --replay` repeats it.
#[derive(Clone, Copy)]
pub struct Flip {
    pub word_index: u64,
    pub byte: usize,
    pub mask: u8,
    pub probe: u64,
}

impl Flip {
    /// The flip in `region` for a `victim` block.
    fn at(geo: &Geometry, region: &str, victim: u64) -> Flip {
        let (_, _, byte) = TAMPER_REGIONS
            .into_iter()
            .find(|&(name, _, _)| name == region)
            .expect("a tamper region");
        let page = geo.page_of(victim);
        let top = geo.levels() - 1;
        let (word_index, probe) = match region {
            "counter" => (geo.counter_word(page), Region::CounterBlock { page }),
            "tree" => (
                geo.node_word(top, 0),
                Region::TreeNode {
                    level: top as u8,
                    group: 0,
                },
            ),
            _ => (geo.data_word(victim), Region::Data { addr: victim }),
        };
        Flip {
            word_index,
            byte,
            mask: 0x01,
            probe: geo.probe_addr(probe),
        }
    }

    /// The workload keys a bundle records the flip under.
    fn to_json(self) -> Vec<(String, JsonValue)> {
        let num = |value: u64| JsonValue::Num(value as f64);
        vec![
            ("word_index".into(), num(self.word_index)),
            ("byte".into(), num(self.byte as u64)),
            ("mask".into(), num(self.mask.into())),
            ("probe_addr".into(), num(self.probe)),
        ]
    }

    /// The flip a bundle's workload object records, if complete.
    pub fn from_workload(workload: &JsonValue) -> Option<Flip> {
        let key = |name| workload.get(name).and_then(JsonValue::as_f64);
        Some(Flip {
            word_index: key("word_index")? as u64,
            byte: key("byte")? as usize,
            mask: key("mask")? as u8,
            probe: key("probe_addr")? as u64,
        })
    }
}

/// The demo's deterministic write stream: `ops.max(64)` (address,
/// pattern) pairs from the `mem/demo` seed stream. The demo, `--tamper`
/// and `postmortem --replay` all write exactly this, so a bundle's
/// recorded seed pins the op window.
fn demo_stream(seed: u64, blocks: u64, ops: usize) -> impl Iterator<Item = (u64, Block)> {
    let mut rng = SplitMix64::new(SplitMix64::new(seed).derive(b"mem/demo"));
    (0..ops.max(64)).map(move |_| (rng.below(blocks), random_bytes(&mut rng)))
}

/// The sorted distinct addresses the demo stream writes, without
/// writing anything — lets `--tamper` pick its victim and arm the dump
/// *before* the captured op window starts, so the bundle's counts cover
/// the whole workload.
pub fn demo_addrs(seed: u64, blocks: u64, ops: usize) -> Vec<u64> {
    let written: std::collections::BTreeSet<u64> = demo_stream(seed, blocks, ops)
        .map(|(addr, _)| addr)
        .collect();
    written.into_iter().collect()
}

/// Writes the demo stream in batches of 64 and returns the plaintext
/// model it leaves behind: every written address and its last block.
pub fn populate<B: StoreBackend>(
    layer: &EncryptionLayer<B>,
    seed: u64,
    ops: usize,
) -> Result<BTreeMap<u64, Block>, String> {
    let stream: Vec<(u64, Block)> =
        demo_stream(seed, layer.geometry().data_blocks(), ops).collect();
    for batch in stream.chunks(64) {
        layer
            .batch_write(batch)
            .map_err(|err| format!("populate batch_write failed: {err}"))?;
    }
    Ok(stream.into_iter().collect())
}

/// Reads every model address back in batches of 64 and compares it with
/// the model; `when` names the phase in the error.
fn read_back<B: StoreBackend>(
    layer: &EncryptionLayer<B>,
    model: &BTreeMap<u64, Block>,
    when: &str,
) -> Result<(), String> {
    let addrs: Vec<u64> = model.keys().copied().collect();
    for chunk in addrs.chunks(64) {
        let got = layer
            .batch_read(chunk)
            .map_err(|err| format!("batch_read {when} failed: {err}"))?;
        for (addr, block) in chunk.iter().zip(&got) {
            if block != &model[addr] {
                return Err(format!("block {addr:#x} read back wrong {when}"));
            }
        }
    }
    Ok(())
}

/// Applies `flip` underneath the layer, then reads its probe address; a
/// healthy layer must answer with an [`IntegrityError`] (which is what
/// triggers an armed dump). Returns the error and the word as it was
/// before the flip.
pub fn flip_and_probe<B: StoreBackend>(
    layer: &EncryptionLayer<B>,
    flip: Flip,
) -> Result<(IntegrityError, StoredWord), String> {
    let word_index = flip.word_index;
    let original = layer
        .backend()
        .read_word(word_index)
        .map_err(|e| format!("cannot read word {word_index}: {e}"))?;
    if flip.byte >= original.len() {
        return Err(format!("byte offset {} outside the stored word", flip.byte));
    }
    let mut word = original;
    word[flip.byte] ^= flip.mask;
    layer
        .backend()
        .write_word(word_index, &word)
        .map_err(|e| format!("cannot write word {word_index}: {e}"))?;
    match layer.read_block(flip.probe) {
        Err(err) => match err.integrity() {
            Some(integrity) => Ok((*integrity, original)),
            None => Err(format!("tamper raised a non-integrity error: {err}")),
        },
        Ok(_) => Err("tamper went UNDETECTED".into()),
    }
}

/// `--tamper REGION`: run the demo's write stream, flip one byte in the
/// chosen stored-word region, and let the armed layer write the
/// `.clmedump` bundle the moment the probe read fails. The bundle's
/// workload object records the exact flip site so `clme postmortem
/// --replay` can re-run this flow and reproduce the error class.
pub fn tamper<B: StoreBackend>(
    args: &MemArgs,
    layer: &EncryptionLayer<B>,
    region: &str,
) -> Result<(), String> {
    let geo = layer.geometry();
    let addrs = demo_addrs(args.seed, geo.data_blocks(), args.ops);
    let flip = Flip::at(geo, region, addrs[addrs.len() / 2]);
    let mut extras = vec![("region".into(), JsonValue::Str(region.to_string()))];
    extras.extend(flip.to_json());
    layer.arm_dump(dump_context(args, "tamper", extras));
    populate(layer, args.seed, args.ops)?;
    let (err, _) = flip_and_probe(layer, flip).map_err(|msg| format!("tamper {region}: {msg}"))?;
    let path = layer
        .last_dump()
        .ok_or_else(|| format!("tamper {region}: caught ({err}), but no dump was written"))?;
    println!(
        "tamper {region}: caught ({err}); post-mortem bundle at {}",
        path.display()
    );
    Ok(())
}

/// Write/read against a plaintext model, one tamper per stored-word
/// region, a splice, and a rekey — the library's end-to-end story.
/// `--smoke` runs the same checks with one-line output; any miss is a
/// nonzero exit (the tier-1 CI hook).
pub fn demo<B: StoreBackend>(
    args: &MemArgs,
    layer: &EncryptionLayer<B>,
    verbose: bool,
) -> Result<(), String> {
    let geo = layer.geometry();
    if verbose {
        let meta_words = geo.total_words() - geo.data_blocks();
        println!(
            "clme-mem demo: {} blocks ({} pages, {}-level tree, {} metadata words = {:.1}% overhead), backend {}",
            geo.data_blocks(),
            geo.pages(),
            geo.levels(),
            meta_words,
            meta_words as f64 / geo.data_blocks() as f64 * 100.0,
            args.backend,
        );
    }

    // Phase 1: random batch writes mirrored into a plaintext model.
    let model = populate(layer, args.seed, args.ops)?;
    read_back(layer, &model, "after the writes")?;
    let addrs: Vec<u64> = model.keys().copied().collect();
    if verbose {
        println!(
            "wrote {} blocks ({} distinct), every read matches the plaintext model",
            args.ops.max(64),
            addrs.len()
        );
    }

    // Phase 2: flip one byte in each stored-word region; every flip
    // must surface as a typed IntegrityError, and flipping it back must
    // restore the read.
    let victim = addrs[addrs.len() / 2];
    for (region, what, _) in TAMPER_REGIONS {
        let flip = Flip::at(geo, region, victim);
        let (err, original) =
            flip_and_probe(layer, flip).map_err(|msg| format!("{what}: {msg}"))?;
        if verbose {
            println!("tamper {what:<16} -> caught: {err}");
        }
        let restored = layer.backend().write_word(flip.word_index, &original);
        if restored.is_err() || layer.read_block(flip.probe).is_err() {
            return Err(format!(
                "restoring the {what} word did not restore the read"
            ));
        }
    }

    // Phase 3: splice two valid ciphertexts — both positions must fail.
    let (a, b) = (addrs[0], addrs[addrs.len() - 1]);
    let store = layer.backend();
    let (word_a, word_b) = (geo.data_word(a), geo.data_word(b));
    let put = |at_a: &StoredWord, at_b: &StoredWord| {
        store.write_word(word_a, at_a)?;
        store.write_word(word_b, at_b)
    };
    let splice = || -> Result<bool, clme_mem::MemError> {
        let (old_a, old_b) = (store.read_word(word_a)?, store.read_word(word_b)?);
        put(&old_b, &old_a)?;
        let caught = layer.read_block(a).is_err() && layer.read_block(b).is_err();
        put(&old_a, &old_b)?;
        Ok(caught)
    };
    if !splice().map_err(|err| format!("cannot splice: {err}"))? {
        return Err(format!("splicing blocks {a:#x} and {b:#x} went UNDETECTED"));
    }
    if verbose {
        println!("splice of two valid ciphertexts rejected at both positions");
    }

    // Phase 4: rekey and re-verify.
    let report = layer
        .rekey(master_key(args.seed, b"mem/rekey"))
        .map_err(|err| format!("rekey failed: {err}"))?;
    read_back(layer, &model, "after rekey")?;
    if verbose {
        println!(
            "rekey swept {} blocks over {} pages ({} counterless); all reads still match",
            report.blocks, report.pages, report.counterless_blocks
        );
    } else {
        println!(
            "mem smoke ok: {} blocks, {} tamper probes caught, splice rejected, rekey swept {} blocks",
            geo.data_blocks(),
            TAMPER_REGIONS.len(),
            report.blocks
        );
    }
    Ok(())
}
