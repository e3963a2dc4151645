//! Post-mortem `.clmedump` bundles: the black box, written to disk.
//!
//! When an armed [`EncryptionLayer`](crate::EncryptionLayer) hits an
//! [`IntegrityError`](crate::IntegrityError) (or is told to dump on
//! exit), it snapshots the flight ring, the [`MemMetricsSnapshot`] delta
//! since arming, and its geometry/config into a [`DumpBundle`] and
//! writes it as deterministic JSON: stable key order, no wall-clock
//! timestamps, the seed and workload parameters a replay needs to
//! re-create the exact op window. `clme postmortem` renders bundles and
//! `--replay` re-runs them.
//!
//! The bundle is written with [`write_atomic`] (temp file + rename), so
//! a crash mid-dump can never leave a truncated artifact — the same
//! helper the CLI uses for its bench-history files.

use std::io;
use std::path::{Path, PathBuf};

use clme_obs::flight::{FlightEvent, FlightSnapshot};
use clme_types::json::{self, JsonValue};

use crate::error::{IntegrityError, TamperClass};
use crate::flight::FlightKind;
use crate::metrics::MemMetricsSnapshot;

/// Bundle format version. Bump on any incompatible shape change.
pub const DUMP_SCHEMA: u32 = 1;

/// What the CLI (or any embedder) tells the layer when arming a dump:
/// where to write, the workload seed, and an opaque workload description
/// the replayer interprets (op counts, tamper site, mode, ...).
#[derive(Clone, Debug)]
pub struct DumpContext {
    /// Destination path of the `.clmedump` bundle.
    pub path: PathBuf,
    /// Seed the workload derives all its randomness from.
    pub seed: u64,
    /// Replayer-defined workload description, stored verbatim.
    pub workload: JsonValue,
}

/// The monotonic counters a dump carries — the [`MemMetricsSnapshot`]
/// delta between arming and the dump trigger, minus the histograms
/// (whose timings are inherently nondeterministic and belong in the
/// stats artifact, not the forensic record).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DumpCounts {
    /// `batch_read` calls in the window.
    pub batch_reads: u64,
    /// `batch_write` calls in the window.
    pub batch_writes: u64,
    /// Blocks decrypted in the window.
    pub blocks_read: u64,
    /// Blocks encrypted in the window.
    pub blocks_written: u64,
    /// Integrity failures in the window.
    pub integrity_errors: u64,
    /// Page rolls in the window.
    pub page_rolls: u64,
    /// Ciphertext writes observed in the window.
    pub observed_writes: u64,
}

impl DumpCounts {
    /// Extracts the counters from a metrics delta.
    pub fn from_delta(delta: &MemMetricsSnapshot) -> DumpCounts {
        DumpCounts {
            batch_reads: delta.batch_reads,
            batch_writes: delta.batch_writes,
            blocks_read: delta.blocks_read,
            blocks_written: delta.blocks_written,
            integrity_errors: delta.integrity_errors,
            page_rolls: delta.page_rolls,
            observed_writes: delta.observed_writes_total,
        }
    }
}

/// One complete post-mortem bundle.
#[derive(Clone, Debug)]
pub struct DumpBundle {
    /// Format version ([`DUMP_SCHEMA`]).
    pub schema: u32,
    /// What caused the dump: `"integrity-error"` or `"exit"`.
    pub trigger: String,
    /// Backend class ([`StoreBackend::kind`](crate::StoreBackend::kind)).
    pub backend: String,
    /// Data blocks the layer manages.
    pub blocks: u64,
    /// Pages ([`Geometry::pages`](crate::Geometry::pages)).
    pub pages: u64,
    /// Integrity-tree levels.
    pub levels: u64,
    /// Stored words in the backend.
    pub total_words: u64,
    /// Page-shard lock count.
    pub shards: u64,
    /// Counter saturation point.
    pub saturation: u64,
    /// Workload seed (recorded losslessly as a hex string in JSON).
    pub seed: u64,
    /// Batches completed in the captured window (the op index at which
    /// the trigger fired).
    pub op_index: u64,
    /// The triggering integrity error, when there was one.
    pub error: Option<IntegrityError>,
    /// Counter deltas over the captured window.
    pub counts: DumpCounts,
    /// The flight ring's retained events, oldest first.
    pub events: Vec<FlightEvent>,
    /// Events the ring had already evicted.
    pub events_dropped: u64,
    /// Events ever recorded.
    pub events_recorded: u64,
    /// The embedder's workload description, verbatim.
    pub workload: JsonValue,
}

fn num(v: u64) -> JsonValue {
    JsonValue::Num(v as f64)
}

fn get_u64(v: &JsonValue, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(JsonValue::as_f64)
        .map(|f| f as u64)
        .ok_or_else(|| format!("missing or non-numeric key: {key}"))
}

fn get_str<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("missing or non-string key: {key}"))
}

impl DumpBundle {
    /// Assembles a bundle from the layer's state at trigger time.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        trigger: &str,
        backend: &str,
        geo: &crate::geometry::Geometry,
        shards: u64,
        saturation: u64,
        ctx: &DumpContext,
        delta: &MemMetricsSnapshot,
        flight: FlightSnapshot,
        error: Option<IntegrityError>,
    ) -> DumpBundle {
        let counts = DumpCounts::from_delta(delta);
        DumpBundle {
            schema: DUMP_SCHEMA,
            trigger: trigger.to_string(),
            backend: backend.to_string(),
            blocks: geo.data_blocks(),
            pages: geo.pages(),
            levels: geo.levels() as u64,
            total_words: geo.total_words(),
            shards,
            saturation,
            seed: ctx.seed,
            op_index: counts.batch_reads + counts.batch_writes,
            error,
            counts,
            events: flight.events,
            events_dropped: flight.dropped,
            events_recorded: flight.recorded,
            workload: ctx.workload.clone(),
        }
    }

    /// Serializes the bundle. Byte-for-byte deterministic for a
    /// deterministic workload: insertion-ordered keys, no timestamps.
    pub fn to_json(&self) -> JsonValue {
        let error = match &self.error {
            None => JsonValue::Null,
            Some(e) => JsonValue::Obj(vec![
                ("addr".into(), num(e.addr)),
                ("class_code".into(), num(e.class.code() as u64)),
                ("class".into(), JsonValue::Str(e.class.name().into())),
                ("display".into(), JsonValue::Str(e.to_string())),
            ]),
        };
        let events: Vec<JsonValue> = self
            .events
            .iter()
            .map(|e| {
                let name = FlightKind::from_code(e.kind)
                    .map(FlightKind::name)
                    .unwrap_or("unknown");
                JsonValue::Obj(vec![
                    ("seq".into(), num(e.seq)),
                    ("kind".into(), num(e.kind as u64)),
                    ("name".into(), JsonValue::Str(name.into())),
                    ("a".into(), num(e.a)),
                    ("b".into(), num(e.b)),
                ])
            })
            .collect();
        JsonValue::Obj(vec![
            ("schema".into(), num(self.schema as u64)),
            ("trigger".into(), JsonValue::Str(self.trigger.clone())),
            (
                "config".into(),
                JsonValue::Obj(vec![
                    ("backend".into(), JsonValue::Str(self.backend.clone())),
                    ("blocks".into(), num(self.blocks)),
                    ("pages".into(), num(self.pages)),
                    ("levels".into(), num(self.levels)),
                    ("total_words".into(), num(self.total_words)),
                    ("shards".into(), num(self.shards)),
                    ("saturation".into(), num(self.saturation)),
                    (
                        "seed".into(),
                        JsonValue::Str(format!("{:#018x}", self.seed)),
                    ),
                ]),
            ),
            ("op_index".into(), num(self.op_index)),
            ("error".into(), error),
            (
                "counts".into(),
                JsonValue::Obj(vec![
                    ("batch_reads".into(), num(self.counts.batch_reads)),
                    ("batch_writes".into(), num(self.counts.batch_writes)),
                    ("blocks_read".into(), num(self.counts.blocks_read)),
                    ("blocks_written".into(), num(self.counts.blocks_written)),
                    ("integrity_errors".into(), num(self.counts.integrity_errors)),
                    ("page_rolls".into(), num(self.counts.page_rolls)),
                    ("observed_writes".into(), num(self.counts.observed_writes)),
                ]),
            ),
            (
                "flight".into(),
                JsonValue::Obj(vec![
                    ("recorded".into(), num(self.events_recorded)),
                    ("dropped".into(), num(self.events_dropped)),
                    ("events".into(), JsonValue::Arr(events)),
                ]),
            ),
            ("workload".into(), self.workload.clone()),
        ])
    }

    /// Parses a bundle back from JSON text, validating the schema.
    pub fn parse(text: &str) -> Result<DumpBundle, String> {
        let doc = json::parse(text)?;
        let schema = get_u64(&doc, "schema")? as u32;
        if schema != DUMP_SCHEMA {
            return Err(format!(
                "dump schema {schema} unsupported (this build reads {DUMP_SCHEMA})"
            ));
        }
        let config = doc
            .get("config")
            .ok_or_else(|| "missing key: config".to_string())?;
        let seed_text = get_str(config, "seed")?;
        let seed_digits = seed_text
            .strip_prefix("0x")
            .ok_or_else(|| format!("seed not hex: {seed_text}"))?;
        let seed = u64::from_str_radix(seed_digits, 16).map_err(|e| format!("bad seed: {e}"))?;
        let error = match doc.get("error") {
            None | Some(JsonValue::Null) => None,
            Some(e) => {
                let code = get_u64(e, "class_code")? as u16;
                let class = TamperClass::from_code(code)
                    .ok_or_else(|| format!("unknown tamper class code {code}"))?;
                Some(IntegrityError {
                    addr: get_u64(e, "addr")?,
                    class,
                })
            }
        };
        let counts_obj = doc
            .get("counts")
            .ok_or_else(|| "missing key: counts".to_string())?;
        let counts = DumpCounts {
            batch_reads: get_u64(counts_obj, "batch_reads")?,
            batch_writes: get_u64(counts_obj, "batch_writes")?,
            blocks_read: get_u64(counts_obj, "blocks_read")?,
            blocks_written: get_u64(counts_obj, "blocks_written")?,
            integrity_errors: get_u64(counts_obj, "integrity_errors")?,
            page_rolls: get_u64(counts_obj, "page_rolls")?,
            observed_writes: get_u64(counts_obj, "observed_writes")?,
        };
        let flight = doc
            .get("flight")
            .ok_or_else(|| "missing key: flight".to_string())?;
        let mut events = Vec::new();
        if let Some(JsonValue::Arr(items)) = flight.get("events") {
            for item in items {
                events.push(FlightEvent {
                    seq: get_u64(item, "seq")?,
                    kind: get_u64(item, "kind")? as u16,
                    a: get_u64(item, "a")?,
                    b: get_u64(item, "b")?,
                });
            }
        } else {
            return Err("missing key: flight.events".into());
        }
        Ok(DumpBundle {
            schema,
            trigger: get_str(&doc, "trigger")?.to_string(),
            backend: get_str(config, "backend")?.to_string(),
            blocks: get_u64(config, "blocks")?,
            pages: get_u64(config, "pages")?,
            levels: get_u64(config, "levels")?,
            total_words: get_u64(config, "total_words")?,
            shards: get_u64(config, "shards")?,
            saturation: get_u64(config, "saturation")?,
            seed,
            op_index: get_u64(&doc, "op_index")?,
            error,
            counts,
            events,
            events_dropped: get_u64(flight, "dropped")?,
            events_recorded: get_u64(flight, "recorded")?,
            workload: doc.get("workload").cloned().unwrap_or(JsonValue::Null),
        })
    }
}

/// Writes `text` to `path` atomically: a temp sibling file is written
/// in full, then renamed over the destination, so readers (and crashes)
/// only ever see the old complete artifact or the new complete one.
pub fn write_atomic(path: &Path, text: &str) -> io::Result<()> {
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = PathBuf::from(tmp_name);
    if let Err(e) = std::fs::write(&tmp, text) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Geometry;

    fn sample_bundle() -> DumpBundle {
        let geo = Geometry::for_blocks(256);
        let ctx = DumpContext {
            path: PathBuf::from("unused.clmedump"),
            seed: 0x00C0_FFEE,
            workload: JsonValue::Obj(vec![("mode".into(), JsonValue::Str("tamper".into()))]),
        };
        let delta = MemMetricsSnapshot {
            batch_reads: 3,
            batch_writes: 17,
            blocks_read: 48,
            blocks_written: 1088,
            integrity_errors: 1,
            page_rolls: 2,
            observed_writes_total: 1090,
            ..MemMetricsSnapshot::default()
        };
        let flight = FlightSnapshot {
            events: vec![
                FlightEvent {
                    seq: 5,
                    kind: FlightKind::WritePage as u16,
                    a: 1,
                    b: 64,
                },
                FlightEvent {
                    seq: 6,
                    kind: FlightKind::IntegrityFail as u16,
                    a: 70,
                    b: 0,
                },
            ],
            dropped: 4,
            recorded: 6,
            capacity: 4096,
        };
        DumpBundle::assemble(
            "integrity-error",
            "vec",
            &geo,
            16,
            1 << 20,
            &ctx,
            &delta,
            flight,
            Some(IntegrityError {
                addr: 70,
                class: TamperClass::DataMac,
            }),
        )
    }

    #[test]
    fn bundle_round_trips_through_json() {
        let bundle = sample_bundle();
        let text = bundle.to_json().to_pretty();
        let back = DumpBundle::parse(&text).unwrap();
        assert_eq!(back.schema, DUMP_SCHEMA);
        assert_eq!(back.trigger, "integrity-error");
        assert_eq!(back.backend, "vec");
        assert_eq!(back.blocks, 256);
        assert_eq!(back.seed, 0x00C0_FFEE);
        assert_eq!(back.op_index, 20);
        assert_eq!(back.counts, bundle.counts);
        assert_eq!(back.events, bundle.events);
        assert_eq!(back.events_dropped, 4);
        assert_eq!(back.error.unwrap().class, TamperClass::DataMac);
        assert_eq!(
            back.workload.get("mode").and_then(JsonValue::as_str),
            Some("tamper")
        );
        // Serialization is deterministic: re-render matches byte for byte.
        assert_eq!(back.to_json().to_pretty(), text);
    }

    #[test]
    fn parse_rejects_wrong_schema_and_bad_seed() {
        let mut bundle = sample_bundle();
        bundle.schema = DUMP_SCHEMA + 1;
        let err = DumpBundle::parse(&bundle.to_json().to_pretty()).unwrap_err();
        assert!(err.contains("schema"), "{err}");

        let text = sample_bundle()
            .to_json()
            .to_pretty()
            .replace("0x0000000000c0ffee", "zz");
        assert!(DumpBundle::parse(&text).is_err());
    }

    #[test]
    fn write_atomic_replaces_whole_file() {
        let path =
            std::env::temp_dir().join(format!("clme-dump-atomic-{}.json", std::process::id()));
        write_atomic(&path, "first version").unwrap();
        write_atomic(&path, "second").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second");
        let _ = std::fs::remove_file(&path);
    }
}
