//! Pins what the sinks observe of every engine variant the figures run.
//!
//! The snapshots and `goldens/figures.txt` pin the simulated statistics;
//! this pins the observation stream beside them. Each cell runs one of
//! the four stock engines or the two ablations on `table1` or `low-bw`,
//! once under a [`Recorder`] and once under a [`SpanTracer`], and
//! compares a SHA3-256 digest of what each saw:
//!
//! * Recorder: every [`EventCounters`](clme_obs::EventCounters) value,
//!   every [`Stage`] histogram (buckets, count, sum and max) and the
//!   Chrome trace of the event ring;
//! * SpanTracer: the blame tally and each sampled request with its
//!   children in recorded order.
//!
//! The windows are [`SimParams::quick`]'s with a longer functional
//! warm-up: at `quick` no dirty line leaves the LLC in the measured
//! window, so the writeback path would go unobserved. `xz` brings
//! prefetch fills, and on `low-bw` Counter-light writebacks in both
//! modes; `canneal` thrashes the counter cache.
//!
//! A mismatch prints each cell's digests as they now are.

use super::{Variant, CXL, LIGHT, MODE, NONE};
use crate::args::config_by_name;
use clme_crypto::sha3::sha3_256;
use clme_obs::{chrome_trace_json, EventKind, Recorder, SpanTracer, Stage, TraceSink};
use clme_sim::{simulate, MachineArena, SimParams};
use clme_workloads::suites::DEFAULT_SEED;
use std::fmt::Write;

const VARIANTS: [Variant; 6] = [
    NONE,
    CXL,
    MODE,
    LIGHT,
    Variant::SingleCounterRead,
    Variant::NoSwitch,
];

const BENCHES: [&str; 2] = ["xz", "canneal"];

/// (variant, benchmark, Recorder digest, SpanTracer digest) on `table1`.
const TABLE1: [(&str, &str, &str, &str); 12] = [
    (
        "no-encryption",
        "xz",
        "e1479dffc490c4a3b8f75ba5da12e8b603fa031e0d617a0dcecb463938be4fbf",
        "729ab838058277e78027f2982410f2261a5f0d4e965af6f1937e7eafbdef582d",
    ),
    (
        "no-encryption",
        "canneal",
        "1bdf94a10655c7b575424135d41bc47a7f33759c1505e9d9f06ae9ba9809a7b2",
        "4ed1ada4489d54cb8a2c82e55dab3bc6e85ee6c5e8f47a110baec2b7b1b46abf",
    ),
    (
        "counterless",
        "xz",
        "8b70c8c999f7ff60a06ec61dd80fa19f7c08d2a51d37d4df4cf43aa6d9582cf5",
        "3fc2eade6655d0c0c5144172d2d9be6e7b25ab130c1d8628b12bad7c8039a920",
    ),
    (
        "counterless",
        "canneal",
        "98926ebb3370446787dc9e32cf5f657b1dfc105f2f36daf4a4159f30edf9762a",
        "b3ec2040c0c4a8dffe9e04eaa275d94dad1446ea5829cb86673897cf42382ffd",
    ),
    (
        "counter-mode",
        "xz",
        "629c3f7c23c5f2245af9e6705437477afde8508185ace81661ab302305c786c9",
        "21b1d5dfe4b35a913920c0731a53df8e2e1c456a2d73edbb295580c615feeb75",
    ),
    (
        "counter-mode",
        "canneal",
        "385e58028642bb6e5783d0df631658906c9685550c94b25ea36aa788365c1977",
        "f255897d07cbc18ecf931b9f9abf02fe48ac9d76249860fc733e194c7df3859c",
    ),
    (
        "counter-light",
        "xz",
        "a67d1f042c7cc9987e92cd913e384cabaf6cba469d8b1bb4f68ec6697f2373c5",
        "d6cb2514bab148278ecee59101e813557a4f2e346e3eb92e6c82ba0d7f776bd9",
    ),
    (
        "counter-light",
        "canneal",
        "62684c338a24798d3f835408961d0396bb40f2dc77a9eaab15f9fb56e53b0334",
        "17d41f4800e512428348ec2e4b8a88653c034984b41ced2dd069ddd5b3688693",
    ),
    (
        "counter-mode-single-read",
        "xz",
        "8ae9040d369d2cc1141e40c3cba40f5103b59c7475bff349774a086976abc238",
        "5804b787fd3a68ab84915bb26967a097b33302d47e5776021e2d23de8f94ec46",
    ),
    (
        "counter-mode-single-read",
        "canneal",
        "4d1c5a07eb86c3b3ab1a6e732e94ab4f342d1f02fbf069277fbe29ace9ea2450",
        "c09335d575ee4a71b0db7f49de707df7fdf8ae656c41cdfb40c15f7504d61d2f",
    ),
    (
        "counter-light-no-switch",
        "xz",
        "a67d1f042c7cc9987e92cd913e384cabaf6cba469d8b1bb4f68ec6697f2373c5",
        "d6cb2514bab148278ecee59101e813557a4f2e346e3eb92e6c82ba0d7f776bd9",
    ),
    (
        "counter-light-no-switch",
        "canneal",
        "62684c338a24798d3f835408961d0396bb40f2dc77a9eaab15f9fb56e53b0334",
        "17d41f4800e512428348ec2e4b8a88653c034984b41ced2dd069ddd5b3688693",
    ),
];

/// The same cells on `low-bw`.
const LOW_BW: [(&str, &str, &str, &str); 12] = [
    (
        "no-encryption",
        "xz",
        "b012fcac8adb03dc4b4ba83ee61a0c96865196c899ca8000bce1719bb3db2d9e",
        "cea1247ee6e491750eccc3ff5eacdfcf5806cd08a3730529b091ec5c5fe47b8f",
    ),
    (
        "no-encryption",
        "canneal",
        "86ea57c511e6dffe4c3feee229cc275498178b9ff459b4ec42d3131690a10d55",
        "d4b32d92e6e0228575d9fa2f9d3d804014d5117af32daf11259a48859694e547",
    ),
    (
        "counterless",
        "xz",
        "10d056f0f36b795c16e9e5544cddef9a92b98f2eac4941ea7a89ec0d00b8e4f8",
        "2ea6a88d53edc617c971caa6811fc01f0e1101ebafa0bafc8b28895da55b8cc1",
    ),
    (
        "counterless",
        "canneal",
        "9c4f64cb185fb90655c1485360c733cb6eb9b511e8028149dc52c107d68c5728",
        "8dcb1be447cd97db8d73f4fddc5b082bdae2d02c6addf8bb18b4004f9df84848",
    ),
    (
        "counter-mode",
        "xz",
        "a70c6f77bd62b75f9094cc28088e2a64a018db33aff8da5e38ef11a7c776aa92",
        "4f8ec3d8d2b090aa259b4c8c09d7774cdc104f31b34004423127bb1c11fd6a6b",
    ),
    (
        "counter-mode",
        "canneal",
        "3e0519448f105f0ece32023f7e5fa9dda88f0fac7b2244132dbb727e8d376e14",
        "599b12bcf51a5ba528c658d461ca19327c90b39ca6d993fd7d21b2913e6fbed7",
    ),
    (
        "counter-light",
        "xz",
        "ec670f1d1090cfa6419e8692d0513a1660ba35026ca393f23b41b6f9a3ee794b",
        "3e9dac6e7117b6b4e9abccfaf9d02c0435f12b906b685ea25bface2ce10740c3",
    ),
    (
        "counter-light",
        "canneal",
        "5c423ae64566b2a0081eadfc7d9acd2a7d029d16c6fbd6d13726728f200a8d17",
        "6d901eea09aca5c6d70890215f6cde4279632ef63343f2b59e82a0d42444acfd",
    ),
    (
        "counter-mode-single-read",
        "xz",
        "21db02a9746b6c2d8cd66908ac7da8363d02f220f7792186c4e350713f153dc5",
        "a26510bde9deea9617c91e74912be0c9b17d4ff0a066a41c013e0bf93c687c57",
    ),
    (
        "counter-mode-single-read",
        "canneal",
        "1b661018b607b0c00b5094bb8accd2160b3919ffc88a4fb1e8924ae13e22a219",
        "8a8c6d80e0aa7e700906fd591408c4956af80693ce6748d1b3c3bd4882c1217c",
    ),
    (
        "counter-light-no-switch",
        "xz",
        "7f432304215b2a42e42fc9dd061d1a91296715aaaa0c48751c7206ce29e68e53",
        "2b0b7b77926f5f877827f851bc289f4d8190bc620f408241ae00cc5bbf1abbc3",
    ),
    (
        "counter-light-no-switch",
        "canneal",
        "5c423ae64566b2a0081eadfc7d9acd2a7d029d16c6fbd6d13726728f200a8d17",
        "6d901eea09aca5c6d70890215f6cde4279632ef63343f2b59e82a0d42444acfd",
    ),
];

fn params() -> SimParams {
    SimParams {
        functional_warmup_accesses: 150_000,
        ..SimParams::quick()
    }
}

fn run<S: TraceSink>(config: &str, variant: Variant, bench: &str, sink: S) -> S {
    let cfg = config_by_name(config).expect("a known config");
    let engine = |cfg: &_| variant.engine(cfg);
    let arena = &mut MachineArena::default();
    simulate(&cfg, engine, bench, params(), DEFAULT_SEED, sink, arena).1
}

fn digest(text: &str) -> String {
    sha3_256(text.as_bytes())
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

fn recorder_digest(config: &str, variant: Variant, bench: &str) -> String {
    let rec = run(config, variant, bench, Recorder::new());
    let mut text = String::new();
    for kind in EventKind::ALL {
        writeln!(text, "{} {}", kind.name(), rec.counters().get(kind)).unwrap();
    }
    for stage in Stage::ALL {
        writeln!(text, "{} {:?}", stage.name(), rec.stage(stage)).unwrap();
    }
    text.push_str(&chrome_trace_json(rec.ring()));
    digest(&text)
}

fn span_digest(config: &str, variant: Variant, bench: &str) -> String {
    let tracer = run(config, variant, bench, SpanTracer::new(256));
    let mut text = format!("{:?}\n", tracer.tally());
    for request in tracer.sampled() {
        writeln!(text, "{request:?}").unwrap();
    }
    digest(&text)
}

fn check(config: &str, pins: &[(&str, &str, &str, &str)]) {
    let mut now = Vec::new();
    for variant in VARIANTS {
        for bench in BENCHES {
            now.push((
                variant.to_string(),
                bench,
                recorder_digest(config, variant, bench),
                span_digest(config, variant, bench),
            ));
        }
    }
    let same = now.len() == pins.len()
        && now
            .iter()
            .zip(pins)
            .all(|((v, b, r, s), pin)| (v.as_str(), *b, r.as_str(), s.as_str()) == *pin);
    let table: String = now
        .iter()
        .map(|(v, b, r, s)| format!("    (\"{v}\", \"{b}\", \"{r}\", \"{s}\"),\n"))
        .collect();
    assert!(same, "{config} observations moved; they now are:\n{table}");
}

#[test]
fn table1_observations_match_the_pins() {
    check("table1", &TABLE1);
}

#[test]
fn low_bw_observations_match_the_pins() {
    check("low-bw", &LOW_BW);
}
