//! The stage vocabularies the layer publishes, pinned as exact lists:
//! the metric `stage` label and `ops.<op>.stages` keys, and the tenant
//! blame keys, `cause` labels and `tail.dominant` strings. Dashboards
//! and stored artifacts key on these strings, so a rename or reorder
//! must show up here.
//!
//! Both the metrics and the tenant table are built directly, so the
//! test holds in the `telemetry-off` build too.

use clme_mem::{MemMetrics, MemOp, TenantRanges, TenantTelemetry, DEFAULT_TAIL_CUTOFF_NS};
use clme_obs::Sample;
use clme_types::json::JsonValue;

/// The metric stage labels, in index order.
const METRIC_STAGES: [&str; 6] = [
    "lock",
    "tree-walk",
    "store",
    "mac-verify",
    "pad-gen",
    "commit",
];

/// The tenant blame keys, in index order.
const TENANT_CAUSES: [&str; 6] = ["lock", "tree_walk", "store", "mac", "pad", "commit"];

fn keys(v: &JsonValue) -> Vec<&str> {
    v.as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

/// The `label` values of family `name`, in exposition order, once each.
fn label_values<'a>(
    samples: &'a [Sample],
    name: &str,
    label: &str,
    filter: (&str, &str),
) -> Vec<&'a str> {
    let mut out: Vec<&str> = Vec::new();
    for s in samples.iter().filter(|s| s.name == name) {
        let get = |k: &str| {
            s.labels
                .iter()
                .find(|(l, _)| l == k)
                .map(|(_, v)| v.as_str())
        };
        if get(filter.0) != Some(filter.1) {
            continue;
        }
        let v = get(label).expect("the label is present");
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

#[test]
fn stage_vocabularies_are_pinned() {
    metric_stage_labels_and_keys();
    tenant_cause_keys_labels_and_dominant_strings();
}

fn metric_stage_labels_and_keys() {
    let m = MemMetrics::new(1, 1);
    let json = m.snapshot(None).to_json();
    let samples = m.prom_samples(None);
    for op in MemOp::ALL {
        let stages = json
            .get("ops")
            .and_then(|o| o.get(op.name()))
            .and_then(|o| o.get("stages"))
            .expect("ops.<op>.stages");
        assert_eq!(keys(stages), METRIC_STAGES, "ops.{}.stages", op.name());
        assert_eq!(
            label_values(
                &samples,
                "clme_mem_stage_latency_ps",
                "stage",
                ("op", op.name())
            ),
            METRIC_STAGES,
            "clme_mem_stage_latency_ps stage labels for op {}",
            op.name()
        );
    }
}

fn tenant_cause_keys_labels_and_dominant_strings() {
    // One tenant per cause, each with one tail visit that cause
    // dominates; a seventh ties two causes and takes the earlier one.
    let ranges = TenantRanges {
        count: 7,
        first_page: 0,
        pages_per: 1,
    };
    let t = TenantTelemetry::new(ranges, 7, &[0, 1, 2, 3, 4, 5, 6], Vec::new());
    let tail = DEFAULT_TAIL_CUTOFF_NS;
    for cause in 0..TENANT_CAUSES.len() {
        let mut segs = [1u64; 6];
        segs[cause] = tail;
        t.visit_sample(cause as u64, tail, &segs);
    }
    for cause in [3, 2] {
        let mut segs = [0u64; 6];
        segs[cause] = tail;
        t.visit_sample(6, tail, &segs);
    }
    let snap = t.snapshot();
    let json = snap.to_json();
    let rows = match json.get("rows") {
        Some(JsonValue::Arr(rows)) => rows,
        other => panic!("rows: {other:?}"),
    };
    assert_eq!(rows.len(), 8, "seven exact rows and the rollup");
    let mut dominant = Vec::new();
    for row in rows {
        let stage_ns = row.get("stage_ns").expect("stage_ns");
        assert_eq!(keys(stage_ns), TENANT_CAUSES);
        let tail = row.get("tail").expect("tail");
        let mut want = vec!["total"];
        want.extend(TENANT_CAUSES);
        want.push("dominant");
        assert_eq!(keys(tail), want);
        dominant.push(match tail.get("dominant") {
            Some(JsonValue::Str(s)) => Some(s.clone()),
            Some(JsonValue::Null) => None,
            other => panic!("tail.dominant: {other:?}"),
        });
    }
    let want: Vec<Option<String>> = TENANT_CAUSES
        .iter()
        .chain(&["store"])
        .map(|s| Some(s.to_string()))
        .chain([None])
        .collect();
    assert_eq!(dominant, want, "tail.dominant per row");

    let samples = snap.prom_samples();
    for family in ["clme_tenant_stage_ns_total", "clme_tenant_tail_total"] {
        for row in &snap.rows {
            assert_eq!(
                label_values(&samples, family, "cause", ("tenant", &row.label)),
                TENANT_CAUSES,
                "{family} cause labels for {}",
                row.label
            );
        }
    }
}
