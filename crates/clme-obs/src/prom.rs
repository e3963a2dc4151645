//! Prometheus text-format exposition for [`registry`](crate::registry)
//! samples.
//!
//! The writer consumes [`Sample`]s — from [`Registry::snapshot`]
//! (`Registry` in [`crate::registry`]) or assembled directly from a typed
//! snapshot struct — and renders the classic `text/plain; version=0.0.4`
//! format: `# HELP` / `# TYPE` headers once per family, then one line per
//! sample. Histograms render as cumulative `_bucket{le="..."}` lines over
//! the log2 bucket bounds (only buckets with samples, plus `+Inf`), with
//! `_sum` and `_count`.
//!
//! Trust boundary: metric and label *names* were validated at
//! registration ([`crate::registry::valid_metric_name`],
//! [`crate::registry::valid_label_name`]) and are rendered verbatim;
//! anything that failed validation is skipped here as defence in depth. Label *values* and help text are arbitrary UTF-8 and
//! are escaped per the exposition grammar (`\\`, `\"`, `\n`), so a
//! hostile backend path or workload label cannot break a scrape.

use std::fmt::Write as _;

use crate::hist::{Log2Histogram, LOG2_BUCKETS};
use crate::registry::{valid_label_name, valid_metric_name, Sample, SampleValue};

/// Escapes a label value: backslash, double-quote, and newline, per the
/// Prometheus text exposition grammar. Other bytes (including tabs and
/// non-ASCII UTF-8) pass through verbatim, as real scrapers expect.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes help text: backslash and newline (quotes are legal in help).
pub fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

fn render_histogram(out: &mut String, name: &str, labels: &[(String, String)], h: &Log2Histogram) {
    let mut cumulative = 0u64;
    for i in 0..LOG2_BUCKETS {
        let n = h.bucket_count(i);
        if n == 0 {
            continue;
        }
        cumulative += n;
        // The log2 bucket covers [lo, hi); its Prometheus `le` bound is
        // the last contained value, hi - 1 (the top bucket saturates).
        let le = Log2Histogram::bucket_hi_ps(i).saturating_sub(1).max(1);
        let _ = writeln!(
            out,
            "{name}_bucket{} {cumulative}",
            label_block(labels, Some(("le", &le.to_string())))
        );
    }
    let _ = writeln!(
        out,
        "{name}_bucket{} {}",
        label_block(labels, Some(("le", "+Inf"))),
        h.count()
    );
    let _ = writeln!(out, "{name}_sum{} {}", label_block(labels, None), {
        // Exact integer sum of picoseconds; u128 prints without float loss.
        let mean = h.mean_ps();
        format_value(mean * h.count() as f64)
    });
    let _ = writeln!(
        out,
        "{name}_count{} {}",
        label_block(labels, None),
        h.count()
    );
}

fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Renders samples as Prometheus exposition text.
///
/// Samples sharing a family name are grouped; `# HELP`/`# TYPE` are
/// emitted once per family, from the first sample of that family. Samples
/// whose metric or label names fail validation are skipped (the registry
/// already rejects them; this guards hand-assembled samples).
pub fn render(samples: &[Sample]) -> String {
    let mut out = String::new();
    let mut seen_families: Vec<&str> = Vec::new();
    for sample in samples {
        if !valid_metric_name(&sample.name)
            || sample.labels.iter().any(|(k, _)| !valid_label_name(k))
        {
            continue;
        }
        if !seen_families.contains(&sample.name.as_str()) {
            seen_families.push(&sample.name);
            let _ = writeln!(out, "# HELP {} {}", sample.name, escape_help(&sample.help));
            let _ = writeln!(out, "# TYPE {} {}", sample.name, sample.kind.type_keyword());
        }
        match (&sample.value, sample.kind) {
            (SampleValue::Counter(v), _) => {
                let _ = writeln!(
                    out,
                    "{}{} {v}",
                    sample.name,
                    label_block(&sample.labels, None)
                );
            }
            (SampleValue::Gauge(v), _) => {
                let _ = writeln!(
                    out,
                    "{}{} {v}",
                    sample.name,
                    label_block(&sample.labels, None)
                );
            }
            (SampleValue::Histogram(h), _) => {
                render_histogram(&mut out, &sample.name, &sample.labels, h);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{MetricKind, Registry};
    use clme_types::TimeDelta;

    fn sample(name: &str, labels: &[(&str, &str)], value: SampleValue) -> Sample {
        Sample {
            name: name.into(),
            help: "help".into(),
            kind: match value {
                SampleValue::Counter(_) => MetricKind::Counter,
                SampleValue::Gauge(_) => MetricKind::Gauge,
                SampleValue::Histogram(_) => MetricKind::Histogram,
            },
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            value,
        }
    }

    #[test]
    fn renders_counters_and_gauges_with_headers() {
        let reg = Registry::new();
        let c = reg
            .counter("clme_ops_total", "ops so far", &[("shard", "3")])
            .unwrap();
        c.add(42);
        reg.gauge("clme_level", "current level", &[])
            .unwrap()
            .set(7);
        let text = render(&reg.snapshot());
        assert!(text.contains("# HELP clme_ops_total ops so far\n"));
        assert!(text.contains("# TYPE clme_ops_total counter\n"));
        assert!(text.contains("clme_ops_total{shard=\"3\"} 42\n"));
        assert!(text.contains("# TYPE clme_level gauge\n"));
        assert!(text.contains("clme_level 7\n"));
    }

    #[test]
    fn family_header_emitted_once_across_label_sets() {
        let reg = Registry::new();
        reg.counter("clme_fam_total", "h", &[("shard", "0")])
            .unwrap()
            .add(1);
        reg.counter("clme_fam_total", "h", &[("shard", "1")])
            .unwrap()
            .add(2);
        let text = render(&reg.snapshot());
        assert_eq!(text.matches("# TYPE clme_fam_total counter").count(), 1);
        assert!(text.contains("clme_fam_total{shard=\"0\"} 1\n"));
        assert!(text.contains("clme_fam_total{shard=\"1\"} 2\n"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_with_inf_sum_count() {
        let reg = Registry::new();
        let h = reg.histogram("clme_lat_ps", "latency", &[]).unwrap();
        for ps in [3u64, 3, 5, 1000] {
            h.record(TimeDelta::from_picos(ps));
        }
        let text = render(&reg.snapshot());
        // 3,3 in [2,4) -> le=3 cum 2; 5 in [4,8) -> le=7 cum 3;
        // 1000 in [512,1024) -> le=1023 cum 4.
        assert!(text.contains("clme_lat_ps_bucket{le=\"3\"} 2\n"), "{text}");
        assert!(text.contains("clme_lat_ps_bucket{le=\"7\"} 3\n"), "{text}");
        assert!(
            text.contains("clme_lat_ps_bucket{le=\"1023\"} 4\n"),
            "{text}"
        );
        assert!(
            text.contains("clme_lat_ps_bucket{le=\"+Inf\"} 4\n"),
            "{text}"
        );
        assert!(text.contains("clme_lat_ps_sum 1011\n"), "{text}");
        assert!(text.contains("clme_lat_ps_count 4\n"), "{text}");
    }

    #[test]
    fn hostile_label_values_are_escaped_not_leaked() {
        // The same adversarial corpus the Chrome-trace escaping tests use:
        // quotes, backslashes, newlines, control characters.
        let hostile = "cell \"x\"\\y\n\u{2}z";
        let s = sample(
            "clme_hostile_total",
            &[("path", hostile)],
            SampleValue::Counter(1),
        );
        let text = render(&[s]);
        assert!(
            text.contains(r#"path="cell \"x\"\\y\n"#),
            "escapes missing: {text:?}"
        );
        // No raw newline may survive inside a sample line: every line must
        // end cleanly and parse as `name{labels} value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert!(line.ends_with(" 1"), "malformed sample line {line:?}");
            assert!(line.starts_with("clme_hostile_total{path=\""));
        }
        // Exactly HELP + TYPE + one sample line.
        assert_eq!(text.lines().count(), 3, "{text:?}");
    }

    #[test]
    fn hostile_help_text_is_escaped() {
        let mut s = sample("clme_help_total", &[], SampleValue::Counter(0));
        s.help = "line one\nline \\two \"quoted\"".into();
        let text = render(&[s]);
        assert!(
            text.contains("# HELP clme_help_total line one\\nline \\\\two \"quoted\"\n"),
            "{text:?}"
        );
        assert_eq!(text.lines().count(), 3);
    }

    #[test]
    fn invalid_names_in_hand_assembled_samples_are_skipped() {
        // The registry rejects these at registration; render() must not
        // emit them when a caller assembles samples by hand.
        let bad_name = sample("bad name", &[], SampleValue::Counter(1));
        let bad_label = sample("ok_total", &[("bad-label", "v")], SampleValue::Counter(1));
        let injected = sample("ok_total\nevil 1", &[], SampleValue::Counter(1));
        let good = sample("ok_total", &[], SampleValue::Counter(9));
        let text = render(&[bad_name, bad_label, injected, good]);
        assert!(!text.contains("bad name"));
        assert!(!text.contains("bad-label"));
        assert!(!text.contains("evil"));
        assert!(text.contains("ok_total 9\n"));
    }

    #[test]
    fn empty_histogram_renders_inf_only() {
        let reg = Registry::new();
        reg.histogram("clme_empty_ps", "h", &[]).unwrap();
        let text = render(&reg.snapshot());
        assert!(text.contains("clme_empty_ps_bucket{le=\"+Inf\"} 0\n"));
        assert!(text.contains("clme_empty_ps_sum 0\n"));
        assert!(text.contains("clme_empty_ps_count 0\n"));
    }
}
