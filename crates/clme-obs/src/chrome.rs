//! Chrome `trace_event` JSON export.
//!
//! Emits the object form (`{"traceEvents": [...]}`) with complete (`"X"`)
//! events, one virtual thread per [`Component`], so a recorded run opens
//! directly in Perfetto or `chrome://tracing`. Timestamps are microseconds
//! per the trace_event spec; simulated picoseconds divide exactly into
//! fractional µs, and the encoder's shortest-round-trip float formatting
//! keeps the output byte-stable.

use crate::counters::Component;
use crate::ring::TraceRing;
use crate::span::{RequestSpans, SpanKind};
use clme_types::json::JsonValue;
use clme_types::time::PS_PER_US;

/// The `pid` used for all emitted events (one simulated process).
const TRACE_PID: f64 = 1.0;

fn us(ps: u64) -> f64 {
    ps as f64 / PS_PER_US as f64
}

/// Serialises a ring of trace events as Chrome `trace_event` JSON.
///
/// # Examples
///
/// ```
/// use clme_obs::{chrome_trace_json, Component, EventKind, TraceEvent, TraceRing};
/// use clme_types::{Time, TimeDelta};
///
/// let mut ring = TraceRing::new(8);
/// ring.push(TraceEvent {
///     at: Time::from_picos(2_000_000),
///     component: Component::Dram,
///     event: EventKind::RowHit,
///     addr: 0x41,
///     latency: TimeDelta::from_ns(20),
/// });
/// let json = chrome_trace_json(&ring);
/// assert!(json.contains("\"traceEvents\""));
/// assert!(json.contains("\"row-hit\""));
/// ```
pub fn chrome_trace_json(ring: &TraceRing) -> String {
    let mut events: Vec<JsonValue> = Vec::with_capacity(ring.len() + Component::ALL.len());
    // Metadata events name the virtual threads so tracks are labelled.
    for &component in Component::ALL.iter() {
        events.push(JsonValue::Obj(vec![
            ("ph".into(), JsonValue::Str("M".into())),
            ("pid".into(), JsonValue::Num(TRACE_PID)),
            ("tid".into(), JsonValue::Num(component as usize as f64)),
            ("name".into(), JsonValue::Str("thread_name".into())),
            (
                "args".into(),
                JsonValue::Obj(vec![(
                    "name".into(),
                    JsonValue::Str(component.name().into()),
                )]),
            ),
        ]));
    }
    for event in ring.iter() {
        events.push(JsonValue::Obj(vec![
            ("name".into(), JsonValue::Str(event.event.name().into())),
            ("cat".into(), JsonValue::Str(event.component.name().into())),
            ("ph".into(), JsonValue::Str("X".into())),
            ("pid".into(), JsonValue::Num(TRACE_PID)),
            (
                "tid".into(),
                JsonValue::Num(event.component as usize as f64),
            ),
            ("ts".into(), JsonValue::Num(us(event.at.picos()))),
            ("dur".into(), JsonValue::Num(us(event.latency.picos()))),
            (
                "args".into(),
                JsonValue::Obj(vec![(
                    "addr".into(),
                    JsonValue::Str(format!("{:#x}", event.addr)),
                )]),
            ),
        ]));
    }
    let doc = JsonValue::Obj(vec![
        ("displayTimeUnit".into(), JsonValue::Str("ns".into())),
        ("traceEvents".into(), JsonValue::Arr(events)),
    ]);
    let mut out = doc.to_pretty();
    out.push('\n');
    out
}

/// The virtual thread a request's roll-up span renders on; child spans
/// render on `1 + SpanKind` so each dependency kind gets its own track.
const REQUEST_TID: f64 = 0.0;

fn flow_event(ph: &str, id: u64, tid: f64, ts_ps: u64) -> JsonValue {
    let mut fields = vec![
        ("name".into(), JsonValue::Str("critical-path".into())),
        ("cat".into(), JsonValue::Str("critpath".into())),
        ("ph".into(), JsonValue::Str(ph.into())),
        ("id".into(), JsonValue::Num(id as f64)),
        ("pid".into(), JsonValue::Num(TRACE_PID)),
        ("tid".into(), JsonValue::Num(tid)),
        ("ts".into(), JsonValue::Num(us(ts_ps))),
    ];
    if ph == "f" {
        // Bind the finish to the enclosing slice's end, per the spec.
        fields.push(("bp".into(), JsonValue::Str("e".into())));
    }
    JsonValue::Obj(fields)
}

/// Serialises sampled request spans as Chrome `trace_event` JSON with
/// flow arrows: each request is an `"X"` roll-up slice plus one slice per
/// child span on a per-kind track, connected by `"s"`/`"t"`/`"f"` flow
/// events sharing the request id, so Perfetto draws the causal chain.
///
/// `label` names the process (the run-matrix cell the spans came from).
pub fn span_flow_json(label: &str, requests: &[RequestSpans]) -> String {
    let mut events: Vec<JsonValue> = Vec::with_capacity(2 + requests.len() * 8);
    events.push(JsonValue::Obj(vec![
        ("ph".into(), JsonValue::Str("M".into())),
        ("pid".into(), JsonValue::Num(TRACE_PID)),
        ("tid".into(), JsonValue::Num(REQUEST_TID)),
        ("name".into(), JsonValue::Str("process_name".into())),
        (
            "args".into(),
            JsonValue::Obj(vec![("name".into(), JsonValue::Str(label.into()))]),
        ),
    ]));
    events.push(thread_name(REQUEST_TID, "requests"));
    for &kind in SpanKind::ALL.iter() {
        events.push(thread_name(1.0 + kind as usize as f64, kind.name()));
    }
    let mut ordered: Vec<&RequestSpans> = requests.iter().collect();
    ordered.sort_by_key(|r| r.id);
    for request in ordered {
        events.push(JsonValue::Obj(vec![
            (
                "name".into(),
                JsonValue::Str(format!("miss {:#x}", request.addr)),
            ),
            ("cat".into(), JsonValue::Str("critpath".into())),
            ("ph".into(), JsonValue::Str("X".into())),
            ("pid".into(), JsonValue::Num(TRACE_PID)),
            ("tid".into(), JsonValue::Num(REQUEST_TID)),
            ("ts".into(), JsonValue::Num(us(request.issue.picos()))),
            (
                "dur".into(),
                JsonValue::Num(us((request.ready - request.issue).picos())),
            ),
            (
                "args".into(),
                JsonValue::Obj(vec![
                    (
                        "addr".into(),
                        JsonValue::Str(format!("{:#x}", request.addr)),
                    ),
                    ("blame".into(), JsonValue::Str(request.blame.name().into())),
                ]),
            ),
        ]));
        events.push(flow_event(
            "s",
            request.id,
            REQUEST_TID,
            request.issue.picos(),
        ));
        for child in &request.children {
            let tid = 1.0 + child.kind as usize as f64;
            let name = if child.kind == SpanKind::CounterFetch {
                format!("counter-fetch L{}", child.level)
            } else {
                child.kind.name().to_string()
            };
            events.push(JsonValue::Obj(vec![
                ("name".into(), JsonValue::Str(name)),
                ("cat".into(), JsonValue::Str("critpath".into())),
                ("ph".into(), JsonValue::Str("X".into())),
                ("pid".into(), JsonValue::Num(TRACE_PID)),
                ("tid".into(), JsonValue::Num(tid)),
                ("ts".into(), JsonValue::Num(us(child.begin.picos()))),
                (
                    "dur".into(),
                    JsonValue::Num(us((child.end - child.begin).picos())),
                ),
            ]));
            events.push(flow_event("t", request.id, tid, child.begin.picos()));
        }
        events.push(flow_event(
            "f",
            request.id,
            REQUEST_TID,
            request.ready.picos(),
        ));
    }
    let doc = JsonValue::Obj(vec![
        ("displayTimeUnit".into(), JsonValue::Str("ns".into())),
        ("traceEvents".into(), JsonValue::Arr(events)),
    ]);
    let mut out = doc.to_pretty();
    out.push('\n');
    out
}

fn thread_name(tid: f64, name: &str) -> JsonValue {
    JsonValue::Obj(vec![
        ("ph".into(), JsonValue::Str("M".into())),
        ("pid".into(), JsonValue::Num(TRACE_PID)),
        ("tid".into(), JsonValue::Num(tid)),
        ("name".into(), JsonValue::Str("thread_name".into())),
        (
            "args".into(),
            JsonValue::Obj(vec![("name".into(), JsonValue::Str(name.into()))]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::EventKind;
    use crate::ring::TraceEvent;
    use crate::span::{Blame, ChildSpan};
    use clme_types::{Time, TimeDelta};

    fn sample_ring() -> TraceRing {
        let mut ring = TraceRing::new(8);
        ring.push(TraceEvent {
            at: Time::from_picos(1_500_000),
            component: Component::Engine,
            event: EventKind::ReadMiss,
            addr: 0x1234,
            latency: TimeDelta::from_ns(87),
        });
        ring.push(TraceEvent {
            at: Time::from_picos(2_000_000),
            component: Component::Core,
            event: EventKind::RobStall,
            addr: 0,
            latency: TimeDelta::from_ns(3),
        });
        ring
    }

    #[test]
    fn emits_parseable_object_form() {
        let json = chrome_trace_json(&sample_ring());
        let doc = clme_types::json::parse(&json).expect("emitted trace must parse");
        let events = match doc.get("traceEvents") {
            Some(JsonValue::Arr(items)) => items,
            other => panic!("traceEvents missing or not an array: {other:?}"),
        };
        // 4 thread_name metadata events + 2 samples.
        assert_eq!(events.len(), 6);
        let first_real = &events[4];
        assert_eq!(first_real.get("ph").and_then(|v| v.as_str()), Some("X"));
        assert_eq!(
            first_real.get("name").and_then(|v| v.as_str()),
            Some("read-miss")
        );
        assert_eq!(first_real.get("ts").and_then(|v| v.as_f64()), Some(1.5));
        assert_eq!(first_real.get("dur").and_then(|v| v.as_f64()), Some(0.087));
        assert_eq!(
            first_real
                .get("args")
                .and_then(|a| a.get("addr"))
                .and_then(|v| v.as_str()),
            Some("0x1234")
        );
    }

    #[test]
    fn output_is_deterministic() {
        assert_eq!(
            chrome_trace_json(&sample_ring()),
            chrome_trace_json(&sample_ring())
        );
    }

    #[test]
    fn every_event_and_component_name_round_trips() {
        // Exercise the full export path with every name the exporter can
        // emit: each event kind on each component. If anyone later adds a
        // name containing a quote, backslash, or control character, this
        // catches any mismatch between the writer's escaping and the
        // parser's unescaping.
        let mut ring = TraceRing::new(Component::ALL.len() * EventKind::ALL.len());
        for (i, &component) in Component::ALL.iter().enumerate() {
            for (j, &event) in EventKind::ALL.iter().enumerate() {
                ring.push(TraceEvent {
                    at: Time::from_picos(((i * EventKind::ALL.len() + j) as u64 + 1) * 1_000),
                    component,
                    event,
                    addr: 0x40 * j as u64,
                    latency: TimeDelta::from_ns(1),
                });
            }
        }
        let json = chrome_trace_json(&ring);
        let doc = clme_types::json::parse(&json).expect("trace with every name must parse");
        let events = match doc.get("traceEvents") {
            Some(JsonValue::Arr(items)) => items,
            other => panic!("traceEvents missing: {other:?}"),
        };
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some("X"))
            .filter_map(|e| e.get("name").and_then(|v| v.as_str()))
            .collect();
        assert_eq!(names.len(), Component::ALL.len() * EventKind::ALL.len());
        for &event in EventKind::ALL.iter() {
            assert!(
                names.contains(&event.name()),
                "{} lost in export",
                event.name()
            );
        }
    }

    fn sample_request(id: u64, addr: u64) -> RequestSpans {
        let ns = |v: u64| Time::from_picos(v * 1_000);
        RequestSpans {
            id,
            addr,
            issue: ns(10),
            data_arrival: ns(40),
            ready: ns(66),
            blame: Blame::Counter,
            children: vec![
                ChildSpan {
                    kind: SpanKind::CacheLookup,
                    level: 0,
                    begin: ns(2),
                    end: ns(10),
                },
                ChildSpan {
                    kind: SpanKind::DataDram,
                    level: 0,
                    begin: ns(10),
                    end: ns(40),
                },
                ChildSpan {
                    kind: SpanKind::CounterFetch,
                    level: 2,
                    begin: ns(10),
                    end: ns(60),
                },
                ChildSpan {
                    kind: SpanKind::PadMemo,
                    level: 0,
                    begin: ns(60),
                    end: ns(65),
                },
            ],
        }
    }

    #[test]
    fn span_flow_export_connects_requests_with_flow_arrows() {
        let requests = vec![sample_request(3, 0x40), sample_request(1, 0x80)];
        let json = span_flow_json("table1/counter-mode/bfs", &requests);
        let doc = clme_types::json::parse(&json).expect("flow trace must parse");
        let events = match doc.get("traceEvents") {
            Some(JsonValue::Arr(items)) => items,
            other => panic!("traceEvents missing: {other:?}"),
        };
        let phase = |e: &JsonValue| e.get("ph").and_then(|v| v.as_str()).unwrap().to_string();
        let count = |ph: &str| events.iter().filter(|e| phase(e) == ph).count();
        // Per request: one "s", one "t" per child, one "f".
        assert_eq!(count("s"), 2);
        assert_eq!(count("t"), 8);
        assert_eq!(count("f"), 2);
        // Requests are ordered by id regardless of reservoir slot order.
        let first_x = events.iter().find(|e| phase(*e) == "X").unwrap();
        assert_eq!(
            first_x.get("name").and_then(|v| v.as_str()),
            Some("miss 0x80")
        );
        // Flow events carry the request id and the spec's end binding.
        let finish = events.iter().find(|e| phase(*e) == "f").unwrap();
        assert_eq!(finish.get("bp").and_then(|v| v.as_str()), Some("e"));
        assert_eq!(finish.get("id").and_then(|v| v.as_f64()), Some(1.0));
        // Tree level reaches the child slice name.
        assert!(json.contains("counter-fetch L2"));
        // Blame reaches the request slice args.
        assert!(json.contains("counter-bound"));
        // Deterministic output.
        assert_eq!(json, span_flow_json("table1/counter-mode/bfs", &requests));
    }

    #[test]
    fn span_flow_export_escapes_hostile_addresses_and_labels() {
        // Addresses are adversarial u64s (formatted, never raw), and the
        // cell label is caller-controlled text: both must round-trip
        // through escaping.
        let mut request = sample_request(0, u64::MAX);
        request.children.clear();
        let hostile_label = "cell \"x\"\\y\n\u{2}z";
        let json = span_flow_json(hostile_label, &[request]);
        assert!(
            json.bytes().all(|b| b >= 0x20 || b == b'\n'),
            "raw control bytes leaked into the flow trace"
        );
        let doc = clme_types::json::parse(&json).expect("hostile flow trace must parse");
        let events = match doc.get("traceEvents") {
            Some(JsonValue::Arr(items)) => items,
            other => panic!("traceEvents missing: {other:?}"),
        };
        let process_name = events
            .first()
            .and_then(|e| e.get("args"))
            .and_then(|a| a.get("name"))
            .and_then(|v| v.as_str());
        assert_eq!(process_name, Some(hostile_label));
        let miss = events
            .iter()
            .find(|e| e.get("ph").and_then(|v| v.as_str()) == Some("X"))
            .expect("request slice present");
        assert_eq!(
            miss.get("name").and_then(|v| v.as_str()),
            Some("miss 0xffffffffffffffff")
        );
    }

    #[test]
    fn hostile_names_are_escaped_not_leaked() {
        // The exporter builds its documents from JsonValue, so a hostile
        // track name (quotes, backslashes, control characters) must come
        // out escaped, exactly as the thread_name metadata events are
        // built in chrome_trace_json.
        let hostile = "dram \"bank\"\\row\n\u{1}track";
        let meta = JsonValue::Obj(vec![
            ("ph".into(), JsonValue::Str("M".into())),
            ("pid".into(), JsonValue::Num(TRACE_PID)),
            ("tid".into(), JsonValue::Num(0.0)),
            ("name".into(), JsonValue::Str("thread_name".into())),
            (
                "args".into(),
                JsonValue::Obj(vec![("name".into(), JsonValue::Str(hostile.into()))]),
            ),
        ]);
        let doc = JsonValue::Obj(vec![("traceEvents".into(), JsonValue::Arr(vec![meta]))]);
        let text = doc.to_pretty();
        assert!(
            text.bytes().all(|b| b >= 0x20 || b == b'\n'),
            "raw control bytes leaked into the trace: {text:?}"
        );
        assert!(text.contains(r#"\"bank\""#), "quotes must be escaped");
        assert!(text.contains(r#"\\row"#), "backslashes must be escaped");
        assert!(
            text.contains(r#"\u0001"#),
            "control chars must be \\u-escaped"
        );
        let parsed = clme_types::json::parse(&text).expect("hostile trace must still parse");
        let round_tripped = parsed
            .get("traceEvents")
            .and_then(|e| match e {
                JsonValue::Arr(items) => items.first(),
                _ => None,
            })
            .and_then(|e| e.get("args"))
            .and_then(|a| a.get("name"))
            .and_then(|v| v.as_str());
        assert_eq!(round_tripped, Some(hostile));
    }
}
