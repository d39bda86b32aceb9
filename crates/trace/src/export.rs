//! Trace exporters, both through the crate's own [`Json`] codec.
//!
//! [`chrome_trace`] writes the Chrome trace-event format, loadable in
//! Perfetto or `chrome://tracing`: one process (pid 0), one track per
//! worker thread (`thread_name` metadata events), complete spans as
//! `ph: "X"` and instants as `ph: "i"`. [`metrics_json`] renders the
//! metrics registry snapshot; `repro` attaches it to the Chrome document
//! under `otherData`.

use crate::json::Json;
use crate::metrics::{self, MetricValue};
use crate::span::{SpanKind, SpanRecord, Trace};

/// The one process of every exported trace.
const PID: usize = 0;

/// Renders a trace as a Chrome trace-event document
/// (`{"traceEvents": [...], "displayTimeUnit": "ms"}`).
pub fn chrome_trace(trace: &Trace) -> Json {
    let mut events = Vec::new();
    let mut name_meta = |tid: Option<u64>, kind: &str, name: &str| {
        let mut pairs = vec![
            ("name".to_owned(), Json::str(kind)),
            ("ph".to_owned(), Json::str("M")),
            ("pid".to_owned(), Json::from(PID)),
        ];
        if let Some(tid) = tid {
            pairs.push(("tid".to_owned(), Json::from(tid as usize)));
        }
        pairs.push(("args".to_owned(), Json::obj([("name", Json::str(name))])));
        events.push(Json::Obj(pairs));
    };
    name_meta(None, "process_name", "timepiece");
    for thread in &trace.threads {
        name_meta(Some(thread.tid), "thread_name", &thread.label);
    }
    for span in &trace.spans {
        events.push(span_event(span));
    }
    Json::obj([("traceEvents", Json::Arr(events)), ("displayTimeUnit", Json::str("ms"))])
}

fn span_event(span: &SpanRecord) -> Json {
    // Chrome timestamps are microseconds; fractional values keep the
    // nanosecond resolution
    let ts = span.start_ns as f64 / 1_000.0;
    let mut pairs = vec![
        ("name".to_owned(), Json::str(span.name.as_str())),
        ("cat".to_owned(), Json::str(span.phase.name())),
    ];
    match span.kind {
        SpanKind::Complete => {
            pairs.push(("ph".to_owned(), Json::str("X")));
            pairs.push(("ts".to_owned(), Json::Num(ts)));
            pairs.push(("dur".to_owned(), Json::Num(span.dur_ns as f64 / 1_000.0)));
        }
        SpanKind::Instant => {
            pairs.push(("ph".to_owned(), Json::str("i")));
            pairs.push(("s".to_owned(), Json::str("t")));
            pairs.push(("ts".to_owned(), Json::Num(ts)));
        }
    }
    pairs.push(("pid".to_owned(), Json::from(PID)));
    pairs.push(("tid".to_owned(), Json::from(span.tid as usize)));
    let mut args: Vec<(String, Json)> =
        span.args.iter().map(|(k, v)| (k.clone(), Json::str(v.as_str()))).collect();
    args.push(("span_id".to_owned(), Json::from(span.id as usize)));
    if span.parent != 0 {
        args.push(("parent_id".to_owned(), Json::from(span.parent as usize)));
    }
    pairs.push(("args".to_owned(), Json::Obj(args)));
    Json::Obj(pairs)
}

/// Renders the metrics registry snapshot as a flat JSON object: counters as
/// numbers, histograms as `{count, sum, p50, p99}` summaries.
pub fn metrics_json() -> Json {
    Json::Obj(
        metrics::snapshot()
            .into_iter()
            .map(|(name, value)| {
                let rendered = match value {
                    MetricValue::Counter(n) => Json::from(n as usize),
                    MetricValue::Histogram { count, sum, p50, p99 } => Json::obj([
                        ("count", Json::from(count as usize)),
                        ("sum", Json::from(sum as usize)),
                        ("p50", Json::from(p50 as usize)),
                        ("p99", Json::from(p99 as usize)),
                    ]),
                };
                (name, rendered)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Phase, ThreadInfo};

    fn sample_trace() -> Trace {
        Trace {
            spans: vec![
                SpanRecord {
                    id: 1,
                    parent: 0,
                    kind: SpanKind::Complete,
                    phase: Phase::Node,
                    name: "node \"edge-0\"".to_owned(),
                    start_ns: 1_000,
                    dur_ns: 9_000,
                    tid: 1,
                    args: vec![("class".to_owned(), "edge".to_owned())],
                },
                SpanRecord {
                    id: 2,
                    parent: 1,
                    kind: SpanKind::Instant,
                    phase: Phase::Other,
                    name: "cancel".to_owned(),
                    start_ns: 2_500,
                    dur_ns: 0,
                    tid: 7,
                    args: vec![],
                },
            ],
            threads: vec![ThreadInfo { tid: 1, label: "worker0".to_owned() }],
        }
    }

    #[test]
    fn chrome_document_has_events_and_metadata() {
        let doc = chrome_trace(&sample_trace());
        let text = doc.to_string();
        let parsed = Json::parse(&text).unwrap();
        let events = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
        // 1 process_name + 1 thread_name + 2 spans
        assert_eq!(events.len(), 4);
        let phs: Vec<&str> =
            events.iter().filter_map(|e| e.get("ph").and_then(Json::as_str)).collect();
        assert_eq!(phs.iter().filter(|p| **p == "M").count(), 2);
        assert!(phs.contains(&"X") && phs.contains(&"i"));
        let x = events.iter().find(|e| e.get("ph").and_then(Json::as_str) == Some("X")).unwrap();
        assert_eq!(x.get("ts").and_then(Json::as_f64), Some(1.0));
        assert_eq!(x.get("dur").and_then(Json::as_f64), Some(9.0));
        assert_eq!(x.get("cat").and_then(Json::as_str), Some("node"));
        assert_eq!(x.get("args").and_then(|a| a.get("class")).and_then(Json::as_str), Some("edge"));
        let i = events.iter().find(|e| e.get("ph").and_then(Json::as_str) == Some("i")).unwrap();
        assert_eq!(i.get("s").and_then(Json::as_str), Some("t"));
        assert_eq!(i.get("tid").and_then(Json::as_usize), Some(7));
        // one process: every event, metadata included, is pid 0
        assert!(events.iter().all(|e| e.get("pid").and_then(Json::as_usize) == Some(0)));
    }

    #[test]
    fn metrics_snapshot_renders_flat() {
        metrics::counter("test.export.hits").add(3);
        let doc = metrics_json();
        assert!(doc.get("test.export.hits").and_then(Json::as_usize).is_some());
        let text = doc.to_string();
        assert!(Json::parse(&text).is_ok());
    }
}
