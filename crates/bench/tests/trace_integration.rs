//! End-to-end tracing: a 4-thread modular check of a real benchmark
//! instance must produce a Chrome trace with one complete, labelled track
//! per worker thread, a verdict-carrying node span per network node — a
//! proof or a memo hit — and a document that survives the JSON codec round
//! trip.

use std::collections::HashSet;
use std::time::Duration;

use timepiece_bench::{fattree_instance, BenchKind};
use timepiece_core::check::{CheckOptions, ModularChecker};
use timepiece_core::incremental::NodeKey;
use timepiece_core::{Fingerprints, MemoStats};
use timepiece_sched::Json;
use timepiece_trace::{chrome_trace, Phase, SpanKind, SpanRecord};

#[test]
fn four_worker_check_yields_one_complete_track_per_worker() {
    timepiece_trace::enable();
    let _ = timepiece_trace::take();
    let inst = fattree_instance(BenchKind::parse("SpReach").expect("registered"), 4);
    let checker = ModularChecker::new(CheckOptions {
        threads: Some(4),
        timeout: Some(Duration::from_secs(60)),
        ..CheckOptions::default()
    });
    let report = checker.check(&inst.network, &inst.interface, &inst.property).expect("encodes");
    assert!(report.is_verified(), "SpReach k=4 verifies");
    timepiece_trace::disable();
    let trace = timepiece_trace::take();

    // one verdict-carrying node span per network node, each tagged with how
    // the node got its verdict: a proof nests encode and solve work, a memo
    // hit nests neither, and there is one proof per distinct key
    let nodes: Vec<_> = trace
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Complete && s.phase == Phase::Node)
        .collect();
    assert_eq!(nodes.len(), inst.network.topology().node_count());
    assert!(nodes.iter().all(|s| s.arg("verdict") == Some("verified")), "all verified");
    assert!(nodes.iter().all(|s| !s.arg("class").unwrap_or("").is_empty()), "classes tagged");
    let nests = |node: &SpanRecord, phase: Phase| {
        trace
            .spans
            .iter()
            .any(|s| s.kind == SpanKind::Complete && s.phase == phase && s.parent == node.id)
    };
    let (proofs, hits): (Vec<&SpanRecord>, Vec<&SpanRecord>) =
        nodes.iter().partition(|s| s.arg("memo") == Some("proof"));
    assert!(hits.iter().all(|s| s.arg("memo") == Some("hit")), "memo is proof or hit");
    for phase in [Phase::Encode, Phase::Solve] {
        assert!(proofs.iter().all(|s| nests(s, phase)), "every proof span nests {phase} work");
        assert!(hits.iter().all(|s| !nests(s, phase)), "no hit span nests {phase} work");
    }
    assert_eq!(proofs.len() + hits.len(), 20, "SpReach k=4 has 20 nodes");
    let keys = Fingerprints::compute(&inst.network, &inst.interface, &inst.property, 0);
    let distinct: HashSet<&NodeKey> =
        inst.network.topology().nodes().filter_map(|v| keys.get(v)).collect();
    assert_eq!(proofs.len(), distinct.len(), "one proof per distinct key");
    assert_eq!(report.memo(), MemoStats { proofs: proofs.len(), hits: hits.len() });

    // exactly the four workers registered labelled tracks, and each track
    // carries at least one complete span
    let workers: Vec<_> = trace.threads.iter().filter(|t| t.label.starts_with("worker")).collect();
    assert_eq!(workers.len(), 4, "threads: {:?}", trace.threads);
    for worker in &workers {
        assert!(
            trace.spans.iter().any(|s| s.tid == worker.tid && s.kind == SpanKind::Complete),
            "worker track {} carries no complete span",
            worker.label
        );
    }

    // the Chrome export survives a print/parse round trip and names every
    // worker track in its thread_name metadata
    let doc = chrome_trace(&trace);
    let parsed = Json::parse(&doc.to_string()).expect("chrome trace is valid JSON");
    let events = parsed.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");
    let labelled: Vec<&str> = events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("thread_name"))
        .filter_map(|e| e.get("args").and_then(|a| a.get("name")).and_then(Json::as_str))
        .collect();
    for worker in workers {
        assert!(labelled.contains(&worker.label.as_str()), "no track named {}", worker.label);
    }
    // complete events carry microsecond timestamps and the span linkage
    let complete = events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"));
    for event in complete {
        assert!(event.get("ts").and_then(Json::as_f64).is_some());
        assert!(event.get("dur").and_then(Json::as_f64).is_some());
        assert!(event.get("args").and_then(|a| a.get("span_id")).is_some());
    }
}
