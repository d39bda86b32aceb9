//! A daemon's records are proofs: a state it has proved before — the
//! instance it holds, or one an edit returns to — is answered from them,
//! not proved again, and a node whose last check settled nothing is never
//! answered from them.

use std::collections::HashSet;
use std::time::Duration;

use timepiece_core::check::CheckOptions;
use timepiece_core::{Fingerprints, Instance, Temporal};
use timepiece_daemon::fixture::hop_path;
use timepiece_daemon::{
    DaemonState, Delta, Load, LoadSource, PolicySpec, Request, PROTOCOL_VERSION,
};
use timepiece_expr::{Expr, Type};
use timepiece_nets::reach::ReachBench;
use timepiece_trace::Json;

fn options() -> CheckOptions {
    CheckOptions { threads: Some(2), ..Default::default() }
}

fn count(reply: &Json, key: &str) -> usize {
    reply.get(key).and_then(Json::as_usize).unwrap_or_else(|| panic!("{key} missing: {reply}"))
}

fn verified(reply: &Json) -> bool {
    reply.get("verified").and_then(Json::as_bool).unwrap_or_else(|| panic!("{reply}"))
}

/// The node names of a reply's `durations` (`[name, secs]` pairs) or
/// `failed` (names).
fn names(reply: &Json, key: &str) -> Vec<String> {
    let items = reply.get(key).and_then(Json::as_arr).unwrap_or_else(|| panic!("{reply}"));
    items
        .iter()
        .map(|n| n.as_arr().map_or(n, |pair| &pair[0]).as_str().unwrap().to_owned())
        .collect()
}

/// SpReach k=4 with its destination in pod 0.
fn spreach4() -> Instance {
    ReachBench::single_dest(4, 0).build()
}

fn loader(source: &LoadSource) -> Result<(String, Instance), String> {
    match source {
        LoadSource::Bench { name, k: 4 } if name == "SpReach" => {
            Ok(("SpReach k=4".to_owned(), spreach4()))
        }
        other => Err(format!("this test loads SpReach k=4 only, not {other:?}")),
    }
}

#[test]
fn a_check_of_an_unedited_instance_proves_nothing() {
    let mut state = DaemonState::new("SpReach k=4", spreach4(), options()).unwrap();
    let reply = state.handle(&Request::Check).reply;
    // every node's record settled its current key: the records answer the
    // check, and its job has no node to build, key or prove
    assert_eq!(count(&reply, "checked"), 0, "{reply}");
    assert_eq!(count(&reply, "memo_proofs"), 0, "{reply}");
    assert_eq!(count(&reply, "memo_hits"), 0, "{reply}");
    assert_eq!(count(&reply, "cached"), 20, "{reply}");
    assert!(verified(&reply), "{reply}");
}

#[test]
fn a_link_brought_back_up_is_answered_by_the_records() {
    // pod 1 holds no destination: its nodes share their keys with pods 2
    // and 3, so the keys a link inside it had before it went down are
    // still held by other nodes' records when it comes back up
    let mut state = DaemonState::new("SpReach k=4", spreach4(), options()).unwrap();
    let (u, v) = ("edge-1-0".to_owned(), "agg-1-0".to_owned());
    let down = state.handle(&Request::Delta(Delta::LinkDown { u: u.clone(), v: v.clone() })).reply;
    assert_eq!(count(&down, "cone_size"), 2, "{down}");
    let up = state.handle(&Request::Delta(Delta::LinkUp { u, v })).reply;
    assert_eq!(count(&up, "cone_size"), 2, "{up}");
    assert_eq!(count(&up, "memo_proofs"), 0, "{up}");
    assert!(verified(&up), "{up}");
}

#[test]
fn a_load_starts_without_records() {
    let instance = spreach4();
    let Instance { network, interface, property } = &instance;
    let keys = Fingerprints::compute(network, interface, property, 0);
    let distinct: HashSet<_> = network.topology().nodes().map(|v| keys.get(v).unwrap()).collect();
    let mut state = DaemonState::empty(options()).with_loader(loader);
    let load = Load {
        version: PROTOCOL_VERSION,
        source: LoadSource::Bench { name: "SpReach".into(), k: 4 },
        sabotage: Vec::new(),
        threads: None,
        timeout_millis: None,
    };
    // the same instance twice: the second load forgets what the first
    // instance's checks proved, and its check proves each key again
    for _ in 0..2 {
        let loaded = state.handle(&Request::Load(load.clone())).reply;
        assert_eq!(loaded.get("ok").and_then(Json::as_bool), Some(true), "{loaded}");
        let reply = state.handle(&Request::Check).reply;
        assert_eq!(count(&reply, "memo_proofs"), distinct.len(), "{reply}");
        assert_eq!(count(&reply, "memo_hits"), 20 - distinct.len(), "{reply}");
    }
}

/// "Nine pigeons do not fit in eight holes": valid, and far too hard to
/// prove within a nanosecond.
fn pigeonhole() -> Expr {
    let sits = |p: usize, h: usize| Expr::var(format!("sits-{p}-{h}"), Type::Bool);
    let placed = (0..9).map(|p| Expr::or_all((0..8).map(|h| sits(p, h))));
    let alone = (0..8).flat_map(|h| {
        (0..9).flat_map(move |p| (p + 1..9).map(move |q| sits(p, h).and(sits(q, h)).not()))
    });
    Expr::and_all(placed.chain(alone)).not()
}

#[test]
fn a_node_left_unknown_is_never_served_and_rejoins_the_next_delta() {
    let mut instance = hop_path(5, None);
    let v4 = instance.network.topology().node_by_name("v4").unwrap();
    instance.property.set(v4, Temporal::globally(|_| pigeonhole()));
    let options = CheckOptions { timeout: Some(Duration::from_nanos(1)), ..options() };
    let mut state = DaemonState::new("hop n=5", instance, options).unwrap();
    let check = state.handle(&Request::Check).reply;
    let unknown: Vec<String> = check
        .get("failures")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter(|f| f.get("kind").and_then(Json::as_str) == Some("unknown"))
        .map(|f| f.get("node").and_then(Json::as_str).unwrap().to_owned())
        .collect();
    assert!(unknown.iter().any(|name| name == "v4"), "the budget must run out: {check}");
    assert!(!verified(&check), "{check}");
    // a full check answers the settled nodes from their records and proves
    // the unknown again
    let again = state.handle(&Request::Check).reply;
    assert_eq!(names(&again, "durations"), ["v4"], "{again}");
    assert!(!verified(&again), "{again}");
    // an edit whose footprint is v1 alone: v4 is checked again, not served
    // the unknown its last check left
    let edit = Delta::EdgePolicy { u: "v0".into(), v: "v1".into(), policy: PolicySpec::Default };
    let reply = state.handle(&Request::Delta(edit)).reply;
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true), "{reply}");
    let checked = names(&reply, "durations");
    for name in &unknown {
        assert!(checked.contains(name), "{name} was not checked again: {reply}");
    }
    assert!(!verified(&reply), "{reply}");
    assert!(names(&reply, "failed").contains(&"v4".to_owned()), "{reply}");
}

#[test]
fn a_node_a_drained_delta_abandons_stays_in_its_cone() {
    let mut state = DaemonState::new("SpReach k=4", spreach4(), options()).unwrap();
    // a raised drain pre-cancels the job: it answers no node of the
    // link's footprint, and neither is counted as cached
    state.drain().raise();
    let down = Delta::LinkDown { u: "edge-1-0".into(), v: "agg-1-0".into() };
    let reply = state.handle(&Request::Delta(down)).reply;
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true), "{reply}");
    assert_eq!(count(&reply, "cone_size"), 2, "{reply}");
    assert_eq!(count(&reply, "cached"), 18, "{reply}");
    assert!(!verified(&reply), "{reply}");
}
