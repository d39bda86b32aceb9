//! The daemon's incremental verdicts must equal a from-scratch check.
//!
//! Property: after *any* sequence of deltas — link down/up, edge-policy
//! edits (including sabotage drops), witness-time changes, failure-budget
//! changes, some of them deliberately invalid — with node-list `check`s
//! interleaved among them, the daemon's per-node verdict map
//! equals what a fresh [`ModularChecker`] says about the daemon's current
//! instance. That is the soundness claim of dirty-cone re-checking: nodes
//! outside the cone may keep cached verdicts *because* their conditions are
//! structurally unchanged. The same claim read the other way round: node
//! lists that split a `load`ed instance, each checked on its own, union to
//! the from-scratch answer. And a daemon installs an instance one
//! way: every stream runs on a [`DaemonState::new`] daemon and on an empty
//! one that was sent `load` and a unit `check`, and the two must answer
//! every request alike.

use proptest::prelude::*;
use timepiece_core::check::{CheckOptions, ModularChecker};
use timepiece_core::{Fingerprints, Instance};
use timepiece_daemon::fixture::hop_path;
use timepiece_daemon::{
    DaemonState, Delta, Load, LoadSource, NodeCheck, PolicySpec, Request, PROTOCOL_VERSION,
};
use timepiece_nets::reach::ReachBench;
use timepiece_topology::NodeId;
use timepiece_trace::Json;

fn options() -> CheckOptions {
    CheckOptions { threads: Some(2), ..Default::default() }
}

/// What the opcodes of one instance decode against: its links (one
/// direction each) and its node names.
struct Targets {
    links: Vec<(String, String)>,
    nodes: Vec<String>,
    /// A route field `increment` policies may name.
    field: &'static str,
}

impl Targets {
    fn of(instance: &Instance, field: &'static str) -> Targets {
        let g = instance.network.topology();
        let name = |v: NodeId| g.name(v).to_owned();
        Targets {
            links: g.edges().filter(|(u, v)| u < v).map(|(u, v)| (name(u), name(v))).collect(),
            nodes: g.nodes().map(name).collect(),
            field,
        }
    }

    /// Decodes one `(kind, a, b)` opcode into a request: a delta of one of
    /// the five kinds, or a node-list check of up to three nodes. Some
    /// decodes are deliberately invalid (a link that is not down, a node
    /// without a witness time, a failure budget on a network without a
    /// failure model, a non-edge) — the daemon must reject them *without*
    /// changing state.
    fn decode(&self, kind: u8, a: u64, b: u64) -> Request {
        let (u, v) = self.links[a as usize % self.links.len()].clone();
        let node = |i: u64| self.nodes[i as usize % self.nodes.len()].clone();
        Request::Delta(match kind {
            0 => Delta::LinkDown { u, v },
            1 => Delta::LinkUp { u, v },
            2 => {
                // both directions of the link, all three policy kinds
                let (u, v) = if b.is_multiple_of(2) { (u, v) } else { (v, u) };
                let policy = match b % 3 {
                    0 => PolicySpec::Drop,
                    1 => PolicySpec::Default,
                    _ => PolicySpec::Increment(self.field.into()),
                };
                Delta::EdgePolicy { u, v, policy }
            }
            3 => Delta::WitnessTime { node: node(a), tau: (b % 8) as i64 },
            4 => Delta::FailureBudget { budget: a % 3 },
            // a policy edit between two nodes that need not be adjacent
            5 => Delta::EdgePolicy { u: node(a), v: node(b), policy: PolicySpec::Drop },
            _ => {
                // distinct names: naming a node twice is refused
                let mut nodes: Vec<String> = Vec::new();
                for name in [node(a), node(b), node(a + b)] {
                    if !nodes.contains(&name) {
                        nodes.push(name);
                    }
                }
                return Request::CheckNodes(NodeCheck { nodes, generation: None });
            }
        })
    }
}

/// The reference: a fresh checker run on the daemon's current instance.
fn from_scratch_failed(state: &DaemonState) -> Vec<NodeId> {
    let Instance { network, interface, property } =
        state.loaded().expect("an instance is loaded").instance();
    let report = ModularChecker::new(options())
        .check(network, interface, property)
        .expect("reference check");
    let mut failed: Vec<NodeId> = report.failures().iter().map(|f| f.node).collect();
    failed.sort_unstable();
    failed.dedup();
    failed
}

/// Drives one stream through two daemons that installed the instance
/// `source` names the two ways — [`DaemonState::new`], and an empty daemon
/// sent `load` and a unit `check` — checking after *every* request
/// (accepted or rejected) that both answer with the same verdict map, cone
/// and failing set, and that on each
///
/// * the records' verdicts equal a from-scratch check of the daemon's
///   current instance, and
/// * every node has a record, and its key equals a from-scratch
///   [`Fingerprints::compute`] — from the first request on, since every
///   check keys what it checks; after a delta, that means the footprint
///   covered the exact cone, so no node kept a stale key (which a later
///   delta would then compare against, missing a dirty node), and
/// * no worker holds more than one solver session: a worker keeps its
///   session from request to request and replaces it only when a condition
///   fails to encode on it, which no delta — policy or budget — brings
///   about, so an edited network lands in the session that already holds
///   its compiled terms.
///
/// A node-list check must additionally answer for exactly the nodes it
/// named.
fn check_sequence(source: LoadSource, field: &'static str, ops: Vec<(u8, u64, u64)>) {
    let (label, instance) = loader(&source).unwrap();
    let targets = Targets::of(&instance, field);
    let n = targets.nodes.len();
    let mut loaded = DaemonState::empty(options()).with_loader(loader);
    for request in [Request::Load(load(source, Vec::new())), Request::Check] {
        let reply = loaded.handle(&request).reply;
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true), "{reply}");
    }
    let mut states = [DaemonState::new(label, instance, options()).unwrap(), loaded];
    for (kind, a, b) in ops {
        let request = targets.decode(kind, a, b);
        let replies = states.each_mut().map(|state| state.handle(&request).reply);
        for key in ["ok", "verdicts", "cone", "failed"] {
            assert_eq!(replies[0].get(key), replies[1].get(key), "{key} after {request:?}");
        }
        let reply = &replies[0];
        let ok = reply.get("ok").and_then(Json::as_bool);
        assert!(ok.is_some(), "reply must carry ok: {reply}");
        if let Request::CheckNodes(check) = &request {
            let cone: Vec<&str> = reply
                .get("cone")
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .flat_map(Json::as_str)
                .collect();
            assert_eq!(cone, check.nodes, "a node-list check re-proves what it names: {reply}");
            assert_eq!(reply.get("checked").and_then(Json::as_usize), Some(cone.len()), "{reply}");
        }
        for state in &mut states {
            let inst = state.loaded().expect("the daemon started loaded");
            assert_eq!(
                inst.records().len(),
                n,
                "no cancellation ran, so every node must keep a record"
            );
            let Instance { network, interface, property } = inst.instance();
            let recomputed = Fingerprints::compute(network, interface, property, 0);
            let stale: Vec<NodeId> = inst
                .records()
                .iter()
                .filter(|(v, record)| recomputed.get(**v) != Some(record.key()))
                .map(|(v, _)| *v)
                .collect();
            assert_eq!(
                stale,
                Vec::<NodeId>::new(),
                "after {:?} (ok={:?}) the footprint missed nodes whose conditions changed",
                request,
                ok
            );
            let cached_failed = inst.failed_nodes();
            let reference_failed = from_scratch_failed(state);
            assert_eq!(
                cached_failed, reference_failed,
                "after {:?} (ok={:?}) the cache diverged from a fresh check",
                request, ok
            );
            let status = state.handle(&Request::Status).reply;
            let count = |key: &str| status.get(key).and_then(Json::as_usize).unwrap();
            assert!(
                count("sessions") <= count("workers"),
                "after {request:?} the workers hold a second compiled copy: {status}"
            );
        }
    }
}

/// What a `repro` process hands its daemon, cut down to the instances this
/// test loads: SpReach at fattree size `k`, and a hop path of `k` nodes with
/// a failure budget of one.
fn loader(source: &LoadSource) -> Result<(String, Instance), String> {
    match source {
        LoadSource::Bench { name, k } if name == "SpReach" => {
            Ok((format!("SpReach k={k}"), ReachBench::single_dest(*k, 0).build()))
        }
        LoadSource::Bench { name, k } if name == "hop" => {
            Ok((format!("hop n={k}"), hop_path(*k, Some(1))))
        }
        other => Err(format!("this test loads SpReach and hop only, not {other:?}")),
    }
}

/// The `load` request for `source`, with `sabotage`.
fn load(source: LoadSource, sabotage: Vec<String>) -> Load {
    Load { version: PROTOCOL_VERSION, source, sabotage, threads: None, timeout_millis: None }
}

fn spreach(k: usize) -> LoadSource {
    LoadSource::Bench { name: "SpReach".into(), k }
}

#[test]
fn a_node_list_check_answers_for_its_nodes_only() {
    let mut state = DaemonState::empty(options()).with_loader(loader);
    let load = load(spreach(4), vec!["agg-1-0".to_owned()]);
    assert_eq!(state.handle(&Request::Load(load)).reply.get("ok"), Some(&Json::Bool(true)));
    let names = |reply: &Json, key: &str| -> Vec<String> {
        match reply.get(key) {
            Some(Json::Obj(pairs)) => pairs.iter().map(|(name, _)| name.clone()).collect(),
            Some(Json::Arr(items)) => {
                items.iter().map(|n| n.as_str().unwrap().to_owned()).collect()
            }
            _ => panic!("{key} missing: {reply}"),
        }
    };
    // a unit check fills the cache with every node's verdict, the
    // sabotaged node's failure among them
    let unit = state.handle(&Request::Check).reply;
    assert_eq!(names(&unit, "verdicts").len(), 20, "{unit}");
    assert!(names(&unit, "failed").contains(&"agg-1-0".to_owned()), "{unit}");
    // a node-list check answers for the nodes it names, not the cache
    let nodes = vec!["core-0".to_owned(), "edge-0-0".to_owned()];
    let check = NodeCheck { nodes: nodes.clone(), generation: None };
    let reply = state.handle(&Request::CheckNodes(check)).reply;
    assert_eq!(names(&reply, "verdicts"), nodes, "{reply}");
    assert_eq!(names(&reply, "failed"), Vec::<String>::new(), "{reply}");
    assert_eq!(reply.get("verified"), Some(&Json::Bool(true)), "{reply}");
    assert_eq!(reply.get("cached").and_then(Json::as_usize), Some(0), "{reply}");
    assert_eq!(state.loaded().unwrap().records().len(), 20, "the cache itself is whole");
}

#[test]
fn node_lists_that_split_a_loaded_instance_union_to_the_from_scratch_failures() {
    let mut state = DaemonState::empty(options()).with_loader(loader);
    let sabotage = vec!["agg-1-0".to_owned(), "edge-2-1".to_owned()];
    let reply = state.handle(&Request::Load(load(spreach(4), sabotage))).reply;
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true), "{reply}");
    let generation = reply.get("generation").and_then(Json::as_usize).map(|g| g as u64);
    assert_eq!(generation, Some(1), "{reply}");
    // a load installs; it neither checks nor keys
    let inst = state.loaded().expect("loaded");
    assert!(inst.records().is_empty(), "{inst:?}");

    let reference = from_scratch_failed(&state);
    let g = state.loaded().unwrap().instance().network.topology().clone();
    assert!(!reference.is_empty(), "the sabotage must be detectable");
    let all: Vec<String> = g.nodes().map(|v| g.name(v).to_owned()).collect();
    for lists in [1, 3, 7] {
        let mut failing: Vec<NodeId> = Vec::new();
        for chunk in all.chunks(all.len().div_ceil(lists)) {
            let nodes = chunk.to_vec();
            let check = NodeCheck { nodes: nodes.clone(), generation };
            let reply = state.handle(&Request::CheckNodes(check)).reply;
            assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true), "{reply}");
            let names = |key: &str| -> Vec<String> {
                let items = reply.get(key).and_then(Json::as_arr).unwrap().iter();
                // a cone entry is a name, a duration entry a [name, secs] pair
                items
                    .map(|n| n.as_arr().map_or(n, |pair| &pair[0]).as_str().unwrap().to_owned())
                    .collect()
            };
            // exactly its list: nothing skipped, nothing extra
            assert_eq!(names("cone"), nodes, "{reply}");
            let (mut checked, mut asked) = (names("durations"), nodes.clone());
            checked.sort_unstable();
            asked.sort_unstable();
            assert_eq!(checked, asked, "{reply}");
            for failure in reply.get("failures").and_then(Json::as_arr).unwrap() {
                let name = failure.get("node").and_then(Json::as_str).unwrap();
                assert!(nodes.iter().any(|n| n == name), "{name} is not in {nodes:?}");
                failing.push(g.node_by_name(name).unwrap());
            }
        }
        failing.sort_unstable();
        failing.dedup();
        assert_eq!(failing, reference, "{lists} lists");
        assert_eq!(state.loaded().unwrap().failed_nodes(), reference);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, rng_seed: 0x5ced_0008 })]

    #[test]
    fn incremental_verdicts_match_from_scratch(
        ops in proptest::collection::vec((0u8..7, 0u64..32, 0u64..32), 1..6),
    ) {
        // a failure budget makes every delta kind meaningful (and makes the
        // exact interface fail at some nodes, so both verdicts occur)
        check_sequence(LoadSource::Bench { name: "hop".into(), k: 5 }, "len", ops);
    }

    #[test]
    fn incremental_verdicts_match_from_scratch_on_a_fattree(
        ops in proptest::collection::vec((0u8..7, 0u64..64, 0u64..64), 1..8),
    ) {
        // SpReach k=4: 20 nodes of degree 2-4, no failure model (budget
        // deltas are rejected), boolean routes (increments are rejected)
        check_sequence(spreach(4), "len", ops);
    }
}
