//! The daemon's incremental verdicts must equal a from-scratch check.
//!
//! Property: after *any* sequence of deltas — link down/up, edge-policy
//! edits (including sabotage drops), witness-time changes, failure-budget
//! changes, some of them deliberately invalid — with node-list `check`s (a
//! fleet's shards) interleaved among them, the daemon's per-node verdict map
//! equals what a fresh [`ModularChecker`] says about the daemon's current
//! instance. That is the soundness claim of dirty-cone re-checking: nodes
//! outside the cone may keep cached verdicts *because* their conditions are
//! structurally unchanged. The same claim read the other way round is the
//! fleet's: the shards of a `load`ed instance, each checked on its own,
//! union to the from-scratch answer.

use proptest::prelude::*;
use timepiece_core::check::{CheckOptions, ModularChecker};
use timepiece_core::Fingerprints;
use timepiece_daemon::fixture::hop_path;
use timepiece_daemon::{
    DaemonState, Delta, Load, LoadSource, NodeCheck, PolicySpec, Request, PROTOCOL_VERSION,
};
use timepiece_nets::reach::ReachBench;
use timepiece_nets::BenchInstance;
use timepiece_sched::ShardPlan;
use timepiece_topology::NodeId;
use timepiece_trace::Json;

fn options() -> CheckOptions {
    CheckOptions { threads: Some(2), session_cap: Some(8), ..Default::default() }
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
    fn of(instance: &BenchInstance, field: &'static str) -> Targets {
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
                let mut nodes = vec![node(a), node(b), node(a + b)];
                nodes.dedup();
                return Request::CheckNodes(NodeCheck { nodes, generation: None, shard: None });
            }
        })
    }
}

/// The reference: a fresh checker run on the daemon's current instance.
fn from_scratch_failed(state: &DaemonState) -> Vec<NodeId> {
    let inst = state.instance().expect("an instance is loaded");
    let report = ModularChecker::new(options())
        .check(inst.net(), inst.interface(), inst.property())
        .expect("reference check");
    let mut failed: Vec<NodeId> = report.failures().iter().map(|f| f.node).collect();
    failed.sort_unstable();
    failed.dedup();
    failed
}

/// Drives one daemon through `ops`, checking after *every* request (accepted
/// or rejected) that
///
/// * the verdict cache equals a from-scratch check of the daemon's current
///   instance, and
/// * the fingerprints the daemon refreshed over the delta's footprint equal
///   a from-scratch [`Fingerprints::compute`] — i.e. the footprint covered
///   the exact cone, so no node kept a stale hash (which a later delta
///   would then diff against, missing a dirty node), and
/// * no worker holds a second solver session: sessions are keyed by what a
///   network declares, and no delta — policy or budget — declares anything,
///   so an edited network lands in the session that already holds its
///   compiled terms.
///
/// A node-list check must additionally answer for exactly the nodes it
/// named.
fn check_sequence(
    label: &str,
    instance: BenchInstance,
    field: &'static str,
    ops: Vec<(u8, u64, u64)>,
) {
    let targets = Targets::of(&instance, field);
    let n = targets.nodes.len();
    let mut state = DaemonState::new(label, instance, options()).unwrap();
    for (kind, a, b) in ops {
        let request = targets.decode(kind, a, b);
        let reply = state.handle(&request).reply;
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
        let inst = state.instance().expect("the daemon started loaded");
        assert_eq!(
            inst.verdicts().len(),
            n,
            "no cancellation ran, so every node must keep a verdict"
        );
        let recomputed = Fingerprints::compute(inst.net(), inst.interface(), inst.property(), 0);
        assert_eq!(
            inst.fingerprints().expect("new() fingerprints").dirty_cone(&recomputed),
            Vec::<NodeId>::new(),
            "after {:?} (ok={:?}) the footprint missed nodes whose conditions changed",
            request,
            ok
        );
        let cached_failed = inst.verdicts().failed_nodes();
        let reference_failed = from_scratch_failed(&state);
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

/// What a `repro` process hands its daemon, cut down to the one benchmark
/// this test loads.
fn loader(source: &LoadSource) -> Result<(String, BenchInstance), String> {
    match source {
        LoadSource::Bench { name, k } if name == "SpReach" => {
            Ok((format!("SpReach k={k}"), ReachBench::single_dest(*k, 0).build()))
        }
        other => Err(format!("this test loads SpReach only, not {other:?}")),
    }
}

#[test]
fn the_shards_of_a_loaded_instance_union_to_the_from_scratch_failures() {
    let mut state = DaemonState::empty(options()).with_loader(loader);
    let sabotage = vec!["agg-1-0".to_owned(), "edge-2-1".to_owned()];
    let load = Load {
        version: PROTOCOL_VERSION,
        source: LoadSource::Bench { name: "SpReach".into(), k: 4 },
        sabotage: sabotage.clone(),
        threads: None,
        timeout_millis: None,
        trace: false,
    };
    let reply = state.handle(&Request::Load(load)).reply;
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true), "{reply}");
    let generation = reply.get("generation").and_then(Json::as_usize).map(|g| g as u64);
    assert_eq!(generation, Some(1), "{reply}");
    // a load installs; it neither checks nor fingerprints
    let inst = state.instance().expect("loaded");
    assert!(inst.verdicts().is_empty() && inst.fingerprints().is_none(), "{inst:?}");

    let reference = from_scratch_failed(&state);
    let g = state.instance().unwrap().net().topology().clone();
    assert!(!reference.is_empty(), "the sabotage must be detectable");
    for shards in [1, 3, 7] {
        let plan = ShardPlan::by_class(g.nodes(), shards, |v| g.node_class(v));
        let mut failing: Vec<NodeId> = Vec::new();
        for shard in 0..shards {
            let nodes: Vec<String> =
                plan.nodes_of(shard).iter().map(|&v| g.name(v).to_owned()).collect();
            let check = NodeCheck { nodes: nodes.clone(), generation, shard: Some(shard) };
            let reply = state.handle(&Request::CheckNodes(check)).reply;
            assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true), "{reply}");
            assert_eq!(reply.get("shard").and_then(Json::as_usize), Some(shard), "{reply}");
            let names = |key: &str| -> Vec<String> {
                let items = reply.get(key).and_then(Json::as_arr).unwrap().iter();
                // a cone entry is a name, a duration entry a [name, secs] pair
                items
                    .map(|n| n.as_arr().map_or(n, |pair| &pair[0]).as_str().unwrap().to_owned())
                    .collect()
            };
            // exactly its shard: nothing skipped, nothing extra (the report
            // lists durations in node order, the plan stripes by class)
            assert_eq!(names("cone"), nodes, "{reply}");
            let (mut checked, mut asked) = (names("durations"), nodes.clone());
            checked.sort_unstable();
            asked.sort_unstable();
            assert_eq!(checked, asked, "{reply}");
            for failure in reply.get("failures").and_then(Json::as_arr).unwrap() {
                let name = failure.get("node").and_then(Json::as_str).unwrap();
                assert!(nodes.iter().any(|n| n == name), "{name} is not in shard {shard}");
                failing.push(g.node_by_name(name).unwrap());
            }
        }
        failing.sort_unstable();
        failing.dedup();
        assert_eq!(failing, reference, "{shards} shards");
        assert_eq!(state.instance().unwrap().verdicts().failed_nodes(), reference);
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
        check_sequence("hop equivalence", hop_path(5, Some(1)), "len", ops);
    }

    #[test]
    fn incremental_verdicts_match_from_scratch_on_a_fattree(
        ops in proptest::collection::vec((0u8..7, 0u64..64, 0u64..64), 1..8),
    ) {
        // SpReach k=4: 20 nodes of degree 2-4, no failure model (budget
        // deltas are rejected), boolean routes (increments are rejected)
        check_sequence("SpReach k=4", ReachBench::single_dest(4, 0).build(), "len", ops);
    }
}
