//! Every node's conditions are built once, in the positional names of its
//! key. A node's key must be the intern ids of its own conditions with those
//! names substituted in (an oracle that shares no code with the build): on
//! every registry scenario no node falls back to its own names and each has
//! as many distinct keys as the memo has always proved, and across builds
//! and edits two keys are equal exactly when the oracle's formulas are.

use std::collections::HashSet;

use timepiece::algebra::policy::{FailureModel, MergeKey, RoutePolicy, RouteSchema};
use timepiece::algebra::{Network, NetworkBuilder};
use timepiece::core::incremental::{neighbour_route, node_fingerprint, NodeKey, SELF_ROUTE};
use timepiece::core::vc::node_conditions;
use timepiece::core::{NodeAnnotations, Temporal};
use timepiece::expr::{substitute, Expr, Type};
use timepiece::smt::Vc;
use timepiece::topology::{gen, NodeId};
use timepiece_bench::{fattree_instance, BenchKind};

/// (scenario, k, distinct keys): the memo's proofs per scenario, unsabotaged.
const KEYS: [(&str, usize, usize); 15] = [
    ("SpReach", 4, 6),
    ("SpLen", 4, 6),
    ("SpVf", 4, 6),
    ("SpHijack", 4, 7),
    ("ApReach", 4, 20),
    ("ApLen", 4, 20),
    ("ApVf", 4, 20),
    ("ApHijack", 4, 21),
    ("SpMed", 4, 9),
    ("ApMed", 4, 20),
    ("SpAd", 4, 6),
    ("ApAd", 4, 16),
    ("SpFail", 4, 9),
    ("SpReach", 8, 6),
    ("ApLen", 6, 45),
];

/// Node `v`'s own conditions with its own route names substituted by its
/// key's, one name at a time.
fn positional(net: &Network, v: NodeId, own: &[Vc; 3]) -> [Vc; 3] {
    let ty = net.route_type();
    let names = std::iter::once((net.route_var_name(v), Expr::var(SELF_ROUTE, ty.clone()))).chain(
        net.topology()
            .preds(v)
            .iter()
            .enumerate()
            .map(|(i, &u)| (net.route_var_name(u), Expr::var(neighbour_route(i), ty.clone()))),
    );
    let names: Vec<(String, Expr)> = names.collect();
    let sub = |e: &Expr| names.iter().fold(e.clone(), |e, (own, key)| substitute(&e, own, key));
    own.each_ref().map(|vc| Vc::new(vc.name(), vc.assumptions().iter().map(sub), sub(vc.goal())))
}

/// The terms of three conditions, names of the conditions aside.
fn terms(conditions: [Vc; 3]) -> [(Vec<Expr>, Expr); 3] {
    conditions.map(|vc| (vc.assumptions().to_vec(), vc.goal().clone()))
}

#[test]
fn every_registry_node_is_keyed_by_its_conditions_in_positional_names() {
    for (kind, k, expected) in KEYS {
        let inst = fattree_instance(BenchKind::parse(kind).expect("registered"), k);
        let (net, interface, property) = (&inst.network, &inst.interface, &inst.property);
        let g = net.topology();
        let mut keys = HashSet::new();
        for v in g.nodes() {
            let own = node_conditions(net, interface, property, 0, v);
            let key = node_fingerprint(net, interface, property, 0, v);
            let label = format!("{kind} k={k} {}", g.name(v));
            assert_eq!(key, NodeKey::of(&positional(net, v, &own)), "{label}");
            assert_ne!(key, NodeKey::of(&own), "{label} fell back to its own names");
            keys.insert(key);
        }
        assert_eq!(keys.len(), expected, "{kind} k={k}");
    }
}

/// A policy-mode hop-count network on an undirected 4-path whose every edge
/// may fail, at most `budget` at once, with the exact per-node reachability
/// interface.
fn budgeted_instance(budget: u64) -> (Network, NodeAnnotations, NodeAnnotations) {
    let schema =
        RouteSchema::new("Hop", [("len".to_owned(), Type::Int)], [MergeKey::Lower("len".into())]);
    let g = gen::undirected_path(4);
    let origin = Expr::record(schema.record_def(), vec![Expr::int(0)]).some();
    let net = NetworkBuilder::from_schema(g.clone(), schema)
        .default_policy(RoutePolicy::new().increment("len"))
        .failures(FailureModel::at_most(budget, g.edges()))
        .init(g.node_by_name("v0").unwrap(), origin)
        .build()
        .unwrap();
    let reached = || Temporal::globally(|r| r.clone().is_some());
    let interface = NodeAnnotations::from_fn(net.topology(), |v| match v.index() as u64 {
        0 => reached(),
        t => Temporal::until_at(t, |r| r.clone().is_none(), reached()),
    });
    let property = NodeAnnotations::new(net.topology(), Temporal::any());
    (net, interface, property)
}

#[test]
fn keys_are_equal_exactly_when_the_conditions_are_alpha_equivalent() {
    // two independent builds intern to the same terms: every node keeps
    // its key, and across both builds and a budget edit a key is shared
    // exactly by the nodes whose three conditions are one formula up to
    // the positional names of their route variables — and, for one
    // node, exactly when its own conditions are equal terms
    let (a, interface, property) = budgeted_instance(0);
    let (b, _, _) = budgeted_instance(0);
    let c = a.with_failure_budget(1).unwrap();
    let own = |net: &Network, v| node_conditions(net, &interface, &property, 0, v);
    // the positional names substituted term by term, apart from the
    // key's code path
    let alpha = |net: &Network, v| terms(positional(net, v, &own(net, v)));
    let nodes: Vec<(&Network, NodeId)> = [&a, &b, &c]
        .into_iter()
        .flat_map(|net| net.topology().nodes().map(move |v| (net, v)))
        .collect();
    let mut shared = 0;
    for &(n1, v1) in &nodes {
        for &(n2, v2) in &nodes {
            let same_key = node_fingerprint(n1, &interface, &property, 0, v1)
                == node_fingerprint(n2, &interface, &property, 0, v2);
            assert_eq!(same_key, alpha(n1, v1) == alpha(n2, v2), "{v1:?} {v2:?}");
            if v1 == v2 {
                assert_eq!(same_key, terms(own(n1, v1)) == terms(own(n2, v2)), "{v1:?}");
            }
            shared += usize::from(same_key && v1 == v2 && !std::ptr::eq(n1, n2));
        }
    }
    assert_eq!(shared, 2 * 4, "a and b share every key, c shares none");
}
