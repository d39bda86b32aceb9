//! Every node's conditions are built once, in the positional names of its
//! key. A node's key must be the intern ids of its own conditions with those
//! names substituted in (an oracle that shares no code with the build).
//! That holds on every registry scenario, each with as many distinct keys
//! as the memo has always proved, and on every other instance the
//! repository ships, none of which the checker refuses for writing a name
//! it binds. Across builds and edits two keys are equal exactly when the
//! oracle's formulas are.

use std::collections::HashSet;
use std::time::Duration;

use timepiece::algebra::policy::{FailureModel, MergeKey, RoutePolicy, RouteSchema};
use timepiece::algebra::{Network, NetworkBuilder};
use timepiece::core::incremental::{neighbour_route, node_fingerprint, NodeKey, SELF_ROUTE};
use timepiece::core::vc::node_conditions;
use timepiece::core::{CheckOptions, Instance, ModularChecker, NodeAnnotations, Temporal};
use timepiece::expr::{substitute, Expr, Type};
use timepiece::infer::{InferenceEngine, RoleMap};
use timepiece::nets::example::RunningExample;
use timepiece::nets::len::LenBench;
use timepiece::nets::reach::ReachBench;
use timepiece::nets::wan::WanBench;
use timepiece::nets::{ghost, PropertySpec};
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

/// The instances the repository ships beside the registry: Table 1's ghost
/// encodings, the running example's five annotation sets, the Internet2
/// WAN, the scenario gallery, and SpReach/SpLen at k=4 under inferred
/// interfaces.
fn shipped_instances() -> Vec<(String, Instance)> {
    let mut shipped = Vec::new();
    for flag in [false, true] {
        let ghosts = [
            ("isolation", ghost::isolation(flag)),
            ("unordered_waypoints", ghost::unordered_waypoints(flag)),
            ("no_transit", ghost::no_transit(flag)),
            ("fault_tolerance", ghost::fault_tolerance(flag)),
        ];
        shipped.extend(ghosts.map(|(name, inst)| (format!("ghost::{name}({flag})"), inst)));
    }
    let ex = RunningExample::new();
    let annotated = [
        ("tagging", ex.tagging_interfaces(), ex.tagging_property()),
        ("reachability", ex.reachability_interfaces(), ex.reachability_property()),
        ("bad", ex.bad_interfaces(false), ex.tagging_property()),
        ("patched bad", ex.bad_interfaces(true), ex.tagging_property()),
        ("ghost", ex.ghost_interfaces(), ex.ghost_property()),
    ];
    for (name, interface, property) in annotated {
        let network = ex.network.clone();
        shipped
            .push((format!("running example, {name}"), Instance { network, interface, property }));
    }
    shipped.push(("Internet2".to_owned(), WanBench::internet2(7).build()));
    let gallery = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/scenarios");
    let mut files: Vec<_> =
        std::fs::read_dir(gallery).unwrap().map(|f| f.unwrap().path()).collect();
    files.sort();
    for file in files {
        let text = std::fs::read_to_string(&file).unwrap();
        let compiled = timepiece_scenario::compile_str(&text).unwrap();
        shipped.push((file.display().to_string(), compiled.instance()));
    }
    let reach = ReachBench::single_dest(4, 0);
    let len = LenBench::single_dest(4, 0);
    let inferable = [
        ("SpReach", reach.build().into_spec(), reach.fattree().clone(), reach.dest_node()),
        ("SpLen", len.build().into_spec(), len.fattree().clone(), len.dest_node()),
    ];
    for (name, spec, fattree, dest) in inferable {
        let PropertySpec { network, property } = spec;
        let roles = RoleMap::fattree(&fattree, dest.expect("a fixed destination"));
        let inferred = InferenceEngine::default()
            .infer(&network, &property, roles, &[timepiece::expr::Env::new()])
            .unwrap();
        let interface = inferred.interface;
        shipped.push((format!("{name} k=4, inferred"), Instance { network, interface, property }));
    }
    shipped
}

#[test]
fn every_shipped_node_is_keyed_in_positional_names_and_none_is_refused() {
    let shipped = shipped_instances();
    assert_eq!(shipped.len(), 8 + 5 + 1 + 4 + 2);
    // the refusal comes before any solving: a short timeout keeps the
    // checks cheap and answers every node, unknown or not
    let options = CheckOptions {
        timeout: Some(Duration::from_millis(1)),
        threads: Some(2),
        ..CheckOptions::default()
    };
    for (name, Instance { network: net, interface, property }) in &shipped {
        let g = net.topology();
        for v in g.nodes() {
            let own = node_conditions(net, interface, property, 0, v);
            let key = node_fingerprint(net, interface, property, 0, v);
            assert_eq!(key, NodeKey::of(&positional(net, v, &own)), "{name} {}", g.name(v));
        }
        let checker = ModularChecker::new(options.clone());
        let report = checker.check(net, interface, property);
        let report = report.unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(report.node_durations().len(), g.node_count(), "{name}");
    }
}
