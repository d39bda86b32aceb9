//! Incremental re-checking: per-node keys and dirty cones.
//!
//! Modularity (Algorithm 1) makes every node's check depend on a *bounded*
//! slice of the problem: node `v`'s three verification conditions mention
//! only its own initial route, interface and property, the transfers of its
//! in-edges, the interfaces of its predecessors, and the network's symbolic
//! preconditions. A delta therefore invalidates a bounded **cone** of
//! nodes, not the whole network — and since the conditions are built from
//! hash-consed terms, "did this node's check change" is decided exactly by
//! comparing the intern ids of the *compiled conditions* before and after
//! the delta.
//!
//! The conditions are built in the same names at every node: `v`'s own
//! route variable is [`SELF_ROUTE`] and the route variable of its `i`-th
//! predecessor [`neighbour_route`]`(i)`, in `preds(v)` order, never sorted.
//! For one node a key changes exactly when its conditions do; across nodes,
//! two keys are equal exactly when the two nodes' conditions are the same
//! formula up to the names of their route variables — one proof answers
//! both, which is what [`crate::sweep::CheckerPool`]'s per-job memo
//! exploits.
//!
//! Those names are the checker's alone. Initial routes, transfers, merges
//! and symbolics never hold a route name the checker binds
//! ([`timepiece_algebra::is_checker_bound`]):
//! [`timepiece_algebra::NetworkBuilder::build`] refuses any that do. Nor
//! may an interface or property closure write one itself, where the
//! checker's variable would capture it: a check refuses such a node before
//! it builds it ([`CoreError::ReservedName`]), so every node it checks is
//! built once, in the names of its key.
//!
//! [`Fingerprints`] captures those keys; [`Fingerprints::dirty_cone`]
//! diffs two snapshots into the exact set of nodes whose conditions
//! changed. A service keeps no snapshot of its own: the key each node was
//! last checked on, with its proof, is the node's
//! [`crate::sweep::Record`], and a job over an edit's footprint both
//! re-keys those nodes and answers each whose key a record still holds.

use std::collections::BTreeMap;

use timepiece_algebra::{is_checker_bound, Network, TIME_VAR};
use timepiece_expr::{Env, Expr, InternId};
use timepiece_smt::Vc;
use timepiece_topology::{NodeId, Topology};

use crate::error::CoreError;
use crate::interface::NodeAnnotations;
use crate::vc::{conditions_over, time_var};

/// The name a node's own route variable takes in its [`NodeKey`].
pub const SELF_ROUTE: &str = "route@self";

/// The name the route variable of a node's `i`-th predecessor takes in the
/// node's [`NodeKey`].
pub fn neighbour_route(i: usize) -> String {
    format!("route@in{i}")
}

/// The exact key of one node's three verification conditions: the intern
/// ids of each condition's assumptions and goal (initial, inductive, safety,
/// in that order), built in the positional names of the module docs, and
/// how many ids each condition has. The arena gives equal ids exactly to
/// structurally equal terms and never reuses an id, so two keys are equal
/// exactly when the two nodes' conditions are alpha-equivalent under the
/// positional names — the checks are interchangeable, and no edit can
/// collide with the key it replaces.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NodeKey {
    lens: [usize; 3],
    ids: Box<[InternId]>,
}

impl NodeKey {
    /// The key of three conditions as they are.
    pub fn of(conditions: &[Vc; 3]) -> NodeKey {
        NodeKey {
            lens: conditions.each_ref().map(|vc| vc.assumptions().len() + 1),
            ids: conditions
                .iter()
                .flat_map(|vc| vc.assumptions().iter().chain([vc.goal()]))
                .map(Expr::node_id)
                .collect(),
        }
    }
}

/// From the positional names of a node's key back to the node's own route
/// names, as `(key name, own name)` pairs.
pub(crate) struct OwnNames(Vec<(String, String)>);

impl OwnNames {
    pub(crate) fn of(net: &Network, v: NodeId) -> OwnNames {
        let preds = net.topology().preds(v).iter().enumerate();
        OwnNames(
            std::iter::once((SELF_ROUTE.to_owned(), net.route_var_name(v)))
                .chain(preds.map(|(i, &u)| (neighbour_route(i), net.route_var_name(u))))
                .collect(),
        )
    }

    /// The own name of the key name `name`, if it is one.
    fn get(&self, name: &str) -> Option<&str> {
        self.0.iter().find(|(key, _)| key == name).map(|(_, own)| own.as_str())
    }

    /// `env` in the node's own names. A key name's binding moves to its own
    /// name and shadows any binding the own name had, whatever the order.
    pub(crate) fn env(&self, env: &Env) -> Env {
        env.iter()
            .filter_map(|(name, value)| match self.get(name) {
                Some(own) => Some((own.to_owned(), value.clone())),
                None if self.0.iter().any(|(_, own)| own == name) => None,
                None => Some((name.to_owned(), value.clone())),
            })
            .collect()
    }
}

/// Node `v`'s conditions, built in its key's names, and their key.
pub(crate) fn keyed_conditions(
    net: &Network,
    interface: &NodeAnnotations,
    property: &NodeAnnotations,
    delay: u64,
    v: NodeId,
) -> (NodeKey, [Vc; 3]) {
    let ty = net.route_type();
    let route = Expr::var(SELF_ROUTE, ty.clone());
    let neighbours: Vec<Expr> = (0..net.topology().preds(v).len())
        .map(|i| Expr::var(neighbour_route(i), ty.clone()))
        .collect();
    let conditions = conditions_over(net, interface, property, delay, v, &route, &neighbours);
    (NodeKey::of(&conditions), conditions)
}

/// Refuses node `v` if an annotation its conditions apply — its interface
/// and property, its predecessors' interfaces — writes a route name the
/// checker binds. Each is applied to a probe route no condition binds, so a
/// route name in the result is one the closure wrote itself.
///
/// # Errors
///
/// [`CoreError::ReservedName`], naming the node whose annotation writes it.
pub(crate) fn refuse_reserved_names(
    net: &Network,
    interface: &NodeAnnotations,
    property: &NodeAnnotations,
    v: NodeId,
) -> Result<(), CoreError> {
    let g = net.topology();
    let (t, probe) = (time_var(), Expr::var("probe", net.route_type().clone()));
    let preds = g.preds(v).iter().map(|&u| (u, interface.get(u)));
    for (owner, op) in [(v, interface.get(v)), (v, property.get(v))].into_iter().chain(preds) {
        // a name at two types is the encoder's to refuse
        let vars = op.at(&t, &probe).free_vars().unwrap_or_default();
        let written = vars.into_keys().find(|name| name != TIME_VAR && is_checker_bound(name));
        if let Some(name) = written {
            return Err(CoreError::ReservedName { node: g.name(owner).to_owned(), name });
        }
    }
    Ok(())
}

/// The [`NodeKey`] of node `v`.
///
/// Everything a condition can depend on flows into the compiled terms: the
/// node's initial route, interface and witness time, the predecessors'
/// interfaces, the in-edge policies and the merge (through the one-step
/// update of the inductive condition), the failure budget (through the
/// symbolic constraints assumed by every condition). A change to any of
/// them changes the key; a change to none of them cannot.
pub fn node_fingerprint(
    net: &Network,
    interface: &NodeAnnotations,
    property: &NodeAnnotations,
    delay: u64,
    v: NodeId,
) -> NodeKey {
    keyed_conditions(net, interface, property, delay, v).0
}

/// One snapshot of [`node_fingerprint`] over every node of an instance.
///
/// Building a snapshot costs one condition *construction* per node — no
/// solving, and the hash-consing arena makes re-construction after a small
/// delta mostly interning hits. Diffing two snapshots
/// ([`Fingerprints::dirty_cone`]) gives the nodes an edit changed: the
/// reference a daemon's per-node records are tested against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprints {
    map: BTreeMap<NodeId, NodeKey>,
}

impl Fingerprints {
    /// Fingerprints every node of the instance.
    pub fn compute(
        net: &Network,
        interface: &NodeAnnotations,
        property: &NodeAnnotations,
        delay: u64,
    ) -> Fingerprints {
        let map = net
            .topology()
            .nodes()
            .map(|v| (v, node_fingerprint(net, interface, property, delay, v)))
            .collect();
        Fingerprints { map }
    }

    /// The key of one node, if it was part of the snapshot.
    pub fn get(&self, v: NodeId) -> Option<&NodeKey> {
        self.map.get(&v)
    }

    /// How many nodes the snapshot covers.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Is the snapshot empty?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The dirty cone between this snapshot and a newer one: every node
    /// whose fingerprint differs (or that only one side covers), in id
    /// order. These are exactly the nodes whose verification conditions
    /// changed — re-checking them (and only them) reproduces a from-scratch
    /// run's verdicts, because every untouched node would discharge
    /// structurally identical conditions.
    pub fn dirty_cone(&self, newer: &Fingerprints) -> Vec<NodeId> {
        let mut dirty: Vec<NodeId> = Vec::new();
        for (v, fp) in &newer.map {
            if self.map.get(v) != Some(fp) {
                dirty.push(*v);
            }
        }
        for v in self.map.keys() {
            if !newer.map.contains_key(v) {
                dirty.push(*v);
            }
        }
        dirty.sort_unstable();
        dirty.dedup();
        dirty
    }
}

/// The nodes whose verification conditions mention node `v`'s interface:
/// `v` itself (all three conditions) and its out-neighbors (their inductive
/// conditions assume `A(v)`). This is the topological upper bound on the
/// cone of an interface-only delta — useful as a cross-check on the exact
/// fingerprint diff, and as the answer to "who would a change at `v`
/// affect" without constructing any conditions.
pub fn interface_cone(g: &Topology, v: NodeId) -> Vec<NodeId> {
    let mut cone = vec![v];
    cone.extend(g.succs(v).iter().copied());
    cone.sort_unstable();
    cone.dedup();
    cone
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{CheckOptions, ModularChecker};
    use crate::temporal::Temporal;
    use timepiece_algebra::policy::{MergeKey, RouteGuard, RoutePolicy, RouteSchema};
    use timepiece_algebra::NetworkBuilder;
    use timepiece_expr::{Type, Value};
    use timepiece_topology::gen;

    /// A policy-mode hop-count network on an undirected path, with the
    /// exact per-node reachability interface.
    fn policy_instance(n: usize) -> (Network, NodeAnnotations, NodeAnnotations) {
        let schema = RouteSchema::new(
            "Hop",
            [("len".to_owned(), Type::Int)],
            [MergeKey::Lower("len".into())],
        );
        let g = gen::undirected_path(n);
        let dest = g.node_by_name("v0").unwrap();
        let origin = Expr::record(schema.record_def(), vec![Expr::int(0)]).some();
        let net = NetworkBuilder::from_schema(g, schema)
            .default_policy(RoutePolicy::new().increment("len"))
            .init(dest, origin)
            .build()
            .unwrap();
        let interface = NodeAnnotations::from_fn(net.topology(), |v| {
            let t = v.index() as u64;
            if t == 0 {
                Temporal::globally(|r| r.clone().is_some())
            } else {
                Temporal::until_at(
                    t,
                    |r| r.clone().is_none(),
                    Temporal::globally(|r| r.clone().is_some()),
                )
            }
        });
        let property = NodeAnnotations::new(net.topology(), Temporal::any());
        (net, interface, property)
    }

    #[test]
    fn fingerprints_are_deterministic() {
        let (net, interface, property) = policy_instance(4);
        let a = Fingerprints::compute(&net, &interface, &property, 0);
        let b = Fingerprints::compute(&net, &interface, &property, 0);
        assert_eq!(a, b);
        assert!(a.dirty_cone(&b).is_empty());
        assert_eq!(a.len(), 4);
        // a different delay changes the inductive condition everywhere
        let delayed = Fingerprints::compute(&net, &interface, &property, 1);
        assert_eq!(a.dirty_cone(&delayed).len(), 4);
    }

    #[test]
    fn interface_edit_dirties_the_node_and_its_successors() {
        let (net, interface, property) = policy_instance(5);
        let before = Fingerprints::compute(&net, &interface, &property, 0);
        let v2 = net.topology().node_by_name("v2").unwrap();
        let mut edited = interface.clone();
        edited.set(
            v2,
            Temporal::until_at(
                9,
                |r| r.clone().is_none(),
                Temporal::globally(|r| r.clone().is_some()),
            ),
        );
        let after = Fingerprints::compute(&net, &edited, &property, 0);
        let cone = before.dirty_cone(&after);
        let expected = interface_cone(net.topology(), v2);
        assert_eq!(cone, expected, "v2 and its neighbors on the undirected path");
        assert_eq!(cone.len(), 3, "strictly fewer than the 5 nodes");
    }

    #[test]
    fn policy_edit_dirties_only_the_edge_head() {
        let (net, interface, property) = policy_instance(5);
        let before = Fingerprints::compute(&net, &interface, &property, 0);
        let v1 = net.topology().node_by_name("v1").unwrap();
        let v2 = net.topology().node_by_name("v2").unwrap();
        let dropped = net
            .set_edge_policy((v1, v2), Some(RoutePolicy::new().drop_if(RouteGuard::True)))
            .unwrap();
        let after = Fingerprints::compute(&dropped, &interface, &property, 0);
        assert_eq!(before.dirty_cone(&after), vec![v2], "only the head's merge inputs changed");
        // removing the override restores every fingerprint
        let restored = dropped.set_edge_policy((v1, v2), None).unwrap();
        assert_eq!(Fingerprints::compute(&restored, &interface, &property, 0), before);
    }

    #[test]
    fn a_new_failure_budget_dirties_every_node() {
        use timepiece_algebra::policy::FailureModel;
        let schema = RouteSchema::new(
            "Hop",
            [("len".to_owned(), Type::Int)],
            [MergeKey::Lower("len".into())],
        );
        let g = gen::undirected_path(3);
        let node = |name: &str| g.node_by_name(name).unwrap();
        let (dest, v1, v2) = (node("v0"), node("v1"), node("v2"));
        let origin = Expr::record(schema.record_def(), vec![Expr::int(0)]).some();
        let net = NetworkBuilder::from_schema(g, schema)
            .default_policy(RoutePolicy::new().increment("len"))
            .failures(FailureModel::at_most(0, [(dest, v1), (v1, v2)]))
            .init(dest, origin)
            .build()
            .unwrap();
        let annotations = NodeAnnotations::new(net.topology(), Temporal::any());
        let before = Fingerprints::compute(&net, &annotations, &annotations, 0);
        // the budget constraint is among the symbolic preconditions every
        // condition of every node assumes
        let rebudgeted = net.with_failure_budget(1).unwrap();
        let after = Fingerprints::compute(&rebudgeted, &annotations, &annotations, 0);
        assert_eq!(before.dirty_cone(&after).len(), 3);
    }

    /// [`policy_instance`] with a failure bit on every edge under an
    /// at-most-`budget` assumption, so every delta kind applies.
    fn budgeted_instance(n: usize, budget: u64) -> (Network, NodeAnnotations, NodeAnnotations) {
        use timepiece_algebra::policy::FailureModel;
        let (net, interface, property) = policy_instance(n);
        let g = net.topology().clone();
        let schema = net.policies().unwrap().schema.clone();
        let origin = Expr::record(schema.record_def(), vec![Expr::int(0)]).some();
        let net = NetworkBuilder::from_schema(g.clone(), schema)
            .default_policy(RoutePolicy::new().increment("len"))
            .failures(FailureModel::at_most(budget, g.edges()))
            .init(g.node_by_name("v0").unwrap(), origin)
            .build()
            .unwrap();
        (net, interface, property)
    }

    #[test]
    fn the_positional_names_are_checker_bound() {
        // the names a key's conditions are built in are among the ones no
        // symbolic may take, so none can capture them
        let (net, _, _) = policy_instance(3);
        assert!(is_checker_bound(SELF_ROUTE) && is_checker_bound(TIME_VAR));
        assert!((0..12).all(|i| is_checker_bound(&neighbour_route(i))));
        assert!(net.topology().nodes().all(|v| is_checker_bound(&net.route_var_name(v))));
    }

    #[test]
    fn nodes_alike_up_to_their_route_names_share_a_key() {
        // a ring: every node has the same two neighbours' shape and the same
        // trivially true annotations, so in key names all conditions are one
        // formula — and in their own names none would be
        let g = gen::ring(5);
        let net = NetworkBuilder::new(g, Type::Bool)
            .merge(|a, b| a.clone().or(b.clone()))
            .default_transfer(|r| r.clone())
            .build()
            .unwrap();
        let reached = NodeAnnotations::new(net.topology(), Temporal::globally(|r| r.clone().not()));
        let keys = Fingerprints::compute(&net, &reached, &reached, 0);
        let first = keys.get(NodeId::new(0)).unwrap();
        assert!(net.topology().nodes().all(|v| keys.get(v) == Some(first)));
        // the key's formulas mention only the positional names
        let (_, conditions) = keyed_conditions(&net, &reached, &reached, 0, NodeId::new(3));
        let free: Vec<String> = conditions
            .iter()
            .flat_map(|vc| vc.assumptions().iter().chain([vc.goal()]))
            .flat_map(|e| e.free_vars().unwrap().into_keys())
            .filter(|name| name.starts_with("route"))
            .collect();
        assert!(free.iter().all(|name| name.starts_with("route@")), "{free:?}");
        assert_eq!(OwnNames::of(&net, NodeId::new(3)).get(SELF_ROUTE), Some("route-v3"));
    }

    /// What a pooled check of every node returns: the refusal that
    /// `check_node` returns for each of `refused`, while every other node
    /// checks.
    fn refusal(
        net: &Network,
        interface: &NodeAnnotations,
        property: &NodeAnnotations,
        refused: &[NodeId],
    ) -> CoreError {
        let checker = ModularChecker::new(CheckOptions { threads: Some(2), ..Default::default() });
        let pooled = checker.check(net, interface, property).unwrap_err();
        for v in net.topology().nodes() {
            let alone = checker.check_node(net, interface, property, v).err();
            let expected = refused.contains(&v).then(|| pooled.clone());
            assert_eq!(alone, expected, "{}", net.topology().name(v));
        }
        pooled
    }

    fn reserved(node: &str, name: &str) -> CoreError {
        CoreError::ReservedName { node: node.to_owned(), name: name.to_owned() }
    }

    #[test]
    fn an_interface_writing_the_self_name_is_refused() {
        // v1's interface mentions a free variable spelled like the self
        // name of every key: the checker's variable would capture it at v1,
        // and at v0 and v2, which apply v1's interface to their neighbour
        let (net, mut interface, property) = policy_instance(3);
        let v1 = net.topology().node_by_name("v1").unwrap();
        let ty = net.route_type().clone();
        interface
            .set(v1, Temporal::globally(move |r| Expr::var(SELF_ROUTE, ty.clone()).eq(r.clone())));
        let all: Vec<NodeId> = net.topology().nodes().collect();
        assert_eq!(refusal(&net, &interface, &property, &all), reserved("v1", SELF_ROUTE));
    }

    #[test]
    fn an_interface_writing_a_neighbours_own_route_name_is_refused() {
        // v1's interface writes `route-v0`: in v1's own conditions that is
        // its neighbour's route variable, in key names a free one — two
        // formulas, so neither is checked
        let (net, mut interface, property) = policy_instance(3);
        let v0_route = Expr::var("route-v0", net.route_type().clone());
        let v1 = net.topology().node_by_name("v1").unwrap();
        interface.set(
            v1,
            Temporal::globally(move |r| r.clone().is_some().and(v0_route.clone().is_some())),
        );
        let all: Vec<NodeId> = net.topology().nodes().collect();
        assert_eq!(refusal(&net, &interface, &property, &all), reserved("v1", "route-v0"));
    }

    #[test]
    fn a_predecessors_interface_writing_a_passed_name_is_refused() {
        // v0's interface writes `route@in0` itself: at v1, whose one
        // predecessor is v0, the build passes that very name to the
        // inductive condition, so no walk of v1's conditions could tell the
        // two apart — the probe of the annotations v1 applies does
        let g = gen::path(3);
        let node = |name: &str| g.node_by_name(name).unwrap();
        let (v0, v1, v2) = (node("v0"), node("v1"), node("v2"));
        let net = NetworkBuilder::new(g, Type::Bool)
            .merge(|a, b| a.clone().or(b.clone()))
            .default_transfer(|r| r.clone())
            .init(v0, Expr::bool(true))
            .build()
            .unwrap();
        let reached = || Temporal::globally(|r| r.clone());
        let mut interface = NodeAnnotations::new(net.topology(), reached());
        let in0 = Expr::var(neighbour_route(0), Type::Bool);
        interface.set(v0, Temporal::globally(move |r| r.clone().and(in0.clone().not())));
        interface.set(v1, Temporal::until_at(1, |r| r.clone().not(), reached()));
        interface.set(v2, Temporal::until_at(2, |r| r.clone().not(), reached()));
        let property = NodeAnnotations::new(net.topology(), Temporal::any());
        // v2 never applies v0's interface: it checks
        let refused = refusal(&net, &interface, &property, &[v0, v1]);
        assert_eq!(refused, reserved("v0", &neighbour_route(0)));
    }

    #[test]
    fn a_property_writing_the_self_name_is_refused() {
        // the safety condition is passed `route@self`; a property writing it
        // would be captured there. Only v2 applies v2's property
        let (net, interface, mut property) = policy_instance(3);
        let v2 = net.topology().node_by_name("v2").unwrap();
        let ty = net.route_type().clone();
        property
            .set(v2, Temporal::globally(move |r| r.clone().eq(Expr::var(SELF_ROUTE, ty.clone()))));
        assert_eq!(refusal(&net, &interface, &property, &[v2]), reserved("v2", SELF_ROUTE));
    }

    #[test]
    fn counterexamples_move_back_to_the_nodes_own_names() {
        let (net, _, _) = policy_instance(3);
        let v1 = net.topology().node_by_name("v1").unwrap();
        let back = OwnNames::of(&net, v1);
        let mut env = Env::new();
        env.bind(SELF_ROUTE, Value::int(1))
            .bind(neighbour_route(1), Value::int(2))
            .bind("dest", Value::int(3));
        let own = back.env(&env);
        assert_eq!(own.get("route-v1"), Some(&Value::int(1)));
        assert_eq!(own.get("route-v2"), Some(&Value::int(2)));
        assert_eq!(own.get("dest"), Some(&Value::int(3)));
        assert_eq!(own.get(SELF_ROUTE), None);
        // a stale binding of an own name is shadowed, never kept
        env.bind("route-v1", Value::int(100));
        assert_eq!(back.env(&env).get("route-v1"), Some(&Value::int(1)));
    }

    #[test]
    fn every_delta_kind_changes_the_key_of_each_node_it_edits() {
        let (net, interface, property) = budgeted_instance(5, 0);
        let g = net.topology();
        let node = |name: &str| g.node_by_name(name).unwrap();
        let (v1, v2) = (node("v1"), node("v2"));
        let drop = || Some(RoutePolicy::new().drop_if(RouteGuard::True));
        let down = net.set_edge_policy((v1, v2), drop()).unwrap();
        let down = down.set_edge_policy((v2, v1), drop()).unwrap();
        let up = down.set_edge_policy((v1, v2), None).unwrap();
        let up = up.set_edge_policy((v2, v1), None).unwrap();
        let policy = net.set_edge_policy((v1, v2), Some(RoutePolicy::new())).unwrap();
        let budget = net.with_failure_budget(1).unwrap();
        let mut witness = interface.clone();
        witness.set(v2, interface.get(v2).with_witness(&Expr::int(9)).unwrap());
        let all: Vec<NodeId> = g.nodes().collect();
        // (kind, before, after, the nodes the edit reaches)
        let edits = [
            ("link_down", (&net, &interface), (&down, &interface), vec![v1, v2]),
            ("link_up", (&down, &interface), (&up, &interface), vec![v1, v2]),
            ("edge_policy", (&net, &interface), (&policy, &interface), vec![v2]),
            ("witness_time", (&net, &interface), (&net, &witness), interface_cone(g, v2)),
            ("failure_budget", (&net, &interface), (&budget, &interface), all),
        ];
        for (kind, (n0, i0), (n1, i1), edited) in edits {
            for v in edited {
                let before = node_fingerprint(n0, i0, &property, 0, v);
                let after = node_fingerprint(n1, i1, &property, 0, v);
                assert_ne!(before, after, "{kind} left the key of {} unchanged", g.name(v));
            }
        }
        // bringing the link up restores the keys it had before it went down
        assert_eq!(
            Fingerprints::compute(&up, &interface, &property, 0),
            Fingerprints::compute(&net, &interface, &property, 0)
        );
    }
}
