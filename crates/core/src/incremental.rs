//! Incremental re-checking: per-node fingerprints, dirty cones and a
//! verdict cache.
//!
//! Modularity (Algorithm 1) makes every node's check depend on a *bounded*
//! slice of the problem: node `v`'s three verification conditions mention
//! only its own initial route, interface and property, the transfers of its
//! in-edges, the interfaces of its predecessors, and the network's symbolic
//! preconditions. A delta therefore invalidates a bounded **cone** of
//! nodes, not the whole network — and since the conditions are built from
//! hash-consed terms, "did this node's check change" is decidable in O(1)
//! per node by comparing structural hashes of the *compiled conditions*
//! before and after the delta.
//!
//! [`Fingerprints`] captures those hashes; [`Fingerprints::dirty_cone`]
//! diffs two snapshots into the exact set of nodes whose conditions
//! changed. [`VerdictCache`] remembers the last verdict per node, so a
//! service re-checks the cone and serves everything else from cache.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use timepiece_algebra::Network;
use timepiece_topology::{NodeId, Topology};

use crate::check::{CheckReport, Failure};
use crate::interface::NodeAnnotations;
use crate::vc::{inductive_vc, initial_vc, safety_vc};

/// A structural fingerprint of one node's three verification conditions.
/// Two equal fingerprints mean the node's initial, inductive and safety
/// conditions are structurally identical terms — the checks are
/// interchangeable.
///
/// Everything a condition can depend on flows into the compiled terms: the
/// node's initial route, interface and witness time, the predecessors'
/// interfaces, the in-edge policies and the merge (through the one-step
/// update of the inductive condition), the failure budget (through the
/// symbolic constraints assumed by every condition). A change to any of
/// them flips the hash; a change to none of them cannot.
pub fn node_fingerprint(
    net: &Network,
    interface: &NodeAnnotations,
    property: &NodeAnnotations,
    delay: u64,
    v: NodeId,
) -> u64 {
    let mut h = DefaultHasher::new();
    let conditions = [
        initial_vc(net, interface, v),
        inductive_vc(net, interface, v, delay),
        safety_vc(net, interface, property, v),
    ];
    for vc in conditions {
        for a in vc.assumptions() {
            a.structural_hash().hash(&mut h);
        }
        vc.goal().structural_hash().hash(&mut h);
    }
    h.finish()
}

/// One snapshot of [`node_fingerprint`] over every node of an instance.
///
/// Building a snapshot costs one condition *construction* per node — no
/// solving, and the hash-consing arena makes re-construction after a small
/// delta mostly interning hits. Diffing two snapshots
/// ([`Fingerprints::dirty_cone`]) is how a delta becomes a work list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprints {
    map: BTreeMap<NodeId, u64>,
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

    /// This snapshot brought up to date after an edit whose *footprint* —
    /// a topological upper bound on the nodes whose conditions the edit can
    /// reach — is known: only the footprint is re-fingerprinted against the
    /// edited instance, every other hash is carried over. One condition
    /// construction per footprint node instead of one per node.
    ///
    /// Equal to [`Fingerprints::compute`] on the edited instance exactly
    /// when `footprint` covers every node whose conditions changed; the
    /// caller owes that (see [`interface_cone`] for interface edits — an
    /// in-edge policy edit reaches only the edge's head, a change to the
    /// symbolic preconditions reaches every node).
    pub fn refreshed(
        &self,
        net: &Network,
        interface: &NodeAnnotations,
        property: &NodeAnnotations,
        delay: u64,
        footprint: &[NodeId],
    ) -> Fingerprints {
        let mut map = self.map.clone();
        for &v in footprint {
            map.insert(v, node_fingerprint(net, interface, property, delay, v));
        }
        Fingerprints { map }
    }

    /// The fingerprint of one node, if it was part of the snapshot.
    pub fn get(&self, v: NodeId) -> Option<u64> {
        self.map.get(&v).copied()
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

/// The last verdict of one node.
#[derive(Debug, Clone)]
pub enum NodeVerdict {
    /// All three conditions held when the node was last checked.
    Verified,
    /// At least one condition failed; the failures are kept for reporting.
    Failed(Vec<Failure>),
}

impl NodeVerdict {
    /// Did the node verify?
    pub fn is_verified(&self) -> bool {
        matches!(self, NodeVerdict::Verified)
    }
}

/// The per-node verdict memory of an incremental checker: re-check the
/// dirty cone, absorb the report, serve every clean node from here.
#[derive(Debug, Clone, Default)]
pub struct VerdictCache {
    verdicts: BTreeMap<NodeId, NodeVerdict>,
}

impl VerdictCache {
    /// An empty cache.
    pub fn new() -> VerdictCache {
        VerdictCache::default()
    }

    /// Records the verdicts of a (possibly partial) check. Only nodes the
    /// report actually checked — those with a recorded duration — are
    /// updated: nodes a cancellation abandoned left no verdict and keep
    /// their cached one (which is then stale; callers that cancel should
    /// [`VerdictCache::invalidate`] the unchecked remainder).
    pub fn absorb(&mut self, report: &CheckReport) {
        for (v, _) in report.node_durations() {
            let failures: Vec<Failure> =
                report.failures().iter().filter(|f| f.node == *v).cloned().collect();
            let verdict = if failures.is_empty() {
                NodeVerdict::Verified
            } else {
                NodeVerdict::Failed(failures)
            };
            self.verdicts.insert(*v, verdict);
        }
    }

    /// Drops the cached verdicts of `nodes` (e.g. cone nodes whose re-check
    /// was cancelled: neither the old nor any new verdict is trustworthy).
    pub fn invalidate(&mut self, nodes: &[NodeId]) {
        for v in nodes {
            self.verdicts.remove(v);
        }
    }

    /// The cached verdict of one node.
    pub fn verdict(&self, v: NodeId) -> Option<&NodeVerdict> {
        self.verdicts.get(&v)
    }

    /// Every cached verdict, in node order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &NodeVerdict)> {
        self.verdicts.iter().map(|(v, verdict)| (*v, verdict))
    }

    /// How many nodes have cached verdicts.
    pub fn len(&self) -> usize {
        self.verdicts.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.verdicts.is_empty()
    }

    /// Does every cached verdict say verified? (Vacuously true when empty —
    /// pair with [`VerdictCache::len`] to require coverage.)
    pub fn all_verified(&self) -> bool {
        self.verdicts.values().all(NodeVerdict::is_verified)
    }

    /// The nodes with failed verdicts, in node order.
    pub fn failed_nodes(&self) -> Vec<NodeId> {
        self.verdicts
            .iter()
            .filter(|(_, verdict)| !verdict.is_verified())
            .map(|(v, _)| *v)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{CheckOptions, ModularChecker};
    use crate::temporal::Temporal;
    use timepiece_algebra::policy::{MergeKey, RouteGuard, RoutePolicy, RouteSchema};
    use timepiece_algebra::NetworkBuilder;
    use timepiece_expr::{Expr, Type};
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

    #[test]
    fn refreshing_the_footprint_equals_recomputing_everything() {
        let (net, interface, property) = policy_instance(6);
        let g = net.topology();
        let node = |name: &str| g.node_by_name(name).unwrap();
        let before = Fingerprints::compute(&net, &interface, &property, 0);

        // a policy edit on u -> v reaches only v
        let dropped = net
            .set_edge_policy(
                (node("v2"), node("v3")),
                Some(RoutePolicy::new().drop_if(RouteGuard::True)),
            )
            .unwrap();
        let refreshed = before.refreshed(&dropped, &interface, &property, 0, &[node("v3")]);
        assert_eq!(refreshed, Fingerprints::compute(&dropped, &interface, &property, 0));
        assert_eq!(before.dirty_cone(&refreshed), vec![node("v3")]);

        // an interface edit at v reaches v and its successors — stacked on
        // the policy edit, so carried-over hashes come from a refreshed map
        let mut edited = interface.clone();
        edited.set(
            node("v4"),
            Temporal::until_at(
                7,
                |r| r.clone().is_none(),
                Temporal::globally(|r| r.clone().is_some()),
            ),
        );
        let footprint = interface_cone(g, node("v4"));
        let twice = refreshed.refreshed(&dropped, &edited, &property, 0, &footprint);
        assert_eq!(twice, Fingerprints::compute(&dropped, &edited, &property, 0));

        // a footprint wider than the exact cone changes nothing more
        let all: Vec<NodeId> = g.nodes().collect();
        assert_eq!(before.refreshed(&dropped, &interface, &property, 0, &all), refreshed);
        // an empty footprint is the identity, whatever the instance
        assert_eq!(before.refreshed(&dropped, &edited, &property, 0, &[]), before);
    }

    #[test]
    fn verdict_cache_tracks_reports() {
        let (net, interface, property) = policy_instance(4);
        let checker = ModularChecker::new(CheckOptions::default());
        let report = checker.check(&net, &interface, &property).unwrap();
        let mut cache = VerdictCache::new();
        assert!(cache.is_empty());
        cache.absorb(&report);
        assert_eq!(cache.len(), 4);
        assert!(cache.all_verified());
        assert!(cache.failed_nodes().is_empty());
        // sabotage one interface, re-check only the cone, absorb again
        let v2 = net.topology().node_by_name("v2").unwrap();
        let mut bad = interface.clone();
        bad.set(
            v2,
            Temporal::until_at(
                1,
                |r| r.clone().is_none(),
                Temporal::globally(|r| r.clone().is_some()),
            ),
        );
        let cone = Fingerprints::compute(&net, &interface, &property, 0)
            .dirty_cone(&Fingerprints::compute(&net, &bad, &property, 0));
        let partial = checker.check_nodes(&net, &bad, &property, &cone).unwrap();
        cache.absorb(&partial);
        assert!(!cache.all_verified());
        assert!(cache.failed_nodes().contains(&v2));
        assert!(cache.verdict(v2).is_some_and(|verdict| !verdict.is_verified()));
        // invalidation forgets exactly the named nodes
        cache.invalidate(&[v2]);
        assert_eq!(cache.len(), 3);
        assert!(cache.verdict(v2).is_none());
    }
}
