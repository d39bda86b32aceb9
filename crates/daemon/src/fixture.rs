//! Small self-contained instances for tests, docs and smoke runs.
//!
//! The daemon's integration tests (and the CI smoke step) need a policy-mode
//! instance that checks in milliseconds but still exercises every delta
//! kind: edge-policy overrides, link up/down, witness-time edits and — when
//! built with a budget — failure-budget changes. A hop-count path fits: the
//! routes are `Option<{len: Int}>` records, every edge increments `len`,
//! and node `v_i`'s interface says "no route until time `i`, then a route
//! forever" — exact, so sabotage is detectable.

use timepiece_algebra::policy::{FailureModel, MergeKey, RoutePolicy, RouteSchema};
use timepiece_algebra::NetworkBuilder;
use timepiece_core::{Instance, NodeAnnotations, Temporal};
use timepiece_expr::{Expr, Type};
use timepiece_topology::gen;

/// A hop-count instance on an undirected path of `n` nodes, destination
/// `v0`, with the exact per-node reachability interface. With
/// `budget: Some(f)` every edge gets a failure bit under an at-most-`f`
/// assumption (the exact interface then *fails* at some nodes — useful for
/// equivalence tests, which compare verdicts rather than demand success).
///
/// # Panics
///
/// Panics if `n < 2` (no edges to edit).
pub fn hop_path(n: usize, budget: Option<u64>) -> Instance {
    assert!(n >= 2, "a hop path needs at least one edge");
    let schema =
        RouteSchema::new("Hop", [("len".to_owned(), Type::Int)], [MergeKey::Lower("len".into())]);
    let g = gen::undirected_path(n);
    let dest = g.node_by_name("v0").unwrap();
    let edges: Vec<_> = g.edges().collect();
    let origin = Expr::record(schema.record_def(), vec![Expr::int(0)]).some();
    let mut builder = NetworkBuilder::from_schema(g, schema)
        .default_policy(RoutePolicy::new().increment("len"))
        .init(dest, origin);
    if let Some(f) = budget {
        builder = builder.failures(FailureModel::at_most(f, edges));
    }
    let network = builder.build().unwrap();
    let interface = NodeAnnotations::from_fn(network.topology(), |v| {
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
    let property = NodeAnnotations::new(network.topology(), Temporal::any());
    Instance { network, interface, property }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timepiece_core::check::{CheckOptions, ModularChecker};

    #[test]
    fn the_failure_free_fixture_verifies() {
        let instance = hop_path(4, None);
        let report = ModularChecker::new(CheckOptions::default())
            .check(&instance.network, &instance.interface, &instance.property)
            .unwrap();
        assert!(report.is_verified());
    }

    #[test]
    fn the_faulty_fixture_fails_somewhere() {
        // with a failure budget the exact interface is too strong: a downed
        // edge delays the route past the promised witness time
        let instance = hop_path(4, Some(1));
        let report = ModularChecker::new(CheckOptions::default())
            .check(&instance.network, &instance.interface, &instance.property)
            .unwrap();
        assert!(!report.is_verified());
    }
}
