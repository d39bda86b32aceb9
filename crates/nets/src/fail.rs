//! The `Fail` benchmark: reachability under bounded link failures.
//!
//! Every uplink of the destination — the `k/2` links into its pod's
//! aggregation planes — gets a symbolic failure boolean, under the global
//! assumption that **at most one** of them is down
//! ([`timepiece_algebra::FailureModel`]). A failed link transfers `∞`, so
//! the plane it feeds must learn the destination's route the long way
//! round: through the pod's other edge switches, two time steps later.
//!
//! Witness times and path lengths become *failure-conditional expressions*:
//! with plane `g`'s uplink down, the plane-`g` chain (destination-pod
//! aggregation → its cores → other pods' plane-`g` aggregation) runs 2 units
//! late at path length +2, while every other node is rescued by plane
//! redundancy on schedule:
//!
//! | node | τ = len, link up | τ = len, link down |
//! |---|---|---|
//! | destination | 0 | 0 |
//! | dest-pod aggregation (plane g) | 1 | 3 |
//! | dest-pod edge | 2 | 2 |
//! | core (plane g) | 2 | 4 |
//! | other-pod aggregation (plane g) | 3 | 5 |
//! | other-pod edge | 4 | 4 |
//!
//! Property: the network still converges — `P_Fail(v) ≡ F^5 G(s ≠ ∞)` —
//! under *every* single-failure scenario at once (the failure booleans are
//! symbolic in every verification condition).
//!
//! Requires `k ≥ 4`: with a single plane (`k = 2`) one failure partitions
//! the destination.

use timepiece_algebra::{FailureModel, Network, NetworkBuilder};
use timepiece_core::{NodeAnnotations, Temporal};
use timepiece_expr::Expr;
use timepiece_topology::{FatTree, FatTreeRole, NodeId};

use crate::bgp::{BgpSchema, DEFAULT_AD, DEFAULT_LP, DEFAULT_MED};
use crate::BenchInstance;

/// Builder for `SpFail` instances.
#[derive(Debug, Clone)]
pub struct FailBench {
    fattree: FatTree,
    dest: NodeId,
    schema: BgpSchema,
}

impl FailBench {
    /// `SpFail`: route to the `dest_index`-th edge node of a `k`-fattree,
    /// tolerating one failed destination uplink.
    ///
    /// # Panics
    ///
    /// Panics for `k < 4` (no plane redundancy).
    pub fn single_dest(k: usize, dest_index: usize) -> FailBench {
        assert!(k >= 4, "failure tolerance needs k >= 4 (plane redundancy)");
        let fattree = FatTree::new(k);
        let dest = fattree.edge_nodes().nth(dest_index).expect("edge node index in range");
        FailBench { fattree, dest, schema: BgpSchema::new([], []) }
    }

    /// The underlying fattree.
    pub fn fattree(&self) -> &FatTree {
        &self.fattree
    }

    /// The fixed destination node.
    pub fn dest_node(&self) -> NodeId {
        self.dest
    }

    /// The destination's pod.
    fn dest_pod(&self) -> usize {
        match self.fattree.role(self.dest) {
            FatTreeRole::Edge { pod } => pod,
            _ => unreachable!("destination is an edge node"),
        }
    }

    /// The tracked edges: the destination's uplinks, in plane order.
    pub fn tracked_edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut uplinks: Vec<(usize, NodeId)> = self
            .fattree
            .topology()
            .succs(self.dest)
            .iter()
            .filter(|&&a| matches!(self.fattree.role(a), FatTreeRole::Aggregation { .. }))
            .map(|&a| (self.fattree.group(a), a))
            .collect();
        uplinks.sort_unstable();
        uplinks.into_iter().map(|(_, a)| (self.dest, a)).collect()
    }

    /// The failure model: at most one destination uplink down.
    pub fn failure_model(&self) -> FailureModel {
        FailureModel::at_most(1, self.tracked_edges())
    }

    /// Assembles the network, interface and property.
    pub fn build(&self) -> BenchInstance {
        BenchInstance {
            network: self.network(),
            interface: self.interface(),
            property: self.property(),
        }
    }

    /// The network: plain eBGP with the failure model on the destination's
    /// uplinks.
    pub fn network(&self) -> Network {
        let schema = &self.schema;
        let ft = &self.fattree;
        let mut builder = NetworkBuilder::from_schema(ft.topology().clone(), schema.ir().clone())
            .default_policy(schema.increment_policy())
            .failures(self.failure_model());
        for v in ft.topology().nodes() {
            let originated = schema.originate(Expr::bv(0, 32));
            let init = if v == self.dest { originated } else { schema.none_route() };
            builder = builder.init(v, init);
        }
        builder.build().expect("fail network is well-typed")
    }

    /// The failure bit of the uplink into plane `g`.
    fn fail_var(&self, plane: usize) -> Expr {
        FailureModel::var(self.fattree.topology(), self.tracked_edges()[plane])
    }

    /// The failure-conditional witness time / path length of a node (they
    /// coincide on shortest-path routing): see the module table.
    pub fn witness(&self, v: NodeId) -> Expr {
        let dest_pod = self.dest_pod();
        let late = |plane: usize, on_time: i64| {
            self.fail_var(plane).ite(Expr::int(on_time + 2), Expr::int(on_time))
        };
        match self.fattree.role(v) {
            _ if v == self.dest => Expr::int(0),
            FatTreeRole::Aggregation { pod } if pod == dest_pod => late(self.fattree.group(v), 1),
            FatTreeRole::Edge { pod } if pod == dest_pod => Expr::int(2),
            FatTreeRole::Core => late(self.fattree.group(v), 2),
            FatTreeRole::Aggregation { .. } => late(self.fattree.group(v), 3),
            FatTreeRole::Edge { .. } => Expr::int(4),
        }
    }

    /// `A_Fail(v)`: no route before the failure-conditional witness time,
    /// exactly the (possibly detoured) shortest route after.
    pub fn interface(&self) -> NodeAnnotations {
        let schema = self.schema.clone();
        NodeAnnotations::from_fn(self.fattree.topology(), |v| {
            let tau = self.witness(v);
            let len = tau.clone();
            let schema = schema.clone();
            Temporal::until(
                tau,
                |r| r.clone().is_none(),
                Temporal::globally(move |r| {
                    let payload = r.clone().get_some();
                    let attrs = payload
                        .clone()
                        .field("ad")
                        .eq(Expr::bv(DEFAULT_AD, 32))
                        .and(schema.lp(&payload).eq(Expr::bv(DEFAULT_LP, 32)))
                        .and(payload.clone().field("med").eq(Expr::bv(DEFAULT_MED, 32)));
                    let exact_len = schema.len(&payload).eq(len.clone());
                    r.clone().is_some().and(attrs).and(exact_len)
                }),
            )
        })
    }

    /// `P_Fail(v) ≡ F^5 G(s ≠ ∞)`: reachable despite any tolerated failure
    /// (one step later than the failure-free diameter).
    pub fn property(&self) -> NodeAnnotations {
        NodeAnnotations::new(
            self.fattree.topology(),
            Temporal::finally_at(5, Temporal::globally(|r| r.clone().is_some())),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timepiece_core::check::{CheckOptions, ModularChecker};
    use timepiece_expr::Env;

    #[test]
    fn sp_fail_verifies_at_k4() {
        let inst = FailBench::single_dest(4, 0).build();
        let report = ModularChecker::new(CheckOptions::default())
            .check(&inst.network, &inst.interface, &inst.property)
            .unwrap();
        assert!(report.is_verified(), "failures: {:?}", report.failures());
    }

    #[test]
    fn failure_bits_are_symbolic_with_a_budget() {
        let bench = FailBench::single_dest(4, 0);
        let net = bench.network();
        assert_eq!(net.symbolics().len(), 2, "one bit per destination uplink");
        assert_eq!(
            net.symbolic_constraints().len(),
            2,
            "every failure bit carries the shared at-most-f constraint"
        );
        assert_eq!(bench.failure_model().budget(), 1);
    }

    #[test]
    fn simulation_matches_the_witness_table_per_scenario() {
        let bench = FailBench::single_dest(4, 0);
        let inst = bench.build();
        let g = inst.network.topology();
        let model = bench.failure_model();
        let scenarios: Vec<Vec<(NodeId, NodeId)>> = std::iter::once(Vec::new())
            .chain(bench.tracked_edges().into_iter().map(|e| vec![e]))
            .collect();
        for down in scenarios {
            let mut env = Env::new();
            model.bind_failures(g, &mut env, &down);
            let trace = timepiece_sim::simulate(&inst.network, &env, 16).unwrap();
            for v in g.nodes() {
                let stable = trace.state(v, 10);
                assert_eq!(stable.is_some_option(), Some(true), "{} unreachable", g.name(v));
                let expected = bench.witness(v).eval(&env).unwrap().as_int().unwrap();
                let len =
                    stable.unwrap_or_default().unwrap().field("len").unwrap().as_int().unwrap();
                assert_eq!(len, expected, "stable len at {} under {down:?}", g.name(v));
                // the route also *arrives* exactly at the witness time
                let before = trace.state(v, (expected.max(1) - 1) as usize);
                if expected > 0 {
                    assert_eq!(
                        before.is_some_option(),
                        Some(false),
                        "{} had an early route under {down:?}",
                        g.name(v)
                    );
                }
            }
        }
    }

    #[test]
    fn two_failures_break_the_budget_and_the_interface() {
        // the interface is only sound under the at-most-1 assumption: a
        // network with budget 2 admits a double failure that partitions the
        // plane chain past the promised witness times
        let bench = FailBench::single_dest(4, 0);
        let schema = bench.schema.clone();
        let ft = bench.fattree.clone();
        let mut builder = NetworkBuilder::from_schema(ft.topology().clone(), schema.ir().clone())
            .default_policy(schema.increment_policy())
            .failures(FailureModel::at_most(2, bench.tracked_edges()));
        for v in ft.topology().nodes() {
            let originated = schema.originate(Expr::bv(0, 32));
            let init = if v == bench.dest { originated } else { schema.none_route() };
            builder = builder.init(v, init);
        }
        let loose_budget = builder.build().unwrap();
        let report = ModularChecker::new(CheckOptions::default())
            .check(&loose_budget, &bench.interface(), &bench.property())
            .unwrap();
        assert!(!report.is_verified(), "budget 2 must break the single-failure interface");
    }
}
