//! The `Reach` benchmark (Fig. 14a/e): every node eventually has a route.
//!
//! Policy: plain eBGP, transfer increments the path length. Property:
//! `P_Reach(v) ≡ F^4 G(s ≠ ∞)` (4 = the fattree diameter). Interface:
//! `A_Reach(v) ≡ F^{dist(v)} G(s ≠ ∞)`.

use timepiece_algebra::{Network, NetworkBuilder, Symbolic};
use timepiece_core::{NodeAnnotations, Temporal};
use timepiece_expr::{Expr, Type};
use timepiece_topology::FatTree;

use crate::bgp::BgpSchema;
use crate::fattree_common::{DestSpec, DEST_VAR};
use crate::BenchInstance;

/// Builder for `SpReach`/`ApReach` instances.
#[derive(Debug, Clone)]
pub struct ReachBench {
    fattree: FatTree,
    dest: DestSpec,
    schema: BgpSchema,
}

impl ReachBench {
    /// `SpReach`: route to the `dest_index`-th edge node of a `k`-fattree.
    pub fn single_dest(k: usize, dest_index: usize) -> ReachBench {
        let fattree = FatTree::new(k);
        let dest = fattree.edge_nodes().nth(dest_index).expect("edge node index in range");
        ReachBench { fattree, dest: DestSpec::Fixed(dest), schema: ReachBench::schema() }
    }

    /// `ApReach`: the destination is a symbolic edge node.
    pub fn all_pairs(k: usize) -> ReachBench {
        ReachBench {
            fattree: FatTree::new(k),
            dest: DestSpec::Symbolic,
            schema: ReachBench::schema(),
        }
    }

    fn schema() -> BgpSchema {
        BgpSchema::new([], [])
    }

    /// The underlying fattree.
    pub fn fattree(&self) -> &FatTree {
        &self.fattree
    }

    /// The fixed destination node (`None` for the all-pairs variant).
    pub fn dest_node(&self) -> Option<timepiece_topology::NodeId> {
        match self.dest {
            DestSpec::Fixed(d) => Some(d),
            DestSpec::Symbolic => None,
        }
    }

    /// Assembles the network, interface and property.
    pub fn build(&self) -> BenchInstance {
        let network = self.network();
        let interface = self.interface();
        let property = self.property();
        BenchInstance { network, interface, property }
    }

    /// The network alone (plain eBGP with incrementing transfer), declared
    /// through the policy IR: the schema's merge keys are `⊕` and one
    /// default [`timepiece_algebra::RoutePolicy`] is every edge's transfer.
    pub fn network(&self) -> Network {
        let schema = &self.schema;
        let mut builder =
            NetworkBuilder::from_schema(self.fattree.topology().clone(), schema.ir().clone())
                .default_policy(schema.increment_policy());
        for v in self.fattree.topology().nodes() {
            let originated = schema.originate(Expr::bv(0, 32));
            builder = builder.init(v, self.dest.is_dest(v).ite(originated, schema.none_route()));
        }
        if let Some(c) = self.dest.constraint(&self.fattree) {
            builder = builder.symbolic(Symbolic::new(DEST_VAR, Type::BitVec(32), Some(c)));
        }
        builder.build().expect("reach network is well-typed")
    }

    /// `A_Reach(v) ≡ F^{dist(v)} G(s ≠ ∞)`.
    pub fn interface(&self) -> NodeAnnotations {
        NodeAnnotations::from_fn(self.fattree.topology(), |v| {
            let dist = self.dest.dist(&self.fattree, v);
            Temporal::finally(dist, Temporal::globally(|r| r.clone().is_some()))
        })
    }

    /// `P_Reach(v) ≡ F^4 G(s ≠ ∞)`.
    pub fn property(&self) -> NodeAnnotations {
        NodeAnnotations::new(
            self.fattree.topology(),
            Temporal::finally_at(4, Temporal::globally(|r| r.clone().is_some())),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timepiece_core::check::{CheckOptions, ModularChecker};
    use timepiece_core::monolithic::check_monolithic;

    #[test]
    fn sp_reach_verifies_at_k4() {
        let bench = ReachBench::single_dest(4, 0);
        let inst = bench.build();
        let report = ModularChecker::new(CheckOptions::default())
            .check(&inst.network, &inst.interface, &inst.property)
            .unwrap();
        assert!(report.is_verified(), "failures: {:?}", report.failures());
    }

    #[test]
    fn sp_reach_verifies_for_last_edge_node() {
        let bench = ReachBench::single_dest(4, 7);
        let inst = bench.build();
        let report = ModularChecker::new(CheckOptions::default())
            .check(&inst.network, &inst.interface, &inst.property)
            .unwrap();
        assert!(report.is_verified(), "failures: {:?}", report.failures());
    }

    #[test]
    fn ap_reach_verifies_at_k4() {
        let bench = ReachBench::all_pairs(4);
        let inst = bench.build();
        let report = ModularChecker::new(CheckOptions::default())
            .check(&inst.network, &inst.interface, &inst.property)
            .unwrap();
        assert!(report.is_verified(), "failures: {:?}", report.failures());
    }

    #[test]
    fn monolithic_agrees_on_sp_reach() {
        let inst = ReachBench::single_dest(4, 0).build();
        let report = check_monolithic(&inst.network, &inst.property, None).unwrap();
        assert!(report.outcome.is_verified());
    }

    #[test]
    fn too_early_witness_time_is_rejected() {
        // claim every node has a route from time 0: fails at non-dest nodes
        let bench = ReachBench::single_dest(4, 0);
        let inst = bench.build();
        let bad = NodeAnnotations::new(
            inst.network.topology(),
            Temporal::globally(|r| r.clone().is_some()),
        );
        let report = ModularChecker::new(CheckOptions::default())
            .check(&inst.network, &bad, &inst.property)
            .unwrap();
        assert!(!report.is_verified());
        // the initial condition pinpoints every non-destination node
        let initial_failures =
            report.failures().iter().filter(|f| f.vc == timepiece_core::VcKind::Initial).count();
        assert_eq!(initial_failures, inst.network.topology().node_count() - 1);
    }

    #[test]
    fn simulation_confirms_the_verified_property() {
        use timepiece_expr::Env;
        let bench = ReachBench::single_dest(4, 0);
        let inst = bench.build();
        let trace = timepiece_sim::simulate(&inst.network, &Env::new(), 16).unwrap();
        assert!(trace.converged_at().unwrap() <= 4);
        for v in inst.network.topology().nodes() {
            assert_eq!(trace.state(v, 4).is_some_option(), Some(true));
        }
    }
}
