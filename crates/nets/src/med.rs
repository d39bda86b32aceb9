//! The `Med` benchmark: multi-exit discrimination across fattree planes.
//!
//! The destination's uplinks advertise per-exit MEDs: the policy of every
//! edge-layer uplink into plane-`j` aggregation stamps `med := j` on routes
//! that are still fresh (`len = 0`, i.e. coming straight from the
//! originator). Routes then ride the plane they entered — aggregation and
//! core switches of plane `j` stabilize on `med = j` — until they descend to
//! an edge switch, which hears **all** planes at equal AS-path length and
//! must use the MED step of the decision process to pick the lowest exit.
//!
//! Property: every edge switch eventually selects the lowest-MED exit —
//! `P_Med(v) ≡ F^4 G(s ≠ ∞ ∧ s.med = 0)` at edge nodes, reachability
//! elsewhere. The interface pins each node's route exactly (Vf-style):
//!
//! `A_Med(v) ≡ s = ∞ U^{dist(v)} G(attrs ∧ len = dist(v) ∧ med = medval(v))`
//!
//! where `medval(v)` is 0 at edge switches and the plane index at
//! aggregation and core switches.

use timepiece_algebra::{
    ClauseAction, Network, NetworkBuilder, RewriteOp, RouteGuard, RoutePolicy, Symbolic,
};
use timepiece_core::{NodeAnnotations, Temporal};
use timepiece_expr::{Expr, Type};
use timepiece_topology::{FatTree, FatTreeRole};

use crate::bgp::{BgpSchema, DEFAULT_AD, DEFAULT_LP};
use crate::fattree_common::{DestSpec, DEST_VAR};
use crate::BenchInstance;

/// Builder for `SpMed`/`ApMed` instances.
#[derive(Debug, Clone)]
pub struct MedBench {
    fattree: FatTree,
    dest: DestSpec,
    schema: BgpSchema,
}

impl MedBench {
    /// `SpMed`: route to the `dest_index`-th edge node of a `k`-fattree.
    pub fn single_dest(k: usize, dest_index: usize) -> MedBench {
        let fattree = FatTree::new(k);
        let dest = fattree.edge_nodes().nth(dest_index).expect("edge node index in range");
        MedBench { fattree, dest: DestSpec::Fixed(dest), schema: BgpSchema::new([], []) }
    }

    /// `ApMed`: the destination is a symbolic edge node.
    pub fn all_pairs(k: usize) -> MedBench {
        MedBench {
            fattree: FatTree::new(k),
            dest: DestSpec::Symbolic,
            schema: BgpSchema::new([], []),
        }
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
        BenchInstance {
            network: self.network(),
            interface: self.interface(),
            property: self.property(),
        }
    }

    /// The exit-advertisement policy of an uplink into plane `j`: stamp
    /// `med := j` on fresh routes, then increment.
    fn uplink_policy(plane: usize) -> RoutePolicy {
        RoutePolicy::new()
            .when(
                RouteGuard::IntEq { field: "len".into(), value: 0 },
                ClauseAction::Rewrite(vec![RewriteOp::SetBv {
                    field: "med".into(),
                    value: plane as u64,
                }]),
            )
            .increment("len")
    }

    /// The network: plain eBGP plus per-plane exit MEDs on the edge-layer
    /// uplinks.
    pub fn network(&self) -> Network {
        let schema = &self.schema;
        let ft = &self.fattree;
        let mut builder = NetworkBuilder::from_schema(ft.topology().clone(), schema.ir().clone())
            .default_policy(schema.increment_policy());
        for (u, v) in ft.topology().edges() {
            if let (FatTreeRole::Edge { .. }, FatTreeRole::Aggregation { .. }) =
                (ft.role(u), ft.role(v))
            {
                builder = builder.policy((u, v), Self::uplink_policy(ft.group(v)));
            }
        }
        for v in ft.topology().nodes() {
            let originated = schema.originate(Expr::bv(0, 32));
            builder = builder.init(v, self.dest.is_dest(v).ite(originated, schema.none_route()));
        }
        if let Some(c) = self.dest.constraint(ft) {
            builder = builder.symbolic(Symbolic::new(DEST_VAR, Type::BitVec(32), Some(c)));
        }
        builder.build().expect("med network is well-typed")
    }

    /// The stable MED of a node: 0 at edge switches (lowest exit wins), the
    /// plane index at aggregation and core switches.
    pub fn medval(&self, v: timepiece_topology::NodeId) -> u64 {
        match self.fattree.role(v) {
            FatTreeRole::Edge { .. } => 0,
            FatTreeRole::Aggregation { .. } | FatTreeRole::Core => self.fattree.group(v) as u64,
        }
    }

    /// `A_Med(v)`: no route before `dist(v)`, then exactly the legitimate
    /// route of the node's plane.
    pub fn interface(&self) -> NodeAnnotations {
        let schema = self.schema.clone();
        NodeAnnotations::from_fn(self.fattree.topology(), |v| {
            let dist = self.dest.dist(&self.fattree, v);
            let medval = self.medval(v);
            let schema = schema.clone();
            let dist2 = dist.clone();
            Temporal::until(
                dist,
                |r| r.clone().is_none(),
                Temporal::globally(move |r| {
                    let payload = r.clone().get_some();
                    let attrs = payload
                        .clone()
                        .field("ad")
                        .eq(Expr::bv(DEFAULT_AD, 32))
                        .and(schema.lp(&payload).eq(Expr::bv(DEFAULT_LP, 32)));
                    let exact_len = schema.len(&payload).eq(dist2.clone());
                    let exact_med = schema.med(&payload).eq(Expr::bv(medval, 32));
                    r.clone().is_some().and(attrs).and(exact_len).and(exact_med)
                }),
            )
        })
    }

    /// `P_Med`: edge switches settle on the lowest exit (`med = 0`),
    /// everyone is eventually reachable.
    pub fn property(&self) -> NodeAnnotations {
        let schema = self.schema.clone();
        NodeAnnotations::from_fn(self.fattree.topology(), |v| {
            let is_edge = matches!(self.fattree.role(v), FatTreeRole::Edge { .. });
            let schema = schema.clone();
            Temporal::finally_at(
                4,
                Temporal::globally(move |r| {
                    let lowest_exit = schema.med(&r.clone().get_some()).eq(Expr::bv(0, 32));
                    let med_ok = if is_edge { lowest_exit } else { Expr::bool(true) };
                    r.clone().is_some().and(med_ok)
                }),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timepiece_core::check::{CheckOptions, ModularChecker};
    use timepiece_expr::Env;

    #[test]
    fn sp_med_verifies_at_k4() {
        let inst = MedBench::single_dest(4, 0).build();
        let report = ModularChecker::new(CheckOptions::default())
            .check(&inst.network, &inst.interface, &inst.property)
            .unwrap();
        assert!(report.is_verified(), "failures: {:?}", report.failures());
    }

    #[test]
    fn ap_med_verifies_at_k4() {
        let inst = MedBench::all_pairs(4).build();
        let report = ModularChecker::new(CheckOptions::default())
            .check(&inst.network, &inst.interface, &inst.property)
            .unwrap();
        assert!(report.is_verified(), "failures: {:?}", report.failures());
    }

    #[test]
    fn simulation_confirms_lowest_exit_selection() {
        let bench = MedBench::single_dest(4, 0);
        let inst = bench.build();
        let trace = timepiece_sim::simulate(&inst.network, &Env::new(), 16).unwrap();
        assert!(trace.converged_at().unwrap() <= 4);
        for v in inst.network.topology().nodes() {
            let stable = trace.state(v, 8).unwrap_or_default().unwrap();
            assert_eq!(
                stable.field("med").unwrap().as_bv(),
                Some(bench.medval(v)),
                "med at {}",
                inst.network.topology().name(v)
            );
        }
    }

    #[test]
    fn ignoring_med_in_the_interface_breaks_induction() {
        // without the exact med pin, planes can masquerade for one another
        // and the edge property med = 0 stops being provable
        let bench = MedBench::single_dest(4, 0);
        let inst = bench.build();
        let schema = BgpSchema::new([], []);
        let loose = NodeAnnotations::from_fn(inst.network.topology(), |v| {
            let dist = bench.dest.dist(&bench.fattree, v);
            let schema = schema.clone();
            let dist2 = dist.clone();
            Temporal::until(
                dist,
                |r| r.clone().is_none(),
                Temporal::globally(move |r| {
                    let exact_len = schema.len(&r.clone().get_some()).eq(dist2.clone());
                    r.clone().is_some().and(exact_len)
                }),
            )
        });
        let report = ModularChecker::new(CheckOptions::default())
            .check(&inst.network, &loose, &inst.property)
            .unwrap();
        assert!(!report.is_verified());
    }
}
