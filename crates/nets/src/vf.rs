//! The `Vf` benchmark (Fig. 13, Fig. 14c/g): valley-free reachability.
//!
//! Policy: `Reach` plus valley prevention — routes crossing a *down* edge
//! (core→aggregation or aggregation→edge) are tagged with the community `D`
//! ("down"), and *up* edges drop tagged routes, so no route descends into an
//! intermediate pod and climbs back up.
//!
//! The interface pins routes to exactly the legitimate shortest path
//! (`lp = 100 ∧ len = dist(v)`) and requires that nodes adjacent to the
//! destination only share untagged routes:
//!
//! `A_Vf(v) ≡ s = ∞ U^{dist(v)} G(attrs ∧ len = dist(v) ∧ (adj(v) → ¬s.down))`

use timepiece_algebra::{Network, NetworkBuilder, Symbolic};
use timepiece_core::{NodeAnnotations, Temporal};
use timepiece_expr::{Expr, Type};
use timepiece_topology::FatTree;

use crate::bgp::{BgpSchema, DEFAULT_AD, DEFAULT_LP, DEFAULT_MED};
use crate::fattree_common::{DestSpec, DEST_VAR};
use crate::BenchInstance;

/// The community used to mark routes that traversed a down edge.
pub const DOWN: &str = "down";

/// Builder for `SpVf`/`ApVf` instances.
#[derive(Debug, Clone)]
pub struct VfBench {
    fattree: FatTree,
    dest: DestSpec,
    schema: BgpSchema,
}

impl VfBench {
    /// `SpVf`: route to the `dest_index`-th edge node of a `k`-fattree.
    pub fn single_dest(k: usize, dest_index: usize) -> VfBench {
        let fattree = FatTree::new(k);
        let dest = fattree.edge_nodes().nth(dest_index).expect("edge node index in range");
        VfBench { fattree, dest: DestSpec::Fixed(dest), schema: BgpSchema::new([DOWN], []) }
    }

    /// `ApVf`: the destination is a symbolic edge node.
    pub fn all_pairs(k: usize) -> VfBench {
        VfBench {
            fattree: FatTree::new(k),
            dest: DestSpec::Symbolic,
            schema: BgpSchema::new([DOWN], []),
        }
    }

    /// The underlying fattree.
    pub fn fattree(&self) -> &FatTree {
        &self.fattree
    }

    /// Assembles the network, interface and property.
    pub fn build(&self) -> BenchInstance {
        BenchInstance {
            network: self.network(),
            interface: self.interface(),
            property: self.property(),
        }
    }

    /// The valley-free network: down edges tag `D`, up edges drop tagged
    /// routes — two declarative policies assigned by edge direction.
    pub fn network(&self) -> Network {
        use timepiece_algebra::{RewriteOp, RouteGuard, RoutePolicy};
        let schema = &self.schema;
        let down_policy = RoutePolicy::new()
            .increment("len")
            .rewrite([RewriteOp::AddTag { field: "comms".into(), tag: DOWN.into() }]);
        let up_policy = RoutePolicy::new()
            .drop_if(RouteGuard::HasTag { field: "comms".into(), tag: DOWN.into() })
            .increment("len");
        let mut builder =
            NetworkBuilder::from_schema(self.fattree.topology().clone(), schema.ir().clone());
        for (u, v) in self.fattree.topology().edges() {
            let policy = if self.fattree.is_down_edge(u, v) {
                down_policy.clone()
            } else {
                up_policy.clone()
            };
            builder = builder.policy((u, v), policy);
        }
        for v in self.fattree.topology().nodes() {
            let originated = schema.originate(Expr::bv(0, 32));
            builder = builder.init(v, self.dest.is_dest(v).ite(originated, schema.none_route()));
        }
        if let Some(c) = self.dest.constraint(&self.fattree) {
            builder = builder.symbolic(Symbolic::new(DEST_VAR, Type::BitVec(32), Some(c)));
        }
        builder.build().expect("vf network is well-typed")
    }

    /// `A_Vf(v)`: no route strictly before `dist(v)`, then exactly the
    /// legitimate route, untagged when `v` is adjacent to the destination.
    pub fn interface(&self) -> NodeAnnotations {
        let schema = self.schema.clone();
        NodeAnnotations::from_fn(self.fattree.topology(), |v| {
            let dist = self.dest.dist(&self.fattree, v);
            let adj = self.dest.adjacent(&self.fattree, v);
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
                        .and(schema.lp(&payload).eq(Expr::bv(DEFAULT_LP, 32)))
                        .and(payload.clone().field("med").eq(Expr::bv(DEFAULT_MED, 32)));
                    let exact_len = schema.len(&payload).eq(dist2.clone());
                    let untagged_if_adj =
                        adj.clone().implies(schema.has_community(&payload, DOWN).not());
                    r.clone().is_some().and(attrs).and(exact_len).and(untagged_if_adj)
                }),
            )
        })
    }

    /// Same reachability property as `Reach`: `F^4 G(s ≠ ∞)`.
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
    use timepiece_expr::Env;

    #[test]
    fn sp_vf_verifies_at_k4() {
        let inst = VfBench::single_dest(4, 0).build();
        let report = ModularChecker::new(CheckOptions::default())
            .check(&inst.network, &inst.interface, &inst.property)
            .unwrap();
        assert!(report.is_verified(), "failures: {:?}", report.failures());
    }

    #[test]
    fn ap_vf_verifies_at_k4() {
        let inst = VfBench::all_pairs(4).build();
        let report = ModularChecker::new(CheckOptions::default())
            .check(&inst.network, &inst.interface, &inst.property)
            .unwrap();
        assert!(report.is_verified(), "failures: {:?}", report.failures());
    }

    #[test]
    fn simulation_shows_no_valley_routes() {
        // simulate and confirm: every stable route's length equals dist(v),
        // i.e. nothing took an up-down-up valley detour
        let bench = VfBench::single_dest(4, 0);
        let inst = bench.build();
        let dest = match bench.dest {
            DestSpec::Fixed(d) => d,
            DestSpec::Symbolic => unreachable!(),
        };
        let trace = timepiece_sim::simulate(&inst.network, &Env::new(), 16).unwrap();
        for v in inst.network.topology().nodes() {
            let stable = trace.state(v, 8);
            let payload = stable.unwrap_or_default().unwrap();
            assert_eq!(
                payload.field("len").unwrap().as_int().unwrap() as u64,
                bench.fattree.dist(v, dest),
                "valley detour at {}",
                inst.network.topology().name(v)
            );
        }
    }

    #[test]
    fn loose_length_interface_fails_vf_induction() {
        // replacing len = dist by len ≤ dist admits the spurious short
        // tagged routes the paper warns about, breaking induction
        let bench = VfBench::single_dest(4, 0);
        let inst = bench.build();
        let schema = BgpSchema::new([DOWN], []);
        let loose = NodeAnnotations::from_fn(inst.network.topology(), |v| {
            let dist = bench.dest.dist(&bench.fattree, v);
            let adj = bench.dest.adjacent(&bench.fattree, v);
            let schema = schema.clone();
            let dist2 = dist.clone();
            Temporal::until(
                dist,
                |r| r.clone().is_none(),
                Temporal::globally(move |r| {
                    let payload = r.clone().get_some();
                    let le_len = schema.len(&payload).le(dist2.clone());
                    let untagged_if_adj =
                        adj.clone().implies(schema.has_community(&payload, DOWN).not());
                    r.clone().is_some().and(le_len).and(untagged_if_adj)
                }),
            )
        });
        let report = ModularChecker::new(CheckOptions::default())
            .check(&inst.network, &loose, &inst.property)
            .unwrap();
        assert!(!report.is_verified());
    }
}
