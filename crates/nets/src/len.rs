//! The `Len` benchmark (Fig. 14b/f): bounded path length.
//!
//! Same policy as `Reach`, stronger property: every node eventually has a
//! route of at most 4 hops — `P_Len(v) ≡ F^4 G(s.len ≤ 4)`. To make the
//! interface inductive it must also rule out "better" spurious routes, so it
//! pins the preference-relevant attributes to their defaults:
//!
//! `A_Len(v) ≡ G(s = ∞ ∨ attrs-default) ⊓ F^{dist(v)} G(s ≠ ∞ ∧ s.len ≤ dist(v))`

use timepiece_algebra::{Network, NetworkBuilder, Symbolic};
use timepiece_core::{NodeAnnotations, Temporal};
use timepiece_expr::{Expr, Type};
use timepiece_topology::FatTree;

use crate::bgp::{BgpSchema, DEFAULT_AD, DEFAULT_LP, DEFAULT_MED};
use crate::fattree_common::{DestSpec, DEST_VAR};
use crate::BenchInstance;

/// Builder for `SpLen`/`ApLen` instances.
#[derive(Debug, Clone)]
pub struct LenBench {
    fattree: FatTree,
    dest: DestSpec,
    schema: BgpSchema,
}

/// "The route's preference attributes are the defaults" — no better routes
/// can appear, which makes path-length reasoning inductive.
fn attrs_default(schema: &BgpSchema, r: &Expr) -> Expr {
    let payload = r.clone().get_some();
    let ad_ok = payload.clone().field("ad").eq(Expr::bv(DEFAULT_AD, 32));
    let lp_ok = schema.lp(&payload).eq(Expr::bv(DEFAULT_LP, 32));
    let med_ok = payload.clone().field("med").eq(Expr::bv(DEFAULT_MED, 32));
    r.clone().is_none().or(ad_ok.and(lp_ok).and(med_ok))
}

impl LenBench {
    /// `SpLen`: route to the `dest_index`-th edge node of a `k`-fattree.
    pub fn single_dest(k: usize, dest_index: usize) -> LenBench {
        let fattree = FatTree::new(k);
        let dest = fattree.edge_nodes().nth(dest_index).expect("edge node index in range");
        LenBench { fattree, dest: DestSpec::Fixed(dest), schema: BgpSchema::new([], []) }
    }

    /// `ApLen`: the destination is a symbolic edge node.
    pub fn all_pairs(k: usize) -> LenBench {
        LenBench {
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

    /// Same network as `Reach` (plain eBGP, incrementing transfer), declared
    /// through the policy IR.
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
        builder.build().expect("len network is well-typed")
    }

    /// `A_Len(v)`: defaults always, then a route within `dist(v)` hops.
    pub fn interface(&self) -> NodeAnnotations {
        let schema = self.schema.clone();
        NodeAnnotations::from_fn(self.fattree.topology(), |v| {
            let dist = self.dest.dist(&self.fattree, v);
            let no_better = {
                let schema = schema.clone();
                Temporal::globally(move |r| attrs_default(&schema, r))
            };
            let arrives = {
                let schema = schema.clone();
                let dist = dist.clone();
                Temporal::finally(
                    dist.clone(),
                    Temporal::globally(move |r| {
                        let len_ok = schema.len(&r.clone().get_some()).le(dist.clone());
                        r.clone().is_some().and(len_ok)
                    }),
                )
            };
            no_better.and(arrives)
        })
    }

    /// `P_Len(v) ≡ F^4 G(s ≠ ∞ ∧ s.len ≤ 4)`.
    pub fn property(&self) -> NodeAnnotations {
        let schema = self.schema.clone();
        NodeAnnotations::new(
            self.fattree.topology(),
            Temporal::finally_at(
                4,
                Temporal::globally(move |r| {
                    let len_ok = schema.len(&r.clone().get_some()).le(Expr::int(4));
                    r.clone().is_some().and(len_ok)
                }),
            ),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timepiece_core::check::{CheckOptions, ModularChecker};

    #[test]
    fn sp_len_verifies_at_k4() {
        let inst = LenBench::single_dest(4, 0).build();
        let report = ModularChecker::new(CheckOptions::default())
            .check(&inst.network, &inst.interface, &inst.property)
            .unwrap();
        assert!(report.is_verified(), "failures: {:?}", report.failures());
    }

    #[test]
    fn ap_len_verifies_at_k4() {
        let inst = LenBench::all_pairs(4).build();
        let report = ModularChecker::new(CheckOptions::default())
            .check(&inst.network, &inst.interface, &inst.property)
            .unwrap();
        assert!(report.is_verified(), "failures: {:?}", report.failures());
    }

    #[test]
    fn dropping_the_no_better_conjunct_breaks_induction() {
        // the paper's point: F^{dist} G(len ≤ dist) alone is NOT inductive,
        // because neighbors could offer preferable (higher-lp) routes
        let bench = LenBench::single_dest(4, 0);
        let inst = bench.build();
        let schema = BgpSchema::new([], []);
        let weak = NodeAnnotations::from_fn(inst.network.topology(), |v| {
            let dist = bench.dest.dist(&bench.fattree, v);
            let schema = schema.clone();
            let dist2 = dist.clone();
            Temporal::finally(
                dist,
                Temporal::globally(move |r| {
                    r.clone().is_some().and(schema.len(&r.clone().get_some()).le(dist2.clone()))
                }),
            )
        });
        let report = ModularChecker::new(CheckOptions::default())
            .check(&inst.network, &weak, &inst.property)
            .unwrap();
        assert!(!report.is_verified(), "weak interface must fail induction");
    }

    #[test]
    fn tighter_property_than_reachable_is_checked() {
        // property asks len ≤ 3: interface admits len = 4 at distance-4
        // nodes, so the SAFETY condition must fail there
        let bench = LenBench::single_dest(4, 0);
        let inst = bench.build();
        let schema = BgpSchema::new([], []);
        let too_tight = NodeAnnotations::new(
            inst.network.topology(),
            Temporal::finally_at(
                4,
                Temporal::globally(move |r| {
                    r.clone().is_some().and(schema.len(&r.clone().get_some()).le(Expr::int(3)))
                }),
            ),
        );
        let report = ModularChecker::new(CheckOptions::default())
            .check(&inst.network, &inst.interface, &too_tight)
            .unwrap();
        assert!(!report.is_verified());
        assert!(report.failures().iter().all(|f| f.vc == timepiece_core::VcKind::Safety));
    }
}
