//! The `Ad` benchmark: IGP/EGP interaction through administrative distance.
//!
//! The destination pod runs an interior protocol alongside eBGP: its
//! aggregation switches *start* with an IGP-learned route to the destination
//! (administrative distance 110, origin `igp`), while the destination itself
//! originates the eBGP route (AD 20, origin `egp`). Both protocols' routes
//! flood the fattree — transfers preserve the distance of the protocol that
//! introduced a route — so at every node the AD step of the decision process
//! must resolve the product: the eBGP route wins the moment it arrives,
//! *regardless* of the IGP route's other attributes.
//!
//! Property: the network converges to the exterior protocol everywhere —
//! `P_Ad(v) ≡ F^4 G(s ≠ ∞ ∧ s.ad = 20 ∧ s.origin = egp)`. The interface
//! captures the protocol race exactly:
//!
//! `A_Ad(v) ≡ (s = ∞ ∨ (s.ad = 110 ∧ s.origin = igp)) U^{dist(v)}
//!            G(s.ad = 20 ∧ s.origin = egp ∧ attrs ∧ len = dist(v))`
//!
//! — before its witness time a node holds nothing or an IGP route; from
//! `dist(v)` on, exactly the eBGP route.

use timepiece_algebra::{Network, NetworkBuilder, Symbolic};
use timepiece_core::{NodeAnnotations, Temporal};
use timepiece_expr::{Expr, Type};
use timepiece_topology::{FatTree, FatTreeRole};

use crate::bgp::{BgpSchema, Origin, DEFAULT_LP, DEFAULT_MED};
use crate::fattree_common::{DestSpec, DEST_VAR};
use crate::BenchInstance;

/// The administrative distance of eBGP-learned routes.
pub const EBGP_AD: u64 = 20;
/// The administrative distance of IGP-learned routes (OSPF-style).
pub const IGP_AD: u64 = 110;

/// Builder for `SpAd`/`ApAd` instances.
#[derive(Debug, Clone)]
pub struct AdBench {
    fattree: FatTree,
    dest: DestSpec,
    schema: BgpSchema,
}

impl AdBench {
    /// `SpAd`: route to the `dest_index`-th edge node of a `k`-fattree.
    pub fn single_dest(k: usize, dest_index: usize) -> AdBench {
        let fattree = FatTree::new(k);
        let dest = fattree.edge_nodes().nth(dest_index).expect("edge node index in range");
        AdBench { fattree, dest: DestSpec::Fixed(dest), schema: BgpSchema::new([], []) }
    }

    /// `ApAd`: the destination is a symbolic edge node.
    pub fn all_pairs(k: usize) -> AdBench {
        AdBench {
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

    /// The network: plain eBGP transfers; the destination originates the
    /// eBGP route, its pod's aggregation switches start with IGP routes.
    pub fn network(&self) -> Network {
        let schema = &self.schema;
        let ft = &self.fattree;
        let mut builder = NetworkBuilder::from_schema(ft.topology().clone(), schema.ir().clone())
            .default_policy(schema.increment_policy());
        for v in ft.topology().nodes() {
            let init = match ft.role(v) {
                FatTreeRole::Aggregation { pod } => {
                    // one IGP hop from the destination when it is in our pod
                    let igp = schema.originate_with(Expr::bv(0, 32), IGP_AD, Origin::Igp, 1);
                    self.dest.dest_in_pod(ft, pod).ite(igp, schema.none_route())
                }
                _ => {
                    let ebgp = schema.originate_with(Expr::bv(0, 32), EBGP_AD, Origin::Egp, 0);
                    self.dest.is_dest(v).ite(ebgp, schema.none_route())
                }
            };
            builder = builder.init(v, init);
        }
        if let Some(c) = self.dest.constraint(ft) {
            builder = builder.symbolic(Symbolic::new(DEST_VAR, Type::BitVec(32), Some(c)));
        }
        builder.build().expect("ad network is well-typed")
    }

    /// `A_Ad(v)`: nothing or an IGP route before `dist(v)`, exactly the
    /// eBGP route after.
    pub fn interface(&self) -> NodeAnnotations {
        let schema = self.schema.clone();
        NodeAnnotations::from_fn(self.fattree.topology(), |v| {
            let dist = self.dest.dist(&self.fattree, v);
            let dist2 = dist.clone();
            let before_schema = schema.clone();
            let after_schema = schema.clone();
            Temporal::until(
                dist,
                move |r| {
                    let payload = r.clone().get_some();
                    let igp = payload
                        .clone()
                        .field("ad")
                        .eq(Expr::bv(IGP_AD, 32))
                        .and(before_schema.origin_is(&payload, Origin::Igp));
                    r.clone().is_none().or(igp)
                },
                Temporal::globally(move |r| {
                    let payload = r.clone().get_some();
                    let ebgp = payload
                        .clone()
                        .field("ad")
                        .eq(Expr::bv(EBGP_AD, 32))
                        .and(after_schema.origin_is(&payload, Origin::Egp));
                    let attrs = after_schema
                        .lp(&payload)
                        .eq(Expr::bv(DEFAULT_LP, 32))
                        .and(payload.clone().field("med").eq(Expr::bv(DEFAULT_MED, 32)));
                    let exact_len = after_schema.len(&payload).eq(dist2.clone());
                    r.clone().is_some().and(ebgp).and(attrs).and(exact_len)
                }),
            )
        })
    }

    /// `P_Ad(v) ≡ F^4 G(s ≠ ∞ ∧ s.ad = 20 ∧ s.origin = egp)`.
    pub fn property(&self) -> NodeAnnotations {
        let schema = self.schema.clone();
        NodeAnnotations::new(
            self.fattree.topology(),
            Temporal::finally_at(
                4,
                Temporal::globally(move |r| {
                    let payload = r.clone().get_some();
                    let ebgp = payload
                        .clone()
                        .field("ad")
                        .eq(Expr::bv(EBGP_AD, 32))
                        .and(schema.origin_is(&payload, Origin::Egp));
                    r.clone().is_some().and(ebgp)
                }),
            ),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timepiece_core::check::{CheckOptions, ModularChecker};
    use timepiece_expr::Env;

    #[test]
    fn sp_ad_verifies_at_k4() {
        let inst = AdBench::single_dest(4, 0).build();
        let report = ModularChecker::new(CheckOptions::default())
            .check(&inst.network, &inst.interface, &inst.property)
            .unwrap();
        assert!(report.is_verified(), "failures: {:?}", report.failures());
    }

    #[test]
    fn ap_ad_verifies_at_k4() {
        let inst = AdBench::all_pairs(4).build();
        let report = ModularChecker::new(CheckOptions::default())
            .check(&inst.network, &inst.interface, &inst.property)
            .unwrap();
        assert!(report.is_verified(), "failures: {:?}", report.failures());
    }

    #[test]
    fn simulation_shows_the_protocol_handover() {
        let bench = AdBench::single_dest(4, 0);
        let inst = bench.build();
        let trace = timepiece_sim::simulate(&inst.network, &Env::new(), 16).unwrap();
        let g = inst.network.topology();
        // at t = 0 the destination pod's aggregation switches hold IGP routes
        let dest_pod_aggs: Vec<_> = bench
            .fattree
            .aggregation_nodes()
            .filter(|&v| matches!(bench.fattree.role(v), FatTreeRole::Aggregation { pod: 0 }))
            .collect();
        for &a in &dest_pod_aggs {
            let r0 = trace.state(a, 0).unwrap_or_default().unwrap();
            assert_eq!(r0.field("ad").unwrap().as_bv(), Some(IGP_AD), "{} at t=0", g.name(a));
            // one step later eBGP has taken over (AD 20 < 110)
            let r1 = trace.state(a, 1).unwrap_or_default().unwrap();
            assert_eq!(r1.field("ad").unwrap().as_bv(), Some(EBGP_AD), "{} at t=1", g.name(a));
        }
        // and the stable state is eBGP everywhere
        for v in g.nodes() {
            let stable = trace.state(v, 8).unwrap_or_default().unwrap();
            assert_eq!(stable.field("ad").unwrap().as_bv(), Some(EBGP_AD), "{}", g.name(v));
            assert_eq!(stable.field("origin").unwrap().to_string(), "egp");
        }
    }

    #[test]
    fn property_fails_without_the_ebgp_origination() {
        // a network where the destination also originates via IGP only:
        // nothing ever has AD 20, the safety condition must reject
        let bench = AdBench::single_dest(4, 0);
        let schema = bench.schema.clone();
        let ft = bench.fattree.clone();
        let mut builder = NetworkBuilder::from_schema(ft.topology().clone(), schema.ir().clone())
            .default_policy(schema.increment_policy());
        for v in ft.topology().nodes() {
            let igp = schema.originate_with(Expr::bv(0, 32), IGP_AD, Origin::Igp, 0);
            builder = builder.init(v, bench.dest.is_dest(v).ite(igp, schema.none_route()));
        }
        let igp_only = builder.build().unwrap();
        // interface that matches the IGP-only behavior exactly…
        let loose = NodeAnnotations::from_fn(ft.topology(), |v| {
            let dist = bench.dest.dist(&bench.fattree, v);
            Temporal::finally(dist, Temporal::globally(|r| r.clone().is_some()))
        });
        // …still cannot prove the eBGP property
        let report = ModularChecker::new(CheckOptions::default())
            .check(&igp_only, &loose, &bench.property())
            .unwrap();
        assert!(!report.is_verified());
        assert!(report.failures().iter().all(|f| f.vc == timepiece_core::VcKind::Safety));
    }
}
