//! The `BlockToExternal` wide-area benchmark (§6, Internet2).
//!
//! Built on the synthetic Internet2 of `timepiece-topology` (see DESIGN.md
//! for the substitution rationale): 10 backbone routers whose initial routes
//! are fully symbolic ("the internal nodes initially have any possible
//! route"), 253 classified external peers whose initial routes are symbolic
//! but assumed BTE-free.
//!
//! Policies mirror the published shape of Internet2's 1,552 Junos terms:
//! exports to peers drop routes carrying the `BTE` ("block to external")
//! community; imports from peers set the local preference by customer class
//! (commercial > academic > settlement-free), add the class community, and
//! filter a per-peer set of scrubbed communities.
//!
//! Property (and interface — the paper uses `A = P` here):
//! `P(v) ≡ G(s ≠ ∞ → BTE ∉ s.comms)` at external nodes, `G(true)` inside.

use timepiece_algebra::{Network, NetworkBuilder, Symbolic};
use timepiece_core::{NodeAnnotations, Temporal};
use timepiece_expr::Expr;
use timepiece_topology::{NodeId, PeerClass, Wan};

use crate::bgp::BgpSchema;
use crate::BenchInstance;

/// The "block to external" community.
pub const BTE: &str = "bte";
/// Communities scrubbed by import filters, cycled per peer.
pub const SCRUBBED: [&str; 4] = ["scrub0", "scrub1", "scrub2", "scrub3"];

/// Builder for the `BlockToExternal` instance.
#[derive(Debug)]
pub struct WanBench {
    wan: Wan,
    schema: BgpSchema,
}

impl WanBench {
    /// The full-size synthetic Internet2 (10 internal, 253 peers).
    pub fn internet2(seed: u64) -> WanBench {
        WanBench::with_peers(seed, 253)
    }

    /// A scaled variant with a chosen number of peers (for tests).
    pub fn with_peers(seed: u64, peers: usize) -> WanBench {
        let wan = Wan::synthetic(seed, peers);
        let mut comms = vec![BTE, "commercial", "academic", "peer"];
        comms.extend(SCRUBBED);
        WanBench { wan, schema: BgpSchema::new(comms, []) }
    }

    /// The underlying WAN.
    pub fn wan(&self) -> &Wan {
        &self.wan
    }

    fn class_lp(class: PeerClass) -> u64 {
        match class {
            PeerClass::Commercial => 200,
            PeerClass::Academic => 150,
            PeerClass::SettlementFree => 100,
        }
    }

    fn class_tag(class: PeerClass) -> &'static str {
        match class {
            PeerClass::Commercial => "commercial",
            PeerClass::Academic => "academic",
            PeerClass::SettlementFree => "peer",
        }
    }

    fn initial_var(&self, v: NodeId) -> String {
        format!("init-{}", self.wan.topology().name(v))
    }

    /// Assembles the network, interface and property.
    pub fn build(&self) -> BenchInstance {
        let network = self.network();
        let interface = self.block_to_external();
        BenchInstance { network, property: interface.clone(), interface }
    }

    /// The export policy on internal→peer links: drop BTE-tagged routes.
    fn export_policy(schema: &BgpSchema) -> timepiece_algebra::RoutePolicy {
        use timepiece_algebra::RouteGuard;
        schema
            .increment_policy()
            .drop_if(RouteGuard::HasTag { field: "comms".into(), tag: BTE.into() })
    }

    /// The import policy on peer→internal links: filter the peer's scrubbed
    /// community, set the class local-pref and add the class tag.
    fn import_policy(
        schema: &BgpSchema,
        class: PeerClass,
        scrub: &str,
    ) -> timepiece_algebra::RoutePolicy {
        use timepiece_algebra::{RewriteOp, RouteGuard};
        schema
            .increment_policy()
            .drop_if(RouteGuard::HasTag { field: "comms".into(), tag: scrub.into() })
            .rewrite([
                RewriteOp::SetBv { field: "lp".into(), value: Self::class_lp(class) },
                RewriteOp::AddTag { field: "comms".into(), tag: Self::class_tag(class).into() },
            ])
    }

    /// The WAN network with class-based import and BTE export filtering —
    /// every Junos-style term is a declarative policy clause.
    pub fn network(&self) -> Network {
        let schema = &self.schema;
        let g = self.wan.topology().clone();
        let mut builder = NetworkBuilder::from_schema(g, schema.ir().clone())
            .default_policy(schema.increment_policy());
        for (u, v) in self.wan.topology().edges() {
            match (self.wan.is_internal(u), self.wan.is_internal(v)) {
                // backbone link: the plain-increment default policy
                (true, true) => {}
                (true, false) => {
                    builder = builder.policy((u, v), Self::export_policy(schema));
                }
                (false, true) => {
                    let class = self.wan.peer_class(u);
                    let scrub = SCRUBBED[u.index() % SCRUBBED.len()];
                    builder = builder.policy((u, v), Self::import_policy(schema, class, scrub));
                }
                (false, false) => unreachable!("peers only attach to the backbone"),
            }
        }
        // symbolic initial routes everywhere
        for v in self.wan.topology().nodes() {
            let name = self.initial_var(v);
            let var = Expr::var(name.clone(), self.schema.route_type());
            let constraint = if self.wan.is_internal(v) {
                None // any possible route, including ∞
            } else {
                // externals do not start with BTE-tagged routes
                let payload = var.clone().get_some();
                Some(var.clone().is_none().or(self.schema.has_community(&payload, BTE).not()))
            };
            builder = builder.init(v, var).symbolic(Symbolic::new(
                name,
                self.schema.route_type(),
                constraint,
            ));
        }
        builder.build().expect("wan network is well-typed")
    }

    /// `G(s ≠ ∞ → BTE ∉ s.comms)` at external nodes, `G(true)` internally.
    pub fn block_to_external(&self) -> NodeAnnotations {
        let schema = self.schema.clone();
        NodeAnnotations::from_fn(self.wan.topology(), |v| {
            if self.wan.is_internal(v) {
                Temporal::any()
            } else {
                let schema = schema.clone();
                Temporal::globally(move |r| {
                    let has_bte = schema.has_community(&r.clone().get_some(), BTE);
                    r.clone().is_some().implies(has_bte.not())
                })
            }
        })
    }

    /// The number of synthetic policy "terms" (for the Table 2-style
    /// summary): one per filter/action across all edges.
    pub fn policy_term_count(&self) -> usize {
        let externals = self.wan.external_nodes().count();
        // export: 2 terms (match BTE, drop) per internal→external edge;
        // import: 4 terms (scrub match/drop, set lp, add tag) per edge
        externals * 2
            + externals * 4
            + self.wan.topology().edge_count().saturating_sub(externals * 2) // backbone increments
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timepiece_core::check::{CheckOptions, ModularChecker};
    use timepiece_core::monolithic::check_monolithic;
    use timepiece_expr::{Env, Value};

    #[test]
    fn block_to_external_verifies_on_scaled_wan() {
        let bench = WanBench::with_peers(3, 12);
        let inst = bench.build();
        let report = ModularChecker::new(CheckOptions::default())
            .check(&inst.network, &inst.interface, &inst.property)
            .unwrap();
        assert!(report.is_verified(), "failures: {:?}", report.failures());
    }

    #[test]
    fn monolithic_agrees_on_scaled_wan() {
        let bench = WanBench::with_peers(3, 6);
        let inst = bench.build();
        let report = check_monolithic(&inst.network, &inst.property, None).unwrap();
        assert!(report.outcome.is_verified());
    }

    #[test]
    fn missing_export_filter_is_caught_at_the_peer() {
        // rebuild the network with passthrough exports (the bug): now an
        // internal node holding a BTE route leaks it
        let bench = WanBench::with_peers(3, 6);
        let schema = bench.schema.clone();
        let g = bench.wan.topology().clone();
        let mut builder = NetworkBuilder::from_schema(g, schema.ir().clone())
            .default_policy(schema.increment_policy());
        for v in bench.wan.topology().nodes() {
            let name = bench.initial_var(v);
            let var = Expr::var(name.clone(), schema.route_type());
            let constraint = if bench.wan.is_internal(v) {
                None
            } else {
                let payload = var.clone().get_some();
                Some(var.clone().is_none().or(schema.has_community(&payload, BTE).not()))
            };
            builder =
                builder.init(v, var).symbolic(Symbolic::new(name, schema.route_type(), constraint));
        }
        let buggy = builder.build().unwrap();
        let interface = bench.block_to_external();
        let report = ModularChecker::new(CheckOptions::default())
            .check(&buggy, &interface, &interface)
            .unwrap();
        assert!(!report.is_verified());
        // failures are at external peers (the inductive condition)
        for f in report.failures() {
            assert!(f.node_name.starts_with("peer-"), "got {}", f.node_name);
            assert_eq!(f.vc, timepiece_core::VcKind::Inductive);
        }
    }

    #[test]
    fn simulation_of_a_leak_attempt() {
        // close the network: one internal node starts with a BTE route, all
        // other nodes with ∞ — no peer may ever see BTE
        let bench = WanBench::with_peers(1, 9);
        let inst = bench.build();
        let schema = &bench.schema;
        let def = schema.record_def();
        let comm_def = def.field_type("comms").unwrap().set_def().unwrap().clone();
        let origin_def = def.field_type("origin").unwrap().enum_def().unwrap().clone();
        let bte_route = Value::some(Value::record(
            def,
            vec![
                Value::bv(0, 32),
                Value::bv(crate::bgp::DEFAULT_AD, 32),
                Value::bv(100, 32),
                Value::bv(0, 32),
                Value::enum_variant(&origin_def, "igp"),
                Value::int(0),
                Value::set_of(&comm_def, [BTE]),
            ],
        ));
        let mut env = Env::new();
        for v in inst.network.topology().nodes() {
            let name = bench.initial_var(v);
            if v == bench.wan.internal_nodes().next().unwrap() {
                env.bind(name, bte_route.clone());
            } else {
                env.bind(name, Value::default_of(&schema.route_type()));
            }
        }
        let trace = timepiece_sim::simulate(&inst.network, &env, 64).unwrap();
        for p in bench.wan.external_nodes() {
            let stable = trace.state(p, 40);
            if let Some(route) = stable.unwrap_or_default() {
                assert_eq!(
                    route.field("comms").unwrap().contains_tag(BTE),
                    Some(false),
                    "BTE leaked to {}",
                    inst.network.topology().name(p)
                );
            }
        }
    }

    #[test]
    fn full_internet2_shape() {
        let bench = WanBench::internet2(7);
        assert_eq!(bench.wan().internal_nodes().count(), 10);
        assert_eq!(bench.wan().external_nodes().count(), 253);
        assert!(bench.policy_term_count() > 1500);
    }
}
