//! The `Hijack` benchmark (Fig. 14d/h): route filtering against a hijacker.
//!
//! A `k`-fattree plus one *hijacker* node `h` attached to every core node.
//! `h` represents the Internet and may announce **any** route at any time
//! (its initial route is symbolic and its interface is `G(true)`). The
//! destination edge node originates a route for a *symbolic* internal prefix
//! `p`; core nodes drop routes from `h` claiming prefix `p` but let other
//! routes through. A boolean ghost field `tag` marks routes that passed
//! through `h`.
//!
//! Property: every internal node eventually has an untagged route for `p` —
//! `P_Hijack(v) ≡ F^4 G(s.prefix = p ∧ ¬s.tag)`.
//!
//! **Modelling note.** eBGP keeps a RIB entry *per prefix*; two routes for
//! different prefixes never compete. With one route per node, we reproduce
//! that by making `⊕` prefer routes whose destination is `p` (then the usual
//! attribute comparison). Allowed-through hijacker routes (for other
//! prefixes) still propagate — the ghost tag proves they never shadow `p`.

use timepiece_algebra::{Network, NetworkBuilder, Symbolic};
use timepiece_core::{NodeAnnotations, Temporal};
use timepiece_expr::{Expr, Type};
use timepiece_topology::{FatTree, NodeId, Topology};

use crate::bgp::BgpSchema;
use crate::fattree_common::{DestSpec, DEST_VAR};
use crate::BenchInstance;

/// The symbolic internal prefix variable.
pub const PREFIX_VAR: &str = "prefix";
/// The symbolic initial announcement of the hijacker.
pub const HIJACK_ROUTE_VAR: &str = "hijack-route";
/// The ghost field marking externally-originated routes.
pub const EXTERNAL_TAG: &str = "tag";

/// Builder for `SpHijack`/`ApHijack` instances.
#[derive(Debug, Clone)]
pub struct HijackBench {
    fattree: FatTree,
    dest: DestSpec,
    schema: BgpSchema,
    topology: Topology,
    hijacker: NodeId,
}

impl HijackBench {
    /// `SpHijack` on a `k`-fattree with the given destination edge node.
    pub fn single_dest(k: usize, dest_index: usize) -> HijackBench {
        let fattree = FatTree::new(k);
        let dest = fattree.edge_nodes().nth(dest_index).expect("edge node index in range");
        HijackBench::new(fattree, DestSpec::Fixed(dest))
    }

    /// `ApHijack`: the destination is a symbolic edge node.
    pub fn all_pairs(k: usize) -> HijackBench {
        let fattree = FatTree::new(k);
        HijackBench::new(fattree, DestSpec::Symbolic)
    }

    fn new(fattree: FatTree, dest: DestSpec) -> HijackBench {
        let mut topology = fattree.topology().clone();
        let hijacker = topology.add_node("hijacker");
        let cores: Vec<NodeId> = fattree.core_nodes().collect();
        for c in cores {
            topology.add_undirected(hijacker, c);
        }
        HijackBench { fattree, dest, schema: Self::schema(), topology, hijacker }
    }

    /// The hijack schema: one ghost tag, and a leading merge key modelling
    /// eBGP's per-prefix RIB slots — routes for the internal prefix `p`
    /// never compete with (and always beat) routes for other prefixes.
    fn schema() -> BgpSchema {
        use timepiece_algebra::{MergeKey, RouteGuard};
        BgpSchema::with_leading_keys(
            [],
            [EXTERNAL_TAG],
            [MergeKey::GuardFirst(RouteGuard::FieldEqVar {
                field: "destination".into(),
                var: PREFIX_VAR.into(),
            })],
        )
    }

    /// The underlying fattree (without the hijacker).
    pub fn fattree(&self) -> &FatTree {
        &self.fattree
    }

    /// The hijacker's node id.
    pub fn hijacker(&self) -> NodeId {
        self.hijacker
    }

    /// Assembles the network, interface and property.
    pub fn build(&self) -> BenchInstance {
        BenchInstance {
            network: self.network(),
            interface: self.interface(),
            property: self.property(),
        }
    }

    fn prefix() -> Expr {
        Expr::var(PREFIX_VAR, Type::BitVec(32))
    }

    /// The anti-hijack import policy applied at the cores: drop hijacker
    /// routes claiming the internal prefix, mark everything else external.
    fn import_filter() -> timepiece_algebra::RoutePolicy {
        use timepiece_algebra::{RewriteOp, RouteGuard, RoutePolicy};
        RoutePolicy::new()
            .drop_if(RouteGuard::FieldEqVar { field: "destination".into(), var: PREFIX_VAR.into() })
            .rewrite([RewriteOp::SetBool { field: EXTERNAL_TAG.into(), value: true }])
            .increment("len")
    }

    /// The network: fattree + hijacker, anti-hijack filters at the cores,
    /// prefix-aware selection (the schema's leading `GuardFirst` merge key).
    pub fn network(&self) -> Network {
        let schema = &self.schema;
        let mut builder = NetworkBuilder::from_schema(self.topology.clone(), schema.ir().clone())
            .default_policy(schema.increment_policy());
        for (u, v) in self.topology.edges() {
            if u == self.hijacker {
                builder = builder.policy((u, v), Self::import_filter());
            }
        }
        // initial routes
        for v in self.topology.nodes() {
            if v == self.hijacker {
                builder = builder.init(v, Expr::var(HIJACK_ROUTE_VAR, schema.route_type()));
            } else {
                let originated = schema.originate(Self::prefix());
                builder =
                    builder.init(v, self.dest.is_dest(v).ite(originated, schema.none_route()));
            }
        }
        // symbolics: the internal prefix, the hijacker's announcement, and
        // (for Ap) the destination
        builder = builder
            .symbolic(Symbolic::new(PREFIX_VAR, Type::BitVec(32), None))
            .symbolic(Symbolic::new(HIJACK_ROUTE_VAR, schema.route_type(), None));
        if let Some(c) = self.dest.constraint(&self.fattree) {
            builder = builder.symbolic(Symbolic::new(DEST_VAR, Type::BitVec(32), Some(c)));
        }
        builder.build().expect("hijack network is well-typed")
    }

    /// `A_Hijack`: `G(true)` at the hijacker; internally, the prefix-`p`
    /// route arrives by `dist(v)` and no prefix-`p` route is ever external.
    pub fn interface(&self) -> NodeAnnotations {
        let schema = self.schema.clone();
        NodeAnnotations::from_fn(&self.topology, |v| {
            if v == self.hijacker {
                return Temporal::any();
            }
            let dist = self.dest.dist(&self.fattree, v);
            let never_hijacked = {
                let schema = schema.clone();
                Temporal::globally(move |r| {
                    let payload = r.clone().get_some();
                    let claims_p = schema.destination(&payload).eq(Self::prefix());
                    let tagged = schema.ghost(&payload, EXTERNAL_TAG);
                    r.clone().is_none().or(claims_p.implies(tagged.not()))
                })
            };
            let arrives = {
                let schema = schema.clone();
                Temporal::finally(
                    dist,
                    Temporal::globally(move |r| {
                        let payload = r.clone().get_some();
                        let claims_p = schema.destination(&payload).eq(Self::prefix());
                        let tagged = schema.ghost(&payload, EXTERNAL_TAG);
                        r.clone().is_some().and(claims_p).and(tagged.not())
                    }),
                )
            };
            never_hijacked.and(arrives)
        })
    }

    /// `P_Hijack(v) ≡ F^4 G(s.prefix = p ∧ ¬s.tag)` internally, `G(true)` at
    /// the hijacker.
    pub fn property(&self) -> NodeAnnotations {
        let schema = self.schema.clone();
        NodeAnnotations::from_fn(&self.topology, |v| {
            if v == self.hijacker {
                return Temporal::any();
            }
            let schema = schema.clone();
            Temporal::finally_at(
                4,
                Temporal::globally(move |r| {
                    let payload = r.clone().get_some();
                    let claims_p = schema.destination(&payload).eq(Self::prefix());
                    let tagged = schema.ghost(&payload, EXTERNAL_TAG);
                    r.clone().is_some().and(claims_p).and(tagged.not())
                }),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timepiece_core::check::{CheckOptions, ModularChecker};
    use timepiece_expr::{Env, Value};

    #[test]
    fn sp_hijack_verifies_at_k4() {
        let inst = HijackBench::single_dest(4, 0).build();
        let report = ModularChecker::new(CheckOptions::default())
            .check(&inst.network, &inst.interface, &inst.property)
            .unwrap();
        assert!(report.is_verified(), "failures: {:?}", report.failures());
    }

    #[test]
    fn ap_hijack_verifies_at_k4() {
        let inst = HijackBench::all_pairs(4).build();
        let report = ModularChecker::new(CheckOptions::default())
            .check(&inst.network, &inst.interface, &inst.property)
            .unwrap();
        assert!(report.is_verified(), "failures: {:?}", report.failures());
    }

    #[test]
    fn broken_core_filter_is_caught() {
        // a buggy network whose cores do NOT filter hijacker routes for p:
        // the inductive condition must fail somewhere
        use timepiece_algebra::{RewriteOp, RoutePolicy};
        let bench = HijackBench::single_dest(4, 0);
        let good = bench.build();
        let schema = bench.schema.clone();
        // BUG: marks external routes but forgets the prefix-drop clause
        let leaky_import = RoutePolicy::new()
            .rewrite([RewriteOp::SetBool { field: EXTERNAL_TAG.into(), value: true }])
            .increment("len");
        let mut builder = NetworkBuilder::from_schema(bench.topology.clone(), schema.ir().clone())
            .default_policy(schema.increment_policy());
        for (u, v) in bench.topology.edges() {
            if u == bench.hijacker {
                builder = builder.policy((u, v), leaky_import.clone());
            }
        }
        for v in bench.topology.nodes() {
            if v == bench.hijacker {
                builder = builder.init(v, Expr::var(HIJACK_ROUTE_VAR, schema.route_type()));
            } else {
                let originated = schema.originate(HijackBench::prefix());
                builder =
                    builder.init(v, bench.dest.is_dest(v).ite(originated, schema.none_route()));
            }
        }
        builder = builder
            .symbolic(Symbolic::new(PREFIX_VAR, Type::BitVec(32), None))
            .symbolic(Symbolic::new(HIJACK_ROUTE_VAR, schema.route_type(), None));
        let buggy = builder.build().unwrap();

        let report = ModularChecker::new(CheckOptions::default())
            .check(&buggy, &good.interface, &good.property)
            .unwrap();
        assert!(!report.is_verified(), "missing filter must be caught");
        // the error is localized at core nodes (the hijacker's neighbors)
        for f in report.failures() {
            assert!(
                f.node_name.starts_with("core-"),
                "failure localized at a core, got {}",
                f.node_name
            );
        }
    }

    #[test]
    fn simulation_with_concrete_hijack_attempt() {
        // close the network: hijacker announces the internal prefix with a
        // great (short) path — the filter must stop it
        let bench = HijackBench::single_dest(4, 0);
        let inst = bench.build();
        let schema = &bench.schema;
        let def = schema.record_def();
        let comm_def = def.field_type("comms").unwrap().set_def().unwrap().clone();
        let origin_def = def.field_type("origin").unwrap().enum_def().unwrap().clone();
        let hijack_announcement = Value::some(Value::record(
            def,
            vec![
                Value::bv(7, 32), // claims prefix 7 = the internal prefix below
                Value::bv(crate::bgp::DEFAULT_AD, 32),
                Value::bv(crate::bgp::DEFAULT_LP, 32),
                Value::bv(crate::bgp::DEFAULT_MED, 32),
                Value::enum_variant(&origin_def, "egp"),
                Value::int(0),
                Value::set_of(&comm_def, []),
                Value::Bool(false),
            ],
        ));
        let mut env = Env::new();
        env.bind(PREFIX_VAR, Value::bv(7, 32));
        env.bind(HIJACK_ROUTE_VAR, hijack_announcement);
        let trace = timepiece_sim::simulate(&inst.network, &env, 16).unwrap();
        for v in inst.network.topology().nodes() {
            if v == bench.hijacker {
                continue;
            }
            let stable = trace.state(v, 10);
            let payload = stable.unwrap_or_default().unwrap();
            assert_eq!(payload.field("destination").unwrap().as_bv(), Some(7));
            assert_eq!(
                payload.field(EXTERNAL_TAG).unwrap().as_bool(),
                Some(false),
                "hijacked route won at {}",
                inst.network.topology().name(v)
            );
        }
    }
}
