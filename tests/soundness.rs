//! Property-based tests of the paper's metatheory (§3):
//!
//! * **Completeness** (Theorem 3.3): for a closed network, the exact
//!   stepwise interface `A(v)(t) = {σ(v)(t)}` built from a simulation trace
//!   always satisfies the initial and inductive conditions.
//! * **Soundness** (Theorem 3.1, contrapositive): an interface that
//!   *excludes* a state the simulator actually reaches can never pass the
//!   checker — if it did, the soundness theorem would be violated.
//!
//! * **Soundness under bounded delay** (§4): the same contrapositive for the
//!   delayed inductive condition, against seeded delayed executions — an
//!   interface excluding a state some execution with at most `d` steps of
//!   message delay reaches can never pass the checker at `delay = d`.
//!
//! Networks are random boolean-reachability instances: random connected
//! topologies, a random originating node, and random per-edge drop filters.

use proptest::prelude::*;
use timepiece::algebra::{Network, NetworkBuilder};
use timepiece::core::check::{CheckOptions, ModularChecker};
use timepiece::core::{NodeAnnotations, Temporal};
use timepiece::expr::{Env, Expr, Type, Value};
use timepiece::sim::{simulate, simulate_delayed, Trace};
use timepiece::topology::{gen, NodeId, Topology};

/// A randomly generated boolean-reachability network description.
#[derive(Debug, Clone)]
struct RandomNet {
    nodes: usize,
    extra_edges: Vec<(usize, usize)>,
    origin: usize,
    dropped_edges: Vec<bool>,
}

fn random_net() -> impl Strategy<Value = RandomNet> {
    (2usize..6)
        .prop_flat_map(|nodes| {
            let edges = proptest::collection::vec((0..nodes, 0..nodes), 0..6);
            let origin = 0..nodes;
            (Just(nodes), edges, origin)
        })
        .prop_flat_map(|(nodes, extra_edges, origin)| {
            // enough drop flags for path edges + extras (deduped later)
            let max_edges = 2 * (nodes - 1) + extra_edges.len();
            let drops = proptest::collection::vec(any::<bool>(), max_edges);
            (Just(nodes), Just(extra_edges), Just(origin), drops)
        })
        .prop_map(|(nodes, extra_edges, origin, dropped_edges)| RandomNet {
            nodes,
            extra_edges,
            origin,
            dropped_edges,
        })
}

fn build(desc: &RandomNet) -> Network {
    let mut g = Topology::new();
    let ids: Vec<NodeId> = (0..desc.nodes).map(|i| g.add_node(format!("v{i}"))).collect();
    // connected backbone
    for w in ids.windows(2) {
        g.add_undirected(w[0], w[1]);
    }
    for &(a, b) in &desc.extra_edges {
        if a != b && !g.succs(ids[a]).contains(&ids[b]) {
            g.add_edge(ids[a], ids[b]);
        }
    }
    let edges: Vec<(NodeId, NodeId)> = g.edges().collect();
    let mut builder = NetworkBuilder::new(g, Type::Bool)
        .merge(|a, b| a.clone().or(b.clone()))
        .init(ids[desc.origin], Expr::bool(true));
    for (i, (u, v)) in edges.into_iter().enumerate() {
        let dropped = desc.dropped_edges.get(i).copied().unwrap_or(false);
        builder =
            builder.transfer((u, v), move |r| if dropped { Expr::bool(false) } else { r.clone() });
    }
    builder.build().expect("random reach network is well-typed")
}

/// Per-node value sequences up to one step past convergence.
fn node_traces(net: &Network) -> Vec<Vec<Value>> {
    let trace = simulate(net, &Env::new(), 64).expect("closed network simulates");
    per_node(net, &trace, trace.states().len())
}

/// Per-node value sequences of a converged run over `horizon` steps; the
/// trace saturates at its stable state beyond its own length.
fn per_node(net: &Network, trace: &Trace, horizon: usize) -> Vec<Vec<Value>> {
    assert!(trace.converged_at().is_some(), "reach network converges");
    net.topology()
        .nodes()
        .map(|v| (0..horizon).map(|t| trace.state(v, t).clone()).collect())
        .collect()
}

/// Exact interfaces from per-node sequences, except that `σ(v)(t)` is
/// claimed to be its opposite.
fn exact_but_flipped(net: &Network, traces: &[Vec<Value>], v: usize, t: usize) -> NodeAnnotations {
    NodeAnnotations::from_fn(net.topology(), |u| {
        let mut claimed = traces[u.index()].clone();
        if u.index() == v {
            let actual = claimed[t].as_bool().expect("bool route");
            claimed[t] = Value::Bool(!actual);
        }
        Temporal::from_trace(&claimed)
    })
}

fn verified_with_delay(net: &Network, interface: &NodeAnnotations, delay: u64) -> bool {
    ModularChecker::new(CheckOptions { delay, ..CheckOptions::default() })
        .check(net, interface, interface)
        .expect("check runs")
        .is_verified()
}

/// The directed path `v0 → v1` with `I(v0) = true`: at step 1 every
/// delivery is `σ(v0)(0)`, however stale, so `σ(v1)(1) = true` in every
/// execution. An interface (and property) claiming `v1` has no route before
/// time 2 must be rejected at every delay — the delayed inductive condition
/// once assumed `t ≥ 0` and so never checked steps `1..=delay`.
#[test]
fn delay_does_not_hide_the_first_steps() {
    let g = gen::path(2);
    let v0 = g.node_by_name("v0").unwrap();
    let net = NetworkBuilder::new(g, Type::Bool)
        .merge(|a, b| a.clone().or(b.clone()))
        .default_transfer(|r| r.clone())
        .init(v0, Expr::bool(true))
        .build()
        .unwrap();
    let v1 = net.topology().node_by_name("v1").unwrap();
    let mut interface = NodeAnnotations::new(net.topology(), Temporal::globally(|r| r.clone()));
    interface.set(v1, Temporal::until_at(2, |r| r.clone().not(), Temporal::any()));
    for delay in 0..=2 {
        for seed in 0..4 {
            let trace = simulate_delayed(&net, &Env::new(), 16, delay, seed).unwrap();
            assert_eq!(trace.state(v1, 1), &Value::Bool(true), "delay {delay} seed {seed}");
        }
        assert!(
            !verified_with_delay(&net, &interface, delay as u64),
            "σ(v1)(1) = true is excluded, yet delay {delay} verified"
        );
    }
}

/// Delay 0 is the synchronous semantics on every registry scenario, the
/// policy fast path included, whatever the schedule's seed.
#[test]
fn zero_delay_runs_equal_simulate_on_registry_scenarios() {
    use timepiece_bench::runner::{fattree_instance, BenchKind};
    for kind in BenchKind::all() {
        let net = fattree_instance(kind, 4).network;
        let env = timepiece_scenario::closing_env(&net);
        let sync = simulate(&net, &env, 64).expect("registry scenario simulates");
        assert!(sync.converged_at().is_some(), "{}", kind.name());
        for seed in [0, 7, 1 << 40] {
            let delayed = simulate_delayed(&net, &env, 64, 0, seed).unwrap();
            assert_eq!(delayed.states(), sync.states(), "{} seed {seed}", kind.name());
            assert_eq!(delayed.converged_at(), sync.converged_at());
        }
    }
}

proptest! {
    // The explicit rng_seed pins every generated network: CI runs are
    // reproducible and a failure here always replays locally.
    #![proptest_config(ProptestConfig { cases: 12, rng_seed: 0x0071_313e_9ece_0001 })]

    /// Theorem 3.3: exact trace interfaces always verify.
    #[test]
    fn exact_trace_interfaces_always_verify(desc in random_net()) {
        let net = build(&desc);
        let traces = node_traces(&net);
        let interface = NodeAnnotations::from_fn(net.topology(), |v| {
            Temporal::from_trace(&traces[v.index()])
        });
        let report = ModularChecker::new(CheckOptions::default())
            .check(&net, &interface, &interface)
            .expect("check runs");
        prop_assert!(report.is_verified(), "failures: {:?}", report.failures());
    }

    /// Theorem 3.1 (contrapositive): interfaces excluding a reached state
    /// are always rejected.
    #[test]
    fn interfaces_excluding_reached_states_are_rejected(
        desc in random_net(),
        victim in any::<prop::sample::Index>(),
        time in any::<prop::sample::Index>(),
    ) {
        let net = build(&desc);
        let traces = node_traces(&net);
        let horizon = traces[0].len();
        let v = victim.index(net.topology().node_count());
        let t = time.index(horizon);
        // exact interfaces everywhere, except at (v, t): claim the opposite
        let interface = exact_but_flipped(&net, &traces, v, t);
        prop_assert!(
            !verified_with_delay(&net, &interface, 0),
            "an interface excluding σ({v})({t}) was accepted — soundness violated"
        );
    }

    /// The monolithic baseline accepts what simulation guarantees: the
    /// simulated stable state is the least fixpoint of the boolean reach
    /// equations, so every stable state covers it. (Note the baseline could
    /// NOT check the exact interfaces — self-sustaining loops admit larger
    /// stable states, the very imprecision §2 discusses.)
    #[test]
    fn monolithic_accepts_least_fixpoint_lower_bound(desc in random_net()) {
        let net = build(&desc);
        let traces = node_traces(&net);
        let property = NodeAnnotations::from_fn(net.topology(), |v| {
            let reached = traces[v.index()]
                .last()
                .and_then(Value::as_bool)
                .expect("bool route");
            if reached {
                Temporal::globally(|r| r.clone())
            } else {
                Temporal::any()
            }
        });
        let report = timepiece::core::monolithic::check_monolithic(&net, &property, None)
            .expect("check runs");
        prop_assert!(report.outcome.is_verified());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, rng_seed: 0x0071_313e_9ece_0002 })]

    /// Soundness under bounded delay (§4, contrapositive): a seeded run with
    /// up to `d` steps of message delay is one of the executions the delayed
    /// inductive condition quantifies over, so an interface excluding a
    /// state it reaches must be rejected at `delay = d`. Two such interfaces
    /// per run: the run's exact interface with one `(v, t)` flipped, and —
    /// when delay changed the run — the exact interface of the synchronous
    /// run.
    #[test]
    fn delayed_interfaces_excluding_reached_states_are_rejected(
        desc in random_net(),
        delay in 1usize..3,
        seed in 0u64..u64::MAX,
        victim in any::<prop::sample::Index>(),
        time in any::<prop::sample::Index>(),
    ) {
        let net = build(&desc);
        let delayed = simulate_delayed(&net, &Env::new(), 64, delay, seed).expect("simulates");
        let sync = simulate(&net, &Env::new(), 64).expect("simulates");
        let horizon = delayed.states().len().max(sync.states().len());
        let reached = per_node(&net, &delayed, horizon);

        let v = victim.index(net.topology().node_count());
        let t = time.index(delayed.states().len());
        let flipped = exact_but_flipped(&net, &reached, v, t);
        prop_assert!(
            !verified_with_delay(&net, &flipped, delay as u64),
            "an interface excluding σ({v})({t}) of a delay-{delay} run was accepted"
        );

        let synchronous = per_node(&net, &sync, horizon);
        if synchronous != reached {
            let exact = NodeAnnotations::from_fn(net.topology(), |u| {
                Temporal::from_trace(&synchronous[u.index()])
            });
            prop_assert!(
                !verified_with_delay(&net, &exact, delay as u64),
                "the synchronous interface excludes states of a delay-{delay} run, yet verified"
            );
        }
    }
}
