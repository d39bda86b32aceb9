//! End-to-end acceptance: `timepiece-infer` synthesizes interfaces for the
//! `SpReach` and `SpLen` fattree benchmarks — from the property-only form,
//! with **zero** hand-written annotations — and the modular checker verifies
//! the result.

use timepiece_core::check::{CheckOptions, ModularChecker};
use timepiece_infer::{InferenceEngine, RoleMap};
use timepiece_nets::len::LenBench;
use timepiece_nets::reach::ReachBench;
use timepiece_nets::PropertySpec;
use timepiece_topology::{FatTree, NodeId};

fn infer_and_verify(name: &str, spec: &PropertySpec, ft: &FatTree, dest: NodeId) {
    let roles = RoleMap::fattree(ft, dest);
    let result = InferenceEngine::default()
        .infer(&spec.network, &spec.property, roles, &[timepiece_expr::Env::new()])
        .unwrap_or_else(|e| panic!("{name}: inference aborted: {e}"));
    assert!(
        result.report.verified,
        "{name}: inferred interfaces must verify; failures: {:?}\ntemplates: {:#?}",
        result.report.failures, result.report.role_templates
    );
    // the engine's verdict is not taken on faith: re-check from scratch
    let report = ModularChecker::new(CheckOptions::default())
        .check(&spec.network, &result.interface, &spec.property)
        .unwrap_or_else(|e| panic!("{name}: re-check failed to encode: {e}"));
    assert!(report.is_verified(), "{name}: re-check failures: {:?}", report.failures());
    // role generalization really happened: six templates regardless of k
    assert_eq!(result.report.role_templates.len(), 6, "{name}");
}

fn reach_at(k: usize) {
    let bench = ReachBench::single_dest(k, 0);
    let dest = bench.dest_node().expect("fixed destination");
    infer_and_verify(&format!("SpReach k={k}"), &bench.spec(), &bench.fattree().clone(), dest);
}

fn len_at(k: usize) {
    let bench = LenBench::single_dest(k, 0);
    let dest = bench.dest_node().expect("fixed destination");
    infer_and_verify(&format!("SpLen k={k}"), &bench.spec(), &bench.fattree().clone(), dest);
}

#[test]
fn infers_sp_reach_k4() {
    reach_at(4);
}

#[test]
fn infers_sp_reach_k6() {
    reach_at(6);
}

#[test]
fn infers_sp_reach_k8() {
    reach_at(8);
}

#[test]
fn infers_sp_len_k4() {
    len_at(4);
}

#[test]
fn infers_sp_len_k6() {
    len_at(6);
}

#[test]
fn infers_sp_len_k8() {
    len_at(8);
}

/// Inference-guided delay: under a bounded-delay semantics the synchronous
/// witness times are too tight — the engine must widen them by the delay
/// budget for the inferred interfaces to stay inductive. Each hop may now
/// take up to `1 + delay` units, so the property deadline scales from the
/// diameter 4 to `4 · (1 + delay)` as well.
#[test]
fn infers_sp_reach_k4_under_delay() {
    use timepiece_core::{NodeAnnotations, Temporal};
    use timepiece_infer::{InferOptions, InferenceEngine};

    let bench = ReachBench::single_dest(4, 0);
    let dest = bench.dest_node().expect("fixed destination");
    let spec = bench.spec();
    let delayed = CheckOptions { delay: 1, ..CheckOptions::default() };
    let wide_property = NodeAnnotations::new(
        bench.fattree().topology(),
        Temporal::finally_at(8, Temporal::globally(|r| r.clone().is_some())),
    );

    // the paper's hand-written interface pins the *synchronous* witness
    // times, and is NOT inductive once one unit of delay is allowed — even
    // against the delay-widened deadline…
    let inst = bench.build();
    let hand = ModularChecker::new(delayed.clone())
        .check(&inst.network, &inst.interface, &wide_property)
        .expect("hand-written interfaces encode");
    assert!(!hand.is_verified(), "synchronous witness times must break under delay");

    // …while inference with the same delay budget widens the witness-time
    // ceilings (dist(v) → dist(v)·(1+delay)) and verifies.
    let engine =
        InferenceEngine::new(InferOptions { check: delayed.clone(), ..InferOptions::default() });
    let roles = RoleMap::fattree(bench.fattree(), dest);
    let node_role = roles.clone();
    let result = engine
        .infer(&spec.network, &wide_property, roles, &[timepiece_expr::Env::new()])
        .expect("inference runs");
    assert!(
        result.report.verified,
        "delay-widened inference must verify; failures: {:?}\ntemplates: {:#?}",
        result.report.failures, result.report.role_templates
    );
    // the verdict re-checked from scratch, under the same delay
    let recheck = ModularChecker::new(delayed)
        .check(&spec.network, &result.interface, &wide_property)
        .expect("inferred interfaces encode");
    assert!(recheck.is_verified(), "re-check failures: {:?}", recheck.failures());
    // witness times really are the widened dist: τ(v) = dist(v) · 2
    let ft = bench.fattree();
    for v in ft.topology().nodes() {
        let tau = result.report.role_templates[node_role.role_of(v)].tau;
        assert_eq!(tau, ft.dist(v, dest) * 2, "τ at {}", ft.topology().name(v));
    }
    // what the delayed verdict promises, observed: every seeded run with at
    // most one step of message delay stays inside the interfaces throughout
    let env = timepiece_expr::Env::new();
    for (max_delay, seed) in (0..=1).flat_map(|d| (0..6).map(move |s| (d, s))) {
        let trace = timepiece_sim::simulate_delayed(&spec.network, &env, 64, max_delay, seed)
            .expect("simulates");
        assert!(trace.converged_at().is_some(), "delay {max_delay} seed {seed}");
        for (t, state) in trace.states().iter().enumerate() {
            for v in ft.topology().nodes() {
                let route = timepiece_expr::Expr::constant(state[v.index()].clone());
                let time = timepiece_expr::Expr::int(t as i64);
                let inside = result.interface.get(v).at(&time, &route).eval_bool(&env);
                assert_eq!(
                    inside,
                    Ok(true),
                    "σ({})({t}) escapes its interface at delay {max_delay} seed {seed}",
                    ft.topology().name(v)
                );
            }
        }
    }
}
