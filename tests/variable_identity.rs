//! A variable is its name and its type, and nothing else decides it.
//!
//! The encoder names every solver constant itself, so variables whose names
//! extend one another (`x` and `x!`) are never one constant; and a checker
//! pool's workers keep their solver sessions from job to job, so what a
//! warm session declared before must never change a node's verdict: each
//! node is judged by its own three conditions, exactly as
//! [`ModularChecker::check_node`] judges it on a fresh session.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;
use timepiece::algebra::{Network, NetworkBuilder};
use timepiece::core::check::{CheckOptions, ModularChecker};
use timepiece::core::sweep::CheckerPool;
use timepiece::core::vc::time_var;
use timepiece::core::{CoreError, Instance, NodeAnnotations, Temporal, VcKind};
use timepiece::expr::{Expr, Type};
use timepiece::topology::{gen, NodeId};

/// `sp_reach.toml` with its `[property] default` replaced by `property`.
fn sp_reach_with_property(property: &str) -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/scenarios/sp_reach.toml");
    let text = std::fs::read_to_string(path).unwrap();
    let shipped = "[property]\ndefault = \"(finally 4 (globally (is-some route)))\"";
    assert!(text.contains(shipped), "sp_reach.toml changed its property");
    text.replace(shipped, &format!("[property]\ndefault = \"{property}\""))
}

#[test]
fn a_property_over_x_and_x_bang_fails_everywhere_with_real_counterexamples() {
    // false at x = some(1), x! = 2: the payload of `x` and the variable
    // `x!` once shared one solver constant, and the property "verified"
    let aliased = "(globally (or (not (is-some (var x (option int)))) \
                   (= (get-some (var x (option int))) (var x! int))))";
    let compiled = timepiece_scenario::compile_str(&sp_reach_with_property(aliased)).unwrap();
    let Instance { network, interface, property } = compiled.instance();
    let report = ModularChecker::new(CheckOptions::default())
        .check(&network, &interface, &property)
        .unwrap();
    let failing: BTreeSet<NodeId> = report.failures().iter().map(|f| f.node).collect();
    assert_eq!(failing.len(), 20, "every node's safety condition fails");
    for f in report.failures() {
        assert_eq!(f.vc, VcKind::Safety, "{f}");
        let env = f.counterexample().expect("a counterexample, not an unknown");
        let holds = property.get(f.node).at(&time_var(), &network.route_var(f.node));
        assert_eq!(holds.eval_bool(env), Ok(false), "{f}");
    }
}

/// Boolean reachability over an undirected path of `n` nodes from `v0`.
fn reach_net(n: usize) -> Network {
    let g = gen::undirected_path(n);
    let v0 = g.node_by_name("v0").unwrap();
    NetworkBuilder::new(g, Type::Bool)
        .merge(|a, b| a.clone().or(b.clone()))
        .default_transfer(|r| r.clone())
        .init(v0, Expr::bool(true))
        .build()
        .unwrap()
}

/// A free variable's type, by number: `Int`, `Bool`, `Option<Int>`.
fn free_type(choice: u8) -> Type {
    match choice % 3 {
        0 => Type::Int,
        1 => Type::Bool,
        _ => Type::option(Type::Int),
    }
}

/// A predicate over the free variable `name: ty`: a tautology, or one
/// that some value of the variable falsifies.
fn over(name: &str, ty: &Type, tautology: bool) -> Expr {
    let x = Expr::var(name, ty.clone());
    let atom = match ty {
        Type::Int => x.ge(Expr::int(0)),
        Type::Bool => x,
        _ => x.clone().is_none().or(x.get_some().ge(Expr::int(0))),
    };
    if tautology {
        atom.clone().or(atom.not())
    } else {
        atom
    }
}

/// One node's annotations: the type of its property's free `x` (`3`: `x`
/// at both `Int` and `Bool`, a clash within the node's own conditions) and
/// whether that property is a tautology.
type NodeChoice = (u8, bool);

/// The exact reachability interface of `reach_net(n)`, each node's also
/// claiming a tautology over a free `z: z_type`, and per node the property
/// `choices` describe.
fn instance(n: usize, z_type: u8, choices: &[NodeChoice]) -> Arc<Instance> {
    let network = reach_net(n);
    let z = free_type(z_type);
    let interface = NodeAnnotations::from_fn(network.topology(), |v| {
        let z = z.clone();
        let has_route = move |r: &Expr| r.clone().and(over("z", &z, true));
        match v.index() {
            0 => Temporal::globally(has_route),
            t => Temporal::until_at(t as u64, |r| r.clone().not(), Temporal::globally(has_route)),
        }
    });
    let property = NodeAnnotations::from_fn(network.topology(), |v| {
        let (x_type, tautology) = choices[v.index() % choices.len()];
        Temporal::globally(move |_| match x_type {
            3 => over("x", &Type::Int, tautology).and(over("x", &Type::Bool, true)),
            ty => over("x", &free_type(ty), tautology),
        })
    });
    Arc::new(Instance { network, interface, property })
}

type Failing = BTreeSet<(String, String)>;

/// What [`ModularChecker::check_node`] finds node by node: the failing
/// (node, condition) pairs, or the error of every node that has one.
fn node_by_node(instance: &Instance) -> Result<Failing, Vec<CoreError>> {
    let Instance { network, interface, property } = instance;
    let checker = ModularChecker::new(CheckOptions::default());
    let (mut failing, mut errors) = (Failing::new(), Vec::new());
    for v in network.topology().nodes() {
        match checker.check_node(network, interface, property, v) {
            Ok((failures, _)) => {
                failing.extend(failures.iter().map(|f| (f.node_name.clone(), f.vc.to_string())));
            }
            Err(e) => errors.push(e),
        }
    }
    if errors.is_empty() {
        Ok(failing)
    } else {
        Err(errors)
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// One warm pool checks a sequence of instances whose annotations
    /// declare free variables at types that differ from node to node and
    /// from instance to instance: each instance gets exactly the verdicts
    /// of its nodes checked alone.
    #[test]
    fn a_warm_pool_judges_each_node_by_its_own_conditions(
        workers in 1usize..3,
        sequence in proptest::collection::vec(
            (3usize..6, 0u8..3, proptest::collection::vec((0u8..4, 0u8..3), 1..4)),
            2..5,
        ),
    ) {
        let mut pool = CheckerPool::new(workers, CheckOptions::default());
        for (n, z_type, choices) in sequence {
            let choices: Vec<NodeChoice> = choices
                .into_iter()
                .map(|(x_type, tautology)| (x_type, tautology > 0))
                .collect();
            let instance = instance(n, z_type, &choices);
            match (pool.check(&instance), node_by_node(&instance)) {
                (Ok(report), Ok(alone)) => {
                    let pooled: Failing = report
                        .failures()
                        .iter()
                        .map(|f| (f.node_name.clone(), f.vc.to_string()))
                        .collect();
                    prop_assert_eq!(pooled, alone);
                }
                (Err(e), Err(errors)) => prop_assert!(errors.contains(&e), "{e:?} vs {errors:?}"),
                (pooled, alone) => panic!("the pool says {pooled:?}, the nodes alone {alone:?}"),
            }
            prop_assert!(pool.session_stats().sessions <= workers);
        }
    }
}
