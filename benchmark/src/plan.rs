//! Seeded inputs and their known answers.
//!
//! A [`ScenarioPlan`] is one network to verify: a registry scenario at a
//! size, with a seeded destination and seeded *sabotaged* nodes. Sabotage
//! tightens the property at a core or aggregation node (never a destination)
//! to demand a route at time 0. The interface admits "no route" there at
//! time 0, and of the paper's three conditions only that node's safety
//! condition mentions its property — so the nodes that must fail are exactly
//! the sabotaged ones. That answer is known before anything is checked.

use timepiece_core::check::{CheckReport, FailureReason};
use timepiece_core::Temporal;
use timepiece_expr::{Expr, Value};
use timepiece_nets::fattree_common::DEST_VAR;
use timepiece_nets::{
    ad::AdBench, fail::FailBench, hijack::HijackBench, len::LenBench, med::MedBench,
    reach::ReachBench, vf::VfBench, BenchInstance,
};
use timepiece_topology::FatTree;
use timepiece_trace::Json;

use crate::util::Rng;

/// The thirteen registry scenarios, by the names `repro` uses.
#[cfg(test)]
pub const REGISTRY: [&str; 13] = [
    "SpReach", "SpLen", "SpVf", "SpHijack", "ApReach", "ApLen", "ApVf", "ApHijack", "SpMed",
    "ApMed", "SpAd", "ApAd", "SpFail",
];

/// Builds registry scenario `kind` on a `k`-fattree. `dest` indexes the
/// fattree's edge nodes; all-pairs scenarios ignore it.
///
/// # Panics
///
/// Panics on a name outside [`REGISTRY`] — plans only hold registry names.
pub fn build_registry(kind: &str, k: usize, dest: usize) -> BenchInstance {
    match kind {
        "SpReach" => ReachBench::single_dest(k, dest).build(),
        "SpLen" => LenBench::single_dest(k, dest).build(),
        "SpVf" => VfBench::single_dest(k, dest).build(),
        "SpHijack" => HijackBench::single_dest(k, dest).build(),
        "SpMed" => MedBench::single_dest(k, dest).build(),
        "SpAd" => AdBench::single_dest(k, dest).build(),
        "SpFail" => FailBench::single_dest(k, dest).build(),
        "ApReach" => ReachBench::all_pairs(k).build(),
        "ApLen" => LenBench::all_pairs(k).build(),
        "ApVf" => VfBench::all_pairs(k).build(),
        "ApHijack" => HijackBench::all_pairs(k).build(),
        "ApMed" => MedBench::all_pairs(k).build(),
        "ApAd" => AdBench::all_pairs(k).build(),
        other => panic!("{other:?} is not a registry scenario"),
    }
}

/// One seeded verification problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioPlan {
    pub kind: &'static str,
    pub k: usize,
    /// Index among the fattree's edge nodes.
    pub dest: usize,
    /// Names of the nodes whose property is tightened; the expected failing
    /// set. Sorted.
    pub sabotaged: Vec<String>,
}

impl ScenarioPlan {
    /// Draws the destination and `sabotage` distinct core/aggregation nodes.
    pub fn draw(kind: &'static str, k: usize, sabotage: usize, rng: &mut Rng) -> ScenarioPlan {
        let ft = FatTree::new(k);
        let dest = rng.below(ft.edge_nodes().count());
        let mut eligible: Vec<String> = ft
            .core_nodes()
            .chain(ft.aggregation_nodes())
            .map(|v| ft.topology().name(v).to_owned())
            .collect();
        let mut sabotaged: Vec<String> =
            (0..sabotage.min(eligible.len())).map(|_| rng.take(&mut eligible)).collect();
        sabotaged.sort();
        ScenarioPlan { kind, k, dest, sabotaged }
    }

    pub fn label(&self) -> String {
        format!("{} k={}", self.kind, self.k)
    }

    /// The instance, with the sabotage applied.
    pub fn build(&self) -> BenchInstance {
        self.build_at(self.dest)
    }

    /// The destination of a timed check, the `draw`-th of its run: the
    /// fractional part of `draw * step` of the way round the edge nodes.
    ///
    /// What a check costs depends on where the destination sits, by a tenth
    /// and more. A run that kept its seeded destination would measure its
    /// seed's luck, and the spread over seeds would say nothing about noise.
    /// With an irrational `step` any stretch of draws covers the destinations
    /// evenly, and every run, whatever its seed, visits them in the same
    /// order: the seed picks the sabotaged nodes and the orders, and the one
    /// destination of the layer walk, the simulator oracle and the daemon.
    pub fn dest_of_draw(&self, draw: usize, step: f64) -> usize {
        let n = FatTree::new(self.k).edge_nodes().count();
        ((draw as f64 * step).fract() * n as f64) as usize
    }

    /// The instance at another destination. Sabotaged nodes are never edge
    /// nodes, so the known answer does not depend on the destination.
    pub fn build_at(&self, dest: usize) -> BenchInstance {
        let mut inst = build_registry(self.kind, self.k, dest);
        for name in &self.sabotaged {
            let v = inst.network.topology().node_by_name(name).expect("sabotaged node exists");
            let tightened =
                inst.property.get(v).clone().and(Temporal::globally(|r| r.clone().is_some()));
            inst.property.set(v, tightened);
        }
        inst
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("kind", Json::str(self.kind)),
            ("k", Json::from(self.k)),
            ("dest", Json::from(self.dest)),
            ("failing", Json::arr(self.sabotaged.iter().map(|s| Json::str(s.clone())))),
        ])
    }
}

/// The names of the nodes a report failed, sorted and deduplicated, and how
/// many conditions the solver gave up on.
pub fn failing_nodes(report: &CheckReport) -> (Vec<String>, usize) {
    let mut names: Vec<String> = report.failures().iter().map(|f| f.node_name.clone()).collect();
    names.sort();
    names.dedup();
    let unknown =
        report.failures().iter().filter(|f| matches!(f.reason, FailureReason::Unknown(_))).count();
    (names, unknown)
}

/// How many node verdicts differ between what a check reported and the
/// known answer (plus solver give-ups, which are nobody's right answer).
pub fn wrong_verdicts(report: &CheckReport, expected: &[String]) -> usize {
    let (got, unknown) = failing_nodes(report);
    let differing = got.iter().filter(|n| !expected.contains(n)).count()
        + expected.iter().filter(|n| !got.contains(n)).count();
    differing + unknown
}

/// Two answers that owe nothing to the solver. The simulator: in the
/// converged state of the closed network every node satisfies its original
/// property, so the unsabotaged scenario is one that should verify. The
/// interpreter: at every sabotaged node, "no route at time 0" lies inside
/// the interface and outside the tightened property — a concrete witness
/// that the node's safety condition is invalid.
///
/// # Errors
///
/// A description of the first disagreement.
pub fn sim_oracle(plan: &ScenarioPlan) -> Result<(), String> {
    let inst = plan.build();
    let original = build_registry(plan.kind, plan.k, plan.dest).property;
    let net = &inst.network;
    let mut env = timepiece_scenario::closing_env(net);
    let ft = FatTree::new(plan.k);
    if net.symbolics().iter().any(|s| s.name() == DEST_VAR) {
        let dest = ft.edge_nodes().nth(plan.dest).expect("destination index in range");
        env.bind(DEST_VAR, Value::bv(dest.index() as u64, 32));
    }
    let trace = timepiece_sim::simulate(net, &env, 64).map_err(|e| format!("simulate: {e}"))?;
    if trace.converged_at().is_none() {
        return Err("the simulation did not converge in 64 steps".to_owned());
    }
    let holds = |ann: &timepiece_core::NodeAnnotations, v, t: i64, route: &Value| {
        ann.get(v)
            .at(&Expr::int(t), &Expr::constant(route.clone()))
            .eval_bool(&env)
            .map_err(|e| format!("evaluating at {}: {e}", net.topology().name(v)))
    };
    let no_route = Value::default_of(net.route_type());
    for v in net.topology().nodes() {
        let name = net.topology().name(v);
        if !holds(&original, v, 64, trace.state(v, 64))? {
            return Err(format!("the converged state violates the property at {name}"));
        }
        let breaks_safety =
            holds(&inst.interface, v, 0, &no_route)? && !holds(&inst.property, v, 0, &no_route)?;
        if plan.sabotaged.iter().any(|s| s == name) && !breaks_safety {
            return Err(format!("\"no route at time 0\" does not break safety at {name}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan() {
        let a = ScenarioPlan::draw("SpReach", 4, 3, &mut Rng::new(11));
        let b = ScenarioPlan::draw("SpReach", 4, 3, &mut Rng::new(11));
        assert_eq!(a, b);
        assert_eq!(a.sabotaged.len(), 3);
        assert!(a.sabotaged.iter().all(|n| n.starts_with("core") || n.starts_with("agg")));
    }

    #[test]
    fn the_simulator_agrees_with_every_registry_plan() {
        for kind in REGISTRY {
            let plan = ScenarioPlan::draw(kind, 4, 2, &mut Rng::new(5));
            sim_oracle(&plan).unwrap_or_else(|e| panic!("{kind}: {e}"));
        }
    }
}
