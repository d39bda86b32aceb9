//! The two batch workloads: fresh whole-network checks with two checker
//! threads, as `repro fig14` runs them.
//!
//! `sp-wide` checks many cheap nodes with concrete destinations, so term
//! construction, encoding and scheduling are a real share of its wall.
//! `ap-deep` checks few expensive nodes with a symbolic destination, so the
//! solver is nearly all of it. An optimisation of one side must leave the
//! other unchanged.

use std::marker::PhantomData;
use std::time::Instant;

use timepiece_core::check::{CheckOptions, ModularChecker};
use timepiece_nets::BenchInstance;
use timepiece_topology::NodeId;
use timepiece_trace::Json;

use crate::engine::{Pass, Workload};
use crate::layers::{Walk, SOLVER_TIMEOUT};
use crate::plan::{sim_oracle, wrong_verdicts, ScenarioPlan};
use crate::spec::THREADS;
use crate::util::{ms, settle, Rng};

/// Which scenarios a batch workload checks: `(kind, k)` at full size.
pub trait BatchSpec {
    const NAME: &'static str;
    const SCENARIOS: &'static [(&'static str, usize)];
}

#[derive(Debug)]
pub struct SpWide;
impl BatchSpec for SpWide {
    const NAME: &'static str = "sp-wide";
    const SCENARIOS: &'static [(&'static str, usize)] =
        &[("SpReach", 12), ("SpHijack", 8), ("SpMed", 6)];
}

#[derive(Debug)]
pub struct ApDeep;
impl BatchSpec for ApDeep {
    const NAME: &'static str = "ap-deep";
    const SCENARIOS: &'static [(&'static str, usize)] = &[("ApLen", 6), ("ApMed", 4), ("ApVf", 4)];
}

/// Nodes sabotaged per scenario.
const SABOTAGE: usize = 3;

pub fn checker() -> ModularChecker {
    ModularChecker::new(CheckOptions {
        timeout: Some(SOLVER_TIMEOUT),
        threads: Some(THREADS),
        ..CheckOptions::default()
    })
}

/// How far each scenario's destination moves per pass, as a share of its
/// edge nodes: √2, √3 and √5 less their whole parts, so the three
/// destinations do not move in step. See [`ScenarioPlan::dest_of_draw`].
const DEST_STEPS: [f64; 3] = [0.414_213_562_373, 0.732_050_807_569, 0.236_067_977_5];

#[derive(Debug)]
pub struct Batch<S> {
    plans: Vec<ScenarioPlan>,
    _spec: PhantomData<S>,
}

impl<S: BatchSpec> Workload for Batch<S> {
    const NAME: &'static str = S::NAME;
    type Plan = Vec<ScenarioPlan>;

    fn plan(seed: u64, quick: bool) -> Vec<ScenarioPlan> {
        let mut rng = Rng::new(seed).fork(0xba7c);
        S::SCENARIOS
            .iter()
            .map(|&(kind, k)| {
                ScenarioPlan::draw(kind, if quick { 4 } else { k }, SABOTAGE, &mut rng)
            })
            .collect()
    }

    /// Builds every instance once and runs one untimed pass, which fills
    /// the term arena and spins up the solver.
    fn setup(plan: &Vec<ScenarioPlan>) -> Result<Self, String> {
        let mut batch = Batch { plans: plan.clone(), _spec: PhantomData };
        let mut warmup = Pass::default();
        batch.pass(0, &mut Rng::new(0), &mut warmup);
        match warmup.errors.first() {
            None => Ok(batch),
            Some(e) => Err(format!("warm-up pass: {e}")),
        }
    }

    /// Rebuilds each instance at the pass's destination and checks it from
    /// scratch, handing the checker its nodes in a fresh seeded order. Only
    /// the `check_nodes` calls are timed.
    fn pass(&mut self, index: usize, rng: &mut Rng, out: &mut Pass) {
        for (plan, step) in self.plans.iter().zip(DEST_STEPS) {
            settle();
            let BenchInstance { network, interface, property } =
                plan.build_at(plan.dest_of_draw(index, step));
            let mut order: Vec<NodeId> = network.topology().nodes().collect();
            rng.shuffle(&mut order);
            let start = Instant::now();
            let report = {
                let _span = timepiece_trace::span(
                    timepiece_trace::Phase::Other,
                    format!("tpbench:core.check {}", plan.label()),
                );
                checker().check_nodes(&network, &interface, &property, &order)
            };
            let wall = start.elapsed();
            out.wall += wall;
            out.check_wall += wall;
            out.full_check_ms.push(ms(wall));
            out.attempted += order.len();
            let report = match report {
                Ok(report) => report,
                Err(e) => {
                    out.fail(order.len(), format!("{}: {e}", plan.label()));
                    continue;
                }
            };
            let durations = report.node_durations().iter().map(|(_, d)| ms(*d));
            out.op_ms.extend(durations.clone());
            out.node_ms.extend(durations);
            if let Some(sched) = report.scheduler() {
                out.steals += sched.steals;
                out.claimed += sched.claimed.iter().sum::<usize>();
            }
            let missing = order.len() - report.node_durations().len();
            out.fail(missing, format!("{}: {missing} nodes got no verdict", plan.label()));
            let wrong = wrong_verdicts(&report, &plan.sabotaged);
            out.fail(
                wrong,
                format!(
                    "{}: {wrong} verdicts differ from the known answer (expected failing {:?}, got {:?})",
                    plan.label(),
                    plan.sabotaged,
                    crate::plan::failing_nodes(&report).0,
                ),
            );
        }
    }

    fn answers(plan: &Vec<ScenarioPlan>) -> Result<Json, String> {
        Ok(Json::arr(plan.iter().map(ScenarioPlan::to_json)))
    }

    fn verify(self, plan: &Vec<ScenarioPlan>) -> Vec<String> {
        plan.iter()
            .filter_map(|p| sim_oracle(p).err().map(|e| format!("{}: simulator: {e}", p.label())))
            .collect()
    }

    fn walk(plan: &Vec<ScenarioPlan>, walk: &mut Walk) {
        for p in plan {
            walk.instance(Some(p.k), || p.build(), &p.sabotaged);
        }
    }
}
