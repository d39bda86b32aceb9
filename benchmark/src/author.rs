//! `author-infer`: scenario text in, verdict out.
//!
//! Each pass compiles and checks the example scenario files, nine registry
//! scenarios exported to text at k = 4, and two exports with their
//! interface stripped and `infer = true` in its place, so compilation runs
//! `timepiece-infer`. This is the only workload where the `scenario`
//! (parse, validate, lower), `sim` and `infer` (CEGIS: many small
//! re-checks) layers carry the time; the batch workloads bypass all three.

use std::time::Instant;

use timepiece_infer::{InferOptions, InferenceEngine, RoleMap};
use timepiece_scenario::{closing_env, compile_str, export_instance};
use timepiece_trace::Json;

use crate::batch::checker;
use crate::engine::{Pass, Workload};
use crate::layers::{timed, Walk};
use crate::plan::{sim_oracle, wrong_verdicts, ScenarioPlan};
use crate::util::{ms, settle, Rng};

/// The hand-written files under `examples/scenarios/`, all of which verify.
const EXAMPLES: [(&str, &str); 4] = [
    ("ring_hopcount.toml", include_str!("../../examples/scenarios/ring_hopcount.toml")),
    ("sp_fail.toml", include_str!("../../examples/scenarios/sp_fail.toml")),
    ("sp_med.toml", include_str!("../../examples/scenarios/sp_med.toml")),
    ("sp_reach.toml", include_str!("../../examples/scenarios/sp_reach.toml")),
];

/// Registry scenarios exported with their hand-written interface: every
/// single-destination one, and the two cheapest all-pairs ones so the
/// symbolic-destination export path is compiled too. (The other all-pairs
/// scenarios would put a second of pure solving into every pass, which
/// `ap-deep` already measures.)
const EXPLICIT: [&str; 9] =
    ["SpReach", "SpLen", "SpVf", "SpHijack", "SpMed", "SpAd", "SpFail", "ApReach", "ApHijack"];
const EXPLICIT_QUICK: [&str; 3] = ["SpReach", "SpMed", "ApReach"];

/// Registry scenarios whose exports are compiled with `infer = true`: the
/// two `timepiece-infer` supports.
const INFERRED: [&str; 2] = ["SpReach", "SpLen"];

const K: usize = 4;

#[derive(Debug, Clone)]
pub struct AuthorPlan {
    /// Exported with their (sabotaged) property and hand-written interface.
    explicit: Vec<ScenarioPlan>,
    /// Exported unsabotaged, interface replaced by `infer = true`.
    inferred: Vec<ScenarioPlan>,
}

/// One scenario document and what compiling and checking it must yield.
#[derive(Debug, Clone)]
struct File {
    label: String,
    text: String,
    expected_failing: Vec<String>,
}

/// How far the destination moves from one export to the next, as a share
/// of the edge nodes: the golden ratio, so the exports of a pass cover the
/// destinations evenly and neighbours (the two inferred documents) sit on
/// opposite sides. See [`ScenarioPlan::dest_of_draw`].
const DEST_STEP: f64 = 0.618_033_988_75;

/// The scenario as text, at the destination of the run's `draw`-th export.
fn export(plan: &ScenarioPlan, draw: usize) -> Result<String, String> {
    let inst = plan.build_at(plan.dest_of_draw(draw, DEST_STEP));
    export_instance(plan.kind, "bench", &inst, plan.k)
}

/// Cuts the exported `[interface]` section (the document's last) and asks
/// the compiler to infer one instead.
fn strip_interface(text: &str) -> Result<String, String> {
    let at = text.find("\n[interface]\n").ok_or("the export has no [interface] section")?;
    Ok(format!("{}\n[interface]\ninfer = true\n", &text[..at]))
}

/// The documents of pass `pass`.
fn files(plan: &AuthorPlan, pass: usize) -> Result<Vec<File>, String> {
    let mut out: Vec<File> = EXAMPLES
        .iter()
        .map(|(name, text)| File {
            label: (*name).to_owned(),
            text: (*text).to_owned(),
            expected_failing: Vec::new(),
        })
        .collect();
    let exports = plan.explicit.len() + plan.inferred.len();
    let mut draws = pass * exports..;
    for p in &plan.explicit {
        out.push(File {
            label: format!("{} export", p.label()),
            text: export(p, draws.next().expect("unbounded"))?,
            expected_failing: p.sabotaged.clone(),
        });
    }
    for p in &plan.inferred {
        out.push(File {
            label: format!("{} infer", p.label()),
            text: strip_interface(&export(p, draws.next().expect("unbounded"))?)?,
            expected_failing: Vec::new(),
        });
    }
    Ok(out)
}

#[derive(Debug)]
pub struct Author {
    plan: AuthorPlan,
}

impl Workload for Author {
    const NAME: &'static str = "author-infer";
    type Plan = AuthorPlan;

    fn plan(seed: u64, quick: bool) -> AuthorPlan {
        let mut rng = Rng::new(seed).fork(0xa07b);
        let explicit: &[&'static str] = if quick { &EXPLICIT_QUICK } else { &EXPLICIT };
        let inferred = &INFERRED[..if quick { 1 } else { INFERRED.len() }];
        AuthorPlan {
            explicit: explicit
                .iter()
                .map(|kind| ScenarioPlan::draw(kind, K, 1, &mut rng))
                .collect(),
            inferred: inferred
                .iter()
                .map(|kind| ScenarioPlan::draw(kind, K, 0, &mut rng))
                .collect(),
        }
    }

    fn answers(plan: &AuthorPlan) -> Result<Json, String> {
        let list = |plans: &[ScenarioPlan]| Json::arr(plans.iter().map(ScenarioPlan::to_json));
        Ok(Json::obj([
            ("examples", Json::arr(EXAMPLES.iter().map(|(name, _)| Json::str(*name)))),
            ("explicit", list(&plan.explicit)),
            ("inferred", list(&plan.inferred)),
        ]))
    }

    /// One untimed pass: builds and exports every scenario to text, compiles
    /// and checks it.
    fn setup(plan: &AuthorPlan) -> Result<Author, String> {
        let mut author = Author { plan: plan.clone() };
        let mut warmup = Pass::default();
        author.pass(0, &mut Rng::new(0), &mut warmup);
        match warmup.errors.first() {
            None => Ok(author),
            Some(e) => Err(format!("warm-up pass: {e}")),
        }
    }

    /// Exports every scenario at the pass's destination, then compiles and
    /// checks every file in a fresh seeded order. Only compiling and checking
    /// are timed.
    fn pass(&mut self, index: usize, rng: &mut Rng, out: &mut Pass) {
        let mut files = match files(&self.plan, index) {
            Ok(files) => files,
            Err(e) => {
                out.attempted += 1;
                out.fail(1, format!("exporting: {e}"));
                return;
            }
        };
        rng.shuffle(&mut files);
        for file in &files {
            settle();
            out.attempted += 1;
            let start = Instant::now();
            let compiled = {
                let _span = timepiece_trace::span(
                    timepiece_trace::Phase::Other,
                    format!("tpbench:scenario.compile {}", file.label),
                );
                compile_str(&file.text)
            };
            let compiled = match compiled {
                Ok(compiled) => compiled,
                Err(e) => {
                    out.wall += start.elapsed();
                    out.fail(1, format!("{}: {e}", file.label));
                    continue;
                }
            };
            let check_start = Instant::now();
            let report = {
                let _span = timepiece_trace::span(
                    timepiece_trace::Phase::Other,
                    format!("tpbench:core.check {}", file.label),
                );
                checker().check(&compiled.network, &compiled.interface, &compiled.property)
            };
            out.wall += start.elapsed();
            out.check_wall += check_start.elapsed();
            out.op_ms.push(ms(start.elapsed()));
            out.full_check_ms.push(ms(check_start.elapsed()));
            match report {
                Ok(report) => {
                    out.node_ms.extend(report.node_durations().iter().map(|(_, d)| ms(*d)));
                    if let Some(sched) = report.scheduler() {
                        out.steals += sched.steals;
                        out.claimed += sched.claimed.iter().sum::<usize>();
                    }
                    let wrong = wrong_verdicts(&report, &file.expected_failing);
                    out.fail(
                        usize::from(wrong > 0),
                        format!(
                            "{}: {wrong} verdicts differ from the known answer (expected failing {:?}, got {:?})",
                            file.label,
                            file.expected_failing,
                            crate::plan::failing_nodes(&report).0,
                        ),
                    );
                }
                Err(e) => out.fail(1, format!("{}: {e}", file.label)),
            }
        }
    }

    fn verify(self, plan: &AuthorPlan) -> Vec<String> {
        plan.explicit
            .iter()
            .chain(&plan.inferred)
            .filter_map(|p| sim_oracle(p).err().map(|e| format!("{}: simulator: {e}", p.label())))
            .collect()
    }

    fn walk(plan: &AuthorPlan, walk: &mut Walk) {
        // scenario: export, then compile the explicit-interface documents
        let mut compiled = Vec::new();
        for p in &plan.explicit {
            let (text, t) =
                timed("scenario.export", || export(p, 0).expect("registry scenarios export"));
            walk.add("scenario.export_ms", t);
            compiled.push((text, Some(p)));
        }
        compiled.extend(EXAMPLES.iter().map(|(_, text)| ((*text).to_owned(), None)));
        for (text, p) in &compiled {
            let (scenario, t) = timed("scenario.compile", || {
                compile_str(text).expect("benchmark documents compile")
            });
            walk.add("scenario.compile_ms", t);
            walk.add("scenario.bytes", text.len() as f64);

            // sim: the policy fast path beside the term interpreter
            let env = closing_env(&scenario.network);
            let (fast, t) =
                timed("sim.simulate", || timepiece_sim::simulate(&scenario.network, &env, 64));
            walk.add("sim.simulate_ms", t);
            let (slow, t) = timed("sim.interpreted", || {
                timepiece_sim::simulate_interpreted(&scenario.network, &env, 64)
            });
            walk.add("sim.interpreted_ms", t);
            walk.attempted += 1;
            match (fast, slow) {
                (Ok(fast), Ok(slow)) => {
                    walk.add("sim.steps", fast.states().len() as f64);
                    walk.wrong += usize::from(fast.states() != slow.states());
                }
                _ => walk.wrong += 1,
            }

            let expected: &[String] = p.map_or(&[], |p| &p.sabotaged);
            walk.instance(p.map(|p| p.k), || scenario.instance(), expected);
        }
        // infer: the engine alone, on the two property-only specs
        for p in &plan.inferred {
            let spec = p.build().into_spec();
            let (inferred, t) = timed("infer.engine", || {
                InferenceEngine::new(InferOptions::default()).infer(
                    &spec.network,
                    &spec.property,
                    RoleMap::singleton(spec.network.topology()),
                    &[closing_env(&spec.network)],
                )
            });
            walk.add("infer.engine_ms", t);
            walk.attempted += 1;
            match inferred {
                Ok(inferred) if inferred.report.verified => {
                    walk.add("infer.rounds", inferred.report.rounds as f64);
                    walk.add("infer.repairs", inferred.report.total_repairs() as f64);
                    walk.add("infer.check_ms", ms(inferred.report.check_wall));
                }
                _ => walk.wrong += 1,
            }
        }
        let rate = walk.sample("scenario.bytes") / (walk.sample("scenario.compile_ms") / 1e3);
        walk.add("scenario.bytes_per_s", rate);
        let share = walk.sample("infer.check_ms") / walk.sample("infer.engine_ms");
        walk.add("infer.recheck_share", share);
    }
}
