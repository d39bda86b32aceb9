//! The run loop every workload shares: set up several times, measure passes
//! for the asked number of seconds, check the answers, and report.
//!
//! An untraced run yields the end-to-end metrics. A traced run yields the
//! per-layer metrics: it runs passes in pairs on the same inputs, one untraced
//! and one traced (their wall difference is the tracing overhead), walks the workload's inputs through
//! each layer's public functions on one thread under the benchmark's own
//! spans, and writes a Chrome trace.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use timepiece_trace::{Json, Phase, Profile, SpanKind, Trace};

use crate::layers::Walk;
use crate::spec::{MIN_PASSES, SETUP_REPS, THREADS};
use crate::util::{median, ms, peak_rss_mb, quantile, settle, Metrics, Rng};

/// Options of one `tpbench run`.
#[derive(Debug, Clone)]
pub struct RunOptions {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// k = 4 everywhere and one pass: the smoke-test size.
    pub quick: bool,
    /// Frozen answers to compare against, when there are any for this seed.
    pub expected: Option<Json>,
    /// Where the traced run writes its Chrome trace.
    pub out_dir: PathBuf,
}

/// What one pass measured. Operations are node verdicts (batch workloads),
/// delta round trips (`serve-edits`) or files compiled and checked
/// (`author-infer`).
#[derive(Debug, Default)]
pub struct Pass {
    /// The pass's timed wall.
    pub wall: Duration,
    /// Latency of each operation, ms.
    pub op_ms: Vec<f64>,
    /// Wall of each whole-network check, ms.
    pub full_check_ms: Vec<f64>,
    /// Operations attempted, and how many failed: errored, timed out, were
    /// refused, or returned a verdict differing from the known answer.
    pub attempted: usize,
    pub failed: usize,
    /// Descriptions of failures (the first few are printed).
    pub errors: Vec<String>,
    /// Per-node check durations of the pass's parallel checks, ms.
    pub node_ms: Vec<f64>,
    /// Summed wall of the pass's parallel checks.
    pub check_wall: Duration,
    /// Scheduler counters summed over the pass's checks.
    pub steals: usize,
    pub claimed: usize,
}

impl Pass {
    pub fn fail(&mut self, count: usize, what: impl Into<String>) {
        if count > 0 {
            self.failed += count;
            self.errors.push(what.into());
        }
    }
}

/// Samples of per-layer metrics gathered over a traced run.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// Adds to the sample a walk is currently accumulating (`walk` is the
    /// walk's index: its sample is created on first use).
    pub fn add(&mut self, walk: usize, name: &'static str, value: f64) {
        let samples = self.0.entry(name).or_default();
        if samples.len() <= walk {
            samples.resize(walk + 1, 0.0);
        }
        samples[walk] += value;
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    /// One value per metric: the arena counts come from the first (cold)
    /// walk — the arena never evicts, so later walks intern nothing — and
    /// everything else is the median over walks.
    fn collapse(&self) -> Metrics {
        let one = |(name, samples): (&&'static str, &Vec<f64>)| {
            let value = if name.starts_with("expr.") { samples[0] } else { median(samples) };
            (*name, value)
        };
        self.0.iter().filter(|(_, samples)| !samples.is_empty()).map(one).collect()
    }
}

/// One of the four workloads.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// The seeded inputs.
    type Plan;

    fn plan(seed: u64, quick: bool) -> Self::Plan;

    /// Builds everything the passes need and warms it up. Part of `setup_s`.
    fn setup(plan: &Self::Plan) -> Result<Self, String>;

    /// One repetition of the workload: the run's `index`-th (set-up's
    /// warm-up pass is 0). `rng` continues across passes. The same index and
    /// the same `rng` state give the same inputs.
    fn pass(&mut self, index: usize, rng: &mut Rng, out: &mut Pass);

    /// The plan and its known answers, from the seed alone: what
    /// `expected/` freezes.
    fn answers(plan: &Self::Plan) -> Result<Json, String>;

    /// Stops what `setup` started, then checks the run against answers that
    /// do not come from it, returning any disagreements.
    fn verify(self, plan: &Self::Plan) -> Vec<String>;

    /// Walks the plan's inputs through each layer on this thread.
    fn walk(plan: &Self::Plan, walk: &mut Walk);

    /// Layer measurements that need the live workload (traced run only):
    /// `traced` are the run's traced passes, `rng` a stream of its own, so
    /// what it generates does not depend on how many passes the run fitted.
    fn probe(&mut self, _traced: &[Pass], _rng: &mut Rng, _samples: &mut Samples) {}
}

/// What a run hands back to `main`.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Metrics,
    pub errors: Vec<String>,
    pub notes: Vec<String>,
}

/// The stream of randomness a run's passes draw from.
pub fn pass_rng(seed: u64) -> Rng {
    Rng::new(seed).fork(0x9a55)
}

/// Holds the plan and its known answers against the frozen file, when the
/// seed has one.
fn compare_expected<W: Workload>(
    options: &RunOptions,
    plan: &W::Plan,
    errors: &mut Vec<String>,
    notes: &mut Vec<String>,
) {
    let Some(expected) = &options.expected else {
        notes.push(format!("no frozen answers for seed {}", options.seed));
        return;
    };
    let frozen = expected.get("workloads").and_then(|w| w.get(W::NAME));
    match (frozen, W::answers(plan)) {
        (None, _) => errors.push(format!("the expected file has no entry for {}", W::NAME)),
        (_, Err(e)) => errors.push(format!("deriving the known answers: {e}")),
        (Some(frozen), Ok(answers)) if *frozen == answers => {
            notes.push("plan and answers match the frozen expected file".to_owned());
        }
        (Some(frozen), Ok(answers)) => errors.push(format!(
            "plan or answers differ from the frozen expected file:\n  expected {frozen}\n  got      {answers}"
        )),
    }
}

/// Passes `first`, `first + 1`, … until `budget` is spent (at least
/// `min_passes`).
fn run_passes<W: Workload>(
    workload: &mut W,
    rng: &mut Rng,
    first: usize,
    budget: Duration,
    min_passes: usize,
) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < min_passes || start.elapsed() < budget {
        let mut pass = Pass::default();
        workload.pass(first + passes.len(), rng, &mut pass);
        passes.push(pass);
    }
    passes
}

/// Operations attempted and failed over some passes, and what went wrong.
fn tally<'p>(passes: impl IntoIterator<Item = &'p Pass>) -> (usize, usize, Vec<String>) {
    passes.into_iter().fold((0, 0, Vec::new()), |(attempted, failed, mut errors), pass| {
        errors.extend(pass.errors.iter().cloned());
        (attempted + pass.attempted, failed + pass.failed, errors)
    })
}

/// The end-to-end run: tracing stays off.
pub fn run_untraced<W: Workload>(options: &RunOptions) -> Result<Outcome, String> {
    let plan = W::plan(options.seed, options.quick);
    let mut setup_secs = Vec::new();
    let mut workload = None;
    for _ in 0..if options.quick { 1 } else { SETUP_REPS } {
        // the previous repetition's threads and sockets go first, untimed
        drop(workload.take());
        settle();
        let start = Instant::now();
        workload = Some(W::setup(&plan)?);
        setup_secs.push(start.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one set-up repetition");

    let mut rng = pass_rng(options.seed);
    let (budget, min_passes) = if options.quick {
        (Duration::ZERO, 1)
    } else {
        (Duration::from_secs_f64(options.seconds), MIN_PASSES)
    };
    let passes = run_passes(&mut workload, &mut rng, 1, budget, min_passes);
    // before `verify`, whose from-scratch checks are not the workload's
    let peak_rss = peak_rss_mb();

    let (attempted, failed, mut errors) = tally(&passes);
    let mut notes = Vec::new();
    errors.extend(workload.verify(&plan));
    compare_expected::<W>(options, &plan, &mut errors, &mut notes);

    let walls: Vec<f64> = passes.iter().map(|p| p.wall.as_secs_f64()).collect();
    let ops: Vec<f64> = passes.iter().flat_map(|p| p.op_ms.iter().copied()).collect();
    let full: Vec<f64> = passes.iter().flat_map(|p| p.full_check_ms.iter().copied()).collect();
    let metrics = Metrics::from([
        ("setup_s", median(&setup_secs)),
        ("verdict_wall_s", median(&walls)),
        ("ops_per_s", attempted as f64 / walls.iter().sum::<f64>()),
        ("op_p50_ms", median(&ops)),
        ("op_p95_ms", quantile(&ops, 0.95)),
        ("full_check_p50_ms", median(&full)),
        ("peak_rss_mb", peak_rss),
    ]);
    notes.push(format!(
        "{} passes, {} operations ({} latency samples, {} whole-network checks), {} set-ups, {} threads on {} cores",
        passes.len(),
        attempted,
        ops.len(),
        full.len(),
        setup_secs.len(),
        THREADS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    ));
    // how steady this run was in itself, for judging a number that looks off
    let sorted = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v
    };
    notes.push(format!("pass walls, s: {:.3?}", sorted(walls)));
    notes.push(format!("set-ups, s: {:.3?}", setup_secs));
    Ok(Outcome {
        correct: failed == 0 && errors.is_empty(),
        attempted,
        failed,
        metrics,
        errors,
        notes,
    })
}

/// Folds one traced pass's spans into the samples.
fn absorb_pass_trace(trace: &Trace, samples: &mut Samples) {
    let profile = Profile::from_trace(trace, 0);
    samples.push("smt.pass_solve_ms", profile.phase_ns(Phase::Solve) as f64 / 1e6);
    samples.push("smt.pass_encode_ms", profile.phase_ns(Phase::Encode) as f64 / 1e6);
    samples.push("sched.steal_idle_ms", profile.phase_ns(Phase::Idle) as f64 / 1e6);
    let spans = trace.spans.iter().filter(|s| s.kind == SpanKind::Complete).count();
    samples.push("trace.spans", spans as f64);
}

/// Folds the passes' own counters (from `CheckReport`s and replies) in.
fn absorb_pass_counters(passes: &[Pass], samples: &mut Samples) {
    let nodes: Vec<f64> = passes.iter().flat_map(|p| p.node_ms.iter().copied()).collect();
    samples.push("core.node_p50_ms", median(&nodes));
    samples.push("core.node_p95_ms", quantile(&nodes, 0.95));
    samples.push("core.node_max_ms", nodes.iter().copied().fold(0.0, f64::max));
    let walls: Vec<f64> = passes.iter().map(|p| ms(p.check_wall)).collect();
    samples.push("core.check_wall_ms", median(&walls));
    let busy = nodes.iter().sum::<f64>() / (THREADS as f64 * walls.iter().sum::<f64>());
    samples.push("sched.busy_frac", if busy.is_finite() { busy } else { 0.0 });
    let per_pass =
        |f: fn(&Pass) -> usize| median(&passes.iter().map(|p| f(p) as f64).collect::<Vec<_>>());
    samples.push("sched.steals", per_pass(|p| p.steals));
    samples.push("sched.claimed", per_pass(|p| p.claimed));
}

/// One layer walk, start to finish; returns its spans.
fn one_walk<W: Workload>(
    plan: &W::Plan,
    walks: &mut usize,
    samples: &mut Samples,
    attempted: &mut usize,
    failed: &mut usize,
) -> Trace {
    drop(timepiece_trace::take());
    let mut walk = Walk::new(*walks, samples);
    W::walk(plan, &mut walk);
    let trace = timepiece_trace::take();
    let (a, f) = walk.finish(&trace);
    *attempted += a;
    *failed += f;
    *walks += 1;
    trace
}

/// The per-layer run. See the module docs.
pub fn run_traced<W: Workload>(options: &RunOptions) -> Result<Outcome, String> {
    let plan = W::plan(options.seed, options.quick);
    let budget = Duration::from_secs_f64(options.seconds);
    let start = Instant::now();
    let mut samples = Samples::default();
    let (mut attempted, mut failed) = (0, 0);

    // the cold walk comes before anything else interns a term, so the
    // arena counts describe the plan and nothing earlier in the process
    timepiece_trace::enable();
    let mut walks = 0;
    let mut walk_trace =
        one_walk::<W>(&plan, &mut walks, &mut samples, &mut attempted, &mut failed);
    timepiece_trace::disable();

    let mut workload = W::setup(&plan)?;
    let mut rng = pass_rng(options.seed);

    // untraced and traced passes in alternation, for about half the budget
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut pass_trace = Trace::default();
    let pairs = if options.quick { 1 } else { 2 };
    while traced.len() < pairs || (!options.quick && start.elapsed() < budget.mul_f64(0.55)) {
        // both passes of a pair get the same inputs, so their walls differ
        // by the tracing alone
        let index = traced.len() + 1;
        untraced.extend(run_passes(&mut workload, &mut rng.clone(), index, Duration::ZERO, 1));
        timepiece_trace::enable();
        {
            let _layer = timepiece_trace::span(Phase::Other, format!("tpbench:pass {}", W::NAME));
            traced.extend(run_passes(&mut workload, &mut rng, index, Duration::ZERO, 1));
        }
        timepiece_trace::disable();
        pass_trace = timepiece_trace::take();
        absorb_pass_trace(&pass_trace, &mut samples);
    }
    let wall_ms = |passes: &[Pass]| median(&passes.iter().map(|p| ms(p.wall)).collect::<Vec<_>>());
    samples.push("trace.untraced_pass_ms", wall_ms(&untraced));
    samples.push("trace.traced_pass_ms", wall_ms(&traced));
    let overheads: Vec<f64> = untraced
        .iter()
        .zip(&traced)
        .map(|(plain, traced)| (ms(traced.wall) - ms(plain.wall)) / ms(plain.wall))
        .collect();
    samples.push("trace.overhead_frac", median(&overheads));
    absorb_pass_counters(&traced, &mut samples);
    let pass_count = untraced.len() + traced.len();
    let (a, f, mut errors) = tally(untraced.iter().chain(&traced));
    (attempted, failed) = (attempted + a, failed + f);

    timepiece_trace::enable();
    workload.probe(&traced, &mut pass_rng(options.seed).fork(0x50b3), &mut samples);

    // warm walks for the rest of the budget: their medians are the times
    while !options.quick && (walks < 2 || start.elapsed() < budget) {
        walk_trace = one_walk::<W>(&plan, &mut walks, &mut samples, &mut attempted, &mut failed);
    }
    timepiece_trace::disable();

    let mut notes = Vec::new();
    errors.extend(workload.verify(&plan));
    compare_expected::<W>(options, &plan, &mut errors, &mut notes);

    let metrics = samples.collapse();

    std::fs::create_dir_all(&options.out_dir).map_err(|e| format!("creating the out dir: {e}"))?;
    let path = options.out_dir.join(format!("trace-{}.json", W::NAME));
    pass_trace.merge(walk_trace);
    std::fs::write(&path, timepiece_trace::chrome_trace(&pass_trace).to_string())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    notes.push(format!(
        "{pass_count} passes (half traced), {walks} layer walks, Chrome trace in {}",
        path.display()
    ));
    Ok(Outcome {
        correct: failed == 0 && errors.is_empty(),
        attempted,
        failed,
        metrics,
        errors,
        notes,
    })
}
