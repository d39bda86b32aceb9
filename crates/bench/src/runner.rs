//! Sweep runner: one row per (benchmark, k), with both engines.
//!
//! Benchmarks live in a data-driven [`ScenarioSpec`] *registry*: one entry
//! wires an instance source (a Rust builder keyed by fattree size, or a
//! compiled scenario file) to a name, and the scenario then appears
//! everywhere at once — `repro fig14` sweeps, `--json` row dumps,
//! `repro serve` (a `timepieced` resolves `load` requests through
//! [`load_instance`]: registry-name lookup, or compiling the scenario text
//! a client sends) and `repro infer`.
//! Adding a scenario is one [`register_scenario`] call (or, for the
//! built-ins, one [`ScenarioSpec::built`] line in the seed table); nothing
//! else matches on benchmark kinds.

use std::sync::{Arc, OnceLock, RwLock};
use std::time::Duration;

use timepiece_core::check::{CheckOptions, MemoStats};
use timepiece_core::monolithic::{check_monolithic, MonolithicOutcome};
use timepiece_core::sweep::CheckerPool;
use timepiece_daemon::LoadSource;
use timepiece_expr::{arena, ArenaStats};
use timepiece_nets::{
    ad::AdBench, fail::FailBench, hijack::HijackBench, len::LenBench, med::MedBench,
    reach::ReachBench, vf::VfBench, BenchInstance,
};
use timepiece_scenario::CompiledScenario;
use timepiece_smt::TermCacheStats;
use timepiece_topology::{FatTree, NodeId};

/// Everything `repro infer` needs to run interface inference on a scenario
/// and compare against its hand-written interfaces.
#[derive(Debug)]
pub struct InferSetup {
    /// The annotated instance: inference reads its network and property,
    /// the hand-written comparison its interface.
    pub instance: BenchInstance,
    /// The underlying fattree (for role generalization).
    pub fattree: FatTree,
    /// The fixed destination node.
    pub dest: NodeId,
}

/// Where a registered scenario's instances come from.
#[derive(Debug, Clone)]
pub enum InstanceSource {
    /// A Rust builder, parameterized by fattree size `k`.
    Builder(fn(usize) -> BenchInstance),
    /// A compiled scenario file: one fixed topology, so sweeps run it at
    /// exactly its native size.
    Compiled(Arc<CompiledScenario>),
}

/// One registered benchmark scenario (the data-driven registry entry).
///
/// Built-ins are [`ScenarioSpec::built`] entries of the seed table; scenario
/// files are registered at runtime through [`register_scenario_file`].
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    name: String,
    figure: String,
    source: InstanceSource,
    infer: Option<fn(usize) -> InferSetup>,
}

impl ScenarioSpec {
    /// A scenario whose instances come from a Rust builder keyed by fattree
    /// size; `infer` declares `repro infer` support.
    pub fn built(
        name: &str,
        figure: &str,
        build: fn(usize) -> BenchInstance,
        infer: Option<fn(usize) -> InferSetup>,
    ) -> ScenarioSpec {
        ScenarioSpec {
            name: name.to_owned(),
            figure: figure.to_owned(),
            source: InstanceSource::Builder(build),
            infer,
        }
    }

    /// The scenario a scenario file's `text` declares, compiled.
    ///
    /// # Errors
    ///
    /// The compiler's span-carrying diagnostics, rendered to text.
    pub fn compiled(text: &str) -> Result<ScenarioSpec, String> {
        let compiled = timepiece_scenario::compile_str(text).map_err(|e| e.to_string())?;
        Ok(ScenarioSpec {
            name: compiled.name.clone(),
            figure: compiled.figure.clone(),
            source: InstanceSource::Compiled(Arc::new(compiled)),
            infer: None,
        })
    }

    /// The scenario's display name (`SpReach`, `ApMed`, …).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Which paper figure panel it reproduces (or a tag: `med`, `fail`,
    /// `file`, …).
    pub fn figure(&self) -> &str {
        &self.figure
    }

    /// Where instances come from.
    pub fn source(&self) -> &InstanceSource {
        &self.source
    }
}

/// The inference setup of a fixed-destination fattree bench — one
/// expression per builder type, since every such bench exposes the same
/// `build`/`fattree`/`dest_node` surface.
macro_rules! fixed_dest_infer {
    ($bench:ty) => {
        |k: usize| {
            let bench = <$bench>::single_dest(k, 0);
            InferSetup {
                instance: bench.build(),
                fattree: bench.fattree().clone(),
                dest: bench.dest_node().expect("fixed destination"),
            }
        }
    };
}

/// The seed registry: the paper's eight Fig. 14 benchmarks followed by
/// the post-paper scenarios (MED planes, IGP/EGP distance, link failures).
fn seed() -> Vec<ScenarioSpec> {
    let built = ScenarioSpec::built;
    vec![
        built(
            "SpReach",
            "14a",
            |k| ReachBench::single_dest(k, 0).build(),
            Some(fixed_dest_infer!(ReachBench)),
        ),
        built(
            "SpLen",
            "14b",
            |k| LenBench::single_dest(k, 0).build(),
            Some(fixed_dest_infer!(LenBench)),
        ),
        built("SpVf", "14c", |k| VfBench::single_dest(k, 0).build(), None),
        built("SpHijack", "14d", |k| HijackBench::single_dest(k, 0).build(), None),
        built("ApReach", "14e", |k| ReachBench::all_pairs(k).build(), None),
        built("ApLen", "14f", |k| LenBench::all_pairs(k).build(), None),
        built("ApVf", "14g", |k| VfBench::all_pairs(k).build(), None),
        built("ApHijack", "14h", |k| HijackBench::all_pairs(k).build(), None),
        built("SpMed", "med", |k| MedBench::single_dest(k, 0).build(), None),
        built("ApMed", "med", |k| MedBench::all_pairs(k).build(), None),
        built("SpAd", "ad", |k| AdBench::single_dest(k, 0).build(), None),
        built("ApAd", "ad", |k| AdBench::all_pairs(k).build(), None),
        built("SpFail", "fail", |k| FailBench::single_dest(k, 0).build(), None),
    ]
}

/// The live registry: seed entries plus anything registered at runtime.
///
/// Entries are leaked to `&'static` so [`BenchKind`] stays `Copy` and its
/// accessors keep returning `&'static str` — registration is rare (a few
/// scenario files per process at most), so the leak is bounded and
/// deliberate.
fn registry() -> &'static RwLock<Vec<&'static ScenarioSpec>> {
    static REGISTRY: OnceLock<RwLock<Vec<&'static ScenarioSpec>>> = OnceLock::new();
    REGISTRY
        .get_or_init(|| RwLock::new(seed().into_iter().map(|s| &*Box::leak(Box::new(s))).collect()))
}

/// Registers a scenario, returning its handle. A spec whose name matches an
/// existing entry (case-insensitively) replaces it; otherwise it is
/// appended after the built-ins.
pub fn register_scenario(spec: ScenarioSpec) -> BenchKind {
    let leaked: &'static ScenarioSpec = Box::leak(Box::new(spec));
    let mut reg = registry().write().expect("registry lock");
    match reg.iter_mut().find(|s| s.name().eq_ignore_ascii_case(leaked.name())) {
        Some(slot) => *slot = leaked,
        None => reg.push(leaked),
    }
    BenchKind(leaked)
}

/// Compiles a scenario file and registers it under its declared name.
///
/// # Errors
///
/// An unreadable file, or the compiler's diagnostics.
pub fn register_scenario_file(path: &str) -> Result<BenchKind, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    ScenarioSpec::compiled(&text).map(register_scenario)
}

/// A handle to one registered scenario.
#[derive(Debug, Clone, Copy)]
pub struct BenchKind(&'static ScenarioSpec);

impl PartialEq for BenchKind {
    fn eq(&self, other: &BenchKind) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for BenchKind {}

impl BenchKind {
    /// Every registered scenario, in registry order (the paper's figure
    /// order first, then runtime registrations).
    pub fn all() -> impl Iterator<Item = BenchKind> {
        registry()
            .read()
            .expect("registry lock")
            .iter()
            .map(|s| BenchKind(s))
            .collect::<Vec<_>>()
            .into_iter()
    }

    /// The registered scenario names, in order.
    pub fn names() -> Vec<&'static str> {
        registry().read().expect("registry lock").iter().map(|s| s.name.as_str()).collect()
    }

    /// The scenario's display name.
    pub fn name(&self) -> &'static str {
        self.0.name.as_str()
    }

    /// Which Fig. 14 panel (or post-paper tag) this scenario reproduces.
    pub fn figure(&self) -> &'static str {
        self.0.figure.as_str()
    }

    /// The underlying registry entry.
    pub fn spec(&self) -> &'static ScenarioSpec {
        self.0
    }

    /// Looks a scenario up by name, case-insensitively.
    pub fn parse(s: &str) -> Option<BenchKind> {
        BenchKind::all().find(|k| k.name().eq_ignore_ascii_case(s))
    }

    /// Does `repro infer` support this scenario?
    pub fn supports_inference(&self) -> bool {
        self.0.infer.is_some()
    }

    /// The inference setup at size `k`, for scenarios that support it.
    pub fn infer_setup(&self, k: usize) -> Option<InferSetup> {
        self.0.infer.map(|f| f(k))
    }

    /// The fixed size of a compiled (file) scenario: sweeps run it at
    /// exactly this `k` instead of the requested range. `None` for
    /// builder-backed scenarios, which scale with `k`.
    pub fn native_k(&self) -> Option<usize> {
        match &self.0.source {
            InstanceSource::Builder(_) => None,
            InstanceSource::Compiled(c) => Some(c.k),
        }
    }

    /// The label of this scenario's instance at size `k`, as
    /// [`load_instance`] reports it.
    pub fn label(&self, k: usize) -> String {
        instance_label(self.name(), k)
    }
}

fn instance_label(name: &str, k: usize) -> String {
    format!("{name} k={k}")
}

/// The loader `repro` hands its `timepieced`
/// ([`timepiece_daemon::DaemonState::with_loader`]): resolves a `load`
/// request to a label and this process's own copy of the instance. Scenario
/// text is compiled without being registered — a long-lived daemon would
/// otherwise leak one registry entry per row and make later loads depend on
/// earlier ones.
///
/// # Errors
///
/// Scenario text that does not compile, a benchmark name the registry does
/// not know, or a `k` no fattree has.
pub fn load_instance(source: &LoadSource) -> Result<(String, BenchInstance), String> {
    match source {
        LoadSource::Scenario(text) => {
            let compiled = timepiece_scenario::compile_str(text)
                .map_err(|e| format!("the scenario text does not compile: {e}"))?;
            Ok((instance_label(&compiled.name, compiled.k), compiled.instance()))
        }
        LoadSource::Bench { name, k } => {
            let kind =
                BenchKind::parse(name).ok_or_else(|| format!("unknown benchmark {name:?}"))?;
            if kind.native_k().is_none() && (*k < 2 || k % 2 != 0) {
                return Err(format!("fattree parameter k must be even and >= 2, got {k}"));
            }
            let k = kind.native_k().unwrap_or(*k);
            Ok((kind.label(k), fattree_instance(kind, k)))
        }
    }
}

/// Builds the benchmark instance for a scenario at fattree size `k`.
///
/// Compiled (file) scenarios have one fixed topology; they ignore the
/// requested `k` and return their native instance.
pub fn fattree_instance(kind: BenchKind, k: usize) -> BenchInstance {
    match &kind.0.source {
        InstanceSource::Builder(f) => f(k),
        InstanceSource::Compiled(c) => c.instance(),
    }
}

/// The outcome of one engine on one instance.
#[derive(Debug, Clone, Copy)]
pub enum EngineResult {
    /// Verified within budget.
    Verified(Duration),
    /// Property/interface rejected (should not happen on these benchmarks).
    Failed(Duration),
    /// The solver hit the time budget.
    TimedOut(Duration),
}

impl EngineResult {
    /// Wall time spent (budget time for timeouts).
    pub fn wall(&self) -> Duration {
        match self {
            EngineResult::Verified(d) | EngineResult::Failed(d) | EngineResult::TimedOut(d) => *d,
        }
    }

    /// How a modular run's outcome is classified: verified wins, then
    /// timeout (any solver give-up), then failed.
    pub fn classify(verified: bool, timed_out: bool, wall: Duration) -> EngineResult {
        if verified {
            EngineResult::Verified(wall)
        } else if timed_out {
            EngineResult::TimedOut(wall)
        } else {
            EngineResult::Failed(wall)
        }
    }

    /// Machine-readable outcome tag (`verified` / `failed` / `timeout`).
    pub fn outcome(&self) -> &'static str {
        match self {
            EngineResult::Verified(_) => "verified",
            EngineResult::Failed(_) => "failed",
            EngineResult::TimedOut(_) => "timeout",
        }
    }

    /// Render like the paper's plots: seconds or "timeout".
    pub fn display(&self) -> String {
        match self {
            EngineResult::Verified(d) => format!("{:.2}s", d.as_secs_f64()),
            EngineResult::Failed(d) => format!("FAILED({:.2}s)", d.as_secs_f64()),
            EngineResult::TimedOut(_) => "timeout".to_owned(),
        }
    }
}

/// One sweep row: a benchmark at one topology size.
#[derive(Debug, Clone)]
pub struct Row {
    /// Fattree parameter.
    pub k: usize,
    /// Node count (1.25k², +1 for the hijack benchmarks).
    pub nodes: usize,
    /// Timepiece total wall time.
    pub tp: EngineResult,
    /// Median single-node check time.
    pub tp_median: Duration,
    /// 99th-percentile single-node check time.
    pub tp_p99: Duration,
    /// Monolithic baseline result (None if skipped).
    pub ms: Option<EngineResult>,
    /// Term-arena traffic attributable to this row (instance build plus
    /// check): new terms interned, constructions served by existing
    /// canonical nodes.
    pub arena: ArenaStats,
    /// The modular engine's compiled-term cache traffic for this row.
    pub terms: TermCacheStats,
    /// How the row's nodes got their verdicts: proofs and memo hits.
    pub memo: MemoStats,
}

/// Sweep options.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Per-engine time budget (the paper used 2 hours; default 60 s).
    pub timeout: Duration,
    /// Run the monolithic baseline too.
    pub run_monolithic: bool,
    /// Worker threads for the modular engine (None: all cores).
    pub threads: Option<usize>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions { timeout: Duration::from_secs(60), run_monolithic: true, threads: None }
    }
}

impl SweepOptions {
    /// The modular checker's options for this sweep.
    pub fn check_options(&self) -> CheckOptions {
        CheckOptions {
            timeout: Some(self.timeout),
            threads: self.threads,
            ..CheckOptions::default()
        }
    }
}

/// Runs both engines on one instance and assembles a row. The modular
/// conditions go through `pool`, so solver sessions are reused across every
/// row checked on the same pool — the cross-row session cache of multi-`k`
/// sweeps: a row structurally identical to an earlier one starts with its
/// compiled terms already cached, and the row's term stats include those
/// cross-row hits. A pool made for the call gives the row fresh solver
/// state.
pub fn run_row(kind: BenchKind, k: usize, options: &SweepOptions, pool: &mut CheckerPool) -> Row {
    let arena_before = arena::stats();
    let inst = Arc::new(fattree_instance(kind, k));
    let report = pool.check(&inst).expect("benchmark instances encode");
    let stats = report.stats();
    let timed_out = report
        .failures()
        .iter()
        .any(|f| matches!(f.reason, timepiece_core::check::FailureReason::Unknown(_)));
    let tp = EngineResult::classify(report.is_verified(), timed_out, report.wall());
    Row {
        k,
        nodes: inst.network.topology().node_count(),
        tp,
        tp_median: stats.median,
        tp_p99: stats.p99,
        ms: monolithic_result(&inst, options),
        arena: arena::stats().delta_since(&arena_before),
        terms: report.term_cache(),
        memo: report.memo(),
    }
}

/// The monolithic baseline on one instance, when the options ask for it.
fn monolithic_result(inst: &BenchInstance, options: &SweepOptions) -> Option<EngineResult> {
    options.run_monolithic.then(|| {
        let mono = check_monolithic(&inst.network, &inst.property, Some(options.timeout))
            .expect("benchmark instances encode");
        match mono.outcome {
            MonolithicOutcome::Verified => EngineResult::Verified(mono.wall),
            MonolithicOutcome::Failed(_) => EngineResult::Failed(mono.wall),
            MonolithicOutcome::Unknown(_) => EngineResult::TimedOut(mono.wall),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_roundtrip_names() {
        for kind in BenchKind::all() {
            assert_eq!(BenchKind::parse(kind.name()), Some(kind));
            assert!(!kind.figure().is_empty());
        }
        assert_eq!(BenchKind::parse("spreach").map(|k| k.name()), Some("SpReach"));
        assert_eq!(BenchKind::parse("SPFAIL").map(|k| k.name()), Some("SpFail"));
        assert_eq!(BenchKind::parse("nope"), None);
    }

    #[test]
    fn registry_covers_paper_and_post_paper_scenarios() {
        let names = BenchKind::names();
        for expected in [
            "SpReach", "SpLen", "SpVf", "SpHijack", "ApReach", "ApLen", "ApVf", "ApHijack",
            "SpMed", "ApMed", "SpAd", "ApAd", "SpFail",
        ] {
            assert!(names.contains(&expected), "{expected} missing from registry");
        }
        // the paper's eight keep their figure panels, in order
        let figures: Vec<&str> = BenchKind::all().take(8).map(|k| k.figure()).collect();
        assert_eq!(figures, ["14a", "14b", "14c", "14d", "14e", "14f", "14g", "14h"]);
    }

    #[test]
    fn inference_support_is_declared_in_the_registry() {
        let support: Vec<&str> =
            BenchKind::all().filter(BenchKind::supports_inference).map(|k| k.name()).collect();
        assert_eq!(support, ["SpReach", "SpLen"]);
        let setup = BenchKind::parse("SpReach").unwrap().infer_setup(4).unwrap();
        assert_eq!(setup.fattree.k(), 4);
        assert_eq!(setup.instance.network.topology().node_count(), 20);
    }

    #[test]
    fn run_row_produces_verified_row_at_k4() {
        let options =
            SweepOptions { timeout: Duration::from_secs(120), run_monolithic: true, threads: None };
        let mut pool = CheckerPool::with_default_parallelism(options.check_options());
        let row = run_row(BenchKind::parse("SpReach").unwrap(), 4, &options, &mut pool);
        assert_eq!(row.k, 4);
        assert_eq!(row.nodes, 20);
        assert!(matches!(row.tp, EngineResult::Verified(_)), "{row:?}");
        assert!(matches!(row.ms, Some(EngineResult::Verified(_))), "{row:?}");
        assert!(row.tp_median <= row.tp_p99);
        // building and checking the instance exercises the arena, and the
        // repeated per-node structure makes some constructions hits
        assert!(row.arena.constructed() > 0, "{row:?}");
        assert!(row.arena.hits > 0, "{row:?}");
        assert!(row.terms.lookups() > 0);
    }

    #[test]
    fn rows_on_a_reused_pool_agree_with_rows_on_a_fresh_one() {
        let options = SweepOptions {
            timeout: Duration::from_secs(120),
            run_monolithic: false,
            threads: Some(2),
        };
        let mut pool = CheckerPool::with_default_parallelism(options.check_options());
        let kind = BenchKind::parse("SpMed").unwrap();
        // the same row twice through one pool (the second reuses sessions),
        // each compared field-for-field against a row on a pool of its own
        let mut term_rows = Vec::new();
        for k in [4usize, 4] {
            let pooled = run_row(kind, k, &options, &mut pool);
            let fresh = run_row(
                kind,
                k,
                &options,
                &mut CheckerPool::with_default_parallelism(options.check_options()),
            );
            assert!(matches!(pooled.tp, EngineResult::Verified(_)), "{pooled:?}");
            assert!(matches!(fresh.tp, EngineResult::Verified(_)), "{fresh:?}");
            assert_eq!((pooled.k, pooled.nodes), (fresh.k, fresh.nodes));
            assert!(pooled.ms.is_none() && fresh.ms.is_none());
            // both rows carried real per-node timing stats
            assert!(pooled.tp_median <= pooled.tp_p99);
            assert!(pooled.tp_p99 > Duration::ZERO, "{pooled:?}");
            term_rows.push(pooled.terms);
        }
        // the second identical row starts warm: the pool's encoders already
        // hold row one's compiled terms, so hits rise and misses collapse
        assert!(term_rows[1].hits > 0, "{term_rows:?}");
        assert!(term_rows[1].misses < term_rows[0].misses, "{term_rows:?}");
        assert!(term_rows[1].hit_rate() > term_rows[0].hit_rate(), "{term_rows:?}");
    }

    #[test]
    fn engine_result_displays() {
        assert!(EngineResult::Verified(Duration::from_millis(1500)).display().ends_with('s'));
        assert_eq!(EngineResult::TimedOut(Duration::from_secs(1)).display(), "timeout");
        assert!(EngineResult::Failed(Duration::from_secs(1)).display().starts_with("FAILED"));
    }
}
