//! What the benchmark declares. Workloads, metric names, units, directions,
//! bounds and the run length have one source, `../BENCHMARK.json`, compiled
//! in and parsed at start-up; what that file has no key for is a constant
//! here.

use std::sync::OnceLock;

use timepiece_trace::Json;

/// The two documented default seeds; expected answers for both are frozen
/// under `expected/`.
pub const DEFAULT_SEEDS: [u64; 2] = [20230613, 7351];

/// Checker worker threads everywhere: the box has two cores.
pub const THREADS: usize = 2;

/// How many times a run repeats its set-up (the first is cold).
pub const SETUP_REPS: usize = 3;

/// A run measures at least this many passes, however short `--seconds` is.
pub const MIN_PASSES: usize = 3;

/// Per-layer counts that must repeat exactly at a fixed seed; `compare`
/// flags any that do not and marks the rest `"exact": true`.
pub const EXACT_COUNTS: [&str; 5] =
    ["expr.terms_new", "core.vcs", "smt.checks", "core.cone_nodes_mean", "infer.rounds"];

/// A declared metric. Only end-to-end metrics have a bound: the share of the
/// base median by which one may worsen before that counts as a regression.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    pub bound: Option<f64>,
}

/// `BENCHMARK.json`, as far as the benchmark itself needs it.
#[derive(Debug)]
pub struct Spec {
    /// The workloads, in the order the suite runs them.
    pub workloads: Vec<String>,
    /// How long one run measures, unless `--seconds` says otherwise.
    pub run_seconds: f64,
    /// Printed by an untraced run, on every workload.
    pub end_to_end: Vec<Metric>,
    /// Printed by a traced run, on every workload.
    pub per_layer: Vec<Metric>,
}

fn metrics(doc: &Json, key: &str) -> Option<Vec<Metric>> {
    doc.get(key)?
        .as_arr()?
        .iter()
        .map(|m| {
            Some(Metric {
                name: m.get("name")?.as_str()?.to_owned(),
                unit: m.get("unit")?.as_str()?.to_owned(),
                higher_is_better: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

fn parse(text: &str) -> Option<Spec> {
    let doc = Json::parse(text).ok()?;
    let workloads = doc.get("workloads")?.as_arr()?.iter();
    Some(Spec {
        workloads: workloads
            .map(|w| Some(w.get("name")?.as_str()?.to_owned()))
            .collect::<Option<_>>()?,
        run_seconds: doc.get("run_seconds")?.as_f64()?,
        end_to_end: metrics(&doc, "end_to_end")?,
        per_layer: metrics(&doc, "per_layer")?,
    })
}

/// The declarations this binary was compiled with.
///
/// # Panics
///
/// Panics when the compiled-in `BENCHMARK.json` lacks a key this module
/// reads: a broken build, not a condition of use.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json declares the benchmark")
    })
}
