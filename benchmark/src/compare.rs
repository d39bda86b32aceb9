//! `tpbench compare A.json B.json`: one row per workload and end-to-end
//! metric, judged by the rule the benchmark's bounds define.
//!
//! The two sets ran the same seeds, so each seed gives one pair of runs on
//! the same inputs, and the ratio B/A of a pair owes nothing to how inputs
//! differ between seeds. A row's ratio is the median of its pairs' ratios
//! and its spread their interquartile range over that median (quartiles as
//! Python's `statistics.quantiles`). A row is `unresolved` when the spread
//! is wider than the metric's bound, since a shift of that size cannot then
//! be told from run-to-run noise; `regressed` when the ratio is worse than 1
//! by more than the bound; otherwise `ok`. No metric is exempt.

use std::path::Path;
use std::process::ExitCode;

use timepiece_trace::Json;

use crate::spec::{spec, Metric, EXACT_COUNTS};
use crate::util::quartiles;
use crate::Args;

fn runs(set: &Json) -> &[Json] {
    set.get("runs").and_then(Json::as_arr).unwrap_or(&[])
}

fn runs_of<'a>(set: &'a Json, workload: &'a str, traced: bool) -> impl Iterator<Item = &'a Json> {
    runs(set).iter().filter(move |r| {
        r.get("workload").and_then(Json::as_str) == Some(workload)
            && r.get("trace").and_then(Json::as_bool) == Some(traced)
    })
}

fn seed(run: &Json) -> Option<f64> {
    run.get("seed").and_then(Json::as_f64)
}

fn metric(run: &Json, name: &str) -> Option<f64> {
    run.get("result")?.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// One metric's value at each seed of a set's untraced runs.
fn values(set: &Json, workload: &str, name: &str) -> Vec<(f64, f64)> {
    runs_of(set, workload, false).filter_map(|r| Some((seed(r)?, metric(r, name)?))).collect()
}

/// Operations failed and attempted over a workload's runs (both kinds).
fn failures(set: &Json, workload: &str) -> (f64, f64) {
    runs(set)
        .iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|r| r.get("result"))
        .fold((0.0, 0.0), |(failed, attempted), result| {
            let field = |key: &str| result.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            (failed + field("failed"), attempted + field("attempted"))
        })
}

/// Quartiles of some values, and their interquartile range over the median.
#[derive(Debug, Clone, Copy)]
struct Summary {
    n: usize,
    q: [f64; 3],
}

impl Summary {
    fn of(values: impl Iterator<Item = f64>) -> Option<Summary> {
        let values: Vec<f64> = values.collect();
        quartiles(&values).map(|q| Summary { n: values.len(), q })
    }

    fn median(&self) -> f64 {
        self.q[1]
    }

    fn spread(&self) -> f64 {
        (self.q[2] - self.q[0]) / self.q[1]
    }

    fn to_json(self) -> Json {
        Json::obj([
            ("n", Json::from(self.n)),
            ("median", Json::Num(self.median())),
            ("q1", Json::Num(self.q[0])),
            ("q3", Json::Num(self.q[2])),
            ("spread", Json::Num(self.spread())),
        ])
    }
}

fn bound(m: &Metric) -> f64 {
    m.bound.expect("BENCHMARK.json gives every end-to-end metric a bound")
}

fn print_header() {
    println!(
        "{:<13} {:<18} {:>3} {:>12} {:>12} {:>12} {:>7} {:>6}",
        "workload", "metric", "n", "median", "q1", "q3", "spread", "bound"
    );
}

fn print_summary(workload: &str, m: &Metric, s: &Summary, tail: &str) {
    println!(
        "{workload:<13} {:<18} {:>3} {:>12.4} {:>12.4} {:>12.4} {:>6.1}% {:>5.0}% {tail}",
        m.name,
        s.n,
        s.median(),
        s.q[0],
        s.q[2],
        s.spread() * 100.0,
        bound(m) * 100.0,
    );
}

/// The mark on a set's own row when its spread over seeds is wider than the
/// bound: the driver's acceptance check, which takes that spread, would
/// refuse the benchmark.
fn over_seeds(label: &str, m: &Metric, s: &Summary) -> String {
    let wide = if s.spread() > bound(m) { " (over seeds: wider than the bound)" } else { "" };
    format!("{label}{wide}")
}

/// Prints one set's medians, quartiles and spreads over its seeds. Fails
/// when a run was incorrect.
pub fn summarize(set: &Json) -> ExitCode {
    print_header();
    for workload in &spec().workloads {
        for m in &spec().end_to_end {
            let values = values(set, workload, &m.name).into_iter().map(|(_, v)| v);
            if let Some(s) = Summary::of(values) {
                print_summary(workload, m, &s, &over_seeds("", m, &s));
            }
        }
    }
    let incorrect = runs(set)
        .iter()
        .filter(|r| {
            r.get("result").and_then(|x| x.get("correct")).and_then(Json::as_bool) != Some(true)
        })
        .count();
    if incorrect > 0 {
        println!("{incorrect} runs were not correct");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Compares two sets, prints the rows, writes `compare.json` into `out_dir`.
/// Exit code 1 on a regression, a rise in failures or an inexact count;
/// 3 when the only trouble is unresolved rows.
pub fn compare_sets(a: &Json, b: &Json, out_dir: &Path) -> Result<ExitCode, String> {
    let mut rows = Vec::new();
    let (mut regressed, mut unresolved) = (0, 0);
    print_header();
    for workload in &spec().workloads {
        for m in &spec().end_to_end {
            let (va, vb) = (values(a, workload, &m.name), values(b, workload, &m.name));
            let pairs = va.iter().filter_map(|(seed, x)| {
                vb.iter().find(|(other, _)| other == seed).map(|(_, y)| (*x, *y))
            });
            let (xs, ys): (Vec<f64>, Vec<f64>) = pairs.unzip();
            let ratios = xs.iter().zip(&ys).map(|(x, y)| y / x);
            let (Some(sa), Some(sb), Some(sr)) = (
                Summary::of(xs.iter().copied()),
                Summary::of(ys.iter().copied()),
                Summary::of(ratios),
            ) else {
                return Err(format!("{workload} {}: the sets share fewer than two seeds", m.name));
            };
            let ratio = sr.median();
            let worse = if m.higher_is_better { 1.0 - ratio } else { ratio - 1.0 };
            let verdict = if sr.spread() > bound(m) {
                unresolved += 1;
                "unresolved"
            } else if worse > bound(m) {
                regressed += 1;
                "regressed"
            } else {
                "ok"
            };
            print_summary(workload, m, &sa, &over_seeds("A", m, &sa));
            print_summary(workload, m, &sb, &over_seeds("B", m, &sb));
            print_summary(
                workload,
                m,
                &sr,
                &format!("B/A by seed (base {:.4}) {verdict}", sa.median()),
            );
            rows.push(Json::obj([
                ("workload", Json::str(workload.clone())),
                ("metric", Json::str(m.name.clone())),
                ("unit", Json::str(m.unit.clone())),
                ("bound", Json::Num(bound(m))),
                ("a", sa.to_json()),
                ("b", sb.to_json()),
                ("ratio_b_over_a", sr.to_json()),
                ("verdict", Json::str(verdict)),
            ]));
        }
    }

    let mut failures_rose = 0;
    for workload in &spec().workloads {
        let ((fa, na), (fb, nb)) = (failures(a, workload), failures(b, workload));
        let (frac_a, frac_b) = (fa / na.max(1.0), fb / nb.max(1.0));
        let rose = frac_b > frac_a;
        failures_rose += usize::from(rose);
        println!(
            "{workload:<13} failed_frac        A {frac_a:.6} ({fa} of {na})  B {frac_b:.6} ({fb} of {nb}) {}",
            if rose { "ROSE" } else { "ok" }
        );
    }

    // counts the program makes must repeat exactly at a fixed seed before a
    // later change may rest a claim on them
    let mut exact = Vec::new();
    let mut inexact = 0;
    for workload in &spec().workloads {
        for run_a in runs_of(a, workload, true) {
            let Some(run_b) = runs_of(b, workload, true).find(|r| seed(r) == seed(run_a)) else {
                continue;
            };
            for name in EXACT_COUNTS {
                let (ca, cb) = (metric(run_a, name), metric(run_b, name));
                let same = ca == cb;
                inexact += usize::from(!same);
                println!(
                    "{workload:<13} {name:<22} A {:>12} B {:>12} {}",
                    ca.unwrap_or(f64::NAN),
                    cb.unwrap_or(f64::NAN),
                    if same { "exact" } else { "NOT EXACT" }
                );
                exact.push(Json::obj([
                    ("workload", Json::str(workload.clone())),
                    ("metric", Json::str(name)),
                    ("a", ca.map_or(Json::Null, Json::Num)),
                    ("b", cb.map_or(Json::Null, Json::Num)),
                    ("exact", Json::Bool(same)),
                ]));
            }
        }
    }

    println!(
        "{regressed} regressed, {unresolved} unresolved, failures rose on {failures_rose} workloads, {inexact} counts not exact"
    );
    let report = Json::obj([("rows", Json::Arr(rows)), ("counts", Json::Arr(exact))]);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("creating the out dir: {e}"))?;
    let path = out_dir.join("compare.json");
    std::fs::write(&path, report.to_string())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(if regressed + failures_rose + inexact > 0 {
        ExitCode::FAILURE
    } else if unresolved > 0 {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    })
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `tpbench compare A.json B.json`.
pub fn cmd_compare(args: &Args) -> Result<ExitCode, String> {
    let [a, b] = args.words() else {
        return Err("compare takes two result files".to_owned());
    };
    compare_sets(&load(a)?, &load(b)?, &args.out_dir())
}
