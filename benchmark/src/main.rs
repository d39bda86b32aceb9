//! `tpbench`: one seeded, self-checking benchmark for the Timepiece
//! reproduction. See `README.md` beside this package.

mod author;
mod batch;
mod compare;
mod engine;
mod layers;
mod plan;
mod serve;
mod spec;
mod suite;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

use timepiece_trace::Json;

use engine::{run_traced, run_untraced, Outcome, RunOptions, Workload};
use spec::spec;

const USAGE: &str = "\
usage: tpbench run --workload W [--seed S] [--seconds N] [--trace 0|1] [--quick] [--expected-dir DIR] [--out DIR]
       tpbench suite [--twice] [--quick] [--seed S] [--expected-dir DIR] [--out DIR]
       tpbench compare A.json B.json [--out DIR]
       tpbench freeze --expected-dir DIR [--seed S] [--quick]";

/// Parsed `--flag value` pairs, switches and bare words.
#[derive(Debug, Default)]
pub struct Args {
    flags: Vec<(String, String)>,
    switches: Vec<String>,
    words: Vec<String>,
}

impl Args {
    /// Parses a command's arguments. Only the `flags` (which take a value)
    /// and `switches` (which do not) the command names are accepted.
    fn parse(
        args: impl Iterator<Item = String>,
        flags: &[&str],
        switches: &[&str],
    ) -> Result<Args, String> {
        let mut out = Args::default();
        let mut args = args;
        while let Some(arg) = args.next() {
            if switches.contains(&arg.as_str()) {
                out.switches.push(arg);
            } else if flags.contains(&arg.as_str()) {
                let value = args.next().ok_or_else(|| format!("{arg} needs a value"))?;
                out.flags.push((arg, value));
            } else if arg.starts_with("--") {
                return Err(format!("unknown option {arg}\n{USAGE}"));
            } else {
                out.words.push(arg);
            }
        }
        Ok(out)
    }

    pub fn flag(&self, name: &str) -> Option<&str> {
        self.flags.iter().rev().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    pub fn words(&self) -> &[String] {
        &self.words
    }

    pub fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{name} takes a number, not {v:?}")),
        }
    }

    pub fn out_dir(&self) -> PathBuf {
        PathBuf::from(self.flag("--out").unwrap_or("benchmark/out"))
    }
}

/// The file under `expected/` that freezes one seed's answers.
pub fn expected_path(dir: &str, seed: u64, quick: bool) -> PathBuf {
    let mode = if quick { "quick" } else { "full" };
    PathBuf::from(dir).join(format!("{mode}-seed-{seed}.json"))
}

/// The frozen answers for `seed`; only the documented seeds have any.
fn load_expected(args: &Args, seed: u64, quick: bool) -> Result<Option<Json>, String> {
    let Some(dir) = args.flag("--expected-dir") else { return Ok(None) };
    let path = expected_path(dir, seed, quick);
    if !path.exists() {
        return Ok(None);
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map(Some).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_workload<W: Workload>(options: &RunOptions) -> Result<Outcome, String> {
    if options.traced {
        run_traced::<W>(options)
    } else {
        run_untraced::<W>(options)
    }
}

/// Runs `name` in this process.
pub fn dispatch(name: &str, options: &RunOptions) -> Result<Outcome, String> {
    match name {
        "sp-wide" => run_workload::<batch::Batch<batch::SpWide>>(options),
        "ap-deep" => run_workload::<batch::Batch<batch::ApDeep>>(options),
        "serve-edits" => run_workload::<serve::Serve>(options),
        "author-infer" => run_workload::<author::Author>(options),
        other => {
            Err(format!("unknown workload {other:?}; the workloads are {:?}", spec().workloads))
        }
    }
}

/// The plan and known answers of `name` at a seed (what `freeze` writes).
pub fn answers_of(name: &str, seed: u64, quick: bool) -> Result<Json, String> {
    fn of<W: Workload>(seed: u64, quick: bool) -> Result<Json, String> {
        W::answers(&W::plan(seed, quick))
    }
    match name {
        "sp-wide" => of::<batch::Batch<batch::SpWide>>(seed, quick),
        "ap-deep" => of::<batch::Batch<batch::ApDeep>>(seed, quick),
        "serve-edits" => of::<serve::Serve>(seed, quick),
        "author-infer" => of::<author::Author>(seed, quick),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// `tpbench run`: every metric by name with its unit, then the result as
/// one JSON object on the last line.
fn cmd_run(args: &Args) -> Result<ExitCode, String> {
    let workload = args.flag("--workload").ok_or("run needs --workload")?;
    let seed = args.number("--seed", spec::DEFAULT_SEEDS[0])?;
    let quick = args.switch("--quick");
    let traced = match args.flag("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let options = RunOptions {
        seed,
        seconds: args.number("--seconds", spec().run_seconds)?,
        traced,
        quick,
        expected: load_expected(args, seed, quick)?,
        out_dir: args.out_dir(),
    };
    let outcome = dispatch(workload, &options)?;

    let declared = if traced { &spec().per_layer } else { &spec().end_to_end };
    if let Some(stray) =
        outcome.metrics.keys().find(|name| !declared.iter().any(|m| m.name == **name))
    {
        return Err(format!("{workload} measured {stray}, which BENCHMARK.json does not declare"));
    }
    let mut values = Vec::new();
    for m in declared {
        let value = match outcome.metrics.get(m.name.as_str()) {
            Some(value) => *value,
            // a layer the workload never enters
            None if traced => 0.0,
            None => return Err(format!("{workload} did not measure {}", m.name)),
        };
        values.push((m, value));
    }

    println!("# {workload} seed {seed}{}", if quick { " (quick)" } else { "" });
    for note in &outcome.notes {
        println!("# {note}");
    }
    for (m, value) in &values {
        println!("{:<28} {value:>16.6} {}", m.name, m.unit);
    }
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "{:<28} {failed_frac:>16.6} ratio ({} of {})",
        "failed_frac", outcome.failed, outcome.attempted
    );
    for error in outcome.errors.iter().take(8) {
        println!("# WRONG: {error}");
    }
    let metrics = values.iter().map(|(m, value)| {
        let entry = Json::obj([("value", Json::Num(*value)), ("unit", Json::str(m.unit.clone()))]);
        (m.name.clone(), entry)
    });
    let result = Json::obj([
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::from(outcome.attempted)),
        ("failed", Json::from(outcome.failed)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{result}");
    Ok(if outcome.correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_default();
    let parse = |flags: &[&str], switches: &[&str]| Args::parse(argv, flags, switches);
    let result = match command.as_str() {
        "run" => parse(
            &["--workload", "--seed", "--seconds", "--trace", "--expected-dir", "--out"],
            &["--quick"],
        )
        .and_then(|args| cmd_run(&args)),
        "suite" => parse(&["--seed", "--expected-dir", "--out"], &["--twice", "--quick"])
            .and_then(|args| suite::cmd_suite(&args)),
        "compare" => parse(&["--out"], &[]).and_then(|args| compare::cmd_compare(&args)),
        "freeze" => parse(&["--seed", "--expected-dir"], &["--quick"])
            .and_then(|args| suite::cmd_freeze(&args)),
        _ => Err(USAGE.to_owned()),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("tpbench: {message}");
            ExitCode::from(2)
        }
    }
}
