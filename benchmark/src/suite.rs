//! `tpbench suite`: every workload, each run in a fresh process (the term
//! arena is process-global and never evicts, and peak RSS is per process),
//! over several seeds; and `tpbench freeze`, which writes a seed's plan and
//! known answers under `expected/`.

use std::path::Path;
use std::process::{Command, ExitCode};

use timepiece_trace::Json;

use crate::compare::{compare_sets, summarize};
use crate::spec::{spec, DEFAULT_SEEDS};
use crate::{answers_of, expected_path, Args};

/// Seeds per workload in a plain suite run.
const SUITE_SEEDS: usize = 3;

/// Seeds per workload in each set of the repeatability gate: the number the
/// driver's own acceptance check uses.
const GATE_SEEDS: usize = 10;

/// The seeds of a set's runs: the two documented ones first.
fn seeds(base: u64, runs: usize) -> Vec<u64> {
    let mut seeds: Vec<u64> =
        if base == DEFAULT_SEEDS[0] { DEFAULT_SEEDS.to_vec() } else { vec![base] };
    let mut next = base;
    while seeds.len() < runs {
        next += 1;
        if !seeds.contains(&next) {
            seeds.push(next);
        }
    }
    seeds.truncate(runs);
    seeds
}

/// Runs one workload in a child process and parses its last output line.
fn run_child(workload: &str, seed: u64, traced: bool, args: &Args) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating tpbench: {e}"))?;
    let mut command = Command::new(exe);
    command.args(["run", "--workload", workload, "--seed", &seed.to_string()]);
    command.args(["--trace", if traced { "1" } else { "0" }]);
    command.arg("--out").arg(args.out_dir());
    if let Some(dir) = args.flag("--expected-dir") {
        command.args(["--expected-dir", dir]);
    }
    if args.switch("--quick") {
        command.arg("--quick");
    }
    let output = command.output().map_err(|e| format!("starting tpbench run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result = Json::parse(last).map_err(|_| {
        format!(
            "{workload} seed {seed} printed no result:\n{stdout}{}",
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    if !output.status.success() {
        // the run's own report says what was wrong
        eprint!("{stdout}");
    }
    Ok(result)
}

/// One full set: every workload untraced at every seed, then traced once at
/// the first seed.
fn run_set(label: &str, args: &Args, runs: usize) -> Result<Json, String> {
    let base = args.number("--seed", DEFAULT_SEEDS[0])?;
    let mut records = Vec::new();
    for workload in &spec().workloads {
        for (traced, seed) in
            seeds(base, runs).into_iter().map(|s| (false, s)).chain([(true, base)])
        {
            eprintln!("[{label}] {workload} seed {seed} trace {}", u8::from(traced));
            records.push(Json::obj([
                ("workload", Json::str(workload.clone())),
                ("seed", Json::from(seed as usize)),
                ("trace", Json::Bool(traced)),
                ("result", run_child(workload, seed, traced, args)?),
            ]));
        }
    }
    let set = Json::obj([("label", Json::str(label)), ("runs", Json::Arr(records))]);
    let path = args.out_dir().join(format!("{label}.json"));
    std::fs::create_dir_all(args.out_dir()).map_err(|e| format!("creating the out dir: {e}"))?;
    std::fs::write(&path, set.to_string())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("[{label}] written to {}", path.display());
    Ok(set)
}

/// `tpbench suite`. With `--twice`, runs two sets of the same build and
/// compares them: the repeatability gate.
pub fn cmd_suite(args: &Args) -> Result<ExitCode, String> {
    if !args.switch("--twice") {
        return Ok(summarize(&run_set("set-a", args, SUITE_SEEDS)?));
    }
    let first = run_set("set-a", args, GATE_SEEDS)?;
    let second = run_set("set-b", args, GATE_SEEDS)?;
    compare_sets(&first, &second, &args.out_dir())
}

/// `tpbench freeze`: derives a seed's plan and known answers — from the
/// seed, the benchmark's reference model and from-scratch checks, never from
/// a run of the daemon or a timed pass — and writes them under `expected/`.
pub fn cmd_freeze(args: &Args) -> Result<ExitCode, String> {
    let dir = args.flag("--expected-dir").ok_or("freeze needs --expected-dir")?;
    let seed = args.number("--seed", DEFAULT_SEEDS[0])?;
    let quick = args.switch("--quick");
    let mut workloads = Vec::new();
    for workload in &spec().workloads {
        workloads.push((workload.clone(), answers_of(workload, seed, quick)?));
    }
    let doc = Json::obj([
        ("seed", Json::from(seed as usize)),
        ("quick", Json::Bool(quick)),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = expected_path(dir, seed, quick);
    std::fs::create_dir_all(Path::new(dir)).map_err(|e| format!("creating {dir}: {e}"))?;
    std::fs::write(&path, format!("{doc}\n"))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("{}", path.display());
    Ok(ExitCode::SUCCESS)
}
