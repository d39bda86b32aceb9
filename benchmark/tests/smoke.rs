//! Runs every workload at smoke-test size and holds what it prints against
//! `BENCHMARK.json`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use timepiece_trace::Json;

const SEED: &str = "20230613";

fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn declared() -> Json {
    let path = package_dir().join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

fn names(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("a list of declarations")
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).expect("a name").to_owned())
        .collect()
}

fn run(workload: &str, traced: bool, expected_dir: &Path) -> Output {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("out");
    Command::new(env!("CARGO_BIN_EXE_tpbench"))
        .args(["run", "--quick", "--workload", workload, "--seed", SEED, "--seconds", "1"])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--expected-dir")
        .arg(expected_dir)
        .arg("--out")
        .arg(out_dir)
        .output()
        .expect("tpbench starts")
}

fn result(output: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&output.stdout);
    Json::parse(stdout.lines().last().expect("a result line")).expect("the last line is JSON")
}

#[test]
fn every_workload_prints_every_declared_metric_and_is_correct() {
    let doc = declared();
    let frozen = package_dir().join("expected");
    for workload in names(&doc, "workloads") {
        for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let output = run(&workload, traced, &frozen);
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(output.status.success(), "{workload} trace {traced}:\n{stdout}");
            let result = result(&output);
            // correct means, among the rest, that the nodes each check failed
            // were exactly the sabotaged ones
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true), "{stdout}");
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0), "{stdout}");
            assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0, "{stdout}");
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("no metrics object in {stdout}");
            };
            let printed: Vec<&str> = metrics.iter().map(|(name, _)| name.as_str()).collect();
            assert_eq!(printed, names(&doc, key), "{workload} trace {traced}");
            for (name, metric) in metrics {
                let value = metric.get("value").and_then(Json::as_f64).expect("a value");
                assert!(value.is_finite(), "{workload} {name} = {value}");
                assert!(metric.get("unit").and_then(Json::as_str).is_some(), "{workload} {name}");
                // each metric is also printed by name with its unit
                assert!(stdout.lines().any(|l| l.starts_with(name.as_str())), "{workload} {name}");
                if !traced {
                    assert!(value > 0.0, "end-to-end metrics are never 0: {workload} {name}");
                }
            }
            if traced {
                let trace = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
                    .join(format!("out/trace-{workload}.json"));
                let chrome = Json::parse(&std::fs::read_to_string(trace).expect("a trace file"))
                    .expect("the Chrome trace parses");
                assert!(chrome
                    .get("traceEvents")
                    .and_then(Json::as_arr)
                    .is_some_and(|e| !e.is_empty()));
            }
        }
    }
}

#[test]
fn a_wrong_expected_file_fails_the_run() {
    let frozen = package_dir().join(format!("expected/quick-seed-{SEED}.json"));
    let text = std::fs::read_to_string(frozen).expect("the frozen answers are readable");
    // claim another node is the one that must fail
    let sabotaged = text.find("\"failing\":[\"").expect("a failing list") + "\"failing\":[\"".len();
    let end = sabotaged + text[sabotaged..].find('"').expect("the name ends");
    let wrong = format!("{}edge-0-0{}", &text[..sabotaged], &text[end..]);
    assert_ne!(wrong, text);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("wrong-expected");
    std::fs::create_dir_all(&dir).expect("the temp dir is writable");
    std::fs::write(dir.join(format!("quick-seed-{SEED}.json")), wrong)
        .expect("the temp dir is writable");
    let output = run("sp-wide", false, &dir);
    assert!(!output.status.success(), "a run against wrong answers must fail");
    assert_eq!(result(&output).get("correct").and_then(Json::as_bool), Some(false));
}

#[test]
fn an_unknown_option_is_refused() {
    let output = Command::new(env!("CARGO_BIN_EXE_tpbench"))
        .args(["run", "--quick", "--workload", "sp-wide", "--seeds", "5"])
        .output()
        .expect("tpbench starts");
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("unknown option --seeds"));
}
