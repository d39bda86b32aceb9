//! End-to-end tests of `repro`'s command-line surface: registry-added
//! benchmarks sweep through `fig14`/`--json` like the paper's eight, unknown
//! names print the registered list, the usage text is the dispatch table, a
//! failed run is one `error:` line, and a closed stdout ends a run quietly.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

use timepiece_sched::Json;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

#[test]
fn registry_scenarios_sweep_and_dump_json() {
    // one registry-added scenario (SpFail) end-to-end through fig14 + --json
    let json_path =
        std::env::temp_dir().join(format!("timepiece-registry-{}.json", std::process::id()));
    let out = repro()
        .args(["fig14", "--bench", "spfail", "--max-k", "4", "--no-ms"])
        .args(["--json", json_path.to_str().unwrap()])
        .output()
        .expect("repro runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("SpFail"), "{text}");
    let doc = Json::parse(&std::fs::read_to_string(&json_path).unwrap()).unwrap();
    std::fs::remove_file(&json_path).ok();
    let rows = doc.get("rows").and_then(Json::as_arr).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].get("bench").and_then(Json::as_str), Some("SpFail"));
    assert_eq!(rows[0].get("figure").and_then(Json::as_str), Some("fail"));
    let tp = rows[0].get("tp").unwrap();
    assert_eq!(tp.get("outcome").and_then(Json::as_str), Some("verified"));
}

#[test]
fn an_unwritable_json_path_is_one_error_line_and_exit_1() {
    // the sweep runs, then the write fails: a run that started and failed,
    // not a panic
    let out = repro()
        .args(["fig14", "--bench", "spreach", "--ks", "4", "--no-ms"])
        .args(["--json", "/nonexistent-dir/rows.json"])
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
    assert_eq!(errors.len(), 1, "{stderr}");
    assert!(errors[0].contains("writing /nonexistent-dir/rows.json"), "{stderr}");
}

#[test]
fn unknown_bench_lists_the_registry() {
    let out = repro().args(["fig14", "--bench", "nosuch"]).output().expect("repro runs");
    assert_eq!(out.status.code(), Some(2), "unknown benchmark is a usage error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("registered benchmarks"), "{stderr}");
    for name in ["SpReach", "ApHijack", "SpMed", "SpAd", "SpFail"] {
        assert!(stderr.contains(name), "registry list must name {name}: {stderr}");
    }
}

#[test]
fn bench_names_parse_case_insensitively() {
    // matching is case-insensitive: "MED" sweeps both MED scenarios
    let out = repro()
        .args(["fig14", "--bench", "MED", "--ks", "4", "--no-ms"])
        .output()
        .expect("repro runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("SpMed") && text.contains("ApMed"), "{text}");
}

/// The names listed in one section of the usage text (first word of every
/// non-continuation line between `header` and the next blank line).
fn usage_section(usage: &str, header: &str) -> Vec<String> {
    let (_, section) = usage.split_once(header).expect("the usage has the section");
    section
        .lines()
        .skip(1)
        .take_while(|line| !line.is_empty())
        .filter(|line| !line.starts_with("   "))
        .map(|line| line.split_whitespace().next().unwrap().to_owned())
        .collect()
}

#[test]
fn the_usage_lists_exactly_what_dispatches_and_parses() {
    let out = repro().args(["no-such-subcommand"]).output().expect("repro runs");
    assert_eq!(out.status.code(), Some(2));
    let usage = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(usage.contains("unknown subcommand \"no-such-subcommand\""), "{usage}");

    // every listed subcommand is known to the dispatcher: it gets as far as
    // refusing the flag, without running anything
    let commands = usage_section(&usage, "subcommands:");
    assert_eq!(commands.len(), 17, "{commands:?}");
    for name in &commands {
        assert_eq!(commands.iter().filter(|c| *c == name).count(), 1, "{name} listed once");
        let out = repro().args([name.as_str(), "--no-such-flag"]).output().expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(stderr.contains("unknown flag \"--no-such-flag\""), "{name}: {stderr}");
    }
    let flags = usage_section(&usage, "flags:");
    assert_eq!(flags.len(), 19, "{flags:?}");

    // what tpbench, the steal scheduler, the one server and the one
    // in-process checking path replaced is gone, not hidden
    for gone in ["plan", "soak", "trend", "arena", "worker", "shard-worker"] {
        assert!(!commands.iter().any(|c| c == gone), "{gone} is still listed");
        let out = repro().args([gone]).output().expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{gone}: {stderr}");
        assert!(stderr.contains("unknown subcommand"), "{gone}: {stderr}");
    }
    for gone in [
        "--plan",
        "--history",
        "--plan-spec",
        "--clients",
        "--deltas",
        "--shards",
        "--workers",
        "--halt-workers",
        "--die-after",
        "--nodes",
        "--shard",
    ] {
        assert!(!flags.iter().any(|f| f == gone), "{gone} is still listed");
        let out = repro().args(["fig14", gone, "2"]).output().expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{gone}: {stderr}");
        assert!(stderr.contains("unknown flag"), "{gone}: {stderr}");
    }

    // `serve` binds one address: naming it twice is refused before anything
    // is bound or compiled
    let out =
        repro().args(["serve", "--listen", "127.0.0.1:0", "--port", "7171"]).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--listen and --port"), "{stderr}");
}

#[test]
fn a_failed_run_prints_its_error_without_the_usage_and_exits_1() {
    // nothing listens on port 1: the command line is fine, the run is not
    let out = repro().args(["ask", "--port", "1"]).output().expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "a run-time failure is not a usage error: {stderr}");
    assert!(stderr.contains("error: connecting to 127.0.0.1:1"), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");
}

#[test]
fn ks_flag_rejects_invalid_fattree_parameters() {
    // a --max-k below the first grid point (4) would sweep nothing
    for (flag, bad, why) in [
        ("--ks", "3", "even and >= 2"),
        ("--ks", "0", "even and >= 2"),
        ("--ks", "4,7", "even and >= 2"),
        ("--max-k", "2", "grid starts at k = 4"),
    ] {
        let out = repro().args(["fig14", flag, bad]).output().expect("repro runs");
        assert_eq!(out.status.code(), Some(2), "{flag} {bad} must be a usage error");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(why), "stderr for {flag} {bad}: {stderr}");
    }
}

#[test]
fn a_closed_stdout_ends_the_run_quietly_with_exit_0() {
    // `repro fig13 | head -1`: the reader leaves after the first line, or
    // (deterministically a broken pipe on the first write) before it
    for lines_read in [1, 0] {
        let mut child = repro()
            .arg("fig13")
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("repro runs");
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        for _ in 0..lines_read {
            let mut line = String::new();
            stdout.read_line(&mut line).expect("the first line arrives");
            assert!(line.starts_with("=== Fig. 13"), "{line:?}");
        }
        drop(stdout);
        let out = child.wait_with_output().expect("repro exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "after {lines_read} line(s): {stderr}");
        assert_eq!(out.status.code(), Some(0), "after {lines_read} line(s): {stderr}");
    }
}
