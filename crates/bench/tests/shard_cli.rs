//! End-to-end test of the multi-process sharding pipeline: the real `repro`
//! binary, a real fleet of `repro serve` processes, real JSON over TCP.

use std::net::TcpStream;
use std::path::Path;
use std::process::Command;

use timepiece_bench::{
    fattree_instance, run_row_distributed, BenchKind, DistError, DistOptions, LocalFleet,
    ShardReport, SweepOptions,
};
use timepiece_sched::{Json, ShardPlan};

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

fn repro() -> Command {
    Command::new(REPRO)
}

fn temp_path(what: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("timepiece-{what}-{}.json", std::process::id()))
}

/// The events of a `--trace` dump.
fn trace_events(path: &Path) -> Vec<Json> {
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    std::fs::remove_file(path).ok();
    doc.get("traceEvents").and_then(Json::as_arr).unwrap().to_vec()
}

/// The fleet tracks of a trace, in ingestion (= row) order:
/// `(pid, shard, worker address)` per `shardI@ADDR` process.
fn shard_tracks(events: &[Json]) -> Vec<(usize, String, String)> {
    let mut tracks: Vec<_> = events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("process_name"))
        .filter_map(|e| {
            let name = e.get("args")?.get("name")?.as_str()?;
            let (shard, addr) = name.split_once('@')?;
            Some((e.get("pid")?.as_usize()?, shard.to_owned(), addr.to_owned()))
        })
        .collect();
    tracks.sort();
    tracks
}

fn assert_gone(addr: &str) {
    assert!(TcpStream::connect(addr).is_err(), "a worker still listens on {addr}");
}

#[test]
fn sharded_fig14_merges_reports_and_writes_json_rows() {
    let json_path =
        std::env::temp_dir().join(format!("timepiece-rows-{}.json", std::process::id()));
    let out = repro()
        .args(["fig14", "--bench", "spreach", "--max-k", "4", "--shards", "2", "--no-ms"])
        .args(["--json", json_path.to_str().unwrap()])
        .output()
        .expect("repro runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    // the plain-text sweep output is unchanged by --json/--shards
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("=== Fig. 14a — SpReach (Tp vs Ms) ==="), "{text}");
    assert!(text.contains("Tp total"), "{text}");

    // the JSON document has the promised row shape
    let doc = Json::parse(&std::fs::read_to_string(&json_path).unwrap()).unwrap();
    std::fs::remove_file(&json_path).ok();
    assert_eq!(doc.get("shards").and_then(Json::as_usize), Some(2));
    let rows = doc.get("rows").and_then(Json::as_arr).unwrap();
    assert_eq!(rows.len(), 1, "one benchmark × one k");
    let row = &rows[0];
    assert_eq!(row.get("bench").and_then(Json::as_str), Some("SpReach"));
    assert_eq!(row.get("k").and_then(Json::as_usize), Some(4));
    assert_eq!(row.get("nodes").and_then(Json::as_usize), Some(20));
    let tp = row.get("tp").unwrap();
    assert_eq!(tp.get("outcome").and_then(Json::as_str), Some("verified"));
    assert!(tp.get("wall_secs").and_then(Json::as_f64).unwrap() > 0.0);
    assert!(tp.get("median_secs").and_then(Json::as_f64).is_some());
    assert!(tp.get("p99_secs").and_then(Json::as_f64).is_some());
    assert_eq!(tp.get("shards").and_then(Json::as_usize), Some(2));
    assert_eq!(row.get("ms"), Some(&Json::Null), "--no-ms skips the baseline");
}

#[test]
fn a_recorded_shard_replays_to_the_same_nodes_and_verdicts() {
    // shard 1 of 2 the way a fleet worker reports it: one row of one shard
    // pair on a real worker, recorded from the coordinator's side
    let kind = BenchKind::parse("SpReach").unwrap();
    let inst = fattree_instance(kind, 4);
    let topology = inst.network.topology();
    let plan = ShardPlan::by_class(topology.nodes(), 2, |v| topology.node_class(v));
    let assigned: Vec<&str> = plan.nodes_of(1).iter().map(|&v| topology.name(v)).collect();
    assert_eq!(assigned.len(), 10, "half of the 20-node fattree");

    // the deterministic-replay contract: the shard reruns from its reply's
    // node list alone, and twice the same
    let replay = ["shard-worker", "--bench", "SpReach", "--k", "4", "--shard", "1"];
    let run = || {
        let out = repro()
            .args(replay)
            .args(["--nodes", &assigned.join(",")])
            .output()
            .expect("repro runs");
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8(out.stdout).unwrap();
        ShardReport::from_reply(&Json::parse(&text).expect("valid JSON")).unwrap()
    };
    let (recorded, replayed) = (run(), run());
    assert_eq!(recorded.label, "SpReach k=4");
    assert_eq!(recorded.shard, 1);
    assert_eq!(recorded.assigned, assigned);
    assert!(recorded.failures.is_empty(), "SpReach k=4 verifies");
    assert_eq!(replayed.assigned, recorded.assigned);
    assert_eq!(replayed.failures, recorded.failures);
    let checked = |r: &ShardReport| r.durations.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(checked(&replayed), checked(&recorded), "exactly the named nodes are checked");
    let mut sorted = checked(&recorded);
    sorted.sort_unstable();
    let mut expected = assigned.clone();
    expected.sort_unstable();
    assert_eq!(sorted, expected);

    let out = repro().args(replay).args(["--nodes", "core-0,no-such-node"]).output().unwrap();
    assert!(!out.status.success(), "unknown node names must be rejected");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no-such-node"), "stderr: {stderr}");

    // there is no plan to fall back on: a replay names its nodes
    let out = repro().args(replay).output().expect("repro runs");
    assert_eq!(out.status.code(), Some(2), "--nodes is required");
    assert!(String::from_utf8_lossy(&out.stderr).contains("requires --nodes"));
}

#[test]
fn a_two_row_sweep_runs_on_two_workers_that_stay_warm() {
    let (trace_path, json_path) = (temp_path("fleet-trace"), temp_path("fleet-warm"));
    let out = repro()
        .args(["fig14", "--bench", "spreach", "--ks", "4,4", "--shards", "2", "--no-ms"])
        .args(["--threads", "1", "--trace", trace_path.to_str().unwrap()])
        .args(["--json", json_path.to_str().unwrap()])
        .output()
        .expect("repro runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let tracks = shard_tracks(&trace_events(&trace_path));

    // two rows of two shards each, served by exactly two worker processes —
    // not one pair per row
    let shards: Vec<&str> = tracks.iter().map(|(_, shard, _)| shard.as_str()).collect();
    assert_eq!(shards.iter().filter(|&&s| s == "shard0").count(), 2, "{tracks:?}");
    assert_eq!(shards.iter().filter(|&&s| s == "shard1").count(), 2, "{tracks:?}");
    let mut workers: Vec<&str> = tracks.iter().map(|(_, _, addr)| addr.as_str()).collect();
    workers.sort_unstable();
    workers.dedup();
    assert_eq!(workers.len(), 2, "{tracks:?}");

    // each worker's solver sessions outlive the row (and the `load` of the
    // next): what the fleet compiled for row one it does not compile again
    // for the identical row two — read off the rows' own term-cache counters
    let doc = Json::parse(&std::fs::read_to_string(&json_path).unwrap()).unwrap();
    std::fs::remove_file(&json_path).ok();
    let misses: Vec<usize> = doc
        .get("rows")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|row| row.get("term_cache").unwrap().get("misses").and_then(Json::as_usize).unwrap())
        .collect();
    assert!(misses[0] > 0, "row one compiles its terms: {misses:?}");
    assert_eq!(misses[1], 0, "row two must start warm on single-threaded workers: {misses:?}");
    // and none of them outlives the sweep
    workers.iter().for_each(|addr| assert_gone(addr));
}

#[test]
fn a_file_scenario_verifies_on_remote_workers() {
    // the workers get the scenario as text in the load: nothing on their
    // side knows the file
    let scenario = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/scenarios/sp_reach.toml");
    let fleet = LocalFleet::spawn(Path::new(REPRO), 2, None).expect("two loopback workers");
    let json_path = temp_path("fleet-scenario");
    let out = repro()
        .args(["fig14", "--scenario-file", scenario, "--no-ms"])
        .args(["--workers", &fleet.addrs().join(",")])
        .args(["--json", json_path.to_str().unwrap()])
        .output()
        .expect("repro runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let doc = Json::parse(&std::fs::read_to_string(&json_path).unwrap()).unwrap();
    std::fs::remove_file(&json_path).ok();
    let rows = doc.get("rows").and_then(Json::as_arr).unwrap();
    assert_eq!(rows.len(), 1, "a file scenario is one row at its native size");
    let tp = rows[0].get("tp").unwrap();
    assert_eq!(tp.get("outcome").and_then(Json::as_str), Some("verified"));
    assert_eq!(tp.get("shards").and_then(Json::as_usize), Some(8), "4x the worker count");
    let addrs = fleet.addrs().to_vec();
    fleet.shutdown();
    addrs.iter().for_each(|addr| assert_gone(addr));
}

#[test]
fn a_loopback_worker_dying_mid_row_has_its_shard_reassigned() {
    let json_path = temp_path("fleet-dead");
    let out = repro()
        .args(["fig14", "--bench", "spreach", "--ks", "4", "--shards", "2", "--no-ms"])
        .args(["--die-after", "0", "--json", json_path.to_str().unwrap()])
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "the survivor finishes the row; stderr: {stderr}");
    assert!(stderr.contains("died on shard") && stderr.contains("reassigning"), "{stderr}");
    let doc = Json::parse(&std::fs::read_to_string(&json_path).unwrap()).unwrap();
    std::fs::remove_file(&json_path).ok();
    let row = &doc.get("rows").and_then(Json::as_arr).unwrap()[0];
    assert_eq!(row.get("tp").unwrap().get("outcome").and_then(Json::as_str), Some("verified"));
    let balance = row.get("balance").unwrap();
    assert!(balance.get("reassigned").and_then(Json::as_usize).unwrap() >= 1, "{balance}");
}

#[test]
fn a_fleet_with_no_survivor_is_a_typed_error_and_leaves_no_worker_behind() {
    let kind = BenchKind::parse("SpReach").unwrap();
    let options = SweepOptions { run_monolithic: false, ..SweepOptions::default() };
    let fleet = LocalFleet::spawn(Path::new(REPRO), 1, Some(0)).expect("one loopback worker");
    let addr = fleet.addrs()[0].clone();
    let err = run_row_distributed(kind, 4, &options, 1, fleet.addrs(), &DistOptions::default())
        .unwrap_err();
    assert!(matches!(&err, DistError::Worker { worker, .. } if *worker == addr), "{err}");
    assert!(err.to_string().contains(&addr), "{err}");
    drop(fleet);
    assert_gone(&addr);

    // a coordinator that panics mid-sweep takes its fleet down with it
    let addr = std::sync::Mutex::new(String::new());
    let unwound = std::panic::catch_unwind(|| {
        let fleet = LocalFleet::spawn(Path::new(REPRO), 1, None).expect("one loopback worker");
        *addr.lock().unwrap() = fleet.addrs()[0].clone();
        TcpStream::connect(&fleet.addrs()[0]).expect("the worker is up");
        panic!("coordinator bug");
    });
    assert!(unwound.is_err());
    assert_gone(&addr.into_inner().unwrap());
}

/// The pids of the live children of process `parent`.
#[cfg(target_os = "linux")]
fn children_of(parent: u32) -> Vec<u32> {
    let tasks = std::fs::read_dir(format!("/proc/{parent}/task")).expect("the parent runs");
    tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("children")).ok())
        .flat_map(|pids| pids.split_whitespace().flat_map(str::parse).collect::<Vec<u32>>())
        .collect()
}

#[cfg(target_os = "linux")]
#[test]
fn a_sigkilled_coordinator_takes_its_loopback_fleet_with_it() {
    use std::time::{Duration, Instant};
    // a multi-row grid, so the fleet is mid-sweep when the coordinator dies
    let mut coordinator = repro()
        .args(["fig14", "--max-k", "4", "--shards", "2", "--no-ms"])
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("repro runs");
    let within = |limit: Duration, mut done: Box<dyn FnMut() -> bool>| {
        let deadline = Instant::now() + limit;
        while !done() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        done()
    };
    let pid = coordinator.id();
    let is_serve = |pid: &u32| {
        let cmdline = std::fs::read(format!("/proc/{pid}/cmdline")).unwrap_or_default();
        cmdline.split(|&b| b == 0).any(|arg| arg == b"serve")
    };
    // a child seen between `fork` and `exec` still has the coordinator's
    // command line: wait until both children have become `repro serve`s
    let both_serve = move || {
        let children = children_of(pid);
        children.len() == 2 && children.iter().all(is_serve)
    };
    assert!(
        within(Duration::from_secs(30), Box::new(both_serve)),
        "the coordinator starts its two workers, both `repro serve`s"
    );
    let workers = children_of(pid);
    assert!(workers.iter().all(is_serve), "both children are `repro serve`s");

    coordinator.kill().expect("SIGKILL is delivered");
    coordinator.wait().expect("the coordinator is reaped");
    // no Drop ran; the kernel's parent-death SIGTERM drains each daemon
    let alive = move || workers.iter().filter(|pid| is_serve(pid)).count();
    assert!(
        within(Duration::from_secs(2), Box::new(move || alive() == 0)),
        "a worker outlived its SIGKILLed coordinator"
    );
}

#[test]
fn a_failed_run_prints_its_error_without_the_usage_and_exits_1() {
    // nothing listens on port 1: the command line is fine, the run is not
    let out = repro()
        .args(["fig14", "--bench", "spreach", "--ks", "4", "--no-ms", "--workers", "127.0.0.1:1"])
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "a run-time failure is not a usage error: {stderr}");
    assert!(stderr.contains("error: SpReach k=4: no workers reachable"), "{stderr}");
    assert!(stderr.contains("127.0.0.1:1"), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");
}

#[test]
fn shard_worker_rejects_bad_arguments() {
    let out = repro().args(["shard-worker", "--bench", "SpReach"]).output().expect("repro runs");
    assert!(!out.status.success(), "missing --k/--shard must fail");
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
