//! End-to-end test of the multi-process sharding pipeline: the real `repro`
//! binary, a real fleet of `repro worker` processes, real JSON over TCP.

use std::net::TcpStream;
use std::path::Path;
use std::process::Command;

use timepiece_bench::{
    fattree_instance, run_row_distributed, BenchKind, DistError, DistOptions, LocalFleet,
    ShardReport, ShardRow, SweepOptions,
};
use timepiece_core::sweep::CheckerPool;
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
    // shard 1 of 2 the way a fleet worker reports it
    let kind = BenchKind::parse("SpReach").unwrap();
    let inst = fattree_instance(kind, 4);
    let topology = inst.network.topology();
    let plan = ShardPlan::by_class(topology.nodes(), 2, |v| topology.node_class(v));
    let names: Vec<String> =
        plan.nodes_of(1).iter().map(|&v| topology.name(v).to_owned()).collect();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    let mut pool = CheckerPool::new(1, SweepOptions::default().check_options());
    let row = ShardRow::new(kind.name(), 4, 2, inst);
    let recorded = row.check(&mut pool, 1, &names).expect("encodes");
    assert_eq!(recorded.assigned.len(), 10, "half of the 20-node fattree");
    assert!(recorded.failures.is_empty(), "SpReach k=4 verifies");

    // the deterministic-replay contract: the shard reruns from its report's
    // assigned node list alone
    let replay =
        ["shard-worker", "--bench", "SpReach", "--k", "4", "--shard", "1", "--shards", "2"];
    let out = repro()
        .args(replay)
        .args(["--nodes", &recorded.assigned.join(",")])
        .output()
        .expect("repro runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    let replayed = ShardReport::from_json(&Json::parse(&text).expect("valid JSON")).unwrap();
    assert_eq!(replayed.bench, "SpReach");
    assert_eq!(replayed.assigned, recorded.assigned);
    assert_eq!(replayed.failures, recorded.failures);
    assert_eq!((replayed.k, replayed.shard, replayed.shards), (4, recorded.shard, recorded.shards));
    let checked = |r: &ShardReport| r.durations.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(checked(&replayed), checked(&recorded), "exactly the named nodes are checked");

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
    let trace_path = temp_path("fleet-trace");
    let out = repro()
        .args(["fig14", "--bench", "spreach", "--ks", "4,4", "--shards", "2", "--no-ms"])
        .args(["--threads", "1", "--trace", trace_path.to_str().unwrap()])
        .output()
        .expect("repro runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let events = trace_events(&trace_path);
    let tracks = shard_tracks(&events);

    // two rows of two shards each, served by exactly two worker processes —
    // not one pair per row
    let shards: Vec<&str> = tracks.iter().map(|(_, shard, _)| shard.as_str()).collect();
    assert_eq!(shards.iter().filter(|&&s| s == "shard0").count(), 2, "{tracks:?}");
    assert_eq!(shards.iter().filter(|&&s| s == "shard1").count(), 2, "{tracks:?}");
    let mut workers: Vec<&str> = tracks.iter().map(|(_, _, addr)| addr.as_str()).collect();
    workers.sort_unstable();
    workers.dedup();
    assert_eq!(workers.len(), 2, "{tracks:?}");

    // each worker's solver sessions outlive the row: what it compiled for
    // row one it does not compile again for the identical row two
    let misses = |pid: usize| -> usize {
        events
            .iter()
            .filter(|e| e.get("pid").and_then(Json::as_usize) == Some(pid))
            .filter_map(|e| {
                e.get("args")?.get("term_cache_misses")?.as_str()?.parse::<usize>().ok()
            })
            .sum()
    };
    let (row_one, row_two) = tracks.split_at(2);
    for (pid, shard, addr) in row_two {
        let (first_pid, ..) =
            row_one.iter().find(|(_, _, a)| a == addr).expect("the same two workers serve row two");
        assert!(misses(*first_pid) > 0, "{shard}@{addr}: row one compiles its terms");
        assert!(
            misses(*pid) < misses(*first_pid),
            "{shard}@{addr}: row two must start warm ({} vs {} misses)",
            misses(*pid),
            misses(*first_pid)
        );
    }
    // and none of them outlives the sweep
    workers.iter().for_each(|addr| assert_gone(addr));
}

#[test]
fn a_file_scenario_verifies_on_remote_workers() {
    // the workers get the scenario as text in the hello: nothing on their
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
    fleet.halt();
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
    let out = repro()
        .args(["shard-worker", "--bench", "SpReach", "--k", "4", "--shard", "5", "--shards", "2"])
        .output()
        .expect("repro runs");
    assert!(!out.status.success(), "out-of-range shard index must fail");
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
