//! A daemon's memory must plateau, not track its request count.
//!
//! The workers' solver sessions are the part of a `timepieced` that grows:
//! every edit compiles new terms into an encoder cache that never forgets,
//! and every check leaves a residue in its solver. Each worker retires its
//! overgrown session between requests (the rule in `core::sweep`); these
//! tests drive one [`DaemonState`] through hundreds of checks and edits and
//! assert the plateau on the counters `status` reports — and, in an
//! `#[ignore]`d release-mode variant, on the process's resident set.
//!
//! Every check of the check phase follows a `load` of the same instance. A
//! `load` keeps the pool (same threads, same timeout) but starts with no
//! records, so each of those checks proves every distinct key on the warm
//! sessions, as a daemon's checks did before it kept proofs; without the
//! `load` a check of an unedited instance is answered by its records and
//! never reaches a solver.
//!
//! The counters are bounded, not repeatable: a node a job's work stealing
//! moved is checked in a session that ends with the job, so its home worker
//! compiles it in a later job instead. The yardstick is therefore taken
//! where nothing can be stolen ([`one_copy`]), not from the first check.

use std::sync::Arc;

use timepiece_core::check::CheckOptions;
use timepiece_core::sweep::CheckerPool;
use timepiece_core::Instance;
use timepiece_daemon::fixture::hop_path;
use timepiece_daemon::{
    DaemonState, Delta, Load, LoadSource, PolicySpec, Request, PROTOCOL_VERSION,
};
use timepiece_nets::reach::ReachBench;
use timepiece_sched::CancelToken;
use timepiece_trace::Json;

const CHECKS: usize = 300;
const DELTAS: usize = 600;
const WORKERS: usize = 2;

/// The session counters of one `status` reply.
#[derive(Debug, Clone, Copy)]
struct Counters {
    sessions: usize,
    compiled_terms: usize,
    retirements: usize,
    arena_terms: usize,
}

fn counters(state: &mut DaemonState) -> Counters {
    let status = state.handle(&Request::Status).reply;
    let field = |key: &str| {
        status.get(key).and_then(Json::as_usize).unwrap_or_else(|| panic!("status lacks {key}"))
    };
    Counters {
        sessions: field("sessions"),
        compiled_terms: field("compiled_terms"),
        retirements: field("session_retirements"),
        arena_terms: field("arena_terms"),
    }
}

/// The compiled terms of one copy of `instance` as [`WORKERS`] workers hold
/// it: each worker's own nodes (node `v` is at home on worker `v.index() %
/// WORKERS`), checked by a pool of one, which has nobody to steal from it.
fn one_copy(instance: &Instance) -> usize {
    let Instance { network, interface, property } = instance;
    let instance = Arc::new(Instance {
        network: network.clone(),
        interface: interface.clone(),
        property: property.clone(),
    });
    let g = network.topology();
    (0..WORKERS)
        .map(|w| {
            let own: Vec<_> = g.nodes().filter(|v| v.index() % WORKERS == w).collect();
            let mut pool = CheckerPool::new(1, CheckOptions::default());
            pool.check_nodes(&instance, &own, &CancelToken::new()).unwrap();
            pool.session_stats().compiled_terms
        })
        .sum()
}

/// Builds the two instances the drives run on, so `load` can install them
/// afresh.
fn loader(source: &LoadSource) -> Result<(String, Instance), String> {
    match source {
        LoadSource::Bench { name, k: 8 } if name == "hop" => {
            Ok(("hop 8".into(), hop_path(8, None)))
        }
        LoadSource::Bench { name, k: 4 } if name == "SpReach" => {
            Ok(("SpReach k=4".into(), ReachBench::single_dest(4, 0).build()))
        }
        other => Err(format!("this test loads hop 8 and SpReach k=4 only, not {other:?}")),
    }
}

fn send(state: &mut DaemonState, delta: Delta) {
    let reply = state.handle(&Request::Delta(delta.clone())).reply;
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true), "{delta:?}: {reply}");
}

/// The `i`-th edit of an endless, always valid stream over the instance's
/// links and nodes: a link goes down and comes back, an edge's policy is
/// dropped and restored, and a witness time moves — to a value never used
/// before, so the stream never stops producing new terms.
fn edit(links: &[(String, String)], witnessed: &[String], i: usize) -> Delta {
    let (u, v) = links[(i / 5) % links.len()].clone();
    match i % 5 {
        0 => Delta::LinkDown { u, v },
        1 => Delta::WitnessTime {
            node: witnessed[(i / 5) % witnessed.len()].clone(),
            tau: 2 + (i / 5) as i64,
        },
        2 => Delta::LinkUp { u, v },
        3 => Delta::EdgePolicy { u, v, policy: PolicySpec::Drop },
        _ => Delta::EdgePolicy { u, v, policy: PolicySpec::Default },
    }
}

/// What the drive saw: the yardstick, the counters after the initial full
/// check, the most compiled terms held at any sample of each phase, and the
/// retirements at each phase's end.
struct Drive {
    one_copy: usize,
    base: Counters,
    after_checks: Counters,
    peak_terms_first_half: usize,
    mid_deltas: Counters,
    peak_terms_second_half: usize,
    end: Counters,
}

/// `CHECKS` full checks of the unchanged instance, each after a `load` of
/// it, then `DELTAS` edits with a full check every 25th; `sample` runs after
/// every request batch.
fn drive(source: LoadSource, witnessed: Vec<String>, mut sample: impl FnMut(usize)) -> Drive {
    let (label, instance) = loader(&source).unwrap();
    let g = instance.network.topology().clone();
    let links: Vec<(String, String)> = g
        .edges()
        .filter(|(u, v)| u < v)
        .map(|(u, v)| (g.name(u).to_owned(), g.name(v).to_owned()))
        .collect();
    let one_copy = one_copy(&instance);
    let options = CheckOptions { threads: Some(WORKERS), ..Default::default() };
    let mut state = DaemonState::new(label, instance, options).unwrap().with_loader(loader);
    let base = counters(&mut state);
    let load = Request::Load(Load {
        version: PROTOCOL_VERSION,
        source,
        sabotage: Vec::new(),
        threads: None,
        timeout_millis: None,
    });

    for i in 0..CHECKS {
        let reply = state.handle(&load).reply;
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true), "{reply}");
        let reply = state.handle(&Request::Check).reply;
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
        // nothing is edited, so nothing new is ever compiled: the sessions
        // hold what one full check needs, or (just retired, or a node just
        // stolen from its home) less
        assert!(counters(&mut state).compiled_terms <= one_copy, "check {i}");
        sample(i);
    }
    let after_checks = counters(&mut state);

    let mut peaks = [0usize; 2];
    let mut mid_deltas = after_checks;
    for i in 0..DELTAS {
        send(&mut state, edit(&links, &witnessed, i));
        if i % 25 == 24 {
            state.handle(&Request::Check);
        }
        let now = counters(&mut state);
        let half = usize::from(i >= DELTAS / 2);
        peaks[half] = peaks[half].max(now.compiled_terms);
        if i + 1 == DELTAS / 2 {
            mid_deltas = now;
        }
        sample(CHECKS + i);
    }
    let end = counters(&mut state);
    Drive {
        one_copy,
        base,
        after_checks,
        peak_terms_first_half: peaks[0],
        mid_deltas,
        peak_terms_second_half: peaks[1],
        end,
    }
}

#[test]
fn session_counters_plateau_under_checks_and_edits() {
    let witnessed: Vec<String> = (1..8).map(|i| format!("v{i}")).collect();
    let hop = LoadSource::Bench { name: "hop".into(), k: 8 };
    let seen = drive(hop, witnessed, |_| {});
    let Drive { one_copy, base, after_checks, mid_deltas, end, .. } = seen;
    assert!(base.sessions > 0 && base.compiled_terms > 0, "{base:?}");
    assert!(base.compiled_terms <= one_copy, "{base:?} > {one_copy}");
    assert_eq!(base.retirements, 0);

    // 300 identical checks: age alone retires, a handful of times
    assert!(after_checks.retirements >= 1, "the solvers must be renewed: {after_checks:?}");
    assert!(after_checks.retirements <= 16, "renewal must be rare: {after_checks:?}");
    assert_eq!(after_checks.arena_terms, base.arena_terms, "re-checking interns nothing");

    // 600 edits that never stop producing new terms: the arena (which never
    // evicts) shows the stream is real, the sessions stay bounded by a small
    // multiple of what one full check needs — in the second half as in the
    // first — and retirements come at a steady rate, not an accelerating one
    assert!(end.arena_terms > mid_deltas.arena_terms && mid_deltas.arena_terms > base.arena_terms);
    let bound = 4 * one_copy;
    assert!(seen.peak_terms_first_half <= bound, "{} > {bound}", seen.peak_terms_first_half);
    assert!(seen.peak_terms_second_half <= bound, "{} > {bound}", seen.peak_terms_second_half);
    let first = mid_deltas.retirements - after_checks.retirements;
    let second = end.retirements - mid_deltas.retirements;
    assert!(first >= 1 && second >= 1, "edits must retire sessions: {first}, then {second}");
    assert!(second <= 2 * first + 2, "retirements accelerate: {first}, then {second}");
}

/// Resident set size in MB, from `/proc/self/statm`.
fn rss_mb() -> f64 {
    let statm = std::fs::read_to_string("/proc/self/statm").expect("linux /proc");
    let pages: f64 = statm.split_whitespace().nth(1).expect("resident field").parse().unwrap();
    pages * 4096.0 / (1024.0 * 1024.0)
}

/// The same drive on SpReach k=4, judged on the process's resident set.
/// Run in release (CI does): `cargo test --release -p timepiece-daemon
/// --test memory_plateau -- --ignored`.
#[test]
#[ignore = "measures RSS; run in release, alone in its process"]
fn resident_set_plateaus_under_checks_and_edits() {
    let bench = ReachBench::single_dest(4, 0);
    let g = bench.build().network.topology().clone();
    let dest = bench.dest_node().expect("single destination");
    // every node but the destination has a witness time to move
    let witnessed: Vec<String> =
        g.nodes().filter(|v| *v != dest).map(|v| g.name(v).to_owned()).collect();
    let mut rss = Vec::new();
    let spreach = LoadSource::Bench { name: "SpReach".into(), k: 4 };
    drive(spreach, witnessed, |_| rss.push(rss_mb()));
    let at = |request: usize| rss[request - 1];
    let (warm, after_checks, mid, end) =
        (at(10), at(CHECKS), at(CHECKS + DELTAS / 2), at(CHECKS + DELTAS));
    println!(
        "rss MB: warm {warm:.1}, after checks {after_checks:.1}, mid edits {mid:.1}, end {end:.1}"
    );
    // unbounded, 300 checks leak ~1 MB and the edits tens of MB at this size
    assert!(after_checks - warm < 4.0, "checks alone grew RSS {warm:.1} -> {after_checks:.1} MB");
    assert!(end - mid < 0.25 * (mid - warm).max(8.0), "no plateau: {warm:.1} {mid:.1} {end:.1} MB");
}
