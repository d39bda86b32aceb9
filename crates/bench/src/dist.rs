//! The fleet coordinator: sharded verification over TCP.
//!
//! Per-node checks are independent, so they spread over cores *and*
//! machines. There is one runtime for both, and one server: a worker is a
//! `timepieced` that was started with nothing loaded (`repro serve --listen
//! ADDR`), and the **coordinator** in this module is an ordinary
//! [`timepiece_daemon::Client`] of it. `--workers` names daemons anywhere;
//! `--shards N` alone starts a [`LocalFleet`] of `N` on loopback ports for
//! the length of the sweep. A daemon keeps its checker pool from `load` to
//! `load`, so a fleet row starts as warm as a row of an in-process sweep.
//!
//! # A row on the wire
//!
//! One connection per worker per row, speaking the daemon's protocol
//! ([`timepiece_daemon::protocol`]):
//!
//! ```text
//! C → W   {"verb":"load", "version":3, "bench":…, "k":…  |  "scenario":"…",
//!          "sabotage":[…], "threads":…, "timeout_millis":…, "trace":…}
//! W → C   {"verb":"load", "ok":true, "label":…, "generation":g}
//! C → W   {"verb":"check", "nodes":["core-0",…], "generation":g, "shard":i}
//! W → C   {"verb":"progress"}                     (heartbeat, ~2.5 Hz)
//! W → C   {"verb":"check", "ok":true, "shard":i, "cone":[…],
//!          "durations":[…], "failures":[…], …}    (read as a ShardReport)
//! either  {"ok":false, "error":…}                 (fatal for the worker's row)
//! ```
//!
//! The row ends when the coordinator hangs up; the daemon keeps the
//! instance and its solver sessions for whoever connects next. `scenario`
//! is sent for file scenarios: the text of the scenario file, which the
//! daemon compiles — a remote worker has no copy of the file. The
//! generation makes a worker that somebody else re-`load`ed mid-row an
//! error, not a wrong answer.
//!
//! # Scheduling: batched steal-half, and death
//!
//! The coordinator stripes the node set into shards by symmetry class
//! ([`ShardPlan::by_class`]), which evens out the class mix; what is left is
//! cost that varies *within* a class, which no plan made in advance predicts
//! (EXPERIMENTS.md "PR 9"), so the rest is handled while the row runs. Each
//! worker's pending deque is seeded round-robin with shard indices and one
//! dispatcher thread runs per worker. A dispatcher with an empty deque
//! first drains the *orphan* queue (shards returned by dead
//! workers), then **steals half** the pending deque — whole shards, back
//! half — from the most-loaded live worker, so work migrates across hosts
//! in shard-granularity batches rather than node-at-a-time chatter.
//!
//! Liveness is the client's read timeout: a daemon heartbeats `progress`
//! frames while the solver runs, so the only way a coordinator read blocks
//! past [`DistOptions::liveness`] is a dead or wedged peer. *Any* failed
//! round trip marks the worker dead and requeues its in-flight shard plus
//! pending deque as orphans; the sweep completes as long as one worker
//! survives.

use std::collections::VecDeque;
use std::fmt;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use timepiece_core::stats::TimingStats;
use timepiece_daemon::{Client, Load, NodeCheck, Request, PROTOCOL_VERSION};
use timepiece_sched::{Json, ShardPlan};
use timepiece_trace::Phase;

use crate::runner::{
    fattree_instance, monolithic_result, BenchKind, EngineResult, Row, RowBalance, SweepOptions,
};
use crate::shard::{merge_reports, MergeError, ShardReport};

/// Coordinator-side options for one distributed row.
#[derive(Debug, Clone)]
pub struct DistOptions {
    /// Declare a worker dead when a read from it blocks this long. Daemons
    /// heartbeat at ~2.5 Hz while checking, so this bounds death-detection
    /// latency, not check time.
    pub liveness: Duration,
    /// Names of nodes whose interface every worker replaces with a
    /// never-holds-a-route annotation — documented fault injection, so the
    /// equivalence tests can compare failing-node sets across the wire.
    pub sabotage: Vec<String>,
}

impl Default for DistOptions {
    fn default() -> Self {
        DistOptions { liveness: Duration::from_secs(5), sabotage: Vec::new() }
    }
}

/// Why a distributed row failed. Worker-attributable variants name the
/// worker by its address, so a broken host in a fleet is identifiable from
/// the error alone.
#[derive(Debug, Clone, PartialEq)]
pub enum DistError {
    /// No worker could be reached — or, for a [`LocalFleet`], started — at
    /// all.
    NoWorkers {
        /// The per-address connection (or per-child start-up) failures.
        detail: String,
    },
    /// A connected worker refused the row's `load` (version mismatch,
    /// unknown benchmark, a scenario that does not compile …), or died —
    /// closed its connection, went silent, sent garbage or an error frame
    /// — holding a shard no surviving worker was left to take.
    Worker {
        /// The worker's address.
        worker: String,
        /// What it reported.
        detail: String,
    },
    /// The surviving workers' reports did not merge into a full row —
    /// including the case where every worker died and shards are missing.
    Merge(MergeError),
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::NoWorkers { detail } => write!(f, "no workers reachable: {detail}"),
            DistError::Worker { worker, detail } => write!(f, "worker {worker}: {detail}"),
            DistError::Merge(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DistError {}

impl From<MergeError> for DistError {
    fn from(e: MergeError) -> DistError {
        DistError::Merge(e)
    }
}

/// The coordinator's per-row scheduling state, shared by the dispatchers.
#[derive(Debug)]
struct Queues {
    /// Pending shard indices per worker.
    pending: Vec<VecDeque<usize>>,
    /// Shards returned by dead workers, drained by any live dispatcher.
    orphans: VecDeque<usize>,
    alive: Vec<bool>,
    in_flight: usize,
    steal_batches: usize,
    stolen_shards: usize,
    reassigned: usize,
}

enum NextJob {
    Run(usize),
    /// Nothing to run now, but another dispatcher still has a shard in
    /// flight — its death could orphan work, so stay available.
    Wait,
    Exhausted,
}

impl Queues {
    fn seed(workers: usize, shards: usize) -> Queues {
        let mut pending = vec![VecDeque::new(); workers];
        for shard in 0..shards {
            pending[shard % workers].push_back(shard);
        }
        Queues {
            pending,
            orphans: VecDeque::new(),
            alive: vec![true; workers],
            in_flight: 0,
            steal_batches: 0,
            stolen_shards: 0,
            reassigned: 0,
        }
    }

    fn next(&mut self, me: usize) -> NextJob {
        if let Some(shard) = self.pending[me].pop_front().or_else(|| self.orphans.pop_front()) {
            self.in_flight += 1;
            return NextJob::Run(shard);
        }
        // steal-half, batched: the back half of the most-loaded live
        // worker's deque migrates here in one decision
        let victim = (0..self.pending.len())
            .filter(|&j| j != me && self.alive[j] && !self.pending[j].is_empty())
            .max_by_key(|&j| self.pending[j].len());
        if let Some(victim) = victim {
            let take = self.pending[victim].len().div_ceil(2);
            let mut batch: Vec<usize> =
                (0..take).map_while(|_| self.pending[victim].pop_back()).collect();
            self.steal_batches += 1;
            self.stolen_shards += batch.len();
            let run = batch.remove(0);
            self.pending[me].extend(batch);
            self.in_flight += 1;
            return NextJob::Run(run);
        }
        if self.in_flight > 0 {
            NextJob::Wait
        } else {
            NextJob::Exhausted
        }
    }

    fn finished(&mut self) {
        self.in_flight -= 1;
    }

    /// Marks `me` dead mid-`shard`: the in-flight shard and the whole
    /// pending deque become orphans for the survivors.
    fn died(&mut self, me: usize, shard: usize) {
        self.alive[me] = false;
        let mut returned = vec![shard];
        returned.extend(self.pending[me].drain(..));
        self.reassigned += returned.len();
        self.orphans.extend(returned);
        self.in_flight -= 1;
    }
}

/// A reply the daemon accepted the request with, or why it did not.
fn accepted(reply: std::io::Result<Json>) -> Result<Json, String> {
    let reply = reply.map_err(|e| e.to_string())?;
    match reply.get("ok").and_then(Json::as_bool) {
        Some(true) => Ok(reply),
        _ => Err(reply
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("a reply that is neither ok nor an error")
            .to_owned()),
    }
}

fn connect(addr: &str, liveness: Duration) -> std::io::Result<Client> {
    let client = Client::connect(addr)?;
    client.set_read_timeout(Some(liveness))?;
    Ok(client)
}

/// `load`s the row's instance into one worker and returns the generation
/// the row's checks must name.
fn load_row(
    worker: &mut Client,
    kind: BenchKind,
    k: usize,
    options: &SweepOptions,
    dist: &DistOptions,
) -> Result<u64, String> {
    let load = Load {
        version: PROTOCOL_VERSION,
        source: kind.load_source(k),
        sabotage: dist.sabotage.clone(),
        threads: options.threads,
        timeout_millis: Some(u64::try_from(options.timeout.as_millis()).unwrap_or(u64::MAX)),
        trace: timepiece_trace::enabled(),
    };
    let reply = accepted(worker.send(&Request::Load(load)))?;
    let generation = reply.get("generation").and_then(Json::as_usize);
    generation.map(|g| g as u64).ok_or_else(|| "a load reply without a generation".to_owned())
}

/// One shard round trip: the node-list check, the heartbeats the client
/// rides out, the reply read as a report.
fn check_shard(
    worker: &mut Client,
    addr: &str,
    generation: u64,
    shard: usize,
    nodes: Vec<String>,
) -> Result<ShardReport, String> {
    let _wire = timepiece_trace::span(Phase::Wire, format!("{addr}#s{shard}"));
    let check = NodeCheck { nodes, generation: Some(generation), shard: Some(shard) };
    let reply = accepted(worker.send(&Request::CheckNodes(check)))?;
    let report = ShardReport::from_reply(&reply)?;
    if report.shard != shard {
        return Err(format!("answered shard {} when asked for shard {shard}", report.shard));
    }
    Ok(report)
}

/// Runs one sweep row across the fleet.
///
/// Connects to every address in `workers`, `load`s the row's instance into
/// each, hands out the shards of the class-striped plan, rebalances by
/// batched stealing, survives worker deaths by reassigning their shards,
/// and merges the reports into a [`Row`] through the coverage-proving
/// [`merge_reports`]. Unreachable workers are warnings (printed to stderr)
/// as long as at least one connects.
///
/// # Errors
///
/// [`DistError`] — no reachable workers, a refused `load`, shards left
/// unrun because their workers died (the error names the last to die), or
/// any other merge failure.
pub fn run_row_distributed(
    kind: BenchKind,
    k: usize,
    options: &SweepOptions,
    shards: usize,
    workers: &[String],
    dist: &DistOptions,
) -> Result<Row, DistError> {
    assert!(shards >= 1, "need at least one shard");
    assert!(!workers.is_empty(), "need at least one worker address");
    let arena_before = timepiece_expr::arena::stats();
    let inst = fattree_instance(kind, k);
    let topology = inst.network.topology();
    let plan = ShardPlan::by_class(topology.nodes(), shards, |v| topology.node_class(v));

    let mut peers: Vec<(&str, Client)> = Vec::new();
    let mut connect_errors: Vec<String> = Vec::new();
    for addr in workers {
        match connect(addr, dist.liveness) {
            Ok(client) => peers.push((addr, client)),
            Err(e) => {
                eprintln!("warning: worker {addr} unreachable ({e}); continuing without it");
                connect_errors.push(format!("{addr}: {e}"));
            }
        }
    }
    if peers.is_empty() {
        return Err(DistError::NoWorkers { detail: connect_errors.join("; ") });
    }

    let queues = Mutex::new(Queues::seed(peers.len(), shards));
    // signalled when a shard finishes or is orphaned: what an idle dispatcher
    // waits for while other dispatchers still have shards in flight
    let moved = Condvar::new();
    let reports: Mutex<Vec<(String, ShardReport)>> = Mutex::new(Vec::new());
    let fatal: Mutex<Option<DistError>> = Mutex::new(None);
    let last_death: Mutex<Option<DistError>> = Mutex::new(None);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (me, (addr, mut worker)) in peers.into_iter().enumerate() {
            let (queues, moved) = (&queues, &moved);
            let reports = &reports;
            let fatal = &fatal;
            let last_death = &last_death;
            let plan = &plan;
            scope.spawn(move || {
                let generation = match load_row(&mut worker, kind, k, options, dist) {
                    Ok(generation) => generation,
                    Err(e) => {
                        // a worker that refuses the row never takes a shard;
                        // its seeded queue becomes orphans
                        let mut q = queues.lock().unwrap();
                        q.alive[me] = false;
                        let returned: Vec<usize> = q.pending[me].drain(..).collect();
                        q.reassigned += returned.len();
                        q.orphans.extend(returned);
                        drop(q);
                        moved.notify_all();
                        eprintln!("warning: worker {addr} refused the row: {e}");
                        *fatal.lock().unwrap() = Some(DistError::Worker {
                            worker: addr.to_owned(),
                            detail: format!("load: {e}"),
                        });
                        return;
                    }
                };
                loop {
                    let mut q = queues.lock().unwrap();
                    let shard = loop {
                        match q.next(me) {
                            NextJob::Run(shard) => break Some(shard),
                            NextJob::Wait => q = moved.wait(q).unwrap(),
                            NextJob::Exhausted => break None,
                        }
                    };
                    drop(q);
                    let Some(shard) = shard else { break };
                    let nodes: Vec<String> =
                        plan.nodes_of(shard).iter().map(|&v| topology.name(v).to_owned()).collect();
                    match check_shard(&mut worker, addr, generation, shard, nodes) {
                        Ok(mut report) => {
                            if let Some(trace) = report.trace.take() {
                                timepiece_trace::ingest(format!("shard{shard}@{addr}"), trace);
                            }
                            reports.lock().unwrap().push((addr.to_owned(), report));
                            queues.lock().unwrap().finished();
                            moved.notify_all();
                        }
                        Err(e) => {
                            eprintln!(
                                "warning: worker {addr} died on shard {shard} ({e}); reassigning"
                            );
                            queues.lock().unwrap().died(me, shard);
                            moved.notify_all();
                            *last_death.lock().unwrap() = Some(DistError::Worker {
                                worker: addr.to_owned(),
                                detail: format!("died on shard {shard}: {e}"),
                            });
                            return;
                        }
                    }
                }
                // hanging up ends the row; the daemon stays warm for the next
            });
        }
    });
    let wall = start.elapsed();
    if let Some(error) = fatal.into_inner().unwrap() {
        return Err(error);
    }

    let reports = reports.into_inner().unwrap();
    let queues = queues.into_inner().unwrap();
    let merged = merge_reports(kind, k, shards, topology, &reports).map_err(|e| {
        match (e, last_death.into_inner().unwrap()) {
            // nobody was left to take a dead worker's shards
            (MergeError::MissingShards { .. }, Some(death)) => death,
            (e, _) => DistError::Merge(e),
        }
    })?;
    let durations: Vec<Duration> =
        merged.durations.iter().map(|&(_, secs)| Duration::from_secs_f64(secs)).collect();
    let stats = TimingStats::from_durations(&durations);
    let tp = EngineResult::classify(merged.verified, merged.timed_out, wall);
    let ms = monolithic_result(&inst, options);
    Ok(Row {
        k,
        nodes: topology.node_count(),
        tp,
        tp_median: stats.median,
        tp_p99: stats.p99,
        ms,
        // coordinator-side traffic only: each worker process has its own
        // arena
        arena: timepiece_expr::arena::stats().delta_since(&arena_before),
        terms: Some(merged.terms),
        memo: merged.memo,
        balance: Some(RowBalance {
            shard_secs: merged.shard_secs,
            steal_batches: queues.steal_batches,
            stolen_shards: queues.stolen_shards,
            reassigned: queues.reassigned,
        }),
        failing: merged.failing,
    })
}

/// Asks every reachable worker to drain and exit (`shutdown`). Unreachable
/// addresses are returned as warnings — a worker that is already gone is
/// exactly what this wants.
pub fn shut_down(workers: &[String]) -> Vec<String> {
    workers.iter().filter_map(|addr| shut_down_one(addr).err()).collect()
}

fn shut_down_one(addr: &str) -> Result<(), String> {
    let mut worker = Client::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    accepted(worker.send(&Request::Shutdown)).map(drop).map_err(|e| format!("{addr}: {e}"))
}

#[cfg(target_os = "linux")]
extern "C" {
    /// Linux `prctl(2)`, declared here like `signal(2)` in the daemon's
    /// server: no libc crate.
    fn prctl(option: i32, ...) -> i32;
}

/// `--shards N` on one box: `N` `repro serve` children on loopback ports,
/// started empty once and serving every row of a sweep. Dropping the fleet
/// kills and reaps whatever is still running, so no worker outlives its
/// coordinator — on success, on an error return, or on a panic; and on
/// Linux each child asks the kernel for a SIGTERM when its parent dies, so
/// a coordinator that is `SIGKILL`ed takes its fleet down too (the daemon's
/// SIGTERM watcher drains it).
#[derive(Debug)]
pub struct LocalFleet {
    children: Vec<Child>,
    addrs: Vec<String>,
}

impl LocalFleet {
    /// Starts `workers` children of `exe` (the `repro` binary) as
    /// `serve --listen 127.0.0.1:0` and reads the port each one bound from
    /// its `listening on` line. `die_after` arms the documented
    /// [`timepiece_daemon::DaemonState::die_after`] fault in the first
    /// worker — the dead-worker drill for a fleet nobody else can reach.
    ///
    /// # Errors
    ///
    /// [`DistError::NoWorkers`] when a child cannot be spawned or exits
    /// without reporting an address.
    pub fn spawn(
        exe: &Path,
        workers: usize,
        die_after: Option<usize>,
    ) -> Result<LocalFleet, DistError> {
        let mut fleet = LocalFleet { children: Vec::new(), addrs: Vec::new() };
        for worker in 0..workers {
            let mut cmd = Command::new(exe);
            cmd.args(["serve", "--listen", "127.0.0.1:0"]);
            if let (0, Some(checks)) = (worker, die_after) {
                cmd.args(["--die-after", &checks.to_string()]);
            }
            #[cfg(target_os = "linux")]
            {
                use std::os::unix::process::CommandExt;
                const PR_SET_PDEATHSIG: i32 = 1;
                const SIGTERM: usize = 15;
                // SAFETY: the closure runs in the forked child before exec
                // and makes one async-signal-safe system call; it touches
                // no memory of the parent and allocates nothing.
                unsafe {
                    cmd.pre_exec(|| match prctl(PR_SET_PDEATHSIG, SIGTERM) {
                        0 => Ok(()),
                        _ => Err(std::io::Error::last_os_error()),
                    });
                }
            }
            let child = cmd.stdin(Stdio::null()).stdout(Stdio::piped()).spawn().map_err(|e| {
                DistError::NoWorkers { detail: format!("spawning loopback worker {worker}: {e}") }
            })?;
            // owned by the fleet from here on: an error below still reaps it
            fleet.children.push(child);
        }
        for (worker, child) in fleet.children.iter_mut().enumerate() {
            let mut line = String::new();
            let stdout = child.stdout.as_mut().expect("stdout is piped");
            let read = BufReader::new(stdout).read_line(&mut line);
            let addr = line.split_whitespace().last().filter(|a| a.parse::<SocketAddr>().is_ok());
            match (read, addr) {
                (Ok(_), Some(addr)) => fleet.addrs.push(addr.to_owned()),
                (read, _) => {
                    return Err(DistError::NoWorkers {
                        detail: format!(
                            "loopback worker {worker} reported no address ({read:?}, {line:?})"
                        ),
                    })
                }
            }
        }
        Ok(fleet)
    }

    /// The workers' addresses, in start order.
    pub fn addrs(&self) -> &[String] {
        &self.addrs
    }

    /// Ends the fleet in good order after a sweep: `shutdown` to every
    /// worker, then wait for those that were told to exit. A worker that
    /// could not be told is left to the drop.
    pub fn shutdown(mut self) {
        let told: Vec<bool> = self.addrs.iter().map(|addr| shut_down_one(addr).is_ok()).collect();
        for (child, _) in self.children.iter_mut().zip(told).filter(|(_, told)| *told) {
            let _ = child.wait();
        }
    }
}

impl Drop for LocalFleet {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_counters_move_work_between_queues() {
        let mut q = Queues::seed(2, 6);
        assert_eq!(q.pending[0].len(), 3);
        // worker 1 drains its own queue…
        for _ in 0..3 {
            assert!(matches!(q.next(1), NextJob::Run(_)));
            q.finished();
        }
        // …then steals half of worker 0's three pending shards (two, from
        // the back) in one batch
        let NextJob::Run(stolen) = q.next(1) else { panic!("steal produced no job") };
        assert_eq!(stolen, 4, "back of worker 0's deque");
        assert_eq!(q.steal_batches, 1);
        assert_eq!(q.stolen_shards, 2);
        assert_eq!(q.pending[0].len(), 1);
        assert_eq!(q.pending[1].len(), 1);
        q.finished();
    }

    #[test]
    fn death_orphans_pending_work_and_exhaustion_waits_for_in_flight() {
        let mut q = Queues::seed(2, 5);
        let NextJob::Run(shard) = q.next(0) else { panic!("no job") };
        q.died(0, shard);
        assert_eq!(q.reassigned, 3, "in-flight shard plus two pending");
        assert_eq!(q.orphans.len(), 3);
        // worker 1 must drain its own queue and every orphan
        let mut drained = 0;
        while let NextJob::Run(_) = q.next(1) {
            drained += 1;
            q.finished();
        }
        assert_eq!(drained, 5);
        assert!(matches!(q.next(1), NextJob::Exhausted));
    }
}
