//! The worker fleet: sharded verification over TCP.
//!
//! Per-node checks are independent, so they spread over cores *and*
//! machines. There is one runtime for both: a **coordinator** drives
//! `repro worker --listen` processes over TCP, speaking the NDJSON framing
//! the rest of the pipeline already speaks ([`timepiece_trace::json`]) and
//! the [`ShardReport`] protocol of [`crate::shard`]. `--workers` names
//! workers anywhere; `--shards N` alone starts a [`LocalFleet`] of `N` on
//! loopback ports for the length of the sweep. A worker keeps its
//! [`CheckerPool`] between rows, so a fleet row starts as warm as a row of
//! an in-process sweep.
//!
//! # Wire protocol
//!
//! One TCP connection per worker per row; every frame is one JSON line:
//!
//! ```text
//! C → W   {"type":"hello", "version":2, "bench":…, "k":…, "shards":N,
//!          "timeout_millis":…, "threads":…, "trace":…,
//!          "sabotage":[…], "scenario":"…"}
//! W → C   {"type":"ready", "version":2}
//! C → W   {"type":"check", "shard":i, "nodes":["core-0",…]}
//! W → C   {"type":"progress", "shard":i}        (heartbeat, ~2.5 Hz)
//! W → C   {"type":"report", "report":{…}}       (a ShardReport)
//! C → W   {"type":"done"}                       (row over; worker re-accepts)
//! C → W   {"type":"halt"}                       (worker process exits)
//! either  {"type":"error", "detail":…}          (fatal for the session)
//! ```
//!
//! `scenario` is present for file scenarios only: the text of the scenario
//! file, which the worker compiles instead of looking `bench` up — a remote
//! worker has no copy of the file.
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
//! Liveness is the read timeout: a checking worker heartbeats `progress`
//! frames from its connection thread while the solver runs, so the only
//! way a coordinator read blocks past [`DistOptions::liveness`] is a dead
//! or wedged peer. *Any* read failure marks the worker dead and requeues
//! its in-flight shard plus pending deque as orphans; the sweep completes
//! as long as one worker survives.

use std::collections::VecDeque;
use std::fmt;
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use timepiece_core::stats::TimingStats;
use timepiece_core::sweep::CheckerPool;
use timepiece_sched::json::{read_line_value, write_line_value, MAX_LINE_BYTES};
use timepiece_sched::{Json, ShardPlan};
use timepiece_trace::Phase;

use crate::runner::{
    fattree_instance, monolithic_result, BenchKind, EngineResult, Row, RowBalance, SweepOptions,
};
use crate::shard::{merge_reports, MergeError, ShardReport, ShardRow, PROTOCOL_VERSION};

/// How often a checking worker emits `progress` heartbeats.
const HEARTBEAT: Duration = Duration::from_millis(400);

/// Coordinator-side options for one distributed row.
#[derive(Debug, Clone)]
pub struct DistOptions {
    /// Declare a worker dead when a read from it blocks this long. Workers
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

/// Worker-side options for [`run_worker`].
#[derive(Debug, Clone, Default)]
pub struct WorkerOptions {
    /// Serve at most this many coordinator connections, then return
    /// (`None`: serve until halted). Tests use this as a backstop.
    pub max_sessions: Option<usize>,
    /// Fault injection for the dead-worker drills: after receiving this
    /// many `check` frames (across the process lifetime), drop the
    /// connection on the next one without replying and return
    /// [`WorkerExit::Died`] — from the coordinator the death is
    /// indistinguishable from a crashed host.
    pub die_after: Option<usize>,
}

/// Why [`run_worker`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerExit {
    /// A coordinator sent `halt`.
    Halted,
    /// [`WorkerOptions::max_sessions`] was reached.
    SessionLimit,
    /// The [`WorkerOptions::die_after`] fault fired.
    Died,
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
    /// A connected worker failed its handshake (version mismatch, unknown
    /// benchmark, a scenario that does not compile …), or died — closed its
    /// connection, went silent, sent garbage or an `error` frame — holding
    /// a shard no surviving worker was left to take.
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

fn frame(kind: &str, fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    let mut pairs = vec![("type".to_owned(), Json::str(kind))];
    pairs.extend(fields.into_iter().map(|(k, v)| (k.to_owned(), v)));
    Json::Obj(pairs)
}

fn frame_type(value: &Json) -> &str {
    value.get("type").and_then(Json::as_str).unwrap_or("")
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

/// One worker connection from the coordinator's side.
struct Peer {
    addr: String,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Peer {
    fn connect(addr: &str, liveness: Duration) -> Result<Peer, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(liveness)).map_err(|e| format!("read timeout: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok(Peer { addr: addr.to_owned(), reader: BufReader::new(stream), writer })
    }

    fn send(&mut self, value: &Json) -> Result<(), String> {
        write_line_value(&mut self.writer, value).map_err(|e| format!("send: {e}"))
    }

    /// The next frame; any failure (timeout, closed socket, garbage) is
    /// death — NDJSON framing cannot resume a half-read line.
    fn recv(&mut self) -> Result<Json, String> {
        match read_line_value(&mut self.reader, MAX_LINE_BYTES) {
            Ok(Some(value)) => Ok(value),
            Ok(None) => Err("connection closed".to_owned()),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    fn hello(
        &mut self,
        kind: BenchKind,
        k: usize,
        shards: usize,
        options: &SweepOptions,
        dist: &DistOptions,
    ) -> Result<(), String> {
        let mut fields = vec![
            ("version", Json::from(PROTOCOL_VERSION)),
            ("bench", Json::str(kind.name())),
            ("k", Json::from(k)),
            ("shards", Json::from(shards)),
            ("timeout_millis", Json::from(options.timeout.as_millis() as usize)),
            ("threads", Json::from(options.threads.unwrap_or(0))),
            ("trace", Json::from(timepiece_trace::enabled())),
            ("sabotage", Json::arr(dist.sabotage.iter().map(Json::str))),
        ];
        if let Some(text) = kind.scenario_text() {
            fields.push(("scenario", Json::str(text)));
        }
        self.send(&frame("hello", fields))?;
        let ready = self.recv()?;
        match frame_type(&ready) {
            "ready" => {
                let version = ready.get("version").and_then(Json::as_usize).unwrap_or(0);
                if version != PROTOCOL_VERSION {
                    return Err(format!(
                        "speaks protocol version {version}, coordinator speaks {PROTOCOL_VERSION}"
                    ));
                }
                Ok(())
            }
            "error" => Err(ready
                .get("detail")
                .and_then(Json::as_str)
                .unwrap_or("unspecified worker error")
                .to_owned()),
            other => Err(format!("expected ready frame, got {other:?}")),
        }
    }

    /// One shard round trip: send the assignment, ride out heartbeats,
    /// return the report (or an error frame's detail).
    fn check(&mut self, shard: usize, nodes: &[&str]) -> Result<ShardReport, String> {
        let _wire = timepiece_trace::span(Phase::Wire, format!("{}#s{shard}", self.addr));
        self.send(&frame(
            "check",
            [
                ("shard", Json::from(shard)),
                ("nodes", Json::arr(nodes.iter().map(|&n| Json::str(n)))),
            ],
        ))?;
        loop {
            let value = self.recv()?;
            match frame_type(&value) {
                "progress" => continue,
                "report" => {
                    let body = value.get("report").ok_or("report frame without a report")?;
                    let report = ShardReport::from_json(body).map_err(|e| e.to_string())?;
                    if report.shard != shard {
                        return Err(format!(
                            "answered shard {} when asked for shard {shard}",
                            report.shard
                        ));
                    }
                    return Ok(report);
                }
                "error" => {
                    return Err(value
                        .get("detail")
                        .and_then(Json::as_str)
                        .unwrap_or("unspecified worker error")
                        .to_owned())
                }
                other => return Err(format!("unexpected {other:?} frame mid-check")),
            }
        }
    }
}

/// Runs one sweep row across the fleet.
///
/// Connects to every address in `workers`, hands out the shards of the
/// class-striped plan, rebalances by batched stealing, survives
/// worker deaths by reassigning their shards, and merges the reports into
/// a [`Row`] through the coverage-proving [`merge_reports`]. Unreachable
/// workers are warnings (printed to stderr) as long as at least one
/// connects.
///
/// # Errors
///
/// [`DistError`] — no reachable workers, a failed handshake, shards left
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

    let mut peers: Vec<Peer> = Vec::new();
    let mut connect_errors: Vec<String> = Vec::new();
    for addr in workers {
        match Peer::connect(addr, dist.liveness) {
            Ok(peer) => peers.push(peer),
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
        for (me, mut peer) in peers.into_iter().enumerate() {
            let (queues, moved) = (&queues, &moved);
            let reports = &reports;
            let fatal = &fatal;
            let last_death = &last_death;
            let plan = &plan;
            scope.spawn(move || {
                if let Err(e) = peer.hello(kind, k, shards, options, dist) {
                    // a worker that cannot even handshake never takes a
                    // shard; its seeded queue becomes orphans
                    let mut q = queues.lock().unwrap();
                    q.alive[me] = false;
                    let returned: Vec<usize> = q.pending[me].drain(..).collect();
                    q.reassigned += returned.len();
                    q.orphans.extend(returned);
                    drop(q);
                    moved.notify_all();
                    eprintln!("warning: worker {} failed handshake: {e}", peer.addr);
                    *fatal.lock().unwrap() = Some(DistError::Worker {
                        worker: peer.addr.clone(),
                        detail: format!("handshake: {e}"),
                    });
                    return;
                }
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
                    let nodes: Vec<&str> =
                        plan.nodes_of(shard).iter().map(|&v| topology.name(v)).collect();
                    match peer.check(shard, &nodes) {
                        Ok(mut report) => {
                            if let Some(trace) = report.trace.take() {
                                timepiece_trace::ingest(
                                    format!("shard{shard}@{}", peer.addr),
                                    trace,
                                );
                            }
                            reports.lock().unwrap().push((peer.addr.clone(), report));
                            queues.lock().unwrap().finished();
                            moved.notify_all();
                        }
                        Err(e) => {
                            eprintln!(
                                "warning: worker {} died on shard {shard} ({e}); reassigning",
                                peer.addr
                            );
                            queues.lock().unwrap().died(me, shard);
                            moved.notify_all();
                            *last_death.lock().unwrap() = Some(DistError::Worker {
                                worker: peer.addr.clone(),
                                detail: format!("died on shard {shard}: {e}"),
                            });
                            return;
                        }
                    }
                }
                let _ = peer.send(&frame("done", []));
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
        // arena and encoder caches
        arena: timepiece_expr::arena::stats().delta_since(&arena_before),
        terms: None,
        balance: Some(RowBalance {
            shard_secs: merged.shard_secs,
            steal_batches: queues.steal_batches,
            stolen_shards: queues.stolen_shards,
            reassigned: queues.reassigned,
        }),
        failing: merged.failing,
    })
}

/// Asks every reachable worker to exit (`halt` frame). Unreachable
/// addresses are returned as warnings — a worker that is already gone is
/// exactly what halting wants.
pub fn halt_workers(workers: &[String]) -> Vec<String> {
    workers.iter().filter_map(|addr| halt_worker(addr).err()).collect()
}

fn halt_worker(addr: &str) -> Result<(), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    write_line_value(&mut stream, &frame("halt", [])).map_err(|e| format!("{addr}: {e}"))
}

/// `--shards N` on one box: `N` `repro worker` children on loopback ports,
/// started once and serving every row of a sweep. Dropping the fleet kills
/// and reaps whatever is still running, so no worker outlives its
/// coordinator — on success, on an error return, or on a panic.
#[derive(Debug)]
pub struct LocalFleet {
    children: Vec<Child>,
    addrs: Vec<String>,
}

impl LocalFleet {
    /// Starts `workers` children of `exe` (the `repro` binary) as
    /// `worker --listen 127.0.0.1:0` and reads the port each one bound from
    /// its `listening on` line. `die_after` arms the documented
    /// [`WorkerOptions::die_after`] fault in the first worker — the
    /// dead-worker drill for a fleet nobody else can reach.
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
            cmd.args(["worker", "--listen", "127.0.0.1:0"]);
            if let (0, Some(checks)) = (worker, die_after) {
                cmd.args(["--die-after", &checks.to_string()]);
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

    /// Ends the fleet in good order after a sweep: `halt` to every worker,
    /// then wait for those that were told to exit. A worker that could not
    /// be told is left to the drop.
    pub fn halt(mut self) {
        let told: Vec<bool> = self.addrs.iter().map(|addr| halt_worker(addr).is_ok()).collect();
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

enum SessionEnd {
    Done,
    Halted,
    Died,
}

/// Serves coordinator connections on `listener` until halted (or a
/// [`WorkerOptions`] limit fires). Each connection is one sweep row: the
/// worker rebuilds the instance named in the `hello` (or compiles the
/// scenario text it carries), checks every shard the coordinator sends,
/// and heartbeats while checking. The [`CheckerPool`] outlives the
/// connections — it is rebuilt only when a `hello` asks for other threads
/// or another timeout — so solver sessions stay warm across the shards of
/// a row *and* across the rows of a sweep. A failed session is logged and
/// the worker re-accepts; a broken coordinator must not strand the fleet.
///
/// # Errors
///
/// Only listener-level I/O errors (`accept` failing); per-session errors
/// are handled by dropping the session.
pub fn run_worker(listener: TcpListener, options: &WorkerOptions) -> std::io::Result<WorkerExit> {
    let mut sessions = 0usize;
    let mut checks_served = 0usize;
    let mut pool = None;
    loop {
        if let Some(max) = options.max_sessions {
            if sessions >= max {
                return Ok(WorkerExit::SessionLimit);
            }
        }
        let (stream, peer) = listener.accept()?;
        sessions += 1;
        match serve_session(stream, options, &mut checks_served, &mut pool) {
            Ok(SessionEnd::Done) => {}
            Ok(SessionEnd::Halted) => return Ok(WorkerExit::Halted),
            Ok(SessionEnd::Died) => return Ok(WorkerExit::Died),
            Err(e) => eprintln!("worker: session with {peer} failed: {e}"),
        }
    }
}

fn session_err(detail: String) -> std::io::Error {
    std::io::Error::other(detail)
}

/// Tells the coordinator why the session is over, then fails it.
fn reject(writer: &mut TcpStream, detail: String) -> std::io::Error {
    let _ = write_line_value(writer, &frame("error", [("detail", Json::str(&detail))]));
    session_err(detail)
}

/// The row a `hello` frame describes, on this worker's own copy of the
/// instance.
pub(crate) fn hello_row(hello: &Json) -> Result<ShardRow, String> {
    let version = hello.get("version").and_then(Json::as_usize).unwrap_or(0);
    if version != PROTOCOL_VERSION {
        return Err(format!(
            "coordinator speaks protocol version {version}, worker speaks {PROTOCOL_VERSION}"
        ));
    }
    let (Some(k), Some(shards)) =
        (hello.get("k").and_then(Json::as_usize), hello.get("shards").and_then(Json::as_usize))
    else {
        return Err("hello frame missing k/shards".to_owned());
    };
    let mut row = match hello.get("scenario").and_then(Json::as_str) {
        Some(text) => {
            let compiled = timepiece_scenario::compile_str(text)
                .map_err(|e| format!("the scenario text does not compile: {e}"))?;
            ShardRow::new(&compiled.name, compiled.k, shards, compiled.instance())
        }
        None => {
            let bench = hello.get("bench").and_then(Json::as_str).unwrap_or("");
            let kind =
                BenchKind::parse(bench).ok_or_else(|| format!("unknown benchmark {bench:?}"))?;
            ShardRow::new(kind.name(), k, shards, fattree_instance(kind, k))
        }
    };
    for name in hello.get("sabotage").and_then(Json::as_arr).unwrap_or(&[]) {
        row.sabotage(name.as_str().unwrap_or("")).map_err(|e| format!("sabotage: {e}"))?;
    }
    Ok(row)
}

fn serve_session(
    stream: TcpStream,
    options: &WorkerOptions,
    checks_served: &mut usize,
    pool: &mut Option<CheckerPool>,
) -> std::io::Result<SessionEnd> {
    stream.set_nodelay(true).ok();
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let recv = |reader: &mut BufReader<TcpStream>| {
        read_line_value(reader, MAX_LINE_BYTES)
            .map_err(|e| session_err(format!("bad frame: {e}")))?
            .ok_or_else(|| session_err("connection closed".to_owned()))
    };

    let hello = recv(&mut reader)?;
    match frame_type(&hello) {
        "halt" => return Ok(SessionEnd::Halted),
        "hello" => {}
        other => return Err(reject(&mut writer, format!("expected hello, got {other:?}"))),
    }
    let row = hello_row(&hello).map_err(|e| reject(&mut writer, e))?;
    let defaults = SweepOptions::default();
    let check_options = SweepOptions {
        timeout: hello
            .get("timeout_millis")
            .and_then(Json::as_usize)
            .map_or(defaults.timeout, |ms| Duration::from_millis(ms as u64)),
        threads: hello.get("threads").and_then(Json::as_usize).filter(|&n| n > 0),
        run_monolithic: false,
    }
    .check_options();
    let warm = pool.as_ref().map(|p| (p.options().timeout, p.options().threads));
    if warm != Some((check_options.timeout, check_options.threads)) {
        *pool = Some(CheckerPool::with_default_parallelism(check_options));
    }
    let pool = pool.as_mut().expect("a pool was just installed");
    if hello.get("trace").and_then(Json::as_bool).unwrap_or(false) {
        timepiece_trace::enable();
        let _ = timepiece_trace::take();
    } else {
        // an earlier coordinator's tracing must not pile spans up here
        timepiece_trace::disable();
    }

    write_line_value(&mut writer, &frame("ready", [("version", Json::from(PROTOCOL_VERSION))]))?;

    loop {
        let value = recv(&mut reader)?;
        match frame_type(&value) {
            "done" => return Ok(SessionEnd::Done),
            "halt" => return Ok(SessionEnd::Halted),
            "check" => {
                if let Some(limit) = options.die_after {
                    if *checks_served >= limit {
                        // drop the connection without a word — the
                        // coordinator sees exactly what a crashed host
                        // looks like
                        return Ok(SessionEnd::Died);
                    }
                }
                *checks_served += 1;
                let Some(shard) = value.get("shard").and_then(Json::as_usize) else {
                    return Err(reject(&mut writer, "check frame missing shard".to_owned()));
                };
                let Some(nodes) = value.get("nodes").and_then(Json::as_arr) else {
                    return Err(reject(&mut writer, "check frame missing nodes".to_owned()));
                };
                let nodes: Vec<&str> = nodes.iter().map(|n| n.as_str().unwrap_or("")).collect();

                // check on a side thread; this thread keeps the heartbeat
                // going so the coordinator can tell "slow solve" from
                // "dead worker"
                let (tx, rx) = mpsc::channel();
                let report = std::thread::scope(|scope| {
                    let (row, pool, nodes) = (&row, &mut *pool, &nodes);
                    scope.spawn(move || {
                        let _ = tx.send(row.check(pool, shard, nodes));
                    });
                    loop {
                        match rx.recv_timeout(HEARTBEAT) {
                            Ok(report) => break report,
                            // a failed write means the coordinator is gone;
                            // the checker thread still joins at scope end
                            Err(mpsc::RecvTimeoutError::Timeout) => {
                                let _ = write_line_value(
                                    &mut writer,
                                    &frame("progress", [("shard", Json::from(shard))]),
                                );
                            }
                            Err(mpsc::RecvTimeoutError::Disconnected) => {
                                break Err("the checking thread died".to_owned());
                            }
                        }
                    }
                });
                match report {
                    Ok(report) => write_line_value(
                        &mut writer,
                        &frame("report", [("report", report.to_json())]),
                    )?,
                    Err(e) => return Err(reject(&mut writer, format!("check failed: {e}"))),
                }
            }
            other => return Err(reject(&mut writer, format!("unexpected {other:?} frame"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spawn_worker(options: WorkerOptions) -> (String, std::thread::JoinHandle<WorkerExit>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().unwrap().to_string();
        let handle =
            std::thread::spawn(move || run_worker(listener, &options).expect("worker runs"));
        (addr, handle)
    }

    fn sweep_options() -> SweepOptions {
        SweepOptions { run_monolithic: false, threads: Some(1), ..SweepOptions::default() }
    }

    #[test]
    fn loopback_row_verifies_and_reports_balance() {
        let (addr, handle) = spawn_worker(WorkerOptions::default());
        let workers = vec![addr];
        let kind = BenchKind::parse("SpReach").unwrap();
        let row =
            run_row_distributed(kind, 4, &sweep_options(), 3, &workers, &DistOptions::default())
                .expect("distributed row");
        assert!(matches!(row.tp, EngineResult::Verified(_)), "{row:?}");
        assert_eq!(row.nodes, 20);
        let balance = row.balance.expect("distributed rows carry balance");
        assert_eq!(balance.shard_secs.len(), 3);
        assert!(balance.shard_secs.iter().all(|&s| s > 0.0), "{balance:?}");
        assert_eq!(balance.reassigned, 0);
        assert!(halt_workers(&workers).is_empty());
        assert_eq!(handle.join().unwrap(), WorkerExit::Halted);
    }

    #[test]
    fn dead_worker_shards_are_reassigned_and_the_row_completes() {
        // worker A dies on its first check frame, with that shard in flight;
        // worker B finishes the row. (Dying after one served check raced B:
        // a fast B had often stolen A's other shard by then, and nothing
        // was left to reassign.)
        let (dying, dying_handle) =
            spawn_worker(WorkerOptions { die_after: Some(0), ..WorkerOptions::default() });
        let (survivor, survivor_handle) = spawn_worker(WorkerOptions::default());
        let workers = vec![dying.clone(), survivor.clone()];
        let kind = BenchKind::parse("SpReach").unwrap();
        let row = run_row_distributed(
            kind,
            4,
            &sweep_options(),
            4,
            &workers,
            &DistOptions { liveness: Duration::from_secs(2), ..DistOptions::default() },
        )
        .expect("row completes despite the death");
        assert!(matches!(row.tp, EngineResult::Verified(_)), "{row:?}");
        let balance = row.balance.expect("distributed rows carry balance");
        assert!(balance.reassigned >= 1, "{balance:?}");
        assert_eq!(balance.shard_secs.len(), 4);
        assert!(balance.shard_secs.iter().all(|&s| s > 0.0), "{balance:?}");
        assert_eq!(dying_handle.join().unwrap(), WorkerExit::Died);
        assert!(halt_workers(&[survivor]).is_empty());
        assert_eq!(survivor_handle.join().unwrap(), WorkerExit::Halted);
    }

    #[test]
    fn no_reachable_workers_is_a_typed_error() {
        // a bound-then-dropped listener gives a port nothing listens on
        let port = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().port()
        };
        let err = run_row_distributed(
            BenchKind::parse("SpReach").unwrap(),
            4,
            &sweep_options(),
            2,
            &[format!("127.0.0.1:{port}")],
            &DistOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, DistError::NoWorkers { .. }), "{err}");
    }

    #[test]
    fn a_worker_that_answers_garbage_is_named_in_a_typed_error() {
        // a peer that handshakes like a worker and then answers its first
        // check with something that is no frame
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let fake = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            let hello = read_line_value(&mut reader, MAX_LINE_BYTES).unwrap().unwrap();
            assert_eq!(frame_type(&hello), "hello");
            let ready = frame("ready", [("version", Json::from(PROTOCOL_VERSION))]);
            write_line_value(&mut writer, &ready).unwrap();
            let check = read_line_value(&mut reader, MAX_LINE_BYTES).unwrap().unwrap();
            assert_eq!(frame_type(&check), "check");
            std::io::Write::write_all(&mut writer, b"%% not a frame %%\n").unwrap();
        });
        let err = run_row_distributed(
            BenchKind::parse("SpReach").unwrap(),
            4,
            &sweep_options(),
            2,
            std::slice::from_ref(&addr),
            &DistOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(&err, DistError::Worker { worker, .. } if *worker == addr), "{err}");
        assert!(err.to_string().contains("died on shard"), "{err}");
        fake.join().unwrap();
    }

    #[test]
    fn malformed_scenario_text_is_answered_with_an_error_frame() {
        let (addr, handle) = spawn_worker(WorkerOptions::default());
        let mut peer = Peer::connect(&addr, Duration::from_secs(5)).unwrap();
        peer.send(&frame(
            "hello",
            [
                ("version", Json::from(PROTOCOL_VERSION)),
                ("bench", Json::str("whatever")),
                ("k", Json::from(4usize)),
                ("shards", Json::from(1usize)),
                ("scenario", Json::str("[scenario]\nname = \"half a file\"\n[topology")),
            ],
        ))
        .unwrap();
        let reply = peer.recv().expect("the worker answers");
        assert_eq!(frame_type(&reply), "error", "{reply}");
        let detail = reply.get("detail").and_then(Json::as_str).unwrap();
        assert!(detail.contains("does not compile"), "{detail}");
        // the worker is still there for the next coordinator
        assert!(halt_workers(&[addr]).is_empty());
        assert_eq!(handle.join().unwrap(), WorkerExit::Halted);
    }

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
