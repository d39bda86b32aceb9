//! Distributed sharded verification over TCP.
//!
//! `repro fig14 --shards N` forks workers on one box; this module is the
//! next scaling rung: a **coordinator** drives `repro worker --listen`
//! processes on other hosts over TCP, reusing the NDJSON framing the rest
//! of the pipeline already speaks ([`timepiece_trace::json`]) and the
//! [`ShardReport`] protocol of the forked path — the coordinator cannot
//! tell a remote worker's report from a forked one, so the merge,
//! coverage-proof and replay machinery is shared.
//!
//! # Wire protocol
//!
//! One TCP connection per worker per row; every frame is one JSON line:
//!
//! ```text
//! C → W   {"type":"hello", "version":1, "bench":…, "k":…, "shards":N,
//!          "plan":{…}, "timeout_millis":…, "threads":…, "trace":…,
//!          "sabotage":[…]}
//! W → C   {"type":"ready", "version":1}
//! C → W   {"type":"check", "shard":i, "nodes":["core-0",…]}
//! W → C   {"type":"progress", "shard":i}        (heartbeat, ~2.5 Hz)
//! W → C   {"type":"report", "report":{…}}       (a ShardReport)
//! C → W   {"type":"done"}                       (row over; worker re-accepts)
//! C → W   {"type":"halt"}                       (worker process exits)
//! either  {"type":"error", "detail":…}          (fatal for the session)
//! ```
//!
//! # Scheduling: batched steal-half, and death
//!
//! The coordinator seeds each worker's pending deque round-robin with shard
//! indices, then runs one dispatcher thread per worker. A dispatcher with
//! an empty deque first drains the *orphan* queue (shards returned by dead
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
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use timepiece_core::check::CheckOptions;
use timepiece_core::stats::TimingStats;
use timepiece_core::sweep::CheckerPool;
use timepiece_core::Temporal;
use timepiece_sched::json::{read_line_value, write_line_value, MAX_LINE_BYTES};
use timepiece_sched::{CancelToken, Json};
use timepiece_trace::Phase;

use crate::runner::{
    class_samples, fattree_instance, monolithic_result, BenchKind, EngineResult, Row, RowBalance,
    SweepOptions,
};
use crate::shard::{
    merge_reports, plan_row, MergeError, PlanChoice, PlanSpec, ShardReport, PROTOCOL_VERSION,
};

/// How often a checking worker emits `progress` heartbeats.
const HEARTBEAT: Duration = Duration::from_millis(400);

/// How long an idle dispatcher naps before re-polling the queues for
/// orphans when other dispatchers still have shards in flight.
const IDLE_POLL: Duration = Duration::from_millis(25);

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
    /// No worker could be reached at all.
    NoWorkers {
        /// The per-address connection failures.
        detail: String,
    },
    /// A connected worker sent a fatal `error` frame (version mismatch,
    /// unknown benchmark, unknown node …).
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
        spec: &PlanSpec,
        options: &SweepOptions,
        dist: &DistOptions,
    ) -> Result<(), String> {
        self.send(&frame(
            "hello",
            [
                ("version", Json::from(PROTOCOL_VERSION)),
                ("bench", Json::str(kind.name())),
                ("k", Json::from(k)),
                ("shards", Json::from(shards)),
                ("plan", spec.to_json()),
                ("timeout_millis", Json::from(options.timeout.as_millis() as usize)),
                ("threads", Json::from(options.threads.unwrap_or(0))),
                ("trace", Json::from(timepiece_trace::enabled())),
                ("sabotage", Json::arr(dist.sabotage.iter().map(Json::str))),
            ],
        ))?;
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

/// Runs one sweep row across remote workers.
///
/// Connects to every address in `workers`, hands out the shards of the
/// plan chosen by `choice`, rebalances by batched stealing, survives
/// worker deaths by reassigning their shards, and merges the reports into
/// a [`Row`] through the same coverage-proving [`merge_reports`] the
/// forked path uses. Unreachable workers are warnings (printed to stderr)
/// as long as at least one connects.
///
/// # Errors
///
/// [`DistError`] — no reachable workers, a fatal worker `error` frame, or
/// a merge failure (including shards left unrun because every worker
/// died).
pub fn run_row_distributed(
    kind: BenchKind,
    k: usize,
    options: &SweepOptions,
    shards: usize,
    workers: &[String],
    choice: &PlanChoice,
    dist: &DistOptions,
) -> Result<Row, DistError> {
    assert!(shards >= 1, "need at least one shard");
    assert!(!workers.is_empty(), "need at least one worker address");
    let arena_before = timepiece_expr::arena::stats();
    let inst = fattree_instance(kind, k);
    let topology = inst.network.topology();
    let (plan, spec, _predicted) = plan_row(topology, shards, choice);

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
    let reports: Mutex<Vec<(String, ShardReport)>> = Mutex::new(Vec::new());
    let fatal: Mutex<Option<DistError>> = Mutex::new(None);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (me, mut peer) in peers.into_iter().enumerate() {
            let queues = &queues;
            let reports = &reports;
            let fatal = &fatal;
            let spec = &spec;
            let plan = &plan;
            scope.spawn(move || {
                if let Err(e) = peer.hello(kind, k, shards, spec, options, dist) {
                    // a worker that cannot even handshake never takes a
                    // shard; its seeded queue becomes orphans
                    let mut q = queues.lock().unwrap();
                    q.alive[me] = false;
                    let returned: Vec<usize> = q.pending[me].drain(..).collect();
                    q.reassigned += returned.len();
                    q.orphans.extend(returned);
                    drop(q);
                    eprintln!("warning: worker {} failed handshake: {e}", peer.addr);
                    *fatal.lock().unwrap() = Some(DistError::Worker {
                        worker: peer.addr.clone(),
                        detail: format!("handshake: {e}"),
                    });
                    return;
                }
                loop {
                    let job = queues.lock().unwrap().next(me);
                    let shard = match job {
                        NextJob::Run(shard) => shard,
                        NextJob::Wait => {
                            std::thread::sleep(IDLE_POLL);
                            continue;
                        }
                        NextJob::Exhausted => break,
                    };
                    let nodes: Vec<&str> =
                        plan.nodes_of(shard).iter().map(|&v| topology.name(v)).collect();
                    match peer.check(shard, &nodes) {
                        Ok(mut report) => {
                            if let Some(trace) = report.trace.take() {
                                timepiece_trace::ingest(format!("{}#s{shard}", peer.addr), trace);
                            }
                            reports.lock().unwrap().push((peer.addr.clone(), report));
                            queues.lock().unwrap().finished();
                        }
                        Err(e) => {
                            eprintln!(
                                "warning: worker {} died on shard {shard} ({e}); reassigning",
                                peer.addr
                            );
                            queues.lock().unwrap().died(me, shard);
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
    let merged = merge_reports(kind, k, shards, &spec.kind, topology, &reports)?;
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
        // coordinator-side traffic only; remote arenas live on remote hosts
        arena: timepiece_expr::arena::stats().delta_since(&arena_before),
        terms: None,
        classes: class_samples(topology, &merged.durations),
        balance: Some(RowBalance {
            plan: spec.kind.clone(),
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
    let mut warnings = Vec::new();
    for addr in workers {
        match TcpStream::connect(addr) {
            Ok(mut stream) => {
                if let Err(e) = write_line_value(&mut stream, &frame("halt", [])) {
                    warnings.push(format!("{addr}: {e}"));
                }
            }
            Err(e) => warnings.push(format!("{addr}: {e}")),
        }
    }
    warnings
}

enum SessionEnd {
    Done,
    Halted,
    Died,
}

/// Serves coordinator connections on `listener` until halted (or a
/// [`WorkerOptions`] limit fires). Each connection is one sweep row: the
/// worker rebuilds the instance named in the `hello`, checks every shard
/// the coordinator sends through a persistent [`CheckerPool`] — so solver
/// sessions stay warm across the shards of a row — and heartbeats while
/// checking. A failed session is logged and the worker re-accepts; a
/// broken coordinator must not strand the fleet.
///
/// # Errors
///
/// Only listener-level I/O errors (`accept` failing); per-session errors
/// are handled by dropping the session.
pub fn run_worker(listener: TcpListener, options: &WorkerOptions) -> std::io::Result<WorkerExit> {
    let mut sessions = 0usize;
    let mut checks_served = 0usize;
    loop {
        if let Some(max) = options.max_sessions {
            if sessions >= max {
                return Ok(WorkerExit::SessionLimit);
            }
        }
        let (stream, peer) = listener.accept()?;
        sessions += 1;
        match serve_session(stream, options, &mut checks_served) {
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

fn serve_session(
    stream: TcpStream,
    options: &WorkerOptions,
    checks_served: &mut usize,
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
        other => {
            let _ = write_line_value(
                &mut writer,
                &frame("error", [("detail", Json::str(format!("expected hello, got {other:?}")))]),
            );
            return Err(session_err(format!("expected hello frame, got {other:?}")));
        }
    }
    let version = hello.get("version").and_then(Json::as_usize).unwrap_or(0);
    if version != PROTOCOL_VERSION {
        return Err(reject(
            &mut writer,
            format!(
                "coordinator speaks protocol version {version}, worker speaks {PROTOCOL_VERSION}"
            ),
        ));
    }
    let bench = hello.get("bench").and_then(Json::as_str).unwrap_or("");
    let Some(kind) = BenchKind::parse(bench) else {
        return Err(reject(&mut writer, format!("unknown benchmark {bench:?}")));
    };
    let (Some(k), Some(shards)) =
        (hello.get("k").and_then(Json::as_usize), hello.get("shards").and_then(Json::as_usize))
    else {
        return Err(reject(&mut writer, "hello frame missing k/shards".to_owned()));
    };
    let spec = match hello.get("plan") {
        None => PlanSpec::striped(),
        Some(v) => match PlanSpec::from_json(v) {
            Ok(spec) => spec,
            Err(e) => return Err(reject(&mut writer, e.to_string())),
        },
    };
    let timeout = hello
        .get("timeout_millis")
        .and_then(Json::as_usize)
        .map(|ms| Duration::from_millis(ms as u64));
    let threads = match hello.get("threads").and_then(Json::as_usize) {
        Some(0) | None => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        Some(n) => n,
    };
    if hello.get("trace").and_then(Json::as_bool).unwrap_or(false) {
        timepiece_trace::enable();
        let _ = timepiece_trace::take();
    }

    let inst = fattree_instance(kind, k);
    let topology = inst.network.topology();
    let mut interface = inst.interface.clone();
    if let Some(sabotage) = hello.get("sabotage").and_then(Json::as_arr) {
        for name in sabotage {
            let Some(v) = name.as_str().and_then(|n| topology.node_by_name(n)) else {
                return Err(reject(&mut writer, format!("sabotage names unknown node {name}")));
            };
            interface.set(v, Temporal::globally(|r| r.clone().is_some().not()));
        }
    }
    let mut pool = CheckerPool::new(
        threads,
        CheckOptions { timeout, threads: Some(threads), ..CheckOptions::default() },
    );

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
                let names = value.get("nodes").and_then(Json::as_arr).map(|nodes| {
                    nodes.iter().map(|n| n.as_str().unwrap_or("")).collect::<Vec<_>>()
                });
                let Some(names) = names else {
                    return Err(reject(&mut writer, "check frame missing nodes".to_owned()));
                };
                let mut nodes = Vec::with_capacity(names.len());
                for name in names {
                    let Some(v) = topology.node_by_name(name) else {
                        return Err(reject(
                            &mut writer,
                            format!("check frame names unknown node {name:?}"),
                        ));
                    };
                    nodes.push(v);
                }

                // check on a side thread; this thread keeps the heartbeat
                // going so the coordinator can tell "slow solve" from
                // "dead worker"
                let (tx, rx) = mpsc::channel();
                let report = std::thread::scope(|scope| {
                    let pool = &mut pool;
                    let inst = &inst;
                    let interface = &interface;
                    let nodes = &nodes;
                    scope.spawn(move || {
                        let report = pool.check_nodes(
                            &inst.network,
                            interface,
                            &inst.property,
                            nodes,
                            &CancelToken::new(),
                        );
                        let _ = tx.send(report);
                    });
                    loop {
                        match rx.recv_timeout(HEARTBEAT) {
                            Ok(report) => break report,
                            Err(mpsc::RecvTimeoutError::Timeout) => {
                                if write_line_value(
                                    &mut writer,
                                    &frame("progress", [("shard", Json::from(shard))]),
                                )
                                .is_err()
                                {
                                    // coordinator is gone; the checker
                                    // thread still joins at scope end
                                    continue;
                                }
                            }
                            Err(mpsc::RecvTimeoutError::Disconnected) => {
                                break Err(timepiece_core::CoreError::WorkerDied);
                            }
                        }
                    }
                });
                let report = match report {
                    Ok(report) => report,
                    Err(e) => return Err(reject(&mut writer, format!("check failed: {e}"))),
                };
                let mut shard_report = ShardReport::from_check(
                    kind,
                    k,
                    shard,
                    shards,
                    spec.clone(),
                    topology,
                    &nodes,
                    &report,
                );
                if timepiece_trace::enabled() {
                    shard_report.trace = Some(timepiece_trace::take());
                }
                write_line_value(
                    &mut writer,
                    &frame("report", [("report", shard_report.to_json())]),
                )?;
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
        let row = run_row_distributed(
            kind,
            4,
            &sweep_options(),
            3,
            &workers,
            &PlanChoice::Striped,
            &DistOptions::default(),
        )
        .expect("distributed row");
        assert!(matches!(row.tp, EngineResult::Verified(_)), "{row:?}");
        assert_eq!(row.nodes, 20);
        let balance = row.balance.expect("distributed rows carry balance");
        assert_eq!(balance.plan, "striped");
        assert_eq!(balance.shard_secs.len(), 3);
        assert!(balance.shard_secs.iter().all(|&s| s > 0.0), "{balance:?}");
        assert_eq!(balance.reassigned, 0);
        assert!(!row.classes.is_empty());
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
            &PlanChoice::Striped,
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
            &PlanChoice::Striped,
            &DistOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, DistError::NoWorkers { .. }), "{err}");
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
