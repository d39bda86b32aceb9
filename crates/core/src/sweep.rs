//! The checking engine: one pool of work-stealing workers, each holding one
//! solver session that survives across checks.
//!
//! Algorithm 1 is one loop over independent per-node checks; this module is
//! the one place that decides which worker runs which node on which solver
//! session, and how long that session lives. A [`CheckerPool`] keeps `n`
//! worker threads of a [`timepiece_sched::Pool`] alive for its whole
//! lifetime, so a `repro fig14 --ks 4,6,8` sweep — or a daemon's stream of
//! edits — reuses each worker's session (and the terms already compiled into
//! it) from one check to the next. Every check is one job on the pool: each
//! node is dealt to its home worker (the same one in every job, so it meets
//! its own compiled terms) and the job is re-balanced by steal-half, the
//! first hard error or (under [`CheckOptions::fail_fast`]) the first failure
//! cancels the job and interrupts in-flight solver calls, and the report
//! carries the job's scheduler statistics. A one-shot check
//! ([`crate::check::ModularChecker::check_nodes`]) is this pool dropped
//! after its first job — the caller picks a lifetime, never an engine.
//!
//! The session's lifetime is one rule, applied per worker:
//!
//! * **What a thief keeps.** Stealing must not copy the instance into every
//!   worker: a thief forgets the terms of a node it stole as soon as it has
//!   checked it ([`SolverSession::scratch`]), so the workers together keep
//!   one compiled copy — each its own nodes.
//! * **When it is dropped.** A worker keeps its session from job to job,
//!   whatever the jobs' networks and annotations declare: the session's
//!   encoder is the one judge of whether a condition names a variable at
//!   the type it was declared at before. A condition that fails to encode
//!   may already have declared variables at types the next one contradicts,
//!   so an encode error drops the session. If the session had discharged
//!   anything before the node, the clash may be with an earlier node's
//!   declaration, which says nothing about this node: the node is
//!   discharged once more on a fresh session, and only an error there — a
//!   clash among the node's own conditions, exactly what
//!   [`crate::check::ModularChecker::check_node`] reports — is the job's.
//!   And under a daemon's stream of edits an encoder cache fills with the
//!   terms of instances long edited away, and a solver keeps a residue per
//!   check: every job therefore ends by retiring a session that has
//!   outgrown the jobs it serves (`RETIRE_AT_JOB_TERMS`,
//!   `RETIRE_AT_JOB_CHECKS`); the next job rebuilds it cold.
//!
//! [`CheckerPool::session_stats`] reports the sizes and the retirement
//! count.
//!
//! **One proof per distinct condition.** Within one job, nodes whose
//! conditions are the same formula up to the names of their route variables
//! share a key ([`crate::incremental::NodeKey`]), and the job proves each
//! key once. A worker builds and keys each node it claims, as it would to
//! check it; the first to reach a key proves the conditions built in the
//! key's names, a node whose key is already proved is answered from the
//! proof, and a node whose key another worker is still proving is *parked*
//! on it and answered by that worker when the proof lands — no worker ever
//! waits for another. Each answer carries the node's own failures: a
//! counterexample moves back to the node's own names. Only definite proofs
//! (every condition valid or invalid) are shared; a proof that came back
//! unknown, or was abandoned, is not, and the next parked node is proved on
//! its own. The memo lives for one job and is seeded only by the caller's
//! [`Records`] ([`CheckerPool::check_seeded`]): a node whose key a record
//! holds with a definite proof is a hit from the job's start, and the job
//! hands back each answered node's key and proof as its new record. A
//! one-shot check, or [`CheckerPool::check_nodes`], starts from no records.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use timepiece_algebra::Network;
use timepiece_sched::{CancelToken, Job, Pool, PoolError};
use timepiece_smt::{CounterExample, SolverSession, TermCacheStats, Validity, Vc};
use timepiece_topology::{NodeId, Topology};
use timepiece_trace::SpanGuard;

use crate::check::{
    discharge, failed, CheckOptions, CheckReport, Failure, FailureReason, MemoStats,
};
use crate::error::CoreError;
use crate::incremental::{keyed_conditions, refuse_reserved_names, NodeKey, OwnNames};
use crate::instance::Instance;
use crate::vc::VcKind;

/// A worker's session is retired once its encoder cache holds this many
/// times the compiled terms the largest single job added. One compiled copy
/// of the instance per worker is the floor (an edited network lands in the
/// session that holds its terms); the rest of the budget is room for the
/// terms of instances since edited away — two more copies' worth before the
/// worker starts cold again. Measured on a daemon serving SpReach k=8 edits:
/// 2 thrashes (+26 % time), 3 costs ~4 % and holds the process at its
/// footprint, 4 costs nothing but lets RSS run 9 % higher.
const RETIRE_AT_JOB_TERMS: usize = 3;

/// A worker's session is retired once it has discharged this many times the
/// checks of the largest single job: the solver's per-check residue (see
/// [`SolverSession::checks`]) is then bounded by a megabyte or two per
/// worker, for one cold rebuild every few dozen full checks.
const RETIRE_AT_JOB_CHECKS: u64 = 64;

/// The workers' solver sessions, summed ([`CheckerPool::session_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Live sessions: at most one per worker.
    pub sessions: usize,
    /// Compiled terms held by the live sessions' encoder caches.
    pub compiled_terms: usize,
    /// Sessions retired for outgrowing their jobs so far.
    pub retirements: usize,
}

/// What a worker thread owns for the pool's life.
struct Worker {
    index: usize,
    timeout: Option<Duration>,
    /// The worker's one session (its Z3 solver, declarations and
    /// compiled-term cache). It lives across jobs until an encode error
    /// drops it or [`Worker::end_job`] retires it.
    held: Option<SolverSession>,
    /// What the largest single job so far added to the session, in compiled
    /// terms and in checks — the unit [`Worker::end_job`] measures growth in.
    largest_job: (usize, u64),
    /// The session's compiled terms and checks when the last job ended.
    job_mark: (usize, u64),
    retirements: usize,
    /// The session's term-cache counters when the current job began.
    job_start: TermCacheStats,
}

impl Worker {
    fn new(index: usize, timeout: Option<Duration>) -> Worker {
        Worker {
            index,
            timeout,
            held: None,
            largest_job: (0, 0),
            job_mark: (0, 0),
            retirements: 0,
            job_start: TermCacheStats::default(),
        }
    }

    /// The session for the job whose token is `token`: the held one, or a
    /// fresh one. The job's token must reach the session's in-flight solver
    /// calls: hooks are per token (jobs come with fresh tokens), so the
    /// handle is registered anew for every job and every session — on an
    /// already-raised token the hook fires immediately and the worker never
    /// starts a check.
    fn open(&mut self, token: &CancelToken) -> &mut SolverSession {
        if self.held.is_none() {
            self.job_mark = (0, 0);
        }
        let session = self.held.get_or_insert_with(|| SolverSession::new(self.timeout));
        let handle = session.interrupt_handle();
        token.on_cancel(move || handle.interrupt());
        session
    }

    /// The session's compiled terms and checks.
    fn totals(&self) -> (usize, u64) {
        self.held.as_ref().map_or((0, 0), |s| (s.compiled_terms(), s.checks()))
    }

    fn term_cache_stats(&self) -> TermCacheStats {
        self.held.as_ref().map(SolverSession::term_cache_stats).unwrap_or_default()
    }

    /// Marks the end of one job and retires the session if it has outgrown
    /// the jobs it serves; returns how many sessions were retired (0 or 1).
    ///
    /// The yardstick is the worker's own history: the most compiled terms
    /// and checks any single job added. The session goes when it holds a
    /// fixed multiple of the one, or is a fixed multiple of the other old —
    /// so a worker fed ever larger instances (a sweep over `k`) raises its
    /// own bound and keeps its warm start, one fed the same instance again
    /// and again retires on age alone, and one that only ever ends one job
    /// (a one-shot check) has no history to outgrow and never retires.
    fn end_job(&mut self) -> usize {
        let (terms, checks) = self.totals();
        self.largest_job.0 = self.largest_job.0.max(terms.saturating_sub(self.job_mark.0));
        self.largest_job.1 = self.largest_job.1.max(checks.saturating_sub(self.job_mark.1));
        let max_terms = self.largest_job.0.saturating_mul(RETIRE_AT_JOB_TERMS);
        let max_checks = self.largest_job.1.saturating_mul(RETIRE_AT_JOB_CHECKS);
        let retired = if terms > max_terms || checks > max_checks {
            usize::from(self.held.take().is_some())
        } else {
            0
        };
        self.retirements += retired;
        self.job_mark = self.totals();
        retired
    }

    fn stats(&self) -> SessionStats {
        SessionStats {
            sessions: usize::from(self.held.is_some()),
            compiled_terms: self.totals().0,
            retirements: self.retirements,
        }
    }
}

/// What the workers report back beside per-node results.
#[derive(Debug, Default)]
struct Tally {
    /// Each worker's session as of its last finished job.
    sessions: Vec<SessionStats>,
    /// The current job's term-cache traffic, summed over its workers. The
    /// hits include terms compiled by *earlier* jobs into the persistent
    /// sessions — the cross-row reuse a long-lived pool exists for.
    terms: TermCacheStats,
}

/// One `check_nodes` call: the caller's instance (shared by every worker,
/// never copied), how to check a node of it, and the job's memo.
struct CheckJob {
    instance: Arc<Instance>,
    options: CheckOptions,
    workers: usize,
    tally: Arc<Mutex<Tally>>,
    memo: Memo,
}

/// One node's verdict, as a job reports it.
struct Answer {
    node: NodeId,
    failures: Vec<Failure>,
    duration: Duration,
    /// Was it this node's own proof (or a memo hit)?
    proved: bool,
    record: Record,
}

/// A node that has built and keyed its conditions and waits for a verdict.
struct Keyed {
    node: NodeId,
    /// How long building and keying its conditions took.
    built: Duration,
}

/// What a key's proof found: the kind and counterexample (in the key's
/// names) of each condition that failed — empty when all three hold.
type Proof = Vec<(VcKind, Box<CounterExample>)>;

/// What a job left about one node: the key of the conditions it checked
/// and, when every condition came back valid or invalid, their proof.
#[derive(Debug, Clone)]
pub struct Record {
    key: NodeKey,
    /// `None` when the node's last attempt was unknown: it seeds no memo.
    proof: Option<Arc<Proof>>,
}

impl Record {
    /// The key of the conditions the node was last checked on.
    pub fn key(&self) -> &NodeKey {
        &self.key
    }

    /// Did the last check come back definite — valid or invalid, never
    /// unknown?
    pub fn is_definite(&self) -> bool {
        self.proof.is_some()
    }

    /// Did all three conditions hold? An unknown is not verified.
    pub fn is_verified(&self) -> bool {
        self.proof.as_ref().is_some_and(|proof| proof.is_empty())
    }
}

/// Per-node [`Record`]s, in node order: what a caller keeps between jobs.
pub type Records = BTreeMap<NodeId, Record>;

/// Where one key stands within a job.
enum Slot {
    /// Nobody is proving it: the next node to reach it does.
    Open,
    /// A worker is proving it; the nodes parked here are answered when the
    /// proof lands.
    Proving(Vec<Keyed>),
    /// Its definite proof.
    Proved(Arc<Proof>),
}

/// The job's verdict memo: a slot per key, created by the first worker to
/// reach the key (the double-checked `get_or_init` of a concurrent map), so
/// every worker that reaches the key meets the same slot.
struct Memo {
    slots: RwLock<HashMap<NodeKey, Arc<Mutex<Slot>>>>,
}

const MEMO_LOCK: &str = "memo updates cannot panic";

/// The memo a job starts from: every key a record holds with a definite
/// proof is proved.
impl From<&Records> for Memo {
    fn from(records: &Records) -> Memo {
        let proved = records.values().filter_map(|record| {
            let proof = Arc::clone(record.proof.as_ref()?);
            Some((record.key.clone(), Arc::new(Mutex::new(Slot::Proved(proof)))))
        });
        Memo { slots: RwLock::new(proved.collect()) }
    }
}

impl Memo {
    fn slot(&self, key: &NodeKey) -> Arc<Mutex<Slot>> {
        if let Some(slot) = self.slots.read().expect(MEMO_LOCK).get(key) {
            return Arc::clone(slot);
        }
        let mut slots = self.slots.write().expect(MEMO_LOCK);
        let slot = slots.entry(key.clone()).or_insert_with(|| Arc::new(Mutex::new(Slot::Open)));
        Arc::clone(slot)
    }
}

/// What a node that reaches a key does next.
enum Claim {
    /// Prove the key: nobody else is.
    Prove(Keyed),
    /// Nothing: it is parked, and the key's prover answers it.
    Parked,
    /// Take its verdict from the key's proof.
    Proved(Keyed, Arc<Proof>),
}

/// What the prover of a key does after an attempt.
enum Settled {
    /// The proof is stored: answer the nodes that were parked on the key.
    Stored(Arc<Proof>, Vec<Keyed>),
    /// Nothing was stored: prove the key again, for this parked node.
    Next(Keyed),
    /// Nothing was stored and nobody waits: the key is open again.
    Open,
}

impl Slot {
    /// `node` reaches the key.
    fn claim(slot: &Mutex<Slot>, node: Keyed) -> Claim {
        let mut state = slot.lock().expect(MEMO_LOCK);
        match &mut *state {
            Slot::Open => {
                *state = Slot::Proving(Vec::new());
                Claim::Prove(node)
            }
            Slot::Proving(parked) => {
                parked.push(node);
                Claim::Parked
            }
            Slot::Proved(proof) => Claim::Proved(node, Arc::clone(proof)),
        }
    }

    /// The prover files an attempt: a definite `proof` is stored, anything
    /// else (unknown, abandoned) never is.
    fn settle(slot: &Mutex<Slot>, proof: Option<Proof>) -> Settled {
        let mut state = slot.lock().expect(MEMO_LOCK);
        let Slot::Proving(parked) = &mut *state else {
            unreachable!("only the node proving a key settles it")
        };
        match proof {
            Some(proof) => {
                let (proof, parked) = (Arc::new(proof), std::mem::take(parked));
                *state = Slot::Proved(Arc::clone(&proof));
                Settled::Stored(proof, parked)
            }
            None if parked.is_empty() => {
                *state = Slot::Open;
                Settled::Open
            }
            None => Settled::Next(parked.remove(0)),
        }
    }
}

/// The node span of `v`; `memo` says whether a proof ran under it.
fn node_span(g: &Topology, v: NodeId, memo: &str) -> SpanGuard {
    let mut span = timepiece_trace::span(timepiece_trace::Phase::Node, g.name(v));
    span.arg("class", g.node_class(v));
    span.arg("memo", memo);
    span
}

/// `node`'s failure of condition `kind`, given in its key's names — which
/// may be another node's condition.
fn own_failure(net: &Network, node: &Keyed, kind: VcKind, reason: FailureReason) -> Failure {
    let node_name = net.topology().name(node.node).to_owned();
    let reason = match reason {
        FailureReason::CounterExample(cex) => {
            FailureReason::CounterExample(Box::new(CounterExample {
                vc_name: format!("{kind}@{node_name}"),
                assignment: OwnNames::of(net, node.node).env(&cex.assignment),
            }))
        }
        reason => reason,
    };
    Failure { node: node.node, node_name, vc: kind, reason }
}

/// The answer the proof of `key` gives `node`.
fn served(
    net: &Network,
    node: &Keyed,
    key: &NodeKey,
    proof: &Arc<Proof>,
    duration: Duration,
    proved: bool,
) -> Answer {
    let failures = proof
        .iter()
        .map(|(kind, cex)| {
            own_failure(net, node, *kind, FailureReason::CounterExample(cex.clone()))
        })
        .collect();
    let record = Record { key: key.clone(), proof: Some(Arc::clone(proof)) };
    Answer { node: node.node, failures, duration, proved, record }
}

/// The proof three definite results make, or `None` if one is unknown.
fn proof_of(results: &[Validity; 3]) -> Option<Proof> {
    let mut proof = Proof::new();
    for (kind, result) in VcKind::ALL.into_iter().zip(results) {
        match result {
            Validity::Valid => {}
            Validity::Invalid(cex) => proof.push((kind, cex.clone())),
            Validity::Unknown(_) => return None,
        }
    }
    Some(proof)
}

impl CheckJob {
    /// Discharges a key's conditions for `v` on the worker's session: at
    /// home it keeps what it compiles, stolen it leaves nothing behind. A
    /// session the conditions fail to encode on is dropped, and if it had
    /// discharged anything before, they are discharged once more on a
    /// fresh one: only an error there is the node's own.
    fn discharge(
        &self,
        worker: &mut Worker,
        v: NodeId,
        conditions: &[Vc; 3],
        token: &CancelToken,
    ) -> Result<Option<[Validity; 3]>, CoreError> {
        loop {
            // `begin` opened it, and an error either reopens it below or is
            // the job's — after which the pool runs nothing more on this
            // worker in this job
            let session = worker.held.as_mut().expect("the job's session is open");
            let warm = session.checks() > 0;
            let checked = if v.index() % self.workers == worker.index {
                discharge(session, token.flag(), conditions)
            } else {
                // a stolen node leaves nothing behind: stealing re-balances
                // a job's time, and what a worker keeps — however often that
                // happens, however many workers there are — is the compiled
                // terms of its own nodes
                session.scratch(|session| discharge(session, token.flag(), conditions))
            };
            if checked.is_ok() {
                return checked;
            }
            // whatever the ill-typed condition declared must not outlive it
            let terms = worker.term_cache_stats().delta_since(&worker.job_start);
            self.tally.lock().expect("tally updates cannot panic").terms += terms;
            worker.held = None;
            worker.job_start = TermCacheStats::default();
            if !warm {
                return checked;
            }
            // the clash may be with a variable an earlier node declared
            worker.open(token);
        }
    }

    /// Proves the key of `slot` for `prover`, then answers every node parked
    /// on it. A proof that is not definite is not stored: the next parked
    /// node is proved on its own, until one is definite or none is left.
    fn prove(
        &self,
        worker: &mut Worker,
        slot: &Mutex<Slot>,
        key: &NodeKey,
        conditions: &[Vc; 3],
        mut prover: Keyed,
        token: &CancelToken,
    ) -> Result<Vec<Answer>, CoreError> {
        let network = &self.instance.network;
        let g = network.topology();
        let mut answers = Vec::new();
        loop {
            let start = Instant::now();
            let results = {
                let mut span = node_span(g, prover.node, "proof");
                let results = self.discharge(worker, prover.node, conditions, token)?;
                let verdict = match &results {
                    None => "abandoned",
                    Some(r) if r.iter().all(Validity::is_valid) => "verified",
                    Some(_) => "failed",
                };
                span.arg("verdict", verdict);
                results
            };
            let duration = prover.built + start.elapsed();
            let proof = results.as_ref().and_then(proof_of);
            if proof.is_none() {
                // unknown or abandoned: the node keeps what it got, nobody
                // else gets it
                if let Some(results) = results {
                    let failures = failed(results)
                        .map(|(kind, reason)| own_failure(network, &prover, kind, reason))
                        .collect();
                    let record = Record { key: key.clone(), proof: None };
                    answers.push(Answer {
                        node: prover.node,
                        failures,
                        duration,
                        proved: true,
                        record,
                    });
                }
            }
            match Slot::settle(slot, proof) {
                Settled::Stored(proof, parked) => {
                    answers.push(served(network, &prover, key, &proof, duration, true));
                    for node in parked {
                        let mut span = node_span(g, node.node, "hit");
                        span.arg("verdict", if proof.is_empty() { "verified" } else { "failed" });
                        answers.push(served(network, &node, key, &proof, node.built, false));
                    }
                    return Ok(answers);
                }
                Settled::Next(node) => prover = node,
                Settled::Open => return Ok(answers),
            }
        }
    }
}

impl Job for CheckJob {
    type State = Worker;
    type Task = NodeId;
    /// The nodes a task answered: its own node, unless the node was parked,
    /// and every node parked on a key the task proved.
    type Output = Vec<Answer>;
    type Error = CoreError;

    /// A node is at home on the same worker in every job — a full check or
    /// the cone of an edit — so it meets the terms that worker compiled for
    /// it last time.
    fn home(&self, _index: usize, v: &NodeId) -> usize {
        v.index()
    }

    fn begin(&self, worker: &mut Worker, token: &CancelToken) {
        worker.open(token);
        worker.job_start = worker.term_cache_stats();
    }

    fn run(
        &self,
        worker: &mut Worker,
        v: NodeId,
        token: &CancelToken,
    ) -> Result<Option<Vec<Answer>>, CoreError> {
        let start = Instant::now();
        let Instance { network, interface, property } = &*self.instance;
        refuse_reserved_names(network, interface, property, v)?;
        let (key, conditions) =
            keyed_conditions(network, interface, property, self.options.delay, v);
        let slot = self.memo.slot(&key);
        let node = Keyed { node: v, built: start.elapsed() };
        let answers = match Slot::claim(&slot, node) {
            Claim::Prove(node) => self.prove(worker, &slot, &key, &conditions, node, token)?,
            Claim::Parked => return Ok(Some(Vec::new())),
            Claim::Proved(node, proof) => {
                let mut span = node_span(network.topology(), v, "hit");
                span.arg("verdict", if proof.is_empty() { "verified" } else { "failed" });
                vec![served(network, &node, &key, &proof, start.elapsed(), false)]
            }
        };
        if self.options.fail_fast && answers.iter().any(|a| !a.failures.is_empty()) {
            token.cancel();
        }
        Ok(Some(answers))
    }

    fn end(&self, worker: &mut Worker) {
        let terms = worker.term_cache_stats().delta_since(&worker.job_start);
        // between jobs nothing holds the session: the one point where an
        // overgrown one can be dropped whole
        worker.end_job();
        let mut tally = self.tally.lock().expect("tally updates cannot panic");
        tally.terms += terms;
        tally.sessions[worker.index] = worker.stats();
    }
}

/// A pool of persistent verification workers, each with one long-lived
/// solver session. See the module docs.
///
/// # Example
///
/// ```no_run
/// use std::sync::Arc;
/// use timepiece_core::check::CheckOptions;
/// use timepiece_core::sweep::CheckerPool;
/// # fn instance_at(_k: usize) -> timepiece_core::Instance { unimplemented!() }
///
/// let mut pool = CheckerPool::new(4, CheckOptions::default());
/// for k in [4, 6, 8] {
///     let instance = Arc::new(instance_at(k));
///     let report = pool.check(&instance).unwrap();
///     assert!(report.is_verified());
/// }
/// // the sessions built for k = 4 served k = 6 and k = 8 too
/// ```
#[derive(Debug)]
pub struct CheckerPool {
    pool: Pool<CheckJob>,
    options: CheckOptions,
    tally: Arc<Mutex<Tally>>,
}

impl CheckerPool {
    /// Spawns `workers` persistent threads, each to hold one solver session
    /// bounded by `options.timeout`.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(workers: usize, options: CheckOptions) -> CheckerPool {
        assert!(workers > 0, "a checker pool needs at least one worker");
        let timeout = options.timeout;
        let pool = Pool::new(workers, move |index| Worker::new(index, timeout));
        let tally = Tally { sessions: vec![SessionStats::default(); workers], ..Tally::default() };
        CheckerPool { pool, options, tally: Arc::new(Mutex::new(tally)) }
    }

    /// The pool with one worker per [`CheckOptions::threads`] (default: per
    /// available core).
    pub fn with_default_parallelism(options: CheckOptions) -> CheckerPool {
        CheckerPool::new(options.workers(), options)
    }

    /// How many persistent workers the pool runs.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// The options the pool was built with.
    pub fn options(&self) -> &CheckOptions {
        &self.options
    }

    /// The workers' solver sessions, summed, as of each worker's last
    /// finished job: live sessions (at most one per worker), the compiled
    /// terms they hold, and how many sessions were retired for outgrowing
    /// their jobs. Bounded by one copy of each worker's own nodes, but not
    /// repeatable for a given request sequence: a node stolen in one job is
    /// compiled at home in a later one.
    pub fn session_stats(&self) -> SessionStats {
        let tally = self.tally.lock().expect("tally updates cannot panic");
        tally.sessions.iter().fold(SessionStats::default(), |sum, w| SessionStats {
            sessions: sum.sessions + w.sessions,
            compiled_terms: sum.compiled_terms + w.compiled_terms,
            retirements: sum.retirements + w.retirements,
        })
    }

    /// Checks every node of an instance across the persistent workers,
    /// reusing the solver sessions previous checks opened.
    ///
    /// # Errors
    ///
    /// As [`CheckerPool::check_nodes`].
    pub fn check(&mut self, instance: &Arc<Instance>) -> Result<CheckReport, CoreError> {
        let nodes: Vec<NodeId> = instance.network.topology().nodes().collect();
        self.check_nodes(instance, &nodes, &CancelToken::new())
    }

    /// Checks a *subset* of nodes across the persistent workers, starting
    /// from no records: [`CheckerPool::check_seeded`] with none.
    ///
    /// # Errors
    ///
    /// As [`CheckerPool::check_seeded`].
    pub fn check_nodes(
        &mut self,
        instance: &Arc<Instance>,
        nodes: &[NodeId],
        cancel: &CancelToken,
    ) -> Result<CheckReport, CoreError> {
        Ok(self.check_seeded(instance, nodes, &Records::new(), cancel)?.0)
    }

    /// Checks a *subset* of nodes across the persistent workers — the
    /// incremental re-check path: a daemon that knows which nodes an edit
    /// can reach re-verifies exactly those, through sessions still warm from
    /// the previous request. A job wakes no more workers than it has nodes.
    ///
    /// The job's memo starts from `records`: a node whose key some record
    /// holds with a definite proof is answered by that proof, not proved
    /// again. Returned beside the report are `records` with each of `nodes`
    /// given its answer's record — the key checked and, if it was definite,
    /// the proof — and a node the job did not answer left without one.
    ///
    /// Raising `cancel` abandons unchecked nodes *and* interrupts in-flight
    /// solver calls (each worker registers its session's interrupt handle on
    /// the token, and the interrupts are re-delivered until every worker has
    /// wound down), so an external canceller — a daemon draining for
    /// shutdown — stops a long check promptly. Nodes abandoned that way
    /// report neither failures nor durations, and keep no record.
    ///
    /// # Errors
    ///
    /// The first [`CoreError`] raised by any worker (an annotation writing a
    /// name the checker binds, encoding failures; the other workers are
    /// cancelled), or [`CoreError::WorkerDied`] if a worker panicked — the
    /// pool then replaces its workers, so the next check runs on fresh
    /// sessions and an empty [`CheckerPool::session_stats`]. Solver
    /// counterexamples are *not* errors, they are reported as [`Failure`]s.
    pub fn check_seeded(
        &mut self,
        instance: &Arc<Instance>,
        nodes: &[NodeId],
        records: &Records,
        cancel: &CancelToken,
    ) -> Result<(CheckReport, Records), CoreError> {
        let start = Instant::now();
        self.tally.lock().expect("tally updates cannot panic").terms = TermCacheStats::default();
        let job = CheckJob {
            instance: Arc::clone(instance),
            options: self.options.clone(),
            workers: self.pool.workers(),
            tally: Arc::clone(&self.tally),
            memo: Memo::from(records),
        };
        let outcome = match self.pool.run(nodes.to_vec(), cancel, job) {
            Ok(outcome) => outcome,
            Err(PoolError::Task(e)) => return Err(e),
            Err(PoolError::WorkerDied) => {
                // a dead worker leaves the pool unable to run a job
                *self = CheckerPool::new(self.workers(), self.options.clone());
                return Err(CoreError::WorkerDied);
            }
        };
        let mut node_durations = Vec::with_capacity(nodes.len());
        let mut failures = Vec::new();
        let mut memo = MemoStats::default();
        let mut updated = records.clone();
        for v in nodes {
            updated.remove(v);
        }
        for answer in outcome.results.into_iter().flatten() {
            node_durations.push((answer.node, answer.duration));
            failures.extend(answer.failures);
            updated.insert(answer.node, answer.record);
            if answer.proved {
                memo.proofs += 1;
            } else {
                memo.hits += 1;
            }
        }
        node_durations.sort_by_key(|(v, _)| *v);
        failures.sort_by_key(|f| f.node);
        let report = CheckReport {
            failures,
            node_durations,
            wall: start.elapsed(),
            sched: outcome.stats,
            terms: self.tally.lock().expect("tally updates cannot panic").terms,
            memo,
        };
        Ok((report, updated))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{FailureReason, MemoStats, ModularChecker};
    use crate::interface::NodeAnnotations;
    use crate::temporal::Temporal;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use timepiece_algebra::{Network, NetworkBuilder};
    use timepiece_expr::{Expr, Type};
    use timepiece_smt::Vc;
    use timepiece_topology::gen;

    /// Boolean-reachability network over an undirected path of length `n`.
    fn reach_net(n: usize) -> Network {
        let g = gen::undirected_path(n);
        let v0 = g.node_by_name("v0").unwrap();
        NetworkBuilder::new(g, Type::Bool)
            .merge(|a, b| a.clone().or(b.clone()))
            .default_transfer(|r| r.clone())
            .init(v0, Expr::bool(true))
            .build()
            .unwrap()
    }

    /// Exact reachability interface: node `i` has the route from time `i` on.
    fn reach_interface(net: &Network) -> NodeAnnotations {
        NodeAnnotations::from_fn(net.topology(), |v| {
            let t = v.index() as u64;
            if t == 0 {
                Temporal::globally(|r| r.clone())
            } else {
                Temporal::until_at(t, |r| r.clone().not(), Temporal::globally(|r| r.clone()))
            }
        })
    }

    /// The interface that fails everywhere: no node ever has a route.
    fn no_route_ever(net: &Network) -> NodeAnnotations {
        NodeAnnotations::new(net.topology(), Temporal::globally(|r| r.clone().not()))
    }

    fn anything(net: &Network) -> NodeAnnotations {
        NodeAnnotations::new(net.topology(), Temporal::any())
    }

    /// The instance as a pool takes it.
    fn shared(
        net: &Network,
        interface: &NodeAnnotations,
        property: &NodeAnnotations,
    ) -> Arc<Instance> {
        Arc::new(Instance {
            network: net.clone(),
            interface: interface.clone(),
            property: property.clone(),
        })
    }

    /// The engine at one of its two lifetimes: a fresh pool per call
    /// ([`ModularChecker`]), or one pool that has already served a job.
    enum Engine {
        OneShot(CheckOptions),
        Reused(CheckerPool),
    }

    impl Engine {
        /// Both lifetimes under the same options; every case below runs on
        /// each and must not be able to tell them apart.
        fn lifetimes(options: CheckOptions) -> [Engine; 2] {
            let mut pool = CheckerPool::with_default_parallelism(options.clone());
            let warm_up = reach_net(3);
            pool.check(&shared(&warm_up, &reach_interface(&warm_up), &anything(&warm_up))).unwrap();
            [Engine::OneShot(options), Engine::Reused(pool)]
        }

        fn name(&self) -> &'static str {
            match self {
                Engine::OneShot(_) => "one-shot",
                Engine::Reused(_) => "reused pool",
            }
        }

        fn check_nodes(
            &mut self,
            net: &Network,
            interface: &NodeAnnotations,
            property: &NodeAnnotations,
            nodes: &[NodeId],
        ) -> Result<CheckReport, CoreError> {
            match self {
                Engine::OneShot(options) => ModularChecker::new(options.clone())
                    .check_nodes(net, interface, property, nodes),
                Engine::Reused(pool) => {
                    pool.check_nodes(&shared(net, interface, property), nodes, &CancelToken::new())
                }
            }
        }

        fn check(
            &mut self,
            net: &Network,
            interface: &NodeAnnotations,
            property: &NodeAnnotations,
        ) -> Result<CheckReport, CoreError> {
            let nodes: Vec<NodeId> = net.topology().nodes().collect();
            self.check_nodes(net, interface, property, &nodes)
        }
    }

    fn threads(n: usize) -> CheckOptions {
        CheckOptions { threads: Some(n), ..CheckOptions::default() }
    }

    fn failing_names(report: &CheckReport) -> Vec<String> {
        report.failures().iter().map(|f| f.node_name.clone()).collect()
    }

    #[test]
    fn single_thread_and_parallel_agree_on_rows_of_every_size() {
        for n in [3usize, 5, 7] {
            let net = reach_net(n);
            let (interface, property) = (reach_interface(&net), anything(&net));
            for workers in [1, 4] {
                for mut engine in Engine::lifetimes(threads(workers)) {
                    let report = engine.check(&net, &interface, &property).unwrap();
                    assert!(report.is_verified(), "{} n={n}", engine.name());
                    assert_eq!(report.node_durations().len(), n, "every node checked once");
                }
            }
        }
    }

    #[test]
    fn failures_are_reported_alike() {
        let net = reach_net(4);
        let mut interface = reach_interface(&net);
        let v2 = net.topology().node_by_name("v2").unwrap();
        interface
            .set(v2, Temporal::until_at(1, |r| r.clone().not(), Temporal::globally(|r| r.clone())));
        let property = anything(&net);
        let [mut one_shot, mut reused] = Engine::lifetimes(threads(2));
        let a = one_shot.check(&net, &interface, &property).unwrap();
        let b = reused.check(&net, &interface, &property).unwrap();
        assert!(!a.is_verified());
        assert_eq!(failing_names(&a), failing_names(&b));
    }

    #[test]
    fn fail_fast_with_one_worker_schedules_nothing_after_the_first_failure() {
        let net = reach_net(8);
        let (interface, property) = (no_route_ever(&net), anything(&net));
        let options = CheckOptions { fail_fast: true, ..threads(1) };
        for mut engine in Engine::lifetimes(options) {
            let report = engine.check(&net, &interface, &property).unwrap();
            assert!(!report.is_verified());
            // with one worker the queue stops at once: exactly one node ran
            assert_eq!(report.node_durations().len(), 1, "{}", engine.name());
            // the engine is reusable after a cancelled job
            let report = engine.check(&net, &reach_interface(&net), &property).unwrap();
            assert!(report.is_verified());
            assert_eq!(report.node_durations().len(), 8);
        }
    }

    #[test]
    fn without_fail_fast_every_node_is_checked() {
        let net = reach_net(6);
        let (interface, property) = (no_route_ever(&net), anything(&net));
        for mut engine in Engine::lifetimes(threads(1)) {
            let report = engine.check(&net, &interface, &property).unwrap();
            // every node is checked even though v0 fails early in the schedule
            assert_eq!(report.node_durations().len(), 6);
            // and the failure stays localized: only the origin violates the
            // "no route ever" interface (its initial route is the route)
            let failing: BTreeSet<String> = failing_names(&report).into_iter().collect();
            assert_eq!(failing.into_iter().collect::<Vec<_>>(), ["v0"], "{}", engine.name());
        }
    }

    #[test]
    fn fail_fast_abandons_inflight_nodes_without_reporting_them() {
        // all nodes fail; with several workers racing, the cancel raised by
        // the first failure abandons the others' in-flight nodes — whatever
        // interleaving happens, abandoned nodes must leave no trace
        let net = reach_net(8);
        let (interface, property) = (no_route_ever(&net), anything(&net));
        let options = CheckOptions { fail_fast: true, ..threads(4) };
        for mut engine in Engine::lifetimes(options) {
            let report = engine.check(&net, &interface, &property).unwrap();
            assert!(!report.is_verified());
            assert!(report.scheduler().unwrap().cancelled, "{}", engine.name());
            // every reported failure belongs to a node with a recorded duration
            let checked: BTreeSet<NodeId> =
                report.node_durations().iter().map(|(v, _)| *v).collect();
            for f in report.failures() {
                assert!(checked.contains(&f.node), "failure at unrecorded node {}", f.node_name);
            }
        }
    }

    #[test]
    fn check_nodes_covers_exactly_the_requested_shard() {
        let net = reach_net(6);
        let (interface, property) = (reach_interface(&net), anything(&net));
        let all: Vec<NodeId> = net.topology().nodes().collect();
        for mut engine in Engine::lifetimes(threads(2)) {
            let shard_a = engine.check_nodes(&net, &interface, &property, &all[..2]).unwrap();
            let shard_b = engine.check_nodes(&net, &interface, &property, &all[2..]).unwrap();
            let checked: Vec<NodeId> = shard_b.node_durations().iter().map(|(v, _)| *v).collect();
            assert_eq!(checked, &all[2..], "exactly the requested nodes, in id order");
            let shards = [&shard_a, &shard_b];
            assert!(shards.iter().all(|r| r.failures().is_empty()));
            // the shards' durations, concatenated, cover every node in id order
            let order: Vec<NodeId> =
                shards.iter().flat_map(|r| r.node_durations()).map(|(v, _)| *v).collect();
            assert_eq!(order, all, "{}", engine.name());
        }
    }

    #[test]
    fn empty_shard_produces_an_empty_verified_report() {
        let net = reach_net(3);
        let (interface, property) = (reach_interface(&net), anything(&net));
        for mut engine in Engine::lifetimes(CheckOptions::default()) {
            let report = engine.check_nodes(&net, &interface, &property, &[]).unwrap();
            assert!(report.is_verified(), "{}", engine.name());
            assert_eq!(report.node_durations().len(), 0);
            assert_eq!(report.stats().count, 0);
        }
    }

    /// The trivial property, slow to build at worker 0's nodes: a skewed
    /// job, which the other workers must steal from to keep short.
    fn slow_at_worker_0(net: &Network, workers: usize) -> NodeAnnotations {
        NodeAnnotations::from_fn(net.topology(), |v| {
            if v.index() % workers == 0 {
                Temporal::globally(|_| {
                    std::thread::sleep(Duration::from_millis(15));
                    Expr::bool(true)
                })
            } else {
                Temporal::any()
            }
        })
    }

    #[test]
    fn every_report_carries_scheduler_stats_and_a_skewed_job_is_stolen() {
        let net = reach_net(16);
        let (interface, property) = (reach_interface(&net), slow_at_worker_0(&net, 2));
        for mut engine in Engine::lifetimes(threads(2)) {
            let report = engine.check(&net, &interface, &property).unwrap();
            assert!(report.is_verified());
            let stats = report.scheduler().expect("both lifetimes report their scheduler");
            assert_eq!(stats.workers, 2, "{}", engine.name());
            assert_eq!(stats.claimed.iter().sum::<usize>(), 16, "every node claimed once");
            assert!(stats.steals > 0, "{}: the idle worker never stole: {stats:?}", engine.name());
            assert!(!stats.cancelled);
        }
    }

    #[test]
    fn a_stolen_node_leaves_nothing_in_the_thiefs_sessions() {
        // a worker keeps the compiled terms of its own nodes only, so what a
        // pool holds grows neither with how often its jobs are re-balanced
        // nor — beyond the terms nodes share — with its worker count
        let net = reach_net(12);
        let interface = reach_interface(&net);
        for workers in [2, 5] {
            let property = slow_at_worker_0(&net, workers);
            // the yardstick: every worker's own nodes, each share checked
            // by a pool of one, which has nobody to steal from it
            let one_copy: usize = (0..workers)
                .map(|w| {
                    let own: Vec<NodeId> =
                        net.topology().nodes().filter(|v| v.index() % workers == w).collect();
                    let mut alone = CheckerPool::new(1, CheckOptions::default());
                    let instance = shared(&net, &interface, &property);
                    alone.check_nodes(&instance, &own, &CancelToken::new()).unwrap();
                    alone.session_stats().compiled_terms
                })
                .sum();
            let mut pool = CheckerPool::new(workers, CheckOptions::default());
            let instance = shared(&net, &interface, &property);
            let mut steals = 0;
            for _ in 0..3 {
                let report = pool.check(&instance).unwrap();
                assert!(report.is_verified());
                steals += report.scheduler().unwrap().steals;
                let held = pool.session_stats().compiled_terms;
                assert!(held <= one_copy, "{workers} workers hold {held} > {one_copy}");
            }
            assert!(steals > 0, "the skewed jobs were never re-balanced");
        }
    }

    #[test]
    fn a_hard_error_cancels_the_other_workers() {
        // v5's interface declares a free variable at two types: encoding
        // the conditions that apply it is a hard error, not a failure
        let net = reach_net(8);
        let mut interface = reach_interface(&net);
        let v5 = net.topology().node_by_name("v5").unwrap();
        let x = |ty| Expr::var("x", ty);
        interface.set(
            v5,
            Temporal::globally(move |r| {
                x(Type::Int).ge(Expr::int(0)).and(x(Type::Bool)).and(r.clone())
            }),
        );
        let property = anything(&net);
        let mut pool = CheckerPool::new(2, CheckOptions::default());
        let all: Vec<NodeId> = net.topology().nodes().collect();
        let token = CancelToken::new();
        let result = pool.check_nodes(&shared(&net, &interface, &property), &all, &token);
        assert!(matches!(result, Err(CoreError::Smt(_))), "{result:?}");
        assert!(token.is_cancelled(), "the error must stop the rest of the job");
        // one-shot: same error
        let result = ModularChecker::new(threads(2)).check(&net, &interface, &property);
        assert!(matches!(result, Err(CoreError::Smt(_))), "{result:?}");
        // the pool survives an error: nobody died, and a worker that hit it
        // dropped the session the ill-typed declaration had got into, so
        // `x` may now be declared at the other type
        let mut property = anything(&net);
        property.set(v5, Temporal::globally(move |_| x(Type::Bool).or(x(Type::Bool).not())));
        assert!(pool
            .check(&shared(&net, &reach_interface(&net), &property))
            .unwrap()
            .is_verified());
    }

    #[test]
    fn a_worker_panic_is_worker_died_on_both_lifetimes() {
        let net = reach_net(4);
        let interface = reach_interface(&net);
        let v2 = net.topology().node_by_name("v2").unwrap();
        let mut property = anything(&net);
        property.set(v2, Temporal::globally(|_| panic!("annotation closure exploded")));
        for mut engine in Engine::lifetimes(threads(2)) {
            let result = engine.check(&net, &interface, &property);
            assert_eq!(result.unwrap_err(), CoreError::WorkerDied, "{}", engine.name());
            // a pool a worker died in replaced its workers: it checks again
            let report = engine.check(&net, &interface, &anything(&net)).unwrap();
            assert!(report.is_verified(), "{}", engine.name());
            assert_eq!(report.node_durations().len(), 4);
        }
    }

    #[test]
    fn interrupt_hooks_are_redelivered_until_the_workers_wind_down() {
        // the first delivery of the token's hooks is made by the worker that
        // found the failure; this hook (registered first, so run first)
        // stalls that delivery — and with it the worker — until the hooks
        // are delivered a second time, which only the job's watchdog does
        let net = reach_net(6);
        let (interface, property) = (no_route_ever(&net), anything(&net));
        let all: Vec<NodeId> = net.topology().nodes().collect();
        let token = CancelToken::new();
        let fired = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&fired);
        token.on_cancel(move || {
            if counter.fetch_add(1, Ordering::SeqCst) == 0 {
                let deadline = Instant::now() + Duration::from_secs(3);
                while counter.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                    std::thread::yield_now();
                }
            }
        });
        let mut pool = CheckerPool::new(2, CheckOptions { fail_fast: true, ..threads(2) });
        let report = pool.check_nodes(&shared(&net, &interface, &property), &all, &token).unwrap();
        assert!(!report.is_verified());
        assert!(fired.load(Ordering::SeqCst) >= 2, "a lost interrupt was never re-delivered");
    }

    #[test]
    fn identical_rows_start_warm_from_the_cross_row_term_cache() {
        // with hash-consed intern ids, row 2's terms are the *same nodes* as
        // row 1's, so the persistent sessions serve them from cache: the
        // second structurally identical row must show hits and fewer misses
        let mut pool = CheckerPool::new(1, CheckOptions::default());
        let net = reach_net(5);
        let instance = shared(&net, &reach_interface(&net), &anything(&net));
        let first = pool.check(&instance).unwrap();
        let second = pool.check(&instance).unwrap();
        let t1 = first.term_cache();
        let t2 = second.term_cache();
        assert!(t2.hits > 0, "row 2 saw no cache hits: {t2:?}");
        assert!(t2.misses < t1.misses, "row 2 must start warm from row 1: {t1:?} vs {t2:?}");
        assert!(t2.hit_rate() > t1.hit_rate());
    }

    #[test]
    fn an_already_cancelled_token_checks_nothing() {
        // a daemon draining for shutdown raises its token before the job:
        // every node is abandoned, the pool stays reusable
        let mut pool = CheckerPool::new(2, CheckOptions::default());
        let net = reach_net(5);
        let instance = shared(&net, &reach_interface(&net), &anything(&net));
        let all: Vec<NodeId> = net.topology().nodes().collect();
        let token = CancelToken::new();
        token.cancel();
        let report = pool.check_nodes(&instance, &all, &token).unwrap();
        assert_eq!(report.node_durations().len(), 0, "all nodes abandoned");
        assert!(report.is_verified(), "abandoned nodes report no failures");
        let report = pool.check_nodes(&instance, &all, &CancelToken::new()).unwrap();
        assert_eq!(report.node_durations().len(), 5, "fresh token, full check");
    }

    /// Hop-count-like reachability over `Option<Int>` routes: a route type
    /// other than [`reach_net`]'s, so its route variables clash with theirs.
    fn int_net(n: usize) -> Network {
        let g = gen::undirected_path(n);
        let v0 = g.node_by_name("v0").unwrap();
        NetworkBuilder::new(g, Type::option(Type::Int))
            .merge(|a, b| b.clone().is_none().ite(a.clone(), b.clone()))
            .default_transfer(|r| r.clone())
            .init(v0, Expr::int(0).some())
            .build()
            .unwrap()
    }

    #[test]
    fn alternating_route_types_keep_one_session_per_worker() {
        // a pool that alternates between two route types holds one session
        // per worker, not one per route type: the route variables clash, so
        // each job replaces a worker's session instead of adding one beside
        // it
        let mut pool = CheckerPool::new(2, CheckOptions::default());
        let (bool_net, int_net) = (reach_net(3), int_net(3));
        let bool_instance = shared(&bool_net, &reach_interface(&bool_net), &anything(&bool_net));
        // node `i` has a route from time `i` on
        let int_interface = NodeAnnotations::from_fn(int_net.topology(), |v| {
            let has_route = |r: &Expr| r.clone().is_some();
            Temporal::until_at(
                v.index() as u64,
                |r| r.clone().is_none(),
                Temporal::globally(has_route),
            )
        });
        let int_instance = shared(&int_net, &int_interface, &anything(&int_net));
        for _ in 0..3 {
            let report = pool.check(&bool_instance).unwrap();
            assert!(report.is_verified());
            assert!(pool.session_stats().sessions <= pool.workers(), "{:?}", pool.session_stats());
            let report = pool.check(&int_instance).unwrap();
            assert!(report.is_verified());
            assert!(pool.session_stats().sessions <= pool.workers(), "{:?}", pool.session_stats());
        }
    }

    fn vc_over_int_x() -> Vc {
        let x = Expr::var("x", Type::Int);
        Vc::new("t", [x.clone().gt(Expr::int(2))], x.gt(Expr::int(1)))
    }

    #[test]
    fn a_worker_reuses_its_session_while_nothing_clashes() {
        let mut worker = Worker::new(0, None);
        assert_eq!(worker.stats().sessions, 0, "opened by the first job");
        for _ in 0..3 {
            let session = worker.open(&CancelToken::new());
            assert!(session.check(&vc_over_int_x()).unwrap().is_valid());
        }
        assert_eq!(worker.open(&CancelToken::new()).checks(), 3, "one session served all three");
        assert_eq!(worker.stats().sessions, 1);
    }

    /// A tautology over a free `x: ty` (an `Int` or a `Bool`).
    fn x_tautology(ty: &Type) -> Expr {
        let x = Expr::var("x", ty.clone());
        let atom = if *ty == Type::Int { x.ge(Expr::int(0)) } else { x };
        atom.clone().or(atom.not())
    }

    /// `reach_net(4)` whose every node's property is [`x_tautology`].
    fn declares_x_at(ty: Type) -> Arc<Instance> {
        let net = reach_net(4);
        let property =
            NodeAnnotations::new(net.topology(), Temporal::globally(move |_| x_tautology(&ty)));
        shared(&net, &reach_interface(&net), &property)
    }

    #[test]
    fn a_warm_pool_checks_a_variable_at_another_type_than_its_last_job_did() {
        // the first job declares `x: Int` in every worker's session, the
        // second `x: Bool`: a fresh checker verifies the second instance,
        // and so must the pool that checked the first
        for workers in [1, 2] {
            let mut pool = CheckerPool::new(workers, CheckOptions::default());
            let (int_x, bool_x) = (declares_x_at(Type::Int), declares_x_at(Type::Bool));
            assert!(pool.check(&int_x).unwrap().is_verified());
            let Instance { network, interface, property } = &*bool_x;
            assert!(ModularChecker::new(threads(workers))
                .check(network, interface, property)
                .unwrap()
                .is_verified());
            let report = pool.check(&bool_x).unwrap();
            assert!(report.is_verified(), "{workers} workers: {:?}", report.failures());
            // each worker's clashing session was replaced, not kept beside
            // the new one, and the replacement's traffic is the job's
            assert!(pool.session_stats().sessions <= workers);
            assert!(report.term_cache().misses > 0);
            // and back again
            assert!(pool.check(&int_x).unwrap().is_verified());
        }
    }

    #[test]
    fn nodes_that_declare_a_variable_at_two_types_verify_on_shared_sessions() {
        // v0's interface declares `x: Int` and v3's `x: Bool`; no node's
        // own conditions apply both (v1 assumes v0's, v2 assumes v3's), so
        // each verifies on its own — and so on a session that discharged a
        // node of the other kind before it
        let net = reach_net(4);
        let [v0, v3] = ["v0", "v3"].map(|name| net.topology().node_by_name(name).unwrap());
        let mut interface = reach_interface(&net);
        let with_x = |ty: Type| move |r: &Expr| r.clone().and(x_tautology(&ty));
        interface.set(v0, Temporal::globally(with_x(Type::Int)));
        interface.set(
            v3,
            Temporal::until_at(3, |r| r.clone().not(), Temporal::globally(with_x(Type::Bool))),
        );
        let property = anything(&net);
        let checker = ModularChecker::new(CheckOptions::default());
        for v in net.topology().nodes() {
            let (failures, _) = checker.check_node(&net, &interface, &property, v).unwrap();
            assert!(failures.is_empty(), "{}: {failures:?}", net.topology().name(v));
        }
        for workers in [1, 2] {
            let report = ModularChecker::new(threads(workers)).check(&net, &interface, &property);
            assert!(report.unwrap().is_verified(), "{workers} workers");
        }
    }

    #[test]
    fn a_clash_within_one_nodes_conditions_is_an_error_and_drops_the_session() {
        // v5's interface declares `x` at two types: no session can encode
        // the conditions that apply it, a warm one or the fresh one the
        // node is discharged on again
        let net = reach_net(8);
        let mut interface = reach_interface(&net);
        let v5 = net.topology().node_by_name("v5").unwrap();
        interface.set(
            v5,
            Temporal::globally(|r| {
                let x = |ty| Expr::var("x", ty);
                x(Type::Int).ge(Expr::int(0)).and(x(Type::Bool)).and(r.clone())
            }),
        );
        let property = anything(&net);
        let mut pool = CheckerPool::new(1, CheckOptions::default());
        assert!(pool.check(&declares_x_at(Type::Int)).unwrap().is_verified());
        assert_eq!(pool.session_stats().sessions, 1, "warm");
        let result = pool.check(&shared(&net, &interface, &property));
        assert!(matches!(result, Err(CoreError::Smt(_))), "{result:?}");
        let alone = ModularChecker::new(CheckOptions::default())
            .check_node(&net, &interface, &property, v5);
        assert_eq!(result.unwrap_err(), alone.unwrap_err(), "the error is the node's own");
        // whatever the failed encoding declared went with the session
        assert_eq!(pool.session_stats().sessions, 0);
        assert!(pool.check(&declares_x_at(Type::Bool)).unwrap().is_verified());
        assert_eq!(pool.session_stats().sessions, 1);
    }

    /// `n` distinct valid conditions over fresh constants starting at `from`.
    fn distinct_vcs(from: i64, n: i64) -> Vec<Vc> {
        let x = Expr::var("x", Type::Int);
        (from..from + n)
            .map(|i| {
                Vc::new(
                    format!("gt-{i}"),
                    [x.clone().gt(Expr::int(i + 1))],
                    x.clone().gt(Expr::int(i)),
                )
            })
            .collect()
    }

    /// One job: discharges `vcs` through the worker's session, then ends the
    /// job.
    fn run(worker: &mut Worker, vcs: &[Vc]) -> usize {
        let session = worker.open(&CancelToken::new());
        for vc in vcs {
            assert!(session.check(vc).unwrap().is_valid());
        }
        worker.end_job()
    }

    #[test]
    fn end_job_retires_a_pool_that_outgrew_its_jobs() {
        let mut pool = Worker::new(0, None);
        // the first job sets the yardstick: what one job compiles
        assert_eq!(run(&mut pool, &distinct_vcs(0, 20)), 0);
        let one_job = pool.stats().compiled_terms;
        assert!(one_job > 0);
        // the same job again compiles nothing new: no growth, no retirement
        for _ in 0..10 {
            assert_eq!(run(&mut pool, &distinct_vcs(0, 20)), 0);
            assert_eq!(pool.stats().compiled_terms, one_job);
        }
        // a stream of small, always new jobs — edits — grows the cache until
        // it passes the multiple; then the session goes and is rebuilt cold
        let mut retired_at = None;
        for edit in 0..200 {
            if run(&mut pool, &distinct_vcs(1000 + 2 * edit, 2)) > 0 {
                retired_at = Some(edit);
                break;
            }
            assert!(pool.stats().compiled_terms <= RETIRE_AT_JOB_TERMS * one_job);
        }
        assert!(retired_at.is_some(), "the cache must not grow without bound");
        assert_eq!(pool.stats(), SessionStats { sessions: 0, compiled_terms: 0, retirements: 1 });
        // lazily rebuilt: the next job finds a fresh, working session
        assert_eq!(run(&mut pool, &distinct_vcs(0, 20)), 0);
        assert_eq!(pool.stats().compiled_terms, one_job);
        assert_eq!(pool.stats().sessions, 1);
    }

    #[test]
    fn end_job_retires_on_age_and_a_larger_job_raises_the_bound() {
        let mut pool = Worker::new(0, None);
        let vcs = distinct_vcs(0, 4);
        // nothing new is ever compiled, so only the solver's age can retire
        let mut jobs = 0;
        while run(&mut pool, &vcs) == 0 {
            jobs += 1;
            assert!(jobs <= RETIRE_AT_JOB_CHECKS, "age must retire the session");
        }
        assert_eq!(jobs, RETIRE_AT_JOB_CHECKS);
        assert_eq!(pool.stats().retirements, 1);
        // a job ten times the size is the new yardstick: the pool now holds
        // far more than three of the old jobs' terms, and keeps them
        assert_eq!(run(&mut pool, &distinct_vcs(100, 40)), 0);
        assert_eq!(run(&mut pool, &vcs), 0);
        assert_eq!(pool.stats().retirements, 1);
        // a pool that is never told of jobs never retires
        let mut scoped = Worker::new(0, None);
        for vc in distinct_vcs(0, 50) {
            assert!(scoped.open(&CancelToken::new()).check(&vc).unwrap().is_valid());
        }
        assert_eq!(scoped.stats().retirements, 0);
        // nor does one whose first job is its only one (a one-shot check)
        assert_eq!(scoped.end_job(), 0);
        assert_eq!(scoped.stats().sessions, 1);
    }

    /// Hop-count routes on a hand-built digraph: `x`, `y` and `z` each hear
    /// two sources, one that always has a route (interface `A`) and one that
    /// never has (`B`). `x` hears them as [A, B]; so does `y`, from sources
    /// whose names sort the other way round; `z` hears [B, A]. All three
    /// claim never to hold a route, which fails their inductive conditions.
    fn two_neighbour_instance() -> (Arc<Instance>, [NodeId; 3]) {
        use timepiece_algebra::policy::{MergeKey, RoutePolicy, RouteSchema};
        let mut g = timepiece_topology::Topology::new();
        let [p0, p1, p2, p3, p4, p5, x, y, z] =
            ["p0", "p1", "p2", "p3", "p4", "p5", "x", "y", "z"].map(|name| g.add_node(name));
        for (u, v) in [(p0, x), (p1, x), (p3, y), (p2, y), (p4, z), (p5, z)] {
            g.add_edge(u, v);
        }
        let schema = RouteSchema::new(
            "Hop",
            [("len".to_owned(), Type::Int)],
            [MergeKey::Lower("len".into())],
        );
        let origin = Expr::record(schema.record_def(), vec![Expr::int(0)]).some();
        let always = [p0, p3, p5];
        let mut builder = NetworkBuilder::from_schema(g, schema)
            .default_policy(RoutePolicy::new().increment("len"));
        for v in always {
            builder = builder.init(v, origin.clone());
        }
        let network = builder.build().unwrap();
        let interface = NodeAnnotations::from_fn(network.topology(), |v| {
            if always.contains(&v) {
                Temporal::globally(|r| r.clone().is_some())
            } else {
                Temporal::globally(|r| r.clone().is_none())
            }
        });
        let property = anything(&network);
        (Arc::new(Instance { network, interface, property }), [x, y, z])
    }

    /// Does `failure`'s counterexample falsify its node's *own* condition:
    /// every assumption true, the goal false?
    fn falsifies_its_own_condition(instance: &Instance, failure: &Failure) -> bool {
        let Instance { network, interface, property } = instance;
        let conditions = crate::vc::node_conditions(network, interface, property, 0, failure.node);
        let vc = &conditions[VcKind::ALL.iter().position(|k| *k == failure.vc).unwrap()];
        let env = failure.counterexample().expect("a counterexample");
        vc.assumptions().iter().all(|a| a.eval_bool(env) == Ok(true))
            && vc.goal().eval_bool(env) == Ok(false)
    }

    #[test]
    fn keys_are_positional_and_served_counterexamples_are_the_nodes_own() {
        use crate::incremental::node_fingerprint;
        let (instance, [x, y, z]) = two_neighbour_instance();
        let Instance { network, interface, property } = &*instance;
        let key = |v| node_fingerprint(network, interface, property, 0, v);
        // y's neighbours match x's by position, not by name: a renaming that
        // sorted them, or mapped both to one name, would key y apart from x
        assert_eq!(key(x), key(y));
        assert_ne!(key(x), key(z), "z hears the same interfaces the other way round");
        for mut engine in Engine::lifetimes(threads(2)) {
            let report = engine.check(network, interface, property).unwrap();
            // four keys: the A sources, the B sources, x and y, and z
            assert_eq!(report.memo(), MemoStats { proofs: 4, hits: 5 }, "{}", engine.name());
            // the memo changes nothing a memo-free check of each node finds
            let found: BTreeSet<(String, String)> =
                report.failures().iter().map(|f| (f.node_name.clone(), f.vc.to_string())).collect();
            let mut alone = BTreeSet::new();
            let checker = ModularChecker::new(CheckOptions::default());
            for v in network.topology().nodes() {
                let (failures, _) = checker.check_node(network, interface, property, v).unwrap();
                alone.extend(failures.iter().map(|f| (f.node_name.clone(), f.vc.to_string())));
            }
            assert_eq!(found, alone, "{}", engine.name());
            assert_eq!(
                found.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
                ["x", "y", "z"],
                "{}",
                engine.name()
            );
            // x or y was answered by the other's proof: whichever it was,
            // its counterexample speaks of its own neighbours and refutes
            // its own condition
            for f in report.failures() {
                assert!(falsifies_its_own_condition(&instance, f), "{f}");
                let g = network.topology();
                for &u in g.preds(f.node) {
                    let name = network.route_var_name(u);
                    assert!(f.counterexample().unwrap().get(&name).is_some(), "{f}");
                }
                assert_eq!(
                    f.counterexample().map(|_| ()).and(match &f.reason {
                        FailureReason::CounterExample(cex) => Some(cex.vc_name.clone()),
                        FailureReason::Unknown(_) => None,
                    }),
                    Some(format!("{}@{}", f.vc, f.node_name))
                );
            }
        }
    }

    #[test]
    fn served_counterexamples_name_the_nodes_own_condition() {
        // no node starts with the route, but every interface claims it has
        // it from time 0: the ring's three nodes share one key in key names,
        // and the counterexamples served from its one proof must still name
        // their own node's condition
        let net = NetworkBuilder::new(gen::ring(3), Type::Bool)
            .merge(|a, b| a.clone().or(b.clone()))
            .default_transfer(|_| Expr::bool(true))
            .build()
            .unwrap();
        let interface = NodeAnnotations::new(net.topology(), Temporal::globally(|r| r.clone()));
        for mut engine in Engine::lifetimes(threads(2)) {
            let report = engine.check(&net, &interface, &anything(&net)).unwrap();
            assert_eq!(report.memo(), MemoStats { proofs: 1, hits: 2 }, "{}", engine.name());
            assert_eq!(report.failures().len(), 3, "{}", engine.name());
            for f in report.failures() {
                assert_eq!(f.vc, VcKind::Initial, "{f}");
                let FailureReason::CounterExample(cex) = &f.reason else { panic!("{f}") };
                assert_eq!(cex.vc_name, format!("initial@{}", f.node_name), "{}", engine.name());
            }
        }
    }

    fn keyed(index: u32) -> Keyed {
        Keyed { node: NodeId::new(index), built: Duration::ZERO }
    }

    #[test]
    fn only_definite_proofs_are_stored_and_a_parked_node_then_proves_its_own() {
        let slot = Mutex::new(Slot::Open);
        assert!(matches!(Slot::claim(&slot, keyed(0)), Claim::Prove(n) if n.node.index() == 0));
        assert!(matches!(Slot::claim(&slot, keyed(1)), Claim::Parked));
        assert!(matches!(Slot::claim(&slot, keyed(2)), Claim::Parked));
        // node 0's proof came back unknown (or was abandoned): not stored,
        // and node 1, parked first, proves the key on its own
        assert!(matches!(Slot::settle(&slot, None), Settled::Next(n) if n.node.index() == 1));
        // meanwhile a newcomer is not served the unknown: it parks
        assert!(matches!(Slot::claim(&slot, keyed(3)), Claim::Parked));
        assert!(matches!(Slot::settle(&slot, None), Settled::Next(n) if n.node.index() == 2));
        // a definite proof is stored and answers whoever is still parked
        match Slot::settle(&slot, Some(Proof::new())) {
            Settled::Stored(proof, parked) => {
                assert!(proof.is_empty());
                assert_eq!(parked.iter().map(|n| n.node.index()).collect::<Vec<_>>(), [3]);
            }
            _ => panic!("a definite proof must be stored"),
        }
        assert!(matches!(Slot::claim(&slot, keyed(4)), Claim::Proved(..)));
        // with nobody parked, a proof that is not definite reopens the key
        let slot = Mutex::new(Slot::Open);
        assert!(matches!(Slot::claim(&slot, keyed(0)), Claim::Prove(_)));
        assert!(matches!(Slot::settle(&slot, None), Settled::Open));
        assert!(matches!(Slot::claim(&slot, keyed(1)), Claim::Prove(_)));
    }

    /// "Nine pigeons do not fit in eight holes": valid, and far too hard to
    /// prove within a millisecond.
    fn pigeonhole() -> Expr {
        let sits = |p: usize, h: usize| Expr::var(format!("sits-{p}-{h}"), Type::Bool);
        let placed = (0..9).map(|p| Expr::or_all((0..8).map(|h| sits(p, h))));
        let alone = (0..8).flat_map(|h| {
            (0..9).flat_map(move |p| (p + 1..9).map(move |q| sits(p, h).and(sits(q, h)).not()))
        });
        Expr::and_all(placed.chain(alone)).not()
    }

    #[test]
    fn no_memo_hit_carries_an_unknown() {
        // a ring of alike nodes shares one key, and a budget far too small
        // for its safety condition makes every proof come back unknown:
        // each node must then have been proved on its own — an unknown is
        // never stored, so never served
        let net = reach_net(12);
        let interface = anything(&net);
        let property = NodeAnnotations::new(net.topology(), Temporal::globally(|_| pigeonhole()));
        let options = CheckOptions { timeout: Some(Duration::from_nanos(1)), ..threads(2) };
        for mut engine in Engine::lifetimes(options) {
            let report = engine.check(&net, &interface, &property).unwrap();
            let unknown: BTreeSet<NodeId> = report
                .failures()
                .iter()
                .filter(|f| matches!(f.reason, FailureReason::Unknown(_)))
                .map(|f| f.node)
                .collect();
            let memo = report.memo();
            assert_eq!(memo.proofs + memo.hits, 12, "{}", engine.name());
            assert!(!unknown.is_empty(), "{}: the budget must run out", engine.name());
            assert!(unknown.len() <= memo.proofs, "{}: {memo:?}, {unknown:?}", engine.name());
        }
    }

    #[test]
    fn a_seeded_job_proves_only_what_no_record_holds_definitely() {
        let net = reach_net(6);
        let instance = shared(&net, &reach_interface(&net), &anything(&net));
        let all: Vec<NodeId> = net.topology().nodes().collect();
        let mut pool = CheckerPool::new(2, CheckOptions::default());
        let fresh = CancelToken::new;
        let (first, records) =
            pool.check_seeded(&instance, &all, &Records::new(), &fresh()).unwrap();
        assert!(first.memo().proofs > 0);
        assert!(records.len() == 6 && records.values().all(Record::is_verified));
        // every key is held with its proof: nothing is proved again
        let (again, same) = pool.check_seeded(&instance, &all, &records, &fresh()).unwrap();
        assert_eq!(again.memo(), MemoStats { proofs: 0, hits: 6 });
        assert!(all.iter().all(|v| same[v].key() == records[v].key()));
        // nodes a cancelled job abandoned keep no record; the others keep theirs
        let token = fresh();
        token.cancel();
        let (none, left) = pool.check_seeded(&instance, &all[..2], &records, &token).unwrap();
        assert!(none.node_durations().is_empty());
        assert_eq!(left.keys().copied().collect::<Vec<_>>(), all[2..]);

        // a record left by an unknown seeds nothing: its node is proved again
        let property = NodeAnnotations::new(net.topology(), Temporal::globally(|_| pigeonhole()));
        let instance = shared(&net, &anything(&net), &property);
        let options = CheckOptions { timeout: Some(Duration::from_nanos(1)), ..threads(2) };
        let mut pool = CheckerPool::new(2, options);
        let (_, records) = pool.check_seeded(&instance, &all, &Records::new(), &fresh()).unwrap();
        let (definite, unknown): (Vec<&Record>, Vec<&Record>) =
            records.values().partition(|record| record.is_definite());
        assert!(!unknown.is_empty(), "the budget must run out");
        let memo = Memo::from(&records);
        let seeded = memo.slots.read().unwrap();
        assert!(definite.iter().all(|record| seeded.contains_key(record.key())));
        for record in unknown {
            let proved = definite.iter().any(|d| d.key() == record.key());
            assert_eq!(seeded.contains_key(record.key()), proved);
        }
    }

    #[test]
    fn more_workers_than_nodes_wakes_only_as_many_as_there_are_nodes() {
        let mut pool = CheckerPool::new(8, CheckOptions::default());
        let net = reach_net(2);
        let report = pool.check(&shared(&net, &reach_interface(&net), &anything(&net))).unwrap();
        assert!(report.is_verified());
        assert_eq!(report.node_durations().len(), 2);
        assert_eq!(report.scheduler().unwrap().workers, 2);
    }
}
