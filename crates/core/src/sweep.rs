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
//! * **Which session.** A job's conditions can clash inside one encoder on
//!   exactly one thing, a variable's *(name, type)*, and
//!   [`timepiece_algebra::Network::encoder_signature`] names exactly that.
//!   A worker keeps the session while jobs carry its signature and replaces
//!   it, once, at the start of the first job that carries another.
//! * **What a thief keeps.** Stealing must not copy the instance into every
//!   worker: a thief forgets the terms of a node it stole as soon as it has
//!   checked it ([`SolverSession::scratch`]), so the workers together keep
//!   one compiled copy — each its own nodes.
//! * **When it is dropped.** A condition that fails to encode may already
//!   have declared variables at types the next one contradicts, so an
//!   encode error drops the session. And under a daemon's stream of edits an
//!   encoder cache fills with the terms of instances long edited away, and a
//!   solver keeps a residue per check: every job therefore ends by retiring
//!   a session that has outgrown the jobs it serves (`RETIRE_AT_JOB_TERMS`,
//!   `RETIRE_AT_JOB_CHECKS`); the next job rebuilds it cold.
//!
//! [`CheckerPool::session_stats`] reports the sizes and the retirement
//! count.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use timepiece_sched::{CancelToken, Job, Pool, PoolError};
use timepiece_smt::{SolverSession, TermCacheStats};
use timepiece_topology::NodeId;

use crate::check::{check_node_in_session, CheckOptions, CheckReport, Failure};
use crate::error::CoreError;
use crate::instance::Instance;

/// A worker's session is retired once its encoder cache holds this many
/// times the compiled terms the largest single job added. One compiled copy
/// of the instance per worker is the floor (an edited network keeps its
/// declarations, hence its session); the rest of the budget is room for the
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
    /// compiled-term cache) and the signature it was opened for. It lives
    /// across jobs until a job brings another signature, an encode error
    /// drops it, or [`Worker::end_job`] retires it.
    held: Option<(String, SolverSession)>,
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

    /// The session for conditions that declare `signature`: the held one if
    /// it was opened for the same signature, else a fresh one replacing it.
    fn open(&mut self, signature: &str) -> &mut SolverSession {
        if self.held.as_ref().is_none_or(|(held, _)| held != signature) {
            self.held = Some((signature.to_owned(), SolverSession::new(self.timeout)));
            self.job_mark = (0, 0);
        }
        let (_, session) = self.held.as_mut().expect("held or just opened");
        session
    }

    /// The session's compiled terms and checks.
    fn totals(&self) -> (usize, u64) {
        self.held.as_ref().map_or((0, 0), |(_, s)| (s.compiled_terms(), s.checks()))
    }

    fn term_cache_stats(&self) -> TermCacheStats {
        self.held.as_ref().map(|(_, s)| s.term_cache_stats()).unwrap_or_default()
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
/// never copied) and how to check a node of it.
struct CheckJob {
    instance: Arc<Instance>,
    signature: String,
    options: CheckOptions,
    workers: usize,
    tally: Arc<Mutex<Tally>>,
}

impl Job for CheckJob {
    type State = Worker;
    type Task = NodeId;
    type Output = (NodeId, Vec<Failure>, Duration);
    type Error = CoreError;

    /// A node is at home on the same worker in every job — a full check or
    /// the cone of an edit — so it meets the terms that worker compiled for
    /// it last time.
    fn home(&self, _index: usize, v: &NodeId) -> usize {
        v.index()
    }

    fn begin(&self, worker: &mut Worker, token: &CancelToken) {
        let session = worker.open(&self.signature);
        // the job's token must reach this worker's in-flight solver calls:
        // hooks are per token (jobs come with fresh tokens), so the handle
        // is registered anew for every job — on an already-raised token the
        // hook fires immediately and the worker never starts a check
        let handle = session.interrupt_handle();
        token.on_cancel(move || handle.interrupt());
        worker.job_start = worker.term_cache_stats();
    }

    fn run(
        &self,
        worker: &mut Worker,
        v: NodeId,
        token: &CancelToken,
    ) -> Result<Option<Self::Output>, CoreError> {
        let Instance { network, interface, property } = &*self.instance;
        let check = |session: &mut SolverSession| {
            check_node_in_session(
                session,
                token.flag(),
                network,
                interface,
                property,
                self.options.delay,
                v,
            )
        };
        // `begin` opened it, and only an error drops it — after which the
        // pool runs nothing more on this worker in this job
        let (_, session) = worker.held.as_mut().expect("the job's session is open");
        let checked = if v.index() % self.workers == worker.index {
            check(session)
        } else {
            // a stolen node leaves nothing behind: stealing re-balances a
            // job's time, and what a worker keeps — however often that
            // happens, however many workers there are — is the compiled
            // terms of its own nodes
            session.scratch(check)
        };
        if checked.is_err() {
            // whatever the ill-typed condition declared must not outlive it
            worker.held = None;
        }
        let Some((failures, duration)) = checked? else { return Ok(None) };
        if self.options.fail_fast && !failures.is_empty() {
            token.cancel();
        }
        Ok(Some((v, failures, duration)))
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
/// // the sessions built for k = 4 served k = 6 and k = 8 too: one schema,
/// // one declaration signature
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
    /// reusing the solver sessions previous checks opened when the network
    /// declares what theirs did.
    ///
    /// # Errors
    ///
    /// As [`CheckerPool::check_nodes`].
    pub fn check(&mut self, instance: &Arc<Instance>) -> Result<CheckReport, CoreError> {
        let nodes: Vec<NodeId> = instance.network.topology().nodes().collect();
        self.check_nodes(instance, &nodes, &CancelToken::new())
    }

    /// Checks a *subset* of nodes across the persistent workers — the
    /// incremental re-check path: a daemon that knows which nodes a delta
    /// dirtied re-verifies exactly those, through sessions still warm from
    /// the previous request. A job wakes no more workers than it has nodes.
    ///
    /// Raising `cancel` abandons unchecked nodes *and* interrupts in-flight
    /// solver calls (each worker registers its session's interrupt handle on
    /// the token, and the interrupts are re-delivered until every worker has
    /// wound down), so an external canceller — a daemon draining for
    /// shutdown — stops a long check promptly. Nodes abandoned that way
    /// report neither failures nor durations.
    ///
    /// # Errors
    ///
    /// The first [`CoreError`] raised by any worker (encoding failures; the
    /// other workers are cancelled), or [`CoreError::WorkerDied`] if a
    /// worker panicked. Solver counterexamples are *not* errors, they are
    /// reported as [`Failure`]s.
    pub fn check_nodes(
        &mut self,
        instance: &Arc<Instance>,
        nodes: &[NodeId],
        cancel: &CancelToken,
    ) -> Result<CheckReport, CoreError> {
        let start = Instant::now();
        self.tally.lock().expect("tally updates cannot panic").terms = TermCacheStats::default();
        let job = CheckJob {
            instance: Arc::clone(instance),
            signature: instance.network.encoder_signature(),
            options: self.options.clone(),
            workers: self.pool.workers(),
            tally: Arc::clone(&self.tally),
        };
        let outcome = self.pool.run(nodes.to_vec(), cancel, job).map_err(|e| match e {
            PoolError::Task(e) => e,
            PoolError::WorkerDied => CoreError::WorkerDied,
        })?;
        let mut node_durations = Vec::with_capacity(outcome.results.len());
        let mut failures = Vec::new();
        for (v, node_failures, duration) in outcome.results {
            node_durations.push((v, duration));
            failures.extend(node_failures);
        }
        node_durations.sort_by_key(|(v, _)| *v);
        failures.sort_by_key(|f| f.node);
        Ok(CheckReport {
            failures,
            node_durations,
            wall: start.elapsed(),
            sched: Some(outcome.stats),
            terms: Some(self.tally.lock().expect("tally updates cannot panic").terms),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::ModularChecker;
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
            let merged = CheckReport::merge([shard_a.clone(), shard_b.clone()]);
            assert!(merged.is_verified());
            // durations are re-sorted by node id across the shard boundary
            let order: Vec<NodeId> = merged.node_durations().iter().map(|(v, _)| *v).collect();
            assert_eq!(order, all, "{}", engine.name());
            // the merged wall is the slowest shard, not the sum
            assert_eq!(merged.wall(), shard_a.wall().max(shard_b.wall()));
            assert!(merged.scheduler().is_none(), "merged reports span schedulers");
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
        // v5's interface re-declares a neighbour's route variable at another
        // type: encoding v5's conditions is a hard error, not a failure
        let net = reach_net(8);
        let mut interface = reach_interface(&net);
        let v5 = net.topology().node_by_name("v5").unwrap();
        interface.set(
            v5,
            Temporal::globally(|r| {
                Expr::var("route-v4", Type::Int).ge(Expr::int(0)).and(r.clone())
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
        // the pool survives an error: nobody died, and the worker that hit
        // it dropped the session the ill-typed declaration had got into
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
        let t1 = first.term_cache().expect("pooled reports carry term stats");
        let t2 = second.term_cache().expect("pooled reports carry term stats");
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
    /// (hence a declaration signature) other than [`reach_net`]'s.
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
    fn alternating_signatures_keep_one_session_per_worker() {
        // a pool that alternates between two route types holds one session
        // per worker, not one per signature: the second network's job
        // replaces each worker's session instead of adding one beside it
        let mut pool = CheckerPool::new(2, CheckOptions::default());
        let (bool_net, int_net) = (reach_net(3), int_net(3));
        assert_ne!(bool_net.encoder_signature(), int_net.encoder_signature());
        let bool_instance = shared(&bool_net, &reach_interface(&bool_net), &anything(&bool_net));
        let int_instance = shared(&int_net, &anything(&int_net), &anything(&int_net));
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

    /// A condition that declares `x` at another type than [`vc_over_int_x`].
    fn vc_over_bool_x() -> Vc {
        Vc::new("bool", [], Expr::var("x", Type::Bool))
    }

    #[test]
    fn one_signature_reuses_the_workers_session() {
        let mut worker = Worker::new(0, None);
        assert_eq!(worker.stats().sessions, 0, "opened by the first job");
        for _ in 0..3 {
            assert!(worker.open("sig-a").check(&vc_over_int_x()).unwrap().is_valid());
        }
        assert_eq!(worker.open("sig-a").checks(), 3, "one session served all three");
        assert_eq!(worker.stats().sessions, 1);
    }

    #[test]
    fn another_signature_replaces_the_workers_session() {
        let mut worker = Worker::new(0, None);
        assert!(worker.open("sig-a").check(&vc_over_int_x()).unwrap().is_valid());
        // a fresh session with its own encoder, so a clashing redeclaration
        // of `x` is fine there
        assert!(worker.open("sig-b").check(&vc_over_bool_x()).is_ok());
        assert_eq!(worker.stats().sessions, 1, "replaced, not added");
        // and the first signature's session is gone: it comes back cold
        assert_eq!(worker.open("sig-a").checks(), 0);
    }

    #[test]
    fn a_session_dropped_after_a_clashing_declaration_is_rebuilt_without_it() {
        let mut worker = Worker::new(0, None);
        assert!(worker.open("sig-a").check(&vc_over_int_x()).unwrap().is_valid());
        assert!(worker.open("sig-a").check(&vc_over_bool_x()).is_err());
        // what an encode error does to the worker (`CheckJob::run`): the
        // failed check may have left its declaration behind
        worker.held = None;
        assert_eq!(worker.stats().sessions, 0);
        assert!(worker.open("sig-a").check(&vc_over_bool_x()).is_ok());
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
        let session = worker.open("sig");
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
            assert!(scoped.open("sig").check(&vc).unwrap().is_valid());
        }
        assert_eq!(scoped.stats().retirements, 0);
        // nor does one whose first job is its only one (a one-shot check)
        assert_eq!(scoped.end_job(), 0);
        assert_eq!(scoped.stats().sessions, 1);
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
