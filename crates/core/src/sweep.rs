//! The checking engine: one pool of work-stealing workers whose solver
//! sessions survive across checks.
//!
//! Algorithm 1 is one loop over independent per-node checks; this module is
//! the one place that decides which worker runs which node on which solver
//! session. A [`CheckerPool`] keeps `n` worker threads of a
//! [`timepiece_sched::Pool`] alive for its whole lifetime; each worker owns
//! one [`timepiece_smt::SessionPool`] keyed by
//! [`timepiece_algebra::Network::encoder_signature`], so a `repro fig14
//! --ks 4,6,8` sweep — or a daemon's stream of edits — reuses solver
//! sessions (and the terms already compiled into them) from one check to
//! the next. Every check is one job on the pool: each node is dealt to its
//! home worker (the same one in every job, so it meets its own compiled
//! terms) and the job is re-balanced by steal-half, the first hard error or
//! (under [`CheckOptions::fail_fast`]) the first failure cancels the job and
//! interrupts in-flight solver calls, and the report carries the job's
//! scheduler statistics. A one-shot check
//! ([`crate::check::ModularChecker::check_nodes`]) is this pool dropped
//! after its first job — the caller picks a lifetime, never an engine.
//!
//! Sessions that live this long need a bound. Stealing must not copy the
//! instance into every worker: a thief forgets the terms of a node it stole
//! as soon as it has checked it ([`SolverSession::scratch`]), so the workers
//! together keep one compiled copy — each its own nodes. And under a daemon's stream of edits an encoder
//! cache fills with the terms of instances long edited away, and a solver
//! keeps a residue per check: each worker therefore ends every job with
//! [`timepiece_smt::SessionPool::end_job`], which retires a session that
//! has outgrown the jobs it serves; the next job rebuilds it cold.
//! [`CheckerPool::session_stats`] reports the sizes and the retirement
//! count.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use timepiece_algebra::Network;
use timepiece_sched::{CancelToken, Job, Pool, PoolError};
use timepiece_smt::{SessionPool, SessionPoolStats, SolverSession, TermCacheStats};
use timepiece_topology::NodeId;

use crate::check::{check_node_in_session, CheckOptions, CheckReport, Failure};
use crate::error::CoreError;
use crate::interface::NodeAnnotations;

/// What a worker thread owns for the pool's life.
struct Worker {
    index: usize,
    /// The sessions (and their Z3 contexts, declarations and compiled-term
    /// caches) live exactly as long as the worker's thread: across every
    /// job the pool ever runs.
    sessions: SessionPool,
    /// The sessions' term-cache counters when the current job began.
    job_start: TermCacheStats,
}

/// What the workers report back beside per-node results.
#[derive(Debug, Default)]
struct Tally {
    /// Each worker's session pool as of its last finished job.
    sessions: Vec<SessionPoolStats>,
    /// The current job's term-cache traffic, summed over its workers. The
    /// hits include terms compiled by *earlier* jobs into the persistent
    /// sessions — the cross-row reuse a long-lived pool exists for.
    terms: TermCacheStats,
}

/// One `check_nodes` call: the instance (copied once per call, shared by
/// every worker) and how to check a node of it.
struct CheckJob {
    net: Network,
    interface: NodeAnnotations,
    property: NodeAnnotations,
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
        // the job's token must reach this worker's in-flight solver calls:
        // hooks are per token (jobs come with fresh tokens), so the handle
        // is registered anew for every job — on an already-raised token the
        // hook fires immediately and the worker never starts a check
        let handle = worker.sessions.session(&self.signature).interrupt_handle();
        token.on_cancel(move || handle.interrupt());
        worker.job_start = worker.sessions.term_cache_stats();
    }

    fn run(
        &self,
        worker: &mut Worker,
        v: NodeId,
        token: &CancelToken,
    ) -> Result<Option<Self::Output>, CoreError> {
        let check = |session: &mut SolverSession| {
            check_node_in_session(
                session,
                token.flag(),
                &self.net,
                &self.interface,
                &self.property,
                self.options.delay,
                v,
            )
        };
        let session = worker.sessions.session(&self.signature);
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
            worker.sessions.discard(&self.signature);
        }
        let Some((failures, duration)) = checked? else { return Ok(None) };
        if self.options.fail_fast && !failures.is_empty() {
            token.cancel();
        }
        Ok(Some((v, failures, duration)))
    }

    fn end(&self, worker: &mut Worker) {
        let terms = worker.sessions.term_cache_stats().delta_since(&worker.job_start);
        // between jobs nothing holds a session: the one point where an
        // overgrown one can be dropped whole
        worker.sessions.end_job();
        let mut tally = self.tally.lock().expect("tally updates cannot panic");
        tally.terms += terms;
        tally.sessions[worker.index] = worker.sessions.stats();
    }
}

/// A pool of persistent verification workers with long-lived solver
/// sessions. See the module docs.
///
/// # Example
///
/// ```no_run
/// use timepiece_core::check::CheckOptions;
/// use timepiece_core::sweep::CheckerPool;
/// # fn instance_at(_k: usize) -> (timepiece_algebra::Network,
/// #     timepiece_core::NodeAnnotations, timepiece_core::NodeAnnotations) { unimplemented!() }
///
/// let mut pool = CheckerPool::new(4, CheckOptions::default());
/// for k in [4, 6, 8] {
///     let (net, interface, property) = instance_at(k);
///     let report = pool.check(&net, &interface, &property).unwrap();
///     assert!(report.is_verified());
/// }
/// // sessions built for k = 4 served k = 6 and k = 8 too
/// ```
#[derive(Debug)]
pub struct CheckerPool {
    pool: Pool<CheckJob>,
    options: CheckOptions,
    tally: Arc<Mutex<Tally>>,
}

impl CheckerPool {
    /// Spawns `workers` persistent threads, each with its own solver-session
    /// pool bounded by `options.timeout`.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(workers: usize, options: CheckOptions) -> CheckerPool {
        assert!(workers > 0, "a checker pool needs at least one worker");
        let worker_options = options.clone();
        let pool = Pool::new(workers, move |index| Worker {
            index,
            sessions: worker_options.session_pool(),
            job_start: TermCacheStats::default(),
        });
        let tally =
            Tally { sessions: vec![SessionPoolStats::default(); workers], ..Tally::default() };
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

    /// The workers' solver-session pools, summed, as of each worker's last
    /// finished job: live sessions, the compiled terms they hold, and how
    /// many sessions were retired for outgrowing their jobs. Bounded by one
    /// copy of each worker's own nodes, but not repeatable for a given
    /// request sequence: a node stolen in one job is compiled at home in a
    /// later one.
    pub fn session_stats(&self) -> SessionPoolStats {
        let tally = self.tally.lock().expect("tally updates cannot panic");
        tally.sessions.iter().fold(SessionPoolStats::default(), |sum, &w| sum + w)
    }

    /// Checks every node of a network across the persistent workers,
    /// reusing any solver sessions previous checks already opened.
    ///
    /// # Errors
    ///
    /// As [`CheckerPool::check_nodes`].
    pub fn check(
        &mut self,
        net: &Network,
        interface: &NodeAnnotations,
        property: &NodeAnnotations,
    ) -> Result<CheckReport, CoreError> {
        let nodes: Vec<NodeId> = net.topology().nodes().collect();
        self.check_nodes(net, interface, property, &nodes, &CancelToken::new())
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
        net: &Network,
        interface: &NodeAnnotations,
        property: &NodeAnnotations,
        nodes: &[NodeId],
        cancel: &CancelToken,
    ) -> Result<CheckReport, CoreError> {
        let start = Instant::now();
        self.tally.lock().expect("tally updates cannot panic").terms = TermCacheStats::default();
        let job = CheckJob {
            net: net.clone(),
            interface: interface.clone(),
            property: property.clone(),
            signature: net.encoder_signature(),
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
    use crate::temporal::Temporal;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use timepiece_algebra::NetworkBuilder;
    use timepiece_expr::{Expr, Type};
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
            pool.check(&warm_up, &reach_interface(&warm_up), &anything(&warm_up)).unwrap();
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
                    pool.check_nodes(net, interface, property, nodes, &CancelToken::new())
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
                    alone
                        .check_nodes(&net, &interface, &property, &own, &CancelToken::new())
                        .unwrap();
                    alone.session_stats().compiled_terms
                })
                .sum();
            let mut pool = CheckerPool::new(workers, CheckOptions::default());
            let mut steals = 0;
            for _ in 0..3 {
                let report = pool.check(&net, &interface, &property).unwrap();
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
        let result = pool.check_nodes(&net, &interface, &property, &all, &token);
        assert!(matches!(result, Err(CoreError::Smt(_))), "{result:?}");
        assert!(token.is_cancelled(), "the error must stop the rest of the job");
        // one-shot: same error
        let result = ModularChecker::new(threads(2)).check(&net, &interface, &property);
        assert!(matches!(result, Err(CoreError::Smt(_))), "{result:?}");
        // the pool survives an error: nobody died, and the worker that hit
        // it dropped the session the ill-typed declaration had got into
        assert!(pool.check(&net, &reach_interface(&net), &property).unwrap().is_verified());
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
        let report = pool.check_nodes(&net, &interface, &property, &all, &token).unwrap();
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
        let (interface, property) = (reach_interface(&net), anything(&net));
        let first = pool.check(&net, &interface, &property).unwrap();
        let second = pool.check(&net, &interface, &property).unwrap();
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
        let (interface, property) = (reach_interface(&net), anything(&net));
        let all: Vec<NodeId> = net.topology().nodes().collect();
        let token = CancelToken::new();
        token.cancel();
        let report = pool.check_nodes(&net, &interface, &property, &all, &token).unwrap();
        assert_eq!(report.node_durations().len(), 0, "all nodes abandoned");
        assert!(report.is_verified(), "abandoned nodes report no failures");
        let report =
            pool.check_nodes(&net, &interface, &property, &all, &CancelToken::new()).unwrap();
        assert_eq!(report.node_durations().len(), 5, "fresh token, full check");
    }

    #[test]
    fn session_cap_bounds_worker_pools() {
        // one worker, cap 1: checking two networks of different route types
        // (distinct signatures) must evict rather than accumulate — smoke
        // for the daemon's bounded-session configuration
        let mut pool =
            CheckerPool::new(1, CheckOptions { session_cap: Some(1), ..Default::default() });
        let bool_net = reach_net(3);
        let int_net = {
            let g = gen::undirected_path(3);
            let v0 = g.node_by_name("v0").unwrap();
            NetworkBuilder::new(g, Type::option(Type::Int))
                .merge(|a, b| b.clone().is_none().ite(a.clone(), b.clone()))
                .default_transfer(|r| r.clone())
                .init(v0, Expr::int(0).some())
                .build()
                .unwrap()
        };
        let bool_interface = reach_interface(&bool_net);
        for _ in 0..2 {
            assert!(pool
                .check(&bool_net, &bool_interface, &anything(&bool_net))
                .unwrap()
                .is_verified());
            assert!(pool
                .check(&int_net, &anything(&int_net), &anything(&int_net))
                .unwrap()
                .is_verified());
            assert_eq!(pool.session_stats().sessions, 1, "the cap holds between jobs");
        }
    }

    #[test]
    fn more_workers_than_nodes_wakes_only_as_many_as_there_are_nodes() {
        let mut pool = CheckerPool::new(8, CheckOptions::default());
        let net = reach_net(2);
        let report = pool.check(&net, &reach_interface(&net), &anything(&net)).unwrap();
        assert!(report.is_verified());
        assert_eq!(report.node_durations().len(), 2);
        assert_eq!(report.scheduler().unwrap().workers, 2);
    }
}
