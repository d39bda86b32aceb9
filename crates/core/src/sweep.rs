//! A persistent checker pool: solver sessions that survive across checks.
//!
//! The scoped scheduler of [`crate::check::ModularChecker::check`] spawns
//! fresh worker threads per call, so every sweep row (every `(bench, k)`
//! pair) rebuilds its Z3 contexts, declarations and compiled-term caches
//! from nothing. A [`CheckerPool`] instead keeps `n` worker threads alive
//! for its whole lifetime; each worker owns one
//! [`timepiece_smt::SessionPool`] keyed by
//! [`timepiece_algebra::Network::encoder_signature`], so a `repro fig14
//! --ks 4,6,8` sweep reuses solver sessions (and the terms already compiled
//! into them) across rows of the same benchmark family.
//!
//! Work distribution is deterministic: nodes are striped across workers by
//! name-stem class ([`timepiece_sched::ShardPlan::by_class`]), the same
//! balancing rule multi-process sharding uses. There is no work stealing —
//! the pool trades a little intra-row balance for cross-row cache reuse;
//! the scoped scheduler remains the right tool for one-shot checks.
//!
//! Sessions that live this long need a bound: under a daemon's stream of
//! edits an encoder cache fills with the terms of instances long edited
//! away, and a solver keeps a residue per check. Each worker therefore ends
//! every job with [`timepiece_smt::SessionPool::end_job`], which retires a
//! session that has outgrown the jobs it serves; the next job rebuilds it
//! cold. [`CheckerPool::session_stats`] reports the sizes and the
//! retirement count.

use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use timepiece_algebra::Network;
use timepiece_sched::{CancelToken, ShardPlan};
use timepiece_smt::{SessionPool, SessionPoolStats, TermCacheStats};
use timepiece_topology::NodeId;

use crate::check::{CheckOptions, CheckReport, Failure, ModularChecker};
use crate::error::CoreError;
use crate::interface::NodeAnnotations;

/// The instance one `check_nodes` call verifies, copied once per call and
/// shared by every worker's job.
struct Instance {
    net: Network,
    interface: NodeAnnotations,
    property: NodeAnnotations,
}

/// One unit of work sent to a persistent worker: check `nodes` of one
/// instance.
struct Job {
    instance: Arc<Instance>,
    nodes: Vec<NodeId>,
    /// Shared across every worker of one `check_nodes` call: raised on the
    /// first failure under [`CheckOptions::fail_fast`] *or* by an external
    /// canceller (e.g. a daemon draining for shutdown). Each worker
    /// registers its session's interrupt handle as a hook, so raising the
    /// token also aborts in-flight solver calls.
    cancel: CancelToken,
}

/// What a worker found in one job: failures, per-node durations, and the
/// job's term-cache traffic (whose hits include terms compiled by *earlier*
/// jobs into the worker's persistent sessions — the cross-row reuse this
/// pool exists for).
type JobOutcome = Result<(Vec<Failure>, Vec<(NodeId, Duration)>, TermCacheStats), CoreError>;

/// What a worker sends back per job: the outcome, and the size of its
/// session pool once the job has ended (retirements included).
type JobResult = (JobOutcome, SessionPoolStats);

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
    workers: Vec<Worker>,
    options: CheckOptions,
}

#[derive(Debug)]
struct Worker {
    tx: mpsc::Sender<Job>,
    rx: mpsc::Receiver<JobResult>,
    handle: Option<JoinHandle<()>>,
    /// The worker's session pool as of its last finished job.
    sessions: SessionPoolStats,
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
        let workers = (0..workers)
            .map(|i| {
                let (job_tx, job_rx) = mpsc::channel::<Job>();
                let (result_tx, result_rx) = mpsc::channel::<JobResult>();
                let options = options.clone();
                let handle = std::thread::spawn(move || {
                    timepiece_trace::set_thread_label(format!("pool-worker{i}"));
                    // the sessions (and their Z3 contexts, declarations and
                    // compiled-term caches) live exactly as long as this
                    // thread: across every job the pool ever runs
                    let mut sessions = options.session_pool();
                    let fail_fast = options.fail_fast;
                    let checker = ModularChecker::new(options);
                    while let Ok(job) = job_rx.recv() {
                        let outcome = run_job(&checker, &mut sessions, fail_fast, &job);
                        // between jobs nothing holds a session: the one
                        // point where an overgrown one can be dropped whole
                        sessions.end_job();
                        if result_tx.send((outcome, sessions.stats())).is_err() {
                            break;
                        }
                    }
                });
                let sessions = SessionPoolStats::default();
                Worker { tx: job_tx, rx: result_rx, handle: Some(handle), sessions }
            })
            .collect();
        CheckerPool { workers, options }
    }

    /// The pool with one worker per available core.
    pub fn with_default_parallelism(options: CheckOptions) -> CheckerPool {
        let workers = options
            .threads
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
            .max(1);
        CheckerPool::new(workers, options)
    }

    /// How many persistent workers the pool runs.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The options the pool was built with.
    pub fn options(&self) -> &CheckOptions {
        &self.options
    }

    /// The workers' solver-session pools, summed, as of each worker's last
    /// finished job: live sessions, the compiled terms they hold, and how
    /// many sessions were retired for outgrowing their jobs. Deterministic
    /// for a given request sequence — the memory signal tests can assert on.
    pub fn session_stats(&self) -> SessionPoolStats {
        self.workers.iter().fold(SessionPoolStats::default(), |sum, w| sum + w.sessions)
    }

    /// Checks every node of a network across the persistent workers,
    /// reusing any solver sessions previous checks already opened.
    ///
    /// # Errors
    ///
    /// The first [`CoreError`] raised by any worker, as
    /// [`crate::check::ModularChecker::check`].
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
    /// the previous request.
    ///
    /// Raising `cancel` abandons unchecked nodes *and* interrupts in-flight
    /// solver calls (each worker registers its session's interrupt handle on
    /// the token), so an external canceller — a daemon draining for
    /// shutdown — stops a long check promptly. Nodes abandoned that way
    /// report neither failures nor durations.
    ///
    /// # Errors
    ///
    /// As [`CheckerPool::check`].
    pub fn check_nodes(
        &mut self,
        net: &Network,
        interface: &NodeAnnotations,
        property: &NodeAnnotations,
        nodes: &[NodeId],
        cancel: &CancelToken,
    ) -> Result<CheckReport, CoreError> {
        let start = Instant::now();
        let g = net.topology();
        // deterministic class striping, as in multi-process sharding: every
        // worker gets the same mix of cheap and expensive node classes
        let plan =
            ShardPlan::by_class(nodes.to_vec(), self.workers.len(), |v| g.node_class(v).to_owned());
        let instance = Arc::new(Instance {
            net: net.clone(),
            interface: interface.clone(),
            property: property.clone(),
        });
        let mut active = Vec::new();
        for (i, worker) in self.workers.iter().enumerate() {
            let assigned = plan.nodes_of(i);
            if assigned.is_empty() {
                continue;
            }
            let sent = worker.tx.send(Job {
                instance: Arc::clone(&instance),
                nodes: assigned.to_vec(),
                cancel: cancel.clone(),
            });
            if sent.is_err() {
                // a worker that panicked in an earlier check closed its
                // channel; report it as an error rather than a cascade of
                // unrelated panics (still drain the workers already fed)
                active.push((i, false));
                continue;
            }
            active.push((i, true));
        }
        let mut failures = Vec::new();
        let mut node_durations = Vec::new();
        let mut terms = TermCacheStats::default();
        let mut first_error = None;
        for (i, fed) in active {
            if !fed {
                first_error.get_or_insert(CoreError::WorkerDied);
                continue;
            }
            let worker = &mut self.workers[i];
            match worker.rx.recv() {
                Ok((outcome, sessions)) => {
                    worker.sessions = sessions;
                    match outcome {
                        Ok((fs, ds, ts)) => {
                            failures.extend(fs);
                            node_durations.extend(ds);
                            terms += ts;
                        }
                        Err(e) => {
                            first_error.get_or_insert(e);
                        }
                    }
                }
                // the worker panicked mid-job and dropped its result channel
                Err(_) => {
                    first_error.get_or_insert(CoreError::WorkerDied);
                }
            }
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        Ok(CheckReport::from_parts(failures, node_durations, start.elapsed(), Some(terms)))
    }
}

fn run_job(
    checker: &ModularChecker,
    sessions: &mut SessionPool,
    fail_fast: bool,
    job: &Job,
) -> JobOutcome {
    let Instance { net, interface, property } = &*job.instance;
    let signature = net.encoder_signature();
    let before = sessions.term_cache_stats();
    {
        // the job's token must reach this worker's in-flight solver calls:
        // hooks are per-token (jobs come with fresh tokens), so the handle
        // is registered anew for every job — on an already-raised token the
        // hook fires immediately and the loop below never starts a check
        let session = sessions.session(&signature);
        let handle = session.interrupt_handle();
        job.cancel.on_cancel(move || handle.interrupt());
    }
    let mut failures = Vec::new();
    let mut durations = Vec::new();
    for &v in &job.nodes {
        if job.cancel.is_cancelled() {
            break;
        }
        let session = sessions.session(&signature);
        let Some((node_failures, duration)) = checker.check_node_in_session(
            session,
            job.cancel.flag(),
            net,
            interface,
            property,
            v,
        )?
        else {
            // the cancel flag rose mid-node: abandoned, like the scoped pool
            break;
        };
        if fail_fast && !node_failures.is_empty() {
            job.cancel.cancel();
        }
        failures.extend(node_failures);
        durations.push((v, duration));
    }
    Ok((failures, durations, sessions.term_cache_stats().delta_since(&before)))
}

impl Drop for CheckerPool {
    fn drop(&mut self) {
        for worker in &mut self.workers {
            // closing the job channel ends the worker's recv loop
            let (dead_tx, _) = mpsc::channel();
            drop(std::mem::replace(&mut worker.tx, dead_tx));
            if let Some(handle) = worker.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temporal::Temporal;
    use timepiece_algebra::NetworkBuilder;
    use timepiece_expr::{Expr, Type};
    use timepiece_topology::gen;

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

    #[test]
    fn pool_agrees_with_the_scoped_checker_across_rows() {
        let mut pool = CheckerPool::new(3, CheckOptions::default());
        for n in [3usize, 5, 7] {
            let net = reach_net(n);
            let interface = reach_interface(&net);
            let property = NodeAnnotations::new(net.topology(), Temporal::any());
            let pooled = pool.check(&net, &interface, &property).unwrap();
            let scoped = ModularChecker::new(CheckOptions::default())
                .check(&net, &interface, &property)
                .unwrap();
            assert_eq!(pooled.is_verified(), scoped.is_verified(), "n={n}");
            assert_eq!(pooled.node_durations().len(), n, "every node checked once");
        }
    }

    #[test]
    fn pool_reports_failures_like_the_scoped_checker() {
        let mut pool = CheckerPool::new(2, CheckOptions::default());
        let net = reach_net(4);
        let mut interface = reach_interface(&net);
        let v2 = net.topology().node_by_name("v2").unwrap();
        interface
            .set(v2, Temporal::until_at(1, |r| r.clone().not(), Temporal::globally(|r| r.clone())));
        let property = NodeAnnotations::new(net.topology(), Temporal::any());
        let pooled = pool.check(&net, &interface, &property).unwrap();
        let scoped = ModularChecker::new(CheckOptions::default())
            .check(&net, &interface, &property)
            .unwrap();
        let names = |r: &CheckReport| -> Vec<String> {
            r.failures().iter().map(|f| f.node_name.clone()).collect()
        };
        assert_eq!(names(&pooled), names(&scoped));
        assert!(!pooled.is_verified());
    }

    #[test]
    fn fail_fast_stops_pool_wide() {
        // every node fails; with fail_fast the shared cancel flag keeps the
        // pool from checking all of them (matching the scoped checker)
        let mut pool = CheckerPool::new(2, CheckOptions { fail_fast: true, ..Default::default() });
        let net = reach_net(8);
        let interface =
            NodeAnnotations::new(net.topology(), Temporal::globally(|r| r.clone().not()));
        let property = NodeAnnotations::new(net.topology(), Temporal::any());
        let report = pool.check(&net, &interface, &property).unwrap();
        assert!(!report.is_verified());
        assert!(report.node_durations().len() < 8, "cancel must abandon nodes");
        // the pool is reusable after a cancelled job
        let good = reach_interface(&net);
        let report = pool.check(&net, &good, &property).unwrap();
        assert!(report.is_verified());
        assert_eq!(report.node_durations().len(), 8);
    }

    #[test]
    fn identical_rows_start_warm_from_the_cross_row_term_cache() {
        // with hash-consed intern ids, row 2's terms are the *same nodes* as
        // row 1's, so the persistent sessions serve them from cache: the
        // second structurally identical row must show hits and fewer misses
        let mut pool = CheckerPool::new(1, CheckOptions::default());
        let net = reach_net(5);
        let interface = reach_interface(&net);
        let property = NodeAnnotations::new(net.topology(), Temporal::any());
        let first = pool.check(&net, &interface, &property).unwrap();
        let second = pool.check(&net, &interface, &property).unwrap();
        let t1 = first.term_cache().expect("pooled reports carry term stats");
        let t2 = second.term_cache().expect("pooled reports carry term stats");
        assert!(t2.hits > 0, "row 2 saw no cache hits: {t2:?}");
        assert!(t2.misses < t1.misses, "row 2 must start warm from row 1: {t1:?} vs {t2:?}");
        assert!(t2.hit_rate() > t1.hit_rate());
    }

    #[test]
    fn check_nodes_covers_exactly_the_requested_subset() {
        let mut pool = CheckerPool::new(2, CheckOptions::default());
        let net = reach_net(6);
        let interface = reach_interface(&net);
        let property = NodeAnnotations::new(net.topology(), Temporal::any());
        let all: Vec<NodeId> = net.topology().nodes().collect();
        let subset = &all[1..4];
        let report =
            pool.check_nodes(&net, &interface, &property, subset, &CancelToken::new()).unwrap();
        assert!(report.is_verified());
        let checked: Vec<NodeId> = report.node_durations().iter().map(|(v, _)| *v).collect();
        assert_eq!(checked, subset, "exactly the requested nodes, in id order");
    }

    #[test]
    fn an_already_cancelled_token_checks_nothing() {
        // a daemon draining for shutdown raises its token before the job:
        // every node is abandoned, the pool stays reusable
        let mut pool = CheckerPool::new(2, CheckOptions::default());
        let net = reach_net(5);
        let interface = reach_interface(&net);
        let property = NodeAnnotations::new(net.topology(), Temporal::any());
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
        // one worker, cap 1: checking two structurally different networks
        // (distinct signatures) must evict rather than accumulate — smoke
        // for the daemon's bounded-session configuration
        let mut pool =
            CheckerPool::new(1, CheckOptions { session_cap: Some(1), ..Default::default() });
        let property_of = |net: &Network| NodeAnnotations::new(net.topology(), Temporal::any());
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
        let int_interface = NodeAnnotations::new(int_net.topology(), Temporal::any());
        for _ in 0..2 {
            assert!(pool
                .check(&bool_net, &bool_interface, &property_of(&bool_net))
                .unwrap()
                .is_verified());
            assert!(pool
                .check(&int_net, &int_interface, &property_of(&int_net))
                .unwrap()
                .is_verified());
        }
    }

    #[test]
    fn more_workers_than_nodes_is_fine() {
        let mut pool = CheckerPool::new(8, CheckOptions::default());
        let net = reach_net(2);
        let interface = reach_interface(&net);
        let property = NodeAnnotations::new(net.topology(), Temporal::any());
        let report = pool.check(&net, &interface, &property).unwrap();
        assert!(report.is_verified());
        assert_eq!(report.node_durations().len(), 2);
    }
}
