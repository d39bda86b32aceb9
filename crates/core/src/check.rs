//! The modular checking procedure (Algorithm 1).
//!
//! For every node the three verification conditions are encoded and
//! discharged *independently* ([`ModularChecker::check_node`] is the whole
//! procedure for one node). Which worker runs which node, on which solver
//! session, is answered in one place — [`crate::sweep::CheckerPool`], the
//! checking engine — and [`ModularChecker::check_nodes`] is that engine
//! living for one call. The report records per-node wall times so the
//! paper's total/median/p99 figures can be reproduced.

use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

use timepiece_algebra::Network;
use timepiece_expr::Env;
use timepiece_sched::{CancelToken, SchedStats};
use timepiece_smt::{SessionPool, SolverSession, TermCacheStats, Validity};
use timepiece_topology::NodeId;

use crate::error::CoreError;
use crate::interface::NodeAnnotations;
use crate::stats::TimingStats;
use crate::sweep::CheckerPool;
use crate::vc::{inductive_vc, initial_vc, safety_vc, VcKind};

/// Options controlling a modular check.
#[derive(Debug, Clone, Default)]
pub struct CheckOptions {
    /// Per-condition solver timeout (`None`: unbounded).
    pub timeout: Option<Duration>,
    /// Worker threads (`None`: all available parallelism).
    pub threads: Option<usize>,
    /// Units of message delay tolerated by the inductive condition (§4).
    pub delay: u64,
    /// Stop scheduling new nodes after the first failure.
    pub fail_fast: bool,
    /// Bound each worker's solver-session pool to this many sessions,
    /// evicting least-recently-used ones (`None`: unbounded). Sessions are
    /// keyed by declarations ([`Network::encoder_signature`]), so only a
    /// service that checks networks of many different route types or
    /// symbolic inputs ever holds more than one per worker.
    pub session_cap: Option<usize>,
}

impl CheckOptions {
    /// A session pool honoring [`CheckOptions::timeout`] and
    /// [`CheckOptions::session_cap`].
    pub(crate) fn session_pool(&self) -> SessionPool {
        match self.session_cap {
            Some(cap) => SessionPool::with_capacity(self.timeout, cap),
            None => SessionPool::new(self.timeout),
        }
    }

    /// [`CheckOptions::threads`], resolved against the machine.
    pub(crate) fn workers(&self) -> usize {
        self.threads
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
            .max(1)
    }
}

/// Why a node failed its check.
#[derive(Debug, Clone)]
pub enum FailureReason {
    /// The solver produced a falsifying assignment.
    CounterExample(Box<timepiece_smt::CounterExample>),
    /// The solver gave up (timeout/incompleteness).
    Unknown(String),
}

/// A failed condition at a node.
#[derive(Debug, Clone)]
pub struct Failure {
    /// The failing node.
    pub node: NodeId,
    /// Its name in the topology.
    pub node_name: String,
    /// Which condition failed.
    pub vc: VcKind,
    /// The counterexample or solver give-up reason.
    pub reason: FailureReason,
}

impl Failure {
    /// The falsifying assignment, when the solver produced one.
    pub fn counterexample(&self) -> Option<&Env> {
        match &self.reason {
            FailureReason::CounterExample(cex) => Some(&cex.assignment),
            FailureReason::Unknown(_) => None,
        }
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.reason {
            FailureReason::CounterExample(cex) => {
                write!(f, "{} condition failed at {}: {}", self.vc, self.node_name, cex)
            }
            FailureReason::Unknown(why) => {
                write!(f, "{} condition unknown at {}: {}", self.vc, self.node_name, why)
            }
        }
    }
}

/// The outcome of a modular check.
#[derive(Debug, Clone)]
pub struct CheckReport {
    pub(crate) failures: Vec<Failure>,
    pub(crate) node_durations: Vec<(NodeId, Duration)>,
    pub(crate) wall: Duration,
    pub(crate) sched: Option<SchedStats>,
    pub(crate) terms: Option<TermCacheStats>,
}

impl CheckReport {
    /// Did every condition at every node hold?
    pub fn is_verified(&self) -> bool {
        self.failures.is_empty()
    }

    /// All failures found (empty when verified).
    pub fn failures(&self) -> &[Failure] {
        &self.failures
    }

    /// Per-node total check durations (all three conditions).
    pub fn node_durations(&self) -> &[(NodeId, Duration)] {
        &self.node_durations
    }

    /// Statistics over per-node durations (median, p99, …).
    pub fn stats(&self) -> TimingStats {
        let durations: Vec<Duration> = self.node_durations.iter().map(|(_, d)| *d).collect();
        TimingStats::from_durations(&durations)
    }

    /// Wall-clock time of the whole (parallel) check.
    pub fn wall(&self) -> Duration {
        self.wall
    }

    /// Scheduler statistics (worker/steal counts) of the job that produced
    /// this report. `None` on merged reports.
    pub fn scheduler(&self) -> Option<&SchedStats> {
        self.sched.as_ref()
    }

    /// Compiled-term cache traffic attributable to this check, summed over
    /// the workers that ran it. On a pool's first check the counters start
    /// at zero (fresh sessions); on a later one the hits include terms first
    /// compiled by *earlier* checks through the same persistent sessions —
    /// the cross-row hit rate. `None` when the producer predates the
    /// counters (e.g. deserialized shard reports).
    pub fn term_cache(&self) -> Option<TermCacheStats> {
        self.terms
    }

    /// Merges shard reports into one: failures and durations are
    /// concatenated (and re-sorted by node), the wall time is the maximum —
    /// shards run concurrently, so the slowest one bounds the merged run.
    /// Term-cache counters sum over the shards that carry them.
    pub fn merge(reports: impl IntoIterator<Item = CheckReport>) -> CheckReport {
        let mut merged = CheckReport {
            failures: Vec::new(),
            node_durations: Vec::new(),
            wall: Duration::ZERO,
            sched: None,
            terms: None,
        };
        for report in reports {
            merged.failures.extend(report.failures);
            merged.node_durations.extend(report.node_durations);
            merged.wall = merged.wall.max(report.wall);
            if let Some(t) = report.terms {
                *merged.terms.get_or_insert_with(TermCacheStats::default) += t;
            }
        }
        merged.node_durations.sort_by_key(|(v, _)| *v);
        merged.failures.sort_by_key(|f| f.node);
        merged
    }
}

/// Runs the paper's `CheckMod` procedure over all nodes of a network.
#[derive(Debug, Default)]
pub struct ModularChecker {
    options: CheckOptions,
}

impl ModularChecker {
    /// Creates a checker with the given options.
    pub fn new(options: CheckOptions) -> ModularChecker {
        ModularChecker { options }
    }

    /// Checks the initial, inductive and safety conditions of a single node
    /// in a fresh solver session, returning its failures and the time spent.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Smt`] if a condition cannot be encoded (ill-typed
    /// network or interface).
    pub fn check_node(
        &self,
        net: &Network,
        interface: &NodeAnnotations,
        property: &NodeAnnotations,
        v: NodeId,
    ) -> Result<(Vec<Failure>, Duration), CoreError> {
        let mut session = SolverSession::new(self.options.timeout);
        let never = AtomicBool::new(false);
        let checked = check_node_in_session(
            &mut session,
            &never,
            net,
            interface,
            property,
            self.options.delay,
            v,
        );
        Ok(checked?.expect("a check without a canceller runs to completion"))
    }

    /// Checks every node, in parallel, and aggregates a report.
    ///
    /// # Errors
    ///
    /// Returns the first [`CoreError`] raised by any worker (encoding
    /// failures); solver counterexamples are *not* errors, they are reported
    /// as [`Failure`]s.
    pub fn check(
        &self,
        net: &Network,
        interface: &NodeAnnotations,
        property: &NodeAnnotations,
    ) -> Result<CheckReport, CoreError> {
        let nodes: Vec<NodeId> = net.topology().nodes().collect();
        self.check_nodes(net, interface, property, &nodes)
    }

    /// Checks a subset of nodes — one *shard* of the network — in parallel,
    /// and aggregates a report over exactly those nodes.
    ///
    /// The shards of a deterministic partition
    /// (`timepiece_sched::ShardPlan`), each checked this way, merge
    /// ([`CheckReport::merge`]) into a report over the whole network.
    ///
    /// The call is a [`CheckerPool`] that lives for one job: the same
    /// work-stealing workers, solver sessions, fail-fast cancellation and
    /// report as a pool kept across checks, minus the warm start.
    ///
    /// # Errors
    ///
    /// As [`ModularChecker::check`]; [`CoreError::WorkerDied`] if a worker
    /// panicked.
    pub fn check_nodes(
        &self,
        net: &Network,
        interface: &NodeAnnotations,
        property: &NodeAnnotations,
        nodes: &[NodeId],
    ) -> Result<CheckReport, CoreError> {
        let workers = self.options.workers().min(nodes.len().max(1));
        CheckerPool::new(workers, self.options.clone()).check_nodes(
            net,
            interface,
            property,
            nodes,
            &CancelToken::new(),
        )
    }
}

/// Discharges one node's three conditions through an existing session — the
/// batched path: the session (and its encoder cache) typically outlives many
/// nodes on one pool worker.
///
/// Returns `None` when `cancel` was raised and the node was abandoned
/// part-way; abandoned nodes report neither failures nor durations.
///
/// # Errors
///
/// As [`ModularChecker::check_node`].
pub(crate) fn check_node_in_session(
    session: &mut SolverSession,
    cancel: &AtomicBool,
    net: &Network,
    interface: &NodeAnnotations,
    property: &NodeAnnotations,
    delay: u64,
    v: NodeId,
) -> Result<Option<(Vec<Failure>, Duration)>, CoreError> {
    let start = Instant::now();
    let mut node_span = timepiece_trace::span(timepiece_trace::Phase::Node, net.topology().name(v));
    node_span.arg("class", net.topology().node_class(v));
    let conditions = [
        (VcKind::Initial, initial_vc(net, interface, v)),
        (VcKind::Inductive, inductive_vc(net, interface, v, delay)),
        (VcKind::Safety, safety_vc(net, interface, property, v)),
    ];
    // one solver discharges all three conditions via push/pop, sharing
    // variable declarations and the compiled-term cache across them; the
    // cancellation flag is consulted between scopes so a fail-fast stop
    // lands within one condition, not one node
    let mut failures = Vec::new();
    for (kind, vc) in conditions {
        let reason = match session.check_cancellable(&vc, cancel)? {
            None => {
                node_span.arg("verdict", "abandoned");
                return Ok(None);
            }
            Some(Validity::Valid) => continue,
            Some(Validity::Invalid(cex)) => FailureReason::CounterExample(cex),
            Some(Validity::Unknown(why)) => FailureReason::Unknown(why),
        };
        failures.push(Failure {
            node: v,
            node_name: net.topology().name(v).to_owned(),
            vc: kind,
            reason,
        });
    }
    node_span.arg("verdict", if failures.is_empty() { "verified" } else { "failed" });
    Ok(Some((failures, start.elapsed())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temporal::Temporal;
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

    #[test]
    fn verifies_correct_interfaces() {
        let net = reach_net(5);
        let interface = reach_interface(&net);
        let property = NodeAnnotations::from_fn(net.topology(), |v| {
            Temporal::finally_at(v.index() as u64, Temporal::globally(|r| r.clone()))
        });
        let report = ModularChecker::new(CheckOptions::default())
            .check(&net, &interface, &property)
            .unwrap();
        assert!(report.is_verified(), "failures: {:?}", report.failures());
        assert_eq!(report.node_durations().len(), 5);
        assert!(report.stats().count == 5);
        assert!(report.wall() > Duration::ZERO);
    }

    #[test]
    fn localizes_failures_to_the_buggy_node() {
        let net = reach_net(4);
        let mut interface = reach_interface(&net);
        // sabotage node v2's interface: claims the route arrives at t=1
        let v2 = net.topology().node_by_name("v2").unwrap();
        interface
            .set(v2, Temporal::until_at(1, |r| r.clone().not(), Temporal::globally(|r| r.clone())));
        let property = NodeAnnotations::new(net.topology(), Temporal::any());
        let report = ModularChecker::new(CheckOptions::default())
            .check(&net, &interface, &property)
            .unwrap();
        assert!(!report.is_verified());
        // failures only at v2 (its own conditions) and v3 (which assumed v2)
        let failing: std::collections::BTreeSet<&str> =
            report.failures().iter().map(|f| f.node_name.as_str()).collect();
        assert!(failing.contains("v2"));
        assert!(!failing.contains("v0"));
        assert!(!failing.contains("v1"));
        // every failure carries a decodable counterexample
        for f in report.failures() {
            assert!(f.counterexample().is_some(), "{f}");
        }
    }

    #[test]
    fn sharded_and_whole_checks_find_the_same_failures() {
        let net = reach_net(6);
        let mut interface = reach_interface(&net);
        let v3 = net.topology().node_by_name("v3").unwrap();
        interface
            .set(v3, Temporal::until_at(1, |r| r.clone().not(), Temporal::globally(|r| r.clone())));
        let property = NodeAnnotations::new(net.topology(), Temporal::any());
        let checker = ModularChecker::new(CheckOptions::default());
        let whole = checker.check(&net, &interface, &property).unwrap();
        let all: Vec<_> = net.topology().nodes().collect();
        let merged = CheckReport::merge(
            [&all[..1], &all[1..4], &all[4..]]
                .into_iter()
                .map(|shard| checker.check_nodes(&net, &interface, &property, shard).unwrap()),
        );
        let names = |r: &CheckReport| -> Vec<String> {
            r.failures().iter().map(|f| f.node_name.clone()).collect()
        };
        assert_eq!(names(&whole), names(&merged));
        assert!(!whole.is_verified());
    }

    #[test]
    fn scheduler_stats_expose_batched_workers() {
        let net = reach_net(6);
        let interface = reach_interface(&net);
        let property = NodeAnnotations::new(net.topology(), Temporal::any());
        let report = ModularChecker::new(CheckOptions { threads: Some(4), ..Default::default() })
            .check(&net, &interface, &property)
            .unwrap();
        let stats = report.scheduler().expect("fresh report carries stats");
        assert_eq!(stats.workers, 4);
        assert_eq!(stats.claimed.iter().sum::<usize>(), 6, "every node claimed exactly once");
        assert!(!stats.cancelled);
    }

    #[test]
    fn merge_of_nothing_is_verified_and_empty() {
        let merged = CheckReport::merge([]);
        assert!(merged.is_verified());
        assert_eq!(merged.wall(), Duration::ZERO);
        assert_eq!(merged.node_durations().len(), 0);
    }

    #[test]
    fn report_failure_display() {
        let net = reach_net(2);
        let interface =
            NodeAnnotations::new(net.topology(), Temporal::globally(|r| r.clone().not()));
        let property = NodeAnnotations::new(net.topology(), Temporal::any());
        let report = ModularChecker::new(CheckOptions::default())
            .check(&net, &interface, &property)
            .unwrap();
        let text = report.failures()[0].to_string();
        assert!(text.contains("condition failed at"));
    }
}
