//! The modular checking procedure (Algorithm 1).
//!
//! For every node the three verification conditions are encoded and
//! discharged *independently* ([`ModularChecker::check_node`] is the whole
//! procedure for one node). Which worker runs which node, on which solver
//! session, is answered in one place — [`crate::sweep::CheckerPool`], the
//! checking engine, whose workers hold one session each — and
//! [`ModularChecker::check_nodes`] is that engine living for one call. The
//! engine proves each distinct condition once per call: nodes whose
//! conditions are one formula up to the names of their route variables are
//! answered by one proof ([`CheckReport::memo`] counts both kinds). The
//! report records per-node wall times so the paper's total/median/p99
//! figures can be reproduced.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use timepiece_algebra::Network;
use timepiece_expr::Env;
use timepiece_sched::{CancelToken, SchedStats};
use timepiece_smt::{SolverSession, TermCacheStats, Validity, Vc};
use timepiece_topology::NodeId;

use crate::error::CoreError;
use crate::incremental::refuse_reserved_names;
use crate::instance::Instance;
use crate::interface::NodeAnnotations;
use crate::stats::TimingStats;
use crate::sweep::CheckerPool;
use crate::vc::{node_conditions, VcKind};

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
    /// Has no effect: a checker worker holds at most one solver session
    /// (see [`crate::sweep`]), so there is nothing to bound. Nothing reads
    /// the field; it remains only so that callers which still set it compile.
    pub session_cap: Option<usize>,
}

impl CheckOptions {
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

/// How the nodes of a check got their verdicts: by a proof of their own
/// key, or as a memo hit — served by the proof of an equal key within the
/// same check, or by one the caller's records held (see [`crate::sweep`]).
/// `proofs + hits` is the number of nodes the check answered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Proof attempts: one per distinct key, plus one per node whose key's
    /// proof came back unknown or abandoned (those are never shared).
    pub proofs: usize,
    /// Nodes answered by a proof another node's check found.
    pub hits: usize,
}

impl std::ops::AddAssign for MemoStats {
    fn add_assign(&mut self, other: MemoStats) {
        self.proofs += other.proofs;
        self.hits += other.hits;
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
    pub(crate) memo: MemoStats,
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

    /// Per-node total check durations (all three conditions). A memo hit's
    /// duration is the time to build and key its conditions: it is answered
    /// without a solver call.
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
    /// the cross-row hit rate. `None` on merged reports that carry none.
    pub fn term_cache(&self) -> Option<TermCacheStats> {
        self.terms
    }

    /// How many of the answered nodes were proved and how many were memo
    /// hits.
    pub fn memo(&self) -> MemoStats {
        self.memo
    }

    /// Merges the reports of disjoint node subsets into one: failures and
    /// durations are concatenated (and re-sorted by node), the wall time is
    /// the maximum — as if the subsets ran concurrently. Memo counters sum,
    /// and so do the term-cache counters of the reports that carry them.
    pub fn merge(reports: impl IntoIterator<Item = CheckReport>) -> CheckReport {
        let mut merged = CheckReport {
            failures: Vec::new(),
            node_durations: Vec::new(),
            wall: Duration::ZERO,
            sched: None,
            terms: None,
            memo: MemoStats::default(),
        };
        for report in reports {
            merged.failures.extend(report.failures);
            merged.node_durations.extend(report.node_durations);
            merged.wall = merged.wall.max(report.wall);
            merged.memo += report.memo;
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
    /// The node's own conditions are proved, not its key's: no memo is
    /// consulted.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ReservedName`] if an annotation the node's
    /// conditions apply writes a route name the checker binds, as a pooled
    /// check does, and [`CoreError::Smt`] if a condition cannot be encoded
    /// (ill-typed network or interface).
    pub fn check_node(
        &self,
        net: &Network,
        interface: &NodeAnnotations,
        property: &NodeAnnotations,
        v: NodeId,
    ) -> Result<(Vec<Failure>, Duration), CoreError> {
        let mut session = SolverSession::new(self.options.timeout);
        let start = Instant::now();
        let g = net.topology();
        let mut node_span = timepiece_trace::span(timepiece_trace::Phase::Node, g.name(v));
        node_span.arg("class", g.node_class(v));
        node_span.arg("memo", "proof");
        refuse_reserved_names(net, interface, property, v)?;
        let conditions = node_conditions(net, interface, property, self.options.delay, v);
        let never = AtomicBool::new(false);
        let results = discharge(&mut session, &never, &conditions)?
            .expect("a check without a canceller runs to completion");
        let failures: Vec<Failure> = failed(results)
            .map(|(kind, reason)| Failure {
                node: v,
                node_name: g.name(v).to_owned(),
                vc: kind,
                reason,
            })
            .collect();
        node_span.arg("verdict", if failures.is_empty() { "verified" } else { "failed" });
        Ok((failures, start.elapsed()))
    }

    /// Checks every node, in parallel, and aggregates a report.
    ///
    /// # Errors
    ///
    /// Returns the first [`CoreError`] raised by any worker (an annotation
    /// writing a name the checker binds, encoding failures); solver
    /// counterexamples are *not* errors, they are reported as [`Failure`]s.
    pub fn check(
        &self,
        net: &Network,
        interface: &NodeAnnotations,
        property: &NodeAnnotations,
    ) -> Result<CheckReport, CoreError> {
        let nodes: Vec<NodeId> = net.topology().nodes().collect();
        self.check_nodes(net, interface, property, &nodes)
    }

    /// Checks a subset of nodes in parallel, and aggregates a report over
    /// exactly those nodes.
    ///
    /// The parts of a partition of the nodes, each checked this way, merge
    /// ([`CheckReport::merge`]) into a report over the whole network.
    ///
    /// The call is a [`CheckerPool`] that lives for one job: the same
    /// work-stealing workers, solver sessions, per-job verdict memo,
    /// fail-fast cancellation and report as a pool kept across checks, minus
    /// the warm start. It is the
    /// one place that copies an instance: once per call, into the [`Arc`]
    /// every worker reads.
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
        let instance = Arc::new(Instance {
            network: net.clone(),
            interface: interface.clone(),
            property: property.clone(),
        });
        CheckerPool::new(workers, self.options.clone()).check_nodes(
            &instance,
            nodes,
            &CancelToken::new(),
        )
    }
}

/// The conditions among three results, in [`VcKind::ALL`] order, that did
/// not hold, and why.
pub(crate) fn failed(results: [Validity; 3]) -> impl Iterator<Item = (VcKind, FailureReason)> {
    VcKind::ALL.into_iter().zip(results).filter_map(|(kind, result)| match result {
        Validity::Valid => None,
        Validity::Invalid(cex) => Some((kind, FailureReason::CounterExample(cex))),
        Validity::Unknown(why) => Some((kind, FailureReason::Unknown(why))),
    })
}

/// Discharges three conditions through one session, in [`VcKind::ALL`]
/// order: one solver via push/pop, sharing variable declarations and the
/// compiled-term cache across them. The cancellation flag is consulted
/// between scopes, so a fail-fast stop lands within one condition, not one
/// node; `None` means it did, and the results are abandoned.
///
/// # Errors
///
/// [`CoreError::Smt`] if a condition cannot be encoded.
pub(crate) fn discharge(
    session: &mut SolverSession,
    cancel: &AtomicBool,
    conditions: &[Vc; 3],
) -> Result<Option<[Validity; 3]>, CoreError> {
    let mut results = Vec::with_capacity(3);
    for vc in conditions {
        match session.check_cancellable(vc, cancel)? {
            Some(result) => results.push(result),
            None => return Ok(None),
        }
    }
    Ok(Some(results.try_into().expect("one result per condition")))
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
