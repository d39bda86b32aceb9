//! What a fleet row is made of: shard reports and their merge.
//!
//! Per-node conditions are independent, so beyond the in-process
//! work-stealing pool, whole *shards* of the node set move to `timepieced`
//! processes (each with its own Z3 heap and cache locality) — a loopback
//! fleet for `--shards N`, other hosts for `--workers`. [`crate::dist`] is
//! the coordinator; this module is what it reads back:
//!
//! 1. the coordinator picks `(bench, k, shards)` and stripes the node set
//!    by symmetry class ([`timepiece_sched::ShardPlan::by_class`]) — the one
//!    planner there is; what imbalance striping leaves, the coordinator's
//!    steal-half and the workers' pools absorb while the row runs;
//! 2. a worker is a daemon that was `load`ed the *same* instance; it checks
//!    exactly the nodes a `check{nodes}` request names and answers with the
//!    daemon's ordinary report reply, of which [`ShardReport`] is the typed
//!    view — the reply records the node list (`cone`), so any shard of any
//!    run can be replayed deterministically from its reply alone
//!    (`repro shard-worker --nodes …`);
//! 3. the coordinator ingests the reports through [`merge_reports`], which
//!    *proves coverage* — the assigned sets must partition the full node
//!    set, every assigned node must carry a check duration, and duplicate
//!    or mismatched reports produce a typed [`MergeError`] naming the
//!    offending worker — and merges them into one sweep row.
//!
//! A wrong partition therefore shows up as a hard, attributed ingestion
//! error, never as a silently skipped node.

use std::fmt;

use timepiece_core::MemoStats;
use timepiece_sched::Json;
use timepiece_smt::TermCacheStats;
use timepiece_topology::Topology;

use crate::runner::BenchKind;

/// One failure, reduced to what travels between processes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFailure {
    /// The failing node's name.
    pub node: String,
    /// The failing condition (`initial` / `inductive` / `safety`).
    pub vc: String,
    /// `counterexample` or `unknown` (timeout / solver give-up).
    pub kind: String,
}

/// What one worker verified for one shard: the typed view of a daemon's
/// reply to a node-list `check`.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// The label of the instance the daemon checked (e.g. `ApReach k=4`).
    pub label: String,
    /// The shard index the request carried.
    pub shard: usize,
    /// Names of the nodes the request named (the reply's `cone`).
    pub assigned: Vec<String>,
    /// Per-node check durations in seconds, one per assigned node.
    pub durations: Vec<(String, f64)>,
    /// Failures found in this shard (empty when verified).
    pub failures: Vec<ShardFailure>,
    /// The daemon's wall-clock time for the request.
    pub wall_secs: f64,
    /// The worker's compiled-term cache traffic for this shard.
    pub terms: TermCacheStats,
    /// How the shard's nodes got their verdicts: proofs and memo hits
    /// (zero from a daemon that predates the counters).
    pub memo: MemoStats,
    /// The worker's span trace, when the coordinator's `load` asked for
    /// one; the coordinator ingests it as its own pid-tagged process track.
    pub trace: Option<timepiece_trace::Trace>,
}

impl ShardReport {
    /// Reads a daemon's reply to a node-list `check` as a shard report.
    /// Fields the view does not need are ignored.
    ///
    /// # Errors
    ///
    /// Names the first missing or mistyped field.
    pub fn from_reply(reply: &Json) -> Result<ShardReport, String> {
        let err = |what: &str| format!("malformed shard report: {what}");
        let str_of =
            |value: &Json, what: &str| value.as_str().map(str::to_owned).ok_or_else(|| err(what));
        let field = |key: &str| reply.get(key).ok_or_else(|| err(key));
        let arr_field = |key: &str| field(key)?.as_arr().ok_or_else(|| err(key));
        let count = |key: &str| {
            reply.get(key).map_or(Ok(0), |n| n.as_usize().ok_or_else(|| err(key))).map(|n| n as u64)
        };
        let assigned = arr_field("cone")?
            .iter()
            .map(|name| str_of(name, "cone entry"))
            .collect::<Result<Vec<_>, _>>()?;
        let durations = arr_field("durations")?
            .iter()
            .map(|pair| match pair.as_arr() {
                Some([name, secs]) => Ok((
                    str_of(name, "duration name")?,
                    secs.as_f64().ok_or_else(|| err("duration secs"))?,
                )),
                _ => Err(err("duration entry")),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let failures = arr_field("failures")?
            .iter()
            .map(|f| {
                let part = |key: &str| {
                    str_of(f.get(key).ok_or_else(|| err("failure entry"))?, "failure entry")
                };
                Ok(ShardFailure { node: part("node")?, vc: part("vc")?, kind: part("kind")? })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(ShardReport {
            label: str_of(field("label")?, "label")?,
            shard: field("shard")?.as_usize().ok_or_else(|| err("shard"))?,
            assigned,
            durations,
            failures,
            wall_secs: field("wall_ms")?.as_f64().ok_or_else(|| err("wall_ms"))? / 1e3,
            terms: TermCacheStats { hits: count("term_hits")?, misses: count("term_misses")? },
            memo: MemoStats {
                proofs: count("memo_proofs")? as usize,
                hits: count("memo_hits")? as usize,
            },
            // absent means the daemon was not asked to trace
            trace: match reply.get("trace") {
                None => None,
                Some(v) => Some(
                    timepiece_trace::trace_from_json(v).map_err(|e| err(&format!("trace: {e}")))?,
                ),
            },
        })
    }
}

/// Why a set of shard reports could not be merged into a row. Every variant
/// names the worker that produced the offending report, so a broken peer in
/// a multi-host sweep is attributable from the error alone.
#[derive(Debug, Clone, PartialEq)]
pub enum MergeError {
    /// A report was for another instance than the row's.
    WrongInstance {
        /// The worker that sent the report.
        worker: String,
        /// The instance label the coordinator expected.
        expected: String,
        /// The label the report carries.
        got: String,
    },
    /// Two reports claimed the same shard index.
    DuplicateShard {
        /// The worker whose report collided.
        worker: String,
        /// The worker that already reported this shard.
        earlier: String,
        /// The contested shard index.
        shard: usize,
    },
    /// A report's shard index exceeds the plan.
    ShardOutOfRange {
        /// The worker that sent the report.
        worker: String,
        /// The offending index.
        shard: usize,
        /// The plan's shard count.
        shards: usize,
    },
    /// A shard is missing entirely (its worker died and nobody re-ran it).
    MissingShards {
        /// The unreported shard indices.
        shards: Vec<usize>,
    },
    /// The union of assigned sets does not partition the node set.
    Coverage {
        /// What went wrong (doubly assigned / missing / foreign nodes).
        detail: String,
    },
    /// A worker reported assigned nodes it never checked.
    SkippedNodes {
        /// The worker that skipped work.
        worker: String,
        /// Its shard index.
        shard: usize,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::WrongInstance { worker, expected, got } => {
                write!(
                    f,
                    "worker {worker}: checked the wrong instance: expected {expected}, got {got}"
                )
            }
            MergeError::DuplicateShard { worker, earlier, shard } => {
                write!(f, "worker {worker}: shard {shard} already reported by worker {earlier}")
            }
            MergeError::ShardOutOfRange { worker, shard, shards } => {
                write!(f, "worker {worker}: shard index {shard} out of range ({shards} shards)")
            }
            MergeError::MissingShards { shards } => {
                write!(f, "no worker reported shard(s) {shards:?}")
            }
            MergeError::Coverage { detail } => write!(f, "coverage violation: {detail}"),
            MergeError::SkippedNodes { worker, shard } => {
                write!(f, "worker {worker}: shard {shard} skipped assigned nodes")
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// The verified union of a row's shard reports, ready to become a [`crate::Row`].
#[derive(Debug, Clone)]
pub struct MergedShards {
    /// Every node's check duration, across all shards.
    pub durations: Vec<(String, f64)>,
    /// Worker wall seconds per shard index.
    pub shard_secs: Vec<f64>,
    /// Did any shard report an `unknown` (timeout) failure?
    pub timed_out: bool,
    /// Did every shard verify?
    pub verified: bool,
    /// The workers' compiled-term cache traffic, summed over the shards.
    pub terms: TermCacheStats,
    /// The shards' memo counters, summed.
    pub memo: MemoStats,
    /// Names of nodes with at least one failed condition, sorted and
    /// deduplicated across shards (empty when `verified`).
    pub failing: Vec<String>,
}

/// Validates and merges labelled shard reports — `(worker label, report)`
/// pairs — against the coordinator's expectations.
///
/// # Errors
///
/// A [`MergeError`] naming the offending worker when a report is for the
/// wrong instance, a shard is duplicated, missing or out of range, the assigned sets fail to partition `topology`'s node set, or a
/// worker skipped assigned nodes.
pub fn merge_reports(
    kind: BenchKind,
    k: usize,
    shards: usize,
    topology: &Topology,
    reports: &[(String, ShardReport)],
) -> Result<MergedShards, MergeError> {
    let mut seen: Vec<Option<&str>> = vec![None; shards];
    let label = kind.label(k);
    for (worker, report) in reports {
        if report.label != label {
            return Err(MergeError::WrongInstance {
                worker: worker.clone(),
                expected: label,
                got: report.label.clone(),
            });
        }
        if report.shard >= shards {
            return Err(MergeError::ShardOutOfRange {
                worker: worker.clone(),
                shard: report.shard,
                shards,
            });
        }
        if let Some(earlier) = seen[report.shard] {
            return Err(MergeError::DuplicateShard {
                worker: worker.clone(),
                earlier: earlier.to_owned(),
                shard: report.shard,
            });
        }
        seen[report.shard] = Some(worker);
    }
    let missing: Vec<usize> =
        seen.iter().enumerate().filter(|(_, w)| w.is_none()).map(|(s, _)| s).collect();
    if !missing.is_empty() {
        return Err(MergeError::MissingShards { shards: missing });
    }

    // coverage: the assigned sets partition the node set…
    let mut assigned: Vec<&str> =
        reports.iter().flat_map(|(_, r)| r.assigned.iter().map(String::as_str)).collect();
    let total_assigned = assigned.len();
    assigned.sort_unstable();
    assigned.dedup();
    let mut all: Vec<&str> = topology.nodes().map(|v| topology.name(v)).collect();
    all.sort_unstable();
    if total_assigned != assigned.len() {
        return Err(MergeError::Coverage {
            detail: "a node was assigned to two shards".to_owned(),
        });
    }
    if assigned != all {
        return Err(MergeError::Coverage {
            detail: "the shards' assigned sets do not cover every node exactly once".to_owned(),
        });
    }
    // …and every assigned node was actually checked: the checked multiset
    // must equal the assignment, so a worker reporting a duplicate duration
    // alongside a skipped node cannot pass on cardinality alone
    for (worker, report) in reports {
        let mut checked: Vec<&str> =
            report.durations.iter().map(|(name, _)| name.as_str()).collect();
        checked.sort_unstable();
        let mut expected: Vec<&str> = report.assigned.iter().map(String::as_str).collect();
        expected.sort_unstable();
        if checked != expected {
            return Err(MergeError::SkippedNodes { worker: worker.clone(), shard: report.shard });
        }
    }

    let mut shard_secs = vec![0.0; shards];
    for (_, report) in reports {
        shard_secs[report.shard] = report.wall_secs;
    }
    let mut failing: Vec<String> =
        reports.iter().flat_map(|(_, r)| r.failures.iter().map(|f| f.node.clone())).collect();
    failing.sort_unstable();
    failing.dedup();
    Ok(MergedShards {
        durations: reports.iter().flat_map(|(_, r)| r.durations.iter().cloned()).collect(),
        shard_secs,
        timed_out: reports.iter().flat_map(|(_, r)| &r.failures).any(|f| f.kind == "unknown"),
        verified: reports.iter().all(|(_, r)| r.failures.is_empty()),
        terms: reports.iter().fold(TermCacheStats::default(), |sum, (_, r)| TermCacheStats {
            hits: sum.hits + r.terms.hits,
            misses: sum.misses + r.terms.misses,
        }),
        memo: reports.iter().fold(MemoStats::default(), |mut sum, (_, r)| {
            sum += r.memo;
            sum
        }),
        failing,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{fattree_instance, load_instance, SweepOptions};
    use timepiece_daemon::{DaemonState, Load, NodeCheck, Request, PROTOCOL_VERSION};
    use timepiece_sched::ShardPlan;

    /// The fleet's plan: the fattree's node classes, striped.
    fn striped(topology: &Topology, shards: usize) -> ShardPlan {
        ShardPlan::by_class(topology.nodes(), shards, |v| topology.node_class(v))
    }

    fn sample_report(shard: usize) -> ShardReport {
        ShardReport {
            label: "ApReach k=4".to_owned(),
            shard,
            assigned: vec!["core-0".to_owned(), "edge-1-0".to_owned()],
            durations: vec![("core-0".to_owned(), 0.25), ("edge-1-0".to_owned(), 0.125)],
            failures: vec![ShardFailure {
                node: "edge-1-0".to_owned(),
                vc: "inductive".to_owned(),
                kind: "counterexample".to_owned(),
            }],
            wall_secs: 0.5,
            terms: TermCacheStats { hits: 3, misses: 5 },
            memo: MemoStats { proofs: 1, hits: 1 },
            trace: None,
        }
    }

    /// The reply of a daemon that was loaded SpReach k=4 and asked for shard
    /// `shard` of the striped plan — what a fleet worker sends.
    fn striped_reply(shard: usize, shards: usize) -> Json {
        let kind = BenchKind::parse("SpReach").unwrap();
        let inst = fattree_instance(kind, 4);
        let g = inst.network.topology();
        let plan = striped(g, shards);
        let nodes = plan.nodes_of(shard).iter().map(|&v| g.name(v).to_owned());
        let options = SweepOptions { threads: Some(1), ..SweepOptions::default() }.check_options();
        let mut state = DaemonState::empty(options).with_loader(load_instance);
        let load = Load {
            version: PROTOCOL_VERSION,
            source: kind.load_source(4),
            sabotage: Vec::new(),
            threads: None,
            timeout_millis: None,
            trace: false,
        };
        let check = NodeCheck { nodes: nodes.collect(), generation: None, shard: Some(shard) };
        let loaded = state.handle(&Request::Load(load)).reply;
        assert_eq!(loaded.get("ok").and_then(Json::as_bool), Some(true), "{loaded}");
        state.handle(&Request::CheckNodes(check)).reply
    }

    fn striped_shard(shard: usize, shards: usize) -> ShardReport {
        ShardReport::from_reply(&striped_reply(shard, shards)).expect("a report reply")
    }

    #[test]
    fn striped_plans_are_deterministic_and_cover_the_fattree() {
        let inst = fattree_instance(BenchKind::parse("ApReach").unwrap(), 4);
        let g = inst.network.topology();
        let (a, b) = (striped(g, 3), striped(g, 3));
        assert_eq!(a, b);
        assert!(a.covers(g.nodes()));
        // class striping balances shard sizes within one node
        let sizes: Vec<usize> = (0..3).map(|s| a.nodes_of(s).len()).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1, "{sizes:?}");
    }

    #[test]
    fn a_daemon_reply_reads_as_a_shard_report() {
        let report = striped_shard(0, 2);
        assert_eq!((report.label.as_str(), report.shard), ("SpReach k=4", 0));
        // the two shards of a 20-node fattree split 10/10
        assert_eq!(report.assigned.len(), 10);
        assert_eq!(report.durations.len(), report.assigned.len());
        assert!(report.failures.is_empty(), "SpReach k=4 verifies");
        assert!(report.wall_secs > 0.0 && report.terms.misses > 0, "{report:?}");
        assert_eq!(report.trace, None, "the load did not ask for a trace");
    }

    #[test]
    fn a_shard_report_carries_the_daemons_trace() {
        use timepiece_trace::{Phase, SpanKind, SpanRecord, ThreadInfo, Trace};
        let trace = Trace {
            spans: vec![SpanRecord {
                id: 1,
                parent: 0,
                kind: SpanKind::Complete,
                phase: Phase::Node,
                name: "core-0".to_owned(),
                start_ns: 10,
                dur_ns: 250,
                pid: 0,
                tid: 3,
                args: vec![("class".to_owned(), "core".to_owned())],
            }],
            threads: vec![ThreadInfo { pid: 0, tid: 3, label: "worker0".to_owned() }],
            processes: vec![],
        };
        let Json::Obj(mut pairs) = striped_reply(1, 2) else { panic!("a reply is an object") };
        pairs.push(("trace".to_owned(), timepiece_trace::trace_to_json(&trace)));
        // through the text form, as the socket would carry it
        let wire = Json::parse(&Json::Obj(pairs).to_string()).unwrap();
        assert_eq!(ShardReport::from_reply(&wire).unwrap().trace, Some(trace));
    }

    #[test]
    fn replies_that_are_no_report_are_rejected_with_the_field_name() {
        let json = Json::parse(r#"{"verb":"check","ok":true,"label":"ApReach k=4"}"#).unwrap();
        let err = ShardReport::from_reply(&json).unwrap_err();
        assert!(err.contains("cone"), "{err}");
        // a full check's reply has everything but the shard tag
        let Json::Obj(mut pairs) = striped_reply(0, 1) else { panic!("a reply is an object") };
        pairs.retain(|(key, _)| key != "shard");
        let err = ShardReport::from_reply(&Json::Obj(pairs)).unwrap_err();
        assert!(err.contains("shard"), "{err}");
    }

    /// The ingestion-hardening suite: every broken report shape must produce
    /// a typed [`MergeError`] naming the offending worker — never a panic.
    mod ingestion {
        use super::*;

        fn kind() -> BenchKind {
            BenchKind::parse("SpReach").unwrap()
        }

        fn topology() -> Topology {
            fattree_instance(kind(), 4).network.topology().clone()
        }

        /// Two honest striped-shard reports covering SpReach k=4.
        fn good_pair() -> Vec<(String, ShardReport)> {
            (0..2).map(|s| (format!("w{s}"), striped_shard(s, 2))).collect()
        }

        #[test]
        fn honest_reports_merge() {
            let reports = good_pair();
            let merged = merge_reports(kind(), 4, 2, &topology(), &reports).unwrap();
            assert!(merged.verified && !merged.timed_out);
            assert_eq!(merged.durations.len(), 20);
            assert_eq!(merged.shard_secs.len(), 2);
            assert!(merged.shard_secs.iter().all(|&s| s > 0.0));
            // the workers' term-cache counters are summed into the row's
            let misses: u64 = reports.iter().map(|(_, r)| r.terms.misses).sum();
            assert!(misses > 0 && merged.terms.misses == misses, "{:?}", merged.terms);
        }

        #[test]
        fn a_report_for_another_instance_names_the_worker() {
            let mut reports = good_pair();
            reports[1].1.label = sample_report(1).label;
            let err = merge_reports(kind(), 4, 2, &topology(), &reports).unwrap_err();
            assert_eq!(
                err,
                MergeError::WrongInstance {
                    worker: "w1".to_owned(),
                    expected: "SpReach k=4".to_owned(),
                    got: "ApReach k=4".to_owned()
                },
                "{err}"
            );
            assert!(err.to_string().contains("w1"), "{err}");
        }

        #[test]
        fn duplicate_shard_index_names_both_workers() {
            let mut reports = good_pair();
            reports[1].1.shard = 0;
            reports[1].1.assigned = reports[0].1.assigned.clone();
            reports[1].1.durations = reports[0].1.durations.clone();
            let err = merge_reports(kind(), 4, 2, &topology(), &reports).unwrap_err();
            assert_eq!(
                err,
                MergeError::DuplicateShard {
                    worker: "w1".to_owned(),
                    earlier: "w0".to_owned(),
                    shard: 0
                },
                "{err}"
            );
        }

        #[test]
        fn missing_out_of_range_and_skipped_shards_are_typed() {
            let reports = good_pair();
            let err = merge_reports(kind(), 4, 2, &topology(), &reports[..1]).unwrap_err();
            assert_eq!(err, MergeError::MissingShards { shards: vec![1] }, "{err}");

            let mut reports = good_pair();
            reports[1].1.shard = 7;
            let err = merge_reports(kind(), 4, 2, &topology(), &reports).unwrap_err();
            assert!(
                matches!(&err, MergeError::ShardOutOfRange { worker, shard: 7, .. } if worker == "w1"),
                "{err}"
            );

            let mut reports = good_pair();
            reports[0].1.durations.pop();
            let err = merge_reports(kind(), 4, 2, &topology(), &reports).unwrap_err();
            assert!(
                matches!(&err, MergeError::SkippedNodes { worker, shard: 0 } if worker == "w0"),
                "{err}"
            );
        }

        #[test]
        fn coverage_violations_are_typed() {
            let mut reports = good_pair();
            // a node assigned (and "checked") by both shards
            let stolen = reports[0].1.assigned[0].clone();
            reports[1].1.assigned.push(stolen.clone());
            reports[1].1.durations.push((stolen, 0.01));
            let err = merge_reports(kind(), 4, 2, &topology(), &reports).unwrap_err();
            assert!(matches!(&err, MergeError::Coverage { .. }), "{err}");

            let mut reports = good_pair();
            // a node silently dropped from the plan
            reports[1].1.assigned.pop();
            reports[1].1.durations.pop();
            let err = merge_reports(kind(), 4, 2, &topology(), &reports).unwrap_err();
            assert!(matches!(&err, MergeError::Coverage { .. }), "{err}");
        }
    }
}
