//! The shard protocol of the worker fleet: reports and their merge.
//!
//! Per-node conditions are independent, so beyond the in-process
//! work-stealing pool, whole *shards* of the node set move to `repro worker`
//! processes (each with its own Z3 heap and cache locality) — a loopback
//! fleet for `--shards N`, other hosts for `--workers`. [`crate::dist`] is
//! the transport; this module is what travels over it:
//!
//! 1. the coordinator picks `(bench, k, shards)` and stripes the node set
//!    by symmetry class ([`timepiece_sched::ShardPlan::by_class`]) — the one
//!    planner there is; what imbalance striping leaves, the coordinator's
//!    steal-half and the workers' pools absorb while the row runs;
//! 2. a worker holds the *same* instance as a [`ShardRow`], checks exactly
//!    the nodes it is handed, and answers each shard with one
//!    [`ShardReport`] — the report records the assigned node list, so any
//!    shard of any run can be replayed deterministically from its report
//!    alone (`repro shard-worker --nodes …`);
//! 3. the coordinator ingests the reports through [`merge_reports`], which
//!    *proves coverage* — the assigned sets must partition the full node
//!    set, every assigned node must carry a check duration, and duplicate
//!    or mismatched reports produce a typed [`MergeError`] naming the
//!    offending worker — and merges them into one sweep row.
//!
//! A wrong partition therefore shows up as a hard, attributed ingestion
//! error, never as a silently skipped node.

use std::fmt;

use timepiece_core::check::{CheckReport, FailureReason};
use timepiece_core::sweep::CheckerPool;
use timepiece_core::Temporal;
use timepiece_nets::BenchInstance;
use timepiece_sched::{CancelToken, Json};
use timepiece_topology::{NodeId, Topology};
use timepiece_trace::Phase;

use crate::runner::BenchKind;

/// The version of the shard-report / distributed-worker protocol. Bumped on
/// any incompatible change to the report shape or the wire frames; peers
/// reject mismatches with a typed error instead of misparsing.
pub const PROTOCOL_VERSION: usize = 2;

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

/// What one shard worker verified, as reported over the process boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// Protocol version the worker spoke ([`PROTOCOL_VERSION`]).
    pub version: usize,
    /// Benchmark name (e.g. `ApReach`).
    pub bench: String,
    /// Fattree parameter.
    pub k: usize,
    /// This worker's shard index.
    pub shard: usize,
    /// Total shard count of the plan.
    pub shards: usize,
    /// Names of the nodes the plan assigned to this shard.
    pub assigned: Vec<String>,
    /// Per-node check durations in seconds, one per assigned node.
    pub durations: Vec<(String, f64)>,
    /// Failures found in this shard (empty when verified).
    pub failures: Vec<ShardFailure>,
    /// The worker's wall-clock time for its shard.
    pub wall_secs: f64,
    /// The worker's span trace, when the coordinator's `hello` asked for
    /// one; the coordinator ingests it as its own pid-tagged process track.
    pub trace: Option<timepiece_trace::Trace>,
}

/// A shard report that did not parse or did not match the expected shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardProtocolError(pub String);

impl fmt::Display for ShardProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed shard report: {}", self.0)
    }
}

impl std::error::Error for ShardProtocolError {}

impl ShardReport {
    /// Assembles the report of `shard` of `row` from the completed check of
    /// its `assigned` nodes; `wall_secs` is the check's own wall time.
    fn from_check(
        row: &ShardRow,
        shard: usize,
        assigned: &[NodeId],
        report: &CheckReport,
    ) -> ShardReport {
        let topology = row.inst.network.topology();
        ShardReport {
            version: PROTOCOL_VERSION,
            bench: row.bench.clone(),
            k: row.k,
            shard,
            shards: row.shards,
            assigned: assigned.iter().map(|&v| topology.name(v).to_owned()).collect(),
            durations: report
                .node_durations()
                .iter()
                .map(|&(v, d)| (topology.name(v).to_owned(), d.as_secs_f64()))
                .collect(),
            failures: report
                .failures()
                .iter()
                .map(|f| ShardFailure {
                    node: f.node_name.clone(),
                    vc: f.vc.to_string(),
                    kind: match f.reason {
                        FailureReason::CounterExample(_) => "counterexample".to_owned(),
                        FailureReason::Unknown(_) => "unknown".to_owned(),
                    },
                })
                .collect(),
            wall_secs: report.wall().as_secs_f64(),
            trace: None,
        }
    }

    /// The report as a JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("version", Json::from(self.version)),
            ("bench", Json::str(&self.bench)),
            ("k", Json::from(self.k)),
            ("shard", Json::from(self.shard)),
            ("shards", Json::from(self.shards)),
            ("assigned", Json::arr(self.assigned.iter().map(Json::str))),
            (
                "durations",
                Json::arr(
                    self.durations
                        .iter()
                        .map(|(name, secs)| Json::arr([Json::str(name), Json::Num(*secs)])),
                ),
            ),
            (
                "failures",
                Json::arr(self.failures.iter().map(|f| {
                    Json::obj([
                        ("node", Json::str(&f.node)),
                        ("vc", Json::str(&f.vc)),
                        ("kind", Json::str(&f.kind)),
                    ])
                })),
            ),
            ("wall_secs", Json::Num(self.wall_secs)),
            ("trace", self.trace.as_ref().map_or(Json::Null, timepiece_trace::trace_to_json)),
        ])
    }

    /// Parses a report back from its JSON form. Reports from peers predating
    /// the versioned protocol (no `version` field) parse as version 0, and
    /// fields this version does not know are ignored, so the coordinator's
    /// version check can name the mismatch instead of a field error masking
    /// it.
    ///
    /// # Errors
    ///
    /// [`ShardProtocolError`] naming the first missing or mistyped field.
    pub fn from_json(value: &Json) -> Result<ShardReport, ShardProtocolError> {
        let err = |what: &str| ShardProtocolError(what.to_owned());
        let str_field = |key: &str| {
            value.get(key).and_then(Json::as_str).map(str::to_owned).ok_or_else(|| err(key))
        };
        let usize_field =
            |key: &str| value.get(key).and_then(Json::as_usize).ok_or_else(|| err(key));
        let assigned = value
            .get("assigned")
            .and_then(Json::as_arr)
            .ok_or_else(|| err("assigned"))?
            .iter()
            .map(|v| v.as_str().map(str::to_owned).ok_or_else(|| err("assigned entry")))
            .collect::<Result<Vec<_>, _>>()?;
        let durations = value
            .get("durations")
            .and_then(Json::as_arr)
            .ok_or_else(|| err("durations"))?
            .iter()
            .map(|pair| {
                let pair = pair.as_arr().ok_or_else(|| err("duration entry"))?;
                match pair {
                    [name, secs] => Ok((
                        name.as_str().ok_or_else(|| err("duration name"))?.to_owned(),
                        secs.as_f64().ok_or_else(|| err("duration secs"))?,
                    )),
                    _ => Err(err("duration entry arity")),
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        let failures = value
            .get("failures")
            .and_then(Json::as_arr)
            .ok_or_else(|| err("failures"))?
            .iter()
            .map(|f| {
                Ok(ShardFailure {
                    node: f
                        .get("node")
                        .and_then(Json::as_str)
                        .ok_or_else(|| err("failure node"))?
                        .to_owned(),
                    vc: f
                        .get("vc")
                        .and_then(Json::as_str)
                        .ok_or_else(|| err("failure vc"))?
                        .to_owned(),
                    kind: f
                        .get("kind")
                        .and_then(Json::as_str)
                        .ok_or_else(|| err("failure kind"))?
                        .to_owned(),
                })
            })
            .collect::<Result<Vec<_>, ShardProtocolError>>()?;
        Ok(ShardReport {
            version: match value.get("version") {
                None => 0,
                Some(v) => v.as_usize().ok_or_else(|| err("version"))?,
            },
            bench: str_field("bench")?,
            k: usize_field("k")?,
            shard: usize_field("shard")?,
            shards: usize_field("shards")?,
            assigned,
            durations,
            failures,
            wall_secs: value
                .get("wall_secs")
                .and_then(Json::as_f64)
                .ok_or_else(|| err("wall_secs"))?,
            // absent and null both mean "worker did not trace" — older
            // reports simply lack the field
            trace: match value.get("trace") {
                None | Some(Json::Null) => None,
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
    /// A report frame did not parse (malformed or truncated JSON).
    Protocol {
        /// The worker whose output failed to parse.
        worker: String,
        /// The parse failure.
        detail: String,
    },
    /// A report spoke a different protocol version.
    VersionMismatch {
        /// The worker that sent the report.
        worker: String,
        /// The coordinator's version.
        expected: usize,
        /// The report's version.
        got: usize,
    },
    /// A report was for the wrong `(bench, k)` or total shard count.
    WrongInstance {
        /// The worker that sent the report.
        worker: String,
        /// `bench k=K shards=N` the coordinator expected.
        expected: String,
        /// What the report claimed.
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
            MergeError::Protocol { worker, detail } => {
                write!(f, "worker {worker}: unreadable shard report: {detail}")
            }
            MergeError::VersionMismatch { worker, expected, got } => {
                write!(f, "worker {worker}: protocol version {got}, coordinator speaks {expected}")
            }
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
/// wrong instance/version, a shard is duplicated, missing or out of
/// range, the assigned sets fail to partition `topology`'s node set, or a
/// worker skipped assigned nodes.
pub fn merge_reports(
    kind: BenchKind,
    k: usize,
    shards: usize,
    topology: &Topology,
    reports: &[(String, ShardReport)],
) -> Result<MergedShards, MergeError> {
    let mut seen: Vec<Option<&str>> = vec![None; shards];
    for (worker, report) in reports {
        if report.version != PROTOCOL_VERSION {
            return Err(MergeError::VersionMismatch {
                worker: worker.clone(),
                expected: PROTOCOL_VERSION,
                got: report.version,
            });
        }
        if (report.bench.as_str(), report.k, report.shards) != (kind.name(), k, shards) {
            return Err(MergeError::WrongInstance {
                worker: worker.clone(),
                expected: format!("{} k={k} shards={shards}", kind.name()),
                got: format!("{} k={} shards={}", report.bench, report.k, report.shards),
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
        failing,
    })
}

/// One sweep row as a worker holds it: the instance — rebuilt by registry
/// name, or compiled from scenario text a coordinator shipped — and the
/// labels every shard report of the row carries. This is the one worker
/// side there is: a `repro worker` session and the deterministic replay
/// (`repro shard-worker --nodes …` with the `assigned` list of any recorded
/// [`ShardReport`]) both check their shards through [`ShardRow::check`].
#[derive(Debug)]
pub struct ShardRow {
    bench: String,
    k: usize,
    shards: usize,
    inst: BenchInstance,
}

impl ShardRow {
    /// The row `bench k=K` split into `shards` shards, on the worker's own
    /// copy `inst` of the instance.
    pub fn new(bench: &str, k: usize, shards: usize, inst: BenchInstance) -> Self {
        ShardRow { bench: bench.to_owned(), k, shards, inst }
    }

    /// Documented fault injection: replaces the interface of the node named
    /// `node` with a never-holds-a-route annotation.
    ///
    /// # Errors
    ///
    /// Names the node when the instance has none by that name.
    pub fn sabotage(&mut self, node: &str) -> Result<(), String> {
        let v = self.node(node)?;
        self.inst.interface.set(v, Temporal::globally(|r| r.clone().is_some().not()));
        Ok(())
    }

    fn node(&self, name: &str) -> Result<NodeId, String> {
        self.inst.network.topology().node_by_name(name).ok_or(format!("unknown node {name:?}"))
    }

    /// Checks exactly the nodes named in `nodes` — shard `shard` of the row
    /// — on `pool`, whose solver sessions stay warm from whatever it
    /// checked before.
    ///
    /// # Errors
    ///
    /// An unknown node name, or the check's hard error (an encoding failure,
    /// a dead pool worker).
    pub fn check(
        &self,
        pool: &mut CheckerPool,
        shard: usize,
        nodes: &[&str],
    ) -> Result<ShardReport, String> {
        let nodes = nodes.iter().map(|name| self.node(name)).collect::<Result<Vec<_>, _>>()?;
        // the shard's term-cache traffic rides on its span: a traced sweep
        // shows how warm each worker's sessions were
        let mut span = timepiece_trace::span(Phase::Other, format!("shard{shard}"));
        let inst = &self.inst;
        let report = pool
            .check_nodes(
                &inst.network,
                &inst.interface,
                &inst.property,
                &nodes,
                &CancelToken::new(),
            )
            .map_err(|e| format!("shard {shard}: {e}"))?;
        if let Some(terms) = report.term_cache() {
            span.arg("term_cache_hits", terms.hits.to_string());
            span.arg("term_cache_misses", terms.misses.to_string());
        }
        drop(span);
        let mut report = ShardReport::from_check(self, shard, &nodes, &report);
        if timepiece_trace::enabled() {
            report.trace = Some(timepiece_trace::take());
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{fattree_instance, SweepOptions};
    use timepiece_sched::ShardPlan;

    /// The fleet's plan: the fattree's node classes, striped.
    fn striped(topology: &Topology, shards: usize) -> ShardPlan {
        ShardPlan::by_class(topology.nodes(), shards, |v| topology.node_class(v))
    }

    fn sample_report(shard: usize, shards: usize) -> ShardReport {
        ShardReport {
            version: PROTOCOL_VERSION,
            bench: "ApReach".to_owned(),
            k: 4,
            shard,
            shards,
            assigned: vec!["core-0".to_owned(), "edge-1-0".to_owned()],
            durations: vec![("core-0".to_owned(), 0.25), ("edge-1-0".to_owned(), 0.125)],
            failures: vec![ShardFailure {
                node: "edge-1-0".to_owned(),
                vc: "inductive".to_owned(),
                kind: "counterexample".to_owned(),
            }],
            wall_secs: 0.5,
            trace: None,
        }
    }

    /// Shard `shard` of SpReach k=4 under the striped plan, checked the way
    /// a worker checks it.
    fn striped_shard(shard: usize, shards: usize) -> ShardReport {
        let kind = BenchKind::parse("SpReach").unwrap();
        let inst = fattree_instance(kind, 4);
        let names: Vec<String> = striped(inst.network.topology(), shards)
            .nodes_of(shard)
            .iter()
            .map(|&v| inst.network.topology().name(v).to_owned())
            .collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut pool = CheckerPool::new(1, SweepOptions::default().check_options());
        ShardRow::new(kind.name(), 4, shards, inst)
            .check(&mut pool, shard, &names)
            .expect("SpReach k=4 encodes")
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
    fn shard_report_roundtrips_through_json() {
        let report = sample_report(1, 3);
        let parsed = ShardReport::from_json(&Json::parse(&report.to_json().to_string()).unwrap());
        assert_eq!(parsed.unwrap(), report);
    }

    #[test]
    fn shard_report_carries_its_trace_through_json() {
        use timepiece_trace::{Phase, SpanKind, SpanRecord, ThreadInfo, Trace};
        let report = ShardReport {
            version: PROTOCOL_VERSION,
            bench: "SpReach".to_owned(),
            k: 4,
            shard: 0,
            shards: 2,
            assigned: vec!["core-0".to_owned()],
            durations: vec![("core-0".to_owned(), 0.25)],
            failures: vec![],
            wall_secs: 0.25,
            trace: Some(Trace {
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
            }),
        };
        let parsed = ShardReport::from_json(&Json::parse(&report.to_json().to_string()).unwrap());
        assert_eq!(parsed.unwrap(), report);
    }

    #[test]
    fn malformed_reports_are_rejected_with_the_field_name() {
        let json = Json::parse(r#"{"bench":"ApReach","k":4}"#).unwrap();
        let err = ShardReport::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("shard"), "{err}");
    }

    #[test]
    fn preversion_reports_parse_as_version_zero() {
        let mut report = sample_report(0, 1);
        report.trace = None;
        let Json::Obj(pairs) = report.to_json() else { panic!("report is an object") };
        let stripped = Json::Obj(pairs.into_iter().filter(|(k, _)| k != "version").collect());
        let parsed = ShardReport::from_json(&stripped).unwrap();
        assert_eq!(parsed.version, 0);
    }

    #[test]
    fn worker_checks_exactly_its_shard() {
        let report = striped_shard(0, 2);
        assert_eq!((report.bench.as_str(), report.k), ("SpReach", 4));
        assert_eq!((report.shard, report.shards), (0, 2));
        assert_eq!(report.durations.len(), report.assigned.len());
        assert!(report.failures.is_empty(), "SpReach k=4 verifies");
        assert_eq!(report.version, PROTOCOL_VERSION);
        // the two shards of a 20-node fattree split 10/10
        assert_eq!(report.assigned.len(), 10);
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
        }

        #[test]
        fn truncated_frames_are_typed_protocol_errors() {
            // a report cut off mid-stream parses to a JSON error; ingestion
            // wraps it as a Protocol error naming the worker
            let full = sample_report(0, 1).to_json().to_string();
            let truncated = &full[..full.len() / 2];
            let parse_err = Json::parse(truncated).unwrap_err();
            let err = MergeError::Protocol {
                worker: "tcp:9001".to_owned(),
                detail: parse_err.to_string(),
            };
            assert!(err.to_string().contains("tcp:9001"), "{err}");
            assert!(err.to_string().contains("unreadable"), "{err}");
        }

        #[test]
        fn wrong_shard_count_names_the_worker() {
            let mut reports = good_pair();
            reports[1].1.shards = 3;
            let err = merge_reports(kind(), 4, 2, &topology(), &reports).unwrap_err();
            assert!(
                matches!(&err, MergeError::WrongInstance { worker, .. } if worker == "w1"),
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
        fn version_mismatches_are_typed() {
            let mut reports = good_pair();
            reports[0].1.version = PROTOCOL_VERSION + 1;
            let err = merge_reports(kind(), 4, 2, &topology(), &reports).unwrap_err();
            assert!(
                matches!(&err, MergeError::VersionMismatch { worker, .. } if worker == "w0"),
                "{err}"
            );

            // a v1 peer still sends the plan spec v2 dropped: its report is
            // refused by version, not misparsed…
            let plan = r#"{"kind":"adaptive","class_costs":[["core",8.0]],"sources":["dump"]}"#;
            let mut reports = good_pair();
            let Json::Obj(mut pairs) = reports[1].1.to_json() else { panic!("an object") };
            pairs.retain(|(key, _)| key != "version");
            pairs.push(("version".to_owned(), Json::from(1usize)));
            pairs.push(("plan".to_owned(), Json::parse(plan).unwrap()));
            reports[1].1 = ShardReport::from_json(&Json::Obj(pairs)).expect("v1 shape parses");
            let err = merge_reports(kind(), 4, 2, &topology(), &reports).unwrap_err();
            assert_eq!(
                err,
                MergeError::VersionMismatch {
                    worker: "w1".to_owned(),
                    expected: PROTOCOL_VERSION,
                    got: 1
                },
                "{err}"
            );
            // …and so is its hello, before a worker builds anything
            let hello = format!(
                r#"{{"type":"hello","version":1,"bench":"SpReach","k":4,"shards":2,"plan":{plan}}}"#
            );
            let err = crate::dist::hello_row(&Json::parse(&hello).unwrap()).unwrap_err();
            assert!(err.contains("protocol version 1"), "{err}");
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
