//! The daemon's warm verification state and request handler.
//!
//! A [`DaemonState`] is everything `timepieced` keeps hot between requests:
//! a persistent [`CheckerPool`] whose workers hold one solver session each
//! (kept from request to request, across edits and `load`s, until a
//! condition fails to encode on it or it outgrows its jobs; a worker that
//! panics makes the request's reply an error, and the pool replaces its
//! workers before the next one) and at most one
//! [`Loaded`] instance: its label, the [`Instance`] itself behind the one
//! [`Arc`] the pool's workers read, one [`Record`] per node — the key of the
//! conditions it was last checked on and, if that check was definite, its
//! proof — and the downed-link book. An instance is installed one way,
//! without checking or keying it: a `load` request resolves it through the
//! [`Loader`] the process handed the state and starts with no records, and
//! [`DaemonState::new`] is an empty state that installs the instance it is
//! given and then answers a unit `check`.
//!
//! Every checking request is the same question — *re-prove these nodes of
//! the current instance* — answered by the same path: one job on the
//! still-warm pool whose memo starts from the records, so a node whose key
//! any record holds with a proof is answered by it. A full `check` names
//! every node, a node-list `check` names its own, and a
//! `delta` applies the edit and names its topological *footprint* plus every
//! node without a definite record (an `unknown`, or a node a cancellation
//! abandoned). The job keys each of them once; its cone is every node of
//! the job but those whose new key is the one their last definite check
//! settled — a node the job abandoned stays in it — so a request
//! costs what its cone costs, not what the network costs. A delta builds the
//! edited [`Instance`] and commits it, with the job's records, only after
//! the job has returned.
//!
//! The handler is transport-agnostic — it maps a parsed
//! [`Request`] to a response [`Json`] — so the TCP server, the benchmark
//! and the equivalence tests all drive the same code.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use timepiece_algebra::policy::{RouteGuard, RoutePolicy};
use timepiece_algebra::Network;
use timepiece_core::check::{CheckOptions, CheckReport, FailureReason};
use timepiece_core::incremental::interface_cone;
use timepiece_core::sweep::{CheckerPool, Record, Records};
use timepiece_core::{CoreError, Instance, Temporal};
use timepiece_expr::Expr;
use timepiece_sched::CancelToken;
use timepiece_topology::{NodeId, Topology};
use timepiece_trace::{Json, Phase};

use crate::protocol::{
    error_response, Delta, Load, LoadSource, NodeCheck, PolicySpec, Request, PROTOCOL_VERSION,
};

/// The cross-thread drain signal: raising it cancels whatever check is in
/// flight *and* pre-cancels every later one, so a daemon told to shut down
/// (by a `shutdown` request or a signal handler) winds down promptly
/// instead of finishing a long request queue.
///
/// Hooks on a [`CancelToken`] accumulate per registration, so a long-lived
/// service must not reuse one token across requests — this signal hands the
/// state a *fresh* token per check and remembers it for cancellation.
#[derive(Debug, Clone, Default)]
pub struct DrainSignal {
    inner: Arc<DrainInner>,
}

#[derive(Debug, Default)]
struct DrainInner {
    draining: AtomicBool,
    current: Mutex<Option<CancelToken>>,
}

impl DrainSignal {
    /// A fresh, unraised signal.
    pub fn new() -> DrainSignal {
        DrainSignal::default()
    }

    /// Raises the signal: the in-flight check (if any) is cancelled — its
    /// solver interrupts fire through the token's hooks — and every check
    /// started afterwards begins pre-cancelled.
    pub fn raise(&self) {
        self.inner.draining.store(true, Ordering::Release);
        if let Some(token) = self.inner.current.lock().expect("drain lock").as_ref() {
            token.cancel();
        }
    }

    /// Has the signal been raised?
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::Acquire)
    }

    /// A fresh token for one check, pre-cancelled when already draining.
    fn begin(&self) -> CancelToken {
        let token = CancelToken::new();
        if self.is_draining() {
            token.cancel();
        }
        *self.inner.current.lock().expect("drain lock") = Some(token.clone());
        token
    }

    /// Forgets the current check's token.
    fn end(&self) {
        *self.inner.current.lock().expect("drain lock") = None;
    }
}

/// What [`DaemonState::handle`] produced: the reply frame, and whether the
/// request asked the daemon to stop serving.
#[derive(Debug, Clone)]
pub struct Handled {
    /// The response frame to write back to the client.
    pub reply: Json,
    /// Did the request ask for shutdown?
    pub shutdown: bool,
}

/// Resolves a `load` request's source to a label and an instance. The
/// process that starts the daemon supplies it, so this crate knows neither
/// a benchmark registry nor a scenario compiler.
pub type Loader = fn(&LoadSource) -> Result<(String, Instance), String>;

/// The downed-link book: each installed drop-policy direction, mapped to
/// the edge's pre-`link_down` policy override so `link_up` can restore it.
type Downed = HashMap<(NodeId, NodeId), Option<RoutePolicy>>;

/// A delta applied but not yet committed: the delta handler builds the
/// edited instance and downed-link book, re-checks the footprint, and only
/// then swaps them into the state.
struct Applied {
    instance: Instance,
    downed: Downed,
    /// A topological upper bound on the nodes whose conditions the edit can
    /// change — the only ones worth re-keying: an edge's policy feeds its
    /// head's merge alone, an interface is assumed by the node's successors,
    /// the failure budget is assumed by every condition.
    footprint: Vec<NodeId>,
}

/// The one instance a daemon currently holds, with what it knows about it.
#[derive(Debug)]
pub struct Loaded {
    label: String,
    instance: Arc<Instance>,
    /// At most one per node: what the node's last check left. A node
    /// without one has not been checked since the `load`, or its check was
    /// abandoned.
    records: Records,
    downed: Downed,
}

/// The warm verification state of one `timepieced`. See the module docs.
#[derive(Debug)]
pub struct DaemonState {
    current: Option<Loaded>,
    /// Counts the instances this daemon has held: every `load` and every
    /// committed delta starts a new one.
    generation: u64,
    /// What the daemon was started with; a `load` may override threads and
    /// timeout for its instance.
    options: CheckOptions,
    pool: CheckerPool,
    loader: Option<Loader>,
    drain: DrainSignal,
    requests: u64,
    deltas: u64,
}

const NOTHING_LOADED: &str = "nothing is loaded: send a load request first";

impl DaemonState {
    /// A daemon with its checker pool up and nothing loaded: every request
    /// but `load`, `status`, `profile` and `shutdown` is refused until a
    /// `load` arrives (which needs [`DaemonState::with_loader`]).
    pub fn empty(options: CheckOptions) -> DaemonState {
        DaemonState {
            current: None,
            generation: 0,
            pool: CheckerPool::with_default_parallelism(options.clone()),
            options,
            loader: None,
            drain: DrainSignal::new(),
            requests: 0,
            deltas: 0,
        }
    }

    /// An [`empty`](DaemonState::empty) daemon that installs `instance` as
    /// a `load` would and answers a unit `check`, so the first client
    /// request already hits warm sessions and a record for every node.
    ///
    /// # Errors
    ///
    /// Any [`CoreError`] of the initial check.
    pub fn new(
        label: impl Into<String>,
        instance: Instance,
        options: CheckOptions,
    ) -> Result<DaemonState, CoreError> {
        let mut state = DaemonState::empty(options);
        let nodes: Vec<NodeId> = instance.network.topology().nodes().collect();
        state.install(label.into(), instance);
        state.check_nodes(&nodes)?;
        Ok(state)
    }

    /// Lets `load` requests install instances, resolved by `loader`.
    pub fn with_loader(mut self, loader: Loader) -> DaemonState {
        self.loader = Some(loader);
        self
    }

    /// The drain signal shared with the serving threads: raise it to cancel
    /// the in-flight check and pre-cancel later ones.
    pub fn drain(&self) -> DrainSignal {
        self.drain.clone()
    }

    /// The current instance and what the daemon knows about it, with every
    /// committed delta applied — what a from-scratch reference check must
    /// agree with.
    pub fn loaded(&self) -> Option<&Loaded> {
        self.current.as_ref()
    }

    /// How many nodes the current instance has (0 with nothing loaded).
    pub fn nodes(&self) -> usize {
        self.current.as_ref().map_or(0, Loaded::nodes)
    }

    /// Does every node of the current instance have a verified record?
    pub fn all_verified(&self) -> bool {
        self.current.as_ref().is_some_and(Loaded::all_verified)
    }

    /// Makes `instance` current — the one way an instance is installed —
    /// with no records yet.
    fn install(&mut self, label: String, instance: Instance) {
        self.current = Some(Loaded {
            label,
            instance: Arc::new(instance),
            records: Records::new(),
            downed: HashMap::new(),
        });
        self.generation += 1;
    }

    /// Re-proves `nodes` of the current instance and keeps their records.
    fn check_nodes(&mut self, nodes: &[NodeId]) -> Result<CheckReport, CoreError> {
        let loaded = self.current.as_mut().expect("an instance is installed");
        let (report, records) =
            prove(&mut self.pool, &self.drain, &loaded.instance, nodes, &loaded.records)?;
        loaded.records = records;
        Ok(report)
    }

    /// Handles one request, updating the state. Each call is traced as one
    /// [`Phase::Request`] span and counted in the `daemon.requests` metric;
    /// deltas additionally record their cone size and latency.
    pub fn handle(&mut self, request: &Request) -> Handled {
        let verb = match request {
            Request::Load(_) => "load",
            Request::Check | Request::CheckNodes(_) => "check",
            Request::Delta(_) => "delta",
            Request::Status => "status",
            Request::Profile => "profile",
            Request::Shutdown => "shutdown",
        };
        let _span = timepiece_trace::span(Phase::Request, verb);
        timepiece_trace::counter("daemon.requests").inc();
        self.requests += 1;
        let reply = match request {
            Request::Load(load) => self.handle_load(load).unwrap_or_else(error_response),
            Request::Check => self.handle_check(None),
            Request::CheckNodes(check) => self.handle_check(Some(check)),
            Request::Delta(delta) => self.handle_delta(delta),
            Request::Status => self.handle_status(),
            Request::Profile => Json::obj([
                ("verb", Json::str("profile")),
                ("ok", Json::Bool(true)),
                ("metrics", timepiece_trace::metrics_json()),
            ]),
            Request::Shutdown => {
                Json::obj([("verb", Json::str("shutdown")), ("ok", Json::Bool(true))])
            }
        };
        Handled { reply, shutdown: matches!(request, Request::Shutdown) }
    }

    /// `load`: resolve the source, apply the sabotage, make the instance
    /// current. No check runs and nothing is keyed; the pool is
    /// rebuilt only when the request asks for other threads or another
    /// timeout than it has, so solver sessions survive from load to load.
    fn handle_load(&mut self, load: &Load) -> Result<Json, String> {
        if load.version != PROTOCOL_VERSION {
            return Err(format!(
                "the client speaks protocol version {}, this daemon speaks {PROTOCOL_VERSION}",
                load.version
            ));
        }
        let loader = self.loader.ok_or("this daemon was started without a loader")?;
        let (label, mut instance) = loader(&load.source)?;
        for name in &load.sabotage {
            let v = node_named(instance.network.topology(), name)
                .map_err(|e| format!("sabotage: {e}"))?;
            instance.interface.set(v, Temporal::globally(|r| r.clone().is_some().not()));
        }
        let options = CheckOptions {
            threads: load.threads.or(self.options.threads),
            timeout: load.timeout_millis.map(Duration::from_millis).or(self.options.timeout),
            ..self.options.clone()
        };
        let warm = self.pool.options();
        if (warm.threads, warm.timeout) != (options.threads, options.timeout) {
            self.pool = CheckerPool::with_default_parallelism(options);
        }
        let nodes = instance.network.topology().node_count();
        self.install(label.clone(), instance);
        Ok(Json::obj([
            ("verb", Json::str("load")),
            ("ok", Json::Bool(true)),
            ("version", Json::from(PROTOCOL_VERSION)),
            ("label", Json::str(label)),
            ("nodes", Json::from(nodes)),
            ("generation", Json::Num(self.generation as f64)),
        ]))
    }

    /// `check`: re-verify every node — or, for a node-list check, exactly
    /// the named ones — through the warm pool.
    fn handle_check(&mut self, subset: Option<&NodeCheck>) -> Json {
        let start = Instant::now();
        let Some(inst) = self.current.as_ref() else { return error_response(NOTHING_LOADED) };
        let cone: Vec<NodeId> = match subset {
            None => inst.instance.network.topology().nodes().collect(),
            Some(check) => {
                if let Some(planned) = check.generation.filter(|&g| g != self.generation) {
                    return error_response(format!(
                        "stale generation {planned}: this daemon now holds generation {} ({})",
                        self.generation, inst.label
                    ));
                }
                let cone: Vec<NodeId> =
                    match check.nodes.iter().map(|name| inst.node(name)).collect() {
                        Ok(cone) => cone,
                        Err(message) => return error_response(message),
                    };
                // a node named twice would be proved twice and counted twice
                let mut seen = HashSet::new();
                if let Some(i) = cone.iter().position(|v| !seen.insert(*v)) {
                    return error_response(format!("node {:?} is named twice", check.nodes[i]));
                }
                cone
            }
        };
        let report = match self.check_nodes(&cone) {
            Ok(report) => report,
            Err(e) => return error_response(format!("check failed: {e}")),
        };
        let inst = self.current.as_ref().expect("checked above");
        // a node-list check answers for its nodes; a unit check for them all
        let answered = subset.map(|_| cone.as_slice());
        inst.report_response("check", self.generation, &cone, answered, &report, start)
    }

    /// `delta`: apply the edit, re-check its footprint and every node
    /// without a definite record in one job, commit.
    fn handle_delta(&mut self, delta: &Delta) -> Json {
        let start = Instant::now();
        let Some(inst) = self.current.as_mut() else { return error_response(NOTHING_LOADED) };
        let applied = match inst.apply(delta) {
            Ok(applied) => applied,
            Err(message) => return error_response(message),
        };
        let Applied { instance, downed, mut footprint } = applied;
        // the key a node's last check settled, if it settled one
        let held = |v: &NodeId| inst.records.get(v).filter(|r| r.is_definite()).map(Record::key);
        let undecided = inst.instance.network.topology().nodes().filter(|v| held(v).is_none());
        footprint.extend(undecided);
        footprint.sort_unstable();
        footprint.dedup();
        let instance = Arc::new(instance);
        let (report, records) =
            match prove(&mut self.pool, &self.drain, &instance, &footprint, &inst.records) {
                Ok(checked) => checked,
                Err(e) => return error_response(format!("re-check failed: {e}")),
            };
        // the dirty cone: every node of the job but those whose new record
        // has the key their last definite check settled — a node the job
        // abandoned has no new record and stays in it
        let cone: Vec<NodeId> = footprint
            .into_iter()
            .filter(|v| held(v).is_none_or(|old| records.get(v).map(Record::key) != Some(old)))
            .collect();
        // commit: the edited instance is now the daemon's instance; a node
        // the (possibly cancelled) job did not answer has no record, so it
        // serves no stale verdict and joins the next job
        inst.instance = instance;
        inst.downed = downed;
        inst.records = records;
        self.generation += 1;
        self.deltas += 1;
        timepiece_trace::counter("daemon.deltas").inc();
        timepiece_trace::histogram("daemon.cone_nodes").record(cone.len() as u64);
        timepiece_trace::histogram("daemon.delta_ns").record_duration(start.elapsed());
        inst.report_response("delta", self.generation, &cone, None, &report, start)
    }

    /// `status`: the instance and records summary.
    fn handle_status(&self) -> Json {
        let (label, failed, downed, cached) = match &self.current {
            Some(inst) => (
                Json::str(inst.label.clone()),
                inst.failed(None),
                inst.downed.len(),
                inst.records.len(),
            ),
            None => (Json::Null, Vec::new(), 0, 0),
        };
        let sessions = self.pool.session_stats();
        Json::obj([
            ("verb", Json::str("status")),
            ("ok", Json::Bool(true)),
            ("label", label),
            ("generation", Json::Num(self.generation as f64)),
            ("nodes", Json::from(self.nodes())),
            ("workers", Json::from(self.pool.workers())),
            ("requests", Json::from(self.requests as usize)),
            ("deltas", Json::from(self.deltas as usize)),
            ("downed_edges", Json::from(downed)),
            ("verified", Json::Bool(self.all_verified())),
            ("cached_verdicts", Json::from(cached)),
            ("failed", Json::Arr(failed)),
            // what the daemon's memory is made of: the workers' live solver
            // sessions and the compiled terms they hold (bounded: overgrown
            // sessions are retired between requests and rebuilt cold), and
            // the process-wide term arena (which never evicts)
            ("sessions", Json::from(sessions.sessions)),
            ("compiled_terms", Json::from(sessions.compiled_terms)),
            ("session_retirements", Json::from(sessions.retirements)),
            ("arena_terms", Json::from(timepiece_expr::arena::stats().terms as usize)),
        ])
    }
}

/// Re-proves `nodes` on the pool, its memo seeded by `records`, under a
/// fresh drain token — the one way a request reaches the solver.
fn prove(
    pool: &mut CheckerPool,
    drain: &DrainSignal,
    instance: &Arc<Instance>,
    nodes: &[NodeId],
    records: &Records,
) -> Result<(CheckReport, Records), CoreError> {
    let token = drain.begin();
    let result = pool.check_seeded(instance, nodes, records, &token);
    drain.end();
    result
}

/// Resolves a node name against a topology.
fn node_named(g: &Topology, name: &str) -> Result<NodeId, String> {
    g.node_by_name(name).ok_or_else(|| format!("no node named {name:?}"))
}

impl Loaded {
    /// The instance, with every committed delta applied (deltas edit the
    /// network and the interfaces, never the properties).
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The per-node records. Each node's key is the one a from-scratch
    /// [`timepiece_core::Fingerprints::compute`] gives it on
    /// [`Loaded::instance`].
    pub fn records(&self) -> &Records {
        &self.records
    }

    /// The nodes whose record is not verified — a failure or an unknown —
    /// in node order.
    pub fn failed_nodes(&self) -> Vec<NodeId> {
        self.records.iter().filter(|(_, record)| !record.is_verified()).map(|(v, _)| *v).collect()
    }

    fn nodes(&self) -> usize {
        self.instance.network.topology().node_count()
    }

    fn all_verified(&self) -> bool {
        self.records.len() == self.nodes() && self.records.values().all(Record::is_verified)
    }

    /// The names of the nodes whose record is not verified, of all nodes or
    /// (`Some`) of the named ones only.
    fn failed(&self, answered: Option<&[NodeId]>) -> Vec<Json> {
        let g = self.instance.network.topology();
        let failed = self.failed_nodes().into_iter();
        failed
            .filter(|v| answered.is_none_or(|nodes| nodes.contains(v)))
            .map(|v| Json::str(g.name(v)))
            .collect()
    }

    /// The common `check`/`delta` response: the records' verdicts and
    /// whether they all hold — of every node, or (`Some`) of the nodes the
    /// request named — cone and cache-hit statistics over the same nodes,
    /// and what this request's job itself found: per-node durations and
    /// failures.
    fn report_response(
        &self,
        verb: &str,
        generation: u64,
        cone: &[NodeId],
        answered: Option<&[NodeId]>,
        report: &CheckReport,
        start: Instant,
    ) -> Json {
        let g = self.instance.network.topology();
        let nodes = self.nodes();
        let (verified, covered) = match answered {
            Some(named) => {
                let verified = |v: &NodeId| self.records.get(v).is_some_and(Record::is_verified);
                (named.iter().all(verified), named.len())
            }
            None => (self.all_verified(), nodes),
        };
        let cone_names: Vec<Json> = cone.iter().map(|v| Json::str(g.name(*v))).collect();
        let verdicts: Vec<(String, Json)> = self
            .records
            .iter()
            .filter(|(v, _)| answered.is_none_or(|nodes| nodes.contains(v)))
            .map(|(v, record)| {
                let word = if record.is_verified() { "verified" } else { "failed" };
                (g.name(*v).to_owned(), Json::str(word))
            })
            .collect();
        let durations = report
            .node_durations()
            .iter()
            .map(|&(v, d)| Json::arr([Json::str(g.name(v)), Json::Num(d.as_secs_f64())]));
        let failures = report.failures().iter().map(|f| {
            let kind = match f.reason {
                FailureReason::CounterExample(_) => "counterexample",
                FailureReason::Unknown(_) => "unknown",
            };
            Json::obj([
                ("node", Json::str(f.node_name.clone())),
                ("vc", Json::str(f.vc.to_string())),
                ("kind", Json::str(kind)),
            ])
        });
        let mut pairs = vec![
            ("verb".to_owned(), Json::str(verb)),
            ("ok".to_owned(), Json::Bool(true)),
            ("label".to_owned(), Json::str(self.label.clone())),
            ("generation".to_owned(), Json::Num(generation as f64)),
            ("verified".to_owned(), Json::Bool(verified)),
            ("nodes".to_owned(), Json::from(nodes)),
            ("cone".to_owned(), Json::Arr(cone_names)),
            ("cone_size".to_owned(), Json::from(cone.len())),
            ("cached".to_owned(), Json::from(covered.saturating_sub(cone.len()))),
            ("checked".to_owned(), Json::from(report.node_durations().len())),
            ("failed".to_owned(), Json::Arr(self.failed(answered))),
            ("verdicts".to_owned(), Json::Obj(verdicts)),
            ("durations".to_owned(), Json::arr(durations)),
            ("failures".to_owned(), Json::arr(failures)),
            ("wall_ms".to_owned(), Json::Num(start.elapsed().as_secs_f64() * 1e3)),
        ];
        if let Some(terms) = report.term_cache() {
            pairs.push(("term_hits".to_owned(), Json::from(terms.hits as usize)));
            pairs.push(("term_misses".to_owned(), Json::from(terms.misses as usize)));
        }
        // how the job's nodes got their verdicts: proved, or answered by
        // the proof of an equal key — a record's, or one this job found
        let memo = report.memo();
        pairs.push(("memo_proofs".to_owned(), Json::from(memo.proofs)));
        pairs.push(("memo_hits".to_owned(), Json::from(memo.hits)));
        Json::Obj(pairs)
    }

    /// Resolves a node name against the topology.
    fn node(&self, name: &str) -> Result<NodeId, String> {
        node_named(self.instance.network.topology(), name)
    }

    /// The delta that replaces the network by an edited one.
    fn network_edit(&self, network: Network, downed: Downed, footprint: Vec<NodeId>) -> Applied {
        let Instance { interface, property, .. } = &*self.instance;
        let instance =
            Instance { network, interface: interface.clone(), property: property.clone() };
        Applied { instance, downed, footprint }
    }

    /// Applies one delta to a *copy* of the instance; the caller commits it
    /// after the cone re-check.
    fn apply(&self, delta: &Delta) -> Result<Applied, String> {
        match delta {
            Delta::LinkDown { u, v } => self.apply_link_down(u, v),
            Delta::LinkUp { u, v } => self.apply_link_up(u, v),
            Delta::EdgePolicy { u, v, policy } => self.apply_edge_policy(u, v, policy),
            Delta::WitnessTime { node, tau } => self.apply_witness_time(node, *tau),
            Delta::FailureBudget { budget } => {
                let net = self
                    .instance
                    .network
                    .with_failure_budget(*budget)
                    .map_err(|e| format!("failure_budget: {e}"))?;
                let footprint = net.topology().nodes().collect();
                Ok(self.network_edit(net, self.downed.clone(), footprint))
            }
        }
    }

    /// Installs an always-drop policy on every existing direction of the
    /// link, remembering each direction's previous policy override.
    fn apply_link_down(&self, u: &str, v: &str) -> Result<Applied, String> {
        let (u, v) = (self.node(u)?, self.node(v)?);
        let g = self.instance.network.topology();
        let directions: Vec<(NodeId, NodeId)> =
            [(u, v), (v, u)].into_iter().filter(|(a, b)| g.succs(*a).contains(b)).collect();
        if directions.is_empty() {
            return Err(format!("no link between {:?} and {:?}", g.name(u), g.name(v)));
        }
        if directions.iter().any(|edge| self.downed.contains_key(edge)) {
            return Err(format!("link {:?} -- {:?} is already down", g.name(u), g.name(v)));
        }
        let policies = self.instance.network.policies().ok_or("the network has no policy IR")?;
        // borrowed until the first edit: `set_edge_policy` makes the copy
        let mut net = Cow::Borrowed(&self.instance.network);
        let mut downed = self.downed.clone();
        for edge in directions {
            downed.insert(edge, policies.edge_policies.get(&edge).cloned());
            let dropped = net
                .set_edge_policy(edge, Some(RoutePolicy::new().drop_if(RouteGuard::True)))
                .map_err(|e| format!("link_down: {e}"))?;
            net = Cow::Owned(dropped);
        }
        Ok(self.network_edit(net.into_owned(), downed, vec![u, v]))
    }

    /// Restores the remembered pre-`link_down` policies of the link.
    fn apply_link_up(&self, u: &str, v: &str) -> Result<Applied, String> {
        let (u, v) = (self.node(u)?, self.node(v)?);
        let g = self.instance.network.topology();
        let directions: Vec<(NodeId, NodeId)> =
            [(u, v), (v, u)].into_iter().filter(|edge| self.downed.contains_key(edge)).collect();
        if directions.is_empty() {
            return Err(format!("link {:?} -- {:?} is not down", g.name(u), g.name(v)));
        }
        let mut net = Cow::Borrowed(&self.instance.network);
        let mut downed = self.downed.clone();
        for edge in directions {
            let remembered = downed.remove(&edge).expect("direction filtered on membership");
            let restored =
                net.set_edge_policy(edge, remembered).map_err(|e| format!("link_up: {e}"))?;
            net = Cow::Owned(restored);
        }
        Ok(self.network_edit(net.into_owned(), downed, vec![u, v]))
    }

    /// Replaces one directed edge's policy override.
    fn apply_edge_policy(&self, u: &str, v: &str, spec: &PolicySpec) -> Result<Applied, String> {
        let edge = (self.node(u)?, self.node(v)?);
        if self.downed.contains_key(&edge) {
            return Err(format!("edge {u:?} -> {v:?} is down; bring the link up first"));
        }
        let policy = match spec {
            PolicySpec::Drop => Some(RoutePolicy::new().drop_if(RouteGuard::True)),
            PolicySpec::Default => None,
            PolicySpec::Increment(field) => {
                let policies =
                    self.instance.network.policies().ok_or("the network has no policy IR")?;
                let known = policies.schema.record_def().fields();
                if !known.iter().any(|(name, _)| name == field) {
                    let names: Vec<&str> = known.iter().map(|(name, _)| name.as_str()).collect();
                    return Err(format!("no route field {field:?}; the schema has {names:?}"));
                }
                Some(RoutePolicy::new().increment(field.clone()))
            }
        };
        let net = self
            .instance
            .network
            .set_edge_policy(edge, policy)
            .map_err(|e| format!("edge_policy: {e}"))?;
        Ok(self.network_edit(net, self.downed.clone(), vec![edge.1]))
    }

    /// Rewrites the outermost witness time of one node's interface.
    fn apply_witness_time(&self, node: &str, tau: i64) -> Result<Applied, String> {
        let v = self.node(node)?;
        let Instance { network, interface, property } = &*self.instance;
        let edited = interface
            .get(v)
            .with_witness(&Expr::int(tau))
            .ok_or_else(|| format!("the interface of {node:?} has no witness time"))?;
        let mut interface = interface.clone();
        interface.set(v, edited);
        let footprint = interface_cone(network.topology(), v);
        let instance = Instance { network: network.clone(), interface, property: property.clone() };
        Ok(Applied { instance, downed: self.downed.clone(), footprint })
    }
}
