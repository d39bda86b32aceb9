//! The daemon's warm verification state and request handler.
//!
//! A [`DaemonState`] is everything `timepieced` keeps hot between requests:
//! the compiled [`Network`] (canonical arena terms), the interface and
//! property annotations, a persistent [`CheckerPool`] whose workers hold
//! one solver session each (keyed by what the network declares, so edits
//! keep it), the last
//! [`Fingerprints`] snapshot, and a [`VerdictCache`] with the last verdict
//! per node. Handling a `delta` request means: apply the edit to get a new
//! network/interface, re-fingerprint the edit's topological *footprint*,
//! diff into the dirty cone, re-check *only* the cone through the
//! still-warm pool, and fold the partial report back into the cache — so a
//! delta costs what its cone costs, not what the network costs.
//!
//! The handler is transport-agnostic — it maps a parsed
//! [`Request`] to a response [`Json`] — so the TCP server, the benchmark
//! and the equivalence tests all drive the same code.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use timepiece_algebra::policy::{RouteGuard, RoutePolicy};
use timepiece_algebra::Network;
use timepiece_core::check::{CheckOptions, CheckReport};
use timepiece_core::incremental::interface_cone;
use timepiece_core::sweep::CheckerPool;
use timepiece_core::{Fingerprints, NodeAnnotations, VerdictCache};
use timepiece_expr::Expr;
use timepiece_nets::BenchInstance;
use timepiece_sched::CancelToken;
use timepiece_topology::NodeId;
use timepiece_trace::{Json, Phase};

use crate::protocol::{error_response, Delta, PolicySpec, Request};

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

/// The downed-link book: each installed drop-policy direction, mapped to
/// the edge's pre-`link_down` policy override so `link_up` can restore it.
type Downed = HashMap<(NodeId, NodeId), Option<RoutePolicy>>;

/// A network edit applied but not yet committed: the delta handler builds
/// this, re-checks the dirty cone, and only then swaps it into the state.
/// Only what the delta edits is here (`None`: untouched, the state's own
/// copy stands).
struct Applied {
    net: Option<Network>,
    interface: Option<NodeAnnotations>,
    downed: Option<Downed>,
    /// A topological upper bound on the nodes whose conditions the edit can
    /// change — the only ones worth re-fingerprinting: an edge's policy
    /// feeds its head's merge alone, an interface is assumed by the node's
    /// successors, the failure budget is assumed by every condition.
    footprint: Vec<NodeId>,
}

/// The warm verification state of one `timepieced` instance. See the
/// module docs.
#[derive(Debug)]
pub struct DaemonState {
    label: String,
    net: Network,
    interface: NodeAnnotations,
    property: NodeAnnotations,
    delay: u64,
    pool: CheckerPool,
    fingerprints: Fingerprints,
    verdicts: VerdictCache,
    downed: Downed,
    drain: DrainSignal,
    requests: u64,
    deltas: u64,
}

impl DaemonState {
    /// Compiles the instance, spawns the persistent checker pool, and runs
    /// the initial full check so the first client request already hits warm
    /// sessions and a populated verdict cache.
    ///
    /// # Errors
    ///
    /// Any [`timepiece_core::CoreError`] of the initial check.
    pub fn new(
        label: impl Into<String>,
        instance: BenchInstance,
        options: CheckOptions,
    ) -> Result<DaemonState, timepiece_core::CoreError> {
        let delay = options.delay;
        let mut pool = CheckerPool::with_default_parallelism(options);
        let BenchInstance { network: net, interface, property } = instance;
        let fingerprints = Fingerprints::compute(&net, &interface, &property, delay);
        let report = pool.check(&net, &interface, &property)?;
        let mut verdicts = VerdictCache::new();
        verdicts.absorb(&report);
        Ok(DaemonState {
            label: label.into(),
            net,
            interface,
            property,
            delay,
            pool,
            fingerprints,
            verdicts,
            downed: HashMap::new(),
            drain: DrainSignal::new(),
            requests: 0,
            deltas: 0,
        })
    }

    /// The drain signal shared with the serving threads: raise it to cancel
    /// the in-flight check and pre-cancel later ones.
    pub fn drain(&self) -> DrainSignal {
        self.drain.clone()
    }

    /// The instance label (e.g. `"SpReach k=8"`).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The current network, with every committed delta applied — what a
    /// from-scratch reference check must agree with.
    pub fn net(&self) -> &Network {
        &self.net
    }

    /// The current interface annotations (witness-time deltas included).
    pub fn interface(&self) -> &NodeAnnotations {
        &self.interface
    }

    /// The property annotations (deltas never change these).
    pub fn property(&self) -> &NodeAnnotations {
        &self.property
    }

    /// The cached per-node verdicts.
    pub fn verdicts(&self) -> &VerdictCache {
        &self.verdicts
    }

    /// The per-node condition fingerprints of the current instance, kept up
    /// to date footprint by footprint — always equal to a from-scratch
    /// [`Fingerprints::compute`].
    pub fn fingerprints(&self) -> &Fingerprints {
        &self.fingerprints
    }

    /// How many nodes the instance has.
    pub fn nodes(&self) -> usize {
        self.net.topology().node_count()
    }

    /// Does every node have a cached verified verdict?
    pub fn all_verified(&self) -> bool {
        self.verdicts.len() == self.nodes() && self.verdicts.all_verified()
    }

    /// Handles one request, updating the state. Each call is traced as one
    /// [`Phase::Request`] span and counted in the `daemon.requests` metric;
    /// deltas additionally record their cone size and latency.
    pub fn handle(&mut self, request: &Request) -> Handled {
        let verb = match request {
            Request::Check => "check",
            Request::Delta(_) => "delta",
            Request::Status => "status",
            Request::Profile => "profile",
            Request::Shutdown => "shutdown",
        };
        let _span = timepiece_trace::span(Phase::Request, verb);
        timepiece_trace::counter("daemon.requests").inc();
        self.requests += 1;
        let mut shutdown = false;
        let reply = match request {
            Request::Check => self.handle_check(),
            Request::Delta(delta) => self.handle_delta(delta),
            Request::Status => self.handle_status(),
            Request::Profile => Json::obj([
                ("verb", Json::str("profile")),
                ("ok", Json::Bool(true)),
                ("metrics", timepiece_trace::metrics_json()),
            ]),
            Request::Shutdown => {
                shutdown = true;
                Json::obj([("verb", Json::str("shutdown")), ("ok", Json::Bool(true))])
            }
        };
        Handled { reply, shutdown }
    }

    /// `check`: re-verify every node through the warm pool.
    fn handle_check(&mut self) -> Json {
        let start = Instant::now();
        let cone: Vec<NodeId> = self.net.topology().nodes().collect();
        let token = self.drain.begin();
        let result =
            self.pool.check_nodes(&self.net, &self.interface, &self.property, &cone, &token);
        self.drain.end();
        match result {
            Ok(report) => {
                self.verdicts.invalidate(&cone);
                self.verdicts.absorb(&report);
                self.report_response("check", &cone, &report, start)
            }
            Err(e) => error_response(format!("check failed: {e}")),
        }
    }

    /// `delta`: apply the edit, diff fingerprints into the dirty cone,
    /// re-check only the cone, commit.
    fn handle_delta(&mut self, delta: &Delta) -> Json {
        let start = Instant::now();
        let applied = match self.apply(delta) {
            Ok(applied) => applied,
            Err(message) => return error_response(message),
        };
        let net = applied.net.as_ref().unwrap_or(&self.net);
        let interface = applied.interface.as_ref().unwrap_or(&self.interface);
        let after = self.fingerprints.refreshed(
            net,
            interface,
            &self.property,
            self.delay,
            &applied.footprint,
        );
        let cone = self.fingerprints.dirty_cone(&after);
        let token = self.drain.begin();
        let result = self.pool.check_nodes(net, interface, &self.property, &cone, &token);
        self.drain.end();
        let report = match result {
            Ok(report) => report,
            Err(e) => return error_response(format!("re-check failed: {e}")),
        };
        // commit: the edited instance is now the daemon's instance; cone
        // nodes the (possibly cancelled) report did not reach stay
        // invalidated rather than serving a stale verdict
        if let Some(net) = applied.net {
            self.net = net;
        }
        if let Some(interface) = applied.interface {
            self.interface = interface;
        }
        if let Some(downed) = applied.downed {
            self.downed = downed;
        }
        self.fingerprints = after;
        self.verdicts.invalidate(&cone);
        self.verdicts.absorb(&report);
        self.deltas += 1;
        timepiece_trace::counter("daemon.deltas").inc();
        timepiece_trace::histogram("daemon.cone_nodes").record(cone.len() as u64);
        timepiece_trace::histogram("daemon.delta_ns").record_duration(start.elapsed());
        self.report_response("delta", &cone, &report, start)
    }

    /// `status`: the instance and cache summary.
    fn handle_status(&self) -> Json {
        let g = self.net.topology();
        let failed: Vec<Json> =
            self.verdicts.failed_nodes().iter().map(|v| Json::str(g.name(*v))).collect();
        let sessions = self.pool.session_stats();
        Json::obj([
            ("verb", Json::str("status")),
            ("ok", Json::Bool(true)),
            ("label", Json::str(self.label.clone())),
            ("nodes", Json::from(self.nodes())),
            ("workers", Json::from(self.pool.workers())),
            ("requests", Json::from(self.requests as usize)),
            ("deltas", Json::from(self.deltas as usize)),
            ("downed_edges", Json::from(self.downed.len())),
            ("verified", Json::Bool(self.all_verified())),
            ("cached_verdicts", Json::from(self.verdicts.len())),
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

    /// The common `check`/`delta` response: per-node verdicts plus cone and
    /// cache-hit statistics.
    fn report_response(
        &self,
        verb: &str,
        cone: &[NodeId],
        report: &CheckReport,
        start: Instant,
    ) -> Json {
        let g = self.net.topology();
        let nodes = self.nodes();
        let cone_names: Vec<Json> = cone.iter().map(|v| Json::str(g.name(*v))).collect();
        let verdicts: Vec<(String, Json)> = self
            .verdicts
            .iter()
            .map(|(v, verdict)| {
                let word = if verdict.is_verified() { "verified" } else { "failed" };
                (g.name(v).to_owned(), Json::str(word))
            })
            .collect();
        let failed: Vec<Json> =
            self.verdicts.failed_nodes().iter().map(|v| Json::str(g.name(*v))).collect();
        let mut pairs = vec![
            ("verb".to_owned(), Json::str(verb)),
            ("ok".to_owned(), Json::Bool(true)),
            ("verified".to_owned(), Json::Bool(self.all_verified())),
            ("nodes".to_owned(), Json::from(nodes)),
            ("cone".to_owned(), Json::Arr(cone_names)),
            ("cone_size".to_owned(), Json::from(cone.len())),
            ("cached".to_owned(), Json::from(nodes.saturating_sub(cone.len()))),
            ("checked".to_owned(), Json::from(report.node_durations().len())),
            ("failed".to_owned(), Json::Arr(failed)),
            ("verdicts".to_owned(), Json::Obj(verdicts)),
            ("wall_ms".to_owned(), Json::Num(start.elapsed().as_secs_f64() * 1e3)),
        ];
        if let Some(terms) = report.term_cache() {
            pairs.push(("term_hits".to_owned(), Json::from(terms.hits as usize)));
            pairs.push(("term_misses".to_owned(), Json::from(terms.misses as usize)));
        }
        Json::Obj(pairs)
    }

    /// Resolves a node name against the topology.
    fn node(&self, name: &str) -> Result<NodeId, String> {
        self.net.topology().node_by_name(name).ok_or_else(|| format!("no node named {name:?}"))
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
                    .net
                    .with_failure_budget(*budget)
                    .map_err(|e| format!("failure_budget: {e}"))?;
                let footprint = self.net.topology().nodes().collect();
                Ok(Applied { net: Some(net), interface: None, downed: None, footprint })
            }
        }
    }

    /// Installs an always-drop policy on every existing direction of the
    /// link, remembering each direction's previous policy override.
    fn apply_link_down(&self, u: &str, v: &str) -> Result<Applied, String> {
        let (u, v) = (self.node(u)?, self.node(v)?);
        let g = self.net.topology();
        let directions: Vec<(NodeId, NodeId)> =
            [(u, v), (v, u)].into_iter().filter(|(a, b)| g.succs(*a).contains(b)).collect();
        if directions.is_empty() {
            return Err(format!("no link between {:?} and {:?}", g.name(u), g.name(v)));
        }
        if directions.iter().any(|edge| self.downed.contains_key(edge)) {
            return Err(format!("link {:?} -- {:?} is already down", g.name(u), g.name(v)));
        }
        let policies = self.net.policies().ok_or("the network has no policy IR")?;
        // borrowed until the first edit: `set_edge_policy` makes the copy
        let mut net = Cow::Borrowed(&self.net);
        let mut downed = self.downed.clone();
        for edge in directions {
            downed.insert(edge, policies.edge_policies.get(&edge).cloned());
            let dropped = net
                .set_edge_policy(edge, Some(RoutePolicy::new().drop_if(RouteGuard::True)))
                .map_err(|e| format!("link_down: {e}"))?;
            net = Cow::Owned(dropped);
        }
        let net = Some(net.into_owned());
        Ok(Applied { net, interface: None, downed: Some(downed), footprint: vec![u, v] })
    }

    /// Restores the remembered pre-`link_down` policies of the link.
    fn apply_link_up(&self, u: &str, v: &str) -> Result<Applied, String> {
        let (u, v) = (self.node(u)?, self.node(v)?);
        let g = self.net.topology();
        let directions: Vec<(NodeId, NodeId)> =
            [(u, v), (v, u)].into_iter().filter(|edge| self.downed.contains_key(edge)).collect();
        if directions.is_empty() {
            return Err(format!("link {:?} -- {:?} is not down", g.name(u), g.name(v)));
        }
        let mut net = Cow::Borrowed(&self.net);
        let mut downed = self.downed.clone();
        for edge in directions {
            let remembered = downed.remove(&edge).expect("direction filtered on membership");
            let restored =
                net.set_edge_policy(edge, remembered).map_err(|e| format!("link_up: {e}"))?;
            net = Cow::Owned(restored);
        }
        let net = Some(net.into_owned());
        Ok(Applied { net, interface: None, downed: Some(downed), footprint: vec![u, v] })
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
                let policies = self.net.policies().ok_or("the network has no policy IR")?;
                let known = policies.schema.record_def().fields();
                if !known.iter().any(|(name, _)| name == field) {
                    let names: Vec<&str> = known.iter().map(|(name, _)| name.as_str()).collect();
                    return Err(format!("no route field {field:?}; the schema has {names:?}"));
                }
                Some(RoutePolicy::new().increment(field.clone()))
            }
        };
        let net =
            self.net.set_edge_policy(edge, policy).map_err(|e| format!("edge_policy: {e}"))?;
        Ok(Applied { net: Some(net), interface: None, downed: None, footprint: vec![edge.1] })
    }

    /// Rewrites the outermost witness time of one node's interface.
    fn apply_witness_time(&self, node: &str, tau: i64) -> Result<Applied, String> {
        let v = self.node(node)?;
        let edited = self
            .interface
            .get(v)
            .with_witness(&Expr::int(tau))
            .ok_or_else(|| format!("the interface of {node:?} has no witness time"))?;
        let mut interface = self.interface.clone();
        interface.set(v, edited);
        let footprint = interface_cone(self.net.topology(), v);
        Ok(Applied { net: None, interface: Some(interface), downed: None, footprint })
    }
}
