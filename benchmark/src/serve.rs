//! `serve-edits`: one warm `timepieced` driven over loopback TCP by two
//! closed-loop clients (each waits for a reply before its next request).
//!
//! The same `core`/`smt` layers the batch workloads use cold are used warm
//! here: two-node dirty cones through persistent solver sessions, beside
//! fingerprinting, the verdict cache and NDJSON framing. Edits (writes) sit
//! beside full checks and status reads, so a change that speeds one at the
//! other's cost shows.
//!
//! Every client owns a disjoint, seeded share of the links and nodes, so no
//! generated request is invalid and the clients' edits commute: the network
//! after both clients' edit phases does not depend on how their requests
//! interleaved. That state's verdicts are checked against a from-scratch
//! check of a reference network the benchmark edits itself.

use std::net::{SocketAddr, TcpListener};
use std::sync::Barrier;
use std::thread::JoinHandle;
use std::time::Instant;

use timepiece_algebra::policy::{RouteGuard, RoutePolicy};
use timepiece_core::check::CheckOptions;
use timepiece_core::Fingerprints;
use timepiece_daemon::{Client, DaemonState, Delta, PolicySpec, Request};
use timepiece_expr::Expr;
use timepiece_nets::BenchInstance;
use timepiece_topology::FatTree;
use timepiece_trace::Json;

use crate::batch::checker;
use crate::engine::{pass_rng, Pass, Samples, Workload};
use crate::layers::{timed, Walk, SOLVER_TIMEOUT};
use crate::plan::{failing_nodes, ScenarioPlan};
use crate::spec::THREADS;
use crate::util::{median, ms, quantile, Rng};

const CLIENTS: usize = 2;

/// One edit left standing at the end of a client's edit phase.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Edit {
    LinkDown(String, String),
    PolicyDrop(String, String),
    Witness(String, i64),
}

/// The links and nodes one client may edit.
#[derive(Debug, Clone)]
struct Pools {
    /// Undirected links this client takes down and brings up.
    links: Vec<(String, String)>,
    /// Directed edges whose policy this client overrides.
    policy_edges: Vec<(String, String)>,
    /// Nodes whose witness time this client edits, with the original time.
    nodes: Vec<(String, i64)>,
}

#[derive(Debug, Clone)]
pub struct ServePlan {
    seed: u64,
    scenario: ScenarioPlan,
    pools: Vec<Pools>,
    /// Edits each client makes per pass: links, witness times, edge policies.
    mix: [usize; 3],
}

/// What one client sends in one pass.
#[derive(Debug, Clone, Default)]
struct Stream {
    edits: Vec<Request>,
    outstanding: Vec<Edit>,
    restores: Vec<Request>,
}

fn link_request(down: bool, (u, v): (String, String)) -> Request {
    Request::Delta(if down { Delta::LinkDown { u, v } } else { Delta::LinkUp { u, v } })
}

fn policy_request((u, v): (String, String), policy: PolicySpec) -> Request {
    Request::Delta(Delta::EdgePolicy { u, v, policy })
}

fn witness_request(node: String, tau: i64) -> Request {
    Request::Delta(Delta::WitnessTime { node, tau })
}

/// One client's requests for one pass. The composition is fixed — `mix`
/// edits by kind (links, witness times, edge policies), each made once and
/// undone once, and one full check — so passes cost the same; the seed picks
/// the targets, the order, and whether an edit is undone inside the edit
/// phase or left standing for the restore phase.
fn generate(pools: &Pools, mix: [usize; 3], rng: &mut Rng) -> Stream {
    let (mut links, mut nodes, mut edges) =
        (pools.links.clone(), pools.nodes.clone(), pools.policy_edges.clone());
    // (the edit, its undoing, what stands in between)
    let mut pairs: Vec<(Request, Request, Edit)> = Vec::new();
    for _ in 0..mix[0] {
        let link = rng.take(&mut links);
        let standing = Edit::LinkDown(link.0.clone(), link.1.clone());
        pairs.push((link_request(true, link.clone()), link_request(false, link), standing));
    }
    for _ in 0..mix[1] {
        let (node, tau) = rng.take(&mut nodes);
        let moved = tau + 1 + rng.below(3) as i64;
        let standing = Edit::Witness(node.clone(), moved);
        pairs.push((witness_request(node.clone(), moved), witness_request(node, tau), standing));
    }
    for _ in 0..mix[2] {
        let edge = rng.take(&mut edges);
        let standing = Edit::PolicyDrop(edge.0.clone(), edge.1.clone());
        let undo = policy_request(edge.clone(), PolicySpec::Default);
        pairs.push((policy_request(edge, PolicySpec::Drop), undo, standing));
    }

    // tokens (pair, is_undo): every edit, and the undoing of about half
    let mut tokens: Vec<(usize, bool)> = (0..pairs.len()).map(|i| (i, false)).collect();
    let mut stream = Stream::default();
    for (i, (_, undo, standing)) in pairs.iter().enumerate() {
        if rng.below(2) == 0 {
            tokens.push((i, true));
        } else {
            stream.outstanding.push(standing.clone());
            stream.restores.push(undo.clone());
        }
    }
    rng.shuffle(&mut tokens);
    // an undoing drawn ahead of its edit trades places with it
    for i in 0..pairs.len() {
        let at = |undo: bool| tokens.iter().position(|t| *t == (i, undo));
        if let (Some(edit), Some(undo)) = (at(false), at(true)) {
            if undo < edit {
                tokens.swap(edit, undo);
            }
        }
    }
    stream.edits = tokens
        .iter()
        .map(|&(i, undo)| if undo { pairs[i].1.clone() } else { pairs[i].0.clone() })
        .collect();
    // the read beside the writes
    stream.edits.insert(rng.below(stream.edits.len() + 1), Request::Check);
    stream
}

fn streams(plan: &ServePlan, rng: &mut Rng) -> Vec<Stream> {
    plan.pools.iter().map(|pools| generate(pools, plan.mix, rng)).collect()
}

fn drop_policy() -> Option<RoutePolicy> {
    Some(RoutePolicy::new().drop_if(RouteGuard::True))
}

/// The benchmark's own model of what the edits mean, applied to a fresh
/// instance — the network the daemon should be holding.
fn reference_instance(scenario: &ScenarioPlan, edits: &[Edit]) -> Result<BenchInstance, String> {
    let BenchInstance { mut network, mut interface, property } = scenario.build();
    let node = |net: &timepiece_algebra::Network, name: &str| {
        net.topology().node_by_name(name).ok_or_else(|| format!("no node {name}"))
    };
    for edit in edits {
        match edit {
            Edit::LinkDown(u, v) => {
                let (u, v) = (node(&network, u)?, node(&network, v)?);
                for (a, b) in [(u, v), (v, u)] {
                    if network.topology().succs(a).contains(&b) {
                        network = network
                            .set_edge_policy((a, b), drop_policy())
                            .map_err(|e| e.to_string())?;
                    }
                }
            }
            Edit::PolicyDrop(u, v) => {
                let edge = (node(&network, u)?, node(&network, v)?);
                network =
                    network.set_edge_policy(edge, drop_policy()).map_err(|e| e.to_string())?;
            }
            Edit::Witness(name, tau) => {
                let v = node(&network, name)?;
                let edited = interface
                    .get(v)
                    .with_witness(&Expr::int(*tau))
                    .ok_or_else(|| format!("{name} has no witness time"))?;
                interface.set(v, edited);
            }
        }
    }
    Ok(BenchInstance { network, interface, property })
}

/// The known answer for a set of standing edits: the nodes a from-scratch
/// check of the reference network fails.
fn reference_failing(scenario: &ScenarioPlan, edits: &[Edit]) -> Result<Vec<String>, String> {
    let inst = reference_instance(scenario, edits)?;
    let report = checker()
        .check(&inst.network, &inst.interface, &inst.property)
        .map_err(|e| format!("reference check: {e}"))?;
    match failing_nodes(&report) {
        (names, 0) => Ok(names),
        (_, unknown) => Err(format!("the reference check gave up on {unknown} conditions")),
    }
}

fn daemon_options() -> CheckOptions {
    CheckOptions {
        timeout: Some(SOLVER_TIMEOUT),
        threads: Some(THREADS),
        session_cap: Some(64),
        ..CheckOptions::default()
    }
}

fn names(reply: &Json, key: &str) -> Vec<String> {
    let mut out: Vec<String> = reply
        .get(key)
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_str).map(str::to_owned).collect())
        .unwrap_or_default();
    out.sort();
    out
}

/// The mid-pass state one pass left for `verify`: the edits standing at the
/// barrier, and what the daemon's verdict cache said failed.
#[derive(Debug)]
struct MidState {
    outstanding: Vec<Edit>,
    daemon_failing: Vec<String>,
}

#[derive(Debug)]
pub struct Serve {
    plan: ServePlan,
    addr: SocketAddr,
    server: Option<JoinHandle<std::io::Result<()>>>,
    clients: Vec<Client>,
    mid_states: Vec<MidState>,
}

impl Serve {
    /// Sends one request, records it in `out`, and returns the reply.
    fn send(client: &mut Client, request: &Request, out: &mut Pass) -> Option<Json> {
        let start = Instant::now();
        let reply = client.send(request);
        let rtt = ms(start.elapsed());
        out.attempted += 1;
        let reply = match reply {
            Ok(reply) if reply.get("ok").and_then(Json::as_bool) == Some(true) => reply,
            Ok(reply) => {
                out.fail(1, format!("{request:?} was refused: {reply}"));
                return None;
            }
            Err(e) => {
                out.fail(1, format!("{request:?}: {e}"));
                return None;
            }
        };
        match request {
            Request::Delta(_) => out.op_ms.push(rtt),
            Request::Check => out.full_check_ms.push(rtt),
            _ => {}
        }
        // a reply's summary flag must agree with its own verdict list
        if let Some(verified) = reply.get("verified").and_then(Json::as_bool) {
            if verified != names(&reply, "failed").is_empty() {
                out.fail(1, format!("{request:?}: `verified` contradicts `failed` in {reply}"));
            }
        }
        Some(reply)
    }

    /// One pass over TCP with `threads` client connections sharing the
    /// streams (with one thread, a single client sends every stream).
    fn storm(&mut self, streams: &[Stream], threads: usize, out: &mut Pass) {
        let barrier = Barrier::new(threads);
        let start = Instant::now();
        let mut partials: Vec<(Pass, Vec<String>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .take(threads)
                .enumerate()
                .map(|(i, client)| {
                    let barrier = &barrier;
                    let mine: Vec<&Stream> = streams.iter().skip(i).step_by(threads).collect();
                    scope.spawn(move || {
                        let mut part = Pass::default();
                        let mut failing = Vec::new();
                        for request in mine.iter().flat_map(|s| &s.edits) {
                            Serve::send(client, request, &mut part);
                        }
                        // every client's edits stand: ask what the daemon's
                        // verdict cache holds, without a re-check
                        barrier.wait();
                        if i == 0 {
                            if let Some(reply) = Serve::send(client, &Request::Status, &mut part) {
                                failing = names(&reply, "failed");
                            }
                        }
                        barrier.wait();
                        for request in mine.iter().flat_map(|s| &s.restores) {
                            Serve::send(client, request, &mut part);
                        }
                        (part, failing)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        });
        // every edit is undone: the daemon must hold a fully verified network
        let mut last = Pass::default();
        match Serve::send(&mut self.clients[0], &Request::Status, &mut last) {
            Some(reply) if reply.get("verified").and_then(Json::as_bool) == Some(true) => {}
            Some(reply) => last.fail(1, format!("not verified after the restores: {reply}")),
            None => {}
        }
        out.wall += start.elapsed();
        let daemon_failing = std::mem::take(&mut partials[0].1);
        for (part, _) in partials.into_iter().chain([(last, Vec::new())]) {
            out.op_ms.extend(part.op_ms);
            out.full_check_ms.extend(part.full_check_ms);
            out.attempted += part.attempted;
            out.failed += part.failed;
            out.errors.extend(part.errors);
        }
        self.mid_states.push(MidState {
            outstanding: streams.iter().flat_map(|s| s.outstanding.iter().cloned()).collect(),
            daemon_failing,
        });
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(server) = self.server.take() else { return Ok(()) };
        let mut closer = Client::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        closer.send(&Request::Shutdown).map_err(|e| format!("shutdown: {e}"))?;
        self.clients.clear();
        server
            .join()
            .map_err(|_| "the server thread panicked".to_owned())?
            .map_err(|e| format!("serve: {e}"))
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        // errors here have nowhere to go; `verify` reports them on the
        // path that matters
        let _ = self.shutdown();
    }
}

impl Workload for Serve {
    const NAME: &'static str = "serve-edits";
    type Plan = ServePlan;

    fn plan(seed: u64, quick: bool) -> ServePlan {
        let mut rng = Rng::new(seed).fork(0x5e7e);
        let k = if quick { 4 } else { 8 };
        let scenario = ScenarioPlan::draw("SpReach", k, 0, &mut rng);
        let ft = FatTree::new(k);
        let g = ft.topology();
        let dest = ft.edge_nodes().nth(scenario.dest).expect("destination index in range");
        let mut links: Vec<(String, String)> = g
            .edges()
            .filter(|(u, v)| u < v)
            .map(|(u, v)| (g.name(u).to_owned(), g.name(v).to_owned()))
            .collect();
        links.sort();
        rng.shuffle(&mut links);
        let mut nodes: Vec<(String, i64)> =
            g.nodes().map(|v| (g.name(v).to_owned(), ft.dist(v, dest) as i64)).collect();
        nodes.sort();
        rng.shuffle(&mut nodes);
        let pools = (0..CLIENTS)
            .map(|i| {
                let mine: Vec<(String, String)> =
                    links.iter().skip(i).step_by(CLIENTS).cloned().collect();
                // a third of a client's links carry policy edits instead
                let (policy_edges, links) = mine.split_at(mine.len() / 3);
                Pools {
                    links: links.to_vec(),
                    policy_edges: policy_edges.to_vec(),
                    nodes: nodes.iter().skip(i).step_by(CLIENTS).cloned().collect(),
                }
            })
            .collect();
        ServePlan { seed, scenario, pools, mix: if quick { [1, 1, 1] } else { [4, 1, 1] } }
    }

    fn answers(plan: &ServePlan) -> Result<Json, String> {
        let first = streams(plan, &mut pass_rng(plan.seed));
        let outstanding: Vec<Edit> =
            first.iter().flat_map(|s| s.outstanding.iter().cloned()).collect();
        let failing = reference_failing(&plan.scenario, &outstanding)?;
        Ok(Json::obj([
            ("scenario", plan.scenario.to_json()),
            ("edits_per_client", Json::arr(plan.mix.iter().map(|&n| Json::from(n)))),
            ("first_pass_standing_edits", Json::from(outstanding.len())),
            ("first_pass_failing", Json::arr(failing.into_iter().map(Json::str))),
        ]))
    }

    /// Builds the instance, starts the daemon (whose constructor runs the
    /// initial full check), serves it on a loopback port, connects the
    /// clients and has each ask for the status.
    fn setup(plan: &ServePlan) -> Result<Serve, String> {
        let state =
            DaemonState::new(plan.scenario.label(), plan.scenario.build(), daemon_options())
                .map_err(|e| format!("daemon warm-up check: {e}"))?;
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| format!("local addr: {e}"))?;
        let server = std::thread::spawn(move || timepiece_daemon::serve(listener, state));
        let mut serve = Serve {
            plan: plan.clone(),
            addr,
            server: Some(server),
            clients: Vec::new(),
            mid_states: Vec::new(),
        };
        for _ in 0..CLIENTS {
            let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
            let status = client.send(&Request::Status).map_err(|e| format!("status: {e}"))?;
            if status.get("verified").and_then(Json::as_bool) != Some(true) {
                return Err(format!("the daemon did not start verified: {status}"));
            }
            serve.clients.push(client);
        }
        Ok(serve)
    }

    fn pass(&mut self, _index: usize, rng: &mut Rng, out: &mut Pass) {
        let streams = streams(&self.plan, rng);
        self.storm(&streams, CLIENTS, out);
    }

    fn verify(mut self, plan: &ServePlan) -> Vec<String> {
        let mut errors = Vec::new();
        if let Err(e) = self.shutdown() {
            errors.push(e);
        }
        for (i, mid) in self.mid_states.iter().enumerate() {
            match reference_failing(&plan.scenario, &mid.outstanding) {
                Ok(expected) if expected == mid.daemon_failing => {}
                Ok(expected) => errors.push(format!(
                    "pass {i}: with {} edits standing the daemon reports failing {:?}, a from-scratch check {expected:?}",
                    mid.outstanding.len(),
                    mid.daemon_failing,
                )),
                Err(e) => errors.push(format!("pass {i}: {e}")),
            }
        }
        errors
    }

    fn walk(plan: &ServePlan, walk: &mut Walk) {
        walk.instance(Some(plan.scenario.k), || plan.scenario.build(), &[]);
        // the two incremental steps of a delta, on a one-link edit
        let before = plan.scenario.build();
        let link = &plan.pools[0].links[0];
        let after =
            reference_instance(&plan.scenario, &[Edit::LinkDown(link.0.clone(), link.1.clone())])
                .expect("the plan's links exist");
        let fingerprint = |inst: &BenchInstance| {
            timed("core.fingerprint", || {
                Fingerprints::compute(&inst.network, &inst.interface, &inst.property, 0)
            })
        };
        let ((old, t_old), (new, t_new)) = (fingerprint(&before), fingerprint(&after));
        walk.add("core.fingerprint_ms", (t_old + t_new) / 2.0);
        let (cone, t) = timed("core.dirty_cone", || old.dirty_cone(&new));
        walk.add("core.dirty_cone_ms", t);
        walk.attempted += 1;
        // a downed link changes exactly its two endpoints' conditions
        walk.wrong += usize::from(cone.len() != 2);
    }

    /// The two-client round trips of the traced passes; one single-client
    /// pass (its round trips carry no queueing behind another client); and
    /// one stream replayed in process through `DaemonState::handle` (no wire
    /// at all), whose replies also give the cone and cache counts.
    fn probe(&mut self, traced: &[Pass], rng: &mut Rng, samples: &mut Samples) {
        let deltas: Vec<f64> = traced.iter().flat_map(|p| p.op_ms.iter().copied()).collect();
        samples.push("daemon.delta_p50_ms", median(&deltas));
        samples.push("daemon.delta_p95_ms", quantile(&deltas, 0.95));
        let requests: Vec<f64> = traced.iter().map(|p| p.attempted as f64).collect();
        samples.push("daemon.requests", median(&requests));

        let mut solo = Pass::default();
        let solo_streams = streams(&self.plan, rng);
        self.storm(&solo_streams, 1, &mut solo);
        let solo_p50 = median(&solo.op_ms);
        samples.push("daemon.solo_delta_p50_ms", solo_p50);
        samples.push("daemon.queue_wait_ms", median(&deltas) - solo_p50);

        let Ok(mut state) =
            DaemonState::new("replay", self.plan.scenario.build(), daemon_options())
        else {
            return;
        };
        let replay = streams(&self.plan, rng);
        let mut by_kind: std::collections::BTreeMap<&'static str, Vec<f64>> = Default::default();
        let (mut cone, mut cached, mut carried) = (Vec::new(), 0, 0);
        // as over the wire: the edit phases, the status read, the restores
        let edits = replay.iter().flat_map(|s| &s.edits);
        let restores = replay.iter().flat_map(|s| &s.restores);
        for request in edits.chain([&Request::Status]).chain(restores) {
            let start = Instant::now();
            let reply = state.handle(request).reply;
            let t = ms(start.elapsed());
            let kind = match request {
                Request::Delta(Delta::LinkDown { .. } | Delta::LinkUp { .. }) => "daemon.link_ms",
                Request::Delta(Delta::WitnessTime { .. }) => "daemon.witness_ms",
                Request::Delta(_) => "daemon.policy_ms",
                Request::Check => "daemon.handle_check_ms",
                _ => "daemon.handle_status_ms",
            };
            by_kind.entry(kind).or_default().push(t);
            if matches!(request, Request::Delta(_)) {
                by_kind.entry("daemon.handle_delta_ms").or_default().push(t);
                let field = |key: &str| reply.get(key).and_then(Json::as_usize).unwrap_or(0);
                cone.push(field("cone_size") as f64);
                cached += field("cached");
                carried += field("nodes");
            }
        }
        for (name, times) in &by_kind {
            samples.push(name, median(times));
        }
        let handle_p50 = by_kind.get("daemon.handle_delta_ms").map_or(0.0, |t| median(t));
        samples.push("daemon.wire_overhead_ms", solo_p50 - handle_p50);
        samples.push("core.cone_nodes_mean", cone.iter().sum::<f64>() / cone.len().max(1) as f64);
        samples.push("core.cache_served_frac", cached as f64 / carried.max(1) as f64);
    }
}
