//! The `repro soak` harness: concurrent delta streams against one warm
//! `timepieced` daemon.
//!
//! A soak run answers the serving question the sweep tables cannot: with
//! the network compiled once and solver sessions warm, how fast does the
//! daemon absorb a stream of edits? The harness starts an in-process daemon
//! on a loopback socket, then:
//!
//! 1. measures a **cold baseline** — a fresh [`CheckerPool`] running one
//!    full check, the cost every delta would pay without incrementality;
//! 2. runs a deterministic **probe** — one single-edge `link_down` followed
//!    by the restoring `link_up` — recording the dirty-cone size and
//!    latency (the acceptance numbers: the cone must be a small fraction of
//!    the nodes, the latency a small fraction of the baseline);
//! 3. unleashes the **storm** — `clients` threads, each streaming
//!    `deltas_per_client` randomized link toggles and witness-time edits
//!    from a seeded xorshift generator — and reports p50/p95 client-side
//!    latency, mean cone size, and the error count.
//!
//! Everything runs over the real TCP protocol, so queueing behind the
//! single state thread is part of the measurement.

use std::time::{Duration, Instant};

use timepiece_core::check::CheckOptions;
use timepiece_core::sweep::CheckerPool;
use timepiece_daemon::{Client, DaemonState, Delta, Request};
use timepiece_trace::Json;

use crate::runner::{fattree_instance, BenchKind};

/// Options of one soak run.
#[derive(Debug, Clone)]
pub struct SoakOptions {
    /// Concurrent client threads in the storm phase.
    pub clients: usize,
    /// Deltas each client streams.
    pub deltas_per_client: usize,
    /// Seed of the delta generators (client `i` uses `seed + i`).
    pub seed: u64,
    /// Per-condition solver budget.
    pub timeout: Duration,
    /// Checker worker threads (`None`: all cores).
    pub threads: Option<usize>,
}

impl Default for SoakOptions {
    fn default() -> SoakOptions {
        SoakOptions {
            clients: 4,
            deltas_per_client: 8,
            seed: 0x5043_0001,
            timeout: Duration::from_secs(60),
            threads: None,
        }
    }
}

/// What one soak run measured.
#[derive(Debug, Clone)]
pub struct SoakResult {
    /// Scenario name.
    pub bench: String,
    /// Fattree parameter.
    pub k: usize,
    /// Node count.
    pub nodes: usize,
    /// Cold full-check wall milliseconds (fresh pool, no warm sessions).
    pub baseline_full_ms: f64,
    /// Dirty-cone size of the probe's single-edge `link_down`.
    pub probe_cone: usize,
    /// Probe `link_down` round-trip milliseconds on the warm daemon.
    pub probe_ms: f64,
    /// Did the probe succeed and the restoring `link_up` re-verify?
    pub probe_ok: bool,
    /// Storm deltas attempted (clients × deltas-per-client).
    pub storm_deltas: usize,
    /// Storm replies with `ok: false` (e.g. conflicting link toggles).
    pub storm_errors: usize,
    /// Median storm delta latency, milliseconds (client-side).
    pub p50_ms: f64,
    /// 95th-percentile storm delta latency, milliseconds.
    pub p95_ms: f64,
    /// Mean dirty-cone size over successful storm deltas.
    pub mean_cone: f64,
    /// The daemon's `status` after the storm — what its memory is made of:
    /// live solver sessions, the compiled terms they hold, sessions retired
    /// for outgrowing their requests, and the process-wide term arena.
    pub sessions: usize,
    /// See [`SoakResult::sessions`].
    pub compiled_terms: usize,
    /// See [`SoakResult::sessions`].
    pub session_retirements: usize,
    /// See [`SoakResult::sessions`].
    pub arena_terms: usize,
}

impl SoakResult {
    /// Probe cone as a fraction of the nodes.
    pub fn probe_cone_frac(&self) -> f64 {
        self.probe_cone as f64 / self.nodes.max(1) as f64
    }

    /// Cold-baseline wall over probe latency (> 1: incrementality pays).
    pub fn probe_speedup(&self) -> f64 {
        if self.probe_ms > 0.0 {
            self.baseline_full_ms / self.probe_ms
        } else {
            f64::INFINITY
        }
    }

    /// The machine-readable row `repro soak --json` dumps.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("bench", Json::str(self.bench.clone())),
            ("k", Json::from(self.k)),
            ("nodes", Json::from(self.nodes)),
            ("baseline_full_ms", Json::Num(self.baseline_full_ms)),
            ("probe_cone", Json::from(self.probe_cone)),
            ("probe_cone_frac", Json::Num(self.probe_cone_frac())),
            ("probe_ms", Json::Num(self.probe_ms)),
            ("probe_speedup", Json::Num(self.probe_speedup())),
            ("ok", Json::Bool(self.probe_ok)),
            ("storm_deltas", Json::from(self.storm_deltas)),
            ("storm_errors", Json::from(self.storm_errors)),
            ("p50_ms", Json::Num(self.p50_ms)),
            ("p95_ms", Json::Num(self.p95_ms)),
            ("mean_cone", Json::Num(self.mean_cone)),
            ("sessions", Json::from(self.sessions)),
            ("compiled_terms", Json::from(self.compiled_terms)),
            ("session_retirements", Json::from(self.session_retirements)),
            ("arena_terms", Json::from(self.arena_terms)),
        ])
    }
}

/// The xorshift generator the storm uses: fast, seedable, deterministic,
/// and no `rand` dependency in this path.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> XorShift {
        XorShift(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// One storm client's stream: link toggles on random edges (remembering
/// which links *it* downed so roughly half its toggles restore), with an
/// occasional witness-time edit thrown in.
fn storm_client(
    addr: std::net::SocketAddr,
    edges: &[(String, String)],
    node_names: &[String],
    deltas: usize,
    seed: u64,
) -> std::io::Result<Vec<(bool, f64)>> {
    let mut client = Client::connect(addr)?;
    let mut rng = XorShift::new(seed);
    let mut downed: Vec<(String, String)> = Vec::new();
    let mut out = Vec::with_capacity(deltas);
    for _ in 0..deltas {
        let roll = rng.next();
        let delta = if !downed.is_empty() && roll.is_multiple_of(4) {
            let (u, v) = downed.swap_remove((rng.next() as usize) % downed.len());
            Delta::LinkUp { u, v }
        } else if roll % 8 == 1 {
            Delta::WitnessTime {
                node: node_names[(rng.next() as usize) % node_names.len()].clone(),
                tau: 4 + (rng.next() % 4) as i64,
            }
        } else {
            let (u, v) = edges[(rng.next() as usize) % edges.len()].clone();
            Delta::LinkDown { u, v }
        };
        let start = Instant::now();
        let reply = client.send(&Request::Delta(delta.clone()))?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let ok = reply.get("ok").and_then(Json::as_bool).unwrap_or(false);
        // remember only downs the daemon accepted; a rejected link_down
        // (another client got there first) changed nothing, and a rejected
        // link_up means the link is already back up — no bookkeeping either
        if ok {
            if let Delta::LinkDown { u, v } = delta {
                downed.push((u, v));
            }
        }
        out.push((ok, ms));
    }
    // leave no links down so later runs start clean
    for (u, v) in downed {
        let _ = client.send(&Request::Delta(Delta::LinkUp { u, v }));
    }
    Ok(out)
}

/// Runs one soak row. See the module docs for the three phases.
///
/// # Panics
///
/// Panics when the daemon cannot start (bind/build failures) — soak is a
/// measurement tool, not a service.
pub fn run_soak(kind: BenchKind, k: usize, options: &SoakOptions) -> SoakResult {
    let check_options = CheckOptions {
        timeout: Some(options.timeout),
        threads: options.threads,
        session_cap: Some(64),
        ..CheckOptions::default()
    };
    let label = format!("{} k={k}", kind.name());

    // phase 1: the cold baseline — fresh sessions, full check
    let instance = fattree_instance(kind, k);
    let nodes = instance.network.topology().node_count();
    let baseline_start = Instant::now();
    let baseline = CheckerPool::with_default_parallelism(check_options.clone())
        .check(&instance.network, &instance.interface, &instance.property)
        .expect("baseline check");
    let baseline_full_ms = baseline_start.elapsed().as_secs_f64() * 1e3;
    drop(baseline);

    // the edge/node name pools the probe and the storm draw from
    let g = instance.network.topology();
    let mut edges: Vec<(String, String)> = g
        .edges()
        .map(|(u, v)| (g.name(u).to_owned(), g.name(v).to_owned()))
        .filter(|(u, v)| u < v) // one entry per undirected link
        .collect();
    edges.sort();
    let node_names: Vec<String> = g.nodes().map(|v| g.name(v).to_owned()).collect();

    // phase 2: the warm daemon and the deterministic probe
    let state = DaemonState::new(label, instance, check_options).expect("daemon warm-up check");
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let server = std::thread::spawn(move || timepiece_daemon::serve(listener, state));

    let mut probe = Client::connect(addr).expect("connect probe client");
    let (u, v) = edges[edges.len() / 2].clone();
    let probe_start = Instant::now();
    let down = probe
        .send(&Request::Delta(Delta::LinkDown { u: u.clone(), v: v.clone() }))
        .expect("probe link_down");
    let probe_ms = probe_start.elapsed().as_secs_f64() * 1e3;
    let probe_cone = down.get("cone_size").and_then(Json::as_f64).unwrap_or(0.0) as usize;
    let up = probe.send(&Request::Delta(Delta::LinkUp { u, v })).expect("probe link_up");
    let probe_ok = down.get("ok").and_then(Json::as_bool) == Some(true)
        && up.get("verified").and_then(Json::as_bool) == Some(true);

    // phase 3: the storm
    let storm: Vec<(bool, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..options.clients)
            .map(|i| {
                let edges = &edges;
                let node_names = &node_names;
                let seed = options.seed.wrapping_add(i as u64);
                let deltas = options.deltas_per_client;
                scope.spawn(move || {
                    storm_client(addr, edges, node_names, deltas, seed)
                        .expect("storm client stream")
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("storm client thread")).collect()
    });

    // the daemon's own histogram has the cone sizes; read them via profile
    let profile = probe.send(&Request::Profile).expect("profile request");
    let cone_hist = profile.get("metrics").and_then(|m| m.get("daemon.cone_nodes"));
    let hist_f64 =
        |key: &str| cone_hist.and_then(|h| h.get(key)).and_then(Json::as_f64).unwrap_or(0.0);
    let mean_cone = if hist_f64("count") > 0.0 { hist_f64("sum") / hist_f64("count") } else { 0.0 };
    let status = probe.send(&Request::Status).expect("status request");
    let status_count = |key: &str| status.get(key).and_then(Json::as_usize).unwrap_or(0);
    let shutdown = probe.send(&Request::Shutdown).expect("shutdown request");
    assert_eq!(shutdown.get("ok").and_then(Json::as_bool), Some(true));
    server.join().expect("server thread").expect("serve exits cleanly");

    let mut latencies: Vec<f64> = storm.iter().filter(|(ok, _)| *ok).map(|(_, ms)| *ms).collect();
    latencies.sort_by(|a, b| a.total_cmp(b));
    let quantile = |q: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let idx = ((q * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len());
        latencies[idx - 1]
    };
    SoakResult {
        bench: kind.name().to_owned(),
        k,
        nodes,
        baseline_full_ms,
        probe_cone,
        probe_ms,
        probe_ok,
        storm_deltas: storm.len(),
        storm_errors: storm.iter().filter(|(ok, _)| !ok).count(),
        p50_ms: quantile(0.5),
        p95_ms: quantile(0.95),
        mean_cone,
        sessions: status_count("sessions"),
        compiled_terms: status_count("compiled_terms"),
        session_retirements: status_count("session_retirements"),
        arena_terms: status_count("arena_terms"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_soak_run_probes_and_storms() {
        let options = SoakOptions {
            clients: 2,
            deltas_per_client: 3,
            threads: Some(2),
            ..SoakOptions::default()
        };
        let kind = BenchKind::parse("SpReach").unwrap();
        let result = run_soak(kind, 4, &options);
        assert_eq!(result.nodes, 20);
        assert!(result.probe_ok, "probe must restore to verified");
        assert!(
            result.probe_cone > 0 && result.probe_cone < result.nodes / 4,
            "a single-edge cone must stay below a quarter of the nodes, got {} of {}",
            result.probe_cone,
            result.nodes
        );
        assert_eq!(result.storm_deltas, 6);
        let json = result.to_json();
        assert_eq!(json.get("bench").and_then(Json::as_str), Some("SpReach"));
        assert!(json.get("probe_speedup").and_then(Json::as_f64).unwrap() > 0.0);
        // the daemon's memory counters ride along on every row
        assert!(result.sessions > 0 && result.compiled_terms > 0 && result.arena_terms > 0);
        assert_eq!(
            json.get("compiled_terms").and_then(Json::as_usize),
            Some(result.compiled_terms)
        );
    }
}
