//! The simulator over expression-level networks.
//!
//! Policy-IR networks run the IR's value semantics directly; every other
//! network *interprets* the same terms the verifier compiles to SMT, so a
//! property proved by the verifier and a behavior observed here cannot
//! diverge. It is the basis of the soundness/completeness tests in
//! `timepiece-core` and of the workspace's `tests/soundness.rs`.

use std::fmt;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use timepiece_algebra::{Network, NetworkPolicies, PolicyError};
use timepiece_expr::{Env, EvalError, Expr, Value};
use timepiece_topology::NodeId;

/// An error raised during expression-level simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Evaluating a route expression failed (unbound symbolic, ill-typed
    /// network function).
    Eval(EvalError),
    /// Executing a declarative route policy failed (unbound symbolic in a
    /// guard, or a route value whose shape disagrees with the schema).
    Policy(PolicyError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Eval(e) => write!(f, "simulation failed to evaluate a route: {e}"),
            SimError::Policy(e) => write!(f, "simulation failed to apply a policy: {e}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Eval(e) => Some(e),
            SimError::Policy(e) => Some(e),
        }
    }
}

impl From<EvalError> for SimError {
    fn from(e: EvalError) -> Self {
        SimError::Eval(e)
    }
}

impl From<PolicyError> for SimError {
    fn from(e: PolicyError) -> Self {
        SimError::Policy(e)
    }
}

/// A simulation trace of concrete route values, `states[t][v] = σ(v)(t)`.
#[derive(Debug, Clone)]
pub struct Trace {
    states: Vec<Vec<Value>>,
    converged_at: Option<usize>,
}

impl Trace {
    /// `σ(v)(t)`, saturating beyond the last simulated step.
    pub fn state(&self, v: NodeId, t: usize) -> &Value {
        let t = t.min(self.states.len() - 1);
        &self.states[t][v.index()]
    }

    /// The first `t` from which the state stays constant, if reached within
    /// budget: `σ(·)(t) = σ(·)(t+1)`, held for `max_delay + 1` steps by a
    /// delayed run.
    pub fn converged_at(&self) -> Option<usize> {
        self.converged_at
    }

    /// The last computed state vector (the stable state if converged).
    pub fn stable_state(&self) -> &[Value] {
        self.states.last().expect("trace has at least the initial state")
    }

    /// All computed state vectors, indexed by time.
    pub fn states(&self) -> &[Vec<Value>] {
        &self.states
    }
}

/// Runs the synchronous semantics of a closed instance of `net`.
///
/// `inputs` must bind every symbolic of the network to a concrete value
/// (closing the network, in the paper's sense); for networks without
/// symbolics pass an empty environment.
///
/// # Errors
///
/// Returns [`SimError::Eval`] if route expressions fail to evaluate, e.g.
/// when a symbolic is missing from `inputs`.
///
/// # Example
///
/// ```
/// use timepiece_algebra::NetworkBuilder;
/// use timepiece_expr::{Env, Expr, Type, Value};
/// use timepiece_sim::expr_sim::simulate;
/// use timepiece_topology::gen;
///
/// let g = gen::path(2);
/// let dest = g.node_by_name("v0").unwrap();
/// let net = NetworkBuilder::new(g, Type::Bool)
///     .merge(|a, b| a.clone().or(b.clone()))
///     .default_transfer(|r| r.clone())
///     .init(dest, Expr::bool(true))
///     .build()?;
/// let trace = simulate(&net, &Env::new(), 8)?;
/// assert_eq!(trace.stable_state(), [Value::Bool(true), Value::Bool(true)]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn simulate(net: &Network, inputs: &Env, max_steps: usize) -> Result<Trace, SimError> {
    simulate_delayed(net, inputs, max_steps, 0, 0)
}

/// Runs a bounded-delay execution of a closed instance of `net` (§4,
/// "Incorporating delay"): edge `u → v` at step `t` delivers
/// `σ(u)(t − 1 − δ)` for a `δ ∈ [0, max_delay]` drawn from a schedule seeded
/// by `seed`, with history before time 0 clamped to time 0.
///
/// The run counts as converged only once the state has stayed unchanged for
/// `max_delay + 1` steps, so no stale message can still perturb it;
/// [`Trace::converged_at`] is the first time of that stable stretch. With
/// `max_delay = 0` this is [`simulate`], whatever the seed.
///
/// # Errors
///
/// As [`simulate`].
pub fn simulate_delayed(
    net: &Network,
    inputs: &Env,
    max_steps: usize,
    max_delay: usize,
    seed: u64,
) -> Result<Trace, SimError> {
    let schedule = Schedule::new(max_delay, seed);
    match net.policies() {
        // policy-built networks run the IR's direct value semantics — no
        // term construction or interpretation per step
        Some(policies) => run_policies(net, policies, inputs, max_steps, schedule),
        None => run_interpreted(net, inputs, max_steps, schedule),
    }
}

/// The term-interpretation path: build each step's route expression and run
/// it through the reference interpreter. Works for every network; kept
/// public so the policy fast path can be differentially tested against it.
///
/// # Errors
///
/// As [`simulate`].
pub fn simulate_interpreted(
    net: &Network,
    inputs: &Env,
    max_steps: usize,
) -> Result<Trace, SimError> {
    run_interpreted(net, inputs, max_steps, Schedule::new(0, 0))
}

fn run_interpreted(
    net: &Network,
    inputs: &Env,
    max_steps: usize,
    schedule: Schedule,
) -> Result<Trace, SimError> {
    let g = net.topology();
    let initial: Vec<Value> =
        g.nodes().map(|v| net.init(v).eval(inputs)).collect::<Result<_, _>>()?;
    run_steps(initial, max_steps, schedule, |v, delivered| {
        let neighbor_routes: Vec<Expr> =
            g.preds(v).iter().map(|&u| Expr::constant(delivered.from(u).clone())).collect();
        Ok(net.step(v, &neighbor_routes).eval(inputs)?)
    })
}

/// The declarative fast path: execute the policy IR's concrete semantics
/// directly on route values.
fn run_policies(
    net: &Network,
    policies: &NetworkPolicies,
    inputs: &Env,
    max_steps: usize,
    schedule: Schedule,
) -> Result<Trace, SimError> {
    let g = net.topology();
    let init: Vec<Value> = g.nodes().map(|v| net.init(v).eval(inputs)).collect::<Result<_, _>>()?;
    let failures = policies.failures.as_ref();
    run_steps(init.clone(), max_steps, schedule, |v, delivered| {
        let mut acc = init[v.index()].clone();
        for &u in g.preds(v) {
            let policy = policies
                .policy((u, v))
                .unwrap_or_else(|| panic!("policy network lacks a policy for {u} -> {v}"));
            let mut transferred = policy.apply(&policies.schema, delivered.from(u), inputs)?;
            if let Some(model) = failures {
                if model.tracks((u, v)) {
                    let name = timepiece_algebra::FailureModel::var_name(g, (u, v));
                    let down = inputs
                        .get(&name)
                        .and_then(Value::as_bool)
                        .ok_or(PolicyError::UnboundVar(name))?;
                    if down {
                        transferred = policies.schema.none_value();
                    }
                }
            }
            acc = policies.schema.merge_value(&acc, &transferred, inputs)?;
        }
        Ok(acc)
    })
}

/// A seeded bounded-delay schedule: how stale each delivered route is.
struct Schedule {
    max_delay: usize,
    rng: StdRng,
}

impl Schedule {
    fn new(max_delay: usize, seed: u64) -> Schedule {
        Schedule { max_delay, rng: StdRng::seed_from_u64(seed) }
    }

    /// The age `δ ∈ [0, max_delay]` of the next delivery.
    fn next_age(&mut self) -> usize {
        match self.max_delay {
            0 => 0,
            d => self.rng.random_range(0..=d),
        }
    }
}

/// The routes one step may read, `σ(u)(t − 1 − δ)` with `δ` drawn from the
/// schedule per delivery.
struct Delivered<'a> {
    states: &'a [Vec<Value>],
    t: usize,
    schedule: &'a mut Schedule,
}

impl<'a> Delivered<'a> {
    fn from(&mut self, u: NodeId) -> &'a Value {
        let age = self.schedule.next_age();
        &self.states[(self.t - 1).saturating_sub(age)][u.index()]
    }
}

/// The one fixpoint loop around a per-node step function, starting from an
/// already-evaluated initial state: synchronous for a zero-delay schedule,
/// a bounded-delay execution otherwise.
fn run_steps(
    initial: Vec<Value>,
    max_steps: usize,
    mut schedule: Schedule,
    mut step: impl FnMut(NodeId, &mut Delivered<'_>) -> Result<Value, SimError>,
) -> Result<Trace, SimError> {
    let nodes = initial.len();
    let settle = schedule.max_delay + 1;
    let mut states = vec![initial];
    let mut unchanged = 0;
    let mut converged_at = None;
    for t in 1..=max_steps {
        let mut delivered = Delivered { states: &states, t, schedule: &mut schedule };
        let next: Vec<Value> = (0..nodes)
            .map(|i| step(NodeId::new(i as u32), &mut delivered))
            .collect::<Result<_, _>>()?;
        unchanged = if next == states[t - 1] { unchanged + 1 } else { 0 };
        states.push(next);
        if unchanged == settle {
            converged_at = Some(t - settle);
            break;
        }
    }
    Ok(Trace { states, converged_at })
}

#[cfg(test)]
mod tests {
    use super::*;
    use timepiece_algebra::{MergeKey, NetworkBuilder, RoutePolicy, RouteSchema, Symbolic};
    use timepiece_expr::Type;
    use timepiece_topology::{gen, Topology};

    /// Hop-count network over an option<int> route type.
    fn hops_net(n: usize) -> Network {
        let g = gen::undirected_path(n);
        let dest = g.node_by_name("v0").unwrap();
        NetworkBuilder::new(g, Type::option(Type::Int))
            .merge(|a, b| {
                let a_better = a.clone().get_some().le(b.clone().get_some());
                b.clone().is_none().or(a.clone().is_some().and(a_better)).ite(a.clone(), b.clone())
            })
            .default_transfer(|r| {
                r.clone().match_option(Expr::none(Type::Int), |h| h.add(Expr::int(1)).some())
            })
            .init(dest, Expr::int(0).some())
            .build()
            .expect("valid network")
    }

    #[test]
    fn hop_count_converges_to_distances() {
        let net = hops_net(5);
        let trace = simulate(&net, &Env::new(), 32).unwrap();
        assert_eq!(trace.converged_at(), Some(4));
        for (i, v) in trace.stable_state().iter().enumerate() {
            assert_eq!(*v, Value::some(Value::int(i as i64)));
        }
    }

    /// Hop-count network on the policy IR: one `len` field, shorter wins.
    fn hop_policy_net(g: Topology) -> Network {
        let schema = RouteSchema::new(
            "Hop",
            [("len".to_owned(), Type::Int)],
            [MergeKey::Lower("len".into())],
        );
        let dest = g.node_by_name("v0").unwrap();
        let origin = Expr::record(schema.record_def(), vec![Expr::int(0)]).some();
        NetworkBuilder::from_schema(g, schema)
            .default_policy(RoutePolicy::new().increment("len"))
            .init(dest, origin)
            .build()
            .expect("valid network")
    }

    /// The hop count of a route of either network shape.
    fn hops(route: &Value) -> Option<i128> {
        let Value::Option { value: Some(inner), .. } = route else { return None };
        let inner: &Value = inner;
        inner.field("len").unwrap_or(inner).as_int()
    }

    #[test]
    fn policy_fast_path_agrees_with_closure_network() {
        let closures = simulate(&hops_net(6), &Env::new(), 32).unwrap();
        let net = hop_policy_net(gen::undirected_path(6));
        let fast = simulate(&net, &Env::new(), 32).unwrap();
        let interpreted = simulate_interpreted(&net, &Env::new(), 32).unwrap();
        assert_eq!(fast.states(), interpreted.states());
        assert_eq!(fast.converged_at(), closures.converged_at());
        for t in 0..fast.states().len() {
            for v in net.topology().nodes() {
                let (f, c) = (fast.state(v, t), closures.state(v, t));
                assert_eq!(hops(f), hops(c), "mismatch at ({v}, {t}): {f} vs {c}");
            }
        }
    }

    #[test]
    fn zero_delay_matches_synchronous() {
        let nets = [hops_net(5), hop_policy_net(gen::undirected_path(5))];
        for net in &nets {
            let sync = simulate(net, &Env::new(), 64).unwrap();
            for seed in 0..4 {
                let delayed = simulate_delayed(net, &Env::new(), 64, 0, seed).unwrap();
                assert_eq!(sync.states(), delayed.states(), "seed {seed}");
                assert_eq!(sync.converged_at(), delayed.converged_at());
            }
        }
    }

    #[test]
    fn monotone_network_converges_to_same_fixpoint_under_delay() {
        let net = hop_policy_net(gen::random_connected(12, 0.3, 5));
        let sync = simulate(&net, &Env::new(), 256).unwrap();
        for seed in 0..10 {
            for max_delay in [1usize, 2, 3] {
                let delayed = simulate_delayed(&net, &Env::new(), 512, max_delay, seed).unwrap();
                let at = delayed
                    .converged_at()
                    .unwrap_or_else(|| panic!("unconverged at delay {max_delay} seed {seed}"));
                assert_eq!(
                    sync.stable_state(),
                    delayed.stable_state(),
                    "fixpoint differs at delay {max_delay} seed {seed}"
                );
                // converged means constant for the last max_delay + 1 steps
                assert_eq!(delayed.states().len(), at + max_delay + 2);
            }
        }
    }

    #[test]
    fn delay_can_slow_convergence() {
        let net = hop_policy_net(gen::undirected_path(8));
        let sync = simulate(&net, &Env::new(), 256).unwrap().converged_at().unwrap();
        let delayed: Vec<usize> = (0..4)
            .map(|seed| {
                let trace = simulate_delayed(&net, &Env::new(), 512, 3, seed).unwrap();
                trace.converged_at().unwrap()
            })
            .collect();
        assert!(delayed.iter().all(|&at| at >= sync), "{delayed:?} vs {sync}");
        assert!(delayed.iter().any(|&at| at > sync), "{delayed:?} vs {sync}");
    }

    #[test]
    fn history_before_time_zero_is_the_initial_state() {
        // v0 -> v1, v0 originates: every delivery at step 1 is σ(v0)(0),
        // however stale the schedule makes it
        let g = gen::path(2);
        let v0 = g.node_by_name("v0").unwrap();
        let net = NetworkBuilder::new(g, Type::Bool)
            .merge(|a, b| a.clone().or(b.clone()))
            .default_transfer(|r| r.clone())
            .init(v0, Expr::bool(true))
            .build()
            .unwrap();
        let v1 = net.topology().node_by_name("v1").unwrap();
        for max_delay in [1usize, 2] {
            for seed in 0..8 {
                let trace = simulate_delayed(&net, &Env::new(), 16, max_delay, seed).unwrap();
                assert_eq!(trace.state(v1, 1), &Value::Bool(true), "delay {max_delay} seed {seed}");
            }
        }
    }

    #[test]
    fn symbolic_network_requires_inputs() {
        let g = gen::path(2);
        let dest = g.node_by_name("v0").unwrap();
        let s = Symbolic::new("start", Type::Bool, None);
        let net = NetworkBuilder::new(g, Type::Bool)
            .merge(|a, b| a.clone().or(b.clone()))
            .default_transfer(|r| r.clone())
            .init(dest, s.var())
            .symbolic(s)
            .build()
            .unwrap();
        // missing input: error
        assert!(matches!(simulate(&net, &Env::new(), 8), Err(SimError::Eval(_))));
        // bound input: fine, and the bound value propagates
        let mut env = Env::new();
        env.bind("start", Value::Bool(true));
        let trace = simulate(&net, &env, 8).unwrap();
        let v1 = net.topology().node_by_name("v1").unwrap();
        assert_eq!(trace.state(v1, 4), &Value::Bool(true));
    }

    #[test]
    fn trace_accessors() {
        let net = hops_net(3);
        let trace = simulate(&net, &Env::new(), 32).unwrap();
        assert!(trace.states().len() >= 2);
        let v0 = net.topology().node_by_name("v0").unwrap();
        assert_eq!(trace.state(v0, 0), &Value::some(Value::int(0)));
    }
}
