//! Sim-vs-SMT agreement for the declarative policy IR.
//!
//! One `RoutePolicy`/`RouteSchema` definition has two consumers: the
//! simulator executes its value semantics directly, the verifier compiles
//! it to terms for Z3. These tests pin the two together from both ends:
//!
//! * **random routes** — for every benchmark policy, applying the policy to
//!   a random concrete route must equal (a) interpreting the compiled term
//!   and (b) what Z3 proves the compiled term equals;
//! * **whole traces** — simulating a policy-built network via the fast
//!   value path must reproduce the term-interpretation trace exactly.

use rand::{rngs::StdRng, RngExt, SeedableRng};
use timepiece::algebra::{NetworkPolicies, RoutePolicy, RouteSchema};
use timepiece::expr::{Env, Expr, Value};
use timepiece::smt::{check_validity, Vc};

/// A random concrete route of a schema (present with probability ~3/4).
fn random_route(schema: &RouteSchema, rng: &mut StdRng) -> Value {
    if rng.random_range(0..4u32) == 0 {
        return schema.none_value();
    }
    let fields: Vec<Value> =
        schema.record_def().fields().iter().map(|(_, ty)| random_value(ty, rng)).collect();
    Value::some(Value::record(schema.record_def(), fields))
}

fn random_value(ty: &timepiece::expr::Type, rng: &mut StdRng) -> Value {
    use timepiece::expr::Type;
    match ty {
        Type::Bool => Value::Bool(rng.random_range(0..2u32) == 0),
        Type::BitVec(w) => Value::bv(rng.random_range(0..200u64), *w),
        Type::Int => Value::int(rng.random_range(0..9u32) as i64),
        Type::Enum(def) => {
            let i = rng.random_range(0..def.variants().len() as u64) as usize;
            Value::enum_variant(def, &def.variants()[i].clone())
        }
        Type::Set(def) => {
            let tags: Vec<&str> = def
                .universe()
                .iter()
                .filter(|_| rng.random_range(0..2u32) == 0)
                .map(String::as_str)
                .collect();
            Value::set_of(def, tags)
        }
        other => Value::default_of(other),
    }
}

/// A closing environment for every symbolic the policies may reference.
fn closing_env(policies: &NetworkPolicies, net: &timepiece::algebra::Network) -> Env {
    let mut env = Env::new();
    for s in net.symbolics() {
        env.bind(s.name(), Value::default_of(s.ty()));
    }
    if let Some(model) = &policies.failures {
        model.bind_failures(net.topology(), &mut env, &[]);
    }
    env
}

/// For every distinct policy of a network: interpret-compiled, apply-direct
/// and Z3-proved results agree on random routes.
fn assert_policy_agreement(
    net: &timepiece::algebra::Network,
    rng: &mut StdRng,
    solver_cases: usize,
) {
    let policies = net.policies().expect("benchmark networks carry the policy IR");
    let schema = &policies.schema;
    let env = closing_env(policies, net);

    let mut distinct: Vec<&RoutePolicy> = Vec::new();
    for policy in policies.edge_policies.values().chain(policies.default_policy.as_ref()) {
        if !distinct.contains(&policy) {
            distinct.push(policy);
        }
    }

    for policy in distinct {
        let var = Expr::var("r", schema.route_type());
        let compiled = policy.compile(schema, &var);
        for case in 0..24 {
            let route = random_route(schema, rng);
            let mut bound = env.clone();
            bound.bind("r", route.clone());
            let via_term = compiled.eval(&bound).expect("compiled policy evaluates");
            let via_value = policy.apply(schema, &route, &env).expect("policy applies");
            assert_eq!(via_term, via_value, "policy {policy:?} on {route}");
            // and the SMT backend proves the same result: under the binding
            // assumptions, `compiled = result` is valid
            if case < solver_cases {
                let assumptions: Vec<Expr> = bound
                    .iter()
                    .map(|(name, value)| {
                        Expr::var(name, value.type_of()).eq(Expr::constant(value.clone()))
                    })
                    .collect();
                let goal = compiled.clone().eq(Expr::constant(via_value.clone()));
                let vc = Vc::new("policy-agreement", assumptions, goal);
                assert!(
                    check_validity(&vc, None).expect("encodes").is_valid(),
                    "Z3 disagrees with the concrete semantics: {policy:?} on {route}"
                );
            }
        }
    }
}

#[test]
fn every_benchmark_policy_agrees_across_backends() {
    use timepiece::nets::{
        ad::AdBench, fail::FailBench, hijack::HijackBench, len::LenBench, med::MedBench,
        reach::ReachBench, vf::VfBench, wan::WanBench,
    };
    let mut rng = StdRng::seed_from_u64(0x000a_94ee);
    let networks = [
        ("SpReach", ReachBench::single_dest(4, 0).network()),
        ("SpLen", LenBench::single_dest(4, 0).network()),
        ("SpVf", VfBench::single_dest(4, 0).network()),
        ("SpHijack", HijackBench::single_dest(4, 0).network()),
        ("SpMed", MedBench::single_dest(4, 0).network()),
        ("SpAd", AdBench::single_dest(4, 0).network()),
        ("SpFail", FailBench::single_dest(4, 0).network()),
        ("Wan", WanBench::with_peers(3, 4).network()),
    ];
    for (name, net) in &networks {
        assert!(net.policies().is_some(), "{name} must build through the policy IR");
        assert_policy_agreement(net, &mut rng, 3);
    }
}

#[test]
fn merge_agrees_across_backends_on_random_routes() {
    use timepiece::nets::hijack::HijackBench;
    // the hijack schema has the richest merge (GuardFirst + full decision
    // process); random pairs must merge identically in both semantics
    let net = HijackBench::single_dest(4, 0).network();
    let policies = net.policies().unwrap();
    let schema = &policies.schema;
    let env = closing_env(policies, &net);
    let mut rng = StdRng::seed_from_u64(0x0003_e69e);
    let (va, vb) = (Expr::var("a", schema.route_type()), Expr::var("b", schema.route_type()));
    let compiled = schema.merge_expr(&va, &vb);
    for _ in 0..64 {
        let a = random_route(schema, &mut rng);
        let b = random_route(schema, &mut rng);
        let mut bound = env.clone();
        bound.bind("a", a.clone());
        bound.bind("b", b.clone());
        let via_term = compiled.eval(&bound).unwrap();
        let via_value = schema.merge_value(&a, &b, &env).unwrap();
        assert_eq!(via_term, via_value, "merge({a}, {b})");
    }
}

#[test]
fn fast_path_and_interpreted_traces_coincide() {
    use timepiece::nets::{med::MedBench, vf::VfBench};
    use timepiece::sim::{simulate, simulate_interpreted};
    for (name, net) in [
        ("SpVf", VfBench::single_dest(4, 0).network()),
        ("ApMed", MedBench::all_pairs(4).network()),
    ] {
        let mut env = Env::new();
        // close the symbolic destination (ApMed) on an edge node
        for s in net.symbolics() {
            let dest = net
                .topology()
                .nodes()
                .find(|&v| net.topology().name(v).starts_with("edge-"))
                .unwrap();
            env.bind(s.name(), Value::bv(dest.index() as u64, 32));
        }
        let fast = simulate(&net, &env, 16).expect("fast path simulates");
        let interpreted = simulate_interpreted(&net, &env, 16).expect("term path simulates");
        assert_eq!(fast.converged_at(), interpreted.converged_at(), "{name}");
        assert_eq!(fast.states(), interpreted.states(), "{name}");
    }
}
