//! Differential testing of the two backends: the reference interpreter and
//! the Z3 compiler must assign every term the same meaning.
//!
//! Strategy: generate random concrete BGP routes, build rich terms over them
//! (merge chains, transfers, temporal-operator instantiations), and check
//! that the interpreter's verdict matches Z3's — by asking the solver to
//! prove the term equal to its interpreted value under the same bindings.

use proptest::prelude::*;
use timepiece::core::Temporal;
use timepiece::expr::{Env, Expr, Value};
use timepiece::nets::bgp::BgpSchema;
use timepiece::smt::{check_validity, Validity, Vc};

/// Z3 agrees that `term = value` whenever the interpreter says so, under the
/// bindings of `env` — which must be satisfiable together: bindings the
/// encoder merged into one solver constant would contradict each other, and
/// under contradictory assumptions every goal is valid.
fn backends_agree(term: &Expr, env: &Env) -> bool {
    let interpreted = term.eval(env).expect("term evaluates");
    let mut assumptions: Vec<Expr> = Vec::new();
    for (name, value) in env.iter() {
        let var = Expr::var(name, value.type_of());
        assumptions.push(var.eq(Expr::constant(value.clone())));
    }
    let bindings = Vc::new("bindings", assumptions.clone(), Expr::bool(false));
    match check_validity(&bindings, None).expect("bindings encode") {
        Validity::Invalid(_) => {}
        other => panic!("the bindings of {term} contradict each other: {other:?}"),
    }
    let goal = term.clone().eq(Expr::constant(interpreted));
    match check_validity(&Vc::new("differential", assumptions, goal), None).expect("term encodes") {
        Validity::Valid => true,
        other => panic!("backends disagree on {term}: {other:?}"),
    }
}

fn arb_route(schema: &BgpSchema) -> impl Strategy<Value = Value> {
    let def = schema.record_def().clone();
    let comm_def = def.field_type("comms").unwrap().set_def().unwrap().clone();
    let origin_def = def.field_type("origin").unwrap().enum_def().unwrap().clone();
    proptest::option::of((0u64..4, 0u64..300, 0i64..6, 0u8..4, 0usize..3)).prop_map(move |fields| {
        match fields {
            None => Value::default_of(&Type::option_of(&def)),
            Some((dest, lp, len, comms, origin)) => Value::some(Value::record(
                &def,
                vec![
                    Value::bv(dest, 32),
                    Value::bv(20, 32),
                    Value::bv(lp, 32),
                    Value::bv(0, 32),
                    Value::Enum { def: origin_def.clone(), index: origin },
                    Value::int(len),
                    Value::Set { def: comm_def.clone(), mask: u64::from(comms) },
                ],
            )),
        }
    })
}

/// tiny helper: the option-of-record type for `Value::default_of`.
struct Type;
impl Type {
    fn option_of(def: &std::sync::Arc<timepiece::expr::RecordDef>) -> timepiece::expr::Type {
        timepiece::expr::Type::option(timepiece::expr::Type::Record(def.clone()))
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// merge chains evaluate identically in both backends
    #[test]
    fn merge_chains_agree(
        ra in arb_route(&BgpSchema::new(["down", "bte"], [])),
        rb in arb_route(&BgpSchema::new(["down", "bte"], [])),
        rc in arb_route(&BgpSchema::new(["down", "bte"], [])),
    ) {
        let schema = BgpSchema::new(["down", "bte"], []);
        let a = schema.route_var("a");
        let b = schema.route_var("b");
        let c = schema.route_var("c");
        let merged = schema.merge(&schema.merge(&a, &b), &c);
        let mut env = Env::new();
        env.bind("a", ra);
        env.bind("b", rb);
        env.bind("c", rc);
        prop_assert!(backends_agree(&merged, &env));
    }

    /// transfer (length increment + tagging) agrees in both backends
    #[test]
    fn transfers_agree(r in arb_route(&BgpSchema::new(["down", "bte"], []))) {
        let schema = BgpSchema::new(["down", "bte"], []);
        let v = schema.route_var("r");
        let payload_ty = schema.route_type().option_payload().unwrap().clone();
        let transferred = schema.transfer_increment(&v).match_option(
            Expr::none(payload_ty),
            |route| {
                let comms = route.clone().field("comms").add_tag("down");
                route.with_field("comms", comms).some()
            },
        );
        let mut env = Env::new();
        env.bind("r", r);
        prop_assert!(backends_agree(&transferred, &env));
    }

    /// variables whose names extend one another (`x`, `x!`, `x?`, `r`,
    /// `r.f`) are distinct variables in both backends
    #[test]
    fn variables_named_alike_agree(
        x in proptest::option::of(0i64..4),
        payload in 0i64..4,
        present in 0u8..2,
        field in 0i64..4,
        alone in 0i64..4,
    ) {
        use timepiece::expr::Type;
        let opt_int = Type::option(Type::Int);
        let record = Type::record("R", [("f", Type::Int)]);
        let def = record.record_def().unwrap().clone();
        let xv = Expr::var("x", opt_int);
        let term = Expr::and_all([
            xv.clone().is_none().or(xv.get_some().eq(Expr::var("x!", Type::Int))),
            Expr::var("x?", Type::Bool),
            Expr::var("r", record).field("f").le(Expr::var("r.f", Type::Int)),
        ]);
        let mut env = Env::new();
        env.bind("x", x.map_or(Value::none(Type::Int), |i| Value::some(Value::int(i))));
        env.bind("x!", Value::int(payload));
        env.bind("x?", Value::Bool(present == 1));
        env.bind("r", Value::record(&def, vec![Value::int(field)]));
        env.bind("r.f", Value::int(alone));
        prop_assert!(backends_agree(&term, &env));
    }

    /// temporal operator instantiations agree in both backends
    #[test]
    fn temporal_instantiations_agree(
        r in arb_route(&BgpSchema::new(["down", "bte"], [])),
        t in 0i64..8,
        tau in 0u64..6,
    ) {
        let schema = BgpSchema::new(["down", "bte"], []);
        let op = Temporal::until_at(
            tau,
            |route| route.clone().is_none(),
            Temporal::globally({
                let schema = schema.clone();
                move |route| {
                    route.clone().is_some().and(
                        schema.len(&route.clone().get_some()).le(Expr::int(5)),
                    )
                }
            }),
        );
        let instantiated = op.at(
            &Expr::var("t", timepiece::expr::Type::Int),
            &schema.route_var("r"),
        );
        let mut env = Env::new();
        env.bind("r", r);
        env.bind("t", Value::int(t));
        prop_assert!(backends_agree(&instantiated, &env));
    }
}
