//! The algebraic laws of the route selection `⊕` the checker uses, over the
//! route schemas of the scenario registry — the BGP decision process behind
//! the reach, length, MED, AD and failure scenarios, and its valley-freedom
//! and hijack variants — and the hop-count schema.
//!
//! `RouteSchema::merge_value` is the value twin of the merge term the SMT
//! encoder compiles (`tests/policy_agreement.rs` pins the two together). It
//! is:
//!
//! * selective (`a ⊕ b ∈ {a, b}`), idempotent and associative — exactly;
//! * commutative up to equal merge keys: ties keep the left argument, so
//!   `a ⊕ b` and `b ⊕ a` may be different routes, but then they are `a` and
//!   `b` and neither is preferred to the other;
//! * strictly monotone at every edge of the k = 4 registry instances:
//!   `r ⊕ f(r) = r` for each edge policy `f`, so a node never prefers a route
//!   transferred back to it (§4, "Incorporating delay").
//!
//! Routes are decoded from random bytes through the schema over small field
//! domains, so ties on every merge key are common.

use std::sync::OnceLock;

use proptest::prelude::*;
use timepiece::algebra::{RoutePolicy, RouteSchema};
use timepiece::expr::{Env, Type, Value};
use timepiece_bench::runner::{fattree_instance, BenchKind};

/// One distinct route schema, an environment closing the symbolics of the
/// scenarios using it, and their distinct edge policies.
struct Schema {
    scenario: String,
    schema: RouteSchema,
    env: Env,
    policies: Vec<RoutePolicy>,
}

fn schemas() -> &'static [Schema] {
    static SCHEMAS: OnceLock<Vec<Schema>> = OnceLock::new();
    SCHEMAS.get_or_init(|| {
        let hop = ("HopPath".to_owned(), timepiece_daemon::fixture::hop_path(4, None).network);
        let registry =
            BenchKind::all().map(|k| (k.name().to_owned(), fattree_instance(k, 4).network));
        let mut schemas: Vec<Schema> = Vec::new();
        for (scenario, net) in std::iter::once(hop).chain(registry) {
            let policies = net.policies().expect("registry networks are policy-built");
            let key = format!("{:?}", policies.schema);
            let at = match schemas.iter().position(|s| format!("{:?}", s.schema) == key) {
                Some(at) => at,
                None => {
                    let schema = policies.schema.clone();
                    schemas.push(Schema { scenario, schema, env: Env::new(), policies: vec![] });
                    schemas.len() - 1
                }
            };
            let entry = &mut schemas[at];
            for s in net.symbolics() {
                if entry.env.get(s.name()).is_none() {
                    entry.env.bind(s.name().to_owned(), Value::default_of(s.ty()));
                }
            }
            for edge in net.topology().edges() {
                let policy = policies.policy(edge).expect("every edge has a policy");
                if !entry.policies.contains(policy) {
                    entry.policies.push(policy.clone());
                }
            }
        }
        schemas
    })
}

/// Random bytes a route is decoded from: one for presence, one per field.
fn route_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..8, 16)
}

/// `∞` when the first byte is 0, otherwise a record whose fields take a few
/// values each (the default AD/LP/MED values among them).
fn route(schema: &RouteSchema, bytes: &[u8]) -> Value {
    if bytes[0] == 0 {
        return schema.none_value();
    }
    let def = schema.record_def();
    let field = |ty: &Type, b: u8| match ty {
        Type::Bool => Value::Bool(b % 2 == 1),
        Type::Int => Value::int(b % 4),
        Type::BitVec(w) => Value::bv([0, 1, 20, 100, 110, 200][usize::from(b) % 6], *w),
        Type::Enum(e) => Value::enum_variant(e, &e.variants()[usize::from(b) % e.variants().len()]),
        Type::Set(s) => {
            Value::Set { def: s.clone(), mask: u64::from(b) & ((1 << s.universe().len()) - 1) }
        }
        other => panic!("no route field has type {other}"),
    };
    let fields = def.fields().iter().zip(&bytes[1..]).map(|((_, ty), &b)| field(ty, b)).collect();
    Value::some(Value::record(def, fields))
}

fn merge(s: &Schema, a: &Value, b: &Value) -> Value {
    s.schema.merge_value(a, b, &s.env).expect("registry routes merge")
}

/// Do `x` and `y` tie on every merge key (both `∞`, or both present and
/// neither preferred)?
fn same_rank(s: &Schema, x: &Value, y: &Value) -> bool {
    let payload = |v: &Value| match v {
        Value::Option { value, .. } => value.as_deref().cloned(),
        other => panic!("a route is an option, got {other}"),
    };
    match (payload(x), payload(y)) {
        (None, None) => true,
        (Some(p), Some(q)) => {
            let prefer = |a, b| s.schema.prefer_value(a, b, &s.env).expect("registry routes rank");
            !prefer(&p, &q) && !prefer(&q, &p)
        }
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, rng_seed: 0x00a1_9e8a_0000_0002 })]

    #[test]
    fn merge_is_selective_idempotent_and_associative(
        a in route_bytes(),
        b in route_bytes(),
        c in route_bytes(),
    ) {
        for s in schemas() {
            let (a, b, c) = (route(&s.schema, &a), route(&s.schema, &b), route(&s.schema, &c));
            let ab = merge(s, &a, &b);
            prop_assert!(ab == a || ab == b, "{}: {a} ⊕ {b} = {ab}", s.scenario);
            prop_assert_eq!(merge(s, &a, &a), a.clone());
            let left = merge(s, &ab, &c);
            let right = merge(s, &a, &merge(s, &b, &c));
            prop_assert!(left == right, "{}: ({a} ⊕ {b}) ⊕ {c} = {left} ≠ {right}", s.scenario);
        }
    }

    #[test]
    fn merge_commutes_up_to_equal_keys(a in route_bytes(), b in route_bytes()) {
        for s in schemas() {
            let (a, b) = (route(&s.schema, &a), route(&s.schema, &b));
            let (ab, ba) = (merge(s, &a, &b), merge(s, &b, &a));
            prop_assert!(same_rank(s, &ab, &ba), "{}: {a} ⊕ {b} = {ab}, reversed {ba}", s.scenario);
            prop_assert!(ab == ba || (ab == a && ba == b), "{}: a tie keeps the left", s.scenario);
        }
    }

    #[test]
    fn merge_prefers_the_original_over_a_transferred_copy(r in route_bytes()) {
        for s in schemas() {
            let r = route(&s.schema, &r);
            for policy in &s.policies {
                let sent = policy.apply(&s.schema, &r, &s.env).expect("registry policies apply");
                prop_assert!(merge(s, &r, &sent) == r, "{}: {r} vs {sent}", s.scenario);
            }
        }
    }
}

#[test]
fn the_laws_cover_every_registry_schema() {
    // the plain decision process is shared by the reach, length, MED, AD
    // and failure scenarios; valley freedom adds a community, hijack a
    // leading prefix-class key
    let first: Vec<&str> = schemas().iter().map(|s| s.scenario.as_str()).collect();
    assert_eq!(first, ["HopPath", "SpReach", "SpVf", "SpHijack"]);
}
