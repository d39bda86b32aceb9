//! Property tests for the hash-consing arena: interning must be invisible
//! to the language semantics (evaluation and typing), and visible only as
//! the O(1)-equality guarantee — structurally equal terms share one
//! canonical node with one stable id, from any number of threads. The one
//! substitution built on it, [`substitute`], is checked against evaluation.

use proptest::prelude::*;
use timepiece_expr::{substitute, Env, Expr, InternId, Type, Value};

/// Builds a well-typed random boolean term from `seed`, deterministically:
/// the same seed always describes the same structure, so building twice is
/// exactly the "rebuild an identical term" scenario interning must collapse.
fn build(seed: u64) -> Expr {
    let mut rng = TestRng::deterministic(seed, "interning-gen");
    gen_bool(&mut rng, 4)
}

/// A random integer-typed term over the `pi0..pi3` variables.
fn gen_int(rng: &mut TestRng, depth: u32) -> Expr {
    let choice = if depth == 0 { rng.below(2) } else { rng.below(7) };
    match choice {
        0 => Expr::int(rng.below(16) as i64 - 8),
        1 => Expr::var(format!("pi{}", rng.below(4)), Type::Int),
        2 => gen_int(rng, depth - 1).add(gen_int(rng, depth - 1)),
        3 => gen_int(rng, depth - 1).sub(gen_int(rng, depth - 1)),
        4 => gen_int(rng, depth - 1).min(gen_int(rng, depth - 1)),
        5 => gen_int(rng, depth - 1).max(gen_int(rng, depth - 1)),
        _ => gen_bool(rng, depth - 1).ite(gen_int(rng, depth - 1), gen_int(rng, depth - 1)),
    }
}

/// A random boolean-typed term over the `pb0..pb2` and `pi0..pi3` variables.
fn gen_bool(rng: &mut TestRng, depth: u32) -> Expr {
    let choice = if depth == 0 { rng.below(2) } else { rng.below(8) };
    match choice {
        0 => Expr::bool(rng.below(2) == 0),
        1 => Expr::var(format!("pb{}", rng.below(3)), Type::Bool),
        2 => gen_bool(rng, depth - 1).not(),
        3 => gen_bool(rng, depth - 1).and(gen_bool(rng, depth - 1)),
        4 => gen_bool(rng, depth - 1).or(gen_bool(rng, depth - 1)),
        5 => gen_bool(rng, depth - 1).implies(gen_bool(rng, depth - 1)),
        6 => gen_int(rng, depth - 1).le(gen_int(rng, depth - 1)),
        _ => gen_int(rng, depth - 1).eq(gen_int(rng, depth - 1)),
    }
}

/// One concrete binding for every variable the generators mention.
fn test_env() -> Env {
    let mut env = Env::new();
    for (i, v) in [3i64, -1, 0, 7].into_iter().enumerate() {
        env.bind(format!("pi{i}"), Value::int(v));
    }
    for (i, b) in [true, false, true].into_iter().enumerate() {
        env.bind(format!("pb{i}"), Value::Bool(b));
    }
    env
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Rebuilding a structure yields the *same* canonical node: same stable
    /// intern id, pointer-equal.
    #[test]
    fn rebuilding_a_term_reuses_the_canonical_node(seed in 0u64..u64::MAX) {
        let a = build(seed);
        let b = build(seed);
        prop_assert_eq!(a.node_id(), b.node_id());
        prop_assert!(a.same_node(&b));
    }

    /// Interning is semantically invisible: a term and its rebuild have the
    /// same type and evaluate to the same value.
    #[test]
    fn interning_preserves_eval_and_typing(seed in 0u64..u64::MAX) {
        let a = build(seed);
        let b = build(seed);
        let ty = a.type_of().expect("generated terms are well-typed");
        prop_assert_eq!(ty, b.type_of().expect("rebuild is well-typed"));
        let env = test_env();
        let va = a.eval(&env).expect("generated terms close over the test env");
        prop_assert_eq!(va, b.eval(&env).expect("rebuild evaluates"));
    }

    /// Structural equality and intern-id equality are the same relation —
    /// in both directions, for independently generated term pairs.
    #[test]
    fn structural_equality_iff_same_intern_id(sa in 0u64..u64::MAX, sb in 0u64..u64::MAX) {
        let a = build(sa);
        let b = build(sb);
        prop_assert_eq!(a == b, a.node_id() == b.node_id());
        // ExprKind equality is shallow (children by identity), which on
        // canonical children is exactly deep structural equality
        prop_assert_eq!(a.kind() == b.kind(), a.node_id() == b.node_id());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Substituting a term for a variable evaluates like binding the
    /// variable to the term's value.
    #[test]
    fn substitution_evaluates_like_binding_the_value(
        seed in 0u64..u64::MAX,
        with in 0u64..u64::MAX,
        var in 0u64..4,
    ) {
        let term = build(seed);
        let replacement = gen_int(&mut TestRng::deterministic(with, "substitution-gen"), 3);
        let name = format!("pi{var}");
        let env = test_env();
        let value = replacement.eval(&env).expect("generated terms close over the test env");
        let mut bound = test_env();
        bound.bind(name.clone(), value);
        prop_assert_eq!(
            substitute(&term, &name, &replacement).eval(&env).expect("substituted term evaluates"),
            term.eval(&bound).expect("generated terms close over the test env")
        );
    }

    /// A term without the variable comes back as the very same node.
    #[test]
    fn substituting_an_absent_variable_returns_the_same_node(
        seed in 0u64..u64::MAX,
        var in 0u64..4,
    ) {
        let term = build(seed);
        let name = format!("pi{var}");
        let absent = !term.free_vars().expect("well-typed").contains_key(&name);
        let replaced = substitute(&term, &name, &Expr::int(99));
        prop_assert_eq!(replaced.same_node(&term), absent);
        prop_assert!(substitute(&term, "nowhere", &Expr::int(99)).same_node(&term));
    }
}

/// Racing threads interning the same term set must converge on one
/// canonical node per term — the double-checked probe cannot hand two
/// threads two different ids for one structure.
#[test]
fn concurrent_interning_converges_on_one_id_per_term() {
    const THREADS: usize = 8;
    let seeds: Vec<u64> = (0..32u64).map(|i| 0xC0_FFEE ^ (i.wrapping_mul(0x9E37_79B9))).collect();
    let per_thread: Vec<Vec<InternId>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| scope.spawn(|| seeds.iter().map(|&s| build(s).node_id()).collect()))
            .collect();
        handles.into_iter().map(|h| h.join().expect("interning thread panicked")).collect()
    });
    for ids in &per_thread[1..] {
        assert_eq!(ids, &per_thread[0], "threads disagreed on canonical intern ids");
    }
}
