//! Temporal operators over route predicates (Fig. 12).
//!
//! A [`Temporal`] denotes a function from a time `t : N` to a set of routes
//! (represented as a predicate over a route term). The language deliberately
//! mirrors the paper's:
//!
//! * `G(φ)`       — `φ` holds at every time;
//! * `φ U^τ Q`   — `φ` holds strictly before witness time `τ`, and the
//!   operator `Q` holds from `τ` on;
//! * `F^τ(Q)`    — anything may hold before `τ`, `Q` from `τ` on
//!   (sugar for `true U^τ Q`);
//! * lifted `⊓`, `⊔` and `∼` for intersection, union and complement.
//!
//! Witness times are *expressions*, so they may depend on symbolic values —
//! e.g. `dist(v)` as a function of a symbolic destination in the all-pairs
//! benchmarks.
//!
//! The checker instantiates an operator at its time variable `t` and at
//! route variables it binds itself: `route-<v>` in a node's own names,
//! `route@self` and `route@in<i>` in the names of its key
//! ([`timepiece_algebra::is_checker_bound`]). A predicate closure must use
//! the route it is applied to and must not write these names itself: the
//! checker's variable would capture its own. A check refuses a node whose
//! conditions would apply a closure that writes a route name
//! ([`crate::CoreError::ReservedName`]) before it builds them.

use std::fmt;
use std::sync::Arc;

#[cfg(test)]
use timepiece_expr::Type;
use timepiece_expr::{Expr, Value};

/// A predicate over a route term: given the route, produce a boolean term.
pub type RoutePredicate = Arc<dyn Fn(&Expr) -> Expr + Send + Sync>;

/// A temporal operator: a time-indexed family of route predicates.
#[derive(Clone)]
pub enum Temporal {
    /// `G(φ)` — globally `φ`.
    Globally(RoutePredicate),
    /// `φ U^τ Q` — `φ` until witness time `τ`, then `Q`.
    Until(Expr, RoutePredicate, Box<Temporal>),
    /// Lifted intersection `Q₁ ⊓ Q₂`.
    And(Box<Temporal>, Box<Temporal>),
    /// Lifted union `Q₁ ⊔ Q₂`.
    Or(Box<Temporal>, Box<Temporal>),
    /// Lifted complement `∼Q`.
    Not(Box<Temporal>),
}

impl fmt::Debug for Temporal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Temporal::Globally(_) => write!(f, "G(φ)"),
            Temporal::Until(tau, _, q) => write!(f, "φ U^{tau} {q:?}"),
            Temporal::And(a, b) => write!(f, "({a:?} ⊓ {b:?})"),
            Temporal::Or(a, b) => write!(f, "({a:?} ⊔ {b:?})"),
            Temporal::Not(a) => write!(f, "∼{a:?}"),
        }
    }
}

impl Temporal {
    /// `G(φ)`.
    pub fn globally(phi: impl Fn(&Expr) -> Expr + Send + Sync + 'static) -> Temporal {
        Temporal::Globally(Arc::new(phi))
    }

    /// `φ U^τ Q` with an expression witness time.
    pub fn until(
        tau: Expr,
        phi: impl Fn(&Expr) -> Expr + Send + Sync + 'static,
        q: Temporal,
    ) -> Temporal {
        Temporal::Until(tau, Arc::new(phi), Box::new(q))
    }

    /// `φ U^τ Q` with a concrete witness time.
    pub fn until_at(
        tau: u64,
        phi: impl Fn(&Expr) -> Expr + Send + Sync + 'static,
        q: Temporal,
    ) -> Temporal {
        Temporal::until(Expr::int(tau as i64), phi, q)
    }

    /// `F^τ(Q)` — true until `τ`, then `Q`.
    pub fn finally(tau: Expr, q: Temporal) -> Temporal {
        Temporal::until(tau, |_| Expr::bool(true), q)
    }

    /// `F^τ(Q)` with a concrete witness time.
    pub fn finally_at(tau: u64, q: Temporal) -> Temporal {
        Temporal::finally(Expr::int(tau as i64), q)
    }

    /// Lifted intersection `self ⊓ other`.
    pub fn and(self, other: Temporal) -> Temporal {
        Temporal::And(Box::new(self), Box::new(other))
    }

    /// Lifted union `self ⊔ other`.
    pub fn or(self, other: Temporal) -> Temporal {
        Temporal::Or(Box::new(self), Box::new(other))
    }

    /// Lifted complement `∼self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Temporal {
        Temporal::Not(Box::new(self))
    }

    /// The constant-true operator (`G(true)`), the paper's "any route".
    pub fn any() -> Temporal {
        Temporal::globally(|_| Expr::bool(true))
    }

    /// This operator with its outermost witness time replaced by `tau` —
    /// the witness-time *delta* of incremental re-checking: `φ U^τ Q`
    /// becomes `φ U^tau Q` (and the rewrite distributes over the lifted
    /// connectives). Returns `None` when the operator has no witness time
    /// anywhere (`G(φ)` all the way down), so callers can reject the edit
    /// instead of silently ignoring it.
    pub fn with_witness(&self, tau: &Expr) -> Option<Temporal> {
        match self {
            Temporal::Globally(_) => None,
            Temporal::Until(_, phi, q) => {
                Some(Temporal::Until(tau.clone(), Arc::clone(phi), q.clone()))
            }
            Temporal::And(a, b) => match (a.with_witness(tau), b.with_witness(tau)) {
                (None, None) => None,
                (ra, rb) => Some(Temporal::And(
                    Box::new(ra.unwrap_or_else(|| (**a).clone())),
                    Box::new(rb.unwrap_or_else(|| (**b).clone())),
                )),
            },
            Temporal::Or(a, b) => match (a.with_witness(tau), b.with_witness(tau)) {
                (None, None) => None,
                (ra, rb) => Some(Temporal::Or(
                    Box::new(ra.unwrap_or_else(|| (**a).clone())),
                    Box::new(rb.unwrap_or_else(|| (**b).clone())),
                )),
            },
            Temporal::Not(a) => a.with_witness(tau).map(|r| Temporal::Not(Box::new(r))),
        }
    }

    /// Instantiates the operator: the predicate holding at time `t` applied
    /// to `route`. `t` may be any integer-typed term (symbolic or constant).
    ///
    /// Until expands to a case split: `if t < τ then φ(route) else Q(t)(route)`.
    pub fn at(&self, t: &Expr, route: &Expr) -> Expr {
        match self {
            Temporal::Globally(phi) => phi(route),
            Temporal::Until(tau, phi, q) => {
                t.clone().lt(tau.clone()).ite(phi(route), q.at(t, route))
            }
            Temporal::And(a, b) => a.at(t, route).and(b.at(t, route)),
            Temporal::Or(a, b) => a.at(t, route).or(b.at(t, route)),
            Temporal::Not(a) => a.at(t, route).not(),
        }
    }

    /// Erases the temporal structure, producing the predicate a stable-state
    /// verifier checks instead (§6: "we erased the temporal details"): the
    /// limit behavior `Q(∞)`.
    pub fn erase(&self, route: &Expr) -> Expr {
        match self {
            Temporal::Globally(phi) => phi(route),
            Temporal::Until(_, _, q) => q.erase(route),
            Temporal::And(a, b) => a.erase(route).and(b.erase(route)),
            Temporal::Or(a, b) => a.erase(route).or(b.erase(route)),
            Temporal::Not(a) => a.erase(route).not(),
        }
    }

    /// The exact stepwise interface of a closed simulation trace
    /// (Theorem 3.3): `A(v)(t) = {σ(v)(t)}`, expressed as nested untils that
    /// pin each time step to its simulated value, with the stable value
    /// holding globally from the end of the trace.
    ///
    /// # Panics
    ///
    /// Panics if `trace` is empty.
    pub fn from_trace(trace: &[Value]) -> Temporal {
        assert!(!trace.is_empty(), "trace must contain at least the initial state");
        let eq_pred =
            |value: Value| move |route: &Expr| route.clone().eq(Expr::constant(value.clone()));
        let last = trace.last().expect("nonempty").clone();
        let mut acc = Temporal::globally(eq_pred(last));
        for (t, value) in trace.iter().enumerate().rev().skip(1) {
            acc = Temporal::until_at((t + 1) as u64, eq_pred(value.clone()), acc);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timepiece_expr::Env;

    fn holds(op: &Temporal, t: i64, route: Value) -> bool {
        let r = Expr::var("r", route.type_of());
        let tv = Expr::var("t", Type::Int);
        let e = op.at(&tv, &r);
        let mut env = Env::new();
        env.bind("r", route);
        env.bind("t", Value::int(t));
        e.eval_bool(&env).unwrap()
    }

    fn ge(n: i64) -> Temporal {
        Temporal::globally(move |r| r.clone().ge(Expr::int(n)))
    }

    #[test]
    fn globally_ignores_time() {
        let op = ge(5);
        assert!(holds(&op, 0, Value::int(7)));
        assert!(holds(&op, 1000, Value::int(7)));
        assert!(!holds(&op, 0, Value::int(3)));
    }

    #[test]
    fn until_switches_at_witness_time() {
        // r = 0 until time 3, then r >= 5
        let op = Temporal::until_at(3, |r| r.clone().eq(Expr::int(0)), ge(5));
        assert!(holds(&op, 0, Value::int(0)));
        assert!(holds(&op, 2, Value::int(0)));
        assert!(!holds(&op, 3, Value::int(0)));
        assert!(holds(&op, 3, Value::int(5)));
        assert!(!holds(&op, 2, Value::int(5)));
    }

    #[test]
    fn finally_allows_anything_before() {
        let op = Temporal::finally_at(2, ge(1));
        assert!(holds(&op, 0, Value::int(-100)));
        assert!(holds(&op, 1, Value::int(0)));
        assert!(!holds(&op, 2, Value::int(0)));
        assert!(holds(&op, 2, Value::int(1)));
    }

    #[test]
    fn with_witness_moves_the_switch_point() {
        let op = Temporal::finally_at(2, ge(1));
        let later = op.with_witness(&Expr::int(5)).expect("an until has a witness");
        // the original switches at 2, the rewritten one at 5
        assert!(!holds(&op, 3, Value::int(0)));
        assert!(holds(&later, 3, Value::int(0)));
        assert!(!holds(&later, 5, Value::int(0)));
        assert!(holds(&later, 5, Value::int(1)));
        // operators with no witness time anywhere reject the edit
        assert!(ge(1).with_witness(&Expr::int(5)).is_none());
        assert!(Temporal::any().not().with_witness(&Expr::int(5)).is_none());
        // the rewrite reaches through lifted connectives
        let both = op.and(ge(0)).with_witness(&Expr::int(4)).expect("left side has a witness");
        assert!(holds(&both, 3, Value::int(0)));
        assert!(!holds(&both, 4, Value::int(0)));
    }

    #[test]
    fn nested_untils_model_intervals() {
        // the paper's F^2(φ1 U^4 G(φ2)) example: true on t<2, φ1 on 2..4, φ2 after
        let phi1 = |r: &Expr| r.clone().eq(Expr::int(1));
        let phi2 = |r: &Expr| r.clone().eq(Expr::int(2));
        let op = Temporal::finally_at(2, Temporal::until_at(4, phi1, Temporal::globally(phi2)));
        assert!(holds(&op, 0, Value::int(999)));
        assert!(holds(&op, 1, Value::int(999)));
        assert!(holds(&op, 2, Value::int(1)) && !holds(&op, 2, Value::int(2)));
        assert!(holds(&op, 3, Value::int(1)));
        assert!(holds(&op, 4, Value::int(2)) && !holds(&op, 4, Value::int(1)));
        assert!(holds(&op, 100, Value::int(2)));
    }

    #[test]
    fn lifted_connectives() {
        let both = ge(0).and(ge(5));
        assert!(holds(&both, 0, Value::int(5)));
        assert!(!holds(&both, 0, Value::int(3)));
        let either = ge(10).or(ge(5));
        assert!(holds(&either, 0, Value::int(6)));
        assert!(!holds(&either, 0, Value::int(4)));
        let neg = ge(5).not();
        assert!(holds(&neg, 0, Value::int(4)));
        assert!(!holds(&neg, 0, Value::int(5)));
        assert!(holds(&Temporal::any(), 7, Value::int(-3)));
    }

    #[test]
    fn erase_takes_limit_operator() {
        let op = Temporal::until_at(3, |r| r.clone().eq(Expr::int(0)), ge(5));
        let r = Expr::var("r", Type::Int);
        let e = op.erase(&r);
        let mut env = Env::new();
        env.bind("r", Value::int(7));
        assert!(e.eval_bool(&env).unwrap());
        env.bind("r", Value::int(0));
        assert!(!e.eval_bool(&env).unwrap());
    }

    #[test]
    fn from_trace_pins_each_step() {
        let trace = vec![Value::int(0), Value::int(1), Value::int(2)];
        let op = Temporal::from_trace(&trace);
        for (t, v) in trace.iter().enumerate() {
            assert!(holds(&op, t as i64, v.clone()), "step {t}");
            // any other value fails at that step
            assert!(!holds(&op, t as i64, Value::int(99)));
        }
        // stable value holds forever after
        assert!(holds(&op, 50, Value::int(2)));
        assert!(!holds(&op, 50, Value::int(1)));
    }

    #[test]
    fn symbolic_witness_times() {
        // witness time is a symbolic variable k: r=0 until k, then r=1
        let k = Expr::var("k", Type::Int);
        let op = Temporal::until(
            k,
            |r| r.clone().eq(Expr::int(0)),
            Temporal::globally(|r| r.clone().eq(Expr::int(1))),
        );
        let r = Expr::var("r", Type::Int);
        let t = Expr::var("t", Type::Int);
        let e = op.at(&t, &r);
        let mut env = Env::new();
        env.bind("k", Value::int(10));
        env.bind("t", Value::int(9));
        env.bind("r", Value::int(0));
        assert!(e.eval_bool(&env).unwrap());
        env.bind("t", Value::int(10));
        assert!(!e.eval_bool(&env).unwrap());
        env.bind("r", Value::int(1));
        assert!(e.eval_bool(&env).unwrap());
    }

    #[test]
    fn debug_renders_structure() {
        let op = Temporal::finally_at(2, Temporal::any()).and(Temporal::any().not());
        let s = format!("{op:?}");
        assert!(s.contains("⊓"));
        assert!(s.contains("U^2"));
    }
}
