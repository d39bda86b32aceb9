//! The eBGP route schema of Table 3, built on the declarative policy IR.
//!
//! A route is `Option<Record>` (with `None` as the paper's `∞`), where the
//! record models the fields the paper lists:
//!
//! | field | SMT type |
//! |---|---|
//! | `destination` (IPv4 prefix) | bitvector(32) |
//! | `ad` (administrative distance) | bitvector(32) |
//! | `lp` (local preference) | bitvector(32) |
//! | `med` (multi-exit discriminator) | bitvector(32) |
//! | `origin` | enum {egp, igp, unknown} |
//! | `len` (AS-path length) | unbounded integer |
//! | `comms` (communities) | fixed-universe set |
//!
//! Extra boolean *ghost* fields (e.g. `Hijack`'s external-origin tag) can be
//! appended without touching the protocol logic.
//!
//! [`BgpSchema`] wraps a [`RouteSchema`] whose merge keys spell out the full
//! BGP decision process — administrative distance ≺ local preference ≺
//! AS-path length ≺ MED ≺ origin — so one declarative definition drives the
//! simulator's value semantics, the SMT encoding, solver-session keying and
//! inference's atom grammar alike. Benchmarks with extra selection steps
//! (e.g. `Hijack`'s per-prefix RIB slots) prepend [`MergeKey`]s via
//! [`BgpSchema::with_leading_keys`].

use std::sync::Arc;

use timepiece_algebra::{MergeKey, RoutePolicy, RouteSchema};
use timepiece_expr::{Expr, RecordDef, Type};

/// Default administrative distance for eBGP.
pub const DEFAULT_AD: u64 = 20;
/// Default local preference.
pub const DEFAULT_LP: u64 = 100;
/// Default multi-exit discriminator.
pub const DEFAULT_MED: u64 = 0;

/// BGP origin codes, in preference order (IGP best, unknown worst).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Origin {
    /// Learned from an interior gateway protocol.
    Igp,
    /// Learned from an exterior gateway protocol.
    Egp,
    /// Origin unknown ("incomplete").
    Unknown,
}

impl Origin {
    /// The lowercase variant name of the schema's `origin` enum field.
    pub fn variant(&self) -> &'static str {
        match self {
            Origin::Igp => "igp",
            Origin::Egp => "egp",
            Origin::Unknown => "unknown",
        }
    }
}

/// A configured eBGP route schema: community universe plus ghost fields.
///
/// # Example
///
/// ```
/// use timepiece_nets::bgp::BgpSchema;
///
/// let schema = BgpSchema::new(["down"], ["tag"]);
/// let r = schema.route_var("r");
/// let originated = schema.originate(timepiece_expr::Expr::bv(0, 32));
/// assert_eq!(originated.type_of().unwrap(), schema.route_type());
/// let _pred = schema.len(&r.clone().get_some());
/// // the decision process is declarative data, not a closure:
/// assert_eq!(schema.ir().merge_keys().len(), 5);
/// ```
#[derive(Debug, Clone)]
pub struct BgpSchema {
    ir: RouteSchema,
    ghost_fields: Vec<String>,
}

impl BgpSchema {
    /// Builds a schema with the given community universe and extra boolean
    /// ghost fields, merging by the standard decision process.
    pub fn new<'a, 'b>(
        communities: impl IntoIterator<Item = &'a str>,
        ghost_bools: impl IntoIterator<Item = &'b str>,
    ) -> BgpSchema {
        BgpSchema::with_leading_keys(communities, ghost_bools, [])
    }

    /// As [`BgpSchema::new`], with extra merge keys applied *before* the
    /// decision process (e.g. `Hijack`'s prefix-class preference).
    pub fn with_leading_keys<'a, 'b>(
        communities: impl IntoIterator<Item = &'a str>,
        ghost_bools: impl IntoIterator<Item = &'b str>,
        leading_keys: impl IntoIterator<Item = MergeKey>,
    ) -> BgpSchema {
        let comm_ty = Type::set("Communities", communities.into_iter().collect::<Vec<_>>());
        let origin_ty = Type::enumeration("Origin", ["egp", "igp", "unknown"]);
        let mut fields: Vec<(String, Type)> = vec![
            ("destination".into(), Type::BitVec(32)),
            ("ad".into(), Type::BitVec(32)),
            ("lp".into(), Type::BitVec(32)),
            ("med".into(), Type::BitVec(32)),
            ("origin".into(), origin_ty),
            ("len".into(), Type::Int),
            ("comms".into(), comm_ty),
        ];
        let ghost_fields: Vec<String> = ghost_bools.into_iter().map(str::to_owned).collect();
        for g in &ghost_fields {
            fields.push((g.clone(), Type::Bool));
        }
        // the full decision process: AD ≺ lp ≺ AS-path length ≺ MED ≺ origin
        let mut keys: Vec<MergeKey> = leading_keys.into_iter().collect();
        keys.extend([
            MergeKey::Lower("ad".into()),
            MergeKey::Higher("lp".into()),
            MergeKey::Lower("len".into()),
            MergeKey::Lower("med".into()),
            MergeKey::RankEnum("origin".into(), vec!["igp".into(), "egp".into(), "unknown".into()]),
        ]);
        BgpSchema { ir: RouteSchema::new("BgpRoute", fields, keys), ghost_fields }
    }

    /// The underlying declarative schema (record shape + merge keys).
    pub fn ir(&self) -> &RouteSchema {
        &self.ir
    }

    /// The record definition of a present route.
    pub fn record_def(&self) -> &Arc<RecordDef> {
        self.ir.record_def()
    }

    /// The route type `S = Option<BgpRoute>`.
    pub fn route_type(&self) -> Type {
        self.ir.route_type()
    }

    /// The names of the ghost fields.
    pub fn ghost_fields(&self) -> &[String] {
        &self.ghost_fields
    }

    /// A route variable of this schema's type.
    pub fn route_var(&self, name: &str) -> Expr {
        Expr::var(name, self.route_type())
    }

    /// A freshly-originated route for `destination`: default attributes,
    /// zero length, no communities, ghost fields false.
    pub fn originate(&self, destination: Expr) -> Expr {
        self.originate_with(destination, DEFAULT_AD, Origin::Igp, 0)
    }

    /// A route for `destination` with chosen administrative distance,
    /// origin and length — the dual-protocol scenarios (IGP/EGP) originate
    /// both kinds. Other attributes stay at their defaults.
    pub fn originate_with(&self, destination: Expr, ad: u64, origin: Origin, len: i64) -> Expr {
        let origin_def =
            self.record_def().field_type("origin").unwrap().enum_def().unwrap().clone();
        let mut fields = vec![
            destination,
            Expr::bv(ad, 32),
            Expr::bv(DEFAULT_LP, 32),
            Expr::bv(DEFAULT_MED, 32),
            Expr::constant(timepiece_expr::Value::enum_variant(&origin_def, origin.variant())),
            Expr::int(len),
            Expr::constant(timepiece_expr::Value::default_of(
                self.record_def().field_type("comms").unwrap(),
            )),
        ];
        for _ in &self.ghost_fields {
            fields.push(Expr::bool(false));
        }
        Expr::record(self.record_def(), fields).some()
    }

    /// The `∞` route as a term.
    pub fn none_route(&self) -> Expr {
        self.ir.none_route()
    }

    // -- field projections over a *present* route (a record term) -----------

    /// The destination prefix of a present route.
    pub fn destination(&self, route: &Expr) -> Expr {
        route.clone().field("destination")
    }

    /// The local preference of a present route.
    pub fn lp(&self, route: &Expr) -> Expr {
        route.clone().field("lp")
    }

    /// The AS-path length of a present route.
    pub fn len(&self, route: &Expr) -> Expr {
        route.clone().field("len")
    }

    /// The multi-exit discriminator of a present route.
    pub fn med(&self, route: &Expr) -> Expr {
        route.clone().field("med")
    }

    /// Community membership of a present route.
    pub fn has_community(&self, route: &Expr, tag: &str) -> Expr {
        route.clone().field("comms").contains(tag)
    }

    /// A ghost boolean of a present route.
    pub fn ghost(&self, route: &Expr, field: &str) -> Expr {
        route.clone().field(field)
    }

    /// `origin = variant` over a present route.
    pub fn origin_is(&self, route: &Expr, origin: Origin) -> Expr {
        let def = self.record_def().field_type("origin").unwrap().enum_def().unwrap().clone();
        route
            .clone()
            .field("origin")
            .eq(Expr::constant(timepiece_expr::Value::enum_variant(&def, origin.variant())))
    }

    // -- protocol functions, as declarative policies -------------------------

    /// The default transfer policy: increment the AS-path length, preserve
    /// all other fields; `∞` stays `∞`.
    pub fn increment_policy(&self) -> RoutePolicy {
        RoutePolicy::new().increment("len")
    }

    // -- term-level conveniences (interfaces and tests) ----------------------

    /// The default transfer as a term (compiled [`BgpSchema::increment_policy`]).
    pub fn transfer_increment(&self, route: &Expr) -> Expr {
        self.increment_policy().compile(&self.ir, route)
    }

    /// The selection `⊕` as a term (compiled from the schema's merge keys):
    /// prefer a present route, then the decision process; the first argument
    /// wins ties.
    pub fn merge(&self, a: &Expr, b: &Expr) -> Expr {
        self.ir.merge_expr(a, b)
    }

    /// Is present route `x` strictly preferred to present route `y`?
    pub fn prefer(&self, x: &Expr, y: &Expr) -> Expr {
        self.ir.prefer_expr(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timepiece_expr::{Env, Value};

    fn schema() -> BgpSchema {
        BgpSchema::new(["down", "bte"], ["tag"])
    }

    fn route(s: &BgpSchema, lp: u64, len: i64, comms: &[&str], tag: bool) -> Value {
        let def = s.record_def();
        let comm_def = def.field_type("comms").unwrap().set_def().unwrap().clone();
        let origin_def = def.field_type("origin").unwrap().enum_def().unwrap().clone();
        Value::some(Value::record(
            def,
            vec![
                Value::bv(0, 32),
                Value::bv(DEFAULT_AD, 32),
                Value::bv(lp, 32),
                Value::bv(DEFAULT_MED, 32),
                Value::enum_variant(&origin_def, "igp"),
                Value::int(len),
                Value::set_of(&comm_def, comms.iter().copied()),
                Value::Bool(tag),
            ],
        ))
    }

    fn eval_merge(s: &BgpSchema, a: Value, b: Value) -> Value {
        let va = Expr::var("a", s.route_type());
        let vb = Expr::var("b", s.route_type());
        let m = s.merge(&va, &vb);
        let mut env = Env::new();
        env.bind("a", a);
        env.bind("b", b);
        m.eval(&env).unwrap()
    }

    #[test]
    fn schema_shape() {
        let s = schema();
        assert_eq!(s.record_def().fields().len(), 8);
        assert_eq!(s.ghost_fields(), ["tag"]);
        assert!(s.route_type().is_option());
        assert_eq!(s.ir().merge_keys().len(), 5, "full decision process");
    }

    #[test]
    fn originate_is_well_typed_and_fresh() {
        let s = schema();
        let o = s.originate(Expr::bv(42, 32));
        assert_eq!(o.type_of().unwrap(), s.route_type());
        let v = o.eval(&Env::new()).unwrap();
        let r = v.unwrap_or_default().unwrap();
        assert_eq!(r.field("len").unwrap().as_int(), Some(0));
        assert_eq!(r.field("lp").unwrap().as_bv(), Some(DEFAULT_LP));
        assert_eq!(r.field("tag").unwrap().as_bool(), Some(false));
        assert_eq!(r.field("destination").unwrap().as_bv(), Some(42));
    }

    #[test]
    fn originate_with_sets_protocol_attributes() {
        let s = schema();
        let o = s.originate_with(Expr::bv(1, 32), 110, Origin::Egp, 1);
        let r = o.eval(&Env::new()).unwrap().unwrap_or_default().unwrap();
        assert_eq!(r.field("ad").unwrap().as_bv(), Some(110));
        assert_eq!(r.field("len").unwrap().as_int(), Some(1));
        assert_eq!(r.field("origin").unwrap().to_string(), "egp");
    }

    #[test]
    fn transfer_increments_len_only() {
        let s = schema();
        let r = route(&s, 100, 3, &["down"], true);
        let v = Expr::var("r", s.route_type());
        let out = s.transfer_increment(&v);
        let mut env = Env::new();
        env.bind("r", r);
        let result = out.eval(&env).unwrap().unwrap_or_default().unwrap();
        assert_eq!(result.field("len").unwrap().as_int(), Some(4));
        assert_eq!(result.field("lp").unwrap().as_bv(), Some(100));
        assert_eq!(result.field("comms").unwrap().contains_tag("down"), Some(true));
        assert_eq!(result.field("tag").unwrap().as_bool(), Some(true));
        // ∞ stays ∞
        env.bind("r", Value::default_of(&s.route_type()));
        assert_eq!(out.eval(&env).unwrap().is_some_option(), Some(false));
    }

    #[test]
    fn merge_prefers_presence_lp_then_len() {
        let s = schema();
        let none = Value::default_of(&s.route_type());
        let low = route(&s, 100, 2, &[], false);
        let high = route(&s, 200, 5, &[], false);
        let short = route(&s, 200, 1, &[], false);
        assert_eq!(eval_merge(&s, none.clone(), low.clone()), low);
        assert_eq!(eval_merge(&s, low.clone(), none.clone()), low);
        assert_eq!(eval_merge(&s, low.clone(), high.clone()), high);
        assert_eq!(eval_merge(&s, high.clone(), short.clone()), short);
        assert_eq!(eval_merge(&s, none.clone(), none.clone()), none);
    }

    #[test]
    fn merge_ties_keep_first_argument() {
        let s = schema();
        let a = route(&s, 100, 2, &["down"], false);
        let b = route(&s, 100, 2, &[], true);
        assert_eq!(eval_merge(&s, a.clone(), b.clone()), a);
        assert_eq!(eval_merge(&s, b.clone(), a), b);
    }

    #[test]
    fn origin_breaks_final_ties() {
        // equal ad/lp/len/med: the igp-origin route wins over egp
        let s = schema();
        let def = s.record_def();
        let comm_def = def.field_type("comms").unwrap().set_def().unwrap().clone();
        let origin_def = def.field_type("origin").unwrap().enum_def().unwrap().clone();
        let mk = |origin: &str| {
            Value::some(Value::record(
                def,
                vec![
                    Value::bv(0, 32),
                    Value::bv(DEFAULT_AD, 32),
                    Value::bv(DEFAULT_LP, 32),
                    Value::bv(DEFAULT_MED, 32),
                    Value::enum_variant(&origin_def, origin),
                    Value::int(2),
                    Value::set_of(&comm_def, []),
                    Value::Bool(false),
                ],
            ))
        };
        let igp = mk("igp");
        let egp = mk("egp");
        assert_eq!(eval_merge(&s, egp.clone(), igp.clone()), igp);
        assert_eq!(eval_merge(&s, igp.clone(), egp), igp);
    }

    /// The attributes the decision process reads below the administrative
    /// distance.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct DecisionRoute {
        lp: u64,
        len: u64,
        med: u64,
        origin: Origin,
    }

    /// The BGP decision process written out by hand, independently of the
    /// schema's merge keys: lp ≻ len ≻ MED ≻ origin, the first argument
    /// winning ties.
    fn decision_bgp_merge(a: DecisionRoute, b: DecisionRoute) -> DecisionRoute {
        let key = |r: &DecisionRoute| (std::cmp::Reverse(r.lp), r.len, r.med, r.origin);
        if key(&b) < key(&a) {
            b
        } else {
            a
        }
    }

    #[test]
    fn merge_agrees_with_full_decision_process() {
        let s = schema();
        let def = s.record_def();
        let comm_def = def.field_type("comms").unwrap().set_def().unwrap().clone();
        let origin_def = def.field_type("origin").unwrap().enum_def().unwrap().clone();
        let symbolic = |r: &DecisionRoute| {
            Value::some(Value::record(
                def,
                vec![
                    Value::bv(0, 32),
                    Value::bv(DEFAULT_AD, 32),
                    Value::bv(r.lp, 32),
                    Value::bv(r.med, 32),
                    Value::enum_variant(&origin_def, r.origin.variant()),
                    Value::int(r.len as i64),
                    Value::set_of(&comm_def, []),
                    Value::Bool(false),
                ],
            ))
        };
        let full = |lp, len, med, origin| DecisionRoute { lp, len, med, origin };
        // local preference and path length alone (MED 0, origin IGP) ...
        let lp_len = [(100, 0), (100, 3), (200, 5), (100, 1), (200, 2)]
            .map(|(lp, len)| full(lp, len, DEFAULT_MED, Origin::Igp));
        // ... and ties broken further down the process
        let samples = [
            full(100, 2, 0, Origin::Igp),
            full(100, 2, 5, Origin::Igp),
            full(100, 2, 0, Origin::Egp),
            full(200, 9, 9, Origin::Unknown),
            full(100, 1, 9, Origin::Unknown),
        ];
        let env = Env::new();
        for a in lp_len.iter().chain(&samples) {
            for b in lp_len.iter().chain(&samples) {
                let winner = symbolic(&decision_bgp_merge(*a, *b));
                assert_eq!(eval_merge(&s, symbolic(a), symbolic(b)), winner, "{a:?} vs {b:?}");
                let value = s.ir().merge_value(&symbolic(a), &symbolic(b), &env).unwrap();
                assert_eq!(value, winner, "{a:?} vs {b:?} on values");
            }
        }
    }
}
