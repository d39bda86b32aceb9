//! A declarative route-policy IR: one definition drives simulation and SMT.
//!
//! The benchmark networks used to wire opaque `Fn(&Expr) -> Expr` closures
//! into [`crate::NetworkBuilder`]; the simulator re-interpreted the same
//! semantics and the SMT backend compiled it, but nothing *about* the policy
//! was inspectable — no structural hashing for solver-session reuse, no
//! schema-driven atom grammars for inference, and every new scenario meant
//! re-deriving the same record plumbing by hand.
//!
//! This module makes the policy layer first-class:
//!
//! * [`RouteSchema`] — the route record (field names and types) plus the
//!   lexicographic [`MergeKey`] list defining the selection function `⊕`
//!   (e.g. the BGP decision process: AD ≺ local-pref ≺ AS-path length ≺
//!   MED ≺ origin).
//! * [`RoutePolicy`] — an ordered list of [`PolicyClause`]s, each a
//!   [`RouteGuard`] plus an action (drop, or a sequence of [`RewriteOp`]s),
//!   modelling an edge's transfer function.
//! * [`FailureModel`] — per-edge symbolic failure booleans with an
//!   "at most `f` fail" budget, wrapped around tracked edges' transfers.
//!
//! Every construct has **two semantics that cannot diverge**, because both
//! are derived from the same declarative structure:
//!
//! * [`RoutePolicy::compile`] / [`RouteSchema::merge_expr`] build
//!   `timepiece-expr` terms (consumed by the SMT encoder and the term
//!   interpreter), and
//! * [`RoutePolicy::apply`] / [`RouteSchema::merge_value`] execute directly
//!   on concrete [`Value`]s (the simulator's fast path).
//!
//! Being plain data, the IR compares structurally (`==`).

use std::fmt;
use std::sync::Arc;

use timepiece_expr::{Env, Expr, RecordDef, Type, Value};

/// An error raised while *concretely* evaluating a policy or merge: an
/// environment missing a symbolic the guard references, or a route value
/// whose shape disagrees with the schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyError {
    /// A guard referenced a symbolic variable the environment does not bind.
    UnboundVar(String),
    /// A field, tag or enum variant named by the IR is absent from the value.
    BadShape(String),
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyError::UnboundVar(name) => write!(f, "unbound symbolic {name:?}"),
            PolicyError::BadShape(what) => write!(f, "route value mismatch: {what}"),
        }
    }
}

impl std::error::Error for PolicyError {}

/// One step of the lexicographic route-selection order.
///
/// Keys apply in list order: the first key that strictly separates two
/// candidates decides, later keys only break ties.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MergeKey {
    /// Routes satisfying the guard beat routes that do not (e.g. the hijack
    /// benchmark's "routes for the internal prefix win their own RIB slot").
    GuardFirst(RouteGuard),
    /// Lower numeric field wins (administrative distance, path length, MED).
    Lower(String),
    /// Higher numeric field wins (local preference).
    Higher(String),
    /// Enum field ranked by the given variant order, earlier variants win
    /// (BGP origin: IGP ≺ EGP ≺ unknown).
    RankEnum(String, Vec<String>),
}

/// A declarative predicate over a *present* route (and the symbolic
/// environment), used by policy clauses and `GuardFirst` merge keys.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RouteGuard {
    /// Always true.
    True,
    /// A symbolic boolean variable of the network (e.g. a link-failure bit).
    SymBool(String),
    /// The set-typed field contains the tag.
    HasTag {
        /// The set field.
        field: String,
        /// The tag tested.
        tag: String,
    },
    /// The integer field equals the constant.
    IntEq {
        /// The integer field.
        field: String,
        /// The constant compared against.
        value: i64,
    },
    /// The bitvector field equals the constant.
    BvEq {
        /// The bitvector field.
        field: String,
        /// The constant compared against.
        value: u64,
    },
    /// The field equals a symbolic variable of the field's type.
    FieldEqVar {
        /// The compared field.
        field: String,
        /// The symbolic variable's name.
        var: String,
    },
    /// Negation.
    Not(Box<RouteGuard>),
    /// Conjunction.
    And(Box<RouteGuard>, Box<RouteGuard>),
    /// Disjunction.
    Or(Box<RouteGuard>, Box<RouteGuard>),
}

impl RouteGuard {
    /// `¬self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> RouteGuard {
        RouteGuard::Not(Box::new(self))
    }

    /// `self ∧ other`.
    pub fn and(self, other: RouteGuard) -> RouteGuard {
        RouteGuard::And(Box::new(self), Box::new(other))
    }

    /// `self ∨ other`.
    pub fn or(self, other: RouteGuard) -> RouteGuard {
        RouteGuard::Or(Box::new(self), Box::new(other))
    }

    /// Compiles the guard to a boolean term over a present-route (record)
    /// term.
    pub fn compile(&self, schema: &RouteSchema, payload: &Expr) -> Expr {
        match self {
            RouteGuard::True => Expr::bool(true),
            RouteGuard::SymBool(name) => Expr::var(name.clone(), Type::Bool),
            RouteGuard::HasTag { field, tag } => {
                payload.clone().field(field.clone()).contains(tag.clone())
            }
            RouteGuard::IntEq { field, value } => {
                payload.clone().field(field.clone()).eq(Expr::int(*value))
            }
            RouteGuard::BvEq { field, value } => {
                let width = schema.bv_width(field);
                payload.clone().field(field.clone()).eq(Expr::bv(*value, width))
            }
            RouteGuard::FieldEqVar { field, var } => {
                let ty = schema.field_type(field).clone();
                payload.clone().field(field.clone()).eq(Expr::var(var.clone(), ty))
            }
            RouteGuard::Not(g) => g.compile(schema, payload).not(),
            RouteGuard::And(a, b) => a.compile(schema, payload).and(b.compile(schema, payload)),
            RouteGuard::Or(a, b) => a.compile(schema, payload).or(b.compile(schema, payload)),
        }
    }

    /// Evaluates the guard on a concrete present-route (record) value.
    ///
    /// # Errors
    ///
    /// [`PolicyError`] on unbound symbolics or shape mismatches.
    pub fn holds(&self, payload: &Value, env: &Env) -> Result<bool, PolicyError> {
        let field_of = |field: &String| {
            payload.field(field).ok_or_else(|| PolicyError::BadShape(format!("field {field:?}")))
        };
        match self {
            RouteGuard::True => Ok(true),
            RouteGuard::SymBool(name) => env
                .get(name)
                .and_then(Value::as_bool)
                .ok_or_else(|| PolicyError::UnboundVar(name.clone())),
            RouteGuard::HasTag { field, tag } => field_of(field)?
                .contains_tag(tag)
                .ok_or_else(|| PolicyError::BadShape(format!("tag {tag:?} in {field:?}"))),
            RouteGuard::IntEq { field, value } => {
                Ok(field_of(field)?.as_int() == Some(i128::from(*value)))
            }
            RouteGuard::BvEq { field, value } => Ok(field_of(field)?.as_bv() == Some(*value)),
            RouteGuard::FieldEqVar { field, var } => {
                let bound = env.get(var).ok_or_else(|| PolicyError::UnboundVar(var.clone()))?;
                Ok(field_of(field)? == bound)
            }
            RouteGuard::Not(g) => Ok(!g.holds(payload, env)?),
            RouteGuard::And(a, b) => Ok(a.holds(payload, env)? && b.holds(payload, env)?),
            RouteGuard::Or(a, b) => Ok(a.holds(payload, env)? || b.holds(payload, env)?),
        }
    }
}

/// One field update applied by a rewrite clause.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RewriteOp {
    /// Add a constant to an integer field (AS-path length increments).
    IncInt {
        /// The integer field.
        field: String,
        /// The increment.
        by: i64,
    },
    /// Overwrite a bitvector field (set local preference / MED).
    SetBv {
        /// The bitvector field.
        field: String,
        /// The new bits.
        value: u64,
    },
    /// Overwrite a boolean (ghost) field.
    SetBool {
        /// The boolean field.
        field: String,
        /// The new value.
        value: bool,
    },
    /// Overwrite an enum field by variant name.
    SetEnum {
        /// The enum field.
        field: String,
        /// The new variant.
        variant: String,
    },
    /// Add a tag to a set field.
    AddTag {
        /// The set field.
        field: String,
        /// The tag added.
        tag: String,
    },
    /// Remove a tag from a set field.
    RemoveTag {
        /// The set field.
        field: String,
        /// The tag removed.
        tag: String,
    },
}

impl RewriteOp {
    fn compile(&self, schema: &RouteSchema, payload: Expr) -> Expr {
        match self {
            RewriteOp::IncInt { field, by } => {
                let bumped = payload.clone().field(field.clone()).add(Expr::int(*by));
                payload.with_field(field.clone(), bumped)
            }
            RewriteOp::SetBv { field, value } => {
                let width = schema.bv_width(field);
                payload.with_field(field.clone(), Expr::bv(*value, width))
            }
            RewriteOp::SetBool { field, value } => {
                payload.with_field(field.clone(), Expr::bool(*value))
            }
            RewriteOp::SetEnum { field, variant } => {
                let def = schema
                    .field_type(field)
                    .enum_def()
                    .unwrap_or_else(|| panic!("field {field:?} is not an enum"))
                    .clone();
                payload
                    .with_field(field.clone(), Expr::constant(Value::enum_variant(&def, variant)))
            }
            RewriteOp::AddTag { field, tag } => {
                let tagged = payload.clone().field(field.clone()).add_tag(tag.clone());
                payload.with_field(field.clone(), tagged)
            }
            RewriteOp::RemoveTag { field, tag } => {
                let stripped = payload.clone().field(field.clone()).remove_tag(tag.clone());
                payload.with_field(field.clone(), stripped)
            }
        }
    }

    fn apply(&self, payload: &mut Value, schema: &RouteSchema) -> Result<(), PolicyError> {
        let field = match self {
            RewriteOp::IncInt { field, .. }
            | RewriteOp::SetBv { field, .. }
            | RewriteOp::SetBool { field, .. }
            | RewriteOp::SetEnum { field, .. }
            | RewriteOp::AddTag { field, .. }
            | RewriteOp::RemoveTag { field, .. } => field,
        };
        let Value::Record { def, fields } = payload else {
            return Err(PolicyError::BadShape("payload is not a record".to_owned()));
        };
        let index = def
            .field_index(field)
            .ok_or_else(|| PolicyError::BadShape(format!("field {field:?}")))?;
        let slot = &mut fields[index];
        match self {
            RewriteOp::IncInt { by, .. } => match slot {
                Value::Int(i) => *i += i128::from(*by),
                _ => return Err(PolicyError::BadShape(format!("{field:?} is not an int"))),
            },
            RewriteOp::SetBv { value, .. } => *slot = Value::bv(*value, schema.bv_width(field)),
            RewriteOp::SetBool { value, .. } => *slot = Value::Bool(*value),
            RewriteOp::SetEnum { variant, .. } => {
                let def = schema
                    .field_type(field)
                    .enum_def()
                    .ok_or_else(|| PolicyError::BadShape(format!("{field:?} is not an enum")))?
                    .clone();
                *slot = Value::enum_variant(&def, variant);
            }
            RewriteOp::AddTag { tag, .. } => set_tag(slot, tag, true)?,
            RewriteOp::RemoveTag { tag, .. } => set_tag(slot, tag, false)?,
        }
        Ok(())
    }
}

/// Sets or clears one tag bit of a set value.
fn set_tag(v: &mut Value, tag: &str, present: bool) -> Result<(), PolicyError> {
    let Value::Set { def, mask } = v else {
        return Err(PolicyError::BadShape("field is not a set".to_owned()));
    };
    let i =
        def.tag_index(tag).ok_or_else(|| PolicyError::BadShape(format!("unknown tag {tag:?}")))?;
    if present {
        *mask |= 1 << i;
    } else {
        *mask &= !(1 << i);
    }
    Ok(())
}

/// What a policy clause does when its guard matches.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ClauseAction {
    /// Drop the route (`∞`), short-circuiting the remaining clauses.
    Drop,
    /// Apply the rewrites in order and continue with the next clause.
    Rewrite(Vec<RewriteOp>),
}

/// One guarded step of a route policy.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PolicyClause {
    /// When the clause applies.
    pub guard: RouteGuard,
    /// What it does.
    pub action: ClauseAction,
}

/// A declarative transfer function: an ordered list of guarded clauses over
/// a present route (`∞` always maps to `∞`).
///
/// Clauses execute in order against the *current* (possibly already
/// rewritten) route; a matching [`ClauseAction::Drop`] ends evaluation with
/// `∞`, a matching rewrite updates the route and evaluation continues.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct RoutePolicy {
    clauses: Vec<PolicyClause>,
}

impl RoutePolicy {
    /// The empty policy: the identity on routes.
    pub fn new() -> RoutePolicy {
        RoutePolicy::default()
    }

    /// Appends a clause.
    pub fn when(mut self, guard: RouteGuard, action: ClauseAction) -> RoutePolicy {
        self.clauses.push(PolicyClause { guard, action });
        self
    }

    /// Appends an unconditional rewrite.
    pub fn rewrite(self, ops: impl IntoIterator<Item = RewriteOp>) -> RoutePolicy {
        self.when(RouteGuard::True, ClauseAction::Rewrite(ops.into_iter().collect()))
    }

    /// Appends a guarded drop.
    pub fn drop_if(self, guard: RouteGuard) -> RoutePolicy {
        self.when(guard, ClauseAction::Drop)
    }

    /// Appends the standard AS-path length increment.
    pub fn increment(self, field: impl Into<String>) -> RoutePolicy {
        self.rewrite([RewriteOp::IncInt { field: field.into(), by: 1 }])
    }

    /// The clauses, in evaluation order.
    pub fn clauses(&self) -> &[PolicyClause] {
        &self.clauses
    }

    /// Compiles the policy to a route term: the symbolic semantics consumed
    /// by the SMT backend (and the term interpreter).
    pub fn compile(&self, schema: &RouteSchema, route: &Expr) -> Expr {
        let payload_ty = schema.payload_type().clone();
        let none = Expr::none(payload_ty.clone());
        route
            .clone()
            .match_option(none, |payload| self.compile_clauses(schema, 0, payload, &payload_ty))
    }

    fn compile_clauses(
        &self,
        schema: &RouteSchema,
        i: usize,
        payload: Expr,
        payload_ty: &Type,
    ) -> Expr {
        let Some(clause) = self.clauses.get(i) else { return payload.some() };
        let guard = clause.guard.compile(schema, &payload);
        match &clause.action {
            ClauseAction::Drop => {
                let rest = self.compile_clauses(schema, i + 1, payload, payload_ty);
                guard.ite(Expr::none(payload_ty.clone()), rest)
            }
            ClauseAction::Rewrite(ops) => {
                let rewritten = ops.iter().fold(payload.clone(), |p, op| op.compile(schema, p));
                let next = match &clause.guard {
                    RouteGuard::True => rewritten,
                    _ => guard.ite(rewritten, payload),
                };
                self.compile_clauses(schema, i + 1, next, payload_ty)
            }
        }
    }

    /// Executes the policy on a concrete route value: the direct semantics
    /// the simulator's fast path runs. Agrees with interpreting
    /// [`RoutePolicy::compile`] by construction (and by the IR agreement
    /// tests).
    ///
    /// # Errors
    ///
    /// [`PolicyError`] on unbound symbolics or shape mismatches.
    pub fn apply(
        &self,
        schema: &RouteSchema,
        route: &Value,
        env: &Env,
    ) -> Result<Value, PolicyError> {
        let payload = match route {
            Value::Option { value: None, .. } => return Ok(route.clone()),
            Value::Option { value: Some(p), .. } => (**p).clone(),
            _ => return Err(PolicyError::BadShape("route is not an option".to_owned())),
        };
        let mut payload = payload;
        for clause in &self.clauses {
            if clause.guard.holds(&payload, env)? {
                match &clause.action {
                    ClauseAction::Drop => return Ok(Value::none(schema.payload_type().clone())),
                    ClauseAction::Rewrite(ops) => {
                        for op in ops {
                            op.apply(&mut payload, schema)?;
                        }
                    }
                }
            }
        }
        Ok(Value::some(payload))
    }
}

/// A route schema: the record shape of a present route plus the
/// lexicographic merge order over it.
///
/// The route type is always `Option<Record>`, with `None` as the paper's
/// `∞`.
///
/// # Example
///
/// ```
/// use timepiece_algebra::policy::{MergeKey, RouteSchema};
/// use timepiece_expr::Type;
///
/// let schema = RouteSchema::new(
///     "R",
///     [("lp".to_owned(), Type::BitVec(32)), ("len".to_owned(), Type::Int)],
///     [MergeKey::Higher("lp".into()), MergeKey::Lower("len".into())],
/// );
/// assert!(schema.route_type().is_option());
/// assert_eq!(schema.merge_keys().len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct RouteSchema {
    record: Arc<RecordDef>,
    route_type: Type,
    keys: Vec<MergeKey>,
}

impl RouteSchema {
    /// Builds a schema from field definitions and merge keys.
    pub fn new(
        name: impl Into<String>,
        fields: impl IntoIterator<Item = (String, Type)>,
        keys: impl IntoIterator<Item = MergeKey>,
    ) -> RouteSchema {
        let record = Arc::new(RecordDef::new(name, fields.into_iter().collect::<Vec<_>>()));
        let route_type = Type::option(Type::Record(Arc::clone(&record)));
        RouteSchema { record, route_type, keys: keys.into_iter().collect() }
    }

    /// The record definition of a present route.
    pub fn record_def(&self) -> &Arc<RecordDef> {
        &self.record
    }

    /// The route type `Option<Record>`.
    pub fn route_type(&self) -> Type {
        self.route_type.clone()
    }

    /// The present-route (record) type.
    pub fn payload_type(&self) -> &Type {
        self.route_type.option_payload().expect("schema route type is an option")
    }

    /// The lexicographic merge keys, most significant first.
    pub fn merge_keys(&self) -> &[MergeKey] {
        &self.keys
    }

    /// The type of a field.
    ///
    /// # Panics
    ///
    /// Panics on unknown fields — schemas and policies are built together,
    /// so a miss is a construction bug.
    pub fn field_type(&self, field: &str) -> &Type {
        self.record
            .field_type(field)
            .unwrap_or_else(|| panic!("schema {} has no field {field:?}", self.record.name()))
    }

    fn bv_width(&self, field: &str) -> u32 {
        match self.field_type(field) {
            Type::BitVec(w) => *w,
            other => panic!("field {field:?} is {other}, not a bitvector"),
        }
    }

    /// The `∞` route as a term.
    pub fn none_route(&self) -> Expr {
        Expr::none(self.payload_type().clone())
    }

    /// The `∞` route as a value.
    pub fn none_value(&self) -> Value {
        Value::none(self.payload_type().clone())
    }

    // -- merge ---------------------------------------------------------------

    /// Is present route `x` strictly preferred to present route `y`, as a
    /// term? Lexicographic over [`RouteSchema::merge_keys`].
    pub fn prefer_expr(&self, x: &Expr, y: &Expr) -> Expr {
        let mut acc = Expr::bool(false);
        for key in self.keys.iter().rev() {
            let (better, equal) = self.key_cmp_expr(key, x, y);
            acc = better.or(equal.and(acc));
        }
        acc
    }

    fn key_cmp_expr(&self, key: &MergeKey, x: &Expr, y: &Expr) -> (Expr, Expr) {
        match key {
            MergeKey::Lower(f) => {
                let (a, b) = (x.clone().field(f.clone()), y.clone().field(f.clone()));
                (a.clone().lt(b.clone()), a.eq(b))
            }
            MergeKey::Higher(f) => {
                let (a, b) = (x.clone().field(f.clone()), y.clone().field(f.clone()));
                (a.clone().gt(b.clone()), a.eq(b))
            }
            MergeKey::RankEnum(f, order) => {
                let rank = |e: &Expr| self.enum_rank_expr(f, order, e);
                let (a, b) = (rank(x), rank(y));
                (a.clone().lt(b.clone()), a.eq(b))
            }
            MergeKey::GuardFirst(g) => {
                let (a, b) = (g.compile(self, x), g.compile(self, y));
                (a.clone().and(b.clone().not()), a.iff(b))
            }
        }
    }

    fn enum_rank_expr(&self, field: &str, order: &[String], payload: &Expr) -> Expr {
        let def = self
            .field_type(field)
            .enum_def()
            .unwrap_or_else(|| panic!("field {field:?} is not an enum"))
            .clone();
        let e = payload.clone().field(field.to_owned());
        let mut acc = Expr::int(order.len() as i64);
        for (i, variant) in order.iter().enumerate().rev() {
            let is = e.clone().eq(Expr::constant(Value::enum_variant(&def, variant)));
            acc = is.ite(Expr::int(i as i64), acc);
        }
        acc
    }

    /// The selection function `⊕` as a term: prefer a present route, then
    /// the lexicographic key order; the first argument wins ties.
    pub fn merge_expr(&self, a: &Expr, b: &Expr) -> Expr {
        let pa = a.clone().get_some();
        let pb = b.clone().get_some();
        let b_strictly_better = self.prefer_expr(&pb, &pa);
        let choose_b = b.clone().is_some().and(a.clone().is_none().or(b_strictly_better));
        choose_b.ite(b.clone(), a.clone())
    }

    /// Is present route `x` strictly preferred to present route `y`, on
    /// values?
    ///
    /// # Errors
    ///
    /// [`PolicyError`] on unbound symbolics (guard keys) or shape mismatches.
    pub fn prefer_value(&self, x: &Value, y: &Value, env: &Env) -> Result<bool, PolicyError> {
        for key in &self.keys {
            match key {
                MergeKey::Lower(f) => {
                    let (a, b) = (self.numeric(x, f)?, self.numeric(y, f)?);
                    if a != b {
                        return Ok(a < b);
                    }
                }
                MergeKey::Higher(f) => {
                    let (a, b) = (self.numeric(x, f)?, self.numeric(y, f)?);
                    if a != b {
                        return Ok(a > b);
                    }
                }
                MergeKey::RankEnum(f, order) => {
                    let (a, b) = (self.enum_rank(x, f, order)?, self.enum_rank(y, f, order)?);
                    if a != b {
                        return Ok(a < b);
                    }
                }
                MergeKey::GuardFirst(g) => {
                    let (a, b) = (g.holds(x, env)?, g.holds(y, env)?);
                    if a != b {
                        return Ok(a);
                    }
                }
            }
        }
        Ok(false)
    }

    fn numeric(&self, payload: &Value, field: &str) -> Result<i128, PolicyError> {
        let v = payload
            .field(field)
            .ok_or_else(|| PolicyError::BadShape(format!("field {field:?}")))?;
        v.as_int()
            .or_else(|| v.as_bv().map(i128::from))
            .ok_or_else(|| PolicyError::BadShape(format!("{field:?} is not numeric")))
    }

    fn enum_rank(
        &self,
        payload: &Value,
        field: &str,
        order: &[String],
    ) -> Result<usize, PolicyError> {
        let v = payload
            .field(field)
            .ok_or_else(|| PolicyError::BadShape(format!("field {field:?}")))?;
        let Value::Enum { def, index } = v else {
            return Err(PolicyError::BadShape(format!("{field:?} is not an enum")));
        };
        let name = &def.variants()[*index];
        Ok(order.iter().position(|o| o == name).unwrap_or(order.len()))
    }

    /// The selection function `⊕` on values — the simulator's fast path.
    ///
    /// # Errors
    ///
    /// As [`RouteSchema::prefer_value`].
    pub fn merge_value(&self, a: &Value, b: &Value, env: &Env) -> Result<Value, PolicyError> {
        let (pa, pb) = match (a, b) {
            (Value::Option { value: va, .. }, Value::Option { value: vb, .. }) => (va, vb),
            _ => return Err(PolicyError::BadShape("merge over non-options".to_owned())),
        };
        Ok(match (pa, pb) {
            (_, None) => a.clone(),
            (None, Some(_)) => b.clone(),
            (Some(x), Some(y)) => {
                if self.prefer_value(y, x, env)? {
                    b.clone()
                } else {
                    a.clone()
                }
            }
        })
    }
}

/// A bounded link-failure model: each tracked edge gets a symbolic boolean
/// (`true` = the link is down and its transfer yields `∞`), with the global
/// assumption that **at most `budget`** of them are true.
///
/// The failure booleans join [`crate::Network::symbolics`], so the budget
/// constraint is threaded through every verification condition (the encoder
/// receives it as an assumption), and the simulator closes them through the
/// input environment like any other symbolic.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FailureModel {
    budget: u64,
    edges: Vec<(timepiece_topology::NodeId, timepiece_topology::NodeId)>,
}

impl FailureModel {
    /// Tracks `edges` with an at-most-`budget` failure assumption.
    pub fn at_most(
        budget: u64,
        edges: impl IntoIterator<Item = (timepiece_topology::NodeId, timepiece_topology::NodeId)>,
    ) -> FailureModel {
        FailureModel { budget, edges: edges.into_iter().collect() }
    }

    /// The failure budget `f`.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// The tracked edges.
    pub fn edges(&self) -> &[(timepiece_topology::NodeId, timepiece_topology::NodeId)] {
        &self.edges
    }

    /// The failure variable's name for a tracked edge.
    pub fn var_name(
        topology: &timepiece_topology::Topology,
        edge: (timepiece_topology::NodeId, timepiece_topology::NodeId),
    ) -> String {
        format!("fail-{}-{}", topology.name(edge.0), topology.name(edge.1))
    }

    /// The failure variable term for a tracked edge.
    pub fn var(
        topology: &timepiece_topology::Topology,
        edge: (timepiece_topology::NodeId, timepiece_topology::NodeId),
    ) -> Expr {
        Expr::var(FailureModel::var_name(topology, edge), Type::Bool)
    }

    /// Is the edge tracked?
    pub fn tracks(&self, edge: (timepiece_topology::NodeId, timepiece_topology::NodeId)) -> bool {
        self.edges.contains(&edge)
    }

    /// The at-most-`budget` constraint: `Σ ite(failᵢ, 1, 0) ≤ budget`.
    pub fn budget_constraint(&self, topology: &timepiece_topology::Topology) -> Expr {
        let mut sum = Expr::int(0);
        for &edge in &self.edges {
            sum = sum.add(FailureModel::var(topology, edge).ite(Expr::int(1), Expr::int(0)));
        }
        sum.le(Expr::int(self.budget as i64))
    }

    /// An input environment closing every failure variable: exactly the
    /// edges in `down` fail. Useful for simulating concrete failure
    /// scenarios.
    pub fn bind_failures(
        &self,
        topology: &timepiece_topology::Topology,
        env: &mut Env,
        down: &[(timepiece_topology::NodeId, timepiece_topology::NodeId)],
    ) {
        for &edge in &self.edges {
            env.bind(FailureModel::var_name(topology, edge), Value::Bool(down.contains(&edge)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> RouteSchema {
        RouteSchema::new(
            "R",
            [
                ("ad".to_owned(), Type::BitVec(32)),
                ("lp".to_owned(), Type::BitVec(32)),
                ("len".to_owned(), Type::Int),
                ("med".to_owned(), Type::BitVec(32)),
                ("origin".to_owned(), Type::enumeration("Origin", ["egp", "igp", "unknown"])),
                ("comms".to_owned(), Type::set("Comms", ["down", "bte"])),
                ("tag".to_owned(), Type::Bool),
            ],
            [
                MergeKey::Lower("ad".into()),
                MergeKey::Higher("lp".into()),
                MergeKey::Lower("len".into()),
                MergeKey::Lower("med".into()),
                MergeKey::RankEnum(
                    "origin".into(),
                    vec!["igp".into(), "egp".into(), "unknown".into()],
                ),
            ],
        )
    }

    fn route(
        s: &RouteSchema,
        ad: u64,
        lp: u64,
        len: i64,
        med: u64,
        origin: &str,
        tags: &[&str],
    ) -> Value {
        let def = s.record_def();
        let origin_def = s.field_type("origin").enum_def().unwrap().clone();
        let comm_def = s.field_type("comms").set_def().unwrap().clone();
        Value::some(Value::record(
            def,
            vec![
                Value::bv(ad, 32),
                Value::bv(lp, 32),
                Value::int(len),
                Value::bv(med, 32),
                Value::enum_variant(&origin_def, origin),
                Value::set_of(&comm_def, tags.iter().copied()),
                Value::Bool(false),
            ],
        ))
    }

    /// Evaluating the compiled term and executing the value semantics must
    /// agree — the core one-definition-two-backends invariant.
    fn assert_agree(s: &RouteSchema, p: &RoutePolicy, r: &Value, env: &Env) {
        let var = Expr::var("r", s.route_type());
        let compiled = p.compile(s, &var);
        let mut bound = env.clone();
        bound.bind("r", r.clone());
        let via_term = compiled.eval(&bound).unwrap();
        let via_value = p.apply(s, r, env).unwrap();
        assert_eq!(via_term, via_value, "policy {p:?} on {r}");
    }

    #[test]
    fn increment_policy_agrees_and_preserves_infinity() {
        let s = schema();
        let p = RoutePolicy::new().increment("len");
        let r = route(&s, 20, 100, 3, 0, "igp", &["down"]);
        assert_agree(&s, &p, &r, &Env::new());
        assert_agree(&s, &p, &s.none_value(), &Env::new());
        let out = p.apply(&s, &r, &Env::new()).unwrap();
        assert_eq!(out.unwrap_or_default().unwrap().field("len").unwrap().as_int(), Some(4));
    }

    #[test]
    fn guarded_drop_and_rewrite_agree() {
        let s = schema();
        let p = RoutePolicy::new()
            .drop_if(RouteGuard::HasTag { field: "comms".into(), tag: "down".into() })
            .increment("len")
            .when(
                RouteGuard::IntEq { field: "len".into(), value: 1 },
                ClauseAction::Rewrite(vec![RewriteOp::SetBv { field: "med".into(), value: 7 }]),
            );
        let plain = route(&s, 20, 100, 0, 0, "igp", &[]);
        let tagged = route(&s, 20, 100, 0, 0, "igp", &["down"]);
        assert_agree(&s, &p, &plain, &Env::new());
        assert_agree(&s, &p, &tagged, &Env::new());
        // the tagged route is dropped
        assert_eq!(p.apply(&s, &tagged, &Env::new()).unwrap(), s.none_value());
        // the plain route is incremented then MED-stamped (guard sees the
        // *rewritten* len)
        let out = p.apply(&s, &plain, &Env::new()).unwrap().unwrap_or_default().unwrap();
        assert_eq!(out.field("med").unwrap().as_bv(), Some(7));
    }

    #[test]
    fn sym_bool_guard_reads_the_environment() {
        let s = schema();
        let p = RoutePolicy::new().drop_if(RouteGuard::SymBool("failed".into())).increment("len");
        let r = route(&s, 20, 100, 0, 0, "igp", &[]);
        let mut up = Env::new();
        up.bind("failed", Value::Bool(false));
        let mut down = Env::new();
        down.bind("failed", Value::Bool(true));
        assert_agree(&s, &p, &r, &up);
        assert_agree(&s, &p, &r, &down);
        assert_eq!(p.apply(&s, &r, &down).unwrap(), s.none_value());
        assert!(matches!(
            p.apply(&s, &r, &Env::new()),
            Err(PolicyError::UnboundVar(name)) if name == "failed"
        ));
    }

    #[test]
    fn merge_is_lexicographic_and_agrees() {
        let s = schema();
        let env = Env::new();
        let base = route(&s, 20, 100, 2, 0, "igp", &[]);
        let cases = [
            (route(&s, 10, 100, 9, 9, "unknown", &[]), true), // lower ad wins
            (route(&s, 20, 200, 9, 9, "unknown", &[]), true), // higher lp wins
            (route(&s, 20, 100, 1, 9, "unknown", &[]), true), // shorter len wins
            (route(&s, 20, 100, 2, 9, "igp", &[]), false),    // higher med loses
            (route(&s, 20, 100, 2, 0, "egp", &[]), false),    // worse origin loses
            (route(&s, 20, 100, 2, 0, "igp", &[]), false),    // exact tie: not strict
        ];
        for (other, wins) in cases {
            let (x, y) = (other.unwrap_or_default().unwrap(), base.unwrap_or_default().unwrap());
            assert_eq!(s.prefer_value(&x, &y, &env).unwrap(), wins, "{x} vs {y}");
            // term semantics agree
            let (vx, vy) = (
                Expr::var("x", s.payload_type().clone()),
                Expr::var("y", s.payload_type().clone()),
            );
            let e = s.prefer_expr(&vx, &vy);
            let mut bound = Env::new();
            bound.bind("x", x);
            bound.bind("y", y);
            assert_eq!(e.eval_bool(&bound).unwrap(), wins);
        }
    }

    #[test]
    fn merge_value_prefers_presence_and_keeps_first_on_ties() {
        let s = schema();
        let env = Env::new();
        let none = s.none_value();
        let a = route(&s, 20, 100, 2, 0, "igp", &["down"]);
        let b = route(&s, 20, 100, 2, 0, "igp", &["bte"]);
        assert_eq!(s.merge_value(&none, &a, &env).unwrap(), a);
        assert_eq!(s.merge_value(&a, &none, &env).unwrap(), a);
        assert_eq!(s.merge_value(&a, &b, &env).unwrap(), a, "first argument wins ties");
        assert_eq!(s.merge_value(&b, &a, &env).unwrap(), b);
        // term semantics agree
        let (va, vb) = (Expr::var("a", s.route_type()), Expr::var("b", s.route_type()));
        let m = s.merge_expr(&va, &vb);
        let mut bound = Env::new();
        bound.bind("a", a.clone());
        bound.bind("b", b);
        assert_eq!(m.eval(&bound).unwrap(), a);
    }

    #[test]
    fn guard_first_key_classes_beat_attributes() {
        let s = RouteSchema::new(
            "P",
            [("dst".to_owned(), Type::BitVec(32)), ("len".to_owned(), Type::Int)],
            [
                MergeKey::GuardFirst(RouteGuard::FieldEqVar {
                    field: "dst".into(),
                    var: "p".into(),
                }),
                MergeKey::Lower("len".into()),
            ],
        );
        let mk = |dst: u64, len: i64| {
            Value::some(Value::record(s.record_def(), vec![Value::bv(dst, 32), Value::int(len)]))
        };
        let mut env = Env::new();
        env.bind("p", Value::bv(7, 32));
        let ours_long = mk(7, 9).unwrap_or_default().unwrap();
        let theirs_short = mk(3, 1).unwrap_or_default().unwrap();
        assert!(s.prefer_value(&ours_long, &theirs_short, &env).unwrap());
        assert!(!s.prefer_value(&theirs_short, &ours_long, &env).unwrap());
    }

    #[test]
    fn equality_ignores_construction_path_but_sees_structure() {
        let a = RoutePolicy::new().increment("len");
        let b = RoutePolicy::new().rewrite([RewriteOp::IncInt { field: "len".into(), by: 1 }]);
        assert_eq!(a, b, "equal structure, equal policy");
        let c = RoutePolicy::new().rewrite([RewriteOp::IncInt { field: "len".into(), by: 2 }]);
        assert_ne!(a, c, "constants are structure");
    }

    #[test]
    fn failure_model_budget_constraint_counts() {
        let mut g = timepiece_topology::Topology::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_undirected(a, b);
        g.add_undirected(b, c);
        let model = FailureModel::at_most(1, [(a, b), (b, c)]);
        assert!(model.tracks((a, b)) && !model.tracks((b, a)));
        let constraint = model.budget_constraint(&g);
        let mut env = Env::new();
        model.bind_failures(&g, &mut env, &[(a, b)]);
        assert!(constraint.eval_bool(&env).unwrap(), "one failure within budget");
        model.bind_failures(&g, &mut env, &[(a, b), (b, c)]);
        assert!(!constraint.eval_bool(&env).unwrap(), "two failures exceed f=1");
    }
}
