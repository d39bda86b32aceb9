//! Compilation from expression terms to symbolic values.
//!
//! An [`Encoder`] caches what it compiles for as long as it lives; its
//! scratch marks ([`Encoder::open_scratch`], [`Encoder::drop_scratch`]) let
//! an owner forget the terms of work it does not expect to repeat.

use std::collections::HashMap;
use std::ops::{Add, AddAssign};

use timepiece_expr::{Expr, ExprKind, InternId, Type, TypeError, Value};
use z3::ast::{Bool, Int, BV};

use crate::error::SmtError;
use crate::sym::{set_width, Sym};

/// Hit/miss counters of an encoder's compiled-term cache.
///
/// With hash-consed terms the cache is keyed by stable [`InternId`]s, so a
/// hit can come from *any* earlier compilation through the same encoder —
/// another condition of the same node, another node, or another sweep row
/// entirely (an encoder lives inside a `SolverSession`, which a checker
/// worker keeps from job to job while the jobs declare the same variables).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TermCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that compiled a new term.
    pub misses: u64,
}

impl TermCacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from the cache, in `0.0..=1.0`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The traffic between an `earlier` snapshot and this one.
    pub fn delta_since(&self, earlier: &TermCacheStats) -> TermCacheStats {
        TermCacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
        }
    }
}

impl Add for TermCacheStats {
    type Output = TermCacheStats;
    fn add(self, rhs: TermCacheStats) -> TermCacheStats {
        TermCacheStats { hits: self.hits + rhs.hits, misses: self.misses + rhs.misses }
    }
}

impl AddAssign for TermCacheStats {
    fn add_assign(&mut self, rhs: TermCacheStats) {
        *self = *self + rhs;
    }
}

/// Compiles [`Expr`] terms into [`Sym`] values against a single Z3
/// (thread-local) context.
///
/// The encoder declares free variables on first use and caches compiled
/// subterms by node identity, so shared subterms are compiled once.
///
/// # Example
///
/// ```
/// use timepiece_expr::{Expr, Type};
/// use timepiece_smt::Encoder;
///
/// let mut enc = Encoder::new();
/// let e = Expr::var("x", Type::Int).ge(Expr::int(0));
/// let sym = enc.compile(&e)?;
/// assert!(sym.as_bool().is_some());
/// # Ok::<(), timepiece_smt::SmtError>(())
/// ```
#[derive(Debug, Default)]
pub struct Encoder {
    vars: HashMap<String, (Sym, Type)>,
    /// Declaration order of `vars` keys: lets a long-lived session assert
    /// well-formedness constraints incrementally ([`Encoder::well_formed_from`])
    /// instead of re-asserting every variable ever declared on every check.
    decl_order: Vec<String>,
    /// Compiled subterms by intern id. Ids are stable and never reused (the
    /// hash-consing arena owns every node for the life of the process), so
    /// entries stay valid for as long as the encoder lives — across
    /// conditions, nodes, and sweep rows — and the cache no longer needs to
    /// pin an `Expr` handle to guard against address reuse.
    cache: HashMap<InternId, Sym>,
    /// The terms cached since [`Encoder::open_scratch`], while one is open.
    scratch: Option<Vec<InternId>>,
    hits: u64,
    misses: u64,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// Declares (or retrieves) the symbolic constant for variable `name`.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::InconsistentVar`] (wrapped) if `name` was
    /// previously declared at a different type.
    pub fn declare(&mut self, name: &str, ty: &Type) -> Result<Sym, SmtError> {
        if let Some((sym, prev)) = self.vars.get(name) {
            if prev != ty {
                return Err(SmtError::IllTyped(TypeError::InconsistentVar {
                    name: name.to_owned(),
                    first: prev.clone(),
                    second: ty.clone(),
                }));
            }
            return Ok(sym.clone());
        }
        let sym = Sym::declare(name, ty);
        self.vars.insert(name.to_owned(), (sym.clone(), ty.clone()));
        self.decl_order.push(name.to_owned());
        Ok(sym)
    }

    /// How many variables have been declared (the cursor for
    /// [`Encoder::well_formed_from`]).
    pub fn decl_count(&self) -> usize {
        self.decl_order.len()
    }

    /// Well-formedness constraints of the variables declared at position
    /// `start` onward (in declaration order). With `start = 0` this is every
    /// constraint of [`Encoder::well_formed`].
    pub fn well_formed_from(&self, start: usize) -> Vec<Bool> {
        let mut out = Vec::new();
        for name in &self.decl_order[start.min(self.decl_order.len())..] {
            let (sym, _) = &self.vars[name];
            sym.well_formed(&mut out);
        }
        out
    }

    /// The declared variables, with their symbolic values and types.
    pub fn vars(&self) -> impl Iterator<Item = (&str, &Sym, &Type)> {
        self.vars.iter().map(|(n, (s, t))| (n.as_str(), s, t))
    }

    /// Collects well-formedness constraints for all declared variables.
    pub fn well_formed(&self) -> Vec<Bool> {
        let mut out = Vec::new();
        for (sym, _) in self.vars.values() {
            sym.well_formed(&mut out);
        }
        out
    }

    /// Decodes every declared variable under a model into an environment
    /// suitable for the reference interpreter.
    ///
    /// # Errors
    ///
    /// Returns [`SmtError::ModelDecode`] if any component fails to decode.
    pub fn decode_model(&self, model: &z3::Model) -> Result<timepiece_expr::Env, SmtError> {
        let mut env = timepiece_expr::Env::new();
        for (name, (sym, ty)) in &self.vars {
            env.bind(name.clone(), sym.decode(model, ty)?);
        }
        Ok(env)
    }

    /// Compiles a term to its symbolic value, declaring free variables on the
    /// way.
    ///
    /// # Errors
    ///
    /// Returns [`SmtError::IllTyped`] for ill-typed terms and
    /// [`SmtError::IntTooLarge`] for out-of-range integer literals.
    pub fn compile(&mut self, e: &Expr) -> Result<Sym, SmtError> {
        if let Some(s) = self.cache.get(&e.node_id()) {
            self.hits += 1;
            return Ok(s.clone());
        }
        let s = self.compile_uncached(e)?;
        self.misses += 1;
        self.cache.insert(e.node_id(), s.clone());
        if let Some(added) = &mut self.scratch {
            added.push(e.node_id());
        }
        Ok(s)
    }

    /// From here to [`Encoder::drop_scratch`], notes which terms enter the
    /// cache.
    pub fn open_scratch(&mut self) {
        self.scratch = Some(Vec::new());
    }

    /// Drops every term cached since [`Encoder::open_scratch`]: the cache
    /// holds what it held then. Variables declared meanwhile stay declared.
    pub fn drop_scratch(&mut self) {
        for id in self.scratch.take().into_iter().flatten() {
            self.cache.remove(&id);
        }
    }

    /// Cumulative hit/miss counters of the compiled-term cache.
    pub fn term_cache_stats(&self) -> TermCacheStats {
        TermCacheStats { hits: self.hits, misses: self.misses }
    }

    /// How many compiled terms the cache holds — each one a live solver AST
    /// this encoder keeps referenced, so this is the encoder's memory in
    /// units the caller can budget.
    pub fn compiled_terms(&self) -> usize {
        self.cache.len()
    }

    /// Compiles a boolean term, failing if it is not boolean.
    ///
    /// # Errors
    ///
    /// As [`Encoder::compile`], plus a type error for non-boolean terms.
    pub fn compile_bool(&mut self, e: &Expr) -> Result<Bool, SmtError> {
        match self.compile(e)? {
            Sym::Bool(b) => Ok(b),
            _ => Err(SmtError::IllTyped(TypeError::Mismatch {
                context: "smt goal",
                expected: Type::Bool,
                found: e.type_of()?,
            })),
        }
    }

    fn compile_bools(&mut self, xs: &[Expr]) -> Result<Vec<Bool>, SmtError> {
        xs.iter().map(|x| self.compile_bool(x)).collect()
    }

    fn compile_uncached(&mut self, e: &Expr) -> Result<Sym, SmtError> {
        let unsupported = |context: &'static str, found: Type| {
            SmtError::IllTyped(TypeError::Unsupported { context, found })
        };
        Ok(match e.kind() {
            ExprKind::Var(name, ty) => self.declare(name, ty)?,
            ExprKind::Const(v) => Sym::constant(v)?,
            ExprKind::Not(a) => Sym::Bool(self.compile_bool(a)?.not()),
            ExprKind::And(xs) => Sym::Bool(Bool::and(&self.compile_bools(xs)?)),
            ExprKind::Or(xs) => Sym::Bool(Bool::or(&self.compile_bools(xs)?)),
            ExprKind::Implies(a, b) => {
                let a = self.compile_bool(a)?;
                let b = self.compile_bool(b)?;
                Sym::Bool(a.implies(&b))
            }
            ExprKind::Ite(c, t, f) => {
                let c = self.compile_bool(c)?;
                let t = self.compile(t)?;
                let f = self.compile(f)?;
                Sym::ite(&c, &t, &f)
            }
            ExprKind::Eq(a, b) => {
                let a = self.compile(a)?;
                let b = self.compile(b)?;
                Sym::Bool(a.eq(&b))
            }
            ExprKind::Lt(a, b) => match (self.compile(a)?, self.compile(b)?) {
                (Sym::Int(x), Sym::Int(y)) => Sym::Bool(x.lt(&y)),
                (Sym::BV(x), Sym::BV(y)) => Sym::Bool(x.bvult(&y)),
                _ => return Err(unsupported("lt", e.type_of()?)),
            },
            ExprKind::Le(a, b) => match (self.compile(a)?, self.compile(b)?) {
                (Sym::Int(x), Sym::Int(y)) => Sym::Bool(x.le(&y)),
                (Sym::BV(x), Sym::BV(y)) => Sym::Bool(x.bvule(&y)),
                _ => return Err(unsupported("le", e.type_of()?)),
            },
            ExprKind::Add(a, b) => match (self.compile(a)?, self.compile(b)?) {
                (Sym::Int(x), Sym::Int(y)) => Sym::Int(Int::add(&[x, y])),
                (Sym::BV(x), Sym::BV(y)) => Sym::BV(x.bvadd(&y)),
                _ => return Err(unsupported("add", e.type_of()?)),
            },
            ExprKind::Sub(a, b) => match (self.compile(a)?, self.compile(b)?) {
                (Sym::Int(x), Sym::Int(y)) => Sym::Int(Int::sub(&[x, y])),
                (Sym::BV(x), Sym::BV(y)) => Sym::BV(x.bvsub(&y)),
                _ => return Err(unsupported("sub", e.type_of()?)),
            },
            ExprKind::None(payload) => Sym::Option {
                is_some: Bool::from_bool(false),
                payload: Box::new(Sym::constant(&Value::default_of(payload))?),
            },
            ExprKind::Some(a) => {
                Sym::Option { is_some: Bool::from_bool(true), payload: Box::new(self.compile(a)?) }
            }
            ExprKind::IsSome(a) => match self.compile(a)? {
                Sym::Option { is_some, .. } => Sym::Bool(is_some),
                _ => return Err(unsupported("is_some", e.type_of()?)),
            },
            ExprKind::GetSome(a) => match self.compile(a)? {
                Sym::Option { payload, .. } => *payload,
                _ => return Err(unsupported("get_some", e.type_of()?)),
            },
            ExprKind::MkRecord(def, fields) => Sym::Record {
                def: std::sync::Arc::clone(def),
                fields: fields.iter().map(|f| self.compile(f)).collect::<Result<_, _>>()?,
            },
            ExprKind::GetField(a, name) => match self.compile(a)? {
                Sym::Record { def, fields } => {
                    let i = def.field_index(name).ok_or_else(|| {
                        SmtError::IllTyped(TypeError::NoSuchField {
                            record: def.name().to_owned(),
                            field: name.clone(),
                        })
                    })?;
                    fields[i].clone()
                }
                _ => return Err(unsupported("get_field", e.type_of()?)),
            },
            ExprKind::WithField(a, name, v) => match self.compile(a)? {
                Sym::Record { def, mut fields } => {
                    let i = def.field_index(name).ok_or_else(|| {
                        SmtError::IllTyped(TypeError::NoSuchField {
                            record: def.name().to_owned(),
                            field: name.clone(),
                        })
                    })?;
                    fields[i] = self.compile(v)?;
                    Sym::Record { def, fields }
                }
                _ => return Err(unsupported("with_field", e.type_of()?)),
            },
            ExprKind::SetContains(a, tag) => match self.compile(a)? {
                Sym::Set { def, mask } => {
                    let i = tag_index(&def, tag)?;
                    Sym::Bool(mask.extract(i, i).eq(BV::from_u64(1, 1)))
                }
                _ => return Err(unsupported("set_contains", e.type_of()?)),
            },
            ExprKind::SetAdd(a, tag) => match self.compile(a)? {
                Sym::Set { def, mask } => {
                    let w = set_width(def.universe().len());
                    let i = tag_index(&def, tag)?;
                    let bit = BV::from_u64(1u64 << i, w);
                    Sym::Set { mask: mask.bvor(&bit), def }
                }
                _ => return Err(unsupported("set_add", e.type_of()?)),
            },
            ExprKind::SetRemove(a, tag) => match self.compile(a)? {
                Sym::Set { def, mask } => {
                    let w = set_width(def.universe().len());
                    let i = tag_index(&def, tag)?;
                    let keep = BV::from_u64(!(1u64 << i) & mask_all(w), w);
                    Sym::Set { mask: mask.bvand(&keep), def }
                }
                _ => return Err(unsupported("set_remove", e.type_of()?)),
            },
            ExprKind::SetUnion(a, b) => match (self.compile(a)?, self.compile(b)?) {
                (Sym::Set { def, mask: x }, Sym::Set { mask: y, .. }) => {
                    Sym::Set { mask: x.bvor(&y), def }
                }
                _ => return Err(unsupported("set_union", e.type_of()?)),
            },
            ExprKind::SetInter(a, b) => match (self.compile(a)?, self.compile(b)?) {
                (Sym::Set { def, mask: x }, Sym::Set { mask: y, .. }) => {
                    Sym::Set { mask: x.bvand(&y), def }
                }
                _ => return Err(unsupported("set_inter", e.type_of()?)),
            },
        })
    }
}

fn tag_index(def: &timepiece_expr::SetDef, tag: &str) -> Result<u32, SmtError> {
    def.tag_index(tag).map(|i| i as u32).ok_or_else(|| {
        SmtError::IllTyped(TypeError::NoSuchTag { set: def.name().to_owned(), tag: tag.to_owned() })
    })
}

fn mask_all(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use z3::{SatResult, Solver};

    fn assert_valid(e: &Expr) {
        let mut enc = Encoder::new();
        let goal = enc.compile_bool(e).unwrap();
        let solver = Solver::new();
        for wf in enc.well_formed() {
            solver.assert(wf);
        }
        solver.assert(goal.not());
        assert_eq!(solver.check(), SatResult::Unsat, "expected valid: {e}");
    }

    fn assert_invalid(e: &Expr) {
        let mut enc = Encoder::new();
        let goal = enc.compile_bool(e).unwrap();
        let solver = Solver::new();
        for wf in enc.well_formed() {
            solver.assert(wf);
        }
        solver.assert(goal.not());
        assert_eq!(solver.check(), SatResult::Sat, "expected invalid: {e}");
    }

    #[test]
    fn arithmetic_facts() {
        let x = Expr::var("x", Type::Int);
        assert_valid(&x.clone().add(Expr::int(1)).gt(x.clone()));
        assert_invalid(&x.clone().sub(Expr::int(1)).ge(x));
    }

    #[test]
    fn bitvectors_wrap() {
        let x = Expr::var("x", Type::BitVec(8));
        // wrapping: x + 1 > x is NOT valid at 8 bits
        assert_invalid(&x.clone().add(Expr::bv(1, 8)).gt(x.clone()));
        // but x & mask facts hold: x <= 255
        assert_valid(&x.le(Expr::bv(255, 8)));
    }

    #[test]
    fn option_facts() {
        let ty = Type::option(Type::Int);
        let o = Expr::var("o", ty.clone());
        // an option is none or some
        assert_valid(&o.clone().is_some().or(o.clone().is_none()));
        // some(get_some(o)) == o only when present
        let rebuilt = o.clone().get_some().some();
        assert_valid(&o.clone().is_some().implies(rebuilt.clone().eq(o.clone())));
        assert_invalid(&rebuilt.eq(o));
    }

    #[test]
    fn record_update_facts() {
        let ty = Type::record("R", [("a", Type::Int), ("b", Type::Bool)]);
        let r = Expr::var("r", ty);
        let upd = r.clone().with_field("a", Expr::int(5));
        assert_valid(&upd.clone().field("a").eq(Expr::int(5)));
        assert_valid(&upd.field("b").eq(r.field("b")));
    }

    #[test]
    fn set_facts() {
        let ty = Type::set("T", ["x", "y", "z"]);
        let s = Expr::var("s", ty);
        assert_valid(&s.clone().add_tag("x").contains("x"));
        assert_valid(&s.clone().remove_tag("y").contains("y").not());
        assert_valid(
            &s.clone().add_tag("x").remove_tag("x").contains("y").iff(s.clone().contains("y")),
        );
        let t = Expr::var("t", Type::set("T2", ["x", "y", "z"]));
        let _ = t; // different defs cannot mix (checked by typechecker)
        assert_valid(&s.clone().union(s.clone()).eq(s.clone()));
        assert_valid(&s.clone().intersect(s.clone()).eq(s));
    }

    #[test]
    fn enum_well_formedness_limits_models() {
        let ty = Type::enumeration("O", ["a", "b", "c"]);
        let o = Expr::var("o", ty.clone());
        let def = ty.enum_def().unwrap();
        // valid: o is one of the three variants (requires well-formedness)
        let one_of = Expr::or_all(
            def.variants()
                .iter()
                .map(|v| o.clone().eq(Expr::constant(Value::enum_variant(def, v)))),
        );
        assert_valid(&one_of);
    }

    #[test]
    fn inconsistent_var_types_rejected() {
        let mut enc = Encoder::new();
        enc.declare("x", &Type::Int).unwrap();
        assert!(enc.declare("x", &Type::Bool).is_err());
    }

    #[test]
    fn model_decoding_roundtrips() {
        let ty = Type::option(Type::record(
            "R",
            [("lp", Type::BitVec(32)), ("tags", Type::set("T", ["bte"]))],
        ));
        let o = Expr::var("o", ty.clone());
        let constraint = o
            .clone()
            .is_some()
            .and(o.clone().get_some().field("lp").eq(Expr::bv(200, 32)))
            .and(o.clone().get_some().field("tags").contains("bte"));
        let mut enc = Encoder::new();
        let c = enc.compile_bool(&constraint).unwrap();
        let solver = Solver::new();
        solver.assert(c);
        assert_eq!(solver.check(), SatResult::Sat);
        let model = solver.get_model().unwrap();
        let env = enc.decode_model(&model).unwrap();
        // decoded value satisfies the constraint per the interpreter
        assert!(constraint.eval_bool(&env).unwrap());
    }
}
