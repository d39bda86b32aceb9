//! Expression terms and their smart constructors.

use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::arena::{self, ExprNode, InternId};
use crate::error::TypeError;
use crate::types::{RecordDef, Type};
use crate::value::Value;

/// An expression term of the IR.
///
/// `Expr` is a cheaply clonable handle to a node in the global hash-consing
/// arena ([`crate::arena`]): structurally equal terms are the *same* node,
/// however and wherever they were built, so equality (`==`,
/// [`Expr::same_node`]) is a pointer comparison and [`Expr::node_id`] is a
/// stable [`InternId`] that backend caches key by. Shared subterms are
/// represented once, and both backends (interpreter and Z3 compiler) cache by
/// node identity so shared subterms are processed once.
///
/// Construct terms with the associated functions ([`Expr::var`],
/// [`Expr::int`], …) and combinator methods ([`Expr::and`], [`Expr::ite`], …),
/// which perform light constant folding.
///
/// # Example
///
/// ```
/// use timepiece_expr::{Expr, Type};
/// let x = Expr::var("x", Type::Int);
/// let e = x.clone().add(Expr::int(1)).le(Expr::int(10));
/// assert_eq!(e.type_of().unwrap(), Type::Bool);
/// // hash-consing: rebuilding the same structure yields the same node
/// let e2 = Expr::var("x", Type::Int).add(Expr::int(1)).le(Expr::int(10));
/// assert_eq!(e, e2);
/// ```
#[derive(Clone)]
pub struct Expr(pub(crate) Arc<ExprNode>);

/// The node variants of an [`Expr`].
///
/// Exposed so that backends (interpreter, SMT compiler, printer) can match on
/// structure; users normally construct terms via the smart constructors.
///
/// Equality and hashing are *shallow*: child [`Expr`]s compare by canonical
/// identity (O(1)), which is exactly the invariant the interning arena
/// maintains — children are canonical before their parent is interned.
#[derive(Debug, PartialEq, Eq, Hash)]
pub enum ExprKind {
    /// A typed free variable.
    Var(String, Type),
    /// A literal constant.
    Const(Value),
    /// Boolean negation.
    Not(Expr),
    /// N-ary conjunction.
    And(Vec<Expr>),
    /// N-ary disjunction.
    Or(Vec<Expr>),
    /// Implication.
    Implies(Expr, Expr),
    /// If-then-else; branches share an arbitrary type.
    Ite(Expr, Expr, Expr),
    /// Equality at any type (structural for records/options/sets).
    Eq(Expr, Expr),
    /// Strictly-less-than on `Int` or unsigned `BitVec`.
    Lt(Expr, Expr),
    /// Less-or-equal on `Int` or unsigned `BitVec`.
    Le(Expr, Expr),
    /// Addition on `Int` or wrapping `BitVec`.
    Add(Expr, Expr),
    /// Subtraction on `Int` or wrapping `BitVec`.
    Sub(Expr, Expr),
    /// The absent option value (the payload type is recorded).
    None(Type),
    /// Wrapping in `Some`.
    Some(Expr),
    /// Is the option present?
    IsSome(Expr),
    /// Option payload; **total**: yields the payload type's default when the
    /// option is `None`.
    GetSome(Expr),
    /// Record construction with fields in definition order.
    MkRecord(Arc<RecordDef>, Vec<Expr>),
    /// Record field projection.
    GetField(Expr, String),
    /// Functional record update.
    WithField(Expr, String, Expr),
    /// Set membership of a fixed tag.
    SetContains(Expr, String),
    /// Set with a fixed tag added.
    SetAdd(Expr, String),
    /// Set with a fixed tag removed.
    SetRemove(Expr, String),
    /// Set union.
    SetUnion(Expr, Expr),
    /// Set intersection.
    SetInter(Expr, Expr),
}

/// Structural equality, O(1): the arena guarantees structurally equal terms
/// share one canonical node, so this is a pointer comparison.
impl PartialEq for Expr {
    fn eq(&self, other: &Expr) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for Expr {}

/// Hashes the precomputed structural hash — O(1), consistent with `==`.
impl Hash for Expr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.hash);
    }
}

impl fmt::Debug for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // print structure only: the id and hash are arena bookkeeping, and
        // repeating them at every nesting level would drown the term
        fmt::Debug::fmt(&self.0.kind, f)
    }
}

impl Expr {
    fn new(kind: ExprKind) -> Expr {
        arena::intern(kind)
    }

    /// The underlying node.
    pub fn kind(&self) -> &ExprKind {
        &self.0.kind
    }

    /// The stable intern id of this node, used by backend caches.
    ///
    /// Equal ids ⇔ structurally equal terms; ids are never reused, so caches
    /// keyed by them stay valid for the life of the process (there is no ABA
    /// hazard, unlike the address-based identities this replaces).
    pub fn node_id(&self) -> InternId {
        self.0.id
    }

    /// Do two handles point at the same node? With hash-consing this *is*
    /// structural equality (`==`); kept for call sites that want to spell
    /// out that identity, not just equivalence, is being asserted.
    pub fn same_node(&self, other: &Expr) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    // ---- leaves ------------------------------------------------------------

    /// A typed free variable.
    pub fn var(name: impl Into<String>, ty: Type) -> Expr {
        Expr::new(ExprKind::Var(name.into(), ty))
    }

    /// A literal constant.
    pub fn constant(v: Value) -> Expr {
        Expr::new(ExprKind::Const(v))
    }

    /// A boolean literal.
    pub fn bool(b: bool) -> Expr {
        Expr::constant(Value::Bool(b))
    }

    /// An integer literal.
    pub fn int(i: impl Into<i128>) -> Expr {
        Expr::constant(Value::Int(i.into()))
    }

    /// A bitvector literal.
    pub fn bv(bits: u64, width: u32) -> Expr {
        Expr::constant(Value::bv(bits, width))
    }

    /// The `None` option literal for a payload type.
    pub fn none(payload: Type) -> Expr {
        Expr::new(ExprKind::None(payload))
    }

    /// Is this node a literal constant? Returns it if so.
    pub fn as_const(&self) -> Option<&Value> {
        match self.kind() {
            ExprKind::Const(v) => Some(v),
            _ => None,
        }
    }

    fn as_const_bool(&self) -> Option<bool> {
        self.as_const().and_then(Value::as_bool)
    }

    // ---- booleans ----------------------------------------------------------

    /// Logical negation (folds constants and double negation).
    #[allow(clippy::should_implement_trait)] // DSL builder, not std ops
    pub fn not(self) -> Expr {
        match self.as_const_bool() {
            Some(b) => Expr::bool(!b),
            None => match self.kind() {
                ExprKind::Not(inner) => inner.clone(),
                _ => Expr::new(ExprKind::Not(self)),
            },
        }
    }

    /// Binary conjunction. See [`Expr::and_all`] for the n-ary form.
    pub fn and(self, other: Expr) -> Expr {
        Expr::and_all([self, other])
    }

    /// N-ary conjunction with flattening and literal elimination.
    pub fn and_all(conjuncts: impl IntoIterator<Item = Expr>) -> Expr {
        let mut flat = Vec::new();
        for c in conjuncts {
            match c.as_const_bool() {
                Some(true) => continue,
                Some(false) => return Expr::bool(false),
                None => match c.kind() {
                    ExprKind::And(inner) => flat.extend(inner.iter().cloned()),
                    _ => flat.push(c),
                },
            }
        }
        match flat.len() {
            0 => Expr::bool(true),
            1 => flat.pop().expect("len checked"),
            _ => Expr::new(ExprKind::And(flat)),
        }
    }

    /// Binary disjunction. See [`Expr::or_all`] for the n-ary form.
    pub fn or(self, other: Expr) -> Expr {
        Expr::or_all([self, other])
    }

    /// N-ary disjunction with flattening and literal elimination.
    pub fn or_all(disjuncts: impl IntoIterator<Item = Expr>) -> Expr {
        let mut flat = Vec::new();
        for d in disjuncts {
            match d.as_const_bool() {
                Some(false) => continue,
                Some(true) => return Expr::bool(true),
                None => match d.kind() {
                    ExprKind::Or(inner) => flat.extend(inner.iter().cloned()),
                    _ => flat.push(d),
                },
            }
        }
        match flat.len() {
            0 => Expr::bool(false),
            1 => flat.pop().expect("len checked"),
            _ => Expr::new(ExprKind::Or(flat)),
        }
    }

    /// Implication `self → other`.
    pub fn implies(self, other: Expr) -> Expr {
        match (self.as_const_bool(), other.as_const_bool()) {
            (Some(true), _) => other,
            (Some(false), _) => Expr::bool(true),
            (_, Some(true)) => Expr::bool(true),
            (_, Some(false)) => self.not(),
            _ => Expr::new(ExprKind::Implies(self, other)),
        }
    }

    /// Bi-implication, expressed as equality of booleans.
    pub fn iff(self, other: Expr) -> Expr {
        self.eq(other)
    }

    /// If-then-else (folds constant conditions and identical branches).
    pub fn ite(self, then: Expr, otherwise: Expr) -> Expr {
        match self.as_const_bool() {
            Some(true) => then,
            Some(false) => otherwise,
            None if then.same_node(&otherwise) => then,
            None => Expr::new(ExprKind::Ite(self, then, otherwise)),
        }
    }

    // ---- comparisons -------------------------------------------------------

    /// Equality (structural at compound types; folds identical nodes).
    #[allow(clippy::should_implement_trait)]
    pub fn eq(self, other: Expr) -> Expr {
        if self.same_node(&other) {
            return Expr::bool(true);
        }
        Expr::new(ExprKind::Eq(self, other))
    }

    /// Disequality.
    pub fn ne(self, other: Expr) -> Expr {
        self.eq(other).not()
    }

    /// Strictly less-than (`Int` or unsigned `BitVec`).
    pub fn lt(self, other: Expr) -> Expr {
        Expr::new(ExprKind::Lt(self, other))
    }

    /// Less-or-equal (`Int` or unsigned `BitVec`).
    pub fn le(self, other: Expr) -> Expr {
        Expr::new(ExprKind::Le(self, other))
    }

    /// Strictly greater-than.
    pub fn gt(self, other: Expr) -> Expr {
        other.lt(self)
    }

    /// Greater-or-equal.
    pub fn ge(self, other: Expr) -> Expr {
        other.le(self)
    }

    // ---- arithmetic ----------------------------------------------------------

    /// Addition (`Int`, or wrapping `BitVec`).
    #[allow(clippy::should_implement_trait)] // DSL builder, not std ops
    pub fn add(self, other: Expr) -> Expr {
        Expr::new(ExprKind::Add(self, other))
    }

    /// Subtraction (`Int`, or wrapping `BitVec`).
    #[allow(clippy::should_implement_trait)] // DSL builder, not std ops
    pub fn sub(self, other: Expr) -> Expr {
        Expr::new(ExprKind::Sub(self, other))
    }

    /// The minimum of two numeric expressions, via `ite`.
    pub fn min(self, other: Expr) -> Expr {
        self.clone().le(other.clone()).ite(self, other)
    }

    /// The maximum of two numeric expressions, via `ite`.
    pub fn max(self, other: Expr) -> Expr {
        self.clone().le(other.clone()).ite(other, self)
    }

    // ---- options -------------------------------------------------------------

    /// Wraps this expression in `Some`.
    pub fn some(self) -> Expr {
        Expr::new(ExprKind::Some(self))
    }

    /// Is the option present?
    pub fn is_some(self) -> Expr {
        match self.kind() {
            ExprKind::Some(_) => Expr::bool(true),
            ExprKind::None(_) => Expr::bool(false),
            _ => Expr::new(ExprKind::IsSome(self)),
        }
    }

    /// Is the option absent?
    pub fn is_none(self) -> Expr {
        self.is_some().not()
    }

    /// The option payload. **Total**: evaluates to the payload type's default
    /// when the option is `None` (mirrored exactly in the SMT encoding).
    pub fn get_some(self) -> Expr {
        match self.kind() {
            ExprKind::Some(inner) => inner.clone(),
            _ => Expr::new(ExprKind::GetSome(self)),
        }
    }

    /// Case analysis on an option: `match self { Some(x) => f(x), None => d }`.
    ///
    /// The closure receives the (total) payload projection.
    pub fn match_option(self, none_case: Expr, some_case: impl FnOnce(Expr) -> Expr) -> Expr {
        let payload = self.clone().get_some();
        self.is_some().ite(some_case(payload), none_case)
    }

    // ---- records -------------------------------------------------------------

    /// Builds a record from field expressions in definition order.
    pub fn record(def: &Arc<RecordDef>, fields: Vec<Expr>) -> Expr {
        assert_eq!(
            fields.len(),
            def.fields().len(),
            "record {} expects {} fields",
            def.name(),
            def.fields().len()
        );
        Expr::new(ExprKind::MkRecord(Arc::clone(def), fields))
    }

    /// Projects a record field (folds projections of literal records).
    pub fn field(self, name: impl Into<String>) -> Expr {
        let name = name.into();
        match self.kind() {
            ExprKind::MkRecord(def, fields) => {
                if let Some(i) = def.field_index(&name) {
                    return fields[i].clone();
                }
            }
            ExprKind::WithField(base, n, v) => {
                if *n == name {
                    return v.clone();
                }
                return base.clone().field(name);
            }
            _ => {}
        }
        Expr::new(ExprKind::GetField(self, name))
    }

    /// Functional update of a record field.
    pub fn with_field(self, name: impl Into<String>, value: Expr) -> Expr {
        Expr::new(ExprKind::WithField(self, name.into(), value))
    }

    // ---- sets ----------------------------------------------------------------

    /// Set membership of a fixed tag.
    pub fn contains(self, tag: impl Into<String>) -> Expr {
        Expr::new(ExprKind::SetContains(self, tag.into()))
    }

    /// Set with a fixed tag added.
    pub fn add_tag(self, tag: impl Into<String>) -> Expr {
        Expr::new(ExprKind::SetAdd(self, tag.into()))
    }

    /// Set with a fixed tag removed.
    pub fn remove_tag(self, tag: impl Into<String>) -> Expr {
        Expr::new(ExprKind::SetRemove(self, tag.into()))
    }

    /// Set union.
    pub fn union(self, other: Expr) -> Expr {
        Expr::new(ExprKind::SetUnion(self, other))
    }

    /// Set intersection.
    pub fn intersect(self, other: Expr) -> Expr {
        Expr::new(ExprKind::SetInter(self, other))
    }

    // ---- analysis ------------------------------------------------------------

    /// Collects the free variables of this term.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::InconsistentVar`] if the same name occurs with two
    /// different types.
    pub fn free_vars(&self) -> Result<BTreeMap<String, Type>, TypeError> {
        let mut out = BTreeMap::new();
        let mut seen = std::collections::HashSet::new();
        self.collect_vars(&mut out, &mut seen)?;
        Ok(out)
    }

    fn collect_vars(
        &self,
        out: &mut BTreeMap<String, Type>,
        seen: &mut std::collections::HashSet<InternId>,
    ) -> Result<(), TypeError> {
        if !seen.insert(self.node_id()) {
            return Ok(());
        }
        if let ExprKind::Var(name, ty) = self.kind() {
            if let Some(prev) = out.get(name) {
                if prev != ty {
                    return Err(TypeError::InconsistentVar {
                        name: name.clone(),
                        first: prev.clone(),
                        second: ty.clone(),
                    });
                }
            } else {
                out.insert(name.clone(), ty.clone());
            }
        }
        for child in self.children() {
            child.collect_vars(out, seen)?;
        }
        Ok(())
    }

    /// The direct subterms of this node.
    pub fn children(&self) -> Vec<&Expr> {
        match self.kind() {
            ExprKind::Var(..) | ExprKind::Const(_) | ExprKind::None(_) => vec![],
            ExprKind::Not(a)
            | ExprKind::Some(a)
            | ExprKind::IsSome(a)
            | ExprKind::GetSome(a)
            | ExprKind::GetField(a, _)
            | ExprKind::SetContains(a, _)
            | ExprKind::SetAdd(a, _)
            | ExprKind::SetRemove(a, _) => vec![a],
            ExprKind::Implies(a, b)
            | ExprKind::Eq(a, b)
            | ExprKind::Lt(a, b)
            | ExprKind::Le(a, b)
            | ExprKind::Add(a, b)
            | ExprKind::Sub(a, b)
            | ExprKind::SetUnion(a, b)
            | ExprKind::SetInter(a, b)
            | ExprKind::WithField(a, _, b) => vec![a, b],
            ExprKind::Ite(a, b, c) => vec![a, b, c],
            ExprKind::And(xs) | ExprKind::Or(xs) => xs.iter().collect(),
            ExprKind::MkRecord(_, xs) => xs.iter().collect(),
        }
    }

    /// The number of distinct nodes in this term (DAG size).
    pub fn dag_size(&self) -> usize {
        fn walk(e: &Expr, seen: &mut std::collections::HashSet<InternId>) {
            if !seen.insert(e.node_id()) {
                return;
            }
            for c in e.children() {
                walk(c, seen);
            }
        }
        let mut seen = std::collections::HashSet::new();
        walk(self, &mut seen);
        seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_folding_bools() {
        let t = Expr::bool(true);
        let f = Expr::bool(false);
        assert_eq!(t.clone().not().as_const_bool(), Some(false));
        assert_eq!(t.clone().and(f.clone()).as_const_bool(), Some(false));
        assert_eq!(t.clone().or(f.clone()).as_const_bool(), Some(true));
        assert_eq!(f.clone().implies(t.clone()).as_const_bool(), Some(true));
        let x = Expr::var("x", Type::Bool);
        assert!(x.clone().and(t.clone()).same_node(&x));
        assert!(x.clone().or(f.clone()).same_node(&x));
        assert!(x.clone().not().not().same_node(&x));
    }

    #[test]
    fn and_or_flatten() {
        let x = Expr::var("x", Type::Bool);
        let y = Expr::var("y", Type::Bool);
        let z = Expr::var("z", Type::Bool);
        let e = x.clone().and(y.clone()).and(z.clone());
        match e.kind() {
            ExprKind::And(v) => assert_eq!(v.len(), 3),
            k => panic!("expected flat And, got {k:?}"),
        }
        let e = Expr::or_all([x.clone().or(y), z]);
        match e.kind() {
            ExprKind::Or(v) => assert_eq!(v.len(), 3),
            k => panic!("expected flat Or, got {k:?}"),
        }
    }

    #[test]
    fn ite_folds() {
        let x = Expr::var("x", Type::Int);
        let y = Expr::var("y", Type::Int);
        assert!(Expr::bool(true).ite(x.clone(), y.clone()).same_node(&x));
        assert!(Expr::bool(false).ite(x.clone(), y.clone()).same_node(&y));
        let c = Expr::var("c", Type::Bool);
        assert!(c.ite(x.clone(), x.clone()).same_node(&x));
    }

    #[test]
    fn eq_identical_folds() {
        let x = Expr::var("x", Type::Int);
        assert_eq!(x.clone().eq(x.clone()).as_const_bool(), Some(true));
    }

    #[test]
    fn option_folds() {
        let x = Expr::var("x", Type::Int);
        assert_eq!(x.clone().some().is_some().as_const_bool(), Some(true));
        assert_eq!(Expr::none(Type::Int).is_some().as_const_bool(), Some(false));
        assert!(x.clone().some().get_some().same_node(&x));
    }

    #[test]
    fn record_projection_folds() {
        let def = Arc::new(RecordDef::new("R", [("a", Type::Int), ("b", Type::Bool)]));
        let a = Expr::var("a", Type::Int);
        let b = Expr::var("b", Type::Bool);
        let r = Expr::record(&def, vec![a.clone(), b.clone()]);
        assert!(r.clone().field("a").same_node(&a));
        assert!(r.clone().field("b").same_node(&b));
        let updated = r.clone().with_field("a", Expr::int(3));
        assert_eq!(updated.clone().field("a").as_const(), Some(&Value::Int(3)));
        assert!(updated.field("b").same_node(&b));
    }

    #[test]
    fn free_vars_collects_and_checks() {
        let x = Expr::var("x", Type::Int);
        let y = Expr::var("y", Type::Bool);
        let e = y.clone().ite(x.clone(), x.clone().add(Expr::int(1)));
        let fv = e.free_vars().unwrap();
        assert_eq!(fv.len(), 2);
        assert_eq!(fv["x"], Type::Int);

        let bad = Expr::var("x", Type::Bool).and(Expr::var("x", Type::Int).gt(Expr::int(0)));
        assert!(bad.free_vars().is_err());
    }

    #[test]
    fn dag_size_counts_shared_nodes_once() {
        let x = Expr::var("x", Type::Int);
        let sum = x.clone().add(x.clone());
        // nodes: x, add
        assert_eq!(sum.dag_size(), 2);
    }

    #[test]
    fn min_max() {
        let x = Expr::var("x", Type::Int);
        let y = Expr::var("y", Type::Int);
        // structure only; semantics tested in eval
        assert!(matches!(x.clone().min(y.clone()).kind(), ExprKind::Ite(..)));
        assert!(matches!(x.min(y).kind(), ExprKind::Ite(..)));
    }
}
