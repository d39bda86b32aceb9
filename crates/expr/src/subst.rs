//! Substitution of a term for a free variable.
//!
//! # Example
//!
//! ```
//! use timepiece_expr::{substitute, Expr, Type};
//!
//! let x = Expr::var("x", Type::Int);
//! let term = x.clone().add(Expr::int(1)).le(Expr::int(3));
//! let replaced = substitute(&term, "x", &Expr::var("y", Type::Int));
//! assert_eq!(replaced, Expr::var("y", Type::Int).add(Expr::int(1)).le(Expr::int(3)));
//! ```

use std::collections::HashMap;

use crate::arena::InternId;
use crate::expr::{Expr, ExprKind};

/// Rewrites every occurrence of the free variable `name` in `e` to
/// `replacement`, rebuilding through the smart constructors (memoized on
/// the arena's node ids, so shared subterms are visited once).
pub fn substitute(e: &Expr, name: &str, replacement: &Expr) -> Expr {
    let mut memo = HashMap::new();
    subst(e, name, replacement, &mut memo)
}

fn subst(e: &Expr, name: &str, r: &Expr, memo: &mut HashMap<InternId, Expr>) -> Expr {
    if let Some(done) = memo.get(&e.node_id()) {
        return done.clone();
    }
    let go = |a: &Expr, memo: &mut HashMap<InternId, Expr>| subst(a, name, r, memo);
    let out = match e.kind() {
        ExprKind::Var(n, _) if n == name => r.clone(),
        ExprKind::Var(_, _) | ExprKind::Const(_) | ExprKind::None(_) => e.clone(),
        ExprKind::Not(a) => go(a, memo).not(),
        ExprKind::And(vs) => Expr::and_all(vs.iter().map(|v| go(v, memo)).collect::<Vec<_>>()),
        ExprKind::Or(vs) => Expr::or_all(vs.iter().map(|v| go(v, memo)).collect::<Vec<_>>()),
        ExprKind::Implies(a, b) => go(a, memo).implies(go(b, memo)),
        ExprKind::Ite(c, t, f) => go(c, memo).ite(go(t, memo), go(f, memo)),
        ExprKind::Eq(a, b) => go(a, memo).eq(go(b, memo)),
        ExprKind::Lt(a, b) => go(a, memo).lt(go(b, memo)),
        ExprKind::Le(a, b) => go(a, memo).le(go(b, memo)),
        ExprKind::Add(a, b) => go(a, memo).add(go(b, memo)),
        ExprKind::Sub(a, b) => go(a, memo).sub(go(b, memo)),
        ExprKind::Some(a) => go(a, memo).some(),
        ExprKind::IsSome(a) => go(a, memo).is_some(),
        ExprKind::GetSome(a) => go(a, memo).get_some(),
        ExprKind::MkRecord(def, fields) => {
            let fields: Vec<Expr> = fields.iter().map(|f| go(f, memo)).collect();
            Expr::record(def, fields)
        }
        ExprKind::GetField(a, f) => go(a, memo).field(f.clone()),
        ExprKind::WithField(a, f, v) => {
            let a = go(a, memo);
            let v = go(v, memo);
            a.with_field(f.clone(), v)
        }
        ExprKind::SetContains(a, tag) => go(a, memo).contains(tag.clone()),
        ExprKind::SetAdd(a, tag) => go(a, memo).add_tag(tag.clone()),
        ExprKind::SetRemove(a, tag) => go(a, memo).remove_tag(tag.clone()),
        ExprKind::SetUnion(a, b) => go(a, memo).union(go(b, memo)),
        ExprKind::SetInter(a, b) => go(a, memo).intersect(go(b, memo)),
    };
    memo.insert(e.node_id(), out.clone());
    out
}
