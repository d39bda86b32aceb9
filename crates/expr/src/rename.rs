//! Injective renaming of free variables, as one interned substitution.
//!
//! A [`Renaming`] maps variable names to variable names, one to one. Applied
//! to a term it rebuilds exactly the nodes above a renamed variable, by
//! interning each rebuilt node's structure directly — the smart constructors
//! never run — so the result has the same shape as the input, node for node:
//! the same [`Expr::dag_size`], the same folds, and (renaming the bindings
//! of an [`Env`] alike) the same value. Subterms that mention no renamed
//! variable come back as the very same node. Because the map is injective
//! and refuses to capture a name already free in the term, renaming is
//! invertible ([`Renaming::inverse`]), so two terms rename to one node
//! exactly when they are equal up to the renaming.
//!
//! # Example
//!
//! ```
//! use timepiece_expr::{Expr, Renaming, Type};
//!
//! let at = |name: &str| Expr::var(name, Type::Int).ge(Expr::int(0));
//! let rename = Renaming::new([("x", "y")]).unwrap();
//! assert_eq!(at("x").rename(&rename).unwrap(), at("y"));
//! assert_eq!(at("y").rename(&rename.inverse()).unwrap(), at("x"));
//! // `y` is already free in this term: renaming `x` to it would merge them
//! assert!(at("x").and(at("y")).rename(&rename).is_err());
//! ```

use std::collections::{HashMap, HashSet};

use crate::arena::{self, InternId};
use crate::error::RenameError;
use crate::eval::Env;
use crate::expr::{Expr, ExprKind};

/// A one-to-one map between variable names. See the module docs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Renaming {
    map: HashMap<String, String>,
    targets: HashSet<String>,
}

impl Renaming {
    /// The renaming of each `(from, to)` pair.
    ///
    /// # Errors
    ///
    /// [`RenameError::NotInjective`] if two names map to one target,
    /// [`RenameError::Ambiguous`] if one name maps to two targets.
    pub fn new<I, S, T>(pairs: I) -> Result<Renaming, RenameError>
    where
        I: IntoIterator<Item = (S, T)>,
        S: Into<String>,
        T: Into<String>,
    {
        let mut renaming = Renaming::default();
        for (from, to) in pairs {
            let (from, to) = (from.into(), to.into());
            match renaming.map.get(&from) {
                Some(old) if *old == to => continue,
                Some(_) => return Err(RenameError::Ambiguous { name: from }),
                None => {}
            }
            if !renaming.targets.insert(to.clone()) {
                return Err(RenameError::NotInjective { target: to });
            }
            renaming.map.insert(from, to);
        }
        Ok(renaming)
    }

    /// The renaming that undoes this one.
    pub fn inverse(&self) -> Renaming {
        Renaming {
            map: self.map.iter().map(|(from, to)| (to.clone(), from.clone())).collect(),
            targets: self.map.keys().cloned().collect(),
        }
    }

    /// What `name` is renamed to, if it is renamed.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.map.get(name).map(String::as_str)
    }

    /// Renames every term of `terms`, sharing the work on their common
    /// subterms.
    ///
    /// # Errors
    ///
    /// [`RenameError::Captured`] if a target name is free in one of the
    /// terms without being renamed itself.
    pub fn apply(&self, terms: &[Expr]) -> Result<Vec<Expr>, RenameError> {
        let mut substitution = Substitution { renaming: self, done: HashMap::new() };
        terms.iter().map(|e| substitution.rename(e)).collect()
    }

    /// `env` with the bound names renamed. A name the renaming does not
    /// mention keeps its binding, unless it is a target: then the binding
    /// renamed onto it shadows it, whatever order the bindings come in.
    pub fn env(&self, env: &Env) -> Env {
        env.iter()
            .filter_map(|(name, value)| match self.get(name) {
                Some(to) => Some((to.to_owned(), value.clone())),
                None if self.targets.contains(name) => None,
                None => Some((name.to_owned(), value.clone())),
            })
            .collect()
    }
}

impl Expr {
    /// This term with its free variables renamed ([`Renaming::apply`] on
    /// one term).
    ///
    /// # Errors
    ///
    /// As [`Renaming::apply`].
    pub fn rename(&self, renaming: &Renaming) -> Result<Expr, RenameError> {
        let mut substitution = Substitution { renaming, done: HashMap::new() };
        substitution.rename(self)
    }
}

/// One application of a renaming, memoised by node.
struct Substitution<'a> {
    renaming: &'a Renaming,
    done: HashMap<InternId, Expr>,
}

impl Substitution<'_> {
    fn rename(&mut self, e: &Expr) -> Result<Expr, RenameError> {
        if let Some(renamed) = self.done.get(&e.node_id()) {
            return Ok(renamed.clone());
        }
        let rebuilt = match e.kind() {
            ExprKind::Var(name, ty) => match self.renaming.get(name) {
                Some(to) => Some(ExprKind::Var(to.to_owned(), ty.clone())),
                None if self.renaming.targets.contains(name) => {
                    return Err(RenameError::Captured { name: name.clone() })
                }
                None => None,
            },
            ExprKind::Const(_) | ExprKind::None(_) => None,
            ExprKind::Not(a) => self.one(a, ExprKind::Not)?,
            ExprKind::Some(a) => self.one(a, ExprKind::Some)?,
            ExprKind::IsSome(a) => self.one(a, ExprKind::IsSome)?,
            ExprKind::GetSome(a) => self.one(a, ExprKind::GetSome)?,
            ExprKind::GetField(a, s) => self.one(a, |a| ExprKind::GetField(a, s.clone()))?,
            ExprKind::SetContains(a, s) => self.one(a, |a| ExprKind::SetContains(a, s.clone()))?,
            ExprKind::SetAdd(a, s) => self.one(a, |a| ExprKind::SetAdd(a, s.clone()))?,
            ExprKind::SetRemove(a, s) => self.one(a, |a| ExprKind::SetRemove(a, s.clone()))?,
            ExprKind::Implies(a, b) => self.many(&[a, b], |[a, b]| ExprKind::Implies(a, b))?,
            ExprKind::Eq(a, b) => self.many(&[a, b], |[a, b]| ExprKind::Eq(a, b))?,
            ExprKind::Lt(a, b) => self.many(&[a, b], |[a, b]| ExprKind::Lt(a, b))?,
            ExprKind::Le(a, b) => self.many(&[a, b], |[a, b]| ExprKind::Le(a, b))?,
            ExprKind::Add(a, b) => self.many(&[a, b], |[a, b]| ExprKind::Add(a, b))?,
            ExprKind::Sub(a, b) => self.many(&[a, b], |[a, b]| ExprKind::Sub(a, b))?,
            ExprKind::SetUnion(a, b) => self.many(&[a, b], |[a, b]| ExprKind::SetUnion(a, b))?,
            ExprKind::SetInter(a, b) => self.many(&[a, b], |[a, b]| ExprKind::SetInter(a, b))?,
            ExprKind::WithField(a, s, b) => {
                self.many(&[a, b], |[a, b]| ExprKind::WithField(a, s.clone(), b))?
            }
            ExprKind::Ite(a, b, c) => self.many(&[a, b, c], |[a, b, c]| ExprKind::Ite(a, b, c))?,
            ExprKind::And(xs) => self.list(xs, ExprKind::And)?,
            ExprKind::Or(xs) => self.list(xs, ExprKind::Or)?,
            ExprKind::MkRecord(def, xs) => {
                self.list(xs, |xs| ExprKind::MkRecord(def.clone(), xs))?
            }
        };
        // interned as is: a smart constructor could fold the renamed node
        // into another shape, and the result must mirror the input
        let renamed = rebuilt.map_or_else(|| e.clone(), arena::intern);
        self.done.insert(e.node_id(), renamed.clone());
        Ok(renamed)
    }

    /// The node over one renamed child, or `None` when the child is unchanged.
    fn one(
        &mut self,
        a: &Expr,
        node: impl FnOnce(Expr) -> ExprKind,
    ) -> Result<Option<ExprKind>, RenameError> {
        let renamed = self.rename(a)?;
        Ok((!renamed.same_node(a)).then(|| node(renamed)))
    }

    /// The node over `N` renamed children, or `None` when none changed.
    fn many<const N: usize>(
        &mut self,
        children: &[&Expr; N],
        node: impl FnOnce([Expr; N]) -> ExprKind,
    ) -> Result<Option<ExprKind>, RenameError> {
        let mut renamed = Vec::with_capacity(N);
        for child in children {
            renamed.push(self.rename(child)?);
        }
        let changed = renamed.iter().zip(children).any(|(r, c)| !r.same_node(c));
        let renamed: [Expr; N] = renamed.try_into().expect("one per child");
        Ok(changed.then(|| node(renamed)))
    }

    /// The node over a renamed child list, or `None` when none changed.
    fn list(
        &mut self,
        xs: &[Expr],
        node: impl FnOnce(Vec<Expr>) -> ExprKind,
    ) -> Result<Option<ExprKind>, RenameError> {
        let renamed = xs.iter().map(|x| self.rename(x)).collect::<Result<Vec<_>, _>>()?;
        let changed = renamed.iter().zip(xs).any(|(r, x)| !r.same_node(x));
        Ok(changed.then(|| node(renamed)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Type;
    use crate::value::Value;

    fn x() -> Expr {
        Expr::var("x", Type::Int)
    }

    fn y() -> Expr {
        Expr::var("y", Type::Int)
    }

    #[test]
    fn untouched_subterms_are_the_same_node() {
        let shared = Expr::var("z", Type::Int).add(Expr::int(1));
        let term = shared.clone().le(x()).and(shared.clone().ge(Expr::int(0)));
        let renamed = term.rename(&Renaming::new([("x", "w")]).unwrap()).unwrap();
        let expected = shared.clone().le(Expr::var("w", Type::Int)).and(shared.ge(Expr::int(0)));
        assert_eq!(renamed, expected);
        // a term without the renamed variable comes back as itself
        let closed = Expr::var("z", Type::Int).ge(Expr::int(3));
        assert!(closed.rename(&Renaming::new([("x", "w")]).unwrap()).unwrap().same_node(&closed));
    }

    #[test]
    fn a_swap_is_a_renaming_and_its_own_inverse() {
        let swap = Renaming::new([("x", "y"), ("y", "x")]).unwrap();
        let term = x().sub(y());
        assert_eq!(term.rename(&swap).unwrap(), y().sub(x()));
        assert_eq!(swap.inverse(), swap);
    }

    #[test]
    fn refusals_name_the_clash() {
        assert_eq!(
            Renaming::new([("x", "z"), ("y", "z")]),
            Err(RenameError::NotInjective { target: "z".into() })
        );
        assert_eq!(
            Renaming::new([("x", "z"), ("x", "w")]),
            Err(RenameError::Ambiguous { name: "x".into() })
        );
        let into_y = Renaming::new([("x", "y")]).unwrap();
        assert_eq!(x().add(y()).rename(&into_y), Err(RenameError::Captured { name: "y".into() }));
        // the same pair twice is one pair
        assert_eq!(Renaming::new([("x", "y"), ("x", "y")]), Renaming::new([("x", "y")]));
    }

    #[test]
    fn no_fold_runs_on_the_renamed_term() {
        // `x == y` renamed injectively stays an equality of two variables
        let term = x().eq(y());
        let renamed = term.rename(&Renaming::new([("x", "a"), ("y", "b")]).unwrap()).unwrap();
        assert!(matches!(renamed.kind(), ExprKind::Eq(..)));
        assert_eq!(renamed.dag_size(), term.dag_size());
    }

    #[test]
    fn renamed_environments_evaluate_alike() {
        let term = x().add(Expr::int(2)).le(y());
        let mut env = Env::new();
        env.bind("x", Value::int(1)).bind("y", Value::int(3));
        let r = Renaming::new([("x", "p"), ("y", "q")]).unwrap();
        assert_eq!(term.eval(&env), term.rename(&r).unwrap().eval(&r.env(&env)));
        // a stale binding of a target name is shadowed, never kept
        env.bind("p", Value::int(100));
        assert_eq!(r.env(&env).get("p"), Some(&Value::int(1)));
    }
}
