//! Structural symbolic values.
//!
//! A [`Sym`] mirrors the shape of a [`Type`]: scalars are single Z3 terms,
//! records are vectors of components, and options are a presence bit plus a
//! payload. Compound values never become single SMT terms — this avoids
//! datatype sorts and keeps the encoding in quantifier-free core theories
//! (`QF_UFBVLIA`-ish), exactly like the Zen encoding used by the paper.

use std::sync::Arc;

use timepiece_expr::{RecordDef, SetDef, Type, Value};
use z3::ast::{Bool, Int, BV};

use crate::error::SmtError;

/// A symbolic value: the Z3-side image of an expression.
#[derive(Debug, Clone)]
pub enum Sym {
    /// A boolean term.
    Bool(Bool),
    /// A bitvector term (width tracked by Z3).
    BV(BV),
    /// An unbounded integer term.
    Int(Int),
    /// An enum, encoded as a small bitvector index.
    Enum {
        /// Number of variants (for well-formedness constraints).
        variants: usize,
        /// The index term, of width [`enum_width`].
        index: BV,
    },
    /// An option: a presence bit plus a (total) payload.
    Option {
        /// Whether the value is present.
        is_some: Bool,
        /// The payload; meaningful only when `is_some`, but always defined.
        payload: Box<Sym>,
    },
    /// A record: one component per field, in definition order.
    Record {
        /// The record definition.
        def: Arc<RecordDef>,
        /// The field components.
        fields: Vec<Sym>,
    },
    /// A set over a fixed universe, as a bitvector mask.
    Set {
        /// The set definition.
        def: Arc<SetDef>,
        /// The mask term; bit `i` ⇔ tag `i` present.
        mask: BV,
    },
}

/// The bitvector width used to encode an enum with `n` variants.
pub fn enum_width(n: usize) -> u32 {
    let mut w = 1;
    while (1usize << w) < n {
        w += 1;
    }
    w
}

/// The bitvector width used to encode a set over a universe of `n` tags.
pub fn set_width(n: usize) -> u32 {
    n.max(1) as u32
}

impl Sym {
    /// Declares the structural symbolic constant of an encoder's
    /// declaration number `index` at type `ty`.
    ///
    /// Z3 merges constants that have the same name and sort, so no solver
    /// constant is named after a user's variable: each is named by `index`
    /// and its component's position — `v3` for a scalar, `v3?` and `v3!`
    /// for an option's presence bit and payload, `v3.0`, `v3.1`, … for a
    /// record's fields in definition order. Distinct declarations, and
    /// distinct components of one, therefore never share a constant; the
    /// user's names live in the encoder, which decodes models by them.
    pub(crate) fn declare(index: usize, ty: &Type) -> Sym {
        Sym::declare_at(&format!("v{index}"), ty)
    }

    /// [`Sym::declare`] for the component at `path`.
    fn declare_at(path: &str, ty: &Type) -> Sym {
        match ty {
            Type::Bool => Sym::Bool(Bool::new_const(path)),
            Type::BitVec(w) => Sym::BV(BV::new_const(path, *w)),
            Type::Int => Sym::Int(Int::new_const(path)),
            Type::Enum(def) => Sym::Enum {
                variants: def.variants().len(),
                index: BV::new_const(path, enum_width(def.variants().len())),
            },
            Type::Option(payload) => Sym::Option {
                is_some: Bool::new_const(format!("{path}?")),
                payload: Box::new(Sym::declare_at(&format!("{path}!"), payload)),
            },
            Type::Record(def) => Sym::Record {
                def: Arc::clone(def),
                fields: def
                    .fields()
                    .iter()
                    .enumerate()
                    .map(|(i, (_, t))| Sym::declare_at(&format!("{path}.{i}"), t))
                    .collect(),
            },
            Type::Set(def) => Sym::Set {
                def: Arc::clone(def),
                mask: BV::new_const(path, set_width(def.universe().len())),
            },
        }
    }

    /// Embeds a concrete value as a constant symbolic value.
    ///
    /// # Errors
    ///
    /// Returns [`SmtError::IntTooLarge`] for integers outside the i64 range.
    pub fn constant(v: &Value) -> Result<Sym, SmtError> {
        Ok(match v {
            Value::Bool(b) => Sym::Bool(Bool::from_bool(*b)),
            Value::BitVec { width, bits } => Sym::BV(BV::from_u64(*bits, *width)),
            Value::Int(i) => {
                let i = i64::try_from(*i).map_err(|_| SmtError::IntTooLarge(*i))?;
                Sym::Int(Int::from_i64(i))
            }
            Value::Enum { def, index } => Sym::Enum {
                variants: def.variants().len(),
                index: BV::from_u64(*index as u64, enum_width(def.variants().len())),
            },
            Value::Option { payload, value } => {
                let payload_sym = match value {
                    Some(inner) => Sym::constant(inner)?,
                    None => Sym::constant(&Value::default_of(payload))?,
                };
                Sym::Option {
                    is_some: Bool::from_bool(value.is_some()),
                    payload: Box::new(payload_sym),
                }
            }
            Value::Record { def, fields } => Sym::Record {
                def: Arc::clone(def),
                fields: fields.iter().map(Sym::constant).collect::<Result<_, _>>()?,
            },
            Value::Set { def, mask } => Sym::Set {
                def: Arc::clone(def),
                mask: BV::from_u64(*mask, set_width(def.universe().len())),
            },
        })
    }

    /// The boolean term, if this is a boolean.
    pub fn as_bool(&self) -> Option<&Bool> {
        match self {
            Sym::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Structural equality between two symbolic values of the same type.
    ///
    /// Options compare presence first; payloads are compared only under
    /// presence (matching the interpreter's semantics where `None` payloads
    /// are irrelevant).
    ///
    /// # Panics
    ///
    /// Panics if the two values have different shapes (callers type check).
    pub fn eq(&self, other: &Sym) -> Bool {
        match (self, other) {
            (Sym::Bool(a), Sym::Bool(b)) => a.eq(b),
            (Sym::BV(a), Sym::BV(b)) => a.eq(b),
            (Sym::Int(a), Sym::Int(b)) => a.eq(b),
            (Sym::Enum { index: a, .. }, Sym::Enum { index: b, .. }) => a.eq(b),
            (Sym::Set { mask: a, .. }, Sym::Set { mask: b, .. }) => a.eq(b),
            (
                Sym::Option { is_some: sa, payload: pa },
                Sym::Option { is_some: sb, payload: pb },
            ) => {
                let same_presence = sa.eq(sb);
                let payload_eq_if_present = sa.implies(pa.eq(pb));
                Bool::and(&[same_presence, payload_eq_if_present])
            }
            (Sym::Record { fields: fa, .. }, Sym::Record { fields: fb, .. }) => {
                let eqs: Vec<Bool> = fa.iter().zip(fb).map(|(a, b)| a.eq(b)).collect();
                Bool::and(&eqs)
            }
            _ => panic!("Sym::eq on mismatched shapes"),
        }
    }

    /// Pointwise if-then-else over two symbolic values of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if the two values have different shapes (callers type check).
    pub fn ite(cond: &Bool, then: &Sym, otherwise: &Sym) -> Sym {
        match (then, otherwise) {
            (Sym::Bool(a), Sym::Bool(b)) => Sym::Bool(cond.ite(a, b)),
            (Sym::BV(a), Sym::BV(b)) => Sym::BV(cond.ite(a, b)),
            (Sym::Int(a), Sym::Int(b)) => Sym::Int(cond.ite(a, b)),
            (Sym::Enum { variants, index: a }, Sym::Enum { index: b, .. }) => {
                Sym::Enum { variants: *variants, index: cond.ite(a, b) }
            }
            (Sym::Set { def, mask: a }, Sym::Set { mask: b, .. }) => {
                Sym::Set { def: Arc::clone(def), mask: cond.ite(a, b) }
            }
            (
                Sym::Option { is_some: sa, payload: pa },
                Sym::Option { is_some: sb, payload: pb },
            ) => {
                Sym::Option { is_some: cond.ite(sa, sb), payload: Box::new(Sym::ite(cond, pa, pb)) }
            }
            (Sym::Record { def, fields: fa }, Sym::Record { fields: fb, .. }) => Sym::Record {
                def: Arc::clone(def),
                fields: fa.iter().zip(fb).map(|(a, b)| Sym::ite(cond, a, b)).collect(),
            },
            _ => panic!("Sym::ite on mismatched shapes"),
        }
    }

    /// Well-formedness constraints for a declared symbolic value: enum
    /// indices must name real variants. (Other shapes are unconstrained.)
    pub fn well_formed(&self, out: &mut Vec<Bool>) {
        match self {
            Sym::Enum { variants, index } => {
                let n = *variants;
                let w = enum_width(n);
                if (1usize << w) != n {
                    out.push(index.bvult(BV::from_u64(n as u64, w)));
                }
            }
            Sym::Option { payload, .. } => payload.well_formed(out),
            Sym::Record { fields, .. } => {
                for f in fields {
                    f.well_formed(out);
                }
            }
            _ => {}
        }
    }

    /// Decodes this symbolic value under a Z3 model into a concrete [`Value`].
    ///
    /// Uses model completion, so unconstrained components decode to arbitrary
    /// (but valid) values.
    ///
    /// # Errors
    ///
    /// Returns [`SmtError::ModelDecode`] if Z3 yields a non-constant term.
    pub fn decode(&self, model: &z3::Model, ty: &Type) -> Result<Value, SmtError> {
        let fail = |what: &str| SmtError::ModelDecode(what.to_owned());
        Ok(match (self, ty) {
            (Sym::Bool(b), Type::Bool) => Value::Bool(
                model.eval(b, true).and_then(|v| v.as_bool()).ok_or_else(|| fail("bool"))?,
            ),
            (Sym::BV(bv), Type::BitVec(w)) => Value::bv(
                model.eval(bv, true).and_then(|v| v.as_u64()).ok_or_else(|| fail("bitvec"))?,
                *w,
            ),
            (Sym::Int(i), Type::Int) => Value::Int(
                model.eval(i, true).and_then(|v| v.as_i64()).ok_or_else(|| fail("int"))? as i128,
            ),
            (Sym::Enum { index, .. }, Type::Enum(def)) => {
                let raw =
                    model.eval(index, true).and_then(|v| v.as_u64()).ok_or_else(|| fail("enum"))?
                        as usize;
                let n = def.variants().len();
                Value::Enum { def: Arc::clone(def), index: raw.min(n - 1) }
            }
            (Sym::Option { is_some, payload }, Type::Option(p)) => {
                let present = model
                    .eval(is_some, true)
                    .and_then(|v| v.as_bool())
                    .ok_or_else(|| fail("option presence"))?;
                if present {
                    Value::some(payload.decode(model, p)?)
                } else {
                    Value::none((**p).clone())
                }
            }
            (Sym::Record { def, fields }, Type::Record(_)) => {
                let vals = def
                    .fields()
                    .iter()
                    .zip(fields)
                    .map(|((_, t), s)| s.decode(model, t))
                    .collect::<Result<Vec<_>, _>>()?;
                Value::Record { def: Arc::clone(def), fields: vals }
            }
            (Sym::Set { def, mask }, Type::Set(_)) => {
                let raw =
                    model.eval(mask, true).and_then(|v| v.as_u64()).ok_or_else(|| fail("set"))?;
                Value::Set { def: Arc::clone(def), mask: raw }
            }
            _ => return Err(fail("shape mismatch")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enum_width_is_minimal() {
        assert_eq!(enum_width(1), 1);
        assert_eq!(enum_width(2), 1);
        assert_eq!(enum_width(3), 2);
        assert_eq!(enum_width(4), 2);
        assert_eq!(enum_width(5), 3);
        assert_eq!(enum_width(256), 8);
    }

    #[test]
    fn set_width_nonzero() {
        assert_eq!(set_width(0), 1);
        assert_eq!(set_width(3), 3);
    }

    #[test]
    fn declare_matches_shape() {
        let ty = Type::option(Type::record("R", [("a", Type::Bool), ("b", Type::BitVec(8))]));
        let s = Sym::declare(0, &ty);
        match s {
            Sym::Option { payload, .. } => match *payload {
                Sym::Record { fields, .. } => assert_eq!(fields.len(), 2),
                other => panic!("expected record payload, got {other:?}"),
            },
            other => panic!("expected option, got {other:?}"),
        }
    }

    #[test]
    fn constant_roundtrip_via_solver() {
        use z3::{SatResult, Solver};
        let ty = Type::record("R", [("a", Type::Int), ("b", Type::Bool)]);
        let def = ty.record_def().unwrap();
        let v = Value::record(def, vec![Value::int(42), Value::Bool(true)]);
        let c = Sym::constant(&v).unwrap();
        let x = Sym::declare(0, &ty);
        let solver = Solver::new();
        solver.assert(x.eq(&c));
        assert_eq!(solver.check(), SatResult::Sat);
        let m = solver.get_model().unwrap();
        assert_eq!(x.decode(&m, &ty).unwrap(), v);
    }

    #[test]
    fn int_too_large_rejected() {
        let v = Value::Int(i128::from(i64::MAX) + 1);
        assert!(matches!(Sym::constant(&v), Err(SmtError::IntTooLarge(_))));
    }

    #[test]
    fn option_equality_ignores_absent_payload() {
        use z3::{SatResult, Solver};
        let ty = Type::option(Type::Int);
        let a = Sym::constant(&Value::none(Type::Int)).unwrap();
        // a None with a nonzero payload component should still equal None
        let weird = Sym::Option {
            is_some: Bool::from_bool(false),
            payload: Box::new(Sym::Int(Int::from_i64(99))),
        };
        let solver = Solver::new();
        solver.assert(a.eq(&weird).not());
        assert_eq!(solver.check(), SatResult::Unsat);
        let _ = ty;
    }

    #[test]
    fn well_formed_constrains_enums() {
        let ty = Type::enumeration("Origin", ["egp", "igp", "unknown"]);
        let s = Sym::declare(0, &ty);
        let mut constraints = Vec::new();
        s.well_formed(&mut constraints);
        assert_eq!(constraints.len(), 1);
        // power-of-two enums need no constraint
        let ty2 = Type::enumeration("Two", ["a", "b"]);
        let s2 = Sym::declare(1, &ty2);
        let mut c2 = Vec::new();
        s2.well_formed(&mut c2);
        assert!(c2.is_empty());
    }
}
