//! The term language: s-expressions for [`Expr`], [`Type`] and
//! [`Temporal`], with a printer that round-trips through the parser.
//!
//! Scenario files embed three kinds of terms:
//!
//! * **types** — `bool`, `int`, `(bv 32)`, `(option T)`,
//!   `(enum Name v ...)`, `(record Name (f T) ...)`, `(set Name t ...)`, or
//!   a bare name resolved through the scenario's [`TypeEnv`];
//! * **expressions** — `(and ...)`, `(= a b)`, `(field route lp)`, …, with
//!   the keyword `route` standing for the route the predicate is applied to
//!   and `none-route` for the schema's absent route;
//! * **temporal operators** — `(globally P)`, `(until TAU P Q)`,
//!   `(finally TAU Q)`, `(and Q Q)`, `(or Q Q)`, `(not Q)`.
//!
//! Temporal predicates are closures in `timepiece-core`; the printer makes
//! them textual by applying them to a reserved placeholder variable and
//! printing the resulting term, and the parser rebuilds the closure by
//! substituting the actual route for the placeholder.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use timepiece_algebra::is_checker_bound;
use timepiece_core::Temporal;
use timepiece_expr::{substitute, Expr, ExprKind, InternId, Type, Value};

/// Why a term or a symbolic cannot be named `name`: the checker binds it
/// ([`is_checker_bound`]), so it would capture the scenario's variable.
pub(crate) fn reserved_name(name: &str) -> String {
    format!("{name:?} is a variable the checker binds (t, route-<node>, route@...); rename it")
}

/// The reserved variable name the printer applies temporal predicates to.
/// The interpunct keeps it out of the lexical space of scenario-file
/// identifiers, so user terms cannot capture it.
pub const ROUTE_VAR: &str = "·scenario-route";

/// Named types a scenario's terms may refer to.
#[derive(Debug, Clone, Default)]
pub struct TypeEnv {
    /// Named composite types (enum/record/set definitions by name).
    pub types: BTreeMap<String, Type>,
    /// The schema's route type (an option of the payload record), once
    /// known; enables `route` and `none-route`.
    pub route: Option<Type>,
}

impl TypeEnv {
    /// Registers a type under a name (and, recursively, the names of any
    /// composite types it contains).
    pub fn register(&mut self, ty: &Type) {
        match ty {
            Type::Bool | Type::BitVec(_) | Type::Int => {}
            ty if ty.is_option() => {
                if let Some(p) = ty.option_payload() {
                    self.register(p);
                }
            }
            ty => {
                if let Some(def) = ty.enum_def() {
                    self.types.insert(def.name().to_owned(), ty.clone());
                } else if let Some(def) = ty.set_def() {
                    self.types.insert(def.name().to_owned(), ty.clone());
                } else if let Some(def) = ty.record_def() {
                    self.types.insert(def.name().to_owned(), ty.clone());
                    for (_, fty) in def.fields() {
                        self.register(fty);
                    }
                }
            }
        }
    }

    /// The route's payload record type, when a route type is registered.
    pub fn payload(&self) -> Option<&Type> {
        self.route.as_ref().and_then(|r| r.option_payload())
    }
}

// ---------------------------------------------------------------------------
// S-expressions
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum SExp {
    Atom(String),
    List(Vec<SExp>),
}

impl SExp {
    fn atom(&self) -> Option<&str> {
        match self {
            SExp::Atom(s) => Some(s),
            SExp::List(_) => None,
        }
    }

    fn render(&self, out: &mut String) {
        match self {
            SExp::Atom(s) => out.push_str(s),
            SExp::List(items) => {
                out.push('(');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(' ');
                    }
                    item.render(out);
                }
                out.push(')');
            }
        }
    }
}

fn tokenize(src: &str) -> Result<Vec<String>, String> {
    let mut toks = Vec::new();
    let mut cur = String::new();
    for c in src.chars() {
        match c {
            '(' | ')' => {
                if !cur.is_empty() {
                    toks.push(std::mem::take(&mut cur));
                }
                toks.push(c.to_string());
            }
            c if c.is_whitespace() => {
                if !cur.is_empty() {
                    toks.push(std::mem::take(&mut cur));
                }
            }
            c => cur.push(c),
        }
    }
    if !cur.is_empty() {
        toks.push(cur);
    }
    if toks.is_empty() {
        return Err("empty term".to_owned());
    }
    Ok(toks)
}

fn parse_sexp(src: &str) -> Result<SExp, String> {
    let toks = tokenize(src)?;
    let mut pos = 0;
    let exp = parse_one(&toks, &mut pos)?;
    if pos != toks.len() {
        return Err(format!("trailing input after term: {:?}", toks[pos]));
    }
    Ok(exp)
}

fn parse_one(toks: &[String], pos: &mut usize) -> Result<SExp, String> {
    match toks.get(*pos).map(String::as_str) {
        None => Err("unexpected end of term".to_owned()),
        Some("(") => {
            *pos += 1;
            let mut items = Vec::new();
            loop {
                match toks.get(*pos).map(String::as_str) {
                    None => return Err("unclosed '('".to_owned()),
                    Some(")") => {
                        *pos += 1;
                        return Ok(SExp::List(items));
                    }
                    Some(_) => items.push(parse_one(toks, pos)?),
                }
            }
        }
        Some(")") => Err("unexpected ')'".to_owned()),
        Some(atom) => {
            *pos += 1;
            Ok(SExp::Atom(atom.to_owned()))
        }
    }
}

// ---------------------------------------------------------------------------
// Types
// ---------------------------------------------------------------------------

/// Parses a type term. Bare names resolve through `env`; structural forms
/// (`(enum Name v ...)` etc.) both define and denote the type.
pub fn parse_type(src: &str, env: &TypeEnv) -> Result<Type, String> {
    type_from_sexp(&parse_sexp(src)?, env)
}

fn type_from_sexp(exp: &SExp, env: &TypeEnv) -> Result<Type, String> {
    match exp {
        SExp::Atom(name) => match name.as_str() {
            "bool" => Ok(Type::Bool),
            "int" => Ok(Type::Int),
            "route" => env.route.clone().ok_or_else(|| "no route type in scope".to_owned()),
            other => env.types.get(other).cloned().ok_or_else(|| format!("unknown type {other:?}")),
        },
        SExp::List(items) => {
            let head = items
                .first()
                .and_then(SExp::atom)
                .ok_or_else(|| "a type starts with a keyword".to_owned())?;
            match head {
                "bv" => {
                    let [_, w] = items.as_slice() else {
                        return Err("(bv WIDTH) takes one argument".to_owned());
                    };
                    let w: u32 = w
                        .atom()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| "bad bitvector width".to_owned())?;
                    Ok(Type::BitVec(w))
                }
                "option" => {
                    let [_, payload] = items.as_slice() else {
                        return Err("(option T) takes one argument".to_owned());
                    };
                    Ok(Type::option(type_from_sexp(payload, env)?))
                }
                "enum" => {
                    let [_, name, variants @ ..] = items.as_slice() else {
                        return Err("(enum Name v ...) needs a name".to_owned());
                    };
                    let name = name.atom().ok_or_else(|| "enum name must be an atom".to_owned())?;
                    let variants: Vec<&str> = variants
                        .iter()
                        .map(|v| v.atom().ok_or_else(|| "enum variants are atoms".to_owned()))
                        .collect::<Result<_, _>>()?;
                    if variants.is_empty() {
                        return Err(format!("enum {name:?} needs at least one variant"));
                    }
                    Ok(Type::enumeration(name, variants))
                }
                "set" => {
                    let [_, name, tags @ ..] = items.as_slice() else {
                        return Err("(set Name t ...) needs a name".to_owned());
                    };
                    let name = name.atom().ok_or_else(|| "set name must be an atom".to_owned())?;
                    let tags: Vec<&str> = tags
                        .iter()
                        .map(|v| v.atom().ok_or_else(|| "set tags are atoms".to_owned()))
                        .collect::<Result<_, _>>()?;
                    Ok(Type::set(name, tags))
                }
                "record" => {
                    let [_, name, fields @ ..] = items.as_slice() else {
                        return Err("(record Name (f T) ...) needs a name".to_owned());
                    };
                    let name =
                        name.atom().ok_or_else(|| "record name must be an atom".to_owned())?;
                    let fields: Vec<(String, Type)> = fields
                        .iter()
                        .map(|f| match f {
                            SExp::List(pair) if pair.len() == 2 => {
                                let fname = pair[0]
                                    .atom()
                                    .ok_or_else(|| "field name must be an atom".to_owned())?;
                                Ok((fname.to_owned(), type_from_sexp(&pair[1], env)?))
                            }
                            _ => Err("record fields are (name TYPE) pairs".to_owned()),
                        })
                        .collect::<Result<_, _>>()?;
                    Ok(Type::record(name, fields))
                }
                other => Err(format!("unknown type constructor {other:?}")),
            }
        }
    }
}

/// Prints a type structurally (self-defining, parses without an
/// environment). Used where a type is *declared*.
pub fn type_decl(ty: &Type) -> String {
    let mut out = String::new();
    type_sexp(ty, true).render(&mut out);
    out
}

/// Prints a type as a reference: composite types appear by name (resolved
/// through the reader's [`TypeEnv`]).
pub fn type_ref(ty: &Type) -> String {
    let mut out = String::new();
    type_sexp(ty, false).render(&mut out);
    out
}

fn type_sexp(ty: &Type, structural: bool) -> SExp {
    match ty {
        Type::Bool => SExp::Atom("bool".to_owned()),
        Type::Int => SExp::Atom("int".to_owned()),
        Type::BitVec(w) => SExp::List(vec![SExp::Atom("bv".to_owned()), SExp::Atom(w.to_string())]),
        ty if ty.is_option() => SExp::List(vec![
            SExp::Atom("option".to_owned()),
            type_sexp(ty.option_payload().expect("option type"), structural),
        ]),
        ty => {
            if let Some(def) = ty.enum_def() {
                if !structural {
                    return SExp::Atom(def.name().to_owned());
                }
                let mut items =
                    vec![SExp::Atom("enum".to_owned()), SExp::Atom(def.name().to_owned())];
                items.extend(def.variants().iter().map(|v| SExp::Atom(v.clone())));
                SExp::List(items)
            } else if let Some(def) = ty.set_def() {
                if !structural {
                    return SExp::Atom(def.name().to_owned());
                }
                let mut items =
                    vec![SExp::Atom("set".to_owned()), SExp::Atom(def.name().to_owned())];
                items.extend(def.universe().iter().map(|t| SExp::Atom(t.clone())));
                SExp::List(items)
            } else if let Some(def) = ty.record_def() {
                if !structural {
                    return SExp::Atom(def.name().to_owned());
                }
                let mut items =
                    vec![SExp::Atom("record".to_owned()), SExp::Atom(def.name().to_owned())];
                items.extend(
                    def.fields().iter().map(|(f, fty)| {
                        SExp::List(vec![SExp::Atom(f.clone()), type_sexp(fty, true)])
                    }),
                );
                SExp::List(items)
            } else {
                unreachable!("every composite type carries a definition")
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Values (inside Const terms)
// ---------------------------------------------------------------------------

fn value_sexp(v: &Value) -> SExp {
    match v {
        Value::Bool(b) => SExp::Atom(b.to_string()),
        Value::Int(i) => SExp::Atom(i.to_string()),
        Value::BitVec { width, bits } => SExp::List(vec![
            SExp::Atom("bv".to_owned()),
            SExp::Atom(width.to_string()),
            SExp::Atom(bits.to_string()),
        ]),
        Value::Enum { def, index } => SExp::List(vec![
            SExp::Atom("enum".to_owned()),
            SExp::Atom(def.name().to_owned()),
            SExp::Atom(def.variants()[*index].clone()),
        ]),
        Value::Option { payload, value } => match value {
            None => SExp::List(vec![SExp::Atom("none".to_owned()), type_sexp(payload, false)]),
            Some(inner) => SExp::List(vec![SExp::Atom("some".to_owned()), value_sexp(inner)]),
        },
        Value::Record { def, fields } => {
            let mut items =
                vec![SExp::Atom("record".to_owned()), SExp::Atom(def.name().to_owned())];
            items.extend(fields.iter().map(value_sexp));
            SExp::List(items)
        }
        Value::Set { def, mask } => {
            let mut items = vec![SExp::Atom("set".to_owned()), SExp::Atom(def.name().to_owned())];
            items.extend(
                def.universe()
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, t)| SExp::Atom(t.clone())),
            );
            SExp::List(items)
        }
    }
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

/// Parses an expression term. `route` denotes the placeholder route
/// variable (requires `env.route`); composite names resolve through `env`.
pub fn parse_expr(src: &str, env: &TypeEnv) -> Result<Expr, String> {
    expr_from_sexp(&parse_sexp(src)?, env)
}

fn route_placeholder(env: &TypeEnv) -> Result<Expr, String> {
    let ty = env.route.clone().ok_or_else(|| "no route type in scope".to_owned())?;
    Ok(Expr::var(ROUTE_VAR, ty))
}

fn enum_value(env: &TypeEnv, name: &str, variant: &str) -> Result<Value, String> {
    let ty = env.types.get(name).ok_or_else(|| format!("unknown type {name:?}"))?;
    let def = ty.enum_def().ok_or_else(|| format!("{name:?} is not an enum"))?;
    if def.variant_index(variant).is_none() {
        return Err(format!("enum {name:?} has no variant {variant:?}"));
    }
    Ok(Value::enum_variant(def, variant))
}

fn expr_from_sexp(exp: &SExp, env: &TypeEnv) -> Result<Expr, String> {
    match exp {
        SExp::Atom(atom) => match atom.as_str() {
            "true" => Ok(Expr::bool(true)),
            "false" => Ok(Expr::bool(false)),
            "route" => route_placeholder(env),
            "none-route" => {
                let payload = env.payload().ok_or_else(|| "no route type in scope".to_owned())?;
                Ok(Expr::none(payload.clone()))
            }
            n if n.parse::<i128>().is_ok() => Ok(Expr::int(n.parse::<i128>().expect("checked"))),
            other => Err(format!("unknown atom {other:?} in expression")),
        },
        SExp::List(items) => {
            let head = items
                .first()
                .and_then(SExp::atom)
                .ok_or_else(|| "an expression starts with a keyword".to_owned())?;
            let args = &items[1..];
            let sub = |i: usize| expr_from_sexp(&args[i], env);
            let arity = |n: usize| -> Result<(), String> {
                if args.len() == n {
                    Ok(())
                } else {
                    Err(format!("({head} ...) takes {n} argument(s), got {}", args.len()))
                }
            };
            let tag_arg = |i: usize| -> Result<&str, String> {
                args[i].atom().ok_or_else(|| format!("({head} ...) expects an atom"))
            };
            match head {
                "bv" => {
                    arity(2)?;
                    let w: u32 =
                        tag_arg(0)?.parse().map_err(|_| "bad bitvector width".to_owned())?;
                    let bits: u64 =
                        tag_arg(1)?.parse().map_err(|_| "bad bitvector value".to_owned())?;
                    Ok(Expr::bv(bits, w))
                }
                "enum" => {
                    arity(2)?;
                    Ok(Expr::constant(enum_value(env, tag_arg(0)?, tag_arg(1)?)?))
                }
                "set" => {
                    let name = tag_arg(0)?;
                    let ty = env.types.get(name).ok_or_else(|| format!("unknown type {name:?}"))?;
                    let def = ty.set_def().ok_or_else(|| format!("{name:?} is not a set"))?;
                    let tags: Vec<&str> = args[1..]
                        .iter()
                        .map(|t| t.atom().ok_or_else(|| "set tags are atoms".to_owned()))
                        .collect::<Result<_, _>>()?;
                    for tag in &tags {
                        if def.tag_index(tag).is_none() {
                            return Err(format!("set {name:?} has no tag {tag:?}"));
                        }
                    }
                    Ok(Expr::constant(Value::set_of(def, tags)))
                }
                "record" => {
                    let name = tag_arg(0)?;
                    let ty = env.types.get(name).ok_or_else(|| format!("unknown type {name:?}"))?;
                    let def = ty.record_def().ok_or_else(|| format!("{name:?} is not a record"))?;
                    if args.len() - 1 != def.fields().len() {
                        return Err(format!(
                            "record {name:?} has {} fields, got {}",
                            def.fields().len(),
                            args.len() - 1
                        ));
                    }
                    let fields: Vec<Expr> = (1..args.len())
                        .map(|i| expr_from_sexp(&args[i], env))
                        .collect::<Result<_, _>>()?;
                    Ok(Expr::record(def, fields))
                }
                "rec" => {
                    // sugar: the schema's payload record
                    let payload =
                        env.payload().ok_or_else(|| "no route type in scope".to_owned())?;
                    let def = payload.record_def().expect("payload is a record");
                    if args.len() != def.fields().len() {
                        return Err(format!(
                            "the route record has {} fields, got {}",
                            def.fields().len(),
                            args.len()
                        ));
                    }
                    let fields: Vec<Expr> = (0..args.len()).map(sub).collect::<Result<_, _>>()?;
                    Ok(Expr::record(def, fields))
                }
                "none" => {
                    arity(1)?;
                    Ok(Expr::none(type_from_sexp(&args[0], env)?))
                }
                "some" => {
                    arity(1)?;
                    Ok(sub(0)?.some())
                }
                "is-some" => {
                    arity(1)?;
                    Ok(sub(0)?.is_some())
                }
                "get-some" => {
                    arity(1)?;
                    Ok(sub(0)?.get_some())
                }
                "not" => {
                    arity(1)?;
                    Ok(sub(0)?.not())
                }
                "and" => Ok(Expr::and_all(
                    args.iter().map(|a| expr_from_sexp(a, env)).collect::<Result<Vec<_>, _>>()?,
                )),
                "or" => {
                    Ok(Expr::or_all(args.iter().map(|a| expr_from_sexp(a, env)).collect::<Result<
                        Vec<_>,
                        _,
                    >>(
                    )?))
                }
                "=>" => {
                    arity(2)?;
                    Ok(sub(0)?.implies(sub(1)?))
                }
                "ite" => {
                    arity(3)?;
                    Ok(sub(0)?.ite(sub(1)?, sub(2)?))
                }
                "=" => {
                    arity(2)?;
                    Ok(sub(0)?.eq(sub(1)?))
                }
                "<" => {
                    arity(2)?;
                    Ok(sub(0)?.lt(sub(1)?))
                }
                "<=" => {
                    arity(2)?;
                    Ok(sub(0)?.le(sub(1)?))
                }
                "+" => {
                    arity(2)?;
                    Ok(sub(0)?.add(sub(1)?))
                }
                "-" => {
                    arity(2)?;
                    Ok(sub(0)?.sub(sub(1)?))
                }
                "field" => {
                    arity(2)?;
                    Ok(sub(0)?.field(tag_arg(1)?))
                }
                "with-field" => {
                    arity(3)?;
                    Ok(sub(0)?.with_field(tag_arg(1)?, sub(2)?))
                }
                "contains" => {
                    arity(2)?;
                    Ok(sub(0)?.contains(tag_arg(1)?))
                }
                "set-add" => {
                    arity(2)?;
                    Ok(sub(0)?.add_tag(tag_arg(1)?))
                }
                "set-remove" => {
                    arity(2)?;
                    Ok(sub(0)?.remove_tag(tag_arg(1)?))
                }
                "union" => {
                    arity(2)?;
                    Ok(sub(0)?.union(sub(1)?))
                }
                "inter" => {
                    arity(2)?;
                    Ok(sub(0)?.intersect(sub(1)?))
                }
                "var" => {
                    arity(2)?;
                    let name = tag_arg(0)?;
                    if is_checker_bound(name) {
                        return Err(reserved_name(name));
                    }
                    Ok(Expr::var(name, type_from_sexp(&args[1], env)?))
                }
                other => Err(format!("unknown operator {other:?}")),
            }
        }
    }
}

/// Prints an expression as a term the parser reads back. The placeholder
/// route variable prints as `route`.
pub fn expr_term(e: &Expr) -> String {
    let mut memo = HashMap::new();
    let mut out = String::new();
    expr_sexp(e, &mut memo).render(&mut out);
    out
}

fn expr_sexp(e: &Expr, memo: &mut HashMap<InternId, SExp>) -> SExp {
    if let Some(done) = memo.get(&e.node_id()) {
        return done.clone();
    }
    let op = |name: &str, args: Vec<SExp>| {
        let mut items = vec![SExp::Atom(name.to_owned())];
        items.extend(args);
        SExp::List(items)
    };
    let exp = match e.kind() {
        ExprKind::Var(name, ty) if name == ROUTE_VAR => {
            let _ = ty;
            SExp::Atom("route".to_owned())
        }
        ExprKind::Var(name, ty) => op("var", vec![SExp::Atom(name.clone()), type_sexp(ty, false)]),
        ExprKind::Const(v) => value_sexp(v),
        ExprKind::Not(a) => op("not", vec![expr_sexp(a, memo)]),
        ExprKind::And(vs) => op("and", vs.iter().map(|v| expr_sexp(v, memo)).collect()),
        ExprKind::Or(vs) => op("or", vs.iter().map(|v| expr_sexp(v, memo)).collect()),
        ExprKind::Implies(a, b) => op("=>", vec![expr_sexp(a, memo), expr_sexp(b, memo)]),
        ExprKind::Ite(c, t, f) => {
            op("ite", vec![expr_sexp(c, memo), expr_sexp(t, memo), expr_sexp(f, memo)])
        }
        ExprKind::Eq(a, b) => op("=", vec![expr_sexp(a, memo), expr_sexp(b, memo)]),
        ExprKind::Lt(a, b) => op("<", vec![expr_sexp(a, memo), expr_sexp(b, memo)]),
        ExprKind::Le(a, b) => op("<=", vec![expr_sexp(a, memo), expr_sexp(b, memo)]),
        ExprKind::Add(a, b) => op("+", vec![expr_sexp(a, memo), expr_sexp(b, memo)]),
        ExprKind::Sub(a, b) => op("-", vec![expr_sexp(a, memo), expr_sexp(b, memo)]),
        ExprKind::None(ty) => op("none", vec![type_sexp(ty, false)]),
        ExprKind::Some(a) => op("some", vec![expr_sexp(a, memo)]),
        ExprKind::IsSome(a) => op("is-some", vec![expr_sexp(a, memo)]),
        ExprKind::GetSome(a) => op("get-some", vec![expr_sexp(a, memo)]),
        ExprKind::MkRecord(def, fields) => {
            let mut items =
                vec![SExp::Atom("record".to_owned()), SExp::Atom(def.name().to_owned())];
            items.extend(fields.iter().map(|f| expr_sexp(f, memo)));
            SExp::List(items)
        }
        ExprKind::GetField(a, name) => {
            op("field", vec![expr_sexp(a, memo), SExp::Atom(name.clone())])
        }
        ExprKind::WithField(a, name, v) => {
            op("with-field", vec![expr_sexp(a, memo), SExp::Atom(name.clone()), expr_sexp(v, memo)])
        }
        ExprKind::SetContains(a, tag) => {
            op("contains", vec![expr_sexp(a, memo), SExp::Atom(tag.clone())])
        }
        ExprKind::SetAdd(a, tag) => {
            op("set-add", vec![expr_sexp(a, memo), SExp::Atom(tag.clone())])
        }
        ExprKind::SetRemove(a, tag) => {
            op("set-remove", vec![expr_sexp(a, memo), SExp::Atom(tag.clone())])
        }
        ExprKind::SetUnion(a, b) => op("union", vec![expr_sexp(a, memo), expr_sexp(b, memo)]),
        ExprKind::SetInter(a, b) => op("inter", vec![expr_sexp(a, memo), expr_sexp(b, memo)]),
    };
    memo.insert(e.node_id(), exp.clone());
    exp
}

// ---------------------------------------------------------------------------
// Temporal operators
// ---------------------------------------------------------------------------

/// Parses a temporal term; predicates close over the parsed body and
/// substitute the applied route for the `route` placeholder.
pub fn parse_temporal(src: &str, env: &TypeEnv) -> Result<Temporal, String> {
    temporal_from_sexp(&parse_sexp(src)?, env)
}

fn predicate_of(body: Expr) -> impl Fn(&Expr) -> Expr + Send + Sync + 'static {
    move |route: &Expr| substitute(&body, ROUTE_VAR, route)
}

fn temporal_from_sexp(exp: &SExp, env: &TypeEnv) -> Result<Temporal, String> {
    let SExp::List(items) = exp else {
        return Err("a temporal operator is a list like (globally P)".to_owned());
    };
    let head = items
        .first()
        .and_then(SExp::atom)
        .ok_or_else(|| "a temporal operator starts with a keyword".to_owned())?;
    let args = &items[1..];
    match (head, args) {
        ("globally", [p]) => Ok(Temporal::globally(predicate_of(expr_from_sexp(p, env)?))),
        ("until", [tau, p, q]) => Ok(Temporal::until(
            expr_from_sexp(tau, env)?,
            predicate_of(expr_from_sexp(p, env)?),
            temporal_from_sexp(q, env)?,
        )),
        ("finally", [tau, q]) => {
            Ok(Temporal::finally(expr_from_sexp(tau, env)?, temporal_from_sexp(q, env)?))
        }
        ("and", [a, b]) => Ok(temporal_from_sexp(a, env)?.and(temporal_from_sexp(b, env)?)),
        ("or", [a, b]) => Ok(temporal_from_sexp(a, env)?.or(temporal_from_sexp(b, env)?)),
        ("not", [a]) => Ok(temporal_from_sexp(a, env)?.not()),
        _ => Err(format!("unknown temporal form ({head} ...) with {} argument(s)", args.len())),
    }
}

/// Prints a temporal operator by applying its predicates to the route
/// placeholder of type `route_ty`.
pub fn temporal_term(q: &Temporal, route_ty: &Type) -> String {
    let route = Expr::var(ROUTE_VAR, route_ty.clone());
    let mut out = String::new();
    temporal_sexp(q, &route).render(&mut out);
    out
}

fn temporal_sexp(q: &Temporal, route: &Expr) -> SExp {
    let mut memo = HashMap::new();
    match q {
        Temporal::Globally(phi) => {
            SExp::List(vec![SExp::Atom("globally".to_owned()), expr_sexp(&phi(route), &mut memo)])
        }
        Temporal::Until(tau, phi, inner) => {
            let body = phi(route);
            // `finally` prints as its sugar when the hold-phase is trivial
            if body.as_const().map(|v| matches!(v, Value::Bool(true))).unwrap_or(false) {
                SExp::List(vec![
                    SExp::Atom("finally".to_owned()),
                    expr_sexp(tau, &mut memo),
                    temporal_sexp(inner, route),
                ])
            } else {
                SExp::List(vec![
                    SExp::Atom("until".to_owned()),
                    expr_sexp(tau, &mut memo),
                    expr_sexp(&body, &mut memo),
                    temporal_sexp(inner, route),
                ])
            }
        }
        Temporal::And(a, b) => SExp::List(vec![
            SExp::Atom("and".to_owned()),
            temporal_sexp(a, route),
            temporal_sexp(b, route),
        ]),
        Temporal::Or(a, b) => SExp::List(vec![
            SExp::Atom("or".to_owned()),
            temporal_sexp(a, route),
            temporal_sexp(b, route),
        ]),
        Temporal::Not(a) => SExp::List(vec![SExp::Atom("not".to_owned()), temporal_sexp(a, route)]),
    }
}

/// Wraps `body` as an `Arc`-wrapped route predicate (substituting the route
/// placeholder on application), for callers building [`Temporal`] variants
/// directly.
pub fn predicate(body: Expr) -> Arc<dyn Fn(&Expr) -> Expr + Send + Sync> {
    Arc::new(predicate_of(body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use timepiece_expr::Env;

    fn bgp_like_env() -> TypeEnv {
        let payload = Type::record(
            "r",
            vec![
                ("lp".to_owned(), Type::BitVec(32)),
                ("len".to_owned(), Type::Int),
                ("origin".to_owned(), Type::enumeration("Origin", ["igp", "egp"])),
                ("comms".to_owned(), Type::set("Comms", ["down", "bte"])),
            ],
        );
        let mut env = TypeEnv::default();
        env.register(&payload);
        env.route = Some(Type::option(payload));
        env
    }

    #[test]
    fn types_roundtrip() {
        let env = bgp_like_env();
        for src in [
            "bool",
            "int",
            "(bv 32)",
            "(option int)",
            "(enum Origin igp egp)",
            "(set Comms down bte)",
            "(record r (lp (bv 32)) (len int) (origin (enum Origin igp egp)) (set Comms down bte))",
        ] {
            // a structural type prints back to itself (after normalizing
            // through parse → print)
            if let Ok(ty) = parse_type(src, &env) {
                let printed = type_decl(&ty);
                let again = parse_type(&printed, &env).unwrap();
                assert_eq!(again, ty, "{src} → {printed}");
            }
        }
        // bare names resolve through the env
        assert!(parse_type("Origin", &env).unwrap().enum_def().is_some());
        assert!(parse_type("r", &env).unwrap().record_def().is_some());
        assert!(parse_type("nope", &env).is_err());
    }

    #[test]
    fn exprs_roundtrip_and_evaluate() {
        let env = bgp_like_env();
        let e = parse_expr("(ite (is-some route) (< (field (get-some route) len) 4) false)", &env)
            .unwrap();
        let text = expr_term(&e);
        let again = parse_expr(&text, &env).unwrap();
        assert_eq!(again, e, "{text}");
        assert!(text.contains("route"), "{text}");
    }

    #[test]
    fn rec_sugar_builds_the_payload_record() {
        let env = bgp_like_env();
        let e =
            parse_expr("(some (rec (bv 32 100) 0 (enum Origin igp) (set Comms)))", &env).unwrap();
        // the sugar expands to the payload record of the schema
        let ty = e.type_of().unwrap();
        assert_eq!(&ty, env.route.as_ref().unwrap(), "{e:?}");
        let text = expr_term(&e);
        assert_eq!(parse_expr(&text, &env).unwrap(), e, "{text}");
    }

    #[test]
    fn temporal_roundtrips_semantically() {
        let env = bgp_like_env();
        let q = parse_temporal("(finally 4 (globally (is-some route)))", &env).unwrap();
        let route_ty = env.route.clone().unwrap();
        let text = temporal_term(&q, &route_ty);
        let q2 = parse_temporal(&text, &env).unwrap();
        // compare by instantiation at a few times/routes
        let r = Expr::var("r", route_ty.clone());
        let t = Expr::var("t", Type::Int);
        let payload = env.payload().unwrap().clone();
        let mut environment = Env::new();
        for time in [0i64, 3, 4, 10] {
            for route in [Value::none(payload.clone()), Value::default_of(&route_ty)] {
                environment.bind("t", Value::int(time));
                environment.bind("r", route);
                let a = q.at(&t, &r).eval_bool(&environment).unwrap();
                let b = q2.at(&t, &r).eval_bool(&environment).unwrap();
                assert_eq!(a, b, "time {time}: {text}");
            }
        }
    }

    #[test]
    fn substitute_replaces_the_placeholder() {
        let env = bgp_like_env();
        let body = parse_expr("(is-some route)", &env).unwrap();
        let replaced = substitute(&body, ROUTE_VAR, &Expr::none(env.payload().unwrap().clone()));
        assert_eq!(replaced.as_const(), Some(&Value::Bool(false)));
    }

    #[test]
    fn parse_errors_are_descriptive() {
        let env = bgp_like_env();
        assert!(parse_expr("(frob 1)", &env).unwrap_err().contains("unknown operator"));
        assert!(parse_expr("(and (or", &env).unwrap_err().contains("unclosed"));
        assert!(parse_expr("(enum Origin nope)", &env).unwrap_err().contains("no variant"));
        assert!(parse_temporal("route", &env).unwrap_err().contains("temporal"));
    }
}
