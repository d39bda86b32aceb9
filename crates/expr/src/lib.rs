//! A small typed expression IR for modelling network routes and policies.
//!
//! This crate is the modelling substrate of the Timepiece reproduction: routing
//! state (routes), policy functions (transfer, merge) and logical interfaces
//! are all represented as [`Expr`] terms over a small type system ([`Type`]).
//!
//! The same term is given meaning twice:
//!
//! * **concretely**, by the interpreter in [`eval`], which drives the network
//!   simulator, and
//! * **symbolically**, by the Z3 compiler in the `timepiece-smt` crate, which
//!   drives the verifier.
//!
//! Because both backends consume the identical term, the simulator and the
//! verifier cannot disagree about the semantics of a policy.
//!
//! # Example
//!
//! ```
//! use timepiece_expr::{Expr, Type, Value, eval::Env};
//!
//! // a route is an optional record with a local preference and a path length
//! let route_ty = Type::option(Type::record(
//!     "Route",
//!     [("lp", Type::BitVec(32)), ("len", Type::Int)],
//! ));
//! let r = Expr::var("r", route_ty.clone());
//!
//! // "if a route is present, its path length is at most 4"
//! let better = r.clone().get_some().field("len").le(Expr::int(4));
//! let phi = r.is_some().implies(better);
//!
//! let mut env = Env::new();
//! env.bind("r", Value::none(route_ty.option_payload().unwrap().clone()));
//! assert_eq!(phi.eval(&env).unwrap(), Value::Bool(true));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arena;
pub mod error;
pub mod eval;
pub mod expr;
pub mod subst;
pub mod typecheck;
pub mod types;
pub mod value;

mod display;

pub use arena::{ArenaStats, InternId};
pub use error::{EvalError, TypeError};
pub use eval::Env;
pub use expr::{Expr, ExprKind};
pub use subst::substitute;
pub use types::{EnumDef, RecordDef, SetDef, Type};
pub use value::Value;
