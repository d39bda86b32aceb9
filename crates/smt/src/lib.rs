//! Z3 backend for the Timepiece expression IR.
//!
//! This crate gives the IR of [`timepiece_expr`] its *symbolic* semantics: a
//! term is compiled to a structural symbolic value (records and options become
//! tuples of Z3 terms, mirroring the Zen encoding used by the paper), and
//! verification conditions are discharged by asking Z3 whether the negation of
//! a goal is satisfiable under assumptions.
//!
//! The compiled semantics agrees with the reference interpreter in
//! `timepiece_expr::eval`; the two backends are differentially tested against
//! each other in this crate's test suite.
//!
//! Z3 0.20 contexts are thread-local, so independent checks may run on
//! separate threads with zero shared state — this is what makes Timepiece's
//! modular checks embarrassingly parallel.
//!
//! The crate is mechanism: a [`SolverSession`] discharges a sequence of
//! conditions through one solver and one [`Encoder`] cache. How many sessions
//! exist and how long each lives is the checking engine's rule
//! (`timepiece_core::sweep`), not this crate's.
//!
//! # Example
//!
//! ```
//! use timepiece_expr::{Expr, Type};
//! use timepiece_smt::{check_validity, Validity, Vc};
//!
//! let x = Expr::var("x", Type::Int);
//! let vc = Vc::new(
//!     "nonneg-add",
//!     [x.clone().ge(Expr::int(0))],
//!     x.add(Expr::int(1)).ge(Expr::int(1)),
//! );
//! assert!(matches!(check_validity(&vc, None)?, Validity::Valid));
//! # Ok::<(), timepiece_smt::SmtError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod check;
pub mod encode;
pub mod error;
pub mod sym;

pub use check::{check_validity, CounterExample, SolverSession, Validity, Vc};
pub use encode::{Encoder, TermCacheStats};
pub use error::SmtError;
pub use sym::Sym;
pub use z3::InterruptHandle;
