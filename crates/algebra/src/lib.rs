//! Routing algebras for the Timepiece reproduction.
//!
//! A routing algebra (Griffin & Sobrinho's metarouting, as used by the paper's
//! §2.1 model) is a tuple `(S, I, F, ⊕)`: a set of routes, initial routes per
//! node, per-edge transfer functions, and a merge (selection) function.
//!
//! This crate has one representation of it, the [`Network`]: routes are
//! terms of the `timepiece-expr` IR and the functions build terms, so one
//! definition drives both the reference simulator (by interpretation) and the
//! SMT verifier (by compilation). Networks built from the declarative
//! [`policy`] IR — a [`RouteSchema`] whose [`MergeKey`]s spell out `⊕`, and a
//! [`RoutePolicy`] per edge — also execute directly on values
//! ([`RouteSchema::merge_value`], [`RoutePolicy::apply`]), the simulator's
//! fast path.
//!
//! # Example
//!
//! ```
//! use timepiece_algebra::{MergeKey, RoutePolicy, RouteSchema};
//! use timepiece_expr::{Env, Type, Value};
//!
//! // hop count: one integer field, the shorter route wins
//! let schema =
//!     RouteSchema::new("Hop", [("len".to_owned(), Type::Int)], [MergeKey::Lower("len".into())]);
//! let hop = |n: i64| Value::some(Value::record(schema.record_def(), vec![Value::int(n)]));
//! let env = Env::new();
//! let sent = RoutePolicy::new().increment("len").apply(&schema, &hop(0), &env)?;
//! assert_eq!(sent, hop(1));
//! assert_eq!(schema.merge_value(&hop(3), &sent, &env)?, hop(1));
//! assert_eq!(schema.merge_value(&schema.none_value(), &sent, &env)?, hop(1));
//! # Ok::<(), timepiece_algebra::PolicyError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod network;
pub mod policy;
pub mod policy_text;

pub use network::{is_checker_bound, Network, NetworkBuilder, NetworkPolicies, Symbolic, TIME_VAR};
pub use policy::{
    ClauseAction, FailureModel, MergeKey, PolicyClause, PolicyError, RewriteOp, RouteGuard,
    RoutePolicy, RouteSchema,
};
