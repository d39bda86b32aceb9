//! Control plane simulation.
//!
//! Implements the network semantics `σ` of the paper (Fig. 11):
//!
//! * `σ(v)(0)    = I(v)`                                  — equation (3)
//! * `σ(v)(t+1)  = I(v) ⊕ ⨁_{u ∈ preds(v)} f_{uv}(σ(u)(t))` — equation (4)
//!
//! and its bounded-delay generalisation (§4, "Incorporating delay"), where
//! edge `u → v` may deliver a route up to `d` steps stale. There is one
//! simulator, over the expression-level [`timepiece_algebra::Network`] —
//! the `σ` the verifier's soundness theorem quantifies over:
//!
//! * [`simulate`] — the synchronous semantics. Policy-IR networks run the
//!   IR's value semantics directly; other networks are interpreted.
//! * [`simulate_interpreted`] — always interprets the terms, so the policy
//!   fast path can be differentially tested against it.
//! * [`simulate_delayed`] — a seeded bounded-delay execution through the
//!   same loop; with delay 0 it is [`simulate`].
//!
//! # Example
//!
//! ```
//! use timepiece_algebra::{MergeKey, NetworkBuilder, RoutePolicy, RouteSchema};
//! use timepiece_expr::{Env, Expr, Type};
//! use timepiece_sim::{simulate, simulate_delayed};
//! use timepiece_topology::gen;
//!
//! // hop count on an undirected path v0 - v1 - v2 - v3, v0 originates
//! let schema =
//!     RouteSchema::new("Hop", [("len".to_owned(), Type::Int)], [MergeKey::Lower("len".into())]);
//! let g = gen::undirected_path(4);
//! let dest = g.node_by_name("v0").unwrap();
//! let origin = Expr::record(schema.record_def(), vec![Expr::int(0)]).some();
//! let net = NetworkBuilder::from_schema(g, schema)
//!     .default_policy(RoutePolicy::new().increment("len"))
//!     .init(dest, origin)
//!     .build()?;
//! let trace = simulate(&net, &Env::new(), 16)?;
//! assert_eq!(trace.converged_at(), Some(3));
//! // up to two steps of message delay reach the same stable state
//! let delayed = simulate_delayed(&net, &Env::new(), 64, 2, 7)?;
//! assert_eq!(delayed.stable_state(), trace.stable_state());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod expr_sim;

pub use expr_sim::{simulate, simulate_delayed, simulate_interpreted, SimError, Trace};
