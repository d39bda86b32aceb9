//! Timepiece: modular control plane verification via temporal invariants.
//!
//! This crate is the Rust reproduction of the paper's contribution (§3–§5):
//!
//! * [`temporal`] — the language of temporal operators `G(φ)`, `φ U^τ Q`,
//!   `F^τ(Q)` with lifted intersection/union/negation (Fig. 12), including
//!   *symbolic* witness times (needed for all-pairs benchmarks);
//! * [`interface`] — per-node annotations: interfaces `A` and properties `P`;
//! * [`instance`] — the instance `(N, A, P)` every checker takes;
//! * [`vc`] — the three verification conditions: initial (5), inductive (6)
//!   and safety (7), plus the bounded-delay variant of the inductive
//!   condition (§4);
//! * [`check`] — the modular checking procedure (Algorithm 1): every node's
//!   conditions are discharged independently and in parallel, with per-node
//!   timing statistics;
//! * [`monolithic`] — the Minesweeper-style baseline `Ms`: a single
//!   network-wide stable-state formula with the temporal detail erased;
//! * [`strawperson`] — the *unsound* stable-state modular procedure of §2.2,
//!   kept as an executable demonstration of why the temporal model is needed.
//!
//! # Quickstart
//!
//! Prove that the second node of a two-node network eventually receives the
//! first node's route:
//!
//! ```
//! use timepiece_algebra::NetworkBuilder;
//! use timepiece_core::check::{CheckOptions, ModularChecker};
//! use timepiece_core::interface::NodeAnnotations;
//! use timepiece_core::temporal::Temporal;
//! use timepiece_expr::{Expr, Type};
//! use timepiece_topology::gen;
//!
//! let g = gen::path(2);
//! let (v0, v1) = (g.node_by_name("v0").unwrap(), g.node_by_name("v1").unwrap());
//! let net = NetworkBuilder::new(g, Type::Bool)
//!     .merge(|a, b| a.clone().or(b.clone()))
//!     .default_transfer(|r| r.clone())
//!     .init(v0, Expr::bool(true))
//!     .build()?;
//!
//! // interface: v0 always has the route; v1 has it from time 1 on
//! let mut interface = NodeAnnotations::new(net.topology(), Temporal::globally(|r| r.clone()));
//! interface.set(v1, Temporal::finally(Expr::int(1), Temporal::globally(|r| r.clone())));
//! let property = interface.clone();
//!
//! let report = ModularChecker::new(CheckOptions::default()).check(&net, &interface, &property)?;
//! assert!(report.is_verified());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod check;
pub mod error;
pub mod incremental;
pub mod instance;
pub mod interface;
pub mod monolithic;
pub mod stats;
pub mod strawperson;
pub mod sweep;
pub mod temporal;
pub mod vc;

pub use check::{CheckOptions, CheckReport, Failure, MemoStats, ModularChecker};
pub use error::CoreError;
pub use incremental::Fingerprints;
pub use instance::{Instance, PropertySpec};
pub use interface::NodeAnnotations;
pub use temporal::Temporal;
pub use vc::VcKind;
