//! # Timepiece (Rust reproduction)
//!
//! Modular control plane verification via temporal invariants — a Rust
//! reproduction of the PLDI 2023 paper by Alberdingk Thijm, Beckett, Gupta and
//! Walker.
//!
//! This facade crate re-exports the public API of the workspace:
//!
//! * [`expr`] — the typed expression IR used to model routes and policies.
//! * [`smt`] — the Z3 backend: validity checking and counterexamples.
//! * [`topology`] — network graphs and generators (fattrees, WANs, …).
//! * [`algebra`] — routing algebras (S, I, F, ⊕) as expression-level
//!   networks, and the declarative route-policy IR they are built from.
//! * [`sim`] — the network simulator: synchronous and bounded-delay runs.
//! * [`sched`] — verification scheduling: work-stealing execution and
//!   cooperative cancellation with solver interrupts.
//! * [`core`] — temporal invariants, verification conditions, the modular
//!   checker, and the monolithic (Minesweeper-style) baseline.
//! * [`infer`] — simulation-guided inference of temporal interfaces with
//!   counterexample-guided (CEGIS-style) repair.
//! * [`nets`] — the paper's benchmark networks and the §2 running example.
//!
//! # Quickstart
//!
//! Verify that every node of a small fattree eventually obtains a route to a
//! destination (the paper's `SpReach` benchmark):
//!
//! ```
//! use timepiece::nets::reach::ReachBench;
//! use timepiece::core::check::{CheckOptions, ModularChecker};
//!
//! let bench = ReachBench::single_dest(4, 0); // k=4 fattree, dest = first edge node
//! let inst = bench.build();
//! let report = ModularChecker::new(CheckOptions::default())
//!     .check(&inst.network, &inst.interface, &inst.property)
//!     .expect("verification should run");
//! assert!(report.is_verified());
//! ```

pub use timepiece_algebra as algebra;
pub use timepiece_core as core;
pub use timepiece_expr as expr;
pub use timepiece_infer as infer;
pub use timepiece_nets as nets;
pub use timepiece_sched as sched;
pub use timepiece_sim as sim;
pub use timepiece_smt as smt;
pub use timepiece_topology as topology;
