//! Declarative scenario frontend for the Timepiece reproduction.
//!
//! A *scenario file* is a TOML document describing a verification problem —
//! topology, route schema with lexicographic merge keys, per-edge policies,
//! initial routes, temporal property, and either an explicit temporal
//! interface or `infer = true` — that compiles down to the exact same
//! [`timepiece_algebra::Network`] / annotation machinery the built-in
//! benchmarks use, so compiled scenarios run unmodified through sweeps, the
//! daemon and inference.
//!
//! The crate has four layers:
//!
//! - [`toml`] — a span-tracking parser for the TOML subset scenarios use;
//!   every error carries a line and column.
//! - [`term`] — the s-expression term language for types, route
//!   expressions and temporal formulas (`(until 4 (is-some route) ...)`),
//!   with a printer that inverts the parser.
//! - [`compile`] / [`export`] — document → [`compile::CompiledScenario`]
//!   and instance → document. Round-trips are semantic: terms are printed
//!   from the interned expression graph.
//! - [`fuzz`] — a generative differential fuzzer pitting the policy IR's
//!   three evaluators (value-level simulation, term-level interpretation,
//!   Z3) against each other, with hand-rolled shrinking to a minimal
//!   replayable scenario file.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod compile;
pub mod export;
pub mod fuzz;
pub mod term;
pub mod toml;

pub use compile::{closing_env, compile_file, compile_str, CompiledScenario, ScenarioError};
pub use export::export_instance;
pub use fuzz::{run_fuzz, FuzzOptions, FuzzReport, Sabotage};
