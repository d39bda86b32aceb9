//! Benchmark harness for regenerating the paper's tables and figures.
//!
//! The `repro` binary (`cargo run --release -p timepiece-bench --bin repro`)
//! drives sweeps over fattree sizes and prints the same rows/series the
//! paper reports: total modular time (`Tp`), median and 99th-percentile
//! node-check times, and the monolithic baseline (`Ms`) with its timeouts.
//! See `EXPERIMENTS.md` at the workspace root for the recorded comparison.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dist;
pub mod loc;
pub mod runner;
pub mod shard;

pub use dist::{run_row_distributed, shut_down, DistError, DistOptions, LocalFleet};
pub use runner::{
    fattree_instance, load_instance, register_scenario, register_scenario_file, run_row, BenchKind,
    EngineResult, InferSetup, InstanceSource, Row, RowBalance, ScenarioSpec, SweepOptions,
};
pub use shard::{merge_reports, MergeError, ShardReport};
