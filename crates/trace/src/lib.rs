//! `timepiece-trace`: observability for the verification pipeline.
//!
//! The paper's headline claim is about *where time goes* — modular per-node
//! checks stay flat while the monolithic encoding blows up — and tuning the
//! scheduler, the arena or the solver sessions needs the same evidence at
//! finer grain. This crate is the measurement layer every other crate
//! instruments against:
//!
//! * [`mod@span`] — low-overhead structured spans: per-thread append-only
//!   buffers (mirroring the scheduler's per-worker deques; no global lock on
//!   the hot path), parent links for self-time attribution and instant
//!   events. Off by default: a disabled call site costs one relaxed atomic
//!   load.
//! * [`mod@metrics`] — a static registry of counters and log-bucketed
//!   histograms (subsuming `TimingStats` for streaming use), updated with
//!   relaxed atomics through cached handles.
//! * [`mod@json`] — the workspace's hand-rolled JSON codec (moved here from
//!   `timepiece-sched`, which re-exports it): the daemon's wire format and
//!   the exporters' output.
//! * [`mod@export`] — Chrome trace-event output for Perfetto /
//!   `chrome://tracing` (one track per worker thread).
//! * [`mod@profile`] — per-phase self-time breakdown (encode / solve /
//!   steal-idle / intern / other), per-node-class rollups and slowest-node
//!   attribution; what `repro profile` prints.
//!
//! # Example
//!
//! ```
//! use timepiece_trace as trace;
//!
//! trace::enable();
//! {
//!     let mut node = trace::span(trace::Phase::Node, "edge-0");
//!     node.arg("class", "edge");
//!     let _solve = trace::span(trace::Phase::Solve, "edge-0/inductive");
//! }
//! let collected = trace::take();
//! assert_eq!(collected.spans.len(), 2);
//! let doc = trace::chrome_trace(&collected);
//! assert!(doc.get("traceEvents").is_some());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod export;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod span;

pub use export::{chrome_trace, metrics_json};
pub use json::{Json, JsonError};
pub use metrics::{counter, histogram, Counter, Histogram, MetricValue};
pub use profile::{ClassRow, NodeRow, Profile};
pub use span::{
    disable, enable, enabled, instant, now_ns, set_thread_label, span, take, Phase, SpanGuard,
    SpanKind, SpanRecord, ThreadInfo, Trace,
};
