//! `timepiece-sched`: the verification-scheduling subsystem.
//!
//! The paper's headline observation is that modular checking turns control
//! plane verification into an embarrassingly parallel pile of per-node
//! verification conditions. This crate is the machinery that drains that
//! pile well, inside one process:
//!
//! * **Across cores** — [`Pool`] over a per-job [`StealQueue`]:
//!   persistent worker threads, per-worker deques with batched steal-half
//!   instead of a contended global counter. Each worker owns private state
//!   built once per pool (the checker puts its long-lived solver sessions
//!   there), so consecutive tasks *and consecutive jobs* on a worker share
//!   encoder caches and solver contexts. A pool dropped after one job is
//!   the one-shot check; there is one engine, not two.
//! * **Across a failure** — [`CancelToken`]: cooperative fail-fast
//!   cancellation whose hooks also *interrupt* in-flight solver calls, so a
//!   discovered violation stops the workers in interrupt latency, not in
//!   time-to-finish-the-longest-solve.
//!
//! There is no cross-process scheduling: the paper's largest runs are one
//! machine, and on the machines measured here a pool of threads checks a
//! network at least as fast as a fleet of processes did
//! (EXPERIMENTS.md "PR 37").
//!
//! The scheduler is deliberately independent of SMT types: tasks are any
//! `Send` values, per-worker state is any type, and cancellation hooks are
//! plain closures. `timepiece-core`'s `CheckerPool` plugs its sessions and
//! conditions into a [`Job`].
//!
//! # Example
//!
//! Drain a workload on four workers with per-worker state:
//!
//! ```
//! use timepiece_sched::{CancelToken, Job, Pool};
//!
//! /// Doubles each task; a worker's state counts what it processed.
//! struct Double;
//!
//! impl Job for Double {
//!     type State = u32;
//!     type Task = u32;
//!     type Output = u32;
//!     type Error = std::convert::Infallible;
//!     fn run(
//!         &self,
//!         processed: &mut u32,
//!         task: u32,
//!         _: &CancelToken,
//!     ) -> Result<Option<u32>, Self::Error> {
//!         *processed += 1;
//!         Ok(Some(2 * task))
//!     }
//! }
//!
//! let mut pool = Pool::new(4, |_worker| 0);
//! let outcome = pool.run((0..64).collect(), &CancelToken::new(), Double).unwrap();
//! assert_eq!(outcome.results.len(), 64);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cancel;
pub mod pool;
pub mod queue;

/// The workspace's hand-rolled JSON codec, which lives at the bottom of the
/// crate stack (`timepiece-trace`, which exports traces through it);
/// re-exported here so call sites keep their `timepiece_sched::json` paths.
pub use timepiece_trace::json;

pub use cancel::CancelToken;
pub use json::{Json, JsonError};
pub use pool::{Job, Pool, PoolError, SchedOutcome, SchedStats};
pub use queue::StealQueue;
