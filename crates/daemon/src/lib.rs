//! `timepieced`: verification as a service with incremental dirty-cone
//! re-checking — and the one NDJSON server of the workspace.
//!
//! Modular verification (Algorithm 1) already pays for this crate's premise:
//! each node's three conditions depend on a bounded slice of the network, so
//! an *edit* — a policy change, a link failure, a new witness time, a new
//! failure budget — invalidates a bounded **cone** of nodes. A daemon that
//! keeps the compiled network, the solver sessions and, per node, the key
//! it was last checked on with its proof warm can answer "is the network
//! still correct after this edit?" by re-checking only that cone, orders of
//! magnitude faster than a cold run — and a node whose conditions some
//! record already proved is answered by that proof.
//!
//! A client can also ask for any node list — *check these nodes of this
//! instance* — the same request as a delta with no edit. A daemon may
//! start with nothing loaded, and a client's `load` installs the instance.
//!
//! The pieces:
//!
//! * [`mod@protocol`] — the NDJSON wire protocol: `load`, `check`, `delta`,
//!   `status`, `profile`, `shutdown`, and the server's `progress` heartbeat
//!   (framing via [`timepiece_trace::json`]);
//! * [`mod@state`] — [`DaemonState`]: the persistent
//!   [`timepiece_core::sweep::CheckerPool`] and the [`Loaded`] instance —
//!   one [`timepiece_core::Instance`] the pool's workers share and one
//!   [`timepiece_core::sweep::Record`] per node; every checking request =
//!   one pool job over its edit's footprint and the nodes it covers without
//!   a definite record, its memo seeded by the records → keep the answers
//!   as the nodes' records (a `check` of settled nodes proves nothing);
//! * [`mod@server`] — the TCP accept/state/connection threads, `progress`
//!   heartbeats while a reply is pending, graceful drain on `shutdown` or
//!   SIGTERM (in-flight solver calls are interrupted through
//!   [`timepiece_sched::CancelToken`] hooks);
//! * [`mod@client`] — a minimal blocking client, used by `repro ask` and
//!   tpbench's `serve-edits` workload;
//! * [`mod@fixture`] — small self-contained instances for tests and smoke
//!   runs.
//!
//! # Example
//!
//! Drive the state machine in process (the TCP server runs the same code):
//!
//! ```
//! use timepiece_core::check::CheckOptions;
//! use timepiece_daemon::fixture::hop_path;
//! use timepiece_daemon::{DaemonState, Delta, Request};
//! use timepiece_trace::Json;
//!
//! let options = CheckOptions { threads: Some(2), ..Default::default() };
//! let mut state = DaemonState::new("hop n=4", hop_path(4, None), options)?;
//! assert!(state.all_verified());
//!
//! let down = Request::Delta(Delta::LinkDown { u: "v2".into(), v: "v3".into() });
//! let reply = state.handle(&down).reply;
//! let cone = reply.get("cone_size").and_then(Json::as_f64).unwrap() as usize;
//! assert!(cone < state.nodes(), "a delta re-checks a strict subset");
//! assert!(!state.all_verified(), "v3 lost its only route");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod fixture;
pub mod protocol;
pub mod server;
pub mod state;

pub use client::Client;
pub use protocol::{
    error_response, Delta, Load, LoadSource, NodeCheck, PolicySpec, ProtocolError, Request,
    PROTOCOL_VERSION,
};
pub use server::{serve, spawn_sigterm_watcher, trigger_sigterm};
pub use state::{DaemonState, DrainSignal, Handled, Loaded, Loader};
