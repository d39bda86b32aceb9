//! The benchmark networks of the Timepiece paper (§2 and §6).
//!
//! Each module builds a ready-to-verify [`timepiece_core::Instance`] — a
//! [`timepiece_algebra::Network`], an interface and a property (both
//! [`timepiece_core::NodeAnnotations`]), re-exported here as
//! [`BenchInstance`] — for one of the paper's benchmarks:
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`example`]  | the §2 running example (Figs. 2–10), good/bad/ghost interfaces |
//! | [`bgp`]      | the eBGP route schema of Table 3 |
//! | [`reach`]    | `SpReach` / `ApReach` (Fig. 14a/e) |
//! | [`len`]      | `SpLen` / `ApLen` (Fig. 14b/f) |
//! | [`vf`]       | `SpVf` / `ApVf` — valley freedom (Fig. 13, Fig. 14c/g) |
//! | [`hijack`]   | `SpHijack` / `ApHijack` (Fig. 14d/h) |
//! | [`wan`]      | `BlockToExternal` on the synthetic Internet2 (§6) |
//! | [`ghost`]    | the ghost-state property encodings of Table 1 |
//!
//! The `Sp` variants route to a fixed destination edge node; the `Ap`
//! variants make the destination a *symbolic* node, so one check covers
//! all-pairs routing (§6).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ad;
pub mod bgp;
pub mod example;
pub mod fail;
pub mod fattree_common;
pub mod ghost;
pub mod hijack;
pub mod len;
pub mod med;
pub mod reach;
pub mod vf;
pub mod wan;

// the core instance types, under the names the benchmark harness uses
pub use timepiece_core::instance::{Instance as BenchInstance, PropertySpec};
