//! A checker worker that panics costs the request it panicked in, never
//! the daemon: the pool replaces its workers, and the next instance is
//! checked as if nothing had happened.

use timepiece_core::check::CheckOptions;
use timepiece_core::{Instance, Temporal};
use timepiece_daemon::fixture::hop_path;
use timepiece_daemon::{DaemonState, Load, LoadSource, Request, PROTOCOL_VERSION};
use timepiece_trace::Json;

/// `exploding` is `hop_path(4)` whose property closure panics at `v2`;
/// `hop_path` is the plain fixture.
fn loader(source: &LoadSource) -> Result<(String, Instance), String> {
    match source {
        LoadSource::Bench { name, k: 4 } if name == "exploding" => {
            let mut instance = hop_path(4, None);
            let v2 = instance.network.topology().node_by_name("v2").unwrap();
            instance.property.set(v2, Temporal::globally(|_| panic!("property closure exploded")));
            Ok(("exploding".to_owned(), instance))
        }
        LoadSource::Bench { name, k: 4 } if name == "hop_path" => {
            Ok(("hop_path".to_owned(), hop_path(4, None)))
        }
        other => Err(format!("this test loads two instances of 4 nodes, not {other:?}")),
    }
}

fn load(name: &str) -> Request {
    Request::Load(Load {
        version: PROTOCOL_VERSION,
        source: LoadSource::Bench { name: name.to_owned(), k: 4 },
        sabotage: Vec::new(),
        threads: None,
        timeout_millis: None,
        trace: false,
    })
}

fn ok(reply: &Json) -> bool {
    reply.get("ok").and_then(Json::as_bool).unwrap_or_else(|| panic!("{reply}"))
}

#[test]
fn a_worker_panic_fails_its_request_and_the_next_load_checks_on_new_workers() {
    let options = CheckOptions { threads: Some(2), ..CheckOptions::default() };
    let mut state = DaemonState::empty(options).with_loader(loader);
    assert!(ok(&state.handle(&load("exploding")).reply));
    let reply = state.handle(&Request::Check).reply;
    assert!(!ok(&reply), "{reply}");
    let error = reply.get("error").and_then(Json::as_str).unwrap();
    assert!(error.contains("panicked"), "{reply}");
    // same threads, same timeout: the load keeps the pool it has
    assert!(ok(&state.handle(&load("hop_path")).reply));
    let reply = state.handle(&Request::Check).reply;
    assert!(ok(&reply), "{reply}");
    assert_eq!(reply.get("verified").and_then(Json::as_bool), Some(true), "{reply}");
    let status = state.handle(&Request::Status).reply;
    assert_eq!(status.get("verified").and_then(Json::as_bool), Some(true), "{status}");
    let count = |key: &str| status.get(key).and_then(Json::as_usize).unwrap();
    assert!(0 < count("sessions") && count("sessions") <= count("workers"), "{status}");
}
