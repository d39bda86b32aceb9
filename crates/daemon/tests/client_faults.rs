//! The fault model of the one server, from its client's side: what a client
//! can do to a `timepieced` — the table below — is answered by a typed error
//! frame, and the daemon serves the next client. The daemon runs in
//! process, on an ephemeral loopback port.

use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;

use timepiece_core::check::CheckOptions;
use timepiece_core::Instance;
use timepiece_daemon::{
    serve, Client, DaemonState, Delta, Load, LoadSource, NodeCheck, Request, PROTOCOL_VERSION,
};
use timepiece_nets::reach::ReachBench;
use timepiece_trace::json::{read_line_value, write_line_value, MAX_LINE_BYTES};
use timepiece_trace::Json;

/// What a `repro` process hands its daemon, cut down to SpReach, with the
/// refusals `repro`'s loader gives for everything else. Scenario text is
/// refused whole: this crate has no scenario compiler.
fn loader(source: &LoadSource) -> Result<(String, Instance), String> {
    match source {
        LoadSource::Bench { name, k } if name == "SpReach" => {
            if *k < 2 || k % 2 != 0 {
                return Err(format!("fattree parameter k must be even and >= 2, got {k}"));
            }
            Ok((format!("SpReach k={k}"), ReachBench::single_dest(*k, 0).build()))
        }
        LoadSource::Bench { name, .. } => Err(format!("unknown benchmark {name:?}")),
        LoadSource::Scenario(_) => {
            Err("the scenario text does not compile: this loader compiles none".to_owned())
        }
    }
}

/// A daemon with nothing loaded, serving on a loopback port until a
/// `shutdown` drains it.
fn spawn_daemon() -> (String, JoinHandle<std::io::Result<()>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap().to_string();
    let state = DaemonState::empty(CheckOptions::default()).with_loader(loader);
    (addr, std::thread::spawn(move || serve(listener, state)))
}

fn load(source: LoadSource) -> Load {
    Load {
        version: PROTOCOL_VERSION,
        source,
        sabotage: Vec::new(),
        threads: Some(1),
        timeout_millis: None,
    }
}

fn spreach_k4() -> Request {
    Request::Load(load(LoadSource::Bench { name: "SpReach".into(), k: 4 }))
}

fn nodes(names: &[&str], generation: Option<u64>) -> Request {
    let nodes = names.iter().map(|&n| n.to_owned()).collect();
    Request::CheckNodes(NodeCheck { nodes, generation })
}

/// The `error` of a reply that must be a refusal.
fn refusal(reply: Json) -> String {
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false), "{reply}");
    reply.get("error").and_then(Json::as_str).expect("a refusal says why").to_owned()
}

fn accepted(reply: Json) -> Json {
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true), "{reply}");
    reply
}

/// Writes raw bytes as a client would, and reads the one frame the daemon
/// answers before it closes the poisoned stream.
fn raw_exchange(addr: &str, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(bytes).unwrap();
    let mut reader = BufReader::new(stream);
    let reply = read_line_value(&mut reader, MAX_LINE_BYTES).unwrap().expect("one error frame");
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "the daemon closes a stream it cannot frame");
    refusal(reply)
}

/// One cell of the fault table: what a client does to the daemon at the
/// address, returning the typed refusal it got.
type Cell = fn(&str) -> String;

const CLIENT_FAULTS: &[(&str, &str, Cell)] = &[
    ("a garbage frame", "JSON", |addr| raw_exchange(addr, b"%% not a frame %%\n")),
    ("a frame over MAX_LINE_BYTES", "exceeds", |addr| {
        // no newline: the byte that breaks the limit is the last one sent,
        // so the daemon has nothing unread when it closes (no RST)
        raw_exchange(addr, &vec![b'x'; MAX_LINE_BYTES + 1])
    }),
    ("check before any load", "nothing is loaded", |addr| {
        refusal(Client::connect(addr).unwrap().send(&Request::Check).unwrap())
    }),
    ("node-list check before any load", "nothing is loaded", |addr| {
        refusal(Client::connect(addr).unwrap().send(&nodes(&["core-0"], None)).unwrap())
    }),
    ("delta before any load", "nothing is loaded", |addr| {
        let down = Request::Delta(Delta::LinkDown { u: "edge-0-0".into(), v: "agg-0-0".into() });
        refusal(Client::connect(addr).unwrap().send(&down).unwrap())
    }),
    ("load with the wrong version", "protocol version 3", |addr| {
        // what a client of the version-3 frames would send: refused by
        // version before anything is built
        let old = Load { version: 3, ..load(LoadSource::Bench { name: "SpReach".into(), k: 4 }) };
        refusal(Client::connect(addr).unwrap().send(&Request::Load(old)).unwrap())
    }),
    ("load of an unknown benchmark", "unknown benchmark", |addr| {
        let source = LoadSource::Bench { name: "NoSuch".into(), k: 4 };
        refusal(Client::connect(addr).unwrap().send(&Request::Load(load(source))).unwrap())
    }),
    ("load of a fattree no k gives", "even and >= 2", |addr| {
        let source = LoadSource::Bench { name: "SpReach".into(), k: 5 };
        refusal(Client::connect(addr).unwrap().send(&Request::Load(load(source))).unwrap())
    }),
    ("scenario text that does not compile", "does not compile", |addr| {
        let text = "[scenario]\nname = \"half a file\"\n[topology";
        let source = LoadSource::Scenario(text.into());
        refusal(Client::connect(addr).unwrap().send(&Request::Load(load(source))).unwrap())
    }),
    ("sabotage of an unknown node", "no node named \"no-such-node\"", |addr| {
        let source = LoadSource::Bench { name: "SpReach".into(), k: 4 };
        let bad = Load { sabotage: vec!["no-such-node".into()], ..load(source) };
        refusal(Client::connect(addr).unwrap().send(&Request::Load(bad)).unwrap())
    }),
    ("an unknown node in nodes", "no node named \"no-such-node\"", |addr| {
        let mut client = Client::connect(addr).unwrap();
        accepted(client.send(&spreach_k4()).unwrap());
        refusal(client.send(&nodes(&["core-0", "no-such-node"], None)).unwrap())
    }),
    ("a node named twice in nodes", "node \"core-0\" is named twice", |addr| {
        let mut client = Client::connect(addr).unwrap();
        accepted(client.send(&spreach_k4()).unwrap());
        refusal(client.send(&nodes(&["core-0", "edge-0-0", "core-0"], None)).unwrap())
    }),
    ("a stale generation after a second client's load", "stale generation", |addr| {
        let (mut first, mut second) =
            (Client::connect(addr).unwrap(), Client::connect(addr).unwrap());
        let generation = |reply: Json| reply.get("generation").and_then(Json::as_usize).unwrap();
        let mine = generation(accepted(first.send(&spreach_k4()).unwrap())) as u64;
        accepted(first.send(&nodes(&["core-0"], Some(mine))).unwrap());
        let theirs = generation(accepted(second.send(&spreach_k4()).unwrap())) as u64;
        assert_eq!(theirs, mine + 1);
        // never answered from the other client's network — and the other
        // client is
        let stale = refusal(first.send(&nodes(&["core-0"], Some(mine))).unwrap());
        accepted(second.send(&nodes(&["core-0"], Some(theirs))).unwrap());
        stale
    }),
    ("a peer that hangs up while its check runs", "", |addr| {
        let mut client = Client::connect(addr).unwrap();
        accepted(client.send(&spreach_k4()).unwrap());
        // the request is on the wire and nobody will read the reply
        let mut stream = TcpStream::connect(addr).unwrap();
        write_line_value(&mut stream, &Request::Check.to_json()).unwrap();
        drop(stream);
        String::new()
    }),
];

#[test]
fn every_client_fault_is_a_typed_refusal_and_the_daemon_serves_the_next_client() {
    let (addr, handle) = spawn_daemon();
    for (fault, expected, cell) in CLIENT_FAULTS {
        let refusal = cell(&addr);
        assert!(refusal.contains(expected), "{fault}: refused with {refusal:?}");
        let status = Client::connect(&addr).unwrap().send(&Request::Status).unwrap();
        assert_eq!(status.get("ok").and_then(Json::as_bool), Some(true), "after {fault}");
    }
    accepted(Client::connect(&addr).unwrap().send(&Request::Shutdown).unwrap());
    handle.join().unwrap().expect("the daemon drains cleanly");
}
