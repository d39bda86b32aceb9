//! The fault model of the one server, from both of its sides: what a client
//! can do to a `timepieced` (the table below — every cell is answered by a
//! typed error frame and the daemon serves the next client), and what a
//! worker can do to a fleet coordinator (die, stall, answer garbage, be
//! unreachable — every case a named [`DistError`] or a row that completes on
//! the survivors). The daemons run in process, on ephemeral loopback ports.

use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

use timepiece_bench::{
    load_instance, run_row_distributed, shut_down, BenchKind, DistError, DistOptions, EngineResult,
    SweepOptions,
};
use timepiece_core::check::CheckOptions;
use timepiece_daemon::{
    serve, Client, DaemonState, Delta, Load, LoadSource, NodeCheck, Request, PROTOCOL_VERSION,
};
use timepiece_sched::json::{read_line_value, write_line_value, MAX_LINE_BYTES};
use timepiece_sched::Json;

/// A fleet worker: a daemon with nothing loaded. The handle yields whether
/// it ended by its `die_after` fault.
fn spawn_worker(die_after: Option<usize>) -> (String, JoinHandle<bool>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap().to_string();
    let state =
        DaemonState::empty(CheckOptions::default()).with_loader(load_instance).die_after(die_after);
    let drain = state.drain();
    let handle = std::thread::spawn(move || {
        serve(listener, state).expect("the daemon serves");
        drain.died()
    });
    (addr, handle)
}

fn sweep_options() -> SweepOptions {
    SweepOptions { run_monolithic: false, threads: Some(1), ..SweepOptions::default() }
}

fn spreach() -> BenchKind {
    BenchKind::parse("SpReach").unwrap()
}

fn load(source: LoadSource) -> Load {
    Load {
        version: PROTOCOL_VERSION,
        source,
        sabotage: Vec::new(),
        threads: Some(1),
        timeout_millis: None,
        trace: false,
    }
}

fn spreach_k4() -> Request {
    Request::Load(load(LoadSource::Bench { name: "SpReach".into(), k: 4 }))
}

fn nodes(names: &[&str], generation: Option<u64>) -> Request {
    let nodes = names.iter().map(|&n| n.to_owned()).collect();
    Request::CheckNodes(NodeCheck { nodes, generation, shard: Some(0) })
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
    ("load with the wrong version", "protocol version 2", |addr| {
        // what a peer of the deleted worker protocol would say: refused by
        // version before anything is built
        let old = Load { version: 2, ..load(LoadSource::Bench { name: "SpReach".into(), k: 4 }) };
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
    let (addr, handle) = spawn_worker(None);
    for (fault, expected, cell) in CLIENT_FAULTS {
        let refusal = cell(&addr);
        assert!(refusal.contains(expected), "{fault}: refused with {refusal:?}");
        let status = Client::connect(&addr).unwrap().send(&Request::Status).unwrap();
        assert_eq!(status.get("ok").and_then(Json::as_bool), Some(true), "after {fault}");
    }
    assert_eq!(shut_down(std::slice::from_ref(&addr)), Vec::<String>::new());
    assert!(!handle.join().unwrap(), "a shutdown is not a death");
}

#[test]
fn loopback_row_verifies_and_reports_balance_and_term_counters() {
    let (addr, handle) = spawn_worker(None);
    let workers = vec![addr];
    let row =
        run_row_distributed(spreach(), 4, &sweep_options(), 3, &workers, &DistOptions::default())
            .expect("distributed row");
    assert!(matches!(row.tp, EngineResult::Verified(_)), "{row:?}");
    assert_eq!(row.nodes, 20);
    let balance = row.balance.expect("distributed rows carry balance");
    assert_eq!(balance.shard_secs.len(), 3);
    assert!(balance.shard_secs.iter().all(|&s| s > 0.0), "{balance:?}");
    assert_eq!(balance.reassigned, 0);
    let terms = row.terms.expect("the workers' term-cache counters are summed into the row");
    assert!(terms.misses > 0, "a cold fleet compiles the row's terms: {terms:?}");
    assert!(shut_down(&workers).is_empty());
    assert!(!handle.join().unwrap());
}

#[test]
fn dead_worker_shards_are_reassigned_and_the_row_completes() {
    // worker A dies on its first node-list check, with that shard in flight;
    // worker B finishes the row. (Dying after one served check raced B: a
    // fast B had often stolen A's other shard by then, and nothing was left
    // to reassign.)
    let (dying, dying_handle) = spawn_worker(Some(0));
    let (survivor, survivor_handle) = spawn_worker(None);
    let workers = vec![dying, survivor.clone()];
    let row = run_row_distributed(
        spreach(),
        4,
        &sweep_options(),
        4,
        &workers,
        &DistOptions { liveness: Duration::from_secs(2), ..DistOptions::default() },
    )
    .expect("row completes despite the death");
    assert!(matches!(row.tp, EngineResult::Verified(_)), "{row:?}");
    let balance = row.balance.expect("distributed rows carry balance");
    assert!(balance.reassigned >= 1, "{balance:?}");
    assert_eq!(balance.shard_secs.len(), 4);
    assert!(balance.shard_secs.iter().all(|&s| s > 0.0), "{balance:?}");
    assert!(dying_handle.join().unwrap(), "the fault fired");
    assert!(shut_down(&[survivor]).is_empty());
    assert!(!survivor_handle.join().unwrap());
}

#[test]
fn a_fleet_whose_only_worker_drops_dead_is_a_typed_error_naming_it() {
    let (addr, handle) = spawn_worker(Some(0));
    let err = run_row_distributed(
        spreach(),
        4,
        &sweep_options(),
        2,
        std::slice::from_ref(&addr),
        &DistOptions::default(),
    )
    .unwrap_err();
    assert!(matches!(&err, DistError::Worker { worker, .. } if *worker == addr), "{err}");
    assert!(err.to_string().contains("died on shard"), "{err}");
    assert!(handle.join().unwrap(), "the fault fired");
}

#[test]
fn no_reachable_workers_is_a_typed_error() {
    // a bound-then-dropped listener gives a port nothing listens on
    let port = {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().port()
    };
    let err = run_row_distributed(
        spreach(),
        4,
        &sweep_options(),
        2,
        &[format!("127.0.0.1:{port}")],
        &DistOptions::default(),
    )
    .unwrap_err();
    assert!(matches!(err, DistError::NoWorkers { .. }), "{err}");
}

/// A peer that accepts one connection, answers the `load` like a daemon
/// would, and then does to the first node-list check whatever `then` does.
fn fake_worker(then: fn(&mut TcpStream)) -> (String, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let fake = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let load = read_line_value(&mut reader, MAX_LINE_BYTES).unwrap().unwrap();
        assert_eq!(load.get("verb").and_then(Json::as_str), Some("load"));
        let loaded = Json::obj([("ok", Json::Bool(true)), ("generation", Json::from(1usize))]);
        write_line_value(&mut writer, &loaded).unwrap();
        let check = read_line_value(&mut reader, MAX_LINE_BYTES).unwrap().unwrap();
        assert_eq!(check.get("verb").and_then(Json::as_str), Some("check"));
        then(&mut writer);
    });
    (addr, fake)
}

#[test]
fn a_worker_that_answers_garbage_or_stalls_is_named_in_a_typed_error() {
    let garbage: fn(&mut TcpStream) = |writer| writer.write_all(b"%% not a frame %%\n").unwrap();
    // silent for longer than the liveness bound below, then gone
    let stall: fn(&mut TcpStream) = |_| std::thread::sleep(Duration::from_millis(600));
    for (what, then) in [("garbage", garbage), ("a stall", stall)] {
        let (addr, fake) = fake_worker(then);
        let err = run_row_distributed(
            spreach(),
            4,
            &sweep_options(),
            2,
            std::slice::from_ref(&addr),
            &DistOptions { liveness: Duration::from_millis(300), ..DistOptions::default() },
        )
        .unwrap_err();
        assert!(matches!(&err, DistError::Worker { worker, .. } if *worker == addr), "{err}");
        assert!(err.to_string().contains("died on shard"), "{what}: {err}");
        fake.join().unwrap();
    }
}
