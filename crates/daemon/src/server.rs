//! The TCP serving loop: NDJSON frames in, NDJSON frames out. This is the
//! one server of the workspace — a daemon warm on one instance and a fleet
//! worker that was started empty are the same process.
//!
//! Threading model: one accept loop (the caller's thread), one *state*
//! thread owning the [`DaemonState`] (requests are serialized — the state
//! holds mutable caches and a checker pool), and one reader thread per
//! connection forwarding `(frame, reply-channel)` pairs to the state
//! thread. Clients therefore see strict request/reply ordering on their own
//! connection, and requests from concurrent clients interleave atomically.
//!
//! Liveness: while a reply is pending, its connection thread writes a
//! `progress` frame every 400 ms, so a client with a read timeout can
//! tell a slow solve from a dead daemon. A failed heartbeat write means the
//! peer hung up: the thread ends, the reply is dropped, and the daemon goes
//! on to the next request.
//!
//! Shutdown is cooperative through the state's [`DrainSignal`]: a
//! `shutdown` request (after its reply is sent) or a SIGTERM (via
//! [`spawn_sigterm_watcher`]) raises it, which cancels the in-flight
//! check's [`timepiece_sched::CancelToken`] — firing the registered
//! solver-interrupt hooks — stops the state loop (requests still queued
//! are answered "shutting down"), wakes the blocking accept loop with a
//! loopback self-connect, and lets [`serve`] return `Ok(())` so the process
//! exits 0. The armed [`DaemonState::die_after`] fault takes the same road
//! with [`DrainSignal::died`] set: nobody is answered, connections just
//! close.
//!
//! Latency: every accepted stream sets `TCP_NODELAY` and every frame is one
//! `write` ([`write_line_value`]), so a reply leaves in a single segment
//! instead of waiting out Nagle's algorithm against the peer's delayed ACK.

use std::io::BufReader;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

use timepiece_trace::json::{read_line_value, write_line_value, MAX_LINE_BYTES};
use timepiece_trace::Json;

use crate::protocol::{error_response, progress, Request};
use crate::state::{DaemonState, DrainSignal};

/// How often the state and signal-watcher loops look at the drain signal.
/// Requests never wait on it: the state loop blocks on its channel and the
/// accept loop blocks in `accept`.
const POLL: Duration = Duration::from_millis(25);

/// How often a connection with a pending reply says it is still alive.
const HEARTBEAT: Duration = Duration::from_millis(400);

/// How long [`serve`] waits, after the drain, for connection threads to put
/// their last reply (the `shutdown` ack) on the wire.
const REPLY_GRACE: Duration = Duration::from_secs(1);

/// Set by the SIGTERM handler; polled by [`spawn_sigterm_watcher`]'s
/// thread. Process-global because POSIX handlers cannot carry state.
static SIGTERM: AtomicBool = AtomicBool::new(false);

extern "C" {
    /// POSIX `signal(2)`; taking the handler as a typed function pointer
    /// keeps this FFI-minimal (no libc crate, no numeric casts).
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

extern "C" fn on_sigterm(_signum: i32) {
    SIGTERM.store(true, Ordering::SeqCst);
}

/// Installs the SIGTERM handler and spawns a detached watcher thread that
/// raises `drain` when the signal arrives, so a `kill <pid>` drains the
/// daemon (cancelling any in-flight check) instead of killing it mid-solve.
/// The `timepieced` serve mode calls this once before [`serve`].
pub fn spawn_sigterm_watcher(drain: DrainSignal) {
    const SIGTERM_NUM: i32 = 15;
    unsafe {
        signal(SIGTERM_NUM, on_sigterm);
    }
    std::thread::spawn(move || {
        timepiece_trace::set_thread_label("sigterm-watcher");
        while !SIGTERM.load(Ordering::SeqCst) {
            std::thread::sleep(POLL);
        }
        drain.raise();
    });
}

/// Raises the same flag as a delivered SIGTERM — what tests (and anything
/// else embedding the server) use to exercise the watcher without a real
/// signal.
pub fn trigger_sigterm() {
    SIGTERM.store(true, Ordering::SeqCst);
}

/// One unit forwarded to the state thread: the raw frame and where to send
/// the reply.
type Forwarded = (Json, mpsc::Sender<Json>);

/// Serves requests on `listener` until the state's [`DrainSignal`] rises —
/// via a `shutdown` request, [`DrainSignal::raise`], or SIGTERM when
/// [`spawn_sigterm_watcher`] is installed — then drains and returns
/// `Ok(())`.
///
/// # Errors
///
/// Only setup/accept I/O errors; per-connection errors close that
/// connection.
pub fn serve(listener: TcpListener, state: DaemonState) -> std::io::Result<()> {
    let drain = state.drain();
    let (req_tx, req_rx) = mpsc::channel::<Forwarded>();
    let owed = Arc::new(OwedReplies::default());

    let state_drain = drain.clone();
    let wake_addr = wake_address(&listener)?;
    let state_thread = std::thread::spawn(move || {
        timepiece_trace::set_thread_label("daemon-state");
        run_state_loop(state, &state_drain, &req_rx);
        // the state loop only returns once the drain is up (or every sender
        // is gone, which the accept loop's own `req_tx` rules out): knock on
        // the listener so the blocked `accept` sees it
        let _ = TcpStream::connect_timeout(&wake_addr, REPLY_GRACE);
    });

    listener.set_nonblocking(false)?;
    let result = loop {
        match listener.accept() {
            // the drain's own knock, or a client too late to be served
            Ok(_) if drain.is_draining() => break Ok(()),
            Ok((stream, _peer)) => {
                let tx = req_tx.clone();
                let owed = Arc::clone(&owed);
                let drain = drain.clone();
                std::thread::spawn(move || {
                    timepiece_trace::set_thread_label("daemon-conn");
                    // best effort: a broken connection only ends itself
                    let _ = run_connection(stream, &tx, &owed, &drain);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                drain.raise();
                break Err(e);
            }
        }
    };
    drop(req_tx);
    let _ = state_thread.join();
    // connection threads are detached (a client may idle forever) and the
    // caller may exit the process as soon as this returns: wait for the
    // replies still owed — the shutdown ack among them — to reach the wire
    owed.wait_settled(REPLY_GRACE);
    result
}

/// How many forwarded requests have no reply on the wire yet.
#[derive(Debug, Default)]
struct OwedReplies {
    count: Mutex<usize>,
    settled: Condvar,
}

impl OwedReplies {
    fn add(&self, n: isize) {
        let mut count = self.count.lock().expect("owed-replies lock");
        *count = count.checked_add_signed(n).expect("every reply was owed first");
        if *count == 0 {
            self.settled.notify_all();
        }
    }

    /// Blocks until no reply is owed, or `grace` has passed.
    fn wait_settled(&self, grace: Duration) {
        let count = self.count.lock().expect("owed-replies lock");
        let _ = self.settled.wait_timeout_while(count, grace, |count| *count > 0);
    }
}

/// Where a loopback connect reaches `listener`: its own address, with an
/// unspecified (`0.0.0.0` / `::`) bind mapped to the loopback address.
fn wake_address(listener: &TcpListener) -> std::io::Result<SocketAddr> {
    let mut addr = listener.local_addr()?;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    Ok(addr)
}

/// The state thread: applies forwarded frames to the state in arrival
/// order, stopping when the drain rises or every sender hung up. Requests
/// still queued at that point are answered "shutting down" by their
/// connection threads.
fn run_state_loop(mut state: DaemonState, drain: &DrainSignal, req_rx: &mpsc::Receiver<Forwarded>) {
    while !drain.is_draining() {
        match req_rx.recv_timeout(POLL) {
            Ok((frame, reply_tx)) => match Request::from_json(&frame) {
                Ok(request) => {
                    let handled = state.handle(&request);
                    // the reply leaves before the drain rises, so the
                    // shutdown caller hears its ack; a daemon that died
                    // answers nobody
                    if !drain.died() {
                        let _ = reply_tx.send(handled.reply);
                    }
                    if handled.shutdown {
                        drain.raise();
                    }
                }
                Err(e) => {
                    let _ = reply_tx.send(error_response(e.to_string()));
                }
            },
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Splits an accepted stream into its buffered read half and write half.
/// Replies are single small segments, so Nagle is off: one must never wait
/// for the ACK of the one before.
fn open_connection(stream: TcpStream) -> std::io::Result<(BufReader<TcpStream>, TcpStream)> {
    stream.set_nodelay(true)?;
    let writer = stream.try_clone()?;
    Ok((BufReader::new(stream), writer))
}

/// One connection: read a frame, forward it, heartbeat until the reply is
/// there, write it, repeat until EOF or error. Runs on its own thread.
fn run_connection(
    stream: TcpStream,
    tx: &mpsc::Sender<Forwarded>,
    owed: &OwedReplies,
    drain: &DrainSignal,
) -> std::io::Result<()> {
    let (mut reader, mut writer) = open_connection(stream)?;
    loop {
        let frame = match read_line_value(&mut reader, MAX_LINE_BYTES) {
            Ok(Some(frame)) => frame,
            Ok(None) => return Ok(()), // clean EOF
            Err(e) => {
                // a framing error poisons the stream: answer once and close
                let _ = write_line_value(&mut writer, &error_response(e.to_string()));
                return Ok(());
            }
        };
        owed.add(1);
        let (reply_tx, reply_rx) = mpsc::channel();
        // a failed send drops `reply_tx`, which the first receive reports
        let _ = tx.send((frame, reply_tx));
        let written = loop {
            match reply_rx.recv_timeout(HEARTBEAT) {
                Ok(reply) => break write_line_value(&mut writer, &reply),
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    // a failed heartbeat is a peer that hung up: nobody is
                    // left to read the reply
                    if let Err(e) = write_line_value(&mut writer, &progress()) {
                        break Err(e);
                    }
                }
                // the state thread is gone: drained (tell the client) or
                // dead (hang up, as a crashed host would)
                Err(mpsc::RecvTimeoutError::Disconnected) if drain.died() => {
                    break Err(std::io::ErrorKind::ConnectionAborted.into())
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    break write_line_value(&mut writer, &error_response("daemon is shutting down"))
                }
            }
        };
        owed.add(-1);
        written?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::fixture::hop_path;
    use crate::protocol::{Delta, Request};
    use timepiece_core::check::CheckOptions;

    fn options() -> CheckOptions {
        CheckOptions { threads: Some(2), session_cap: Some(4), ..Default::default() }
    }

    #[test]
    fn serve_answers_status_delta_and_shutdown() {
        let state = DaemonState::new("hop n=5", hop_path(5, None), options()).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || serve(listener, state));

        let mut client = Client::connect(addr).unwrap();
        let status = client.send(&Request::Status).unwrap();
        assert_eq!(status.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(status.get("verified").and_then(Json::as_bool), Some(true));
        assert_eq!(status.get("nodes").and_then(Json::as_f64), Some(5.0));

        // dropping the v3 -- v4 link re-checks a strict subset of nodes;
        // v4's only route came through v3, so its exact interface now fails
        let down = Request::Delta(Delta::LinkDown { u: "v3".into(), v: "v4".into() });
        let reply = client.send(&down).unwrap();
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
        let cone = reply.get("cone_size").and_then(Json::as_f64).unwrap() as usize;
        assert!(cone > 0 && cone < 5, "strict subset, got {cone}");
        assert_eq!(reply.get("verified").and_then(Json::as_bool), Some(false));

        // restoring the link restores the verdict
        let up = Request::Delta(Delta::LinkUp { u: "v3".into(), v: "v4".into() });
        let reply = client.send(&up).unwrap();
        assert_eq!(reply.get("verified").and_then(Json::as_bool), Some(true));

        let reply = client.send(&Request::Shutdown).unwrap();
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
        server.join().unwrap().unwrap();
    }

    #[test]
    fn malformed_frames_get_an_error_and_close() {
        use std::io::{BufRead, Write};
        let state = DaemonState::new("hop n=3", hop_path(3, None), options()).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || serve(listener, state));

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"{this is not json\n").unwrap();
        let mut line = String::new();
        BufReader::new(stream.try_clone().unwrap()).read_line(&mut line).unwrap();
        let reply = Json::parse(line.trim_end()).unwrap();
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));

        // unknown verbs answer an error but keep the connection usable
        let mut client = Client::connect(addr).unwrap();
        let reply = client.request(&Json::obj([("verb", Json::str("dance"))])).unwrap();
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
        let reply = client.send(&Request::Shutdown).unwrap();
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
        server.join().unwrap().unwrap();
    }

    #[test]
    fn both_ends_disable_nagle_and_round_trips_are_prompt() {
        // the server's half of a connection, as `serve` opens it
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let _peer = TcpStream::connect(probe.local_addr().unwrap()).unwrap();
        let (accepted, _) = probe.accept().unwrap();
        let (_reader, writer) = open_connection(accepted).unwrap();
        assert!(writer.nodelay().unwrap(), "accepted streams must set TCP_NODELAY");

        let state = DaemonState::new("hop n=3", hop_path(3, None), options()).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || serve(listener, state));
        let mut client = Client::connect(addr).unwrap();
        assert!(client.nodelay().unwrap(), "clients must set TCP_NODELAY");

        // a frame split over several sends stalls ~40 ms per round trip on
        // Nagle against the peer's delayed ACK; one-write frames never do
        let start = std::time::Instant::now();
        for _ in 0..50 {
            let status = client.send(&Request::Status).unwrap();
            assert_eq!(status.get("ok").and_then(Json::as_bool), Some(true));
        }
        let elapsed = start.elapsed();
        assert!(elapsed < Duration::from_millis(50 * 40 / 4), "50 round trips took {elapsed:?}");

        // shutdown returns once the ack is on the wire, without a fixed sleep
        let reply = client.send(&Request::Shutdown).unwrap();
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
        server.join().unwrap().unwrap();
    }

    #[test]
    fn a_pending_reply_heartbeats_and_a_client_outwaits_its_read_timeout() {
        // this test plays the state thread, so it decides how long a reply
        // is pending
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (tx, rx) = mpsc::channel::<Forwarded>();
        let (owed, drain) = (OwedReplies::default(), DrainSignal::new());
        let answer = Json::obj([("ok", Json::Bool(true))]);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for _ in 0..2 {
                    let (stream, _) = listener.accept().unwrap();
                    run_connection(stream, &tx, &owed, &drain).unwrap();
                }
            });

            // on the raw socket: `progress` frames until the reply is sent
            let mut raw = TcpStream::connect(addr).unwrap();
            write_line_value(&mut raw, &Request::Status.to_json()).unwrap();
            let mut frames = BufReader::new(raw.try_clone().unwrap());
            let (_frame, reply_tx) = rx.recv().unwrap();
            let first = read_line_value(&mut frames, MAX_LINE_BYTES).unwrap().unwrap();
            assert_eq!(first, progress(), "a pending reply heartbeats");
            reply_tx.send(answer.clone()).unwrap();
            let reply = std::iter::repeat_with(|| read_line_value(&mut frames, MAX_LINE_BYTES))
                .map(|frame| frame.unwrap().unwrap())
                .find(|frame| *frame != progress());
            assert_eq!(reply, Some(answer.clone()));
            drop((raw, frames));

            // through the client: the heartbeats are skipped, and they keep a
            // read timeout shorter than the wait from firing
            let mut client = Client::connect(addr).unwrap();
            client.set_read_timeout(Some(HEARTBEAT * 5 / 2)).unwrap();
            let asked = scope.spawn(move || client.send(&Request::Status));
            let (_frame, reply_tx) = rx.recv().unwrap();
            std::thread::sleep(HEARTBEAT * 4);
            reply_tx.send(answer.clone()).unwrap();
            assert_eq!(asked.join().unwrap().unwrap(), answer);
        });
    }

    #[test]
    fn the_drain_wakes_a_blocked_accept() {
        // no client ever connects: only the drain's own knock can end `serve`
        let state = DaemonState::new("hop n=3", hop_path(3, None), options()).unwrap();
        let drain = state.drain();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let server = std::thread::spawn(move || serve(listener, state));
        drain.raise();
        server.join().unwrap().unwrap();
    }

    #[test]
    fn the_sigterm_watcher_raises_the_drain() {
        // exercises only the watcher (with its own drain signal), so the
        // process-global flag cannot disturb the other servers under test
        let drain = DrainSignal::new();
        spawn_sigterm_watcher(drain.clone());
        assert!(!drain.is_draining());
        trigger_sigterm();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !drain.is_draining() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(drain.is_draining(), "the watcher must relay SIGTERM");
        SIGTERM.store(false, Ordering::SeqCst); // reset for any later watcher
    }
}
