//! The TCP accept loop.
//!
//! One OS thread per connection, and HTTP/1.1 keep-alive on it: the thread
//! reads a request, answers it and reads the next through one buffered
//! reader that lives as long as the socket, so a client's session costs one
//! accept, one thread and one handshake. The connection ends when the
//! client closes it or asks to (`Connection: close`, or any HTTP/1.0
//! request; a `Transfer-Encoding` body, whose bytes no length frames,
//! closes too), sends a request that cannot be read
//! (answered `400 bad_request`), makes a handler panic (answered
//! `500 internal`), or leaves it idle, or stalls a read or write, for
//! `IO_TIMEOUT` (5 s); and once [`ServerHandle::stop`] has begun. Every
//! answer after which the server closes says `connection: close`.
//!
//! Stopping closes kept-alive connections too. The accept loop keeps a
//! handle to each live socket, dropped when its thread exits, and
//! [`ServerHandle::stop`] shuts their read halves: an idle connection
//! wakes to end of file and closes at once, not at its idle timeout. The
//! answer in hand still goes out, with `connection: close`, but a request
//! read after stop has begun is dropped unanswered and never reaches the
//! [`App`].
//!
//! The answer to a `HEAD` request is the head of the answer the [`App`]
//! gives it, with that body's `content-length`, and no body.
//!
//! The number of concurrent connection threads is bounded
//! ([`ServerOptions::max_connections`], `--max-connections` on
//! `credence-serve`): the live-socket handles are the slots, and a
//! kept-alive connection holds its slot until it closes or idles out.
//! When every slot is busy the accept loop answers
//! `503` with the standard error envelope immediately instead of spawning,
//! so saturation degrades loudly rather than accumulating unbounded
//! threads. A [`ServerHandle`] supports clean shutdown from tests, draining
//! the async job subsystem before joining.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::http::{read_request_keep_alive, Request, Response};
use crate::service::{error_envelope, internal_error};

/// How long a connection may sit idle between requests, or a single read
/// or write on it may stall, before the server closes it.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// What the accept loop serves: a request handler plus shutdown hooks.
///
/// [`crate::service::AppState`] (a single-node engine) and
/// [`crate::router::RouterState`] (a scatter-gather fanout) both implement
/// this, so one accept loop serves either role. Implementations are
/// `&'static` — servers are process-lifetime objects, matching the leaked
/// engine pattern used everywhere else.
pub trait App: Send + Sync {
    /// Handle one parsed request.
    fn handle(&self, request: &Request) -> Response;

    /// Record a request that [`App::handle`] did not answer: one refused
    /// at the accept-loop door (`503`), or one whose handler panicked
    /// (`500`).
    fn record_unhandled(&self, _status: u16) {}

    /// Shutdown has begun; the accept loop still answers. Stop admitting
    /// long-lived work here (e.g. drain the job queue).
    fn begin_shutdown(&self) {}

    /// The accept loop has joined; release remaining background workers.
    fn finish_shutdown(&self) {}
}

/// Accept-loop tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Maximum concurrent connection-handler threads. Sockets accepted
    /// beyond this are answered `503` + `Retry-After` without spawning.
    pub max_connections: usize,
}

impl Default for ServerOptions {
    fn default() -> Self {
        Self {
            max_connections: 1024,
        }
    }
}

/// A CREDENCE HTTP server bound to an address.
pub struct Server {
    listener: TcpListener,
    state: &'static dyn App,
    options: ServerOptions,
}

/// Handle for a running server: address + shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
    state: &'static dyn App,
    connections: Arc<Connections>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shut down cleanly: drain the job subsystem (new submissions are
    /// rejected, queued jobs cancel, running jobs finish under their own
    /// budgets), stop the accept loop, close the read half of every live
    /// connection, and join everything with a bounded wait so a wedged
    /// accept thread cannot hang the caller.
    pub fn stop(mut self) {
        // Stop admitting jobs first, while the accept loop still answers:
        // in-flight submissions observe `shutting_down` instead of racing
        // a closed socket.
        self.state.begin_shutdown();
        self.stop.store(true, Ordering::SeqCst);
        // Unblock accept() with a dummy connection; the accept thread may
        // already be gone, so a refused/timed-out connect is fine.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
        if let Some(join) = self.join.take() {
            // Bounded join: poll for completion rather than blocking
            // forever on a thread that never observed the stop flag.
            let deadline = Instant::now() + Duration::from_secs(5);
            while !join.is_finished() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(2));
            }
            if join.is_finished() {
                let _ = join.join();
            }
        }
        // Idle connections wake to end of file and close; a request read
        // from here on is dropped unanswered (module docs).
        self.connections.shut_reads();
        // Workers exit once the drained queue is empty; joining them last
        // guarantees every in-flight job stored its result.
        self.state.finish_shutdown();
    }
}

impl Server {
    /// Bind to `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) with
    /// default options.
    pub fn bind(addr: impl ToSocketAddrs, state: &'static dyn App) -> io::Result<Self> {
        Self::bind_with(addr, state, ServerOptions::default())
    }

    /// Bind with explicit accept-loop options.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        state: &'static dyn App,
        options: ServerOptions,
    ) -> io::Result<Self> {
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            state,
            options,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Run the accept loop on a background thread, returning a handle.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let state = self.state;
        let listener = self.listener;
        let options = self.options;
        let connections = Arc::new(Connections::default());
        let live = Arc::clone(&connections);
        let join = std::thread::spawn(move || {
            accept_loop(listener, state, stop_flag, &live, &options);
        });
        Ok(ServerHandle {
            addr,
            stop,
            join: Some(join),
            state,
            connections,
        })
    }

    /// Run the accept loop on the current thread, forever.
    pub fn run(self) -> io::Result<()> {
        let never = Arc::new(AtomicBool::new(false));
        let connections = Arc::new(Connections::default());
        accept_loop(
            self.listener,
            self.state,
            never,
            &connections,
            &self.options,
        );
        Ok(())
    }
}

/// A handle to each live connection's socket, keyed by an id, so
/// [`ServerHandle::stop`] can close them. The handles are the connection
/// slots: their number is how many connection threads run.
#[derive(Default)]
struct Connections {
    live: Mutex<Live>,
}

#[derive(Default)]
struct Live {
    next_id: u64,
    sockets: HashMap<u64, TcpStream>,
}

impl Connections {
    /// Hold a slot for `stream` while its thread runs, unless all `max`
    /// are taken (or the socket cannot be shared).
    fn admit(self: &Arc<Self>, stream: &TcpStream, max: usize) -> Option<Slot> {
        let mut live = self.lock();
        if live.sockets.len() >= max {
            return None;
        }
        let handle = stream.try_clone().ok()?;
        let id = live.next_id;
        live.next_id += 1;
        live.sockets.insert(id, handle);
        Some(Slot {
            connections: Arc::clone(self),
            id,
        })
    }

    /// The table. Every update is one insert or one remove, so the table
    /// a panicking holder left behind is still whole.
    fn lock(&self) -> MutexGuard<'_, Live> {
        self.live.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Shut the read half of every live socket.
    fn shut_reads(&self) {
        for socket in self.lock().sockets.values() {
            let _ = socket.shutdown(Shutdown::Read);
        }
    }
}

/// One connection's slot: drops its socket handle when the connection's
/// thread exits, even if the handler panics.
struct Slot {
    connections: Arc<Connections>,
    id: u64,
}

impl Drop for Slot {
    fn drop(&mut self) {
        self.connections.lock().sockets.remove(&self.id);
    }
}

fn accept_loop(
    listener: TcpListener,
    state: &'static dyn App,
    stop: Arc<AtomicBool>,
    connections: &Arc<Connections>,
    options: &ServerOptions,
) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let Some(slot) = connections.admit(&stream, options.max_connections) else {
            // Refuse at the door: never block the accept loop on a
            // saturated pool, and never read the request body.
            let resp = error_envelope(
                503,
                "overloaded",
                "all connection slots are busy; retry later",
            )
            .with_header("retry-after", "1");
            let _ = resp.send(&stream, true, false);
            let _ = stream.shutdown(Shutdown::Both);
            state.record_unhandled(503);
            continue;
        };
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let _slot = slot;
            handle_connection(state, &stream, &stop);
            let _ = stream.shutdown(Shutdown::Both);
        });
    }
}

/// Serve one connection's requests in order until one of them, the
/// client, the timeout or shutdown ends it (module docs).
fn handle_connection(state: &'static dyn App, stream: &TcpStream, stop: &AtomicBool) {
    let bounded = stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
        .and_then(|()| stream.set_nodelay(true));
    if bounded.is_err() {
        return;
    }
    let mut reader = BufReader::new(stream);
    loop {
        // Between requests, end of file or a read error (the idle
        // timeout among them) ends the connection without an answer.
        if !matches!(reader.fill_buf(), Ok(buf) if !buf.is_empty()) {
            return;
        }
        let read = read_request_keep_alive(&mut reader);
        // A request read once stop has begun never reaches the App.
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let head = matches!(&read, Ok((request, _)) if request.method == "HEAD");
        let (response, keep_alive) = match read {
            Ok((request, keep_alive)) => {
                match catch_unwind(AssertUnwindSafe(|| state.handle(&request))) {
                    Ok(response) => (response, keep_alive),
                    Err(_) => {
                        state.record_unhandled(500);
                        (internal_error(), false)
                    }
                }
            }
            Err(err) => (error_envelope(400, "bad_request", err.to_string()), false),
        };
        let close = !keep_alive || stop.load(Ordering::SeqCst);
        if response.send(stream, close, head).is_err() || close {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::AppState;
    use credence_core::EngineConfig;
    use credence_index::Document;
    use std::io::{Read, Write};
    use std::sync::atomic::AtomicUsize;

    /// A health check that asks the server to close after its answer.
    const HEALTH: &str = "GET /api/v1/health HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
    /// The same check on a connection that stays open.
    const HEALTH_KEPT: &str = "GET /api/v1/health HTTP/1.1\r\nHost: t\r\n\r\n";

    fn demo_state() -> &'static AppState {
        AppState::leak(
            vec![
                Document::new("a", "A", "covid outbreak covid outbreak tonight"),
                Document::new("b", "B", "covid outbreak closes the local school"),
                Document::new("c", "C", "garden fair draws a record crowd"),
            ],
            EngineConfig::fast(),
        )
    }

    /// Send one request that says `Connection: close` and read to the close.
    fn roundtrip(addr: SocketAddr, raw: &str) -> String {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        conn.read_to_string(&mut out).unwrap();
        out
    }

    /// A connection whose reads give up a second after the server's would.
    fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
        let conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(IO_TIMEOUT + Duration::from_secs(1)))
            .unwrap();
        let reader = BufReader::new(conn.try_clone().unwrap());
        (conn, reader)
    }

    /// Read the next answer off a connection: its head and its body.
    fn next_response(reader: &mut impl BufRead) -> (String, String) {
        let mut head = String::new();
        while !head.ends_with("\r\n\r\n") {
            let n = reader.read_line(&mut head).unwrap();
            assert_ne!(n, 0, "closed before a whole head: {head:?}");
        }
        let len = head
            .lines()
            .find_map(|line| line.strip_prefix("content-length: "))
            .expect("content-length")
            .parse()
            .unwrap();
        let mut body = vec![0; len];
        reader.read_exact(&mut body).unwrap();
        (head, String::from_utf8(body).unwrap())
    }

    /// The server closed the connection: the next read is end of file.
    fn assert_closed(reader: &mut impl Read) {
        let mut byte = [0u8];
        let read = reader.read(&mut byte);
        assert!(matches!(read, Ok(0)), "still open: {read:?}");
    }

    #[test]
    fn serves_over_real_sockets() {
        let server = Server::bind("127.0.0.1:0", demo_state()).unwrap();
        let handle = server.spawn().unwrap();
        let addr = handle.addr();

        let health = roundtrip(addr, HEALTH);
        assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
        assert!(health.contains(r#"{"status":"ok"}"#));

        let body = r#"{"query": "covid outbreak", "k": 2}"#;
        let rank = roundtrip(
            addr,
            &format!(
                "POST /api/v1/rank HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{}",
                body.len(),
                body
            ),
        );
        assert!(rank.starts_with("HTTP/1.1 200 OK"), "{rank}");
        assert!(rank.contains(r#""ranking""#));

        let bad = roundtrip(addr, "BROKEN\r\n\r\n");
        assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");

        handle.stop();
    }

    #[test]
    fn one_connection_answers_requests_in_order() {
        let handle = Server::bind("127.0.0.1:0", demo_state())
            .unwrap()
            .spawn()
            .unwrap();
        let addr = handle.addr();
        let rank = r#"{"query": "covid outbreak", "k": 2}"#;
        let requests = [
            ("GET /api/v1/health HTTP/1.1\r\nHost: t\r\n".to_string(), ""),
            (
                format!(
                    "POST /api/v1/rank HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n",
                    rank.len()
                ),
                rank,
            ),
            ("GET /api/v1/corpus HTTP/1.1\r\nHost: t\r\n".to_string(), ""),
        ];
        let (mut conn, mut reader) = connect(addr);
        for (head, body) in &requests {
            conn.write_all(format!("{head}\r\n{body}").as_bytes())
                .unwrap();
            let (kept_head, kept_body) = next_response(&mut reader);
            assert!(kept_head.starts_with("HTTP/1.1 200 OK"), "{kept_head}");
            assert!(!kept_head.contains("connection:"), "{kept_head}");
            let alone = roundtrip(addr, &format!("{head}Connection: close\r\n\r\n{body}"));
            assert!(alone.contains("\r\nconnection: close\r\n"), "{alone}");
            assert_eq!(alone.split_once("\r\n\r\n").unwrap().1, kept_body);
        }
        handle.stop();
    }

    #[test]
    fn head_answers_the_get_head_without_a_body_and_keeps_the_connection() {
        let handle = Server::bind("127.0.0.1:0", demo_state())
            .unwrap()
            .spawn()
            .unwrap();
        let (mut conn, mut reader) = connect(handle.addr());
        // The head alone, then the next answer: a body byte after the
        // head would garble the next status line.
        let mut read_head = |raw: &str| {
            conn.write_all(raw.as_bytes()).unwrap();
            let mut head = String::new();
            while !head.ends_with("\r\n\r\n") {
                assert_ne!(reader.read_line(&mut head).unwrap(), 0, "{head:?}");
            }
            head
        };
        let head = read_head("HEAD /api/v1/health HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
        assert!(head.contains("\r\ncontent-length: 15\r\n"), "{head}");
        assert!(!head.contains("connection:"), "{head}");
        // A path without a `GET` row answers 405, also without a body.
        let head = read_head("HEAD /api/v1/rank HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(head.starts_with("HTTP/1.1 405 "), "{head}");
        conn.write_all(HEALTH_KEPT.as_bytes()).unwrap();
        let (head, body) = next_response(&mut reader);
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
        assert_eq!(body, r#"{"status":"ok"}"#);
        handle.stop();
    }

    #[test]
    fn requests_sent_in_one_write_are_all_answered() {
        let handle = Server::bind("127.0.0.1:0", demo_state())
            .unwrap()
            .spawn()
            .unwrap();
        let addr = handle.addr();
        let corpus = "GET /api/v1/corpus HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
        let (mut conn, mut reader) = connect(addr);
        conn.write_all(format!("{HEALTH_KEPT}{corpus}").as_bytes())
            .unwrap();
        assert_eq!(next_response(&mut reader).1, r#"{"status":"ok"}"#);
        let alone = roundtrip(addr, corpus);
        assert_eq!(
            next_response(&mut reader).1,
            alone.split_once("\r\n\r\n").unwrap().1
        );
        assert_closed(&mut reader);
        handle.stop();
    }

    #[test]
    fn closing_requests_are_answered_then_closed() {
        let handle = Server::bind("127.0.0.1:0", demo_state())
            .unwrap()
            .spawn()
            .unwrap();
        for (last, status) in [
            (HEALTH, "200"),
            ("GET /api/v1/health HTTP/1.0\r\nHost: t\r\n\r\n", "200"),
            ("BROKEN\r\n\r\n", "400"),
        ] {
            let (mut conn, mut reader) = connect(handle.addr());
            conn.write_all(HEALTH_KEPT.as_bytes()).unwrap();
            let (head, _) = next_response(&mut reader);
            assert!(!head.contains("connection:"), "{head}");
            conn.write_all(last.as_bytes()).unwrap();
            let (head, _) = next_response(&mut reader);
            assert!(head.starts_with(&format!("HTTP/1.1 {status}")), "{head}");
            assert!(head.contains("\r\nconnection: close\r\n"), "{head}");
            assert_closed(&mut reader);
        }
        handle.stop();
    }

    #[test]
    fn idle_connections_close_within_the_timeout() {
        let handle = Server::bind("127.0.0.1:0", demo_state())
            .unwrap()
            .spawn()
            .unwrap();
        let started = Instant::now();
        // One socket never sends; the other goes quiet after one answer.
        let (_silent, mut silent_reader) = connect(handle.addr());
        let (mut kept, mut kept_reader) = connect(handle.addr());
        kept.write_all(HEALTH_KEPT.as_bytes()).unwrap();
        let (head, _) = next_response(&mut kept_reader);
        assert!(!head.contains("connection:"), "{head}");
        assert_closed(&mut silent_reader);
        assert_closed(&mut kept_reader);
        let waited = started.elapsed();
        assert!(
            waited < IO_TIMEOUT + Duration::from_secs(1),
            "closed after {waited:?}"
        );
        handle.stop();
    }

    #[test]
    fn an_idle_kept_alive_connection_frees_its_slot_after_the_timeout() {
        let handle = Server::bind_with(
            "127.0.0.1:0",
            demo_state(),
            ServerOptions { max_connections: 1 },
        )
        .unwrap()
        .spawn()
        .unwrap();
        let addr = handle.addr();
        let (mut holder, mut holder_reader) = connect(addr);
        holder.write_all(HEALTH_KEPT.as_bytes()).unwrap();
        let (head, _) = next_response(&mut holder_reader);
        let idle_since = Instant::now();
        assert!(!head.contains("connection:"), "{head}");
        // The idle holder keeps the only slot ...
        let refused = roundtrip(addr, HEALTH);
        assert!(refused.starts_with("HTTP/1.1 503"), "{refused}");
        // ... until the timeout closes it.
        loop {
            let resp = roundtrip(addr, HEALTH);
            if resp.starts_with("HTTP/1.1 200") {
                break;
            }
            assert!(
                idle_since.elapsed() < IO_TIMEOUT + Duration::from_secs(1),
                "the idle holder still blocks: {resp}"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
        handle.stop();
    }

    /// Panics on `/panic`; serves everything else as the demo state does.
    struct Panicking(&'static AppState);

    impl App for Panicking {
        fn handle(&self, request: &Request) -> Response {
            assert_ne!(request.path, "/panic", "injected handler panic");
            self.0.handle(request)
        }

        fn record_unhandled(&self, status: u16) {
            self.0.record_unhandled(status);
        }
    }

    #[test]
    fn a_handler_panic_answers_500_and_service_continues() {
        let state = Box::leak(Box::new(Panicking(demo_state())));
        let handle = Server::bind_with("127.0.0.1:0", state, ServerOptions { max_connections: 1 })
            .unwrap()
            .spawn()
            .unwrap();
        let addr = handle.addr();
        let (mut conn, mut reader) = connect(addr);
        conn.write_all(b"GET /panic HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let (head, body) = next_response(&mut reader);
        assert!(head.starts_with("HTTP/1.1 500"), "{head}");
        assert!(head.contains("\r\nconnection: close\r\n"), "{head}");
        assert!(body.contains(r#""code":"internal""#), "{body}");
        assert_closed(&mut reader);

        // The one slot is free again (the panicking thread may still be
        // on its way out), and the panic is counted.
        let deadline = Instant::now() + Duration::from_secs(5);
        let metrics = loop {
            let resp = roundtrip(addr, "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
            if resp.starts_with("HTTP/1.1 200") {
                break resp;
            }
            assert!(Instant::now() < deadline, "slot never freed: {resp}");
            std::thread::sleep(Duration::from_millis(5));
        };
        assert!(
            metrics.contains("credence_requests_total{endpoint=\"other\",status=\"500\"} 1"),
            "{metrics}"
        );
        handle.stop();
    }

    #[test]
    fn concurrent_requests_are_served() {
        let server = Server::bind("127.0.0.1:0", demo_state()).unwrap();
        let handle = server.spawn().unwrap();
        let addr = handle.addr();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(move || {
                    let resp = roundtrip(
                        addr,
                        "GET /api/v1/corpus HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
                    );
                    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        handle.stop();
    }

    #[test]
    fn saturated_connection_slots_answer_503() {
        let server = Server::bind_with(
            "127.0.0.1:0",
            demo_state(),
            ServerOptions { max_connections: 1 },
        )
        .unwrap();
        let handle = server.spawn().unwrap();
        let addr = handle.addr();

        // Occupy the single slot: a connection that sends only a partial
        // request keeps its handler blocked in read_request.
        let mut holder = TcpStream::connect(addr).unwrap();
        holder.write_all(b"POST /api/v1/rank HTTP/1.1\r\n").unwrap();
        // Give the accept loop time to hand the holder to its thread.
        let deadline = Instant::now() + Duration::from_secs(5);
        let refused = loop {
            let resp = roundtrip(addr, HEALTH);
            if resp.starts_with("HTTP/1.1 503") {
                break resp;
            }
            assert!(
                Instant::now() < deadline,
                "slot never saturated; last response: {resp}"
            );
            std::thread::sleep(Duration::from_millis(5));
        };
        assert!(refused.contains("overloaded"), "{refused}");
        assert!(
            refused.to_ascii_lowercase().contains("retry-after"),
            "{refused}"
        );

        // Release the slot; service resumes.
        holder.write_all(b"\r\n\r\n").unwrap();
        drop(holder);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let resp = roundtrip(addr, HEALTH);
            if resp.starts_with("HTTP/1.1 200") {
                break;
            }
            assert!(Instant::now() < deadline, "slot never freed: {resp}");
            std::thread::sleep(Duration::from_millis(5));
        }
        handle.stop();
    }

    #[test]
    fn stop_is_bounded_and_repeat_safe() {
        // Stopping twice in a row (fresh states) must return promptly even
        // though the dummy wake-up connection may race the accept thread,
        // and an idle kept-alive connection is open.
        for _ in 0..2 {
            let server = Server::bind("127.0.0.1:0", demo_state()).unwrap();
            let handle = server.spawn().unwrap();
            let (mut idle, mut idle_reader) = connect(handle.addr());
            idle.write_all(HEALTH_KEPT.as_bytes()).unwrap();
            let (head, _) = next_response(&mut idle_reader);
            assert!(!head.contains("connection:"), "{head}");
            let started = Instant::now();
            handle.stop();
            assert!(
                started.elapsed() < Duration::from_secs(10),
                "stop took {:?}",
                started.elapsed()
            );
            // Stop closed the idle connection, well before its idle
            // timeout, so a request sent on it now gets no answer.
            let stopped = Instant::now();
            assert_closed(&mut idle_reader);
            assert!(stopped.elapsed() < IO_TIMEOUT, "{:?}", stopped.elapsed());
            let _ = idle.write_all(HEALTH_KEPT.as_bytes());
            assert_closed(&mut idle_reader);
        }
    }

    /// Counts the requests that reach the demo state.
    struct Counting(&'static AppState, AtomicUsize);

    impl App for Counting {
        fn handle(&self, request: &Request) -> Response {
            self.1.fetch_add(1, Ordering::SeqCst);
            self.0.handle(request)
        }
    }

    #[test]
    fn a_request_still_arriving_at_stop_never_reaches_the_app() {
        let state = Box::leak(Box::new(Counting(demo_state(), AtomicUsize::new(0))));
        let handle = Server::bind("127.0.0.1:0", state).unwrap().spawn().unwrap();
        let (mut conn, mut reader) = connect(handle.addr());
        conn.write_all(HEALTH_KEPT.as_bytes()).unwrap();
        next_response(&mut reader);
        // Half a request: its thread waits for the rest mid-head.
        conn.write_all(b"GET /api/v1/health HTTP/1.1\r\n").unwrap();
        handle.stop();
        let _ = conn.write_all(b"Host: t\r\n\r\n");
        assert_closed(&mut reader);
        assert_eq!(
            state.1.load(Ordering::SeqCst),
            1,
            "only the first request was handled"
        );
    }

    /// Send a POST head declaring a 10-byte body and 4 bytes of it, let
    /// `then` act on the socket, and return the server's answer.
    fn short_body(then: impl FnOnce(&TcpStream)) -> String {
        let handle = Server::bind("127.0.0.1:0", demo_state())
            .unwrap()
            .spawn()
            .unwrap();
        let (mut conn, mut reader) = connect(handle.addr());
        conn.write_all(b"POST /api/v1/rank HTTP/1.1\r\nHost: t\r\nContent-Length: 10\r\n\r\n{\"qu")
            .unwrap();
        then(&conn);
        let (head, body) = next_response(&mut reader);
        assert!(head.starts_with("HTTP/1.1 400"), "{head}");
        assert_closed(&mut reader);
        handle.stop();
        body
    }

    #[test]
    fn a_body_cut_short_by_a_close_says_so() {
        let body = short_body(|conn| conn.shutdown(Shutdown::Write).unwrap());
        assert_eq!(
            body,
            r#"{"error":{"code":"bad_request","message":"connection closed mid-request"}}"#
        );
    }

    #[test]
    fn a_stalled_body_says_so() {
        let started = Instant::now();
        let body = short_body(|_| {});
        assert!(started.elapsed() >= IO_TIMEOUT, "{:?}", started.elapsed());
        assert_eq!(
            body,
            r#"{"error":{"code":"bad_request","message":"the rest of the request did not arrive within the read timeout"}}"#
        );
    }

    #[test]
    fn an_unterminated_header_line_answers_400_and_service_continues() {
        let server = Server::bind("127.0.0.1:0", demo_state()).unwrap();
        let handle = server.spawn().unwrap();
        let addr = handle.addr();

        let conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut sender = conn.try_clone().unwrap();
        let writer = std::thread::spawn(move || {
            let mut head = b"GET /api/v1/health HTTP/1.1\r\nx-filler: ".to_vec();
            head.resize(head.len() + 256 * 1024, b'a');
            // The server stops reading at the head bound and closes, so
            // the tail of this write may fail.
            let _ = sender.write_all(&head);
            sender
        });
        // Read the answer while the socket stays open; a reset after the
        // answer (unread bytes at the server's close) ends the read too.
        let mut answer = Vec::new();
        let mut buf = [0u8; 4096];
        let started = Instant::now();
        loop {
            match (&conn).read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => answer.extend_from_slice(&buf[..n]),
            }
        }
        let answer = String::from_utf8_lossy(&answer);
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "no answer before the read timeout"
        );
        assert!(answer.starts_with("HTTP/1.1 400"), "{answer}");
        assert!(answer.contains("bad_request"), "{answer}");
        drop(writer.join().unwrap());

        let health = roundtrip(addr, HEALTH);
        assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
        handle.stop();
    }
}
