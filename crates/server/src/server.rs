//! The TCP accept loop.
//!
//! One OS thread per connection, `Connection: close` per response — the
//! simplest server that correctly exposes the REST surface. The number of
//! concurrent connection threads is bounded ([`ServerOptions::max_connections`],
//! `--max-connections` on `credence-serve`): when every slot is busy the
//! accept loop answers `503` with the standard error envelope immediately
//! instead of spawning, so saturation degrades loudly rather than
//! accumulating unbounded threads. A [`ServerHandle`] supports clean
//! shutdown from tests, draining the async job subsystem before joining.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::http::{read_request, Request, Response};

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

    /// Record a request refused at the accept-loop door (saturation 503).
    fn record_rejected(&self, _status: u16) {}

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
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shut down cleanly: drain the job subsystem (new submissions are
    /// rejected, queued jobs cancel, running jobs finish under their own
    /// budgets), stop the accept loop, and join everything with a bounded
    /// wait so a wedged accept thread cannot hang the caller.
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
        let join = std::thread::spawn(move || {
            accept_loop(listener, state, Some(stop_flag), &options);
        });
        Ok(ServerHandle {
            addr,
            stop,
            join: Some(join),
            state,
        })
    }

    /// Run the accept loop on the current thread, forever.
    pub fn run(self) -> io::Result<()> {
        accept_loop(self.listener, self.state, None, &self.options);
        Ok(())
    }
}

/// Decrements the active-connection count when a handler thread exits,
/// even if the handler panics.
struct SlotGuard(Arc<AtomicUsize>);

impl Drop for SlotGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn accept_loop(
    listener: TcpListener,
    state: &'static dyn App,
    stop: Option<Arc<AtomicBool>>,
    options: &ServerOptions,
) {
    let active = Arc::new(AtomicUsize::new(0));
    for conn in listener.incoming() {
        if let Some(stop) = &stop {
            if stop.load(Ordering::SeqCst) {
                break;
            }
        }
        let Ok(stream) = conn else { continue };
        if active.fetch_add(1, Ordering::SeqCst) >= options.max_connections {
            active.fetch_sub(1, Ordering::SeqCst);
            // Refuse at the door: never block the accept loop on a
            // saturated pool, and never read the request body.
            let resp = crate::service::error_envelope(
                503,
                "overloaded",
                "all connection slots are busy; retry later",
            )
            .with_header("retry-after", "1");
            let _ = resp.write_to(&stream);
            let _ = stream.shutdown(std::net::Shutdown::Both);
            state.record_rejected(503);
            continue;
        }
        let guard = SlotGuard(Arc::clone(&active));
        std::thread::spawn(move || {
            let _guard = guard;
            handle_connection(state, stream);
        });
    }
}

fn handle_connection(state: &'static dyn App, stream: TcpStream) {
    let response = match read_request(&stream) {
        Ok(request) => state.handle(&request),
        Err(err) => crate::service::error_envelope(400, "bad_request", err.to_string()),
    };
    let _ = response.write_to(&stream);
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::AppState;
    use credence_core::EngineConfig;
    use credence_index::Document;
    use std::io::{Read, Write};

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

    fn roundtrip(addr: SocketAddr, raw: &str) -> String {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        conn.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_over_real_sockets() {
        let server = Server::bind("127.0.0.1:0", demo_state()).unwrap();
        let handle = server.spawn().unwrap();
        let addr = handle.addr();

        let health = roundtrip(addr, "GET /api/v1/health HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
        assert!(health.contains(r#"{"status":"ok"}"#));

        let body = r#"{"query": "covid outbreak", "k": 2}"#;
        let rank = roundtrip(
            addr,
            &format!(
                "POST /api/v1/rank HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{}",
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
    fn concurrent_requests_are_served() {
        let server = Server::bind("127.0.0.1:0", demo_state()).unwrap();
        let handle = server.spawn().unwrap();
        let addr = handle.addr();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(move || {
                    let resp = roundtrip(addr, "GET /api/v1/corpus HTTP/1.1\r\nHost: t\r\n\r\n");
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
            let resp = roundtrip(addr, "GET /api/v1/health HTTP/1.1\r\nHost: t\r\n\r\n");
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
            let resp = roundtrip(addr, "GET /api/v1/health HTTP/1.1\r\nHost: t\r\n\r\n");
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
        // though the dummy wake-up connection may race the accept thread.
        for _ in 0..2 {
            let server = Server::bind("127.0.0.1:0", demo_state()).unwrap();
            let handle = server.spawn().unwrap();
            let started = Instant::now();
            handle.stop();
            assert!(
                started.elapsed() < Duration::from_secs(10),
                "stop took {:?}",
                started.elapsed()
            );
        }
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

        let health = roundtrip(addr, "GET /api/v1/health HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
        handle.stop();
    }
}
