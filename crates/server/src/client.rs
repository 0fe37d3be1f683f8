//! The router's fanout leg: one request per connection, framed by
//! [`crate::http`], under a deadline.
//!
//! Connect, write and read all run under the remaining time of an absolute
//! [`Instant`] deadline, so a leg never outlives its budget, and every
//! failure falls into one of the classes the router's degradation matrix
//! is built on.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::http::{read_response, write_request, HttpError, WireResponse};

/// Why a fanout leg failed, in the categories the degradation matrix
/// distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The worker could not be reached at all (refused, unreachable).
    Unreachable,
    /// The worker did not answer within the deadline.
    Deadline,
    /// The connection died or returned garbage mid-exchange.
    Protocol,
}

impl FailureKind {
    /// Stable label for logs and metrics.
    pub fn as_str(&self) -> &'static str {
        match self {
            FailureKind::Unreachable => "unreachable",
            FailureKind::Deadline => "deadline",
            FailureKind::Protocol => "protocol",
        }
    }
}

/// A failed fanout leg.
#[derive(Debug, Clone)]
pub struct FanoutError {
    /// Failure category.
    pub kind: FailureKind,
    /// Human-readable detail for logs.
    pub detail: String,
}

impl FanoutError {
    fn new(kind: FailureKind, detail: impl Into<String>) -> Self {
        Self {
            kind,
            detail: detail.into(),
        }
    }
}

fn remaining(deadline: Instant) -> Result<Duration, FanoutError> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        Err(FanoutError::new(
            FailureKind::Deadline,
            "deadline elapsed before the request completed",
        ))
    } else {
        Ok(left)
    }
}

/// A send or read that timed out is `Deadline`; any other I/O failure is
/// `Protocol`.
fn classify_io(kind: io::ErrorKind) -> FailureKind {
    match kind {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => FailureKind::Deadline,
        _ => FailureKind::Protocol,
    }
}

/// Send one HTTP request and read the full response, all under `deadline`.
///
/// `body = Some(..)` sends a JSON body; `None` sends an empty one.
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
    deadline: Instant,
) -> Result<WireResponse, FanoutError> {
    let stream = TcpStream::connect_timeout(&addr, remaining(deadline)?).map_err(|e| {
        let kind = match e.kind() {
            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => FailureKind::Deadline,
            _ => FailureKind::Unreachable,
        };
        FanoutError::new(kind, format!("connect {addr}: {e}"))
    })?;
    stream
        .set_write_timeout(Some(remaining(deadline)?))
        .and_then(|()| write_request(&stream, method, path, body.unwrap_or(&[])))
        .map_err(|e| FanoutError::new(classify_io(e.kind()), format!("send {addr}: {e}")))?;
    // One coarse read timeout from the remaining budget: every blocking
    // read aborts once the budget is spent. (Re-arming per read would only
    // tighten the bound; Connection: close responses are single reads in
    // practice.)
    stream
        .set_read_timeout(Some(remaining(deadline)?))
        .map_err(|e| FanoutError::new(FailureKind::Protocol, e.to_string()))?;
    read_response(&stream).map_err(|err| match err {
        HttpError::Io(kind, e) => FanoutError::new(classify_io(kind), format!("read {addr}: {e}")),
        other => FanoutError::new(
            FailureKind::Protocol,
            format!("{addr} sent an unreadable response head: {other:?}"),
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;
    use std::sync::mpsc;

    fn serve_once(response: &'static str) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            if let Ok((mut conn, _)) = listener.accept() {
                let mut buf = [0u8; 4096];
                let _ = conn.read(&mut buf);
                let _ = conn.write_all(response.as_bytes());
            }
        });
        addr
    }

    #[test]
    fn round_trips_a_response() {
        let addr = serve_once("HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nhi");
        let deadline = Instant::now() + Duration::from_secs(5);
        let resp = http_request(addr, "GET", "/health", None, deadline).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"hi");
    }

    #[test]
    fn reads_to_eof_without_content_length() {
        let addr = serve_once("HTTP/1.1 200 OK\r\n\r\nstream until close");
        let deadline = Instant::now() + Duration::from_secs(5);
        let resp = http_request(addr, "GET", "/", None, deadline).unwrap();
        assert_eq!(resp.body, b"stream until close");
    }

    #[test]
    fn refused_connection_is_unreachable() {
        // Bind-and-drop to find a port with nothing listening.
        let addr = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(1);
        let err = http_request(addr, "GET", "/", None, deadline).unwrap_err();
        assert_eq!(err.kind, FailureKind::Unreachable, "{}", err.detail);
    }

    #[test]
    fn silent_server_times_out_as_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Accept but never answer.
        std::thread::spawn(move || {
            let conn = listener.accept();
            std::thread::sleep(Duration::from_secs(3));
            drop(conn);
        });
        let deadline = Instant::now() + Duration::from_millis(150);
        let err = http_request(addr, "GET", "/", None, deadline).unwrap_err();
        assert_eq!(err.kind, FailureKind::Deadline, "{}", err.detail);
    }

    #[test]
    fn connection_reset_is_protocol() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            if let Ok((conn, _)) = listener.accept() {
                // Close immediately without writing a byte.
                drop(conn);
            }
        });
        let deadline = Instant::now() + Duration::from_secs(2);
        let err = http_request(addr, "GET", "/", None, deadline).unwrap_err();
        assert_eq!(err.kind, FailureKind::Protocol, "{}", err.detail);
    }

    #[test]
    fn an_unterminated_response_header_line_is_protocol_before_the_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (release, held) = mpsc::channel::<()>();
        let worker = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4096];
            let _ = conn.read(&mut buf);
            let mut head = b"HTTP/1.1 200 OK\r\nx-filler: ".to_vec();
            head.resize(head.len() + 256 * 1024, b'a');
            let _ = conn.write_all(&head);
            // Hold the socket open: no newline, no close.
            let _ = held.recv_timeout(Duration::from_secs(10));
        });
        let started = Instant::now();
        let deadline = started + Duration::from_secs(4);
        let err = http_request(addr, "GET", "/", None, deadline).unwrap_err();
        assert_eq!(err.kind, FailureKind::Protocol, "{}", err.detail);
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "the head bound, not the deadline, ended the read: {:?}",
            started.elapsed()
        );
        drop(release);
        worker.join().unwrap();
    }

    #[test]
    fn a_short_body_under_a_huge_declared_length_is_protocol_before_the_deadline() {
        let addr =
            serve_once("HTTP/1.1 200 OK\r\ncontent-length: 9223372036854775808\r\n\r\nhello");
        let started = Instant::now();
        let deadline = started + Duration::from_secs(4);
        let err = http_request(addr, "GET", "/", None, deadline).unwrap_err();
        assert_eq!(err.kind, FailureKind::Protocol, "{}", err.detail);
        assert!(Instant::now() < deadline, "{:?}", started.elapsed());
    }

    #[test]
    fn a_body_that_stalls_mid_read_is_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (release, held) = mpsc::channel::<()>();
        let worker = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4096];
            let _ = conn.read(&mut buf);
            let _ = conn.write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 10\r\n\r\nhello");
            // Hold the socket open with half the body sent.
            let _ = held.recv_timeout(Duration::from_secs(10));
        });
        let deadline = Instant::now() + Duration::from_millis(300);
        let err = http_request(addr, "GET", "/", None, deadline).unwrap_err();
        assert_eq!(err.kind, FailureKind::Deadline, "{}", err.detail);
        drop(release);
        worker.join().unwrap();
    }

    /// Capture the bytes of one request the client sends, answering it
    /// with an empty 200.
    fn sent_bytes(method: &str, path: &str, body: Option<&[u8]>, len: usize) -> Vec<u8> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let worker = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut sent = vec![0u8; len];
            conn.read_exact(&mut sent).unwrap();
            conn.write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 0\r\n\r\n")
                .unwrap();
            // Anything past the expected bytes shows up before the close.
            conn.read_to_end(&mut sent).unwrap();
            sent
        });
        let deadline = Instant::now() + Duration::from_secs(5);
        let resp = http_request(addr, method, path, body, deadline).unwrap();
        assert_eq!(resp.status, 200);
        worker.join().unwrap()
    }

    #[test]
    fn request_bytes_are_pinned() {
        let post: &[u8] = b"POST /api/v1/rank HTTP/1.1\r\nhost: worker\r\ncontent-type: application/json\r\ncontent-length: 23\r\nconnection: close\r\n\r\n{\"query\":\"covid\",\"k\":2}";
        let sent = sent_bytes(
            "POST",
            "/api/v1/rank",
            Some(br#"{"query":"covid","k":2}"#),
            post.len(),
        );
        assert_eq!(
            String::from_utf8_lossy(&sent),
            String::from_utf8_lossy(post)
        );
        let get: &[u8] = b"GET /api/v1/health HTTP/1.1\r\nhost: worker\r\ncontent-type: application/json\r\ncontent-length: 0\r\nconnection: close\r\n\r\n";
        let sent = sent_bytes("GET", "/api/v1/health", None, get.len());
        assert_eq!(String::from_utf8_lossy(&sent), String::from_utf8_lossy(get));
    }
}
