//! A blocking HTTP/1.1 client ready for keep-alive. It never asks for
//! `Connection: close`, reuses its connection whenever the response allows,
//! and reconnects otherwise. It counts the connections it opens and times
//! connect separately from time to first byte, so a server-side keep-alive
//! change shows without editing the benchmark.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Connections open now and the most ever open at once, shared by every
/// client of a run.
#[derive(Default)]
pub struct ConnGauge {
    open: AtomicUsize,
    max: AtomicUsize,
}

impl ConnGauge {
    fn opened(&self) {
        let now = self.open.fetch_add(1, Ordering::SeqCst) + 1;
        self.max.fetch_max(now, Ordering::SeqCst);
    }

    fn closed(&self) {
        self.open.fetch_sub(1, Ordering::SeqCst);
    }

    /// The most connections ever open at once.
    pub fn max(&self) -> usize {
        self.max.load(Ordering::SeqCst)
    }
}

/// One answered request.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
    /// Time spent in `connect`, 0 when the connection was reused.
    pub connect: Duration,
    /// From the first byte of the request written to the first byte read.
    pub ttfb: Duration,
    /// From connect (or the write, on a reused connection) to the last byte.
    pub total: Duration,
}

/// One client connection slot.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    gauge: Arc<ConnGauge>,
    /// Connections this slot opened.
    pub opened: u64,
}

const TIMEOUT: Duration = Duration::from_secs(60);

impl Conn {
    pub fn new(addr: SocketAddr, gauge: Arc<ConnGauge>) -> Self {
        Self {
            addr,
            stream: None,
            buf: Vec::with_capacity(16 * 1024),
            gauge,
            opened: 0,
        }
    }

    fn close(&mut self) {
        if self.stream.take().is_some() {
            self.gauge.closed();
        }
        self.buf.clear();
    }

    fn connect(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect_timeout(&self.addr, TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(TIMEOUT))?;
        stream.set_write_timeout(Some(TIMEOUT))?;
        self.stream = Some(stream);
        self.opened += 1;
        self.gauge.opened();
        Ok(())
    }

    /// Send one raw request and read its response. A reused connection the
    /// server closed while idle fails before any response byte; that case
    /// reconnects and resends once.
    pub fn send(&mut self, raw: &[u8]) -> io::Result<Reply> {
        let reused = self.stream.is_some();
        match self.attempt(raw) {
            Err((_, false)) if reused => {
                self.close();
                self.attempt(raw).map_err(|(e, _)| e)
            }
            other => other.map_err(|(e, _)| e),
        }
    }

    fn attempt(&mut self, raw: &[u8]) -> Result<Reply, (io::Error, bool)> {
        let start = Instant::now();
        let mut connect = Duration::ZERO;
        if self.stream.is_none() {
            self.connect().map_err(|e| (e, false))?;
            connect = start.elapsed();
        }
        let sent = Instant::now();
        let result = self.exchange(raw, sent);
        match result {
            Ok((status, body, first_byte, keep)) => {
                let total = start.elapsed();
                if !keep {
                    self.close();
                }
                Ok(Reply {
                    status,
                    body,
                    connect,
                    ttfb: first_byte.duration_since(sent),
                    total,
                })
            }
            Err(e) => {
                self.close();
                Err(e)
            }
        }
    }

    /// Write the request and read one response: (status, body, time of the
    /// first response byte, whether the connection may be reused).
    #[allow(clippy::type_complexity)]
    fn exchange(
        &mut self,
        raw: &[u8],
        sent: Instant,
    ) -> Result<(u16, Vec<u8>, Instant, bool), (io::Error, bool)> {
        let stream = self.stream.as_mut().expect("connected above");
        stream.write_all(raw).map_err(|e| (e, false))?;
        let mut first_byte = None;
        let mut chunk = [0u8; 16 * 1024];
        let header_end = loop {
            if let Some(end) = find(&self.buf, b"\r\n\r\n") {
                break end;
            }
            let n = stream
                .read(&mut chunk)
                .map_err(|e| (e, first_byte.is_some()))?;
            if n == 0 {
                let got = first_byte.is_some() || !self.buf.is_empty();
                return Err((eof(), got));
            }
            first_byte.get_or_insert_with(Instant::now);
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let first_byte = first_byte.unwrap_or(sent);
        let head = std::str::from_utf8(&self.buf[..header_end])
            .map_err(|_| (bad("non-UTF-8 response head"), true))?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let mut parts = status_line.split(' ');
        let version = parts.next().unwrap_or("");
        let status: u16 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| (bad("bad status line"), true))?;
        let mut length = None;
        let mut connection = String::new();
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                let name = name.trim().to_ascii_lowercase();
                if name == "content-length" {
                    length = value.trim().parse::<usize>().ok();
                } else if name == "connection" {
                    connection = value.trim().to_ascii_lowercase();
                }
            }
        }
        let keep = match version {
            "HTTP/1.1" => connection != "close",
            _ => connection == "keep-alive",
        } && length.is_some();
        let body_start = header_end + 4;
        let body = match length {
            Some(len) => {
                while self.buf.len() < body_start + len {
                    let n = stream.read(&mut chunk).map_err(|e| (e, true))?;
                    if n == 0 {
                        return Err((eof(), true));
                    }
                    self.buf.extend_from_slice(&chunk[..n]);
                }
                let body = self.buf[body_start..body_start + len].to_vec();
                self.buf.drain(..body_start + len);
                body
            }
            None => {
                let mut rest = self.buf.split_off(body_start);
                stream.read_to_end(&mut rest).map_err(|e| (e, true))?;
                self.buf.clear();
                rest
            }
        };
        Ok((status, body, first_byte, keep))
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        self.close();
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn eof() -> io::Error {
    io::Error::new(
        io::ErrorKind::UnexpectedEof,
        "connection closed mid-response",
    )
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// `GET` request bytes for `path`.
pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nhost: localhost\r\n\r\n").into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A one-thread test server answering `count` requests per connection
    /// (`Connection: close` on the last), for `conns` connections.
    fn serve(conns: usize, per_conn: usize) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for _ in 0..conns {
                let (mut s, _) = listener.accept().unwrap();
                let mut buf = Vec::new();
                for i in 0..per_conn {
                    let mut chunk = [0u8; 1024];
                    while find(&buf, b"\r\n\r\n").is_none() {
                        let n = s.read(&mut chunk).unwrap();
                        buf.extend_from_slice(&chunk[..n]);
                    }
                    let end = find(&buf, b"\r\n\r\n").unwrap();
                    buf.drain(..end + 4);
                    let close = if i + 1 == per_conn {
                        "connection: close\r\n"
                    } else {
                        ""
                    };
                    let body = format!("reply {i}");
                    write!(
                        s,
                        "HTTP/1.1 200 OK\r\ncontent-length: {}\r\n{close}\r\n{body}",
                        body.len()
                    )
                    .unwrap();
                }
            }
        });
        addr
    }

    #[test]
    fn reuses_a_keep_alive_connection_and_reconnects_after_close() {
        let addr = serve(2, 3);
        let gauge = Arc::new(ConnGauge::default());
        let mut conn = Conn::new(addr, Arc::clone(&gauge));
        let get = get("/x");
        let mut bodies = Vec::new();
        for _ in 0..6 {
            let reply = conn.send(&get).unwrap();
            assert_eq!(reply.status, 200);
            bodies.push(String::from_utf8(reply.body).unwrap());
        }
        assert_eq!(bodies, ["reply 0", "reply 1", "reply 2"].repeat(2));
        assert_eq!(conn.opened, 2, "one connection per three requests");
        assert_eq!(gauge.max(), 1);
    }

    #[test]
    fn connection_close_answers_open_one_connection_each() {
        let addr = serve(3, 1);
        let gauge = Arc::new(ConnGauge::default());
        let mut conn = Conn::new(addr, Arc::clone(&gauge));
        for _ in 0..3 {
            assert_eq!(conn.send(&get("/y")).unwrap().body, b"reply 0");
        }
        assert_eq!(conn.opened, 3);
        assert_eq!(gauge.max(), 1);
    }
}
