//! HTTP/1.1 framing for both ends of the wire: the server's requests
//! ([`read_request`], [`Response::write_to`]) and the router's fanout legs
//! (`write_request`, `read_response`).
//!
//! One head reader reads every start line and header section, line by
//! line through what is left of [`MAX_HEADER`], so no line buffers past
//! it. One body reader reads every body into a buffer that grows only as
//! bytes arrive, so a declared length allocates nothing by itself. One
//! writer sends every message (head and body) in one `write_all`.
//!
//! A request is read from a [`BufRead`] that lives as long as its
//! connection, and the read takes exactly the request's bytes, so a server
//! connection carries one request after another: bytes buffered past one
//! request (a pipelined next request) start the next. Only a message after
//! which its sender closes carries `connection: close`; an answer without
//! it leaves the connection open, as HTTP/1.1 defaults. A request body is
//! its `Content-Length`, at most [`MAX_BODY`]; a response body is its
//! `Content-Length`, or everything up to the close when it has none.

use std::collections::HashMap;
use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};

/// Maximum accepted request body, in bytes.
pub const MAX_BODY: usize = 4 * 1024 * 1024;
/// Maximum accepted message head (start line and header section), in bytes.
pub const MAX_HEADER: usize = 64 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, uppercase (`GET`, `POST`, ...).
    pub method: String,
    /// Request path (no scheme/host), percent-decoding NOT applied — the
    /// CREDENCE routes use plain ASCII segments.
    pub path: String,
    /// Header map with lowercase keys.
    pub headers: HashMap<String, String>,
    /// The request body.
    pub body: Vec<u8>,
}

impl Request {
    /// The body as UTF-8, when valid.
    pub fn body_utf8(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }
}

/// HTTP-level parse failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The connection closed before a full message arrived.
    UnexpectedEof,
    /// The start line or a header was malformed.
    Malformed(&'static str),
    /// Body or message head exceeded the configured limits.
    TooLarge,
    /// Underlying I/O failure: its kind, which tells a read that timed out
    /// from a broken connection, and its message, for logging.
    Io(io::ErrorKind, String),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::UnexpectedEof => write!(f, "connection closed mid-request"),
            HttpError::Malformed(what) => write!(f, "malformed request: {what}"),
            HttpError::TooLarge => write!(f, "request exceeds size limits"),
            HttpError::Io(io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut, _) => {
                write!(
                    f,
                    "the rest of the request did not arrive within the read timeout"
                )
            }
            HttpError::Io(_, e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e.kind(), e.to_string())
    }
}

/// Read a message head: the start line, handed to `start` as soon as it
/// arrives, then header lines up to the blank line, with names lowercased.
/// Each line is read through what is left of [`MAX_HEADER`], so a line
/// that would pass it ends in [`HttpError::TooLarge`] without being
/// buffered whole.
fn read_head<S>(
    reader: &mut impl BufRead,
    start: impl FnOnce(&str) -> Result<S, HttpError>,
) -> Result<(S, HashMap<String, String>), HttpError> {
    let mut left = MAX_HEADER;
    let mut next_line = || -> Result<String, HttpError> {
        let mut line = String::new();
        let n = reader.by_ref().take(left as u64).read_line(&mut line)?;
        if n == 0 {
            return Err(if left == 0 {
                HttpError::TooLarge
            } else {
                HttpError::UnexpectedEof
            });
        }
        left -= n;
        if left == 0 && !line.ends_with('\n') {
            return Err(HttpError::TooLarge);
        }
        Ok(line)
    };
    let start = start(&next_line()?)?;
    let mut headers = HashMap::new();
    loop {
        let line = next_line()?;
        let line = line.trim_end();
        if line.is_empty() {
            return Ok((start, headers));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::Malformed("header without colon"))?;
        headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
    }
}

/// Read a body of `len` bytes, or everything up to the close when `len`
/// is `None`, through [`Read::take`] into a growing buffer: fewer than
/// `len` bytes is [`io::ErrorKind::UnexpectedEof`].
fn read_body(reader: impl Read, len: Option<u64>) -> io::Result<Vec<u8>> {
    let mut body = Vec::new();
    reader
        .take(len.unwrap_or(u64::MAX))
        .read_to_end(&mut body)?;
    if len.is_some_and(|len| (body.len() as u64) < len) {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    Ok(body)
}

/// Read one HTTP request, and no byte past it, from `reader`.
pub fn read_request(reader: impl BufRead) -> Result<Request, HttpError> {
    read_request_keep_alive(reader).map(|(request, _)| request)
}

/// [`read_request`], plus whether its connection may carry another request
/// after the answer: the client speaks HTTP/1.1 and does not ask to close
/// (HTTP/1.0 always closes), and the request is framed by its length. A
/// body sent with `Transfer-Encoding` is not read, so it would leave bytes
/// that the next request's framing misreads. The answer to `HEAD` is its
/// head alone ([`Response::send`]), so it keeps the connection too.
pub(crate) fn read_request_keep_alive(
    mut reader: impl BufRead,
) -> Result<(Request, bool), HttpError> {
    let ((method, path, http11), headers) = read_head(&mut reader, |line| {
        let mut parts = line.split_whitespace();
        let mut next = |missing| parts.next().ok_or(HttpError::Malformed(missing));
        let (method, path) = (next("missing method")?, next("missing path")?);
        let version = next("missing version")?;
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::Malformed("unsupported HTTP version"));
        }
        Ok((
            method.to_ascii_uppercase(),
            path.to_string(),
            version == "HTTP/1.1",
        ))
    })?;
    let keep_alive = http11
        && !headers.contains_key("transfer-encoding")
        && !headers.get("connection").is_some_and(|tokens| {
            tokens
                .split(',')
                .any(|token| token.trim().eq_ignore_ascii_case("close"))
        });

    let content_length = headers
        .get("content-length")
        .map(|v| v.parse::<usize>())
        .transpose()
        .map_err(|_| HttpError::Malformed("invalid content-length"))?
        .unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(HttpError::TooLarge);
    }
    let body = read_body(&mut reader, Some(content_length as u64)).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => HttpError::UnexpectedEof,
        _ => HttpError::from(e),
    })?;

    Ok((
        Request {
            method,
            path,
            headers,
            body,
        },
        keep_alive,
    ))
}

/// A worker's answer to one of the router's requests.
#[derive(Debug)]
pub(crate) struct WireResponse {
    pub status: u16,
    pub content_type: Option<String>,
    pub body: Vec<u8>,
}

/// Read one HTTP response from a stream.
pub(crate) fn read_response<R: Read>(stream: R) -> Result<WireResponse, HttpError> {
    let mut reader = BufReader::new(stream);
    let (status, mut headers) = read_head(&mut reader, |line| {
        line.split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or(HttpError::Malformed("missing status code"))
    })?;
    let len = headers.get("content-length").and_then(|v| v.parse().ok());
    Ok(WireResponse {
        status,
        content_type: headers.remove("content-type"),
        body: read_body(&mut reader, len)?,
    })
}

/// Write one message with one `write_all`: the start line, `headers` in
/// order, `content-length`, `connection: close` when the sender closes
/// after it, then the body. Formatting straight into an unbuffered socket
/// would issue a syscall per fragment, and a peer that answers after its
/// first read would close the connection under the rest.
fn write_message<'a>(
    mut w: impl Write,
    start: fmt::Arguments<'_>,
    headers: impl IntoIterator<Item = (&'a str, &'a str)>,
    content_length: usize,
    body: &[u8],
    close: bool,
) -> io::Result<()> {
    let mut message = Vec::with_capacity(256 + body.len());
    write!(message, "{start}\r\n")?;
    for (name, value) in headers {
        write!(message, "{name}: {value}\r\n")?;
    }
    write!(message, "content-length: {content_length}\r\n")?;
    if close {
        message.extend_from_slice(b"connection: close\r\n");
    }
    message.extend_from_slice(b"\r\n");
    message.extend_from_slice(body);
    w.write_all(&message)?;
    w.flush()
}

/// Write one router-to-worker request with a JSON body (empty for none).
/// The router opens one connection per request, so it asks to close.
pub(crate) fn write_request(
    w: impl Write,
    method: &str,
    path: &str,
    body: &[u8],
) -> io::Result<()> {
    write_message(
        w,
        format_args!("{method} {path} HTTP/1.1"),
        [("host", "worker"), ("content-type", "application/json")],
        body.len(),
        body,
        true,
    )
}

/// An HTTP response under construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Content type of the body.
    pub content_type: &'static str,
    /// Extra response headers (name, value), written after `content-type`.
    pub headers: Vec<(&'static str, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// An HTML page.
    pub fn html(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Self {
            status,
            content_type: "text/html; charset=utf-8",
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// Attach an extra response header (builder style).
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.headers.push((name, value.into()));
        self
    }

    /// The value of an extra header, when set (exact, lowercase names).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Serialise and write the response on a connection that stays open.
    pub fn write_to<W: Write>(&self, w: W) -> io::Result<()> {
        self.send(w, false, false)
    }

    /// Serialise and write the response; `close` adds `connection: close`,
    /// for an answer after which the server closes the connection, and
    /// `head` writes the head alone, with the body's `content-length`, for
    /// an answer to `HEAD`.
    pub(crate) fn send(&self, w: impl Write, close: bool, head: bool) -> io::Result<()> {
        let reason = match self.status {
            200 => "OK",
            201 => "Created",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            410 => "Gone",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        };
        let extra = self
            .headers
            .iter()
            .map(|(name, value)| (*name, value.as_str()));
        write_message(
            w,
            format_args!("HTTP/1.1 {} {reason}", self.status),
            std::iter::once(("content-type", self.content_type)).chain(extra),
            self.body.len(),
            if head { &[] } else { &self.body },
            close,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &str) -> Result<Request, HttpError> {
        read_request(raw.as_bytes())
    }

    #[test]
    fn parses_get() {
        let req = parse("GET /health HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/health");
        assert_eq!(req.headers.get("host").map(String::as_str), Some("x"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_with_body() {
        let body = r#"{"query":"covid"}"#;
        let raw = format!(
            "POST /rank HTTP/1.1\r\nContent-Length: {}\r\nContent-Type: application/json\r\n\r\n{}",
            body.len(),
            body
        );
        let req = parse(&raw).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body_utf8(), Some(body));
    }

    #[test]
    fn header_names_lowercased() {
        let req = parse("GET / HTTP/1.1\r\nX-THING: Value\r\n\r\n").unwrap();
        assert_eq!(
            req.headers.get("x-thing").map(String::as_str),
            Some("Value")
        );
    }

    #[test]
    fn rejects_malformed() {
        assert!(matches!(parse(""), Err(HttpError::UnexpectedEof)));
        assert!(matches!(parse("GET\r\n\r\n"), Err(HttpError::Malformed(_))));
        assert!(matches!(
            parse("GET / SPDY/3\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nBadHeader\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nContent-Length: pony\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_oversized_body_declaration() {
        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(matches!(parse(&raw), Err(HttpError::TooLarge)));
    }

    #[test]
    fn truncated_body_is_eof() {
        let raw = "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort";
        assert!(matches!(parse(raw), Err(HttpError::UnexpectedEof)));
    }

    #[test]
    fn a_declared_response_length_is_not_allocated_up_front() {
        // Above `isize::MAX`: no buffer of that size can exist, so only a
        // reader that grows with the bytes that arrive gets to the end.
        let raw = b"HTTP/1.1 200 OK\r\ncontent-length: 9223372036854775808\r\n\r\nhello";
        assert!(matches!(
            read_response(&raw[..]),
            Err(HttpError::Io(io::ErrorKind::UnexpectedEof, _))
        ));
        let raw = b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\nhello, and more";
        assert_eq!(read_response(&raw[..]).unwrap().body, b"hello");
    }

    #[test]
    fn response_serialises() {
        let mut out = Vec::new();
        Response::json(200, r#"{"ok":true}"#)
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-type: application/json\r\n"));
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.ends_with(r#"{"ok":true}"#));
    }

    #[test]
    fn extra_headers_serialised_before_content_length() {
        let mut out = Vec::new();
        Response::json(200, "{}")
            .with_header("deprecation", "true")
            .with_header("link", "</api/v1/rank>; rel=\"successor-version\"")
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("deprecation: true\r\n"));
        assert!(text.contains("link: </api/v1/rank>; rel=\"successor-version\"\r\n"));
        let headers = text.split("\r\n\r\n").next().unwrap();
        assert!(headers.contains("deprecation"));
    }

    #[test]
    fn header_lookup_finds_set_headers() {
        let resp = Response::json(200, "{}").with_header("deprecation", "true");
        assert_eq!(resp.header("deprecation"), Some("true"));
        assert_eq!(resp.header("link"), None);
    }

    #[test]
    fn response_status_reasons() {
        for (status, reason) in [
            (404, "Not Found"),
            (422, "Unprocessable Entity"),
            (599, "Unknown"),
        ] {
            let mut out = Vec::new();
            Response::text(status, "x").write_to(&mut out).unwrap();
            let text = String::from_utf8(out).unwrap();
            assert!(text.contains(reason), "{status} should say {reason}");
        }
    }

    /// Counts the bytes a parser pulls from the reader it wraps.
    struct Counting<R> {
        inner: R,
        pulled: usize,
    }

    impl<R: Read> Read for Counting<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.pulled += n;
            Ok(n)
        }
    }

    #[test]
    fn an_unterminated_line_stops_at_max_header() {
        // std's BufReader fills 8 KiB at a time.
        let bound = MAX_HEADER + 8 * 1024;
        for prefix in [&b""[..], b"GET / HTTP/1.1\r\nx-filler: "] {
            let mut reader = Counting {
                inner: prefix.chain(io::repeat(b'a').take(1 << 20)),
                pulled: 0,
            };
            assert_eq!(
                read_request(BufReader::new(&mut reader)),
                Err(HttpError::TooLarge)
            );
            assert!(
                reader.pulled <= bound,
                "pulled {} bytes for a {}-byte prefix",
                reader.pulled,
                prefix.len()
            );
        }
    }

    #[test]
    fn consecutive_requests_are_read_from_one_reader() {
        let raw = "GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\ncontent-length: 2\r\n\r\nhiGET /c HTTP/1.1\r\n\r\n";
        let mut reader = raw.as_bytes();
        for (path, body) in [("/a", ""), ("/b", "hi"), ("/c", "")] {
            let req = read_request(&mut reader).unwrap();
            assert_eq!((req.path.as_str(), req.body_utf8()), (path, Some(body)));
        }
        assert!(reader.is_empty());
    }

    #[test]
    fn keep_alive_needs_http_1_1_without_connection_close() {
        for (head, keep_alive) in [
            ("GET / HTTP/1.1\r\n", true),
            ("GET / HTTP/1.1\r\nConnection: keep-alive\r\n", true),
            ("GET / HTTP/1.1\r\nConnection: Close\r\n", false),
            ("GET / HTTP/1.1\r\nconnection: upgrade, close\r\n", false),
            ("GET / HTTP/1.0\r\n", false),
            ("GET / HTTP/1.0\r\nConnection: keep-alive\r\n", false),
            ("HEAD / HTTP/1.1\r\n", true),
            ("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n", false),
        ] {
            let raw = format!("{head}\r\n");
            let (_, got) = read_request_keep_alive(raw.as_bytes()).unwrap();
            assert_eq!(got, keep_alive, "{head}");
        }
    }

    #[test]
    fn response_bytes_are_pinned() {
        // A kept-alive answer carries no connection header.
        let mut out = Vec::new();
        Response::json(200, r#"{"ok":true}"#)
            .write_to(&mut out)
            .unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 11\r\n\r\n{\"ok\":true}"
        );
        let mut out = Vec::new();
        // The accept loop's answer when every connection slot is busy,
        // after which it closes the socket.
        crate::service::error_envelope(
            503,
            "overloaded",
            "all connection slots are busy; retry later",
        )
        .with_header("retry-after", "1")
        .send(&mut out, true, false)
        .unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "HTTP/1.1 503 Service Unavailable\r\ncontent-type: application/json\r\nretry-after: 1\r\ncontent-length: 86\r\nconnection: close\r\n\r\n{\"error\":{\"code\":\"overloaded\",\"message\":\"all connection slots are busy; retry later\"}}"
        );
    }
}
