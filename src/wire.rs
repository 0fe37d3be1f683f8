//! One raw HTTP/1.1 exchange over a real socket, for the integration tests.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// Send `method path`, with `body` as JSON when given, asking the server to
/// close after its answer (`Connection: close`), and read that answer to
/// the close: its status, its head through the blank line, and its body.
pub fn raw_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> (u16, String, String) {
    let mut conn = TcpStream::connect(addr).expect("connect to the server under test");
    let raw = match body {
        None => format!("{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"),
        Some(b) => format!(
            "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\
             Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{b}",
            b.len()
        ),
    };
    conn.write_all(raw.as_bytes()).expect("send the request");
    let mut head = String::new();
    conn.read_to_string(&mut head).expect("read the answer");
    let status = head
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let body_start = head.find("\r\n\r\n").expect("header terminator") + 4;
    let body = head.split_off(body_start);
    (status, head, body)
}
