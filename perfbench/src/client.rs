//! The load generator's HTTP/1.1 client: one request per connection,
//! like the server, with the time of each step recorded. It is the
//! benchmark's own, so a change to the server crate's client cannot
//! change what the benchmark measures.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::config::TIMEOUT_MS;

/// One answered request. Step times are in nanoseconds from the start
/// of the call.
pub struct Reply {
    pub status: u16,
    pub body: String,
    /// Connected.
    pub connected_ns: u64,
    /// Request fully written.
    pub written_ns: u64,
    /// First response byte read.
    pub first_byte_ns: u64,
    /// Response read to EOF (the server closes after one response).
    pub done_ns: u64,
}

pub fn get(addr: SocketAddr, target: &str) -> Result<Reply, String> {
    request(addr, "GET", target, "")
}

pub fn post(addr: SocketAddr, target: &str, body: &str) -> Result<Reply, String> {
    request(addr, "POST", target, body)
}

fn request(addr: SocketAddr, method: &str, target: &str, body: &str) -> Result<Reply, String> {
    let timeout = Duration::from_secs_f64(TIMEOUT_MS / 1000.0);
    let t0 = Instant::now();
    let ns = || t0.elapsed().as_nanos() as u64;
    let mut stream =
        TcpStream::connect_timeout(&addr, timeout).map_err(|e| format!("connect {addr}: {e}"))?;
    let connected_ns = ns();
    stream.set_read_timeout(Some(timeout)).map_err(|e| e.to_string())?;
    stream.set_write_timeout(Some(timeout)).map_err(|e| e.to_string())?;
    let mut req = format!(
        "{method} {target} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\
         Content-Type: application/json\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body.as_bytes());
    stream.write_all(&req).map_err(|e| format!("write {addr}: {e}"))?;
    let written_ns = ns();
    let mut raw = vec![0u8; 64 * 1024];
    let first = stream.read(&mut raw).map_err(|e| format!("read {addr}: {e}"))?;
    let first_byte_ns = ns();
    raw.truncate(first);
    if first > 0 {
        stream.read_to_end(&mut raw).map_err(|e| format!("read {addr}: {e}"))?;
    }
    let done_ns = ns();
    let text = String::from_utf8(raw).map_err(|_| "response is not UTF-8".to_owned())?;
    let (head, body) =
        text.split_once("\r\n\r\n").ok_or_else(|| "response has no header end".to_owned())?;
    let status = head
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("HTTP/1."))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line in {:?}", head.lines().next()))?;
    Ok(Reply { status, body: body.to_owned(), connected_ns, written_ns, first_byte_ns, done_ns })
}
