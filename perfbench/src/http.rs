//! A minimal HTTP/1.1 keep-alive client over one raw socket.
//!
//! The library `Client` pools at most one connection and opens a fresh
//! `Connection: close` exchange for `POST` requests, and it reads whole
//! bodies before returning. The benchmark needs every request of a
//! closed-loop client on one kept-alive connection, and the time to the
//! first body byte, so it speaks the protocol itself.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One answered request.
pub struct Reply {
    pub code: u16,
    headers: Vec<(String, String)>,
    pub body: Vec<u8>,
    /// From the first request byte written to the first body byte read.
    pub ttfb: Duration,
    /// From the first request byte written to the last body byte read.
    pub elapsed: Duration,
}

impl Reply {
    /// The first header named `name` (lower case).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

/// A connection kept alive as long as the server allows. When the server
/// answers `Connection: close` (it caps requests per connection), the next
/// request reconnects, and the connect time counts toward that request. A
/// request that fails at the socket level leaves the connection unusable;
/// callers open a new one. Dropping the connection closes it.
pub struct Conn {
    addr: SocketAddr,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    closed: bool,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        let writer = stream.try_clone()?;
        let reader = BufReader::with_capacity(64 << 10, stream);
        Ok(Self { addr, reader, writer, closed: false })
    }

    /// Sends one request on the kept-alive connection and reads the whole
    /// response (chunked or `Content-Length` framed).
    pub fn send(&mut self, method: &str, path: &str, body: &[u8]) -> std::io::Result<Reply> {
        let started = Instant::now();
        if self.closed {
            *self = Self::open(self.addr)?;
        }
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\
             Content-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.writer.write_all(head.as_bytes())?;
        self.writer.write_all(body)?;
        let status = read_line(&mut self.reader)?;
        let code = status
            .split(' ')
            .nth(1)
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| bad(format!("bad status line `{status}`")))?;
        let mut headers = Vec::new();
        loop {
            let line = read_line(&mut self.reader)?;
            if line.is_empty() {
                break;
            }
            let (name, value) = line.split_once(':').ok_or_else(|| bad("bad header".into()))?;
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
        let find = |name: &str| headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str());
        let chunked = find("transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked"));
        let length: Option<usize> = find("content-length").and_then(|v| v.parse().ok());
        // The first body byte is in the buffer once `fill_buf` returns.
        if chunked || length.is_some_and(|n| n > 0) {
            self.reader.fill_buf()?;
        }
        let ttfb = started.elapsed();
        let mut out = Vec::new();
        if chunked {
            loop {
                let size_line = read_line(&mut self.reader)?;
                let size = usize::from_str_radix(size_line.trim(), 16)
                    .map_err(|_| bad(format!("bad chunk size `{size_line}`")))?;
                if size == 0 {
                    read_line(&mut self.reader)?;
                    break;
                }
                let start = out.len();
                out.resize(start + size, 0);
                self.reader.read_exact(&mut out[start..])?;
                read_line(&mut self.reader)?;
            }
        } else {
            let len = length.ok_or_else(|| bad("response has no length".into()))?;
            out.resize(len, 0);
            self.reader.read_exact(&mut out)?;
        }
        self.closed = find("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"));
        Ok(Reply { code, headers, body: out, ttfb, elapsed: started.elapsed() })
    }
}

fn read_line(reader: &mut BufReader<TcpStream>) -> std::io::Result<String> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "connection closed"));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

fn bad(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}
