//! A tiny blocking HTTP/1.1 client: just enough to talk to an
//! rds-server. Shared by the e2e test suites and the benchmark's `http`
//! workload, so both exercise the exact wire format the server speaks
//! (keep-alive, `Content-Length` framing, JSON bodies).

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

fn bad(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// A persistent (keep-alive) connection to an rds-server.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Connects.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            reader,
            writer: stream,
        })
    }

    /// Bounds how long a single response may take.
    pub fn set_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.writer.set_read_timeout(timeout)
    }

    /// Sends `method path` with an optional JSON body and returns
    /// `(status, body)`. Error statuses are returned, not mapped to
    /// `Err` — an `Err` means the conversation itself broke.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<(u16, String)> {
        let body = body.unwrap_or("");
        write!(
            self.writer,
            "{method} {path} HTTP/1.1\r\nHost: rds\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
            body.len()
        )?;
        self.writer.flush()?;
        read_response(&mut self.reader)
    }
}

/// Reads one `(status, body)` response off a buffered stream.
fn read_response<R: BufRead>(r: &mut R) -> std::io::Result<(u16, String)> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(bad("connection closed before the status line".to_string()));
    }
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("malformed status line: {line:?}")))?;
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        if r.read_line(&mut header)? == 0 {
            return Err(bad("connection closed inside response headers".to_string()));
        }
        let header = header.trim();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad(format!("bad response Content-Length: {value:?}")))?;
            }
        }
    }
    let mut body = vec![0u8; content_length];
    r.read_exact(&mut body)?;
    String::from_utf8(body)
        .map(|b| (status, b))
        .map_err(|_| bad("response body is not UTF-8".to_string()))
}

/// One request on a fresh connection (closed afterwards).
pub fn request_once(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<(u16, String)> {
    let mut conn = Conn::connect(addr)?;
    conn.request(method, path, body)
}
