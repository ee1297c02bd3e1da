//! Minimal HTTP/1.1 on top of [`std::io`]: request parsing with hard
//! limits, and response writing. No external deps, no panics — every
//! malformed input maps to a typed [`HttpError`] that the connection
//! loop turns into a 4xx envelope.
//!
//! Limits: request/header lines are capped at [`MAX_LINE_BYTES`], a
//! request may carry at most [`MAX_HEADERS`] headers, and the body is
//! bounded by the server's configured `max_body_bytes` (checked against
//! `Content-Length` *before* any body byte is read). Percent-encoding
//! in query strings is not decoded — every parameter this API takes is
//! numeric.

use std::io::{BufRead, Write};

/// Cap on the request line and on each header line.
pub const MAX_LINE_BYTES: usize = 8 * 1024;
/// Cap on the number of request headers.
pub const MAX_HEADERS: usize = 64;

/// A parsed request: method, path split from its query string, and the
/// fully-read UTF-8 body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, uppercase as sent (`GET`, `POST`, ...).
    pub method: String,
    /// Path without the query string, e.g. `/query_k`.
    pub path: String,
    /// Query parameters in order of appearance (no percent-decoding).
    pub query: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: String,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

/// An HTTP-level rejection: status, stable machine-readable code, and
/// human-readable detail. Becomes an error envelope on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpError {
    /// HTTP status to answer with.
    pub status: u16,
    /// Stable snake_case code for the envelope.
    pub code: &'static str,
    /// Human-readable detail for the envelope.
    pub message: String,
}

impl HttpError {
    /// Builds an error.
    pub fn new(status: u16, code: &'static str, message: impl Into<String>) -> Self {
        Self {
            status,
            code,
            message: message.into(),
        }
    }
}

/// Outcome of trying to read one request off a connection.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete request was parsed.
    Request(Request),
    /// The peer closed (or went idle past the timeout) between
    /// requests; nothing to answer.
    Closed,
    /// The bytes were not a valid request; answer this and hang up.
    Error(HttpError),
}

/// Reads one line (terminated by `\n`, trailing `\r` stripped) with a
/// hard byte cap. `Ok(None)` means clean EOF / idle timeout before any
/// byte of the line arrived.
fn read_line_capped<R: BufRead>(r: &mut R) -> Result<Option<String>, HttpError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let buf = match r.fill_buf() {
            Ok(b) => b,
            Err(_) if line.is_empty() => return Ok(None),
            Err(_) => {
                return Err(HttpError::new(
                    400,
                    "truncated_request",
                    "connection failed mid-line",
                ))
            }
        };
        if buf.is_empty() {
            // EOF
            return if line.is_empty() {
                Ok(None)
            } else {
                Err(HttpError::new(
                    400,
                    "truncated_request",
                    "connection closed mid-line",
                ))
            };
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(i) => {
                line.extend_from_slice(&buf[..i]);
                r.consume(i + 1);
                break;
            }
            None => {
                line.extend_from_slice(buf);
                let n = buf.len();
                r.consume(n);
            }
        }
        if line.len() > MAX_LINE_BYTES {
            return Err(HttpError::new(
                431,
                "line_too_long",
                format!("request/header line exceeds {MAX_LINE_BYTES} bytes"),
            ));
        }
    }
    // the newline can arrive in the same buffered chunk as the overlong
    // line, so the cap must hold on the completed line too
    if line.len() > MAX_LINE_BYTES {
        return Err(HttpError::new(
            431,
            "line_too_long",
            format!("request/header line exceeds {MAX_LINE_BYTES} bytes"),
        ));
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    match String::from_utf8(line) {
        Ok(s) => Ok(Some(s)),
        Err(_) => Err(HttpError::new(
            400,
            "invalid_utf8",
            "request line or header is not valid UTF-8",
        )),
    }
}

/// Splits `target` into path + query pairs.
fn split_target(target: &str) -> (String, Vec<(String, String)>) {
    match target.split_once('?') {
        None => (target.to_string(), Vec::new()),
        Some((path, qs)) => {
            let pairs = qs
                .split('&')
                .filter(|p| !p.is_empty())
                .map(|p| match p.split_once('=') {
                    Some((k, v)) => (k.to_string(), v.to_string()),
                    None => (p.to_string(), String::new()),
                })
                .collect();
            (path.to_string(), pairs)
        }
    }
}

/// Reads and parses one request. `max_body` bounds the body *before*
/// it is read; the declared `Content-Length` is the only framing
/// supported (no chunked encoding — a `Transfer-Encoding` header is
/// rejected outright rather than misparsed).
pub fn read_request<R: BufRead>(r: &mut R, max_body: usize) -> ReadOutcome {
    let line = match read_line_capped(r) {
        Ok(Some(l)) => l,
        Ok(None) => return ReadOutcome::Closed,
        Err(e) => return ReadOutcome::Error(e),
    };
    let mut parts = line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) if !m.is_empty() => (m.to_string(), t.to_string()),
        _ => {
            return ReadOutcome::Error(HttpError::new(
                400,
                "malformed_request",
                format!("malformed request line: `{line}`"),
            ))
        }
    };
    let http10 = parts.next() == Some("HTTP/1.0");

    let mut content_length: Option<u64> = None;
    let mut connection: Option<String> = None;
    let mut n_headers = 0usize;
    loop {
        let header = match read_line_capped(r) {
            Ok(Some(h)) => h,
            Ok(None) => {
                return ReadOutcome::Error(HttpError::new(
                    400,
                    "truncated_request",
                    "connection closed inside the header block",
                ))
            }
            Err(e) => return ReadOutcome::Error(e),
        };
        if header.is_empty() {
            break;
        }
        n_headers += 1;
        if n_headers > MAX_HEADERS {
            return ReadOutcome::Error(HttpError::new(
                431,
                "too_many_headers",
                format!("more than {MAX_HEADERS} headers"),
            ));
        }
        let Some((name, value)) = header.split_once(':') else {
            return ReadOutcome::Error(HttpError::new(
                400,
                "malformed_header",
                format!("header without `:`: `{header}`"),
            ));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                if content_length.is_some() {
                    return ReadOutcome::Error(HttpError::new(
                        400,
                        "invalid_content_length",
                        "duplicate Content-Length header",
                    ));
                }
                // an overflowing decimal (> u64::MAX) fails this parse
                // too, which is exactly the rejection we want
                match value.parse::<u64>() {
                    Ok(n) => content_length = Some(n),
                    Err(_) => {
                        return ReadOutcome::Error(HttpError::new(
                            400,
                            "invalid_content_length",
                            format!("Content-Length `{value}` is not an unsigned integer"),
                        ))
                    }
                }
            }
            "connection" => connection = Some(value.to_ascii_lowercase()),
            "transfer-encoding" => {
                return ReadOutcome::Error(HttpError::new(
                    400,
                    "unsupported_transfer_encoding",
                    "chunked bodies are not supported; send Content-Length",
                ))
            }
            _ => {}
        }
    }

    let body = match content_length {
        None => String::new(),
        Some(len) => {
            if len > max_body as u64 {
                return ReadOutcome::Error(HttpError::new(
                    413,
                    "payload_too_large",
                    format!("Content-Length {len} exceeds the {max_body}-byte cap"),
                ));
            }
            // max_body is a usize, so len fits after the check above
            let mut buf = vec![0u8; len as usize];
            if r.read_exact(&mut buf).is_err() {
                return ReadOutcome::Error(HttpError::new(
                    400,
                    "truncated_body",
                    format!("connection ended before the declared {len} body bytes"),
                ));
            }
            match String::from_utf8(buf) {
                Ok(s) => s,
                Err(_) => {
                    return ReadOutcome::Error(HttpError::new(
                        400,
                        "invalid_utf8",
                        "request body is not valid UTF-8",
                    ))
                }
            }
        }
    };

    let keep_alive = match connection.as_deref() {
        Some("close") => false,
        Some("keep-alive") => true,
        _ => !http10,
    };
    let (path, query) = split_target(&target);
    ReadOutcome::Request(Request {
        method,
        path,
        query,
        body,
        keep_alive,
    })
}

/// Reason phrase for the statuses this server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

/// Writes one JSON response and flushes it, in a single `write_all`.
pub fn write_response<W: Write>(
    w: &mut W,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    write_response_with(w, &mut Vec::new(), status, body, keep_alive)
}

/// [`write_response`] through a caller-owned buffer, so a connection
/// reuses one allocation across keep-alive requests. The status line,
/// headers and body are assembled in `buf` and handed to `w` in one
/// `write_all`: the server sets TCP_NODELAY, so every separate write
/// would leave as its own segment.
pub(crate) fn write_response_with<W: Write>(
    w: &mut W,
    buf: &mut Vec<u8>,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    buf.clear();
    // the status line and headers take at most 142 bytes
    buf.reserve(160 + body.len());
    write!(
        buf,
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
        reason(status),
        body.len(),
    )?;
    buf.extend_from_slice(body.as_bytes());
    w.write_all(buf)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, Cursor, Read};

    fn parse(raw: &[u8]) -> ReadOutcome {
        read_request(&mut Cursor::new(raw), 1024)
    }

    fn expect_req(raw: &[u8]) -> Request {
        match parse(raw) {
            ReadOutcome::Request(r) => r,
            other => panic!("expected a request, got {other:?}"),
        }
    }

    fn expect_err(raw: &[u8]) -> HttpError {
        match parse(raw) {
            ReadOutcome::Error(e) => e,
            other => panic!("expected an error, got {other:?}"),
        }
    }

    #[test]
    fn parses_a_request_with_query_and_body() {
        let req = expect_req(b"POST /query_k?k=5&seed=7 HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/query_k");
        assert_eq!(
            req.query,
            vec![("k".into(), "5".into()), ("seed".into(), "7".into())]
        );
        assert_eq!(req.body, "{}");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn connection_header_controls_keep_alive() {
        assert!(!expect_req(b"GET /f0 HTTP/1.1\r\nConnection: close\r\n\r\n").keep_alive);
        assert!(!expect_req(b"GET /f0 HTTP/1.0\r\n\r\n").keep_alive);
        assert!(expect_req(b"GET /f0 HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").keep_alive);
    }

    #[test]
    fn missing_content_length_means_empty_body() {
        let req = expect_req(b"POST /ingest HTTP/1.1\r\n\r\n{\"points\": []}");
        assert_eq!(
            req.body, "",
            "bytes after the header block are not read blind"
        );
    }

    #[test]
    fn eof_before_any_request_is_a_clean_close() {
        assert!(matches!(parse(b""), ReadOutcome::Closed));
    }

    #[test]
    fn truncated_header_block_is_an_error() {
        let e = expect_err(b"GET /f0 HTTP/1.1\r\nHost: x\r\n");
        assert_eq!((e.status, e.code), (400, "truncated_request"));
    }

    #[test]
    fn bad_duplicate_and_overflowing_content_length() {
        let e = expect_err(b"POST /ingest HTTP/1.1\r\nContent-Length: abc\r\n\r\n");
        assert_eq!((e.status, e.code), (400, "invalid_content_length"));
        let e = expect_err(b"POST /i HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 1\r\n\r\nx");
        assert_eq!((e.status, e.code), (400, "invalid_content_length"));
        // 2^64 overflows u64 and must be rejected, not wrapped
        let e = expect_err(b"POST /i HTTP/1.1\r\nContent-Length: 18446744073709551616\r\n\r\n");
        assert_eq!((e.status, e.code), (400, "invalid_content_length"));
    }

    #[test]
    fn oversized_body_is_rejected_before_reading_it() {
        let e = expect_err(b"POST /ingest HTTP/1.1\r\nContent-Length: 4096\r\n\r\n");
        assert_eq!((e.status, e.code), (413, "payload_too_large"));
    }

    #[test]
    fn truncated_body_is_an_error() {
        let e = expect_err(b"POST /ingest HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort");
        assert_eq!((e.status, e.code), (400, "truncated_body"));
    }

    #[test]
    fn invalid_utf8_body_is_an_error() {
        let e = expect_err(b"POST /ingest HTTP/1.1\r\nContent-Length: 2\r\n\r\n\xff\xfe");
        assert_eq!((e.status, e.code), (400, "invalid_utf8"));
    }

    #[test]
    fn header_line_cap_and_header_count_cap_hold() {
        let mut raw = b"GET /f0 HTTP/1.1\r\nX-Big: ".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_LINE_BYTES + 2));
        raw.extend_from_slice(b"\r\n\r\n");
        let e = expect_err(&raw);
        assert_eq!((e.status, e.code), (431, "line_too_long"));

        let mut raw = b"GET /f0 HTTP/1.1\r\n".to_vec();
        for i in 0..=MAX_HEADERS {
            raw.extend_from_slice(format!("X-H{i}: v\r\n").as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        let e = expect_err(&raw);
        assert_eq!((e.status, e.code), (431, "too_many_headers"));
    }

    #[test]
    fn chunked_transfer_encoding_is_rejected() {
        let e = expect_err(b"POST /ingest HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
        assert_eq!((e.status, e.code), (400, "unsupported_transfer_encoding"));
    }

    #[test]
    fn malformed_request_line_and_header() {
        let e = expect_err(b"NONSENSE\r\n\r\n");
        assert_eq!((e.status, e.code), (400, "malformed_request"));
        let e = expect_err(b"GET /f0 HTTP/1.1\r\nno-colon-here\r\n\r\n");
        assert_eq!((e.status, e.code), (400, "malformed_header"));
    }

    /// A `Read` that yields at most one byte per call, as a client that
    /// sends a request in many small writes can.
    struct OneByteAtATime<'a>(&'a [u8]);

    impl Read for OneByteAtATime<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match (self.0.split_first(), buf.first_mut()) {
                (Some((&byte, rest)), Some(slot)) => {
                    *slot = byte;
                    self.0 = rest;
                    Ok(1)
                }
                _ => Ok(0),
            }
        }
    }

    #[test]
    fn fragmented_requests_parse_as_whole_ones() {
        let mut long_line = b"GET /f0 HTTP/1.1\r\nX-Big: ".to_vec();
        long_line.resize(
            long_line.len() + MAX_LINE_BYTES + 1 - b"X-Big: ".len(),
            b'a',
        );
        long_line.extend_from_slice(b"\r\n\r\n");
        let cases: [&[u8]; 3] = [
            b"POST /query_k?k=5&seed=7 HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
            &long_line,
            b"POST /ingest HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort",
        ];
        let mut outcomes = Vec::new();
        for raw in cases {
            let fragmented = read_request(&mut BufReader::new(OneByteAtATime(raw)), 1024);
            match (parse(raw), fragmented) {
                (ReadOutcome::Request(a), ReadOutcome::Request(b)) => assert_eq!(a, b),
                (ReadOutcome::Error(a), ReadOutcome::Error(b)) => {
                    assert_eq!(a, b);
                    outcomes.push((a.status, a.code));
                }
                (whole, fragmented) => panic!("{whole:?} vs fragmented {fragmented:?}"),
            }
        }
        assert_eq!(
            outcomes,
            [(431, "line_too_long"), (400, "truncated_body")],
            "the last two cases are rejected"
        );
    }

    #[test]
    fn response_writer_frames_the_body() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "{\"ok\":true}", true).expect("write");
        assert_eq!(
            String::from_utf8(out).expect("ascii"),
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 11\r\n\
             Connection: keep-alive\r\n\r\n{\"ok\":true}"
        );
    }
}
