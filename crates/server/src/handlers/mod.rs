//! Request dispatch and the per-connection serve loop.
//!
//! Handlers are functions `(&Request, &Shared) -> Result<Outcome,
//! HttpError>` that run on the worker thread: reads answer from a
//! lock-free snapshot pointer, global writes apply to the writer under
//! its lock ([`write`]), tenant writes go to the registry. The global
//! and `/t/{tenant}/...` endpoints share one implementation each and
//! differ only in where a snapshot comes from and where a batch goes.
//! Nothing on this path may panic — a malformed request is a 4xx
//! envelope, never a dead worker (lint rule L8 machine-checks this).

pub(crate) mod admin;
pub(crate) mod ingest;
pub(crate) mod query;
pub(crate) mod tenant;

use crate::api_types;
use crate::http::{self, HttpError, ReadOutcome, Request};
use crate::router::{self, Route};
use crate::{Ack, Shared};
use rds_core::RdsError;
use robust_distinct_sampling::RdsWriter;
use serde::Deserialize;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::time::Duration;

/// What a handler produced: status + JSON body.
pub(crate) struct Outcome {
    pub(crate) status: u16,
    pub(crate) body: String,
}

impl Outcome {
    /// A 200 with the given JSON body.
    pub(crate) fn ok(body: String) -> Self {
        Self { status: 200, body }
    }

    /// The envelope for an HTTP-level or handler-level rejection.
    pub(crate) fn from_http_error(e: &HttpError) -> Self {
        Self {
            status: e.status,
            body: api_types::envelope(e.code, &e.message),
        }
    }
}

/// Routes and runs one request.
pub(crate) fn dispatch(req: &Request, shared: &Shared) -> Outcome {
    let route = match router::route(&req.method, &req.path) {
        Ok(r) => r,
        Err(e) => return Outcome::from_http_error(&e),
    };
    let latest = || Ok(shared.reader.load().snapshot());
    let result = match route {
        Route::Ingest => ingest::ingest(req, shared),
        Route::Query => query::query(req, shared, 1, latest),
        Route::QueryK => query::query(req, shared, 10, latest),
        Route::F0 => query::f0(latest),
        Route::Advance => admin::advance(req, shared),
        Route::CheckpointSave => admin::checkpoint_save(req, shared),
        Route::CheckpointRestore => admin::checkpoint_restore(req, shared),
        Route::Healthz => admin::healthz(shared),
        Route::Shutdown => admin::shutdown(req, shared),
        Route::TenantIngest(ref id) => tenant::ingest(req, shared, id),
        Route::TenantQuery(ref id) => tenant::query(req, shared, id, 1),
        Route::TenantQueryK(ref id) => tenant::query(req, shared, id, 10),
        Route::TenantF0(ref id) => tenant::f0(shared, id),
    };
    match result {
        Ok(outcome) => outcome,
        Err(e) => Outcome::from_http_error(&e),
    }
}

/// Parses a required JSON body into `T`.
pub(crate) fn parse_body<T: Deserialize>(req: &Request) -> Result<T, HttpError> {
    if req.body.trim().is_empty() {
        return Err(HttpError::new(
            400,
            "missing_body",
            "request body required (is Content-Length set?)",
        ));
    }
    serde_json::from_str(&req.body)
        .map_err(|e| HttpError::new(400, "bad_json", format!("malformed JSON body: {e}")))
}

/// Parses an optional JSON body: an absent/empty body is `T::default()`.
pub(crate) fn parse_body_or_default<T: Deserialize + Default>(
    req: &Request,
) -> Result<T, HttpError> {
    if req.body.trim().is_empty() {
        Ok(T::default())
    } else {
        serde_json::from_str(&req.body)
            .map_err(|e| HttpError::new(400, "bad_json", format!("malformed JSON body: {e}")))
    }
}

/// The answer to a global write once the writer is retired.
pub(crate) fn shutting_down() -> HttpError {
    HttpError::new(
        503,
        "shutting_down",
        "the writer has stopped; no further writes are accepted",
    )
}

/// Applies one write to the global stream on the calling worker
/// thread, under the writer lock that serializes global writes. The
/// writer is taken out of the lock for the call and put back after it,
/// so a write that panics never puts it back: every later write then
/// answers `503 shutting_down`, as after a shutdown.
pub(crate) fn write<F>(shared: &Shared, apply: F) -> Result<Ack, HttpError>
where
    F: FnOnce(&mut RdsWriter) -> Result<(), RdsError>,
{
    let mut slot = shared.writer.lock();
    let mut writer = slot.take().ok_or_else(shutting_down)?;
    let result = apply(&mut writer);
    let ack = Ack::of(&writer);
    *slot = Some(writer);
    result?;
    Ok(ack)
}

/// Serves one connection until it closes: sets the socket up and runs
/// [`serve`] over it.
pub(crate) fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(shared.read_timeout_ms.max(1))));
    // with Nagle off, every socket write is a segment of its own, so
    // `serve` answers each request with exactly one write
    let _ = stream.set_nodelay(true);
    let read_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    serve(&mut BufReader::new(read_half), &mut stream, shared);
}

/// The keep-alive loop: reads requests off `reader` and answers each
/// on `writer` through one output buffer reused across requests, with
/// a per-request `catch_unwind` (belt and braces under L8 — a handler
/// bug answers 500 instead of killing the worker thread).
fn serve<R: BufRead, W: Write>(reader: &mut R, writer: &mut W, shared: &Shared) {
    let mut out_buf = Vec::new();
    loop {
        match http::read_request(reader, shared.max_body_bytes) {
            ReadOutcome::Closed => break,
            ReadOutcome::Error(e) => {
                let out = Outcome::from_http_error(&e);
                let _ =
                    http::write_response_with(writer, &mut out_buf, out.status, &out.body, false);
                break;
            }
            ReadOutcome::Request(req) => {
                let out = match catch_unwind(AssertUnwindSafe(|| dispatch(&req, shared))) {
                    Ok(o) => o,
                    Err(_) => Outcome {
                        status: 500,
                        body: api_types::envelope("internal_error", "handler panicked"),
                    },
                };
                // close after any error response: a rejected request may
                // have left unread body bytes on the wire, and parsing
                // those as the next request would desynchronize framing;
                // and close once the server is stopping, so it drains
                let keep =
                    req.keep_alive && out.status < 400 && !shared.stopping.load(Ordering::SeqCst);
                let write_ok =
                    http::write_response_with(writer, &mut out_buf, out.status, &out.body, keep)
                        .is_ok();
                if !keep || !write_ok {
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::{AtomicArc, Mutex};
    use rds_geometry::Point;
    use robust_distinct_sampling::Rds;
    use std::io::{self, Cursor};
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::sync::Arc;

    /// A `Write` that keeps the bytes of each `write` call apart.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.0.push(bytes.to_vec());
            Ok(bytes.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A published global stream whose sample holds hundreds of groups.
    fn shared() -> Shared {
        let (mut writer, reader) = Rds::builder()
            .dim(2)
            .alpha(0.5)
            .seed(3)
            .k(200)
            .build_split()
            .expect("valid configuration");
        writer.process_batch((0..600).map(|i| Point::new(vec![3.0 * i as f64, 0.0])));
        writer.publish();
        Shared {
            reader: AtomicArc::new(Arc::new(reader)),
            writer: Mutex::new(Some(writer)),
            dim: 2,
            max_body_bytes: 1 << 20,
            read_timeout_ms: 1_000,
            draws: AtomicU64::new(0),
            stopping: AtomicBool::new(false),
            addr: "127.0.0.1:0".parse().expect("socket address"),
            tenants: None,
        }
    }

    /// A response as framed on the wire.
    fn framed(status: &str, body: &str, connection: &str) -> Vec<u8> {
        format!(
            "HTTP/1.1 {status}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\
             Connection: {connection}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    fn get(path: &str, query: &[(&str, &str)]) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            query: query
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            body: String::new(),
            keep_alive: true,
        }
    }

    #[test]
    fn each_response_leaves_in_one_write() {
        let shared = shared();
        let raw = "GET /f0 HTTP/1.1\r\n\r\n\
                   GET /query_k?k=1000&seed=7 HTTP/1.1\r\n\r\n\
                   NONSENSE\r\n\r\n";
        let mut out = Writes::default();
        serve(&mut Cursor::new(raw), &mut out, &shared);

        let f0 = dispatch(&get("/f0", &[]), &shared).body;
        let query_k = dispatch(&get("/query_k", &[("k", "1000"), ("seed", "7")]), &shared).body;
        assert!(query_k.len() > 8 * 1024, "{} bytes", query_k.len());
        let envelope =
            api_types::envelope("malformed_request", "malformed request line: `NONSENSE`");
        let expected = vec![
            framed("200 OK", &f0, "keep-alive"),
            framed("200 OK", &query_k, "keep-alive"),
            framed("400 Bad Request", &envelope, "close"),
        ];
        assert_eq!(out.0.len(), expected.len(), "one write per response");
        for (got, want) in out.0.iter().zip(&expected) {
            assert_eq!(String::from_utf8_lossy(got), String::from_utf8_lossy(want));
        }
    }
}
