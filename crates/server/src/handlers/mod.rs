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
use std::io::BufReader;
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

/// Serves one connection until it closes: keep-alive loop, per-request
/// `catch_unwind` (belt and braces under L8 — a handler bug answers
/// 500 instead of killing the worker thread).
pub(crate) fn handle_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(shared.read_timeout_ms.max(1))));
    let _ = stream.set_nodelay(true);
    let read_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        match http::read_request(&mut reader, shared.max_body_bytes) {
            ReadOutcome::Closed => break,
            ReadOutcome::Error(e) => {
                let out = Outcome::from_http_error(&e);
                let _ = http::write_response(&mut writer, out.status, &out.body, false);
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
                    http::write_response(&mut writer, out.status, &out.body, keep).is_ok();
                if !keep || !write_ok {
                    break;
                }
            }
        }
    }
}
