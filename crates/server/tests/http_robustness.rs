//! Request-robustness regression suite over a real loopback socket:
//! every malformed-input class the ISSUE names must come back as a
//! 4xx **envelope** (`{"error":{"code","message"}}`) — never a hung
//! connection, never a 5xx, never a dead worker thread.

use rds_server::api_types::ErrorEnvelope;
use rds_server::client;
use rds_server::{bind, ServerConfig};
use robust_distinct_sampling::Rds;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};

fn start() -> (rds_server::ServerHandle, SocketAddr) {
    let backend = Rds::builder().dim(2).alpha(0.5).seed(42).publish_every(1);
    let mut cfg = ServerConfig::new(backend);
    cfg.threads = 2;
    cfg.max_body_bytes = 4096; // small cap so 413 is easy to hit
    cfg.read_timeout_ms = 2_000;
    let handle = bind(cfg).expect("bind on an ephemeral port");
    let addr = handle.addr();
    (handle, addr)
}

/// Sends raw bytes, half-closes the write side, returns (status, body).
fn raw(addr: SocketAddr, bytes: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(bytes).expect("send");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {response:?}"));
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn code_of(body: &str) -> String {
    let parsed: ErrorEnvelope =
        serde_json::from_str(body).unwrap_or_else(|e| panic!("not an envelope: {body:?}: {e}"));
    parsed.error.code
}

#[test]
fn healthz_answers_ok() {
    let (handle, addr) = start();
    let (status, body) = client::request_once(addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"ok\""), "{body}");
    handle.shutdown_and_join();
}

#[test]
fn unknown_route_is_a_404_envelope() {
    let (handle, addr) = start();
    let (status, body) = client::request_once(addr, "GET", "/nope", None).expect("request");
    assert_eq!(status, 404);
    assert_eq!(code_of(&body), "not_found");
    handle.shutdown_and_join();
}

#[test]
fn wrong_method_is_a_405_envelope() {
    let (handle, addr) = start();
    let (status, body) = client::request_once(addr, "GET", "/ingest", None).expect("request");
    assert_eq!(status, 405);
    assert_eq!(code_of(&body), "method_not_allowed");
    assert!(body.contains("POST"), "{body}");
    handle.shutdown_and_join();
}

#[test]
fn malformed_json_is_a_400_with_the_parse_error() {
    let (handle, addr) = start();
    let (status, body) =
        client::request_once(addr, "POST", "/ingest", Some("{\"points\": [[1.0,")).expect("req");
    assert_eq!(status, 400);
    assert_eq!(code_of(&body), "bad_json");
    assert!(
        body.contains("malformed JSON body"),
        "parse error must be in the envelope: {body}"
    );
    handle.shutdown_and_join();
}

#[test]
fn missing_content_length_on_a_body_endpoint_is_a_400() {
    let (handle, addr) = start();
    let (status, body) = raw(
        addr,
        b"POST /ingest HTTP/1.1\r\n\r\n{\"points\": [[0.0, 0.0]]}",
    );
    assert_eq!(status, 400);
    assert_eq!(code_of(&body), "missing_body");
    handle.shutdown_and_join();
}

#[test]
fn oversized_content_length_is_a_413() {
    let (handle, addr) = start();
    let (status, body) = raw(
        addr,
        b"POST /ingest HTTP/1.1\r\nContent-Length: 1000000\r\n\r\n",
    );
    assert_eq!(status, 413);
    assert_eq!(code_of(&body), "payload_too_large");
    handle.shutdown_and_join();
}

#[test]
fn overflowing_and_garbage_content_length_are_400s() {
    let (handle, addr) = start();
    let (status, body) = raw(
        addr,
        b"POST /ingest HTTP/1.1\r\nContent-Length: 18446744073709551616\r\n\r\n",
    );
    assert_eq!(status, 400);
    assert_eq!(code_of(&body), "invalid_content_length");
    let (status, body) = raw(
        addr,
        b"POST /ingest HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
    );
    assert_eq!(status, 400);
    assert_eq!(code_of(&body), "invalid_content_length");
    handle.shutdown_and_join();
}

#[test]
fn truncated_body_is_a_400() {
    let (handle, addr) = start();
    let (status, body) = raw(
        addr,
        b"POST /ingest HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort",
    );
    assert_eq!(status, 400);
    assert_eq!(code_of(&body), "truncated_body");
    handle.shutdown_and_join();
}

#[test]
fn invalid_utf8_body_is_a_400() {
    let (handle, addr) = start();
    let (status, body) = raw(
        addr,
        b"POST /ingest HTTP/1.1\r\nContent-Length: 4\r\n\r\n\xff\xfe\xff\xfe",
    );
    assert_eq!(status, 400);
    assert_eq!(code_of(&body), "invalid_utf8");
    handle.shutdown_and_join();
}

#[test]
fn garbage_request_line_is_a_400() {
    let (handle, addr) = start();
    let (status, body) = raw(addr, b"NONSENSE\r\n\r\n");
    assert_eq!(status, 400);
    assert_eq!(code_of(&body), "malformed_request");
    handle.shutdown_and_join();
}

#[test]
fn wrong_dimension_and_mismatched_times_are_400s() {
    let (handle, addr) = start();
    let (status, body) =
        client::request_once(addr, "POST", "/ingest", Some("{\"points\": [[1.0]]}")).expect("req");
    assert_eq!(status, 400);
    assert_eq!(code_of(&body), "invalid_point");
    let (status, body) = client::request_once(
        addr,
        "POST",
        "/ingest",
        Some("{\"points\": [[1.0, 2.0]], \"times\": [1, 2]}"),
    )
    .expect("req");
    assert_eq!(status, 400);
    assert_eq!(code_of(&body), "times_mismatch");
    handle.shutdown_and_join();
}

#[test]
fn bad_and_unknown_query_params_are_400s() {
    let (handle, addr) = start();
    let (status, body) = client::request_once(addr, "GET", "/query_k?k=abc", None).expect("req");
    assert_eq!(status, 400);
    assert_eq!(code_of(&body), "invalid_param");
    let (status, body) = client::request_once(addr, "GET", "/query?frobnicate=1", None).expect("r");
    assert_eq!(status, 400);
    assert_eq!(code_of(&body), "unknown_param");
    let (status, body) = client::request_once(addr, "GET", "/query_k?k=100000", None).expect("req");
    assert_eq!(status, 400, "k beyond the cap: {body}");
    handle.shutdown_and_join();
}

#[test]
fn bad_checkpoint_path_is_a_conflict_not_a_crash() {
    let (handle, addr) = start();
    let (status, body) = client::request_once(
        addr,
        "POST",
        "/checkpoint/restore",
        Some("{\"path\": \"/nonexistent/nowhere.chk\"}"),
    )
    .expect("req");
    assert_eq!(status, 409, "{body}");
    assert_eq!(code_of(&body), "checkpoint_rejected");
    // the server is still fully alive afterwards
    let (status, _) = client::request_once(addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!(status, 200);
    handle.shutdown_and_join();
}

#[test]
fn a_malformed_request_does_not_kill_the_worker_for_the_next_client() {
    let (handle, addr) = start();
    for _ in 0..8 {
        let (status, _) = raw(
            addr,
            b"POST /ingest HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
        );
        assert_eq!(status, 400);
    }
    let (status, _) = client::request_once(addr, "GET", "/healthz", None).expect("alive");
    assert_eq!(status, 200);
    handle.shutdown_and_join();
}

#[test]
fn a_deeply_nested_body_is_a_400_not_a_stack_overflow() {
    let backend = Rds::builder().dim(2).alpha(0.5).seed(42);
    let mut cfg = ServerConfig::new(backend);
    cfg.threads = 2;
    cfg.read_timeout_ms = 2_000;
    let limit = cfg.max_body_bytes;
    let handle = bind(cfg).expect("bind on an ephemeral port");
    let addr = handle.addr();
    // A body at the default cap, all `[`: without a nesting limit the
    // parser recurses once per byte and overflows the worker's stack.
    let body = "[".repeat(limit);
    for path in ["/ingest", "/query_k"] {
        let (status, answer) =
            client::request_once(addr, "POST", path, Some(&body)).expect("answered");
        assert_eq!(status, 400, "{path}: {answer}");
        assert_eq!(code_of(&answer), "bad_json", "{path}");
        assert!(answer.contains("nest deeper"), "{path}: {answer}");
    }
    let (status, _) =
        client::request_once(addr, "POST", "/ingest", Some("{\"points\": [[1.0, 2.0]]}"))
            .expect("still serving");
    assert_eq!(status, 200);
    handle.shutdown_and_join();
}

#[test]
fn a_type_mismatch_answer_does_not_echo_the_body() {
    let mut cfg = ServerConfig::new(Rds::builder().dim(2).alpha(0.5).seed(42));
    cfg.threads = 2;
    cfg.read_timeout_ms = 2_000;
    let limit = cfg.max_body_bytes;
    let handle = bind(cfg).expect("bind on an ephemeral port");
    let addr = handle.addr();
    // `points` must be a sequence; this one is a map of ~600 KB.
    let mut body = String::from("{\"points\": {");
    for i in 0.. {
        if body.len() > limit * 6 / 10 {
            break;
        }
        body.push_str(&format!("\"p{i}\": [{i}.5, 2.0], "));
    }
    body.push_str("\"last\": []}}");
    let (status, answer) =
        client::request_once(addr, "POST", "/ingest", Some(&body)).expect("answered");
    let head = &answer[..answer.len().min(300)];
    assert_eq!(status, 400, "{head}");
    assert_eq!(code_of(&answer), "bad_json", "{head}");
    assert!(
        answer.contains("points"),
        "the answer names the field: {head}"
    );
    assert!(
        answer.len() < 1024,
        "a {}-byte body drew a {}-byte answer: {head}",
        body.len(),
        answer.len()
    );
    handle.shutdown_and_join();
}

fn start_with_tenants(tag: &str) -> (rds_server::ServerHandle, SocketAddr) {
    let backend = Rds::builder().dim(2).alpha(0.5).seed(42).publish_every(1);
    let mut cfg = ServerConfig::new(backend);
    cfg.threads = 2;
    cfg.read_timeout_ms = 2_000;
    let dir = std::env::temp_dir().join(format!("rds-http-tenants-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    cfg.tenants = Some(rds_server::TenancyConfig {
        budget_words: 1 << 24,
        spill_dir: dir.to_string_lossy().into_owned(),
    });
    let handle = bind(cfg).expect("bind with tenancy");
    let addr = handle.addr();
    (handle, addr)
}

#[test]
fn healthz_omits_registry_fields_without_tenancy() {
    let (handle, addr) = start();
    let (status, body) = client::request_once(addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!(status, 200);
    assert!(
        !body.contains("budget_words") && !body.contains("tenants"),
        "single-tenant probe must not carry registry fields: {body}"
    );
    handle.shutdown_and_join();
}

#[test]
fn healthz_reports_the_registry_gauge_with_tenancy() {
    let (handle, addr) = start_with_tenants("healthz");
    let (status, body) = client::request_once(addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!(status, 200);
    for field in [
        "\"tenants\":0",
        "\"resident\":0",
        "\"resident_words\":0",
        "\"budget_words\":16777216",
        "\"spills\":0",
        "\"unchanged_evictions\":0",
        "\"restores\":0",
    ] {
        assert!(body.contains(field), "missing {field} in {body}");
    }
    let (status, _) = client::request_once(
        addr,
        "POST",
        "/t/acme/ingest",
        Some("{\"points\": [[1.0, 2.0]]}"),
    )
    .expect("tenant ingest");
    assert_eq!(status, 200);
    let (_, body) = client::request_once(addr, "GET", "/healthz", None).expect("healthz");
    assert!(body.contains("\"tenants\":1"), "{body}");
    assert!(body.contains("\"resident\":1"), "{body}");
    handle.shutdown_and_join();
}

#[test]
fn tenant_routes_404_when_tenancy_is_disabled() {
    let (handle, addr) = start();
    let (status, body) = client::request_once(addr, "GET", "/t/acme/f0", None).expect("req");
    assert_eq!(status, 404);
    assert_eq!(code_of(&body), "tenancy_disabled");
    handle.shutdown_and_join();
}

#[test]
fn tenant_routes_serve_ingest_and_reads_end_to_end() {
    let (handle, addr) = start_with_tenants("serve");
    let (status, body) = client::request_once(
        addr,
        "POST",
        "/t/acme/ingest",
        Some("{\"points\": [[1.0, 2.0], [5.0, 6.0]]}"),
    )
    .expect("ingest");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"ingested\":2"), "{body}");
    let (status, body) = client::request_once(addr, "GET", "/t/acme/f0", None).expect("f0");
    assert_eq!(status, 200);
    assert!(body.contains("\"seen\":2"), "{body}");
    let (status, body) =
        client::request_once(addr, "GET", "/t/acme/query_k?k=2&seed=7", None).expect("query_k");
    assert_eq!(status, 200);
    assert!(body.contains("records"), "{body}");
    // a different tenant is a different (empty) stream
    let (status, body) = client::request_once(addr, "GET", "/t/other/f0", None).expect("f0");
    assert_eq!(status, 200);
    assert!(body.contains("\"seen\":0"), "{body}");
    handle.shutdown_and_join();
}

#[test]
fn tenant_request_validation_maps_to_envelopes() {
    let (handle, addr) = start_with_tenants("validate");
    // bad tenant id: router extracts it, the registry rejects it
    let (status, body) = client::request_once(addr, "GET", "/t/bad%20id/f0", None).expect("req");
    assert_eq!(status, 400, "{body}");
    assert_eq!(code_of(&body), "invalid_tenant");
    // wrong dimension inside a tenant batch
    let (status, body) = client::request_once(
        addr,
        "POST",
        "/t/acme/ingest",
        Some("{\"points\": [[1.0]]}"),
    )
    .expect("req");
    assert_eq!(status, 400);
    assert_eq!(code_of(&body), "invalid_point");
    // wrong method on a tenant route
    let (status, body) = client::request_once(addr, "GET", "/t/acme/ingest", None).expect("req");
    assert_eq!(status, 405);
    assert_eq!(code_of(&body), "method_not_allowed");
    // unknown tenant verb
    let (status, body) = client::request_once(addr, "GET", "/t/acme/nope", None).expect("req");
    assert_eq!(status, 404);
    assert_eq!(code_of(&body), "not_found");
    // the server survives all of the above
    let (status, _) = client::request_once(addr, "GET", "/healthz", None).expect("alive");
    assert_eq!(status, 200);
    handle.shutdown_and_join();
}

#[test]
fn shutdown_over_http_drains_cleanly() {
    let (handle, addr) = start();
    let (status, body) =
        client::request_once(addr, "POST", "/ingest", Some("{\"points\": [[1.0, 2.0]]}"))
            .expect("ingest");
    assert_eq!(status, 200, "{body}");
    let (status, body) =
        client::request_once(addr, "POST", "/admin/shutdown", None).expect("shutdown");
    assert_eq!(status, 200);
    assert!(body.contains("shutting_down"), "{body}");
    // every thread exits; a hang here is the regression
    handle.join();
}

#[test]
fn a_write_on_a_connection_opened_before_shutdown_is_refused() {
    let (handle, addr) = start();
    let mut conn = client::Conn::connect(addr).expect("connect");
    // a first request pins the keep-alive connection to a worker
    let (status, _) = conn.request("GET", "/healthz", None).expect("healthz");
    assert_eq!(status, 200);
    let (status, body) =
        client::request_once(addr, "POST", "/admin/shutdown", None).expect("shutdown");
    assert_eq!(status, 200, "{body}");
    let (status, body) = conn
        .request("POST", "/ingest", Some("{\"points\": [[1.0, 2.0]]}"))
        .expect("ingest after shutdown");
    assert_eq!(status, 503, "{body}");
    assert_eq!(code_of(&body), "shutting_down");
    drop(conn);
    handle.join();
}

#[test]
fn handle_shutdown_after_an_http_shutdown_returns_and_joins() {
    let (handle, addr) = start();
    let (status, body) =
        client::request_once(addr, "POST", "/admin/shutdown", None).expect("shutdown");
    assert_eq!(status, 200, "{body}");
    // the second stop finds the writer retired and must not hang
    handle.shutdown();
    handle.join();
}
