//! Multi-tenant end-to-end suite over loopback HTTP: the tenant routes
//! must answer **bit-identically** to an in-process [`TenantRegistry`]
//! fed the same per-tenant batches — even while the served registry is
//! squeezed under a budget that forces evictions between requests — the
//! global stream and the tenant streams must not bleed into each other,
//! and an HTTP-initiated shutdown must park every tenant on disk so a
//! fresh server on the same spill directory resumes them exactly.

use rds_geometry::Point;
use rds_server::api_types::{F0Response, QueryResponse, TenantHealthResponse};
use rds_server::client::{self, Conn};
use rds_server::{bind, ServerConfig, TenancyConfig};
use rds_tenant::{TenantRegistry, TenantTemplate};
use robust_distinct_sampling::{Rds, RdsBuilder};

const DIM: usize = 2;
const ALPHA: f64 = 0.5;
const SEED: u64 = 9;
const EXPECTED_LEN: u64 = 512;
const TENANTS: usize = 6;
const ROUNDS: u64 = 4;
const BATCH: u64 = 25;

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rds-tenant-e2e-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn tenant_id(t: usize) -> String {
    format!("tenant-{t}")
}

/// Tenant `t`'s batch for round `r`: per-tenant distinct lattices with
/// near-duplicate jitter, disjoint across tenants so cross-talk would
/// show up in the counts.
fn batch(t: usize, r: u64) -> Vec<Vec<f64>> {
    (0..BATCH)
        .map(|j| {
            let i = r * BATCH + j;
            let e = i % 10;
            let jitter = 0.01 * ((i / 10) % 5) as f64;
            vec![
                t as f64 * 1_000.0 + (e % 4) as f64 * 10.0 + jitter,
                (e / 4) as f64 * 10.0,
            ]
        })
        .collect()
}

fn backend() -> RdsBuilder {
    Rds::builder()
        .dim(DIM)
        .alpha(ALPHA)
        .seed(SEED)
        .expected_len(EXPECTED_LEN)
        .publish_every(1)
}

/// The template `bind` derives from [`backend`]'s stream for its
/// registry; the in-process control must be built from the very same
/// knobs.
fn template() -> TenantTemplate {
    let mut t = TenantTemplate::new(DIM, ALPHA);
    t.seed = SEED;
    t.expected_len = EXPECTED_LEN;
    t
}

fn points(batch: &[Vec<f64>]) -> Vec<Point> {
    batch.iter().map(|p| Point::new(p.clone())).collect()
}

/// One tenant's words after a full run, measured against a throwaway
/// registry, so the served budget can be sized to hold only ~2 of the
/// 6 tenants — every round then evicts somebody.
fn words_per_tenant(dir: &std::path::Path) -> usize {
    let probe = TenantRegistry::new(template(), usize::MAX / 2, dir.join("probe")).expect("probe");
    let mut words = 1;
    for r in 0..ROUNDS {
        let ack = probe
            .ingest("probe", &points(&batch(0, r)), None)
            .expect("probe ingest");
        words = ack.words;
    }
    words.max(1)
}

fn start(cfg_tenants: Option<TenancyConfig>) -> rds_server::ServerHandle {
    let mut cfg = ServerConfig::new(backend());
    cfg.threads = 4;
    cfg.tenants = cfg_tenants;
    bind(cfg).expect("bind server")
}

fn http_ingest(conn: &mut Conn, id: &str, batch: &[Vec<f64>]) {
    let rows: Vec<String> = batch
        .iter()
        .map(|p| {
            format!(
                "[{}]",
                p.iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            )
        })
        .collect();
    let body = format!("{{\"points\": [{}]}}", rows.join(","));
    let (status, resp) = conn
        .request("POST", &format!("/t/{id}/ingest"), Some(&body))
        .expect("tenant ingest");
    assert_eq!(status, 200, "{resp}");
}

fn http_f0(addr: std::net::SocketAddr, id: &str) -> F0Response {
    let (status, body) =
        client::request_once(addr, "GET", &format!("/t/{id}/f0"), None).expect("f0");
    assert_eq!(status, 200, "{body}");
    serde_json::from_str(&body).expect("f0 response parses")
}

fn http_query(addr: std::net::SocketAddr, id: &str) -> QueryResponse {
    let (status, body) =
        client::request_once(addr, "GET", &format!("/t/{id}/query_k?k=5&seed=7"), None)
            .expect("query_k");
    assert_eq!(status, 200, "{body}");
    serde_json::from_str(&body).expect("query response parses")
}

fn http_health(addr: std::net::SocketAddr) -> TenantHealthResponse {
    let (status, body) = client::request_once(addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!(status, 200, "{body}");
    serde_json::from_str(&body).expect("tenant health parses")
}

/// Served answers vs the in-process control for one tenant, bit-for-bit.
fn assert_tenant_matches(addr: std::net::SocketAddr, control: &TenantRegistry, id: &str) {
    let f0 = http_f0(addr, id);
    let expected = control.f0_estimate(id).expect("control f0");
    assert_eq!(
        f0.f0.to_bits(),
        expected.to_bits(),
        "tenant {id}: served f0 {} != control {expected}",
        f0.f0
    );
    let snap = control.snapshot(id).expect("control snapshot");
    assert_eq!(f0.seen, snap.seen(), "tenant {id}: seen diverged");

    let q = http_query(addr, id);
    let expected_records = control.query_k_at(id, 5, 7).expect("control query");
    assert_eq!(q.records.len(), expected_records.len(), "tenant {id}");
    for (got, want) in q.records.iter().zip(&expected_records) {
        assert_eq!(
            got.rep,
            want.rep.coords().to_vec(),
            "tenant {id}: representative coordinates must round-trip exactly"
        );
        assert_eq!(got.count, want.count, "tenant {id}");
    }
}

#[test]
fn tenant_routes_are_bit_identical_to_in_process_under_eviction_pressure() {
    let dir = scratch("pressure");
    // A budget that holds only ~2 of the 6 tenants: the serving path
    // spills and restores constantly, and it must not be observable.
    let budget = words_per_tenant(&dir) * 5 / 2;
    let handle = start(Some(TenancyConfig {
        budget_words: budget,
        spill_dir: dir.join("spill").display().to_string(),
    }));
    let addr = handle.addr();
    let control =
        TenantRegistry::new(template(), usize::MAX / 2, dir.join("control")).expect("control");

    let mut conn = Conn::connect(addr).expect("connect");
    for r in 0..ROUNDS {
        for t in 0..TENANTS {
            let id = tenant_id(t);
            let b = batch(t, r);
            http_ingest(&mut conn, &id, &b);
            control
                .ingest(&id, &points(&b), None)
                .expect("control ingest");
        }
    }
    drop(conn);

    for t in 0..TENANTS {
        assert_tenant_matches(addr, &control, &tenant_id(t));
    }

    let health = http_health(addr);
    assert_eq!(health.tenants, TENANTS as u64);
    assert!(
        health.spills > 0,
        "a budget of {budget} words over {TENANTS} tenants must have evicted"
    );
    assert!(
        health.resident_words <= health.budget_words,
        "resident {} exceeds budget {}",
        health.resident_words,
        health.budget_words
    );
    handle.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn global_and_tenant_streams_do_not_bleed_into_each_other() {
    let dir = scratch("isolation");
    let handle = start(Some(TenancyConfig {
        budget_words: 1 << 24,
        spill_dir: dir.join("spill").display().to_string(),
    }));
    let addr = handle.addr();
    let mut conn = Conn::connect(addr).expect("connect");

    // 25 points into the global stream, 50 into tenant a, none into b.
    let global = batch(0, 0);
    let rows: Vec<String> = global
        .iter()
        .map(|p| {
            format!(
                "[{}]",
                p.iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            )
        })
        .collect();
    let body = format!("{{\"points\": [{}]}}", rows.join(","));
    let (status, resp) = conn
        .request("POST", "/ingest", Some(&body))
        .expect("global ingest");
    assert_eq!(status, 200, "{resp}");
    http_ingest(&mut conn, "a", &batch(1, 0));
    http_ingest(&mut conn, "a", &batch(1, 1));
    drop(conn);

    let (status, body) = client::request_once(addr, "GET", "/f0", None).expect("global f0");
    assert_eq!(status, 200, "{body}");
    let global_f0: F0Response = serde_json::from_str(&body).expect("parses");
    assert_eq!(global_f0.seen, BATCH, "global stream counts only /ingest");
    assert_eq!(
        http_f0(addr, "a").seen,
        2 * BATCH,
        "tenant a counts only its own"
    );
    assert_eq!(http_f0(addr, "b").seen, 0, "tenant b was never written");
    handle.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn http_shutdown_parks_tenants_and_a_restart_resumes_them_bit_identically() {
    let dir = scratch("restart");
    let tenancy = || TenancyConfig {
        budget_words: 1 << 24,
        spill_dir: dir.join("spill").display().to_string(),
    };

    // Server A: ingest three tenants, record their answers, then stop
    // it the way an operator would — over the wire.
    let a = start(Some(tenancy()));
    let addr_a = a.addr();
    let mut conn = Conn::connect(addr_a).expect("connect");
    for t in 0..3 {
        for r in 0..ROUNDS {
            http_ingest(&mut conn, &tenant_id(t), &batch(t, r));
        }
    }
    let before: Vec<(F0Response, QueryResponse)> = (0..3)
        .map(|t| {
            (
                http_f0(addr_a, &tenant_id(t)),
                http_query(addr_a, &tenant_id(t)),
            )
        })
        .collect();
    let (status, body) = conn
        .request("POST", "/admin/shutdown", None)
        .expect("shutdown");
    assert_eq!(status, 200, "{body}");
    drop(conn);
    a.join();

    // Server B on the same spill directory: every tenant must resume
    // exactly where it stopped — same f0 bits, same seen, same samples.
    let b = start(Some(tenancy()));
    let addr_b = b.addr();
    for (t, (f0_a, q_a)) in before.iter().enumerate() {
        let id = tenant_id(t);
        let f0_b = http_f0(addr_b, &id);
        assert_eq!(
            f0_a.f0.to_bits(),
            f0_b.f0.to_bits(),
            "tenant {id}: restarted f0 must be bit-identical"
        );
        assert_eq!(
            f0_a.seen, f0_b.seen,
            "tenant {id}: seen diverged across restart"
        );
        let q_b = http_query(addr_b, &id);
        assert_eq!(q_a.records.len(), q_b.records.len(), "tenant {id}");
        for (ra, rb) in q_a.records.iter().zip(&q_b.records) {
            assert_eq!(ra.rep, rb.rep, "tenant {id}");
            assert_eq!(ra.count, rb.count, "tenant {id}");
        }
    }
    b.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}
