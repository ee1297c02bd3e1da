//! `rds serve` as a process: command-line flags through bind, traffic and
//! the `/admin/shutdown` drain to the exit code, for the single-stream
//! server, the multi-tenant one and a multi-tenant one booted from a
//! checkpoint. The in-process e2e suites bind the server as a library
//! and never see the flags, the announced address or the exit status.

use rds_geometry::Point;
use rds_server::api_types::{F0Response, HealthResponse, QueryResponse, TenantHealthResponse};
use rds_server::client::Conn;
use rds_stream::Window;
use rds_tenant::{TenantRegistry, TenantTemplate};
use robust_distinct_sampling::Rds;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// Tenant ids the multi-tenant run spreads its traffic over.
const TENANTS: u64 = 200;

/// Base flags of every run: an ephemeral port, so tests never collide.
const SERVE: &[&str] = &[
    "serve",
    "--addr",
    "127.0.0.1:0",
    "--dim",
    "2",
    "--alpha",
    "0.5",
    "--seed",
    "42",
    "--publish-every",
    "256",
];

/// A running `rds serve` and the address it announced.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    /// `rds serve` from [`SERVE`] and `extra`.
    fn spawn(extra: &[&str]) -> Self {
        Self::start(&[SERVE, extra].concat())
    }

    /// `rds` with exactly `args`.
    fn start(args: &[&str]) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_rds"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("rds starts");
        let stdout = child.stdout.take().expect("piped stdout");
        let announced = BufReader::new(stdout)
            .lines()
            .map_while(Result::ok)
            .find_map(|line| {
                line.strip_prefix("rds-server listening on ")
                    .map(|a| a.trim().to_string())
            });
        let Some(addr) = announced else {
            let status = child.wait();
            panic!("rds serve exited before announcing its address: {status:?}");
        };
        Self { child, addr }
    }

    fn connect(&self) -> Conn {
        let conn = Conn::connect(self.addr.as_str()).expect("connect");
        conn.set_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        conn
    }

    /// Posts the drain and requires the process to exit successfully.
    fn shutdown(mut self) {
        let (status, body) = self
            .connect()
            .request("POST", "/admin/shutdown", None)
            .expect("shutdown answers");
        assert_eq!(status, 200, "{body}");
        let exit = self.child.wait().expect("rds exits");
        assert!(exit.success(), "rds serve exited with {exit}");
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A failed assertion must not leave the server running.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `n` near-duplicate points of entity `e` on a lattice of spacing 10.
fn ingest_body(e: u64, n: u64) -> String {
    let rows: Vec<String> = (0..n)
        .map(|j| {
            let jitter = 0.01 * (j % 5) as f64;
            format!(
                "[{},{}]",
                (e % 16) as f64 * 10.0 + jitter,
                (e / 16) as f64 * 10.0
            )
        })
        .collect();
    format!("{{\"points\":[{}]}}", rows.join(","))
}

fn expect_2xx(conn: &mut Conn, method: &str, path: &str, body: Option<&str>) -> String {
    let (status, resp) = conn.request(method, path, body).expect("server answers");
    assert!(
        (200..300).contains(&status),
        "{method} {path} answered {status}: {resp}"
    );
    resp
}

#[test]
fn single_stream_serve_answers_and_drains() {
    let server = Server::spawn(&[]);
    let (mut writer, mut reader) = (server.connect(), server.connect());
    for e in 0..120 {
        expect_2xx(&mut writer, "POST", "/ingest", Some(&ingest_body(e, 20)));
        if e % 10 == 0 {
            expect_2xx(&mut reader, "GET", &format!("/query_k?k=4&seed={e}"), None);
            expect_2xx(&mut reader, "GET", "/f0", None);
        }
    }
    expect_2xx(&mut reader, "GET", "/healthz", None);
    drop((writer, reader));
    server.shutdown();
}

#[test]
fn tenant_serve_spills_answers_and_drains() {
    let spill: PathBuf = [env!("CARGO_TARGET_TMPDIR"), "serve_process_spill"]
        .iter()
        .collect();
    let _ = std::fs::remove_dir_all(&spill);
    let spill_arg = spill.display().to_string();
    // A budget far below 200 tenants' footprint: serving must evict.
    let server = Server::spawn(&[
        "--tenants",
        "--budget-words",
        "4096",
        "--spill-dir",
        &spill_arg,
    ]);
    let (mut writer, mut reader) = (server.connect(), server.connect());
    for round in 0..2 {
        for t in 0..TENANTS {
            let id = format!("t{t}");
            let body = ingest_body(t + round, 5);
            expect_2xx(&mut writer, "POST", &format!("/t/{id}/ingest"), Some(&body));
            if t % 7 == round {
                expect_2xx(
                    &mut reader,
                    "GET",
                    &format!("/t/{id}/query_k?k=2&seed={t}"),
                    None,
                );
                expect_2xx(&mut reader, "GET", &format!("/t/{id}/f0"), None);
            }
        }
    }
    let health: TenantHealthResponse =
        serde_json::from_str(&expect_2xx(&mut reader, "GET", "/healthz", None))
            .expect("tenant health parses");
    assert_eq!(health.tenants, TENANTS);
    assert!(
        health.spills > 0,
        "a {}-word budget never evicted",
        health.budget_words
    );
    assert!(health.resident_words <= health.budget_words);
    drop((writer, reader));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&spill);
}

#[test]
fn restored_tenant_serve_takes_the_checkpoint_configuration() {
    let dir: PathBuf = [env!("CARGO_TARGET_TMPDIR"), "serve_process_restore"]
        .iter()
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    // Every parameter a tenant takes, away from the `serve` defaults.
    let (dim, alpha, seed, expected_len, eps) = (3, 0.7, 77, 5_000, 0.8);
    let window = Window::Sequence(400);
    let point = |i: u64| {
        let e = i / 4;
        let jitter = 0.2 * (i % 4) as f64;
        Point::new(vec![
            (e % 12) as f64 * 10.0 + jitter,
            (e / 12) as f64 * 10.0,
            1.0,
        ])
    };
    let mut global = Rds::builder()
        .dim(dim)
        .alpha(alpha)
        .seed(seed)
        .expected_len(expected_len)
        .window(window)
        .count_accuracy(eps)
        .build()
        .expect("valid stream");
    for i in 0..300 {
        global.process(point(i));
    }
    let f0 = global.f0_estimate();
    let chk = dir.join("global.chk");
    global.checkpoint_to(&chk).expect("checkpoint");

    let (chk_arg, spill_arg) = (
        chk.display().to_string(),
        dir.join("spill").display().to_string(),
    );
    let server = Server::start(&[
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--restore",
        &chk_arg,
        "--tenants",
        "--budget-words",
        "100000",
        "--spill-dir",
        &spill_arg,
    ]);
    let mut conn = server.connect();
    let health: HealthResponse =
        serde_json::from_str(&expect_2xx(&mut conn, "GET", "/healthz", None)).expect("health");
    assert_eq!(health.dim, dim as u64);
    let served: F0Response =
        serde_json::from_str(&expect_2xx(&mut conn, "GET", "/f0", None)).expect("f0");
    assert_eq!(served.f0.to_bits(), f0.to_bits(), "{} != {f0}", served.f0);

    // A tenant stream long enough to slide the window and subsample.
    let points: Vec<Point> = (0..600).map(point).collect();
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "[{}]",
                p.coords()
                    .iter()
                    .map(f64::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            )
        })
        .collect();
    let body = format!("{{\"points\":[{}]}}", rows.join(","));
    expect_2xx(&mut conn, "POST", "/t/acme/ingest", Some(&body));
    let answer: QueryResponse = serde_json::from_str(&expect_2xx(
        &mut conn,
        "GET",
        "/t/acme/query_k?k=3&seed=11",
        None,
    ))
    .expect("query_k");

    let mut template = TenantTemplate::new(dim, alpha);
    template.window = window;
    template.seed = seed;
    template.expected_len = expected_len;
    template.eps = Some(eps);
    let control = TenantRegistry::new(template, 1 << 24, dir.join("control")).expect("control");
    control
        .ingest("acme", &points, None)
        .expect("control ingest");
    let expected = control.query_k_at("acme", 3, 11).expect("control query");
    assert_eq!(answer.records.len(), expected.len());
    for (got, want) in answer.records.iter().zip(&expected) {
        assert_eq!(got.rep, want.rep.coords().to_vec());
        assert_eq!(got.count, want.count);
    }
    drop(conn);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
