//! `rds serve` as a process: command-line flags through bind, traffic and
//! the `/admin/shutdown` drain to the exit code, for the single-stream
//! server and the multi-tenant one. The in-process e2e suites bind the
//! server as a library and never see the flags, the announced address
//! or the exit status.

use rds_server::api_types::TenantHealthResponse;
use rds_server::client::Conn;
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
    fn spawn(extra: &[&str]) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_rds"))
            .args(SERVE)
            .args(extra)
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
