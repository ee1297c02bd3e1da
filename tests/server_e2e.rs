//! End-to-end suite over loopback HTTP: the served results must be
//! **bit-identical** to the in-process facade on the same seeded
//! stream, snapshots must be epoch-monotone under concurrent readers
//! during sustained ingest, and a checkpoint saved over HTTP must
//! restore into a fresh server that answers identically. Concurrent
//! writers on separate connections must be serialized batch by batch.

use rds_geometry::Point;
use rds_server::api_types::{F0Response, IngestResponse, QueryResponse};
use rds_server::client::{self, Conn};
use rds_server::{bind, ServerConfig};
use robust_distinct_sampling::{PublishCadence, Rds, RdsBuilder};

const DIM: usize = 2;
const ALPHA: f64 = 0.5;
const SEED: u64 = 9;
const N_POINTS: u64 = 400;
const N_ENTITIES: u64 = 25;
const PUBLISH_EVERY: u64 = 100;
const BATCH: usize = 100;

/// The shared seeded stream: entities on a lattice with jitter, the
/// same construction the engine bench uses.
fn stream() -> Vec<Vec<f64>> {
    (0..N_POINTS)
        .map(|i| {
            let e = i % N_ENTITIES;
            let jitter = 0.01 * ((i / N_ENTITIES) % 5) as f64;
            vec![(e % 8) as f64 * 10.0 + jitter, (e / 8) as f64 * 10.0]
        })
        .collect()
}

fn backend() -> RdsBuilder {
    Rds::builder()
        .dim(DIM)
        .alpha(ALPHA)
        .seed(SEED)
        .expected_len(N_POINTS)
        .publish_every(PUBLISH_EVERY)
}

fn start(stream: RdsBuilder, restore_from: Option<String>) -> rds_server::ServerHandle {
    let mut cfg = ServerConfig::new(stream);
    cfg.restore_from = restore_from;
    cfg.threads = 4;
    bind(cfg).expect("bind server")
}

fn ingest_batch(conn: &mut Conn, batch: &[Vec<f64>]) -> IngestResponse {
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
        .request("POST", "/ingest", Some(&body))
        .expect("ingest");
    assert_eq!(status, 200, "{resp}");
    serde_json::from_str(&resp).expect("ingest response parses")
}

fn ingest_all(conn: &mut Conn) {
    for batch in stream().chunks(BATCH) {
        ingest_batch(conn, batch);
    }
}

/// The in-process ground truth: the same builder knobs, the same
/// stream, the same publish cadence.
fn in_process() -> (f64, Vec<(Vec<f64>, u64)>) {
    let (mut writer, reader) = Rds::builder()
        .dim(DIM)
        .alpha(ALPHA)
        .seed(SEED)
        .expected_len(N_POINTS)
        .publish_every(PUBLISH_EVERY)
        .build_split()
        .expect("valid config");
    for p in stream() {
        writer.process(Point::new(p));
    }
    let snap = reader.snapshot();
    let records = snap
        .query_k_at(5, 7)
        .iter()
        .map(|r| (r.rep.coords().to_vec(), r.count))
        .collect();
    (snap.f0_estimate(), records)
}

fn served_f0(addr: std::net::SocketAddr) -> F0Response {
    let (status, body) = client::request_once(addr, "GET", "/f0", None).expect("f0");
    assert_eq!(status, 200, "{body}");
    serde_json::from_str(&body).expect("f0 response parses")
}

fn served_query(addr: std::net::SocketAddr) -> QueryResponse {
    let (status, body) =
        client::request_once(addr, "GET", "/query_k?k=5&seed=7", None).expect("query_k");
    assert_eq!(status, 200, "{body}");
    serde_json::from_str(&body).expect("query response parses")
}

#[test]
fn over_the_wire_results_are_bit_identical_to_in_process() {
    let handle = start(backend(), None);
    let addr = handle.addr();
    let mut conn = Conn::connect(addr).expect("connect");
    ingest_all(&mut conn);
    drop(conn);

    let f0 = served_f0(addr);
    assert_eq!(f0.seen, N_POINTS);
    assert_eq!(
        f0.epoch,
        N_POINTS / PUBLISH_EVERY,
        "cadence fired per batch"
    );

    let q = served_query(addr);
    let (expected_f0, expected_records) = in_process();

    // bit-identical: exact f64 equality, not approximate
    assert_eq!(
        f0.f0.to_bits(),
        expected_f0.to_bits(),
        "served f0 {} != in-process {}",
        f0.f0,
        expected_f0
    );
    assert_eq!(q.records.len(), expected_records.len());
    for (got, (rep, count)) in q.records.iter().zip(&expected_records) {
        assert_eq!(
            &got.rep, rep,
            "representative coordinates must round-trip exactly"
        );
        assert_eq!(got.count, *count);
    }
    handle.shutdown_and_join();
}

#[test]
fn concurrent_readers_see_only_epoch_monotone_snapshots() {
    let handle = start(backend().publish_every(16), None);
    let addr = handle.addr();

    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        // sustained ingest: the whole stream, 3 times over, in small batches
        let writer = scope.spawn(|| {
            let mut conn = Conn::connect(addr).expect("writer connect");
            for _ in 0..3 {
                for batch in stream().chunks(20) {
                    ingest_batch(&mut conn, batch);
                }
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        // N concurrent query clients, each on its own keep-alive conn
        let mut readers = Vec::new();
        for _ in 0..4 {
            readers.push(scope.spawn(|| {
                let mut conn = Conn::connect(addr).expect("reader connect");
                let mut last_epoch = 0u64;
                let mut last_seen = 0u64;
                let mut observed = 0u32;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) || observed < 20 {
                    let (status, body) =
                        conn.request("GET", "/f0", None).expect("f0 during ingest");
                    assert_eq!(status, 200, "{body}");
                    let f0: F0Response = serde_json::from_str(&body).expect("parses");
                    assert!(
                        f0.epoch >= last_epoch,
                        "epoch went backwards: {} after {last_epoch}",
                        f0.epoch
                    );
                    assert!(
                        f0.seen >= last_seen,
                        "seen went backwards: {} after {last_seen}",
                        f0.seen
                    );
                    last_epoch = f0.epoch;
                    last_seen = f0.seen;
                    observed += 1;
                    if observed >= 2000 {
                        break;
                    }
                }
                assert!(observed >= 20, "reader barely ran");
            }));
        }
        writer.join().expect("writer thread");
        for r in readers {
            r.join().expect("reader thread");
        }
    });
    handle.shutdown_and_join();
}

#[test]
fn concurrent_global_writes_stay_serialized() {
    const WRITERS: usize = 4;
    const B: usize = 20;
    let points = stream();
    let per_writer = points.len() / WRITERS;
    let b = backend().publish_every(B as u64).count_accuracy(0.1);
    let handle = start(b, None);
    let addr = handle.addr();

    // each writer sends its own quarter of the stream, B points a batch,
    // all four starting together once connected
    let start_line = std::sync::Barrier::new(WRITERS);
    let mut acked: Vec<u64> = std::thread::scope(|scope| {
        let writers: Vec<_> = points
            .chunks(per_writer)
            .map(|share| {
                let start_line = &start_line;
                scope.spawn(move || {
                    let mut conn = Conn::connect(addr).expect("writer connect");
                    start_line.wait();
                    share
                        .chunks(B)
                        .map(|batch| ingest_batch(&mut conn, batch).seen)
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        writers
            .into_iter()
            .flat_map(|w| w.join().expect("writer thread"))
            .collect()
    });

    // every batch was applied whole: the acks are exactly B, 2B, ...
    acked.sort_unstable();
    let expected: Vec<u64> = (1..=points.len() / B).map(|i| (i * B) as u64).collect();
    assert_eq!(acked, expected, "interleaved or lost batches");
    // 25 groups sit far below the count_accuracy threshold: exact count
    let f0 = served_f0(addr);
    assert_eq!(f0.seen, N_POINTS);
    assert_eq!(f0.f0, N_ENTITIES as f64);
    handle.shutdown_and_join();
}

#[test]
fn checkpoint_over_http_restores_into_an_identical_server() {
    let dir = std::env::temp_dir().join(format!("rds_server_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let chk = dir.join("state.chk");
    let chk_str = chk.to_str().expect("utf-8 temp path").to_string();

    // server A: ingest, checkpoint over HTTP, record its answers
    let a = start(backend(), None);
    let addr_a = a.addr();
    let mut conn = Conn::connect(addr_a).expect("connect");
    ingest_all(&mut conn);
    let (status, body) = conn
        .request(
            "POST",
            "/checkpoint/save",
            Some(&format!("{{\"path\": \"{chk_str}\"}}")),
        )
        .expect("checkpoint save");
    assert_eq!(status, 200, "{body}");
    drop(conn);
    let f0_a = served_f0(addr_a);
    let q_a = served_query(addr_a);
    a.shutdown_and_join();

    // server B: boots from the container, must answer identically
    let b = start(
        Rds::builder().publish_every(PUBLISH_EVERY),
        Some(chk_str.clone()),
    );
    let addr_b = b.addr();
    let f0_b = served_f0(addr_b);
    let q_b = served_query(addr_b);
    assert_eq!(
        f0_a.f0.to_bits(),
        f0_b.f0.to_bits(),
        "restored f0 must be bit-identical"
    );
    assert_eq!(f0_a.seen, f0_b.seen);
    assert_eq!(q_a.records.len(), q_b.records.len());
    for (ra, rb) in q_a.records.iter().zip(&q_b.records) {
        assert_eq!(ra.rep, rb.rep);
        assert_eq!(ra.count, rb.count);
    }
    b.shutdown_and_join();

    // server C: starts empty, restores over live HTTP, same answers
    let c = start(backend(), None);
    let addr_c = c.addr();
    let (status, body) = client::request_once(
        addr_c,
        "POST",
        "/checkpoint/restore",
        Some(&format!("{{\"path\": \"{chk_str}\"}}")),
    )
    .expect("live restore");
    assert_eq!(status, 200, "{body}");
    let f0_c = served_f0(addr_c);
    assert_eq!(
        f0_a.f0.to_bits(),
        f0_c.f0.to_bits(),
        "live restore must be bit-identical"
    );
    let q_c = served_query(addr_c);
    assert_eq!(q_a.records.len(), q_c.records.len());
    c.shutdown_and_join();

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_with_checkpoint_persists_final_state() {
    let dir = std::env::temp_dir().join(format!("rds_server_e2e_shut_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let chk = dir.join("final.chk");
    let chk_str = chk.to_str().expect("utf-8 temp path").to_string();

    let a = start(backend(), None);
    let addr = a.addr();
    let mut conn = Conn::connect(addr).expect("connect");
    ingest_all(&mut conn);
    let f0_before = served_f0(addr);
    let (status, body) = conn
        .request(
            "POST",
            "/admin/shutdown",
            Some(&format!("{{\"checkpoint_path\": \"{chk_str}\"}}")),
        )
        .expect("shutdown");
    assert_eq!(status, 200, "{body}");
    drop(conn);
    a.join();

    let b = start(Rds::builder(), Some(chk_str));
    let f0_after = served_f0(b.addr());
    assert_eq!(f0_before.f0.to_bits(), f0_after.f0.to_bits());
    assert_eq!(f0_before.seen, f0_after.seen);
    b.shutdown_and_join();

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_batch_cadence_publishes_once_per_non_empty_ingest() {
    let handle = start(backend().publish_cadence(PublishCadence::EveryBatch), None);
    let addr = handle.addr();
    let mut conn = Conn::connect(addr).expect("connect");
    let empty = ingest_batch(&mut conn, &[]);
    assert_eq!((empty.ingested, empty.epoch), (0, 0), "nothing to publish");
    for (i, batch) in stream().chunks(BATCH).enumerate() {
        let ack = ingest_batch(&mut conn, batch);
        assert_eq!(ack.epoch, i as u64 + 1, "batch {i} publishes exactly once");
        assert_eq!(
            served_f0(addr).seen,
            ack.seen,
            "the batch {i} snapshot is served"
        );
        let again = ingest_batch(&mut conn, &[]);
        assert_eq!(again.epoch, ack.epoch, "an empty batch publishes nothing");
    }
    drop(conn);
    handle.shutdown_and_join();
}
