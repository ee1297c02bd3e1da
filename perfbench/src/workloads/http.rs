//! `http`: `rds serve` in its own process, driven open-loop.
//!
//! One connection sends 50-point ingests, the other alternates
//! `query_k?k=8&seed=` and `f0` reads; both follow fixed-rate open-loop
//! schedules and time every request from its due time. The sampler
//! (unsharded, a few hundred 2-D entities, `count_accuracy` so it keeps
//! them all) does little per request, so
//! HTTP parsing, JSON and the writer-queue hop dominate; writes beside
//! reads show a gain for one that costs the other.
//!
//! After the fixed-rate phase a short ramp raises both rates stage by
//! stage to find `max_rps`, the highest total rate whose read tail stays
//! under [`READ_TAIL_LIMIT_US`] without a growing backlog. At the end
//! the over-the-wire `f0` and `query_k?seed=` answers must equal, bit
//! for bit, an in-process replay of every ingest the server acked.

use crate::inputs::{Inputs, Shape};
use crate::report::Report;
use crate::sched::{self, Clock, OpenLoop, Sample, WallClock};
use crate::speed::Speed;
use crate::stats;
use crate::trace::Tracer;
use crate::Ctx;
use rds_server::api_types::{F0Response, IngestResponse, QueryResponse};
use rds_server::client::{request_once, Conn};
use robust_distinct_sampling::{Rds, RdsReader, RdsWriter};
use serde::Value;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// 300 entities in `R^2` with up to 40 near-duplicates each.
pub const SHAPE: Shape = Shape {
    groups: 300,
    dim: 2,
    max_dups: 40,
};
/// Points per ingest request.
pub const BATCH: usize = 50;
/// The server's expected stream length (`rds serve`'s default).
pub const EXPECTED_LEN: u64 = 1 << 20;
/// The server publishes a snapshot every this many points.
pub const PUBLISH_EVERY: u64 = 256;
/// The server's `count_accuracy`: a threshold far above the 300
/// entities, so the sampler never doubles its rate. Under the default
/// threshold the rate level a seed's hash draws reach sets how many
/// points take the full arrival path, and moved the write latency by a
/// fifth from one seed to the next.
pub const COUNT_EPS: f64 = 0.1;
/// Ingest requests per second in the fixed-rate phase.
pub const WRITE_RATE: f64 = 200.0;
/// Read requests per second in the fixed-rate phase.
pub const READ_RATE: f64 = 1000.0;
/// Records per `query_k` read.
pub const READ_K: usize = 8;
/// The read tail latency `max_rps` must stay under.
pub const READ_TAIL_LIMIT_US: f64 = 2000.0;
/// Share of the run spent in the fixed-rate phase (the rest ramps).
const FIXED_SHARE: f64 = 0.7;
/// Ramp stage length and rate step.
const STAGE_S: f64 = 0.4;
const STAGE_STEP: f64 = 1.35;
/// Servers started for `setup_s`.
const SETUP_REPS: usize = 25;

/// A running `rds serve` child process; killed and reaped on drop.
pub struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    /// Where it listens.
    pub addr: SocketAddr,
}

impl Server {
    /// Starts `rds serve` on an ephemeral loopback port and waits for
    /// its "listening on" line.
    pub fn spawn(rds_bin: &Path, dim: usize, alpha: f64, seed: u64) -> Result<Self, String> {
        let mut child = Command::new(rds_bin)
            .args(["serve", "--addr", "127.0.0.1:0", "--threads", "2"])
            .args(["--dim", &dim.to_string(), "--alpha", &format!("{alpha}")])
            .args(["--seed", &seed.to_string()])
            .args(["--publish-every", &PUBLISH_EVERY.to_string()])
            .args(["--eps", &format!("{COUNT_EPS}")])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", rds_bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().ok_or("no server stdout")?);
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("rds-server listening on ")
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Self {
                child,
                _stdout: stdout,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("rds serve did not announce an address: {line:?}"))
            }
        }
    }

    /// Asks the server to drain and waits for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let answer = request_once(self.addr, "POST", "/admin/shutdown", None);
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return match answer {
                    Ok((200, _)) if status.success() => Ok(()),
                    other => Err(format!("server shutdown: {other:?}, exit {status}")),
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("server did not exit after /admin/shutdown".into())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The stream cut into ingest request bodies (sent cyclically).
pub fn bodies(inputs: &Inputs) -> Vec<String> {
    inputs
        .points
        .chunks(BATCH)
        .filter(|c| c.len() == BATCH)
        .map(|chunk| {
            let rows: Vec<String> = chunk
                .iter()
                .map(|p| {
                    let coords: Vec<String> = p.coords().iter().map(|c| format!("{c}")).collect();
                    format!("[{}]", coords.join(","))
                })
                .collect();
            format!("{{\"points\":[{}]}}", rows.join(","))
        })
        .collect()
}

fn connect(addr: SocketAddr) -> Result<Conn, String> {
    let conn = Conn::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    conn.set_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| format!("set timeout: {e}"))?;
    Ok(conn)
}

/// The read path of request `i` on the read connection.
fn read_path(i: u64) -> String {
    if i.is_multiple_of(2) {
        format!("/query_k?k={READ_K}&seed={i}")
    } else {
        "/f0".to_string()
    }
}

fn ingest_ok(answer: std::io::Result<(u16, String)>) -> bool {
    matches!(answer, Ok((200, body))
        if serde_json::from_str::<IngestResponse>(&body).is_ok_and(|r| r.ingested == BATCH as u64))
}

fn read_ok(i: u64, answer: std::io::Result<(u16, String)>) -> bool {
    match answer {
        Ok((200, body)) if i.is_multiple_of(2) => {
            serde_json::from_str::<QueryResponse>(&body).is_ok_and(|r| r.records.len() <= READ_K)
        }
        Ok((200, body)) => serde_json::from_str::<F0Response>(&body).is_ok(),
        _ => false,
    }
}

/// Both connections and their tracers, plus the count of ingests sent
/// (ingest `n` carries body `n % bodies.len()`).
pub struct Client<'a> {
    writer: Conn,
    reader: Conn,
    wtrace: Tracer,
    rtrace: Tracer,
    bodies: &'a [String],
    /// Ingests sent so far.
    pub sent: u64,
    /// Reads sent so far.
    reads: u64,
}

impl<'a> Client<'a> {
    /// Opens both connections.
    pub fn open(ctx: &Ctx, addr: SocketAddr, bodies: &'a [String]) -> Result<Self, String> {
        Ok(Self {
            writer: connect(addr)?,
            reader: connect(addr)?,
            wtrace: Tracer::new(ctx.trace, ctx.origin, 3),
            rtrace: Tracer::new(ctx.trace, ctx.origin, 4),
            bodies,
            sent: 0,
            reads: 0,
        })
    }

    /// Sequential requests with nothing else in flight: median latency
    /// (us) of `n` ingests, then of `n` reads.
    pub fn unloaded(&mut self, n: u64) -> (f64, f64, u64) {
        let mut failed = 0;
        let mut w = Vec::new();
        for _ in 0..n {
            let body = &self.bodies[(self.sent % self.bodies.len() as u64) as usize];
            let t0 = Instant::now();
            let answer = self.writer.request("POST", "/ingest", Some(body));
            w.push(t0.elapsed().as_nanos() as f64 / 1e3);
            failed += u64::from(!ingest_ok(answer));
            self.sent += 1;
        }
        let mut r = Vec::new();
        for _ in 0..n {
            let i = self.reads;
            let t0 = Instant::now();
            let answer = self.reader.request("GET", &read_path(i), None);
            r.push(t0.elapsed().as_nanos() as f64 / 1e3);
            failed += u64::from(!read_ok(i, answer));
            self.reads += 1;
        }
        let med = |v: &mut Vec<f64>| stats::median(v).unwrap_or(0.0);
        (med(&mut w), med(&mut r), failed)
    }

    /// Both connections on open-loop schedules at the given rates for
    /// `seconds`; returns (ingest samples, read samples).
    pub fn phase(
        &mut self,
        ctx: &Ctx,
        write_rate: f64,
        read_rate: f64,
        seconds: f64,
    ) -> (Vec<Sample>, Vec<Sample>) {
        let start_ns = WallClock::new(ctx.origin).now_ns() + 1_000_000;
        let end_ns = start_ns + (seconds * 1e9) as u64;
        let (bodies, sent0, reads0) = (self.bodies, self.sent, self.reads);
        let (writer, reader) = (&mut self.writer, &mut self.reader);
        let (wtrace, rtrace) = (&mut self.wtrace, &mut self.rtrace);
        let (ws, rs) = std::thread::scope(|scope| {
            let w = scope.spawn(move || {
                let mut clock = WallClock::new(ctx.origin);
                let plan = OpenLoop::new(start_ns, write_rate);
                sched::run(
                    &mut clock,
                    &plan,
                    end_ns,
                    |i, _| {
                        let n = sent0 + i;
                        let body = &bodies[(n % bodies.len() as u64) as usize];
                        wtrace.span("ingest_request", 0, (3 << 40) | n, || {
                            writer.request("POST", "/ingest", Some(body))
                        })
                    },
                    ingest_ok,
                )
            });
            let r = scope.spawn(move || {
                let mut clock = WallClock::new(ctx.origin);
                let plan = OpenLoop::new(start_ns, read_rate);
                sched::run(
                    &mut clock,
                    &plan,
                    end_ns,
                    |i, _| {
                        let n = reads0 + i;
                        let answer = rtrace.span("read_request", 0, (4 << 40) | n, || {
                            reader.request("GET", &read_path(n), None)
                        });
                        (n, answer)
                    },
                    |(n, answer)| read_ok(n, answer),
                )
            });
            (w.join(), r.join())
        });
        let ws = ws.unwrap_or_default();
        let rs = rs.unwrap_or_default();
        self.sent += ws.len() as u64;
        self.reads += rs.len() as u64;
        (ws, rs)
    }

    /// The client threads' spans and (spans, wall ns) per thread.
    pub fn finish_trace(&self, report: &mut Report, wall_ns: f64) {
        report.add_spans(self.wtrace.spans());
        report.add_spans(self.rtrace.spans());
        report.traced_threads(&[
            (self.wtrace.spans().len(), wall_ns),
            (self.rtrace.spans().len(), wall_ns),
        ]);
    }
}

/// Rebuilds the server's state in process from the acked ingests.
fn replay(
    inputs: &Inputs,
    bodies_len: usize,
    sent: u64,
    seed: u64,
) -> Result<(RdsWriter, RdsReader), String> {
    let (mut w, r) = Rds::builder()
        .publish_every(PUBLISH_EVERY)
        .dim(inputs.dim())
        .alpha(inputs.alpha())
        .shards(1)
        .seed(seed)
        .expected_len(EXPECTED_LEN)
        .count_accuracy(COUNT_EPS)
        .build_split()
        .map_err(|e| format!("replay build: {e}"))?;
    let chunks: Vec<&[rds_geometry::Point]> =
        inputs.points.chunks(BATCH).take(bodies_len).collect();
    for n in 0..sent {
        for p in chunks[(n % bodies_len as u64) as usize] {
            w.process(p.clone());
        }
    }
    Ok((w, r))
}

/// Whether the server's `f0` and `query_k?seed=` answers equal the
/// replay's bit for bit.
fn wire_matches_replay(addr: SocketAddr, r: &RdsReader) -> Result<bool, String> {
    let mut conn = connect(addr)?;
    let snap = r.snapshot();
    let (status, body) = conn
        .request("GET", "/f0", None)
        .map_err(|e| format!("f0: {e}"))?;
    let f0: F0Response = serde_json::from_str(&body).map_err(|e| format!("f0 body: {e}"))?;
    let mut same = status == 200
        && f0.f0.to_bits() == snap.f0_estimate().to_bits()
        && f0.seen == snap.seen()
        && f0.epoch == snap.epoch();
    let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
    for seed in [0u64, 1, 7, 1 << 33] {
        let path = format!("/query_k?k={READ_K}&seed={seed}");
        let (status, body) = conn
            .request("GET", &path, None)
            .map_err(|e| format!("query_k: {e}"))?;
        let q: QueryResponse =
            serde_json::from_str(&body).map_err(|e| format!("query_k body: {e}"))?;
        let want = snap.query_k_at(READ_K, seed);
        same &= status == 200
            && q.records.len() == want.len()
            && q.records.iter().zip(&want).all(|(got, w)| {
                bits(&got.rep) == bits(w.rep.coords())
                    && bits(&got.reservoir) == bits(w.reservoir.coords())
                    && got.count == w.count
            });
    }
    Ok(same)
}

/// Median time to start `rds serve` and get its first `f0` answer; the
/// last server started is returned running.
fn setup(ctx: &Ctx, inputs: &Inputs) -> Result<(f64, Server), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let server = Server::spawn(&ctx.rds_bin, inputs.dim(), inputs.alpha(), ctx.seed)?;
        let answer = connect(server.addr)?.request("GET", "/f0", None);
        times.push(t0.elapsed().as_secs_f64());
        if !matches!(answer, Ok((200, _))) {
            return Err(format!("first f0 answer: {answer:?}"));
        }
        if rep + 1 == SETUP_REPS {
            kept = Some(server);
        } else {
            server.shutdown()?;
        }
    }
    let server = kept.ok_or("no server started")?;
    Ok((stats::median(&mut times).unwrap_or(0.0), server))
}

/// Ramps both rates by [`STAGE_STEP`] per stage until the read tail
/// exceeds the limit or the backlog grows; returns the interpolated
/// highest passing total rate, the stages run, and failed requests.
fn ramp(ctx: &Ctx, client: &mut Client, seconds: f64) -> (f64, Vec<(f64, f64, bool)>, u64, u64) {
    let stages = ((seconds / STAGE_S).floor() as usize).max(1);
    let mut rows: Vec<(f64, f64, bool)> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for j in 0..stages {
        let scale = STAGE_STEP.powi(j as i32 + 1);
        let (ws, rs) = client.phase(ctx, WRITE_RATE * scale, READ_RATE * scale, STAGE_S);
        attempted += (ws.len() + rs.len()) as u64;
        failed += ws.iter().chain(&rs).filter(|s| !s.ok).count() as u64;
        let mut lat: Vec<f64> = rs.iter().map(|s| s.latency_ns() as f64 / 1e3).collect();
        let tail = stats::tail(&mut lat).map_or(f64::INFINITY, |t| t.value);
        // A backlog that grew leaves the last requests sent late.
        let grew = ws
            .iter()
            .chain(&rs)
            .any(|s| s.lag_ns() as f64 > STAGE_S * 0.1 * 1e9);
        let pass = tail <= READ_TAIL_LIMIT_US && !grew;
        rows.push(((WRITE_RATE + READ_RATE) * scale, tail, pass));
        if !pass {
            break;
        }
    }
    let base = (WRITE_RATE + READ_RATE, 0.0);
    let passing = rows.iter().rev().find(|r| r.2).map_or(base, |r| (r.0, r.1));
    let max_rps = match rows.iter().find(|r| !r.2) {
        // Interpolate on the read tail between the last passing stage
        // and the first failing one (log-rate scale).
        Some(&(fail_rate, fail_tail, _)) if fail_tail.is_finite() && fail_tail > passing.1 => {
            let f = ((READ_TAIL_LIMIT_US - passing.1) / (fail_tail - passing.1)).clamp(0.0, 1.0);
            passing.0 * (fail_rate / passing.0).powf(f)
        }
        _ => passing.0,
    };
    (max_rps, rows, attempted, failed)
}

/// The server layer measured live against a running `rds serve`:
/// unloaded request latency and an open-loop burst's backlog and lag.
pub fn server_layer(ctx: &Ctx, inputs: &Inputs, report: &mut Report) -> Result<(), String> {
    let server = Server::spawn(&ctx.rds_bin, inputs.dim(), inputs.alpha(), ctx.seed)?;
    let bodies = bodies(inputs);
    let mut client = Client::open(ctx, server.addr, &bodies)?;
    let (w, r, failed) = client.unloaded(200);
    report.metric("server.unloaded_write_us", w, "us");
    report.metric("server.unloaded_read_us", r, "us");
    let (ws, rs) = client.phase(ctx, WRITE_RATE / 2.0, READ_RATE / 2.0, 1.0);
    report.open_loop(&ws);
    report.open_loop(&rs);
    report.metric("server.backlog_max", report.backlog_max() as f64, "count");
    let bad = failed + ws.iter().chain(&rs).filter(|s| !s.ok).count() as u64;
    drop(client);
    server.shutdown()?;
    report.check("server_layer_requests_ok", bad == 0);
    Ok(())
}

/// The workload's stream for `seed`.
pub fn inputs(seed: u64) -> Inputs {
    Inputs::generate("Rand2", SHAPE, seed)
}

/// Runs the workload.
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let inputs = inputs(ctx.seed);
    let bodies = bodies(&inputs);
    for (name, value) in [("write_rate", WRITE_RATE), ("read_rate", READ_RATE)] {
        report.param(name, value);
    }
    report.param("groups", inputs.ds.n_groups);
    report.param("dim", inputs.dim());
    report.param("alpha", inputs.alpha());
    report.param("batch", BATCH);
    report.param("publish_every", PUBLISH_EVERY);
    report.param("read_k", READ_K);
    report.param("read_tail_limit_us", READ_TAIL_LIMIT_US);
    report.param("connections", 2);
    report.param("setup_reps", SETUP_REPS);

    // The work runs in the server's threads, which float over both
    // cores: probe the box's speed from the background (`speed.rs`).
    let probe = Speed::start();
    let (setup_s, server) = setup(ctx, &inputs)?;
    let mut client = Client::open(ctx, server.addr, &bodies)?;
    let t0 = Instant::now();
    if ctx.trace {
        let (w, r, failed) = client.unloaded(200);
        report.metric("server.unloaded_write_us", w, "us");
        report.metric("server.unloaded_read_us", r, "us");
        report.ops(400, failed);
    }
    let fixed_s = ctx.seconds * FIXED_SHARE;
    let (ws, rs) = client.phase(ctx, WRITE_RATE, READ_RATE, fixed_s);
    let failed = ws.iter().chain(&rs).filter(|s| !s.ok).count() as u64;
    report.ops((ws.len() + rs.len()) as u64, failed);
    let span_s = ws.iter().chain(&rs).map(|s| s.done_ns).max().unwrap_or(0) as f64 / 1e9
        - ws.iter().chain(&rs).map(|s| s.due_ns).min().unwrap_or(0) as f64 / 1e9;
    report.metric(
        "ingest_pts_per_s",
        (ws.len() * BATCH) as f64 / span_s.max(1e-9),
        "pts/s",
    );
    report.metric(
        "ops_per_s",
        (ws.len() + rs.len()) as f64 / span_s.max(1e-9),
        "1/s",
    );
    let (slowdown, probes) = probe.finish();
    report.samples("slowdown", slowdown);
    report.samples("slowdown_probes", probes);
    report.restated("setup_s", setup_s / slowdown, setup_s, "s");
    let mut w_lat: Vec<f64> = ws.iter().map(|s| s.latency_ns() as f64).collect();
    let mut w_nominal: Vec<f64> = w_lat.iter().map(|v| v / slowdown).collect();
    report.latency_restated("write", &mut w_nominal, &mut w_lat);
    let mut r_lat: Vec<f64> = rs.iter().map(|s| s.latency_ns() as f64).collect();
    let mut r_nominal: Vec<f64> = r_lat.iter().map(|v| v / slowdown).collect();
    report.latency_restated("read", &mut r_nominal, &mut r_lat);
    report.open_loop(&ws);
    report.open_loop(&rs);
    report.metric("server.backlog_max", report.backlog_max() as f64, "count");

    let (max_rps, rows, attempted, failed) = ramp(ctx, &mut client, ctx.seconds - fixed_s);
    report.ops(attempted, failed);
    report.metric("max_rps", max_rps, "1/s");
    let stages = rows.iter().map(|&(rate, tail, pass)| {
        Value::Map(vec![
            ("offered_rps".into(), Value::F64(rate)),
            ("read_tail_us".into(), Value::F64(tail)),
            ("pass".into(), Value::Bool(pass)),
        ])
    });
    report.samples("ramp", Value::Seq(stages.collect()));
    if ctx.trace {
        client.finish_trace(report, t0.elapsed().as_nanos() as f64);
    }

    let (mut w, r) = replay(&inputs, bodies.len(), client.sent, ctx.seed)?;
    let same = wire_matches_replay(server.addr, &r)?;
    report.check("wire_equals_replay", same);
    report.metric("space_words", w.words() as f64, "words");
    drop(client);
    server.shutdown()?;
    Ok(())
}
