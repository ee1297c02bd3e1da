//! Throughput of the sharded ingestion engine at 1/2/4/8 shards against
//! the plain single-stream sampler, plus the concurrent serving rate of
//! the writer/reader split — with machine-readable output.
//!
//! The workload is the Section 5 F0 regime (threshold `kappa_B / eps^2`)
//! on a stream with many entities, where Algorithm 1's per-point linear
//! scan over the candidate sets dominates. Entity-affine routing gives
//! each of `N` shards `~F0 / N` candidate groups, so the aggregate scan
//! work per point drops by the shard factor — the speedup is algorithmic
//! and shows up even on a single hardware thread; multicore machines add
//! parallelism on top.
//!
//! The sharded group feeds the engine from **multiple feeder threads**
//! (one per shard) pushing pre-batched points through a bounded
//! channel, so stream generation and routing never serialize behind a
//! single producer loop; each row also reports per-shard utilization
//! (the fraction of the stream routed to each shard) so skewed routing
//! is visible in the numbers instead of silently flattening the curve.
//!
//! The concurrent group models a *serving* tier: readers issue query
//! bursts at a bounded rate (sleeping between bursts) rather than
//! spinning — a spin loop measures scheduler starvation, not snapshot
//! cost, and on small machines it starves the writer of every cycle.
//! The writer's points/sec under this load, relative to the unsharded
//! baseline, is the regression metric `ci.sh` gates on.
//!
//! Besides the human-readable lines, the bench writes `BENCH_engine.json`
//! (override the location with `RDS_BENCH_OUT`): points/sec per shard
//! count, the unsharded baseline, and — for the split facade — writer
//! points/sec with four readers querying concurrently plus the readers'
//! aggregate queries/sec during ingest. `RDS_BENCH_FAST=1` shrinks the
//! workload to a smoke test (used by CI).
//!
//! The window group times the publication of a sharded sliding-window
//! writer: four shards over a window that holds every entity, published
//! every 1024 points, so each publish merges the shards' window summaries
//! (`WindowSummary::merge_many`) at the full live-group count.

use rds_core::{RobustL0Sampler, SamplerConfig};
use rds_engine::ShardedEngine;
use rds_geometry::Point;
use rds_stream::Window;
use robust_distinct_sampling::{PublishCadence, Rds};
use serde::Serialize;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Entities on a well-separated 2-D lattice with near-duplicate jitter.
fn stream(n_points: u64, n_entities: u64) -> Vec<Point> {
    (0..n_points)
        .map(|i| {
            let e = i % n_entities;
            let jitter = 0.01 * ((i / n_entities) % 5) as f64;
            Point::new(vec![(e % 64) as f64 * 10.0 + jitter, (e / 64) as f64 * 10.0])
        })
        .collect()
}

const EPS: f64 = 0.09; // threshold 16/eps^2 ~ 1975 ≈ n_entities: no subsampling

fn fast_mode() -> bool {
    std::env::var_os("RDS_BENCH_FAST").is_some_and(|v| v != "0")
}

fn f0_threshold() -> usize {
    (rds_core::DEFAULT_KAPPA_B / (EPS * EPS)).ceil() as usize
}

fn config(n_points: u64) -> SamplerConfig {
    SamplerConfig::builder(2, 0.5)
        .seed(42)
        .expected_len(n_points)
        .build()
        .expect("valid benchmark configuration")
}

#[derive(Serialize)]
struct ShardRow {
    shards: usize,
    feeders: usize,
    points_per_sec: f64,
    /// Fraction of the stream routed to each shard (sums to 1): flat
    /// means the entity hash spread the load; a spike means one shard
    /// did the work and the scaling number is not trustworthy.
    shard_utilization: Vec<f64>,
}

#[derive(Serialize)]
struct ConcurrentRow {
    shards: usize,
    readers: usize,
    writer_points_per_sec: f64,
    reader_queries_per_sec: f64,
}

#[derive(Serialize)]
struct WindowPublishRow {
    shards: usize,
    window: u64,
    publish_every: u64,
    /// Median wall time of one publish (merge of the shard summaries).
    publish_ms_p50: f64,
    /// Writer throughput including the publishes.
    writer_points_per_sec: f64,
    /// F0 estimate of the final merged window summary.
    final_f0_estimate: f64,
}

#[derive(Serialize)]
struct EngineBenchReport {
    n_points: u64,
    n_entities: u64,
    iterations: u32,
    unsharded_points_per_sec: f64,
    sharded: Vec<ShardRow>,
    concurrent: ConcurrentRow,
    window_publish: WindowPublishRow,
}

/// Best-of-`iters` throughput of `run` over `n_points` items.
fn points_per_sec(n_points: u64, iters: u32, mut run: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters.max(1) {
        let start = Instant::now();
        run();
        best = best.min(start.elapsed().as_secs_f64());
    }
    n_points as f64 / best
}

fn bench_unsharded(points: &[Point], iters: u32) -> f64 {
    let n = points.len() as u64;
    points_per_sec(n, iters, || {
        let mut s =
            RobustL0Sampler::try_with_threshold(config(n), f0_threshold()).expect("valid");
        for batch in rds_stream::batched(points.iter().cloned(), 256) {
            s.process_batch(black_box(&batch));
        }
        black_box(s.f0_estimate());
    })
}

/// Sharded ingestion fed by `shards` feeder threads: each feeder owns a
/// contiguous slice of the stream and pushes 256-point batches through
/// a bounded channel; the engine thread drains it. Returns
/// (points/sec, per-shard utilization).
fn bench_sharded(points: &[Point], shards: usize, iters: u32) -> (f64, Vec<f64>) {
    let n = points.len() as u64;
    let feeders = shards.max(2);
    let mut utilization = Vec::new();
    let pps = points_per_sec(n, iters, || {
        let mut engine = ShardedEngine::try_with_threshold(config(n), shards, f0_threshold())
            .expect("valid");
        let (tx, rx) = std::sync::mpsc::sync_channel::<Vec<Point>>(feeders * 2);
        std::thread::scope(|scope| {
            let slice = points.len().div_ceil(feeders).max(1);
            for chunk in points.chunks(slice) {
                let tx = tx.clone();
                scope.spawn(move || {
                    for batch in rds_stream::batched(chunk.iter().cloned(), 256) {
                        if tx.send(batch).is_err() {
                            return;
                        }
                    }
                });
            }
            drop(tx);
            while let Ok(batch) = rx.recv() {
                engine.ingest_batch(batch);
            }
        });
        let loads = engine.shard_loads();
        let total: u64 = loads.iter().sum();
        utilization = loads
            .iter()
            .map(|&l| l as f64 / total.max(1) as f64)
            .collect();
        black_box(engine.finish().f0_estimate());
    });
    (pps, utilization)
}

/// The split facade under concurrent load: one writer ingesting the whole
/// stream, `readers` cloned readers querying in a loop the whole time.
/// Returns (writer points/sec, aggregate reader queries/sec).
fn bench_concurrent(points: &[Point], shards: usize, readers: usize) -> (f64, f64) {
    let n = points.len() as u64;
    let (mut writer, reader) = Rds::builder()
        .dim(2)
        .alpha(0.5)
        .seed(42)
        .expected_len(n)
        .count_accuracy(EPS)
        .shards(shards)
        .publish_every(1024)
        .build_split()
        .expect("valid");
    let done = AtomicBool::new(false);
    let queries = AtomicU64::new(0);
    let start = Instant::now();
    let elapsed = std::thread::scope(|scope| {
        for _ in 0..readers {
            let r = reader.clone();
            let done = &done;
            let queries = &queries;
            scope.spawn(move || {
                let mut local = 0u64;
                while !done.load(Ordering::Relaxed) {
                    // a serving burst against the current snapshot, then
                    // yield: serving tiers are rate-bound; an unbounded
                    // spin here measures scheduler starvation of the
                    // writer, not the cost of concurrent queries
                    for _ in 0..8 {
                        black_box(r.f0_estimate());
                        black_box(r.query());
                        local += 2;
                    }
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                queries.fetch_add(local, Ordering::Relaxed);
            });
        }
        for p in points {
            writer.process(p.clone());
        }
        writer.publish();
        let elapsed = start.elapsed().as_secs_f64();
        done.store(true, Ordering::Relaxed);
        elapsed
    });
    let total_queries = queries.load(Ordering::Relaxed);
    (n as f64 / elapsed, total_queries as f64 / elapsed)
}

/// A sharded sliding-window writer over the whole stream, published by
/// hand every `every` points; returns the median publish time (ms), the
/// writer's points/sec and the final F0 estimate.
fn bench_window_publish(
    points: &[Point],
    shards: usize,
    window: u64,
    every: usize,
) -> (f64, f64, f64) {
    let n = points.len() as u64;
    let (mut writer, reader) = Rds::builder()
        .dim(2)
        .alpha(0.5)
        .seed(42)
        .expected_len(n)
        .count_accuracy(EPS)
        .window(Window::Sequence(window))
        .shards(shards)
        .publish_cadence(PublishCadence::Manual)
        .build_split()
        .expect("valid");
    let mut publishes = Vec::new();
    let start = Instant::now();
    for chunk in points.chunks(every) {
        writer.process_batch(chunk.iter().cloned());
        let t = Instant::now();
        writer.publish();
        publishes.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let elapsed = start.elapsed().as_secs_f64();
    publishes.sort_by(f64::total_cmp);
    let p50 = publishes[publishes.len() / 2];
    (p50, n as f64 / elapsed, reader.f0_estimate())
}

fn main() {
    let (n_points, n_entities, iters) = if fast_mode() {
        (4_000u64, 500u64, 1u32)
    } else {
        (16_000u64, 2_000u64, 3u32)
    };
    let points = stream(n_points, n_entities);

    // Untimed warm-up traversal: a fresh process pays cold-cache and
    // clock-ramp penalties on its first pass over the stream, which at
    // the smoke-test workload size would swamp the measured loop.
    let _ = bench_unsharded(&points, 1);

    eprintln!("group engine_ingest ({n_points} points, {n_entities} entities)");
    let unsharded = bench_unsharded(&points, iters);
    eprintln!("  unsharded_baseline: {unsharded:.0} points/sec");
    let mut sharded = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        let (pps, shard_utilization) = bench_sharded(&points, shards, iters);
        let spread = shard_utilization
            .iter()
            .map(|u| format!("{:.0}%", u * 100.0))
            .collect::<Vec<_>>()
            .join(" ");
        eprintln!("  shards/{shards}: {pps:.0} points/sec (utilization {spread})");
        sharded.push(ShardRow {
            shards,
            feeders: shards.max(2),
            points_per_sec: pps,
            shard_utilization,
        });
    }

    eprintln!("group split_serving (writer + 4 readers, 4 shards)");
    let (writer_pps, reader_qps) = bench_concurrent(&points, 4, 4);
    eprintln!("  writer: {writer_pps:.0} points/sec while readers query");
    eprintln!("  readers: {reader_qps:.0} queries/sec during ingest");

    let (window, every) = (n_points / 2, 1024);
    eprintln!("group window_publish (4 shards, window {window}, publish every {every})");
    let (publish_ms, window_pps, window_f0) =
        bench_window_publish(&points, 4, window, every as usize);
    eprintln!("  publish p50: {publish_ms:.3} ms (final F0 estimate {window_f0:.0})");
    eprintln!("  writer: {window_pps:.0} points/sec including publishes");

    let report = EngineBenchReport {
        n_points,
        n_entities,
        iterations: iters,
        unsharded_points_per_sec: unsharded,
        sharded,
        concurrent: ConcurrentRow {
            shards: 4,
            readers: 4,
            writer_points_per_sec: writer_pps,
            reader_queries_per_sec: reader_qps,
        },
        window_publish: WindowPublishRow {
            shards: 4,
            window,
            publish_every: every,
            publish_ms_p50: publish_ms,
            writer_points_per_sec: window_pps,
            final_f0_estimate: window_f0,
        },
    };
    let out = std::env::var("RDS_BENCH_OUT").unwrap_or_else(|_| "BENCH_engine.json".into());
    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write(&out, &json).expect("write BENCH_engine.json");
    eprintln!("wrote {out}");
}
