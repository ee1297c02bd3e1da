//! Per-layer metrics for the traced run.
//!
//! After the traced workload, its generated inputs are replayed through
//! each lower layer's public functions, timed from the benchmark's side
//! of the call: no layer is instrumented inside. Layers the workload
//! itself did not drive (the facade on `http`/`tenants`, a live server
//! on `sample`/`count`/`tenants`, the registry on all but `tenants`) get
//! a short run of the same harness on the workload's inputs, so every
//! traced run reports every per-layer metric.

use crate::inputs::Inputs;
use crate::report::Report;
use crate::stats;
use crate::trace;
use crate::workloads::{count, http, sample, split, tenants};
use crate::Ctx;
use rds_bench::GroupLookup;
use rds_core::{
    BatchStats, CandidateStore, DistinctSampler, MergedSummary, RobustL0Sampler, SamplerConfig,
    SamplerContext, SamplerSummary, DEFAULT_KAPPA_B,
};
use rds_engine::ShardedEngine;
use rds_geometry::{for_each_adjacent_cell_fold_with, AdjacencyScratch, Point};
use rds_hashing::CellKeyMixer;
use rds_server::api_types::{self, IngestRequest, QueryResponse, RecordDto};
use rds_server::http::{read_request, write_response};
use rds_server::router::route;
use rds_tenant::spill;
use robust_distinct_sampling::{PublishCadence, Rds, WriterCheckpoint};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Points per replayed batch (the facade's own chunk size).
const CHUNK: usize = 256;

/// Nanoseconds per item of `pass` (which handles `items` items), timed
/// over enough repetitions to fill about 20 ms after one warm-up pass.
fn per_item_ns(items: usize, mut pass: impl FnMut()) -> f64 {
    pass();
    let mut reps = 0u64;
    let start = Instant::now();
    while reps == 0 || start.elapsed() < Duration::from_millis(20) {
        pass();
        reps += 1;
    }
    start.elapsed().as_nanos() as f64 / (reps as f64 * items.max(1) as f64)
}

/// The workload's inputs, sampler configuration and accept threshold.
fn regime(workload: &str, seed: u64) -> Result<(Inputs, SamplerConfig, usize), String> {
    let (inputs, sampler_seed, expected_len, eps) = match workload {
        "sample" => {
            let inputs = sample::inputs(seed);
            let len = inputs.points.len() as u64;
            (inputs, split::episode_seed(seed, 0), len, None)
        }
        "count" => {
            let inputs = count::inputs(seed);
            let len = inputs.points.len() as u64;
            (inputs, split::episode_seed(seed, 0), len, Some(count::EPS))
        }
        "http" => (http::inputs(seed), seed, http::EXPECTED_LEN, None),
        "tenants" => (tenants::inputs(seed), seed, tenants::EXPECTED_LEN, None),
        other => return Err(format!("unknown workload {other}")),
    };
    let cfg = SamplerConfig::builder(inputs.dim(), inputs.alpha())
        .seed(sampler_seed)
        .expected_len(expected_len)
        .build()
        .map_err(|e| e.to_string())?;
    let threshold = match eps {
        Some(eps) => (DEFAULT_KAPPA_B / (eps * eps)).ceil() as usize,
        None => cfg.threshold(),
    };
    Ok((inputs, cfg, threshold))
}

/// `rds-geometry` and `rds-hashing`: cell lookup, adjacency DFS, cell
/// keys and the batched k-wise hash.
fn hashing_geometry(report: &mut Report, ctx: &SamplerContext, points: &[Point]) {
    let (grid, hasher, alpha, dim) = (ctx.grid(), ctx.hasher(), ctx.alpha(), ctx.cfg().dim);
    let mut cell = Vec::new();
    let ns = per_item_ns(points.len(), || {
        for p in points {
            grid.cell_of_into(black_box(p), &mut cell);
            black_box(&cell);
        }
    });
    report.metric("geometry.cell_of_ns", ns, "ns");

    let mut cells = Vec::with_capacity(points.len() * dim);
    for p in points {
        grid.cell_of_into(p, &mut cell);
        cells.extend_from_slice(&cell);
    }
    let ns = per_item_ns(points.len(), || {
        for c in cells.chunks(dim) {
            black_box(hasher.cell_key(black_box(c)));
        }
    });
    report.metric("hashing.cell_key_ns", ns, "ns");

    let keys: Vec<u64> = cells.chunks(dim).map(|c| hasher.cell_key(c)).collect();
    let mut out = Vec::new();
    let ns = per_item_ns(keys.len(), || {
        for chunk in keys.chunks(CHUNK) {
            hasher.hash_keys_slice(black_box(chunk), &mut out);
            black_box(&out);
        }
    });
    report.metric("hashing.hash_keys_ns_per_key", ns, "ns");

    let mut scratch = AdjacencyScratch::new();
    let mut visited = 0u64;
    let mut passes = 0u64;
    let ns = per_item_ns(points.len(), || {
        passes += 1;
        for p in points {
            for_each_adjacent_cell_fold_with(
                grid,
                p,
                alpha,
                hasher.mixer().fold_init(dim),
                CellKeyMixer::fold_step,
                |_, key| {
                    visited += 1;
                    black_box(key);
                    false
                },
                &mut scratch,
            );
        }
    });
    report.metric("geometry.adjacency_ns_per_point", ns, "ns");
    report.metric(
        "geometry.adjacent_cells_per_point",
        visited as f64 / (passes * points.len() as u64).max(1) as f64,
        "count",
    );
}

/// `rds-core`: Algorithm 1's arrival path, copy-on-write summaries, the
/// candidate-store probe, and the summary merge and query.
fn core(
    report: &mut Report,
    cfg: &SamplerConfig,
    threshold: usize,
    points: &[Point],
) -> Result<(), String> {
    let new =
        || RobustL0Sampler::try_with_threshold(cfg.clone(), threshold).map_err(|e| e.to_string());
    let passes = (100_000 / points.len().max(1)).max(1);
    let (mut arrival_ns, mut cow_ns, mut totals) = (0f64, Vec::new(), BatchStats::default());
    let mut last = new()?;
    for _ in 0..passes {
        let mut s = new()?;
        for chunk in points.chunks(CHUNK) {
            let t0 = Instant::now();
            let batch = s.process_batch(black_box(chunk));
            arrival_ns += t0.elapsed().as_nanos() as f64;
            totals.merge(&batch);
            let t1 = Instant::now();
            black_box(DistinctSampler::summary_cow(&mut s));
            cow_ns.push(t1.elapsed().as_nanos() as f64);
        }
        last = s;
    }
    let fed = totals.total().max(1) as f64;
    report.metric("core.arrival_ns_per_point", arrival_ns / fed, "ns");
    report.metric(
        "core.duplicate_frac",
        totals.duplicates as f64 / fed,
        "frac",
    );
    report.metric("core.ignored_frac", totals.ignored as f64 / fed, "frac");
    report.metric(
        "core.rate_doublings",
        f64::from(last.rate_doublings()),
        "count",
    );
    report.metric(
        "core.summary_cow_ns",
        stats::median(&mut cow_ns).unwrap_or(0.0),
        "ns",
    );

    let ctx = last.context().clone();
    let mut scratch = Vec::new();
    let store = CandidateStore::from_records(last.accept_set(), last.reject_set(), |p| {
        ctx.cell_key(p, &mut scratch)
    });
    let keys: Vec<u64> = points
        .iter()
        .map(|p| ctx.cell_key(p, &mut scratch))
        .collect();
    let ns = per_item_ns(points.len(), || {
        for (p, &key) in points.iter().zip(&keys) {
            let mut best = None;
            store.probe_best(key, p, ctx.alpha(), &mut best);
            black_box(best);
        }
    });
    report.metric("core.probe_ns", ns, "ns");

    // Two sites fed alternate chunks, merged every few chunks.
    let (mut a, mut b) = (new()?, new()?);
    let mut merge_ns = Vec::new();
    let mut merged = None;
    for (i, pair) in points.chunks(2 * CHUNK).enumerate() {
        let (left, right) = pair.split_at(pair.len().min(CHUNK));
        a.process_batch(left);
        b.process_batch(right);
        if i % 4 == 3 || (i + 1) * 2 * CHUNK >= points.len() {
            let both = vec![a.summary_cow(), b.summary_cow()];
            let t0 = Instant::now();
            let m = MergedSummary::merge_many(both).map_err(|e| e.to_string())?;
            merge_ns.push(t0.elapsed().as_nanos() as f64);
            merged = m;
        }
    }
    let merged = merged.ok_or("nothing merged")?;
    report.metric(
        "core.merge_many_ns",
        stats::median(&mut merge_ns).unwrap_or(0.0),
        "ns",
    );
    report.metric(
        "core.merged_groups",
        (merged.accept_set().len() + merged.reject_set().len()) as f64,
        "count",
    );
    let mut draw = 0u64;
    let ns = per_item_ns(64, || {
        for _ in 0..64 {
            draw += 1;
            black_box(merged.query_k(4, draw));
        }
    });
    report.metric("core.query_k_ns", ns, "ns");
    Ok(())
}

/// `rds-engine` with two shards: routing + enqueue per point, the
/// flush + snapshot round trip, and how evenly points were routed.
fn engine(
    report: &mut Report,
    cfg: &SamplerConfig,
    threshold: usize,
    points: &[Point],
) -> Result<(), String> {
    let mut e =
        ShardedEngine::try_with_threshold(cfg.clone(), 2, threshold).map_err(|e| e.to_string())?;
    let (mut ingest_ns, mut snap_ns) = (0f64, Vec::new());
    for (i, chunk) in points.chunks(CHUNK).enumerate() {
        let t0 = Instant::now();
        e.ingest_batch(chunk.iter().cloned());
        ingest_ns += t0.elapsed().as_nanos() as f64;
        if i % 4 == 3 {
            let t1 = Instant::now();
            e.flush();
            black_box(e.snapshot());
            snap_ns.push(t1.elapsed().as_nanos() as f64);
        }
    }
    let loads = e.shard_loads();
    let mean = loads.iter().sum::<u64>() as f64 / loads.len().max(1) as f64;
    let most = loads.iter().copied().max().unwrap_or(0) as f64;
    black_box(e.finish());
    report.metric(
        "engine.ingest_batch_ns_per_point",
        ingest_ns / points.len().max(1) as f64,
        "ns",
    );
    report.metric(
        "engine.snapshot_ns",
        stats::median(&mut snap_ns).unwrap_or(0.0),
        "ns",
    );
    report.metric("engine.shard_skew", most / mean.max(1.0), "ratio");
    Ok(())
}

/// `rds-server`'s request path as pure functions: parse, route, body
/// decode, response encode and write.
fn server_codec(report: &mut Report, inputs: &Inputs, cfg: &SamplerConfig) -> Result<(), String> {
    let bodies = http::bodies(inputs);
    let body = bodies.first().ok_or("stream shorter than one ingest")?;
    let raw = format!(
        "POST /ingest HTTP/1.1\r\nHost: rds\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
        body.len()
    );
    let ns = per_item_ns(1, || {
        black_box(read_request(
            &mut std::io::Cursor::new(raw.as_bytes()),
            1 << 20,
        ));
    });
    report.metric("server.parse_ns", ns, "ns");
    let ns = per_item_ns(2, || {
        black_box(route(black_box("POST"), black_box("/ingest")).is_ok());
        black_box(route(black_box("GET"), black_box("/query_k")).is_ok());
    });
    report.metric("server.route_ns", ns, "ns");
    let ns = per_item_ns(1, || {
        black_box(serde_json::from_str::<IngestRequest>(black_box(body)).is_ok());
    });
    report.metric("server.ingest_decode_ns", ns, "ns");

    let (mut w, r) = Rds::builder()
        .dim(cfg.dim)
        .alpha(cfg.alpha)
        .seed(cfg.seed)
        .build_split()
        .map_err(|e| e.to_string())?;
    w.process_batch(inputs.points.iter().cloned());
    w.publish();
    let snap = r.snapshot();
    let records = snap.query_k_at(http::READ_K, 1);
    let encode = || {
        api_types::to_json(&QueryResponse {
            epoch: snap.epoch(),
            seen: snap.seen(),
            k: http::READ_K as u64,
            records: records.iter().map(RecordDto::from_record).collect(),
        })
    };
    let json = encode();
    let ns = per_item_ns(1, || {
        black_box(encode());
    });
    report.metric("server.query_encode_ns", ns, "ns");
    let ns = per_item_ns(1, || {
        let mut out = Vec::with_capacity(json.len() + 128);
        black_box(write_response(&mut out, 200, &json, true).is_ok());
        black_box(out);
    });
    report.metric("server.write_response_ns", ns, "ns");
    Ok(())
}

/// `rds-tenant`'s spill path: seal a tenant writer into a container,
/// write and read the container file, and reopen it.
fn tenant_containers(
    report: &mut Report,
    ctx: &Ctx,
    inputs: &Inputs,
    cfg: &SamplerConfig,
) -> Result<(), String> {
    let builder = || {
        Rds::builder()
            .dim(cfg.dim)
            .alpha(cfg.alpha)
            .shards(1)
            .seed(cfg.seed)
            .expected_len(cfg.expected_len)
            .publish_cadence(PublishCadence::Manual)
    };
    let (mut w, _r) = builder().build_split().map_err(|e| e.to_string())?;
    for p in inputs.points.iter().take(16) {
        w.process(p.clone());
        w.publish();
    }
    let json = w.checkpoint().to_container_json();
    report.metric("tenant.container_bytes", json.len() as f64, "bytes");
    let ns = per_item_ns(1, || {
        black_box(w.checkpoint().to_container_json());
    });
    report.metric("tenant.seal_ns", ns, "ns");
    let mut opened = true;
    let ns = per_item_ns(1, || {
        opened &= WriterCheckpoint::from_container_json(black_box(&json))
            .and_then(|chk| builder().restore(chk))
            .is_ok();
    });
    report.metric("tenant.open_ns", ns, "ns");
    report.check("tenant_container_reopens", opened);
    let dir = ctx
        .out_dir
        .join(format!("containers-{}", std::process::id()));
    let mut io_ok = true;
    let ns = per_item_ns(1, || {
        io_ok &= spill::write_container(&dir, "t0000000", &json).is_ok();
    });
    report.metric("tenant.container_write_ns", ns, "ns");
    let ns = per_item_ns(1, || {
        io_ok &= matches!(spill::read_container(&dir, "t0000000"), Ok(Some(_)));
    });
    report.metric("tenant.container_read_ns", ns, "ns");
    let _ = std::fs::remove_dir_all(&dir);
    report.check("tenant_container_io", io_ok);
    Ok(())
}

/// Replays the workload's inputs through every layer and adds the
/// harness-wide metrics (generator lag, tracing overhead).
pub fn run(workload: &str, ctx: &Ctx, report: &mut Report) {
    if let Err(e) = replay(workload, ctx, report) {
        eprintln!("rds-perfbench: layer replay: {e}");
        report.check("layer_replay", false);
    }
    let mut lag = report.lag_ns().to_vec();
    if let Some(t) = stats::tail(&mut lag) {
        report.metric("gen.lag_us_p99", t.value / 1e3, "us");
        report.samples("gen.lag_us_p99", t.count);
    }
    // Each traced thread pays the calibrated cost per span it recorded;
    // report the most burdened thread's share of its wall time.
    let cost = trace::span_cost_ns(ctx.origin);
    let overhead = report
        .threads()
        .iter()
        .map(|&(spans, wall_ns)| spans as f64 * cost / wall_ns.max(1.0))
        .fold(0.0, f64::max);
    report.metric("trace.overhead_frac", overhead, "frac");
    report.samples("trace.span_cost_ns", cost);
}

fn replay(workload: &str, ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let (inputs, cfg, threshold) = regime(workload, ctx.seed)?;
    let sctx = SamplerContext::new(cfg.clone());
    hashing_geometry(report, &sctx, &inputs.points);
    core(report, &cfg, threshold, &inputs.points)?;
    engine(report, &cfg, threshold, &inputs.points)?;
    server_codec(report, &inputs, &cfg)?;
    tenant_containers(report, ctx, &inputs, &cfg)?;
    if !report.has("facade.publishes") {
        let lookup = GroupLookup::new(&inputs.ds);
        let run = split::drive(
            &sample::CFG,
            &inputs,
            &lookup,
            split::Check::DistinctGroups,
            ctx,
            1.0,
        )?;
        let failed = run.reads.iter().filter(|s| !s.ok).count() as u64 + run.episode_failures;
        report.check("facade_layer_answers_ok", failed == 0);
        split::facade_metrics(report, &run);
    }
    if !report.has("server.unloaded_write_us") {
        http::server_layer(ctx, &inputs, report)?;
    }
    if !report.has("tenant.hit_frac") {
        tenants::tenant_layer(ctx, &inputs, report)?;
    }
    Ok(())
}
