//! The split writer under a reader: the shape shared by `sample` and
//! `count`.
//!
//! The writer thread runs closed-loop over *episodes*: each episode
//! builds a fresh writer/reader pair (sampler seed derived from the
//! workload seed and the episode number), feeds the whole generated
//! stream as `process_batch` + `publish` per batch, and checks the
//! final answer. One reader thread queries `query_k` open-loop at a
//! fixed rate against the current episode's reader, timed from each
//! query's due time, and checks every answer against the ground truth.
//! Shortly before each due time the reader makes one untimed query
//! (`sched::run_warm`), so a timed one finds its caches as a busy
//! reader's would be rather than as the host's other tenants left them.
//!
//! The writer's figures are restated by `speed::alu_slowdown_here`,
//! probed before every episode: arrival (hashing, adjacency search) and
//! merging are integer-throughput work, which a busy hyperthread sibling
//! slows by up to 1.7x without the pointer-chase probe noticing. The
//! reader's are restated by `speed::alloc_slowdown_here`, probed after
//! every read: a `query_k` answer is mostly small allocations, whose
//! cost doubles for minutes at a time while neither other probe moves.

use crate::inputs::Inputs;
use crate::report::Report;
use crate::sched::{self, Clock, OpenLoop, WallClock};
use crate::speed;
use crate::stats;
use crate::trace::{self, Span, Tracer};
use crate::Ctx;
use rds_bench::GroupLookup;
use rds_core::GroupRecord;
use rds_hashing::splitmix64;
use robust_distinct_sampling::{PublishCadence, Rds, RdsBuilder, RdsReader, RdsWriter};
use std::cell::RefCell;
use std::hint::black_box;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The shape of one split workload.
#[derive(Clone, Copy, Debug)]
pub struct SplitCfg {
    /// Engine shards (1 = the in-process sampler).
    pub shards: usize,
    /// `count_accuracy(eps)` when set (the F0 regime's threshold),
    /// otherwise Algorithm 1's default `kappa0 log m` threshold.
    pub eps: Option<f64>,
}

/// Points per `process_batch` + `publish`.
pub const BATCH: usize = 512;
/// Records per `query_k`.
pub const READ_K: usize = 4;
/// Reader queries per second. A faster reader's spin-wait takes
/// measurable time from the writer on two cores.
pub const READ_RATE: f64 = 500.0;

/// What an episode's final answer is checked against.
#[derive(Clone, Copy, Debug)]
pub enum Check {
    /// Every sampled rep maps to a distinct ground-truth group.
    DistinctGroups,
    /// The F0 estimate is within `(1 ± eps)` of the true group count.
    F0Within(f64),
}

/// The builder every episode of `cfg` uses.
pub fn builder(cfg: &SplitCfg, inputs: &Inputs, sampler_seed: u64) -> RdsBuilder {
    let b = Rds::builder()
        .dim(inputs.dim())
        .alpha(inputs.alpha())
        .seed(sampler_seed)
        .expected_len(inputs.points.len() as u64)
        .shards(cfg.shards)
        .publish_cadence(PublishCadence::Manual);
    match cfg.eps {
        Some(eps) => b.count_accuracy(eps),
        None => b,
    }
}

/// The sampler seed of episode `episode` of a run seeded `seed`.
pub fn episode_seed(seed: u64, episode: u64) -> u64 {
    splitmix64(seed ^ splitmix64(episode.wrapping_add(1)))
}

/// Whether every record's rep is a stream point of a distinct group.
pub fn distinct_groups(lookup: &GroupLookup, records: &[GroupRecord]) -> bool {
    let mut groups = Vec::with_capacity(records.len());
    for r in records {
        // `group_of` panics on a point that is not in the stream: that
        // is a wrong answer, counted rather than fatal.
        match std::panic::catch_unwind(AssertUnwindSafe(|| lookup.group_of(&r.rep))) {
            Ok(g) if !groups.contains(&g) => groups.push(g),
            _ => return false,
        }
    }
    true
}

fn episode_ok(check: Check, lookup: &GroupLookup, inputs: &Inputs, r: &RdsReader) -> bool {
    match check {
        Check::DistinctGroups => {
            let answer = r.query_k(READ_K);
            !answer.is_empty() && distinct_groups(lookup, &answer)
        }
        Check::F0Within(eps) => {
            let truth = inputs.ds.n_groups as f64;
            (r.f0_estimate() - truth).abs() <= eps * truth
        }
    }
}

/// Everything one split run measured.
pub struct SplitRun {
    /// Per write (batch + publish) latency.
    pub write_ns: Vec<f64>,
    /// The writer core's throughput slowdown (`speed.rs`) at each write.
    pub write_slowdown: Vec<f64>,
    /// Points fed.
    pub points: u64,
    /// Reader timelines.
    pub reads: Vec<sched::Sample>,
    /// Completed episodes and how many failed their final check.
    pub episodes: u64,
    /// Episodes whose final answer was wrong.
    pub episode_failures: u64,
    /// `words()` at the end of each completed episode.
    pub words: Vec<f64>,
    /// Per episode: seconds from `build_split` to the first answer
    /// (first batch fed and published, `query_k` answered).
    pub setup_s: Vec<f64>,
    /// Wall time of the run.
    pub wall_s: f64,
    /// Writer then reader spans.
    pub spans: Vec<Span>,
    /// (spans recorded, wall ns) per traced thread.
    pub threads: Vec<(usize, f64)>,
    /// Points the writer had fed but the reader's snapshot did not cover.
    pub staleness: Vec<f64>,
    /// Points per second of write time, per completed episode.
    pub episode_rates: Vec<f64>,
    /// The writer core's slowdown (`speed.rs`) per episode (the same
    /// order as `setup_s`, which may hold one more, unfinished episode).
    pub episode_slowdown: Vec<f64>,
    /// The reader core's allocation slowdown right after each read.
    pub read_slowdown: Vec<f64>,
}

/// Runs the writer and the reader for `seconds`.
pub fn drive(
    cfg: &SplitCfg,
    inputs: &Inputs,
    lookup: &GroupLookup,
    check: Check,
    ctx: &Ctx,
    seconds: f64,
) -> Result<SplitRun, String> {
    let current: Mutex<Option<RdsReader>> = Mutex::new(None);
    // Episode number (high 24 bits) and points fed (low 40) of the
    // writer, for the reader's staleness figure.
    let fed = AtomicU64::new(0);
    let episode_now = AtomicU64::new(u64::MAX);
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut tracer = Tracer::new(ctx.trace, ctx.origin, 2);
            let mut clock = WallClock::new(ctx.origin);
            let start_ns = clock.now_ns();
            let end_ns = start_ns + (seconds * 1e9) as u64;
            let plan = OpenLoop::new(start_ns, READ_RATE);
            let cached: RefCell<Option<(u64, RdsReader)>> = RefCell::new(None);
            // Follows the writer to its current episode's reader.
            let refresh = || {
                let ep = episode_now.load(Ordering::Acquire);
                let mut c = cached.borrow_mut();
                if c.as_ref().is_none_or(|(e, _)| *e != ep) {
                    let r = current.lock().expect("writer thread panicked").clone();
                    *c = r.map(|r| (ep, r));
                }
            };
            let mut staleness = Vec::new();
            let mut slowdown = Vec::new();
            let reads = sched::run_warm(
                &mut clock,
                &plan,
                end_ns,
                |_| {
                    refresh();
                    if let Some((_, r)) = cached.borrow().as_ref() {
                        black_box(r.query_k(READ_K));
                    }
                },
                |i, _| {
                    refresh();
                    let c = cached.borrow();
                    let (ep, r) = c.as_ref()?;
                    let span = tracer.begin("query_k", 0, (1 << 40) | i);
                    let answer = r.query_k(READ_K);
                    tracer.end(span);
                    if tracer.enabled() {
                        let f = fed.load(Ordering::Relaxed);
                        if f >> 40 == *ep & 0xFF_FFFF {
                            staleness.push((f & ((1 << 40) - 1)).saturating_sub(r.seen()) as f64);
                        }
                    }
                    Some(answer)
                },
                |answer| {
                    // Probed and judged after the answer was timed, so
                    // neither delays anything that is measured.
                    slowdown.push(speed::alloc_slowdown_here());
                    answer.is_none_or(|a| distinct_groups(lookup, &a))
                },
            );
            let wall = (clock.now_ns() - start_ns) as f64;
            (reads, tracer, staleness, slowdown, wall)
        });

        let mut tracer = Tracer::new(ctx.trace, ctx.origin, 1);
        let mut run = SplitRun {
            write_ns: Vec::new(),
            write_slowdown: Vec::new(),
            points: 0,
            reads: Vec::new(),
            episodes: 0,
            episode_failures: 0,
            words: Vec::new(),
            setup_s: Vec::new(),
            wall_s: 0.0,
            spans: Vec::new(),
            threads: Vec::new(),
            staleness: Vec::new(),
            episode_rates: Vec::new(),
            episode_slowdown: Vec::new(),
            read_slowdown: Vec::new(),
        };
        let mut op = 0u64;
        let mut episode = 0u64;
        let writer_result = (|| -> Result<(), String> {
            while Instant::now() < end {
                let slowdown = speed::alu_slowdown_here();
                let built = Instant::now();
                let (mut w, r): (RdsWriter, RdsReader) =
                    builder(cfg, inputs, episode_seed(ctx.seed, episode))
                        .build_split()
                        .map_err(|e| format!("build_split: {e}"))?;
                *current.lock().expect("reader thread panicked") = Some(r.clone());
                episode_now.store(episode, Ordering::Release);
                let loop_span = tracer.begin("writer_loop", 0, op + 1);
                let loop_id = loop_span.id(&tracer);
                let mut complete = true;
                let busy_before = run.write_ns.len();
                for chunk in inputs.points.chunks(BATCH) {
                    if Instant::now() >= end {
                        complete = false;
                        break;
                    }
                    op += 1;
                    let t0 = Instant::now();
                    tracer.span("process_batch", loop_id, op, || {
                        w.process_batch(chunk.iter().cloned())
                    });
                    fed.store((episode & 0xFF_FFFF) << 40 | w.seen(), Ordering::Relaxed);
                    tracer.span("publish", loop_id, op, || w.publish());
                    run.write_ns.push(t0.elapsed().as_nanos() as f64);
                    run.write_slowdown.push(slowdown);
                    run.points += chunk.len() as u64;
                    if run.setup_s.len() < episode as usize + 1 {
                        let first = r.query_k(READ_K);
                        run.setup_s.push(built.elapsed().as_secs_f64());
                        run.episode_slowdown.push(slowdown);
                        run.episode_failures += u64::from(first.is_empty());
                    }
                }
                tracer.end(loop_span);
                if complete {
                    let busy_ns: f64 = run.write_ns[busy_before..].iter().sum();
                    run.episode_rates
                        .push(inputs.points.len() as f64 / (busy_ns / 1e9).max(1e-12));
                    run.episodes += 1;
                    if !episode_ok(check, lookup, inputs, &r) {
                        run.episode_failures += 1;
                    }
                    run.words.push(w.words() as f64);
                }
                episode += 1;
            }
            Ok(())
        })();
        run.wall_s = start.elapsed().as_secs_f64();
        let (reads, reader_tracer, staleness, read_slowdown, reader_wall) = reader
            .join()
            .map_err(|_| "reader thread panicked".to_string())?;
        writer_result?;
        run.threads = vec![
            (tracer.spans().len(), run.wall_s * 1e9),
            (reader_tracer.spans().len(), reader_wall),
        ];
        run.spans = tracer.spans().to_vec();
        run.spans.extend_from_slice(reader_tracer.spans());
        run.reads = reads;
        run.staleness = staleness;
        run.read_slowdown = read_slowdown;
        Ok(run)
    })
}

/// Runs a whole split workload: inputs, set-up, the measured run, and
/// the metrics.
pub fn run_workload(
    inputs: &Inputs,
    cfg: &SplitCfg,
    check: Check,
    ctx: &Ctx,
    report: &mut Report,
) -> Result<(), String> {
    let lookup = GroupLookup::new(&inputs.ds);
    report.param("groups", inputs.ds.n_groups);
    report.param("dim", inputs.dim());
    report.param("alpha", inputs.alpha());
    report.param("stream_len", inputs.points.len());
    report.param("shards", cfg.shards);
    report.param("count_eps", cfg.eps);
    report.param("batch", BATCH);
    report.param("read_rate", READ_RATE);
    report.param("read_k", READ_K);
    let run = drive(cfg, inputs, &lookup, check, ctx, ctx.seconds)?;
    let failed_reads = run.reads.iter().filter(|s| !s.ok).count() as u64;
    report.ops(
        run.write_ns.len() as u64 + run.reads.len() as u64,
        failed_reads,
    );
    report.ops(run.episodes, run.episode_failures);
    report.check("episodes_completed", run.episodes > 0);
    report.samples("episodes", run.episodes);
    report.samples("points", run.points);
    report.samples("setup_s", run.setup_s.len());
    let med = |v: Vec<f64>| stats::median(&mut v.clone()).unwrap_or(0.0);
    report.samples("writer_slowdown", med(run.episode_slowdown.clone()));
    report.samples("reader_slowdown", med(run.read_slowdown.clone()));

    // CPU-bound figures restated at nominal speed (`speed.rs`), each
    // by the slowdown of the core that did the work at the time.
    let slow = &run.episode_slowdown;
    let setup: Vec<f64> = run.setup_s.iter().zip(slow).map(|(s, f)| s / f).collect();
    report.restated("setup_s", med(setup), med(run.setup_s.clone()), "s");
    let rates: Vec<f64> = run
        .episode_rates
        .iter()
        .zip(slow)
        .map(|(r, f)| r * f)
        .collect();
    report.restated(
        "ingest_pts_per_s",
        med(rates),
        med(run.episode_rates.clone()),
        "pts/s",
    );
    let per_write: Vec<f64> = run
        .write_ns
        .iter()
        .zip(&run.write_slowdown)
        .map(|(w, f)| w / f)
        .collect();
    report.latency_restated("write", &mut per_write.clone(), &mut run.write_ns.clone());
    let mut read_ns: Vec<f64> = run.reads.iter().map(|s| s.latency_ns() as f64).collect();
    let mut read_nominal: Vec<f64> = read_ns
        .iter()
        .zip(&run.read_slowdown)
        .map(|(r, f)| r / f)
        .collect();
    report.latency_restated("read", &mut read_nominal, &mut read_ns);

    // Each write counts as the writes a core at nominal speed would
    // have made in its time; reads come at the fixed rate.
    let writes_nominal: f64 = run.write_slowdown.iter().sum();
    let reads = run.reads.len() as f64;
    report.restated(
        "ops_per_s",
        (writes_nominal + reads) / run.wall_s,
        (run.write_ns.len() as f64 + reads) / run.wall_s,
        "1/s",
    );
    report.metric("space_words", med(run.words.clone()), "words");
    if ctx.trace {
        facade_metrics(report, &run);
    }
    Ok(())
}

/// The facade layer's per-layer metrics, from a split run's spans.
pub fn facade_metrics(report: &mut Report, run: &SplitRun) {
    let batch_ns: f64 = trace::durations(&run.spans, "process_batch").iter().sum();
    report.metric(
        "facade.process_batch_ns_per_point",
        batch_ns / run.points.max(1) as f64,
        "ns",
    );
    let mut publish = trace::durations(&run.spans, "publish");
    report.metric("facade.publishes", publish.len() as f64, "count");
    report.tail_metric(
        "facade.publish_ns_p50",
        "facade.publish_ns_p99",
        &mut publish,
        1.0,
        "ns",
    );
    let mut query = trace::durations(&run.spans, "query_k");
    report.metric(
        "facade.reader_query_k_ns",
        stats::median(&mut query).unwrap_or(0.0),
        "ns",
    );
    let mut staleness = run.staleness.clone();
    if let Some(t) = stats::tail_at_most(&mut staleness, 99.0) {
        report.metric("facade.staleness_pts_p99", t.value, "pts");
        report.samples("facade.staleness_pts_p99", t.count);
    }
    report.metric(
        "trace.writer_child_cover_frac",
        trace::child_cover(&run.spans, "writer_loop"),
        "frac",
    );
    report.open_loop(&run.reads);
    report.traced_threads(&run.threads);
    report.add_spans(&run.spans);
}
