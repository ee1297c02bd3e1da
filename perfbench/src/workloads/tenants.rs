//! `tenants`: an in-process `TenantRegistry` under eviction.
//!
//! One thread runs closed-loop over Zipf(1.0) tenant keys drawn from a
//! key space far beyond what the space budget holds resident: three of
//! every four operations ingest one point into the drawn tenant, the
//! fourth reads it (`query_k_at` or `f0_estimate`). Tail tenants fault
//! in from spill containers and push cold ones out, so spill/restore and
//! eviction do most of the work here and nowhere else.
//!
//! Checks: resident words stay within the budget after every operation,
//! and sentinel tenants, force-evicted at the end and touched again,
//! answer bit-identically to an eviction-free control registry that
//! replayed the same items.

use crate::inputs::{Inputs, Shape};
use crate::report::Report;
use crate::speed;
use crate::stats;
use crate::trace::Tracer;
use crate::Ctx;
use rds_core::GroupRecord;
use rds_geometry::Point;
use rds_hashing::splitmix64;
use rds_stream::ZipfKeys;
use rds_tenant::{TenantRegistry, TenantTemplate};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The pool tenant items are drawn from: 2000 entities in `R^2`.
pub const SHAPE: Shape = Shape {
    groups: 2000,
    dim: 2,
    max_dups: 20,
};

/// The size and shape of one registry run.
#[derive(Clone, Copy, Debug)]
pub struct TenantCfg {
    /// Zipf key space.
    pub key_space: usize,
    /// Fresh-tenant footprints the budget holds (x4 headroom).
    pub resident_target: usize,
    /// Untimed operations run first, so the timed phase starts warm.
    pub warmup_ops: u64,
    /// During the timed phase, a fresh registry is set up after every
    /// this many operations (0: never) for `setup_s`.
    pub setup_every: u64,
}

/// The workload's registry: 50k tenants, room for about a thousand.
pub const CFG: TenantCfg = TenantCfg {
    key_space: 50_000,
    resident_target: 256,
    warmup_ops: 10_000,
    setup_every: 200,
};

/// Zipf exponent of the tenant keys.
const THETA: f64 = 1.0;
/// Each tenant sampler's expected stream length.
pub const EXPECTED_LEN: u64 = 4_096;
/// Every `READ_EVERY`-th operation is a read.
const READ_EVERY: u64 = 4;
/// Throughput is the median over windows of this many operations.
const WINDOW_OPS: u64 = 1_000;
/// Tenants whose answers are checked against the control at the end.
const SENTINELS: [u64; 4] = [0, 7, 100, 1_000];

fn tenant_id(rank: u64) -> String {
    format!("t{rank:07}")
}

fn template(inputs: &Inputs, seed: u64) -> TenantTemplate {
    let mut t = TenantTemplate::new(inputs.dim(), inputs.alpha());
    t.seed = seed;
    t.expected_len = EXPECTED_LEN;
    t
}

/// The item tenant `rank` receives on its `touch`-th ingest.
fn item(inputs: &Inputs, rank: u64, touch: u64) -> &Point {
    let n = inputs.points.len() as u64;
    &inputs.points[((splitmix64(rank) % n + touch) % n) as usize]
}

/// A scratch directory under the run's output directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(ctx: &Ctx, tag: &str) -> Result<Self, String> {
        let dir = ctx
            .out_dir
            .join(format!("tenants-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    fn path(&self, sub: &str) -> PathBuf {
        self.0.join(sub)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The registry plus the traffic generator's state.
struct Traffic<'a> {
    inputs: &'a Inputs,
    reg: TenantRegistry,
    budget: usize,
    keys: ZipfKeys,
    touches: HashMap<u64, u64>,
    sentinel_items: Vec<Vec<Point>>,
    op: u64,
}

/// What a stretch of traffic measured.
#[derive(Default)]
struct Measured {
    ingest_ns: Vec<f64>,
    read_ns: Vec<f64>,
    hit_ns: Vec<f64>,
    fault_ns: Vec<f64>,
    setup_s: Vec<f64>,
    /// The core's slowdown (`speed.rs`) at each ingest, read and set-up.
    ingest_slowdown: Vec<f64>,
    read_slowdown: Vec<f64>,
    setup_slowdown: Vec<f64>,
    /// (operations, ingests, seconds, slowdown) per window of
    /// [`WINDOW_OPS`].
    windows: Vec<(u64, u64, f64, f64)>,
    failed: u64,
    over_budget: u64,
    wall_s: f64,
}

impl Traffic<'_> {
    /// Runs operations until `deadline` or `max_ops`; `classify` takes
    /// registry stats around each operation to split hits from faults.
    /// After every `setup_every`-th operation a fresh registry is set up
    /// and timed by `setup`, and at every window the core's speed is
    /// probed; neither counts in `wall_s`.
    fn run(
        &mut self,
        max_ops: u64,
        deadline: Instant,
        classify: bool,
        tracer: &mut Tracer,
        setup_every: u64,
        setup: &mut dyn FnMut() -> Option<f64>,
    ) -> Measured {
        let mut m = Measured::default();
        let start = Instant::now();
        let mut excluded = Duration::ZERO;
        let mut slowdown = speed::slowdown_here();
        let (mut window_start, mut window_excluded, mut window_ingests) =
            (Instant::now(), Duration::ZERO, 0);
        for n in 0..max_ops {
            if Instant::now() >= deadline {
                break;
            }
            if n > 0 && n % WINDOW_OPS == 0 {
                let secs = (window_start.elapsed() - window_excluded).as_secs_f64();
                m.windows.push((WINDOW_OPS, window_ingests, secs, slowdown));
                let t0 = Instant::now();
                slowdown = speed::slowdown_here();
                excluded += t0.elapsed();
                (window_start, window_excluded, window_ingests) =
                    (Instant::now(), Duration::ZERO, 0);
            }
            if setup_every > 0 && n % setup_every == setup_every - 1 {
                let t0 = Instant::now();
                match setup() {
                    Some(s) => {
                        m.setup_s.push(s);
                        m.setup_slowdown.push(slowdown);
                    }
                    None => m.failed += 1,
                }
                excluded += t0.elapsed();
                window_excluded += t0.elapsed();
            }
            self.op += 1;
            let op = self.op;
            let rank = self.keys.next_key();
            let id = tenant_id(rank);
            let before = classify.then(|| self.reg.stats());
            let read = op.is_multiple_of(READ_EVERY);
            let (ok, dt) = if read {
                let t0 = Instant::now();
                let ok = tracer.span("tenant_read", 0, op, || {
                    if op.is_multiple_of(2 * READ_EVERY) {
                        self.reg.query_k_at(&id, 4, op).is_ok()
                    } else {
                        self.reg.f0_estimate(&id).is_ok()
                    }
                });
                (ok, t0.elapsed())
            } else {
                let touch = self.touches.entry(rank).or_insert(0);
                let p = item(self.inputs, rank, *touch).clone();
                *touch += 1;
                if let Some(i) = SENTINELS.iter().position(|&s| s == rank) {
                    self.sentinel_items[i].push(p.clone());
                }
                let t0 = Instant::now();
                let ok = tracer.span("tenant_ingest", 0, op, || {
                    self.reg.ingest(&id, std::slice::from_ref(&p), None).is_ok()
                });
                (ok, t0.elapsed())
            };
            let ns = dt.as_nanos() as f64;
            if read {
                m.read_ns.push(ns);
                m.read_slowdown.push(slowdown);
            } else {
                m.ingest_ns.push(ns);
                m.ingest_slowdown.push(slowdown);
                window_ingests += 1;
            }
            m.failed += u64::from(!ok);
            m.over_budget += u64::from(self.reg.resident_words() > self.budget);
            if let Some(b) = before {
                let a = self.reg.stats();
                if a.restores + a.creates > b.restores + b.creates {
                    m.fault_ns.push(ns);
                } else {
                    m.hit_ns.push(ns);
                }
            }
        }
        m.wall_s = (start.elapsed() - excluded).as_secs_f64();
        m
    }

    /// Force-evicts each sentinel, touches it again, and compares its
    /// answers with a never-evicting registry fed the same items.
    fn sentinels_match(&self, template: &TenantTemplate, dir: &Path) -> Result<bool, String> {
        let control = TenantRegistry::new(template.clone(), usize::MAX / 2, dir)
            .map_err(|e| format!("control registry: {e}"))?;
        let fingerprint = |r: Option<GroupRecord>| {
            r.map(|g| {
                let bits = |p: &Point| p.coords().iter().map(|c| c.to_bits()).collect::<Vec<_>>();
                (bits(&g.rep), g.cell_hash, g.count, bits(&g.reservoir))
            })
        };
        let mut all = true;
        for (i, &rank) in SENTINELS.iter().enumerate() {
            let items = &self.sentinel_items[i];
            if items.is_empty() {
                continue;
            }
            let id = tenant_id(rank);
            for p in items {
                control
                    .ingest(&id, std::slice::from_ref(p), None)
                    .map_err(|e| format!("control ingest: {e}"))?;
            }
            self.reg
                .evict(&id)
                .map_err(|e| format!("evict {id}: {e}"))?;
            let err = |e: rds_core::RdsError| format!("sentinel {id}: {e}");
            let f0 = self.reg.f0_estimate(&id).map_err(err)?;
            let want = control.f0_estimate(&id).map_err(err)?;
            let mut same = f0.to_bits() == want.to_bits();
            for d in 0..4 {
                same &= fingerprint(self.reg.query_at(&id, d).map_err(err)?)
                    == fingerprint(control.query_at(&id, d).map_err(err)?);
            }
            all &= same;
        }
        Ok(all && !self.sentinel_items[0].is_empty())
    }
}

/// Words a fresh tenant holds after its first item.
fn words_per_tenant(
    inputs: &Inputs,
    template: &TenantTemplate,
    dir: &Path,
) -> Result<usize, String> {
    let reg = TenantRegistry::new(template.clone(), usize::MAX / 2, dir)
        .map_err(|e| format!("probe registry: {e}"))?;
    let ack = reg
        .ingest("probe", std::slice::from_ref(item(inputs, 0, 0)), None)
        .map_err(|e| format!("probe ingest: {e}"))?;
    Ok(ack.words.max(1))
}

/// Seconds to open a registry, ingest one point and read it back
/// (`None` if any step fails or the read sees nothing).
fn setup_once(
    inputs: &Inputs,
    template: &TenantTemplate,
    budget: usize,
    dir: &Path,
) -> Option<f64> {
    let t0 = Instant::now();
    let reg = TenantRegistry::new(template.clone(), budget, dir).ok()?;
    let id = tenant_id(0);
    reg.ingest(&id, std::slice::from_ref(item(inputs, 0, 0)), None)
        .ok()?;
    let f0 = reg.f0_estimate(&id).ok()?;
    let secs = t0.elapsed().as_secs_f64();
    (f0 > 0.0).then_some(secs)
}

/// One registry run: set-up, warm-up, `seconds` of measured traffic and
/// the end checks. Records end-to-end metrics when `end_to_end`, and
/// the tenant layer's metrics when `ctx.trace`.
fn drive(
    ctx: &Ctx,
    inputs: &Inputs,
    cfg: &TenantCfg,
    seconds: f64,
    end_to_end: bool,
    report: &mut Report,
) -> Result<(), String> {
    let scratch = Scratch::new(ctx, if end_to_end { "run" } else { "layer" })?;
    let template = template(inputs, ctx.seed);
    let per_tenant = words_per_tenant(inputs, &template, &scratch.path("probe"))?;
    let budget = per_tenant * cfg.resident_target * 4;
    if end_to_end {
        report.param("key_space", cfg.key_space);
        report.param("theta", THETA);
        report.param("budget_words", budget);
        report.param("words_per_fresh_tenant", per_tenant);
        report.param("warmup_ops", cfg.warmup_ops);
        report.param("read_every", READ_EVERY);
        report.param("item_pool", inputs.points.len());
        report.param("setup_every", cfg.setup_every);
    }
    let reg = TenantRegistry::new(template.clone(), budget, scratch.path("spill"))
        .map_err(|e| format!("registry: {e}"))?;
    let keys = ZipfKeys::try_new(cfg.key_space, THETA, ctx.seed).map_err(|e| e.to_string())?;
    let mut traffic = Traffic {
        inputs,
        reg,
        budget,
        keys,
        touches: HashMap::new(),
        sentinel_items: vec![Vec::new(); SENTINELS.len()],
        op: 0,
    };
    let far = Instant::now() + Duration::from_secs(3600);
    let mut idle = Tracer::new(false, ctx.origin, 5);
    let warm = traffic.run(cfg.warmup_ops, far, false, &mut idle, 0, &mut || None);
    let before = traffic.reg.stats();
    let mut tracer = Tracer::new(ctx.trace, ctx.origin, 5);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let setup_dir = scratch.path("setup");
    let mut setup = || setup_once(inputs, &template, budget, &setup_dir);
    let m = traffic.run(
        u64::MAX,
        deadline,
        ctx.trace,
        &mut tracer,
        cfg.setup_every,
        &mut setup,
    );
    let after = traffic.reg.stats();
    let ops = (m.ingest_ns.len() + m.read_ns.len()) as u64;
    report.ops(
        ops + warm.ingest_ns.len() as u64 + warm.read_ns.len() as u64,
        m.failed + warm.failed,
    );
    report.check(
        "resident_words_within_budget",
        m.over_budget + warm.over_budget == 0,
    );
    let same = traffic.sentinels_match(&template, &scratch.path("control"))?;
    report.check("evicted_sentinels_match_control", same);

    if end_to_end {
        report.samples("setup_s", m.setup_s.len());
        report.samples("ops", ops);
        report.samples("throughput_windows", m.windows.len());
        let med = |v: Vec<f64>| stats::median(&mut v.clone()).unwrap_or(0.0);
        report.samples("slowdown", med(m.windows.iter().map(|w| w.3).collect()));
        // CPU-bound figures restated at nominal speed (`speed.rs`).
        let over =
            |v: &[f64], f: &[f64]| -> Vec<f64> { v.iter().zip(f).map(|(x, f)| x / f).collect() };
        let setups = over(&m.setup_s, &m.setup_slowdown);
        report.restated("setup_s", med(setups), med(m.setup_s.clone()), "s");
        let rate = |pick: fn(&(u64, u64, f64, f64)) -> u64, nominal: bool| {
            med(m
                .windows
                .iter()
                .map(|w| pick(w) as f64 / w.2 * if nominal { w.3 } else { 1.0 })
                .collect())
        };
        report.restated(
            "ops_per_s",
            rate(|w| w.0, true),
            rate(|w| w.0, false),
            "1/s",
        );
        report.restated(
            "ingest_pts_per_s",
            rate(|w| w.1, true),
            rate(|w| w.1, false),
            "pts/s",
        );
        report.metric("space_words", traffic.reg.resident_words() as f64, "words");
        let (mut w, mut r) = (m.ingest_ns.clone(), m.read_ns.clone());
        report.latency_restated("write", &mut over(&w, &m.ingest_slowdown), &mut w);
        report.latency_restated("read", &mut over(&r, &m.read_slowdown), &mut r);
    }
    if ctx.trace {
        let per_op = |n: u64| n as f64 / ops.max(1) as f64;
        report.metric(
            "tenant.hit_frac",
            m.hit_ns.len() as f64 / ops.max(1) as f64,
            "frac",
        );
        report.metric(
            "tenant.spills_per_op",
            per_op(after.spills - before.spills),
            "1/op",
        );
        report.metric(
            "tenant.restores_per_op",
            per_op(after.restores - before.restores),
            "1/op",
        );
        report.metric(
            "tenant.creates_per_op",
            per_op(after.creates - before.creates),
            "1/op",
        );
        let (mut hit, mut fault) = (m.hit_ns, m.fault_ns);
        report.metric(
            "tenant.hit_op_us",
            stats::median(&mut hit).unwrap_or(0.0) / 1e3,
            "us",
        );
        report.metric(
            "tenant.fault_op_us",
            stats::median(&mut fault).unwrap_or(0.0) / 1e3,
            "us",
        );
        report.traced_threads(&[(tracer.spans().len(), m.wall_s * 1e9)]);
        report.add_spans(tracer.spans());
    }
    Ok(())
}

/// A smaller registry run for the tenant layer's metrics when the
/// workload itself is not `tenants`.
pub fn tenant_layer(ctx: &Ctx, inputs: &Inputs, report: &mut Report) -> Result<(), String> {
    let cfg = TenantCfg {
        key_space: 5_000,
        resident_target: 64,
        warmup_ops: 2_000,
        setup_every: 0,
    };
    drive(ctx, inputs, &cfg, 1.0, false, report)
}

/// The workload's item pool for `seed`.
pub fn inputs(seed: u64) -> Inputs {
    Inputs::generate("Rand2-items", SHAPE, seed)
}

/// Runs the workload.
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let inputs = inputs(ctx.seed);
    drive(ctx, &inputs, &CFG, ctx.seconds, true, report)
}
