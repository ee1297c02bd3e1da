//! Collects a run's metrics, parameters, sample counts and checks, and
//! prints the report line and the result line.

use crate::sched::Sample;
use crate::stats;
use crate::trace::Span;
use crate::Ctx;
use serde::{Serialize, Value};

/// Everything one run reports.
pub struct Report {
    head: Vec<(String, Value)>,
    metrics: Vec<(String, f64, String)>,
    params: Vec<(String, Value)>,
    samples: Vec<(String, Value)>,
    checks: Vec<(String, Value)>,
    attempted: u64,
    failed: u64,
    spans: Vec<Span>,
    lag_ns: Vec<f64>,
    backlog_max: u64,
    threads: Vec<(usize, f64)>,
    /// Values as measured of the metrics restated at nominal speed.
    measured: Vec<(String, Value)>,
}

impl Report {
    /// An empty report for `workload`.
    pub fn new(workload: &str, ctx: &Ctx) -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let rev = std::env::var("RDS_BENCH_REV").unwrap_or_else(|_| "unknown".into());
        Self {
            head: vec![
                ("workload".into(), workload.to_value()),
                ("seed".into(), ctx.seed.to_value()),
                ("seconds".into(), ctx.seconds.to_value()),
                ("trace".into(), ctx.trace.to_value()),
                ("rev".into(), rev.to_value()),
                ("nproc".into(), nproc.to_value()),
            ],
            metrics: Vec::new(),
            params: Vec::new(),
            samples: Vec::new(),
            checks: Vec::new(),
            attempted: 0,
            failed: 0,
            spans: Vec::new(),
            lag_ns: Vec::new(),
            backlog_max: 0,
            threads: Vec::new(),
            measured: Vec::new(),
        }
    }

    /// Records a metric (a later value for the same name replaces it).
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics.push((name.into(), value, unit.into()));
    }

    /// Records a metric restated at nominal box speed (see `speed.rs`),
    /// keeping the value as measured for the report line.
    pub fn restated(&mut self, name: &str, nominal: f64, measured: f64, unit: &str) {
        self.metric(name, nominal, unit);
        self.measured.retain(|(n, _)| n != name);
        self.measured.push((name.into(), measured.to_value()));
    }

    /// Whether a metric has been recorded.
    pub fn has(&self, name: &str) -> bool {
        self.metrics.iter().any(|(n, _, _)| n == name)
    }

    /// Records a workload parameter.
    pub fn param(&mut self, name: &str, value: impl Serialize) {
        self.params.push((name.into(), value.to_value()));
    }

    /// Records a sample count (or other sampling detail).
    pub fn samples(&mut self, name: &str, value: impl Serialize) {
        self.samples.retain(|(n, _)| n != name);
        self.samples.push((name.into(), value.to_value()));
    }

    /// Records a correctness check; a failed one fails the run.
    pub fn check(&mut self, name: &str, ok: bool) {
        self.checks.push((name.into(), ok.to_value()));
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("rds-perfbench: check failed: {name}");
        }
    }

    /// Counts operations attempted and those that failed or answered
    /// incorrectly.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records `{class}_p50_us` and `{class}_p99_us` from nanosecond
    /// latencies, with the sample count and the percentile the tail
    /// really is.
    pub fn latency(&mut self, class: &str, samples_ns: &mut [f64]) {
        let (p50, p99) = (format!("{class}_p50_us"), format!("{class}_p99_us"));
        self.tail_metric(&p50, &p99, samples_ns, 1e-3, "us");
    }

    /// [`Self::latency`] of latencies restated at nominal speed, with the
    /// p50 and p99 of the latencies as measured kept for the report line.
    pub fn latency_restated(
        &mut self,
        class: &str,
        nominal_ns: &mut [f64],
        measured_ns: &mut [f64],
    ) {
        self.latency(class, nominal_ns);
        for (name, pct) in [
            (format!("{class}_p50_us"), 50.0),
            (format!("{class}_p99_us"), 99.0),
        ] {
            if let Some(t) = stats::tail_at_most(measured_ns, pct) {
                let value = if pct == 50.0 { t.p50 } else { t.value };
                self.measured.retain(|(n, _)| n != &name);
                self.measured.push((name, (value * 1e-3).to_value()));
            }
        }
    }

    /// Records a median metric and a p99 metric of one sample, scaled
    /// by `scale`, noting the count, the percentile the tail metric
    /// really is (lower than 99 only when the sample is too small), and
    /// the highest percentile the sample supports.
    pub fn tail_metric(
        &mut self,
        p50_name: &str,
        tail_name: &str,
        samples: &mut [f64],
        scale: f64,
        unit: &str,
    ) {
        let (Some(t), Some(top)) = (stats::tail_at_most(samples, 99.0), stats::tail(samples))
        else {
            self.samples(
                tail_name,
                Value::Map(vec![("count".into(), samples.len().to_value())]),
            );
            return;
        };
        self.metric(p50_name, t.p50 * scale, unit);
        self.metric(tail_name, t.value * scale, unit);
        self.samples(
            tail_name,
            Value::Map(vec![
                ("count".into(), t.count.to_value()),
                ("tail_pct".into(), t.pct.to_value()),
                ("top_pct".into(), top.pct.to_value()),
                ("top_value".into(), (top.value * scale).to_value()),
            ]),
        );
    }

    /// Keeps spans for the trace file.
    pub fn add_spans(&mut self, spans: &[Span]) {
        self.spans.extend_from_slice(spans);
    }

    /// Keeps an open-loop generator's lateness and backlog.
    pub fn open_loop(&mut self, samples: &[Sample]) {
        self.lag_ns
            .extend(samples.iter().map(|s| s.lag_ns() as f64));
        let most = samples.iter().map(|s| s.backlog).max().unwrap_or(0);
        self.backlog_max = self.backlog_max.max(most);
    }

    /// Generator lateness (ns) of every open-loop request kept so far.
    pub fn lag_ns(&self) -> &[f64] {
        &self.lag_ns
    }

    /// The largest open-loop backlog seen so far.
    pub fn backlog_max(&self) -> u64 {
        self.backlog_max
    }

    /// Notes (spans recorded, wall ns) of traced threads.
    pub fn traced_threads(&mut self, threads: &[(usize, f64)]) {
        self.threads.extend_from_slice(threads);
    }

    /// (spans recorded, wall ns) of every traced thread.
    pub fn threads(&self) -> &[(usize, f64)] {
        &self.threads
    }

    /// All spans kept so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Prints the report line and the result line with the `declared`
    /// metrics. Returns whether every operation and check succeeded;
    /// `Err` when a declared metric is missing, non-finite or carries
    /// another unit (a benchmark bug, not a system failure).
    pub fn finish(self, declared: &[(&str, &str)]) -> Result<bool, String> {
        let mut chosen = Vec::new();
        for (name, unit) in declared {
            let Some((_, value, u)) = self.metrics.iter().find(|(n, _, _)| n == name) else {
                return Err(format!("metric {name} was not measured"));
            };
            if u != unit || !value.is_finite() {
                return Err(format!(
                    "metric {name} = {value} {u} (declared unit {unit})"
                ));
            }
            chosen.push(((*name).to_string(), *value, u.clone()));
        }
        let attempted = self.attempted.max(1);
        let correct = self.failed == 0;
        let obj = |ms: &[(String, f64, String)]| {
            Value::Map(
                ms.iter()
                    .map(|(n, v, u)| {
                        (
                            n.clone(),
                            Value::Map(vec![
                                ("value".into(), Value::F64(*v)),
                                ("unit".into(), u.to_value()),
                            ]),
                        )
                    })
                    .collect(),
            )
        };
        let mut head = self.head;
        head.extend([
            ("params".into(), Value::Map(self.params)),
            ("samples".into(), Value::Map(self.samples)),
            ("checks".into(), Value::Map(self.checks)),
            ("attempted".into(), attempted.to_value()),
            ("failed".into(), self.failed.to_value()),
            (
                "failed_frac".into(),
                (self.failed as f64 / attempted as f64).to_value(),
            ),
            ("spans".into(), self.spans.len().to_value()),
            ("measured".into(), Value::Map(self.measured)),
            ("all_metrics".into(), obj(&self.metrics)),
        ]);
        let report = Value::Map(vec![("report".into(), Value::Map(head))]);
        let result = Value::Map(vec![
            ("correct".into(), correct.to_value()),
            ("attempted".into(), attempted.to_value()),
            ("failed".into(), self.failed.to_value()),
            ("metrics".into(), obj(&chosen)),
        ]);
        let json = |v: &Value| serde_json::to_string(v).map_err(|e| e.to_string());
        println!("{}", json(&report)?);
        println!("{}", json(&result)?);
        Ok(correct)
    }
}
