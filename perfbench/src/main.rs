//! The repository benchmark: runs one named workload with a seed and
//! prints every end-to-end metric (or, with `--trace 1`, every per-layer
//! metric) by name and unit.
//!
//! ```text
//! rds-perfbench --workload <sample|count|http|tenants> --seed N \
//!     --seconds S --trace <0|1> --rds-bin PATH
//! ```
//!
//! Inputs are generated from the seed before the system is built. Every
//! workload checks its answers; a failed or incorrect operation counts
//! in `failed`, and any failure makes the run exit nonzero. The last
//! stdout line is `{"correct","attempted","failed","metrics"}`; the line
//! before it is the full report (revision, nproc, seed, workload
//! parameters, sample counts, failed fraction). The traced run also
//! writes its spans to `.bench_out/trace-<workload>-<seed>.jsonl`.
//! `perfbench/README.md` lists which end-to-end metric and workload each
//! per-layer metric should move.

mod inputs;
mod layers;
mod report;
mod sched;
mod speed;
mod stats;
mod trace;
mod workloads;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The end-to-end metrics every untraced run prints, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ingest_pts_per_s", "pts/s"),
    ("ops_per_s", "1/s"),
    ("write_p50_us", "us"),
    ("read_p50_us", "us"),
    ("space_words", "words"),
];

/// The per-layer metrics every traced run prints, with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("hashing.hash_keys_ns_per_key", "ns"),
    ("hashing.cell_key_ns", "ns"),
    ("geometry.cell_of_ns", "ns"),
    ("geometry.adjacency_ns_per_point", "ns"),
    ("geometry.adjacent_cells_per_point", "count"),
    ("core.arrival_ns_per_point", "ns"),
    ("core.duplicate_frac", "frac"),
    ("core.ignored_frac", "frac"),
    ("core.rate_doublings", "count"),
    ("core.probe_ns", "ns"),
    ("core.summary_cow_ns", "ns"),
    ("core.merge_many_ns", "ns"),
    ("core.merged_groups", "count"),
    ("core.query_k_ns", "ns"),
    ("engine.ingest_batch_ns_per_point", "ns"),
    ("engine.snapshot_ns", "ns"),
    ("engine.shard_skew", "ratio"),
    ("facade.process_batch_ns_per_point", "ns"),
    ("facade.publish_ns_p50", "ns"),
    ("facade.publish_ns_p99", "ns"),
    ("facade.publishes", "count"),
    ("facade.reader_query_k_ns", "ns"),
    ("facade.staleness_pts_p99", "pts"),
    ("server.parse_ns", "ns"),
    ("server.route_ns", "ns"),
    ("server.ingest_decode_ns", "ns"),
    ("server.query_encode_ns", "ns"),
    ("server.write_response_ns", "ns"),
    ("server.unloaded_write_us", "us"),
    ("server.unloaded_read_us", "us"),
    ("server.backlog_max", "count"),
    ("tenant.hit_frac", "frac"),
    ("tenant.spills_per_op", "1/op"),
    ("tenant.restores_per_op", "1/op"),
    ("tenant.creates_per_op", "1/op"),
    ("tenant.hit_op_us", "us"),
    ("tenant.fault_op_us", "us"),
    ("tenant.seal_ns", "ns"),
    ("tenant.open_ns", "ns"),
    ("tenant.container_write_ns", "ns"),
    ("tenant.container_read_ns", "ns"),
    ("tenant.container_bytes", "bytes"),
    ("gen.lag_us_p99", "us"),
    ("trace.overhead_frac", "frac"),
    ("trace.writer_child_cover_frac", "frac"),
];

/// Everything a workload needs to know about the run.
pub struct Ctx {
    /// The workload seed: all inputs derive from it.
    pub seed: u64,
    /// How long the workload measures.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// The `rds` binary the `http` workload serves with.
    pub rds_bin: PathBuf,
    /// Time zero for spans and schedules.
    pub origin: Instant,
    /// Where scratch files (spill directories, traces) go.
    pub out_dir: PathBuf,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rds_bin: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut rds_bin = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other}")),
                }
            }
            "--rds-bin" => rds_bin = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        rds_bin: rds_bin.ok_or("--rds-bin is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rds-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        rds_bin: args.rds_bin,
        origin: Instant::now(),
        out_dir: PathBuf::from(".bench_out"),
    };
    let mut report = Report::new(&args.workload, &ctx);
    if let Err(e) = workloads::run(&args.workload, &ctx, &mut report) {
        eprintln!("rds-perfbench: {e}");
        return ExitCode::from(2);
    }
    if ctx.trace {
        layers::run(&args.workload, &ctx, &mut report);
        let path = ctx
            .out_dir
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        match trace::write_jsonl(&path, report.spans()) {
            Ok(()) => eprintln!(
                "rds-perfbench: wrote {} spans to {}",
                report.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("rds-perfbench: could not write {}: {e}", path.display()),
        }
    }
    let declared = if ctx.trace { PER_LAYER } else { END_TO_END };
    match report.finish(declared) {
        Ok(correct) if correct => ExitCode::SUCCESS,
        Ok(_) => ExitCode::from(1),
        Err(e) => {
            eprintln!("rds-perfbench: {e}");
            ExitCode::from(3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let json: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let Some(Value::Seq(items)) = json.get(section) else {
            panic!("BENCHMARK.json has no {section} list");
        };
        items
            .iter()
            .map(|m| match (m.get("name"), m.get("unit")) {
                (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
                other => panic!("malformed {section} entry: {other:?}"),
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        assert_eq!(declared("end_to_end"), owned(END_TO_END));
        assert_eq!(declared("per_layer"), owned(PER_LAYER));
    }
}
