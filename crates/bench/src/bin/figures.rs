//! Regenerates every figure of the paper's evaluation (Section 6) plus the
//! extension experiments, printing the same rows/series the paper reports.
//!
//! ```text
//! cargo run -p rds-bench --release --bin figures -- <target> [options]
//! ```
//!
//! `--help` lists the targets and options.

use rds_baselines::{HyperLogLog, KmvDistinctEstimator, PointMinRankSampler};
use rds_bench::{
    cost_measurement, figure_result, render_histogram, CostResult, FigureResult, GroupLookup,
};
use rds_core::{RobustF0Estimator, SamplerConfig, SlidingWindowSampler};
use rds_datasets::{powerlaw_dups, rand_cloud, PaperDataset};
use rds_hashing::point_identity;
use rds_metrics::SampleHistogram;
use rds_stream::{Stamp, StreamItem, Window};
use serde::Serialize;
use std::collections::BTreeMap;
use std::process::ExitCode;

#[derive(Clone, Debug)]
struct Options {
    runs: u64,
    threads: usize,
    seed: u64,
    scans: u32,
    json: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            runs: 2000,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            seed: 1,
            scans: 5,
            json: None,
        }
    }
}

#[derive(Default, Serialize)]
struct AllResults {
    figures: Vec<FigureResult>,
    costs: Vec<CostResult>,
    bias: Option<BiasResult>,
    sliding_window: Option<SwResult>,
    f0: Vec<F0Result>,
}

#[derive(Clone, Debug, Serialize)]
struct BiasResult {
    dataset: String,
    runs: u64,
    robust_max_dev_nm: f64,
    baseline_max_dev_nm: f64,
    baseline_top_group_freq: f64,
    top_group_share_of_points: f64,
}

#[derive(Clone, Debug, Serialize)]
struct SwResult {
    window: u64,
    n_groups: usize,
    runs: u64,
    std_dev_nm: f64,
    max_dev_nm: f64,
}

#[derive(Clone, Debug, Serialize)]
struct F0Result {
    dataset: String,
    true_groups: usize,
    total_points: usize,
    robust_estimate: f64,
    kmv_estimate: f64,
    hll_estimate: f64,
}

/// The command line: printed by `--help`, and after every usage error.
const USAGE: &str = "\
usage: figures [target] [options]

targets (default all):
  fig5..fig12   empirical sampling distribution of one dataset
  fig13         pTime (ms/item) for all eight datasets
  fig14         pSpace (words) for all eight datasets
  fig15         stdDevNm and maxDevNm for all eight datasets
  bias          robust sampler vs noiseless min-rank baseline
  sw            sliding-window sampler uniformity (Theorem 2.7)
  f0            robust F0 vs noiseless sketches on noisy data
  all           everything above

options:
  --runs N      sampling runs per dataset (default 2000; 0 = the paper's
                200k/500k counts; the shape is stable far earlier)
  --threads N   worker threads (default: available parallelism)
  --seed N      base seed (default 1)
  --scans N     timing scans per dataset for fig13/fig14 (default 5)
  --json PATH   also dump machine-readable results as JSON
  --help        print this text";

/// What the command line asks for.
#[derive(Debug)]
enum Command {
    Run(String, Options),
    Help,
}

/// The figure number of a `figN` target.
fn fig_number(target: &str) -> Option<u32> {
    target.strip_prefix("fig")?.parse().ok()
}

/// Whether `target` names something [`main`] runs.
fn is_target(target: &str) -> bool {
    matches!(target, "all" | "bias" | "sw" | "f0")
        || fig_number(target).is_some_and(|n| (5..=15).contains(&n))
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    fn number<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
        let value = value.ok_or_else(|| format!("{flag} expects a number"))?;
        value
            .parse()
            .map_err(|_| format!("{flag} expects a number, got {value:?}"))
    }
    let mut target = None;
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--help" => return Ok(Command::Help),
            "--runs" => opts.runs = number(a, it.next())?,
            "--threads" => opts.threads = number(a, it.next())?,
            "--seed" => opts.seed = number(a, it.next())?,
            "--scans" => opts.scans = number(a, it.next())?,
            "--json" => opts.json = Some(it.next().ok_or("--json expects a path")?.clone()),
            other if other.starts_with('-') => return Err(format!("unknown option {other}")),
            other if !is_target(other) => return Err(format!("unknown target {other}")),
            other if target.is_some() => return Err(format!("a second target {other}")),
            other => target = Some(other.to_string()),
        }
    }
    Ok(Command::Run(target.unwrap_or_else(|| "all".into()), opts))
}

fn dataset_for_figure(fig: u32) -> PaperDataset {
    match fig {
        5 => PaperDataset::Rand5,
        6 => PaperDataset::Rand20,
        7 => PaperDataset::Yacht,
        8 => PaperDataset::Seeds,
        9 => PaperDataset::Rand5Pl,
        10 => PaperDataset::Rand20Pl,
        11 => PaperDataset::YachtPl,
        12 => PaperDataset::SeedsPl,
        _ => unreachable!("figures 5-12 only"),
    }
}

fn run_distribution_figure(fig: u32, opts: &Options) -> FigureResult {
    let which = dataset_for_figure(fig);
    let ds = which.generate(opts.seed);
    // `--runs 0` means "use the paper's run counts" (200k / 500k).
    let runs = if opts.runs == 0 {
        which.paper_runs()
    } else {
        opts.runs
    };
    println!(
        "=== Figure {fig}: empirical sampling distribution, {} ===",
        ds.name
    );
    println!(
        "    {} groups, {} points, {} runs (paper: {} runs)",
        ds.n_groups,
        ds.len(),
        runs,
        which.paper_runs()
    );
    let res = figure_result(&ds, runs, opts.seed, opts.threads);
    let expect = res.runs as f64 / res.n_groups as f64;
    println!("    expected count/group {expect:.1}");
    println!("    counts   |{}|", render_histogram(&res.counts, 60));
    println!(
        "    stdDevNm {:.4}   maxDevNm {:.4}   (paper reports <= 0.1 / <= 0.2)",
        res.std_dev_nm, res.max_dev_nm
    );
    println!();
    res
}

fn run_costs(opts: &Options) -> Vec<CostResult> {
    println!("=== Figures 13 & 14: pTime (ms/item) and pSpace (words) ===");
    println!(
        "{:<12} {:>9} {:>14} {:>14}",
        "dataset", "points", "pTime(ms)", "pSpace(words)"
    );
    let mut out = Vec::new();
    for which in PaperDataset::ALL {
        let ds = which.generate(opts.seed);
        let cost = cost_measurement(&ds, opts.scans, opts.seed);
        println!(
            "{:<12} {:>9} {:>14.6} {:>14}",
            cost.dataset, cost.stream_len, cost.p_time_ms, cost.p_space_words
        );
        out.push(cost);
    }
    println!(
        "(paper, C++ on a Xeon E5-2667: pTime 1e-5..3.5e-5 s/item; both metrics grow with dimension)"
    );
    println!();
    out
}

fn run_fig15(results: &[FigureResult]) {
    println!("=== Figure 15: stdDevNm and maxDevNm per dataset ===");
    println!("{:<12} {:>10} {:>10}", "dataset", "stdDevNm", "maxDevNm");
    for r in results {
        println!(
            "{:<12} {:>10.4} {:>10.4}",
            r.dataset, r.std_dev_nm, r.max_dev_nm
        );
    }
    println!("(paper: stdDevNm <= 0.1 and maxDevNm <= 0.2 on all eight datasets)");
    println!();
}

/// The Section 1 motivation experiment: standard distinct sampling is
/// biased toward heavily duplicated groups; the robust sampler is not.
fn run_bias(opts: &Options) -> BiasResult {
    println!("=== Bias: robust sampler vs noiseless min-rank baseline ===");
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(opts.seed);
    let base = rand_cloud(50, 5, &mut rng);
    let mut ds = powerlaw_dups("PowerSkew", &base, &mut rng);
    ds.shuffle(&mut rng);
    let lookup = GroupLookup::new(&ds);

    // share of stream points owned by the largest group
    let mut sizes = vec![0u64; ds.n_groups];
    for lp in &ds.points {
        sizes[lp.group] += 1;
    }
    let top_group = sizes
        .iter()
        .enumerate()
        .max_by_key(|(_, &s)| s)
        .map(|(g, _)| g)
        .expect("non-empty");
    let top_share = sizes[top_group] as f64 / ds.len() as f64;

    let runs = if opts.runs == 0 {
        2000
    } else {
        opts.runs.min(2000)
    };
    let robust = rds_bench::sampling_distribution(&ds, runs, opts.seed, opts.threads);

    let mut baseline = SampleHistogram::new(ds.n_groups);
    for i in 0..runs {
        let mut s = PointMinRankSampler::new(opts.seed ^ (i * 7919 + 3));
        for lp in &ds.points {
            s.process(&lp.point);
        }
        let g = lookup.group_of(s.sample().expect("non-empty"));
        baseline.record(g);
    }
    let res = BiasResult {
        dataset: ds.name.clone(),
        runs,
        robust_max_dev_nm: robust.max_dev_nm(),
        baseline_max_dev_nm: baseline.max_dev_nm(),
        baseline_top_group_freq: baseline.counts()[top_group] as f64 / runs as f64,
        top_group_share_of_points: top_share,
    };
    println!(
        "    {} groups; the largest group owns {:.1}% of the points",
        ds.n_groups,
        100.0 * res.top_group_share_of_points
    );
    println!(
        "    robust sampler    maxDevNm {:.3}  (uniform over groups)",
        res.robust_max_dev_nm
    );
    println!(
        "    min-rank baseline maxDevNm {:.3}; largest group sampled {:.1}% of the time (fair share {:.1}%)",
        res.baseline_max_dev_nm,
        100.0 * res.baseline_top_group_freq,
        100.0 / ds.n_groups as f64,
    );
    println!();
    res
}

/// Empirical check of Theorem 2.7 (no figure in the paper): the sliding
/// window sampler is uniform over the groups of the window.
fn run_sw(opts: &Options) -> SwResult {
    println!("=== Sliding window: uniformity over window groups (Theorem 2.7) ===");
    let n_groups = 24u64;
    let window = 3 * n_groups;
    let stream: Vec<StreamItem> = (0..(6 * n_groups))
        .map(|i| {
            StreamItem::new(
                rds_geometry::Point::new(vec![(i % n_groups) as f64 * 10.0]),
                Stamp::at(i),
            )
        })
        .collect();
    let runs = if opts.runs == 0 {
        4000
    } else {
        opts.runs.min(4000)
    };
    let mut hist = SampleHistogram::new(n_groups as usize);
    for run in 0..runs {
        let cfg = SamplerConfig::builder(1, 0.5)
            .seed(opts.seed ^ (run * 6151 + 11))
            .expected_len(stream.len() as u64)
            .kappa0(1.0)
            .build()
            .unwrap();
        let mut s = SlidingWindowSampler::try_new(cfg, Window::Sequence(window)).unwrap();
        for it in &stream {
            s.process(it);
        }
        let q = s.query().expect("window non-empty");
        hist.record((q.latest.get(0) / 10.0).round() as usize);
    }
    let res = SwResult {
        window,
        n_groups: n_groups as usize,
        runs,
        std_dev_nm: hist.std_dev_nm(),
        max_dev_nm: hist.max_dev_nm(),
    };
    println!(
        "    window {} over {} live groups, {} runs",
        res.window, res.n_groups, res.runs
    );
    println!(
        "    stdDevNm {:.4}   maxDevNm {:.4}",
        res.std_dev_nm, res.max_dev_nm
    );
    println!();
    res
}

/// Section 5 + Section 1 motivation: robust F0 vs noiseless sketches on
/// near-duplicate data.
fn run_f0(opts: &Options) -> Vec<F0Result> {
    println!("=== F0: robust estimator vs noiseless sketches on noisy data ===");
    println!(
        "{:<12} {:>8} {:>9} {:>12} {:>12} {:>12}",
        "dataset", "groups", "points", "robust", "KMV", "HLL"
    );
    let mut out = Vec::new();
    for which in [PaperDataset::Rand5, PaperDataset::Seeds] {
        let ds = which.generate(opts.seed);
        let cfg = SamplerConfig::builder(ds.dim, ds.alpha)
            .seed(opts.seed)
            .expected_len(ds.len() as u64)
            .build()
            .unwrap();
        let mut robust = RobustF0Estimator::try_new(cfg, 0.3, 7).unwrap();
        let mut kmv = KmvDistinctEstimator::new(512, opts.seed);
        let mut hll = HyperLogLog::new(12, opts.seed);
        for lp in &ds.points {
            robust.process(&lp.point);
            let id = point_identity(lp.point.coords(), 17);
            kmv.process(id);
            hll.process(id);
        }
        let res = F0Result {
            dataset: ds.name.clone(),
            true_groups: ds.n_groups,
            total_points: ds.len(),
            robust_estimate: robust.estimate(),
            kmv_estimate: kmv.estimate(),
            hll_estimate: hll.estimate(),
        };
        println!(
            "{:<12} {:>8} {:>9} {:>12.1} {:>12.1} {:>12.1}",
            res.dataset,
            res.true_groups,
            res.total_points,
            res.robust_estimate,
            res.kmv_estimate,
            res.hll_estimate
        );
        out.push(res);
    }
    println!("(noiseless sketches count every near-duplicate; the robust estimator counts groups)");
    println!();
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (target, opts) = match parse_args(&args) {
        Ok(Command::Run(target, opts)) => (target, opts),
        Ok(Command::Help) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("figures: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut all = AllResults::default();

    let mut fig_range: Vec<u32> = Vec::new();
    match target.as_str() {
        "all" => fig_range.extend(5..=12),
        t => fig_range.extend(fig_number(t).filter(|n| (5..=12).contains(n))),
    }
    for fig in fig_range {
        all.figures.push(run_distribution_figure(fig, &opts));
    }

    if matches!(target.as_str(), "all" | "fig13" | "fig14") {
        all.costs = run_costs(&opts);
    }

    if matches!(target.as_str(), "all" | "fig15") {
        if all.figures.is_empty() {
            // fig15 needs the distributions; compute them with the
            // requested runs
            for fig in 5..=12 {
                all.figures.push(run_distribution_figure(fig, &opts));
            }
        }
        run_fig15(&all.figures);
    }

    if matches!(target.as_str(), "all" | "bias") {
        all.bias = Some(run_bias(&opts));
    }
    if matches!(target.as_str(), "all" | "sw") {
        all.sliding_window = Some(run_sw(&opts));
    }
    if matches!(target.as_str(), "all" | "f0") {
        all.f0 = run_f0(&opts);
    }

    if let Some(path) = &opts.json {
        let json = serde_json::to_string_pretty(&all).expect("serializable");
        std::fs::write(path, json).expect("writable JSON path");
        println!("results written to {path}");
    }

    let mut census: BTreeMap<&str, usize> = BTreeMap::new();
    census.insert("figures", all.figures.len());
    census.insert("costs", all.costs.len());
    census.insert("f0", all.f0.len());
    eprintln!("done: {census:?}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Command, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn targets_and_options_parse() {
        let Ok(Command::Run(target, opts)) = parse("sw --runs 200 --seed 7 --json out.json") else {
            panic!("a valid command line")
        };
        assert_eq!(target, "sw");
        assert_eq!((opts.runs, opts.seed), (200, 7));
        assert_eq!(opts.json.as_deref(), Some("out.json"));
        for t in ["fig5", "fig12", "fig13", "fig15", "bias", "f0", "all"] {
            assert!(
                matches!(parse(t), Ok(Command::Run(got, _)) if got == t),
                "{t}"
            );
        }
        assert!(matches!(parse(""), Ok(Command::Run(t, _)) if t == "all"));
    }

    #[test]
    fn help_wins_over_everything_else() {
        assert!(matches!(parse("--help"), Ok(Command::Help)));
        assert!(matches!(parse("fig5 --help"), Ok(Command::Help)));
    }

    #[test]
    fn unknown_targets_options_and_numbers_are_errors() {
        for line in [
            "bais",
            "fig99",
            "fig4",
            "figx",
            "fig",
            "--verbose",
            "-v",
            "--runs abc",
            "--runs",
            "--threads -1",
            "--json",
            "fig5 fig6",
        ] {
            assert!(parse(line).is_err(), "{line:?} should be rejected");
        }
    }
}
