//! Experiment harness shared by the `figures` binary and the Criterion
//! benches: runs the paper's Section 6 evaluation pipeline (dataset →
//! repeated sampling → empirical distribution + pTime + pSpace).

#![warn(missing_docs)]

use parking_lot::Mutex;
use rds_core::{RobustL0Sampler, SamplerConfig};
use rds_datasets::Dataset;
use rds_geometry::Point;
use rds_hashing::point_identity;
use rds_metrics::{ItemTimer, SampleHistogram};
use serde::Serialize;
use std::collections::HashMap;

/// Result of one sampling-distribution experiment (one of Figures 5-12).
#[derive(Clone, Debug, Serialize)]
pub struct FigureResult {
    /// Dataset name.
    pub dataset: String,
    /// Number of ground-truth groups (`F0`).
    pub n_groups: usize,
    /// Stream length `m`.
    pub stream_len: usize,
    /// Number of independent sampling runs.
    pub runs: u64,
    /// `stdDevNm` of the empirical sampling distribution.
    pub std_dev_nm: f64,
    /// `maxDevNm` of the empirical sampling distribution.
    pub max_dev_nm: f64,
    /// Per-group sample counts.
    pub counts: Vec<u64>,
}

/// Result of the pTime/pSpace measurements (Figures 13-14).
#[derive(Clone, Debug, Serialize)]
pub struct CostResult {
    /// Dataset name.
    pub dataset: String,
    /// Stream length `m`.
    pub stream_len: usize,
    /// Mean per-item processing time in milliseconds (single thread).
    pub p_time_ms: f64,
    /// Peak space in machine words.
    pub p_space_words: usize,
}

/// Exact-identity lookup from stream points to ground-truth group labels.
pub struct GroupLookup {
    map: HashMap<u64, usize>,
}

impl GroupLookup {
    /// Builds the lookup from a labelled dataset.
    pub fn new(ds: &Dataset) -> Self {
        let mut map = HashMap::with_capacity(ds.len());
        for lp in &ds.points {
            map.insert(point_identity(lp.point.coords(), 0), lp.group);
        }
        Self { map }
    }

    /// The ground-truth group of a stream point.
    ///
    /// # Panics
    ///
    /// Panics if the point did not come from the dataset.
    pub fn group_of(&self, p: &Point) -> usize {
        *self
            .map
            .get(&point_identity(p.coords(), 0))
            .expect("sampled point must come from the dataset")
    }
}

/// The sampler configuration the experiments use for a dataset.
pub fn experiment_config(ds: &Dataset, seed: u64) -> SamplerConfig {
    SamplerConfig::builder(ds.dim, ds.alpha)
        .seed(seed)
        .expected_len(ds.len() as u64)
        .build()
        .unwrap()
}

/// One full sampling run: stream the dataset through a fresh Algorithm 1
/// instance and return the sampled group.
pub fn one_sampling_run(ds: &Dataset, lookup: &GroupLookup, seed: u64) -> usize {
    let mut sampler = RobustL0Sampler::try_new(experiment_config(ds, seed)).unwrap();
    for lp in &ds.points {
        sampler.process(&lp.point);
    }
    let sample = sampler.query().expect("dataset is non-empty").clone();
    lookup.group_of(&sample)
}

/// Repeats [`one_sampling_run`] `runs` times across `threads` workers and
/// aggregates the empirical sampling distribution (the core of
/// Figures 5-12 and 15).
pub fn sampling_distribution(
    ds: &Dataset,
    runs: u64,
    base_seed: u64,
    threads: usize,
) -> SampleHistogram {
    let threads = threads.max(1);
    let lookup = GroupLookup::new(ds);
    let global = Mutex::new(SampleHistogram::new(ds.n_groups));
    let next = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut local = SampleHistogram::new(ds.n_groups);
                loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= runs {
                        break;
                    }
                    let g = one_sampling_run(ds, &lookup, base_seed ^ (i * 0x9E37_79B9 + 1));
                    local.record(g);
                }
                global.lock().merge(&local);
            });
        }
    });
    global.into_inner()
}

/// Runs the sampling-distribution experiment and packages a figure row.
pub fn figure_result(ds: &Dataset, runs: u64, base_seed: u64, threads: usize) -> FigureResult {
    let hist = sampling_distribution(ds, runs, base_seed, threads);
    FigureResult {
        dataset: ds.name.clone(),
        n_groups: ds.n_groups,
        stream_len: ds.len(),
        runs: hist.runs(),
        std_dev_nm: hist.std_dev_nm(),
        max_dev_nm: hist.max_dev_nm(),
        counts: hist.counts().to_vec(),
    }
}

/// Measures pTime (mean per-item ms over `scans` single-threaded scans)
/// and pSpace (peak words) for a dataset — Figures 13 and 14.
pub fn cost_measurement(ds: &Dataset, scans: u32, seed: u64) -> CostResult {
    let mut timer = ItemTimer::new();
    let mut peak = 0usize;
    for s in 0..scans.max(1) {
        let mut sampler = RobustL0Sampler::try_new(experiment_config(ds, seed + s as u64)).unwrap();
        let run = timer.start();
        for lp in &ds.points {
            sampler.process(&lp.point);
        }
        timer.stop(run, ds.len() as u64);
        peak = peak.max(sampler.peak_words());
    }
    CostResult {
        dataset: ds.name.clone(),
        stream_len: ds.len(),
        p_time_ms: timer.per_item_ms(),
        p_space_words: peak,
    }
}

/// Renders a sparkline-style text histogram of per-group sampling counts
/// (the textual analogue of the paper's scatter plots).
pub fn render_histogram(counts: &[u64], buckets: usize) -> String {
    if counts.is_empty() {
        return String::new();
    }
    let max = *counts.iter().max().expect("non-empty") as f64;
    let min = *counts.iter().min().expect("non-empty") as f64;
    let chunk = counts.len().div_ceil(buckets);
    let glyphs = [
        ' ', '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}',
        '\u{2588}',
    ];
    let mut out = String::new();
    for group in counts.chunks(chunk) {
        let avg = group.iter().sum::<u64>() as f64 / group.len() as f64;
        let frac = if max > min {
            (avg - min) / (max - min)
        } else {
            0.5
        };
        let idx = 1 + (frac * 7.0).round() as usize;
        out.push(glyphs[idx.min(8)]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rds_datasets::{rand_cloud, uniform_dups};

    fn tiny_dataset() -> Dataset {
        let mut rng = StdRng::seed_from_u64(5);
        let base = rand_cloud(12, 4, &mut rng);
        let mut ds = uniform_dups("tiny", &base, 4, &mut rng);
        ds.shuffle(&mut rng);
        ds
    }

    #[test]
    fn lookup_maps_every_point() {
        let ds = tiny_dataset();
        let lookup = GroupLookup::new(&ds);
        for lp in &ds.points {
            assert_eq!(lookup.group_of(&lp.point), lp.group);
        }
    }

    #[test]
    fn one_run_returns_valid_group() {
        let ds = tiny_dataset();
        let lookup = GroupLookup::new(&ds);
        let g = one_sampling_run(&ds, &lookup, 99);
        assert!(g < ds.n_groups);
    }

    #[test]
    fn parallel_distribution_records_all_runs() {
        let ds = tiny_dataset();
        let hist = sampling_distribution(&ds, 64, 7, 4);
        assert_eq!(hist.runs(), 64);
        assert_eq!(hist.n_groups(), ds.n_groups);
    }

    #[test]
    fn parallel_and_serial_agree_on_run_count() {
        let ds = tiny_dataset();
        let a = sampling_distribution(&ds, 32, 11, 1);
        let b = sampling_distribution(&ds, 32, 11, 4);
        // same seeds per run index => same multiset of recorded groups
        let mut ca = a.counts().to_vec();
        let mut cb = b.counts().to_vec();
        ca.sort_unstable();
        cb.sort_unstable();
        assert_eq!(ca, cb);
    }

    #[test]
    fn cost_measurement_is_populated() {
        let ds = tiny_dataset();
        let cost = cost_measurement(&ds, 2, 3);
        assert!(cost.p_time_ms > 0.0);
        assert!(cost.p_space_words > 0);
        assert_eq!(cost.stream_len, ds.len());
    }

    #[test]
    fn histogram_rendering_has_requested_width() {
        let counts = vec![5u64; 100];
        let s = render_histogram(&counts, 20);
        assert_eq!(s.chars().count(), 20);
        assert!(render_histogram(&[], 10).is_empty());
    }
}
