//! Section 4 integration tests: `(alpha, beta)`-sparse datasets in higher
//! dimension with the `d * alpha` grid, plus the JL route of Remark 2.

use rds_core::{JlRobustSampler, RobustL0Sampler, SamplerConfig};
use rds_datasets::partition;
use rds_geometry::{standard_normal, Point};
use rds_metrics::SampleHistogram;

/// An `(alpha, beta)`-sparse stream in dimension `d` with
/// `beta > d^{1.5} alpha`: group centers far apart, members jittered
/// within `alpha/2` of the center.
fn sparse_stream(
    n_groups: usize,
    per_group: usize,
    dim: usize,
    alpha: f64,
    seed: u64,
) -> Vec<(Point, usize)> {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let beta = (dim as f64).powf(1.5) * alpha * 4.0;
    let mut out = Vec::new();
    for g in 0..n_groups {
        // centers on a line with spacing > beta keeps sparsity trivial
        let mut center = vec![0.0; dim];
        center[0] = g as f64 * (beta + 1.0);
        for _ in 0..per_group {
            let p: Vec<f64> = center
                .iter()
                .map(|c| c + rng.random_range(-1.0..1.0) * alpha / (2.0 * (dim as f64).sqrt()))
                .collect();
            out.push((Point::new(p), g));
        }
    }
    // shuffle
    for i in (1..out.len()).rev() {
        let j = rng.random_range(0..=i);
        out.swap(i, j);
    }
    out
}

#[test]
fn high_dim_config_samples_correctly() {
    let dim = 16;
    let alpha = 0.25;
    let stream = sparse_stream(15, 8, dim, alpha, 1);
    let pts: Vec<Point> = stream.iter().map(|(p, _)| p.clone()).collect();
    assert!(partition::is_well_separated(&pts, alpha));

    let cfg = SamplerConfig::builder(dim, alpha)
        .high_dim() // grid side d * alpha (Section 4)
        .seed(3)
        .expected_len(stream.len() as u64)
        .build()
        .unwrap();
    let mut s = RobustL0Sampler::try_new(cfg).unwrap();
    for (p, _) in &stream {
        s.process(p);
    }
    // exactly one representative per group across accept+reject
    assert_eq!(s.accept_set().len() + s.reject_set().len(), 15);
    assert!(s.query().is_some());
}

#[test]
fn high_dim_sampling_is_uniformish() {
    let dim = 12;
    let alpha = 0.25;
    let stream = sparse_stream(10, 6, dim, alpha, 2);
    let mut hist = SampleHistogram::new(10);
    // kappa0 = 1 gives a small threshold, so Lemma 2.5's non-emptiness
    // guarantee has a noticeable 2^-threshold tail; tolerate rare misses.
    let mut misses = 0u32;
    for run in 0..300u64 {
        let cfg = SamplerConfig::builder(dim, alpha)
            .high_dim()
            .seed(run * 191 + 7)
            .expected_len(stream.len() as u64)
            .kappa0(1.0)
            .build()
            .unwrap();
        let mut s = RobustL0Sampler::try_new(cfg).unwrap();
        for (p, _) in &stream {
            s.process(p);
        }
        let Some(q) = s.query().cloned() else {
            misses += 1;
            continue;
        };
        let g = stream
            .iter()
            .find(|(p, _)| *p == q)
            .map(|(_, g)| *g)
            .expect("from stream");
        hist.record(g);
    }
    assert!(misses < 30, "accept set emptied {misses}/300 times");
    assert!(
        hist.std_dev_nm() < 0.6,
        "high-dim sampling biased: {:?}",
        hist.counts()
    );
}

#[test]
fn adj_dfs_stays_cheap_in_high_dim() {
    // Lemma 4.2's consequence: |adj(p)| is small despite the 3^d
    // neighbourhood, so the DFS visits few cells.
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rds_geometry::{adjacent_cells, Grid};
    let dim = 20;
    let alpha = 0.1;
    let mut rng = StdRng::seed_from_u64(5);
    let grid = Grid::random(dim, dim as f64 * alpha, &mut rng);
    let mut total = 0usize;
    for i in 0..50 {
        let p = Point::new((0..dim).map(|j| (i * j) as f64 * 0.37).collect());
        total += adjacent_cells(&grid, &p, alpha).len();
    }
    let avg = total as f64 / 50.0;
    assert!(
        avg < 64.0,
        "average |adj(p)| = {avg}, expected far below 3^20"
    );
}

#[test]
fn jl_sampler_handles_extreme_dimension() {
    let dim = 256;
    let alpha = 0.5;
    // well-separated gaussian-ish clusters in R^256
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(6);
    let mut stream = Vec::new();
    for g in 0..12usize {
        let mut center = vec![0.0; dim];
        center[g] = 500.0;
        for _ in 0..5 {
            let p: Vec<f64> = center
                .iter()
                .map(|c| c + standard_normal(&mut rng) * 0.002)
                .collect();
            stream.push((Point::new(p), g));
        }
    }
    let cfg = SamplerConfig::builder(dim, alpha)
        .seed(7)
        .expected_len(stream.len() as u64)
        .build()
        .unwrap();
    let mut s = JlRobustSampler::try_new(dim, alpha, 0.5, cfg).unwrap();
    for (p, _) in &stream {
        s.process(p);
    }
    assert!(s.projected_dim() < dim);
    let q = s.query().expect("non-empty");
    assert_eq!(q.dim(), dim);
    assert!(stream.iter().any(|(p, _)| p == q));
}
