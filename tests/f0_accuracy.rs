//! Integration tests of the Section 5 F0 estimators against ground truth
//! and against the noiseless baselines' failure mode.

use rds_baselines::{HyperLogLog, KmvDistinctEstimator};
use rds_core::{RobustF0Estimator, SamplerConfig, SlidingWindowF0};
use rds_datasets::PaperDataset;
use rds_hashing::point_identity;
use rds_stream::{Stamp, StreamItem, Window};

#[test]
fn robust_f0_close_to_truth_on_paper_dataset() {
    let ds = PaperDataset::Seeds.generate(2);
    let cfg = SamplerConfig::builder(ds.dim, ds.alpha)
        .seed(3)
        .expected_len(ds.len() as u64)
        .build()
        .unwrap();
    let mut est = RobustF0Estimator::try_new(cfg, 0.3, 7).unwrap();
    for lp in &ds.points {
        est.process(&lp.point);
    }
    let f0 = est.estimate();
    let truth = ds.n_groups as f64;
    assert!(
        (f0 - truth).abs() / truth < 0.5,
        "estimate {f0} vs truth {truth}"
    );
}

#[test]
fn noiseless_sketches_overcount_near_duplicates() {
    let ds = PaperDataset::Seeds.generate(4);
    let mut hll = HyperLogLog::new(12, 7);
    let mut kmv = KmvDistinctEstimator::new(256, 7);
    for lp in &ds.points {
        let id = point_identity(lp.point.coords(), 5);
        hll.process(id);
        kmv.process(id);
    }
    let truth = ds.n_groups as f64;
    // both count points, not groups: overcounting by the mean group size
    assert!(
        hll.estimate() > 5.0 * truth,
        "HLL {} vs groups {truth}",
        hll.estimate()
    );
    assert!(
        kmv.estimate() > 5.0 * truth,
        "KMV {} vs groups {truth}",
        kmv.estimate()
    );
}

#[test]
fn robust_f0_is_monotone_in_group_count() {
    // estimates must grow with the number of groups
    let mut estimates = Vec::new();
    for &n_groups in &[20u64, 80, 320] {
        let cfg = SamplerConfig::builder(1, 0.5)
            .seed(9)
            .expected_len(3200)
            .build()
            .unwrap();
        let mut est = RobustF0Estimator::try_new(cfg, 0.5, 5).unwrap();
        for i in 0..3200u64 {
            est.process(&rds_geometry::Point::new(vec![
                (i % n_groups) as f64 * 10.0,
            ]));
        }
        estimates.push(est.estimate());
    }
    assert!(estimates[0] < estimates[1] && estimates[1] < estimates[2]);
}

#[test]
fn sliding_window_f0_follows_the_window() {
    let cfg = SamplerConfig::builder(1, 0.5)
        .seed(11)
        .expected_len(4096)
        .kappa0(1.0)
        .build()
        .unwrap();
    let mut est = SlidingWindowF0::try_new(cfg, Window::Sequence(256), 1.0).unwrap();
    // phase 1: 100 groups
    for i in 0..1024u64 {
        est.process(&StreamItem::new(
            rds_geometry::Point::new(vec![(i % 100) as f64 * 10.0]),
            Stamp::at(i),
        ));
    }
    let phase1 = est.estimate();
    assert!(
        phase1 > 40.0 && phase1 < 250.0,
        "phase1 estimate {phase1} vs truth 100"
    );
    // phase 2: 10 groups (after a full window)
    for i in 1024..2048u64 {
        est.process(&StreamItem::new(
            rds_geometry::Point::new(vec![(i % 10) as f64 * 10.0]),
            Stamp::at(i),
        ));
    }
    let phase2 = est.estimate();
    assert!(
        phase2 < phase1 / 2.0,
        "estimate failed to follow: {phase1} -> {phase2}"
    );
}

#[test]
fn fm_estimate_reports_sane_scale() {
    let cfg = SamplerConfig::builder(1, 0.5)
        .seed(13)
        .expected_len(2048)
        .kappa0(1.0)
        .build()
        .unwrap();
    let mut est = SlidingWindowF0::try_new(cfg, Window::Sequence(512), 1.0).unwrap();
    for i in 0..2048u64 {
        est.process(&StreamItem::new(
            rds_geometry::Point::new(vec![(i % 128) as f64 * 10.0]),
            Stamp::at(i),
        ));
    }
    let fm = est.fm_estimate();
    // order-of-magnitude check only (the paper's own estimator sketch)
    assert!(fm > 8.0 && fm < 2048.0, "fm estimate {fm}");
}
