//! Failure-injection and edge-case integration tests: boundary geometry,
//! degenerate streams, and the error paths of Algorithm 3.

use rds_core::{
    FixedRateWindowSampler, ProcessOutcome, RobustL0Sampler, SamplerConfig, SlidingWindowSampler,
};
use rds_geometry::Point;
use rds_stream::{Stamp, StreamItem, Window};

#[test]
fn points_exactly_on_cell_boundaries() {
    // grid side = alpha = 1 with zero offsets is impossible through the
    // public API (offsets are random), but integer-coordinate points
    // still regularly land on boundaries of some dimension; hammer that.
    let cfg = SamplerConfig::builder(2, 1.0)
        .seed(4)
        .expected_len(4096)
        .build()
        .unwrap();
    let mut s = RobustL0Sampler::try_new(cfg).unwrap();
    for i in 0..64 {
        for j in 0..64 {
            s.process(&Point::new(vec![i as f64 * 3.0, j as f64 * 3.0]));
        }
    }
    assert!(s.query().is_some());
    // each lattice point is its own group: candidates are pairwise far
    let acc = s.accept_set();
    let rej = s.reject_set();
    let all: Vec<&Point> = acc.iter().chain(rej.iter()).map(|r| &r.rep).collect();
    for i in 0..all.len().min(80) {
        for j in (i + 1)..all.len().min(80) {
            assert!(!all[i].within(all[j], 1.0));
        }
    }
}

#[test]
fn duplicate_only_stream_keeps_one_group() {
    let cfg = SamplerConfig::builder(3, 0.5)
        .seed(5)
        .expected_len(10_000)
        .build()
        .unwrap();
    let mut s = RobustL0Sampler::try_new(cfg).unwrap();
    let base = Point::new(vec![1.0, 2.0, 3.0]);
    for i in 0..10_000u64 {
        let jitter = (i % 7) as f64 * 0.01;
        s.process(&Point::new(vec![1.0 + jitter, 2.0, 3.0]));
    }
    assert_eq!(s.accept_set().len(), 1);
    assert_eq!(s.accept_set()[0].count, 10_000);
    assert!(s.query().expect("non-empty").within(&base, 0.5));
}

#[test]
fn single_point_stream() {
    let cfg = SamplerConfig::builder(1, 0.5).seed(6).build().unwrap();
    let mut s = RobustL0Sampler::try_new(cfg).unwrap();
    assert_eq!(
        s.process(&Point::new(vec![7.5])),
        ProcessOutcome::Accepted,
        "R starts at 1: the first point must be accepted"
    );
    assert_eq!(s.query(), Some(&Point::new(vec![7.5])));
}

#[test]
fn huge_coordinates_do_not_break_the_grid() {
    let cfg = SamplerConfig::builder(2, 0.5)
        .seed(7)
        .expected_len(100)
        .build()
        .unwrap();
    let mut s = RobustL0Sampler::try_new(cfg).unwrap();
    for i in 0..100 {
        s.process(&Point::new(vec![1e12 + i as f64 * 1e9, -1e12]));
    }
    assert!(s.query().is_some());
}

#[test]
fn negative_and_mixed_sign_coordinates() {
    let cfg = SamplerConfig::builder(3, 0.25)
        .seed(8)
        .expected_len(512)
        .build()
        .unwrap();
    let mut s = RobustL0Sampler::try_new(cfg).unwrap();
    for i in 0..512i64 {
        let v = (i - 256) as f64 * 2.0;
        s.process(&Point::new(vec![v, -v, v / 2.0]));
    }
    assert!(s.query().is_some());
}

#[test]
fn window_larger_than_stream_never_expires() {
    let cfg = SamplerConfig::builder(1, 0.5)
        .seed(9)
        .expected_len(64)
        .build()
        .unwrap();
    let mut s = SlidingWindowSampler::try_new(cfg, Window::Sequence(1 << 30)).unwrap();
    for i in 0..64u64 {
        s.process(&StreamItem::new(
            Point::new(vec![i as f64 * 10.0]),
            Stamp::at(i),
        ));
    }
    // the Horvitz-Thompson estimate is exact only while no split has
    // happened; with threshold ~24 the 64 groups cascade once, so allow
    // the sampling noise of one level
    let est = s.f0_estimate();
    assert!(
        (32.0..=128.0).contains(&est),
        "estimate {est} far from 64 despite no expiry"
    );
    assert!(s.query().is_some());
}

#[test]
fn time_gaps_expire_everything_at_once() {
    let cfg = SamplerConfig::builder(1, 0.5)
        .seed(10)
        .expected_len(64)
        .build()
        .unwrap();
    let mut s = SlidingWindowSampler::try_new(cfg, Window::Time(5)).unwrap();
    for i in 0..32u64 {
        s.process(&StreamItem::new(
            Point::new(vec![i as f64 * 10.0]),
            Stamp::new(i, 0),
        ));
    }
    // a huge time gap: the whole window dies except the new point
    s.process(&StreamItem::new(
        Point::new(vec![777.0]),
        Stamp::new(32, 1_000_000),
    ));
    let q = s.query().expect("newest point is live");
    assert_eq!(q.latest, Point::new(vec![777.0]));
    assert_eq!(s.f0_estimate() as u64, 1);
}

#[test]
fn overflow_error_path_is_survivable() {
    // Force the Algorithm 3 "error" branch: a tiny window (few levels)
    // with an absurdly small threshold and many groups per window.
    let cfg = SamplerConfig::builder(1, 0.5)
        .seed(11)
        .expected_len(4) // tiny m => threshold ~ kappa0 * 2
        .kappa0(0.1)
        .build()
        .unwrap();
    let mut s = SlidingWindowSampler::try_new(cfg, Window::Sequence(8)).unwrap();
    for i in 0..2000u64 {
        s.process(&StreamItem::new(
            Point::new(vec![(i % 64) as f64 * 10.0]),
            Stamp::at(i),
        ));
        // even past the error event the sampler keeps answering
        assert!(s.query().is_some(), "query failed at step {i}");
    }
    assert!(
        s.overflow_errors() > 0,
        "test setup should have triggered the top-level overflow"
    );
}

#[test]
fn fixed_rate_sampler_survives_empty_windows() {
    let cfg = SamplerConfig::builder(1, 0.5)
        .seed(12)
        .expected_len(64)
        .build()
        .unwrap();
    let mut s = FixedRateWindowSampler::new(cfg, Window::Time(1), 0);
    s.process(&StreamItem::new(Point::new(vec![0.0]), Stamp::new(0, 0)));
    // time jumps; the window (t-1, t] is empty before the next arrival
    s.process(&StreamItem::new(Point::new(vec![10.0]), Stamp::new(1, 50)));
    assert_eq!(s.entries().len(), 1);
    assert_eq!(
        s.query().expect("one live group").last,
        Point::new(vec![10.0])
    );
}

#[test]
fn zero_variance_dataset_with_alpha_larger_than_extent() {
    // alpha so large the whole stream is one group
    let cfg = SamplerConfig::builder(2, 1e6)
        .seed(13)
        .expected_len(256)
        .build()
        .unwrap();
    let mut s = RobustL0Sampler::try_new(cfg).unwrap();
    for i in 0..256 {
        s.process(&Point::new(vec![i as f64, -(i as f64)]));
    }
    assert_eq!(s.accept_set().len() + s.reject_set().len(), 1);
}

#[test]
fn query_reflects_stream_growth() {
    // as new far-away groups arrive, old samples stay possible and new
    // ones become possible: check support growth via repeated queries
    let cfg = SamplerConfig::builder(1, 0.5)
        .seed(14)
        .expected_len(32)
        .build()
        .unwrap();
    let mut s = RobustL0Sampler::try_new(cfg).unwrap();
    s.process(&Point::new(vec![0.0]));
    let mut seen_new = false;
    s.process(&Point::new(vec![100.0]));
    for _ in 0..200 {
        if s.query() == Some(&Point::new(vec![100.0])) {
            seen_new = true;
            break;
        }
    }
    assert!(seen_new, "new group never sampled in 200 queries");
}
