//! Statistical test of sample uniformity: over many independently seeded
//! runs on a known entity partition, the per-entity sampling frequency
//! must stay within the `rds-metrics` deviation bounds (`stdDevNm`,
//! `maxDevNm`) the paper's Section 6 evaluation uses.

use rds_core::{RobustL0Sampler, SamplerConfig};
use rds_geometry::Point;
use rds_metrics::SampleHistogram;

/// A fixed stream over `n_entities` known entities: entity `e` occupies
/// points `e*10 ± jitter`, so the ground-truth partition is
/// `entity_of(p) = round(p.x / 10)`.
fn known_partition_stream(n_points: u64, n_entities: u64) -> Vec<Point> {
    (0..n_points)
        .map(|i| {
            let e = i % n_entities;
            Point::new(vec![
                e as f64 * 10.0 + 0.02 * ((i / n_entities) % 10) as f64,
            ])
        })
        .collect()
}

fn entity_of(p: &Point) -> usize {
    (p.get(0) / 10.0).round() as usize
}

#[test]
fn per_entity_deviation_stays_within_the_std_dev_nm_bound() {
    let n_entities = 20u64;
    let points = known_partition_stream(400, n_entities);
    let runs = 600u64;
    let mut hist = SampleHistogram::new(n_entities as usize);
    for run in 0..runs {
        let cfg = SamplerConfig::builder(1, 0.5)
            .seed(run * 6151 + 3)
            .expected_len(points.len() as u64)
            .kappa0(1.0)
            .build()
            .unwrap(); // tight threshold: rate doublings do occur
        let mut s = RobustL0Sampler::try_new(cfg).unwrap();
        s.process_batch(&points);
        let sample = s.query().expect("stream non-empty").clone();
        hist.record(entity_of(&sample));
    }
    assert_eq!(hist.runs(), runs);
    // With 600 runs over 20 entities, uniform sampling gives
    // stdDevNm ~ sqrt(F0/runs) ~ 0.18; 0.45 leaves ample slack while
    // still rejecting any systematically favoured entity.
    assert!(
        hist.std_dev_nm() < 0.45,
        "stdDevNm {} out of bound; counts {:?}",
        hist.std_dev_nm(),
        hist.counts()
    );
    assert!(
        hist.max_dev_nm() < 1.5,
        "maxDevNm {} out of bound; counts {:?}",
        hist.max_dev_nm(),
        hist.counts()
    );
    // every entity must actually be sampled at least once
    assert!(
        hist.counts().iter().all(|&c| c > 0),
        "an entity was never sampled: {:?}",
        hist.counts()
    );
}
