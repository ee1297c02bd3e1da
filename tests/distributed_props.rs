//! Property-based tests (proptest) of the distributed merge: the
//! coordinator's [`SamplerSummary::merge_many`] over the sites'
//! [`MergedSummary`]s must be order-insensitive, and the merged estimate
//! must agree with a single sampler that saw the concatenation of every
//! site stream.

use proptest::prelude::*;
use rds_core::{DistinctSampler, MergedSummary, RobustL0Sampler, SamplerConfig, SamplerSummary};
use rds_geometry::Point;

/// A stream of `n` points over `n_entities` well-separated entities
/// (spacing `10`, within-entity jitter `< alpha/2 = 0.25`).
fn entity_stream(n: u64, n_entities: u64) -> Vec<Point> {
    (0..n)
        .map(|i| {
            let e = i % n_entities;
            Point::new(vec![e as f64 * 10.0 + 0.01 * ((i / n_entities) % 5) as f64])
        })
        .collect()
}

/// Splits `points` across `n_sites` site streams by a deterministic
/// pseudo-random assignment, preserving relative order within each site.
fn split_across_sites(points: &[Point], n_sites: usize, salt: u64) -> Vec<Vec<Point>> {
    let mut sites = vec![Vec::new(); n_sites];
    for (i, p) in points.iter().enumerate() {
        let h = rds_hashing::splitmix64(i as u64 ^ salt);
        sites[(h % n_sites as u64) as usize].push(p.clone());
    }
    sites
}

fn site_summaries(cfg: &SamplerConfig, sites: &[Vec<Point>]) -> Vec<MergedSummary> {
    sites
        .iter()
        .map(|stream| {
            let mut s = RobustL0Sampler::try_new(cfg.clone()).unwrap();
            s.process_batch(stream);
            s.into_summary()
        })
        .collect()
}

fn merge(summaries: Vec<MergedSummary>) -> MergedSummary {
    MergedSummary::merge_many(summaries)
        .expect("same cfg")
        .expect("at least one site")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Merging the same summaries in any order yields the same merged
    /// level and F0 estimate.
    #[test]
    fn merge_is_order_insensitive(
        seed in 0u64..500,
        n_entities in 4u64..40,
        n_sites in 2usize..6,
        rotation in 0usize..6,
        salt in 0u64..1000,
    ) {
        let cfg = SamplerConfig::builder(1, 0.5)
            .seed(seed)
            .expected_len(512)
            .kappa0(1.0).build().unwrap(); // small threshold: merges see real subsampling
        let points = entity_stream(8 * n_entities, n_entities);
        let mut summaries = site_summaries(&cfg, &split_across_sites(&points, n_sites, salt));

        let forward = merge(summaries.clone());
        let rot = rotation % summaries.len();
        summaries.rotate_left(rot);
        summaries.reverse();
        let shuffled = merge(summaries);

        prop_assert_eq!(forward.level(), shuffled.level());
        prop_assert_eq!(forward.f0_estimate(), shuffled.f0_estimate());
        prop_assert_eq!(forward.accept_set().len(), shuffled.accept_set().len());
    }

    /// With generous thresholds (no subsampling anywhere) the merged
    /// estimate equals the single-site estimate over the concatenated
    /// stream exactly, and both count the entities.
    #[test]
    fn merge_agrees_with_concatenated_run_exactly_when_unsubsampled(
        seed in 0u64..500,
        n_entities in 2u64..24,
        n_sites in 1usize..5,
        salt in 0u64..1000,
    ) {
        let cfg = SamplerConfig::builder(1, 0.5)
            .seed(seed)
            .expected_len(256)
            .kappa0(4.0).build().unwrap(); // threshold 32 > 24 entities: nothing subsamples
        let points = entity_stream(6 * n_entities, n_entities);

        let mut single = RobustL0Sampler::try_new(cfg.clone()).unwrap();
        single.process_batch(&points);
        prop_assert_eq!(single.level(), 0, "threshold covers every entity");

        let merged = merge(site_summaries(&cfg, &split_across_sites(&points, n_sites, salt)));
        prop_assert_eq!(merged.f0_estimate(), single.f0_estimate());
        prop_assert_eq!(merged.f0_estimate(), n_entities as f64);
    }

    /// Same seed, same concatenated stream: even when the sites subsample,
    /// the merged estimate stays within a constant factor of the
    /// single-stream estimate (both are (1±eps)-accurate whp, so they can
    /// only drift apart by the product of their error bars).
    #[test]
    fn merge_tracks_concatenated_run_under_subsampling(
        seed in 0u64..300,
        n_sites in 2usize..5,
        salt in 0u64..1000,
    ) {
        let n_entities = 160u64;
        let cfg = SamplerConfig::builder(1, 0.5)
            .seed(seed)
            .expected_len(1280)
            .kappa0(2.0).build().unwrap(); // threshold ~21 << 160: several doublings
        let points = entity_stream(8 * n_entities, n_entities);

        let mut single = RobustL0Sampler::try_new(cfg.clone()).unwrap();
        single.process_batch(&points);
        let merged = merge(site_summaries(&cfg, &split_across_sites(&points, n_sites, salt)));

        let (s, m) = (single.f0_estimate(), merged.f0_estimate());
        prop_assert!(s > 0.0 && m > 0.0);
        prop_assert!(
            m / s <= 4.0 && s / m <= 4.0,
            "merged {} vs single {} drifted beyond 4x", m, s
        );
    }
}
