//! The folklore noiseless ℓ0-sampler: assign each distinct item a random
//! rank and keep the minimum-rank item.
//!
//! This is the "uniform random sampling on representative points"
//! primitive the paper builds on (Techniques Overview, Section 1) and the
//! baseline whose behaviour on noisy data motivates the whole paper: on a
//! stream with near-duplicates the sampler sees every near-duplicate as a
//! fresh distinct item, so its output is biased toward heavily duplicated
//! groups — see the `bias` experiment in the bench crate.

use rds_geometry::Point;
use rds_hashing::{point_identity, splitmix64};

/// A noiseless min-rank ℓ0-sampler over 64-bit item identities.
///
/// The rank of item `x` is the seeded mix of `x`; equal items always get
/// equal ranks, so duplicates of the *exact same* item do not bias the
/// sample, but near-duplicates (different identities) do.
///
/// # Examples
///
/// ```
/// use rds_baselines::MinRankL0Sampler;
///
/// let mut s = MinRankL0Sampler::new(7);
/// for x in [3u64, 1, 4, 1, 5, 9, 2, 6] {
///     s.process(x);
/// }
/// assert!(s.sample().is_some());
/// ```
#[derive(Clone, Debug)]
pub struct MinRankL0Sampler {
    seed: u64,
    best: Option<(u64, u64)>, // (rank, item)
    seen: u64,
}

impl MinRankL0Sampler {
    /// Creates the sampler with a rank-hash seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            best: None,
            seen: 0,
        }
    }

    /// Feeds one item.
    pub fn process(&mut self, item: u64) {
        self.seen += 1;
        let rank = splitmix64(self.seed ^ item);
        match self.best {
            Some((r, _)) if r <= rank => {}
            _ => self.best = Some((rank, item)),
        }
    }

    /// The current sample: a uniformly random *distinct* item of the
    /// stream (over the hash randomness).
    pub fn sample(&self) -> Option<u64> {
        self.best.map(|(_, item)| item)
    }

    /// Number of items processed.
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

/// [`MinRankL0Sampler`] lifted to Euclidean points by exact-bit identity —
/// the baseline that *fails* on near-duplicates.
#[derive(Clone, Debug)]
pub struct PointMinRankSampler {
    inner: MinRankL0Sampler,
    id_seed: u64,
    best_point: Option<Point>,
}

impl PointMinRankSampler {
    /// Creates the sampler.
    pub fn new(seed: u64) -> Self {
        Self {
            inner: MinRankL0Sampler::new(seed ^ 0x5A5A),
            id_seed: seed,
            best_point: None,
        }
    }

    /// Feeds one point; the point's identity is its exact bit pattern.
    pub fn process(&mut self, p: &Point) {
        let id = point_identity(p.coords(), self.id_seed);
        let before = self.inner.sample();
        self.inner.process(id);
        if self.inner.sample() != before {
            self.best_point = Some(p.clone());
        }
    }

    /// The current sample.
    pub fn sample(&self) -> Option<&Point> {
        self.best_point.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rds_metrics::SampleHistogram;

    #[test]
    fn exact_duplicates_do_not_bias() {
        // stream: item 0 appears 1000 times, items 1..=9 once each;
        // over many seeds, item 0 must be sampled ~1/10 of the time.
        let mut hist = SampleHistogram::new(10);
        for seed in 0..2000u64 {
            let mut s = MinRankL0Sampler::new(seed);
            for _ in 0..1000 {
                s.process(0);
            }
            for x in 1..10u64 {
                s.process(x);
            }
            hist.record(s.sample().expect("non-empty") as usize);
        }
        assert!(hist.max_dev_nm() < 0.5, "biased: {:?}", hist.counts());
    }

    #[test]
    fn near_duplicate_points_do_bias() {
        // group 0 has 50 near-duplicates; groups 1..=9 have one point.
        // The noiseless sampler treats all 59 points as distinct, so
        // group 0 is sampled ~50/59 of the time — the failure the paper
        // fixes.
        let mut group0_wins = 0u64;
        let trials = 400;
        for seed in 0..trials {
            let mut s = PointMinRankSampler::new(seed * 17 + 3);
            for i in 0..50 {
                s.process(&Point::new(vec![0.0 + i as f64 * 1e-9]));
            }
            for g in 1..10 {
                s.process(&Point::new(vec![g as f64 * 10.0]));
            }
            let p = s.sample().expect("non-empty");
            if p.get(0) < 1.0 {
                group0_wins += 1;
            }
        }
        let frac = group0_wins as f64 / trials as f64;
        assert!(
            frac > 0.6,
            "expected heavy bias toward the duplicated group, got {frac}"
        );
    }

    #[test]
    fn empty_stream_has_no_sample() {
        assert!(MinRankL0Sampler::new(1).sample().is_none());
        assert!(PointMinRankSampler::new(1).sample().is_none());
    }

    #[test]
    fn sample_is_from_the_stream() {
        let mut s = MinRankL0Sampler::new(5);
        let items = [10u64, 20, 30];
        for &x in &items {
            s.process(x);
        }
        assert!(items.contains(&s.sample().expect("non-empty")));
        assert_eq!(s.seen(), 3);
    }
}
