//! Bottom-k (KMV) distinct-elements estimation — the BJKST (Bar-Yossef,
//! Jayram, Kumar, Sivakumar, Trevisan, RANDOM 2002) family of noiseless
//! F0 estimators that Section 5 of the paper robustifies.
//!
//! The estimator keeps the `k` minimum hash values seen; with `v_k` the
//! k-th minimum mapped into `[0, 1]`, the number of distinct elements is
//! about `(k - 1) / v_k`.

use rds_hashing::splitmix64;
use std::collections::BTreeSet;

/// Bottom-k distinct counter over `u64` item identities.
///
/// # Examples
///
/// ```
/// use rds_baselines::KmvDistinctEstimator;
///
/// let mut e = KmvDistinctEstimator::new(64, 1);
/// for x in 0..1000u64 {
///     e.process(x % 100); // 100 distinct items, each 10 times
/// }
/// let est = e.estimate();
/// assert!(est > 60.0 && est < 160.0);
/// ```
#[derive(Clone, Debug)]
pub struct KmvDistinctEstimator {
    k: usize,
    seed: u64,
    smallest: BTreeSet<u64>,
    seen: u64,
}

impl KmvDistinctEstimator {
    /// Creates the estimator with `k` retained minima; the standard error
    /// is about `1/sqrt(k)`.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`.
    pub fn new(k: usize, seed: u64) -> Self {
        assert!(k >= 2, "bottom-k needs k >= 2");
        Self {
            k,
            seed,
            smallest: BTreeSet::new(),
            seen: 0,
        }
    }

    /// Feeds one item.
    pub fn process(&mut self, item: u64) {
        self.seen += 1;
        let h = splitmix64(self.seed ^ item);
        if self.smallest.len() < self.k {
            self.smallest.insert(h);
        } else if let Some(&max) = self.smallest.iter().next_back() {
            if h < max {
                // duplicates hash identically: `insert` returning false
                // keeps the set unchanged, as required
                if self.smallest.insert(h) {
                    self.smallest.remove(&max);
                }
            }
        }
    }

    /// The distinct-count estimate.
    pub fn estimate(&self) -> f64 {
        let n = self.smallest.len();
        if n < self.k {
            // fewer distinct elements than k: the set is exact
            return n as f64;
        }
        let vk = *self.smallest.iter().next_back().expect("k >= 2") as f64 / u64::MAX as f64;
        (self.k as f64 - 1.0) / vk
    }

    /// Number of items processed.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Words of memory in use.
    pub fn words(&self) -> usize {
        self.smallest.len() + 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_below_k() {
        let mut e = KmvDistinctEstimator::new(32, 1);
        for x in 0..10u64 {
            for _ in 0..5 {
                e.process(x);
            }
        }
        assert_eq!(e.estimate(), 10.0);
    }

    #[test]
    fn duplicates_do_not_change_the_estimate() {
        let mut a = KmvDistinctEstimator::new(16, 2);
        let mut b = KmvDistinctEstimator::new(16, 2);
        for x in 0..500u64 {
            a.process(x);
            b.process(x);
            b.process(x); // duplicate every item
        }
        assert_eq!(a.estimate(), b.estimate());
    }

    #[test]
    fn estimate_within_tolerance_on_large_stream() {
        let truth = 5000.0;
        let mut errs = Vec::new();
        for seed in 0..10u64 {
            let mut e = KmvDistinctEstimator::new(256, seed * 7 + 1);
            for x in 0..5000u64 {
                e.process(x.wrapping_mul(0x9E3779B97F4A7C15));
            }
            errs.push((e.estimate() - truth).abs() / truth);
        }
        let mean_err = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(mean_err < 0.2, "mean relative error {mean_err}");
    }

    #[test]
    fn near_duplicate_identities_inflate_the_count() {
        // the failure mode on noisy data: 100 groups x 50 near-duplicates
        // look like 5000 distinct items
        let mut e = KmvDistinctEstimator::new(256, 3);
        for g in 0..100u64 {
            for d in 0..50u64 {
                e.process(g * 1_000_000 + d); // distinct identities per duplicate
            }
        }
        assert!(
            e.estimate() > 2000.0,
            "expected inflation far above 100 groups, got {}",
            e.estimate()
        );
    }

    #[test]
    #[should_panic(expected = "k >= 2")]
    fn tiny_k_rejected() {
        let _ = KmvDistinctEstimator::new(1, 1);
    }
}
