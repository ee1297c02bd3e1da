//! Section 5: estimating the number of robust distinct elements (F0)
//! from the ℓ0-sampling structures.
//!
//! * Infinite window: plug the robust sampler into the Bar-Yossef et al.
//!   framework — replace Algorithm 1's `kappa_0 log m` threshold with
//!   `kappa_B / eps^2` and return `|Sacc| * R`; run several independent
//!   copies and take the median.
//! * Sliding window: run copies of Algorithm 3. The paper sketches an
//!   FM-style estimate `phi * 2^{mean(max non-empty level)}`; because each
//!   level's capacity is `Θ(log m)` (not 1 as in a plain FM sketch), the
//!   raw statistic undercounts by the per-level capacity, so
//!   [`SlidingWindowF0::fm_estimate`] multiplies the calibration in. The
//!   recommended estimator is the Horvitz–Thompson sum
//!   `Σ_ℓ |Sacc_ℓ| 2^ℓ` ([`SlidingWindowF0::estimate`]), the direct
//!   sliding-window analogue of `|Sacc| * R`.

use crate::config::SamplerConfig;
use crate::error::RdsError;
use crate::infinite::RobustL0Sampler;
use crate::sw_hier::SlidingWindowSampler;
use rds_geometry::Point;
use rds_stream::{StreamItem, Window};

/// The Flajolet–Martin bias-correction constant `phi`.
pub const FM_PHI: f64 = 0.77351;

/// Default `kappa_B` of the `kappa_B / eps^2` accept-set threshold.
pub const DEFAULT_KAPPA_B: f64 = 16.0;

fn median(mut xs: Vec<f64>) -> f64 {
    debug_assert!(!xs.is_empty(), "estimators are built with >= 1 copy");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

/// `(1 + eps)`-approximate robust F0 over the whole stream
/// (infinite window), Section 5 of the paper.
///
/// # Examples
///
/// ```
/// use rds_core::{RobustF0Estimator, SamplerConfig};
/// use rds_geometry::Point;
///
/// let cfg = SamplerConfig::builder(1, 0.5).seed(2).build().unwrap();
/// let mut est = RobustF0Estimator::try_new(cfg, 0.5, 5).unwrap();
/// for i in 0..300 {
///     // 30 groups, 10 near-duplicates each
///     est.process(&Point::new(vec![(i % 30) as f64 * 10.0 + 0.01 * (i / 30) as f64]));
/// }
/// let f0 = est.estimate();
/// assert!(f0 > 10.0 && f0 < 90.0);
/// ```
#[derive(Debug)]
pub struct RobustF0Estimator {
    copies: Vec<RobustL0Sampler>,
    eps: f64,
}

impl RobustF0Estimator {
    /// Creates the estimator with accuracy target `eps` and `n_copies`
    /// independent copies (median-boosted; use an odd count).
    ///
    /// # Errors
    ///
    /// [`RdsError::InvalidEps`] unless `eps` is in `(0, 1]`;
    /// [`RdsError::InvalidCopies`] when `n_copies == 0`.
    pub fn try_new(cfg: SamplerConfig, eps: f64, n_copies: usize) -> Result<Self, RdsError> {
        Self::try_with_kappa_b(cfg, eps, n_copies, DEFAULT_KAPPA_B)
    }

    /// Like [`Self::try_new`] with an explicit `kappa_B`.
    ///
    /// # Errors
    ///
    /// The [`Self::try_new`] errors, plus [`RdsError::InvalidKappaB`]
    /// unless `kappa_b` is strictly positive and finite.
    pub fn try_with_kappa_b(
        cfg: SamplerConfig,
        eps: f64,
        n_copies: usize,
        kappa_b: f64,
    ) -> Result<Self, RdsError> {
        if !(eps > 0.0 && eps <= 1.0) {
            return Err(RdsError::InvalidEps { eps });
        }
        if n_copies == 0 {
            return Err(RdsError::InvalidCopies);
        }
        if !(kappa_b > 0.0 && kappa_b.is_finite()) {
            return Err(RdsError::InvalidKappaB { kappa_b });
        }
        let threshold = (kappa_b / (eps * eps)).ceil() as usize;
        let copies = (0..n_copies)
            .map(|i| {
                let cfg_i = SamplerConfig {
                    seed: cfg.seed.wrapping_add(0x9E37_79B9 * (i as u64 + 1)),
                    ..cfg.clone()
                };
                RobustL0Sampler::try_with_threshold(cfg_i, threshold)
            })
            .collect::<Result<Vec<_>, RdsError>>()?;
        Ok(Self { copies, eps })
    }

    /// Feeds one point to every copy.
    pub fn process(&mut self, p: &Point) {
        for c in &mut self.copies {
            c.process(p);
        }
    }

    /// Feeds a batch of points to every copy (each copy's space metering
    /// is amortized over the batch, see
    /// [`RobustL0Sampler::process_batch`]).
    pub fn process_batch(&mut self, points: &[Point]) {
        for c in &mut self.copies {
            c.process_batch(points);
        }
    }

    /// The median-of-copies estimate `median(|Sacc| * R)`.
    pub fn estimate(&self) -> f64 {
        median(self.copies.iter().map(|c| c.f0_estimate()).collect())
    }

    /// The accuracy target.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Number of independent copies.
    pub fn n_copies(&self) -> usize {
        self.copies.len()
    }

    /// Total footprint in machine words across copies.
    pub fn words(&self) -> usize {
        self.copies.iter().map(|c| c.words()).sum()
    }
}

/// Robust F0 estimation over sliding windows (Section 5), built on copies
/// of Algorithm 3.
#[derive(Debug)]
pub struct SlidingWindowF0 {
    copies: Vec<SlidingWindowSampler>,
    threshold: usize,
    eps: f64,
}

impl SlidingWindowF0 {
    /// Creates the estimator with `n_copies = ceil(kappa / eps^2)` copies
    /// (`kappa = 2`), each an independent Algorithm 3 instance.
    ///
    /// # Errors
    ///
    /// [`RdsError::InvalidEps`] unless `eps` is in `(0, 1]`;
    /// [`RdsError::UnboundedWindow`] when the window is unbounded.
    pub fn try_new(cfg: SamplerConfig, window: Window, eps: f64) -> Result<Self, RdsError> {
        if !(eps > 0.0 && eps <= 1.0) {
            return Err(RdsError::InvalidEps { eps });
        }
        let n_copies = ((2.0 / (eps * eps)).ceil() as usize).max(1);
        let threshold = cfg.threshold();
        let copies = (0..n_copies)
            .map(|i| {
                let cfg_i = SamplerConfig {
                    seed: cfg.seed.wrapping_add(0xDEAD_BEEF * (i as u64 + 1)),
                    ..cfg.clone()
                };
                SlidingWindowSampler::try_new(cfg_i, window)
            })
            .collect::<Result<Vec<_>, RdsError>>()?;
        Ok(Self {
            copies,
            threshold,
            eps,
        })
    }

    /// Feeds one stream item to every copy.
    pub fn process(&mut self, item: &StreamItem) {
        for c in &mut self.copies {
            c.process(item);
        }
    }

    /// Recommended estimator: median over copies of the Horvitz–Thompson
    /// sum `Σ_ℓ |Sacc_ℓ| 2^ℓ`.
    pub fn estimate(&self) -> f64 {
        median(self.copies.iter().map(|c| c.f0_estimate()).collect())
    }

    /// The paper's FM-flavoured estimator: `phi * 2^{mean(c_i)}` scaled by
    /// the per-level capacity, where `c_i` is copy `i`'s highest non-empty
    /// level. Windows currently empty contribute level 0.
    pub fn fm_estimate(&self) -> f64 {
        let mean_level = self
            .copies
            .iter()
            .map(|c| c.max_nonempty_level().unwrap_or(0) as f64)
            .sum::<f64>()
            / self.copies.len() as f64;
        FM_PHI * 2f64.powf(mean_level) * self.threshold as f64
    }

    /// The accuracy target.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Number of copies.
    pub fn n_copies(&self) -> usize {
        self.copies.len()
    }

    /// Total footprint in machine words across copies.
    pub fn words(&self) -> usize {
        self.copies.iter().map(|c| c.words()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rds_stream::Stamp;

    fn grouped_point(i: u64, n_groups: u64) -> Point {
        Point::new(vec![
            (i % n_groups) as f64 * 10.0 + 0.01 * ((i / n_groups) % 5) as f64,
        ])
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn infinite_window_estimate_tracks_truth() {
        let n_groups = 200u64;
        let cfg = SamplerConfig::builder(1, 0.5)
            .seed(3)
            .expected_len(4000)
            .build()
            .unwrap();
        let mut est = RobustF0Estimator::try_new(cfg, 0.5, 7).unwrap();
        for i in 0..4000u64 {
            est.process(&grouped_point(i, n_groups));
        }
        let f0 = est.estimate();
        assert!(
            f0 >= n_groups as f64 * 0.5 && f0 <= n_groups as f64 * 2.0,
            "estimate {f0} vs truth {n_groups}"
        );
    }

    #[test]
    fn batch_processing_matches_per_point_processing() {
        let cfg = SamplerConfig::builder(1, 0.5)
            .seed(9)
            .expected_len(512)
            .build()
            .unwrap();
        let points: Vec<Point> = (0..512u64).map(|i| grouped_point(i, 64)).collect();
        let mut one = RobustF0Estimator::try_new(cfg.clone(), 0.5, 3).unwrap();
        for p in &points {
            one.process(p);
        }
        let mut batched = RobustF0Estimator::try_new(cfg, 0.5, 3).unwrap();
        for chunk in points.chunks(100) {
            batched.process_batch(chunk);
        }
        assert_eq!(one.estimate(), batched.estimate());
    }

    #[test]
    fn estimate_is_exact_before_any_subsampling() {
        // few groups, large threshold: R stays 1 and |Sacc| counts groups
        let cfg = SamplerConfig::builder(1, 0.5).seed(4).build().unwrap();
        let mut est = RobustF0Estimator::try_new(cfg, 1.0, 3).unwrap();
        for i in 0..60u64 {
            est.process(&grouped_point(i, 12));
        }
        assert_eq!(est.estimate(), 12.0);
    }

    #[test]
    fn eps_controls_threshold_monotonically() {
        let cfg = SamplerConfig::builder(1, 0.5).build().unwrap();
        let coarse = RobustF0Estimator::try_new(cfg.clone(), 1.0, 1).unwrap();
        let fine = RobustF0Estimator::try_new(cfg, 0.25, 1).unwrap();
        assert!(fine.words() >= coarse.words());
        assert_eq!(coarse.n_copies(), 1);
    }

    #[test]
    fn sliding_window_estimate_tracks_truth() {
        let n_groups = 48u64;
        let cfg = SamplerConfig::builder(1, 0.5)
            .seed(5)
            .expected_len(2048)
            .kappa0(1.0)
            .build()
            .unwrap();
        let mut est = SlidingWindowF0::try_new(cfg, Window::Sequence(512), 0.8).unwrap();
        for i in 0..2048u64 {
            est.process(&StreamItem::new(grouped_point(i, n_groups), Stamp::at(i)));
        }
        let f0 = est.estimate();
        assert!(
            f0 >= n_groups as f64 / 2.5 && f0 <= n_groups as f64 * 2.5,
            "estimate {f0} vs truth {n_groups}"
        );
    }

    #[test]
    fn sliding_window_estimate_follows_window_shrink() {
        // stream switches from 64 groups to 4 groups; after a full window
        // of the new regime the estimate must drop
        let cfg = SamplerConfig::builder(1, 0.5)
            .seed(6)
            .expected_len(4096)
            .kappa0(1.0)
            .build()
            .unwrap();
        let mut est = SlidingWindowF0::try_new(cfg, Window::Sequence(256), 0.8).unwrap();
        for i in 0..1024u64 {
            est.process(&StreamItem::new(grouped_point(i, 64), Stamp::at(i)));
        }
        let many = est.estimate();
        for i in 1024..2048u64 {
            est.process(&StreamItem::new(grouped_point(i, 4), Stamp::at(i)));
        }
        let few = est.estimate();
        assert!(
            few < many / 2.0,
            "estimate failed to shrink: before {many}, after {few}"
        );
        assert!(few <= 16.0, "estimate {few} far above truth 4");
    }

    #[test]
    fn fm_estimate_is_positive_and_ordered() {
        let cfg = SamplerConfig::builder(1, 0.5)
            .seed(7)
            .expected_len(2048)
            .kappa0(1.0)
            .build()
            .unwrap();
        let mut small = SlidingWindowF0::try_new(cfg.clone(), Window::Sequence(256), 1.0).unwrap();
        let mut large = SlidingWindowF0::try_new(cfg, Window::Sequence(256), 1.0).unwrap();
        for i in 0..1024u64 {
            small.process(&StreamItem::new(grouped_point(i, 8), Stamp::at(i)));
            large.process(&StreamItem::new(grouped_point(i, 200), Stamp::at(i)));
        }
        assert!(small.fm_estimate() > 0.0);
        assert!(large.fm_estimate() >= small.fm_estimate());
    }

    #[test]
    fn invalid_parameters_are_typed_errors() {
        use crate::error::RdsError;
        let cfg = SamplerConfig::builder(1, 0.5).build().unwrap();
        assert!(matches!(
            RobustF0Estimator::try_new(cfg.clone(), 0.0, 1),
            Err(RdsError::InvalidEps { .. })
        ));
        assert!(matches!(
            RobustF0Estimator::try_new(cfg.clone(), 0.5, 0),
            Err(RdsError::InvalidCopies)
        ));
        assert!(matches!(
            RobustF0Estimator::try_with_kappa_b(cfg.clone(), 0.5, 1, 0.0),
            Err(RdsError::InvalidKappaB { .. })
        ));
        assert!(matches!(
            SlidingWindowF0::try_new(cfg.clone(), rds_stream::Window::Sequence(16), 2.0),
            Err(RdsError::InvalidEps { .. })
        ));
        assert!(matches!(
            SlidingWindowF0::try_new(cfg, rds_stream::Window::Infinite, 1.0),
            Err(RdsError::UnboundedWindow)
        ));
    }
}
