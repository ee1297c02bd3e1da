//! Robust heavy hitters: which *groups* own at least a `phi` fraction of
//! the stream?
//!
//! The paper's introduction places ℓ0-sampling in a family of statistics
//! that break on near-duplicates (F0, sampling, heavy hitters — the last
//! studied in the distributed noisy model by Zhang [36], cited in
//! Section 1). This module completes the family for the streaming model:
//! a SpaceSaving summary whose keys are *group representatives* (points)
//! instead of exact items, using the same `d(u, p) <= alpha` membership
//! rule as the samplers.
//!
//! Guarantee (inherited from SpaceSaving with `ceil(1/phi)` counters,
//! given well-separated data): every group with true count
//! `> phi * m` is reported, and every reported count overestimates the
//! true group count by at most `m / capacity`.

use crate::error::RdsError;
use rds_geometry::Point;

/// One tracked group in the heavy-hitter summary.
#[derive(Clone, Debug)]
pub struct HeavyGroup {
    /// A representative point of the group (the first point observed
    /// under the current counter).
    pub rep: Point,
    /// Estimated number of stream points in the group (never an
    /// underestimate).
    pub count: u64,
    /// Upper bound on the overestimation of `count` (the count the
    /// counter had when it was taken over).
    pub error: u64,
}

/// SpaceSaving over near-duplicate groups.
///
/// # Examples
///
/// ```
/// use rds_core::RobustHeavyHitters;
/// use rds_geometry::Point;
///
/// let mut hh = RobustHeavyHitters::try_new(0.25, 0.5).unwrap();
/// for i in 0..100 {
///     // group 0 gets 60% of the stream; two others get 20% each
///     let g = if i % 5 < 3 { 0.0 } else { (1 + i % 5) as f64 * 10.0 };
///     hh.process(&Point::new(vec![g]));
/// }
/// let heavy = hh.heavy_hitters();
/// assert_eq!(heavy.len(), 1);
/// assert!(heavy[0].rep.within(&Point::new(vec![0.0]), 0.5));
/// ```
#[derive(Clone, Debug)]
pub struct RobustHeavyHitters {
    phi: f64,
    alpha: f64,
    capacity: usize,
    groups: Vec<HeavyGroup>,
    seen: u64,
}

impl RobustHeavyHitters {
    /// Creates a summary reporting groups with frequency above `phi`,
    /// with `ceil(2/phi)` counters (the extra factor keeps the
    /// overestimation below `phi/2 * m`).
    ///
    /// # Errors
    ///
    /// [`RdsError::InvalidPhi`] unless `0 < phi <= 1`;
    /// [`RdsError::InvalidAlpha`] unless `alpha` is positive and finite.
    pub fn try_new(phi: f64, alpha: f64) -> Result<Self, RdsError> {
        if !(phi > 0.0 && phi <= 1.0) {
            return Err(RdsError::InvalidPhi { phi });
        }
        if !(alpha > 0.0 && alpha.is_finite()) {
            return Err(RdsError::InvalidAlpha { alpha });
        }
        Ok(Self {
            phi,
            alpha,
            capacity: (2.0 / phi).ceil() as usize,
            groups: Vec::new(),
            seen: 0,
        })
    }

    /// Feeds one stream point.
    pub fn process(&mut self, p: &Point) {
        self.seen += 1;
        // existing group?
        if let Some(g) = self.groups.iter_mut().find(|g| g.rep.within(p, self.alpha)) {
            g.count += 1;
            return;
        }
        if self.groups.len() < self.capacity {
            self.groups.push(HeavyGroup {
                rep: p.clone(),
                count: 1,
                error: 0,
            });
            return;
        }
        // SpaceSaving takeover: the minimum counter adopts the new group
        // (capacity >= 1, so a full summary always has a minimum)
        if let Some(min) = self.groups.iter_mut().min_by_key(|g| g.count) {
            min.error = min.count;
            min.count += 1;
            min.rep = p.clone();
        }
    }

    /// Groups whose estimated frequency exceeds `phi` (every true heavy
    /// hitter is included; false positives have estimated counts within
    /// `m / capacity` of the threshold).
    pub fn heavy_hitters(&self) -> Vec<&HeavyGroup> {
        let threshold = (self.phi * self.seen as f64).floor() as u64;
        let mut out: Vec<&HeavyGroup> =
            self.groups.iter().filter(|g| g.count > threshold).collect();
        out.sort_by_key(|g| std::cmp::Reverse(g.count));
        out
    }

    /// Estimated count of the group containing `p` (0 when untracked).
    pub fn estimate(&self, p: &Point) -> u64 {
        self.groups
            .iter()
            .find(|g| g.rep.within(p, self.alpha))
            .map(|g| g.count)
            .unwrap_or(0)
    }

    /// All counters (diagnostics).
    pub fn counters(&self) -> &[HeavyGroup] {
        &self.groups
    }

    /// Points processed.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The frequency threshold `phi`.
    pub fn phi(&self) -> f64 {
        self.phi
    }

    /// Words of memory in use.
    pub fn words(&self) -> usize {
        self.groups.iter().map(|g| g.rep.words() + 2).sum::<usize>() + 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn noisy(base: f64, rng: &mut StdRng) -> Point {
        Point::new(vec![base + rng.random_range(-0.1..0.1)])
    }

    #[test]
    fn single_dominant_group_is_found() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut hh = RobustHeavyHitters::try_new(0.2, 0.5).unwrap();
        for i in 0..1000 {
            let base = if i % 2 == 0 {
                0.0
            } else {
                (i % 50) as f64 * 10.0
            };
            hh.process(&noisy(base, &mut rng));
        }
        let heavy = hh.heavy_hitters();
        assert!(!heavy.is_empty());
        assert!(heavy[0].rep.within(&Point::new(vec![0.0]), 0.5));
        // the dominant group owns ~half the stream
        assert!(heavy[0].count >= 450);
    }

    #[test]
    fn counts_never_underestimate() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut hh = RobustHeavyHitters::try_new(0.1, 0.5).unwrap();
        // group 0: exactly 300 points among 1000
        let mut truth = 0u64;
        for i in 0..1000 {
            let base = if i % 10 < 3 {
                truth += 1;
                0.0
            } else {
                (1 + i % 30) as f64 * 10.0
            };
            hh.process(&noisy(base, &mut rng));
        }
        let est = hh.estimate(&Point::new(vec![0.0]));
        assert!(
            est >= truth,
            "SpaceSaving must not underestimate: {est} < {truth}"
        );
        assert!(
            est <= truth + hh.seen() / 20,
            "overestimate too large: {est} vs {truth}"
        );
    }

    #[test]
    fn no_heavy_hitters_in_uniform_stream() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut hh = RobustHeavyHitters::try_new(0.25, 0.5).unwrap();
        for i in 0..1000 {
            hh.process(&noisy((i % 100) as f64 * 10.0, &mut rng));
        }
        // every group has 1% of the stream; threshold is 25%
        assert!(hh.heavy_hitters().is_empty());
    }

    #[test]
    fn near_duplicates_aggregate_into_one_counter() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut hh = RobustHeavyHitters::try_new(0.5, 0.5).unwrap();
        for _ in 0..500 {
            hh.process(&noisy(42.0, &mut rng));
        }
        assert_eq!(hh.counters().len(), 1);
        assert_eq!(hh.counters()[0].count, 500);
    }

    #[test]
    fn capacity_is_bounded() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut hh = RobustHeavyHitters::try_new(0.1, 0.5).unwrap();
        for i in 0..10_000u64 {
            hh.process(&noisy((i % 500) as f64 * 10.0, &mut rng));
        }
        assert!(hh.counters().len() <= 20);
        assert!(hh.words() < 200);
    }

    #[test]
    fn error_field_bounds_takeovers() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut hh = RobustHeavyHitters::try_new(0.25, 0.5).unwrap();
        for i in 0..400u64 {
            hh.process(&noisy((i % 40) as f64 * 10.0, &mut rng));
        }
        for g in hh.counters() {
            assert!(g.error < g.count, "error must be strictly below count");
        }
    }

    #[test]
    fn invalid_parameters_are_typed_errors() {
        assert!(matches!(
            RobustHeavyHitters::try_new(0.0, 0.5),
            Err(RdsError::InvalidPhi { .. })
        ));
        assert!(matches!(
            RobustHeavyHitters::try_new(1.5, 0.5),
            Err(RdsError::InvalidPhi { .. })
        ));
        assert!(matches!(
            RobustHeavyHitters::try_new(0.25, 0.0),
            Err(RdsError::InvalidAlpha { .. })
        ));
    }
}
