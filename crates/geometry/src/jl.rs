//! Johnson–Lindenstrauss style Gaussian random projections.
//!
//! Remark 2 of the paper observes that for high-dimensional data the
//! sparsity requirement `beta > d^1.5 * alpha` can be weakened to
//! `beta >= c * log^1.5(m) * alpha` by first applying a JL dimension
//! reduction. This module provides the projection used by that reduction.

use crate::Point;
use rand::{Rng, RngExt};

/// Draws a standard normal variate via the Box–Muller transform.
///
/// (The `rand` crate's normal distribution lives in the separate
/// `rand_distr` crate, which this workspace intentionally does not depend
/// on.)
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // u1 in (0, 1] to avoid ln(0).
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// A linear map `R^d -> R^k` with i.i.d. `N(0, 1/k)` entries.
///
/// For any fixed pair of points, distances are preserved up to `1 ± eps`
/// with probability `1 - exp(-Omega(eps^2 k))`.
///
/// # Examples
///
/// ```
/// use rds_geometry::{JlProjection, Point};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let proj = JlProjection::new(64, 16, &mut rng);
/// let p = proj.project(&Point::origin(64));
/// assert_eq!(p.dim(), 16);
/// ```
#[derive(Clone, Debug)]
pub struct JlProjection {
    in_dim: usize,
    out_dim: usize,
    /// Row-major `out_dim x in_dim` matrix.
    mat: Box<[f64]>,
}

impl JlProjection {
    /// Samples a projection from `R^in_dim` to `R^out_dim`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new<R: Rng + ?Sized>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        assert!(in_dim > 0 && out_dim > 0, "dimensions must be positive");
        let scale = 1.0 / (out_dim as f64).sqrt();
        let mat = (0..in_dim * out_dim)
            .map(|_| standard_normal(rng) * scale)
            .collect();
        Self {
            in_dim,
            out_dim,
            mat,
        }
    }

    /// The input dimension `d`.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// The output dimension `k`.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The suggested output dimension for a stream of length `m` and
    /// distortion `eps`, `k = ceil(8 ln(m) / eps^2)`.
    pub fn suggested_dim(stream_len: u64, eps: f64) -> usize {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1)");
        let m = (stream_len.max(2)) as f64;
        ((8.0 * m.ln()) / (eps * eps)).ceil() as usize
    }

    /// Projects `p` into `R^out_dim`.
    ///
    /// # Panics
    ///
    /// Panics if `p.dim() != self.in_dim()`.
    pub fn project(&self, p: &Point) -> Point {
        assert_eq!(p.dim(), self.in_dim, "dimension mismatch");
        let coords = (0..self.out_dim)
            .map(|r| {
                let row = &self.mat[r * self.in_dim..(r + 1) * self.in_dim];
                row.iter().zip(p.coords().iter()).map(|(a, b)| a * b).sum()
            })
            .collect();
        Point::new(coords)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_samples_have_plausible_moments() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.08, "var {var}");
    }

    #[test]
    fn projection_is_linear() {
        let mut rng = StdRng::seed_from_u64(5);
        let proj = JlProjection::new(10, 4, &mut rng);
        let p = Point::new((0..10).map(|i| i as f64).collect());
        let q = Point::new((0..10).map(|i| (10 - i) as f64).collect());
        let sum = proj.project(&p.add(&q));
        let parts = proj.project(&p).add(&proj.project(&q));
        for i in 0..4 {
            assert!((sum.get(i) - parts.get(i)).abs() < 1e-9);
        }
    }

    #[test]
    fn distances_roughly_preserved() {
        let mut rng = StdRng::seed_from_u64(8);
        let proj = JlProjection::new(200, 128, &mut rng);
        let mut ok = 0;
        let trials = 30;
        for _ in 0..trials {
            let p = Point::new((0..200).map(|_| standard_normal(&mut rng)).collect());
            let q = Point::new((0..200).map(|_| standard_normal(&mut rng)).collect());
            let d0 = p.distance(&q);
            let d1 = proj.project(&p).distance(&proj.project(&q));
            if (d1 / d0 - 1.0).abs() < 0.35 {
                ok += 1;
            }
        }
        assert!(ok >= trials - 2, "only {ok}/{trials} within distortion");
    }

    #[test]
    fn suggested_dim_shrinks_with_eps() {
        assert!(
            JlProjection::suggested_dim(1_000_000, 0.5)
                < JlProjection::suggested_dim(1_000_000, 0.1)
        );
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn project_rejects_wrong_dim() {
        let mut rng = StdRng::seed_from_u64(5);
        let proj = JlProjection::new(10, 4, &mut rng);
        let _ = proj.project(&Point::origin(9));
    }
}
