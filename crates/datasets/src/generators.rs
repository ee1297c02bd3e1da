//! Base point-cloud generators for the paper's evaluation datasets.
//!
//! Section 6.1 uses four base datasets before near-duplicate injection:
//!
//! * **Rand5** — 500 uniform random points in `(0,1)^5`;
//! * **Rand20** — 500 uniform random points in `(0,1)^20`;
//! * **Yacht** — 308 points in `R^7` (UCI yacht hydrodynamics);
//! * **Seeds** — 210 points in `R^8` (UCI seeds, 3 wheat varieties).
//!
//! The two UCI files are not redistributable inside this offline
//! repository, so [`yacht_like`] and [`seeds_like`] generate synthetic
//! stand-ins with the same cardinality, dimension and cluster structure
//! (each generator's doc says how it mirrors its dataset). All generators
//! end with the paper's preprocessing step: rescale so the minimum
//! pairwise distance is 1.

use rand::{Rng, RngExt};
use rds_geometry::Point;

/// Uniform random cloud in `(0,1)^dim`, rescaled to minimum pairwise
/// distance 1 (the paper's Rand5/Rand20 bases with `n = 500`).
pub fn rand_cloud<R: Rng + ?Sized>(n: usize, dim: usize, rng: &mut R) -> Vec<Point> {
    let raw: Vec<Point> = (0..n)
        .map(|_| Point::new((0..dim).map(|_| rng.random_range(0.0..1.0)).collect()))
        .collect();
    rescale_min_dist(raw)
}

/// Synthetic stand-in for the UCI *Yacht Hydrodynamics* dataset: 308
/// points in `R^7`.
///
/// The real dataset is a designed experiment — 22 hull geometries, each
/// evaluated at 14 Froude numbers, with 6 geometry parameters plus the
/// speed parameter. We mirror that: 22 parameter combinations on a small
/// lattice in the first 6 coordinates, crossed with 14 levels in the 7th,
/// plus small deterministic-seeded jitter so no two points coincide.
pub fn yacht_like<R: Rng + ?Sized>(rng: &mut R) -> Vec<Point> {
    let mut pts = Vec::with_capacity(308);
    // 22 hull configurations on a lattice.
    let hulls: Vec<[f64; 6]> = (0..22)
        .map(|h| {
            let mut cfg = [0.0; 6];
            let mut x = h;
            for c in cfg.iter_mut() {
                *c = (x % 3) as f64;
                x /= 3;
            }
            cfg
        })
        .collect();
    for hull in &hulls {
        for froude in 0..14 {
            let mut coords = Vec::with_capacity(7);
            for &c in hull {
                // jitter breaks exact ties between lattice points
                coords.push(c + rng.random_range(-0.01..0.01));
            }
            coords.push(froude as f64 * 0.5 + rng.random_range(-0.01..0.01));
            pts.push(Point::new(coords));
        }
    }
    debug_assert_eq!(pts.len(), 308);
    rescale_min_dist(pts)
}

/// Synthetic stand-in for the UCI *Seeds* dataset: 210 points in `R^8`,
/// three clusters of 70 (the three wheat varieties).
pub fn seeds_like<R: Rng + ?Sized>(rng: &mut R) -> Vec<Point> {
    let dim = 8;
    let centers: Vec<Point> = (0..3)
        .map(|c| Point::new((0..dim).map(|i| ((c * dim + i) % 5) as f64 * 2.0).collect()))
        .collect();
    let mut pts = Vec::with_capacity(210);
    for center in &centers {
        for _ in 0..70 {
            let coords = center
                .coords()
                .iter()
                .map(|&x| x + rds_geometry::standard_normal(rng) * 0.8)
                .collect();
            pts.push(Point::new(coords));
        }
    }
    rescale_min_dist(pts)
}

/// Minimum pairwise distance of a point set (`O(n^2)`; the evaluation
/// bases have at most 500 points).
///
/// Returns `f64::INFINITY` for sets with fewer than two points.
pub fn min_pairwise_distance(points: &[Point]) -> f64 {
    let mut best = f64::INFINITY;
    for i in 0..points.len() {
        for j in (i + 1)..points.len() {
            let d = points[i].distance_sq(&points[j]);
            if d < best {
                best = d;
            }
        }
    }
    best.sqrt()
}

/// Rescales a point set so that its minimum pairwise distance is exactly 1
/// (the paper's preprocessing before near-duplicate generation).
///
/// # Panics
///
/// Panics if two points coincide (zero minimum distance) — the rescaling
/// would be undefined.
pub fn rescale_min_dist(points: Vec<Point>) -> Vec<Point> {
    if points.len() < 2 {
        return points;
    }
    let min = min_pairwise_distance(&points);
    assert!(
        min > 0.0 && min.is_finite(),
        "cannot rescale a dataset with duplicate points"
    );
    let s = 1.0 / min;
    points.into_iter().map(|p| p.scale(s)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rand_cloud_has_requested_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let pts = rand_cloud(100, 5, &mut rng);
        assert_eq!(pts.len(), 100);
        assert!(pts.iter().all(|p| p.dim() == 5));
    }

    #[test]
    fn rand_cloud_min_distance_is_one() {
        let mut rng = StdRng::seed_from_u64(2);
        let pts = rand_cloud(50, 4, &mut rng);
        assert!((min_pairwise_distance(&pts) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn yacht_like_shape_matches_uci() {
        let mut rng = StdRng::seed_from_u64(3);
        let pts = yacht_like(&mut rng);
        assert_eq!(pts.len(), 308);
        assert!(pts.iter().all(|p| p.dim() == 7));
        assert!((min_pairwise_distance(&pts) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn seeds_like_shape_matches_uci() {
        let mut rng = StdRng::seed_from_u64(4);
        let pts = seeds_like(&mut rng);
        assert_eq!(pts.len(), 210);
        assert!(pts.iter().all(|p| p.dim() == 8));
        assert!((min_pairwise_distance(&pts) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn min_pairwise_distance_hand_case() {
        let pts = vec![
            Point::new(vec![0.0, 0.0]),
            Point::new(vec![3.0, 4.0]),
            Point::new(vec![0.0, 2.0]),
        ];
        assert!((min_pairwise_distance(&pts) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn min_pairwise_distance_of_singleton_is_infinite() {
        assert!(min_pairwise_distance(&[Point::origin(3)]).is_infinite());
    }

    #[test]
    fn rescale_preserves_shape_ratios() {
        let pts = vec![
            Point::new(vec![0.0]),
            Point::new(vec![0.5]),
            Point::new(vec![2.0]),
        ];
        let scaled = rescale_min_dist(pts);
        // min distance 0.5 -> scale by 2
        assert_eq!(scaled[1], Point::new(vec![1.0]));
        assert_eq!(scaled[2], Point::new(vec![4.0]));
    }

    #[test]
    #[should_panic(expected = "duplicate points")]
    fn rescale_rejects_duplicates() {
        let _ = rescale_min_dist(vec![Point::origin(2), Point::origin(2)]);
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let a = rand_cloud(20, 3, &mut StdRng::seed_from_u64(7));
        let b = rand_cloud(20, 3, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }
}
