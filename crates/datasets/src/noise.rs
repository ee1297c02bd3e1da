//! Near-duplicate injection (the two transformations of Section 6.1).
//!
//! Starting from a base point set with minimum pairwise distance 1, the
//! paper creates each near-duplicate of `x_i` by sampling a direction
//! uniformly from the unit cube, rescaling it to a length drawn from
//! `(0, 1/(2 d^1.5))`, and adding it to `x_i`. Each base point plus its
//! near-duplicates forms one ground-truth group.
//!
//! * Transformation 1 (`uniform_dups`): `k_i ~ Uniform{1..=100}` duplicates
//!   per point — the datasets Rand5 / Rand20 / Yacht / Seeds.
//! * Transformation 2 (`powerlaw_dups`): point `i` (in a random order)
//!   receives `ceil(n / i)` duplicates — the `-pl` datasets.

use crate::generators::min_pairwise_distance;
use rand::seq::SliceRandom;
use rand::{Rng, RngExt};
use rds_geometry::Point;
use rds_stream::{enumerate_stream, StreamItem};

/// A stream point labelled with its ground-truth group (the index of the
/// base point it was generated from).
#[derive(Clone, Debug)]
pub struct LabeledPoint {
    /// The data point.
    pub point: Point,
    /// Ground-truth group id in `0..n_groups`.
    pub group: usize,
}

/// A generated evaluation dataset: labelled points plus the metadata the
/// experiments need.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Display name (e.g. `"Rand5"`, `"Seeds-pl"`).
    pub name: String,
    /// All points (base + near-duplicates), in generation order until
    /// [`Dataset::shuffle`] is called.
    pub points: Vec<LabeledPoint>,
    /// Number of ground-truth groups (`F0` of the dataset).
    pub n_groups: usize,
    /// Ambient dimension.
    pub dim: usize,
    /// The distance threshold `alpha` under which the dataset is
    /// well-separated: intra-group diameter `<= alpha`, inter-group
    /// distance `>> 2 alpha`.
    pub alpha: f64,
}

impl Dataset {
    /// Number of points (the stream length `m`).
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Randomly shuffles the points (the paper shuffles every dataset
    /// before streaming it).
    pub fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        self.points.shuffle(rng);
    }

    /// The dataset as a stamped stream (sequence number == timestamp ==
    /// position).
    pub fn stream(&self) -> Vec<StreamItem> {
        enumerate_stream(self.points.iter().map(|lp| lp.point.clone()))
    }

    /// Ground-truth group of each stream position.
    pub fn labels(&self) -> Vec<usize> {
        self.points.iter().map(|lp| lp.group).collect()
    }
}

/// The maximum near-duplicate displacement radius used by the paper:
/// `1 / (2 d^{1.5})`.
pub fn dup_radius(dim: usize) -> f64 {
    0.5 / (dim as f64).powf(1.5)
}

/// The group-diameter threshold `alpha` implied by [`dup_radius`]: two
/// duplicates of the same base point are at distance at most
/// `2 * dup_radius = 1 / d^{1.5}`.
pub fn alpha_for(dim: usize) -> f64 {
    2.0 * dup_radius(dim)
}

/// Generates one near-duplicate of `x`: a uniform direction from the unit
/// cube scaled to a length drawn uniformly from `(0, dup_radius(d))`.
pub fn near_duplicate<R: Rng + ?Sized>(x: &Point, rng: &mut R) -> Point {
    let d = x.dim();
    let z = Point::new((0..d).map(|_| rng.random_range(0.0..1.0)).collect());
    let norm = z.norm().max(f64::MIN_POSITIVE);
    let len = rng.random_range(0.0..dup_radius(d));
    let zhat = z.scale(len / norm);
    x.add(&zhat)
}

fn build<R: Rng + ?Sized>(
    name: &str,
    base: &[Point],
    dup_counts: &[usize],
    rng: &mut R,
) -> Dataset {
    assert_eq!(base.len(), dup_counts.len());
    assert!(!base.is_empty(), "base dataset must be non-empty");
    debug_assert!(
        (min_pairwise_distance(base) - 1.0).abs() < 1e-6,
        "base must be rescaled to min distance 1"
    );
    let dim = base[0].dim();
    let mut points = Vec::with_capacity(base.len() + dup_counts.iter().sum::<usize>());
    for (g, (x, &k)) in base.iter().zip(dup_counts.iter()).enumerate() {
        points.push(LabeledPoint {
            point: x.clone(),
            group: g,
        });
        for _ in 0..k {
            points.push(LabeledPoint {
                point: near_duplicate(x, rng),
                group: g,
            });
        }
    }
    Dataset {
        name: name.to_string(),
        points,
        n_groups: base.len(),
        dim,
        alpha: alpha_for(dim),
    }
}

/// Transformation 1 of Section 6.1: each base point receives
/// `k_i ~ Uniform{1..=max_k}` near-duplicates (the paper uses
/// `max_k = 100`).
pub fn uniform_dups<R: Rng + ?Sized>(
    name: &str,
    base: &[Point],
    max_k: usize,
    rng: &mut R,
) -> Dataset {
    assert!(max_k >= 1, "max_k must be at least 1");
    let counts: Vec<usize> = (0..base.len())
        .map(|_| rng.random_range(1..=max_k))
        .collect();
    build(name, base, &counts, rng)
}

/// Transformation 2 of Section 6.1: after randomly ordering the base
/// points, point `i` (1-based) receives `ceil(n / i)` near-duplicates —
/// a power-law group-size distribution.
pub fn powerlaw_dups<R: Rng + ?Sized>(name: &str, base: &[Point], rng: &mut R) -> Dataset {
    let n = base.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    let mut counts = vec![0usize; n];
    for (rank, &idx) in order.iter().enumerate() {
        // rank is 0-based; the paper's i is 1-based
        counts[idx] = (n as f64 / (rank + 1) as f64).ceil() as usize;
    }
    build(name, base, &counts, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::rand_cloud;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn base(n: usize, dim: usize, seed: u64) -> Vec<Point> {
        rand_cloud(n, dim, &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn dup_radius_matches_formula() {
        assert!((dup_radius(4) - 0.5 / 8.0).abs() < 1e-12);
        assert!((alpha_for(4) - 1.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn near_duplicates_stay_within_radius() {
        let mut rng = StdRng::seed_from_u64(5);
        let x = Point::new(vec![3.0, -1.0, 2.0, 0.0, 1.0]);
        for _ in 0..200 {
            let y = near_duplicate(&x, &mut rng);
            assert!(x.distance(&y) < dup_radius(5) + 1e-12);
        }
    }

    #[test]
    fn uniform_dups_group_sizes_in_range() {
        let mut rng = StdRng::seed_from_u64(6);
        let b = base(40, 5, 1);
        let ds = uniform_dups("t", &b, 10, &mut rng);
        assert_eq!(ds.n_groups, 40);
        let mut sizes = vec![0usize; 40];
        for lp in &ds.points {
            sizes[lp.group] += 1;
        }
        // base point + 1..=10 duplicates
        assert!(sizes.iter().all(|&s| (2..=11).contains(&s)));
        assert_eq!(ds.len(), sizes.iter().sum::<usize>());
    }

    #[test]
    fn powerlaw_counts_follow_ceil_n_over_i() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 30;
        let b = base(n, 5, 2);
        let ds = powerlaw_dups("t", &b, &mut rng);
        let mut sizes = vec![0usize; n];
        for lp in &ds.points {
            sizes[lp.group] += 1;
        }
        let mut dup_counts: Vec<usize> = sizes.iter().map(|s| s - 1).collect();
        dup_counts.sort_unstable_by(|a, b| b.cmp(a));
        let mut expect: Vec<usize> = (1..=n)
            .map(|i| (n as f64 / i as f64).ceil() as usize)
            .collect();
        expect.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(dup_counts, expect);
    }

    #[test]
    fn groups_are_well_separated_at_alpha() {
        let mut rng = StdRng::seed_from_u64(8);
        let b = base(30, 5, 3);
        let ds = uniform_dups("t", &b, 5, &mut rng);
        // intra-group diameter <= alpha; inter-group distance > 2 alpha
        for i in 0..ds.points.len() {
            for j in (i + 1)..ds.points.len() {
                let d = ds.points[i].point.distance(&ds.points[j].point);
                if ds.points[i].group == ds.points[j].group {
                    assert!(d <= ds.alpha + 1e-9, "intra {d} > alpha {}", ds.alpha);
                } else {
                    assert!(d > 2.0 * ds.alpha, "inter {d} <= 2 alpha {}", ds.alpha);
                }
            }
        }
    }

    #[test]
    fn shuffle_preserves_multiset() {
        let mut rng = StdRng::seed_from_u64(9);
        let b = base(10, 3, 4);
        let mut ds = uniform_dups("t", &b, 3, &mut rng);
        let before = ds.len();
        let mut group_hist = vec![0usize; ds.n_groups];
        for lp in &ds.points {
            group_hist[lp.group] += 1;
        }
        ds.shuffle(&mut rng);
        assert_eq!(ds.len(), before);
        let mut after = vec![0usize; ds.n_groups];
        for lp in &ds.points {
            after[lp.group] += 1;
        }
        assert_eq!(group_hist, after);
    }

    #[test]
    fn stream_and_labels_align() {
        let mut rng = StdRng::seed_from_u64(10);
        let b = base(5, 3, 5);
        let ds = uniform_dups("t", &b, 2, &mut rng);
        let stream = ds.stream();
        let labels = ds.labels();
        assert_eq!(stream.len(), labels.len());
        for (i, item) in stream.iter().enumerate() {
            assert_eq!(item.stamp.seq, i as u64);
            assert_eq!(item.point, ds.points[i].point);
        }
    }
}
