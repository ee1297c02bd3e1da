//! Points in `R^d` and the distance kernels used throughout the library.
//!
//! The paper (Chen & Zhang, PODS 2018) models noisy data items as points in
//! Euclidean space; two points belong to the same *group* (i.e. are
//! near-duplicates of the same entity) when their distance is at most the
//! user-chosen threshold `alpha`.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A point in `d`-dimensional Euclidean space.
///
/// Coordinates are immutable and held in a shared `Arc<[f64]>`, so a
/// `Point` is two words on the stack and cloning it bumps a reference
/// count instead of copying the coordinates. A sampler's records, the
/// summaries it publishes and the answers a reader gets all share one
/// buffer per point.
///
/// # Examples
///
/// ```
/// use rds_geometry::Point;
///
/// let p = Point::new(vec![0.0, 3.0]);
/// let q = Point::new(vec![4.0, 0.0]);
/// assert_eq!(p.distance(&q), 5.0);
/// assert_eq!(p.dim(), 2);
/// ```
#[derive(PartialEq, Serialize)]
pub struct Point {
    coords: Arc<[f64]>,
}

impl Clone for Point {
    #[inline]
    fn clone(&self) -> Self {
        Self {
            coords: Arc::clone(&self.coords),
        }
    }

    /// Shares `source`'s coordinates, writing no reference count when
    /// `self` already shares them.
    #[inline]
    fn clone_from(&mut self, source: &Self) {
        if !self.shares_coords(source) {
            self.coords = Arc::clone(&source.coords);
        }
    }
}

// Deserialization is manual (same wire shape as the derive would emit) so
// the constructor invariants hold for points read back from disk too: a
// snapshot or checkpoint file edited to contain an empty or non-finite
// point must surface as a deserialization error, not as a `Point` that
// violates the grid arithmetic's assumptions downstream.
impl Deserialize for Point {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let coords = Vec::<f64>::from_value(value.get("coords").unwrap_or(&serde::Value::Null))
            .map_err(|e| serde::DeError::custom(format!("field `coords`: {e}")))?;
        Self::try_from_slice(&coords).map_err(serde::DeError::custom)
    }
}

impl Point {
    /// Creates a point from its coordinate vector.
    ///
    /// # Panics
    ///
    /// Panics if `coords` is empty or contains a non-finite coordinate;
    /// the grid arithmetic in this crate requires finite coordinates.
    pub fn new(coords: Vec<f64>) -> Self {
        Self::from_slice(&coords)
    }

    /// Creates a point by copying `coords` into one new allocation.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Point::new`].
    pub fn from_slice(coords: &[f64]) -> Self {
        Self::try_from_slice(coords).unwrap_or_else(|msg| panic!("{msg}"))
    }

    /// [`Point::from_slice`] for untrusted input: an empty or non-finite
    /// `coords` is an error naming the broken invariant, not a panic.
    ///
    /// # Errors
    ///
    /// Returns a message if `coords` is empty or holds a non-finite
    /// coordinate.
    pub fn try_from_slice(coords: &[f64]) -> Result<Self, &'static str> {
        if coords.is_empty() {
            return Err("a point must have at least 1 dimension");
        }
        if !coords.iter().all(|c| c.is_finite()) {
            return Err("point coordinates must be finite");
        }
        Ok(Self {
            coords: Arc::from(coords),
        })
    }

    /// Creates the origin of `R^dim`.
    pub fn origin(dim: usize) -> Self {
        Self::new(vec![0.0; dim])
    }

    /// Dimension of the ambient space.
    #[inline]
    pub fn dim(&self) -> usize {
        self.coords.len()
    }

    /// Coordinate slice.
    #[inline]
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// Whether both points share one coordinate buffer (one is a clone
    /// of the other), not merely equal coordinates.
    #[inline]
    pub fn shares_coords(&self, other: &Point) -> bool {
        Arc::ptr_eq(&self.coords, &other.coords)
    }

    /// The `i`-th coordinate.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.dim()`.
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        self.coords[i]
    }

    /// Squared Euclidean distance to `other`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the dimensions differ.
    #[inline]
    pub fn distance_sq(&self, other: &Point) -> f64 {
        debug_assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        self.coords
            .iter()
            .zip(other.coords.iter())
            .map(|(a, b)| {
                let d = a - b;
                d * d
            })
            .sum()
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(&self, other: &Point) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Returns `true` when `d(self, other) <= alpha`.
    ///
    /// Exits early as soon as the partial squared sum exceeds `alpha^2`,
    /// which makes the (hot) candidate-group membership test of
    /// Algorithms 1 and 2 cheap in high dimension for far-apart points.
    #[inline]
    pub fn within(&self, other: &Point, alpha: f64) -> bool {
        debug_assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        let limit = alpha * alpha;
        let mut acc = 0.0;
        for (a, b) in self.coords.iter().zip(other.coords.iter()) {
            let d = a - b;
            acc += d * d;
            if acc > limit {
                return false;
            }
        }
        true
    }

    /// Euclidean norm of the point seen as a vector.
    #[inline]
    pub fn norm(&self) -> f64 {
        self.coords.iter().map(|c| c * c).sum::<f64>().sqrt()
    }

    /// Coordinate-wise sum with `other`.
    pub fn add(&self, other: &Point) -> Point {
        debug_assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        Point::new(
            self.coords
                .iter()
                .zip(other.coords.iter())
                .map(|(a, b)| a + b)
                .collect(),
        )
    }

    /// The point scaled by `s`.
    pub fn scale(&self, s: f64) -> Point {
        Point::new(self.coords.iter().map(|c| c * s).collect())
    }

    /// Number of machine words needed to store the coordinates; used by the
    /// space-accounting harness that reproduces the paper's `pSpace` metric.
    #[inline]
    pub fn words(&self) -> usize {
        self.coords.len()
    }
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Point{:?}", self.coords)
    }
}

impl From<Vec<f64>> for Point {
    fn from(coords: Vec<f64>) -> Self {
        Point::new(coords)
    }
}

impl AsRef<[f64]> for Point {
    fn as_ref(&self) -> &[f64] {
        &self.coords
    }
}

/// A closed ball `Ball(center, radius) = { q : d(center, q) <= radius }`.
///
/// Definition 1.6 of the paper phrases the sampling guarantee for general
/// datasets in terms of `Ball(p, alpha) ∩ S`.
#[derive(Clone, Debug)]
pub struct Ball {
    center: Point,
    radius: f64,
}

impl Ball {
    /// Creates the closed ball with the given center and radius.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is negative or not finite.
    pub fn new(center: Point, radius: f64) -> Self {
        assert!(radius.is_finite() && radius >= 0.0, "invalid ball radius");
        Self { center, radius }
    }

    /// The ball's center.
    pub fn center(&self) -> &Point {
        &self.center
    }

    /// The ball's radius.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Whether `q` lies in the closed ball.
    #[inline]
    pub fn contains(&self, q: &Point) -> bool {
        self.center.within(q, self.radius)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_matches_hand_computation() {
        let p = Point::new(vec![1.0, 2.0, 2.0]);
        let q = Point::new(vec![1.0, 0.0, 0.0]);
        assert_eq!(p.distance_sq(&q), 8.0);
        assert!((p.distance(&q) - 8.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let p = Point::new(vec![0.5, -3.25, 7.0]);
        assert_eq!(p.distance_sq(&p), 0.0);
        assert!(p.within(&p, 0.0));
    }

    #[test]
    fn within_is_inclusive_at_the_threshold() {
        let p = Point::new(vec![0.0]);
        let q = Point::new(vec![2.0]);
        assert!(p.within(&q, 2.0));
        assert!(!p.within(&q, 1.999_999));
    }

    #[test]
    fn within_early_exit_agrees_with_full_distance() {
        let p = Point::new(vec![10.0, 0.0, 0.0, 0.0]);
        let q = Point::new(vec![0.0, 0.0, 0.0, 0.0]);
        // first coordinate alone exceeds the threshold
        assert!(!p.within(&q, 9.0));
        assert!(p.within(&q, 10.0));
    }

    #[test]
    fn add_and_scale() {
        let p = Point::new(vec![1.0, 2.0]);
        let q = Point::new(vec![-1.0, 0.5]);
        assert_eq!(p.add(&q), Point::new(vec![0.0, 2.5]));
        assert_eq!(p.scale(2.0), Point::new(vec![2.0, 4.0]));
    }

    #[test]
    fn norm_of_unit_vectors() {
        assert_eq!(Point::new(vec![1.0, 0.0]).norm(), 1.0);
        assert!((Point::new(vec![3.0, 4.0]).norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn ball_contains_boundary() {
        let b = Ball::new(Point::new(vec![0.0, 0.0]), 1.0);
        assert!(b.contains(&Point::new(vec![1.0, 0.0])));
        assert!(!b.contains(&Point::new(vec![1.0, 0.1])));
        assert_eq!(b.radius(), 1.0);
        assert_eq!(b.center(), &Point::new(vec![0.0, 0.0]));
    }

    #[test]
    #[should_panic(expected = "at least 1 dimension")]
    fn empty_point_panics() {
        let _ = Point::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_coordinate_panics() {
        let _ = Point::new(vec![f64::NAN]);
    }

    #[test]
    fn clone_shares_the_coordinates() {
        let p = Point::new(vec![1.0, 2.0, 3.0]);
        let q = p.clone();
        assert_eq!(p, q);
        assert_eq!(p.coords().as_ptr(), q.coords().as_ptr());
        assert!(p.shares_coords(&q));
        let equal = Point::new(vec![1.0, 2.0, 3.0]);
        assert!(!p.shares_coords(&equal), "equal coordinates, two buffers");
        let mut r = equal.clone();
        r.clone_from(&p);
        assert!(r.shares_coords(&p));
    }

    #[test]
    fn slice_constructors_check_like_new() {
        assert_eq!(Point::from_slice(&[1.0, -2.0]), Point::new(vec![1.0, -2.0]));
        assert_eq!(
            Point::try_from_slice(&[]),
            Err("a point must have at least 1 dimension")
        );
        assert_eq!(
            Point::try_from_slice(&[0.0, f64::INFINITY]),
            Err("point coordinates must be finite")
        );
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn from_slice_panics_on_a_non_finite_coordinate() {
        let _ = Point::from_slice(&[1.0, f64::NAN]);
    }

    #[test]
    fn words_counts_coordinates() {
        assert_eq!(Point::origin(7).words(), 7);
    }
}
