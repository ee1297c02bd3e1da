//! The near-duplicate index behind the summary merges.
//!
//! Merging summaries ([`MergedSummary`](crate::MergedSummary),
//! [`WindowSummary`](crate::WindowSummary)) asks, for every incoming
//! record, which already-merged record holds a point within `alpha` of
//! the record's point, and of those the earliest. A linear `within` scan
//! answers that in `O(n)` per record, so a merge cost `O(n²)` in the live
//! groups and every publish of a sharded writer paid it. [`NearIndex`]
//! answers from a few buckets instead:
//!
//! * **Buckets.** A point's bucket is `floor(x_i / 2α)` over its first
//!   coordinate (dimension 1) or first two. Two points within `alpha`
//!   differ by at most `alpha` in every coordinate, so their buckets
//!   differ by at most one per axis: probing the 3 (or 3 × 3) buckets
//!   around a point reaches every match.
//! * **Table.** The buckets live in the candidate store's flat
//!   open-addressing table: entries `tag << 32 | id` under the mixed
//!   bucket key. A tag collision only costs a wasted comparison; the
//!   caller's `within` check stays authoritative.
//! * **First match.** Ids are the caller's, and a lookup reports the
//!   *smallest* id that matches. A caller that numbers records in its old
//!   scan order therefore gets exactly the record the linear scan found
//!   first.
//! * **Overflow.** A point whose bucket cannot be formed exactly (a
//!   coordinate with `|x / 2α| >= 2^52`; a dimension other than
//!   the configured one; an `alpha` whose square is not a normal float,
//!   so that `within` compares against an infinite, zero or imprecise
//!   threshold) goes to an overflow list that every lookup scans. A
//!   query point that cannot be bucketed is compared against every
//!   indexed id.
//! * **Fixed size.** The table is sized once for the caller's bound on
//!   insertions and never grows: each merge inserts at most once per
//!   input record or entry.
//!
//! Why `2^52`: below it a quotient's rounding error is at most a quarter,
//! so the computed quotients of two points within `alpha` differ by at
//! most one and their floors are neighbours, and every floor and its
//! neighbours are exact `i64`s. The bound is conservative: beyond it only
//! equal coordinates lie within `alpha` of each other.

use crate::store::{table_insert, table_probe, EMPTY_ENTRY};
use rds_geometry::Point;
use rds_hashing::splitmix64;

/// Quotients `x / 2α` at or beyond this magnitude are not bucketed.
const MAX_QUOTIENT: f64 = 4_503_599_627_370_496.0; // 2^52

/// A near-duplicate index over points of one dimension (see the module
/// docs). Ids are inserted, never removed: callers whose records die or
/// move re-insert under the new point and reject stale ids in their
/// `matches` predicate.
#[derive(Debug)]
pub(crate) struct NearIndex {
    dim: usize,
    /// Bucket width `2α`, or NaN when no point can be bucketed.
    width: f64,
    /// Fused `tag << 32 | id` table (linear probing, power-of-two
    /// capacity, load at most 1/2).
    table: Vec<u64>,
    /// Id of every tabled insertion, for queries that cannot be bucketed.
    ids: Vec<u32>,
    /// Ids of points that could not be bucketed.
    overflow: Vec<u32>,
}

impl NearIndex {
    /// An empty index for `dim`-dimensional points under threshold
    /// `alpha`, holding at most `n` insertions.
    pub(crate) fn with_capacity(dim: usize, alpha: f64, n: usize) -> Self {
        let width = if (alpha * alpha).is_normal() {
            2.0 * alpha
        } else {
            // `within` compares squared distances against `alpha²`: when
            // that overflows, every pair matches; when it underflows or
            // is subnormal, squared distances underflow with it and pairs
            // far beyond `alpha` match. No bucket span covers either.
            f64::NAN
        };
        Self {
            dim,
            width,
            table: vec![EMPTY_ENTRY; (n * 2).next_power_of_two().max(16)],
            ids: Vec::with_capacity(n),
            overflow: Vec::new(),
        }
    }

    /// The bucket of `p`'s first one or two coordinates, or `None` when
    /// it cannot be formed exactly.
    fn bucket(&self, p: &Point) -> Option<(i64, i64)> {
        if p.dim() != self.dim {
            return None;
        }
        let mut coords = p.coords().iter().map(|&x| floor_exact(x / self.width));
        let b0 = coords.next()??;
        let b1 = match coords.next() {
            Some(b) => b?,
            None => 0,
        };
        Some((b0, b1))
    }

    /// Indexes `p` under `id`; at most the `n` insertions the index was
    /// built for.
    pub(crate) fn insert(&mut self, p: &Point, id: u32) {
        let Some((b0, b1)) = self.bucket(p) else {
            self.overflow.push(id);
            return;
        };
        debug_assert!(
            (self.ids.len() + 1) * 2 <= self.table.len(),
            "more insertions than the index was built for"
        );
        table_insert(&mut self.table, bucket_key(b0, b1), id);
        self.ids.push(id);
    }

    /// Lowers `best` to the smallest candidate id that `matches` accepts.
    /// The candidates include every id inserted under a point within
    /// `alpha` of `p`, plus some others (neighbouring buckets, tag
    /// collisions, the overflow list), so `matches` must be the exact
    /// test. Ids not below `best` are skipped without calling it.
    pub(crate) fn first_match(
        &self,
        p: &Point,
        best: &mut Option<u32>,
        mut matches: impl FnMut(u32) -> bool,
    ) {
        let mut consider = |id: u32| {
            if best.is_none_or(|b| id < b) && matches(id) {
                *best = Some(id);
            }
        };
        match self.bucket(p) {
            Some((b0, b1)) => {
                let span1 = if self.dim > 1 { -1..=1 } else { 0..=0 };
                for d0 in -1..=1 {
                    for d1 in span1.clone() {
                        table_probe(&self.table, bucket_key(b0 + d0, b1 + d1), &mut consider);
                    }
                }
            }
            None => self.ids.iter().for_each(|&id| consider(id)),
        }
        self.overflow.iter().for_each(|&id| consider(id));
    }
}

/// `floor(q)` when it is exact and every point within `alpha` of `q`'s
/// point floors to a neighbour (see the module docs), else `None`.
#[inline]
fn floor_exact(q: f64) -> Option<i64> {
    // NaN fails the comparison too.
    (q.abs() < MAX_QUOTIENT).then(|| q.floor() as i64)
}

/// The table key of bucket `(b0, b1)`.
#[inline]
fn bucket_key(b0: i64, b1: i64) -> u64 {
    splitmix64((b0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b1 as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(coords: &[f64]) -> Point {
        Point::new(coords.to_vec())
    }

    /// The linear scan the index replaces: the smallest id whose point
    /// is within `alpha` of `p`.
    fn scan(points: &[Point], p: &Point, alpha: f64) -> Option<u32> {
        points
            .iter()
            .position(|q| q.within(p, alpha))
            .map(|i| i as u32)
    }

    fn indexed(points: &[Point], p: &Point, alpha: f64, dim: usize) -> Option<u32> {
        let mut index = NearIndex::with_capacity(dim, alpha, points.len());
        for (i, q) in points.iter().enumerate() {
            index.insert(q, i as u32);
        }
        let mut best = None;
        index.first_match(p, &mut best, |id| points[id as usize].within(p, alpha));
        best
    }

    #[test]
    fn finds_the_earliest_match_across_bucket_edges() {
        let alpha = 0.5;
        // Bucket edges sit at multiples of 2α = 1.0.
        let points: Vec<Point> = [0.999, 1.0, 1.2, 3.0, 2.6]
            .iter()
            .map(|&x| pt(&[x, x]))
            .collect();
        for probe in [1.0, 1.1, 0.6, 2.7, 2.9, 5.0, -0.4] {
            let p = pt(&[probe, probe]);
            assert_eq!(
                indexed(&points, &p, alpha, 2),
                scan(&points, &p, alpha),
                "{probe}"
            );
        }
    }

    #[test]
    fn one_ulp_either_side_of_an_edge_is_found() {
        let alpha = 0.5;
        let edge: f64 = 4.0;
        let below = f64::from_bits(edge.to_bits() - 1);
        let above = f64::from_bits(edge.to_bits() + 1);
        let points = vec![pt(&[below]), pt(&[above])];
        for probe in [edge - alpha, below - alpha, edge + alpha, above + alpha] {
            let p = pt(&[probe]);
            assert_eq!(
                indexed(&points, &p, alpha, 1),
                scan(&points, &p, alpha),
                "{probe}"
            );
        }
    }

    #[test]
    fn unbucketable_points_go_through_the_overflow_list() {
        let alpha = 0.5;
        let huge = 1e17;
        let points = [
            pt(&[huge, 0.0]),
            pt(&[0.0, 0.0]),
            pt(&[1.0, -1e300]),
            pt(&[0.1, 0.0, 0.0]),
        ];
        let index = {
            let mut index = NearIndex::with_capacity(2, alpha, 4);
            for (i, q) in points.iter().enumerate() {
                index.insert(q, i as u32);
            }
            index
        };
        assert_eq!(index.overflow, vec![0, 2, 3]);
        // `within` is only defined between equal dimensions.
        let near = |q: &Point, p: &Point| q.dim() == p.dim() && q.within(p, alpha);
        for p in [
            pt(&[huge + 16.0, 0.0]),
            pt(&[0.2, 0.0]),
            pt(&[1.0, -1e300]),
            pt(&[0.0, 0.1, 0.0]),
        ] {
            let mut best = None;
            index.first_match(&p, &mut best, |id| near(&points[id as usize], &p));
            let scanned = points.iter().position(|q| near(q, &p)).map(|i| i as u32);
            assert_eq!(best, scanned, "{p:?}");
        }
    }

    #[test]
    fn an_infinite_threshold_square_buckets_nothing() {
        let alpha = 1e200;
        let points = vec![pt(&[0.0]), pt(&[1e300])];
        let p = pt(&[-1e300]);
        assert_eq!(indexed(&points, &p, alpha, 1), scan(&points, &p, alpha));
    }

    #[test]
    fn an_underflowing_threshold_square_buckets_nothing() {
        // alpha² and the squared distance both round to zero, so `within`
        // matches points 10^5 · alpha apart, 5 · 10^4 buckets away.
        let alpha = 1e-170;
        let points = vec![pt(&[1e-165])];
        let p = pt(&[0.0]);
        assert_eq!(scan(&points, &p, alpha), Some(0));
        assert_eq!(indexed(&points, &p, alpha, 1), Some(0));
    }
}
