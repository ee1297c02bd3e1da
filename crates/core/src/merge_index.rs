//! The near-duplicate index behind Algorithm 1's duplicate check and
//! the summary merges.
//!
//! Both ask, for a point `p`, which stored record holds a point within
//! `alpha` of `p`, and of those the earliest: the sampler's arrival loop
//! for every stream point ([`CandidateStore`](crate::CandidateStore)),
//! the summary merges ([`MergedSummary`](crate::MergedSummary),
//! [`WindowSummary`](crate::WindowSummary)) for every incoming record. A
//! linear `within` scan answers that in `O(n)` per point; [`NearIndex`]
//! answers from a few buckets instead:
//!
//! * **Buckets.** A point's bucket is `floor(x_i / 2α)` over its first
//!   coordinate (dimension 1) or first two. Two points within `alpha`
//!   differ by at most `alpha` in every coordinate, so their quotients
//!   `x_i / 2α` differ by at most one half: a match lies in the point's
//!   own bucket or in the neighbour on the side of the bucket's midpoint
//!   the point is on. A lookup probes those 2 (or 2 × 2) buckets, and
//!   both neighbours of an axis when the point is within rounding slack
//!   of that midpoint: 3 (or 3 × 3) at worst.
//! * **Table.** The buckets live in a flat open-addressing table: entries
//!   `tag << 32 | id` under the mixed bucket key. A tag collision only
//!   costs a wasted comparison; the caller's `within` check stays
//!   authoritative.
//! * **First match.** Ids are the caller's, and the caller picks the
//!   earliest candidate: [`NearIndex::first_match`] reports the
//!   *smallest* matching id, so a caller that numbers records in its old
//!   scan order gets exactly the record the linear scan found first.
//! * **Overflow.** A point whose bucket cannot be formed exactly (a
//!   coordinate with `|x / 2α| >= 2^52`; a dimension other than
//!   the configured one; an `alpha` whose square is not a normal float,
//!   so that `within` compares against an infinite, zero or imprecise
//!   threshold) goes to an overflow list that every lookup scans. A
//!   query point that cannot be bucketed has no candidate set: the
//!   caller compares it against every record.
//! * **Fixed size.** The table is sized once for the caller's bound on
//!   insertions and never grows: each merge inserts at most once per
//!   input record or entry, and the candidate store rebuilds a larger
//!   index when [`NearIndex::is_full`].
//!
//! Why `2^52`: below it a quotient's rounding error is at most a quarter,
//! so the computed quotients of two points within `alpha` differ by at
//! most one and their floors are neighbours, and every floor and its
//! neighbours are exact `i64`s. The bound is conservative: beyond it only
//! equal coordinates lie within `alpha` of each other.
//!
//! Why the midpoint slack is `(|q| + 4) · 2^-52` for a point with quotient
//! `q`: `within` accepts a coordinate difference of at most
//! `alpha · (1 + 2^-52)` (its squared sum bounds each term, rounding
//! included), so true quotients differ by at most `1/2 + 2^-53`; each
//! computed quotient is off by at most `|q| · 2^-53` (the match's `|q| + 1`
//! at most), and the offset from the floor by `2^-53`. Together that is
//! below `(|q| + 2) · 2^-52`. Where the slack reaches a half (`|q|` near
//! `2^51`), both neighbours are always probed and the quarter bound
//! above applies.

use rds_geometry::Point;
use rds_hashing::splitmix64;
use std::ops::RangeInclusive;

/// Quotients `x / 2α` at or beyond this magnitude are not bucketed.
const MAX_QUOTIENT: f64 = 4_503_599_627_370_496.0; // 2^52

/// The id half of a free table entry.
const EMPTY: u32 = u32::MAX;
/// A free table entry.
const EMPTY_ENTRY: u64 = u64::MAX;

/// Linear-probing insert of `tag << 32 | id` into the fused table
/// (`table.len()` a power of two, never full).
#[inline]
fn table_insert(table: &mut [u64], key: u64, id: u32) {
    let m = table.len() - 1;
    let mut idx = (key as usize) & m;
    while table[idx & m] as u32 != EMPTY {
        idx += 1;
    }
    table[idx & m] = (key >> 32) << 32 | u64::from(id);
}

/// Calls `visit` with the id of every entry of the fused table whose
/// tag matches `key`'s: every id inserted under `key`, plus the rare id
/// of another key sharing its high 32 bits (`table.len()` a power of
/// two, never full).
#[inline]
fn table_probe(table: &[u64], key: u64, mut visit: impl FnMut(u32)) {
    // Indexing with `i & (len - 1)` is provably in bounds, so the probe
    // loop compiles without bounds checks.
    let m = table.len() - 1;
    let tag = key >> 32;
    let mut idx = (key as usize) & m;
    loop {
        let entry = table[idx & m];
        let id = entry as u32;
        if id == EMPTY {
            return;
        }
        if (entry >> 32) == tag {
            visit(id);
        }
        idx += 1;
    }
}

/// A near-duplicate index over points of one dimension (see the module
/// docs). Ids are inserted, never removed: callers whose records die or
/// move re-insert under the new point and reject stale ids in their
/// `matches` predicate, or rebuild the index.
#[derive(Clone, Debug)]
pub(crate) struct NearIndex {
    dim: usize,
    alpha: f64,
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
    /// `alpha`, holding at most `n` tabled insertions.
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
            alpha,
            width,
            table: vec![EMPTY_ENTRY; (n * 2).next_power_of_two().max(16)],
            ids: Vec::with_capacity(n),
            overflow: Vec::new(),
        }
    }

    /// The threshold the index was built for.
    pub(crate) fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Whether one more tabled insertion would exceed the capacity the
    /// index was built for.
    pub(crate) fn is_full(&self) -> bool {
        !self.has_room(1)
    }

    /// Whether `n` more tabled insertions fit the capacity the index was
    /// built for.
    pub(crate) fn has_room(&self, n: usize) -> bool {
        (self.ids.len() + n) * 2 <= self.table.len()
    }

    /// The quotients `x / 2α` of `p`'s first one or two coordinates (the
    /// second 0 in dimension 1), or `None` when they cannot be bucketed
    /// exactly.
    #[inline]
    fn quotients(&self, p: &Point) -> Option<(f64, f64)> {
        if p.dim() != self.dim {
            return None;
        }
        let mut coords = p.coords().iter().map(|&x| x / self.width);
        let q0 = coords.next()?;
        let q1 = coords.next().unwrap_or(0.0);
        // NaN fails the comparison too.
        (q0.abs() < MAX_QUOTIENT && q1.abs() < MAX_QUOTIENT).then_some((q0, q1))
    }

    /// The bucket of `p`'s first one or two coordinates, or `None` when
    /// it cannot be formed exactly.
    #[inline]
    fn bucket(&self, p: &Point) -> Option<(i64, i64)> {
        let (q0, q1) = self.quotients(p)?;
        Some((q0.floor() as i64, q1.floor() as i64))
    }

    /// Indexes `p` under `id`; at most the `n` tabled insertions the
    /// index was built for.
    pub(crate) fn insert(&mut self, p: &Point, id: u32) {
        let Some((b0, b1)) = self.bucket(p) else {
            self.overflow.push(id);
            return;
        };
        debug_assert!(
            !self.is_full(),
            "more insertions than the index was built for"
        );
        table_insert(&mut self.table, bucket_key(b0, b1), id);
        self.ids.push(id);
    }

    /// Calls `visit` with every candidate id for `p`: every id inserted
    /// under a point within `alpha` of `p`, plus some others (the probed
    /// buckets' other points, tag collisions, the overflow list), so the
    /// caller must run the exact test. Returns `false`, visiting nothing,
    /// when `p` cannot be bucketed.
    #[inline]
    pub(crate) fn for_each_candidate(&self, p: &Point, mut visit: impl FnMut(u32)) -> bool {
        let Some((q0, q1)) = self.quotients(p) else {
            return false;
        };
        let (b0, span0) = reach(q0);
        let (b1, span1) = if self.dim > 1 { reach(q1) } else { (0, 0..=0) };
        for d0 in span0 {
            for d1 in span1.clone() {
                table_probe(&self.table, bucket_key(b0 + d0, b1 + d1), &mut visit);
            }
        }
        self.overflow.iter().for_each(|&id| visit(id));
        true
    }

    /// Calls `visit` with the candidates of
    /// [`NearIndex::for_each_candidate`], or with every inserted id when
    /// `p` cannot be bucketed: a superset of the ids within `alpha` of
    /// `p`, so the caller must run the exact test.
    pub(crate) fn for_each_near(&self, p: &Point, mut visit: impl FnMut(u32)) {
        if !self.for_each_candidate(p, &mut visit) {
            self.ids
                .iter()
                .chain(&self.overflow)
                .for_each(|&id| visit(id));
        }
    }

    /// Lowers `best` to the smallest candidate id that `matches` accepts.
    /// The candidates are those of [`NearIndex::for_each_near`], so
    /// `matches` must be the exact test. Ids not below `best` are skipped
    /// without calling it.
    pub(crate) fn first_match(
        &self,
        p: &Point,
        best: &mut Option<u32>,
        mut matches: impl FnMut(u32) -> bool,
    ) {
        self.for_each_near(p, |id| {
            if best.is_none_or(|b| id < b) && matches(id) {
                *best = Some(id);
            }
        });
    }
}

/// The bucket `floor(q)` of a bucketable quotient `q`, and the offsets
/// from it of every bucket a point within `alpha` can fall in along this
/// axis: the neighbour on the side of the midpoint `q` lies on, or both
/// when `q` is within rounding slack of the midpoint (see the module
/// docs).
#[inline]
fn reach(q: f64) -> (i64, RangeInclusive<i64>) {
    let b = q.floor();
    let f = q - b;
    let slack = (q.abs() + 4.0) * f64::EPSILON;
    let lo = if f < 0.5 + slack { -1 } else { 0 };
    let hi = if f > 0.5 - slack { 1 } else { 0 };
    (b as i64, lo..=hi)
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
    fn matches_alpha_away_from_a_bucket_midpoint_are_found() {
        // A point in the lower half of its bucket probes only the lower
        // neighbour; at (or within rounding of) the midpoint it must probe
        // both. Put query points on and one ulp around midpoints, at
        // small and large quotients, with matches exactly `alpha` away on
        // either side.
        for alpha in [0.5, 0.3, 1e-3] {
            let width = 2.0 * alpha;
            for k in [0.0, 7.0, -3.0, 1e6, 2f64.powi(40), -2f64.powi(45)] {
                let mid = (k + 0.5) * width;
                for x in [
                    mid,
                    mid.next_up(),
                    mid.next_down(),
                    mid.next_up().next_up(),
                    mid.next_down().next_down(),
                ] {
                    // Matches differ from the query in one coordinate.
                    let near = [
                        x - alpha,
                        x + alpha,
                        (x + alpha).next_up(),
                        (x - alpha).next_down(),
                    ];
                    let points: Vec<Point> = near
                        .iter()
                        .flat_map(|&y| [pt(&[y, -x]), pt(&[x, -y])])
                        .collect();
                    for i in 0..points.len() {
                        let q = &points[i..];
                        let p = pt(&[x, -x]);
                        assert_eq!(
                            indexed(q, &p, alpha, 2),
                            scan(q, &p, alpha),
                            "alpha {alpha} x {x}"
                        );
                    }
                }
            }
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
