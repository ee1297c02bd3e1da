//! Computing `adj(p) = { C in G : d(p, C) <= alpha }`.
//!
//! Section 6.2 of the paper describes a depth-first enumeration with
//! distance pruning (Algorithms 6 and 7, `SearchAdj`): along each dimension
//! the nearest point of an adjacent cell is reached by moving the coordinate
//! to `floor(x_i)`, to `ceil(x_i)`, or not at all; the search prunes as soon
//! as the accumulated squared movement exceeds `alpha^2`.
//!
//! The DFS visits only the `3^d` lattice neighbourhood of `cell(p)`, which
//! covers all of `adj(p)` **iff the grid side length is at least `alpha`**.
//! For smaller sides (e.g. the `alpha/2` side used by the 2-D theory in
//! Section 2.1) use [`adjacent_cells_bfs`], a reference implementation that
//! is correct for every side length.

use crate::{Grid, Point};
use std::collections::{HashSet, VecDeque};

/// Visits every cell `C` with `d(p, C) <= alpha` in the `3^d` neighbourhood
/// of `cell(p)`, calling `visit` with the cell's coordinates.
///
/// Returns `true` if `visit` returned `true` for some cell, in which case
/// the enumeration stops early. This early exit is what makes the
/// "is some adjacent cell sampled?" test of Algorithms 1 and 2 cheap: the
/// caller's predicate typically hashes the cell and checks the sample bit.
///
/// This is Algorithms 6 and 7 of the paper implemented on integer cell
/// coordinates (so no boundary nudging is needed: moving to `floor` selects
/// the lower neighbouring cell index, moving to `ceil` the upper one).
///
/// # Panics
///
/// Panics if `grid.side() < alpha` (the 3^d neighbourhood would then not
/// cover `adj(p)`); use [`adjacent_cells_bfs`] in that regime.
pub fn for_each_adjacent_cell<F>(grid: &Grid, p: &Point, alpha: f64, mut visit: F) -> bool
where
    F: FnMut(&[i64]) -> bool,
{
    assert!(
        grid.side() >= alpha,
        "SearchAdj DFS requires side >= alpha (side={}, alpha={}); use adjacent_cells_bfs",
        grid.side(),
        alpha
    );
    let dim = grid.dim();
    debug_assert_eq!(p.dim(), dim, "dimension mismatch");
    let mut cell = vec![0i64; dim];
    let mut state = SearchState {
        grid,
        p,
        limit_sq: alpha * alpha,
        cell: &mut cell,
        visit: &mut visit,
    };
    search(&mut state, 0, 0.0)
}

struct SearchState<'a, F> {
    grid: &'a Grid,
    p: &'a Point,
    limit_sq: f64,
    cell: &'a mut [i64],
    visit: &'a mut F,
}

fn search<F>(st: &mut SearchState<'_, F>, depth: usize, acc_sq: f64) -> bool
where
    F: FnMut(&[i64]) -> bool,
{
    // Prune: the movement so far already exceeds alpha.
    if acc_sq > st.limit_sq {
        return false;
    }
    if depth == st.grid.dim() {
        return (st.visit)(st.cell);
    }
    let g = st.grid.grid_coord(st.p, depth);
    let base = g.floor() as i64;
    let side = st.grid.side();
    let down = (g - g.floor()) * side; // cost of moving to the lower boundary
    let up = (g.floor() + 1.0 - g) * side; // cost of moving to the upper boundary

    // Stay in the current cell along this dimension: zero cost.
    st.cell[depth] = base;
    if search(st, depth + 1, acc_sq) {
        return true;
    }
    // Move to the lower neighbour.
    st.cell[depth] = base.wrapping_sub(1);
    if search(st, depth + 1, acc_sq + down * down) {
        return true;
    }
    // Move to the upper neighbour.
    st.cell[depth] = base.wrapping_add(1);
    if search(st, depth + 1, acc_sq + up * up) {
        return true;
    }
    false
}

/// Like [`for_each_adjacent_cell`], but threads a caller-defined fold value
/// down the DFS: entering depth `i` with carry `acc` and choosing cell
/// coordinate `c_i` continues with `step(acc, c_i)`, and `visit` receives
/// the fully folded value alongside the cell coordinates.
///
/// When `step` is a per-coordinate hash fold (e.g. a seeded SplitMix64
/// avalanche), the fold value at a leaf *is* the cell's key, and prefixes
/// are shared along the DFS tree — visiting `k` cells costs `O(k)` fold
/// steps instead of `O(k · d)` from re-keying each cell from scratch. The
/// enumeration order, pruning, and early-exit contract are exactly those of
/// [`for_each_adjacent_cell`]; the first visited cell is always `cell(p)`.
///
/// # Panics
///
/// Panics if `grid.side() < alpha`, as in [`for_each_adjacent_cell`].
pub fn for_each_adjacent_cell_fold<S, F>(
    grid: &Grid,
    p: &Point,
    alpha: f64,
    init: u64,
    step: S,
    visit: F,
) -> bool
where
    S: FnMut(u64, i64) -> u64,
    F: FnMut(&[i64], u64) -> bool,
{
    let mut scratch = AdjacencyScratch::new();
    for_each_adjacent_cell_fold_with(grid, p, alpha, init, step, visit, &mut scratch)
}

/// Reusable buffers for [`for_each_adjacent_cell_fold_with`]: the DFS cell
/// coordinates and the per-dimension `(base, down, up)` bounds, sized on
/// first use. Holding one of these on the sampler keeps the per-point
/// arrival path free of heap allocation.
#[derive(Clone, Debug, Default)]
pub struct AdjacencyScratch {
    cell: Vec<i64>,
    dims: Vec<(i64, f64, f64)>,
}

impl AdjacencyScratch {
    /// Empty scratch; buffers grow to the grid dimension on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// [`for_each_adjacent_cell_fold`] with caller-owned scratch buffers: no
/// allocation per call, and the per-dimension grid coordinate and boundary
/// costs are computed once per point instead of once per DFS node re-entry.
/// Enumeration order, pruning, folded keys, and the early-exit contract are
/// exactly those of [`for_each_adjacent_cell_fold`].
///
/// # Panics
///
/// Panics if `grid.side() < alpha`, as in [`for_each_adjacent_cell`].
pub fn for_each_adjacent_cell_fold_with<S, F>(
    grid: &Grid,
    p: &Point,
    alpha: f64,
    init: u64,
    mut step: S,
    mut visit: F,
    scratch: &mut AdjacencyScratch,
) -> bool
where
    S: FnMut(u64, i64) -> u64,
    F: FnMut(&[i64], u64) -> bool,
{
    assert!(
        grid.side() >= alpha,
        "SearchAdj DFS requires side >= alpha (side={}, alpha={}); use adjacent_cells_bfs",
        grid.side(),
        alpha
    );
    let dim = grid.dim();
    debug_assert_eq!(p.dim(), dim, "dimension mismatch");
    scratch.cell.clear();
    scratch.cell.resize(dim, 0);
    scratch.dims.clear();
    let side = grid.side();
    for depth in 0..dim {
        // The exact node expressions of the recursive formulation, hoisted:
        // every re-entry of a depth recomputed the same three values.
        let g = grid.grid_coord(p, depth);
        let base = g.floor() as i64;
        let down = (g - g.floor()) * side;
        let up = (g.floor() + 1.0 - g) * side;
        scratch.dims.push((base, down, up));
    }
    let limit_sq = alpha * alpha;
    if dim == 2 {
        // The planar case (the common deployment regime), with the DFS
        // unrolled into two nested branch loops. Same branch order
        // (stay, lower, upper), same pruning comparisons on the same
        // accumulated costs, same fold calls at the same tree positions
        // — only the recursion frames are gone. Pruned subtrees skip
        // their fold step; the step is pure, so that is unobservable.
        let (b0, d0, u0) = scratch.dims[0];
        let (b1, d1, u1) = scratch.dims[1];
        let cell = &mut scratch.cell[..2];
        // Neighbour indices wrap (here and in the recursive searches):
        // a coordinate whose cell index saturated at the `i64` range has
        // no true neighbour, and debug builds must not panic on it.
        for (c0, cost0) in [
            (b0, 0.0),
            (b0.wrapping_sub(1), d0 * d0),
            (b0.wrapping_add(1), u0 * u0),
        ] {
            if cost0 > limit_sq {
                continue;
            }
            cell[0] = c0;
            let f0 = step(init, c0);
            for (c1, cost1) in [
                (b1, 0.0),
                (b1.wrapping_sub(1), d1 * d1),
                (b1.wrapping_add(1), u1 * u1),
            ] {
                if cost0 + cost1 > limit_sq {
                    continue;
                }
                cell[1] = c1;
                if visit(cell, step(f0, c1)) {
                    return true;
                }
            }
        }
        return false;
    }
    let mut state = FoldSearchState {
        dim,
        limit_sq,
        dims: &scratch.dims,
        cell: &mut scratch.cell,
        step: &mut step,
        visit: &mut visit,
    };
    search_fold(&mut state, 0, 0.0, init)
}

struct FoldSearchState<'a, S, F> {
    dim: usize,
    limit_sq: f64,
    dims: &'a [(i64, f64, f64)],
    cell: &'a mut [i64],
    step: &'a mut S,
    visit: &'a mut F,
}

fn search_fold<S, F>(
    st: &mut FoldSearchState<'_, S, F>,
    depth: usize,
    acc_sq: f64,
    acc: u64,
) -> bool
where
    S: FnMut(u64, i64) -> u64,
    F: FnMut(&[i64], u64) -> bool,
{
    if acc_sq > st.limit_sq {
        return false;
    }
    if depth == st.dim {
        return (st.visit)(st.cell, acc);
    }
    let (base, down, up) = st.dims[depth];

    st.cell[depth] = base;
    let folded = (st.step)(acc, base);
    if search_fold(st, depth + 1, acc_sq, folded) {
        return true;
    }
    st.cell[depth] = base.wrapping_sub(1);
    let folded = (st.step)(acc, base.wrapping_sub(1));
    if search_fold(st, depth + 1, acc_sq + down * down, folded) {
        return true;
    }
    st.cell[depth] = base.wrapping_add(1);
    let folded = (st.step)(acc, base.wrapping_add(1));
    if search_fold(st, depth + 1, acc_sq + up * up, folded) {
        return true;
    }
    false
}

/// Collects `adj(p)` using the pruned DFS ([`for_each_adjacent_cell`]).
///
/// The cell containing `p` itself is always part of the result (it is at
/// distance zero).
pub fn adjacent_cells(grid: &Grid, p: &Point, alpha: f64) -> Vec<Box<[i64]>> {
    let mut cells = Vec::new();
    for_each_adjacent_cell(grid, p, alpha, |c| {
        cells.push(c.to_vec().into_boxed_slice());
        false
    });
    cells
}

/// Reference implementation of `adj(p)` that is correct for **any** grid
/// side length: a breadth-first flood fill over lattice cells starting at
/// `cell(p)`, keeping cells with `d(p, C) <= alpha`.
///
/// The kept region is axis-convex around `cell(p)` (per-dimension distance
/// contributions decrease monotonically toward the base cell), so expanding
/// only through kept cells via the `2d` axis neighbours reaches all of
/// `adj(p)`.
///
/// This is `O(|adj(p)| * d)` but with hashing overhead; it exists as the
/// oracle for property tests and for the small-side theory configuration.
pub fn adjacent_cells_bfs(grid: &Grid, p: &Point, alpha: f64) -> Vec<Box<[i64]>> {
    let dim = grid.dim();
    debug_assert_eq!(p.dim(), dim, "dimension mismatch");
    let limit_sq = alpha * alpha;
    let start: Vec<i64> = (0..dim)
        .map(|i| grid.grid_coord(p, i).floor() as i64)
        .collect();
    let mut seen: HashSet<Vec<i64>> = HashSet::new();
    let mut queue: VecDeque<Vec<i64>> = VecDeque::new();
    let mut out = Vec::new();
    seen.insert(start.clone());
    queue.push_back(start);
    while let Some(cell) = queue.pop_front() {
        if grid.dist_sq_point_cell(p, &cell) > limit_sq {
            continue;
        }
        out.push(cell.clone().into_boxed_slice());
        for i in 0..dim {
            for delta in [-1i64, 1] {
                let mut next = cell.clone();
                next[i] += delta;
                if !seen.contains(&next) {
                    seen.insert(next.clone());
                    queue.push_back(next);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::collections::BTreeSet;

    fn to_set(cells: Vec<Box<[i64]>>) -> BTreeSet<Vec<i64>> {
        cells.into_iter().map(|c| c.to_vec()).collect()
    }

    #[test]
    fn own_cell_is_always_adjacent() {
        let g = Grid::with_offset(2, 1.0, vec![0.0, 0.0]);
        let p = Point::new(vec![0.5, 0.5]);
        let cells = to_set(adjacent_cells(&g, &p, 0.1));
        assert!(cells.contains(&vec![0, 0]));
    }

    #[test]
    fn centered_point_with_small_alpha_has_single_adjacent_cell() {
        let g = Grid::with_offset(3, 1.0, vec![0.0; 3]);
        let p = Point::new(vec![0.5, 0.5, 0.5]);
        let cells = adjacent_cells(&g, &p, 0.4);
        assert_eq!(cells.len(), 1);
    }

    #[test]
    fn corner_point_touches_incident_cells() {
        let g = Grid::with_offset(2, 1.0, vec![0.0, 0.0]);
        // near the lattice corner (1, 1): the four cells incident to the
        // corner are within ~0.0014; the cells at index 2 are ~0.999 away
        // and excluded by alpha = 0.9.
        let p = Point::new(vec![1.001, 1.001]);
        let cells = to_set(adjacent_cells(&g, &p, 0.9));
        assert_eq!(
            cells,
            BTreeSet::from([vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]])
        );
    }

    #[test]
    fn point_exactly_on_boundary() {
        let g = Grid::with_offset(1, 1.0, vec![0.0]);
        let p = Point::new(vec![2.0]); // boundary between cells 1 and 2
        let cells = to_set(adjacent_cells(&g, &p, 0.5));
        // cell 2 contains p; cell 1 touches it at distance 0; cell 3 is at
        // distance 1 > alpha.
        assert_eq!(cells, BTreeSet::from([vec![1], vec![2]]));
    }

    #[test]
    fn two_dim_alpha_half_side_shape() {
        let g = Grid::with_offset(2, 1.0, vec![0.0, 0.0]);
        let p = Point::new(vec![0.1, 0.5]);
        let cells = to_set(adjacent_cells(&g, &p, 0.5));
        // left cell at distance 0.1; up/down at 0.5; diagonals at
        // sqrt(0.1^2+0.5^2) ~ 0.51 > 0.5; right at 0.9.
        assert_eq!(
            cells,
            BTreeSet::from([vec![-1, 0], vec![0, -1], vec![0, 0], vec![0, 1]])
        );
    }

    #[test]
    fn early_exit_stops_enumeration() {
        let g = Grid::with_offset(2, 1.0, vec![0.0, 0.0]);
        let p = Point::new(vec![1.0001, 1.0001]);
        let mut visited = 0usize;
        let stopped = for_each_adjacent_cell(&g, &p, 0.9, |_| {
            visited += 1;
            visited == 2
        });
        assert!(stopped);
        assert_eq!(visited, 2);
    }

    #[test]
    fn fold_dfs_visits_same_cells_in_same_order_with_folded_keys() {
        // The fold variant must enumerate exactly the cells of the plain
        // DFS, in the same order, and the carried value at each leaf must
        // equal folding the leaf's coordinates from scratch.
        let step =
            |acc: u64, c: i64| acc.rotate_left(7) ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = StdRng::seed_from_u64(77);
        for dim in 1..=4usize {
            for _ in 0..40 {
                let side = rng.random_range(0.5..2.0);
                let alpha = rng.random_range(0.01..side);
                let g = Grid::random(dim, side, &mut rng);
                let p = Point::new((0..dim).map(|_| rng.random_range(-5.0..5.0)).collect());
                let plain = adjacent_cells(&g, &p, alpha);
                let mut folded: Vec<(Vec<i64>, u64)> = Vec::new();
                for_each_adjacent_cell_fold(&g, &p, alpha, 0xABCD, step, |c, key| {
                    folded.push((c.to_vec(), key));
                    false
                });
                assert_eq!(folded.len(), plain.len());
                for (got, want) in folded.iter().zip(plain.iter()) {
                    assert_eq!(&got.0[..], &want[..], "cell order diverged");
                    let scratch = got.0.iter().fold(0xABCD, |a, &c| step(a, c));
                    assert_eq!(got.1, scratch, "fold carry diverged from re-fold");
                }
            }
        }
    }

    #[test]
    fn fold_dfs_early_exit_matches_plain_dfs() {
        let g = Grid::with_offset(2, 1.0, vec![0.0, 0.0]);
        let p = Point::new(vec![1.0001, 1.0001]);
        let mut visited = 0usize;
        let stopped = for_each_adjacent_cell_fold(
            &g,
            &p,
            0.9,
            0,
            |a, c| a ^ c as u64,
            |_: &[i64], _| {
                visited += 1;
                visited == 2
            },
        );
        assert!(stopped);
        assert_eq!(visited, 2);
    }

    #[test]
    fn fold_dfs_first_visit_is_own_cell() {
        let mut rng = StdRng::seed_from_u64(123);
        for _ in 0..50 {
            let g = Grid::random(3, 1.0, &mut rng);
            let p = Point::new((0..3).map(|_| rng.random_range(-4.0..4.0)).collect());
            let mut first: Option<Vec<i64>> = None;
            for_each_adjacent_cell_fold(
                &g,
                &p,
                0.8,
                0,
                |a, _| a,
                |c: &[i64], _| {
                    first = Some(c.to_vec());
                    true
                },
            );
            assert_eq!(first.as_deref(), Some(&*g.cell_of(&p)));
        }
    }

    #[test]
    fn saturated_cell_indices_do_not_overflow() {
        // 1e300 floors to i64::MAX, and both boundary costs round to zero,
        // so the DFS steps past the end of the index range.
        for dim in 1..=3usize {
            let g = Grid::with_offset(dim, 1.0, vec![0.0; dim]);
            let p = Point::new(vec![1e300; dim]);
            let cells = adjacent_cells(&g, &p, 0.5);
            assert_eq!(
                cells.first().map(|c| c.to_vec()),
                Some(g.cell_of(&p).to_vec())
            );
            let mut folded = 0;
            for_each_adjacent_cell_fold(
                &g,
                &p,
                0.5,
                0,
                |a, _| a,
                |_: &[i64], _| {
                    folded += 1;
                    false
                },
            );
            assert_eq!(folded, cells.len());
        }
    }

    #[test]
    fn dfs_agrees_with_bfs_on_random_inputs() {
        let mut rng = StdRng::seed_from_u64(42);
        for dim in 1..=4usize {
            for _ in 0..40 {
                let side = rng.random_range(0.5..2.0);
                let alpha = rng.random_range(0.01..side);
                let g = Grid::random(dim, side, &mut rng);
                let p = Point::new((0..dim).map(|_| rng.random_range(-5.0..5.0)).collect());
                let dfs = to_set(adjacent_cells(&g, &p, alpha));
                let bfs = to_set(adjacent_cells_bfs(&g, &p, alpha));
                assert_eq!(dfs, bfs, "dim={dim} side={side} alpha={alpha}");
            }
        }
    }

    #[test]
    fn bfs_supports_sides_smaller_than_alpha() {
        let g = Grid::with_offset(1, 0.5, vec![0.0]);
        let p = Point::new(vec![0.25]);
        let cells = to_set(adjacent_cells_bfs(&g, &p, 1.0));
        // cells are [k*0.5, (k+1)*0.5); within distance 1.0 of x=0.25 are
        // cells covering [-0.75, 1.25] => indices -2..=2.
        assert_eq!(
            cells,
            BTreeSet::from([vec![-2], vec![-1], vec![0], vec![1], vec![2]])
        );
    }

    #[test]
    #[should_panic(expected = "side >= alpha")]
    fn dfs_rejects_small_side() {
        let g = Grid::with_offset(1, 0.5, vec![0.0]);
        let p = Point::new(vec![0.25]);
        let _ = adjacent_cells(&g, &p, 1.0);
    }

    #[test]
    fn all_reported_cells_are_within_alpha() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = Grid::random(3, 1.0, &mut rng);
        let p = Point::new(vec![0.3, -2.4, 7.7]);
        let alpha = 0.8;
        for c in adjacent_cells(&g, &p, alpha) {
            assert!(g.dist_point_cell(&p, &c) <= alpha + 1e-12);
        }
    }
}
