//! Seeded, labelled inputs, generated before the system under test is
//! built. The system only ever receives the generated points; the labels
//! (ground-truth groups) stay with the benchmark for its checks.
//!
//! Every stream is the paper's §6.1 construction: a `rand_cloud` base
//! rescaled to minimum pairwise distance 1, `uniform_dups`
//! near-duplicates within `dup_radius(dim)` of each base point, then a
//! shuffle. With `alpha = alpha_for(dim)` such a stream is
//! `(alpha, 2 alpha)`-sparse, which is what the paper's uniformity and
//! `(1 ± eps)` guarantees (and so the benchmark's checks) rest on.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rds_datasets::{rand_cloud, uniform_dups, Dataset};
use rds_geometry::Point;

/// The size of a generated stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    /// Ground-truth groups (base points).
    pub groups: usize,
    /// Ambient dimension.
    pub dim: usize,
    /// Each group gets `Uniform{1..=max_dups}` near-duplicates.
    pub max_dups: usize,
}

/// The generated stream of one workload.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// Labelled points in stream order.
    pub ds: Dataset,
    /// The same points, unlabelled, in stream order.
    pub points: Vec<Point>,
}

impl Inputs {
    /// Generates `shape` from `seed`; the same pair always gives the same
    /// stream, bit for bit.
    pub fn generate(name: &str, shape: Shape, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBE7C_0DE5_EED0_0000);
        let base = rand_cloud(shape.groups, shape.dim, &mut rng);
        let mut ds = uniform_dups(name, &base, shape.max_dups, &mut rng);
        ds.shuffle(&mut rng);
        let points = ds.points.iter().map(|lp| lp.point.clone()).collect();
        Self { ds, points }
    }

    /// The near-duplicate radius the stream is separated at.
    pub fn alpha(&self) -> f64 {
        self.ds.alpha
    }

    /// Ambient dimension.
    pub fn dim(&self) -> usize {
        self.ds.dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{count, sample};
    use rds_datasets::partition::is_sparse;

    fn bits(inputs: &Inputs) -> Vec<(Vec<u64>, usize)> {
        inputs
            .ds
            .points
            .iter()
            .map(|lp| {
                (
                    lp.point.coords().iter().map(|c| c.to_bits()).collect(),
                    lp.group,
                )
            })
            .collect()
    }

    #[test]
    fn one_seed_always_gives_the_same_stream() {
        for shape in [sample::SHAPE, count::SHAPE] {
            let a = Inputs::generate("a", shape, 17);
            let b = Inputs::generate("a", shape, 17);
            assert_eq!(bits(&a), bits(&b));
            assert_eq!(a.ds.n_groups, shape.groups);
            let c = Inputs::generate("a", shape, 18);
            assert_ne!(bits(&a), bits(&c));
        }
    }

    #[test]
    fn down_sized_workload_streams_are_sparse() {
        // Same dimension and duplicate radius as the workloads, fewer
        // groups, so the O(n^2) check stays quick.
        for shape in [sample::SHAPE, count::SHAPE] {
            let small = Shape {
                groups: 40,
                max_dups: shape.max_dups.min(6),
                ..shape
            };
            for seed in [1, 2, 3] {
                let inputs = Inputs::generate("small", small, seed);
                let alpha = inputs.alpha();
                assert!(
                    is_sparse(&inputs.points, alpha, 2.0 * alpha),
                    "seed {seed} {shape:?} is not (alpha, 2 alpha)-sparse"
                );
            }
        }
    }
}
