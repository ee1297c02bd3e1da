//! `sample`: Algorithm 1's sampling regime on a Rand5 stream.
//!
//! The paper's Rand5 dataset (§6.1): 500 groups in `R^5`, up to 100
//! near-duplicates each, shuffled. The default `kappa0 log m` threshold
//! (about 60 here) is far below F0 = 500, so every episode doubles the
//! rate a few times. Arrival does most of the work (k-wise hashing,
//! adjacency DFS, store probe, doubling) while summaries stay tiny, so
//! publication does little.

use super::split::{self, Check, SplitCfg};
use crate::inputs::{Inputs, Shape};
use crate::report::Report;
use crate::Ctx;

/// Rand5: the paper's base size, dimension and duplicate counts.
pub const SHAPE: Shape = Shape {
    groups: 500,
    dim: 5,
    max_dups: 100,
};

/// One unsharded pair.
pub const CFG: SplitCfg = SplitCfg {
    shards: 1,
    eps: None,
};

/// The workload's stream for `seed`.
pub fn inputs(seed: u64) -> Inputs {
    Inputs::generate("Rand5", SHAPE, seed)
}

/// Runs the workload.
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let inputs = inputs(ctx.seed);
    split::run_workload(&inputs, &CFG, Check::DistinctGroups, ctx, report)
}
