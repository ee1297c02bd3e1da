//! `count`: the F0 regime, sharded.
//!
//! `count_accuracy(EPS)` sets the threshold to `kappa_B / eps^2` = 1600
//! records, above the stream's 1200 groups, so every group stays live
//! and the final estimate must equal the group count to within
//! `(1 ± eps)`. With 2 shards every publish flushes the engine, round-
//! trips a snapshot through each shard's channel and merges the two
//! summaries with `merge_many`, whose cost grows with the live groups:
//! publication, not arrival, does most of the work here.

use super::split::{self, Check, SplitCfg};
use crate::inputs::{Inputs, Shape};
use crate::report::Report;
use crate::Ctx;

/// The `count_accuracy` target.
pub const EPS: f64 = 0.1;

/// 1200 groups in `R^5` with up to 16 near-duplicates each.
pub const SHAPE: Shape = Shape {
    groups: 1200,
    dim: 5,
    max_dups: 16,
};

/// Two shards.
pub const CFG: SplitCfg = SplitCfg {
    shards: 2,
    eps: Some(EPS),
};

/// The workload's stream for `seed`.
pub fn inputs(seed: u64) -> Inputs {
    Inputs::generate("Rand5-count", SHAPE, seed)
}

/// Runs the workload.
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let inputs = inputs(ctx.seed);
    split::run_workload(&inputs, &CFG, Check::F0Within(EPS), ctx, report)
}
