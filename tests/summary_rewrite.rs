//! Property suite for republished summaries. A sampler's `summary_cow`
//! and a kept `MergePlan` write each new summary over the record vectors
//! of an earlier one that nobody holds any more, keeping the points of
//! records that did not change. Whatever that earlier summary held, the
//! result must be the summary built from scratch.
//!
//! Random interleavings of duplicate arrivals, new groups (with a small
//! threshold, so rate doublings and reject sets), held and released
//! summaries (a held one cannot be written over) and checkpoint restores
//! are fed to one sampler and to a 2-shard engine. After every step the
//! sampler's `summary_cow()` must serialize exactly like its `summary()`,
//! and the engine's `snapshot()` exactly like `MergedSummary::merge_many`
//! of its shards' summaries rebuilt from their checkpointed states.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rds_core::{
    Checkpointable, DistinctSampler, MergedSummary, RobustL0Sampler, SamplerConfig, SamplerSummary,
};
use rds_engine::ShardedEngine;
use rds_geometry::Point;

/// Groups in `R^2` on a lattice of spacing 10 (`alpha` 0.5), points
/// jittered by up to 0.05 around their centre.
struct Groups {
    rng: StdRng,
    seen: u64,
}

impl Groups {
    fn point(&mut self, group: u64) -> Point {
        let jitter = |rng: &mut StdRng| rng.random_range(-0.05..0.05);
        Point::new(vec![
            (group % 50) as f64 * 10.0 + jitter(&mut self.rng),
            (group / 50) as f64 * 10.0 + jitter(&mut self.rng),
        ])
    }

    /// `n` points of groups already seen (of new ones on an empty stream).
    fn duplicates(&mut self, n: usize) -> Vec<Point> {
        (0..n)
            .map(|_| {
                let group = self.rng.random_range(0..self.seen.max(1));
                self.point(group)
            })
            .collect()
    }

    /// One point of each of `n` new groups.
    fn new_groups(&mut self, n: usize) -> Vec<Point> {
        (0..n)
            .map(|_| {
                self.seen += 1;
                self.point(self.seen - 1)
            })
            .collect()
    }
}

fn json(summary: &MergedSummary) -> String {
    serde_json::to_string(summary).expect("summary serializes")
}

/// The engine's shards rebuilt from their checkpointed states, summarized
/// from scratch and merged from empty.
fn merged_from_scratch(engine: &mut ShardedEngine) -> MergedSummary {
    let shards = engine
        .checkpoint()
        .states()
        .iter()
        .map(|state| {
            RobustL0Sampler::try_from_state(state.clone())
                .expect("state restores")
                .summary()
        })
        .collect();
    MergedSummary::merge_many(shards)
        .expect("same cfg")
        .expect("two shards")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn rewritten_summaries_equal_summaries_built_from_scratch(
        seed in 0u64..1_000,
        steps in prop::collection::vec(0u32..5, 1..24),
        sizes in prop::collection::vec(1usize..40, 24),
    ) {
        let cfg = SamplerConfig::builder(2, 0.5)
            .seed(seed)
            .expected_len(1_000)
            .build()
            .expect("valid config");
        let threshold = 12;
        let mut sampler = RobustL0Sampler::try_with_threshold(cfg.clone(), threshold)
            .expect("valid sampler");
        let mut engine = ShardedEngine::try_with_threshold(cfg, 2, threshold)
            .expect("valid engine")
            .with_batch_size(8);
        let mut groups = Groups { rng: StdRng::seed_from_u64(seed), seen: 0 };
        let mut held = Vec::new();
        for (i, (&step, &n)) in steps.iter().zip(&sizes).enumerate() {
            let points = match step {
                0 => groups.duplicates(n),
                1 => groups.new_groups(n),
                2 => {
                    held.push((sampler.summary_cow(), engine.snapshot()));
                    Vec::new()
                }
                3 => {
                    held.clear();
                    Vec::new()
                }
                _ => {
                    let state = sampler.checkpoint_state();
                    sampler = RobustL0Sampler::try_from_state(state).expect("restores");
                    let chk = engine.checkpoint();
                    engine = ShardedEngine::try_restore(chk).expect("restores");
                    Vec::new()
                }
            };
            for p in &points {
                sampler.process(p);
            }
            engine.ingest_batch(points);
            engine.flush();
            prop_assert_eq!(
                json(&sampler.summary_cow()),
                json(&sampler.summary()),
                "sampler, step {}", i
            );
            let snapshot = engine.snapshot();
            prop_assert_eq!(
                json(&snapshot),
                json(&merged_from_scratch(&mut engine)),
                "engine, step {}", i
            );
        }
    }
}
