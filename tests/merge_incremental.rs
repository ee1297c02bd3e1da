//! Differential suite for the incremental shard merge: a [`MergePlan`]
//! kept across publishes (the sharded engine's, or one driven by hand
//! over independent sites) must produce, merge after merge, exactly the
//! summary that a merge from empty of the same summaries produces: the
//! same records field by field, the same JSON, the same `query_k` draws.
//!
//! The streams reach every path of the plan: the F0 regime (one level,
//! no reject set), Algorithm 1's default threshold (rate doublings and
//! reject sets, so restarts and promotions), a chain of overlapping
//! groups that violates `(α, 2α)`-sparsity (so a new record takes over
//! records that already host others, and the plan restarts), and a
//! restore from a checkpoint mid-stream.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rds_core::{
    DistinctSampler, GroupRecord, MergeCounts, MergePlan, MergedSummary, RobustL0Sampler,
    SamplerConfig, SamplerSummary, DEFAULT_KAPPA_B,
};
use rds_datasets::{rand_cloud, uniform_dups};
use rds_engine::ShardedEngine;
use rds_geometry::Point;

/// Draw tokens `query_k` is compared at.
const DRAWS: [u64; 3] = [1, 2, 1 << 40];

fn json(summary: &MergedSummary) -> String {
    serde_json::to_string(summary).expect("summary serializes")
}

fn assert_records_equal(got: &[GroupRecord], want: &[GroupRecord], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: record count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.rep, w.rep, "{what}: record {i} rep");
        assert_eq!(g.cell_hash, w.cell_hash, "{what}: record {i} cell hash");
        assert_eq!(g.count, w.count, "{what}: record {i} count");
        assert_eq!(g.reservoir, w.reservoir, "{what}: record {i} reservoir");
    }
}

/// Checks `merged` against a merge from empty of `shards`.
fn assert_same_as_from_empty(merged: &MergedSummary, shards: Vec<MergedSummary>, case: &str) {
    let fresh = MergedSummary::merge_many(shards)
        .expect("same cfg")
        .expect("non-empty");
    assert_eq!(merged.level(), fresh.level(), "{case}: level");
    assert_records_equal(merged.accept_set(), fresh.accept_set(), case);
    assert_records_equal(merged.reject_set(), fresh.reject_set(), case);
    assert_eq!(json(merged), json(&fresh), "{case}: JSON");
    for draw in DRAWS {
        assert_records_equal(
            &merged.query_k(4, draw),
            &fresh.query_k(4, draw),
            &format!("{case}: query_k draw {draw}"),
        );
    }
}

/// A count-shaped stream: `groups` random centres in `R^dim`, each with
/// 1 to 16 near-duplicates, shuffled; returns it with its `alpha`.
fn cloud_stream(groups: usize, dim: usize, seed: u64) -> (Vec<Point>, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let base = rand_cloud(groups, dim, &mut rng);
    let mut ds = uniform_dups("cloud", &base, 16, &mut rng);
    ds.shuffle(&mut rng);
    let points = ds.points.iter().map(|lp| lp.point.clone()).collect();
    (points, ds.alpha)
}

/// Parallel chains of overlapping groups in `R^2` with `alpha = 1`:
/// consecutive centres of a chain `0.6` apart, so each group overlaps its
/// neighbours but not theirs (not `(α, 2α)`-sparse), points jittered by
/// up to `0.05` around them, shuffled.
fn chain_stream(n: usize, seed: u64) -> (Vec<Point>, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let points = (0..n)
        .map(|_| {
            let chain = rng.random_range(0..4u32);
            let link = rng.random_range(0..80u32);
            let jitter = |rng: &mut StdRng| rng.random_range(-0.05..0.05);
            Point::new(vec![
                f64::from(link) * 0.6 + jitter(&mut rng),
                f64::from(chain) * 3.0 + jitter(&mut rng),
            ])
        })
        .collect();
    (points, 1.0)
}

fn config(dim: usize, alpha: f64, seed: u64, len: usize) -> SamplerConfig {
    SamplerConfig::builder(dim, alpha)
        .seed(seed)
        .expected_len(len as u64)
        .build()
        .expect("valid config")
}

/// The `count_accuracy(eps)` threshold `ceil(kappa_B / eps^2)`.
fn count_threshold(eps: f64) -> usize {
    (DEFAULT_KAPPA_B / (eps * eps)).ceil() as usize
}

/// Feeds `points` to `engine` in chunks of `every`, publishing (flush +
/// snapshot) after each and checking the snapshot against a merge from
/// empty of the shard summaries it merged.
fn drive_engine(engine: &mut ShardedEngine, points: &[Point], every: usize, case: &str) {
    for (i, chunk) in points.chunks(every).enumerate() {
        engine.ingest_batch(chunk.iter().cloned());
        engine.flush();
        let merged = engine.snapshot();
        // Every shard is clean now: these are the summaries just merged.
        let shards = engine.shard_summaries();
        assert_same_as_from_empty(&merged, shards, &format!("{case}, publish {i}"));
    }
}

fn engine_case(
    n_shards: usize,
    threshold: Option<usize>,
    (points, alpha): (Vec<Point>, f64),
    dim: usize,
    seed: u64,
    case: &str,
) -> MergeCounts {
    let cfg = config(dim, alpha, seed, points.len());
    let threshold = threshold.unwrap_or_else(|| cfg.threshold());
    let mut engine = ShardedEngine::try_with_threshold(cfg, n_shards, threshold)
        .expect("valid engine")
        .with_batch_size(32);
    drive_engine(&mut engine, &points, 97, case);
    engine.merge_counts()
}

#[test]
fn f0_regime_merges_incrementally_and_exactly() {
    for n_shards in [2, 3, 4] {
        for seed in 0..2u64 {
            let case = format!("F0 regime, {n_shards} shards, seed {seed}");
            let counts = engine_case(
                n_shards,
                Some(count_threshold(0.1)),
                cloud_stream(300, 5, seed),
                5,
                seed,
                &case,
            );
            assert!(counts.incremental > 0, "{case}: {counts:?}");
        }
    }
}

#[test]
fn default_threshold_with_doublings_and_reject_sets_merges_exactly() {
    for n_shards in [2, 3, 4] {
        for seed in 0..2u64 {
            let case = format!("default threshold, {n_shards} shards, seed {seed}");
            let points = cloud_stream(400, 2, 10 + seed);
            let counts = engine_case(n_shards, None, points, 2, seed, &case);
            // Rate doublings change shard levels, which restarts the plan.
            assert!(counts.restarts > 1, "{case}: {counts:?}");
            assert!(counts.incremental > 0, "{case}: {counts:?}");
        }
    }
}

#[test]
fn overlapping_chains_merge_exactly() {
    for n_shards in [2, 3, 4] {
        for seed in 0..2u64 {
            let case = format!("chains, {n_shards} shards, seed {seed}");
            let counts = engine_case(
                n_shards,
                Some(count_threshold(0.1)),
                chain_stream(1500, 20 + seed),
                2,
                seed,
                &case,
            );
            assert!(counts.incremental > 0, "{case}: {counts:?}");
        }
    }
}

/// Two to 24 sites, each fed a random share of each chunk — far more
/// groups split across sites than the engine's entity-affine router
/// makes — merged after every chunk through one plan.
#[test]
fn randomly_split_sites_merge_exactly_through_one_plan() {
    let mut totals = MergeCounts::default();
    for (n_sites, seed) in [(2, 30u64), (3, 31), (4, 32), (3, 33), (24, 34)] {
        for threshold in [Some(count_threshold(0.1)), None] {
            let (points, alpha) = chain_stream(1200, seed);
            let cfg = config(2, alpha, seed, points.len());
            let threshold = threshold.unwrap_or_else(|| cfg.threshold());
            let mut sites: Vec<RobustL0Sampler> = (0..n_sites)
                .map(|_| RobustL0Sampler::try_with_threshold(cfg.clone(), threshold).unwrap())
                .collect();
            let mut plan = MergePlan::default();
            let mut rng = StdRng::seed_from_u64(seed);
            for (i, chunk) in points.chunks(53).enumerate() {
                for p in chunk {
                    let site: usize = rng.random_range(0..n_sites);
                    sites[site].process(p);
                }
                let summaries: Vec<MergedSummary> =
                    sites.iter_mut().map(|s| s.summary_cow()).collect();
                let merged = plan
                    .merge(summaries.clone())
                    .expect("same cfg")
                    .expect("non-empty");
                let case =
                    format!("{n_sites} sites, threshold {threshold}, seed {seed}, merge {i}");
                assert_same_as_from_empty(&merged, summaries, &case);
            }
            let counts = plan.counts();
            totals.incremental += counts.incremental;
            totals.restarts += counts.restarts;
        }
    }
    // Both paths ran, and some merges restarted after the first: a new
    // record took over one that hosted others, or a level changed.
    assert!(totals.incremental > 0, "{totals:?}");
    assert!(totals.restarts > 8, "{totals:?}");
}

/// Tiny thresholds double the rate every few points, and a merge after
/// every second point sees levels change while the sets stay as long as
/// before and may even keep their last absorbed record: only the level
/// check restarts the plan there.
#[test]
fn level_changes_under_grown_sets_restart_the_plan() {
    for seed in 0..6u64 {
        for threshold in [2, 3, 4] {
            let (points, alpha) = cloud_stream(100, 2, 60 + seed);
            let cfg = config(2, alpha, seed, points.len());
            let n_sites = 2 + seed as usize % 3;
            let mut sites: Vec<RobustL0Sampler> = (0..n_sites)
                .map(|_| RobustL0Sampler::try_with_threshold(cfg.clone(), threshold).unwrap())
                .collect();
            let mut plan = MergePlan::default();
            let mut rng = StdRng::seed_from_u64(seed);
            for (i, chunk) in points.chunks(2).enumerate() {
                for p in chunk {
                    let site: usize = rng.random_range(0..n_sites);
                    sites[site].process(p);
                }
                let summaries: Vec<MergedSummary> =
                    sites.iter_mut().map(|s| s.summary_cow()).collect();
                let merged = plan
                    .merge(summaries.clone())
                    .expect("same cfg")
                    .expect("non-empty");
                let case = format!("threshold {threshold}, seed {seed}, merge {i}");
                assert_same_as_from_empty(&merged, summaries, &case);
            }
        }
    }
}

#[test]
fn a_restored_engine_merges_exactly_and_like_the_original() {
    for n_shards in [2, 3] {
        let (points, alpha) = cloud_stream(300, 3, 40);
        let cfg = config(3, alpha, 40, points.len());
        let threshold = count_threshold(0.1);
        let mut original = ShardedEngine::try_with_threshold(cfg, n_shards, threshold)
            .unwrap()
            .with_batch_size(32);
        let (first, second) = points.split_at(points.len() / 2);
        drive_engine(&mut original, first, 97, "before the checkpoint");
        let mut restored =
            ShardedEngine::<RobustL0Sampler>::try_restore(original.checkpoint()).expect("restores");
        for (i, chunk) in second.chunks(97).enumerate() {
            let case = format!("{n_shards} shards, publish {i} after the restore");
            let mut snapshots = Vec::new();
            for engine in [&mut original, &mut restored] {
                engine.ingest_batch(chunk.iter().cloned());
                engine.flush();
                let merged = engine.snapshot();
                assert_same_as_from_empty(&merged, engine.shard_summaries(), &case);
                snapshots.push(json(&merged));
            }
            assert_eq!(snapshots[0], snapshots[1], "{case}: restored vs original");
        }
        let counts = restored.merge_counts();
        assert_eq!(counts.restarts, 1, "the restored plan starts from empty");
        assert!(counts.incremental > 0, "{counts:?}");
    }
}

/// The merge counters on a count-shaped stream (the shape of the
/// benchmark's `count` workload): 1,200 groups in `R^5`, 2 shards,
/// `count_accuracy(0.1)`, a publish every 512 points. Nothing changes
/// level and no group re-hosts a record holding others, so every episode
/// restarts its plan exactly once, on its first publish, and merges every
/// later publish incrementally. A stateless merge would count nothing.
#[test]
fn count_shaped_episodes_restart_once_each() {
    for episode in 0..3u64 {
        let (points, alpha) = cloud_stream(1200, 5, 50 + episode);
        let cfg = config(5, alpha, 50 + episode, points.len());
        let mut engine = ShardedEngine::try_with_threshold(cfg, 2, count_threshold(0.1)).unwrap();
        let mut publishes = 0;
        for chunk in points.chunks(512) {
            engine.ingest_batch(chunk.iter().cloned());
            engine.flush();
            engine.snapshot();
            publishes += 1;
        }
        let counts = engine.merge_counts();
        assert_eq!(
            counts,
            MergeCounts {
                incremental: publishes - 1,
                restarts: 1,
            },
            "episode {episode}"
        );
    }
}
