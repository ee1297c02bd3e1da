//! Differential suite for the indexed summary merges: `merge_many` of
//! [`MergedSummary`] and of [`WindowSummary`] must serialize
//! byte-identically to the linear-scan merges they replaced, kept here
//! verbatim as oracles (`absorb_record` and the pairwise window fold).
//!
//! The inputs are built to reach every branch of both merges and every
//! edge of the index: dimensions 1/2/3/5/8, 2–5 summaries, groups that
//! overlap across summaries and violate `(α, 2α)`-sparsity, mixed levels
//! (so reject promotion and the `any_adjacent_sampled` test both run),
//! coordinates at exact multiples of the bucket width `2α` and one ulp
//! either side, and magnitudes near `1e17` and `2^52 · 2α`, which the
//! index cannot bucket and keeps in its overflow list.

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use rds_core::{
    DistinctSampler, GroupRecord, MergedSummary, RobustL0Sampler, SamplerConfig, SamplerContext,
    SamplerSummary, SlidingWindowSampler, WindowGroupEntry, WindowSummary,
};
use rds_geometry::Point;
use rds_stream::{Stamp, StreamItem, Window};
use serde::{Deserialize, Serialize};

const DIMS: [usize; 5] = [1, 2, 3, 5, 8];
// 1e-170: `alpha²` underflows, so `within` matches far beyond `alpha` and
// the index must bucket nothing.
const ALPHAS: [f64; 4] = [0.5, 0.37, 2.0, 1e-170];

// ---------------------------------------------------------------------
// Oracles: the linear-scan merges, verbatim.
// ---------------------------------------------------------------------

/// The branch of [`absorb_record`] a record took.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Absorbed {
    IntoAccept,
    Promoted,
    IntoReject,
    FreshAccept,
    FreshReject,
    Dropped,
}

/// Places one record into the merged accept/reject sets, combining it
/// with an existing record of the same group if the group was observed
/// by several sites/shards. (Verbatim apart from reporting the branch.)
fn absorb_record(
    rec: &GroupRecord,
    own_cell_sampled: bool,
    level: u32,
    alpha: f64,
    acc: &mut Vec<GroupRecord>,
    rej: &mut Vec<GroupRecord>,
    ctx: &SamplerContext,
) -> Absorbed {
    // cross-site duplicate? combine counts into the existing record
    if let Some(existing) = acc.iter_mut().find(|g| g.rep.within(&rec.rep, alpha)) {
        existing.count += rec.count;
        return Absorbed::IntoAccept;
    }
    if let Some(pos) = rej.iter().position(|g| g.rep.within(&rec.rep, alpha)) {
        if own_cell_sampled {
            // the group is sampled through this site's representative:
            // promote the combined record to the accept set
            let mut combined = rec.clone();
            combined.count += rej.remove(pos).count;
            acc.push(combined);
            return Absorbed::Promoted;
        } else {
            rej[pos].count += rec.count;
        }
        return Absorbed::IntoReject;
    }
    // fresh group at the coordinator
    if own_cell_sampled {
        acc.push(rec.clone());
        return Absorbed::FreshAccept;
    } else if ctx.any_adjacent_sampled(&rec.rep, level) {
        rej.push(rec.clone());
        return Absorbed::FreshReject;
    }
    // else: not a candidate at the common rate; dropped
    Absorbed::Dropped
}

/// The linear N-way merge of equal-configuration summaries (at least
/// two), as JSON, with the branch every record took.
fn oracle_merged(summaries: &[MergedSummary]) -> (String, Vec<Absorbed>) {
    let cfg = summaries[0].cfg().clone();
    let ctx = SamplerContext::new(cfg.clone());
    let level = summaries.iter().map(|s| s.level()).max().unwrap_or(0);
    let alpha = cfg.alpha;
    let mut acc: Vec<GroupRecord> = Vec::new();
    let mut rej: Vec<GroupRecord> = Vec::new();
    let mut branches = Vec::new();
    for summary in summaries {
        for rec in summary.accept_set() {
            let sampled = rds_hashing::level_sampled(rec.cell_hash, level);
            branches.push(absorb_record(
                rec, sampled, level, alpha, &mut acc, &mut rej, &ctx,
            ));
        }
        for rec in summary.reject_set() {
            branches.push(absorb_record(
                rec, false, level, alpha, &mut acc, &mut rej, &ctx,
            ));
        }
    }
    (json(&merged_summary(cfg, level, acc, rej)), branches)
}

/// The pairwise window merge: absorbs `other`'s entries into a copy of
/// `this`'s.
fn oracle_window_merge(this: WindowSummary, other: WindowSummary) -> WindowSummary {
    let alpha = this.cfg().alpha;
    let mut entries: Vec<(u32, WindowGroupEntry)> = this.entries().cloned().collect();
    for (level, entry) in other.entries().cloned() {
        match entries
            .iter_mut()
            .find(|(_, e)| e.rep.within(&entry.rep, alpha) || e.last.within(&entry.last, alpha))
        {
            Some((l, existing)) => {
                // The same group reached two shards: keep the
                // finer-rate (lower-level) entry, sum the counts, and
                // keep the newest live point.
                existing.count += entry.count;
                if entry.last_stamp > existing.last_stamp {
                    existing.last = entry.last.clone();
                    existing.last_stamp = entry.last_stamp;
                }
                if level < *l {
                    *l = level;
                    existing.rep = entry.rep;
                    existing.rep_hash = entry.rep_hash;
                    existing.rep_stamp = entry.rep_stamp;
                }
            }
            None => entries.push((level, entry)),
        }
    }
    WindowSummary::from_parts(this.cfg().clone(), entries)
}

/// The left-to-right pairwise fold of the window merge, as JSON.
fn oracle_window(summaries: &[WindowSummary]) -> String {
    let folded = summaries
        .iter()
        .cloned()
        .reduce(oracle_window_merge)
        .expect("at least one summary");
    json(&folded)
}

// ---------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------

fn json<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("serializes")
}

/// A `MergedSummary` with the given parts, through its wire format.
fn merged_summary(
    cfg: SamplerConfig,
    level: u32,
    acc: Vec<GroupRecord>,
    rej: Vec<GroupRecord>,
) -> MergedSummary {
    let value = serde::Value::Map(vec![
        ("cfg".to_string(), cfg.to_value()),
        ("level".to_string(), level.to_value()),
        ("acc".to_string(), acc.to_value()),
        ("rej".to_string(), rej.to_value()),
    ]);
    MergedSummary::from_value(&value).expect("well-formed summary")
}

fn config(dim: usize, alpha: f64, seed: u64) -> SamplerConfig {
    SamplerConfig::builder(dim, alpha)
        .seed(seed)
        .expected_len(1 << 12)
        .kappa0(0.5)
        .build()
        .expect("valid config")
}

/// One coordinate of a group centre: on a coarse lattice of multiples of
/// the bucket width `2α` (exactly, or one ulp either side), in between,
/// or far out where the index cannot bucket.
fn centre_coord(rng: &mut StdRng, alpha: f64) -> f64 {
    let w = 2.0 * alpha;
    let k = rng.random_range(-6i64..6) as f64 * w;
    match rng.random_range(0..10u32) {
        0..=2 => k,
        3 => k.next_up(),
        4 => k.next_down(),
        5..=7 => k + rng.random_range(0.0..w),
        // |x / 2α| at 2^52: the first quotient the index refuses
        8 => 4_503_599_627_370_496.0 * w + rng.random_range(-3i64..=3) as f64 * w,
        _ => 1e17 + rng.random_range(-3i64..=3) as f64 * 16.0,
    }
}

/// A point of the group around `centre`: the centre itself, a point
/// exactly `alpha` away along one axis, or a random nearby point that
/// may lie inside or outside the threshold (non-sparse data).
fn member(rng: &mut StdRng, centre: &[f64], alpha: f64) -> Point {
    let mut coords = centre.to_vec();
    match rng.random_range(0..4u32) {
        0 => {}
        1 => {
            let axis = rng.random_range(0..coords.len());
            let sign = if rng.random_bool(0.5) { 1.0 } else { -1.0 };
            coords[axis] += sign * alpha;
        }
        _ => {
            let spread = 1.2 * alpha / (coords.len() as f64).sqrt();
            for c in &mut coords {
                *c += rng.random_range(-spread..spread);
            }
        }
    }
    Point::new(coords)
}

fn centres(rng: &mut StdRng, dim: usize, alpha: f64) -> Vec<Vec<f64>> {
    let n = rng.random_range(4..40usize);
    (0..n)
        .map(|_| (0..dim).map(|_| centre_coord(rng, alpha)).collect())
        .collect()
}

fn pick<'a>(rng: &mut StdRng, centres: &'a [Vec<f64>]) -> &'a [f64] {
    &centres[rng.random_range(0..centres.len())]
}

fn crafted_merged(rng: &mut StdRng, cfg: &SamplerConfig, n: usize) -> Vec<MergedSummary> {
    let centres = centres(rng, cfg.dim, cfg.alpha);
    (0..n)
        .map(|_| {
            let record = |rng: &mut StdRng| {
                let c = pick(rng, &centres);
                GroupRecord {
                    rep: member(rng, c, cfg.alpha),
                    cell_hash: rng.next_u64(),
                    count: rng.random_range(1..50u64),
                    reservoir: member(rng, c, cfg.alpha),
                }
            };
            let n_acc = rng.random_range(0..60usize);
            let n_rej = rng.random_range(0..30usize);
            let acc = (0..n_acc).map(|_| record(rng)).collect();
            let rej = (0..n_rej).map(|_| record(rng)).collect();
            merged_summary(cfg.clone(), rng.random_range(0..4u32), acc, rej)
        })
        .collect()
}

fn crafted_window(rng: &mut StdRng, cfg: &SamplerConfig, n: usize) -> Vec<WindowSummary> {
    let centres = centres(rng, cfg.dim, cfg.alpha);
    (0..n)
        .map(|_| {
            let n_entries = rng.random_range(0..70usize);
            let entries = (0..n_entries)
                .map(|_| {
                    let c = pick(rng, &centres);
                    let rep_stamp = rng.random_range(0..500u64);
                    let entry = WindowGroupEntry {
                        rep: member(rng, c, cfg.alpha),
                        rep_hash: rng.next_u64(),
                        rep_stamp: Stamp::at(rep_stamp),
                        accepted: rng.random_bool(0.7),
                        // often another group's point: rep and last then
                        // match different merged entries
                        last: {
                            let other = pick(rng, &centres);
                            member(rng, other, cfg.alpha)
                        },
                        last_stamp: Stamp::at(rep_stamp + rng.random_range(0..500u64)),
                        count: rng.random_range(1..50u64),
                        reservoir: member(rng, c, cfg.alpha),
                    };
                    (rng.random_range(0..4u32), entry)
                })
                .collect();
            WindowSummary::from_parts(cfg.clone(), entries)
        })
        .collect()
}

/// A stream over `centres` (moderate coordinates only: the samplers'
/// grids want finite cell indices) split across `n` shards.
fn shard_streams(rng: &mut StdRng, dim: usize, alpha: f64, n: usize) -> Vec<Vec<StreamItem>> {
    let centres: Vec<Vec<f64>> = (0..rng.random_range(10..120usize))
        .map(|_| {
            (0..dim)
                .map(|_| rng.random_range(-10i64..10) as f64 * 2.0 * alpha)
                .collect()
        })
        .collect();
    let mut shards = vec![Vec::new(); n];
    for seq in 0..rng.random_range(100..600u64) {
        let c = pick(rng, &centres);
        let p = member(rng, c, alpha);
        shards[rng.random_range(0..n)].push(StreamItem::new(p, Stamp::at(seq)));
    }
    shards
}

/// Checks one merge against the oracle; returns the oracle's branch per
/// record merged.
fn assert_merged_identical(summaries: Vec<MergedSummary>, case: &str) -> Vec<Absorbed> {
    let (expected, branches) = oracle_merged(&summaries);
    let merged = MergedSummary::merge_many(summaries)
        .expect("same cfg")
        .expect("non-empty");
    assert_eq!(json(&merged), expected, "MergedSummary diverged: {case}");
    branches
}

/// Checks one merge against the oracle; returns the entries merged.
fn assert_window_identical(summaries: Vec<WindowSummary>, case: &str) -> usize {
    let entries = summaries.iter().map(WindowSummary::entry_count).sum();
    let expected = oracle_window(&summaries);
    let merged = WindowSummary::merge_many(summaries)
        .expect("same cfg")
        .expect("non-empty");
    assert_eq!(json(&merged), expected, "WindowSummary diverged: {case}");
    entries
}

// ---------------------------------------------------------------------
// Cases.
// ---------------------------------------------------------------------

#[test]
fn crafted_merged_summaries_match_the_linear_merge() {
    let mut branches = Vec::new();
    for case in 0..300u64 {
        let mut rng = StdRng::seed_from_u64(case);
        let dim = DIMS[case as usize % DIMS.len()];
        let alpha = ALPHAS[(case as usize / DIMS.len()) % ALPHAS.len()];
        let cfg = config(dim, alpha, case);
        let n = rng.random_range(2..=5usize);
        let summaries = crafted_merged(&mut rng, &cfg, n);
        branches.extend(assert_merged_identical(
            summaries,
            &format!("case {case} dim {dim}"),
        ));
    }
    // Every branch of the merge ran, reject promotion and both outcomes
    // of the `any_adjacent_sampled` test included, so a generator change
    // cannot quietly stop exercising one.
    assert!(
        branches.len() > 40_000,
        "cases too small to mean much: {}",
        branches.len()
    );
    for branch in [
        Absorbed::IntoAccept,
        Absorbed::Promoted,
        Absorbed::IntoReject,
        Absorbed::FreshAccept,
        Absorbed::FreshReject,
        Absorbed::Dropped,
    ] {
        let n = branches.iter().filter(|&&b| b == branch).count();
        assert!(n > 100, "{branch:?} ran only {n} times");
    }
}

/// Many sites at once, each with accept and reject sets at mixed
/// levels: a merge from empty over hundreds of reject hosts, with
/// promotions all through it.
#[test]
fn many_sites_with_reject_sets_match_the_linear_merge() {
    let mut branches = Vec::new();
    for case in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(5000 + case);
        let dim = DIMS[case as usize % DIMS.len()];
        let cfg = config(dim, 0.5, case);
        let n = rng.random_range(24..=48usize);
        let summaries = crafted_merged(&mut rng, &cfg, n);
        branches.extend(assert_merged_identical(
            summaries,
            &format!("many sites case {case} dim {dim}"),
        ));
    }
    let promoted = branches
        .iter()
        .filter(|&&b| b == Absorbed::Promoted)
        .count();
    assert!(promoted > 200, "only {promoted} promotions");
}

#[test]
fn sampled_merged_summaries_match_the_linear_merge() {
    for case in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(1000 + case);
        let dim = DIMS[case as usize % DIMS.len()];
        let alpha = ALPHAS[(case as usize / DIMS.len()) % ALPHAS.len()];
        let cfg = config(dim, alpha, case);
        let n = rng.random_range(2..=5usize);
        let summaries = shard_streams(&mut rng, dim, alpha, n)
            .iter()
            .map(|stream| {
                let mut s = RobustL0Sampler::try_new(cfg.clone()).expect("valid config");
                DistinctSampler::process_batch(&mut s, stream);
                s.into_summary()
            })
            .collect();
        assert_merged_identical(summaries, &format!("sampled case {case} dim {dim}"));
    }
}

#[test]
fn crafted_window_summaries_match_the_pairwise_fold() {
    let mut entries = 0;
    for case in 0..300u64 {
        let mut rng = StdRng::seed_from_u64(2000 + case);
        let dim = DIMS[case as usize % DIMS.len()];
        let alpha = ALPHAS[(case as usize / DIMS.len()) % ALPHAS.len()];
        let cfg = config(dim, alpha, case);
        let n = rng.random_range(2..=5usize);
        let summaries = crafted_window(&mut rng, &cfg, n);
        entries += assert_window_identical(summaries, &format!("case {case} dim {dim}"));
    }
    assert!(entries > 30_000, "cases too small to mean much: {entries}");
}

#[test]
fn sampled_window_summaries_match_the_pairwise_fold() {
    for case in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(3000 + case);
        let dim = DIMS[case as usize % DIMS.len()];
        let alpha = ALPHAS[(case as usize / DIMS.len()) % ALPHAS.len()];
        let cfg = config(dim, alpha, case);
        let n = rng.random_range(2..=5usize);
        let summaries = shard_streams(&mut rng, dim, alpha, n)
            .iter()
            .map(|stream| {
                let mut s = SlidingWindowSampler::try_new(cfg.clone(), Window::Sequence(256))
                    .expect("valid config");
                DistinctSampler::process_batch(&mut s, stream);
                s.into_summary()
            })
            .collect();
        assert_window_identical(summaries, &format!("sampled case {case} dim {dim}"));
    }
}
