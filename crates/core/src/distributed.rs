//! Distributed robust distinct sampling: one sample over the *union* of
//! several streams.
//!
//! The paper's related-work section cites distributed ℓ0-sampling
//! (Chung & Tirthapura) and the distributed noisy-data model (Zhang,
//! SPAA 2015) and notes that the existing distributed algorithms cannot
//! handle near-duplicates. Because Algorithm 1's state is a function of
//! a shared hash/grid plus the observed points, robust samplers *merge*:
//! sites run ordinary [`RobustL0Sampler`](crate::RobustL0Sampler)s built from the **same
//! configuration** (hence identical grid and hash), and the coordinator
//! unifies the site summaries at the coarsest rate, refilters with the
//! shared hash (Fact 1b makes this sound), and deduplicates groups whose
//! points were split across sites.
//!
//! The unit of exchange is [`MergedSummary`], the associated
//! [`SamplerSummary`] type of [`RobustL0Sampler`](crate::RobustL0Sampler): a site ships
//! [`DistinctSampler::summary`](crate::DistinctSampler::summary) (or
//! `into_summary` once it is done ingesting), and the coordinator combines
//! any number of them with [`SamplerSummary::merge_many`] — the same
//! reduce the sharded engine runs over its shards. The summary is
//! queryable, serializable and *self-mergeable*: it carries the full
//! [`SamplerConfig`], so summaries combine without out-of-band context,
//! mismatched configurations fail with [`RdsError::ConfigMismatch`], and
//! coordinators can be chained across the wire.
//!
//! The merged summary answers the same queries as a single sampler that
//! had seen the concatenation of all site streams, up to the choice of
//! representative for cross-site groups.

use crate::config::{SamplerConfig, SamplerContext};
use crate::error::RdsError;
use crate::infinite::GroupRecord;
use crate::merge_index::NearIndex;
use crate::sampler::{derived_rng, SamplerSummary};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rds_geometry::Point;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A sampler's summary, or the coordinator-side merge of several:
/// queryable, serializable, and mergeable with other summaries of the
/// same configuration ([`SamplerSummary::merge`]).
/// The candidate sets live behind [`Arc`] handles so that snapshot
/// publication can share ("copy-on-write") the sets of an unchanged
/// sampler across epochs instead of deep-copying them; `Arc` serializes
/// transparently, so the JSON shape is the same as a plain `Vec`. A
/// rebuilt set copies each record's count and hash but shares its points
/// with the sampler (a [`Point`] clone is a reference-count bump), so no
/// coordinate is ever copied on publication, merge or query.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MergedSummary {
    cfg: SamplerConfig,
    level: u32,
    acc: Arc<Vec<GroupRecord>>,
    rej: Arc<Vec<GroupRecord>>,
}

impl MergedSummary {
    /// Builds a summary directly from a sampler's parts (a "merge" of one
    /// site).
    pub(crate) fn from_parts(
        cfg: SamplerConfig,
        level: u32,
        acc: Vec<GroupRecord>,
        rej: Vec<GroupRecord>,
    ) -> Self {
        Self::from_shared(cfg, level, Arc::new(acc), Arc::new(rej))
    }

    /// Builds a summary around already-shared candidate sets without
    /// copying them — the copy-on-write publication path.
    pub(crate) fn from_shared(
        cfg: SamplerConfig,
        level: u32,
        acc: Arc<Vec<GroupRecord>>,
        rej: Arc<Vec<GroupRecord>>,
    ) -> Self {
        Self {
            cfg,
            level,
            acc,
            rej,
        }
    }

    fn rng_for(&self, draw: u64) -> StdRng {
        derived_rng(self.cfg.seed, draw, 0xD157)
    }

    /// Draws a robust ℓ0-sample of the union of the site streams: the
    /// representative of a uniformly random sampled group. All randomness
    /// comes from `draw`; pass distinct tokens for independent draws.
    pub fn query(&self, draw: u64) -> Option<Point> {
        let mut rng = self.rng_for(draw);
        self.acc.choose(&mut rng).map(|r| r.rep.clone())
    }

    /// Draws the full record of a uniformly random sampled group,
    /// deterministically in `draw`.
    pub fn query_record(&self, draw: u64) -> Option<GroupRecord> {
        let mut rng = self.rng_for(draw);
        self.acc.choose(&mut rng).cloned()
    }

    /// Draws `min(k, |Sacc|)` *distinct* sampled groups of the union
    /// (sampling without replacement, the Section 2.3 extension lifted to
    /// the coordinator), deterministically in `draw`. Costs `k` PRNG words
    /// and `O(min(k², |Sacc|))` time, so small `k` never pays for the
    /// whole accept set.
    pub fn query_k(&self, k: usize, draw: u64) -> Vec<GroupRecord> {
        let mut rng = self.rng_for(draw);
        partial_shuffle(self.acc.len(), k, &mut rng)
            .into_iter()
            .map(|i| self.acc[i].clone())
            .collect()
    }

    /// `|Sacc| * R`: the robust F0 estimate for the union.
    pub fn f0_estimate(&self) -> f64 {
        self.acc.len() as f64 * (1u64 << self.level) as f64
    }

    /// Accepted groups of the union.
    pub fn accept_set(&self) -> &[GroupRecord] {
        &self.acc
    }

    /// Rejected groups of the union.
    pub fn reject_set(&self) -> &[GroupRecord] {
        &self.rej
    }

    /// The merge's common rate exponent.
    pub fn level(&self) -> u32 {
        self.level
    }

    /// The shared duplicate threshold.
    pub fn alpha(&self) -> f64 {
        self.cfg.alpha
    }

    /// The shared configuration the summary was built under.
    pub fn cfg(&self) -> &SamplerConfig {
        &self.cfg
    }
}

impl SamplerSummary for MergedSummary {
    /// Combines two summaries: unifies at the coarser rate, refilters
    /// every record with the shared hash (Fact 1b) and deduplicates
    /// cross-summary groups.
    fn merge(self, other: Self) -> Result<Self, RdsError> {
        // lint:allow(L1) merge_many of a two-element vec always returns
        // Some; config-mismatch errors propagate through the `?`
        Ok(Self::merge_many(vec![self, other])?.expect("two summaries merged"))
    }

    /// Single-pass N-way merge: one shared context and one deduplication
    /// pass over all records, each record's cross-summary duplicate found
    /// through a near-duplicate index over the merged representatives
    /// instead of a `within` scan over every merged group per record:
    /// `O(records)` while few groups share a `2α`-wide bucket of the first
    /// two coordinates. This is the reduce the sharded engine runs on
    /// every publish.
    fn merge_many(summaries: Vec<Self>) -> Result<Option<Self>, RdsError> {
        let Some(first_cfg) = summaries.first().map(|s| s.cfg.clone()) else {
            return Ok(None);
        };
        // Full-config equality, not just the seed: same-seed summaries
        // with different alpha/dim must not silently merge.
        if let Some(bad) = summaries.iter().find(|s| s.cfg != first_cfg) {
            return Err(RdsError::ConfigMismatch {
                expected_seed: first_cfg.seed,
                actual_seed: bad.cfg.seed,
            });
        }
        if summaries.len() == 1 {
            return Ok(summaries.into_iter().next());
        }
        let level = summaries.iter().map(|s| s.level).max().unwrap_or(0);
        let records = summaries.iter().map(|s| s.acc.len() + s.rej.len()).sum();
        let mut sets = MergeSets::new(first_cfg, level, records);
        for summary in &summaries {
            for rec in summary.acc.iter() {
                sets.absorb(rec, rds_hashing::level_sampled(rec.cell_hash, level));
            }
            for rec in summary.rej.iter() {
                sets.absorb(rec, false);
            }
        }
        Ok(Some(sets.finish()))
    }

    fn f0_estimate(&self) -> f64 {
        MergedSummary::f0_estimate(self)
    }

    fn query_record(&self, draw: u64) -> Option<GroupRecord> {
        MergedSummary::query_record(self, draw)
    }

    fn query_k(&self, k: usize, draw: u64) -> Vec<GroupRecord> {
        MergedSummary::query_k(self, k, draw)
    }
}

/// The first `min(k, n)` positions of a Fisher–Yates shuffle of `0..n`
/// whose step `i` swaps position `i` with a uniform position in `i..n`:
/// a uniformly random ordered `k`-subset, one PRNG word per pick. For
/// small `k` only the positions a swap displaced are remembered, and a
/// lookup scans them; once that scan would cost more than the positions
/// themselves (`k² > n`) the positions are materialized. Both paths
/// perform the same swaps, so they return the same answer.
fn partial_shuffle(n: usize, k: usize, rng: &mut StdRng) -> Vec<usize> {
    let k = k.min(n);
    // A uniform position in `i..n`; the offset is below `n - i`, so the
    // cast back is exact.
    let mut uniform_from = |i: usize| {
        let offset = rng.word_below((n - i) as u64);
        i + offset as usize
    };
    if k.saturating_mul(k) > n {
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            idx.swap(i, uniform_from(i));
        }
        idx.truncate(k);
        return idx;
    }
    /// What position `pos` holds: its latest displacement, else itself.
    fn at(displaced: &[(usize, usize)], pos: usize) -> usize {
        displaced
            .iter()
            .rev()
            .find(|&&(p, _)| p == pos)
            .map_or(pos, |&(_, v)| v)
    }
    // `(position, value)` of every swap's far side; positions below `i`
    // are never read again.
    let mut displaced: Vec<(usize, usize)> = Vec::with_capacity(k);
    let mut picks = Vec::with_capacity(k);
    for i in 0..k {
        let j = uniform_from(i);
        picks.push(at(&displaced, j));
        displaced.push((j, at(&displaced, i)));
    }
    picks
}

/// Id-space tag of a reject-set record in [`MergeSets::index`]: reject
/// ids order after every accept id, as the old scan searched the accept
/// set before the reject set.
const REJ_ID: u32 = 1 << 31;

/// The merged accept/reject sets under construction, with a
/// near-duplicate index over their representatives.
struct MergeSets {
    cfg: SamplerConfig,
    ctx: SamplerContext,
    level: u32,
    acc: Vec<GroupRecord>,
    /// The reject set in insertion order; a record promoted to the
    /// accept set leaves `None` behind, dropped by [`MergeSets::finish`].
    rej: Vec<Option<GroupRecord>>,
    /// Accept record `i` under id `i`, reject record `i` under
    /// `REJ_ID | i`, so the smallest matching id is the record a scan of
    /// the accept set, then the reject set, meets first.
    index: NearIndex,
}

impl MergeSets {
    /// Empty sets for merging `records` records at rate exponent `level`.
    fn new(cfg: SamplerConfig, level: u32, records: usize) -> Self {
        Self {
            ctx: SamplerContext::new(cfg.clone()),
            index: NearIndex::with_capacity(cfg.dim, cfg.alpha, records),
            cfg,
            level,
            acc: Vec::new(),
            rej: Vec::new(),
        }
    }

    /// Places one record into the merged sets, combining it with an
    /// existing record of the same group if the group was observed by
    /// several sites/shards.
    fn absorb(&mut self, rec: &GroupRecord, own_cell_sampled: bool) {
        let (acc, rej, alpha) = (&self.acc, &self.rej, self.cfg.alpha);
        let mut hit = None;
        self.index.first_match(&rec.rep, &mut hit, |id| {
            let existing = if id & REJ_ID == 0 {
                acc.get(id as usize)
            } else {
                rej.get((id & !REJ_ID) as usize).and_then(Option::as_ref)
            };
            existing.is_some_and(|g| g.rep.within(&rec.rep, alpha))
        });
        match hit {
            // cross-site duplicate? combine counts into the existing record
            Some(id) if id & REJ_ID == 0 => {
                if let Some(existing) = self.acc.get_mut(id as usize) {
                    existing.count += rec.count;
                }
            }
            Some(id) => {
                let slot = self.rej.get_mut((id & !REJ_ID) as usize);
                if own_cell_sampled {
                    // the group is sampled through this site's
                    // representative: promote the combined record to the
                    // accept set
                    if let Some(existing) = slot.and_then(Option::take) {
                        let mut combined = rec.clone();
                        combined.count += existing.count;
                        self.push_acc(combined);
                    }
                } else if let Some(Some(existing)) = slot {
                    existing.count += rec.count;
                }
            }
            // fresh group at the coordinator
            None if own_cell_sampled => self.push_acc(rec.clone()),
            None => {
                if self.ctx.any_adjacent_sampled(&rec.rep, self.level) {
                    self.index.insert(&rec.rep, REJ_ID | self.rej.len() as u32);
                    self.rej.push(Some(rec.clone()));
                }
                // else: not a candidate at the common rate; dropped
            }
        }
    }

    fn push_acc(&mut self, rec: GroupRecord) {
        self.index.insert(&rec.rep, self.acc.len() as u32);
        self.acc.push(rec);
    }

    /// The merged summary, promoted reject records compacted away.
    fn finish(self) -> MergedSummary {
        let rej = self.rej.into_iter().flatten().collect();
        MergedSummary::from_parts(self.cfg, self.level, self.acc, rej)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infinite::RobustL0Sampler;
    use crate::sampler::DistinctSampler;

    #[test]
    fn partial_shuffle_draws_distinct_uniform_positions() {
        use rand::SeedableRng;
        // (n, k) pairs on both paths: 3² <= 10 scans the displaced
        // positions, 5² > 10 materializes them.
        for (n, k) in [(10usize, 3usize), (10, 5)] {
            let draws = 20_000;
            let mut hits = vec![0u32; n];
            let mut rng = StdRng::seed_from_u64(n as u64 * 31 + k as u64);
            for _ in 0..draws {
                let picks = partial_shuffle(n, k, &mut rng);
                assert_eq!(picks.len(), k);
                let mut sorted = picks.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), k, "answers must be distinct");
                for i in picks {
                    hits[i] += 1;
                }
            }
            let expected = f64::from(draws) * k as f64 / n as f64;
            for (i, &h) in hits.iter().enumerate() {
                let dev = (f64::from(h) - expected).abs() / expected;
                assert!(
                    dev < 0.05,
                    "n {n} k {k}: index {i} drawn {h} times, expected {expected}"
                );
            }
        }
        let mut rng = StdRng::seed_from_u64(3);
        for k in [7, 8, 100] {
            let mut all = partial_shuffle(7, k, &mut rng);
            all.sort_unstable();
            assert_eq!(
                all,
                (0..7).collect::<Vec<_>>(),
                "k >= n returns every position"
            );
        }
        assert!(partial_shuffle(7, 0, &mut rng).is_empty());
        assert!(partial_shuffle(0, 3, &mut rng).is_empty());
    }

    #[test]
    fn both_partial_shuffle_paths_make_the_same_swaps() {
        use rand::SeedableRng;
        // The scan path (k² <= n) against a materialized shuffle.
        let (n, k) = (1000usize, 30usize);
        for seed in 0..50u64 {
            let picks = partial_shuffle(n, k, &mut StdRng::seed_from_u64(seed));
            let mut rng = StdRng::seed_from_u64(seed);
            let mut idx: Vec<usize> = (0..n).collect();
            for i in 0..k {
                let j = i + rng.word_below((n - i) as u64) as usize;
                idx.swap(i, j);
            }
            assert_eq!(picks, idx[..k], "seed {seed}");
        }
    }

    fn grouped_point(i: u64, n_groups: u64) -> Point {
        Point::new(vec![
            (i % n_groups) as f64 * 10.0 + 0.01 * ((i / n_groups) % 3) as f64,
        ])
    }

    fn cfg(seed: u64, expected_len: u64) -> SamplerConfig {
        SamplerConfig::builder(1, 0.5)
            .seed(seed)
            .expected_len(expected_len)
            .build()
            .unwrap()
    }

    fn site(cfg: &SamplerConfig) -> RobustL0Sampler {
        RobustL0Sampler::try_new(cfg.clone()).unwrap()
    }

    /// The coordinator: one N-way merge of the sites' summaries.
    fn merge(sites: &[&RobustL0Sampler]) -> Result<MergedSummary, RdsError> {
        let summaries = sites.iter().map(|s| s.summary()).collect();
        Ok(MergedSummary::merge_many(summaries)?.expect("at least one site"))
    }

    #[test]
    fn merge_of_disjoint_sites_counts_all_groups() {
        let cfg = cfg(1, 200);
        let (mut a, mut b) = (site(&cfg), site(&cfg));
        for i in 0..100u64 {
            a.process(&grouped_point(i, 10)); // groups 0..10
            b.process(&grouped_point(i, 20)); // groups 0..20 (overlap!)
        }
        let merged = merge(&[&a, &b]).expect("same cfg");
        // 20 distinct groups in the union; generous thresholds mean no
        // subsampling happened
        assert_eq!(merged.level(), 0);
        assert_eq!(merged.f0_estimate(), 20.0);
    }

    #[test]
    fn cross_site_groups_are_deduplicated() {
        let cfg = cfg(2, 64);
        let (mut a, mut b) = (site(&cfg), site(&cfg));
        // the same single group observed at both sites
        for i in 0..32u64 {
            a.process(&Point::new(vec![0.01 * (i % 3) as f64]));
            b.process(&Point::new(vec![0.02]));
        }
        let merged = merge(&[&a, &b]).expect("same cfg");
        assert_eq!(merged.accept_set().len(), 1);
        assert_eq!(merged.accept_set()[0].count, 64, "counts must add up");
    }

    #[test]
    fn merge_unifies_mismatched_levels() {
        let cfg = SamplerConfig::builder(1, 0.5)
            .seed(3)
            .expected_len(4096)
            .kappa0(0.5)
            .build()
            .unwrap();
        let (mut a, mut b) = (site(&cfg), site(&cfg));
        // site a sees many groups (forces doublings); b sees few
        for i in 0..2000u64 {
            a.process(&grouped_point(i, 512));
        }
        for i in 0..20u64 {
            b.process(&grouped_point(i, 4));
        }
        assert!(a.level() > b.level());
        let merged = merge(&[&a, &b]).expect("same cfg");
        assert_eq!(merged.level(), a.level());
        // every merged accepted record passes the common rate
        for rec in merged.accept_set() {
            assert!(rds_hashing::level_sampled(rec.cell_hash, merged.level()));
        }
    }

    #[test]
    fn merged_query_is_some_when_any_site_nonempty() {
        let cfg = cfg(4, 16);
        let (a, mut b) = (site(&cfg), site(&cfg));
        b.process(&Point::new(vec![5.0]));
        let merged = merge(&[&a, &b]).expect("same cfg");
        assert_eq!(merged.query(1), Some(Point::new(vec![5.0])));
    }

    #[test]
    fn into_summary_agrees_with_cloning_summary() {
        let mut s = site(&cfg(31, 128));
        for i in 0..64u64 {
            s.process(&grouped_point(i, 16));
        }
        let cloned = s.summary();
        let moved = s.into_summary();
        assert_eq!(moved.level(), cloned.level());
        assert_eq!(moved.cfg(), cloned.cfg());
        assert_eq!(moved.accept_set().len(), cloned.accept_set().len());
        assert_eq!(moved.reject_set().len(), cloned.reject_set().len());
        for (a, b) in moved.accept_set().iter().zip(cloned.accept_set()) {
            assert_eq!(a.rep, b.rep);
            assert_eq!(a.count, b.count);
        }
    }

    #[test]
    fn merged_query_k_returns_distinct_groups() {
        let cfg = cfg(32, 256);
        let (mut a, mut b) = (site(&cfg), site(&cfg));
        for i in 0..128u64 {
            a.process(&grouped_point(i, 8));
            b.process(&grouped_point(i, 16));
        }
        let merged = merge(&[&a, &b]).expect("same cfg");
        let picks = merged.query_k(3, 1);
        assert_eq!(picks.len(), 3);
        for i in 0..picks.len() {
            for j in (i + 1)..picks.len() {
                assert!(!picks[i].rep.within(&picks[j].rep, 0.5));
            }
        }
        // asking for more than |Sacc| returns everything once
        let n_acc = merged.accept_set().len();
        assert_eq!(merged.query_k(usize::MAX, 2).len(), n_acc);
    }

    #[test]
    fn mismatched_configs_are_rejected() {
        let ours = site(&SamplerConfig::builder(1, 0.5).seed(5).build().unwrap());
        let alien = site(&SamplerConfig::builder(1, 0.5).seed(6).build().unwrap());
        assert!(matches!(
            merge(&[&ours, &alien]),
            Err(RdsError::ConfigMismatch { .. })
        ));
        // same seed, different alpha: the full configuration must agree
        let wide = site(&SamplerConfig::builder(1, 0.75).seed(5).build().unwrap());
        assert!(matches!(
            merge(&[&ours, &wide]),
            Err(RdsError::ConfigMismatch { .. })
        ));
    }

    #[test]
    fn pairwise_merge_agrees_with_n_way_merge() {
        // MergedSummary::merge folded pairwise must agree with the
        // single-pass merge_many the coordinator and the engine use.
        let cfg = cfg(41, 512);
        let mut sites: Vec<RobustL0Sampler> = (0..3).map(|_| site(&cfg)).collect();
        for i in 0..300u64 {
            sites[(i % 3) as usize].process(&grouped_point(i, 30));
        }
        let n_way = merge(&sites.iter().collect::<Vec<_>>()).expect("same cfg");
        let pairwise = sites
            .iter()
            .map(DistinctSampler::summary)
            .reduce(|a, b| a.merge(b).expect("same cfg"))
            .expect("non-empty");
        assert_eq!(pairwise.f0_estimate(), n_way.f0_estimate());
        assert_eq!(pairwise.level(), n_way.level());
        assert_eq!(pairwise.accept_set().len(), n_way.accept_set().len());
    }

    #[test]
    fn pairwise_merge_rejects_config_mismatch() {
        let a = site(&SamplerConfig::builder(1, 0.5).seed(1).build().unwrap());
        let b = site(&SamplerConfig::builder(1, 0.5).seed(2).build().unwrap());
        assert!(matches!(
            a.summary().merge(b.summary()),
            Err(RdsError::ConfigMismatch { .. })
        ));
    }

    #[test]
    fn merged_sampling_is_roughly_uniform_over_union() {
        let n_union = 16u64;
        let mut hist = rds_metrics::SampleHistogram::new(n_union as usize);
        for run in 0..400u64 {
            let cfg = SamplerConfig::builder(1, 0.5)
                .seed(run * 97 + 7)
                .expected_len(256)
                .kappa0(1.0)
                .build()
                .unwrap();
            let (mut a, mut b) = (site(&cfg), site(&cfg));
            for i in 0..128u64 {
                a.process(&grouped_point(i, 8)); // groups 0..8
                b.process(&Point::new(vec![(8 + (i % 8)) as f64 * 10.0])); // groups 8..16
            }
            let merged = merge(&[&a, &b]).expect("same cfg");
            let q = merged.query(1).expect("non-empty");
            hist.record((q.get(0) / 10.0).round() as usize);
        }
        assert!(
            hist.std_dev_nm() < 0.5,
            "distributed sampling biased: {:?}",
            hist.counts()
        );
    }
}

#[cfg(test)]
mod serde_tests {
    use super::*;
    use crate::infinite::RobustL0Sampler;
    use crate::sampler::DistinctSampler;

    fn site(seed: u64) -> RobustL0Sampler {
        let cfg = SamplerConfig::builder(1, 0.5)
            .seed(seed)
            .expected_len(128)
            .build()
            .unwrap();
        RobustL0Sampler::try_new(cfg).unwrap()
    }

    fn over_the_wire(summary: &MergedSummary) -> MergedSummary {
        let wire = serde_json::to_vec(summary).expect("serializes");
        serde_json::from_slice(&wire).expect("deserializes")
    }

    #[test]
    fn summaries_from_multiple_sites_merge_after_the_wire() {
        let (mut a, mut b) = (site(22), site(22));
        for i in 0..20u64 {
            a.process(&Point::new(vec![(i % 4) as f64 * 10.0]));
            b.process(&Point::new(vec![(4 + i % 4) as f64 * 10.0]));
        }
        let sa = over_the_wire(&a.summary());
        let sb = over_the_wire(&b.summary());
        let merged = MergedSummary::merge_many(vec![sa, sb])
            .expect("same cfg")
            .expect("non-empty");
        assert_eq!(merged.f0_estimate(), 8.0);
        assert!(merged.query(1).is_some());
    }

    #[test]
    fn merged_summary_round_trips_through_json() {
        // The wire format the chained-coordinator path depends on: a
        // MergedSummary survives serialization with its query and merge
        // capabilities intact.
        let (mut a, mut b) = (site(25), site(25));
        for i in 0..64u64 {
            a.process(&Point::new(vec![(i % 6) as f64 * 10.0]));
            b.process(&Point::new(vec![(6 + i % 6) as f64 * 10.0]));
        }
        let merged = a.summary().merge(b.summary()).expect("same cfg");
        let back = over_the_wire(&merged);
        assert_eq!(back.f0_estimate(), merged.f0_estimate());
        assert_eq!(back.level(), merged.level());
        assert_eq!(back.alpha(), merged.alpha());
        assert_eq!(back.cfg(), merged.cfg());
        assert_eq!(back.accept_set().len(), merged.accept_set().len());
        for (x, y) in back.accept_set().iter().zip(merged.accept_set()) {
            assert_eq!(x.rep, y.rep);
            assert_eq!(x.count, y.count);
            assert_eq!(x.cell_hash, y.cell_hash);
        }
        assert!(back.query(1).is_some());
        // still mergeable after the wire
        let mut c = site(25);
        c.process(&Point::new(vec![500.0]));
        let combined = back.merge(c.summary()).expect("same cfg");
        assert_eq!(combined.f0_estimate(), 13.0);
    }

    #[test]
    fn wire_summary_with_wrong_seed_is_rejected() {
        let (mut ours, mut other) = (site(23), site(24));
        ours.process(&Point::new(vec![0.0]));
        other.process(&Point::new(vec![50.0]));
        let foreign = over_the_wire(&other.summary());
        assert!(matches!(
            ours.summary().merge(foreign),
            Err(RdsError::ConfigMismatch { .. })
        ));
    }
}
