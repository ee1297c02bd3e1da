//! Algorithm 1: robust ℓ0-sampling in the infinite window.
//!
//! The sampler maintains the *accept set* `Sacc` (representatives of
//! sampled groups) and the *reject set* `Srej` (representatives of groups
//! that touch a sampled cell without their first point falling in one).
//! When `|Sacc|` exceeds `kappa_0 log m` the cell sample rate `1/R` is
//! halved (R doubles) and both sets are refiltered under the new rate; by
//! the nesting of sampled cells (Fact 1b) refiltering only removes
//! entries. At query time a uniformly random element of `Sacc` is
//! returned — Theorem 2.4 shows this is a uniform sample over groups with
//! probability `1 - 1/m`.
//!
//! Both sets live in one bucket-indexed [`CandidateStore`]
//! (struct-of-arrays columns plus a near-duplicate index over the
//! representatives, in buckets of width `2α` over the first one or two
//! coordinates), so the per-arrival membership test (Line 4) probes the
//! point's bucket and its neighbours on the near side (2 × 2 buckets,
//! 3 × 3 at worst) instead of scanning every stored record, at the same
//! cost in every dimension. Duplicates — most arrivals of a
//! near-duplicate stream — stop there: the point's cell is never
//! computed. Only the first point of a new group hashes its cell, and
//! only one whose own cell is unsampled runs the adjacent-cell DFS
//! (`any_adjacent_sampled`, Line 8). Batches additionally evaluate the
//! k-wise cell hash level in one coefficient-major pass over all
//! arrivals. Every decision, every PRNG draw, and the serialized state
//! are bit-identical to the original linear-scan bookkeeping.

use crate::checkpoint::{check_dims, check_level, Checkpointable, RngState};
use crate::config::{SamplerConfig, SamplerContext, MAX_LEVEL};
use crate::distributed::{MergedSummary, Recycler};
use crate::error::RdsError;
use crate::sampler::DistinctSampler;
use crate::store::CandidateStore;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rds_geometry::Point;
use rds_metrics::SpaceMeter;
use rds_stream::StreamItem;
use serde::{Deserialize, Serialize};

/// Everything the sampler stores about one candidate group.
#[derive(Debug, Serialize, Deserialize)]
pub struct GroupRecord {
    /// The group's representative: its first point in the stream.
    pub rep: Point,
    /// `h(cell(rep))`, kept so refiltering after rate doubling does not
    /// rehash.
    pub cell_hash: u64,
    /// Number of stream points that landed in this group so far.
    pub count: u64,
    /// A uniformly random member of the group (reservoir sampling, the
    /// "random point as group representative" extension of Section 2.3).
    pub reservoir: Point,
}

impl Clone for GroupRecord {
    #[inline]
    fn clone(&self) -> Self {
        Self {
            rep: self.rep.clone(),
            cell_hash: self.cell_hash,
            count: self.count,
            reservoir: self.reservoir.clone(),
        }
    }

    /// Rewrites `self` as `source`, writing a point's reference count only
    /// where `self` does not share that point already: rewriting a record
    /// whose group only gained duplicates writes no reference count.
    #[inline]
    fn clone_from(&mut self, source: &Self) {
        self.rep.clone_from(&source.rep);
        self.cell_hash = source.cell_hash;
        self.count = source.count;
        self.reservoir.clone_from(&source.reservoir);
    }
}

/// Tally of [`ProcessOutcome`]s over one [`RobustL0Sampler::process_batch`]
/// call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Points that became representatives of newly sampled groups.
    pub accepted: u64,
    /// Points that became representatives of newly rejected groups.
    pub rejected: u64,
    /// Points that belonged to an already-tracked candidate group.
    pub duplicates: u64,
    /// Points whose group has no sampled cell nearby.
    pub ignored: u64,
}

impl BatchStats {
    /// Total number of points the batch contained.
    pub fn total(&self) -> u64 {
        self.accepted + self.rejected + self.duplicates + self.ignored
    }

    /// Adds one outcome to the tally.
    pub fn record(&mut self, outcome: ProcessOutcome) {
        match outcome {
            ProcessOutcome::Accepted => self.accepted += 1,
            ProcessOutcome::Rejected => self.rejected += 1,
            ProcessOutcome::Duplicate => self.duplicates += 1,
            ProcessOutcome::Ignored => self.ignored += 1,
        }
    }

    /// Merges another tally into this one.
    pub fn merge(&mut self, other: &BatchStats) {
        self.accepted += other.accepted;
        self.rejected += other.rejected;
        self.duplicates += other.duplicates;
        self.ignored += other.ignored;
    }
}

/// What [`RobustL0Sampler::process`] did with a point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProcessOutcome {
    /// The point belongs to an already-tracked candidate group
    /// (Algorithm 1 line 4: skipped, bookkeeping updated).
    Duplicate,
    /// The point became the representative of a newly *sampled* group
    /// (line 6).
    Accepted,
    /// The point became the representative of a newly *rejected* group
    /// (line 8).
    Rejected,
    /// The point's group has no sampled cell nearby; nothing stored.
    Ignored,
}

/// Algorithm 1 of the paper: streaming robust ℓ0-sampler for the infinite
/// window.
///
/// # Examples
///
/// ```
/// use rds_core::{RobustL0Sampler, SamplerConfig};
/// use rds_geometry::Point;
///
/// let cfg = SamplerConfig::builder(2, 0.5).seed(1).build().unwrap();
/// let mut sampler = RobustL0Sampler::try_new(cfg).unwrap();
/// for i in 0..100 {
///     // 10 groups of 10 near-duplicates each
///     let base = (i % 10) as f64 * 10.0;
///     sampler.process(&Point::new(vec![base, 0.01 * (i / 10) as f64]));
/// }
/// let sample = sampler.query().expect("non-empty stream");
/// assert_eq!(sample.dim(), 2);
/// ```
#[derive(Debug)]
pub struct RobustL0Sampler {
    ctx: SamplerContext,
    /// `log2 R`: cells are sampled when the low `level` bits of their hash
    /// are zero.
    level: u32,
    /// Both candidate sets, bucket-indexed (see [`CandidateStore`]).
    store: CandidateStore,
    /// `|Sacc|` bound that triggers rate doubling.
    threshold: usize,
    seen: u64,
    rate_doublings: u32,
    scratch: Vec<i64>,
    /// Batch-path scratch: the mixer keys of one batch's cells.
    batch_keys: Vec<u64>,
    /// Batch-path scratch: the k-wise hashes of `batch_keys`.
    batch_hashes: Vec<u64>,
    rng: StdRng,
    space: SpaceMeter,
    /// The summaries [`DistinctSampler::summary_cow`] handed out last:
    /// the newest is republished while no candidate set changed, and the
    /// next one is written over the records of one nobody else holds.
    published: Recycler,
    /// Whether a candidate set changed since the newest summary in
    /// `published`.
    changed: bool,
}

impl RobustL0Sampler {
    /// Creates the sampler with the configuration's default threshold
    /// `kappa_0 * k * log2 m`, re-validating the configuration (useful
    /// when it was built by hand rather than through
    /// [`SamplerConfig::builder`]).
    ///
    /// # Errors
    ///
    /// Any [`SamplerConfig::validate`] failure.
    pub fn try_new(cfg: SamplerConfig) -> Result<Self, RdsError> {
        let threshold = cfg.threshold();
        Self::try_with_threshold(cfg, threshold)
    }

    /// Creates the sampler with an explicit `|Sacc|` threshold. Section 5
    /// uses this to turn the sampler into an F0 estimator (threshold
    /// `kappa_B / eps^2`).
    ///
    /// # Errors
    ///
    /// [`RdsError::InvalidThreshold`] on a zero threshold, or any
    /// [`SamplerConfig::validate`] failure.
    pub fn try_with_threshold(cfg: SamplerConfig, threshold: usize) -> Result<Self, RdsError> {
        cfg.validate()?;
        if threshold == 0 {
            return Err(RdsError::InvalidThreshold);
        }
        let rng = StdRng::seed_from_u64(cfg.seed ^ 0x5EED_CAFE);
        let ctx = SamplerContext::new(cfg);
        Ok(Self {
            ctx,
            level: 0,
            store: CandidateStore::new(),
            threshold,
            seen: 0,
            rate_doublings: 0,
            scratch: Vec::new(),
            batch_keys: Vec::new(),
            batch_hashes: Vec::new(),
            rng,
            space: SpaceMeter::new(),
            published: Recycler::default(),
            changed: true,
        })
    }

    /// Feeds one stream point (the body of Algorithm 1's arrival loop).
    pub fn process(&mut self, p: &Point) -> ProcessOutcome {
        let outcome = self.process_point(p, None);
        self.space.observe(self.words());
        outcome
    }

    /// Feeds a batch of stream points: each k-wise cell hash level is
    /// evaluated in one coefficient-major pass over the whole batch, and
    /// the space-metering sweep (otherwise paid per point) is amortized
    /// over the batch. The sampler state after the call is identical to
    /// calling [`Self::process`] on every point in order; only the peak
    /// recorded by [`Self::peak_words`] is coarser (observed once per
    /// batch instead of once per point).
    pub fn process_batch(&mut self, points: &[Point]) -> BatchStats {
        self.process_batch_keyed(points.iter())
    }

    /// The shared batch path. While the stream has been mostly distinct so
    /// far (at least half of the seen points started new groups), pass 1
    /// folds every point's cell into its mixer key, pass 2 hashes all keys
    /// in one batched Horner sweep (bit-identical to hashing them one by
    /// one), pass 3 replays the sequential arrival loop with the
    /// precomputed hashes. Once duplicates dominate, most precomputed
    /// hashes would go unused (a duplicate never consumes its hash), so
    /// the batch falls back to the per-point path, which hashes lazily on
    /// a duplicate-probe miss. The precomputation is pure — no
    /// RNG draw, no stored state — so the arrival decisions are exactly
    /// those of per-point processing either way.
    fn process_batch_keyed<'a, I>(&mut self, points: I) -> BatchStats
    where
        I: Iterator<Item = &'a Point> + Clone,
    {
        let mut stats = BatchStats::default();
        let mostly_distinct = self.store.len() as u64 * 2 >= self.seen;
        if mostly_distinct {
            let mut keys = std::mem::take(&mut self.batch_keys);
            let mut hashes = std::mem::take(&mut self.batch_hashes);
            keys.clear();
            for p in points.clone() {
                keys.push(self.ctx.cell_key(p, &mut self.scratch));
            }
            self.ctx.hasher().hash_keys_slice(&keys, &mut hashes);
            for (p, &hash) in points.zip(hashes.iter()) {
                stats.record(self.process_point(p, Some(hash)));
            }
            self.batch_keys = keys;
            self.batch_hashes = hashes;
        } else {
            for p in points {
                stats.record(self.process_point(p, None));
            }
        }
        self.space.observe(self.words());
        stats
    }

    /// One arrival, without the space-meter sweep. `own_hash` carries the
    /// point's precomputed cell hash on the batch path; `None` computes it
    /// only when the point turns out to start a new group, exactly like
    /// the pre-batch code.
    fn process_point(&mut self, p: &Point, own_hash: Option<u64>) -> ProcessOutcome {
        self.seen += 1;
        let alpha = self.ctx.alpha();

        // Line 4: if p belongs to a tracked candidate group, update its
        // bookkeeping (count + reservoir, Section 2.3) and skip it. The
        // store's bucket probe returns the first match of the old
        // accept-then-reject linear scan.
        if let Some(slot) = self.store.probe(p, alpha) {
            let count = self.store.bump_count(slot);
            // Reservoir sampling: replace with probability 1/count.
            if self.rng.word_below(count) == 0 {
                self.store.set_reservoir(slot, p);
            }
            self.changed = true;
            return ProcessOutcome::Duplicate;
        }

        // p is the first point of its group among the candidates.
        let h = match own_hash {
            Some(h) => h,
            None => self.ctx.cell_hash(p, &mut self.scratch),
        };
        let outcome = if self.ctx.hash_sampled(h, self.level) {
            // Line 6: the group's first point fell into a sampled cell.
            self.store.push_acc(h, p.clone());
            self.changed = true;
            ProcessOutcome::Accepted
        } else if self.ctx.any_adjacent_sampled(p, self.level) {
            // Line 8: some adjacent cell is sampled; remember the group as
            // rejected so later points of it are never mistaken for first
            // points.
            self.store.push_rej(h, p.clone());
            self.changed = true;
            ProcessOutcome::Rejected
        } else {
            ProcessOutcome::Ignored
        };

        // Lines 10-12: halve the sample rate while the accept set is too
        // large (the level cap only guards against adversarial hash
        // degeneracies).
        while self.store.acc_len() > self.threshold && self.level < MAX_LEVEL {
            self.double_rate();
        }
        outcome
    }

    /// Doubles `R` and refilters both sets under the new rate.
    ///
    /// Groups whose own cell survives stay accepted (Fact 1b: survivors
    /// are a subset, never new cells); demoted groups stay rejected while
    /// some adjacent cell is still sampled, appended after the surviving
    /// reject records in accept order — the exact order the old
    /// retain-then-push bookkeeping produced.
    fn double_rate(&mut self) {
        self.level += 1;
        self.rate_doublings += 1;
        self.changed = true;
        let level = self.level;
        let Self { store, ctx, .. } = self;
        store.retain_after_doubling(
            |cell_hash| rds_hashing::level_sampled(cell_hash, level),
            |rep| ctx.any_adjacent_sampled(rep, level),
        );
    }

    /// Draws one robust ℓ0-sample: the representative (first point) of a
    /// uniformly random sampled group. `None` iff no point was processed.
    ///
    /// Borrowing fast path; the [`DistinctSampler`] trait methods
    /// ([`DistinctSampler::query_record`], [`DistinctSampler::query_k`])
    /// return owned records.
    pub fn query(&mut self) -> Option<&Point> {
        let n = self.store.acc_len();
        if n == 0 {
            return None;
        }
        let pick = self.rng.word_below(n as u64);
        Some(self.store.rep(self.store.acc_slot(pick as usize)))
    }

    /// Like [`Self::query`] but returns a uniformly random *member* of the
    /// sampled group instead of its first point (Section 2.3, reservoir
    /// extension).
    pub fn query_random_member(&mut self) -> Option<&Point> {
        let n = self.store.acc_len();
        if n == 0 {
            return None;
        }
        let pick = self.rng.word_below(n as u64);
        Some(self.store.reservoir(self.store.acc_slot(pick as usize)))
    }

    /// The estimate `|Sacc| * R` of the number of distinct groups
    /// (Section 5's infinite-window F0 estimator reads this).
    pub fn f0_estimate(&self) -> f64 {
        self.store.acc_len() as f64 * (1u64 << self.level) as f64
    }

    /// Number of points processed.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Current `log2 R`.
    pub fn level(&self) -> u32 {
        self.level
    }

    /// How many times the sample rate was halved.
    pub fn rate_doublings(&self) -> u32 {
        self.rate_doublings
    }

    /// Current accept set (representatives of sampled groups),
    /// materialized in insertion order. The records live in the
    /// bucket-indexed store; this clones them into the classic record
    /// vector.
    pub fn accept_set(&self) -> Vec<GroupRecord> {
        self.store.acc_records()
    }

    /// Current reject set, materialized in insertion order.
    pub fn reject_set(&self) -> Vec<GroupRecord> {
        self.store.rej_records()
    }

    /// The `|Sacc|` threshold in force.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Current footprint in machine words (context + both candidate
    /// sets). `O(1)`: every stored record holds two points of the
    /// configured dimension plus two bookkeeping words.
    pub fn words(&self) -> usize {
        self.ctx.words() + self.store.words(self.ctx.cfg().dim) + 4
    }

    /// Peak footprint observed so far (the paper's `pSpace`).
    pub fn peak_words(&self) -> usize {
        self.space.peak_words()
    }

    /// The sampler's immutable context (grid + hash).
    pub fn context(&self) -> &SamplerContext {
        &self.ctx
    }
}

/// The serializable full state of a [`RobustL0Sampler`]: both candidate
/// sets, the rate exponent, the threshold, the arrival counter, and the
/// exact PRNG position. The grid and hash function are deterministic
/// functions of the embedded [`SamplerConfig`] and are rebuilt on
/// restore, not stored — as is the store's bucket index (a deterministic
/// function of `alpha` and the representatives).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RobustL0State {
    cfg: SamplerConfig,
    threshold: usize,
    level: u32,
    acc: Vec<GroupRecord>,
    rej: Vec<GroupRecord>,
    seen: u64,
    rate_doublings: u32,
    rng: RngState,
    peak_words: usize,
}

impl RobustL0State {
    /// The configuration the checkpointed sampler was built from.
    pub fn cfg(&self) -> &SamplerConfig {
        &self.cfg
    }

    /// The accept-set threshold in force at capture time.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Number of items the checkpointed sampler had processed.
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

impl Checkpointable for RobustL0Sampler {
    type State = RobustL0State;

    fn checkpoint_state(&self) -> RobustL0State {
        RobustL0State {
            cfg: self.ctx.cfg().clone(),
            threshold: self.threshold,
            level: self.level,
            acc: self.store.acc_records(),
            rej: self.store.rej_records(),
            seen: self.seen,
            rate_doublings: self.rate_doublings,
            rng: RngState::capture(&self.rng),
            peak_words: self.space.peak_words(),
        }
    }

    fn try_from_state(state: RobustL0State) -> Result<Self, RdsError> {
        check_level(state.level)?;
        check_dims(
            &state.cfg,
            state.acc.iter().flat_map(|r| [&r.rep, &r.reservoir]),
            "accept set",
        )?;
        check_dims(
            &state.cfg,
            state.rej.iter().flat_map(|r| [&r.rep, &r.reservoir]),
            "reject set",
        )?;
        let mut s = Self::try_with_threshold(state.cfg, state.threshold)?;
        s.level = state.level;
        s.store = CandidateStore::from_sets(state.acc, state.rej);
        s.seen = state.seen;
        s.rate_doublings = state.rate_doublings;
        s.rng = state.rng.restore();
        s.space.observe(state.peak_words);
        s.space.observe(s.words());
        Ok(s)
    }

    fn state_config(state: &RobustL0State) -> Option<&SamplerConfig> {
        Some(&state.cfg)
    }
}

impl DistinctSampler for RobustL0Sampler {
    type Summary = MergedSummary;

    /// Feeds the item's point; the stamp is ignored (infinite window).
    fn process(&mut self, item: &StreamItem) -> ProcessOutcome {
        RobustL0Sampler::process(self, &item.point)
    }

    /// The amortized batch path of [`RobustL0Sampler::process_batch`],
    /// lifted to stream items.
    fn process_batch(&mut self, items: &[StreamItem]) -> BatchStats {
        self.process_batch_keyed(items.iter().map(|item| &item.point))
    }

    fn query_record(&mut self) -> Option<GroupRecord> {
        let n = self.store.acc_len();
        if n == 0 {
            return None;
        }
        let pick = self.rng.word_below(n as u64);
        Some(self.store.record_at(self.store.acc_slot(pick as usize)))
    }

    fn query_k(&mut self, k: usize) -> Vec<GroupRecord> {
        let mut idx: Vec<usize> = (0..self.store.acc_len()).collect();
        idx.shuffle(&mut self.rng);
        idx.truncate(k);
        idx.into_iter()
            .map(|i| self.store.record_at(self.store.acc_slot(i)))
            .collect()
    }

    fn f0_estimate(&self) -> f64 {
        RobustL0Sampler::f0_estimate(self)
    }

    fn seen(&self) -> u64 {
        RobustL0Sampler::seen(self)
    }

    fn words(&self) -> usize {
        RobustL0Sampler::words(self)
    }

    fn summary(&self) -> MergedSummary {
        MergedSummary::from_parts(
            self.ctx.cfg().clone(),
            self.level,
            self.store.acc_records(),
            self.store.rej_records(),
        )
    }

    /// Returns the last summary when the candidate sets are unchanged
    /// since the last call (an `Arc`-sharing clone, no record is copied).
    /// Otherwise writes a new one over the record vectors of an earlier
    /// one that nobody else holds any more, normally the one from two
    /// calls back: a record of an unchanged group is rewritten in place
    /// without touching its points' reference counts, so the rebuild
    /// writes reference counts only for new records and replaced
    /// reservoir members. Without such a summary it builds new vectors,
    /// as [`DistinctSampler::summary`] does.
    fn summary_cow(&mut self) -> MergedSummary {
        if let (false, Some(newest)) = (self.changed, self.published.newest()) {
            return newest.clone();
        }
        let (mut acc, mut rej, ()) = self.published.take().unwrap_or_default();
        self.store.write_sets(&mut acc, &mut rej);
        let summary = MergedSummary::from_parts(self.ctx.cfg().clone(), self.level, acc, rej);
        self.published.keep(summary.clone(), ());
        self.changed = false;
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rds_datasets::{rand_cloud, uniform_dups};

    /// Builds a small well-separated dataset and returns (points, labels,
    /// n_groups, alpha).
    fn small_dataset(seed: u64) -> (Vec<Point>, Vec<usize>, usize, f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = rand_cloud(40, 4, &mut rng);
        let mut ds = uniform_dups("t", &base, 8, &mut rng);
        ds.shuffle(&mut rng);
        let labels = ds.labels();
        let pts = ds.points.iter().map(|lp| lp.point.clone()).collect();
        (pts, labels, ds.n_groups, ds.alpha)
    }

    fn feed(sampler: &mut RobustL0Sampler, pts: &[Point]) {
        for p in pts {
            sampler.process(p);
        }
    }

    #[test]
    fn first_point_is_always_accepted() {
        let mut s =
            RobustL0Sampler::try_new(SamplerConfig::builder(2, 0.5).build().unwrap()).unwrap();
        // R starts at 1 so the very first point lands in Sacc.
        assert_eq!(
            s.process(&Point::new(vec![3.3, 4.4])),
            ProcessOutcome::Accepted
        );
        assert_eq!(s.accept_set().len(), 1);
    }

    #[test]
    fn duplicates_are_skipped_and_counted() {
        let mut s =
            RobustL0Sampler::try_new(SamplerConfig::builder(2, 0.5).build().unwrap()).unwrap();
        s.process(&Point::new(vec![0.0, 0.0]));
        assert_eq!(
            s.process(&Point::new(vec![0.1, 0.0])),
            ProcessOutcome::Duplicate
        );
        assert_eq!(s.accept_set()[0].count, 2);
    }

    #[test]
    fn query_is_none_only_before_any_point() {
        let mut s =
            RobustL0Sampler::try_new(SamplerConfig::builder(2, 0.5).build().unwrap()).unwrap();
        assert!(s.query().is_none());
        s.process(&Point::new(vec![1.0, 1.0]));
        assert!(s.query().is_some());
    }

    /// The first stream occurrence of each labelled group. Guards the
    /// empty-labels case: `labels.iter().max()` is `None` on an empty
    /// stream, which used to panic through `.unwrap()`.
    fn first_points<'a>(pts: &'a [Point], labels: &[usize]) -> Vec<Option<&'a Point>> {
        let n_groups = labels.iter().max().map_or(0, |m| m + 1);
        let mut first_of_group: Vec<Option<&Point>> = vec![None; n_groups];
        for (p, &g) in pts.iter().zip(labels.iter()) {
            if first_of_group[g].is_none() {
                first_of_group[g] = Some(p);
            }
        }
        first_of_group
    }

    #[test]
    fn first_points_of_empty_stream_is_empty_not_a_panic() {
        // Regression: the max-label computation must tolerate an empty
        // stream instead of unwrapping `None`.
        let first = first_points(&[], &[]);
        assert!(first.is_empty());
    }

    #[test]
    fn sample_is_always_a_first_point_of_its_group() {
        let (pts, labels, _n, alpha) = small_dataset(3);
        let cfg = SamplerConfig::builder(4, alpha)
            .seed(17)
            .expected_len(pts.len() as u64)
            .build()
            .unwrap();
        let mut s = RobustL0Sampler::try_new(cfg).unwrap();
        feed(&mut s, &pts);

        // the representative of each ground-truth group = first occurrence
        let first_of_group = first_points(&pts, &labels);
        // Accepted representatives are always the first stream point of
        // their group (a group whose first point was ignored can never be
        // accepted later: its cells are inside adj(first point), none of
        // which were sampled, and sampled sets only shrink).
        for rec in s.accept_set() {
            let found = first_of_group.iter().flatten().any(|fp| **fp == rec.rep);
            assert!(found, "accepted representative is not a first point");
        }
        // Rejected representatives must at least come from the stream.
        for rec in s.reject_set() {
            assert!(pts.contains(&rec.rep));
        }
    }

    #[test]
    fn accept_set_respects_threshold_after_processing() {
        let (pts, _, _, alpha) = small_dataset(4);
        let cfg = SamplerConfig::builder(4, alpha)
            .seed(5)
            .expected_len(pts.len() as u64)
            .kappa0(1.0)
            .build()
            .unwrap(); // tight threshold to force doublings
        let mut s = RobustL0Sampler::try_new(cfg).unwrap();
        feed(&mut s, &pts);
        assert!(s.accept_set().len() <= s.threshold());
        assert!(s.rate_doublings() > 0, "expected at least one doubling");
    }

    #[test]
    fn accept_set_never_empty_after_first_point() {
        // Lemma 2.5 (whp); with these seeds it must hold deterministically.
        for seed in 0..10u64 {
            let (pts, _, _, alpha) = small_dataset(seed);
            let cfg = SamplerConfig::builder(4, alpha)
                .seed(seed.wrapping_mul(0x9E37))
                .expected_len(pts.len() as u64)
                .build()
                .unwrap();
            let mut s = RobustL0Sampler::try_new(cfg).unwrap();
            for p in &pts {
                s.process(p);
                assert!(
                    !s.accept_set().is_empty(),
                    "Sacc empty at seed {seed} after {} points",
                    s.seen()
                );
            }
        }
    }

    #[test]
    fn candidate_groups_are_distinct_groups() {
        // No two stored records may be within alpha of each other: each
        // candidate group has exactly one representative.
        let (pts, _, _, alpha) = small_dataset(6);
        let cfg = SamplerConfig::builder(4, alpha)
            .seed(23)
            .expected_len(pts.len() as u64)
            .build()
            .unwrap();
        let mut s = RobustL0Sampler::try_new(cfg).unwrap();
        feed(&mut s, &pts);
        let acc = s.accept_set();
        let rej = s.reject_set();
        let all: Vec<&GroupRecord> = acc.iter().chain(rej.iter()).collect();
        for i in 0..all.len() {
            for j in (i + 1)..all.len() {
                assert!(
                    !all[i].rep.within(&all[j].rep, alpha),
                    "two records share a group"
                );
            }
        }
    }

    #[test]
    fn group_counts_sum_to_points_of_candidate_groups() {
        let (pts, labels, n, alpha) = small_dataset(7);
        let cfg = SamplerConfig::builder(4, alpha)
            .seed(29)
            .expected_len(pts.len() as u64)
            .build()
            .unwrap();
        let mut s = RobustL0Sampler::try_new(cfg).unwrap();
        feed(&mut s, &pts);
        // group sizes from ground truth
        let mut sizes = vec![0u64; n];
        for &g in &labels {
            sizes[g] += 1;
        }
        for rec in s.accept_set() {
            // find the ground-truth group of the representative
            let gi = pts
                .iter()
                .zip(labels.iter())
                .find(|(p, _)| **p == rec.rep)
                .map(|(_, &g)| g)
                .expect("representative came from the stream");
            assert_eq!(rec.count, sizes[gi], "count mismatch for group {gi}");
        }
    }

    #[test]
    fn reservoir_member_is_in_the_same_group() {
        let (pts, _, _, alpha) = small_dataset(8);
        let cfg = SamplerConfig::builder(4, alpha)
            .seed(31)
            .expected_len(pts.len() as u64)
            .build()
            .unwrap();
        let mut s = RobustL0Sampler::try_new(cfg).unwrap();
        feed(&mut s, &pts);
        for rec in s.accept_set() {
            assert!(
                rec.rep.within(&rec.reservoir, alpha),
                "reservoir point escaped its group"
            );
        }
    }

    #[test]
    fn empirical_distribution_is_roughly_uniform() {
        // A scaled-down version of the paper's Figures 5-12.
        let mut rng = StdRng::seed_from_u64(100);
        let base = rand_cloud(25, 4, &mut rng);
        let mut ds = uniform_dups("t", &base, 12, &mut rng);
        ds.shuffle(&mut rng);
        let pts: Vec<Point> = ds.points.iter().map(|lp| lp.point.clone()).collect();
        let labels = ds.labels();

        let runs = 600;
        let mut hist = rds_metrics::SampleHistogram::new(ds.n_groups);
        for run in 0..runs {
            let cfg = SamplerConfig::builder(4, ds.alpha)
                .seed(run as u64 * 7919 + 13)
                .expected_len(pts.len() as u64)
                .build()
                .unwrap();
            let mut s = RobustL0Sampler::try_new(cfg).unwrap();
            feed(&mut s, &pts);
            let sample = s.query().expect("sample exists").clone();
            let g = pts
                .iter()
                .zip(labels.iter())
                .find(|(p, _)| **p == sample)
                .map(|(_, &g)| g)
                .expect("sample came from the stream");
            hist.record(g);
        }
        // generous bound: with 600 runs over 25 groups, uniform sampling
        // gives stdDevNm well below 0.5
        assert!(
            hist.std_dev_nm() < 0.5,
            "stdDevNm {} too large",
            hist.std_dev_nm()
        );
    }

    #[test]
    fn k_query_returns_distinct_groups() {
        let (pts, _, _, alpha) = small_dataset(9);
        let cfg = SamplerConfig::builder(4, alpha)
            .seed(37)
            .expected_len(pts.len() as u64)
            .k(3)
            .build()
            .unwrap();
        let mut s = RobustL0Sampler::try_new(cfg).unwrap();
        feed(&mut s, &pts);
        let picks = s.query_k(3);
        assert_eq!(picks.len(), 3);
        for i in 0..picks.len() {
            for j in (i + 1)..picks.len() {
                assert!(!picks[i].rep.within(&picks[j].rep, alpha));
            }
        }
    }

    #[test]
    fn f0_estimate_tracks_group_count() {
        let (pts, _, n, alpha) = small_dataset(10);
        let cfg = SamplerConfig::builder(4, alpha)
            .seed(41)
            .expected_len(pts.len() as u64)
            .build()
            .unwrap();
        let mut s = RobustL0Sampler::try_new(cfg).unwrap();
        feed(&mut s, &pts);
        // with the default generous threshold nothing is subsampled, so
        // the estimate counts candidate groups exactly
        if s.level() == 0 {
            assert_eq!(s.f0_estimate() as usize, s.accept_set().len());
            assert_eq!(s.accept_set().len() + s.reject_set().len(), n);
        }
    }

    #[test]
    fn space_is_bounded_and_tracked() {
        let (pts, _, _, alpha) = small_dataset(11);
        let cfg = SamplerConfig::builder(4, alpha)
            .seed(43)
            .expected_len(pts.len() as u64)
            .kappa0(1.0)
            .build()
            .unwrap();
        let mut s = RobustL0Sampler::try_new(cfg).unwrap();
        feed(&mut s, &pts);
        assert!(s.peak_words() >= s.words());
        assert!(s.peak_words() > 0);
    }

    #[test]
    fn zero_threshold_rejected() {
        let err =
            RobustL0Sampler::try_with_threshold(SamplerConfig::builder(2, 1.0).build().unwrap(), 0)
                .unwrap_err();
        assert!(err.to_string().contains("threshold must be at least 1"));
    }

    #[test]
    fn batch_processing_matches_per_point_processing() {
        // The sharded engine relies on this: feeding a batch must leave
        // the sampler in exactly the state per-point feeding produces.
        let (pts, _, _, alpha) = small_dataset(12);
        let cfg = SamplerConfig::builder(4, alpha)
            .seed(47)
            .expected_len(pts.len() as u64)
            .kappa0(1.0)
            .build()
            .unwrap(); // force doublings mid-batch
        let mut one = RobustL0Sampler::try_new(cfg.clone()).unwrap();
        let mut per_point = BatchStats::default();
        for p in &pts {
            per_point.record(one.process(p));
        }
        let mut batched = RobustL0Sampler::try_new(cfg).unwrap();
        let mut stats = BatchStats::default();
        for chunk in pts.chunks(17) {
            stats.merge(&batched.process_batch(chunk));
        }
        assert_eq!(stats, per_point);
        assert_eq!(stats.total(), pts.len() as u64);
        assert_eq!(batched.seen(), one.seen());
        assert_eq!(batched.level(), one.level());
        assert_eq!(batched.f0_estimate(), one.f0_estimate());
        let batched_acc = batched.accept_set();
        let one_acc = one.accept_set();
        assert_eq!(batched_acc.len(), one_acc.len());
        for (a, b) in batched_acc.iter().zip(one_acc.iter()) {
            assert_eq!(a.rep, b.rep);
            assert_eq!(a.count, b.count);
            assert_eq!(a.cell_hash, b.cell_hash);
        }
        // The RNG positions agree too: reservoir draws happened in the
        // same order with the same word consumption.
        assert_eq!(RngState::capture(&batched.rng), RngState::capture(&one.rng));
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut s =
            RobustL0Sampler::try_new(SamplerConfig::builder(2, 0.5).build().unwrap()).unwrap();
        let stats = s.process_batch(&[]);
        assert_eq!(stats, BatchStats::default());
        assert_eq!(s.seen(), 0);
        assert!(s.query().is_none());
    }

    #[test]
    fn doubling_stops_at_the_level_cap() {
        // An over-full accept set pinned at MAX_LEVEL: the doubling loop
        // must stop at the cap instead of spinning or overflowing the
        // 2^level arithmetic.
        let cfg = SamplerConfig::builder(1, 0.5).seed(3).build().unwrap();
        let mut base = RobustL0Sampler::try_with_threshold(cfg, 1).unwrap();
        base.process(&Point::new(vec![0.0]));
        let mut state = base.checkpoint_state();
        state.level = MAX_LEVEL;
        let far = |x: f64| GroupRecord {
            rep: Point::new(vec![x]),
            cell_hash: 1,
            count: 1,
            reservoir: Point::new(vec![x]),
        };
        state.acc = vec![far(0.0), far(100.0), far(200.0)];
        state.rej = Vec::new();
        let mut s = RobustL0Sampler::try_from_state(state).unwrap();
        assert_eq!(s.level(), MAX_LEVEL);
        s.process(&Point::new(vec![300.0]));
        assert_eq!(s.level(), MAX_LEVEL, "level must never exceed the cap");
        assert!(s.accept_set().len() > s.threshold());
        assert_eq!(
            s.f0_estimate(),
            s.accept_set().len() as f64 * (1u64 << MAX_LEVEL) as f64
        );
    }

    #[test]
    fn samplers_are_send() {
        // The sharded engine moves samplers into worker threads.
        fn assert_send<T: Send>() {}
        assert_send::<RobustL0Sampler>();
        assert_send::<crate::RobustF0Estimator>();
        assert_send::<crate::SlidingWindowSampler>();
        assert_send::<crate::SlidingWindowF0>();
        assert_send::<crate::FixedRateWindowSampler>();
    }
}
