//! Algorithms 3, 4 and 5: the space-efficient sliding-window sampler.
//!
//! A hierarchy of [`FixedRateWindowSampler`] instances (levels
//! `0..=log2 w`) with sample rates `1, 1/2, 1/4, ...` maintains a dynamic
//! partition of the window into subwindows (Definition 2.9): level 0
//! covers the most recent groups at rate 1, higher levels cover older
//! groups at geometrically coarser rates. When a level's accept set
//! exceeds `kappa_0 log m`, its oldest prefix is promoted one level up and
//! refiltered at the finer^W coarser rate (`Split`, Algorithm 4) and merged
//! into the next level (`Merge`, Algorithm 5), cascading as needed. At
//! query time every accepted group at level `ℓ` is resampled with
//! probability `R_ℓ / R_c` (where `c` is the highest occupied level) so
//! all maintained groups end up sampled at a common rate, and a uniform
//! choice among the survivors is returned (Theorem 2.7).
//!
//! ## Pseudocode deviations (the rationale for each is below)
//!
//! The paper's Algorithm 3 pseudocode conflicts in places with its own
//! analysis (Facts 3/4, Lemma 2.10); we implement the analysis-consistent
//! semantics:
//!
//! 1. New first points always enter at level 0 (rate 1), never directly at
//!    a higher level — otherwise `ALG_0` would not "include every point in
//!    `S_0^rep`" as Lemma 2.10's proof requires. Higher levels are
//!    populated exclusively by `Split`.
//! 2. Lower levels are pruned when a point refreshes an **accepted**
//!    group (that is when the subwindow boundary — the last point of
//!    `A(Sacc_ℓ)` — moves past everything newer), not on any match.
//! 3. A point refreshing a **rejected** group re-registers the group at
//!    level 0 with itself as the new representative: the group's last
//!    point now lies in the newest subwindow, where every group must be
//!    tracked at rate 1. Without this, a stream ending in points of a
//!    single rejected group would leave every accept set empty and break
//!    Lemma 2.10's guarantee that a non-empty window always yields a
//!    sample.

use crate::checkpoint::{checkpoint_err, Checkpointable, RngState};
use crate::config::{SamplerConfig, SamplerContext};
use crate::error::RdsError;
use crate::infinite::{GroupRecord, ProcessOutcome};
use crate::sampler::{window_entry_record, DistinctSampler, EntryChunk, WindowSummary};
use crate::sw_fixed::{FixedRateLevelState, FixedRateWindowSampler, WindowGroupEntry};
use rand::rngs::StdRng;
use rand::seq::{IndexedRandom, SliceRandom};
use rand::{RngExt, SeedableRng};
use rds_geometry::Point;
use rds_metrics::SpaceMeter;
use rds_stream::{Stamp, StreamItem, Window};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// What the query of a sliding-window sampler returns: the sampled group's
/// representative, latest point, and size bookkeeping.
#[derive(Clone, Debug)]
pub struct GroupSample {
    /// The group's representative for the current window.
    pub representative: Point,
    /// The group's latest point — always inside the window; this is the
    /// value Algorithm 3 line 23 returns.
    pub latest: Point,
    /// A reservoir-sampled random member (Section 2.3 extension).
    pub random_member: Point,
    /// Number of group points observed since the representative.
    pub count: u64,
}

impl From<&WindowGroupEntry> for GroupSample {
    fn from(e: &WindowGroupEntry) -> Self {
        Self {
            representative: e.rep.clone(),
            latest: e.last.clone(),
            random_member: e.reservoir.clone(),
            count: e.count,
        }
    }
}

/// Algorithm 3 of the paper: robust ℓ0-sampling over sliding windows in
/// `O(log w log m)` words.
///
/// Works for both sequence-based and time-based windows; pass the desired
/// [`Window`] at construction.
///
/// # Examples
///
/// ```
/// use rds_core::{SlidingWindowSampler, SamplerConfig};
/// use rds_geometry::Point;
/// use rds_stream::{Stamp, StreamItem, Window};
///
/// let cfg = SamplerConfig::builder(1, 0.5).seed(5).build().unwrap();
/// let mut s = SlidingWindowSampler::try_new(cfg, Window::Sequence(16)).unwrap();
/// for i in 0..100u64 {
///     s.process(&StreamItem::new(Point::new(vec![(i % 40) as f64 * 10.0]), Stamp::at(i)));
/// }
/// let sample = s.query().expect("window is non-empty");
/// assert_eq!(sample.latest.dim(), 1);
/// ```
#[derive(Debug)]
pub struct SlidingWindowSampler {
    ctx: Arc<SamplerContext>,
    window: Window,
    levels: Vec<FixedRateWindowSampler>,
    threshold: usize,
    scratch: Vec<i64>,
    rng: StdRng,
    seen: u64,
    overflow_errors: u64,
    split_failures: u64,
    space: SpaceMeter,
    /// Per-level copy-on-write snapshot cache: the entry chunk published
    /// for a level at the [`FixedRateWindowSampler::mutations`] reading it
    /// was built from. A level whose counter is unchanged re-publishes its
    /// `Arc` chunk without copying a single entry. Lazily sized; never
    /// serialized.
    summary_cache: Vec<Option<(u64, EntryChunk)>>,
}

impl SlidingWindowSampler {
    /// Creates the sampler over a bounded window (with the
    /// configuration's default threshold).
    ///
    /// # Errors
    ///
    /// [`RdsError::UnboundedWindow`] / [`RdsError::EmptyWindow`] for a bad
    /// window (use [`crate::RobustL0Sampler`] for the infinite window), or
    /// any [`SamplerConfig::validate`] failure.
    pub fn try_new(cfg: SamplerConfig, window: Window) -> Result<Self, RdsError> {
        let threshold = cfg.threshold();
        Self::try_with_threshold(cfg, window, threshold)
    }

    /// Creates the sampler with an explicit per-level `|Sacc|` threshold
    /// (the Section 5 F0 regime uses `kappa_B / eps^2`).
    ///
    /// # Errors
    ///
    /// [`RdsError::UnboundedWindow`], [`RdsError::EmptyWindow`],
    /// [`RdsError::InvalidThreshold`], or any [`SamplerConfig::validate`]
    /// failure.
    pub fn try_with_threshold(
        cfg: SamplerConfig,
        window: Window,
        threshold: usize,
    ) -> Result<Self, RdsError> {
        cfg.validate()?;
        let w = window.len().ok_or(RdsError::UnboundedWindow)?;
        if w == 0 {
            return Err(RdsError::EmptyWindow);
        }
        if threshold == 0 {
            return Err(RdsError::InvalidThreshold);
        }
        let seed = cfg.seed;
        // ceil(log2 w) clamped to [1, MAX_LEVEL]: at w = u64::MAX the
        // unclamped value is 64, which `level_sampled` (shift by `level`)
        // and the `2^l` in `f0_estimate` cannot represent — and a rate of
        // 2^-MAX_LEVEL is already unreachable for any physical stream.
        let top = (64 - (w - 1).leading_zeros()).clamp(1, crate::MAX_LEVEL);
        let ctx = Arc::new(SamplerContext::new(cfg));
        let levels = (0..=top)
            .map(|l| FixedRateWindowSampler::with_context(ctx.clone(), window, l, seed))
            .collect();
        Ok(Self {
            ctx,
            window,
            levels,
            threshold,
            scratch: Vec::new(),
            rng: StdRng::seed_from_u64(seed ^ 0x51D1_1365),
            seen: 0,
            overflow_errors: 0,
            split_failures: 0,
            space: SpaceMeter::new(),
            summary_cache: Vec::new(),
        })
    }

    /// Expires entries at every level against `now` without feeding a
    /// point (the trait-level [`DistinctSampler::advance`]).
    pub fn expire(&mut self, now: Stamp) {
        for lvl in &mut self.levels {
            lvl.expire(now);
        }
    }

    /// Feeds one stream item. Stamps must be non-decreasing.
    pub fn process(&mut self, item: &StreamItem) -> ProcessOutcome {
        self.seen += 1;
        // Expire at every level (Algorithm 2 lines 1-3 run per instance).
        for lvl in &mut self.levels {
            lvl.expire(item.stamp);
        }
        // Match pass, top level first: each group has exactly one entry.
        let outcome = 'arrival: {
            for l in (0..self.levels.len()).rev() {
                match self.levels[l].try_match(item) {
                    Some(true) => {
                        // Refreshed an accepted group: the subwindow of
                        // level l now extends to the newest point; prune
                        // everything below (Algorithm 3 lines 8-9).
                        for j in 0..l {
                            self.levels[j].clear();
                        }
                        break 'arrival ProcessOutcome::Duplicate;
                    }
                    Some(false) => {
                        // Refreshed a rejected group: re-register it at
                        // level 0 (deviation 3 in the module docs). Take
                        // the refreshed entry out of level l and restart
                        // the group with the new point as representative.
                        self.remove_last_matched(l, item);
                        self.insert_at_level_zero(item);
                        break 'arrival ProcessOutcome::Duplicate;
                    }
                    None => {}
                }
            }
            // First point of its group in the window: level 0, rate 1.
            self.insert_at_level_zero(item);
            ProcessOutcome::Accepted
        };
        self.cascade();
        self.space.observe(self.words());
        outcome
    }

    /// Removes the entry of level `l` whose group contains `item` (the
    /// entry `try_match` just refreshed).
    fn remove_last_matched(&mut self, l: usize, item: &StreamItem) {
        let alpha = self.ctx.alpha();
        self.levels[l].retain_entries(|e| !e.rep.within(&item.point, alpha));
    }

    fn insert_at_level_zero(&mut self, item: &StreamItem) {
        let h = self.ctx.cell_hash(&item.point, &mut self.scratch);
        // Rate 1: every cell is sampled, the entry is accepted.
        let entry = WindowGroupEntry::new_accepted(&item.point, h, item.stamp);
        // lint:allow(L1) levels is sized at construction and never
        // shrinks, so level 0 always exists
        self.levels[0].push_entry(entry);
    }

    /// Algorithm 3 lines 10-17: while some level's accept set exceeds the
    /// threshold, split it and merge the promoted prefix one level up.
    fn cascade(&mut self) {
        let top = self.levels.len() - 1;
        let mut j = 0usize;
        while self.levels[j].accepted_len() > self.threshold {
            if j == top {
                // The paper returns "error" here (Lemma 2.8: probability
                // <= 1/m^2). We record the event and keep the oversized
                // top level: the sampler stays correct, merely larger.
                self.overflow_errors += 1;
                break;
            }
            match self.levels[j].split() {
                Some(promoted) => self.levels[j + 1].absorb(promoted),
                None => {
                    // No accepted representative survives the finer rate —
                    // negligible probability. Keep the oversized level.
                    self.split_failures += 1;
                    break;
                }
            }
            j += 1;
        }
    }

    /// Draws a robust ℓ0-sample of the current window: a uniformly random
    /// group's state. `None` iff the window is empty.
    ///
    /// Implements Algorithm 3 lines 19-23: every accepted group at level
    /// `ℓ` enters the pool with probability `R_ℓ / R_c` (where `c` is the
    /// highest level with a non-empty accept set), unifying all sample
    /// rates at `2^-c`; the result is uniform among the pool.
    pub fn query(&mut self) -> Option<GroupSample> {
        let pool = self.pooled(|e| GroupSample::from(e));
        debug_assert!(
            pool.is_empty() == self.max_nonempty_level().is_none(),
            "level c contributes with probability 1"
        );
        pool.choose(&mut self.rng).cloned()
    }

    /// Draws up to `k` *distinct* groups (Section 2.3: configure
    /// [`crate::SamplerConfigBuilder::k`] so the per-level threshold scales with
    /// `k`).
    pub fn query_k(&mut self, k: usize) -> Vec<GroupSample> {
        let mut pool = self.pooled(|e| GroupSample::from(e));
        pool.shuffle(&mut self.rng);
        pool.truncate(k);
        pool
    }

    /// The highest level with a non-empty accept set (the value `c` of
    /// Algorithm 3 line 20 and the per-copy statistic of the Section 5
    /// sliding-window F0 estimator). `None` when the window is empty.
    pub fn max_nonempty_level(&self) -> Option<u32> {
        (0..self.levels.len())
            .rev()
            .find(|&l| self.levels[l].accepted_len() > 0)
            .map(|l| l as u32)
    }

    /// Horvitz–Thompson estimate of the number of groups in the window:
    /// `Σ_ℓ |Sacc_ℓ| * 2^ℓ` (each accepted group at level `ℓ` represents
    /// `2^ℓ` groups). The sliding-window analogue of `|Sacc| * R`.
    pub fn f0_estimate(&self) -> f64 {
        self.levels
            .iter()
            .enumerate()
            .map(|(l, lvl)| lvl.accepted_len() as f64 * 2f64.powi(l as i32))
            .sum()
    }

    /// Number of items processed.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The per-level `|Sacc|` threshold in force.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Number of levels (`1 + ceil(log2 w)`).
    pub fn n_levels(&self) -> usize {
        self.levels.len()
    }

    /// Per-level accepted/rejected counts, oldest level last — diagnostic
    /// view of the subwindow structure.
    pub fn level_occupancy(&self) -> Vec<(usize, usize)> {
        self.levels
            .iter()
            .map(|l| (l.accepted_len(), l.rejected_len()))
            .collect()
    }

    /// How often the cascade hit the top level (the paper's "error"
    /// output, probability `O(1/m^2)` per step by Lemma 2.8).
    pub fn overflow_errors(&self) -> u64 {
        self.overflow_errors
    }

    /// How often a split found no promotable accepted representative
    /// (negligible probability; the level is left oversized).
    pub fn split_failures(&self) -> u64 {
        self.split_failures
    }

    /// The window model.
    pub fn window(&self) -> Window {
        self.window
    }

    /// Current footprint in machine words.
    pub fn words(&self) -> usize {
        let level_words: usize = self.levels.iter().map(|l| l.words()).sum();
        // Each live entry costs at least ten words (three points of at
        // least one coordinate, hash, two stamps, count, flag); a total
        // below that floor means the accounting under-reports space.
        debug_assert!(
            level_words >= 10 * self.all_entries().count(),
            "words() accounting fell below the per-entry floor"
        );
        self.ctx.words() + level_words + 6
    }

    /// Peak footprint (the paper's `pSpace`).
    pub fn peak_words(&self) -> usize {
        self.space.peak_words()
    }

    /// The shared context (grid + hash).
    pub fn context(&self) -> &SamplerContext {
        &self.ctx
    }

    /// All live entries across levels (diagnostics/tests).
    pub fn all_entries(&self) -> impl Iterator<Item = &WindowGroupEntry> {
        self.levels.iter().flat_map(|l| l.entries().iter())
    }

    /// Algorithm 3 lines 19-22, the single pooling implementation behind
    /// every query flavour: each accepted entry at level `ℓ` enters the
    /// pool with probability `2^-(c-ℓ)` (where `c` is the highest
    /// occupied level), mapped through `view`.
    fn pooled<T>(&mut self, view: impl Fn(&WindowGroupEntry) -> T) -> Vec<T> {
        let Some(c) = self.max_nonempty_level() else {
            return Vec::new();
        };
        let mut pool = Vec::new();
        for l in 0..=c {
            let keep_prob = 0.5f64.powi((c - l) as i32);
            for e in self.levels[l as usize].entries() {
                if !e.accepted {
                    continue;
                }
                if keep_prob >= 1.0 || self.rng.random_range(0.0..1.0) < keep_prob {
                    pool.push(view(e));
                }
            }
        }
        pool
    }
}

/// The serializable full state of a [`SlidingWindowSampler`]: one
/// [`FixedRateLevelState`] per hierarchy level (entries + per-level PRNG
/// position), the window model, the threshold, the clocks and the query
/// PRNG position. The shared grid/hash context is a deterministic
/// function of the embedded [`SamplerConfig`] and is rebuilt on restore.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SlidingWindowState {
    cfg: SamplerConfig,
    window: Window,
    threshold: usize,
    levels: Vec<FixedRateLevelState>,
    seen: u64,
    overflow_errors: u64,
    split_failures: u64,
    rng: RngState,
    peak_words: usize,
}

impl SlidingWindowState {
    /// The configuration the checkpointed sampler was built from.
    pub fn cfg(&self) -> &SamplerConfig {
        &self.cfg
    }

    /// The window model in force at capture time.
    pub fn window(&self) -> Window {
        self.window
    }

    /// The per-level states, level 0 first.
    pub fn levels(&self) -> &[FixedRateLevelState] {
        &self.levels
    }
}

impl Checkpointable for SlidingWindowSampler {
    type State = SlidingWindowState;

    fn checkpoint_state(&self) -> SlidingWindowState {
        SlidingWindowState {
            cfg: self.ctx.cfg().clone(),
            window: self.window,
            threshold: self.threshold,
            levels: self.levels.iter().map(|l| l.capture_level()).collect(),
            seen: self.seen,
            overflow_errors: self.overflow_errors,
            split_failures: self.split_failures,
            rng: RngState::capture(&self.rng),
            peak_words: self.space.peak_words(),
        }
    }

    fn try_from_state(state: SlidingWindowState) -> Result<Self, RdsError> {
        let mut s = Self::try_with_threshold(state.cfg, state.window, state.threshold)?;
        if s.levels.len() != state.levels.len() {
            return Err(checkpoint_err(format!(
                "window {:?} builds {} hierarchy levels but the state holds {}",
                state.window,
                s.levels.len(),
                state.levels.len()
            )));
        }
        for (lvl, st) in s.levels.iter_mut().zip(state.levels) {
            lvl.restore_level(st)?;
        }
        s.seen = state.seen;
        s.overflow_errors = state.overflow_errors;
        s.split_failures = state.split_failures;
        s.rng = state.rng.restore();
        s.space.observe(state.peak_words);
        s.space.observe(s.words());
        Ok(s)
    }

    fn state_config(state: &SlidingWindowState) -> Option<&SamplerConfig> {
        Some(&state.cfg)
    }

    fn state_window(state: &SlidingWindowState) -> Option<Window> {
        Some(state.window)
    }
}

impl DistinctSampler for SlidingWindowSampler {
    type Summary = WindowSummary;

    /// Expiry changes the summary as the clock moves, without new items.
    const TIME_SENSITIVE: bool = true;

    fn process(&mut self, item: &StreamItem) -> ProcessOutcome {
        SlidingWindowSampler::process(self, item)
    }

    fn advance(&mut self, now: Stamp) {
        self.expire(now);
    }

    /// The record's `rep` is the group's latest point (always inside the
    /// window).
    fn query_record(&mut self) -> Option<GroupRecord> {
        let pool = self.pooled(window_entry_record);
        pool.choose(&mut self.rng).cloned()
    }

    fn query_k(&mut self, k: usize) -> Vec<GroupRecord> {
        let mut pool = self.pooled(window_entry_record);
        pool.shuffle(&mut self.rng);
        pool.truncate(k);
        pool
    }

    fn f0_estimate(&self) -> f64 {
        SlidingWindowSampler::f0_estimate(self)
    }

    fn seen(&self) -> u64 {
        SlidingWindowSampler::seen(self)
    }

    fn words(&self) -> usize {
        SlidingWindowSampler::words(self)
    }

    fn summary(&self) -> WindowSummary {
        let entries = self
            .levels
            .iter()
            .enumerate()
            .flat_map(|(l, lvl)| {
                lvl.entries()
                    .iter()
                    .filter(|e| e.accepted)
                    .map(move |e| (l as u32, e.clone()))
            })
            .collect();
        WindowSummary::from_parts(self.ctx.cfg().clone(), entries)
    }

    /// Rebuilds only the per-level chunks whose [`FixedRateWindowSampler`]
    /// mutation counter moved since the previous call; untouched levels
    /// contribute their previously published `Arc` chunk as-is. Always
    /// equal to [`Self::summary`] (the chunks flatten to the same entry
    /// sequence: levels in order, accepted entries in arrival order).
    fn summary_cow(&mut self) -> WindowSummary {
        if self.summary_cache.len() != self.levels.len() {
            self.summary_cache = vec![None; self.levels.len()];
        }
        let mut chunks = Vec::new();
        for (l, lvl) in self.levels.iter().enumerate() {
            let muts = lvl.mutations();
            let chunk = match &self.summary_cache[l] {
                Some((stamp, chunk)) if *stamp == muts => chunk.clone(),
                _ => {
                    let built: EntryChunk = Arc::new(
                        lvl.entries()
                            .iter()
                            .filter(|e| e.accepted)
                            .map(|e| (l as u32, e.clone()))
                            .collect(),
                    );
                    self.summary_cache[l] = Some((muts, built.clone()));
                    built
                }
            };
            if !chunk.is_empty() {
                chunks.push(chunk);
            }
        }
        WindowSummary::from_chunks(self.ctx.cfg().clone(), chunks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rds_stream::Stamp;

    fn item(x: f64, seq: u64) -> StreamItem {
        StreamItem::new(Point::new(vec![x]), Stamp::at(seq))
    }

    fn cfg(seed: u64) -> SamplerConfig {
        SamplerConfig::builder(1, 0.5)
            .seed(seed)
            .expected_len(1 << 12)
            .build()
            .unwrap()
    }

    /// Brute-force ground truth: group ids of live points under a
    /// sequence window, for 1-D streams where group = round(x / 10).
    fn live_groups(stream: &[StreamItem], now: u64, w: u64) -> Vec<i64> {
        let mut gs: Vec<i64> = stream
            .iter()
            .filter(|it| it.stamp.seq + w > now && it.stamp.seq <= now)
            .map(|it| (it.point.get(0) / 10.0).round() as i64)
            .collect();
        gs.sort_unstable();
        gs.dedup();
        gs
    }

    #[test]
    fn query_none_only_when_window_empty() {
        let mut s = SlidingWindowSampler::try_new(cfg(1), Window::Sequence(4)).unwrap();
        assert!(s.query().is_none());
        s.process(&item(0.0, 0));
        assert!(s.query().is_some());
    }

    #[test]
    fn single_group_stream_always_samples_it() {
        let mut s = SlidingWindowSampler::try_new(cfg(2), Window::Sequence(8)).unwrap();
        for i in 0..50u64 {
            s.process(&item(0.1 * ((i % 3) as f64), i));
            let q = s.query().expect("window never empty");
            assert!(q.latest.within(&Point::new(vec![0.0]), 0.5));
        }
    }

    #[test]
    fn sampled_latest_point_is_always_live() {
        let w = 16u64;
        let mut s = SlidingWindowSampler::try_new(cfg(3), Window::Sequence(w)).unwrap();
        let stream: Vec<StreamItem> = (0..300u64)
            .map(|i| item(((i * 7) % 60) as f64 * 10.0, i))
            .collect();
        for (i, it) in stream.iter().enumerate() {
            s.process(it);
            let q = s.query().expect("non-empty");
            // the returned latest point must be one of the live points
            let live: Vec<&StreamItem> = stream[..=i]
                .iter()
                .filter(|x| x.stamp.seq + w > it.stamp.seq)
                .collect();
            assert!(
                live.iter().any(|x| x.point == q.latest),
                "sampled point not live at step {i}"
            );
        }
    }

    #[test]
    fn tracked_groups_are_a_subset_of_live_groups() {
        let w = 32u64;
        let mut s = SlidingWindowSampler::try_new(cfg(4), Window::Sequence(w)).unwrap();
        let stream: Vec<StreamItem> = (0..400u64)
            .map(|i| item(((i * 13) % 90) as f64 * 10.0, i))
            .collect();
        for (i, it) in stream.iter().enumerate() {
            s.process(it);
            let live = live_groups(&stream[..=i], it.stamp.seq, w);
            for e in s.all_entries() {
                let g = (e.last.get(0) / 10.0).round() as i64;
                assert!(live.contains(&g), "tracked group {g} not live at {i}");
            }
        }
    }

    #[test]
    fn no_group_is_tracked_twice() {
        let mut s = SlidingWindowSampler::try_new(cfg(5), Window::Sequence(64)).unwrap();
        for i in 0..500u64 {
            s.process(&item(((i * 13) % 90) as f64 * 10.0, i));
            let mut reps: Vec<i64> = s
                .all_entries()
                .map(|e| (e.rep.get(0) / 10.0).round() as i64)
                .collect();
            let n = reps.len();
            reps.sort_unstable();
            reps.dedup();
            assert_eq!(reps.len(), n, "duplicate group entries at step {i}");
        }
    }

    #[test]
    fn cascade_keeps_levels_at_threshold() {
        let mut s = SlidingWindowSampler::try_new(
            SamplerConfig {
                kappa0: 0.5,
                ..cfg(6)
            }, // tight threshold to force splits
            Window::Sequence(256),
        )
        .unwrap();
        let mut over_budget_steps = 0u64;
        for i in 0..2000u64 {
            s.process(&item(((i * 13) % 512) as f64 * 10.0, i));
            let occ = s.level_occupancy();
            // All levels but possibly the top respect the threshold, up to
            // the slack accumulated by failed splits (a split fails with
            // probability 2^-|Sacc| when no accepted representative
            // survives the finer rate; the level is then left oversized
            // until a promotable entry arrives).
            for (l, (acc, _)) in occ.iter().enumerate().take(occ.len() - 1) {
                assert!(
                    *acc <= 2 * s.threshold() + 2,
                    "level {l} far over threshold at step {i}: {occ:?}"
                );
                if *acc > s.threshold() {
                    over_budget_steps += 1;
                }
            }
        }
        assert_eq!(s.overflow_errors(), 0);
        // oversized levels must be the exception, not the rule
        assert!(
            over_budget_steps < 400,
            "levels exceeded the threshold during {over_budget_steps} level-steps"
        );
    }

    #[test]
    fn levels_above_zero_only_hold_rate_passing_accepts() {
        let mut s = SlidingWindowSampler::try_new(
            SamplerConfig {
                kappa0: 0.5,
                ..cfg(7)
            },
            Window::Sequence(128),
        )
        .unwrap();
        for i in 0..1500u64 {
            s.process(&item(((i * 29) % 300) as f64 * 10.0, i));
        }
        for (l, lvl) in s.levels.iter().enumerate() {
            for e in lvl.entries() {
                if e.accepted {
                    assert!(
                        s.ctx.hash_sampled(e.rep_hash, l as u32),
                        "accepted entry at level {l} fails its rate"
                    );
                }
            }
        }
    }

    #[test]
    fn time_based_window_works() {
        let mut s = SlidingWindowSampler::try_new(cfg(8), Window::Time(10)).unwrap();
        // bursts: 5 groups at time 0, 1 group at time 20
        for g in 0..5u64 {
            s.process(&StreamItem::new(
                Point::new(vec![g as f64 * 10.0]),
                Stamp::new(g, 0),
            ));
        }
        assert!(s.query().is_some());
        s.process(&StreamItem::new(Point::new(vec![990.0]), Stamp::new(5, 20)));
        // the burst expired; only the last group is live
        let q = s.query().expect("non-empty");
        assert_eq!(q.latest, Point::new(vec![990.0]));
    }

    #[test]
    fn rejected_group_refresh_keeps_sampler_answerable() {
        // Regression test for deviation 3: force a scenario where the only
        // live group was once rejected at a high level, then refreshed.
        let mut s = SlidingWindowSampler::try_new(
            SamplerConfig {
                kappa0: 0.5,
                ..cfg(9)
            },
            Window::Sequence(64),
        )
        .unwrap();
        // Fill with many groups to push entries upward (some rejected).
        for i in 0..512u64 {
            s.process(&item(((i * 13) % 128) as f64 * 10.0, i));
        }
        // Now stream only points of one group; everything else expires.
        for i in 512..600u64 {
            s.process(&item(40.0 + 0.01 * (i % 3) as f64, i));
            let q = s.query().expect("window non-empty (Lemma 2.10)");
            if i >= 512 + 64 {
                assert!(
                    q.latest.within(&Point::new(vec![40.0]), 0.5),
                    "only group 4 is live"
                );
            }
        }
    }

    #[test]
    fn uniformity_over_groups_in_window() {
        // Scaled-down empirical check of Theorem 2.7: cycle through 12
        // groups; at the end the window holds all 12; sampling must be
        // roughly uniform over independent sampler instances.
        let n_groups = 12u64;
        let stream: Vec<StreamItem> = (0..240u64)
            .map(|i| item((i % n_groups) as f64 * 10.0, i))
            .collect();
        let mut hist = rds_metrics::SampleHistogram::new(n_groups as usize);
        for run in 0..800u64 {
            let mut s = SlidingWindowSampler::try_new(
                SamplerConfig::builder(1, 0.5)
                    .seed(run * 101 + 7)
                    .expected_len(240)
                    .kappa0(1.0)
                    .build()
                    .unwrap(),
                Window::Sequence(2 * n_groups),
            )
            .unwrap();
            for it in &stream {
                s.process(it);
            }
            let q = s.query().expect("non-empty");
            let g = (q.latest.get(0) / 10.0).round() as usize;
            hist.record(g);
        }
        assert!(
            hist.std_dev_nm() < 0.45,
            "stdDevNm {} too large; counts {:?}",
            hist.std_dev_nm(),
            hist.counts()
        );
    }

    #[test]
    fn k_query_returns_distinct_groups() {
        let mut s = SlidingWindowSampler::try_new(
            SamplerConfig {
                k: 3,
                kappa0: 1.0,
                ..cfg(10)
            },
            Window::Sequence(64),
        )
        .unwrap();
        for i in 0..200u64 {
            s.process(&item((i % 40) as f64 * 10.0, i));
        }
        let picks = s.query_k(3);
        assert_eq!(picks.len(), 3);
        for i in 0..picks.len() {
            for j in (i + 1)..picks.len() {
                assert!(!picks[i]
                    .representative
                    .within(&picks[j].representative, 0.5));
            }
        }
    }

    #[test]
    fn f0_estimate_is_in_the_right_ballpark() {
        let n_groups = 64u64;
        let mut s = SlidingWindowSampler::try_new(cfg(11), Window::Sequence(512)).unwrap();
        for i in 0..2048u64 {
            s.process(&item((i % n_groups) as f64 * 10.0, i));
        }
        let est = s.f0_estimate();
        assert!(
            est >= n_groups as f64 / 4.0 && est <= n_groups as f64 * 4.0,
            "estimate {est} far from {n_groups}"
        );
    }

    #[test]
    fn space_stays_polylogarithmic() {
        // window 4096, ~8192 groups: the naive tracker would hold 4096
        // entries; the hierarchy must stay well below that.
        let mut s = SlidingWindowSampler::try_new(
            SamplerConfig::builder(1, 0.5)
                .seed(12)
                .expected_len(1 << 14)
                .kappa0(1.0)
                .build()
                .unwrap(),
            Window::Sequence(4096),
        )
        .unwrap();
        for i in 0..16384u64 {
            s.process(&item((i % 8192) as f64 * 10.0, i));
        }
        let entries: usize = s.all_entries().count();
        assert!(
            entries < 1200,
            "hierarchy holds {entries} entries; expected O(log w log m)"
        );
        assert!(s.peak_words() > 0);
    }

    #[test]
    fn infinite_window_is_rejected() {
        let err = SlidingWindowSampler::try_new(cfg(13), Window::Infinite).unwrap_err();
        assert!(matches!(err, RdsError::UnboundedWindow));
    }

    #[test]
    fn sequence_and_time_agree_when_stamps_coincide() {
        let stream: Vec<StreamItem> = (0..100u64)
            .map(|i| item((i % 20) as f64 * 10.0, i))
            .collect();
        let mut a = SlidingWindowSampler::try_new(cfg(14), Window::Sequence(16)).unwrap();
        let mut b = SlidingWindowSampler::try_new(cfg(14), Window::Time(16)).unwrap();
        for it in &stream {
            a.process(it);
            b.process(it);
        }
        // identical seeds + identical expiry semantics => same structure
        assert_eq!(a.level_occupancy(), b.level_occupancy());
    }
}
