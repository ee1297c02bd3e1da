//! Algorithm 2: sliding-window sampling with a *fixed* cell sample rate.
//!
//! Besides the accept and reject sets of Algorithm 1, the sliding-window
//! subroutine maintains the key-value store `A` of pairs `(u, p)` where
//! `u` is a candidate group's representative and `p` is the group's
//! *latest* point (always inside the window). When a group's latest point
//! expires, the whole entry is deleted; when a new first point arrives it
//! becomes the representative of its group for the current window
//! (Observation 1 of the paper).
//!
//! This struct is used standalone (it is a correct sampler, merely without
//! a good space bound — it may hold up to `w/R` entries) and as the
//! per-level building block of the hierarchical Algorithm 3, which calls
//! the crate-internal `split`/`absorb` methods implementing Algorithms 4
//! and 5.

use crate::checkpoint::{check_dims, check_level, checkpoint_err, Checkpointable, RngState};
use crate::config::{SamplerConfig, SamplerContext};
use crate::error::RdsError;
use crate::infinite::{GroupRecord, ProcessOutcome};
use crate::sampler::{window_entry_record, DistinctSampler, WindowSummary};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::SeedableRng;
use rds_geometry::Point;
use rds_stream::{Stamp, StreamItem, Window};
use std::sync::Arc;

/// Per-group state of the sliding-window samplers: the representative
/// `u`, the latest point `p` (the value of the pair `(u, p) ∈ A`), and
/// bookkeeping. Serializes as part of [`WindowSummary`] (the offline
/// snapshot path).
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct WindowGroupEntry {
    /// The group's representative for the current window.
    pub rep: Point,
    /// `h(cell(rep))`, cached for split refiltering.
    pub rep_hash: u64,
    /// When the representative arrived.
    pub rep_stamp: Stamp,
    /// Whether the group is in the accept set (`true`) or the reject set
    /// (`false`).
    pub accepted: bool,
    /// The group's latest point (inside the window).
    pub last: Point,
    /// When the latest point arrived; the entry expires when this leaves
    /// the window.
    pub last_stamp: Stamp,
    /// Number of points of the group observed since the representative.
    pub count: u64,
    /// Reservoir-sampled random member of the group since the
    /// representative (Section 2.3 extension).
    pub reservoir: Point,
}

impl WindowGroupEntry {
    /// Builds an accepted entry with `p` as both representative and latest
    /// point (used by Algorithm 3's level-0 insertion, where rate 1
    /// accepts every cell).
    pub(crate) fn new_accepted(p: &Point, hash: u64, stamp: Stamp) -> Self {
        Self::new(p, hash, stamp, true)
    }

    fn new(p: &Point, hash: u64, stamp: Stamp, accepted: bool) -> Self {
        Self {
            rep: p.clone(),
            rep_hash: hash,
            rep_stamp: stamp,
            accepted,
            last: p.clone(),
            last_stamp: stamp,
            count: 1,
            reservoir: p.clone(),
        }
    }

    /// Words of memory used by the entry (`pSpace` accounting).
    pub fn words(&self) -> usize {
        // rep + last + reservoir coordinates, hash, 2 stamps (2 words
        // each), count, flag
        3 * self.rep.words() + 7
    }
}

/// Algorithm 2 of the paper: a sliding-window robust ℓ0-sampler whose cell
/// sample rate is fixed at `1/R = 2^-level`.
///
/// # Examples
///
/// ```
/// use rds_core::{FixedRateWindowSampler, SamplerConfig};
/// use rds_geometry::Point;
/// use rds_stream::{Stamp, StreamItem, Window};
///
/// let cfg = SamplerConfig::builder(1, 0.5).seed(3).build().unwrap();
/// let mut s = FixedRateWindowSampler::new(cfg, Window::Sequence(4), 0);
/// for i in 0..10u64 {
///     let item = StreamItem::new(Point::new(vec![i as f64 * 10.0]), Stamp::at(i));
///     s.process(&item);
/// }
/// // rate 1 (level 0) tracks every group in the window
/// assert_eq!(s.accepted_len(), 4);
/// ```
#[derive(Debug)]
pub struct FixedRateWindowSampler {
    ctx: Arc<SamplerContext>,
    window: Window,
    level: u32,
    entries: Vec<WindowGroupEntry>,
    scratch: Vec<i64>,
    rng: StdRng,
    seen: u64,
    /// Monotone count of operations that changed `entries` — the level's
    /// dirty bit for copy-on-write snapshots: a level whose counter is
    /// unchanged since the last snapshot can reuse its published chunk.
    mutations: u64,
}

impl FixedRateWindowSampler {
    /// Creates a sampler with rate `2^-level` over `window`.
    // lint:allow(L4) infallible by design: a pure delegation to
    // with_context over an already-builder-validated config — there is
    // no validation a try_new could fail
    pub fn new(cfg: SamplerConfig, window: Window, level: u32) -> Self {
        let seed = cfg.seed;
        Self::with_context(Arc::new(SamplerContext::new(cfg)), window, level, seed)
    }

    /// Creates a sampler sharing an existing context (used by Algorithm 3,
    /// whose levels must agree on the grid and hash function).
    pub fn with_context(ctx: Arc<SamplerContext>, window: Window, level: u32, seed: u64) -> Self {
        Self {
            ctx,
            window,
            level,
            entries: Vec::new(),
            scratch: Vec::new(),
            rng: StdRng::seed_from_u64(seed ^ 0xA1 ^ ((level as u64) << 32)),
            seen: 0,
            mutations: 0,
        }
    }

    /// Feeds one stream item: expiry (lines 1-3), duplicate update
    /// (lines 4-6) or representative insertion (lines 7-10).
    pub fn process(&mut self, item: &StreamItem) -> ProcessOutcome {
        self.seen += 1;
        self.expire(item.stamp);
        if self.update_duplicate(item).is_some() {
            return ProcessOutcome::Duplicate;
        }
        self.insert_first_point(item)
    }

    /// Number of items processed through [`Self::process`] (items pushed
    /// by the Algorithm 3 hierarchy via `push_entry`/`absorb` are the
    /// parent's and are not counted here).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Horvitz–Thompson estimate of the number of groups in the window at
    /// this sampler's fixed rate: `|Sacc| * 2^level`.
    pub fn f0_estimate(&self) -> f64 {
        self.accepted_len() as f64 * 2f64.powi(self.level as i32)
    }

    /// Lines 1-3 of Algorithm 2: drop every group whose latest point has
    /// expired.
    pub fn expire(&mut self, now: Stamp) {
        let window = self.window;
        let before = self.entries.len();
        self.entries.retain(|e| window.live(e.last_stamp, now));
        if self.entries.len() != before {
            self.mutations += 1;
        }
    }

    /// Lines 4-6: if the item belongs to a tracked candidate group, record
    /// it as the group's latest point. Returns whether the matched group
    /// is accepted.
    pub(crate) fn update_duplicate(&mut self, item: &StreamItem) -> Option<bool> {
        let alpha = self.ctx.alpha();
        let rng = &mut self.rng;
        let mutations = &mut self.mutations;
        self.entries
            .iter_mut()
            .find(|e| e.rep.within(&item.point, alpha))
            .map(|e| {
                e.last = item.point.clone();
                e.last_stamp = item.stamp;
                e.count += 1;
                // One next_u64 via the word-at-a-time draw; identical
                // arithmetic and state evolution to random_range(0..count).
                if rng.word_below(e.count) == 0 {
                    e.reservoir = item.point.clone();
                }
                *mutations += 1;
                e.accepted
            })
    }

    /// Lines 7-10: the item is the first point of its group in the window;
    /// make it the representative, accepted when its own cell is sampled,
    /// rejected when only an adjacent cell is.
    pub(crate) fn insert_first_point(&mut self, item: &StreamItem) -> ProcessOutcome {
        let h = self.ctx.cell_hash(&item.point, &mut self.scratch);
        if self.ctx.hash_sampled(h, self.level) {
            self.entries
                .push(WindowGroupEntry::new(&item.point, h, item.stamp, true));
            self.mutations += 1;
            ProcessOutcome::Accepted
        } else if self.ctx.any_adjacent_sampled(&item.point, self.level) {
            self.entries
                .push(WindowGroupEntry::new(&item.point, h, item.stamp, false));
            self.mutations += 1;
            ProcessOutcome::Rejected
        } else {
            ProcessOutcome::Ignored
        }
    }

    /// Draws a uniformly random accepted group; the returned entry's
    /// `last` point is inside the window (Observation 1 guarantees each
    /// accepted group is a `1/R` sample of the window's groups).
    pub fn query(&mut self) -> Option<&WindowGroupEntry> {
        let accepted: Vec<usize> = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.accepted)
            .map(|(i, _)| i)
            .collect();
        accepted.choose(&mut self.rng).map(|&i| &self.entries[i])
    }

    /// Number of accepted groups (`|Sacc|`).
    pub fn accepted_len(&self) -> usize {
        self.entries.iter().filter(|e| e.accepted).count()
    }

    /// Number of rejected groups (`|Srej|`).
    pub fn rejected_len(&self) -> usize {
        self.entries.len() - self.accepted_len()
    }

    /// All tracked entries, ordered by representative arrival.
    pub fn entries(&self) -> &[WindowGroupEntry] {
        &self.entries
    }

    /// The sampler's rate exponent (`R = 2^level`).
    pub fn level(&self) -> u32 {
        self.level
    }

    /// The window model.
    pub fn window(&self) -> Window {
        self.window
    }

    /// Resets the sampler to the empty state, keeping its rate
    /// (`ALG_j <- (⊥, ⊥, ⊥, R_j)`, Algorithm 3 line 9).
    pub fn clear(&mut self) {
        if !self.entries.is_empty() {
            self.mutations += 1;
        }
        self.entries.clear();
    }

    /// Monotone dirty counter: bumped by every operation that changed the
    /// tracked entries. Two equal readings bracket a span with no content
    /// change — the copy-on-write snapshot reuse condition.
    pub(crate) fn mutations(&self) -> u64 {
        self.mutations
    }

    /// Words of memory used by the entries.
    pub fn words(&self) -> usize {
        self.entries
            .iter()
            .map(WindowGroupEntry::words)
            .sum::<usize>()
            + 2
    }

    /// Mutable duplicate-update for Algorithm 3's match pass: like
    /// `update_duplicate` but without expiry (the caller already expired
    /// all levels).
    pub(crate) fn try_match(&mut self, item: &StreamItem) -> Option<bool> {
        self.update_duplicate(item)
    }

    /// Inserts a pre-built entry (Algorithm 3's level-0 insertion and
    /// `Merge`'s entry transfer keep entries ordered by `rep_stamp`).
    pub(crate) fn push_entry(&mut self, entry: WindowGroupEntry) {
        debug_assert!(
            self.entries
                .last()
                .map(|e| e.rep_stamp <= entry.rep_stamp)
                .unwrap_or(true),
            "entries must stay ordered by representative arrival"
        );
        self.entries.push(entry);
        self.mutations += 1;
    }

    /// Algorithm 4 (`Split`): promotes the oldest prefix of this level to
    /// rate `2^-(level+1)`.
    ///
    /// Let `t` be the arrival stamp of the *latest* accepted
    /// representative that survives the finer rate. All entries with
    /// `rep_stamp <= t` are refiltered at `level + 1` (own cell sampled →
    /// accepted; else adjacent cell sampled → rejected; else dropped) and
    /// returned for merging into the next level; entries after `t` stay
    /// here. Returns `None` — without touching anything — when no accepted
    /// representative survives, an event of negligible probability that
    /// the caller surfaces as a failed split.
    pub(crate) fn split(&mut self) -> Option<Vec<WindowGroupEntry>> {
        let next = self.level + 1;
        let t = self
            .entries
            .iter()
            .filter(|e| e.accepted && self.ctx.hash_sampled(e.rep_hash, next))
            .map(|e| e.rep_stamp)
            .max()?;
        let mut promoted = Vec::new();
        let mut kept = Vec::new();
        for e in self.entries.drain(..) {
            if e.rep_stamp <= t {
                promoted.push(e);
            } else {
                kept.push(e);
            }
        }
        self.entries = kept;
        self.mutations += 1;
        // Refilter the promoted prefix at the finer rate. Fact 1b: an
        // accepted entry can stay accepted or degrade; a rejected entry
        // can never become accepted.
        let refiltered = promoted
            .into_iter()
            .filter_map(|mut e| {
                if self.ctx.hash_sampled(e.rep_hash, next) {
                    e.accepted = true;
                    Some(e)
                } else if self.ctx.any_adjacent_sampled(&e.rep, next) {
                    e.accepted = false;
                    Some(e)
                } else {
                    None
                }
            })
            .collect();
        Some(refiltered)
    }

    /// Algorithm 5 (`Merge`): absorbs entries promoted from the level
    /// below. The promoted entries are newer than everything already here
    /// (they come from a more recent subwindow), so ordering by
    /// `rep_stamp` is preserved by appending.
    pub(crate) fn absorb(&mut self, promoted: Vec<WindowGroupEntry>) {
        for e in promoted {
            self.push_entry(e);
        }
    }

    /// Keeps only the entries satisfying the predicate (Algorithm 3 uses
    /// this to pull a just-refreshed rejected group out of its level).
    pub(crate) fn retain_entries<F: FnMut(&WindowGroupEntry) -> bool>(&mut self, f: F) {
        let before = self.entries.len();
        self.entries.retain(f);
        if self.entries.len() != before {
            self.mutations += 1;
        }
    }
}

/// The serializable state of one fixed-rate instance: its rate exponent,
/// every tracked entry, its private PRNG position, and its per-instance
/// arrival counter. Used standalone (via [`FixedRateWindowState`]) and as
/// the per-level payload of the hierarchical sampler's state.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct FixedRateLevelState {
    level: u32,
    entries: Vec<WindowGroupEntry>,
    rng: RngState,
    seen: u64,
}

impl FixedRateLevelState {
    /// The rate exponent this level state belongs to.
    pub fn level(&self) -> u32 {
        self.level
    }

    /// The tracked entries (accepted and rejected).
    pub fn entries(&self) -> &[WindowGroupEntry] {
        &self.entries
    }
}

impl FixedRateWindowSampler {
    /// Captures this instance's level state (entries cloned; the sampler
    /// keeps running).
    pub(crate) fn capture_level(&self) -> FixedRateLevelState {
        FixedRateLevelState {
            level: self.level,
            entries: self.entries.clone(),
            rng: RngState::capture(&self.rng),
            seen: self.seen,
        }
    }

    /// Restores a captured level state into this (freshly built)
    /// instance, validating that the state belongs to this rate and that
    /// every stored point matches the configured dimension.
    pub(crate) fn restore_level(&mut self, state: FixedRateLevelState) -> Result<(), RdsError> {
        if state.level != self.level {
            return Err(checkpoint_err(format!(
                "level state for rate exponent {} restored into level {}",
                state.level, self.level
            )));
        }
        check_dims(
            self.ctx.cfg(),
            state
                .entries
                .iter()
                .flat_map(|e| [&e.rep, &e.last, &e.reservoir]),
            "window entries",
        )?;
        self.entries = state.entries;
        self.rng = state.rng.restore();
        self.seen = state.seen;
        self.mutations += 1;
        Ok(())
    }
}

/// The serializable full state of a standalone [`FixedRateWindowSampler`]:
/// the configuration (grid and hash are rebuilt from it), the window
/// model, and the level payload.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct FixedRateWindowState {
    cfg: SamplerConfig,
    window: Window,
    state: FixedRateLevelState,
}

impl FixedRateWindowState {
    /// The configuration the checkpointed sampler was built from.
    pub fn cfg(&self) -> &SamplerConfig {
        &self.cfg
    }

    /// The window model in force at capture time.
    pub fn window(&self) -> Window {
        self.window
    }
}

impl Checkpointable for FixedRateWindowSampler {
    type State = FixedRateWindowState;

    fn checkpoint_state(&self) -> FixedRateWindowState {
        FixedRateWindowState {
            cfg: self.ctx.cfg().clone(),
            window: self.window,
            state: self.capture_level(),
        }
    }

    fn try_from_state(state: FixedRateWindowState) -> Result<Self, RdsError> {
        state.cfg.validate()?;
        check_level(state.state.level)?;
        // `Window::Infinite` is a legitimate construction (a fixed-rate
        // tracker over the whole stream), but a zero-width bounded window
        // expires every entry on the next arrival — no sampler ever runs
        // with one (the hierarchy rejects it as `EmptyWindow`), so in a
        // checkpoint it can only be corruption.
        if state.window.len() == Some(0) {
            return Err(checkpoint_err(
                "fixed-rate window state has a zero-width window",
            ));
        }
        let mut s = Self::new(state.cfg, state.window, state.state.level);
        s.restore_level(state.state)?;
        Ok(s)
    }

    fn state_config(state: &FixedRateWindowState) -> Option<&SamplerConfig> {
        Some(&state.cfg)
    }

    fn state_window(state: &FixedRateWindowState) -> Option<Window> {
        Some(state.window)
    }
}

impl DistinctSampler for FixedRateWindowSampler {
    type Summary = WindowSummary;

    /// Expiry changes the summary as the clock moves, without new items.
    const TIME_SENSITIVE: bool = true;

    fn process(&mut self, item: &StreamItem) -> ProcessOutcome {
        FixedRateWindowSampler::process(self, item)
    }

    fn advance(&mut self, now: rds_stream::Stamp) {
        self.expire(now);
    }

    /// The record's `rep` is the group's latest point (always inside the
    /// window).
    fn query_record(&mut self) -> Option<GroupRecord> {
        let accepted: Vec<usize> = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.accepted)
            .map(|(i, _)| i)
            .collect();
        accepted
            .choose(&mut self.rng)
            .map(|&i| window_entry_record(&self.entries[i]))
    }

    fn query_k(&mut self, k: usize) -> Vec<GroupRecord> {
        let mut accepted: Vec<usize> = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.accepted)
            .map(|(i, _)| i)
            .collect();
        use rand::seq::SliceRandom;
        accepted.shuffle(&mut self.rng);
        accepted.truncate(k);
        accepted
            .into_iter()
            .map(|i| window_entry_record(&self.entries[i]))
            .collect()
    }

    fn f0_estimate(&self) -> f64 {
        FixedRateWindowSampler::f0_estimate(self)
    }

    fn seen(&self) -> u64 {
        FixedRateWindowSampler::seen(self)
    }

    fn words(&self) -> usize {
        FixedRateWindowSampler::words(self)
    }

    fn summary(&self) -> WindowSummary {
        let level = self.level;
        let entries = self
            .entries
            .iter()
            .filter(|e| e.accepted)
            .map(|e| (level, e.clone()))
            .collect();
        WindowSummary::from_parts(self.ctx.cfg().clone(), entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(x: f64, seq: u64) -> StreamItem {
        StreamItem::new(Point::new(vec![x]), Stamp::at(seq))
    }

    fn cfg() -> SamplerConfig {
        SamplerConfig::builder(1, 0.5)
            .seed(7)
            .expected_len(64)
            .build()
            .unwrap()
    }

    #[test]
    fn rate_one_tracks_every_window_group() {
        let mut s = FixedRateWindowSampler::new(cfg(), Window::Sequence(3), 0);
        for i in 0..12u64 {
            // every point 10 apart: every point its own group
            s.process(&item(i as f64 * 10.0, i));
        }
        assert_eq!(s.accepted_len(), 3);
        assert_eq!(s.rejected_len(), 0);
    }

    #[test]
    fn duplicates_update_latest_point() {
        let mut s = FixedRateWindowSampler::new(cfg(), Window::Sequence(10), 0);
        s.process(&item(0.0, 0));
        let out = s.process(&item(0.2, 1));
        assert_eq!(out, ProcessOutcome::Duplicate);
        let e = &s.entries()[0];
        assert_eq!(e.rep, Point::new(vec![0.0]));
        assert_eq!(e.last, Point::new(vec![0.2]));
        assert_eq!(e.last_stamp, Stamp::at(1));
        assert_eq!(e.count, 2);
    }

    #[test]
    fn group_survives_while_any_point_is_live() {
        // rep arrives at t=0, expires at window 3 by t=3; but a second
        // point at t=2 keeps the group alive until t=5
        let mut s = FixedRateWindowSampler::new(cfg(), Window::Sequence(3), 0);
        s.process(&item(0.0, 0));
        s.process(&item(0.1, 2));
        s.process(&item(50.0, 4)); // different group, triggers expiry check
        assert_eq!(s.entries().len(), 2, "group should still be alive");
        s.process(&item(60.0, 5)); // now the first group's last point (t=2) expires
        let reps: Vec<f64> = s.entries().iter().map(|e| e.rep.get(0)).collect();
        assert!(
            !reps.contains(&0.0),
            "expired group still present: {reps:?}"
        );
    }

    #[test]
    fn representative_is_kept_while_group_lives_even_if_rep_expired() {
        // Algorithm 2 keeps the representative u in Sacc even when u
        // itself has left the window, as long as a group point is live.
        let mut s = FixedRateWindowSampler::new(cfg(), Window::Sequence(2), 0);
        s.process(&item(0.0, 0));
        s.process(&item(0.1, 1));
        s.process(&item(0.2, 2)); // rep (t=0) is out of the window now
        let e = &s.entries()[0];
        assert_eq!(e.rep, Point::new(vec![0.0]));
        assert_eq!(e.last, Point::new(vec![0.2]));
    }

    #[test]
    fn query_returns_live_point() {
        let mut s = FixedRateWindowSampler::new(cfg(), Window::Sequence(2), 0);
        for i in 0..20u64 {
            s.process(&item(i as f64 * 10.0, i));
        }
        let e = s.query().expect("window non-empty");
        // last point must be within the current window (seq 18..=19)
        assert!(e.last_stamp.seq >= 18);
    }

    #[test]
    fn time_window_expiry_differs_from_sequence() {
        let mut s = FixedRateWindowSampler::new(cfg(), Window::Time(5), 0);
        // three groups arriving in a burst at time 0, then one at time 10
        s.process(&StreamItem::new(Point::new(vec![0.0]), Stamp::new(0, 0)));
        s.process(&StreamItem::new(Point::new(vec![10.0]), Stamp::new(1, 0)));
        s.process(&StreamItem::new(Point::new(vec![20.0]), Stamp::new(2, 0)));
        assert_eq!(s.entries().len(), 3);
        s.process(&StreamItem::new(Point::new(vec![30.0]), Stamp::new(3, 10)));
        // everything from time 0 expired
        assert_eq!(s.entries().len(), 1);
    }

    #[test]
    fn level_sampling_thins_the_entries() {
        // At a high level most groups are ignored.
        let cfg = SamplerConfig::builder(1, 0.5)
            .seed(11)
            .expected_len(1 << 12)
            .build()
            .unwrap();
        let mut s = FixedRateWindowSampler::new(cfg, Window::Sequence(4096), 6);
        for i in 0..4096u64 {
            s.process(&item(i as f64 * 10.0, i));
        }
        let tracked = s.entries().len();
        assert!(
            tracked < 1024,
            "level-6 sampler tracked {tracked} of 4096 groups"
        );
        assert!(s.accepted_len() >= 1, "some group should be accepted");
    }

    #[test]
    fn split_promotes_prefix_and_keeps_suffix_here() {
        let cfg = SamplerConfig::builder(1, 0.5)
            .seed(13)
            .expected_len(1 << 10)
            .build()
            .unwrap();
        let mut s = FixedRateWindowSampler::new(cfg, Window::Sequence(1024), 0);
        for i in 0..64u64 {
            s.process(&item(i as f64 * 10.0, i));
        }
        let before: usize = s.entries().len();
        assert_eq!(before, 64);
        let promoted = s.split().expect("some cell survives level 1");
        // the suffix kept at level 0 plus the promoted prefix cover the
        // split point t; nothing is duplicated
        let kept = s.entries().len();
        assert!(kept < 64);
        // every promoted entry passes the level-1 filter rules
        for e in &promoted {
            if e.accepted {
                assert!(s.ctx.hash_sampled(e.rep_hash, 1));
            } else {
                assert!(!s.ctx.hash_sampled(e.rep_hash, 1));
            }
        }
        // promoted stamps all precede kept stamps
        if let (Some(last_prom), Some(first_kept)) = (promoted.last(), s.entries().first()) {
            assert!(last_prom.rep_stamp <= first_kept.rep_stamp);
        }
        // the newest promoted entry is accepted (choice of t)
        assert!(promoted.last().expect("non-empty").accepted);
    }

    #[test]
    fn split_on_empty_returns_none() {
        let mut s = FixedRateWindowSampler::new(cfg(), Window::Sequence(8), 0);
        assert!(s.split().is_none());
    }

    #[test]
    fn absorb_preserves_order() {
        let cfg_ = cfg();
        let ctx = Arc::new(SamplerContext::new(cfg_));
        let mut lower =
            FixedRateWindowSampler::with_context(ctx.clone(), Window::Sequence(64), 0, 1);
        let mut upper = FixedRateWindowSampler::with_context(ctx, Window::Sequence(64), 1, 1);
        for i in 0..32u64 {
            lower.process(&item(i as f64 * 10.0, i));
        }
        if let Some(promoted) = lower.split() {
            upper.absorb(promoted);
            let stamps: Vec<u64> = upper.entries().iter().map(|e| e.rep_stamp.seq).collect();
            let mut sorted = stamps.clone();
            sorted.sort_unstable();
            assert_eq!(stamps, sorted);
        }
    }

    #[test]
    fn clear_keeps_rate() {
        let mut s = FixedRateWindowSampler::new(cfg(), Window::Sequence(8), 3);
        s.process(&item(0.0, 0));
        s.clear();
        assert_eq!(s.entries().len(), 0);
        assert_eq!(s.level(), 3);
    }

    #[test]
    fn reservoir_tracks_group_members() {
        let mut s = FixedRateWindowSampler::new(cfg(), Window::Sequence(100), 0);
        s.process(&item(0.0, 0));
        for i in 1..50u64 {
            s.process(&item(0.3, i));
        }
        let e = &s.entries()[0];
        assert!(e.rep.within(&e.reservoir, 0.5));
        assert_eq!(e.count, 50);
    }
}
