//! The unified sampler API: every sampler family in this crate — infinite
//! window, sliding window (hierarchical and fixed-rate), metric/LSH,
//! JL-projected, `k`-sampling — implements [`DistinctSampler`], so callers
//! (the sharded engine, the umbrella facade, the CLI) can be written once,
//! window-agnostically.
//!
//! The trait's query methods return **owned** [`GroupRecord`]s: backends
//! can then be swapped (single sampler ↔ sharded engine ↔ merged remote
//! summaries) without signature churn. The borrowing accessors each family
//! also provides (`RobustL0Sampler::query` returning `Option<&Point>`,
//! etc.) remain available for perf-sensitive single-backend callers.
//!
//! Each implementation names an associated [`SamplerSummary`] type: a
//! cheap, queryable snapshot of the sampler state that *merges*. Summaries
//! built from samplers sharing one [`SamplerConfig`] (hence one grid and
//! hash function) combine into a summary of the union of their streams —
//! the property that makes sharding (and the distributed setting) correct.

use crate::config::SamplerConfig;
use crate::error::RdsError;
use crate::infinite::{BatchStats, GroupRecord, ProcessOutcome};
use crate::merge_index::NearIndex;
use crate::sw_fixed::WindowGroupEntry;
use rand::rngs::StdRng;
use rand::seq::{IndexedRandom, SliceRandom};
use rand::{RngExt, SeedableRng};
use rds_stream::{Stamp, StreamItem};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A mergeable, queryable snapshot of a sampler's state.
///
/// Summaries are the unit of aggregation: shards, distributed sites and
/// facade backends all reduce to "merge the summaries, query the result".
/// Merging is only defined between summaries whose samplers shared one
/// configuration; [`SamplerSummary::merge`] reports
/// [`RdsError::ConfigMismatch`] otherwise.
///
/// Summaries are **immutable**: every query takes `&self` plus an explicit
/// `draw` token that supplies all the randomness (the RNG is derived
/// deterministically from the shared seed and the token). Callers that
/// want fresh samples per call keep their own counter and pass `draw`,
/// `draw + 1`, ...; concurrent readers can share one frozen summary behind
/// an `Arc` and draw independently without locks.
pub trait SamplerSummary: Sized {
    /// What a caller keeps between merges of the same sources so that
    /// the next merge ([`Self::merge_with`]) can absorb only what changed
    /// since the previous one: a [`MergePlan`](crate::MergePlan) for
    /// Algorithm 1's [`MergedSummary`](crate::MergedSummary), `()` for
    /// families whose merge keeps no state.
    type Merger: Default + Send;

    /// Combines two summaries into a summary of the union of their
    /// streams.
    ///
    /// # Errors
    ///
    /// [`RdsError::ConfigMismatch`] when the summaries come from samplers
    /// with different configurations (incompatible grids/hashes).
    fn merge(self, other: Self) -> Result<Self, RdsError>;

    /// Combines any number of summaries; `Ok(None)` iff `summaries` is
    /// empty. The default folds [`Self::merge`] pairwise; implementations
    /// whose pairwise merge re-processes the accumulated state (every
    /// summary in this crate) override this with a single-pass N-way
    /// merge, so it does not scale quadratically in the number of
    /// summaries.
    ///
    /// # Errors
    ///
    /// [`RdsError::ConfigMismatch`] as for [`Self::merge`].
    fn merge_many(summaries: Vec<Self>) -> Result<Option<Self>, RdsError> {
        summaries
            .into_iter()
            .try_fold(None, |acc: Option<Self>, s| match acc {
                None => Ok(Some(s)),
                Some(a) => a.merge(s).map(Some),
            })
    }

    /// [`Self::merge_many`] through `merger`, kept by the caller across
    /// merges of the same sources in the same order (the sharded engine
    /// keeps one per engine and merges its shards on every publish). The
    /// result is always exactly that of [`Self::merge_many`]; a stateful
    /// merger only makes it cheaper when the summaries grew by appends
    /// since the previous call. The default ignores `merger`.
    ///
    /// # Errors
    ///
    /// [`RdsError::ConfigMismatch`] as for [`Self::merge`].
    fn merge_with(
        _merger: &mut Self::Merger,
        summaries: Vec<Self>,
    ) -> Result<Option<Self>, RdsError> {
        Self::merge_many(summaries)
    }

    /// How `merger` produced its merges so far: all zero for a stateless
    /// merger.
    fn merge_counts(_merger: &Self::Merger) -> MergeCounts {
        MergeCounts::default()
    }

    /// The estimate of the number of distinct groups covered by this
    /// summary.
    fn f0_estimate(&self) -> f64;

    /// Draws one uniformly random sampled group; all randomness comes from
    /// `draw` (distinct tokens give independent draws, the same token
    /// replays the same draw). `None` iff the summary covers no group.
    fn query_record(&self, draw: u64) -> Option<GroupRecord>;

    /// Draws up to `k` *distinct* sampled groups, deterministically in
    /// `draw`.
    fn query_k(&self, k: usize, draw: u64) -> Vec<GroupRecord>;
}

/// How a stateful merger ([`SamplerSummary::merge_with`]) produced its
/// merges: every merge of two or more summaries counts once, as one or
/// the other. Diagnostic only.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MergeCounts {
    /// Merges that absorbed only the records new since the previous one.
    pub incremental: u64,
    /// Merges that placed every record from empty: the first one, and
    /// every one whose summaries were not an append-only extension of
    /// the previous merge's (or that the merger could not place exactly
    /// from there).
    pub restarts: u64,
}

/// The unified streaming interface of all six sampler families.
///
/// Implementations accept [`StreamItem`]s; infinite-window samplers ignore
/// the stamp, window samplers use it for expiry. Query methods return
/// owned [`GroupRecord`]s — for window samplers the record's `rep` is the
/// group's *latest* point (always inside the window, the value
/// Algorithm 3 returns).
///
/// # Examples
///
/// ```
/// use rds_core::{DistinctSampler, RobustL0Sampler, SamplerConfig};
/// use rds_geometry::Point;
/// use rds_stream::{Stamp, StreamItem};
///
/// fn feed<S: DistinctSampler>(s: &mut S, points: &[Point]) {
///     for (i, p) in points.iter().enumerate() {
///         s.process(&StreamItem::new(p.clone(), Stamp::at(i as u64)));
///     }
/// }
///
/// let mut s = RobustL0Sampler::try_new(SamplerConfig::builder(1, 0.5).seed(1).build().unwrap()).unwrap();
/// let pts: Vec<Point> = (0..50).map(|i| Point::new(vec![(i % 5) as f64 * 10.0])).collect();
/// feed(&mut s, &pts);
/// assert!(s.query_record().is_some());
/// assert_eq!(s.f0_estimate(), 5.0);
/// ```
pub trait DistinctSampler {
    /// The mergeable snapshot type.
    type Summary: SamplerSummary;

    /// Whether [`Self::advance`] alone can change this sampler's summary
    /// (window families expire entries as the clock moves, without any new
    /// items). Engines use this to decide whether a moved clock
    /// invalidates cached per-shard summaries.
    const TIME_SENSITIVE: bool = false;

    /// Feeds one stream item.
    fn process(&mut self, item: &StreamItem) -> ProcessOutcome;

    /// Feeds a batch of items, amortizing per-call bookkeeping where the
    /// implementation supports it. State after the call is identical to
    /// processing every item in order.
    fn process_batch(&mut self, items: &[StreamItem]) -> BatchStats {
        let mut stats = BatchStats::default();
        for item in items {
            stats.record(self.process(item));
        }
        stats
    }

    /// Advances the sampler's clock without feeding a point: window
    /// samplers expire entries older than `now`; infinite-window samplers
    /// do nothing. The sharded engine calls this before snapshotting so a
    /// shard that received no recent items still reports a live window.
    fn advance(&mut self, now: Stamp) {
        let _ = now;
    }

    /// Draws one uniformly random sampled group, owned. `None` iff no
    /// group is sampled.
    fn query_record(&mut self) -> Option<GroupRecord>;

    /// Draws up to `k` *distinct* sampled groups, owned. `query_k(0)`
    /// returns an empty vector.
    fn query_k(&mut self, k: usize) -> Vec<GroupRecord>;

    /// The current estimate of the number of distinct groups.
    fn f0_estimate(&self) -> f64;

    /// Number of stream items processed.
    fn seen(&self) -> u64;

    /// Current footprint in machine words (the paper's space accounting).
    fn words(&self) -> usize;

    /// Snapshots the sampler's state (the sampler keeps running).
    fn summary(&self) -> Self::Summary;

    /// Copy-on-write snapshot: like [`Self::summary`] (and always equal to
    /// it), but implementations may cache the result and return an
    /// `Arc`-sharing summary whose candidate sets are rebuilt only when
    /// dirtied since the previous call — the publication fast path, `O(1)`
    /// for a sampler untouched between snapshots. A rebuild may write over
    /// the storage of an earlier summary that nobody holds any more:
    /// Algorithm 1's samplers rewrite the record vectors of the summary
    /// from two calls back, writing reference counts only for changed
    /// records. Default: delegates to [`Self::summary`].
    fn summary_cow(&mut self) -> Self::Summary {
        self.summary()
    }

    /// Consumes the sampler and extracts its summary, moving state instead
    /// of cloning where the implementation supports it.
    fn into_summary(self) -> Self::Summary
    where
        Self: Sized,
    {
        self.summary()
    }
}

/// The [`SamplerSummary`] of the sliding-window families: the accepted
/// group entries of every level, tagged with their level (sample rate
/// `2^-level`).
///
/// Queries implement Algorithm 3 lines 19-23 over the pooled entries:
/// every entry at level `ℓ` enters the pool with probability
/// `2^-(c-ℓ)` where `c` is the highest occupied level, unifying the
/// sample rates, and a uniform choice among the pool is returned.
///
/// Merging unions the entries and deduplicates groups observed by several
/// shards (keeping the finer-rate entry and summing counts) — sound for
/// the same reason the infinite-window merge is: all parties share one
/// grid and hash, so an entry's level-membership is a function of its
/// cached hash alone.
///
/// The summary is plain immutable data: it serializes (the offline
/// `rds snapshot` path), and queries take `&self` plus a `draw` token.
///
/// Internally the entries are held as a sequence of immutable
/// [`Arc`]-shared chunks (one per dirty-tracked source level), so
/// snapshot publication can reuse the chunks of levels untouched since
/// the previous epoch instead of deep-copying every entry; a rebuilt
/// chunk's entries share their points' coordinates with the sampler's
/// (a `Point` clone is a reference-count bump). Queries,
/// merging and serialization observe the flattened concatenation of the
/// chunks; the serialized JSON shape (`entries: [[level, entry], ...]`)
/// is identical to the flat representation.
#[derive(Clone, Debug)]
pub struct WindowSummary {
    cfg: SamplerConfig,
    /// Immutable `(level, entry)` chunks, flattened in order for queries.
    chunks: Vec<EntryChunk>,
}

/// An immutable, `Arc`-shared chunk of `(level, entry)` pairs — the unit
/// of copy-on-write sharing between consecutive window summaries.
pub(crate) type EntryChunk = Arc<Vec<(u32, WindowGroupEntry)>>;

impl WindowSummary {
    /// Builds a summary from a sampler's accepted entries.
    pub fn from_parts(cfg: SamplerConfig, entries: Vec<(u32, WindowGroupEntry)>) -> Self {
        Self {
            cfg,
            chunks: if entries.is_empty() {
                Vec::new()
            } else {
                vec![Arc::new(entries)]
            },
        }
    }

    /// Builds a summary around already-shared entry chunks without
    /// copying them — the copy-on-write publication path.
    pub(crate) fn from_chunks(cfg: SamplerConfig, chunks: Vec<EntryChunk>) -> Self {
        Self { cfg, chunks }
    }

    /// The accepted entries with their levels, in deterministic order.
    pub fn entries(&self) -> impl Iterator<Item = &(u32, WindowGroupEntry)> {
        self.chunks.iter().flat_map(|c| c.iter())
    }

    /// Number of accepted entries across all levels.
    pub fn entry_count(&self) -> usize {
        self.chunks.iter().map(|c| c.len()).sum()
    }

    /// Whether the summary covers no live group.
    pub fn is_empty(&self) -> bool {
        self.chunks.iter().all(|c| c.is_empty())
    }

    /// The configuration the sampler was built from.
    pub fn cfg(&self) -> &SamplerConfig {
        &self.cfg
    }

    fn rng_for(&self, draw: u64) -> StdRng {
        derived_rng(self.cfg.seed, draw, 0x51D1_D157)
    }

    /// Pools the entries at the common (coarsest) rate: every entry at
    /// level `ℓ` survives with probability `2^-(c-ℓ)`.
    fn pool(&self, rng: &mut StdRng) -> Vec<GroupRecord> {
        let Some(c) = self.entries().map(|(l, _)| *l).max() else {
            return Vec::new();
        };
        self.entries()
            .filter(|(l, _)| {
                let keep = 0.5f64.powi((c - l) as i32);
                keep >= 1.0 || rng.random_range(0.0..1.0) < keep
            })
            .map(|(_, e)| window_entry_record(e))
            .collect()
    }
}

impl Serialize for WindowSummary {
    /// Serializes the flattened entries — byte-identical to the previous
    /// flat `entries: Vec<(u32, WindowGroupEntry)>` representation, so
    /// snapshots written before the chunked layout still round-trip.
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("cfg".to_string(), self.cfg.to_value()),
            (
                "entries".to_string(),
                serde::Value::Seq(self.entries().map(Serialize::to_value).collect()),
            ),
        ])
    }
}

impl Deserialize for WindowSummary {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let cfg = SamplerConfig::from_value(
            value
                .get("cfg")
                .ok_or_else(|| serde::DeError::custom("missing field `cfg`"))?,
        )
        .map_err(|e| serde::DeError::custom(format!("field `cfg`: {e}")))?;
        let entries = Vec::<(u32, WindowGroupEntry)>::from_value(
            value
                .get("entries")
                .ok_or_else(|| serde::DeError::custom("missing field `entries`"))?,
        )
        .map_err(|e| serde::DeError::custom(format!("field `entries`: {e}")))?;
        Ok(Self::from_parts(cfg, entries))
    }
}

/// The deterministic per-draw RNG of the plain-data summaries: derived
/// from the shared seed, the caller's draw token and a per-type salt, so
/// summaries stay serializable and immutable (no RNG state) while distinct
/// tokens still give independent draws.
pub(crate) fn derived_rng(seed: u64, draw: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_add(draw.wrapping_mul(0x9E37_79B9_7F4A_7C15)) ^ salt)
}

/// The trait-level [`GroupRecord`] view of a window entry: `rep` is the
/// group's latest point (always live), `reservoir` the Section 2.3
/// random member.
pub(crate) fn window_entry_record(e: &WindowGroupEntry) -> GroupRecord {
    GroupRecord {
        rep: e.last.clone(),
        cell_hash: e.rep_hash,
        count: e.count,
        reservoir: e.reservoir.clone(),
    }
}

impl SamplerSummary for WindowSummary {
    type Merger = ();

    fn merge(self, other: Self) -> Result<Self, RdsError> {
        // lint:allow(L1) merge_many of a two-element vec always returns
        // Some; config-mismatch errors propagate through the `?`
        Ok(Self::merge_many(vec![self, other])?.expect("two summaries merged"))
    }

    /// Single-pass N-way merge: the first summary's entries, then every
    /// later entry either combined into the earliest merged entry of its
    /// group (the same representative or the same latest point within
    /// `alpha`) or appended. Matches come from two near-duplicate indexes,
    /// over the merged entries' `rep`s and over their `last`s, so the merge
    /// costs `O(entries)` while few groups share a `2α`-wide bucket of the
    /// first two coordinates. It runs on every publish of a sharded
    /// window writer (the engine keeps no merge state for this family).
    /// The result is a fresh single-chunk summary, identical to folding
    /// the summaries pairwise left to right.
    fn merge_many(summaries: Vec<Self>) -> Result<Option<Self>, RdsError> {
        let Some(first_cfg) = summaries.first().map(|s| s.cfg.clone()) else {
            return Ok(None);
        };
        // Full-config equality, not just the seed: two summaries built
        // under the same (default) seed but different alpha/dim would
        // otherwise dedup under the wrong threshold.
        if let Some(bad) = summaries.iter().find(|s| s.cfg != first_cfg) {
            return Err(RdsError::ConfigMismatch {
                expected_seed: first_cfg.seed,
                actual_seed: bad.cfg.seed,
            });
        }
        if summaries.len() == 1 {
            return Ok(summaries.into_iter().next());
        }
        let (dim, alpha) = (first_cfg.dim, first_cfg.alpha);
        let total = summaries.iter().map(Self::entry_count).sum();
        let mut entries: Vec<(u32, WindowGroupEntry)> = Vec::with_capacity(total);
        // Entry `i` is indexed under id `i`, re-indexed whenever its `rep`
        // or `last` is replaced; the stale id the old point left behind is
        // re-checked against the current point, so it can only confirm a
        // true match.
        let mut reps = NearIndex::with_capacity(dim, alpha, total);
        let mut lasts = NearIndex::with_capacity(dim, alpha, total);
        let mut summaries = summaries.iter();
        for (level, entry) in summaries.next().into_iter().flat_map(Self::entries) {
            let id = entries.len() as u32;
            reps.insert(&entry.rep, id);
            lasts.insert(&entry.last, id);
            entries.push((*level, entry.clone()));
        }
        for (level, entry) in summaries.flat_map(Self::entries) {
            let mut hit = None;
            reps.first_match(&entry.rep, &mut hit, |id| {
                entries
                    .get(id as usize)
                    .is_some_and(|(_, e)| e.rep.within(&entry.rep, alpha))
            });
            lasts.first_match(&entry.last, &mut hit, |id| {
                entries
                    .get(id as usize)
                    .is_some_and(|(_, e)| e.last.within(&entry.last, alpha))
            });
            let hit = hit.and_then(|id| entries.get_mut(id as usize).map(|e| (id, e)));
            match hit {
                Some((id, (l, existing))) => {
                    // The same group reached two shards: keep the
                    // finer-rate (lower-level) entry, sum the counts, and
                    // keep the newest live point.
                    existing.count += entry.count;
                    if entry.last_stamp > existing.last_stamp {
                        existing.last = entry.last.clone();
                        existing.last_stamp = entry.last_stamp;
                        lasts.insert(&existing.last, id);
                    }
                    if *level < *l {
                        *l = *level;
                        existing.rep = entry.rep.clone();
                        existing.rep_hash = entry.rep_hash;
                        existing.rep_stamp = entry.rep_stamp;
                        reps.insert(&existing.rep, id);
                    }
                }
                None => {
                    let id = entries.len() as u32;
                    reps.insert(&entry.rep, id);
                    lasts.insert(&entry.last, id);
                    entries.push((*level, entry.clone()));
                }
            }
        }
        Ok(Some(Self::from_parts(first_cfg, entries)))
    }

    /// Horvitz–Thompson estimate `Σ_entries 2^level`.
    fn f0_estimate(&self) -> f64 {
        self.entries().map(|(l, _)| 2f64.powi(*l as i32)).sum()
    }

    fn query_record(&self, draw: u64) -> Option<GroupRecord> {
        let mut rng = self.rng_for(draw);
        let pool = self.pool(&mut rng);
        pool.choose(&mut rng).cloned()
    }

    fn query_k(&self, k: usize, draw: u64) -> Vec<GroupRecord> {
        let mut rng = self.rng_for(draw);
        let mut pool = self.pool(&mut rng);
        pool.shuffle(&mut rng);
        pool.truncate(k);
        pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FixedRateWindowSampler, RobustL0Sampler, SlidingWindowSampler};
    use rds_geometry::Point;
    use rds_stream::Window;

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

    /// The generic helper all backends share in the engine/facade.
    fn feed<S: DistinctSampler>(s: &mut S, n: u64, n_groups: u64) {
        for i in 0..n {
            s.process(&item((i % n_groups) as f64 * 10.0, i));
        }
    }

    #[test]
    fn trait_objects_by_generic_fn_agree_on_counts() {
        let mut inf = RobustL0Sampler::try_new(cfg(1)).unwrap();
        let mut win = SlidingWindowSampler::try_new(cfg(1), Window::Sequence(1 << 20)).unwrap();
        let mut fixed = FixedRateWindowSampler::new(cfg(1), Window::Sequence(1 << 20), 0);
        feed(&mut inf, 120, 12);
        feed(&mut win, 120, 12);
        feed(&mut fixed, 120, 12);
        // generous thresholds, huge window: everything counts exactly
        assert_eq!(DistinctSampler::f0_estimate(&inf), 12.0);
        assert_eq!(DistinctSampler::f0_estimate(&win), 12.0);
        assert_eq!(DistinctSampler::f0_estimate(&fixed), 12.0);
        assert_eq!(inf.seen(), 120);
    }

    #[test]
    fn window_summary_merges_disjoint_shards() {
        let mut a = SlidingWindowSampler::try_new(cfg(2), Window::Sequence(1 << 10)).unwrap();
        let mut b = SlidingWindowSampler::try_new(cfg(2), Window::Sequence(1 << 10)).unwrap();
        for i in 0..60u64 {
            a.process(&item((i % 6) as f64 * 10.0, i));
            b.process(&item((6 + i % 6) as f64 * 10.0, i));
        }
        let merged = a.summary().merge(b.summary()).expect("same config");
        assert_eq!(merged.f0_estimate(), 12.0);
    }

    #[test]
    fn window_summary_deduplicates_split_groups() {
        let mut a = SlidingWindowSampler::try_new(cfg(3), Window::Sequence(1 << 10)).unwrap();
        let mut b = SlidingWindowSampler::try_new(cfg(3), Window::Sequence(1 << 10)).unwrap();
        // one group observed by both shards
        for i in 0..20u64 {
            a.process(&item(0.0, i));
            b.process(&item(0.1, i));
        }
        let merged = a.summary().merge(b.summary()).expect("same config");
        assert_eq!(merged.f0_estimate(), 1.0);
        let rec = merged.query_record(1).expect("non-empty");
        assert_eq!(rec.count, 40, "counts must add up across shards");
    }

    #[test]
    fn window_summary_merge_rejects_config_mismatch() {
        let a = SlidingWindowSampler::try_new(cfg(4), Window::Sequence(8)).unwrap();
        let b = SlidingWindowSampler::try_new(cfg(5), Window::Sequence(8)).unwrap();
        assert!(matches!(
            a.summary().merge(b.summary()),
            Err(RdsError::ConfigMismatch { .. })
        ));
    }

    #[test]
    fn empty_summary_queries_are_empty() {
        let s = SlidingWindowSampler::try_new(cfg(6), Window::Sequence(8)).unwrap();
        let sum = s.summary();
        assert!(sum.is_empty());
        assert!(sum.query_record(1).is_none());
        assert!(sum.query_k(3, 1).is_empty());
        assert_eq!(sum.f0_estimate(), 0.0);
    }

    #[test]
    fn query_k_zero_is_empty_for_every_family() {
        let mut inf = RobustL0Sampler::try_new(cfg(7)).unwrap();
        feed(&mut inf, 30, 3);
        assert!(inf.query_k(0).is_empty());
        let mut win = SlidingWindowSampler::try_new(cfg(7), Window::Sequence(64)).unwrap();
        feed(&mut win, 30, 3);
        // UFCS: the inherent `query_k` (returning `GroupSample`s) wins on
        // the concrete type; this exercises the trait method.
        assert!(DistinctSampler::query_k(&mut win, 0).is_empty());
    }

    #[test]
    fn default_process_batch_matches_per_item() {
        let items: Vec<StreamItem> = (0..90u64).map(|i| item((i % 9) as f64 * 10.0, i)).collect();
        let mut one = SlidingWindowSampler::try_new(cfg(8), Window::Sequence(256)).unwrap();
        let mut per = BatchStats::default();
        for it in &items {
            per.record(one.process(it));
        }
        let mut batched = SlidingWindowSampler::try_new(cfg(8), Window::Sequence(256)).unwrap();
        let mut stats = BatchStats::default();
        for chunk in items.chunks(13) {
            stats.merge(&batched.process_batch(chunk));
        }
        assert_eq!(per, stats);
        assert_eq!(
            DistinctSampler::f0_estimate(&one),
            DistinctSampler::f0_estimate(&batched)
        );
    }
}
