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
//! any number of them with [`SamplerSummary::merge_many`]. A caller that
//! merges the same sources again and again (the sharded engine, on every
//! publish) keeps a [`MergePlan`] instead: it absorbs only the records
//! new since its previous merge and returns the same summary. The summary is
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
use crate::sampler::{derived_rng, MergeCounts, SamplerSummary};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rds_geometry::Point;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::iter::{Peekable, Zip};
use std::sync::Arc;
use std::vec::IntoIter;

/// A sampler's summary, or the coordinator-side merge of several:
/// queryable, serializable, and mergeable with other summaries of the
/// same configuration ([`SamplerSummary::merge`]).
/// The candidate sets live behind [`Arc`] handles so that snapshot
/// publication can share ("copy-on-write") the sets of an unchanged
/// sampler across epochs instead of deep-copying them; `Arc` serializes
/// transparently, so the JSON shape is the same as a plain `Vec`. A
/// record's points share their coordinates with the sampler's (a
/// [`Point`] clone is a reference-count bump), so no coordinate is ever
/// copied on publication, merge or query. A publisher that republishes
/// (a sampler's [`DistinctSampler::summary_cow`](crate::DistinctSampler::summary_cow),
/// a kept [`MergePlan`]) writes each new summary over the record
/// vectors of one it published two epochs before, once nobody else
/// holds it, so a publish writes the reference counts of the changed
/// records only.
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

/// The last two summaries a publisher handed out, kept so that it can
/// write the next one over the record vectors of one that nobody else
/// holds any more, instead of cloning every record into new vectors and
/// freeing the old ones. Readers let go of a summary soon after the next
/// one is published, so the one two publishes back is normally free.
/// Each kept summary carries what its publisher needs to reuse it (`M`).
#[derive(Debug, Default)]
pub(crate) struct Recycler<M = ()> {
    kept: VecDeque<(MergedSummary, M)>,
}

/// A kept summary taken for rewriting: its accept set, its reject set,
/// and what its publisher kept with it.
pub(crate) type Recycled<M> = (Vec<GroupRecord>, Vec<GroupRecord>, M);

impl<M> Recycler<M> {
    /// The newest summary kept.
    pub(crate) fn newest(&self) -> Option<&MergedSummary> {
        self.kept.back().map(|(summary, _)| summary)
    }

    /// Takes the newest kept summary whose record vectors nobody else
    /// holds: its accept set, reject set and `M`.
    pub(crate) fn take(&mut self) -> Option<Recycled<M>> {
        let i = self.kept.iter_mut().rposition(|(summary, _)| {
            Arc::get_mut(&mut summary.acc).is_some() && Arc::get_mut(&mut summary.rej).is_some()
        })?;
        let (summary, meta) = self.kept.remove(i)?;
        let owned = |set| Arc::try_unwrap(set).unwrap_or_default();
        Some((owned(summary.acc), owned(summary.rej), meta))
    }

    /// Keeps `summary`, just handed out, and the one before it.
    pub(crate) fn keep(&mut self, summary: MergedSummary, meta: M) {
        if self.kept.len() == 2 {
            self.kept.pop_front();
        }
        self.kept.push_back((summary, meta));
    }
}

impl SamplerSummary for MergedSummary {
    type Merger = MergePlan;

    /// Combines two summaries: unifies at the coarser rate, refilters
    /// every record with the shared hash (Fact 1b) and deduplicates
    /// cross-summary groups.
    fn merge(self, other: Self) -> Result<Self, RdsError> {
        // lint:allow(L1) merge_many of a two-element vec always returns
        // Some; config-mismatch errors propagate through the `?`
        Ok(Self::merge_many(vec![self, other])?.expect("two summaries merged"))
    }

    /// Single-pass N-way merge, the one merge of a fresh [`MergePlan`]:
    /// each record's cross-summary duplicate is found through a
    /// near-duplicate index over the merged representatives instead of a
    /// `within` scan over every merged group per record, so the merge
    /// costs `O(records)` while few groups share a `2α`-wide bucket of
    /// the first two coordinates.
    fn merge_many(summaries: Vec<Self>) -> Result<Option<Self>, RdsError> {
        MergePlan::default().merge(summaries)
    }

    fn merge_with(plan: &mut MergePlan, summaries: Vec<Self>) -> Result<Option<Self>, RdsError> {
        plan.merge(summaries)
    }

    fn merge_counts(plan: &MergePlan) -> MergeCounts {
        plan.counts()
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

/// A merge that persists between calls, so that merging the same sources
/// again absorbs only the records new since the previous merge.
///
/// The merge of `N` summaries visits their records in one order — the
/// summaries in turn, each one's accept set before its reject set — and
/// places each record: emitted in the accept set, emitted in the reject
/// set, folded into the count of an earlier group within `alpha`
/// (promoting a reject record to the accept set when the folding
/// record's own cell is sampled), or dropped. Only the representatives
/// and cell hashes decide where a record goes, never the counts or
/// reservoirs. So a plan keeps each record's placement and a
/// near-duplicate index over every absorbed representative, and writes
/// the output by one walk over the current summaries, adding the folded
/// counts. It writes over the records of the output it returned two
/// merges before, once nobody else holds it: a record
/// at the same position keeps its points, so only a new record or a
/// changed reservoir member costs reference counts.
///
/// A summary of Algorithm 1 only appends to its sets while its level
/// stays put. When every summary is such an extension of what the plan
/// absorbed — same configuration, same number of summaries, same level
/// each, no set shorter, and the last absorbed representative of each
/// set still the same shared point — [`MergePlan::merge`] places only
/// the new records, in merge order. A new record can land before absorbed
/// ones (a new record of the first summary comes before every record of
/// the second), so it also re-places the later records it now takes
/// over, as the merge from empty would. Whatever the plan cannot re-place
/// exactly (a level change, a shrunk set, or a record that held folds and
/// loses its group to a new one) restarts it from empty.
///
/// Either way the result is exactly [`SamplerSummary::merge_many`]'s:
/// the same records, order, counts and serialized bytes. Debug builds
/// check every incremental merge against one from empty.
///
/// The plan holds about 60 bytes per absorbed record (placement,
/// position, index entry) and its last two outputs with their records'
/// positions; none of it is part of any sampler's
/// [`DistinctSampler::words`](crate::DistinctSampler::words).
#[derive(Debug, Default)]
pub struct MergePlan {
    absorbed: Option<Absorbed>,
    counts: MergeCounts,
    /// The last outputs, with the position of each of their accept and
    /// reject records.
    outputs: Recycler<[Vec<Pos>; 2]>,
}

impl MergePlan {
    /// Merges `summaries` exactly as [`SamplerSummary::merge_many`] does,
    /// reusing this plan's placements when the summaries only grew since
    /// its previous merge. `Ok(None)` iff `summaries` is empty; a single
    /// summary comes back as it is and leaves the plan untouched.
    ///
    /// A plan serves one list of sources: pass the summaries of the same
    /// samplers, in the same order, on every call. It tells that a set
    /// only grew by its length and its last absorbed representative
    /// alone, so a summary of another sampler that happens to hold the
    /// same shared point at that index would be merged with stale
    /// placements (debug builds catch that divergence). Use a fresh plan,
    /// or [`SamplerSummary::merge_many`], for unrelated summaries.
    ///
    /// # Errors
    ///
    /// [`RdsError::ConfigMismatch`] when the summaries do not share one
    /// configuration.
    pub fn merge(
        &mut self,
        summaries: Vec<MergedSummary>,
    ) -> Result<Option<MergedSummary>, RdsError> {
        let Some(first_cfg) = summaries.first().map(|s| &s.cfg) else {
            return Ok(None);
        };
        // Full-config equality, not just the seed: same-seed summaries
        // with different alpha/dim must not silently merge.
        if let Some(bad) = summaries.iter().find(|s| s.cfg != *first_cfg) {
            return Err(RdsError::ConfigMismatch {
                expected_seed: first_cfg.seed,
                actual_seed: bad.cfg.seed,
            });
        }
        if summaries.len() == 1 {
            return Ok(summaries.into_iter().next());
        }
        let mut kept = self.absorbed.take().filter(|a| a.grew_into(&summaries));
        let incremental = kept
            .as_mut()
            .is_some_and(|a| a.absorb_new(&summaries).is_ok());
        let absorbed = match kept {
            Some(a) if incremental => {
                self.counts.incremental += 1;
                a
            }
            _ => {
                self.counts.restarts += 1;
                let mut a = Absorbed::new(first_cfg.clone(), &summaries);
                // From empty every record comes after every absorbed
                // one, so nothing is re-placed and nothing restarts.
                let placed = a.absorb_new(&summaries);
                debug_assert!(placed.is_ok(), "a merge from empty restarted");
                a
            }
        };
        let recycled = self.outputs.take();
        let rewritten = recycled.is_some();
        let (merged, positions) = absorbed.emit(&summaries, recycled);
        self.absorbed = Some(absorbed);
        self.outputs.keep(merged.clone(), positions);
        debug_assert!(
            !(incremental || rewritten) || same_as_from_empty(&merged, summaries),
            "an incremental or rewritten merge diverged from the merge from empty"
        );
        Ok(Some(merged))
    }

    /// How this plan produced its merges so far.
    pub fn counts(&self) -> MergeCounts {
        self.counts
    }
}

/// Whether `merged` serializes exactly as a merge from empty of
/// `summaries` (the debug check of every incremental merge).
fn same_as_from_empty(merged: &MergedSummary, summaries: Vec<MergedSummary>) -> bool {
    use serde::Serialize;
    matches!(
        MergedSummary::merge_many(summaries),
        Ok(Some(fresh)) if fresh.to_value() == merged.to_value()
    )
}

/// A record's position in merge order: its summary, then the accept set
/// before the reject set, then its index in the set (below `2^32`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Pos(u64);

impl Pos {
    const REJ: u64 = 1 << 32;

    fn new(shard: usize, rej: bool, index: usize) -> Self {
        let set = if rej { Self::REJ } else { 0 };
        Self(((shard as u64) << 33) | set | index as u64)
    }

    fn shard(self) -> usize {
        (self.0 >> 33) as usize
    }

    fn rej(self) -> bool {
        self.0 & Self::REJ != 0
    }

    fn index(self) -> usize {
        (self.0 & (Self::REJ - 1)) as usize
    }
}

/// The record at `pos` of `summaries`.
fn record(summaries: &[MergedSummary], pos: Pos) -> &GroupRecord {
    let summary = &summaries[pos.shard()];
    let set = if pos.rej() {
        &summary.rej
    } else {
        &summary.acc
    };
    &set[pos.index()]
}

/// Where the merge put one record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Place {
    /// Emitted in the accept set: its own cell is sampled and no earlier
    /// group holds it.
    Acc,
    /// Emitted in the accept set after promoting the reject host at the
    /// position, whose count it carries.
    Promoter(Pos),
    /// Emitted in the reject set: a candidate whose own cell is not
    /// sampled and which no earlier group holds.
    Rej,
    /// A reject host promoted by the record at the position: it hosts
    /// until that record, and its count goes there.
    PromotedBy(Pos),
    /// Folded into the earlier host at the position: its count goes
    /// there.
    Fold(Pos),
    /// Not a candidate at the common rate.
    Drop,
}

/// The plan's view of one input summary.
#[derive(Debug)]
struct ShardPlan {
    level: u32,
    acc: SetPlan,
    rej: SetPlan,
}

impl ShardPlan {
    fn set(&self, rej: bool) -> &SetPlan {
        if rej {
            &self.rej
        } else {
            &self.acc
        }
    }

    fn set_mut(&mut self, rej: bool) -> &mut SetPlan {
        if rej {
            &mut self.rej
        } else {
            &mut self.acc
        }
    }

    /// Whether `summary` only appended to the sets this plan absorbed.
    fn grew_into(&self, summary: &MergedSummary) -> bool {
        self.level == summary.level
            && self.acc.grew_into(&summary.acc)
            && self.rej.grew_into(&summary.rej)
    }
}

/// The plan's view of one candidate set of one input summary.
#[derive(Debug)]
struct SetPlan {
    /// Where each absorbed record went, in set order.
    places: Vec<Place>,
    /// The representative of the last absorbed record.
    last: Option<Point>,
}

impl SetPlan {
    fn with_capacity(n: usize) -> Self {
        Self {
            places: Vec::with_capacity(n),
            last: None,
        }
    }

    /// Whether `set` still holds every absorbed record: its last one,
    /// sharing its coordinates, at the same index. Within a level a
    /// summary of Algorithm 1 only appends, so that holds exactly while
    /// nothing was removed or reordered.
    fn grew_into(&self, set: &[GroupRecord]) -> bool {
        match (self.places.len().checked_sub(1), &self.last) {
            (None, _) => true,
            (Some(i), Some(last)) => set
                .get(i)
                .is_some_and(|r| r.rep.coords().as_ptr() == last.coords().as_ptr()),
            (Some(_), None) => false,
        }
    }
}

/// Marks a new record the plan cannot place exactly from its current
/// state.
struct Restart;

/// The placements of every record a plan absorbed.
#[derive(Debug)]
struct Absorbed {
    cfg: SamplerConfig,
    ctx: SamplerContext,
    /// The common rate exponent: the largest input level.
    level: u32,
    shards: Vec<ShardPlan>,
    /// The absorbed representatives under their ids: every host, and
    /// every record absorbed by an earlier merge.
    index: NearIndex,
    /// The position of the record under each id.
    ids: Vec<Pos>,
    /// The records this merge folded or dropped. A placement only reads
    /// earlier hosts, and a merge only re-places records that earlier
    /// merges absorbed, so these join the index when the next merge
    /// begins; a merge from empty that is never continued skips them.
    pending: Vec<Pos>,
    /// The largest absorbed position.
    last: Option<Pos>,
}

impl Absorbed {
    /// Nothing absorbed yet, for merging `summaries` under `cfg`.
    fn new(cfg: SamplerConfig, summaries: &[MergedSummary]) -> Self {
        let records = summaries.iter().map(|s| s.acc.len() + s.rej.len()).sum();
        let shards = summaries
            .iter()
            .map(|s| ShardPlan {
                level: s.level,
                acc: SetPlan::with_capacity(s.acc.len()),
                rej: SetPlan::with_capacity(s.rej.len()),
            })
            .collect();
        Self {
            ctx: SamplerContext::new(cfg.clone()),
            level: summaries.iter().map(|s| s.level).max().unwrap_or(0),
            shards,
            index: NearIndex::with_capacity(cfg.dim, cfg.alpha, records),
            ids: Vec::with_capacity(records),
            pending: Vec::new(),
            last: None,
            cfg,
        }
    }

    /// Whether every summary only appended to what this plan absorbed
    /// from it.
    fn grew_into(&self, summaries: &[MergedSummary]) -> bool {
        self.shards.len() == summaries.len()
            && summaries.iter().all(|s| s.cfg == self.cfg)
            && self
                .shards
                .iter()
                .zip(summaries)
                .all(|(plan, s)| plan.grew_into(s))
    }

    fn place(&self, pos: Pos) -> Place {
        self.shards[pos.shard()].set(pos.rej()).places[pos.index()]
    }

    fn set_place(&mut self, pos: Pos, place: Place) {
        self.shards[pos.shard()].set_mut(pos.rej()).places[pos.index()] = place;
    }

    /// Places every record of `summaries` not absorbed yet, in merge
    /// order.
    fn absorb_new(&mut self, summaries: &[MergedSummary]) -> Result<(), Restart> {
        let records: usize = summaries.iter().map(|s| s.acc.len() + s.rej.len()).sum();
        if !self.index.has_room(records.saturating_sub(self.ids.len())) {
            // Re-index the absorbed records with room for growth.
            let mut index =
                NearIndex::with_capacity(self.cfg.dim, self.cfg.alpha, records + records / 2);
            for (id, &pos) in self.ids.iter().enumerate() {
                index.insert(&record(summaries, pos).rep, id as u32);
            }
            self.index = index;
        }
        for pos in std::mem::take(&mut self.pending) {
            self.index_record(summaries, pos);
        }
        for (shard, summary) in summaries.iter().enumerate() {
            for (rej, set) in [(false, &summary.acc), (true, &summary.rej)] {
                let from = self.shards[shard].set(rej).places.len();
                for index in from..set.len() {
                    self.absorb(summaries, Pos::new(shard, rej, index))?;
                }
                self.shards[shard].set_mut(rej).last = set.last().map(|r| r.rep.clone());
            }
        }
        Ok(())
    }

    /// Places the record at `p`, the next one of its set, as the merge
    /// from empty of the absorbed records and this one would.
    fn absorb(&mut self, summaries: &[MergedSummary], p: Pos) -> Result<(), Restart> {
        let rec = record(summaries, p);
        let place = self.decide(summaries, rec, p);
        // Only a record placed before absorbed ones can take something
        // over from them; from empty, and for the last summary's new
        // records, it never does.
        let before_absorbed = self.last.is_some_and(|last| last > p);
        if let Place::Promoter(host) = place {
            // The host stops hosting at `p`: a later record that relied
            // on it would have to be re-placed.
            let relied_on = matches!(self.place(host), Place::PromotedBy(_))
                || before_absorbed && self.folded_after(summaries, host, p);
            if relied_on {
                return Err(Restart);
            }
            self.set_place(host, Place::PromotedBy(p));
        }
        let places = &mut self.shards[p.shard()].set_mut(p.rej()).places;
        debug_assert_eq!(places.len(), p.index(), "records absorbed out of order");
        places.push(place);
        self.last = self.last.max(Some(p));
        if matches!(place, Place::Fold(_) | Place::Drop) {
            self.pending.push(p);
            return Ok(());
        }
        self.index_record(summaries, p);
        if before_absorbed {
            self.replace_later(summaries, p, &rec.rep)?;
        }
        Ok(())
    }

    /// Indexes the representative of the absorbed record at `pos`.
    fn index_record(&mut self, summaries: &[MergedSummary], pos: Pos) {
        self.index
            .insert(&record(summaries, pos).rep, self.ids.len() as u32);
        self.ids.push(pos);
    }

    /// Where the merge from empty puts `rec`, at position `q`, given the
    /// records absorbed before it: folded into the earliest accept host
    /// within `alpha`, else into (or, if its own cell is sampled,
    /// promoting) the earliest live reject host, else a new group.
    fn decide(&self, summaries: &[MergedSummary], rec: &GroupRecord, q: Pos) -> Place {
        let alpha = self.cfg.alpha;
        let (mut acc, mut rej): (Option<Pos>, Option<Pos>) = (None, None);
        self.index.for_each_near(&rec.rep, |id| {
            let pos = self.ids[id as usize];
            if pos >= q {
                return;
            }
            let best = match self.place(pos) {
                Place::Acc | Place::Promoter(_) => &mut acc,
                Place::Rej if acc.is_none() => &mut rej,
                Place::PromotedBy(by) if by >= q && acc.is_none() => &mut rej,
                _ => return,
            };
            if best.is_none_or(|b| pos < b) && record(summaries, pos).rep.within(&rec.rep, alpha) {
                *best = Some(pos);
            }
        });
        let sampled = !q.rej() && rds_hashing::level_sampled(rec.cell_hash, self.level);
        match (acc, rej) {
            (Some(host), _) => Place::Fold(host),
            (None, Some(host)) if sampled => Place::Promoter(host),
            (None, Some(host)) => Place::Fold(host),
            (None, None) if sampled => Place::Acc,
            (None, None) if self.ctx.any_adjacent_sampled(&rec.rep, self.level) => Place::Rej,
            (None, None) => Place::Drop,
        }
    }

    /// Re-places, in merge order, the absorbed records after `p` that lie
    /// within `alpha` of the new host `rep` at `p`: only they can see it.
    fn replace_later(
        &mut self,
        summaries: &[MergedSummary],
        p: Pos,
        rep: &Point,
    ) -> Result<(), Restart> {
        let alpha = self.cfg.alpha;
        let mut later = Vec::new();
        self.index.for_each_near(rep, |id| {
            let pos = self.ids[id as usize];
            if pos > p && record(summaries, pos).rep.within(rep, alpha) {
                later.push(pos);
            }
        });
        later.sort_unstable();
        later.dedup();
        for y in later {
            let old = self.place(y);
            let new = self.decide(summaries, record(summaries, y), y);
            let was = match old {
                Place::PromotedBy(_) => Place::Rej,
                other => other,
            };
            if new == was {
                continue;
            }
            match (old, new) {
                (Place::Fold(_) | Place::Drop, Place::Fold(_)) => {}
                (Place::Acc | Place::Rej, Place::Fold(_))
                    if !self.folded_after(summaries, y, y) => {}
                (Place::Acc, Place::Promoter(host)) if host == p => {
                    // `y` promotes the new reject host, which hosts
                    // nothing after `y`.
                    self.set_place(p, Place::PromotedBy(y));
                    self.set_place(y, new);
                    return Ok(());
                }
                // A host that other records rely on changes: re-placing
                // them could cascade.
                _ => return Err(Restart),
            }
            self.set_place(y, new);
        }
        Ok(())
    }

    /// Whether a record after `after` is folded into `host`. A folded
    /// record lies within `alpha` of its host, so the index finds it
    /// among the host's neighbours.
    fn folded_after(&self, summaries: &[MergedSummary], host: Pos, after: Pos) -> bool {
        let mut found = false;
        self.index
            .for_each_near(&record(summaries, host).rep, |id| {
                let pos = self.ids[id as usize];
                found |= pos > after && self.place(pos) == Place::Fold(host);
            });
        found
    }

    /// The merged summary: every emitted record of `summaries` in merge
    /// order, with the counts folded into it, in one walk, written over
    /// `recycled` (an earlier output's sets and record positions) when
    /// there is one; also returns the position of each output record. A
    /// folded record comes after its host, so it adds its count to the
    /// host's output record; a promoted reject host comes before its
    /// promoter and gathers the counts folded into it until then.
    fn emit(
        &self,
        summaries: &[MergedSummary],
        recycled: Option<Recycled<[Vec<Pos>; 2]>>,
    ) -> (MergedSummary, [Vec<Pos>; 2]) {
        // Where each set starts in merge order, and how many records
        // each output set receives.
        let mut starts = Vec::with_capacity(2 * self.shards.len());
        let (mut records, mut n_acc, mut n_rej) = (0, 0, 0);
        for plan in &self.shards {
            for set in [&plan.acc, &plan.rej] {
                starts.push(records);
                records += set.places.len();
                for place in &set.places {
                    match place {
                        Place::Acc | Place::Promoter(_) => n_acc += 1,
                        Place::Rej => n_rej += 1,
                        _ => {}
                    }
                }
            }
        }
        let flat = |pos: Pos| starts[2 * pos.shard() + usize::from(pos.rej())] + pos.index();
        // Per record in merge order: an emitted host's index in its
        // output set, or the counts folded so far into a promoted host.
        let mut scratch = vec![0u64; records];
        let (old_acc, old_rej, [acc_at, rej_at]) = recycled.unwrap_or_default();
        let mut acc = SetWriter::new(old_acc, acc_at, n_acc);
        let mut rej = SetWriter::new(old_rej, rej_at, n_rej);
        let mut at = 0;
        for (shard, (plan, summary)) in self.shards.iter().zip(summaries).enumerate() {
            for (in_rej, set, records) in [
                (false, &plan.acc, &summary.acc),
                (true, &plan.rej, &summary.rej),
            ] {
                for (index, (&place, rec)) in set.places.iter().zip(records.iter()).enumerate() {
                    match place {
                        Place::Acc | Place::Promoter(_) | Place::Rej => {
                            let out = if place == Place::Rej {
                                &mut rej
                            } else {
                                &mut acc
                            };
                            let i = out.push(Pos::new(shard, in_rej, index), rec);
                            if let Place::Promoter(host) = place {
                                out.add_count(
                                    i,
                                    record(summaries, host).count + scratch[flat(host)],
                                );
                            }
                            scratch[at] = i as u64;
                        }
                        Place::Fold(host) => {
                            let gathered = &mut scratch[flat(host)];
                            match self.place(host) {
                                Place::PromotedBy(_) => *gathered += rec.count,
                                Place::Rej => rej.add_count(*gathered as usize, rec.count),
                                _ => acc.add_count(*gathered as usize, rec.count),
                            }
                        }
                        Place::PromotedBy(_) | Place::Drop => {}
                    }
                    at += 1;
                }
            }
        }
        let ((acc, acc_at), (rej, rej_at)) = (acc.finish(), rej.finish());
        let merged = MergedSummary::from_parts(self.cfg.clone(), self.level, acc, rej);
        (merged, [acc_at, rej_at])
    }
}

/// One output set of [`Absorbed::emit`], written over an earlier output's
/// set: in place while every record lands where it was (the same merge
/// position at the same index), then by moving the earlier records that
/// stay emitted past the new ones. A reused record keeps the points it
/// shares with its source; the others are cloned.
struct SetWriter {
    /// The records written so far, followed (until `rest` is split off)
    /// by the earlier output's records not yet reached.
    records: Vec<GroupRecord>,
    /// The merge position of each record of `records`.
    positions: Vec<Pos>,
    /// How many records are written.
    written: usize,
    /// The earlier output's remaining records with their positions, once
    /// a record did not land where it was.
    rest: Option<Peekable<Zip<IntoIter<Pos>, IntoIter<GroupRecord>>>>,
}

impl SetWriter {
    /// A writer over `records` at `positions`, for `n` records.
    fn new(mut records: Vec<GroupRecord>, mut positions: Vec<Pos>, n: usize) -> Self {
        records.reserve(n.saturating_sub(records.len()));
        positions.reserve(n.saturating_sub(positions.len()));
        Self {
            records,
            positions,
            written: 0,
            rest: None,
        }
    }

    /// Writes `rec`, from merge position `p`, as the next record and
    /// returns its index.
    fn push(&mut self, p: Pos, rec: &GroupRecord) -> usize {
        let i = self.written;
        self.written += 1;
        if self.rest.is_none() {
            if self.positions.get(i) == Some(&p) && i < self.records.len() {
                self.records[i].clone_from(rec);
                return i;
            }
            let positions = self.positions.split_off(i);
            let records = self.records.split_off(i);
            self.rest = Some(positions.into_iter().zip(records).peekable());
        }
        let reused = self.rest.as_mut().and_then(|rest| {
            // Earlier records placed before `p` are no longer emitted.
            while rest.next_if(|(q, _)| *q < p).is_some() {}
            rest.next_if(|(q, _)| *q == p)
        });
        let out = match reused {
            Some((_, mut old)) => {
                old.clone_from(rec);
                old
            }
            None => rec.clone(),
        };
        self.records.push(out);
        self.positions.push(p);
        i
    }

    /// Adds `count` to the count of record `i`.
    fn add_count(&mut self, i: usize, count: u64) {
        self.records[i].count += count;
    }

    /// The written records and their positions; earlier records not
    /// reached are dropped.
    fn finish(mut self) -> (Vec<GroupRecord>, Vec<Pos>) {
        self.records.truncate(self.written);
        self.positions.truncate(self.written);
        (self.records, self.positions)
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

    /// Publishes as the sharded engine makes them (each site's
    /// `summary_cow`, merged through one kept plan), separated by batches
    /// of duplicates only: every count moves, yet the third publish
    /// writes its records into the very vectors of the first, which was
    /// let go of, and keeps their points.
    #[test]
    fn publishes_after_duplicates_rewrite_the_records_in_place() {
        let cfg = cfg(9, 4096);
        let (mut a, mut b) = (site(&cfg), site(&cfg));
        let mut plan = MergePlan::default();
        let mut publish = |round: u64| {
            for i in 0..60u64 {
                let p = Point::new(vec![i as f64 * 10.0 + 0.01 * round as f64]);
                if i < 40 {
                    a.process(&p);
                }
                b.process(&p);
            }
            let shards = vec![a.summary_cow(), b.summary_cow()];
            let merged = plan.merge(shards.clone()).expect("same cfg");
            (shards, merged.expect("two sites"))
        };
        let buffers = |summaries: &[&MergedSummary]| -> Vec<*const GroupRecord> {
            summaries.iter().map(|s| s.accept_set().as_ptr()).collect()
        };
        let (shards, merged) = publish(0);
        let first = buffers(&[&shards[0], &shards[1], &merged]);
        let old_reps: Vec<Point> = merged.accept_set().iter().map(|r| r.rep.clone()).collect();
        let old_counts: Vec<u64> = merged.accept_set().iter().map(|r| r.count).collect();
        // The second publish is held (a reader would hold the newest), the
        // first let go of before the third.
        let second = publish(1);
        assert_ne!(buffers(&[&second.0[0], &second.0[1], &second.1]), first);
        drop((shards, merged));
        let (shards, merged) = publish(2);
        assert_eq!(buffers(&[&shards[0], &shards[1], &merged]), first);
        assert_eq!(merged.accept_set().len(), old_reps.len(), "a new group");
        for ((rec, rep), count) in merged.accept_set().iter().zip(&old_reps).zip(&old_counts) {
            assert!(rec.rep.shares_coords(rep), "representative copied");
            assert!(rec.count > *count, "record not republished");
        }
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
