//! Struct-of-arrays storage for candidate group records, bucket-indexed
//! for Algorithm 1's duplicate check.
//!
//! [`RobustL0Sampler`](crate::RobustL0Sampler) used to keep its accept and
//! reject sets as `Vec<GroupRecord>` and answer "does `p` belong to a
//! tracked group?" (Line 4) with a linear `within(p, alpha)` scan over
//! *every* record — the dominant per-point cost once a few hundred groups
//! are live. [`CandidateStore`] keeps the same records indexed instead:
//!
//! * **SoA columns** — `cell_hashes` / `counts` / `reps` / `reservoirs` /
//!   chain-rank tags, one entry per record, addressed by a stable slot
//!   index, plus a flat `dim`-strided mirror of the representatives'
//!   coordinates for the distance test. `reps` and `reservoirs` hold
//!   [`Point`]s whose coordinates are shared, not owned: a new record
//!   shares the arriving point's buffer, reservoir replacement swaps one
//!   reference for another, and every summary built from the store
//!   shares the same buffers. `reps_flat` is the probe's contiguous copy.
//! * **Bucket index** — the summary merges' near-duplicate index
//!   (`merge_index.rs`) over every representative, under its slot:
//!   buckets of width `2α` over the first one or two coordinates, so a
//!   point probes its own bucket and the neighbours on its side of the
//!   bucket's midpoint (2 × 2 buckets, 3 × 3 at worst) plus an overflow
//!   list of representatives that cannot be bucketed. The probe costs the
//!   same in every dimension; no grid cell is enumerated.
//! * **Insertion-order lists** `acc_slots` / `rej_slots` preserving the
//!   exact accept-then-reject chain order the linear scan had. The probe
//!   keeps the candidate with the smallest chain rank, so the earliest
//!   matching record wins exactly as before, and every decision, PRNG
//!   draw and serialized byte is unchanged.
//!
//! Coverage is exact, not approximate: every record within `alpha` of `p`
//! is a candidate, and the geometric comparison stays authoritative. A
//! query point that cannot be bucketed (a huge coordinate, an `alpha`
//! whose square is not a normal float) walks the chain lists in order
//! and returns the first match.
//!
//! The index is built lazily, at the first probe, for the `alpha` that
//! probe passes (the store itself carries no threshold); a probe under a
//! different `alpha` takes the chain walk. Appends keep it current;
//! rate doubling ([`CandidateStore::retain_after_doubling`]) compacts the
//! columns in one `O(n)` pass and drops it, as does an append past its
//! capacity, and the next probe rebuilds it. Rate doubling is bounded by
//! [`MAX_LEVEL`](crate::MAX_LEVEL) over a sampler's lifetime, so the hot
//! path never sees tombstones.

use crate::infinite::GroupRecord;
use crate::merge_index::NearIndex;
use rds_geometry::Point;
use std::sync::OnceLock;

/// Marker for a slot that did not survive compaction.
const DROPPED: u32 = u32::MAX;
/// Chain-rank tag bit: reject-set records order after every accept-set
/// record, mirroring the old `acc.iter().chain(rej.iter())` scan order.
const REJ_TAG: u64 = 1 << 63;

/// Bucket-indexed struct-of-arrays candidate storage (see the module
/// docs).
#[derive(Clone, Debug, Default)]
pub struct CandidateStore {
    // SoA columns, one entry per live record, slot-stable between
    // doublings.
    cell_hashes: Vec<u64>,
    counts: Vec<u64>,
    reps: Vec<Point>,
    reservoirs: Vec<Point>,
    /// Combined accept/reject tag and chain rank: accept records carry a
    /// bare monotone counter, reject records the counter with [`REJ_TAG`]
    /// set, so comparing ranks reproduces accept-then-reject insertion
    /// order.
    ranks: Vec<u64>,
    /// Accept set in insertion order (slot indices).
    acc_slots: Vec<u32>,
    /// Reject set in insertion order (slot indices).
    rej_slots: Vec<u32>,
    /// `reps` coordinates mirrored into one flat `dim`-strided buffer, so
    /// the probe's distance test reads contiguous memory instead of
    /// chasing each representative's own heap allocation.
    reps_flat: Vec<f64>,
    /// Every slot's representative under the slot id; built by the first
    /// probe after a rebuild point (see the module docs).
    index: OnceLock<NearIndex>,
    next_acc_rank: u64,
    next_rej_rank: u64,
}

impl CandidateStore {
    /// An empty store.
    // lint:allow(L4) parameterless and infallible: an empty store has no
    // validation to fail, so a try_new sibling would have nothing to check
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live records (both sets).
    #[inline]
    pub fn len(&self) -> usize {
        self.reps.len()
    }

    /// Whether the store holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.reps.is_empty()
    }

    /// Accept-set size (`|Sacc|`).
    #[inline]
    pub fn acc_len(&self) -> usize {
        self.acc_slots.len()
    }

    /// Reject-set size (`|Srej|`).
    #[inline]
    pub fn rej_len(&self) -> usize {
        self.rej_slots.len()
    }

    /// The slot of the earliest record, in accept-then-reject chain order,
    /// whose representative is within `alpha` of `p`: exactly the record
    /// the old linear scan found first.
    #[inline]
    pub fn probe(&self, p: &Point, alpha: f64) -> Option<u32> {
        let index = self.index.get_or_init(|| self.build_index(p.dim(), alpha));
        let mut best: Option<(u64, u32)> = None;
        let bucketed = index.alpha().to_bits() == alpha.to_bits()
            && index.for_each_candidate(p, |slot| {
                let rank = self.ranks[slot as usize];
                if best.is_none_or(|(r, _)| rank < r) && self.rep_within(slot as usize, p, alpha) {
                    best = Some((rank, slot));
                }
            });
        if bucketed {
            return best.map(|(_, slot)| slot);
        }
        // `p` cannot be bucketed: walk the chain in order.
        self.acc_slots
            .iter()
            .chain(&self.rej_slots)
            .copied()
            .find(|&slot| self.rep_within(slot as usize, p, alpha))
    }

    /// [`CandidateStore::probe`] folded into `best` as `(chain rank,
    /// slot)`, keeping the smaller rank. The index buckets `p` itself, so
    /// the mixer key of `cell(p)` is not consulted; the parameter keeps
    /// the signature callers of the earlier cell-keyed probe use.
    #[inline]
    pub fn probe_best(&self, _key: u64, p: &Point, alpha: f64, best: &mut Option<(u64, u32)>) {
        if let Some(slot) = self.probe(p, alpha) {
            let rank = self.ranks[slot as usize];
            if best.is_none_or(|(r, _)| rank < r) {
                *best = Some((rank, slot));
            }
        }
    }

    /// The bucket index over every current record, sized for as many
    /// again before it must be rebuilt.
    fn build_index(&self, dim: usize, alpha: f64) -> NearIndex {
        let mut index = NearIndex::with_capacity(dim, alpha, (self.len() * 2).max(8));
        for (slot, rep) in self.reps.iter().enumerate() {
            index.insert(rep, slot as u32);
        }
        index
    }

    /// `self.reps[s].within(p, alpha)`, computed over the flat coordinate
    /// mirror: the identical subtract/square/accumulate/early-exit
    /// sequence of [`Point::within`], operand for operand, so the result
    /// is bit-for-bit the same.
    #[inline]
    fn rep_within(&self, s: usize, p: &Point, alpha: f64) -> bool {
        let dim = p.dim();
        let rep = &self.reps_flat[s * dim..s * dim + dim];
        let limit = alpha * alpha;
        let mut acc = 0.0;
        for (a, b) in rep.iter().zip(p.coords().iter()) {
            let d = a - b;
            acc += d * d;
            if acc > limit {
                return false;
            }
        }
        true
    }

    /// Increments the duplicate counter of `slot`, returning the new
    /// count.
    #[inline]
    pub fn bump_count(&mut self, slot: u32) -> u64 {
        let c = &mut self.counts[slot as usize];
        *c += 1;
        *c
    }

    /// Replaces the reservoir member of `slot` with `p`, sharing `p`'s
    /// coordinates: a reference-count swap, no copy.
    #[inline]
    pub fn set_reservoir(&mut self, slot: u32, p: &Point) {
        self.reservoirs[slot as usize] = p.clone();
    }

    /// The stored cell hash (`h(cell(rep))`) of `slot`.
    #[inline]
    pub fn cell_hash(&self, slot: u32) -> u64 {
        self.cell_hashes[slot as usize]
    }

    /// The representative point of `slot`.
    #[inline]
    pub fn rep(&self, slot: u32) -> &Point {
        &self.reps[slot as usize]
    }

    /// The reservoir member of `slot`.
    #[inline]
    pub fn reservoir(&self, slot: u32) -> &Point {
        &self.reservoirs[slot as usize]
    }

    /// The slot of the `i`-th accept-set record (insertion order).
    #[inline]
    pub fn acc_slot(&self, i: usize) -> u32 {
        self.acc_slots[i]
    }

    /// Appends a new accept-set record with cell hash `hash`, count 1 and
    /// the representative as its own reservoir member.
    pub fn push_acc(&mut self, hash: u64, rep: Point) {
        let rank = self.next_acc_rank;
        self.next_acc_rank += 1;
        let reservoir = rep.clone();
        let slot = self.push_record(hash, rep, reservoir, 1, rank);
        self.acc_slots.push(slot);
    }

    /// Appends a new reject-set record with cell hash `hash`, count 1 and
    /// the representative as its own reservoir member.
    pub fn push_rej(&mut self, hash: u64, rep: Point) {
        let rank = REJ_TAG | self.next_rej_rank;
        self.next_rej_rank += 1;
        let reservoir = rep.clone();
        let slot = self.push_record(hash, rep, reservoir, 1, rank);
        self.rej_slots.push(slot);
    }

    fn push_record(
        &mut self,
        hash: u64,
        rep: Point,
        reservoir: Point,
        count: u64,
        rank: u64,
    ) -> u32 {
        let slot = self.reps.len() as u32;
        if let Some(index) = self.index.get_mut() {
            if index.is_full() {
                self.index = OnceLock::new();
            } else {
                index.insert(&rep, slot);
            }
        }
        self.cell_hashes.push(hash);
        self.counts.push(count);
        self.reps_flat.extend_from_slice(rep.coords());
        self.reps.push(rep);
        self.reservoirs.push(reservoir);
        self.ranks.push(rank);
        slot
    }

    /// The rate-doubling refilter, as one compaction pass over the
    /// columns (no coordinate is copied):
    ///
    /// * accept records stay accepted while `keep_acc(cell_hash)` holds
    ///   (Fact 1b: survivors are a subset);
    /// * demoted accept records move to the *back* of the reject list, in
    ///   accept order, when `keep_rej(rep)` holds;
    /// * reject records stay while `keep_rej(rep)` holds;
    ///
    /// then the columns are compacted to the survivors and the index is
    /// dropped for the next probe to rebuild. Both predicates must be
    /// pure (they are hash lookups).
    pub fn retain_after_doubling<KA, KR>(&mut self, mut keep_acc: KA, mut keep_rej: KR)
    where
        KA: FnMut(u64) -> bool,
        KR: FnMut(&Point) -> bool,
    {
        let mut new_acc: Vec<u32> = Vec::with_capacity(self.acc_slots.len());
        let mut demoted: Vec<u32> = Vec::new();
        for &slot in &self.acc_slots {
            if keep_acc(self.cell_hashes[slot as usize]) {
                new_acc.push(slot);
            } else {
                demoted.push(slot);
            }
        }
        let mut new_rej: Vec<u32> = Vec::with_capacity(self.rej_slots.len());
        for &slot in &self.rej_slots {
            if keep_rej(&self.reps[slot as usize]) {
                new_rej.push(slot);
            }
        }
        for &slot in &demoted {
            if keep_rej(&self.reps[slot as usize]) {
                // Demotion: append after every surviving reject record,
                // preserving relative accept order.
                self.ranks[slot as usize] = REJ_TAG | self.next_rej_rank;
                self.next_rej_rank += 1;
                new_rej.push(slot);
            }
        }
        self.acc_slots = new_acc;
        self.rej_slots = new_rej;
        self.compact();
    }

    /// Drops every record not referenced by the order lists, renumbers
    /// slots, and drops the index. `O(n)`; runs only on rate doubling.
    fn compact(&mut self) {
        let live = self.acc_slots.len() + self.rej_slots.len();
        let mut remap = vec![DROPPED; self.reps.len()];
        let mut order: Vec<u32> = Vec::with_capacity(live);
        for &slot in self.acc_slots.iter().chain(self.rej_slots.iter()) {
            debug_assert_eq!(
                remap[slot as usize], DROPPED,
                "a live slot was referenced twice"
            );
            remap[slot as usize] = order.len() as u32;
            order.push(slot);
        }
        let mut cell_hashes = Vec::with_capacity(live);
        let mut counts = Vec::with_capacity(live);
        let mut ranks = Vec::with_capacity(live);
        let mut reps = Vec::with_capacity(live);
        let mut reservoirs = Vec::with_capacity(live);
        for &slot in &order {
            let s = slot as usize;
            cell_hashes.push(self.cell_hashes[s]);
            counts.push(self.counts[s]);
            ranks.push(self.ranks[s]);
            reps.push(self.reps[s].clone());
            reservoirs.push(self.reservoirs[s].clone());
        }
        self.cell_hashes = cell_hashes;
        self.counts = counts;
        self.ranks = ranks;
        self.reps = reps;
        self.reservoirs = reservoirs;
        self.reps_flat.clear();
        for r in &self.reps {
            self.reps_flat.extend_from_slice(r.coords());
        }
        for slot in self.acc_slots.iter_mut().chain(self.rej_slots.iter_mut()) {
            *slot = remap[*slot as usize];
        }
        self.index = OnceLock::new();
    }

    /// Materializes one record (its points share the store's
    /// coordinates).
    pub fn record_at(&self, slot: u32) -> GroupRecord {
        let s = slot as usize;
        GroupRecord {
            rep: self.reps[s].clone(),
            cell_hash: self.cell_hashes[s],
            count: self.counts[s],
            reservoir: self.reservoirs[s].clone(),
        }
    }

    /// Materializes the accept set as owned records, in insertion order —
    /// the exact `Vec<GroupRecord>` the pre-SoA sampler stored, for the
    /// serde wire format and summary `Arc` sharing.
    pub fn acc_records(&self) -> Vec<GroupRecord> {
        let mut records = Vec::new();
        self.write_records(&self.acc_slots, &mut records);
        records
    }

    /// Materializes the reject set as owned records, in insertion order.
    pub fn rej_records(&self) -> Vec<GroupRecord> {
        let mut records = Vec::new();
        self.write_records(&self.rej_slots, &mut records);
        records
    }

    /// Makes `acc` and `rej` the two sets' records, in insertion order.
    /// The records they already hold are rewritten in place, and a
    /// point's reference count is written only where a record does not
    /// share that point already: rewriting the vectors of an earlier
    /// summary, whose records are mostly the same groups at the same
    /// places, costs reference counts for the changed points only.
    pub(crate) fn write_sets(&self, acc: &mut Vec<GroupRecord>, rej: &mut Vec<GroupRecord>) {
        self.write_records(&self.acc_slots, acc);
        self.write_records(&self.rej_slots, rej);
    }

    fn write_records(&self, slots: &[u32], records: &mut Vec<GroupRecord>) {
        records.truncate(slots.len());
        for (record, &slot) in records.iter_mut().zip(slots) {
            let s = slot as usize;
            record.rep.clone_from(&self.reps[s]);
            record.cell_hash = self.cell_hashes[s];
            record.count = self.counts[s];
            record.reservoir.clone_from(&self.reservoirs[s]);
        }
        let written = records.len();
        records.extend(slots[written..].iter().map(|&s| self.record_at(s)));
    }

    /// Rebuilds a store from materialized record vectors (the checkpoint
    /// restore path); the persisted `cell_hash` is kept verbatim and the
    /// index is built by the first probe. `_key_of` is not called: the
    /// index derives each record's bucket from its representative. The
    /// parameter keeps the signature callers of the earlier cell-keyed
    /// store use.
    pub fn from_records(
        acc: Vec<GroupRecord>,
        rej: Vec<GroupRecord>,
        _key_of: impl FnMut(&Point) -> u64,
    ) -> Self {
        Self::from_sets(acc, rej)
    }

    /// [`CandidateStore::from_records`] without the unused key function.
    pub(crate) fn from_sets(acc: Vec<GroupRecord>, rej: Vec<GroupRecord>) -> Self {
        let mut store = Self::new();
        for r in acc {
            let rank = store.next_acc_rank;
            store.next_acc_rank += 1;
            let slot = store.push_record(r.cell_hash, r.rep, r.reservoir, r.count, rank);
            store.acc_slots.push(slot);
        }
        for r in rej {
            let rank = REJ_TAG | store.next_rej_rank;
            store.next_rej_rank += 1;
            let slot = store.push_record(r.cell_hash, r.rep, r.reservoir, r.count, rank);
            store.rej_slots.push(slot);
        }
        store
    }

    /// Machine words held by the records: every record stores two
    /// `dim`-coordinate points plus two bookkeeping words. `O(1)` — all
    /// stored points have the configured dimension (enforced on ingest
    /// and on restore), so no per-record walk is needed.
    pub fn words(&self, dim: usize) -> usize {
        self.len() * (2 * dim + 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn pt(x: f64) -> Point {
        Point::new(vec![x])
    }

    /// The linear accept-then-reject scan the index replaces.
    fn chain_scan(store: &CandidateStore, p: &Point, alpha: f64) -> Option<u32> {
        store
            .acc_slots
            .iter()
            .chain(&store.rej_slots)
            .copied()
            .find(|&slot| store.rep(slot).within(p, alpha))
    }

    #[test]
    fn probe_respects_chain_order_and_the_geometric_test() {
        let mut store = CandidateStore::new();
        // 0.0 is a reject record, ranked after every accept record; 0.0
        // and 0.2 share bucket 0 at width 2α = 1, and 1.0 is in bucket 1.
        store.push_rej(100, pt(0.0));
        store.push_acc(200, pt(0.2));
        store.push_acc(300, pt(10.0));
        store.push_acc(400, pt(1.0));
        // Both 0.0 and 0.2 are within 0.5 of 0.1; the accept record wins
        // even though the reject record was inserted first.
        let slot = store.probe(&pt(0.1), 0.5).expect("a match");
        assert_eq!(
            store.ranks[slot as usize] & REJ_TAG,
            0,
            "accept beats reject"
        );
        assert_eq!(store.rep(slot), &pt(0.2));
        assert_eq!(
            store.probe(&pt(10.1), 0.5).map(|s| store.rep(s)),
            Some(&pt(10.0))
        );
        // Every record is a candidate of 1.55 (buckets 0 and 1 are probed),
        // but the nearest, 1.0, is 0.55 away.
        assert_eq!(
            store.probe(&pt(1.55), 0.5),
            None,
            "geometric comparison is authoritative"
        );
        // The rank-folding form agrees, and keeps a rank it is given that
        // is no larger.
        let mut best = None;
        store.probe_best(0, &pt(0.1), 0.5, &mut best);
        assert_eq!(best.map(|(_, s)| s), Some(slot));
        let mut lower = Some((0, 7));
        store.probe_best(0, &pt(0.1), 0.5, &mut lower);
        assert_eq!(lower, Some((0, 7)));
    }

    #[test]
    fn records_round_trip_in_insertion_order() {
        let mut store = CandidateStore::new();
        for i in 0..20 {
            if i % 3 == 0 {
                store.push_rej(i * 10, pt(i as f64));
            } else {
                store.push_acc(i * 10, pt(i as f64));
            }
        }
        assert_eq!(store.acc_len() + store.rej_len(), store.len());
        let acc = store.acc_records();
        let rej = store.rej_records();
        assert!(acc.windows(2).all(|w| w[0].rep.get(0) < w[1].rep.get(0)));
        assert!(rej.windows(2).all(|w| w[0].rep.get(0) < w[1].rep.get(0)));
        let rebuilt = CandidateStore::from_records(acc, rej, |p| p.get(0) as u64);
        assert_eq!(rebuilt.acc_len(), store.acc_len());
        assert_eq!(rebuilt.rej_len(), store.rej_len());
        for x in [0.0, 1.0, 5.0, 18.0] {
            let hit = |s: &CandidateStore| s.probe(&pt(x), 0.4).map(|slot| s.record_at(slot).rep);
            assert_eq!(hit(&rebuilt), hit(&store), "{x}");
        }
    }

    #[test]
    fn retain_after_doubling_demotes_in_order_and_compacts() {
        let mut store = CandidateStore::new();
        // acc: hashes 1 (drop), 2 (keep), 3 (drop); rej: rep 100 kept,
        // rep 101 dropped.
        store.push_acc(1, pt(1.0));
        store.push_acc(2, pt(2.0));
        store.push_acc(3, pt(3.0));
        store.push_rej(4, pt(100.0));
        store.push_rej(5, pt(101.0));
        // Build the index before compaction, so the probes below see the
        // rebuilt one.
        assert!(store.probe(&pt(3.0), 0.5).is_some());
        store.retain_after_doubling(
            |hash| hash == 2,
            |rep| {
                let x = rep.get(0);
                // demoted 1.0 survives, demoted 3.0 does not; old rej
                // 100.0 survives, 101.0 does not
                x == 1.0 || x == 100.0
            },
        );
        let acc = store.acc_records();
        let rej = store.rej_records();
        assert_eq!(acc.len(), 1);
        assert_eq!(acc[0].rep, pt(2.0));
        // old reject survivors first, then demotions, in order
        assert_eq!(rej.len(), 2);
        assert_eq!(rej[0].rep, pt(100.0));
        assert_eq!(rej[1].rep, pt(1.0));
        assert_eq!(store.len(), 3);
        // the index answers probes after compaction
        assert_eq!(
            store.probe(&pt(2.1), 0.5).map(|s| store.rep(s)),
            Some(&pt(2.0))
        );
        assert_eq!(
            store.probe(&pt(1.1), 0.5).map(|s| store.rep(s)),
            Some(&pt(1.0))
        );
        assert_eq!(
            store.probe(&pt(3.0), 0.5),
            None,
            "dropped record still probeable"
        );
        assert_eq!(
            store.probe(&pt(101.0), 0.5),
            None,
            "dropped record still probeable"
        );
    }

    #[test]
    fn far_apart_reps_sharing_a_bucket_are_both_found() {
        let mut store = CandidateStore::new();
        // Same first two coordinates, so the same bucket; 50 apart in the
        // third.
        let a = Point::new(vec![0.0, 0.0, 0.0]);
        let b = Point::new(vec![0.0, 0.0, 50.0]);
        store.push_acc(1, a.clone());
        store.push_acc(2, b.clone());
        let sa = store
            .probe(&Point::new(vec![0.1, 0.0, 0.0]), 0.5)
            .expect("first");
        let sb = store
            .probe(&Point::new(vec![0.1, 0.0, 50.1]), 0.5)
            .expect("second");
        assert_eq!((store.rep(sa), store.rep(sb)), (&a, &b));
    }

    #[test]
    fn index_grows_past_initial_capacity() {
        let mut store = CandidateStore::new();
        assert_eq!(store.probe(&pt(-5.0), 0.5), None);
        let built = store.index.get().map(|ix| ix.is_full());
        assert_eq!(built, Some(false), "the first probe builds the index");
        for i in 0..1000u64 {
            store.push_acc(i, pt(i as f64 * 10.0));
            // Probing after every append rebuilds the index each time an
            // append finds it full.
            let found = store.probe(&pt(i as f64 * 10.0 + 0.1), 0.5);
            assert_eq!(found, Some(i as u32), "record {i} unreachable");
        }
        for i in (0..1000u64).step_by(97) {
            let found = store.probe(&pt(i as f64 * 10.0 - 0.1), 0.5);
            assert_eq!(found, Some(i as u32), "record {i} unreachable");
        }
    }

    #[test]
    fn probe_equals_the_chain_scan_on_every_path() {
        // Bucketed reps, reps past 2^52 · 2α (overflow list), an alpha
        // whose square underflows (nothing bucketed), and a probe under a
        // different alpha than the index was built for.
        let mut rng = StdRng::seed_from_u64(7);
        for (alpha, scale, offset) in [(0.5, 1.0, 0.0), (0.5, 1.0, 1e16), (1e-170, 3e-163, 0.0)] {
            let mut store = CandidateStore::new();
            let point = |rng: &mut StdRng| {
                let x = rng.random_range(0.0..20.0) * scale;
                let x0 = if rng.random_range(0..2) == 0 {
                    x + offset
                } else {
                    x
                };
                Point::new(vec![x0, rng.random_range(0.0..3.0) * scale])
            };
            for i in 0..300 {
                let p = point(&mut rng);
                assert_eq!(store.probe(&p, alpha), chain_scan(&store, &p, alpha));
                assert_eq!(
                    store.probe(&p, 2.0 * alpha),
                    chain_scan(&store, &p, 2.0 * alpha)
                );
                if i % 4 == 0 {
                    store.push_rej(i, p);
                } else if store.probe(&p, alpha).is_none() {
                    store.push_acc(i, p);
                }
            }
        }
    }

    #[test]
    fn words_counts_two_points_and_two_bookkeeping_words_per_record() {
        let mut store = CandidateStore::new();
        assert_eq!(store.words(3), 0);
        store.push_acc(1, Point::new(vec![1.0, 2.0, 3.0]));
        store.push_rej(2, Point::new(vec![4.0, 5.0, 6.0]));
        assert_eq!(store.words(3), 2 * (2 * 3 + 2));
    }
}
