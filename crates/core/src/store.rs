//! Cell-indexed struct-of-arrays storage for candidate group records.
//!
//! [`RobustL0Sampler`](crate::RobustL0Sampler) used to keep its accept and
//! reject sets as `Vec<GroupRecord>` and answer "does `p` belong to a
//! tracked group?" with a linear `within(p, alpha)` scan over *every*
//! record — the dominant per-point cost once a few hundred groups are
//! live. [`CandidateStore`] keeps the same records cell-indexed instead:
//!
//! * **SoA columns** — `cell_keys` / `cell_hashes` / `counts` / `reps` /
//!   `reservoirs` / chain-rank tags, one entry per record, addressed by a
//!   stable slot index. The duplicate probe touches only the small
//!   integer columns plus the few `reps` it actually compares.
//! * **Open-addressing table** keyed by the mixer key of `cell(rep)`,
//!   mapping to slots (linear probing, duplicate keys allowed — two
//!   groups may share a cell). A point probes only the buckets of cells
//!   within `alpha` of it, enumerated by the pruned adjacency DFS, and
//!   runs the geometric comparison on just those candidates.
//! * **Insertion-order lists** `acc_slots` / `rej_slots` preserving the
//!   exact accept-then-reject chain order the linear scan had, so the
//!   earliest matching record wins ties exactly as before.
//!
//! Coverage is exact, not approximate: a record `r` matching `p` has
//! `d(p, cell(r)) <= d(p, r) <= alpha`, so `cell(r)` is always among the
//! probed cells, and a spurious mixer-key collision only costs a wasted
//! `within` check (the geometric comparison stays authoritative).
//!
//! Deletions happen only on rate doubling
//! ([`CandidateStore::retain_after_doubling`]), which compacts the
//! columns and rebuilds the table in one `O(n)` pass — rate doubling is
//! bounded by [`MAX_LEVEL`](crate::MAX_LEVEL) over a sampler's lifetime,
//! so the hot path never sees tombstones.

use crate::infinite::GroupRecord;
use rds_geometry::Point;

/// Empty marker for table buckets.
const EMPTY: u32 = u32::MAX;
/// Chain-rank tag bit: reject-set records order after every accept-set
/// record, mirroring the old `acc.iter().chain(rej.iter())` scan order.
const REJ_TAG: u64 = 1 << 63;

/// Cell-indexed struct-of-arrays candidate storage (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct CandidateStore {
    // SoA columns, one entry per live record, slot-stable between
    // doublings.
    cell_keys: Vec<u64>,
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
    /// Open-addressing table (linear probing, power-of-two capacity).
    /// Each entry packs the key's high 32 bits over the slot index
    /// (`tag << 32 | slot`); an entry whose slot half is [`EMPTY`] is a
    /// free bucket. Comparing tags instead of full keys can only *add*
    /// `within` checks on tag collisions, and any record passing the
    /// geometric check is a true match that the probe of its own cell
    /// would report anyway (`d(p, cell(r)) <= d(p, r)`), so the fused
    /// layout returns exactly what the two-array full-key table did —
    /// while halving the memory the probe loop touches.
    table: Vec<u64>,
    /// Key-presence bitmap (8 bits per table bucket, power-of-two word
    /// count): bit `key % 64` of word `(key / 64) % len` is set for every
    /// key in the table. Most adjacent cells of a point hold no record,
    /// and this one-load test lets [`CandidateStore::probe_best`] dismiss
    /// them without walking the table's collision clusters; a false
    /// positive (~6% at the 3/4 load factor) only costs the normal probe.
    filter: Vec<u64>,
    next_acc_rank: u64,
    next_rej_rank: u64,
}

/// A free table bucket: the slot half is [`EMPTY`].
pub(crate) const EMPTY_ENTRY: u64 = u64::MAX;

/// Sets `key`'s presence bit in `filter` (`filter.len()` a power of two).
#[inline]
fn filter_set(filter: &mut [u64], key: u64) {
    let w = (key as usize >> 6) & (filter.len() - 1);
    filter[w] |= 1u64 << (key & 63);
}

/// Linear-probing insert of `tag << 32 | slot` into the fused table
/// (`table.len()` a power of two, never full).
#[inline]
pub(crate) fn table_insert(table: &mut [u64], key: u64, slot: u32) {
    let m = table.len() - 1;
    let mut idx = (key as usize) & m;
    while table[idx & m] as u32 != EMPTY {
        idx += 1;
    }
    table[idx & m] = (key >> 32) << 32 | u64::from(slot);
}

/// Calls `visit` with the slot of every entry of the fused table whose
/// tag matches `key`'s: every slot inserted under `key`, plus the rare
/// slot of another key sharing its high 32 bits (`table.len()` a power of
/// two, never full).
#[inline]
pub(crate) fn table_probe(table: &[u64], key: u64, mut visit: impl FnMut(u32)) {
    // Indexing with `i & (len - 1)` is provably in bounds, so the probe
    // loop compiles without bounds checks.
    let m = table.len() - 1;
    let tag = key >> 32;
    let mut idx = (key as usize) & m;
    loop {
        let entry = table[idx & m];
        let slot = entry as u32;
        if slot == EMPTY {
            return;
        }
        if (entry >> 32) == tag {
            visit(slot);
        }
        idx += 1;
    }
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

    /// Folds every record of the bucket for cell key `key` whose
    /// representative is within `alpha` of `p` into `best`, keeping the
    /// record with the smallest chain rank. Called once per probed cell;
    /// after probing every cell within `alpha` of `p`, `best` holds
    /// exactly the record the old linear accept-then-reject scan would
    /// have found first.
    #[inline]
    pub fn probe_best(&self, key: u64, p: &Point, alpha: f64, best: &mut Option<(u64, u32)>) {
        if self.table.is_empty() {
            return;
        }
        // One-load early out: no record has this key anywhere in the
        // table (the common case — most adjacent cells are empty).
        let w = (key as usize >> 6) & (self.filter.len() - 1);
        if self.filter[w] & (1u64 << (key & 63)) == 0 {
            return;
        }
        table_probe(&self.table, key, |slot| {
            let s = slot as usize;
            if self.rep_within(s, p, alpha) {
                let rank = self.ranks[s];
                if best.is_none_or(|(r, _)| rank < r) {
                    *best = Some((rank, slot));
                }
            }
        });
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

    /// The linear-scan fallback of [`CandidateStore::probe_best`]: walks
    /// the accept then the reject list in insertion order and returns the
    /// first record within `alpha` of `p`. Chain order equals rank order,
    /// so this is exactly the minimum-rank record the cell-indexed probe
    /// finds — used when `p`'s adjacent-cell enumeration would visit more
    /// cells than the store has records worth scanning (high-dimensional
    /// grids, where `|adj(p)|` grows exponentially with the dimension).
    pub fn scan_best(&self, p: &Point, alpha: f64) -> Option<(u64, u32)> {
        for &slot in self.acc_slots.iter().chain(self.rej_slots.iter()) {
            let s = slot as usize;
            if self.reps[s].within(p, alpha) {
                return Some((self.ranks[s], slot));
            }
        }
        None
    }

    /// Increments the duplicate counter of `slot`, returning the new
    /// count.
    #[inline]
    pub fn bump_count(&mut self, slot: u32) -> u64 {
        let c = &mut self.counts[slot as usize];
        *c += 1;
        *c
    }

    /// Replaces the reservoir member of `slot`.
    #[inline]
    pub fn set_reservoir(&mut self, slot: u32, p: &Point) {
        self.reservoirs[slot as usize].clone_from(p);
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

    /// Appends a new accept-set record with count 1 and the
    /// representative as its own reservoir member.
    pub fn push_acc(&mut self, key: u64, hash: u64, rep: Point) {
        let rank = self.next_acc_rank;
        self.next_acc_rank += 1;
        let reservoir = rep.clone();
        let slot = self.push_record(key, hash, rep, reservoir, 1, rank);
        self.acc_slots.push(slot);
    }

    /// Appends a new reject-set record with count 1 and the
    /// representative as its own reservoir member.
    pub fn push_rej(&mut self, key: u64, hash: u64, rep: Point) {
        let rank = REJ_TAG | self.next_rej_rank;
        self.next_rej_rank += 1;
        let reservoir = rep.clone();
        let slot = self.push_record(key, hash, rep, reservoir, 1, rank);
        self.rej_slots.push(slot);
    }

    fn push_record(
        &mut self,
        key: u64,
        hash: u64,
        rep: Point,
        reservoir: Point,
        count: u64,
        rank: u64,
    ) -> u32 {
        let slot = self.reps.len() as u32;
        // Insert into the table before the columns grow: a resize re-keys
        // from the columns, so the new record must not be there yet.
        self.ensure_table_capacity();
        table_insert(&mut self.table, key, slot);
        filter_set(&mut self.filter, key);
        self.cell_keys.push(key);
        self.cell_hashes.push(hash);
        self.counts.push(count);
        self.reps_flat.extend_from_slice(rep.coords());
        self.reps.push(rep);
        self.reservoirs.push(reservoir);
        self.ranks.push(rank);
        slot
    }

    fn ensure_table_capacity(&mut self) {
        let needed = self.reps.len() + 1;
        // Keep the load factor at or below 3/4.
        if self.table.is_empty() || needed * 4 > self.table.len() * 3 {
            let cap = (needed * 2).next_power_of_two().max(16);
            self.rebuild_table(cap);
        }
    }

    fn rebuild_table(&mut self, cap: usize) {
        debug_assert!(cap.is_power_of_two() && cap >= self.reps.len() * 2);
        self.table = vec![EMPTY_ENTRY; cap];
        self.filter = vec![0; cap / 8];
        for (slot, &key) in self.cell_keys.iter().enumerate() {
            table_insert(&mut self.table, key, slot as u32);
            filter_set(&mut self.filter, key);
        }
    }

    /// The rate-doubling refilter, as one compaction pass over the
    /// columns (no record is cloned):
    ///
    /// * accept records stay accepted while `keep_acc(cell_hash)` holds
    ///   (Fact 1b: survivors are a subset);
    /// * demoted accept records move to the *back* of the reject list, in
    ///   accept order, when `keep_rej(rep)` holds;
    /// * reject records stay while `keep_rej(rep)` holds;
    ///
    /// then the columns are compacted to the survivors and the table is
    /// rebuilt. Both predicates must be pure (they are hash lookups).
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
    /// slots, and rebuilds the table. `O(n)`; runs only on rate doubling.
    fn compact(&mut self) {
        let live = self.acc_slots.len() + self.rej_slots.len();
        let mut remap = vec![EMPTY; self.reps.len()];
        let mut order: Vec<u32> = Vec::with_capacity(live);
        for &slot in self.acc_slots.iter().chain(self.rej_slots.iter()) {
            remap[slot as usize] = order.len() as u32;
            order.push(slot);
        }
        let mut reps_old: Vec<Option<Point>> =
            std::mem::take(&mut self.reps).into_iter().map(Some).collect();
        let mut reservoirs_old: Vec<Option<Point>> = std::mem::take(&mut self.reservoirs)
            .into_iter()
            .map(Some)
            .collect();
        let mut cell_keys = Vec::with_capacity(live);
        let mut cell_hashes = Vec::with_capacity(live);
        let mut counts = Vec::with_capacity(live);
        let mut ranks = Vec::with_capacity(live);
        let mut reps = Vec::with_capacity(live);
        let mut reservoirs = Vec::with_capacity(live);
        for &slot in &order {
            let s = slot as usize;
            cell_keys.push(self.cell_keys[s]);
            cell_hashes.push(self.cell_hashes[s]);
            counts.push(self.counts[s]);
            ranks.push(self.ranks[s]);
            if let Some(p) = reps_old[s].take() {
                reps.push(p);
            }
            if let Some(p) = reservoirs_old[s].take() {
                reservoirs.push(p);
            }
        }
        debug_assert_eq!(reps.len(), live, "a live slot was referenced twice");
        self.cell_keys = cell_keys;
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
        let cap = (live.max(8) * 2).next_power_of_two();
        self.rebuild_table(cap);
    }

    /// Materializes one record (cloning both points).
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
        self.acc_slots.iter().map(|&s| self.record_at(s)).collect()
    }

    /// Materializes the reject set as owned records, in insertion order.
    pub fn rej_records(&self) -> Vec<GroupRecord> {
        self.rej_slots.iter().map(|&s| self.record_at(s)).collect()
    }

    /// Consumes the store, materializing `(accept, reject)` record
    /// vectors without cloning any point.
    pub fn into_records(self) -> (Vec<GroupRecord>, Vec<GroupRecord>) {
        let mut reps: Vec<Option<Point>> = self.reps.into_iter().map(Some).collect();
        let mut reservoirs: Vec<Option<Point>> =
            self.reservoirs.into_iter().map(Some).collect();
        let mut take_list = |slots: &[u32]| -> Vec<GroupRecord> {
            let mut out = Vec::with_capacity(slots.len());
            for &slot in slots {
                let s = slot as usize;
                if let (Some(rep), Some(reservoir)) = (reps[s].take(), reservoirs[s].take()) {
                    out.push(GroupRecord {
                        rep,
                        cell_hash: self.cell_hashes[s],
                        count: self.counts[s],
                        reservoir,
                    });
                }
            }
            out
        };
        let acc = take_list(&self.acc_slots);
        let rej = take_list(&self.rej_slots);
        (acc, rej)
    }

    /// Rebuilds a store from materialized record vectors (the checkpoint
    /// restore path). `key_of` recomputes the mixer key of `cell(rep)` —
    /// it is a deterministic function of the grid, so it is rebuilt
    /// rather than stored; the persisted `cell_hash` is kept verbatim.
    pub fn from_records(
        acc: Vec<GroupRecord>,
        rej: Vec<GroupRecord>,
        mut key_of: impl FnMut(&Point) -> u64,
    ) -> Self {
        let mut store = Self::new();
        for r in acc {
            let key = key_of(&r.rep);
            let rank = store.next_acc_rank;
            store.next_acc_rank += 1;
            let slot = store.push_record(key, r.cell_hash, r.rep, r.reservoir, r.count, rank);
            store.acc_slots.push(slot);
        }
        for r in rej {
            let key = key_of(&r.rep);
            let rank = REJ_TAG | store.next_rej_rank;
            store.next_rej_rank += 1;
            let slot = store.push_record(key, r.cell_hash, r.rep, r.reservoir, r.count, rank);
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

    fn pt(x: f64) -> Point {
        Point::new(vec![x])
    }

    #[test]
    fn probe_finds_only_matching_bucket_and_respects_chain_order() {
        let mut store = CandidateStore::new();
        // Two records in the same cell-key bucket, one in another.
        store.push_rej(7, 100, pt(0.0)); // rej, rank after all acc
        store.push_acc(7, 200, pt(0.2)); // acc, same bucket
        store.push_acc(9, 300, pt(10.0));
        let mut best = None;
        store.probe_best(7, &pt(0.1), 0.5, &mut best);
        // Both bucket-7 reps are within 0.5 of 0.1; the accept record wins
        // even though the reject record was inserted first.
        let (rank, slot) = best.expect("a match");
        assert_eq!(rank & REJ_TAG, 0, "accept chain order beats reject");
        assert_eq!(store.rep(slot), &pt(0.2));
        // A probe of the other bucket sees only its own record.
        let mut other = None;
        store.probe_best(9, &pt(10.1), 0.5, &mut other);
        assert!(other.is_some());
        let mut miss = None;
        store.probe_best(9, &pt(0.1), 0.5, &mut miss);
        assert!(miss.is_none(), "geometric comparison is authoritative");
    }

    #[test]
    fn records_round_trip_in_insertion_order() {
        let mut store = CandidateStore::new();
        for i in 0..20 {
            if i % 3 == 0 {
                store.push_rej(i, i * 10, pt(i as f64));
            } else {
                store.push_acc(i, i * 10, pt(i as f64));
            }
        }
        assert_eq!(store.acc_len() + store.rej_len(), store.len());
        let acc = store.acc_records();
        let rej = store.rej_records();
        assert!(acc.windows(2).all(|w| w[0].rep.get(0) < w[1].rep.get(0)));
        assert!(rej.windows(2).all(|w| w[0].rep.get(0) < w[1].rep.get(0)));
        let (acc2, rej2) = store.clone().into_records();
        assert_eq!(acc.len(), acc2.len());
        assert_eq!(rej.len(), rej2.len());
        for (a, b) in acc.iter().zip(acc2.iter()) {
            assert_eq!(a.rep, b.rep);
            assert_eq!(a.cell_hash, b.cell_hash);
        }
        let rebuilt = CandidateStore::from_records(acc, rej, |p| p.get(0) as u64);
        assert_eq!(rebuilt.acc_len(), store.acc_len());
        assert_eq!(rebuilt.rej_len(), store.rej_len());
    }

    #[test]
    fn retain_after_doubling_demotes_in_order_and_compacts() {
        let mut store = CandidateStore::new();
        // acc: hashes 1 (drop), 2 (keep), 3 (drop); rej: rep 100 kept,
        // rep 101 dropped.
        store.push_acc(1, 1, pt(1.0));
        store.push_acc(2, 2, pt(2.0));
        store.push_acc(3, 3, pt(3.0));
        store.push_rej(4, 4, pt(100.0));
        store.push_rej(5, 5, pt(101.0));
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
        // the table still answers probes after compaction
        let mut best = None;
        store.probe_best(2, &pt(2.1), 0.5, &mut best);
        assert!(best.is_some());
        let mut gone = None;
        store.probe_best(3, &pt(3.0), 0.5, &mut gone);
        assert!(gone.is_none(), "dropped record still probeable");
    }

    #[test]
    fn duplicate_keys_share_a_bucket() {
        let mut store = CandidateStore::new();
        // Same cell key, far-apart reps: both must be probeable.
        store.push_acc(42, 1, pt(0.0));
        store.push_acc(42, 2, pt(50.0));
        let mut a = None;
        store.probe_best(42, &pt(0.1), 0.5, &mut a);
        let mut b = None;
        store.probe_best(42, &pt(50.1), 0.5, &mut b);
        let (_, sa) = a.expect("first");
        let (_, sb) = b.expect("second");
        assert_ne!(sa, sb);
    }

    #[test]
    fn table_grows_past_initial_capacity() {
        let mut store = CandidateStore::new();
        for i in 0..1000u64 {
            store.push_acc(i.wrapping_mul(0x9E37_79B9), i, pt(i as f64 * 10.0));
        }
        assert_eq!(store.acc_len(), 1000);
        for i in (0..1000u64).step_by(97) {
            let mut best = None;
            store.probe_best(
                i.wrapping_mul(0x9E37_79B9),
                &pt(i as f64 * 10.0 + 0.1),
                0.5,
                &mut best,
            );
            assert!(best.is_some(), "record {i} unreachable");
        }
    }

    #[test]
    fn words_counts_two_points_and_two_bookkeeping_words_per_record() {
        let mut store = CandidateStore::new();
        assert_eq!(store.words(3), 0);
        store.push_acc(1, 1, Point::new(vec![1.0, 2.0, 3.0]));
        store.push_rej(2, 2, Point::new(vec![4.0, 5.0, 6.0]));
        assert_eq!(store.words(3), 2 * (2 * 3 + 2));
    }
}
