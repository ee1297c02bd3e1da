//! The tenant registry: millions of keyed sampler streams in one
//! process, metered against one global space budget.
//!
//! # Locking discipline (the basis of lint rule L9)
//!
//! Three kinds of lock exist and they nest strictly:
//!
//! 1. the registry-wide `map` lock (tenant id → entry) and `ring` lock
//!    (eviction clock) — held for map/deque operations ONLY, never
//!    across a slot acquisition and never across spill/restore I/O;
//! 2. one per-tenant `slot` lock — MAY be held across that tenant's own
//!    spill/restore I/O (that is the point: one slow tenant stalls only
//!    itself), and a thread never holds two slot locks at once;
//! 3. lock-free fields (`referenced` bits, the published reader pointer,
//!    the resident-words gauge) — the read path touches only these plus
//!    one brief map lookup, so queries against resident tenants never
//!    contend with an eviction writing another tenant to disk.
//!
//! Budget admission (`reserve`) runs BEFORE the caller takes its slot
//! lock, so eviction — which takes victim slot locks — can never
//! deadlock against an admission holding one.

use crate::spill;
use parking_lot::{AtomicArc, Mutex};
use rds_core::RdsError;
use rds_geometry::Point;
use rds_stream::{Stamp, StreamItem, Window};
use robust_distinct_sampling::{
    fnv1a64, PublishCadence, Rds, RdsReader, RdsWriter, Snapshot, WriterCheckpoint,
};
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Tenant ids become spill filenames, so the charset is locked down
/// hard: 1..=128 bytes of `[A-Za-z0-9._-]`. Rejecting instead of
/// escaping keeps the on-disk layout bijective with the id space.
pub const MAX_TENANT_ID_LEN: usize = 128;

/// Validates a tenant id (see [`MAX_TENANT_ID_LEN`]).
///
/// # Errors
///
/// [`RdsError::InvalidTenant`] naming the offending property.
pub fn validate_tenant_id(id: &str) -> Result<(), RdsError> {
    if id.is_empty() {
        return Err(RdsError::invalid_tenant("tenant id must be non-empty"));
    }
    if id.len() > MAX_TENANT_ID_LEN {
        return Err(RdsError::invalid_tenant(format!(
            "tenant id length {} exceeds the maximum of {MAX_TENANT_ID_LEN}",
            id.len()
        )));
    }
    if let Some(bad) = id
        .chars()
        .find(|c| !(c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-')))
    {
        return Err(RdsError::invalid_tenant(format!(
            "tenant id contains {bad:?}; allowed characters are [A-Za-z0-9._-]"
        )));
    }
    Ok(())
}

/// The per-tenant sampler configuration every tenant of a registry
/// shares; `rds-server` fills it from its global stream's resolved
/// configuration. Each tenant's sampler is seeded with `seed ^ fnv1a64(id)`, so
/// tenants are mutually independent yet individually deterministic:
/// re-creating a tenant from scratch replays the same draws.
#[derive(Clone, Debug)]
pub struct TenantTemplate {
    /// Point dimensionality (required, must be positive).
    pub dim: usize,
    /// Near-duplicate radius (required, positive and finite).
    pub alpha: f64,
    /// Window regime; [`Window::Infinite`] for whole-stream tenants.
    pub window: Window,
    /// Base seed; per-tenant seeds derive from it (see type docs).
    pub seed: u64,
    /// Expected per-tenant stream length (sampler sizing hint).
    pub expected_len: u64,
    /// Samples per `query_k` call, when set.
    pub k: Option<usize>,
    /// `(eps, delta)`-style count accuracy target, when set.
    pub eps: Option<f64>,
}

impl TenantTemplate {
    /// A template over `dim`-dimensional points with near-duplicate
    /// radius `alpha` and defaults everywhere else (infinite window,
    /// seed 0, expected length 2^20).
    pub fn new(dim: usize, alpha: f64) -> Self {
        TenantTemplate {
            dim,
            alpha,
            window: Window::Infinite,
            seed: 0,
            expected_len: 1 << 20,
            k: None,
            eps: None,
        }
    }

    /// The seed tenant `id`'s sampler is built with.
    pub fn tenant_seed(&self, id: &str) -> u64 {
        self.seed ^ fnv1a64(id.as_bytes())
    }

    /// The builder for tenant `id`, with every template parameter set
    /// explicitly — on restore this turns the checkpoint's config echo
    /// into a hard cross-check, so a container from a differently
    /// configured registry fails loudly instead of resurrecting under
    /// the wrong parameters.
    fn builder(&self, id: &str) -> robust_distinct_sampling::RdsBuilder {
        let mut b = Rds::builder()
            .dim(self.dim)
            .alpha(self.alpha)
            .window(self.window)
            .shards(1)
            .seed(self.tenant_seed(id))
            .expected_len(self.expected_len)
            .publish_cadence(PublishCadence::Manual);
        if let Some(k) = self.k {
            b = b.k(k);
        }
        if let Some(eps) = self.eps {
            b = b.count_accuracy(eps);
        }
        b
    }

    fn build(&self, id: &str) -> Result<(RdsWriter, RdsReader), RdsError> {
        self.builder(id).build_split()
    }

    fn restore(&self, id: &str, chk: WriterCheckpoint) -> Result<(RdsWriter, RdsReader), RdsError> {
        self.builder(id).restore(chk)
    }
}

/// Where a tenant's sampler currently lives.
enum Slot {
    /// Never admitted in this process (and possibly spilled on disk by a
    /// previous one — admission checks the spill directory first).
    Vacant,
    /// In memory, charged `words` against the budget.
    Resident {
        writer: Box<RdsWriter>,
        words: usize,
        /// Whether the writer still holds exactly the state it was
        /// admitted with: true after a restore from its container or a
        /// fresh build from the template, false after any `ingest` or
        /// `advance`. Admitting the tenant again rebuilds such a writer
        /// bit-identically (the same container, or the same
        /// `tenant_seed`), so evicting it writes nothing.
        unchanged: bool,
    },
    /// Evicted; its state is in its container, or, if it never had
    /// one, in the template. The footprint it had stays in the entry's
    /// `last_words` as the admission estimate for its next admission.
    Spilled,
}

/// One tenant's registry entry. The entry itself is immortal once
/// created (cheap: a string, two pointers and three atomics) — only the
/// sampler inside the slot comes and goes with the budget.
struct TenantEntry {
    id: String,
    slot: Mutex<Slot>,
    /// Second-chance bit for the clock eviction scan.
    referenced: AtomicBool,
    /// Lock-free estimate feeding `reserve` before the slot is locked.
    last_words: AtomicUsize,
    /// The published read handle: `Some` exactly while resident. Query
    /// threads load this and answer from the snapshot without touching
    /// any lock the eviction path holds.
    reader: AtomicArc<Option<RdsReader>>,
}

/// What a mutating tenant operation reports back.
#[derive(Clone, Copy, Debug)]
pub struct TenantAck {
    /// The tenant's snapshot epoch after the operation.
    pub epoch: u64,
    /// Items this tenant has processed in total.
    pub seen: u64,
    /// The tenant's in-memory footprint in machine words.
    pub words: usize,
}

/// A point-in-time gauge of the registry, served on `/healthz`.
#[derive(Clone, Copy, Debug)]
pub struct RegistryStats {
    /// Tenants known to the registry (resident + spilled + vacant).
    pub tenants: u64,
    /// Tenants currently holding an in-memory sampler.
    pub resident: u64,
    /// Machine words the resident samplers occupy.
    pub resident_words: u64,
    /// The global budget in machine words.
    pub budget_words: u64,
    /// Lifetime count of evictions that wrote a spill container.
    pub spills: u64,
    /// Lifetime count of evictions that wrote nothing, because the
    /// tenant was unchanged since its restore or creation: its
    /// container (or, never spilled, its template) already rebuilds it.
    pub unchanged_evictions: u64,
    /// Lifetime count of restores from spill containers.
    pub restores: u64,
    /// Lifetime count of fresh tenant sampler builds.
    pub creates: u64,
}

/// A registry of keyed sampler streams sharing one space budget.
///
/// Every operation takes the tenant id; tenants are created on first
/// touch, evicted when the budget runs out, and transparently restored
/// — bit-identical, exact PRNG position — on their next touch.
/// Eviction is write-back: only a tenant changed since its admission is
/// written to disk (checkpoint containers, atomic writes); an unchanged
/// one is dropped, since its container or the template rebuilds it. See
/// the module docs for the locking discipline.
pub struct TenantRegistry {
    template: TenantTemplate,
    budget_words: usize,
    spill_dir: PathBuf,
    /// Words a template-fresh sampler occupies — the admission estimate
    /// for tenants that have never been resident.
    fresh_words: usize,
    map: Mutex<HashMap<String, Arc<TenantEntry>>>,
    /// The eviction clock: entries enter on admission and leave when
    /// evicted (or requeue on a second chance).
    ring: Mutex<VecDeque<Arc<TenantEntry>>>,
    resident_words: AtomicUsize,
    resident_count: AtomicUsize,
    spills: AtomicU64,
    unchanged_evictions: AtomicU64,
    restores: AtomicU64,
    creates: AtomicU64,
}

impl TenantRegistry {
    /// Opens a registry: `budget_words` is the global cap on resident
    /// sampler footprint (the paper's space unit, `words()`), and
    /// `spill_dir` receives eviction containers — tenants spilled by a
    /// previous process in the same directory restore transparently.
    ///
    /// The budget is a target, not a straitjacket: a single tenant
    /// always gets to be resident even if it alone exceeds the budget
    /// (otherwise no request could ever be answered), and a burst of
    /// concurrent admissions can transiently overshoot until the next
    /// operation rebalances.
    ///
    /// # Errors
    ///
    /// Any template validation error from the underlying builder (the
    /// template is probed once here, so a bad configuration fails at
    /// registry construction, not on first traffic).
    pub fn new(
        template: TenantTemplate,
        budget_words: usize,
        spill_dir: impl Into<PathBuf>,
    ) -> Result<Self, RdsError> {
        let (mut probe_writer, _probe_reader) = template.build("probe")?;
        let fresh_words = probe_writer.words();
        Ok(TenantRegistry {
            template,
            budget_words,
            spill_dir: spill_dir.into(),
            fresh_words,
            map: Mutex::new(HashMap::new()),
            ring: Mutex::new(VecDeque::new()),
            resident_words: AtomicUsize::new(0),
            resident_count: AtomicUsize::new(0),
            spills: AtomicU64::new(0),
            unchanged_evictions: AtomicU64::new(0),
            restores: AtomicU64::new(0),
            creates: AtomicU64::new(0),
        })
    }

    /// The global budget in machine words.
    pub fn budget_words(&self) -> usize {
        self.budget_words
    }

    /// Machine words currently charged by resident samplers.
    pub fn resident_words(&self) -> usize {
        self.resident_words.load(Ordering::Relaxed)
    }

    /// The spill directory this registry evicts into.
    pub fn spill_dir(&self) -> &std::path::Path {
        &self.spill_dir
    }

    /// A point-in-time gauge of the registry.
    pub fn stats(&self) -> RegistryStats {
        let tenants = { self.map.lock().len() } as u64;
        RegistryStats {
            tenants,
            resident: self.resident_count.load(Ordering::Relaxed) as u64,
            resident_words: self.resident_words.load(Ordering::Relaxed) as u64,
            budget_words: self.budget_words as u64,
            spills: self.spills.load(Ordering::Relaxed),
            unchanged_evictions: self.unchanged_evictions.load(Ordering::Relaxed),
            restores: self.restores.load(Ordering::Relaxed),
            creates: self.creates.load(Ordering::Relaxed),
        }
    }

    /// Feeds a batch of points to tenant `id`, stamping them with the
    /// tenant's own sequence numbers (each tenant is its own stream —
    /// tenants never share stamps). `times` optionally carries one time
    /// coordinate per point for time-windowed templates. Publishes a
    /// fresh snapshot before returning, so readers observe the batch.
    ///
    /// # Errors
    ///
    /// [`RdsError::InvalidTenant`] for a bad id or a `times` length
    /// mismatch; [`RdsError::Checkpoint`] when a restore from the spill
    /// directory fails.
    pub fn ingest(
        &self,
        id: &str,
        points: &[Point],
        times: Option<&[u64]>,
    ) -> Result<TenantAck, RdsError> {
        validate_tenant_id(id)?;
        if let Some(ts) = times {
            if ts.len() != points.len() {
                return Err(RdsError::invalid_tenant(format!(
                    "times length {} does not match points length {}",
                    ts.len(),
                    points.len()
                )));
            }
        }
        let entry = self.entry(id);
        self.reserve(self.estimate(&entry), id);
        let (ack, admitted) = {
            let mut slot = entry.slot.lock();
            let admitted = self.ensure_resident(&entry, &mut slot)?;
            let Slot::Resident {
                writer,
                words,
                unchanged,
            } = &mut *slot
            else {
                return Err(RdsError::checkpoint(
                    "tenant slot empty after admission (internal invariant)",
                ));
            };
            *unchanged = false;
            let before = *words;
            for (i, p) in points.iter().enumerate() {
                let seq = writer.seen();
                let stamp = match times.and_then(|ts| ts.get(i)) {
                    Some(&t) => Stamp::new(seq, t),
                    None => Stamp::at(seq),
                };
                writer.process_item(StreamItem::new(p.clone(), stamp));
            }
            writer.publish();
            let after = writer.words();
            *words = after;
            entry.last_words.store(after, Ordering::Relaxed);
            self.recharge(before, after);
            (
                TenantAck {
                    epoch: writer.epoch(),
                    seen: writer.seen(),
                    words: after,
                },
                admitted,
            )
        };
        self.finish_touch(&entry, admitted, id);
        Ok(ack)
    }

    /// Advances tenant `id`'s clock to `now` without feeding data —
    /// time-windowed tenants expire entries on wall-clock advance, not
    /// only on traffic. Publishes the post-advance snapshot.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Self::ingest`].
    pub fn advance(&self, id: &str, now: Stamp) -> Result<TenantAck, RdsError> {
        validate_tenant_id(id)?;
        let entry = self.entry(id);
        self.reserve(self.estimate(&entry), id);
        let (ack, admitted) = {
            let mut slot = entry.slot.lock();
            let admitted = self.ensure_resident(&entry, &mut slot)?;
            let Slot::Resident {
                writer,
                words,
                unchanged,
            } = &mut *slot
            else {
                return Err(RdsError::checkpoint(
                    "tenant slot empty after admission (internal invariant)",
                ));
            };
            *unchanged = false;
            let before = *words;
            writer.advance(now);
            writer.publish();
            let after = writer.words();
            *words = after;
            entry.last_words.store(after, Ordering::Relaxed);
            self.recharge(before, after);
            (
                TenantAck {
                    epoch: writer.epoch(),
                    seen: writer.seen(),
                    words: after,
                },
                admitted,
            )
        };
        self.finish_touch(&entry, admitted, id);
        Ok(ack)
    }

    /// The tenant's current snapshot, admitting (restoring or creating)
    /// the tenant if it is not resident. For a resident tenant this is
    /// the lock-light path: one brief map lookup, then a lock-free
    /// pointer load — no slot lock, no contention with evictions of
    /// other tenants.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Self::ingest`].
    pub fn snapshot(&self, id: &str) -> Result<Arc<Snapshot>, RdsError> {
        validate_tenant_id(id)?;
        let entry = self.entry(id);
        entry.referenced.store(true, Ordering::Relaxed);
        if let Some(reader) = entry.reader.load().as_ref() {
            return Ok(reader.snapshot());
        }
        // Slow path: bring the tenant back (or to life).
        self.reserve(self.estimate(&entry), id);
        let admitted = {
            let mut slot = entry.slot.lock();
            self.ensure_resident(&entry, &mut slot)?
        };
        self.finish_touch(&entry, admitted, id);
        match entry.reader.load().as_ref() {
            Some(reader) => Ok(reader.snapshot()),
            // Only reachable if an eviction raced in between — retry via
            // the slot to serialize against it.
            None => {
                let mut slot = entry.slot.lock();
                self.ensure_resident(&entry, &mut slot)?;
                match entry.reader.load().as_ref() {
                    Some(reader) => Ok(reader.snapshot()),
                    None => Err(RdsError::checkpoint(
                        "tenant reader unpublished after admission (internal invariant)",
                    )),
                }
            }
        }
    }

    /// Draws one uniform entity sample from tenant `id` (see
    /// [`Snapshot::query_at`]); `draw` indexes the tenant's published
    /// sample sequence.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Self::ingest`].
    pub fn query_at(&self, id: &str, draw: u64) -> Result<Option<rds_core::GroupRecord>, RdsError> {
        Ok(self.snapshot(id)?.query_at(draw))
    }

    /// Draws `k` distinct-entity samples from tenant `id` (see
    /// [`Snapshot::query_k_at`]).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Self::ingest`].
    pub fn query_k_at(
        &self,
        id: &str,
        k: usize,
        draw: u64,
    ) -> Result<Vec<rds_core::GroupRecord>, RdsError> {
        Ok(self.snapshot(id)?.query_k_at(k, draw))
    }

    /// Tenant `id`'s distinct-entity estimate (see
    /// [`Snapshot::f0_estimate`]).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Self::ingest`].
    pub fn f0_estimate(&self, id: &str) -> Result<f64, RdsError> {
        Ok(self.snapshot(id)?.f0_estimate())
    }

    /// Evicts every resident tenant (graceful shutdown): after this
    /// returns `Ok`, the registry's entire state is on disk and a new
    /// process pointed at the same spill directory resumes every tenant
    /// bit-identically. Tenants changed since their admission get a
    /// container; unchanged ones are just dropped, since their container
    /// or the template already holds them. Returns how many tenants were
    /// evicted.
    ///
    /// # Errors
    ///
    /// The first spill failure; tenants already evicted stay evicted,
    /// the failing tenant stays resident.
    pub fn spill_all(&self) -> Result<usize, RdsError> {
        let entries: Vec<Arc<TenantEntry>> = { self.map.lock().values().cloned().collect() };
        let mut spilled = 0usize;
        for entry in entries {
            let mut slot = entry.slot.lock();
            if self.spill_slot(&entry, &mut slot)? {
                spilled += 1;
            }
        }
        self.ring.lock().clear();
        Ok(spilled)
    }

    /// Evicts tenant `id` right now if it is resident (test/ops hook —
    /// normal eviction is budget-driven). Returns whether the tenant was
    /// resident, and so was evicted; a container is written only if it
    /// changed since its admission (see [`RegistryStats::spills`]).
    ///
    /// # Errors
    ///
    /// [`RdsError::InvalidTenant`] for a bad id, or the spill failure.
    pub fn evict(&self, id: &str) -> Result<bool, RdsError> {
        validate_tenant_id(id)?;
        let entry = { self.map.lock().get(id).cloned() };
        let Some(entry) = entry else { return Ok(false) };
        let mut slot = entry.slot.lock();
        self.spill_slot(&entry, &mut slot)
    }

    /// Whether tenant `id` currently holds an in-memory sampler.
    pub fn is_resident(&self, id: &str) -> bool {
        let entry = { self.map.lock().get(id).cloned() };
        entry.is_some_and(|e| e.reader.load().is_some())
    }

    // ---- internals ------------------------------------------------

    /// The entry for `id`, created (Vacant) on first touch.
    fn entry(&self, id: &str) -> Arc<TenantEntry> {
        let mut map = self.map.lock();
        if let Some(e) = map.get(id) {
            return Arc::clone(e);
        }
        let entry = Arc::new(TenantEntry {
            id: id.to_owned(),
            slot: Mutex::new(Slot::Vacant),
            referenced: AtomicBool::new(false),
            last_words: AtomicUsize::new(0),
            reader: AtomicArc::new(Arc::new(None)),
        });
        map.insert(id.to_owned(), Arc::clone(&entry));
        entry
    }

    /// The admission estimate for an entry: its last known footprint,
    /// or a fresh sampler's footprint for never-resident tenants.
    fn estimate(&self, entry: &TenantEntry) -> usize {
        match entry.last_words.load(Ordering::Relaxed) {
            0 => self.fresh_words,
            w => w,
        }
    }

    /// Adjusts the global gauge from a tenant's footprint moving
    /// `before → after` words.
    fn recharge(&self, before: usize, after: usize) {
        if after >= before {
            self.resident_words
                .fetch_add(after - before, Ordering::Relaxed);
        } else {
            self.resident_words
                .fetch_sub(before - after, Ordering::Relaxed);
        }
    }

    /// Post-operation bookkeeping: mark the entry recently used, enter
    /// it into the eviction clock if this touch admitted it, and
    /// rebalance in case the operation's growth overshot the budget.
    fn finish_touch(&self, entry: &Arc<TenantEntry>, admitted: bool, protect: &str) {
        entry.referenced.store(true, Ordering::Relaxed);
        if admitted {
            self.ring.lock().push_back(Arc::clone(entry));
        }
        self.reserve(0, protect);
    }

    /// Makes the slot `Resident`, restoring from the spill directory if
    /// a container exists there, building fresh otherwise. Publishes the
    /// reader pointer before returning. Returns whether this call did
    /// the admission (the caller then enters the entry into the clock —
    /// after releasing the slot lock).
    fn ensure_resident(&self, entry: &TenantEntry, slot: &mut Slot) -> Result<bool, RdsError> {
        if matches!(*slot, Slot::Resident { .. }) {
            return Ok(false);
        }
        let (writer, reader) = match spill::read_container(&self.spill_dir, &entry.id)? {
            Some(text) => {
                let chk = WriterCheckpoint::from_container_json(&text)?;
                let pair = self.template.restore(&entry.id, chk)?;
                self.restores.fetch_add(1, Ordering::Relaxed);
                pair
            }
            None => {
                let pair = self.template.build(&entry.id)?;
                self.creates.fetch_add(1, Ordering::Relaxed);
                pair
            }
        };
        let mut writer = Box::new(writer);
        let words = writer.words();
        entry.reader.store(Arc::new(Some(reader)));
        entry.last_words.store(words, Ordering::Relaxed);
        *slot = Slot::Resident {
            writer,
            words,
            unchanged: true,
        };
        self.resident_words.fetch_add(words, Ordering::Relaxed);
        self.resident_count.fetch_add(1, Ordering::Relaxed);
        Ok(true)
    }

    /// Evicts a resident slot. A tenant changed since its admission is
    /// written back first: container written atomically, only then is
    /// the in-memory sampler dropped and the reader pointer cleared — a
    /// spill failure leaves the tenant resident and fully serviceable.
    /// An unchanged tenant is dropped without a write. Returns whether
    /// the slot was resident.
    fn spill_slot(&self, entry: &TenantEntry, slot: &mut Slot) -> Result<bool, RdsError> {
        let Slot::Resident {
            writer,
            words,
            unchanged,
        } = slot
        else {
            return Ok(false);
        };
        if *unchanged {
            self.unchanged_evictions.fetch_add(1, Ordering::Relaxed);
        } else {
            let json = writer.checkpoint().to_container_json();
            spill::write_container(&self.spill_dir, &entry.id, &json)?;
            self.spills.fetch_add(1, Ordering::Relaxed);
        }
        let words = *words;
        entry.reader.store(Arc::new(None));
        *slot = Slot::Spilled;
        self.resident_words.fetch_sub(words, Ordering::Relaxed);
        self.resident_count.fetch_sub(1, Ordering::Relaxed);
        Ok(true)
    }

    /// Frees budget until `needed` more words fit, evicting cold
    /// tenants one at a time. `protect` (the tenant being served) is
    /// never evicted by its own admission — which also guarantees the
    /// min-one-resident semantics: if the protected tenant alone
    /// overshoots the budget, reserve gives up rather than thrash.
    fn reserve(&self, needed: usize, protect: &str) {
        while self
            .resident_words
            .load(Ordering::Relaxed)
            .saturating_add(needed)
            > self.budget_words
        {
            if !self.evict_one(protect) {
                break;
            }
        }
    }

    /// One clock sweep step: pop the oldest entry; recently-used entries
    /// get a second chance (bit cleared, requeued), cold ones are
    /// spilled. Returns `false` when nothing could be evicted (empty
    /// clock, everything hot and protected, or a spill I/O failure —
    /// the failure leaves the victim resident and requeued, and stops
    /// the sweep so a broken disk does not become a hot loop).
    fn evict_one(&self, protect: &str) -> bool {
        let mut passes = { self.ring.lock().len() } * 2 + 1;
        while passes > 0 {
            passes -= 1;
            let cand = { self.ring.lock().pop_front() };
            let Some(cand) = cand else { return false };
            if cand.id == protect || cand.referenced.swap(false, Ordering::Relaxed) {
                self.ring.lock().push_back(cand);
                continue;
            }
            let mut slot = cand.slot.lock();
            match self.spill_slot(&cand, &mut slot) {
                Ok(true) => return true,
                // Already spilled or vacant — simply drop it from the
                // clock; it re-enters on its next admission.
                Ok(false) => continue,
                Err(_) => {
                    drop(slot);
                    self.ring.lock().push_back(cand);
                    return false;
                }
            }
        }
        false
    }
}
