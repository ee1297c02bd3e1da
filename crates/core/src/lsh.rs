//! Section 7 (future work) implemented: robust ℓ0-sampling in general
//! metric spaces via locality-sensitive partitions.
//!
//! The paper observes that the random grid is "a particular
//! locality-sensitive hash function, and it is possible to generalize our
//! algorithms to general metric spaces that are equipped with efficient
//! locality-sensitive hash functions", leaving the generalization as
//! future work. This module provides that generalization:
//!
//! * [`LshPartitioner`] — the interface a space must offer: a bucket
//!   (cell) per point, enumeration of all buckets that could contain a
//!   near-duplicate (the analogue of `adj(p)`), and the duplicate
//!   predicate itself;
//! * [`SimHashPartitioner`] — sign-random-projection (SimHash) buckets
//!   for the **angular** metric. The analogue of the `SearchAdj` DFS is
//!   exact here too: a point within angle `theta` of `p` can flip only
//!   the hyperplane bits whose angular margin at `p` is at most `theta`,
//!   so adjacency enumerates sign patterns over the low-margin bits with
//!   early exit;
//! * [`MetricRobustSampler`] — Algorithm 1 re-done over an arbitrary
//!   partitioner.

use crate::checkpoint::{check_level, Checkpointable, RngState};
use crate::error::RdsError;
use crate::infinite::{BatchStats, GroupRecord};
use crate::sampler::{derived_rng, DistinctSampler, SamplerSummary};
use rand::rngs::StdRng;
use rand::seq::{IndexedRandom, SliceRandom};
use rand::SeedableRng;
use rds_geometry::{standard_normal, Point};
use rds_hashing::{level_sampled, splitmix64, KWiseHash};
use rds_stream::StreamItem;

/// A locality-sensitive partition of a metric space: the generalization
/// of the random grid that Algorithm 1 needs.
pub trait LshPartitioner {
    /// Stable 64-bit key of the bucket containing `p`.
    fn bucket_key(&self, p: &Point) -> u64;

    /// The ambient dimension the partitioner expects, when it has a
    /// fixed one (`None` for dimension-agnostic partitioners). Checkpoint
    /// restore uses this to reject states whose stored representatives
    /// cannot belong to this space.
    fn dim(&self) -> Option<usize> {
        None
    }

    /// Visits the key of every bucket that could contain a point of
    /// `p`'s group (including `p`'s own bucket); stops early when `visit`
    /// returns `true` and reports whether it did.
    fn for_each_adjacent_bucket(&self, p: &Point, visit: &mut dyn FnMut(u64) -> bool) -> bool;

    /// Whether two points are near-duplicates (same group).
    fn same_group(&self, a: &Point, b: &Point) -> bool;
}

/// SimHash (sign random projection) partitioner for the angular metric:
/// two unit vectors are near-duplicates when their angle is at most
/// `theta` radians.
///
/// # Examples
///
/// ```
/// use rds_core::{LshPartitioner, SimHashPartitioner};
/// use rds_geometry::Point;
///
/// let part = SimHashPartitioner::try_new(16, 8, 0.05, 3).unwrap();
/// let p = Point::new(vec![1.0; 16]);
/// assert!(part.same_group(&p, &p));
/// let key = part.bucket_key(&p);
/// // own bucket is always adjacent
/// let mut found = false;
/// part.for_each_adjacent_bucket(&p, &mut |k| { found |= k == key; false });
/// assert!(found);
/// ```
#[derive(Clone, Debug)]
pub struct SimHashPartitioner {
    dim: usize,
    theta: f64,
    /// `n_bits` random unit normals, row-major.
    normals: Vec<Point>,
    seed: u64,
}

impl SimHashPartitioner {
    /// Creates a partitioner over `R^dim` with `n_bits` hyperplanes and
    /// group threshold `theta` (radians).
    ///
    /// # Errors
    ///
    /// [`RdsError::InvalidDimension`] when `dim == 0`;
    /// [`RdsError::InvalidTheta`] unless `0 < theta < pi/8`;
    /// [`RdsError::InvalidBits`] unless `1 <= n_bits <= 24` (more bits
    /// would make the adjacency enumeration explode in the worst case).
    pub fn try_new(dim: usize, n_bits: usize, theta: f64, seed: u64) -> Result<Self, RdsError> {
        if dim == 0 {
            return Err(RdsError::InvalidDimension { dim });
        }
        if !(theta > 0.0 && theta < std::f64::consts::FRAC_PI_8) {
            return Err(RdsError::InvalidTheta { theta });
        }
        if !(1..=24).contains(&n_bits) {
            return Err(RdsError::InvalidBits { n_bits });
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let normals = (0..n_bits)
            .map(|_| {
                let v = Point::new((0..dim).map(|_| standard_normal(&mut rng)).collect());
                v.scale(1.0 / v.norm().max(f64::MIN_POSITIVE))
            })
            .collect();
        Ok(Self {
            dim,
            theta,
            normals,
            seed,
        })
    }

    /// The group threshold in radians.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Angle between two vectors.
    fn angle(a: &Point, b: &Point) -> f64 {
        let dot: f64 = a
            .coords()
            .iter()
            .zip(b.coords().iter())
            .map(|(x, y)| x * y)
            .sum();
        let denom = (a.norm() * b.norm()).max(f64::MIN_POSITIVE);
        (dot / denom).clamp(-1.0, 1.0).acos()
    }

    /// Sign bits and angular margins of `p` against every hyperplane.
    fn signature(&self, p: &Point) -> (u32, Vec<f64>) {
        let norm = p.norm().max(f64::MIN_POSITIVE);
        let mut bits = 0u32;
        let mut margins = Vec::with_capacity(self.normals.len());
        for (i, h) in self.normals.iter().enumerate() {
            let proj: f64 = h
                .coords()
                .iter()
                .zip(p.coords().iter())
                .map(|(x, y)| x * y)
                .sum();
            if proj >= 0.0 {
                bits |= 1 << i;
            }
            // angular distance of p to the hyperplane boundary
            margins.push((proj.abs() / norm).clamp(-1.0, 1.0).asin());
        }
        (bits, margins)
    }

    fn key_of_bits(&self, bits: u32) -> u64 {
        splitmix64(self.seed ^ 0x5161_u64 ^ bits as u64)
    }
}

impl LshPartitioner for SimHashPartitioner {
    fn bucket_key(&self, p: &Point) -> u64 {
        assert_eq!(p.dim(), self.dim, "dimension mismatch");
        let (bits, _) = self.signature(p);
        self.key_of_bits(bits)
    }

    fn dim(&self) -> Option<usize> {
        Some(self.dim)
    }

    /// Exact adjacency for the angular metric: a point `q` with
    /// `angle(p, q) <= theta` can disagree with `p` only on hyperplanes
    /// whose boundary lies within angle `theta` of `p`; enumerate all
    /// sign patterns over that (small) set of flippable bits.
    fn for_each_adjacent_bucket(&self, p: &Point, visit: &mut dyn FnMut(u64) -> bool) -> bool {
        let (bits, margins) = self.signature(p);
        let flippable: Vec<usize> = margins
            .iter()
            .enumerate()
            .filter(|(_, &m)| m <= self.theta)
            .map(|(i, _)| i)
            .collect();
        // enumerate subsets of flippable bits (like SearchAdj's 3^d walk,
        // but over 2^|flippable| patterns), visiting each resulting bucket
        let n = flippable.len();
        debug_assert!(n <= 32);
        for mask in 0..(1u64 << n) {
            let mut b = bits;
            for (j, &bit) in flippable.iter().enumerate() {
                if mask & (1 << j) != 0 {
                    b ^= 1 << bit;
                }
            }
            if visit(self.key_of_bits(b)) {
                return true;
            }
        }
        false
    }

    fn same_group(&self, a: &Point, b: &Point) -> bool {
        Self::angle(a, b) <= self.theta
    }
}

/// Partitioners are equal when their configurations are: the hyperplanes
/// are a deterministic function of `(dim, n_bits, seed)`.
impl PartialEq for SimHashPartitioner {
    fn eq(&self, other: &Self) -> bool {
        self.dim == other.dim
            && self.normals.len() == other.normals.len()
            && self.theta == other.theta
            && self.seed == other.seed
    }
}

// The partitioner is a deterministic function of (dim, n_bits, theta,
// seed): serialize those four parameters and rebuild the hyperplanes on
// restore. Validation happens before `new` so a corrupt file surfaces as
// a deserialization error, never as one of the constructor's panics.
impl serde::Serialize for SimHashPartitioner {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("dim".to_string(), self.dim.to_value()),
            ("n_bits".to_string(), self.normals.len().to_value()),
            ("theta".to_string(), self.theta.to_value()),
            ("seed".to_string(), self.seed.to_value()),
        ])
    }
}

impl serde::Deserialize for SimHashPartitioner {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let field = |name: &str| value.get(name).unwrap_or(&serde::Value::Null);
        let err =
            |name: &str, e: serde::DeError| serde::DeError::custom(format!("field `{name}`: {e}"));
        let dim = usize::from_value(field("dim")).map_err(|e| err("dim", e))?;
        let n_bits = usize::from_value(field("n_bits")).map_err(|e| err("n_bits", e))?;
        let theta = f64::from_value(field("theta")).map_err(|e| err("theta", e))?;
        let seed = u64::from_value(field("seed")).map_err(|e| err("seed", e))?;
        if dim == 0 {
            return Err(serde::DeError::custom("dimension must be positive"));
        }
        if !(theta > 0.0 && theta < std::f64::consts::FRAC_PI_8) {
            return Err(serde::DeError::custom("theta must be in (0, pi/8)"));
        }
        if !(1..=24).contains(&n_bits) {
            return Err(serde::DeError::custom("n_bits must be in 1..=24"));
        }
        Self::try_new(dim, n_bits, theta, seed).map_err(|e| serde::DeError::custom(e.to_string()))
    }
}

/// What [`MetricRobustSampler::process`] did with a point (mirrors
/// [`crate::ProcessOutcome`]).
pub use crate::infinite::ProcessOutcome as MetricProcessOutcome;

/// Algorithm 1 generalized to any [`LshPartitioner`]: buckets play the
/// role of grid cells, `for_each_adjacent_bucket` plays `adj(p)`.
#[derive(Debug)]
pub struct MetricRobustSampler<P: LshPartitioner> {
    partitioner: P,
    hash: KWiseHash,
    level: u32,
    threshold: usize,
    acc: Vec<MetricGroup>,
    rej: Vec<MetricGroup>,
    rng: StdRng,
    seen: u64,
    seed: u64,
}

/// A tracked group in the metric sampler.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct MetricGroup {
    /// The group's first point.
    pub rep: Point,
    /// Hash of the representative's bucket.
    pub bucket_hash: u64,
    /// Points observed in the group.
    pub count: u64,
}

impl<P: LshPartitioner> MetricRobustSampler<P> {
    /// Creates the sampler; `threshold` bounds `|Sacc|` as in Algorithm 1
    /// (use `kappa_0 log m`).
    ///
    /// # Errors
    ///
    /// [`RdsError::InvalidThreshold`] when `threshold == 0`.
    pub fn try_new(partitioner: P, threshold: usize, seed: u64) -> Result<Self, RdsError> {
        if threshold == 0 {
            return Err(RdsError::InvalidThreshold);
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x004C_5348);
        let hash = KWiseHash::new(16, &mut rng);
        Ok(Self {
            partitioner,
            hash,
            level: 0,
            threshold,
            acc: Vec::new(),
            rej: Vec::new(),
            rng,
            seen: 0,
            seed,
        })
    }

    /// Feeds one point.
    pub fn process(&mut self, p: &Point) -> MetricProcessOutcome {
        self.seen += 1;
        if let Some(g) = self
            .acc
            .iter_mut()
            .chain(self.rej.iter_mut())
            .find(|g| self.partitioner.same_group(&g.rep, p))
        {
            g.count += 1;
            return MetricProcessOutcome::Duplicate;
        }
        let h = self.hash.hash(self.partitioner.bucket_key(p));
        let outcome = if level_sampled(h, self.level) {
            self.acc.push(MetricGroup {
                rep: p.clone(),
                bucket_hash: h,
                count: 1,
            });
            MetricProcessOutcome::Accepted
        } else if self.any_adjacent_sampled(p) {
            self.rej.push(MetricGroup {
                rep: p.clone(),
                bucket_hash: h,
                count: 1,
            });
            MetricProcessOutcome::Rejected
        } else {
            MetricProcessOutcome::Ignored
        };
        while self.acc.len() > self.threshold && self.level < crate::MAX_LEVEL {
            self.double_rate();
        }
        outcome
    }

    fn any_adjacent_sampled(&self, p: &Point) -> bool {
        let hash = &self.hash;
        let level = self.level;
        self.partitioner
            .for_each_adjacent_bucket(p, &mut |key| level_sampled(hash.hash(key), level))
    }

    fn double_rate(&mut self) {
        self.level += 1;
        let level = self.level;
        let mut demoted = Vec::new();
        self.acc.retain_mut(|g| {
            if level_sampled(g.bucket_hash, level) {
                true
            } else {
                demoted.push(g.clone());
                false
            }
        });
        // borrow dance: collect reps first, then test adjacency
        for g in demoted {
            if self.any_adjacent_sampled_at(&g.rep, level) {
                self.rej.push(g);
            }
        }
        let keep: Vec<bool> = self
            .rej
            .iter()
            .map(|g| self.any_adjacent_sampled_at(&g.rep, level))
            .collect();
        let mut idx = 0usize;
        self.rej.retain(|_| {
            let k = keep.get(idx).copied().unwrap_or(false);
            idx += 1;
            k
        });
    }

    fn any_adjacent_sampled_at(&self, p: &Point, level: u32) -> bool {
        let hash = &self.hash;
        self.partitioner
            .for_each_adjacent_bucket(p, &mut |key| level_sampled(hash.hash(key), level))
    }

    /// Draws a uniformly random sampled group's representative.
    pub fn query(&mut self) -> Option<&Point> {
        self.acc.choose(&mut self.rng).map(|g| &g.rep)
    }

    /// The accept set.
    pub fn accept_set(&self) -> &[MetricGroup] {
        &self.acc
    }

    /// The reject set.
    pub fn reject_set(&self) -> &[MetricGroup] {
        &self.rej
    }

    /// Points processed.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The partitioner in use.
    pub fn partitioner(&self) -> &P {
        &self.partitioner
    }

    /// Current rate exponent (`R = 2^level`).
    pub fn level(&self) -> u32 {
        self.level
    }

    /// The estimate `|Sacc| * R` of the number of distinct groups.
    pub fn f0_estimate(&self) -> f64 {
        self.acc.len() as f64 * 2f64.powi(self.level as i32)
    }

    /// Current footprint in machine words (hash description + tracked
    /// groups).
    pub fn words(&self) -> usize {
        let groups: usize = self
            .acc
            .iter()
            .chain(self.rej.iter())
            .map(|g| g.rep.words() + 2)
            .sum();
        self.hash.words() + groups + 4
    }
}

/// The serializable full state of a [`MetricRobustSampler`]: the
/// partitioner's serialized form (its own `Serialize` impl; for
/// [`SimHashPartitioner`] the four construction parameters), the rate
/// exponent, both candidate sets and the PRNG position. The bucket hash
/// function is a deterministic function of the seed and is rebuilt on
/// restore.
#[derive(Clone, Debug)]
pub struct MetricSamplerState<P> {
    partitioner: P,
    seed: u64,
    threshold: usize,
    level: u32,
    acc: Vec<MetricGroup>,
    rej: Vec<MetricGroup>,
    seen: u64,
    rng: RngState,
}

impl<P> MetricSamplerState<P> {
    /// The partitioner the checkpointed sampler was built around.
    pub fn partitioner(&self) -> &P {
        &self.partitioner
    }

    /// Number of items the checkpointed sampler had processed.
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

// Manual impls: the vendored derive does not handle generic structs.
impl<P: serde::Serialize> serde::Serialize for MetricSamplerState<P> {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("partitioner".to_string(), self.partitioner.to_value()),
            ("seed".to_string(), self.seed.to_value()),
            ("threshold".to_string(), self.threshold.to_value()),
            ("level".to_string(), self.level.to_value()),
            ("acc".to_string(), self.acc.to_value()),
            ("rej".to_string(), self.rej.to_value()),
            ("seen".to_string(), self.seen.to_value()),
            ("rng".to_string(), self.rng.to_value()),
        ])
    }
}

impl<P: serde::Deserialize> serde::Deserialize for MetricSamplerState<P> {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        fn get<T: serde::Deserialize>(
            value: &serde::Value,
            name: &str,
        ) -> Result<T, serde::DeError> {
            T::from_value(value.get(name).unwrap_or(&serde::Value::Null))
                .map_err(|e| serde::DeError::custom(format!("field `{name}`: {e}")))
        }
        Ok(Self {
            partitioner: get(value, "partitioner")?,
            seed: get(value, "seed")?,
            threshold: get(value, "threshold")?,
            level: get(value, "level")?,
            acc: get(value, "acc")?,
            rej: get(value, "rej")?,
            seen: get(value, "seen")?,
            rng: get(value, "rng")?,
        })
    }
}

impl<P> Checkpointable for MetricRobustSampler<P>
where
    P: LshPartitioner + Clone + serde::Serialize + serde::Deserialize + Send + 'static,
{
    type State = MetricSamplerState<P>;

    fn checkpoint_state(&self) -> MetricSamplerState<P> {
        MetricSamplerState {
            partitioner: self.partitioner.clone(),
            seed: self.seed,
            threshold: self.threshold,
            level: self.level,
            acc: self.acc.clone(),
            rej: self.rej.clone(),
            seen: self.seen,
            rng: RngState::capture(&self.rng),
        }
    }

    fn try_from_state(state: MetricSamplerState<P>) -> Result<Self, RdsError> {
        check_level(state.level)?;
        // Every stored representative must live in the partitioner's
        // space: against the partitioner's dimension when it declares one
        // ([`LshPartitioner::dim`]), and at minimum consistently with
        // each other — otherwise the restored sampler's distance/bucket
        // computations would panic (debug) or silently truncate over the
        // shorter vector (wrong groups, wrong estimates).
        let mut dims = state
            .acc
            .iter()
            .chain(state.rej.iter())
            .map(|g| g.rep.dim());
        let reference = state.partitioner.dim().or_else(|| dims.next());
        if let Some(d0) = reference {
            if dims.any(|d| d != d0) {
                return Err(crate::checkpoint::checkpoint_err(format!(
                    "metric sampler state holds representatives outside the \
                     partitioner's dimension-{d0} space"
                )));
            }
        }
        // `try_new` rebuilds the bucket hash deterministically from the
        // seed; the RNG position is then overwritten with the captured
        // one.
        let mut s = Self::try_new(state.partitioner, state.threshold, state.seed)?;
        s.level = state.level;
        s.acc = state.acc;
        s.rej = state.rej;
        s.seen = state.seen;
        s.rng = state.rng.restore();
        Ok(s)
    }
}

/// The [`crate::SamplerSummary`] of the metric sampler: carries a clone
/// of the partitioner and the shared hash so summaries merge
/// self-sufficiently (refilter by cached bucket hash, deduplicate by the
/// partitioner's `same_group` predicate).
#[derive(Clone, Debug)]
pub struct MetricSummary<P: LshPartitioner> {
    partitioner: P,
    hash: KWiseHash,
    level: u32,
    acc: Vec<MetricGroup>,
    rej: Vec<MetricGroup>,
    seed: u64,
}

impl<P: LshPartitioner> MetricSummary<P> {
    /// The merged accept set.
    pub fn accept_set(&self) -> &[MetricGroup] {
        &self.acc
    }

    /// The common rate exponent.
    pub fn level(&self) -> u32 {
        self.level
    }

    fn rng_for(&self, draw: u64) -> StdRng {
        derived_rng(self.seed, draw, 0x4C53_D157)
    }

    fn any_adjacent_sampled(&self, p: &Point, level: u32) -> bool {
        let hash = &self.hash;
        self.partitioner
            .for_each_adjacent_bucket(p, &mut |key| level_sampled(hash.hash(key), level))
    }

    /// Places one group into the merged sets, deduplicating against
    /// groups already absorbed (the metric analogue of the grid merge).
    fn absorb(
        &self,
        g: &MetricGroup,
        own_bucket_sampled: bool,
        level: u32,
        acc: &mut Vec<MetricGroup>,
        rej: &mut Vec<MetricGroup>,
    ) {
        if let Some(existing) = acc
            .iter_mut()
            .find(|e| self.partitioner.same_group(&e.rep, &g.rep))
        {
            existing.count += g.count;
            return;
        }
        if let Some(pos) = rej
            .iter()
            .position(|e| self.partitioner.same_group(&e.rep, &g.rep))
        {
            if own_bucket_sampled {
                let mut combined = g.clone();
                combined.count += rej.remove(pos).count;
                acc.push(combined);
            } else {
                rej[pos].count += g.count;
            }
            return;
        }
        if own_bucket_sampled {
            acc.push(g.clone());
        } else if self.any_adjacent_sampled(&g.rep, level) {
            rej.push(g.clone());
        }
    }
}

fn metric_record(g: &MetricGroup) -> GroupRecord {
    GroupRecord {
        rep: g.rep.clone(),
        cell_hash: g.bucket_hash,
        count: g.count,
        reservoir: g.rep.clone(),
    }
}

impl<P: LshPartitioner + Clone + PartialEq> SamplerSummary for MetricSummary<P> {
    type Merger = ();

    fn merge(self, other: Self) -> Result<Self, RdsError> {
        // lint:allow(L1) merge_many of a two-element vec always returns
        // Some; config-mismatch errors propagate through the `?`
        Ok(Self::merge_many(vec![self, other])?.expect("two summaries merged"))
    }

    /// Single-pass N-way merge: one deduplication pass over all groups,
    /// instead of a pairwise fold that re-absorbs the accumulated state.
    /// Each group is still matched by a `same_group` scan over the merged
    /// groups, so the pass is quadratic in the live groups.
    fn merge_many(summaries: Vec<Self>) -> Result<Option<Self>, RdsError> {
        let Some(first) = summaries.first() else {
            return Ok(None);
        };
        let expected_seed = first.seed;
        // The full configuration, not just the seed: same-seed summaries
        // over different partitions (another theta, dim or bit count)
        // would deduplicate under the first summary's predicate, so the
        // result would depend on the argument order.
        if let Some(bad) = summaries
            .iter()
            .find(|s| s.seed != expected_seed || s.partitioner != first.partitioner)
        {
            return Err(RdsError::ConfigMismatch {
                expected_seed,
                actual_seed: bad.seed,
            });
        }
        if summaries.len() == 1 {
            return Ok(summaries.into_iter().next());
        }
        let level = summaries.iter().map(|s| s.level).max().unwrap_or(0);
        let mut acc = Vec::new();
        let mut rej = Vec::new();
        for summary in &summaries {
            for g in &summary.acc {
                let sampled = level_sampled(g.bucket_hash, level);
                first.absorb(g, sampled, level, &mut acc, &mut rej);
            }
            for g in &summary.rej {
                first.absorb(g, false, level, &mut acc, &mut rej);
            }
        }
        Ok(Some(Self {
            partitioner: first.partitioner.clone(),
            hash: first.hash.clone(),
            level,
            acc,
            rej,
            seed: expected_seed,
        }))
    }

    fn f0_estimate(&self) -> f64 {
        self.acc.len() as f64 * 2f64.powi(self.level as i32)
    }

    fn query_record(&self, draw: u64) -> Option<GroupRecord> {
        let mut rng = self.rng_for(draw);
        self.acc.choose(&mut rng).map(metric_record)
    }

    fn query_k(&self, k: usize, draw: u64) -> Vec<GroupRecord> {
        let mut rng = self.rng_for(draw);
        let mut idx: Vec<usize> = (0..self.acc.len()).collect();
        idx.shuffle(&mut rng);
        idx.truncate(k);
        idx.into_iter()
            .map(|i| metric_record(&self.acc[i]))
            .collect()
    }
}

impl<P: LshPartitioner + Clone + PartialEq> DistinctSampler for MetricRobustSampler<P> {
    type Summary = MetricSummary<P>;

    /// Feeds the item's point; the stamp is ignored (infinite window).
    fn process(&mut self, item: &StreamItem) -> MetricProcessOutcome {
        MetricRobustSampler::process(self, &item.point)
    }

    fn process_batch(&mut self, items: &[StreamItem]) -> BatchStats {
        let mut stats = BatchStats::default();
        for item in items {
            stats.record(MetricRobustSampler::process(self, &item.point));
        }
        stats
    }

    fn query_record(&mut self) -> Option<GroupRecord> {
        self.acc.choose(&mut self.rng).map(metric_record)
    }

    fn query_k(&mut self, k: usize) -> Vec<GroupRecord> {
        let mut idx: Vec<usize> = (0..self.acc.len()).collect();
        idx.shuffle(&mut self.rng);
        idx.truncate(k);
        idx.into_iter()
            .map(|i| metric_record(&self.acc[i]))
            .collect()
    }

    fn f0_estimate(&self) -> f64 {
        MetricRobustSampler::f0_estimate(self)
    }

    fn seen(&self) -> u64 {
        MetricRobustSampler::seen(self)
    }

    fn words(&self) -> usize {
        MetricRobustSampler::words(self)
    }

    fn summary(&self) -> MetricSummary<P> {
        MetricSummary {
            partitioner: self.partitioner.clone(),
            hash: self.hash.clone(),
            level: self.level,
            acc: self.acc.clone(),
            rej: self.rej.clone(),
            seed: self.seed,
        }
    }

    fn into_summary(self) -> MetricSummary<P> {
        MetricSummary {
            partitioner: self.partitioner,
            hash: self.hash,
            level: self.level,
            acc: self.acc,
            rej: self.rej,
            seed: self.seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    /// Unit vectors clustered around well-separated directions.
    fn angular_stream(
        n_groups: usize,
        per_group: usize,
        dim: usize,
        jitter: f64,
        seed: u64,
    ) -> Vec<(Point, usize)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers: Vec<Point> = (0..n_groups)
            .map(|_| {
                let v = Point::new((0..dim).map(|_| standard_normal(&mut rng)).collect());
                v.scale(1.0 / v.norm())
            })
            .collect();
        let mut out = Vec::new();
        for (g, c) in centers.iter().enumerate() {
            for _ in 0..per_group {
                let noise = Point::new(
                    (0..dim)
                        .map(|_| standard_normal(&mut rng) * jitter)
                        .collect(),
                );
                let v = c.add(&noise);
                out.push((v.scale(1.0 / v.norm()), g));
            }
        }
        for i in (1..out.len()).rev() {
            let j = rng.random_range(0..=i);
            out.swap(i, j);
        }
        out
    }

    #[test]
    fn identical_vectors_share_bucket() {
        let part = SimHashPartitioner::try_new(8, 12, 0.05, 1).unwrap();
        let p = Point::new(vec![0.5; 8]);
        assert_eq!(part.bucket_key(&p), part.bucket_key(&p));
        assert!(
            part.same_group(&p, &p.scale(3.0)),
            "angle 0 regardless of norm"
        );
    }

    #[test]
    fn opposite_vectors_are_different_groups() {
        let part = SimHashPartitioner::try_new(4, 8, 0.1, 2).unwrap();
        let p = Point::new(vec![1.0, 0.0, 0.0, 0.0]);
        assert!(!part.same_group(&p, &p.scale(-1.0)));
    }

    #[test]
    fn near_duplicates_bucket_is_adjacent() {
        // any q within theta of p must land in a bucket enumerated by
        // for_each_adjacent_bucket(p) — the exactness property the grid
        // version has via SearchAdj
        let dim = 16;
        let theta = 0.05;
        let part = SimHashPartitioner::try_new(dim, 12, theta, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..200 {
            let p = Point::new((0..dim).map(|_| standard_normal(&mut rng)).collect());
            let p = p.scale(1.0 / p.norm());
            // random perturbation inside the theta-cone
            let noise = Point::new(
                (0..dim)
                    .map(|_| standard_normal(&mut rng) * theta / (3.0 * (dim as f64).sqrt()))
                    .collect(),
            );
            let q = p.add(&noise);
            let q = q.scale(1.0 / q.norm());
            if !part.same_group(&p, &q) {
                continue; // perturbation overshot the cone
            }
            let qk = part.bucket_key(&q);
            let mut found = false;
            part.for_each_adjacent_bucket(&p, &mut |k| {
                found |= k == qk;
                found
            });
            assert!(found, "near-duplicate bucket missed by adjacency");
        }
    }

    #[test]
    fn metric_sampler_tracks_groups_once() {
        let stream = angular_stream(15, 8, 24, 0.003, 5);
        let part = SimHashPartitioner::try_new(24, 12, 0.05, 6).unwrap();
        let mut s = MetricRobustSampler::try_new(part, 64, 7).unwrap();
        for (p, _) in &stream {
            s.process(p);
        }
        assert_eq!(s.accept_set().len() + s.reject_set().len(), 15);
        assert!(s.query().is_some());
        // counts cover the stream
        let total: u64 = s
            .accept_set()
            .iter()
            .chain(s.reject_set().iter())
            .map(|g| g.count)
            .sum();
        assert_eq!(total, stream.len() as u64);
    }

    #[test]
    fn summaries_of_different_partitions_do_not_merge() {
        let sampler = |theta: f64, dim: usize, n_bits: usize| {
            let part = SimHashPartitioner::try_new(dim, n_bits, theta, 7).unwrap();
            let mut s = MetricRobustSampler::try_new(part, 64, 3).unwrap();
            for (p, _) in angular_stream(2, 2, dim, 0.001, 9) {
                s.process(&p);
            }
            s
        };
        let base = sampler(0.05, 8, 12);
        // Same seeds, another theta, bit count or dimension: a merge
        // would deduplicate under whichever partition comes first, so its
        // estimate would depend on the argument order.
        for other in [
            sampler(0.30, 8, 12),
            sampler(0.05, 8, 10),
            sampler(0.05, 6, 12),
        ] {
            for (a, b) in [
                (base.summary(), other.summary()),
                (other.summary(), base.summary()),
            ] {
                assert!(matches!(a.merge(b), Err(RdsError::ConfigMismatch { .. })));
            }
        }
        let same = sampler(0.05, 8, 12).summary().merge(base.summary());
        assert!(same.is_ok(), "equal configurations still merge");
    }

    #[test]
    fn metric_sampler_subsamples_under_tight_threshold() {
        let stream = angular_stream(60, 3, 24, 0.002, 8);
        let part = SimHashPartitioner::try_new(24, 14, 0.04, 9).unwrap();
        let mut s = MetricRobustSampler::try_new(part, 8, 10).unwrap();
        for (p, _) in &stream {
            s.process(p);
        }
        assert!(s.accept_set().len() <= 8);
        assert!(!s.accept_set().is_empty());
    }

    #[test]
    fn metric_sampling_is_roughly_uniform() {
        let stream = angular_stream(12, 6, 16, 0.003, 11);
        let mut hist = rds_metrics::SampleHistogram::new(12);
        // With a threshold this small the "Sacc never empties" guarantee
        // (Lemma 2.5) only holds with probability 1 - 2^-threshold per
        // doubling; tolerate the occasional empty accept set.
        let mut misses = 0u32;
        for run in 0..400u64 {
            let part = SimHashPartitioner::try_new(16, 12, 0.05, run * 13 + 1).unwrap();
            let mut s = MetricRobustSampler::try_new(part, 6, run * 17 + 3).unwrap();
            for (p, _) in &stream {
                s.process(p);
            }
            let Some(q) = s.query().cloned() else {
                misses += 1;
                continue;
            };
            let g = stream
                .iter()
                .find(|(p, _)| *p == q)
                .map(|(_, g)| *g)
                .expect("from stream");
            hist.record(g);
        }
        assert!(misses < 30, "accept set emptied {misses}/400 times");
        assert!(
            hist.std_dev_nm() < 0.6,
            "angular sampling biased: {:?}",
            hist.counts()
        );
    }

    #[test]
    fn invalid_parameters_are_typed_errors() {
        assert!(matches!(
            SimHashPartitioner::try_new(4, 30, 0.05, 1),
            Err(RdsError::InvalidBits { n_bits: 30 })
        ));
        assert!(matches!(
            SimHashPartitioner::try_new(0, 8, 0.05, 1),
            Err(RdsError::InvalidDimension { dim: 0 })
        ));
        assert!(matches!(
            SimHashPartitioner::try_new(4, 8, 1.0, 1),
            Err(RdsError::InvalidTheta { .. })
        ));
    }

    #[test]
    fn restore_rejects_mixed_dimension_representatives() {
        // Regression: a corrupted state whose candidate sets mix
        // dimensions used to restore Ok and silently truncate every
        // subsequent angle/bucket computation.
        use crate::checkpoint::Checkpointable;
        let part = SimHashPartitioner::try_new(4, 8, 0.05, 1).unwrap();
        let mut s = MetricRobustSampler::try_new(part, 8, 2).unwrap();
        s.process(&Point::new(vec![1.0, 0.0, 0.0, 0.0]));
        s.process(&Point::new(vec![0.0, 1.0, 0.0, 0.0]));
        let mut state = s.checkpoint_state();
        state.acc.push(MetricGroup {
            rep: Point::new(vec![1.0, 2.0]), // wrong dimension
            bucket_hash: 7,
            count: 1,
        });
        assert!(matches!(
            MetricRobustSampler::<SimHashPartitioner>::try_from_state(state),
            Err(RdsError::Checkpoint { .. })
        ));
    }

    #[test]
    fn restore_rejects_representatives_outside_the_partitioner_space() {
        // Regression: representatives that are *mutually* consistent but
        // disagree with the partitioner's own dimension used to restore
        // Ok and then panic (debug) or silently truncate (release).
        use crate::checkpoint::Checkpointable;
        let mut donor =
            MetricRobustSampler::try_new(SimHashPartitioner::try_new(2, 8, 0.05, 3).unwrap(), 8, 4)
                .unwrap();
        donor.process(&Point::new(vec![1.0, 0.0]));
        donor.process(&Point::new(vec![0.0, 1.0]));
        let mut state = donor.checkpoint_state();
        // swap in a dim-4 partitioner: every dim-2 rep is now foreign
        state.partitioner = SimHashPartitioner::try_new(4, 8, 0.05, 3).unwrap();
        assert!(matches!(
            MetricRobustSampler::<SimHashPartitioner>::try_from_state(state),
            Err(RdsError::Checkpoint { .. })
        ));
    }
}
