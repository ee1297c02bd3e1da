//! Section 2.3: drawing `k` robust ℓ0-samples per query.
//!
//! * **Without replacement** — raise the accept-set threshold to
//!   `kappa_0 * k * log m` (so `|Sacc| >= k` w.h.p.) and draw `k` distinct
//!   groups; this is [`crate::SamplerConfigBuilder::k`] plus
//!   [`RobustL0Sampler::query_k`] / [`SlidingWindowSampler::query_k`]. The
//!   [`KDistinctSampler`] wrapper packages the pattern.
//! * **With replacement** — run `k` independent one-sample instances in
//!   parallel ([`KWithReplacementSampler`]).

use crate::checkpoint::{checkpoint_err, Checkpointable};
use crate::config::SamplerConfig;
use crate::distributed::MergedSummary;
use crate::error::RdsError;
use crate::infinite::{BatchStats, GroupRecord, ProcessOutcome, RobustL0Sampler, RobustL0State};
use crate::sampler::DistinctSampler;
use rds_geometry::Point;
use rds_stream::StreamItem;
use serde::{Deserialize, Serialize};

/// Draws `k` distinct groups per query (sampling without replacement) in
/// the infinite window.
///
/// # Examples
///
/// ```
/// use rds_core::{KDistinctSampler, SamplerConfig};
/// use rds_geometry::Point;
///
/// let mut s = KDistinctSampler::try_new(SamplerConfig::builder(1, 0.5).seed(1).build().unwrap(), 3).unwrap();
/// for i in 0..200 {
///     s.process(&Point::new(vec![(i % 20) as f64 * 10.0]));
/// }
/// assert_eq!(s.sample().len(), 3);
/// ```
#[derive(Debug)]
pub struct KDistinctSampler {
    inner: RobustL0Sampler,
    k: usize,
}

impl KDistinctSampler {
    /// Creates the sampler; the threshold scales with `k` as in
    /// Section 2.3.
    ///
    /// # Errors
    ///
    /// [`RdsError::InvalidK`] when `k == 0`, or any
    /// [`SamplerConfig::validate`] failure.
    pub fn try_new(cfg: SamplerConfig, k: usize) -> Result<Self, RdsError> {
        if k == 0 {
            return Err(RdsError::InvalidK);
        }
        Ok(Self {
            inner: RobustL0Sampler::try_new(SamplerConfig { k, ..cfg })?,
            k,
        })
    }

    /// Feeds one stream point.
    pub fn process(&mut self, p: &Point) {
        self.inner.process(p);
    }

    /// Draws `min(k, |Sacc|)` distinct groups.
    pub fn sample(&mut self) -> Vec<GroupRecord> {
        let k = self.k;
        DistinctSampler::query_k(&mut self.inner, k)
    }

    /// The configured `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The wrapped single-sample structure.
    pub fn inner(&self) -> &RobustL0Sampler {
        &self.inner
    }
}

/// The serializable full state of a [`KDistinctSampler`]: the configured
/// `k` plus the wrapped single-structure state.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct KDistinctState {
    k: usize,
    inner: RobustL0State,
}

impl Checkpointable for KDistinctSampler {
    type State = KDistinctState;

    fn checkpoint_state(&self) -> KDistinctState {
        KDistinctState {
            k: self.k,
            inner: self.inner.checkpoint_state(),
        }
    }

    fn try_from_state(state: KDistinctState) -> Result<Self, RdsError> {
        if state.k == 0 {
            return Err(RdsError::InvalidK);
        }
        if state.inner.cfg().k != state.k {
            return Err(checkpoint_err(format!(
                "k-sampler state draws k = {} but its inner threshold was \
                 scaled for k = {}",
                state.k,
                state.inner.cfg().k
            )));
        }
        Ok(Self {
            inner: RobustL0Sampler::try_from_state(state.inner)?,
            k: state.k,
        })
    }

    fn state_config(state: &KDistinctState) -> Option<&SamplerConfig> {
        Some(state.inner.cfg())
    }
}

impl DistinctSampler for KDistinctSampler {
    type Summary = MergedSummary;

    /// Feeds the item's point; the stamp is ignored (infinite window).
    fn process(&mut self, item: &StreamItem) -> ProcessOutcome {
        self.inner.process(&item.point)
    }

    fn process_batch(&mut self, items: &[StreamItem]) -> BatchStats {
        DistinctSampler::process_batch(&mut self.inner, items)
    }

    fn query_record(&mut self) -> Option<GroupRecord> {
        DistinctSampler::query_record(&mut self.inner)
    }

    fn query_k(&mut self, k: usize) -> Vec<GroupRecord> {
        DistinctSampler::query_k(&mut self.inner, k)
    }

    fn f0_estimate(&self) -> f64 {
        self.inner.f0_estimate()
    }

    fn seen(&self) -> u64 {
        self.inner.seen()
    }

    fn words(&self) -> usize {
        self.inner.words()
    }

    fn summary(&self) -> MergedSummary {
        DistinctSampler::summary(&self.inner)
    }
}

/// Draws `k` samples with replacement: `k` independent copies of
/// Algorithm 1, one sample from each (Section 2.3).
#[derive(Debug)]
pub struct KWithReplacementSampler {
    copies: Vec<RobustL0Sampler>,
}

impl KWithReplacementSampler {
    /// Creates `k` independent copies with derived seeds.
    ///
    /// # Errors
    ///
    /// [`RdsError::InvalidK`] when `k == 0`, or any
    /// [`SamplerConfig::validate`] failure.
    pub fn try_new(cfg: SamplerConfig, k: usize) -> Result<Self, RdsError> {
        if k == 0 {
            return Err(RdsError::InvalidK);
        }
        let copies = (0..k)
            .map(|i| {
                let cfg_i = SamplerConfig {
                    seed: cfg.seed.wrapping_add(0xABCD * (i as u64 + 1)),
                    ..cfg.clone()
                };
                RobustL0Sampler::try_new(cfg_i)
            })
            .collect::<Result<_, _>>()?;
        Ok(Self { copies })
    }

    /// Feeds one stream point to every copy.
    pub fn process(&mut self, p: &Point) {
        for c in &mut self.copies {
            c.process(p);
        }
    }

    /// One independent sample per copy (`k` samples, possibly repeating
    /// groups).
    pub fn sample(&mut self) -> Vec<Point> {
        self.copies
            .iter_mut()
            .filter_map(|c| c.query().cloned())
            .collect()
    }

    /// The configured `k`.
    pub fn k(&self) -> usize {
        self.copies.len()
    }
}

/// The serializable full state of a [`KWithReplacementSampler`]: one
/// [`RobustL0State`] per independent copy.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct KWithReplacementState {
    copies: Vec<RobustL0State>,
}

impl Checkpointable for KWithReplacementSampler {
    type State = KWithReplacementState;

    fn checkpoint_state(&self) -> KWithReplacementState {
        KWithReplacementState {
            copies: self.copies.iter().map(|c| c.checkpoint_state()).collect(),
        }
    }

    fn try_from_state(state: KWithReplacementState) -> Result<Self, RdsError> {
        let Some(first_copy) = state.copies.first() else {
            return Err(RdsError::InvalidK);
        };
        // The copies are independent only in their (derived) seeds; every
        // other parameter must agree, or `process` would feed one point
        // to samplers of conflicting dimensions and panic downstream.
        let reference = SamplerConfig {
            seed: 0,
            ..first_copy.cfg().clone()
        };
        for (i, copy) in state.copies.iter().enumerate() {
            let seedless = SamplerConfig {
                seed: 0,
                ..copy.cfg().clone()
            };
            if seedless != reference {
                return Err(checkpoint_err(format!(
                    "with-replacement copy {i} embeds a configuration differing \
                     (beyond its derived seed) from copy 0"
                )));
            }
        }
        Ok(Self {
            copies: state
                .copies
                .into_iter()
                .map(RobustL0Sampler::try_from_state)
                .collect::<Result<_, _>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed_groups(n_points: u64, n_groups: u64, f: &mut impl FnMut(&Point)) {
        for i in 0..n_points {
            f(&Point::new(vec![(i % n_groups) as f64 * 10.0]));
        }
    }

    #[test]
    fn without_replacement_returns_distinct() {
        let mut s =
            KDistinctSampler::try_new(SamplerConfig::builder(1, 0.5).seed(2).build().unwrap(), 5)
                .unwrap();
        feed_groups(400, 40, &mut |p| s.process(p));
        let picks = s.sample();
        assert_eq!(picks.len(), 5);
        for i in 0..picks.len() {
            for j in (i + 1)..picks.len() {
                assert!(!picks[i].rep.within(&picks[j].rep, 0.5));
            }
        }
    }

    #[test]
    fn without_replacement_saturates_at_group_count() {
        // only 2 groups exist; asking for 5 yields 2
        let mut s =
            KDistinctSampler::try_new(SamplerConfig::builder(1, 0.5).seed(3).build().unwrap(), 5)
                .unwrap();
        feed_groups(50, 2, &mut |p| s.process(p));
        assert_eq!(s.sample().len(), 2);
    }

    #[test]
    fn threshold_scales_with_k() {
        let one =
            KDistinctSampler::try_new(SamplerConfig::builder(1, 0.5).build().unwrap(), 1).unwrap();
        let five =
            KDistinctSampler::try_new(SamplerConfig::builder(1, 0.5).build().unwrap(), 5).unwrap();
        assert_eq!(five.inner().threshold(), 5 * one.inner().threshold());
    }

    #[test]
    fn with_replacement_returns_k_samples() {
        let mut s = KWithReplacementSampler::try_new(
            SamplerConfig::builder(1, 0.5).seed(4).build().unwrap(),
            4,
        )
        .unwrap();
        feed_groups(300, 30, &mut |p| s.process(p));
        assert_eq!(s.sample().len(), 4);
        assert_eq!(s.k(), 4);
    }

    #[test]
    fn with_replacement_copies_are_independent() {
        // over several reconstructions the k draws must not always agree
        let mut agreements = 0;
        for seed in 0..20u64 {
            let mut s = KWithReplacementSampler::try_new(
                SamplerConfig::builder(1, 0.5)
                    .seed(seed * 31 + 1)
                    .build()
                    .unwrap(),
                2,
            )
            .unwrap();
            feed_groups(200, 20, &mut |p| s.process(p));
            let picks = s.sample();
            if picks[0] == picks[1] {
                agreements += 1;
            }
        }
        assert!(agreements < 15, "copies look correlated: {agreements}/20");
    }

    #[test]
    fn with_replacement_restore_rejects_mixed_copy_configs() {
        // Regression: copies of conflicting dimensions used to restore Ok
        // and panic on the first processed point.
        let dim1 = RobustL0Sampler::try_new(SamplerConfig::builder(1, 0.5).build().unwrap())
            .unwrap()
            .checkpoint_state();
        let dim2 = RobustL0Sampler::try_new(SamplerConfig::builder(2, 0.5).build().unwrap())
            .unwrap()
            .checkpoint_state();
        let state = KWithReplacementState {
            copies: vec![dim1.clone(), dim2],
        };
        assert!(matches!(
            KWithReplacementSampler::try_from_state(state),
            Err(RdsError::Checkpoint { .. })
        ));
        // derived seeds alone are fine — that is how the copies differ
        let mut legit = KWithReplacementSampler::try_new(
            SamplerConfig::builder(1, 0.5).seed(3).build().unwrap(),
            2,
        )
        .unwrap();
        legit.process(&Point::new(vec![1.0]));
        let state = legit.checkpoint_state();
        assert!(KWithReplacementSampler::try_from_state(state).is_ok());
    }

    #[test]
    fn zero_k_rejected() {
        let err = KDistinctSampler::try_new(SamplerConfig::builder(1, 0.5).build().unwrap(), 0)
            .unwrap_err();
        assert!(matches!(err, RdsError::InvalidK));
    }
}
