//! Durable checkpoint/restore for sampler state.
//!
//! Query summaries ([`crate::SamplerSummary`]) freeze what a sampler would
//! *answer*; they deliberately drop the machinery needed to keep
//! ingesting (reject sets, per-level RNG streams, rate bookkeeping). This
//! module serializes the machinery itself: every sampler family
//! implements [`Checkpointable`], whose `State` is a plain serializable
//! struct that captures the complete live state — candidate sets, clocks,
//! thresholds, and the exact PRNG positions — so that
//!
//! ```text
//! checkpoint → (process crash) → restore → continue ingesting
//! ```
//!
//! is indistinguishable, bit for bit, from a process that never crashed.
//!
//! States are self-contained: they embed the [`SamplerConfig`] (the grid
//! and hash are deterministic functions of it, so they are *rebuilt*, not
//! stored) and validate on restore — malformed or internally inconsistent
//! state surfaces as [`RdsError::Checkpoint`], never a panic.
//!
//! The sharded engine lifts this per-shard (`ShardedEngine::checkpoint`
//! in `rds-engine`), and the facade wraps the result in a versioned,
//! checksummed JSON container (`RdsWriter::checkpoint_to` /
//! `Rds::builder().restore_from(path)` in the umbrella crate).

use crate::config::SamplerConfig;
use crate::error::RdsError;
use rand::rngs::StdRng;
use serde::{DeError, Deserialize, Serialize, Value};

/// A sampler whose complete live state can be captured and restored.
///
/// `checkpoint_state` is non-destructive (clones the candidate structure;
/// the sampler keeps running) and `try_from_state` rebuilds a sampler
/// that continues exactly where the captured one stood: same candidate
/// sets, same clocks, same PRNG positions — continued ingestion and
/// queries are bit-identical to an uninterrupted run.
///
/// # Examples
///
/// ```
/// use rds_core::{Checkpointable, DistinctSampler, RobustL0Sampler, SamplerConfig};
/// use rds_geometry::Point;
///
/// let cfg = SamplerConfig::builder(1, 0.5).seed(7).build().unwrap();
/// let mut a = RobustL0Sampler::try_new(cfg).unwrap();
/// for i in 0..100u64 {
///     a.process(&Point::new(vec![(i % 10) as f64 * 10.0]));
/// }
/// // capture, serialize, restore — then both continue identically
/// let wire = serde_json::to_string(&a.checkpoint_state()).unwrap();
/// let state = serde_json::from_str(&wire).unwrap();
/// let mut b = RobustL0Sampler::try_from_state(state).unwrap();
/// for i in 100..200u64 {
///     let p = Point::new(vec![(i % 25) as f64 * 10.0]);
///     a.process(&p);
///     b.process(&p);
/// }
/// assert_eq!(a.f0_estimate(), b.f0_estimate());
/// ```
pub trait Checkpointable: Sized {
    /// The serializable full-state type.
    type State: Serialize + Deserialize + Send + 'static;

    /// Captures the complete live state (the sampler keeps running).
    fn checkpoint_state(&self) -> Self::State;

    /// Rebuilds a sampler from a captured state.
    ///
    /// # Errors
    ///
    /// [`RdsError::Checkpoint`] (or the underlying constructor's typed
    /// error) when the state is malformed or internally inconsistent —
    /// never a panic, so untrusted checkpoint files are safe to feed
    /// through this.
    fn try_from_state(state: Self::State) -> Result<Self, RdsError>;

    /// The [`SamplerConfig`] embedded in a captured state, when the
    /// family has one (the metric family is configured by a partitioner
    /// and a seed instead and returns `None`). Aggregators restoring
    /// many states — the sharded engine — use this to verify every state
    /// matches the shared configuration before spawning workers on it.
    fn state_config(state: &Self::State) -> Option<&SamplerConfig> {
        let _ = state;
        None
    }

    /// The [`Window`](rds_stream::Window) embedded in a captured state,
    /// for window families (`None` for infinite-window samplers, whose
    /// state has no window). The sharded engine uses this to reject
    /// checkpoints whose shards disagree on the expiry horizon — such
    /// shards would merge entries expired under different windows into
    /// one silently wrong estimate.
    fn state_window(state: &Self::State) -> Option<rds_stream::Window> {
        let _ = state;
        None
    }
}

/// Crate-local shorthand for [`RdsError::checkpoint`].
pub(crate) fn checkpoint_err(reason: impl Into<String>) -> RdsError {
    RdsError::checkpoint(reason)
}

/// A captured PRNG position: the four xoshiro256++ state words of a
/// [`StdRng`]. Restoring it rebuilds a generator that continues the exact
/// same sequence, which is what makes checkpointed reservoir sampling and
/// query draws bit-identical to an uninterrupted run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RngState([u64; 4]);

impl RngState {
    /// Captures the generator's current position.
    pub fn capture(rng: &StdRng) -> Self {
        Self(rng.state())
    }

    /// Rebuilds a generator at the captured position.
    pub fn restore(&self) -> StdRng {
        StdRng::from_state(self.0)
    }
}

impl Serialize for RngState {
    fn to_value(&self) -> Value {
        Value::Seq(self.0.iter().map(Serialize::to_value).collect())
    }
}

impl Deserialize for RngState {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let words = Vec::<u64>::from_value(value)
            .map_err(|e| DeError::custom(format!("rng state: {e}")))?;
        let words: [u64; 4] = words
            .try_into()
            .map_err(|_| DeError::custom("rng state must hold exactly 4 words"))?;
        if words == [0; 4] {
            // All-zero is the degenerate fixed point of xoshiro256++ —
            // a generator stuck on zero can never arise from seeding, so
            // the state is corrupt.
            return Err(DeError::custom("rng state must not be all-zero"));
        }
        Ok(Self(words))
    }
}

/// Validates that every point of an iterator matches the configured
/// ambient dimension — the cross-field invariant the per-point
/// deserializer cannot check (it sees one point at a time).
pub(crate) fn check_dims<'a>(
    cfg: &SamplerConfig,
    points: impl IntoIterator<Item = &'a rds_geometry::Point>,
    what: &str,
) -> Result<(), RdsError> {
    for p in points {
        if p.dim() != cfg.dim {
            return Err(checkpoint_err(format!(
                "{what}: point of dimension {} in a dimension-{} sampler",
                p.dim(),
                cfg.dim
            )));
        }
    }
    Ok(())
}

/// Validates a restored rate exponent: levels beyond
/// [`MAX_LEVEL`](crate::MAX_LEVEL) cannot be represented by the
/// `2^level` arithmetic, and the samplers never produce them (the
/// doubling loops stop at the same cap).
pub(crate) fn check_level(level: u32) -> Result<(), RdsError> {
    if level > crate::MAX_LEVEL {
        return Err(checkpoint_err(format!(
            "rate exponent {level} out of range (max {})",
            crate::MAX_LEVEL
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn rng_state_round_trips_and_continues() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            rng.next_u64();
        }
        let state = RngState::capture(&rng);
        let wire = serde_json::to_string(&state).unwrap();
        let back: RngState = serde_json::from_str(&wire).unwrap();
        let mut restored = back.restore();
        for _ in 0..50 {
            assert_eq!(rng.next_u64(), restored.next_u64());
        }
    }

    #[test]
    fn corrupt_rng_states_are_rejected() {
        assert!(serde_json::from_str::<RngState>("[1,2,3]").is_err());
        assert!(serde_json::from_str::<RngState>("[1,2,3,4,5]").is_err());
        assert!(serde_json::from_str::<RngState>("[0,0,0,0]").is_err());
        assert!(serde_json::from_str::<RngState>("\"zebra\"").is_err());
        assert!(serde_json::from_str::<RngState>("[1,2,3,4]").is_ok());
    }

    #[test]
    fn level_guard_rejects_unrepresentable_rates() {
        assert!(check_level(0).is_ok());
        assert!(check_level(63).is_ok());
        assert!(matches!(check_level(64), Err(RdsError::Checkpoint { .. })));
    }
}
