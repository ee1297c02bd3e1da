//! The crate's typed error: every parameter-validation failure that used
//! to be an `assert!` panic is reachable as a [`RdsError`] through the
//! fallible constructors (`SamplerConfig::builder().build()`,
//! `RobustL0Sampler::try_new`, `SlidingWindowSampler::try_new`, the
//! engine's `try_*` constructors and the umbrella facade's
//! `Rds::builder().build()` / `build_split()`). The panicking wrappers
//! that shadowed them for one deprecation release are gone — `try_*` and
//! the builders are the only construction paths.
//!
//! The `Display` strings still match the historical panic messages, so
//! callers that `unwrap()`/`expect()` a `try_*` result fail with text
//! containing what the old panics said.

use std::fmt;

/// Why a sampler, summary merge or engine could not be constructed.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum RdsError {
    /// `dim == 0`.
    InvalidDimension {
        /// The offending dimension.
        dim: usize,
    },
    /// `alpha` is not strictly positive and finite.
    InvalidAlpha {
        /// The offending near-duplicate threshold.
        alpha: f64,
    },
    /// `kappa0 <= 0` (or not finite).
    InvalidKappa0 {
        /// The offending threshold constant.
        kappa0: f64,
    },
    /// `k == 0` samples per query requested.
    InvalidK,
    /// Grid side factor below 1 (or not finite).
    InvalidSideFactor {
        /// The offending factor.
        side_factor: f64,
    },
    /// An explicit accept-set threshold of 0.
    InvalidThreshold,
    /// Accuracy target outside `(0, 1]`.
    InvalidEps {
        /// The offending accuracy target.
        eps: f64,
    },
    /// A median-boosted estimator with zero copies.
    InvalidCopies,
    /// `kappa_B` of the `kappa_B / eps^2` accept-set threshold is not
    /// strictly positive and finite.
    InvalidKappaB {
        /// The offending threshold constant.
        kappa_b: f64,
    },
    /// Heavy-hitter frequency threshold outside `(0, 1]`.
    InvalidPhi {
        /// The offending frequency threshold.
        phi: f64,
    },
    /// SimHash group threshold outside `(0, pi/8)`.
    InvalidTheta {
        /// The offending angular threshold (radians).
        theta: f64,
    },
    /// SimHash hyperplane count outside `1..=24` (more bits would make
    /// the adjacency enumeration explode in the worst case).
    InvalidBits {
        /// The offending hyperplane count.
        n_bits: usize,
    },
    /// Johnson–Lindenstrauss distortion outside the open interval
    /// `(0, 1)`.
    InvalidDistortion {
        /// The offending distortion parameter.
        eps: f64,
    },
    /// A sliding-window construct was given an unbounded window.
    UnboundedWindow,
    /// A window of zero length.
    EmptyWindow,
    /// An engine with zero shards.
    InvalidShards,
    /// A batch size of zero.
    InvalidBatchSize,
    /// A checkpoint container or serialized sampler state could not be
    /// restored: unreadable file, bad magic, unsupported format version,
    /// checksum mismatch, malformed state, or a configuration that does
    /// not match the checkpoint's config echo.
    Checkpoint {
        /// What was wrong with the container or state.
        reason: String,
    },
    /// A tenant-layer request was malformed: an empty/overlong/unsafe
    /// tenant id, or a per-tenant batch whose fields disagree.
    InvalidTenant {
        /// What was wrong with the request.
        reason: String,
    },
    /// Summaries built from different configurations (different grids or
    /// hash functions) cannot be merged.
    ConfigMismatch {
        /// Seed of the summary on the left of the merge.
        expected_seed: u64,
        /// Seed of the summary that did not match.
        actual_seed: u64,
    },
}

impl RdsError {
    /// Builds a [`RdsError::Checkpoint`] — the one constructor shared by
    /// the core restore paths, the engine and the facade container code.
    pub fn checkpoint(reason: impl Into<String>) -> Self {
        RdsError::Checkpoint {
            reason: reason.into(),
        }
    }

    /// Builds a [`RdsError::InvalidTenant`] — the tenant registry's
    /// request-validation error.
    pub fn invalid_tenant(reason: impl Into<String>) -> Self {
        RdsError::InvalidTenant {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for RdsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            RdsError::InvalidDimension { dim } => {
                write!(f, "dimension must be positive (got {dim})")
            }
            RdsError::InvalidAlpha { alpha } => {
                write!(f, "alpha must be positive and finite (got {alpha})")
            }
            RdsError::InvalidKappa0 { kappa0 } => {
                write!(f, "kappa0 must be positive (got {kappa0})")
            }
            RdsError::InvalidK => write!(f, "k must be at least 1"),
            RdsError::InvalidSideFactor { side_factor } => {
                write!(f, "side factor must be >= 1 (got {side_factor})")
            }
            RdsError::InvalidThreshold => write!(f, "threshold must be at least 1"),
            RdsError::InvalidEps { eps } => write!(f, "eps must be in (0, 1] (got {eps})"),
            RdsError::InvalidCopies => write!(f, "need at least one copy"),
            RdsError::InvalidKappaB { kappa_b } => {
                write!(f, "kappa_B must be positive (got {kappa_b})")
            }
            RdsError::InvalidPhi { phi } => {
                write!(f, "phi must be in (0, 1] (got {phi})")
            }
            RdsError::InvalidTheta { theta } => {
                write!(f, "theta must be in (0, pi/8) (got {theta})")
            }
            RdsError::InvalidBits { n_bits } => {
                write!(f, "n_bits must be in 1..=24 (got {n_bits})")
            }
            RdsError::InvalidDistortion { eps } => {
                write!(f, "JL distortion eps must be in (0, 1) (got {eps})")
            }
            RdsError::UnboundedWindow => {
                write!(f, "this sampler requires a bounded window")
            }
            RdsError::EmptyWindow => write!(f, "window length must be at least 1"),
            RdsError::InvalidShards => write!(f, "need at least one shard"),
            RdsError::InvalidBatchSize => write!(f, "batch size must be at least 1"),
            RdsError::Checkpoint { ref reason } => {
                write!(f, "checkpoint rejected: {reason}")
            }
            RdsError::InvalidTenant { ref reason } => {
                write!(f, "invalid tenant request: {reason}")
            }
            RdsError::ConfigMismatch {
                expected_seed,
                actual_seed,
            } => write!(
                f,
                "summaries built from different configurations cannot be merged \
                 (seed {expected_seed} vs {actual_seed}; equal seeds mean the \
                 configurations differ in another parameter, e.g. dim or alpha)"
            ),
        }
    }
}

impl std::error::Error for RdsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_historical_panic_messages() {
        // The panicking wrappers rely on these substrings.
        assert!(RdsError::InvalidAlpha { alpha: 0.0 }
            .to_string()
            .contains("alpha must be positive"));
        assert!(RdsError::InvalidDimension { dim: 0 }
            .to_string()
            .contains("dimension must be positive"));
        assert!(RdsError::InvalidThreshold
            .to_string()
            .contains("threshold must be at least 1"));
        assert!(RdsError::UnboundedWindow
            .to_string()
            .contains("bounded window"));
        assert!(RdsError::InvalidShards
            .to_string()
            .contains("at least one shard"));
        assert!(RdsError::InvalidBatchSize
            .to_string()
            .contains("batch size must be at least 1"));
        assert!(RdsError::InvalidK
            .to_string()
            .contains("k must be at least 1"));
        assert!(RdsError::InvalidEps { eps: 0.0 }
            .to_string()
            .contains("eps must be in (0, 1]"));
        assert!(RdsError::InvalidCopies
            .to_string()
            .contains("at least one copy"));
        assert!(RdsError::InvalidKappaB { kappa_b: 0.0 }
            .to_string()
            .contains("kappa_B must be positive"));
        assert!(RdsError::InvalidPhi { phi: 0.0 }
            .to_string()
            .contains("phi must be in (0, 1]"));
        assert!(RdsError::InvalidTheta { theta: 1.0 }
            .to_string()
            .contains("theta must be in (0, pi/8)"));
        assert!(RdsError::InvalidBits { n_bits: 30 }
            .to_string()
            .contains("n_bits must be in 1..=24"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_error<E: std::error::Error>(_: E) {}
        takes_error(RdsError::InvalidK);
    }
}
