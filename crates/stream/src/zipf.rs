//! Seeded Zipf(θ) key generation.
//!
//! Multi-tenant workloads are heavily skewed: a few tenants receive most
//! of the traffic while a long tail stays almost idle. The standard model
//! for that skew is the Zipf distribution — key of rank `r` (0-based) is
//! drawn with probability proportional to `1 / (r + 1)^θ` — and it is
//! what the benchmark's `tenants` workload uses to drive the registry's
//! eviction machinery realistically.
//!
//! [`ZipfKeys`] is deterministic for a given seed (same workspace
//! contract as every other generator here: replayable workloads, no
//! ambient entropy) and samples in `O(log n)` per key from a precomputed
//! cumulative table built in `O(n)`.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fmt;

/// Why a [`ZipfKeys`] generator could not be built.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ZipfError {
    /// The key space was empty (`n == 0`).
    EmptyKeySpace,
    /// The skew exponent was negative, NaN or infinite.
    InvalidTheta,
}

impl fmt::Display for ZipfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ZipfError::EmptyKeySpace => write!(f, "zipf key space must hold at least one key"),
            ZipfError::InvalidTheta => {
                write!(f, "zipf exponent theta must be finite and non-negative")
            }
        }
    }
}

impl std::error::Error for ZipfError {}

/// A seeded generator of Zipf(θ)-distributed keys over `0..n`.
///
/// Rank 0 is the most popular key; `θ = 0` degenerates to the uniform
/// distribution and larger `θ` concentrates more of the mass on the low
/// ranks (`θ ≈ 1` is the classic web/tenant-traffic skew).
///
/// # Examples
///
/// ```
/// use rds_stream::ZipfKeys;
///
/// let mut keys = ZipfKeys::try_new(1_000, 1.0, 42).unwrap();
/// let k = keys.next_key();
/// assert!(k < 1_000);
/// // same seed → same sequence, replayable workloads
/// let mut again = ZipfKeys::try_new(1_000, 1.0, 42).unwrap();
/// assert_eq!(again.next_key(), k);
/// ```
#[derive(Clone, Debug)]
pub struct ZipfKeys {
    /// `cdf[r]` = P(key ≤ r); the last entry is pinned to exactly 1.0.
    cdf: Vec<f64>,
    theta: f64,
    rng: StdRng,
}

impl ZipfKeys {
    /// Builds a generator over the key space `0..n` with skew `theta`,
    /// seeded deterministically from `seed`.
    ///
    /// # Errors
    ///
    /// [`ZipfError::EmptyKeySpace`] when `n == 0`;
    /// [`ZipfError::InvalidTheta`] when `theta` is negative, NaN or
    /// infinite.
    pub fn try_new(n: usize, theta: f64, seed: u64) -> Result<Self, ZipfError> {
        if n == 0 {
            return Err(ZipfError::EmptyKeySpace);
        }
        if !theta.is_finite() || theta < 0.0 {
            return Err(ZipfError::InvalidTheta);
        }
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for r in 0..n {
            total += 1.0 / ((r + 1) as f64).powf(theta);
            cdf.push(total);
        }
        for c in cdf.iter_mut() {
            *c /= total;
        }
        if let Some(last) = cdf.last_mut() {
            // floating-point division can land the final entry a ULP
            // below 1.0; pin it so every draw in [0, 1) maps to a rank
            *last = 1.0;
        }
        Ok(Self {
            cdf,
            theta,
            rng: StdRng::seed_from_u64(seed),
        })
    }

    /// Draws the next key: a rank in `0..n`, rank 0 most popular.
    pub fn next_key(&mut self) -> u64 {
        let u: f64 = self.rng.random();
        // first rank whose cumulative mass exceeds the draw
        let idx = self.cdf.partition_point(|&c| c <= u);
        idx.min(self.cdf.len() - 1) as u64
    }

    /// The size of the key space `n`.
    pub fn key_space(&self) -> usize {
        self.cdf.len()
    }

    /// The skew exponent θ.
    pub fn theta(&self) -> f64 {
        self.theta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_degenerate_parameters() {
        assert_eq!(
            ZipfKeys::try_new(0, 1.0, 1).unwrap_err(),
            ZipfError::EmptyKeySpace
        );
        assert_eq!(
            ZipfKeys::try_new(10, -0.5, 1).unwrap_err(),
            ZipfError::InvalidTheta
        );
        assert_eq!(
            ZipfKeys::try_new(10, f64::NAN, 1).unwrap_err(),
            ZipfError::InvalidTheta
        );
        assert_eq!(
            ZipfKeys::try_new(10, f64::INFINITY, 1).unwrap_err(),
            ZipfError::InvalidTheta
        );
    }

    #[test]
    fn deterministic_per_seed_and_within_bounds() {
        let mut a = ZipfKeys::try_new(1_000, 0.99, 7).unwrap();
        let mut b = ZipfKeys::try_new(1_000, 0.99, 7).unwrap();
        for _ in 0..10_000 {
            let k = a.next_key();
            assert_eq!(k, b.next_key());
            assert!(k < 1_000);
        }
        let mut c = ZipfKeys::try_new(1_000, 0.99, 8).unwrap();
        let same = (0..64).all(|_| a.next_key() == c.next_key());
        assert!(!same, "different seeds should diverge");
    }

    #[test]
    fn skew_concentrates_mass_on_low_ranks() {
        let mut g = ZipfKeys::try_new(10_000, 1.0, 3).unwrap();
        let mut counts = vec![0u32; 10_000];
        for _ in 0..200_000 {
            counts[g.next_key() as usize] += 1;
        }
        // under θ=1 rank 0 carries ~10% of the mass over 10k keys; rank
        // 999 carries a thousandth of that — orders of magnitude apart
        assert!(counts[0] > 10_000, "rank 0 drew {}", counts[0]);
        assert!(
            counts[0] > 50 * counts[999].max(1),
            "rank 0 ({}) should dwarf rank 999 ({})",
            counts[0],
            counts[999]
        );
        // the whole key space stays reachable: the tail is thin, not dead
        assert!(counts[9_999] < counts[0]);
    }

    #[test]
    fn theta_zero_is_roughly_uniform() {
        let mut g = ZipfKeys::try_new(10, 0.0, 5).unwrap();
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[g.next_key() as usize] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "bucket count {c}");
        }
    }
}
