//! Sampler configuration and the shared grid/hash context.

use crate::error::RdsError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rds_geometry::{for_each_adjacent_cell_fold, Grid, Point};
use rds_hashing::{level_sampled, CellHasher, CellKeyMixer, KWiseHash};
use serde::{Deserialize, Serialize};

/// Hard cap on the rate exponent `log2 R` shared by every sampler family.
///
/// Levels beyond 63 cannot be represented by the `2^level` arithmetic
/// (`1u64 << level`), so the rate-doubling loops stop here, the
/// hierarchical window sampler clamps its level count here, and
/// checkpoint restore rejects anything larger. Reaching the cap in
/// practice would take an adversarially degenerate hash function — the
/// threshold analysis keeps real streams at `O(log m)` doublings.
pub const MAX_LEVEL: u32 = 63;

/// Configuration shared by all samplers in this crate.
///
/// The defaults follow the paper: grid side `alpha` (the implementation
/// regime of Section 6, where `adj(p)` is contained in the `3^d` lattice
/// neighbourhood), acceptance-set threshold `kappa0 * k * log2(m)`
/// (Algorithm 1 line 10 / Algorithm 3 line 10 and the k-sampling extension
/// of Section 2.3), and `Θ(log m)`-wise independent hashing.
///
/// Construct it through [`SamplerConfig::builder`]; validation surfaces
/// from [`SamplerConfigBuilder::build`] as [`RdsError`], never a panic.
/// (The legacy panicking `SamplerConfig::new` + `with_*` chain was removed
/// after its one-release deprecation window.)
///
/// # Examples
///
/// ```
/// use rds_core::SamplerConfig;
///
/// let cfg = SamplerConfig::builder(5, 0.05)
///     .seed(42)
///     .expected_len(100_000)
///     .build()
///     .expect("valid parameters");
/// assert!(cfg.threshold() > 0);
///
/// // invalid parameters are an Err, not a panic
/// assert!(SamplerConfig::builder(0, 1.0).build().is_err());
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SamplerConfig {
    /// Ambient dimension `d`.
    pub dim: usize,
    /// Group-diameter threshold `alpha`: points within `alpha` are
    /// near-duplicates of the same entity.
    pub alpha: f64,
    /// Grid side length as a multiple of `alpha`. Default `1.0`; the
    /// high-dimensional regime of Section 4 uses `d`
    /// ([`SamplerConfigBuilder::high_dim`]).
    pub side_factor: f64,
    /// The constant `kappa_0` in the `kappa_0 log m` acceptance threshold.
    pub kappa0: f64,
    /// Number of distinct samples the caller intends to draw without
    /// replacement per query (Section 2.3 scales the threshold by `k`).
    pub k: usize,
    /// Expected stream length `m` (drives the `log m` threshold and the
    /// hash independence). An estimate is fine; the bound degrades
    /// gracefully.
    pub expected_len: u64,
    /// Hash independence; `0` means auto (`max(8, 2 log2 m)`).
    pub independence: usize,
    /// PRNG seed for the grid offset, the hash function and query
    /// randomness.
    pub seed: u64,
}

impl SamplerConfig {
    /// Starts a fallible builder — the recommended construction path.
    /// Parameter validation surfaces from [`SamplerConfigBuilder::build`]
    /// as [`RdsError`] instead of a panic.
    pub fn builder(dim: usize, alpha: f64) -> SamplerConfigBuilder {
        SamplerConfigBuilder::new(dim, alpha)
    }

    /// Checks every parameter; the invariant behind the `assert!`-free
    /// happy path of the samplers.
    ///
    /// # Errors
    ///
    /// The first violated constraint, as a typed [`RdsError`].
    pub fn validate(&self) -> Result<(), RdsError> {
        if self.dim == 0 {
            return Err(RdsError::InvalidDimension { dim: self.dim });
        }
        if !(self.alpha.is_finite() && self.alpha > 0.0) {
            return Err(RdsError::InvalidAlpha { alpha: self.alpha });
        }
        if !(self.kappa0.is_finite() && self.kappa0 > 0.0) {
            return Err(RdsError::InvalidKappa0 {
                kappa0: self.kappa0,
            });
        }
        if self.k == 0 {
            return Err(RdsError::InvalidK);
        }
        if !(self.side_factor.is_finite() && self.side_factor >= 1.0) {
            return Err(RdsError::InvalidSideFactor {
                side_factor: self.side_factor,
            });
        }
        Ok(())
    }

    /// `log2` of the expected stream length (at least 2).
    pub fn log2_m(&self) -> f64 {
        (self.expected_len.max(4) as f64).log2()
    }

    /// The acceptance-set size threshold `ceil(kappa_0 * k * log2 m)`
    /// (Algorithm 1 line 10).
    pub fn threshold(&self) -> usize {
        (self.kappa0 * self.k as f64 * self.log2_m()).ceil() as usize
    }

    /// The effective hash independence.
    pub fn effective_independence(&self) -> usize {
        if self.independence > 0 {
            self.independence
        } else {
            KWiseHash::suggested_independence(self.expected_len)
        }
    }

    /// The grid side length `side_factor * alpha`.
    pub fn side(&self) -> f64 {
        self.side_factor * self.alpha
    }
}

/// Fallible builder for [`SamplerConfig`]: setters never panic, all
/// validation happens in [`Self::build`].
///
/// # Examples
///
/// ```
/// use rds_core::{RdsError, SamplerConfig};
///
/// let err = SamplerConfig::builder(2, f64::NAN).build().unwrap_err();
/// assert!(matches!(err, RdsError::InvalidAlpha { .. }));
/// ```
#[derive(Clone, Debug)]
pub struct SamplerConfigBuilder {
    cfg: SamplerConfig,
}

impl SamplerConfigBuilder {
    fn new(dim: usize, alpha: f64) -> Self {
        Self {
            cfg: SamplerConfig {
                dim,
                alpha,
                side_factor: 1.0,
                kappa0: 4.0,
                k: 1,
                expected_len: 1 << 20,
                independence: 0,
                seed: 0xC0FF_EE00,
            },
        }
    }

    /// Sets the PRNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Sets the expected stream length `m` (clamped to at least 4).
    pub fn expected_len(mut self, m: u64) -> Self {
        self.cfg.expected_len = m.max(4);
        self
    }

    /// Sets the threshold constant `kappa_0`.
    pub fn kappa0(mut self, kappa0: f64) -> Self {
        self.cfg.kappa0 = kappa0;
        self
    }

    /// Sets the number of without-replacement samples per query.
    pub fn k(mut self, k: usize) -> Self {
        self.cfg.k = k;
        self
    }

    /// Sets the grid side length as a multiple of `alpha`.
    pub fn side_factor(mut self, f: f64) -> Self {
        self.cfg.side_factor = f;
        self
    }

    /// Overrides the hash independence (0 = auto).
    pub fn independence(mut self, k: usize) -> Self {
        self.cfg.independence = k;
        self
    }

    /// Switches to the high-dimensional regime of Section 4 (grid side
    /// `d * alpha`).
    pub fn high_dim(mut self) -> Self {
        self.cfg.side_factor = self.cfg.dim as f64;
        self
    }

    /// Validates every parameter and returns the configuration.
    ///
    /// # Errors
    ///
    /// The first violated constraint, as a typed [`RdsError`].
    pub fn build(self) -> Result<SamplerConfig, RdsError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// The immutable context shared by sampler instances: the random grid, the
/// k-wise independent cell hash, and the configuration.
///
/// Algorithm 3 keeps `log w` sampler instances over the *same* grid and
/// hash function (only the sample rate `1/R` differs per level), so the
/// context is built once and shared.
#[derive(Clone, Debug)]
pub struct SamplerContext {
    cfg: SamplerConfig,
    grid: Grid,
    hasher: CellHasher,
}

impl SamplerContext {
    /// Builds the context: samples the grid offset and the hash function
    /// from the configured seed.
    pub fn new(cfg: SamplerConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let grid = Grid::random(cfg.dim, cfg.side(), &mut rng);
        let hasher = CellHasher::new(cfg.effective_independence(), &mut rng);
        Self { cfg, grid, hasher }
    }

    /// The configuration.
    pub fn cfg(&self) -> &SamplerConfig {
        &self.cfg
    }

    /// The shared grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The group-diameter threshold `alpha`.
    #[inline]
    pub fn alpha(&self) -> f64 {
        self.cfg.alpha
    }

    /// The cell hasher (key mixer + k-wise hash), exposed so hot paths
    /// can fold cell keys along the adjacency DFS and batch-hash whole
    /// key slices.
    #[inline]
    pub fn hasher(&self) -> &CellHasher {
        &self.hasher
    }

    /// The 64-bit mixer key of `cell(p)`; `scratch` avoids a per-call
    /// allocation.
    #[inline]
    pub fn cell_key(&self, p: &Point, scratch: &mut Vec<i64>) -> u64 {
        self.grid.cell_of_into(p, scratch);
        self.hasher.cell_key(scratch)
    }

    /// Hash of `cell(p)`; `scratch` avoids a per-call allocation.
    #[inline]
    pub fn cell_hash(&self, p: &Point, scratch: &mut Vec<i64>) -> u64 {
        self.hasher.hash_key(self.cell_key(p, scratch))
    }

    /// Whether a previously computed cell hash is sampled at rate
    /// `2^-level` (`h_R(cell) = 0`).
    #[inline]
    pub fn hash_sampled(&self, cell_hash: u64, level: u32) -> bool {
        level_sampled(cell_hash, level)
    }

    /// Whether some cell of `adj(p)` is sampled at rate `2^-level`
    /// (the `∃ C ∈ adj(p): h_R(C) = 0` test of Algorithms 1 and 2),
    /// using the early-exiting `SearchAdj` DFS. The cell keys are folded
    /// incrementally along the DFS, so shared coordinate prefixes are
    /// mixed once instead of once per enumerated cell; the result is
    /// bit-identical to keying each cell from scratch.
    pub fn any_adjacent_sampled(&self, p: &Point, level: u32) -> bool {
        for_each_adjacent_cell_fold(
            &self.grid,
            p,
            self.cfg.alpha,
            self.hasher.mixer().fold_init(self.cfg.dim),
            CellKeyMixer::fold_step,
            |_cell, key| self.hasher.key_sampled(key, level),
        )
    }

    /// Words of memory attributable to the context (grid offset + hash
    /// description), for `pSpace` accounting.
    pub fn words(&self) -> usize {
        self.cfg.dim + self.hasher.words() + 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_scales_with_log_m_and_k() {
        let base = SamplerConfig::builder(2, 1.0)
            .expected_len(1 << 10)
            .build()
            .unwrap();
        let long = SamplerConfig {
            expected_len: 1 << 20,
            ..base.clone()
        };
        assert!(long.threshold() > base.threshold());
        let k3 = SamplerConfig {
            k: 3,
            ..base.clone()
        };
        assert_eq!(k3.threshold(), 3 * base.threshold());
    }

    #[test]
    fn high_dim_uses_side_d_alpha() {
        let cfg = SamplerConfig::builder(8, 0.25).high_dim().build().unwrap();
        assert!((cfg.side() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn context_is_deterministic_in_seed() {
        let cfg = SamplerConfig::builder(3, 0.5).seed(7).build().unwrap();
        let a = SamplerContext::new(cfg.clone());
        let b = SamplerContext::new(cfg);
        let p = Point::new(vec![1.0, 2.0, 3.0]);
        let mut s1 = Vec::new();
        let mut s2 = Vec::new();
        assert_eq!(a.cell_hash(&p, &mut s1), b.cell_hash(&p, &mut s2));
        assert_eq!(a.grid().offset(), b.grid().offset());
    }

    #[test]
    fn level_zero_always_sampled() {
        let ctx = SamplerContext::new(SamplerConfig::builder(2, 0.5).build().unwrap());
        let mut scratch = Vec::new();
        for i in 0..20 {
            let p = Point::new(vec![i as f64, -(i as f64)]);
            let h = ctx.cell_hash(&p, &mut scratch);
            assert!(ctx.hash_sampled(h, 0));
        }
    }

    #[test]
    fn own_cell_sampled_implies_adjacent_sampled() {
        let ctx = SamplerContext::new(SamplerConfig::builder(2, 0.5).seed(3).build().unwrap());
        let mut scratch = Vec::new();
        for i in 0..200 {
            let p = Point::new(vec![i as f64 * 0.37, i as f64 * 0.11]);
            let h = ctx.cell_hash(&p, &mut scratch);
            for level in 0..6 {
                if ctx.hash_sampled(h, level) {
                    assert!(ctx.any_adjacent_sampled(&p, level));
                }
            }
        }
    }

    #[test]
    fn adjacent_sampling_is_monotone_in_level() {
        // Fact 1(b) lifted to neighbourhoods: sampled sets nest, so a
        // sampled adjacent cell at a finer rate is sampled at coarser ones.
        let ctx = SamplerContext::new(SamplerConfig::builder(3, 0.4).seed(11).build().unwrap());
        for i in 0..100 {
            let p = Point::new(vec![i as f64 * 0.21, 1.7, -i as f64 * 0.43]);
            for level in 1..6 {
                if ctx.any_adjacent_sampled(&p, level) {
                    assert!(ctx.any_adjacent_sampled(&p, level - 1));
                }
            }
        }
    }

    #[test]
    fn invalid_alpha_is_a_typed_error() {
        let err = SamplerConfig::builder(2, 0.0).build().unwrap_err();
        assert!(err.to_string().contains("alpha must be positive"));
    }

    #[test]
    fn builder_surfaces_each_invalid_parameter_as_err() {
        use crate::error::RdsError;
        assert!(matches!(
            SamplerConfig::builder(0, 1.0).build(),
            Err(RdsError::InvalidDimension { dim: 0 })
        ));
        assert!(matches!(
            SamplerConfig::builder(2, -1.0).build(),
            Err(RdsError::InvalidAlpha { .. })
        ));
        assert!(matches!(
            SamplerConfig::builder(2, 1.0).kappa0(0.0).build(),
            Err(RdsError::InvalidKappa0 { .. })
        ));
        assert!(matches!(
            SamplerConfig::builder(2, 1.0).k(0).build(),
            Err(RdsError::InvalidK)
        ));
        assert!(matches!(
            SamplerConfig::builder(2, 1.0).side_factor(0.5).build(),
            Err(RdsError::InvalidSideFactor { .. })
        ));
    }

    #[test]
    fn builder_high_dim_uses_side_d_alpha() {
        let cfg = SamplerConfig::builder(8, 0.25)
            .high_dim()
            .build()
            .expect("valid");
        assert!((cfg.side() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn config_round_trips_through_serde() {
        let cfg = SamplerConfig::builder(4, 0.5).seed(9).k(3).build().unwrap();
        let wire = serde_json::to_string(&cfg).expect("serializes");
        let back: SamplerConfig = serde_json::from_str(&wire).expect("deserializes");
        assert_eq!(back, cfg);
    }

    #[test]
    fn auto_independence_is_at_least_eight() {
        let cfg = SamplerConfig::builder(2, 1.0)
            .expected_len(16)
            .build()
            .unwrap();
        assert!(cfg.effective_independence() >= 8);
    }
}
