//! Remark 2 of Section 4: robust sampling in very high dimension via
//! Johnson–Lindenstrauss dimension reduction.
//!
//! For `(alpha, beta)`-sparse data with `beta >= c * log^{1.5} m * alpha`,
//! project every point into `k = O(log m / eps^2)` dimensions first; the
//! projection preserves the sparsity structure up to `1 ± eps` w.h.p., so
//! the core sampler can run in the reduced space with a slightly widened
//! threshold `alpha' = (1 + eps) * alpha`.

use crate::checkpoint::{check_dims, checkpoint_err, Checkpointable};
use crate::config::SamplerConfig;
use crate::distributed::MergedSummary;
use crate::error::RdsError;
use crate::infinite::{GroupRecord, ProcessOutcome, RobustL0Sampler, RobustL0State};
use crate::sampler::{DistinctSampler, SamplerSummary};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rds_geometry::{JlProjection, Point};
use rds_stream::StreamItem;
use serde::{Deserialize, Serialize};

/// A robust ℓ0-sampler for high-dimensional data that projects each point
/// with a JL map before feeding the core Algorithm 1 structure.
///
/// The sampler keeps the group decision in the projected space; queries
/// return the *original* high-dimensional points.
#[derive(Debug)]
pub struct JlRobustSampler {
    projection: JlProjection,
    inner: RobustL0Sampler,
    /// original points of the accepted representatives, parallel to the
    /// inner accept set is not possible (the inner structure reorders), so
    /// we map projected reps back via exact match on demand.
    originals: Vec<(Point, Point)>, // (projected rep, original rep)
    eps: f64,
    /// The ambient-space group threshold and base configuration the
    /// sampler was constructed from, kept verbatim so a checkpoint can
    /// rebuild the projection and the inner configuration exactly
    /// (deriving them back from the inner state would round through
    /// `(1 + eps) * alpha` and can drift by an ulp).
    alpha: f64,
    base_cfg: SamplerConfig,
}

impl JlRobustSampler {
    /// Creates the sampler.
    ///
    /// * `in_dim` — the ambient dimension of the stream;
    /// * `alpha` — the group threshold in the *original* space;
    /// * `eps` — JL distortion; the projected space uses
    ///   `alpha' = (1 + eps) * alpha` and dimension
    ///   `k = ceil(8 ln m / eps^2)` (capped at `in_dim`).
    ///
    /// # Errors
    ///
    /// [`RdsError::InvalidDistortion`] unless `0 < eps < 1`,
    /// [`RdsError::InvalidDimension`] when the configured dimension does
    /// not match `in_dim`, or any [`SamplerConfig::validate`] failure.
    pub fn try_new(
        in_dim: usize,
        alpha: f64,
        eps: f64,
        cfg: SamplerConfig,
    ) -> Result<Self, RdsError> {
        if !(eps > 0.0 && eps < 1.0) {
            return Err(RdsError::InvalidDistortion { eps });
        }
        if cfg.dim != in_dim {
            return Err(RdsError::InvalidDimension { dim: cfg.dim });
        }
        cfg.validate()?;
        let out_dim = JlProjection::suggested_dim(cfg.expected_len, eps).min(in_dim);
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x4A4C_5EED);
        let projection = JlProjection::new(in_dim, out_dim, &mut rng);
        let inner_cfg = SamplerConfig {
            dim: out_dim,
            alpha: (1.0 + eps) * alpha,
            ..cfg.clone()
        };
        Ok(Self {
            projection,
            inner: RobustL0Sampler::try_new(inner_cfg)?,
            originals: Vec::new(),
            eps,
            alpha,
            base_cfg: cfg,
        })
    }

    /// Feeds one high-dimensional point.
    pub fn process(&mut self, p: &Point) -> ProcessOutcome {
        let projected = self.projection.project(p);
        let outcome = self.inner.process(&projected);
        if matches!(outcome, ProcessOutcome::Accepted | ProcessOutcome::Rejected) {
            self.originals.push((projected, p.clone()));
        }
        outcome
    }

    /// Draws a robust ℓ0-sample and maps it back to the original space.
    pub fn query(&mut self) -> Option<&Point> {
        let rep = self.inner.query()?.clone();
        self.originals
            .iter()
            .find(|(proj, _)| *proj == rep)
            .map(|(_, orig)| orig)
    }

    /// The projected dimension in use.
    pub fn projected_dim(&self) -> usize {
        self.projection.out_dim()
    }

    /// The JL distortion parameter.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// The inner (projected-space) sampler.
    pub fn inner(&self) -> &RobustL0Sampler {
        &self.inner
    }

    /// Number of points processed.
    pub fn seen(&self) -> u64 {
        self.inner.seen()
    }
}

/// Maps a projected-space record back to the ambient space: the original
/// representative doubles as the reservoir member (the reservoir is only
/// tracked in the projected space). Records with no registered original
/// (never the case for accepted representatives) pass through unchanged.
fn lift_record(originals: &[(Point, Point)], rec: GroupRecord) -> GroupRecord {
    match originals
        .iter()
        .find(|(proj, _)| *proj == rec.rep)
        .map(|(_, orig)| orig.clone())
    {
        Some(orig) => GroupRecord {
            reservoir: orig.clone(),
            rep: orig,
            cell_hash: rec.cell_hash,
            count: rec.count,
        },
        None => rec,
    }
}

/// The serializable full state of a [`JlRobustSampler`]: the construction
/// parameters (the projection matrix is a deterministic function of them
/// and is rebuilt, not stored), the inner projected-space sampler state,
/// and the projected→original representative map.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct JlSamplerState {
    in_dim: usize,
    alpha: f64,
    eps: f64,
    base_cfg: SamplerConfig,
    inner: RobustL0State,
    originals: Vec<(Point, Point)>,
}

impl JlSamplerState {
    /// The ambient dimension of the checkpointed sampler.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// The base configuration the checkpointed sampler was built from.
    pub fn base_cfg(&self) -> &SamplerConfig {
        &self.base_cfg
    }
}

impl Checkpointable for JlRobustSampler {
    type State = JlSamplerState;

    fn checkpoint_state(&self) -> JlSamplerState {
        JlSamplerState {
            in_dim: self.projection.in_dim(),
            alpha: self.alpha,
            eps: self.eps,
            base_cfg: self.base_cfg.clone(),
            inner: self.inner.checkpoint_state(),
            originals: self.originals.clone(),
        }
    }

    fn try_from_state(state: JlSamplerState) -> Result<Self, RdsError> {
        // Rebuild the projection (and re-validate the construction
        // parameters) exactly as `try_new` does, then swap in the
        // captured inner state.
        let mut s = Self::try_new(state.in_dim, state.alpha, state.eps, state.base_cfg)?;
        if s.inner.context().cfg() != state.inner.cfg() {
            return Err(checkpoint_err(
                "inner sampler state does not match the projected-space \
                 configuration derived from the JL construction parameters",
            ));
        }
        let ambient = SamplerConfig {
            dim: state.in_dim,
            ..state.inner.cfg().clone()
        };
        let projected = state.inner.cfg().clone();
        check_dims(
            &projected,
            state.originals.iter().map(|(proj, _)| proj),
            "projected representatives",
        )?;
        check_dims(
            &ambient,
            state.originals.iter().map(|(_, orig)| orig),
            "original representatives",
        )?;
        s.inner = RobustL0Sampler::try_from_state(state.inner)?;
        s.originals = state.originals;
        Ok(s)
    }

    fn state_config(state: &JlSamplerState) -> Option<&SamplerConfig> {
        Some(&state.base_cfg)
    }
}

/// The [`crate::SamplerSummary`] of the JL sampler: the projected-space
/// merged summary plus the projected→original representative map, so
/// queries after a merge still return points of the ambient space.
#[derive(Clone, Debug)]
pub struct JlSummary {
    inner: MergedSummary,
    originals: Vec<(Point, Point)>,
}

impl JlSummary {
    /// The projected-space summary.
    pub fn inner(&self) -> &MergedSummary {
        &self.inner
    }
}

impl SamplerSummary for JlSummary {
    type Merger = ();

    fn merge(self, other: Self) -> Result<Self, RdsError> {
        let mut originals = self.originals;
        originals.extend(other.originals);
        Ok(Self {
            inner: self.inner.merge(other.inner)?,
            originals,
        })
    }

    /// Single-pass N-way merge, delegating to the projected-space
    /// [`MergedSummary::merge_many`].
    fn merge_many(summaries: Vec<Self>) -> Result<Option<Self>, RdsError> {
        let mut inners = Vec::with_capacity(summaries.len());
        let mut originals = Vec::new();
        for s in summaries {
            inners.push(s.inner);
            originals.extend(s.originals);
        }
        Ok(MergedSummary::merge_many(inners)?.map(|inner| JlSummary { inner, originals }))
    }

    fn f0_estimate(&self) -> f64 {
        self.inner.f0_estimate()
    }

    fn query_record(&self, draw: u64) -> Option<GroupRecord> {
        self.inner
            .query_record(draw)
            .map(|rec| lift_record(&self.originals, rec))
    }

    fn query_k(&self, k: usize, draw: u64) -> Vec<GroupRecord> {
        let recs = self.inner.query_k(k, draw);
        recs.into_iter()
            .map(|rec| lift_record(&self.originals, rec))
            .collect()
    }
}

impl DistinctSampler for JlRobustSampler {
    type Summary = JlSummary;

    /// Projects the item's point and feeds the inner sampler; the stamp
    /// is ignored (infinite window).
    fn process(&mut self, item: &StreamItem) -> ProcessOutcome {
        JlRobustSampler::process(self, &item.point)
    }

    fn query_record(&mut self) -> Option<GroupRecord> {
        let rec = DistinctSampler::query_record(&mut self.inner)?;
        Some(lift_record(&self.originals, rec))
    }

    fn query_k(&mut self, k: usize) -> Vec<GroupRecord> {
        let recs = DistinctSampler::query_k(&mut self.inner, k);
        recs.into_iter()
            .map(|rec| lift_record(&self.originals, rec))
            .collect()
    }

    fn f0_estimate(&self) -> f64 {
        self.inner.f0_estimate()
    }

    fn seen(&self) -> u64 {
        self.inner.seen()
    }

    fn words(&self) -> usize {
        let map: usize = self
            .originals
            .iter()
            .map(|(a, b)| a.words() + b.words())
            .sum();
        self.inner.words() + map
    }

    fn summary(&self) -> JlSummary {
        JlSummary {
            inner: DistinctSampler::summary(&self.inner),
            originals: self.originals.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rds_geometry::standard_normal;

    /// Well-separated groups in high dimension: centers on a scaled
    /// simplex, members jittered within alpha/2.
    fn hd_stream(n_groups: usize, per_group: usize, dim: usize, seed: u64) -> Vec<(Point, usize)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers: Vec<Point> = (0..n_groups)
            .map(|g| {
                let mut c = vec![0.0; dim];
                c[g % dim] = 100.0 * (1.0 + (g / dim) as f64);
                Point::new(c)
            })
            .collect();
        let mut out = Vec::new();
        for (g, c) in centers.iter().enumerate() {
            for _ in 0..per_group {
                let jitter: Vec<f64> = (0..dim)
                    .map(|_| standard_normal(&mut rng) * 0.002)
                    .collect();
                out.push((c.add(&Point::new(jitter)), g));
            }
        }
        out
    }

    #[test]
    fn projected_sampler_returns_original_points() {
        let dim = 128;
        let stream = hd_stream(10, 6, dim, 1);
        let cfg = SamplerConfig::builder(dim, 0.5)
            .seed(9)
            .expected_len(stream.len() as u64)
            .build()
            .unwrap();
        let mut s = JlRobustSampler::try_new(dim, 0.5, 0.5, cfg).unwrap();
        for (p, _) in &stream {
            s.process(p);
        }
        let q = s.query().expect("non-empty");
        assert_eq!(q.dim(), dim);
        assert!(stream.iter().any(|(p, _)| p == q));
    }

    #[test]
    fn projection_reduces_dimension() {
        let dim = 512;
        let cfg = SamplerConfig::builder(dim, 0.5)
            .seed(10)
            .expected_len(1 << 10)
            .build()
            .unwrap();
        let s = JlRobustSampler::try_new(dim, 0.5, 0.5, cfg).unwrap();
        assert!(s.projected_dim() < dim);
        assert!(s.projected_dim() > 0);
    }

    #[test]
    fn groups_survive_projection() {
        // all points of a group must stay near-duplicates in the
        // projected space (distance <= (1+eps) alpha)
        let dim = 128;
        let stream = hd_stream(8, 8, dim, 2);
        let cfg = SamplerConfig::builder(dim, 0.5)
            .seed(11)
            .expected_len(stream.len() as u64)
            .build()
            .unwrap();
        let mut s = JlRobustSampler::try_new(dim, 0.5, 0.5, cfg).unwrap();
        let mut accepted_or_rejected = 0;
        for (p, _) in &stream {
            match s.process(p) {
                ProcessOutcome::Accepted | ProcessOutcome::Rejected => accepted_or_rejected += 1,
                _ => {}
            }
        }
        // exactly one representative per group => at most 8 registrations
        assert!(accepted_or_rejected <= 8, "groups fragmented after JL");
    }

    #[test]
    fn mismatched_dim_rejected() {
        let err = JlRobustSampler::try_new(
            64,
            0.5,
            0.5,
            SamplerConfig::builder(32, 0.5).build().unwrap(),
        )
        .unwrap_err();
        assert!(matches!(err, RdsError::InvalidDimension { dim: 32 }));
    }
}
