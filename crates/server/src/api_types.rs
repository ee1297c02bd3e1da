//! Wire types: request/response bodies for every endpoint plus the
//! typed error envelope with machine-readable codes mapped from
//! [`RdsError`].
//!
//! Every error response — HTTP-level or backend-level — has the shape
//!
//! ```json
//! {"error": {"code": "invalid_point", "message": "point 3 has 1 coordinates; server dimension is 2"}}
//! ```
//!
//! where `code` is a stable snake_case identifier clients can switch
//! on and `message` is human-readable detail.

use crate::http::HttpError;
use rds_core::{GroupRecord, RdsError};
use serde::{Deserialize, Serialize};

/// `POST /ingest`: a batch of points, optionally with per-point event
/// times (required only for time-windowed backends; same length as
/// `points` when present).
#[derive(Debug, Clone, Deserialize)]
pub struct IngestRequest {
    /// Row-major points; every row must have the server's dimension.
    pub points: Vec<Vec<f64>>,
    /// Optional event timestamps, one per point.
    pub times: Option<Vec<u64>>,
}

/// `POST /ingest` response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IngestResponse {
    /// Points accepted by this request.
    pub ingested: u64,
    /// Writer's total points seen after the batch.
    pub seen: u64,
    /// Writer's epoch after the batch (publication cadence applies).
    pub epoch: u64,
}

/// Parameters for `/query` and `/query_k`: query string on GET
/// (`?k=8&seed=42`), JSON body on POST. Both fields optional.
#[derive(Debug, Clone, Default, Deserialize)]
pub struct QueryParams {
    /// Samples to draw (default 1 on `/query`, 10 on `/query_k`).
    pub k: Option<u64>,
    /// Explicit draw token: queries with the same `seed` against the
    /// same snapshot return bit-identical records (replayable reads).
    /// Omitted → the server draws from its own counter.
    pub seed: Option<u64>,
}

/// One sampled group on the wire.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecordDto {
    /// The group's representative point (its first stream member).
    pub rep: Vec<f64>,
    /// A uniformly random member of the group (reservoir sample).
    pub reservoir: Vec<f64>,
    /// Stream points that landed in this group.
    pub count: u64,
}

impl RecordDto {
    /// Flattens a [`GroupRecord`] for serialization.
    pub fn from_record(r: &GroupRecord) -> Self {
        Self {
            rep: r.rep.coords().to_vec(),
            reservoir: r.reservoir.coords().to_vec(),
            count: r.count,
        }
    }
}

/// `/query` and `/query_k` response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueryResponse {
    /// Epoch of the snapshot that answered.
    pub epoch: u64,
    /// Points the snapshot had seen.
    pub seen: u64,
    /// Samples requested.
    pub k: u64,
    /// Sampled groups; empty when nothing is live in the window.
    pub records: Vec<RecordDto>,
}

/// `/f0` response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct F0Response {
    /// Epoch of the snapshot that answered.
    pub epoch: u64,
    /// Points the snapshot had seen.
    pub seen: u64,
    /// Estimated number of distinct groups.
    pub f0: f64,
}

/// `POST /advance`: move the stream clock without ingesting (expires
/// windowed state). Both fields optional: `seq` defaults to the points
/// seen so far, `time` defaults to `seq`.
#[derive(Debug, Clone, Default, Deserialize)]
pub struct AdvanceRequest {
    /// New sequence position.
    pub seq: Option<u64>,
    /// New event time.
    pub time: Option<u64>,
}

/// `POST /advance` response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdvanceResponse {
    /// Writer epoch after the advance.
    pub epoch: u64,
    /// Writer's total points seen.
    pub seen: u64,
}

/// `POST /checkpoint/save` and `/checkpoint/restore`: the container
/// path on the **server's** filesystem.
#[derive(Debug, Clone, Deserialize)]
pub struct CheckpointRequest {
    /// Path of the checkpoint container.
    pub path: String,
}

/// Checkpoint save/restore response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CheckpointResponse {
    /// The container path acted on.
    pub path: String,
    /// Writer epoch afterwards.
    pub epoch: u64,
    /// Writer's total points seen afterwards.
    pub seen: u64,
}

/// `POST /admin/shutdown`: optionally checkpoint before draining.
#[derive(Debug, Clone, Default, Deserialize)]
pub struct ShutdownRequest {
    /// Save a final checkpoint container here before stopping.
    pub checkpoint_path: Option<String>,
}

/// `POST /admin/shutdown` response (sent before the listener closes).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShutdownResponse {
    /// Always `"shutting_down"`.
    pub status: String,
    /// Final writer epoch (after the forced last publish).
    pub epoch: u64,
    /// Final points seen.
    pub seen: u64,
}

/// `GET /healthz` response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HealthResponse {
    /// Always `"ok"` when the server can answer at all.
    pub status: String,
    /// Latest published epoch.
    pub epoch: u64,
    /// Points seen by the latest snapshot.
    pub seen: u64,
    /// Point dimensionality this server ingests.
    pub dim: u64,
}

/// `GET /healthz` response when multi-tenant serving is enabled: the
/// plain [`HealthResponse`] fields plus the registry gauge. A separate
/// type (rather than optional fields) keeps the single-tenant response
/// byte-identical to the pre-tenancy server — the registry fields are
/// absent, not null, when tenancy is off.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TenantHealthResponse {
    /// Always `"ok"` when the server can answer at all.
    pub status: String,
    /// Latest published epoch of the global backend.
    pub epoch: u64,
    /// Points seen by the global backend's latest snapshot.
    pub seen: u64,
    /// Point dimensionality this server ingests.
    pub dim: u64,
    /// Tenants known to the registry.
    pub tenants: u64,
    /// Tenants currently resident in memory.
    pub resident: u64,
    /// Machine words the resident tenants occupy.
    pub resident_words: u64,
    /// The global tenant space budget in machine words.
    pub budget_words: u64,
    /// Lifetime evictions that wrote a spill container.
    pub spills: u64,
    /// Lifetime evictions that wrote nothing: the tenant was unchanged
    /// since its restore or creation.
    pub unchanged_evictions: u64,
    /// Lifetime restores from spill containers.
    pub restores: u64,
}

/// The machine-readable half of an error response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ApiError {
    /// Stable snake_case error identifier.
    pub code: String,
    /// Human-readable detail.
    pub message: String,
}

/// The error envelope: every non-2xx body is exactly this shape.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ErrorEnvelope {
    /// The error.
    pub error: ApiError,
}

/// Serializes any wire type; the vendored serializer is total, so the
/// fallback is unreachable in practice but keeps this path panic-free.
pub fn to_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).unwrap_or_default()
}

/// Builds an error-envelope body.
pub fn envelope(code: &str, message: &str) -> String {
    to_json(&ErrorEnvelope {
        error: ApiError {
            code: code.to_string(),
            message: message.to_string(),
        },
    })
}

/// Maps every [`RdsError`] variant to its stable wire code.
pub fn error_code(err: &RdsError) -> &'static str {
    match err {
        RdsError::InvalidDimension { .. } => "invalid_dimension",
        RdsError::InvalidAlpha { .. } => "invalid_alpha",
        RdsError::InvalidKappa0 { .. } => "invalid_kappa0",
        RdsError::InvalidK => "invalid_k",
        RdsError::InvalidSideFactor { .. } => "invalid_side_factor",
        RdsError::InvalidThreshold => "invalid_threshold",
        RdsError::InvalidEps { .. } => "invalid_eps",
        RdsError::InvalidCopies => "invalid_copies",
        RdsError::InvalidKappaB { .. } => "invalid_kappa_b",
        RdsError::InvalidPhi { .. } => "invalid_phi",
        RdsError::InvalidTheta { .. } => "invalid_theta",
        RdsError::InvalidBits { .. } => "invalid_bits",
        RdsError::InvalidDistortion { .. } => "invalid_distortion",
        RdsError::UnboundedWindow => "unbounded_window",
        RdsError::EmptyWindow => "empty_window",
        RdsError::InvalidShards => "invalid_shards",
        RdsError::InvalidBatchSize => "invalid_batch_size",
        RdsError::Checkpoint { .. } => "checkpoint_rejected",
        RdsError::InvalidTenant { .. } => "invalid_tenant",
        RdsError::ConfigMismatch { .. } => "config_mismatch",
        _ => "backend_error",
    }
}

/// HTTP status for a backend error: checkpoint/merge conflicts are
/// `409` (the request was well-formed but the state refused it),
/// everything else is a `400` validation failure.
pub fn error_status(err: &RdsError) -> u16 {
    match err {
        RdsError::Checkpoint { .. } | RdsError::ConfigMismatch { .. } => 409,
        _ => 400,
    }
}

/// A backend error on the wire, with [`error_status`] and [`error_code`].
impl From<RdsError> for HttpError {
    fn from(e: RdsError) -> Self {
        Self::new(error_status(&e), error_code(&e), e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_shape_is_stable() {
        let body = envelope("bad_json", "oops");
        let parsed: ErrorEnvelope = serde_json::from_str(&body).expect("round trip");
        assert_eq!(parsed.error.code, "bad_json");
        assert_eq!(parsed.error.message, "oops");
    }

    #[test]
    fn every_builder_error_maps_to_a_code_and_status() {
        let errs = vec![
            RdsError::InvalidK,
            RdsError::InvalidThreshold,
            RdsError::UnboundedWindow,
            RdsError::EmptyWindow,
            RdsError::InvalidShards,
            RdsError::InvalidBatchSize,
            RdsError::checkpoint("bad magic"),
        ];
        for e in errs {
            assert!(!error_code(&e).is_empty());
            let s = error_status(&e);
            assert!((400..500).contains(&s), "backend errors are 4xx, got {s}");
        }
        assert_eq!(
            error_code(&RdsError::checkpoint("x")),
            "checkpoint_rejected"
        );
        assert_eq!(error_status(&RdsError::checkpoint("x")), 409);
    }

    #[test]
    fn optional_params_tolerate_missing_fields() {
        let p: QueryParams = serde_json::from_str("{}").expect("empty object");
        assert!(p.k.is_none() && p.seed.is_none());
        let p: QueryParams = serde_json::from_str("{\"k\": 3}").expect("partial");
        assert_eq!(p.k, Some(3));
    }
}
