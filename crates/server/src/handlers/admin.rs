//! Write-side and lifecycle endpoints: `/advance`, `/checkpoint/*`,
//! `/healthz`, `/admin/shutdown`.

use super::{parse_body, parse_body_or_default, shutting_down, write, Outcome};
use crate::api_types::{
    self, AdvanceRequest, AdvanceResponse, CheckpointRequest, CheckpointResponse, HealthResponse,
    ShutdownRequest, ShutdownResponse,
};
use crate::http::{HttpError, Request};
use crate::Shared;
use rds_core::RdsError;
use rds_stream::Stamp;
use robust_distinct_sampling::Rds;
use std::sync::Arc;

pub(crate) fn advance(req: &Request, shared: &Shared) -> Result<Outcome, HttpError> {
    let body: AdvanceRequest = parse_body_or_default(req)?;
    let ack = write(shared, |w| {
        let seq = body.seq.unwrap_or_else(|| w.seen());
        w.advance(Stamp::new(seq, body.time.unwrap_or(seq)));
        Ok(())
    })?;
    Ok(Outcome::ok(api_types::to_json(&AdvanceResponse {
        epoch: ack.epoch,
        seen: ack.seen,
    })))
}

fn checkpoint_path(req: &Request) -> Result<String, HttpError> {
    let body: CheckpointRequest = parse_body(req)?;
    if body.path.trim().is_empty() {
        return Err(HttpError::new(
            400,
            "invalid_param",
            "`path` must not be empty",
        ));
    }
    Ok(body.path)
}

pub(crate) fn checkpoint_save(req: &Request, shared: &Shared) -> Result<Outcome, HttpError> {
    let path = checkpoint_path(req)?;
    let ack = write(shared, |w| w.checkpoint_to(&path))?;
    Ok(Outcome::ok(api_types::to_json(&CheckpointResponse {
        path,
        epoch: ack.epoch,
        seen: ack.seen,
    })))
}

pub(crate) fn checkpoint_restore(req: &Request, shared: &Shared) -> Result<Outcome, HttpError> {
    let path = checkpoint_path(req)?;
    // The restored writer keeps the running one's publish cadence.
    let ack = write(shared, |w| {
        let (restored, reader) = Rds::builder()
            .publish_cadence(w.cadence())
            .restore_from(&path)?;
        if restored.dim() != shared.dim {
            return Err(RdsError::checkpoint(format!(
                "restore would change the point dimension from {} to {}; \
                 boot a fresh server for that container",
                shared.dim,
                restored.dim()
            )));
        }
        *w = restored;
        shared.reader.store(Arc::new(reader));
        Ok(())
    })?;
    Ok(Outcome::ok(api_types::to_json(&CheckpointResponse {
        path,
        epoch: ack.epoch,
        seen: ack.seen,
    })))
}

pub(crate) fn healthz(shared: &Shared) -> Result<Outcome, HttpError> {
    let snap = shared.reader.load().snapshot();
    // With tenancy enabled the probe carries the registry gauge; without
    // it the response is byte-identical to the pre-tenancy server (the
    // registry fields are absent, not null).
    if let Some(reg) = &shared.tenants {
        let stats = reg.stats();
        return Ok(Outcome::ok(api_types::to_json(
            &api_types::TenantHealthResponse {
                status: "ok".to_string(),
                epoch: snap.epoch(),
                seen: snap.seen(),
                dim: shared.dim as u64,
                tenants: stats.tenants,
                resident: stats.resident,
                resident_words: stats.resident_words,
                budget_words: stats.budget_words,
                spills: stats.spills,
                unchanged_evictions: stats.unchanged_evictions,
                restores: stats.restores,
            },
        )));
    }
    Ok(Outcome::ok(api_types::to_json(&HealthResponse {
        status: "ok".to_string(),
        epoch: snap.epoch(),
        seen: snap.seen(),
        dim: shared.dim as u64,
    })))
}

/// Graceful stop through the server's one stop sequence (final
/// publish, optional checkpoint, retire the writer, spill tenants,
/// stop accepting). The 200 goes out on this connection, which then
/// closes. A second shutdown answers `503 shutting_down`; a failed
/// checkpoint answers its error and leaves the server running.
pub(crate) fn shutdown(req: &Request, shared: &Shared) -> Result<Outcome, HttpError> {
    let body: ShutdownRequest = parse_body_or_default(req)?;
    let ack = shared
        .stop(body.checkpoint_path.as_deref())?
        .ok_or_else(shutting_down)?;
    Ok(Outcome::ok(api_types::to_json(&ShutdownResponse {
        status: "shutting_down".to_string(),
        epoch: ack.epoch,
        seen: ack.seen,
    })))
}
