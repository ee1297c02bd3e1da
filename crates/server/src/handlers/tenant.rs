//! Per-tenant endpoints: `/t/{tenant}/ingest|query|query_k|f0`.
//!
//! Unlike the global write path (funneled through the single writer
//! thread), tenant operations run directly on the worker thread that
//! received the request: the registry serializes writes per tenant with
//! its slot lock, and queries against resident tenants answer from a
//! lock-free snapshot pointer — so a million tenants do not share one
//! write queue. Budget pressure, eviction and restore are entirely the
//! registry's business; a request that touches a spilled tenant simply
//! takes the restore latency once.

use super::{parse_body, Outcome};
use crate::api_types::{
    self, error_code, error_status, F0Response, IngestRequest, QueryResponse, RecordDto,
};
use crate::handlers::{ingest::validate_batch, query::params};
use crate::http::{HttpError, Request};
use crate::Shared;
use rds_core::RdsError;
use rds_tenant::TenantRegistry;
use std::sync::Arc;

/// The registry, or the typed 404 for servers booted without tenancy.
fn registry(shared: &Shared) -> Result<&Arc<TenantRegistry>, HttpError> {
    shared.tenants.as_ref().ok_or_else(|| {
        HttpError::new(
            404,
            "tenancy_disabled",
            "this server was started without tenancy; /t/... routes are unavailable",
        )
    })
}

/// Maps a registry error onto the wire envelope (`invalid_tenant` is a
/// 400, checkpoint/restore failures are 409, exactly like the global
/// endpoints).
fn backend(e: RdsError) -> HttpError {
    HttpError::new(error_status(&e), error_code(&e), e.to_string())
}

pub(crate) fn ingest(req: &Request, shared: &Shared, tenant: &str) -> Result<Outcome, HttpError> {
    let reg = registry(shared)?;
    let body: IngestRequest = parse_body(req)?;
    let points = validate_batch(&body, shared.dim)?;
    let ack = reg
        .ingest(tenant, &points, body.times.as_deref())
        .map_err(backend)?;
    Ok(Outcome::ok(api_types::to_json(
        &api_types::IngestResponse {
            ingested: points.len() as u64,
            seen: ack.seen,
            epoch: ack.epoch,
        },
    )))
}

/// `/t/{tenant}/query` (`default_k` 1) and `/t/{tenant}/query_k`
/// (`default_k` 10) — same parameters and response shape as the global
/// endpoints, answered from the tenant's snapshot.
pub(crate) fn query(
    req: &Request,
    shared: &Shared,
    tenant: &str,
    default_k: u64,
) -> Result<Outcome, HttpError> {
    let reg = registry(shared)?;
    let p = params(req)?;
    let k = p.k.unwrap_or(default_k);
    if k > super::query::MAX_K {
        return Err(HttpError::new(
            400,
            "invalid_param",
            format!("k={k} exceeds the cap of {}", super::query::MAX_K),
        ));
    }
    let snap = reg.snapshot(tenant).map_err(backend)?;
    let draw = match p.seed {
        Some(s) => s,
        None => shared.next_draw(),
    };
    let records: Vec<RecordDto> = snap
        .query_k_at(k as usize, draw)
        .iter()
        .map(RecordDto::from_record)
        .collect();
    Ok(Outcome::ok(api_types::to_json(&QueryResponse {
        epoch: snap.epoch(),
        seen: snap.seen(),
        k,
        records,
    })))
}

pub(crate) fn f0(shared: &Shared, tenant: &str) -> Result<Outcome, HttpError> {
    let reg = registry(shared)?;
    let snap = reg.snapshot(tenant).map_err(backend)?;
    Ok(Outcome::ok(api_types::to_json(&F0Response {
        epoch: snap.epoch(),
        seen: snap.seen(),
        f0: snap.f0_estimate(),
    })))
}
