//! Per-tenant endpoints: `/t/{tenant}/ingest|query|query_k|f0`.
//!
//! Parameters, validation and response bodies are the global
//! endpoints'; only the stream differs. Writes go to the registry,
//! which serializes them per tenant with its slot lock, on the worker
//! thread that received the request — the global stream uses the same
//! scheme with its writer lock — and queries against resident tenants
//! answer from a lock-free snapshot pointer. Budget pressure, eviction
//! and restore are entirely the registry's business; a request that
//! touches a spilled tenant simply takes the restore latency once.

use super::{ingest, query, Outcome};
use crate::http::{HttpError, Request};
use crate::{Ack, Shared};
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

pub(crate) fn ingest(req: &Request, shared: &Shared, tenant: &str) -> Result<Outcome, HttpError> {
    let reg = registry(shared)?;
    ingest::accept(req, shared.dim, |points, times| {
        let ack = reg.ingest(tenant, &points, times.as_deref())?;
        Ok(Ack {
            epoch: ack.epoch,
            seen: ack.seen,
        })
    })
}

pub(crate) fn query(
    req: &Request,
    shared: &Shared,
    tenant: &str,
    default_k: u64,
) -> Result<Outcome, HttpError> {
    let reg = registry(shared)?;
    query::query(req, shared, default_k, || Ok(reg.snapshot(tenant)?))
}

pub(crate) fn f0(shared: &Shared, tenant: &str) -> Result<Outcome, HttpError> {
    let reg = registry(shared)?;
    query::f0(|| Ok(reg.snapshot(tenant)?))
}
