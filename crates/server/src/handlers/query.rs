//! Read endpoints: `/query`, `/query_k`, `/f0` and their
//! `/t/{tenant}/...` twins. Answered entirely from a lock-free snapshot
//! pointer — the writer is never touched, so reads stay fast during
//! sustained ingest.

use super::{parse_body_or_default, Outcome};
use crate::api_types::{self, F0Response, QueryParams, QueryResponse, RecordDto};
use crate::http::{HttpError, Request};
use crate::Shared;
use robust_distinct_sampling::Snapshot;
use std::sync::Arc;

/// Cap on `k`: a query samples `k` draws from the snapshot, so an
/// unbounded `k` would be a one-request CPU sink.
pub(crate) const MAX_K: u64 = 4_096;

/// GET takes `?k=&seed=`; POST takes the same fields as JSON.
fn params(req: &Request) -> Result<QueryParams, HttpError> {
    if req.method == "POST" {
        return parse_body_or_default(req);
    }
    let mut p = QueryParams::default();
    for (name, value) in &req.query {
        let parsed = value.parse::<u64>().map_err(|_| {
            HttpError::new(
                400,
                "invalid_param",
                format!("parameter `{name}` must be an unsigned integer (got `{value}`)"),
            )
        });
        match name.as_str() {
            "k" => p.k = Some(parsed?),
            "seed" => p.seed = Some(parsed?),
            other => {
                return Err(HttpError::new(
                    400,
                    "unknown_param",
                    format!("unknown query parameter `{other}`"),
                ))
            }
        }
    }
    Ok(p)
}

/// `/query` (`default_k` 1) and `/query_k` (`default_k` 10), answered
/// from the snapshot `snapshot` yields once the parameters check out.
/// An explicit `seed` makes the response a pure function of the
/// snapshot, which is what lets the e2e suite demand bit-identical
/// results against the in-process facade.
pub(crate) fn query<F>(
    req: &Request,
    shared: &Shared,
    default_k: u64,
    snapshot: F,
) -> Result<Outcome, HttpError>
where
    F: FnOnce() -> Result<Arc<Snapshot>, HttpError>,
{
    let p = params(req)?;
    let k = p.k.unwrap_or(default_k);
    if k > MAX_K {
        return Err(HttpError::new(
            400,
            "invalid_param",
            format!("k={k} exceeds the cap of {MAX_K}"),
        ));
    }
    let snap = snapshot()?;
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

/// `/f0`: the distinct-group estimate of the snapshot `snapshot` yields.
pub(crate) fn f0<F>(snapshot: F) -> Result<Outcome, HttpError>
where
    F: FnOnce() -> Result<Arc<Snapshot>, HttpError>,
{
    let snap = snapshot()?;
    Ok(Outcome::ok(api_types::to_json(&F0Response {
        epoch: snap.epoch(),
        seen: snap.seen(),
        f0: snap.f0_estimate(),
    })))
}
