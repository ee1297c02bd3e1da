//! `POST /ingest`: validate a batch of points, hand it to the writer
//! thread, ack with the post-batch `seen`/`epoch`.

use super::{parse_body, submit, Outcome};
use crate::api_types::{self, IngestRequest, IngestResponse};
use crate::http::{HttpError, Request};
use crate::{Cmd, Shared};
use rds_geometry::Point;

/// Points per request cap: bounds the writer-queue latency one request
/// can induce (and the allocation a hostile batch can demand).
pub(crate) const MAX_BATCH_POINTS: usize = 65_536;

/// Validates a batch against the caps and the server dimension,
/// yielding constructed `Point`s. Shared by the global `/ingest` and
/// the per-tenant `/t/{tenant}/ingest` handlers.
///
/// Every coordinate is validated *before* constructing `Point`s:
/// `Point::from_slice` treats empty/non-finite input as a caller bug and
/// panics, and a panic is exactly what this path must never do. Each
/// point is copied straight from the decoded request into its own
/// shared buffer, one allocation per point.
pub(crate) fn validate_batch(body: &IngestRequest, dim: usize) -> Result<Vec<Point>, HttpError> {
    if body.points.len() > MAX_BATCH_POINTS {
        return Err(HttpError::new(
            400,
            "batch_too_large",
            format!(
                "{} points in one request; the cap is {MAX_BATCH_POINTS}",
                body.points.len()
            ),
        ));
    }
    if let Some(times) = &body.times {
        if times.len() != body.points.len() {
            return Err(HttpError::new(
                400,
                "times_mismatch",
                format!(
                    "{} times for {} points; lengths must match",
                    times.len(),
                    body.points.len()
                ),
            ));
        }
    }
    let mut points = Vec::with_capacity(body.points.len());
    for (i, coords) in body.points.iter().enumerate() {
        if coords.len() != dim {
            return Err(HttpError::new(
                400,
                "invalid_point",
                format!(
                    "point {i} has {} coordinates; server dimension is {dim}",
                    coords.len()
                ),
            ));
        }
        if coords.iter().any(|c| !c.is_finite()) {
            return Err(HttpError::new(
                400,
                "invalid_point",
                format!("point {i} has a non-finite coordinate"),
            ));
        }
        points.push(Point::from_slice(coords));
    }
    Ok(points)
}

pub(crate) fn ingest(req: &Request, shared: &Shared) -> Result<Outcome, HttpError> {
    let body: IngestRequest = parse_body(req)?;
    let points = validate_batch(&body, shared.dim)?;
    let ingested = points.len() as u64;
    let times = body.times;
    let ack = submit(shared, |reply| Cmd::Ingest {
        points,
        times,
        reply,
    })?;
    Ok(Outcome::ok(api_types::to_json(&IngestResponse {
        ingested,
        seen: ack.seen,
        epoch: ack.epoch,
    })))
}
