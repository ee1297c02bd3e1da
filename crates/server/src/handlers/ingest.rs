//! `POST /ingest` and `POST /t/{tenant}/ingest`: validate a batch of
//! points, apply it to the stream's writer, ack with the post-batch
//! `seen`/`epoch`.

use super::{parse_body, write, Outcome};
use crate::api_types::{self, IngestRequest, IngestResponse};
use crate::http::{HttpError, Request};
use crate::{Ack, Shared};
use rds_geometry::Point;
use rds_stream::{Stamp, StreamItem};
use robust_distinct_sampling::PublishCadence;

/// Points per request cap: bounds how long one request can hold a
/// writer lock (and the allocation a hostile batch can demand).
pub(crate) const MAX_BATCH_POINTS: usize = 65_536;

/// Validates a batch against the caps and the server dimension,
/// yielding constructed `Point`s.
///
/// Every coordinate is validated *before* constructing `Point`s:
/// `Point::from_slice` treats empty/non-finite input as a caller bug and
/// panics, and a panic is exactly what this path must never do. Each
/// point is copied straight from the decoded request into its own
/// shared buffer, one allocation per point.
fn validate_batch(body: &IngestRequest, dim: usize) -> Result<Vec<Point>, HttpError> {
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

/// Parses and validates a batch, hands the points and their optional
/// times to `apply` — the global writer or a tenant's — and acks.
pub(crate) fn accept<F>(req: &Request, dim: usize, apply: F) -> Result<Outcome, HttpError>
where
    F: FnOnce(Vec<Point>, Option<Vec<u64>>) -> Result<Ack, HttpError>,
{
    let body: IngestRequest = parse_body(req)?;
    let points = validate_batch(&body, dim)?;
    let ingested = points.len() as u64;
    let ack = apply(points, body.times)?;
    Ok(Outcome::ok(api_types::to_json(&IngestResponse {
        ingested,
        seen: ack.seen,
        epoch: ack.epoch,
    })))
}

/// `POST /ingest`: the batch goes to the global writer, each point
/// stamped with its arrival index (and its time, when given).
pub(crate) fn ingest(req: &Request, shared: &Shared) -> Result<Outcome, HttpError> {
    accept(req, shared.dim, |points, times| {
        write(shared, |w| {
            let before = w.seen();
            let mut times = times.into_iter().flatten();
            for p in points {
                let seq = w.seen();
                let stamp = match times.next() {
                    Some(t) => Stamp::new(seq, t),
                    None => Stamp::at(seq),
                };
                w.process_item(StreamItem::new(p, stamp));
            }
            // `process_item` honors Manual/EveryN; EveryBatch means
            // "publish at the end of each ingest request" here.
            if w.cadence() == PublishCadence::EveryBatch && w.seen() > before {
                w.publish();
            }
            Ok(())
        })
    })
}
