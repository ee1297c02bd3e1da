//! The four named workloads.

pub mod count;
pub mod http;
pub mod sample;
pub mod split;
pub mod tenants;

use crate::report::Report;
use crate::Ctx;

/// Runs workload `name` for `ctx.seconds`, recording its metrics.
pub fn run(name: &str, ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    match name {
        "sample" => sample::run(ctx, report),
        "count" => count::run(ctx, report),
        "http" => http::run(ctx, report),
        "tenants" => tenants::run(ctx, report),
        other => Err(format!(
            "unknown workload `{other}` (sample|count|http|tenants)"
        )),
    }
}
