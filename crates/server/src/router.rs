//! Route table: exact-match paths to handler identities, one
//! parameterized family (`/t/{tenant}/...`), and typed 404/405
//! rejections.
//!
//! The exact-match table is tried first and is byte-identical to the
//! pre-tenancy router — adding the parameterized family could not
//! change how any existing path resolves. A parameterized match
//! extracts exactly one `{tenant}` segment; the segment is returned
//! verbatim (the registry, not the router, owns id validation, so a
//! bad id is a 400 with a precise message instead of a blind 404).

use crate::http::HttpError;

/// Every endpoint the server exposes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Route {
    /// `POST /ingest` — batched points into the writer.
    Ingest,
    /// `GET|POST /query` — one sampled group.
    Query,
    /// `GET|POST /query_k` — k sampled groups.
    QueryK,
    /// `GET|POST /f0` — distinct-group estimate.
    F0,
    /// `POST /advance` — move the stream clock.
    Advance,
    /// `POST /checkpoint/save` — durable container to a path.
    CheckpointSave,
    /// `POST /checkpoint/restore` — swap in a container's state.
    CheckpointRestore,
    /// `GET /healthz` — readiness probe.
    Healthz,
    /// `POST /admin/shutdown` — final publish, optional checkpoint,
    /// drain.
    Shutdown,
    /// `POST /t/{tenant}/ingest` — batched points into one tenant.
    TenantIngest(String),
    /// `GET|POST /t/{tenant}/query` — one sampled group of one tenant.
    TenantQuery(String),
    /// `GET|POST /t/{tenant}/query_k` — k sampled groups of one tenant.
    TenantQueryK(String),
    /// `GET|POST /t/{tenant}/f0` — one tenant's distinct-group
    /// estimate.
    TenantF0(String),
}

/// Resolves `method path`; unknown paths are `404 not_found`, known
/// paths with the wrong method are `405 method_not_allowed` naming the
/// methods that would work.
pub fn route(method: &str, path: &str) -> Result<Route, HttpError> {
    let (route, allowed): (Route, &[&str]) = match path {
        "/ingest" => (Route::Ingest, &["POST"]),
        "/query" => (Route::Query, &["GET", "POST"]),
        "/query_k" => (Route::QueryK, &["GET", "POST"]),
        "/f0" => (Route::F0, &["GET", "POST"]),
        "/advance" => (Route::Advance, &["POST"]),
        "/checkpoint/save" => (Route::CheckpointSave, &["POST"]),
        "/checkpoint/restore" => (Route::CheckpointRestore, &["POST"]),
        "/healthz" => (Route::Healthz, &["GET"]),
        "/admin/shutdown" => (Route::Shutdown, &["POST"]),
        _ => return route_tenant(method, path),
    };
    if allowed.contains(&method) {
        Ok(route)
    } else {
        Err(HttpError::new(
            405,
            "method_not_allowed",
            format!("`{path}` allows {}", allowed.join(", ")),
        ))
    }
}

/// The parameterized family: `/t/{tenant}/{verb}` with exactly one
/// tenant segment (a tenant id containing `/` can never route, so the
/// namespace stays flat by construction).
fn route_tenant(method: &str, path: &str) -> Result<Route, HttpError> {
    let not_found = || HttpError::new(404, "not_found", format!("no route for `{path}`"));
    let Some(rest) = path.strip_prefix("/t/") else {
        return Err(not_found());
    };
    let Some((tenant, verb)) = rest.split_once('/') else {
        return Err(not_found());
    };
    if tenant.is_empty() || verb.is_empty() || verb.contains('/') {
        return Err(not_found());
    }
    let (mk, allowed): (fn(String) -> Route, &[&str]) = match verb {
        "ingest" => (Route::TenantIngest, &["POST"]),
        "query" => (Route::TenantQuery, &["GET", "POST"]),
        "query_k" => (Route::TenantQueryK, &["GET", "POST"]),
        "f0" => (Route::TenantF0, &["GET", "POST"]),
        _ => return Err(not_found()),
    };
    if allowed.contains(&method) {
        Ok(mk(tenant.to_owned()))
    } else {
        Err(HttpError::new(
            405,
            "method_not_allowed",
            format!("`{path}` allows {}", allowed.join(", ")),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_every_endpoint() {
        assert_eq!(route("POST", "/ingest"), Ok(Route::Ingest));
        assert_eq!(route("GET", "/query"), Ok(Route::Query));
        assert_eq!(route("POST", "/query_k"), Ok(Route::QueryK));
        assert_eq!(route("GET", "/f0"), Ok(Route::F0));
        assert_eq!(route("POST", "/advance"), Ok(Route::Advance));
        assert_eq!(route("POST", "/checkpoint/save"), Ok(Route::CheckpointSave));
        assert_eq!(
            route("POST", "/checkpoint/restore"),
            Ok(Route::CheckpointRestore)
        );
        assert_eq!(route("GET", "/healthz"), Ok(Route::Healthz));
        assert_eq!(route("POST", "/admin/shutdown"), Ok(Route::Shutdown));
    }

    #[test]
    fn unknown_path_is_404_and_wrong_method_is_405() {
        let e = route("GET", "/nope").expect_err("404");
        assert_eq!((e.status, e.code), (404, "not_found"));
        let e = route("GET", "/ingest").expect_err("405");
        assert_eq!((e.status, e.code), (405, "method_not_allowed"));
        assert!(e.message.contains("POST"), "{}", e.message);
        let e = route("POST", "/healthz").expect_err("405");
        assert_eq!((e.status, e.code), (405, "method_not_allowed"));
    }

    #[test]
    fn resolves_tenant_endpoints_with_the_id_extracted() {
        assert_eq!(
            route("POST", "/t/acme/ingest"),
            Ok(Route::TenantIngest("acme".to_owned()))
        );
        assert_eq!(
            route("GET", "/t/acme/query"),
            Ok(Route::TenantQuery("acme".to_owned()))
        );
        assert_eq!(
            route("POST", "/t/a.b-c_d/query_k"),
            Ok(Route::TenantQueryK("a.b-c_d".to_owned()))
        );
        assert_eq!(route("GET", "/t/x/f0"), Ok(Route::TenantF0("x".to_owned())));
        // the router extracts verbatim; validation is the registry's job
        assert_eq!(
            route("GET", "/t/bad id!/f0"),
            Ok(Route::TenantF0("bad id!".to_owned()))
        );
    }

    #[test]
    fn tenant_routes_reject_bad_shapes_with_404_and_bad_methods_with_405() {
        for path in [
            "/t",              // no tenant, no verb
            "/t/",             // empty tenant and verb
            "/t/acme",         // no verb
            "/t/acme/",        // empty verb
            "/t//f0",          // empty tenant
            "/t/acme/nope",    // unknown verb
            "/t/a/b/f0",       // nested tenant segment
            "/t/acme/f0/more", // trailing segment
            "/tenant/acme/f0", // wrong prefix
        ] {
            let e = route("GET", path).expect_err(path);
            assert_eq!((e.status, e.code), (404, "not_found"), "{path}");
        }
        let e = route("GET", "/t/acme/ingest").expect_err("405");
        assert_eq!((e.status, e.code), (405, "method_not_allowed"));
        assert!(e.message.contains("POST"), "{}", e.message);
        let e = route("DELETE", "/t/acme/query").expect_err("405");
        assert_eq!((e.status, e.code), (405, "method_not_allowed"));
        assert!(e.message.contains("GET, POST"), "{}", e.message);
    }

    /// The exact-match table wins: a tenant literally named like an
    /// exact path cannot shadow or be shadowed.
    #[test]
    fn exact_paths_stay_byte_identical_under_the_tenant_family() {
        assert_eq!(route("GET", "/query"), Ok(Route::Query));
        assert_eq!(
            route("GET", "/t/query/query"),
            Ok(Route::TenantQuery("query".to_owned()))
        );
        // "/t" as a whole is not an exact route
        let e = route("GET", "/t").expect_err("404");
        assert_eq!(e.status, 404);
    }
}
