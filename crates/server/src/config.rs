//! Server configuration: bind address, threadpool sizing, request
//! limits, the served stream as an [`RdsBuilder`], and multi-tenant
//! serving.

use robust_distinct_sampling::RdsBuilder;

/// Multi-tenant serving: when set, the server additionally exposes
/// `/t/{tenant}/...` routes backed by a [`rds_tenant::TenantRegistry`].
///
/// The registry's template is the global stream's resolved
/// configuration, read from its writer once it is built or restored:
/// dimension, `alpha`, window, seed, expected length, `k` and count
/// accuracy. So a server booted from a checkpoint serves tenants with
/// the checkpoint's configuration. Each tenant is its own single-shard
/// stream, and tenants take no `kappa0`: a `kappa0` set on the global
/// stream does not reach them.
#[derive(Debug, Clone)]
pub struct TenancyConfig {
    /// Global cap on resident tenant footprint, in machine words
    /// (`words()`, the paper's space unit). Idle tenants are spilled to
    /// `spill_dir` when traffic would exceed it.
    pub budget_words: usize,
    /// Directory receiving eviction containers; tenants spilled there
    /// by a previous process restore transparently.
    pub spill_dir: String,
}

/// Everything [`crate::bind`] needs: where to listen, how many worker
/// threads answer requests, per-request limits, and the stream.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// Worker threads answering requests. Each reads from the shared
    /// `RdsReader` and applies writes itself under the writer lock,
    /// so this also bounds how many writes can wait for that lock.
    pub threads: usize,
    /// Hard cap on `Content-Length`; larger bodies get `413`.
    pub max_body_bytes: usize,
    /// Per-connection read timeout: an idle keep-alive connection is
    /// dropped after this long, so shutdown can always drain.
    pub read_timeout_ms: u64,
    /// The global stream: [`crate::bind`] calls its `build_split`, or
    /// its `restore_from` when [`Self::restore_from`] is set. Its
    /// publication cadence applies either way.
    pub stream: RdsBuilder,
    /// Boot from this checkpoint container instead of an empty stream.
    /// Parameters left unset on [`Self::stream`] adopt the checkpoint's
    /// config echo, and parameters set there must match it, as
    /// [`RdsBuilder::restore`] describes.
    pub restore_from: Option<String>,
    /// Multi-tenant serving, off by default (the `/t/...` routes answer
    /// 404 when unset and `/healthz` omits registry fields).
    pub tenants: Option<TenancyConfig>,
}

impl ServerConfig {
    /// Serves `stream` with the defaults: ephemeral loopback port, 4
    /// workers, 1 MiB body cap, a 5 s read timeout, no restore and no
    /// tenancy.
    pub fn new(stream: RdsBuilder) -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            max_body_bytes: 1 << 20,
            read_timeout_ms: 5_000,
            stream,
            restore_from: None,
            tenants: None,
        }
    }
}
